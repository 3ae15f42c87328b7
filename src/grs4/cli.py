"""Command-line front end: family catalog, invariant tables, verification,
mesh export.

The family flags of invariants, mesh and 'verify --family' describe one
suite job (_flags_job), which verifier.job_family turns into a family, as
it does every job of 'verify --suite'.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import GrsError, ParamError, ConfigError
from .meridians import FAMILY_CATALOG, build_family, descriptor_from_catalog
from .reporting import (dump_report_json, export_invariants_csv, export_mesh,
                        linspace_grid)
from .surfaces import surface_from_family
from .verifier import default_suite_config, job_family, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _parse_params(values) -> dict:
    out = {}
    for chunk in values or []:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ParamError(f"--params entries must be key=value, got {item!r}")
            key, _, raw = item.partition("=")
            key = key.strip()
            raw = raw.strip()
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


def _add_family_args(p, required=True):
    p.add_argument("--family", required=required,
                   help="case id (see 'grs4 family list')")
    p.add_argument("--params", action="append", default=[],
                   help="comma-separated key=value pairs (repeatable)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1),
                   help="sign branch where the family has one")
    p.add_argument("--root", default="larger", choices=("larger", "smaller"),
                   help="initial root branch for constrained families")
    p.add_argument("--f0", type=float, default=None,
                   help="initial f for integrated families")
    p.add_argument("--g0", type=float, default=None,
                   help="initial g; flat-ell-i and flat-hyp-i derive it from "
                        "their constraint if omitted, the other integrated "
                        "families need it")
    p.add_argument("--u0", type=float, default=None)
    p.add_argument("--u1", type=float, default=None)
    p.add_argument("--nu", type=int, default=50)


def _build_spec(args):
    desc = descriptor_from_catalog(**job_family(_flags_job(args)))
    return surface_from_family(build_family(desc)), desc.interval


def cmd_family(args) -> int:
    if args.action != "list":
        print(f"unknown family action {args.action!r}", file=sys.stderr)
        return EXIT_USAGE
    for case, entry in FAMILY_CATALOG.items():
        if case == "custom":
            continue
        print(f"{case:13s} [{entry.kind.value}, {entry.realization}]  {entry.param_doc}")
    print(f"{'custom':13s} [either, closed]  "
          + FAMILY_CATALOG["custom"].param_doc)
    return EXIT_OK


def cmd_invariants(args) -> int:
    spec, u_range = _build_spec(args)
    us = linspace_grid(u_range[0], u_range[1], args.nu)
    export_invariants_csv(spec, us, args.out)
    print(f"wrote {args.nu} rows to {args.out}")
    return EXIT_OK


def cmd_mesh(args) -> int:
    spec, u_range = _build_spec(args)
    us = linspace_grid(u_range[0], u_range[1], args.nu)
    vs = linspace_grid(args.v0, args.v1, args.nv)
    export_mesh(spec, us, vs, args.out, fmt=args.format,
                projection=args.projection)
    print(f"wrote {args.format} mesh ({args.nu}x{args.nv} grid) to {args.out}")
    return EXIT_OK


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


# the family flags that mirror the suite job key of their name
_JOB_KEYS = ("alpha", "beta", "sign", "root", "u0", "u1", "f0", "g0", "nu", "nv")


def _flags_job(args) -> dict:
    """The suite job the family flags describe, as invariants, mesh and
    'verify --family' read it: the --config file's keys (verify only),
    then each flag given, params merged key by key."""
    config = getattr(args, "config", None)
    job = _load_config_file(config) if config is not None else {}
    job["family"] = args.family
    flags = {key: getattr(args, key, None) for key in _JOB_KEYS}
    job.update((key, val) for key, val in flags.items() if val is not None)
    if getattr(args, "checks", None):
        job["checks"] = args.checks.split(",")
    base = job.get("params") or {}   # job_family rejects a non-object
    if isinstance(base, dict):
        job["params"] = {**base, **_parse_params(args.params)}
    return job


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.suite is not None:
        given = [f"--{k}" for k in ("family", "params", *_JOB_KEYS, "config",
                                    "checks") if getattr(args, k) not in (None, [])]
        if given:
            raise ConfigError(f"--suite runs its own jobs: drop {', '.join(given)}")
        config = (default_suite_config() if args.suite == "default"
                  else _load_config_file(args.suite))
        if args.seed is not None:
            config["seed"] = args.seed
        report = run_suite(config)
        payload = report.to_json()
        ok = report.passed
        for job, (_, _, rep) in zip(payload["jobs"], report.jobs):
            tag = "pass" if job["report"]["pass"] else "FAIL"
            expect = job["expect"]
            suffix = "" if expect == "pass" else f" (expected {expect}: "\
                                                 f"{'ok' if job['satisfied'] else 'NOT satisfied'})"
            print(f"  {job['label']:32s} {tag}{suffix}")
            tight = rep.tightest
            if tight is not None:
                print(f"    tightest: {tight.name} at {tight.margin:.2e} "
                      "of its tolerance")
        for c in payload["sweeps"]:
            state = "vacuous" if c["vacuous"] else "pass" if c["pass"] else "FAIL"
            print(f"  {c['name']:32s} {state}")
    elif args.family is not None:
        if args.seed is not None:
            raise ConfigError("--seed seeds a suite's sweep; --family runs none")
        [(_, _, report)] = run_suite({"jobs": [_flags_job(args)]}).jobs
        payload = report.to_json()
        ok = report.passed
        for c in report.checks:
            state = "vacuous" if c.vacuous else ("pass" if c.passed else "FAIL")
            margin = "-" if c.margin is None else f"{c.margin:.2e}"
            print(f"  {c.name:32s} {state:8s} max_residual={c.max_residual:.3e} "
                  f"tol={c.tolerance:.1e} margin={margin}")
    else:
        print("verify needs --family or --suite", file=sys.stderr)
        return EXIT_USAGE

    elapsed = time.perf_counter() - t0
    if args.report:
        dump_report_json(payload, args.report)
        print(f"report written to {args.report}")
    print(f"overall: {'pass' if ok else 'FAIL'} ({elapsed:.1f}s)",
          file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grs4",
        description="Rotational surfaces in the neutral-metric 4-space: "
                    "invariants, classified families, numerical verification")
    sub = ap.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="catalog operations")
    p_family.add_argument("action", help="'list' prints the case catalog")
    p_family.set_defaults(fn=cmd_family)

    p_inv = sub.add_parser("invariants", help="export an invariant CSV table")
    _add_family_args(p_inv)
    p_inv.add_argument("--out", required=True, help="output CSV path")
    p_inv.set_defaults(fn=cmd_invariants)

    p_ver = sub.add_parser("verify", help="run verification checks")
    _add_family_args(p_ver, required=False)
    p_ver.add_argument("--nv", type=int, default=None)
    # a flag left out leaves the config file's value or verify_family's default
    p_ver.set_defaults(sign=None, root=None, nu=None)
    p_ver.add_argument("--checks", default=None,
                       help="extra property checks, comma-separated")
    p_ver.add_argument("--config", default=None,
                       help="JSON file mirroring the flags (the keys of a "
                            "suite job); flags override")
    p_ver.add_argument("--suite", default=None,
                       help="'default' or a suite config JSON path")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="the suite's seed, over its own (default 20240)")
    p_ver.add_argument("--report", default=None, help="write JSON report here")
    p_ver.set_defaults(fn=cmd_verify)

    p_mesh = sub.add_parser("mesh", help="sample the immersion to a file")
    _add_family_args(p_mesh)
    p_mesh.add_argument("--v0", type=float, required=True)
    p_mesh.add_argument("--v1", type=float, required=True)
    p_mesh.add_argument("--nv", type=int, default=10)
    p_mesh.add_argument("--format", default="csv4", choices=("csv4", "obj3"))
    p_mesh.add_argument("--projection", default="drop-x4",
                        help="'drop-x4' or 'ortho:x1,x2,x3'")
    p_mesh.add_argument("--out", required=True)
    p_mesh.set_defaults(fn=cmd_mesh)
    return ap


def cmd_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except GrsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
