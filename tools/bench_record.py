"""Record one checkout's benchmark numbers in a BENCH_<label>.json file.

Usage, from the root of this repository:

    python3 tools/bench_record.py --label NAME [--checkout DIR]

For each workload in the checkout's BENCHMARK.json it runs
``perfbench/run.py --trace 0`` of that checkout (end-to-end metrics, tracing
off, seed 31, perfbench's default of run_seconds per workload) and then
``--trace 1`` (the per-layer metrics).  Then it times the full default
suite, ``grs4 verify --suite default`` with its random-point sweep on
(seed 31), SUITE_RUNS times, each in a fresh process, and the checkout's
tier-1 tests once.  The JSON, written at the root of this repository,
holds the machine facts that perfbench prints (nproc, CPU, Python, numpy),
each workload's setup_s, wall_s, items_per_s, peak_rss_mb and ok_ratio,
under "layers" each workload's per-layer medians (calls and self seconds
per pass, with tracing on; the self seconds at the reference speed, that
is, multiplied by the traced run's median host speed, which
"layers_host_speed" records), under "default_suite" the median and every
run of the full suite's wall time (raw seconds, interpreter start
included, not converted to a reference speed), under "suite_calls" the
calls per pass of the grid routes and the point stage in PROFILED,
counted by cProfile over one default-suite pass with the sweep off (a
layer that perfbench's tracer does not wrap), under "suite_calls_sweep"
the same over one pass with the sweep on, under "realizations" each
integrated catalog case's median ``build_family`` time over REALIZE_RUNS
in-process runs (raw seconds; the RK4 realization is nearly all of it)
with its steps, field_calls and halvings, under "suite_nu1000" the max RSS
and wall time of ``run_suite`` on the default jobs at nu = 1000, sweep
off, each of NU1000_RUNS runs in a fresh process (grids above
verifier._STACK_ROWS, which no workload has), and the tier-1 wall time
with its pytest summary line.  Under "source" it records facts of the
checkout's source: the line count of src/grs4/*.py (as wc -l counts), the
sha256 of the full report of ``grs4 verify --suite default --seed S
--report`` for each S of SUITE_REPORT_SEEDS (keyed by seed; older records
hold the seed-31 digest alone), the sha256 of the writer outputs in
WRITER_OUTPUTS (an invariant CSV and obj3 and csv4 meshes, each longer
than one writer block)
and, under "perfbench_output_sha256", the digest of each workload's first
pass that perfbench prints, so a change that claims to keep the report,
writer or workload bytes shows it.  Nothing under perfbench/ is changed;
the runs go one after another, each in its own process.

The fresh processes of grs4 (the default suite, suite_nu1000, the
realizations, the profile and the source facts; not perfbench, not
tier-1) import their modules from bytecode under a private
PYTHONPYCACHEPREFIX, written once per checkout by the _WARM processes and
removed at exit.  Where PYTHONDONTWRITEBYTECODE is set and the checkout has
no __pycache__, each process would otherwise compile grs4 from source,
inside its wall time and ru_maxrss.  Nothing is written into the checkout.

To compare two commits, record both on one machine in one sitting, for
example a ``git archive`` of the parent in a scratch directory as
``--checkout`` and this tree.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "wall_s", "items_per_s", "peak_rss_mb", "ok_ratio")
SEED = 31
# the seeds at which the full default-suite report is to stay byte-identical
SUITE_REPORT_SEEDS = (31, 20240)
SUITE_RUNS = 5
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
# grs4 commands whose --out bytes are recorded (pinned in tests/test_cli.py)
_MESH = ["mesh", "--family", "pnmcv-ell", "--v0", "0", "--v1", "6.25",
         "--nu", "500", "--nv", "10", "--format"]
WRITER_OUTPUTS = {
    "invariants_csv_sha256": ["invariants", "--family", "pnmcv-ell",
                              "--nu", "5000"],
    "mesh_obj3_sha256": _MESH + ["obj3"],
    "mesh_csv4_sha256": _MESH + ["csv4"],
}


def parse_perfbench(stdout: str) -> dict:
    """The facts one perfbench run prints: its machine facts, the sha256 of
    its first pass's output, the median of its host speed per pass and the
    result JSON of its last line."""
    lines = stdout.splitlines()

    def after(prefix):
        return next(line[len(prefix):] for line in lines
                    if line.startswith(prefix))

    speeds = [float(v) for v in after("# host speed per pass ").split()]
    return {"machine": json.loads(after("# machine ")),
            "output_sha256": after("# output sha256 ").split()[0],
            "host_speed": statistics.median(speeds),
            "result": json.loads(lines[-1])}


def reference_layers(run: dict) -> dict:
    """The per-layer medians of a traced run, each *.self_s multiplied by
    the run's median host speed: seconds at the reference speed, as
    perfbench gives wall_s, so that layers of runs in different phases of
    a shared host compare."""
    return {name: m["value"] * run["host_speed"] if name.endswith(".self_s")
            else m["value"] for name, m in run["result"]["metrics"].items()}


def run_perfbench(checkout: str, workload: str, trace: int) -> dict:
    """parse_perfbench of one perfbench run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_perfbench(out.stdout)


def run_workload(checkout: str, workload: str):
    """(untraced run, end-to-end metrics, traced run) of a workload."""
    run = run_perfbench(checkout, workload, 0)
    metrics = {m: run["result"]["metrics"][m]["value"] for m in METRICS}
    metrics["attempted"] = run["result"]["attempted"]
    metrics["failed"] = run["result"]["failed"]
    return run, metrics, run_perfbench(checkout, workload, 1)


# the meridian and grid routes, the rotations, the scan and the point stage
# whose calls per default-suite pass are recorded
PROFILED = ("jet_columns", "_meridian_columns", "invariant_grid",
            "_invariant_rows", "_rotations", "_frame_from", "_projection",
            "fd_connection_rows", "admissible_domain", "check_points")
_PROFILE = """
import cProfile, json, pstats, sys
from grs4.verifier import default_suite_config, run_suite
prof = cProfile.Profile()
cfg = default_suite_config(int(sys.argv[1]))
prof.runcall(run_suite, cfg if sys.argv[2] == "on" else dict(cfg, sweep_points=0))
print(json.dumps([[path, name, stat[1]]
                  for (path, _, name), stat in pstats.Stats(prof).stats.items()]))
"""


def call_counts(rows) -> dict:
    """Calls of each PROFILED name from a profile's (path, function,
    calls) rows, summed over the functions of that name in grs4 modules."""
    counts = dict.fromkeys(PROFILED, 0)
    for path, name, calls in rows:
        if name in counts and os.path.basename(os.path.dirname(path)) == "grs4":
            counts[name] += calls
    return counts


def run_profile(checkout: str, sweep: bool = False) -> dict:
    """call_counts of one default-suite pass of the checkout, its sweep on
    where sweep is set and off otherwise."""
    out = subprocess.run([sys.executable, "-c", _PROFILE, str(SEED),
                          "on" if sweep else "off"],
                         cwd=checkout, env=_src_env(checkout),
                         capture_output=True, text=True, check=True)
    return call_counts(json.loads(out.stdout))


REALIZE_RUNS = 9
_REALIZE = """
import json, statistics, sys, time
from grs4.meridians import FAMILY_CATALOG, build_family, descriptor_from_catalog
out = {}
for case, entry in FAMILY_CATALOG.items():
    if entry.realization != "ode":
        continue
    desc, times = descriptor_from_catalog(case), []
    for _ in range(int(sys.argv[1])):
        t0 = time.perf_counter()
        sm = build_family(desc).ensure_realized()
        times.append(time.perf_counter() - t0)
    out[case] = {"build_s": statistics.median(times), "steps": sm.steps,
                 "field_calls": sm.field_calls, "halvings": sm.halvings}
print(json.dumps(out))
"""


def run_realizations(checkout: str) -> dict:
    """Per integrated catalog case of the checkout: the median build_family
    time of REALIZE_RUNS runs in one process and the realization's counts."""
    out = subprocess.run([sys.executable, "-c", _REALIZE, str(REALIZE_RUNS)],
                         cwd=checkout, env=_src_env(checkout),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


NU1000_RUNS = 3
_SUITE_NU1000 = """
import json, resource, sys, time
from grs4.verifier import default_suite_config, run_suite
cfg = dict(default_suite_config(int(sys.argv[1])), sweep_points=0)
cfg["jobs"] = [dict(job, nu=1000) for job in cfg["jobs"]]
t0 = time.perf_counter()
run_suite(cfg)
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall, "max_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_suite_nu1000(checkout: str, runs: int = NU1000_RUNS) -> dict:
    """Medians and runs of the max RSS (MB, ru_maxrss) and the run_suite
    wall time of the sweep-off default jobs at nu = 1000, one fresh process
    per run."""
    out = [json.loads(subprocess.run(
        [sys.executable, "-c", _SUITE_NU1000, str(SEED)], cwd=checkout,
        env=_src_env(checkout), capture_output=True, text=True,
        check=True).stdout) for _ in range(runs)]
    return {key: statistics.median(r[key] for r in out) for key in out[0]} | {
        "runs": out}


def _src_env(checkout: str, precompiled: bool = True) -> dict:
    """The environment with the checkout's src first on PYTHONPATH and, if
    precompiled, PYTHONPYCACHEPREFIX set to _pycache_prefix(checkout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(checkout, "src"), env.get("PYTHONPATH")) if p)
    if precompiled:
        env["PYTHONPYCACHEPREFIX"] = _pycache_prefix(checkout)
    return env


# a CLI run and the imports of the -c scripts above: with bytecode writing
# on and a fresh PYTHONPYCACHEPREFIX, they write there the bytecode of grs4
# and of every module the fresh processes import (with a prefix set, the
# installed __pycache__ directories are not read)
_WARM = (["-m", "grs4", "verify", "--family", "pnmcv-ell", "--nu", "5"],
         ["-c", "import cProfile, json, pstats, resource, statistics, time, "
                "grs4.cli, grs4.meridians, grs4.verifier"])


@functools.cache
def _pycache_prefix(checkout: str) -> str:
    """A private PYTHONPYCACHEPREFIX outside the checkout, removed at exit,
    holding the bytecode that the _WARM processes of the checkout wrote."""
    prefix = tempfile.mkdtemp(prefix="bench_record_pycache_")
    atexit.register(shutil.rmtree, prefix, ignore_errors=True)
    env = dict(_src_env(checkout, precompiled=False), PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for argv in _WARM:
        subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                       capture_output=True)
    return prefix


def run_default_suite(checkout: str) -> dict:
    """Median and runs of the wall time of ``grs4 verify --suite default``,
    sweep on, one fresh process per run."""
    runs, codes = [], set()
    env = _src_env(checkout)   # precompiles before the first timed run
    for _ in range(SUITE_RUNS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "grs4", "verify", "--suite", "default",
             "--seed", str(SEED)], cwd=checkout, env=env,
            capture_output=True, text=True)
        runs.append(time.perf_counter() - t0)
        codes.add(out.returncode)
    return {"wall_s": statistics.median(runs), "runs_s": runs,
            "exit_codes": sorted(codes)}


def _output_sha256(checkout: str, argv: list, flag: str = "--out") -> str:
    """sha256 of the file that ``grs4 <argv> <flag> FILE`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        subprocess.run([sys.executable, "-m", "grs4", *argv, flag, path],
                       cwd=checkout, env=_src_env(checkout),
                       capture_output=True, text=True)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def suite_report_sha256(checkout: str, seed: int) -> str:
    """sha256 of the checkout's full default-suite report at seed."""
    return _output_sha256(checkout, ["verify", "--suite", "default", "--seed",
                                     str(seed)], "--report")


def source_facts(checkout: str) -> dict:
    """Line count of src/grs4/*.py, sha256 of the default-suite report at
    each of SUITE_REPORT_SEEDS and of each WRITER_OUTPUTS file, all of the
    checkout."""
    lines = 0
    for path in glob.glob(os.path.join(checkout, "src", "grs4", "*.py")):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    return {"src_grs4_lines": lines,
            "default_suite_report_sha256": {
                str(seed): suite_report_sha256(checkout, seed)
                for seed in SUITE_REPORT_SEEDS},
            **{name: _output_sha256(checkout, argv)
               for name, argv in WRITER_OUTPUTS.items()}}


def run_tier1(checkout: str) -> dict:
    env = _src_env(checkout, precompiled=False)   # comparable with older records
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable] + TIER1, cwd=checkout, env=env,
                         capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    return {"wall_s": wall, "exit_code": out.returncode, "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="file name: BENCH_<label>.json")
    ap.add_argument("--checkout", default=ROOT,
                    help="root of the checkout to measure (default: this one)")
    args = ap.parse_args(argv)

    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    facts, workloads, layers, speeds, digests = None, {}, {}, {}, {}
    for w in bench["workloads"]:
        name = w["name"]
        print(f"bench_record: {name} ...", file=sys.stderr, flush=True)
        run, workloads[name], traced = run_workload(checkout, name)
        facts, digests[name] = run["machine"], run["output_sha256"]
        layers[name] = reference_layers(traced)
        speeds[name] = traced["host_speed"]
    print("bench_record: default suite ...", file=sys.stderr, flush=True)
    suite = run_default_suite(checkout)
    print("bench_record: tier-1 ...", file=sys.stderr, flush=True)
    record = {
        "label": args.label,
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {k: facts[k] for k in ("nproc", "cpu", "python", "numpy")},
        "seed": SEED,
        "seconds": bench["run_seconds"],
        "workloads": workloads,
        "layers": layers,
        "layers_host_speed": speeds,
        "default_suite": suite,
        "suite_calls": run_profile(checkout),
        "suite_calls_sweep": run_profile(checkout, sweep=True),
        "realizations": run_realizations(checkout),
        "suite_nu1000": run_suite_nu1000(checkout),
        "source": {**source_facts(checkout),
                   "perfbench_output_sha256": digests},
        "tier1": run_tier1(checkout),
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
