"""Tests of the benchmark itself: oracle negative controls, trace counts.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

workloads = run.load_program()
import oracles  # noqa: E402
import tracing  # noqa: E402
from grs4 import meridians, odeint, reporting, surfaces, verifier  # noqa: E402
from grs4.meridians import MeridianJet  # noqa: E402
from grs4.surfaces import SurfaceSpec  # noqa: E402

LAYER_NAMES = [m["name"] for m in run.BENCH["per_layer"]]


def _one_pass(cls, seed, workdir, tracer=None):
    os.makedirs(workdir, exist_ok=True)
    wl = cls(seed, str(workdir))
    if tracer:
        tracer.begin_pass(0)
    wl.run_pass()
    layers = tracer.end_pass(LAYER_NAMES) if tracer else None
    return wl, wl.snapshot(), layers


@pytest.fixture(scope="module")
def suite_pass(tmp_path_factory):
    """One default-suite pass, traced, with a profiler counting the same calls."""
    targets = {
        "meridians.jet_closed.calls": meridians._ClosedFormFamily.jet.__code__,
        "meridians.jet_sampled.calls": meridians._SampledFamily.jet.__code__,
        "surfaces.position_jets.calls": surfaces.position_jets.__code__,
        "surfaces.frames.calls": surfaces.frames.__code__,
        "verifier.admissible_domain.calls": verifier.admissible_domain.__code__,
        "odeint.rk4_integrate.calls": odeint.rk4_integrate.__code__,
    }
    by_code = {code: name for name, code in targets.items()}
    seen = dict.fromkeys(targets, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in by_code:
            seen[by_code[frame.f_code]] += 1

    tracer = tracing.Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        wl, snap, layers = _one_pass(workloads.Suite, 7,
                                     tmp_path_factory.mktemp("suite"), tracer)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    return wl, snap, layers, seen


# -- oracles: the real outputs pass, wrong outputs count failures --------------

def test_suite_oracle_accepts_report_and_rejects_changed_byte(suite_pass):
    wl, snap, _, _ = suite_pass
    checker = oracles.PassChecker(wl)
    assert checker.failures(snap) == 0
    rc, data = snap.data
    i = data.index(b'"max_residual": ') + len(b'"max_residual": ')
    changed = data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
    assert changed != data and json.loads(changed)      # still valid JSON
    tampered = workloads.Snapshot(hashlib.sha256(changed).hexdigest(), (rc, changed))
    assert checker.failures(tampered) == wl.items
    # the jobs block has a recorded hash, so a changed first pass fails too
    assert oracles.PassChecker(wl).failures(tampered) == wl.items


def test_suite_oracle_counts_unsatisfied_job(suite_pass):
    wl, snap, _, _ = suite_pass
    rc, data = snap.data
    report = json.loads(data)
    jobs_sha256 = hashlib.sha256(json.dumps(report["jobs"], indent=2).encode()).hexdigest()
    assert jobs_sha256 == workloads.SUITE_JOBS_SHA256
    report["jobs"][3]["satisfied"] = False
    report["pass"] = False
    unsatisfied = hashlib.sha256(json.dumps(report["jobs"], indent=2).encode()).hexdigest()
    assert oracles.suite_failures(json.dumps(report).encode(), 1, wl.items, unsatisfied) == 1
    # an exit code that disagrees with the report fails every item
    assert oracles.suite_failures(json.dumps(report).encode(), 0, wl.items,
                                  unsatisfied) == wl.items
    # so do jobs bytes other than the recorded ones, and a sweep in the report
    assert oracles.suite_failures(json.dumps(report).encode(), 1, wl.items,
                                  jobs_sha256) == wl.items
    assert oracles.suite_failures(data, rc, wl.items, jobs_sha256) == 0
    report = json.loads(data)
    report["sweeps"] = [{"name": "chen-trace-sweep", "pass": True}]
    assert oracles.suite_failures(json.dumps(report).encode(), rc, wl.items,
                                  jobs_sha256) == wl.items
    assert oracles.suite_failures(b"not json", rc, wl.items, jobs_sha256) == wl.items


def test_table_oracle_rejects_minimal_property_on_flat_table(tmp_path):
    wl, snap, _ = _one_pass(workloads.Table, 3, tmp_path)
    assert wl.check(snap) == 0
    by_case = {job[0]: (job, text) for job, text in zip(wl.jobs, snap.data)}
    (_, _, _, us, _), text = by_case["flat-ell-ii"]
    minimal = oracles.family_property(by_case["min-ell-ii"][0][1], "closed")
    assert oracles.table_failures(text.decode(), us, minimal) == len(us)
    # min-ell-i has no admissible row; demanding one fails the whole table
    (_, desc, _, us, _), text = by_case["min-ell-i"]
    assert oracles.table_failures(text.decode(), us,
                                  oracles.family_property(desc, "closed")) == len(us)


class _ScaledF:
    """Meridian whose f is scaled by a factor (a deliberately wrong mesh)."""

    def __init__(self, fam, factor):
        self.fam, self.factor = fam, factor

    def jet(self, u):
        mj = self.fam.jet(u)
        return MeridianJet(mj.f * self.factor, mj.g)


def test_mesh_oracle_rejects_perturbed_f(tmp_path):
    wl, snap, _ = _one_pass(workloads.Mesh, 5, tmp_path)
    assert wl.check(snap) == 0
    for spec, us, vs, f_ref, _ in wl.jobs:
        bad = SurfaceSpec(spec.kind, spec.alpha, spec.beta,
                          _ScaledF(spec.meridian, 1.0 + 1e-6))
        path = str(tmp_path / "bad.obj")
        reporting.export_mesh(bad, us, vs, path, fmt="obj3")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        elliptic = spec.kind is surfaces.SurfaceKind.ELLIPTIC
        assert oracles.mesh_failures(text, len(us), len(vs), f_ref,
                                     elliptic) == len(us) * len(vs)
        truncated = text[:text.rindex("\nf ")] + "\n"
        assert oracles.mesh_failures(truncated, len(us), len(vs), f_ref,
                                     elliptic) == len(us) * len(vs)


def test_ode_oracle_rejects_knot_residual_and_wrong_property(tmp_path):
    wl, snap, _ = _one_pass(workloads.Ode, 11, tmp_path)
    assert wl.check(snap) == 0
    texts, knots = snap.data
    c, s, tol = knots[0]
    assert not oracles.knots_ok(10.0 * tol, s, tol)
    bad_knots = [(10.0 * tol, s, tol)] + knots[1:]
    assert wl.check(workloads.Snapshot("x", (texts, bad_knots))) == 1
    # flat-ell-i rows checked for minimality: K = 0 there, H is not
    flat = [i for i, job in enumerate(wl.jobs) if job[0].case == "flat-ell-i"][0]
    minimal = oracles.Property("H_coeff", 0.0, verifier.DEFAULT_TOLS["ode"])
    assert oracles.table_failures(texts[flat].decode(), wl.jobs[flat][1],
                                  minimal) > 0


# -- trace counts ---------------------------------------------------------------

def test_traced_calls_match_profiler(suite_pass):
    """No missing span: the tracer's call counts equal a profiler's."""
    _, _, layers, seen = suite_pass
    for name, count in seen.items():
        assert layers[name] == count > 0, name


def test_suite_trace_sanity(suite_pass):
    _, _, layers, _ = suite_pass
    assert layers["verifier.verify_family.calls"] == 22
    assert layers["meridians.realize.calls"] == layers["odeint.rk4_integrate.calls"]
    assert layers["odeint.steps"] > 0
    assert layers["odeint.hermite_eval.calls"] == layers["meridians.jet_sampled.calls"]
    assert 0.0 < layers["meridians.jet.distinct_ratio"] <= 1.0
    assert layers["verifier.admissible_domain.jet_calls"] > 0
    assert layers["reporting.bytes_written"] > 0
    for name in LAYER_NAMES:
        if name.endswith(".self_s") and "export_" not in name and "invariant_record" not in name:
            assert layers[name] > 0.0, name


def _counts(layers):
    return {k: v for k, v in layers.items() if not k.endswith(".self_s")}


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_traced_counts_repeat_for_a_seed(cls, tmp_path):
    runs = []
    for i in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runs.append(_one_pass(cls, 13, tmp_path / str(i), tracer)[2])
        finally:
            tracer.uninstall()
    assert _counts(runs[0]) == _counts(runs[1])

