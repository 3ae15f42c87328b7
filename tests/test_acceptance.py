"""Acceptance gate: one test per criterion, each printing a pass line.

Everything runs off the default verification suite (plus a handful of
direct probes) on one core; the whole module completes in well under two
minutes.
"""

import hashlib
import json

import pytest

from grs4.cli import cmd_dispatch
from grs4.meridians import build_family, descriptor_from_catalog
from grs4.reporting import report_json_bytes
from grs4.surfaces import geometric_functions, surface_from_family
from grs4.verifier import admissible_domain, default_suite_config, run_suite
from fd_jobs import fd_rows

MINIMAL_LABELS = ("min-ell-ii", "min-ell-iii", "min-hyp-i", "min-hyp-ii",
                  "min-hyp-ii[A<0]", "min-hyp-iii")
PNMCV_LABELS = ("pnmcv-ell[C=0.5]", "pnmcv-ell[C=2]", "pnmcv-ell[C=5]",
                "pnmcv-hyp[C=0.5]", "pnmcv-hyp[C=2]", "pnmcv-hyp[C=5]")


@pytest.fixture(scope="module")
def suite():
    import time
    t0 = time.perf_counter()
    payload = run_suite(default_suite_config()).to_json()
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"suite must stay under two minutes ({elapsed:.0f}s)"
    return payload


def _reports(suite):
    return {job["label"]: job["report"] for job in suite["jobs"]}


def _check(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c
    raise AssertionError(f"check {name!r} missing from {report['family']}")


def _passline(n, text):
    print(f"ACCEPTANCE {n:2d}: PASS  {text}")


def test_criterion_01_frame_orthonormality(suite):
    reports = _reports(suite)
    nonvacuous = 0
    for label, rep in reports.items():
        if label == "negative-control-nonminimal":
            continue
        c = _check(rep, "frame-orthonormality")
        if c["vacuous"]:
            assert rep["family"] == "min-ell-i"
            continue
        assert c["pass"] and c["tolerance"] == 1e-12, label
        nonvacuous += 1
    assert nonvacuous >= 15
    _passline(1, f"frame orthonormality <= 1e-12 on {nonvacuous} family runs "
                 "(50x8 grids)")


def test_criterion_02_minimal_families(suite):
    reports = _reports(suite)
    worst = {}
    for label in MINIMAL_LABELS:
        c = _check(reports[label], "minimal-h-coeff")
        tol = 1e-6 if label == "min-hyp-iii" else 1e-9
        assert not c["vacuous"], label
        assert c["max_residual"] <= tol, (label, c)
        worst[label] = c["max_residual"]
    _passline(2, "six admissible minimal cases: max |h| = "
                 f"{max(worst.values()):.2e}")


def test_criterion_03_pnmcv_families(suite):
    reports = _reports(suite)
    for label in PNMCV_LABELS:
        rep = reports[label]
        assert _check(rep, "pnmcv-beta2")["max_residual"] <= 1e-12, label
        assert _check(rep, "pnmcv-h-norm2")["max_residual"] <= 1e-10, label
        assert _check(rep, "pnmcv-h-value")["max_residual"] <= 1e-10, label
    _passline(3, "parallel normalized mean curvature ladder C in {0.5,2,5}, "
                 "both kinds")


def test_criterion_04_flat_families(suite):
    reports = _reports(suite)
    for label, tol in (("flat-ell-i", 1e-6), ("flat-hyp-i", 1e-6),
                       ("flat-ell-ii", 1e-9), ("flat-hyp-ii", 1e-9)):
        rep = reports[label]
        assert _check(rep, "flat-gauss-curvature")["max_residual"] <= tol, label
        assert _check(rep, "flat-mu2-plus-nu1nu2")["max_residual"] <= tol, label
    _passline(4, "flat families: |K| and |mu^2 + nu1 nu2| within tier bounds")


def test_criterion_05_flat_normal_connection(suite):
    reports = _reports(suite)
    for label, tol in (("fnc-ell-i", 1e-9), ("fnc-hyp-i", 1e-9),
                       ("fnc-ell-ii", 1e-6), ("fnc-hyp-ii", 1e-6)):
        c = _check(reports[label], "fnc-normal-curvature")
        assert c["max_residual"] <= tol, label
    spec = surface_from_family(build_family(
        descriptor_from_catalog("fnc-ell-i", {"c": 1.2}, alpha=1.0, beta=2.0)))
    gf = geometric_functions(spec, 1.0)
    expected = (0.0, 2.12000, 0.0, -1.50756, 0.518222)
    got = (gf.nu1, gf.nu2, gf.mu, gf.gamma2, gf.beta2)
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-5, (got, expected)
    _passline(5, "flat normal connection: |kappa| in bounds; geometric "
                 "functions at (c,alpha,beta,u)=(1.2,1,2,1) match to 1e-5")


def test_criterion_06_chen_property(suite):
    sweeps = {c["name"]: c for c in suite["sweeps"]}
    assert sweeps["chen-trace-sweep"]["max_residual"] <= 1e-12
    assert sweeps["chen-allied-sweep"]["max_residual"] <= 1e-12
    assert "200 random admissible points" in sweeps["chen-trace-sweep"]["notes"]
    _passline(6, "Chen property at 200 random points: "
                 f"tr={sweeps['chen-trace-sweep']['max_residual']:.2e}, "
                 f"allied={sweeps['chen-allied-sweep']['max_residual']:.2e}")


def test_criterion_07_quasi_minimal_exclusion(suite):
    sweeps = {c["name"]: c for c in suite["sweeps"]}
    assert sweeps["quasi-minimal-sweep"]["max_residual"] <= 1e-12
    assert sweeps["h-norm2-sweep"]["max_residual"] <= 1e-12
    reports = _reports(suite)
    for label, rep in reports.items():
        if label == "negative-control-nonminimal":
            continue
        c = _check(rep, "quasi-minimal-off-component")
        assert c["vacuous"] or c["max_residual"] <= 1e-12, label
        c2 = _check(rep, "h-norm2-definition")
        assert c2["vacuous"] or c2["max_residual"] <= 1e-12, label
    _passline(7, "quasi-minimal exclusion: H stays on its carrier normal, "
                 "H_norm2 = -h^2")


def test_criterion_08_consistency_oracles(suite):
    reports = _reports(suite)
    for label, rep in reports.items():
        if label == "negative-control-nonminimal":
            continue
        for name in ("gauss-equation-route", "normal-curvature-route"):
            c = _check(rep, name)
            assert c["vacuous"] or c["max_residual"] <= 1e-11, (label, name)
        c = _check(rep, "fd-connection")
        assert c["vacuous"] or c["max_residual"] <= 1e-6, label
        c = _check(rep, "fd-shrinkage")
        assert c["vacuous"] or c["pass"], label
    spec = surface_from_family(build_family(
        descriptor_from_catalog("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0)))
    names, rows = fd_rows(spec, [(3.0, 0.7)], [1e-4, 5e-5])
    rows_h = dict(zip(names, rows[:, 0, 0].tolist()))
    rows_h2 = dict(zip(names, rows[:, 0, 1].tolist()))
    observed = [rows_h[n] / rows_h2[n] for n in rows_h if rows_h[n] > 2.5e-10]
    assert observed and all(3.5 <= r <= 4.5 for r in observed)
    _passline(8, "dual-route K and kappa <= 1e-11; eight FD rows <= 1e-6 "
                 "with second-order shrinkage")


def test_criterion_09_empty_domain_finding(suite):
    for c_val in (0.5, 1.0, 2.0):
        for alpha, beta in ((1.0, 2.0), (2.0, 1.0), (3.0, 1.0)):
            for sign in (1, -1):
                spec = surface_from_family(build_family(
                    descriptor_from_catalog(
                        "min-ell-i", {"c": c_val}, alpha=alpha, beta=beta,
                        sign=sign, interval=(0.01, 100.0))))
                assert admissible_domain(spec, 0.01, 100.0, 2001) == []
    vac = [v for v in suite["vacuous"] if v["family"] == "min-ell-i"]
    assert vac and any("empty admissible domain" in v["notes"] for v in vac)
    _passline(9, "min-ell-i admissible domain empty for 9 parameter pairs x "
                 "both branches; reported vacuous with note")


def test_criterion_10_negative_control(suite, tmp_path):
    rep = _reports(suite)["negative-control-nonminimal"]
    assert rep["pass"] is False
    assert _check(rep, "minimal-h-coeff")["max_residual"] > 1e-3
    code = cmd_dispatch([
        "verify", "--family", "custom", "--params",
        "f=u**2,g=u,kind=elliptic", "--alpha", "1", "--beta", "3",
        "--u0", "0.6", "--u1", "2.8", "--checks", "minimal",
        "--report", str(tmp_path / "neg.json")])
    assert code == 1
    _passline(10, "non-minimal control fails minimality with |h| > 1e-3 and "
                  "verify exits 1")


def test_criterion_11_determinism(suite, tmp_path):
    cfg = default_suite_config()
    again = run_suite(cfg).to_json()
    assert report_json_bytes(suite) == report_json_bytes(again)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("invariants", "--family", "pnmcv-ell", "--params", "C=2",
            "--u0", "2.1", "--u1", "6", "--nu", "40")
    assert cmd_dispatch(list(args) + ["--out", str(a)]) == 0
    assert cmd_dispatch(list(args) + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _passline(11, "suite JSON and invariant CSV byte-identical across reruns")


SUITE_JOBS_SHA256 = "02c9adf41113d7a46ed192e702e3d59512a9bbc9ea378c85d40cd4376861cf6d"
SUITE_SWEEPS_SHA256 = "d0e1f603512c4cea2164203cee63e4cac8ae491e1eb41d7c83d26bdbd972eb1a"
# the whole report of grs4 verify --suite default --seed 31 --report, the
# sweep's random points drawn from a second seed
SUITE_REPORT_SEED31_SHA256 = "2dea00520198c7d51320ec61b9293a3b5c6b270fdb264bfd8bff4eb16b12067a"


def test_suite_jobs_bytes_pinned(suite):
    """The jobs block of the default suite, as the report writes it, hashes
    to the pinned digest.

    The digest was recorded on Linux x86-64 with glibc's libm and OpenBLAS
    0.3.31 (Haswell kernel): last-bit differences in math.sinh and friends,
    or in the BLAS 2x2 products of the Chen trace, change these bytes.  On
    another libm or BLAS a mismatch calls for a re-pin after checking the
    residuals, not necessarily for a fix.
    """
    data = json.dumps(suite["jobs"], indent=2).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == SUITE_JOBS_SHA256


def test_suite_sweeps_bytes_pinned(suite):
    """The random-point sweep block of the default suite (seed 20240), as
    the report writes it, hashes to the pinned digest; the libm and BLAS
    note of test_suite_jobs_bytes_pinned applies."""
    data = json.dumps(suite["sweeps"], indent=2).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == SUITE_SWEEPS_SHA256


def test_suite_report_bytes_pinned_at_a_second_seed():
    """The full default report at seed 31, sweep included, as the report
    writer writes it, hashes to the pinned digest; the libm and BLAS note
    of test_suite_jobs_bytes_pinned applies."""
    data = report_json_bytes(run_suite(default_suite_config(31)).to_json())
    assert hashlib.sha256(data).hexdigest() == SUITE_REPORT_SEED31_SHA256


def test_suite_overall_pass(suite):
    assert suite["pass"] is True
    print("ACCEPTANCE   : overall default suite PASS "
          f"({len(suite['jobs'])} jobs, {len(suite['sweeps'])} sweeps)")
