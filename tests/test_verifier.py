import collections
import dataclasses
import math

import numpy as np
import pytest

import point_reference as ref
from fd_jobs import fd_check, fd_rows
from grs4.errors import (ConfigError, InadmissiblePointError, ParamError,
                         StepError)
from grs4.meridians import (FAMILY_CATALOG, build_family,
                            classified_case_ids, descriptor_from_catalog)
from grs4.reporting import report_json_bytes
from grs4.pe4 import PEVector4
from grs4.surfaces import SurfaceKind, surface_from_family
from grs4 import meridians, surfaces, verifier
from grs4.verifier import (admissible_domain, check_flat, check_fnc,
                           check_pnmcv, check_points, cross_check,
                           default_suite_config, h_numerator_identity,
                           run_suite, verify_family)


def spec_for(case, params=None, **kw):
    return surface_from_family(build_family(
        descriptor_from_catalog(case, params, **kw)))


# ---------------------------------------------------------------------------
# FD connection oracle

def fd_point_rows(spec, u, v, h):
    """[(name, residual)] of fd_connection_rows at the one point (u, v)."""
    names, residuals = fd_rows(spec, [(u, v)], [h])
    return list(zip(names, residuals[:, 0, 0].tolist()))


def test_fd_connection_residuals_small():
    spec = spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0)
    rows = fd_point_rows(spec, 3.0, 0.7, 1e-4)
    assert len(rows) == 8
    assert all(r <= 1e-6 for _, r in rows)


def test_fd_connection_second_order_shrinkage():
    spec = spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0)
    rows_h = dict(fd_point_rows(spec, 3.0, 0.7, 1e-4))
    rows_h2 = dict(fd_point_rows(spec, 3.0, 0.7, 5e-5))
    checked = 0
    for name, r in rows_h.items():
        if r > 2.5e-10:
            ratio = r / rows_h2[name]
            assert 3.5 <= ratio <= 4.5, name
            checked += 1
    assert checked >= 6


def test_fd_connection_hyperbolic():
    spec = spec_for("min-hyp-i", {"c": 1.0}, alpha=2.0, beta=1.0)
    rows = fd_point_rows(spec, 1.3, 0.4, 1e-4)
    assert all(r <= 1e-6 for _, r in rows)


def test_fd_connection_geodesic_rows_at_noise_level():
    spec = spec_for("custom", {"f": "0.8*u", "g": "u", "kind": "hyperbolic"},
                    alpha=1.0, beta=1.0, interval=(0.5, 3.0))
    rows = dict(fd_point_rows(spec, 1.5, 0.4, 1e-4))
    assert rows["nabla_x x"] <= 5e-9
    assert rows["nabla_y y"] <= 5e-9


def test_fd_step_error_near_boundary():
    spec = spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0)
    with pytest.raises(StepError):
        fd_point_rows(spec, 2.1, 0.0, 0.2)  # u - h < C


# ---------------------------------------------------------------------------
# Cross checks

def test_cross_check_exact_zero_family():
    spec = spec_for("fnc-ell-i", {"c": 1.2}, alpha=1.0, beta=2.0)
    k_res, kp_res = cross_check(spec, 1.0)
    assert k_res.max_residual <= 1e-15
    assert kp_res.max_residual <= 1e-15


def test_cross_check_min_hyp_i():
    spec = spec_for("min-hyp-i", {"c": 1.0}, alpha=2.0, beta=1.0)
    k_res, kp_res = cross_check(spec, 1.0)
    assert k_res.max_residual <= 1e-13
    assert kp_res.max_residual <= 1e-13


def test_cross_check_random_sweep():
    import random
    rng = random.Random(3)
    from grs4.meridians import classified_case_ids
    worst = 0.0
    for case in classified_case_ids():
        desc = descriptor_from_catalog(case)
        spec = surface_from_family(build_family(desc))
        ivs = admissible_domain(spec, *desc.interval, 128)
        if not ivs:
            continue
        a, b = ivs[0]
        for _ in range(7):
            u = rng.uniform(a + 0.02 * (b - a), b - 0.02 * (b - a))
            k_res, kp_res = cross_check(spec, u)
            worst = max(worst, k_res.max_residual, kp_res.max_residual)
    assert worst <= 1e-11


# ---------------------------------------------------------------------------
# Admissible domain scanning

def test_min_ell_i_empty_domain():
    spec = spec_for("min-ell-i", {"c": 1.0}, alpha=2.0, beta=1.0,
                    interval=(0.1, 10.0))
    assert admissible_domain(spec, 0.1, 10.0, 400) == []


def test_pnmcv_full_interval():
    spec = spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0,
                    interval=(2.05, 10.0))
    ivs = admissible_domain(spec, 2.05, 10.0, 200)
    assert len(ivs) == 1
    assert ivs[0][0] == pytest.approx(2.05, abs=1e-9)
    assert ivs[0][1] == pytest.approx(10.0, abs=1e-9)


def test_fnc_ell_i_full_interval():
    spec = spec_for("fnc-ell-i", {"c": 1.2}, alpha=1.0, beta=2.0,
                    interval=(0.5, 10.0))
    ivs = admissible_domain(spec, 0.5, 10.0, 200)
    assert len(ivs) == 1


def test_boundary_located_by_bisection():
    # pnmcv-ell with alpha > beta: admissible only below sqrt(a^2 C^2/(a^2-b^2))
    spec = spec_for("pnmcv-ell", {"C": 2.0}, alpha=2.0, beta=1.0,
                    interval=(2.05, 10.0))
    ivs = admissible_domain(spec, 2.05, 10.0, 400)
    cutoff = math.sqrt(4.0 * 4.0 / 3.0)
    assert len(ivs) == 1
    assert ivs[0][1] == pytest.approx(cutoff, abs=1e-9)


def _scan_cases():
    """Every catalog family on its interval and, for the closed forms, on
    one three times as wide, which reaches where the meridian is undefined
    or inadmissible."""
    for case, entry in meridians.FAMILY_CATALOG.items():
        if case == "custom":
            continue
        lo, hi = entry.default_interval
        yield case, spec_for(case), (lo, hi)
        if entry.realization == "closed":
            w = hi - lo
            yield case, spec_for(case, interval=(lo - w, hi + w)), (lo - w, hi + w)


def test_admissible_domain_matches_per_u_indicator_loop():
    undefined = 0
    for case, spec, (lo, hi) in _scan_cases():
        for n in (128, 200, 257):
            got = admissible_domain(spec, lo, hi, n)
            assert got == ref.admissible_domain(spec, lo, hi, n), (case, n)
        undefined += math.isinf(ref.indicator(spec, lo))
    assert undefined >= 4   # power laws, pnmcv and min-ell-iii past their edge


def test_admissible_domain_undefined_meridian():
    """Samples where the meridian raises read as -inf; the boundary is
    bisected to the branch point."""
    spec = spec_for("pnmcv-ell", interval=(0.5, 6.0))
    got = admissible_domain(spec, 0.5, 6.0, 200)
    assert got == ref.admissible_domain(spec, 0.5, 6.0, 200)
    assert len(got) == 1 and got[0][0] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("column", [6, 7])
def test_admissible_domain_nan_indicator_matches_min(monkeypatch, column):
    """A NaN E or a NaN W drops a sample; the scan and the per-u loop
    agree on both."""
    spec = spec_for("pnmcv-ell", interval=(2.1, 6.0))
    scalars_from = surfaces._scalars_from

    def poked(spec_, f, fp, fpp, g, gp, gpp):
        out = list(scalars_from(spec_, f, fp, fpp, g, gp, gpp))
        hit = (3.0 < g) & (g < 3.5)
        if isinstance(hit, np.ndarray):
            out[column] = np.where(hit, math.nan, out[column])
        elif hit:
            out[column] = math.nan
        return tuple(out)

    monkeypatch.setattr(surfaces, "_scalars_from", poked)   # per-u loop
    monkeypatch.setattr(verifier, "_scalars_from", poked)   # the array scan
    got = admissible_domain(spec, 2.1, 6.0, 200)
    assert got == ref.admissible_domain(spec, 2.1, 6.0, 200)
    assert len(got) == 2


def test_scan_requires_two_points():
    spec = spec_for("pnmcv-ell", {"C": 2.0})
    with pytest.raises(ValueError):
        admissible_domain(spec, 2.1, 6.0, 1)


# ---------------------------------------------------------------------------
# verify_family

def test_verify_family_passes():
    rep = verify_family("pnmcv-ell")
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert {"pnmcv-beta2", "pnmcv-h-norm2", "frame-orthonormality",
            "chen-trace", "quasi-minimal-off-component",
            "gauss-equation-route", "fd-connection"} <= names


def test_verify_family_vacuous_empty_domain():
    rep = verify_family("min-ell-i")
    assert rep.passed  # vacuous pass
    vac = {c.name for c in rep.vacuous_checks}
    assert "minimal-h-coeff" in vac
    assert any("empty admissible domain" in c.notes for c in rep.vacuous_checks)
    hid = [c for c in rep.checks if c.name == "h-numerator-identity"]
    assert len(hid) == 1 and hid[0].passed and not hid[0].vacuous


# checks a report makes only on a nonempty domain (the knot checks of an
# integrated family, the two single-case identities) or on an empty one
_UNPLANNED = {"admissible-domain", "constraint-residual", "unit-speed",
              "branch-continuity", "parametrization-identity",
              "h-numerator-identity"}


@pytest.mark.parametrize("case,checks", [
    *((case, None) for case in classified_case_ids()),
    ("fnc-ell-i", ["flat", "minimal"])])
def test_vacuous_plan_names_the_checks_of_a_report(monkeypatch, case, checks):
    """On an empty domain a job reports as vacuous each check that it runs
    on its catalog domain: the common checks, its catalog bundle's and
    those of its checks extras."""
    def names(rep):
        return sorted(c.name for c in rep.checks if c.name not in _UNPLANNED)

    ran = verify_family(case, checks=checks)
    monkeypatch.setattr(verifier, "admissible_domain", lambda *args: [])
    empty = verify_family(case, checks=checks)
    assert names(empty) == names(ran)
    assert all(c.vacuous for c in empty.checks if c.name not in _UNPLANNED)


@pytest.mark.parametrize("case", list(FAMILY_CATALOG))
def test_catalog_row_matches_the_family_built(case):
    entry = FAMILY_CATALOG[case]
    fam = build_family(descriptor_from_catalog(case))
    assert isinstance(fam, meridians._SampledFamily) == (
        entry.realization == "ode")
    assert fam.kind is entry.kind


def test_narrow_domain_fd_points_keep_their_stencils_inside(monkeypatch):
    """The admissible domain (2, 2.0005) is narrower than twice the usual
    FD pad: the pad shrinks so that every stencil, out to the step 1e-4,
    stays inside it."""
    points = []
    check = verifier.check_fd_connection

    def recording(jobs, *frame):
        points.extend(u for _, us, *_ in jobs for u in us)
        return check(jobs, *frame)

    monkeypatch.setattr(verifier, "check_fd_connection", recording)
    rep = verify_family("pnmcv-ell", interval=(1.9, 2.0005))
    assert len(points) == 3
    assert all(2.0 + 1e-4 < u < 2.0005 - 1e-4 for u in points)
    fd = [c for c in rep.checks if c.name.startswith("fd-")]
    assert [c.vacuous for c in fd] == [False, False]


def test_fd_step_shrinks_next_to_a_branch_point():
    """At u = C = 2 the pnmcv-ell meridian has a branch point, where its
    derivatives blow up: on (1.9, 2.0005) an absolute step of 1e-4 fails
    fd-connection at 1.8e-2.  The step is min(FD_H, d / 512), d the least
    distance from an FD point to the interval's edges, and the closed
    family's halving ratio follows it; every default-suite job keeps FD_H."""
    rep = verify_family("pnmcv-ell", interval=(1.9, 2.0005))
    assert rep.passed
    (a, b), = verifier.admissible_domain(spec_for("pnmcv-ell", interval=(
        1.9, 2.0005)), 1.9, 2.0005, 200)
    pad = 0.5 * (b - a) - verifier.FD_H      # the nearest FD point's distance
    h = min(verifier.FD_H, (pad + 0.25 * (b - a - 2 * pad)) / 512.0)
    assert h < verifier.FD_H / 100
    fd, shr = (c for c in rep.checks if c.name.startswith("fd-"))
    assert fd.grid == shr.grid == f"3 points, h={h:g}"
    assert fd.max_residual < 1e-6 and not shr.vacuous
    suite = run_suite(dict(default_suite_config(31), sweep_points=0))
    for label, _, job in suite.jobs:
        fd, shr = (c for c in job.checks if c.name.startswith("fd-"))
        assert fd.vacuous or fd.grid == "3 points, h=0.0001", label


def test_too_narrow_domain_fd_checks_vacuous():
    rep = verify_family("pnmcv-ell", interval=(1.9, 2.00025))
    fd = [c for c in rep.checks if c.name.startswith("fd-")]
    assert [c.name for c in fd] == ["fd-connection", "fd-shrinkage"]
    assert all(c.vacuous and "too narrow for the FD stencil" in c.notes
               for c in fd)
    assert rep.passed


def test_verify_family_negative_control():
    rep = verify_family("custom",
                        {"f": "u**2", "g": "u", "kind": "elliptic"},
                        alpha=1.0, beta=3.0, interval=(0.6, 2.8),
                        checks=["minimal"])
    assert not rep.passed
    res = {c.name: c for c in rep.checks}
    assert res["minimal-h-coeff"].max_residual > 1e-3


def test_verify_family_param_error_propagates():
    with pytest.raises(ParamError):
        verify_family("flat-ell-ii", {"C": 4.0})


def test_verify_family_stale_state0_rejected_not_vacuous():
    # re-ranging an integrated family without moving state0 onto the
    # constraint at the new span start is a configuration error, not an
    # empty admissible domain
    with pytest.raises(ParamError, match="constraint"):
        verify_family("flat-ell-i", interval=(1.2, 1.6))


def test_report_json_schema():
    rep = verify_family("fnc-ell-i")
    payload = rep.to_json()
    assert set(payload) == {"family", "params", "alpha", "beta", "grid",
                            "checks", "pass", "runtime_s"}
    for c in payload["checks"]:
        assert set(c) == {"name", "max_residual", "tolerance", "pass",
                          "vacuous", "notes"}


# ---------------------------------------------------------------------------
# Suites

def test_run_suite_empty_config():
    rep = run_suite({})
    assert rep.passed
    assert rep.to_json()["jobs"] == []


def test_run_suite_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        run_suite({"job": []})
    with pytest.raises(ConfigError):
        run_suite({"jobs": [{"family": "pnmcv-ell", "oops": 1}]})
    with pytest.raises(ConfigError):
        run_suite({"jobs": [{}]})
    with pytest.raises(ConfigError):
        run_suite({"jobs": [{"family": "pnmcv-ell", "expect": "maybe"}]})


def test_suite_failing_case_fails_suite():
    config = {"jobs": [
        {"family": "custom",
         "params": {"f": "u**2", "g": "u", "kind": "elliptic"},
         "alpha": 1.0, "beta": 3.0, "u0": 0.6, "u1": 2.8,
         "checks": ["minimal"]},
    ]}
    rep = run_suite(config)
    assert not rep.passed


def test_suite_expect_fail_satisfied_by_failure():
    config = {"jobs": [
        {"family": "custom",
         "params": {"f": "u**2", "g": "u", "kind": "elliptic"},
         "alpha": 1.0, "beta": 3.0, "u0": 0.6, "u1": 2.8,
         "checks": ["minimal"], "expect": "fail"},
    ]}
    rep = run_suite(config)
    assert rep.passed


def test_default_suite_deterministic():
    cfg = default_suite_config()
    b1 = report_json_bytes(run_suite(cfg).to_json())
    b2 = report_json_bytes(run_suite(cfg).to_json())
    assert b1 == b2


_MIXED_JOBS = [
    {"family": "pnmcv-ell"},
    {"family": "min-ell-i"},                                # empty domain
    {"family": "min-hyp-i", "nu": 17, "nv": 3, "v0": -1.0, "v1": 2.5},
    {"label": "narrow", "family": "pnmcv-ell",
     "u0": 1.9, "u1": 2.00025},                             # vacuous FD
    {"family": "pnmcv-ell", "u0": 1.9, "u1": 2.0005},       # FD step < FD_H
    {"family": "flat-hyp-i", "tols": {"fd": 1e-5, "vindep": 1e-9}},
    {"family": "custom", "params": {"f": "u**2", "g": "u",
                                    "kind": "elliptic"},
     "alpha": 1.0, "beta": 3.0, "u0": 0.6, "u1": 2.8,
     "checks": ["minimal"], "expect": "fail"},
    {"family": "fnc-ell-ii", "nu": 9, "nv": 12, "v0": 0.5, "v1": 3.0,
     "checks": ["flat"]},
    {"family": "pnmcv-hyp", "params": {"C": 2.0}, "alpha": 1.3, "beta": 0.7,
     "u0": 0.2, "u1": 1.8, "nu": 31, "tols": {"algebraic": 1e-11}},
    {"family": "custom", "params": {"f": "0.8*u", "g": "u",
                                    "kind": "hyperbolic"},
     "u0": 0.5, "u1": 3.0, "nv": 2},
]


def _verify_alone(job):
    """verify_family on one suite job, its keys as verify_family keywords."""
    kw = {key: job[key] for key in ("nu", "nv", "checks", "tols") if key in job}
    if "v0" in job:
        kw["v_range"] = (job["v0"], job["v1"])
    return verify_family(**verifier.job_family(job), **kw)


@pytest.mark.parametrize("stack_rows", [verifier._STACK_ROWS, 40, 1])
def test_stacked_suite_equals_each_job_alone(monkeypatch, stack_rows):
    """run_suite stacks the rows of each kind's jobs; every job's report has
    the bytes of verify_family run on that job alone: both kinds, an empty
    domain, a vacuous FD stencil, a step below FD_H, custom families, an
    expected fail and per-job grids, v-ranges, tolerances and checks; also
    when the stacks are cut into runs of at most 40 rows, or of one job."""
    monkeypatch.setattr(verifier, "_STACK_ROWS", stack_rows)
    suite = run_suite({"jobs": _MIXED_JOBS}).to_json()
    monkeypatch.undo()
    assert len(suite["jobs"]) == len(_MIXED_JOBS)
    for job, got in zip(_MIXED_JOBS, suite["jobs"]):
        assert report_json_bytes(got["report"]) == report_json_bytes(
            _verify_alone(job).to_json()), job["family"]
    kinds = {verifier.FAMILY_CATALOG[job["family"]].kind for job in _MIXED_JOBS
             if job["family"] != "custom"}
    assert len(kinds) == 2


@pytest.mark.parametrize("v_range", [(0.5, 0.5), (1.0, 0.0), (math.nan, 1.0),
                                     (0.0, math.inf), (0.0,), (0.0, 1.0, 2.0),
                                     ("0.0", 1.0), (0.0, None), 1.0,
                                     (0.0, 10 ** 400)])
def test_verify_family_rejects_a_v_range_not_finite_and_increasing(v_range):
    with pytest.raises(ParamError, match="bad v-range"):
        verify_family("pnmcv-ell", v_range=v_range)


def test_a_list_v_range_reports_as_the_tuple():
    """The v-range is settled as a tuple of floats once, so a list equal to
    the kind's default samples the v-grids of the tuple: one full elliptic
    turn without its end point."""
    got, want = (report_json_bytes(verify_family("fnc-ell-i", v_range=vr).to_json())
                 for vr in ([0.0, 2 * math.pi], (0.0, 2 * math.pi)))
    assert got == want


def test_a_full_run_finishes_before_the_next_stage_1(monkeypatch):
    """With runs of at most 60 grid rows, check_points finishes a kind's run
    as soon as the next job of that kind would take it past 60 rows, before
    the stage 1 (build_family) of any later job; the runs left over finish
    at the end, in the order their kinds first came."""
    events = []
    build, check = verifier.build_family, verifier.check_points

    def building(desc):
        events.append(("build", desc.case))
        return build(desc)

    def checking(jobs):
        events.append(("check", [len(us) for _, us, *_ in jobs]))
        return check(jobs)

    monkeypatch.setattr(verifier, "build_family", building)
    monkeypatch.setattr(verifier, "check_points", checking)
    monkeypatch.setattr(verifier, "_STACK_ROWS", 60)
    jobs = [{"family": "pnmcv-ell"}, {"family": "min-hyp-i"},
            {"family": "pnmcv-ell", "u0": 2.5, "u1": 5.0, "nu": 5},
            {"family": "min-ell-ii"}, {"family": "pnmcv-hyp"}]
    assert run_suite({"jobs": jobs}).passed
    assert events == [
        ("build", "pnmcv-ell"), ("build", "min-hyp-i"), ("build", "pnmcv-ell"),
        ("build", "min-ell-ii"), ("check", [50, 5]),
        ("build", "pnmcv-hyp"), ("check", [50]),
        ("check", [50]), ("check", [50])]


@pytest.mark.parametrize("where", ["grid", "stencil"])
def test_run_suite_raises_the_first_error_in_job_order(monkeypatch, where):
    """An error of a stacked check in job k (an inadmissible grid row before
    the frame pass, or a StepError of its FD stencil) is raised by run_suite
    even though job k + 1 fails in its stage 1 (a ConfigError) before any
    stacked check runs: the error of running the jobs one after another."""
    marked = 1.2345    # the alpha of job k
    inadmissible = verifier._inadmissible

    def injected(spec, us, scalars):
        if spec.alpha == marked and us.ndim == (1 if where == "grid" else 2):
            return 1, InadmissiblePointError("injected")
        return inadmissible(spec, us, scalars)

    monkeypatch.setattr(verifier, "_inadmissible", injected)
    job_k = {"family": "min-hyp-i", "alpha": marked}
    jobs = [{"family": "pnmcv-ell"}, {"family": "min-hyp-ii"}, job_k,
            {"family": "pnmcv-ell", "oops": 1}, {"family": "fnc-hyp-i"}]
    want = StepError if where == "stencil" else InadmissiblePointError
    with pytest.raises(want) as alone:
        _verify_alone(job_k)
    with pytest.raises(ConfigError):
        run_suite({"jobs": jobs[3:]})
    with pytest.raises(want) as stacked:
        run_suite({"jobs": jobs})
    assert str(stacked.value) == str(alone.value)


def test_a_run_error_starts_no_later_stage_1(monkeypatch):
    """Once a finished run holds an error, no later job's stage 1
    (build_family) starts; the runs left over still finish, and run_suite
    raises the first error in job order.  Counting jobs from 0, jobs 1 and
    2 get an injected inadmissible grid row; job 2's elliptic run finishes
    first, when job 3 would take it past 60 rows, so job 4 never builds;
    job 1's hyperbolic run finishes at the end, and its error is raised."""
    inadmissible, build, builds = verifier._inadmissible, verifier.build_family, []

    def injected(spec, us, scalars):
        if spec.alpha in (1.25, 1.5) and us.ndim == 1:
            return 1, InadmissiblePointError(f"injected at alpha={spec.alpha}")
        return inadmissible(spec, us, scalars)

    def building(desc):
        builds.append(desc.case)
        return build(desc)

    monkeypatch.setattr(verifier, "_inadmissible", injected)
    monkeypatch.setattr(verifier, "build_family", building)
    monkeypatch.setattr(verifier, "_STACK_ROWS", 60)
    jobs = [{"family": "pnmcv-ell"}, {"family": "min-hyp-i", "alpha": 1.25},
            {"family": "pnmcv-ell", "u0": 2.5, "u1": 5.0, "nu": 5, "alpha": 1.5},
            {"family": "min-ell-ii"}, {"family": "pnmcv-hyp"}]
    with pytest.raises(InadmissiblePointError, match="alpha=1.25"):
        run_suite({"jobs": jobs})
    assert builds == ["pnmcv-ell", "min-hyp-i", "pnmcv-ell", "min-ell-ii"]


def test_a_point_error_is_the_jobs_own(monkeypatch):
    """check_points takes the rotations of all jobs of a kind in one pass;
    where one job's rotations pass the float range, that job's result is
    the ParamError it raises alone, and every other job of the kind gets
    the checks it gets alone."""
    calls = []
    check = verifier.check_points

    def recording(jobs):
        calls.append((jobs, check(jobs)))   # the outermost call ends last
        return calls[-1][1]

    monkeypatch.setattr(verifier, "check_points", recording)
    jobs = [{"family": "min-hyp-i"}, {"family": "fnc-hyp-i", "v0": 0.0, "v1": 800.0},
            {"family": "pnmcv-hyp"}, {"family": "flat-hyp-i", "nv": 3}]
    with pytest.raises(ParamError) as stacked:
        run_suite({"jobs": jobs})
    in_suite = list(calls)
    with pytest.raises(ParamError) as alone:
        _verify_alone(jobs[1])
    assert str(stacked.value) == str(alone.value) == (
        "hyperbolic rotation past the float range at v=800.0")
    stacked_jobs, results = in_suite[-1]
    assert len(in_suite) > 1 and len(results) == 4
    assert results[1] is stacked.value
    for job, got in zip(stacked_jobs[::2] + stacked_jobs[3:], results[::2] + results[3:]):
        assert [c.to_json() for c in got[1]] == [c.to_json() for c in check([job])[0][1]]


def test_run_suite_realizes_each_integrated_family_once(monkeypatch):
    """With the sweep on, each integrated family of the default suite is
    realized once per run_suite call: the sweep builds no family."""
    calls = []
    realize = meridians.integrate_constrained

    def counted(rule, *args):
        calls.append(rule.name)
        return realize(rule, *args)

    monkeypatch.setattr(meridians, "integrate_constrained", counted)
    assert run_suite(default_suite_config(31)).passed
    assert sorted(calls) == sorted(c for c, e in meridians.FAMILY_CATALOG.items()
                                   if e.realization == "ode")


def _sweeps(seed, n=40):
    """The sweep checks of the default suite at seed with n sweep points."""
    return {c.name: c for c in run_suite(
        dict(default_suite_config(seed), sweep_points=n)).sweeps}


def test_sweep_deterministic_and_seed_sensitive():
    s1, s2, s3 = _sweeps(7), _sweeps(7), _sweeps(8)
    assert [c.to_json() for c in s1.values()] == [c.to_json() for c in s2.values()]
    assert [c.max_residual for c in s1.values()] != [c.max_residual for c in s3.values()]
    assert all(c.passed and not c.vacuous for c in s1.values())
    assert s1["chen-trace-sweep"].grid == (
        "40 random admissible points on the grid rows of 21 jobs, seed=7")


@pytest.mark.parametrize("config,builds", [
    ({"jobs": [{"family": "min-ell-i"}], "sweep_points": 3}, ["min-ell-i"]),
    ({"jobs": [], "sweep_points": 1}, [])])
def test_sweep_with_no_admissible_row_is_vacuous(monkeypatch, config, builds):
    """With no admissible job row to draw on, the four sweep checks are
    vacuous with a note, and no family the suite did not ask for is built."""
    built, build = [], verifier.build_family

    def building(desc):
        built.append(desc.case)
        return build(desc)

    monkeypatch.setattr(verifier, "build_family", building)
    report = run_suite(config)
    assert built == builds and report.passed
    assert [(c.name, c.vacuous, c.notes) for c in report.sweeps] == [
        (name, True, "no admissible job row to draw points on") for name in (
            "chen-trace-sweep", "chen-allied-sweep", "quasi-minimal-sweep",
            "h-norm2-sweep")]


@pytest.mark.parametrize("seed", [10, 21, 23, 113, 1566735269])
def test_sweep_passes_where_unscaled_off_component_failed(seed):
    # seeds at which an off-carrier scale without sigma failed: H ~ 1e-10 on
    # min-hyp-i near |v| = 3 carries rounding from sigma vectors of size
    # ~1e2 projected on |n2| ~ 1e2
    checks = run_suite(default_suite_config(seed)).sweeps
    assert len(checks) == 4 and [c.name for c in checks if not c.passed] == []


def _sigma_shifted(monkeypatch, which, normal, size):
    """_projection with sigma[which] shifted by size times the sigma
    magnitude along its off-carrier (normal 0) or carrier (1) normal."""
    project = verifier._projection

    def perturbed(spec, *args):
        proj = project(spec, *args)
        smax = np.max([w.euclid_norm() for w in proj.sigma], axis=0)
        sigma = list(proj.sigma)
        sigma[which] = sigma[which] + spec.kind.normals(
            proj.fr.n1, proj.fr.n2)[normal] * (size * smax)
        return dataclasses.replace(proj, sigma=tuple(sigma))

    monkeypatch.setattr(verifier, "_projection", perturbed)


def test_sweep_detects_off_carrier_component(monkeypatch):
    """Negative control: sigma(x,x) shifted so that H gains an off-carrier
    component of 1e-9 of the sigma magnitude fails quasi-minimal-sweep."""
    _sigma_shifted(monkeypatch, 0, 0, 2e-9)
    checks = _sweeps(23)
    assert not checks["quasi-minimal-sweep"].passed
    assert checks["quasi-minimal-sweep"].max_residual > 1e-11


def test_sweep_detects_a_nonzero_chen_trace(monkeypatch):
    """Negative control: sigma(x,y) shifted along the carrier normal by
    1e-9 of the sigma magnitude leaves H alone but makes tr(A1 A2) = 2 mu
    times the shift, which fails chen-trace-sweep only."""
    _sigma_shifted(monkeypatch, 1, 1, 1e-9)
    checks = _sweeps(23)
    assert not checks["chen-trace-sweep"].passed
    assert checks["chen-trace-sweep"].max_residual > 1e-11
    assert checks["quasi-minimal-sweep"].passed and checks["h-norm2-sweep"].passed


def test_sweep_bytes_do_not_depend_on_the_stack_size(monkeypatch):
    """The points are drawn in job order at stage 1, so the report is the
    same with every job in a run of its own."""
    stacked = report_json_bytes(run_suite(default_suite_config(31)).to_json())
    monkeypatch.setattr(verifier, "_STACK_ROWS", 1)
    assert report_json_bytes(run_suite(default_suite_config(31)).to_json()) == stacked


def test_h_numerator_identity_check():
    spec = spec_for("min-ell-i", interval=(0.1, 10.0))
    res = h_numerator_identity(spec, 0.1, 10.0)
    assert res.passed and res.max_residual <= 1e-12


# ---------------------------------------------------------------------------
# Batched grid checks

def _with_nan(vec, i):
    """vec with NaN in its first component at flat point i."""
    x1 = vec.x1.copy()
    x1[i] = math.nan
    return PEVector4(x1, vec.x2, vec.x3, vec.x4)


def _point_job(spec, us, vs):
    """The check_points job of the grid us at the v's vs (the grid of
    len(vs) v's over the v-range (vs[0], vs[-1])), without FD or sweep."""
    grid = surfaces.invariant_grid(spec, us)
    return (spec, grid.us, grid.scalars, len(vs), (vs[0], vs[-1]),
            verifier.DEFAULT_TOLS, None, np.empty((0, 2)))


def test_nan_frame_fails_frame_orthonormality(monkeypatch):
    """A NaN at one of 3x2 grid points (u-major) reaches the check instead
    of being dropped by a max(0.0, nan) reduction."""
    spec = spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0)
    job = _point_job(spec, [2.5, 3.0, 4.0], [0.3, 1.1])
    assert check_points([job])[0][1][0].passed
    frame = verifier._frame_from

    def poisoned(*args):
        fr = frame(*args)
        return dataclasses.replace(fr, x=_with_nan(fr.x, 2))   # u=3, v=0.3

    monkeypatch.setattr(verifier, "_frame_from", poisoned)
    res = check_points([job])[0][1][0]
    assert res.name == "frame-orthonormality"
    assert math.isnan(res.max_residual) and not res.passed


def test_nan_projection_fails_v_mid_checks(monkeypatch):
    """A NaN in sigma at the third u of the v_mid bundle (v = 0.4 for the
    hyperbolic kind) reaches its checks."""
    spec = spec_for("min-hyp-i", {"c": 1.0}, alpha=2.0, beta=1.0)
    job = _point_job(spec, [0.8, 1.0, 1.2], [0.4])
    assert all(c.passed for c in check_points([job])[0][1][2:])
    project = verifier._projection

    def poisoned(*args):
        proj = project(*args)
        sxx, sxy, syy = proj.sigma
        return dataclasses.replace(proj, sigma=(_with_nan(sxx, 2), sxy, syy))

    monkeypatch.setattr(verifier, "_projection", poisoned)
    res = {c.name: c for c in check_points([job])[0][1][2:]}
    for name in ("chen-trace", "quasi-minimal-off-component",
                 "gauss-equation-route"):
        assert math.isnan(res[name].max_residual), name
        assert not res[name].passed, name


@pytest.mark.parametrize("case", ["pnmcv-ell", "min-hyp-i", "fnc-ell-i"])
def test_verify_family_detects_off_carrier_component(monkeypatch, case):
    """Negative control: sigma(x,x) shifted inside the batched route so that
    H gains an off-carrier component of 1e-9 of the sigma magnitude fails
    quasi-minimal-off-component."""
    project = verifier._projection

    def perturbed(spec, *args):
        proj = project(spec, *args)
        fr = proj.fr
        n_off = fr.n1 if spec.kind is SurfaceKind.ELLIPTIC else fr.n2
        smax = np.max([w.euclid_norm() for w in proj.sigma], axis=0)
        sxx, sxy, syy = proj.sigma
        return dataclasses.replace(
            proj, sigma=(sxx + n_off * (2e-9 * smax), sxy, syy))

    assert verify_family(case).passed
    monkeypatch.setattr(verifier, "_projection", perturbed)
    checks = {c.name: c for c in verify_family(case).checks}
    assert not checks["quasi-minimal-off-component"].passed
    assert checks["quasi-minimal-off-component"].max_residual > 1e-11


def test_verify_family_batches_its_grid_checks(monkeypatch):
    """No per-point route runs, and each stacked check is one call per
    surface kind.  verify_family on one family makes one invariant pass,
    one projection (the v_mid bundle and v-independence together) and two
    frame passes: the projection's and one over the frame-orthonormality
    points and the FD frame columns, which fd_connection_rows reads
    without a frame pass of its own.  A default-suite pass, whose 22 jobs
    have both kinds, makes each of these calls twice."""
    names = ("frames", "position_jets", "geometric_functions", "curvatures",
             "_invariant_rows", "_projection", "fd_connection_rows",
             "_frame_from")
    calls = collections.Counter()
    in_fd = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "_frame_from" and in_fd:
                calls["frames_in_fd"] += 1
            if name == "fd_connection_rows":
                in_fd.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                if name == "fd_connection_rows":
                    in_fd.pop()
        return wrapper

    for mod in (surfaces, verifier):
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    one_kind = {"_invariant_rows": 1, "_projection": 1, "_frame_from": 2,
                "fd_connection_rows": 1}
    assert verify_family("pnmcv-ell").passed
    assert calls == one_kind
    calls.clear()
    assert run_suite(dict(default_suite_config(31), sweep_points=0)).passed
    assert calls == {name: 2 * n for name, n in one_kind.items()}


# ---------------------------------------------------------------------------
# Property checks on invariant columns

def _poisoned(grid, **at):
    """grid with NaN in the named columns at the given rows."""
    cols = {}
    for name, row in at.items():
        col = getattr(grid, name).copy()
        col[row] = math.nan
        cols[name] = col
    return dataclasses.replace(grid, **cols)


def test_nan_invariants_fail_flat_and_fnc():
    """A NaN K or kappa at the second of 3 u-points fails the check instead
    of being dropped by a max(worst, r) reduction."""
    spec = spec_for("fnc-ell-i")
    grid = surfaces.invariant_grid(spec, [1.0, 1.5, 2.0])
    assert all(c.passed for c in check_flat(grid, 1e-9))
    assert check_fnc(grid, 1e-9).passed
    flat = {c.name: c for c in check_flat(_poisoned(grid, K=1), 1e-9)}
    fnc = check_fnc(_poisoned(grid, kappa=1), 1e-9)
    for res in (flat["flat-gauss-curvature"], fnc):
        assert math.isnan(res.max_residual) and not res.passed
    assert flat["flat-mu2-plus-nu1nu2"].passed


def test_nan_invariants_fail_pnmcv():
    spec = spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0)
    grid = surfaces.invariant_grid(spec, [2.5, 3.0, 4.0])
    assert all(c.passed for c in check_pnmcv(spec, grid, 2.0, 1, 1e-12, 1e-10))
    res = {c.name: c for c in check_pnmcv(spec, _poisoned(grid, beta2=1,
                                                          H_norm2=1),
                                          2.0, 1, 1e-12, 1e-10)}
    for name in ("pnmcv-beta2", "pnmcv-h-norm2"):
        assert math.isnan(res[name].max_residual) and not res[name].passed


def test_nan_fd_row_fails_fd_connection(monkeypatch):
    spec = spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0)
    points = [(2.8, 0.7), (3.2, 0.7), (3.6, 0.7)]
    assert fd_check(spec, points, 1e-4, 1e-6)[0].passed
    rows = verifier.fd_connection_rows

    def poisoned(*args):
        names, out = rows(*args)
        out[2, 1, 0] = math.nan   # row 2 at u = 3.2, step h
        return names, out

    monkeypatch.setattr(verifier, "fd_connection_rows", poisoned)
    res = fd_check(spec, points, 1e-4, 1e-6)[0]
    assert math.isnan(res.max_residual) and not res.passed


@pytest.mark.parametrize("ratios", [24, 23])
def test_nan_halving_ratio_fails_fd_shrinkage(monkeypatch, ratios):
    """A row whose residuals at shrink_h and shrink_h / 2 are both inf has a
    NaN halving ratio: fd-shrinkage takes np.median's NaN and fails, over
    an even and an odd count of ratios."""
    spec = spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0)
    points = [(2.8, 0.7), (3.2, 0.7), (3.6, 0.7)]
    fd = verifier.fd_connection_rows

    def poisoned(*args):
        names, out = fd(*args)
        out[0, 1, 1:] = math.inf
        if ratios == 23:
            out[7, 0, 2] = 0.0   # below the noise floor: no ratio
        return names, out

    monkeypatch.setattr(verifier, "fd_connection_rows", poisoned)
    with np.errstate(invalid="ignore"):
        shr = fd_check(spec, points, 1e-4, 1e-6, shrink_h=1e-3)[1]
    assert f"over {ratios} rows" in shr.notes
    assert math.isnan(shr.max_residual) and not shr.passed


def test_nan_knot_root_fails_branch_continuity(monkeypatch):
    fam = build_family(descriptor_from_catalog("flat-ell-i"))
    assert verifier.check_sampled_residuals(fam)[-1].passed
    roots = np.array(fam.ensure_realized().knot_roots, dtype=float)
    roots[5] = math.nan
    monkeypatch.setattr(meridians.SampledMeridian, "knot_roots",
                        property(lambda self: roots))
    res = verifier.check_sampled_residuals(fam)[-1]
    assert res.name == "branch-continuity"
    assert math.isnan(res.max_residual) and not res.passed


@pytest.mark.parametrize("case", ["flat-ell-i", "fnc-ell-ii"])
def test_switched_knot_root_fails_branch_continuity(monkeypatch, case):
    fam = build_family(descriptor_from_catalog(case))
    sm = fam.ensure_realized()
    res = verifier.check_sampled_residuals(fam)[-1]
    assert res.passed and res.max_residual == 0.0
    roots = np.array(sm.knot_roots, dtype=float)
    u, (f, g) = float(sm.traj.ts[5]), map(float, sm.traj.ys[5])
    others = [c[0] for c in ref.candidates(sm.rule, u, f, g)
              if c[0] != roots[5]]
    assert len(others) == 1
    roots[5] = others[0]
    monkeypatch.setattr(meridians.SampledMeridian, "knot_roots",
                        property(lambda self: roots))
    res = verifier.check_sampled_residuals(fam)[-1]
    assert res.name == "branch-continuity"
    assert res.max_residual > 0.0 and not res.passed


def test_h_inner_product_signature_takes_cross_tolerance():
    checks = {c.name: c for c in
              verify_family("pnmcv-ell", tols={"cross": 1e-30}).checks}
    for name in ("h-inner-product-signature", "gauss-equation-route"):
        assert checks[name].tolerance == 1e-30, name
    assert not checks["h-inner-product-signature"].passed


def _record_meridian_passes(monkeypatch):
    """(passes, jets, grids, stencils): from here on, every jet_columns call
    as (its meridian, its u's, whether it ran inside _bisect), every
    per-point jet u, and the results of _grid_in_intervals and
    _stencil_us."""
    passes, jets, grids, stencils, bisecting = [], [], [], [], []

    def counting(evaluate):
        def wrapper(self, u):
            jets.append(float(u))
            return evaluate(self, u)
        return wrapper

    def counting_columns(columns):
        def wrapper(self, us):
            passes.append((self, np.asarray(us, dtype=float).tolist(),
                           bool(bisecting)))
            return columns(self, us)
        return wrapper

    def marked(fn):
        def wrapper(*args, **kwargs):
            bisecting.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                bisecting.pop()
        return wrapper

    def recording(fn, into):
        def wrapper(*args, **kwargs):
            into.append(fn(*args, **kwargs))
            return into[-1]
        return wrapper

    # on each subclass: the benchmark's tracer, once uninstalled, leaves
    # each of them its own jet, which a patch on MeridianFamily would miss
    for cls in (meridians._ClosedFormFamily, meridians._SampledFamily):
        monkeypatch.setattr(cls, "jet", counting(cls.jet))
    monkeypatch.setattr(meridians.MeridianFamily, "jet_columns",
                        counting_columns(meridians.MeridianFamily.jet_columns))
    monkeypatch.setattr(verifier, "_bisect", marked(verifier._bisect))
    for name, into in (("_grid_in_intervals", grids), ("_stencil_us", stencils)):
        monkeypatch.setattr(verifier, name, recording(getattr(verifier, name), into))
    return passes, jets, grids, stencils


def _counts(*arrays):
    return sum((collections.Counter(np.ravel(a).tolist()) for a in arrays),
               collections.Counter())


@pytest.mark.parametrize("case", ["pnmcv-ell", "min-hyp-i", "flat-ell-i"])
def test_verify_family_evaluates_each_grid_u_once(monkeypatch, case):
    """A job admissible on its whole interval evaluates the meridian in one
    jet_columns pass over the admissibility scan, the grid and the FD
    stencil (the centres, then u +- h per distinct step): once at each u
    per occurrence, at no other u, and never per point."""
    lo, hi = descriptor_from_catalog(case).interval
    passes, jets, grids, stencils = _record_meridian_passes(monkeypatch)
    assert verify_family(case).passed
    [us] = grids
    assert len(us) == 50 and stencils[0].shape in ((3, 5), (3, 7))
    [(_, seen, bisecting)] = passes
    assert not bisecting and not jets
    assert _counts(seen) == _counts(np.linspace(lo, hi, 200), us, stencils[0])


def test_a_partly_admissible_job_makes_one_more_pass(monkeypatch):
    """The default suite never takes the second pass: here pnmcv-ell with
    C = 2 on [1.5, 4.0] is admissible only above its branch point u = 2.  It
    bisects that edge and then makes exactly one more pass, over the grid
    and FD stencil of its own domain, while min-ell-i (an empty domain)
    makes its one scan pass and the pass of its h-numerator identity, and a
    job admissible on its whole interval makes one pass.  Stacked, each job
    has the bytes it has alone."""
    jobs = [{"family": "pnmcv-ell", "params": {"C": 2.0}, "u0": 1.5, "u1": 4.0},
            {"family": "min-ell-i"}]
    passes, jets, grids, stencils = _record_meridian_passes(monkeypatch)
    suite = run_suite({"jobs": jobs}).to_json()
    recorded = list(passes)
    monkeypatch.undo()
    for job, got in zip(jobs, suite["jobs"]):
        assert report_json_bytes(got["report"]) == report_json_bytes(
            _verify_alone(job).to_json()), job["family"]
    assert not jets
    partial = recorded[0][0]
    mine = [(us, bis) for fam, us, bis in recorded if fam is partial]
    assert any(bis for _, bis in mine)
    first, last = (us for us, bis in mine if not bis)
    whole, own, _ = grids    # then min-ell-i's, of its whole interval
    assert _counts(first) == _counts(np.linspace(1.5, 4.0, 200), whole, stencils[0])
    assert own[0] > 2.0 and _counts(last) == _counts(own, stencils[1])
    others = [us for fam, us, _ in recorded if fam is not partial]
    assert [len(us) for us in others] == [200 + 50 + stencils[2].size, 101]

    passes, *_ = _record_meridian_passes(monkeypatch)
    verify_family("pnmcv-ell", {"C": 2.0}, interval=(2.5, 4.0))
    assert len(passes) == 1


# ---------------------------------------------------------------------------
# Array passes against the one-point float loops

def _widest(spec):
    lo, hi = spec.meridian.interval
    return max(admissible_domain(spec, lo, hi, 200), key=lambda iv: iv[1] - iv[0])


_FD_SPECS = [(case, spec, _widest(spec)) for case, spec in
             ((case, spec_for(case)) for case in
              ("pnmcv-ell", "min-hyp-i", "flat-ell-i", "fnc-hyp-ii"))]


def _hexes(values):
    return [float(x).hex() for x in values]


def test_fd_rows_match_point_loop_bitwise():
    """fd_connection_rows, and check_fd_connection from it, give the bits
    of the per-point loop: closed-form and integrated families of both
    kinds, one to three points, several steps."""
    from hypothesis import given, settings, strategies as st

    steps = st.sampled_from([1e-4, 5e-5, 3e-4, 1e-3])

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(_FD_SPECS),
           st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(-3.0, 3.0)),
                    min_size=1, max_size=3),
           steps, st.sampled_from([1.0, 10.0]))
    def inner_check(job, fracs, h, shrink):
        case, spec, (a, b) = job
        points = [(a + t * (b - a), v) for t, v in fracs]
        shrink_h = shrink * h
        hs = (h, 0.5 * shrink_h) if shrink_h == h else (h, shrink_h, 0.5 * shrink_h)
        names, rows = fd_rows(spec, points, hs)
        for p, (u, v) in enumerate(points):
            for k, step in enumerate(hs):
                want = ref.fd_connection_check(spec, u, v, step)
                assert names == [n for n, _ in want]
                assert _hexes(rows[:, p, k]) == _hexes(r for _, r in want), (case, u, v, step)
        residuals, ratios = ref.check_fd_connection(spec, points, h, shrink_h)
        res, shr = fd_check(spec, points, h, 1e-6, shrink_h=shrink_h)
        assert res.max_residual == max(residuals)
        if ratios:
            assert shr.max_residual == abs(float(np.median(ratios)) - 4.0)
            assert f"over {len(ratios)} rows" in shr.notes
        else:
            assert shr.vacuous

    inner_check()


def _fd_error(fn):
    try:
        fn()
    except Exception as exc:   # noqa: BLE001 - any error is compared
        return type(exc), str(exc)
    return None


_ALPHA_GT_BETA = spec_for("pnmcv-ell", {"C": 2.0}, alpha=2.0, beta=1.0,
                          interval=(2.05, 10.0))   # admissible below 2.3094


@pytest.mark.parametrize("spec,points,h,shrink_h,kind", [
    (_ALPHA_GT_BETA, [(2.2, 0.7), (3.0, 0.7)], 1e-4, 1e-4,
     InadmissiblePointError),                               # centre
    (spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0),
     [(2.1, 0.0)], 0.2, 0.2, StepError),                    # u - h < C
    (_ALPHA_GT_BETA, [(2.25, 0.3), (3.0, 0.7)], 0.1, 0.1,
     StepError),                                            # u + h
    (_ALPHA_GT_BETA, [(2.2, 0.3)], 1e-4, 0.15, StepError),  # shrink_h only
], ids=["centre", "u-minus-h-undefined", "u-plus-h-inadmissible",
        "shrink-step-only"])
def test_fd_stencil_raises_the_point_loop_first_error(spec, points, h,
                                                       shrink_h, kind):
    """The batched stencil raises the first error of the per-point loop,
    type and text."""
    want = _fd_error(lambda: ref.check_fd_connection(spec, points, h, shrink_h))
    got = _fd_error(lambda: fd_check(spec, points, h, 1e-6, shrink_h=shrink_h))
    assert want is not None and want[0] is kind
    assert got == want
    if len(points) == 1:
        assert _fd_error(lambda: fd_point_rows(spec, *points[0], shrink_h)) \
            == _fd_error(lambda: ref.fd_connection_check(spec, *points[0], shrink_h))


@pytest.mark.parametrize("seed", [20240, 31, 1566735269])
def test_sweep_residuals_match_point_loop_bitwise(monkeypatch, seed):
    """The sweep residuals of each job at its drawn (grid row, v) points
    equal the per-point loop's to the bit, and the sweep reports their
    maxima."""
    calls = []
    check = verifier.check_points

    def recording(jobs):
        calls.append((jobs, check(jobs)))
        return calls[-1][1]

    monkeypatch.setattr(verifier, "check_points", recording)
    checks = run_suite(default_suite_config(seed)).sweeps
    want = [[] for _ in checks]
    for jobs, results in calls:
        for job, (*_, got) in zip(jobs, results):
            ref_rows = ref.sweep_residuals([(job, int(row), v) for row, v in job[-1]])
            for g, w, acc in zip(got, ref_rows, want):
                assert _hexes(g) == _hexes(w)
                acc.extend(w)
    assert sum(map(len, want)) == 4 * 200
    assert [c.max_residual for c in checks] == [max(w) for w in want]


_EDGE_SPECS = [
    (spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0, interval=(1.5, 6.0)),
     2.0),                                  # the meridian ends at C
    (_ALPHA_GT_BETA, math.sqrt(16.0 / 3.0)),  # E, W change sign
    (spec_for("min-hyp-i", interval=(-1.0, 6.0)), 0.0),
]


def test_lockstep_bisection_matches_scalar_refine():
    """All brackets bisected in lockstep end at the bits of the one-bracket
    loop, on brackets that cross an admissibility edge; the scan built on
    it equals the per-u loop."""
    from hypothesis import given, settings, strategies as st

    offsets = st.floats(1e-9, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(_EDGE_SPECS),
           st.lists(st.tuples(offsets, offsets), min_size=1, max_size=5),
           st.integers(2, 300))
    def inner_check(job, brackets, n):
        spec, edge = job
        lo, hi = spec.meridian.interval
        a = np.array([max(lo, edge - x) for x, _ in brackets])
        b = np.array([min(hi, edge + y) for _, y in brackets])
        va = [ref.indicator(spec, u) for u in a]
        got = verifier._bisect(spec, a, b, np.array(va) > 0.0)
        want = [ref.refine(spec, *args) for args in zip(a, b, va)]
        assert _hexes(got) == _hexes(want)
        assert admissible_domain(spec, lo, hi, n) == ref.admissible_domain(spec, lo, hi, n)

    inner_check()
