import hashlib
import math

import numpy as np
import pytest

import point_reference
from grs4 import meridians
from grs4.errors import DomainError, GrsError, NoRealRootError, ParamError
from grs4.jets import evaluate_masked
from grs4.meridians import (FAMILY_CATALOG, FamilyDescriptor, build_family,
                            descriptor_from_catalog,
                            classified_case_ids, _FlatRule, _FncRule,
                            _MinHyp3Rule, integrate_constrained)
from grs4.odeint import Trajectory, rk4_integrate
from point_reference import tracking_field


def fam(case, params=None, **kw):
    return build_family(descriptor_from_catalog(case, params, **kw))


# ---------------------------------------------------------------------------
# Descriptor validation

def test_catalog_lists_sixteen_cases():
    ids = classified_case_ids()
    assert len(ids) == 16
    assert "custom" not in ids
    assert "custom" in FAMILY_CATALOG


@pytest.mark.parametrize("case,params,alpha,beta", [
    ("flat-ell-ii", {"C": 4.0}, 1.0, 1.0),       # C must be negative
    ("flat-hyp-ii", {"C": -1.0}, 1.0, 1.0),      # C must be positive
    ("pnmcv-ell", {"C": 0.0}, 1.0, 3.0),
    ("pnmcv-hyp", {"C": 0.0}, 1.0, 1.0),
    ("fnc-ell-i", {"c": 0.9}, 1.0, 2.0),         # c^2 <= 1
    ("fnc-ell-i", {"c": 1.2}, 1.0, 1.1),         # c^2 >= beta^2/alpha^2
    ("fnc-hyp-i", {"c": 0.0}, 2.0, 1.0),
    ("fnc-hyp-i", {"c": 1.0}, 1.0, 1.0),         # alpha == beta
    ("min-ell-i", {"c": 0.0}, 2.0, 1.0),
    ("min-ell-i", {"c": 1.0}, 1.0, 1.0),
    ("min-ell-ii", {"A": -1.0, "C": 0.0}, 2.0, 1.0),
    ("min-ell-iii", {"a": 0.0, "b": 1.0}, 1.0, 1.0),
    ("min-ell-iii", {"a": -1.0, "b": 1.0}, 2.0, 1.0),  # alpha != beta
    ("min-hyp-ii", {"A": 0.0, "c": 0.1}, 2.0, 1.0),
    ("flat-ell-i", {"a": 0.0, "c": 0.0}, 1.0, 1.0),
    ("fnc-ell-ii", {"C": 0.0}, 1.0, 2.0),
])
def test_constraint_violations_raise(case, params, alpha, beta):
    with pytest.raises(ParamError):
        fam(case, params, alpha=alpha, beta=beta)


def test_unknown_case_and_bad_fields():
    with pytest.raises(ParamError):
        build_family(FamilyDescriptor("nope", {}, 1.0, 1.0))
    with pytest.raises(ParamError):
        descriptor_from_catalog("also-nope")
    with pytest.raises(ParamError):
        fam("pnmcv-ell", {"C": 2.0}, alpha=-1.0)
    with pytest.raises(ParamError):
        build_family(FamilyDescriptor("pnmcv-ell", {"C": 2.0}, 1.0, 1.0,
                                      sign=3))
    with pytest.raises(ParamError):
        build_family(FamilyDescriptor("pnmcv-ell", {"C": math.inf}, 1.0, 1.0))
    with pytest.raises(ParamError):
        fam("pnmcv-ell", interval=(3.0, 2.0))
    with pytest.raises(ParamError):
        build_family(FamilyDescriptor("custom", {"f": "u"}, 1.0, 1.0))
    with pytest.raises(ParamError):
        fam("custom", {"f": "u", "g": "u", "kind": "weird"})


def test_missing_parameter_message():
    with pytest.raises(ParamError, match="missing parameter"):
        build_family(FamilyDescriptor("pnmcv-ell", {}, 1.0, 3.0))


@pytest.mark.parametrize("case,params,alpha,text", [
    ("min-ell-ii", {"A": 0.0}, 2.0, "min-ell-ii: A must be positive"),
    ("min-hyp-ii", {"A": 0.0}, 2.0, "min-hyp-ii: A must be nonzero"),
    ("min-ell-ii", {}, 1.0, "min-ell-ii: requires alpha != beta"),
    ("min-hyp-ii", {}, 1.0, "min-hyp-ii: requires alpha != beta"),
])
def test_min_ii_error_texts(case, params, alpha, text):
    with pytest.raises(ParamError) as err:
        fam(case, params, alpha=alpha, beta=1.0)
    assert str(err.value) == text


def test_min_ii_alpha_below_beta_diagnostic_is_elliptic_only():
    assert fam("min-ell-ii", alpha=1.0, beta=2.0).diagnostics == [
        "min-ell-ii normally arises with alpha > beta (A > 0); "
        "the admissibility scan decides the actual domain"]
    assert fam("min-hyp-ii", alpha=1.0, beta=2.0).diagnostics == []


# ---------------------------------------------------------------------------
# Closed-form jets

def test_fnc_ell_i_linear_jets():
    family = fam("fnc-ell-i", {"c": 1.2}, alpha=1.0, beta=2.0)
    mj = family.jet(1.0)
    assert (mj.f.val, mj.f.d1, mj.f.d2) == (1.2, 1.2, 0.0)
    assert (mj.g.val, mj.g.d1, mj.g.d2) == (1.0, 1.0, 0.0)


def test_pnmcv_ell_jets_at_three():
    family = fam("pnmcv-ell", {"C": 2.0})
    mj = family.jet(3.0)
    assert mj.f.val == pytest.approx(2.2360680, abs=1e-6)
    assert mj.f.d1 == pytest.approx(1.3416408, abs=1e-6)
    assert mj.f.d2 == pytest.approx(-0.3577709, abs=1e-6)
    assert (mj.g.val, mj.g.d1, mj.g.d2) == (3.0, 1.0, 0.0)
    # independent oracle: central differences of the value channel
    h = 1e-5
    fp = (math.sqrt((3.0 + h) ** 2 - 4.0)
          - math.sqrt((3.0 - h) ** 2 - 4.0)) / (2.0 * h)
    assert mj.f.d1 == pytest.approx(fp, abs=1e-5)


def test_min_hyp_i_power_law_jets():
    family = fam("min-hyp-i", {"c": 1.0}, alpha=2.0, beta=1.0, sign=1)
    mj = family.jet(1.0)
    assert mj.f.val == pytest.approx(1.0, abs=1e-14)
    assert mj.f.d1 == pytest.approx(-2.0, abs=1e-13)
    assert mj.f.d2 == pytest.approx(6.0, abs=1e-13)


def test_power_law_needs_positive_u():
    family = fam("min-hyp-i", {"c": 1.0}, alpha=2.0, beta=1.0,
                 interval=(-1.0, 3.0))
    with pytest.raises(DomainError):
        family.jet(-0.5)


def test_interval_enforced():
    family = fam("pnmcv-ell", {"C": 2.0})  # interval (2.1, 6)
    with pytest.raises(DomainError):
        family.jet(1.0)
    with pytest.raises(DomainError):
        family.jet(7.0)


def _bits(mj):
    return [x.hex() for j in (mj.f, mj.g) for x in (j.val, j.d1, j.d2)]


def test_jet_memo_keeps_sign_of_zero():
    family = fam("flat-ell-ii")  # interval (-1, 1); f = sinh keeps the sign
    family.jet(0.0)
    fresh = fam("flat-ell-ii").jet(-0.0)
    assert fresh.f.val.hex() == "-0x0.0p+0"
    assert _bits(family.jet(-0.0)) == _bits(fresh)
    assert _bits(family.jet(0.0)) == _bits(fam("flat-ell-ii").jet(0.0))


@pytest.mark.parametrize("case,inside,outside,after", [
    ("pnmcv-ell", 3.0, 7.0, 4.0),
    ("flat-ell-i", 1.2, 1.7, 1.3),
])
def test_jet_memo_does_not_store_failures(case, inside, outside, after):
    family = fam(case)
    family.jet(inside)
    for _ in range(3):
        with pytest.raises(DomainError):
            family.jet(outside)
    assert _bits(family.jet(after)) == _bits(fam(case).jet(after))
    assert _bits(family.jet(inside)) == _bits(fam(case).jet(inside))


def test_branch_point_raises():
    family = fam("pnmcv-ell", {"C": 2.0}, interval=(0.5, 6.0))
    with pytest.raises(DomainError):
        family.jet(1.0)  # u^2 < C^2


def test_min_ell_i_diagnostic():
    family = fam("min-ell-i")
    assert any("empty" in d for d in family.diagnostics)


def test_custom_expressions():
    family = fam("custom", {"f": "u**2", "g": "u", "kind": "elliptic"},
                 alpha=1.0, beta=3.0, interval=(0.6, 2.8))
    mj = family.jet(2.0)
    assert (mj.f.val, mj.f.d1, mj.f.d2) == (4.0, 4.0, 2.0)
    with pytest.raises(DomainError):
        fam("custom", {"f": "import('x')", "g": "u"})


def test_pnmcv_sign_branch():
    plus = fam("pnmcv-ell", {"C": 2.0}, sign=1)
    minus = fam("pnmcv-ell", {"C": 2.0}, sign=-1)
    assert plus.jet(3.0).f.val == pytest.approx(-minus.jet(3.0).f.val)


def test_fd_convergence_all_closed_forms():
    """First derivative of every closed-form family matches central FD."""
    for case, entry in FAMILY_CATALOG.items():
        if entry.realization != "closed" or case == "custom":
            continue
        family = fam(case)
        lo, hi = family.interval
        u0 = 0.5 * (lo + hi)

        def val(u, ch):
            mj = family.jet(u)
            return getattr(mj, ch).val

        for ch in ("f", "g"):
            d1 = getattr(family.jet(u0), ch).d1
            h = 1e-4
            fd = (val(u0 + h, ch) - val(u0 - h, ch)) / (2.0 * h)
            assert abs(d1 - fd) <= 1e-6, f"{case}.{ch}"
            # convergence order at a larger, truncation-dominated step
            e1 = abs(d1 - (val(u0 + 1e-3, ch) - val(u0 - 1e-3, ch)) / 2e-3)
            e2 = abs(d1 - (val(u0 + 5e-4, ch) - val(u0 - 5e-4, ch)) / 1e-3)
            if e1 > 1e-9:
                assert 3.0 <= e1 / e2 <= 5.0, f"{case}.{ch}"


def test_min_ell_ii_parametrization_identity():
    # beta^2 (f'^2 - g'^2) equals beta^2 g^2 - alpha^2 f^2 exactly
    family = fam("min-ell-ii")
    a2, b2 = family.alpha ** 2, family.beta ** 2
    for u in np.linspace(1.06, 1.89, 40):
        mj = family.jet(u)
        lhs = b2 * (mj.f.d1 ** 2 - mj.g.d1 ** 2)
        rhs = b2 * mj.g.val ** 2 - a2 * mj.f.val ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# Constrained integration

def test_flat_ell_i_root_example():
    # by-hand quadratic 0.25 f'^2 - 0.5 f' - 1.3125 = 0 at the initial state
    rule = _FlatRule("flat-ell-i", 1.0, 0.5, 0.0, 1.0, 1.0)
    f_hi, g_hi, other_hi = rule.solve(1.0, 1.0, math.sqrt(1.25), None, True)
    f_lo, g_lo, other_lo = rule.solve(1.0, 1.0, math.sqrt(1.25), None, False)
    assert (other_hi, other_lo) == (f_lo, f_hi)
    assert f_hi == pytest.approx(3.5, abs=1e-12)
    assert f_lo == pytest.approx(-1.5, abs=1e-12)
    assert g_hi == pytest.approx(3.75 / math.sqrt(1.25), abs=1e-12)
    assert f_hi ** 2 - g_hi ** 2 == pytest.approx(1.0, abs=1e-12)
    assert f_lo ** 2 - g_lo ** 2 == pytest.approx(1.0, abs=1e-12)


def test_flat_ell_i_constraint_residual():
    family = fam("flat-ell-i")
    sm = family.ensure_realized()
    assert float(sm.residuals.max()) <= 1e-8
    assert float(sm.speed_residuals.max()) <= 1e-10


def test_state0_violating_constraint_rejected():
    with pytest.raises(ParamError, match="constraint"):
        family = fam("flat-ell-i", state0=(1.0, 2.0))
        family.ensure_realized()


def test_state0_g0_derived_from_constraint():
    family = fam("flat-ell-i", state0=(1.0, None))
    assert family.state0[1] == pytest.approx(math.sqrt(1.25))


def test_branch_continuity_of_roots():
    family = fam("flat-ell-i")
    sm = family.ensure_realized()
    roots = sm.knot_roots
    assert np.all(np.abs(np.diff(roots)) < 0.05)
    for i in range(1, len(roots), 37):
        u = float(sm.traj.ts[i])
        f, g = map(float, sm.traj.ys[i])
        cands = point_reference.candidates(sm.rule, u, f, g)
        if len(cands) == 2:
            chosen = min(cands, key=lambda c: abs(c[0] - roots[i - 1]))
            assert chosen[0] == pytest.approx(roots[i], abs=1e-12)


@pytest.mark.parametrize("case", ["flat-ell-i", "flat-hyp-i", "fnc-ell-ii",
                                  "fnc-hyp-ii", "min-hyp-iii"])
def test_recorded_other_roots_match_knot_resolve(case):
    """The untracked root the field recorded at each knot is the candidate
    a re-solve of the knot's system gives farther from the chosen root;
    NaN where the system has one root (every knot of min-hyp-iii)."""
    sm = fam(case).ensure_realized()
    roots = sm.knot_roots
    two = 0
    for i, (u, (f, g)) in enumerate(zip(sm.traj.ts.tolist(),
                                        sm.traj.ys.tolist())):
        cands = point_reference.candidates(sm.rule, u, f, g)
        expect = math.nan
        if len(cands) == 2:
            two += 1
            a, b = cands[0][0], cands[1][0]
            expect = b if abs(a - roots[i]) <= abs(b - roots[i]) else a
        assert repr(float(sm.other_roots[i])) == repr(expect), i
    assert len(sm.other_roots) == len(roots)
    assert two == (0 if case == "min-hyp-iii" else len(roots))


# ---------------------------------------------------------------------------
# jet_columns: one array pass, bitwise equal to the per-point jet

_EDGE_CASES = {
    # label: (case, interval reaching past the domain edges, edges)
    "pnmcv-ell[wide]": ("pnmcv-ell", (-6.0, 6.0), (2.0, -2.0)),
    "pnmcv-hyp[wide]": ("pnmcv-hyp", (-3.0, 3.0), (2.0, -2.0)),
    "min-ell-i[wide]": ("min-ell-i", (-1.0, 10.0), (0.0,)),
    "min-hyp-i[wide]": ("min-hyp-i", (-1.0, 3.0), (0.0,)),
    "min-ell-iii[wide]": ("min-ell-iii", (-2.0, 2.0), (1.0, -1.0)),
}
_CUSTOM_EXPRS = [
    # abs, sqrt, log, arcsin, real and integer powers, division
    ("abs(u - 1) * sqrt(u - 0.5)", "log(abs(u - 1))"),
    ("arcsin(u / 2)", "(u + 1) ** 1.5 - abs(u)"),
    ("(u - 1) ** -2", "1 / (u - 0.5)"),
    ("u ** 2", "u ** 3"),                 # singular point at u = 0
    ("sqrt(u - 1) ** 0 + u", "log(u + 3) ** 2.5"),
    # NaN derivatives without a raise: inf * 0 past the float range
    ("1 / ((u * 1e200) * (u * 1e200)) + u", "(u * 1e200 * 1e200 * 0) ** 0 + u"),
    # exp, sinh, cosh and powers past the float range raise on floats
    ("exp(300 * u) + sinh(400 * u)", "u ** -200 + cosh(240 * u)"),
]
_CUSTOM_EDGES = (1.0, 0.5, -1.0, 2.0, -2.0, -3.0, 0.0)


def _column_families():
    out = {case: (fam(case), ()) for case in classified_case_ids()}
    for label, (case, interval, edges) in _EDGE_CASES.items():
        out[label] = (fam(case, interval=interval), edges)
    for i, (f, g) in enumerate(_CUSTOM_EXPRS):
        for kind in ("elliptic", "hyperbolic"):
            out[f"custom{i}[{kind}]"] = (
                fam("custom", {"f": f, "g": g, "kind": kind},
                    interval=(-3.0, 3.0)), _CUSTOM_EDGES)
    return out


_COLUMN_FAMILIES = _column_families()


def _point_rows(family, us):
    """jet(u) at each u as six hex strings, None where it raises."""
    rows = []
    for u in us:
        try:
            mj = family.jet(u)
        except GrsError:
            rows.append(None)
            continue
        rows.append(tuple(float(x).hex() for x in (
            mj.f.val, mj.f.d1, mj.f.d2, mj.g.val, mj.g.d1, mj.g.d2)))
    return rows


@pytest.mark.parametrize("label", sorted(_COLUMN_FAMILIES))
def test_jet_columns_match_jet_bitwise(label):
    """jet_columns equals the per-point jet to the bit, and its rows are
    NaN, with ok False, exactly where jet raises: u inside and outside the
    interval, at and next to the domain edges, +-0.0, +-inf and NaN."""
    from hypothesis import given, settings, strategies as st

    family, edges = _COLUMN_FAMILIES[label]
    lo, hi = family.interval
    w = hi - lo
    near = [float(np.nextafter(e, d)) for e in edges for d in (-np.inf, np.inf)]
    special = (lo, hi, 0.0, -0.0, math.nan, math.inf, -math.inf) + edges
    points = st.one_of(st.floats(lo - 0.5 * w, hi + 0.5 * w),
                       st.sampled_from(special + tuple(near)))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(points, min_size=1, max_size=8))
    def inner_check(us):
        want = _point_rows(family, us)
        ok, *cols = family.jet_columns(np.array(us))
        got = [tuple(float(c[i]).hex() for c in cols) if ok[i] else None
               for i in range(len(us))]
        assert got == want
        assert np.isnan(np.array(cols)[:, ~ok]).all()

    inner_check()


@pytest.mark.parametrize("f", ["sqrt(u)", "log(u) + 2 * u", "u ** 0.5"])
def test_underflowing_second_derivative_is_a_domain_error(f):
    """Up to about 1.6e-162 (1.8e-216 for sqrt) the f'' terms of sqrt, log
    and real powers divide by a v * v or v * sqrt(v) that underflows to 0:
    the point route raises DomainError and the array route masks the row,
    next to a row just above that range that both evaluate."""
    family = fam("custom", {"f": f, "g": "u", "kind": "elliptic"},
                 interval=(1e-250, 1e-100))
    with pytest.raises(DomainError, match="tiny"):
        family.jet(1.5e-250)
    ok, *cols = family.jet_columns(np.array([1.5e-250, 1e-120]))
    assert ok.tolist() == [False, True]
    assert np.isnan(np.array(cols)[:, 0]).all()
    mj = family.jet(1e-120)
    assert [float(c[1]).hex() for c in cols] == [
        x.hex() for x in (mj.f.val, mj.f.d1, mj.f.d2, mj.g.val, mj.g.d1, mj.g.d2)]


def test_jet_columns_mask_pointwise_and_constant_domain_errors():
    """A DomainError at some u masks those rows (here a negative power of
    zero and the division floor); one raised on a u-independent value
    raises when the family is built."""
    family, _ = _COLUMN_FAMILIES["custom2[elliptic]"]
    us = [1.0, 0.5, 2.0]          # negative power of zero, division floor
    assert _point_rows(family, us) == [None, None, _point_rows(family, [2.0])[0]]
    ok, *_ = family.jet_columns(np.array(us))
    assert ok.tolist() == [False, False, True]
    with pytest.raises(DomainError, match="jet division by"):
        fam("custom", {"f": "u / 0", "g": "u"})  # raises at every u


def test_jet_columns_keep_a_nan_row_that_jet_returns():
    """A jet holding a NaN without raising (f' = inf * 0 here) keeps its
    row and ok; only rows where jet raises are masked."""
    family = fam("custom", {"f": "1 / ((u * 1e200) * (u * 1e200)) + u",
                            "g": "sqrt(u)"})
    mj = family.jet(1.0)
    assert mj.f.val == 1.0 and math.isnan(mj.f.d1)
    ok, f, fp, *_ = family.jet_columns(np.array([1.0, -1.0]))
    assert ok.tolist() == [True, False]
    assert f[0] == 1.0 and math.isnan(fp[0]) and math.isnan(f[1])


def test_sampled_jets_interpolate_and_recover_derivatives():
    family = fam("flat-ell-i")
    a2, b2 = family.alpha ** 2, family.beta ** 2
    aa, cc = family.params["a"] ** 2, family.params["c"]
    for u in (1.05, 1.2, 1.37, 1.49):
        mj = family.jet(u)
        res = b2 * mj.g.val ** 2 - a2 * mj.f.val ** 2 - aa * (u + cc) ** 2
        assert abs(res) <= 1e-9
        assert abs(mj.f.d1 ** 2 - mj.g.d1 ** 2 - 1.0) <= 1e-12
        # f'' by finite differences of the recovered first derivative
        h = 1e-5
        fd2 = (family.jet(u + h).f.d1 - family.jet(u - h).f.d1) / (2.0 * h)
        assert mj.f.d2 == pytest.approx(fd2, rel=1e-4, abs=1e-6)


def test_unit_speed_families_hold_at_knots():
    for case in ("flat-ell-i", "flat-hyp-i", "fnc-ell-ii", "fnc-hyp-ii",
                 "min-hyp-iii"):
        family = fam(case)
        sm = family.ensure_realized()
        assert float(sm.speed_residuals.max()) <= 1e-10, case


def _min_hyp_iii_first_integral_drift():
    """Max relative drift over the knots of min-hyp-iii's first integral
    I = sin c (g^2 - f^2) - 2 cos c f g: with f = rho sin theta and
    g = rho cos theta, arctan(f'/g') = c - theta makes rho^2 sin(c - 2 theta)
    constant, a rectangular hyperbola."""
    sm = fam("min-hyp-iii").ensure_realized()
    c = sm.rule.c
    f, g = sm.traj.ys.T
    first = math.sin(c) * (g * g - f * f) - 2.0 * math.cos(c) * f * g
    return float(np.max(np.abs(first - first[0]))) / abs(float(first[0]))


def test_min_hyp_iii_conserves_first_integral():
    assert _min_hyp_iii_first_integral_drift() <= 1e-12    # 6.9e-14


def test_min_hyp_iii_first_integral_sees_coarse_steps(monkeypatch):
    monkeypatch.setattr(meridians, "_INITIAL_STEPS", 32)
    monkeypatch.setattr(meridians, "_MAX_HALVINGS", 0)
    assert _min_hyp_iii_first_integral_drift() > 1e-12     # 1.2e-10


def test_no_real_root_error():
    with pytest.raises(NoRealRootError) as err:
        fam("fnc-ell-ii", {"C": 0.3}, alpha=1.0, beta=2.0,
            interval=(0.0, 0.5), state0=(1.9, 1.0))
    assert str(err.value) == "negative discriminant at fnc-ell-ii u=0.0"


def _count_kernel_calls(monkeypatch):
    """The argument tuples of every meridians._rk4_tracked call from now on."""
    calls, kernel = [], meridians._rk4_tracked

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(meridians, "_rk4_tracked", counted)
    return calls


def test_min_hyp_iii_through_origin_raises_at_first_field_call(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    with pytest.raises(NoRealRootError) as err:
        fam("min-hyp-iii", state0=(0.0, 0.0))
    assert str(err.value) == "min-hyp-iii: curve through the origin at u=0.0"
    assert len(calls) == 1


def test_integrate_constrained_direct():
    rule = _FlatRule("flat-ell-i", 1.0, 0.5, 0.0, 1.0, 1.0)
    sm = integrate_constrained(rule, (1.0, math.sqrt(1.25)), (1.0, 1.5),
                               initial_root="larger")
    assert float(sm.residuals.max()) <= 1e-8
    assert sm.tol == meridians.DEFAULT_INTEGRATION_TOL


@pytest.mark.parametrize("span", [(1.5, 1.0), (1.0, 1.0), (1.0, math.nan),
                                  (1.0, math.inf)])
def test_integrate_constrained_rejects_bad_span(span):
    rule = _FlatRule("flat-ell-i", 1.0, 0.5, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="finite and forward"):
        integrate_constrained(rule, (1.0, math.sqrt(1.25)), span)


INTEGRATED = [c for c, e in FAMILY_CATALOG.items() if e.realization == "ode"]


@pytest.mark.parametrize("case", INTEGRATED)
def test_default_realization_accepts_first_attempt(monkeypatch, case):
    calls = _count_kernel_calls(monkeypatch)
    sm = fam(case).ensure_realized()
    assert len(calls) == 1
    assert len(sm.traj.ts) == meridians._INITIAL_STEPS + 1


@pytest.mark.parametrize("case", INTEGRATED)
def test_realization_counts_its_work(case):
    """The realization's counters: one attempt of len(ts) - 1 steps, and the
    4n + 1 root solves of RK4 over n steps."""
    sm = fam(case).ensure_realized()
    assert sm.halvings == 0
    assert sm.steps == len(sm.traj.ts) - 1 == meridians._INITIAL_STEPS
    assert sm.field_calls == 4 * sm.steps + 1


class _RejectFirstAttempt(_FlatRule):
    """flat-ell-i's catalog rule whose knot residual reads 1.0 on the
    first attempt's 1024-step knots, so the realization halves once."""

    def constraint(self, u, f, g):
        out = super().constraint(u, f, g)
        if np.ndim(u) and len(u) == meridians._INITIAL_STEPS + 1:
            return np.ones_like(out)
        return out


def test_forced_halving_adds_second_attempt_counts():
    rule = _RejectFirstAttempt("flat-ell-i", 1.0, 0.5, 0.0, 1.0, 1.0)
    sm = integrate_constrained(rule, (1.0, math.sqrt(1.25)), (1.0, 1.5))
    n1, n2 = meridians._INITIAL_STEPS, 2 * meridians._INITIAL_STEPS
    assert len(sm.traj.ts) == n2 + 1
    assert sm.halvings == 1
    assert sm.steps == n1 + n2
    assert sm.field_calls == (4 * n1 + 1) + (4 * n2 + 1)


# sha256 of every catalog realization (knots, states, field values, residuals
# and step), taken before the integrator moved from numpy vectors to floats
REALIZATIONS_SHA256 = "e8ba4168f1cb22e86d5cf880e3bd807f8769eb903d803431bdb8569dbb75aa42"


def test_realizations_bitwise_pinned():
    digest = hashlib.sha256()
    for case in INTEGRATED:
        sm = fam(case).ensure_realized()
        for a in (sm.traj.ts, sm.traj.ys, sm.traj.dys, sm.residuals,
                  sm.speed_residuals):
            a = np.ascontiguousarray(a)
            digest.update(a.tobytes())
            digest.update(str(a.shape).encode())
            digest.update(str(a.dtype).encode())
        digest.update(repr(sm.traj.h).encode())
    assert digest.hexdigest() == REALIZATIONS_SHA256


# sha256 of every catalog realization's untracked f' root per knot (NaN for
# min-hyp-iii), taken before the kernel's per-stage work was trimmed
OTHER_ROOTS_SHA256 = "442510b0ef2afcf32c034a66694f325e1e9ed5c18f1b40ef0cd0d29eadb72888"


def test_other_roots_bitwise_pinned():
    digest = hashlib.sha256()
    for case in INTEGRATED:
        a = np.ascontiguousarray(fam(case).ensure_realized().other_roots)
        digest.update(a.tobytes())
        digest.update(str(a.shape).encode())
        digest.update(str(a.dtype).encode())
    assert digest.hexdigest() == OTHER_ROOTS_SHA256


class _FixedSystem:
    """A rule whose solve() picks, with the reference pick, among the roots
    of a fixed sequence of systems, one system per call; refs records the
    reference each call was given."""

    def __init__(self, *roots):
        self.systems = [(list(r), 0.0, 0.0, 1.0) for r in roots]
        self.refs = []

    def solve(self, u, f, g, ref, larger=True):
        self.refs.append(ref)
        (fp, gp), other = point_reference.pick(
            self.systems[len(self.refs) - 1], ref, larger)
        return fp, gp, other


def _nearest_root(cands, ref):
    """Candidate whose f' is nearest to ref; a tie keeps the first, as min()."""
    pick, best = cands[0], abs(cands[0][0] - ref)
    for c in cands[1:]:
        d = abs(c[0] - ref)
        if d < best:
            pick, best = c, d
    return pick


_NEAREST_CASES = [
    ([1.0, 3.0], 2.0, 1.0),          # tie: the first candidate, as min() keeps
    ([3.0, 1.0], 2.0, 3.0),
    ([1.0, 3.0], 2.9, 3.0),
    ([4.0, -1.0, 0.5], 0.0, 0.5),       # _nearest_root only: a rule has <= 2
    ([math.nan, 1.0], 0.0, math.nan),   # NaN distance is never smaller
]


@pytest.mark.parametrize("roots,last,expect", _NEAREST_CASES)
def test_tracking_field_picks_nearest_root(roots, last, expect):
    ref = min(roots, key=lambda r: abs(r - last))
    nearest = _nearest_root([(r, 0.0) for r in roots], last)
    assert repr(nearest[0]) == repr(expect) == repr(ref)
    if len(roots) > 2:
        return
    # one root at the first call sets the reference of the second
    rule = _FixedSystem([last], roots)
    field, others = tracking_field(rule, "larger")
    first = field(0.0, [1.0, 1.0])
    pick = field(0.0, [1.0, 1.0])
    assert isinstance(pick, tuple) and len(pick) == 2
    assert repr(pick[0]) == repr(expect)
    assert rule.refs[0] is None and rule.refs[1] is first[0]
    other = roots[1] if repr(pick[0]) == repr(roots[0]) else roots[0]
    assert repr(others) == repr([math.nan, other])


def _picks(rule, u, f, g, ref):
    """solve()'s tracked root and its reference, each as reprs or the
    error it raised."""
    def outcome(fn):
        try:
            return tuple(repr(x) for x in fn())
        except NoRealRootError as exc:
            return ("raised", str(exc))

    def ref_value(cands):
        return 0.5 * (cands[0][0] + cands[-1][0]) if ref == "midpoint" else ref

    def reference():
        cands = point_reference.candidates(rule, u, f, g)
        if ref in ("larger", "smaller"):
            ordered = sorted(cands, key=lambda c: c[0])
            return ordered[-1] if ref == "larger" else ordered[0]
        return _nearest_root(cands, ref_value(cands))

    def tracked():
        if ref in ("larger", "smaller"):
            return rule.solve(u, f, g, None, ref == "larger")[:2]
        if ref == "midpoint":
            cands = point_reference.candidates(rule, u, f, g)
            return rule.solve(u, f, g, ref_value(cands))[:2]
        return rule.solve(u, f, g, ref)[:2]

    return outcome(tracked), outcome(reference)


def test_tracked_root_matches_nearest_candidate():
    from hypothesis import given, settings, strategies as st

    val = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    pos = st.floats(min_value=0.2, max_value=3.0)
    eps = st.sampled_from([1.0, -1.0])
    rules = st.one_of(
        st.builds(lambda e, a, c, al, be: _FlatRule("flat", e, a, c, al, be),
                  eps, val.filter(lambda a: a != 0.0), val, pos, pos),
        st.builds(lambda e, C, al, be: _FncRule("fnc", e, C, al, be),
                  eps, val.filter(lambda C: C != 0.0), pos, pos),
        st.builds(_MinHyp3Rule, val))
    # +-inf and NaN put every root at the same (or no) distance: ties
    refs = st.one_of(val, st.sampled_from(
        ["larger", "smaller", "midpoint", math.inf, -math.inf, math.nan]))

    @settings(max_examples=400, deadline=None)
    @given(rules, val, val, val, refs)
    def inner_check(rule, u, f, g, ref):
        got, want = _picks(rule, u, f, g, ref)
        assert got == want

    inner_check()


def test_sampled_family_out_of_span():
    family = fam("flat-ell-i")
    with pytest.raises(DomainError):
        family.jet(0.5)
    with pytest.raises(DomainError):
        family.jet(1.7)


def test_smaller_root_branch():
    family = fam("flat-ell-i", root="smaller")
    sm = family.ensure_realized()
    assert sm.knot_roots[0] == pytest.approx(-1.5, abs=1e-12)
    assert float(sm.residuals.max()) <= 1e-8


def _unit_flat(eps):
    """The flat rule with alpha = beta = a = 1 and c = 0, whose quadratic at
    (u, f, g) is (g^2 - eps f^2) x^2 - 2 f u x - (eps u^2 + g^2) = 0."""
    return _FlatRule("flat", eps, 1.0, 0.0, 1.0, 1.0)


def test_quad_roots_against_numpy():
    from hypothesis import given, strategies as st

    coeff = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)

    @given(st.sampled_from([1.0, -1.0]), coeff, coeff, coeff)
    def inner_check(eps, u, f, g):
        A, B, C = g * g - eps * f * f, -2.0 * f * u, -eps * u * u - g * g
        disc = B * B - 4.0 * A * C
        scale = max(abs(A), abs(B), abs(C), 1e-30)
        if (abs(g) < 1e-14 or abs(A) <= 1e-12 * scale
                or disc < 1e-6 * scale * scale):
            return  # degenerate / near-tangent cases exercised elsewhere
        rule = _unit_flat(eps)
        roots = sorted(rule.solve(u, f, g, None, True)[::2])
        expect = sorted(np.roots([A, B, C]).real)
        for r, e in zip(roots, expect):
            assert abs(r - e) <= 1e-9 * max(1.0, abs(e))

    inner_check()


def test_quad_roots_degenerate_and_negative():
    ell, hyp = _unit_flat(1.0), _unit_flat(-1.0)
    # A = 0: the one root of the linear equation -2 x - 2 = 0
    fp, gp, other = ell.solve(1.0, 1.0, 1.0, None)
    assert (fp, gp) == (-1.0, 0.0) and math.isnan(other)
    # B = C = 0: the double root 0 of x^2 = 0, given once
    fp, gp, other = hyp.solve(1.0, 0.0, 1.0, None)
    assert (fp, gp) == (0.0, 1.0) and math.isnan(other)
    with pytest.raises(NoRealRootError, match="negative discriminant"):
        ell.solve(0.5, 2.0, 1.0, None)
    with pytest.raises(NoRealRootError, match="degenerate root system"):
        ell.solve(0.0, 1.0, 1.0, None)
    # a discriminant of -1.8e-15 from roundoff clamps to a double root
    A, B, C = 1.0 - 2.0 ** 0.5 * 2.0 ** 0.5, -2.0 * 2.0 ** 0.5, -2.0
    assert -1e-12 * 8.0 < B * B - 4.0 * A * C < 0.0
    roots = ell.solve(1.0, math.sqrt(2.0), 1.0, None)[::2]
    assert all(abs(x + math.sqrt(2.0)) < 1e-6 for x in roots)


# ---------------------------------------------------------------------------
# The one-frame solve against the layered chain it replaced
# (point_reference: system() -> quad_roots() -> pick())

def _rule_strategy(st):
    """Every integrated rule: flat and fnc of both kinds, and min-hyp-iii."""
    val = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    pos = st.floats(min_value=0.2, max_value=3.0)
    return st.one_of(
        st.builds(_FlatRule, st.just("flat-ell-i"), st.just(1.0),
                  val.filter(bool), val, pos, pos),
        st.builds(_FlatRule, st.just("flat-hyp-i"), st.just(-1.0),
                  val.filter(bool), val, pos, pos),
        st.builds(_FncRule, st.just("fnc-ell-ii"), st.just(1.0),
                  val.filter(bool), pos, pos),
        st.builds(_FncRule, st.just("fnc-hyp-ii"), st.just(-1.0),
                  val.filter(bool), pos, pos),
        st.builds(_MinHyp3Rule, val))


def _state_strategy(st):
    # zeros and values below the g ~ 0 threshold reach the error paths;
    # NaN, +-inf and +-1e300 (whose square overflows) bring non-finite
    # values to every threshold test
    return st.one_of(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
                     st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 1e-14, -1e-14,
                                      1.0, -1.0, math.nan, math.inf,
                                      -math.inf, 1e300, -1e300]))


def _solve_outcome(fn):
    """fn()'s floats as hex strings, or the type and text of its error."""
    try:
        return tuple(float(x).hex() for x in fn())
    except NoRealRootError as exc:
        return (type(exc).__name__, str(exc))


def _reference_solve(rule, u, f, g, ref, larger):
    (fp, gp), other = point_reference.branches(rule, u, f, g, ref, larger)
    return fp, gp, other


def test_one_frame_solve_matches_reference_chain():
    """solve() returns the bits of (f', g', other f') that the layered chain
    gives, or raises the same exception type and text, for every rule at
    random states and references, None under both larger values."""
    from hypothesis import given, settings, strategies as st

    state = _state_strategy(st)
    refs = st.one_of(st.none(), state,
                     st.sampled_from([math.inf, -math.inf, math.nan]))

    @settings(max_examples=600, deadline=None)
    @given(_rule_strategy(st), state, state, state, refs, st.booleans())
    def inner_check(rule, u, f, g, ref, larger):
        got = _solve_outcome(lambda: rule.solve(u, f, g, ref, larger))
        want = _solve_outcome(
            lambda: _reference_solve(rule, u, f, g, ref, larger))
        assert got == want

    inner_check()


_SOLVE_PATHS = [
    # (rule, (u, f, g), error text or None): every NoRealRootError path,
    # then the one-root, clamped-discriminant and threshold paths, whose
    # bits (signs of zero included) must be the chain's
    (_FlatRule("flat-ell-i", 1.0, 0.5, 0.0, 1.0, 1.0), (1.0, 1.0, 0.0),
     "flat-ell-i: g ~ 0 at u=1.0"),
    (_FncRule("fnc-hyp-ii", -1.0, 0.4, 1.0, 2.0), (0.25, 1.0, 1e-15),
     "fnc-hyp-ii: g ~ 0 at u=0.25"),
    (_unit_flat(1.0), (0.5, 2.0, 1.0), "negative discriminant at flat u=0.5"),
    (_FncRule("fnc-ell-ii", 1.0, 0.3, 1.0, 2.0), (0.0, 1.9, 1.0),
     "negative discriminant at fnc-ell-ii u=0.0"),
    (_unit_flat(1.0), (0.0, 1.0, 1.0), "degenerate root system at flat u=0.0"),
    (_FncRule("fnc-ell-ii", 1.0, 0.3, 1.0, 2.0), (0.0, 2.5, 1.0),
     "fnc-ell-ii: beta^2 g^2 - alpha^2 f^2 <= 0"),
    (_FncRule("fnc-hyp-ii", -1.0, 0.4, 1.0, 2.0), (0.0, 0.0, 0.0),
     "fnc-hyp-ii: beta^2 g^2 + alpha^2 f^2 <= 0"),
    (_MinHyp3Rule(0.7), (0.5, 0.0, 0.0),
     "min-hyp-iii: curve through the origin at u=0.5"),
    (_unit_flat(1.0), (1.0, 1.0, 1.0), None),       # A = 0: one root -C / B
    (_unit_flat(-1.0), (1.0, 0.0, 1.0), None),      # B = C = 0: one root 0.0
    (_unit_flat(-1.0), (-1.0, -0.0, 1.0), None),
    (_unit_flat(1.0), (1.0, math.sqrt(2.0), 1.0), None),  # clamped disc
    (_unit_flat(1.0), (0.5, 0.25, 1e-14), None),    # g at the g ~ 0 threshold
    (_unit_flat(-1.0), (0.5, 0.25, -1e-14), None),
    # NaN coefficients and states: no threshold test fires on a NaN, so
    # the roots come out NaN and nothing raises
    (_FlatRule("flat-ell-i", 1.0, math.nan, 0.0, 1.0, 1.0), (1.0, 1.0, 2.0),
     None),
    (_FncRule("fnc-hyp-ii", -1.0, 0.4, 1.0, math.nan), (0.25, 1.0, 1.0),
     None),
    (_unit_flat(1.0), (0.5, 1.0, math.nan), None),  # q NaN: not g ~ 0
    (_unit_flat(1.0), (math.nan, 1.0, 1.0), None),  # A = 0, B NaN: -C / B
]


@pytest.mark.parametrize("rule,state,text", _SOLVE_PATHS)
def test_one_frame_solve_paths_match_reference(rule, state, text):
    """Each path of solve() gives the chain's outcome: the same
    NoRealRootError text on every error path, the same bits elsewhere."""
    for ref, larger in ((None, True), (None, False), (0.5, True)):
        got = _solve_outcome(lambda: rule.solve(*state, ref, larger))
        assert got == _solve_outcome(
            lambda: _reference_solve(rule, *state, ref, larger))
        assert (got == ("NoRealRootError", text)) == (text is not None)


def test_tracking_field_others_match_reference():
    """The field returns the reference field's (f', g') bits call for call,
    raises where it raises, and records the same others list."""
    from hypothesis import given, settings, strategies as st

    state = _state_strategy(st)
    calls = st.lists(st.tuples(state, state, state), min_size=1, max_size=6)

    @settings(max_examples=300, deadline=None)
    @given(_rule_strategy(st), calls, st.sampled_from(["larger", "smaller"]))
    def inner_check(rule, seq, initial_root):
        field, others = tracking_field(rule, initial_root)
        ref_field = point_reference.TrackingField(rule, initial_root)
        for u, f, g in seq:
            got = _solve_outcome(lambda: field(u, [f, g]))
            assert got == _solve_outcome(lambda: ref_field(u, [f, g]))
            assert [x.hex() for x in others] == \
                [x.hex() for x in ref_field.others]

    inner_check()


# ---------------------------------------------------------------------------
# The RK4 kernel against rk4_integrate over the reference field

def _kernel_outcome(rule, f0, g0, t0, t1, n, initial_root):
    """The kernel's knots as hex strings (others at the knots), or the type
    and text of its error."""
    try:
        ts, ys, dys, others, calls = meridians._rk4_tracked(
            rule, f0, g0, t0, t1, n, None, initial_root == "larger")
    except NoRealRootError as exc:
        return (type(exc).__name__, str(exc))
    assert calls == 4 * n + 1
    return ([x.hex() for x in ts], [x.hex() for x in ys],
            [x.hex() for x in dys], [x.hex() for x in others])


def _reference_outcome(rule, f0, g0, t0, t1, h, initial_root):
    """rk4_integrate over point_reference.TrackingField, in the form of
    _kernel_outcome: others of the field's k1 calls, 4i at knot i."""
    field = point_reference.TrackingField(rule, initial_root)
    try:
        traj = rk4_integrate(field, (f0, g0), t0, t1, h)
    except NoRealRootError as exc:
        return (type(exc).__name__, str(exc))
    return ([float(x).hex() for x in traj.ts],
            [float(x).hex() for x in traj.ys.ravel()],
            [float(x).hex() for x in traj.dys.ravel()],
            [x.hex() for x in field.others[::4]])


def test_rk4_kernel_matches_reference_integration():
    """_rk4_tracked gives rk4_integrate's knots over the layered reference
    field to the bit (the other roots at the knots included), or raises its
    error with the same type and text: every rule, random states, spans of
    1 to 8 steps and both initial roots."""
    from hypothesis import given, settings, strategies as st

    state = _state_strategy(st)
    starts = st.one_of(st.floats(min_value=-3.0, max_value=3.0,
                                 allow_nan=False),
                       st.sampled_from([0.0, -0.0]))

    @settings(max_examples=300, deadline=None)
    @given(_rule_strategy(st), state, state, starts,
           st.floats(min_value=1e-3, max_value=2.0), st.integers(1, 8),
           st.sampled_from(["larger", "smaller"]))
    def inner_check(rule, f0, g0, t0, span, steps, initial_root):
        t1 = t0 + span
        h = (t1 - t0) / steps
        got = _kernel_outcome(rule, f0, g0, t0, t1, steps, initial_root)
        want = _reference_outcome(rule, f0, g0, t0, t1, h, initial_root)
        assert got == want
        assert isinstance(want[0], str) or len(want[0]) == steps + 1

    inner_check()


# ---------------------------------------------------------------------------
# The array jet recovery (_solve_columns, then second) against the float
# route (rule.solve, then second) that jet takes

def _float_solve(rule, u, f, g, ref):
    """rule.solve's (f', g') as hex strings, None where it raises."""
    try:
        fp, gp, _ = rule.solve(u, f, g, ref)
    except NoRealRootError:
        return None
    return float(fp).hex(), float(gp).hex()


def _knot_meridian(rule, rows):
    """A SampledMeridian of rule with one knot per row (u, f, g, f'), u
    distinct: its jets at a knot u recover from (f, g) tracking that f'."""
    us, fs, gs, refs = (np.array(c) for c in zip(*sorted(rows)))
    traj = Trajectory(us, np.column_stack([fs, gs]),
                      np.column_stack([refs, np.zeros(len(us))]), 1.0)
    none = np.empty(0)
    return meridians.SampledMeridian(traj, rule, none, none, none, 0.0), us


def _jet_hex(fj, gj, i=None):
    return tuple(float(x if i is None else x[i]).hex()
                 for x in (fj.val, fj.d1, fj.d2, gj.val, gj.d1, gj.d2))


def _float_jets(sm, us):
    """jets at each float u as hex strings, None where it raises."""
    out = []
    for u in us.tolist():
        try:
            out.append(_jet_hex(*sm.jets(u)))
        except NoRealRootError:
            out.append(None)
    return out


def _array_jets(sm, us):
    """jets over the array us, in the form of _float_jets; the second
    derivatives of a masked element must be NaN."""
    (fj, gj), raised = evaluate_masked(sm.jets, us)
    assert np.isnan(np.array([fj.d2, gj.d2])[:, raised]).all()
    return [None if raised[i] else _jet_hex(fj, gj, i) for i in range(len(us))]


def test_array_recovery_matches_float_route():
    """_solve_columns masks exactly the states where rule.solve raises and
    gives its bits elsewhere (the quadratic of _rk4_tracked, written twice);
    the array jets mask where rule.solve or rule.second raises and give the
    float jets' bits elsewhere, signs of zero included: every rule, random
    states and references, +-inf and NaN among them."""
    from hypothesis import given, settings, strategies as st

    state = _state_strategy(st)
    refs = st.one_of(state, st.sampled_from([math.inf, -math.inf, math.nan]))

    # the knots' u stay finite: hermite_eval needs a finite, ordered span
    knot = state.filter(lambda u: abs(u) <= 3.0)

    @settings(max_examples=400, deadline=None)
    @given(_rule_strategy(st),
           st.lists(st.tuples(knot, state, state, refs), min_size=2,
                    max_size=8, unique_by=lambda row: row[0]))
    def inner_check(rule, rows):
        us, fs, gs, rs = (np.array(c) for c in zip(*rows))
        with np.errstate(all="ignore"):
            fp, gp, bad = meridians._solve_columns(rule, us, fs, gs, rs)
            sm, knots = _knot_meridian(rule, rows)
            want = _float_jets(sm, knots)
        assert [None if b else (x.hex(), y.hex()) for x, y, b in zip(
            fp.tolist(), gp.tolist(), bad.tolist())] == \
            [_float_solve(rule, *row) for row in rows]
        assert _array_jets(sm, knots) == want

    inner_check()


def test_min_hyp_iii_recovery_next_to_the_origin():
    """f^2 + g^2 underflowing to 0 is the origin to second: NoRealRootError
    on a float, a masked element on an array, next to one it recovers."""
    rule = _MinHyp3Rule(0.7)
    fp, gp, _ = rule.solve(0.5, 1e-170, 1e-170, None)
    with pytest.raises(NoRealRootError,
                       match=r"^min-hyp-iii: curve through the origin at u=0\.5$"):
        rule.second(0.5, 1e-170, 1e-170, fp, gp)
    sm, us = _knot_meridian(rule, [(0.5, 1e-170, 1e-170, fp),
                                   (0.6, 0.3, 1.0, fp)])
    got = _array_jets(sm, us)
    assert got == _float_jets(sm, us)
    assert got[0] is None and got[1] is not None


@pytest.mark.parametrize("case", INTEGRATED)
def test_jet_columns_at_the_knots_give_the_realization(case):
    """At its knots a realization's jets hold its states and field values
    to the bit."""
    family = fam(case)
    sm = family.ensure_realized()
    ok, f, fp, _, g, gp, _ = family.jet_columns(sm.traj.ts)
    assert ok.all()
    assert np.stack([f, g], 1).tobytes() == sm.traj.ys.tobytes()
    assert np.stack([fp, gp], 1).tobytes() == sm.traj.dys.tobytes()


@pytest.mark.parametrize("case", INTEGRATED)
def test_jet_columns_match_the_float_route_at_random_u(case):
    """jet_columns at 5,000 random u, some outside the span, equals jet
    row by row, and ok is False exactly where jet raises."""
    family = fam(case)
    lo, hi = family.interval
    us = np.random.default_rng(5000).uniform(lo - 0.1 * (hi - lo),
                                            hi + 0.1 * (hi - lo), 5000)
    ok, *cols = family.jet_columns(us)
    assert ok.any() and not ok.all()
    assert [tuple(float(c[i]).hex() for c in cols) if ok[i] else None
            for i in range(len(us))] == _point_rows(family, us.tolist())


@pytest.mark.parametrize("case", ["pnmcv-ell", "flat-ell-i"])
def test_jet_columns_match_the_gather_route_outside_the_interval(case):
    """jet_columns, one jet_fn pass over every u with the rows outside the
    interval blanked after, equals the route that evaluates only the u
    inside and scatters them back, to the bit (closed-form and integrated)."""
    family = fam(case)
    lo, hi = family.interval
    us = np.concatenate([np.linspace(lo - 0.5, hi + 0.5, 41),
                         [math.nan, -math.inf, math.inf]])
    got = family.jet_columns(us)
    want = point_reference.jet_columns(family, us)
    assert got[0].tolist() == want[0].tolist()
    assert got[0].any() and not got[0].all()
    for a, b in zip(got[1:], want[1:]):
        assert [x.hex() for x in a.tolist()] == [x.hex() for x in b.tolist()]


@pytest.mark.parametrize("case", INTEGRATED)
def test_recovery_counts_its_u_values(case):
    """recovered counts the u-values whose jets a realization recovers; a u
    outside the interval is recovered at the interval's start, in the same
    pass, and its row blanked."""
    family = fam(case)
    sm = family.ensure_realized()
    assert sm.recovered == 0
    lo, hi = family.interval
    ok, *_ = family.jet_columns(np.concatenate(
        [np.linspace(lo, hi, 50), [lo - 1.0, hi + 1.0, math.nan]]))
    assert sm.recovered == 53
    assert ok.tolist() == [True] * 50 + [False] * 3
