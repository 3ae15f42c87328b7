import dataclasses
import math
import random
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import point_reference as ref
from grs4.errors import GrsError, InadmissiblePointError, ParamError
from grs4.meridians import (FAMILY_CATALOG, build_family, classified_case_ids,
                            descriptor_from_catalog)
from grs4.pe4 import inner
from grs4.reporting import export_invariants_csv, export_mesh
from grs4.surfaces import (INVARIANT_COLUMNS, SecondFundamental, SurfaceKind,
                           curvatures, frames, geometric_functions,
                           invariant_grid, invariant_record,
                           position_jets, positions_grid,
                           shape_trace, surface_from_family, _frame_from,
                           _frame_inputs, _fundamental_from, _projection,
                           _rotations, _shape_matrices)
from grs4.verifier import (admissible_domain, cross_check,
                           orthonormality_residual, _grid_in_intervals, _v_grid,
                           _V_SAMPLING)


def spec_for(case, params=None, **kw):
    return surface_from_family(build_family(
        descriptor_from_catalog(case, params, **kw)))


FNC_ELL_I = spec_for("fnc-ell-i", {"c": 1.2}, alpha=1.0, beta=2.0)
PNMCV_ELL = spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0)
MIN_HYP_I = spec_for("min-hyp-i", {"c": 1.0}, alpha=2.0, beta=1.0)


def sample_specs():
    """One spec per nonempty catalog case, with an interior u sample."""
    out = []
    for case in classified_case_ids():
        desc = descriptor_from_catalog(case)
        spec = surface_from_family(build_family(desc))
        ivs = admissible_domain(spec, *desc.interval, 200)
        if not ivs:
            continue
        a, b = max(ivs, key=lambda iv: iv[1] - iv[0])
        out.append((case, spec, a + 0.2 * (b - a), b - a))
    return out


SAMPLES = sample_specs()


# ---------------------------------------------------------------------------
# Position jets

def test_elliptic_jets_at_v0():
    pj = position_jets(FNC_ELL_I, 1.0, 0.0)
    assert pj.z.components() == (1.2, 0.0, 1.0, 0.0)
    assert pj.z_v.components() == (0.0, 1.2, 0.0, 2.0)       # (0, af, 0, bg)
    assert pj.z_vv.components() == (-1.2, 0.0, -4.0, 0.0)    # (-a^2 f, 0, -b^2 g, 0)


def test_hyperbolic_jets_at_v0():
    pj = position_jets(MIN_HYP_I, 1.0, 0.0)
    assert pj.z.components() == (1.0, 1.0, 0.0, 0.0)
    assert pj.z_v.components() == (0.0, 0.0, 2.0, 1.0)       # (0, 0, af, bg)


def test_mixed_partials_single_vector():
    pj = position_jets(PNMCV_ELL, 3.0, 0.8)
    # z_uv from finite differences of z_u in v
    h = 1e-6
    up = position_jets(PNMCV_ELL, 3.0, 0.8 + h).z_u
    um = position_jets(PNMCV_ELL, 3.0, 0.8 - h).z_u
    fd = (up - um) * (1.0 / (2.0 * h))
    assert (fd - pj.z_uv).euclid_norm() <= 1e-8


# ---------------------------------------------------------------------------
# First fundamental form

def test_first_fundamental_examples():
    pj = position_jets(FNC_ELL_I, 1.0, 0.3)
    E, F, G = _fundamental_from(pj.z_u, pj.z_v)
    assert E == pytest.approx(0.44, abs=1e-14)
    assert F == pytest.approx(0.0, abs=1e-15)
    assert G == pytest.approx(-2.56, abs=1e-14)
    assert invariant_record(FNC_ELL_I, 1.0).admissible

    pj = position_jets(PNMCV_ELL, 3.0, 0.0)
    E2, _, G2 = _fundamental_from(pj.z_u, pj.z_v)
    assert E2 == pytest.approx(0.8, abs=1e-12)
    assert G2 == pytest.approx(-76.0, abs=1e-12)


def test_F_vanishes_everywhere():
    rng = random.Random(4)
    for case, spec, u, width in SAMPLES:
        for _ in range(5):
            v = rng.uniform(-2.0, 2.0)
            pj = position_jets(spec, u, v)
            scale = max(1.0, pj.z_u.euclid_norm() * pj.z_v.euclid_norm())
            F = _fundamental_from(pj.z_u, pj.z_v)[1]
            assert abs(F) <= 1e-12 * scale, case


def test_inadmissible_flag_not_error():
    spec = spec_for("min-ell-i", interval=(0.1, 10.0))
    rec = invariant_record(spec, 1.0)
    assert not rec.admissible


# ---------------------------------------------------------------------------
# Frames

def test_frames_example_components():
    fr = frames(FNC_ELL_I, 1.0, 0.0)
    assert fr.x.components() == pytest.approx((1.80907, 0.0, 1.50756, 0.0),
                                              abs=1e-5)
    assert fr.n1.components() == pytest.approx((0.0, -1.25, 0.0, -0.75),
                                               abs=1e-12)


def test_frame_orthonormality_random_points():
    rng = random.Random(11)
    for case, spec, u0, width in SAMPLES:
        for _ in range(7):
            u = u0 + rng.uniform(-0.1, 0.4) * width * 0.5
            vr = (0.0, 2 * math.pi) if spec.kind is SurfaceKind.ELLIPTIC \
                else (-3.0, 3.0)
            fr = frames(spec, u, rng.uniform(*vr))
            assert orthonormality_residual(fr) <= 1e-12, case


def test_frames_inadmissible_raises():
    spec = spec_for("min-ell-i", interval=(0.1, 10.0))
    with pytest.raises(InadmissiblePointError):
        frames(spec, 1.0, 0.0)
    with pytest.raises(InadmissiblePointError):
        geometric_functions(spec, 1.0)
    with pytest.raises(InadmissiblePointError):
        curvatures(spec, 1.0)


def test_frame_signature_conventions():
    # n1 spacelike and n2 timelike for both kinds
    for spec, u, v in ((FNC_ELL_I, 1.0, 0.4), (MIN_HYP_I, 1.0, 0.4)):
        fr = frames(spec, u, v)
        assert inner(fr.n1, fr.n1) == pytest.approx(1.0, abs=1e-12)
        assert inner(fr.n2, fr.n2) == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Second fundamental form and geometric functions

def second_fundamental(spec, u):
    """sigma on the frame basis as coefficient pairs along (n1, n2), from
    the geometric functions."""
    gf = geometric_functions(spec, u)
    if spec.kind is SurfaceKind.ELLIPTIC:
        return SecondFundamental(xx=(0.0, -gf.nu1), xy=(gf.mu, 0.0),
                                 yy=(0.0, -gf.nu2))
    return SecondFundamental(xx=(gf.nu1, 0.0), xy=(0.0, -gf.mu),
                             yy=(gf.nu2, 0.0))


def test_sigma_fnc_ell_i():
    sf = second_fundamental(FNC_ELL_I, 1.0)
    assert sf.xx == (0.0, 0.0)
    assert sf.xy == (0.0, 0.0)
    assert sf.yy[0] == 0.0
    assert sf.yy[1] == pytest.approx(-2.12000, abs=1e-5)


def test_sigma_min_hyp_i():
    nu = 6.0 / 5.0 ** 1.5
    sf = second_fundamental(MIN_HYP_I, 1.0)
    assert sf.xx[0] == pytest.approx(nu, abs=1e-12)
    assert sf.yy[0] == pytest.approx(nu, abs=1e-12)
    assert sf.xx[1] == sf.yy[1] == 0.0


def test_sigma_projected_agrees_with_closed_form():
    for case, spec, u, _ in SAMPLES:
        sf = second_fundamental(spec, u)
        pr = ref.project(spec, u, 0.4).sf
        for a, b in zip((sf.xx + sf.xy + sf.yy), (pr.xx + pr.xy + pr.yy)):
            assert a == pytest.approx(b, abs=1e-10), case


def test_totally_geodesic_hyperbolic_line():
    # hyperbolic f = c g with alpha = beta: every sigma component vanishes
    spec = spec_for("custom", {"f": "0.8*u", "g": "u", "kind": "hyperbolic"},
                    alpha=1.0, beta=1.0, interval=(0.5, 3.0))
    gf = geometric_functions(spec, 1.7)
    assert (gf.nu1, gf.nu2, gf.mu) == (0.0, 0.0, 0.0)
    sf = ref.project(spec, 1.7, 0.9).sf
    assert max(abs(t) for t in sf.xx + sf.xy + sf.yy) <= 1e-14


def test_geometric_functions_fnc_ell_i_values():
    gf = geometric_functions(FNC_ELL_I, 1.0)
    assert gf.nu1 == 0.0
    assert gf.nu2 == pytest.approx(2.12000, abs=1e-5)
    assert gf.mu == 0.0
    assert gf.gamma2 == pytest.approx(-1.50756, abs=1e-5)
    assert gf.beta2 == pytest.approx(0.518222, abs=1e-5)


def test_geometric_functions_closed_forms_fnc_ell_i():
    # closed forms for the linear-profile case evaluated on a grid
    c, alpha, beta = 1.2, 1.0, 2.0
    for u in (0.7, 1.0, 2.3):
        gf = geometric_functions(FNC_ELL_I, u)
        root = math.sqrt(c * c - 1.0)
        den = beta ** 2 - c * c * alpha ** 2
        assert gf.nu2 == pytest.approx(
            c * (beta ** 2 - alpha ** 2) / (u * root * den), rel=1e-12)
        assert gf.gamma2 == pytest.approx(-1.0 / (u * root), rel=1e-12)
        assert gf.beta2 == pytest.approx(
            alpha * beta * root / (u * den), rel=1e-12)


def test_pnmcv_beta2_identically_zero():
    for u in np.linspace(2.2, 5.9, 17):
        assert abs(geometric_functions(PNMCV_ELL, u).beta2) <= 1e-15


def test_min_hyp_i_nu_values():
    gf = geometric_functions(MIN_HYP_I, 1.0)
    nu = 6.0 / 5.0 ** 1.5
    assert gf.nu1 == pytest.approx(nu, abs=1e-13)
    assert gf.nu2 == pytest.approx(nu, abs=1e-13)
    assert gf.nu1 == pytest.approx(0.53666, abs=1e-5)


# ---------------------------------------------------------------------------
# Curvatures

def test_pnmcv_mean_curvature_is_inverse_C():
    for u in np.linspace(2.2, 5.9, 13):
        assert curvatures(PNMCV_ELL, u).h_coeff == pytest.approx(0.5, abs=1e-12)


def test_min_hyp_i_is_minimal():
    for u in np.linspace(0.6, 2.9, 13):
        assert abs(curvatures(MIN_HYP_I, u).h_coeff) <= 1e-13


def test_flat_ell_ii_gauss_curvature_zero():
    spec = spec_for("flat-ell-ii", {"C": -4.0}, alpha=1.0, beta=1.0)
    for u in np.linspace(-0.95, 0.95, 13):
        assert abs(curvatures(spec, u).K) <= 1e-15


def test_curvature_consistency_identities():
    for case, spec, u, _ in SAMPLES:
        gf = geometric_functions(spec, u)
        cv = curvatures(spec, u)
        if spec.kind is SurfaceKind.ELLIPTIC:
            K_alt = gf.nu1 * gf.nu2 + gf.mu ** 2
            kappa_alt = -gf.mu * (gf.nu1 + gf.nu2)
            h_alt = 0.5 * (gf.nu2 - gf.nu1)
        else:
            K_alt = -(gf.nu1 * gf.nu2 + gf.mu ** 2)
            kappa_alt = gf.mu * (gf.nu1 + gf.nu2)
            h_alt = 0.5 * (gf.nu1 - gf.nu2)
        scale = max(1.0, abs(cv.K), abs(cv.kappa), abs(cv.h_coeff))
        assert abs(cv.K - K_alt) <= 1e-12 * scale, case
        assert abs(cv.kappa - kappa_alt) <= 1e-12 * scale, case
        assert abs(cv.h_coeff - h_alt) <= 1e-12 * scale, case
        assert cv.H_norm2 == -cv.h_coeff ** 2


def test_flatness_criterion_equivalence():
    # K = 0 iff mu^2 + nu1 nu2 = 0, checked on a flat and a non-flat family
    flat = spec_for("flat-hyp-ii")
    gf = geometric_functions(flat, 0.6)
    assert abs(gf.mu ** 2 + gf.nu1 * gf.nu2) <= 1e-14
    assert abs(curvatures(flat, 0.6).K) <= 1e-14
    gf2 = geometric_functions(PNMCV_ELL, 3.0)
    assert abs(gf2.mu ** 2 + gf2.nu1 * gf2.nu2) > 1e-3
    assert abs(curvatures(PNMCV_ELL, 3.0).K) > 1e-3


def test_mean_curvature_vector_direction():
    # elliptic H is timelike (along n2); hyperbolic H is spacelike (along n1)
    hv = ref.project(PNMCV_ELL, 3.0, 0.5).H
    assert inner(hv, hv) == pytest.approx(-0.25, abs=1e-12)
    spec = spec_for("pnmcv-hyp", {"C": 2.0}, alpha=1.3, beta=0.7)
    hv2 = ref.project(spec, 1.0, 0.5).H
    assert inner(hv2, hv2) == pytest.approx(0.25, abs=1e-12)


def test_pnmcv_hyp_sign_branches():
    # h = -1/C on the + branch of f and +1/C on the - branch
    for sgn, want in ((1, -0.5), (-1, 0.5)):
        spec = spec_for("pnmcv-hyp", {"C": 2.0}, sign=sgn)
        assert curvatures(spec, 1.0).h_coeff == pytest.approx(want, abs=1e-12)


def test_h_numerator_vanishes_on_min_ell_i():
    spec = spec_for("min-ell-i", interval=(0.1, 10.0))
    for u in np.linspace(0.1, 10.0, 41):
        num, scale = ref.mean_curvature_numerator(spec, u)
        assert abs(num) / scale <= 1e-12


# ---------------------------------------------------------------------------
# Shape operators

def shape_ops(spec, u):
    """A1, A2 of n1, n2 on the (x, y) basis at an admissible u, with
    tr(A1 A2) and the allied coefficient 0.5 |h| tr(A1 A2) of its
    invariant_record."""
    A1, A2 = _shape_matrices(spec.kind, geometric_functions(spec, u))
    rec = invariant_record(spec, u)
    return SimpleNamespace(A1=A1, A2=A2, trA1A2=rec.trA1A2,
                           allied_coeff=0.5 * abs(rec.h_coeff) * rec.trA1A2)


def test_shape_operators_fnc_ell_i():
    so = shape_ops(FNC_ELL_I, 1.0)
    assert np.all(so.A1 == 0.0)
    assert so.A2[0, 0] == 0.0
    assert so.A2[1, 1] == pytest.approx(-2.12000, abs=1e-5)
    assert so.trA1A2 == 0.0
    assert so.allied_coeff == 0.0


def test_shape_operator_block_structure():
    so = shape_ops(PNMCV_ELL, 3.0)
    gf = geometric_functions(PNMCV_ELL, 3.0)
    assert so.A1[0, 1] == gf.mu and so.A1[1, 0] == -gf.mu
    assert so.A2[0, 0] == gf.nu1 and so.A2[1, 1] == -gf.nu2
    so_h = shape_ops(MIN_HYP_I, 1.0)
    gf_h = geometric_functions(MIN_HYP_I, 1.0)
    assert so_h.A1[0, 0] == gf_h.nu1 and so_h.A1[1, 1] == -gf_h.nu2
    assert so_h.A2[0, 1] == gf_h.mu


def test_projected_shape_operators_agree():
    for case, spec, u, _ in SAMPLES:
        so = shape_ops(spec, u)
        A1p, A2p = ref.project(spec, u, 0.3).shape_matrices()
        assert np.allclose(A1p, so.A1, atol=1e-10), case
        assert np.allclose(A2p, so.A2, atol=1e-10), case
        assert abs(float(np.trace(A1p @ A2p))) <= 1e-12, case


# ---------------------------------------------------------------------------
# Invariant records

def test_invariant_record_fields():
    rec = invariant_record(FNC_ELL_I, 1.0)
    assert rec.admissible
    assert rec.E > 0 and rec.G < 0 and rec.F == pytest.approx(0.0, abs=1e-15)
    assert rec.H_norm2 == -rec.h_coeff ** 2
    assert rec.h_coeff == pytest.approx(0.5 * rec.nu2, abs=1e-12)


def test_invariant_record_inadmissible():
    spec = spec_for("min-ell-i", interval=(0.1, 10.0))
    rec = invariant_record(spec, 1.0)
    assert not rec.admissible
    assert math.isnan(rec.K)


# ---------------------------------------------------------------------------
# Evaluation reuse

def _hex(vec):
    return [c.hex() for c in vec.components()]


def test_frames_match_position_jet_reference_bitwise():
    """x = z_u / sqrt(E), y = z_v / sqrt(-G) from position_jets, to the bit."""
    kinds = set()
    for case, spec, u, _ in SAMPLES:
        kinds.add(spec.kind)
        for v in (0.0, -0.0, 0.7, -1.9, 2.6):
            fr = frames(spec, u, v)
            pj = position_jets(spec, u, v)
            *_, E, W = ref.meridian_scalars(spec, u)
            assert _hex(fr.x) == _hex(pj.z_u * (1.0 / math.sqrt(E))), (case, v)
            assert _hex(fr.y) == _hex(pj.z_v * (1.0 / math.sqrt(W))), (case, v)
    assert kinds == {SurfaceKind.ELLIPTIC, SurfaceKind.HYPERBOLIC}


def test_exports_evaluate_meridian_once_per_u(monkeypatch, tmp_path):
    """Each export evaluates the meridian once at each u, per point or in a
    jet_columns pass, and at no other u (closed-form and integrated)."""
    for spec in (spec_for("pnmcv-ell", {"C": 2.0}, alpha=1.0, beta=3.0),
                 spec_for("fnc-hyp-ii")):
        us = np.linspace(*spec.meridian.interval, 7)
        calls = []
        evaluate, columns = spec.meridian.jet, spec.meridian.jet_columns

        def counted(u):
            calls.append(float(u))
            return evaluate(u)

        def counted_columns(grid):
            calls.extend(np.asarray(grid, dtype=float).tolist())
            return columns(grid)

        monkeypatch.setattr(spec.meridian, "jet", counted)
        monkeypatch.setattr(spec.meridian, "jet_columns", counted_columns)
        export_invariants_csv(spec, us, str(tmp_path / "t.csv"))
        assert calls == us.tolist()
        calls.clear()
        export_mesh(spec, us, np.linspace(0.0, 6.0, 5),
                    str(tmp_path / "m.obj"), fmt="obj3")
        assert calls == us.tolist()


def test_invariant_record_computes_each_layer_once_per_row(monkeypatch):
    import grs4.surfaces as surfaces
    calls = {"_geo_fns_from": 0, "_curvatures_from": 0}

    def counted(name):
        fn = getattr(surfaces, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(surfaces, name, counted(name))
    for spec, u in ((PNMCV_ELL, 3.0), (MIN_HYP_I, 1.0)):
        for key in calls:
            calls[key] = 0
        rec = invariant_record(spec, u)
        assert rec.admissible
        assert calls == {"_geo_fns_from": 1, "_curvatures_from": 1}
        assert rec.trA1A2 == shape_ops(spec, u).trA1A2 == ref.shape_trace(spec, u)


def _grid_hex(vec, i, j):
    return [float(c[i, j]).hex() for c in vec.components()]


@pytest.mark.parametrize("spec", [PNMCV_ELL, MIN_HYP_I],
                         ids=["elliptic", "hyperbolic"])
def test_grid_route_matches_point_route_bitwise(spec):
    """The frame and projection routes over a u x v grid (the frame inputs
    of invariant_grid's meridian columns as a u-column) equal the one-point
    float routes and np.trace(A1 @ A2) at every grid point, to the bit
    (hyperbolic |v| <= 3)."""
    lo, hi = spec.meridian.interval
    us = _grid_in_intervals(admissible_domain(spec, lo, hi, 200), 17)
    vs = _v_grid(spec.kind, 13, _V_SAMPLING[spec.kind][0])
    if spec.kind is SurfaceKind.HYPERBOLIC:
        assert (vs.min(), vs.max()) == (-3.0, 3.0)
    inputs = (_frame_inputs([c[:, None] for c in invariant_grid(spec, us).scalars]),
              _rotations(spec, vs))
    fg, pg = _frame_from(spec, *inputs), _projection(spec, *inputs)
    zg = positions_grid(spec, us, vs)
    trg = shape_trace(*pg.shape_matrices())
    assert trg.shape == (len(us), len(vs))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            fr = ref.frames(spec, u, v)
            proj = ref.project(spec, u, v)
            assert _grid_hex(zg, i, j) == _hex(ref.position_jets(spec, u, v).z)
            for name in ("x", "y", "n1", "n2"):
                want = _hex(getattr(fr, name))
                assert _grid_hex(getattr(fg, name), i, j) == want, (u, v, name)
                assert _grid_hex(getattr(pg.fr, name), i, j) == want, (u, v, name)
            for k, w in enumerate(proj.sigma):
                assert _grid_hex(pg.sigma[k], i, j) == _hex(w), (u, v, k)
            for got, want in zip(pg.sf.xx + pg.sf.xy + pg.sf.yy,
                                 proj.sf.xx + proj.sf.xy + proj.sf.yy):
                assert float(got[i, j]).hex() == want.hex(), (u, v)
            assert _grid_hex(pg.H, i, j) == _hex(proj.H), (u, v)
            A1, A2 = proj.shape_matrices()
            assert float(trg[i, j]).hex() == float(np.trace(A1 @ A2)).hex(), (u, v)


# cosh and sinh overflow just above |x| = acosh(DBL_MAX), about 710.4758
_COSH_LIMIT = math.acosh(sys.float_info.max)


@pytest.mark.parametrize("speeds", [(1.5, 0.75), (0.75, 1.5), (3, 1)])
@pytest.mark.parametrize("kind", list(SurfaceKind))
def test_rotations_match_math_per_v_bitwise(kind, speeds):
    """_rotations has at each element the bits of math at that v: cos and
    sin (cosh and sinh) of alpha*v and beta*v, at +-0.0, at negative v and
    where |alpha v| or |beta v| lies just below the cosh limit; integer
    speeds as Python multiplies them."""
    spec = dataclasses.replace(PNMCV_ELL, kind=kind, alpha=speeds[0],
                               beta=speeds[1])
    top = _COSH_LIMIT / max(speeds)
    vs = [0.0, -0.0, -1e-300, 0.3, -0.7, -2.5, 3.0, -41.0, 100.0]
    vs += [np.nextafter(top, 0.0), -np.nextafter(top, 0.0),
           np.nextafter(top, 0.0) * (1.0 - 2.0 ** -40)]
    got = _rotations(spec, np.array(vs).reshape(3, 4))
    assert [c.shape for c in got] == [(3, 4)] * 4
    for i, v in enumerate(vs):
        want = [fn(s * v) for s in speeds for fn in (kind.cos, kind.sin)]
        assert [float(c.flat[i]).hex() for c in got] == \
            [w.hex() for w in want], v
    if kind is SurfaceKind.HYPERBOLIC:
        assert max(abs(w) for w in want) > 1e307
    assert [float(c).hex() for c in _rotations(spec, -0.0)] == \
        [w.hex() for w in (1.0, -0.0, 1.0, -0.0)]


def test_rotations_past_the_float_range_name_the_largest_v():
    """A rotation past the float range is a ParamError naming the kind and
    the largest |v|: a hyperbolic one where cosh overflows, here through
    beta, and an elliptic one where alpha*v or beta*v does; a NaN v is
    passed over."""
    spec = dataclasses.replace(MIN_HYP_I, alpha=1.0, beta=2.0)
    top = _COSH_LIMIT / 2.0
    with pytest.raises(ParamError, match=re.escape(
            f"hyperbolic rotation past the float range at v={-3 * top}")):
        _rotations(spec, [0.5, math.nan, top * 1.01, -3 * top, 2 * top])
    ell = dataclasses.replace(spec, kind=SurfaceKind.ELLIPTIC)
    assert all(np.isfinite(c).all() for c in _rotations(ell, [3 * top, -1e300]))
    with pytest.raises(ParamError, match=re.escape(
            "elliptic rotation past the float range at v=1e+308")):
        _rotations(ell, [1.0, 1e308])


class _JetOnly:
    """A meridian that defines only jet(u), as a caller's own may."""

    def __init__(self, family):
        self.family = family

    def jet(self, u):
        return self.family.jet(u)


def _jet_only(spec):
    return dataclasses.replace(spec, meridian=_JetOnly(spec.meridian))


_BAD_U_CASES = [
    (spec_for("pnmcv-ell", interval=(-1.0, 6.0)), [3.0, 1.5, 1.0], 1.5),
    (spec_for("min-hyp-i", interval=(-1.0, 6.0)), [1.0, 2.0, -0.5, 0.0], -0.5),
    (spec_for("fnc-hyp-ii"), [0.5, 1.5, 0.7], 1.5),   # outside the span
]


@pytest.mark.parametrize("jet_only", [False, True], ids=["family", "jet-only"])
@pytest.mark.parametrize("spec,us,bad", _BAD_U_CASES,
                         ids=["sqrt-domain", "power-law-domain", "integrated-span"])
def test_positions_grid_raises_the_point_error_at_the_first_bad_u(spec, us,
                                                                   bad, jet_only):
    with pytest.raises(GrsError) as point:
        position_jets(spec, bad, 0.0)
    grid_spec = _jet_only(spec) if jet_only else spec
    with pytest.raises(type(point.value), match=re.escape(str(point.value))):
        positions_grid(grid_spec, us, [0.0, 0.5])


@pytest.mark.parametrize("spec", [
    spec_for("pnmcv-hyp"), spec_for("min-ell-ii"), spec_for("flat-ell-i"),
    # f' is NaN without a raise: the row keeps its finite f
    spec_for("custom", {"f": "1 / ((u * 1e200) * (u * 1e200)) + u",
                        "g": "u + 3", "kind": "hyperbolic"},
             interval=(0.5, 2.0)),
], ids=["pnmcv-hyp", "min-ell-ii", "flat-ell-i", "custom-nan-jet"])
def test_positions_grid_of_a_jet_only_meridian_matches(spec):
    """A meridian with only jet(u) is evaluated per u, to the same bits as
    the jet_columns pass of a family."""
    lo, hi = spec.meridian.interval
    us, vs = np.linspace(lo, hi, 9), np.linspace(-1.0, 1.0, 4)
    got = positions_grid(_jet_only(spec), us, vs).components()
    want = positions_grid(spec, us, vs).components()
    for a, b in zip(got, want):
        assert np.isfinite(b).all()
        assert a.tobytes() == b.tobytes()


def _per_point_row(spec, u):
    """(INVARIANT_COLUMNS values, admissible) at u from the one-point float
    routes: E, F, G from position_jets at v = 0, the rest from
    geometric_functions, curvatures and the shape trace; NaN where they
    raise."""
    try:
        pj = ref.position_jets(spec, u, 0.0)
        E, F, G = _fundamental_from(pj.z_u, pj.z_v)
    except GrsError:
        return (math.nan,) * len(INVARIANT_COLUMNS), False
    try:
        gf = ref.geometric_functions(spec, u)
    except InadmissiblePointError:
        return (E, F, G) + (math.nan,) * (len(INVARIANT_COLUMNS) - 3), False
    cv = ref.curvatures(spec, u)
    return (E, F, G, gf.nu1, gf.nu2, gf.mu, gf.gamma2, gf.beta2, cv.K,
            cv.kappa, cv.h_coeff, cv.H_norm2, ref.shape_trace(spec, u)), True


@pytest.mark.parametrize("case", classified_case_ids())
def test_invariant_grid_matches_invariant_record_bitwise(case):
    """Every column of invariant_grid equals the per-point float routes to
    the bit, on 400 u-points over the catalog interval and one u past its
    end, where the meridian raises.  float.hex tells -0.0 from 0.0, so the
    zero F of v = 0 must keep its sign.  The square in K must round as
    Python's ** does: numpy's x * x differs at a few of these points."""
    desc = descriptor_from_catalog(case)
    spec = surface_from_family(build_family(desc))
    lo, hi = desc.interval
    us = list(np.linspace(lo, hi, 400)) + [hi + 1.0]
    grid = invariant_grid(spec, us)
    assert len(grid) == len(us)
    for i, u in enumerate(us):
        want, admissible = _per_point_row(spec, float(u))
        assert grid.us[i] == float(u)
        assert bool(grid.admissible[i]) is admissible, u
        for name, value in zip(INVARIANT_COLUMNS, want):
            got = float(getattr(grid, name)[i]).hex()
            assert got == float(value).hex(), (u, name)
    assert math.isnan(grid.E[-1]) and not grid.admissible[-1]
    if case == "min-ell-i":
        assert not grid.admissible.any()
    else:
        assert np.all(grid.F[:-1] == 0.0) and grid.admissible.any()


def _past_the_interval(spec, n=61):
    lo, hi = spec.meridian.interval
    return np.linspace(lo - 0.25 * (hi - lo), hi + 0.25 * (hi - lo), n)


# every closed-form case past both ends of its interval (min-ell-i has no
# admissible row), and admissibility boundaries inside an interval
CROSSING = [(case, spec, _past_the_interval(spec))
            for case, spec in ((c, spec_for(c)) for c in classified_case_ids())
            if FAMILY_CATALOG[case].realization != "ode"] + [
    ("pnmcv-ell-below-C", spec_for("pnmcv-ell", interval=(1.5, 3.0)),
     np.linspace(1.5, 3.0, 41)),
    ("pnmcv-hyp-past-C", spec_for("pnmcv-hyp", interval=(0.2, 2.5)),
     np.linspace(0.2, 2.5, 41)),
    ("custom-E-reaches-0", spec_for("custom", {"f": "0.5*u", "g": "2 + u*u/2"},
                                    interval=(0.0, 1.0)),
     np.linspace(0.0, 1.0, 41)),
]


@pytest.mark.parametrize("case,spec,us", CROSSING,
                         ids=[c[0] for c in CROSSING])
def test_invariant_grid_matches_the_gather_route_bitwise(case, spec, us):
    """invariant_grid, one pass over every row with the inadmissible rows
    blanked after, equals the route that computes only the gathered
    admissible rows and scatters them back, in every column to the bit."""
    admissible, want = ref.invariant_grid(spec, us)
    grid = invariant_grid(spec, us)
    assert grid.admissible.tolist() == admissible.tolist()
    assert not admissible.all()
    assert bool(admissible.any()) is (case != "min-ell-i")
    for name, column in zip(INVARIANT_COLUMNS, want):
        assert ([x.hex() for x in getattr(grid, name).tolist()]
                == [x.hex() for x in column.tolist()]), name
    if case == "custom-E-reaches-0":
        assert grid.E[20] == 0.0 and grid.admissible[19]


@pytest.mark.parametrize("spec", [PNMCV_ELL, MIN_HYP_I],
                         ids=["elliptic", "hyperbolic"])
def test_point_views_of_an_inadmissible_row_raise_the_per_point_error(spec):
    """frames and cross_check, views of a one-row invariant_grid, raise the
    error of the one-point float route at a u whose grid row is not
    admissible, type and text."""
    lo, hi = spec.meridian.interval
    us = _grid_in_intervals(admissible_domain(spec, lo, hi, 200), 9)
    bad = invariant_grid(spec, [us[0], lo - 1.0, us[1]])
    assert list(bad.admissible) == [True, False, True]
    with pytest.raises(GrsError) as per_point:
        ref.frames(spec, lo - 1.0, 0.0)
    for view in (frames, cross_check):
        with pytest.raises(type(per_point.value),
                           match=re.escape(str(per_point.value))):
            view(spec, lo - 1.0, 0.0)


def _floats_hex(values):
    assert all(type(x) is float for x in values)
    return [x.hex() for x in values]


@pytest.mark.parametrize("case,spec,u,width", SAMPLES, ids=[s[0] for s in SAMPLES])
def test_point_views_match_float_routes_bitwise(case, spec, u, width):
    """The per-point functions, 1-row views of the array routes, return the
    Python floats of the one-point float routes."""
    for uu in (u, u + 0.3 * width):
        for v in (0.0, -0.0, 0.7, -1.9):
            for got, want in ((frames(spec, uu, v), ref.frames(spec, uu, v)),
                              (position_jets(spec, uu, v),
                               ref.position_jets(spec, uu, v))):
                for name in got.__slots__:
                    assert (_floats_hex(getattr(got, name).components())
                            == _hex(getattr(want, name))), (uu, v, name)
        for got, want in ((geometric_functions(spec, uu),
                           ref.geometric_functions(spec, uu)),
                          (curvatures(spec, uu), ref.curvatures(spec, uu))):
            assert (_floats_hex(dataclasses.astuple(got))
                    == _floats_hex(dataclasses.astuple(want))), uu


@pytest.mark.parametrize("spec,u", [
    (spec_for("min-ell-i", interval=(0.1, 10.0)), 1.0),      # inadmissible
    (spec_for("pnmcv-ell", interval=(-1.0, 6.0)), 1.5),      # sqrt domain
    (spec_for("min-hyp-i", interval=(-1.0, 6.0)), -0.5),     # power law
    (spec_for("fnc-hyp-ii"), 1.5),                           # outside the span
], ids=["inadmissible", "sqrt-domain", "power-law-domain", "integrated-span"])
def test_point_views_raise_the_float_route_error(spec, u):
    """Each 1-row view raises the error of its one-point float route, type
    and text; position_jets needs only the meridian."""
    routes = [(frames, ref.frames, (u, 0.3)),
              (position_jets, ref.position_jets, (u, 0.3)),
              (geometric_functions, ref.geometric_functions, (u,)),
              (curvatures, ref.curvatures, (u,))]
    for view, route, args in routes:
        try:
            route(spec, *args)
        except GrsError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                view(spec, *args)
        else:
            view(spec, *args)
