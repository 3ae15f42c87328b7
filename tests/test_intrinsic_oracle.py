"""Symbolic oracle for E, F, G, K and <H,H>, derived with sympy from the
immersion z(u, v) alone.

For each kind, z is written with f and g as undefined functions of u.  E,
F, G are inner products of its partials; K = R_1212 / (EG - F^2) comes from
the Christoffel symbols of the metric alone; H = (z_uu^perp / E +
z_vv^perp / G) / 2, where ^perp removes the z_u and z_v components using E
and G only (F = 0 on these surfaces).  The meridian's 2-jet is substituted
and the expressions are lambdified without simplification, so nothing here
passes through the frames, jets or geometric functions of grs4.surfaces.

Sign convention: R^l_ijk = d_j Gamma^l_ik - d_k Gamma^l_ij + Gamma^l_jm
Gamma^m_ik - Gamma^l_km Gamma^m_ij and R_1212 = g_1l R^l_212, which gives
K = +1 on the unit sphere (checked below).  With it, K equals the Gauss
curvature of grs4 for both kinds.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from grs4.meridians import build_family, classified_case_ids, descriptor_from_catalog
from grs4.surfaces import SurfaceKind, invariant_grid, surface_from_family
from grs4.verifier import admissible_domain

# Gaps are relative with floor 1, as the verifier's dual routes take them.
# The largest over these cases, measured on the code before the surface
# kinds were merged into one sign, was 2.2e-14 (K on flat-ell-i); the
# tolerance leaves a factor of about 45.
REL_TOL = 1e-12

u, v, al, be = sympy.symbols("u v alpha beta", real=True)
f, g = sympy.Function("f")(u), sympy.Function("g")(u)
JET = sympy.symbols("f0 f1 f2 g0 g1 g2", real=True)


def _metric_inner(a, b):
    return a[0] * b[0] + a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def _immersion(kind):
    if kind is SurfaceKind.ELLIPTIC:
        return (f * sympy.cos(al * v), f * sympy.sin(al * v),
                g * sympy.cos(be * v), g * sympy.sin(be * v))
    return (f * sympy.cosh(al * v), g * sympy.cosh(be * v),
            f * sympy.sinh(al * v), g * sympy.sinh(be * v))


def _gauss_curvature(metric, coords):
    """R_1212 / det(metric) from the metric alone, in the convention of the
    module docstring."""
    det = metric[0, 0] * metric[1, 1] - metric[0, 1] * metric[1, 0]
    ginv = sympy.Matrix([[metric[1, 1], -metric[0, 1]],
                         [-metric[1, 0], metric[0, 0]]]) / det
    n = len(coords)

    def christoffel(l, i, j):
        return sum(ginv[l, k] * (sympy.diff(metric[k, i], coords[j])
                                 + sympy.diff(metric[k, j], coords[i])
                                 - sympy.diff(metric[i, j], coords[k]))
                   for k in range(n)) / 2

    gam = [[[christoffel(l, i, j) for j in range(n)] for i in range(n)]
           for l in range(n)]

    def riemann(l, i, j, k):
        return (sympy.diff(gam[l][i][k], coords[j])
                - sympy.diff(gam[l][i][j], coords[k])
                + sum(gam[l][j][m] * gam[m][i][k]
                      - gam[l][k][m] * gam[m][i][j] for m in range(n)))

    r1212 = sum(metric[0, l] * riemann(l, 1, 0, 1) for l in range(n))
    return r1212 / det


def test_sign_convention_gives_the_unit_sphere_plus_one():
    th, ph = sympy.symbols("theta phi", real=True)
    sphere = sympy.Matrix([[1, 0], [0, sympy.sin(th) ** 2]])
    K = _gauss_curvature(sphere, (th, ph))
    assert sympy.lambdify((th, ph), K)(0.7, 0.3) == pytest.approx(1.0, rel=1e-14)


def _to_jet(expr):
    """expr with f, f', f'', g, g', g'' replaced by the JET symbols."""
    subs = {}
    for fn, syms in ((f, JET[:3]), (g, JET[3:])):
        subs.update({fn: syms[0], sympy.diff(fn, u): syms[1],
                     sympy.diff(fn, u, 2): syms[2]})
    return expr.xreplace(subs)


def _oracle(kind):
    """Lambdified (E, F, G, K, <H,H>) of (alpha, beta, v, 2-jet)."""
    z = _immersion(kind)
    zu = [sympy.diff(c, u) for c in z]
    zv = [sympy.diff(c, v) for c in z]
    E, F, G = (_metric_inner(zu, zu), _metric_inner(zu, zv),
               _metric_inner(zv, zv))
    K = _gauss_curvature(sympy.Matrix([[E, F], [F, G]]), (u, v))

    def perp(w):
        return [wc - _metric_inner(w, zu) / E * a - _metric_inner(w, zv) / G * b
                for wc, a, b in zip(w, zu, zv)]

    zuu = perp([sympy.diff(c, u, 2) for c in z])
    zvv = perp([sympy.diff(c, v, 2) for c in z])
    H = [(a / E + b / G) / 2 for a, b in zip(zuu, zvv)]
    exprs = [_to_jet(x) for x in (E, F, G, K, _metric_inner(H, H))]
    return sympy.lambdify((al, be, v) + JET, exprs, modules="math")


_ORACLES = {}


def _oracle_for(kind):
    if kind not in _ORACLES:
        _ORACLES[kind] = _oracle(kind)
    return _ORACLES[kind]


def _gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


CASES = [(case, None) for case in classified_case_ids()] + [
    ("custom", {"f": "sin(u)+2", "g": "3*cosh(u)", "kind": "elliptic"}),
    ("custom", {"f": "u**2+1", "g": "exp(u/2)", "kind": "hyperbolic"}),
]


@pytest.mark.parametrize("case,params", CASES,
                         ids=[c if p is None else f"custom-{p['kind']}"
                              for c, p in CASES])
def test_invariant_grid_matches_the_intrinsic_oracle(case, params):
    kw = {}
    if case == "custom":
        kw = {"alpha": 0.7, "beta": 1.6, "interval": (-1.0, 1.5)}
    desc = descriptor_from_catalog(case, params, **kw)
    spec = surface_from_family(build_family(desc))
    oracle = _oracle_for(spec.kind)
    rng = random.Random(f"oracle {case} {params}")
    ivs = admissible_domain(spec, *desc.interval, 200)
    if ivs:
        us = [rng.uniform(a + 0.01 * (b - a), b - 0.01 * (b - a))
              for a, b in (rng.choice(ivs) for _ in range(12))]
    else:
        # empty admissible domain: E, F, G are still defined
        us = [rng.uniform(*desc.interval) for _ in range(12)]
    grid = invariant_grid(spec, us)
    assert grid.admissible.all() == bool(ivs)
    for i, uu in enumerate(us):
        mj = spec.meridian.jet(uu)
        jet = (mj.f.val, mj.f.d1, mj.f.d2, mj.g.val, mj.g.d1, mj.g.d2)
        vv = rng.uniform(-1.0, 1.0)
        E, F, G, K, HH = oracle(spec.alpha, spec.beta, vv, *jet)
        assert _gap(grid.E[i], E) <= REL_TOL, (uu, "E")
        assert _gap(grid.F[i], F) <= REL_TOL, (uu, "F")
        assert _gap(grid.G[i], G) <= REL_TOL, (uu, "G")
        if not ivs:
            continue
        assert _gap(grid.K[i], K) <= REL_TOL, (uu, "K")
        assert _gap(grid.h_coeff[i] ** 2, abs(HH)) <= REL_TOL, (uu, "<H,H>")
