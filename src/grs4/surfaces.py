"""Rotational-surface geometry: frames, fundamental forms, invariants.

Two surface kinds are supported.  The elliptic kind rotates the profile
curve (f(u), g(u)) circularly in the x1x2- and x3x4-planes with speeds
alpha, beta; the hyperbolic kind applies hyperbolic rotations in the
x1x3- and x2x4-planes.  At admissible points (E > 0, G < 0) the induced
metric is Lorentzian, the tangent frame {x, y} and normal frame {n1, n2}
are pseudo-orthonormal, and all invariants are rational expressions in
(f, f', f'', g, g', g'') evaluated from meridian jets, so no numerical
differentiation enters here.

Each formula is written once and takes floats or numpy arrays: the
per-point functions (geometric_functions, curvatures, frames, ...) and the
grid routes (invariant_grid over a u-grid, frames_grid, positions_grid and
_project_grid over a u x v grid) evaluate the same expressions in the same
order, with squares through pe4.pow2 and traces through shape_trace, so
both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GrsError, InadmissiblePointError, ParamError
from .meridians import MeridianFamily
from .pe4 import PEVector4, inner, pow2, sqrt

DEFAULT_ADMISSIBILITY_EPS = 1e-10


class SurfaceKind(Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class SurfaceSpec:
    kind: SurfaceKind
    alpha: float
    beta: float
    meridian: MeridianFamily

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ParamError("alpha must be positive and finite")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ParamError("beta must be positive and finite")


def surface_from_family(fam: MeridianFamily) -> SurfaceSpec:
    """SurfaceSpec matching the family's own kind and rotation speeds."""
    kind = SurfaceKind.ELLIPTIC if fam.kind == "elliptic" else SurfaceKind.HYPERBOLIC
    return SurfaceSpec(kind, fam.alpha, fam.beta, fam)


@dataclass(frozen=True, slots=True)
class PointJets:
    z: PEVector4
    z_u: PEVector4
    z_v: PEVector4
    z_uu: PEVector4
    z_uv: PEVector4
    z_vv: PEVector4


@dataclass(frozen=True, slots=True)
class FirstFundamental:
    E: float
    F: float
    G: float
    admissible: bool


@dataclass(frozen=True, slots=True)
class Frame:
    x: PEVector4
    y: PEVector4
    n1: PEVector4
    n2: PEVector4


@dataclass(frozen=True, slots=True)
class GeoFns:
    """The five nonzero geometric functions of a rotational surface."""

    nu1: float
    nu2: float
    mu: float
    gamma2: float
    beta2: float


@dataclass(frozen=True, slots=True)
class SecondFundamental:
    """Coefficient pairs of sigma along (n1, n2) on the frame basis."""

    xx: tuple
    xy: tuple
    yy: tuple


@dataclass(frozen=True, slots=True)
class Curvatures:
    K: float
    kappa: float
    h_coeff: float
    H_norm2: float


@dataclass(frozen=True)
class ShapeOperators:
    A1: np.ndarray
    A2: np.ndarray
    trA1A2: float
    allied_coeff: float


@dataclass(frozen=True, slots=True)
class InvariantRecord:
    u: float
    E: float
    F: float
    G: float
    nu1: float
    nu2: float
    mu: float
    gamma2: float
    beta2: float
    K: float
    kappa: float
    h_coeff: float
    H_norm2: float
    trA1A2: float
    admissible: bool


INVARIANT_COLUMNS = ("E", "F", "G", "nu1", "nu2", "mu", "gamma2", "beta2",
                     "K", "kappa", "h_coeff", "H_norm2", "trA1A2")


@dataclass(frozen=True)
class InvariantGrid:
    """invariant_record over a u-grid: one ndarray per field, row i at us[i].

    scalars holds the meridian columns (f, f', f'', g, g', g'', E, W) that
    the frame and projection routes reuse; they are NaN where the meridian
    raises, and the invariants are NaN where a row is not admissible.
    """

    us: np.ndarray
    admissible: np.ndarray
    scalars: tuple
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    mu: np.ndarray
    gamma2: np.ndarray
    beta2: np.ndarray
    K: np.ndarray
    kappa: np.ndarray
    h_coeff: np.ndarray
    H_norm2: np.ndarray
    trA1A2: np.ndarray

    def __len__(self) -> int:
        return len(self.us)

    def __getitem__(self, index) -> "InvariantGrid":
        """The rows picked by a slice or an index array, as a grid."""
        return InvariantGrid(self.us[index], self.admissible[index],
                             tuple(c[index] for c in self.scalars),
                             *(c[index] for c in self.columns()))

    def columns(self) -> tuple:
        """The INVARIANT_COLUMNS arrays, in that order."""
        return tuple(getattr(self, name) for name in INVARIANT_COLUMNS)


# ---------------------------------------------------------------------------
# Position jets and first fundamental form

def _rotation(spec: SurfaceSpec, v: float):
    """(cos, sin) of alpha*v and beta*v; cosh and sinh for the hyperbolic kind."""
    a, b = spec.alpha, spec.beta
    if spec.kind is SurfaceKind.ELLIPTIC:
        return math.cos(a * v), math.sin(a * v), math.cos(b * v), math.sin(b * v)
    return math.cosh(a * v), math.sinh(a * v), math.cosh(b * v), math.sinh(b * v)


def position_jets(spec: SurfaceSpec, u: float, v: float) -> PointJets:
    """All first and second partials of the immersion, analytically."""
    mj = spec.meridian.jet(u)
    return _jets_from(spec, mj.f.val, mj.f.d1, mj.f.d2, mj.g.val, mj.g.d1,
                      mj.g.d2, _rotation(spec, v))


def positions_grid(spec: SurfaceSpec, us, vs) -> PEVector4:
    """The immersion z over the grid us x vs, with (len(us), len(vs))
    components equal to position_jets(...).z to the bit.

    f and g are taken once per u and _rotation once per v.
    """
    fg = np.array([(mj.f.val, mj.g.val) for mj in map(spec.meridian.jet, us)])
    f, g = fg.reshape(-1, 2).T[:, :, None]
    rot = tuple(np.array([_rotation(spec, v) for v in vs]).reshape(-1, 4).T)
    return _position_from(spec, f, g, rot)


def _position_from(spec, f, g, rot) -> PEVector4:
    """z from the meridian values and rotations, floats or arrays."""
    ca, sa, cb, sb = rot
    if spec.kind is SurfaceKind.ELLIPTIC:
        return PEVector4(f * ca, f * sa, g * cb, g * sb)
    return PEVector4(f * ca, g * cb, f * sa, g * sb)


def _jets_from(spec, f, fp, fpp, g, gp, gpp, rot) -> PointJets:
    """Position jets from meridian scalars and rotations, floats or arrays."""
    a, b = spec.alpha, spec.beta
    ca, sa, cb, sb = rot
    z = _position_from(spec, f, g, rot)
    if spec.kind is SurfaceKind.ELLIPTIC:
        return PointJets(
            z=z,
            z_u=PEVector4(fp * ca, fp * sa, gp * cb, gp * sb),
            z_v=PEVector4(-a * f * sa, a * f * ca, -b * g * sb, b * g * cb),
            z_uu=PEVector4(fpp * ca, fpp * sa, gpp * cb, gpp * sb),
            z_uv=PEVector4(-a * fp * sa, a * fp * ca, -b * gp * sb, b * gp * cb),
            z_vv=PEVector4(-a * a * f * ca, -a * a * f * sa,
                           -b * b * g * cb, -b * b * g * sb))
    return PointJets(
        z=z,
        z_u=PEVector4(fp * ca, gp * cb, fp * sa, gp * sb),
        z_v=PEVector4(a * f * sa, b * g * sb, a * f * ca, b * g * cb),
        z_uu=PEVector4(fpp * ca, gpp * cb, fpp * sa, gpp * sb),
        z_uv=PEVector4(a * fp * sa, b * gp * sb, a * fp * ca, b * gp * cb),
        z_vv=PEVector4(a * a * f * ca, b * b * g * cb, a * a * f * sa,
                       b * b * g * sb))


def first_fundamental(spec: SurfaceSpec, u: float, v: float,
                      eps: float = DEFAULT_ADMISSIBILITY_EPS) -> FirstFundamental:
    """E, F, G by direct inner products, plus the admissibility flag."""
    E, F, G = _fundamental_from(position_jets(spec, u, v))
    return FirstFundamental(E, F, G, E > eps and G < -eps)


def _fundamental_from(pj: PointJets):
    """(E, F, G) as inner products of z_u and z_v, floats or arrays."""
    return (inner(pj.z_u, pj.z_u), inner(pj.z_u, pj.z_v),
            inner(pj.z_v, pj.z_v))


def _meridian_scalars(spec: SurfaceSpec, u: float):
    """(f, f', f'', g, g', g'', E, W) with W = -G, from meridian jets."""
    mj = spec.meridian.jet(u)
    f, fp, fpp = mj.f.val, mj.f.d1, mj.f.d2
    g, gp, gpp = mj.g.val, mj.g.d1, mj.g.d2
    a2, b2 = spec.alpha ** 2, spec.beta ** 2
    if spec.kind is SurfaceKind.ELLIPTIC:
        E = fp * fp - gp * gp
        W = b2 * g * g - a2 * f * f
    else:
        E = fp * fp + gp * gp
        W = a2 * f * f + b2 * g * g
    return f, fp, fpp, g, gp, gpp, E, W


def _require_admissible(spec, u, E, W, eps):
    if not (E > eps and W > eps):
        raise InadmissiblePointError(
            f"{spec.kind.value} surface inadmissible at u={u}: "
            f"E={E:.6g}, G={-W:.6g}")


def _admissible_scalars(spec: SurfaceSpec, u: float, eps: float):
    """_meridian_scalars at u; InadmissiblePointError unless E, W > eps."""
    s = _meridian_scalars(spec, u)
    _require_admissible(spec, u, s[6], s[7], eps)
    return s


def _frame_scalars(spec: SurfaceSpec, u: float, eps: float):
    """(f, f', f'', g, g', g'', 1/sqrt(E), 1/sqrt(W)) at an admissible u."""
    f, fp, fpp, g, gp, gpp, E, W = _admissible_scalars(spec, u, eps)
    return f, fp, fpp, g, gp, gpp, 1.0 / math.sqrt(E), 1.0 / math.sqrt(W)


def _meridian_columns(spec: SurfaceSpec, us):
    """(us as a float array, the eight _meridian_scalars as columns).

    The meridian is evaluated once per u, one point at a time with math, so
    the columns hold the very floats the per-point routes use; rows are NaN
    where it raises.
    """
    us = np.fromiter(us, dtype=float)
    rows = np.full((len(us), 8), math.nan)
    for i, u in enumerate(us.tolist()):
        try:
            rows[i] = _meridian_scalars(spec, u)
        except GrsError:
            pass
    return us, tuple(rows.T)


def _grid_inputs(spec: SurfaceSpec, us, vs, eps: float):
    """_frame_scalars per u as (nu, 1) columns and _rotation per v as (nv,) rows.

    us is a sequence of u or an InvariantGrid, whose meridian columns are
    reused.  Rotations are evaluated per v with math, like the meridian, and
    numpy only does the arithmetic (sqrt is correctly rounded in both).
    Raises the per-point route's error at the first inadmissible u.
    """
    if isinstance(us, InvariantGrid):
        us, scalars = us.us, us.scalars
    else:
        us, scalars = _meridian_columns(spec, us)
    f, fp, fpp, g, gp, gpp, E, W = scalars
    bad = ~((E > eps) & (W > eps))
    if bad.any():
        _frame_scalars(spec, float(us[bad.argmax()]), eps)   # raises
    cols = np.array((f, fp, fpp, g, gp, gpp, 1.0 / np.sqrt(E),
                     1.0 / np.sqrt(W)))
    rot = tuple(np.array([_rotation(spec, v) for v in vs]).T)
    return cols[:, :, None], rot


# ---------------------------------------------------------------------------
# Frames

def frames(spec: SurfaceSpec, u: float, v: float,
           eps: float = DEFAULT_ADMISSIBILITY_EPS) -> Frame:
    """Pseudo-orthonormal tangent and normal frames at an admissible point.

    <x,x> = <n1,n1> = 1 and <y,y> = <n2,n2> = -1 for both kinds; positive
    square roots are taken throughout, so the orientation follows the signs
    of f, g, f', g'.
    """
    return _frame_from(spec, _frame_scalars(spec, u, eps), _rotation(spec, v))


def frames_grid(spec: SurfaceSpec, us, vs,
                eps: float = DEFAULT_ADMISSIBILITY_EPS) -> Frame:
    """frames over the grid us x vs: a Frame of (len(us), len(vs)) arrays,
    equal to the per-point frames to the bit.  us may be an InvariantGrid,
    whose meridian columns are then reused."""
    return _frame_from(spec, *_grid_inputs(spec, us, vs, eps))


def _frame_from(spec, scalars, rot) -> Frame:
    """Frame from _frame_scalars and _rotation values, floats or arrays."""
    f, fp, _, g, gp, _, ie, iw = scalars
    a, b = spec.alpha, spec.beta
    ca, sa, cb, sb = rot
    # x = z_u / sqrt(E) and y = z_v / sqrt(W), with z_u, z_v as in position_jets
    if spec.kind is SurfaceKind.ELLIPTIC:
        return Frame(
            x=PEVector4(fp * ca * ie, fp * sa * ie, gp * cb * ie, gp * sb * ie),
            y=PEVector4(-a * f * sa * iw, a * f * ca * iw,
                        -b * g * sb * iw, b * g * cb * iw),
            n1=PEVector4(b * g * sa * iw, -b * g * ca * iw,
                         a * f * sb * iw, -a * f * cb * iw),
            n2=PEVector4(gp * ca * ie, gp * sa * ie, fp * cb * ie, fp * sb * ie))
    return Frame(
        x=PEVector4(fp * ca * ie, gp * cb * ie, fp * sa * ie, gp * sb * ie),
        y=PEVector4(a * f * sa * iw, b * g * sb * iw, a * f * ca * iw, b * g * cb * iw),
        n1=PEVector4(gp * ca * ie, -fp * cb * ie, gp * sa * ie, -fp * sb * ie),
        n2=PEVector4(b * g * sa * iw, -a * f * sb * iw,
                     b * g * ca * iw, -a * f * cb * iw))


# ---------------------------------------------------------------------------
# Geometric functions and second fundamental form

def geometric_functions(spec: SurfaceSpec, u: float,
                        eps: float = DEFAULT_ADMISSIBILITY_EPS) -> GeoFns:
    """nu1, nu2, mu, gamma2, beta2 at u (independent of v)."""
    return _geo_fns_from(spec, _admissible_scalars(spec, u, eps))


def _geo_fns_from(spec, scalars) -> GeoFns:
    """Geometric functions from _meridian_scalars values, floats or arrays."""
    f, fp, fpp, g, gp, gpp, E, W = scalars
    a2, b2 = spec.alpha ** 2, spec.beta ** 2
    ab = spec.alpha * spec.beta
    se = sqrt(E)
    sew = se * W
    if spec.kind is SurfaceKind.ELLIPTIC:
        return GeoFns(
            nu1=(gp * fpp - fp * gpp) / (E * se),
            nu2=(b2 * g * fp - a2 * f * gp) / sew,
            mu=ab * (f * gp - g * fp) / sew,
            gamma2=(a2 * f * fp - b2 * g * gp) / sew,
            beta2=ab * (f * fp - g * gp) / sew)
    return GeoFns(
        nu1=(fpp * gp - fp * gpp) / (E * se),
        nu2=(a2 * f * gp - b2 * g * fp) / sew,
        mu=ab * (f * gp - fp * g) / sew,
        gamma2=-(a2 * f * fp + b2 * g * gp) / sew,
        beta2=-ab * (f * fp + g * gp) / sew)


@dataclass(frozen=True, slots=True)
class _Projection:
    """Projection route at one (u, v), or over a grid with array components:
    position jets, frame and sigma."""

    pj: PointJets
    fr: Frame
    sf: SecondFundamental
    sigma: tuple         # sigma(x,x), sigma(x,y), sigma(y,y) as ambient vectors

    @property
    def H(self) -> PEVector4:
        """Mean curvature vector (sigma(x,x) - sigma(y,y)) / 2."""
        sxx, _, syy = self.sigma
        return (sxx - syy) * 0.5

    def shape_matrices(self):
        """A1, A2 with entry (k, j) = eps_k <sigma(e_j, e_k), n_i>, eps = (1, -1).

        Over a grid the matrices are stacked: shape grid + (2, 2).
        """
        sxx, sxy, syy = self.sigma
        return tuple(_matrices([[inner(sxx, n), inner(sxy, n)],
                                [-inner(sxy, n), -inner(syy, n)]])
                     for n in (self.fr.n1, self.fr.n2))


def _matrices(entries):
    """2x2 nested entries, floats or arrays, as one matrix or a stack of
    shape entry-shape + (2, 2).

    The stack is made C-contiguous: np.matmul then runs on it without the
    buffered copies a strided stack needs (about 0.6 MB of peak memory in
    a run of invariant tables), with the same result.
    """
    return np.ascontiguousarray(np.moveaxis(np.array(entries), (0, 1),
                                            (-2, -1)))


def _project(spec: SurfaceSpec, u: float, v: float,
             eps: float = DEFAULT_ADMISSIBILITY_EPS) -> _Projection:
    """Position jets and frame once at (u, v), and sigma from <z_ab, n_i>."""
    return _projection(spec, _frame_scalars(spec, u, eps), _rotation(spec, v))


def _project_grid(spec: SurfaceSpec, us, vs,
                  eps: float = DEFAULT_ADMISSIBILITY_EPS) -> _Projection:
    """The projection route over the grid us x vs, with (len(us), len(vs))
    array components equal to the per-point route to the bit.

    Meridian scalars are taken once per u, or from an InvariantGrid passed
    as us, and rotations once per v; raises the per-point error at the
    first inadmissible u.
    """
    return _projection(spec, *_grid_inputs(spec, us, vs, eps))


def _projection(spec, scalars, rot) -> _Projection:
    """Position jets, frame and sigma from <z_ab, n_i>, floats or arrays.

    With the normal frame pseudo-orthonormal, a normal vector w decomposes
    as <w,n1> n1 - <w,n2> n2.
    """
    f, fp, fpp, g, gp, gpp, _, _ = scalars
    pj = _jets_from(spec, f, fp, fpp, g, gp, gpp, rot)
    fr = _frame_from(spec, scalars, rot)
    E, _, G = _fundamental_from(pj)
    seg = sqrt(E) * sqrt(-G)

    def pair(w, denom):
        return (inner(w, fr.n1) / denom, -inner(w, fr.n2) / denom)

    sf = SecondFundamental(xx=pair(pj.z_uu, E), xy=pair(pj.z_uv, seg),
                           yy=pair(pj.z_vv, -G))
    sigma = tuple(fr.n1 * c1 + fr.n2 * c2 for c1, c2 in (sf.xx, sf.xy, sf.yy))
    return _Projection(pj, fr, sf, sigma)


def second_fundamental_projected(spec: SurfaceSpec, u: float, v: float,
                                 eps: float = DEFAULT_ADMISSIBILITY_EPS
                                 ) -> SecondFundamental:
    """Independent route: sigma coefficients from <z_ab, n_i> projections."""
    return _project(spec, u, v, eps).sf


def sigma_vectors(spec: SurfaceSpec, u: float, v: float,
                  eps: float = DEFAULT_ADMISSIBILITY_EPS):
    """sigma(x,x), sigma(x,y), sigma(y,y) as ambient vectors (projection route)."""
    return _project(spec, u, v, eps).sigma


def mean_curvature_vector(spec: SurfaceSpec, u: float, v: float,
                          eps: float = DEFAULT_ADMISSIBILITY_EPS) -> PEVector4:
    """H = (sigma(x,x) - sigma(y,y)) / 2, assembled from projections."""
    return _project(spec, u, v, eps).H


# ---------------------------------------------------------------------------
# Curvature invariants

def curvatures(spec: SurfaceSpec, u: float,
               eps: float = DEFAULT_ADMISSIBILITY_EPS) -> Curvatures:
    """Gauss curvature, normal-connection curvature, mean-curvature data.

    h_coeff is the coefficient of H along n2 (elliptic) or n1 (hyperbolic);
    H_norm2 is reported as -h_coeff**2 (see the quasi-minimal checks).
    """
    return _curvatures_from(spec, _admissible_scalars(spec, u, eps))


def _curvatures_from(spec, scalars) -> Curvatures:
    """Curvatures from _meridian_scalars values, floats or arrays."""
    f, fp, fpp, g, gp, gpp, E, W = scalars
    a2, b2 = spec.alpha ** 2, spec.beta ** 2
    ab = spec.alpha * spec.beta
    E2W2 = E * E * W * W
    if spec.kind is SurfaceKind.ELLIPTIC:
        K = (a2 * b2 * E * pow2(f * gp - fp * g)
             - W * (b2 * fp * g - a2 * f * gp) * (fp * gpp - fpp * gp)) / E2W2
        kappa = (-ab * (f * gp - g * fp)
                 * (W * (gp * fpp - fp * gpp) + E * (b2 * g * fp - a2 * f * gp))
                 ) / E2W2
        h = (E * (b2 * g * fp - a2 * f * gp) - W * (fpp * gp - fp * gpp)) \
            / (2.0 * E * sqrt(E) * W)
    else:
        K = -(a2 * b2 * pow2(f * gp - fp * g) * E
              + (a2 * f * gp - b2 * fp * g) * (fpp * gp - fp * gpp) * W) / E2W2
        kappa = (ab * (f * gp - fp * g)
                 * (W * (fpp * gp - fp * gpp) + E * (a2 * f * gp - b2 * g * fp))
                 ) / E2W2
        h = (E * (b2 * fp * g - a2 * f * gp) + W * (fpp * gp - fp * gpp)) \
            / (2.0 * E * sqrt(E) * W)
    return Curvatures(K=K, kappa=kappa, h_coeff=h, H_norm2=-h * h)


def mean_curvature_numerator(spec: SurfaceSpec, u: float) -> tuple[float, float]:
    """Numerator of the mean-curvature coefficient and its term scale.

    Defined at every meridian point, admissible or not (no square roots),
    so identities like 'this family has vanishing mean curvature wherever
    it is defined' can be checked on families with empty admissible domain.
    """
    f, fp, fpp, g, gp, gpp, E, W = _meridian_scalars(spec, u)
    a2, b2 = spec.alpha ** 2, spec.beta ** 2
    if spec.kind is SurfaceKind.ELLIPTIC:
        t1 = E * (b2 * g * fp - a2 * f * gp)
        t2 = -W * (fpp * gp - fp * gpp)
    else:
        t1 = E * (b2 * fp * g - a2 * f * gp)
        t2 = W * (fpp * gp - fp * gpp)
    return t1 + t2, abs(t1) + abs(t2) + 1.0


def shape_trace(A1, A2):
    """tr(A1 A2) over the last two axes, for one pair or stacked pairs.

    Kept as np.matmul: BLAS fuses the multiply-adds, so a hand-expanded
    a00*b00 + a01*b10 + ... rounds differently, while a stacked product
    rounds like the per-point one.
    """
    return np.trace(A1 @ A2, axis1=-2, axis2=-1)


def _shape_matrices(kind: SurfaceKind, gf: GeoFns):
    """A1, A2 from the geometric functions: one pair, or stacked pairs of
    shape (n, 2, 2) for columns of length n."""
    zero = np.zeros(np.shape(gf.mu))
    rot = _matrices([[zero, gf.mu], [-gf.mu, zero]])
    diag = _matrices([[gf.nu1, zero], [zero, -gf.nu2]])
    return (rot, diag) if kind is SurfaceKind.ELLIPTIC else (diag, rot)


def _shape_from(kind: SurfaceKind, gf: GeoFns, h: float) -> ShapeOperators:
    A1, A2 = _shape_matrices(kind, gf)
    tr = float(shape_trace(A1, A2))
    return ShapeOperators(A1=A1, A2=A2, trA1A2=tr, allied_coeff=0.5 * abs(h) * tr)


def shape_operators(spec: SurfaceSpec, u: float,
                    eps: float = DEFAULT_ADMISSIBILITY_EPS) -> ShapeOperators:
    """Shape operators of n1, n2 on the (x, y) basis, with <A_xi X, Y> = <sigma(X,Y), xi>."""
    gf = geometric_functions(spec, u, eps)
    return _shape_from(spec.kind, gf, curvatures(spec, u, eps).h_coeff)


def shape_operators_projected(spec: SurfaceSpec, u: float, v: float,
                              eps: float = DEFAULT_ADMISSIBILITY_EPS):
    """Oracle route: assemble A1, A2 from projected sigma vectors.

    Entry (k, j) of A_xi is eps_k * <sigma(e_j, e_k), xi> with eps = (1, -1)
    on the (x, y) basis.
    """
    return _project(spec, u, v, eps).shape_matrices()


def invariant_record(spec: SurfaceSpec, u: float,
                     eps: float = DEFAULT_ADMISSIBILITY_EPS) -> InvariantRecord:
    """Full invariant set at u, or an inadmissible marker record.

    First-fundamental coefficients are taken at v = 0; every field is
    independent of v by rotational symmetry.  A point is admissible when
    E > eps and -G > eps, the test geometric_functions and frames apply;
    an inadmissible record keeps E, F, G where the meridian is defined.
    """
    try:
        ff = first_fundamental(spec, u, 0.0, eps)
    except GrsError:
        return InvariantRecord(u, *(math.nan,) * 13, False)
    try:
        gf = geometric_functions(spec, u, eps)
    except InadmissiblePointError:
        return InvariantRecord(u, ff.E, ff.F, ff.G, *(math.nan,) * 10, False)
    cv = curvatures(spec, u, eps)
    tr = float(shape_trace(*_shape_matrices(spec.kind, gf)))
    return InvariantRecord(u, ff.E, ff.F, ff.G, gf.nu1, gf.nu2, gf.mu,
                           gf.gamma2, gf.beta2, cv.K, cv.kappa, cv.h_coeff,
                           cv.H_norm2, tr, True)


def invariant_grid(spec: SurfaceSpec, us,
                   eps: float = DEFAULT_ADMISSIBILITY_EPS) -> InvariantGrid:
    """invariant_record at every u of us, as columns equal to it to the bit.

    The meridian is evaluated once per u, with math as in the per-point
    route (its rows are NaN where it raises); every formula is the
    per-point one applied to the admissible rows as arrays.
    """
    us, scalars = _meridian_columns(spec, us)
    E, F, G = _fundamental_from(_jets_from(spec, *scalars[:6],
                                           _rotation(spec, 0.0)))
    ok = (scalars[6] > eps) & (scalars[7] > eps)
    adm = tuple(c[ok] for c in scalars)
    gf = _geo_fns_from(spec, adm)
    cv = _curvatures_from(spec, adm)
    tr = shape_trace(*_shape_matrices(spec.kind, gf))

    def column(values):
        out = np.full(len(us), math.nan)
        out[ok] = values
        return out

    return InvariantGrid(us, ok, scalars, E, F, G,
                         *(column(c) for c in (gf.nu1, gf.nu2, gf.mu,
                                               gf.gamma2, gf.beta2, cv.K,
                                               cv.kappa, cv.h_coeff,
                                               cv.H_norm2, tr)))
