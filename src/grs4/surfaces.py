"""Rotational-surface geometry: frames, fundamental forms, invariants.

Two surface kinds are supported, written as one family through the
signature sign eps.  The elliptic kind (eps = +1) rotates the profile
curve (f(u), g(u)) circularly in the x1x2- and x3x4-planes with speeds
alpha, beta; the hyperbolic kind (eps = -1) applies hyperbolic rotations
in the x1x3- and x2x4-planes, that is, the elliptic formulas with cosh,
sinh in place of cos, sin and with x2 and x3 exchanged.  Then

    E = f'^2 - eps g'^2,    -G = W = beta^2 g^2 - eps alpha^2 f^2,

and the mean curvature vector lies along n2 (elliptic) or n1 (hyperbolic).
At admissible points (E > 0, G < 0) the induced metric is Lorentzian, the
tangent frame {x, y} and normal frame {n1, n2} are pseudo-orthonormal, and
all invariants are rational expressions in (f, f', f'', g, g', g'')
evaluated from meridian jets, so no numerical differentiation enters here.

Each vector is one of two formulas: _position_from, the profile pair
rotated (z, z_u, z_uu, z_vv, the carrier normal), or its v-derivative
(z_v, z_uv).  The frame is x = z_u / sqrt(E), y = z_v / sqrt(W), and
_invariants_from takes the meridian's shared factors once for all.

Each formula is written once and evaluated on arrays, the meridian from
one jet_columns pass: over a u-grid (invariant_grid, which computes every
row and then blanks the inadmissible ones), a u x v grid (positions_grid)
or rows stacked from several surfaces of one kind, alpha and beta then
columns (SpecRows).  The per-point functions (position_jets, frames,
geometric_functions, curvatures, invariant_record) are views of a one-row
invariant_grid (_point_row) that return Python floats.
Squares go through pe4.pow2 and traces through shape_trace, so each element
has the bits of the float formula at its point.  eps stands where the
elliptic formula has a minus sign, so both kinds keep the bits of their own
formulas; a few triple products keep a per-kind association (prod3).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import GrsError, InadmissiblePointError, ParamError
from .meridians import MeridianFamily
from .pe4 import PEVector4, SurfaceKind, inner, pow2, sqrt

ADMISSIBILITY_EPS = 1e-10


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

    @property
    def squares(self):
        """(alpha^2, beta^2), rounded as Python's ** rounds them."""
        return self.alpha ** 2, self.beta ** 2


# The kind and rotation speeds of rows stacked from surfaces of one kind:
# alpha, beta and squares as columns where a SurfaceSpec holds floats.  The
# formula functions take either, so each row keeps its surface's bits.
SpecRows = namedtuple("SpecRows", "kind alpha beta squares")


def spec_rows(specs, counts, ndim: int = 1) -> SpecRows:
    """SpecRows of specs (all of one kind), specs[i] over counts[i]
    consecutive rows, its columns of ndim axes (the rows on the first)."""
    def column(values):
        return np.repeat(values, counts).reshape((-1,) + (1,) * (ndim - 1))
    a2, b2 = zip(*(spec.squares for spec in specs))
    return SpecRows(specs[0].kind, column([spec.alpha for spec in specs]),
                    column([spec.beta for spec in specs]),
                    (column(a2), column(b2)))


def surface_from_family(fam: MeridianFamily) -> SurfaceSpec:
    """SurfaceSpec matching the family's own kind and rotation speeds."""
    return SurfaceSpec(fam.kind, fam.alpha, fam.beta, fam)


@dataclass(frozen=True, slots=True)
class PointJets:
    z: PEVector4
    z_u: PEVector4
    z_v: PEVector4
    z_uu: PEVector4
    z_uv: PEVector4
    z_vv: PEVector4


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
    """The InvariantRecord fields over a u-grid: one ndarray per field, row
    i at us[i].

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

def _rotations(spec: SurfaceSpec, vs):
    """(cos, sin) of alpha*v and beta*v at each v of vs (SpecRows: a speed
    per v), cosh and sinh for the hyperbolic kind, as four float arrays of
    its shape: math at each element, so each has the bits of the float
    formula.  A rotation past the float range is a ParamError naming the
    largest |v|, which has one.
    """
    vs = np.asarray(vs, dtype=float)
    flat = vs.ravel().tolist()
    speeds = [np.broadcast_to(s, vs.shape).ravel().tolist()
              for s in (spec.alpha, spec.beta)]
    try:
        return tuple(np.fromiter(map(fn, map(mul, s, flat)), float,
                                 len(flat)).reshape(vs.shape)
                     for s in speeds for fn in (spec.kind.cos, spec.kind.sin))
    except (OverflowError, ValueError):
        v = float(vs.flat[np.nanargmax(abs(vs))])
        raise ParamError(f"{spec.kind.value} rotation past the float range "
                         f"at v={v}") from None


def position_jets(spec: SurfaceSpec, u: float, v: float) -> PointJets:
    """All first and second partials of the immersion at (u, v),
    analytically; the meridian's error where it is undefined at u."""
    return _float_row(_jets_from(spec, _point_row(spec, u, False).scalars,
                                 _rotations(spec, v)))


def _float_row(obj):
    """A Frame or PointJets of one point, its components as Python floats."""
    return type(obj)(*(PEVector4(*(float(np.ravel(c)[0])
                                   for c in getattr(obj, name).components()))
                       for name in obj.__slots__))


# past the float range the grids overflow silently, as floats do
@np.errstate(all="ignore")
def positions_grid(spec: SurfaceSpec, us, vs) -> PEVector4:
    """The immersion z over the grid us x vs, with (len(us), len(vs))
    components equal to position_jets(...).z to the bit.

    f and g come from one jet_columns pass over us (per u through jet for
    a meridian that is not a MeridianFamily and defines only jet(u)), and
    the rotations from _rotations over vs.  Raises the per-point error at
    the first u where the meridian is undefined.
    """
    meridian = spec.meridian
    if isinstance(meridian, MeridianFamily):
        us = np.fromiter(us, dtype=float)
        ok, f, _, _, g, _, _ = meridian.jet_columns(us)
        if not ok.all():
            meridian.jet(float(us[ok.argmin()]))   # raises
    else:
        fg = np.array([(mj.f.val, mj.g.val) for mj in map(meridian.jet, us)])
        f, g = fg.reshape(-1, 2).T
    return _position_from(spec, f[:, None], g[:, None], _rotations(spec, vs))


def _position_from(spec, f, g, rot) -> PEVector4:
    """The profile pair (f, g) rotated by _rotations values, floats or
    arrays: z from (f, g), z_u from (f', g'), z_uu from (f'', g''), z_vv
    from (-eps alpha^2 f, -eps beta^2 g)."""
    ca, sa, cb, sb = rot
    return spec.kind.vec(f * ca, f * sa, g * cb, g * sb)


def _position_v_from(spec, f, g, rot) -> PEVector4:
    """d/dv of _position_from: z_v from (f, g), z_uv from (f', g').  d/dv
    cos(a v) = -a sin(a v), d/dv cosh(a v) = a sinh(a v): the factor -eps a."""
    a, b, e = spec.alpha, spec.beta, spec.kind.eps
    ca, sa, cb, sb = rot
    return spec.kind.vec(-e * a * f * sa, a * f * ca, -e * b * g * sb, b * g * cb)


def _tangents_from(spec, scalars, rot):
    """(z_u, z_v) from meridian columns (_scalars_from or _frame_inputs
    values) and rotations, floats or arrays."""
    f, fp, _, g, gp = scalars[:5]
    return _position_from(spec, fp, gp, rot), _position_v_from(spec, f, g, rot)


def _jets_from(spec, scalars, rot) -> PointJets:
    """Position jets from meridian columns and rotations, floats or arrays."""
    f, fp, fpp, g, gp, gpp = scalars[:6]
    a, b, e = spec.alpha, spec.beta, spec.kind.eps
    return PointJets(
        _position_from(spec, f, g, rot), *_tangents_from(spec, scalars, rot),
        z_uu=_position_from(spec, fpp, gpp, rot),
        z_uv=_position_v_from(spec, fp, gp, rot),
        z_vv=_position_from(spec, -e * a * a * f, -e * b * b * g, rot))


def _fundamental_from(z_u, z_v):
    """(E, F, G) as inner products of z_u and z_v, floats or arrays."""
    return inner(z_u, z_u), inner(z_u, z_v), inner(z_v, z_v)


def _scalars_from(spec, f, fp, fpp, g, gp, gpp):
    """The meridian values with E and W appended, floats or arrays."""
    (a2, b2), e = spec.squares, spec.kind.eps
    E = fp * fp - e * gp * gp
    W = b2 * g * g - e * a2 * f * f
    return f, fp, fpp, g, gp, gpp, E, W


def _meridian_columns(spec: SurfaceSpec, us):
    """(us as a float array, (f, f', f'', g, g', g'', E, W) with W = -G as
    arrays of its shape) from one jet_columns pass: the floats of jet(u),
    NaN where it raises."""
    us = np.asarray(us, dtype=float)
    _, *jets = spec.meridian.jet_columns(us.ravel())
    return us, _scalars_from(spec, *(c.reshape(us.shape) for c in jets))


def _admissible(scalars):
    """Where E and W = -G (_scalars_from) are finite above ADMISSIBILITY_EPS."""
    E, W, eps = scalars[6], scalars[7], ADMISSIBILITY_EPS
    return (eps < E) & (E < math.inf) & (eps < W) & (W < math.inf)


def _inadmissible(spec: SurfaceSpec, us, scalars):
    """(flat index, error) at the first u of us, in C order, that is not
    _admissible: jet(u)'s error where it raises, else
    InadmissiblePointError; None if there is none."""
    E, W = scalars[6], scalars[7]
    bad = ~_admissible(scalars)
    if not bad.any():
        return None
    i = int(bad.argmax())
    u = float(us.flat[i])
    try:
        spec.meridian.jet(u)
    except GrsError as exc:
        return i, exc
    return i, InadmissiblePointError(
        f"{spec.kind.value} surface inadmissible at u={u}: "
        f"E={float(E.flat[i]):.6g}, G={-float(W.flat[i]):.6g}")


def _frame_inputs(scalars):
    """(f, f', f'', g, g', g'', 1/sqrt(E), 1/sqrt(W)) for _frame_from."""
    return (*scalars[:6], 1.0 / np.sqrt(scalars[6]), 1.0 / np.sqrt(scalars[7]))


# ---------------------------------------------------------------------------
# Frames

def frames(spec: SurfaceSpec, u: float, v: float) -> Frame:
    """Pseudo-orthonormal tangent and normal frames at an admissible point.

    <x,x> = <n1,n1> = 1 and <y,y> = <n2,n2> = -1 for both kinds; positive
    square roots are taken throughout, so the orientation follows the signs
    of f, g, f', g'.
    """
    scalars, rot = _frame_inputs(_point_row(spec, u).scalars), _rotations(spec, v)
    return _float_row(_frame_from(spec, scalars, rot,
                                  *_tangents_from(spec, scalars, rot)))


def _frame_from(spec, scalars, rot, z_u, z_v) -> Frame:
    """Frame from _frame_inputs and _rotations values and the tangents
    there, floats or arrays: x = z_u / sqrt(E), y = z_v / sqrt(W), the
    normal carrying H the pair (g', eps f') rotated over sqrt(E), and the
    one off it built from the rotation speeds."""
    f, fp, _, g, gp, _, ie, iw = scalars
    a, b, e = spec.alpha, spec.beta, spec.kind.eps
    ca, sa, cb, sb = rot
    off = spec.kind.vec(b * g * sa * iw, -e * b * g * ca * iw,
                        e * a * f * sb * iw, -a * f * cb * iw)
    n1, n2 = spec.kind.normals(off, _position_from(spec, gp, e * fp, rot) * ie)
    return Frame(z_u * ie, z_v * iw, n1, n2)


# ---------------------------------------------------------------------------
# Geometric functions and second fundamental form

def geometric_functions(spec: SurfaceSpec, u: float) -> GeoFns:
    """nu1, nu2, mu, gamma2, beta2 at an admissible u (independent of v)."""
    return _row_floats(GeoFns, _point_row(spec, u))


@dataclass(frozen=True, slots=True)
class _Projection:
    """Projection route at one (u, v), or over a grid with array components:
    position jets, frame, first fundamental form and sigma."""

    pj: PointJets
    fr: Frame
    fundamental: tuple   # E, F, G
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
        return tuple(_matrices(inner(sxx, n), inner(sxy, n),
                               -inner(sxy, n), -inner(syy, n))
                     for n in (self.fr.n1, self.fr.n2))


def _matrices(a, b, c, d):
    """[[a, b], [c, d]] of floats or arrays, as one matrix or a stack of
    shape entry-shape + (2, 2), written in place into a zero-initialised
    C-contiguous array.

    np.matmul runs on a C-contiguous stack without the buffered copies a
    strided stack needs (about 0.6 MB of peak memory in a run of invariant
    tables), with the same result.
    """
    out = np.zeros(np.broadcast(a, b, c, d).shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _projection(spec, scalars, rot) -> _Projection:
    """Independent route from _frame_inputs and _rotations values, floats
    or arrays: position jets once, the frame and E, F, G from their
    tangents, sigma from <z_ab, n_i>, and H and the shape operators
    assembled from it.

    With the normal frame pseudo-orthonormal, a normal vector w decomposes
    as <w,n1> n1 - <w,n2> n2.
    """
    pj = _jets_from(spec, scalars, rot)
    fr = _frame_from(spec, scalars, rot, pj.z_u, pj.z_v)
    E, F, G = _fundamental_from(pj.z_u, pj.z_v)
    seg = sqrt(E) * sqrt(-G)

    def pair(w, denom):
        return (inner(w, fr.n1) / denom, -inner(w, fr.n2) / denom)

    sf = SecondFundamental(xx=pair(pj.z_uu, E), xy=pair(pj.z_uv, seg),
                           yy=pair(pj.z_vv, -G))
    sigma = tuple(fr.n1 * c1 + fr.n2 * c2 for c1, c2 in (sf.xx, sf.xy, sf.yy))
    return _Projection(pj, fr, (E, F, G), sf, sigma)


# ---------------------------------------------------------------------------
# Curvature invariants

def curvatures(spec: SurfaceSpec, u: float) -> Curvatures:
    """Gauss curvature, normal-connection curvature, mean-curvature data.

    h_coeff is the coefficient of H along its carrier normal, n2
    (elliptic) or n1 (hyperbolic); H_norm2 is reported as -h_coeff**2 (see
    the quasi-minimal checks).
    """
    return _row_floats(Curvatures, _point_row(spec, u))


def _h_terms(spec, f, fp, fpp, g, gp, gpp, E, W):
    """(t1, t2) with h_coeff = (t1 + t2) / (2 E^(3/2) W), floats or arrays."""
    (a2, b2), e = spec.squares, spec.kind.eps
    # b2 g f': associated per kind for the pinned bytes
    t1 = E * (spec.kind.prod3(g, b2, fp) - a2 * f * gp)
    t2 = -e * W * (fpp * gp - fp * gpp)
    return t1, t2


def _invariants_from(spec, scalars):
    """(GeoFns, Curvatures) from _meridian_columns values, floats or arrays,
    the factors m = f g' - g f', n1 = g' f'' - f' g'', n2 = eps beta^2 g f'
    - eps alpha^2 f g' and sqrt(E) each taken once.

    eps multiplies both operands of a difference, or a whole term, never
    one operand of a negated difference: -(x - y) and y - x differ in the
    sign of a zero.  K's eps (eps f' g'' - eps f'' g') is -n1 up to the
    sign of a zero term, added to E alpha^2 beta^2 m^2 >= 0 where E > 0.
    """
    f, fp, fpp, g, gp, gpp, E, W = scalars
    (a2, b2), e = spec.squares, spec.kind.eps
    ab = spec.alpha * spec.beta
    prod3 = spec.kind.prod3
    m = f * gp - g * fp
    n1 = gp * fpp - fp * gpp
    n2 = e * b2 * g * fp - e * a2 * f * gp
    se = sqrt(E)
    sew = se * W
    E2W2 = E * E * W * W
    # n2 with (b2 f') g, and both triple products per kind, for the pinned bytes
    X = e * b2 * fp * g - e * a2 * f * gp
    K = e * (prod3(E, a2 * b2, pow2(m)) + prod3(W, X, n1)) / E2W2
    t1, t2 = _h_terms(spec, *scalars)
    h = (t1 + t2) / (2.0 * E * se * W)
    return (GeoFns(nu1=n1 / (E * se), nu2=n2 / sew, mu=ab * m / sew,
                   gamma2=e * (a2 * f * fp - e * b2 * g * gp) / sew,
                   beta2=e * ab * (f * fp - e * g * gp) / sew),
            Curvatures(K=K, kappa=-e * ab * m * (W * n1 + E * n2) / E2W2,
                       h_coeff=h, H_norm2=-h * h))


def shape_trace(A1, A2):
    """tr(A1 A2) over the last two axes, for one pair or stacked pairs.

    Kept as np.matmul: BLAS fuses the multiply-adds, so a hand-expanded
    a00*b00 + a01*b10 + ... rounds differently, while a stacked product
    rounds like the per-point one.
    """
    return np.trace(A1 @ A2, axis1=-2, axis2=-1)


def _shape_matrices(kind: SurfaceKind, gf):
    """A1, A2 from the geometric functions (the nu1, nu2, mu of a GeoFns or
    an InvariantRecord): one pair, or stacked pairs of
    shape (n, 2, 2) for columns of length n.  The carrier normal of H has
    the diagonal operator, the other one the rotation."""
    rot = _matrices(0.0, gf.mu, -gf.mu, 0.0)
    diag = _matrices(gf.nu1, 0.0, 0.0, -gf.nu2)
    return kind.normals(rot, diag)


def invariant_record(spec: SurfaceSpec, u: float) -> InvariantRecord:
    """Full invariant set at u: row 0 of invariant_grid(spec, [u])."""
    grid = invariant_grid(spec, [u])
    return InvariantRecord(u, *(float(c[0]) for c in grid.columns()),
                           bool(grid.admissible[0]))


def _point_row(spec: SurfaceSpec, u: float, admissible: bool = True) -> InvariantGrid:
    """invariant_grid(spec, [u]), the row of the per-point views: raises the
    _inadmissible error at u, where u is not admissible or, with admissible
    False, only where the meridian raises."""
    grid = invariant_grid(spec, [u])
    bad = _inadmissible(spec, grid.us, grid.scalars)
    if bad and (admissible or not isinstance(bad[1], InadmissiblePointError)):
        raise bad[1]
    return grid


def _row_floats(view, grid):
    """view (GeoFns, Curvatures) of the grid's row 0, as Python floats."""
    return view(*(float(getattr(grid, name)[0]) for name in view.__slots__))


@np.errstate(all="ignore")
def invariant_grid(spec: SurfaceSpec, us) -> InvariantGrid:
    """The full invariant set at every u of us, as columns.

    The meridian is evaluated once per u (rows NaN where it raises), and
    then every formula once over every row: each is elementwise, so an
    admissible row (E and -G finite above ADMISSIBILITY_EPS) has the bits
    of its own float route whatever the other rows hold.  The ten columns
    after E, F, G are then blanked to NaN on the inadmissible rows; E, F, G
    stay wherever the meridian is defined.  E, F, G are taken at v = 0 from
    z_u and z_v; every field is independent of v by rotational symmetry.
    """
    return _invariant_rows(spec, *_meridian_columns(spec, us))


def _invariant_rows(spec, us, scalars) -> InvariantGrid:
    """invariant_grid from _meridian_columns values; spec may be SpecRows."""
    gf, cv = _invariants_from(spec, scalars)
    table = np.array((
        # the rotations at v = 0, whatever alpha and beta > 0
        *_fundamental_from(*_tangents_from(spec, scalars, (1.0, 0.0, 1.0, 0.0))),
        gf.nu1, gf.nu2, gf.mu, gf.gamma2, gf.beta2, cv.K, cv.kappa,
        cv.h_coeff, cv.H_norm2, shape_trace(*_shape_matrices(spec.kind, gf))))
    ok = _admissible(scalars)
    table[3:, ~ok] = math.nan
    return InvariantGrid(us, ok, scalars, *table)
