"""Independent oracles and per-family verification suites.

Every check reduces to a max residual against a pinned tolerance.  The
implementation side always comes from analytic jets and closed formulas;
the oracle side is a genuinely different route: central finite differences
of frame fields, inner products of projected second-fundamental vectors,
or the defining algebraic relation of a family.  Results are reproducible
bit-for-bit for a fixed configuration.

A suite calls each job's stage 1 in order (family, one meridian pass over
the domain scan and the grid and FD stencil of its interval); each job then
waits in its surface kind's run, and check_points finishes a run (at most
_STACK_ROWS grid rows) in one invariant pass, one rotation, one projection
and one frame pass over all its jobs.  verify_family is the run of one.
A suite's random-point sweep is random rows of the jobs' own grids, drawn
at stage 1 and evaluated in the same run; the scan bisects all brackets in
lockstep; cross_check is the bundle's dual routes on a one-row grid.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (ConfigError, DomainError, InadmissiblePointError,
                     ParamError, StepError)
from .meridians import (FAMILY_CATALOG, build_family,
                        descriptor_from_catalog, classified_case_ids)
from .pe4 import inner, pow2
from .surfaces import (SpecRows, SurfaceKind, SurfaceSpec, shape_trace,
                       spec_rows, surface_from_family, _admissible,
                       _frame_from, _frame_inputs, _fundamental_from,
                       _geo_fns_from, _h_terms, _inadmissible, _invariant_rows,
                       _meridian_columns, _point_row, _projection, _rotations,
                       _scalars_from)

DEFAULT_TOLS = {
    "closed": 1e-9,      # property residuals on closed-form families
    "ode": 1e-6,         # property residuals on integrated families
    "algebraic": 1e-12,  # identities that hold to rounding
    "cross": 1e-11,      # dual-route relative agreement
    "fd": 1e-6,          # finite-difference oracle residuals at h = 1e-4
    "pnmcv_h": 1e-10,    # mean-curvature value checks for pnmcv cases
    "vindep": 1e-10,     # spread across the v-grid
}
FD_H = 1e-4
ELLIPTIC_V_RANGE = (0.0, 2.0 * math.pi)
HYPERBOLIC_V_RANGE = (-3.0, 3.0)
# per kind: the default v-range, whether its end point is sampled (one full
# turn of the elliptic rotation repeats v = 0), and the v of the checks
# taken at a single v
_V_SAMPLING = {SurfaceKind.ELLIPTIC: (ELLIPTIC_V_RANGE, False, 0.7),
               SurfaceKind.HYPERBOLIC: (HYPERBOLIC_V_RANGE, True, 0.4)}


# ---------------------------------------------------------------------------
# Result containers

@dataclass
class CheckResult:
    name: str
    grid: str
    max_residual: float
    tolerance: float
    passed: bool
    vacuous: bool = False
    notes: str = ""

    @property
    def margin(self) -> float | None:
        """max_residual / tolerance; None for vacuous and zero-tolerance checks."""
        if self.vacuous or not self.tolerance > 0.0:
            return None
        return self.max_residual / self.tolerance

    def to_json(self) -> dict:
        notes = "; ".join(s for s in (self.grid, self.notes) if s)
        return {"name": self.name,
                "max_residual": float(self.max_residual),
                "tolerance": float(self.tolerance),
                "pass": bool(self.passed),
                "vacuous": bool(self.vacuous),
                "notes": notes}


@dataclass
class FamilyReport:
    family: str
    params: dict
    alpha: float
    beta: float
    grid: dict
    checks: list
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.vacuous)

    @property
    def vacuous_checks(self) -> list:
        return [c for c in self.checks if c.vacuous]

    @property
    def tightest(self) -> CheckResult | None:
        """The check with the largest margin (a NaN margin counts as largest)."""
        rated = [c for c in self.checks if c.margin is not None]
        if not rated:
            return None
        return max(rated, key=lambda c: math.inf if math.isnan(c.margin)
                   else c.margin)

    def to_json(self) -> dict:
        return {"family": self.family,
                "params": self.params,
                "alpha": self.alpha,
                "beta": self.beta,
                "grid": self.grid,
                "checks": [c.to_json() for c in self.checks],
                "pass": self.passed,
                "runtime_s": self.runtime_s}


@dataclass
class SuiteReport:
    seed: int
    jobs: list          # (label, expect, FamilyReport)
    sweeps: list        # CheckResults
    runtime_s: float = 0.0

    def _satisfied(self) -> list:
        """(label, expect, report, whether the report meets expect) per job."""
        return [(label, expect, rep, rep.passed != (expect == "fail"))
                for label, expect, rep in self.jobs]

    @property
    def passed(self) -> bool:
        return (all(c.passed for c in self.sweeps if not c.vacuous)
                and all(ok for *_, ok in self._satisfied()))

    def to_json(self) -> dict:
        return {"seed": self.seed,
                "jobs": [{"label": label, "expect": expect, "satisfied": ok,
                          "report": rep.to_json()}
                         for label, expect, rep, ok in self._satisfied()],
                "sweeps": [c.to_json() for c in self.sweeps],
                "vacuous": [{"family": label, "check": c.name, "notes": c.notes}
                            for label, _, rep in self.jobs
                            for c in rep.vacuous_checks],
                "pass": self.passed,
                "runtime_s": self.runtime_s}


def _worst(residuals) -> float:
    """The largest residual, 0.0 for none; NaN if any is NaN, where
    max(worst, r) would drop it."""
    return float(np.max(residuals, initial=0.0))


def _check(name, grid, residual, tol, notes=""):
    return CheckResult(name, grid, float(residual), float(tol),
                       float(residual) <= float(tol), False, notes)


def _vacuous_check(name, note):
    return CheckResult(name, "", 0.0, 0.0, True, True, note)


# ---------------------------------------------------------------------------
# Admissible-domain scanning

def _bisect(spec: SurfaceSpec, a, b, good_a) -> np.ndarray:
    """Midpoints of the brackets [a, b] (arrays; good_a: a is admissible)
    after at most 200 bisection steps to width 1e-12, in lockstep: one
    meridian pass per step over the brackets still open."""
    a, b = a.copy(), b.copy()
    for _ in range(200):
        open_ = np.flatnonzero(b - a > 1e-12)
        if not open_.size:
            break
        m = 0.5 * (a[open_] + b[open_])
        same = _admissible(_meridian_columns(spec, m)[1]) == good_a[open_]
        a[open_[same]] = m[same]
        b[open_[~same]] = m[~same]
    return 0.5 * (a + b)


def admissible_domain(spec: SurfaceSpec, u0: float, u1: float, n: int,
                      good=None) -> list:
    """Maximal admissible subintervals of [u0, u1].

    Scans n sample points in one meridian pass and refines every change
    of admissibility (E and -G finite above ADMISSIBILITY_EPS) by
    bisection to an absolute width of 1e-12, all brackets in lockstep;
    good, if given, is the scan's _admissible, from the caller's pass.
    """
    if n < 2:
        raise ValueError("scan needs at least 2 sample points")
    if good is None:
        good = _admissible(_meridian_columns(spec, np.linspace(u0, u1, n))[1])
    flips = np.flatnonzero(good[1:] != good[:-1]) + 1
    if not flips.size:   # no edge to bisect
        return [(u0, u1)] if good[0] else []
    us = np.linspace(u0, u1, n)
    edges = _bisect(spec, us[flips - 1], us[flips], good[flips - 1])
    intervals = []
    start = u0 if good[0] else None
    for rising, edge in zip(good[flips].tolist(), edges):
        if rising:
            start = edge
        else:
            if edge > start:
                intervals.append((start, edge))
            start = None
    if start is not None:
        intervals.append((start, u1))
    return intervals


def _grid_in_intervals(intervals, n, margin_frac=5e-3):
    """Deterministic n-point grid inside the intervals, edges avoided."""
    total = sum(b - a for a, b in intervals)
    pts = []
    for idx, (a, b) in enumerate(intervals):
        length = b - a
        k = max(2, int(round(n * length / total))) if len(intervals) > 1 else n
        if idx == len(intervals) - 1:
            k = max(2, n - sum(map(len, pts)))
        m = length * margin_frac
        pts.append(np.linspace(a + m, b - m, k))
    return np.concatenate(pts)[:max(n, 2)]


def _v_grid(kind: SurfaceKind, nv: int, v_range: tuple):
    default, endpoint, _ = _V_SAMPLING[kind]
    return np.linspace(*v_range, nv, endpoint=endpoint or v_range != default)


def _grid_and_stencil(intervals, nu: int, closed: bool):
    """(nu-point grid, FD stencil us, steps, None) over the intervals: the
    _stencil_us of three FD points inside the widest one, at least pad from
    its edges, so that their stencils, out to the step of fd-shrinkage, stay
    inside it; where it is too narrow, the note of the vacuous FD checks."""
    us = _grid_in_intervals(intervals, nu)
    a, b = max(intervals, key=lambda iv: iv[1] - iv[0])
    shrink_h = FD_H if closed else 10.0 * FD_H
    pad = min(max(0.02 * (b - a), 8.0 * shrink_h), 0.5 * (b - a) - shrink_h)
    if not pad > shrink_h:
        return us, np.array([]), None, (f"admissible interval [{a:.6g}, {b:.6g}] too "
                                        f"narrow for the FD stencil (step {shrink_h:g})")
    fd_u = np.array([a + frac * (b - a - 2 * pad) + pad for frac in (0.25, 0.5, 0.75)])
    # an edge can be a branch point where the meridian's derivatives blow
    # up, so the step stays well inside the nearest edge
    h = min(FD_H, float(np.minimum(fd_u - a, b - fd_u).min()) / 512.0)
    steps = (h, h, 0.5 * h) if closed else (h, shrink_h, 0.5 * shrink_h)
    return us, _stencil_us(fd_u, steps), steps, None


# ---------------------------------------------------------------------------
# Point-level oracles

_ORTHO_PAIRS = (("x", "x", 1.0), ("y", "y", -1.0), ("n1", "n1", 1.0),
                ("n2", "n2", -1.0), ("x", "y", 0.0), ("x", "n1", 0.0),
                ("x", "n2", 0.0), ("y", "n1", 0.0), ("y", "n2", 0.0),
                ("n1", "n2", 0.0))


def orthonormality_residual(fr):
    """Worst deviation of the ten frame inner products from their targets.

    Each gap is divided by max(1, product of the two Euclidean norms), so
    the tolerance is relative to the vectors' size; hyperbolic frames grow
    like cosh(alpha*v) and an absolute test would only measure that growth.
    A frame over points (array components) gives the worst at each point,
    as a running max; NaN propagates.
    """
    vecs = {"x": fr.x, "y": fr.y, "n1": fr.n1, "n2": fr.n2}
    norms = {k: v.euclid_norm() for k, v in vecs.items()}
    worst = 0.0
    for a, b, want in _ORTHO_PAIRS:
        worst = np.maximum(worst, abs(inner(vecs[a], vecs[b]) - want)
                           / np.maximum(1.0, norms[a] * norms[b]))
    return worst


def _relative_gap(a, b):
    return abs(a - b) / np.maximum(np.maximum(1.0, abs(a)), abs(b))


def cross_check(spec: SurfaceSpec, u: float, v: float = 0.0):
    """Dual-route residuals for K and kappa at (u, v), relative with floor
    1: K's explicit formula against the Gauss-equation route through
    projected sigma vectors, kappa's against -eps mu (nu1 + nu2), that is
    -mu(nu1+nu2) (elliptic) or +mu(nu1+nu2) (hyperbolic)."""
    grid = _point_row(spec, u)
    rows = _bundle_rows(spec.kind, _projection(
        spec, _frame_inputs(grid.scalars), _rotations(spec, [v])), grid)
    return tuple(_check(name, f"u={u:.6g}", r[0], DEFAULT_TOLS["cross"])
                 for name, r in zip(("gauss-equation-route",
                                     "normal-curvature-route"), rows[-2:]))


def _stencil_us(u, steps):
    """The u of each FD stencil column of the points at u (an array): the
    centre, then u + h and u - h for each distinct step h of steps."""
    return np.column_stack([u] + [w for h in dict.fromkeys(steps)
                                  for w in (u + h, u - h)])


def _fd_columns(spec: SurfaceSpec, us, v, steps, scalars):
    """(index into scalars, v) of the frame columns of the FD points (us[:,
    0], v), a row per point: the centre, then (u +- h, v), (u, v +- h) per
    step; us is their _stencil_us, scalars its _meridian_columns.  Raises
    the point loop's first error: the centre's own, else a StepError."""
    bad = _inadmissible(spec, us, scalars)
    if bad:   # a neighbour's domain error is a StepError, the centre's its own
        i, exc = bad
        if i % us.shape[1] and isinstance(exc, (InadmissiblePointError, DomainError)):
            raise StepError("FD stencil left the admissible domain at (u="
                            f"{us.flat[i]}, v={v[i // us.shape[1]]}): {exc}")
        raise exc
    distinct = list(dict.fromkeys(steps))
    cols = [0] + [c for h in steps for k in [distinct.index(h)]
                  for c in (2 * k + 1, 2 * k + 2, 0, 0)]
    vs = np.array([v] + [w for h in steps for w in (v, v, v + h, v - h)]).T
    return np.arange(0, us.size, us.shape[1])[:, None] + cols, vs


def fd_connection_rows(spec, scalars, fr, hs):
    """(names, residuals) of the eight frame derivative formulas against
    central FD, residuals of shape (8, points, steps).

    scalars and fr, at each point's frame columns (_fd_columns), are
    (points, columns) or flat; hs is (points, steps) or (steps,); spec may
    be SpecRows of (points, 1) columns.  The frame fields are differentiated
    numerically and converted to derivatives along the unit directions by
    1/sqrt(E) and 1/sqrt(-G); residuals are norms of (FD - closed form)."""
    shape = (-1, 1 + 4 * np.shape(hs)[-1])
    centre = tuple(c.reshape(shape)[:, :1] for c in scalars)
    gf = _geo_fns_from(spec, centre)
    # H lies along the carrier normal, n2 (elliptic) or n1 (hyperbolic);
    # F is indexed (vector, component, point, frame column)
    e = spec.kind.eps
    n_off, n_car = spec.kind.normals("n1", "n2")
    F = np.array([getattr(fr, name).components()
                  for name in ("x", "y", n_off, n_car)]).reshape(4, 4, *shape)
    x, y, off, car = F[..., :1]
    dx = (F[..., 1::4] - F[..., 2::4]) * (1.0 / (2.0 * hs * np.sqrt(centre[6])))
    dy = (F[..., 3::4] - F[..., 4::4]) * (1.0 / (2.0 * hs * np.sqrt(centre[7])))
    nu1, nu2, mu, g2, b2 = gf.nu1, gf.nu2, gf.mu, gf.gamma2, gf.beta2
    rows = [
        ("nabla_x x", dx[0], car * (-e * nu1)),
        ("nabla_x y", dx[1], off * (e * mu)),
        ("nabla_y x", dy[0], y * -g2 + off * (e * mu)),
        ("nabla_y y", dy[1], x * -g2 + car * (-e * nu2)),
        (f"nabla_x {n_off}", dx[2], y * mu),
        (f"nabla_y {n_off}", dy[2], x * -mu + car * (e * b2)),
        (f"nabla_x {n_car}", dx[3], x * -nu1),
        (f"nabla_y {n_car}", dy[3], y * nu2 + off * (e * b2)),
    ]
    # Euclidean norms of (FD - closed form), summed in PEVector4's order
    d = np.array([fd for _, fd, _ in rows]) - np.array([rhs for *_, rhs in rows])
    sq = d * d
    return ([name for name, _, _ in rows],
            np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3]))


def h_numerator_identity(spec: SurfaceSpec, u0: float, u1: float,
                         n: int = 101) -> CheckResult:
    """Scaled residual of the mean-curvature numerator over a raw u-grid.

    Usable on families with empty admissible domain: the numerator contains
    no square roots, so 'vanishing mean curvature wherever defined' can be
    confirmed even where the surface is not Lorentzian.
    """
    ok, *jets = spec.meridian.jet_columns(np.linspace(u0, u1, n))
    t1, t2 = _h_terms(spec, *_scalars_from(spec, *jets))
    residuals = (abs(t1 + t2) / (abs(t1) + abs(t2) + 1.0))[ok]
    if not residuals.size:
        return _vacuous_check("h-numerator-identity", "meridian nowhere defined")
    return _check("h-numerator-identity",
                  f"{len(residuals)} points in [{u0:.6g}, {u1:.6g}]",
                  _worst(residuals), 1e-10,
                  "numerator of the mean-curvature coefficient")


# ---------------------------------------------------------------------------
# The stacked stage: check_points takes per-job tuples (spec, us, ...) of
# one surface kind, evaluates the points of all jobs in one array pass with
# alpha and beta as columns (SpecRows) and returns one result per job.

def _job_max(values, counts):
    """The max over each job's counts[j] consecutive entries of values
    (along the last axis), NaN kept."""
    return np.maximum.reduceat(values, np.cumsum([0, *counts[:-1]]), axis=-1)


def _joined(parts):
    """Tuples of arrays, one tuple per job, joined item by item."""
    return tuple(np.concatenate(c) for c in zip(*parts))


_VINDEP_NV = 32                         # v's per v-independence row


def _block_points(sizes):
    """(job, place in its job's block) of every point of blocks of sizes[j]."""
    job = np.repeat(np.arange(len(sizes)), sizes)
    return job, np.arange(sizes.sum()) - (np.cumsum(sizes) - sizes)[job]


def _part(obj, index):
    """obj, an array or a tuple or slotted dataclass of them (a Frame, a
    _Projection), at index along the points."""
    if isinstance(obj, np.ndarray):
        return obj[index]
    if isinstance(obj, tuple):
        return tuple(_part(o, index) for o in obj)
    return type(obj)(*(_part(getattr(obj, name), index) for name in obj.__slots__))


def _v_spread(proj):
    """v-independence at each row of a projection over _VINDEP_NV v's a row:
    the spread across v of each v-dependent value, scaled by the Euclidean
    size of the vectors in it (hyperbolic frames grow like cosh(alpha v),
    and exact cancellations leave roundoff that grows with them)."""
    pj, fr, sf = proj.pj, proj.fr, proj.sf
    nu, nv_, n1n, n2n, uu, uv, vv = (w.euclid_norm() for w in (
        pj.z_u, pj.z_v, fr.n1, fr.n2, pj.z_uu, pj.z_uv, pj.z_vv))
    E, F, G = _fundamental_from(pj.z_u, pj.z_v)
    vals = np.array((E, F, G, *sf.xx, *sf.xy, *sf.yy)).reshape(9, -1, _VINDEP_NV)
    seg = np.sqrt(E) * np.sqrt(-G)
    scales = np.array((nu * nu, nu * nv_, nv_ * nv_,
                       uu * n1n / E, uu * n2n / E,
                       uv * n1n / seg, uv * n2n / seg,
                       vv * n1n / -G, vv * n2n / -G)).reshape(9, -1, _VINDEP_NV)
    # axis 2 runs over v: one spread and one scale per quantity and row
    spread = vals.max(axis=2) - vals.min(axis=2)
    scale = np.maximum(1.0, np.abs(scales).max(axis=2))
    return (spread / scale).max(axis=0)


def _sigma_magnitude(proj):
    return np.max([w.euclid_norm() for w in proj.sigma], axis=0)


def _chen_residuals(proj, h):
    """Scaled |tr(A1 A2)| and allied coefficient from the projection route.

    The noise of a projected entry is eps * ||sigma_vec|| * ||n_i||, so the
    trace residual is scaled by M1*S2 + M2*S1 (Mi entry magnitudes, Si the
    projection magnitudes); hyperbolic frames at large |v| are otherwise
    dominated by cosh-growth roundoff.  Over a grid the matrices are
    stacked and the residuals are arrays.
    """
    A1p, A2p = proj.shape_matrices()
    fr = proj.fr
    smax = _sigma_magnitude(proj)
    M1 = np.abs(A1p).max(axis=(-2, -1))
    M2 = np.abs(A2p).max(axis=(-2, -1))
    S1 = smax * fr.n1.euclid_norm()
    S2 = smax * fr.n2.euclid_norm()
    scale = np.maximum(1.0, M1 * S2 + M2 * S1)
    tr = shape_trace(A1p, A2p)
    return abs(tr) / scale, 0.5 * abs(h) * abs(tr) / scale


def _carrier_split(kind, proj):
    """(off, carrier, n_off, n_car, carrier signature) of H.

    H lies on n2 for the elliptic kind and on n1 for the hyperbolic kind: a
    normal w is <w,n1> n1 - <w,n2> n2, and the carrier's signature is -eps.
    """
    hv, e = proj.H, kind.eps
    n_off, n_car = kind.normals(proj.fr.n1, proj.fr.n2)
    return e * inner(hv, n_off), -e * inner(hv, n_car), n_off, n_car, -e


def _bundle_rows(kind, proj, grid):
    """The bundle's (8, points) residuals over proj, the InvariantGrid of
    its points on the closed-form side: tr(A1 A2) of the projected shape
    operators and the allied coefficient vanish; H from projections stays
    on its carrier normal, with coefficient h_coeff, H_norm2 = -h_coeff^2
    and <H,H> = (carrier signature) h^2, so H is never lightlike unless it
    vanishes; the dual routes of K (Gauss equation through projected
    sigma) and kappa (-eps mu (nu1 + nu2))."""
    h, hv, (sxx, sxy, syy) = grid.h_coeff, proj.H, proj.sigma
    hh = pow2(h)
    off, carrier, n_off, n_car, sig = _carrier_split(kind, proj)
    hn = hv.euclid_norm()
    return np.array((
        *_chen_residuals(proj, h),
        abs(off) / np.maximum(1.0, hn * n_off.euclid_norm()),
        abs(carrier - h) / np.maximum(1.0, hn * n_car.euclid_norm()),
        abs(grid.H_norm2 + hh),
        abs(inner(hv, hv) - sig * hh)
        / np.maximum(np.maximum(1.0, abs(hh)), abs(hv.euclid_norm2())),
        _relative_gap(grid.K, (inner(sxx, syy) - inner(sxy, sxy)) / -1.0),
        _relative_gap(grid.kappa, -kind.eps * grid.mu * (grid.nu1 + grid.nu2))))


def _sweep_rows(kind, proj, grid):
    """The sweep's (4, points) residuals over proj, grid its points' rows:
    tr(A1 A2), the allied coefficient, H off its carrier normal and
    H_norm2 + h_coeff^2."""
    off, _, n_off, _, _ = _carrier_split(kind, proj)
    # H is a difference of sigma vectors, so its projection carries
    # rounding of order eps * ||sigma|| * ||n_off|| even where H ~ 0
    hscale = np.fmax(1.0, _sigma_magnitude(proj) * n_off.euclid_norm())
    return np.array((*_chen_residuals(proj, grid.h_coeff), abs(off) / hscale,
                     abs(grid.H_norm2 + pow2(grid.h_coeff))))


# check_points in report order (then fd-connection, fd-shrinkage): name,
# tolerance factor * tols[key], grid (of n, nv, nvr, v = v_mid) and notes
_AT_V_MID = "{n} u-points, v={v:.6g}"
_POINT_CHECKS = (
    ("frame-orthonormality", "algebraic", 1, "{n}x{nv} (u,v) points",
     "ten inner-product conditions, Euclidean-scaled"),
    ("v-independence", "vindep", 1, f"{{nvr}} u-points x {_VINDEP_NV} v-points",
     "relative spread of E, F, G and projected sigma coefficients"),
    *((name, "algebraic", 1, _AT_V_MID + ", projected shape operators", "")
      for name in ("chen-trace", "chen-allied")),
    ("quasi-minimal-off-component", "algebraic", 1, _AT_V_MID,
     "off-carrier normal component of H"),
    ("h-carrier-coefficient", "algebraic", 10, _AT_V_MID,
     "projected H coefficient vs closed form"),
    ("h-norm2-definition", "algebraic", 1, _AT_V_MID,
     "reported H_norm2 equals -h_coeff^2"),
    ("h-inner-product-signature", "cross", 1, _AT_V_MID,
     "ambient <H,H> = (carrier signature) * h_coeff^2; the carrier normal is "
     "timelike for the elliptic kind and spacelike for the hyperbolic kind"),
    *((name, "cross", 1, "{n} u-points", "")
      for name in ("gauss-equation-route", "normal-curvature-route")))
_PLANNED_COMMON = (*(c[0] for c in _POINT_CHECKS), "fd-connection", "fd-shrinkage")


def check_points(jobs) -> list:
    """(InvariantGrid, point checks, sweep residuals) of each job (spec, us,
    scalars, nv, v_range, tols, fd, drawn), scalars the _meridian_columns at
    the grid us, then at the FD stencil us of fd = (us, steps) or None, and
    drawn the (grid row, v) pairs of the sweep's points: one invariant pass
    over all grid rows, one rotation pass over each job's v's (v_mid, the
    v-independence grid over v_range, the nv grid, the FD v's, the drawn
    v's), one projection pass (each row at v_mid, three rows at each
    v-independence v, the drawn points), one frame pass (each row at each v
    of the nv grid, the FD columns).  The sweep residuals are _sweep_rows'
    at the drawn points.  A job's error (a grid row's, then _fd_columns',
    then _rotations') is its result."""
    kind, v_mid = jobs[0][0].kind, _V_SAMPLING[jobs[0][0].kind][2]
    speeds = np.array([(s.alpha, s.beta) for s, *_ in jobs]).T
    try:
        for spec, us, sc, *_ in jobs:
            bad = _inadmissible(spec, us, tuple(c[:len(us)] for c in sc))
            if bad:   # the frames need all grid rows
                raise bad[1]
        fd_cols = [(np.zeros((0, 0), int), ()) if fd is None else _fd_columns(
            spec, fd[0], np.full(len(fd[0]), v_mid), fd[1],
            tuple(c[len(us):].reshape(fd[0].shape) for c in sc))
            for spec, us, sc, *_, fd, _ in jobs]
        vs = [np.concatenate([[v_mid], _v_grid(kind, _VINDEP_NV, vr),
                              _v_grid(kind, nv, vr), np.ravel(fd_vs), drawn[:, 1]])
              for (*_, nv, vr, _, _, drawn), (_, fd_vs) in zip(jobs, fd_cols)]
        nr = np.array([len(v) for v in vs])
        rot = _rotations(SpecRows(kind, *np.repeat(speeds, nr, axis=1), None),
                         np.concatenate(vs))
    except Exception as exc:   # noqa: BLE001 - a job's own, found by halving
        h = len(jobs) // 2
        return check_points(jobs[:h]) + check_points(jobs[h:]) if h else [exc]
    cols = _joined(sc for _, _, sc, *_ in jobs)
    n, nt, nv, nfd = np.array([(len(us), len(sc[0]), nv, index.size) for (
        _, us, sc, nv, *_), (index, _) in zip(jobs, fd_cols)]).T
    t0, r0 = np.cumsum(nt) - nt, np.cumsum(nr) - nr   # each job's first row
    stride, first = np.maximum(1, n // 3), 1 + _VINDEP_NV   # vs[0]'s rotation

    def points(*groups, skip=()):   # inputs at (job, meridian row, rotation)
        # points, the columns in skip not gathered; no pass reads the squares
        job, t, r = map(np.concatenate, zip(*groups))
        sc = [None if i in skip else c[t] for i, c in enumerate(cols)]
        return (SpecRows(kind, *speeds[:, job], None), _frame_inputs(sc),
                tuple(c[r] for c in rot))

    j, k = _block_points(n)
    bundle = j, t0[j] + k, r0[j]
    grid = _invariant_rows(spec_rows([spec for spec, *_ in jobs], n),
                           np.concatenate([us for _, us, *_ in jobs]),
                           tuple(c[bundle[1]] for c in cols))
    vrows = np.minimum(3, -(-n // stride))
    j, k = _block_points(vrows * _VINDEP_NV)
    spread = (j, t0[j] + stride[j] * (k // _VINDEP_NV),
              r0[j] + 1 + k % _VINDEP_NV)
    nd = np.array([len(job[-1]) for job in jobs])
    j, k = _block_points(nd)
    at = (np.cumsum(n) - n)[j] + np.concatenate(   # the drawn grid rows
        [job[-1][:, 0] for job in jobs]).astype(int)
    drawn = j, bundle[1][at], (r0 + nr - nd)[j] + k
    proj = _projection(*points(bundle, spread, drawn))
    m, ms = len(bundle[0]), len(bundle[0]) + len(spread[0])
    bundle = _job_max(_bundle_rows(kind, _part(proj, slice(m)), grid), n)
    spread = _job_max(_v_spread(_part(proj, slice(m, ms))), vrows)
    sweep = np.split(_sweep_rows(kind, _part(proj, slice(ms, None)), grid[at]),
                     np.cumsum(nd)[:-1], axis=1)

    j, k = _block_points(nfd)
    stencil = (j, t0[j] + n[j] + np.concatenate([i.ravel() for i, _ in fd_cols]),
               r0[j] + first + nv[j] + k)
    j, k = _block_points(n * nv)
    m = len(j)
    del proj   # the frame pass below holds the most points at once
    fr = _frame_from(*points((j, t0[j] + k // nv[j], r0[j] + first + k % nv[j]),
                             stencil, skip=(2, 5)))   # frames read no f'', g''
    ortho = _job_max(orthonormality_residual(_part(fr, slice(m))), n * nv)
    fd_jobs = [(spec, fd[0][:, 0], fd[1], tols["fd"])
               for spec, *_, tols, fd, _ in jobs if fd]
    fd = iter(check_fd_connection(fd_jobs, tuple(c[stencil[1]] for c in cols),
                                  _part(fr, slice(m, None))) if fd_jobs else ())
    return [(grid[end - len(us):end], [
        _check(name, form.format(n=len(us), nv=nv, nvr=nvr, v=v_mid), r,
               factor * tols[key], notes)
        for (name, key, factor, form, notes), r in zip(_POINT_CHECKS, (o, s, *w))]
        + list(next(fd) if fd_job else ()), sw)
        for (_, us, _, nv, _, tols, fd_job, _), w, s, o, nvr, end, sw in zip(
            jobs, bundle.T, spread, ortho, vrows, np.cumsum(n), sweep)]


def check_fd_connection(jobs, scalars, fr) -> list:
    """(fd-connection, fd-shrinkage) of each (spec, u, steps = (h, shrink_h,
    shrink_h / 2), tol) from one fd_connection_rows pass over the meridian
    columns and Frame at every job's frame columns in turn: the worst
    residual at h and the median halving ratio from shrink_h, which for
    dense-output families sits well above the interpolation noise floor."""
    counts = [len(u) for _, u, *_ in jobs]
    _, res = fd_connection_rows(
        spec_rows([spec for spec, *_ in jobs], counts, ndim=2), scalars, fr,
        np.repeat([steps for _, _, steps, _ in jobs], counts, axis=0))
    out = []
    for (_, _, (h, shrink_h, _), tol), end, n in zip(
            jobs, np.cumsum(counts), counts):
        rows = res[:, end - n:end]
        above = (rows[..., -2] > 5e-9) & (rows[..., -1] > 0.0)
        ratios = rows[..., -2][above] / rows[..., -1][above]
        fd = _check("fd-connection", f"{n} points, h={h:g}",
                    _worst(rows[..., 0]), tol,
                    "eight frame derivative formulas vs central differences")
        if ratios.size:
            # median across rows and points (np.median's, which would import
            # numpy.ma): single rows can sit at the cancellation floor where
            # the ratio carries no signal
            s, k = np.sort(ratios), len(ratios) // 2
            median = (s[-1] if np.isnan(s[-1]) else s[k] if len(s) % 2
                      else (s[k - 1] + s[k]) / 2)
            shr = _check("fd-shrinkage", f"{n} points, h={shrink_h:g}",
                         abs(float(median) - 4.0), 0.5,
                         f"median halving ratio over {len(ratios)} rows "
                         "above the noise floor")
        else:
            shr = _vacuous_check("fd-shrinkage",
                                 "all rows at noise floor; no ratio to observe")
        out.append((fd, shr))
    return out


def check_sampled_residuals(fam):
    """Knot diagnostics for integrated families, at the realization's tol."""
    sm = fam.ensure_realized()
    grid = f"{len(sm.traj.ts)} knots"
    out = [
        _check("constraint-residual", grid, float(sm.residuals.max()),
               100.0 * sm.tol, "algebraic invariant drift at knots"),
        _check("unit-speed", grid, float(sm.speed_residuals.max()), sm.tol),
    ]
    # a gap > 0 where a knot's other root lies nearer the previous knot's
    # root than its chosen root does; knots with one root have no gap
    roots, others = sm.knot_roots, sm.other_roots
    gaps = abs(roots[1:] - roots[:-1]) - abs(others[1:] - roots[:-1])
    two = ~np.isnan(others[1:])
    if two.any():
        out.append(_check("branch-continuity", grid, _worst(gaps[two]), 0.0,
                          "chosen root stays nearest to the previous root"))
    return out


# The property checks reduce columns of an InvariantGrid with .max(), so a
# NaN residual fails them.

def check_minimal(grid, tol) -> CheckResult:
    return _check("minimal-h-coeff", f"{len(grid)} u-points",
                  np.abs(grid.h_coeff).max(), tol)


def check_flat(grid, tol):
    where = f"{len(grid)} u-points"
    identity = np.abs(pow2(grid.mu) + grid.nu1 * grid.nu2)
    return (_check("flat-gauss-curvature", where, np.abs(grid.K).max(), tol),
            _check("flat-mu2-plus-nu1nu2", where, identity.max(), tol))


def check_fnc(grid, tol) -> CheckResult:
    return _check("fnc-normal-curvature", f"{len(grid)} u-points",
                  np.abs(grid.kappa).max(), tol)


def check_pnmcv(spec, grid, C, sign, tol_alg, tol_h):
    hs = grid.h_coeff
    where = f"{len(grid)} u-points"
    # the elliptic branches fix the sign of h, the hyperbolic ones only |h|
    if spec.kind is SurfaceKind.ELLIPTIC:
        h_res = np.abs(hs - sign / C).max()
        h_note = "h_coeff equals sign/C"
    else:
        h_res = np.abs(np.abs(hs) - 1.0 / abs(C)).max()
        h_note = "|h_coeff| equals 1/|C|"
    return (
        _check("pnmcv-beta2", where, np.abs(grid.beta2).max(), tol_alg),
        _check("pnmcv-h-norm2", where,
               np.abs(grid.H_norm2 + 1.0 / (C * C)).max(), tol_h,
               "H_norm2 equals -1/C^2"),
        _check("pnmcv-h-value", where, h_res, tol_h, h_note),
        _check("pnmcv-h-constancy", where, hs.max() - hs.min(), tol_h),
    )


def check_min_ell_ii_identity(spec, grid) -> CheckResult:
    """Exact identity of the angle parametrization: beta^2 E = -G.

    Equivalent to (A - alpha^2 f^2) - (A - beta^2 g^2) = beta^2 g^2 -
    alpha^2 f^2 rescaled to this parametrization; the unit-speed gauge of
    the classification is not used by the evaluator.
    """
    *_, E, W = grid.scalars
    bE = spec.beta ** 2 * E
    residuals = abs(bE - W) / np.maximum(np.maximum(1.0, abs(bE)), abs(W))
    return _check("parametrization-identity", f"{len(grid)} u-points",
                  residuals.max(), DEFAULT_TOLS["algebraic"],
                  "beta^2 (f'^2 - g'^2) = -G")


# ---------------------------------------------------------------------------
# Family verification

def _property_checks(bundles, spec, grid, tier_tol, tols, C, sign):
    """The checks of each property bundle in bundles, in _BUNDLES order."""
    out = []
    if "minimal" in bundles:
        out.append(check_minimal(grid, tier_tol))
    if "pnmcv" in bundles:
        out.extend(check_pnmcv(spec, grid, C, sign, tols["algebraic"],
                               tols["pnmcv_h"]))
    if "flat" in bundles:
        out.extend(check_flat(grid, tier_tol))
    if "fnc" in bundles:
        out.append(check_fnc(grid, tier_tol))
    return out


# the property bundles (a catalog entry's bundle, the extras of checks) in
# report order, with the names of their checks for the vacuous plan
_BUNDLES = {"minimal": ("minimal-h-coeff",),
            "pnmcv": ("pnmcv-beta2", "pnmcv-h-norm2", "pnmcv-h-value",
                      "pnmcv-h-constancy"),
            "flat": ("flat-gauss-curvature", "flat-mu2-plus-nu1nu2"),
            "fnc": ("fnc-normal-curvature",)}


def verify_family(case: str, params: dict | None = None, **kw) -> FamilyReport:
    """Run the property bundle keyed to a family case: a check_points run of
    one job, as run_suite runs its jobs stacked.

    case, params and the family keywords (alpha, beta, sign, root,
    interval, state0; job_family(job) for a suite job) go to
    descriptor_from_catalog.  The other keywords are nu, nv, v_range,
    checks, tols and record_runtime.  The case's catalog bundle
    runs, and the extra bundles that checks lists (keys of _BUNDLES); tols
    overrides DEFAULT_TOLS key by key; anything else is a ConfigError.
    Returns a report whose checks all carry residual/tolerance pairs;
    empty admissible domains give vacuous results with explicit notes.
    runtime_s stays 0.0 unless record_runtime is set, keeping report bytes
    reproducible across runs; it then runs from the job's start to the end
    of the check_points run it joined.
    """
    [report], _ = _run_stacked([partial(_family_checks, case, params, **kw)])
    return report


def _family_checks(case: str, params: dict | None = None, *, nu: int = 50,
                   nv: int = 8, v_range: tuple | None = None,
                   checks: list | None = None, tols: dict | None = None,
                   record_runtime: bool = False, **family):
    """verify_family's job for _run_stacked, its stage 1: (check_points
    tuple less the drawn points, finish), finish(grid, point checks) giving
    the report; (None, finish) with finish() the report where no point is
    admissible."""
    desc = descriptor_from_catalog(case, params, **family)
    if nu < 2 or nv < 2:
        raise ParamError("grid counts must be at least 2")
    if v_range is not None:   # settled here: two finite floats, increasing
        try:
            v0, v1 = v_range
            if not (math.isfinite(v0) and math.isfinite(v1) and v0 < v1):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ParamError(f"{case}: bad v-range {v_range}") from None
        v_range = (float(v0), float(v1))
    tols = tols or {}
    if not isinstance(tols, dict) or set(tols) - set(DEFAULT_TOLS):
        raise ConfigError(f"tols must be an object keyed by {', '.join(DEFAULT_TOLS)}")
    tols = {**DEFAULT_TOLS, **{k: _cast(float, t, f"tols.{k}") for k, t in tols.items()}}
    if any(not (t > 0.0) for t in tols.values()):
        raise ParamError("tolerances must be positive")
    checks = checks or []
    if not isinstance(checks, list) or any(c not in tuple(_BUNDLES) for c in checks):
        raise ConfigError(f"checks must be a list drawn from {', '.join(_BUNDLES)}")
    bundles = {FAMILY_CATALOG[case].bundle, *checks}
    C = desc.params.get("C")
    if "pnmcv" in checks and not (type(C) in (int, float) and C != 0.0):
        raise ConfigError("the pnmcv checks need a nonzero number C in params")
    fam = build_family(desc)
    spec = surface_from_family(fam)
    v_range = v_range or _V_SAMPLING[spec.kind][0]
    lo, hi = desc.interval
    grid_desc = {"u0": lo, "u1": hi, "nu": nu, "nv": nv}

    t_start = time.perf_counter()

    def report():
        runtime = time.perf_counter() - t_start if record_runtime else 0.0
        return FamilyReport(case, dict(desc.params), desc.alpha, desc.beta,
                            grid_desc, results, runtime)

    # one meridian pass over the grid and FD stencil of all of [lo, hi] and
    # the scan; a job not admissible on all of it makes one more pass
    closed = FAMILY_CATALOG[case].realization == "closed"
    n_scan, whole = max(128, 4 * nu), [(lo, hi)]
    us, stencil, steps, narrow = _grid_and_stencil(whole, nu, closed)
    scalars = _meridian_columns(spec, np.concatenate(
        [np.linspace(lo, hi, n_scan), us, stencil.ravel()]))[1]
    intervals = admissible_domain(spec, lo, hi, n_scan, _admissible(scalars)[:n_scan])
    results = [CheckResult(
        "admissible-domain", f"scan of [{lo:.6g}, {hi:.6g}]", 0.0, 0.0, True,
        False,
        ("empty" if not intervals else
         "intervals: " + ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in intervals)))]

    if not intervals:
        note = "empty admissible domain; property checks are vacuous"
        if fam.diagnostics:
            note += " (" + "; ".join(fam.diagnostics) + ")"
        planned = _PLANNED_COMMON + tuple(
            name for bundle, names in _BUNDLES.items() if bundle in bundles
            for name in names)
        results.extend(_vacuous_check(name, note) for name in planned)
        if case == "min-ell-i":
            results.append(h_numerator_identity(spec, lo, hi))
        return None, report

    if not closed:
        results.extend(check_sampled_residuals(fam))
    if intervals != whole:
        us, stencil, steps, narrow = _grid_and_stencil(intervals, nu, closed)
        scalars = _meridian_columns(spec, np.concatenate([us, stencil.ravel()]))[1]
    # every check below reads these rows, the meridian at each grid u and FD
    # stencil u, copied: no scan row outlives stage 1
    scalars = tuple(c[-(len(us) + stencil.size):].copy() for c in scalars)

    def finish(grid, points):
        tier_tol = tols["closed"] if closed else tols["ode"]
        results.extend(_property_checks(bundles, spec, grid, tier_tol, tols,
                                        C, desc.sign))
        if case == "min-ell-ii":
            results.append(check_min_ell_ii_identity(spec, grid))
        results.extend(points)
        if narrow:
            results.extend(_vacuous_check(name, narrow)
                           for name in ("fd-connection", "fd-shrinkage"))
        return report()
    return (spec, us, scalars, nv, v_range, tols, steps and (stencil, steps)), finish


# The most grid rows of one check_points run: a default suite's jobs of one
# kind fit in one run, and a suite of large grids peaks near the memory of
# one run, not of all jobs.  A job larger than this runs alone.
_STACK_ROWS = 1024


@np.errstate(all="ignore")   # as the grid routes of grs4.surfaces
def _run_stacked(jobs, n_sweep=0, rng=None) -> tuple:
    """(reports, sweep residuals) of the jobs, each a call of its stage 1
    (see _family_checks), job by job: a job with a check_points tuple waits
    in its surface kind's run, which check_points finishes when the next job
    of that kind would take it past _STACK_ROWS grid rows, or at the end.
    Job i owes the sweep n_sweep * (i + 1) // len(jobs) - n_sweep * i //
    len(jobs) points, and what the jobs before it with no admissible row
    owed; as its stage 1 returns, each is drawn from rng: a random row of
    its grid, then a random v in its v-range.  An error of stage 1 or of a
    finished run starts no later job; the earliest job's error is raised, as
    running the jobs in turn would."""
    done, errors, runs, swept, owed = {}, {}, {}, [], 0

    def run_out(run):   # each job's report, or its check_points error
        for (i, finish, _), result in zip(run, check_points([a for *_, a in run])):
            if isinstance(result, Exception):
                errors[i] = result
            else:
                done[i] = finish(*result[:2])
                swept.append(result[2])
        run.clear()

    for i, job in enumerate(jobs):
        if errors:
            break
        owed += n_sweep * (i + 1) // len(jobs) - n_sweep * i // len(jobs)
        try:
            args, finish = job()
            if args is None:   # no admissible point: no run to wait for
                done[i] = finish()
                continue
        except Exception as exc:   # noqa: BLE001 - raised below, in job order
            errors[i] = exc
            break
        drawn = [(rng.randrange(len(args[1])), rng.uniform(*args[4]))
                 for _ in range(owed)]   # (grid row, v) pairs
        args, owed = (*args, np.array(drawn).reshape(-1, 2)), 0
        run = runs.setdefault(args[0].kind, [])
        if run and sum(len(a[1]) for *_, a in run) + len(args[1]) > _STACK_ROWS:
            run_out(run)
        run.append((i, finish, args))
    for run in runs.values():
        run_out(run)
    if errors:
        raise errors[min(errors)]
    return [done[i] for i in sorted(done)], swept


# ---------------------------------------------------------------------------
# Suite runner

_JOB_KEYS = {"label", "family", "params", "alpha", "beta", "sign", "root",
             "u0", "u1", "nu", "nv", "v0", "v1", "f0", "g0", "checks",
             "expect", "tols"}


def default_suite_config(seed: int = 20240) -> dict:
    """All sixteen classified cases with canned parameters, the A < 0 branch
    of min-hyp-ii, the pnmcv ladder C in {0.5, 2, 5} for both kinds, a
    non-minimal negative control expected to fail, and a sweep of 200
    random points on the jobs' grid rows.
    """
    jobs = []
    for case in classified_case_ids():
        if FAMILY_CATALOG[case].bundle != "pnmcv":
            jobs.append({"family": case})
    jobs.append({"label": "min-hyp-ii[A<0]", "family": "min-hyp-ii",
                 "params": {"A": -1.0, "c": 0.2}, "alpha": 1.0, "beta": 2.0,
                 "u0": 0.1, "u1": 1.5})
    for C, (lo, hi) in (("0.5", (0.55, 3.0)), ("2", (2.1, 6.0)),
                        ("5", (5.25, 9.0))):
        jobs.append({"label": f"pnmcv-ell[C={C}]", "family": "pnmcv-ell",
                     "params": {"C": float(C)}, "alpha": 1.0, "beta": 3.0,
                     "u0": lo, "u1": hi})
    for C, (lo, hi) in (("0.5", (0.05, 0.45)), ("2", (0.2, 1.8)),
                        ("5", (0.5, 4.5))):
        jobs.append({"label": f"pnmcv-hyp[C={C}]", "family": "pnmcv-hyp",
                     "params": {"C": float(C)}, "alpha": 1.3, "beta": 0.7,
                     "u0": lo, "u1": hi})
    jobs.append({"label": "negative-control-nonminimal", "family": "custom",
                 "params": {"f": "u**2", "g": "u", "kind": "elliptic"},
                 "alpha": 1.0, "beta": 3.0, "u0": 0.6, "u1": 2.8,
                 "checks": ["minimal"], "expect": "fail"})
    return {"seed": seed, "sweep_points": 200, "record_runtime": False,
            "jobs": jobs}


def _cast(kind, value, key):
    """kind(value) for the config key; a ConfigError naming it where that
    fails, where a number is wanted and value is a JSON boolean, or where
    int would truncate a float that is not integral."""
    if kind is not str and isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def job_family(job: dict) -> dict:
    """The descriptor_from_catalog keywords of a job's family (family as
    case, u0/u1 as interval, f0/g0 as state0), cast and paired; a key left
    out keeps the catalog default.  Suite jobs and the CLI's family flags
    both come this way, so a fault reads the same at every front door."""
    try:
        case = job["family"]
    except KeyError:
        raise ConfigError("job missing 'family'") from None
    if not isinstance(case, str):
        raise ConfigError(f"family must be a string, got {case!r}")
    if not isinstance(job.get("params") or {}, dict):
        raise ConfigError(f"{case}: params must be an object")
    kw = {"case": case, "params": job.get("params")}
    kw.update((key, _cast(kind, job[key], key)) for key, kind in (
        ("alpha", float), ("beta", float), ("sign", int), ("root", str))
        if key in job)
    if "u0" in job or "u1" in job:
        if not ("u0" in job and "u1" in job):
            raise ParamError(f"{case}: u0 and u1 must be given together")
        kw["interval"] = tuple(_cast(float, job[k], k) for k in ("u0", "u1"))
    if "f0" in job:
        g0 = job.get("g0")
        kw["state0"] = (_cast(float, job["f0"], "f0"),
                        None if g0 is None else _cast(float, g0, "g0"))
    elif job.get("g0") is not None:
        raise ParamError(f"{case}: g0 needs f0")
    return kw


def _suite_job(job: dict, record_runtime: bool):
    """The stage 1 of one suite job for _run_stacked, as _family_checks',
    its family from job_family and its grid and checks as verify_family
    keywords; finish then gives (label, expect, FamilyReport)."""
    if not isinstance(job, dict):
        raise ConfigError("each job must be an object")
    unknown = set(job) - _JOB_KEYS
    if unknown:
        raise ConfigError(f"unknown job keys: {sorted(unknown)}")
    family = job_family(job)
    expect = job.get("expect", "pass")
    if expect not in ("pass", "fail"):
        raise ConfigError(f"expect must be pass|fail, got {expect!r}")
    label = job.get("label", family["case"])
    if not isinstance(label, str):
        raise ConfigError(f"label must be a string, got {label!r}")
    kw = {key: _cast(int, job[key], key) for key in ("nu", "nv") if key in job}
    kw.update((key, job[key]) for key in ("checks", "tols") if key in job)
    if "v0" in job or "v1" in job:
        if not ("v0" in job and "v1" in job):
            raise ConfigError(f"{label}: v0 and v1 must be given together")
        kw["v_range"] = tuple(_cast(float, job[k], k) for k in ("v0", "v1"))
    args, finish = _family_checks(**family, record_runtime=record_runtime, **kw)
    return args, lambda *result: (label, expect, finish(*result))


def run_suite(config: dict) -> SuiteReport:
    """Execute the configured jobs and aggregate deterministically: each
    job's stage 1 in order, the jobs of each surface kind stacked in runs
    through check_points (_run_stacked), the sweep's sweep_points random
    points drawn on the jobs' grid rows from random.Random(seed) and its
    four checks the worst residual of each over all points."""
    if not isinstance(config, dict):
        raise ConfigError("suite config must be a JSON object")
    unknown = set(config) - {"seed", "jobs", "sweep_points", "record_runtime"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    seed = _cast(int, config.get("seed", 20240), "seed")
    jobs_cfg = config.get("jobs", [])
    if not isinstance(jobs_cfg, list):
        raise ConfigError("'jobs' must be a list")
    n_sweep = _cast(int, config.get("sweep_points", 0), "sweep_points")
    if n_sweep < 0:
        raise ConfigError(f"sweep_points must be at least 0, got {n_sweep}")
    record_runtime = config.get("record_runtime", False)
    if not isinstance(record_runtime, bool):
        raise ConfigError(
            f"record_runtime must be true or false, got {record_runtime!r}")
    t_start = time.perf_counter()
    jobs, swept = _run_stacked([partial(_suite_job, job, record_runtime)
                                for job in jobs_cfg], n_sweep, random.Random(seed))
    res = np.concatenate([np.empty((4, 0)), *swept], axis=1)
    grid = (f"{res.shape[1]} random admissible points on the grid rows of "
            f"{sum(r.size > 0 for r in swept)} jobs, seed={seed}")
    sweeps = [_check(name, grid, _worst(r), DEFAULT_TOLS["algebraic"]) if res.size
              else _vacuous_check(name, "no admissible job row to draw points on")
              for name, r in zip(("chen-trace-sweep", "chen-allied-sweep",
                                  "quasi-minimal-sweep", "h-norm2-sweep"), res)
              ] if n_sweep else []
    report = SuiteReport(seed=seed, jobs=jobs, sweeps=sweeps)
    if record_runtime:
        report.runtime_s = time.perf_counter() - t_start
    return report
