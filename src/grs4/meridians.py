"""Meridian curve families for general rotational surfaces.

Each classified family (minimal, parallel normalized mean curvature, flat,
flat normal connection; elliptic and hyperbolic kind) is realized as an
evaluator producing the 2-jets of the profile functions f and g at any
parameter value.  Families with closed forms go through jet arithmetic;
families defined only by an implicit relation are integrated with RK4 at a
fixed tolerance, in one frame (_rk4_tracked) that solves the rule for the
tracked (f', g') at every stage (a single root for min-hyp-iii, at most two
otherwise), and evaluated through cubic Hermite dense output.  jet_columns
evaluates a family over a whole array of parameter values in one pass, with
the bits of the per-point jet.

Case identifiers:
    min-ell-i    f = c * g^(s*alpha/beta), g = u           (alpha != beta)
    min-ell-ii   angle form of arcsin(alpha*f/sqrt(A)) = s*(alpha/beta)*arcsin(beta*g/sqrt(A)) + C
    min-ell-iii  (f+g)^2 = a*(f-g)^2 + b                   (alpha == beta)
    min-hyp-i    f = c * g^(-s*alpha/beta), g = u          (alpha != beta)
    min-hyp-ii   hyperbolic-angle form of alpha*f + sqrt(alpha^2 f^2 - A) = C*(beta*g + sqrt(beta^2 g^2 + A))^(s*alpha/beta)
    min-hyp-iii  arctan(f'/g') = -arctan(f/g) + c          (alpha == beta, unit speed ODE)
    pnmcv-ell    f = s*sqrt(u^2 - C^2), g = u
    pnmcv-hyp    f = s*sqrt(C^2 - u^2), g = u
    flat-ell-i   beta^2 g^2 - alpha^2 f^2 = a^2 (u+c)^2 with f'^2 - g'^2 = 1
    flat-ell-ii  alpha^2 f^2 - beta^2 g^2 = C (C < 0), hyperbolic-angle form
    flat-hyp-i   alpha^2 f^2 + beta^2 g^2 = a^2 (u+c)^2 with f'^2 + g'^2 = 1
    flat-hyp-ii  alpha^2 f^2 + beta^2 g^2 = C (C > 0), circular form
    fnc-ell-i    f = c * g, 1 < c^2 < beta^2/alpha^2
    fnc-ell-ii   f f' - g g' = C sqrt(f'^2 - g'^2) sqrt(beta^2 g^2 - alpha^2 f^2), unit speed
    fnc-hyp-i    f = c * g, c != 0, alpha != beta
    fnc-hyp-ii   f f' + g g' = C sqrt(f'^2 + g'^2) sqrt(alpha^2 f^2 + beta^2 g^2), unit speed
    custom       closed-form expressions for f(u), g(u)
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from math import atan2, copysign, cos, nan, sin, sqrt

import numpy as np

from .errors import (ConstraintDriftError, DomainError, NoRealRootError,
                     ParamError)
from .jets import (Jet2, JetExpr, _each, evaluate_masked, guard, jcos, jcosh,
                   jsin, jsinh, jsqrt)
from .odeint import Trajectory, hermite_eval
from .pe4 import SurfaceKind

DEFAULT_INTEGRATION_TOL = 1e-10
_INITIAL_STEPS = 1024
_MAX_HALVINGS = 3


@dataclass(frozen=True, slots=True)
class MeridianJet:
    """2-jets of the two profile coordinates at one parameter value."""

    f: Jet2
    g: Jet2


@dataclass
class FamilyDescriptor:
    """Constructor data for one meridian family.

    sign selects the +/- branch where the defining relation has one; root
    selects the initial branch ("larger" or "smaller" f') of the per-step
    quadratic for constrained families.  interval is the evaluation window
    (for integrated families: the integration span, with state0 given at its
    left endpoint).
    """

    case: str
    params: dict
    alpha: float
    beta: float
    sign: int = 1
    root: str = "larger"
    interval: tuple | None = None
    state0: tuple | None = None


@dataclass(frozen=True)
class CatalogEntry:
    """One case of the classification: its builder, the property bundle the
    verifier checks on it (None for custom) and its kind, with canned,
    admissible defaults.  An integrated case has a default_state0."""

    build: Callable            # build(desc, kind) -> MeridianFamily
    bundle: str | None         # "minimal" | "pnmcv" | "flat" | "fnc"
    kind: SurfaceKind
    param_doc: str
    defaults: dict
    default_alpha: float
    default_beta: float
    default_interval: tuple
    default_state0: tuple | None = None

    @property
    def realization(self) -> str:
        return "closed" if self.default_state0 is None else "ode"


class MeridianFamily:
    """Evaluator for one meridian family over its jet function: jet_fn(u)
    gives the (f, g) Jet2 pair at a float u, or over a float array with
    guard masking the elements where it raises.  Construction realizes an
    integrated family; after it, a fault is per u, which jet raises and
    jet_columns masks."""

    def __init__(self, desc: FamilyDescriptor, kind: SurfaceKind, jet_fn):
        self.case = desc.case
        self.params = dict(desc.params)
        self.alpha = desc.alpha
        self.beta = desc.beta
        self.kind = kind
        self.interval = desc.interval
        self.jet_fn = jet_fn
        self.diagnostics: list[str] = []

    def jet(self, u: float) -> MeridianJet:
        """2-jets of (f, g) at u; DomainError at branch points / outside interval."""
        if self.interval is not None:
            lo, hi = self.interval
            if not (lo <= u <= hi):
                raise DomainError(
                    f"{self.case}: u={u} outside interval [{lo}, {hi}]")
        fj, gj = self.jet_fn(float(u))
        if _singular(fj.d1, gj.d1):
            raise DomainError(f"{self.case}: singular point at u={u} (f' = g' = 0)")
        return MeridianJet(fj, gj)

    def jet_columns(self, us) -> tuple:
        """(ok, f, f', f'', g, g', g'') over the 1-d float array us, in one
        jet_fn pass over the array; a u outside the interval is evaluated at
        the interval's start, so no row is gathered, and blanked after.

        ok[i] is False where jet(us[i]) raises, and that row of the six
        columns is NaN; every other row holds the jet's values to the bit,
        a NaN the jet returns without raising included.
        """
        us = np.asarray(us, dtype=float)
        ok = np.ones(len(us), dtype=bool)
        if self.interval is not None:
            lo, hi = self.interval
            ok = (lo <= us) & (us <= hi)
            us = np.where(ok, us, lo)
        (fj, gj), raised = evaluate_masked(self.jet_fn, us)
        rows = np.empty((6, len(us)))
        for row, x in zip(rows, (fj.val, fj.d1, fj.d2, gj.val, gj.d1, gj.d2)):
            row[:] = x
        ok &= ~raised & ~_singular(rows[1], rows[4])
        rows[:, ~ok] = math.nan
        return (ok, *rows)


class _ClosedFormFamily(MeridianFamily):
    """A family whose jet_fn is jet arithmetic on closed forms."""


def _singular(fp, gp):
    """f' = g' = 0 to 1e-14, for floats or arrays."""
    return (abs(fp) < 1e-14) & (abs(gp) < 1e-14)


def _no_root(val, bad, u, msg):
    """guard for a rule: on a float, NoRealRootError(msg.format(u)) if bad."""
    if not isinstance(bad, np.ndarray) and bad:
        raise NoRealRootError(msg.format(u))
    return guard(val, bad, "")


# ---------------------------------------------------------------------------
# Constrained / ODE-realized families

class _QuadRule:
    """Per-step system defining (f', g') for one integrated family, by the
    constants that _rk4_tracked solves it with; solve(u, f, g, ref, larger)
    is the zero-step call, (f', g', other f' root or NaN).  second(u, f, g,
    f', g') recovers (f'', g''), and constraint() is the algebraic invariant
    whose drift is monitored (0 for derivative-only relations), both for
    floats or arrays; derive_g0() solves the constraint for g0."""

    explicit = fnc = False
    al2 = be2 = a2 = c = C = 0.0

    def __init__(self, name, eps, alpha, beta):
        self.name, self.eps = name, eps
        self.al2, self.be2 = alpha * alpha, beta * beta

    def solve(self, u, f, g, ref, larger=True):
        _, _, [fp, gp], [other], _ = _rk4_tracked(self, f, g, u, u, 0,
                                                  ref, larger)
        return fp, gp, other

    def constraint(self, u, f, g):
        return np.zeros_like(u)

    def speed_residual(self, fp, gp):
        return abs(fp * fp - self.eps * gp * gp - 1.0)

    def derive_g0(self, u0, f0) -> float:
        raise ParamError(
            f"{self.name}: no algebraic constraint to derive g0 from; give g0")


# Flat and fnc take q g' - eps p f' = r with unit speed f'^2 - eps g'^2 = 1,
# a quadratic in f': flat with (p, q, r) = (alpha^2 f, beta^2 g, a^2 (u + c)),
# fnc with (f, g, -eps C sqrt(beta^2 g^2 - eps alpha^2 f^2)).
# The flat and fnc rules serve both kinds through the signature sign eps
# (+1 elliptic, -1 hyperbolic), which stands where the elliptic rule has a
# minus sign: on both operands of a difference or on a whole term, never on
# one operand of a negated difference (-(x - y) and y - x differ in the
# sign of a zero), so each kind keeps the trajectories of its own rule.

class _FlatRule(_QuadRule):
    """beta^2 g^2 - eps alpha^2 f^2 = a^2 (u+c)^2 with f'^2 - eps g'^2 = 1;
    q g' - eps p f' = r is the derivative of the constraint."""

    def __init__(self, name, eps, a, c, alpha, beta):
        super().__init__(name, eps, alpha, beta)
        self.a2, self.c = a * a, c

    def second(self, u, f, g, fp, gp):
        e = self.eps
        gg, ff = self.be2 * gp * gp, e * self.al2 * fp * fp
        # the beta^2 g'^2 term goes first (elliptic) or last (hyperbolic):
        # each kind's pinned trajectories round the sum so
        rhs = (self.a2 - gg) + ff if e > 0.0 else (self.a2 + ff) - gg
        det = e * self.be2 * g * fp - e * self.al2 * f * gp
        det = _no_root(det, abs(det) < 1e-14, u,
                       self.name + ": singular jet recovery at u={}")
        return rhs * gp / det, e * rhs * fp / det

    def constraint(self, u, f, g):
        w = u + self.c
        return self.be2 * g * g - self.eps * self.al2 * f * f - self.a2 * w * w

    def derive_g0(self, u0, f0):
        w = u0 + self.c
        val = (self.a2 * w * w + self.eps * self.al2 * f0 * f0) / self.be2
        if val <= 0.0:
            raise ParamError(
                f"{self.name}: no real g0 for f0={f0} at u0={u0}")
        return math.sqrt(val)


class _FncRule(_QuadRule):
    """f f' - eps g g' = C sqrt(beta^2 g^2 - eps alpha^2 f^2), unit speed
    f'^2 - eps g'^2 = 1; in the form q g' - eps p f' = r, r carries the
    root's -eps C."""

    fnc = True

    def __init__(self, name, eps, C, alpha, beta):
        super().__init__(name, eps, alpha, beta)
        self.C = C
        sign = "-" if eps > 0.0 else "+"
        self.w_error = f"{name}: beta^2 g^2 {sign} alpha^2 f^2 <= 0"

    def second(self, u, f, g, fp, gp):
        e = self.eps
        w = self.be2 * g * g - e * self.al2 * f * f
        w = _no_root(w, w <= 0.0, u, self.w_error)
        root = math.sqrt(w) if isinstance(w, float) else np.sqrt(w)
        rhs = (self.C * (self.be2 * g * gp - e * self.al2 * f * fp)
               / root - 1.0)
        det = e * g * fp - e * f * gp
        det = _no_root(det, abs(det) < 1e-14, u,
                       self.name + ": singular jet recovery at u={}")
        return -e * rhs * gp / det, -rhs * fp / det


class _MinHyp3Rule(_QuadRule):
    """arctan(f'/g') = c - arctan(f/g): explicit unit-speed direction field."""

    name, eps, explicit = "min-hyp-iii", -1.0, True

    def __init__(self, c):
        self.c = c

    def second(self, u, f, g, fp, gp):
        r2 = f * f + g * g
        r2 = _no_root(r2, r2 == 0.0, u,
                      "min-hyp-iii: curve through the origin at u={}")
        dphi = (fp * g - f * gp) / r2
        return -gp * dphi, fp * dphi


def _rk4_tracked(rule: _QuadRule, f0, g0, t0, t1, n, ref, larger):
    """(ts, ys, dys, others, calls) of n RK4 steps of (f, g)' = the tracked
    root of rule from (f0, g0) at t0 to t1, in one frame with the solve
    inline: the bits of rk4_integrate over a field that solves for the
    root nearest the last f' (ref; the larger or smaller f' while ref is
    None; a tie or NaN distance keeps the quadratic's first root).  ts and
    others (the other f' root, NaN if none) hold the n + 1 knots, ys and dys
    their (f, g) and (f', g') flat; calls counts the 4n + 1 solves.  n = 0
    is one solve at (t0, f0, g0): rule.solve.  Raises NoRealRootError.
    """
    e, name, c, explicit, fnc = rule.eps, rule.name, rule.c, rule.explicit, rule.fnc
    al2, be2, a2 = rule.al2, rule.be2, rule.a2
    # -e, -e C and e alpha^2 hoisted: each product rounds as it did inline
    ne, neC, eal2 = -e, -e * rule.C, e * al2
    # n = 0 solves at t0 + 0 * -0.0, t0 to the bit (rk4_integrate at t0 + 0.0)
    hs = (t1 - t0) / n if n else -0.0
    half, sixth = 0.5 * hs, hs / 6.0
    f, g = x, y = f0, g0
    t = u = t0 + 0 * hs
    ts, ys, dys, others = [t0], [f0, g0], [], []
    for j in range(4 * n + 1):
        if explicit:   # arctan(f'/g') = c - arctan(f/g), unit speed: one root
            if x == 0.0 and y == 0.0:
                raise NoRealRootError(f"{name}: curve through the origin at u={u}")
            th = c - atan2(x, y)
            fp, gp, other = sin(th), cos(th), nan
        else:
            if fnc:
                w = be2 * y * y - eal2 * x * x
                if w <= 0.0:
                    raise NoRealRootError(rule.w_error)
                p, q, r = x, y, neC * sqrt(w)
            else:
                p, q, r = al2 * x, be2 * y, a2 * (u + c)
            if -1e-14 < q < 1e-14:
                raise NoRealRootError(f"{name}: g ~ 0 at u={u}")
            # A f'^2 + B f' + Cq = 0, with thresholds relative to its scale,
            # max(|A|, |B|, |Cq|, 1e-30) written out: max()'s tests in order;
            # x if x >= 0.0 else -x only feeds comparisons, where the sign of
            # a zero or NaN cannot flip a test
            ep = e * p
            A, B, Cq = q * q - ep * p, -2.0 * p * r, ne * r * r - q * q
            aA = A if A >= 0.0 else -A
            aB = B if B >= 0.0 else -B
            aC = Cq if Cq >= 0.0 else -Cq
            scale = aB if aB > aA else aA
            scale = aC if aC > scale else scale
            scale = 1e-30 if 1e-30 > scale else scale
            if aA <= 1e-14 * scale:
                if aB <= 1e-14 * scale:
                    raise NoRealRootError(f"degenerate root system at {name} u={u}")
                fp, other = -Cq / B, nan
            else:
                disc = B * B - 4.0 * A * Cq
                if disc < 0.0:
                    if disc < -1e-12 * scale * scale:
                        raise NoRealRootError(f"negative discriminant at {name} u={u}")
                    disc = 0.0
                sq = sqrt(disc)
                qq = -0.5 * (B + copysign(sq, B)) if B != 0.0 else -0.5 * sq
                if qq == 0.0:
                    fp, other = 0.0, nan
                else:
                    fp, other = qq / A, Cq / qq
                    # the order of sorted() and the first-wins tie of min()
                    if ((other < fp) != larger if ref is None
                            else abs(other - ref) < abs(fp - ref)):
                        fp, other = other, fp
            gp = (r + ep * fp) / q
        ref = fp
        # stage k of the step from the knot (t, f, g): the next stage is at
        # (t, f, g) + d (1, f', g'), the update (h/6)(((k1 + 2 k2) + 2 k3) + k4)
        k = j & 3
        if k == 0:
            dys += fp, gp
            others.append(other)
            sa, sb, d = fp, gp, half
        elif k < 3:
            sa, sb, d = sa + 2.0 * fp, sb + 2.0 * gp, half if k == 1 else hs
        else:
            x = f = f + sixth * (sa + fp)
            y = g = g + sixth * (sb + gp)
            t = u = t0 + ((j + 1) >> 2) * hs
            ts.append(t)
            ys += f, g
            continue
        u, x, y = t + d, f + d * fp, g + d * gp
    return ts, ys, dys, others, j + 1


def _solve_columns(rule: _QuadRule, u, x, y, ref):
    """(f', g', bad) of rule.solve(u, x, y, ref) over 1-d arrays, bad where
    it raises: _rk4_tracked's quadratic with each test a mask, min-hyp-iii's
    angle per element through math (numpy's atan2 differs in the last bit)."""
    e, c, n = rule.eps, rule.c, len(u)
    if rule.explicit:
        th = c - np.fromiter(map(atan2, x.tolist(), y.tolist()), float, n)
        return _each(sin, th), _each(cos, th), (x == 0.0) & (y == 0.0)
    if rule.fnc:
        w = rule.be2 * y * y - e * rule.al2 * x * x
        p, q, r, bad = x, y, -e * rule.C * np.sqrt(w), w <= 0.0
    else:
        p, q, r, bad = rule.al2 * x, rule.be2 * y, rule.a2 * (u + c), False
    A, B, Cq = q * q - e * p * p, -2.0 * p * r, -e * r * r - q * q
    aA, aB, aC = abs(A), abs(B), abs(Cq)
    scale = np.where(aB > aA, aB, aA)
    scale = np.where(aC > scale, aC, scale)
    scale = np.where(1e-30 > scale, 1e-30, scale)
    lin = aA <= 1e-14 * scale
    disc = B * B - 4.0 * A * Cq
    bad = bad | (abs(q) < 1e-14) | np.where(lin, aB <= 1e-14 * scale,
                                            disc < -1e-12 * scale * scale)
    sq = np.sqrt(np.where(disc < 0.0, 0.0, disc))
    qq = np.where(B != 0.0, -0.5 * (B + np.copysign(sq, B)), -0.5 * sq)
    fp, other = qq / A, Cq / qq
    fp = np.where(abs(other - ref) < abs(fp - ref), other, fp)
    fp = np.where(lin, -Cq / B, np.where(qq == 0.0, 0.0, fp))
    return fp, (r + e * p * fp) / q, bad


@dataclass
class SampledMeridian:
    """Dense-output carrier for an implicitly defined meridian."""

    traj: Trajectory
    rule: _QuadRule
    residuals: np.ndarray        # per-knot |algebraic constraint|
    speed_residuals: np.ndarray  # per-knot |f'^2 -/+ g'^2 - 1|
    other_roots: np.ndarray      # per-knot untracked f' root, NaN if none
    tol: float
    # the work over all attempts: RK4 steps, root solves, step halvings
    steps: int = 0
    field_calls: int = 0
    halvings: int = 0
    recovered: int = 0           # u-values whose jets were recovered

    @property
    def knot_roots(self) -> np.ndarray:
        """Chosen f' root at every knot (branch-continuity diagnostics)."""
        return self.traj.dys[:, 0]

    def jets(self, u):
        """(Jet2 of f, Jet2 of g) at u in the span, a float or a 1-d array:
        one Hermite pass, then the f' root nearest the f' of the knot at or
        below u (rule.solve; _solve_columns on an array) and rule.second.  On
        a float the rule's error propagates; on an array, in evaluate_masked,
        guard masks the elements where it raises."""
        us = np.atleast_1d(u)
        ys = hermite_eval(self.traj, us)
        # the last knot at or below u; knot 0 for u in the slack before it
        refs = self.traj.dys[np.searchsorted(self.traj.ts[1:], us, side="right"), 0]
        self.recovered += len(us)
        if isinstance(u, np.ndarray):
            f, g = ys.T
            fp, gp, bad = _solve_columns(self.rule, us, f, g, refs)
            f, fp, g, gp = guard(np.array((f, fp, g, gp)), bad, "")
        else:
            (u,), (f, g), (ref,) = us.tolist(), ys[0].tolist(), refs.tolist()
            fp, gp, _ = self.rule.solve(u, f, g, ref)
        fpp, gpp = self.rule.second(u, f, g, fp, gp)
        return Jet2(f, fp, fpp), Jet2(g, gp, gpp)


def integrate_constrained(rule: _QuadRule, state0: tuple, span: tuple,
                          initial_root: str = "larger") -> SampledMeridian:
    """Advance (f, g) from state0 at span[0] across span by RK4.

    state0 must satisfy the algebraic constraint within tol =
    DEFAULT_INTEGRATION_TOL; the first solve raises NoRealRootError if the
    root system is not real there.  The step starts at span/1024 and is
    halved until the max knot constraint residual is at most tol, the only
    acceptance test; it is identically 0 for the derivative-only rules,
    whose trajectory accuracy the tests check with independent oracles.
    """
    tol = DEFAULT_INTEGRATION_TOL
    t0, t1 = float(span[0]), float(span[1])
    if not (math.isfinite(t1 - t0) and t0 < t1):
        raise ValueError(f"integration span must be finite and forward: {span}")
    f0, g0 = float(state0[0]), float(state0[1])
    if not (math.isfinite(f0 * f0) and math.isfinite(g0 * g0)):
        raise ParamError(f"{rule.name}: initial state ({f0}, {g0}) is not "
                         "finite or too large to square")
    c0 = rule.constraint(t0, f0, g0)
    scale = max(1.0, abs(f0), abs(g0)) ** 2
    if abs(c0) > tol * scale:
        raise ParamError(
            f"{rule.name}: initial state violates constraint "
            f"(residual {abs(c0):.3e} > tol {tol * scale:.3e})")
    steps = calls = 0
    for halvings in range(_MAX_HALVINGS + 1):
        # the step span / _INITIAL_STEPS halved; rk4_integrate's count for it
        n = _INITIAL_STEPS << halvings
        *knots, k = _rk4_tracked(rule, f0, g0, t0, t1, n, None,
                                 initial_root == "larger")
        steps, calls = steps + n, calls + k
        ts, ys, dys, others = (np.fromiter(a, float, len(a)) for a in knots)
        traj = Trajectory(ts, ys.reshape(-1, 2), dys.reshape(-1, 2),
                          (t1 - t0) / n)
        with np.errstate(all="ignore"):
            res = abs(rule.constraint(traj.ts, *traj.ys.T))
        last_res = float(res.max())
        if last_res <= tol or (halvings == _MAX_HALVINGS
                               and last_res <= 10.0 * tol):
            return SampledMeridian(traj, rule, res,
                                   rule.speed_residual(*traj.dys.T),
                                   others, tol, steps, calls, halvings)
    raise ConstraintDriftError(
        f"{rule.name}: constraint residual {last_res:.3e} exceeds 10*tol "
        f"after {_MAX_HALVINGS} halvings")


class _SampledFamily(MeridianFamily):
    """A family realized from a rule by integrate_constrained; its jet_fn
    is the realization's jets."""

    def __init__(self, desc, kind, rule):
        if desc.interval is None:
            raise ParamError(f"{desc.case}: integrated family needs an interval")
        if desc.state0 is None:
            raise ParamError(f"{desc.case}: integrated family needs state0")
        f0, g0 = desc.state0
        if g0 is None:
            g0 = rule.derive_g0(desc.interval[0], f0)
        self.state0 = (float(f0), float(g0))
        self._sampled = integrate_constrained(rule, self.state0,
                                              desc.interval, desc.root)
        super().__init__(desc, kind, self._sampled.jets)

    def ensure_realized(self) -> SampledMeridian:
        return self._sampled


def _build_flat_i(desc, kind):
    a = _get(desc.params, "a", desc.case)
    c = _get(desc.params, "c", desc.case)
    _require(a != 0.0, f"{desc.case}: a must be nonzero")
    return _SampledFamily(desc, kind, _FlatRule(desc.case, kind.eps, a, c,
                                                desc.alpha, desc.beta))


def _build_fnc_ii(desc, kind):
    C = _get(desc.params, "C", desc.case)
    _require(C != 0.0, f"{desc.case}: C must be nonzero")
    return _SampledFamily(desc, kind, _FncRule(desc.case, kind.eps, C,
                                               desc.alpha, desc.beta))


def _build_min_hyp_iii(desc, kind):
    _require(desc.alpha == desc.beta, "min-hyp-iii: requires alpha == beta")
    return _SampledFamily(desc, kind,
                          _MinHyp3Rule(_get(desc.params, "c", desc.case)))


# ---------------------------------------------------------------------------
# Closed-form builders

def _require(cond: bool, msg: str):
    if not cond:
        raise ParamError(msg)


def _get(params: dict, name: str, case: str) -> float:
    try:
        if isinstance(params[name], bool):   # a JSON true is no number
            raise TypeError
        return float(params[name])
    except KeyError:
        raise ParamError(f"{case}: missing parameter {name!r}") from None
    except (TypeError, ValueError):
        raise ParamError(f"{case}: parameter {name!r} must be a number") from None


def _power_law(case, c, expo):
    def jet_fn(u):
        uj = Jet2.variable(guard(
            u, u <= 0.0, f"{case}: power-law profile needs u > 0 (got {{}})"))
        return c * uj ** expo, uj
    return jet_fn


def _build_min_i(desc, kind):
    """f = c u^(s alpha/beta), g = u (min-ell-i); min-hyp-i negates s."""
    c = _get(desc.params, "c", desc.case)
    _require(c != 0.0, f"{desc.case}: c must be nonzero")
    _require(desc.alpha != desc.beta, f"{desc.case}: requires alpha != beta")
    expo = kind.eps * (desc.sign * desc.alpha / desc.beta)
    fam = _ClosedFormFamily(desc, kind, _power_law(desc.case, c, expo))
    if kind.eps > 0.0:
        fam.diagnostics.append(
            "admissible domain is empty: f'^2 - g'^2 > 0 and "
            "alpha^2 f^2 - beta^2 g^2 < 0 are contradictory on this family")
    return fam


def _build_min_ii(desc, kind):
    """sqrt(A) (F(k t + phase)/alpha, G(t)/beta), k = s alpha/beta:
    min-ell-ii has F = G = sin and phase C; min-hyp-ii has F, G = cosh, sinh
    (A > 0) or sinh, cosh (A < 0) and phase c."""
    ell = kind.eps > 0.0
    A = _get(desc.params, "A", desc.case)
    phase = _get(desc.params, "C" if ell else "c", desc.case)
    _require(A > 0.0 if ell else A != 0.0,
             f"{desc.case}: A must be {'positive' if ell else 'nonzero'}")
    _require(desc.alpha != desc.beta, f"{desc.case}: requires alpha != beta")
    k = desc.sign * desc.alpha / desc.beta
    sa = math.sqrt(abs(A))
    fa, fb = sa / desc.alpha, sa / desc.beta
    jf, jg = ((jsin, jsin) if ell else
              (jcosh, jsinh) if A > 0.0 else (jsinh, jcosh))

    def jet_fn(t):
        tj = Jet2.variable(t)
        return fa * jf(k * tj + phase), fb * jg(tj)

    fam = _ClosedFormFamily(desc, kind, jet_fn)
    if ell and desc.alpha < desc.beta:
        fam.diagnostics.append(
            "min-ell-ii normally arises with alpha > beta (A > 0); "
            "the admissibility scan decides the actual domain")
    return fam


def _build_min_ell_iii(desc, kind):
    a = _get(desc.params, "a", desc.case)
    b = _get(desc.params, "b", desc.case)
    _require(a != 0.0, "min-ell-iii: a must be nonzero")
    _require(desc.alpha == desc.beta, "min-ell-iii: requires alpha == beta")

    def jet_fn(d):
        dj = Jet2.variable(d)
        s = jsqrt(a * dj * dj + b)
        return 0.5 * (s + dj), 0.5 * (s - dj)

    fam = _ClosedFormFamily(desc, kind, jet_fn)
    if not (a < 0.0 and b > 0.0):
        fam.diagnostics.append(
            "admissible points require a < 0 and b > 0; "
            "the admissibility scan will likely come back empty")
    return fam


def _build_pnmcv(desc, kind):
    """f = s sqrt(u^2 - C^2) (ell) or s sqrt(C^2 - u^2) (hyp), g = u."""
    C = _get(desc.params, "C", desc.case)
    _require(C != 0.0, f"{desc.case}: C must be nonzero")
    C2, sgn, ell = C * C, float(desc.sign), kind.eps > 0.0

    def jet_fn(u):
        uj = Jet2.variable(u)
        return sgn * jsqrt(uj * uj - C2 if ell else C2 - uj * uj), uj

    return _ClosedFormFamily(desc, kind, jet_fn)


def _build_flat_ii(desc, kind):
    """flat-ell-ii: sqrt(-C) (sinh t/alpha, cosh t/beta); flat-hyp-ii: cos, sin."""
    C = _get(desc.params, "C", desc.case)
    ell = kind.eps > 0.0
    _require(C < 0.0 if ell else C > 0.0,
             f"{desc.case}: C must be {'negative' if ell else 'positive'}")
    s = math.sqrt(-C if ell else C)
    fa, fb = s / desc.alpha, s / desc.beta
    jf, jg = (jsinh, jcosh) if ell else (jcos, jsin)

    def jet_fn(t):
        tj = Jet2.variable(t)
        return fa * jf(tj), fb * jg(tj)

    return _ClosedFormFamily(desc, kind, jet_fn)


def _build_fnc_i(desc, kind):
    """f = c g, g = u: fnc-ell-i (1 < c^2 < beta^2/alpha^2) and fnc-hyp-i."""
    c = _get(desc.params, "c", desc.case)
    if kind.eps > 0.0:
        ratio2 = (desc.beta / desc.alpha) ** 2
        _require(1.0 < c * c < ratio2,
                 f"fnc-ell-i: needs 1 < c^2 < beta^2/alpha^2 "
                 f"(c^2={c*c:.6g}, beta^2/alpha^2={ratio2:.6g})")
    else:
        _require(c != 0.0, "fnc-hyp-i: c must be nonzero")
        _require(desc.alpha != desc.beta, "fnc-hyp-i: requires alpha != beta")

    def jet_fn(u):
        uj = Jet2.variable(u)
        return c * uj, uj

    return _ClosedFormFamily(desc, kind, jet_fn)


def _build_custom(desc, kind):
    try:
        f_expr = JetExpr(str(desc.params["f"]))
        g_expr = JetExpr(str(desc.params["g"]))
    except KeyError as exc:
        raise ParamError(f"custom: missing expression for {exc.args[0]!r}") from None
    try:
        kind = SurfaceKind(desc.params.get("kind", "elliptic"))
    except ValueError:
        raise ParamError("custom: kind must be elliptic|hyperbolic, "
                         f"got {desc.params['kind']!r}") from None

    def jet_fn(u):
        return f_expr(u), g_expr(u)

    # raise now what holds at every u: on no u, only u-independent terms can
    evaluate_masked(jet_fn, np.empty(0))
    return _ClosedFormFamily(desc, kind, jet_fn)


def build_family(desc: FamilyDescriptor) -> MeridianFamily:
    """Validate descriptor constraints and return the family evaluator.

    Raises ParamError on constraint violations and on params keys outside
    the catalog entry's defaults (for custom: f, g, kind and C, the C of
    the pnmcv checks).  Families whose admissible domain is known to be
    empty construct fine and carry a diagnostic note; the admissibility
    scan is the authority on the actual domain.
    """
    entry = FAMILY_CATALOG.get(desc.case)
    if entry is None:
        raise ParamError(f"unknown family case {desc.case!r}")
    known = set(entry.defaults)
    if desc.case == "custom":
        known |= {"kind", "C"}
    unknown = set(desc.params) - known
    if unknown:
        raise ParamError(f"{desc.case}: unknown params {sorted(unknown)}; "
                         f"its params are {sorted(known)}")
    if not (math.isfinite(desc.alpha) and desc.alpha > 0.0):
        raise ParamError("alpha must be a positive finite number")
    if not (math.isfinite(desc.beta) and desc.beta > 0.0):
        raise ParamError("beta must be a positive finite number")
    if desc.sign not in (1, -1):
        raise ParamError("sign branch must be +1 or -1")
    if desc.root not in ("larger", "smaller"):
        raise ParamError("root branch must be 'larger' or 'smaller'")
    for key, val in desc.params.items():
        if isinstance(val, (int, float)) and not math.isfinite(float(val)):
            raise ParamError(f"{desc.case}: parameter {key!r} must be finite")
    if desc.interval is not None:
        lo, hi = desc.interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ParamError(f"{desc.case}: bad interval {desc.interval}")
    if desc.state0 is not None and entry.realization == "closed":
        raise ParamError(f"{desc.case}: closed-form family takes no f0/g0")
    return entry.build(desc, entry.kind)


# ---------------------------------------------------------------------------
# Catalog of the classified cases with canned, admissible defaults.

_SQ03 = math.sqrt(0.3)
_ELL, _HYP = SurfaceKind.ELLIPTIC, SurfaceKind.HYPERBOLIC

FAMILY_CATALOG: dict[str, CatalogEntry] = {
    "min-ell-i": CatalogEntry(
        _build_min_i, "minimal", _ELL,
        "c != 0; alpha != beta; sign picks exponent +/- alpha/beta. "
        "Admissible domain is empty for every parameter choice.",
        {"c": 1.0}, 2.0, 1.0, (0.1, 10.0)),
    "min-ell-ii": CatalogEntry(
        _build_min_ii, "minimal", _ELL,
        "A > 0, C phase constant; alpha != beta; sign picks the +/- branch. "
        "Angle-parametrized.",
        {"A": 1.0, "C": 0.3}, 2.0, 1.0, (1.05, 1.90)),
    "min-ell-iii": CatalogEntry(
        _build_min_ell_iii, "minimal", _ELL,
        "a != 0, b; alpha == beta; admissible points need a < 0, b > 0 "
        "(parameter is d = f - g, domain -sqrt(-b/a) < d < 0).",
        {"a": -1.0, "b": 1.0}, 1.0, 1.0, (-0.9, -0.1)),
    "min-hyp-i": CatalogEntry(
        _build_min_i, "minimal", _HYP,
        "c != 0; alpha != beta; sign=+1 gives exponent -alpha/beta.",
        {"c": 1.0}, 2.0, 1.0, (0.5, 3.0)),
    "min-hyp-ii": CatalogEntry(
        _build_min_ii, "minimal", _HYP,
        "A != 0 (either sign), c additive constant; alpha != beta; "
        "hyperbolic-angle-parametrized.",
        {"A": 1.0, "c": 0.2}, 2.0, 1.0, (0.1, 1.5)),
    "min-hyp-iii": CatalogEntry(
        _build_min_hyp_iii, "minimal", _HYP,
        "c angle constant; alpha == beta; unit-speed direction-field ODE "
        "from state0 = (f0, g0).",
        {"c": 0.7}, 1.0, 1.0, (0.0, 1.2), (0.3, 1.0)),
    "pnmcv-ell": CatalogEntry(
        _build_pnmcv, "pnmcv", _ELL,
        "C != 0; f = sign*sqrt(u^2 - C^2), g = u on |u| > |C|.",
        {"C": 2.0}, 1.0, 3.0, (2.1, 6.0)),
    "pnmcv-hyp": CatalogEntry(
        _build_pnmcv, "pnmcv", _HYP,
        "C != 0; f = sign*sqrt(C^2 - u^2), g = u on |u| < |C|.",
        {"C": 2.0}, 1.3, 0.7, (0.2, 1.8)),
    "flat-ell-i": CatalogEntry(
        _build_flat_i, "flat", _ELL,
        "a != 0, c; implicit beta^2 g^2 - alpha^2 f^2 = a^2 (u+c)^2 with "
        "unit speed; state0 = (f0, g0) on the constraint (g0 may be omitted).",
        {"a": 0.5, "c": 0.0}, 1.0, 1.0, (1.0, 1.5), (1.0, math.sqrt(1.25))),
    "flat-ell-ii": CatalogEntry(
        _build_flat_ii, "flat", _ELL,
        "C < 0; alpha^2 f^2 - beta^2 g^2 = C, hyperbolic-angle-parametrized.",
        {"C": -4.0}, 1.0, 1.0, (-1.0, 1.0)),
    "flat-hyp-i": CatalogEntry(
        _build_flat_i, "flat", _HYP,
        "a != 0, c; implicit alpha^2 f^2 + beta^2 g^2 = a^2 (u+c)^2 with "
        "unit speed; state0 = (f0, g0) on the constraint (g0 may be omitted).",
        {"a": 0.8, "c": 0.0}, 1.2, 0.8, (1.0, 1.6), (_SQ03 / 1.2, None)),
    "flat-hyp-ii": CatalogEntry(
        _build_flat_ii, "flat", _HYP,
        "C > 0; alpha^2 f^2 + beta^2 g^2 = C, circle-parametrized.",
        {"C": 4.0}, 1.5, 0.75, (0.1, 1.2)),
    "fnc-ell-i": CatalogEntry(
        _build_fnc_i, "fnc", _ELL,
        "1 < c^2 < beta^2/alpha^2 (forces alpha < beta); f = c*g, g = u.",
        {"c": 1.2}, 1.0, 2.0, (0.5, 3.0)),
    "fnc-ell-ii": CatalogEntry(
        _build_fnc_ii, "fnc", _ELL,
        "C != 0; unit speed with f f' - g g' = C*sqrt(f'^2-g'^2)*"
        "sqrt(beta^2 g^2 - alpha^2 f^2); state0 = (f0, g0).",
        {"C": 0.3}, 1.0, 2.0, (0.0, 0.5), (0.0, 1.0)),
    "fnc-hyp-i": CatalogEntry(
        _build_fnc_i, "fnc", _HYP,
        "c != 0; alpha != beta; f = c*g, g = u.",
        {"c": 0.8}, 2.0, 1.0, (0.5, 3.0)),
    "fnc-hyp-ii": CatalogEntry(
        _build_fnc_ii, "fnc", _HYP,
        "C != 0; unit speed with f f' + g g' = C*sqrt(f'^2+g'^2)*"
        "sqrt(alpha^2 f^2 + beta^2 g^2); state0 = (f0, g0).",
        {"C": 0.4}, 1.0, 2.0, (0.0, 1.0), (0.6, 0.8)),
    "custom": CatalogEntry(
        _build_custom, None, _ELL,
        "f, g: closed-form expressions in u (params f=..., g=..., "
        "kind=elliptic|hyperbolic, C for the pnmcv checks); interval required.",
        {"f": "u", "g": "u"}, 1.0, 1.0, (0.5, 3.0)),
}


def classified_case_ids() -> list[str]:
    """The sixteen classified cases, in catalog order (custom excluded)."""
    return [k for k in FAMILY_CATALOG if k != "custom"]


def descriptor_from_catalog(case: str, params: dict | None = None,
                            **kw) -> FamilyDescriptor:
    """Descriptor pre-filled with the catalog defaults for a case; params
    override the catalog's key by key, kw (alpha, beta, sign, root,
    interval, state0) field by field."""
    try:
        entry = FAMILY_CATALOG[case]
    except KeyError:
        raise ParamError(f"unknown family case {case!r}") from None
    return FamilyDescriptor(
        case=case,
        params={**entry.defaults, **(params or {})},
        alpha=kw.pop("alpha", entry.default_alpha),
        beta=kw.pop("beta", entry.default_beta),
        interval=kw.pop("interval", entry.default_interval),
        state0=kw.pop("state0", entry.default_state0),
        **kw)
