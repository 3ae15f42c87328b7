"""Fixed-step classical RK4 with dense output, for planar states (f, g).

Fixed steps keep knot grids reproducible across runs, which the regression
baselines rely on; accuracy is tuned by halving the step globally rather
than by adaptive control.  Every integrated meridian advances the two
profile coordinates (f, g), so the step is written out for exactly two
components on Python floats: cheaper than numpy arithmetic on short arrays
or a per-component loop, with the bits of the vector form (which
meridians._rk4_tracked repeats with a meridian's root solve inline); only
the finished trajectory is stored as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError


@dataclass(frozen=True)
class Trajectory:
    """RK4 solution: knots with their states and field values."""

    ts: np.ndarray
    ys: np.ndarray
    dys: np.ndarray
    h: float

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])


def rk4_integrate(field, y0, t0: float, t1: float, h: float) -> Trajectory:
    """Integrate the planar system y' = field(t, y) from t0 to t1, step ~h.

    The state y0 holds two floats (f, g); a state of any other length raises
    ValueError.  The field takes t and the state as a list of two floats and
    returns a pair (a tuple, a list or a 1-d ndarray); a field value of
    another length raises ValueError.  Each component advances in float
    arithmetic in the order of the classical vector form
    y + (h/6)(((k1 + 2 k2) + 2 k3) + k4), the stages at y + (h/2) k and
    y + h k.  The step is adjusted so the span divides evenly; the field is
    called 4n + 1 times for n steps, in the order k1, k2, k3, k4 of each
    step and once more at the last knot, so call 4i is at knot i, at
    (ts[i], ys[i]).  Exceptions raised by the field propagate.
    """
    t0, t1, h = float(t0), float(t1), float(h)
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(h)):
        raise ValueError(f"t0, t1 and h must be finite (got {t0}, {t1}, {h})")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if t1 <= t0:
        raise ValueError("integration span must be forward (t1 > t0)")
    y = [float(v) for v in y0]
    if len(y) != 2:
        raise ValueError(f"state must be planar (f, g), got {len(y)} components")
    f, g = y
    n = max(1, int(math.ceil((t1 - t0) / h - 1e-12)))
    hs = (t1 - t0) / n
    half, sixth = 0.5 * hs, hs / 6.0

    ts = [t0]
    ys = [y]
    dys = []
    for i in range(n):
        t = t0 + i * hs
        k1 = field(t, y)
        a1, b1 = k1
        a2, b2 = field(t + half, [f + half * a1, g + half * b1])
        a3, b3 = field(t + half, [f + half * a2, g + half * b2])
        a4, b4 = field(t + hs, [f + hs * a3, g + hs * b3])
        f = f + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
        g = g + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
        y = [f, g]
        ys.append(y)
        dys.append(k1)
        ts.append(t0 + (i + 1) * hs)
    dys.append(field(ts[n], y))

    return Trajectory(ts=np.array(ts), ys=np.array(ys, dtype=float),
                      dys=np.array(dys, dtype=float), h=hs)


def hermite_eval(traj: Trajectory, t: np.ndarray) -> np.ndarray:
    """Cubic Hermite dense output; exact at knots.

    t is a 1-d array of n floats; row i of the (n, 2) result is the state
    (f, g) at t[i].  Raises RangeError if any t lies outside [t0, t1] or is
    NaN (a relative slack of ~1e-12 of the span is tolerated and clamped).
    """
    t = np.asarray(t, dtype=float)
    t0, t1 = traj.t0, traj.t1
    slack = 1e-12 * max(1.0, abs(t1 - t0))
    tmin, tmax = (t.min(), t.max()) if t.size else (t0, t1)   # NaN if any is
    if not (t0 - slack <= tmin and tmax <= t1 + slack):
        bad = t[~((t0 - slack <= t) & (t <= t1 + slack))][0]
        raise RangeError(f"query t={float(bad)} outside integrated span "
                         f"[{t0}, {t1}]")
    if tmin < t0 or tmax > t1:
        t = np.minimum(np.maximum(t, t0), t1)

    # the step [ts[i], ts[i+1]] holding t, the last one for t = t1
    i = np.searchsorted(traj.ts[1:-1], t, side="right")
    ta, tb = traj.ts[i], traj.ts[i + 1]
    ya, yb = traj.ys[i], traj.ys[i + 1]
    hi = tb - ta
    s = ((t - ta) / hi)[:, None]
    hi = hi[:, None]
    s2, s3 = s * s, s * s * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    y = (h00 * ya + h10 * hi * traj.dys[i]
         + h01 * yb + h11 * hi * traj.dys[i + 1])
    # a query at a knot returns the knot's stored state
    y = np.where((t == ta)[:, None], ya, np.where((t == tb)[:, None], yb, y))
    return y
