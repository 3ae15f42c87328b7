"""Fixed-step classical RK4 with dense output.

Fixed steps keep knot grids reproducible across runs, which the regression
baselines rely on; accuracy is tuned by halving the step globally rather
than by adaptive control.
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


def _rk4_step(field, t, y, h):
    k1 = field(t, y)
    k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = field(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = field(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1


def rk4_integrate(field, y0, t0: float, t1: float, h: float) -> Trajectory:
    """Integrate y' = field(t, y) from t0 to t1 with fixed step ~h.

    The step is adjusted so the span divides evenly; the field is called
    4n + 1 times for n steps.  Exceptions raised by the field propagate.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if t1 <= t0:
        raise ValueError("integration span must be forward (t1 > t0)")
    y = np.asarray(y0, dtype=float)
    n = max(1, int(math.ceil((t1 - t0) / h - 1e-12)))
    hs = (t1 - t0) / n

    ts = np.empty(n + 1)
    ys = np.empty((n + 1,) + y.shape)
    dys = np.empty_like(ys)

    ts[0] = t0
    ys[0] = y
    for i in range(n):
        t = t0 + i * hs
        ys[i + 1], dys[i] = _rk4_step(field, t, ys[i], hs)
        ts[i + 1] = t0 + (i + 1) * hs
    dys[n] = field(ts[n], ys[n])

    return Trajectory(ts=ts, ys=ys, dys=dys, h=hs)


def hermite_eval(traj: Trajectory, t: float) -> np.ndarray:
    """Cubic Hermite dense output; exact at knots.

    Raises RangeError outside [t0, t1] (a relative slack of ~1e-12 of the
    span is tolerated and clamped).
    """
    t0, t1 = traj.t0, traj.t1
    slack = 1e-12 * max(1.0, abs(t1 - t0))
    if t < t0 - slack or t > t1 + slack:
        raise RangeError(f"query t={t} outside integrated span [{t0}, {t1}]")
    t = min(max(t, t0), t1)

    i = int(np.searchsorted(traj.ts, t, side="right")) - 1
    i = min(max(i, 0), len(traj.ts) - 2)
    ta, tb = traj.ts[i], traj.ts[i + 1]
    if t == ta:
        return traj.ys[i].copy()
    if t == tb:
        return traj.ys[i + 1].copy()
    hi = tb - ta
    s = (t - ta) / hi
    s2, s3 = s * s, s * s * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return (h00 * traj.ys[i] + h10 * hi * traj.dys[i]
            + h01 * traj.ys[i + 1] + h11 * hi * traj.dys[i + 1])
