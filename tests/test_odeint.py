import math

import numpy as np
import pytest

from grs4.errors import RangeError
from grs4.odeint import hermite_eval, rk4_integrate


def exp_field(t, y):
    return y


def test_exponential_endpoint():
    traj = rk4_integrate(exp_field, [1.0], 0.0, 1.0, 0.01)
    assert abs(traj.ys[-1][0] - math.e) <= 1e-7


def test_constant_field_exact():
    traj = rk4_integrate(lambda t, y: np.zeros_like(y), [3.25], 0.0, 5.0, 0.1)
    assert np.all(traj.ys == 3.25)


def test_harmonic_oscillator_conservation():
    def field(t, y):
        return np.array([y[1], -y[0]])

    traj = rk4_integrate(field, [1.0, 0.0], 0.0, 2.0 * math.pi, 0.001)
    assert np.max(np.abs(traj.ys[-1] - np.array([1.0, 0.0]))) <= 1e-9
    energy = traj.ys[:, 0] ** 2 + traj.ys[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) <= 1e-10


def test_fourth_order_convergence():
    def endpoint_error(h):
        traj = rk4_integrate(exp_field, [1.0], 0.0, 1.0, h)
        return abs(traj.ys[-1][0] - math.e)

    ratio = endpoint_error(0.05) / endpoint_error(0.025)
    assert 14.0 <= ratio <= 18.0


def test_field_called_four_times_per_step_plus_one():
    calls = []

    def field(t, y):
        calls.append(t)
        return y

    for n in (1, 7, 64):
        calls.clear()
        traj = rk4_integrate(field, [1.0], 0.0, 1.0, 1.0 / n)
        assert len(traj.ts) == n + 1
        assert len(calls) == 4 * n + 1


def test_hermite_exact_at_knots():
    traj = rk4_integrate(exp_field, [1.0], 0.0, 1.0, 0.1)
    for t, y in zip(traj.ts, traj.ys):
        assert hermite_eval(traj, float(t))[0] == y[0]


def test_hermite_midstep_within_interpolation_bound():
    # At mid-step the cubic Hermite interpolant of exact data is off by at
    # most h^4/384 max|y^(4)|.  An error e in the bracketing knot states (and,
    # for y' = y, the same e in their slopes) adds at most (1 + h/4) e.
    traj = rk4_integrate(exp_field, [1.0], 0.0, 1.0, 0.1)
    h = traj.h
    knot_err = np.abs(traj.ys[:, 0] - np.exp(traj.ts))
    for i in range(len(traj.ts) - 1):
        t = 0.5 * (traj.ts[i] + traj.ts[i + 1])
        err = abs(hermite_eval(traj, float(t))[0] - math.exp(t))
        interp = h ** 4 / 384.0 * math.exp(traj.ts[i + 1])
        data = (1.0 + h / 4.0) * max(knot_err[i], knot_err[i + 1])
        assert err <= interp + data


def test_hermite_exact_on_linear_fields():
    traj = rk4_integrate(lambda t, y: np.array([2.0]), [1.0], 0.0, 4.0, 0.5)
    for t in np.linspace(0.0, 4.0, 37):
        expect = 1.0 + 2.0 * t
        assert abs(hermite_eval(traj, float(t))[0] - expect) <= 1e-13


def test_range_error_outside_span():
    traj = rk4_integrate(exp_field, [1.0], 0.0, 1.0, 0.1)
    with pytest.raises(RangeError):
        hermite_eval(traj, -0.5)
    with pytest.raises(RangeError):
        hermite_eval(traj, 1.5)


def test_invalid_step_rejected():
    with pytest.raises(ValueError):
        rk4_integrate(exp_field, [1.0], 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        rk4_integrate(exp_field, [1.0], 1.0, 0.0, 0.1)


def test_field_errors_propagate():
    class Boom(RuntimeError):
        pass

    def field(t, y):
        if t > 0.5:
            raise Boom("field blew up")
        return y

    with pytest.raises(Boom):
        rk4_integrate(field, [1.0], 0.0, 1.0, 0.1)
