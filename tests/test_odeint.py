import math

import numpy as np
import pytest

from grs4.errors import RangeError
from grs4.odeint import hermite_eval, rk4_integrate


# The integrator advances planar states only.  Scalar test problems run as
# component 0 of a planar state whose component 1 is a decoupled twin.

def exp_field(t, y):
    return (y[0], -0.5 * y[1])


def test_exponential_endpoint():
    traj = rk4_integrate(exp_field, [1.0, 1.0], 0.0, 1.0, 0.01)
    assert abs(traj.ys[-1][0] - math.e) <= 1e-7


def test_constant_field_exact():
    traj = rk4_integrate(lambda t, y: np.zeros_like(y), [3.25, -1.0],
                         0.0, 5.0, 0.1)
    assert np.all(traj.ys[:, 0] == 3.25)


def test_harmonic_oscillator_conservation():
    def field(t, y):
        return np.array([y[1], -y[0]])

    traj = rk4_integrate(field, [1.0, 0.0], 0.0, 2.0 * math.pi, 0.001)
    assert np.max(np.abs(traj.ys[-1] - np.array([1.0, 0.0]))) <= 1e-9
    energy = traj.ys[:, 0] ** 2 + traj.ys[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) <= 1e-10


def test_fourth_order_convergence():
    def endpoint_error(h):
        traj = rk4_integrate(exp_field, [1.0, 1.0], 0.0, 1.0, h)
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
        traj = rk4_integrate(field, [1.0, 1.0], 0.0, 1.0, 1.0 / n)
        assert len(traj.ts) == n + 1
        assert len(calls) == 4 * n + 1


def test_hermite_exact_at_knots():
    traj = rk4_integrate(exp_field, [1.0, 1.0], 0.0, 1.0, 0.1)
    for t, y in zip(traj.ts, traj.ys):
        assert hermite_eval(traj, np.array([t]))[0][0] == y[0]


def test_hermite_midstep_within_interpolation_bound():
    # At mid-step the cubic Hermite interpolant of exact data is off by at
    # most h^4/384 max|y^(4)|.  An error e in the bracketing knot states (and,
    # for y' = y, the same e in their slopes) adds at most (1 + h/4) e.
    traj = rk4_integrate(exp_field, [1.0, 1.0], 0.0, 1.0, 0.1)
    h = traj.h
    knot_err = np.abs(traj.ys[:, 0] - np.exp(traj.ts))
    for i in range(len(traj.ts) - 1):
        t = 0.5 * (traj.ts[i] + traj.ts[i + 1])
        err = abs(hermite_eval(traj, np.array([t]))[0][0] - math.exp(t))
        interp = h ** 4 / 384.0 * math.exp(traj.ts[i + 1])
        data = (1.0 + h / 4.0) * max(knot_err[i], knot_err[i + 1])
        assert err <= interp + data


def test_hermite_exact_on_linear_fields():
    traj = rk4_integrate(lambda t, y: np.array([2.0, -1.0]), [1.0, 0.0],
                         0.0, 4.0, 0.5)
    for t in np.linspace(0.0, 4.0, 37):
        expect = 1.0 + 2.0 * t
        assert abs(hermite_eval(traj, np.array([t]))[0][0] - expect) <= 1e-13


def test_range_error_outside_span():
    traj = rk4_integrate(exp_field, [1.0, 1.0], 0.0, 1.0, 0.1)
    with pytest.raises(RangeError):
        hermite_eval(traj, np.array([-0.5]))
    with pytest.raises(RangeError):
        hermite_eval(traj, np.array([1.5]))
    with pytest.raises(RangeError):
        hermite_eval(traj, np.array([math.nan]))


def test_invalid_step_rejected():
    with pytest.raises(ValueError):
        rk4_integrate(exp_field, [1.0, 1.0], 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        rk4_integrate(exp_field, [1.0, 1.0], 1.0, 0.0, 0.1)


def _vector_rk4(field, y0, t0, t1, h):
    """Reference: the same scheme on numpy vectors, one array op per term."""
    n = max(1, int(math.ceil((t1 - t0) / h - 1e-12)))
    hs = (t1 - t0) / n
    ts = np.empty(n + 1)
    ys = np.empty((n + 1, len(y0)))
    dys = np.empty_like(ys)
    ts[0], ys[0] = t0, y0
    for i in range(n):
        t, y = t0 + i * hs, ys[i]
        k1 = np.asarray(field(t, y), dtype=float)
        k2 = np.asarray(field(t + 0.5 * hs, y + 0.5 * hs * k1), dtype=float)
        k3 = np.asarray(field(t + 0.5 * hs, y + 0.5 * hs * k2), dtype=float)
        k4 = np.asarray(field(t + hs, y + hs * k3), dtype=float)
        ys[i + 1] = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        dys[i] = k1
        ts[i + 1] = t0 + (i + 1) * hs
    dys[n] = field(ts[n], ys[n])
    return ts, ys, dys, hs


def _rhs_1(t, y):
    return [math.sin(t) * y[0] - 0.3 * y[0] ** 3]


def _rhs_2(t, y):
    return [y[1], -math.sin(y[0]) + 0.1 * math.cos(t)]


def _rhs_duffing(t, y):   # forced Duffing oscillator, chaotic parameters
    return [y[1], -0.3 * y[1] + y[0] - y[0] ** 3 + 0.5 * math.cos(1.2 * t)]


def _rhs_3(t, y):     # Lorenz
    return [10.0 * (y[1] - y[0]), y[0] * (28.0 - y[2]) - y[1],
            y[0] * y[1] - (8.0 / 3.0) * y[2]]


@pytest.mark.parametrize("rhs,y0", [(_rhs_1, [0.7]), (_rhs_2, [1.0, 0.25]),
                                    (_rhs_3, [1.0, 1.0, 20.0]),
                                    (_rhs_duffing, [0.1, 0.0])])
@pytest.mark.parametrize("wrap", [list, tuple, np.array])
def test_field_return_types_give_vector_form_bits(rhs, y0, wrap):
    if len(y0) != 2:    # the state must be planar; the field is never called
        calls = []

        def field(t, y):
            calls.append(t)
            return wrap(rhs(t, y))

        for state in (y0, np.array(y0)):
            with pytest.raises(ValueError, match="planar"):
                rk4_integrate(field, state, 0.0, 3.0, 0.01)
        assert calls == []
        return
    traj = rk4_integrate(lambda t, y: wrap(rhs(t, y)), y0, 0.0, 3.0, 0.01)
    ts, ys, dys, hs = _vector_rk4(rhs, np.array(y0), 0.0, 3.0, 0.01)
    assert traj.ys.shape == (301, 2) and traj.dys.shape == traj.ys.shape
    for got, want in ((traj.ts, ts), (traj.ys, ys), (traj.dys, dys)):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert repr(traj.h) == repr(hs)


def test_field_gets_list_of_floats():
    seen = []

    def field(t, y):
        seen.append((type(t), type(y), {type(v) for v in y}))
        return (y[1], -y[0])

    rk4_integrate(field, np.array([1.0, 0.0]), 0.0, 1.0, 0.25)
    assert len(seen) == 4 * 4 + 1
    assert all(tt is float and ty is list and tv == {float} for tt, ty, tv in seen)


def test_field_value_of_wrong_length_rejected():
    with pytest.raises(ValueError):
        rk4_integrate(lambda t, y: [1.0, 2.0, 3.0], [0.0, 0.0], 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        rk4_integrate(lambda t, y: [1.0], [0.0, 0.0], 0.0, 1.0, 0.5)


@pytest.mark.parametrize("t0,t1,h", [
    (math.nan, 1.0, 0.1), (0.0, math.nan, 0.1), (0.0, 1.0, math.nan),
    (-math.inf, 1.0, 0.1), (0.0, math.inf, 0.1), (0.0, 1.0, math.inf),
])
def test_non_finite_span_or_step_rejected(t0, t1, h):
    with pytest.raises(ValueError, match="must be finite"):
        rk4_integrate(exp_field, [1.0, 1.0], t0, t1, h)


def test_field_errors_propagate():
    class Boom(RuntimeError):
        pass

    def field(t, y):
        if t > 0.5:
            raise Boom("field blew up")
        return y

    with pytest.raises(Boom):
        rk4_integrate(field, [1.0, 1.0], 0.0, 1.0, 0.1)
