import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grs4.errors import DomainError
from grs4.jets import (Jet2, JetExpr, evaluate_masked, jarcsin, jarctan,
                       jcos, jcosh, jexp, jlog, jsin, jsinh, jsqrt)

param = st.floats(min_value=0.3, max_value=3.0, allow_nan=False)


def test_variable_and_const_lifts():
    u = Jet2.variable(2.5)
    assert (u.val, u.d1, u.d2) == (2.5, 1.0, 0.0)
    c = Jet2.const(7.0)
    assert (c.val, c.d1, c.d2) == (7.0, 0.0, 0.0)


def test_sin_chain_rule_example():
    out = jsin(Jet2(math.pi / 2, 1.0, 0.0))
    assert abs(out.val - 1.0) <= 1e-15
    assert abs(out.d1) <= 1e-15
    assert abs(out.d2 + 1.0) <= 1e-15


def test_product_leibniz_example():
    out = Jet2(2.0, 1.0, 0.0) * Jet2(3.0, 1.0, 0.0)
    assert (out.val, out.d1, out.d2) == (6.0, 5.0, 2.0)


def test_sqrt_example():
    out = jsqrt(Jet2(4.0, 1.0, 0.0))
    assert (out.val, out.d1, out.d2) == (2.0, 0.25, -0.03125)


def test_division_quotient_rule():
    u = Jet2.variable(2.0)
    q = 1.0 / u
    assert q.val == 0.5
    assert q.d1 == -0.25
    assert abs(q.d2 - 0.25) <= 1e-15  # second derivative of 1/u is 2/u^3


def test_scalar_mixing():
    u = Jet2.variable(1.5)
    out = 2.0 * u + 1.0 - u / 2.0
    assert math.isclose(out.val, 2.0 * 1.5 + 1.0 - 0.75)
    assert math.isclose(out.d1, 1.5)
    assert out.d2 == 0.0


def test_integer_and_real_powers():
    u = Jet2.variable(2.0)
    sq = u ** 2
    assert (sq.val, sq.d1, sq.d2) == (4.0, 4.0, 2.0)
    p = u ** 0.5
    assert math.isclose(p.val, math.sqrt(2.0))
    assert math.isclose(p.d1, 0.5 / math.sqrt(2.0))
    cube_inv = u ** -2
    assert math.isclose(cube_inv.val, 0.25)
    assert math.isclose(cube_inv.d1, -2.0 * 2.0 ** -3)
    assert math.isclose(cube_inv.d2, 6.0 * 2.0 ** -4)


def _composite(u: Jet2) -> Jet2:
    return jsin(u) * jsqrt(u + 3.0) + jexp(0.3 * u) / (u * u + 2.0)


def _fd(fun, u, h):
    lo, hi = fun(u - h), fun(u + h)
    mid = fun(u)
    d1 = (hi - lo) / (2.0 * h)
    d2 = (hi - 2.0 * mid + lo) / (h * h)
    return d1, d2


@given(param)
def test_composite_matches_finite_differences(u0):
    jet = _composite(Jet2.variable(u0))
    scalar = lambda t: _composite(Jet2.variable(t)).val
    d1, d2 = _fd(scalar, u0, 1e-5)
    assert abs(jet.d1 - d1) <= 1e-7 * max(1.0, abs(jet.d1))
    assert abs(jet.d2 - d2) <= 1e-4 * max(1.0, abs(jet.d2))


def test_fd_convergence_is_second_order():
    u0 = 1.3
    jet = _composite(Jet2.variable(u0))
    scalar = lambda t: _composite(Jet2.variable(t)).val
    errs1, errs2 = [], []
    for h in (1e-3, 5e-4):
        d1, d2 = _fd(scalar, u0, h)
        errs1.append(abs(jet.d1 - d1))
        errs2.append(abs(jet.d2 - d2))
    assert errs1[0] / errs1[1] == pytest.approx(4.0, abs=1.0)
    assert errs2[0] / errs2[1] == pytest.approx(4.0, abs=1.5)


def test_composition_two_routes_agree():
    # sin(sqrt(u)) composed through jets vs the fused closed form
    u0 = 2.7
    nested = jsin(jsqrt(Jet2.variable(u0)))
    r = math.sqrt(u0)
    fused_val = math.sin(r)
    fused_d1 = math.cos(r) / (2.0 * r)
    fused_d2 = -math.sin(r) / (4.0 * u0) - math.cos(r) / (4.0 * u0 * r)
    assert abs(nested.val - fused_val) <= 1e-14 * max(1.0, abs(fused_val))
    assert abs(nested.d1 - fused_d1) <= 1e-14 * max(1.0, abs(fused_d1))
    assert abs(nested.d2 - fused_d2) <= 1e-14 * max(1.0, abs(fused_d2))


def test_elementary_coverage():
    u = Jet2.variable(0.4)
    for fn, ref in ((jcos, math.cos), (jsinh, math.sinh),
                    (jcosh, math.cosh), (jexp, math.exp),
                    (jlog, math.log), (jarcsin, math.asin),
                    (jarctan, math.atan)):
        assert fn(u).val == pytest.approx(ref(0.4), rel=1e-15)


def test_domain_errors():
    u = Jet2.variable(-1.0)
    with pytest.raises(DomainError):
        jsqrt(u)
    with pytest.raises(DomainError):
        jlog(Jet2.variable(0.0))
    with pytest.raises(DomainError):
        jarcsin(Jet2.variable(1.5))
    with pytest.raises(DomainError):
        Jet2.variable(1.0) / Jet2.const(0.0)
    with pytest.raises(DomainError):
        Jet2.variable(-2.0) ** 0.5


@pytest.mark.parametrize("text,us", [
    ("exp(u)", [1.0, 709.0, 710.0, 800.0]),
    ("sinh(u) + cosh(u)", [-711.0, 3.0, 711.0]),
    ("u ** -3", [1e-120, 1e-100, 2.0]),
    ("u ** 2.5", [1e200, 0.5]),
    ("(u * 1e100) ** 4", [1e5, 1e-30]),
])
def test_overflow_is_a_domain_error_on_floats_and_masked_on_arrays(text, us):
    """A power or exponential past the float range raises DomainError on a
    float; on an array it masks those elements and leaves the others with
    the float route's bits."""
    expr = JetExpr(text)
    want = []
    for u in us:
        try:
            j = expr(u)
        except DomainError:
            want.append(None)
        else:
            want.append([x.hex() for x in (j.val, j.d1, j.d2)])
    assert None in want and any(w is not None for w in want)
    out, raised = evaluate_masked(expr, np.array(us))
    assert raised.tolist() == [w is None for w in want]
    for i, w in enumerate(want):
        cols = [float(np.broadcast_to(x, len(us))[i])
                for x in (out.val, out.d1, out.d2)]
        if w is None:
            assert any(math.isnan(x) for x in cols)
        else:
            assert [x.hex() for x in cols] == w


@pytest.mark.parametrize("text", ["u * 10.0 ** 400", "u * 2 ** 2000"])
def test_constant_past_the_float_range_is_a_domain_error(text):
    with pytest.raises(DomainError, match="past the float range"):
        JetExpr(text)(1.0)
    with pytest.raises(DomainError, match="past the float range"):
        evaluate_masked(JetExpr(text), np.array([1.0, 2.0]))


@pytest.mark.parametrize("text,msg", [
    ("1/0*u", "constant divides by zero"),
    ("0**-1*u", "constant divides by zero"),
    ("(-8)**0.5*u", "constant is complex"),
    ("(-8)**0.5", "constant is complex"),
    ("sqrt((-8.0)**(1/3))", "constant is complex"),
])
def test_constant_without_a_real_value_is_a_domain_error(text, msg):
    with pytest.raises(DomainError, match=msg):
        JetExpr(text)(1.0)
    with pytest.raises(DomainError, match=msg):
        evaluate_masked(JetExpr(text), np.array([1.0, 2.0]))


def test_exponent_must_be_a_number():
    for bad in ("2**u", "u**u", "u**sqrt(2)", "u**(1 + 0*u)"):
        with pytest.raises(DomainError, match="exponent of"):
            JetExpr(bad)
    for text, k in (("u**2", 2), ("u**-3", -3), ("u**(1/2)", 0.5),
                    ("u**(pi/2)", math.pi / 2)):
        out = JetExpr(text)(2.0)
        assert out.val == pytest.approx(2.0 ** k)
        assert out.d1 == pytest.approx(k * 2.0 ** (k - 1))


def test_underflow_floors_are_the_last_zero_products():
    from grs4.jets import _CUBE_FLOOR, _SQ_FLOOR

    up = math.nextafter(_SQ_FLOOR, 1.0)
    assert _SQ_FLOOR * _SQ_FLOOR == 0.0 < up * up
    up = math.nextafter(_CUBE_FLOOR, 1.0)
    assert _CUBE_FLOOR * math.sqrt(_CUBE_FLOOR) == 0.0 < up * math.sqrt(up)


def test_expression_descriptor():
    expr = JetExpr("sqrt(u*u - 4)")
    out = expr(3.0)
    assert out.val == pytest.approx(math.sqrt(5.0))
    assert out.d1 == pytest.approx(3.0 / math.sqrt(5.0))
    const = JetExpr("2 + 3")(1.0)
    assert (const.val, const.d1, const.d2) == (5.0, 0.0, 0.0)


def test_expression_whitelist():
    for bad in ("__import__('os')", "u.__class__", "open('x')",
                "lambda: 1", "[1,2]", "'str'"):
        with pytest.raises(DomainError):
            JetExpr(bad)
    with pytest.raises(DomainError):
        JetExpr("sin(u, u)")
    with pytest.raises(DomainError):
        JetExpr("q + 1")
