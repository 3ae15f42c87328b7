import math

import pytest
from hypothesis import given, strategies as st

from grs4.pe4 import PEVector4, inner, pow2

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def vec(a, b, c, d):
    return PEVector4(a, b, c, d)


def test_signature_on_basis_vectors():
    e1 = vec(1, 0, 0, 0)
    e3 = vec(0, 0, 1, 0)
    assert inner(e1, e1) == 1.0
    assert inner(e3, e3) == -1.0
    assert inner(vec(1, 0, 1, 0), vec(1, 0, 1, 0)) == 0.0


def test_inner_explicit():
    a = vec(1.0, 2.0, 3.0, 4.0)
    b = vec(5.0, 6.0, 7.0, 8.0)
    assert inner(a, b) == 5.0 + 12.0 - 21.0 - 32.0


@given(finite, finite, finite, finite, finite, finite, finite, finite)
def test_inner_symmetric(a1, a2, a3, a4, b1, b2, b3, b4):
    a, b = vec(a1, a2, a3, a4), vec(b1, b2, b3, b4)
    assert inner(a, b) == inner(b, a)


@given(st.floats(min_value=-100, max_value=100, allow_nan=False),
       *(finite for _ in range(12)))
def test_inner_bilinear(s, a1, a2, a3, a4, b1, b2, b3, b4, c1, c2, c3, c4):
    a, b, c = vec(a1, a2, a3, a4), vec(b1, b2, b3, b4), vec(c1, c2, c3, c4)
    lhs = inner(a * s + b, c)
    rhs = s * inner(a, c) + inner(b, c)
    scale = (abs(s) * a.euclid_norm() + b.euclid_norm()) * c.euclid_norm() + 1.0
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_vector_arithmetic():
    a = vec(1, 2, 3, 4)
    b = vec(4, 3, 2, 1)
    assert (a + b).components() == (5, 5, 5, 5)
    assert (a - b).components() == (-3, -1, 1, 3)
    assert (-a).components() == (-1, -2, -3, -4)
    assert (a * 2.0).components() == (2, 4, 6, 8)
    assert (2.0 * a).components() == (2, 4, 6, 8)
    assert math.isclose(a.euclid_norm(), math.sqrt(30.0))


def test_vector_times_vector_rejected():
    a = vec(1, 2, 3, 4)
    with pytest.raises(TypeError):
        a * a


def test_pow2_past_the_float_range_is_inf():
    """Where Python's ** overflows the square is inf, on arrays and floats;
    finite squares keep the bits of **."""
    import numpy as np

    xs = [1e200, 3.0, -1e200, 1.1e154, 0.1]
    got = pow2(np.array(xs))
    assert got.tolist() == [math.inf, 9.0, math.inf, 1.1e154 ** 2, 0.1 ** 2]
    assert pow2(np.array(xs).reshape(5, 1)).shape == (5, 1)
    assert [pow2(x) for x in xs] == got.tolist()
    assert pow2(np.array([3.0, 0.1])).tolist() == [9.0, 0.1 ** 2]
