"""Order-2 jet (Taylor) arithmetic for exact derivative propagation.

A Jet2 carries a value together with its first and second derivatives with
respect to one scalar parameter.  Arithmetic follows the Leibniz rule and
compositions follow the chain rule, both to second order, so meridian
formulas evaluated on jets yield exact f, f', f'', g, g', g''.

The fields are floats, or float ndarrays that carry one parameter value per
element (fields may mix the two), so a formula written once evaluates one
point or a whole parameter grid.  Elementary functions and powers are taken
per element with math and Python's ** (numpy's transcendentals differ in the
last bit), and numpy does only the elementwise + - * /, in the float
route's order, so each element equals the float route's value to the bit.
Where the float route raises DomainError (sqrt, log or a real power of a
non-positive value, division by a value below _DIV_FLOOR, a negative power
of zero, arcsin outside (-1, 1)), the array route sets that element to NaN
instead and carries on; evaluate_masked reports those elements as a mask,
which keeps them apart from a NaN the float route returns without raising.
The second-derivative terms of sqrt, log and real powers divide by v*v or
v*sqrt(v), which underflow to zero for positive v up to _CUBE_FLOOR (sqrt)
or _SQ_FLOOR; their guards count such a v as outside the domain, like a
non-positive one.  So do exp, sinh, cosh and powers whose result is past
the float range (where Python raises OverflowError).
"""

from __future__ import annotations

import ast
import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_DIV_FLOOR = 1e-300
# the largest x with x * x == 0.0, and with x * sqrt(x) == 0.0
_SQ_FLOOR, _CUBE_FLOOR = 1.5717277847026285e-162, 1.827411866876897e-216

# the masks of the guards fired inside evaluate_masked, None outside it
_FIRED: ContextVar[list | None] = ContextVar("_FIRED", default=None)


def guard(val, bad, msg: str):
    """val where an operation is defined: on a float, DomainError with
    msg.format(val) if bad holds; on an array, val with NaN at the elements
    where bad holds, which evaluate_masked reports as raised."""
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return val
        fired = _FIRED.get()
        if fired is not None:
            fired.append(bad)
        return np.where(bad, math.nan, val)
    if bad:
        raise DomainError(msg.format(val))
    return val


def evaluate_masked(fn, u):
    """(fn(u), raised) for a float array u: raised is True at the elements
    where fn raises DomainError on the float u alone.  numpy's floating-point
    warnings are off, as float arithmetic overflows without one."""
    token = _FIRED.set([])
    try:
        with np.errstate(all="ignore"):
            out = fn(u)
        raised = np.zeros(u.shape, dtype=bool)
        for bad in _FIRED.get():
            raised |= bad
    finally:
        _FIRED.reset(token)
    return out, raised


def _each(fn, x):
    """fn(x) for a float; fn at each element, as a float array, for an array.

    A result past the float range (OverflowError from ** or math) is outside
    the domain: DomainError on a float, a guarded NaN element on an array.
    """
    try:
        if not isinstance(x, np.ndarray):
            return fn(x)
        return np.fromiter(map(fn, x.ravel().tolist()), float,
                           x.size).reshape(x.shape)
    except OverflowError:
        if not isinstance(x, np.ndarray):
            raise DomainError(f"result past the float range at {x}") from None
    # only after an overflow: element by element, masking where it recurs
    bad = np.zeros(x.shape, dtype=bool)
    out = np.full(x.shape, math.nan)
    for i, v in enumerate(x.ravel().tolist()):
        try:
            out.flat[i] = fn(v)
        except OverflowError:
            bad.flat[i] = True
    return guard(out, bad, "")


@dataclass(frozen=True, slots=True)
class Jet2:
    val: float
    d1: float
    d2: float

    __array_ufunc__ = None   # numpy operands defer to the Jet2 operators

    @staticmethod
    def variable(u) -> "Jet2":
        """Identity lift: the parameter itself (a float or a float array)."""
        if isinstance(u, np.ndarray):
            return Jet2(u.astype(float), 1.0, 0.0)
        return Jet2(float(u), 1.0, 0.0)

    @staticmethod
    def const(c: float) -> "Jet2":
        return Jet2(float(c), 0.0, 0.0)

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        if isinstance(other, (int, float)):
            return Jet2(float(other), 0.0, 0.0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(self.val + o.val, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(self.val - o.val, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Jet2(-self.val, -self.d1, -self.d2)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(self.val * o.val,
                    self.d1 * o.val + self.val * o.d1,
                    self.d2 * o.val + 2.0 * self.d1 * o.d1 + self.val * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        inv = 1.0 / guard(o.val, abs(o.val) < _DIV_FLOOR,
                          "jet division by (near-)zero value")
        q = self.val * inv
        dq = (self.d1 - q * o.d1) * inv
        ddq = (self.d2 - 2.0 * dq * o.d1 - q * o.d2) * inv
        return Jet2(q, dq, ddq)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if isinstance(k, int) or (isinstance(k, float) and float(k).is_integer()):
            k = int(k)
            if k == 0:
                return Jet2(1.0, 0.0, 0.0)
            if k == 1:
                return self
            if k == 2:
                return self * self
            v = guard(self.val, k < 0 and self.val == 0.0,
                      "negative power of zero")
            return _chain(self, _each(lambda x: x ** k, v),
                          k * _each(lambda x: x ** (k - 1), v),
                          k * (k - 1) * _each(lambda x: x ** (k - 2), v))
        return jpow(self, float(k))


def _chain(j: Jet2, f: float, df: float, ddf: float) -> Jet2:
    """2-jet of F(j) from the values F, F', F'' at j.val."""
    return Jet2(f, df * j.d1, ddf * j.d1 * j.d1 + df * j.d2)


def jsin(j: Jet2) -> Jet2:
    s, c = _each(math.sin, j.val), _each(math.cos, j.val)
    return _chain(j, s, c, -s)


def jcos(j: Jet2) -> Jet2:
    s, c = _each(math.sin, j.val), _each(math.cos, j.val)
    return _chain(j, c, -s, -c)


def jsinh(j: Jet2) -> Jet2:
    s, c = _each(math.sinh, j.val), _each(math.cosh, j.val)
    return _chain(j, s, c, s)


def jcosh(j: Jet2) -> Jet2:
    s, c = _each(math.sinh, j.val), _each(math.cosh, j.val)
    return _chain(j, c, s, c)


def jexp(j: Jet2) -> Jet2:
    e = _each(math.exp, j.val)
    return _chain(j, e, e, e)


def jlog(j: Jet2) -> Jet2:
    v = guard(j.val, j.val <= _SQ_FLOOR, "log of non-positive or tiny value {}")
    return _chain(j, _each(math.log, v), 1.0 / v, -1.0 / (v * v))


def jsqrt(j: Jet2) -> Jet2:
    v = guard(j.val, j.val <= _CUBE_FLOOR, "sqrt of non-positive or tiny value {}")
    r = _each(math.sqrt, v)
    return _chain(j, r, 0.5 / r, -0.25 / (v * r))


def jpow(j: Jet2, k: float) -> Jet2:
    """j**k for real exponent; requires a positive base."""
    v = guard(j.val, j.val <= _SQ_FLOOR, "real power of non-positive or tiny base {}")
    f = _each(lambda x: x ** k, v)
    return _chain(j, f, k * f / v, k * (k - 1.0) * f / (v * v))


def jarcsin(j: Jet2) -> Jet2:
    v = guard(j.val, abs(j.val) >= 1.0, "arcsin of value outside (-1, 1): {}")
    w = 1.0 - v * v
    rw = _each(math.sqrt, w)
    return _chain(j, _each(math.asin, v), 1.0 / rw, v / (w * rw))


def jarctan(j: Jet2) -> Jet2:
    w = 1.0 + j.val * j.val
    return _chain(j, _each(math.atan, j.val), 1.0 / w, -2.0 * j.val / (w * w))


def jabs(j: Jet2) -> Jet2:
    """|j| as j where j.val >= 0 and -j elsewhere (a NaN value negates)."""
    if isinstance(j.val, np.ndarray):
        neg = ~(j.val >= 0)
        return Jet2(*(np.where(neg, -x, x) for x in (j.val, j.d1, j.d2)))
    return j if j.val >= 0 else -j


_ELEMENTARY = {
    "sin": jsin,
    "cos": jcos,
    "sinh": jsinh,
    "cosh": jcosh,
    "exp": jexp,
    "log": jlog,
    "sqrt": jsqrt,
    "arcsin": jarcsin,
    "arctan": jarctan,
}


# ---------------------------------------------------------------------------
# Expression descriptors for user-supplied meridians.
#
# Custom families describe f(u), g(u) as plain arithmetic expressions, e.g.
# "u**2" or "sqrt(u*u - 4)".  The string is parsed once, validated against a
# small whitelist, and then evaluated on jets.

# the allowed calls, each taking a number argument (exp(2)) as a constant jet
_CALLS = {k: lambda x, fn=fn: fn(x if isinstance(x, Jet2) else Jet2.const(x))
          for k, fn in (*_ELEMENTARY.items(), ("abs", jabs))}
_ALLOWED_CALLS = set(_CALLS)
_ALLOWED_NAMES = _ALLOWED_CALLS | {"u", "pi", "e"}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub,
    ast.UAdd,
)


class JetExpr:
    """Validated scalar expression in the variable u, evaluated on jets."""

    def __init__(self, text: str):
        self.text = text
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise DomainError(f"cannot parse expression {text!r}: {exc}") from None
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise DomainError(
                    f"disallowed syntax {type(node).__name__} in {text!r}")
            if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES:
                raise DomainError(f"unknown name {node.id!r} in {text!r}")
            if isinstance(node, ast.Call):
                if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                    raise DomainError(f"disallowed call in {text!r}")
                if node.keywords or len(node.args) != 1:
                    raise DomainError(f"calls take exactly one argument in {text!r}")
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise DomainError(f"non-numeric constant in {text!r}")
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and any(
                    isinstance(n, ast.Call) or getattr(n, "id", "") == "u"
                    for n in ast.walk(node.right)):
                raise DomainError(f"exponent of ** must be a number in {text!r}")
        self._code = compile(tree, "<meridian-expr>", "eval")

    def __call__(self, u) -> Jet2:
        """The expression's jet at u, a float or a float array."""
        env = {"u": Jet2.variable(u), "pi": math.pi, "e": math.e, **_CALLS}
        try:
            out = eval(self._code, {"__builtins__": {}}, env)
            return out if isinstance(out, Jet2) else Jet2.const(out)
        except OverflowError:   # a constant such as 10.0 ** 400
            raise DomainError(f"{self.text!r}: constant past the float range") from None
        except ZeroDivisionError:   # 1 / 0 or 0 ** -1: jet divisions are guarded
            raise DomainError(f"{self.text!r}: constant divides by zero") from None
        except TypeError:   # exponents are numbers, so a complex (-8) ** 0.5
            raise DomainError(f"{self.text!r}: constant is complex") from None

    def __repr__(self):
        return f"JetExpr({self.text!r})"
