"""Linear algebra in flat 4-space with the neutral (+,+,-,-) metric, and
the two surface kinds (SurfaceKind) with their signature signs.

Vector components are floats, or broadcastable ndarrays for a vector field
over a grid; every operation then acts elementwise with the same rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


@dataclass(frozen=True, slots=True)
class PEVector4:
    """Point/vector of the ambient 4-space, signature (+,+,-,-)."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __add__(self, other: "PEVector4") -> "PEVector4":
        return PEVector4(self.x1 + other.x1, self.x2 + other.x2,
                         self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other: "PEVector4") -> "PEVector4":
        return PEVector4(self.x1 - other.x1, self.x2 - other.x2,
                         self.x3 - other.x3, self.x4 - other.x4)

    def __neg__(self) -> "PEVector4":
        return PEVector4(-self.x1, -self.x2, -self.x3, -self.x4)

    def __mul__(self, s) -> "PEVector4":
        if not isinstance(s, (int, float, np.ndarray)):
            return NotImplemented
        return PEVector4(self.x1 * s, self.x2 * s, self.x3 * s, self.x4 * s)

    __rmul__ = __mul__

    def components(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)

    def euclid_norm2(self) -> float:
        return self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3 + self.x4 * self.x4

    def euclid_norm(self) -> float:
        return sqrt(self.euclid_norm2())


class SurfaceKind(Enum):
    """The rotation type, carried as the signature sign eps.

    ELLIPTIC has eps = +1 and rotates with cos, sin; HYPERBOLIC has
    eps = -1, rotates with cosh, sinh and exchanges x2 and x3.  The value
    is the kind's name in the meridian catalog.
    """

    ELLIPTIC = ("elliptic", 1.0, math.cos, math.sin)
    HYPERBOLIC = ("hyperbolic", -1.0, math.cosh, math.sinh)

    def __new__(cls, name, eps, cos, sin):
        kind = object.__new__(cls)
        kind._value_ = name
        kind.eps, kind.cos, kind.sin = eps, cos, sin
        return kind

    def vec(self, x1, x2, x3, x4) -> PEVector4:
        """The vector with these components in the elliptic coordinate
        order: the hyperbolic kind exchanges x2 and x3."""
        if self.eps > 0.0:
            return PEVector4(x1, x2, x3, x4)
        return PEVector4(x1, x3, x2, x4)

    def normals(self, off, carrier):
        """(n1, n2) from the normal off the mean curvature vector and the
        one carrying it (n2 elliptic, n1 hyperbolic).  The map is its own
        inverse: normals(n1, n2) is (off, carrier)."""
        return (off, carrier) if self.eps > 0.0 else (carrier, off)

    def prod3(self, x, y, z):
        """x * y * z as (x y) z for the elliptic kind and x (y z) for the
        hyperbolic kind: the invariant bytes each kind has always had
        round these triple products so."""
        return x * y * z if self.eps > 0.0 else x * (y * z)


def sqrt(x):
    """math.sqrt of a float, np.sqrt of an ndarray (both correctly rounded)."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def pow2(x):
    """x ** 2 as CPython rounds it, elementwise on an ndarray.

    Python's float ** calls C pow, which differs from x * x (numpy's square)
    in the last bit for about 1 value in 1,300, so the array case squares
    each element as a Python float.  Where ** raises OverflowError the
    square is x * x, inf; an array takes that element by element only after
    an overflow.
    """
    if isinstance(x, np.ndarray):
        values = x.ravel().tolist()
        try:
            squares = [t ** 2 for t in values]
        except OverflowError:
            squares = [pow2(t) for t in values]
        return np.array(squares).reshape(x.shape)
    try:
        return x ** 2
    except OverflowError:
        return x * x


def inner(a: PEVector4, b: PEVector4) -> float:
    """Indefinite inner product a1*b1 + a2*b2 - a3*b3 - a4*b4."""
    return a.x1 * b.x1 + a.x2 * b.x2 - a.x3 * b.x3 - a.x4 * b.x4
