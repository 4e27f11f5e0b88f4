"""Outward-rounded rational intervals for values involving square roots.

Everything downstream compares bounds against integers, so a value that is
not exactly representable travels as a certified enclosure [lo, hi].  A
comparison whose answer depends on where the true value falls inside the
interval raises instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import PrecisionError, ValidationError

_REL_WIDTH = Fraction(1, 10**9)


@dataclass(frozen=True)
class Enclosure:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError("enclosure bounds out of order")

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise PrecisionError(f"enclosure {self} is not a point")
        return self.lo

    def __add__(self, other):
        o = _as_enclosure(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    def __mul__(self, other):
        o = _as_enclosure(other)
        corners = [a * b for a in (self.lo, self.hi) for b in (o.lo, o.hi)]
        return Enclosure(min(corners), max(corners))

    __rmul__ = __mul__

    def __sub__(self, other):
        o = _as_enclosure(other)
        return Enclosure(self.lo - o.hi, self.hi - o.lo)

    def __truediv__(self, other):
        o = _as_enclosure(other)
        if o.lo <= 0 <= o.hi:
            raise PrecisionError("division by an interval containing zero")
        corners = [a / b for a in (self.lo, self.hi) for b in (o.lo, o.hi)]
        return Enclosure(min(corners), max(corners))

    def __ge__(self, other):
        o = _as_enclosure(other)
        if o.hi <= self.lo:
            return True
        if o.lo > self.hi:
            return False
        raise PrecisionError(
            f"comparison of {o} against {self} straddles the boundary"
        )

    def max_with(self, other) -> "Enclosure":
        o = _as_enclosure(other)
        return Enclosure(max(self.lo, o.lo), max(self.hi, o.hi))

    def __str__(self):
        if self.is_exact:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


def exact(x) -> Enclosure:
    f = Fraction(x)
    return Enclosure(f, f)


def _as_enclosure(x) -> Enclosure:
    if isinstance(x, Enclosure):
        return x
    if isinstance(x, (int, Fraction)):
        return exact(x)
    raise ValidationError(f"cannot interpret {x!r} as an enclosure")


def sqrt_enclosure(x) -> Enclosure:
    """A certified enclosure of sqrt(x), exact when x is a perfect square
    of rationals, otherwise outward-rounded to relative width ``_REL_WIDTH``.
    """
    x = Fraction(x)
    if x < 0:
        raise ValidationError("square root of a negative value")
    if x == 0:
        return exact(0)
    num_r, den_r = isqrt(x.numerator), isqrt(x.denominator)
    if num_r * num_r == x.numerator and den_r * den_r == x.denominator:
        return exact(Fraction(num_r, den_r))
    # Newton from above: u >= sqrt(x) stays above and x/u stays below.
    # (isqrt(num)+1)/isqrt(den) always overshoots since den_r <= sqrt(den).
    hi = Fraction(num_r + 1, den_r)
    while True:
        lo = x / hi
        if hi - lo <= _REL_WIDTH * lo:
            return Enclosure(lo, hi)
        hi = (hi + lo) / 2
