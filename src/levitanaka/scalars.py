"""Exact scalars: rationals and Gaussian rationals.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always
in lowest terms, positive denominator.  ``GaussRational`` is a pair of
rationals re + im*i with field arithmetic and conjugation.

Serialization: rationals as "p/q" strings ("/q" omitted when q == 1),
Gaussian rationals as {"re": "p/q", "im": "p/q"}.
"""

from __future__ import annotations

from fractions import Fraction


def rat_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" (or a number); ValueError on malformed text or q == 0."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None


class GaussRational:
    """Element of Q(i), stored as exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussRational(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRational((self.re * o.re + self.im * o.im) / n,
                             (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def conjugate(self):
        return GaussRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Field norm re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return rat_to_str(self.re)
        if self.re == 0:
            return f"{rat_to_str(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{rat_to_str(self.re)}{sign}{rat_to_str(abs(self.im))}i"

    def to_json(self):
        return {"re": rat_to_str(self.re), "im": rat_to_str(self.im)}

    @staticmethod
    def from_json(obj) -> "GaussRational":
        return GaussRational(rat_from_str(obj["re"]), rat_from_str(obj["im"]))


GAUSS_I = GaussRational(0, 1)
