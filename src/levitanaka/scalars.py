"""Exact scalars: rationals and Gaussian rationals.

A rational is an ``int`` when it is integral and a ``fractions.Fraction``
(lowest terms, positive denominator) otherwise.  ``exact`` is the one
normaliser that brings a value to that form, and ``ratio`` the one exact
division: Python's ``/`` on two ints gives a float, so no other code in
the package divides with ``/``.  ``GaussRational`` is a pair of such
rationals re + im*i with field arithmetic and conjugation.

Serialization: rationals as "p/q" strings ("/q" omitted when q == 1),
Gaussian rationals as {"re": "p/q", "im": "p/q"}.
"""

from __future__ import annotations

from fractions import Fraction


def exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def ratio(num, den):
    """num / den exactly: an int when den divides num, never a float.

    Operands are ints, Fractions or Gaussian rationals; ZeroDivisionError
    when den is zero.
    """
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    q = num / den  # not two ints, so exact
    return q if type(q) is GaussRational else exact(q)


def rat_to_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str | int):
    """Parse "p/q" text or an int; ValueError on malformed text or q == 0.

    ``Fraction`` decides what text parses; the value comes back through
    ``exact``.  Anything but a str or an int (a float is not exact, a
    bool is no number) is a TypeError.
    """
    if type(s) is not str and type(s) is not int:
        raise TypeError(f'a rational is "p/q" text or an integer, not {s!r}')
    try:
        return exact(Fraction(s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None


class GaussRational:
    """Element of Q(i), stored as exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = exact(re)
        self.im = exact(im)

    @staticmethod
    def _coerce(value):
        t = type(value)
        if t is GaussRational:
            return value
        if t is int or t is Fraction:
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
        return GaussRational(ratio(self.re * o.re + self.im * o.im, n),
                             ratio(self.im * o.re - self.re * o.im, n))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ratio(o, self)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def conjugate(self):
        return GaussRational(self.re, -self.im)

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
