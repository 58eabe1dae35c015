from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from levitanaka.scalars import (
    GaussRational,
    exact,
    rat_from_str,
    rat_to_str,
    ratio,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
gaussians = st.builds(GaussRational, rationals, rationals)


def test_rat_str_roundtrip():
    assert rat_to_str(Fraction(3, 4)) == "3/4"
    assert rat_to_str(Fraction(-7)) == "-7"
    assert rat_from_str("3/4") == Fraction(3, 4)
    assert rat_from_str("-7") == Fraction(-7)


def test_gauss_basics():
    z = GaussRational(1, 2)
    assert z + z == GaussRational(2, 4)
    assert z * GaussRational(0, 1) == GaussRational(-2, 1)
    assert (z / z) == GaussRational(1, 0)
    assert -z == GaussRational(-1, -2)
    assert str(GaussRational(Fraction(1, 2), -1)) == "1/2-1i"


def test_gauss_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRational(1) / GaussRational(0)


def test_gauss_json_roundtrip():
    z = GaussRational(Fraction(-3, 7), Fraction(5, 2))
    assert GaussRational.from_json(z.to_json()) == z
    assert z.to_json() == {"re": "-3/7", "im": "5/2"}


@given(gaussians, gaussians, gaussians)
def test_gauss_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    if b:
        assert (a / b) * b == a


@given(gaussians, gaussians)
def test_conjugation_involution_and_multiplicativity(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    norm = a * a.conjugate()
    assert norm.im == 0 and norm.re == a.re * a.re + a.im * a.im


# -- int where integral: parts and results against a pure-Fraction reference --

# ints, integral Fractions and proper Fractions, so every mix of part types runs
parts = st.integers(-40, 40) | st.fractions(min_value=-40, max_value=40,
                                            max_denominator=6)
mixed_gaussians = st.builds(GaussRational, parts, parts)


def _ref(z):
    """A Gaussian rational or rational as a pair of Fractions."""
    if isinstance(z, GaussRational):
        return Fraction(z.re), Fraction(z.im)
    return Fraction(z), Fraction(0)


def _ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _ref_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def _int_where_integral(x, want):
    assert type(x) in (int, Fraction), type(x)
    assert x == want
    assert (type(x) is int) == (want.denominator == 1), (x, want)


def _matches(z, want):
    assert type(z) is GaussRational
    _int_where_integral(z.re, want[0])
    _int_where_integral(z.im, want[1])


@given(mixed_gaussians | parts, mixed_gaussians | parts)
def test_gauss_arithmetic_matches_fraction_reference(a, b):
    ra, rb = _ref(a), _ref(b)
    if isinstance(a, GaussRational) or isinstance(b, GaussRational):
        _matches(a + b, (ra[0] + rb[0], ra[1] + rb[1]))
        _matches(a - b, (ra[0] - rb[0], ra[1] - rb[1]))
        _matches(a * b, _ref_mul(ra, rb))
        if rb != (0, 0):
            _matches(a / b, _ref_div(ra, rb))
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
    for z, rz in ((a, ra), (b, rb)):
        if isinstance(z, GaussRational):
            _matches(-z, (-rz[0], -rz[1]))
            _matches(z.conjugate(), (rz[0], -rz[1]))
            _matches(z * z.conjugate(), (rz[0] * rz[0] + rz[1] * rz[1], 0))


@given(parts, parts)
def test_ratio_is_exact_and_int_where_integral(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            ratio(a, b)
    else:
        _int_where_integral(ratio(a, b), Fraction(a) / Fraction(b))
    _int_where_integral(exact(a), Fraction(a))


# -- rat_from_str: Fraction's reading, an int where integral --

rational_texts = (
    st.text(alphabet="0123456789-+/ _.eE٣", max_size=8)
    | st.integers().map(str)
    | st.fractions().map(str)
    | st.sampled_from(["+3", " 3 ", "1_0", "--5", "-", "", "٣", "1/0",
                       "-0", "007", "0/5", "3/-4", "1e3", "nan", "inf"])
)


@given(rational_texts)
def test_rat_from_str_reads_what_fraction_reads(s):
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            rat_from_str(s)
        return
    _int_where_integral(rat_from_str(s), want)


@given(parts)
def test_rat_str_roundtrip_keeps_int_where_integral(x):
    assert rat_to_str(x) == rat_to_str(Fraction(x))
    _int_where_integral(rat_from_str(rat_to_str(x)), Fraction(x))
