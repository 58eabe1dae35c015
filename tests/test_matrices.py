from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levitanaka.matrices import ExactMatrix
from levitanaka.scalars import GaussRational

from naive_oracle import det as naive_det
from naive_oracle import kernel as naive_kernel
from naive_oracle import mat_mul as naive_mul
from naive_oracle import mat_rank as naive_rank

Q = Fraction

small_rats = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def _apply(m, vec):
    """m times the column vector vec, as a list."""
    return [sum(a * x for a, x in zip(m.row(i), vec)) for i in range(m.nrows)]


def rand_matrix(draw, max_dim=6):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(small_rats, min_size=nrows * ncols, max_size=nrows * ncols))
    return ExactMatrix(nrows, ncols, entries)


matrices = st.composite(rand_matrix)()


def test_rank_trivial_cases():
    assert ExactMatrix.identity(3).rank() == 3
    assert ExactMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    assert ExactMatrix(4, 7, [0] * 28).rank() == 0


def test_kernel_trivial_cases():
    assert ExactMatrix.identity(2).kernel_vectors() == []
    vecs = ExactMatrix.from_rows([[1, 1]]).kernel_vectors()
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] == -v[1] != 0


def test_solve_trivial_cases():
    eye = ExactMatrix.identity(3)
    assert eye.solve([Q(5), Q(-1), Q(2, 3)]) == [Q(5), Q(-1), Q(2, 3)]
    sing = ExactMatrix.from_rows([[1, 1], [1, 1]])
    assert sing.solve([Q(1), Q(0)]) is None
    diag = ExactMatrix.from_rows([[2, 0], [0, 3]])
    assert diag.solve([Q(1), Q(1)]) == [Q(1, 2), Q(1, 3)]


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_exact_and_independent(m):
    vecs = m.kernel_vectors()
    assert len(vecs) == m.ncols - m.rank()
    for v in vecs:
        assert all(x == 0 for x in _apply(m, v))
    if vecs:
        stacked = ExactMatrix.from_rows(vecs)
        assert stacked.rank() == len(vecs)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_rank_and_kernel_match_naive_rref(m):
    rows = m.to_rows()
    assert m.rank() == naive_rank(rows)
    ours = m.kernel_vectors()
    naive = naive_kernel(rows, m.ncols)
    assert len(ours) == len(naive)
    # same span: each naive vector must be annihilated and reducible to ours
    combined = ExactMatrix.from_rows(ours + naive) if ours else None
    if combined is not None:
        assert combined.rank() == len(ours)


@given(matrices, st.data())
@settings(max_examples=100, deadline=None)
def test_solve_round_trip(m, data):
    x = data.draw(st.lists(small_rats, min_size=m.ncols, max_size=m.ncols))
    b = _apply(m, x)
    x2 = m.solve(b)
    assert x2 is not None
    assert _apply(m, x2) == b


def test_gaussian_rank_and_kernel():
    i = GaussRational(0, 1)
    m = ExactMatrix.from_rows([[GaussRational(1), i], [i * 2, GaussRational(-2)]])
    # row2 = 2i * row1
    assert m.rank() == 1
    vecs = m.kernel_vectors()
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] + i * v[1] == GaussRational(0)


def test_gaussian_solve():
    i = GaussRational(0, 1)
    m = ExactMatrix.from_rows([[GaussRational(2), GaussRational(0)],
                               [GaussRational(0), i]])
    x = m.solve([GaussRational(1), GaussRational(3)])
    assert x == [GaussRational(Q(1, 2)), GaussRational(0, -3)]


def test_conj_transpose_and_det():
    i = GaussRational(0, 1)
    h = ExactMatrix.from_rows([[GaussRational(1), i], [-i, GaussRational(2)]])
    assert h.conj_transpose() == h
    assert h.det() == GaussRational(1)
    p = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert p.det() == Q(-1)


def test_matrix_product_and_apply():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).to_rows() == [[Q(2), Q(1)], [Q(4), Q(3)]]
    assert (a * ExactMatrix(2, 1, [1, 1])).col(0) == [Q(3), Q(7)]
    with pytest.raises(ValueError):
        a * ExactMatrix(1, 1, [1])


# -- sparse products and det against the textbook loops of naive_oracle --

# mostly zeros, as in the quadric forms; ints, Fractions and Gaussian rationals
_rational_entries = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                              st.fractions(min_value=-9, max_value=9,
                                           max_denominator=4))
_gaussian_entries = st.one_of(_rational_entries,
                              st.builds(GaussRational, _rational_entries,
                                        _rational_entries))


def _dense(draw, nrows, ncols, entries):
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


def _parts(x):
    return (x.re, x.im) if isinstance(x, GaussRational) else (x, 0)


def _check_entry(x, want):
    """Same value; never a float; each part an int exactly when integral."""
    for part, w in zip(_parts(x), _parts(want)):
        assert type(part) in (int, Fraction)
        assert part == w
        assert (type(part) is int) == (Fraction(w).denominator == 1)


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_product_matches_naive_triple_loop(data, gaussian):
    entries = _gaussian_entries if gaussian else _rational_entries
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = _dense(data.draw, n, k, entries)
    b = _dense(data.draw, k, m, entries)
    got = (ExactMatrix.from_rows(a) * ExactMatrix.from_rows(b)).to_rows()
    want = naive_mul(a, b)
    for row, want_row in zip(got, want):
        for x, w in zip(row, want_row):
            _check_entry(x, w)


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_det_matches_leibniz_sum(data, gaussian):
    entries = _gaussian_entries if gaussian else _rational_entries
    n = data.draw(st.integers(1, 4))
    a = _dense(data.draw, n, n, entries)
    m = ExactMatrix.from_rows(a)
    got = m.det()
    assert (type(got) is GaussRational) == m.is_gaussian()
    _check_entry(got, naive_det(a))
