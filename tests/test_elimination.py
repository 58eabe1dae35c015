import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from levitanaka import elimination
from levitanaka.scalars import GaussRational, ratio

from naive_oracle import kernel, rref

Q = Fraction


def random_sparse_rows(rng, nrows, ncols, density=0.4, scale=9):
    rows = []
    for _ in range(nrows):
        cols = sorted(rng.sample(range(ncols),
                                 max(1, int(density * ncols))))
        vals = [rng.randint(-scale, scale) for _ in cols]
        cols_vals = [(c, v) for c, v in zip(cols, vals) if v]
        if cols_vals:
            rows.append(([c for c, _ in cols_vals], [v for _, v in cols_vals]))
    return rows


def test_rank_and_kernel_consistency():
    rng = random.Random(12)
    for trial in range(30):
        ncols = rng.randint(3, 12)
        rows = [dict(zip(cols, vals)) for cols, vals in
                random_sparse_rows(rng, rng.randint(1, 14), ncols)]
        r = elimination.rank(rows, ncols)
        basis = elimination.kernel_basis(rows, ncols)
        assert len(basis) == ncols - r
        for v in basis:
            for row in rows:
                assert sum(x * v[c] for c, x in row.items()) == 0


def test_kernel_vectors_primitive():
    rows = [{0: 2, 1: 4}]
    basis = elimination.kernel_basis(rows, 2)
    assert basis == [[-2, 1]] or basis == [[2, -1]]
    from math import gcd
    for v in basis:
        assert gcd(*[abs(x) for x in v]) == 1


def test_solve_consistent_and_inconsistent():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    rows = [{0: 1, 1: 1, 2: 3}, {0: 1, 1: -1, 2: 1}]
    assert elimination.solve(rows, 2) == [Q(2), Q(1)]
    # x + y = 1, x + y = 0 -> inconsistent; a zero right-hand side may be kept
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 0}]
    assert elimination.solve(rows, 2) is None


def test_pivot_rule_prefers_small_bit_length():
    # two candidate rows lead column 0 with values 8 and 3: 3 wins
    rows = [([0, 1], [8, 1]), ([0, 2], [3, 1])]
    pivots, pivot_rows = elimination.row_echelon(rows)
    assert pivots[0] == 0
    assert pivot_rows[0][1][0] == 3


def test_growth_stays_controlled():
    # gcd normalization keeps entries from exploding on a dense-ish system
    rng = random.Random(5)
    rows = random_sparse_rows(rng, 30, 30, density=0.5, scale=4)
    _, pivot_rows = elimination.row_echelon(rows)
    worst = max(abs(v).bit_length() for _, vals in pivot_rows for v in vals)
    assert worst < 512


# -- kernel_basis and solve against the brute-force oracle ----------------

small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _exact_scalar(x):
    """An int, or a Fraction that is not an integer: the scalar convention."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@st.composite
def sparse_systems(draw):
    """(rows, ncols): {col: value} rows, about half their entries zero.

    A row holds ints only, or Fractions that may have denominators, so
    both ways of scaling a row to integers run; some of its zero entries
    are kept as keys.
    """
    ncols = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        values = draw(st.sampled_from([st.integers(-9, 9), small_rats]))
        entry = st.one_of(st.just(0), st.just(0), values)
        dense = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        kept = draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))
        rows.append({c: x for c, x in enumerate(dense) if x or kept[c]})
    return rows, ncols


def _dense(rows, ncols):
    """Fraction rows for the oracle, whose x / lead on two ints is a float."""
    out = []
    for row in rows:
        r = [Q(0)] * ncols
        for c, v in row.items():
            r[c] = Q(v)
        out.append(r)
    return out


def _int_pairs(rows):
    """{col: value} rows as the (cols, vals) integer rows of ``row_echelon``."""
    out = []
    for row in rows:
        cols = sorted(c for c, x in row.items() if x)
        m = 1
        for c in cols:
            d = Q(row[c]).denominator
            m = m * d // gcd(m, d)
        out.append((cols, [int(row[c] * m) for c in cols]))
    return out


def _primitive(vec):
    """Oracle kernel vector (free entry 1) as coprime integers."""
    m = 1
    for x in vec:
        m = m * x.denominator // gcd(m, x.denominator)
    ints = [int(x * m) for x in vec]
    g = gcd(*ints)
    return [v // g for v in ints]


@given(sparse_systems())
@settings(max_examples=300, deadline=None)
def test_kernel_basis_matches_oracle(case):
    rows, ncols = case
    basis = elimination.kernel_basis(rows, ncols)
    assert basis == [_primitive(v) for v in kernel(_dense(rows, ncols), ncols)]
    assert all(type(x) is int for v in basis for x in v)


@given(sparse_systems())
@settings(max_examples=300, deadline=None)
def test_solve_matches_oracle(case):
    rows, ncols = case
    bcol = ncols - 1  # the last column is the right-hand side
    sol = elimination.solve(rows, bcol)
    ref, pivots = rref(_dense(rows, ncols))
    if bcol in pivots:
        assert sol is None
        return
    expected = [Q(0)] * bcol
    for r, p in enumerate(pivots):
        expected[p] = ref[r][bcol]  # free unknowns zero
    assert sol == expected
    assert all(_exact_scalar(x) for x in sol)


@st.composite
def rearranged_systems(draw):
    """(rows, variant, ncols): variant shuffles, duplicates and rescales rows."""
    rows, ncols = draw(sparse_systems())
    scale = st.sampled_from([1, -1, 2, -3, 4, -6])
    variant = []
    for row in rows:
        for _ in range(draw(st.integers(1, 3))):
            k = draw(scale)
            variant.append({c: k * v for c, v in row.items()})
    return rows, draw(st.permutations(variant)), ncols


@given(rearranged_systems())
@settings(max_examples=300, deadline=None)
def test_kernel_and_solve_are_canonical(case):
    # the pivot rule (bit length, entries, arrival) only picks which row
    # clears a column; every result read off the RREF must not move
    rows, variant, ncols = case
    basis = elimination.kernel_basis(rows, ncols)
    assert elimination.kernel_basis(variant, ncols) == basis
    assert basis == [_primitive(v) for v in kernel(_dense(rows, ncols), ncols)]
    bcol = ncols - 1
    assert elimination.solve(variant, bcol) == elimination.solve(rows, bcol)
    assert elimination.row_echelon(_int_pairs(variant))[0] == \
        elimination.row_echelon(_int_pairs(rows))[0]


@st.composite
def headed_systems(draw):
    """(rows, ncols, case) for the head of the first 2 * ncols rows.

    Rows are repeats of a few source rows, duplicated and scaled by +-1,
    2, -3 or 1/2.  In case "full_head" the head starts with a triangular
    block of full column rank.  In cases "failing_tail" and "all_pass"
    the head repeats up to ncols - 1 sources that are zero at the last
    column (some keep it as a zero key), so it misses part of the space;
    in case "failing_tail" the tail also repeats up to 3 new sources,
    nonzero at the last column.  In case "low_head" the head repeats one
    source and the tail brings ncols - 1 new sources with distinct
    leading columns, so the head misses the rank by at least ncols - 2
    rows.  These four have at least 4 * ncols rows.  In case "short"
    there are at most 2 * ncols rows: the head is the whole system.
    """
    case = draw(st.sampled_from(["failing_tail", "full_head", "all_pass",
                                 "low_head", "short"]))
    ncols = draw(st.integers(4 if case == "low_head" else 1, 6))
    values = draw(st.sampled_from([st.integers(-9, 9), small_rats]))
    entry = st.one_of(st.just(0), values)
    nonzero = values.filter(bool)
    scale = st.sampled_from([1, -1, 2, -3, Q(1, 2)])
    last = ncols - 1

    def row(width):
        dense = draw(st.lists(entry, min_size=width, max_size=width))
        dense += [0] * (ncols - width)
        kept = draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))
        return {c: x for c, x in enumerate(dense) if x or kept[c]}

    def repeats(sources, count):
        picks = draw(st.lists(st.tuples(st.sampled_from(sources), scale),
                              min_size=count, max_size=count))
        return [{c: k * x for c, x in r.items()} for r, k in picks]

    if case == "short":
        return [row(ncols) for _ in range(draw(st.integers(0, 2 * ncols)))], ncols, case
    if case == "low_head":
        head = repeats([row(ncols)], 2 * ncols)
        fresh = [{**{c: x for c, x in row(ncols).items() if c > i}, i: draw(nonzero)}
                 for i in range(ncols - 1)]
        tail = fresh + repeats(head + fresh, draw(st.integers(ncols + 1, 3 * ncols)))
        return head + draw(st.permutations(tail)), ncols, case
    sources = [row(last) for _ in range(draw(st.integers(1, max(1, last))))]
    head = []
    if case == "full_head":
        for i in range(ncols):
            r = row(ncols)
            head.append({**{c: x for c, x in r.items() if c > i}, i: draw(nonzero)})
    head += repeats(sources, 2 * ncols - len(head))
    if case == "failing_tail":
        fresh = [{**row(ncols), last: draw(nonzero)}
                 for _ in range(draw(st.integers(1, 3)))]
        tail = fresh + repeats(sources + fresh, draw(st.integers(2 * ncols, 3 * ncols)))
    else:
        tail = repeats(head, draw(st.integers(2 * ncols, 3 * ncols)))
    return head + draw(st.permutations(tail)), ncols, case


@given(headed_systems())
@settings(max_examples=200, deadline=None)
def test_tall_kernel_from_head_and_checked_tail(case):
    rows, ncols, kind = case
    head_rank = elimination.rank(rows[:2 * ncols], ncols)
    full_rank = elimination.rank(rows, ncols)
    if kind == "short":
        assert len(rows) <= 2 * ncols
    else:
        assert len(rows) >= 4 * ncols
    if kind == "full_head":
        assert head_rank == ncols
    elif kind == "all_pass":
        assert head_rank == full_rank < ncols
    elif kind == "low_head":
        assert head_rank <= 1 and full_rank - head_rank >= ncols - 2
    elif kind == "failing_tail":
        assert head_rank < full_rank
    basis = elimination.kernel_basis(rows, ncols)
    # the same rows rotated: another head, other failing rows, same basis
    half = len(rows) // 2
    assert elimination.kernel_basis(rows[half:] + rows[:half], ncols) == basis
    assert basis == [_primitive(v) for v in kernel(_dense(rows, ncols), ncols)]
    # the last column as a right-hand side: solve through the same head and tail
    bcol = ncols - 1
    ref, pivots = rref(_dense(rows, ncols))
    expected = None
    if bcol not in pivots:
        expected = [Q(0)] * bcol
        for r, p in enumerate(pivots):
            expected[p] = ref[r][bcol]
    assert elimination.solve(rows, bcol) == expected


def test_pivot_rule_prefers_fewer_entries_on_equal_bits():
    # both candidates lead column 0 with bit length 2; the shorter row wins
    rows = [([0, 1, 2], [3, 1, 1]), ([0, 2], [-2, 5])]
    pivots, pivot_rows = elimination.row_echelon(rows)
    assert pivots[0] == 0
    assert pivot_rows[0] == ([0, 2], [-2, 5])


# -- the incremental echelon against the brute-force oracle ---------------


def _realify(vec):
    """Gaussian vector -> interleaved (real, imaginary) rational vector."""
    return [part for x in vec for part in (x.re, x.im)]


@st.composite
def spans(draw, gaussian):
    """(vectors, probe) of one length; the vectors may be dependent."""
    ncols = draw(st.integers(1, 5 if gaussian else 7))
    if gaussian:
        zero, entry = GaussRational(0), st.builds(GaussRational, small_rats, small_rats)
    else:
        zero, entry = Q(0), small_rats
    vec = st.lists(st.one_of(st.just(zero), entry), min_size=ncols, max_size=ncols)
    vectors = draw(st.lists(vec, max_size=6))
    if vectors and draw(st.booleans()):
        c = draw(entry)  # a combination of two of the rows
        vectors.append([c * x + y for x, y in zip(vectors[0], vectors[-1])])
    return vectors, draw(vec)


def _as_dict(data, v):
    """v as a dict that keeps some zero entries and lists its columns in any order."""
    width = len(v)
    kept = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    return {c: v[c] for c in data.draw(st.permutations(range(width)))
            if v[c] or kept[c]}


def _nonzero(v):
    return {c: x for c, x in enumerate(v) if x}


def _check_against_oracle(vectors, probe, gaussian, data):
    """Echelon of the (realified) vectors against the naive RREF.

    Over Q(i) the echelon gets each vector v and i*v as real vectors with
    interleaved (real, imaginary) parts: their span is the realified
    complex span, whose RREF is each complex RREF row R followed by i*R.
    The echelon reads every vector as a dict drawn by ``_as_dict``.
    """
    if gaussian:
        added = [_realify([m * x for x in v]) for v in vectors
                 for m in (GaussRational(1), GaussRational(0, 1))]
        v = _realify(probe)
    else:
        added = [list(u) for u in vectors]
        v = list(probe)
    width = len(v)
    echelon = elimination.Echelon(width, [_as_dict(data, u) for u in added])
    rows, pivots = rref(vectors) if vectors else ([], [])
    expected = []
    for r in rows[:len(pivots)]:
        if gaussian:
            expected += [_realify(r), _realify([GaussRational(0, 1) * x for x in r])]
        else:
            expected.append(r)
    assert echelon.basis == [_nonzero(r) for r in expected]
    assert echelon.rank == len(expected)

    residual = echelon.reduce(_as_dict(data, v))
    naive = list(v)
    for row in expected:
        p = next(c for c, x in enumerate(row) if x)
        naive = [a - naive[p] * b for a, b in zip(naive, row)]
    assert residual == _nonzero(naive)
    lead_cols = [next(c for c, x in enumerate(row) if x) for row in expected]
    assert not any(p in residual for p in lead_cols)
    member = [a - b for a, b in zip(v, naive)]
    assert echelon.contains(_as_dict(data, member))
    assert echelon.contains(_as_dict(data, v)) == (not residual)

    def combination(coords):
        assert all(coords.values())
        out = [Q(0)] * width
        for k, c in coords.items():
            out = [a + c * b for a, b in zip(out, added[k])]
        return out

    coords = echelon.coords(_as_dict(data, v))
    if residual:
        assert coords is None
    else:
        assert combination(coords) == v
    # a member built from the added vectors is rebuilt from its coordinates
    member = combination({k: Q(k + 1) for k in range(len(added))})
    assert combination(echelon.coords(_as_dict(data, member))) == member


@given(spans(gaussian=False), st.data())
@settings(max_examples=200, deadline=None)
def test_echelon_matches_oracle_rational(case, data):
    _check_against_oracle(*case, gaussian=False, data=data)


@given(spans(gaussian=True), st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_oracle_gaussian(case, data):
    _check_against_oracle(*case, gaussian=True, data=data)


def test_echelon_unique_coords_and_add_flags():
    e = elimination.Echelon(3)
    assert e.add({0: Q(1), 1: Q(2)})
    assert e.add({1: Q(1), 2: Q(1)})
    assert not e.add({0: Q(1), 1: Q(3), 2: Q(1)})  # first + second
    # the third vector left the span as it was: it gets no coordinate
    assert e.coords({0: Q(2), 1: Q(5), 2: Q(1)}) == {0: Q(2), 1: Q(1)}
    assert e.coords({2: Q(1)}) is None
    assert e.basis == [{0: Q(1), 2: Q(-2)}, {1: Q(1), 2: Q(1)}]
    half = elimination.Echelon(3, [{0: 2, 1: 4}, {1: Q(3, 2), 2: 3}])
    for out in (e.coords({0: 2, 1: 5, 2: 1}), *e.basis,
                half.reduce({0: 1, 1: 1, 2: 1}),
                half.coords({0: 1, 1: Q(7, 2), 2: 3}), *half.basis):
        assert all(_exact_scalar(x) for x in out.values())
    assert half.coords({0: 1, 1: Q(7, 2), 2: 3}) == {0: Q(1, 2), 1: 1}
    assert ratio(6, -3) == -2 and type(ratio(6, -3)) is int
    assert ratio(3, -6) == Q(-1, 2)
