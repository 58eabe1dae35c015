from fractions import Fraction

import pytest

from levitanaka.errors import NonIntegralPairingError
from levitanaka.rootdata import RootSystem, _dot, dynkin_edges

Q = Fraction

# every diagram that ``tables --max-rank 8`` builds
TABLES_RANK8 = ([("A", l) for l in range(1, 9)] + [("D", l) for l in range(4, 9)]
                + [("E6", 6)])


def _matmul(x, y):
    return [[sum(a * y[k][j] for k, a in enumerate(row)) for j in range(len(y[0]))]
            for row in x]


def _transpose(x):
    return [list(col) for col in zip(*x)]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _ambient_reflect(a, v):
    c = 2 * _dot(a, v) / _dot(a, a)
    return [x - c * y for x, y in zip(v, a)]


def _ambient_closure(simple):
    """Oracle: {positive root vector: coefficients}, by closing the ambient
    simple roots under the simple reflections over Fractions."""
    rank = len(simple)
    seen = {}
    frontier = []
    for i, a in enumerate(simple):
        coeffs = tuple(int(j == i) for j in range(rank))
        seen[tuple(a)] = coeffs
        frontier.append((a, coeffs))
    while frontier:
        new_frontier = []
        for vec, coeffs in frontier:
            for i, a in enumerate(simple):
                w = _ambient_reflect(a, vec)
                nc = list(coeffs)
                nc[i] -= int(2 * _dot(a, vec) / _dot(a, a))
                if all(x >= 0 for x in nc) and any(nc) and tuple(w) not in seen:
                    seen[tuple(w)] = tuple(nc)
                    new_frontier.append((w, tuple(nc)))
        frontier = new_frontier
    return seen


@pytest.mark.parametrize("family,rank", TABLES_RANK8)
def test_integer_data_matches_ambient_oracle(family, rank):
    rs = RootSystem(family, rank)
    simple = rs.simple_roots
    assert rs.cartan_matrix == [
        [int(2 * _dot(a, b) / _dot(a, a)) for b in simple] for a in simple]
    roots = _ambient_closure(simple)
    assert sorted(roots.values()) == sorted(rs._positive)
    for vec, coeffs in roots.items():
        assert rs.to_ambient(coeffs) == list(vec)

    def is_root(v):
        return tuple(v) in roots or tuple(-x for x in v) in roots

    top = max(roots, key=lambda v: (sum(roots[v]), roots[v]))
    assert not any(is_root([x + y for x, y in zip(top, a)]) for a in simple)
    assert rs.highest_root() == roots[top]
    # w0 by the descent of rho = half the sum of the positive roots
    v = [sum(xs) / 2 for xs in zip(*roots)]
    word = []
    while True:
        i = next((i for i, a in enumerate(simple) if _dot(a, v) > 0), None)
        if i is None:
            break
        v = _ambient_reflect(simple[i], v)
        word.append(i)
    rows = []
    for a in simple:
        for i in word:
            a = _ambient_reflect(simple[i], a)
        rows.append([-c for c in roots[tuple(-x for x in a)]])
    assert rs.w0_rows() == [tuple(row) for row in rows]


@pytest.mark.parametrize("family,rank,count", [
    ("A", 2, 3), ("A", 3, 6), ("A", 5, 15),
    ("D", 4, 12), ("D", 5, 20), ("D", 6, 30),
    ("E6", 6, 36),
])
def test_positive_root_counts(family, rank, count):
    rs = RootSystem(family, rank)
    assert len(rs._positive) == count


@pytest.mark.parametrize("family,rank,coeffs", [
    ("A", 3, [1, 1, 1]),
    ("D", 4, [1, 2, 1, 1]),
    ("D", 6, [1, 2, 2, 2, 1, 1]),
    ("E6", 6, [1, 2, 2, 3, 2, 1]),
])
def test_highest_root_coefficients(family, rank, coeffs):
    rs = RootSystem(family, rank)
    assert list(rs.highest_root()) == coeffs


@pytest.mark.parametrize("family, rank", TABLES_RANK8)
def test_dynkin_edges_form_a_tree(family, rank):
    # each edge once: a reflection sums the neighbours of a node, so a
    # repeated edge would count its neighbour twice
    edges = dynkin_edges(family, rank)
    assert len(set(edges)) == len(edges) == rank - 1
    reached = {1}
    for _ in range(rank):
        reached |= {b for a, b in edges if a in reached}
        reached |= {a for a, b in edges if b in reached}
    assert reached == set(range(1, rank + 1))
    cartan = RootSystem(family, rank).cartan_matrix
    assert sum(x == -1 for row in cartan for x in row) == 2 * len(edges)


def test_cartan_matrix_shape():
    for rs in (RootSystem("A", 4), RootSystem("D", 5), RootSystem("E6", 6)):
        cm = rs.cartan_matrix
        for i in range(rs.rank):
            assert cm[i][i] == 2
            for j in range(rs.rank):
                if i != j:
                    assert cm[i][j] <= 0
                    assert (cm[i][j] == 0) == (cm[j][i] == 0)


def test_reflections_orthogonal():
    # rows act on coefficient rows from the right, so the form (x, y) =
    # x C y^T is invariant exactly when W C W^T = C
    rs = RootSystem("D", 4)
    cartan = rs.cartan_matrix
    for b in rs._positive:
        m = rs.reflection(b)
        assert _matmul(_matmul(m, cartan), _transpose(m)) == cartan
        assert _matmul(m, m) == _identity(rs.rank)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 4), ("D", 4), ("D", 5), ("E6", 6)])
def test_longest_element_involution_and_negativity(family, rank):
    rs = RootSystem(family, rank)
    w0 = [list(row) for row in rs.w0_rows()]
    cartan = rs.cartan_matrix
    assert _matmul(w0, w0) == _identity(rank)
    assert _matmul(_matmul(w0, cartan), _transpose(w0)) == cartan
    positives = set(rs._positive)
    for c in rs._positive:
        img = tuple(-x for x in _matmul([list(c)], w0)[0])
        assert img in positives


def test_diagram_involutions():
    # w_0(alpha_i) = -alpha_eps(i) for the diagram involution eps
    for family, rank, eps in (("A", 2, [1, 0]), ("A", 1, [0]), ("D", 4, [0, 1, 2, 3]),
                              ("D", 5, [0, 1, 2, 4, 3]), ("E6", 6, [5, 1, 4, 3, 2, 0])):
        assert RootSystem(family, rank).w0_rows() == [
            tuple(-int(j == e) for j in range(rank)) for e in eps]


def test_coroot_pairing_basics():
    rs = RootSystem("D", 5)
    for c in rs._positive:
        v = rs.to_ambient(c)
        assert rs.coroot_pairing(v, v) == 2
    weights = rs.fundamental_weights()
    for i, a in enumerate(rs.simple_roots):
        for j, w in enumerate(weights):
            assert rs.coroot_pairing(a, w) == int(i == j)


def test_coroot_pairing_d5_spin_example():
    rs = RootSystem("D", 5)
    e12 = [Q(1), Q(1), Q(0), Q(0), Q(0)]
    coeffs = (1, 2, 2, 1, 1)
    assert rs.to_ambient(coeffs) == e12
    assert rs.is_root(coeffs)
    omega4 = rs.fundamental_weights()[3]
    assert rs.coroot_pairing(e12, omega4) == 1 == coeffs[3]


def test_is_root_on_roots_negatives_and_non_roots():
    rs = RootSystem("D", 4)
    for c in rs._positive:
        assert rs.is_root(c) and rs.is_root([-x for x in c])
        assert not rs.is_root([2 * x for x in c])
        assert rs.is_positive_root(c) and not rs.is_positive_root([-x for x in c])
    assert not rs.is_root([0] * rs.rank)


def test_fundamental_weights_e6_all_pairs():
    rs = RootSystem("E6", 6)
    weights = rs.fundamental_weights()
    for i, a in enumerate(rs.simple_roots):
        for j, w in enumerate(weights):
            assert rs.coroot_pairing(a, w) == int(i == j)


def test_a1_weight_is_half_root():
    rs = RootSystem("A", 1)
    w = rs.fundamental_weights()[0]
    assert w == [x / 2 for x in rs.simple_roots[0]]


def test_non_integral_pairing_raises():
    rs = RootSystem("A", 2)
    bad = [x / 3 for x in rs.simple_roots[0]]
    with pytest.raises(NonIntegralPairingError):
        rs.coroot_pairing(rs.simple_roots[0], bad)


def test_w0_action_on_simple_coeffs():
    rs = RootSystem("A", 3)
    assert rs.w0_rows() == [(0, 0, -1), (0, -1, 0), (-1, 0, 0)]


def test_unsupported_families_rejected():
    with pytest.raises(ValueError):
        RootSystem("B", 3)
    with pytest.raises(ValueError):
        RootSystem("D", 3)
    with pytest.raises(ValueError):
        RootSystem("E6", 7)


def test_positive_roots_have_positive_height_order():
    rs = RootSystem("E6", 6)
    pos = rs._positive
    heights = [sum(c) for c in pos]
    assert heights == sorted(heights)
    assert heights[0] == 1 and heights[-1] == 11
    for c in pos:
        v = rs.to_ambient(c)
        assert _dot(v, v) == 2
        assert _matmul([list(c)], _matmul(rs.cartan_matrix, [[x] for x in c])) == [[2]]
