from fractions import Fraction

import pytest

from levitanaka.errors import NonIntegralPairingError
from levitanaka.matrices import ExactMatrix
from levitanaka.rootdata import RootSystem, _dot

Q = Fraction


@pytest.mark.parametrize("family,rank,count", [
    ("A", 2, 3), ("A", 3, 6), ("A", 5, 15),
    ("D", 4, 12), ("D", 5, 20), ("D", 6, 30),
    ("E6", 6, 36),
])
def test_positive_root_counts(family, rank, count):
    rs = RootSystem(family, rank)
    assert len(rs.positive_roots()) == count


@pytest.mark.parametrize("family,rank,coeffs", [
    ("A", 3, [1, 1, 1]),
    ("D", 4, [1, 2, 1, 1]),
    ("D", 6, [1, 2, 2, 2, 1, 1]),
    ("E6", 6, [1, 2, 2, 3, 2, 1]),
])
def test_highest_root_coefficients(family, rank, coeffs):
    rs = RootSystem(family, rank)
    _, got = rs.highest_root()
    assert got == coeffs


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
    rs = RootSystem("D", 4)
    for alpha in rs.simple_roots:
        m = rs.reflection_matrix(alpha)
        assert m.transpose() * m == ExactMatrix.identity(rs.ambient)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 4), ("D", 4), ("D", 5), ("E6", 6)])
def test_longest_element_involution_and_negativity(family, rank):
    rs = RootSystem(family, rank)
    w0 = rs.longest_element()
    assert w0.matrix * w0.matrix == ExactMatrix.identity(rs.ambient)
    positives = {tuple(v) for v in rs.root_vectors()}
    for v in rs.root_vectors():
        img = tuple(-x for x in w0.apply(v))
        assert img in positives


def test_diagram_involutions():
    assert RootSystem("A", 2).diagram_involution() == {0: 1, 1: 0}
    assert RootSystem("A", 1).diagram_involution() == {0: 0}
    assert RootSystem("D", 4).diagram_involution() == {0: 0, 1: 1, 2: 2, 3: 3}
    assert RootSystem("D", 5).diagram_involution() == {0: 0, 1: 1, 2: 2, 3: 4, 4: 3}
    assert RootSystem("E6", 6).diagram_involution() == \
        {0: 5, 1: 1, 2: 4, 3: 3, 4: 2, 5: 0}


def test_coroot_pairing_basics():
    rs = RootSystem("D", 5)
    for v, _ in rs.positive_roots():
        assert rs.coroot_pairing(v, v) == 2
    weights = rs.fundamental_weights()
    for i, a in enumerate(rs.simple_roots):
        for j, w in enumerate(weights):
            assert rs.coroot_pairing(a, w) == int(i == j)


def test_coroot_pairing_d5_spin_example():
    rs = RootSystem("D", 5)
    e12 = [Q(1), Q(1), Q(0), Q(0), Q(0)]
    assert rs.is_root(e12)
    omega4 = rs.fundamental_weights()[3]
    assert rs.coroot_pairing(e12, omega4) == 1


def test_is_root_on_roots_negatives_and_non_roots():
    rs = RootSystem("D", 4)
    for v, _ in rs.positive_roots():
        assert rs.is_root(v) and rs.is_root([-x for x in v])
        assert not rs.is_root([2 * x for x in v])
    assert not rs.is_root([Q(0)] * rs.ambient)
    assert rs.positive_root_set() == {tuple(v) for v in rs.root_vectors()}


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
    rows = rs.w0_on_simple_coeffs()
    assert rows == [[0, 0, -1], [0, -1, 0], [-1, 0, 0]]


def test_unsupported_families_rejected():
    with pytest.raises(ValueError):
        RootSystem("B", 3)
    with pytest.raises(ValueError):
        RootSystem("D", 3)
    with pytest.raises(ValueError):
        RootSystem("E6", 7)


def test_positive_roots_have_positive_height_order():
    rs = RootSystem("E6", 6)
    pos = rs.positive_roots()
    heights = [sum(c) for _, c in pos]
    assert heights == sorted(heights)
    assert heights[0] == 1 and heights[-1] == 11
    for v, c in pos:
        rebuilt = [Q(0)] * rs.ambient
        for k, ck in enumerate(c):
            rebuilt = [x + ck * a for x, a in zip(rebuilt, rs.simple_roots[k])]
        assert rebuilt == v
        assert _dot(v, v) == 2
