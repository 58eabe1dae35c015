from fractions import Fraction

import pytest

from levitanaka.classify import FactorDescriptor
from levitanaka.errors import AdmissibilityError, KindError
from levitanaka.involution import (
    BOTH,
    GAMMA_PRIME_ONLY,
    KIND1_GAMMA,
    KIND1_NONE,
    gamma_case,
    grading_vector,
    kind1_degree_one_subword,
    orthogonal_word,
    parity_table,
    s_property_sufficient,
)
from levitanaka.matrices import ExactMatrix
from levitanaka.rootdata import _dot, root_system

Q = Fraction


def D(family, rank, form, phi, p=None, q=None):
    return FactorDescriptor(family, rank, form, phi, p, q)


def _ambient_word(d):
    """The verified word of d as ambient vectors."""
    rs = d.root_system()
    return [rs.to_ambient(b) for b in orthogonal_word(d).coeffs]


def test_word_a3():
    assert _ambient_word(D("A", 3, "COMPLEX", ["a2"])) == [
        [Q(1), Q(0), Q(0), Q(-1)],   # e1 - e4
        [Q(0), Q(1), Q(-1), Q(0)],   # e2 - e3
    ]


def test_word_d5():
    assert _ambient_word(D("D", 5, "D Ib", ["a5"])) == [
        [Q(1), Q(1), Q(0), Q(0), Q(0)],
        [Q(1), Q(-1), Q(0), Q(0), Q(0)],
        [Q(0), Q(0), Q(1), Q(1), Q(0)],
        [Q(0), Q(0), Q(1), Q(-1), Q(0)],
    ]


def test_word_e6_contains_quoted_roots():
    rs = root_system("E6", 6)
    words = _ambient_word(D("E6", 6, "E II", ["a1"]))
    assert len(words) == 4
    coeff_sets = []
    for beta in words:
        coeffs = None
        for c in rs._positive:
            if rs.to_ambient(c) == beta:
                coeffs = list(c)
        coeff_sets.append(coeffs)
    assert [1, 0, 1, 1, 1, 1] in coeff_sets
    assert [1, 2, 2, 3, 2, 1] in coeff_sets


@pytest.mark.parametrize("d", [
    D("A", 4, "A IV", ["a1"], 1, 4),
    D("A", 5, "A III", ["a2"], 2, 4),
    D("D", 6, "D Ib", ["a6"]),
    D("D", 7, "D IIIb", ["a7"]),
    D("E6", 6, "E III", ["a1"]),
    D("D", 8, "D Ib", ["a7"]),
])
def test_word_verification_passes(d):
    w = orthogonal_word(d)
    rs = root_system(w.family, w.rank)
    assert all(rs.is_positive_root(b) for b in w.coeffs)
    prod = [[int(i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    for b in w.coeffs:
        m = rs.reflection(b)
        prod = [[sum(x * m[k][j] for k, x in enumerate(row)) for j in range(rs.rank)]
                for row in prod]
    assert [tuple(row) for row in prod] == rs.w0_rows()


def kminus(l):
    return (l - 1) // 2


@pytest.mark.parametrize("l", [5, 7, 9])
def test_parity_table_d_odd_closed_form(l):
    d = D("D", l, "D Ib", [f"a{l}"])
    w = orthogonal_word(d)
    rows = parity_table(w, d)
    k = kminus(l)
    for row in rows:
        j = row["weight"]
        if j <= l - 2:
            assert row["parity"] == 0
        else:
            assert row["parity"] == k % 2
    # D5: all match; D7: spin weights mismatch (central correction needed)
    if l == 5:
        assert all(r["match"] for r in rows)
    if l == 7:
        assert [r["match"] for r in rows] == [True] * 5 + [False, False]


def test_parity_table_d8_phi_a7():
    d = D("D", 8, "D Ib", ["a7"])
    rows = parity_table(orthogonal_word(d), d)
    assert any(not r["match"] for r in rows)
    assert gamma_case(d) == GAMMA_PRIME_ONLY


def test_gamma_case_table():
    assert gamma_case(D("E6", 6, "E II", ["a1"])) == BOTH
    assert gamma_case(D("A", 5, "A III", ["a2"], 2, 4)) == BOTH
    assert gamma_case(D("A", 5, "COMPLEX", ["a2", "a4'"])) == BOTH
    assert gamma_case(D("D", 5, "D Ib", ["a5"])) == BOTH
    assert gamma_case(D("D", 7, "D IIIb", ["a7"])) == BOTH
    assert gamma_case(D("D", 6, "D Ib", ["a5"])) == BOTH          # 6 = 2 mod 4
    assert gamma_case(D("D", 8, "D Ib", ["a7"])) == GAMMA_PRIME_ONLY
    assert gamma_case(D("D", 6, "COMPLEX", ["a5", "a6'"])) == BOTH
    assert gamma_case(D("D", 8, "COMPLEX", ["a7", "a8'"])) == GAMMA_PRIME_ONLY
    assert gamma_case(D("D", 6, "COMPLEX", ["a1", "a5'"])) == GAMMA_PRIME_ONLY
    assert gamma_case(D("D", 6, "COMPLEX", ["a1", "a6'"])) == GAMMA_PRIME_ONLY
    assert gamma_case(D("A", 5, "COMPLEX", ["a3"])) == KIND1_NONE
    assert gamma_case(D("A", 3, "COMPLEX", ["a2"])) == KIND1_GAMMA
    assert gamma_case(D("D", 6, "COMPLEX", ["a1"])) == KIND1_GAMMA
    assert gamma_case(D("D", 5, "COMPLEX", ["a1"])) == KIND1_GAMMA


def test_gamma_case_kind_error():
    with pytest.raises(KindError):
        gamma_case(D("A", 5, "A III", ["a1", "a4"], 3, 3))  # kind 4


@pytest.mark.parametrize("d", [
    D("A", 3, "COMPLEX", ["a2"]),
    D("A", 5, "COMPLEX", ["a3"]),
    D("D", 5, "COMPLEX", ["a1"]),
    D("D", 6, "COMPLEX", ["a1"]),
    D("D", 6, "COMPLEX", ["a5"]),
    D("D", 6, "COMPLEX", ["a6"]),
])
def test_kind1_half_sum_identity(d):
    sub = kind1_degree_one_subword(d)
    e = grading_vector(d)
    half = [Q(0)] * len(e)
    for beta in sub:
        half = [x + y / 2 for x, y in zip(half, beta)]
    assert half == e
    # certificate parity always matches at kind 1
    w = orthogonal_word(d)
    rs = root_system(w.family, w.rank)
    for j, omega in enumerate(rs.fundamental_weights(), start=1):
        parity = sum(rs.coroot_pairing(beta, omega) for beta in sub) % 2
        assert parity == (2 * _dot(omega, e)) % 2


def _a_type_gamma(l, i):
    """An explicit grading-reversing matrix in SL(l+1) for the A_l grading
    that phi = {a_i} defines, E = diag(1_i, 0, -1_i): gamma_case's BOTH
    for A-type factors asserts that such an involutive element exists.

    Antidiagonal identity blocks of size floor(l/2) around a middle block
    chosen by l mod 4, so that the determinant is 1.
    """
    n = l + 1
    m = l // 2
    rows = [[0] * n for _ in range(n)]
    for r in range(m):
        rows[r][l - r] = rows[l - r][r] = 1
    if n - 2 * m == 1:
        rows[m][m] = 1 if l % 4 == 0 else -1
    elif l % 4 == 1:
        rows[m][m] = rows[m + 1][m + 1] = 1
    else:
        rows[m][m + 1] = rows[m + 1][m] = 1
    e = ExactMatrix.from_rows([[int(r == c) * (1 if r < i else -1 if r >= n - i else 0)
                                for c in range(n)] for r in range(n)])
    return ExactMatrix.from_rows(rows), e


def _a_descriptor(l, i):
    """The A_l factor with phi = {a_i}: A IV for i = 1, else A III with p = i."""
    return D("A", l, "A IV" if i == 1 else "A III", [f"a{i}"], i, l + 1 - i)


def test_a_type_gamma_small():
    g, e = _a_type_gamma(2, 1)
    assert e == ExactMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, -1]])
    assert g * e * g == e.scale(Q(-1))
    assert g.det() == 1
    assert gamma_case(_a_descriptor(2, 1)) == BOTH


@pytest.mark.parametrize("l,i", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1),
                                 (5, 2), (6, 2), (7, 3)])
def test_a_type_gamma_block_choices(l, i):
    g, e = _a_type_gamma(l, i)
    n = l + 1
    assert g.det() == 1
    identity = ExactMatrix.identity(n)
    g2 = g * g
    assert g2 == identity
    assert g2 * g2 == identity
    assert g * e * g == e.scale(-1)
    assert gamma_case(_a_descriptor(l, i)) == BOTH


def test_a_type_gamma_precondition():
    # the witness needs 1 <= i < (l+1)/2; outside it there is no kind-2 factor
    with pytest.raises(AdmissibilityError):
        gamma_case(D("A", 5, "A III", ["a3"], 3, 3))  # 2i = l + 1: eps(a3) = a3
    with pytest.raises(ValueError, match="phi"):
        D("A", 4, "A IV", ["a0"], 1, 4)  # i = 0: a0 is no node


def test_every_listed_kind2_factor_has_a_certificate():
    from levitanaka.classify import enumerate_descriptors, in_kind2_list
    for d, kind in enumerate_descriptors(8):
        if kind == 2 and in_kind2_list(d):
            assert gamma_case(d) in (BOTH, GAMMA_PRIME_ONLY), d


def test_certificate_report_serializes():
    import json as _json
    from levitanaka.involution import certificate_report
    rep = certificate_report(D("E6", 6, "E II", ["a1"]))
    blob = _json.dumps(rep, sort_keys=True)
    back = _json.loads(blob)
    assert back["gamma_case"] == "BOTH"
    assert [1, 2, 2, 3, 2, 1] in back["word"]
    assert all(v["match"] for v in back["parity_table"].values())
    rep = certificate_report(D("D", 7, "D Ib", ["a7"]))
    assert not all(v["match"] for v in rep["parity_table"].values())


def test_s_property_sufficient():
    assert s_property_sufficient([], [], True)
    kind2_bad = [D("D", 6, "D Ib", ["a5"])]
    kind1_bad = [D("A", 5, "COMPLEX", ["a3"])]
    assert not s_property_sufficient(kind2_bad, kind1_bad, False)
    assert s_property_sufficient([D("E6", 6, "E II", ["a1"])], [], False)
    # no bad kind-1 factor: condition (2)
    assert s_property_sufficient(kind2_bad, [D("A", 3, "COMPLEX", ["a2"])], False)
    # no even-D kind-2 factor: condition (3)
    assert s_property_sufficient([D("D", 5, "D Ib", ["a5"])], kind1_bad, False)
