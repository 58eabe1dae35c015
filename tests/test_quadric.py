from fractions import Fraction

import pytest

from levitanaka.errors import DegenerateFormError, NotFundamentalError
from levitanaka.matrices import ExactMatrix
from levitanaka.quadric import (
    HermitianFormSystem,
    diagonal_form,
    extract_components,
)
from levitanaka.scalars import GaussRational

Q = Fraction

# positions of the complex parameters in the n=7, k=8 example form
COUNTEREXAMPLE_POSITIONS = [
    [(2, 1)],          # alpha
    [(3, 2)],          # beta
    [(2, 4), (5, 1)],  # gamma
    [(2, 6), (7, 1)],  # delta
]


def counterexample_form():
    return extract_components(7, COUNTEREXAMPLE_POSITIONS)


def test_nondegenerate_trivial_cases():
    assert diagonal_form([1]).is_nondegenerate()
    degenerate = diagonal_form([1, 0])
    assert not degenerate.is_nondegenerate()
    witness = degenerate.joint_kernel()[0]
    assert witness[0] == GaussRational(0) and witness[1] != GaussRational(0)


def test_fundamental_trivial_cases():
    assert diagonal_form([1]).is_fundamental()
    a1 = ExactMatrix.from_rows([[GaussRational(1), GaussRational(0)],
                                [GaussRational(0), GaussRational(-1)]])
    a2 = a1.scale(GaussRational(2))
    dependent = HermitianFormSystem(2, 2, [a1, a2])
    assert not dependent.is_fundamental()


def test_hermitian_validation():
    bad = ExactMatrix.from_rows([[GaussRational(0, 1)]])
    with pytest.raises(ValueError):
        HermitianFormSystem(1, 1, [bad])


def test_evaluate_diagonal_values_are_real():
    h = counterexample_form()
    z = [GaussRational(1, 1), GaussRational(2, -1), GaussRational(0, 3),
         GaussRational(1), GaussRational(0), GaussRational(-1, 2),
         GaussRational(Q(1, 2), Q(-1, 3))]
    for value in h.evaluate(z, z):
        assert value.is_real()


def test_build_m_minus_heisenberg_sign():
    m = diagonal_form([1]).build_m_minus()
    assert m.names == ["e1", "Je1", "t1"]
    assert m.degrees == [-1, -1, -2]
    # [e1, Je1] = -t from Im H(e1, i e1) = Im(-i) = -1
    assert m.bracket_elements(0, 1) == {2: Q(-1)}
    assert m.validate().ok


def test_build_m_minus_signature_1_1():
    m = diagonal_form([1, -1]).build_m_minus()
    assert m.dim == 5
    assert m.bracket_elements(0, 2) == {4: Q(-1)}   # [e1, Je1] = -t
    assert m.bracket_elements(1, 3) == {4: Q(1)}    # [e2, Je2] = +t
    assert m.validate().ok


def test_build_m_minus_rejects_bad_forms():
    with pytest.raises(DegenerateFormError):
        diagonal_form([1, 0]).build_m_minus()
    a1 = ExactMatrix.from_rows([[GaussRational(1)]])
    a2 = ExactMatrix.from_rows([[GaussRational(2)]])
    with pytest.raises(NotFundamentalError):
        HermitianFormSystem(1, 2, [a1, a2]).build_m_minus()


def _j_pairs_compatible(m):
    """[JX, JY] == [X, Y] on all degree -1 basis pairs."""
    block = m.degree_indices(-1)
    d = len(block)
    jcols = [{block[t]: m.J.entry(t, a) for t in range(d)} for a in range(d)]
    for a in range(d):
        for b in range(d):
            if m.bracket(jcols[a], jcols[b]) != m.bracket({block[a]: 1}, {block[b]: 1}):
                return False
    return True


def _algebra_fundamental(m):
    """brackets of the degree -1 part span the degree -2 part."""
    block = m.degree_indices(-1)
    low = m.degree_indices(-2)
    vecs = []
    for i, a in enumerate(block):
        for b in block[i + 1:]:
            v = m.bracket_elements(a, b)
            if v:
                vecs.append([v.get(t, Q(0)) for t in low])
    if not vecs:
        return not low
    return ExactMatrix.from_rows(vecs).rank() == len(low)


def _algebra_nondegenerate(m):
    """no nonzero degree -1 vector bracket-annihilates the degree -1 part."""
    block = m.degree_indices(-1)
    low = m.degree_indices(-2)
    rows = []
    for b in block:
        for z in low:
            row = [m.bracket_elements(a, b).get(z, Q(0)) for a in block]
            rows.append(row)
    return ExactMatrix.from_rows(rows).rank() == len(block)


@pytest.mark.parametrize("signature", [[1], [1, 1], [1, -1], [1, 1, -1]])
def test_m_minus_invariants_diagonal(signature):
    m = diagonal_form(signature).build_m_minus()
    assert m.validate().ok
    assert _j_pairs_compatible(m)
    assert _algebra_fundamental(m)
    assert _algebra_nondegenerate(m)


def test_extract_components_re_alpha():
    h = counterexample_form()
    a_re = h.components[0]
    expected = [[GaussRational(0)] * 7 for _ in range(7)]
    expected[1][0] = GaussRational(1)
    expected[0][1] = GaussRational(1)
    assert a_re == ExactMatrix.from_rows(expected)


def test_extract_components_im_delta_support():
    h = counterexample_form()
    a_im_delta = h.components[7]
    support = {(r, c) for r in range(7) for c in range(7)
               if a_im_delta.entry(r, c)}
    assert support == {(1, 5), (5, 1), (0, 6), (6, 0)}
    assert a_im_delta.conj_transpose() == a_im_delta


def test_extract_components_sum_check():
    h = counterexample_form()
    params = [GaussRational(Q(1), Q(2)), GaussRational(Q(-2), Q(3)),
              GaussRational(Q(1, 2), Q(-1)), GaussRational(Q(0), Q(5))]
    total = ExactMatrix(7, 7, [GaussRational(0)] * 49)
    for p_idx, p in enumerate(params):
        total = total + h.components[2 * p_idx].scale(GaussRational(p.re))
        total = total + h.components[2 * p_idx + 1].scale(GaussRational(p.im))
    # rebuild the displayed matrix directly
    direct = [[GaussRational(0)] * 7 for _ in range(7)]
    for p, positions in zip(params, COUNTEREXAMPLE_POSITIONS):
        for (r, c) in positions:
            direct[r - 1][c - 1] = direct[r - 1][c - 1] + p
            direct[c - 1][r - 1] = direct[c - 1][r - 1] + p.conjugate()
    assert total == ExactMatrix.from_rows(direct)


def test_counterexample_form_regularity_and_dims():
    h = counterexample_form()
    assert h.n == 7 and h.k == 8
    assert h.is_nondegenerate()
    assert h.is_fundamental()
    m = h.build_m_minus()
    dims = m.degree_dims()
    assert dims == {-2: 8, -1: 14}
    assert m.validate().ok
    assert _j_pairs_compatible(m)
    assert _algebra_fundamental(m)
    assert _algebra_nondegenerate(m)


def test_fundamental_cross_check_matches_algebra():
    # degenerate-fundamentality pairings: compare the two code paths
    for sig in ([1], [1, -1], [1, 1, 1]):
        h = diagonal_form(sig)
        m = h.build_m_minus()
        assert h.is_fundamental() == _algebra_fundamental(m)
        assert h.is_nondegenerate() == _algebra_nondegenerate(m)


def test_json_roundtrip(tmp_path):
    h = counterexample_form()
    path = tmp_path / "form.json"
    h.dump(path)
    h2 = HermitianFormSystem.load(path)
    assert h2.to_json() == h.to_json()
    assert h2.components == h.components
