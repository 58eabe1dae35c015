import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levitanaka
from levitanaka import corpus, elimination
from levitanaka.errors import (
    InternalConsistencyError,
    NilradicalUnsupportedError,
    NoCharacteristicElementError,
    NotUniqueCharacteristicElementError,
)
from levitanaka.graded import GradedLieAlgebra, Subspace
from levitanaka.matrices import ExactMatrix
from levitanaka.prolongation import prolong
from levitanaka.quadric import diagonal_form

from naive_oracle import bracket as naive_bracket
from naive_oracle import jacobi_first_failure, killing_matrix

Q = Fraction


def sl2(degrees=(0, 1, -1)):
    """Basis (h, e, f) with [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    table = {
        (0, 1): {1: Q(2)},
        (0, 2): {2: Q(-2)},
        (1, 2): {0: Q(1)},
    }
    return GradedLieAlgebra(["h", "e", "f"], list(degrees), table)


def heisenberg3():
    """e, Je, t with [e, Je] = -t; J rotates the degree -1 plane."""
    table = {(0, 1): {2: Q(-1)}}
    J = ExactMatrix.from_rows([[0, -1], [1, 0]])
    return GradedLieAlgebra(["e1", "Je1", "t1"], [-1, -1, -2], table, J)


def sl2_plus_center():
    table = {
        (0, 1): {1: Q(2)},
        (0, 2): {2: Q(-2)},
        (1, 2): {0: Q(1)},
    }
    return GradedLieAlgebra(["h", "e", "f", "z"], [0, 1, -1, 0], table)


def sl2_sl2():
    table = {
        (0, 1): {1: Q(2)},
        (0, 2): {2: Q(-2)},
        (1, 2): {0: Q(1)},
        (3, 4): {4: Q(2)},
        (3, 5): {5: Q(-2)},
        (4, 5): {3: Q(1)},
    }
    return GradedLieAlgebra(["h1", "e1", "f1", "h2", "e2", "f2"],
                            [0, 1, -1, 0, 1, -1], table)


def sl2_semidirect_v2():
    """sl2 acting on its 2-dim standard module (degrees 0,2,-2,1,-1)."""
    table = {
        (0, 1): {1: Q(2)},
        (0, 2): {2: Q(-2)},
        (1, 2): {0: Q(1)},
        (0, 3): {3: Q(1)},
        (0, 4): {4: Q(-1)},
        (1, 4): {3: Q(1)},
        (2, 3): {4: Q(1)},
    }
    return GradedLieAlgebra(["h", "e", "f", "v1", "v2"], [0, 2, -2, 1, -1], table)


def sl2_semidirect_adjoint(shear=False):
    """sl2 acting on a copy of its adjoint module; optional e -> e+ue shear."""
    table = {
        (0, 1): {1: Q(2)},
        (0, 2): {2: Q(-2)},
        (1, 2): {0: Q(1)},
        (0, 4): {4: Q(2)},
        (0, 5): {5: Q(-2)},
        (1, 3): {4: Q(-2)},
        (1, 5): {3: Q(1)},
        (2, 3): {5: Q(2)},
        (2, 4): {3: Q(-1)},
    }
    g = GradedLieAlgebra(["h", "e", "f", "uh", "ue", "uf"],
                         [0, 2, -2, 0, 2, -2], table)
    if not shear:
        return g
    p = ExactMatrix.identity(6)
    p.entries[4 * 6 + 1] = Q(1)  # column of e gains ue
    return g.change_basis(p)


# transvections of algebra A, [i, j, c]: column j += c * column i
ALGEBRA_A_MOVES = [[27, 2, 1], [0, 5, -1], [53, 3, -1], [22, 62, 1], [43, 58, 1],
                   [3, 53, -1], [66, 68, -1], [43, 20, 1], [66, 63, -1], [26, 53, 1],
                   [67, 23, -1], [68, 65, -1]]


def algebra_a_with_denominators():
    """Algebra A after ALGEBRA_A_MOVES, then every 7th column scaled by 2 or 3."""
    a = corpus.example_algebra_a().payload
    n = a.dim
    p = ExactMatrix.identity(n)
    for i, j, c in ALGEBRA_A_MOVES:
        for r in range(n):
            p.entries[r * n + j] += c * p.entries[r * n + i]
    for j in range(0, n, 7):
        for r in range(n):
            p.entries[r * n + j] *= 2 + j % 2
    return a.change_basis(p)


def test_validate_certificates():
    assert sl2().validate().ok
    assert heisenberg3().validate().ok
    assert sl2_sl2().validate().ok
    assert sl2_semidirect_v2().validate().ok
    assert sl2_semidirect_adjoint().validate().ok
    assert sl2_semidirect_adjoint(shear=True).validate().ok


def test_validate_degree_violation():
    table = {(0, 1): {2: Q(-1)}, (0, 2): {0: Q(1)}}  # [e, t] hits degree -1
    g = GradedLieAlgebra(["e1", "Je1", "t1"], [-1, -1, -2], table)
    rep = g.validate()
    assert not rep.ok
    assert rep.violations[0]["check"] == "degree_additivity"


def test_validate_jacobi_violation():
    # tweak one structure constant of sl2 x sl2 to break Jacobi
    g = sl2_sl2()
    table = {k: dict(v) for k, v in g.table.items()}
    table[(0, 1)][1] = Q(3)
    bad = GradedLieAlgebra(g.names, g.degrees, table)
    rep = bad.validate()
    assert not rep.ok
    assert rep.violations[0]["check"] == "jacobi"
    assert "triple" in rep.violations[0]


def test_validate_j_block_mismatch():
    J = ExactMatrix.from_rows([[0, -1], [1, 0]])
    with pytest.raises(ValueError, match="J is 2x2, degree -1 block has dim 3"):
        GradedLieAlgebra(["a", "b", "c"], [-1, -1, -1], {}, J)


@lru_cache(maxsize=None)
def _oracle_algebra(name):
    if name == "sl2_sl2":
        return sl2_sl2()
    if name == "algebra_a":
        return corpus.example_algebra_a().payload
    if name == "algebra_a_denominators":
        return algebra_a_with_denominators()
    if name == "sheared_semidirect":
        return sl2_semidirect_adjoint(shear=True)
    return prolong(diagonal_form([1, -1]).build_m_minus()).algebra


@given(st.sampled_from(["sl2_sl2", "algebra_a", "algebra_a_denominators",
                        "heisenberg_pm"]), st.data())
@settings(max_examples=80, deadline=None)
def test_validate_reports_the_oracle_first_jacobi_violation(name, data):
    # one structure constant moved by a nonzero amount (possibly to zero);
    # its target keeps its degree, so only Jacobi can fail.  A move by
    # +-1/3 changes the lcm of the denominators that validate scales by
    g = _oracle_algebra(name)
    i, j, k = data.draw(st.sampled_from(
        [(i, j, k) for (i, j), comp in sorted(g.table.items()) for k in sorted(comp)]))
    table = {key: dict(comp) for key, comp in g.table.items()}
    table[i, j][k] += data.draw(st.sampled_from([-2, -1, 1, 3, Q(1, 3), Q(-1, 3)]))
    bad = GradedLieAlgebra(g.names, g.degrees, table, g.J)
    expected = jacobi_first_failure(bad.table, bad.dim)
    rep = bad.validate()
    assert [v["triple"] for v in rep.violations] == \
        ([] if expected is None else [expected])
    assert all(v["check"] == "jacobi" for v in rep.violations)


def test_killing_rows_match_the_all_pairs_oracle():
    algebras = [sl2_sl2(), sl2_semidirect_adjoint(shear=True)]
    for entry in corpus.all_entries():
        if entry.kind == "quadric":
            algebras.append(prolong(entry.payload.build_m_minus()).algebra)
        else:
            algebras.append(entry.payload)
    for g in algebras:
        n = g.dim
        rows = g.killing_rows()
        assert [[row.get(j, 0) for j in range(n)] for row in rows] == \
            killing_matrix(g.table, n)
        assert all(list(row) == sorted(row) for row in rows)


def test_killing_rows_require_degree_additivity():
    # sl2 with e and f both in degree 1: [e, f] = h hits degree 0, not 2,
    # and trace(ad e ad f) = 4 sits on a pair whose degrees sum to 2
    g = GradedLieAlgebra(["h", "e", "f"], [0, 1, 1],
                         {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    assert killing_matrix(g.table, 3)[1][2] == 4
    assert [v["check"] for v in g.validate().violations] == ["degree_additivity"]
    with pytest.raises(InternalConsistencyError, match="not degree-additive"):
        g.killing_rows()


def test_bracket_bilinear():
    g = heisenberg3()
    x = {0: Q(1)}
    y = {1: Q(1)}
    assert g.bracket(x, x) == {}
    assert g.bracket(x, y) == {2: Q(-1)}
    assert g.bracket(y, x) == {2: Q(1)}
    z = {2: Q(1)}
    assert g.bracket(x, z) == {}
    assert g.bracket({0: Q(2), 1: Q(3)}, {0: Q(1), 1: Q(1)}) == {2: Q(1)}


@given(st.sampled_from(["sl2_sl2", "sheared_semidirect", "algebra_a_denominators"]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_bracket_matches_the_all_pairs_oracle(name, data):
    g = _oracle_algebra(name)
    n = g.dim
    entry = st.sampled_from([1, -1, 2, Q(1, 2), Q(-2, 3)])
    vector = st.dictionaries(st.integers(0, n - 1), entry, max_size=6)
    x, y = data.draw(vector), data.draw(vector)
    dense_x = [x.get(t, 0) for t in range(n)]
    dense_y = [y.get(t, 0) for t in range(n)]
    expected = naive_bracket(g.table, n, dense_x, dense_y)
    assert g.bracket(x, y) == {k: v for k, v in enumerate(expected) if v}
    i = data.draw(st.integers(0, n - 1))
    unit = [int(t == i) for t in range(n)]
    assert g.ad(i, y) == {k: v for k, v in enumerate(
        naive_bracket(g.table, n, unit, dense_y)) if v}


def test_ad_is_bracket_with_a_basis_vector():
    for g in (sl2_sl2(), sl2_semidirect_adjoint(shear=True)):
        v = {0: Q(3, 2), 2: Q(-2), 3: Q(5, 7), 4: Q(1), 5: Q(-1, 3)}
        for i in range(g.dim):
            assert g.ad(i, v) == g.bracket({i: Q(1)}, v)


def test_killing_sl2_hand_oracle():
    k = sl2().killing_rows()
    assert k[0].get(0, 0) == Q(8)
    assert k[1].get(2, 0) == Q(4)
    assert k[2].get(1, 0) == Q(4)
    assert k[0].get(1, 0) == 0 and k[0].get(2, 0) == 0
    assert k[1].get(1, 0) == 0 and k[2].get(2, 0) == 0


def test_killing_abelian_zero_and_center_row():
    ab = GradedLieAlgebra(["a", "b"], [-1, -1], {})
    assert not any(ab.killing_rows())
    h = heisenberg3()
    k = h.killing_rows()
    assert all(k[2].get(j, 0) == 0 for j in range(3))


def test_radical_semisimple_and_abelian():
    assert sl2().radical().dim == 0
    ab = GradedLieAlgebra(["a", "b"], [-1, -2], {})
    assert ab.radical().dim == 2


def test_radical_reductive():
    g = sl2_plus_center()
    rad = g.radical()
    assert rad.dim == 1
    assert 3 in rad.vectors[0]


def test_radical_is_computed_once():
    g = sl2_plus_center()
    rad = g.radical()
    g.nilradical()
    g.levi_decomposition()
    assert g.radical() is rad


def test_characteristic_element_is_computed_once(monkeypatch):
    g = sl2_semidirect_adjoint(shear=True)
    e = g.characteristic_element()
    g.levi_decomposition()
    assert g.characteristic_element() is e
    # an ambiguous grading element raises every time, from one solve
    calls = []
    solve = elimination.solve
    monkeypatch.setattr(elimination, "solve",
                        lambda *args: calls.append(1) or solve(*args))
    g = sl2_plus_center()
    for _ in range(2):
        with pytest.raises(NotUniqueCharacteristicElementError):
            g.characteristic_element()
    assert len(calls) == 1


def test_lower_central_series():
    h = heisenberg3()
    whole = Subspace(h, [{i: Q(1)} for i in range(3)])
    series = h.lower_central_series(whole)
    assert [s.dim for s in series] == [3, 1, 0]
    ab = GradedLieAlgebra(["a", "b"], [-1, -1], {})
    whole = Subspace(ab, [{0: Q(1)}, {1: Q(1)}])
    assert [s.dim for s in ab.lower_central_series(whole)] == [2, 0]
    s = sl2()
    whole = Subspace(s, [{i: Q(1)} for i in range(3)])
    assert [x.dim for x in s.lower_central_series(whole)] == [3]


def test_nilradical_cases():
    ab = GradedLieAlgebra(["a", "b"], [-1, -2], {})
    assert ab.nilradical().dim == 2
    g = sl2_plus_center()
    nil = g.nilradical()
    assert nil.dim == 1  # the center is the largest nilpotent ideal here
    assert g.radical().dim == 1
    sv = sl2_semidirect_v2()
    assert sv.nilradical().dim == 2


def test_nilradical_rejects_a_candidate_that_is_not_nilpotent():
    # x acts on span(v1, v2) by 1 + i: the Killing form vanishes, so the
    # radical and the candidate are everything, and [g, g] = span(v1, v2)
    # is its own bracket with g
    g = GradedLieAlgebra(["x", "v1", "v2"], [0, 0, 0],
                         {(0, 1): {1: 1, 2: 1}, (0, 2): {1: -1, 2: 1}})
    assert g.validate().ok
    assert not any(g.killing_rows())
    assert g.radical().dim == 3
    with pytest.raises(NilradicalUnsupportedError, match="candidate is not nilpotent"):
        g.nilradical()


def test_characteristic_element_sl2():
    g = sl2()
    e = g.characteristic_element()
    assert e == {0: Q(1, 2)}


def test_characteristic_element_absent():
    ab = GradedLieAlgebra(["a", "b"], [-1, -1], {})
    with pytest.raises(NoCharacteristicElementError):
        ab.characteristic_element()


def test_characteristic_element_not_unique():
    g = sl2_plus_center()
    with pytest.raises(NotUniqueCharacteristicElementError):
        g.characteristic_element()


def test_center():
    assert sl2().center().dim == 0
    assert sl2_plus_center().center().dim == 1
    assert heisenberg3().center().dim == 1


def test_levi_semisimple():
    g = sl2()
    dec = g.levi_decomposition()
    assert dec.s.dim == 3 and dec.r.dim == 0
    assert dec.E_s == g.characteristic_element()
    assert dec.E_r == {}


def test_levi_reductive():
    g = sl2_plus_center()
    dec = g.levi_decomposition()
    assert dec.s.dim == 3 and dec.r.dim == 1
    # bracket closure of s re-verified via its own Killing form
    assert elimination.rank(dec.s_algebra.killing_rows(), 3) == 3


def test_levi_with_correction():
    g = sl2_semidirect_adjoint(shear=True)
    dec = g.levi_decomposition()
    assert dec.s.dim == 3 and dec.r.dim == 3
    # naive unit-vector section is not closed here, so the correction ran;
    # s must be bracket-closed in parent coordinates
    for a in range(3):
        for b in range(a + 1, 3):
            w = g.bracket(dec.s.vectors[a], dec.s.vectors[b])
            assert dec.s.contains(w)
    assert dec.r.dim == g.radical().dim
    assert elimination.rank(dec.s_algebra.killing_rows(), 3) == 3
    e = g.characteristic_element()
    assert dec.E_s is not None
    assert {k: dec.E_s.get(k, 0) + dec.E_r.get(k, 0) for k in range(g.dim)
            if dec.E_s.get(k, 0) + dec.E_r.get(k, 0)} == e
    assert dec.r.contains(dec.E_r)


def test_levi_solvable_borel():
    # span(h, e) of sl2 is solvable: its Levi factor is 0 and E lies in r
    g = GradedLieAlgebra(["h", "e"], [0, 1], {(0, 1): {1: Q(2)}})
    dec = g.levi_decomposition()
    assert dec.s.dim == 0 and dec.r.dim == 2
    assert dec.E_s == {}
    assert dec.E_r == {0: Fraction(1, 2)}
    assert g.simple_ideals(dec.s) == []


def test_grading_element_in_levi_small_cases():
    # semisimple, reductive (the centre makes E ambiguous), split
    # extension with a corrected section, and solvable (E is all E_r)
    assert sl2().grading_element_in_levi() is True
    with pytest.raises(NotUniqueCharacteristicElementError):
        sl2_plus_center().grading_element_in_levi()
    assert sl2_semidirect_adjoint(shear=True).grading_element_in_levi() is True
    borel = GradedLieAlgebra(["h", "e"], [0, 1], {(0, 1): {1: Q(2)}})
    assert borel.grading_element_in_levi() is False


def test_levi_checks_its_E_r_against_the_membership_verdict(monkeypatch):
    monkeypatch.setattr(GradedLieAlgebra, "grading_element_in_levi",
                        lambda self: False)
    with pytest.raises(InternalConsistencyError, match="E_r disagrees"):
        sl2().levi_decomposition()
    # without a unique E there is nothing to compare
    assert sl2_plus_center().levi_decomposition().E_r is None


@lru_cache(maxsize=None)
def _levi_verdict_case(name):
    """(algebra, whether E lies in its Levi factor)."""
    if name == "counterexample_quadric":
        form = corpus.counterexample_quadric().payload
        return prolong(form.build_m_minus()).algebra, False
    return corpus.o8_sl2_example("double").payload, True


@given(st.sampled_from(["counterexample_quadric", "o8_sl2_double"]), st.data())
@settings(max_examples=16, deadline=None)
def test_grading_element_in_levi_under_basis_changes(name, data):
    # degree-preserving unimodular changes: column j += c * column i with
    # e_i and e_j of one degree
    g, expected = _levi_verdict_case(name)
    n = g.dim
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and g.degrees[i] == g.degrees[j]]
    moves = data.draw(st.lists(st.tuples(st.sampled_from(pairs),
                                         st.sampled_from([-2, -1, 1, 2])),
                               min_size=1, max_size=12))
    p = ExactMatrix.identity(n)
    for (i, j), c in moves:
        for r in range(n):
            p.entries[r * n + j] += c * p.entries[r * n + i]
    h = g.change_basis(p)
    assert h.grading_element_in_levi() is expected
    dec = h.levi_decomposition()
    assert (dec.E_r == {}) is expected
    assert dec.s.dim + dec.r.dim == n


def test_simple_ideals_simple_and_split():
    g = sl2()
    whole = Subspace(g, [{i: Q(1)} for i in range(3)])
    ideals = g.simple_ideals(whole)
    assert [i.dim for i in ideals] == [3]
    gg = sl2_sl2()
    whole = Subspace(gg, [{i: Q(1)} for i in range(6)])
    ideals = gg.simple_ideals(whole)
    assert sorted(i.dim for i in ideals) == [3, 3]
    # each returned ideal really is an ideal
    for ideal in ideals:
        for i in range(6):
            for v in ideal.vectors:
                assert ideal.contains(gg.bracket({i: Q(1)}, v))


def test_json_roundtrip():
    h = heisenberg3()
    j = h.to_json()
    h2 = GradedLieAlgebra.from_json(j)
    assert h2.to_json() == j
    assert h2.names == h.names and h2.degrees == h.degrees
    g = sl2_sl2()
    assert GradedLieAlgebra.from_json(g.to_json()).to_json() == g.to_json()


def test_change_basis_preserves_structure():
    g = sl2_semidirect_adjoint(shear=True)
    assert g.validate().ok
    assert g.radical().dim == 3
    k1 = sl2_semidirect_adjoint().killing_rows()
    # Killing rank is basis independent
    assert elimination.rank(g.killing_rows(), 6) == elimination.rank(k1, 6)


def test_levi_correction_keeps_zero_defects_zero():
    # The correction phi of one stage must also keep the pairs whose defect
    # was already zero closed; on this basis change of the 70-dim example
    # algebra, solving only the defective pairs left a defect outside the
    # next derived ideal ("defect escaped the expected ideal").
    from levitanaka.corpus import example_algebra_a

    a = example_algebra_a().payload
    n = a.dim
    p = ExactMatrix.identity(n)
    for i, j, c in ALGEBRA_A_MOVES:  # column j += c * column i
        for r in range(n):
            p.entries[r * n + j] += c * p.entries[r * n + i]
    dec = a.change_basis(p).levi_decomposition()
    assert dec.s.dim == 16
    assert dec.r.dim == 54


def test_span_certificates_raise():
    g = sl2()
    h, e, f = ({i: Q(1)} for i in range(3))
    with pytest.raises(ValueError, match="not bracket-closed"):
        g.subalgebra([e, f])  # [e, f] = h
    assert g.subalgebra([h, e])[0].dim == 2
    with pytest.raises(AssertionError, match="is not an ideal"):
        g._verify_ideal(Subspace(g, [e]), "span of e")
    g._verify_ideal(Subspace(g, [h, e, f]), "sl2")
    singular = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 0]])
    with pytest.raises(ValueError, match="singular"):
        g.change_basis(singular)


def _scaled_semidirect():
    """sl2 + adjoint module in a basis with halves and thirds in its table."""
    p = ExactMatrix.identity(6)
    p.entries[1 * 6 + 1] = Q(2)
    p.entries[4 * 6 + 1] = Q(1)
    p.entries[5 * 6 + 5] = Q(3)
    return sl2_semidirect_adjoint().change_basis(p)


def test_results_hold_ints_and_fractions_only():
    from levitanaka.prolongation import prolong
    from levitanaka.quadric import diagonal_form

    def exact(values):
        values = list(values)
        assert values and all(type(x) in (int, Fraction) for x in values)

    g = _scaled_semidirect()
    assert any(type(c) is Fraction for comp in g.table.values() for c in comp.values())
    exact(x for v in g.radical().vectors for x in v.values())
    exact(x for v in g.nilradical().vectors for x in v.values())
    exact(g.characteristic_element().values())
    dec = g.levi_decomposition()
    exact(x for sub in (dec.s, dec.r) for v in sub.vectors for x in v.values())
    exact([*dec.E_s.values(), *dec.E_r.values()])
    exact(c for comp in dec.s_algebra.table.values() for c in comp.values())
    table = prolong(diagonal_form([1, -1]).build_m_minus()).algebra.table
    exact(c for comp in table.values() for c in comp.values())
    exact(elimination.Echelon(6, dec.s.vectors).coords(dec.s.vectors[-1]).values())


def test_certificates_survive_python_O():
    # under -O a bare assert is stripped; the certificates must still raise
    script = textwrap.dedent("""
        from levitanaka.errors import InternalConsistencyError
        from levitanaka.graded import GradedLieAlgebra, Subspace
        from levitanaka.rootdata import RootSystem
        g = GradedLieAlgebra(["h", "e", "f"], [0, 1, -1],
                             {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})

        def highest_not_last():
            rs = RootSystem("D", 5)
            rs._positive[-2:] = rs._positive[:-3:-1]
            return rs.highest_root()

        def word_too_short():
            rs = RootSystem("A", 3)
            rs._positive.append(rs._positive[0])
            return rs.w0_on_simple_coeffs()

        def simple_roots_dropped():
            rs = RootSystem("A", 3)
            rs._positive_set = frozenset(rs._positive[3:])
            return rs.w0_on_simple_coeffs()

        def w0_row_tampered():
            rs = RootSystem("A", 3)
            rs.w0_on_simple_coeffs()
            rs._w0[0] = (-1, -1, -1)
            return rs.diagram_involution()

        skewed = GradedLieAlgebra(["h", "e", "f"], [0, 1, 1],
                                  {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})

        for check in (lambda: g._verify_ideal(Subspace(g, [{1: 1}]), "span of e"),
                      lambda: g.graded_components([{0: 1, 1: 1}]),
                      skewed.killing_rows,
                      highest_not_last, word_too_short, simple_roots_dropped,
                      w0_row_tampered):
            try:
                check()
            except InternalConsistencyError as exc:
                print(exc)
            else:
                print("not raised")
    """)
    src = os.path.dirname(os.path.dirname(levitanaka.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["span of e is not an ideal (bug)",
                                "subspace is not graded",
                                "Killing form of a table that is not "
                                "degree-additive: [e,f] hits h",
                                "highest root candidate not maximal",
                                "w0 word length is not the number of positive roots",
                                "w0 image is not a negative root",
                                "w0 is not -(involution)"]
