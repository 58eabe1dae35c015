import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import levitanaka
from levitanaka import corpus, elimination
from levitanaka.errors import (
    InternalConsistencyError,
    NilradicalUnsupportedError,
    NoCharacteristicElementError,
    NotUniqueCharacteristicElementError,
    certify,
)
from levitanaka.graded import GradedLieAlgebra, Subspace
from levitanaka.matrices import ExactMatrix
from levitanaka.prolongation import prolong
from levitanaka.quadric import HermitianFormSystem, diagonal_form
from levitanaka.scalars import GaussRational

from naive_oracle import ad_columns
from naive_oracle import bracket as naive_bracket
from naive_oracle import graded_components as naive_graded_components
from naive_oracle import jacobi_first_failure, killing_matrix

Q = Fraction
ROOT = Path(__file__).resolve().parent.parent


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


def transvected_counterexample(moves):
    """The n=7, k=8 quadric of the corpus after a list of transvections.

    ["z", i, j, re, im] is z -> P z with P = I + (re + im i) E_ij, each
    component A becoming P* A P; ["t", a, b, c] is A_a += c A_b.  Both are
    invertible changes of coordinates, so the quadric's algebra is the same
    up to isomorphism.
    """
    form = corpus.counterexample_quadric().payload
    n = form.n
    comps = list(form.components)
    for move in moves:
        if move[0] == "z":
            _, i, j, re, im = move
            p = ExactMatrix.identity(n)
            p.entries[i * n + j] = GaussRational(re, im)
            comps = [p.conj_transpose() * m * p for m in comps]
        else:
            _, a, b, c = move
            comps[a] = comps[a] + comps[b].scale(c)
    return HermitianFormSystem(n, form.k, comps)


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


def test_validate_scans_fractions_without_the_exact_ad_columns(monkeypatch):
    # with a Fraction constant the Jacobi scan runs on integer columns built
    # from the table, and no exact copy of the ad-columns is built beside them
    g = algebra_a_with_denominators()
    assert any(type(c) is not int for comp in g.table.values() for c in comp.values())
    table = {key: dict(comp) for key, comp in g.table.items()}
    comp = table[min(table)]
    comp[min(comp)] += Q(1, 3)
    bad = GradedLieAlgebra(g.names, g.degrees, table, g.J)

    def no_columns(self):
        raise AssertionError("validate built the exact ad-columns")

    monkeypatch.setattr(GradedLieAlgebra, "_columns", no_columns)
    assert g.validate().ok
    rep = bad.validate()
    assert [v["check"] for v in rep.violations] == ["jacobi"]


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
    if name == "counterexample":
        return prolong(corpus.counterexample_quadric().payload.build_m_minus()).algebra
    if name == "o8_sl2_double":
        return corpus.o8_sl2_example("double").payload
    if name == "counterexample_copy":
        form = transvected_counterexample([["z", 2, 4, -1, 1], ["z", 4, 3, 1, 0],
                                           ["t", 0, 2, -1], ["t", 6, 5, 1]])
        return prolong(form.build_m_minus()).algebra
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


@given(st.sampled_from(["counterexample", "counterexample_copy", "algebra_a"]),
       st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_filtered_jacobi_scan_reports_the_oracle_first_failure(name, add, data):
    # validate scans Jacobi only where faithfulness to g_-1 cannot prove
    # it; after one structure constant moves, or one entry of the right
    # degree is added, it must still report the oracle's first failure
    g = _oracle_algebra(name)
    table = {key: dict(comp) for key, comp in g.table.items()}
    if add:
        (i, j), comp = data.draw(st.sampled_from(sorted(table.items())))
        k = data.draw(st.sampled_from([k for k in g.degree_indices(
            g.degrees[i] + g.degrees[j]) if k not in comp] or [None]))
        assume(k is not None)
        comp[k] = data.draw(st.sampled_from([-1, 1, 2, Q(1, 2)]))
    else:
        i, j, k = data.draw(st.sampled_from(
            [(i, j, k) for (i, j), comp in sorted(table.items()) for k in sorted(comp)]))
        table[i, j][k] += data.draw(st.sampled_from([-1, 1, 2, Q(-1, 3)]))
    bad = GradedLieAlgebra(g.names, g.degrees, table, g.J)
    expected = jacobi_first_failure(bad.table, bad.dim)
    rep = bad.validate()
    assert [v["triple"] for v in rep.violations] == \
        ([] if expected is None else [expected])
    assert all(v["check"] == "jacobi" for v in rep.violations)


@pytest.mark.parametrize("name, unfaithful", [
    ("counterexample", {-2}),  # faithful: -1, 0, 1, 2
    ("algebra_a", {-2, 0}),  # faithful: -1, 1, 2
    ("o8_sl2_double", {-4, -3, -1, 0, 1, 3}),  # faithful: -2, 2, 4
])
def test_unfaithful_degrees(name, unfaithful):
    g = _oracle_algebra(name)
    assert g.unfaithful_degrees() == unfaithful
    assert g.validate().ok


def test_jacobi_with_no_faithful_degree_scans_every_triple():
    # no degree -1 part: no present degree is faithful, and the filtered
    # scan is the full one on every single-constant change
    table = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1},
             (3, 4): {4: 2}, (3, 5): {5: -2}, (4, 5): {3: 1}}
    degrees = [0, 2, -2, 0, 2, -2]
    g = GradedLieAlgebra([f"x{i}" for i in range(6)], degrees, table)
    assert g.unfaithful_degrees() == {-2, 0, 2}
    assert g.validate().ok
    for (i, j), comp in table.items():
        for k in comp:
            for delta in (-1, 1, 2):
                moved = {key: dict(c) for key, c in table.items()}
                moved[i, j][k] += delta
                bad = GradedLieAlgebra(g.names, degrees, moved)
                expected = jacobi_first_failure(bad.table, bad.dim)
                assert bad._jacobi_failure(bad.unfaithful_degrees()) == expected
                assert bad._jacobi_failure() == expected
                assert [v["triple"] for v in bad.validate().violations] == \
                    ([] if expected is None else [expected])


@st.composite
def skew_brackets(draw):
    """(n, table): a random antisymmetric bracket, no Jacobi, no grading."""
    n = draw(st.integers(2, 5))
    coeff = st.integers(-3, 3)
    table = {(i, j): {k: c for k, c in enumerate(
        draw(st.lists(coeff, min_size=n, max_size=n))) if c}
        for i in range(n) for j in range(i + 1, n)}
    return n, table


@given(skew_brackets(), st.data())
@settings(max_examples=60, deadline=None)
def test_jacobiator_identity_on_random_skew_brackets(case, data):
    # the one algebraic fact validate's faithful-degree lemma rests on
    n, table = case

    def br(x, y):
        return naive_bracket(table, n, x, y)

    def add(*vectors):
        return [sum(xs) for xs in zip(*vectors)]

    def neg(v):
        return [-x for x in v]

    def jac(a, b, c):
        return add(br(a, br(b, c)), br(b, br(c, a)), br(c, br(a, b)))

    a, b, c, d = ([int(t == s) for t in range(n)]
                  for s in data.draw(st.lists(st.integers(0, n - 1), min_size=4,
                                              max_size=4)))
    lhs = add(br(a, jac(b, c, d)), neg(br(b, jac(a, c, d))),
              br(c, jac(a, b, d)), neg(br(d, jac(a, b, c))))
    rhs = add(jac(br(a, b), c, d), neg(jac(br(a, c), b, d)), jac(br(a, d), b, c),
              jac(br(b, c), a, d), neg(jac(br(b, d), a, c)), jac(br(c, d), a, b))
    assert lhs == rhs


def test_levi_quotient_skips_the_killing_rank_when_the_radical_is_0(monkeypatch):
    # r = 0 certifies a nondegenerate Killing form, so the quotient g / r = g
    # builds no Killing rows of its own; with r != 0 it is still certified
    built = []
    killing_rows = GradedLieAlgebra.killing_rows

    def counted(self):
        built.append(self)
        return killing_rows(self)

    monkeypatch.setattr(GradedLieAlgebra, "killing_rows", counted)
    heis = prolong(diagonal_form([1, 1, -1]).build_m_minus()).algebra
    assert heis.grading_element_in_levi() is True
    assert heis.radical().dim == 0
    assert built and all(alg is heis for alg in built)
    built.clear()
    g = prolong(corpus.counterexample_quadric().payload.build_m_minus()).algebra
    assert g.grading_element_in_levi() is False
    quotient = g._levi_quotient()[2]
    assert any(alg is quotient for alg in built)


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
    # an ambiguous grading element raises every time, from one reduction
    calls = []
    kernel_basis = elimination.kernel_basis
    monkeypatch.setattr(elimination, "kernel_basis",
                        lambda *args: calls.append(1) or kernel_basis(*args))
    g = sl2_plus_center()
    for _ in range(2):
        with pytest.raises(NotUniqueCharacteristicElementError):
            g.characteristic_element()
    assert len(calls) == 1


@pytest.mark.parametrize("make, error", [
    (lambda: GradedLieAlgebra(["a", "b"], [-1, -1], {}), NoCharacteristicElementError),
    (sl2_plus_center, NotUniqueCharacteristicElementError),
])
def test_a_cached_characteristic_element_failure_keeps_no_caller_frame(make, error):
    # the cached error holds no traceback, so the frame of a caller that
    # caught it, and that frame's locals, die when the caller returns
    class Local:
        pass

    def caller(g):
        local = Local()
        try:
            g.characteristic_element()
        except error:
            return weakref.ref(local)

    g = make()
    assert [caller(g)() for _ in range(2)] == [None, None]
    # each call raises a fresh copy: the same class, message and attributes
    raised = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            g.characteristic_element()
        raised.append(exc.value)
    first, second = raised
    assert first is not second and type(first) is type(second) is error
    assert first.args == second.args and vars(first) == vars(second)


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


def test_ambiguity_dim_counts_the_degree_0_center():
    # sl2 plus c central degree-0 lines: E is determined up to a c-dim center
    table = {(0, 1): {1: Q(2)}, (0, 2): {2: Q(-2)}, (1, 2): {0: Q(1)}}
    dims = []
    for c in (1, 2, 3):
        names = ["h", "e", "f"] + [f"z{i}" for i in range(c)]
        g = GradedLieAlgebra(names, [0, 1, -1] + [0] * c, table)
        with pytest.raises(NotUniqueCharacteristicElementError) as exc:
            g.characteristic_element()
        dims.append(exc.value.ambiguity_dim)
    assert dims == [1, 2, 3]


def test_center():
    assert sl2().center().dim == 0
    assert sl2_plus_center().center().dim == 1
    assert heisenberg3().center().dim == 1


def _checked_algebras():
    """(name, algebra): the corpus algebras, the prolongations of the corpus
    quadrics, the basis change of algebra A with denominators, and an
    abelian algebra whose basis is not in degree order."""
    out = [("algebra_a_with_denominators", algebra_a_with_denominators()),
           ("abelian_out_of_degree_order", GradedLieAlgebra(["a", "b", "c"], [1, -1, 0], {}))]
    for entry in corpus.all_entries():
        g = entry.payload
        if entry.kind == "quadric":
            g = prolong(g.build_m_minus()).algebra
        out.append((entry.name, g))
    return out


def _structure_copies():
    """The five basis changes of algebra A that the benchmark's deep checks run on."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [(label, GradedLieAlgebra.from_json(obj))
            for label, obj, _ in inputs.structure_inputs(5)[1]]


def _full_commutant(g, against):
    """The canonical kernel of [y, e_j] = 0 for j in ``against`` over all of g:
    one system, its rows written out from the table in (j, k) order."""
    cols = ad_columns(g.table, g.dim)
    rows = []
    for j in against:
        per_k = {}
        for i in range(g.dim):
            for k, c in cols[i].get(j, {}).items():
                per_k.setdefault(k, {})[i] = c
        rows += [per_k[k] for k in sorted(per_k)]
    return [{i: x for i, x in enumerate(v) if x}
            for v in elimination.kernel_basis(rows, g.dim)]


def test_center_and_faithfulness_match_the_single_full_solve():
    for name, g in _checked_algebras():
        assert g.center().vectors == _full_commutant(g, range(g.dim)), name
        commutant = _full_commutant(g, g.degree_indices(-1))
        assert g.unfaithful_degrees() == {g.degrees[i] for v in commutant for i in v}, name


def test_center_requires_degree_additivity():
    # the centre is read per degree, which only a degree-additive table allows
    g = GradedLieAlgebra(["h", "e", "f"], [0, 1, 1],
                         {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    with pytest.raises(InternalConsistencyError, match="not degree-additive"):
        g.center()


def test_levi_units_are_the_greedy_completion_of_the_radical():
    for name, g in _checked_algebras() + _structure_copies():
        span = elimination.Echelon(g.dim, g.radical().vectors)
        greedy = [i for i in sorted(range(g.dim), key=lambda i: g.degrees[i])
                  if span.add({i: 1})]
        assert g._levi_quotient()[0] == greedy, name


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


@pytest.mark.xfail(strict=True, reason="simple_ideals has no simplicity "
                   "certificate; it under-splits a basis that mixes the ideals")
def test_simple_ideals_split_a_basis_mixing_the_ideals():
    # sl2 + sl2 with, in each degree, column x -> e_x + e_y and y -> e_x + 2 e_y
    p = ExactMatrix.identity(6)
    for x, y in ((0, 3), (1, 4), (2, 5)):
        p.entries[y * 6 + x] = Q(1)
        p.entries[x * 6 + y] = Q(1)
        p.entries[y * 6 + y] = Q(2)
    g = sl2_sl2().change_basis(p)
    assert g.validate().ok
    s = g.levi_decomposition().s
    assert s.dim == 6
    assert sorted(i.dim for i in g.simple_ideals(s)) == [3, 3]


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


@lru_cache(maxsize=None)
def _spans_algebra(name):
    return sl2_sl2() if name == "sl2_sl2" else corpus.example_algebra_a().payload


@given(st.sampled_from(["sl2_sl2", "algebra_a"]), st.data())
@settings(max_examples=40, deadline=None)
def test_graded_components_match_the_per_degree_split(name, data):
    # sums of homogeneous generators, mostly of several degrees: with the
    # rescaled generators added the span is graded; fewer sums than
    # generators mostly span a space that is not, and the split must say so
    g = _spans_algebra(name)
    coef = st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-2, 3)])
    homogeneous = st.sampled_from(sorted(set(g.degrees))).flatmap(
        lambda d: st.dictionaries(st.sampled_from(g.degree_indices(d)), coef,
                                  min_size=1, max_size=3))
    gens = data.draw(st.lists(homogeneous, min_size=2, max_size=5))
    whole = data.draw(st.booleans())

    def mix(coeffs):
        out = {}
        for t, c in coeffs.items():
            for i, x in gens[t].items():
                out[i] = out.get(i, 0) + c * x
        return {i: x for i, x in out.items() if x}

    sums = st.dictionaries(st.integers(0, len(gens) - 1), coef, min_size=2)
    vectors = [mix(c) for c in data.draw(st.lists(
        sums, min_size=1, max_size=5 if whole else len(gens) - 1))]
    if whole:
        vectors += [mix({t: data.draw(coef)}) for t in range(len(gens))]
    vectors += data.draw(st.lists(st.sampled_from(vectors), max_size=3))
    vectors = data.draw(st.permutations(vectors))
    expected = naive_graded_components(vectors, g.degrees)
    if expected is None:
        with pytest.raises(InternalConsistencyError, match="subspace is not graded"):
            g.graded_components(vectors)
    else:
        assert g.graded_components(vectors) == expected


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


def test_levi_correction_failures_survive_python_O():
    # the Levi correction's failures are bugs: under -O each one must still
    # raise InternalConsistencyError (exit 3), not pass silently
    script = textwrap.dedent("""
        import json, sys
        from levitanaka import elimination
        from levitanaka.errors import InternalConsistencyError
        from levitanaka.graded import GradedLieAlgebra, Subspace
        solve = elimination.solve

        def fresh():
            g = GradedLieAlgebra.from_json(json.loads(sys.argv[1]))
            g.characteristic_element()  # its solve runs before any is replaced
            return g

        def radical_series_tampered():
            g = fresh()
            g._radical_series = [Subspace(g, g.radical().vectors[:1]), Subspace(g, [])]
            return g.levi_decomposition()

        def solve_answers(answer):
            def run():
                g = fresh()
                elimination.solve = answer
                try:
                    return g.levi_decomposition()
                finally:
                    elimination.solve = solve
            return run

        for check in (radical_series_tampered,
                      solve_answers(lambda rows, bcol: None),
                      solve_answers(lambda rows, bcol: [0] * bcol)):
            try:
                check()
            except InternalConsistencyError as exc:
                print(exc)
            else:
                print("not raised")
    """)
    g = sl2_semidirect_adjoint(shear=True)
    src = os.path.dirname(os.path.dirname(levitanaka.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script, json.dumps(g.to_json())],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["defect escaped the expected ideal",
                                "correction system inconsistent at stage 0",
                                "defect survived past the derived series"]


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
            return rs.w0_rows()

        def simple_roots_dropped():
            rs = RootSystem("A", 3)
            rs._positive_set = frozenset(rs._positive[3:])
            return rs.w0_rows()

        skewed = GradedLieAlgebra(["h", "e", "f"], [0, 1, 1],
                                  {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})

        for check in (lambda: g._verify_ideal(Subspace(g, [{1: 1}]), "span of e"),
                      lambda: g.graded_components([{0: 1, 1: 1}]),
                      skewed.killing_rows,
                      highest_not_last, word_too_short, simple_roots_dropped):
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
                                "w0 image is not a negative root"]


def test_certify_calls_a_message_callable_only_on_failure():
    calls = []
    certify(True, lambda: calls.append(1) or "unused")
    assert calls == []
    with pytest.raises(InternalConsistencyError, match="^radical is not an ideal$"):
        certify(False, "radical is not an ideal")
    with pytest.raises(InternalConsistencyError, match="^built on failure$"):
        certify(False, lambda: "built on failure")
