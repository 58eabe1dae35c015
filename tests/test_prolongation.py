import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import levitanaka
from levitanaka.errors import CapReachedError, PreconditionError, check
from levitanaka.graded import GradedLieAlgebra
from levitanaka.matrices import ExactMatrix
from levitanaka.prolongation import prolong, transitivity_check
from levitanaka.quadric import HermitianFormSystem, diagonal_form
from levitanaka.scalars import GaussRational

Q = Fraction

# goldens frozen from the dense brute-force oracle (tests/naive_oracle.py)
HEISENBERG_GOLDENS = {
    (1, (1,)): {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1},
    (2, (1, 1)): {-2: 1, -1: 4, 0: 5, 1: 4, 2: 1},
    (2, (1, -1)): {-2: 1, -1: 4, 0: 5, 1: 4, 2: 1},
    (3, (1, 1, 1)): {-2: 1, -1: 6, 0: 10, 1: 6, 2: 1},
}


@pytest.mark.parametrize("n,sig", sorted(HEISENBERG_GOLDENS))
def test_heisenberg_prolongations_match_frozen_goldens(n, sig):
    m = diagonal_form(list(sig)).build_m_minus()
    result = prolong(m)
    assert result.degree_dims == HEISENBERG_GOLDENS[(n, sig)]
    assert result.terminated_at == 3
    assert transitivity_check(result) == check("transitivity", True)


def test_heisenberg_totals():
    m = diagonal_form([1]).build_m_minus()
    assert sum(prolong(m).degree_dims.values()) == 8
    m = diagonal_form([1, 1]).build_m_minus()
    assert sum(prolong(m).degree_dims.values()) == 15


def test_characteristic_element_acts_by_degree():
    m = diagonal_form([1]).build_m_minus()
    result = prolong(m)
    alg = result.algebra
    e = result.characteristic_element
    for j, d in enumerate(alg.degrees):
        assert alg.bracket(e, {j: Q(1)}) == ({j: Q(d)} if d else {})


def test_prolongation_output_validates():
    m = diagonal_form([1, -1]).build_m_minus()
    result = prolong(m)
    assert result.algebra.validate().ok
    assert result.algebra.J is not None


def test_positive_definite_dims_symmetric():
    for n in (1, 2, 3):
        m = diagonal_form([1] * n).build_m_minus()
        dims = prolong(m).degree_dims
        for p, d in dims.items():
            assert dims[-p] == d


def test_maximality_idempotence():
    """re-running the layer kernel on the assembled algebra returns the same
    dimensions: derivation pairs of m valued in the assembled layers."""
    m = diagonal_form([1]).build_m_minus()
    r1 = prolong(m)
    r2 = prolong(m)
    assert r1.degree_dims == r2.degree_dims
    assert r1.algebra.to_json() == r2.algebra.to_json()


def test_functorial_under_coordinate_permutation():
    # permuting the hermitian coordinates permutes e/Je pairs jointly
    m = diagonal_form([1, -1]).build_m_minus()
    perm = [1, 0, 3, 2, 4]  # swap the two complex coordinates
    p = ExactMatrix.from_rows(
        [[Q(int(perm[j] == i)) for j in range(5)] for i in range(5)])
    m2 = m.change_basis(p)
    assert m2.validate().ok
    assert prolong(m2).degree_dims == prolong(m).degree_dims


def test_change_basis_conjugates_J_by_the_degree_minus_1_block():
    # e1 -> e1 + Je2 mixes the degree -1 block and commutes with J neither
    # way round, so J' = P_b^-1 J P_b differs from J and from P_b J P_b^-1
    m = diagonal_form([1, -1]).build_m_minus()  # e1, e2, Je1, Je2, t1
    p = ExactMatrix.identity(5)
    p.entries[3 * 5 + 0] = Q(1)
    m2 = m.change_basis(p)
    pb = ExactMatrix.from_rows([p.row(i)[:4] for i in range(4)])
    jpb = m.J * pb
    # column b of J' solves P_b x = J P_b e_b
    expected = ExactMatrix.from_rows(
        [list(row) for row in zip(*(pb.solve(jpb.col(b)) for b in range(4)))])
    assert expected != m.J
    assert m2.J == expected
    assert m2.validate().ok
    assert prolong(m2).degree_dims == prolong(m).degree_dims


def heisenberg_3_with_j(j_rows):
    """m = (a, b; c) with [a, b] = c and the given J on <a, b>."""
    return GradedLieAlgebra(["a", "b", "c"], [-1, -1, -2], {(0, 1): {2: 1}},
                            ExactMatrix.from_rows(j_rows))


def incompatible_j():
    """[a, b] = e and [c, d] = -e with J a = c, J b = d: J^2 = -Id, but
    [J a, J b] = [c, d] = -e != [a, b]."""
    j = ExactMatrix.from_rows([[0, 0, -1, 0], [0, 0, 0, -1],
                               [1, 0, 0, 0], [0, 1, 0, 0]])
    return GradedLieAlgebra(["a", "b", "c", "d", "e"], [-1] * 4 + [-2],
                            {(0, 1): {4: 1}, (2, 3): {4: -1}}, j)


J_SQUARE = {"check": "J_square", "detail": "J^2 != -Id on the degree -1 block"}


def test_J_square_failure_is_one_violation():
    m = heisenberg_3_with_j([[1, 0], [0, 1]])
    assert m.validate().violations == [J_SQUARE]
    with pytest.raises(PreconditionError) as info:
        prolong(m)
    assert str(info.value) == f"input fails validation: {J_SQUARE}"


def test_precondition_errors():
    bad = GradedLieAlgebra(["a", "b"], [-1, -2], {})
    with pytest.raises(PreconditionError):
        prolong(bad)  # no J, not fundamental
    # fundamental but degree -3 present
    table = {(0, 1): {2: Q(1)}}
    j = ExactMatrix.from_rows([[0, -1], [1, 0]])
    bad2 = GradedLieAlgebra(["a", "b", "c"], [-1, -1, -3], table, j)
    with pytest.raises(PreconditionError):
        prolong(bad2)


def test_not_fundamental_precondition():
    # two degree -2 lines, and [g_-1, g_-1] reaches only the first
    j = ExactMatrix.from_rows([[0, -1], [1, 0]])
    m = GradedLieAlgebra(["e1", "Je1", "z1", "z2"], [-1, -1, -2, -2],
                         {(0, 1): {2: Q(1)}}, j)
    assert m.validate().ok
    with pytest.raises(PreconditionError, match="input is not fundamental"):
        prolong(m)


def test_not_nondegenerate_precondition():
    # g_-1 = <e1, Je1, e2, Je2> with e2 and Je2 central: degree -1 is unfaithful
    j = ExactMatrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0],
                               [0, 0, 0, -1], [0, 0, 1, 0]])
    m = GradedLieAlgebra(["e1", "Je1", "e2", "Je2", "z"], [-1, -1, -1, -1, -2],
                         {(0, 1): {4: Q(1)}}, j)
    assert m.validate().ok
    with pytest.raises(PreconditionError, match="input is not nondegenerate"):
        prolong(m)


def test_j_compatibility_precondition():
    # signature (1,-1) bracket with a J that rotates the two complex lines
    # into each other: [J e1, J Je1] = [e2, Je2] = +t != [e1, Je1] = -t
    m = diagonal_form([1, -1]).build_m_minus()
    jbad = ExactMatrix.from_rows([
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ])
    twisted = GradedLieAlgebra(m.names, m.degrees,
                               {k: dict(v) for k, v in m.table.items()}, jbad)
    for bad in (twisted, incompatible_j()):
        assert bad.validate().ok
        with pytest.raises(PreconditionError) as info:
            prolong(bad)
        assert str(info.value) == "J is not bracket-compatible"


def test_cap_reached():
    m = diagonal_form([1]).build_m_minus()
    with pytest.raises(CapReachedError):
        prolong(m, max_degree=2)


def test_transitivity_violation_detected():
    # hand-built: valid prolongation plus a phantom degree-1 element that
    # bracket-kills everything
    m = diagonal_form([1]).build_m_minus()
    alg = prolong(m).algebra
    names = alg.names + ["phantom"]
    degrees = alg.degrees + [1]
    table = {k: dict(v) for k, v in alg.table.items()}
    bigger = GradedLieAlgebra(names, degrees, table)
    fake = prolong(m)
    fake.algebra = bigger
    assert transitivity_check(fake) == check("transitivity", False, 1)


small_ints = st.integers(-2, 2)


@st.composite
def random_hermitian_system(draw):
    n = draw(st.integers(1, 2))
    k = draw(st.integers(1, 2))
    comps = []
    for _ in range(k):
        entries = [[GaussRational(0)] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = GaussRational(draw(small_ints))
            for j in range(i + 1, n):
                z = GaussRational(draw(small_ints), draw(small_ints))
                entries[i][j] = z
                entries[j][i] = z.conjugate()
        comps.append(ExactMatrix.from_rows(entries))
    return HermitianFormSystem(n, k, comps)


@given(random_hermitian_system())
@settings(max_examples=40, deadline=None)
def test_random_quadric_prolongations_are_coherent(h):
    m, _ = h.m_minus_with_checks()  # None unless nondegenerate and fundamental
    assume(m is not None)
    result = prolong(m)
    alg = result.algebra
    dims = result.degree_dims
    # negative part is the input, top degree at most 2, everything exact
    assert dims[-1] == 2 * h.n and dims[-2] == h.k
    assert result.terminated_at <= 3
    assert alg.validate().ok
    assert transitivity_check(result) == check("transitivity", True)
    e = result.characteristic_element
    for j, d in enumerate(alg.degrees):
        assert alg.bracket(e, {j: Q(1)}) == ({j: Q(d)} if d else {})
    assert alg.center().dim == 0


def test_result_serialization():
    m = diagonal_form([1]).build_m_minus()
    r = prolong(m)
    blob = r.to_json()
    assert blob["degree_dims"] == [[-2, 1], [-1, 2], [0, 2], [1, 2], [2, 1]]
    assert GradedLieAlgebra.from_json(blob["algebra"]).validate().ok


def _relisted(m, order):
    """m with its basis listed as m's basis vectors order[0], order[1], ..."""
    new = {old: i for i, old in enumerate(order)}
    table = {(new[i], new[j]): {new[k]: c for k, c in comp.items()}
             for (i, j), comp in m.table.items()}
    pos = {old: t for t, old in enumerate(m.degree_indices(-1))}
    block = [old for old in order if m.degrees[old] == -1]
    jm = ExactMatrix.from_rows([[m.J.entry(pos[a], pos[b]) for b in block]
                                for a in block])
    return GradedLieAlgebra([m.names[o] for o in order],
                            [m.degrees[o] for o in order], table, jm)


@pytest.mark.parametrize("form, order", [
    # g_-2 first, then the e/Je pairs side by side in reverse
    (lambda: diagonal_form([1, -1]), [4, 3, 1, 2, 0]),
    # n=2, k=2: degrees interleaved, g_-2 vectors swapped
    (lambda: HermitianFormSystem(2, 2, [
        ExactMatrix.from_rows([[GaussRational(1), GaussRational(0)],
                               [GaussRational(0), GaussRational(-1)]]),
        ExactMatrix.from_rows([[GaussRational(0), GaussRational(0, 1)],
                               [GaussRational(0, -1), GaussRational(0)]])]),
     [5, 2, 4, 0, 3, 1]),
], ids=["heisenberg_pm", "k2_quadric"])
def test_prolongation_independent_of_basis_listing(form, order):
    m = form().build_m_minus()
    relisted = _relisted(m, order)
    assert relisted.validate().ok
    result = prolong(relisted)
    assert result.degree_dims == prolong(m).degree_dims
    assert result.algebra.validate().ok
    assert transitivity_check(result) == check("transitivity", True)


def test_tampered_layer_bracket_is_caught_under_python_O(tmp_path):
    # brackets between layers are read at free columns and certified only
    # by the re-validation; change or drop one read and it must fail, as
    # an InternalConsistencyError (exit 3, no traceback) that -O keeps
    script = textwrap.dedent("""
        import sys
        from levitanaka import prolongation, scalars
        from levitanaka.cli import main
        from levitanaka.errors import InternalConsistencyError
        from levitanaka.quadric import diagonal_form

        class FirstReadTampered:
            # prolongation's ratio: the coordinate read
            def __init__(self, mode):
                self.mode = mode
                self.reads = 0

            def __call__(self, num, den):
                self.reads += 1
                out = scalars.ratio(num, den)
                if self.reads > 1:
                    return out
                return out + 1 if self.mode == "shift" else 0

        print("optimize", sys.flags.optimize)
        m = diagonal_form([1, -1]).build_m_minus()
        for mode in ("shift", "drop"):
            prolongation.ratio = tampered = FirstReadTampered(mode)
            try:
                prolongation.prolong(m)
            except InternalConsistencyError as exc:
                print(mode, tampered.reads > 0, str(exc).split(":")[0])
            else:
                print(mode, "not raised")
        prolongation.ratio = FirstReadTampered("shift")
        diagonal_form([1, -1]).dump(sys.argv[1])
        print("exit", main(["analyze-quadric", sys.argv[1]]))
    """)
    src = os.path.dirname(os.path.dirname(levitanaka.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(tmp_path / "q.json")],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "shift True assembled prolongation invalid",
        "drop True assembled prolongation invalid",
        "exit 3"]
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        "internal consistency failure: assembled prolongation invalid")


def test_brackets_past_the_top_layer_are_certified_by_jacobi():
    # prolong keeps no table entry for [u, v] past the top layer; Jacobi on
    # (u, v, x) is what says the action [u, [v, x]] - [v, [u, x]] vanishes.
    # Cut the top layer off a real prolongation: the degree-1 brackets now
    # land past the top, their action does not vanish, and validation fails
    alg = prolong(diagonal_form([1, -1]).build_m_minus()).algebra
    top = max(alg.degrees)
    n = alg.degrees.index(top)  # the top layer comes last
    table = {key: comp for key, comp in alg.table.items()
             if key[1] < n and all(k < n for k in comp)}
    cut = GradedLieAlgebra(alg.names[:n], alg.degrees[:n], table, alg.J)
    rep = cut.validate()
    assert [v["check"] for v in rep.violations] == ["jacobi"]
    _, mid, high = sorted(alg.degrees[t] for t in rep.violations[0]["triple"])
    assert mid + high == top
