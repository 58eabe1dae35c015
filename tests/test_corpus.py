import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import levitanaka
from levitanaka import corpus
from levitanaka.classify import FactorDescriptor, tilde_s_general, tilde_s_semisimple
from levitanaka.corpus import (
    CorpusEntry,
    all_entries,
    entry_by_name,
    example_algebra_a,
    heisenberg,
    o8_sl2_example,
    counterexample_quadric,
    run_checks,
)
from levitanaka.errors import NoCharacteristicElementError
from levitanaka.involution import s_property_sufficient
from levitanaka.matrices import ExactMatrix
from levitanaka.prolongation import prolong
from levitanaka.quadric import HermitianFormSystem, diagonal_form

Q = Fraction


@pytest.fixture(scope="module")
def algebra_a():
    return example_algebra_a()


@pytest.fixture(scope="module")
def o8_entry():
    return o8_sl2_example("double")


def test_registry_names_unique(monkeypatch):
    names = [e.name for e in all_entries()]
    assert len(names) == len(set(names))
    assert names == ["heisenberg_1_p", "heisenberg_2_pp", "heisenberg_2_pm",
                     "heisenberg_3_ppp", "counterexample_quadric",
                     "example_algebra_a", "o8_sl2_double"]
    assert all(build().name == name for name, build in corpus.ENTRIES.items())
    assert entry_by_name("example_algebra_a").kind == "algebra"
    with pytest.raises(KeyError):
        entry_by_name("nonsense")

    # a lookup builds only the named entry: the realified algebras are not made
    def refuse(self):
        raise AssertionError("realify called")

    monkeypatch.setattr(corpus.ComplexAlgebraBuilder, "realify", refuse)
    assert entry_by_name("heisenberg_1_p").name == "heisenberg_1_p"


def test_run_checks_on_irregular_forms():
    degenerate = CorpusEntry("degenerate", "quadric", diagonal_form([1, 0, 1]), {}, {})
    assert run_checks(degenerate) == [
        {"name": "nondegenerate", "status": "fail", "witness": ["0", "1", "0"]}]
    dependent = HermitianFormSystem(1, 2, [ExactMatrix.from_rows([[1]]),
                                           ExactMatrix.from_rows([[2]])])
    entry = CorpusEntry("dependent", "quadric", dependent, {}, {})
    assert run_checks(entry) == [
        {"name": "nondegenerate", "status": "pass", "witness": None},
        {"name": "fundamental", "status": "fail", "witness": ["-2", "1"]}]


def test_algebra_a_validates_and_dims(algebra_a):
    alg = algebra_a.payload
    assert alg.dim == 70
    assert alg.validate().ok
    assert alg.degree_dims() == algebra_a.expected["degree_dims"]


def test_algebra_a_degree_one_split(algebra_a):
    alg = algebra_a.payload
    idx = alg.degree_indices(1)
    u = sum(1 for i in idx if alg.names[i].lstrip("i").startswith("u"))
    w = sum(1 for i in idx if alg.names[i].lstrip("i").startswith("w"))
    s = len(idx) - u - w
    split = algebra_a.expected["degree_1_split"]
    assert (u, w, s) == (split["U_parts"], split["W_parts"], split["s_part"])


def test_algebra_a_j_compatibility(algebra_a):
    alg = algebra_a.payload
    block = alg.degree_indices(-1)
    d = len(block)
    jcols = [{block[t]: alg.J.entry(t, a) for t in range(d)} for a in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            assert alg.bracket(jcols[a], jcols[b]) == alg.bracket(
                {block[a]: 1}, {block[b]: 1})


def test_algebra_a_negative_part_fundamental_nondegenerate(algebra_a):
    from levitanaka.matrices import ExactMatrix
    alg = algebra_a.payload
    block = alg.degree_indices(-1)
    low = alg.degree_indices(-2)
    vecs = []
    for i, a in enumerate(block):
        for b in block[i + 1:]:
            comp = alg.bracket_elements(a, b)
            if comp:
                vecs.append([comp.get(t, Q(0)) for t in low])
    assert ExactMatrix.from_rows(vecs).rank() == len(low)
    rows = []
    for b in block:
        for z in low:
            rows.append([alg.bracket_elements(a, b).get(z, Q(0)) for a in block])
    assert ExactMatrix.from_rows(rows).rank() == len(block)


def test_algebra_a_radical_is_the_module_part(algebra_a):
    alg = algebra_a.payload
    rad = alg.radical()
    # the radical is exactly the span of the non-semisimple basis lines
    module_prefixes = ("v", "w", "u", "c")
    for i, name in enumerate(alg.names):
        unit = {i: 1}
        expected_in = name.lstrip("i").startswith(module_prefixes)
        assert rad.contains(unit) == expected_in, name


def test_kind_agrees_across_pipelines():
    # descriptor-level kind vs the prolongation-measured top degree
    from levitanaka.classify import grading_data
    for n, sig in [(1, (1,)), (2, (1, -1))]:
        entry = heisenberg(n, sig)
        result = prolong(entry.payload.build_m_minus())
        measured = max(d for d, c in result.degree_dims.items() if c)
        for row in entry.expected["kind2_descriptors"]:
            d = FactorDescriptor(row[0], row[1], row[2], row[3],
                                 row[4], row[5])
            assert grading_data(d).kind == measured == 2


def test_algebra_a_structure(algebra_a):
    alg = algebra_a.payload
    assert alg.radical().dim == algebra_a.expected["radical_dim"]
    assert alg.nilradical().dim == algebra_a.expected["nilradical_dim"]
    assert alg.center().dim == algebra_a.expected["center_dim"]
    with pytest.raises(NoCharacteristicElementError):
        alg.characteristic_element()
    dec = alg.levi_decomposition()
    ideals = alg.simple_ideals(dec.s)
    assert sorted(i.dim for i in ideals) == algebra_a.expected["levi_simple_dims"]
    assert dec.E_s is None  # no grading element to split


def test_o8_sl2_validates_and_dims(o8_entry):
    alg = o8_entry.payload
    assert alg.dim == 96
    assert alg.validate().ok
    assert alg.degree_dims() == o8_entry.expected["degree_dims"]


def test_o8_sl2_structure(o8_entry):
    alg = o8_entry.payload
    assert alg.center().dim == 0
    e = alg.characteristic_element()  # unique by construction
    dec = alg.levi_decomposition()
    assert dec.r.dim == o8_entry.expected["radical_dim"]
    assert alg.nilradical().dim == o8_entry.expected["nilradical_dim"]
    ideals = alg.simple_ideals(dec.s)
    assert sorted(i.dim for i in ideals) == o8_entry.expected["levi_simple_dims"]
    # grading element sits inside the Levi factor
    assert dec.E_r == {}
    assert dec.E_s == e
    # degree-reversal tests from the structure theory
    low = alg.degree_indices(-2)
    rad_low = [v for v in dec.r.vectors
               if any(i in v for i in low)]
    assert len(rad_low) < len(low)  # radical cap g_-2 is proper


def test_o8_sl2_descriptors_and_verdicts(o8_entry):
    kind2 = [FactorDescriptor(f, r, form, phi)
             for f, r, form, phi in o8_entry.expected["kind2_descriptors"]]
    kind1 = [FactorDescriptor(f, r, form, phi)
             for f, r, form, phi in o8_entry.expected["kind1_descriptors"]]
    assert tilde_s_general(kind2, kind1, e_r_is_zero=True)
    assert not s_property_sufficient(kind2, kind1, is_semisimple=False)
    assert o8_entry.expected["has_s"] is True  # quoted, not derived here


def test_o8_sl2_half_shift_variant():
    entry = o8_sl2_example("minus-half")
    alg = entry.payload
    assert alg.dim == 96
    assert set(alg.degrees) <= {-2, -1, 0, 1, 2}
    assert alg.validate().ok
    e = alg.characteristic_element()
    dec = alg.levi_decomposition()
    assert dec.E_r  # the shifted grading element leaves the Levi factor
    assert entry.expected["has_tilde_s"] is False


def test_grading_element_in_levi_agrees_with_levi_on_the_corpus():
    verdicts = {}
    for entry in [*all_entries(), o8_sl2_example("minus-half")]:
        if entry.kind == "quadric":
            alg = prolong(entry.payload.build_m_minus()).algebra
        else:
            alg = entry.payload
        try:
            verdict = alg.grading_element_in_levi()
        except NoCharacteristicElementError:
            verdicts[entry.name] = None
            continue
        assert verdict is (alg.levi_decomposition().E_r == {})
        verdicts[entry.name] = verdict
    assert verdicts == {
        "heisenberg_1_p": True, "heisenberg_2_pp": True, "heisenberg_2_pm": True,
        "heisenberg_3_ppp": True, "counterexample_quadric": False,
        "example_algebra_a": None, "o8_sl2_double": True,
        "o8_sl2_minus-half": False}


def _verdicts(checks):
    return {c["name"]: c for c in checks if c["name"].endswith("_verdict")}


def test_deep_tilde_s_verdict_reads_the_computed_e_r():
    # no E_r_zero or radical_dim expectation: the verdict must come from the
    # algebra, whose E_r is not 0, not from the entry being a quadric
    base = counterexample_quadric()
    expected = {"m_dims": base.expected["m_dims"],
                "prolong_dims": base.expected["prolong_dims"],
                "kind2_descriptors": [["A", 2, "A IV", ["a1"], 1, 2]],
                "has_tilde_s": False, "s_sufficient": True}
    entry = CorpusEntry("counterexample_no_e_r", "quadric", base.payload,
                        expected, {})
    checks = run_checks(entry, deep=True)
    assert all(c["status"] == "pass" for c in checks), checks
    assert set(_verdicts(checks)) == {"tilde_s_verdict", "s_sufficient_verdict"}


def test_deep_s_sufficient_verdict_reads_the_computed_radical():
    # no radical_dim expectation, and factors for which only semisimplicity
    # makes the sufficient condition hold
    base = heisenberg(1, (1,))
    expected = {k: v for k, v in base.expected.items() if k != "radical_dim"}
    expected.update(kind2_descriptors=[["D", 4, "COMPLEX", ["a3", "a4'"]]],
                    kind1_descriptors=[["A", 1, "COMPLEX", ["a1"]]],
                    s_sufficient=True)
    entry = CorpusEntry("heisenberg_1_p_no_radical", "quadric", base.payload,
                        expected, {})
    assert _verdicts(run_checks(entry, deep=True))["s_sufficient_verdict"] == \
        {"name": "s_sufficient_verdict", "status": "pass", "witness": None}
    # shallow mode has no radical to read: the expectations decide
    assert _verdicts(run_checks(entry))["s_sufficient_verdict"]["witness"] == \
        {"got": False, "want": True}


def test_heisenberg_entries_prolong_to_frozen_dims():
    for n, sig in [(1, (1,)), (2, (1, 1)), (2, (1, -1))]:
        entry = heisenberg(n, sig)
        m = entry.payload.build_m_minus()
        assert m.degree_dims() == entry.expected["m_dims"]
        result = prolong(m)
        assert result.degree_dims == entry.expected["prolong_dims"]
        assert sum(result.degree_dims.values()) == entry.expected["total_dim"]
        assert result.algebra.radical().dim == entry.expected["radical_dim"]


def test_heisenberg_descriptors_pass_classification():
    for n, sig in [(1, (1,)), (2, (1, 1)), (2, (1, -1)), (3, (1, 1, 1))]:
        entry = heisenberg(n, sig)
        kind2 = [FactorDescriptor(f, r, form, phi, p, q)
                 for f, r, form, phi, p, q in entry.expected["kind2_descriptors"]]
        assert tilde_s_semisimple(kind2) == entry.expected["has_tilde_s"]
        assert s_property_sufficient(kind2, [], is_semisimple=True)


def test_counterexample_entry_form():
    entry = counterexample_quadric()
    h = entry.payload
    assert h.n == 7 and h.k == 8
    m, checks = h.m_minus_with_checks()
    assert [c["status"] for c in checks] == ["pass", "pass"]
    assert m.degree_dims() == entry.expected["m_dims"]


def test_counterexample_bounds_recorded():
    entry = counterexample_quadric()
    lower = entry.expected["prolong_dims_lower"]
    frozen = entry.expected["prolong_dims"]
    assert frozen[1] >= lower[1] and frozen[2] >= lower[2]
    assert frozen[1] > entry.expected["m_dims"][-1]
    assert frozen[2] > entry.expected["m_dims"][-2]


def test_provenance_tags_present():
    for entry in all_entries():
        for key in entry.expected:
            assert key in entry.provenance or any(
                k.startswith(f"{key}.") for k in entry.provenance), key
        assert all(v.startswith(("literature", "derived"))
                   for v in entry.provenance.values())


def test_corpus_certificates_survive_python_O():
    # under -O a bare assert is stripped; each tampered builder must raise
    script = textwrap.dedent("""
        from fractions import Fraction
        from levitanaka import corpus
        from levitanaka.errors import InternalConsistencyError

        decompose = corpus._sl3_decompose
        o8_diag, o8_jdiag = corpus._O8_DIAG, corpus._O8_JDIAG

        def traced_commutator():
            corpus._sl3_decompose = lambda m: (decompose(m)[0], Fraction(1))
            return corpus.example_algebra_a()

        def half_degree():
            corpus._O8_DIAG = (Fraction(1, 2),) + o8_diag[1:]
            return corpus.o8_sl2_example("minus-half")

        def o8_j_eigenvalue():
            corpus._O8_JDIAG = (0, 0, 0, 2, -1, 0, 0, 0)
            return corpus.o8_sl2_example("minus-half")

        def module_j_eigenvalue():
            corpus._O8_JDIAG = (0, 0, 0, 1, -1, 0, 0, 1)
            return corpus.o8_sl2_example("double")

        for tamper in (traced_commutator, half_degree, o8_j_eigenvalue,
                       module_j_eigenvalue):
            try:
                tamper()
            except InternalConsistencyError as exc:
                print(exc)
            else:
                print("not raised")
            corpus._sl3_decompose = decompose
            corpus._O8_DIAG, corpus._O8_JDIAG = o8_diag, o8_jdiag
    """)
    src = os.path.dirname(os.path.dirname(levitanaka.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["sl3 commutator has trace 1",
                                "non-integral degree 1/2 on x1_1",
                                "bad J eigenvalue 2 on B4_1",
                                "bad J eigenvalue 2 on x8_1"]
