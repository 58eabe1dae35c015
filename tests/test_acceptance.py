"""Acceptance suite: one numbered criterion per section, exact tolerances.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to see
them inline; they are also echoed in the captured output).  Criterion 6
contains one sub-item that is unattainable by construction for the
70-dimensional example algebra (its grading is not inner; see README);
the suite verifies that it fails for exactly the documented reason and
reports the criterion as FAIL, while everything else must pass.
"""

import json
import time
from fractions import Fraction

import pytest

from levitanaka import elimination
from levitanaka.classify import enumerate_descriptors, regenerate_tables
from levitanaka.corpus import all_entries, entry_by_name
from levitanaka.errors import NoCharacteristicElementError
from levitanaka.involution import (
    GAMMA_PRIME_ONLY,
    gamma_case,
    grading_vector,
    kind1_degree_one_subword,
    orthogonal_word,
    parity_table,
)
from levitanaka.matrices import ExactMatrix
from levitanaka.prolongation import prolong, transitivity_check
from levitanaka.rootdata import _dot, root_system

from prop_lists import expected_kind2_sets

Q = Fraction

_LINES = []


def report(criterion, status, detail=""):
    line = f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else "")
    _LINES.append(line)
    print("\n" + line)


@pytest.fixture(scope="session", autouse=True)
def summary():
    yield
    print("\n" + "=" * 70)
    for line in _LINES:
        print(line)
    print("=" * 70)


@pytest.fixture(scope="session")
def counterexample_run():
    entry = entry_by_name("counterexample_quadric")
    m = entry.payload.build_m_minus()
    start = time.monotonic()
    result = prolong(m)
    elapsed = time.monotonic() - start
    return entry, result, elapsed


@pytest.fixture(scope="session")
def corpus_algebras(counterexample_run):
    """entry name -> (entry, algebra, prolongation result or None)."""
    out = {}
    for entry in all_entries():
        if entry.kind == "quadric":
            if entry.name == "counterexample_quadric":
                result = counterexample_run[1]
            else:
                result = prolong(entry.payload.build_m_minus())
            out[entry.name] = (entry, result.algebra, result)
        else:
            out[entry.name] = (entry, entry.payload, None)
    return out


def test_criterion_1_counterexample_reproduction(counterexample_run):
    entry, result, elapsed = counterexample_run
    dims = result.degree_dims
    try:
        assert dims[-1] == 14
        assert dims[-2] == 8
        assert dims[1] >= 16
        assert dims[2] >= 10
        assert dims[1] > dims[-1] and dims[2] > dims[-2]
        assert elapsed < 600.0
    except AssertionError:
        report(1, "FAIL", f"dims={dims}, {elapsed:.1f}s")
        raise
    report(1, "PASS",
           f"dims={dims}, positive part exceeds negative, {elapsed:.1f}s")


def test_criterion_2_algebra_a_crosscheck():
    entry = entry_by_name("example_algebra_a")
    alg = entry.payload
    dims = alg.degree_dims()
    try:
        assert alg.validate().ok
        assert dims[1] == 16
        assert dims[2] == 10
        assert dims[-1] == 14
        assert dims[-2] == 8
    except AssertionError:
        report(2, "FAIL", f"dims={dims}")
        raise
    report(2, "PASS", f"validated, dims={dims}")


def test_criterion_3_oracle_equals_lists_rank8():
    start = time.monotonic()
    table = regenerate_tables(8)
    elapsed = time.monotonic() - start
    try:
        assert table["disagreements"] == []
        assert elapsed < 60.0
    except AssertionError:
        report(3, "FAIL",
               f"{len(table['disagreements'])} disagreements, {elapsed:.1f}s")
        raise
    rows = len(table["kind_1"]) + len(table["kind_2"])
    report(3, "PASS", f"{rows} descriptors, zero disagreements, {elapsed:.1f}s")


def test_criterion_4_kind2_enumeration_rank8():
    got = {}
    for d, kind in enumerate_descriptors(8):
        if kind == 2:
            got.setdefault(d.rank, set()).add(
                (d.family, d.rank, d.form, d.p, d.q, tuple(sorted(d.phi))))
    expected_all = expected_kind2_sets(8)
    try:
        for rank in range(1, 9):
            expected = {t for t in expected_all if t[1] == rank}
            assert got.get(rank, set()) == expected, f"rank {rank} mismatch"
    except AssertionError:
        report(4, "FAIL")
        raise
    report(4, "PASS", f"{len(expected_all)} kind-2 descriptors match at every rank <= 8")


def test_criterion_5_parity_tables_and_kind1_identity():
    from levitanaka.classify import FactorDescriptor, in_kind1_list
    try:
        # D_l odd parities: trivial below the spin weights, (-1)^k on them
        for l in (5, 7, 9):
            d = FactorDescriptor("D", l, "D Ib", [f"a{l}"])
            rows = parity_table(orthogonal_word(d), d)
            k = (l - 1) // 2
            for row in rows:
                want = 0 if row["weight"] <= l - 2 else k % 2
                assert row["parity"] == want, (l, row)
        # kind-1 identity E = half the sum of the degree-1 coroots
        checked = 0
        for d, kind in enumerate_descriptors(8):
            if kind == 1 and in_kind1_list(d):
                sub = kind1_degree_one_subword(d)  # verifies the identity
                e = grading_vector(d)
                rs = root_system("E6" if d.family == "E6" else d.family, d.rank)
                for j, omega in enumerate(rs.fundamental_weights(), 1):
                    parity = sum(rs.coroot_pairing(b, omega) for b in sub) % 2
                    assert parity == (2 * _dot(omega, e)) % 2
                checked += 1
        assert checked >= 8
        # certificate case table, including the strict ones
        assert gamma_case(FactorDescriptor("D", 8, "D Ib", ["a7"])) \
            == GAMMA_PRIME_ONLY
        assert gamma_case(FactorDescriptor("D", 8, "D Ib", ["a8"])) \
            == GAMMA_PRIME_ONLY
        assert gamma_case(FactorDescriptor("D", 6, "D Ib", ["a5"])) == "BOTH"
        assert gamma_case(FactorDescriptor("A", 5, "COMPLEX", ["a3"])) \
            == "KIND1_NONE"
        assert gamma_case(FactorDescriptor("E6", 6, "E II", ["a1"])) == "BOTH"
    except AssertionError:
        report(5, "FAIL")
        raise
    report(5, "PASS", f"parities for D5/D7/D9, {checked} kind-1 identities, case table")


# the one documented impossibility: the 70-dim example algebra has central
# trace lines, so no element of g_0 can induce its grading (see README)
KNOWN_UNATTAINABLE = {
    ("example_algebra_a", "characteristic_element_exists_unique"):
        "the two trace lines are central and nothing acts as -Id on the "
        "standard module, so the grading is not inner",
}


def test_criterion_6_structural_suite(corpus_algebras):
    failures = []
    expected_failures = []
    for name, (entry, alg, result) in sorted(corpus_algebras.items()):
        def check(label, ok):
            key = (name, label)
            if key in KNOWN_UNATTAINABLE:
                if ok:
                    failures.append((name, label, "expected to fail but passed"))
                else:
                    expected_failures.append((name, label))
            elif not ok:
                failures.append((name, label, "failed"))

        check("jacobi_all_triples", alg.validate().ok)
        try:
            alg.characteristic_element()
            check("characteristic_element_exists_unique", True)
        except Exception:
            check("characteristic_element_exists_unique", False)
        if result is not None:
            check("transitivity_certificate",
                  transitivity_check(result)["status"] == "pass")
        dec = alg.levi_decomposition()
        rad = alg.radical()
        check("levi_r_is_radical", dec.r.dim == rad.dim)
        check("levi_s_semisimple_killing",
              elimination.rank(dec.s_algebra.killing_rows(), dec.s.dim) == dec.s.dim)
        if entry.expected.get("has_tilde_s"):
            low = alg.degree_indices(-2)
            rad_low = sum(
                1 for v in rad.vectors
                if {alg.degrees[i] for i in v} == {-2})
            check("levi_malcev_radical_deg2_proper", rad_low < len(low))
            check("grading_element_in_levi",
                  dec.E_r is not None and not dec.E_r)
    assert not failures, failures
    if expected_failures:
        names = "; ".join(f"{n}:{l}" for n, l in expected_failures)
        report(6, "FAIL",
               f"unattainable by construction: {names} - grading not "
               "inner (central trace lines, see README); every other "
               "sub-check PASSED")
    else:
        report(6, "PASS", "all structural sub-checks")
    # strict mode: the documented impossibilities must actually fire
    assert {(n, l) for n, l in expected_failures} == set(KNOWN_UNATTAINABLE)


def test_criterion_7_baseline_prolongations(corpus_algebras):
    try:
        _, _, r1 = corpus_algebras["heisenberg_1_p"]
        assert r1.degree_dims == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}
        assert sum(r1.degree_dims.values()) == 8
        _, _, r2 = corpus_algebras["heisenberg_2_pp"]
        _, _, r3 = corpus_algebras["heisenberg_2_pm"]
        for r in (r2, r3):
            assert r.degree_dims == {-2: 1, -1: 4, 0: 5, 1: 4, 2: 1}
            assert sum(r.degree_dims.values()) == 15
    except AssertionError:
        report(7, "FAIL")
        raise
    report(7, "PASS", "frozen oracle goldens reproduced")


def test_criterion_8_determinism(tmp_path):
    from levitanaka.cli import main
    from levitanaka.quadric import diagonal_form

    form_path = tmp_path / "h.json"
    diagonal_form([1, -1]).dump(form_path)
    factors_path = tmp_path / "f.json"
    factors_path.write_text(json.dumps({
        "factors": [{"family": "E6", "rank": 6, "form": "E II",
                     "phi": ["a1"]}],
        "semisimple": True}))
    pairs = []
    for argv in (
        ["analyze-quadric", str(form_path)],
        ["classify", str(factors_path)],
        ["tables", "--max-rank", "4"],
        ["corpus", "--only", "heisenberg_1_p"],
    ):
        outs = []
        for run in (1, 2):
            out_path = tmp_path / f"out_{run}.json"
            code = main(argv + ["--out", str(out_path)])
            assert code == 0, argv
            outs.append(out_path.read_bytes())
        pairs.append(outs[0] == outs[1])
    try:
        assert all(pairs)
    except AssertionError:
        report(8, "FAIL", f"pairs={pairs}")
        raise
    report(8, "PASS", "byte-identical reports across repeated runs")
