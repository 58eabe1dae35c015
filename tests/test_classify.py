from itertools import combinations

import pytest

from levitanaka import classify
from levitanaka.classify import (
    FactorDescriptor,
    enumerate_descriptors,
    grading_data,
    in_kind1_list,
    in_kind2_list,
    node,
    phi_is_admissible,
    regenerate_tables,
    tilde_s_general,
    tilde_s_semisimple,
    w0_reverses_E,
)
from levitanaka.errors import (
    AdmissibilityError,
    IncompleteFactorsError,
    KindError,
)


def D(family, rank, form, phi, p=None, q=None):
    return FactorDescriptor(family, rank, form, phi, p, q)


def test_admissible_a_iii_examples():
    assert phi_is_admissible(D("A", 5, "A III", ["a2"], 2, 4))
    # center node is epsilon-fixed
    assert not phi_is_admissible(D("A", 5, "A III", ["a3"], 2, 4))
    # compact node
    assert not phi_is_admissible(D("A", 5, "A III", ["a3"], 1, 5))


def test_admissible_complex_examples():
    assert not phi_is_admissible(D("A", 3, "COMPLEX", ["a1", "a2"]))
    assert phi_is_admissible(D("A", 3, "COMPLEX", ["a1", "a2'"]))
    assert not phi_is_admissible(D("A", 3, "COMPLEX", ["a1", "a1'"]))
    # one-sided hermitian singleton at a coefficient-1 node
    assert phi_is_admissible(D("D", 6, "COMPLEX", ["a1"]))
    # singleton at a coefficient-2 node stays out
    assert not phi_is_admissible(D("D", 6, "COMPLEX", ["a2"]))


def test_admissible_path_condition():
    # two real phi nodes whose connecting path avoids eps(phi)
    assert not phi_is_admissible(D("A", 5, "A III", ["a1", "a2"], 3, 3))
    # path picks up an eps-image in between: admissible but higher kind
    d = D("A", 5, "A III", ["a1", "a4"], 3, 3)
    assert phi_is_admissible(d)
    assert grading_data(d).kind == 4


def test_grading_data_examples():
    g = grading_data(D("D", 6, "D Ib", ["a6"]))
    assert g.kind == 2
    assert g.e_coords["a5"] == 1 and g.e_coords["a6"] == 1
    assert sum(g.e_coords.values()) == 2
    g = grading_data(D("A", 5, "COMPLEX", ["a2", "a4'"]))
    assert g.kind == 2
    g = grading_data(D("D", 6, "COMPLEX", ["a1"]))
    assert g.kind == 1
    g = grading_data(D("E6", 6, "E II", ["a1"]))
    assert g.kind == 2


def test_grading_data_requires_admissible():
    with pytest.raises(AdmissibilityError):
        grading_data(D("A", 5, "A III", ["a3"], 2, 4))


def test_w0_oracle_real_forms_always_true():
    for d in (D("A", 5, "A III", ["a2"], 2, 4),
              D("A", 4, "A IV", ["a1"], 1, 4),
              D("D", 6, "D Ib", ["a6"]),
              D("D", 7, "D IIIb", ["a7"]),
              D("E6", 6, "E II", ["a1"]),
              D("E6", 6, "E III", ["a6"])):
        assert w0_reverses_E(d)


def test_w0_oracle_complex_examples():
    assert w0_reverses_E(D("A", 5, "COMPLEX", ["a2", "a4'"]))
    assert not w0_reverses_E(D("A", 5, "COMPLEX", ["a1", "a3'"]))
    assert w0_reverses_E(D("D", 6, "COMPLEX", ["a1", "a5'"]))
    assert not w0_reverses_E(D("D", 5, "COMPLEX", ["a1", "a4'"]))
    assert w0_reverses_E(D("D", 5, "COMPLEX", ["a5", "a4'"]))
    assert w0_reverses_E(D("E6", 6, "COMPLEX", ["a1", "a6'"]))


def test_tilde_s_semisimple_examples():
    assert tilde_s_semisimple([D("E6", 6, "E II", ["a1"])])
    assert not tilde_s_semisimple([D("D", 5, "COMPLEX", ["a1", "a4'"])])
    assert tilde_s_semisimple([D("D", 6, "COMPLEX", ["a1", "a5'"])])
    # mixed list: all factors must pass
    assert not tilde_s_semisimple([
        D("E6", 6, "E II", ["a1"]),
        D("D", 5, "COMPLEX", ["a1", "a4'"]),
    ])


def test_tilde_s_semisimple_errors():
    with pytest.raises(AdmissibilityError):
        tilde_s_semisimple([D("A", 5, "A III", ["a3"], 2, 4)])
    with pytest.raises(KindError):
        tilde_s_semisimple([D("D", 6, "COMPLEX", ["a1"])])  # kind 1
    # a Levi factor of a kind-2 algebra contains a kind-2 ideal, also when
    # the algebra is semisimple
    with pytest.raises(IncompleteFactorsError, match="must contain a kind-2 ideal"):
        tilde_s_semisimple([])


def test_tilde_s_general_examples():
    kind1 = [D("A", 3, "COMPLEX", ["a2"])]
    kind2 = [D("A", 5, "A III", ["a2"], 2, 4)]
    assert tilde_s_general(kind2, kind1, True)
    assert not tilde_s_general(kind2, kind1, False)
    bad_kind1 = [D("A", 4, "COMPLEX", ["a2"])]  # even rank: no center node
    assert not tilde_s_general(kind2, bad_kind1, True)
    with pytest.raises(IncompleteFactorsError):
        tilde_s_general([], kind1, True)


def test_kind1_list():
    assert in_kind1_list(D("A", 3, "COMPLEX", ["a2"]))
    assert in_kind1_list(D("A", 5, "COMPLEX", ["a3"]))
    assert not in_kind1_list(D("A", 4, "COMPLEX", ["a2"]))
    assert in_kind1_list(D("D", 6, "COMPLEX", ["a1"]))
    assert in_kind1_list(D("D", 6, "COMPLEX", ["a5"]))
    assert in_kind1_list(D("D", 6, "COMPLEX", ["a6"]))
    assert in_kind1_list(D("D", 5, "COMPLEX", ["a1"]))
    assert not in_kind1_list(D("D", 5, "COMPLEX", ["a4"]))
    assert not in_kind1_list(D("E6", 6, "COMPLEX", ["a1"]))


def test_oracle_matches_kind1_list_for_singletons():
    for d, kind in enumerate_descriptors(6):
        if kind == 1:
            assert w0_reverses_E(d) == in_kind1_list(d), d


def test_regenerate_tables_no_disagreements_rank6():
    table = regenerate_tables(6)
    assert table["disagreements"] == []
    assert table["kind_2"] and table["kind_1"]


def test_regenerate_tables_complex_a_kind2_passers():
    table = regenerate_tables(6)
    for row in table["kind_2"]:
        d = row["descriptor"]
        if d["form"] == "COMPLEX" and d["family"] == "A":
            phi = d["phi"]
            idx = sorted(int(n.rstrip("'")[1:]) for n in phi)
            passes = row["w0_reverses_E"]
            assert passes == (idx[0] + idx[1] == d["rank"] + 1)


def test_regenerate_tables_complex_d_odd_kind1():
    table = regenerate_tables(6)
    for row in table["kind_1"]:
        d = row["descriptor"]
        if d["form"] == "COMPLEX" and d["family"] == "D" and d["rank"] % 2 == 1:
            idx = int(d["phi"][0].rstrip("'")[1:])
            assert row["w0_reverses_E"] == (idx == 1)


def test_regenerate_tables_real_kind2_all_pass():
    table = regenerate_tables(6)
    for row in table["kind_2"]:
        if row["descriptor"]["form"] != "COMPLEX":
            assert row["w0_reverses_E"] and row["in_theorem_list"]


def test_regenerate_tables_requires_rank4():
    with pytest.raises(ValueError):
        regenerate_tables(3)


from naive_oracle import naive_admissible, naive_diagrams, naive_kind, naive_nodes
from prop_lists import expected_kind2_sets


def test_kind2_enumeration_matches_classification_rank6():
    got = set()
    for d, kind in enumerate_descriptors(6):
        if kind == 2:
            got.add((d.family, d.rank, d.form, d.p, d.q, tuple(sorted(d.phi))))
    assert got == expected_kind2_sets(6)


def test_e_coords_epsilon_stable():
    # eps permutes phi and eps(phi), so the indicator vector is eps-stable
    for d, _ in enumerate_descriptors(6):
        g = grading_data(d)
        eps = d._diagram.eps
        for n, v in g.e_coords.items():
            assert g.e_coords[eps[n]] == v, d


def test_descriptor_json_roundtrip():
    d = D("A", 5, "A III", ["a2"], 2, 4)
    assert FactorDescriptor.from_json(d.to_json()) == d
    d = D("D", 6, "COMPLEX", ["a1", "a5'"])
    assert FactorDescriptor.from_json(d.to_json()) == d


def test_descriptor_validation():
    with pytest.raises(ValueError):
        D("A", 5, "A III", ["a2"])  # missing p, q
    with pytest.raises(ValueError):
        D("A", 5, "A IV", ["a2"], 2, 4)  # A IV means p = 1
    with pytest.raises(ValueError):
        D("D", 6, "D IIIb", ["a6"])  # D IIIb needs odd rank
    with pytest.raises(ValueError):
        D("D", 6, "D Ib", ["a9"])  # node outside the diagram
    # p and q belong to A III/IV alone: a stray one would also split the
    # equality and hash of two descriptors of one factor
    with pytest.raises(ValueError, match="field 'p' belongs to A III/IV only"):
        D("D", 4, "D Ib", ["a1"], 1, 9)
    with pytest.raises(ValueError, match="field 'q' belongs to A III/IV only"):
        D("A", 3, "COMPLEX", ["a1"], None, 2)


def test_grading_data_worked_out_once_per_descriptor(monkeypatch):
    # regenerate_tables asks three times per descriptor (enumeration,
    # grading data, w0 oracle); each (diagram, phi) is decided once, on
    # the diagram, and more subsets are decided than rows come out
    decided = []
    admits = classify._Diagram.admits

    def counted(diagram, phi):
        decided.append((id(diagram), phi))
        return admits(diagram, phi)

    monkeypatch.setattr(classify._Diagram, "admits", counted)
    tables = regenerate_tables(6)
    assert len(set(decided)) == len(decided)
    assert len(tables["kind_1"]) + len(tables["kind_2"]) < len(decided)
    d = D("D", 6, "D Ib", ["a6"])
    assert grading_data(d) is grading_data(d)
    with pytest.raises(AdmissibilityError):
        grading_data(D("A", 5, "A III", ["a3"], 2, 4))


def test_admissibility_and_kind_match_the_naive_oracle_rank8():
    # every singleton and pair of nodes on every diagram up to rank 8,
    # admissible or not, against the conditions worked out per subset
    diagrams = naive_diagrams(8)
    rows = []
    subsets = 0
    for family, rank, form, p, q in diagrams:
        names = naive_nodes(family, rank, form)
        for phi in [[a] for a in names] + \
                [[a, b] for i, a in enumerate(names) for b in names[i + 1:]]:
            subsets += 1
            d = D(family, rank, form, phi, p, q)
            admissible = naive_admissible(family, rank, form, p, q, phi)
            assert phi_is_admissible(d) == admissible, d
            if not admissible:
                with pytest.raises(AdmissibilityError):
                    grading_data(d)
                continue
            kind = naive_kind(family, rank, form, p, q, phi)
            assert grading_data(d).kind == kind, d
            if kind in (1, 2):
                rows.append((family, rank, form, p, q, tuple(sorted(phi)), kind))
    assert (len(diagrams), subsets, len(rows)) == (43, 1527, 396)
    # the enumeration yields the same rows in the same order
    assert [(d.family, d.rank, d.form, d.p, d.q, tuple(sorted(d.phi)), kind)
            for d, kind in enumerate_descriptors(8)] == rows


def test_admissibility_of_three_and_four_nodes_matches_the_naive_oracle_rank8():
    # the enumeration tries only singletons and pairs, but a classify file
    # may carry any phi: condition (4) must hold between every two of its
    # nodes, not only the first two
    subsets = admissible = 0
    for family, rank, form, p, q in naive_diagrams(8):
        names = naive_nodes(family, rank, form)
        for size in (3, 4):
            for phi in combinations(names, size):
                subsets += 1
                expected = naive_admissible(family, rank, form, p, q, phi)
                d = D(family, rank, form, phi, p, q)
                assert phi_is_admissible(d) == expected, d
                admissible += expected
    assert (subsets, admissible) == (11939, 1008)
