"""Byte-exact goldens for every result the exact linear-algebra core shapes.

Each expected value was recorded once and is never regenerated: layer
bases and layer coordinates (``prolong`` reports), Gaussian kernel
witnesses (``analyze-quadric`` on degenerate forms), echelon bases
(radical, derived series, simple ideals), unique coordinates
(``change_basis``, fundamental weights), the canonical Gaussian
kernel and solution, and each corpus entry's JSON.  Reports are
compared as bytes, with the temporary input path replaced by
``<path>``; long ones through their sha256.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from levitanaka import corpus
from levitanaka.classify import enumerate_descriptors, in_kind2_list
from levitanaka.cli import main
from levitanaka.errors import NonIntegralPairingError
from levitanaka.graded import Subspace
from levitanaka.involution import certificate_report
from levitanaka.matrices import ExactMatrix
from levitanaka.prolongation import prolong
from levitanaka.quadric import HermitianFormSystem, diagonal_form
from levitanaka.rootdata import RootSystem
from levitanaka.scalars import GaussRational

from test_graded import (
    ALGEBRA_A_MOVES,
    algebra_a_with_denominators,
    sl2_semidirect_adjoint,
    sl2_sl2,
    transvected_counterexample,
)
from test_prolongation import heisenberg_3_with_j

Q = Fraction
I = GaussRational(0, 1)
ONE = GaussRational(1)
ZERO = GaussRational(0)


def _k2_form():
    """n=2, k=2 quadric: diag(1, -1) and the off-diagonal i / -i form."""
    return HermitianFormSystem(2, 2, [
        ExactMatrix.from_rows([[ONE, ZERO], [ZERO, -ONE]]),
        ExactMatrix.from_rows([[ZERO, I], [-I, ZERO]])])


def _cli_bytes(capsys, tmp_path, dump, command):
    path = str(tmp_path / "input.json")
    dump(path)
    code = main([command, path])
    return code, capsys.readouterr().out.replace(path, "<path>")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _strs(vectors, dim=None):
    """Entries as strings; dicts {index: value} are first written out to length dim."""
    if dim is not None:
        vectors = [[v.get(k, 0) for k in range(dim)] for v in vectors]
    return [[str(x) for x in v] for v in vectors]


@pytest.mark.parametrize("build, digest", [
    (lambda: diagonal_form([1, -1]).build_m_minus(),
     "14067f4019afbe2bfd611d13a2240e23485e5572f4d534e2ab0aa8b3d27903af"),
    (lambda: _k2_form().build_m_minus(),
     "79cac4a77e3f3b930b105364cc80db34fe3b94e80025ee68e85481584c13d4f8"),
    (lambda: corpus.counterexample_quadric().payload.build_m_minus(),
     "5c1c5efe58d57b31a0aabb3be0c9c8681f4b88e8bb1262d14dad58f0b805eb94"),
    # J a = b/2, J b = -2a: J's entries reach the p = 0 rows as fractions
    (lambda: heisenberg_3_with_j([[0, -2], [Q(1, 2), 0]]),
     "b04ee17455a6f4adae488d4f87af746f2c08794431d33f8a81896889101955cf"),
], ids=["heisenberg_pm", "k2_quadric", "counterexample_n7_k8", "heisenberg_fractional_J"])
def test_prolong_report_bytes(capsys, tmp_path, build, digest):
    code, out = _cli_bytes(capsys, tmp_path, build().dump, "prolong")
    assert code == 0
    assert _sha(out) == digest


@pytest.mark.parametrize("form, expected", [
    (lambda: diagonal_form([1, 0, 1]),
     '{"checks":[{"name":"nondegenerate","status":"fail","witness":["0","1","0"]}],'
     '"command":"analyze-quadric","degree_dims":null,'
     '"input":{"k":1,"n":3,"path":"<path>"},"timings":null,"verdicts":null}\n'),
    (lambda: HermitianFormSystem(2, 1, [ExactMatrix.from_rows([[ONE, I], [-I, ONE]])]),
     '{"checks":[{"name":"nondegenerate","status":"fail","witness":["-1i","1"]}],'
     '"command":"analyze-quadric","degree_dims":null,'
     '"input":{"k":1,"n":2,"path":"<path>"},"timings":null,"verdicts":null}\n'),
    (lambda: HermitianFormSystem(1, 2, [ExactMatrix.from_rows([[ONE]]),
                                        ExactMatrix.from_rows([[ONE + ONE]])]),
     '{"checks":[{"name":"nondegenerate","status":"pass","witness":null},'
     '{"name":"fundamental","status":"fail","witness":["-2","1"]}],'
     '"command":"analyze-quadric","degree_dims":null,'
     '"input":{"k":2,"n":1,"path":"<path>"},"timings":null,"verdicts":null}\n'),
], ids=["diagonal_1_0_1", "rank_one_complex", "dependent_components"])
def test_analyze_degenerate_witness_bytes(capsys, tmp_path, form, expected):
    code, out = _cli_bytes(capsys, tmp_path, form().dump, "analyze-quadric")
    assert code == 1
    assert out == expected


@pytest.mark.parametrize("form, expected", [
    (lambda: diagonal_form([1, 1]),
     '{"characteristic_element":{"d0_4":"-1"},"checks":['
     '{"name":"nondegenerate","status":"pass","witness":null},'
     '{"name":"fundamental","status":"pass","witness":null},'
     '{"name":"prolongation","status":"pass","witness":null},'
     '{"name":"transitivity","status":"pass","witness":null}],'
     '"command":"analyze-quadric","degree_dims":[[-2,1],[-1,4],[0,5],[1,4],[2,1]],'
     '"input":{"k":1,"n":2,"path":"<path>"},"timings":null,'
     '"verdicts":{"grading_element_in_levi":true,"levi_dim":15,"radical_dim":0}}\n'),
    (_k2_form,
     '{"characteristic_element":{"d0_3":"-1"},"checks":['
     '{"name":"nondegenerate","status":"pass","witness":null},'
     '{"name":"fundamental","status":"pass","witness":null},'
     '{"name":"prolongation","status":"pass","witness":null},'
     '{"name":"transitivity","status":"pass","witness":null}],'
     '"command":"analyze-quadric","degree_dims":[[-2,2],[-1,4],[0,4],[1,4],[2,2]],'
     '"input":{"k":2,"n":2,"path":"<path>"},"timings":null,'
     '"verdicts":{"grading_element_in_levi":true,"levi_dim":16,"radical_dim":0}}\n'),
    # solvable prolongation (it stops at g_0): the Levi factor is 0
    (lambda: HermitianFormSystem(3, 2, [
        ExactMatrix.from_rows([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]),
        ExactMatrix.from_rows([[ZERO, ZERO, ZERO], [ZERO, ONE, ZERO],
                               [ZERO, ZERO, ONE + ONE]])]),
     '{"characteristic_element":{"d0_3":"-1"},"checks":['
     '{"name":"nondegenerate","status":"pass","witness":null},'
     '{"name":"fundamental","status":"pass","witness":null},'
     '{"name":"prolongation","status":"pass","witness":null},'
     '{"name":"transitivity","status":"pass","witness":null}],'
     '"command":"analyze-quadric","degree_dims":[[-2,2],[-1,6],[0,4]],'
     '"input":{"k":2,"n":3,"path":"<path>"},"timings":null,'
     '"verdicts":{"grading_element_in_levi":false,"levi_dim":0,"radical_dim":12}}\n'),
], ids=["heisenberg_pp", "k2_quadric", "solvable_n3_k2"])
def test_analyze_quadric_report_bytes(capsys, tmp_path, form, expected):
    code, out = _cli_bytes(capsys, tmp_path, form().dump, "analyze-quadric")
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("build, digest", [
    (lambda: corpus.heisenberg(1, (1,)),
     "a2cc1aaa9cd94772857cfca5ca83d452aadfa6850089b3d322a69da4822953b6"),
    (lambda: corpus.heisenberg(2, (1, 1)),
     "9a87d7eb43caf65ece74c905ca4451147a77b6bf7bb42dc9f328e03455b8cc62"),
    (lambda: corpus.heisenberg(2, (1, -1)),
     "b2e999112627d3561af2100d7cb8efbe2e42eaf441a5fe30a51c729504c0c989"),
    (lambda: corpus.heisenberg(3, (1, 1, 1)),
     "69c21251d034bf42c25fcd5cca005060b7a2d30738aee2e033cc05551e6c15fc"),
    (corpus.counterexample_quadric,
     "fdd176f63c846117dc382ee31444ab0b78980cec46393718b0e0f6aaead80ecf"),
    (corpus.example_algebra_a,
     "31cdb6451c70de53b85f70334005a400692898ba7523d9b0ba3527e83473948e"),
    (lambda: corpus.o8_sl2_example("double"),
     "c13ed90c967d8349c18cf29d1b2bbc187c258783b8113a0c08e55ca273cc1107"),
    (lambda: corpus.o8_sl2_example("minus-half"),
     "dd7c15d46e0a9088d118364ae83ad25d2b3a4f595dc9eebdc68a6e5974c33d62"),
], ids=["heisenberg_1_p", "heisenberg_2_pp", "heisenberg_2_pm", "heisenberg_3_ppp",
        "counterexample_quadric", "example_algebra_a", "o8_sl2_double",
        "o8_sl2_minus_half"])
def test_corpus_entry_bytes(build, digest):
    assert _sha(json.dumps(build().to_json(), sort_keys=True)) == digest


def test_radical_and_derived_series_vectors():
    g = sl2_semidirect_adjoint(shear=True)
    rad = g.radical()
    expected = [["0", "0", "0", "0", "0", "1"],
                ["0", "0", "0", "1", "0", "0"],
                ["0", "0", "0", "0", "1", "0"]]
    assert _strs(rad.vectors, 6) == expected
    assert [_strs(s.vectors, 6) for s in g.derived_series(rad)] == [expected, []]
    whole = Subspace(g, [{a: Q(1)} for a in range(6)])
    assert [_strs(s.vectors, 6) for s in g.derived_series(whole)] == [
        [["1" if a == b else "0" for b in range(6)] for a in range(6)]]


def test_simple_ideal_vectors_of_sheared_sl2_sl2():
    p = ExactMatrix.identity(6)
    p.entries[3 * 6 + 0] = Q(2)
    p.entries[0 * 6 + 3] = Q(1)
    g = sl2_sl2().change_basis(p)
    assert g.to_json()["brackets"] == [
        [0, 1, 1, "2"], [0, 2, 2, "-2"], [0, 4, 4, "4"], [0, 5, 5, "-4"],
        [1, 2, 0, "-1"], [1, 2, 3, "2"], [1, 3, 1, "-2"], [2, 3, 2, "2"],
        [3, 4, 4, "2"], [3, 5, 5, "-2"], [4, 5, 0, "1"], [4, 5, 3, "-1"]]
    whole = Subspace(g, [{a: Q(1)} for a in range(6)])
    assert [_strs(s.vectors, 6) for s in g.simple_ideals(whole)] == [
        [["0", "0", "1", "0", "0", "0"], ["1", "0", "0", "-2", "0", "0"],
         ["0", "1", "0", "0", "0", "0"]],
        [["0", "0", "0", "0", "0", "1"], ["1", "0", "0", "-1", "0", "0"],
         ["0", "0", "0", "0", "1", "0"]]]


def test_change_basis_of_algebra_a_bytes():
    a = corpus.example_algebra_a().payload
    n = a.dim
    p = ExactMatrix.identity(n)
    for i, j, c in ALGEBRA_A_MOVES:
        for r in range(n):
            p.entries[r * n + j] += c * p.entries[r * n + i]
    text = json.dumps(a.change_basis(p).to_json(), sort_keys=True)
    assert _sha(text) == "f43ff1ed47c18145a93c3012dddf917744c433b160cb0cf1290c345a12246c18"


def test_gaussian_kernel_and_solution_strings():
    m = ExactMatrix.from_rows([[ONE, I, GaussRational(2), ZERO],
                               [I, -ONE, GaussRational(0, 2), GaussRational(1, 1)]])
    assert m.rank() == 2
    assert _strs(m.kernel_vectors()) == [["-1i", "1", "0", "0"], ["-2", "0", "1", "0"]]
    assert [str(x) for x in m.solve([ONE, GaussRational(0, 3)])] == ["1", "0", "0", "1+1i"]


def test_fundamental_weight_strings():
    assert _strs(RootSystem("A", 4).fundamental_weights()) == [
        ["4/5", "-1/5", "-1/5", "-1/5", "-1/5"], ["3/5", "3/5", "-2/5", "-2/5", "-2/5"],
        ["2/5", "2/5", "2/5", "-3/5", "-3/5"], ["1/5", "1/5", "1/5", "1/5", "-4/5"]]
    assert _strs(RootSystem("D", 5).fundamental_weights()) == [
        ["1", "0", "0", "0", "0"], ["1", "1", "0", "0", "0"], ["1", "1", "1", "0", "0"],
        ["1/2", "1/2", "1/2", "1/2", "-1/2"], ["1/2", "1/2", "1/2", "1/2", "1/2"]]
    assert _strs(RootSystem("E6", 6).fundamental_weights()) == [
        ["0", "0", "0", "0", "0", "-2/3", "-2/3", "2/3"],
        ["1/2", "1/2", "1/2", "1/2", "1/2", "-1/2", "-1/2", "1/2"],
        ["-1/2", "1/2", "1/2", "1/2", "1/2", "-5/6", "-5/6", "5/6"],
        ["0", "0", "1", "1", "1", "-1", "-1", "1"],
        ["0", "0", "0", "1", "1", "-2/3", "-2/3", "2/3"],
        ["0", "0", "0", "0", "1", "-1/3", "-1/3", "1/3"]]


def test_tables_rank8_report_bytes(capsys):
    assert main(["tables", "--max-rank", "8"]) == 0
    assert _sha(capsys.readouterr().out) == \
        "ebb2c6b76ee1da3c56296de56fee35f6323efd4bc9276de11840a1bb6541721c"


def test_tables_rank12_report_bytes(capsys):
    # past rank 8: 214 kind-1 rows, 870 kind-2 rows, no disagreement
    assert main(["tables", "--max-rank", "12"]) == 0
    assert _sha(capsys.readouterr().out) == \
        "588d2e11157ee901ab77aebbe8dba68126f76c22a1c764d543a3f0ca0be7cce7"


@pytest.mark.parametrize("argv, digest", [
    (["corpus"],
     "1da82aacec175bea97beb86a6f25715b98f67d5a03771ede2806cafe90b30aaa"),
    (["corpus", "--run-all"],
     "9fd566de3982848f3a518b83ecec38d04619e3ecfa6be5b18361696c99e7ce35"),
], ids=["shallow", "run_all"])
def test_corpus_report_bytes(capsys, argv, digest):
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out) == digest


CLASSIFY_MIXED_FACTORS = [
    {"family": "A", "rank": 5, "form": "A III", "phi": ["a2"], "p": 2, "q": 4},
    {"family": "D", "rank": 4, "form": "COMPLEX", "phi": ["a3", "a4'"]},
    {"family": "A", "rank": 1, "form": "COMPLEX", "phi": ["a1"]},
    {"family": "A", "rank": 5, "form": "A III", "phi": ["a3"], "p": 2, "q": 4},
]


def test_classify_mixed_report_bytes(capsys, tmp_path):
    # an A III kind-2 factor, a complex D4 pair, a complex A1 kind-1 factor
    # and an inadmissible A III factor (a3 is eps-fixed): exit 1
    def dump(path):
        with open(path, "w") as fh:
            json.dump({"factors": CLASSIFY_MIXED_FACTORS}, fh)

    code, out = _cli_bytes(capsys, tmp_path, dump, "classify")
    assert code == 1
    assert _sha(out) == \
        "4a0a44c10edc73d145d0bff0c0f4eff7d4b8a52f25fd95af2da2feca9843224b"


def test_certificate_reports_rank8():
    # every listed kind-2 descriptor up to rank 8, and the kind-1 ones whose
    # 2 omega_j(E) are integers; the other 76 kind-1 ones raise
    reports = []
    rejected = 0
    for d, kind in enumerate_descriptors(8):
        if kind == 2 and not in_kind2_list(d):
            continue
        try:
            reports.append(json.dumps(certificate_report(d), sort_keys=True))
        except NonIntegralPairingError:
            assert kind == 1, d
            rejected += 1
    assert (len(reports), rejected) == (176, 76)
    assert _sha("\n".join(reports)) == \
        "51284713a88044d52a2fb7e5bcf068532e83c6e4f18ec4b2925202446bb58654"


def test_analyze_quadric_counterexample_report_bytes(capsys, tmp_path):
    code, out = _cli_bytes(capsys, tmp_path,
                           corpus.counterexample_quadric().payload.dump,
                           "analyze-quadric")
    assert code == 0
    assert _sha(out) == "cdc09307ad1b64f594c7933a2f11b42588dae16cf40626932189b053257f01c7"


def test_analyze_quadric_lifts_no_levi_factor(capsys, tmp_path, monkeypatch):
    # the E_r verdict and levi_dim come from [g, g] and the radical alone
    from levitanaka.graded import GradedLieAlgebra

    def no_lift(self):
        raise RuntimeError("levi_decomposition called")

    monkeypatch.setattr(GradedLieAlgebra, "levi_decomposition", no_lift)
    code, out = _cli_bytes(capsys, tmp_path,
                           corpus.counterexample_quadric().payload.dump,
                           "analyze-quadric")
    assert code == 0
    assert _sha(out) == "cdc09307ad1b64f594c7933a2f11b42588dae16cf40626932189b053257f01c7"


def _levi_strings(g):
    dec = g.levi_decomposition()
    e_s = None if dec.E_s is None else _strs([dec.E_s], g.dim)[0]
    return _sha(json.dumps([_strs(dec.s.vectors, g.dim),
                            _strs(dec.r.vectors, g.dim)])), e_s


def test_levi_vectors_of_algebra_a():
    # the grading of algebra A is not inner, so there is no E_s
    assert _levi_strings(corpus.example_algebra_a().payload) == (
        "fa9b67c31bb8bbdff8befcb43df818a7b5234ddb5af2a0ff06653ba84c960933", None)


def test_levi_vectors_of_a_basis_change_with_denominators():
    # the transvections of test_change_basis_of_algebra_a_bytes, then every
    # 7th column scaled by 2 or 3: 181 of the 967 structure constants get a
    # denominator, and the Levi section picks up halves
    g = algebra_a_with_denominators()
    assert sum(1 for comp in g.table.values() for c in comp.values()
               if Q(c).denominator != 1) == 181
    assert _levi_strings(g) == (
        "df55a31126efaa59317869584d5864712de2fee565598f4d3d49ea9a931dc404", None)


def test_nilradical_center_and_series_of_a_basis_change_with_denominators():
    g = algebra_a_with_denominators()
    nil = g.nilradical()
    series = g.lower_central_series(nil)
    center = g.center()
    assert (nil.dim, center.dim, [s.dim for s in series]) == (54, 4, [54, 36, 0])
    text = json.dumps([_strs(nil.vectors, g.dim), _strs(center.vectors, g.dim),
                       [_strs(s.vectors, g.dim) for s in series]])
    assert _sha(text) == "cb515ceb33230009ed388e8029933df2c1ac3fff1d036536d8485cc6befec02b"


# the transvections of benchmark panel copy 2 of the n=7, k=8 quadric:
# ["z", i, j, re, im] is z -> P z with P = I + (re + im i) E_ij, each
# component A becoming P* A P; ["t", a, b, c] is A_a += c A_b
QUADRIC_COPY_MOVES = [["z", 0, 6, 0, -1], ["z", 1, 4, -1, -1],
                      ["t", 7, 2, 1], ["t", 3, 4, -1]]


def test_levi_vectors_of_a_transvected_counterexample_prolongation():
    # on this copy the Levi correction runs through 3 stages of the
    # derived series of the radical
    form = corpus.counterexample_quadric().payload
    n = form.n
    comps = list(form.components)
    for move in QUADRIC_COPY_MOVES:
        if move[0] == "z":
            _, i, j, re, im = move
            p = ExactMatrix.identity(n)
            p.entries[i * n + j] = GaussRational(re, im)
            comps = [p.conj_transpose() * m * p for m in comps]
        else:
            _, a, b, c = move
            comps[a] = comps[a] + comps[b].scale(c)
    g = prolong(HermitianFormSystem(n, form.k, comps).build_m_minus()).algebra
    digest, e_s = _levi_strings(g)
    assert digest == "87c9ef6e160107ff8ed6c137ff2adc60a832c96dbfa98d04891b50b6217cd37b"
    assert len(e_s) == 76
    assert {i: x for i, x in enumerate(e_s) if x != "0"} == {
        23: "-1", 27: "-1", 29: "-2", 32: "2", 35: "-2", 41: "1", 44: "2", 49: "-2"}


def test_heisenberg_9_prolongation_and_levi_bytes():
    # the first rung of the heisenberg scale ladder: n = 9 with half-plus
    # signature (five +1 then four -1), dim 120, simple, E in the Levi factor
    n = 9
    signature = (1,) * ((n + 1) // 2) + (-1,) * (n // 2)
    result = prolong(corpus.heisenberg(n, signature).payload.build_m_minus())
    assert _sha(json.dumps(result.to_json(), sort_keys=True)) == \
        "d81a32aa35f32bdb2787ba1e3e8ccd69a10b4f9510a83cc6a622bf340c6be287"
    g = result.algebra
    dec = g.levi_decomposition()
    assert (dec.s.dim, dec.r.dim, dec.E_r) == (120, 0, {})
    assert _sha(json.dumps([dec.s.dim, dec.r.dim, _strs([dec.E_s, dec.E_r], g.dim)])) == \
        "6e223795b1f4e5c6c9b753ec72104cb5f43e2551a6a74f40c0f7c65527432645"


# two more transvected copies of the n=7, k=8 quadric: other layer
# systems, with other coefficients, than in the corpus coordinates
@pytest.mark.parametrize("moves, analyze_digest, prolong_digest", [
    ([["z", 1, 5, 1, -1], ["z", 6, 0, 0, 1], ["t", 3, 1, 1], ["t", 5, 7, -1]],
     "1c0f7c03fc26b4275dc2f677da0c032573545a7caa7afc50de817d75789d3f11",
     "67d1a3b432697d65334b23253db4bf9096e3163bb2026eb8c0a754764330fda6"),
    ([["z", 2, 4, -1, 1], ["z", 4, 3, 1, 0], ["t", 0, 2, -1], ["t", 6, 5, 1]],
     "df232806e97f458048d364a01ed521f1b29ae74707545f14adb021592623e7e3",
     "7f911cc76a514ba5b574a5f27a421dcdd26c12038f2da5f4a29622edc0e8bcae"),
], ids=["copy_a", "copy_b"])
def test_transvected_counterexample_report_bytes(capsys, tmp_path, moves,
                                                 analyze_digest, prolong_digest):
    form = transvected_counterexample(moves)
    code, out = _cli_bytes(capsys, tmp_path, form.dump, "analyze-quadric")
    assert (code, _sha(out)) == (0, analyze_digest)
    code, out = _cli_bytes(capsys, tmp_path, form.build_m_minus().dump, "prolong")
    assert (code, _sha(out)) == (0, prolong_digest)


# the forms themselves: P* A P over Gaussian integers, through ExactMatrix
# products, for the two copies above
@pytest.mark.parametrize("moves, digest", [
    ([["z", 1, 5, 1, -1], ["z", 6, 0, 0, 1], ["t", 3, 1, 1], ["t", 5, 7, -1]],
     "d93c89435aa3963edf7a0e8cebc340c1a2b6e45b052c193935d57a1cc4f810a6"),
    ([["z", 2, 4, -1, 1], ["z", 4, 3, 1, 0], ["t", 0, 2, -1], ["t", 6, 5, 1]],
     "15cd389beb1f92fd8228a13f16b389662198a7704e021d6b1dfa6f796678b6c7"),
], ids=["copy_a", "copy_b"])
def test_transvected_counterexample_form_bytes(moves, digest):
    form = transvected_counterexample(moves)
    assert _sha(json.dumps(form.to_json(), sort_keys=True)) == digest
