import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import levitanaka
from levitanaka.cli import main
from levitanaka.corpus import counterexample_quadric
from levitanaka.quadric import diagonal_form

from test_prolongation import heisenberg_3_with_j, incompatible_j


@pytest.fixture()
def heisenberg_file(tmp_path):
    path = tmp_path / "heisenberg.json"
    diagonal_form([1]).dump(path)
    return str(path)


@pytest.fixture()
def degenerate_file(tmp_path):
    path = tmp_path / "degenerate.json"
    diagonal_form([1, 0, 1]).dump(path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_quadric_heisenberg(capsys, heisenberg_file):
    code, out = run_cli(capsys, "analyze-quadric", heisenberg_file)
    assert code == 0
    report = json.loads(out)
    assert report["degree_dims"] == [[-2, 1], [-1, 2], [0, 2], [1, 2], [2, 1]]
    assert report["verdicts"]["grading_element_in_levi"] is True
    assert report["verdicts"]["radical_dim"] == 0
    names = {c["name"]: c["status"] for c in report["checks"]}
    assert names["nondegenerate"] == "pass"
    assert names["fundamental"] == "pass"
    assert names["transitivity"] == "pass"


def test_analyze_quadric_failed_transitivity(capsys, tmp_path, degree_1_unfaithful):
    path = tmp_path / "heisenberg_pm.json"
    diagonal_form([1, -1]).dump(path)
    code, out = run_cli(capsys, "analyze-quadric", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["checks"][-1] == {"name": "transitivity", "status": "fail",
                                    "witness": 1}
    assert [c["status"] for c in report["checks"][:-1]] == ["pass"] * 3
    # a failed transitivity check still writes the verdicts
    assert report["verdicts"] == {"grading_element_in_levi": True,
                                  "levi_dim": 15, "radical_dim": 0}


def test_analyze_quadric_degenerate_witness(capsys, degenerate_file):
    code, out = run_cli(capsys, "analyze-quadric", degenerate_file)
    assert code == 1
    report = json.loads(out)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed[0]["name"] == "nondegenerate"
    assert failed[0]["witness"]  # concrete kernel vector


def test_analyze_quadric_malformed(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze-quadric", str(path)]) == 2
    path2 = tmp_path / "missing.json"
    assert main(["analyze-quadric", str(path2)]) == 2
    path.write_text(json.dumps(
        {"n": 1, "k": 1, "components": [[{"re": "1/0", "im": "0"}]]}))
    assert main(["analyze-quadric", str(path)]) == 2
    diagonal_form([1]).dump(path)
    assert main(["analyze-quadric", str(path), "--max-degree", "-1"]) == 2


def test_prolong_roundtrip(capsys, tmp_path, heisenberg_file):
    m = diagonal_form([1]).build_m_minus()
    path = tmp_path / "m.json"
    m.dump(path)
    code, out = run_cli(capsys, "prolong", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["degree_dims"] == [[-2, 1], [-1, 2], [0, 2], [1, 2], [2, 1]]
    assert report["algebra"]["basis"][:3] == ["e1", "Je1", "t1"]


def test_prolong_input_errors(capsys, tmp_path):
    m = diagonal_form([1]).build_m_minus().to_json()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m))
    assert main(["prolong", str(path), "--max-degree", "-1"]) == 2
    m["brackets"][0][3] = "1/0"
    path.write_text(json.dumps(m))
    assert main(["prolong", str(path)]) == 2
    # bracket indices outside the 3-dim basis
    for entry in ([0, 7, 2, "1"], [0, 1, 3, "1"], [-1, 1, 2, "1"]):
        m["brackets"] = [entry]
        path.write_text(json.dumps(m))
        assert main(["prolong", str(path)]) == 2
        assert "outside the basis" in capsys.readouterr().err
    # -1.0 passes {-1.0, -2} <= {-1, -2}, but a degree must be an int
    for degree in (-1.0, True):
        m = diagonal_form([1]).build_m_minus().to_json()
        m["degrees"][0] = degree
        path.write_text(json.dumps(m))
        assert main(["prolong", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is not an integer" in err and "Traceback" not in err
    # a 2x2 J on the 4-dim degree -1 block is malformed input, not a domain failure
    m = diagonal_form([1, 1]).build_m_minus().to_json()
    m["J"] = {"rows": 2, "entries": ["0", "-1", "1", "0"]}
    path.write_text(json.dumps(m))
    assert main(["prolong", str(path)]) == 2
    err = capsys.readouterr().err
    assert "degree -1 block has dim 4" in err and "Traceback" not in err
    # a second value for one (i, j, k) is an input error, not a silent overwrite
    m = diagonal_form([1]).build_m_minus().to_json()
    m["brackets"].append([0, 1, 2, "5"])
    path.write_text(json.dumps(m))
    assert main(["prolong", str(path)]) == 2
    err = capsys.readouterr().err
    assert "duplicate bracket entry (0,1,2)" in err and "Traceback" not in err


def test_classify_e6(capsys, tmp_path):
    path = tmp_path / "factors.json"
    path.write_text(json.dumps({
        "factors": [{"family": "E6", "rank": 6, "form": "E II",
                     "phi": ["a1"]}],
        "semisimple": True,
    }))
    code, out = run_cli(capsys, "classify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"tilde_s": True, "s_sufficient": True}
    row = report["checks"][0]
    assert row["kind"] == 2 and row["w0_reverses_E"] is True
    assert row["gamma_case"] == "BOTH"


def test_classify_kind1_only_rejected(capsys, tmp_path):
    path = tmp_path / "factors.json"
    path.write_text(json.dumps([
        {"family": "A", "rank": 5, "form": "COMPLEX", "phi": ["a3"]},
    ]))
    assert main(["classify", str(path)]) == 2


def test_classify_kind3_factor_rejected(capsys, tmp_path):
    # an admissible factor of kind 3 describes no Levi factor of a quadric algebra
    path = tmp_path / "factors.json"
    path.write_text(json.dumps([
        {"family": "D", "rank": 4, "form": "COMPLEX", "phi": ["a1", "a2'"]},
    ]))
    code = main(["classify", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith("has kind 3; only kinds 1 and 2 describe Levi factors "
                        "of quadric algebras\n")


@pytest.mark.parametrize("blob, message", [
    ({}, "field 'factors' is missing"),
    ({"factors": 5}, "field 'factors' must be a list"),
    ({"factors": {"a": 1}}, "field 'factors' must be a list"),
    (None, "expected a JSON object holding field 'factors'"),
    (5, "expected a JSON object holding field 'factors'"),
])
def test_classify_factors_field_is_named(capsys, tmp_path, blob, message):
    path = tmp_path / "factors.json"
    path.write_text(json.dumps(blob))
    code = main(["classify", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_classify_empty_semisimple_list_rejected(capsys, tmp_path):
    # the semisimple path rejects a list without a kind-2 factor, with the
    # same stderr line as the general path
    errs = []
    for semisimple in (True, False):
        path = tmp_path / f"factors_{semisimple}.json"
        path.write_text(json.dumps({"factors": [], "semisimple": semisimple}))
        code = main(["classify", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        errs.append(err)
    assert errs == ["input error: a Levi factor must contain a kind-2 ideal\n"] * 2


def test_classify_mixed_list(capsys, tmp_path):
    path = tmp_path / "factors.json"
    path.write_text(json.dumps({
        "factors": [
            {"family": "D", "rank": 4, "form": "COMPLEX", "phi": ["a3", "a4'"]},
            {"family": "A", "rank": 1, "form": "COMPLEX", "phi": ["a1"]},
        ],
        "e_r_is_zero": True,
    }))
    code, out = run_cli(capsys, "classify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["tilde_s"] is True
    assert report["verdicts"]["s_sufficient"] is False


def test_classify_inadmissible_factor(capsys, tmp_path):
    path = tmp_path / "factors.json"
    path.write_text(json.dumps([
        {"family": "A", "rank": 5, "form": "A III", "phi": ["a3"],
         "p": 2, "q": 4},
    ]))
    code, out = run_cli(capsys, "classify", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["tilde_s"] is False


A_III_FACTOR = {"family": "A", "rank": 5, "form": "A III", "phi": ["a2"],
                "p": 2, "q": 4}


@pytest.mark.parametrize("field", ["semisimple", "e_r_is_zero"])
@pytest.mark.parametrize("value", ["false", 0, None])
def test_classify_flags_must_be_booleans(capsys, tmp_path, field, value):
    # bool("false") is True: a non-boolean flag is an input error
    path = tmp_path / "factors.json"
    path.write_text(json.dumps({"factors": [A_III_FACTOR], field: value}))
    code = main(["classify", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"field {field!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("change, field", [
    ({"form": None}, "form"),
    ({"rank": 5.0}, "rank"),
    ({"rank": True}, "rank"),
    ({"phi": "a2"}, "phi"),
    ({"family": "D", "rank": 4, "form": "D Ib", "phi": ["a1"], "p": 1, "q": 9}, "p"),
    ({"form": "COMPLEX", "p": None}, "q"),
])
def test_classify_factor_schema_names_the_field(capsys, tmp_path, change, field):
    factor = {k: v for k, v in {**A_III_FACTOR, **change}.items()
              if v is not None}
    path = tmp_path / "factors.json"
    path.write_text(json.dumps([factor]))
    code = main(["classify", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"field {field!r}" in err and "Traceback" not in err


def test_classify_rank_is_bounded(capsys, tmp_path):
    from levitanaka.classify import MAX_FILE_RANK
    from levitanaka.rootdata import root_system

    assert MAX_FILE_RANK == 64
    path = tmp_path / "factors.json"
    for factor in ({"family": "A", "rank": 65, "form": "COMPLEX", "phi": ["a1"]},
                   {"family": "D", "rank": 65, "form": "D IIIb", "phi": ["a1"]}):
        path.write_text(json.dumps([factor]))
        builds = root_system.cache_info().misses
        code = main(["classify", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "field 'rank' is 65" in err and "Traceback" not in err
        # refused before any root system is built
        assert root_system.cache_info().misses == builds
    path.write_text(json.dumps([{"family": "A", "rank": 64, "form": "A IV",
                                 "p": 1, "q": 64, "phi": ["a1"]}]))
    code, out = run_cli(capsys, "classify", str(path))
    assert code == 0
    row = json.loads(out)["checks"][0]
    assert row["admissible"] and row["kind"] == 2 and row["w0_reverses_E"]


def test_tables_rank4(capsys):
    code, out = run_cli(capsys, "tables", "--max-rank", "4")
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["status"] == "pass"
    assert report["table"]["kind_2"]


def test_tables_usage_error(capsys):
    assert main(["tables", "--max-rank", "3"]) == 2


def test_tables_refuses_a_rank_above_the_bound(capsys, monkeypatch):
    # the bound is classify.MAX_FILE_RANK = 64; rank 65 starts no work
    from levitanaka import classify

    def no_work(max_rank):
        raise AssertionError(f"tables started on rank {max_rank}")

    # cmd_tables imports regenerate_tables when it runs, from classify
    monkeypatch.setattr(classify, "regenerate_tables", no_work)
    assert main(["tables", "--max-rank", "65"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "--max-rank" in err and "64" in err
    assert "Traceback" not in err


def test_analyze_quadric_loads_no_classification_code(tmp_path):
    # analyze-quadric runs no root system, classification or corpus code,
    # and a fresh interpreter that runs it must not import that code either
    path = tmp_path / "counterexample.json"
    counterexample_quadric().payload.dump(path)
    script = ("import sys\n"
              "from levitanaka import cli\n"
              f"code = cli.main(['analyze-quadric', {str(path)!r}, '--out', "
              f"{str(tmp_path / 'report.json')!r}])\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('levitanaka.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    code, *loaded = proc.stdout.decode().split()
    assert code == "0"
    assert "levitanaka.prolongation" in loaded
    for name in ("classify", "rootdata", "corpus", "involution"):
        assert f"levitanaka.{name}" not in loaded


def test_prolongation_failure_reports_alike(capsys, tmp_path, heisenberg_file):
    m_path = tmp_path / "m.json"
    diagonal_form([1]).build_m_minus().dump(m_path)
    failed = {"name": "prolongation", "status": "fail",
              "witness": "prolongation not terminated: dim g_1 = 2"}
    for argv, passed in ((["analyze-quadric", heisenberg_file],
                          ["nondegenerate", "fundamental"]),
                         (["prolong", str(m_path)], [])):
        code, out = run_cli(capsys, *argv, "--max-degree", "1")
        report = json.loads(out)
        assert code == 1
        assert report["checks"] == [{"name": n, "status": "pass", "witness": None}
                                    for n in passed] + [failed]
        assert report["degree_dims"] is None and report["verdicts"] is None


@pytest.mark.parametrize("build, witness", [
    (lambda: heisenberg_3_with_j([[1, 0], [0, 1]]),
     "input fails validation: {'check': 'J_square', "
     "'detail': 'J^2 != -Id on the degree -1 block'}"),
    (incompatible_j, "J is not bracket-compatible"),
], ids=["J_square", "incompatible_J"])
def test_prolong_J_failures_exit_1_with_witness(capsys, tmp_path, build, witness):
    path = tmp_path / "m.json"
    build().dump(path)
    code, out = run_cli(capsys, "prolong", str(path))
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "prolongation", "status": "fail", "witness": witness}]


def test_analyze_quadric_without_components_is_linear_in_n(capsys, tmp_path):
    # k = 0: all of C^n is the kernel and the witness is e_1, built alone;
    # the whole basis would be n^2 = 2,560,000 entries
    n = 1600
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": n, "k": 0, "components": []}))
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "analyze-quadric", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "nondegenerate", "status": "fail", "witness": ["1"] + ["0"] * (n - 1)}]
    assert peak < 10 * 2 ** 20


def test_corpus_single_entry(capsys):
    code, out = run_cli(capsys, "corpus", "--only", "heisenberg_1_p")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["all_pass"] is True
    assert report["checks"][0]["entry"] == "heisenberg_1_p"


def test_corpus_unknown_entry(capsys):
    assert main(["corpus", "--only", "nonsense"]) == 2


def test_corpus_empty_entry_name_is_unknown(capsys):
    # an empty name names no entry; it must not run the whole corpus
    assert main(["corpus", "--only", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown corpus entry ''" in captured.err


def test_reports_deterministic(capsys, heisenberg_file):
    _, out1 = run_cli(capsys, "analyze-quadric", heisenberg_file)
    _, out2 = run_cli(capsys, "analyze-quadric", heisenberg_file)
    assert out1 == out2
    _, t1 = run_cli(capsys, "tables", "--max-rank", "4")
    _, t2 = run_cli(capsys, "tables", "--max-rank", "4")
    assert t1 == t2


def test_out_flag_writes_file(tmp_path, capsys, heisenberg_file):
    target = tmp_path / "report.json"
    code = main(["analyze-quadric", heisenberg_file, "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["command"] == "analyze-quadric"


def test_pretty_flag(capsys, heisenberg_file):
    code, out = run_cli(capsys, "analyze-quadric", heisenberg_file, "--pretty")
    assert code == 0
    assert out.startswith("{\n")
    json.loads(out)


def test_counterexample_form_serializes_for_cli(tmp_path, capsys):
    path = tmp_path / "counterexample.json"
    counterexample_quadric().payload.dump(path)
    # just the fast checks: the file parses and the form is regular
    blob = json.loads(path.read_text())
    assert blob["n"] == 7 and blob["k"] == 8


def test_analyze_quadric_counterexample_full_run(tmp_path, capsys):
    path = tmp_path / "counterexample.json"
    counterexample_quadric().payload.dump(path)
    code, out = run_cli(capsys, "analyze-quadric", str(path))
    assert code == 0
    report = json.loads(out)
    dims = dict(map(tuple, report["degree_dims"]))
    assert dims[-1] == 14 and dims[-2] == 8
    assert dims[1] >= 16 and dims[2] >= 10
    # the grading element does not sit inside the Levi factor here
    assert report["verdicts"]["grading_element_in_levi"] is False
    assert report["verdicts"]["radical_dim"] == 54


def test_corpus_deep_tier_single_entry(capsys):
    code, out = run_cli(capsys, "corpus", "--run-all", "--only", "heisenberg_1_p")
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"][0]["checks"]}
    assert "prolong_dims" in names and "transitivity" in names
    assert report["verdicts"]["all_pass"] is True


def test_failed_certificate_exits_3(capsys, tmp_path, monkeypatch):
    from levitanaka import cli
    from levitanaka.errors import InternalConsistencyError

    def broken(*args, **kwargs):
        raise InternalConsistencyError("subspace is not graded")

    monkeypatch.setattr(cli, "prolong", broken)
    path = tmp_path / "m.json"
    diagonal_form([1]).build_m_minus().dump(path)
    assert main(["prolong", str(path)]) == 3
    assert "subspace is not graded" in capsys.readouterr().err


@pytest.mark.parametrize("name, data, message", [
    ("DegenerateFormError", {"witness": ["1", "0"]},
     "degenerate hermitian form, kernel witness ['1', '0']"),
    ("NotFundamentalError", {"relation": ["-1", "1"]},
     "form is not fundamental, dependent combination ['-1', '1']"),
    ("CapReachedError", {"degree": 3, "dim": 5},
     "prolongation not terminated: dim g_3 = 5"),
    ("NotUniqueCharacteristicElementError", {"ambiguity_dim": 2},
     "grading element determined only up to a 2-dim center"),
])
def test_data_carrying_errors_survive_copy_and_pickle(name, data, message):
    # messages surface as report witnesses and on stderr, so a copy (the
    # cached grading-element error is raised as one) must keep every byte
    import copy
    import pickle

    from levitanaka import errors

    exc = getattr(errors, name)(*data.values())
    for twin in (exc, copy.copy(exc), pickle.loads(pickle.dumps(exc))):
        assert type(twin) is type(exc)
        assert str(twin) == message
        assert {key: getattr(twin, key) for key in data} == data


def test_unexpected_exception_exits_3_without_traceback(capsys, tmp_path, monkeypatch):
    from levitanaka import cli

    def broken(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "prolong", broken)
    path = tmp_path / "m.json"
    diagonal_form([1]).build_m_minus().dump(path)
    assert main(["prolong", str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "internal error: ZeroDivisionError: division by zero\n"


@pytest.mark.parametrize("command, change, field", [
    ("prolong", lambda obj: obj["brackets"].__setitem__(0, [0, 1]), "'brackets' entry 0"),
    ("prolong", lambda obj: obj.pop("brackets"), "'brackets' is missing"),
    ("analyze-quadric", lambda obj: obj.pop("components"), "'components' is missing"),
    ("analyze-quadric", lambda obj: obj["components"][0].__setitem__(0, "1"),
     "'components' matrix 0"),
    # JSON floats and booleans are no rationals, and basis names are strings
    pytest.param("prolong", lambda obj: obj["brackets"][0].__setitem__(3, 0.1),
                 "'brackets' entry 0", id="prolong-float-coefficient"),
    pytest.param("analyze-quadric",
                 lambda obj: obj["components"][0][0].__setitem__("im", 0.5),
                 "'components' matrix 0", id="analyze-quadric-float-part"),
    pytest.param("prolong", lambda obj: obj["J"]["entries"].__setitem__(0, True),
                 "'J' entries", id="prolong-boolean-J-entry"),
    pytest.param("prolong", lambda obj: obj.__setitem__("basis", [[1], {}, None]),
                 "'basis'", id="prolong-non-string-names"),
    # degrees, J's shape and repeated names are named here, not by the constructor
    pytest.param("prolong", lambda obj: obj["degrees"].__setitem__(0, "a"),
                 "'degrees'", id="prolong-string-degree"),
    pytest.param("prolong", lambda obj: obj["degrees"].pop(),
                 "'degrees'", id="prolong-degree-missing-for-a-name"),
    pytest.param("prolong", lambda obj: obj["J"].__setitem__("rows", -1),
                 "'J'", id="prolong-negative-J-rows"),
    pytest.param("prolong", lambda obj: obj["J"].__setitem__("rows", 3),
                 "'J'", id="prolong-J-rows-off-shape"),
    pytest.param("prolong", lambda obj: obj["basis"].__setitem__(1, obj["basis"][0]),
                 "'basis'", id="prolong-repeated-names"),
])
def test_schema_errors_name_the_field(capsys, tmp_path, command, change, field):
    form = diagonal_form([1])
    obj = form.to_json() if command == "analyze-quadric" else form.build_m_minus().to_json()
    change(obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("input error: field " + field) and "Traceback" not in err
    assert err.count("\n") == 1


# -- the process entry: python -m levitanaka.cli and the console script ------

SRC = os.path.dirname(os.path.dirname(levitanaka.__file__))
# a certificate that fails inside prolong, for exit code 3
FAIL_PROLONG = ("import levitanaka.prolongation as p\n"
                "from levitanaka.errors import InternalConsistencyError\n"
                "def broken(*args, **kwargs):\n"
                "    raise InternalConsistencyError('forced failure')\n"
                "p.prolong = broken\n")


def _entry_point():
    """(module, function) of the console script in pyproject.toml."""
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml")) as fh:
        match = re.search(r'^levitanaka = "([\w.]+):(\w+)"$', fh.read(), re.M)
    return match.groups()


def _process(how, argv, prelude="", stdout=subprocess.PIPE):
    """Run the CLI in a fresh interpreter, as ``python -m`` or the console script.

    The console script is the wrapper pip writes: import the entry point
    and ``sys.exit`` with its value.  With a prelude, ``python -m`` is
    replayed through ``runpy``, which is what ``-m`` runs.  Output is block
    buffered, as it is for users, not forced unbuffered.
    """
    if how == "module" and not prelude:
        cmd = [sys.executable, "-m", "levitanaka.cli", *argv]
    elif how == "module":
        cmd = [sys.executable, "-c", prelude + "import runpy\n"
               "runpy.run_module('levitanaka.cli', run_name='__main__', alter_sys=True)\n",
               *argv]
    else:
        module, func = _entry_point()
        cmd = [sys.executable, "-c", prelude + f"import sys\nfrom {module} import {func}\n"
               f"sys.argv[0] = 'levitanaka'\nsys.exit({func}())\n", *argv]
    return subprocess.run(cmd, env=_env(), stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120)


def _env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return env


@pytest.mark.parametrize("case", ["ok", "degenerate", "missing", "certificate"])
def test_main_module_and_console_script_agree(capsys, tmp_path, monkeypatch, case):
    path = tmp_path / "form.json"
    (diagonal_form([1, 0, 1]) if case == "degenerate" else diagonal_form([1, -1])).dump(path)
    argv = ["analyze-quadric", str(tmp_path / "absent.json") if case == "missing" else str(path)]
    prelude = ""
    if case == "certificate":
        from levitanaka import cli
        from levitanaka.errors import InternalConsistencyError

        def broken(*args, **kwargs):
            raise InternalConsistencyError("forced failure")

        monkeypatch.setattr(cli, "prolong", broken)
        prelude = FAIL_PROLONG
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == {"ok": 0, "degenerate": 1, "missing": 2, "certificate": 3}[case]
    for how in ("module", "script"):
        proc = _process(how, argv, prelude)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == \
            (code, out, err), how


def test_large_report_arrives_complete_through_a_pipe(capsys):
    # the process exits without heap teardown; what main wrote must be flushed
    assert main(["tables", "--max-rank", "8"]) == 0
    out = capsys.readouterr().out
    assert len(out) > 60000
    for how in ("module", "script"):
        proc = _process(how, ["tables", "--max-rank", "8"])
        assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (0, out, b""), how


def test_reader_closing_early_causes_no_hang_and_no_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "levitanaka.cli", "tables"],
                            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the report is written
    proc.stdout = None
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in err.decode() and err.count(b"\n") == 1
    # the reader's failure, named as such: not an internal error
    assert err == b"output error: Broken pipe\n"


def test_unwritable_out_path_is_an_output_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    assert main(["tables", "--max-rank", "4", "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert err == f"output error: No such file or directory: {target}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_flush_exits_nonzero_with_one_line(tmp_path):
    # a small report sits in the stdout buffer until the exit flushes it;
    # on a full device that flush fails, which must not end in exit 0
    path = tmp_path / "form.json"
    diagonal_form([1, -1]).dump(path)
    for how in ("module", "script"):
        with open("/dev/full", "w") as full:
            proc = _process(how, ["analyze-quadric", str(path)], stdout=full)
        err = proc.stderr.decode()
        assert proc.returncode == 3, how
        assert err == "output error: No space left on device\n", how
