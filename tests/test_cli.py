import json

import pytest

from levitanaka.cli import main
from levitanaka.corpus import counterexample_quadric
from levitanaka.quadric import diagonal_form


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


def test_tables_rank4(capsys):
    code, out = run_cli(capsys, "tables", "--max-rank", "4")
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["status"] == "pass"
    assert report["table"]["kind_2"]


def test_tables_usage_error(capsys):
    assert main(["tables", "--max-rank", "3"]) == 2


def test_corpus_single_entry(capsys):
    code, out = run_cli(capsys, "corpus", "--only", "heisenberg_1_p")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["all_pass"] is True
    assert report["checks"][0]["entry"] == "heisenberg_1_p"


def test_corpus_unknown_entry(capsys):
    assert main(["corpus", "--only", "nonsense"]) == 2


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
