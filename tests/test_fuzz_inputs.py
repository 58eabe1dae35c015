"""Mutated input files for the file commands keep the exit-code contract.

Valid ``analyze-quadric``, ``prolong`` and ``classify`` inputs have
fields dropped or retyped, and odd rational strings put where a
coefficient stands.  Whatever comes in, the command exits 0, 1, 2 or 3,
stderr holds no traceback, an input error is one ``input error:`` line
with no report, and a report that is written is JSON.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levitanaka.cli import main
from levitanaka.quadric import diagonal_form

# strings Fraction() may or may not read; each must give a value or exit 2
ODD_RATIONALS = ["+3", " 3 ", "1_0", "--5", "-", "", "٣", "1/0", "3/-4",
                 "1e3", "0x10", "½", "-0", "007", "9" * 40, "1/2/3", "nan"]
ODD_VALUES = [None, True, False, 0, -1, 2, 7, 1.5, "x", [], {}, [0],
              {"re": "1"}, [0, 1, 2, "1"]]

VALID = {
    "analyze-quadric": diagonal_form([1, -1]).to_json(),
    "prolong": diagonal_form([1, -1]).build_m_minus().to_json(),
    "classify": {"factors": [
        {"family": "A", "rank": 5, "form": "A III", "phi": ["a2"], "p": 2, "q": 4},
        {"family": "D", "rank": 4, "form": "COMPLEX", "phi": ["a3", "a4'"]},
    ], "e_r_is_zero": True},
}


def _paths(obj, path=()):
    """Every path to a value inside obj (the root excluded)."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _parent(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw, command):
    obj = copy.deepcopy(VALID[command])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        if not paths:
            break
        how = draw(st.sampled_from(["drop", "retype", "rational"]))
        if how == "rational":
            # a coefficient field, or any other string, gets an odd rational
            strings = [p for p in paths if isinstance(_parent(obj, p)[p[-1]], str)]
            paths = strings or paths
        path = draw(st.sampled_from(paths))
        parent = _parent(obj, path)
        if how == "drop":
            del parent[path[-1]]
        elif how == "retype":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        else:
            parent[path[-1]] = draw(st.sampled_from(ODD_RATIONALS) | st.text(max_size=4))
    return obj


def _run(command, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, path])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(VALID))
def test_valid_inputs_run(command):
    code, out, err = _run(command, VALID[command])
    assert (code, err) == (0, "")
    assert json.loads(out)["command"] == command


@pytest.mark.parametrize("command", sorted(VALID))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_keep_the_exit_code_contract(command, data):
    obj = data.draw(mutated(command))
    code, out, err = _run(command, obj)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("input error: ") and err.count("\n") == 1
    elif code == 3:
        assert err.count("\n") == 1
    else:
        assert json.loads(out)["command"] == command
