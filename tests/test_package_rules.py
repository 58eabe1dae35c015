"""Six rules every source file of ``src/levitanaka`` keeps.

- No bare ``assert``: ``python -O`` strips it, and a certificate must
  raise a domain error instead.
- No ``/`` outside ``scalars.ratio``: int / int is a float in Python, and
  ``ratio`` is the one exact division.
- A report check {"name", "status", "witness"} is built by
  ``errors.check`` alone; a dict display with a "witness" key elsewhere
  is a second form.
- ``InternalConsistencyError`` is raised by ``errors.certify`` alone; a
  raise of it anywhere else is a second form.
- ``row_echelon`` is called by ``elimination.kernel_basis`` alone:
  ``solve`` and ``rank`` read the kernel, so a batch system has one
  reduction path.
- J's matrix is read (``row``, ``col`` or ``entry`` called on a ``J``)
  by ``GradedLieAlgebra.j_columns`` alone: every other reader takes J's
  columns as algebra vectors from it.  Serialization's read of
  ``J.entries`` and the constructor's shape check call none of them.

The last five walk each file's syntax tree once per rule, skipping the
one top-level function, or the one method written ``Class.method``, that
the rule allows.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "levitanaka").rglob("*.py"))


def _offences(breaks, module, helper):
    """path:line of every node for which ``breaks`` holds, outside the
    top-level function ``helper`` of the source file named ``module``, or
    its method ``helper`` when that is written ``Class.method``."""
    assert SOURCES
    bad = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == module:
            *owner, name = helper.split(".")
            scopes = [n for n in tree.body if isinstance(n, ast.ClassDef)
                      and [n.name] == owner] if owner else [tree]
            for node in (n for scope in scopes for n in scope.body):
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    allowed = {id(n) for n in ast.walk(node)}
        bad += [f"{path.relative_to(ROOT)}:{n.lineno}" for n in ast.walk(tree)
                if id(n) not in allowed and breaks(n)]
    return bad


def test_no_bare_assert():
    assert SOURCES
    pattern = re.compile(r"^\s*assert\b|raise AssertionError")
    bad = [f"{path.relative_to(ROOT)}:{k}" for path in SOURCES
           for k, line in enumerate(path.read_text().splitlines(), 1)
           if pattern.search(line)]
    assert bad == []


def test_no_division_outside_scalars_ratio():
    def divides(n):
        return isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)

    assert _offences(divides, "scalars.py", "ratio") == []


def test_report_checks_are_built_by_errors_check_alone():
    def check_display(n):
        return isinstance(n, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value == "witness" for k in n.keys)

    assert _offences(check_display, "errors.py", "check") == []


def test_internal_consistency_error_is_raised_by_errors_certify_alone():
    def raises_it(n):
        return isinstance(n, ast.Raise) and n.exc is not None and any(
            getattr(m, "id", getattr(m, "attr", None)) == "InternalConsistencyError"
            for m in ast.walk(n.exc))

    assert _offences(raises_it, "errors.py", "certify") == []


def test_row_echelon_is_called_by_kernel_basis_alone():
    def calls_it(n):
        return isinstance(n, ast.Call) and \
            getattr(n.func, "id", getattr(n.func, "attr", None)) == "row_echelon"

    assert _offences(calls_it, "elimination.py", "kernel_basis") == []


def test_J_matrix_is_read_by_j_columns_alone():
    def reads_j(n):
        return isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and \
            n.func.attr in ("row", "col", "entry") and \
            getattr(n.func.value, "attr", getattr(n.func.value, "id", None)) == "J"

    assert _offences(reads_j, "graded.py", "GradedLieAlgebra.j_columns") == []
