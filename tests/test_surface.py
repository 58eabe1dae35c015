"""The library keeps only the functions something reaches.

A function in ``src/levitanaka`` stays when the CLI or the corpus reaches
it (a reference from the package itself), when ``perfbench/`` calls or
wraps it, or when ``tests/test_golden.py`` or ``tests/test_acceptance.py``
pins it.  The scan is by name: a function counts as reached when its name
is referenced, as a name, an attribute, an imported name or a dotted
string such as the tracer's ``"HermitianFormSystem.joint_kernel"``,
anywhere in those files outside its own definition: a recursive call or
a local variable of the same name does not keep a function alive.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "levitanaka").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_golden.py", ROOT / "tests" / "test_acceptance.py"]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _referenced_names():
    names = set()

    def visit(node, enclosing):
        # enclosing: the names of the functions whose definitions hold node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        found = ()
        if isinstance(node, ast.Name):
            found = (node.id,)
        elif isinstance(node, ast.Attribute):
            found = (node.attr,)
        elif isinstance(node, ast.alias):
            found = (node.name.rsplit(".", 1)[-1],)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            found = node.value.split(".")
        names.update(name for name in found if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in READERS:
        visit(ast.parse(path.read_text()), frozenset())
    return names


def test_every_function_is_reached():
    reached = _referenced_names()
    unreached = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")) \
                    and node.name not in reached:
                unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreached == []


def test_tracer_paths_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    paths = [(mod, path) for mod, path, _ in tracer.SPANNED] + list(tracer.ENTRIES)
    assert paths
    for mod, path in paths:
        owner = importlib.import_module(f"levitanaka.{mod}")
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (mod, path)
