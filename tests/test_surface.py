"""The library keeps only the functions something reaches.

A function in ``src/levitanaka`` stays when the CLI or the corpus reaches
it (a reference from the package itself), when ``perfbench/`` calls or
wraps it, or when ``tests/test_golden.py`` or ``tests/test_acceptance.py``
pins it.  The scan is by name: a function counts as reached when its name
is referenced, as a name, an attribute, an imported name or a dotted
string such as the tracer's ``"HermitianFormSystem.joint_kernel"``,
anywhere in those files outside its own definition: a recursive call or
a local variable of the same name does not keep a function alive.

A method whose name another package function shares, such as the
``dump`` of two classes, is not kept by its bare name, which the other
function answers too.  It counts as reached through a reference that
names its class: ``Class.name``, ``self.name`` or ``cls.name`` inside the
class, or a dotted string.  A method that readers only call on an
instance is listed in ``INSTANCE_CALLS``, with the reader that calls it.
"""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "levitanaka").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_golden.py", ROOT / "tests" / "test_acceptance.py"]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# a method whose name is shared, and one reader that calls it on an instance
INSTANCE_CALLS = {
    "FactorDescriptor.root_system": "src/levitanaka/involution.py",
    "CorpusEntry.to_json": "tests/test_golden.py",
    "ComplexAlgebraBuilder.add": "src/levitanaka/corpus.py",
    "Echelon.rank": "src/levitanaka/graded.py",
    "Echelon.reduce": "src/levitanaka/graded.py",
    "Echelon.contains": "src/levitanaka/graded.py",
    "Echelon.coords": "src/levitanaka/graded.py",
    "Subspace.reduce": "src/levitanaka/graded.py",
    "Subspace.contains": "src/levitanaka/graded.py",
    "ValidationReport.add": "src/levitanaka/graded.py",
    "GradedLieAlgebra.dump": "tests/test_golden.py",
    "ProlongationResult.to_json": "tests/test_golden.py",
    "HermitianFormSystem.dump": "tests/test_golden.py",
    "GaussRational.to_json": "src/levitanaka/quadric.py",
}


def _references(path):
    """(names, qualified) referenced in one file outside their own definitions.

    ``qualified`` holds the "Class.name" references: an attribute of a bare
    name, ``self``/``cls`` attributes resolved to the enclosing class, and
    each adjacent pair of a dotted string.
    """
    names = set()
    qualified = set()

    def visit(node, enclosing, cls, this):
        # enclosing: the functions whose definitions hold node, by bare
        # name and, for a method, also as "Class.name"; cls: the class whose
        # body holds node; this: the class of the method that holds node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name, f"{cls}.{node.name}"}
            cls, this = None, cls or this
        elif isinstance(node, ast.ClassDef):
            cls = node.name
        found = ()
        owned = ()
        if isinstance(node, ast.Name):
            found = (node.id,)
        elif isinstance(node, ast.Attribute):
            found = (node.attr,)
            if isinstance(node.value, ast.Name):
                owner = node.value.id
                if owner in ("self", "cls") and this:
                    owner = this
                owned = (f"{owner}.{node.attr}",)
        elif isinstance(node, ast.alias):
            found = (node.name.rsplit(".", 1)[-1],)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            found = node.value.split(".")
            owned = [f"{a}.{b}" for a, b in zip(found, found[1:])]
        names.update(name for name in found if name not in enclosing)
        qualified.update(name for name in owned if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, cls, this)

    visit(ast.parse(path.read_text()), frozenset(), None, None)
    return names, qualified


def _package_functions():
    """(path, line, class or None, name) of every function of the package."""
    out = []

    def visit(node, path, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((path, child.lineno, cls, child.name))
            visit(child, path, child.name if isinstance(child, ast.ClassDef) else None)

    for path in PACKAGE:
        visit(ast.parse(path.read_text()), path, None)
    return out


def test_every_function_is_reached():
    names = set()
    qualified = set()
    for path in READERS:
        found, owned = _references(path)
        names |= found
        qualified |= owned
    functions = _package_functions()
    shared = {name for name, count in Counter(f[3] for f in functions).items() if count > 1}
    unreached = []
    for path, line, cls, name in functions:
        if name.startswith("__") and name.endswith("__"):
            continue
        if cls and name in shared:
            reached = f"{cls}.{name}" in qualified or f"{cls}.{name}" in INSTANCE_CALLS
        else:
            reached = name in names
        if not reached:
            unreached.append(f"{path.name}:{line} {cls + '.' if cls else ''}{name}")
    assert unreached == []


def test_instance_calls_are_made_by_their_readers():
    functions = _package_functions()
    counts = Counter(name for _, _, _, name in functions)
    methods = {f"{cls}.{name}" for _, _, cls, name in functions if cls and counts[name] > 1}
    for method, reader in INSTANCE_CALLS.items():
        assert method in methods, method
        assert ROOT / reader in READERS, reader
        assert method.split(".")[1] in _references(ROOT / reader)[0], (method, reader)


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
