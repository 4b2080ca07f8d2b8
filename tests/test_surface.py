"""Every public name of the library has a reader outside the unit tests.

A reader is a command handler or another library function (code in `src/`
outside the name's own definition), a demo, a benchmark job or an
acceptance criterion.  A name that only unit tests read is deleted with its
tests, or moved into the test file that uses it as a reference oracle.

A reference must name the definition, not just share its name: a method is
read through an attribute access (`x.name`), and a module's function or class
through an expression ending in the module's name (`trigpoly.add`), an import
from that module, a bare name in the module itself, or a `module.name` string
in a benchmark file (the tracer's names of the functions it wraps).  So
`np.add.accumulate` does not read `trigpoly.add`, nor a parameter called
`matrix` a `matrix` method.

The other way round, every library name a demo reads exists, so a name deleted
while a demo still calls it fails here, without running the demo.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "loopsphere"
BENCH = sorted((ROOT / "bench").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
READERS = [*DEMOS, *BENCH, ROOT / "tests" / "test_acceptance.py"]


def _tail(node):
    """The last name of a dotted expression (`a.b.c` -> c), or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _references(tree):
    """(line, kind, qualifier, name) of the module's code.

    kind is "attr" for `qualifier.name` (qualifier the tail of the left-hand
    expression, or None), "import" for `from qualifier import name` and
    "name" for a bare name (qualifier None).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, "name", None, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, "attr", _tail(node.value), node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.lineno, "import", node.module.rsplit(".", 1)[-1], alias.name


def _public_definitions(tree):
    """(definition, class name or None) for the public top-level functions and
    classes and the public methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, None
            if isinstance(node, ast.ClassDef):
                yield from ((member, node.name) for member in node.body
                            if isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_"))


def _dotted_pairs(tree):
    """(a, b) for each `a.b` inside a dotted word of the module's string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in re.findall(r"\w+(?:\.\w+)+", node.value):
                parts = word.split(".")
                yield from zip(parts, parts[1:])


def _reads(module, node, is_method, kind, qualifier, name, own_file):
    """Whether one reference reads the public definition `node` of `module`."""
    if name != node.name:
        return False
    if is_method:
        return kind == "attr"
    return ((kind in ("attr", "import") and qualifier == module)
            or (kind == "name" and own_file))


def test_every_public_name_has_a_reader_outside_the_unit_tests():
    trees = {path: ast.parse(path.read_text())
             for path in [*sorted(SRC.glob("*.py")), *READERS]}
    references = {path: list(_references(tree)) for path, tree in trees.items()}
    bench_strings = {pair for path in BENCH for pair in _dotted_pairs(trees[path])}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node, owner in _public_definitions(trees[path]):
            is_method = owner is not None
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            read = (not is_method and (module, node.name) in bench_strings) or any(
                _reads(module, node, is_method, kind, qualifier, name, other == path)
                and (other != path or not first <= line <= node.end_lineno)
                for other, refs in references.items()
                for line, kind, qualifier, name in refs)
            if not read:
                dotted = ".".join(filter(None, (module, owner, node.name)))
                unread.append(f"{dotted} (line {node.lineno})")
    assert not unread, "no reader outside the unit tests: " + ", ".join(unread)


def _library_reads(tree):
    """(line, module, name) of each library name the code reads.

    `from loopsphere import m` reads m of loopsphere, and each later `m.name`
    then reads name of loopsphere.m; `from loopsphere.m import name` reads
    name of loopsphere.m.
    """
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "loopsphere":
            for alias in node.names:
                yield node.lineno, node.module, alias.name
                if node.module == "loopsphere":
                    modules[alias.asname or alias.name] = f"loopsphere.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield node.lineno, modules[node.value.id], node.attr


def _resolves(module, name):
    """Whether `module` has the attribute or submodule `name`."""
    try:
        return hasattr(importlib.import_module(module), name) or bool(
            importlib.util.find_spec(f"{module}.{name}"))
    except ModuleNotFoundError:
        return False


def test_every_library_name_a_demo_reads_exists():
    missing = [f"{path.name}:{line}: {module}.{name}"
               for path in DEMOS
               for line, module, name in _library_reads(ast.parse(path.read_text()))
               if not _resolves(module, name)]
    assert DEMOS and not missing, "demos read names the library lacks: " + ", ".join(missing)
