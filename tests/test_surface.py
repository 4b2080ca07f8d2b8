"""Every public name of the library has a reader outside the unit tests.

A reader is a command handler or another library function (code in `src/`
outside the name's own definition), a demo, a benchmark job or an
acceptance criterion.  A name that only unit tests read is deleted with its
tests, or moved into the test file that uses it as a reference oracle.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "loopsphere"
READERS = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _references(tree):
    """(line, name) of every name, attribute and imported name in a module's code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rsplit(".", 1)[-1]


def _public_definitions(tree):
    """Public top-level functions and classes, and the public methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (member for member in node.body
                            if isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_"))


def test_every_public_name_has_a_reader_outside_the_unit_tests():
    outside = set()
    for path in READERS:
        tree = ast.parse(path.read_text())
        outside.update(name for _, name in _references(tree))
        # The benchmark's tracer names the functions it wraps in strings.
        outside.update(word for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       for word in re.findall(r"\w+", node.value))
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = {path: list(_references(tree)) for path, tree in trees.items()}
    unread = []
    for path, tree in trees.items():
        for node in _public_definitions(tree):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            read = node.name in outside or any(
                name == node.name and (other != path or not first <= line <= node.end_lineno)
                for other, refs in references.items() for line, name in refs)
            if not read:
                unread.append(f"{path.stem}.{node.name} (line {node.lineno})")
    assert not unread, "no reader outside the unit tests: " + ", ".join(unread)
