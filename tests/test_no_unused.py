"""Every definition in src/flowlens is used by the program, the benchmark or the scripts.

Code that only tests call belongs in tests/ (see tests/reference.py). A
top-level or method `def`/`class` counts as used when its name appears in
src/, benchmarks/ or scripts/ as a name, an attribute, an import or an
identifier string (the benchmark wraps functions it names in strings).
Dunder methods are called by the language and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flowlens"
CALLERS = ("src", "benchmarks", "scripts")


def _definitions(tree):
    """(qualified name, name) of every top-level def/class and method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    """Every name the module refers to."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
    return found


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_definition_in_src_has_a_caller():
    referenced = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            referenced |= _references(_parse(path))
    unused = [f"{path.stem}.{qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in _definitions(_parse(path))
              if not (name.startswith("__") and name.endswith("__"))
              and name not in referenced]
    assert not unused, f"defined in src/flowlens but called only by tests, if at all: {unused}"
