"""Every definition in src/flowlens is used by the program, the benchmark or the scripts.

Code that only tests call belongs in tests/ (see tests/reference.py). A
top-level or method `def`/`class` counts as used when its name appears in
src/, benchmarks/ or scripts/ as a name, an attribute, an import or an
identifier string (the benchmark wraps functions it names in strings).
Dunder methods are called by the language and are not checked.

A dataclass field counts as read when its name is loaded as an attribute,
or appears as an identifier string, in src/, benchmarks/ or scripts/.
Building an instance with the field as a keyword does not read it.

A defaulted parameter of a top-level function or a method counts as passed
when a call in src/, benchmarks/ or scripts/ to a function of that name
gives it by keyword or by position. Calls match by name only; a call to a
class is a call to its `__init__`, and a method's `self` or `cls` is not
counted. A `*` or `**` argument passes none of them.
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


# Fields that nothing reads yet, and why each stays. The list is exact: a
# field here that gains a reader, or is deleted, fails the test as well.
UNREAD_FIELDS = {
    "pcapio.SynSignature.truncated_options": "ROADMAP item 5 reports it",
    "hops.HostEstimates.ttl_conflict": "ROADMAP item 5 reports it",
    "pcapio.PacketRecord.syn_sig": "the tests' per-frame oracle reads it; "
                                   "it leaves src with ROADMAP item 9",
}


def _dataclass_fields(tree):
    """(qualified name, name) of every field of a top-level @dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _reads(tree):
    """Every attribute the module loads, and every identifier string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
    return found


def test_every_dataclass_field_in_src_is_read():
    read = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            read |= _reads(_parse(path))
    unread = {f"{path.stem}.{qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in _dataclass_fields(_parse(path))
              if name not in read}
    assert unread == set(UNREAD_FIELDS), (
        f"read by nothing but tests, and not listed: {sorted(unread - set(UNREAD_FIELDS))}; "
        f"listed, but read or gone: {sorted(set(UNREAD_FIELDS) - unread)}")


# Defaulted parameters that no call passes, and why each stays. The list is
# exact, like UNREAD_FIELDS.
UNPASSED_PARAMETERS = {
    "cli.main.argv": "python -m flowlens calls main() on sys.argv; tests pass argv",
    "pcapio.build_ipv4_packet.src_port": "the tests' frame builder sets it; generate "
                                         "writes ports into its templates",
    "pcapio.build_ipv4_packet.dst_port": "as src_port",
    "pcapio.build_ipv4_packet.frag_offset": "the tests' frame builder makes fragments; "
                                            "generate plants none",
    "synth.generate.db": "tests plant hosts from their own databases; the CLI's "
                         "generate uses the built-in one",
}


def _defaulted_parameters(tree):
    """(qualified name, the name its calls use, position or None, parameter)
    of every defaulted parameter of a top-level function or method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [(node.name, node.name, node, False) for node in tree.body
             if isinstance(node, funcs)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for item in cls.body:
            if isinstance(item, funcs):
                bound = "staticmethod" not in map(ast.unparse, item.decorator_list)
                found.append((f"{cls.name}.{item.name}",
                              cls.name if item.name == "__init__" else item.name, item, bound))
    for qualified, called_as, func, bound in found:
        args = func.args
        positional = (args.posonlyargs + args.args)[int(bound):]
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield qualified, called_as, i, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, called_as, None, arg.arg


def _calls(tree):
    """(called name, positional count, keyword names) of every call by name or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            yield (name, sum(not isinstance(a, ast.Starred) for a in node.args),
                   {k.arg for k in node.keywords if k.arg is not None})


def test_every_defaulted_parameter_in_src_is_passed():
    calls = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, n_positional, keywords in _calls(_parse(path)):
                calls.setdefault(name, []).append((n_positional, keywords))
    unpassed = {f"{path.stem}.{qualified}.{param}"
                for path in sorted(PACKAGE.glob("*.py"))
                for qualified, called_as, i, param in _defaulted_parameters(_parse(path))
                if not any((i is not None and n > i) or param in keywords
                           for n, keywords in calls.get(called_as, ()))}
    assert unpassed == set(UNPASSED_PARAMETERS), (
        f"passed by nothing but tests, and not listed: "
        f"{sorted(unpassed - set(UNPASSED_PARAMETERS))}; "
        f"listed, but passed or gone: {sorted(set(UNPASSED_PARAMETERS) - unpassed)}")
