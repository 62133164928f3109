#!/usr/bin/env python3
"""Sampled mutation check: do the tests notice a one-operator change?

For each chosen module of src/flowlens, every place where one operator can
be changed is listed: a comparison flipped to its negation (< to >=, == to
!=, in to not in, ...), an integer constant +1, or & and |, + and - swapped.
A fixed sample of them (the same on every run of the same source) is
tried one at a time. Each mutant is written into a copy of src/, tests/ and
the README, and only its module's test files run against it; a mutant is
killed when they fail (or time out) and survives when they pass. Prints
killed/total per module and each mutant's place and verdict.

The score is evidence, not a gate: a survivor may be an equivalent mutant.

    python scripts/mutants.py --modules apps,tail --sample 20
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowlens"

# A module's test files, where they are not just tests/test_<module>.py:
# report's AnalysisParams checks are tested with the blocking they set,
# synth's scenario-file refusals through the CLI, and pcapio's columnar
# reader against the per-frame parser through read_trace.
MODULE_TESTS = {
    "synth": ("test_synth.py", "test_cli.py"),
    "report": ("test_cli.py", "test_golden.py", "test_flows.py"),
    "pcapio": ("test_pcapio.py", "test_ingest.py"),
}

_FLIPPED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
_SWAPPED = {ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.Add: ast.Sub, ast.Sub: ast.Add}
_SYMBOLS = {ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==",
            ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
            ast.NotIn: "not in", ast.BitAnd: "&", ast.BitOr: "|", ast.Add: "+", ast.Sub: "-"}


class Site(NamedTuple):
    """One mutable place: the n-th node of the module's ast.walk order."""

    node: int
    op: int         # which operator of a chained comparison; 0 otherwise
    line: int
    change: str     # e.g. "< -> >="


def sites(tree: ast.AST) -> List[Site]:
    found = []
    for n, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                found.append(Site(n, k, node.lineno, f"{_SYMBOLS[type(op)]} -> "
                                                      f"{_SYMBOLS[_FLIPPED[type(op)]]}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPPED:
            found.append(Site(n, 0, node.lineno, f"{_SYMBOLS[type(node.op)]} -> "
                                                 f"{_SYMBOLS[_SWAPPED[type(node.op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append(Site(n, 0, node.lineno, f"{node.value} -> {node.value + 1}"))
    return found


def mutate(source: str, site: Site) -> str:
    """The module's source with the one change of `site`."""
    tree = ast.parse(source)
    node = next(x for n, x in enumerate(ast.walk(tree)) if n == site.node)
    if isinstance(node, ast.Compare):
        node.ops[site.op] = _FLIPPED[type(node.ops[site.op])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _SWAPPED[type(node.op)]()
    return ast.unparse(tree)


def run_tests(copy: Path, tests: List[str], timeout: float) -> Tuple[bool, float]:
    """Whether the test files pass against the copy's src, and the wall time.

    pyproject.toml puts its own src/ on pytest's path ahead of PYTHONPATH,
    so the copy's src is named with -o pythonpath; the copy's tests are run,
    so a test that starts the CLI in a child also finds the copy's src.
    """
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={copy / 'src'}", *(str(copy / "tests" / t) for t in tests)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    return code == 0, time.monotonic() - start


def check_module(name: str, copy: Path, sample: int) -> int:
    """Print the module's score and each mutant's verdict; the number of survivors, or
    -1 when its tests fail without a mutant. The sample depends on the
    module's source alone."""
    tests = list(MODULE_TESTS.get(name, (f"test_{name}.py",)))
    path = copy / "src" / "flowlens" / f"{name}.py"
    source = path.read_text(encoding="utf-8")
    passed, wall = run_tests(copy, tests, timeout=600)
    if not passed:
        print(f"{name}: {', '.join(tests)} fail on the unmutated code", flush=True)
        return -1
    every = sites(ast.parse(source))
    rng = random.Random(name)
    chosen = sorted(rng.sample(every, min(sample, len(every))) if sample else every)
    survivors = []
    try:
        for site in chosen:
            path.write_text(mutate(source, site), encoding="utf-8")
            if run_tests(copy, tests, timeout=max(60.0, 10 * wall))[0]:
                survivors.append(site)
    finally:
        path.write_text(source, encoding="utf-8")
    print(f"{name}: {len(chosen) - len(survivors)}/{len(chosen)} killed "
          f"({len(every)} sites; {', '.join(tests)})", flush=True)
    for site in sorted(chosen, key=lambda s: s.line):
        verdict = "survived" if site in survivors else "killed"
        print(f"  {verdict}: {name}.py:{site.line} {site.change}", flush=True)
    return len(survivors)


def main() -> int:
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--modules", default=",".join(modules),
                    help="comma-separated modules of src/flowlens (default: all)")
    ap.add_argument("--sample", type=int, default=20,
                    help="mutants per module; 0 tries every site")
    args = ap.parse_args()
    names = args.modules.split(",")
    unknown = sorted(set(names) - set(modules))
    if unknown or args.sample < 0:
        ap.error(f"unknown module {unknown[0]!r}" if unknown else "--sample must be >= 0")

    with tempfile.TemporaryDirectory(prefix="flowlens-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):    # test_synth reads the README
            shutil.copy2(ROOT / name, copy)
        results = [check_module(name, copy, args.sample) for name in names]
    return 1 if -1 in results else 0


if __name__ == "__main__":
    sys.exit(main())
