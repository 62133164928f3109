"""Every script under scripts/ runs with tiny arguments on the installed package alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# Tiny arguments per script; a new script needs an entry here.
TINY_ARGS = {
    "alpha_recovery.py": ["--sizes", "1000", "--alphas", "1.5"],
    "mutants.py": ["--modules", "tail", "--sample", "2"],
}


def test_every_script_has_tiny_args():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_runs_with_src_only(name, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *TINY_ARGS[name]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if name == "mutants.py":
        # a mutant the copy's src never imports would survive: each of
        # tail's sites is killed when the mutant is the code under test
        assert "tail: 2/2 killed" in proc.stdout, proc.stdout
