"""The flowlens process entry: `python -m flowlens` and the installed `flowlens`.

`run` owns the process lifecycle around `cli.main`. The objects that the
imports build (numpy's and flowlens' modules, functions and tables) live
until the process ends, so the cyclic garbage collector is kept off them:
it is switched off while they are built, and they are frozen (moved to a
generation that is never collected) before `main` runs and again before
the process exits, so neither the run nor interpreter finalization sweeps
them. Collection stays on while `main` runs, so a long batch still frees
its own cycles. `cli.main` itself leaves the collector as it finds it.
"""

import gc
import sys


def run() -> int:
    """Run the command line in this process and give its exit code."""
    gc.disable()
    from . import cli
    gc.freeze()
    gc.enable()
    try:
        return cli.main()
    finally:
        gc.freeze()     # what is left dies with the process; do not sweep it


if __name__ == "__main__":
    sys.exit(run())
