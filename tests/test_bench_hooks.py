"""The benchmark's per-layer hooks still find every stage they measure.

`benchmarks/tracing.py` wraps flowlens functions by name, and a metric
whose function moved comes back null with only a note. One tiny traced
in-process analyze, run through the benchmark's own code, fails here
instead.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from flowlens.synth import generate

from helpers import SRC_NET, random_scenario

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


@pytest.fixture(scope="module")
def run():
    # run.py puts benchmarks/ on sys.path and imports its siblings as top-level
    # modules; undo both so no later test resolves a name to the benchmark's copy
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name, mod in list(sys.modules.items()):
            if RUN_PY.parent in Path(getattr(mod, "__file__", None) or "/").parents:
                del sys.modules[name]


def test_traced_pass_has_every_layer(run, tmp_path):
    pcap, truth = generate(random_scenario(3), tmp_path / "t.pcap")
    setup = run.Setup(traces=[run.Trace("t", pcap, truth, "")], times_s=[0.0],
                      spans=[], packets=0)
    mods = run.import_flowlens()
    tracer = run.Tracer()
    with tracer:
        run.in_process(mods, SimpleNamespace(keep=f"src:{SRC_NET}"), setup,
                       tmp_path / "out", tracer)
    assert tracer.notes == []
    passes = run.pcapio_passes(mods["pcapio"], [pcap])
    assert passes["parse_s"] is not None
    metrics = run.span_metrics(tracer, passes["frames"])
    assert [k for k, v in metrics.items() if v is None] == []
    assert run.ingest_peak(mods["ingest"], [pcap]) > 0
