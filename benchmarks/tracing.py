"""Spans around calls into flowlens' public module functions.

The benchmark wraps module attributes (e.g. `flowlens.flows.aggregate`)
from the outside. `report.analyze_trace` and `report.write_report` look
their callees up through the module at call time, so the wrappers see
every stage without any change to the program. Spans are kept in memory
and written out once at the end; a layer's self time is its span minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute) of every wrapped public function.
WRAPPED: Tuple[Tuple[str, str], ...] = (
    ("report", "analyze_trace"),
    ("report", "write_report"),
    ("report", "report_dict"),
    ("ingest", "read_trace"),
    ("variability", "throughput_series"),
    ("variability", "gate_trace"),
    ("flows", "aggregate"),
    ("flows", "write_flows_csv"),
    ("tail", "llcd"),
    ("tail", "fit_tail"),
    ("tail", "write_llcd_csv"),
    ("hops", "estimate_hosts"),
    ("hops", "flow_hop_estimates"),
    ("hops", "hop_histogram"),
    ("hops", "write_hops_csv"),
    ("apps", "breakdown"),
)


def _count_hosts(args, result) -> Dict[str, int]:
    return {"hosts": result.n_hosts, "rejected": len(result.rejected)}


def _count_io(args, result) -> Dict[str, int]:
    return {"in": len(args[0]), "out": len(result)}


# Span name -> hook turning (args, result) into counts stored on the span.
COUNT_HOOKS: Dict[str, Callable] = {
    "hops.estimate_hosts": _count_hosts,
    "flows.aggregate": _count_io,
}


class Tracer:
    """Collects spans: name, start, end, parent span index, trace id."""

    def __init__(self):
        self.spans: List[dict] = []
        self.trace_id: Optional[str] = None
        self.notes: List[str] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "trace": self.trace_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    span["counts"] = hook(args, result)
                except (AttributeError, TypeError):
                    pass       # the return shape changed; the count is reported as null
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED that exists; note the ones that don't."""
        for mod_name, attr in WRAPPED:
            name = f"{mod_name}.{attr}"
            try:
                module = importlib.import_module(f"flowlens.{mod_name}")
            except ImportError as exc:
                self.notes.append(f"{name}: module not importable ({exc})")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.notes.append(f"{name}: not found, its metrics are null")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading the spans back -------------------------------------------

    def total(self, name: str) -> Optional[float]:
        """Summed duration of all spans called `name`; None if never seen."""
        durs = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return sum(durs) if durs else None

    def self_time(self, name: str) -> Optional[float]:
        """Summed self time: each span minus the time its children cover."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        own = [s["end"] - s["start"] - child_time.get(i, 0.0)
               for i, s in enumerate(self.spans) if s["name"] == name]
        return sum(own) if own else None

    def count(self, name: str, key: str) -> Optional[int]:
        vals = [s["counts"][key] for s in self.spans
                if s["name"] == name and "counts" in s]
        return sum(vals) if vals else None

    def layer_self_times(self) -> Dict[str, float]:
        """Self time per layer (module), summed over its spans."""
        out: Dict[str, float] = {}
        for name in sorted({s["name"] for s in self.spans}):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (self.self_time(name) or 0.0)
        return out
