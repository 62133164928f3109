#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `flowlens analyze`.

    python3 benchmarks/run.py --workload mixed --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every workload in turn
    python3 benchmarks/run.py --smoke                   # tiny workloads, both modes

Run from the repository root (or anywhere: paths are taken relative to this
file). The program is run from `src/` as checked out; nothing is installed.

`--trace 0` generates the workload's traces with `flowlens generate`, then
runs the `flowlens analyze` CLI in a child process until `--seconds` have
passed (at least three runs), generating the traces once more after each
run for `setup_s`, and checks every run's outputs. `--trace 1` runs the same
analysis once through the CLI and once in this process with spans around
each module's public functions, and reports per-layer numbers. See benchmarks/README.md.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
analyze run passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedMeter, pin_to_one_cpu  # noqa: E402
from tracing import Tracer  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"
PINS = BENCH_DIR / "pinned.json"

MIN_RUNS = 3            # analyze runs per --trace 0 run, whatever --seconds says
STARTUP_REPS = 5        # fresh interpreters timed for cli.startup_s
TIME_LIMIT_S = 170.0    # a child still running this long after the start is killed

# Per-layer metric -> (unit, better), in print order; BENCHMARK.json lists the same.
PER_LAYER = {
    "pcapio.read_kpkt_per_s": ("kpkt/s", "higher"),
    "pcapio.parse_kpkt_per_s": ("kpkt/s", "higher"),
    "pcapio.frames": ("count", "higher"),
    "ingest.read_trace_s": ("s", "lower"),
    "ingest.kpkt_per_s": ("kpkt/s", "higher"),
    "ingest.self_s": ("s", "lower"),
    "ingest.skipped": ("count", "lower"),
    "ingest.peak_bytes_per_pkt": ("B/pkt", "lower"),
    "report.filter_s": ("s", "lower"),
    "report.kept_frac": ("fraction", "higher"),
    "report.write_s": ("s", "lower"),
    "report.output_bytes": ("B", "lower"),
    "flows.aggregate_s": ("s", "lower"),
    "flows.aggregate_kpkt_per_s": ("kpkt/s", "higher"),
    "flows.records": ("count", "higher"),
    "flows.records_per_kpkt": ("1/kpkt", "higher"),
    "flows.greedy_records": ("count", "higher"),
    "hops.estimate_hosts_s": ("s", "lower"),
    "hops.flow_estimates_s": ("s", "lower"),
    "hops.hosts": ("count", "higher"),
    "hops.rejected_hosts": ("count", "lower"),
    "hops.fingerprint_frac_fwd": ("fraction", "higher"),
    "hops.coverage_frac": ("fraction", "higher"),
    "variability.series_s": ("s", "lower"),
    "variability.intervals": ("count", "higher"),
    "tail.fit_s": ("s", "lower"),
    "tail.n_tail": ("count", "higher"),
    "apps.breakdown_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.batch_speedup": ("ratio", "higher"),
    "synth.generate_kpkt_per_s": ("kpkt/s", "higher"),
    "trace.traced_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "tail.alpha_abs_err": ("1", "lower"),
    "hops.mean_abs_err": ("hops", "lower"),
    "apps.mix_l1_err": ("1", "lower"),
}


class BenchError(Exception):
    """The benchmark could not produce a result (not a failed analyze run)."""


# ---------------------------------------------------------------------------
# Child processes

@dataclass
class ChildRun:
    span: Tuple[float, float]   # start and end, in time.perf_counter()
    max_rss_bytes: int
    returncode: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: List[str], log_dir: Path, deadline: float) -> ChildRun:
    """Run `cmd` to completion; wall time and peak RSS of that process alone.

    Output goes to files so a chatty child cannot block on a full pipe. A
    child still running when the benchmark's time limit comes is killed.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:           # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(span=(t0, t1), max_rss_bytes=usage.ru_maxrss * 1024,
                    returncode=proc.returncode,
                    stdout=out_path.read_text(errors="replace"),
                    stderr=err_path.read_text(errors="replace"))


def flowlens_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "flowlens", *args]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up: the workload's traces from the seed

@dataclass
class Trace:
    name: str
    pcap: Path
    truth: Path
    sha256: str


@dataclass
class Setup:
    traces: List[Trace]
    times_s: List[float]               # wall time of each set-up
    spans: List[List[Tuple[float, float]]]   # its generate children
    packets: int


def build_workload(wl: workloads.Workload, seed: int, d: Path,
                   deadline: float) -> Setup:
    """Generate every trace of the workload into `d`, timed as one set-up."""
    scenarios = workloads.write_scenarios(wl, seed, d)
    spans = []
    traces = []
    packets = 0
    for name, scenario in scenarios:
        r = run_child(flowlens_cmd("generate", "--scenario", str(scenario),
                                   "--out", str(d), "--name", name),
                      d / f"log-{name}", deadline)
        if r.returncode != 0:
            raise BenchError(f"flowlens generate {name} exited {r.returncode}: "
                             f"{r.stderr.strip()[-500:]}")
        spans.append(r.span)
        packets += json.loads(r.stdout.strip().splitlines()[-1])["packets"]
        pcap = d / f"{name}.pcap"
        traces.append(Trace(name, pcap, d / f"{name}.ground_truth.json",
                            sha256_file(pcap)))
    return Setup(traces=traces, times_s=[sum(b - a for a, b in spans)],
                 spans=[spans], packets=packets)


def repeat_setup(wl: workloads.Workload, seed: int, setup: Setup, d: Path,
                 deadline: float) -> None:
    """Set the workload up once more, adding its time to `setup.times_s`.

    The copy must have the same bytes as the traces in use; it is deleted.
    """
    again = build_workload(wl, seed, d, deadline)
    if [t.sha256 for t in again.traces] != [t.sha256 for t in setup.traces]:
        raise BenchError("flowlens generate gave different pcaps for one seed")
    setup.times_s += again.times_s
    setup.spans += again.spans
    shutil.rmtree(d)


# ---------------------------------------------------------------------------
# One analyze run and its checks

def out_dirs(setup: Setup, out: Path) -> List[Path]:
    """Where the CLI writes each trace: --out itself, or one subdir per trace."""
    if len(setup.traces) == 1:
        return [out]
    return [out / t.pcap.stem for t in setup.traces]


def analyze_cli(wl, setup: Setup, out: Path, deadline: float) -> ChildRun:
    if out.exists():
        shutil.rmtree(out)
    return run_child(flowlens_cmd("analyze", *[str(t.pcap) for t in setup.traces],
                                  "--out", str(out), "--keep", wl.keep, "--force"),
                     out.with_name(out.name + "-log"), deadline)


def load_pins() -> dict:
    if PINS.exists():
        return json.loads(PINS.read_text(encoding="utf-8"))
    return {}


def pinned_digests(wl, seed: int, smoke: bool) -> Optional[dict]:
    """Digests the outputs must match: the default seed's pins, else None."""
    if seed != workloads.DEFAULT_SEED or smoke:
        return None
    return load_pins().get("workloads", {}).get(wl.name, {})


@dataclass
class Verdict:
    errors: List[str] = field(default_factory=list)
    checks: List[oracle.TraceCheck] = field(default_factory=list)
    digests: Dict[str, Dict[str, str]] = field(default_factory=dict)


def check_outputs(wl, setup: Setup, out: Path, pinned: Optional[dict]) -> Verdict:
    """Full oracle over one run's outputs, plus the pinned digests if given."""
    v = Verdict()
    for trace, d in zip(setup.traces, out_dirs(setup, out)):
        v.digests[trace.name] = oracle.digests(d)
        if "missing" in v.digests[trace.name].values():
            v.errors.append(f"{trace.name}: output files missing")
            continue
        c = oracle.check_trace(d, trace.truth, wl.shape.flow_size_alpha,
                               keep_all=(wl.keep == "all"))
        v.checks.append(c)
        v.errors += [f"{trace.name}: {e}" for e in c.errors]
        if pinned is not None:
            want = pinned.get(trace.name, {})
            got = dict(v.digests[trace.name], **{trace.pcap.name: trace.sha256})
            for fname, digest in sorted(got.items()):
                if want.get(fname) != digest:
                    v.errors.append(f"{trace.name}: {fname} sha256 {digest[:12]} "
                                    f"!= pinned {str(want.get(fname))[:12]}")
    return v


# ---------------------------------------------------------------------------
# Metrics

def metric(value, unit: str, note: Optional[str] = None) -> dict:
    m = {"value": value, "unit": unit}
    if note:
        m["note"] = note
    return m


def accuracy(checks: List[oracle.TraceCheck]) -> Dict[str, Optional[float]]:
    """Flow recovery pooled over traces; error figures averaged over traces."""
    out: Dict[str, Optional[float]] = {}
    planted = sum(c.planted for c in checks)
    out["flow_records_exact"] = (sum(c.exact for c in checks) / planted
                                 if planted else None)
    for key in ("tail_alpha_abs_err", "hop_mean_abs_err", "app_mix_l1_err"):
        vals = [getattr(c, key) for c in checks if getattr(c, key) is not None]
        out[key] = statistics.fmean(vals) if vals else None
    return out


@dataclass
class Result:
    workload: str
    seed: int
    trace: int
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)
    extra: Dict[str, dict] = field(default_factory=dict)   # printed, not in the last line
    provenance: dict = field(default_factory=dict)
    samples: Dict[str, list] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def end_to_end(wl, seed: int, smoke: bool, seconds: float, work: Path,
               deadline: float, write_pins: bool) -> Result:
    with SpeedMeter() as meter:
        return _end_to_end(wl, seed, smoke, seconds, work, deadline, write_pins, meter)


def _end_to_end(wl, seed: int, smoke: bool, seconds: float, work: Path,
                deadline: float, write_pins: bool, meter: SpeedMeter) -> Result:
    res = Result(wl.name, seed, 0)
    setup = build_workload(wl, seed, work / "setup", deadline)
    os.sync()       # no writeback of the generated traces during the timed runs
    pinned = None if write_pins else pinned_digests(wl, seed, smoke)

    # Each analyze run is followed by one more set-up, so that setup_s, too,
    # comes from samples spread over the whole measured window: the
    # machine's speed changes over tens of seconds.
    spans, rss, first = [], [], None
    start = time.perf_counter()
    while (len(spans) < MIN_RUNS or time.perf_counter() - start < seconds) \
            and (not spans or deadline - time.perf_counter()
                 > 2.5 * (max(b - a for a, b in spans) + max(setup.times_s))):
        out = work / "out"
        r = analyze_cli(wl, setup, out, deadline)
        res.attempted += 1
        errors = []
        if r.returncode != 0:
            errors.append(f"flowlens analyze exited {r.returncode}: "
                          f"{r.stderr.strip()[-500:]}")
        elif first is None:
            first = check_outputs(wl, setup, out, pinned)
            errors += first.errors
        else:
            digests = {t.name: oracle.digests(d)
                       for t, d in zip(setup.traces, out_dirs(setup, out))}
            if digests != first.digests:
                errors.append("outputs differ from the first run's")
            elif first.errors:
                errors.append("same outputs as the first run, which failed its checks")
        if errors:
            res.failed += 1
            res.errors += [f"run {res.attempted}: {e}" for e in errors]
        spans.append(r.span)
        rss.append(r.max_rss_bytes)
        repeat_setup(wl, seed, setup, work / "again", deadline)

    if first is None:
        raise BenchError("no analyze run completed: " + "; ".join(res.errors[-3:]))
    if write_pins:
        pins = load_pins()
        pins["seed"] = workloads.DEFAULT_SEED
        pins.setdefault("workloads", {})[wl.name] = {
            t.name: dict(first.digests[t.name], **{t.pcap.name: t.sha256})
            for t in setup.traces}
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    # Every child's wall time at the reference CPU speed (see speed.py).
    walls = [b - a for a, b in spans]
    scaled = [meter.scaled(s) for s in spans]
    setups = [sum(meter.scaled(s) for s in group) for group in setup.spans]
    frames = sum(c.frames for c in first.checks)
    analyze_s = faster_half(scaled)
    acc = accuracy(first.checks)
    res.metrics = {
        "analyze_kpkt_per_s": metric(frames / 1000 / analyze_s, "kpkt/s"),
        "analyze_s": metric(analyze_s, "s"),
        "peak_rss_mb": metric(statistics.median(rss) / 1e6, "MB"),
        "setup_s": metric(faster_half(setups), "s"),
        "flow_records_exact": metric(acc["flow_records_exact"], "fraction"),
    }
    res.extra = {
        "failed_frac": metric(res.failed / res.attempted, "fraction"),
        "tail_alpha_abs_err": metric(acc["tail_alpha_abs_err"], "1"),
        "hop_mean_abs_err": metric(acc["hop_mean_abs_err"], "hops"),
        "app_mix_l1_err": metric(acc["app_mix_l1_err"], "1"),
        "analyze_s_median": metric(statistics.median(scaled), "s"),
        "analyze_s_max": metric(max(scaled), "s",
                                f"no percentile above the median has 10 samples "
                                f"beyond it at n={len(scaled)}; this is the maximum"),
        "analyze_runs": metric(len(scaled), "count"),
        "analyze_wall_s": metric(statistics.median(walls), "s", "unscaled"),
        "setup_wall_s": metric(statistics.median(setup.times_s), "s", "unscaled"),
        "cpu_speed": metric(statistics.median(s / w for s, w in zip(scaled, walls)),
                            "ratio", "reference / measured CPU speed in the analyze runs"),
    }
    res.samples = {"analyze_s": scaled, "analyze_wall_s": walls, "peak_rss_bytes": rss,
                   "setup_s": setups, "setup_wall_s": setup.times_s}
    res.provenance = provenance(seed, setup, frames_by_trace(first, setup))
    return res


def faster_half(times: List[float]) -> float:
    """Mean of the faster half of `times` (at least one).

    Other tenants of the host only ever slow a child down, and the speed
    scaling takes out most but not all of it: memory-heavy children slow
    more than the reference loop does. The faster half is where it took
    out the most.
    """
    fast = sorted(times)[:max(1, len(times) // 2)]
    return statistics.fmean(fast)


def frames_by_trace(v: Verdict, setup: Setup) -> Dict[str, int]:
    return {t.name: c.frames for t, c in zip(setup.traces, v.checks)}


# ---------------------------------------------------------------------------
# Traced run: per-layer numbers

def import_flowlens():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {m: importlib.import_module(f"flowlens.{m}")
            for m in ("report", "ingest", "pcapio", "hops")}


def in_process(mods, wl, setup: Setup, out: Path,
               tracer: Optional[Tracer] = None) -> List[float]:
    """analyze_trace + write_report per trace, as the CLI does; per-trace walls.

    The fingerprint database is loaded once, outside the timed calls, as
    the CLI loads it once before its traces.
    """
    report = mods["report"]
    params = report.AnalysisParams(keep=wl.keep, force=True)
    db = mods["hops"].FingerprintDb.default()
    walls = []
    for trace, d in zip(setup.traces, out_dirs(setup, out)):
        if tracer is not None:
            tracer.trace_id = trace.name
        t0 = time.perf_counter()
        result = report.analyze_trace(trace.pcap, params, db)
        report.write_report(result, d)
        walls.append(time.perf_counter() - t0)
        del result
    return walls


def pcapio_passes(pcapio, pcaps: List[Path]) -> Dict[str, Optional[float]]:
    """Standalone reader pass, then a link-strip + IPv4-parse pass over the frames."""
    t0 = time.perf_counter()
    frames = []
    for path in pcaps:
        with pcapio.PcapReader(path) as reader:
            lt = reader.linktype
            frames += [(lt, f.data) for f in reader]
    read_s = time.perf_counter() - t0
    parse_s = None
    if callable(getattr(pcapio, "ipv4_payload", None)) and \
            callable(getattr(pcapio, "parse_ipv4", None)):
        payload, parse = pcapio.ipv4_payload, pcapio.parse_ipv4
        t0 = time.perf_counter()
        for lt, data in frames:
            ip = payload(data, lt)
            if ip is not None:
                parse(ip)
        parse_s = time.perf_counter() - t0
    return {"frames": len(frames), "read_s": read_s, "parse_s": parse_s}


def ingest_peak(ingest, pcaps: List[Path]) -> int:
    """tracemalloc peak of read_trace, summed over traces (its own pass)."""
    total = 0
    tracemalloc.start()
    try:
        for path in pcaps:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = ingest.read_trace(path)
            total += tracemalloc.get_traced_memory()[1] - base
            del out
    finally:
        tracemalloc.stop()
    return total


def reports(setup: Setup, out: Path) -> List[dict]:
    return [json.loads((d / "report.json").read_text(encoding="utf-8"))
            for d in out_dirs(setup, out)]


def span_metrics(sp: Tracer, frames: int) -> Dict[str, Optional[float]]:
    """Layer times and counts from the traced run's spans (None if unseen)."""
    v = {
        "ingest.read_trace_s": sp.total("ingest.read_trace"),
        "report.filter_s": sp.self_time("report.analyze_trace"),
        "report.write_s": sp.total("report.write_report"),
        "flows.aggregate_s": sp.total("flows.aggregate"),
        "hops.estimate_hosts_s": sp.total("hops.estimate_hosts"),
        "hops.flow_estimates_s": _sum(sp.total("hops.flow_hop_estimates"),
                                      sp.total("hops.hop_histogram")),
        "hops.hosts": sp.count("hops.estimate_hosts", "hosts"),
        "hops.rejected_hosts": sp.count("hops.estimate_hosts", "rejected"),
        "variability.series_s": _sum(sp.total("variability.throughput_series"),
                                     sp.total("variability.gate_trace")),
        "tail.fit_s": _sum(sp.total("tail.llcd"), sp.total("tail.fit_tail")),
        "apps.breakdown_s": sp.total("apps.breakdown"),
    }
    agg_in = sp.count("flows.aggregate", "in")
    if v["flows.aggregate_s"] and agg_in is not None:
        v["flows.aggregate_kpkt_per_s"] = agg_in / 1000 / v["flows.aggregate_s"]
    if v["ingest.read_trace_s"]:
        v["ingest.kpkt_per_s"] = frames / 1000 / v["ingest.read_trace_s"]
    return v


def report_metrics(setup: Setup, ref_dir: Path, ref: Verdict,
                   notes: Dict[str, str]) -> Dict[str, Optional[float]]:
    """Counts and accuracy read from the CLI run's outputs."""
    docs = reports(setup, ref_dir)
    frames = sum(c.frames for c in ref.checks)
    kept = sum(d["ingest"]["kept"] for d in docs)
    n_records = sum(d["flows"]["n_records"] for d in docs)
    with_fit = [d["llcd_fit"]["n_tail"] for d in docs if d.get("llcd_fit")]
    if not with_fit:
        notes["tail.n_tail"] = notes["tail.alpha_abs_err"] = \
            f"no tail fit: {docs[0].get('llcd_fit_reason')}"
    acc = accuracy(ref.checks)
    dirs = out_dirs(setup, ref_dir)
    return {
        "ingest.skipped": sum(d["ingest"]["non_ipv4"] + d["ingest"]["malformed"]
                              for d in docs),
        "report.kept_frac": kept / frames if frames else None,
        "report.output_bytes": sum(oracle.output_bytes(d) for d in dirs),
        "flows.records": n_records,
        "flows.records_per_kpkt": n_records / (kept / 1000) if kept else None,
        "flows.greedy_records": sum(d["flows"]["n_greedy"] for d in docs),
        "hops.fingerprint_frac_fwd": statistics.fmean(
            d["hop_summary"]["fingerprint_fraction_fwd"] for d in docs),
        "hops.coverage_frac": (sum(d["hop_summary"]["n_all"] for d in docs)
                               / n_records if n_records else None),
        "tail.n_tail": sum(with_fit) if with_fit else None,
        "variability.intervals": sum(
            len((d / "throughput.csv").read_text().splitlines()) - 1 for d in dirs),
        "tail.alpha_abs_err": acc["tail_alpha_abs_err"],
        "hops.mean_abs_err": acc["hop_mean_abs_err"],
        "apps.mix_l1_err": acc["app_mix_l1_err"],
    }


def standalone_passes(mods, pcaps: List[Path], frames: int, read_trace_s: Optional[float],
                      notes: Dict[str, str]) -> Dict[str, Optional[float]]:
    """pcapio throughput and ingest memory, each in a pass of its own."""
    v: Dict[str, Optional[float]] = {}
    try:
        p = pcapio_passes(mods["pcapio"], pcaps)
        v["pcapio.frames"] = p["frames"]
        v["pcapio.read_kpkt_per_s"] = p["frames"] / 1000 / p["read_s"]
        if p["parse_s"] is None:
            notes["pcapio.parse_kpkt_per_s"] = notes["ingest.self_s"] = \
                "pcapio.ipv4_payload or pcapio.parse_ipv4 not found"
        else:
            v["pcapio.parse_kpkt_per_s"] = p["frames"] / 1000 / p["parse_s"]
            if read_trace_s is not None:
                v["ingest.self_s"] = read_trace_s - p["read_s"] - p["parse_s"]
    except (AttributeError, TypeError) as exc:
        note = f"pcapio pass failed: {type(exc).__name__}: {exc}"
        for k in ("pcapio.frames", "pcapio.read_kpkt_per_s",
                  "pcapio.parse_kpkt_per_s", "ingest.self_s"):
            notes[k] = note
    try:
        v["ingest.peak_bytes_per_pkt"] = ingest_peak(mods["ingest"], pcaps) / frames
    except (AttributeError, TypeError) as exc:
        notes["ingest.peak_bytes_per_pkt"] = \
            f"read_trace pass failed: {type(exc).__name__}: {exc}"
    return v


def traced(wl, seed: int, smoke: bool, work: Path, deadline: float) -> Result:
    res = Result(wl.name, seed, 1)
    setup = build_workload(wl, seed, work / "setup", deadline)
    ref_dir = work / "cli"
    r = analyze_cli(wl, setup, ref_dir, deadline)
    res.attempted += 1
    if r.returncode != 0:
        raise BenchError(f"flowlens analyze exited {r.returncode}: {r.stderr.strip()[-500:]}")
    ref = check_outputs(wl, setup, ref_dir, pinned_digests(wl, seed, smoke))
    if ref.errors:
        res.failed += 1
        res.errors += ref.errors
    frames = sum(c.frames for c in ref.checks)
    vals: Dict[str, Optional[float]] = dict.fromkeys(PER_LAYER)
    notes: Dict[str, str] = {}

    tracer = Tracer()
    failure = None
    try:
        mods = import_flowlens()
        # Untraced first, then traced: both must match the CLI byte for byte.
        untraced = in_process(mods, wl, setup, work / "inproc")
        with tracer:
            traced_walls = in_process(mods, wl, setup, work / "traced", tracer)
        res.attempted += 2
        for label, d in (("untraced in-process", work / "inproc"),
                         ("traced", work / "traced")):
            got = {t.name: oracle.digests(x)
                   for t, x in zip(setup.traces, out_dirs(setup, d))}
            if got != ref.digests:
                res.failed += 1
                res.errors.append(f"{label} outputs differ from the CLI's")
        vals["trace.untraced_s"] = sum(untraced)
        vals["trace.traced_s"] = sum(traced_walls)
        vals["trace.overhead_frac"] = sum(traced_walls) / sum(untraced) - 1
        vals["cli.batch_speedup"] = sum(untraced) / r.wall_s
    except Exception as exc:  # an API the in-process run relies on changed
        failure = "in-process run failed: " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
        res.notes.append(failure)
        mods = None
    res.notes += tracer.notes

    vals.update(span_metrics(tracer, frames))
    vals.update(report_metrics(setup, ref_dir, ref, notes))
    vals["synth.generate_kpkt_per_s"] = setup.packets / 1000 / setup.times_s[0]
    if mods is not None:
        vals.update(standalone_passes(mods, [t.pcap for t in setup.traces], frames,
                                      vals["ingest.read_trace_s"], notes))
    startups = []
    for i in range(STARTUP_REPS):
        s = run_child([sys.executable, "-c", "import flowlens.cli"],
                      work / f"startup{i}", deadline)
        if s.returncode == 0:
            startups.append(s.wall_s)
    vals["cli.startup_s"] = statistics.median(startups) if startups else None

    fallback = failure or "; ".join(tracer.notes) or "the layer recorded no span or count"
    res.metrics = {k: metric(vals[k], PER_LAYER[k][0],
                             notes.get(k, fallback) if vals[k] is None else None)
                   for k in PER_LAYER}
    res.extra = {"failed_frac": metric(res.failed / res.attempted, "fraction")}
    res.samples = {"layer_self_s": tracer.layer_self_times(), "cli_wall_s": [r.wall_s],
                   "startup_s": startups}
    res.provenance = provenance(seed, setup, frames_by_trace(ref, setup))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"spans-{wl.name}-seed{seed}.json").write_text(
        json.dumps({"notes": tracer.notes, "spans": tracer.spans}, indent=1) + "\n",
        encoding="utf-8")
    return res


def _sum(*parts: Optional[float]) -> Optional[float]:
    """Sum of span totals, or None if any part was not recorded."""
    return None if any(p is None for p in parts) else sum(parts)


# ---------------------------------------------------------------------------
# Provenance and output

def provenance(seed: int, setup: Setup, frames: Dict[str, int]) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "flowlens").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "inputs": {t.name: {"sha256": t.sha256, "frames": frames.get(t.name)}
                   for t in setup.traces},
    }


def fmt(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_result(res: Result) -> None:
    mode = "per-layer (traced)" if res.trace else "end-to-end"
    print(f"== {res.workload}  seed {res.seed}  {mode}")
    for name, m in list(res.metrics.items()) + list(res.extra.items()):
        note = f"   ({m['note']})" if m.get("note") else ""
        print(f"  {name:<28} {fmt(m['value']):>14} {m['unit']}{note}")
    if res.trace and res.samples.get("layer_self_s"):
        layers = res.samples["layer_self_s"]
        total = sum(layers.values()) or 1.0
        print("  layer self time in the traced run:")
        for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<12} {s:8.3f} s  {100 * s / total:5.1f}%")
    for n in res.notes:
        print(f"  note: {n}")
    for e in res.errors[:20]:
        print(f"  FAILED: {e}")
    print("provenance: " + json.dumps(res.provenance, sort_keys=True))


def save_result(res: Result) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{res.workload}-seed{res.seed}-trace{res.trace}.json"
    doc = dict(res.line(), workload=res.workload, seed=res.seed, trace=res.trace,
               unbounded=res.extra, errors=res.errors, notes=res.notes,
               samples=res.samples, provenance=res.provenance)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def check_metric_names(res: Result) -> List[str]:
    """Smoke check: the result carries exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"] for m in spec["per_layer" if res.trace else "end_to_end"]}
    got = set(res.metrics)
    errs = [f"missing metric {n}" for n in sorted(want - got)]
    errs += [f"metric {n} not in BENCHMARK.json" for n in sorted(got - want)]
    if not res.trace:
        errs += [f"{n} is null" for n in sorted(want) if
                 res.metrics.get(n, {}).get("value") is None]
    return errs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="flowlens analyze benchmark")
    ap.add_argument("--workload", default="mixed",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure analyze runs for this long (at least %d runs)" % MIN_RUNS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: traced per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny version of every workload, both modes, checks names")
    ap.add_argument("--write-pins", action="store_true",
                    help="record the default seed's output digests in pinned.json")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "flowlens" / "__init__.py").is_file():
        print(f"benchmark: no flowlens sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_pins and (args.smoke or args.seed != workloads.DEFAULT_SEED
                            or args.trace):
        print("benchmark: --write-pins needs the default seed, --trace 0, no --smoke",
              file=sys.stderr)
        return 64
    if args.smoke:
        names, modes, seconds = list(workloads.WORKLOADS), (0, 1), 0.0
    else:
        names = (list(workloads.WORKLOADS) if args.workload == "all"
                 else [args.workload])
        modes, seconds = (args.trace,), args.seconds

    # One CPU for the benchmark, its children and its speed meter.
    pin_to_one_cpu()
    results = []
    for name in names:
        wl = workloads.get(name, smoke=args.smoke)
        for mode in modes:
            deadline = time.perf_counter() + TIME_LIMIT_S
            work = WORK / f"{name}-seed{args.seed}-trace{mode}-{os.getpid()}"
            if work.exists():
                shutil.rmtree(work)
            try:
                if mode == 0:
                    res = end_to_end(wl, args.seed, args.smoke, seconds, work,
                                     deadline, args.write_pins)
                else:
                    res = traced(wl, args.seed, args.smoke, work, deadline)
            except BenchError as exc:
                print(f"benchmark: {name}: {exc}", file=sys.stderr)
                return 3
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if args.smoke:
                res.errors += check_metric_names(res)
            print_result(res)
            save_result(res)
            results.append(res)
    if len(results) == 1:
        line = results[0].line()
    else:
        line = {"correct": all(r.correct for r in results),
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results),
                "metrics": {f"{r.workload}{'.traced' if r.trace else ''}.{k}": m
                            for r in results for k, m in r.metrics.items()}}
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
