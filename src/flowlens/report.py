"""End-to-end per-trace analysis and machine-readable report emission.

One run produces report.json plus CSV sidecars (throughput.csv, flows.csv,
llcd.csv, hops_all.csv, hops_greedy.csv). Every number in report.json is
recomputable from the sidecars. Every file, report.json included, is a
function of the input and the parameters only: re-running on the same
input yields byte-identical files.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from . import apps, flows, hops, ingest, tail, variability

log = logging.getLogger(__name__)

DEFAULT_AVG_PACKET_BYTES = 700.0


@dataclass(frozen=True)
class AnalysisParams:
    tau: float = 0.1
    min_packets: int = 2
    greedy_threshold: int = 20
    skew_min: float = 0.4
    http_ports: FrozenSet[int] = apps.DEFAULT_HTTP_PORTS
    keep: str = "all"
    fingerprints: Optional[str] = None    # None = built-in table
    force: bool = False

    def __post_init__(self):
        if not (self.tau > 0 and np.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if not 1 <= self.tau_us <= np.iinfo(np.int64).max:    # ts_us is int64
            raise ValueError("tau must be between 1 and 2**63 - 1 microseconds")
        if self.min_packets < 2:
            raise ValueError("min_packets must be >= 2")
        if self.greedy_threshold < self.min_packets:
            raise ValueError("greedy_threshold must be >= min_packets")
        if np.isnan(self.skew_min):
            raise ValueError("skew_min must be a number")
        ingest.DirectionFilter.parse(self.keep)

    @property
    def tau_us(self) -> int:
        """The block length in whole microseconds."""
        return round(self.tau * 1e6)

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "min_packets": self.min_packets,
            "greedy_threshold": self.greedy_threshold,
            "skew_min": self.skew_min,
            "http_ports": sorted(self.http_ports),
            "keep": self.keep,
            "fingerprints": self.fingerprints or "default",
            "avg_packet_bytes": DEFAULT_AVG_PACKET_BYTES,
            "force": self.force,
            # bits per second of a flow that just clears the greedy threshold
            "greedy_equivalent_bps":
                self.greedy_threshold * DEFAULT_AVG_PACKET_BYTES * 8 / self.tau,
        }


@dataclass
class AnalysisResult:
    trace_id: str
    params: AnalysisParams
    summary: ingest.IngestSummary
    series: variability.ThroughputSeries
    gate_kept: bool
    analyzed: bool                      # downstream sections were computed
    records: Optional[flows.Flows] = None
    curve: Optional[Tuple[Tuple[int, float], ...]] = None   # tail.llcd's points
    fit: Optional[tail.TailFit] = None
    fit_reason: Optional[str] = None    # why fit is absent
    flow_hops: Optional[np.ndarray] = None   # path hops per record, -1 if unknown
    hist_all: Optional[hops.HopHistogram] = None
    hist_greedy: Optional[hops.HopHistogram] = None
    app_all: Optional[Dict[apps.AppCategory, float]] = None
    app_greedy: Optional[Dict[apps.AppCategory, float]] = None
    fwd_host_estimates: Optional[hops.HostEstimates] = None
    rev_host_estimates: Optional[hops.HostEstimates] = None

    def gate_line(self) -> dict:
        """The one-line per-trace summary printed on stdout."""
        return {"trace": self.trace_id, "mean_bps": self.series.mean_bps,
                "skewness": self.series.skewness, "kept": self.gate_kept}


def analyze_trace(pcap_path, params: AnalysisParams,
                  db: hops.FingerprintDb) -> AnalysisResult:
    """Run the whole pipeline over one capture file.

    Direction handling: the keep filter defines forward traffic; the same
    prefixes on the opposite side select the reverse direction, which is
    only used to estimate destination-side hop distances. `db` is the
    fingerprint database that `params.fingerprints` names.
    """
    packets, summary = ingest.read_trace(pcap_path)
    fwd, rev = ingest.DirectionFilter.parse(params.keep).split(packets)
    summary.kept = len(fwd)
    summary.filtered = len(packets) - len(fwd)
    del packets

    series = variability.throughput_series(fwd, params)
    gate_kept = variability.gate_trace(series, params.skew_min)

    result = AnalysisResult(trace_id=Path(pcap_path).stem, params=params,
                            summary=summary, series=series, gate_kept=gate_kept,
                            analyzed=gate_kept or params.force)
    if not result.analyzed:
        return result

    result.records = flows.aggregate(fwd, params)

    if len(result.records):
        result.curve = tail.llcd(result.records.n_packets)
        try:
            result.fit = tail.fit_tail(result.curve, x_min=params.greedy_threshold)
        except tail.InsufficientTailError as exc:
            result.fit_reason = str(exc)
    else:
        result.fit_reason = "no flow records"

    fwd_est = hops.estimate_hosts(fwd, db)
    rev_est = fwd_est if rev is fwd else hops.estimate_hosts(rev, db)
    result.flow_hops = hops.flow_hop_estimates(result.records, fwd_est, rev_est)
    result.hist_all = hops.hop_histogram(result.records, result.flow_hops, False)
    result.hist_greedy = hops.hop_histogram(result.records, result.flow_hops, True)
    result.fwd_host_estimates = fwd_est
    result.rev_host_estimates = rev_est

    result.app_all = apps.breakdown(result.records, False, params.http_ports)
    result.app_greedy = apps.breakdown(result.records, True, params.http_ports)
    return result


def _app_table(result: AnalysisResult) -> dict:
    table = {}
    for cat in apps.AppCategory:
        table[cat.value] = {
            "all": result.app_all[cat] if result.app_all else None,
            "greedy": result.app_greedy[cat] if result.app_greedy else None,
        }
    return table


def report_dict(result: AnalysisResult) -> dict:
    s = result.summary
    doc = {
        "trace_id": result.trace_id,
        "parameters": result.params.to_dict(),
        "ingest": {"total": s.total, "kept": s.kept, "skipped": s.skipped,
                   "non_ipv4": s.non_ipv4, "malformed": s.malformed,
                   "filtered": s.filtered},
        "gate": {"mean_bps": result.series.mean_bps,
                 "skewness": result.series.skewness,
                 "kept": result.gate_kept},
    }
    if not result.analyzed:
        return doc

    fwd_est = result.fwd_host_estimates
    rev_est = result.rev_host_estimates
    n_records = len(result.records)
    doc["flows"] = {"n_records": n_records,
                    "n_greedy": int(np.count_nonzero(result.records.is_greedy))}
    if result.fit is not None:
        doc["llcd_fit"] = {"alpha": result.fit.alpha, "x_min": result.fit.x_min,
                           "r_squared": result.fit.r_squared,
                           "n_tail": result.fit.n_tail}
    else:
        doc["llcd_fit"] = None
        doc["llcd_fit_reason"] = result.fit_reason
    doc["hop_summary"] = {
        "mean_all": result.hist_all.mean,
        "mean_greedy": result.hist_greedy.mean,
        "n_all": result.hist_all.n,
        "n_greedy": result.hist_greedy.n,
        "coverage_fraction": result.hist_all.n / n_records if n_records else 0.0,
        "fingerprint_fraction_fwd": fwd_est.fingerprint_fraction,
        "fallback_fraction_fwd": fwd_est.fallback_fraction,
        "fingerprint_fraction_rev": rev_est.fingerprint_fraction,
        "fallback_fraction_rev": rev_est.fallback_fraction,
        "assumes_symmetric_routing": True,
    }
    doc["app_table"] = _app_table(result)
    return doc


def write_report(result: AnalysisResult, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "throughput.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["interval_index", "bps"])
        for i, v in enumerate(result.series.values):
            w.writerow([i, repr(v)])

    if result.analyzed:
        flows.write_flows_csv(result.records, out_dir / "flows.csv")
        tail.write_llcd_csv(result.curve or (), out_dir / "llcd.csv")
        hops.write_hops_csv(result.hist_all, out_dir / "hops_all.csv")
        hops.write_hops_csv(result.hist_greedy, out_dir / "hops_greedy.csv")

    report_path = out_dir / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report_path
