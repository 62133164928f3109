"""Output checks for one `flowlens analyze` run against the generator's truth.

Reads only the files on disk (`report.json`, the CSV sidecars and
`<trace>.ground_truth.json`), never flowlens objects, so the checks keep
meaning the same thing when the program's internals change.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

OUTPUT_FILES = ("report.json", "throughput.csv", "flows.csv", "llcd.csv",
                "hops_all.csv", "hops_greedy.csv")
_GENERATED_AT = re.compile(rb'^\s*"generated_at": .*\n', re.MULTILINE)


def digests(out_dir: Path) -> Dict[str, str]:
    """sha256 of every output file; report.json without its generated_at line."""
    out = {}
    for name in OUTPUT_FILES:
        path = out_dir / name
        if not path.exists():
            out[name] = "missing"
            continue
        data = path.read_bytes()
        if name == "report.json":
            data = _GENERATED_AT.sub(b"", data)
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def reverse_flows(flows: List[dict]) -> Dict[tuple, tuple]:
    """The generator's reverse flows, worked out from the forward ones.

    One 2-packet TCP flow per dst-side host, in the block of that host's
    first forward flow, from the dst host back with the ports swapped.
    Packets all have the size of the forward flows' packets.
    """
    out = {}
    seen = set()
    for f in flows:
        if f["dst_ip"] in seen:
            continue
        seen.add(f["dst_ip"])
        key = (f["block"], f["dst_ip"], f["src_ip"], f["dst_port"], f["src_port"], 6)
        out[key] = (2, 2 * f["n_bytes"] // f["n_packets"])
    return out


@dataclass
class TraceCheck:
    """Oracle verdict and accuracy figures for one trace of one run."""

    errors: List[str] = field(default_factory=list)
    planted: int = 0                    # planted forward flows
    exact: int = 0                      # of those, found with equal counts
    frames: int = 0                     # report ingest.total
    tail_alpha_abs_err: Optional[float] = None
    hop_mean_abs_err: Optional[float] = None
    app_mix_l1_err: Optional[float] = None


def check_trace(out_dir: Path, truth_path: Path, planted_alpha: float,
                keep_all: bool) -> TraceCheck:
    """Compare one trace's outputs with its ground truth.

    Every planted forward flow must appear in flows.csv with the same block,
    5-tuple, packet and byte counts. With a src filter nothing else may
    appear; with `--keep all` so must every reverse flow the generator
    adds, and nothing else. The throughput series must add up to the
    planted byte total.
    """
    res = TraceCheck()
    truth = json.loads(truth_path.read_text(encoding="utf-8"))
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    tau = report["parameters"]["tau"]

    planted = {(f["block"], f["src_ip"], f["dst_ip"], f["src_port"],
                f["dst_port"], f["proto"]): (f["n_packets"], f["n_bytes"])
               for f in truth["flows"]}
    res.planted = len(planted)
    reverse = reverse_flows(truth["flows"]) if keep_all else {}
    found_reverse = 0
    rows = 0
    with open(out_dir / "flows.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            key = (int(row["block_index"]), row["src_ip"], row["dst_ip"],
                   int(row["src_port"]), int(row["dst_port"]), int(row["proto"]))
            want = planted.get(key)
            if want is not None:
                if want == (int(row["n_packets"]), int(row["n_bytes"])):
                    res.exact += 1
                elif len(res.errors) < 5:
                    res.errors.append(f"flow {key}: got {row['n_packets']} packets/"
                                      f"{row['n_bytes']} bytes, planted {want}")
            elif key in reverse:
                if reverse[key] == (int(row["n_packets"]), int(row["n_bytes"])):
                    found_reverse += 1
                elif len(res.errors) < 5:
                    res.errors.append(f"reverse flow {key}: got {row['n_packets']} "
                                      f"packets/{row['n_bytes']} bytes, planted "
                                      f"{reverse[key]}")
            elif len(res.errors) < 5:
                res.errors.append(f"unplanted flow record {key}")
    if res.exact != res.planted:
        res.errors.append(f"{res.planted - res.exact} of {res.planted} planted "
                          "flows not recovered exactly")
    if found_reverse != len(reverse):
        res.errors.append(f"{len(reverse) - found_reverse} of {len(reverse)} reverse "
                          "flows not recovered exactly")
    if report["flows"]["n_records"] != rows:
        res.errors.append(f"report n_records {report['flows']['n_records']} "
                          f"!= {rows} rows in flows.csv")

    with open(out_dir / "throughput.csv", newline="") as fh:
        got_bytes = sum(round(float(r["bps"]) * tau / 8) for r in csv.DictReader(fh))
    totals = truth["totals"]
    want_bytes = totals["bytes"] if keep_all else totals["forward_bytes"]
    if got_bytes != want_bytes:
        res.errors.append(f"throughput adds up to {got_bytes} bytes, planted {want_bytes}")

    res.frames = report["ingest"]["total"]
    if res.frames != totals["packets"]:
        res.errors.append(f"ingest total {res.frames} != {totals['packets']} "
                          "packets written")

    fit = report.get("llcd_fit")
    if fit is not None:
        res.tail_alpha_abs_err = abs(fit["alpha"] - planted_alpha)
    flows = truth["flows"]
    mean_all = report["hop_summary"]["mean_all"]
    if flows and mean_all is not None:
        true_mean = sum(f["path_hops"] for f in flows) / len(flows)
        res.hop_mean_abs_err = abs(mean_all - true_mean)
    if flows:
        counts: Dict[str, int] = {}
        for f in flows:
            counts[f["category"]] = counts.get(f["category"], 0) + 1
        table = report["app_table"]
        res.app_mix_l1_err = sum(abs((table[c]["all"] or 0.0)
                                     - counts.get(c, 0) / len(flows))
                                 for c in table)
    return res
