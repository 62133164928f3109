"""Per-time-block flow aggregation and greedy-flow selection.

A trace is cut into fixed-length blocks and packets sharing an identical
5-tuple within one block form a flow. The same 5-tuple in another block is
an independent flow. Packet times are integer microseconds, so a block
index is an integer division and boundary packets land deterministically
(float division would misplace e.g. 0.3/0.1).
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List

from .pcapio import PacketRecord


@dataclass(frozen=True, order=True)
class FlowKey:
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int


@dataclass(frozen=True)
class BlockingConfig:
    tau: float = 0.1            # block length, seconds
    min_packets: int = 2        # flow admission threshold
    greedy_threshold: int = 20  # strictly more packets than this => greedy

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if round(self.tau * 1e6) < 1:
            raise ValueError("tau must be at least one microsecond")
        if self.min_packets < 2:
            raise ValueError("min_packets must be >= 2")
        if self.greedy_threshold < self.min_packets:
            raise ValueError("greedy_threshold must be >= min_packets")

    @property
    def tau_us(self) -> int:
        return round(self.tau * 1e6)


@dataclass(frozen=True)
class BlockFlowRecord:
    block_index: int
    key: FlowKey
    n_packets: int
    n_bytes: int
    is_greedy: bool
    rep_ttl: int    # modal observed TTL, ties broken toward the larger value


def aggregate(packets: Iterable[PacketRecord], cfg: BlockingConfig) -> List[BlockFlowRecord]:
    """Group packets into per-(block, 5-tuple) flow records.

    Flows with fewer than min_packets packets are dropped here; they still
    count toward throughput, which is computed from the raw packet stream.
    Non-first fragments carry no 5-tuple and are likewise excluded.
    Blocks are half-open, [i*tau, (i+1)*tau): a boundary packet joins the
    later one.
    """
    tau_us = cfg.tau_us
    cells = {}
    for p in packets:
        if p.is_fragment:
            continue
        cell = (p.ts_us // tau_us,
                FlowKey(p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto))
        entry = cells.get(cell)
        if entry is None:
            cells[cell] = [1, p.ip_len, Counter((p.ttl,))]
        else:
            entry[0] += 1
            entry[1] += p.ip_len
            entry[2][p.ttl] += 1

    records = []
    for (idx, key), (n, nbytes, ttls) in sorted(cells.items()):
        if n < cfg.min_packets:
            continue
        rep_ttl = max(ttls.items(), key=lambda kv: (kv[1], kv[0]))[0]
        records.append(BlockFlowRecord(block_index=idx, key=key, n_packets=n,
                                       n_bytes=nbytes,
                                       is_greedy=n > cfg.greedy_threshold,
                                       rep_ttl=rep_ttl))
    return records


def greedy_throughput_equivalent(cfg: BlockingConfig, avg_packet_bytes: float) -> float:
    """Bits per second a flow sends when it just clears the greedy threshold."""
    if avg_packet_bytes <= 0:
        raise ValueError("avg_packet_bytes must be positive")
    return cfg.greedy_threshold * avg_packet_bytes * 8 / cfg.tau


FLOWS_CSV_HEADER = ["block_index", "src_ip", "dst_ip", "src_port", "dst_port",
                    "proto", "n_packets", "n_bytes", "is_greedy", "rep_ttl"]


def write_flows_csv(records: Iterable[BlockFlowRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FLOWS_CSV_HEADER)
        for r in records:
            w.writerow([r.block_index, r.key.src_ip, r.key.dst_ip,
                        r.key.src_port, r.key.dst_port, r.key.proto,
                        r.n_packets, r.n_bytes, int(r.is_greedy), r.rep_ttl])
