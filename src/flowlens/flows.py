"""Per-time-block flow aggregation and greedy-flow selection.

A trace is cut into fixed-length blocks and packets sharing an identical
5-tuple within one block form a flow. The same 5-tuple in another block is
an independent flow. Packet times are integer microseconds, so a block
index is an integer division and boundary packets land deterministically
(float division would misplace e.g. 0.3/0.1).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .pcapio import Packets, ipv4_str


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


def aggregate(packets: Packets, cfg: BlockingConfig) -> List[BlockFlowRecord]:
    """Group packets into per-(block, 5-tuple) flow records.

    Flows with fewer than min_packets packets are dropped here; they still
    count toward throughput, which is computed from the raw packet stream.
    Non-first fragments carry no 5-tuple and are likewise excluded.
    Blocks are half-open, [i*tau, (i+1)*tau): a boundary packet joins the
    later one. Records come in (block, FlowKey) order.
    """
    keyed = ~packets.is_fragment
    if not keyed.any():
        return []
    block = packets.ts_us[keyed] // cfg.tau_us
    # FlowKey compares dotted-quad strings ("10.0.0.10" < "10.0.0.2"), so
    # addresses sort by the rank of their string among the distinct ones
    addrs = np.unique(np.concatenate([packets.src[keyed], packets.dst[keyed]]))
    names = [ipv4_str(a) for a in addrs.tolist()]
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    src = np.searchsorted(addrs, packets.src[keyed])
    dst = np.searchsorted(addrs, packets.dst[keyed])
    pair = rank[src] << 32 | rank[dst]
    # sport 16 | dport 16 | proto 8 | ttl 8 bits: the rest of the key, then the TTL
    low = (packets.src_port[keyed].astype(np.int64) << 32
           | packets.dst_port[keyed].astype(np.int64) << 16
           | packets.proto[keyed].astype(np.int64) << 8 | packets.ttl[keyed])
    order = np.lexsort((low, pair, block))
    block, pair, low = block[order], pair[order], low[order]
    ip_len = packets.ip_len[keyed][order]

    key_change = ((block[1:] != block[:-1]) | (pair[1:] != pair[:-1])
                  | (low[1:] >> 8 != low[:-1] >> 8))
    new_flow = np.append(True, key_change)
    new_ttl = np.append(True, key_change | (low[1:] != low[:-1]))
    starts = np.flatnonzero(new_flow)
    n_packets = np.diff(np.append(starts, len(order)))
    n_bytes = np.add.reduceat(ip_len.astype(np.int64), starts)
    # modal TTL: of each flow's (count, ttl) runs the largest wins, so ties
    # go to the larger TTL
    ttl_starts = np.flatnonzero(new_ttl)
    score = np.diff(np.append(ttl_starts, len(order))) << 8 | (low[ttl_starts] & 0xFF)
    rep_ttl = np.maximum.reduceat(score, np.flatnonzero(new_flow[ttl_starts])) & 0xFF

    admitted = n_packets >= cfg.min_packets
    first = starts[admitted]
    key_low, rows = low[first] >> 8, order[first]
    return [BlockFlowRecord(block_index=b, key=FlowKey(names[s], names[d], sp, dp, pr),
                            n_packets=n, n_bytes=nb,
                            is_greedy=n > cfg.greedy_threshold, rep_ttl=t)
            for b, s, d, sp, dp, pr, n, nb, t in zip(
                block[first].tolist(), src[rows].tolist(), dst[rows].tolist(),
                (key_low >> 24).tolist(),
                (key_low >> 8 & 0xFFFF).tolist(), (key_low & 0xFF).tolist(),
                n_packets[admitted].tolist(), n_bytes[admitted].tolist(),
                rep_ttl[admitted].tolist())]


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
