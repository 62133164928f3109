"""Trace ingestion: pcap files to normalized Packets columns, and direction filters.

Timestamps are re-based to the trace's earliest valid IPv4 packet so block
indices are trace-relative. Rows keep the file's order, on which no stage
depends. Only IPv4 is handled; anything else is counted and skipped. A
non-first IP fragment has no transport header, so it keeps its byte count
for rate statistics but is flagged and never contributes to flow keys.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import pcapio
from .pcapio import Packets


@dataclass(frozen=True)
class DirectionFilter:
    """Source- or destination-side prefix membership; no side keeps all traffic."""

    side: Optional[str] = None      # "src", "dst", or None for all traffic
    prefixes: Tuple[ipaddress.IPv4Network, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "DirectionFilter":
        """Parse 'src:10.0.0.0/8,192.168.0.0/16' / 'dst:...' / 'all'."""
        if spec.strip().lower() in ("", "all"):
            return cls()
        side, _, rest = spec.partition(":")
        side = side.strip().lower()
        if side not in ("src", "dst") or not rest:
            raise ValueError(f"bad direction filter {spec!r} (want src:<CIDR>[,...])")
        nets = tuple(ipaddress.IPv4Network(p.strip()) for p in rest.split(","))
        return cls(side=side, prefixes=nets)

    def split(self, packets: Packets) -> Tuple[Packets, Packets]:
        """(forward, reverse) packets, each in input order.

        Forward traffic has the filter's side in a prefix; reverse traffic
        has the opposite side in one. With no side both are `packets`.
        """
        if self.side is None:
            return packets, packets
        src_inside, dst_inside = (self._inside(packets.src), self._inside(packets.dst))
        if self.side == "dst":
            src_inside, dst_inside = dst_inside, src_inside
        return packets.take(src_inside), packets.take(dst_inside)

    def _inside(self, addrs: np.ndarray) -> np.ndarray:
        """Mask of the addresses inside any of the prefixes."""
        inside = np.zeros(len(addrs), dtype=bool)
        for net in self.prefixes:
            inside |= (addrs & np.uint32(int(net.netmask))) == np.uint32(int(net.network_address))
        return inside


@dataclass
class IngestSummary:
    total: int = 0          # frames in the file
    non_ipv4: int = 0
    malformed: int = 0
    kept: int = 0           # set by the direction split in report.analyze_trace
    filtered: int = 0       # IPv4 records dropped by the direction filter

    @property
    def skipped(self) -> int:
        """Frames not kept, any reason."""
        return self.total - self.kept


def read_trace(path) -> Tuple[Packets, IngestSummary]:
    """Read a pcap into Packets, one row per IPv4 packet in file order.

    Counts frames, non-IPv4 frames and malformed IPv4 frames; direction
    filtering is left to the caller. The stream is read in fixed-size
    windows and the decoded columns of the whole trace are kept. Columns
    are joined one at a time, so the peak is about one copy of the
    columns (29 B per packet) plus the column being joined and one read
    window. The signature table is the reader's, which lists every
    distinct SYN signature once, in order of first appearance.
    """
    summary = IngestSummary()
    parts = {name: [] for name, _ in pcapio.COLUMNS}
    sigs = ()
    with pcapio.PcapReader(path) as reader:
        for chunk, frames, non_ipv4 in reader.packet_chunks():
            summary.total += frames
            summary.non_ipv4 += non_ipv4
            summary.malformed += frames - non_ipv4 - len(chunk)
            sigs = chunk.sigs               # the table so far: the last one is whole
            for (name, _), col in zip(pcapio.COLUMNS, chunk.columns()):
                parts[name].append(col)

    columns = [np.concatenate(parts.pop(name) or [np.empty(0, dtype)])
               for name, dtype in pcapio.COLUMNS]
    if len(columns[0]):
        columns[0] -= columns[0].min()
    return Packets(*columns, sigs=sigs), summary
