"""Trace ingestion: pcap files to normalized packet records, and direction filters.

Timestamps are re-based to the trace's earliest valid IPv4 packet so block
indices are trace-relative, and records are re-sorted by timestamp. Only
IPv4 is handled; anything else is counted and skipped. A non-first IP
fragment has no transport header, so it keeps its byte count for rate
statistics but is flagged and never contributes to flow keys.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Tuple

from . import pcapio
from .pcapio import PacketRecord


@dataclass(frozen=True)
class DirectionFilter:
    """Source- or destination-side prefix membership; no side keeps all traffic."""

    side: Optional[str] = None      # "src", "dst", or None for all traffic
    prefixes: Tuple[ipaddress.IPv4Network, ...] = ()

    def __post_init__(self):
        if self.side not in (None, "src", "dst"):
            raise ValueError(f"bad filter side {self.side!r}")
        if self.side is not None and not self.prefixes:
            raise ValueError("prefix filter requires at least one CIDR prefix")

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

    def split(self, records: List[PacketRecord]) -> Tuple[list, list]:
        """(forward, reverse) records, each in input order.

        Forward traffic has the filter's side in a prefix; reverse traffic
        has the opposite side in one. With no side both are `records`.
        """
        if self.side is None:
            return records, records
        inside = {ip: any(ipaddress.IPv4Address(ip) in net for net in self.prefixes)
                  for ip in {ip for r in records for ip in (r.src_ip, r.dst_ip)}}
        fwd, rev = [], []
        src_inside, dst_inside = (fwd, rev) if self.side == "src" else (rev, fwd)
        for r in records:
            if inside[r.src_ip]:
                src_inside.append(r)
            if inside[r.dst_ip]:
                dst_inside.append(r)
        return fwd, rev


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


def read_trace(path) -> Tuple[List[PacketRecord], IngestSummary]:
    """Read a pcap into timestamp-ordered PacketRecords.

    Counts frames, non-IPv4 frames and malformed IPv4 frames; direction
    filtering is left to the caller. The whole trace is buffered because
    re-sorting by timestamp requires it.
    """
    summary = IngestSummary()
    records = []
    with pcapio.PcapReader(path) as reader:
        linktype = reader.linktype
        for frame in reader:
            summary.total += 1
            ip_bytes = pcapio.ipv4_payload(frame.data, linktype)
            if ip_bytes is None:
                summary.non_ipv4 += 1
                continue
            record = pcapio.parse_ipv4(ip_bytes)
            if record is None:
                summary.malformed += 1
                continue
            record.ts_us = frame.ts_us
            records.append(record)

    if records:
        records.sort(key=attrgetter("ts_us"))
        t0 = records[0].ts_us
        for record in records:
            record.ts_us -= t0
    return records, summary
