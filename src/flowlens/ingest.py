"""Trace ingestion: pcap files to normalized packet records, and direction filters.

Timestamps are re-based to the first frame of the capture so block indices
are trace-relative, and records are re-sorted by timestamp. Only IPv4 is
handled; anything else is counted and skipped. A non-first IP fragment has
no transport header, so it keeps its byte count for rate statistics but is
flagged and never contributes to flow keys.
"""

from __future__ import annotations

import enum
import ipaddress
import logging
import socket
import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

from . import pcapio
from .pcapio import PROTO_TCP, TCP_ACK, TCP_SYN

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynSignature:
    """Stack-identifying fields of a TCP SYN (SYN set, ACK clear)."""

    window_size: int
    observed_ttl: int
    df_flag: bool
    mss: Optional[int]
    options_layout: Tuple[str, ...]
    truncated_options: bool = False   # layout cut short at a malformed option


@dataclass(frozen=True)
class PacketRecord:
    """One captured IPv4 packet, timestamp relative to capture start."""

    timestamp: float        # seconds, microsecond resolution
    src_ip: str
    dst_ip: str
    src_port: int           # 0 when the protocol has no ports
    dst_port: int
    proto: int              # raw IP protocol number (6/17/1/...)
    ttl: int
    ip_len: int             # total IP datagram length from the header
    is_fragment: bool = False     # non-first fragment: excluded from flow keying
    syn_sig: Optional[SynSignature] = None

    def __post_init__(self):
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"ttl {self.ttl} out of range")
        if self.ip_len < 20:
            raise ValueError(f"ip_len {self.ip_len} below IPv4 minimum")


class FilterMode(enum.Enum):
    ALL = "all"
    SRC_IN_PREFIX_SET = "src"
    DST_IN_PREFIX_SET = "dst"


@dataclass(frozen=True)
class DirectionFilter:
    """Pure keep/drop predicate on source or destination prefix membership."""

    mode: FilterMode = FilterMode.ALL
    prefixes: Tuple[ipaddress.IPv4Network, ...] = ()
    _masks: Tuple[Tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode is not FilterMode.ALL and not self.prefixes:
            raise ValueError("prefix filter requires at least one CIDR prefix")
        masks = tuple((int(net.network_address), int(net.netmask)) for net in self.prefixes)
        object.__setattr__(self, "_masks", masks)

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
        mode = FilterMode.SRC_IN_PREFIX_SET if side == "src" else FilterMode.DST_IN_PREFIX_SET
        return cls(mode=mode, prefixes=nets)

    def keep(self, record: PacketRecord) -> bool:
        if self.mode is FilterMode.ALL:
            return True
        ip = record.src_ip if self.mode is FilterMode.SRC_IN_PREFIX_SET else record.dst_ip
        addr = struct.unpack("!I", socket.inet_aton(ip))[0]
        return any(addr & mask == net for net, mask in self._masks)

    def mirrored(self) -> "DirectionFilter":
        """The same prefixes on the opposite side (reverse-direction traffic)."""
        if self.mode is FilterMode.ALL:
            return self
        mode = (FilterMode.DST_IN_PREFIX_SET
                if self.mode is FilterMode.SRC_IN_PREFIX_SET
                else FilterMode.SRC_IN_PREFIX_SET)
        return DirectionFilter(mode=mode, prefixes=self.prefixes)


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


# Symbolic names for the option kinds that matter to fingerprinting.
_OPT_NAMES = {0: "EOL", 1: "NOP", 2: "MSS", 3: "WS", 4: "SACK", 8: "TS"}
_OPT_FIXED_LEN = {2: 4, 3: 3, 4: 2, 8: 10}


def parse_tcp_options(buf: bytes) -> Tuple[Tuple[str, ...], Optional[int], bool]:
    """Walk TCP options; returns (layout, mss, truncated_at_malformed)."""
    layout = []
    mss = None
    i = 0
    n = len(buf)
    while i < n:
        kind = buf[i]
        if kind == 0:
            layout.append("EOL")
            break
        if kind == 1:
            layout.append("NOP")
            i += 1
            continue
        if i + 1 >= n:
            return tuple(layout), mss, True
        length = buf[i + 1]
        fixed = _OPT_FIXED_LEN.get(kind)
        if length < 2 or i + length > n or (fixed is not None and length != fixed):
            return tuple(layout), mss, True
        if kind == 2:
            mss = (buf[i + 2] << 8) | buf[i + 3]
        layout.append(_OPT_NAMES.get(kind, str(kind)))
        i += length
    return tuple(layout), mss, False


def extract_syn_signature(tcp_flags: int, window_size: int, ttl: int,
                          df_flag: bool, options: Optional[bytes]) -> Optional[SynSignature]:
    """Signature for a pure SYN; None when SYN is absent or ACK present."""
    if not (tcp_flags & TCP_SYN) or (tcp_flags & TCP_ACK):
        return None
    layout, mss, truncated = parse_tcp_options(options or b"")
    return SynSignature(window_size=window_size, observed_ttl=ttl, df_flag=df_flag,
                        mss=mss, options_layout=layout, truncated_options=truncated)


def read_trace(path) -> Tuple[list, IngestSummary]:
    """Read a pcap into timestamp-ordered PacketRecords.

    Counts frames, non-IPv4 frames and malformed IPv4 frames; direction
    filtering is left to the caller. The whole trace is buffered because
    re-sorting by timestamp requires it.
    """
    summary = IngestSummary()
    rows = []  # (ts_us, ParsedIPv4)
    with pcapio.PcapReader(path) as reader:
        linktype = reader.linktype
        for frame in reader:
            summary.total += 1
            ip_bytes = pcapio.ipv4_payload(frame.data, linktype)
            if ip_bytes is None:
                summary.non_ipv4 += 1
                continue
            parsed = pcapio.parse_ipv4(ip_bytes)
            if parsed is None:
                summary.malformed += 1
                continue
            rows.append((frame.ts_us, parsed))

    if not rows:
        return [], summary

    t0 = min(ts for ts, _ in rows)
    rows.sort(key=lambda r: r[0])

    records = []
    for ts_us, p in rows:
        sig = None
        if p.proto == PROTO_TCP and not p.is_fragment:
            sig = extract_syn_signature(p.tcp_flags, p.tcp_window, p.ttl,
                                        p.df_flag, p.tcp_options)
        records.append(PacketRecord(timestamp=(ts_us - t0) / 1e6,
                                    src_ip=p.src_ip, dst_ip=p.dst_ip,
                                    src_port=p.src_port, dst_port=p.dst_port,
                                    proto=p.proto, ttl=p.ttl, ip_len=p.ip_len,
                                    is_fragment=p.is_fragment, syn_sig=sig))
    return records, summary
