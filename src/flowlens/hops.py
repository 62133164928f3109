"""TTL-based hop estimation backed by a passive-fingerprint database.

A host's distance to the monitor is the difference between the TTL its
stack started with and the TTL we observe. The initial TTL is taken from a
SYN fingerprint match when one exists; otherwise it falls back to the
smallest standard initial value (32/64/128/255) at or above the modal
observed TTL. Summing the two monitor-relative distances of a flow's
endpoints gives the path hop count, under the assumption that forward and
reverse routes coincide.

Fingerprint database file format (UTF-8 text, one entry per line):

    window|initial_ttl|df|options|mss|os_label

  window   exact decimal window size (0-65535), or * for any
  initial_ttl   one of 32, 64, 128, 255
  df       1, 0, or *
  options  comma-separated option kinds in on-wire order
           (MSS, SACK, TS, NOP, WS, EOL, or the decimal number, 0-255,
           of any other kind), `-` for an empty option list, or * for
           any layout
  mss      exact decimal value (0-65535), * for any, or `mtu` for the
           usual MTU-derived values (536, 966, 1452, 1460)
  os_label free text

`#` starts a comment; blank lines are ignored; the first matching line wins.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .flows import Flows
from .pcapio import OPTION_TOKENS, Packets, SynSignature, ipv4_strs

log = logging.getLogger(__name__)

STANDARD_INITIAL_TTLS = (32, 64, 128, 255)
MAX_PLAUSIBLE_HOPS = 64
MTU_DERIVED_MSS = frozenset({536, 966, 1452, 1460})

WILDCARD = "*"
MTU_TOKEN = "mtu"


class FingerprintFormatError(ValueError):
    """Database text failed validation; message lists the offending lines."""


@dataclass(frozen=True)
class FingerprintEntry:
    os_label: str
    initial_ttl: int
    window_size: Optional[int] = None                 # None = wildcard
    df_flag: Optional[bool] = None                    # None = wildcard
    options_layout: Optional[Tuple[str, ...]] = None  # None = wildcard
    mss: Union[int, str, None] = None                 # None wildcard, int exact, "mtu"

    def __post_init__(self):
        if self.initial_ttl not in STANDARD_INITIAL_TTLS:
            raise ValueError(f"initial_ttl {self.initial_ttl} not a standard value")
        if (self.window_size is None and self.df_flag is None
                and self.options_layout is None and self.mss is None):
            raise ValueError("entry needs at least one non-wildcard matcher field")

    def matches(self, sig: SynSignature) -> bool:
        if self.initial_ttl < sig.observed_ttl:
            return False
        if self.window_size is not None and self.window_size != sig.window_size:
            return False
        if self.df_flag is not None and self.df_flag != sig.df_flag:
            return False
        if self.options_layout is not None and self.options_layout != sig.options_layout:
            return False
        if self.mss is not None:
            if self.mss == MTU_TOKEN:
                if sig.mss not in MTU_DERIVED_MSS:
                    return False
            elif self.mss != sig.mss:
                return False
        return True


def _u16(text: str, name: str) -> int:
    value = int(text)
    if not 0 <= value <= 0xFFFF:
        raise ValueError(f"{name} must be in 0..65535, got {value}")
    return value


def _parse_entry(line: str) -> FingerprintEntry:
    parts = line.split("|")
    if len(parts) != 6:
        raise ValueError(f"expected 6 |-separated fields, got {len(parts)}")
    win_s, ttl_s, df_s, opt_s, mss_s, label = (p.strip() for p in parts)
    window = None if win_s == WILDCARD else _u16(win_s, "window")
    initial_ttl = int(ttl_s)
    if df_s == WILDCARD:
        df = None
    elif df_s in ("0", "1"):
        df = df_s == "1"
    else:
        raise ValueError(f"df must be 0, 1 or *, got {df_s!r}")
    if opt_s == WILDCARD:
        layout: Optional[Tuple[str, ...]] = None
    elif opt_s == "-":
        layout = ()
    else:
        layout = tuple(tok.strip() for tok in opt_s.split(","))
        unknown = [tok for tok in layout if tok not in OPTION_TOKENS]
        if unknown:     # parse_tcp_options never emits it, so the entry never matches
            raise ValueError(f"unknown option token {unknown[0]!r}")
    mss: Union[int, str, None]
    if mss_s == WILDCARD:
        mss = None
    elif mss_s == MTU_TOKEN:
        mss = MTU_TOKEN
    else:
        mss = _u16(mss_s, "mss")
    if not label:
        raise ValueError("os_label must not be empty")
    return FingerprintEntry(os_label=label, initial_ttl=initial_ttl,
                            window_size=window, df_flag=df,
                            options_layout=layout, mss=mss)


@dataclass(frozen=True)
class FingerprintDb:
    entries: Tuple[FingerprintEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("fingerprint database must not be empty")

    @classmethod
    def loads(cls, text: str) -> "FingerprintDb":
        entries = []
        errors = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                entries.append(_parse_entry(line))
            except ValueError as exc:
                errors.append(f"line {lineno}: {exc}")
        if errors:
            raise FingerprintFormatError("; ".join(errors))
        if not entries:
            raise FingerprintFormatError("no entries found")
        return cls(entries=tuple(entries))

    @classmethod
    def load(cls, path) -> "FingerprintDb":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())

    @classmethod
    def default(cls) -> "FingerprintDb":
        """The built-in table of common year-2001 stacks (see data/)."""
        text = resources.files("flowlens.data").joinpath("fingerprints.default").read_text()
        return cls.loads(text)

    def find(self, os_label: str) -> Optional[FingerprintEntry]:
        for e in self.entries:
            if e.os_label == os_label:
                return e
        return None


def match_fingerprint(sig: SynSignature, db: FingerprintDb) -> Optional[FingerprintEntry]:
    """First entry whose non-wildcard fields all match; None otherwise."""
    for entry in db.entries:
        if entry.matches(sig):
            return entry
    return None


def _no_rows(dtype):
    return field(default_factory=lambda: np.zeros(0, dtype=dtype))


@dataclass
class HostEstimates:
    """Per-source-address estimates as columns sorted by address, plus coverage.

    Hosts whose arithmetic lands outside [0, 64] hops are implausible
    (usually a fallback guess one initial-TTL tier too high) and, like a
    host whose modal TTL is 0 without a fingerprint, are left out of the
    columns but still counted in n_hosts and listed in `rejected`, in
    address order.
    """

    addrs: np.ndarray = _no_rows(np.uint32)       # ascending
    hops: np.ndarray = _no_rows(np.int64)         # hops to the monitor
    initial_ttl: np.ndarray = _no_rows(np.int64)
    ttl_conflict: np.ndarray = _no_rows(np.bool_)
    os_labels: Dict[int, str] = field(default_factory=dict)   # of fingerprinted hosts
    n_hosts: int = 0
    rejected: Tuple[str, ...] = ()

    @property
    def n_fingerprint(self) -> int:
        return len(self.os_labels)

    @property
    def n_fallback(self) -> int:
        return len(self.addrs) - self.n_fingerprint

    @property
    def fingerprint_fraction(self) -> float:
        return self.n_fingerprint / self.n_hosts if self.n_hosts else 0.0

    @property
    def fallback_fraction(self) -> float:
        return self.n_fallback / self.n_hosts if self.n_hosts else 0.0

    def hops_of(self, addrs: np.ndarray) -> np.ndarray:
        """Hops to the monitor of each address; -1 where there is no estimate."""
        if not len(self.addrs):
            return np.full(len(addrs), -1, dtype=np.int64)
        i = np.searchsorted(self.addrs, addrs).clip(max=len(self.addrs) - 1)
        return np.where(self.addrs[i] == addrs, self.hops[i], -1)


def estimate_hosts(packets: Packets, db: FingerprintDb) -> HostEstimates:
    """One TTL-distance estimate per source IP seen in the stream.

    The modal TTL is the anchor (ties toward the larger TTL, i.e. the
    shorter path); a host emitting several distinct TTLs is flagged since
    its route apparently changed mid-trace. A host's fingerprint is its
    earliest SYN by `ts_us` that matches the database, ties going to the
    earlier row; without one, its initial TTL is the smallest standard
    value at or above the modal TTL. No result depends on row order.
    `rejected` lists hosts in address order, and one warning per call
    counts them by reason.
    """
    if not len(packets):
        return HostEstimates()
    addrs, host = np.unique(packets.src, return_inverse=True)
    # every (host, ttl) pair with its count, host-major: one run per host
    pairs, counts = np.unique(host.astype(np.int64) << 8 | packets.ttl, return_counts=True)
    runs = np.flatnonzero(np.append(True, pairs[1:] >> 8 != pairs[:-1] >> 8))
    modal = np.maximum.reduceat(counts << 8 | (pairs & 0xFF), runs) & 0xFF
    conflict = np.diff(np.append(runs, len(pairs))) > 1

    # each host's earliest matching SYN row; the stable sort keeps time ties in row order
    entries = [match_fingerprint(sig, db) for sig in packets.sigs]
    matches = np.array([entry is not None for entry in entries] + [False])  # [-1]: no SYN
    rows = np.flatnonzero(matches[packets.sig])
    rows = rows[np.argsort(packets.ts_us[rows], kind="stable")]
    matched, first = np.unique(host[rows], return_index=True)
    matched_entries = [entries[i] for i in packets.sig[rows[first]].tolist()]

    standard = np.array(STANDARD_INITIAL_TTLS)
    initial = standard[np.searchsorted(standard, modal)]
    fingerprint = np.zeros(len(addrs), dtype=bool)
    fingerprint[matched] = True
    initial[matched] = [entry.initial_ttl for entry in matched_entries]
    hops = initial - modal
    ttl_zero = ~fingerprint & (modal == 0)
    implausible = ~ttl_zero & ((hops < 0) | (hops > MAX_PLAUSIBLE_HOPS))
    ok = ~(ttl_zero | implausible)

    rejected = np.flatnonzero(~ok)
    if len(rejected):
        log.warning("%d of %d hosts rejected: %d with modal TTL 0, "
                    "%d with an implausible hop estimate", len(rejected), len(addrs),
                    np.count_nonzero(ttl_zero), np.count_nonzero(implausible))
    return HostEstimates(
        addrs=addrs[ok], hops=hops[ok], initial_ttl=initial[ok], ttl_conflict=conflict[ok],
        os_labels={addr: entry.os_label for addr, entry, kept in zip(
            addrs[matched].tolist(), matched_entries, ok[matched].tolist()) if kept},
        n_hosts=len(addrs),
        rejected=ipv4_strs(addrs[rejected]))


def flow_hop_estimates(flows: Flows, host_map_fwd: HostEstimates,
                       host_map_rev: HostEstimates) -> np.ndarray:
    """Path hop count of each flow row; -1 unless both endpoints are estimated.

    The source's distance comes from forward traffic, the destination's from
    reverse-direction traffic, where that host appears as a source. The path
    is their sum, under the symmetric-routing assumption.
    """
    src = host_map_fwd.hops_of(flows.src)
    dst = host_map_rev.hops_of(flows.dst)
    return np.where((src >= 0) & (dst >= 0), src + dst, -1)


@dataclass(frozen=True)
class HopHistogram:
    counts: Tuple[Tuple[int, int], ...]   # (hop count, frequency), hops increasing
    mean: Optional[float]
    n: int


def hop_histogram(flows: Flows, path_hops: np.ndarray,
                  greedy_only: bool = False) -> HopHistogram:
    """Histogram of path hop counts, one entry per per-block flow record.

    `path_hops` is flow_hop_estimates' column. Weighting is per flow
    instance: a 5-tuple active in ten blocks contributes ten entries
    (weighting unique keys once would be the other option). Records without
    an estimate are skipped; the caller reports coverage alongside.
    """
    chosen = path_hops >= 0
    if greedy_only:
        chosen &= flows.is_greedy
    freq = np.bincount(path_hops[chosen])
    counts = tuple((h, c) for h, c in enumerate(freq.tolist()) if c)
    n = sum(c for _, c in counts)
    if n == 0:
        log.warning("hop histogram is empty (no estimable %sflows)",
                    "greedy " if greedy_only else "")
        return HopHistogram(counts=(), mean=None, n=0)
    mean = sum(h * c for h, c in counts) / n
    return HopHistogram(counts=counts, mean=mean, n=n)


def write_hops_csv(hist: HopHistogram, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["hops", "count"])
        for hops, count in hist.counts:
            w.writerow([hops, count])
