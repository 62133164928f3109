"""Reference forms of flowlens results, for the tests to compare against.

The package computes on columns; these are the plain-Python views the
tests state their expectations in: address strings, a Packets table built
from PacketRecords, row-by-row equality, the flows.csv rows of a Flows
table, one host's estimate, and the fallback initial TTL.
"""

from __future__ import annotations

import socket
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from flowlens.flows import Flows
from flowlens.hops import STANDARD_INITIAL_TTLS, HostEstimates
from flowlens.pcapio import COLUMNS, PacketRecord, Packets, ipv4_strs


def ipv4_str(value: int) -> str:
    """32-bit value to its dotted quad, as socket.inet_ntoa writes it."""
    return socket.inet_ntoa(int(value).to_bytes(4, "big"))


def ipv4_int(text: str) -> int:
    """Dotted quad to its 32-bit value, the inverse of ipv4_str."""
    return int.from_bytes(socket.inet_aton(text), "big")


def from_records(records: Sequence[PacketRecord]) -> Packets:
    """Columns of PacketRecords, in list order; sigs in order of first use."""
    index = {None: -1}      # SynSignature -> its index in sigs; no SYN -> -1
    values = [[r.ts_us for r in records],
              [ipv4_int(r.src_ip) for r in records],
              [ipv4_int(r.dst_ip) for r in records],
              [r.src_port for r in records], [r.dst_port for r in records],
              [r.proto for r in records], [r.ttl for r in records],
              [r.ip_len for r in records], [r.is_fragment for r in records],
              [index.setdefault(r.syn_sig, len(index) - 1) for r in records]]
    return Packets(*(np.array(v, dtype=dtype) for v, (_, dtype) in zip(values, COLUMNS)),
                   sigs=tuple(index)[1:])


def _row_sigs(packets: Packets) -> list:
    """Each row's SynSignature, None where the row is not a pure SYN."""
    return [None if i < 0 else packets.sigs[i] for i in packets.sig.tolist()]


def same_packets(a: Packets, b: Packets) -> bool:
    """Equal rows, comparing each SYN's signature rather than its index."""
    return (all(x.dtype == y.dtype and np.array_equal(x, y)
                for x, y, (name, _) in zip(a.columns(), b.columns(), COLUMNS)
                if name != "sig")
            and _row_sigs(a) == _row_sigs(b))


def flow_rows(flows: Flows) -> Iterator[tuple]:
    """The flows.csv rows: dotted quads for addresses, 0/1 for the greedy flag."""
    return zip(flows.block.tolist(), ipv4_strs(flows.src), ipv4_strs(flows.dst),
               flows.src_port.tolist(), flows.dst_port.tolist(), flows.proto.tolist(),
               flows.n_packets.tolist(), flows.n_bytes.tolist(),
               flows.is_greedy.view(np.uint8).tolist(), flows.rep_ttl.tolist())


class Host(NamedTuple):
    """One host's row of HostEstimates; os_label is None unless fingerprinted."""

    hops: int
    initial_ttl: int
    ttl_conflict: bool
    os_label: Optional[str]


def host_row(estimates: HostEstimates, ip: str) -> Optional[Host]:
    """The estimate for `ip`; None when the host has none."""
    addr = ipv4_int(ip)
    i = int(np.searchsorted(estimates.addrs, addr))
    if i == len(estimates.addrs) or estimates.addrs[i] != addr:
        return None
    return Host(int(estimates.hops[i]), int(estimates.initial_ttl[i]),
                bool(estimates.ttl_conflict[i]), estimates.os_labels.get(addr))


def infer_initial_ttl(observed_ttl: int) -> int:
    """Smallest standard initial TTL at or above the observed value."""
    if observed_ttl < 1:
        raise ValueError("observed TTL of 0 cannot have reached the monitor")
    if observed_ttl > 255:
        raise ValueError(f"TTL {observed_ttl} out of range")
    return next(ttl for ttl in STANDARD_INITIAL_TTLS if ttl >= observed_ttl)
