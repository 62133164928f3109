"""Reference forms of flowlens results, for the tests to compare against.

The package computes on columns; these are the plain-Python views the
tests state their expectations in: address strings, a Packets table built
from PacketRecords, row-by-row equality, the flow key and one flow's
application category, the flows.csv rows of a Flows table, one host's
estimate, the fallback initial TTL, and the generator's
stdlib-call random planner, per-host and per-flow ground truth and
frame-at-a-time pcap emitter.
"""

from __future__ import annotations

import itertools
import random
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from flowlens.apps import DEFAULT_HTTP_PORTS, AppCategory
from flowlens.flows import Flows
from flowlens.hops import STANDARD_INITIAL_TTLS, HostEstimates
from flowlens.pcapio import (COLUMNS, LINKTYPE_ETHERNET, PROTO_ICMP, PROTO_TCP,
                             PROTO_UDP, TCP_ACK, TCP_SYN, PacketRecord, Packets,
                             PcapWriter, build_ipv4_packet, build_tcp_options, ipv4_strs,
                             wrap_ethernet)
from flowlens.synth import (BEACON_DST, BEACON_LEN, BEACON_SRC, GroundTruth, HostTable,
                            ScenarioError, ScenarioSpec, sample_flow_size, _arrivals, _craft_mss,
                            _OTHER_TCP_PORTS, _Plan, _poisson, _UDP_PORTS)


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


@dataclass(frozen=True, order=True)
class FlowKey:
    """A flow's 5-tuple; keys sort as flows.csv's rows do within a block."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int


def classify(key: FlowKey, http_ports: FrozenSet[int] = DEFAULT_HTTP_PORTS) -> AppCategory:
    """One flow's category, by protocol and port.

    Flows are unidirectional, so the server port can sit on either side.
    """
    if key.proto == PROTO_TCP:
        if key.src_port in http_ports or key.dst_port in http_ports:
            return AppCategory.HTTP
        return AppCategory.OTHER_TCP
    if key.proto == PROTO_UDP:
        return AppCategory.UDP
    return AppCategory.OTHER


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


def _flow_frames(spec: ScenarioSpec, hosts: HostTable, plan, i: int,
                 link: bytes) -> Tuple[bytes, bytes]:
    """Flow i's data frame and first frame (its SYN, if it opens with one),
    each led by ``link``: all of the flow's packets are one of the two."""
    src, dst = int(plan.src[i]), int(plan.dst[i])
    proto = int(plan.proto[i])
    common = dict(ttl=int(hosts.initial_ttl[src] - hosts.hops[src]), ip_len=spec.packet_bytes,
                  src_port=int(plan.src_port[i]), dst_port=int(plan.dst_port[i]),
                  max_bytes=spec.snaplen - len(link))
    data = link + build_ipv4_packet(hosts.ip[src], hosts.ip[dst], proto, tcp_flags=TCP_ACK,
                                    tcp_window=16384, **common)
    entry = hosts.entries[hosts.label[src]]
    if proto != PROTO_TCP or entry is None:
        return data, data
    syn = build_ipv4_packet(
        hosts.ip[src], hosts.ip[dst], PROTO_TCP,
        df=True if entry.df_flag is None else entry.df_flag,
        tcp_flags=TCP_SYN, tcp_window=entry.window_size,
        tcp_options=build_tcp_options(entry.options_layout, _craft_mss(entry)),
        **common)
    return data, link + syn


def emit_pcap(spec: ScenarioSpec, hosts: HostTable, plan, pcap_path: Path) -> None:
    """The pcap of a planned scenario, one frame and one Python int at a time.

    Each block's packets are sorted by (ideal slot, flow, j) and the k-th
    of total sits at ``block * tau_us + k * tau_us // total``; a one-packet
    beacon opens a non-empty trace whose block 0 is empty.
    """
    per_block = {}
    for i, block in enumerate(plan.block.tolist()):
        per_block.setdefault(block, []).append(i)
    tau_us = spec.tau_us
    beacon = bool(per_block) and 0 not in per_block
    link = wrap_ethernet(b"") if spec.link == LINKTYPE_ETHERNET else b""
    with PcapWriter(pcap_path, linktype=spec.link, snaplen=spec.snaplen) as writer:
        if beacon:
            ip = build_ipv4_packet(BEACON_SRC, BEACON_DST, PROTO_ICMP, ttl=64,
                                   ip_len=BEACON_LEN, max_bytes=spec.snaplen - len(link))
            writer.write(0, link + ip, orig_len=len(link) + BEACON_LEN)
        orig_len = len(link) + spec.packet_bytes
        for block, fl in sorted(per_block.items()):
            entries = []
            for seq, i in enumerate(fl):
                data, first = _flow_frames(spec, hosts, plan, i, link)
                n = int(plan.n_packets[i])
                for j in range(n):
                    ideal = round((j + 0.5) / n * tau_us)
                    entries.append((ideal, seq, j, data if j else first))
            entries.sort()      # (seq, j) is unique, so frames are never compared
            total = len(entries)
            base = block * tau_us
            for k, e in enumerate(entries):
                writer.write(base + (k * tau_us) // total, e[3], orig_len=orig_len)


def plan_random_flows(spec: ScenarioSpec, rng: random.Random, hosts: HostTable) -> _Plan:
    """The random plan drawn with ``rng.choices``, ``rng.choice`` and
    ``sample_flow_size``, the calls whose draws the generator makes inline."""
    src_hosts = [i for i, side in enumerate(hosts.side) if side == "src"]
    dst_hosts = [i for i, side in enumerate(hosts.side) if side == "dst"]
    if not src_hosts or not dst_hosts:
        raise ScenarioError("random planning needs at least one src and one dst host")

    mode, rate = _arrivals(spec.flows_per_block)
    cats = list(spec.app_mix.keys())
    cum_weights = list(itertools.accumulate(spec.app_mix[c] for c in cats))
    alpha, cap, repeat_prob = spec.flow_size_alpha, spec.flow_size_cap, spec.key_repeat_prob
    ephemeral = 1024

    rows: List[tuple] = []       # (block, src, dst, sport, dport, proto, n_packets)
    category: List[AppCategory] = []
    prev_block = range(0)        # row indices of the previous block's flows
    for block in range(spec.n_blocks):
        seen = set()
        first = len(rows)

        for i in prev_block:     # a flow key may persist into the next block
            if rng.random() >= repeat_prob:
                continue
            key = rows[i][1:6]
            if key in seen:
                continue
            seen.add(key)
            rows.append((block, *key, sample_flow_size(rng, alpha, cap)))
            category.append(category[i])

        n_new = rate if mode == "fixed" else _poisson(rng, rate)

        for _ in range(n_new):
            cat = rng.choices(cats, cum_weights=cum_weights)[0]
            for _attempt in range(16):
                src = rng.choice(src_hosts)
                dst = rng.choice(dst_hosts)
                if cat is AppCategory.OTHER:
                    proto, sport, dport = PROTO_ICMP, 0, 0
                elif cat is AppCategory.UDP:
                    proto, sport, dport = PROTO_UDP, ephemeral, rng.choice(_UDP_PORTS)
                elif cat is AppCategory.HTTP:
                    proto, sport, dport = PROTO_TCP, ephemeral, 80
                else:
                    proto, sport, dport = PROTO_TCP, ephemeral, rng.choice(_OTHER_TCP_PORTS)
                if proto != PROTO_ICMP:
                    ephemeral = ephemeral + 1 if ephemeral < 60000 else 1024
                key = (src, dst, sport, dport, proto)
                if key not in seen:
                    seen.add(key)
                    rows.append((block, *key, sample_flow_size(rng, alpha, cap)))
                    category.append(cat)
                    break
                # collision (practically only ICMP host pairs): redraw

        prev_block = range(first, len(rows))
    return _Plan.of_rows(rows, category)


class TrueFlow(NamedTuple):
    """One planned forward flow of a ground truth."""

    block: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int
    n_packets: int
    n_bytes: int
    category: AppCategory
    path_hops: int
    hops_exact: bool    # both endpoints fingerprint-covered in the emitted trace

    @property
    def key(self) -> FlowKey:
        return FlowKey(self.src_ip, self.dst_ip, self.src_port,
                       self.dst_port, self.proto)


class TrueHost(NamedTuple):
    """One host of a ground truth."""

    ip: str
    side: str
    initial_ttl: int
    hops_to_monitor: int
    os_label: Optional[str]
    syn_emitted: bool               # emitted >= 1 SYN in its own direction
    fingerprint_effective: bool     # labeled and actually emitted a SYN


def true_hosts(gt: GroundTruth) -> List[TrueHost]:
    """The hosts of a ground truth, one TrueHost each, in scenario order."""
    h = gt.hosts
    return [TrueHost(h.ip[i], h.side[i], int(h.initial_ttl[i]), int(h.hops[i]),
                     h.labels[h.label[i]], bool(e), bool(e))
            for i, e in enumerate(gt.syn_emitted.tolist())]


def true_flows(gt: GroundTruth) -> List[TrueFlow]:
    """The forward flows of a ground truth, one TrueFlow each, in plan order."""
    plan, hosts = gt.plan, true_hosts(gt)
    flows = []
    for i in range(plan.n_forward):
        src, dst = hosts[int(plan.src[i])], hosts[int(plan.dst[i])]
        n = int(plan.n_packets[i])
        flows.append(TrueFlow(
            int(plan.block[i]), src.ip, dst.ip, int(plan.src_port[i]),
            int(plan.dst_port[i]), int(plan.proto[i]), n, n * gt.packet_bytes,
            plan.category[i], src.hops_to_monitor + dst.hops_to_monitor,
            src.fingerprint_effective and dst.fingerprint_effective))
    return flows


def truth_dict(gt: GroundTruth) -> dict:
    """The ground truth as the dict its JSON file holds."""
    return {
        "version": 1,
        "seed": gt.seed, "tau": gt.tau, "duration": gt.duration,
        "totals": {"packets": gt.total_packets, "bytes": gt.total_bytes,
                   "forward_packets": gt.forward_packets,
                   "forward_bytes": gt.forward_bytes,
                   "beacon": gt.beacon},
        "hosts": [{"ip": h.ip, "side": h.side, "initial_ttl": h.initial_ttl,
                   "hops": h.hops_to_monitor, "os_label": h.os_label,
                   "syn_emitted": h.syn_emitted,
                   "fingerprint_effective": h.fingerprint_effective}
                  for h in true_hosts(gt)],
        "flows": [{"block": f.block, "src_ip": f.src_ip, "dst_ip": f.dst_ip,
                   "src_port": f.src_port, "dst_port": f.dst_port,
                   "proto": f.proto, "n_packets": f.n_packets,
                   "n_bytes": f.n_bytes, "category": f.category.value,
                   "path_hops": f.path_hops, "hops_exact": f.hops_exact}
                  for f in true_flows(gt)],
    }
