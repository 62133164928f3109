"""Shared builders for tests: quick records, pcaps, planted and randomized scenarios."""

from __future__ import annotations

import random
import struct
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from flowlens.flows import Flows
from flowlens.hops import FingerprintDb
from flowlens.pcapio import (LINKTYPE_ETHERNET, MAGIC_NS, MAGIC_US, PROTO_ICMP,
                             PROTO_TCP, PROTO_UDP, TCP_ACK, TCP_SYN,
                             PacketRecord, SynSignature, build_ipv4_packet,
                             build_tcp_options, wrap_ethernet)
from flowlens.synth import ScenarioSpec, load_scenario

from reference import FlowKey, flow_rows, ipv4_int

SRC_NET = "10.0.0.0/8"          # all scenario src-side hosts live here
FP_LABELS = ["Linux 2.4", "Windows 2000", "FreeBSD 4.x", "Solaris 8",
             "Windows 98", "MacOS 9", "Cisco IOS 12"]
DB = FingerprintDb.default()    # the database analyze uses without --fingerprints


def mk_packet(ts: float, src: str = "10.0.0.1", dst: str = "203.0.113.1",
              sport: int = 1024, dport: int = 80, proto: int = PROTO_TCP,
              ttl: int = 55, ip_len: int = 700,
              sig: Optional[SynSignature] = None,
              is_fragment: bool = False) -> PacketRecord:
    """A record at `ts` seconds, stored as whole microseconds."""
    return PacketRecord(ts_us=round(ts * 1e6), src_ip=src, dst_ip=dst,
                        src_port=sport, dst_port=dport, proto=proto, ttl=ttl,
                        ip_len=ip_len, is_fragment=is_fragment, syn_sig=sig)


def mk_flows(rows: Sequence[Tuple[int, FlowKey, int, bool]]) -> Flows:
    """A Flows table of (block, key, n_packets, is_greedy) rows, in the given order.

    Every flow has 700 bytes a packet and a modal TTL of 60.
    """
    def col(values, dtype):
        return np.array(list(values), dtype=dtype)

    keys = [k for _, k, _, _ in rows]
    n_packets = col((n for _, _, n, _ in rows), np.int64)
    return Flows(block=col((b for b, *_ in rows), np.int64),
                 src=col((ipv4_int(k.src_ip) for k in keys), np.uint32),
                 dst=col((ipv4_int(k.dst_ip) for k in keys), np.uint32),
                 src_port=col((k.src_port for k in keys), np.uint16),
                 dst_port=col((k.dst_port for k in keys), np.uint16),
                 proto=col((k.proto for k in keys), np.uint8),
                 n_packets=n_packets, n_bytes=n_packets * 700,
                 rep_ttl=np.full(len(rows), 60, dtype=np.uint8),
                 is_greedy=col((g for *_, g in rows), bool))


def flow_keys(flows: Flows) -> List[Tuple[int, FlowKey]]:
    """(block, key) of every row, read back from the flows.csv fields."""
    return [(row[0], FlowKey(*row[1:6])) for row in flow_rows(flows)]


def write_pcap(records: Sequence[PacketRecord], path,
               linktype: int = LINKTYPE_ETHERNET, snaplen: int = 65535,
               endian: str = "<", vlan: bool = False, ns: bool = False,
               ihl: int = 5) -> Path:
    """Write PacketRecords out as a pcap (the reader's exact inverse).

    TCP records carrying a SYN signature become SYN packets with the
    signature's window/DF/options; everything else becomes a plain packet.
    Timestamps are taken as capture-relative microseconds. The encoding knobs
    change only the bytes, never what a reader should get back: `vlan`
    adds an 802.1Q tag to Ethernet frames, `ns` writes the nanosecond
    magic, and `ihl` > 5 splices NOP option bytes into the IPv4 header
    without touching its total-length field.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(struct.pack(endian + "IHHiIII", MAGIC_NS if ns else MAGIC_US,
                             2, 4, 0, 0, snaplen, linktype))
        for rec in records:
            tcp_flags, window, opts, df = TCP_ACK, 0, b"", True
            if rec.syn_sig is not None:
                sig = rec.syn_sig
                tcp_flags = TCP_SYN
                window = sig.window_size
                df = sig.df_flag
                opts = build_tcp_options(sig.options_layout, sig.mss)
            ip = build_ipv4_packet(rec.src_ip, rec.dst_ip, rec.proto,
                                   ttl=rec.ttl, ip_len=rec.ip_len, df=df,
                                   src_port=rec.src_port, dst_port=rec.dst_port,
                                   tcp_flags=tcp_flags, tcp_window=window,
                                   tcp_options=opts,
                                   frag_offset=64 if rec.is_fragment else 0)
            if ihl > 5:
                ip = bytes([0x40 | ihl]) + ip[1:20] + b"\x01" * (4 * ihl - 20) + ip[20:]
            if linktype == LINKTYPE_ETHERNET:
                ip = wrap_ethernet(ip)
                if vlan:
                    ip = ip[:12] + b"\x81\x00\x00\x2a" + ip[12:]
            sec, us = divmod(rec.ts_us, 1_000_000)
            data = ip[:snaplen]
            fh.write(struct.pack(endian + "IIII", sec, us * 1000 if ns else us,
                                 len(data), len(ip)))
            fh.write(data)
    return path


def shuffle_records(src, dst, seed: int) -> Path:
    """Copy the pcap `src` to `dst` with its records in a seeded random order."""
    data = Path(src).read_bytes()
    endian = "<" if struct.unpack("<I", data[:4])[0] in (MAGIC_US, MAGIC_NS) else ">"
    records, pos = [], 24
    while pos < len(data):
        end = pos + 16 + struct.unpack_from(endian + "I", data, pos + 8)[0]
        records.append(data[pos:end])
        pos = end
    random.Random(seed).shuffle(records)
    dst = Path(dst)
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_bytes(data[:24] + b"".join(records))
    return dst


def skewed_trace(path, block_weights: Sequence[int]) -> Path:
    """One packet per weight unit: block i carries block_weights[i] packets.

    Each packet of a block has its own source port, so no 5-tuple repeats
    within a block and the trace yields no flow records.
    """
    records = []
    for i, w in enumerate(block_weights):
        for j in range(w):
            records.append(mk_packet((i * 100_000 + j * 50) / 1e6,
                                     sport=1024 + j, ip_len=700))
    return write_pcap(records, path)


class HostSpec(NamedTuple):
    """A [hosts] line; exactly one of initial_ttl and os_label is given."""

    ip: str
    hops_to_monitor: int
    side: str = "src"
    initial_ttl: Optional[int] = None
    os_label: Optional[str] = None


class FlowPlan(NamedTuple):
    """A [flows] line."""

    block: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int
    n_packets: int


def _key_text(value) -> str:
    """A key's value as a scenario file writes it; a float in full, as repr does."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, dict):
        return ",".join(f"{c.value}:{f!r}" for c, f in value.items())
    return repr(value) if isinstance(value, float) else str(value)


def scenario(hosts: Sequence[HostSpec] = (), flows: Sequence[FlowPlan] = (),
             **keys) -> ScenarioSpec:
    """The spec ``load_scenario`` reads from a file of ``keys`` as
    "key = value" lines, the host table and, if there are flows, the flow
    table; no flows means random planning."""
    lines = [f"{key} = {_key_text(value)}" for key, value in keys.items()]
    lines.append("[hosts]")
    lines += [f"{h.ip} {h.hops_to_monitor} {h.side} "
              + (f"ttl:{h.initial_ttl}" if h.os_label is None else f"os:{h.os_label}")
              for h in hosts]
    if flows:
        lines += ["[flows]", *(" ".join(map(str, f)) for f in flows)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "test.scenario"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_scenario(path)


def random_scenario(seed: int) -> ScenarioSpec:
    """A randomized but always-feasible scenario with known host ground truth."""
    r = random.Random(seed * 1_000_003 + 17)
    hosts: List[HostSpec] = []
    for i in range(r.randint(2, 5)):
        ip = f"10.0.{i // 200}.{i % 200 + 1}"
        if r.random() < 0.7:
            hosts.append(HostSpec(ip, r.randint(1, 20), "src",
                                  os_label=r.choice(FP_LABELS)))
        else:
            hosts.append(HostSpec(ip, r.randint(0, 15), "src",
                                  initial_ttl=r.choice([64, 128, 255])))
    for i in range(r.randint(2, 4)):
        ip = f"203.0.113.{i + 1}"
        if r.random() < 0.7:
            hosts.append(HostSpec(ip, r.randint(1, 20), "dst",
                                  os_label=r.choice(FP_LABELS)))
        else:
            hosts.append(HostSpec(ip, r.randint(0, 15), "dst",
                                  initial_ttl=r.choice([64, 128, 255])))
    return scenario(hosts, duration=r.choice([0.5, 1.0, 1.5]), tau=0.1, seed=seed,
                    flows_per_block=f"poisson:{r.randint(2, 6)}",
                    flow_size_alpha=r.choice([1.2, 1.5, 2.0]),
                    flow_size_cap=500, packet_bytes=700,
                    key_repeat_prob=r.choice([0.0, 0.2, 0.4]))


def table1_scenario(seed: int = 1) -> ScenarioSpec:
    """100 planted flow records: 54/38/7/1 app mix, greedy subset 70% HTTP.

    Greedy records (packet count 25): 7 HTTP + 3 other-TCP; the remaining 90
    records stay small. All hosts carry fingerprints.
    """
    hosts = [
        HostSpec("10.0.0.1", 9, "src", os_label="Linux 2.4"),
        HostSpec("10.0.0.2", 12, "src", os_label="Windows 2000"),
        HostSpec("203.0.113.1", 8, "dst", os_label="FreeBSD 4.x"),
        HostSpec("203.0.113.2", 11, "dst", os_label="Solaris 8"),
    ]
    srcs = ["10.0.0.1", "10.0.0.2"]
    dsts = ["203.0.113.1", "203.0.113.2"]
    flows: List[FlowPlan] = []
    sport = 1024

    def add(n: int, proto: int, dport: int, n_packets: int):
        nonlocal sport
        for i in range(n):
            flows.append(FlowPlan(block=len(flows) % 10,
                                  src_ip=srcs[i % 2], dst_ip=dsts[(i // 2) % 2],
                                  src_port=sport, dst_port=dport,
                                  proto=proto, n_packets=n_packets))
            sport += 1

    add(7, PROTO_TCP, 80, 25)      # greedy HTTP
    add(3, PROTO_TCP, 21, 25)      # greedy other-TCP
    add(47, PROTO_TCP, 80, 3)      # small HTTP
    add(35, PROTO_TCP, 25, 3)      # small other-TCP
    add(7, PROTO_UDP, 53, 3)       # UDP
    # one ICMP flow ("other"); ports are zero so the host pair is the key
    flows.append(FlowPlan(block=3, src_ip="10.0.0.1", dst_ip="203.0.113.2",
                          src_port=0, dst_port=0, proto=PROTO_ICMP, n_packets=2))
    return scenario(hosts, flows, duration=1.0, tau=0.1, seed=seed)


def hop_means_scenario(seed: int = 1) -> ScenarioSpec:
    """500 planted records whose hop means are exactly 19.85 (all) and 17.92 (greedy).

    Greedy: 92 records at 18 hops + 8 at 17 -> 17.92. Non-greedy: 133 at 21 +
    267 at 20. Overall: (92*18 + 8*17 + 133*21 + 267*20)/500 = 19.85.
    """
    hosts = [
        HostSpec("10.0.1.9", 9, "src", os_label="Linux 2.4"),
        HostSpec("10.0.1.10", 10, "src", os_label="Windows 2000"),
        HostSpec("203.0.113.9", 9, "dst", os_label="FreeBSD 4.x"),
        HostSpec("203.0.113.8", 8, "dst", os_label="Solaris 8"),
        HostSpec("203.0.113.11", 11, "dst", os_label="MacOS 9"),
        HostSpec("203.0.113.10", 10, "dst", os_label="Windows 98"),
    ]
    flows: List[FlowPlan] = []
    sport = 2000

    def add(n: int, src: str, dst: str, n_packets: int):
        nonlocal sport
        for _ in range(n):
            flows.append(FlowPlan(block=len(flows) % 10, src_ip=src, dst_ip=dst,
                                  src_port=sport, dst_port=80, proto=PROTO_TCP,
                                  n_packets=n_packets))
            sport += 1

    add(92, "10.0.1.9", "203.0.113.9", 25)     # greedy, 9+9 = 18 hops
    add(8, "10.0.1.9", "203.0.113.8", 25)      # greedy, 9+8 = 17 hops
    add(133, "10.0.1.10", "203.0.113.11", 2)   # 10+11 = 21 hops
    add(267, "10.0.1.10", "203.0.113.10", 2)   # 10+10 = 20 hops
    return scenario(hosts, flows, duration=1.0, tau=0.1, seed=seed)
