"""Synthetic pcap generation with exact, machine-readable ground truth.

The generator plants statistics rather than simulating protocols: every
flow's packet count, block, application category, and both endpoints' hop
distances are decided up front, then packets are emitted to realize exactly
that plan. Hosts carrying a fingerprint label open each TCP flow with a SYN
crafted from the built-in database entry; all other traffic is plain data
packets, so fingerprint coverage is fully controlled.

Scheduling is exact-microsecond: each block's packets occupy distinct
microsecond slots spread across the block, and the first emitted packet of
a non-empty trace always sits at t=0 (a one-packet beacon is inserted when
block 0 would otherwise be empty) so that re-based timestamps on the read
side reproduce the planned block indices.

Scenario files are flat key-value lines plus a host table and an optional
explicit flow table:

    duration = 2.0
    tau = 0.1
    seed = 7
    flows_per_block = poisson:5        # or fixed:3
    flow_size_alpha = 1.5
    flow_size_cap = 2000
    packet_bytes = 700
    bidirectional = true
    app_mix = http:0.54,other_tcp:0.38,udp:0.07,other:0.01

    [hosts]
    # ip           hops  side  os:<label> | ttl:<initial>
    10.0.0.1       9     src   os:Linux 2.4
    192.168.1.1    8     dst   os:Windows 2000

    [flows]                            # optional; overrides random planning
    # block  src_ip    dst_ip       sport dport proto n_packets
    0        10.0.0.1  192.168.1.1  1024  80    6     25

Same seed, same spec: byte-identical pcap (the only randomness source is
``random.Random(seed)``, whose stream is stable across Python versions).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .apps import AppCategory, classify
from .flows import FlowKey
from .hops import FingerprintDb, FingerprintEntry, MTU_TOKEN, match_fingerprint
from .pcapio import (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PROTO_ICMP,
                     PROTO_TCP, PROTO_UDP, TCP_ACK, TCP_SYN, PcapWriter,
                     SynSignature, build_ipv4_packet, build_tcp_options,
                     wrap_ethernet)

BEACON_SRC = "192.0.2.255"   # TEST-NET-1, never part of a host plan
BEACON_DST = "192.0.2.254"
BEACON_LEN = 28

MIN_PACKET_BYTES = 64        # room for IP + TCP + the longest crafted options

_OTHER_TCP_PORTS = (21, 22, 25, 110, 119, 6667)
_UDP_PORTS = (53, 123, 514, 27015)


class ScenarioError(ValueError):
    """The scenario is invalid or infeasible; nothing was emitted."""


@dataclass(frozen=True)
class HostSpec:
    ip: str
    hops_to_monitor: int
    side: str = "src"                  # "src" or "dst"
    initial_ttl: Optional[int] = None  # required when os_label is None
    os_label: Optional[str] = None     # entry name in the fingerprint DB


@dataclass(frozen=True)
class FlowPlan:
    block: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int
    n_packets: int


@dataclass
class ScenarioSpec:
    duration: float = 1.0
    tau: float = 0.1
    seed: int = 0
    flows_per_block: str = "poisson:4"   # "fixed:<k>" or "poisson:<lambda>"
    flow_size_alpha: float = 1.5
    flow_size_cap: int = 2000
    packet_bytes: int = 700
    app_mix: Dict[AppCategory, float] = field(default_factory=lambda: {
        AppCategory.HTTP: 0.54, AppCategory.OTHER_TCP: 0.38,
        AppCategory.UDP: 0.07, AppCategory.OTHER: 0.01})
    bidirectional: bool = True
    hosts: List[HostSpec] = field(default_factory=list)
    flows: Optional[List[FlowPlan]] = None   # explicit plan; skips random planning
    key_repeat_prob: float = 0.1
    snaplen: int = 96
    linktype: int = LINKTYPE_ETHERNET

    @property
    def tau_us(self) -> int:
        return round(self.tau * 1e6)

    @property
    def n_blocks(self) -> int:
        return round(self.duration * 1e6) // self.tau_us


@dataclass(frozen=True)
class TrueHost:
    ip: str
    side: str
    initial_ttl: int
    hops_to_monitor: int
    os_label: Optional[str]
    syn_emitted: bool               # emitted >= 1 SYN in its own direction
    fingerprint_effective: bool     # labeled and actually emitted a SYN


@dataclass(frozen=True)
class TrueFlow:
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


@dataclass
class GroundTruth:
    flows: List[TrueFlow]
    hosts: List[TrueHost]
    total_packets: int
    total_bytes: int
    forward_packets: int
    forward_bytes: int
    beacon: bool
    tau: float
    duration: float
    seed: int

    @property
    def flow_sizes(self) -> List[int]:
        return [f.n_packets for f in self.flows]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "seed": self.seed, "tau": self.tau, "duration": self.duration,
            "totals": {"packets": self.total_packets, "bytes": self.total_bytes,
                       "forward_packets": self.forward_packets,
                       "forward_bytes": self.forward_bytes,
                       "beacon": self.beacon},
            "hosts": [{"ip": h.ip, "side": h.side, "initial_ttl": h.initial_ttl,
                       "hops": h.hops_to_monitor, "os_label": h.os_label,
                       "syn_emitted": h.syn_emitted,
                       "fingerprint_effective": h.fingerprint_effective}
                      for h in self.hosts],
            "flows": [{"block": f.block, "src_ip": f.src_ip, "dst_ip": f.dst_ip,
                       "src_port": f.src_port, "dst_port": f.dst_port,
                       "proto": f.proto, "n_packets": f.n_packets,
                       "n_bytes": f.n_bytes, "category": f.category.value,
                       "path_hops": f.path_hops, "hops_exact": f.hops_exact}
                      for f in self.flows],
        }

    def write_json(self, path) -> None:
        """One compact line: ``json.dumps`` without ``indent`` runs the C encoder."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True) + "\n")


def sample_flow_size(rng: random.Random, alpha: float, cap: int, x_min: int = 2) -> int:
    """Integer flow size: floored continuous Pareto, resampled above the cap."""
    while True:
        u = 1.0 - rng.random()                 # (0, 1]
        size = math.floor(x_min * u ** (-1.0 / alpha))
        if size <= cap:
            return size


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's method, whose exp(-lam) underflows above about 745: a larger
    # lam is split into equal parts of at most 500, and a sum of Poisson
    # draws is a Poisson draw with the summed rate.
    parts = max(1, math.ceil(lam / 500))
    total = 0
    for _ in range(parts):
        limit = math.exp(-lam / parts)
        k, p = 0, 1.0
        while True:
            p *= rng.random()
            if p <= limit:
                break
            k += 1
        total += k
    return total


@dataclass(frozen=True)
class _ResolvedHost:
    spec: HostSpec
    initial_ttl: int
    entry: Optional[FingerprintEntry]    # the DB entry to craft SYNs from

    @property
    def observed_ttl(self) -> int:
        return self.initial_ttl - self.spec.hops_to_monitor


def _resolve_hosts(spec: ScenarioSpec, db: FingerprintDb) -> Dict[str, _ResolvedHost]:
    resolved: Dict[str, _ResolvedHost] = {}
    for h in spec.hosts:
        if h.ip in resolved:
            raise ScenarioError(f"duplicate host ip {h.ip}")
        if h.ip in (BEACON_SRC, BEACON_DST):
            raise ScenarioError(f"host ip {h.ip} is reserved for the t=0 beacon")
        if h.side not in ("src", "dst"):
            raise ScenarioError(f"host {h.ip}: side must be 'src' or 'dst'")
        if h.hops_to_monitor < 0:
            raise ScenarioError(f"host {h.ip}: negative hop count")
        entry = None
        if h.os_label is not None:
            entry = db.find(h.os_label)
            if entry is None:
                raise ScenarioError(f"host {h.ip}: unknown fingerprint label {h.os_label!r}")
            if entry.window_size is None or entry.options_layout is None:
                raise ScenarioError(
                    f"host {h.ip}: entry {h.os_label!r} has wildcard window/options; "
                    "cannot craft a SYN from it")
            initial = entry.initial_ttl
            if h.initial_ttl is not None and h.initial_ttl != initial:
                raise ScenarioError(
                    f"host {h.ip}: initial_ttl {h.initial_ttl} contradicts "
                    f"{h.os_label!r} ({initial})")
        else:
            if h.initial_ttl is None:
                raise ScenarioError(f"host {h.ip}: needs initial_ttl or os_label")
            initial = h.initial_ttl
        if not 1 <= initial <= 255:
            raise ScenarioError(f"host {h.ip}: initial_ttl {initial} out of range")
        if h.hops_to_monitor >= initial:
            raise ScenarioError(f"host {h.ip}: hops {h.hops_to_monitor} >= initial TTL {initial}")
        rh = _ResolvedHost(spec=h, initial_ttl=initial, entry=entry)
        if entry is not None:
            # The SYN this host will send must match back to an entry with
            # the same initial TTL, or hop recovery would be silently wrong.
            sig = SynSignature(window_size=entry.window_size,
                               observed_ttl=rh.observed_ttl,
                               df_flag=True if entry.df_flag is None else entry.df_flag,
                               mss=_craft_mss(entry),
                               options_layout=entry.options_layout)
            hit = match_fingerprint(sig, db)
            if hit is None or hit.initial_ttl != initial:
                raise ScenarioError(
                    f"host {h.ip}: crafted SYN for {h.os_label!r} resolves to "
                    f"{hit.os_label if hit else 'no entry'}; ambiguous database")
        resolved[h.ip] = rh
    return resolved


def _craft_mss(entry: FingerprintEntry) -> Optional[int]:
    if entry.options_layout is None or "MSS" not in entry.options_layout:
        return None
    if entry.mss is None or entry.mss == MTU_TOKEN:
        return 1460
    return int(entry.mss)


@dataclass
class _PlannedFlow:
    plan: FlowPlan
    category: AppCategory
    src: _ResolvedHost
    dst: _ResolvedHost
    syn_first: bool      # first packet is a fingerprint SYN


def _plan_random_flows(spec: ScenarioSpec, rng: random.Random,
                       hosts: Dict[str, _ResolvedHost],
                       flows_per_block: Tuple[str, float]) -> List[_PlannedFlow]:
    src_hosts = [h for h in hosts.values() if h.spec.side == "src"]
    dst_hosts = [h for h in hosts.values() if h.spec.side == "dst"]
    if not src_hosts or not dst_hosts:
        raise ScenarioError("random planning needs at least one src and one dst host")

    mode, rate = flows_per_block
    cats = list(spec.app_mix.keys())
    weights = [spec.app_mix[c] for c in cats]
    ephemeral = 1024

    flows: List[_PlannedFlow] = []
    prev_block: List[_PlannedFlow] = []
    for block in range(spec.n_blocks):
        seen = set()
        current: List[_PlannedFlow] = []

        for f in prev_block:     # a flow key may persist into the next block
            if rng.random() >= spec.key_repeat_prob:
                continue
            key = (f.plan.src_ip, f.plan.dst_ip, f.plan.src_port,
                   f.plan.dst_port, f.plan.proto)
            if key in seen:
                continue
            seen.add(key)
            size = sample_flow_size(rng, spec.flow_size_alpha, spec.flow_size_cap)
            plan = FlowPlan(block, *key[:2], key[2], key[3], key[4], size)
            current.append(_PlannedFlow(plan=plan, category=f.category,
                                        src=f.src, dst=f.dst,
                                        syn_first=f.syn_first))

        n_new = rate if mode == "fixed" else _poisson(rng, rate)

        for _ in range(n_new):
            cat = rng.choices(cats, weights=weights)[0]
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
                key = (src.spec.ip, dst.spec.ip, sport, dport, proto)
                if key not in seen:
                    seen.add(key)
                    size = sample_flow_size(rng, spec.flow_size_alpha, spec.flow_size_cap)
                    plan = FlowPlan(block, *key[:2], key[2], key[3], key[4], size)
                    current.append(_PlannedFlow(
                        plan=plan, category=cat, src=src, dst=dst,
                        syn_first=(proto == PROTO_TCP and src.entry is not None)))
                    break
                # collision (practically only ICMP host pairs): redraw

        flows.extend(current)
        prev_block = current
    return flows


def _plan_explicit_flows(spec: ScenarioSpec,
                         hosts: Dict[str, _ResolvedHost]) -> List[_PlannedFlow]:
    seen = set()
    out = []
    for plan in spec.flows:
        if not 0 <= plan.block < spec.n_blocks:
            raise ScenarioError(f"flow block {plan.block} outside 0..{spec.n_blocks - 1}")
        if plan.n_packets < 1:
            raise ScenarioError("flow must have at least one packet")
        cell = (plan.block, plan.src_ip, plan.dst_ip, plan.src_port,
                plan.dst_port, plan.proto)
        if cell in seen:
            raise ScenarioError(f"duplicate flow in block {plan.block}: {cell[1:]}")
        seen.add(cell)
        src = hosts.get(plan.src_ip)
        dst = hosts.get(plan.dst_ip)
        if src is None or dst is None:
            raise ScenarioError(f"flow references unknown host {plan.src_ip}/{plan.dst_ip}")
        if src.spec.side != "src" or dst.spec.side != "dst":
            raise ScenarioError(
                f"flow {plan.src_ip}->{plan.dst_ip} crosses host sides; "
                "forward flows go src-side to dst-side")
        key = FlowKey(plan.src_ip, plan.dst_ip, plan.src_port, plan.dst_port, plan.proto)
        out.append(_PlannedFlow(plan=plan, category=classify(key), src=src, dst=dst,
                                syn_first=(plan.proto == PROTO_TCP and src.entry is not None)))
    return out


def _plan_reverse_flows(flows: Sequence[_PlannedFlow]) -> List[_PlannedFlow]:
    """One small reverse-direction TCP flow per destination host.

    Placed in the block of the host's first forward flow, with that flow's
    ports swapped; carries a SYN when the host has a fingerprint so the
    reverse host map can resolve it.
    """
    out = []
    seen_dst = set()
    for f in flows:
        dst_ip = f.plan.dst_ip
        if dst_ip in seen_dst:
            continue
        seen_dst.add(dst_ip)
        rplan = FlowPlan(block=f.plan.block, src_ip=dst_ip, dst_ip=f.plan.src_ip,
                         src_port=f.plan.dst_port, dst_port=f.plan.src_port,
                         proto=PROTO_TCP, n_packets=2)
        out.append(_PlannedFlow(plan=rplan, category=AppCategory.OTHER_TCP,
                                src=f.dst, dst=f.src,
                                syn_first=f.dst.entry is not None))
    return out


def generate(spec: ScenarioSpec, pcap_path,
             db: Optional[FingerprintDb] = None) -> Tuple[Path, GroundTruth]:
    """Emit the scenario as a pcap plus a ground-truth JSON next to it.

    The pcap's directory is made, if missing, only once the scenario has
    been checked and planned, so a rejected scenario leaves nothing behind.
    """
    db = db or FingerprintDb.default()
    flows_per_block = _validate_spec(spec)
    rng = random.Random(spec.seed)
    hosts = _resolve_hosts(spec, db)

    if spec.flows is not None:
        flows = _plan_explicit_flows(spec, hosts)
    else:
        flows = _plan_random_flows(spec, rng, hosts, flows_per_block)
    reverse = _plan_reverse_flows(flows) if spec.bidirectional else []

    # Feasibility: every packet needs its own microsecond slot in its block.
    per_block: Dict[int, List[_PlannedFlow]] = {}
    for f in flows + reverse:
        per_block.setdefault(f.plan.block, []).append(f)
    tau_us = spec.tau_us
    for block, fl in sorted(per_block.items()):
        total = sum(f.plan.n_packets for f in fl)
        if total > tau_us:
            raise ScenarioError(
                f"block {block} needs {total} packet slots but tau holds only {tau_us}")

    beacon = bool(per_block) and 0 not in per_block
    link = wrap_ethernet(b"") if spec.linktype == LINKTYPE_ETHERNET else b""

    pcap_path = Path(pcap_path)
    pcap_path.parent.mkdir(parents=True, exist_ok=True)
    with PcapWriter(pcap_path, linktype=spec.linktype, snaplen=spec.snaplen) as writer:
        if beacon:
            ip = build_ipv4_packet(BEACON_SRC, BEACON_DST, PROTO_ICMP, ttl=64,
                                   ip_len=BEACON_LEN, max_bytes=spec.snaplen - len(link))
            writer.write(0, link + ip, orig_len=len(link) + BEACON_LEN)
        orig_len = len(link) + spec.packet_bytes
        for block, fl in sorted(per_block.items()):
            entries = []
            for seq, f in enumerate(fl):
                data, first = _flow_frames(spec, f, link)
                n = f.plan.n_packets
                for j in range(n):
                    ideal = round((j + 0.5) / n * tau_us)
                    entries.append((ideal, seq, j, data if j else first))
            entries.sort()      # (seq, j) is unique, so frames are never compared
            total = len(entries)
            base = block * tau_us
            for k, e in enumerate(entries):
                writer.write(base + (k * tau_us) // total, e[3], orig_len=orig_len)

    truth = _build_truth(spec, hosts, flows, reverse, beacon)
    truth.write_json(ground_truth_path(pcap_path))
    return pcap_path, truth


def _flow_frames(spec: ScenarioSpec, flow: _PlannedFlow,
                 link: bytes) -> Tuple[bytes, bytes]:
    """A flow's data frame and first frame (its SYN, if it opens with one),
    each led by ``link``: all of the flow's packets are one of the two."""
    p = flow.plan
    common = dict(ttl=flow.src.observed_ttl, ip_len=spec.packet_bytes,
                  src_port=p.src_port, dst_port=p.dst_port,
                  max_bytes=spec.snaplen - len(link))
    data = link + build_ipv4_packet(p.src_ip, p.dst_ip, p.proto, tcp_flags=TCP_ACK,
                                    tcp_window=16384, **common)
    if not flow.syn_first:
        return data, data
    entry = flow.src.entry
    syn = build_ipv4_packet(
        p.src_ip, p.dst_ip, PROTO_TCP,
        df=True if entry.df_flag is None else entry.df_flag,
        tcp_flags=TCP_SYN, tcp_window=entry.window_size,
        tcp_options=build_tcp_options(entry.options_layout, _craft_mss(entry)),
        **common)
    return data, link + syn


def ground_truth_path(pcap_path) -> Path:
    p = Path(pcap_path)
    return p.with_name(p.stem + ".ground_truth.json")


def _build_truth(spec, hosts, flows, reverse, beacon) -> GroundTruth:
    """The ground truth, totals included, read off the plan.

    Every planned flow emits >= 1 packet (explicit plans are validated to,
    random sizes are >= 2, reverse flows have 2), so each ``syn_first`` flow
    sends its SYN; only fingerprinted hosts plan one, so a host's
    fingerprint is effective exactly when it sent a SYN.
    """
    fwd_packets = sum(f.plan.n_packets for f in flows)
    flow_packets = fwd_packets + sum(f.plan.n_packets for f in reverse)
    syn_emitted = {f.plan.src_ip for f in flows + reverse if f.syn_first}
    true_hosts = [TrueHost(ip=rh.spec.ip, side=rh.spec.side,
                           initial_ttl=rh.initial_ttl,
                           hops_to_monitor=rh.spec.hops_to_monitor,
                           os_label=rh.spec.os_label,
                           syn_emitted=rh.spec.ip in syn_emitted,
                           fingerprint_effective=rh.spec.ip in syn_emitted)
                  for rh in hosts.values()]
    true_flows = []
    for f in flows:
        p = f.plan
        true_flows.append(TrueFlow(
            block=p.block, src_ip=p.src_ip, dst_ip=p.dst_ip,
            src_port=p.src_port, dst_port=p.dst_port, proto=p.proto,
            n_packets=p.n_packets, n_bytes=p.n_packets * spec.packet_bytes,
            category=f.category,
            path_hops=f.src.spec.hops_to_monitor + f.dst.spec.hops_to_monitor,
            hops_exact=p.src_ip in syn_emitted and p.dst_ip in syn_emitted))
    return GroundTruth(flows=true_flows, hosts=true_hosts,
                       total_packets=flow_packets + int(beacon),
                       total_bytes=(flow_packets * spec.packet_bytes
                                    + int(beacon) * BEACON_LEN),
                       forward_packets=fwd_packets,
                       forward_bytes=fwd_packets * spec.packet_bytes,
                       beacon=beacon, tau=spec.tau, duration=spec.duration,
                       seed=spec.seed)


def _validate_spec(spec: ScenarioSpec) -> Tuple[str, float]:
    """Reject an invalid spec; return ``flows_per_block`` as (mode, rate)."""
    if not (spec.tau > 0 and math.isfinite(spec.tau)) or spec.tau_us < 1:
        raise ScenarioError("tau must be finite and at least one microsecond")
    if not math.isfinite(spec.duration) or spec.n_blocks < 1:
        raise ScenarioError("duration must cover at least one block")
    if spec.packet_bytes < MIN_PACKET_BYTES:
        raise ScenarioError(f"packet_bytes must be >= {MIN_PACKET_BYTES}")
    if not spec.flow_size_alpha > 0:               # also refuses NaN
        raise ScenarioError("flow_size_alpha must be positive")
    if spec.flow_size_cap < 2:
        raise ScenarioError("flow_size_cap must be >= 2")
    if not 0.0 <= spec.key_repeat_prob <= 1.0:
        raise ScenarioError("key_repeat_prob must be in [0, 1]")
    mix_total = sum(spec.app_mix.values())
    if abs(mix_total - 1.0) > 1e-9:
        raise ScenarioError(f"app_mix fractions sum to {mix_total}, not 1")
    if spec.snaplen < MIN_PACKET_BYTES + 14:
        raise ScenarioError("snaplen too small to keep transport headers")
    if spec.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
        raise ScenarioError(f"unsupported linktype {spec.linktype}")
    mode, _, arg = spec.flows_per_block.partition(":")
    try:
        rate = int(arg) if mode == "fixed" else float(arg)
    except ValueError:
        rate = -1
    if mode not in ("fixed", "poisson") or not 0 <= rate < math.inf:
        raise ScenarioError(f"bad flows_per_block {spec.flows_per_block!r}")
    return mode, rate


# ---------------------------------------------------------------------------
# Scenario files

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def load_scenario(path) -> ScenarioSpec:
    """Parse the flat key-value + host/flow table format shown above."""
    spec = ScenarioSpec()
    hosts: List[HostSpec] = []
    flows: List[FlowPlan] = []
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if line.startswith("["):
                    if line not in ("[hosts]", "[flows]"):
                        raise ValueError(f"unknown section {line}")
                    section = line
                elif section == "[hosts]":
                    hosts.append(_parse_host_line(line))
                elif section == "[flows]":
                    parts = line.split()
                    if len(parts) != 7:
                        raise ValueError("flow line needs 7 columns")
                    flows.append(FlowPlan(block=int(parts[0]), src_ip=parts[1],
                                          dst_ip=parts[2], src_port=int(parts[3]),
                                          dst_port=int(parts[4]), proto=int(parts[5]),
                                          n_packets=int(parts[6])))
                else:
                    key, _, value = line.partition("=")
                    _apply_scenario_key(spec, key.strip(), value.strip())
            except (ValueError, KeyError) as exc:
                raise ScenarioError(f"{path}:{lineno}: {exc}") from exc
    spec.hosts = hosts
    if flows:
        spec.flows = flows
    return spec


def _parse_host_line(line: str) -> HostSpec:
    parts = line.split(maxsplit=3)
    if len(parts) != 4:
        raise ValueError("host line needs: ip hops side os:<label>|ttl:<n>")
    ip, hops_s, side, tail = parts
    if tail.startswith("os:"):
        return HostSpec(ip=ip, hops_to_monitor=int(hops_s), side=side,
                        os_label=tail[3:].strip())
    if tail.startswith("ttl:"):
        return HostSpec(ip=ip, hops_to_monitor=int(hops_s), side=side,
                        initial_ttl=int(tail[4:]))
    raise ValueError(f"host column 4 must be os:<label> or ttl:<n>, got {tail!r}")


def _apply_scenario_key(spec: ScenarioSpec, key: str, value: str) -> None:
    if not value:
        raise ValueError(f"missing value for {key!r}")
    if key == "duration":
        spec.duration = float(value)
    elif key == "tau":
        spec.tau = float(value)
    elif key == "seed":
        spec.seed = int(value)
    elif key == "flows_per_block":
        spec.flows_per_block = value
    elif key == "flow_size_alpha":
        spec.flow_size_alpha = float(value)
    elif key == "flow_size_cap":
        spec.flow_size_cap = int(value)
    elif key == "packet_bytes":
        spec.packet_bytes = int(value)
    elif key == "bidirectional":
        spec.bidirectional = _BOOL[value.lower()]
    elif key == "key_repeat_prob":
        spec.key_repeat_prob = float(value)
    elif key == "snaplen":
        spec.snaplen = int(value)
    elif key == "link":
        spec.linktype = {"ethernet": LINKTYPE_ETHERNET, "raw": LINKTYPE_RAW_IP}[value]
    elif key == "app_mix":
        mix = {}
        for part in value.split(","):
            name, _, frac = part.partition(":")
            mix[AppCategory(name.strip())] = float(frac)
        spec.app_mix = mix
    else:
        raise ValueError(f"unknown scenario key {key!r}")
