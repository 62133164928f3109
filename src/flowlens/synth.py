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

Emission works on columns, not on frames. The plan is a table with one
row per flow. All flow frames have one length, so each flow's two frames
(its data frame, and its first frame, a crafted SYN or the data frame
again) are two rows of one uint8 table, patched from a few templates.
One sort of every packet's (block, ideal slot, flow, index) gives the
write order and the timestamps, and the records (a 16-byte header plus a
frame, a fixed width) are written a slice of rows at a time. The host
table is columns as well, parsed, checked and resolved a column at a
time, and the ground truth's hosts and flows are formatted from columns.

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

Same seed, same spec: byte-identical pcap and ground truth. The only
randomness source is ``random.Random(seed)``, and the plan draws from it
only through ``random()`` and ``getrandbits()``, the generator's own
outputs; it calls none of the derived methods (``choice``, ``choices``),
whose use of the stream Python does not promise to keep.
"""

from __future__ import annotations

import bisect
import ipaddress
import itertools
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .apps import CATEGORIES, DEFAULT_HTTP_PORTS, AppCategory, categories
from .hops import FingerprintDb, FingerprintEntry, MTU_TOKEN, match_fingerprint
from .pcapio import (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, MAX_CAPLEN, PROTO_ICMP,
                     PROTO_TCP, PROTO_UDP, TCP_ACK, TCP_SYN, PcapWriter,
                     SynSignature, build_ipv4_packet, build_tcp_options,
                     wrap_ethernet)

BEACON_SRC = "192.0.2.255"   # TEST-NET-1, never part of a host plan
BEACON_DST = "192.0.2.254"
BEACON_LEN = 28

MIN_PACKET_BYTES = 64        # room for IP + TCP + the longest crafted options
MAX_END_US = 2**32 * 1_000_000   # a pcap record's seconds field is 32 bits
WRITE_ROWS = 1 << 13         # pcap records assembled per write
_ANY = "0.0.0.0"             # template address; each row gets its flow's

_OTHER_TCP_PORTS = (21, 22, 25, 110, 119, 6667)
_UDP_PORTS = (53, 123, 514, 27015)


class ScenarioError(ValueError):
    """The scenario is invalid or infeasible; nothing was emitted."""


@dataclass
class ScenarioSpec:
    """A scenario as ``load_scenario`` reads it, every value checked."""

    hosts: HostTable
    flows: Optional[FlowTable] = None    # explicit plan; skips random planning
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
    key_repeat_prob: float = 0.1
    snaplen: int = 96
    link: int = LINKTYPE_ETHERNET        # the pcap link type

    @property
    def tau_us(self) -> int:
        return round(self.tau * 1e6)

    @property
    def n_blocks(self) -> int:
        return round(self.duration * 1e6) // self.tau_us


@dataclass(frozen=True, eq=False)
class HostTable:
    """The host table as columns, one row a host in scenario order.

    Every value was parsed and range-checked once, from the scenario
    file's text. ``_resolve_hosts`` gives each host its initial TTL and
    each label its database entry.
    """

    ip: List[str]              # a checked dotted quad is its own canonical text
    addr: np.ndarray           # int64, the address as a 32-bit value
    hops: np.ndarray           # int64, hops to the monitor
    side: List[str]            # "src" or "dst"
    initial_ttl: np.ndarray    # int64; 0 where left to the label, until resolved
    label: np.ndarray          # int64, the host's index into labels
    labels: List[Optional[str]]    # the distinct labels; labels[0] is None, no label
    entries: Tuple[Optional[FingerprintEntry], ...] = ()   # each label's, once resolved

    @classmethod
    def of_columns(cls, ip: List[str], values: Dict[str, list]) -> "HostTable":
        """From the hosts' address texts and ``_HOST_COLUMNS``' values."""
        index = {None: 0}
        label = [index.setdefault(x, len(index)) for x in values["os"]]
        return cls(ip, np.array(values["ip"], dtype=np.int64),
                   np.array(values["hops"], dtype=np.int64), values["side"],
                   np.array([t or 0 for t in values["ttl"]], dtype=np.int64),
                   np.array(label, dtype=np.int64), list(index))

    def __len__(self) -> int:
        return len(self.ip)


@dataclass(frozen=True, eq=False)
class FlowTable:
    """The explicit flow table as columns, each value parsed and range-checked
    once from the scenario file's text."""

    block: List[int]
    src_ip: List[str]
    dst_ip: List[str]
    src_port: List[int]
    dst_port: List[int]
    proto: List[int]
    n_packets: List[int]


# A forward flow and a host of the ground truth, as json.dumps(...,
# sort_keys=True) writes their dicts: every value but a host's label is an
# int, a dotted quad, a fixed name or true/false, so none needs escaping.
_FLOW_JSON = ('{"block": %d, "category": "%s", "dst_ip": "%s", "dst_port": %d, '
              '"hops_exact": %s, "n_bytes": %d, "n_packets": %d, "path_hops": %d, '
              '"proto": %d, "src_ip": "%s", "src_port": %d}')
_HOST_JSON = ('{"fingerprint_effective": %s, "hops": %d, "initial_ttl": %d, "ip": "%s", '
              '"os_label": %s, "side": "%s", "syn_emitted": %s}')
_CATEGORY_NAMES = {c: c.value for c in AppCategory}


@dataclass
class GroundTruth:
    """What a generated trace holds: its hosts, totals and planned flows.

    The hosts are the resolved host table, the flows the forward rows of
    the plan, both kept as columns. A host's fingerprint is effective
    exactly when it sent a SYN (see ``_build_truth``).
    """

    plan: _Plan                 # the forward flows are its first n_forward rows
    hosts: HostTable
    syn_emitted: np.ndarray     # bool, per host: sent >= 1 SYN in its own direction
    packet_bytes: int
    total_packets: int
    total_bytes: int
    forward_packets: int
    forward_bytes: int
    beacon: bool
    tau: float
    duration: float
    seed: int

    def write_json(self, path) -> None:
        """One compact line, the bytes of ``json.dumps(truth, sort_keys=True)``.

        ``json.dumps`` writes the header and each distinct host label, once.
        Each host is ``_HOST_JSON`` over the host table's columns, and each
        flow ``_FLOW_JSON`` over the plan's: a forward flow's path is the
        sum of its hosts' hops, exact when both hosts' fingerprints are
        effective.
        """
        plan, nf, hosts = self.plan, self.plan.n_forward, self.hosts
        src, dst = plan.src[:nf], plan.dst[:nf]
        ips = np.array(hosts.ip, dtype=object)
        effective = self.syn_emitted
        n_packets = plan.n_packets[:nf]
        flows = zip(  # in _FLOW_JSON's order
            plan.block[:nf].tolist(), map(_CATEGORY_NAMES.__getitem__, plan.category),
            ips[dst].tolist(), plan.dst_port[:nf].tolist(),
            np.where(effective[src] & effective[dst], "true", "false").tolist(),
            (n_packets * self.packet_bytes).tolist(), n_packets.tolist(),
            (hosts.hops[src] + hosts.hops[dst]).tolist(), plan.proto[:nf].tolist(),
            ips[src].tolist(), plan.src_port[:nf].tolist())
        emitted = np.where(effective, "true", "false").tolist()
        labels = [json.dumps(x) for x in hosts.labels]      # labels[0], None, is null
        host_rows = zip(  # in _HOST_JSON's order
            emitted, hosts.hops.tolist(), hosts.initial_ttl.tolist(), hosts.ip,
            map(labels.__getitem__, hosts.label.tolist()), hosts.side, emitted)
        head = json.dumps({
            "version": 1,
            "seed": self.seed, "tau": self.tau, "duration": self.duration,
            "totals": {"packets": self.total_packets, "bytes": self.total_bytes,
                       "forward_packets": self.forward_packets,
                       "forward_bytes": self.forward_bytes,
                       "beacon": self.beacon},
            "hosts": [], "flows": [],
        }, sort_keys=True)
        # "duration", a number, is the only key before "flows" and "hosts"
        before, _, after = head.partition('"flows": [], "hosts": []')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(before + '"flows": [')
            fh.write(", ".join(map(_FLOW_JSON.__mod__, flows)))
            fh.write('], "hosts": [')
            fh.write(", ".join(map(_HOST_JSON.__mod__, host_rows)))
            fh.write("]" + after + "\n")


def sample_flow_size(rng: random.Random, alpha: float, cap: int) -> int:
    """Integer flow size: floored continuous Pareto from 2, resampled above the cap."""
    while True:
        u = 1.0 - rng.random()                 # (0, 1]
        size = math.floor(2 * u ** (-1.0 / alpha))
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


def _ipv4(text: str) -> int:
    """A dotted quad's 32-bit value; ValueError for any other text, IPv6 included."""
    return int(ipaddress.IPv4Address(text))


def _resolve_hosts(hosts: HostTable, db: FingerprintDb) -> HostTable:
    """The table with each host's initial TTL and each label's entry.

    Each check runs on whole columns, and a label's crafted SYN is matched
    once per observed TTL. The first host that fails one is refused, with
    the first check it fails, as a host-by-host walk would refuse it.
    """
    ip, hops, given, label = hosts.ip, hosts.hops, hosts.initial_ttl, hosts.label
    labels = hosts.labels
    entries = (None, *map(db.find, labels[1:]))
    labeled = label > 0
    unknown = np.array([e is None for e in entries])[label] & labeled
    wildcard = np.array([e is not None and (e.window_size is None or e.options_layout is None)
                         for e in entries])[label]
    entry_ttl = np.array([0 if e is None else e.initial_ttl for e in entries])[label]
    initial = np.where(labeled, entry_ttl, given)
    duplicate = np.ones(len(ip), dtype=bool)
    duplicate[np.unique(hosts.addr, return_index=True)[1]] = False
    checks = [
        (duplicate, lambda i: f"duplicate host ip {ip[i]}"),
        (unknown, lambda i: f"host {ip[i]}: unknown fingerprint label {labels[label[i]]!r}"),
        (wildcard, lambda i: f"host {ip[i]}: entry {labels[label[i]]!r} has wildcard "
                             "window/options; cannot craft a SYN from it"),
        (hops >= initial, lambda i: f"host {ip[i]}: hops {hops[i]} >= initial TTL {initial[i]}"),
    ]
    # The SYN a labeled host will send must match back to an entry with
    # the same initial TTL, or hop recovery would be silently wrong. Hosts
    # of one label and one observed TTL, one class, send the same SYN.
    cls = label * 256 + (initial - hops)
    passed = labeled & ~np.logical_or.reduce([bad for bad, _ in checks])
    hit = {}         # class -> the entry its crafted SYN matches
    for c in set(cls[passed].tolist()):
        entry = entries[c // 256]
        hit[c] = match_fingerprint(SynSignature(
            window_size=entry.window_size, observed_ttl=c % 256,
            df_flag=True if entry.df_flag is None else entry.df_flag,
            mss=_craft_mss(entry), options_layout=entry.options_layout), db)
    wrong = np.array([c for c, e in hit.items()
                      if e is None or e.initial_ttl != entries[c // 256].initial_ttl],
                     dtype=np.int64)
    checks.append((passed & (cls[:, None] == wrong).any(axis=1), lambda i: (
        f"host {ip[i]}: crafted SYN for {labels[label[i]]!r} resolves to "
        f"{getattr(hit[int(cls[i])], 'os_label', 'no entry')}; ambiguous database")))

    refused = np.logical_or.reduce([bad for bad, _ in checks])
    if refused.any():
        i = int(np.argmax(refused))
        raise ScenarioError(next(message(i) for bad, message in checks if bad[i]))
    return replace(hosts, initial_ttl=initial, entries=entries)


def _craft_mss(entry: FingerprintEntry) -> Optional[int]:
    if entry.options_layout is None or "MSS" not in entry.options_layout:
        return None
    if entry.mss is None or entry.mss == MTU_TOKEN:
        return 1460
    return int(entry.mss)


@dataclass
class _Plan:
    """Every planned flow as int64 columns, one row per flow.

    ``src`` and ``dst`` index the resolved hosts. The first ``n_forward``
    rows are the forward flows, whose categories ``category`` lists; any
    rows after them are reverse flows.
    """

    block: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    proto: np.ndarray
    n_packets: np.ndarray
    category: List[AppCategory]
    n_forward: int

    @classmethod
    def of_rows(cls, rows: Sequence[tuple], category: List[AppCategory]) -> "_Plan":
        """From (block, src, dst, src_port, dst_port, proto, n_packets) rows."""
        cols = np.array(rows, dtype=np.int64).reshape(-1, 7).T
        return cls(*cols, category=category, n_forward=len(rows))

    def syn_first(self, hosts: HostTable) -> np.ndarray:
        """Which flows open with a fingerprint SYN: TCP from a labeled host."""
        return (self.proto == PROTO_TCP) & (hosts.label[self.src] > 0)


def _plan_random_flows(spec: ScenarioSpec, rng: random.Random, hosts: HostTable) -> _Plan:
    """Each block's flows: keys carried over from the block before, then new ones.

    A category and each host or port are drawn inline from ``rng.random``
    and ``rng.getrandbits`` as ``rng.choices(cats, cum_weights=...)[0]``
    and ``rng.choice(seq)`` draw them, so a seed plans the flows those
    calls would plan, in the same order.
    """
    src_hosts = [i for i, side in enumerate(hosts.side) if side == "src"]
    dst_hosts = [i for i, side in enumerate(hosts.side) if side == "dst"]
    if not src_hosts or not dst_hosts:
        raise ScenarioError("random planning needs at least one src and one dst host")

    mode, rate = _arrivals(spec.flows_per_block)
    cats = list(spec.app_mix.keys())
    cum_weights = list(itertools.accumulate(spec.app_mix[c] for c in cats))
    total, last = cum_weights[-1] + 0.0, len(cats) - 1
    alpha, cap, repeat_prob = spec.flow_size_alpha, spec.flow_size_cap, spec.key_repeat_prob
    ephemeral = 1024
    random, getrandbits = rng.random, rng.getrandbits

    def pick(seq):
        """``rng.choice(seq)``: bit_length(n) random bits until one is below n."""
        n = len(seq)
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        return seq[i]

    rows: List[tuple] = []       # (block, src, dst, sport, dport, proto, n_packets)
    category: List[AppCategory] = []
    prev_block = range(0)        # row indices of the previous block's flows
    for block in range(spec.n_blocks):
        seen = set()
        first = len(rows)

        for i in prev_block:     # a flow key may persist into the next block
            if random() >= repeat_prob:
                continue
            key = rows[i][1:6]
            if key in seen:
                continue
            seen.add(key)
            rows.append((block, *key, sample_flow_size(rng, alpha, cap)))
            category.append(category[i])

        n_new = rate if mode == "fixed" else _poisson(rng, rate)

        for _ in range(n_new):
            cat = cats[bisect.bisect(cum_weights, random() * total, 0, last)]
            for _attempt in range(16):
                src = pick(src_hosts)
                dst = pick(dst_hosts)
                if cat is AppCategory.OTHER:
                    proto, sport, dport = PROTO_ICMP, 0, 0
                elif cat is AppCategory.UDP:
                    proto, sport, dport = PROTO_UDP, ephemeral, pick(_UDP_PORTS)
                elif cat is AppCategory.HTTP:
                    proto, sport, dport = PROTO_TCP, ephemeral, 80
                else:
                    proto, sport, dport = PROTO_TCP, ephemeral, pick(_OTHER_TCP_PORTS)
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


def _plan_explicit_flows(spec: ScenarioSpec, hosts: HostTable) -> _Plan:
    flows = spec.flows
    index = {ip: i for i, ip in enumerate(hosts.ip)}
    side = hosts.side
    seen = set()
    rows = []
    for block, src_ip, dst_ip, src_port, dst_port, proto, n_packets in zip(
            flows.block, flows.src_ip, flows.dst_ip, flows.src_port, flows.dst_port,
            flows.proto, flows.n_packets):
        if block >= spec.n_blocks:
            raise ScenarioError(f"flow block {block} outside 0..{spec.n_blocks - 1}")
        cell = (block, src_ip, dst_ip, src_port, dst_port, proto)
        if cell in seen:
            raise ScenarioError(f"duplicate flow in block {block}: {cell[1:]}")
        seen.add(cell)
        src = index.get(src_ip)
        dst = index.get(dst_ip)
        if src is None or dst is None:
            raise ScenarioError(f"flow references unknown host {src_ip}/{dst_ip}")
        if side[src] != "src" or side[dst] != "dst":
            raise ScenarioError(
                f"flow {src_ip}->{dst_ip} crosses host sides; "
                "forward flows go src-side to dst-side")
        rows.append((block, src, dst, src_port, dst_port, proto, n_packets))
    category = categories(*(np.array(c, dtype=np.int64) for c in (
        flows.proto, flows.src_port, flows.dst_port)), DEFAULT_HTTP_PORTS)
    return _Plan.of_rows(rows, [CATEGORIES[i] for i in category.tolist()])


def _with_reverse_flows(plan: _Plan) -> _Plan:
    """Append one small reverse-direction TCP flow per destination host.

    Placed in the block of the host's first forward flow, with that flow's
    ports swapped; it carries a SYN when the host has a fingerprint, so
    the reverse host map can resolve it.
    """
    _, first = np.unique(plan.dst, return_index=True)
    r = np.sort(first)
    tcp = np.full(len(r), PROTO_TCP, dtype=np.int64)
    return _Plan(*(np.concatenate([col, rev]) for col, rev in (
                     (plan.block, plan.block[r]), (plan.src, plan.dst[r]),
                     (plan.dst, plan.src[r]), (plan.src_port, plan.dst_port[r]),
                     (plan.dst_port, plan.src_port[r]), (plan.proto, tcp),
                     (plan.n_packets, np.full(len(r), 2, dtype=np.int64)))),
                 category=plan.category, n_forward=plan.n_forward)


def _plan_scenario(spec: ScenarioSpec, db: FingerprintDb) -> Tuple[HostTable, _Plan]:
    """Check the scenario and plan every flow; raise ScenarioError if infeasible."""
    _validate_spec(spec)
    rng = random.Random(spec.seed)
    hosts = _resolve_hosts(spec.hosts, db)
    if spec.flows is not None:
        plan = _plan_explicit_flows(spec, hosts)
    else:
        plan = _plan_random_flows(spec, rng, hosts)
    if spec.bidirectional:
        plan = _with_reverse_flows(plan)

    # Feasibility: every packet needs its own microsecond slot in its block.
    # The sums are Python ints, which cannot wrap as int64 ones could.
    order = np.argsort(plan.block, kind="stable")
    blocks, starts = np.unique(plan.block[order], return_index=True)
    if len(blocks):
        totals = np.add.reduceat(plan.n_packets[order].astype(object), starts)
        over = np.flatnonzero(totals > spec.tau_us)
        if len(over):
            b = over[0]
            raise ScenarioError(f"block {blocks[b]} needs {totals[b]} packet slots "
                                f"but tau holds only {spec.tau_us}")
    return hosts, plan


def generate(spec: ScenarioSpec, pcap_path,
             db: Optional[FingerprintDb] = None) -> Tuple[Path, GroundTruth]:
    """Emit the scenario as a pcap plus a ground-truth JSON next to it.

    The pcap's directory is made, if missing, only once the scenario has
    been checked and planned, so a rejected scenario leaves nothing behind.
    """
    hosts, plan = _plan_scenario(spec, db or FingerprintDb.default())
    link = wrap_ethernet(b"") if spec.link == LINKTYPE_ETHERNET else b""
    beacon = len(plan.block) > 0 and not (plan.block == 0).any()
    syn_first = plan.syn_first(hosts)
    table = _frame_table(spec, hosts, plan, syn_first, link)
    ts_us, rows = _schedule(plan, spec.tau_us)

    pcap_path = Path(pcap_path)
    pcap_path.parent.mkdir(parents=True, exist_ok=True)
    with PcapWriter(pcap_path, linktype=spec.link, snaplen=spec.snaplen) as writer:
        if beacon:
            ip = build_ipv4_packet(BEACON_SRC, BEACON_DST, PROTO_ICMP, ttl=64,
                                   ip_len=BEACON_LEN, max_bytes=spec.snaplen - len(link))
            writer.write(0, link + ip, orig_len=len(link) + BEACON_LEN)
        orig_len = len(link) + spec.packet_bytes
        for s in range(0, len(rows), WRITE_ROWS):
            writer.write_frames(ts_us[s:s + WRITE_ROWS], table[rows[s:s + WRITE_ROWS]],
                                orig_len=orig_len)

    truth = _build_truth(spec, hosts, plan, syn_first, beacon)
    truth.write_json(ground_truth_path(pcap_path))
    return pcap_path, truth


def _frame_table(spec: ScenarioSpec, hosts: HostTable, plan: _Plan,
                 syn_first: np.ndarray, link: bytes) -> np.ndarray:
    """Each flow's data frame (row i) and first frame (row n + i), led by ``link``.

    Every frame a flow sends is one of its two, and all have one length. Each
    row starts as a template from ``build_ipv4_packet``, one per protocol and
    one per label that sends a crafted SYN, with zero TTL and addresses; then the flow's TTL,
    addresses, TCP/UDP ports and the IPv4 header checksum are written in.
    """
    n = len(plan.block)
    common = dict(ttl=0, ip_len=spec.packet_bytes, max_bytes=spec.snaplen - len(link))
    protos, data_tmpl = np.unique(plan.proto, return_inverse=True)
    templates = [build_ipv4_packet(_ANY, _ANY, int(p), tcp_flags=TCP_ACK,
                                   tcp_window=16384, **common) for p in protos.tolist()]
    label = hosts.label[plan.src]
    syn_tmpl = np.full(len(hosts.labels), -1)     # label -> its SYN's template
    # the labels whose hosts send a SYN, in order; np.unique(labels) would
    # import numpy.ma to ask whether its argument is masked
    sending = np.bincount(label[syn_first], minlength=len(hosts.labels))
    for k in np.flatnonzero(sending).tolist():
        entry = hosts.entries[k]
        syn_tmpl[k] = len(templates)
        templates.append(build_ipv4_packet(
            _ANY, _ANY, PROTO_TCP,
            df=True if entry.df_flag is None else entry.df_flag,
            tcp_flags=TCP_SYN, tcp_window=entry.window_size,
            tcp_options=build_tcp_options(entry.options_layout, _craft_mss(entry)),
            **common))
    first_tmpl = np.where(syn_first, syn_tmpl[label], data_tmpl)
    width = len(link) + min(spec.packet_bytes, spec.snaplen - len(link))
    stack = np.frombuffer(b"".join(link + t for t in templates),
                          dtype=np.uint8).reshape(len(templates), width)
    # axis 0: data frame, first frame; fields are the same in both
    table = stack[np.stack([data_tmpl, first_tmpl])]

    ip = len(link)
    table[:, :, ip + 8] = (hosts.initial_ttl - hosts.hops)[plan.src]    # the observed TTL
    addrs = hosts.addr.astype(">u4")
    table[:, :, ip + 12:ip + 16] = addrs[plan.src].view(np.uint8).reshape(n, 4)
    table[:, :, ip + 16:ip + 20] = addrs[plan.dst].view(np.uint8).reshape(n, 4)
    ported = (plan.proto == PROTO_TCP) | (plan.proto == PROTO_UDP)
    ports = np.stack([plan.src_port, plan.dst_port], axis=1).astype(">u2")
    table[:, ported, ip + 20:ip + 24] = ports[ported].view(np.uint8).reshape(-1, 4)

    # One's-complement sum of the ten header words, checksum word zeroed.
    words = np.ascontiguousarray(table[:, :, ip:ip + 20]).view(">u2").astype(np.int64)
    words[:, :, 5] = 0
    total = words.sum(axis=2)
    for _ in range(2):          # ten 16-bit words carry at most 4 bits
        total = (total & 0xFFFF) + (total >> 16)
    checksum = (~total & 0xFFFF).astype(">u2")
    table[:, :, ip + 10:ip + 12] = checksum.view(np.uint8).reshape(2, n, 2)
    return table.reshape(2 * n, width)


def _schedule(plan: _Plan, tau_us: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each packet's timestamp and frame-table row, in the order written.

    Packet ``j`` of an ``n``-packet flow aims at slot ``(j + 0.5) / n * tau_us``
    of its block, rounded half to even. A block's packets are ranked by
    (aim, flow, j), and the ``k``-th of ``total`` sits at
    ``block * tau_us + k * tau_us // total``: distinct microseconds, spread
    over the block.
    """
    n = plan.n_packets
    flow = np.repeat(np.arange(len(n)), n)
    j = np.arange(len(flow)) - np.repeat(np.cumsum(n) - n, n)
    # the IEEE operations of Python's round((j + 0.5) / n * tau_us)
    ideal = np.rint((j + 0.5) / n[flow] * tau_us).astype(np.int64)
    block = plan.block[flow]
    order = np.lexsort((j, flow, ideal, block))
    flow, j, block = flow[order], j[order], block[order]

    starts = np.flatnonzero(np.diff(block, prepend=-1))
    counts = np.diff(starts, append=len(block))
    k = np.arange(len(block)) - np.repeat(starts, counts)
    total = np.repeat(counts, counts)
    # k * tau_us can pass 2**63; with tau_us = q * total + r, k * r < total**2
    q, r = np.divmod(tau_us, total)
    ts_us = block * tau_us + k * q + (k * r) // total
    return ts_us, flow + len(n) * (j == 0)


def ground_truth_path(pcap_path) -> Path:
    p = Path(pcap_path)
    return p.with_name(p.stem + ".ground_truth.json")


def _build_truth(spec: ScenarioSpec, hosts: HostTable, plan: _Plan,
                 syn_first: np.ndarray, beacon: bool) -> GroundTruth:
    """The ground truth, totals included, read off the plan.

    Every planned flow emits >= 1 packet (explicit plans are validated to,
    random sizes are >= 2, reverse flows have 2), so each ``syn_first`` flow
    sends its SYN; only fingerprinted hosts plan one, so a host's
    fingerprint is effective exactly when it sent a SYN.
    """
    nf = plan.n_forward
    fwd_packets = int(plan.n_packets[:nf].sum())
    flow_packets = int(plan.n_packets.sum())
    packet_bytes = spec.packet_bytes
    emitted = np.zeros(len(hosts), dtype=bool)
    emitted[plan.src[syn_first]] = True
    return GroundTruth(plan=plan, hosts=hosts, syn_emitted=emitted,
                       packet_bytes=packet_bytes,
                       total_packets=flow_packets + int(beacon),
                       total_bytes=flow_packets * packet_bytes + int(beacon) * BEACON_LEN,
                       forward_packets=fwd_packets,
                       forward_bytes=fwd_packets * packet_bytes,
                       beacon=beacon, tau=spec.tau, duration=spec.duration,
                       seed=spec.seed)


def _validate_spec(spec: ScenarioSpec) -> None:
    """Refuse keys that do not fit together.

    ``load_scenario`` checked each value against its field table as it
    read it; the checks here span keys, and so do the host and flow ones
    made while planning.
    """
    if spec.n_blocks < 1:
        raise ScenarioError("duration must cover at least one block")
    if spec.n_blocks * spec.tau_us >= MAX_END_US:
        raise ScenarioError("the trace must end before 2**32 s, the limit of a "
                            "pcap timestamp")
    if spec.flows is not None:
        return
    rate = _arrivals(spec.flows_per_block)[1]
    # a planned flow has 2 packets or more, each in its own microsecond
    if 2 * rate > spec.tau_us:
        raise ScenarioError(f"bad flows_per_block {spec.flows_per_block!r}: a block "
                            f"has room for {spec.tau_us // 2} flows at most")
    # a new flow's key lasts 1 + p + p**2 + ... blocks in expectation
    p = spec.key_repeat_prob
    lifetime = spec.n_blocks if p == 1 else min(spec.n_blocks, 1 / (1 - p))
    work = spec.n_blocks * (1 + rate * lifetime)
    if work > MAX_RANDOM_PLAN:
        raise ScenarioError(f"random plan too large: about {work:.3g} blocks plus "
                            f"expected flows (n_blocks {spec.n_blocks}, flows_per_block "
                            f"{spec.flows_per_block!r}, key_repeat_prob {p}); {_RANDOM_PLAN}")


# ---------------------------------------------------------------------------
# Scenario fields: each input's parser and range, stated once

class _Field(NamedTuple):
    """One scenario input: its parser and its range."""

    parse: Callable[[str], Any]    # a scenario file's text to the value
    ok: Callable[[Any], Any]       # true when the value is in range
    allowed: str                   # the range, in words


def _fits(f: _Field, cell: str) -> bool:
    """Whether ``cell`` parses to a value in ``f``'s range; a value that
    does not parse, or that ``f.ok`` cannot judge, is not."""
    try:
        return bool(f.ok(f.parse(cell)))
    except (LookupError, TypeError, ValueError):
        return False


def _column(f: _Field, cells: list) -> Tuple[list, int]:
    """``cells`` parsed as values of ``f``, and -1; or ``[]`` and the index
    of the first cell that ``f`` refuses.

    The whole column is parsed and checked in one pass; only a column
    with a refused cell is walked cell by cell, to find it.
    """
    try:
        values = list(map(f.parse, cells))
        if all(map(f.ok, values)):
            return values, -1
    except (LookupError, TypeError, ValueError):
        pass
    return [], [_fits(f, cell) for cell in cells].index(False)


def _refusal(name: str, f: _Field, cell: str) -> str:
    return f"bad {name} {cell!r}: must be {f.allowed}"


def _in_range(name: str, f: _Field, cell: str) -> Any:
    """``cell``'s value if the field's range holds it; otherwise refused
    with the field's name and range."""
    values, bad = _column(f, [cell])
    if bad >= 0:
        raise ScenarioError(_refusal(name, f, cell))
    return values[0]


def _columns(table: Dict[str, _Field], cells: Dict[str, list]) -> Tuple[Dict[str, list], Any]:
    """Each column of ``cells`` (name -> cells) parsed as its field's values.

    Also returns the first refusal, ``(row, name, cell)`` for the earliest
    row with a cell out of range (its first such column), or None.
    """
    values, refused = {}, []
    for k, (name, col) in enumerate(cells.items()):
        values[name], i = _column(table[name], col)
        if i >= 0:
            refused.append((i, k, name, col[i]))
    if not refused:
        return values, None
    row, _, name, cell = min(refused)
    return values, (row, name, cell)


def _integer(lo, hi) -> Callable[[int], bool]:
    """An int in lo..hi."""
    return lambda v: lo <= v <= hi


def _any(value) -> bool:
    """Every value that parses is in range."""
    return True


def _arrivals(text: str) -> Tuple[str, float]:
    """``flows_per_block`` as (mode, rate); ValueError or KeyError if malformed."""
    mode, _, arg = text.partition(":")
    rate = {"fixed": int, "poisson": float}[mode](arg)
    if not 0 <= rate < math.inf:
        raise ValueError(f"rate {rate} out of range")
    return mode, rate


def _app_mix(text: str) -> Dict[AppCategory, float]:
    mix = {}
    for part in text.split(","):
        name, _, frac = part.partition(":")
        mix[AppCategory(name.strip())] = float(frac)
    return mix


def _mix_ok(mix: Dict[AppCategory, float]) -> bool:
    return all(0 <= f < math.inf for f in mix.values()) and abs(sum(mix.values()) - 1.0) <= 1e-9


def _or_none(parse: Callable[[str], Any]) -> Callable[[Optional[str]], Any]:
    """``parse``, passing over None: a host line fills "os" or "ttl", not both."""
    return lambda text: None if text is None else parse(text)


def _not_beacon(addr: int) -> bool:
    return addr not in _BEACON_ADDRS


# The random planner takes Python steps per block and per flow and holds
# every flow: 2**20 flows take about 3.5 s and 200 MB to plan (2-core x86
# VM, Python 3.11), before their packets are scheduled at about 100 B each.
MAX_RANDOM_PLAN = 2**20
_RANDOM_PLAN = ("at most 2**20 are planned: shorten the duration, lower the rate or "
                "key_repeat_prob, or list the flows")

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_LINKS = {"ethernet": LINKTYPE_ETHERNET, "raw": LINKTYPE_RAW_IP}
_BEACON_ADDRS = (_ipv4(BEACON_SRC), _ipv4(BEACON_DST))
_HOST_IP = f"an IPv4 dotted quad other than the beacon's {BEACON_SRC} and {BEACON_DST}"
_PORTS = "in 0..65535 (ports are 16 bits)"

# The flat "key = value" lines, each a ScenarioSpec field of the same name.
_KEYS: Dict[str, _Field] = {
    "duration": _Field(float, lambda d: 0 < d < 2**33,
                       "> 0 and below 2**33 s (a trace must end before 2**32 s)"),
    "tau": _Field(float, lambda t: 0 < t < 2**32 and round(t * 1e6) >= 1,
                  "at least one microsecond and below 2**32 s"),
    "seed": _Field(int, _any, "an integer"),
    "flows_per_block": _Field(str, _arrivals, "fixed:<k> or poisson:<rate>, finite and >= 0"),
    # u ** (-1 / alpha), u down to 2**-53, overflows a float below alpha 53/1023
    "flow_size_alpha": _Field(float, lambda a: a >= 0.06,
                              "at least 0.06 (a smaller exponent overflows a float draw)"),
    "flow_size_cap": _Field(int, _integer(2, MAX_END_US),
                            f"in 2..{MAX_END_US} (a packet per microsecond at most)"),
    "packet_bytes": _Field(int, _integer(MIN_PACKET_BYTES, 0xFFFF),
                           f"in {MIN_PACKET_BYTES}..65535"),
    "bidirectional": _Field(lambda t: _BOOL[t.lower()], _any, "true or false (yes/no, 1/0)"),
    "app_mix": _Field(_app_mix, _mix_ok,
                      "category:fraction pairs over http, other_tcp, udp and other, "
                      "each fraction finite and >= 0, summing to 1"),
    "key_repeat_prob": _Field(float, lambda p: 0 <= p <= 1, "in 0..1"),
    # the transport headers are kept; a reader refuses records above MAX_CAPLEN
    "snaplen": _Field(int, _integer(MIN_PACKET_BYTES + 14, MAX_CAPLEN),
                      f"in {MIN_PACKET_BYTES + 14}..{MAX_CAPLEN}"),
    "link": _Field(_LINKS.__getitem__, _any, "ethernet or raw"),
}

# A [hosts] line: ip hops side, then os:<label> or ttl:<initial>.
_HOST_COLUMNS: Dict[str, _Field] = {
    "ip": _Field(_ipv4, _not_beacon, _HOST_IP),
    "hops": _Field(int, _integer(0, 255), "in 0..255"),
    "side": _Field(str, ("src", "dst").__contains__, "src or dst"),
    "os": _Field(_or_none(str.strip), lambda v: v is None or v != "",
                 "a fingerprint database label"),
    "ttl": _Field(_or_none(int), lambda v: v is None or 1 <= v <= 255, "in 1..255"),
}

# A [flows] line, column by column.
_FLOW_COLUMNS: Dict[str, _Field] = {
    "block": _Field(int, _integer(0, math.inf), ">= 0"),
    "src_ip": _Field(_ipv4, _not_beacon, _HOST_IP),
    "dst_ip": _Field(_ipv4, _not_beacon, _HOST_IP),
    "sport": _Field(int, _integer(0, 0xFFFF), _PORTS),
    "dport": _Field(int, _integer(0, 0xFFFF), _PORTS),
    "proto": _Field(int, _integer(0, 0xFF), "in 0..255 (the IPv4 protocol field is 8 bits)"),
    "n_packets": _Field(int, _integer(1, MAX_END_US),
                        f"in 1..{MAX_END_US} (a packet per microsecond at most)"),
}


# ---------------------------------------------------------------------------
# Scenario files

def _read_hosts(rows: List[tuple]) -> Tuple[Optional[HostTable], Any]:
    """Host lines, as (lineno, ip, hops, side, "os" or "ttl", value), to a
    host table, or None and the (lineno, message) of the first bad line."""
    lines, ips, hops, sides, stacks, values = (
        map(list, zip(*rows)) if rows else ([] for _ in range(6)))
    cells = {"ip": ips, "hops": hops, "side": sides,     # a row fills "os" or "ttl"
             **{name: [v if s == name else None for s, v in zip(stacks, values)]
                for name in ("os", "ttl")}}
    parsed, refused = _columns(_HOST_COLUMNS, cells)
    if refused:
        row, name, cell = refused
        return None, (lines[row], _refusal(name, _HOST_COLUMNS[name], cell))
    return HostTable.of_columns(ips, parsed), None


def _read_flows(rows: List[tuple]) -> Tuple[Optional[FlowTable], Any]:
    """Flow lines, as (lineno, *columns), to a flow table, or None and the
    (lineno, message) of the first bad line."""
    lines, *columns = (map(list, zip(*rows)) if rows
                       else ([] for _ in range(1 + len(_FLOW_COLUMNS))))
    cells = dict(zip(_FLOW_COLUMNS, columns))
    parsed, refused = _columns(_FLOW_COLUMNS, cells)
    if refused:
        row, name, cell = refused
        return None, (lines[row], _refusal(name, _FLOW_COLUMNS[name], cell))
    # a checked dotted quad is its own canonical text, the hosts' key
    flows = dict(parsed, src_ip=cells["src_ip"], dst_ip=cells["dst_ip"])
    return FlowTable(*flows.values()), None


def load_scenario(path) -> ScenarioSpec:
    """Parse the flat key-value + host/flow table format shown above.

    The file must be UTF-8; every value is parsed and range-checked by its
    field's table entry, the host and flow tables a column at a time, and
    the first bad line is refused with ``file:line``.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text at byte {exc.start} "
                            f"({exc.reason})") from exc
    keys = {}
    host_rows: List[tuple] = []
    flow_rows: List[tuple] = []
    refused = []     # (lineno, message) of the first bad line of each kind
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("["):
                if line not in ("[hosts]", "[flows]"):
                    raise ValueError(f"unknown section {line}")
                section = line
            elif section == "[hosts]":
                parts = line.split(maxsplit=3)
                if len(parts) != 4:
                    raise ValueError("host line needs: ip hops side os:<label>|ttl:<n>")
                stack, colon, value = parts[3].partition(":")
                if not colon or stack not in ("os", "ttl"):
                    raise ValueError("host column 4 must be os:<label> or ttl:<n>, "
                                     f"got {parts[3]!r}")
                host_rows.append((lineno, *parts[:3], stack, value))
            elif section == "[flows]":
                parts = line.split()
                if len(parts) != len(_FLOW_COLUMNS):
                    raise ValueError(f"flow line needs {len(_FLOW_COLUMNS)} columns")
                flow_rows.append((lineno, *parts))
            else:
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _KEYS:
                    raise ValueError(f"unknown scenario key {key!r}")
                keys[key] = _in_range(key, _KEYS[key], value.strip())
        except ValueError as exc:
            refused.append((lineno, str(exc)))
            break
    # the table lines read before a bad line are checked by column
    hosts, bad_host = _read_hosts(host_rows)
    flows, bad_flow = _read_flows(flow_rows)
    refused += [bad for bad in (bad_host, bad_flow) if bad]
    if refused:
        lineno, message = min(refused)
        raise ScenarioError(f"{path}:{lineno}: {message}")
    return ScenarioSpec(hosts, flows if flow_rows else None, **keys)
