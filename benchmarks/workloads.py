"""Benchmark workloads: fixed scenario parameters, seeded host tables.

A workload is one `flowlens analyze` invocation over one or more traces.
Everything that shapes the work (duration, flow arrival, size law, link
type, direction filter) is fixed here. The benchmark seed only picks the
host table (addresses, hop distances, stacks) and the generator seed of
each trace, so two seeds give traces of the same kind and about the same
size, and one seed always gives the same bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Tuple

DEFAULT_SEED = 1
TAU = 0.1                      # block length; also flowlens analyze's default --tau

SRC_NET = "10.0.0.0/8"
# Stacks whose built-in fingerprint entries can be crafted into a SYN that
# matches back to the same entry (the generator refuses ambiguous ones).
FP_LABELS = ("Linux 2.4", "Windows 2000", "FreeBSD 4.x", "Solaris 8",
             "Windows 98", "MacOS 9", "Cisco IOS 12")
FALLBACK_TTLS = (64, 128, 255)


@dataclass(frozen=True)
class TraceShape:
    """Scenario keys shared by every trace of a workload."""

    hosts: int                 # split evenly between src and dst side
    duration: float
    flows_per_block: str
    flow_size_alpha: float
    flow_size_cap: int = 2000
    key_repeat_prob: float = 0.1
    link: str = "ethernet"
    fingerprinted: float = 0.7
    max_hops: int = 20

    @property
    def planned_here(self) -> bool:
        """`fixed:k` traces get their flow table from `planned_flows`.

        For a few heavy flows the generator's independent size draws move a
        trace's packet count by about 15% between seeds; sizes stratified
        over the same law hold it within about 1%.
        """
        return self.flows_per_block.startswith("fixed:")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: TraceShape
    n_traces: int
    keep: str                  # value of `flowlens analyze --keep`

    def smoke(self) -> "Workload":
        """A tiny version with the same structure, for a seconds-long check."""
        return replace(self, shape=replace(self.shape, duration=3.0,
                                           hosts=min(self.shape.hosts, 40)))


WORKLOADS = {w.name: w for w in (
    # The reference trace: every layer does its real-world share, ingest
    # the largest. Headline for ingest and whole-pipeline work.
    Workload(
        name="mixed",
        shape=TraceShape(hosts=600, duration=60.0, flows_per_block="poisson:40",
                         flow_size_alpha=1.5),
        n_traces=1, keep=f"src:{SRC_NET}"),
    # Many hosts and short flows: the per-record and per-host layers
    # (aggregate, hops, write) do the most work per frame.
    Workload(
        name="mice",
        shape=TraceShape(hosts=8000, duration=30.0, flows_per_block="poisson:120",
                         flow_size_alpha=3.0, key_repeat_prob=0.0),
        n_traces=1, keep=f"src:{SRC_NET}"),
    # Few long flows on the raw-IP link path, two traces in one CLI call:
    # ingest and the multi-trace path; the per-record layers are near zero,
    # so a gain there should show no change here.
    Workload(
        name="elephants-batch",
        shape=TraceShape(hosts=12, duration=40.0, flows_per_block="fixed:2",
                         flow_size_alpha=0.5, link="raw"),
        n_traces=2, keep="all"),
)}


def _addr(rng: random.Random, first: int, second_lo: int, second_hi: int,
          used: set) -> str:
    while True:
        ip = (f"{first}.{rng.randint(second_lo, second_hi)}."
              f"{rng.randint(0, 255)}.{rng.randint(1, 254)}")
        if ip not in used:
            used.add(ip)
            return ip


def host_table(shape: TraceShape, rng: random.Random) -> List[Tuple[str, str, str]]:
    """(ip, side, scenario line) per host: src side in 10/8, dst in 198.18/15."""
    used: set = set()
    hosts = []
    n_src = shape.hosts // 2
    for i in range(shape.hosts):
        side = "src" if i < n_src else "dst"
        ip = (_addr(rng, 10, 0, 255, used) if side == "src"
              else _addr(rng, 198, 18, 19, used))
        hops = rng.randint(1, shape.max_hops)
        if rng.random() < shape.fingerprinted:
            stack = f"os:{rng.choice(FP_LABELS)}"
        else:
            stack = f"ttl:{rng.choice(FALLBACK_TTLS)}"
        hosts.append((ip, side, f"{ip:<16} {hops:>2}  {side}  {stack}"))
    return hosts


def planned_flows(shape: TraceShape, rng: random.Random,
                  hosts: List[Tuple[str, str, str]]) -> List[str]:
    """Scenario `[flows]` lines: `fixed:k` flows per block, stratified sizes.

    Sizes follow the generator's law (floored Pareto from 2 packets,
    `flow_size_alpha`, nothing above the cap), but the uniform variates
    are one per stratum of the admissible range, shuffled over the flows.
    Every flow is a TCP transfer to port 80 from its own ephemeral port.
    """
    per_block = int(shape.flows_per_block.partition(":")[2])
    n_blocks = round(shape.duration / TAU)
    n = n_blocks * per_block
    alpha, cap = shape.flow_size_alpha, shape.flow_size_cap
    u_lo = (2.0 / (cap + 1)) ** alpha          # floor(2 u^(-1/alpha)) <= cap above this
    sizes = [min(cap, math.floor(2.0 * (u_lo + (1.0 - u_lo) * (i + rng.random()) / n)
                                 ** (-1.0 / alpha)))
             for i in range(n)]
    rng.shuffle(sizes)

    srcs = [ip for ip, side, _ in hosts if side == "src"]
    dsts = [ip for ip, side, _ in hosts if side == "dst"]
    return [f"{i // per_block} {rng.choice(srcs)} {rng.choice(dsts)} "
            f"{1024 + i} 80 6 {size}" for i, size in enumerate(sizes)]


def scenario_text(workload: Workload, seed: int, index: int) -> str:
    """The scenario file of trace `index` of `workload` under `seed`."""
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    shape = workload.shape
    lines = [
        f"# flowlens benchmark workload {workload.name}, seed {seed}, trace {index}",
        f"duration = {shape.duration}",
        f"tau = {TAU}",
        f"seed = {rng.randrange(2**31)}",
        f"flows_per_block = {shape.flows_per_block}",
        f"flow_size_alpha = {shape.flow_size_alpha}",
        f"flow_size_cap = {shape.flow_size_cap}",
        "packet_bytes = 700",
        "bidirectional = true",
        f"key_repeat_prob = {shape.key_repeat_prob}",
        f"link = {shape.link}",
        "",
        "[hosts]",
    ]
    hosts = host_table(shape, rng)
    lines += [line for _, _, line in hosts]
    if shape.planned_here:
        lines += ["", "[flows]"] + planned_flows(shape, rng, hosts)
    return "\n".join(lines) + "\n"


def write_scenarios(workload: Workload, seed: int, out_dir: Path) -> List[Tuple[str, Path]]:
    """Write one scenario file per trace; returns (trace name, path) pairs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(workload.n_traces):
        name = f"{workload.name}-t{i}"
        path = out_dir / f"{name}.scenario"
        path.write_text(scenario_text(workload, seed, i), encoding="utf-8")
        out.append((name, path))
    return out


def get(name: str, smoke: bool = False) -> Workload:
    return WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
