"""Generator contracts: determinism, feasibility, closed-loop ground truth."""

import dataclasses
import hashlib
import json
import math
import random
import statistics

import pytest

from flowlens.apps import classify
from flowlens.flows import BlockingConfig, aggregate
from flowlens.ingest import read_trace
from flowlens.pcapio import LINKTYPE_RAW_IP, PROTO_TCP
from flowlens.report import AnalysisParams, analyze_trace
from flowlens.synth import (FlowPlan, HostSpec, ScenarioError,
                            ScenarioSpec, _poisson, generate, ground_truth_path,
                            load_scenario, sample_flow_size)
from flowlens.tail import fit_tail, llcd

from helpers import SRC_NET, flow_keys, random_scenario, table1_scenario
from reference import host_row, ipv4_str


def assert_closed_loop(spec, tmp_path, name="loop.pcap"):
    """Generate, re-analyze, and compare against ground truth exactly."""
    path, gt = generate(spec, tmp_path / name)
    result = analyze_trace(path, AnalysisParams(keep=f"src:{SRC_NET}", force=True))

    flows = result.records
    keys = flow_keys(flows)
    got = {(b, k): (n, nb, g, classify(k)) for (b, k), n, nb, g in zip(
        keys, flows.n_packets.tolist(), flows.n_bytes.tolist(), flows.is_greedy.tolist())}
    want = {(f.block, f.key): (f.n_packets, f.n_bytes, f.n_packets > 20, f.category)
            for f in gt.flows if f.n_packets >= 2}
    assert got == want

    path_hops = dict(zip(keys, result.flow_hops.tolist()))
    for f in gt.flows:
        if not (f.hops_exact and f.n_packets >= 2):
            continue
        assert path_hops[(f.block, f.key)] != -1, f"missing hop estimate for {f.key}"
        assert path_hops[(f.block, f.key)] == f.path_hops
    return path, gt, result


def test_deterministic_output_bytes(tmp_path):
    spec_a = random_scenario(5)
    spec_b = random_scenario(5)
    path_a, _ = generate(spec_a, tmp_path / "a.pcap")
    path_b, _ = generate(spec_b, tmp_path / "b.pcap")
    assert path_a.read_bytes() == path_b.read_bytes()
    assert ground_truth_path(path_a).read_text() == ground_truth_path(path_b).read_text()


def _late_flow_scenario():
    hosts = [HostSpec("10.0.0.1", 5, "src", initial_ttl=64),
             HostSpec("203.0.113.1", 5, "dst", initial_ttl=64)]
    late = [FlowPlan(3, "10.0.0.1", "203.0.113.1", 1, 80, PROTO_TCP, 5)]
    return ScenarioSpec(duration=0.5, hosts=hosts, flows=late, bidirectional=False)


@pytest.mark.parametrize("make_spec, pcap_sha, truth_sha", [
    # Ethernet, random planning, reverse flows
    (lambda: random_scenario(5),
     "6e4eb16c2d26cf5b5b1d3f1dce455386d276adf2157ea36abd38967537d441bb",
     "ce9963c11b3457f2ad2bb529ce9607b3418ca4364000a26230697cacc1e016f8"),
    # explicit plan, every source opening with a fingerprint SYN
    (table1_scenario,
     "63a439351842a3d0971f2af5ba36ba337c91545ce8fcbee4fd5333c4aa96be85",
     "d6374feccf058c921afbf8adcb4fa93371e7b9274f9b6cca9dc824721bd68e25"),
    # raw IP link type: same plan, no Ethernet header
    (lambda: dataclasses.replace(random_scenario(5), linktype=LINKTYPE_RAW_IP),
     "93cba975b0f9a05cd36d3902130ef07c0c6a1a97c9faa384ef3f73653322229a",
     "ce9963c11b3457f2ad2bb529ce9607b3418ca4364000a26230697cacc1e016f8"),
    # block 0 empty: the t=0 beacon
    (_late_flow_scenario,
     "34ac7fafc818ba8bd830af98bf1390c2bea284e4a240a8dcffed1951751a48b3",
     "1c5b5f9c196ee1f5f67619a8ea91f376fbadae99ae865a1ebf4acfc9d24ac779"),
], ids=["random", "table1", "raw-ip", "beacon"])
def test_generated_bytes_are_pinned(make_spec, pcap_sha, truth_sha, tmp_path):
    """The pcap's bytes and the ground truth's content, not its layout."""
    path, gt = generate(make_spec(), tmp_path / "pinned.pcap")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pcap_sha
    content = json.dumps(gt.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(content).hexdigest() == truth_sha


def test_different_seed_different_bytes(tmp_path):
    spec_a = random_scenario(5)
    spec_b = random_scenario(6)
    path_a, _ = generate(spec_a, tmp_path / "a.pcap")
    path_b, _ = generate(spec_b, tmp_path / "b.pcap")
    assert path_a.read_bytes() != path_b.read_bytes()


def test_empty_scenario_valid_pcap(tmp_path):
    spec = ScenarioSpec(duration=0.5, hosts=[], flows=[])
    path, gt = generate(spec, tmp_path / "empty.pcap")
    records, summary = read_trace(path)
    assert len(records) == 0 and summary.total == 0
    assert gt.flows == [] and gt.total_packets == 0 and not gt.beacon


def test_infeasible_block_rejected_before_emission(tmp_path):
    hosts = [HostSpec("10.0.0.1", 5, "src", initial_ttl=64),
             HostSpec("203.0.113.1", 5, "dst", initial_ttl=64)]
    flows = [FlowPlan(0, "10.0.0.1", "203.0.113.1", 1, 80, PROTO_TCP, 1001)]
    spec = ScenarioSpec(duration=0.01, tau=0.001, hosts=hosts, flows=flows)
    out = tmp_path / "never.pcap"
    with pytest.raises(ScenarioError, match="slots"):
        generate(spec, out)
    assert not out.exists() or out.stat().st_size <= 24   # nothing emitted


def test_single_flow_example(tmp_path):
    # one 25-packet flow, host 13 hops out with a 128-initial stack
    hosts = [HostSpec("10.0.0.1", 13, "src", os_label="Windows 2000"),
             HostSpec("203.0.113.1", 4, "dst", os_label="Linux 2.4")]
    flows = [FlowPlan(0, "10.0.0.1", "203.0.113.1", 1024, 80, PROTO_TCP, 25)]
    spec = ScenarioSpec(duration=0.1, hosts=hosts, flows=flows)
    path, gt, result = assert_closed_loop(spec, tmp_path)

    assert result.records.n_packets.tolist() == [25]
    assert result.records.is_greedy.tolist() == [True]
    est = host_row(result.fwd_host_estimates, "10.0.0.1")
    assert est.hops == 13 and est.initial_ttl == 128


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_randomized_closed_loop(seed, tmp_path):
    assert_closed_loop(random_scenario(seed), tmp_path)


def test_beacon_only_when_block_zero_empty(tmp_path):
    path, gt = generate(_late_flow_scenario(), tmp_path / "late.pcap")
    assert gt.beacon
    records, _ = read_trace(path)
    assert records.ts_us[0] == 0 and ipv4_str(records.src[0]) == "192.0.2.255"
    # thanks to the beacon the flow stays in its planned block
    assert aggregate(records, BlockingConfig()).block.tolist() == [3]

    early = [FlowPlan(0, "10.0.0.1", "203.0.113.1", 1, 80, PROTO_TCP, 5)]
    spec2 = dataclasses.replace(_late_flow_scenario(), flows=early)
    _, gt2 = generate(spec2, tmp_path / "early.pcap")
    assert not gt2.beacon


def test_ground_truth_json_round_trip(tmp_path):
    spec = table1_scenario()
    path, gt = generate(spec, tmp_path / "t1.pcap")
    assert json.loads(ground_truth_path(path).read_text()) == gt.to_dict()


def test_table1_scenario_breakdown(tmp_path):
    from flowlens.apps import AppCategory
    spec = table1_scenario()
    path, gt, result = assert_closed_loop(spec, tmp_path, "t1.pcap")
    # planted all-flows mix 54/38/7/1, greedy subset 70% HTTP
    assert result.app_all.proportions[AppCategory.HTTP] == pytest.approx(0.54, abs=0.01)
    assert result.app_all.proportions[AppCategory.OTHER_TCP] == pytest.approx(0.38, abs=0.01)
    assert result.app_all.proportions[AppCategory.UDP] == pytest.approx(0.07, abs=0.01)
    assert result.app_all.proportions[AppCategory.OTHER] == pytest.approx(0.01, abs=0.01)
    assert result.app_greedy.proportions[AppCategory.HTTP] == pytest.approx(0.70, abs=0.01)


def test_flow_size_sampler_bounds():
    import random as _random
    rng = _random.Random(9)
    sizes = [sample_flow_size(rng, 1.5, cap=50) for _ in range(5000)]
    assert min(sizes) >= 2 and max(sizes) <= 50


def test_poisson_draws_at_large_rates():
    # exp(-1000) underflows; Knuth's method alone stalled near 745
    rng = random.Random(2)
    assert abs(statistics.mean(_poisson(rng, 1000) for _ in range(200)) / 1000 - 1) < 0.05
    # up to 500 the draws are Knuth's method's own, so generated traces keep their bytes
    for lam in (0, 3.5, 40, 120, 500):
        knuth, ours = random.Random(lam), random.Random(lam)
        for _ in range(20):
            limit, k, p = math.exp(-lam), 0, knuth.random()
            while p > limit:
                k += 1
                p *= knuth.random()
            assert _poisson(ours, lam) == k, lam


def test_large_scenario_alpha_recovery(tmp_path):
    """100k planted flow sizes; the curve and fit recover the exponent."""
    hosts = [HostSpec("10.0.0.1", 9, "src", os_label="Linux 2.4"),
             HostSpec("10.0.0.2", 12, "src", initial_ttl=128),
             HostSpec("203.0.113.1", 8, "dst", os_label="FreeBSD 4.x")]
    spec = ScenarioSpec(duration=100.0, tau=0.1, seed=42,
                        flows_per_block="fixed:100", flow_size_alpha=1.5,
                        flow_size_cap=2000, hosts=hosts,
                        key_repeat_prob=0.0, bidirectional=False)
    _, gt = generate(spec, tmp_path / "big.pcap")
    assert len(gt.flows) > 90_000
    fit = fit_tail(llcd([f.n_packets for f in gt.flows]), x_min=20)
    assert fit.alpha == pytest.approx(1.5, abs=0.1)


def test_scenario_file_parsing(tmp_path):
    text = """\
# demo scenario
duration = 2.0
tau = 0.2
seed = 11
flows_per_block = fixed:3
flow_size_alpha = 1.2
flow_size_cap = 400
packet_bytes = 700
bidirectional = true
app_mix = http:0.5,other_tcp:0.3,udp:0.15,other:0.05
key_repeat_prob = 0.25

[hosts]
10.0.0.1     9   src  os:Linux 2.4
10.0.0.2    12   src  ttl:128
203.0.113.1  8   dst  os:FreeBSD 4.x

[flows]
0 10.0.0.1 203.0.113.1 1024 80 6 25
1 10.0.0.2 203.0.113.1 1025 21 6 4
"""
    path = tmp_path / "demo.scenario"
    path.write_text(text)
    spec = load_scenario(path)
    assert spec.duration == 2.0 and spec.tau == 0.2 and spec.seed == 11
    assert len(spec.hosts) == 3
    assert spec.hosts[0].os_label == "Linux 2.4"
    assert spec.hosts[1].initial_ttl == 128
    assert len(spec.flows) == 2 and spec.flows[0].n_packets == 25
    assert spec.key_repeat_prob == 0.25
    generate(spec, tmp_path / "demo.pcap")   # parsed spec is generable


def test_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("duration = nope\n")
    with pytest.raises(ScenarioError, match="bad.scenario:1"):
        load_scenario(bad)
    bad.write_text("[hosts]\n10.0.0.1 1 src nothing\n")
    with pytest.raises(ScenarioError, match="os:"):
        load_scenario(bad)


def test_spec_validation_errors(tmp_path):
    with pytest.raises(ScenarioError, match="side"):
        generate(ScenarioSpec(hosts=[HostSpec("10.0.0.1", 1, "up", initial_ttl=64)],
                              flows=[]), tmp_path / "x.pcap")
    with pytest.raises(ScenarioError, match="hops"):
        generate(ScenarioSpec(hosts=[HostSpec("10.0.0.1", 70, "src", initial_ttl=64)],
                              flows=[]), tmp_path / "x.pcap")
    with pytest.raises(ScenarioError, match="unknown fingerprint"):
        generate(ScenarioSpec(hosts=[HostSpec("10.0.0.1", 1, "src", os_label="BeOS")],
                              flows=[]), tmp_path / "x.pcap")
    with pytest.raises(ScenarioError, match="app_mix"):
        from flowlens.apps import AppCategory
        generate(ScenarioSpec(app_mix={AppCategory.HTTP: 0.5}, hosts=[], flows=[]),
                 tmp_path / "x.pcap")
