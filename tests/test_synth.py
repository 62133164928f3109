"""Generator contracts: determinism, feasibility, closed-loop ground truth."""

import dataclasses
import hashlib
import json
import math
import random
import re
import statistics
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowlens.apps import AppCategory
from flowlens.flows import aggregate
from flowlens.hops import FingerprintDb
from flowlens.ingest import read_trace
from flowlens.pcapio import LINKTYPE_RAW_IP, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from flowlens.report import AnalysisParams, analyze_trace
from flowlens.synth import (_FLOW_COLUMNS, _HOST_COLUMNS, _KEYS, ScenarioError,
                            _plan_random_flows, _plan_scenario, _poisson,
                            _resolve_hosts, _validate_spec, generate, ground_truth_path,
                            load_scenario, sample_flow_size)
from flowlens.tail import fit_tail, llcd

from helpers import (DB, FP_LABELS, SRC_NET, FlowPlan, HostSpec, flow_keys, random_scenario,
                     scenario, table1_scenario)
from reference import (classify, emit_pcap, host_row, ipv4_int, ipv4_str, plan_random_flows,
                       true_flows, true_hosts, truth_dict)


def assert_closed_loop(spec, tmp_path, name="loop.pcap"):
    """Generate, re-analyze, and compare against ground truth exactly."""
    path, gt = generate(spec, tmp_path / name)
    result = analyze_trace(path, AnalysisParams(keep=f"src:{SRC_NET}", force=True), DB)

    flows = result.records
    keys = flow_keys(flows)
    got = {(b, k): (n, nb, g, classify(k)) for (b, k), n, nb, g in zip(
        keys, flows.n_packets.tolist(), flows.n_bytes.tolist(), flows.is_greedy.tolist())}
    planted = true_flows(gt)
    want = {(f.block, f.key): (f.n_packets, f.n_bytes, f.n_packets > 20, f.category)
            for f in planted if f.n_packets >= 2}
    assert got == want

    path_hops = dict(zip(keys, result.flow_hops.tolist()))
    for f in planted:
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


def _late_flow_scenario(block=3):
    """One 5-packet flow in ``block`` of five, with no reverse flow."""
    hosts = [HostSpec("10.0.0.1", 5, "src", initial_ttl=64),
             HostSpec("203.0.113.1", 5, "dst", initial_ttl=64)]
    late = [FlowPlan(block, "10.0.0.1", "203.0.113.1", 1, 80, PROTO_TCP, 5)]
    return scenario(hosts, late, duration=0.5, bidirectional=False)


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
    (lambda: dataclasses.replace(random_scenario(5), link=LINKTYPE_RAW_IP),
     "93cba975b0f9a05cd36d3902130ef07c0c6a1a97c9faa384ef3f73653322229a",
     "ce9963c11b3457f2ad2bb529ce9607b3418ca4364000a26230697cacc1e016f8"),
    # block 0 empty: the t=0 beacon
    (_late_flow_scenario,
     "34ac7fafc818ba8bd830af98bf1390c2bea284e4a240a8dcffed1951751a48b3",
     "1c5b5f9c196ee1f5f67619a8ea91f376fbadae99ae865a1ebf4acfc9d24ac779"),
], ids=["random", "table1", "raw-ip", "beacon"])
def test_generated_bytes_are_pinned(make_spec, pcap_sha, truth_sha, tmp_path):
    """The pcap's bytes and the ground truth file's bytes, its newline aside."""
    path, _ = generate(make_spec(), tmp_path / "pinned.pcap")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pcap_sha
    content = ground_truth_path(path).read_bytes()
    assert content.endswith(b"\n")
    assert hashlib.sha256(content[:-1]).hexdigest() == truth_sha


@st.composite
def emitter_scenarios(draw):
    """Small feasible scenarios over every input the frame encoder branches on."""
    def host(ip, side):
        hops = draw(st.integers(0, 20))
        if draw(st.booleans()):
            return HostSpec(ip, max(hops, 1), side, os_label=draw(st.sampled_from(FP_LABELS)))
        return HostSpec(ip, hops, side, initial_ttl=draw(st.sampled_from([64, 128, 255])))

    srcs = [host(f"10.0.0.{i + 1}", "src") for i in range(draw(st.integers(1, 4)))]
    dsts = [host(f"203.0.113.{i + 1}", "dst") for i in range(draw(st.integers(1, 3)))]
    n_blocks = draw(st.integers(1, 5))
    tau = draw(st.sampled_from([0.001, 0.01, 0.1]))   # 0.001: slots tie and collide
    keys = dict(duration=n_blocks * tau, tau=tau, seed=draw(st.integers(0, 2**32)),
                flows_per_block=draw(st.sampled_from(["poisson:3", "fixed:2"])),
                flow_size_cap=40, packet_bytes=draw(st.integers(64, 200)),
                bidirectional=draw(st.booleans()),
                key_repeat_prob=draw(st.sampled_from([0.0, 0.5])),
                snaplen=draw(st.sampled_from([78, 96, 160])),
                link=draw(st.sampled_from(["ethernet", "raw"])))
    flows = []
    if draw(st.booleans()):     # explicit plan; block 0 left empty draws the beacon
        first_block = draw(st.integers(0, min(1, n_blocks - 1)))
        cells = draw(st.lists(st.tuples(
            st.integers(first_block, n_blocks - 1), st.sampled_from(srcs),
            st.sampled_from(dsts), st.integers(0, 65535), st.integers(0, 65535),
            st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 47])),
            min_size=1, max_size=8, unique=True))
        flows = [FlowPlan(b, s.ip, d.ip, sp, dp, proto, draw(st.integers(1, 30)))
                 for b, s, d, sp, dp, proto in cells]
    return scenario(srcs + dsts, flows, **keys)


def _huge_tau_scenario():
    """One 4e9 s block holding 3000 packets: k * tau_us passes 2**63."""
    hosts = [HostSpec("10.0.0.1", 5, "src", os_label="Linux 2.4"),
             HostSpec("203.0.113.1", 5, "dst", initial_ttl=64)]
    flows = [FlowPlan(0, "10.0.0.1", "203.0.113.1", 1024, 80, PROTO_TCP, 3000)]
    return scenario(hosts, flows, duration=4e9, tau=4e9)


def _double_carry_scenario():
    """A data frame whose IPv4 header words sum to 0x3fffd: the fold carries twice."""
    hosts = [HostSpec("10.255.255.255", 92, "src", initial_ttl=255),
             HostSpec("203.0.255.61", 5, "dst", initial_ttl=64)]
    flows = [FlowPlan(0, "10.255.255.255", "203.0.255.61", 1024, 80, PROTO_TCP, 2)]
    return scenario(hosts, flows, duration=0.1, bidirectional=False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(emitter_scenarios())
@example(_huge_tau_scenario())
@example(_double_carry_scenario())
def test_columnar_emitter_matches_reference(tmp_path_factory, spec):
    """generate's pcap equals the frame-at-a-time emitter's, byte for byte."""
    d = tmp_path_factory.mktemp("emit")
    try:
        path, _ = generate(spec, d / "columnar.pcap")
    except ScenarioError:       # more packets drawn than a block has slots
        assume(False)
    hosts, plan = _plan_scenario(spec, FingerprintDb.default())
    emit_pcap(spec, hosts, plan, d / "reference.pcap")
    assert path.read_bytes() == (d / "reference.pcap").read_bytes()


@st.composite
def planner_scenarios(draw):
    """Random-plan inputs: arrivals, category order and zero weights, repeats."""
    def hosts(prefix, side):
        return [HostSpec(f"{prefix}.{i + 1}", 5, side, initial_ttl=64)
                for i in range(draw(st.integers(1, 3)))]

    cats = draw(st.permutations(list(AppCategory)))
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=4, max_size=4)
                   .filter(any))
    mix = {c: w / sum(weights) for c, w in zip(cats, weights)}
    arrivals = draw(st.one_of(st.integers(0, 6).map("fixed:{}".format),
                              st.sampled_from([0, 0.5, 3, 7.5]).map("poisson:{}".format)))
    return scenario(hosts("10.0.0", "src") + hosts("203.0.113", "dst"),
                    duration=draw(st.integers(1, 8)) * 0.1, seed=draw(st.integers(0, 2**64)),
                    flows_per_block=arrivals, app_mix=mix,
                    flow_size_alpha=draw(st.sampled_from([0.5, 1.5, 3.0])),
                    flow_size_cap=draw(st.sampled_from([2, 40, 2000])),
                    key_repeat_prob=draw(st.sampled_from([0.0, 0.1, 1.0])))


def _one_host_each_icmp():
    """Every flow ICMP between one host pair: each new flow after a block's
    first collides, and its 16 redraws run out."""
    return scenario([HostSpec("10.0.0.1", 5, "src", initial_ttl=64),
                     HostSpec("203.0.113.1", 5, "dst", initial_ttl=64)],
                    duration=0.5, seed=3, flows_per_block="fixed:3",
                    app_mix={AppCategory.OTHER: 1.0}, key_repeat_prob=0.1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planner_scenarios())
@example(_one_host_each_icmp())
def test_planner_draws_as_the_stdlib_calls(spec):
    """The inline draws plan what rng.choices, rng.choice and sample_flow_size
    plan, and leave the generator in the same state."""
    _validate_spec(spec)
    hosts = _resolve_hosts(spec.hosts, FingerprintDb.default())
    rng, oracle_rng = random.Random(spec.seed), random.Random(spec.seed)
    got = _plan_random_flows(spec, rng, hosts)
    want = plan_random_flows(spec, oracle_rng, hosts)
    for name in ("block", "src", "dst", "src_port", "dst_port", "proto", "n_packets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.category == want.category and got.n_forward == want.n_forward
    assert rng.getstate() == oracle_rng.getstate()


def test_different_seed_different_bytes(tmp_path):
    spec_a = random_scenario(5)
    spec_b = random_scenario(6)
    path_a, _ = generate(spec_a, tmp_path / "a.pcap")
    path_b, _ = generate(spec_b, tmp_path / "b.pcap")
    assert path_a.read_bytes() != path_b.read_bytes()


def _empty_scenario():
    """Two hosts and no flows."""
    return scenario([HostSpec("10.0.0.1", 5, "src", initial_ttl=64),
                     HostSpec("203.0.113.1", 5, "dst", initial_ttl=64)],
                    duration=0.5, flows_per_block="fixed:0")


def test_empty_scenario_valid_pcap(tmp_path):
    path, gt = generate(_empty_scenario(), tmp_path / "empty.pcap")
    records, summary = read_trace(path)
    assert len(records) == 0 and summary.total == 0
    assert true_flows(gt) == [] and gt.total_packets == 0 and not gt.beacon


def test_infeasible_block_rejected_before_emission(tmp_path):
    hosts = [HostSpec("10.0.0.1", 5, "src", initial_ttl=64),
             HostSpec("203.0.113.1", 5, "dst", initial_ttl=64)]
    flows = [FlowPlan(0, "10.0.0.1", "203.0.113.1", 1, 80, PROTO_TCP, 1001)]
    spec = scenario(hosts, flows, duration=0.01, tau=0.001)
    out = tmp_path / "never.pcap"
    with pytest.raises(ScenarioError, match="slots"):
        generate(spec, out)
    assert not out.exists() or out.stat().st_size <= 24   # nothing emitted


def test_single_flow_example(tmp_path):
    # one 25-packet flow, host 13 hops out with a 128-initial stack
    hosts = [HostSpec("10.0.0.1", 13, "src", os_label="Windows 2000"),
             HostSpec("203.0.113.1", 4, "dst", os_label="Linux 2.4")]
    flows = [FlowPlan(0, "10.0.0.1", "203.0.113.1", 1024, 80, PROTO_TCP, 25)]
    spec = scenario(hosts, flows, duration=0.1)
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
    assert aggregate(records, AnalysisParams()).block.tolist() == [3]

    _, gt2 = generate(_late_flow_scenario(block=0), tmp_path / "early.pcap")
    assert not gt2.beacon


def test_ground_truth_json_round_trip(tmp_path):
    spec = table1_scenario()
    path, gt = generate(spec, tmp_path / "t1.pcap")
    assert json.loads(ground_truth_path(path).read_text()) == truth_dict(gt)


_ODD_LABEL = 'Odd "quoted" \\ stack \u00e9'     # JSON escapes a quote, a backslash, é
_ODD_ENTRY = f"5840|64|1|MSS,SACK,TS,NOP,WS|*|{_ODD_LABEL}\n"


def _odd_label_scenario():
    """A label JSON escapes: a quote, a backslash and a non-ASCII letter."""
    hosts = [HostSpec("10.0.0.1", 5, "src", os_label=_ODD_LABEL),
             HostSpec("10.0.0.2", 7, "src", initial_ttl=128),
             HostSpec("203.0.113.1", 5, "dst", initial_ttl=64)]
    return scenario(hosts, duration=0.3, flows_per_block="fixed:4")


def _large_table_hosts():
    """2000 hosts, half on each side: every label of the built-in database
    and the odd one, the rest random labels or ttl: hosts."""
    r = random.Random(2000)
    labels = [e.os_label for e in FingerprintDb.default().entries] + [_ODD_LABEL]
    hosts = []
    for i in range(2000):
        side, net = ("src", "10.0") if i < 1000 else ("dst", "198.18")
        ip = f"{net}.{i // 250}.{i % 250 + 1}"
        label = labels[i % 1000] if i % 1000 < len(labels) else r.choice(labels + [None] * 6)
        ttl = r.choice([64, 128, 255]) if label is None else None
        hosts.append(HostSpec(ip, r.randint(0, 20), side, initial_ttl=ttl, os_label=label))
    return hosts


def _large_table_scenario():
    return scenario(_large_table_hosts(), duration=0.5, seed=3, flows_per_block="fixed:400",
                    flow_size_cap=20)


_DEFAULT_DB = resources.files("flowlens.data").joinpath("fingerprints.default").read_text()


@pytest.mark.parametrize("make_spec, db_text", [
    (_empty_scenario, None),
    (_late_flow_scenario, None),        # the t=0 beacon; hosts without an os_label
    (lambda: random_scenario(5), None),
    (_odd_label_scenario, _ODD_ENTRY),
    (_large_table_scenario, _DEFAULT_DB + _ODD_ENTRY),
], ids=["empty", "beacon", "random", "odd-label", "large-table"])
def test_ground_truth_file_is_json_dumps(make_spec, db_text, tmp_path):
    """The file holds what json.dumps(..., sort_keys=True) writes for the truth."""
    db = FingerprintDb.loads(db_text) if db_text else None
    path, gt = generate(make_spec(), tmp_path / "t.pcap", db)
    want = json.dumps(truth_dict(gt), sort_keys=True) + "\n"
    assert ground_truth_path(path).read_bytes() == want.encode("ascii")


def test_scenario_file_hosts_give_the_specs_truth():
    """A host table read from a file holds its lines' values, column by column."""
    rows = _large_table_hosts()
    hosts = _large_table_scenario().hosts
    assert len(hosts) == len(rows)
    assert hosts.ip == [h.ip for h in rows]
    assert hosts.addr.tolist() == [ipv4_int(h.ip) for h in rows]
    assert hosts.hops.tolist() == [h.hops_to_monitor for h in rows]
    assert hosts.side == [h.side for h in rows]
    assert hosts.initial_ttl.tolist() == [h.initial_ttl or 0 for h in rows]
    assert [hosts.labels[k] for k in hosts.label.tolist()] == [h.os_label for h in rows]


def test_table1_scenario_breakdown(tmp_path):
    from flowlens.apps import AppCategory
    spec = table1_scenario()
    path, gt, result = assert_closed_loop(spec, tmp_path, "t1.pcap")
    # planted all-flows mix 54/38/7/1, greedy subset 70% HTTP
    assert result.app_all[AppCategory.HTTP] == pytest.approx(0.54, abs=0.01)
    assert result.app_all[AppCategory.OTHER_TCP] == pytest.approx(0.38, abs=0.01)
    assert result.app_all[AppCategory.UDP] == pytest.approx(0.07, abs=0.01)
    assert result.app_all[AppCategory.OTHER] == pytest.approx(0.01, abs=0.01)
    assert result.app_greedy[AppCategory.HTTP] == pytest.approx(0.70, abs=0.01)


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
    spec = scenario(hosts, duration=100.0, tau=0.1, seed=42,
                    flows_per_block="fixed:100", flow_size_alpha=1.5,
                    flow_size_cap=2000, key_repeat_prob=0.0, bidirectional=False)
    _, gt = generate(spec, tmp_path / "big.pcap")
    sizes = [f.n_packets for f in true_flows(gt)]
    assert len(sizes) > 90_000
    fit = fit_tail(llcd(sizes), x_min=20)
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
    assert spec.hosts.ip == ["10.0.0.1", "10.0.0.2", "203.0.113.1"]
    assert [spec.hosts.labels[k] for k in spec.hosts.label] == ["Linux 2.4", None, "FreeBSD 4.x"]
    assert spec.hosts.initial_ttl.tolist() == [0, 128, 0]
    assert spec.flows.n_packets == [25, 4] and spec.flows.dst_port == [80, 21]
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

    # the tables are checked a column at a time, but the refused line is
    # the first bad one, whatever its column, section or fault
    hosts = ["10.0.0.1 5 src ttl:64", "10.0.0.2 300 src ttl:64",
             "10.0.0.999 5 src ttl:64", "203.0.113.1 5 dst os:"]
    flows = ["0 10.0.0.1 203.0.113.1 1024 80 6 0", "0 10.0.0.1 203.0.113.1 70000 80 6 5"]
    for lines, where in (
            (["[hosts]", *hosts], "bad.scenario:3: bad hops '300'"),
            (["[hosts]", *hosts[::-1]], "bad.scenario:2: bad os ''"),
            (["[hosts]", *hosts[2:], "[flows]", *flows], "bad.scenario:2: bad ip"),
            (["[flows]", *flows, "[hosts]", *hosts], "bad.scenario:2: bad n_packets '0'"),
            (["[flows]", *flows[1:], "[hosts]", *hosts], "bad.scenario:2: bad sport"),
            (["[hosts]", hosts[0], "[oops]", hosts[1]], "bad.scenario:3: unknown section"),
            (["[hosts]", hosts[1], "[oops]"], "bad.scenario:2: bad hops")):
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match=where):
            load_scenario(bad)


def test_spec_validation_errors(tmp_path):
    """Scenarios refused for a value out of its field's range (the bounds
    are ``test_field_bounds``'), and for each check that spans fields or rows."""
    src = HostSpec("10.0.0.1", 5, "src", initial_ttl=64)
    dst = HostSpec("203.0.113.1", 5, "dst", initial_ttl=64)
    flow = FlowPlan(0, "10.0.0.1", "203.0.113.1", 1024, 80, PROTO_TCP, 5)
    # the second entry's crafted SYN matches the first, whose initial TTL differs
    shadowed = FingerprintDb.loads("5840|255|1|MSS|*|first\n5840|128|1|MSS|*|second\n"
                                   "*|64|1|MSS|*|wildcard\n")
    for hosts, flows, keys, match in (
            ([src._replace(side="up")], [], {}, "bad side 'up'"),
            ([src._replace(hops_to_monitor=70)], [], {}, "hops 70 >= initial TTL 64"),
            ([src._replace(initial_ttl=None, os_label="BeOS")], [], {}, "unknown fingerprint"),
            ([src, dst], [], {"app_mix": {AppCategory.HTTP: 0.5}}, "bad app_mix"),
            # of two bad rows, the first is refused
            ([src, dst._replace(side="up"), dst._replace(ip="203.0.113.9", hops_to_monitor=-1)],
             [], {}, "test.scenario:3: bad side 'up'"),
            ([], [], {"duration": 0.01}, "duration must cover"),
            ([], [], {"duration": 5e9, "tau": 1e9}, "2\\*\\*32 s"),
            ([], [], {"tau": 0.001, "flows_per_block": "poisson:501"}, "room for 500 flows"),
            ([src, src], [], {}, "duplicate host"),
            ([src._replace(initial_ttl=None, os_label="second")], [], {}, "ambiguous database"),
            ([src._replace(initial_ttl=None, os_label="wildcard")], [], {}, "wildcard"),
            ([src], [], {}, "at least one src and one dst"),
            ([src, dst], [flow._replace(block=10)], {}, "flow block 10 outside 0..9"),
            ([src, dst], [flow, flow], {}, "duplicate flow"),
            ([src], [flow], {}, "unknown host"),
            ([src, dst], [flow._replace(src_ip=dst.ip, dst_ip=src.ip)], {},
             "crosses host sides")):
        with pytest.raises(ScenarioError, match=match):
            generate(scenario(hosts, flows, **keys), tmp_path / "x.pcap", shadowed)
        assert not (tmp_path / "x.pcap").exists()

    # one label at two observed TTLs: the host 68 hops out sends TTL 60, and
    # its crafted SYN matches the TTL-64 entry listed first
    ttl_db = FingerprintDb.loads("5840|64|1|MSS|*|low\n5840|128|1|MSS|*|high\n")
    hosts = [HostSpec("10.0.0.1", 28, "src", os_label="high"),
             HostSpec("10.0.0.2", 68, "src", os_label="high")]
    with pytest.raises(ScenarioError, match="10.0.0.2: crafted SYN for 'high' resolves to low"):
        generate(scenario(hosts), tmp_path / "x.pcap", ttl_db)


# A first host or flow line, then the line under test; "{}" is the value under test.
_HOST = "[hosts]\n10.0.0.1 5 src ttl:64\n"
_FLOW = "[flows]\n0 10.0.0.1 203.0.113.1 1024 80 6 5\n"


@pytest.mark.parametrize("name, line, accepted, refused", [
    ("duration", "duration = {}", "8589934591", "8589934592"),
    ("tau", "tau = {}", "0.000001", "0.0000004"),
    ("tau", "tau = {}", "4294967295.999999", "4294967296"),
    ("key_repeat_prob", "key_repeat_prob = {}", "1", "1.0000000000000002"),
    ("packet_bytes", "packet_bytes = {}", "64", "63"),
    ("packet_bytes", "packet_bytes = {}", "65535", "65536"),
    ("snaplen", "snaplen = {}", "78", "77"),
    ("snaplen", "snaplen = {}", "262144", "262145"),
    ("flow_size_cap", "flow_size_cap = {}", "2", "1"),
    ("ip", _HOST + "{} 5 src ttl:64", "192.0.2.253", "192.0.2.255"),
    ("hops", _HOST + "10.0.0.2 {} src ttl:255", "255", "256"),
    ("ttl", _HOST + "10.0.0.2 5 src ttl:{}", "1", "0"),
    ("ttl", _HOST + "10.0.0.2 5 src ttl:{}", "255", "256"),
    ("block", _FLOW + "{} 10.0.0.1 203.0.113.1 1024 80 6 5", "0", "-1"),
    ("src_ip", _FLOW + "0 {} 203.0.113.1 1024 80 6 5", "192.0.2.253", "192.0.2.254"),
    ("sport", _FLOW + "0 10.0.0.1 203.0.113.1 {} 80 6 5", "65535", "65536"),
    ("dport", _FLOW + "0 10.0.0.1 203.0.113.1 1024 {} 6 5", "65535", "65536"),
    ("proto", _FLOW + "0 10.0.0.1 203.0.113.1 1024 80 {} 5", "255", "256"),
    ("proto", _FLOW + "0 10.0.0.1 203.0.113.1 1024 80 {} 5", "0", "-1"),
    ("n_packets", _FLOW + "0 10.0.0.1 203.0.113.1 1024 80 6 {}", "1", "0"),
])
def test_field_bounds(name, line, accepted, refused, tmp_path):
    """A field's range holds its edge value, and the value past the edge
    is refused with its line, name and text."""
    path = tmp_path / "b.scenario"
    path.write_text(line.format(accepted) + "\n", encoding="utf-8")
    load_scenario(path)
    path.write_text(line.format(refused) + "\n", encoding="utf-8")
    lineno = line.count("\n") + 1
    where = f"b.scenario:{lineno}: bad {name} '{refused}': must be"
    with pytest.raises(ScenarioError, match=re.escape(where)):
        load_scenario(path)


@pytest.mark.parametrize("keys, refused", [
    ({"tau": 0.001, "flows_per_block": "poisson:500"}, None),
    ({"tau": 0.001, "flows_per_block": "poisson:501"}, "room for 500 flows"),
    ({"duration": 10, "key_repeat_prob": 1, "flows_per_block": "fixed:104"}, None),
    ({"duration": 10, "key_repeat_prob": 1, "flows_per_block": "fixed:105"},
     "random plan too large"),
    ({"duration": 10, "key_repeat_prob": 0.5, "flows_per_block": "fixed:5242"}, None),
    ({"duration": 10, "key_repeat_prob": 0.5, "flows_per_block": "fixed:5243"},
     "random plan too large"),
])
def test_random_plan_bounds_at_their_edges(keys, refused):
    """A block has room for tau_us / 2 flows; the planned work of 100 blocks
    whose 104 flows a block never end is 100 * (1 + 104 * 100) = 1,040,100
    <= 2**20, and with 105 flows 1,050,100 > 2**20. A flow that repeats its
    key with probability 0.5 lives 1 / (1 - 0.5) = 2 blocks: 100 blocks of
    5242 flows plan 100 * (1 + 5242 * 2) = 1,048,500 <= 2**20, and of 5243
    flows 1,048,700 > 2**20. Checked without planning: a plan past the bound
    is never made."""
    spec = scenario(**keys)
    if refused is None:
        _validate_spec(spec)
    else:
        with pytest.raises(ScenarioError, match=refused):
            _validate_spec(spec)


def test_readme_scenario_docs(tmp_path):
    """The README's example scenario generates, and its tables name exactly
    the scenario keys and the [hosts] and [flows] columns."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    (tmp_path / "readme.scenario").write_text(section.split("```\n")[1], encoding="utf-8")
    _, truth = generate(load_scenario(tmp_path / "readme.scenario"), tmp_path / "readme.pcap")
    assert truth.total_packets == 25 + 2       # the planned flow and its reverse flow

    tables = [block.splitlines()[2:] for block in section.split("\n\n") if block.startswith("|")]
    names = [[name.split(":")[0] for row in rows
              for name in re.findall(r"`([^`]+)`", row.split("|")[1])] for rows in tables]
    assert names == [list(_KEYS), list(_HOST_COLUMNS), list(_FLOW_COLUMNS)]
