"""Per-block flow aggregation against a brute-force grouping oracle."""

import csv
import io
import random
from collections import defaultdict
from dataclasses import fields, replace

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.flows import (FLOWS_CSV_HEADER, Flows, _HALF_RANK, aggregate,
                            write_flows_csv)
from flowlens.pcapio import PROTO_ICMP, PROTO_TCP, PROTO_UDP, PacketRecord
from flowlens.report import AnalysisParams

from helpers import mk_packet
from reference import flow_rows, from_records, ipv4_int, ipv4_str

CFG = AnalysisParams()


def brute_force_group(packets, cfg):
    """Independent oracle: plain dict-of-lists grouping, no shared code path."""
    tau_us = round(cfg.tau * 1e6)
    cells = defaultdict(list)
    for p in packets:
        if p.is_fragment:
            continue
        idx = p.ts_us // tau_us
        cells[(idx, p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto)].append(p)
    out = {}
    for cell, plist in cells.items():
        if len(plist) >= cfg.min_packets:
            ttls = [p.ttl for p in plist]
            rep_ttl = max(set(ttls), key=lambda t: (ttls.count(t), t))   # ties: larger
            out[cell] = (len(plist), sum(p.ip_len for p in plist), rep_ttl)
    return out


def test_single_block_three_packets():
    packets = [mk_packet(t) for t in (0.01, 0.05, 0.09)]
    flows = aggregate(from_records(packets), CFG)
    assert len(flows) == 1
    assert (flows.block[0], flows.n_packets[0], flows.is_greedy[0]) == (0, 3, False)


def test_lone_packet_dropped():
    flows = aggregate(from_records([mk_packet(0.05)]), CFG)
    assert len(flows) == 0 and list(flow_rows(flows)) == []


def test_per_block_independence_and_strict_threshold():
    packets = [mk_packet(i * 0.003) for i in range(25)]          # block 0: 25 pkts
    packets += [mk_packet(0.1 + i * 0.01) for i in range(3)]     # block 1: 3 pkts
    flows = aggregate(from_records(packets), CFG)
    assert list(zip(flows.block.tolist(), flows.n_packets.tolist(),
                    flows.is_greedy.tolist())) == [(0, 25, True), (1, 3, False)]


def test_boundary_packet_joins_later_block():
    packets = [mk_packet(0.1), mk_packet(0.15), mk_packet(0.3), mk_packet(0.31)]
    flows = aggregate(from_records(packets), CFG)
    assert flows.block.tolist() == [1, 3]   # 0.3 s: block 3, not 2


def test_greedy_flag_strictly_above_20():
    packets = [mk_packet(i * 1e-4, sport=sport)
               for sport, n in ((1, 2), (2, 20), (3, 21), (4, 100)) for i in range(n)]
    flows = aggregate(from_records(sorted(packets, key=lambda p: p.ts_us)), CFG)
    assert list(zip(flows.n_packets.tolist(), flows.is_greedy.tolist())) == \
        [(2, False), (20, False), (21, True), (100, True)]


def test_greedy_throughput_equivalent_values():
    # greedy_threshold packets of DEFAULT_AVG_PACKET_BYTES (700) in one block
    assert CFG.to_dict()["greedy_equivalent_bps"] == 1_120_000.0
    assert AnalysisParams(tau=0.1, greedy_threshold=40).to_dict()[
        "greedy_equivalent_bps"] == 2_240_000.0


def test_rep_ttl_modal_with_larger_tie():
    packets = [mk_packet(0.01, ttl=60), mk_packet(0.02, ttl=64),
               mk_packet(0.03, ttl=64), mk_packet(0.04, ttl=60),
               mk_packet(0.05, ttl=55)]
    flows = aggregate(from_records(packets), CFG)
    assert flows.rep_ttl.tolist() == [64]   # 60 and 64 tie at 2; larger wins


def test_records_sorted_by_dotted_quad_string():
    # "10.0.0.10" sorts before "10.0.0.2" as a string, after it as a number;
    # "192." before "3.", whose octet string ranks in the upper half of 0..255's
    packets = [mk_packet(t, src=src) for t in (0.01, 0.02)
               for src in ("10.0.0.2", "10.0.0.10", "9.0.0.1", "3.0.0.1", "192.0.2.1")]
    flows = aggregate(from_records(packets), CFG)
    assert [row[1] for row in flow_rows(flows)] == [
        "10.0.0.10", "10.0.0.2", "192.0.2.1", "3.0.0.1", "9.0.0.1"]


# octets whose decimal strings sit at the string order's edges and turns
_EDGE_OCTETS = (0, 1, 2, 9, 10, 11, 19, 20, 25, 99, 100, 101, 199, 200, 249, 250, 255)


def test_string_order_of_addresses():
    # every octet string, alone and next to others, at random and at the edges
    rng = random.Random(3)
    addrs = [rng.getrandbits(32) for _ in range(3000)]
    addrs += [sum(rng.choice(_EDGE_OCTETS) << s for s in (24, 16, 8, 0)) for _ in range(3000)]
    addrs += [i << 24 | i << 16 | i << 8 | i for i in range(256)]
    arr = np.array(addrs, dtype=np.uint32)
    # aggregate's address digits: the string-order halves, the high one last
    by_key = arr[np.lexsort((_HALF_RANK[arr & 0xFFFF], _HALF_RANK[arr >> 16]))].tolist()
    assert [ipv4_str(a) for a in by_key] == sorted(ipv4_str(a) for a in addrs)


def test_table_columns_and_names():
    packets = [mk_packet(t, src=src, dst=dst) for t in (0.01, 0.02)
               for src, dst in (("10.0.0.2", "203.0.113.9"), ("10.0.0.10", "10.0.0.2"))]
    packets += [mk_packet(0.03, src="192.0.2.1")]          # a lone packet: no record
    flows = aggregate(from_records(packets), CFG)
    assert [(f.name, getattr(flows, f.name).dtype) for f in fields(flows)] == [
        ("block", np.int64), ("src", np.uint32), ("dst", np.uint32),
        ("src_port", np.uint16), ("dst_port", np.uint16), ("proto", np.uint8),
        ("n_packets", np.int64), ("n_bytes", np.int64), ("rep_ttl", np.uint8),
        ("is_greedy", np.bool_)]
    assert list(flow_rows(flows)) == [
        (0, "10.0.0.10", "10.0.0.2", 1024, 80, PROTO_TCP, 2, 1400, 0, 55),
        (0, "10.0.0.2", "203.0.113.9", 1024, 80, PROTO_TCP, 2, 1400, 0, 55)]


def test_fragments_excluded_from_keying():
    packets = [mk_packet(0.01), mk_packet(0.02),
               mk_packet(0.03, is_fragment=True), mk_packet(0.04, is_fragment=True)]
    flows = aggregate(from_records(packets), CFG)
    assert flows.n_packets.tolist() == [2]
    only_fragments = aggregate(from_records(packets[2:]), CFG)
    assert len(only_fragments) == 0 and list(flow_rows(only_fragments)) == []


def _random_packets(rng, n):
    out = []
    for _ in range(n):
        out.append(mk_packet(
            ts=rng.randrange(0, 500_000) / 1e6,
            src=f"10.0.0.{rng.randint(1, 4)}",
            dst=f"203.0.113.{rng.randint(1, 3)}",
            sport=rng.choice([1024, 1025, 1026]),
            dport=rng.choice([80, 53]),
            proto=rng.choice([PROTO_TCP, PROTO_UDP]),
            ttl=rng.randint(32, 64),
            ip_len=rng.randint(40, 1500)))
    return sorted(out, key=lambda p: p.ts_us)


@pytest.mark.parametrize("seed", range(20))
def test_aggregate_matches_brute_force(seed):
    rng = random.Random(seed)
    packets = _random_packets(rng, rng.randint(1, 1000))
    flows = aggregate(from_records(packets), CFG)
    oracle = brute_force_group(packets, CFG)
    got = {tuple(row[:6]): (row[6], row[7], row[9]) for row in flow_rows(flows)}
    assert got == oracle
    # the greedy flag is the same predicate the oracle would use
    assert flows.is_greedy.tolist() == [n > CFG.greedy_threshold
                                        for n in flows.n_packets.tolist()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_partition_no_packet_lost_or_duplicated(seed):
    rng = random.Random(seed)
    packets = _random_packets(rng, rng.randint(1, 300))
    flows = aggregate(from_records(packets), AnalysisParams(min_packets=2))
    # every packet maps to exactly one cell; admitted cells cover <= all packets
    total_in_records = int(flows.n_packets.sum())
    assert total_in_records <= len(packets)
    oracle = brute_force_group(packets, AnalysisParams(min_packets=2))
    assert total_in_records == sum(n for n, *_ in oracle.values())


def _keyed_packets(rng, n, times):
    """`n` packets at times (µs) drawn from `times`, of 5-tuples drawn from a few
    random 32-bit addresses (some of edge octets only), 16-bit ports and
    protocols (4 and 132 differ in the top bit only), so that keys tie at
    every field, and of a few TTLs."""
    def addr():
        if rng.random() < 0.5:
            return ipv4_str(rng.getrandbits(32))
        return ".".join(str(rng.choice(_EDGE_OCTETS)) for _ in range(4))

    srcs, dsts = [addr() for _ in range(3)], [addr() for _ in range(3)]
    ports = [rng.getrandbits(16) for _ in range(3)]
    tuples = [(rng.choice(srcs), rng.choice(dsts), rng.choice(ports), rng.choice(ports),
               rng.choice((PROTO_TCP, PROTO_UDP, PROTO_ICMP, 4, 132)))
              for _ in range(rng.randint(1, 16))]
    ttls = rng.sample((1, 32, 63, 64, 128, 255), 3)
    return [PacketRecord(ts_us=rng.choice(times), src_ip=src, dst_ip=dst, src_port=sport,
                         dst_port=dport, proto=proto, ttl=rng.choice(ttls),
                         ip_len=rng.randint(20, 1500), is_fragment=rng.random() < 0.05)
            for src, dst, sport, dport, proto in (rng.choice(tuples) for _ in range(n))]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["0.1 s", "1 us"]))
def test_records_and_their_order_match_the_oracle(seed, tau):
    """Every record, its modal TTL and the order of the rows are the oracle's:
    (block, dotted-quad strings, ports, proto). At 1 µs the largest block lies
    on either side of 2^16 or 2^32, or past 2^40, so the block takes one to
    three digits. A shuffled copy of the rows gives the same columns."""
    rng = random.Random(seed)
    if tau == "0.1 s":
        cfg, times = CFG, [rng.randrange(0, 3_000_000) for _ in range(8)]
    else:
        cfg = AnalysisParams(tau=1e-6)         # the largest block sets the digits
        times = [0, 1, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**32 + 2**16,
                 2**40 + 3][:rng.randint(2, 8)]
    packets = _keyed_packets(rng, rng.randint(0, 400), times)
    flows = aggregate(from_records(packets), cfg)
    oracle = brute_force_group(packets, cfg)
    expected = [(*cell, n, n_bytes, int(n > cfg.greedy_threshold), rep_ttl)
                for cell, (n, n_bytes, rep_ttl) in sorted(oracle.items())]
    assert list(flow_rows(flows)) == expected
    shuffled = from_records(packets).take(np.array(rng.sample(range(len(packets)),
                                                              len(packets)), dtype=np.int64))
    again = aggregate(shuffled, cfg)
    for f in fields(Flows):
        a, b = getattr(flows, f.name), getattr(again, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name


def test_concatenation_of_block_disjoint_traces():
    rng = random.Random(99)
    part_a = _random_packets(rng, 200)                      # blocks 0..4
    part_b = [replace(p, ts_us=p.ts_us + 1_000_000)
              for p in _random_packets(rng, 200)]           # blocks 10..14
    both = aggregate(from_records(part_a + part_b), CFG)
    separate = (list(flow_rows(aggregate(from_records(part_a), CFG)))
                + list(flow_rows(aggregate(from_records(part_b), CFG))))
    assert list(flow_rows(both)) == separate


def test_config_validation():
    for kwargs, message in (
            ({"tau": 0}, "tau must be positive and finite"),
            ({"tau": float("nan")}, "tau must be positive and finite"),
            ({"tau": float("inf")}, "tau must be positive and finite"),
            ({"tau": 4e-7}, "tau must be between 1 and 2\\*\\*63 - 1 microseconds"),
            ({"tau": 1e13}, "tau must be between 1 and 2\\*\\*63 - 1 microseconds"),
            ({"min_packets": 1}, "min_packets must be >= 2"),
            ({"greedy_threshold": 1}, "greedy_threshold must be >= min_packets")):
        with pytest.raises(ValueError, match=message):
            AnalysisParams(**kwargs)
    assert AnalysisParams(tau=0.2).tau_us == 200_000
    assert AnalysisParams(tau=1e-6, min_packets=3, greedy_threshold=3).tau_us == 1


# --- flows.csv against the per-row `%`-format writer ----------------------------

_CSV_ROW = "%d,%s,%s,%d,%d,%d,%d,%d,%d,%d\r\n"


def _reference_flows_csv(flows):
    """flows.csv as the writer formatted it before, one `%`-format per row."""
    head = io.StringIO()
    csv.writer(head).writerow(FLOWS_CSV_HEADER)
    return (head.getvalue() + "".join(map(_CSV_ROW.__mod__, flow_rows(flows)))).encode()


def _flow_table(src, dst, **columns):
    """A Flows table of the given columns; addresses as dotted quads."""
    dtypes = {"block": np.int64, "src_port": np.uint16, "dst_port": np.uint16,
              "proto": np.uint8, "n_packets": np.int64, "n_bytes": np.int64,
              "rep_ttl": np.uint8, "is_greedy": np.bool_}
    return Flows(src=np.array([ipv4_int(a) for a in src], dtype=np.uint32),
                 dst=np.array([ipv4_int(a) for a in dst], dtype=np.uint32),
                 **{name: np.array(columns[name], dtype=dtype)
                    for name, dtype in dtypes.items()})


def _assert_csv_matches(flows, path):
    write_flows_csv(flows, path)
    assert path.read_bytes() == _reference_flows_csv(flows)


# one more digit, and one more three-digit group, at each step
_EDGES = [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, 999999,
          1000000, 10 ** 7]
_QUADS = ["1.2.3.4", "255.255.255.255", "0.0.0.0", "10.0.0.1", "9.99.100.255",
          "100.20.3.45"]


def test_flows_csv_empty_table(tmp_path):
    flows = _flow_table([], [], **{name: [] for name in (
        "block", "src_port", "dst_port", "proto", "n_packets", "n_bytes", "rep_ttl",
        "is_greedy")})
    _assert_csv_matches(flows, tmp_path / "flows.csv")
    assert (tmp_path / "flows.csv").read_bytes().count(b"\r\n") == 1


def test_flows_csv_digit_boundaries(tmp_path):
    """Every column runs through the 9/10, 99/100, 999/1000 ... boundaries its type
    holds, next to other columns of other widths."""
    def edges(top, *more):
        return [v for v in _EDGES if v <= top] + list(more)

    columns = {"block": edges(10 ** 7, 123456789, 10 ** 12),
               "src_port": edges(65535, 65535), "dst_port": edges(65535, 65535, 443),
               "proto": edges(255, 255, 6, 17), "n_packets": edges(10 ** 7, 2),
               "n_bytes": edges(10 ** 7, 10 ** 9, 999999999, 10 ** 12, 2 ** 63 - 1),
               "rep_ttl": edges(255, 255, 64), "is_greedy": [0, 1, 1]}
    n = 3 * max(len(v) for v in columns.values())
    rows = {name: [values[(3 * r + i) % len(values)] for r in range(n)]
            for i, (name, values) in enumerate(columns.items())}
    src = [_QUADS[r % len(_QUADS)] for r in range(n)]
    dst = [_QUADS[(r + 2) % len(_QUADS)] for r in range(n)]
    flows = _flow_table(src, dst, **rows)
    _assert_csv_matches(flows, tmp_path / "flows.csv")
    lines = (tmp_path / "flows.csv").read_bytes().split(b"\r\n")
    assert lines[1 + src.index("255.255.255.255")].split(b",")[1] == b"255.255.255.255"
    assert b"9223372036854775807" in lines[1 + rows["n_bytes"].index(2 ** 63 - 1)]
    # one row alone: every column one digit wide
    one = _flow_table(["1.2.3.4"], ["0.0.0.0"], **{name: [0] for name in columns})
    _assert_csv_matches(one, tmp_path / "one.csv")


@pytest.mark.parametrize("seed", range(3))
def test_flows_csv_random_tables(seed, tmp_path):
    rng = np.random.default_rng(seed)
    n = 500

    def spread(top_digits, size=n):
        return (10 ** rng.integers(0, top_digits, size=size) * rng.random(size)).astype(np.int64)

    quads = [ipv4_str(a) for a in rng.integers(0, 2 ** 32, size=40, dtype=np.uint64)]
    flows = _flow_table(
        [quads[i] for i in rng.integers(0, 40, n)], [quads[i] for i in rng.integers(0, 40, n)],
        block=spread(8), src_port=spread(5) % 65536, dst_port=spread(5) % 65536,
        proto=spread(3) % 256, n_packets=spread(7), n_bytes=spread(15),
        rep_ttl=spread(3) % 256, is_greedy=rng.random(n) < 0.5)
    _assert_csv_matches(flows, tmp_path / "flows.csv")


def test_flows_csv_of_aggregated_records(tmp_path):
    rng = random.Random(11)
    flows = aggregate(from_records(_random_packets(rng, 3000)), CFG)
    assert len(flows) > 100
    _assert_csv_matches(flows, tmp_path / "flows.csv")
