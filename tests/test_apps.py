"""Port-based application classification and breakdown tables."""

import pytest

from collections import Counter

from flowlens.apps import CATEGORIES, DEFAULT_HTTP_PORTS, AppCategory, breakdown, categories
from flowlens.pcapio import PROTO_ICMP, PROTO_TCP, PROTO_UDP

from helpers import mk_flows
from reference import FlowKey, classify


def key(sport=34567, dport=80, proto=PROTO_TCP):
    return FlowKey("10.0.0.1", "192.0.2.5", sport, dport, proto)


def rec(k, n=3, greedy=False):
    return (0, k, n, greedy)


def category(k, http_ports=DEFAULT_HTTP_PORTS):
    """categories' answer for the one flow `k`, as an AppCategory."""
    flows = mk_flows([rec(k)])
    (i,) = categories(flows.proto, flows.src_port, flows.dst_port, http_ports).tolist()
    return CATEGORIES[i]


def test_classify_port_80_both_sides():
    assert category(key(dport=80)) is AppCategory.HTTP
    assert category(key(sport=80, dport=34567)) is AppCategory.HTTP


def test_classify_other_tcp():
    assert category(key(dport=21)) is AppCategory.OTHER_TCP
    assert category(key(dport=443)) is AppCategory.OTHER_TCP   # default is 80 only


def test_classify_udp_and_other():
    assert category(key(dport=53, proto=PROTO_UDP)) is AppCategory.UDP
    assert category(key(sport=80, dport=80, proto=PROTO_UDP)) is AppCategory.UDP
    assert category(key(sport=0, dport=0, proto=PROTO_ICMP)) is AppCategory.OTHER
    assert category(key(proto=47)) is AppCategory.OTHER


def test_classify_custom_http_ports():
    ports = frozenset({80, 8080})
    assert category(key(dport=8080), ports) is AppCategory.HTTP
    assert category(key(dport=8080)) is AppCategory.OTHER_TCP
    assert category(key(dport=80), frozenset({8080})) is AppCategory.OTHER_TCP


def _table1_records():
    records = []
    sport = 1000
    for _ in range(54):
        records.append(rec(key(sport=(sport := sport + 1), dport=80)))
    for _ in range(38):
        records.append(rec(key(sport=(sport := sport + 1), dport=21)))
    for _ in range(7):
        records.append(rec(key(sport=(sport := sport + 1), dport=53, proto=PROTO_UDP)))
    records.append(rec(key(sport=0, dport=0, proto=PROTO_ICMP)))
    return records


def test_breakdown_planted_table():
    b = breakdown(mk_flows(_table1_records()))
    assert b[AppCategory.HTTP] == pytest.approx(0.54)
    assert b[AppCategory.OTHER_TCP] == pytest.approx(0.38)
    assert b[AppCategory.UDP] == pytest.approx(0.07)
    assert b[AppCategory.OTHER] == pytest.approx(0.01)


def test_breakdown_all_http():
    b = breakdown(mk_flows([rec(key(sport=i, dport=80)) for i in range(1, 6)]))
    assert b[AppCategory.HTTP] == 1.0
    assert all(b[c] == 0.0 for c in AppCategory if c is not AppCategory.HTTP)


def test_breakdown_greedy_only():
    records = [rec(key(sport=i, dport=80), n=25, greedy=True) for i in range(7)]
    records += [rec(key(sport=100 + i, dport=22), n=25, greedy=True) for i in range(3)]
    records += [rec(key(sport=200 + i, dport=80), n=2) for i in range(40)]
    b = breakdown(mk_flows(records), greedy_only=True)
    assert b[AppCategory.HTTP] == pytest.approx(0.7)
    assert b[AppCategory.OTHER_TCP] == pytest.approx(0.3)


def test_breakdown_empty_is_none():
    assert breakdown(mk_flows([])) is None
    assert breakdown(mk_flows([rec(key())]), greedy_only=True) is None


def test_proportions_sum_to_one():
    # categories gives each row the reference classifier's category, and
    # each share is that category's count over the rows, whatever the ports
    import random
    rng = random.Random(4)
    for _ in range(25):
        ports = frozenset(rng.sample([80, 21, 53, 8080, 65535], rng.randint(0, 3)))
        records = [rec(key(sport=rng.choice([i, 80, 65535]), dport=rng.choice([80, 21, 53, 8080]),
                           proto=rng.choice([PROTO_TCP, PROTO_UDP, PROTO_ICMP])),
                       n=rng.choice([2, 25]), greedy=rng.random() < 0.3)
                   for i in range(rng.randint(1, 60))]
        flows = mk_flows(records)
        want = [classify(k, ports) for _, k, _, _ in records]
        got = categories(flows.proto, flows.src_port, flows.dst_port, ports)
        assert [CATEGORIES[i] for i in got.tolist()] == want
        b = breakdown(flows, http_ports=ports)
        assert sum(b.values()) == pytest.approx(1.0, abs=1e-9)
        counts = Counter(want)
        assert b == {cat: counts[cat] / len(records) for cat in AppCategory}


def test_filter_then_classify_commutes():
    records = _table1_records()
    for i, (_, k, _, _) in enumerate(records[:10]):
        records[i] = rec(k, n=25, greedy=True)
    via_subset = breakdown(mk_flows([r for r in records if r[3]]))
    via_flag = breakdown(mk_flows(records), greedy_only=True)
    assert via_subset == via_flag
