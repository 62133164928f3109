"""Model property: the outputs equal a plain-Python model of the drawn packets.

The model below reads the drawn PacketRecords directly, with no pcap
parsing and no shared aggregation code. It only borrows the fingerprint
lookup (`match_fingerprint`), which is the database's definition, not
something the pipeline computes, and the fallback initial TTL from
`reference.infer_initial_ttl`.
"""

import csv
import ipaddress
import json
from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.apps import AppCategory
from flowlens.hops import MAX_PLAUSIBLE_HOPS, match_fingerprint
from flowlens.pcapio import (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PROTO_ICMP,
                             PROTO_TCP, PROTO_UDP, PacketRecord, SynSignature)
from flowlens.report import AnalysisParams, analyze_trace, write_report

from helpers import DB, write_pcap
from reference import infer_initial_ttl

TAU_US = 100_000
PARAMS = dict(greedy_threshold=3, force=True)

# string order differs from numeric order: "10.0.0.10" < "10.0.0.2" < "9.1.1.1"
SRCS = ["10.0.0.2", "10.0.0.10", "10.0.0.9", "9.1.1.1"]
DSTS = ["203.0.113.2", "203.0.113.10", "10.0.0.10"]
PORTS = [80, 53, 1024, 32768, 40000, 65535]
TTLS = [1, 60, 64, 128, 250]
SIGS = [  # (window, df, layout, mss): Linux 2.4, Windows 95, unknown, no options
    (5840, True, ("MSS", "SACK", "TS", "NOP", "WS"), 1460),
    (8192, True, ("MSS",), 1460),
    (1234, False, ("MSS", "NOP", "NOP", "SACK"), 536),
    (5840, True, (), None),
]


@st.composite
def packet_lists(draw):
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.integers(1, 40_000), min_size=n, max_size=n))
    ts, records = draw(st.integers(0, 10**9)), []
    for gap in gaps:
        ts += gap                       # distinct times: file order cannot matter
        if records and draw(st.booleans()):     # a recent packet's key: flows form
            like = draw(st.sampled_from(records[-3:]))
            key = [like.src_ip, like.dst_ip, like.src_port, like.dst_port, like.proto]
        else:
            proto = draw(st.sampled_from([PROTO_TCP, PROTO_TCP, PROTO_UDP, PROTO_ICMP]))
            ports = proto in (PROTO_TCP, PROTO_UDP)
            key = [draw(st.sampled_from(SRCS)), draw(st.sampled_from(DSTS)),
                   draw(st.sampled_from(PORTS)) if ports else 0,
                   draw(st.sampled_from(PORTS)) if ports else 0, proto]
        fragment = draw(st.integers(0, 6)) == 0
        if fragment:
            key[2:4] = 0, 0             # a non-first fragment carries no ports
        ttl = draw(st.sampled_from(TTLS))
        sig = None
        if key[4] == PROTO_TCP and not fragment and draw(st.integers(0, 3)) == 0:
            window, df, layout, mss = draw(st.sampled_from(SIGS))
            sig = SynSignature(window, ttl, df, mss, layout)
        records.append(PacketRecord(ts, *key, ttl, draw(st.integers(60, 1500)), fragment, sig))
    return records


def _inside(ip, keep):
    return ipaddress.IPv4Address(ip) in ipaddress.IPv4Network(keep.partition(":")[2])


def _side(p, side):
    return p.src_ip if side == "src" else p.dst_ip


def _hosts(packets):
    """ip -> hops to the monitor of every plausible source; hosts; fingerprinted ones."""
    ttls, entry = defaultdict(Counter), {}
    for p in packets:
        ttls[p.src_ip][p.ttl] += 1
        if p.syn_sig and p.src_ip not in entry:
            found = match_fingerprint(p.syn_sig, DB)     # the earliest matching SYN
            if found:
                entry[p.src_ip] = found
    out = {}
    for ip, counter in ttls.items():
        modal = max(counter.items(), key=lambda kv: (kv[1], kv[0]))[0]
        if ip not in entry and modal < 1:
            continue
        hops = (entry[ip].initial_ttl if ip in entry else infer_initial_ttl(modal)) - modal
        if 0 <= hops <= MAX_PLAUSIBLE_HOPS:
            out[ip] = hops
    return out, len(ttls), sum(1 for ip in out if ip in entry)


def _fractions(hosts, direction):
    hops, n_hosts, n_fp = hosts
    return {f"fingerprint_fraction_{direction}": n_fp / n_hosts if n_hosts else 0.0,
            f"fallback_fraction_{direction}": (len(hops) - n_fp) / n_hosts if n_hosts else 0.0}


def model(records, keep, http_ports):
    """The expected sidecar rows and report sections, straight from the records."""
    t0 = min(r.ts_us for r in records)
    packets = sorted(records, key=lambda r: r.ts_us)
    fwd, rev = packets, packets
    if keep != "all":
        side, other = ("src", "dst") if keep.startswith("src") else ("dst", "src")
        fwd = [p for p in packets if _inside(_side(p, side), keep)]
        rev = [p for p in packets if _inside(_side(p, other), keep)]
    bins = Counter()
    for p in fwd:
        bins[(p.ts_us - t0) // TAU_US] += p.ip_len
    throughput = [[str(i), repr(8.0 * bins[i] / 0.1)] for i in range(max(bins) + 1)] \
        if bins else []
    cells = defaultdict(list)
    for p in fwd:
        if not p.is_fragment:
            cells[((p.ts_us - t0) // TAU_US, p.src_ip, p.dst_ip, p.src_port,
                   p.dst_port, p.proto)].append(p)
    flows = []
    for cell, ps in sorted(cells.items()):
        if len(ps) >= 2:
            ttl = max(Counter(p.ttl for p in ps).items(), key=lambda kv: (kv[1], kv[0]))[0]
            flows.append([cell, len(ps), sum(p.ip_len for p in ps), len(ps) > 3, ttl])
    src_hosts, dst_hosts = _hosts(fwd), _hosts(rev)
    src_hops, dst_hops = src_hosts[0], dst_hosts[0]
    hists, apps, summary = {}, {}, {}
    for name, greedy_only in (("all", False), ("greedy", True)):
        chosen = [f for f in flows if f[3] or not greedy_only]
        path_hops = [src_hops[c[1]] + dst_hops[c[2]] for c, *_ in chosen
                     if c[1] in src_hops and c[2] in dst_hops]
        hists[name] = [[str(h), str(n)] for h, n in sorted(Counter(path_hops).items())]
        summary[f"n_{name}"] = len(path_hops)
        summary[f"mean_{name}"] = sum(path_hops) / len(path_hops) if path_hops else None
        cats = Counter(AppCategory.UDP if c[5] == PROTO_UDP else AppCategory.OTHER
                       if c[5] != PROTO_TCP else AppCategory.HTTP
                       if c[3] in http_ports or c[4] in http_ports else AppCategory.OTHER_TCP
                       for c, *_ in chosen)
        apps[name] = {cat.value: cats[cat] / len(chosen) if chosen else None
                      for cat in AppCategory}
    summary["coverage_fraction"] = summary["n_all"] / len(flows) if flows else 0.0
    summary.update(_fractions(src_hosts, "fwd"), **_fractions(dst_hosts, "rev"),
                   assumes_symmetric_routing=True)
    sections = {
        "flows": {"n_records": len(flows), "n_greedy": sum(1 for f in flows if f[3])},
        "hop_summary": summary,
        "app_table": {cat: {"all": apps["all"][cat], "greedy": apps["greedy"][cat]}
                      for cat in apps["all"]},
    }
    flow_rows = [[str(v) for v in (*c, n, b, int(g), t)] for c, n, b, g, t in flows]
    return flow_rows, throughput, hists, sections


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


@settings(max_examples=80, deadline=None)
@given(records=packet_lists(), data=st.data(),
       link=st.sampled_from(["ethernet", "vlan", "raw"]), ns=st.booleans(),
       endian=st.sampled_from("<>"), ihl=st.sampled_from([5, 6, 15]),
       keep=st.sampled_from(["all", "src:10.0.0.0/28", "dst:203.0.113.0/28"]),
       http_ports=st.sampled_from([{80}, {80, 53}, {32768, 65535}, {1024, 40000}]))
def test_outputs_match_model(tmp_path_factory, records, data, link, ns, endian,
                             ihl, keep, http_ports):
    tmp = tmp_path_factory.mktemp("model")
    pcap = write_pcap(data.draw(st.permutations(records)), tmp / "t.pcap",
                      linktype=LINKTYPE_RAW_IP if link == "raw" else LINKTYPE_ETHERNET,
                      vlan=link == "vlan", ns=ns, endian=endian, ihl=ihl)
    params = AnalysisParams(keep=keep, http_ports=frozenset(http_ports), **PARAMS)
    write_report(analyze_trace(pcap, params, DB), tmp / "out")
    flow_rows, throughput, hists, sections = model(records, keep, http_ports)
    assert _rows(tmp / "out" / "flows.csv") == flow_rows
    assert _rows(tmp / "out" / "throughput.csv") == throughput
    assert _rows(tmp / "out" / "hops_all.csv") == hists["all"]
    assert _rows(tmp / "out" / "hops_greedy.csv") == hists["greedy"]
    report = json.loads((tmp / "out" / "report.json").read_text())
    assert {name: report[name] for name in sections} == sections
