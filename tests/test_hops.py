"""Fingerprint matching, initial-TTL inference, host and path hop estimation."""

import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens import hops
from flowlens.flows import aggregate
from flowlens.hops import (MAX_PLAUSIBLE_HOPS, FingerprintDb, FingerprintFormatError,
                           HostEstimates, estimate_hosts, flow_hop_estimates,
                           hop_histogram, match_fingerprint)
from flowlens.ingest import read_trace
from flowlens.pcapio import PROTO_TCP, SynSignature, ipv4_strs, parse_tcp_options
from flowlens.report import AnalysisParams, analyze_trace
from flowlens.synth import generate

from helpers import (DB, FlowPlan, HostSpec, hop_means_scenario, mk_flows, mk_packet,
                     random_scenario, scenario)
from reference import (FlowKey, Host, from_records, host_row, infer_initial_ttl, ipv4_int,
                       true_hosts)

LINUX_SIG = SynSignature(window_size=5840, observed_ttl=52, df_flag=True,
                         mss=1460, options_layout=("MSS", "SACK", "TS", "NOP", "WS"))


# --- database parsing -----------------------------------------------------------

def test_default_db_loads():
    db = FingerprintDb.default()
    assert len(db.entries) >= 8
    assert all(e.initial_ttl in (32, 64, 128, 255) for e in db.entries)


def test_db_text_parsing_wildcards_and_comments():
    db = FingerprintDb.loads(
        "# comment\n"
        "5840|64|1|MSS,SACK,TS,NOP,WS|*|Linux 2.4\n"
        "*|128|*|*|mtu|Anything windowed   # trailing comment\n"
        "1024|255|0|-|42|Weird portless\n")
    assert len(db.entries) == 3
    e = db.entries[1]
    assert e.window_size is None and e.df_flag is None and e.options_layout is None
    assert e.mss == "mtu"
    assert db.entries[2].options_layout == ()


@pytest.mark.parametrize("line,msg", [
    ("5840|64|1|MSS|*", "6 .-separated fields"),
    ("5840|77|1|MSS|*|Odd TTL", "standard"),
    ("5840|64|maybe|MSS|*|Odd DF", "df must be"),
    ("*|64|*|*|*|All wildcards", "non-wildcard"),
    ("5840|64|1|MSS|*|", "os_label"),
    # fields no SYN can show: parse_tcp_options emits only the six names and
    # the decimal of other kinds, and window and MSS are 16-bit
    ("5840|64|1|MSS,SACKK,TS|*|Misspelled", "unknown option token 'SACKK'"),
    ("5840|64|1|2,SACK|*|MSS by number", "unknown option token '2'"),
    ("5840|64|1|MSS,0|*|EOL by number", "unknown option token '0'"),
    ("5840|64|1|MSS,256|*|No such kind", "unknown option token '256'"),
    ("5840|64|1|MSS,07|*|Leading zero", "unknown option token '07'"),
    ("5840|64|1|MSS,,TS|*|Empty token", "unknown option token ''"),
    ("-5|64|1|MSS|-3|Negative window", "window must be in 0..65535, got -5"),
    ("5840|64|1|MSS|-3|Negative MSS", "mss must be in 0..65535, got -3"),
    ("65536|64|1|MSS|*|Wide window", "window must be in 0..65535"),
    ("5840|64|1|MSS|65536|Wide MSS", "mss must be in 0..65535"),
])
def test_db_rejects_malformed_lines(line, msg):
    with pytest.raises((FingerprintFormatError, ValueError), match=msg):
        FingerprintDb.loads(line)


def test_db_reports_line_numbers():
    with pytest.raises(FingerprintFormatError, match="line 2"):
        FingerprintDb.loads("5840|64|1|MSS|*|ok\nbroken line\n")


def test_db_accepts_what_the_option_parser_emits():
    # MSS 1460, an unnamed kind 5 of length 2, NOP, EOL
    layout, mss, _ = parse_tcp_options(bytes([2, 4, 5, 180, 5, 2, 1, 0]))
    assert (layout, mss) == (("MSS", "5", "NOP", "EOL"), 1460)
    db = FingerprintDb.loads("0|64|1|MSS,5,NOP,EOL|1460|Odd\n"
                             "65535|64|1|255,WS,SACK,TS|0|Edges\n")
    sig = SynSignature(window_size=0, observed_ttl=60, df_flag=True, mss=mss,
                       options_layout=layout)
    assert match_fingerprint(sig, db).os_label == "Odd"
    assert db.entries[1].options_layout == ("255", "WS", "SACK", "TS")


# --- matching -------------------------------------------------------------------

def test_match_constructed_linux_entry():
    db = FingerprintDb.default()
    entry = match_fingerprint(LINUX_SIG, db)
    assert entry is not None and entry.os_label == "Linux 2.4"
    assert entry.initial_ttl == 64


def test_match_rejects_observed_above_initial():
    db = FingerprintDb.loads("1024|128|*|*|*|Windowed 128\n")
    sig = SynSignature(window_size=1024, observed_ttl=130, df_flag=True,
                       mss=None, options_layout=())
    assert match_fingerprint(sig, db) is None    # impossible: TTL grew in flight
    ok = SynSignature(window_size=1024, observed_ttl=120, df_flag=True,
                      mss=None, options_layout=())
    assert match_fingerprint(ok, db) is not None


def test_match_no_overlap_returns_none():
    sig = SynSignature(window_size=1234, observed_ttl=60, df_flag=False,
                       mss=None, options_layout=("NOP",))
    assert match_fingerprint(sig, FingerprintDb.default()) is None


def test_first_match_wins():
    db = FingerprintDb.loads("5840|64|*|*|*|First\n5840|64|1|*|*|Second\n")
    assert match_fingerprint(LINUX_SIG, db).os_label == "First"


def test_mtu_token_matching():
    db = FingerprintDb.loads("*|64|*|*|mtu|MTUish\n")

    def matches(mss):
        sig = SynSignature(window_size=1, observed_ttl=60, df_flag=True,
                           mss=mss, options_layout=("MSS",))
        return match_fingerprint(sig, db) is not None

    # each MTU-derived value beside a neighbour that is not one
    for mss in (536, 966, 1452, 1460):
        assert matches(mss) and not matches(mss + 1), mss
    assert not matches(1400)


# --- initial TTL inference -------------------------------------------------------

@pytest.mark.parametrize("observed,expected", [
    (115, 128), (64, 64), (250, 255), (1, 32), (32, 32), (33, 64),
    (128, 128), (129, 255), (255, 255),
])
def test_infer_initial_ttl(observed, expected):
    assert infer_initial_ttl(observed) == expected


def test_infer_idempotent_on_standard_values():
    for v in (32, 64, 128, 255):
        assert infer_initial_ttl(v) == v


def test_infer_rejects_zero():
    with pytest.raises(ValueError):
        infer_initial_ttl(0)


# --- host estimation --------------------------------------------------------------

def test_fallback_host_without_syn():
    packets = [mk_packet(0.01, src="10.0.0.9", ttl=60),
               mk_packet(0.02, src="10.0.0.9", ttl=60)]
    est = estimate_hosts(from_records(packets), FingerprintDb.default())
    host = host_row(est, "10.0.0.9")
    assert host.os_label is None
    assert host.initial_ttl == 64 and host.hops == 4
    assert not host.ttl_conflict


def test_fingerprint_beats_fallback():
    # TTL 52 alone would infer 64 (12 hops); the Linux SYN pins initial at 64 too,
    # but a Solaris-like 255-initial signature must override the fallback
    sig = SynSignature(window_size=24820, observed_ttl=240, df_flag=True, mss=1460,
                       options_layout=("NOP", "WS", "NOP", "NOP", "TS", "NOP",
                                       "NOP", "SACK", "MSS"))
    packets = [mk_packet(0.01, src="10.0.0.8", ttl=240, sig=sig),
               mk_packet(0.02, src="10.0.0.8", ttl=240)]
    est = estimate_hosts(from_records(packets), FingerprintDb.default())
    host = host_row(est, "10.0.0.8")
    assert host.os_label == "Solaris 8"
    assert host.initial_ttl == 255 and host.hops == 15


def test_ten_percent_fingerprint_coverage():
    packets = []
    for i in range(50):
        ip = f"10.0.1.{i + 1}"
        sig = LINUX_SIG if i < 5 else None
        packets.append(mk_packet(0.001 * i, src=ip, ttl=52, sig=sig))
        packets.append(mk_packet(0.001 * i + 0.5, src=ip, ttl=52))
    est = estimate_hosts(from_records(packets), FingerprintDb.default())
    assert est.n_hosts == 50
    assert est.fingerprint_fraction == pytest.approx(0.10)
    assert est.fallback_fraction == pytest.approx(0.90)


def test_conflicting_ttls_flagged_modal_kept():
    packets = [mk_packet(0.01, src="10.0.0.7", ttl=60),
               mk_packet(0.02, src="10.0.0.7", ttl=60),
               mk_packet(0.03, src="10.0.0.7", ttl=58)]
    est = estimate_hosts(from_records(packets), FingerprintDb.default())
    host = host_row(est, "10.0.0.7")
    assert host.ttl_conflict and host.hops == 4   # modal 60 kept


def test_implausible_hops_rejected():
    packets = [mk_packet(0.01, src="10.0.0.6", ttl=130)]   # infer 255 -> 125 hops
    est = estimate_hosts(from_records(packets), FingerprintDb.default())
    assert host_row(est, "10.0.0.6") is None
    assert "10.0.0.6" in est.rejected
    assert est.n_hosts == 1


def test_zero_hops_counted():
    """A host whose modal TTL is a standard initial value is 0 hops away, and a
    flow between two such hosts has path 0, which the histogram counts."""
    near, far = "10.0.0.4", "203.0.113.4"
    fwd = from_records([mk_packet(0.01 * i, src=near, dst=far, ttl=64) for i in range(3)])
    rev = from_records([mk_packet(0.01 * i, src=far, dst=near, sport=80, dport=1024,
                                  ttl=64) for i in range(3)])
    fwd_est, rev_est = estimate_hosts(fwd, DB), estimate_hosts(rev, DB)
    assert host_row(fwd_est, near).hops == 0 and host_row(rev_est, far).hops == 0
    assert host_row(fwd_est, near).os_label is None
    flows = aggregate(fwd, AnalysisParams())
    path = flow_hop_estimates(flows, fwd_est, rev_est)
    assert path.tolist() == [0]
    hist = hop_histogram(flows, path)
    assert (hist.counts, hist.mean, hist.n) == (((0, 1),), 0.0, 1)


def test_match_runs_once_per_distinct_signature(monkeypatch):
    """An unmatched host's many SYNs with one signature cost one database match."""
    unknown = SynSignature(window_size=1234, observed_ttl=52, df_flag=False, mss=None,
                           options_layout=())
    records = [mk_packet(0.001 * i, src="10.0.0.5", ttl=52, sig=unknown) for i in range(50)]
    records.append(mk_packet(0.1, src="10.0.0.6", ttl=52, sig=LINUX_SIG))
    packets = from_records(records)
    calls = []

    def counting(sig, db):
        calls.append(sig)
        return match_fingerprint(sig, db)

    monkeypatch.setattr(hops, "match_fingerprint", counting)
    est = estimate_hosts(packets, FingerprintDb.default())
    assert len(calls) <= len(packets.sigs) == 2
    assert host_row(est, "10.0.0.5").os_label is None
    assert host_row(est, "10.0.0.6").os_label == "Linux 2.4"


def test_earliest_matching_syn_fingerprints_the_host():
    """The SYN earliest in time wins, wherever its row is; at equal times the
    earlier row wins."""
    db = FingerprintDb.loads("1000|32|*|*|*|early\n2000|64|*|*|*|late\n")
    early, late = (SynSignature(window, 30, True, 1460, ("MSS",)) for window in (1000, 2000))
    packets = [mk_packet(0.2, src="10.0.0.1", ttl=30, sig=late),
               mk_packet(0.1, src="10.0.0.1", ttl=30, sig=early),
               mk_packet(0.3, src="10.0.0.2", ttl=30, sig=late),
               mk_packet(0.3, src="10.0.0.2", ttl=30, sig=early)]
    est = estimate_hosts(from_records(packets), db)
    first, second = host_row(est, "10.0.0.1"), host_row(est, "10.0.0.2")
    assert (first.os_label, first.initial_ttl, first.hops) == ("early", 32, 2)
    assert (second.os_label, second.initial_ttl, second.hops) == ("late", 64, 34)


def test_generator_ground_truth_recovered_exactly(tmp_path):
    spec = random_scenario(123)
    path, gt = generate(spec, tmp_path / "t.pcap")
    records, _ = read_trace(path)
    fwd = records.take(records.src >> 24 == 10)
    rev = records.take(records.src >> 24 != 10)
    fwd_est = estimate_hosts(fwd, FingerprintDb.default())
    rev_est = estimate_hosts(rev, FingerprintDb.default())
    for h in true_hosts(gt):
        if not h.fingerprint_effective:
            continue
        est = host_row(fwd_est if h.side == "src" else rev_est, h.ip)
        assert est is not None, h.ip
        assert est.hops == h.hops_to_monitor
        assert est.initial_ttl == h.initial_ttl
        assert est.os_label is not None


# --- estimate_hosts against a per-host model ---------------------------------------

DIFF_SIGS = [  # (window, df, layout): Linux 2.4 (64), Solaris 8 (255), Windows 95 (32), none
    (5840, True, ("MSS", "SACK", "TS", "NOP", "WS")),
    (24820, True, ("NOP", "WS", "NOP", "NOP", "TS", "NOP", "NOP", "SACK", "MSS")),
    (8192, True, ("MSS",)),
    (1234, False, ("NOP",)),
]


def _host_model(packets, db):
    """ip -> Host, and the rejected ips in address order, host by host in plain
    Python."""
    ttls, entry = {}, {}
    for p in sorted(packets, key=lambda p: p.ts_us):    # stable: time ties in list order
        ttls.setdefault(p.src_ip, Counter())[p.ttl] += 1
        if p.syn_sig is not None and p.src_ip not in entry:
            found = match_fingerprint(p.syn_sig, db)    # the earliest *matching* SYN
            if found is not None:
                entry[p.src_ip] = found
    estimates, rejected = {}, []
    for ip in sorted(ttls, key=ipv4_int):
        counter = ttls[ip]
        modal = max(counter, key=lambda t: (counter[t], t))    # ties: larger TTL
        found = entry.get(ip)
        if found is None and modal == 0:
            rejected.append(ip)
            continue
        initial = found.initial_ttl if found else infer_initial_ttl(modal)
        if not 0 <= initial - modal <= MAX_PLAUSIBLE_HOPS:
            rejected.append(ip)
            continue
        estimates[ip] = Host(hops=initial - modal, initial_ttl=initial,
                             ttl_conflict=len(counter) > 1,
                             os_label=found.os_label if found else None)
    return estimates, rejected


def _check_against_model(packets):
    db = FingerprintDb.default()
    est = estimate_hosts(from_records(packets), db)
    want, rejected = _host_model(packets, db)
    hosts = sorted({p.src_ip for p in packets} | {"192.0.2.99"}, key=ipv4_int)
    assert {ip: host_row(est, ip) for ip in hosts} == {ip: want.get(ip) for ip in hosts}
    assert est.rejected == tuple(rejected)
    assert est.n_hosts == len(want) + len(rejected)
    n_fp = sum(e.os_label is not None for e in want.values())
    assert (est.n_fingerprint, est.n_fallback) == (n_fp, len(want) - n_fp)
    addrs = np.array([ipv4_int(ip) for ip in hosts], dtype=np.uint32)
    assert est.hops_of(addrs).tolist() == [
        want[ip].hops if ip in want else -1 for ip in hosts]
    return want, rejected


@st.composite
def _host_packets(draw):
    hosts = draw(st.lists(st.sampled_from(["10.0.0.2", "10.0.0.10", "9.1.1.1",
                                           "203.0.113.7", "255.0.0.1"]),
                          min_size=1, max_size=30))
    packets = []
    for i, ip in enumerate(hosts):
        ttl = draw(st.sampled_from([0, 1, 5, 30, 60, 64, 100, 128, 130, 190, 191, 255]))
        sig = None
        if draw(st.integers(0, 2)) == 0:
            window, df, layout = draw(st.sampled_from(DIFF_SIGS))
            sig = SynSignature(window, ttl, df, 1460, layout)
        packets.append(mk_packet(i // 2 * 1e-3, src=ip, ttl=ttl, sig=sig))   # ties in pairs
    return packets


@settings(max_examples=200, deadline=None)
@given(_host_packets().flatmap(st.permutations))
def test_estimate_hosts_matches_model(packets):
    """Rows in any order, times tied in pairs: the model picks the earliest
    matching SYN by time, ties in row order."""
    _check_against_model(packets)


def test_estimate_hosts_model_planted_cases():
    linux, solaris, unknown = (SynSignature(window, 60, df, 1460, layout)
                               for window, df, layout in (DIFF_SIGS[0], DIFF_SIGS[1],
                                                          DIFF_SIGS[3]))
    packets = [
        # an unmatched SYN first, then a matching one: the matching one counts
        mk_packet(0.001, src="10.0.0.1", ttl=60, sig=unknown),
        mk_packet(0.002, src="10.0.0.1", ttl=60, sig=linux),
        # 50 and 60 tie twice each: modal 60, and the host is a ttl_conflict
        *(mk_packet(0.01 + i * 1e-3, src="10.0.0.2", ttl=t)
          for i, t in enumerate((50, 60, 60, 50))),
        mk_packet(0.02, src="10.0.0.3", ttl=0),                      # modal 0, no SYN
        mk_packet(0.03, src="10.0.0.4", ttl=0),                      # modal 0 ...
        mk_packet(0.032, src="10.0.0.4", ttl=0),
        mk_packet(0.031, src="10.0.0.4", ttl=60, sig=linux),         # ... but fingerprinted
        mk_packet(0.04, src="10.0.0.5", ttl=130),                    # fallback 255: 125 hops
        mk_packet(0.05, src="10.0.0.6", ttl=60, sig=solaris),        # 255 - 60: 195 hops
        mk_packet(0.06, src="10.0.0.7", ttl=60, sig=linux),          # SYN at 60 ...
        mk_packet(0.061, src="10.0.0.7", ttl=100),                   # ... modal 100: -36 hops
        mk_packet(0.062, src="10.0.0.7", ttl=100),
        mk_packet(0.07, src="10.0.0.8", ttl=191),                    # 64 hops: kept
        mk_packet(0.08, src="10.0.0.9", ttl=190),                    # 65 hops: rejected
    ]
    want, rejected = _check_against_model(packets)
    assert want["10.0.0.1"].os_label == "Linux 2.4" and want["10.0.0.1"].hops == 4
    assert want["10.0.0.2"].ttl_conflict and want["10.0.0.2"].hops == 4
    assert want["10.0.0.4"].hops == 64
    assert want["10.0.0.8"].hops == 64
    assert rejected == ["10.0.0.3", "10.0.0.5", "10.0.0.6", "10.0.0.7", "10.0.0.9"]


def test_rejections_logged_once_per_call_by_reason(caplog):
    packets = [mk_packet(0.01, src="10.0.0.3", ttl=0),
               mk_packet(0.02, src="10.0.0.5", ttl=130),
               mk_packet(0.03, src="10.0.0.6", ttl=140),
               mk_packet(0.04, src="10.0.0.9", ttl=60)]
    with caplog.at_level(logging.WARNING, logger="flowlens.hops"):
        est = estimate_hosts(from_records(packets), FingerprintDb.default())
    assert est.rejected == ("10.0.0.3", "10.0.0.5", "10.0.0.6")
    assert [r.getMessage() for r in caplog.records] == [
        "3 of 4 hosts rejected: 1 with modal TTL 0, 2 with an implausible hop estimate"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="flowlens.hops"):
        estimate_hosts(from_records(packets[3:]), FingerprintDb.default())
    assert caplog.records == []


# --- path hops --------------------------------------------------------------------

def _estimates(mapping):
    """Host estimates with the given hops, each host by the fallback to 64."""
    packets = [mk_packet(0.01, src=ip, ttl=64 - hops) for ip, hops in mapping.items()]
    return estimate_hosts(from_records(packets), FingerprintDb.default())


def test_path_hops_sum():
    flows = mk_flows([(0, FlowKey("10.0.0.1", "203.0.113.1", 1024, 80, PROTO_TCP), 3, False)])
    fwd, rev = _estimates({"10.0.0.1": 7}), _estimates({"203.0.113.1": 10})
    assert flow_hop_estimates(flows, fwd, rev).tolist() == [17]
    # the source is looked up in the forward map, the destination in the reverse one
    assert flow_hop_estimates(flows, rev, fwd).tolist() == [-1]


def test_path_hops_missing_side():
    flows = mk_flows([(0, FlowKey("10.0.0.1", "203.0.113.1", 1024, 80, PROTO_TCP), 3, False)])
    assert flow_hop_estimates(flows, _estimates({"10.0.0.1": 7}),
                              _estimates({})).tolist() == [-1]
    assert flow_hop_estimates(flows, _estimates({}),
                              _estimates({"203.0.113.1": 3})).tolist() == [-1]
    assert flow_hop_estimates(flows, HostEstimates(), HostEstimates()).tolist() == [-1]


# --- histograms --------------------------------------------------------------------

def _flows(n):
    """n non-greedy rows between two hosts, one port pair each."""
    return mk_flows([(0, FlowKey("10.0.0.1", "10.0.0.2", 2 * i + 1, 2 * i + 2, PROTO_TCP),
                      3, False) for i in range(n)])


def test_histogram_counts_and_mean():
    hist = hop_histogram(_flows(4), np.array([10, 10, 20, -1]))
    assert dict(hist.counts) == {10: 2, 20: 1}       # the row without an estimate is skipped
    assert hist.mean == pytest.approx(40 / 3)
    assert hist.n == 3


def test_histogram_greedy_empty():
    hist = hop_histogram(_flows(1), np.array([2]), greedy_only=True)
    assert hist.counts == () and hist.mean is None and hist.n == 0


def test_per_instance_weighting_across_blocks():
    key = FlowKey("10.0.0.1", "10.0.0.2", 1, 2, PROTO_TCP)
    hist = hop_histogram(mk_flows([(b, key, 3, False) for b in range(10)]), np.full(10, 8))
    assert dict(hist.counts) == {8: 10}    # one entry per per-block instance


def test_planted_means_scenario(tmp_path):
    spec = hop_means_scenario()
    path, gt = generate(spec, tmp_path / "hops.pcap")
    result = analyze_trace(path, AnalysisParams(keep="src:10.0.0.0/8", force=True), DB)
    assert result.hist_all.mean == pytest.approx(19.85, abs=0.5)
    assert result.hist_greedy.mean == pytest.approx(17.92, abs=0.5)
    # the construction is exact, so the recovery is too
    assert result.hist_all.mean == pytest.approx(19.85, abs=1e-9)
    assert result.hist_greedy.mean == pytest.approx(17.92, abs=1e-9)


def test_greedy_hops_planted_gap_of_five(tmp_path):
    hosts = [HostSpec("10.0.2.1", 4, "src", os_label="Linux 2.4"),
             HostSpec("10.0.2.2", 6, "src", os_label="Windows 2000"),
             HostSpec("203.0.113.21", 6, "dst", os_label="FreeBSD 4.x"),
             HostSpec("203.0.113.22", 10, "dst", os_label="Solaris 8"),
             HostSpec("203.0.113.23", 11, "dst", os_label="MacOS 9")]
    flows = [FlowPlan(0, "10.0.2.1", "203.0.113.21", 3000, 80, PROTO_TCP, 25)]
    flows += [FlowPlan(0, "10.0.2.2", "203.0.113.22", 3001 + i, 80, PROTO_TCP, 2)
              for i in range(3)]
    flows += [FlowPlan(0, "10.0.2.2", "203.0.113.23", 3010, 80, PROTO_TCP, 2)]
    # greedy mean = 10; all-flows mean = (10 + 3*16 + 17)/5 = 15
    spec = scenario(hosts, flows, duration=0.5, tau=0.1, seed=3)
    path, _ = generate(spec, tmp_path / "gap.pcap")
    result = analyze_trace(path, AnalysisParams(keep="src:10.0.0.0/8", force=True), DB)
    gap = result.hist_all.mean - result.hist_greedy.mean
    assert gap == pytest.approx(5.0, abs=0.5)


def test_hop_arithmetic_identity_property():
    # initial - modal TTL == hops for every produced estimate, with the modal
    # TTL recomputed independently (ties toward the larger TTL)
    import random
    from collections import Counter
    rng = random.Random(0)
    packets = []
    for i in range(200):
        ttl = rng.randint(1, 250)
        packets.append(mk_packet(i * 1e-4, src=f"10.9.{i % 7}.{i % 25 + 1}", ttl=ttl))
    est = estimate_hosts(from_records(packets), FingerprintDb.default())
    ttls_by_ip = {}
    for p in packets:
        ttls_by_ip.setdefault(p.src_ip, Counter())[p.ttl] += 1
    for ip in ipv4_strs(est.addrs):
        host, counter = host_row(est, ip), ttls_by_ip[ip]
        modal = max(sorted(counter), key=lambda t: (counter[t], t))
        assert host.hops == host.initial_ttl - modal
        assert host.initial_ttl >= modal
        assert 0 <= host.hops <= 64


def test_histogram_totals_relations(tmp_path):
    spec = random_scenario(55)
    path, _ = generate(spec, tmp_path / "t.pcap")
    result = analyze_trace(path, AnalysisParams(keep="src:10.0.0.0/8", force=True), DB)
    estimable = int(np.count_nonzero(result.flow_hops >= 0))
    assert result.hist_all.n == estimable
    assert result.hist_greedy.n <= result.hist_all.n
    assert sum(c for _, c in result.hist_all.counts) == result.hist_all.n
