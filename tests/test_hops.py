"""Fingerprint matching, initial-TTL inference, host and path hop estimation."""

import pytest

from flowlens.flows import FlowKey
from flowlens.hops import (EstimateMethod, FingerprintDb,
                           FingerprintFormatError, HopEstimate, HostEstimates,
                           HostTtlEstimate, estimate_hosts, hop_histogram,
                           infer_initial_ttl, match_fingerprint, path_hops)
from flowlens.ingest import read_trace
from flowlens.pcapio import PROTO_TCP, Packets, SynSignature
from flowlens.report import AnalysisParams, analyze_trace
from flowlens.synth import generate

from helpers import hop_means_scenario, mk_packet, random_scenario

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
])
def test_db_rejects_malformed_lines(line, msg):
    with pytest.raises((FingerprintFormatError, ValueError), match=msg):
        FingerprintDb.loads(line)


def test_db_reports_line_numbers():
    with pytest.raises(FingerprintFormatError, match="line 2"):
        FingerprintDb.loads("5840|64|1|MSS|*|ok\nbroken line\n")


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
    ok = SynSignature(window_size=1, observed_ttl=60, df_flag=True,
                      mss=1460, options_layout=("MSS",))
    bad = SynSignature(window_size=1, observed_ttl=60, df_flag=True,
                       mss=1400, options_layout=("MSS",))
    assert match_fingerprint(ok, db) is not None
    assert match_fingerprint(bad, db) is None


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
    est = estimate_hosts(Packets.from_records(packets), FingerprintDb.default())
    host = est.get("10.0.0.9")
    assert host.method is EstimateMethod.NEAREST_STANDARD_TTL
    assert host.initial_ttl == 64 and host.hops_to_monitor == 4
    assert not host.ttl_conflict


def test_fingerprint_beats_fallback():
    # TTL 52 alone would infer 64 (12 hops); the Linux SYN pins initial at 64 too,
    # but a Solaris-like 255-initial signature must override the fallback
    sig = SynSignature(window_size=24820, observed_ttl=240, df_flag=True, mss=1460,
                       options_layout=("NOP", "WS", "NOP", "NOP", "TS", "NOP",
                                       "NOP", "SACK", "MSS"))
    packets = [mk_packet(0.01, src="10.0.0.8", ttl=240, sig=sig),
               mk_packet(0.02, src="10.0.0.8", ttl=240)]
    est = estimate_hosts(Packets.from_records(packets), FingerprintDb.default())
    host = est.get("10.0.0.8")
    assert host.method is EstimateMethod.FINGERPRINT_MATCH
    assert host.os_label == "Solaris 8"
    assert host.initial_ttl == 255 and host.hops_to_monitor == 15


def test_ten_percent_fingerprint_coverage():
    packets = []
    for i in range(50):
        ip = f"10.0.1.{i + 1}"
        sig = LINUX_SIG if i < 5 else None
        packets.append(mk_packet(0.001 * i, src=ip, ttl=52, sig=sig))
        packets.append(mk_packet(0.001 * i + 0.5, src=ip, ttl=52))
    est = estimate_hosts(Packets.from_records(packets), FingerprintDb.default())
    assert est.n_hosts == 50
    assert est.fingerprint_fraction == pytest.approx(0.10)
    assert est.fallback_fraction == pytest.approx(0.90)


def test_conflicting_ttls_flagged_modal_kept():
    packets = [mk_packet(0.01, src="10.0.0.7", ttl=60),
               mk_packet(0.02, src="10.0.0.7", ttl=60),
               mk_packet(0.03, src="10.0.0.7", ttl=58)]
    est = estimate_hosts(Packets.from_records(packets), FingerprintDb.default())
    host = est.get("10.0.0.7")
    assert host.ttl_conflict and host.hops_to_monitor == 4   # modal 60 kept


def test_implausible_hops_rejected():
    packets = [mk_packet(0.01, src="10.0.0.6", ttl=130)]   # infer 255 -> 125 hops
    est = estimate_hosts(Packets.from_records(packets), FingerprintDb.default())
    assert est.get("10.0.0.6") is None
    assert "10.0.0.6" in est.rejected
    assert est.n_hosts == 1


def test_generator_ground_truth_recovered_exactly(tmp_path):
    spec = random_scenario(123)
    path, gt = generate(spec, tmp_path / "t.pcap")
    records, _ = read_trace(path)
    fwd = records.take(records.src >> 24 == 10)
    rev = records.take(records.src >> 24 != 10)
    fwd_est = estimate_hosts(fwd, FingerprintDb.default())
    rev_est = estimate_hosts(rev, FingerprintDb.default())
    for h in gt.hosts:
        if not h.fingerprint_effective:
            continue
        est = (fwd_est if h.side == "src" else rev_est).get(h.ip)
        assert est is not None, h.ip
        assert est.hops_to_monitor == h.hops_to_monitor
        assert est.initial_ttl == h.initial_ttl
        assert est.method is EstimateMethod.FINGERPRINT_MATCH


# --- path hops --------------------------------------------------------------------

def _estimates(mapping):
    est = HostEstimates(n_hosts=len(mapping))
    for ip, hops in mapping.items():
        est.by_ip[ip] = HostTtlEstimate(ip=ip, initial_ttl=64, hops_to_monitor=hops,
                                        method=EstimateMethod.NEAREST_STANDARD_TTL)
    return est


def test_path_hops_sum():
    key = FlowKey("10.0.0.1", "203.0.113.1", 1024, 80, PROTO_TCP)
    est = path_hops(key, _estimates({"10.0.0.1": 7}), _estimates({"203.0.113.1": 10}))
    assert est.path_hops == 17 and est.src_hops == 7 and est.dst_hops == 10


def test_path_hops_missing_side():
    key = FlowKey("10.0.0.1", "203.0.113.1", 1024, 80, PROTO_TCP)
    assert path_hops(key, _estimates({"10.0.0.1": 7}), _estimates({})) is None
    assert path_hops(key, _estimates({}), _estimates({"203.0.113.1": 3})) is None


# --- histograms --------------------------------------------------------------------

def _record(key, n, greedy=False):
    from flowlens.flows import BlockFlowRecord
    return BlockFlowRecord(0, key, n, n * 700, greedy, 60)


def test_histogram_counts_and_mean():
    k1 = FlowKey("a", "b", 1, 2, PROTO_TCP)
    k2 = FlowKey("a", "b", 3, 4, PROTO_TCP)
    k3 = FlowKey("a", "b", 5, 6, PROTO_TCP)
    records = [_record(k1, 3), _record(k2, 3), _record(k3, 3)]
    estimates = {k1: HopEstimate(k1, 5, 5, 10), k2: HopEstimate(k2, 5, 5, 10),
                 k3: HopEstimate(k3, 10, 10, 20)}
    hist = hop_histogram(records, estimates)
    assert hist.as_dict() == {10: 2, 20: 1}
    assert hist.mean == pytest.approx(40 / 3)
    assert hist.n == 3


def test_histogram_greedy_empty():
    k1 = FlowKey("a", "b", 1, 2, PROTO_TCP)
    hist = hop_histogram([_record(k1, 3)], {k1: HopEstimate(k1, 1, 1, 2)},
                         greedy_only=True)
    assert hist.counts == () and hist.mean is None and hist.n == 0


def test_per_instance_weighting_across_blocks():
    from flowlens.flows import BlockFlowRecord
    key = FlowKey("a", "b", 1, 2, PROTO_TCP)
    records = [BlockFlowRecord(i, key, 3, 2100, False, 60) for i in range(10)]
    hist = hop_histogram(records, {key: HopEstimate(key, 4, 4, 8)})
    assert hist.as_dict() == {8: 10}    # one entry per per-block instance


def test_planted_means_scenario(tmp_path):
    spec = hop_means_scenario()
    path, gt = generate(spec, tmp_path / "hops.pcap")
    result = analyze_trace(path, AnalysisParams(keep="src:10.0.0.0/8", force=True))
    assert result.hist_all.mean == pytest.approx(19.85, abs=0.5)
    assert result.hist_greedy.mean == pytest.approx(17.92, abs=0.5)
    # the construction is exact, so the recovery is too
    assert result.hist_all.mean == pytest.approx(19.85, abs=1e-9)
    assert result.hist_greedy.mean == pytest.approx(17.92, abs=1e-9)


def test_greedy_hops_planted_gap_of_five(tmp_path):
    from flowlens.synth import FlowPlan, HostSpec, ScenarioSpec
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
    spec = ScenarioSpec(duration=0.5, tau=0.1, seed=3, hosts=hosts, flows=flows)
    path, _ = generate(spec, tmp_path / "gap.pcap")
    result = analyze_trace(path, AnalysisParams(keep="src:10.0.0.0/8", force=True))
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
    est = estimate_hosts(Packets.from_records(packets), FingerprintDb.default())
    ttls_by_ip = {}
    for p in packets:
        ttls_by_ip.setdefault(p.src_ip, Counter())[p.ttl] += 1
    for host in est.by_ip.values():
        counter = ttls_by_ip[host.ip]
        modal = max(sorted(counter), key=lambda t: (counter[t], t))
        assert host.hops_to_monitor == host.initial_ttl - modal
        assert host.initial_ttl >= modal
        assert 0 <= host.hops_to_monitor <= 64


def test_histogram_totals_relations(tmp_path):
    spec = random_scenario(55)
    path, _ = generate(spec, tmp_path / "t.pcap")
    result = analyze_trace(path, AnalysisParams(keep="src:10.0.0.0/8", force=True))
    estimable = sum(1 for r in result.records if r.key in result.flow_estimates)
    assert result.hist_all.n == estimable
    assert result.hist_greedy.n <= result.hist_all.n
    assert sum(c for _, c in result.hist_all.counts) == result.hist_all.n
