"""Trace ingestion: filtering, SYN signatures, and the write/read round trip."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.ingest import DirectionFilter, read_trace
from flowlens.pcapio import (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PROTO_ICMP,
                             PROTO_TCP, PROTO_UDP, TCP_ACK, TCP_SYN,
                             PacketRecord, SynSignature, build_tcp_options,
                             extract_syn_signature, parse_tcp_options)
from flowlens.report import AnalysisParams, analyze_trace, write_report

from helpers import mk_packet, write_pcap


def test_read_trace_passthrough(tmp_path):
    records = [mk_packet(0.001 * i, sport=1000 + i) for i in range(3)]
    path = write_pcap(records, tmp_path / "t.pcap")
    got, summary = read_trace(path)
    assert len(got) == 3
    assert (summary.total, summary.non_ipv4, summary.malformed) == (3, 0, 0)


def test_non_ip_frames_skipped(tmp_path):
    records = [mk_packet(0.0), mk_packet(0.001)]
    path = write_pcap(records, tmp_path / "t.pcap", linktype=LINKTYPE_ETHERNET)
    # splice an ARP frame between the two packets
    data = path.read_bytes()
    import struct
    arp = b"\xff" * 6 + b"\x02\x00\x00\x00\x00\x01" + b"\x08\x06" + b"\x00" * 28
    rec = struct.pack("<IIII", 0, 500, len(arp), len(arp)) + arp
    path.write_bytes(data + rec)
    got, summary = read_trace(path)
    assert len(got) == 2
    assert summary.total == 3 and summary.non_ipv4 == 1
    summary = analyze_trace(path, AnalysisParams()).summary
    assert summary.total == 3 and summary.kept == 2
    assert summary.skipped == 1 and summary.non_ipv4 == 1 and summary.filtered == 0


def test_prefix_filter_counts_by_construction(tmp_path):
    # 1000 packets, exactly 400 with src in 10.0.0.0/8 by construction
    rng = random.Random(7)
    records = []
    for i in range(1000):
        src = f"10.0.{i % 20}.{i % 250 + 1}" if i < 400 else f"172.16.{i % 20}.{i % 250 + 1}"
        records.append(mk_packet(i * 1e-4, src=src, sport=1000 + i))
    rng.shuffle(records)
    records = [replace(r, ts_us=i * 100) for i, r in enumerate(records)]
    path = write_pcap(records, tmp_path / "t.pcap")
    got, _ = read_trace(path)
    assert len(got) == 1000
    summary = analyze_trace(path, AnalysisParams(keep="src:10.0.0.0/8", force=True)).summary
    assert summary.kept == 400 and summary.filtered == 600 and summary.skipped == 600


def test_timestamps_rebased_and_sorted(tmp_path):
    records = [mk_packet(0.5, sport=1), mk_packet(0.2, sport=2), mk_packet(0.9, sport=3)]
    path = write_pcap(records, tmp_path / "t.pcap")
    got, _ = read_trace(path)
    assert [r.ts_us for r in got] == [0, 300_000, 700_000]
    assert [r.src_port for r in got] == [2, 1, 3]


def test_direction_filter_parse_and_mirror():
    f = DirectionFilter.parse("src:10.0.0.0/8,192.168.0.0/16")
    assert f.side == "src" and len(f.prefixes) == 2
    assert DirectionFilter.parse("dst:10.0.0.0/8").side == "dst"
    assert DirectionFilter.parse("all").side is None
    # the reverse direction is the same prefixes on the opposite side
    records = [mk_packet(0.0, src="10.0.0.1", dst="172.16.0.1"),
               mk_packet(0.0, src="172.16.0.1", dst="10.0.0.1"),
               mk_packet(0.0, src="172.16.0.1", dst="172.16.0.2")]
    fwd, rev = DirectionFilter.parse("src:10.0.0.0/8").split(records)
    assert (fwd, rev) == ([records[0]], [records[1]])
    assert DirectionFilter.parse("dst:10.0.0.0/8").split(records) == (rev, fwd)
    everything = DirectionFilter.parse("all").split(records)
    assert everything[0] is records and everything[1] is records
    with pytest.raises(ValueError):
        DirectionFilter.parse("sideways:10.0.0.0/8")
    with pytest.raises(ValueError):
        DirectionFilter(side="src", prefixes=())


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), min_size=1, max_size=50))
def test_filter_is_pure_partition(octets):
    f = DirectionFilter.parse("src:10.0.0.0/8")
    records = [mk_packet(0.0, src=f"{a}.{b}.1.1", dst=f"{b}.{a}.2.2", sport=i)
               for i, (a, b) in enumerate(octets)]
    fwd, rev = f.split(records)
    # order-preserving selections by prefix membership of each side
    assert fwd == [r for r in records if r.src_ip.split(".")[0] == "10"]
    assert rev == [r for r in records if r.dst_ip.split(".")[0] == "10"]


# --- SYN signature extraction -------------------------------------------------

LINUX_OPTS = build_tcp_options(("MSS", "SACK", "TS", "NOP", "WS"), 1460)


def test_syn_signature_field_copy():
    sig = extract_syn_signature(TCP_SYN, 5840, 52, True, LINUX_OPTS)
    assert sig == SynSignature(window_size=5840, observed_ttl=52, df_flag=True,
                               mss=1460, options_layout=("MSS", "SACK", "TS", "NOP", "WS"))
    assert not sig.truncated_options


def test_syn_ack_and_data_excluded():
    assert extract_syn_signature(TCP_SYN | TCP_ACK, 5840, 52, True, LINUX_OPTS) is None
    assert extract_syn_signature(TCP_ACK, 5840, 52, True, LINUX_OPTS) is None
    assert extract_syn_signature(0, 5840, 52, True, LINUX_OPTS) is None


def test_malformed_options_truncate_and_flag():
    # MSS with a wrong length byte after two valid NOPs
    bad = b"\x01\x01" + b"\x02\x03\x05"
    layout, mss, truncated = parse_tcp_options(bad)
    assert layout == ("NOP", "NOP") and mss is None and truncated
    # option runs past the end of the buffer
    layout, mss, truncated = parse_tcp_options(b"\x02\x04\x05")
    assert layout == () and truncated
    sig = extract_syn_signature(TCP_SYN, 1000, 60, False, bad)
    assert sig.truncated_options and sig.options_layout == ("NOP", "NOP")


def test_unknown_option_kind_kept_numeric():
    buf = b"\x13\x12" + b"\x00" * 16   # kind 19 (MD5), length 18
    layout, mss, truncated = parse_tcp_options(buf)
    assert layout == ("19",) and not truncated


# --- round trip ---------------------------------------------------------------

_sig_strategy = st.builds(
    SynSignature,
    window_size=st.integers(0, 65535),
    observed_ttl=st.integers(1, 255),
    df_flag=st.booleans(),
    mss=st.just(1460),
    options_layout=st.just(("MSS", "SACK", "TS", "NOP", "WS")),
    truncated_options=st.just(False),
)


_port = st.one_of(st.sampled_from([53, 80, 1024, 1025]), st.integers(1, 65535))


def _few_or_any(lo, few, hi):
    return st.one_of(st.integers(lo, few), st.integers(lo, hi))


@st.composite
def _record_lists(draw):
    """Small packet lists with distinct times, over the full port and host ranges
    but biased toward a few of each, so flows form."""
    n = draw(st.integers(1, 30))
    gaps = draw(st.lists(st.integers(1, 60_000), min_size=n - 1, max_size=n - 1))
    ts_us = [0]
    for gap in gaps:
        ts_us.append(ts_us[-1] + gap)   # microsecond grid, first packet at 0
    records = []
    for ts in ts_us:
        proto = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 47]))
        fragment = draw(st.integers(0, 7)) == 0
        has_ports = proto in (PROTO_TCP, PROTO_UDP) and not fragment
        sig = None
        if proto == PROTO_TCP and not fragment and draw(st.booleans()):
            base = draw(_sig_strategy)
            sig = SynSignature(base.window_size, draw(st.integers(40, 255)),
                               base.df_flag, base.mss, base.options_layout)
        ttl = sig.observed_ttl if sig else draw(st.integers(1, 255))
        records.append(PacketRecord(
            ts_us=ts,
            src_ip=f"10.0.{draw(_few_or_any(0, 1, 5))}.{draw(_few_or_any(1, 3, 20))}",
            dst_ip=f"203.0.113.{draw(_few_or_any(1, 3, 20))}",
            src_port=draw(_port) if has_ports else 0,
            dst_port=draw(_port) if has_ports else 0,
            proto=proto, ttl=ttl, ip_len=draw(st.integers(80, 1500)),
            is_fragment=fragment, syn_sig=sig))
    return records


@settings(max_examples=40, deadline=None)
@given(records=_record_lists(), linktype=st.sampled_from([LINKTYPE_ETHERNET, LINKTYPE_RAW_IP]))
def test_write_read_round_trip(tmp_path_factory, records, linktype):
    path = tmp_path_factory.mktemp("rt") / "rt.pcap"
    write_pcap(records, path, linktype=linktype)
    got, summary = read_trace(path)
    assert summary.total == len(records)
    assert got == records


def _analyze_outputs(pcap, keep):
    """Every file analyze writes, report.json without its generated_at line."""
    out = pcap.parent / "out"
    write_report(analyze_trace(pcap, AnalysisParams(keep=keep, force=True)), out)
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b'  "generated_at": '))
        files[path.name] = data
    return files


@settings(max_examples=40, deadline=None)
@given(records=_record_lists(), data=st.data(),
       link=st.sampled_from(["ethernet", "vlan", "raw"]), ns=st.booleans(),
       endian=st.sampled_from("<>"), ihl=st.sampled_from([5, 6, 15]),
       keep=st.sampled_from(["all", "src:10.0.0.0/24", "dst:203.0.113.2/31"]))
def test_encoding_does_not_change_outputs(tmp_path_factory, records, data, link,
                                          ns, endian, ihl, keep):
    """Metamorphic: any encoding of the same packets gives the same outputs."""
    tmp = tmp_path_factory.mktemp("enc")
    (tmp / "ref").mkdir()
    (tmp / "alt").mkdir()
    ref = write_pcap(records, tmp / "ref" / "t.pcap")
    alt = write_pcap(data.draw(st.permutations(records)), tmp / "alt" / "t.pcap",
                     linktype=LINKTYPE_RAW_IP if link == "raw" else LINKTYPE_ETHERNET,
                     vlan=link == "vlan", ns=ns, endian=endian, ihl=ihl)
    assert _analyze_outputs(alt, keep) == _analyze_outputs(ref, keep)
