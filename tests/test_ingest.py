"""Trace ingestion: filtering, SYN signatures, and the write/read round trip."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.ingest import (DirectionFilter, FilterMode, PacketRecord,
                             SynSignature, extract_syn_signature,
                             parse_tcp_options, read_trace)
from flowlens.pcapio import (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PROTO_ICMP,
                             PROTO_TCP, PROTO_UDP, TCP_ACK, TCP_SYN,
                             build_tcp_options)
from flowlens.report import AnalysisParams, analyze_trace

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
    records = [PacketRecord(timestamp=i * 1e-4, src_ip=r.src_ip, dst_ip=r.dst_ip,
                            src_port=r.src_port, dst_port=r.dst_port, proto=r.proto,
                            ttl=r.ttl, ip_len=r.ip_len) for i, r in enumerate(records)]
    path = write_pcap(records, tmp_path / "t.pcap")
    got, _ = read_trace(path)
    assert len(got) == 1000
    summary = analyze_trace(path, AnalysisParams(keep="src:10.0.0.0/8", force=True)).summary
    assert summary.kept == 400 and summary.filtered == 600 and summary.skipped == 600


def test_timestamps_rebased_and_sorted(tmp_path):
    records = [mk_packet(0.5, sport=1), mk_packet(0.2, sport=2), mk_packet(0.9, sport=3)]
    path = write_pcap(records, tmp_path / "t.pcap")
    got, _ = read_trace(path)
    assert [r.timestamp for r in got] == [0.0, pytest.approx(0.3), pytest.approx(0.7)]
    assert [r.src_port for r in got] == [2, 1, 3]


def test_direction_filter_parse_and_mirror():
    f = DirectionFilter.parse("src:10.0.0.0/8,192.168.0.0/16")
    assert f.mode is FilterMode.SRC_IN_PREFIX_SET and len(f.prefixes) == 2
    m = f.mirrored()
    assert m.mode is FilterMode.DST_IN_PREFIX_SET and m.prefixes == f.prefixes
    assert DirectionFilter.parse("all").mode is FilterMode.ALL
    with pytest.raises(ValueError):
        DirectionFilter.parse("sideways:10.0.0.0/8")
    with pytest.raises(ValueError):
        DirectionFilter(mode=FilterMode.SRC_IN_PREFIX_SET, prefixes=())


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), min_size=1, max_size=50))
def test_filter_is_pure_partition(octets):
    f = DirectionFilter.parse("src:10.0.0.0/8")
    records = [mk_packet(0.0, src=f"{a}.{b}.1.1") for a, b in octets]
    kept = [r for r in records if f.keep(r)]
    dropped = [r for r in records if not f.keep(r)]
    assert len(kept) + len(dropped) == len(records)
    assert all(r.src_ip.startswith("10.") for r in kept)
    assert not any(r.src_ip.split(".")[0] == "10" for r in dropped)


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


@st.composite
def _record_lists(draw):
    n = draw(st.integers(1, 30))
    records = []
    for i in range(n):
        ts = (i * 250) / 1e6   # microsecond grid, first packet at 0
        proto = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 47]))
        has_ports = proto in (PROTO_TCP, PROTO_UDP)
        sig = None
        if proto == PROTO_TCP and draw(st.booleans()):
            base = draw(_sig_strategy)
            sig = SynSignature(base.window_size, draw(st.integers(40, 255)),
                               base.df_flag, base.mss, base.options_layout)
        ttl = sig.observed_ttl if sig else draw(st.integers(1, 255))
        records.append(PacketRecord(
            timestamp=ts,
            src_ip=f"10.0.{draw(st.integers(0, 5))}.{draw(st.integers(1, 20))}",
            dst_ip=f"203.0.113.{draw(st.integers(1, 20))}",
            src_port=draw(st.integers(1, 65535)) if has_ports else 0,
            dst_port=draw(st.integers(1, 65535)) if has_ports else 0,
            proto=proto, ttl=ttl, ip_len=draw(st.integers(80, 1500)),
            syn_sig=sig))
    return records


@settings(max_examples=40, deadline=None)
@given(records=_record_lists(), linktype=st.sampled_from([LINKTYPE_ETHERNET, LINKTYPE_RAW_IP]))
def test_write_read_round_trip(tmp_path_factory, records, linktype):
    path = tmp_path_factory.mktemp("rt") / "rt.pcap"
    write_pcap(records, path, linktype=linktype)
    got, summary = read_trace(path)
    assert summary.total == len(records)
    assert got == records
