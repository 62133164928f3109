"""Trace ingestion: filtering, SYN signatures, and the write/read round trip."""

import os
import random
import struct
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens import pcapio
from flowlens.ingest import DirectionFilter, read_trace
from flowlens.pcapio import (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PROTO_ICMP,
                             PROTO_TCP, PROTO_UDP, TCP_ACK, TCP_RST, TCP_SYN,
                             PacketRecord, PcapFormatError, PcapReader,
                             SynSignature, build_ipv4_packet, build_tcp_options,
                             extract_syn_signature, ipv4_payload, parse_ipv4,
                             parse_tcp_options, wrap_ethernet)
from flowlens.cli import main
from flowlens.report import AnalysisParams, analyze_trace, write_report
from flowlens.synth import generate

from helpers import DB, SRC_NET, mk_packet, random_scenario, write_pcap
from reference import from_records, same_packets


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
    summary = analyze_trace(path, AnalysisParams(), DB).summary
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
    summary = analyze_trace(path, AnalysisParams(keep="src:10.0.0.0/8", force=True), DB).summary
    assert summary.kept == 400 and summary.filtered == 600 and summary.skipped == 600


def test_rows_keep_file_order_rebased_to_earliest(tmp_path):
    records = [mk_packet(0.5, sport=1), mk_packet(0.2, sport=2), mk_packet(0.9, sport=3)]
    path = write_pcap(records, tmp_path / "t.pcap")
    got, _ = read_trace(path)
    assert got.ts_us.tolist() == [300_000, 0, 700_000]
    assert got.src_port.tolist() == [1, 2, 3]


_SYN = SynSignature(window_size=5840, observed_ttl=55, df_flag=True, mss=1460,
                    options_layout=("MSS", "SACK", "TS", "NOP", "WS"))


def test_direction_filter_parse_and_mirror():
    f = DirectionFilter.parse("src:10.0.0.0/8,192.168.0.0/16")
    assert f.side == "src" and len(f.prefixes) == 2
    assert DirectionFilter.parse("dst:10.0.0.0/8").side == "dst"
    assert DirectionFilter.parse("all").side is None
    # the reverse direction is the same prefixes on the opposite side
    records = [mk_packet(0.0, src="10.0.0.1", dst="172.16.0.1"),
               mk_packet(0.0, src="172.16.0.1", dst="10.0.0.1"),
               mk_packet(0.0, src="172.16.0.1", dst="172.16.0.2")]
    packets = from_records(records)
    fwd, rev = DirectionFilter.parse("src:10.0.0.0/8").split(packets)
    assert same_packets(fwd, from_records(records[:1]))
    assert same_packets(rev, from_records(records[1:2]))
    mirror = DirectionFilter.parse("dst:10.0.0.0/8").split(packets)
    assert same_packets(mirror[0], rev) and same_packets(mirror[1], fwd)
    everything = DirectionFilter.parse("all").split(packets)
    assert everything[0] is packets and everything[1] is packets
    with pytest.raises(ValueError):
        DirectionFilter.parse("sideways:10.0.0.0/8")


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255), st.booleans()),
                min_size=1, max_size=50))
def test_filter_is_pure_partition(octets):
    f = DirectionFilter.parse("src:10.0.0.0/8")
    records = [mk_packet(0.0, src=f"{a}.{b}.1.1", dst=f"{b}.{a}.2.2", sport=i,
                         sig=_SYN if syn else None)
               for i, (a, b, syn) in enumerate(octets)]
    fwd, rev = f.split(from_records(records))
    # order-preserving selections by prefix membership of each side, SYNs
    # staying on their rows
    assert same_packets(fwd, from_records([r for r in records
                                           if r.src_ip.split(".")[0] == "10"]))
    assert same_packets(rev, from_records([r for r in records
                                           if r.dst_ip.split(".")[0] == "10"]))


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
    assert same_packets(got, from_records(records))


def _analyze_outputs(pcap, keep):
    """Every file analyze writes."""
    out = pcap.parent / "out"
    write_report(analyze_trace(pcap, AnalysisParams(keep=keep, force=True), DB), out)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


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


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(1, 10_000),
       windows=st.lists(st.integers(64, 1 << 13), min_size=3, max_size=3))
def test_window_size_does_not_change_outputs(tmp_path_factory, seed, windows):
    """Metamorphic: analyze gives the same files whatever the read window, on a
    generated trace (records of one length) and on a snapped twin of it whose
    record lengths vary, so windows move between the strided and the gather
    decode."""
    tmp = tmp_path_factory.mktemp("win")
    trace, _ = generate(random_scenario(seed), tmp / "t.pcap")
    (tmp / "snapped").mkdir()
    twin = tmp / "snapped" / "t.pcap"
    twin.write_bytes(_snapped(trace.read_bytes(), "<", random.Random(seed)))
    for pcap in (trace, twin):
        with pytest.MonkeyPatch.context() as patch:
            outputs = []
            for window in (pcapio.WINDOW_BYTES, *windows):
                patch.setattr(pcapio, "WINDOW_BYTES", window)
                outputs.append(_analyze_outputs(pcap, f"src:{SRC_NET}"))
        assert all(out == outputs[0] for out in outputs), (pcap, windows)


# --- differential: the columnar reader against the per-frame parser -----------

def _reference_read(path):
    """read_trace's result by way of PcapReader -> ipv4_payload -> parse_ipv4,
    in file order, re-based on the earliest packet."""
    counts = {"total": 0, "non_ipv4": 0, "malformed": 0}
    records = []
    with PcapReader(path) as reader:
        for frame in reader:
            counts["total"] += 1
            ip = ipv4_payload(frame.data, reader.linktype)
            record = None if ip is None else parse_ipv4(ip)
            if record is None:
                counts["non_ipv4" if ip is None else "malformed"] += 1
                continue
            record.ts_us = frame.ts_us
            records.append(record)
    t0 = min((r.ts_us for r in records), default=0)
    return [replace(r, ts_us=r.ts_us - t0) for r in records], counts


def _records_of(data, endian):
    """Header offsets of the records of a pcap image."""
    starts, pos = [], 24
    while pos + 16 <= len(data):
        starts.append(pos)
        pos += 16 + struct.unpack_from(endian + "I", data, pos + 8)[0]
    return starts


def _snapped(data, endian, rng):
    """The pcap image with every other record cut to a random captured length."""
    out = bytearray(data[:24])
    for pos in _records_of(data, endian):
        caplen = struct.unpack_from(endian + "I", data, pos + 8)[0]
        cut = rng.randint(0, caplen) if rng.random() < 0.5 else caplen
        out += data[pos:pos + 8] + struct.pack(endian + "I", cut) + data[pos + 12:pos + 16 + cut]
    return bytes(out)


def _mutant_records(rng):
    """The packet list the mutants are made from, with SYNs and fragments."""
    records = []
    for i in range(40):
        proto = rng.choice([PROTO_TCP, PROTO_TCP, PROTO_UDP, PROTO_ICMP])
        fragment = proto != PROTO_ICMP and i % 9 == 0
        sig = _SYN if proto == PROTO_TCP and not fragment and i % 3 == 0 else None
        records.append(mk_packet(i * 0.013, src=f"10.0.0.{i % 5 + 1}", ttl=55,
                                 sport=0 if fragment else 1024 + i % 4,
                                 dport=0 if fragment else 80, proto=proto,
                                 ip_len=rng.randint(60, 90), sig=sig,
                                 is_fragment=fragment))
    return records


def _mutant_bases(tmp_path):
    """Small encodings of one packet list with SYNs and fragments, whole and snapped,
    as (pcap image, record header offsets)."""
    rng = random.Random(4)
    records = _mutant_records(rng)
    # the snap length 54 cuts every frame: records of one length, so flips land in runs
    encodings = [("<", {}), (">", dict(vlan=True, ihl=6, endian=">", ns=True)),
                 ("<", dict(linktype=LINKTYPE_RAW_IP, ihl=15)), ("<", dict(snaplen=54)),
                 (">", dict(snaplen=54, endian=">"))]
    bases = []
    for i, (endian, kw) in enumerate(encodings):
        data = write_pcap(records, tmp_path / f"base{i}.pcap", **kw).read_bytes()
        for image in (data, _snapped(data, endian, rng)):
            bases.append((image, _records_of(image, endian)))
    return bases


def _run_records():
    """The mutants' packets, 40 bytes longer: a snap length of 96 cuts every one
    of them after its SYN options."""
    return [replace(r, ip_len=r.ip_len + 40) for r in _mutant_records(random.Random(4))]


def _run_bases(tmp_path):
    """The mutants' packets as runs of records of one length, as (pcap image,
    record header offsets): plain runs for the strided decode in either byte order
    and on either link type, and a VLAN run and an IHL-6 run that are gathered.
    Last, a run cut inside the TCP options, then one whole SYN: the run's
    caplen does not hold for its last record."""
    records = _run_records()
    encodings = [("<", {}), (">", dict(endian=">")), ("<", dict(linktype=LINKTYPE_RAW_IP)),
                 (">", dict(linktype=LINKTYPE_RAW_IP, endian=">", ns=True)),
                 ("<", dict(vlan=True)), ("<", dict(ihl=6))]
    images = [write_pcap(records, tmp_path / f"run{i}.pcap", snaplen=96, **kw).read_bytes()
              for i, (_, kw) in enumerate(encodings)]
    syn = next(r for r in records if r.syn_sig is not None)
    images.append(write_pcap(records, tmp_path / "cut.pcap", snaplen=60).read_bytes()
                  + write_pcap([syn], tmp_path / "syn.pcap").read_bytes()[24:])
    return [(image, _records_of(image, endian))
            for image, (endian, _) in zip(images, encodings + [("<", {})])]


def _assert_sigs_tight(packets, context):
    """read_trace's table lists each signature once, and every entry is a signature
    in use."""
    assert len(set(packets.sigs)) == len(packets.sigs), context
    assert all(isinstance(sig, SynSignature) for sig in packets.sigs), context
    assert set(packets.sig[packets.sig >= 0].tolist()) == set(range(len(packets.sigs))), \
        context


# the default read window, and one a few records wide, which puts window
# joins among SYNs, fragments, cut frames and the file's end
_WINDOWS = (pcapio.WINDOW_BYTES, 512)


def test_columnar_read_matches_reference_on_mutants(tmp_path, monkeypatch):
    """Byte flips and truncations: both readers refuse the file, or agree row for row,
    whatever the window size. The first 600 mutants are of the mixed bases, the
    rest of the runs."""
    bases, runs = _mutant_bases(tmp_path), _run_bases(tmp_path)
    path = tmp_path / "mutant.pcap"
    refused = 0
    for seed in range(600 + 40 * len(runs)):
        rng = random.Random(seed)
        image, starts = rng.choice(bases if seed < 600 else runs)
        data = bytearray(image)
        for _ in range(rng.randint(1, 8)):
            # mostly into a record's headers, where the parsers branch
            pos = (rng.choice(starts) + rng.randrange(80) if rng.random() < 0.8
                   else rng.randrange(len(data)))
            pos = min(pos, len(data) - 1)
            flip = 1 << rng.randrange(8)
            data[pos] = rng.randrange(256) if rng.random() < 0.5 else data[pos] ^ flip
        if rng.random() < 0.3:
            del data[rng.randrange(len(data)):]
        path.write_bytes(bytes(data))
        try:
            expected, counts = _reference_read(path)
        except PcapFormatError:
            for window in _WINDOWS:
                monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
                with pytest.raises(PcapFormatError):
                    read_trace(path)
            refused += 1
            continue
        for window in _WINDOWS:
            monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
            got, summary = read_trace(path)
            context = f"mutant seed {seed}, {window}-byte window"
            assert same_packets(got, from_records(expected)), context
            _assert_sigs_tight(got, context)
            assert (summary.total, summary.non_ipv4, summary.malformed) == \
                (counts["total"], counts["non_ipv4"], counts["malformed"]), context
    assert 0 < refused < 300      # the mutants exercise both outcomes


# bytes that parse as a VLAN tag, an IPv4 ethertype or header, or TCP flags if read
_TEMPTING = [b"\x45" * 8, b"\x08\x00" * 4, b"\x81\x00\x08\x00" * 2, b"\x02\x12" * 4,
             b"\xff" * 8]


def test_columnar_reads_stay_inside_each_frame(tmp_path, monkeypatch):
    """Every cut of a frame, followed by bytes that would parse if they were read,
    decodes as the per-frame parser decodes it."""
    packets = [mk_packet(0, ip_len=80, sig=_SYN), mk_packet(0, proto=PROTO_UDP, ip_len=40),
               mk_packet(0, sport=0, dport=0, is_fragment=True)]
    encodings = [("<", {}), (">", dict(vlan=True, endian=">")),
                 ("<", dict(linktype=LINKTYPE_RAW_IP)),
                 ("<", dict(linktype=LINKTYPE_RAW_IP, ihl=6))]
    path = tmp_path / "cuts.pcap"
    for endian, kw in encodings:
        images = [write_pcap([p], path, **kw).read_bytes() for p in packets]
        for filler in _TEMPTING:
            out = bytearray(images[0][:24])
            for frame in (image[40:] for image in images):
                for cut in range(len(frame) + 1):
                    out += struct.pack(endian + "IIII", 0, 0, cut, len(frame)) + frame[:cut]
                    # the next record's time fields lie just past the cut
                    out += filler + struct.pack(endian + "II", len(frame), len(frame)) + frame
            path.write_bytes(bytes(out))
            expected, counts = _reference_read(path)
            for window in (pcapio.WINDOW_BYTES, 4096):    # the default, a few records
                monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
                got, summary = read_trace(path)
                assert same_packets(got, from_records(expected)), (kw, filler, window)
                _assert_sigs_tight(got, (kw, filler, window))
                assert (summary.total, summary.non_ipv4, summary.malformed) == \
                    (counts["total"], counts["non_ipv4"], counts["malformed"]), \
                    (kw, filler, window)


def test_chunk_joins(tmp_path, monkeypatch):
    """Windows smaller than a record, ending on record boundaries, and ending inside
    a cut final record or an oversized record: the same packets as the per-frame
    parser, the same error."""
    rng = random.Random(8)
    times = rng.sample(range(12), 12)     # out of time order: t0 may lie in any chunk
    packets = [mk_packet(t * 1e-3, src=f"10.0.0.{i % 4 + 1}", ttl=50 + i,
                         sig=_SYN if i % 4 else None) for i, t in enumerate(times)]
    data = write_pcap(packets, tmp_path / "whole.pcap").read_bytes()
    starts = [pos - 24 for pos in _records_of(data, "<")]    # offsets after the header
    size = starts[1]
    assert starts == [i * size for i in range(12)]           # records of one length
    path = tmp_path / "chunks.pcap"
    for image in (data, data[:-5]):
        path.write_bytes(image)
        expected, counts = _reference_read(path)
        assert len(expected) == (12 if image is data else 11)
        for window in (10, 100, size - 1, size, 2 * size, 5 * size, 11 * size + 3,
                       12 * size, 13 * size, 1000, 3000):
            monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
            got, summary = read_trace(path)
            assert same_packets(got, from_records(expected)), window
            _assert_sigs_tight(got, window)
            assert summary.total == counts["total"], window
    oversized = bytearray(data)
    struct.pack_into("<I", oversized, 24 + starts[7] + 8, pcapio.MAX_CAPLEN + 1)
    path.write_bytes(bytes(oversized))
    for window in (100, size, 3 * size, starts[7] + 5, starts[7] + 12, starts[7] + 100):
        monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
        with pytest.raises(PcapFormatError, match="record 7 claims"):
            read_trace(path)


def test_frames_longer_than_the_window(tmp_path, monkeypatch):
    """A frame several windows long is finished by further reads and decodes as the
    per-frame parser decodes it."""
    packets = [mk_packet(i * 1e-3, sport=1000 + i, ip_len=3000 if i % 3 else 60,
                         sig=_SYN if i % 2 else None) for i in range(9)]
    path = write_pcap(packets, tmp_path / "jumbo.pcap")
    expected, counts = _reference_read(path)
    assert len(expected) == 9
    for window in (512, pcapio.WINDOW_BYTES):
        monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
        got, summary = read_trace(path)
        assert same_packets(got, from_records(expected)), window
        assert summary.total == counts["total"], window


def test_pipe_is_read_in_windows(tmp_path, monkeypatch):
    """A pipe is read a window at a time, not whole: reading a trace of over 1 MB
    allocates well under the stream's size."""
    records = [mk_packet(i * 1e-4, src=f"10.0.{i % 7}.{i % 200 + 1}", sport=1024 + i % 5000,
                         ip_len=60 + i % 900, sig=_SYN if i % 10 == 0 else None)
               for i in range(12_000)]
    data = write_pcap(records, tmp_path / "stream.pcap", snaplen=96).read_bytes()
    assert len(data) > 1 << 20
    expected, _ = _reference_read(tmp_path / "stream.pcap")
    monkeypatch.setattr(pcapio, "WINDOW_BYTES", 1 << 16)
    r, w = os.pipe()

    def feed():
        with open(w, "wb", buffering=0) as fh:
            view = memoryview(data)
            for pos in range(0, len(data), 1 << 16):
                fh.write(view[pos:pos + (1 << 16)])

    writer = threading.Thread(target=feed, daemon=True)
    tracemalloc.start()
    try:
        writer.start()
        got, summary = read_trace(f"/dev/fd/{r}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.close(r)
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert same_packets(got, from_records(expected))
    assert summary.total == len(records)
    assert peak < 0.75 * len(data), peak / len(data)


def test_no_chunk_refers_to_the_read_buffer(tmp_path, monkeypatch, gathers):
    """Every column of every chunk is a copy: none shares memory with the buffer
    the reader reads each window into, whether the window is decoded through
    views or gathered, and with windows smaller than a record."""
    records, default = _run_records(), pcapio.WINDOW_BYTES
    for snaplen, gathered in ((96, False), (65535, True)):
        path = write_pcap(records, tmp_path / f"{snaplen}.pcap", snaplen=snaplen)
        for window in (default, 333, 64):
            monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
            gathers.clear()
            rows = 0
            with PcapReader(path) as reader:
                chunks = reader.packet_chunks()
                for chunk, _, _ in chunks:
                    buffer = np.asarray(chunks.gi_frame.f_locals["buffer"])
                    assert not any(np.shares_memory(col, buffer)
                                   for col in chunk.columns()), (snaplen, window)
                    rows += len(chunk)
            assert rows == len(records), (snaplen, window)
            if window == default:   # a smaller one may hold a run of one
                assert bool(gathers) == gathered, snaplen


def test_decode_error_comes_out_unchanged(tmp_path, monkeypatch):
    """An error while decoding a chunk leaves read_trace as it was raised: closing the
    reader on the way out neither replaces nor hides it."""
    path = write_pcap([mk_packet(0, sig=_SYN)], tmp_path / "one.pcap")

    def failing(self, *args):
        raise RuntimeError("decode failed")

    monkeypatch.setattr(PcapReader, "_decode", failing)
    with pytest.raises(RuntimeError, match="decode failed"):
        read_trace(path)


# --- SYN keys: grouped per chunk, against the per-frame parser -----------------

_ECE = 0x40


def _syn_frame(options=LINUX_OPTS, flags=TCP_SYN, window=5840, ttl=55, df=True,
               data_offset=None, src="10.0.0.1"):
    """A raw-IP TCP SYN with the given option bytes; `data_offset` overrides the
    header's (in bytes), whatever the options are."""
    ip = bytearray(build_ipv4_packet(src, "203.0.113.1", PROTO_TCP, ttl=ttl,
                                     ip_len=40 + len(options), df=df, src_port=1024,
                                     dst_port=80, tcp_flags=flags, tcp_window=window,
                                     tcp_options=options))
    if data_offset is not None:
        ip[32] = data_offset // 4 << 4
    return bytes(ip)


def _raw_pcap(frames, path, linktype=LINKTYPE_RAW_IP):
    """A pcap of (frame, caplen) pairs, 1 ms apart in stream order; raw IP unless
    `linktype` says otherwise."""
    out = bytearray(struct.pack("<IHHiIII", pcapio.MAGIC_US, 2, 4, 0, 0, 65535, linktype))
    for i, (frame, caplen) in enumerate(frames):
        out += struct.pack("<IIII", 0, 1000 * i, caplen, len(frame)) + frame[:caplen]
    path.write_bytes(bytes(out))
    return path


def test_syn_keys_match_the_per_frame_parser(tmp_path, monkeypatch):
    """Short data offsets, options cut by caplen, 40-byte options, flags that do not
    change the signature and a signature first seen late: the same sig column and
    table, in order of first appearance, as parse_ipv4 gives frame by frame."""
    forty = LINUX_OPTS + b"\x13\x12" + bytes(16) + b"\x01\x00"      # MD5, NOP, EOL
    tail_zeros = b"\x01\x01\x00\x00"
    frames = []
    for i in range(6):
        frames.append((_syn_frame(window=5840 + i % 2), 60))
        frames.append((_syn_frame(flags=TCP_SYN | _ECE, window=5840), 60))
        frames.append((_syn_frame(flags=TCP_SYN | TCP_ACK), 60))
        frames.append((_syn_frame(LINUX_OPTS, data_offset=12), 60))     # < 20: no options
        frames.append((_syn_frame(LINUX_OPTS, data_offset=0), 60))
        for cut in (34, 35, 36, 40, 41, 45, 52, 59):    # inside the header, then options
            frames.append((_syn_frame(), cut))
        frames.append((_syn_frame(forty, ttl=60), 80))
        frames.append((_syn_frame(forty, ttl=60), 79))
        # the same bytes once zero-padded: only the option length tells them apart
        frames.append((_syn_frame(tail_zeros, df=False), 44))
        frames.append((_syn_frame(tail_zeros, df=False), 43))
        frames.append((_syn_frame(tail_zeros, df=False), 42))
        frames.append((_syn_frame(window=i, ttl=30 + i), 60))
    frames.append((_syn_frame(window=4321, ttl=7), 60))              # new in the last chunk
    path = _raw_pcap(frames, tmp_path / "syns.pcap")
    expected, _ = _reference_read(path)
    want = from_records(expected)
    assert len(want.sigs) > 15
    for window in (pcapio.WINDOW_BYTES, 300):
        monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
        got, _ = read_trace(path)
        assert got.sigs == want.sigs, window
        assert got.sig.tolist() == want.sig.tolist(), window
    with PcapReader(path) as reader:
        tables = [len(chunk.sigs) for chunk, _, _ in reader.packet_chunks()]
    assert len(tables) > 10 and tables[-2] < tables[-1] == len(want.sigs)


def test_windows_shorter_than_a_syn_key(tmp_path, monkeypatch):
    """Windows holding fewer bytes than the 40 option bytes a SYN's key spans:
    a header-only datagram alone, and SYNs cut inside their TCP header."""
    bare = build_ipv4_packet("10.0.0.1", "10.0.0.2", 99, ttl=64, ip_len=20)
    cases = [[(bare, 20)], [(_syn_frame(), 60), (bare, 20)],
             [(_syn_frame(), 34)], [(_syn_frame(), 60), (_syn_frame(window=7), 36)]]
    for i, frames in enumerate(cases):
        path = _raw_pcap(frames, tmp_path / f"short{i}.pcap")
        expected, counts = _reference_read(path)
        for window in (pcapio.WINDOW_BYTES, 76):      # 76: one 60-byte record a window
            monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
            got, summary = read_trace(path)
            assert same_packets(got, from_records(expected)), (i, window)
            assert summary.total == counts["total"] == len(frames), (i, window)


# --- the record walk ----------------------------------------------------------

def _walk_trace(path, n=60, endian="<", snaplen=65535):
    """Records of odd and even lengths, so their headers sit at every alignment."""
    records = [mk_packet(i * 1e-3, src=f"10.0.0.{i % 5 + 1}", sport=1000 + i,
                         ip_len=61 + i % 7, sig=_SYN if i % 4 == 0 else None)
               for i in range(n)]
    return write_pcap(records, path, endian=endian, snaplen=snaplen)


def test_big_endian_twin_reads_the_same(tmp_path, monkeypatch):
    little = _walk_trace(tmp_path / "little.pcap")
    big = _walk_trace(tmp_path / "big.pcap", endian=">")
    snapped = _walk_trace(tmp_path / "snapped.pcap", endian=">", snaplen=67)
    assert little.read_bytes() != big.read_bytes()
    expected, _ = _reference_read(little)
    for window in (pcapio.WINDOW_BYTES, 333, 64):
        monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
        got, summary = read_trace(big)
        assert same_packets(got, read_trace(little)[0]), window
        assert same_packets(got, from_records(expected)), window
        assert summary.total == 60
        assert same_packets(read_trace(snapped)[0],
                            from_records(_reference_read(snapped)[0]))


# --- runs of records of one length --------------------------------------------

def _reads_as_reference(path, monkeypatch, windows):
    """read_trace gives the per-frame parser's packets and counts at each window size."""
    expected, counts = _reference_read(path)
    for window in windows:
        monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
        got, summary = read_trace(path)
        assert same_packets(got, from_records(expected)), (path.name, window)
        assert (summary.total, summary.non_ipv4, summary.malformed) == \
            (counts["total"], counts["non_ipv4"], counts["malformed"]), (path.name, window)
    return counts


def test_runs_of_one_length(tmp_path, monkeypatch):
    """A window that is one run to its end, its last record cut and carried; a run
    broken mid-window, with a second run after it; 16-byte records as a run, and
    windows that hold nothing else."""
    one = _walk_trace(tmp_path / "one.pcap", n=40, snaplen=54).read_bytes()
    size = 16 + 54
    assert len(one) == 24 + 40 * size              # the snap length cuts every frame
    other = _walk_trace(tmp_path / "other.pcap", n=30, snaplen=70).read_bytes()
    path = tmp_path / "runs.pcap"
    windows = (pcapio.WINDOW_BYTES, 10 * size + 7, 3 * size, size, size - 1, 100, 11)
    for image, total in ((one, 40), (one[:-5], 39), (one + other[24:], 70)):
        path.write_bytes(image)
        assert _reads_as_reference(path, monkeypatch, windows)["total"] == total
    empty = _raw_pcap([(_syn_frame(), 0)] * 25 + [(_syn_frame(), 60)] * 5,
                      tmp_path / "empty.pcap")
    counts = _reads_as_reference(empty, monkeypatch,
                                 (pcapio.WINDOW_BYTES, 7 * 16 + 3, 40, 16, 11))
    assert (counts["total"], counts["non_ipv4"]) == (30, 25)
    alone = _raw_pcap([(_syn_frame(), 0)], tmp_path / "alone.pcap")
    assert _reads_as_reference(alone, monkeypatch, (pcapio.WINDOW_BYTES,))["total"] == 1


def test_a_run_of_oversized_records_is_refused(tmp_path, monkeypatch):
    """Records of one length that each claim more than MAX_CAPLEN are refused, naming
    the first, whether a window holds several of them whole, one, or none."""
    caplen = pcapio.MAX_CAPLEN + 1
    path = _raw_pcap([(bytes(caplen), caplen)] * 4, tmp_path / "over.pcap")
    with pytest.raises(PcapFormatError, match="record 0 claims"):
        _reference_read(path)
    for window in (pcapio.WINDOW_BYTES, 1 << 21, caplen + 16, 100):
        monkeypatch.setattr(pcapio, "WINDOW_BYTES", window)
        with pytest.raises(PcapFormatError, match=f"record 0 claims {caplen} "):
            read_trace(path)


class _Counted:
    """A struct whose unpack_from records the offset of each read."""

    def __init__(self, unpacker, reads):
        self._unpacker, self._reads = unpacker, reads

    def unpack_from(self, buffer, offset=0):
        self._reads.append(offset)
        return self._unpacker.unpack_from(buffer, offset)


def test_a_run_is_read_at_once(tmp_path, monkeypatch):
    """The walk reads a few caplen words one at a time from a trace of one length,
    in either byte order, and about one a record from a trace of varied lengths."""
    reads = []
    init = PcapReader.__init__

    def counting_init(self, path):
        init(self, path)
        self._u32 = _Counted(self._u32, reads)

    monkeypatch.setattr(PcapReader, "__init__", counting_init)
    n = 500
    for endian, snaplen in (("<", 54), (">", 54), ("<", 65535), (">", 65535)):
        path = _walk_trace(tmp_path / f"{snaplen}{endian}.pcap", n=n, endian=endian,
                           snaplen=snaplen)
        reads.clear()
        got, _ = read_trace(path)
        assert same_packets(got, from_records(_reference_read(path)[0]))
        if snaplen == 54:
            assert len(reads) < 10, (endian, len(reads))
        else:
            assert len(reads) > n, (endian, len(reads))


@pytest.fixture
def gathers(monkeypatch):
    """The width of every _bytes_at gather made while the test runs."""
    widths = []
    bytes_at = pcapio._bytes_at

    def counting(buf, pos, width):
        widths.append(width)
        return bytes_at(buf, pos, width)

    monkeypatch.setattr(pcapio, "_bytes_at", counting)
    return widths


def test_a_plain_run_is_decoded_without_gathers(tmp_path, monkeypatch, gathers):
    """A window that is one run of plain IPv4 records is decoded through views, with
    no gather, in either byte order and on either link type; a VLAN run, an IHL-6
    run and records of varied lengths are gathered. Each reads as the per-frame
    parser reads it."""
    records = _run_records()
    raw = dict(linktype=LINKTYPE_RAW_IP)
    cases = [({}, False), (dict(endian=">"), False), (raw, False),
             (dict(raw, endian=">"), False), (dict(vlan=True), True), (dict(ihl=6), True),
             (dict(snaplen=65535), True)]
    for i, (kw, gathered) in enumerate(cases):
        path = write_pcap(records, tmp_path / f"case{i}.pcap", **{"snaplen": 96, **kw})
        gathers.clear()
        counts = _reads_as_reference(path, monkeypatch, (pcapio.WINDOW_BYTES,))
        assert bool(gathers) == gathered, (kw, gathers)
        assert counts["total"] == len(records), kw


def test_every_cut_of_a_run(tmp_path, monkeypatch, gathers):
    """Runs of one to three copies of one frame cut at each length, on either link
    type: a run with its IP header captured is decoded through views, a bare
    20-byte datagram too, and at every cut its captured-bytes checks keep what the
    per-frame parser keeps. A RST without ACK has no SYN signature."""
    forty = LINUX_OPTS + b"\x13\x12" + bytes(16) + b"\x01\x01"   # MD5, NOPs: 40 bytes
    udp = build_ipv4_packet("10.0.0.1", "203.0.113.1", PROTO_UDP, ttl=64, ip_len=40,
                            src_port=53, dst_port=1024)
    bare = udp[:2] + struct.pack(">H", 20) + udp[4:20]          # ip_len 20: no transport
    path = tmp_path / "cut.pcap"
    for linktype, link in ((LINKTYPE_RAW_IP, b""), (LINKTYPE_ETHERNET, wrap_ethernet(b""))):
        for frame in (link + _syn_frame(forty), link + _syn_frame(forty, flags=TCP_RST),
                      link + udp, link + bare):
            for cut in range(len(frame) + 1):
                _raw_pcap([(frame, cut)] * (1 + cut % 3), path, linktype)
                gathers.clear()
                _reads_as_reference(path, monkeypatch, (pcapio.WINDOW_BYTES,))
                assert (not gathers) == (cut >= len(link) + 20), (linktype, cut)
                _assert_sigs_tight(read_trace(path)[0], (linktype, cut))


def test_the_walk_copies_no_window(tmp_path):
    """Walking a window allocates less than the window, in either byte order,
    whether it is one run or records of varied lengths: no word of it is
    copied, so a file not in the machine's byte order builds no swapped copy
    (four of them took more than four times the window)."""
    for endian in ("<", ">"):
        for snaplen in (54, 65535):
            path = _walk_trace(tmp_path / f"{snaplen}{endian}.pcap", n=5000, endian=endian,
                               snaplen=snaplen)
            image = path.read_bytes()[24:]
            with PcapReader(path) as reader:
                tracemalloc.start()
                try:
                    starts, end, one_run = reader._walk(image, 0, final=True)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert (len(starts), end, one_run) == (5000, len(image), snaplen == 54)
            assert peak < len(image), (endian, snaplen, peak, len(image))


def _with_caplen(path, record, caplen):
    """The pcap with record `record`'s caplen field set to `caplen`."""
    data = bytearray(path.read_bytes())
    pos = 24
    for _ in range(record):
        pos += 16 + struct.unpack_from("<I", data, pos + 8)[0]
    struct.pack_into("<I", data, pos + 8, caplen)
    path.write_bytes(bytes(data))


def test_oversized_caplen_mid_window_and_at_its_cut(tmp_path, capsys):
    """A record claiming more than MAX_CAPLEN is refused with its index, whether
    the window holds as many bytes as it claims (the walk goes on past it) or
    it is the record the window cuts."""
    n = (pcapio.MAX_CAPLEN + 20_000) // 100      # enough bytes after record 30
    for name, caplen in (("mid", pcapio.MAX_CAPLEN + 1), ("cut", 0x7FFFFFFF)):
        path = tmp_path / f"{name}.pcap"
        write_pcap([mk_packet(i * 1e-4, sport=1000 + i % 50000, ip_len=70)
                    for i in range(n)], path)
        _with_caplen(path, 30, caplen)
        if name == "mid":
            assert path.stat().st_size - 24 < pcapio.WINDOW_BYTES
            assert path.stat().st_size > 24 + 31 * 100 + pcapio.MAX_CAPLEN + 16
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 66
        err = capsys.readouterr().err
        assert f"record 30 claims {caplen} captured bytes (limit {pcapio.MAX_CAPLEN})" \
            in err, err
