"""Trace ingestion: filtering, SYN signatures, and the write/read round trip."""

import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens import pcapio
from flowlens.ingest import DirectionFilter, read_trace
from flowlens.pcapio import (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PROTO_ICMP,
                             PROTO_TCP, PROTO_UDP, TCP_ACK, TCP_SYN,
                             PacketRecord, Packets, PcapFormatError, PcapReader,
                             SynSignature, build_tcp_options,
                             extract_syn_signature, ipv4_payload, parse_ipv4,
                             parse_tcp_options)
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
    assert got.ts_us.tolist() == [0, 300_000, 700_000]
    assert got.src_port.tolist() == [2, 1, 3]


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
    packets = Packets.from_records(records)
    fwd, rev = DirectionFilter.parse("src:10.0.0.0/8").split(packets)
    assert (fwd, rev) == (Packets.from_records(records[:1]),
                          Packets.from_records(records[1:2]))
    assert DirectionFilter.parse("dst:10.0.0.0/8").split(packets) == (rev, fwd)
    everything = DirectionFilter.parse("all").split(packets)
    assert everything[0] is packets and everything[1] is packets
    with pytest.raises(ValueError):
        DirectionFilter.parse("sideways:10.0.0.0/8")
    with pytest.raises(ValueError):
        DirectionFilter(side="src", prefixes=())


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255), st.booleans()),
                min_size=1, max_size=50))
def test_filter_is_pure_partition(octets):
    f = DirectionFilter.parse("src:10.0.0.0/8")
    records = [mk_packet(0.0, src=f"{a}.{b}.1.1", dst=f"{b}.{a}.2.2", sport=i,
                         sig=_SYN if syn else None)
               for i, (a, b, syn) in enumerate(octets)]
    fwd, rev = f.split(Packets.from_records(records))
    # order-preserving selections by prefix membership of each side, SYNs
    # staying on their rows
    assert fwd == Packets.from_records([r for r in records if r.src_ip.split(".")[0] == "10"])
    assert rev == Packets.from_records([r for r in records if r.dst_ip.split(".")[0] == "10"])


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
    assert got == Packets.from_records(records)


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


# --- differential: the columnar reader against the per-frame parser -----------

def _reference_read(path):
    """read_trace's result by way of PcapReader -> ipv4_payload -> parse_ipv4,
    then a stable sort on time and a re-base on the first packet."""
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
    records.sort(key=lambda r: r.ts_us)
    t0 = records[0].ts_us if records else 0
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


def _mutant_bases(tmp_path):
    """Small encodings of one packet list with SYNs and fragments, whole and snapped,
    as (pcap image, record header offsets)."""
    rng = random.Random(4)
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
    encodings = [("<", {}), (">", dict(vlan=True, ihl=6, endian=">", ns=True)),
                 ("<", dict(linktype=LINKTYPE_RAW_IP, ihl=15))]
    bases = []
    for i, (endian, kw) in enumerate(encodings):
        data = write_pcap(records, tmp_path / f"base{i}.pcap", **kw).read_bytes()
        for image in (data, _snapped(data, endian, rng)):
            bases.append((image, _records_of(image, endian)))
    return bases


def _assert_sigs_tight(packets, context):
    """read_trace's table lists each signature once, and every entry is in use."""
    assert len(set(packets.sigs)) == len(packets.sigs), context
    assert set(packets.sig[packets.sig >= 0].tolist()) == set(range(len(packets.sigs))), \
        context


# the default chunk size, and one small enough to put chunk joins among
# SYNs, fragments, cut frames and the file's end
_CHUNK_ROWS = (pcapio.CHUNK_ROWS, 7)


def test_columnar_read_matches_reference_on_mutants(tmp_path, monkeypatch):
    """Byte flips and truncations: both readers refuse the file, or agree row for row,
    whatever the chunk size."""
    bases = _mutant_bases(tmp_path)
    path = tmp_path / "mutant.pcap"
    refused = 0
    for seed in range(600):
        rng = random.Random(seed)
        image, starts = rng.choice(bases)
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
            for rows in _CHUNK_ROWS:
                monkeypatch.setattr(pcapio, "CHUNK_ROWS", rows)
                with pytest.raises(PcapFormatError):
                    read_trace(path)
            refused += 1
            continue
        for rows in _CHUNK_ROWS:
            monkeypatch.setattr(pcapio, "CHUNK_ROWS", rows)
            got, summary = read_trace(path)
            assert got == Packets.from_records(expected), f"mutant seed {seed}, {rows} rows"
            _assert_sigs_tight(got, f"mutant seed {seed}, {rows} rows")
            assert (summary.total, summary.non_ipv4, summary.malformed) == \
                (counts["total"], counts["non_ipv4"], counts["malformed"]), \
                f"mutant seed {seed}, {rows} rows"
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
            for rows in _CHUNK_ROWS:
                monkeypatch.setattr(pcapio, "CHUNK_ROWS", rows)
                got, summary = read_trace(path)
                assert got == Packets.from_records(expected), (kw, filler, rows)
                _assert_sigs_tight(got, (kw, filler, rows))
                assert (summary.total, summary.non_ipv4, summary.malformed) == \
                    (counts["total"], counts["non_ipv4"], counts["malformed"]), \
                    (kw, filler, rows)


def test_chunk_joins(tmp_path, monkeypatch):
    """Chunks that end on the file's last record, on a cut final record, and before
    an oversized record: the same packets as the per-frame parser, the same error."""
    rng = random.Random(8)
    times = rng.sample(range(12), 12)     # rows move across chunks when sorted
    packets = [mk_packet(t * 1e-3, src=f"10.0.0.{i % 4 + 1}", ttl=50 + i,
                         sig=_SYN if i % 4 else None) for i, t in enumerate(times)]
    data = write_pcap(packets, tmp_path / "whole.pcap").read_bytes()
    path = tmp_path / "chunks.pcap"
    for image in (data, data[:-5]):
        path.write_bytes(image)
        expected, counts = _reference_read(path)
        assert len(expected) == (12 if image is data else 11)
        for rows in (1, 2, 3, 5, 6, 11, 12, 13):
            monkeypatch.setattr(pcapio, "CHUNK_ROWS", rows)
            got, summary = read_trace(path)
            assert got == Packets.from_records(expected), rows
            assert summary.total == counts["total"], rows
    oversized = bytearray(data)
    struct.pack_into("<I", oversized, _records_of(data, "<")[7] + 8, pcapio.MAX_CAPLEN + 1)
    path.write_bytes(bytes(oversized))
    for rows in (3, 7, 8):
        monkeypatch.setattr(pcapio, "CHUNK_ROWS", rows)
        with pytest.raises(PcapFormatError, match="record 7 claims"):
            read_trace(path)


def test_decode_error_comes_out_unchanged(tmp_path, monkeypatch):
    """An error while decoding a chunk is not replaced by one from releasing the map."""
    path = write_pcap([mk_packet(0, sig=_SYN)], tmp_path / "one.pcap")

    def failing(self, image, buf, starts, memo):
        raise RuntimeError("decode failed")     # its frame still holds a view of the map

    monkeypatch.setattr(PcapReader, "_decode", failing)
    with pytest.raises(RuntimeError, match="decode failed"):
        read_trace(path)
