"""Format-level pcap reading/writing and IPv4 parsing."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from flowlens import pcapio
from flowlens.pcapio import (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PROTO_TCP,
                             PacketRecord, PcapFormatError, PcapReader,
                             PcapWriter, SynSignature, build_ipv4_packet,
                             build_tcp_options, parse_ipv4, wrap_ethernet)

from reference import from_records, same_packets


def _write_simple(path, endian="<", linktype=LINKTYPE_RAW_IP, n=3):
    with PcapWriter(path, linktype=linktype, endian=endian) as w:
        for i in range(n):
            pkt = build_ipv4_packet("10.0.0.1", "10.0.0.2", PROTO_TCP, ttl=60,
                                    ip_len=60, src_port=1000 + i, dst_port=80)
            w.write(ts_us=i * 1000, packet=pkt)


def test_native_and_swapped_byte_order(tmp_path):
    for endian in ("<", ">"):
        path = tmp_path / f"t{endian == '>'}.pcap"
        _write_simple(path, endian=endian)
        with PcapReader(path) as r:
            frames = list(r)
        assert len(frames) == 3
        assert [f.ts_us for f in frames] == [0, 1000, 2000]


def test_nanosecond_magic(tmp_path):
    path = tmp_path / "ns.pcap"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", pcapio.MAGIC_NS, 2, 4, 0, 0, 65535,
                             LINKTYPE_RAW_IP))
        pkt = build_ipv4_packet("10.0.0.1", "10.0.0.2", PROTO_TCP, ttl=60,
                                ip_len=60, src_port=1, dst_port=2)
        fh.write(struct.pack("<IIII", 1, 500_000, len(pkt), len(pkt)))
        fh.write(pkt)
    with PcapReader(path) as r:
        frames = list(r)
    assert frames[0].ts_us == 1_000_500   # ns fraction floored to us


def test_pcapng_rejected(tmp_path):
    path = tmp_path / "x.pcapng"
    path.write_bytes(struct.pack("<I", pcapio.PCAPNG_MAGIC) + b"\x00" * 40)
    with pytest.raises(PcapFormatError, match="pcapng"):
        PcapReader(path)


def test_garbage_magic_rejected(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 40)
    with pytest.raises(PcapFormatError, match="magic"):
        PcapReader(path)


def test_short_file_rejected(tmp_path):
    path = tmp_path / "tiny.pcap"
    path.write_bytes(b"\xd4\xc3\xb2\xa1")
    with pytest.raises(PcapFormatError):
        PcapReader(path)


def test_truncated_final_record_ends_cleanly(tmp_path, caplog):
    path = tmp_path / "trunc.pcap"
    _write_simple(path, n=2)
    data = path.read_bytes()
    path.write_bytes(data[:-10])   # cut into the last packet's body
    with PcapReader(path) as r:
        frames = list(r)
    assert len(frames) == 1
    assert any("truncated" in rec.message for rec in caplog.records)


def test_oversized_caplen_rejected_before_reading(tmp_path):
    path = tmp_path / "huge.pcap"
    _write_simple(path, n=3)
    data = bytearray(path.read_bytes())
    second = 24 + 16 + 60                   # header, then one 60-byte record
    struct.pack_into("<I", data, second + 8, pcapio.MAX_CAPLEN + 1)
    path.write_bytes(bytes(data))
    with PcapReader(path) as r:
        frames = iter(r)
        next(frames)
        with pytest.raises(PcapFormatError, match="record 1 claims 262145"):
            next(frames)


def test_ethernet_and_vlan_unwrap():
    ip = build_ipv4_packet("1.2.3.4", "5.6.7.8", PROTO_TCP, ttl=64, ip_len=40,
                           src_port=1, dst_port=2)
    assert pcapio.ipv4_payload(wrap_ethernet(ip), LINKTYPE_ETHERNET) == ip
    vlan = wrap_ethernet(ip)[:12] + b"\x81\x00\x00\x2a\x08\x00" + ip
    assert pcapio.ipv4_payload(vlan, LINKTYPE_ETHERNET) == ip
    arp = wrap_ethernet(ip)[:12] + b"\x08\x06" + b"\x00" * 28
    assert pcapio.ipv4_payload(arp, LINKTYPE_ETHERNET) is None
    assert pcapio.ipv4_payload(ip, LINKTYPE_RAW_IP) == ip
    assert pcapio.ipv4_payload(b"\x60" + b"\x00" * 39, LINKTYPE_RAW_IP) is None  # IPv6


def test_parse_ipv4_fields():
    ip = build_ipv4_packet("192.168.1.5", "10.1.2.3", PROTO_TCP, ttl=57,
                           ip_len=700, df=True, src_port=34567, dst_port=80,
                           tcp_flags=pcapio.TCP_ACK, tcp_window=8192)
    assert parse_ipv4(ip) == PacketRecord(ts_us=0, src_ip="192.168.1.5",
                                          dst_ip="10.1.2.3", src_port=34567,
                                          dst_port=80, proto=PROTO_TCP, ttl=57,
                                          ip_len=700)
    # a pure SYN carries its stack signature: window, TTL, DF and options
    syn = build_ipv4_packet("192.168.1.5", "10.1.2.3", PROTO_TCP, ttl=57,
                            ip_len=700, df=False, src_port=34567, dst_port=80,
                            tcp_flags=pcapio.TCP_SYN, tcp_window=8192,
                            tcp_options=build_tcp_options(("MSS", "NOP", "WS"), 1460))
    assert parse_ipv4(syn).syn_sig == SynSignature(
        window_size=8192, observed_ttl=57, df_flag=False, mss=1460,
        options_layout=("MSS", "NOP", "WS"))


def test_packets_compare_signatures_not_indices():
    a = SynSignature(window_size=8192, observed_ttl=60, df_flag=False, mss=1460,
                     options_layout=("MSS",))
    b = SynSignature(window_size=5840, observed_ttl=60, df_flag=True, mss=1460,
                     options_layout=("MSS", "NOP", "WS"))
    packets = from_records([
        PacketRecord(i, "10.0.0.1", "10.0.0.2", 1000 + i, 80, PROTO_TCP, 60, 40,
                     syn_sig=sig) for i, sig in enumerate([a, None, b, a])])
    assert packets.sigs == (a, b) and packets.sig.tolist() == [0, -1, 1, 0]
    # the same rows over the table in the other order
    assert same_packets(replace(packets, sig=np.array([1, -1, 0, 1], dtype=np.int32),
                                sigs=(b, a)), packets)
    # one SYN row's signature changed, or its SYN dropped
    assert not same_packets(replace(packets, sig=np.array([0, -1, 0, 0], dtype=np.int32)),
                            packets)
    assert not same_packets(replace(packets, sig=np.array([0, -1, -1, 0], dtype=np.int32)),
                            packets)


def test_parse_ipv4_rejects_malformed():
    assert parse_ipv4(b"") is None
    assert parse_ipv4(b"\x45" + b"\x00" * 10) is None          # too short
    assert parse_ipv4(b"\x65" + b"\x00" * 39) is None          # version 6
    bad_len = bytearray(build_ipv4_packet("1.1.1.1", "2.2.2.2", PROTO_TCP,
                                          ttl=64, ip_len=40, src_port=1, dst_port=2))
    bad_len[2:4] = (0).to_bytes(2, "big")                      # ip_len < 20
    assert parse_ipv4(bytes(bad_len)) is None


def test_non_first_fragment_has_no_ports():
    frag = build_ipv4_packet("1.1.1.1", "2.2.2.2", PROTO_TCP, ttl=64,
                             ip_len=700, frag_offset=64)
    p = parse_ipv4(frag)
    assert p.is_fragment and p.src_port == 0 and p.dst_port == 0


def test_snaplen_truncation_preserves_headers(tmp_path):
    path = tmp_path / "snap.pcap"
    with PcapWriter(path, linktype=LINKTYPE_RAW_IP, snaplen=96) as w:
        pkt = build_ipv4_packet("10.0.0.1", "10.9.9.9", PROTO_TCP, ttl=50,
                                ip_len=1400, src_port=5, dst_port=80)
        w.write(0, pkt, orig_len=1400)
    with PcapReader(path) as r:
        frame = next(iter(r))
    assert len(frame.data) == 96
    p = parse_ipv4(frame.data)
    assert p.ip_len == 1400 and p.dst_port == 80   # header says full length
