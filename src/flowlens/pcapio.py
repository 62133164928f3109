"""Minimal classic-pcap reader/writer and IPv4 packet parsing/crafting.

Supported on the read side:
  * a frame-at-a-time iterator (PcapReader.__iter__ -> ipv4_payload ->
    parse_ipv4), and a columnar one (PcapReader.packet_chunks) that
    memory-maps the file (or reads a pipe whole) and decodes every frame's
    headers at once into Packets columns; the two give the same packets
  * classic pcap global header, magic 0xa1b2c3d4 (microseconds) or
    0xa1b23c4d (nanoseconds), in either byte order
  * link types: Ethernet (1, optionally one 802.1Q tag) and raw IPv4 (101)
  * truncated captures (caplen < wire length); a cut-off final record ends
    the stream with a warning instead of an error
  * a record claiming more than MAX_CAPLEN captured bytes is refused with
    PcapFormatError before anything is read for it

pcapng files (magic 0x0a0d0d0a) are rejected with a pointed error since the
format is block-based and not trivially convertible in-process.
"""

from __future__ import annotations

import array
import itertools
import logging
import mmap
import socket
import struct
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

log = logging.getLogger(__name__)

MAGIC_US = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D
PCAPNG_MAGIC = 0x0A0D0D0A
MAX_CAPLEN = 262144     # libpcap's MAXIMUM_SNAPLEN
CHUNK_ROWS = 1 << 14    # records decoded per packet_chunks step

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

IP_FLAG_DF = 0x4000
IP_FLAG_MF = 0x2000

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


class PcapFormatError(Exception):
    """File is not a readable classic pcap capture."""


@dataclass(frozen=True)
class RawFrame:
    ts_us: int      # absolute capture timestamp in integer microseconds
    data: bytes     # captured link-layer bytes


@dataclass(frozen=True)
class SynSignature:
    """Stack-identifying fields of a TCP SYN (SYN set, ACK clear)."""

    window_size: int
    observed_ttl: int
    df_flag: bool
    mss: Optional[int]
    options_layout: Tuple[str, ...]
    truncated_options: bool = False   # layout cut short at a malformed option


@dataclass(slots=True)
class PacketRecord:
    """One captured IPv4 packet, the only per-packet object of a run.

    parse_ipv4 leaves ts_us at 0; ingest.read_trace stamps it with the
    frame's capture time and then re-bases it to the trace's earliest
    valid IPv4 packet.
    """

    ts_us: int              # integer microseconds
    src_ip: str
    dst_ip: str
    src_port: int           # 0 when the protocol has no ports
    dst_port: int
    proto: int              # raw IP protocol number (6/17/1/...)
    ttl: int
    ip_len: int             # total IP datagram length from the header
    is_fragment: bool = False     # non-first fragment: excluded from flow keying
    syn_sig: Optional[SynSignature] = None

    def __post_init__(self):
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"ttl {self.ttl} out of range")
        if self.ip_len < 20:
            raise ValueError(f"ip_len {self.ip_len} below IPv4 minimum")


def ipv4_str(value: int) -> str:
    """32-bit value to its dotted quad, as socket.inet_ntoa writes it."""
    return socket.inet_ntoa(int(value).to_bytes(4, "big"))


def ipv4_strs(values: np.ndarray) -> Tuple[str, ...]:
    """Dotted quads of an array of 32-bit values, as ipv4_str writes them."""
    octets = (((values >> shift) & 0xFF).tolist() for shift in (24, 16, 8, 0))
    return tuple(map("%d.%d.%d.%d".__mod__, zip(*octets)))


def ipv4_int(text: str) -> int:
    """Dotted quad to its 32-bit value, the inverse of ipv4_str."""
    return int.from_bytes(socket.inet_aton(text), "big")


@dataclass(eq=False)
class Packets:
    """A trace as columns: one row per IPv4 packet, one array per field.

    The columns are PacketRecord's fields with narrow dtypes, addresses as
    their 32-bit values. A pure SYN's signature is the column `sig`, an
    index into `sigs`, the table of the signatures its rows hold; `sig` is
    -1 on every other row. Tables built by read_trace and from_records list
    each signature once.
    """

    ts_us: np.ndarray           # int64 microseconds
    src: np.ndarray             # uint32
    dst: np.ndarray             # uint32
    src_port: np.ndarray        # uint16, 0 when the protocol has no ports
    dst_port: np.ndarray        # uint16
    proto: np.ndarray           # uint8
    ttl: np.ndarray             # uint8
    ip_len: np.ndarray          # uint16
    is_fragment: np.ndarray     # bool: non-first fragment, excluded from flow keying
    sig: np.ndarray             # int32 index into sigs, -1 unless a pure SYN
    sigs: Tuple[SynSignature, ...]

    def __len__(self) -> int:
        return len(self.ts_us)

    def __eq__(self, other) -> bool:
        """Equal rows, comparing each SYN's signature rather than its index."""
        if not isinstance(other, Packets):
            return NotImplemented
        return (all(a.dtype == b.dtype and np.array_equal(a, b)
                    for a, b in zip(self.columns(), other.columns()) if a is not self.sig)
                and self._row_sigs() == other._row_sigs())

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The per-row arrays, in COLUMNS order."""
        return tuple(getattr(self, name) for name, _ in COLUMNS)

    def _row_sigs(self) -> list:
        """Each row's SynSignature, None where the row is not a pure SYN."""
        return [None if i < 0 else self.sigs[i] for i in self.sig.tolist()]

    def take(self, mask: np.ndarray) -> "Packets":
        """The rows where `mask` is true, in order."""
        return Packets(*(col[mask] for col in self.columns()), sigs=self.sigs)

    @classmethod
    def from_records(cls, records: Sequence[PacketRecord]) -> "Packets":
        """Columns of PacketRecords, in list order; sigs in order of first use."""
        index = {None: -1}      # SynSignature -> its index in sigs; no SYN -> -1
        values = [[r.ts_us for r in records],
                  [ipv4_int(r.src_ip) for r in records],
                  [ipv4_int(r.dst_ip) for r in records],
                  [r.src_port for r in records], [r.dst_port for r in records],
                  [r.proto for r in records], [r.ttl for r in records],
                  [r.ip_len for r in records], [r.is_fragment for r in records],
                  [index.setdefault(r.syn_sig, len(index) - 1) for r in records]]
        return cls(*(np.array(v, dtype=dtype) for v, (_, dtype) in zip(values, COLUMNS)),
                   sigs=tuple(index)[1:])


# (name, dtype) of every per-row array of Packets, in field order.
COLUMNS = tuple((f.name, dtype) for f, dtype in zip(
    fields(Packets), (np.int64, np.uint32, np.uint32, np.uint16, np.uint16,
                      np.uint8, np.uint8, np.uint16, np.bool_, np.int32)))


class PcapReader:
    """Reads a classic pcap file: frame by frame, or as Packets columns."""

    def __init__(self, path):
        self._fh = open(path, "rb")
        header = self._fh.read(24)
        if len(header) < 24:
            self._fh.close()
            raise PcapFormatError(f"{path}: too short to be a pcap file")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == PCAPNG_MAGIC or struct.unpack(">I", header[:4])[0] == PCAPNG_MAGIC:
            self._fh.close()
            raise PcapFormatError(
                f"{path}: pcapng is not supported; convert to classic pcap first"
            )
        if magic == MAGIC_US:
            self._endian, self._ts_divisor = "<", 1
        elif magic == MAGIC_NS:
            self._endian, self._ts_divisor = "<", 1000
        else:
            magic_be = struct.unpack(">I", header[:4])[0]
            if magic_be == MAGIC_US:
                self._endian, self._ts_divisor = ">", 1
            elif magic_be == MAGIC_NS:
                self._endian, self._ts_divisor = ">", 1000
            else:
                self._fh.close()
                raise PcapFormatError(f"{path}: unrecognized magic 0x{magic:08x}")
        _, _, _, _, _, network = struct.unpack(self._endian + "HHiIII", header[4:])
        self.linktype = network
        self._rec_hdr = struct.Struct(self._endian + "IIII")
        self._caplen = struct.Struct(self._endian + "I")
        self._header = header
        self._path = path

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._fh.close()

    def __iter__(self) -> Iterator[RawFrame]:
        read = self._fh.read
        unpack = self._rec_hdr.unpack
        for index in itertools.count():
            hdr = read(16)
            if not hdr:
                return
            if len(hdr) < 16:
                log.warning("%s: truncated record header at end of file", self._path)
                return
            ts_sec, ts_frac, caplen, _ = unpack(hdr)
            if caplen > MAX_CAPLEN:
                raise PcapFormatError(f"{self._path}: record {index} claims {caplen} "
                                      f"captured bytes (limit {MAX_CAPLEN})")
            data = read(caplen)
            if len(data) < caplen:
                log.warning("%s: truncated final record (%d of %d bytes)",
                            self._path, len(data), caplen)
                return
            yield RawFrame(ts_sec * 1_000_000 + ts_frac // self._ts_divisor, data)

    def packet_chunks(self) -> Iterator[Tuple[Packets, int, int]]:
        """The file's IPv4 packets as (chunk, frames, non_ipv4), CHUNK_ROWS records a step.

        Each chunk holds, in file order and with absolute capture times,
        the packets that parse_ipv4 accepts among its `frames` records;
        `non_ipv4` of those frames carry no IPv4, and the rest are
        malformed. The record headers are walked once over a memory map,
        and every other field is gathered from it with array indexing.
        Reads are masked to each frame's captured bytes, as the per-frame
        parser's bounds checks do. Truncation and MAX_CAPLEN are handled
        as in __iter__. A stream that cannot be mapped, such as a pipe, is
        read whole into memory and decoded the same way.
        """
        try:
            image = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError:
            image = self._header + self._fh.read()
        # The map is not closed here: it closes when the last array viewing
        # it is freed, which a propagating exception's traceback may delay.
        buf = np.frombuffer(image, dtype=np.uint8)
        memo = {}       # extract_syn_signature's arguments -> result
        pos, index = 24, 0
        while pos is not None:
            starts, pos = self._walk(image, pos, index)
            if not starts:
                return
            if self.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
                raise PcapFormatError(f"unsupported link type {self.linktype}")
            index += len(starts)
            yield self._decode(image, buf, np.frombuffer(starts, dtype=np.int64), memo)

    def _walk(self, image, pos: int, index: int) -> Tuple[array.array, Optional[int]]:
        """Header offsets of up to CHUNK_ROWS whole records from `pos`; the next pos.

        The next pos is None at the end of the file. `index` is the number
        of records before `pos`, for the MAX_CAPLEN message.
        """
        size = len(image)
        caplen_at = self._caplen.unpack_from
        starts = array.array("q")
        append = starts.append
        for index in range(index, index + CHUNK_ROWS):
            if pos + 16 > size:
                if pos < size:
                    log.warning("%s: truncated record header at end of file", self._path)
                return starts, None
            caplen, = caplen_at(image, pos + 8)
            end = pos + 16 + caplen
            if caplen > MAX_CAPLEN:
                raise PcapFormatError(f"{self._path}: record {index} claims {caplen} "
                                      f"captured bytes (limit {MAX_CAPLEN})")
            if end > size:
                log.warning("%s: truncated final record (%d of %d bytes)",
                            self._path, size - pos - 16, caplen)
                return starts, None
            append(pos)
            pos = end
        return starts, pos

    def _decode(self, image, buf: np.ndarray, starts: np.ndarray,
                memo: dict) -> Tuple[Packets, int, int]:
        """One packet_chunks step over the records whose headers are at `starts`."""
        n = len(starts)
        hdr = _bytes_at(buf, starts, 12).view(self._endian + "u4")
        ts_us = hdr[:, 0].astype(np.int64) * 1_000_000 + hdr[:, 1] // self._ts_divisor
        caplen = hdr[:, 2].astype(np.int64)
        data = starts + 16

        # link layer: rows carrying IPv4 and their link header length
        if self.linktype == LINKTYPE_ETHERNET:      # else raw IPv4
            rows = np.flatnonzero(caplen >= 14)
            ethertype = _be16(buf, data[rows] + 12)
            vlan = (ethertype == ETHERTYPE_VLAN) & (caplen[rows] >= 18)
            ethertype[vlan] = _be16(buf, data[rows[vlan]] + 16)
            ipv4 = ethertype == ETHERTYPE_IPV4
            rows, link_len = rows[ipv4], np.where(vlan[ipv4], 18, 14)
        else:
            rows = np.flatnonzero(caplen >= 1)
            rows, link_len = rows[buf[data[rows]] >> 4 == 4], 0
        non_ipv4 = n - len(rows)

        # IPv4 header: parse_ipv4's checks, then the fixed 20 bytes
        ip, avail = data[rows] + link_len, caplen[rows] - link_len
        ok = avail >= 20
        rows, ip, avail = rows[ok], ip[ok], avail[ok]
        head = _bytes_at(buf, ip, 20)
        ihl = (head[:, 0] & 0x0F).astype(np.int64) * 4
        ip_len = head[:, 2:4].copy().view(">u2")[:, 0]
        ok = (head[:, 0] >> 4 == 4) & (ihl >= 20) & (avail >= ihl) & (ip_len >= 20)
        rows, head, ihl, ip_len = rows[ok], head[ok], ihl[ok], ip_len[ok]
        tp, avail = ip[ok] + ihl, avail[ok] - ihl      # transport start and bytes
        addrs = head[:, 12:20].copy().view(">u4")
        fragment = ((head[:, 6] & 0x1F) | head[:, 7]) != 0
        proto, ttl = head[:, 9], head[:, 8]

        # transport: ports for TCP and UDP first fragments, SYN signatures
        tcp = ~fragment & (proto == PROTO_TCP) & (avail >= 14)
        ported = np.flatnonzero(tcp | (~fragment & (proto == PROTO_UDP) & (avail >= 4)))
        ports = np.zeros((len(rows), 2), dtype=np.uint16)
        ports[ported] = _bytes_at(buf, tp[ported], 4).view(">u2")
        sig, sigs = _syn_table(image, buf, np.flatnonzero(tcp), tp, avail, ttl,
                               head[:, 6] & 0x40 != 0, memo)

        chunk = Packets(ts_us[rows], addrs[:, 0].astype(np.uint32),
                        addrs[:, 1].astype(np.uint32), ports[:, 0].copy(),
                        ports[:, 1].copy(), proto.copy(), ttl.copy(),
                        ip_len.astype(np.uint16), fragment, sig, sigs)
        return chunk, n, non_ipv4


def _syn_table(image, buf, tcp, tp, avail, ttl, df, memo):
    """The chunk's sig column and its table, for the pure SYNs among the TCP rows `tcp`.

    Python runs once per pure SYN. The table holds one entry per distinct
    tuple of extract_syn_signature's arguments, and `memo` maps such a
    tuple to its result across chunks, since most SYNs repeat a few stacks.
    """
    flags = buf[tp[tcp] + 13]
    pure = (flags & TCP_SYN != 0) & (flags & TCP_ACK == 0)
    syn, flags = tcp[pure], flags[pure]
    t, n = tp[syn], avail[syn]
    window = np.zeros(len(syn), dtype=np.int64)
    window[n >= 16] = _be16(buf, t[n >= 16] + 14)
    data_offset = (buf[t + 12] >> 4).astype(np.int64) * 4
    opt_end = np.where(data_offset > 20, t + np.minimum(data_offset, n), 0)
    index = {}      # extract_syn_signature's arguments -> index in the table
    at = []
    for flag, win, hop_ttl, dont_frag, start, end in zip(
            flags.tolist(), window.tolist(), ttl[syn].tolist(), df[syn].tolist(),
            (t + 20).tolist(), opt_end.tolist()):
        key = (flag, win, hop_ttl, dont_frag, image[start:end])   # b"" if end <= start
        at.append(index.setdefault(key, len(index)))
    for key in index.keys() - memo.keys():
        memo[key] = extract_syn_signature(*key)
    sig = np.full(len(ttl), -1, dtype=np.int32)
    sig[syn] = at
    return sig, tuple(memo[key] for key in index)


def _bytes_at(buf: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes at each offset in `pos`, one row per offset."""
    return sliding_window_view(buf, width)[pos]


def _be16(buf: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Big-endian 16-bit values at byte offsets `pos` of `buf`, as int64."""
    return (buf[pos].astype(np.int64) << 8) | buf[pos + 1]


def ipv4_payload(frame: bytes, linktype: int) -> Optional[bytes]:
    """Strip the link layer; None when the frame does not carry IPv4."""
    if linktype == LINKTYPE_RAW_IP:
        if frame and (frame[0] >> 4) == 4:
            return frame
        return None
    if linktype == LINKTYPE_ETHERNET:
        if len(frame) < 14:
            return None
        ethertype = (frame[12] << 8) | frame[13]
        offset = 14
        if ethertype == ETHERTYPE_VLAN and len(frame) >= 18:
            ethertype = (frame[16] << 8) | frame[17]
            offset = 18
        if ethertype != ETHERTYPE_IPV4:
            return None
        return frame[offset:]
    raise PcapFormatError(f"unsupported link type {linktype}")


def parse_ipv4(buf: bytes) -> Optional[PacketRecord]:
    """Parse one IPv4 datagram (possibly truncated by the snap length).

    Returns None for malformed or non-IPv4 data. A non-first fragment gets
    ports 0 and is_fragment=True; its transport payload is opaque. The
    record's ts_us is left at 0 for the caller to set.
    """
    if len(buf) < 20:
        return None
    ver_ihl = buf[0]
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(buf) < ihl:
        return None
    ip_len = (buf[2] << 8) | buf[3]
    if ip_len < 20:
        return None
    flags_frag = (buf[6] << 8) | buf[7]
    ttl = buf[8]
    proto = buf[9]
    src_ip = socket.inet_ntoa(buf[12:16])
    dst_ip = socket.inet_ntoa(buf[16:20])

    if flags_frag & 0x1FFF:
        return PacketRecord(0, src_ip, dst_ip, 0, 0, proto, ttl, ip_len, True)

    sport = dport = 0
    sig = None
    n = len(buf) - ihl      # transport bytes captured
    if proto == PROTO_TCP and n >= 14:
        sport = (buf[ihl] << 8) | buf[ihl + 1]
        dport = (buf[ihl + 2] << 8) | buf[ihl + 3]
        window = (buf[ihl + 14] << 8) | buf[ihl + 15] if n >= 16 else 0
        data_offset = (buf[ihl + 12] >> 4) * 4
        # options may be cut short in snapped captures
        options = buf[ihl + 20:ihl + data_offset] if data_offset > 20 else None
        sig = extract_syn_signature(buf[ihl + 13], window, ttl,
                                    bool(flags_frag & IP_FLAG_DF), options)
    elif proto == PROTO_UDP and n >= 4:
        sport = (buf[ihl] << 8) | buf[ihl + 1]
        dport = (buf[ihl + 2] << 8) | buf[ihl + 3]

    return PacketRecord(0, src_ip, dst_ip, sport, dport, proto, ttl, ip_len,
                        False, sig)


# Symbolic names for the option kinds that matter to fingerprinting.
_OPT_KIND = {"EOL": 0, "NOP": 1, "MSS": 2, "WS": 3, "SACK": 4, "TS": 8}
_OPT_NAMES = {kind: name for name, kind in _OPT_KIND.items()}
_OPT_FIXED_LEN = {2: 4, 3: 3, 4: 2, 8: 10}


def parse_tcp_options(buf: bytes) -> Tuple[Tuple[str, ...], Optional[int], bool]:
    """Walk TCP options; returns (layout, mss, truncated_at_malformed)."""
    layout = []
    mss = None
    i = 0
    n = len(buf)
    while i < n:
        kind = buf[i]
        if kind == 0:
            layout.append("EOL")
            break
        if kind == 1:
            layout.append("NOP")
            i += 1
            continue
        if i + 1 >= n:
            return tuple(layout), mss, True
        length = buf[i + 1]
        fixed = _OPT_FIXED_LEN.get(kind)
        if length < 2 or i + length > n or (fixed is not None and length != fixed):
            return tuple(layout), mss, True
        if kind == 2:
            mss = (buf[i + 2] << 8) | buf[i + 3]
        layout.append(_OPT_NAMES.get(kind, str(kind)))
        i += length
    return tuple(layout), mss, False


def extract_syn_signature(tcp_flags: int, window_size: int, ttl: int,
                          df_flag: bool, options: Optional[bytes]) -> Optional[SynSignature]:
    """Signature for a pure SYN; None when SYN is absent or ACK present."""
    if not (tcp_flags & TCP_SYN) or (tcp_flags & TCP_ACK):
        return None
    layout, mss, truncated = parse_tcp_options(options or b"")
    return SynSignature(window_size=window_size, observed_ttl=ttl, df_flag=df_flag,
                        mss=mss, options_layout=layout, truncated_options=truncated)


class PcapWriter:
    """Writes a classic pcap file (microsecond timestamps)."""

    def __init__(self, path, linktype: int = LINKTYPE_ETHERNET,
                 snaplen: int = 65535, endian: str = "<"):
        if endian not in ("<", ">"):
            raise ValueError("endian must be '<' or '>'")
        self.linktype = linktype
        self.snaplen = snaplen
        self._endian = endian
        self._rec_hdr = struct.Struct(endian + "IIII")
        self._fh = open(path, "wb")
        self._fh.write(struct.pack(endian + "IHHiIII",
                                   MAGIC_US, 2, 4, 0, 0, snaplen, linktype))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._fh.close()

    def write(self, ts_us: int, packet: bytes, orig_len: Optional[int] = None):
        """Write one frame; bytes beyond the snap length are dropped."""
        if orig_len is None:
            orig_len = len(packet)
        data = packet[: self.snaplen]
        self._fh.write(self._rec_hdr.pack(ts_us // 1_000_000, ts_us % 1_000_000,
                                          len(data), orig_len))
        self._fh.write(data)


def _checksum16(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum((data[i] << 8) | data[i + 1] for i in range(0, len(data), 2))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def build_tcp_options(layout, mss: Optional[int]) -> bytes:
    """Encode a SYN option layout given as symbolic kind names."""
    out = bytearray()
    for name in layout:
        kind = _OPT_KIND.get(name)
        if kind is None:
            raise ValueError(f"unknown TCP option token {name!r}")
        if kind == 0:
            out.append(0)
        elif kind == 1:
            out.append(1)
        elif kind == 2:
            if mss is None:
                raise ValueError("layout names MSS but no mss value given")
            out += struct.pack("!BBH", 2, 4, mss)
        elif kind == 3:
            out += struct.pack("!BBB", 3, 3, 0)
        elif kind == 4:
            out += struct.pack("!BB", 4, 2)
        elif kind == 8:
            out += struct.pack("!BBII", 8, 10, 0, 0)
    while len(out) % 4:
        out.append(1)  # pad with NOP to a 4-byte boundary
    return bytes(out)


def build_ipv4_packet(src_ip: str, dst_ip: str, proto: int, ttl: int,
                      ip_len: int, df: bool = True,
                      src_port: int = 0, dst_port: int = 0,
                      tcp_flags: int = TCP_ACK, tcp_window: int = 0,
                      tcp_options: bytes = b"",
                      frag_offset: int = 0,
                      max_bytes: Optional[int] = None) -> bytes:
    """Craft an IPv4 datagram with the right headers and zero-filled payload.

    ip_len is what goes in the total-length field; the returned buffer is
    min(ip_len, max_bytes) bytes, so captures can be pre-snapped at build
    time instead of storing payload padding.
    """
    if proto == PROTO_TCP and frag_offset == 0:
        header_need = 20 + 20 + len(tcp_options)
    elif proto == PROTO_UDP and frag_offset == 0:
        header_need = 28
    elif proto == PROTO_ICMP and frag_offset == 0:
        header_need = 28
    else:
        header_need = 20
    if ip_len < header_need:
        raise ValueError(f"ip_len {ip_len} too small for headers ({header_need})")

    flags_frag = (IP_FLAG_DF if df else 0) | (frag_offset & 0x1FFF)
    if frag_offset:
        flags_frag |= IP_FLAG_MF
    ip = bytearray(struct.pack("!BBHHHBBH4s4s",
                               0x45, 0, ip_len, 0, flags_frag, ttl, proto, 0,
                               socket.inet_aton(src_ip), socket.inet_aton(dst_ip)))
    struct.pack_into("!H", ip, 10, _checksum16(bytes(ip)))

    if frag_offset:
        transport = b""
    elif proto == PROTO_TCP:
        data_offset = (20 + len(tcp_options)) // 4
        transport = struct.pack("!HHIIBBHHH", src_port, dst_port, 0, 0,
                                data_offset << 4, tcp_flags, tcp_window, 0, 0)
        transport += tcp_options
    elif proto == PROTO_UDP:
        transport = struct.pack("!HHHH", src_port, dst_port, max(8, ip_len - 20), 0)
    elif proto == PROTO_ICMP:
        transport = struct.pack("!BBHHH", 8, 0, 0, 0, 0)
    else:
        transport = b""

    packet = bytes(ip) + transport
    fill_to = ip_len if max_bytes is None else min(ip_len, max_bytes)
    if len(packet) < fill_to:
        packet += bytes(fill_to - len(packet))
    return packet[:fill_to] if max_bytes is not None else packet


_ETH_HEADER = bytes.fromhex("020000000002") + bytes.fromhex("020000000001") + b"\x08\x00"


def wrap_ethernet(ip_packet: bytes) -> bytes:
    return _ETH_HEADER + ip_packet
