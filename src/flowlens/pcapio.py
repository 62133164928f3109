"""Minimal classic-pcap reader/writer and IPv4 packet parsing/crafting.

Supported on the read side:
  * the columnar reader (PcapReader.packet_chunks) that analyze uses: it
    reads a file or a pipe in fixed-size windows and decodes each window's
    frame headers at once into Packets columns
  * a frame-at-a-time path (PcapReader.__iter__ -> ipv4_payload ->
    parse_ipv4), kept only for the benchmark's pcapio passes and as the
    oracle the tests compare the columnar reader against; the two give the
    same packets
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
import socket
import struct
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

log = logging.getLogger(__name__)

MAGIC_US = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D
PCAPNG_MAGIC = 0x0A0D0D0A
MAX_CAPLEN = 262144     # libpcap's MAXIMUM_SNAPLEN
WINDOW_BYTES = 1 << 20  # stream bytes read per packet_chunks step

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
    """One IPv4 packet as parse_ipv4 gives it, frame by frame.

    parse_ipv4 leaves ts_us at 0 for the caller to set.
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


def ipv4_strs(values: np.ndarray) -> Tuple[str, ...]:
    """Dotted quads of an array of 32-bit values, as socket.inet_ntoa writes them."""
    octets = (((values >> shift) & 0xFF).tolist() for shift in (24, 16, 8, 0))
    return tuple(map("%d.%d.%d.%d".__mod__, zip(*octets)))


@dataclass(eq=False)
class Packets:
    """A trace as columns: one row per IPv4 packet, one array per field.

    The columns are PacketRecord's fields with narrow dtypes, addresses as
    their 32-bit values. Rows may come in any order (read_trace keeps the
    file's): no stage's result depends on it. A pure SYN's signature is
    the column `sig`, an index into `sigs`, the table of the signatures
    its rows hold; `sig` is -1 on every other row. read_trace's table
    lists each signature once.
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

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The per-row arrays, in COLUMNS order."""
        return tuple(getattr(self, name) for name, _ in COLUMNS)

    def take(self, mask: np.ndarray) -> "Packets":
        """The rows where `mask` is true, in order."""
        return Packets(*(col[mask] for col in self.columns()), sigs=self.sigs)


# (name, dtype) of every per-row array of Packets, in field order.
COLUMNS = tuple((f.name, dtype) for f, dtype in zip(
    fields(Packets), (np.int64, np.uint32, np.uint32, np.uint16, np.uint16,
                      np.uint8, np.uint8, np.uint16, np.bool_, np.int32)))


# The magic's bytes as they lie in the file -> (byte order, divisor of the
# timestamp fraction to microseconds).
_MAGICS = {MAGIC_US.to_bytes(4, "little"): ("<", 1), MAGIC_US.to_bytes(4, "big"): (">", 1),
           MAGIC_NS.to_bytes(4, "little"): ("<", 1000), MAGIC_NS.to_bytes(4, "big"): (">", 1000)}


class PcapReader:
    """Reads a classic pcap file: frame by frame, or as Packets columns."""

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            header = self._fh.read(24)
            if len(header) < 24:
                raise PcapFormatError("too short to be a pcap file")
            magic = header[:4]
            # the pcapng magic's bytes read the same in either byte order
            if magic == PCAPNG_MAGIC.to_bytes(4, "little"):
                raise PcapFormatError("pcapng is not supported; convert to classic pcap first")
            if magic not in _MAGICS:
                raise PcapFormatError(
                    f"unrecognized magic 0x{int.from_bytes(magic, 'little'):08x}")
        except PcapFormatError:
            self._fh.close()
            raise
        self._endian, self._ts_divisor = _MAGICS[magic]
        self.linktype = struct.unpack_from(self._endian + "I", header, 20)[0]
        self._rec_hdr = struct.Struct(self._endian + "IIII")
        self._native = struct.pack(self._endian + "I", 1) == struct.pack("=I", 1)
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
                raise _oversized(index, caplen)
            data = read(caplen)
            if len(data) < caplen:
                log.warning("%s: truncated final record (%d of %d bytes)",
                            self._path, len(data), caplen)
                return
            yield RawFrame(ts_sec * 1_000_000 + ts_frac // self._ts_divisor, data)

    def packet_chunks(self) -> Iterator[Tuple[Packets, int, int]]:
        """The stream's IPv4 packets as (chunk, frames, non_ipv4), one read window a step.

        Files and pipes alike are read WINDOW_BYTES at a time. Each chunk
        holds, in stream order and with absolute capture times, the packets
        that parse_ipv4 accepts among the `frames` whole records of a
        window; `non_ipv4` of those frames carry no IPv4, and the rest are
        malformed. A record cut by the window's end is carried into the
        next read. Every field is gathered with array indexing, masked to
        each frame's captured bytes as the per-frame parser's bounds checks
        are. Truncation and MAX_CAPLEN are handled as in __iter__. A
        chunk's `sigs` is the trace's table so far; the last one is whole.
        """
        keys, table = {}, {}    # the trace's signature table; see _syn_table
        rest, index = b"", 0
        while True:
            more = self._fh.read(WINDOW_BYTES)
            image = rest + more
            starts, end = self._walk(image, index, final=not more)
            if len(starts):
                if self.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
                    raise PcapFormatError(f"unsupported link type {self.linktype}")
                index += len(starts)
                yield self._decode(image, starts, keys, table)
            if not more:
                return
            rest = image[end:]

    def _walk(self, image: bytes, index: int, final: bool) -> Tuple[np.ndarray, int]:
        """Header offsets of every whole record in `image`, and the offset after them.

        Each caplen is read from one of four word views of `image`, one per
        byte alignment; the walk ends where a caplen lies past the image or
        its record runs past it. MAX_CAPLEN is checked after the walk, over
        the walked records and then the cut one, so the refusal still names
        the first record that claims too much. `index` is the number of
        records before `image`, for that message. A cut header or record at
        the end is logged only when the stream has ended (`final`); otherwise
        the next read completes it.
        """
        size = len(image)
        words = self._word_views(image)
        walked = []         # a list appends faster than an array.array
        append = walked.append
        pos = 0
        try:
            while True:
                end = pos + 16 + words[pos & 3][pos + 8 >> 2]
                if end > size:
                    break
                append(pos)
                pos = end
        except IndexError:  # the caplen field is cut
            pass
        starts = np.array(walked, dtype=np.int64)
        caplen = np.diff(starts, append=pos) - 16
        over = np.flatnonzero(caplen > MAX_CAPLEN)
        if len(over):
            raise _oversized(index + int(over[0]), int(caplen[over[0]]))
        if pos + 16 <= size:
            cut = words[pos & 3][pos + 8 >> 2]
            if cut > MAX_CAPLEN:
                raise _oversized(index + len(starts), cut)
            if final:
                log.warning("%s: truncated final record (%d of %d bytes)",
                            self._path, size - pos - 16, cut)
        elif final and pos < size:
            log.warning("%s: truncated record header at end of file", self._path)
        return starts, pos

    def _word_views(self, image: bytes) -> list:
        """32-bit words of `image` in the file's byte order: view k holds those
        at byte offsets 4i + k, so the word at offset q is views[q & 3][q >> 2].
        Native-order files are read in place, others through swapped copies."""
        whole, views = memoryview(image), []
        for k in range(4):
            aligned = whole[k:k + max(0, (len(image) - k) // 4) * 4]
            if self._native:
                views.append(aligned.cast("I"))
            else:
                swapped = array.array("I")
                swapped.frombytes(aligned)
                swapped.byteswap()
                views.append(swapped)
        return views

    def _decode(self, image: bytes, starts: np.ndarray, keys: dict,
                table: dict) -> Tuple[Packets, int, int]:
        """One packet_chunks step over the records whose headers are at `starts`."""
        buf = np.frombuffer(image, dtype=np.uint8)
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
        sig, sigs = _syn_table(buf, np.flatnonzero(tcp), tp, avail, ttl,
                               head[:, 6] & 0x40 != 0, keys, table)

        chunk = Packets(ts_us[rows], addrs[:, 0].astype(np.uint32),
                        addrs[:, 1].astype(np.uint32), ports[:, 0].copy(),
                        ports[:, 1].copy(), proto.copy(), ttl.copy(),
                        ip_len.astype(np.uint16), fragment, sig, sigs)
        return chunk, n, non_ipv4


def _oversized(index: int, caplen: int) -> PcapFormatError:
    """The refusal of record `index` (counted from 0), which claims `caplen` bytes."""
    return PcapFormatError(f"record {index} claims {caplen} "
                           f"captured bytes (limit {MAX_CAPLEN})")


def _syn_table(buf, tcp, tp, avail, ttl, df, keys, table):
    """The chunk's sig column, for the pure SYNs among the TCP rows `tcp`, and the table.

    A pure SYN's key is 48 bytes: its option bytes zero-padded to 40, their
    length, the flags, window, TTL and DF bit, all that extract_syn_signature
    reads. The chunk's SYNs are grouped by key with a sort, so Python runs
    once per distinct key. The two dicts hold the trace's table across
    chunks: `keys` maps a key to its index, and `table` maps a SynSignature
    to that index, in order of first appearance; extract_syn_signature runs
    once per new key.
    """
    flags = buf[tp[tcp] + 13]
    pure = (flags & TCP_SYN != 0) & (flags & TCP_ACK == 0)
    syn, flags = tcp[pure], flags[pure]
    sig = np.full(len(ttl), -1, dtype=np.int32)
    if not len(syn):    # a window may then be shorter than the 40 bytes read below
        return sig, tuple(table)
    t, n = tp[syn], avail[syn]
    window = np.zeros(len(syn), dtype=np.int64)
    window[n >= 16] = _be16(buf, t[n >= 16] + 14)
    # the options are the bytes from t + 20 to t + data_offset that were captured.
    # 40 bytes are read from each SYN's (clamped) option offset, and where they
    # would run past the window, from a zero-padded copy of its last 40 bytes.
    opt_len = np.clip(np.minimum((buf[t + 12] >> 4).astype(np.int64) * 4, n) - 20, 0, 40)
    at = np.minimum(t + 20, len(buf))
    edge = len(buf) - 40
    tail = np.concatenate((buf[edge:], np.zeros(40, dtype=np.uint8)))
    options = np.where((at > edge)[:, None], _bytes_at(tail, np.maximum(at - edge, 0), 40),
                       _bytes_at(buf, np.minimum(at, edge), 40))
    key = np.zeros((len(syn), 48), dtype=np.uint8)
    key[:, :40] = options * (np.arange(40) < opt_len[:, None])
    key[:, 40], key[:, 41], key[:, 42] = opt_len, flags, ttl[syn]
    key[:, 43], key[:, 44], key[:, 45] = df[syn], window >> 8, window & 0xFF
    words = key.view(np.uint64)
    order = np.lexsort(words.T)
    words = words[order]
    first = np.ones(len(syn), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    firsts = order[first]       # the sort is stable: each key's first row
    distinct = words[first].tobytes()
    appear = np.argsort(firsts)
    found = []
    for g in appear.tolist():
        k = distinct[48 * g:48 * g + 48]
        i = keys.get(k)
        if i is None:
            i = keys[k] = table.setdefault(extract_syn_signature(
                k[41], k[44] << 8 | k[45], k[42], bool(k[43]), k[:k[40]]), len(table))
        found.append(i)
    index = np.empty(len(firsts), dtype=np.int32)
    index[appear] = found
    sig[syn[order]] = index[np.cumsum(first) - 1]
    return sig, tuple(table)


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
# Every layout token parse_tcp_options can emit: a kind's name, or the
# decimal of a kind without one.
OPTION_TOKENS = frozenset(_OPT_NAMES.get(kind, str(kind)) for kind in range(256))


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
