"""Per-time-block flow aggregation and greedy-flow selection.

A trace is cut into fixed-length blocks and packets sharing an identical
5-tuple within one block form a flow. The same 5-tuple in another block is
an independent flow. Packet times are integer microseconds, so a block
index is an integer division and boundary packets land deterministically
(float division would misplace e.g. 0.3/0.1). The records are found with one
stable sort of the packets by block, 5-tuple and TTL, taken as 16-bit digits
so that each is one radix pass.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .pcapio import Packets

if TYPE_CHECKING:
    from .report import AnalysisParams


@dataclass(eq=False)
class Flows:
    """Per-(block, 5-tuple) flow records as columns, one row per record.

    Rows come in (block, src_ip, dst_ip, src_port, dst_port, proto) order,
    addresses compared as their dotted-quad strings. The address columns
    hold 32-bit values.
    """

    block: np.ndarray           # int64 block index
    src: np.ndarray             # uint32
    dst: np.ndarray             # uint32
    src_port: np.ndarray        # uint16
    dst_port: np.ndarray        # uint16
    proto: np.ndarray           # uint8
    n_packets: np.ndarray       # int64
    n_bytes: np.ndarray         # int64
    rep_ttl: np.ndarray         # uint8: modal observed TTL, ties toward the larger value
    is_greedy: np.ndarray       # bool

    def __len__(self) -> int:
        return len(self.block)


# Rank of each octet's decimal string among those of 0..255. Comparing two
# dotted quads as strings compares their octet strings in turn ("1." < "10."
# because "." < "0"), so an address's four ranks, packed like its octets,
# sort as its dotted quad does. _HALF_RANK packs them two at a time: the
# string-order digit of each 16-bit half of an address.
_OCTET_RANK = np.argsort(np.argsort([str(i) for i in range(256)]))
_HALF_RANK = (_OCTET_RANK[:, None] << 8 | _OCTET_RANK).ravel().astype(np.uint16)


def _digits(values: np.ndarray) -> list:
    """uint16 digits of non-negative int64 `values`, least significant first, as
    many as the largest needs and at least one: as np.lexsort keys they sort
    as the values do."""
    count = max(1, -(-int(values.max(initial=0)).bit_length() // 16))
    return [(values >> 16 * k).astype(np.uint16) for k in range(count)]


def aggregate(packets: Packets, params: AnalysisParams) -> Flows:
    """Group packets into per-(block, 5-tuple) flow records.

    Flows with fewer than min_packets packets are dropped here; they still
    count toward throughput, which is computed from the raw packet stream.
    Non-first fragments carry no 5-tuple and are likewise excluded.
    Blocks are half-open, [i*tau, (i+1)*tau): a boundary packet joins the
    later one. Records come in the order of Flows' rows. Packet times are
    non-negative, as read_trace re-bases them.

    The packets are sorted once by the flow key and then the TTL, as 16-bit
    digits, each a stable radix pass: from the least significant,
    proto << 8 | ttl, the ports, the destination and then the source
    address as two string-order halves each (_HALF_RANK), and the block's
    digits. A record is a run of equal key digits, and its modal TTL comes
    from the runs of equal TTLs within it.
    """
    keyed = ~packets.is_fragment
    block = packets.ts_us[keyed] // params.tau_us
    src, dst = packets.src[keyed], packets.dst[keyed]
    src_port, dst_port, proto = (packets.src_port[keyed], packets.dst_port[keyed],
                                 packets.proto[keyed])
    proto_ttl = proto.astype(np.uint16) << 8 | packets.ttl[keyed]
    rank = _HALF_RANK.take     # take gathers faster than indexing
    # addresses compare as dotted-quad strings ("10.0.0.10" < "10.0.0.2")
    key = [dst_port, src_port, rank(dst & 0xFFFF), rank(dst >> 16),
           rank(src & 0xFFFF), rank(src >> 16), *_digits(block)]
    order = np.lexsort((proto_ttl, *key))
    proto_ttl = proto_ttl.take(order)
    ip_len = packets.ip_len[keyed].take(order)

    new_flow = np.ones(len(order), dtype=bool)      # also right for no rows
    new_flow[1:] = proto_ttl[1:] >> 8 != proto_ttl[:-1] >> 8
    for digit in key:
        digit = digit.take(order)
        new_flow[1:] |= digit[1:] != digit[:-1]
    new_ttl = new_flow.copy()
    new_ttl[1:] |= proto_ttl[1:] != proto_ttl[:-1]
    starts = np.flatnonzero(new_flow)
    n_packets = np.diff(np.append(starts, len(order)))
    n_bytes = np.add.reduceat(ip_len.astype(np.int64), starts)
    ttl_starts = np.flatnonzero(new_ttl)
    rep_ttl = modal_ttl(np.diff(np.append(ttl_starts, len(order))),
                        proto_ttl[ttl_starts] & 0xFF, np.flatnonzero(new_flow[ttl_starts]))

    admitted = n_packets >= params.min_packets
    rows = order[starts[admitted]]
    n_packets = n_packets[admitted]
    return Flows(block=block[rows], src=src[rows], dst=dst[rows],
                 src_port=src_port[rows], dst_port=dst_port[rows], proto=proto[rows],
                 n_packets=n_packets, n_bytes=n_bytes[admitted],
                 rep_ttl=rep_ttl[admitted].astype(np.uint8),
                 is_greedy=n_packets > params.greedy_threshold)


def modal_ttl(counts: np.ndarray, ttls: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The modal TTL of each segment, ties toward the larger TTL.

    Row i says that `ttls[i]` was seen `counts[i]` times; the segments are
    the runs of rows from each of `starts` (ascending) to the next. Of a
    segment's (count, ttl) pairs the largest wins.
    """
    return np.maximum.reduceat(counts << 8 | ttls, starts) & 0xFF


FLOWS_CSV_HEADER = ["block_index", "src_ip", "dst_ip", "src_port", "dst_port",
                    "proto", "n_packets", "n_bytes", "is_greedy", "rep_ttl"]


def _digit_cells() -> np.ndarray:
    """Three-digit groups as 4-byte cells, digits first and 0 bytes as padding:
    row i holds "%03d" % i, row 1000 + i holds "%d" % i right-aligned, row
    2000 nothing. A cell's last byte stays free for a separator."""
    i = np.arange(1000)[:, None]
    digits = i // [100, 10, 1] % 10 + ord("0")
    cells = np.zeros((2001, 4), dtype=np.uint8)
    cells[:1000, :3] = digits
    cells[1000:2000, :3] = digits * (i >= [100, 10, 0])
    return cells.view(np.uint32)[:, 0]


_CELLS = _digit_cells()


def _last_byte(char: bytes) -> np.uint32:
    """A cell holding `char` in its free last byte, to OR into a digit cell."""
    return np.frombuffer(b"\0\0\0" + char, dtype=np.uint32)[0]


def _number_cells(values: np.ndarray, end: bytes) -> list:
    """Non-negative integers as "%d" writes them and then `end`: one cell column
    per three digits of the widest value."""
    v = values.astype(np.int64)
    groups = -(-len(str(int(v.max()))) // 3) if len(v) else 1
    columns = []
    for k in range(groups - 1, -1, -1):
        q = v // 1000 ** k      # the value above its k lowest groups
        row = q % 1000 + 1000 * (q < 1000)      # leading zeros are padding
        if k:
            row[q == 0] = 2000
        columns.append(_CELLS[row])
    columns[-1] |= _last_byte(end)
    return columns


def _ipv4_cells(values: np.ndarray, end: bytes) -> list:
    """32-bit addresses as their dotted quads and then `end`: a cell column per octet."""
    return [_CELLS[1000 + (values >> shift & 0xFF)] | _last_byte(char)
            for shift, char in ((24, b"."), (16, b"."), (8, b"."), (0, end))]


def write_flows_csv(flows: Flows, path) -> None:
    """flows.csv as csv.writer writes it: no field needs quoting, lines end in CRLF.

    The body is one table with a row per line, built from the columns in
    4-byte cells of up to three digits and a separator, with 0 bytes as
    padding; deleting those bytes leaves the lines.
    """
    columns = [*_number_cells(flows.block, b","),
               *_ipv4_cells(flows.src, b","), *_ipv4_cells(flows.dst, b","),
               *_number_cells(flows.src_port, b","), *_number_cells(flows.dst_port, b","),
               *_number_cells(flows.proto, b","), *_number_cells(flows.n_packets, b","),
               *_number_cells(flows.n_bytes, b","),
               *_number_cells(flows.is_greedy.view(np.uint8), b","),
               *_number_cells(flows.rep_ttl, b"\r"),
               np.full(len(flows), _last_byte(b"\n"))]
    body = np.column_stack(columns).tobytes().translate(None, b"\0")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(FLOWS_CSV_HEADER)
        fh.flush()
        fh.buffer.write(body)
