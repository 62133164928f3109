"""Per-time-block flow aggregation and greedy-flow selection.

A trace is cut into fixed-length blocks and packets sharing an identical
5-tuple within one block form a flow. The same 5-tuple in another block is
an independent flow. Packet times are integer microseconds, so a block
index is an integer division and boundary packets land deterministically
(float division would misplace e.g. 0.3/0.1).
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
# sort as its dotted quad does.
_OCTET_RANK = np.argsort(np.argsort([str(i) for i in range(256)])).astype(np.uint32)


def _string_order(addrs: np.ndarray) -> np.ndarray:
    """A uint32 per address whose numeric order is the dotted quads' string order."""
    return (_OCTET_RANK[addrs >> 24] << 24 | _OCTET_RANK[addrs >> 16 & 0xFF] << 16
            | _OCTET_RANK[addrs >> 8 & 0xFF] << 8 | _OCTET_RANK[addrs & 0xFF])


def aggregate(packets: Packets, params: AnalysisParams) -> Flows:
    """Group packets into per-(block, 5-tuple) flow records.

    Flows with fewer than min_packets packets are dropped here; they still
    count toward throughput, which is computed from the raw packet stream.
    Non-first fragments carry no 5-tuple and are likewise excluded.
    Blocks are half-open, [i*tau, (i+1)*tau): a boundary packet joins the
    later one. Records come in the order of Flows' rows.
    """
    keyed = ~packets.is_fragment
    block = packets.ts_us[keyed] // params.tau_us
    src, dst = packets.src[keyed], packets.dst[keyed]
    # addresses compare as dotted-quad strings ("10.0.0.10" < "10.0.0.2")
    pair = _string_order(src).astype(np.uint64) << 32 | _string_order(dst)
    # sport 16 | dport 16 | proto 8 | ttl 8 bits: the rest of the key, then the TTL
    low = (packets.src_port[keyed].astype(np.int64) << 32
           | packets.dst_port[keyed].astype(np.int64) << 16
           | packets.proto[keyed].astype(np.int64) << 8 | packets.ttl[keyed])
    order = np.lexsort((low, pair, block))
    block, pair, low = block[order], pair[order], low[order]
    ip_len = packets.ip_len[keyed][order]

    key_change = ((block[1:] != block[:-1]) | (pair[1:] != pair[:-1])
                  | (low[1:] >> 8 != low[:-1] >> 8))
    new_flow = np.ones(len(order), dtype=bool)      # also right for no rows
    new_flow[1:] = key_change
    new_ttl = new_flow.copy()
    new_ttl[1:] |= low[1:] != low[:-1]
    starts = np.flatnonzero(new_flow)
    n_packets = np.diff(np.append(starts, len(order)))
    n_bytes = np.add.reduceat(ip_len.astype(np.int64), starts)
    ttl_starts = np.flatnonzero(new_ttl)
    rep_ttl = modal_ttl(np.diff(np.append(ttl_starts, len(order))),
                        low[ttl_starts] & 0xFF, np.flatnonzero(new_flow[ttl_starts]))

    admitted = n_packets >= params.min_packets
    first = starts[admitted]
    key_low, rows = low[first] >> 8, order[first]
    n_packets = n_packets[admitted]
    return Flows(block=block[first], src=src[rows], dst=dst[rows],
                 src_port=(key_low >> 24).astype(np.uint16),
                 dst_port=(key_low >> 8 & 0xFFFF).astype(np.uint16),
                 proto=(key_low & 0xFF).astype(np.uint8),
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
