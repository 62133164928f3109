"""Port-based application breakdown of per-block flows."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet

import numpy as np

from .flows import FlowKey, Flows
from .pcapio import PROTO_TCP, PROTO_UDP

DEFAULT_HTTP_PORTS: FrozenSet[int] = frozenset({80})


class AppCategory(enum.Enum):
    HTTP = "http"
    OTHER_TCP = "other_tcp"
    UDP = "udp"
    OTHER = "other"


def classify(key: FlowKey, http_ports: FrozenSet[int] = DEFAULT_HTTP_PORTS) -> AppCategory:
    """Total, deterministic port/protocol classification of one flow key.

    Flows are unidirectional, so the server port can sit on either side.
    """
    if key.proto == PROTO_TCP:
        if key.src_port in http_ports or key.dst_port in http_ports:
            return AppCategory.HTTP
        return AppCategory.OTHER_TCP
    if key.proto == PROTO_UDP:
        return AppCategory.UDP
    return AppCategory.OTHER


@dataclass(frozen=True)
class AppBreakdown:
    proportions: Dict[AppCategory, float]   # sums to 1, every category present


def breakdown(flows: Flows, greedy_only: bool = False,
              http_ports: FrozenSet[int] = DEFAULT_HTTP_PORTS) -> AppBreakdown:
    """Share of each of classify's categories among the flow rows."""
    tcp = flows.proto == PROTO_TCP
    ports = sorted(http_ports)
    http = tcp & (np.isin(flows.src_port, ports) | np.isin(flows.dst_port, ports))
    # position in AppCategory: HTTP, OTHER_TCP, UDP, OTHER
    category = np.where(tcp, np.where(http, 0, 1), np.where(flows.proto == PROTO_UDP, 2, 3))
    if greedy_only:
        category = category[flows.is_greedy]
    n = len(category)
    if n == 0:
        raise ValueError("no flows to classify")
    counts = np.bincount(category, minlength=len(AppCategory)).tolist()
    return AppBreakdown(proportions={cat: c / n for cat, c in zip(AppCategory, counts)})
