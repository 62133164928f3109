"""Port-based application breakdown of per-block flows."""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Optional

import numpy as np

from .flows import Flows
from .pcapio import PROTO_TCP, PROTO_UDP

DEFAULT_HTTP_PORTS: FrozenSet[int] = frozenset({80})


class AppCategory(enum.Enum):
    HTTP = "http"
    OTHER_TCP = "other_tcp"
    UDP = "udp"
    OTHER = "other"


CATEGORIES = tuple(AppCategory)     # the category at each position categories() gives


def categories(proto: np.ndarray, src_port: np.ndarray, dst_port: np.ndarray,
               http_ports: FrozenSet[int]) -> np.ndarray:
    """Each flow's position in CATEGORIES, by protocol and port.

    TCP with an HTTP port on either side is HTTP (flows are unidirectional,
    so the server port can sit on either side), other TCP is OTHER_TCP,
    UDP is UDP and every other protocol OTHER.
    """
    tcp = proto == PROTO_TCP
    ports = sorted(http_ports)
    http = tcp & (np.isin(src_port, ports) | np.isin(dst_port, ports))
    return np.where(tcp, np.where(http, 0, 1), np.where(proto == PROTO_UDP, 2, 3))


def breakdown(flows: Flows, greedy_only: bool = False,
              http_ports: FrozenSet[int] = DEFAULT_HTTP_PORTS
              ) -> Optional[Dict[AppCategory, float]]:
    """Share of each category among the flow rows: every category present,
    the shares summing to 1. None when there are no rows to classify."""
    category = categories(flows.proto, flows.src_port, flows.dst_port, http_ports)
    if greedy_only:
        category = category[flows.is_greedy]
    n = len(category)
    if n == 0:
        return None
    counts = np.bincount(category, minlength=len(CATEGORIES)).tolist()
    return {cat: c / n for cat, c in zip(CATEGORIES, counts)}
