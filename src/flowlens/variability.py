"""Traffic variability: throughput time series, skewness, and trace gating.

The rate series is built on IP total length (header-inclusive bytes), which
matches link-level rate semantics. Skewness is the population-style moment
ratio g1 = m3 / m2^(3/2) with 1/n-normalized central moments; at thousands
of intervals the difference from the bias-corrected variant is negligible,
and the simpler estimator keeps results reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .pcapio import Packets

if TYPE_CHECKING:
    from .report import AnalysisParams

log = logging.getLogger(__name__)


class DegenerateSeriesError(ValueError):
    """Skewness is undefined: zero variance or too few values."""


@dataclass(frozen=True)
class ThroughputSeries:
    interval: float                  # seconds per bin
    byte_counts: Tuple[int, ...]     # exact bytes per bin
    mean_bps: float
    skewness: Optional[float]        # None when undefined (degenerate trace)

    @property
    def values(self) -> Tuple[float, ...]:
        """Bits per second, one per bin, as Python floats."""
        return _bps(self.byte_counts, self.interval)


def _bps(byte_counts: Sequence[int], interval: float) -> Tuple[float, ...]:
    return tuple(8.0 * b / interval for b in byte_counts)


def skewness(values: Sequence[float]) -> float:
    """g1 = m3 / m2^(3/2) with 1/n-normalized central moments."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise DegenerateSeriesError(f"need at least 3 values, got {v.size}")
    d = v - v.mean()
    m2 = float(np.mean(d * d))
    if m2 == 0.0 or m2**1.5 == 0.0:   # second check: m2 so small the power underflows
        raise DegenerateSeriesError("degenerate series: zero variance")
    m3 = float(np.mean(d * d * d))
    return m3 / m2**1.5


def throughput_series(packets: Packets, params: AnalysisParams) -> ThroughputSeries:
    """Bits-per-second series over half-open bins [i*tau, (i+1)*tau).

    The bins are the flow blocks, `params.tau_us` long. Every packet counts,
    including ones whose flow falls below the flow admission threshold.
    Empty bins between packets are zero-filled.
    """
    if not len(packets):
        log.warning("empty trace: throughput series has no intervals")
        return ThroughputSeries(interval=params.tau, byte_counts=(),
                                mean_bps=0.0, skewness=None)

    # float64 sums of integers stay exact below 2**53, far above any bin's bytes
    per_bin = np.bincount(packets.ts_us // params.tau_us, weights=packets.ip_len)
    byte_counts = tuple(per_bin.astype(np.int64).tolist())
    values = _bps(byte_counts, params.tau)
    mean_bps = float(np.mean(values))
    try:
        skew: Optional[float] = skewness(values)
    except DegenerateSeriesError as exc:
        log.warning("skewness undefined for this trace: %s", exc)
        skew = None
    return ThroughputSeries(interval=params.tau, byte_counts=byte_counts,
                            mean_bps=mean_bps, skewness=skew)


def gate_trace(series: ThroughputSeries, min_skewness: float) -> bool:
    """True when the trace is kept (skewness at or above the threshold)."""
    if series.skewness is None:
        log.warning("gating trace with undefined skewness: rejected")
        return False
    return series.skewness >= min_skewness
