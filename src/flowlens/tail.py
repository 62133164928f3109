"""Heavy-tail analysis of flow sizes: complementary CDF on log-log axes.

The empirical curve has one point per distinct sample value x with
p = P(sample > x); zero-probability points are dropped before logs are
taken. The tail exponent comes from an ordinary least-squares line through
(log10 x, log10 p) over the fit region, which mirrors how such plots are
read by eye; a Hill-type MLE would be a possible extension.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


class InsufficientTailError(ValueError):
    """Fewer than the minimum number of curve points at or above x_min."""


MIN_TAIL_POINTS = 10


@dataclass(frozen=True)
class TailFit:
    alpha: float        # power-law exponent, the negated log-log slope
    x_min: int
    r_squared: float
    n_tail: int         # curve points in the fit region


def llcd(samples: Sequence[int]) -> Tuple[Tuple[int, float], ...]:
    """Empirical complementary CDF evaluated at every distinct sample value:
    its (x, P(sample > x)) points, x increasing. No samples give no points."""
    arr = np.asarray(samples)
    values, counts = np.unique(arr, return_counts=True)
    n = int(arr.size)
    greater = n - np.cumsum(counts)          # |{s : s > x}| for each distinct x
    mask = greater > 0
    return tuple((int(x), float(g) / n) for x, g in zip(values[mask], greater[mask]))


def fit_tail(points: Sequence[Tuple[int, float]], x_min: int) -> TailFit:
    """Least-squares line in log-log space over the llcd points with x >= x_min."""
    tail = [(x, p) for x, p in points if x >= x_min]
    if len(tail) < MIN_TAIL_POINTS:
        raise InsufficientTailError(
            f"insufficient tail: {len(tail)} points at x >= {x_min}, "
            f"need {MIN_TAIL_POINTS}")
    lx = np.log10([x for x, _ in tail])
    lp = np.log10([p for _, p in tail])
    slope, intercept = np.polyfit(lx, lp, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((lp - fitted) ** 2))
    ss_tot = float(np.sum((lp - lp.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r_squared = min(1.0, max(0.0, r_squared))   # guard float noise at the edges
    return TailFit(alpha=float(-slope), x_min=x_min,
                   r_squared=r_squared, n_tail=len(tail))


def write_llcd_csv(points: Sequence[Tuple[int, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "p"])
        for x, p in points:
            w.writerow([x, repr(p)])
