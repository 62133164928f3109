"""Throughput series, skewness estimator, and the skewness gate."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowlens.report import AnalysisParams
from flowlens.variability import (DegenerateSeriesError, ThroughputSeries,
                                  gate_trace, skewness, throughput_series)

from helpers import mk_packet
from reference import from_records

EMPTY = from_records([])
TAU_01, TAU_03 = AnalysisParams(tau=0.1), AnalysisParams(tau=0.3)


def brute_force_skewness(values):
    """Three explicit passes with fsum; the frozen oracle for g1."""
    n = len(values)
    mean = math.fsum(values) / n
    m2 = math.fsum((x - mean) ** 2 for x in values) / n
    m3 = math.fsum((x - mean) ** 3 for x in values) / n
    return m3 / m2 ** 1.5


# --- skewness ------------------------------------------------------------------

def test_symmetric_is_zero():
    assert skewness([1, 2, 3]) == pytest.approx(0.0, abs=1e-12)


def test_small_case_exact_moments():
    # m2 = 0.1875, m3 = 0.09375 -> g1 = 2/sqrt(3)
    assert skewness([0, 0, 0, 1]) == pytest.approx(1.1547005383792515, abs=1e-12)


def test_exponential_monte_carlo():
    rng = np.random.default_rng(42)
    g1 = skewness(rng.exponential(1.0, 100_000))
    assert abs(g1 - 2.0) <= 0.1


def test_gaussian_sanity():
    rng = np.random.default_rng(42)
    assert abs(skewness(rng.normal(0.0, 1.0, 100_000))) < 0.05


@pytest.mark.parametrize("seed", range(10))
def test_matches_three_pass_oracle(seed):
    rng = random.Random(seed)
    values = [rng.uniform(-5, 5) for _ in range(rng.randint(3, 500))]
    if brute_force_skewness_defined(values):
        assert skewness(values) == pytest.approx(brute_force_skewness(values),
                                                 abs=1e-12)


def brute_force_skewness_defined(values):
    mean = math.fsum(values) / len(values)
    return math.fsum((x - mean) ** 2 for x in values) > 0


def test_error_cases():
    with pytest.raises(DegenerateSeriesError):
        skewness([1, 2])
    with pytest.raises(DegenerateSeriesError, match="degenerate"):
        skewness([5, 5, 5, 5])


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(-100, 100), min_size=3, max_size=200),
       a=st.floats(0.1, 50), b=st.floats(-100, 100))
def test_affine_invariance(values, a, b):
    # the identity is asserted on sanely-conditioned input: a microscopic
    # spread under a large shift drowns in float quantization by design
    assume(brute_force_skewness_defined(values))
    mean = math.fsum(values) / len(values)
    assume(math.fsum((x - mean) ** 2 for x in values) / len(values) > 1e-6)
    base = skewness(values)
    transformed = skewness([a * x + b for x in values])
    assert transformed == pytest.approx(base, abs=1e-9)


# --- throughput series ----------------------------------------------------------

def test_single_packet_rate():
    series = throughput_series(from_records([mk_packet(0.05, ip_len=700)]), TAU_01)
    assert series.values == (56000.0,)          # 700 * 8 / 0.1


def test_zero_filled_gaps():
    packets = [mk_packet(0.01, ip_len=500), mk_packet(0.05, ip_len=500),
               mk_packet(0.25, ip_len=500)]
    series = throughput_series(from_records(packets), TAU_01)
    assert series.values == (80000.0, 0.0, 40000.0)
    assert series.byte_counts == (1000, 0, 500)


def test_values_are_python_floats():
    # throughput.csv writes repr(v); a numpy scalar would print np.float64(...)
    packets = [mk_packet(0.01, ip_len=333), mk_packet(0.31, ip_len=77)]
    series = throughput_series(from_records(packets), TAU_03)
    assert all(type(v) is float for v in series.values)
    assert series.values == tuple(8.0 * b / 0.3 for b in series.byte_counts)
    assert series.mean_bps == sum(series.values) / len(series.values)


def test_constant_rate_trace_mean():
    # 18.80 Mbps planted exactly: 235000 bytes per 0.1 s interval
    packets = [mk_packet((i * 1000 + j) / 1e4, sport=j + 1, ip_len=2350)
               for i in range(10) for j in range(100)]
    series = throughput_series(from_records(packets), TAU_01)
    assert series.mean_bps == pytest.approx(18.80e6, rel=0.01)
    assert series.skewness is None              # constant rate: degenerate


def test_byte_conservation_exact():
    rng = random.Random(3)
    for _ in range(100):
        packets = [mk_packet(rng.randrange(0, 2_000_000) / 1e6,
                             ip_len=rng.randint(20, 1500))
                   for _ in range(rng.randint(1, 200))]
        series = throughput_series(from_records(packets), TAU_01)
        assert sum(series.byte_counts) == sum(p.ip_len for p in packets)


def test_empty_trace_flagged():
    series = throughput_series(EMPTY, TAU_01)
    assert series.values == () and series.skewness is None and series.mean_bps == 0.0




# --- gate ----------------------------------------------------------------------

def _series_with_skew(value):
    return ThroughputSeries(interval=0.1, byte_counts=(1,), mean_bps=1.0,
                            skewness=value)


def test_gate_threshold_cases():
    assert gate_trace(_series_with_skew(0.41), 0.4) is True
    assert gate_trace(_series_with_skew(0.39), 0.4) is False
    assert gate_trace(_series_with_skew(0.4), 0.4) is True   # boundary kept
    assert gate_trace(_series_with_skew(None), 0.4) is False
