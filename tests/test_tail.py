"""Complementary-CDF curves and power-law tail fitting."""

import random

import numpy as np
import pytest

from flowlens.synth import sample_flow_size
from flowlens.tail import MIN_TAIL_POINTS, InsufficientTailError, fit_tail, llcd


def brute_force_llcd(samples):
    """Independent double-loop oracle over all distinct outcomes."""
    n = len(samples)
    points = []
    for x in sorted(set(samples)):
        greater = sum(1 for s in samples if s > x)
        if greater > 0:
            points.append((x, greater / n))
    return points


def test_llcd_simple_counts():
    curve = llcd([1, 2, 3, 4])
    assert curve == ((1, 0.75), (2, 0.5), (3, 0.25))


def test_llcd_degenerate_all_equal():
    curve = llcd([5, 5, 5, 5])
    assert curve == ()
    assert llcd([7]) == ()


@pytest.mark.parametrize("seed", range(10))
def test_llcd_matches_brute_force(seed):
    rng = random.Random(seed)
    samples = [rng.randint(1, 50) for _ in range(rng.randint(1, 1000))]
    curve = llcd(samples)
    assert list(curve) == brute_force_llcd(samples)


def test_llcd_monotone_in_new_maximum():
    rng = random.Random(5)
    samples = [rng.randint(1, 30) for _ in range(200)]
    before = dict(llcd(samples))
    extended = samples + [max(samples) + 10]
    after_curve = llcd(extended)
    after = dict(after_curve)
    assert list(after_curve) == brute_force_llcd(extended)
    for x, p in before.items():
        assert after[x] > p     # a new maximum raises every existing point


def test_curve_invariants_on_random_input():
    rng = random.Random(11)
    for _ in range(25):
        samples = [rng.randint(1, 100) for _ in range(rng.randint(1, 500))]
        curve = llcd(samples)
        xs = [x for x, _ in curve]
        ps = [p for _, p in curve]
        assert xs == sorted(set(xs))
        assert all(ps[i] > ps[i + 1] for i in range(len(ps) - 1))
        assert all(0 < p <= 1 for p in ps)


# --- tail fitting ---------------------------------------------------------------

def exact_power_curve(alpha, xs):
    return tuple((x, x ** -alpha) for x in xs)


def test_noiseless_power_law_recovered_exactly():
    curve = exact_power_curve(1.2, range(20, 201))
    fit = fit_tail(curve, x_min=20)
    assert fit.alpha == pytest.approx(1.2, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.n_tail == 181


def test_fit_region_respects_x_min():
    # points below x_min carry a different slope; they must not leak in
    low = tuple((x, 0.9 * x ** -0.3) for x in range(2, 20))
    high = tuple((x, x ** -1.5) for x in range(20, 120))
    curve = low + high
    fit = fit_tail(curve, x_min=20)
    assert fit.alpha == pytest.approx(1.5, abs=1e-6)
    assert fit.n_tail == 100


def test_insufficient_tail_raises():
    with pytest.raises(InsufficientTailError, match="insufficient tail"):
        fit_tail(llcd([5, 5, 5, 5]), x_min=20)
    curve = exact_power_curve(1.0, range(20, 29))   # nine points: one short
    with pytest.raises(InsufficientTailError):
        fit_tail(curve, x_min=20)


def test_r_squared_is_squared_correlation():
    # for a least-squares line, R^2 is the squared correlation of the points
    rng = random.Random(0)
    curve = tuple((x, x ** -1.3 * rng.uniform(0.5, 2.0)) for x in range(20, 60))
    fit = fit_tail(curve, x_min=20)
    lx = np.log10([x for x, _ in curve])
    lp = np.log10([p for _, p in curve])
    assert 0.5 < fit.r_squared < 0.99
    assert fit.r_squared == pytest.approx(np.corrcoef(lx, lp)[0, 1] ** 2, rel=1e-9)


def test_min_tail_points_suffice():
    curve = exact_power_curve(1.0, range(20, 20 + MIN_TAIL_POINTS))
    assert fit_tail(curve, x_min=20).n_tail == MIN_TAIL_POINTS == 10


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_pareto_parameter_recovery(alpha):
    rng = random.Random(42)
    samples = [sample_flow_size(rng, alpha, cap=10**6) for _ in range(100_000)]
    fit = fit_tail(llcd(samples), x_min=20)
    assert fit.alpha == pytest.approx(alpha, abs=0.1)
    assert fit.r_squared > 0.98
