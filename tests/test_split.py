import math

import numpy as np
import pytest

from diffload.qoe import DecisionEntry, user_qoe
from diffload.scenario import (DeviceProfile, PaiParams, UserRequest, default_edge,
                               marginal_pai_rate)
from diffload.split import (
    INTERIOR_ROOT,
    LATENCY_SATURATED,
    LOCAL_DOMINATES,
    PAI_SATURATED,
    optimal_split,
)
from dataclasses import replace


def closed_form_root(alpha, delta, pai):
    """Analytic inversion of the stationarity condition, used only as an oracle:
    F(1-F) = delta / (alpha * a_f), upper branch F > 0.5, then invert the logistic."""
    c = delta / (alpha * pai.a_f)
    f = (1.0 + math.sqrt(1.0 - 4.0 * c)) / 2.0
    return pai.b_f + math.log(f / (1.0 - f)) / pai.a_f


def grid_best(user, m, edge, pai):
    """Exhaustive search over the integer split grid."""
    best_n, best_v = None, -math.inf
    for n in range(pai.n_min, pai.n_total + 1):
        v = user_qoe(user, DecisionEntry(granted=True, split=n), m, edge, pai)
        if v > best_v:
            best_n, best_v = n, v
    return best_n, best_v


def make_user(alpha, local_step, slot=100):
    # zero-slope device: local per-step latency equals the intercept
    return UserRequest(0, DeviceProfile("u", 0.0, local_step), alpha, slot, 216.0, 4.4e6)


def edge_with_step(step):
    base = default_edge(gpus=1)
    return replace(base, device=DeviceProfile("e", 0.0, step))


# -- marginal accuracy rate ---------------------------------------------------

def test_marginal_rate_peak_at_midpoint():
    pai = PaiParams()
    alpha = 3.0
    assert marginal_pai_rate(pai.b_f, alpha, pai) == pytest.approx(
        alpha * pai.a_f * 0.25, rel=1e-12)


def test_marginal_rate_frozen_values():
    pai = PaiParams()
    assert marginal_pai_rate(80, 2.0, pai) == pytest.approx(0.0200179861787637, rel=1e-12)
    assert marginal_pai_rate(200, 2.0, pai) == pytest.approx(4.04387188031796e-4, rel=1e-12)


def test_marginal_rate_strictly_decreasing_on_domain():
    pai = PaiParams()
    values = [marginal_pai_rate(n, 1.7, pai) for n in np.linspace(80, 200, 200)]
    assert all(b < a for a, b in zip(values, values[1:]))


# -- case analysis ------------------------------------------------------------

def test_local_dominates_when_edge_slower():
    user = make_user(alpha=2.0, local_step=0.05)
    res = optimal_split(user, 1, edge_with_step(0.06), PaiParams())
    assert res.case == LOCAL_DOMINATES
    assert res.split == 200
    assert res.continuous_root is None


def test_latency_saturated_for_large_gap():
    # delta = 0.4 dwarfs the largest marginal accuracy rate at alpha = 2
    user = make_user(alpha=2.0, local_step=0.45)
    res = optimal_split(user, 1, edge_with_step(0.05), PaiParams())
    assert res.case == LATENCY_SATURATED
    assert res.split == 80


def test_pai_saturated_for_tiny_gap():
    # delta below the marginal rate at the right endpoint: accuracy wins everywhere
    user = make_user(alpha=2.0, local_step=0.0502)
    res = optimal_split(user, 1, edge_with_step(0.05), PaiParams())
    assert res.case == PAI_SATURATED
    assert res.split == 200


def test_interior_root_matches_closed_form():
    user = make_user(alpha=2.0, local_step=0.052)
    pai = PaiParams()
    res = optimal_split(user, 1, edge_with_step(0.05), pai)
    assert res.case == INTERIOR_ROOT
    expected = closed_form_root(2.0, 0.002, pai)
    assert expected == pytest.approx(160.315942523972, rel=1e-10)
    assert res.continuous_root == pytest.approx(expected, abs=2e-6)
    assert res.split in (160, 161)
    # integerization keeps the better neighbor
    lo = user_qoe(user, DecisionEntry(granted=True, split=160), 1, edge_with_step(0.05), pai)
    hi = user_qoe(user, DecisionEntry(granted=True, split=161), 1, edge_with_step(0.05), pai)
    assert res.inner_value == max(lo, hi)


def test_rejects_zero_grant_count():
    with pytest.raises(ValueError):
        optimal_split(make_user(2.0, 0.1), 0, default_edge(), PaiParams())


# -- exactness against the grid oracle ----------------------------------------

def test_grid_oracle_equality_random_draws():
    rng = np.random.default_rng(42)
    pai = PaiParams()
    for _ in range(250):
        alpha = float(rng.uniform(0.5, 300.0))
        local = float(rng.uniform(0.02, 1.2))
        edge_step = float(rng.uniform(0.005, 0.2))
        m = int(rng.integers(1, 17))
        gpus = int(rng.integers(1, 17))
        edge = replace(default_edge(gpus=gpus), device=DeviceProfile("e", 0.0, edge_step))
        user = make_user(alpha, local, slot=int(rng.integers(1, 101)))
        res = optimal_split(user, m, edge, pai)
        _, best_v = grid_best(user, m, edge, pai)
        assert res.inner_value == best_v  # exact: both through the same evaluator
        assert 80 <= res.split <= 200


def test_inner_value_matches_independent_formula():
    rng = np.random.default_rng(7)
    pai = PaiParams()
    edge = default_edge()
    for _ in range(50):
        alpha = float(rng.uniform(10, 300))
        local = float(rng.uniform(0.1, 1.2))
        m = int(rng.integers(1, 17))
        user = make_user(alpha, local, slot=int(rng.integers(1, 101)))
        res = optimal_split(user, m, edge, pai)
        n = res.split
        f = 1.0 / (1.0 + math.exp(-pai.a_f * (n - pai.b_f)))
        rtt = (100 - user.request_slot) * 0.01
        transfer = (216.0 + 4.4e6) * m / 1e7
        per_step = edge.device.step_slope * m / edge.gpus + edge.device.step_intercept
        expected = alpha * f - (rtt + transfer + (200 - n) * per_step + n * local)
        assert res.inner_value == pytest.approx(expected, rel=1e-12)


def test_concavity_of_inner_objective_on_grid():
    rng = np.random.default_rng(3)
    pai = PaiParams()
    edge = default_edge()
    for _ in range(20):
        alpha = float(rng.uniform(1, 300))
        user = make_user(alpha, float(rng.uniform(0.05, 1.0)))
        m = int(rng.integers(1, 17))
        vals = [user_qoe(user, DecisionEntry(granted=True, split=n), m, edge, pai)
                for n in range(80, 201)]
        second = [vals[i + 1] - 2 * vals[i] + vals[i - 1] for i in range(1, len(vals) - 1)]
        assert all(d <= 1e-9 for d in second)


# -- monotone responses (matching the observed trends) ------------------------

def test_split_non_decreasing_in_grant_count():
    rng = np.random.default_rng(11)
    pai = PaiParams()
    for _ in range(300):
        alpha = float(rng.uniform(5, 300))
        user = make_user(alpha, float(rng.uniform(0.1, 1.2)))
        edge = default_edge(gpus=int(rng.integers(1, 17)))
        splits = [optimal_split(user, m, edge, pai).split for m in (1, 4, 8, 16, 32)]
        assert all(b >= a for a, b in zip(splits, splits[1:]))


def test_split_non_increasing_in_gpus():
    rng = np.random.default_rng(12)
    pai = PaiParams()
    for _ in range(300):
        alpha = float(rng.uniform(5, 300))
        user = make_user(alpha, float(rng.uniform(0.1, 1.2)))
        m = int(rng.integers(1, 21))
        splits = [optimal_split(user, m, default_edge(gpus=g), pai).split
                  for g in (1, 2, 4, 8, 16)]
        assert all(b <= a for a, b in zip(splits, splits[1:]))


def test_split_non_decreasing_in_alpha():
    rng = np.random.default_rng(13)
    pai = PaiParams()
    for _ in range(300):
        local = float(rng.uniform(0.1, 1.2))
        m = int(rng.integers(1, 21))
        edge = default_edge(gpus=int(rng.integers(1, 17)))
        alphas = sorted(float(rng.uniform(1, 400)) for _ in range(4))
        splits = [optimal_split(make_user(a, local), m, edge, pai).split for a in alphas]
        assert all(b >= a for a, b in zip(splits, splits[1:]))
