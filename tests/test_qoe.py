import math
from itertools import product

import numpy as np
import pytest

from diffload.qoe import (
    ContractError,
    Decision,
    DecisionEntry,
    LatencyBreakdown,
    all_local_decision,
    compose_pai,
    e2e_latency,
    fitted_pai,
    objective,
    step_latency_edge,
    step_latency_local,
)
from diffload.scenario import (
    DeviceProfile,
    EdgeConfig,
    GeneratorConfig,
    PaiParams,
    Scenario,
    UserRequest,
    default_edge,
    generate_scenario,
)


def naive_objective(scenario, grants, splits):
    """Straight transcription of the model, independent of the package path:
    sum over users of alpha*F(n) minus rtt + transfer + edge + local latency."""
    edge, pai = scenario.edge, scenario.pai
    m = sum(grants)
    total = 0.0
    for user, granted, n in zip(scenario.users, grants, splits):
        f = 1.0 / (1.0 + math.exp(-pai.a_f * (n - pai.b_f)))
        rtt = (edge.slots_per_interval - user.request_slot) * edge.slot_duration
        local = n * (user.device.step_slope + user.device.step_intercept)
        if granted:
            transfer = (user.prompt_bits + user.intermediate_bits) / (
                edge.spectral_efficiency * edge.bandwidth_hz / m)
            per_step = edge.device.step_slope * m / edge.gpus + edge.device.step_intercept
            compute = (pai.n_total - n) * per_step
        else:
            transfer = 0.0
            compute = 0.0
        total += user.alpha * f - (rtt + transfer + compute + local)
    return total


def make_decision(scenario, grants, splits):
    return Decision(entries=[DecisionEntry(granted=g, split=s)
                             for g, s in zip(grants, splits)])


# -- step latency ------------------------------------------------------------

def test_step_latency_local_direct():
    assert step_latency_local(DeviceProfile("d", 0.02, 0.08)) == pytest.approx(0.10)
    assert step_latency_local(DeviceProfile("d", 0.0, 0.05)) == pytest.approx(0.05)
    assert step_latency_local(DeviceProfile("d", 0.01, 0.04)) == pytest.approx(0.05)


def test_step_latency_edge_direct():
    dev = DeviceProfile("e", 0.004, 0.05)
    assert step_latency_edge(dev, 20, 8) == pytest.approx(0.06)


def test_step_latency_edge_batch_equals_gpus_matches_local():
    dev = DeviceProfile("e", 0.013, 0.07)
    for b in (1, 3, 9):
        assert step_latency_edge(dev, b, b) == pytest.approx(step_latency_local(dev))


def test_step_latency_edge_strictly_increasing_in_batch():
    dev = DeviceProfile("e", 0.004, 0.05)
    values = [step_latency_edge(dev, b, 8) for b in range(1, 30)]
    assert all(b > a for a, b in zip(values, values[1:]))


# -- accuracy curve ----------------------------------------------------------

def test_fitted_pai_midpoint():
    assert fitted_pai(71.44, PaiParams()) == pytest.approx(0.5, abs=1e-15)


def test_fitted_pai_frozen_values():
    # High-precision logistic evaluations with the published constants.
    assert fitted_pai(80, PaiParams()) == pytest.approx(0.587472847481058, rel=1e-12)
    assert fitted_pai(200, PaiParams()) == pytest.approx(0.995080065576604, rel=1e-12)


def test_fitted_pai_strictly_increasing_and_bounded():
    pai = PaiParams()
    values = [fitted_pai(n, pai) for n in range(80, 201)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.5 < v < 1.0 for v in values)


def test_compose_pai_examples():
    pai = PaiParams()
    # sigmoid midpoint at the lpips threshold
    assert compose_pai(0.4, 0.1, pai) == pytest.approx(3.0 * 0.4 * 0.5, rel=1e-12)
    assert compose_pai(0.0, 0.3, pai) == 0.0
    # sigma(0.2) = 1 / (1 + e^-3)
    assert compose_pai(0.7, 0.2, pai) == pytest.approx(2.000405666327110, rel=1e-12)


@pytest.mark.parametrize("clip, lpips, pai", [
    (0.0, 0.0, PaiParams()),
    (1.0, 0.0, PaiParams()),
    (0.62, 0.37, PaiParams()),
    (0.25, 2.5, PaiParams(kappa_pai=1.7, sigma_a=4.0, sigma_b=0.8)),
    (0.9, 0.05, PaiParams(kappa_pai=0.5, sigma_a=-12.0, sigma_b=-0.3)),
])
def test_compose_pai_is_the_gated_clip_score(clip, lpips, pai):
    gate = 1 / (1 + math.exp(-pai.sigma_a * (lpips - pai.sigma_b)))
    assert compose_pai(clip, lpips, pai) == pai.kappa_pai * clip * gate


def test_compose_pai_rejects_bad_inputs():
    with pytest.raises(ContractError):
        compose_pai(1.5, 0.1, PaiParams())
    with pytest.raises(ContractError):
        compose_pai(0.5, -0.1, PaiParams())


# -- end-to-end latency ------------------------------------------------------

def _user(device, slot, alpha=1.0):
    return UserRequest(0, device, alpha, slot, 216.0, 4.4e6)


def test_denied_user_pure_local():
    edge = default_edge()
    user = _user(DeviceProfile("d", 0.02, 0.08), slot=edge.slots_per_interval)
    lat = e2e_latency(user, DecisionEntry(granted=False, split=200), 0, edge, 200)
    assert lat.rtt == 0.0
    assert lat.uplink_downlink == 0.0
    assert lat.edge_compute == 0.0
    assert lat.total == pytest.approx(20.0)


def test_granted_transfer_matches_published_constants():
    edge = default_edge()  # eta = 10, W = 1e6
    user = _user(DeviceProfile("d", 0.02, 0.08), slot=edge.slots_per_interval)
    lat = e2e_latency(user, DecisionEntry(granted=True, split=100), 2, edge, 200)
    assert lat.uplink_downlink == pytest.approx(0.8800432, rel=1e-12)


def test_granted_full_split_no_edge_compute():
    edge = default_edge()
    user = _user(DeviceProfile("d", 0.02, 0.08), slot=50)
    lat = e2e_latency(user, DecisionEntry(granted=True, split=200), 3, edge, 200)
    assert lat.edge_compute == 0.0
    assert lat.uplink_downlink > 0.0


def test_breakdown_total_is_exact_sum():
    edge = default_edge()
    rng = np.random.default_rng(0)
    for _ in range(50):
        user = _user(DeviceProfile("d", rng.uniform(0, 0.1), rng.uniform(0.01, 1.0)),
                     slot=int(rng.integers(1, 101)))
        entry = DecisionEntry(granted=bool(rng.integers(2)),
                              split=int(rng.integers(80, 201)))
        m = int(rng.integers(1, 17))
        lat = e2e_latency(user, entry, m, edge, 200)
        assert lat.total == lat.rtt + lat.uplink_downlink + lat.edge_compute + lat.local_compute


def test_breakdown_rejects_inconsistent_total():
    with pytest.raises(ContractError):
        LatencyBreakdown(rtt=1.0, uplink_downlink=0.0, edge_compute=0.0,
                         local_compute=0.0, total=2.0)


def test_granted_requires_positive_count():
    edge = default_edge()
    user = _user(DeviceProfile("d", 0.02, 0.08), slot=10)
    with pytest.raises(ContractError):
        e2e_latency(user, DecisionEntry(granted=True, split=100), 0, edge, 200)


# -- objective ---------------------------------------------------------------

def test_all_deny_closed_form():
    scenario = generate_scenario(3, GeneratorConfig(user_count=7), default_edge())
    expected = sum(
        u.alpha * fitted_pai(200, scenario.pai)
        - (100 - u.request_slot) * 0.01
        - 200 * (u.device.step_slope + u.device.step_intercept)
        for u in scenario.users
    )
    assert objective(scenario, all_local_decision(scenario)) == pytest.approx(expected, rel=1e-12)


def test_two_user_scenario_all_grant_patterns_match_naive():
    scenario = generate_scenario(5, GeneratorConfig(user_count=2), default_edge())
    rng = np.random.default_rng(1)
    for grants in product([False, True], repeat=2):
        splits = [int(rng.integers(80, 201)) if g else 200 for g in grants]
        decision = make_decision(scenario, grants, splits)
        assert objective(scenario, decision) == pytest.approx(
            naive_objective(scenario, grants, splits), rel=1e-12)


def test_random_scenarios_match_naive():
    rng = np.random.default_rng(9)
    for seed in range(20):
        n = int(rng.integers(1, 9))
        scenario = generate_scenario(seed, GeneratorConfig(user_count=n), default_edge())
        grants = [bool(rng.integers(2)) for _ in range(n)]
        while sum(grants) > scenario.edge.b_max:
            grants[grants.index(True)] = False
        splits = [int(rng.integers(80, 201)) if g else 200 for g in grants]
        decision = make_decision(scenario, grants, splits)
        assert objective(scenario, decision) == pytest.approx(
            naive_objective(scenario, grants, splits), rel=1e-12)


def test_objective_invariant_under_user_permutation():
    scenario = generate_scenario(8, GeneratorConfig(user_count=6), default_edge())
    rng = np.random.default_rng(2)
    grants = [True, False, True, False, False, True]
    splits = [150, 200, 99, 200, 200, 80]
    base = objective(scenario, make_decision(scenario, grants, splits))
    perm = rng.permutation(6)
    users = [scenario.users[i] for i in perm]
    relabeled = [UserRequest(j, u.device, u.alpha, u.request_slot, u.prompt_bits,
                             u.intermediate_bits, u.alpha_clamped)
                 for j, u in enumerate(users)]
    permuted = Scenario(users=relabeled, edge=scenario.edge, pai=scenario.pai,
                        seed=scenario.seed)
    value = objective(permuted, make_decision(
        permuted, [grants[i] for i in perm], [splits[i] for i in perm]))
    assert value == pytest.approx(base, rel=1e-12)


def test_objective_non_increasing_in_inflated_grant_count():
    # Feed e2e_latency a larger m than the decision implies: latency grows,
    # so the objective computed with the inflated count can only drop.
    scenario = generate_scenario(10, GeneratorConfig(user_count=5), default_edge())
    grants = [True, True, False, False, False]
    splits = [120, 90, 200, 200, 200]
    def value_with_count(m):
        total = 0.0
        for user, g, n in zip(scenario.users, grants, splits):
            entry = DecisionEntry(granted=g, split=n)
            lat = e2e_latency(user, entry, m if g else 0, scenario.edge, 200)
            total += user.alpha * fitted_pai(n, scenario.pai) - lat.total
        return total
    values = [value_with_count(m) for m in range(2, 17)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_objective_validates_constraints():
    scenario = generate_scenario(12, GeneratorConfig(user_count=4), default_edge())
    good = all_local_decision(scenario)
    objective(scenario, good)

    with pytest.raises(ContractError, match="C4"):
        objective(scenario, make_decision(scenario, [False] * 4, [150, 200, 200, 200]))
    with pytest.raises(ContractError, match="C3"):
        objective(scenario, make_decision(scenario, [True, False, False, False],
                                          [79, 200, 200, 200]))
    small_cap = Scenario(users=scenario.users,
                         edge=EdgeConfig(8, scenario.edge.device, 1, 100, 0.01, 1e6, 10.0),
                         pai=scenario.pai, seed=0)
    with pytest.raises(ContractError, match="C2"):
        objective(small_cap, make_decision(small_cap, [True, True, False, False],
                                           [100, 100, 200, 200]))
    with pytest.raises(ContractError, match="entries"):
        objective(scenario, make_decision(scenario, [False] * 3, [200] * 3))
