import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from diffload.baselines import (
    BnbStats,
    GaConfig,
    SplitTable,
    baseline_all_local,
    baseline_all_offload_fixed,
    baseline_all_offload_opt,
    repair,
    solve_bnb,
    solve_count_oracle,
    solve_exhaustive,
    solve_ga,
)
from diffload.env import processing_order
from diffload.qoe import Decision, DecisionEntry, objective, validate_decision
from diffload.scenario import DeviceProfile, GeneratorConfig, default_edge, generate_scenario


def make_scenario(seed=0, users=8, b_max=16, gpus=8):
    return generate_scenario(seed, GeneratorConfig(user_count=users),
                             default_edge(gpus=gpus, b_max=b_max))


def denied_users(decision):
    return {i for i, e in enumerate(decision.entries) if not e.granted}


def brute_force_fixed_split(scenario, split):
    """Independent exhaustive oracle for the fixed-split assignment."""
    n = scenario.user_count
    cap = min(n, scenario.edge.b_max)
    best = -np.inf
    for mask in range(1 << n):
        if mask.bit_count() > cap:
            continue
        grants = [(mask >> i) & 1 == 1 for i in range(n)]
        decision = Decision(entries=[
            DecisionEntry(granted=g, split=split if g else scenario.pai.n_total)
            for g in grants])
        best = max(best, objective(scenario, decision))
    return best


# -- simple baselines ----------------------------------------------------------

def test_b1_grants_everyone_under_capacity():
    scenario = make_scenario(users=5, b_max=16)
    decision = baseline_all_offload_opt(scenario)
    assert decision.grant_count == 5
    validate_decision(scenario, decision)


def test_b1_denies_latest_requesters_beyond_capacity():
    scenario = make_scenario(seed=5, users=10, b_max=8)
    decision = baseline_all_offload_opt(scenario)
    assert decision.grant_count == 8
    order = processing_order(scenario)
    late = order[8:]
    for idx in late:
        assert not decision.entries[idx].granted
    for idx in order[:8]:
        assert decision.entries[idx].granted


def test_b1_at_least_b2_everywhere():
    for seed in range(25):
        scenario = make_scenario(seed=seed, users=int(3 + seed % 10))
        v1 = objective(scenario, baseline_all_offload_opt(scenario))
        v2 = objective(scenario, baseline_all_offload_fixed(scenario))
        assert v1 >= v2 - 1e-12


def test_b2_pins_granted_splits_to_minimum():
    scenario = make_scenario(seed=3, users=6)
    decision = baseline_all_offload_fixed(scenario)
    for entry in decision.entries:
        assert entry.split == (80 if entry.granted else 200)
    validate_decision(scenario, decision)


def test_b3_all_local_and_insensitive_to_edge():
    scenario = make_scenario(seed=1, users=7, gpus=8, b_max=16)
    v = objective(scenario, baseline_all_local(scenario))
    for gpus, b_max in ((2, 4), (16, 1), (4, 0)):
        other = replace(scenario, edge=replace(scenario.edge, gpus=gpus, b_max=b_max))
        decision = baseline_all_local(other)
        assert decision.grant_count == 0
        assert objective(other, decision) == pytest.approx(v, rel=1e-12)


# -- genetic algorithm -----------------------------------------------------------

def test_ga_output_always_feasible():
    rng = np.random.default_rng(0)
    for seed in range(10):
        scenario = make_scenario(seed=seed, users=int(rng.integers(2, 12)),
                                 b_max=int(rng.integers(0, 7)))
        decision = solve_ga(scenario, GaConfig(population=20, iterations=10), rng=seed)
        validate_decision(scenario, decision)


def test_ga_never_beats_exact_oracle():
    for seed in range(8):
        scenario = make_scenario(seed=seed, users=8, b_max=5)
        ga = objective(scenario, solve_ga(scenario, GaConfig(population=30, iterations=30),
                                          rng=seed))
        exact = objective(scenario, solve_exhaustive(scenario))
        assert ga <= exact + 1e-9


def test_ga_deterministic_given_seed():
    scenario = make_scenario(seed=4, users=10)
    cfg = GaConfig(population=24, iterations=15)
    assert solve_ga(scenario, cfg, rng=7) == solve_ga(scenario, cfg, rng=7)


def test_ga_best_fitness_monotone_with_elitism():
    scenario = make_scenario(seed=6, users=12, b_max=6)
    history: list = []
    solve_ga(scenario, GaConfig(population=30, iterations=40), rng=3, history=history)
    assert len(history) == 40
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_ga_finds_optimum_on_small_instance():
    scenario = make_scenario(seed=9, users=6, b_max=3)
    ga = objective(scenario, solve_ga(scenario, rng=1))
    exact = objective(scenario, solve_exhaustive(scenario))
    assert ga == pytest.approx(exact, rel=1e-9)


def test_ga_search_is_pinned_on_desk_scenarios():
    # The best-fitness history (as the sha256 of its repr) and the denied users
    # of the default GaConfig on 20-user scenarios with a cap of 8, where most
    # children need repair.
    expected = {
        5200: ("6e70d5a34eb8ee88ce0b72c52a94a6d82cc6c44fd154196dc05c01862f8a5b72",
               {1, 5, 6, 7, 8, 9, 11, 13, 14, 16, 17, 19}),
        5201: ("4ccef5ffb973ec4194dad654df852396206f280d5b9293fbb821b729bd13d098",
               {3, 4, 5, 6, 7, 8, 12, 14, 16, 17, 18, 19}),
        5202: ("0c0d8d7061757d1d2d7520fb5eb05b88b42c30e2a881dd702b5d98011dff8496",
               {0, 1, 2, 4, 8, 11, 12, 13, 14, 16, 17, 19}),
    }
    for seed, (digest, denied) in expected.items():
        scenario = make_scenario(seed=seed, users=20, b_max=8, gpus=8)
        history: list = []
        decision = solve_ga(scenario, rng=seed, history=history)
        assert hashlib.sha256(repr(history).encode()).hexdigest() == digest, seed
        assert denied_users(decision) == denied, seed


def test_repair_keeps_a_uniform_subset_of_cap_grants():
    rng = np.random.default_rng(40)
    population = rng.random((4000, 6)) < 0.6
    population[:, :4] = True  # every row has at least four grants
    for cap in (0, 2, 4, 6):
        counts = np.count_nonzero(population, axis=1)
        repaired = repair(population, counts, cap, rng)
        over = counts > cap
        assert not (repaired & ~population).any()  # a subset of the input
        assert (np.count_nonzero(repaired[over], axis=1) == cap).all()
        assert (repaired[~over] == population[~over]).all()
    # A full row capped at 2 keeps each of its six grants a third of the time.
    full = np.ones((6000, 6), dtype=bool)
    kept = repair(full, np.count_nonzero(full, axis=1), 2, rng).mean(axis=0)
    assert np.abs(kept - 1 / 3).max() < 0.03


# -- branch & bound ---------------------------------------------------------------

def test_bnb_matches_bruteforce_fixed_split():
    rng = np.random.default_rng(2)
    for seed in range(20):
        users = int(rng.integers(2, 11))
        b_max = int(rng.integers(1, 8))
        scenario = make_scenario(seed=seed, users=users, b_max=b_max)
        decision = solve_bnb(scenario)
        validate_decision(scenario, decision)
        for entry in decision.entries:
            assert entry.split == (80 if entry.granted else 200)
        value = objective(scenario, decision)
        expected = brute_force_fixed_split(scenario, 80)
        assert value == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_bnb_never_beats_full_oracle():
    for seed in range(10):
        scenario = make_scenario(seed=seed, users=9, b_max=6)
        bnb = objective(scenario, solve_bnb(scenario))
        oracle = objective(scenario, solve_count_oracle(scenario))
        assert bnb <= oracle + 1e-9


def test_bnb_node_count_grows_with_users():
    # Moderate batching penalty with a tight cap leaves the optimistic bound
    # loose deep into the tree, forcing near-exhaustive exploration.
    def adversarial(users):
        edge = replace(default_edge(gpus=1, b_max=users // 2),
                       device=DeviceProfile("edge", 0.05, 0.01))
        return generate_scenario(1, GeneratorConfig(user_count=users), edge)

    counts = []
    for users in (6, 8, 10, 12):
        stats = BnbStats()
        solve_bnb(adversarial(users), stats=stats)
        counts.append(stats.nodes)
    for small, big in zip(counts, counts[1:]):
        assert big > 2 * small


def test_bnb_search_is_pinned_on_desk_scenarios():
    # Nodes, incumbent and denied users of the depth-first search on the
    # quadratic form, keyed by (seed, users, b_max): five 20-user desk
    # scenarios, then a cap of one, a cap equal to the user count, a single
    # user, and a cap of six reached at the twelfth user in processing order.
    expected = {
        (5000, 20, 16): (6623, 55.64651283035309, {5, 9, 14, 16}),
        (5001, 20, 16): (7948, 55.28536679064956, {5, 11, 13, 19}),
        (5002, 20, 16): (11540, 27.379200706726834, {3, 6, 11, 18}),
        (5003, 20, 16): (5722, -38.31601056351495, {8, 14, 18, 19}),
        (5004, 20, 16): (10920, 141.0759148508652, {10, 11, 12, 15}),
        (5100, 20, 1): (90, -247.58467765250452, set(range(20)) - {7}),
        (5101, 12, 12): (163, 98.69373056058768, {8}),
        (5102, 1, 16): (3, 12.890153838799396, set()),
        (5104, 20, 6): (8904, -112.73676252552954,
                        {0, 1, 2, 4, 6, 7, 8, 10, 11, 12, 13, 15, 16, 18}),
    }
    for (seed, users, b_max), (nodes, incumbent, denied) in expected.items():
        scenario = make_scenario(seed=seed, users=users, b_max=b_max, gpus=8)
        stats = BnbStats()
        decision = solve_bnb(scenario, stats=stats)
        assert (stats.nodes, stats.incumbent) == (nodes, incumbent), seed
        assert denied_users(decision) == denied, seed


# -- exact oracles ------------------------------------------------------------------

def test_count_oracle_equals_exhaustive():
    rng = np.random.default_rng(5)
    for seed in range(25):
        users = int(rng.integers(1, 13))
        b_max = int(rng.integers(0, 18))
        scenario = make_scenario(seed=seed, users=users, b_max=b_max)
        a = objective(scenario, solve_count_oracle(scenario))
        b = objective(scenario, solve_exhaustive(scenario))
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_count_oracle_zero_grants_equals_all_local():
    scenario = make_scenario(seed=2, users=5, b_max=0)
    assert objective(scenario, solve_count_oracle(scenario)) == pytest.approx(
        objective(scenario, baseline_all_local(scenario)), rel=1e-12)


def test_exhaustive_single_user_grant_or_deny():
    scenario = make_scenario(seed=8, users=1)
    table = SplitTable(scenario)
    deny = float(table.deny[0])
    grant = table.granted(0, 1)[1]
    assert objective(scenario, solve_exhaustive(scenario)) == pytest.approx(
        max(deny, grant), rel=1e-12)


def test_exhaustive_is_the_first_best_mask_of_the_loop():
    rng = np.random.default_rng(15)
    for seed in range(12):
        scenario = make_scenario(seed=seed, users=int(rng.integers(1, 10)),
                                 b_max=int(rng.integers(0, 6)))
        n, table = scenario.user_count, SplitTable(scenario)
        best_value, best = -np.inf, None
        for mask in range(1 << n):
            grants = [(mask >> i) & 1 == 1 for i in range(n)]
            if sum(grants) <= table.cap and table.value(grants) > best_value:
                best_value, best = table.value(grants), grants
        assert solve_exhaustive(scenario) == table.decision(best)


def test_exhaustive_refuses_large_instances():
    scenario = make_scenario(seed=1, users=16)
    with pytest.raises(ValueError, match="refused"):
        solve_exhaustive(scenario)


def test_exhaustive_respects_capacity():
    scenario = make_scenario(seed=7, users=6, b_max=2)
    decision = solve_exhaustive(scenario)
    assert decision.grant_count <= 2


def test_count_oracle_polynomial_runtime():
    scenario = make_scenario(seed=3, users=200, b_max=16)
    start = time.perf_counter()
    decision = solve_count_oracle(scenario)
    elapsed = time.perf_counter() - start
    validate_decision(scenario, decision)
    assert elapsed < 1.0


def test_ordering_chain():
    rng = np.random.default_rng(12)
    for seed in range(12):
        users = int(rng.integers(2, 11))
        b_max = int(rng.integers(1, 8))
        scenario = make_scenario(seed=seed, users=users, b_max=b_max)
        exact = objective(scenario, solve_exhaustive(scenario))
        oracle = objective(scenario, solve_count_oracle(scenario))
        assert oracle == pytest.approx(exact, rel=1e-9)
        for solver in (baseline_all_offload_opt, baseline_all_offload_fixed,
                       baseline_all_local, solve_bnb):
            assert objective(scenario, solver(scenario)) <= oracle + 1e-9
        ga = objective(scenario, solve_ga(scenario, GaConfig(population=16, iterations=8),
                                          rng=seed))
        assert ga <= oracle + 1e-9
