"""Property tests over every solver on randomly drawn scenarios.

Scenarios drawn by hypothesis lean on the edges, and each edge is also an
explicit example: no users, one user, no edge capacity, capacity equal to
the user count, and a single edge GPU. Every solver's decision must be
feasible with a finite objective, none may beat the count oracle,
exhaustive enumeration must equal it, and branch and bound must reach the
fixed-split optimum. On scenarios with copied users, the count oracle is
also checked against exhaustive enumeration and branch and bound against
the fixed-split optimum; on scenarios large enough for its pre-pass to
drop users, the oracle is checked against the per-m sort reference, and
the pre-pass must keep every user who can enter a top-m set. A user's gain
never grows with the grant count, which the pre-pass rests on. A scenario
file with one number set to an extreme finite value is either rejected or
solved by every solver with a finite objective. The cheap range bound that
`Scenario.model` tests first passes only scenarios that the exact corner
evaluation passes. The draws are derandomized, so that every run sees the
same ones.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffload.baselines import (
    PRUNE_MIN_CELLS,
    PRUNE_STEP,
    SOLVERS,
    BnbStats,
    GaConfig,
    SplitTable,
    baseline_all_local,
    baseline_all_offload_fixed,
    baseline_all_offload_opt,
    solve_bnb,
    solve_count_oracle,
    solve_exhaustive,
    solve_ga,
    _oracle_candidates,
)
from diffload.costmodel import RANGE_BOUND, CostModel, corner_magnitudes, range_bound
from diffload.dqn import ScenarioSource, TrainHyper, greedy_solve, train
from diffload.qoe import objective, validate_decision
from diffload.scenario import (
    DeviceProfile,
    EdgeConfig,
    GeneratorConfig,
    PaiParams,
    Scenario,
    UserRequest,
    ValidationError,
    default_edge,
    generate_scenario,
    load_scenario,
    scenario_to_dict,
)
from test_costmodel import per_m_sort_oracle, wide_scenario

MAX_USERS = 10  # exhaustive enumeration and the policy's capacity
RELATIVE_TOL = 1e-9


def close_or_below(value, bound):
    return value <= bound + RELATIVE_TOL * max(1.0, abs(value), abs(bound))


def fixed_split_optimum(scenario):
    """Best objective with every grant at the minimum split: the top m gains, for each m."""
    model = CostModel.from_scenario(scenario)
    deny = model.denied()
    best = float(deny.sum())
    for m in range(1, scenario.cap + 1):
        gains = np.sort(model.granted(scenario.pai.n_min, [m])[0] - deny)[::-1]
        best = max(best, float(deny.sum() + gains[:m].sum()))
    return best


def scenario_of(users, b_max, gpus, seed):
    """A generated scenario of `users` users and the default edge with `gpus` and
    `b_max`; a scenario of no users is a one-user scenario emptied."""
    scenario = generate_scenario(seed, GeneratorConfig(user_count=max(users, 1)),
                                 default_edge(gpus=gpus, b_max=b_max))
    return scenario if users else replace(scenario, users=[])


@st.composite
def edge_leaning_scenarios(draw):
    """0 to MAX_USERS users and b_max 0 to users + 3; no users, one user, b_max 0
    and b_max equal to the user count each take a branch of their own."""
    users = draw(st.one_of(st.just(0), st.just(1), st.integers(2, MAX_USERS)))
    b_max = draw(st.one_of(st.just(0), st.just(users), st.integers(0, users + 3)))
    return scenario_of(users, b_max, draw(st.sampled_from([1, 2, 4, 8, 16])),
                       draw(st.integers(0, 2**31 - 1)))


@pytest.fixture(scope="module")
def policy():
    """A tiny general-scope policy, trained in float32, that takes up to MAX_USERS users."""
    source = ScenarioSource(scope="general", generator=GeneratorConfig(user_count=MAX_USERS),
                            edge=default_edge(), pai=PaiParams(), seed=5,
                            user_range=(1, MAX_USERS))
    hyper = TrainHyper(episodes=30, target_sync=50, capacity=4000, batch_size=16,
                       terminal_quota=2, train_every=2)
    return train(source, hyper, seed=3).policy


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(scenario=edge_leaning_scenarios())
@example(scenario=scenario_of(0, 3, 8, 11))   # no users
@example(scenario=scenario_of(1, 1, 4, 12))   # one user
@example(scenario=scenario_of(6, 0, 8, 13))   # no edge capacity
@example(scenario=scenario_of(7, 7, 2, 14))   # capacity equal to the user count
@example(scenario=scenario_of(5, 3, 1, 15))   # one edge GPU
def test_every_solver_is_feasible_finite_and_bounded_by_the_oracle(policy, scenario):
    label = (scenario.seed, scenario.user_count, scenario.edge.b_max, scenario.edge.gpus)
    oracle = objective(scenario, solve_count_oracle(scenario))
    assert math.isfinite(oracle), label
    decisions = {
        "b1": baseline_all_offload_opt(scenario),
        "b2": baseline_all_offload_fixed(scenario),
        "b3": baseline_all_local(scenario),
        "ga": solve_ga(scenario, GaConfig(population=12, iterations=6), rng=scenario.seed),
        "bnb": solve_bnb(scenario),
        "exhaustive": solve_exhaustive(scenario),
        "dqn": greedy_solve(policy, scenario),
    }
    for name, decision in decisions.items():
        validate_decision(scenario, decision)
        value = objective(scenario, decision)
        assert math.isfinite(value), (name, label)
        assert close_or_below(value, oracle), (name, value, oracle, label)
    exhaustive = objective(scenario, decisions["exhaustive"])
    assert close_or_below(oracle, exhaustive), (exhaustive, oracle, label)
    bnb, fixed = objective(scenario, decisions["bnb"]), fixed_split_optimum(scenario)
    assert close_or_below(fixed, bnb) and close_or_below(bnb, fixed), (bnb, fixed, label)


@st.composite
def scenarios_with_copies(draw):
    """1-12 generated users, some of them replaced by copies of one user, and b_max 0-14."""
    users = draw(st.integers(1, 12))
    scenario = generate_scenario(draw(st.integers(0, 2**31 - 1)),
                                 GeneratorConfig(user_count=users),
                                 default_edge(gpus=draw(st.sampled_from([1, 2, 4, 8, 16])),
                                              b_max=draw(st.integers(0, 14))))
    source = scenario.users[draw(st.integers(0, users - 1))]
    copied = draw(st.sets(st.integers(0, users - 1)))
    return replace(scenario, users=[replace(source, id=i) if i in copied else user
                                    for i, user in enumerate(scenario.users)])


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(scenarios_with_copies())
def test_count_oracle_reaches_the_exhaustive_objective(scenario):
    oracle = objective(scenario, solve_count_oracle(scenario))
    exhaustive = objective(scenario, solve_exhaustive(scenario))
    assert close_or_below(oracle, exhaustive) and close_or_below(exhaustive, oracle)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(scenarios_with_copies())
def test_bnb_reaches_the_fixed_split_optimum_with_copied_users(scenario):
    # Copied users have equal bounds, so the search meets bounds equal to the
    # incumbent, which it prunes.
    stats = BnbStats()
    value = objective(scenario, solve_bnb(scenario, stats=stats))
    fixed = fixed_split_optimum(scenario)
    assert close_or_below(value, fixed) and close_or_below(fixed, value)
    assert close_or_below(value, stats.incumbent) and close_or_below(stats.incumbent, value)


@st.composite
def pruned_scenarios_with_copies(draw):
    """b_max 32-64 and just enough users that (I - cap) * cap reaches
    PRUNE_MIN_CELLS, with devices and edge drawn as in criterion 3, so users'
    gains rank differently at different grant counts. The user ranked cap-th
    by gain at cap grants, whose gain is the pre-pass's threshold, is copied
    into some slots, so equal gains sit on both sides of it."""
    b_max = draw(st.integers(32, 64))
    fewest = -(-PRUNE_MIN_CELLS // b_max) + b_max
    users = draw(st.integers(fewest, fewest + 40))
    scenario = wide_scenario(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             users, b_max)
    model = CostModel.from_scenario(scenario)
    gains = model.optimal_splits(np.array([b_max]))[1][0] - model.denied()
    source = scenario.users[int(np.argsort(-gains, kind="stable")[b_max - 1])]
    copied = draw(st.sets(st.integers(0, users - 1), max_size=2 * b_max))
    return replace(scenario, users=[replace(source, id=i) if i in copied else user
                                    for i, user in enumerate(scenario.users)])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(pruned_scenarios_with_copies())
def test_pruned_count_oracle_matches_the_per_m_sort_reference(scenario):
    cap = min(scenario.user_count, scenario.edge.b_max)
    assert (scenario.user_count - cap) * cap >= PRUNE_MIN_CELLS
    decision = solve_count_oracle(scenario)
    grants = [e.granted for e in decision.entries]
    assert {i for i, granted in enumerate(grants) if granted} == per_m_sort_oracle(scenario)
    assert decision == SplitTable(scenario).decision(grants)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(0, 129))
def test_gains_never_grow_with_the_grant_count(seed, users, b_max):
    scenario = wide_scenario(np.random.default_rng(seed), users, b_max)
    model = CostModel.from_scenario(scenario)
    cap = min(users, b_max)
    gains = model.optimal_splits(np.arange(1, cap + 1))[1] - model.denied()
    assert (np.diff(gains, axis=0) <= 0).all()


@st.composite
def pruned_scenarios_with_interior_ties(draw):
    """As `pruned_scenarios_with_copies`, but with b_max up to 128, so the
    pre-pass has several checkpoint intervals. A checkpoint c strictly
    inside (1, cap) is drawn, and the user ranked c-th by gain at c grants,
    whose gain is the threshold of the interval that ends at c, is copied
    into some slots, so equal gains sit on both sides of it. In half the
    draws no gain depends on the grant count (a batch-independent edge step
    and payloads too small to add any transfer time), so a user's gain at
    a checkpoint equals the threshold of the interval that starts there."""
    b_max = draw(st.integers(PRUNE_STEP + 1, 128))
    fewest = -(-PRUNE_MIN_CELLS // b_max) + b_max
    users = draw(st.integers(fewest, fewest + 40))
    scenario = wide_scenario(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             users, b_max)
    if draw(st.booleans()):
        edge = replace(scenario.edge, device=replace(scenario.edge.device, step_slope=0.0))
        scenario = replace(scenario, edge=edge, users=[
            replace(u, prompt_bits=1e-300, intermediate_bits=1e-300) for u in scenario.users])
    checkpoint = draw(st.sampled_from(range(PRUNE_STEP, b_max, PRUNE_STEP)))
    model = CostModel.from_scenario(scenario)
    gains = model.optimal_splits(np.array([checkpoint]))[1][0] - model.denied()
    source = scenario.users[int(np.argsort(-gains, kind="stable")[checkpoint - 1])]
    copied = draw(st.sets(st.integers(0, users - 1), max_size=2 * checkpoint))
    return replace(scenario, users=[replace(source, id=i) if i in copied else user
                                    for i, user in enumerate(scenario.users)])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(pruned_scenarios_with_interior_ties())
def test_pre_pass_keeps_every_top_m_user_with_ties_at_a_checkpoint(scenario):
    table = SplitTable(scenario)
    model = CostModel.from_scenario(scenario)
    candidates = set(_oracle_candidates(model, model.denied(), table.cap).tolist())
    gains = table.values - table.deny
    # Row m - 1 of the descending sort holds the m-th largest gain at m on its diagonal.
    last = np.sort(gains, axis=1)[:, ::-1].diagonal()
    assert set(np.flatnonzero((gains >= last[:, None]).any(axis=0)).tolist()) <= candidates
    decision = solve_count_oracle(scenario)
    grants = [e.granted for e in decision.entries]
    assert {i for i, granted in enumerate(grants) if granted} == per_m_sort_oracle(scenario)
    assert decision == SplitTable(scenario).decision(grants)


# The scenario file of `generate --seed 3 --users 5`, and the extreme finite
# values a number in it is set to: the int64 ends for a count, else 1e±308.
EXTREME_BASE = scenario_to_dict(generate_scenario(3, GeneratorConfig(user_count=5),
                                                  default_edge(), PaiParams()))
EXTREME_COUNTS = (-2**63, 2**63 - 1)
EXTREME_FLOATS = (1e308, -1e308, 1e-308, -1e-308)


def numeric_paths(obj, path=()):
    """The key path of every number in a JSON object, with whether it is a count."""
    items = enumerate(obj) if isinstance(obj, list) else obj.items()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_paths(value, (*path, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*path, key), isinstance(value, int)


@st.composite
def files_with_one_extreme_number(draw):
    """EXTREME_BASE with one number set to an extreme value, and that number's path."""
    path, is_count = draw(st.sampled_from(list(numeric_paths(EXTREME_BASE))))
    obj = json.loads(json.dumps(EXTREME_BASE))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(st.sampled_from(EXTREME_COUNTS if is_count else EXTREME_FLOATS))
    return obj, path


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("extreme") / "scenario.json"


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(edit=files_with_one_extreme_number())
def test_one_extreme_number_is_rejected_or_every_solver_stays_finite(scenario_path, edit):
    obj, path = edit
    scenario_path.write_text(json.dumps(obj))
    try:
        scenario = load_scenario(scenario_path)
    except ValidationError:
        return
    for name, solve in SOLVERS.items():
        value = objective(scenario, solve(scenario, rng=np.random.default_rng(0)))
        assert math.isfinite(value), (path, name, value)


def log_uniform(low_exponent):
    """Floats drawn log-uniform from 10**low_exponent to 1e308."""
    return st.floats(low_exponent, 308).map(lambda e: 10.0 ** e)


@st.composite
def devices(draw):
    return DeviceProfile("drawn", step_slope=draw(log_uniform(-12)),
                         step_intercept=draw(log_uniform(-12)))


@st.composite
def wide_range_scenarios(draw):
    """1 to 6 users whose every latency and weight field is drawn log-uniform
    up to 1e308, the bandwidth and spectral efficiency down to 1e-308."""
    users = draw(st.integers(1, 6))
    edge = EdgeConfig(gpus=draw(st.integers(1, 16)), device=draw(devices()),
                      b_max=draw(st.integers(0, users)), slots_per_interval=100,
                      slot_duration=draw(log_uniform(-12)),
                      bandwidth_hz=draw(log_uniform(-308)),
                      spectral_efficiency=draw(log_uniform(-308)))
    return Scenario(users=[UserRequest(id=i, device=draw(devices()),
                                       alpha=draw(log_uniform(-12)),
                                       request_slot=draw(st.integers(1, 100)),
                                       prompt_bits=draw(log_uniform(-12)),
                                       intermediate_bits=draw(log_uniform(-12)))
                           for i in range(users)],
                    edge=edge, pai=PaiParams(), seed=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(wide_range_scenarios())
def test_the_range_bound_passes_only_what_the_exact_check_passes(scenario):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        model = CostModel.from_scenario(scenario)
        bound = range_bound(model, scenario.cap)
        exact = np.isfinite(corner_magnitudes(model, scenario.cap).sum())
    assert exact or not bound < RANGE_BOUND
    try:
        scenario.model
    except ValidationError:
        assert not exact
    else:
        assert exact


def test_the_range_bound_passes_generated_scenarios():
    # The exact check runs only where the bound fails, which no generated
    # scenario of the default catalog and edge does.
    for seed, users, gpus, b_max in [(1, 1, 1, 0), (2, 60, 2, 16), (3, 1000, 8, 64)]:
        scenario = scenario_of(users, b_max, gpus, seed)
        assert range_bound(scenario.model, scenario.cap) < RANGE_BOUND
