"""The array cost model against the scalar reference, and the oracle built on it."""

import ast
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import diffload
from diffload.baselines import (
    SOLVERS,
    SplitTable,
    grant_count_totals,
    ranked_gains,
    solve_count_oracle,
    solve_exhaustive,
)
from diffload.costmodel import CostModel, sequential_sum
from diffload.dqn import ScenarioSource, TrainHyper, train
from diffload.qoe import (
    ContractError,
    Decision,
    DecisionEntry,
    e2e_latency,
    objective,
    user_qoe,
    validate_decision,
)
from diffload.scenario import (
    DeviceProfile,
    GeneratorConfig,
    PaiParams,
    Scenario,
    UserRequest,
    ValidationError,
    default_edge,
    fitted_pai,
    generate_scenario,
    save_scenario,
    scenario_to_dict,
)
from diffload.split import (
    INTERIOR_ROOT,
    LATENCY_SATURATED,
    LOCAL_DOMINATES,
    PAI_SATURATED,
    optimal_split,
)
from diffload.sweep import SOLVER_NAMES, solve


def make_scenario(seed, users, b_max, gpus=8):
    return generate_scenario(seed, GeneratorConfig(user_count=users),
                             default_edge(gpus=gpus, b_max=b_max), PaiParams())


def wide_scenario(rng, users, b_max):
    """Users and an edge drawn as in criterion 3, so every split case occurs."""
    edge = replace(default_edge(gpus=int(rng.integers(1, 17)), b_max=b_max),
                   device=DeviceProfile("e", float(rng.uniform(0, 0.05)),
                                        float(rng.uniform(0.005, 0.2))))
    population = [
        UserRequest(i, DeviceProfile("d", float(rng.uniform(0, 0.1)),
                                     float(rng.uniform(0.02, 1.2))),
                    float(rng.uniform(0.5, 320.0)), int(rng.integers(1, 101)),
                    216.0, 4.4e6)
        for i in range(users)]
    return Scenario(users=population, edge=edge, pai=PaiParams(), seed=0)


def per_m_sort_oracle(scenario):
    """The count oracle as a loop: per m, sort (-gain, index) and take the top m."""
    n = scenario.user_count
    table = SplitTable(scenario)
    deny_total = sum(float(table.deny[i]) for i in range(n))
    best_value, best_set = deny_total, set()
    for m in range(1, table.cap + 1):
        gains = sorted(((table.granted(i, m)[1] - float(table.deny[i]), i) for i in range(n)),
                       key=lambda t: (-t[0], t[1]))
        value = deny_total + sum(gain for gain, _ in gains[:m])
        if value > best_value:
            best_value, best_set = value, {i for _, i in gains[:m]}
    return best_set


def test_grid_matches_scalar_split_and_value_in_every_case():
    """Every (user, m) cell equals the scalar reference bit for bit."""
    rng = np.random.default_rng(2024)
    cases = Counter()
    for _ in range(30):
        scenario = wide_scenario(rng, users=12, b_max=20)
        with warnings.catch_warnings():
            # The interior root runs on every cell; a stray nan or inf must not warn.
            warnings.simplefilter("error")
            table = SplitTable(scenario)
        for (i, user), m in product(enumerate(scenario.users), range(1, table.cap + 1)):
            res = optimal_split(user, m, scenario.edge, scenario.pai)
            cases[res.case] += 1
            split, value = table.granted(i, m)
            assert split == res.split
            assert value == res.inner_value
            assert value == user_qoe(user, DecisionEntry(granted=True, split=split), m,
                                     scenario.edge, scenario.pai)
        for i, user in enumerate(scenario.users):
            deny = user_qoe(user, DecisionEntry(granted=False, split=scenario.pai.n_total),
                            0, scenario.edge, scenario.pai)
            assert float(table.deny[i]) == deny
    assert set(cases) == {LOCAL_DOMINATES, PAI_SATURATED, LATENCY_SATURATED, INTERIOR_ROOT}


def test_fixed_split_grid_matches_scalar_value():
    scenario = make_scenario(seed=4, users=9, b_max=6)
    model = CostModel.from_scenario(scenario)
    for split in (80, 131, 200):
        grid = model.granted(split, np.arange(1, 7))
        for i, user in enumerate(scenario.users):
            for m in range(1, 7):
                expected = user_qoe(user, DecisionEntry(granted=True, split=split), m,
                                    scenario.edge, scenario.pai)
                assert grid[m - 1, i] == pytest.approx(expected, rel=1e-12)


def argsort_count_totals(table):
    """The oracle's totals as first written: a stable argsort of every m's gains."""
    deny_total = sequential_sum(table.deny)
    if table.cap == 0:
        return np.array([deny_total])
    gains = table.values - table.deny
    order = np.argsort(-gains, axis=1, kind="stable")
    top = np.cumsum(np.take_along_axis(gains, order, axis=1), axis=1)
    return deny_total + np.concatenate(([0.0], top.diagonal()))


def test_oracle_matches_per_m_sort_reference():
    rng = np.random.default_rng(77)
    scenarios = []
    for seed in range(40):
        users = int(rng.integers(1, 40))
        scenarios.append(make_scenario(seed, users, b_max=int(rng.integers(0, users + 3)),
                                       gpus=int(rng.choice([1, 2, 4, 8, 16]))))
    # Far more users than grants: each sort ranks many more users than it keeps.
    scenarios += [make_scenario(seed, users, b_max, gpus=gpus) for seed, (users, b_max, gpus)
                  in enumerate(product((200, 1000), (16, 64), (1, 8)), start=40)]
    for scenario in scenarios:
        table = SplitTable(scenario)
        ranked = ranked_gains(table.values, table.deny)
        assert np.array_equal(grant_count_totals(table.deny, ranked), argsort_count_totals(table))
        decision = solve_count_oracle(scenario)
        granted = {i for i, e in enumerate(decision.entries) if e.granted}
        assert granted == per_m_sort_oracle(scenario)


def test_oracle_breaks_a_tie_across_the_cut_toward_lower_ids():
    # Copies of one user, at scattered ids among distinct users: where the
    # chosen count cuts through the copies, the lowest-id copies are granted.
    base = make_scenario(seed=11, users=10, b_max=1).users
    population = list(base) + [base[4]] * 5
    positions = np.random.default_rng(3).permutation(len(population))
    users = [replace(population[p], id=i) for i, p in enumerate(positions)]
    copies = [i for i, p in enumerate(positions) if population[p] == base[4]]
    straddled = 0
    for b_max in range(1, len(users) + 1):
        scenario = Scenario(users=users, edge=default_edge(gpus=8, b_max=b_max),
                            pai=PaiParams(), seed=0)
        table = SplitTable(scenario)
        ranked = ranked_gains(table.values, table.deny)
        assert np.array_equal(grant_count_totals(table.deny, ranked), argsort_count_totals(table))
        decision = solve_count_oracle(scenario)
        granted = {i for i, e in enumerate(decision.entries) if e.granted}
        assert granted == per_m_sort_oracle(scenario)
        won = [i for i in copies if i in granted]
        assert won == copies[:len(won)]
        straddled += 0 < len(won) < len(copies)
    assert straddled > 0


def test_oracle_breaks_equal_gains_toward_lower_index():
    # Identical users have identical gains; the oracle grants the lowest ids.
    base = make_scenario(seed=3, users=1, b_max=3).users[0]
    users = [replace(base, id=i) for i in range(6)]
    scenario = Scenario(users=users, edge=default_edge(gpus=8, b_max=3),
                        pai=PaiParams(), seed=0)
    decision = solve_count_oracle(scenario)
    granted = [i for i, e in enumerate(decision.entries) if e.granted]
    assert granted == sorted(per_m_sort_oracle(scenario))
    assert granted == list(range(len(granted)))


@pytest.mark.parametrize("users", [0, 1])
@pytest.mark.parametrize("full_cap", [False, True])
def test_degenerate_sizes_through_table_and_oracle(users, full_cap):
    rng = np.random.default_rng(users * 2 + full_cap)
    for _ in range(10):
        b_max = users if full_cap else 0
        scenario = wide_scenario(rng, users=users, b_max=b_max)
        table = SplitTable(scenario)
        assert table.cap == min(users, b_max)
        assert table.splits.shape == table.values.shape == (table.cap, users)
        decision = solve_count_oracle(scenario)
        validate_decision(scenario, decision)
        best = objective(scenario, solve_exhaustive(scenario))
        assert objective(scenario, decision) == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_table_rejects_grant_counts_outside_its_grid():
    table = SplitTable(make_scenario(seed=1, users=5, b_max=3))
    for m in (0, 4):
        with pytest.raises(ContractError, match="grant count"):
            table.granted(0, m)


def loop_value(table, grants):
    """A grant row's objective added user by user, as a Python loop adds."""
    m = sum(grants)
    total = 0.0
    for i, granted in enumerate(grants):
        total += float(table.values[m - 1, i] if granted else table.deny[i])
    return total


@pytest.mark.parametrize("users, b_max", [(12, 5), (9, 20), (1, 1), (1, 0), (6, 0)])
def test_row_values_is_the_per_row_loop_bit_for_bit(users, b_max):
    rng = np.random.default_rng(users * 31 + b_max)
    for _ in range(5):
        table = SplitTable(wide_scenario(rng, users=users, b_max=b_max))
        rows = [np.zeros(users, dtype=bool)]  # m = 0
        for m in range(1, table.cap + 1):  # every m up to cap, random members
            row = np.zeros(users, dtype=bool)
            row[rng.choice(users, size=m, replace=False)] = True
            rows.append(row)
        grants = np.array(rows)
        values = table.row_values(grants)
        assert values.shape == (len(rows),)
        for row, value in zip(grants, values.tolist()):
            assert value == table.value(row) == loop_value(table, row.tolist())


def test_row_values_rejects_a_row_above_cap():
    table = SplitTable(make_scenario(seed=1, users=5, b_max=3))
    grants = np.zeros((3, 5), dtype=bool)
    grants[1, :4] = True
    with pytest.raises(ContractError, match="grant count 4"):
        table.row_values(grants)
    with pytest.raises(ContractError, match="grant count 4"):
        table.value(grants[1])



def fresh_grids(model, counts):
    """The grids of a call made in a new thread, whose workspace starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(model.optimal_splits, counts).result()


@pytest.mark.parametrize("smaller_first", [False, True])
def test_grids_after_a_larger_and_a_smaller_call_equal_fresh_ones(smaller_first):
    rng = np.random.default_rng(21)
    model = CostModel.from_scenario(wide_scenario(rng, users=30, b_max=12))
    counts = np.arange(1, 13)
    expected = fresh_grids(model, counts)
    others = ((80, 40), (5, 3))
    for users, b_max in others[::-1] if smaller_first else others:
        other = CostModel.from_scenario(wide_scenario(rng, users=users, b_max=b_max))
        other.optimal_splits(np.arange(1, b_max + 1))
        for got, want in zip(model.optimal_splits(counts), expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_split_table_grids_survive_later_grid_calls():
    rng = np.random.default_rng(22)
    table = SplitTable(wide_scenario(rng, users=30, b_max=12))
    splits, values = table.splits.copy(), table.values.copy()
    for users, b_max in ((80, 40), (30, 12), (5, 3)):
        scenario = wide_scenario(rng, users=users, b_max=b_max)
        CostModel.from_scenario(scenario).optimal_splits(np.arange(1, b_max + 1))
        SplitTable(scenario)
        solve_count_oracle(scenario)
    assert np.array_equal(table.splits, splits) and np.array_equal(table.values, values)


def test_warm_oracle_call_allocates_less_than_one_full_grid():
    # A warm call fills its grids in the workspace. Its traced peak stays below
    # one (1000, 64) float grid, 512 KB; it was about 750 KB when every call
    # made its own grid temporaries.
    scenario = make_scenario(seed=20101, users=1000, b_max=64)
    for _ in range(2):
        solve_count_oracle(scenario)
    tracemalloc.start()
    try:
        solve_count_oracle(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * 64 * 8

@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_every_solver_returns_the_empty_decision_for_no_users(name):
    scenario = replace(make_scenario(seed=2, users=3, b_max=4), users=[])
    decision = SOLVERS[name](scenario, rng=np.random.default_rng(0))
    assert decision.entries == []
    assert objective(scenario, decision) == 0


def assert_breakdown_is_the_scalar_model(scenario, decision):
    """Every user's breakdown equals alpha * fitted_pai and the e2e_latency parts exactly."""
    parts = CostModel.from_scenario(scenario).breakdown(decision)
    columns = [parts.pai_term, parts.rtt, parts.uplink_downlink, parts.edge_compute,
               parts.local_compute, parts.total]
    assert all(c.shape == (scenario.user_count,) for c in columns)
    m = decision.grant_count
    expected = []
    for user, entry in zip(scenario.users, decision.entries):
        lat = e2e_latency(user, entry, m, scenario.edge, scenario.pai.n_total)
        expected.append((user.alpha * fitted_pai(entry.split, scenario.pai), lat.rtt,
                         lat.uplink_downlink, lat.edge_compute, lat.local_compute, lat.total))
    assert list(zip(*(c.tolist() for c in columns))) == expected
    assert sequential_sum(parts.pai_term - parts.total) == objective(scenario, decision)


def test_breakdown_is_the_scalar_model_for_every_user():
    rng = np.random.default_rng(606)
    cases, shapes = Counter(), Counter()
    for k in range(160):
        users = 0 if k % 16 == 0 else int(rng.integers(1, 25))
        scenario = wide_scenario(rng, users, b_max=int(rng.integers(0, users + 3)))
        table = SplitTable(scenario)
        m = (0, table.cap)[k % 2] if k % 3 == 0 else int(rng.integers(0, table.cap + 1))
        grants = np.zeros(users, dtype=bool)
        grants[rng.permutation(users)[:m]] = True
        for i in np.flatnonzero(grants):
            cases[optimal_split(scenario.users[i], m, scenario.edge, scenario.pai).case] += 1
        shapes["no users"] += users == 0
        shapes["no grants"] += users > 0 and m == 0
        shapes["full cap"] += 0 < m == table.cap
        assert_breakdown_is_the_scalar_model(scenario, table.decision(grants))
    assert set(cases) == {LOCAL_DOMINATES, PAI_SATURATED, LATENCY_SATURATED, INTERIOR_ROOT}
    assert all(shapes[name] > 0 for name in ("no users", "no grants", "full cap"))


def test_breakdown_at_a_pinned_split_for_every_grant_pattern():
    scenario = make_scenario(seed=11, users=6, b_max=6)
    for bits in product([False, True], repeat=6):
        decision = Decision(entries=[
            DecisionEntry(granted=g, split=80 if g else 200) for g in bits])
        assert_breakdown_is_the_scalar_model(scenario, decision)


def test_accuracy_table_is_shared_and_read_only():
    a = CostModel.from_scenario(make_scenario(seed=1, users=3, b_max=2))
    b = CostModel.from_scenario(make_scenario(seed=2, users=5, b_max=4))
    assert a.accuracy is b.accuracy
    assert a.accuracy.tolist() == [fitted_pai(n, a.pai) for n in range(a.pai.n_total + 1)]
    with pytest.raises(ValueError, match="read-only"):
        a.accuracy[0] = 0.5


# Each guarded function and the modules allowed to call it. Every other module
# reads the scalar model through the cost model. The grids `optimal_splits`
# returns are workspace views that the next call overwrites, so a new caller
# needs a review of how long it holds them. Solvers read fixed-split values
# through the quadratic form (`quadratic.build_quadratic`), not `granted`.
ALLOWED_CALLERS = {
    "e2e_latency": {"qoe.py", "split.py"},
    "user_qoe": {"qoe.py", "split.py"},
    "optimal_split": {"qoe.py", "split.py"},
    "fitted_pai": {"scenario.py", "costmodel.py", "qoe.py", "split.py"},
    "marginal_pai_rate": {"scenario.py", "costmodel.py", "split.py"},
    "stationary_point": {"scenario.py", "costmodel.py", "split.py"},
    "optimal_splits": {"costmodel.py", "baselines.py", "env.py"},
    "granted": {"costmodel.py", "quadratic.py"},
}


def test_only_the_reference_modules_call_the_scalar_model():
    package = Path(diffload.__file__).parent
    calls = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ALLOWED_CALLERS and module not in ALLOWED_CALLERS[name]:
                calls.append(f"{module}:{node.lineno} calls {name}")
    assert calls == []


# The model's primitives. Each is defined in scenario.py and nowhere else, and
# the scalar reference split.py reads them from there, not from the array
# model it is the reference for.
PRIMITIVES = {"marginal_pai_rate", "stationary_point", "fitted_pai", "step_latency_local",
              "step_latency_edge"}


def _defined_names(tree):
    """(line, name) of every function and every name bound by `=` in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.lineno, node.name
        elif isinstance(node, ast.Assign):
            yield from ((node.lineno, t.id) for t in node.targets if isinstance(t, ast.Name))


def _imported_modules(tree):
    """(line, module) of every module an import in `tree` names, `from . import x` as x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            yield from ((node.lineno, name) for name in names)


def test_the_primitives_are_defined_in_scenario_only():
    package = Path(diffload.__file__).parent
    found, in_scenario = [], set()
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text())
        for line, name in _defined_names(tree):
            if name in PRIMITIVES and module == "scenario.py":
                in_scenario.add(name)
            elif name in PRIMITIVES:
                found.append(f"{module}:{line} defines {name}")
        if module == "split.py":
            found.extend(f"{module}:{line} imports {name}"
                         for line, name in _imported_modules(tree)
                         if name.split(".")[-1] == "costmodel")
    assert found == []
    assert in_scenario == PRIMITIVES


def _from_scenario_calls(tree, scope=()):
    """(line, dotted name of the enclosing class and function) of every
    ``….from_scenario(…)`` call in `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _from_scenario_calls(node, (*scope, node.name))
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_scenario"):
            yield node.lineno, ".".join(scope)
        yield from _from_scenario_calls(node, scope)


def test_the_model_is_built_in_scenario_model_only():
    package = Path(diffload.__file__).parent
    sites = [(path.relative_to(package).as_posix(), scope, line)
             for path in sorted(package.rglob("*.py"))
             for line, scope in _from_scenario_calls(ast.parse(path.read_text()))]
    assert [(module, scope) for module, scope, _ in sites] == [("scenario.py", "Scenario.model")], sites


def test_the_cached_model_stays_out_of_values_and_files(tmp_path):
    scenario = make_scenario(seed=4, users=6, b_max=3)
    as_dict = scenario_to_dict(scenario)
    save_scenario(scenario, tmp_path / "before.json")
    model = scenario.model
    assert scenario.model is model
    save_scenario(scenario, tmp_path / "after.json")
    assert scenario_to_dict(scenario) == as_dict
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    assert replace(scenario) == scenario
    first = replace(scenario.users[0], alpha=2 * scenario.users[0].alpha)
    other = replace(scenario, users=[first, *scenario.users[1:]],
                    edge=replace(scenario.edge, gpus=2))
    assert other.model is not model
    assert other.model.edge == other.edge
    assert other.model.alpha[0] == first.alpha
    assert np.array_equal(other.model.alpha[1:], model.alpha[1:])


def every_device_at_1e308():
    """`generate --seed 3 --users 5` with every device's slope and intercept,
    the users' and the edge's, at 1e308, on one edge GPU."""
    scenario = generate_scenario(3, GeneratorConfig(user_count=5), default_edge())

    def slowest(device):
        return replace(device, step_slope=1e308, step_intercept=1e308)

    return replace(scenario, users=[replace(u, device=slowest(u.device)) for u in scenario.users],
                   edge=replace(scenario.edge, gpus=1, device=slowest(scenario.edge.device)))


OUT_OF_RANGE = r"^users\[0\]\.device\.step_slope: 1e\+308 puts the model of user 0 out of"


@pytest.fixture(scope="module")
def five_user_policy():
    source = ScenarioSource(scope="specific", generator=GeneratorConfig(user_count=5),
                            edge=default_edge(), pai=PaiParams(), seed=1)
    return train(source, TrainHyper(episodes=1), seed=1).policy


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_every_solver_rejects_an_in_memory_scenario_out_of_range(five_user_policy, name):
    # oracle, b1, ga and exhaustive used to end in an IndexError and bnb in an
    # AssertionError; b2, b3 and dqn returned a decision, warning of overflow.
    with pytest.raises(ValidationError, match=OUT_OF_RANGE):
        solve(name, every_device_at_1e308(), seed=0, policy=five_user_policy)


def test_a_fixed_training_scenario_out_of_range_is_rejected():
    # Training on it used to return episode returns of -inf.
    with pytest.raises(ValidationError, match=OUT_OF_RANGE):
        ScenarioSource(scope="specific", generator=GeneratorConfig(user_count=5),
                       edge=default_edge(), pai=PaiParams(), seed=1,
                       fixed_scenario=every_device_at_1e308())
