from itertools import product

import numpy as np
import pytest

from diffload.qoe import ContractError, Decision, DecisionEntry, objective
from diffload.quadratic import DENY, GRANT, absorb_linear, build_quadratic, eval_quadratic
from diffload.scenario import GeneratorConfig, default_edge, generate_scenario


def fixed_split_decision(scenario, grants, split):
    return Decision(entries=[
        DecisionEntry(granted=g, split=split if g else scenario.pai.n_total)
        for g in grants
    ])


def dense_quadratic(qf):
    """The (I, 2, I, 2) tensor A of the module docstring, built entry by entry."""
    n = len(qf.coupling)
    quad = np.zeros((n, 2, n, 2))
    for i2, i1 in product(range(n), repeat=2):
        quad[i2, GRANT, i1, GRANT] = -qf.coupling[i1] if qf.absorbed else qf.coupling[i1]
    if qf.absorbed:
        for i, j in product(range(n), (DENY, GRANT)):
            quad[i, j, i, j] = qf.linear[i, j]
    return quad


def test_single_user_has_one_quadratic_entry():
    scenario = generate_scenario(1, GeneratorConfig(user_count=1), default_edge())
    qf = build_quadratic(scenario, 80)
    assert qf.coupling.shape == (1,) and qf.coupling[0] != 0.0
    dense = dense_quadratic(qf)
    assert np.argwhere(dense != 0.0).tolist() == [[0, GRANT, 0, GRANT]]
    assert dense[0, GRANT, 0, GRANT] == qf.coupling[0]


def test_deny_couplings_are_zero():
    scenario = generate_scenario(2, GeneratorConfig(user_count=5), default_edge())
    qf = build_quadratic(scenario, 120)
    entries = np.argwhere(dense_quadratic(qf) != 0.0)
    assert len(entries) == 25
    assert all(j2 == GRANT and j1 == GRANT for _, j2, _, j1 in entries)


def test_all_deny_evaluates_to_linear_deny_sum():
    scenario = generate_scenario(3, GeneratorConfig(user_count=6), default_edge())
    qf = build_quadratic(scenario, 80)
    value = eval_quadratic(qf, [False] * 6)
    assert value == pytest.approx(qf.linear[:, DENY].sum(), rel=1e-12)


def test_quadratic_symmetric_for_identical_payloads():
    # default generator gives every user the same payload sizes
    scenario = generate_scenario(4, GeneratorConfig(user_count=4), default_edge())
    qf = build_quadratic(scenario, 100)
    assert np.all(qf.coupling == qf.coupling[0])
    flat = dense_quadratic(qf).reshape(8, 8)
    assert np.array_equal(flat, flat.T)


def test_eval_matches_direct_objective_all_patterns():
    rng = np.random.default_rng(17)
    for seed in range(12):
        n = int(rng.integers(1, 9))
        scenario = generate_scenario(seed, GeneratorConfig(user_count=n), default_edge())
        split = int(rng.integers(80, 201))
        qf = build_quadratic(scenario, split)
        folded = absorb_linear(qf)
        for bits in product([False, True], repeat=n):
            decision = fixed_split_decision(scenario, bits, split)
            # validate=False: patterns above the grant cap are still valid
            # points of the reduction, which only encodes C1.
            direct = objective(scenario, decision, validate=False)
            raw = eval_quadratic(qf, bits)
            absorbed = eval_quadratic(folded, bits)
            scale = max(1.0, abs(direct))
            assert abs(raw - direct) <= 1e-9 * scale
            assert abs(absorbed - direct) <= 1e-9 * scale


def test_absorption_identity_three_users():
    scenario = generate_scenario(23, GeneratorConfig(user_count=3), default_edge())
    qf = build_quadratic(scenario, 80)
    folded = absorb_linear(qf)
    for bits in product([False, True], repeat=3):
        assert eval_quadratic(folded, bits) == pytest.approx(
            eval_quadratic(qf, bits), rel=1e-12, abs=1e-12)


def test_absorbing_zero_quadratic_leaves_linear_on_diagonal():
    scenario = generate_scenario(6, GeneratorConfig(user_count=3), default_edge())
    qf = build_quadratic(scenario, 80)
    qf.coupling[:] = 0.0
    folded = absorb_linear(qf)
    assert np.array_equal(folded.linear, qf.linear)
    assert np.all(folded.coupling == 0.0)


def test_double_absorption_rejected():
    scenario = generate_scenario(7, GeneratorConfig(user_count=2), default_edge())
    folded = absorb_linear(build_quadratic(scenario, 80))
    with pytest.raises(ContractError):
        absorb_linear(folded)


def test_build_rejects_split_outside_domain():
    scenario = generate_scenario(8, GeneratorConfig(user_count=2), default_edge())
    with pytest.raises(ContractError):
        build_quadratic(scenario, 79)
    with pytest.raises(ContractError):
        build_quadratic(scenario, 201)

