import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffload.env import (
    DENIED,
    GRANTED,
    IN_PROGRESS,
    PENDING,
    EnvState,
    EpisodeRecord,
    assign_rewards,
    decision_from_state,
    encode,
    processing_order,
    reset,
    run_episode,
    step,
)
from diffload.costmodel import SplitTable
from diffload.qoe import (ContractError, Decision, DecisionEntry, fitted_pai, objective,
                          validate_decision)
from diffload.scenario import GeneratorConfig, ValidationError, default_edge, generate_scenario
from diffload.split import optimal_split


def make_scenario(seed=0, users=5, b_max=16, gpus=8):
    return generate_scenario(seed, GeneratorConfig(user_count=users),
                             default_edge(gpus=gpus, b_max=b_max))


def rollout(scenario, actions):
    """Drive the env with a fixed action list (padded with denies)."""
    record_actions = iter(list(actions) + [0] * scenario.user_count)
    state = reset(scenario)
    states = [state]
    while not state.done:
        state = step(state, next(record_actions))
        states.append(state)
    return states


def test_reset_marks_first_user_in_progress():
    scenario = make_scenario(users=3)
    state = reset(scenario)
    assert state.statuses.count(IN_PROGRESS) == 1
    assert state.statuses.count(PENDING) == 2
    assert state.cursor == 0
    assert state.pending == 2 and state.granted == 0 and state.denied == 0


def test_reset_orders_by_request_slot_then_id():
    scenario = make_scenario(seed=9, users=8)
    state = reset(scenario)
    slots = [scenario.users[i].request_slot for i in state.user_ids]
    assert slots == sorted(slots)
    order = processing_order(scenario)
    assert list(state.user_ids) == [scenario.users[i].id for i in order]


def test_reset_is_deterministic():
    scenario = make_scenario(users=4)
    assert reset(scenario) == reset(scenario)


def test_reset_rejects_empty_or_capless():
    scenario = make_scenario(users=3)
    with pytest.raises(ValidationError, match="b_max"):
        reset(make_scenario(users=3, b_max=0))


def test_step_is_pure():
    scenario = make_scenario(users=4)
    state = reset(scenario)
    a = step(state, 1)
    b = step(state, 1)
    assert a == b


def test_grant_cap_denies_remaining():
    scenario = make_scenario(users=3, b_max=1)
    state = reset(scenario)
    state = step(state, 1)
    assert state.done
    assert state.granted == 1
    assert state.denied == 2
    assert state.statuses.count(DENIED) == 2
    assert state.cursor == -1


def test_all_deny_runs_full_length():
    scenario = make_scenario(users=6)
    states = rollout(scenario, [0] * 6)
    assert len(states) == 7  # reset state + one per user
    final = states[-1]
    assert final.done and final.denied == 6 and final.granted == 0


def test_counters_conserved_along_any_trajectory():
    rng = np.random.default_rng(5)
    for seed in range(10):
        scenario = make_scenario(seed=seed, users=int(rng.integers(2, 12)),
                                 b_max=int(rng.integers(1, 8)))
        state = reset(scenario)
        while not state.done:
            assert state.pending + state.granted + state.denied + 1 == scenario.user_count
            assert state.granted <= state.b_max
            state = step(state, int(rng.integers(2)))
        assert state.pending == 0
        assert state.granted + state.denied == scenario.user_count


def test_episode_length_bounded_and_early_stop_iff_cap():
    rng = np.random.default_rng(6)
    for seed in range(20):
        users = int(rng.integers(2, 10))
        b_max = int(rng.integers(1, 6))
        scenario = make_scenario(seed=seed, users=users, b_max=b_max)
        actions = [int(rng.integers(2)) for _ in range(users)]
        states = rollout(scenario, actions)
        steps = len(states) - 1
        assert steps <= users
        final = states[-1]
        if steps < users:
            assert final.granted == b_max
        else:
            assert final.granted <= b_max


def test_step_on_terminal_rejected():
    scenario = make_scenario(users=2, b_max=1)
    state = reset(scenario)
    state = step(state, 1)
    assert state.done
    with pytest.raises(ContractError):
        step(state, 0)


# -- encoding -----------------------------------------------------------------

def test_encode_layout_and_in_progress_first():
    scenario = make_scenario(users=5)
    state = reset(scenario)
    state = step(state, 1)
    state = step(state, 0)
    feats = encode(state, i_max=8)
    assert feats.shape == (8 * 4 + 6,)
    assert feats[3] == IN_PROGRESS  # token of the first encoded slot
    # padding slots carry the denied token and zero statics
    for pos in range(5, 8):
        base = pos * 4
        assert feats[base] == 0 and feats[base + 1] == 0 and feats[base + 2] == 0
        assert feats[base + 3] == DENIED


def test_encode_rejects_oversized_state():
    scenario = make_scenario(users=5)
    with pytest.raises(ContractError):
        encode(reset(scenario), i_max=4)


def test_encode_globals_normalized():
    scenario = make_scenario(users=5, b_max=16)
    state = reset(scenario)
    feats = encode(state, i_max=10)
    g = 10 * 4
    assert feats[g] == pytest.approx(16 / 10)
    assert feats[g + 1] == pytest.approx(scenario.edge.device.step_slope / scenario.edge.gpus)
    assert feats[g + 2] == pytest.approx(scenario.edge.device.step_intercept)
    assert feats[g + 3] == pytest.approx(4 / 10)
    assert feats[g + 4] == 0.0
    assert feats[g + 5] == 0.0


def test_encode_invariant_under_rotation():
    # Two states that are global rotations of one another, with cursors on
    # the same user, encode identically.
    scenario = make_scenario(seed=3, users=6)
    base = reset(scenario)
    shift = 2
    rotate = lambda t: tuple(t[(i + shift) % 6] for i in range(6))
    rotated = EnvState(
        scenario=base.scenario,
        user_ids=rotate(base.user_ids),
        statuses=rotate(base.statuses),
        cursor=(base.cursor - shift) % 6,
    )
    assert np.array_equal(encode(base, 8), encode(rotated, 8))


def test_encode_alpha_scaling():
    scenario = make_scenario(users=3)
    state = reset(scenario)
    raw = encode(state, 4, alpha_scale=1.0)
    scaled = encode(state, 4, alpha_scale=10.0)
    assert scaled[0] == pytest.approx(raw[0] / 10.0)


# -- rewards ------------------------------------------------------------------

def test_all_deny_rewards_are_accuracy_credits():
    scenario = make_scenario(seed=2, users=5)
    record = run_episode(scenario, lambda f: 0, i_max=5)
    rewards = assign_rewards(record)
    f_total = fitted_pai(scenario.pai.n_total, scenario.pai)
    ordered_users = [scenario.users[i] for i in record.handled_order]
    for user, r in zip(ordered_users[:-1], rewards[:-1]):
        assert r == pytest.approx(user.alpha * f_total, rel=1e-12)


def test_reward_sum_identity_random_policies():
    rng = np.random.default_rng(8)
    for trial in range(100):
        users = int(rng.integers(1, 12))
        b_max = int(rng.integers(1, 18))
        scenario = make_scenario(seed=trial, users=users, b_max=b_max)
        record = run_episode(scenario, lambda f: int(rng.integers(2)), i_max=users)
        rewards = assign_rewards(record)
        assert len(rewards) == len(record.actions)
        total = objective(scenario, decision_from_state(record.final_state))
        assert sum(rewards) == pytest.approx(total, rel=1e-9, abs=1e-9)


@st.composite
def episodes(draw):
    """A scenario of 1-11 users with b_max 1-17, the encoder's settings, and one action per user."""
    users = draw(st.integers(1, 11))
    scenario = make_scenario(seed=draw(st.integers(0, 2**31 - 1)), users=users,
                             b_max=draw(st.integers(1, 17)))
    i_max = users + draw(st.integers(0, 3))
    alpha_scale = draw(st.sampled_from([1.0, 250.0]))
    actions = draw(st.lists(st.integers(0, 1), min_size=users, max_size=users))
    return scenario, i_max, alpha_scale, actions


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(episodes())
def test_episode_record_encodes_each_state_and_its_rewards_sum_to_the_objective(episode):
    scenario, i_max, alpha_scale, actions = episode
    chosen = iter(actions)
    record = run_episode(scenario, lambda features: next(chosen), i_max, alpha_scale)
    assert len(record.features) == len(record.actions) + 1
    state = reset(scenario)
    for t, action in enumerate(record.actions):
        assert np.array_equal(record.features[t], encode(state, i_max, alpha_scale))
        assert record.handled_order[t] == state.user_ids[state.cursor]
        assert action == actions[t]
        state = step(state, int(action))
    # `step` raises on a terminal state, so the episode took exactly these steps.
    assert state.done and state == record.final_state
    assert np.array_equal(record.features[-1], encode(state, i_max, alpha_scale))
    rewards = assign_rewards(record)
    assert len(rewards) == len(record.actions)
    total = objective(scenario, decision_from_state(state))
    assert sum(rewards) == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_single_user_terminal_reward_is_full_objective():
    scenario = make_scenario(seed=4, users=1)
    record = run_episode(scenario, lambda f: 1, i_max=1)
    rewards = assign_rewards(record)
    assert len(rewards) == 1
    decision = decision_from_state(record.final_state)
    assert rewards[0] == pytest.approx(objective(scenario, decision), rel=1e-12)


def test_final_decision_always_feasible():
    rng = np.random.default_rng(10)
    for trial in range(50):
        scenario = make_scenario(seed=100 + trial, users=int(rng.integers(1, 10)),
                                 b_max=int(rng.integers(1, 6)))
        record = run_episode(scenario, lambda f: int(rng.integers(2)),
                             i_max=scenario.user_count)
        decision = decision_from_state(record.final_state)
        validate_decision(scenario, decision)  # raises on any violation


def per_user_decision(state, scenario):
    """The per-user split loop that `decision_from_state` replaced, kept as its reference."""
    granted_ids = {state.user_ids[i] for i, s in enumerate(state.statuses) if s == GRANTED}
    m = len(granted_ids)
    entries = []
    for user in scenario.users:
        if user.id in granted_ids:
            res = optimal_split(user, m, scenario.edge, scenario.pai)
            entries.append(DecisionEntry(granted=True, split=res.split))
        else:
            entries.append(DecisionEntry(granted=False, split=scenario.pai.n_total))
    return Decision(entries=entries)


def test_decision_from_state_matches_per_user_split_loop():
    rng = np.random.default_rng(12)
    for trial in range(150):
        users = int(rng.integers(1, 40))
        scenario = make_scenario(seed=200 + trial, users=users, b_max=int(rng.integers(1, 20)),
                                 gpus=int(rng.integers(1, 17)))
        grant_rate = rng.uniform()
        record = run_episode(scenario, lambda f: int(rng.uniform() < grant_rate), i_max=users)
        decision = decision_from_state(record.final_state)
        reference = per_user_decision(record.final_state, scenario)
        assert decision == reference
        assert [type(e.granted) for e in decision.entries] == [bool] * users
        assert [type(e.split) for e in decision.entries] == [int] * users



@pytest.mark.parametrize("grant_rate", [0.0, 1.0, 0.5])
def test_decision_from_state_is_the_split_table_decision(grant_rate):
    # Grant rates 0 and 1 end at m = 0 and at the cap; 0.5 ends in between.
    rng = np.random.default_rng(int(grant_rate * 10) + 40)
    for trial in range(40):
        users = int(rng.integers(1, 40))
        scenario = make_scenario(seed=400 + trial, users=users, b_max=int(rng.integers(1, 20)),
                                 gpus=int(rng.integers(1, 17)))
        record = run_episode(scenario, lambda f: int(rng.uniform() < grant_rate), i_max=users)
        state = record.final_state
        if grant_rate == 0.0:
            assert state.granted == 0
        elif grant_rate == 1.0:
            assert state.granted == min(users, scenario.edge.b_max)
        grants = [False] * users
        for user_id, status in zip(state.user_ids, state.statuses):
            grants[user_id] = status == GRANTED
        assert decision_from_state(state) == SplitTable(scenario).decision(grants)

def test_rewards_require_complete_episode():
    scenario = make_scenario(users=3)
    record = EpisodeRecord(features=np.zeros((1, 18)), actions=np.zeros(0, dtype=np.int64),
                           final_state=reset(scenario))
    with pytest.raises(ContractError):
        assign_rewards(record)
