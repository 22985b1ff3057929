import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from diffload.dqn.network import Adam, QNetwork
from diffload.dqn.replay import ReplayBuffer
from diffload.dqn.training import (
    LEARNING_RATE,
    REWARD_SCALE,
    ScenarioSource,
    TrainedPolicy,
    TrainHyper,
    _push_episode,
    greedy_action,
    greedy_rollout,
    greedy_solve,
    linear_schedule,
    load_policy,
    save_policy,
    select_action,
    td_targets,
    train,
    train_step,
)
from diffload.env import assign_rewards, decision_from_state, run_episode
from diffload.qoe import objective, validate_decision
from diffload.scenario import GeneratorConfig, PaiParams, ValidationError, default_edge, generate_scenario


def make_source(scope="specific", users=6, seed=0, **kwargs):
    return ScenarioSource(
        scope=scope,
        generator=GeneratorConfig(user_count=users),
        edge=default_edge(),
        pai=PaiParams(),
        seed=seed,
        **kwargs,
    )


def tiny_hyper(**kwargs):
    defaults = dict(episodes=40, target_sync=50, capacity=4000,
                    batch_size=16, terminal_quota=2, train_every=2)
    defaults.update(kwargs)
    return TrainHyper(**defaults)


# -- schedules and action selection -------------------------------------------

def test_linear_schedule_endpoints_and_monotone():
    values = [linear_schedule(0.5, 0.001, t, 100) for t in range(0, 130, 10)]
    assert values[0] == 0.5
    assert values[-1] == 0.001
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_select_action_greedy_when_eps_zero():
    net = QNetwork(i_max=2, hidden=(8,))
    rng = np.random.default_rng(0)
    feats = np.zeros(net.feature_dim)
    for key in net.params:
        net.params[key][:] = 0.0
    # zero net: q = (0, 0), exact tie resolves to deny
    assert select_action(net, feats, eps=0.0, tau=1.0, rng=rng) == 0


def test_greedy_tie_breaks_to_deny():
    assert greedy_action(np.array([0.0, 0.0])) == 0
    assert greedy_action(np.array([0.1, 0.2])) == 1
    assert greedy_action(np.array([0.3, 0.2])) == 0


def test_boltzmann_equal_q_is_fair_coin():
    net = QNetwork(i_max=2, hidden=(8,))
    for key in net.params:
        net.params[key][:] = 0.0
    rng = np.random.default_rng(42)
    feats = np.zeros(net.feature_dim)
    draws = [select_action(net, feats, eps=1.0, tau=5.0, rng=rng) for _ in range(10_000)]
    assert np.mean(draws) == pytest.approx(0.5, abs=0.02)


def test_boltzmann_low_temperature_concentrates():
    rng = np.random.default_rng(1)
    net = QNetwork(i_max=2, hidden=(8,), rng=rng)
    feats = np.zeros(net.feature_dim)
    q = net.forward(feats)
    best = int(np.argmax(q))
    draws = [select_action(net, feats, eps=1.0, tau=1e-4, rng=rng) for _ in range(200)]
    assert all(a == best for a in draws)


# -- targets -------------------------------------------------------------------

def test_terminal_targets_do_not_bootstrap():
    net = QNetwork(i_max=2, hidden=(8,))
    rewards = np.array([1.5, -2.0])
    feats = np.zeros((2, net.feature_dim))
    dones = np.array([True, True])
    y = td_targets(rewards, feats, dones, net)
    assert np.array_equal(y, rewards)


def test_zero_target_net_targets_equal_rewards():
    net = QNetwork(i_max=2, hidden=(8,))
    for key in net.params:
        net.params[key][:] = 0.0
    rewards = np.array([0.3, 0.7, -0.2])
    feats = np.zeros((3, net.feature_dim))
    dones = np.array([False, False, True])
    y = td_targets(rewards, feats, dones, net)
    assert np.allclose(y, rewards)


def test_live_targets_add_max_next_q():
    rng = np.random.default_rng(2)
    net = QNetwork(i_max=2, hidden=(8,), rng=rng)
    feats = rng.normal(size=(1, net.feature_dim))
    for u in range(2):
        feats[:, u * 4 + 3] = 1
    rewards = np.array([0.0])
    y = td_targets(rewards, feats, np.array([False]), net)
    assert y[0] == pytest.approx(net.forward(feats)[0].max(), rel=1e-12)


# -- train_step mechanics -------------------------------------------------------

def _filled_buffer(net, hyper, n_regular=60, n_terminal=8, seed=0):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(hyper.capacity, terminal_fraction=hyper.terminal_quota / hyper.batch_size)
    dim = net.feature_dim
    def feat():
        f = rng.normal(size=dim)
        for u in range(net.i_max):
            f[u * 4 + 3] = rng.integers(0, 4)
        return f
    for count, terminal in ((n_regular, False), (n_terminal, True)):
        rows = [(feat(), int(rng.integers(2)), float(rng.normal()), feat()) for _ in range(count)]
        buf.push(*(np.array(column) for column in zip(*rows)), terminal=terminal)
    return buf, rng


def test_train_step_skips_on_light_buffer():
    hyper = tiny_hyper()
    net = QNetwork(i_max=3, hidden=(8, 8, 8))
    target = net.clone()
    adam = Adam(net.params, lr=LEARNING_RATE)
    buf = ReplayBuffer(hyper.capacity)
    assert train_step(net, target, adam, buf, hyper, np.random.default_rng(0)) is None


def test_train_step_returns_nonnegative_loss_and_updates():
    hyper = tiny_hyper()
    net = QNetwork(i_max=3, hidden=(8, 8, 8), rng=np.random.default_rng(1))
    target = net.clone()
    adam = Adam(net.params, lr=LEARNING_RATE)
    buf, rng = _filled_buffer(net, hyper)
    before = net.params["W0"].copy()
    loss = train_step(net, target, adam, buf, hyper, rng)
    assert loss is not None and loss >= 0.0
    assert not np.array_equal(before, net.params["W0"])


def test_target_sync_exact_at_multiples():
    source = make_source(users=4, seed=3)
    hyper = tiny_hyper(episodes=30, target_sync=7)
    result = train(source, hyper, seed=5)
    # re-run manually to observe sync behavior through the public pieces
    net = QNetwork(i_max=3, hidden=(8, 8, 8), rng=np.random.default_rng(2))
    target = net.clone()
    adam = Adam(net.params, lr=1e-3)
    buf, rng = _filled_buffer(net, tiny_hyper())
    for step_count in range(1, 15):
        train_step(net, target, adam, buf, tiny_hyper(), rng)
        if step_count % 7 == 0:
            target.copy_from(net)
            for key in net.params:
                assert np.array_equal(target.params[key], net.params[key])
        elif step_count % 7 == 1 and step_count > 1:
            assert not all(np.array_equal(target.params[k], net.params[k])
                           for k in net.params)


@pytest.mark.parametrize("users, b_max, action", [(1, 8, 0), (5, 1, 1), (6, 8, 0)],
                         ids=["one user", "first grant at b_max 1", "six denies"])
def test_push_episode_stores_the_terminal_step_apart(users, b_max, action):
    scenario = generate_scenario(3, GeneratorConfig(user_count=users), default_edge(b_max=b_max))
    record = run_episode(scenario, lambda features: action, i_max=users)
    rewards = assign_rewards(record, scenario)
    buf = ReplayBuffer(1000)
    _push_episode(buf, record, rewards)
    features = record.features.astype(np.float32)
    scaled = np.array(rewards) * REWARD_SCALE
    steps = len(record.actions)
    assert steps == (1 if b_max == 1 else users)
    assert buf.terminal.size == 1 and buf.regular.size == steps - 1
    stored, actions, stored_rewards, next_stored = (col[:1] for col in buf.terminal.columns)
    assert np.array_equal(stored, features[-2:-1]) and np.array_equal(next_stored, features[-1:])
    assert actions[0] == action and stored_rewards[0] == scaled[-1]
    if steps == 1:
        assert buf.regular.columns is None
        return
    stored, actions, stored_rewards, next_stored = (col[:steps - 1] for col in buf.regular.columns)
    assert np.array_equal(stored, features[:-2]) and np.array_equal(next_stored, features[1:-1])
    assert np.array_equal(actions, record.actions[:-1])
    assert np.array_equal(stored_rewards, scaled[:-1])


# -- full training loop ---------------------------------------------------------

def test_train_is_deterministic():
    source_a = make_source(users=5, seed=11)
    source_b = make_source(users=5, seed=11)
    hyper = tiny_hyper(episodes=25)
    ra = train(source_a, hyper, seed=9)
    rb = train(source_b, hyper, seed=9)
    assert ra.episode_returns == rb.episode_returns
    for key in ra.policy.params:
        assert np.array_equal(ra.policy.params[key], rb.policy.params[key])


ONE_RUN = """
import os, sys
from diffload.dqn import ScenarioSource, TrainHyper, save_policy, train
from diffload.scenario import GeneratorConfig, PaiParams, default_edge
if sys.argv[2] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
source = ScenarioSource(scope="specific", generator=GeneratorConfig(user_count=6),
                        edge=default_edge(), pai=PaiParams(), seed=11)
hyper = TrainHyper(episodes=30, target_sync=50, capacity=4000, batch_size=32,
                   terminal_quota=4, train_every=0.5)
save_policy(train(source, hyper, seed=9).policy, sys.argv[1])
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_policy_bytes_do_not_depend_on_the_cpus_given(tmp_path):
    """A run confined to one CPU writes the same policy file as a run on all of them.

    Nothing in training may depend on the threads the machine offers, such
    as a BLAS library that splits its products by core count.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    paths = {}
    for cpus in ("one", "all"):
        paths[cpus] = tmp_path / f"{cpus}.json"
        subprocess.run([sys.executable, "-c", ONE_RUN, str(paths[cpus]), cpus], env=env,
                       check=True, timeout=300)
    assert paths["one"].read_bytes() == paths["all"].read_bytes()


def test_train_rejects_zero_budget():
    with pytest.raises(ValidationError):
        TrainHyper(episodes=0)


def test_scenario_source_scopes():
    general = make_source(scope="general", users=8, seed=2, user_range=(3, 8))
    s1, s2 = general.scenario_for_episode(0), general.scenario_for_episode(1)
    assert (s1.user_count, s1.edge.gpus) != (s2.user_count, s2.edge.gpus) or s1 != s2
    assert general.i_max == 8

    gpu = make_source(scope="gpu", users=8, seed=2, user_range=(3, 8))
    for ep in range(5):
        assert gpu.scenario_for_episode(ep).edge.gpus == gpu.edge.gpus

    specific = make_source(scope="specific", users=6, seed=2)
    assert specific.scenario_for_episode(0) == specific.scenario_for_episode(41)


def test_scenario_source_pool_cycles():
    """Each scope cycles the pool `diffload train` uses: gpu 1000, general 2000, specific 1."""
    gpu = make_source(scope="gpu", users=7, seed=4, user_range=(3, 7))
    assert gpu.scenario_for_episode(3) == gpu.scenario_for_episode(1003)
    assert gpu.scenario_for_episode(3) != gpu.scenario_for_episode(4)
    general = make_source(scope="general", users=7, seed=4, user_range=(3, 7))
    assert general.scenario_for_episode(3) == general.scenario_for_episode(2003)
    assert general.scenario_for_episode(3) != general.scenario_for_episode(1003)
    specific = make_source(scope="specific", users=7, seed=4)
    first = specific.scenario_for_episode(0)
    assert all(specific.scenario_for_episode(ep) == first for ep in (1, 2, 999, 1003, 2003))


def test_policy_roundtrip_replays_identically(tmp_path):
    source = make_source(users=5, seed=13)
    result = train(source, tiny_hyper(episodes=20), seed=3)
    scenario = source.scenario_for_episode(0)
    d1 = greedy_solve(result.policy, scenario)
    path = tmp_path / "policy.json"
    save_policy(result.policy, path)
    loaded = load_policy(path)
    d2 = greedy_solve(loaded, scenario)
    assert d1 == d2


def test_float32_policy_survives_the_policy_file(tmp_path):
    """Training runs in float32 and returns its weights widened exactly; saved and
    loaded, they narrow back to the same bits and make the same greedy decisions."""
    source = make_source(users=6, seed=17)
    trained = {}
    policy = train(source, tiny_hyper(episodes=30), seed=8, monitor_every=30,
                   monitor=lambda episode, net: trained.update(
                       {k: v.copy() for k, v in net.params.items()})).policy
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    loaded = load_policy(path)
    assert sorted(loaded.params) == sorted(trained)
    for key, value in trained.items():
        assert value.dtype == np.float32 and loaded.params[key].dtype == np.float64
        assert policy.params[key].tobytes() == value.astype(np.float64).tobytes(), key
        assert loaded.params[key].tobytes() == policy.params[key].tobytes(), key
        assert loaded.params[key].astype(np.float32).tobytes() == value.tobytes(), key
    for seed in range(8):
        scenario = generate_scenario(seed, GeneratorConfig(user_count=6), default_edge())
        assert greedy_solve(loaded, scenario) == greedy_solve(policy, scenario)


def reference_rollout(policy, scenario):
    """The greedy episode as `run_episode` plays it through `QNetwork.forward`."""
    net = QNetwork.from_params(policy.i_max, policy.hidden, policy.params)
    q_values = []

    def act(features):
        q_values.append(net.forward(features))
        return greedy_action(q_values[-1])

    record = run_episode(scenario, act, policy.i_max, policy.alpha_scale)
    return record.final_state, np.array(q_values)


def test_greedy_rollout_matches_the_encoded_forward_pass(tmp_path):
    """Every step's Q-values and the decision equal those of the encode-and-forward path."""
    trained = train(make_source(users=8, seed=29), tiny_hyper(episodes=20), seed=4).policy
    save_policy(trained, tmp_path / "policy.json")
    net = QNetwork(i_max=8, hidden=(24, 12), rng=np.random.default_rng(3))
    policies = {
        "float32-trained": trained,
        "random float64": TrainedPolicy(i_max=8, hidden=net.hidden, params=net.params,
                                        alpha_scale=250.0, scope="specific", seed=0, episodes=0),
        "loaded": load_policy(tmp_path / "policy.json"),
    }
    for name, policy in policies.items():
        cut_short = padded = 0
        for users, b_max, seed in product((1, 3, 8), (1, 2, 8, 11), range(3)):
            scenario = generate_scenario(seed, GeneratorConfig(user_count=users),
                                         default_edge(b_max=b_max))
            label = (name, users, b_max, seed)
            state, q_values = greedy_rollout(policy, scenario)
            ref_state, ref_q_values = reference_rollout(policy, scenario)
            assert np.array_equal(q_values, ref_q_values), label
            assert state == ref_state, label
            assert greedy_solve(policy, scenario) == decision_from_state(ref_state, scenario), label
            cut_short += len(q_values) < users
            padded += users < policy.i_max
        assert cut_short and padded, name


def test_greedy_solve_feasible_on_fuzz():
    rng = np.random.default_rng(21)
    net_policy = train(make_source(users=6, seed=1), tiny_hyper(episodes=15), seed=1).policy
    for trial in range(60):
        users = int(rng.integers(1, 7))
        b_max = int(rng.integers(1, 18))
        scenario = generate_scenario(trial, GeneratorConfig(user_count=users),
                                     default_edge(b_max=b_max))
        decision = greedy_solve(net_policy, scenario)
        validate_decision(scenario, decision)


def test_greedy_solve_rejects_oversized_scenario():
    policy = train(make_source(users=3, seed=1), tiny_hyper(episodes=10), seed=1).policy
    big = generate_scenario(0, GeneratorConfig(user_count=5), default_edge())
    with pytest.raises(Exception, match="capacity"):
        greedy_solve(policy, big)


def test_greedy_solve_zero_capacity_goes_all_local():
    policy = train(make_source(users=3, seed=1), tiny_hyper(episodes=10), seed=1).policy
    scenario = generate_scenario(2, GeneratorConfig(user_count=3), default_edge(b_max=0))
    decision = greedy_solve(policy, scenario)
    assert decision.grant_count == 0
    empty = replace(scenario, users=[])
    assert greedy_solve(policy, empty).entries == []


def test_specific_training_beats_random_policy():
    # Short specific-scope run must outperform the mean of random episodes
    # on its training scenario.
    source = make_source(users=8, seed=31)
    scenario = source.scenario_for_episode(0)
    hyper = TrainHyper(episodes=220, train_every=1, target_sync=200,
                       capacity=20_000, batch_size=32, terminal_quota=4,
                       explore_steps=1200)
    result = train(source, hyper, seed=7)
    greedy_value = objective(scenario, greedy_solve(result.policy, scenario))

    rng = np.random.default_rng(99)
    random_returns = []
    for _ in range(300):
        record = run_episode(scenario, lambda f: int(rng.integers(2)), i_max=8)
        random_returns.append(sum(assign_rewards(record, scenario)))
    assert greedy_value > np.mean(random_returns)
