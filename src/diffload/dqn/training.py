"""Training loop: hybrid exploration, stratified prioritized replay, target net.

Rewards are only known once an episode's grant count is fixed, so each
episode is rolled out in full, its rewards are back-filled, and only then do
its transitions enter the replay buffer. Gradient steps run at a fixed
ratio to environment steps. Exploration anneals per environment step: the
epsilon gate decides between Boltzmann sampling and the greedy action, and
both epsilon and the Boltzmann temperature decay linearly over the budget.

TD targets come from a target network refreshed by a hard copy every
`target_sync` gradient steps. With undiscounted targets and every user's
latency paid on the terminal step (see `env.assign_rewards`), the value of
granting an early user reaches that user's decision only by bootstrapping
back one step per copy. The budget must therefore hold several copies per
decision of an episode, or the early grant decisions never see the latency
they cause.

Everything is driven by one seeded generator, so a fixed seed reproduces
the learning curve and the final weights bit for bit.

Training runs in float32: the network's weights and activations, Adam's
moments, the stored replay features and the TD targets. On one core a
float32 matrix product of the training step's shapes takes a little over
half the time of a float64 one, and an Adam pass moves half the bytes.
Three things stay float64: the sum tree's priorities, whose batched updates
reproduce one-at-a-time updates bit for bit; the loss and the
importance-sampling weights; and the returned `TrainedPolicy`, whose
weights are the float32 weights widened exactly. `greedy_solve` and policy
files therefore compute in float64. Adam flushes subnormal moments to zero
every hundred steps (see `network.Adam`); without the flush a growing share
of the moments of weights whose gradient stays 0 ends up subnormal, and
each step slows as the run goes on.

A greedy decision (`greedy_rollout`) makes one batch-1 forward pass per
user, so its work outside the dense products is kept small: it reads the
policy's float64 weights in place and keeps one network input up to date
between steps instead of encoding and embedding each state anew. Its
Q-values are bit for bit those of `run_episode` driven by
`QNetwork.forward`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..env import (
    DENIED,
    EnvState,
    EpisodeRecord,
    assign_rewards,
    decision_from_state,
    global_features,
    reset,
    run_episode,
    step,
    user_statics,
)
from ..qoe import ContractError, Decision, all_local_decision
from ..scenario import EdgeConfig, GeneratorConfig, PaiParams, Scenario, ValidationError, alpha_band, generate_scenario
from .network import EMBED_DIM, N_ACTIONS, Adam, QNetwork
from .replay import ReplayBuffer

SCOPES = ("general", "gpu", "specific")
TRAIN_DTYPE = np.float32


# The paper's learning settings, which no caller changes.
LEARNING_RATE = 1e-4
EPS_START, EPS_END = 0.5, 0.001   # epsilon gate, annealed linearly
TAU_START, TAU_END = 5.0, 0.01    # Boltzmann temperature, annealed linearly
REWARD_SCALE = 0.1                # rewards are stored scaled by this


@dataclass(frozen=True)
class TrainHyper:
    batch_size: int = 128
    terminal_quota: int = 16          # terminal samples per batch (1:7 ratio)
    # Train steps between hard target copies. Terminal latency credit moves
    # back one decision per copy (see the module docstring), so the budget
    # must hold several copies per decision: 4000 twenty-user episodes at
    # train_every 2 allow 80.
    target_sync: int = 500
    capacity: int = 400_000
    episodes: int = 4000
    train_every: float = 2            # env steps per gradient step; < 1 replays harder
    explore_steps: int | None = None  # env steps to anneal over; default 80% of budget

    def __post_init__(self):
        if self.episodes < 1:
            raise ValidationError(f"episodes: must be >= 1, got {self.episodes}")
        for name in ("batch_size", "target_sync", "capacity", "train_every"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name}: must be positive")
        if not 0 < self.terminal_quota < self.batch_size:
            raise ValidationError("terminal_quota must be in (0, batch_size)")


def linear_schedule(start: float, end: float, t: int, horizon: int) -> float:
    if horizon <= 0 or t >= horizon:
        return end
    return start + (end - start) * (t / horizon)


def greedy_action(q) -> int:
    # Exact tie resolves to deny: conservative toward edge capacity and
    # required for reproducible decisions.
    return int(q[1] > q[0])


def select_action(net: QNetwork, features: np.ndarray, eps: float, tau: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-gated Boltzmann exploration around the greedy policy."""
    q = net.forward(features)
    if rng.uniform() < eps:
        logits = (q - q.max()) / tau
        probs = np.exp(logits)
        probs /= probs.sum()
        return int(rng.choice(2, p=probs))
    return greedy_action(q)


def td_targets(rewards: np.ndarray, next_features: np.ndarray, dones: np.ndarray,
               target_net: QNetwork) -> np.ndarray:
    """Undiscounted one-step targets in the target network's dtype.

    Terminal transitions do not bootstrap. The target network's forward
    pass reuses the arrays that network keeps for `forward_cached`; the
    targets returned are a new array.
    """
    y = rewards.astype(target_net.dtype)
    live = ~dones
    if live.any():
        q_next, _ = target_net.forward_cached(next_features[live])
        y[live] += q_next.max(axis=1)
    return y


def train_step(net: QNetwork, target_net: QNetwork, adam: Adam,
               buffer: ReplayBuffer, hyper: TrainHyper,
               rng: np.random.Generator) -> float | None:
    """One stratified PER update. Returns the loss, or None if the buffer is light."""
    if not buffer.ready(hyper.batch_size, hyper.terminal_quota):
        return None
    sample = buffer.sample(hyper.batch_size, hyper.terminal_quota, rng)
    targets = td_targets(sample.rewards, sample.next_features, sample.terminal_mask,
                         target_net)
    q, cache = net.forward_cached(sample.features)
    rows = np.arange(len(sample.actions))
    td = targets - q[rows, sample.actions]
    loss = float(np.mean(sample.weights * td * td))
    dq = np.zeros_like(q)
    dq[rows, sample.actions] = -2.0 * sample.weights * td / len(sample.actions)
    buffer.update_priorities(sample, td)
    adam.step(net.backward(cache, dq))
    return loss


def _push_episode(buffer: ReplayBuffer, record: EpisodeRecord,
                  rewards: list[float]) -> None:
    """Push one episode into the replay buffer: its terminal step, then the rest.

    Only the last step ends the episode. Features are stored in
    `TRAIN_DTYPE`, as the network narrows them.
    """
    features = record.features.astype(TRAIN_DTYPE)
    actions, scaled = record.actions, np.array(rewards) * REWARD_SCALE
    last = len(actions) - 1
    buffer.push(features[last:-1], actions[last:], scaled[last:], features[-1:], terminal=True)
    if last:
        buffer.push(features[:last], actions[:last], scaled[:last], features[1:-1], terminal=False)


def _derive(seed: int, *key: int) -> tuple[np.random.Generator, int]:
    ss = np.random.SeedSequence((seed, *key))
    pick, scen = ss.spawn(2)
    return np.random.default_rng(pick), int(scen.generate_state(1)[0])


# Episodes per cycle of distinct scenarios, by scope.
SEED_POOLS = {"general": 2000, "gpu": 1000, "specific": 1}
# Edge GPU counts the general scope draws from.
GPU_CHOICES = (2, 4, 8, 16)


@dataclass
class ScenarioSource:
    """Seeded episode-to-scenario mapping for one training scope.

    general: per episode, redraw the user count, the edge GPU count, and the
      user population from a cycled pool of seeds.
    gpu: as general but with the edge GPU count held at the base config.
    specific: one fixed scenario for every episode.
    """

    scope: str
    generator: GeneratorConfig
    edge: EdgeConfig
    pai: PaiParams
    seed: int
    user_range: tuple[int, int] = (10, 20)
    fixed_scenario: Scenario | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValidationError(f"scope: must be one of {SCOPES}, got {self.scope!r}")
        if self.scope != "specific" and not 1 <= self.user_range[0] <= self.user_range[1]:
            raise ValidationError(f"user_range: invalid {self.user_range}")

    @property
    def i_max(self) -> int:
        if self.scope == "specific":
            if self.fixed_scenario is not None:
                return self.fixed_scenario.user_count
            return self.generator.user_count
        return self.user_range[1]

    def alpha_scale(self) -> float:
        """Normalization constant for the alpha feature, fixed per policy."""
        if self.scope == "specific" and self.fixed_scenario is not None:
            return max(u.alpha for u in self.fixed_scenario.users)
        gpus = max(GPU_CHOICES) if self.scope == "general" else self.edge.gpus
        edge = replace(self.edge, gpus=gpus)
        bands = [alpha_band(dev, self.generator, edge, self.pai)
                 for dev, _ in self.generator.device_catalog]
        return max(hi for _, hi, _ in bands)

    def scenario_for_episode(self, episode: int) -> Scenario:
        if self.scope == "specific" and self.fixed_scenario is not None:
            return self.fixed_scenario
        key = episode % SEED_POOLS[self.scope]
        if key in self._cache:
            return self._cache[key]
        pick_rng, scen_seed = _derive(self.seed, key)
        cfg, edge = self.generator, self.edge
        if self.scope in ("general", "gpu"):
            users = int(pick_rng.integers(self.user_range[0], self.user_range[1] + 1))
            cfg = replace(cfg, user_count=users)
        if self.scope == "general":
            edge = replace(edge, gpus=int(pick_rng.choice(GPU_CHOICES)))
        scenario = generate_scenario(scen_seed, cfg, edge, self.pai)
        self._cache[key] = scenario
        return scenario


@dataclass
class TrainedPolicy:
    i_max: int
    hidden: tuple[int, ...]
    params: dict[str, np.ndarray]
    alpha_scale: float
    scope: str
    seed: int
    episodes: int


@dataclass
class TrainResult:
    policy: TrainedPolicy
    episode_returns: list[float]  # unscaled objective per episode
    losses: list[float]


def train(source: ScenarioSource, hyper: TrainHyper, seed: int,
          monitor=None, monitor_every: int = 0) -> TrainResult:
    """Run the full training loop; see the module docstring for the shape.

    `monitor(episode_index, net)`, when given, is called every
    `monitor_every` episodes; it must not touch the RNG stream.
    """
    rng = np.random.default_rng(seed)
    i_max = source.i_max
    alpha_scale = source.alpha_scale()
    net = QNetwork(i_max, rng=rng, dtype=TRAIN_DTYPE)
    target = net.clone()
    adam = Adam(net.params, lr=LEARNING_RATE)
    buffer = ReplayBuffer(hyper.capacity, terminal_fraction=hyper.terminal_quota / hyper.batch_size)
    explore = hyper.explore_steps
    if explore is None:
        explore = int(0.8 * hyper.episodes * i_max)

    env_steps = 0
    train_steps = 0
    credit = 0.0  # env steps owed to the optimizer at the configured ratio
    returns: list[float] = []
    losses: list[float] = []

    def exploring(features: np.ndarray) -> int:
        """The annealed exploration policy at the current env step."""
        nonlocal env_steps
        eps = linear_schedule(EPS_START, EPS_END, env_steps, explore)
        tau = linear_schedule(TAU_START, TAU_END, env_steps, explore)
        env_steps += 1
        return select_action(net, features, eps, tau, rng)

    for episode in range(hyper.episodes):
        scenario = source.scenario_for_episode(episode)
        record = run_episode(scenario, exploring, i_max, alpha_scale)
        rewards = assign_rewards(record, scenario)
        returns.append(sum(rewards))
        _push_episode(buffer, record, rewards)

        credit += len(record.actions) / hyper.train_every
        while credit >= 1.0:
            loss = train_step(net, target, adam, buffer, hyper, rng)
            if loss is None:
                credit = 0.0  # still warming up; forfeit these updates
                break
            losses.append(loss)
            credit -= 1.0
            train_steps += 1
            if train_steps % hyper.target_sync == 0:
                target.copy_from(net)
        if monitor is not None and monitor_every and (episode + 1) % monitor_every == 0:
            monitor(episode, net)

    policy = TrainedPolicy(
        i_max=i_max,
        hidden=net.hidden,
        params={k: v.astype(np.float64) for k, v in net.params.items()},
        alpha_scale=alpha_scale,
        scope=source.scope,
        seed=seed,
        episodes=hyper.episodes,
    )
    return TrainResult(policy=policy, episode_returns=returns, losses=losses)


def greedy_rollout(policy: TrainedPolicy, scenario: Scenario) -> tuple[EnvState, np.ndarray]:
    """One greedy episode under the policy: the terminal state and each step's Q-values.

    The scenario must hold 1 to `policy.i_max` users and a grant capacity of
    at least 1. States advance through `env.reset` and `env.step`; the
    network's input is kept up to date between steps rather than encoded and
    embedded anew, and the policy's weights are read in place, in the dtype
    of its `W0`:

    - `table` holds each user's `user_statics` row and status embedding in
      processing order, twice over, so the rotation that puts the
      in-progress user first is the slice `table[cursor:cursor + I]`.
    - `x` is the (1, input_dim) input. Its filler slots are written once;
      each step copies in the slice and writes the globals through
      `env.global_features`.
    - A step that does not end the episode changes two statuses: the user
      just decided and the next one in progress. Only their rows are
      embedded again, in both halves of the table.

    `x` is then bit for bit the input `QNetwork.forward` assembles from
    `env.encode`, so the Q-values and actions are those of `run_episode`
    driven by that forward pass.
    """
    net = QNetwork.from_params(policy.i_max, policy.hidden, policy.params, copy=False)
    embed = net.params["embed"]
    width = 3 + EMBED_DIM
    state = reset(scenario)
    users, i_max = state.user_count, policy.i_max
    table = np.empty((2 * users, width), net.dtype)
    table[:users, :3] = user_statics(state, policy.alpha_scale)
    table[:users, 3:] = embed[list(state.statuses)]
    table[users:] = table[:users]
    x = np.empty((1, net.input_dim), net.dtype)
    blocks = x[0, :i_max * width].reshape(i_max, width)
    blocks[users:, :3] = 0.0
    blocks[users:, 3:] = embed[DENIED]
    q_values = np.empty((users, N_ACTIONS), net.dtype)
    steps = 0
    while not state.done:
        cursor = state.cursor
        blocks[:users] = table[cursor:cursor + users]
        global_features(state, i_max, x[0, i_max * width:])
        q = q_values[steps] = net.dense(x)[0]
        steps += 1
        state, done = step(state, greedy_action(q))
        if not done:
            for user in (cursor, state.cursor):
                table[user, 3:] = table[user + users, 3:] = embed[state.statuses[user]]
    return state, q_values[:steps]


def greedy_solve(policy: TrainedPolicy, scenario: Scenario) -> Decision:
    """Run the environment greedily under the policy; linear in the user count."""
    if scenario.user_count > policy.i_max:
        raise ContractError(
            f"scenario has {scenario.user_count} users; policy capacity is {policy.i_max}")
    if scenario.user_count == 0 or scenario.edge.b_max < 1:
        return all_local_decision(scenario)
    final_state, _ = greedy_rollout(policy, scenario)
    return decision_from_state(final_state, scenario)


def save_policy(policy: TrainedPolicy, path: str | Path) -> None:
    obj = {
        "format": "diffload-policy-v1",
        "i_max": policy.i_max,
        "hidden": list(policy.hidden),
        "alpha_scale": policy.alpha_scale,
        "scope": policy.scope,
        "seed": policy.seed,
        "episodes": policy.episodes,
        "weights": {
            key: {"shape": list(value.shape), "data": value.reshape(-1).tolist()}
            for key, value in sorted(policy.params.items())
        },
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_policy(path: str | Path) -> TrainedPolicy:
    """Read a policy file written by `save_policy`.

    Every malformed file raises `ValidationError`: bad JSON, a missing or
    mistyped field, an `alpha_scale` that is not finite and positive, or
    weights whose keys, shapes or values do not fit a network of the stored
    `i_max` and `hidden`.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict) or obj.get("format") != "diffload-policy-v1":
        raise ValidationError(f"{path}: not a recognized policy file")
    try:
        policy = TrainedPolicy(
            i_max=int(obj["i_max"]),
            hidden=tuple(int(h) for h in obj["hidden"]),
            params={key: np.asarray(spec["data"], dtype=float).reshape(spec["shape"])
                    for key, spec in obj["weights"].items()},
            alpha_scale=float(obj["alpha_scale"]),
            scope=str(obj["scope"]),
            seed=int(obj["seed"]),
            episodes=int(obj["episodes"]),
        )
    except KeyError as exc:
        raise ValidationError(f"{path}: policy file lacks the field {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"{path}: malformed policy file ({exc})") from exc
    if not (np.isfinite(policy.alpha_scale) and policy.alpha_scale > 0):
        raise ValidationError(
            f"{path}: alpha_scale must be finite and positive, got {policy.alpha_scale}")
    expected = QNetwork.param_shapes(policy.i_max, policy.hidden)
    shapes = {key: value.shape for key, value in policy.params.items()}
    if shapes != expected:
        raise ValidationError(
            f"{path}: weight shapes {shapes} do not fit i_max {policy.i_max} and "
            f"hidden {policy.hidden} (expected {expected})")
    if not all(np.isfinite(value).all() for value in policy.params.values()):
        raise ValidationError(f"{path}: weights must be finite")
    return policy
