"""Sequential grant/deny decision environment.

One episode handles the request queue of a single scenario: users are
visited in request order, one per step, and the action grants or denies the
user under the cursor. Transitions are deterministic. The episode ends when
every request has been handled or the grant cap is reached, at which point
all still-pending users are denied.

A state (:class:`EnvState`) keeps each fact once: the scenario, its
processing order, one status code per user and the cursor. The counters,
the episode's end and every encoded feature are read off those, and so is
the scenario by every function that takes a state or an episode record.

An episode is recorded as arrays (:class:`EpisodeRecord`), each state
encoded straight into its row of one feature matrix.

Because the per-user quality terms depend on the final grant count (through
batching and bandwidth sharing), rewards cannot be emitted during the
episode; :func:`assign_rewards` computes them from the finished record,
splitting the objective into per-step accuracy credits plus a terminal
correction so that the rewards sum exactly to the objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import CostModel, decision_of, sequential_sum
from .qoe import ContractError, Decision, all_local_decision
from .scenario import Scenario, ValidationError, step_latency_local

# A user's status code is its index here; each is a token of the Q-network's
# embedding table.
STATUSES = ("pending", "in_progress", "granted", "denied")
PENDING, IN_PROGRESS, GRANTED, DENIED = range(len(STATUSES))

N_GLOBALS = 6
N_STATICS = 3  # alpha, per-step local latency, request slot
FEATURES_PER_USER = N_STATICS + 1  # the statics, then the status token


@dataclass(frozen=True)
class EnvState:
    """Complete environment state: the scenario, its users' processing order
    (``user_ids``), their status codes in that order, and the cursor.

    ``cursor`` indexes the in-progress user, -1 once the episode has
    terminated. Everything else is read off these four: the per-user statics
    and edge parameters from the scenario, the counters from the statuses.
    """

    scenario: Scenario
    user_ids: tuple[int, ...]
    statuses: tuple[int, ...]
    cursor: int

    @property
    def done(self) -> bool:
        return self.cursor < 0

    @property
    def user_count(self) -> int:
        return len(self.user_ids)

    @property
    def b_max(self) -> int:
        return self.scenario.edge.b_max

    @property
    def pending(self) -> int:
        return self.statuses.count(PENDING)

    @property
    def granted(self) -> int:
        return self.statuses.count(GRANTED)

    @property
    def denied(self) -> int:
        return self.statuses.count(DENIED)


def processing_order(scenario: Scenario) -> list[int]:
    """User indices sorted by request slot, ties by id (FIFO reading)."""
    return sorted(range(scenario.user_count),
                  key=lambda i: (scenario.users[i].request_slot, scenario.users[i].id))


def reset(scenario: Scenario) -> EnvState:
    if scenario.user_count == 0:
        raise ValidationError("users: scenario has no users")
    if scenario.edge.b_max < 1:
        raise ValidationError("b_max: the decision environment needs a grant capacity >= 1")
    statuses = (IN_PROGRESS,) + (PENDING,) * (scenario.user_count - 1)
    return EnvState(scenario, tuple(processing_order(scenario)), statuses, 0)


def step(state: EnvState, action: int) -> EnvState:
    """Apply a grant (1) / deny (0) to the in-progress user. Pure function."""
    if state.done:
        raise ContractError("step on a terminal state")
    if action not in (0, 1):
        raise ContractError(f"action must be 0 or 1, got {action}")
    statuses = list(state.statuses)
    statuses[state.cursor] = GRANTED if action == 1 else DENIED
    if statuses.count(GRANTED) == state.b_max:
        # Grant cap reached: everything still pending is denied outright.
        statuses = [DENIED if s == PENDING else s for s in statuses]
    cursor = statuses.index(PENDING) if PENDING in statuses else -1
    if cursor >= 0:
        statuses[cursor] = IN_PROGRESS
    return EnvState(state.scenario, state.user_ids, tuple(statuses), cursor)


def user_statics(state: EnvState, alpha_scale: float = 1.0) -> np.ndarray:
    """The (I, N_STATICS) per-user statics in processing order, as the network reads them.

    Columns: alpha / alpha_scale, per-step local latency, and request slot /
    slots per interval, each normalized to keep inputs order-one.
    """
    users = [state.scenario.users[i] for i in state.user_ids]
    columns = np.array(([u.alpha for u in users],
                        [step_latency_local(u.device) for u in users],
                        [u.request_slot for u in users]), dtype=float)
    columns[0] /= alpha_scale
    columns[2] /= state.scenario.edge.slots_per_interval
    return columns.T


def encode(state: EnvState, i_max: int, alpha_scale: float = 1.0) -> np.ndarray:
    """Feature vector: cyclically shifted local sub-states plus globals.

    Local sub-states (the `user_statics` row plus the status token) are
    rotated so the in-progress user sits first, then padded to ``i_max``
    users with denied-status filler. Status codes stay integer-valued
    tokens for the embedding lookup.
    """
    out = np.zeros(i_max * FEATURES_PER_USER + N_GLOBALS)
    _encode_local(state, _local_rows(state, alpha_scale), i_max, out)
    return out


def global_features(state: EnvState, i_max: int, out: np.ndarray) -> None:
    """Write the N_GLOBALS global features of `state` into `out`."""
    edge = state.scenario.edge
    out[0] = edge.b_max / i_max
    out[1] = edge.device.step_slope / edge.gpus
    out[2] = edge.device.step_intercept
    out[3] = state.pending / i_max
    out[4] = state.granted / i_max
    out[5] = state.denied / i_max


def _local_rows(state: EnvState, alpha_scale: float) -> np.ndarray:
    """(I, FEATURES_PER_USER) local sub-states with the statics filled in.

    The statics never change within an episode, so an episode builds these
    rows once and `_encode_local` writes each state's status column.
    """
    local = np.empty((state.user_count, FEATURES_PER_USER))
    local[:, :N_STATICS] = user_statics(state, alpha_scale)
    return local


def _encode_local(state: EnvState, local: np.ndarray, i_max: int, out: np.ndarray) -> None:
    """Write `encode`'s vector into `out`, which must hold zeros, from rows
    `_local_rows` made for the same episode."""
    n = state.user_count
    if n > i_max:
        raise ContractError(f"state has {n} users, encoder capacity is {i_max}")
    rows = out[:i_max * FEATURES_PER_USER].reshape(i_max, FEATURES_PER_USER)
    local[:, N_STATICS] = state.statuses
    start = max(state.cursor, 0)
    np.concatenate((local[start:], local[:start]), out=rows[:n])
    rows[n:, N_STATICS] = DENIED  # filler slots read as already-denied
    global_features(state, i_max, out[i_max * FEATURES_PER_USER:])


@dataclass(frozen=True)
class EpisodeRecord:
    """One finished episode: ``features`` row t encodes the state before step t
    (the last row the terminal state), decided by ``actions[t]`` on the user
    whose id is ``handled_order[t]``."""

    features: np.ndarray
    actions: np.ndarray
    final_state: EnvState

    @property
    def handled_order(self) -> tuple[int, ...]:
        return self.final_state.user_ids[:len(self.actions)]


def run_episode(scenario: Scenario, policy, i_max: int,
                alpha_scale: float = 1.0) -> EpisodeRecord:
    """Roll out one episode; `policy(features) -> action` drives the choices."""
    state = reset(scenario)
    local = _local_rows(state, alpha_scale)
    # At most one step per user; the record keeps the rows it used.
    features = np.zeros((state.user_count + 1, i_max * FEATURES_PER_USER + N_GLOBALS))
    actions = np.empty(state.user_count, dtype=np.int64)
    steps = 0
    _encode_local(state, local, i_max, features[0])
    while not state.done:
        actions[steps] = action = int(policy(features[steps]))
        state = step(state, action)
        steps += 1
        _encode_local(state, local, i_max, features[steps])
    return EpisodeRecord(features[:steps + 1], actions[:steps], state)


def decision_from_state(state: EnvState) -> Decision:
    """The state's final grant/deny vector, in user-id order, with the optimal
    splits. Only the final grant count's row of the split grid is solved; at
    no grants everyone runs locally, and no grid is solved."""
    if not state.done:
        raise ContractError("episode has not terminated")
    if not state.granted:
        return all_local_decision(state.scenario)
    grants = np.zeros(state.user_count, dtype=bool)
    grants[list(state.user_ids)] = [status == GRANTED for status in state.statuses]
    model = CostModel.from_scenario(state.scenario)
    at_count, _ = model.optimal_splits(np.array([state.granted]))
    return decision_of(grants, at_count[0], state.scenario.pai.n_total)


def assign_rewards(episode: EpisodeRecord) -> list[float]:
    """Per-step rewards that sum exactly to the objective of the final decision.

    Each non-terminal step earns the handled user's accuracy credit
    alpha * F(n*); the terminal step earns the accuracy credits of the
    terminal user plus all auto-denied remainders, minus the total latency
    of everyone. A record whose final state is not terminal raises
    `ContractError`.
    """
    decision = decision_from_state(episode.final_state)
    parts = CostModel.from_scenario(episode.final_state.scenario).breakdown(decision)
    pai_terms = parts.pai_term.tolist()  # indexed by user id
    handled = episode.handled_order
    visited = set(handled[:-1])
    tail = sum(v for uid, v in enumerate(pai_terms) if uid not in visited)
    return [pai_terms[uid] for uid in handled[:-1]] + [tail - sequential_sum(parts.total)]
