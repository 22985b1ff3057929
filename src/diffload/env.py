"""Sequential grant/deny decision environment.

One episode handles the request queue of a single scenario: users are
visited in request order, one per step, and the action grants or denies the
user under the cursor. Transitions are deterministic. The episode ends when
every request has been handled or the grant cap is reached, at which point
all still-pending users are denied.

Because the per-user quality terms depend on the final grant count (through
batching and bandwidth sharing), rewards cannot be emitted during the
episode; :func:`assign_rewards` computes them once the final decision is
fixed, splitting the objective into per-step accuracy credits plus a
terminal correction so that the rewards sum exactly to the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costmodel import CostModel, SplitTable, sequential_sum
from .qoe import ContractError, Decision
from .scenario import Scenario, ValidationError, step_latency_local

PENDING = 0
IN_PROGRESS = 1
GRANTED = 2
DENIED = 3

N_GLOBALS = 6
FEATURES_PER_USER = 4  # alpha, per-step local latency, request slot, status token


@dataclass(frozen=True)
class EnvState:
    """Complete environment state, in user processing order.

    Static per-user elements (alpha, per-step local latency, request slot)
    never change during an episode; the status codes and the three counters
    are the dynamic part. ``cursor`` indexes the in-progress user, -1 once
    the episode has terminated.
    """

    alphas: tuple[float, ...]
    step_latencies: tuple[float, ...]
    request_slots: tuple[int, ...]
    statuses: tuple[int, ...]
    user_ids: tuple[int, ...]
    b_max: int
    k_hat_e: float  # edge step slope divided by GPU count
    h_e: float
    slots_per_interval: int
    pending: int
    granted: int
    denied: int
    cursor: int

    @property
    def done(self) -> bool:
        return self.cursor < 0

    @property
    def user_count(self) -> int:
        return len(self.alphas)


def processing_order(scenario: Scenario) -> list[int]:
    """User indices sorted by request slot, ties by id (FIFO reading)."""
    return sorted(range(scenario.user_count),
                  key=lambda i: (scenario.users[i].request_slot, scenario.users[i].id))


def reset(scenario: Scenario) -> EnvState:
    if scenario.user_count == 0:
        raise ValidationError("users: scenario has no users")
    if scenario.edge.b_max < 1:
        raise ValidationError("b_max: the decision environment needs a grant capacity >= 1")
    order = processing_order(scenario)
    users = [scenario.users[i] for i in order]
    statuses = [PENDING] * len(users)
    statuses[0] = IN_PROGRESS
    return EnvState(
        alphas=tuple(u.alpha for u in users),
        step_latencies=tuple(step_latency_local(u.device) for u in users),
        request_slots=tuple(u.request_slot for u in users),
        statuses=tuple(statuses),
        user_ids=tuple(u.id for u in users),
        b_max=scenario.edge.b_max,
        k_hat_e=scenario.edge.device.step_slope / scenario.edge.gpus,
        h_e=scenario.edge.device.step_intercept,
        slots_per_interval=scenario.edge.slots_per_interval,
        pending=len(users) - 1,
        granted=0,
        denied=0,
        cursor=0,
    )


def step(state: EnvState, action: int) -> tuple[EnvState, bool]:
    """Apply a grant (1) / deny (0) to the in-progress user. Pure function."""
    if state.done:
        raise ContractError("step on a terminal state")
    if action not in (0, 1):
        raise ContractError(f"action must be 0 or 1, got {action}")
    statuses = list(state.statuses)
    statuses[state.cursor] = GRANTED if action == 1 else DENIED
    granted = state.granted + (1 if action == 1 else 0)
    denied = state.denied + (0 if action == 1 else 1)
    pending = state.pending

    if granted == state.b_max:
        # Grant cap reached: everything still pending is denied outright.
        for i, s in enumerate(statuses):
            if s == PENDING:
                statuses[i] = DENIED
                denied += 1
                pending -= 1
        cursor = -1
    elif pending == 0:
        cursor = -1
    else:
        cursor = statuses.index(PENDING)
        statuses[cursor] = IN_PROGRESS
        pending -= 1

    next_state = EnvState(
        alphas=state.alphas,
        step_latencies=state.step_latencies,
        request_slots=state.request_slots,
        statuses=tuple(statuses),
        user_ids=state.user_ids,
        b_max=state.b_max,
        k_hat_e=state.k_hat_e,
        h_e=state.h_e,
        slots_per_interval=state.slots_per_interval,
        pending=pending,
        granted=granted,
        denied=denied,
        cursor=cursor,
    )
    return next_state, next_state.done


def user_statics(state: EnvState, alpha_scale: float = 1.0) -> np.ndarray:
    """The (I, 3) per-user statics in processing order, as the network reads them.

    Columns: alpha / alpha_scale, per-step local latency, and request slot /
    slots per interval, each normalized to keep inputs order-one.
    """
    columns = np.array((state.alphas, state.step_latencies, state.request_slots), dtype=float)
    columns[0] /= alpha_scale
    columns[2] /= state.slots_per_interval
    return columns.T


def encode(state: EnvState, i_max: int, alpha_scale: float = 1.0) -> np.ndarray:
    """Feature vector: cyclically shifted local sub-states plus globals.

    Local sub-states (the `user_statics` row plus the status token) are
    rotated so the in-progress user sits first, then padded to ``i_max``
    users with denied-status filler. Status codes stay integer-valued
    tokens for the embedding lookup.
    """
    return _encode_local(state, _local_rows(state, alpha_scale), i_max)


def _local_rows(state: EnvState, alpha_scale: float) -> np.ndarray:
    """(I, FEATURES_PER_USER) local sub-states with the statics filled in.

    The statics never change within an episode, so an episode builds these
    rows once and `_encode_local` writes each state's status column.
    """
    local = np.empty((state.user_count, FEATURES_PER_USER))
    local[:, :3] = user_statics(state, alpha_scale)
    return local


def _encode_local(state: EnvState, local: np.ndarray, i_max: int) -> np.ndarray:
    """`encode` from rows made by `_local_rows` for the same episode."""
    n = state.user_count
    if n > i_max:
        raise ContractError(f"state has {n} users, encoder capacity is {i_max}")
    out = np.zeros(i_max * FEATURES_PER_USER + N_GLOBALS)
    rows = out[:i_max * FEATURES_PER_USER].reshape(i_max, FEATURES_PER_USER)
    local[:, 3] = state.statuses
    start = max(state.cursor, 0)
    np.concatenate((local[start:], local[:start]), out=rows[:n])
    rows[n:, 3] = DENIED  # filler slots read as already-denied
    g = i_max * FEATURES_PER_USER
    out[g] = state.b_max / i_max
    out[g + 1] = state.k_hat_e
    out[g + 2] = state.h_e
    out[g + 3] = state.pending / i_max
    out[g + 4] = state.granted / i_max
    out[g + 5] = state.denied / i_max
    return out


@dataclass
class Transition:
    features: np.ndarray
    action: int
    next_features: np.ndarray
    done: bool


@dataclass
class EpisodeRecord:
    transitions: list[Transition] = field(default_factory=list)
    handled_order: list[int] = field(default_factory=list)  # user ids, one per step
    final_state: EnvState | None = None
    decision: Decision | None = None
    rewards: list[float] | None = None

    @property
    def complete(self) -> bool:
        return self.final_state is not None and self.final_state.done


def run_episode(scenario: Scenario, policy, i_max: int,
                alpha_scale: float = 1.0) -> EpisodeRecord:
    """Roll out one episode; `policy(features) -> action` drives the choices."""
    record = EpisodeRecord()
    state = reset(scenario)
    local = _local_rows(state, alpha_scale)
    features = _encode_local(state, local, i_max)
    while not state.done:
        action = int(policy(features))
        record.handled_order.append(state.user_ids[state.cursor])
        state, done = step(state, action)
        next_features = _encode_local(state, local, i_max)
        record.transitions.append(Transition(features, action, next_features, done))
        features = next_features
    record.final_state = state
    return record


def decision_from_state(state: EnvState, scenario: Scenario) -> Decision:
    """Final grant/deny vector, in user-id order, with the optimal splits."""
    if not state.done:
        raise ContractError("episode has not terminated")
    grants = [False] * scenario.user_count
    for user_id, status in zip(state.user_ids, state.statuses):
        grants[user_id] = status == GRANTED
    return SplitTable(scenario).decision(grants)


def assign_rewards(episode: EpisodeRecord, scenario: Scenario) -> list[float]:
    """Per-step rewards that sum exactly to the objective of the final decision.

    Each non-terminal step earns the handled user's accuracy credit
    alpha * F(n*); the terminal step earns the accuracy credits of the
    terminal user plus all auto-denied remainders, minus the total latency
    of everyone. Also fills ``episode.decision`` and ``episode.rewards``.
    """
    if not episode.complete:
        raise ContractError("cannot assign rewards before the episode completes")
    decision = decision_from_state(episode.final_state, scenario)
    parts = CostModel.from_scenario(scenario).breakdown(decision)
    pai_terms = parts.pai_term.tolist()  # indexed by user id
    handled = episode.handled_order
    visited = set(handled[:-1])
    tail = sum(v for uid, v in enumerate(pai_terms) if uid not in visited)
    rewards = [pai_terms[uid] for uid in handled[:-1]] + [tail - sequential_sum(parts.total)]
    episode.decision = decision
    episode.rewards = rewards
    return rewards
