"""Prioritized replay memory with a separate terminal-state partition.

Terminal transitions carry the latency correction and are rare (one per
episode), so they are stored apart and every sampled batch draws a fixed
number of each, the one layout the buffer is built for (1:7 in training).
Within each partition, transitions are sampled proportionally to
priority^exponent; storage is a ring, so the oldest entry is evicted first.

Each partition is a ring of typed columns (features, action, reward, next
features), preallocated at the first push, plus a float64 priority column.
A partition's done flag is its terminal flag, so it is not stored. A draw
takes one running sum over the filled slots and finds each uniform value's
slot by binary search, so it is linear in the stored count: a sum tree
(Schaul et al., 2016) draws in logarithmic time, but at the tens of
thousands of transitions stored here one vectorised pass costs less than a
descent that steps through the tree's levels in Python. A priority update
is one scatter into the column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scenario import ValidationError

# Sampling priority is (|TD error| + PRIORITY_OFFSET) ** PRIORITY_EXPONENT;
# importance-sampling weights are (N * P) ** -IS_EXPONENT, max-normalized.
PRIORITY_EXPONENT = 0.7
PRIORITY_OFFSET = 2e-5
IS_EXPONENT = 0.3


class PriorityRing:
    """A ring of typed item columns with one sampling priority per slot."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.priority = np.zeros(capacity)
        self.columns: tuple[np.ndarray, ...] | None = None
        self.write = 0
        self.size = 0

    def add(self, columns: tuple[np.ndarray, ...]) -> None:
        """Store a run of items, row k of every column being item k.

        Every item gets the ring's max priority (1.0 while it is empty), so
        new experiences get replayed; one scan serves the whole run, since
        each item writes the max it read. The columns are allocated at the
        first call, shaped and typed after `columns`. A run longer than the
        ring keeps its newest items.
        """
        count = len(columns[0])
        if self.columns is None:
            self.columns = tuple(np.zeros((self.capacity, *col.shape[1:]), dtype=col.dtype)
                                 for col in columns)
        weight = self.priority[:self.size].max() if self.size else 1.0
        slots = (self.write + np.arange(count)) % self.capacity
        kept = slice(max(0, count - self.capacity), count)
        for store, col in zip(self.columns, columns):
            store[slots[kept]] = col[kept]
        self.priority[slots] = weight
        self.write = (self.write + count) % self.capacity
        self.size = min(self.size + count, self.capacity)

    def draw(self, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """(slots, probabilities) of `count` draws proportional to priority.

        A value u in [0, total) goes to the first slot whose running sum
        reaches it, so a value on a slot's upper boundary stays in that slot.
        """
        cum = np.cumsum(self.priority[:self.size])
        slots = np.searchsorted(cum, rng.uniform(0.0, cum[-1], size=count))
        return slots, self.priority[slots] / cum[-1]


@dataclass
class Sample:
    features: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_features: np.ndarray
    slots: np.ndarray        # ring slots within each partition, for priority updates
    terminal_mask: np.ndarray
    weights: np.ndarray      # importance-sampling weights, max-normalized


class ReplayBuffer:
    """`capacity` transitions drawn in batches of `batch_size`, `terminal_quota` of them
    terminal; the terminal partition keeps the quota's share, at least one slot."""

    def __init__(self, capacity: int, batch_size: int, terminal_quota: int):
        if not 0 < terminal_quota < batch_size:
            raise ValidationError(f"terminal_quota: must be in (0, {batch_size}), "
                                  f"got {terminal_quota}")
        term_cap = max(1, int(capacity * (terminal_quota / batch_size)))
        regular_cap = capacity - term_cap
        if term_cap < terminal_quota or regular_cap < batch_size - terminal_quota:
            raise ValidationError(
                f"capacity: {capacity} splits into replay partitions of {term_cap} "
                f"terminal and {regular_cap} other transitions, which cannot hold a batch's "
                f"{terminal_quota} and {batch_size - terminal_quota} draws")
        self.batch_size = batch_size
        self.terminal_quota = terminal_quota
        self.terminal = PriorityRing(term_cap)
        self.regular = PriorityRing(regular_cap)

    def __len__(self) -> int:
        return self.terminal.size + self.regular.size

    def push(self, features: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
             next_features: np.ndarray, terminal: bool) -> None:
        """Insert one episode's transitions for one partition, row k being transition k."""
        ring = self.terminal if terminal else self.regular
        ring.add((features, actions, rewards, next_features))

    def ready(self) -> bool:
        return (self.terminal.size >= self.terminal_quota
                and self.regular.size >= self.batch_size - self.terminal_quota)

    def sample(self, rng: np.random.Generator) -> Sample:
        """Stratified draw: `terminal_quota` terminal + the rest non-terminal."""
        if not self.ready():
            raise ValueError("not enough stored transitions in one of the partitions")
        parts = []
        for ring, count in ((self.terminal, self.terminal_quota),
                            (self.regular, self.batch_size - self.terminal_quota)):
            slots, probs = ring.draw(count, rng)
            parts.append((*(col[slots] for col in ring.columns), slots, probs,
                          np.full(count, float(ring.size))))
        features, actions, rewards, next_features, slots, probs, sizes = (
            np.concatenate(column) for column in zip(*parts))
        weights = (sizes * probs) ** (-IS_EXPONENT)
        weights = weights / weights.max()
        terminal_mask = np.arange(self.batch_size) < self.terminal_quota
        return Sample(features=features, actions=actions, rewards=rewards,
                      next_features=next_features, slots=slots,
                      terminal_mask=terminal_mask, weights=weights)

    def update_priorities(self, sample: Sample, td_errors: np.ndarray) -> None:
        """Reprioritize the sampled transitions by their TD errors, in float64.

        A slot drawn more than once keeps the priority of its last occurrence.
        """
        td_errors = np.asarray(td_errors, dtype=np.float64)
        weights = (np.abs(td_errors) + PRIORITY_OFFSET) ** PRIORITY_EXPONENT
        for ring, part in ((self.terminal, sample.terminal_mask),
                           (self.regular, ~sample.terminal_mask)):
            ring.priority[sample.slots[part]] = weights[part]
