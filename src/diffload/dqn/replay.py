"""Prioritized replay memory with a separate terminal-state partition.

Terminal transitions carry the latency correction and are rare (one per
episode), so they are stored apart and every sampled batch draws terminal
and non-terminal experiences at a fixed 1:7 ratio. Within each partition,
transitions are sampled proportionally to priority^exponent through a sum
tree; storage is a ring, so the oldest entry is evicted first.

Each partition stores its transitions as typed columns (features, action,
reward, next features), preallocated at the first push. A partition's done
flag is its terminal flag, so it is not stored. A sample is one gather per
column, and a priority update is one batched tree update per partition that
adds the same floats in the same order as a walk per transition would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Sampling priority is (|TD error| + PRIORITY_OFFSET) ** PRIORITY_EXPONENT;
# importance-sampling weights are (N * P) ** -IS_EXPONENT, max-normalized.
PRIORITY_EXPONENT = 0.7
PRIORITY_OFFSET = 2e-5
IS_EXPONENT = 0.3


class SumTree:
    """Binary sum tree over a ring of leaf weights, with typed item columns."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.tree = np.zeros(2 * capacity - 1)
        self.columns: tuple[np.ndarray, ...] | None = None
        self.write = 0
        self.size = 0

    def add(self, weight: float, columns: tuple[np.ndarray, ...]) -> None:
        """Store a run of items, row k of every column being item k, at `weight` each.

        The columns are allocated at the first call, shaped and typed after
        `columns`. A run longer than the ring keeps its newest items.
        """
        count = len(columns[0])
        if self.columns is None:
            self.columns = tuple(np.zeros((self.capacity, *col.shape[1:]), dtype=col.dtype)
                                 for col in columns)
        slots = (self.write + np.arange(count)) % self.capacity
        kept = slice(max(0, count - self.capacity), count)
        for store, col in zip(self.columns, columns):
            store[slots[kept]] = col[kept]
        self.update(slots + self.capacity - 1, np.full(count, weight))
        self.write = (self.write + count) % self.capacity
        self.size = min(self.size + count, self.capacity)

    def update(self, leaves: np.ndarray, weights: np.ndarray) -> None:
        """Set leaf `leaves[k]` to `weights[k]` for k in order, keeping every sum current.

        Bit for bit the same as updating one leaf at a time, each update adding
        its change to every ancestor on the way up: a repeated leaf's change is
        taken against the weight its previous occurrence set, and each node
        receives its changes in order of k through one unbuffered `np.add.at`.
        """
        leaves = np.asarray(leaves, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if not len(leaves):
            return
        # Group each leaf's updates in update order: a repeat's change is
        # taken against the weight set by the update before it, and the leaf
        # keeps its last weight.
        order = np.argsort(leaves, kind="stable")
        grouped = leaves[order]
        repeat = grouped[1:] == grouped[:-1]
        before = self.tree[leaves]
        before[order[1:][repeat]] = weights[order[:-1][repeat]]
        change = weights - before
        last = np.append(~repeat, True)
        self.tree[grouped[last]] = weights[order[last]]
        # Ancestors of each leaf from its parent up to the root, leaf by leaf
        # in update order. In 1-based heap numbering the j-th ancestor of
        # node n is n >> j; a shallow leaf's row runs past the root into 0.
        shifts = np.arange(1, len(self.tree).bit_length())
        ancestors = ((leaves + 1)[:, None] >> shifts) - 1
        valid = ancestors >= 0
        np.add.at(self.tree, ancestors[valid],
                  np.broadcast_to(change[:, None], ancestors.shape)[valid])

    def get_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lockstep descent for a whole batch of query values.

        Returns (leaf indices, leaf weights): for each value, the leaf whose
        cumulative-weight segment contains it.
        """
        idx = np.zeros(len(values), dtype=np.int64)
        remaining = values.astype(float)
        levels = len(self.tree).bit_length() - 1
        for level in range(levels):
            left = 2 * idx + 1
            left_sum = self.tree.take(left, mode="clip")
            go_right = remaining > left_sum
            if level == levels - 1:
                # Unless the capacity is a power of two, some leaves sit one
                # level up; a descent that reached one stays there.
                settled = idx >= self.capacity - 1
                go_right &= ~settled
                left[settled] = idx[settled]
            remaining -= left_sum * go_right
            idx = left + go_right
        return idx, self.tree[idx]

    @property
    def total(self) -> float:
        return float(self.tree[0])

    @property
    def max_weight(self) -> float:
        if self.size == 0:
            return 0.0
        leaves = self.tree[self.capacity - 1:self.capacity - 1 + self.size]
        return float(leaves.max())


@dataclass
class Sample:
    features: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_features: np.ndarray
    leaves: np.ndarray       # tree leaf indices for priority updates
    terminal_mask: np.ndarray
    weights: np.ndarray      # importance-sampling weights, max-normalized


class ReplayBuffer:
    def __init__(self, capacity: int, terminal_fraction: float = 0.125):
        term_cap = max(1, int(capacity * terminal_fraction))
        self.capacity = capacity
        self.terminal = SumTree(term_cap)
        self.regular = SumTree(capacity - term_cap)

    def __len__(self) -> int:
        return self.terminal.size + self.regular.size

    def push(self, features: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
             next_features: np.ndarray, terminal: bool) -> None:
        """Insert one episode's transitions for one partition, row k being transition k.

        Every transition gets the partition's max weight, so new experiences
        get replayed. One scan serves the whole run: each transition writes
        the max it read, so a scan after it would read the same max.
        """
        tree = self.terminal if terminal else self.regular
        tree.add(tree.max_weight or 1.0, (features, actions, rewards, next_features))

    def ready(self, batch_size: int, terminal_quota: int) -> bool:
        return (self.terminal.size >= terminal_quota
                and self.regular.size >= batch_size - terminal_quota)

    def sample(self, batch_size: int, terminal_quota: int,
               rng: np.random.Generator) -> Sample:
        """Stratified draw: `terminal_quota` terminal + the rest non-terminal."""
        if not self.ready(batch_size, terminal_quota):
            raise ValueError("not enough stored transitions in one of the partitions")
        parts = []
        for tree, count in ((self.terminal, terminal_quota),
                            (self.regular, batch_size - terminal_quota)):
            if not count:
                continue
            values = rng.uniform(0.0, tree.total, size=count)
            leaves, weights_at = tree.get_batch(values)
            slots = leaves - (tree.capacity - 1)
            parts.append((*(col[slots] for col in tree.columns), leaves,
                          weights_at / tree.total, np.full(count, float(tree.size))))
        features, actions, rewards, next_features, leaves, probs, sizes = (
            np.concatenate(column) for column in zip(*parts))
        weights = (sizes * probs) ** (-IS_EXPONENT)
        weights = weights / weights.max()
        terminal_mask = np.arange(batch_size) < terminal_quota
        return Sample(features=features, actions=actions, rewards=rewards,
                      next_features=next_features, leaves=leaves,
                      terminal_mask=terminal_mask, weights=weights)

    def update_priorities(self, sample: Sample, td_errors: np.ndarray) -> None:
        """Reprioritize the sampled transitions by their TD errors, in float64."""
        td_errors = np.asarray(td_errors, dtype=np.float64)
        weights = (np.abs(td_errors) + PRIORITY_OFFSET) ** PRIORITY_EXPONENT
        for tree, part in ((self.terminal, sample.terminal_mask),
                           (self.regular, ~sample.terminal_mask)):
            tree.update(sample.leaves[part], weights[part])
