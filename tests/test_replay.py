from collections import Counter

import numpy as np
import pytest

from diffload.dqn.replay import (PRIORITY_EXPONENT, PRIORITY_OFFSET, PriorityRing, ReplayBuffer,
                                 Sample)


def spearman(xs, ys):
    """Rank correlation, ties broken by order (none occur in these tests)."""
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=float)
        return r
    rx, ry = ranks(np.asarray(xs)), ranks(np.asarray(ys))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def tagged(kind, ids):
    """Transition columns whose feature rows are (kind, id), so a sample names its items."""
    ids = np.atleast_1d(np.asarray(ids))
    features = np.stack([np.full(len(ids), float(kind)), ids.astype(float)], axis=1)
    return features, np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids)), features.copy()


def push_one(buf, kind, i, terminal):
    buf.push(*tagged(kind, i), terminal=terminal)


REGULAR, TERMINAL = 0, 1


def ids_of(sample, terminal):
    rows = sample.terminal_mask if terminal else ~sample.terminal_mask
    return sample.features[rows, 1].astype(int)


def test_ring_eviction_drops_oldest():
    ring = PriorityRing(4)
    for i in range(6):
        ring.add((np.array([i]),))
    stored = set(ring.columns[0])
    assert stored == {2, 3, 4, 5}
    assert ring.size == 4


def test_buffer_capacity_split_and_bound():
    buf = ReplayBuffer(capacity=80, batch_size=8, terminal_quota=1)
    for i in range(300):
        push_one(buf, REGULAR, i, terminal=False)
    for i in range(50):
        push_one(buf, TERMINAL, i, terminal=True)
    assert len(buf) <= 80
    assert buf.terminal.size == 10   # 80 * 0.125
    assert buf.regular.size == 70
    # oldest regular items were evicted, most recent retained
    stored = set(buf.regular.columns[0][:, 1].astype(int))
    assert stored == set(range(230, 300))


def test_stratified_quota_per_batch():
    buf = ReplayBuffer(capacity=1000, batch_size=128, terminal_quota=16)
    for i in range(200):
        push_one(buf, REGULAR, i, terminal=False)
    for i in range(30):
        push_one(buf, TERMINAL, i, terminal=True)
    rng = np.random.default_rng(0)
    sample = buf.sample(rng)
    assert sample.terminal_mask.sum() == 16
    assert (~sample.terminal_mask).sum() == 112
    assert all(sample.features[sample.terminal_mask, 0] == TERMINAL)


def test_not_ready_raises_until_both_partitions_filled():
    buf = ReplayBuffer(capacity=1000, batch_size=128, terminal_quota=16)
    for i in range(200):
        push_one(buf, REGULAR, i, terminal=False)
    assert not buf.ready()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        buf.sample(rng)
    for i in range(16):
        push_one(buf, TERMINAL, i, terminal=True)
    assert buf.ready()


def test_uniform_priorities_sample_uniformly():
    # chi-square goodness of fit over 1e5 draws; 74.9195 is the df=49
    # critical value at significance 0.01, so exceeding it would reject
    # uniformity at p < 0.01.
    buf = ReplayBuffer(capacity=1000, batch_size=8, terminal_quota=1)
    for i in range(50):
        push_one(buf, REGULAR, i, terminal=False)
    for i in range(2):
        push_one(buf, TERMINAL, i, terminal=True)
    rng = np.random.default_rng(123)
    counts = Counter()
    draws = 0
    while draws < 100_000:
        sample = buf.sample(rng)
        for item in ids_of(sample, terminal=False):
            counts[item] += 1
            draws += 1
    expected = draws / 50
    chi2 = sum((counts[i] - expected) ** 2 / expected for i in range(50))
    assert chi2 < 74.9195


def test_uniform_priorities_give_unit_is_weights():
    buf = ReplayBuffer(capacity=100, batch_size=16, terminal_quota=2)
    for i in range(40):
        push_one(buf, REGULAR, i, terminal=False)
    for i in range(5):
        push_one(buf, TERMINAL, i, terminal=True)
    sample = buf.sample(np.random.default_rng(1))
    assert np.allclose(sample.weights, 1.0)


def test_inclusion_frequency_monotone_in_priority():
    buf = ReplayBuffer(capacity=1000, batch_size=32, terminal_quota=2)
    rng = np.random.default_rng(7)
    for i in range(64):
        push_one(buf, REGULAR, i, terminal=False)
    for i in range(4):
        push_one(buf, TERMINAL, i, terminal=True)
    # assign controlled, strictly increasing priorities via the update path
    priorities = np.linspace(0.01, 2.0, 64)
    buf.regular.priority[:64] = (priorities + PRIORITY_OFFSET) ** PRIORITY_EXPONENT
    counts = Counter()
    for _ in range(4000):
        sample = buf.sample(rng)
        for item in ids_of(sample, terminal=False):
            counts[item] += 1
    freq = [counts[i] for i in range(64)]
    assert spearman(priorities, freq) > 0.9


def test_updated_priorities_shift_sampling_mass():
    buf = ReplayBuffer(capacity=100, batch_size=16, terminal_quota=1)
    for i in range(30):
        push_one(buf, REGULAR, i, terminal=False)
    push_one(buf, TERMINAL, 0, terminal=True)
    rng = np.random.default_rng(3)
    sample = buf.sample(rng)
    # boost one non-terminal transition's priority, crush the other sampled ones
    idx = int(np.flatnonzero(~sample.terminal_mask)[0])
    td = np.zeros(16)
    td[idx] = 50.0
    buf.update_priorities(sample, td)
    heavy = int(sample.features[idx, 1])
    hits = 0
    for _ in range(300):
        s = buf.sample(rng)
        hits += int((ids_of(s, terminal=False) == heavy).sum())
    assert hits > 1000  # far above the uniform expectation of ~150




# -- bit-for-bit agreement with one item, slot or value at a time ----------------

def random_weights(rng, n):
    """Priority-like weights spanning several magnitudes, so sums round."""
    return (np.abs(rng.normal(size=n)) * 10.0 ** rng.integers(-3, 3, size=n) + 2e-5) ** 0.7


class GivenValues:
    """Stands in for a generator whose `uniform` draws are the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.high = None

    def uniform(self, low, high, size):
        assert low == 0.0 and size == len(self.values)
        self.high = high
        return self.values


def walk(priorities, value):
    """Reference: step along the running sum to the first slot that reaches `value`."""
    running = 0.0
    for slot, priority in enumerate(priorities):
        running += priority
        if value <= running:
            return slot
    raise AssertionError("value past the total")


@pytest.mark.parametrize("capacity", [1, 2, 13, 16, 50, 350])
def test_batched_descent_matches_walk_per_value(capacity):
    """The draw's binary search over the running sum picks the slot a walk along it does."""
    rng = np.random.default_rng(capacity + 100)
    ring = PriorityRing(capacity)
    ring.add((np.arange(capacity),))
    ring.priority[:] = random_weights(rng, capacity)
    prefix = [float(x) for x in np.cumsum(ring.priority)]
    total = prefix[-1]
    # Random values, plus the exact prefix sums, which belong to the earlier slot.
    values = np.concatenate([rng.uniform(0.0, total, size=200), prefix, [0.0, total]])
    draw = GivenValues(values)
    slots, probs = ring.draw(len(values), draw)
    assert draw.high == total
    expected = [walk(ring.priority.tolist(), value) for value in values]
    assert slots.tolist() == expected
    assert probs.tobytes() == (ring.priority[expected] / total).tobytes()


@pytest.mark.parametrize("stored", [1, 5, 12])
def test_no_draw_lands_past_the_filled_slots(stored):
    rng = np.random.default_rng(stored)
    ring = PriorityRing(13)
    ring.add((np.arange(stored),))
    ring.priority[:stored] = random_weights(rng, stored)
    ring.priority[stored:] = 5.0   # whatever the column holds past the filled slots
    total = float(np.cumsum(ring.priority[:stored])[-1])
    edges = [0.0, np.nextafter(total, 0.0), total]
    slots, _ = ring.draw(len(edges), GivenValues(edges))
    assert slots.tolist() == [0, stored - 1, stored - 1]
    slots, _ = ring.draw(20_000, rng)
    assert slots.max() < stored


@pytest.mark.parametrize("capacity", [1, 2, 13, 16, 50, 350])
def test_slot_drawn_twice_keeps_its_last_priority(capacity):
    rng = np.random.default_rng(capacity)
    buf = ReplayBuffer(capacity + 1, batch_size=capacity + 1, terminal_quota=1)
    assert buf.regular.capacity == capacity and buf.terminal.capacity == 1
    buf.push(*tagged(REGULAR, np.arange(capacity)), terminal=False)
    push_one(buf, TERMINAL, 0, terminal=True)
    for _ in range(40):
        # Slots as a sample holds them: terminal rows first, drawn with replacement.
        terminal, regular = int(rng.integers(1, 4)), int(rng.integers(1, 64))
        slots = np.concatenate([np.zeros(terminal, dtype=np.int64),
                                rng.integers(0, capacity, size=regular)])
        mask = np.arange(len(slots)) < terminal
        sample = Sample(features=None, actions=None, rewards=None, next_features=None,
                        slots=slots, terminal_mask=mask, weights=None)
        td = rng.normal(size=len(slots)) * 10.0 ** rng.integers(-3, 3)
        weights = (np.abs(td) + PRIORITY_OFFSET) ** PRIORITY_EXPONENT
        expected = [buf.terminal.priority.copy(), buf.regular.priority.copy()]
        for k, slot in enumerate(slots):
            expected[0 if mask[k] else 1][slot] = weights[k]
        buf.update_priorities(sample, td)
        assert buf.terminal.priority.tobytes() == expected[0].tobytes()
        assert buf.regular.priority.tobytes() == expected[1].tobytes()


def test_add_past_the_ring_matches_a_loop_per_item():
    rng = np.random.default_rng(5)
    ring = PriorityRing(13)
    priority, items = np.zeros(13), np.zeros(13, dtype=np.int64)
    slot = size = first = 0
    for count in (5, 9, 30, 1, 13):   # wraps the ring, once within a single add
        weight = priority[:size].max() if size else 1.0
        ring.add((np.arange(first, first + count),))
        for item in range(first, first + count):
            priority[slot], items[slot] = weight, item
            slot, size = (slot + 1) % 13, min(size + 1, 13)
        first += count
        assert ring.priority.tobytes() == priority.tobytes()
        assert ring.columns[0].tobytes() == items.tobytes()
        assert ring.size == size and ring.write == slot
        # Move the max before the next add.
        touched = rng.integers(0, size, size=3)
        ring.priority[touched] = priority[touched] = random_weights(rng, 3)


def test_episode_push_matches_transition_pushes_bitwise():
    """One push per episode and partition equals one push per transition.

    Priority updates between episodes move the max priority, and the small
    capacity wraps both rings.
    """
    rng = np.random.default_rng(11)
    whole, single = (ReplayBuffer(capacity=64, batch_size=8, terminal_quota=1) for _ in range(2))
    for episode in range(40):
        n = int(rng.integers(2, 12))
        columns = (rng.normal(size=(n, 5)), rng.integers(0, 2, size=n), rng.normal(size=n),
                   rng.normal(size=(n, 5)))
        for terminal, rows in ((False, slice(0, n - 1)), (True, slice(n - 1, n))):
            ring = whole.terminal if terminal else whole.regular
            newest = ring.priority[:ring.size].max() if ring.size else 1.0
            whole.push(*(c[rows] for c in columns), terminal=terminal)
            slots = (ring.write - np.arange(1, rows.stop - rows.start + 1)) % ring.capacity
            assert (ring.priority[slots] == newest).all()
            for k in range(rows.start, rows.stop):
                single.push(*(c[k:k + 1] for c in columns), terminal=terminal)
        if whole.ready():
            a = whole.sample(np.random.default_rng(episode))
            b = single.sample(np.random.default_rng(episode))
            td = rng.normal(size=8) * 10.0 ** rng.integers(-3, 2)
            whole.update_priorities(a, td)
            single.update_priorities(b, td)
        for x, y in ((whole.regular, single.regular), (whole.terminal, single.terminal)):
            assert x.priority.tobytes() == y.priority.tobytes()
            assert all(p.tobytes() == q.tobytes() for p, q in zip(x.columns, y.columns))
