from collections import Counter

import numpy as np
import pytest

from diffload.dqn.replay import PRIORITY_EXPONENT, PRIORITY_OFFSET, ReplayBuffer, SumTree


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


def test_sumtree_total_tracks_updates():
    tree = SumTree(8)
    for i, w in enumerate([1.0, 2.0, 3.0]):
        tree.add(w, (np.array([i]),))
    leaves = tree.capacity - 1 + np.arange(3)
    assert tree.total == pytest.approx(6.0)
    tree.update(leaves[1:2], [5.0])
    assert tree.total == pytest.approx(9.0)


def test_sumtree_prefix_lookup():
    tree = SumTree(4)
    for i, w in enumerate([1.0, 2.0, 3.0, 4.0]):
        tree.add(w, (np.array([i]),))
    # cumulative boundaries: 1, 3, 6, 10
    leaves, weights = tree.get_batch(np.array([0.5, 2.5, 5.0, 9.9]))
    assert list(tree.columns[0][leaves - (tree.capacity - 1)]) == [0, 1, 2, 3]
    assert list(weights) == [1.0, 2.0, 3.0, 4.0]


def test_ring_eviction_drops_oldest():
    tree = SumTree(4)
    for i in range(6):
        tree.add(1.0, (np.array([i]),))
    stored = set(tree.columns[0])
    assert stored == {2, 3, 4, 5}
    assert tree.size == 4


def test_buffer_capacity_split_and_bound():
    buf = ReplayBuffer(capacity=80, terminal_fraction=0.125)
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
    buf = ReplayBuffer(capacity=1000)
    for i in range(200):
        push_one(buf, REGULAR, i, terminal=False)
    for i in range(30):
        push_one(buf, TERMINAL, i, terminal=True)
    rng = np.random.default_rng(0)
    sample = buf.sample(128, 16, rng)
    assert sample.terminal_mask.sum() == 16
    assert (~sample.terminal_mask).sum() == 112
    assert all(sample.features[sample.terminal_mask, 0] == TERMINAL)


def test_not_ready_raises_until_both_partitions_filled():
    buf = ReplayBuffer(capacity=1000)
    for i in range(200):
        push_one(buf, REGULAR, i, terminal=False)
    assert not buf.ready(128, 16)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        buf.sample(128, 16, rng)
    for i in range(16):
        push_one(buf, TERMINAL, i, terminal=True)
    assert buf.ready(128, 16)


def test_uniform_priorities_sample_uniformly():
    # chi-square goodness of fit over 1e5 draws; 74.9195 is the df=49
    # critical value at significance 0.01, so exceeding it would reject
    # uniformity at p < 0.01.
    buf = ReplayBuffer(capacity=1000)
    for i in range(50):
        push_one(buf, REGULAR, i, terminal=False)
    for i in range(2):
        push_one(buf, TERMINAL, i, terminal=True)
    rng = np.random.default_rng(123)
    counts = Counter()
    draws = 0
    while draws < 100_000:
        sample = buf.sample(8, 1, rng)
        for item in ids_of(sample, terminal=False):
            counts[item] += 1
            draws += 1
    expected = draws / 50
    chi2 = sum((counts[i] - expected) ** 2 / expected for i in range(50))
    assert chi2 < 74.9195


def test_uniform_priorities_give_unit_is_weights():
    buf = ReplayBuffer(capacity=100)
    for i in range(40):
        push_one(buf, REGULAR, i, terminal=False)
    for i in range(5):
        push_one(buf, TERMINAL, i, terminal=True)
    sample = buf.sample(16, 2, np.random.default_rng(1))
    assert np.allclose(sample.weights, 1.0)


def test_inclusion_frequency_monotone_in_priority():
    buf = ReplayBuffer(capacity=1000)
    rng = np.random.default_rng(7)
    for i in range(64):
        push_one(buf, REGULAR, i, terminal=False)
    for i in range(4):
        push_one(buf, TERMINAL, i, terminal=True)
    # assign controlled, strictly increasing priorities via the update path
    priorities = np.linspace(0.01, 2.0, 64)
    for leaf_offset, p in enumerate(priorities):
        leaf = buf.regular.capacity - 1 + leaf_offset
        buf.regular.update([leaf], [(p + PRIORITY_OFFSET) ** PRIORITY_EXPONENT])
    counts = Counter()
    for _ in range(4000):
        sample = buf.sample(32, 2, rng)
        for item in ids_of(sample, terminal=False):
            counts[item] += 1
    freq = [counts[i] for i in range(64)]
    assert spearman(priorities, freq) > 0.9


def test_updated_priorities_shift_sampling_mass():
    buf = ReplayBuffer(capacity=100)
    for i in range(30):
        push_one(buf, REGULAR, i, terminal=False)
    push_one(buf, TERMINAL, 0, terminal=True)
    rng = np.random.default_rng(3)
    sample = buf.sample(16, 1, rng)
    # boost one non-terminal transition's priority, crush the other sampled ones
    idx = int(np.flatnonzero(~sample.terminal_mask)[0])
    td = np.zeros(16)
    td[idx] = 50.0
    buf.update_priorities(sample, td)
    heavy = int(sample.features[idx, 1])
    hits = 0
    for _ in range(300):
        s = buf.sample(16, 1, rng)
        hits += int((ids_of(s, terminal=False) == heavy).sum())
    assert hits > 1000  # far above the uniform expectation of ~150


# -- bit-for-bit agreement with one walk per leaf ---------------------------------

def walk_update(tree, leaf, weight):
    """Reference: set one leaf and add its change to every ancestor on the way up."""
    change = weight - tree[leaf]
    tree[leaf] = weight
    while leaf != 0:
        leaf = (leaf - 1) // 2
        tree[leaf] += change


def random_weights(rng, n):
    """Priority-like weights spanning several magnitudes, so sums round."""
    return (np.abs(rng.normal(size=n)) * 10.0 ** rng.integers(-3, 3, size=n) + 2e-5) ** 0.7


@pytest.mark.parametrize("capacity", [1, 2, 13, 16, 50, 350])
def test_batched_update_matches_walk_per_leaf_bitwise(capacity):
    rng = np.random.default_rng(capacity)
    tree = SumTree(capacity)
    reference = tree.tree.copy()
    for _ in range(40):
        # Draws repeat leaves; above a power of two the leaves sit at two depths.
        leaves = rng.integers(capacity - 1, 2 * capacity - 1, size=int(rng.integers(1, 40)))
        weights = random_weights(rng, len(leaves))
        tree.update(leaves, weights)
        for leaf, weight in zip(leaves, weights):
            walk_update(reference, int(leaf), float(weight))
        assert tree.tree.tobytes() == reference.tobytes()


def test_add_past_the_ring_matches_walk_per_leaf_bitwise():
    rng = np.random.default_rng(5)
    tree = SumTree(13)
    reference = tree.tree.copy()
    slot = 0
    for count in (5, 9, 30, 1, 13):   # wraps the ring, once within a single add
        weight = float(random_weights(rng, 1)[0])
        tree.add(weight, (np.arange(count),))
        for _ in range(count):
            walk_update(reference, slot + tree.capacity - 1, weight)
            slot = (slot + 1) % tree.capacity
        assert tree.tree.tobytes() == reference.tobytes()
    assert tree.size == 13 and tree.write == slot


def test_episode_push_matches_transition_pushes_bitwise():
    """One push per episode and partition equals one push per transition.

    Priority updates between episodes move the max weight, and the small
    capacity wraps both rings.
    """
    rng = np.random.default_rng(11)
    whole, single = (ReplayBuffer(capacity=64, terminal_fraction=0.125) for _ in range(2))
    for episode in range(40):
        n = int(rng.integers(2, 12))
        columns = (rng.normal(size=(n, 5)), rng.integers(0, 2, size=n), rng.normal(size=n),
                   rng.normal(size=(n, 5)))
        for terminal, rows in ((False, slice(0, n - 1)), (True, slice(n - 1, n))):
            tree = whole.terminal if terminal else whole.regular
            newest = tree.max_weight or 1.0
            whole.push(*(c[rows] for c in columns), terminal=terminal)
            slots = (tree.write - np.arange(1, rows.stop - rows.start + 1)) % tree.capacity
            assert (tree.tree[slots + tree.capacity - 1] == newest).all()
            for k in range(rows.start, rows.stop):
                single.push(*(c[k:k + 1] for c in columns), terminal=terminal)
        if whole.ready(8, 1):
            draw = np.random.default_rng(episode)
            a, b = whole.sample(8, 1, draw), single.sample(8, 1, np.random.default_rng(episode))
            td = rng.normal(size=8) * 10.0 ** rng.integers(-3, 2)
            whole.update_priorities(a, td)
            single.update_priorities(b, td)
        for x, y in ((whole.regular, single.regular), (whole.terminal, single.terminal)):
            assert x.tree.tobytes() == y.tree.tobytes()
            assert all(p.tobytes() == q.tobytes() for p, q in zip(x.columns, y.columns))


def walk_get(tree, value):
    """Reference: descend from the root, going right past each left subtree's sum."""
    idx = 0
    while 2 * idx + 1 < len(tree):
        left = 2 * idx + 1
        if value <= tree[left]:
            idx = left
        else:
            value -= tree[left]
            idx = left + 1
    return idx


@pytest.mark.parametrize("capacity", [1, 2, 13, 16, 50, 350])
def test_batched_descent_matches_walk_per_value(capacity):
    rng = np.random.default_rng(capacity + 100)
    tree = SumTree(capacity)
    tree.add(1.0, (np.arange(capacity),))
    leaves = np.arange(capacity) + capacity - 1
    tree.update(leaves, random_weights(rng, capacity))
    # Random values, plus the exact prefix sums where a descent must break ties left.
    values = np.concatenate([rng.uniform(0.0, tree.total, size=200),
                             np.cumsum(tree.tree[leaves]), [0.0, tree.total]])
    found, weights = tree.get_batch(values)
    expected = [walk_get(tree.tree, value) for value in values]
    assert found.tolist() == expected
    assert weights.tobytes() == tree.tree[expected].tobytes()
