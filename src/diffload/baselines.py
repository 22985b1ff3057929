"""Reference solvers: simple policies, a genetic algorithm, branch & bound,
and two exact oracles.

All solvers return a feasible :class:`Decision` and are deterministic given
their seed. The count-enumeration oracle is the ground truth used across
the test suite: every latency coupling between users flows through the
grant count m alone, so enumerating m and greedily picking the m users with
the largest grant-vs-deny gain is exact. It takes O(B_max * I log I) time at
worst; on large instances a pre-pass at a few grant counts first drops the
users that cannot enter any top-m set, and only the rest are solved for every
m and ranked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import CostModel, SplitTable, decision_of, sequential_sum
from .env import processing_order
from .qoe import Decision, all_local_decision
from .quadratic import DENY, GRANT, build_quadratic
from .scenario import Scenario, ValidationError


def _first_in_request_order(scenario: Scenario) -> np.ndarray:
    """(I,) grant mask of the first `Scenario.cap` users in request order."""
    grants = np.zeros(scenario.user_count, dtype=bool)
    grants[processing_order(scenario)[:scenario.cap]] = True
    return grants


def baseline_all_offload_opt(scenario: Scenario) -> Decision:
    """Grant everyone up to capacity in request order, with optimized splits."""
    return SplitTable(scenario).decision(_first_in_request_order(scenario))


def _min_split_decision(scenario: Scenario, grants: np.ndarray) -> Decision:
    """Granted users at the minimum split, everyone else fully local."""
    return decision_of(grants, scenario.pai.n_min, scenario.pai.n_total)


def baseline_all_offload_fixed(scenario: Scenario) -> Decision:
    """Grant everyone up to capacity in request order, offloading the maximum."""
    return _min_split_decision(scenario, _first_in_request_order(scenario))


baseline_all_local = all_local_decision


# ---------------------------------------------------------------------------
# Genetic algorithm
# ---------------------------------------------------------------------------

# The GA's operators: tournament size, the chance that a child is a uniform
# crossover rather than a copy of its first parent, and the best rows carried
# over unchanged. Each bit of a child flips with probability 1 / user count.
TOURNAMENT = 3
CROSSOVER_PROB = 0.5
ELITISM = 2
GA_SEED = 0  # used when no generator is passed to solve_ga


@dataclass(frozen=True)
class GaConfig:
    population: int = 100
    iterations: int = 200

    def __post_init__(self):
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


def repair(population: np.ndarray, counts: np.ndarray, cap: int,
           rng: np.random.Generator) -> np.ndarray:
    """Each row of a (P, I) bool matrix whose (P,) grant count `counts` exceeds
    `cap` keeps `cap` of its grants, a uniformly random subset; other rows are
    returned as they are."""
    over = counts > cap
    if not over.any():
        return population
    rows = population[over]
    # The `cap` smallest uniform keys over the granted bits survive. A row over
    # the cap has more than `cap` finite keys, so exactly `cap` grants remain.
    keys = np.where(rows, rng.random(rows.shape), np.inf)
    kept = np.zeros_like(rows)
    if cap:
        kept[np.arange(len(rows))[:, None], np.argpartition(keys, cap - 1, axis=1)[:, :cap]] = True
    population = population.copy()
    population[over] = kept
    return population


def solve_ga(scenario: Scenario, cfg: GaConfig | None = None,
             rng: np.random.Generator | int | None = None,
             history: list | None = None) -> Decision:
    """Grant-bit chromosomes with repair; fitness is the full objective.

    The population is a (population, I) bool matrix bred one generation at
    a time: elites, tournament winners, uniform crossover and bit-flip
    mutation are drawn for every child at once, with one ``rng.random``
    call for the crossover flags and both per-bit matrices. Each row's grant
    count is taken once, shared by `repair` and by the one ``row_values``
    call that scores the whole generation. When given, `history` collects
    the best-ever fitness after each generation (non-decreasing thanks to
    elitism).
    """
    cfg = cfg if cfg is not None else GaConfig()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(GA_SEED if rng is None else rng)
    n = scenario.user_count
    if n == 0:
        return baseline_all_local(scenario)
    table = SplitTable(scenario)
    cap, size = table.cap, cfg.population
    children = size - min(ELITISM, size)
    # Per-bit thresholds: a child's bit comes from its first parent below 0.5
    # and flips below 1 / user count.
    bit_thresholds = np.array([0.5, 1.0 / n])[:, None, None]
    # Flat index of each (parent, child) tournament's first contender.
    first_contender = np.arange(2 * children) * TOURNAMENT

    pop = rng.random((size, n)) < 0.5
    counts = np.count_nonzero(pop, axis=1)
    pop, counts = repair(pop, counts, cap, rng), np.minimum(counts, cap)
    fits = table.row_values(pop, counts)
    best_idx = int(np.argmax(fits))
    best, best_fit = pop[best_idx], fits[best_idx]

    for _ in range(cfg.iterations):
        # Stable on -fitness: equal fitness keeps population order, as sorted() does.
        elites = np.argsort(-fits, kind="stable")[:ELITISM]
        contenders = rng.integers(0, size, size=(2, children, TOURNAMENT))
        # argmax takes the first of equal contenders, as max() does.
        pick = np.argmax(fits[contenders], axis=2)
        parents = pop[contenders.ravel()[first_contender + pick.ravel()]].reshape(2, children, n)
        draws = rng.random(children * (1 + 2 * n))
        crossed = draws[:children] < CROSSOVER_PROB
        from_p1, flips = draws[children:].reshape(2, children, n) < bit_thresholds
        from_p1 |= ~crossed[:, None]
        # np.where(from_p1, p1, p2) by bit operations, which numpy runs far faster.
        p1, p2 = parents
        offspring = (p1 ^ p2) & from_p1
        offspring ^= p2
        offspring ^= flips
        child_counts = np.count_nonzero(offspring, axis=1)
        pop = np.concatenate([pop[elites], repair(offspring, child_counts, cap, rng)])
        counts = np.concatenate([counts[elites], np.minimum(child_counts, cap)])
        fits = table.row_values(pop, counts)
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best, best_fit = pop[gen_best], fits[gen_best]
        if history is not None:
            history.append(float(best_fit))

    return table.decision(best)


# ---------------------------------------------------------------------------
# Branch & bound on the fixed-split reduction
# ---------------------------------------------------------------------------

@dataclass
class BnbStats:
    nodes: int = 0
    incumbent: float = float("-inf")


def solve_bnb(scenario: Scenario, stats: BnbStats | None = None) -> Decision:
    """Exact maximizer of the fixed-split assignment via depth-first search.

    The search runs on the paper's quadratic form of the problem
    (:func:`diffload.quadratic.build_quadratic`), with splits pinned at
    n_min for granted users. Users are decided in processing order, a grant
    before a denial. A node carries two sums over its decided users: `picked`,
    each one's linear term (its deny value, or its grant value at no grants),
    and `shares`, the couplings of the granted ones. At g grants it is worth
    ``picked - g * shares``, so either child adds its user's terms to the two
    sums.

    The bound of a node adds to its value each undecided user's better of
    denial and a grant at g + 1 (denial once g is at the cap). It is
    optimistic because no coupling is negative, so a granted value does not
    increase with the grant count. Every child counts as a node in
    `stats`, but the search descends only into a child whose bound beats the
    incumbent (Land & Doig 1960), so a pruned child is checked in its parent
    and costs no call.
    """
    stats = stats if stats is not None else BnbStats()
    n = scenario.user_count
    order = np.asarray(processing_order(scenario), dtype=np.intp)
    cap = scenario.cap
    # Each user's deny value, grant value at no grants and coupling, in
    # processing order.
    form = build_quadratic(scenario, scenario.pai.n_min)
    deny, base = form.linear[order, DENY], form.linear[order, GRANT]
    coupling = form.coupling[order]
    # grant[i, m - 1]: user i's value granted in a round of m grants.
    grant = base[:, None] - np.arange(1, cap + 1) * coupling[:, None]

    # tails[depth][g]: the optimistic completion of users depth.. at g grants,
    # each column summed from the last user back. Column g < cap lets every
    # user take max(deny, grant at g + 1); column cap denies everyone.
    tails = np.zeros((n + 1, cap + 1))
    tails[:n, :cap] = np.cumsum(np.maximum(deny[:, None], grant)[::-1], axis=0)[::-1]
    tails[:n, cap] = np.cumsum(deny[::-1])[::-1]

    # The search reads single entries, which Python lists serve far faster
    # than numpy scalars; the float arithmetic is the same.
    d, b, c, tails = deny.tolist(), base.tolist(), coupling.tolist(), tails.tolist()

    best_value = float("-inf")
    best_grants: list[bool] | None = None
    chosen = [False] * n
    nodes = 1  # the root, whose bound always beats -inf

    def expand(depth: int, count: int, picked: float, shares: float) -> None:
        """Visit both children of a node at `depth` with `count` grants."""
        nonlocal best_value, best_grants, nodes
        child = depth + 1
        if count < cap:
            chosen[depth] = True
            granted_picked, granted_shares = picked + b[depth], shares + c[depth]
            value = granted_picked - (count + 1) * granted_shares
            nodes += 1
            if child == n:
                if value > best_value:
                    best_value, best_grants = value, chosen.copy()
            elif value + tails[child][count + 1] > best_value:
                expand(child, count + 1, granted_picked, granted_shares)
            chosen[depth] = False
        picked += d[depth]
        value = picked - count * shares
        nodes += 1
        if child == n:
            if value > best_value:
                best_value, best_grants = value, chosen.copy()
        elif value + tails[child][count] > best_value:
            expand(child, count, picked, shares)

    if n:
        expand(0, 0, 0.0, 0.0)
    else:
        best_value, best_grants = 0.0, []
    stats.nodes += nodes
    stats.incumbent = best_value
    assert best_grants is not None
    grants = np.zeros(n, dtype=bool)
    grants[order] = best_grants  # map back to user-id order
    return _min_split_decision(scenario, grants)


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------

# The oracle's pre-pass costs about one extra grid call, so it runs only where
# it could remove at least this many (user, grant count) cells: (I - cap) * cap.
PRUNE_MIN_CELLS = 16384
# The pre-pass checks gains at one grant, at every PRUNE_STEP-th grant count
# and at cap. At 1000 users a step of 8 and power-of-two counts were slower,
# and five evenly spaced counts far slower at b_max 256.
PRUNE_STEP = 16


def ranked_gains(values: np.ndarray, deny: np.ndarray) -> np.ndarray:
    """(cap, min(K, cap)) ranked gains of K users from their (cap, K) grid of
    granted values and (K,) deny values: row m - 1 holds the largest gains in
    a round of m grants, in descending order.

    A row longer than cap is cut to its top cap gains (`np.partition`)
    before the sort; they are the values a full descending sort would put
    first, in the same order. The grid is count-major, so each row's
    partition and sort run over contiguous memory, in place.
    """
    gains = values - deny
    cap, k = gains.shape
    if cap and k > cap:
        gains.partition(k - cap, axis=1)
        gains = gains[:, k - cap:]
    ranked = np.negative(gains)
    ranked.sort(axis=1)
    return np.negative(ranked, out=ranked)


def grant_count_totals(deny: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """(cap + 1,) objective of the best set of exactly m grants, for m = 0..cap,
    from every user's (I,) deny values and the ranked gains (`ranked_gains`).

    For each m, every user's gain from being granted (at optimal split, in
    a round of m) over being denied is independent of who else is granted,
    so the best set of m grants is the top-m gains. A cumulative sum of each
    grant count's ranked gains gives every m's value at once. The ranked
    values, and so the totals, do not depend on how ties are ordered.
    """
    top = np.cumsum(ranked, axis=1)
    # Index 0 is m = 0 (all local).
    return sequential_sum(deny) + np.concatenate(([0.0], top.diagonal()))


def _oracle_candidates(model: CostModel, deny: np.ndarray, cap: int) -> np.ndarray:
    """Ascending ids of the users who can enter a top-m set; see `solve_count_oracle`.

    The checkpoint counts c_0 = 1 < c_1 < ... < c_k = cap are 1, every
    `PRUNE_STEP`-th count and cap. User u is kept when, for some interval j,
    their gain at c_j is at least T_{j+1}, the c_{j+1}-th largest gain at
    c_{j+1}. At cap = 1 the one interval is [1, 1]. Row j of one
    `optimal_splits` grid holds every user's value at c_j.
    """
    counts = np.r_[1, np.arange(PRUNE_STEP, cap, PRUNE_STEP), cap]
    _, gains = model.optimal_splits(counts)
    gains -= deny
    n = len(deny)
    keep = np.zeros(n, dtype=bool)
    for start, end, c in zip(gains, gains[1:], counts[1:]):
        # Users equal to the threshold stay, so tied copies are ranked together.
        keep |= start >= np.partition(end, n - c)[n - c]
    return np.flatnonzero(keep)


def solve_count_oracle(scenario: Scenario) -> Decision:
    """Exact optimum by enumerating the grant count (see `grant_count_totals`).

    argmax keeps the first of equal totals, so the fewest grants win a tie.
    The stable descending order of the gains, in which ties go to the lower
    user index, is taken for the chosen count only.

    Where it could remove at least `PRUNE_MIN_CELLS` grid cells, a pre-pass
    (`_oracle_candidates`) first drops the users that cannot enter any top-m
    set, and the split grid is filled and ranked for the rest only. It is
    exact. At a fixed split the computed value does not increase with m,
    because every operation in ``_transfer``, ``edge_step`` and ``_granted``
    is monotone under rounding. Each cell's split is the integer optimum, so
    a user's gain never grows with the count, and gain row m dominates
    every later row entry by entry. Take any m in a checkpoint interval
    [c_j, c_{j+1}]. Row m dominates row c_{j+1} and m <= c_{j+1}, so
    the m-th largest gain at m is at least T_{j+1}, the c_{j+1}-th largest
    gain at c_{j+1}. Every member of a top-m set, and every user tied with
    its last member, has a gain at m of at least T_{j+1}, and so a gain at
    c_j of at least T_{j+1}: each is a candidate. The candidates are ranked
    in ascending id order, so ties still go to the lower id. The deny values
    are still summed over every user.

    Each grid is read before the next `CostModel.optimal_splits` call
    refills the workspace, so the only grid a warm call allocates is the
    gains that `ranked_gains` ranks.
    """
    n, cap = scenario.user_count, scenario.cap
    model = scenario.model
    deny = model.denied()
    users = np.arange(n)
    if (n - cap) * cap >= PRUNE_MIN_CELLS:
        users = _oracle_candidates(model, deny, cap)
        model = model.subset(users)
    splits, values = model.optimal_splits(np.arange(1, cap + 1))
    users_deny = deny[users]
    best = int(np.argmax(grant_count_totals(deny, ranked_gains(values, users_deny))))
    if best == 0:
        return all_local_decision(scenario)
    gains = values[best - 1] - users_deny
    grants = np.zeros(n, dtype=bool)
    grants[users[np.argsort(-gains, kind="stable")[:best]]] = True
    granted_splits = np.zeros(n, dtype=np.int64)
    granted_splits[users] = splits[best - 1]
    return decision_of(grants, granted_splits, scenario.pai.n_total)


EXHAUSTIVE_LIMIT = 15


def solve_exhaustive(scenario: Scenario) -> Decision:
    """Ground truth by enumerating every feasible grant pattern. I <= 15 only."""
    n = scenario.user_count
    if n > EXHAUSTIVE_LIMIT:
        raise ValidationError(
            f"exhaustive enumeration refused for {n} users (limit {EXHAUSTIVE_LIMIT})")
    table = SplitTable(scenario)
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1 == 1
    feasible = bits[np.count_nonzero(bits, axis=1) <= table.cap]
    # argmax keeps the first best mask in ascending mask order.
    return table.decision(feasible[int(np.argmax(table.row_values(feasible)))])


SOLVERS = {
    "b1": lambda s, rng=None: baseline_all_offload_opt(s),
    "b2": lambda s, rng=None: baseline_all_offload_fixed(s),
    "b3": lambda s, rng=None: baseline_all_local(s),
    "ga": lambda s, rng=None: solve_ga(s, rng=rng),
    "bnb": lambda s, rng=None: solve_bnb(s),
    "oracle": lambda s, rng=None: solve_count_oracle(s),
    "exhaustive": lambda s, rng=None: solve_exhaustive(s),
}
