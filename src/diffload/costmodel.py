"""The latency/accuracy model over all users at once.

:class:`CostModel` holds a scenario as per-user vectors and evaluates the
model of :mod:`diffload.qoe` on whole (user, grant count) grids, or for one
decision as each user's :class:`Breakdown`. Every value is computed with
the operations of the scalar :func:`qoe.e2e_latency` in the same order and
the accuracy curve is tabulated with :func:`scenario.fitted_pai` itself, so
each cell equals the scalar reference bit for bit. Optimal splits follow
the case analysis of the reference :func:`split.optimal_split`, with the
interior root in closed form.

:class:`SplitTable` fills those grids once per scenario and serves every
decision that needs optimal splits: the oracles, the baselines, the
genetic algorithm and the decision environment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .qoe import ContractError, Decision, DecisionEntry
from .scenario import EdgeConfig, PaiParams, Scenario, fitted_pai, step_latency_local


@lru_cache(maxsize=8)
def _accuracy_table(pai: PaiParams) -> np.ndarray:
    """Read-only F(0..n_total), once per PaiParams; built with the scalar fitted_pai
    because np.exp differs from math.exp in the last bit."""
    table = np.array([fitted_pai(n, pai) for n in range(pai.n_total + 1)])
    table.setflags(write=False)
    return table


def stationary_point(alpha, delta, pai: PaiParams):
    """The split n > b_f at which the marginal accuracy rate equals `delta`.

    The rate is alpha * a_f * F(n)(1 - F(n)), so F(1 - F) = c with
    c = delta / (alpha * a_f) gives the upper branch
    F* = (1 + sqrt(1 - 4c)) / 2, and n* = b_f + logit(F*) / a_f. Since
    1 - F* = c / F*, the logit is log(F*^2 / c), which avoids the
    cancellation in 1 - F* when c is small. Requires 0 < c <= 1/4, which
    holds whenever the rate at n_min exceeds delta > 0; takes scalars or
    arrays alike. Cells outside that interior (delta <= 0, or c out of
    range) may give nan or inf, and the caller discards them.
    """
    c = delta / (alpha * pai.a_f)
    f = (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * c, 0.0))) / 2.0
    return pai.b_f + np.log(f * f / c) / pai.a_f


@dataclass(frozen=True)
class Breakdown:
    """Per-user terms of the objective under one decision, in user order."""
    pai_term: np.ndarray         # alpha * F(split)
    rtt: np.ndarray              # wait from request slot to end of decision interval
    uplink_downlink: np.ndarray  # prompt up + intermediate result down
    edge_compute: np.ndarray     # offloaded denoising steps
    local_compute: np.ndarray    # local denoising steps
    total: np.ndarray            # end-to-end latency


@dataclass(frozen=True)
class CostModel:
    edge: EdgeConfig
    pai: PaiParams
    alpha: np.ndarray       # (I,) emphasis weights
    local_step: np.ndarray  # (I,) per-step local latency
    rtt: np.ndarray         # (I,) wait from request slot to end of decision interval
    payload: np.ndarray     # (I,) prompt plus intermediate bits moved per grant
    accuracy: np.ndarray    # (n_total + 1,) F(n) at every integer split, read-only

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "CostModel":
        edge, users = scenario.edge, scenario.users
        slots = np.array([u.request_slot for u in users], dtype=np.int64)
        return cls(
            edge=edge,
            pai=scenario.pai,
            alpha=np.array([u.alpha for u in users], dtype=float),
            local_step=np.array([step_latency_local(u.device) for u in users], dtype=float),
            rtt=(edge.slots_per_interval - slots) * edge.slot_duration,
            payload=np.array([u.prompt_bits + u.intermediate_bits for u in users], dtype=float),
            accuracy=_accuracy_table(scenario.pai),
        )

    def subset(self, users: np.ndarray) -> "CostModel":
        """The model of the given users only, in the given order."""
        return replace(self, alpha=self.alpha[users], local_step=self.local_step[users],
                       rtt=self.rtt[users], payload=self.payload[users])

    def edge_step(self, m):
        """Per-step edge latency at batch size m, as in qoe.step_latency_edge."""
        device = self.edge.device
        return device.step_slope * (np.asarray(m) / self.edge.gpus) + device.step_intercept

    def denied(self) -> np.ndarray:
        """(I,) value of each user run fully locally."""
        n = self.pai.n_total
        return self.alpha * self.accuracy[n] - (self.rtt + n * self.local_step)

    def granted(self, split, m) -> np.ndarray:
        """Value of each user granted at `split` in a round of m grants.

        `split` broadcasts against (I, k) and `m` against (k,); the result
        is (I, k), users along the first axis.
        """
        m = np.asarray(m)
        return self._granted(np.asarray(split), self.rtt[:, None] + self._transfer(m),
                             self.edge_step(m))

    def breakdown(self, decision: Decision) -> Breakdown:
        """Each user's accuracy term and latency parts (summed as in qoe.e2e_latency)
        under a feasible decision."""
        granted = np.array([e.granted for e in decision.entries], dtype=bool)
        split = np.array([e.split for e in decision.entries], dtype=np.int64)
        m = np.count_nonzero(granted)
        transfer = np.where(granted, self._transfer(m)[:, 0], 0.0)
        edge_c = np.where(granted, (self.pai.n_total - split) * self.edge_step(m), 0.0)
        local = split * self.local_step
        return Breakdown(pai_term=self.alpha * self.accuracy[split], rtt=self.rtt,
                         uplink_downlink=transfer, edge_compute=edge_c, local_compute=local,
                         total=self.rtt + transfer + edge_c + local)

    def _transfer(self, m) -> np.ndarray:
        """(I, k) uplink plus downlink latency in a round of m grants; m is (k,) or a scalar."""
        return self.payload[:, None] * m / (
            self.edge.spectral_efficiency * self.edge.bandwidth_hz)

    def _granted(self, split: np.ndarray, head: np.ndarray, edge_step) -> np.ndarray:
        total = head + (self.pai.n_total - split) * edge_step
        total += split * self.local_step[:, None]
        return np.subtract(self.alpha[:, None] * self.accuracy[split.astype(np.intp)], total,
                           out=total)

    def optimal_splits(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(I, k) optimal splits and their values; column j holds a round of
        ``counts[j]`` grants, for a (k,) int array of grant counts."""
        pai = self.pai
        m = np.asarray(counts)
        edge_step = self.edge_step(m)
        delta = self.local_step[:, None] - edge_step

        def rate(n):
            f = self.accuracy[n]
            return self.alpha * pai.a_f * f * (1.0 - f)

        local_dominates = delta <= 0
        pai_saturated = ~local_dominates & (rate(pai.n_total)[:, None] >= delta)
        latency_saturated = (~local_dominates & ~pai_saturated
                             & (rate(pai.n_min)[:, None] <= delta))
        interior = ~(local_dominates | pai_saturated | latency_saturated)

        # Splits are held as whole-number floats, so _granted casts no ints. The
        # root is taken on the whole grid and kept in the interior cells only.
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.floor(stationary_point(self.alpha[:, None], delta, pai))
            np.clip(lo, pai.n_min, pai.n_total, out=lo)
        np.copyto(lo, float(pai.n_min), where=latency_saturated)
        np.copyto(lo, float(pai.n_total), where=local_dominates | pai_saturated)
        hi = np.minimum(lo + 1.0, pai.n_total)
        np.copyto(hi, lo, where=~interior)
        head = self.rtt[:, None] + self._transfer(m)  # the split-independent part
        values, v_hi = self._granted(lo, head, edge_step), self._granted(hi, head, edge_step)
        take_hi = v_hi > values
        np.copyto(lo, hi, where=take_hi)
        np.copyto(values, v_hi, where=take_hi)
        return lo.astype(np.int64), values


class SplitTable:
    """Optimal splits and values for every user and grant count, filled once.

    ``splits`` and ``values`` are (I, cap) grids whose column m - 1 holds a
    round of m grants, for m = 1..cap with cap = min(I, b_max); ``deny``
    holds each user's fully local value.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.cap = min(scenario.user_count, scenario.edge.b_max)
        model = CostModel.from_scenario(scenario)
        self.deny = model.denied()
        self.splits, self.values = model.optimal_splits(np.arange(1, self.cap + 1))

    def granted(self, user_idx: int, m: int) -> tuple[int, float]:
        """(optimal split, QoE) for user granted within a round of m grants."""
        self._check_count(m)
        return int(self.splits[user_idx, m - 1]), float(self.values[user_idx, m - 1])

    def _check_count(self, m: int) -> None:
        if not 1 <= m <= self.cap:
            raise ContractError(f"grant count {m} outside [1, {self.cap}]")

    def decision(self, grants) -> Decision:
        """Each user's grant flag and optimal split under a grant vector."""
        grants = np.asarray(grants, dtype=bool)
        m = int(np.count_nonzero(grants))
        n_total = self.scenario.pai.n_total
        if m == 0:
            splits = np.full(grants.shape, n_total)
        else:
            self._check_count(m)
            splits = np.where(grants, self.splits[:, m - 1], n_total)
        return decision_of(grants, splits, n_total)

    def value(self, grants) -> float:
        return float(self.row_values([grants])[0])

    def row_values(self, grants, counts: np.ndarray | None = None) -> np.ndarray:
        """(P,) objective of each row of a (P, I) grant matrix, each equal to ``value``
        of that row: every row is summed left to right in user order. A caller
        that already holds each row's grant count may pass it as `counts`."""
        grants = np.asarray(grants, dtype=bool)
        m = np.count_nonzero(grants, axis=1) if counts is None else counts
        if m.max() > self.cap:
            raise ContractError(f"grant count {m.max()} above the cap {self.cap}")
        if grants.shape[1] == 0:
            return np.zeros(len(grants))
        # A row with m = 0 grants no one, so the column it reads is never used.
        granted = self.values[:, np.maximum(m, 1) - 1].T if self.cap else self.deny
        per_user = np.where(grants, granted, self.deny)
        return np.cumsum(per_user, axis=1)[:, -1]


@lru_cache(maxsize=8)
def _decision_entries(n_total: int) -> tuple[DecisionEntry, ...]:
    """Every entry with a split in 0..n_total, the one for (granted, split) at
    2 * split + granted; entries are frozen, so decisions share them."""
    return tuple(DecisionEntry(granted, split)
                 for split in range(n_total + 1) for granted in (False, True))


def decision_of(grants: np.ndarray, splits: np.ndarray, n_total: int) -> Decision:
    """The decision with each user's grant flag and split, from two (I,) arrays
    of splits in 0..n_total."""
    keys = 2 * splits + grants
    return Decision(entries=list(map(_decision_entries(n_total).__getitem__, keys.tolist())))


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum in user order, as a Python loop adds; np.sum adds pairwise."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0
