"""The latency/accuracy model over all users at once.

:class:`CostModel` holds a scenario as per-user vectors and evaluates the
model of :mod:`diffload.qoe` on whole (grant count, user) grids, or for one
decision as each user's :class:`Breakdown`. A scenario's model is built in
one place, :attr:`scenario.Scenario.model`, which keeps it and checks it
with :func:`require_finite_model`. Grids are count-major: row j holds one
grant count for every user. Every value is computed with the
operations of the scalar :func:`qoe.e2e_latency` in the same order and the
accuracy curve is tabulated with :func:`scenario.fitted_pai` itself, so
each cell equals the scalar reference bit for bit. Optimal splits follow
the case analysis of the reference :func:`split.optimal_split`, with the
same primitives: :func:`scenario.marginal_pai_rate` over the alpha vector
decides the saturated cells, and its closed-form inverse
:func:`scenario.stationary_point` gives the interior root on the whole
grid. Every grid they fill, the two returned ones included, is a view
into a workspace kept between calls, so filling a grid no larger than an
earlier one allocates nothing, and the next call on the same thread
overwrites it.

:class:`SplitTable` copies those grids once per scenario and serves the
decisions that need optimal splits at many grant counts: the baselines,
the genetic algorithm and the exhaustive oracle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .qoe import ContractError, Decision, DecisionEntry, all_local_decision
from .scenario import (
    EdgeConfig,
    PaiParams,
    Scenario,
    ValidationError,
    fitted_pai,
    marginal_pai_rate,
    stationary_point,
    step_latency_edge,
    step_latency_local,
)


@lru_cache(maxsize=8)
def _accuracy_table(pai: PaiParams) -> np.ndarray:
    """Read-only F(0..n_total), once per PaiParams; built with the scalar fitted_pai
    because np.exp differs from math.exp in the last bit."""
    table = np.array([fitted_pai(n, pai) for n in range(pai.n_total + 1)])
    table.setflags(write=False)
    return table


_workspace = threading.local()


def _grid_scratch(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Six float grids and two bool masks of `shape`, views into one float64
    buffer that lives between calls, one per thread. The buffer only grows,
    so a grid no larger than one seen before allocates nothing."""
    cells = shape[0] * shape[1]
    size = 6 * cells + -(-2 * cells // 8)
    buffer = getattr(_workspace, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _workspace.buffer = np.empty(size)
    grids = [buffer[j * cells:(j + 1) * cells].reshape(shape) for j in range(6)]
    masks = buffer[6 * cells:].view(np.bool_)
    return (*grids, masks[:cells].reshape(shape), masks[cells:2 * cells].reshape(shape))


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
        """The model of `scenario`. Read it as `Scenario.model`, which builds
        it once and checks it; its readers share it, so its vectors are
        read-only."""
        edge, users = scenario.edge, scenario.users
        slots = np.array([u.request_slot for u in users], dtype=np.int64)
        model = cls(
            edge=edge,
            pai=scenario.pai,
            alpha=np.array([u.alpha for u in users], dtype=float),
            local_step=np.array([step_latency_local(u.device) for u in users], dtype=float),
            rtt=(edge.slots_per_interval - slots) * edge.slot_duration,
            payload=np.array([u.prompt_bits + u.intermediate_bits for u in users], dtype=float),
            accuracy=_accuracy_table(scenario.pai),
        )
        for vector in (model.alpha, model.local_step, model.rtt, model.payload):
            vector.setflags(write=False)
        return model

    def subset(self, users: np.ndarray) -> "CostModel":
        """The model of the given users only, in the given order."""
        return replace(self, alpha=self.alpha[users], local_step=self.local_step[users],
                       rtt=self.rtt[users], payload=self.payload[users])

    def edge_step(self, m):
        """Per-step edge latency at batch size m, a grant count or an array of them."""
        return step_latency_edge(self.edge.device, np.asarray(m), self.edge.gpus)

    def denied(self) -> np.ndarray:
        """(I,) value of each user run fully locally."""
        n = self.pai.n_total
        return self.alpha * self.accuracy[n] - (self.rtt + n * self.local_step)

    def granted(self, split, m) -> np.ndarray:
        """Value of each user granted at `split` in a round of m grants.

        `m` is a grant count or a (k,) array of them, and `split` broadcasts
        against (k, I); the result is (k, I), row j for a round of ``m[j]``
        grants.
        """
        m = np.asarray(m).reshape(-1, 1)
        split = np.broadcast_to(np.asarray(split, dtype=float), (len(m), len(self.alpha)))
        head, out, scratch = (np.empty(split.shape) for _ in range(3))
        return self._granted(split, split.astype(np.intp), self._head(m, out=head),
                             self.edge_step(m), out, scratch)

    def breakdown(self, decision: Decision) -> Breakdown:
        """Each user's accuracy term and latency parts (summed as in qoe.e2e_latency)
        under a feasible decision."""
        granted = np.array([e.granted for e in decision.entries], dtype=bool)
        split = np.array([e.split for e in decision.entries], dtype=np.int64)
        m = np.count_nonzero(granted)
        transfer = np.where(granted, self._transfer(m), 0.0)
        edge_c = np.where(granted, (self.pai.n_total - split) * self.edge_step(m), 0.0)
        local = split * self.local_step
        return Breakdown(pai_term=self.alpha * self.accuracy[split], rtt=self.rtt,
                         uplink_downlink=transfer, edge_compute=edge_c, local_compute=local,
                         total=self.rtt + transfer + edge_c + local)

    def _transfer(self, m, out=None) -> np.ndarray:
        """Uplink plus downlink latency of each user in a round of m grants; a (k, 1)
        `m` gives a (k, I) grid."""
        out = np.multiply(self.payload, m, out=out)
        out /= self.edge.spectral_efficiency * self.edge.bandwidth_hz
        return out

    def _head(self, m, out) -> np.ndarray:
        """The split-independent part of each latency: the wait plus the transfer."""
        return np.add(self.rtt, self._transfer(m, out=out), out=out)

    def _granted(self, split, index, head, edge_step, out, scratch) -> np.ndarray:
        """alpha * F(split) - (head + (n_total - split) * edge_step + split * local_step),
        the value of qoe.user_qoe, written to `out`; `index` is `split` as ints.
        `out` may be `split` itself, and `scratch` is overwritten."""
        np.multiply(split, self.local_step, out=scratch)
        np.subtract(self.pai.n_total, split, out=out)
        out *= edge_step
        np.add(head, out, out=out)
        out += scratch
        np.take(self.accuracy, index, out=scratch)
        scratch *= self.alpha
        return np.subtract(scratch, out, out=out)

    def optimal_splits(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k, I) optimal splits and their values; row j holds a round of
        ``counts[j]`` grants, for a (k,) int array of grant counts.

        Both grids are views into the workspace kept between calls
        (`_grid_scratch`), as are its temporaries, so a call no larger than
        an earlier one allocates no grid. The next call on the same thread
        overwrites them: a caller that keeps them copies them, as
        `SplitTable` does.
        """
        pai = self.pai
        m = np.asarray(counts).reshape(-1, 1)
        delta, root, upper, head, splits, values, top, low = _grid_scratch(
            (len(m), len(self.alpha)))
        edge_step = self.edge_step(m)
        np.subtract(self.local_step, edge_step, out=delta)

        # The cases of split.optimal_split, tested in its order. Local dominates
        # (delta <= 0) or the accuracy term saturates: every step stays local.
        # Otherwise the latency term saturates: n_min. Otherwise the interior root.
        np.greater_equal(marginal_pai_rate(pai.n_total, self.alpha, pai), delta, out=top)
        top |= np.less_equal(delta, 0.0, out=low)
        np.less_equal(marginal_pai_rate(pai.n_min, self.alpha, pai), delta, out=low)

        # Splits are held as whole-number floats, so _granted casts no ints. The
        # root is taken on the whole grid, and the saturated cells are then set
        # to their bound, n_min first so that `top` overrides it.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lo = np.floor(stationary_point(self.alpha, delta, pai, out=(upper, root)), out=root)
            np.clip(lo, pai.n_min, pai.n_total, out=lo)
        hi = np.minimum(np.add(lo, 1.0, out=upper), pai.n_total, out=upper)
        for mask, bound in ((low, pai.n_min), (top, pai.n_total)):
            if mask.any():
                np.copyto(lo, float(bound), where=mask)
                np.copyto(hi, float(bound), where=mask)

        self._head(m, out=head)
        splits = splits.view(np.int64)
        np.copyto(splits, lo, casting="unsafe")
        self._granted(lo, splits, head, edge_step, values, delta)
        index = lo.view(np.int64)  # lo is spent
        np.copyto(index, hi, casting="unsafe")
        v_hi = self._granted(hi, index, head, edge_step, hi, delta)
        # hi is lo or lo + 1, and v_hi equals values where hi is lo, so a cell
        # whose v_hi wins moves up by one.
        splits += np.greater(v_hi, values, out=top)
        # fmax takes v_hi exactly where the compare does. It keeps values where
        # v_hi is nan, and values is nan only where v_hi is too: they differ
        # only in a finite split.
        np.fmax(values, v_hi, out=values)
        return splits, values


# `require_finite_model` passes a model at once whose `range_bound` is below this.
RANGE_BOUND = 1e300


def range_bound(model: CostModel, cap: int) -> float:
    """8 * I * M for the I users of `model`, a cheap bound on the sum of
    magnitudes that `require_finite_model` checks.

    M is the largest of alpha, the wait, the transfer at `cap` grants, and
    n_total steps at the local latency and at the edge latency of `cap`
    grants. A checked value is alpha * F(split) minus a latency of four
    terms. F <= 1, and each computed term grows with the grant count and
    the split under rounding, so each value's magnitude is at most about 4M
    and the I magnitudes sum to at most about 4 * I * M. A bound below
    `RANGE_BOUND` so shows every value and their sum finite. A term that is
    nan (a transfer of 0 / 0 at cap 0) makes the bound nan, which shows
    nothing.
    """
    if not len(model.alpha):
        return 0.0
    n, edge = model.pai.n_total, model.edge
    terms = np.array([model.alpha.max(), model.rtt.max(),
                      model.payload.max() * cap / (edge.spectral_efficiency * edge.bandwidth_hz),
                      n * model.local_step.max(), n * model.edge_step(cap)])
    return 8 * len(model.alpha) * terms.max()


def corner_magnitudes(model: CostModel, cap: int) -> np.ndarray:
    """(I,) each user's largest value magnitude among denied, and granted at
    one and at `cap` grants at splits n_min and n_total."""
    pai = model.pai
    values = [model.denied()]
    if cap:
        splits = np.repeat([[pai.n_min], [pai.n_total]], 2, axis=0)
        values.extend(model.granted(splits, [1, cap, 1, cap]))
    return np.abs(values).max(axis=0)


def require_finite_model(scenario: Scenario, model: CostModel) -> None:
    """Raise `ValidationError` unless `model`, the model of `scenario`, stays
    in floating-point range.

    Each user's value denied, and granted at one and at ``scenario.cap``
    grants at splits n_min and n_total (`corner_magnitudes`), must be
    finite, and so must the sum of their magnitudes. A latency grows with
    the grant count and is linear in the split, so these bound every value
    and objective a solver sums. A model whose `range_bound` is below
    `RANGE_BOUND` passes without evaluating them. The error names the first
    user whose value is not finite (else the one of largest magnitude) and
    the field that pushes that user's value furthest: alpha, or one of the
    fields their latency grows with. Each is weighed by its value, except
    the slot duration by the wait it scales and a bandwidth or spectral
    efficiency by its reciprocal.

    Its arithmetic may leave floating-point range, so it runs where
    `Scenario.model` builds the model, under an `np.errstate` that ignores
    overflow, invalid values and division by zero.
    """
    edge, cap = scenario.edge, scenario.cap
    if range_bound(model, cap) < RANGE_BOUND:
        return
    magnitude = corner_magnitudes(model, cap)
    if np.isfinite(magnitude.sum()):
        return
    user = int(np.argmax(np.nan_to_num(magnitude, nan=np.inf)))
    u, path = scenario.users[user], f"users[{user}]"
    push = {f"{path}.alpha": (u.alpha, u.alpha),
            "edge.slot_duration": (model.rtt[user], edge.slot_duration),
            f"{path}.device.step_slope": (u.device.step_slope,) * 2,
            f"{path}.device.step_intercept": (u.device.step_intercept,) * 2}
    if cap:
        push.update({f"{path}.prompt_bits": (u.prompt_bits,) * 2,
                     f"{path}.intermediate_bits": (u.intermediate_bits,) * 2,
                     "edge.bandwidth_hz": (1 / edge.bandwidth_hz, edge.bandwidth_hz),
                     "edge.spectral_efficiency": (1 / edge.spectral_efficiency,
                                                  edge.spectral_efficiency),
                     "edge.device.step_slope": (edge.device.step_slope,) * 2,
                     "edge.device.step_intercept": (edge.device.step_intercept,) * 2})
    name = max(push, key=lambda key: push[key][0])
    raise ValidationError(
        f"{name}: {push[name][1]!r} puts the model of user {user} out of floating-point range")


class SplitTable:
    """Optimal splits and values for every user and grant count, filled once.

    ``splits`` and ``values`` are (cap, I) grids, copied out of the
    workspace, whose row m - 1 holds a round of m grants, for m = 1..cap
    with cap = ``scenario.cap``; ``deny`` holds each user's fully local value.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.cap = scenario.cap
        model = scenario.model
        self.deny = model.denied()
        splits, values = model.optimal_splits(np.arange(1, self.cap + 1))
        self.splits, self.values = splits.copy(), values.copy()

    def granted(self, user_idx: int, m: int) -> tuple[int, float]:
        """(optimal split, QoE) for user granted within a round of m grants."""
        self._check_count(m)
        return int(self.splits[m - 1, user_idx]), float(self.values[m - 1, user_idx])

    def _check_count(self, m: int) -> None:
        if not 1 <= m <= self.cap:
            raise ContractError(f"grant count {m} outside [1, {self.cap}]")

    def decision(self, grants) -> Decision:
        """Each user's grant flag and optimal split under a grant vector."""
        grants = np.asarray(grants, dtype=bool)
        m = int(np.count_nonzero(grants))
        if m == 0:
            return all_local_decision(self.scenario)
        self._check_count(m)
        return decision_of(grants, self.splits[m - 1], self.scenario.pai.n_total)

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
        # A row with m = 0 grants no one, so the grid row it reads is never used.
        granted = self.values[np.maximum(m, 1) - 1] if self.cap else self.deny
        per_user = np.where(grants, granted, self.deny)
        return np.cumsum(per_user, axis=1)[:, -1]


@lru_cache(maxsize=8)
def _decision_entries(n_total: int) -> tuple[DecisionEntry, ...]:
    """Every entry with a split in 0..n_total, the one for (granted, split) at
    2 * split + granted; entries are frozen, so decisions share them."""
    return tuple(DecisionEntry(granted, split)
                 for split in range(n_total + 1) for granted in (False, True))


def decision_of(grants: np.ndarray, splits, n_total: int) -> Decision:
    """The decision that grants the users of the (I,) mask `grants` at
    `splits`, an (I,) row or one split in 0..n_total, and runs everyone else
    fully local (constraint C4); a denied user's entry of `splits` is unread."""
    keys = np.where(grants, 2 * splits + 1, 2 * n_total)
    return Decision(entries=list(map(_decision_entries(n_total).__getitem__, keys.tolist())))


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum in user order, as a Python loop adds; np.sum adds pairwise."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0
