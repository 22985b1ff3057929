"""Independent reference optimum for one decision round.

Written from the latency/accuracy model alone; it shares no code with
``diffload.split``, ``diffload.baselines`` or ``diffload.qoe``. For a user i
granted in a round of m grants at split n (steps run locally):

    rtt_i       = (K - slot_i) * slot_duration
    local_i     = slope_i + intercept_i                  (batch 1)
    edge(m)     = slope_e * m / G + intercept_e
    transfer_im = (prompt_i + intermediate_i) * m / (spectral_eff * W)
    granted     = alpha_i F(n) - rtt_i - transfer_im - (N - n) edge(m) - n local_i
    denied      = alpha_i F(N) - rtt_i - N local_i

with F(n) = 1 / (1 + exp(-a_f (n - b_f))). Users couple only through m, so
the optimum is the best over m of the deny total plus the m largest
grant-over-deny gains, each gain taken at the user's best integer split
found by grid search over [n_min, N]. The pinned-split variant fixes every
granted split at one value, which is the problem branch & bound solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CheckError(AssertionError):
    """An output of the program disagrees with the reference or a property."""


REL_TOL = 1e-9


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class Model:
    alpha: np.ndarray
    local: np.ndarray
    rtt: np.ndarray
    transfer_unit: np.ndarray  # transfer latency per grant in the round
    edge_slope: float          # per-step edge latency slope per grant
    edge_intercept: float
    a_f: float
    b_f: float
    n_total: int
    n_min: int
    cap: int

    def edge_step(self, m: int) -> float:
        return self.edge_slope * m + self.edge_intercept

    def fitted(self, n):
        return 1.0 / (1.0 + np.exp(-self.a_f * (n - self.b_f)))

    def denied(self) -> np.ndarray:
        return self.alpha * self.fitted(self.n_total) - self.rtt - self.n_total * self.local

    def granted(self, m: int, n) -> np.ndarray:
        """Per-user granted values in a round of m grants; n is a scalar or per-user vector."""
        n = np.asarray(n, dtype=float)
        return (self.alpha * self.fitted(n) - self.rtt - self.transfer_unit * m
                - (self.n_total - n) * self.edge_step(m) - n * self.local)

    def best_granted(self, m: int) -> np.ndarray:
        """Per-user granted value at the best integer split, by grid search over [n_min, N]."""
        n = np.arange(self.n_min, self.n_total + 1, dtype=float)[None, :]
        table = (self.alpha[:, None] * self.fitted(n)
                 - (self.rtt + self.transfer_unit * m)[:, None]
                 - (self.n_total - n) * self.edge_step(m) - n * self.local[:, None])
        return table.max(axis=1)


def build_model(scenario) -> Model:
    edge, pai = scenario.edge, scenario.pai
    users = scenario.users
    return Model(
        alpha=np.array([u.alpha for u in users], dtype=float),
        local=np.array([u.device.step_slope + u.device.step_intercept for u in users], dtype=float),
        rtt=np.array([(edge.slots_per_interval - u.request_slot) * edge.slot_duration
                      for u in users], dtype=float),
        transfer_unit=np.array([(u.prompt_bits + u.intermediate_bits)
                                / (edge.spectral_efficiency * edge.bandwidth_hz)
                                for u in users], dtype=float),
        edge_slope=edge.device.step_slope / edge.gpus,
        edge_intercept=edge.device.step_intercept,
        a_f=pai.a_f,
        b_f=pai.b_f,
        n_total=pai.n_total,
        n_min=pai.n_min,
        cap=min(len(users), edge.b_max),
    )


def optimum(scenario, pinned_split: int | None = None) -> float:
    """Best objective over every feasible decision (or every fixed-split one)."""
    model = build_model(scenario)
    denied = model.denied()
    deny_total = float(denied.sum())
    best = deny_total
    for m in range(1, model.cap + 1):
        if pinned_split is None:
            granted = model.best_granted(m)
        else:
            granted = model.granted(m, pinned_split)
        gains = np.sort(granted - denied)[::-1]
        best = max(best, deny_total + float(gains[:m].sum()))
    return best


def decision_value(scenario, decision) -> float:
    """The objective of a decision, recomputed from the model above."""
    model = build_model(scenario)
    grants = np.array([e.granted for e in decision.entries], dtype=bool)
    splits = np.array([e.split for e in decision.entries], dtype=float)
    m = int(grants.sum())
    value = model.denied()
    if m:
        value = np.where(grants, model.granted(m, splits), value)
    return float(value.sum())


def check_feasible(scenario, decision) -> None:
    """Grant cap, split range, and denied users running every step locally."""
    pai = scenario.pai
    if len(decision.entries) != scenario.user_count:
        raise CheckError(f"{len(decision.entries)} entries for {scenario.user_count} users")
    grants = sum(1 for e in decision.entries if e.granted)
    if grants > scenario.edge.b_max:
        raise CheckError(f"{grants} grants exceed b_max {scenario.edge.b_max}")
    for i, e in enumerate(decision.entries):
        if not pai.n_min <= e.split <= pai.n_total:
            raise CheckError(f"user {i}: split {e.split} outside [{pai.n_min}, {pai.n_total}]")
        if not e.granted and e.split != pai.n_total:
            raise CheckError(f"user {i}: denied with split {e.split}")


def check_bounded(scenario, decision, best: float, reported: float, label: str) -> float:
    """Feasible, reported value equal to the recomputed one, and no better than `best`."""
    check_feasible(scenario, decision)
    value = decision_value(scenario, decision)
    if not close(value, reported):
        raise CheckError(f"{label}: reported objective {reported!r} but the model gives {value!r}")
    if value > best and not close(value, best):
        raise CheckError(f"{label}: objective {value!r} beats the optimum {best!r}")
    return value


def check_optimal(scenario, decision, best: float, reported: float, label: str) -> None:
    """As check_bounded, and equal to `best` within the relative tolerance."""
    value = check_bounded(scenario, decision, best, reported, label)
    if not close(value, best):
        raise CheckError(f"{label}: objective {value!r} but the optimum is {best!r}")
