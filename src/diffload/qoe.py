"""End-to-end latency, per-user quality, and the joint objective.

Every solver in this package is scored by :func:`objective`, which sums the
per-user quality term ``alpha_i * F(n_i)`` minus the end-to-end latency.
The per-step latencies and the accuracy curve F are defined in
:mod:`diffload.scenario`, beside their parameters, and re-exported here.
The objective mixes a dimensionless accuracy score with seconds; the alpha
weights carry the conversion (seconds per accuracy unit), which the
generator's sampling band guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import (EdgeConfig, PaiParams, Scenario, UserRequest, fitted_pai, step_latency_edge,
                       step_latency_local)


class ContractError(RuntimeError):
    """A caller violated an operation precondition or constraint."""


@dataclass(frozen=True)
class DecisionEntry:
    granted: bool
    split: int  # n_i: steps executed locally; n_i = n_total means fully local


@dataclass(frozen=True)
class Decision:
    entries: list[DecisionEntry]

    @property
    def grant_count(self) -> int:
        return sum(1 for e in self.entries if e.granted)


@dataclass(frozen=True)
class LatencyBreakdown:
    rtt: float              # wait from request slot to end of decision interval
    uplink_downlink: float  # prompt up + intermediate result down
    edge_compute: float     # offloaded denoising steps
    local_compute: float    # local denoising steps
    total: float

    def __post_init__(self):
        parts = self.rtt + self.uplink_downlink + self.edge_compute + self.local_compute
        if self.total != parts:
            raise ContractError(f"total {self.total} != sum of parts {parts}")


def compose_pai(clip_mean: float, lpips_mean: float, pai: PaiParams) -> float:
    """Raw composite accuracy score from externally measured CLIP/LPIPS means.

    kappa * clip_mean * sigma(lpips_mean), with sigma the logistic gate on
    inter-user image divergence. Aggregation across users happens before
    this call; both inputs are already means.
    """
    if not 0.0 <= clip_mean <= 1.0:
        raise ContractError(f"clip_mean must be in [0, 1], got {clip_mean}")
    if lpips_mean < 0:
        raise ContractError(f"lpips_mean must be >= 0, got {lpips_mean}")
    gate = 1.0 / (1.0 + math.exp(-pai.sigma_a * (lpips_mean - pai.sigma_b)))
    return pai.kappa_pai * clip_mean * gate


def e2e_latency(user: UserRequest, entry: DecisionEntry, granted_count: int,
                edge: EdgeConfig, n_total: int) -> LatencyBreakdown:
    """End-to-end latency of one user under a decision.

    For granted users, ``granted_count`` is the total number of granted users
    in the round (including this one): they share the bandwidth equally and
    the edge batch size is held at the full grant count for every offloaded
    step, a worst-case estimate that ignores early completions. ``n_total``
    is the total number of denoising steps, so ``n_total - entry.split``
    steps run at the edge.
    """
    if entry.granted and granted_count < 1:
        raise ContractError("granted entry requires granted_count >= 1 (counting the user itself)")
    rtt = (edge.slots_per_interval - user.request_slot) * edge.slot_duration
    local = entry.split * step_latency_local(user.device)
    if entry.granted:
        # Equal bandwidth share: each of the m granted users gets W_max / m.
        transfer = (user.prompt_bits + user.intermediate_bits) * granted_count / (
            edge.spectral_efficiency * edge.bandwidth_hz)
        edge_c = (n_total - entry.split) * step_latency_edge(edge.device, granted_count, edge.gpus)
    else:
        transfer = 0.0
        edge_c = 0.0
    total = rtt + transfer + edge_c + local
    return LatencyBreakdown(rtt=rtt, uplink_downlink=transfer, edge_compute=edge_c,
                            local_compute=local, total=total)


def user_qoe(user: UserRequest, entry: DecisionEntry, granted_count: int,
             edge: EdgeConfig, pai: PaiParams) -> float:
    """Per-user contribution to the objective: alpha * F(split) - total latency."""
    lat = e2e_latency(user, entry, granted_count, edge, pai.n_total)
    return user.alpha * fitted_pai(entry.split, pai) - lat.total


def validate_decision(scenario: Scenario, decision: Decision) -> None:
    """Check the decision against the feasibility constraints, naming the violated one."""
    if len(decision.entries) != scenario.user_count:
        raise ContractError(
            f"decision has {len(decision.entries)} entries for {scenario.user_count} users")
    m = decision.grant_count
    if m > scenario.edge.b_max:
        raise ContractError(f"C2 violated: {m} grants > b_max = {scenario.edge.b_max}")
    for user, entry in zip(scenario.users, decision.entries):
        if not scenario.pai.n_min <= entry.split <= scenario.pai.n_total:
            raise ContractError(
                f"C3 violated for user {user.id}: split {entry.split} outside "
                f"[{scenario.pai.n_min}, {scenario.pai.n_total}]")
        if not entry.granted and entry.split != scenario.pai.n_total:
            raise ContractError(
                f"C4 violated for user {user.id}: denied but split {entry.split} "
                f"!= {scenario.pai.n_total}")


def objective(scenario: Scenario, decision: Decision, validate: bool = True) -> float:
    """Joint objective: sum over users of alpha_i * F(n_i) - L_i."""
    if validate:
        validate_decision(scenario, decision)
    m = decision.grant_count
    return sum(
        user_qoe(user, entry, m, scenario.edge, scenario.pai)
        for user, entry in zip(scenario.users, decision.entries)
    )


def all_local_decision(scenario: Scenario) -> Decision:
    """The fully local decision: every user denied, split at n_total. Entries
    are frozen, so every user shares one."""
    return Decision(entries=[DecisionEntry(granted=False, split=scenario.pai.n_total)]
                    * scenario.user_count)
