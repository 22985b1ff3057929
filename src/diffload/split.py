"""Scalar reference solver for the per-user split-point problem.

Given a grant count m, a granted user's quality-of-experience as a function
of the split point n is

    O(n) = alpha * F(n) - (L_local - L_edge(m, G)) * n + const,

which is strictly concave on [n_min, n_total] because F > 0.5 there. The
derivative of the accuracy term is g(n) = alpha * a_f * F(n) * (1 - F(n)),
strictly decreasing on the domain, so the stationarity condition
g(n) = delta, with delta = L_local - L_edge, has at most one root. The
rate g is :func:`scenario.marginal_pai_rate`, and its closed-form inverse
is :func:`scenario.stationary_point`; the integer optimum is the floor or
the ceiling of that root by concavity.

This is the scalar reference: no solver calls it, and the tests hold
:class:`costmodel.CostModel`, which solves all users at once, to it. It
reads the model's primitives from :mod:`diffload.scenario`, and nothing
from the cost model it is the reference for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qoe import DecisionEntry, user_qoe
from .scenario import (EdgeConfig, PaiParams, UserRequest, marginal_pai_rate, stationary_point,
                       step_latency_edge, step_latency_local)

LOCAL_DOMINATES = "local-dominates"
PAI_SATURATED = "pai-saturated"
LATENCY_SATURATED = "latency-saturated"
INTERIOR_ROOT = "interior-root"


@dataclass(frozen=True)
class SplitResult:
    split: int
    continuous_root: float | None
    case: str
    inner_value: float  # the user's QoE at `split` given the grant count


def optimal_split(user: UserRequest, granted_count: int, edge: EdgeConfig,
                  pai: PaiParams) -> SplitResult:
    """Optimal split point for one granted user given the round's grant count."""
    if granted_count < 1:
        raise ValueError(f"granted_count must be >= 1, got {granted_count}")
    local = step_latency_local(user.device)
    at_edge = step_latency_edge(edge.device, granted_count, edge.gpus)
    delta = local - at_edge

    def value_at(n: int) -> float:
        return user_qoe(user, DecisionEntry(granted=True, split=n), granted_count, edge, pai)

    if delta <= 0:
        # Offloading a step is not faster than running it locally: keep all
        # steps on the device.
        n = pai.n_total
        return SplitResult(split=n, continuous_root=None, case=LOCAL_DOMINATES,
                           inner_value=value_at(n))
    if marginal_pai_rate(pai.n_total, user.alpha, pai) >= delta:
        n = pai.n_total
        return SplitResult(split=n, continuous_root=None, case=PAI_SATURATED,
                           inner_value=value_at(n))
    if marginal_pai_rate(pai.n_min, user.alpha, pai) <= delta:
        n = pai.n_min
        return SplitResult(split=n, continuous_root=None, case=LATENCY_SATURATED,
                           inner_value=value_at(n))

    root = float(stationary_point(user.alpha, delta, pai))
    lo = max(pai.n_min, min(pai.n_total, int(root)))
    hi = max(pai.n_min, min(pai.n_total, lo + 1))
    v_lo, v_hi = value_at(lo), value_at(hi)
    if v_hi > v_lo:
        n, v = hi, v_hi
    else:
        n, v = lo, v_lo
    return SplitResult(split=n, continuous_root=root, case=INTERIOR_ROOT, inner_value=v)
