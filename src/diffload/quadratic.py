"""Fixed-split quadratic form of the grant/deny assignment problem.

With every granted user's split pinned to a common value, the objective
becomes a binary quadratic assignment over x[i, j], j in {deny, grant}:

    sum_ij D[i, j] x[i, j]  -  sum_{i'j'ij} A[i', j', i, j] x[i', j'] x[i, j]

where the quadratic couplings A collect the transmission and edge-compute
terms that scale with the grant count: A[i', grant, i, grant] = c[i] for
every i', and every other entry is 0, so the form stores D and the vector c.
Because x is binary (x^2 = x), the linear term can be folded onto the
diagonal of A, leaving a pure quadratic form; :func:`absorb_linear`
performs that fold and :func:`eval_quadratic` evaluates either form.

The form is a view of the scenario's cost model
(:attr:`diffload.scenario.Scenario.model`): D is the model's deny value
and its grant value with no grant-count terms, and the coupling of user i
is the part of its latency that grows by one share per granted user. It
is the one source of fixed-split values: branch and bound
(:func:`diffload.baselines.solve_bnb`) searches this form at n_min, and
acceptance criterion 2 checks it against the direct scalar objective,
which sums the model in a different shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qoe import ContractError
from .scenario import Scenario

DENY = 0
GRANT = 1


@dataclass
class QuadraticForm:
    linear: np.ndarray    # (I, 2): D[i, j], or the folded diagonal A[i, j, i, j]
    coupling: np.ndarray  # (I,): c[i], the grant-grant coupling of user i
    absorbed: bool = False


def build_quadratic(scenario: Scenario, fixed_split: int) -> QuadraticForm:
    """Coefficients of the assignment form with all granted splits at `fixed_split`."""
    pai = scenario.pai
    edge = scenario.edge
    if not pai.n_min <= fixed_split <= pai.n_total:
        raise ContractError(
            f"fixed_split {fixed_split} outside [{pai.n_min}, {pai.n_total}]")
    model = scenario.model
    linear = np.empty((scenario.user_count, 2))
    linear[:, DENY] = model.denied()
    # At m = 0 a grant keeps only the terms that do not scale with the grant
    # count: the wait, the local steps and the edge steps' intercept.
    linear[:, GRANT] = model.granted(fixed_split, 0)[0]
    # Grant-grant couplings: user i's transfer and per-batch edge compute
    # accrue once per granted user i' (including i' = i).
    coupling = (model.payload / (edge.spectral_efficiency * edge.bandwidth_hz)
                + (pai.n_total - fixed_split) * edge.device.step_slope / edge.gpus)
    return QuadraticForm(linear=linear, coupling=coupling)


def absorb_linear(qf: QuadraticForm) -> QuadraticForm:
    """Fold the linear term onto the quadratic diagonal; valid for binary x."""
    if qf.absorbed:
        raise ContractError("quadratic form already absorbed")
    diagonal = qf.linear.copy()
    diagonal[:, GRANT] -= qf.coupling
    return QuadraticForm(linear=diagonal, coupling=qf.coupling.copy(), absorbed=True)


def eval_quadratic(qf: QuadraticForm, grants) -> float:
    """Evaluate the form on a grant/deny vector (one handling per user).

    With m grants, each granted coupling is paid m times, or m - 1 times
    off the diagonal once absorbed.
    """
    n_users = qf.linear.shape[0]
    if len(grants) != n_users:
        raise ContractError(f"expected {n_users} grant flags, got {len(grants)}")
    granted = np.asarray(grants, dtype=bool)
    picked = qf.linear[np.arange(n_users), granted.astype(int)].sum()
    shares = int(granted.sum()) - (1 if qf.absorbed else 0)
    return float(picked - shares * qf.coupling[granted].sum())

