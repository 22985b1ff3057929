"""Fixed-split quadratic form of the grant/deny assignment problem.

With every granted user's split pinned to a common value, the objective
becomes a binary quadratic assignment over x[i, j], j in {deny, grant}:

    sum_ij D[i, j] x[i, j]  -  sum_{i'j'ij} A[i', j', i, j] x[i', j'] x[i, j]

where the quadratic couplings A collect the transmission and edge-compute
terms that scale with the grant count, and are nonzero only on grant-grant
pairs. Because x is binary (x^2 = x), the linear term can be folded onto
the diagonal of A, leaving a pure quadratic form; :func:`absorb_linear`
performs that fold and :func:`eval_quadratic` evaluates either form.

The form is a view of :class:`diffload.costmodel.CostModel`: D is the
model's deny value and its grant value with no grant-count terms, and the
coupling of user i is the part of its latency that grows by one share per
granted user. No solver uses it; branch and bound reads the fixed-split
values from the cost model directly. The form stays the cross-check of the
direct scalar objective (acceptance criterion 2), since it sums the model
in a different shape, and an export format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .costmodel import CostModel
from .qoe import ContractError
from .scenario import Scenario

DENY = 0
GRANT = 1


@dataclass
class QuadraticForm:
    linear: np.ndarray     # (I, 2): D[i, j]
    quadratic: np.ndarray  # (I, 2, I, 2): A[i', j', i, j] (or the folded form)
    fixed_split: int
    absorbed: bool = False


def build_quadratic(scenario: Scenario, fixed_split: int) -> QuadraticForm:
    """Coefficients of the assignment form with all granted splits at `fixed_split`."""
    pai = scenario.pai
    edge = scenario.edge
    if not pai.n_min <= fixed_split <= pai.n_total:
        raise ContractError(
            f"fixed_split {fixed_split} outside [{pai.n_min}, {pai.n_total}]")
    n_users = scenario.user_count
    model = CostModel.from_scenario(scenario)
    linear = np.empty((n_users, 2))
    linear[:, DENY] = model.denied()
    # At m = 0 a grant keeps only the terms that do not scale with the grant
    # count: the wait, the local steps and the edge steps' intercept.
    linear[:, GRANT] = model.granted(fixed_split, 0)[:, 0]
    # Grant-grant couplings: user i's transfer and per-batch edge compute
    # accrue once per granted user i' (including i' = i).
    coupling = (model.payload / (edge.spectral_efficiency * edge.bandwidth_hz)
                + (pai.n_total - fixed_split) * edge.device.step_slope / edge.gpus)
    quad = np.zeros((n_users, 2, n_users, 2))
    quad[:, GRANT, :, GRANT] = coupling
    return QuadraticForm(linear=linear, quadratic=quad, fixed_split=fixed_split)


def absorb_linear(qf: QuadraticForm) -> QuadraticForm:
    """Fold the linear term onto the quadratic diagonal; valid for binary x."""
    if qf.absorbed:
        raise ContractError("quadratic form already absorbed")
    n_users = qf.linear.shape[0]
    folded = -qf.quadratic.copy()
    for i in range(n_users):
        for j in range(2):
            folded[i, j, i, j] = qf.linear[i, j] - qf.quadratic[i, j, i, j]
    return QuadraticForm(linear=np.zeros_like(qf.linear), quadratic=folded,
                         fixed_split=qf.fixed_split, absorbed=True)


def eval_quadratic(qf: QuadraticForm, grants) -> float:
    """Evaluate the form on a grant/deny vector (one handling per user)."""
    n_users = qf.linear.shape[0]
    if len(grants) != n_users:
        raise ContractError(f"expected {n_users} grant flags, got {len(grants)}")
    x = np.zeros((n_users, 2))
    for i, g in enumerate(grants):
        x[i, GRANT if g else DENY] = 1.0
    flat = x.reshape(-1)
    quad_term = flat @ qf.quadratic.reshape(2 * n_users, 2 * n_users) @ flat
    if qf.absorbed:
        return float(quad_term)
    return float((qf.linear * x).sum() - quad_term)


def export_quadratic(qf: QuadraticForm, path: str | Path) -> None:
    """Write the form as JSON (dense linear part, sparse quadratic entries)."""
    entries = []
    nz = np.argwhere(qf.quadratic != 0.0)
    for idx in nz:
        i2, j2, i1, j1 = (int(v) for v in idx)
        entries.append([i2, j2, i1, j1, float(qf.quadratic[i2, j2, i1, j1])])
    obj = {
        "fixed_split": qf.fixed_split,
        "absorbed": qf.absorbed,
        "handlings": ["deny", "grant"],
        "linear": qf.linear.tolist(),
        "quadratic": entries,
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")
