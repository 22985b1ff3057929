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
    linear: np.ndarray    # (I, 2): D[i, j], or the folded diagonal A[i, j, i, j]
    coupling: np.ndarray  # (I,): c[i], the grant-grant coupling of user i
    fixed_split: int
    absorbed: bool = False


def build_quadratic(scenario: Scenario, fixed_split: int) -> QuadraticForm:
    """Coefficients of the assignment form with all granted splits at `fixed_split`."""
    pai = scenario.pai
    edge = scenario.edge
    if not pai.n_min <= fixed_split <= pai.n_total:
        raise ContractError(
            f"fixed_split {fixed_split} outside [{pai.n_min}, {pai.n_total}]")
    model = CostModel.from_scenario(scenario)
    linear = np.empty((scenario.user_count, 2))
    linear[:, DENY] = model.denied()
    # At m = 0 a grant keeps only the terms that do not scale with the grant
    # count: the wait, the local steps and the edge steps' intercept.
    linear[:, GRANT] = model.granted(fixed_split, 0)[:, 0]
    # Grant-grant couplings: user i's transfer and per-batch edge compute
    # accrue once per granted user i' (including i' = i).
    coupling = (model.payload / (edge.spectral_efficiency * edge.bandwidth_hz)
                + (pai.n_total - fixed_split) * edge.device.step_slope / edge.gpus)
    return QuadraticForm(linear=linear, coupling=coupling, fixed_split=fixed_split)


def absorb_linear(qf: QuadraticForm) -> QuadraticForm:
    """Fold the linear term onto the quadratic diagonal; valid for binary x."""
    if qf.absorbed:
        raise ContractError("quadratic form already absorbed")
    diagonal = qf.linear.copy()
    diagonal[:, GRANT] -= qf.coupling
    return QuadraticForm(linear=diagonal, coupling=qf.coupling.copy(),
                         fixed_split=qf.fixed_split, absorbed=True)


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


def export_quadratic(qf: QuadraticForm, path: str | Path) -> None:
    """Write the form as JSON: the dense linear part, and A's nonzero entries
    [i2, j2, i1, j1, value] in row-major order of the (I, 2, I, 2) tensor."""
    couplings = (-qf.coupling if qf.absorbed else qf.coupling).tolist()
    entries = []
    for i2 in range(len(couplings)):
        row = [[i2, GRANT, i1, GRANT, value] for i1, value in enumerate(couplings)]
        if qf.absorbed:
            row[i2][4] = float(qf.linear[i2, GRANT])
            row.insert(0, [i2, DENY, i2, DENY, float(qf.linear[i2, DENY])])
        entries += [entry for entry in row if entry[4] != 0.0]
    obj = {
        "fixed_split": qf.fixed_split,
        "absorbed": qf.absorbed,
        "handlings": ["deny", "grant"],
        "linear": (np.zeros_like(qf.linear) if qf.absorbed else qf.linear).tolist(),
        "quadratic": entries,
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")
