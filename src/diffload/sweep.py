"""Experiment sweeps: seeded case grids, per-case reports, and summaries.

A sweep runs every solver on every (axis value, case) pair and writes one
CSV row per run. Case seeds derive from the master seed and the case index
only, so sweeping the GPU axis reuses the same user populations at every
axis point (common random numbers); the alpha sampling is pinned to the
base GPU count for the same reason.

Wall-clock solve times are recorded only when timing is enabled; with it
disabled the column is zero so that repeated runs of the same sweep are
byte-identical.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import baselines
from .costmodel import sequential_sum
from .dqn import TrainedPolicy, greedy_solve
from .qoe import Decision, objective
from .scenario import (EdgeConfig, GeneratorConfig, Scenario, ValidationError, field_types,
                       generate_scenario)

SUMMARY_HEADER = ["solver", "axis", "axis_value", "cases", "mean_objective",
                  "ci95_halfwidth"]

DEFAULT_USER_GRID = (10, 20, 30, 40, 50, 60)
DEFAULT_GPU_GRID = (2, 4, 8, 16)

SOLVER_NAMES = (*sorted(baselines.SOLVERS), "dqn")


@dataclass(frozen=True)
class ExperimentConfig:
    axis: str                      # "user_count" | "gpus"
    values: tuple[int, ...]
    solvers: tuple[str, ...]
    generator: GeneratorConfig
    edge: EdgeConfig
    cases: int = 100
    policy: TrainedPolicy | None = None
    master_seed: int = 0
    timing: bool = False

    def __post_init__(self):
        if self.axis not in ("user_count", "gpus"):
            raise ValidationError(f"axis: must be user_count or gpus, got {self.axis!r}")
        if not self.values:
            raise ValidationError("values: axis grid must be non-empty")
        if len(set(self.values)) < len(self.values):
            raise ValidationError(f"values: must be distinct, got {self.values}")
        if self.cases < 1:
            raise ValidationError(f"cases: must be >= 1, got {self.cases}")
        if not self.solvers:
            raise ValidationError("solvers: must name at least one solver")
        if len(set(self.solvers)) < len(self.solvers):
            raise ValidationError(f"solvers: must be distinct, got {self.solvers}")
        for s in self.solvers:
            if s not in SOLVER_NAMES:
                raise ValidationError(f"solvers: unknown solver {s!r}")
        if "dqn" in self.solvers and self.policy is None:
            raise ValidationError("solvers: dqn requires a policy")


@dataclass
class ReportRow:
    solver: str
    axis: str
    axis_value: int
    case_seed: int
    objective: float
    mean_pai_term: float
    mean_e2e_latency_s: float
    decision_time_s: float
    grant_count: int


# The report's columns are ReportRow's fields, in order, each parsed back by
# its annotation (str, int or float).
_REPORT_COLUMNS = [(f.name, field_types(ReportRow)[f.name]) for f in fields(ReportRow)]
REPORT_HEADER = [name for name, _ in _REPORT_COLUMNS]
_report_values = attrgetter(*REPORT_HEADER)
_FLOAT_COLUMNS = [name for name, kind in _REPORT_COLUMNS if kind is float]


def case_seed(master_seed: int, case_index: int) -> int:
    return int(np.random.SeedSequence((master_seed, case_index)).generate_state(1)[0])


def scenario_for_case(cfg: ExperimentConfig, axis_value: int, case_index: int) -> Scenario:
    generator, edge = cfg.generator, cfg.edge
    if cfg.axis == "user_count":
        generator = replace(generator, user_count=axis_value)
    else:
        # Pin the alpha band to the base GPU count so the user population is
        # identical at every point of the GPU axis.
        generator = replace(generator, alpha_ref_gpus=edge.gpus)
        edge = replace(edge, gpus=axis_value)
    return generate_scenario(case_seed(cfg.master_seed, case_index), generator, edge)


def decision_summary(scenario: Scenario, decision: Decision) -> tuple[float, float, float]:
    """(objective, mean accuracy term, mean end-to-end latency) of a feasible decision."""
    parts = scenario.model.breakdown(decision)
    pai_sum, lat_sum = sequential_sum(parts.pai_term), sequential_sum(parts.total)
    return pai_sum - lat_sum, pai_sum / scenario.user_count, lat_sum / scenario.user_count


def solve(name: str, scenario: Scenario, seed: int,
          policy: TrainedPolicy | None = None) -> Decision:
    """Run solver `name` of `SOLVER_NAMES`: the GA draws from `seed`, dqn runs `policy`.

    The scenario's model is read first, so a scenario out of floating-point
    range raises its `ValidationError` (`Scenario.model`) under every name.
    dqn without a policy raises a `ValidationError` too."""
    scenario.model  # builds and checks the model
    if name == "dqn":
        if policy is None:
            raise ValidationError("solvers: dqn requires a policy")
        return greedy_solve(policy, scenario)
    return baselines.SOLVERS[name](scenario, rng=seed)


def run_sweep(cfg: ExperimentConfig) -> list[ReportRow]:
    rows: list[ReportRow] = []
    for solver in cfg.solvers:
        for axis_value in cfg.values:
            for case in range(cfg.cases):
                scenario = scenario_for_case(cfg, axis_value, case)
                seed = scenario.seed
                started = time.perf_counter() if cfg.timing else 0.0
                decision = solve(solver, scenario, seed, cfg.policy)
                elapsed = time.perf_counter() - started if cfg.timing else 0.0
                check = objective(scenario, decision)  # feasibility + value trap
                obj, mean_pai, mean_lat = decision_summary(scenario, decision)
                if not math.isclose(obj, check, rel_tol=1e-9, abs_tol=1e-9):
                    raise RuntimeError(
                        f"inconsistent objective for {solver} on case seed {seed}")
                rows.append(ReportRow(
                    solver=solver, axis=cfg.axis, axis_value=axis_value,
                    case_seed=seed, objective=obj, mean_pai_term=mean_pai,
                    mean_e2e_latency_s=mean_lat, decision_time_s=elapsed,
                    grant_count=decision.grant_count))
    return rows


def summarize(rows: list[ReportRow]) -> list[list]:
    """Per (solver, axis value) mean objective with a normal 95% interval.

    Where a plain sum leaves floating-point range, that sum is taken
    scaled: the mean as a sum of values divided by the count, and the
    half-width through `math.hypot` of halved deviations, which reads inf
    only where the half-width itself exceeds the float range.
    """
    grouped: dict[tuple[str, str, int], list[float]] = {}
    for row in rows:
        grouped.setdefault((row.solver, row.axis, row.axis_value), []).append(row.objective)
    out = []
    for key, values in grouped.items():
        n = len(values)
        mean = sum(values) / n
        if math.isinf(mean):
            mean = sum(v / n for v in values)
        if n > 1:
            try:
                var = sum((v - mean) ** 2 for v in values) / (n - 1)
            except OverflowError:
                var = math.inf
            if math.isinf(var):
                root = math.sqrt(n * (n - 1))
                half = 2 * 1.96 * math.hypot(*((v / 2 - mean / 2) / root for v in values))
            else:
                half = 1.96 * math.sqrt(var / n)
        else:
            half = 0.0
        out.append([*key, n, mean, half])
    return out


def write_report(rows: list[ReportRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        writer.writerows(map(_report_values, rows))


def write_summary(rows: list[ReportRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for record in summarize(rows):
            writer.writerow(record)


def read_report(path: str | Path) -> list[ReportRow]:
    """Read a report written by `write_report`.

    A report without the report columns, with a field that does not parse
    or a value that is not finite, with no rows, or whose rows name more
    than one axis raises `ValidationError`.
    """
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [name for name in REPORT_HEADER if name not in (reader.fieldnames or ())]
            if missing:
                raise ValidationError(f"{path}: report lacks the columns {missing}")
            for rec in reader:
                row = ReportRow(*(kind(rec[name]) for name, kind in _REPORT_COLUMNS))
                if not all(math.isfinite(getattr(row, name)) for name in _FLOAT_COLUMNS):
                    raise ValidationError(
                        f"{path}: line {reader.line_num}: values must be finite")
                rows.append(row)
    except ValidationError:
        raise
    except (TypeError, ValueError, csv.Error) as exc:
        raise ValidationError(f"{path}: malformed report ({exc})") from exc
    if not rows:
        raise ValidationError(f"{path}: report holds no rows")
    axes = sorted({row.axis for row in rows})
    if len(axes) > 1:
        raise ValidationError(f"{path}: report rows name more than one axis: {axes}")
    return rows
