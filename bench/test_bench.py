"""The benchmark's own tests: tiny smoke runs of every workload, and checks
that reject wrong answers. Run with ``PYTHONPATH=src pytest bench``."""

import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402

from diffload import baselines  # noqa: E402
from diffload.qoe import Decision, DecisionEntry, objective  # noqa: E402
from diffload.scenario import (  # noqa: E402
    GeneratorConfig, PaiParams, default_edge, generate_scenario)

TINY = {
    "train-specific": lambda d: wl.TrainSpecific(3, d, episodes=18),
    "oracle-scale": lambda d: wl.OracleScale(3, d, users=40, b_max=8),
    "sweep-default": lambda d: wl.SweepDefault(3, d, cases=1, values=(5, 10)),
    "solve-desk-ga-bnb": lambda d: wl.DeskGaBnb(3, d, users=8),
    "solve-desk-oracle-dqn": lambda d: wl.DeskOracleDqn(3, d, users=8, episodes=17),
}


def test_every_workload_has_a_tiny_form():
    assert set(TINY) == set(wl.WORKLOADS)


def test_benchmark_json_lists_the_workloads_and_per_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"op_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_checks_outputs_and_reports_every_layer(name, tmp_path):
    metrics, run = harness.traced_run(TINY[name](tmp_path), 0.0, tmp_path)
    assert run["failed"] == 0 and run["attempted"] > 0
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert metrics["trace.op_s"]["value"] > 0
    spans = [json.loads(line) for line in (tmp_path / f"trace-{name}.jsonl").open()]
    assert spans and {"id", "name", "start", "end", "parent", "run"} <= set(spans[0])


def test_tiny_layers_reach_their_modules(tmp_path):
    metrics, _ = harness.traced_run(TINY["train-specific"](tmp_path), 0.0, tmp_path)
    for name in ("network.backward_s", "replay.sample_s", "training.train_step_self_s",
                 "env.step_s", "network.flops_per_train_step"):
        assert metrics[name]["value"] > 0, name
    metrics, _ = harness.traced_run(TINY["sweep-default"](tmp_path), 0.0, tmp_path)
    assert metrics["scenario.generate_distinct_ratio"]["value"] == pytest.approx(0.25)
    assert metrics["svgplot.line_plot_s"]["value"] > 0


def test_untraced_round_reports_end_to_end_metrics(tmp_path):
    metrics, run = harness.untraced_run(TINY["oracle-scale"](tmp_path), 0.0, setup_s=0.5)
    assert set(metrics) == {"op_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())
    assert run["attempted"] == run["rounds"] == 1


def scenario(seed=11, users=12, b_max=6):
    return generate_scenario(seed, GeneratorConfig(user_count=users),
                             default_edge(gpus=4, b_max=b_max), PaiParams())


def test_reference_matches_exhaustive_enumeration():
    for seed in range(6):
        s = scenario(seed, users=9, b_max=5)
        exhaustive = objective(s, baselines.solve_exhaustive(s))
        assert ref.close(ref.optimum(s), exhaustive)


def test_oracle_with_one_grant_flipped_is_rejected():
    s = scenario()
    decision = baselines.solve_count_oracle(s)
    best = ref.optimum(s)
    ref.check_optimal(s, decision, best, objective(s, decision), "oracle")
    n_total = s.pai.n_total
    i = next(j for j, e in enumerate(decision.entries) if e.granted)
    entries = list(decision.entries)
    entries[i] = DecisionEntry(granted=False, split=n_total)
    flipped = Decision(entries=entries)
    with pytest.raises(ref.CheckError):
        ref.check_optimal(s, flipped, best, objective(s, flipped), "oracle")


def test_infeasible_or_misreported_decisions_are_rejected():
    s = scenario()
    decision = baselines.solve_count_oracle(s)
    best = ref.optimum(s)
    with pytest.raises(ref.CheckError):
        ref.check_bounded(s, decision, best, objective(s, decision) + 1.0, "oracle")
    too_many = Decision(entries=[DecisionEntry(granted=True, split=s.pai.n_min)
                                 for _ in s.users])
    with pytest.raises(ref.CheckError, match="b_max"):
        ref.check_bounded(s, too_many, best, 0.0, "all granted")


def test_bnb_scored_against_the_wrong_split_is_rejected():
    s = scenario()
    decision = baselines.solve_bnb(s)
    reported = objective(s, decision)
    best = ref.optimum(s)
    wl.check_bnb(s, decision, reported, best)
    wrong = ref.optimum(s, pinned_split=s.pai.n_min + 20)
    with pytest.raises(ref.CheckError):
        ref.check_optimal(s, decision, wrong, reported, "bnb")
    optimal_splits = baselines.SplitTable(s).decision([e.granted for e in decision.entries])
    with pytest.raises(ref.CheckError, match="n_min"):
        wl.check_bnb(s, optimal_splits, objective(s, optimal_splits), best)


def test_sweep_check_rejects_a_lowered_oracle_row(tmp_path):
    sweep = TINY["sweep-default"](tmp_path)
    sweep.setup()
    sweep.round(0, wl.NullProbe())
    report = sweep.out / "report.csv"
    rows = list(csv.reader(report.read_text().splitlines()))
    header, body = rows[0], rows[1:]
    col = header.index("objective")
    row = next(r for r in body if r[0] == "oracle")
    row[col] = repr(float(row[col]) - 1e-3)
    with report.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *body])
    with pytest.raises(ref.CheckError, match="oracle"):
        wl.check_sweep(sweep.out, sweep.values, sweep.cases, sweep.SOLVERS)


def test_training_check_rejects_a_return_above_the_optimum(tmp_path):
    train = TINY["train-specific"](tmp_path)
    train.setup()
    result = wl.dqn.train(train.source, train.hyper, seed=3)
    train.check(result)
    best = ref.optimum(train.scenario)
    lifted = replace(result, episode_returns=[*result.episode_returns[:-1], best + 1.0])
    with pytest.raises(ref.CheckError, match="above the optimum"):
        train.check(lifted)
    with pytest.raises(ref.CheckError, match="not finite"):
        train.check(replace(result, losses=[*result.losses, np.nan]))
