"""Command-line interface: generate / train / solve / sweep / plot.

All commands are deterministic for a fixed ``--seed``: running one twice
produces byte-identical files. Output paths default into the directory
named by the ``DIFFLOAD_OUT`` environment variable (else the working
directory) unless given explicitly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .costmodel import Breakdown
from .dqn import ScenarioSource, TrainHyper, load_policy, save_policy, train
from .dqn.training import SCOPES
from .qoe import ContractError, Decision, objective
from .scenario import (
    GeneratorConfig,
    PaiParams,
    Scenario,
    ValidationError,
    checked_integer,
    default_edge,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .svgplot import line_plot
from .sweep import (
    DEFAULT_GPU_GRID,
    DEFAULT_USER_GRID,
    SOLVER_NAMES,
    ExperimentConfig,
    read_report,
    run_sweep,
    solve,
    summarize,
    write_report,
    write_summary,
)

CURVE_WINDOWS = {"general": 1000, "gpu": 1000, "specific": 100}


def out_dir(args) -> Path:
    base = getattr(args, "out", None)
    if base is not None:
        return Path(base)
    return Path(os.environ.get("DIFFLOAD_OUT", "."))


def _resolve(args, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    base = out_dir(args)
    base.mkdir(parents=True, exist_ok=True)
    return base / default_name


def cmd_generate(args) -> int:
    edge = default_edge(gpus=args.gpus, b_max=args.b_max)
    cfg = GeneratorConfig(user_count=args.users)
    scenario = generate_scenario(args.seed, cfg, edge, PaiParams())
    path = _resolve(args, "scenario.json")
    save_scenario(scenario, path)
    clamped = sum(1 for u in scenario.users if u.alpha_clamped)
    print(f"wrote {path} ({scenario.user_count} users, gpus={edge.gpus}, "
          f"b_max={edge.b_max}, clamped_alphas={clamped})")
    return 0


def _smoothed(values: list[float], window: int) -> list[float]:
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def cmd_train(args) -> int:
    edge = default_edge(gpus=args.gpus, b_max=args.b_max)
    generator = GeneratorConfig(user_count=args.users)
    fixed = load_scenario(args.scenario) if args.scenario else None
    source = ScenarioSource(
        scope=args.scope,
        generator=generator,
        edge=edge,
        pai=PaiParams(),
        seed=args.seed,
        user_range=(args.users_min, args.users),
        fixed_scenario=fixed,
    )
    hyper = TrainHyper(episodes=args.episodes, train_every=args.train_every)
    result = train(source, hyper, seed=args.seed)

    policy_path = _resolve(args, "policy.json")
    save_policy(result.policy, policy_path)
    curve_path = policy_path.with_suffix(".curve.csv")
    window = CURVE_WINDOWS[args.scope]
    smoothed = _smoothed(result.episode_returns, window)
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "return", "smoothed_return"])
        for i, (raw, smooth) in enumerate(zip(result.episode_returns, smoothed)):
            writer.writerow([i, repr(raw), repr(smooth)])
    print(f"wrote {policy_path} and {curve_path} "
          f"(scope={args.scope}, episodes={args.episodes}, "
          f"final_smoothed={smoothed[-1]:.4f})")
    return 0


LATENCY_PARTS = tuple(f.name for f in fields(Breakdown) if f.name != "pai_term")


def _decision_dict(scenario: Scenario, decision: Decision, solver: str, obj: float) -> dict:
    parts = scenario.model.breakdown(decision)
    rows = zip(scenario.users, decision.entries, parts.pai_term.tolist(),
               zip(*(getattr(parts, name).tolist() for name in LATENCY_PARTS)))
    entries = [{"user_id": user.id, "granted": entry.granted, "split": entry.split,
                "pai_term": pai_term, "latency": dict(zip(LATENCY_PARTS, latency))}
               for user, entry, pai_term, latency in rows]
    return {
        "solver": solver,
        "scenario_seed": scenario.seed,
        "objective": obj,
        "grant_count": decision.grant_count,
        "entries": entries,
    }


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    policy = load_policy(args.policy) if args.solver == "dqn" else None
    decision = solve(args.solver, scenario, args.seed, policy)
    obj = objective(scenario, decision)  # raises on infeasible output: a solver bug
    path = _resolve(args, "decision.json")
    path.write_text(json.dumps(_decision_dict(scenario, decision, args.solver, obj),
                               indent=2) + "\n")
    print(f"{args.solver}: objective={obj!r} grants={decision.grant_count} -> {path}")
    return 0


def _axis_values(text: str) -> tuple[int, ...]:
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(
            f"--values: must be comma-separated integers, got {text!r}") from None
    return tuple(checked_integer(v, "--values") for v in values)


def cmd_sweep(args) -> int:
    values = _axis_values(args.values) if args.values is not None else (
        DEFAULT_USER_GRID if args.axis == "user_count" else DEFAULT_GPU_GRID)
    policy = load_policy(args.policy) if args.policy else None
    base_users = args.users if args.axis == "gpus" else 20
    cfg = ExperimentConfig(
        axis=args.axis,
        values=values,
        solvers=tuple(args.solvers.split(",")),
        cases=args.cases,
        generator=GeneratorConfig(user_count=base_users),
        edge=default_edge(gpus=args.gpus, b_max=args.b_max),
        policy=policy,
        master_seed=args.seed,
        timing=args.timing,
    )
    rows = run_sweep(cfg)
    directory = out_dir(args)
    directory.mkdir(parents=True, exist_ok=True)
    report_path = directory / "report.csv"
    write_report(rows, report_path)
    write_summary(rows, directory / "summary.csv")
    if args.plot:
        _plot_report(rows, directory)
    print(f"wrote {report_path} ({len(rows)} rows)")
    return 0


def _plot_report(rows, directory: Path) -> None:
    series: dict[str, list[tuple[float, float]]] = {}
    axis = rows[0].axis if rows else "axis"
    for record in summarize(rows):
        solver, _, axis_value, _, mean, _ = record
        series.setdefault(solver, []).append((float(axis_value), mean))
    line_plot(series, directory / "objective_vs_axis.svg",
              title="Mean objective per solver", x_label=axis,
              y_label="objective")


def cmd_plot(args) -> int:
    rows = read_report(args.report)
    directory = out_dir(args)
    directory.mkdir(parents=True, exist_ok=True)
    _plot_report(rows, directory)
    print(f"wrote {directory / 'objective_vs_axis.svg'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffload",
        description="Multi-user split-point offloading: simulate, solve, train, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random scenario file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--users", type=int, default=20)
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--b-max", type=int, default=16)
    p.add_argument("--out", "-o", help="output file (default scenario.json)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a grant/deny policy")
    p.add_argument("--scope", choices=SCOPES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--users", type=int, default=20, help="user count (upper end for ranges)")
    p.add_argument("--users-min", type=int, default=10, help="lower end for general/gpu scopes")
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--b-max", type=int, default=16)
    p.add_argument("--train-every", type=int, default=2)
    p.add_argument("--scenario", help="fixed scenario file (specific scope)")
    p.add_argument("--out", "-o", help="policy file (default policy.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="solve one scenario file")
    p.add_argument("scenario")
    p.add_argument("--solver", required=True, choices=SOLVER_NAMES)
    p.add_argument("--policy", help="policy file (required for --solver dqn)")
    p.add_argument("--seed", type=int, default=0, help="seed for stochastic solvers")
    p.add_argument("--out", "-o", help="decision file (default decision.json)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run a seeded experiment grid")
    p.add_argument("--axis", choices=["user_count", "gpus"], default="user_count")
    p.add_argument("--values", help="comma-separated axis values")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--solvers", default="b1,b2,b3,oracle")
    p.add_argument("--policy", help="policy file when dqn is in the solver set")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--users", type=int, default=20, help="user count for the gpus axis")
    p.add_argument("--gpus", type=int, default=8, help="GPU count for the user_count axis")
    p.add_argument("--b-max", type=int, default=16)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock decision times (breaks byte-for-byte determinism)")
    p.add_argument("--plot", action="store_true", help="also write SVG plots")
    p.add_argument("--out", "-o", help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="plot an existing report.csv")
    p.add_argument("--report", required=True)
    p.add_argument("--out", "-o", help="output directory")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.solver == "dqn" and not args.policy:
        parser.error("--solver dqn requires --policy")
    try:
        for name, value in vars(args).items():
            if type(value) is int:  # an integer option; a flag is a bool
                checked_integer(value, "--" + name.replace("_", "-"))
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed: must be >= 0, got {args.seed}")
        return args.func(args)
    except (ValidationError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
