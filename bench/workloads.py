"""The benchmark's workloads: set-up, one round of operations, and its checks.

A round is a fixed batch of the same operations; the harness repeats rounds
until the run's time is up. Each round times its operations and then checks
every output outside the timed region against ``reference`` or a property
of the output. Inputs derive from the benchmark seed; the program only sees
the scenarios, argument lists and files made from it. Program functions are
called through their modules so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import xml.etree.ElementTree as ElementTree
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from reference import CheckError

import diffload.dqn as dqn
from diffload import baselines, cli
from diffload.dqn import ScenarioSource, TrainHyper
from diffload.qoe import objective
from diffload.scenario import GeneratorConfig, PaiParams, default_edge, generate_scenario


def derive(seed: int, *key: int) -> int:
    """A 32-bit input seed from the benchmark seed and a key path."""
    return int(np.random.SeedSequence((seed % 2**63, *key)).generate_state(1)[0])


def desk_scenario(seed: int, k: int, users: int, gpus: int, b_max: int):
    return generate_scenario(derive(seed, k), GeneratorConfig(user_count=users),
                             default_edge(gpus=gpus, b_max=b_max), PaiParams())


class NullProbe:
    """Stands in for the tracer when tracing is off."""

    @contextlib.contextmanager
    def phase(self, run):
        yield

    @contextlib.contextmanager
    def paused(self):
        yield


@dataclass
class Round:
    samples: list[float]   # op_s samples: seconds per operation
    attempted: int         # program operations whose output was checked
    ops: int               # operations the per-layer figures are divided by
    parts: dict = field(default_factory=dict)  # named per-solver timings


class Workload:
    """Set-up once, then rounds; `name` is the workload's name in BENCHMARK.json."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, k: int, probe) -> Round:
        raise NotImplementedError


class TrainSpecific(Workload):
    """Specific-scope training on criterion 7's scenario, then one greedy decision.

    The training seed is the benchmark seed; the scenario is always the one
    criterion 7 trains on (ScenarioSource seed 424242, 20 users, 8 GPUs,
    b_max 16). An operation is one episode. Episodes before the replay
    buffer holds a full terminal quota run no gradient step; they are
    excluded from the timing samples.
    """

    name = "train-specific"

    def __init__(self, seed, workdir, episodes: int = 70, users: int = 20):
        super().__init__(seed, workdir)
        self.hyper = TrainHyper(episodes=episodes, train_every=2)
        self.warmup = self.hyper.terminal_quota
        self.users = users
        self.best = None

    def setup(self):
        self.source = ScenarioSource(scope="specific",
                                     generator=GeneratorConfig(user_count=self.users),
                                     edge=default_edge(gpus=8, b_max=16), pai=PaiParams(),
                                     seed=424242)
        self.scenario = self.source.scenario_for_episode(0)
        # What train() builds before its first episode: network, target, Adam, replay.
        dqn.train(self.source, TrainHyper(episodes=1, train_every=2), seed=self.seed)

    def round(self, k, probe):
        stamps: list[float] = []
        with probe.phase(k):
            start = perf_counter()
            result = dqn.train(self.source, self.hyper, seed=self.seed,
                               monitor=lambda episode, net: stamps.append(perf_counter()),
                               monitor_every=1)
        with probe.paused():
            samples = list(np.diff([start, *stamps])[self.warmup:])
            self.check(result)
        return Round(samples=samples, attempted=self.hyper.episodes + 1,
                     ops=self.hyper.episodes)

    def check(self, result):
        if self.best is None:
            self.best = ref.optimum(self.scenario)
        returns = result.episode_returns
        if len(returns) != self.hyper.episodes:
            raise CheckError(f"{len(returns)} episode returns for {self.hyper.episodes} episodes")
        for i, value in enumerate(returns):
            if value > self.best and not ref.close(value, self.best):
                raise CheckError(f"episode {i} returned {value!r}, above the optimum "
                                 f"{self.best!r}")
        if not result.losses or not all(math.isfinite(x) for x in result.losses):
            raise CheckError("training losses missing or not finite")
        decision = dqn.greedy_solve(result.policy, self.scenario)
        ref.check_bounded(self.scenario, decision, self.best,
                          objective(self.scenario, decision), "greedy policy")


class OracleScale(Workload):
    """The count oracle on seeded 1000-user scenarios with b_max 64 and 8 GPUs.

    Its cost grows with users x b_max. At b_max 256 one decision takes about
    10 s on a 2.0 GHz Xeon core, so a 15 s run would hold one or two samples;
    b_max 64 gives six or seven.
    """

    name = "oracle-scale"

    def __init__(self, seed, workdir, users: int = 1000, b_max: int = 64):
        super().__init__(seed, workdir)
        self.users, self.b_max = users, b_max

    def scenario(self, k):
        return desk_scenario(self.seed, k, self.users, 8, self.b_max)

    def setup(self):
        self.first = self.scenario(0)

    def round(self, k, probe):
        scenario = self.first if k == 0 else self.scenario(k)
        with probe.phase(k):
            start = perf_counter()
            decision = baselines.solve_count_oracle(scenario)
            elapsed = perf_counter() - start
        with probe.paused():
            ref.check_optimal(scenario, decision, ref.optimum(scenario),
                              objective(scenario, decision), "oracle")
        return Round(samples=[elapsed], attempted=1, ops=1)


class SweepDefault(Workload):
    """The README's user-count sweep, run in-process through ``cli.main``.

    Each round runs one sweep with its own master seed and 5 cases per axis
    value (the README uses 100); an operation is one solver run, that is,
    one row of report.csv.
    """

    name = "sweep-default"

    VALUES = (10, 20, 30, 40, 50, 60)
    SOLVERS = ("b1", "b2", "b3", "oracle")

    def __init__(self, seed, workdir, cases: int = 5, values=VALUES):
        super().__init__(seed, workdir)
        self.cases, self.values = cases, tuple(values)
        self.out = workdir / "sweep"

    def argv(self, master_seed: int) -> list[str]:
        return ["sweep", "--axis", "user_count",
                "--values", ",".join(str(v) for v in self.values),
                "--cases", str(self.cases), "--solvers", ",".join(self.SOLVERS),
                "--seed", str(master_seed), "--plot", "-o", str(self.out)]

    def setup(self):
        self.out.mkdir(parents=True, exist_ok=True)
        cli.build_parser().parse_args(self.argv(derive(self.seed, 0)))

    def round(self, k, probe):
        rows = len(self.values) * self.cases * len(self.SOLVERS)
        with probe.phase(k):
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv(derive(self.seed, k)))
            elapsed = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"diffload sweep exited with {code}")
        with probe.paused():
            check_sweep(self.out, self.values, self.cases, self.SOLVERS)
        return Round(samples=[elapsed / rows], attempted=rows, ops=rows)


def check_sweep(out: Path, values, cases: int, solvers) -> None:
    """Row count, oracle optimality and dominance per case, summary means, plot."""
    with open(out / "report.csv", newline="") as fh:
        report = list(csv.DictReader(fh))
    if len(report) != len(values) * cases * len(solvers):
        raise CheckError(f"report.csv has {len(report)} rows, expected "
                         f"{len(values)} x {cases} x {len(solvers)}")
    by_case: dict[tuple[int, int], dict[str, dict]] = defaultdict(dict)
    for row in report:
        by_case[(int(row["axis_value"]), int(row["case_seed"]))][row["solver"]] = row
    if len(by_case) != len(values) * cases:
        raise CheckError(f"report.csv covers {len(by_case)} cases, expected {len(values) * cases}")
    edge = default_edge()
    for (users, case_seed), rows in by_case.items():
        if set(rows) != set(solvers):
            raise CheckError(f"case {case_seed} at {users} users has solvers {sorted(rows)}")
        scenario = generate_scenario(case_seed, GeneratorConfig(user_count=users), edge,
                                     PaiParams())
        best = ref.optimum(scenario)
        oracle = float(rows["oracle"]["objective"])
        if not ref.close(oracle, best):
            raise CheckError(f"oracle {oracle!r} on case {case_seed} at {users} users; "
                             f"optimum {best!r}")
        for solver, row in rows.items():
            value = float(row["objective"])
            if value > best and not ref.close(value, best):
                raise CheckError(f"{solver} {value!r} beats the optimum {best!r}")
            if int(row["grant_count"]) > min(users, edge.b_max):
                raise CheckError(f"{solver} grants {row['grant_count']} at {users} users")
            if value > oracle and not ref.close(value, oracle):
                raise CheckError(f"{solver} {value!r} beats the oracle {oracle!r}")
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    if len(summary) != len(values) * len(solvers):
        raise CheckError(f"summary.csv has {len(summary)} rows")
    for row in summary:
        objectives = [float(r["objective"]) for r in report
                      if r["solver"] == row["solver"] and r["axis_value"] == row["axis_value"]]
        mean = sum(objectives) / len(objectives)
        if int(row["cases"]) != cases or not ref.close(float(row["mean_objective"]), mean):
            raise CheckError(f"summary row {row['solver']} at {row['axis_value']} "
                             f"disagrees with report.csv")
    svg = ElementTree.parse(out / "objective_vs_axis.svg").getroot()
    lines = svg.findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != len(solvers):
        raise CheckError(f"plot has {len(lines)} series for {len(solvers)} solvers")


class Desk(Workload):
    """Decisions on seeded 20-user scenarios (8 GPUs, b_max 16) by two solvers.

    An operation is one scenario decided by both solvers; its time is the
    sum of the two decision times, which are also kept apart in ``parts``.
    """

    solvers: tuple[str, ...] = ()

    def __init__(self, seed, workdir, users: int = 20):
        super().__init__(seed, workdir)
        self.users = users

    def scenario(self, k):
        return desk_scenario(self.seed, k, self.users, 8, 16)

    def setup(self):
        self.first = self.scenario(0)

    def decide(self, solver, scenario):
        return baselines.SOLVERS[solver](scenario, rng=np.random.default_rng(scenario.seed))

    def round(self, k, probe):
        scenario = self.first if k == 0 else self.scenario(k)
        times, decisions = {}, {}
        with probe.phase(k):
            for solver in self.solvers:
                start = perf_counter()
                decisions[solver] = self.decide(solver, scenario)
                times[solver] = perf_counter() - start
        with probe.paused():
            self.check(scenario, decisions)
        return Round(samples=[sum(times.values())], attempted=len(self.solvers), ops=1,
                     parts=times)

    def check(self, scenario, decisions):
        raise NotImplementedError


class DeskGaBnb(Desk):
    """GA and branch and bound: the traditional methods the paper compares against."""

    name = "solve-desk-ga-bnb"
    solvers = ("ga", "bnb")

    def check(self, scenario, decisions):
        best = ref.optimum(scenario)
        ga, bnb = decisions["ga"], decisions["bnb"]
        ref.check_bounded(scenario, ga, best, objective(scenario, ga), "ga")
        check_bnb(scenario, bnb, objective(scenario, bnb), best)


def check_bnb(scenario, decision, reported, best) -> None:
    """Splits pinned at n_min, and the fixed-split optimum reached."""
    for i, e in enumerate(decision.entries):
        if e.granted and e.split != scenario.pai.n_min:
            raise CheckError(f"bnb: user {i} granted at split {e.split}, not n_min")
    pinned = ref.optimum(scenario, pinned_split=scenario.pai.n_min)
    ref.check_optimal(scenario, decision, pinned, reported, "bnb")
    ref.check_bounded(scenario, decision, best, reported, "bnb")


class DeskOracleDqn(Desk):
    """The count oracle and the greedy dqn policy: the paper's low-complexity path.

    The policy is trained in set-up by ``diffload train``.
    """

    name = "solve-desk-oracle-dqn"
    solvers = ("oracle", "dqn")

    def __init__(self, seed, workdir, users: int = 20, episodes: int = 17):
        super().__init__(seed, workdir, users)
        self.episodes = episodes

    def setup(self):
        super().setup()
        self.workdir.mkdir(parents=True, exist_ok=True)
        scenario_path = self.workdir / "train-scenario.json"
        policy_path = self.workdir / "policy.json"
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["generate", "--seed", str(derive(self.seed, 1, 0)),
                          "--users", str(self.users), "-o", str(scenario_path)],
                         ["train", "--scope", "specific", "--seed", str(self.seed % 2**32),
                          "--episodes", str(self.episodes), "--scenario", str(scenario_path),
                          "-o", str(policy_path)]):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"diffload {argv[0]} failed")
        self.policy = dqn.load_policy(policy_path)

    def decide(self, solver, scenario):
        if solver == "dqn":
            return dqn.greedy_solve(self.policy, scenario)
        return super().decide(solver, scenario)

    def check(self, scenario, decisions):
        best = ref.optimum(scenario)
        oracle, dqn = decisions["oracle"], decisions["dqn"]
        ref.check_optimal(scenario, oracle, best, objective(scenario, oracle), "oracle")
        ref.check_bounded(scenario, dqn, best, objective(scenario, dqn), "dqn")


WORKLOADS = {w.name: w for w in (TrainSpecific, OracleScale, SweepDefault, DeskGaBnb,
                                 DeskOracleDqn)}
