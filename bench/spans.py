"""Spans and counters around the public functions of each diffload module.

The traced run rebinds every public function listed in ``install`` inside
this process only: each module attribute bound to the original function
object is replaced by a wrapper, and methods are wrapped on their class.
Callers that look a name up at call time (``diffload.dqn.training.step``,
``diffload.baselines.optimal_split``, ``baselines.SOLVERS`` lambdas, ...)
therefore reach the wrapper. Spans (id, name, start, end, parent, run) stay
in memory and are written as JSONL once the run ends; ``layer_metrics``
turns them into the per-layer figures.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SETUP = "setup"
ROUND = "bench.round"


class Tracer:
    def __init__(self):
        self.active = False
        self.run: str | int = SETUP
        self.spans: list[tuple] = []   # (id, name, start, end, parent, run)
        self.counts: Counter = Counter()
        self.levels: dict = {}
        self.generated: dict = defaultdict(set)  # run phase -> distinct scenario keys
        self._stack: list[int] = []
        self._in_split_table = 0  # depth of SplitTable.granted calls in progress
        self._next_id = 0
        self._patches: list[tuple] = []
        self.origin = perf_counter()

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.run))

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        sid, parent = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, name, start)

    @contextmanager
    def phase(self, run):
        """Trace everything inside under run id `run`, rooted at one span."""
        self.run, self.active = run, True
        try:
            with self.span(ROUND if run != SETUP else "bench.setup"):
                yield
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, key: str, amount: float = 1) -> None:
        if self.active:
            self.counts[(self.run == SETUP, key)] += amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, hook=None):
        """Span wrapper; `name` is a string or a function of the call's arguments."""
        tracer = self
        name_of = name if callable(name) else (lambda args: name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name_of(args)
            sid, parent = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, parent, label, start)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, key):
        tracer = self

        def counting(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def _rebind(self, modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _rebind_method(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        import diffload
        from diffload import baselines, cli, env, qoe, scenario, split, svgplot, sweep
        from diffload.dqn import network, replay, training

        import diffload.dqn as dqn

        modules = [diffload, baselines, cli, env, qoe, scenario, split, svgplot, sweep,
                   dqn, network, replay, training]

        def scenario_key(args, kwargs, result):
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            self.generated[self.run == SETUP].add((result.seed, cfg, result.edge, result.pai))

        def split_case(args, kwargs, result):
            if result.case == split.INTERIOR_ROOT:
                self.count("split.interior")
            if self._in_split_table:
                self.count("baselines.split_table_miss")

        def ga_budget(args, kwargs, result):
            cfg = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("cfg")
            cfg = cfg if cfg is not None else baselines.GaConfig()
            self.count("baselines.ga_budget", cfg.population * (cfg.iterations + 1))

        def dense_rows(kind):
            """Count rows through the dense stack; single-vector forwards are not train work."""
            def hook(args, kwargs, result):
                net, rows = args[0], args[-1]
                if rows.ndim == 1:
                    return
                self.levels["network.dims"] = [net.input_dim, *net.hidden, network.N_ACTIONS]
                self.count(f"network.rows.{kind}", len(rows))
                self.count(f"network.calls.{kind}")
            return hook

        def replay_size(args, kwargs, result):
            if self.run != SETUP:
                self.levels["replay.size_final"] = len(args[0])

        functions = [
            (scenario.generate_scenario, "scenario.generate", scenario_key),
            (qoe.objective, "qoe.objective", None),
            (split.optimal_split, "split.optimal_split", split_case),
            (baselines.solve_count_oracle, "baselines.solve_count_oracle", None),
            (baselines.solve_ga, "baselines.solve_ga", ga_budget),
            (baselines.baseline_all_offload_opt, "baselines.b1", None),
            (baselines.baseline_all_offload_fixed, "baselines.b2", None),
            (baselines.baseline_all_local, "baselines.b3", None),
            (env.reset, "env.reset", None),
            (env.step, "env.step", None),
            (env.encode, "env.encode", None),
            (env.assign_rewards, "env.assign_rewards", None),
            (env.decision_from_state, "env.decision_from_state", None),
            (training.train, "training.train", None),
            (training.train_step, "training.train_step", None),
            (training.select_action, "training.select_action", None),
            (training.td_targets, "training.td_targets", None),
            (training.greedy_solve, "training.greedy_solve", None),
            (sweep.run_sweep, "sweep.run", None),
            (sweep.decision_summary, "sweep.decision_summary", None),
            (sweep.write_report, "sweep.write", None),
            (sweep.write_summary, "sweep.write", None),
            (svgplot.line_plot, "svgplot.line_plot", None),
            (cli.cmd_train, "cli.train", None),
            (cli.cmd_sweep, "cli.sweep", None),
            (cli.cmd_generate, "cli.generate", None),
        ]
        for fn, label, hook in functions:
            self._rebind(modules, fn, self.wrap(fn, label, hook))
        self._rebind(modules, qoe.e2e_latency, self.counted(qoe.e2e_latency, "qoe.e2e_latency"))

        bnb_span = self.wrap(baselines.solve_bnb, "baselines.solve_bnb")

        def solve_bnb(scenario, stats=None):
            stats = stats if stats is not None else baselines.BnbStats()
            result = bnb_span(scenario, stats)
            self.count("baselines.bnb_nodes", stats.nodes)
            return result

        self._rebind(modules, baselines.solve_bnb, solve_bnb)

        Q, Table = network.QNetwork, baselines.SplitTable
        methods = [
            (Q, "forward", lambda a: "network.forward_single" if a[1].ndim == 1
             else "network.forward_batch", dense_rows("forward")),
            (Q, "forward_cached", "network.forward_cached", dense_rows("forward")),
            (Q, "backward", "network.backward", dense_rows("backward")),
            (Q, "copy_from", "network.copy_from", None),
            (Q, "clone", "network.clone", None),
            (network.Adam, "step", "network.adam_step", None),
            (replay.ReplayBuffer, "push", "replay.push", replay_size),
            (replay.ReplayBuffer, "sample", "replay.sample", None),
            (replay.ReplayBuffer, "update_priorities", "replay.update_priorities", None),
            (Table, "value", "baselines.split_table_value", None),
        ]
        for cls, attr, label, hook in methods:
            self._rebind_method(cls, attr, self.wrap(cls.__dict__[attr], label, hook))
        table_granted = Table.granted

        def granted(table, user_idx, m):
            if not self.active:
                return table_granted(table, user_idx, m)
            self.count("baselines.split_table_granted")
            self._in_split_table += 1
            try:
                return table_granted(table, user_idx, m)
            finally:
                self._in_split_table -= 1

        self._rebind_method(Table, "granted", granted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": round(start - self.origin, 9),
                                     "end": round(end - self.origin, 9),
                                     "parent": parent, "run": run}) + "\n")


MODULES = ("scenario", "qoe", "split", "baselines", "env", "network", "replay",
           "training", "sweep", "svgplot", "cli")

# Spans reported as seconds per operation, and spans also reported as calls.
TIMED = ["network.forward_cached", "network.backward", "network.adam_step",
         "network.forward_batch", "network.forward_single", "replay.push", "replay.sample",
         "replay.update_priorities", "training.train_step", "training.select_action",
         "training.greedy_solve", "env.step", "env.encode", "env.assign_rewards",
         "split.optimal_split", "baselines.solve_count_oracle", "baselines.solve_ga",
         "baselines.solve_bnb", "qoe.objective", "scenario.generate", "sweep.run",
         "sweep.decision_summary", "sweep.write", "svgplot.line_plot"]
CALLS = ["network.forward_cached", "network.forward_batch", "network.forward_single",
         "replay.push", "training.train_step", "env.step", "split.optimal_split",
         "qoe.objective", "scenario.generate"]

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in TIMED},
    **{f"{name}_calls": "count" for name in CALLS},
    "training.train_step_self_s": "s",
    "training.target_copies": "count",
    "replay.size_final": "count",
    "split.interior_calls": "count",
    "baselines.split_table_granted_calls": "count",
    "baselines.split_table_miss_ratio": "ratio",
    "baselines.ga_fitness_evals": "count",
    "baselines.ga_fitness_eval_ratio": "ratio",
    "baselines.bnb_nodes": "count",
    "qoe.e2e_latency_calls": "count",
    "scenario.generate_distinct_ratio": "ratio",
    "scenario.generate_setup_s": "s",
    "cli.train_s": "s",
    "network.flops_per_train_step": "flop",
    "network.bytes_per_train_step": "B",
    **{f"share.{module}": "share" for module in (*MODULES, "unattributed")},
    "trace.spans": "count",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_share": "share",
}


def dense_cost(dims: list[int], rows: float, calls: float) -> tuple[float, float]:
    """(flops, bytes) of `calls` passes of `rows` rows in total through the dense stack.

    A matmul of (r x a) by (a x b) costs 2rab flops and moves 8(ra + ab + rb)
    bytes: each operand read once, the result written once, in float64.
    """
    pairs = list(zip(dims[:-1], dims[1:]))
    flops = rows * sum(2 * a * b for a, b in pairs)
    moved = 8 * (rows * sum(a + b for a, b in pairs) + calls * sum(a * b for a, b in pairs))
    return flops, moved


def train_step_cost(dims, forward_rows, forward_calls, backward_rows, backward_calls,
                    adam_steps) -> tuple[float, float]:
    """Dense work of training: forwards, backwards (two matmuls per layer), Adam.

    Adam does 13 flops per weight and moves 7 doubles per weight (reads the
    gradient, both moments and the weight; writes the moments and the weight).
    """
    weights = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    f_flops, f_bytes = dense_cost(dims, forward_rows, forward_calls)
    b_flops, b_bytes = dense_cost(dims, backward_rows, backward_calls)
    return (f_flops + 2 * b_flops + adam_steps * 13 * weights,
            f_bytes + 2 * b_bytes + adam_steps * 7 * 8 * weights)


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict, dict]:
    """Per-layer figures from the op-phase spans, per operation; plus self times."""
    names = {sid: name for sid, name, *_ in tracer.spans}
    inclusive: dict[tuple[bool, str], float] = defaultdict(float)
    calls: Counter = Counter()
    child_time: dict[int, float] = defaultdict(float)
    for sid, name, start, end, parent, run in tracer.spans:
        child_time[parent] += end - start
    self_time: dict[tuple[bool, str], float] = defaultdict(float)
    copies = 0
    for sid, name, start, end, parent, run in tracer.spans:
        setup = run == SETUP
        inclusive[(setup, name)] += end - start
        calls[(setup, name)] += 1
        self_time[(setup, name)] += end - start - child_time[sid]
        if not setup and name == "network.copy_from" and names.get(parent) != "network.clone":
            copies += 1

    per_op = max(ops, 1)

    def op_count(key: str) -> float:
        return tracer.counts[(False, key)]

    metrics: dict[str, float] = {}
    for name in TIMED:
        metrics[f"{name}_s"] = inclusive[(False, name)] / per_op
    for name in CALLS:
        metrics[f"{name}_calls"] = calls[(False, name)] / per_op
    metrics["training.train_step_self_s"] = self_time[(False, "training.train_step")] / per_op
    metrics["training.target_copies"] = copies / per_op
    metrics["replay.size_final"] = tracer.levels.get("replay.size_final", 0)
    metrics["split.interior_calls"] = op_count("split.interior") / per_op
    granted = op_count("baselines.split_table_granted")
    metrics["baselines.split_table_granted_calls"] = granted / per_op
    metrics["baselines.split_table_miss_ratio"] = (
        op_count("baselines.split_table_miss") / granted if granted else 0.0)
    evals = calls[(False, "baselines.split_table_value")]
    budget = op_count("baselines.ga_budget")
    metrics["baselines.ga_fitness_evals"] = evals / per_op
    metrics["baselines.ga_fitness_eval_ratio"] = evals / budget if budget else 0.0
    metrics["baselines.bnb_nodes"] = op_count("baselines.bnb_nodes") / per_op
    metrics["qoe.e2e_latency_calls"] = op_count("qoe.e2e_latency") / per_op
    generated = calls[(False, "scenario.generate")]
    metrics["scenario.generate_distinct_ratio"] = (
        len(tracer.generated[False]) / generated if generated else 0.0)
    metrics["scenario.generate_setup_s"] = inclusive[(True, "scenario.generate")]
    metrics["cli.train_s"] = inclusive[(True, "cli.train")]

    steps = calls[(False, "training.train_step")]
    dims = tracer.levels.get("network.dims")
    if steps and dims:
        flops, moved = train_step_cost(
            dims, op_count("network.rows.forward"), op_count("network.calls.forward"),
            op_count("network.rows.backward"), op_count("network.calls.backward"),
            calls[(False, "network.adam_step")])
        metrics["network.flops_per_train_step"] = flops / steps
        metrics["network.bytes_per_train_step"] = moved / steps
    else:
        metrics["network.flops_per_train_step"] = 0.0
        metrics["network.bytes_per_train_step"] = 0.0

    rounds = inclusive[(False, ROUND)]
    shares: dict[str, float] = defaultdict(float)
    for (setup, name), value in self_time.items():
        if setup:
            continue
        module = name.split(".")[0]
        shares[module if module in MODULES else "unattributed"] += value
    for module in (*MODULES, "unattributed"):
        metrics[f"share.{module}"] = shares[module] / rounds if rounds else 0.0
    metrics["trace.spans"] = len(tracer.spans)
    self_table = {name: value for (setup, name), value in self_time.items() if not setup}
    return metrics, self_table
