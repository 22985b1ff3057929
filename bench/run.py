"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a diffload source checkout; the package is imported
from ``src/`` of that checkout, never from an installed copy. BLAS is pinned
to one thread before numpy loads. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it measures the same rounds once
untraced and once traced, writes the spans to
``.bench_out/trace-<workload>.jsonl`` and reports the per-layer metrics.
The line before the result records the Python, numpy and BLAS versions and
the BLAS thread count. Exits 1 when an output fails its check, 2 on a usage
error and 1 when the checkout holds no diffload sources.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SCRIPT = Path(__file__).resolve()
BENCH = SCRIPT.parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


def import_program() -> None:
    """Put the checkout's src/ first on the path and check diffload loads from it."""
    package = ROOT / "src" / "diffload"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no diffload sources at {package}; run from a diffload checkout")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import diffload
    if Path(diffload.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: diffload imported from {diffload.__file__}, not {package}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import diffload and run the workload's set-up; print nothing")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_program()
    import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    if args.setup_only:
        harness.WORKLOADS[args.workload](args.seed, OUT / args.workload / "setup").setup()
        return 0

    result, record = harness.run(SCRIPT, args.workload, args.seed, args.seconds,
                                 bool(args.trace), OUT)
    print(json.dumps({"environment": record["environment"]}), flush=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
