"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload decode-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from its
`src/` directory.  The run builds its inputs from the seed, repeats one
round of work until `--seconds` are spent, checks every output, prints one
line per metric and, last, one JSON object with the result.  With
`--trace 1` it alternates untraced and traced rounds and reports the
per-layer metrics instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"


def _one_blas_thread() -> int:
    """One BLAS thread, so that the process's CPU time, which the gated
    timings read, is the time of the one thread doing the work; must run
    before numpy loads.  Returns the number of usable cores."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "backparse" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cores = _one_blas_thread()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import backparse
    if Path(backparse.__file__).resolve().parent != SRC / "backparse":
        print(f"error: imported backparse from {backparse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in declared[section]}

    print("env " + json.dumps(harness.environment(cores), sort_keys=True))
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)

    missing = sorted(set(wanted) - set(result.metrics))
    if missing:
        result.problems.append(f"metrics not produced: {', '.join(missing)}")
    for name in wanted:
        if name in result.metrics:
            value, unit = result.metrics[name]
            if unit != wanted[name]:
                result.problems.append(f"{name}: unit {unit} differs from BENCHMARK.json {wanted[name]}")
    for line in result.notes:
        print(line)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": wanted[name]}
            for name in wanted if name in result.metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
