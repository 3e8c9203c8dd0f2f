"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-battle14 --seed 0 --seconds 50 --trace 0

The run sets up the workload, repeats its round (see ``workloads.py``) until
``--seconds`` have passed, then runs one more round under capture wrappers
that check the program's outputs. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates plain and traced rounds
and reports per-layer self times and counts instead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the same object and, for traced runs, every span
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    import numpy as np

    import tracing
    from checks import Checker, check_checkpoint
    from workloads import WORKLOADS, Rounds

    w = WORKLOADS[args.workload]
    work = OUT / f"{w.name}-{os.getpid()}"
    try:
        rounds = Rounds(w, str(work))
        setup_s = process_age()

        walls: dict[bool, list[float]] = {False: [], True: []}
        traced: list[list] = []
        outputs: list[str] = []
        problems: list[str] = []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            use_trace = bool(args.trace) and len(walls[True]) < len(walls[False])
            if time.perf_counter() >= deadline and (walls[True] or not args.trace) and walls[False]:
                break
            tracer = tracing.Tracer()
            attempted += w.ops
            try:
                with tracer.installed() if use_trace else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    outputs.append(rounds.round())
                    walls[use_trace].append(time.perf_counter() - t0)
                if use_trace:
                    traced.append(tracer.spans)
            except Exception:  # a failed round counts all its operations as failed
                failed += w.ops
                problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
                traceback.print_exc()
                if failed > 4 * w.ops:
                    break
        if not walls[False]:
            raise RuntimeError("no round completed")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checker = Checker(np.random.default_rng(args.seed))
        attempted += w.ops
        t0 = time.perf_counter()
        reference = checker.run(rounds.round, updates=w.trains)
        check_s = time.perf_counter() - t0
        problems += checker.problems
        problems += check_checkpoint(rounds.checkpoint)
        if any(out != reference for out in outputs):
            problems.append("rounds of one run produced different outputs")

        # The mean, not the median: on a shared host the same round runs at
        # speeds up to twice apart, and a median jumps between them with the
        # share of slow rounds, where the mean moves in proportion to it.
        wall_s = statistics.fmean(walls[False])
        if args.trace:
            per_round = [tracing.layer_metrics(spans) for spans in traced]
            metrics, count_problems = tracing.merge_rounds(per_round)
            problems += count_problems
            if metrics["gridworld.agent_steps"] != checker.agent_steps:
                problems.append("traced agent-steps differ from the checked round's")
            metrics["trace.overhead_s"] = statistics.fmean(walls[True]) - wall_s
            tracing.write_spans(str(OUT / f"spans-{w.name}-seed{args.seed}.csv"), traced)
            units = {k: "s" if k.endswith("_s") else "B" if k.endswith("bytes") else "count" for k in metrics}
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "agent_steps_per_s": checker.agent_steps / wall_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"setup_s": "s", "wall_s": "s", "agent_steps_per_s": "1/s", "peak_rss_mb": "MiB"}
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        print(
            f"{w.name} seed {args.seed}: rounds {len(walls[False])} plain"
            f" {[round(t, 3) for t in walls[False]]}, {len(walls[True])} traced"
            f" {[round(t, 3) for t in walls[True]]}; agent-steps/round {checker.agent_steps};"
            f" checked {checker.checked} in {check_s:.2f}s"
        )
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gridmarl" / "__init__.py").is_file():
        print(f"error: no program source at {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read when numpy loads, so set before any import
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result = run(args)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
