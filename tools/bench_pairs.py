"""Compare two commits on the benchmark in alternating pairs of runs.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_topic.json

Each commit is exported with ``git archive`` into a directory of its own
under ``--work``, and every run starts ``perfbench/run.py`` in that export,
one run at a time, for the ``run_seconds`` that ``BENCHMARK.json`` (the
change's) sets. Per workload of that file, the protocol is:

* ten plain pairs, ``--seed 100`` to ``109``, the parent running first on
  even seeds and the change first on odd ones;
* one traced run per side, ``--seed 200``.

The output holds, per workload and end-to-end metric, both sides' runs,
medians and quartiles (``numpy.percentile``, linear), the change's wins
(pairs where it is better), its median against the parent's, and the
parent's interquartile range as a share of its median; and per side of
the traced runs, the counts and per-layer self times. Under ``probe`` it
holds two runs per side, alternating, of the change's
``tools/forward_probe.py`` on each side's source: the tracemalloc peaks
and median times of one large policy forward and of the largest sweep
calls. ``--topic``, ``--claim`` and ``--result`` are copied into the
output as given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = range(100, 110)
TRACED_SEED = 200
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0|1"


def export(commit: str, dest: Path) -> str:
    """Write the tree of ``commit`` into ``dest``; return its full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``; its result object."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        command = " ".join(argv)
        raise RuntimeError(f"{command} in {root} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' runs of one metric, paired by seed, and how the change compares."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    return {
        "better": better,
        "parent": p,
        "change": c,
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
        "change_wins": f"{wins}/{len(parent)}",
        "change_vs_parent_median": round(c["median"] / p["median"] - 1.0, 4),
        "parent_iqr_share_of_median": round((p["q3"] - p["q1"]) / p["median"], 4),
    }


def traced(result: dict) -> dict:
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "counts": {k: v for k, v in metrics.items() if not k.endswith("_s")},
        "self_s": {k: round(v, 4) for k, v in metrics.items() if k.endswith(".self_s")},
        "trace.overhead_s": round(metrics["trace.overhead_s"], 4),
    }


def compare(roots: dict[str, Path], benchmark: dict, seconds: float, log) -> dict:
    """The protocol above, for every workload of ``benchmark``."""
    out = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in SEEDS:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(roots[side], workload, seed, seconds, 0)
                runs[side].append(res)
                values = ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items())
                log(f"{workload} seed {seed} {side}: correct {res['correct']}, "
                    f"failed {res['failed']}, {values}")
        summary = {
            m["name"]: summarize(
                [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                m["better"],
            )
            for m in benchmark["end_to_end"]
        }
        trace = {}
        for side in ("parent", "change"):
            trace[side] = traced(run_once(roots[side], workload, TRACED_SEED, seconds, 1))
            log(f"{workload} traced {side}: correct {trace[side]['correct']}")
        out[workload] = {
            "all_correct_no_failures": all(
                r["correct"] and not r["failed"] for side in runs.values() for r in side
            ) and all(t["correct"] and not t["failed"] for t in trace.values()),
            "summary": summary,
            f"traced_seed{TRACED_SEED}": trace,
        }
    return out


def probe(roots: dict[str, Path], log) -> dict[str, list[dict]]:
    """Two runs per side, alternating, of the change's forward probe on each side's source."""
    script = roots["change"] / "tools" / "forward_probe.py"
    out: dict[str, list[dict]] = {"parent": [], "change": []}
    for side in ("parent", "change") * 2:
        argv = [sys.executable, str(script), "--src", str(roots[side] / "src")]
        proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        out[side].append(json.loads(proc.stdout))
        log(f"probe {side}: {json.dumps(out[side][-1]['sweep'])}")
    return out


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--work", help="where to export the commits (default: a new temporary dir)")
    p.add_argument("--topic", default="")
    p.add_argument("--claim", default="")
    p.add_argument("--result", default="")
    args = p.parse_args(argv)

    work = Path(args.work or tempfile.mkdtemp(prefix="bench-pairs-"))
    roots = {"parent": work / "parent", "change": work / "change"}
    commits = {"parent": args.parent, "change": args.change}
    shas = {side: export(commit, roots[side]) for side, commit in commits.items()}
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    os.environ.pop("GRIDMARL_OUT", None)
    result = {
        "topic": args.topic,
        "command": COMMAND.format(seconds=seconds),
        "parent": shas["parent"][:7],
        "change": shas["change"][:7],
        "machine": (
            f"{os.cpu_count()} CPUs; Python {platform.python_version()}, numpy {np.__version__}"
        ),
        "protocol": (
            f"ten plain pairs per workload, --seed {SEEDS[0]}-{SEEDS[-1]}, the parent first on even"
            " seeds and the change first on odd ones; one traced run per side per workload,"
            f" --seed {TRACED_SEED};"
            " one run at a time; each side run from its own export of its commit (git archive);"
            " quartiles by numpy.percentile (linear); made by tools/bench_pairs.py"
        ),
        "claim": args.claim,
        "result": args.result,
        "workloads": compare(roots, benchmark, seconds, log),
        "probe": probe(roots, log),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
