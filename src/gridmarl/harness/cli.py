"""Command-line entry point.

Subcommands:

* ``train CONFIG``       -- run batches, write metrics.csv and checkpoints
* ``eval CKPT CONFIG``   -- frozen-policy episodes in greedy ensemble mode
* ``bench CONFIG``       -- wall-clock per training batch at several N
* ``render CKPT CONFIG`` -- dump per-step frame records and PPM images
* ``decompose CONFIG``   -- print one world's sub-graph decomposition

Every failure surfaces as a message on stderr and a nonzero exit code;
output directories are only created after the config has validated, so a
bad run leaves nothing behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Sequence

import numpy as np

from ..errors import GridmarlError
from ..graph import build_graph, decompose
from ..gridworld import new_scenario, validate_scenario
from ..rl.trainer import BatchMetrics, Trainer, evaluate, play_step
from .bench import bench_csv, format_bench_table, run_bench
from .config import RunConfig, load_run_config
from .frames import dump_record, frame_record, header_record, render_ppm
from .metrics import MetricsWriter
from .state import TrainerState, check_compat, load_state, save_state

CHECKPOINT_NAME = "checkpoint.gmrl"
METRICS_NAME = "metrics.csv"


def _summary_line(bm: BatchMetrics) -> str:
    win = "" if bm.win_rate is None else f" win {bm.win_rate:.2f}"
    sub = ""
    if bm.subgraph_count:
        sub = f" subgraphs {bm.subgraph_count:.1f} (mean size {bm.mean_subgraph_size:.2f})"
    return (
        f"batch {bm.batch} team {bm.team} reward {bm.mean_reward:.4f}{win}"
        f" lr {bm.lr:.5f} alive {bm.mean_alive:.1f} {bm.seconds:.2f}s{sub}"
    )


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.set)
    out = cfg.run.out_dir
    os.makedirs(out, exist_ok=True)
    trainer = Trainer(cfg.scenario, cfg.trainer, cfg.network, seed=cfg.run.seed)
    ckpt_path = os.path.join(out, CHECKPOINT_NAME)

    def checkpoint() -> None:
        save_state(
            ckpt_path, cfg.scenario, cfg.trainer, cfg.network, trainer.nets, trainer.batch_index
        )

    with MetricsWriter(os.path.join(out, METRICS_NAME), timing=cfg.run.timing) as mw:
        for b in range(cfg.run.batches):
            rows = trainer.train_batch()
            due = (b + 1) % cfg.run.metrics_every == 0 or b + 1 == cfg.run.batches
            for bm in rows:
                print(_summary_line(bm))
                if due:
                    mw.write(bm)
            if due:
                checkpoint()
    if cfg.run.batches == 0:
        checkpoint()
    print(f"wrote {os.path.join(out, METRICS_NAME)} and {ckpt_path}")
    return 0


def _load_for_eval(args: argparse.Namespace) -> tuple[RunConfig, TrainerState]:
    cfg = load_run_config(args.config, args.set)
    state = load_state(args.checkpoint)
    check_compat(state, cfg.trainer, cfg.network)
    return cfg, state


def cmd_eval(args: argparse.Namespace) -> int:
    cfg, state = _load_for_eval(args)
    scen = cfg.scenario
    if args.agents is not None:
        scen = dataclasses.replace(scen, agents=args.agents)
        validate_scenario(scen)
    if args.episodes == 0:
        print("no episodes requested; nothing to report")
        return 0
    random_teams = frozenset({1}) if args.opponent == "random" else frozenset()
    summary = evaluate(
        scen,
        state.nets,
        cfg.trainer,
        cfg.network,
        episodes=args.episodes,
        seed=args.seed if args.seed is not None else cfg.run.seed,
        mode="greedy",
        random_teams=random_teams,
    )
    for team in sorted(summary):
        row = summary[team]
        win = "-" if row["win_rate"] is None else f"{row['win_rate']:.4f}"
        opp = " (random policy)" if team in random_teams else ""
        print(
            f"team {team}: mean_reward {row['mean_reward']:.4f} win_rate {win} "
            f"mean_alive {row['mean_alive']:.2f} mean_steps {row['mean_steps']:.1f}{opp}"
        )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.set)
    counts = [int(c) for c in args.counts.split(",") if c.strip()]
    rows = run_bench(cfg, counts, episodes=args.episodes, limit=args.limit)
    print(format_bench_table(rows))
    if args.out is not None:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(bench_csv(rows))
        print(f"wrote {args.out}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    cfg, state = _load_for_eval(args)
    out = args.out if args.out is not None else os.path.join(cfg.run.out_dir, "frames")
    os.makedirs(out, exist_ok=True)
    frames_path = os.path.join(out, "frames.jsonl")
    n_frames = 0
    with open(frames_path, "w", encoding="utf-8") as fh:
        for e in range(args.episodes):
            ss = np.random.SeedSequence(entropy=cfg.run.seed, spawn_key=(5, e))
            world = new_scenario(cfg.scenario, int(ss.generate_state(1)[0]))
            rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.run.seed, spawn_key=(6, e)))
            if e == 0:
                fh.write(dump_record(header_record(world)) + "\n")
            t = 0
            while not world.finished:
                record = frame_record(world, t)
                render_ppm(world, os.path.join(out, f"ep{e:03d}_step{t:03d}.ppm"))
                outcome = play_step(
                    world, state.nets, cfg.trainer, cfg.network, rng, mode="greedy"
                )
                record["rewards"] = {str(k): outcome.rewards[k] for k in sorted(outcome.rewards)}
                fh.write(dump_record(record) + "\n")
                n_frames += 1
                t += 1
    print(f"wrote {n_frames} frame record(s) and image(s) under {out}")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.set)
    seed = args.seed if args.seed is not None else cfg.run.seed
    depth = args.depth if args.depth is not None else cfg.trainer.depth
    world = new_scenario(cfg.scenario, seed)
    g = build_graph(world)
    sgs = decompose(g, depth, cfg.network.delta_d, cfg.network.n_max)
    print(
        f"world {world.width}x{world.height} {world.scenario.value} seed {seed}: "
        f"{len(g.ids)} agents, {len(sgs)} sub-graphs (depth {depth})"
    )
    for sg in sgs:
        members = ", ".join(str(int(m)) for m in sg.members)
        ends = np.sort(sg.members[np.stack([sg.edge_src, sg.edge_dst], axis=1)], axis=1)
        dist_of = {(int(a), int(b)): d for (a, b), d in zip(ends, sg.edge_dist)}
        edges = ", ".join(f"({a},{b}) d={d:.2f}" for (a, b), d in sorted(dist_of.items()))
        print(f"sub-graph centre {sg.centre}: members [{members}] edges [{edges}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmarl",
        description="Decentralized multi-agent RL on grid-world interaction graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="YAML run configuration")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="BLOCK.KEY=VALUE",
            help="override a config value (repeatable)",
        )

    p = sub.add_parser("train", help="train per the config and write metrics/checkpoints")
    add_config(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run frozen-policy episodes from a checkpoint")
    p.add_argument("checkpoint")
    add_config(p)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--agents", type=int, default=None, help="override the agent count")
    p.add_argument(
        "--opponent",
        choices=("trained", "random"),
        default="trained",
        help="play team 1 with its trained policy or uniform-random actions",
    )
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time training batches at several agent counts")
    add_config(p)
    p.add_argument("--counts", default="10,100,1000,10000", help="comma-separated agent counts")
    p.add_argument("--episodes", type=int, default=100, help="episodes per timed batch")
    p.add_argument("--limit", type=int, default=None, help="episode step limit override")
    p.add_argument("--out", default=None, help="also write the table as CSV here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="dump frame records and PPM images")
    p.add_argument("checkpoint")
    add_config(p)
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--out", default=None, help="frame directory (default: out_dir/frames)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("decompose", help="print one world's sub-graph decomposition")
    add_config(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridmarlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
