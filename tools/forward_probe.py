"""Measure the policy forward of one large team part, the A10 training parts, the sweep and a batch.

Usage, from the root of a checkout:

    python3 tools/forward_probe.py [--src DIR]

``--src`` is the source tree to import ``gridmarl`` from (default: this
checkout's ``src``), so that an export of another commit can be measured
with the same script. It prints one JSON object:

* ``forward``: for team 0's part of the first step of ``eval-battle4k``
  (A10's evaluation world scaled to 2000 agents per team, depth 2, hidden
  8, one round), the tracemalloc peak and the median time of 50 calls of
  ``policy_logprobs(batch_subgraphs(dec), policy)``; the sizes of the
  batch and, where the batch has a shared part, of the trunk the forward
  evaluates and the same two figures with the shared part dropped (each
  sub-graph on its own);
* ``a10``: microseconds per team part of ``decompose``, of
  ``batch_subgraphs``, of the batch and the forward, and of all three, on
  A10's training world (Battle 10x10, 14 per team; eight worlds at their
  start, seeds 0-7, both teams; depth 2, hidden 8, one round), each the
  minimum of 15 repeats of 20 calls;
* ``sweep``: for the largest sweep call of the first ``train-battle14``
  batch (A10's training world, graph-ac, seed 0, eight episodes, depth 2,
  hidden 8, one round: sixteen (episode, team) records) and of one episode
  at the network defaults (the same world and seed, depth 3, hidden 64, two
  rounds), the tracemalloc peak and the median time of
  ``sweep_values(Entries(dec, executed), critic)`` on the record with the
  most member rows, with its sub-graphs and member rows; and the median
  time of all the sweep calls (sixteen for the batch, two for the episode);
* ``batch``: the tracemalloc peak of one ``Trainer.train_batch()`` of a
  fresh trainer on A10's training world (graph-ac, seed 0, depth 2, hidden
  8, one round) at 8 and at 100 episodes, and the second over the first.

``gridmarl`` runs BLAS on one thread. tracemalloc peaks are deterministic;
the times are not, so compare two trees in alternating runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import timeit
import tracemalloc
from pathlib import Path


def peak_mib(forward) -> float:
    tracemalloc.start()
    try:
        forward()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def median_ms(forward, calls: int = 50) -> float:
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        forward()
        times.append(time.perf_counter() - t0)
    return round(1e3 * sorted(times)[calls // 2], 2)


def largest_sweep(batch_episodes: int, depth: int, net: dict, calls: int) -> dict:
    """The figures of ``sweep`` above for the first batch of a fresh A10 trainer."""
    from gridmarl.gridworld import Scenario, ScenarioConfig
    from gridmarl.rl.trainer import (
        Entries, NetConfig, Trainer, TrainerConfig, sweep_values, team_transitions,
    )

    cfg = ScenarioConfig(Scenario.BATTLE, 10, 10, agents=14, episode_limit=30)
    tcfg = TrainerConfig(algorithm="graph-ac", depth=depth, batch_episodes=batch_episodes)
    trainer = Trainer(cfg, tcfg, NetConfig(**net), seed=0)
    episodes = [trainer._episode(0, e) for e in range(batch_episodes)]
    records = [
        (team_transitions(ep.steps, trainer.team, t), trainer.nets[t].critic)
        for ep in episodes for t in trainer.teams
    ]
    records = [(Entries(tr.dec, tr.executed), critic) for tr, critic in records if len(tr)]
    entries, critic = max(records, key=lambda r: int(r[0].dec.offsets[-1]))
    call = lambda: sweep_values(entries, critic)  # noqa: E731
    return {
        "subgraphs": len(entries),
        "member_rows": int(entries.dec.offsets[-1]),
        "peak_mib": peak_mib(call),
        "median_ms": median_ms(call, calls),
        "all_calls_median_ms": median_ms(
            lambda: [sweep_values(e, c) for e, c in records], max(calls // 5, 3)
        ),
    }


def batch_peaks() -> dict:
    """The figures of ``batch`` above."""
    from gridmarl.gridworld import Scenario, ScenarioConfig
    from gridmarl.rl.trainer import NetConfig, Trainer, TrainerConfig

    cfg = ScenarioConfig(Scenario.BATTLE, 10, 10, agents=14, episode_limit=30)
    out = {}
    for episodes in (8, 100):
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2, batch_episodes=episodes)
        trainer = Trainer(cfg, tcfg, NetConfig(hidden=8, rounds=1), seed=0)
        out[f"episodes_{episodes}_peak_mib"] = peak_mib(trainer.train_batch)
    out["peak_ratio_100_to_8"] = round(out["episodes_100_peak_mib"] / out["episodes_8_peak_mib"], 3)
    return out


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)

    import numpy as np

    from gridmarl.graph import DEFAULT_N_MAX, VERTEX_DIM, build_graph, decompose
    from gridmarl.gridworld import N_ACTIONS, Scenario, ScenarioConfig, new_scenario
    from gridmarl.harness.bench import scaled_scenario
    from gridmarl.nn import network
    from gridmarl.nn.network import batch_subgraphs, policy_logprobs
    from gridmarl.nn.params import new_graph_net

    policy = new_graph_net(np.random.default_rng(0), VERTEX_DIM, 8, DEFAULT_N_MAX, N_ACTIONS, 1)

    base = ScenarioConfig(Scenario.BATTLE, 14, 14, agents=28, episode_limit=30)
    world = new_scenario(scaled_scenario(base, 2000, limit=10), 0)
    g = build_graph(world)
    dec = decompose(g, 2, centres=np.flatnonzero(world.team[g.ids] == 0))
    batch = batch_subgraphs(dec)
    split = lambda: policy_logprobs(batch_subgraphs(dec), policy)  # noqa: E731
    forward = {
        "centres": len(dec),
        "member_rows": len(batch.rows),
        "edges": len(batch.edge_src),
        "peak_mib": peak_mib(split),
        "median_ms": median_ms(split),
    }
    if getattr(batch, "shared", None) is not None:
        lay = network._trunk(batch, len(policy.rounds))
        local = lambda: policy_logprobs(  # noqa: E731
            dataclasses.replace(batch_subgraphs(dec), shared=None), policy
        )
        forward.update(
            trunk_vertices=len(lay.rows),
            trunk_edges=len(lay.src),
            graph_vertices=batch.shared.n,
            graph_edges=len(batch.shared.src),
            all_local_peak_mib=peak_mib(local),
            all_local_median_ms=median_ms(local),
        )

    cfg = ScenarioConfig(Scenario.BATTLE, 10, 10, agents=14, episode_limit=30)
    graphs = [(build_graph(w), w.team) for w in (new_scenario(cfg, s) for s in range(8))]
    parts = [(gr, np.flatnonzero(team[gr.ids] == t)) for gr, team in graphs for t in (0, 1)]
    decs = [decompose(gr, 2, centres=c) for gr, c in parts]
    steps = {
        "decompose": lambda: [decompose(gr, 2, centres=c) for gr, c in parts],
        "batch": lambda: [batch_subgraphs(d) for d in decs],
        "batch_forward": lambda: [policy_logprobs(batch_subgraphs(d), policy) for d in decs],
        "all": lambda: [
            policy_logprobs(batch_subgraphs(decompose(gr, 2, centres=c)), policy) for gr, c in parts
        ],
    }
    a10 = {
        name: round(1e6 * min(timeit.repeat(f, number=20, repeat=15)) / 20 / len(parts), 1)
        for name, f in steps.items()
    }
    sweep = {
        "train_battle14_batch": largest_sweep(8, 2, {"hidden": 8, "rounds": 1}, 50),
        "defaults_episode": largest_sweep(1, 3, {}, 7),
    }
    result = {"forward": forward, "a10_us_per_team_part": a10, "sweep": sweep, "batch": batch_peaks()}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
