"""Wall-clock scaling benchmark: update a fixed episode budget at several N.

For each requested agent count the grid is re-sized so the agents-per-cell
density (and the food-per-agent ratio) of the base config is preserved, and
one training batch is timed around its rollout-and-update loop. Each
episode's world is built when the episode starts, so the batch holds one
world at a time, and the time spent building it is taken off the batch's.
Reported seconds therefore exclude environment construction.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import ConfigError, ResourceError
from ..gridworld import GridWorld, ScenarioConfig, validate_scenario
from ..rl.trainer import Trainer, episode_world
from .config import RunConfig

BENCH_COLUMNS = ("agents", "total_agents", "width", "height", "episodes", "seconds")


@dataclass(frozen=True)
class BenchRow:
    agents: int        # the requested N (per-team for team scenarios)
    total_agents: int
    width: int
    height: int
    episodes: int
    seconds: float


def scaled_scenario(base: ScenarioConfig, n: int, limit: Optional[int] = None) -> ScenarioConfig:
    """Resize the base scenario to ``n`` agents at unchanged density."""
    if n < 1:
        raise ConfigError(f"agent counts must be at least 1, got {n}")
    base_total = sum(base.team_sizes())
    density = base_total / (base.width * base.height)
    food_ratio = base.foods / base.agents
    wall_ratio = base.walls / base.agents
    scaled = dataclasses.replace(
        base,
        agents=n,
        foods=round(n * food_ratio),
        walls=round(n * wall_ratio),
        episode_limit=limit if limit is not None else base.episode_limit,
    )
    side = max(3, math.ceil(math.sqrt(sum(scaled.team_sizes()) / density)))
    while True:
        candidate = dataclasses.replace(scaled, width=side, height=side)
        need = candidate.walls + candidate.foods + candidate.landmarks + sum(
            candidate.team_sizes()
        )
        if need <= side * side:
            validate_scenario(candidate)
            return candidate
        side += 1


def dedupe_counts(counts: Sequence[int]) -> list[int]:
    """Drop repeated N values, warning on stderr about each duplicate."""
    seen: set[int] = set()
    out: list[int] = []
    for n in counts:
        if n in seen:
            print(f"warning: duplicate agent count {n} ignored", file=sys.stderr)
            continue
        seen.add(n)
        out.append(n)
    return out


def run_bench(
    cfg: RunConfig,
    counts: Sequence[int],
    episodes: int = 100,
    limit: Optional[int] = None,
) -> list[BenchRow]:
    """Time one training batch of ``episodes`` episodes per agent count."""
    if episodes < 1:
        raise ConfigError("bench needs at least one episode")
    counts = dedupe_counts(counts)
    if not counts:
        raise ConfigError("no agent counts to benchmark")
    rows: list[BenchRow] = []
    for n in counts:
        scen = scaled_scenario(cfg.scenario, n, limit)
        tcfg = dataclasses.replace(cfg.trainer, batch_episodes=episodes)
        try:
            worlds = _TimedWorlds(scen, cfg.run.seed)
            trainer = Trainer(scen, tcfg, cfg.network, seed=cfg.run.seed, world_factory=worlds)
            metrics = trainer.train_batch()
        except MemoryError as e:
            raise ResourceError(f"agent count {n} exceeded available memory") from e
        rows.append(
            BenchRow(
                agents=n,
                total_agents=sum(scen.team_sizes()),
                width=scen.width,
                height=scen.height,
                episodes=episodes,
                seconds=metrics[0].seconds - worlds.seconds,
            )
        )
    return rows


class _TimedWorlds:
    """A world factory that builds each episode's world as :class:`Trainer`
    would, and sums the seconds spent building."""

    def __init__(self, scen: ScenarioConfig, seed: int):
        self.scen = scen
        self.seed = seed
        self.seconds = 0.0

    def __call__(self, batch: int, ep: int) -> GridWorld:
        t0 = time.perf_counter()
        world = episode_world(self.scen, self.seed, batch, ep)
        self.seconds += time.perf_counter() - t0
        return world


def format_bench_table(rows: Sequence[BenchRow]) -> str:
    header = f"{'agents':>8} {'total':>8} {'grid':>11} {'episodes':>9} {'seconds':>10}"
    lines = [header]
    for r in rows:
        grid = f"{r.width}x{r.height}"
        lines.append(
            f"{r.agents:>8} {r.total_agents:>8} {grid:>11} {r.episodes:>9} {r.seconds:>10.3f}"
        )
    return "\n".join(lines)


def bench_csv(rows: Sequence[BenchRow]) -> str:
    lines = [",".join(BENCH_COLUMNS)]
    for r in rows:
        lines.append(
            f"{r.agents},{r.total_agents},{r.width},{r.height},{r.episodes},{repr(r.seconds)}"
        )
    return "\n".join(lines) + "\n"
