"""Grid-world scenarios for decentralised multi-agent experiments.

Three scenarios share one engine:

* ``jungle``    -- a single team forages. Standing 8-adjacent to a food cell
  pays +1 per step. Standing 8-adjacent to any other agent for three
  consecutive steps kills the agent (crowding is lethal).
* ``battle``    -- two teams fight. An agent dies the moment at least three
  living opponents occupy its 8-neighbourhood after movement. At episode end
  every agent of the team with more survivors receives +1, the other team -1,
  ties 0. A team going extinct ends the episode early.
* ``deception`` -- a home team and a lone adversary (count configurable) move
  among landmarks, one of which is the target. Rewards are terminal-only:
  home agents get +1 iff the adversary is not on the target and at least one
  home agent is, else -1; the adversary gets +1 iff it sits on the target.

Common rules: the grid is W x H with the origin at the top-left, x growing
right and y growing down. Walls and food cells block movement; landmarks do
not. Agents may share a cell. All moves resolve simultaneously, then kills,
then rewards. Illegal actions silently become Idle. Each agent sees a 3x3
patch of five channels centred on itself: wall/out-of-bounds, food, landmark,
own-team count, other-team count. The observer is excluded from its own
centre-cell count. In deception, home observers see the target landmark as
2.0 in the landmark channel; the adversary sees 1.0 like any landmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Iterator, Mapping, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, EpisodeFinished, UnknownAgent


class Action(IntEnum):
    """Movement actions, ordering fixed (ties resolve to the lowest value)."""

    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3
    IDLE = 4


N_ACTIONS = len(Action)

# (dx, dy) per action; y grows downward
MOVES = {
    Action.UP: (0, -1),
    Action.DOWN: (0, 1),
    Action.LEFT: (-1, 0),
    Action.RIGHT: (1, 0),
    Action.IDLE: (0, 0),
}

# observation channel indices
CH_WALL = 0
CH_FOOD = 1
CH_LANDMARK = 2
CH_OWN = 3
CH_OTHER = 4
N_CHANNELS = 5
OBS_CELLS = 9
OBS_SIZE = OBS_CELLS * N_CHANNELS

NEIGHBOURS_8 = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dx, dy) != (0, 0)]


class Scenario(str, Enum):
    JUNGLE = "jungle"
    BATTLE = "battle"
    DECEPTION = "deception"


DEFAULT_EPISODE_LIMIT = {
    Scenario.JUNGLE: 200,
    Scenario.BATTLE: 300,
    Scenario.DECEPTION: 100,
}


class Position(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class ScenarioConfig:
    """Static description of a world to build.

    ``agents`` means: total agents (jungle), agents per team (battle), or
    home-team agents (deception). ``adversaries`` applies to deception only.
    ``episode_limit`` of None picks the scenario default.
    """

    scenario: Scenario
    width: int
    height: int
    agents: int
    foods: int = 0
    landmarks: int = 0
    adversaries: int = 1
    walls: int = 0
    episode_limit: Optional[int] = None

    def team_sizes(self) -> list[int]:
        if self.scenario is Scenario.JUNGLE:
            return [self.agents]
        if self.scenario is Scenario.BATTLE:
            return [self.agents, self.agents]
        return [self.agents, self.adversaries]

    def limit(self) -> int:
        if self.episode_limit is not None:
            return self.episode_limit
        return DEFAULT_EPISODE_LIMIT[self.scenario]


@dataclass
class AgentState:
    id: int
    team: int
    pos: Position
    alive: bool = True
    streak: int = 0  # consecutive steps spent 8-adjacent to another agent


@dataclass
class StepOutcome:
    """Result of one simultaneous step.

    ``rewards`` is keyed by every agent that was alive when the step began
    (agents dying this step still receive their reward).
    """

    rewards: dict[int, float]
    deaths: list[int]
    done: bool


def validate_scenario(cfg: ScenarioConfig) -> None:
    """Raise ConfigError if ``cfg`` cannot be realized."""
    _validate(cfg)


def _validate(cfg: ScenarioConfig) -> None:
    if cfg.width < 3 or cfg.height < 3:
        raise ConfigError(f"grid must be at least 3x3, got {cfg.width}x{cfg.height}")
    if cfg.agents < 1:
        raise ConfigError("at least one agent is required")
    if cfg.walls < 0 or cfg.foods < 0 or cfg.landmarks < 0:
        raise ConfigError("entity counts must be non-negative")
    if cfg.scenario is not Scenario.JUNGLE and cfg.foods:
        raise ConfigError("foods exist only in the jungle scenario")
    if cfg.scenario is not Scenario.DECEPTION and cfg.landmarks:
        raise ConfigError("landmarks exist only in the deception scenario")
    if cfg.scenario is Scenario.DECEPTION:
        if cfg.landmarks < 1:
            raise ConfigError("deception needs at least one landmark")
        if cfg.adversaries < 1:
            raise ConfigError("deception needs at least one adversary")
    if cfg.episode_limit is not None and cfg.episode_limit < 1:
        raise ConfigError("episode_limit must be positive")
    need = cfg.walls + cfg.foods + cfg.landmarks + sum(cfg.team_sizes())
    have = cfg.width * cfg.height
    if need > have:
        raise ConfigError(
            f"{need} placed entities exceed the {have} cells of a "
            f"{cfg.width}x{cfg.height} grid"
        )


@dataclass
class GridWorld:
    """Mutable episode state; build via :func:`new_scenario`."""

    scenario: Scenario
    width: int
    height: int
    walls: frozenset[Position]
    foods: frozenset[Position]
    landmarks: tuple[Position, ...]
    target: int  # index into landmarks; -1 when there are none
    agents: list[AgentState]
    episode_limit: int
    time: int = 0
    finished: bool = False

    # -- basic queries ---------------------------------------------------

    def agent(self, agent_id: int) -> AgentState:
        if 0 <= agent_id < len(self.agents):
            a = self.agents[agent_id]
            if a.alive:
                return a
        raise UnknownAgent(f"no living agent with id {agent_id}")

    def alive_agents(self) -> Iterator[AgentState]:
        return (a for a in self.agents if a.alive)

    def num_alive(self, team: Optional[int] = None) -> int:
        return sum(1 for a in self.agents if a.alive and (team is None or a.team == team))

    def target_cell(self) -> Optional[Position]:
        return self.landmarks[self.target] if self.target >= 0 else None

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def blocked(self, x: int, y: int) -> bool:
        """Cells that cannot be entered: out-of-bounds, walls, foods."""
        if not self.in_bounds(x, y):
            return True
        cell = (x, y)  # a plain tuple hashes and compares equal to its Position
        return cell in self.walls or cell in self.foods

    # -- agent-facing interface ------------------------------------------

    def legal_actions(self, agent_id: int) -> list[Action]:
        a = self.agent(agent_id)
        out = []
        for act in Action:
            dx, dy = MOVES[act]
            if act is Action.IDLE or not self.blocked(a.pos.x + dx, a.pos.y + dy):
                out.append(act)
        return out

    def observe(self, agent_id: int) -> np.ndarray:
        """3x3x5 channel patch centred on the agent (row = dy+1, col = dx+1)."""
        me = self.agent(agent_id)
        patch = np.zeros((3, 3, N_CHANNELS), dtype=np.float64)
        tgt = self.target_cell()
        occupants: dict[Position, list[AgentState]] = {}
        for other in self.alive_agents():
            occupants.setdefault(other.pos, []).append(other)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                x, y = me.pos.x + dx, me.pos.y + dy
                cell = Position(x, y)
                row, col = dy + 1, dx + 1
                if not self.in_bounds(x, y) or cell in self.walls:
                    patch[row, col, CH_WALL] = 1.0
                    continue
                if cell in self.foods:
                    patch[row, col, CH_FOOD] = 1.0
                if cell in self.landmarks:
                    flag = 2.0 if (cell == tgt and me.team == 0) else 1.0
                    patch[row, col, CH_LANDMARK] = flag
                for other in occupants.get(cell, ()):
                    if other.id == me.id:
                        continue  # observer never counts itself
                    ch = CH_OWN if other.team == me.team else CH_OTHER
                    patch[row, col, ch] += 1.0
        return patch

    # -- dynamics ---------------------------------------------------------

    def step(self, joint: Mapping[int, int], rng: Optional[np.random.Generator] = None) -> StepOutcome:
        """Advance one tick. ``joint`` maps every living agent id to an action.

        ``rng`` is accepted for interface stability; the dynamics are fully
        deterministic. Raises EpisodeFinished once the episode has ended and
        UnknownAgent when ``joint`` keys do not match the living agents.
        """
        if self.finished:
            raise EpisodeFinished(f"episode ended at t={self.time}")
        movers = [a for a in self.alive_agents()]
        ids = {a.id for a in movers}
        extra = set(joint) - ids
        missing = ids - set(joint)
        if extra:
            raise UnknownAgent(f"actions supplied for non-living agents {sorted(extra)}")
        if missing:
            raise UnknownAgent(f"missing actions for living agents {sorted(missing)}")

        # simultaneous movement; illegal moves fall back to Idle
        for a in movers:
            act = Action(joint[a.id])
            dx, dy = MOVES[act]
            nx, ny = a.pos.x + dx, a.pos.y + dy
            if not self.blocked(nx, ny):
                a.pos = Position(nx, ny)

        occupants: dict[Position, list[AgentState]] = {}
        for a in movers:
            occupants.setdefault(a.pos, []).append(a)

        deaths = self._resolve_kills(movers, occupants)
        for a in deaths:
            a.alive = False
        self.time += 1

        done = self.time >= self.episode_limit
        if self.scenario is Scenario.JUNGLE:
            done = done or self.num_alive() <= 1
        elif self.scenario is Scenario.BATTLE:
            done = done or self.num_alive(0) == 0 or self.num_alive(1) == 0

        rewards = self._rewards(movers, done)
        self.finished = done
        return StepOutcome(
            rewards=rewards,
            deaths=sorted(a.id for a in deaths),
            done=done,
        )

    def _neighbours(self, pos: Position, occupants: dict[Position, list[AgentState]]) -> Iterator[AgentState]:
        for dx, dy in NEIGHBOURS_8:
            for other in occupants.get((pos.x + dx, pos.y + dy), ()):
                yield other

    def _resolve_kills(
        self, movers: list[AgentState], occupants: dict[Position, list[AgentState]]
    ) -> list[AgentState]:
        """Kill checks run on post-move positions; all deaths land together."""
        deaths: list[AgentState] = []
        if self.scenario is Scenario.JUNGLE:
            for a in movers:
                crowded = any(True for _ in self._neighbours(a.pos, occupants))
                a.streak = a.streak + 1 if crowded else 0
                if a.streak >= 3:
                    deaths.append(a)
        elif self.scenario is Scenario.BATTLE:
            for a in movers:
                foes = sum(1 for o in self._neighbours(a.pos, occupants) if o.team != a.team)
                if foes >= 3:
                    deaths.append(a)
        return deaths

    def _rewards(self, movers: list[AgentState], done: bool) -> dict[int, float]:
        rewards = {a.id: 0.0 for a in movers}
        if self.scenario is Scenario.JUNGLE:
            for a in movers:
                near_food = any(
                    (a.pos.x + dx, a.pos.y + dy) in self.foods for dx, dy in NEIGHBOURS_8
                )
                if near_food:
                    rewards[a.id] = 1.0
        elif self.scenario is Scenario.BATTLE and done:
            alive0, alive1 = self.num_alive(0), self.num_alive(1)
            if alive0 != alive1:
                winner = 0 if alive0 > alive1 else 1
                for a in movers:
                    rewards[a.id] = 1.0 if a.team == winner else -1.0
        elif self.scenario is Scenario.DECEPTION and done:
            tgt = self.target_cell()
            adv_on = any(a.pos == tgt for a in self.alive_agents() if a.team == 1)
            home_on = any(a.pos == tgt for a in self.alive_agents() if a.team == 0)
            home_r = 1.0 if (home_on and not adv_on) else -1.0
            for a in movers:
                if a.team == 0:
                    rewards[a.id] = home_r
                else:
                    rewards[a.id] = 1.0 if a.pos == tgt else -1.0
        return rewards


def new_scenario(cfg: ScenarioConfig, seed: int) -> GridWorld:
    """Build a world with entities placed uniformly on distinct free cells.

    Placement order (walls, foods, landmarks, agents team by team) is fixed so
    a given (config, seed) pair always yields the identical world.
    """
    _validate(cfg)
    rng = np.random.default_rng(seed)
    cells = [Position(x, y) for y in range(cfg.height) for x in range(cfg.width)]
    order = rng.permutation(len(cells))
    cursor = 0

    def take(n: int) -> list[Position]:
        nonlocal cursor
        out = [cells[order[i]] for i in range(cursor, cursor + n)]
        cursor += n
        return out

    walls = frozenset(take(cfg.walls))
    foods = frozenset(take(cfg.foods))
    landmarks = tuple(take(cfg.landmarks))
    target = int(rng.integers(len(landmarks))) if landmarks else -1

    agents: list[AgentState] = []
    for team, size in enumerate(cfg.team_sizes()):
        for pos in take(size):
            agents.append(AgentState(id=len(agents), team=team, pos=pos))

    return GridWorld(
        scenario=cfg.scenario,
        width=cfg.width,
        height=cfg.height,
        walls=walls,
        foods=foods,
        landmarks=landmarks,
        target=target,
        agents=agents,
        episode_limit=cfg.limit(),
    )
