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

The world owns the grid's cell layout. At construction it derives padded
static boards, (height + 2) x (width + 2) with a one-cell border, from its
fixed fields: the cells an agent may enter, and the wall/out-of-bounds,
food, landmark and target channels. Cell (x, y) is board[y + 1, x + 1], so
:func:`window` gathers any cell's 3x3 window with no bounds handling. A step
reads all its rules from these boards and one per-team count of agents per
cell, for every agent at once.

The world also owns its agents' state, as arrays indexed by agent id:
``team``, ``pos`` (x then y), ``alive`` and ``streak``. An
:class:`AgentState` is a view of one id's entries, so reading or writing
through it reads or writes the world's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

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

# (dx, dy) per action, in action order
_MOVE_XY = np.array([MOVES[a] for a in Action], dtype=np.int64)
# padded-board offsets of a 3x3 window, row = dy + 1, col = dx + 1
_WIN_ROW, _WIN_COL = np.mgrid[0:3, 0:3]
# weights of the window's cells, row-major: the ring is the eight outer ones
_RING = np.array([1, 1, 1, 1, 0, 1, 1, 1, 1])


def window(board: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 3x3 windows of a padded board around the cells (x, y).

    ``board`` may carry leading axes; the result has shape
    ``board.shape[:-2] + (len(x), 3, 3)``, indexed row = dy + 1, col = dx + 1.
    """
    return board[..., y[:, None, None] + _WIN_ROW, x[:, None, None] + _WIN_COL]


def _ring(board: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sums over the eight cells around each cell (x, y), its own excluded."""
    win = window(board, x, y)
    return win.reshape(win.shape[:-2] + (9,)) @ _RING


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


def _agent_field(k: int, cast: Callable) -> property:
    """Entry ``id`` of the view's k-th array, read as ``cast`` and written through."""
    return property(
        lambda a: cast(a.arrays[k][a.id]),
        lambda a, v: a.arrays[k].__setitem__(a.id, v),
    )


class AgentState:
    """One agent of a world: a view of its entries in the world's per-id arrays.

    A view holds the arrays rather than the world, so a world and its views
    form no reference cycle and a dropped world is freed at once.
    """

    __slots__ = ("arrays", "id")

    def __init__(self, arrays: tuple[np.ndarray, ...], agent_id: int):
        self.arrays = arrays  # the world's team, pos, alive and streak
        self.id = agent_id

    team = _agent_field(0, int)
    pos = _agent_field(1, lambda p: Position(*p.tolist()))
    alive = _agent_field(2, bool)
    streak = _agent_field(3, int)  # consecutive steps spent 8-adjacent to another agent


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


@dataclass(eq=False)
class GridWorld:
    """Mutable episode state; build via :func:`new_scenario`.

    The padded boards are derived from the fixed fields at construction; to
    change a fixed field, build a new world (``dataclasses.replace``). The
    agent arrays are copied in, so a world never shares them with another,
    and are only written in place, so its views keep seeing them.
    """

    scenario: Scenario
    width: int
    height: int
    walls: frozenset[Position]
    foods: frozenset[Position]
    landmarks: tuple[Position, ...]
    target: int  # index into landmarks; -1 when there are none
    # per agent id
    team: np.ndarray    # (n,) int
    pos: np.ndarray     # (n, 2) int, x then y
    alive: np.ndarray   # (n,) bool
    streak: np.ndarray  # (n,) int, see AgentState
    episode_limit: int
    time: int = 0
    finished: bool = False
    agents: list[AgentState] = field(init=False, repr=False)  # views, by id
    # padded static boards, see the module docstring
    enterable: np.ndarray = field(init=False, repr=False)  # bool
    wall_board: np.ndarray = field(init=False, repr=False)  # walls and the border
    food_board: np.ndarray = field(init=False, repr=False)
    landmark_board: np.ndarray = field(init=False, repr=False)
    target_board: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.team = np.array(self.team, dtype=np.int64)
        self.pos = np.array(self.pos, dtype=np.int64).reshape(-1, 2)
        self.alive = np.array(self.alive, dtype=bool)
        self.streak = np.array(self.streak, dtype=np.int64)
        arrays = (self.team, self.pos, self.alive, self.streak)
        self.agents = [AgentState(arrays, i) for i in range(len(self.team))]

        def board(cells) -> np.ndarray:
            out = np.zeros((self.height + 2, self.width + 2))
            for p in cells:
                out[p.y + 1, p.x + 1] = 1.0
            return out

        self.wall_board = board(self.walls)
        self.wall_board[[0, -1], :] = 1.0
        self.wall_board[:, [0, -1]] = 1.0
        self.food_board = board(self.foods)
        self.landmark_board = board(self.landmarks)
        tgt = self.target_cell()
        self.target_board = board([tgt] if tgt is not None else [])
        self.enterable = (self.wall_board + self.food_board) == 0.0

    # -- basic queries ---------------------------------------------------

    def agent(self, agent_id: int) -> AgentState:
        if 0 <= agent_id < len(self.agents) and self.alive[agent_id]:
            return self.agents[agent_id]
        raise UnknownAgent(f"no living agent with id {agent_id}")

    def alive_agents(self) -> Iterator[AgentState]:
        return map(self.agents.__getitem__, np.flatnonzero(self.alive).tolist())

    def num_alive(self, team: Optional[int] = None) -> int:
        return int(np.count_nonzero(self.alive if team is None else self.alive & (self.team == team)))

    def target_cell(self) -> Optional[Position]:
        return self.landmarks[self.target] if self.target >= 0 else None

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def blocked(self, x: int, y: int) -> bool:
        """Cells that cannot be entered: out-of-bounds, walls, foods."""
        return not (self.in_bounds(x, y) and self.enterable[y + 1, x + 1])

    def wins(self) -> dict[int, float]:
        """Per team, 1.0 if it wins the episode as the world stands, else 0.0.

        Battle: the team with more survivors wins; a tie wins for neither.
        Deception: the home team wins when one of its agents and no adversary
        is on the target, the adversaries when any of them is. Empty for
        jungle, which has no winner.
        """
        if self.scenario is Scenario.BATTLE:
            alive0, alive1 = self.num_alive(0), self.num_alive(1)
            return {0: float(alive0 > alive1), 1: float(alive1 > alive0)}
        if self.scenario is Scenario.DECEPTION:
            on = self.alive & (self.pos == self.target_cell()).all(axis=1)
            home, adversary = (bool(on[self.team == t].any()) for t in (0, 1))
            return {0: float(home and not adversary), 1: float(adversary)}
        return {}

    # -- agent-facing interface ------------------------------------------

    def legal_actions(self, agent_id: int) -> list[Action]:
        """The actions a living agent may take that :meth:`coerce` leaves unchanged."""
        self.agent(agent_id)  # raises unless the agent is alive
        acts = np.arange(N_ACTIONS)
        kept = self.coerce(np.full(N_ACTIONS, agent_id), acts) == acts
        return [Action(a) for a in acts[kept].tolist()]

    def coerce(self, ids: np.ndarray, acts: np.ndarray) -> np.ndarray:
        """The actions the world carries out when agents ``ids`` choose ``acts``.

        A move into a cell that cannot be entered becomes Idle.
        """
        to = self.pos[ids] + _MOVE_XY[acts]
        return np.where(self.enterable[to[:, 1] + 1, to[:, 0] + 1], acts, int(Action.IDLE))

    def observe(self, agent_id: int) -> np.ndarray:
        """3x3x5 channel patch centred on the agent (row = dy+1, col = dx+1).

        A per-agent reference for the vectorised features in ``graph``.
        """
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

    def occupancy(self, x: np.ndarray, y: np.ndarray, team: np.ndarray) -> np.ndarray:
        """Padded (2, height + 2, width + 2) count of agents per team and cell."""
        counts = np.zeros((2, self.height + 2, self.width + 2), dtype=np.int64)
        np.add.at(counts, (team, y + 1, x + 1), 1)
        return counts

    # -- dynamics ---------------------------------------------------------

    def step(self, joint: Mapping[int, int], rng: Optional[np.random.Generator] = None) -> StepOutcome:
        """Advance one tick. ``joint`` maps every living agent id to an action.

        ``rng`` is accepted for interface stability; the dynamics are fully
        deterministic. Raises EpisodeFinished once the episode has ended and
        UnknownAgent when ``joint`` keys do not match the living agents.
        """
        if self.finished:
            raise EpisodeFinished(f"episode ended at t={self.time}")
        ids = np.flatnonzero(self.alive)
        living = set(ids.tolist())
        extra = set(joint) - living
        missing = living - set(joint)
        if extra:
            raise UnknownAgent(f"actions supplied for non-living agents {sorted(extra)}")
        if missing:
            raise UnknownAgent(f"missing actions for living agents {sorted(missing)}")

        acts = np.fromiter(map(joint.__getitem__, ids.tolist()), dtype=np.int64, count=len(ids))
        if ((acts < 0) | (acts >= N_ACTIONS)).any():
            raise ValueError(f"actions must lie in 0..{N_ACTIONS - 1}")

        # simultaneous movement; illegal moves fall back to Idle
        self.pos[ids] += _MOVE_XY[self.coerce(ids, acts)]
        x, y = self.pos[ids].T
        team = self.team[ids]

        # kills on post-move positions; all deaths land together
        near = _ring(self.occupancy(x, y, team), x, y)  # (2, n) neighbours per team
        dead = np.zeros(len(ids), dtype=bool)
        if self.scenario is Scenario.JUNGLE:
            streak = np.where(near.sum(axis=0) > 0, self.streak[ids] + 1, 0)
            self.streak[ids] = streak
            dead = streak >= 3
        elif self.scenario is Scenario.BATTLE:
            dead = near[1 - team, np.arange(len(ids))] >= 3
        self.alive[ids[dead]] = False
        self.time += 1

        alive = np.bincount(team[~dead], minlength=2)  # per team
        done = self.time >= self.episode_limit
        if self.scenario is Scenario.JUNGLE:
            done = done or bool(alive.sum() <= 1)
        elif self.scenario is Scenario.BATTLE:
            done = done or bool(alive.min() == 0)

        rewards = self._rewards(x, y, team, done)
        self.finished = done
        return StepOutcome(
            rewards=dict(zip(ids.tolist(), rewards.tolist())),
            deaths=ids[dead].tolist(),
            done=done,
        )

    def _rewards(self, x: np.ndarray, y: np.ndarray, team: np.ndarray, done: bool) -> np.ndarray:
        """Each mover's reward, from its post-move cell and team."""
        if self.scenario is Scenario.JUNGLE:
            return (_ring(self.food_board, x, y) > 0).astype(np.float64)
        won = self.wins() if done else {}
        if self.scenario is Scenario.BATTLE and any(won.values()):
            return np.where(team == (0 if won[0] else 1), 1.0, -1.0)
        if self.scenario is Scenario.DECEPTION and done:
            on_target = self.target_board[y + 1, x + 1] > 0
            # home agents share their team's result; an adversary scores by its own cell
            return np.where(team == 0, 1.0 if won[0] else -1.0, np.where(on_target, 1.0, -1.0))
        return np.zeros(len(x))


def new_scenario(cfg: ScenarioConfig, seed: int) -> GridWorld:
    """Build a world with entities placed uniformly on distinct free cells.

    Placement order (walls, foods, landmarks, agents team by team) is fixed so
    a given (config, seed) pair always yields the identical world.
    """
    validate_scenario(cfg)
    rng = np.random.default_rng(seed)
    cells = [Position(x, y) for y in range(cfg.height) for x in range(cfg.width)]
    free = iter([cells[i] for i in rng.permutation(len(cells))])

    def take(n: int) -> list[Position]:
        return [next(free) for _ in range(n)]

    walls = frozenset(take(cfg.walls))
    foods = frozenset(take(cfg.foods))
    landmarks = tuple(take(cfg.landmarks))
    target = int(rng.integers(len(landmarks))) if landmarks else -1

    sizes = cfg.team_sizes()
    n = sum(sizes)

    return GridWorld(
        scenario=cfg.scenario,
        width=cfg.width,
        height=cfg.height,
        walls=walls,
        foods=foods,
        landmarks=landmarks,
        target=target,
        team=np.repeat(np.arange(len(sizes)), sizes),
        pos=take(n),
        alive=np.ones(n, dtype=bool),
        streak=np.zeros(n, dtype=np.int64),
        episode_limit=cfg.limit(),
    )
