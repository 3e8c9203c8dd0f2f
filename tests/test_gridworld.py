"""World construction, observation channels, movement, and scenario rules."""

import copy

import numpy as np
import pytest

from gridmarl import (
    Action,
    ConfigError,
    EpisodeFinished,
    GridWorld,
    Position,
    Scenario,
    ScenarioConfig,
    UnknownAgent,
    new_scenario,
)
from gridmarl.graph import build_graph
from gridmarl.gridworld import (
    CH_FOOD,
    CH_LANDMARK,
    CH_OTHER,
    CH_OWN,
    CH_WALL,
    DEFAULT_EPISODE_LIMIT,
    MOVES,
    N_ACTIONS,
    N_CHANNELS,
    StepOutcome,
)


def jungle(w=7, h=7, agents=4, foods=2, seed=0, limit=None, walls=0):
    cfg = ScenarioConfig(
        scenario=Scenario.JUNGLE, width=w, height=h, agents=agents, foods=foods,
        walls=walls, episode_limit=limit,
    )
    return new_scenario(cfg, seed)


def battle(w=7, h=7, agents=3, seed=0, limit=None):
    cfg = ScenarioConfig(
        scenario=Scenario.BATTLE, width=w, height=h, agents=agents, episode_limit=limit
    )
    return new_scenario(cfg, seed)


def deception(w=7, h=7, agents=3, landmarks=3, adversaries=1, seed=0, limit=None):
    cfg = ScenarioConfig(
        scenario=Scenario.DECEPTION, width=w, height=h, agents=agents,
        landmarks=landmarks, adversaries=adversaries, episode_limit=limit,
    )
    return new_scenario(cfg, seed)


def place(world: GridWorld, assignments):
    """Teleport agents for hand-built situations: {id: (x, y)}."""
    for aid, (x, y) in assignments.items():
        world.agents[aid].pos = Position(x, y)


def idle_joint(world: GridWorld):
    return {a.id: Action.IDLE for a in world.alive_agents()}


def list_new_scenario(cfg: ScenarioConfig, seed: int) -> GridWorld:
    """Reference placement: one Position per cell, taken in permutation order."""
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


class TestConstruction:
    def test_all_entities_on_distinct_cells(self):
        for seed in range(20):
            w = jungle(w=5, h=5, agents=8, foods=4, walls=3, seed=seed)
            cells = list(w.walls) + list(w.foods) + [a.pos for a in w.agents]
            assert len(cells) == len(set(cells))

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(Scenario.JUNGLE, 9, 7, agents=12, foods=5, walls=4),
        ScenarioConfig(Scenario.BATTLE, 8, 9, agents=10, walls=6),
        ScenarioConfig(Scenario.DECEPTION, 7, 6, agents=4, landmarks=3, adversaries=2, walls=3),
    ], ids=lambda cfg: cfg.scenario.value)
    def test_matches_the_list_placement(self, cfg):
        boards = ("enterable", "wall_board", "food_board", "landmark_board", "target_board")
        for seed in range(20):
            got, want = new_scenario(cfg, seed), list_new_scenario(cfg, seed)
            assert (got.walls, got.foods, got.landmarks, got.target) == (
                want.walls, want.foods, want.landmarks, want.target
            )
            assert all(type(c) is int for p in got.landmarks for c in p)
            assert got.pos.dtype == want.pos.dtype and np.array_equal(got.pos, want.pos)
            assert np.array_equal(got.team, want.team)
            for name in boards:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_same_seed_same_world(self):
        a, b = jungle(seed=11), jungle(seed=11)
        assert a.walls == b.walls and a.foods == b.foods
        assert [x.pos for x in a.agents] == [x.pos for x in b.agents]

    def test_team_assignment_and_ids(self):
        w = battle(agents=3)
        assert [a.id for a in w.agents] == list(range(6))
        assert [a.team for a in w.agents] == [0, 0, 0, 1, 1, 1]
        d = deception(agents=3, adversaries=2)
        assert [a.team for a in d.agents] == [0, 0, 0, 1, 1]

    def test_deception_has_target(self):
        d = deception(seed=4)
        assert d.target_cell() in d.landmarks

    def test_default_limits(self):
        assert jungle().episode_limit == DEFAULT_EPISODE_LIMIT[Scenario.JUNGLE] == 200
        assert battle().episode_limit == 300
        assert deception().episode_limit == 100

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            new_scenario(ScenarioConfig(Scenario.JUNGLE, 2, 5, agents=1), 0)
        with pytest.raises(ConfigError):
            new_scenario(ScenarioConfig(Scenario.BATTLE, 5, 5, agents=20), 0)
        with pytest.raises(ConfigError):
            new_scenario(ScenarioConfig(Scenario.BATTLE, 5, 5, agents=2, foods=1), 0)
        with pytest.raises(ConfigError):
            new_scenario(ScenarioConfig(Scenario.JUNGLE, 5, 5, agents=2, landmarks=1), 0)
        with pytest.raises(ConfigError):
            new_scenario(ScenarioConfig(Scenario.DECEPTION, 5, 5, agents=2, landmarks=0), 0)
        with pytest.raises(ConfigError):
            new_scenario(ScenarioConfig(Scenario.JUNGLE, 5, 5, agents=2, episode_limit=0), 0)


class TestAgentViews:
    def test_writes_reach_the_world_and_copies_stay_apart(self):
        w = jungle(w=6, h=6, agents=3, foods=0, seed=2, limit=10)
        assert w.agents[1] is w.agents[1]
        # agents 0 and 1 side by side, 1 two crowded steps in, 2 dead
        w.agents[0].pos = Position(2, 2)
        w.agents[1].pos = Position(3, 2)
        w.agents[1].streak = 2
        w.agents[2].alive = False
        g = build_graph(w)
        assert g.ids.tolist() == [0, 1] and g.edges.tolist() == [[0, 1]]
        out = w.step({0: Action.DOWN, 1: Action.IDLE})
        assert out.deaths == [1]  # its third crowded step
        a = w.agents[0]
        assert (a.pos, a.alive, a.streak) == ((2, 3), True, 1)
        got = (a.team, a.pos.x, a.pos.y, a.alive, a.streak)
        assert [type(v) for v in got] == [int, int, int, bool, int]

        twin = copy.deepcopy(w)
        assert all(t.arrays[1] is twin.pos for t in twin.agents)
        twin.agents[0].pos = Position(5, 5)
        twin.agents[0].streak = 0
        twin.agents[1].alive = True
        assert (a.pos, a.streak, w.agents[1].alive) == ((2, 3), 1, False)
        assert w.pos.tolist()[:2] == [[2, 3], [3, 2]] and twin.num_alive() == 2


class TestObservation:
    def test_patch_shape_and_wall_channel(self):
        w = jungle(w=5, h=5, agents=1, foods=0, seed=3)
        place(w, {0: (0, 0)})
        obs = w.observe(0)
        assert obs.shape == (3, 3, N_CHANNELS)
        # top row and left column lie outside the grid
        assert obs[0, :, CH_WALL].tolist() == [1, 1, 1]
        assert obs[:, 0, CH_WALL].tolist() == [1, 1, 1]
        assert obs[1, 1, CH_WALL] == 0

    def test_observer_not_counted_in_own_channel(self):
        w = jungle(w=5, h=5, agents=2, foods=0, seed=1)
        place(w, {0: (2, 2), 1: (2, 2)})
        obs = w.observe(0)
        assert obs[1, 1, CH_OWN] == 1.0  # only the co-located teammate
        assert obs[1, 1, CH_OTHER] == 0.0

    def test_food_and_other_team_channels(self):
        w = battle(w=5, h=5, agents=2, seed=2)
        place(w, {0: (2, 2), 1: (4, 4), 2: (3, 2), 3: (4, 0)})
        obs = w.observe(0)
        # agent 2 (team 1) east of the observer; both teammates out of the patch
        assert obs[1, 2, CH_OTHER] == 1.0
        assert obs[:, :, CH_OWN].sum() == 0.0

    def test_deception_target_flag_sides(self):
        d = deception(w=7, h=7, agents=2, landmarks=2, seed=5)
        tgt = d.target_cell()
        home, adv = d.agents[0], d.agents[-1]
        place(d, {home.id: (tgt.x, tgt.y), adv.id: (tgt.x, tgt.y)})
        home_obs = d.observe(home.id)
        adv_obs = d.observe(adv.id)
        assert home_obs[1, 1, CH_LANDMARK] == 2.0  # flagged for the home team
        assert adv_obs[1, 1, CH_LANDMARK] == 1.0   # plain landmark for the adversary

    def test_dead_agent_cannot_observe(self):
        w = jungle()
        w.agents[0].alive = False
        with pytest.raises(UnknownAgent):
            w.observe(0)


class TestMovement:
    def test_moves_shift_positions(self):
        w = jungle(w=6, h=6, agents=2, foods=0, seed=0, limit=10)
        place(w, {0: (2, 2), 1: (5, 5)})
        w.step({0: Action.UP, 1: Action.IDLE})
        assert w.agents[0].pos == (2, 1)
        w.step({0: Action.RIGHT, 1: Action.IDLE})
        assert w.agents[0].pos == (3, 1)
        w.step({0: Action.DOWN, 1: Action.IDLE})
        w.step({0: Action.LEFT, 1: Action.IDLE})
        assert w.agents[0].pos == (2, 2)

    def test_illegal_moves_coerce_to_idle(self):
        w = jungle(w=5, h=5, agents=2, foods=0, seed=0, limit=20)
        place(w, {0: (0, 0), 1: (4, 4)})
        w.step({0: Action.UP, 1: Action.IDLE})    # off-grid
        assert w.agents[0].pos == (0, 0)
        w.step({0: Action.LEFT, 1: Action.IDLE})  # off-grid
        assert w.agents[0].pos == (0, 0)

    def test_food_blocks_movement(self):
        w = jungle(w=5, h=5, agents=2, foods=1, seed=0, limit=20)
        food = next(iter(w.foods))
        nx = food.x - 1 if food.x > 0 else food.x + 1
        act = Action.RIGHT if nx < food.x else Action.LEFT
        far = (0 if food.x > 2 else 4, 0 if food.y > 2 else 4)
        place(w, {0: (nx, food.y), 1: far})
        w.step({0: act, 1: Action.IDLE})
        assert w.agents[0].pos == (nx, food.y)

    def test_legal_actions_match_blocking(self):
        w = jungle(w=4, h=4, agents=2, foods=2, walls=2, seed=9, limit=50)
        for a in w.alive_agents():
            legal = w.legal_actions(a.id)
            assert Action.IDLE in legal
            for act in Action:
                dx, dy = {Action.UP: (0, -1), Action.DOWN: (0, 1),
                          Action.LEFT: (-1, 0), Action.RIGHT: (1, 0),
                          Action.IDLE: (0, 0)}[act]
                tx, ty = a.pos.x + dx, a.pos.y + dy
                if act in legal:
                    assert not w.blocked(tx, ty)

    def test_coerce_keeps_exactly_the_legal_actions(self):
        for seed in range(10):
            w = jungle(w=4, h=4, agents=4, foods=3, walls=3, seed=seed, limit=50)
            for a in w.alive_agents():
                acts = np.arange(N_ACTIONS)
                got = w.coerce(np.full(N_ACTIONS, a.id), acts)
                legal = w.legal_actions(a.id)
                assert got.tolist() == [act if act in legal else Action.IDLE for act in acts]

    def test_agents_may_share_a_cell(self):
        w = jungle(w=5, h=5, agents=2, foods=0, seed=0, limit=10)
        place(w, {0: (1, 1), 1: (2, 1)})
        w.step({0: Action.IDLE, 1: Action.LEFT})
        assert w.agents[0].pos == w.agents[1].pos == (1, 1)

    def test_step_requires_exact_joint(self):
        w = jungle(agents=2, limit=10)
        with pytest.raises(UnknownAgent):
            w.step({0: Action.IDLE})
        with pytest.raises(UnknownAgent):
            w.step({0: Action.IDLE, 1: Action.IDLE, 7: Action.IDLE})

    def test_step_after_done_raises(self):
        w = jungle(agents=2, foods=0, limit=1)
        place(w, {0: (0, 0), 1: (6, 6)})
        out = w.step(idle_joint(w))
        assert out.done and w.finished
        with pytest.raises(EpisodeFinished):
            w.step(idle_joint(w))


class TestJungleRules:
    def test_food_adjacency_reward(self):
        w = jungle(w=7, h=7, agents=2, foods=1, seed=0, limit=30)
        food = next(iter(w.foods))
        fx, fy = food
        nx = fx - 1 if fx > 0 else fx + 1  # horizontal neighbour of the food
        far = (0 if fx > 3 else 6, 0 if fy > 3 else 6)
        place(w, {0: (nx, fy), 1: far})
        out = w.step(idle_joint(w))
        assert out.rewards[0] == 1.0
        assert out.rewards[1] == 0.0

    def test_kill_after_three_step_streak(self):
        w = jungle(w=9, h=9, agents=3, foods=0, seed=0, limit=30)
        place(w, {0: (4, 4), 1: (5, 4), 2: (0, 8)})
        for _ in range(2):
            out = w.step(idle_joint(w))
            assert not out.deaths
        out = w.step(idle_joint(w))  # third consecutive adjacent step
        assert set(out.deaths) == {0, 1}
        assert w.finished  # one survivor ends the jungle episode

    def test_streak_resets_when_separated(self):
        w = jungle(w=9, h=9, agents=3, foods=0, seed=0, limit=30)
        place(w, {0: (4, 4), 1: (5, 4), 2: (0, 8)})
        w.step(idle_joint(w))
        w.step({0: Action.LEFT, 1: Action.RIGHT, 2: Action.IDLE})  # split up
        w.step({0: Action.RIGHT, 1: Action.LEFT, 2: Action.IDLE})  # back together
        out = w.step(idle_joint(w))
        assert not out.deaths  # streak restarted from the reunion

    def test_ends_at_limit(self):
        w = jungle(w=9, h=9, agents=3, foods=0, seed=1, limit=4)
        place(w, {0: (0, 0), 1: (4, 4), 2: (8, 8)})
        for _ in range(3):
            assert not w.step(idle_joint(w)).done
        assert w.step(idle_joint(w)).done


class TestBattleRules:
    def test_three_foes_kill(self):
        w = battle(w=9, h=9, agents=4, seed=0, limit=30)
        place(w, {0: (4, 4), 1: (0, 0), 2: (0, 8), 3: (8, 0),
                  4: (3, 4), 5: (5, 4), 6: (4, 3), 7: (8, 8)})
        out = w.step(idle_joint(w))
        assert out.deaths == [0]
        assert not w.agents[0].alive

    def test_two_foes_do_not_kill(self):
        w = battle(w=9, h=9, agents=3, seed=0, limit=30)
        place(w, {0: (4, 4), 1: (0, 0), 2: (0, 8), 3: (3, 4), 4: (5, 4), 5: (8, 8)})
        out = w.step(idle_joint(w))
        assert not out.deaths

    def test_simultaneous_deaths(self):
        w = battle(w=9, h=9, agents=4, seed=0, limit=30)
        # 0 surrounded by 4,5,6; 4 surrounded by 0,1,2 -- both must fall
        place(w, {0: (4, 4), 1: (3, 3), 2: (3, 5), 3: (8, 8),
                  4: (3, 4), 5: (5, 4), 6: (4, 3), 7: (8, 0)})
        out = w.step(idle_joint(w))
        assert set(out.deaths) == {0, 4}

    def test_terminal_rewards_by_survivors(self):
        w = battle(w=9, h=9, agents=4, seed=0, limit=2)
        place(w, {0: (4, 4), 1: (0, 0), 2: (0, 8), 3: (1, 1),
                  4: (3, 4), 5: (5, 4), 6: (4, 3), 7: (8, 8)})
        w.step(idle_joint(w))  # kills agent 0; 3 vs 4 survivors
        out = w.step(idle_joint(w))
        assert out.done
        assert out.rewards[1] == -1.0 and out.rewards[4] == 1.0

    def test_extinction_ends_episode(self):
        w = battle(w=9, h=9, agents=1, seed=0, limit=50)
        place(w, {0: (4, 4), 1: (8, 8)})
        w.agents[1].alive = False
        out = w.step({0: Action.IDLE})
        assert out.done and out.rewards[0] == 1.0


class TestDeceptionRules:
    def test_home_win_when_covering_target_alone(self):
        d = deception(w=7, h=7, agents=2, landmarks=2, seed=3, limit=1)
        tgt = d.target_cell()
        other = next(p for p in d.landmarks if p != tgt)
        place(d, {0: (tgt.x, tgt.y), 1: (0, 0), 2: (other.x, other.y)})
        out = d.step(idle_joint(d))
        assert out.done
        assert out.rewards[0] == 1.0 and out.rewards[1] == 1.0
        assert out.rewards[2] == -1.0

    def test_adversary_on_target_beats_home(self):
        d = deception(w=7, h=7, agents=2, landmarks=2, seed=3, limit=1)
        tgt = d.target_cell()
        place(d, {0: (tgt.x, tgt.y), 1: (1, 1), 2: (tgt.x, tgt.y)})
        out = d.step(idle_joint(d))
        assert out.rewards[0] == -1.0 and out.rewards[1] == -1.0
        assert out.rewards[2] == 1.0

    def test_rewards_are_terminal_only(self):
        d = deception(w=7, h=7, agents=2, landmarks=2, seed=3, limit=3)
        tgt = d.target_cell()
        place(d, {0: (tgt.x, tgt.y), 1: (1, 1), 2: (0, 6)})
        out = d.step(idle_joint(d))
        assert not out.done
        assert all(r == 0.0 for r in out.rewards.values())


class TestOutcome:
    def test_rewards_cover_all_movers(self):
        w = jungle(w=7, h=7, agents=3, foods=1, seed=2, limit=20)
        out = w.step(idle_joint(w))
        assert sorted(out.rewards) == [0, 1, 2]

    def test_dying_agents_still_rewarded(self):
        w = battle(w=9, h=9, agents=4, seed=0, limit=1)
        place(w, {0: (4, 4), 1: (0, 0), 2: (0, 8), 3: (1, 1),
                  4: (3, 4), 5: (5, 4), 6: (4, 3), 7: (8, 8)})
        out = w.step(idle_joint(w))  # agent 0 dies on the terminal step
        assert out.done
        assert 0 in out.rewards and out.rewards[0] == -1.0


# -- the per-agent rules, kept as the reference for GridWorld.step -------------

NEIGHBOURS_8 = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dx, dy) != (0, 0)]


def loop_step(world: GridWorld, joint) -> StepOutcome:
    """Reference step: every rule applied agent by agent, on the frozensets.

    Moves resolve simultaneously (a move into a wall, a food or off the grid
    becomes Idle), then kills on post-move positions, then rewards. A
    neighbour is an agent in one of the eight cells around an agent's own
    cell, so agents sharing a cell are not neighbours.
    """
    if world.finished:
        raise EpisodeFinished(f"episode ended at t={world.time}")

    def blocked(x, y):
        inside = 0 <= x < world.width and 0 <= y < world.height
        return not inside or (x, y) in world.walls or (x, y) in world.foods

    def num_alive(team=None):
        return sum(1 for a in world.agents if a.alive and (team is None or a.team == team))

    movers = [a for a in world.agents if a.alive]
    assert sorted(joint) == [a.id for a in movers]
    for a in movers:
        dx, dy = MOVES[Action(joint[a.id])]
        nx, ny = a.pos.x + dx, a.pos.y + dy
        if not blocked(nx, ny):
            a.pos = Position(nx, ny)

    occupants = {}
    for a in movers:
        occupants.setdefault(a.pos, []).append(a)

    def neighbours(pos):
        for dx, dy in NEIGHBOURS_8:
            yield from occupants.get((pos.x + dx, pos.y + dy), ())

    deaths = []
    if world.scenario is Scenario.JUNGLE:
        for a in movers:
            crowded = any(True for _ in neighbours(a.pos))
            a.streak = a.streak + 1 if crowded else 0
            if a.streak >= 3:
                deaths.append(a)
    elif world.scenario is Scenario.BATTLE:
        for a in movers:
            foes = sum(1 for o in neighbours(a.pos) if o.team != a.team)
            if foes >= 3:
                deaths.append(a)
    for a in deaths:
        a.alive = False
    world.time += 1

    done = world.time >= world.episode_limit
    if world.scenario is Scenario.JUNGLE:
        done = done or num_alive() <= 1
    elif world.scenario is Scenario.BATTLE:
        done = done or num_alive(0) == 0 or num_alive(1) == 0

    rewards = {a.id: 0.0 for a in movers}
    if world.scenario is Scenario.JUNGLE:
        for a in movers:
            if any((a.pos.x + dx, a.pos.y + dy) in world.foods for dx, dy in NEIGHBOURS_8):
                rewards[a.id] = 1.0
    elif world.scenario is Scenario.BATTLE and done:
        alive0, alive1 = num_alive(0), num_alive(1)
        if alive0 != alive1:
            winner = 0 if alive0 > alive1 else 1
            for a in movers:
                rewards[a.id] = 1.0 if a.team == winner else -1.0
    elif world.scenario is Scenario.DECEPTION and done:
        tgt = world.target_cell()
        living = [a for a in world.agents if a.alive]
        adv_on = any(a.pos == tgt for a in living if a.team == 1)
        home_on = any(a.pos == tgt for a in living if a.team == 0)
        home_r = 1.0 if (home_on and not adv_on) else -1.0
        for a in movers:
            if a.team == 0:
                rewards[a.id] = home_r
            else:
                rewards[a.id] = 1.0 if a.pos == tgt else -1.0
    world.finished = done
    return StepOutcome(rewards=rewards, deaths=sorted(a.id for a in deaths), done=done)


def rules_world(rng: np.random.Generator, kind: Scenario) -> GridWorld:
    """A small, crowded world of ``kind``, often with stacked or dead agents."""
    w, h = (int(v) for v in rng.integers(3, 8, size=2))
    cells = w * h
    walls = int(rng.integers(0, cells // 5 + 1))
    foods = int(rng.integers(0, cells // 5 + 1)) if kind is Scenario.JUNGLE else 0
    landmarks = int(rng.integers(1, 4)) if kind is Scenario.DECEPTION else 0
    adversaries = int(rng.integers(1, 4))
    room = cells - walls - foods - landmarks - (adversaries if kind is Scenario.DECEPTION else 0)
    per_team = room if kind is not Scenario.BATTLE else room // 2
    agents = int(rng.integers(1, max(1, per_team) + 1))
    world = new_scenario(
        ScenarioConfig(
            scenario=kind, width=w, height=h, agents=agents, foods=foods, walls=walls,
            landmarks=landmarks, adversaries=adversaries,
            episode_limit=int(rng.integers(1, 12)),
        ),
        int(rng.integers(1 << 30)),
    )
    free = [
        Position(x, y) for y in range(h) for x in range(w)
        if Position(x, y) not in world.walls | world.foods
    ]
    for a in world.agents:
        roll = rng.random()
        if roll < 0.3:  # stack onto another agent's cell
            a.pos = world.agents[int(rng.integers(len(world.agents)))].pos
        elif roll < 0.5:
            a.pos = free[int(rng.integers(len(free)))]
    for a in world.agents[1:]:
        if rng.random() < 0.1:
            a.alive = False
    return world


class TestStepMatchesLoopReference:
    @pytest.mark.parametrize("kind", list(Scenario))
    def test_random_worlds(self, kind):
        rng = np.random.default_rng(list(Scenario).index(kind))
        steps = 0
        for _ in range(40):
            world = rules_world(rng, kind)
            twin = copy.deepcopy(world)
            while not world.finished:
                joint = {a.id: int(rng.integers(N_ACTIONS)) for a in world.alive_agents()}
                got = world.step(joint)
                want = loop_step(twin, joint)
                assert got == want
                assert [(a.pos, a.alive, a.streak) for a in world.agents] == [
                    (a.pos, a.alive, a.streak) for a in twin.agents
                ]
                assert (world.time, world.finished) == (twin.time, twin.finished)
                steps += 1
        assert steps > 100

    def test_border_walls_and_foods(self):
        world = GridWorld(
            scenario=Scenario.JUNGLE, width=4, height=3,
            walls=frozenset({Position(0, 0), Position(3, 2)}),
            foods=frozenset({Position(3, 0), Position(0, 2)}),
            landmarks=(), target=-1,
            team=[0, 0, 0],
            pos=[(1, 0), (2, 2), (1, 1)],
            alive=[True, True, True],
            streak=[0, 0, 0],
            episode_limit=5,
        )
        twin = copy.deepcopy(world)
        for joint in (
            {0: Action.LEFT, 1: Action.RIGHT, 2: Action.IDLE},
            {0: Action.UP, 1: Action.DOWN, 2: Action.LEFT},
            {0: Action.RIGHT, 1: Action.LEFT, 2: Action.DOWN},
        ):
            assert world.step(joint) == loop_step(twin, joint)
            assert [a.pos for a in world.agents] == [a.pos for a in twin.agents]

    def test_stacked_agents_are_not_neighbours(self):
        world = battle(w=9, h=9, agents=3, seed=0, limit=5)
        place(world, {0: (4, 4), 1: (0, 0), 2: (0, 8), 3: (4, 4), 4: (4, 4), 5: (4, 4)})
        twin = copy.deepcopy(world)
        out = world.step(idle_joint(world))
        assert out == loop_step(twin, idle_joint(twin))
        assert not out.deaths  # three foes on its own cell kill no one
        jw = jungle(w=5, h=5, agents=2, foods=0, limit=5)
        place(jw, {0: (2, 2), 1: (2, 2)})
        for _ in range(3):
            jw.step(idle_joint(jw))
        assert [a.streak for a in jw.agents] == [0, 0]
