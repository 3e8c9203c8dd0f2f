"""Checks of the program's outputs against computations made apart from it.

The reference code here re-derives what the program computes from the raw
world state: sub-graph members by breadth-first search over Chebyshev
adjacency of agent positions, moves, kills and rewards from the rules in
``gridmarl.gridworld``'s docstring, and gradients by central differences.
It shares no code with the program beyond the network forward passes that
the sweep and gradient checks compare against.

:class:`Checker` runs one round of a workload with capture wrappers in place
and collects every mismatch as a line of text; no check runs inside a timed
round.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from tracing import patched, site

# (dx, dy) of Up, Down, Left, Right, Idle; y grows downward
MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0), (0, 0))
IDLE = 4
NEIGHBOURS_8 = tuple((dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dx, dy) != (0, 0))
SWEEP_TOL = 1e-9
GRAD_RTOL = 1e-5
ROW_SUM_TOL = 1e-12
SAMPLE = 8          # sub-graphs checked against a BFS per decompose call
SWEEP_SAMPLE = 4    # entries checked per sweep_values call
FD_STEPS = (1e-6, 1e-7, 1e-8)  # central-difference steps, tried in turn


@dataclass(frozen=True)
class Snap:
    """A world's state before one step, copied out of the program's objects."""

    kind: str
    width: int
    height: int
    blocked: frozenset   # (x, y) cells that cannot be entered: walls and foods
    foods: frozenset
    limit: int
    time: int
    agents: tuple        # (id, team, x, y, alive, streak) per agent, by id

    def living(self) -> list[tuple]:
        return [a for a in self.agents if a[4]]

    def cells(self) -> dict[tuple[int, int], list[int]]:
        out: dict[tuple[int, int], list[int]] = {}
        for aid, _, x, y, _, _ in self.living():
            out.setdefault((x, y), []).append(aid)
        return out

    def can_enter(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height and (x, y) not in self.blocked


def snapshot(world: Any) -> Snap:
    return Snap(
        kind=world.scenario.value,
        width=world.width,
        height=world.height,
        blocked=frozenset((p.x, p.y) for p in world.walls | world.foods),
        foods=frozenset((p.x, p.y) for p in world.foods),
        limit=world.episode_limit,
        time=world.time,
        agents=tuple((a.id, a.team, a.pos.x, a.pos.y, a.alive, a.streak) for a in world.agents),
    )


# -- decomposition and ensembling ---------------------------------------------


def adjacent(snap: Snap, cells: dict, aid: int) -> list[int]:
    """Living agents other than ``aid`` at Chebyshev distance at most one."""
    _, _, x, y, _, _ = snap.agents[aid]
    return [
        v
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        for v in cells.get((x + dx, y + dy), ())
        if v != aid
    ]


def within_hops(snap: Snap, cells: dict, centre: int, depth: int) -> set[int]:
    seen = {centre}
    frontier = [centre]
    for _ in range(depth):
        frontier = [v for u in frontier for v in adjacent(snap, cells, u) if v not in seen]
        seen.update(frontier)
    return seen


def check_subgraph(snap: Snap, cells: dict, sg: Any, depth: int) -> list[str]:
    """Members and directed edge count of one sub-graph against a BFS."""
    want = within_hops(snap, cells, sg.centre, depth)
    got = [int(m) for m in sg.members]
    problems = []
    if len(got) != len(set(got)) or set(got) != want or got[0] != sg.centre:
        problems.append(f"sub-graph of {sg.centre}: members {sorted(got)}, BFS gives {sorted(want)}")
    edges = sum(1 for u in want for v in adjacent(snap, cells, u) if v in want)
    if len(sg.edge_src) != edges or len(sg.edge_dst) != edges:
        problems.append(f"sub-graph of {sg.centre}: {len(sg.edge_src)} directed edges, BFS gives {edges}")
    return problems


def coerce(snap: Snap, aid: int, act: int) -> int:
    _, _, x, y, _, _ = snap.agents[aid]
    dx, dy = MOVES[act]
    return act if act == IDLE or snap.can_enter(x + dx, y + dy) else IDLE


def check_ensemble(
    snap: Snap,
    calls: Sequence[tuple],
    joint: dict,
    depth: int,
    sample: Sequence[int],
) -> list[str]:
    """Fused distributions and actions of one step.

    ``calls`` holds (distribution count, mode, action, fused distribution)
    per ensemble call, in the order the living agents act (ascending id).
    For the ``sample`` agents the distribution count is checked against the
    number of same-team agents within ``depth`` hops.
    """
    living = snap.living()
    if len(calls) != len(living):
        return [f"t={snap.time}: {len(calls)} ensemble calls for {len(living)} living agents"]
    problems = []
    for (aid, *_), (_, mode, act, fused) in zip(living, calls):
        if np.any(fused < 0.0) or abs(float(fused.sum()) - 1.0) > ROW_SUM_TOL:
            problems.append(f"t={snap.time} agent {aid}: fused distribution {fused} is not one")
        if mode == "greedy" and act != int(np.argmax(fused)):
            problems.append(f"t={snap.time} agent {aid}: greedy action {act} is not the argmax")
        if joint[aid] != coerce(snap, aid, act):
            problems.append(f"t={snap.time} agent {aid}: executed {joint[aid]} for drawn {act}")
    cells = snap.cells()
    for aid in sample:
        team = snap.agents[aid][1]
        want = sum(1 for v in within_hops(snap, cells, aid, depth) if snap.agents[v][1] == team)
        k = calls[[a[0] for a in living].index(aid)][0]
        if k != want:
            problems.append(f"t={snap.time} agent {aid}: {k} distributions, {want} same-team agents in reach")
    return problems


# -- world rules ---------------------------------------------------------------


def expected_step(snap: Snap, joint: dict) -> dict:
    """Positions, deaths, streaks, rewards and end flag after one step."""
    movers = snap.living()
    pos = {}
    for aid, _, x, y, _, _ in movers:
        dx, dy = MOVES[int(joint[aid])]
        pos[aid] = (x + dx, y + dy) if snap.can_enter(x + dx, y + dy) else (x, y)
    cells: dict[tuple[int, int], list[int]] = {}
    for aid, p in pos.items():
        cells.setdefault(p, []).append(aid)

    def near(aid: int) -> list[int]:
        x, y = pos[aid]
        return [v for dx, dy in NEIGHBOURS_8 for v in cells.get((x + dx, y + dy), ())]

    team = {a[0]: a[1] for a in movers}
    streak = {}
    deaths = []
    for aid, _, _, _, _, old in movers:
        if snap.kind == "jungle":
            streak[aid] = old + 1 if near(aid) else 0
            if streak[aid] >= 3:
                deaths.append(aid)
        elif snap.kind == "battle":
            if sum(1 for v in near(aid) if team[v] != team[aid]) >= 3:
                deaths.append(aid)
        else:
            raise ValueError(f"no reference rules for {snap.kind}")
    dead = set(deaths)
    alive = [aid for aid in pos if aid not in dead]
    per_team = [sum(1 for a in alive if team[a] == t) for t in (0, 1)]
    done = snap.time + 1 >= snap.limit
    if snap.kind == "jungle":
        done = done or len(alive) <= 1
        rewards = {
            aid: 1.0 if any((x + dx, y + dy) in snap.foods for dx, dy in NEIGHBOURS_8) else 0.0
            for aid, (x, y) in pos.items()
        }
    else:
        done = done or 0 in per_team
        rewards = dict.fromkeys(pos, 0.0)
        if done and per_team[0] != per_team[1]:
            winner = 0 if per_team[0] > per_team[1] else 1
            rewards = {aid: 1.0 if team[aid] == winner else -1.0 for aid in pos}
    return {"pos": pos, "deaths": sorted(deaths), "streak": streak, "rewards": rewards, "done": done}


def check_step(snap: Snap, joint: dict, outcome: Any, world: Any) -> list[str]:
    """The program's step outcome and post-step world against the rules."""
    want = expected_step(snap, joint)
    problems = []
    moved = {aid: (world.agents[aid].pos.x, world.agents[aid].pos.y) for aid in want["pos"]}
    if moved != want["pos"]:
        bad = sorted(a for a in moved if moved[a] != want["pos"][a])
        problems.append(f"t={snap.time}: agents {bad[:5]} ended off their reference cells")
    if list(outcome.deaths) != want["deaths"]:
        problems.append(f"t={snap.time}: deaths {outcome.deaths}, rules give {want['deaths']}")
    if dict(outcome.rewards) != want["rewards"]:
        bad = sorted(a for a in want["rewards"] if outcome.rewards.get(a) != want["rewards"][a])
        problems.append(f"t={snap.time}: rewards of agents {bad[:5]} differ from the rules")
    if bool(outcome.done) != want["done"]:
        problems.append(f"t={snap.time}: done {outcome.done}, rules give {want['done']}")
    if snap.kind == "jungle" and any(world.agents[a].streak != s for a, s in want["streak"].items()):
        problems.append(f"t={snap.time}: crowding streaks differ from the rules")
    before = [sum(1 for a in snap.living() if a[1] == t) for t in (0, 1)]
    after = [sum(1 for a in world.agents if a.alive and a.team == t) for t in (0, 1)]
    if any(b > a for a, b in zip(before, after)):
        problems.append(f"t={snap.time}: living counts rose from {before} to {after}")
    return problems


# -- critic sweep, gradients and outputs ---------------------------------------


def check_sweep(sg: Any, joint: np.ndarray, swept: np.ndarray, critic: Any) -> list[str]:
    """Swept values at the executed actions against one plain critic pass."""
    from gridmarl.nn.network import batch_subgraphs, critic_values

    vals, _ = critic_values(batch_subgraphs([sg], joints=[joint]), critic)
    ref = float(vals[0])
    got = swept[np.arange(len(joint)), joint]
    worst = float(np.max(np.abs(got - ref)))
    if not worst <= SWEEP_TOL:
        return [f"sweep of sub-graph {sg.centre}: executed-action values off by {worst:.3e}"]
    return []


def check_gradient(
    forward: Callable,
    batch: Any,
    params: Any,
    seed: np.ndarray,
    grads: Any,
    rng: np.random.Generator,
) -> list[str]:
    """Directional derivative of seed . forward(params) along a random
    direction: the program's gradient against a central difference.

    A central difference is exact to round-off only when no ReLU input
    crosses zero inside the step. A large batch holds about a million ReLU
    inputs, so one crossing inside a step of 1e-6 is likely; the check fails
    only when the difference disagrees at every step tried.
    """
    dirs = [(rng.standard_normal(l.w.shape), rng.standard_normal(l.b.shape)) for _, l in params.layers()]
    norm = math.sqrt(sum(float((dw**2).sum() + (db**2).sum()) for dw, db in dirs))
    analytic = sum(
        float((g.w * dw).sum() + (g.b * db).sum()) for (_, g), (dw, db) in zip(grads.layers(), dirs)
    ) / norm

    def outputs(shift: float) -> np.ndarray:
        shifted = copy.deepcopy(params)
        for (_, l), (dw, db) in zip(shifted.layers(), dirs):
            l.w += shift / norm * dw
            l.b += shift / norm * db
        out, _ = forward(batch, shifted)
        return out

    seed = np.asarray(seed)
    errs = []
    for step in FD_STEPS:
        # differencing the outputs before weighting them keeps the sum's
        # round-off at the size of the change, not of the objective
        diff = outputs(step) - outputs(-step)
        numeric = float((seed.reshape(diff.shape) * diff).sum()) / (2.0 * step)
        errs.append(abs(numeric - analytic) / max(abs(analytic), abs(numeric), 1e-12))
        if errs[-1] <= GRAD_RTOL:
            return []
    return [f"gradient: directional derivative {analytic!r} off its central differences by {errs}"]


def check_rows(logp: np.ndarray) -> list[str]:
    worst = float(np.max(np.abs(np.exp(logp).sum(axis=1) - 1.0)))
    return [] if worst <= ROW_SUM_TOL else [f"policy rows sum to 1 only within {worst:.3e}"]


def check_checkpoint(path: str) -> list[str]:
    from gridmarl.harness.state import load_state

    state = load_state(path)
    bad = [
        f"team{t}.{net}.{p}"
        for t, nets in state.nets.items()
        for net, params in (("policy", nets.policy), ("critic", nets.critic))
        if params is not None
        for p, layer in params.layers()
        if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all())
    ]
    return [f"{path}: non-finite parameters in {bad}"] if bad else []


# -- one captured round ----------------------------------------------------------


class Checker:
    """Capture wrappers that check a round as it runs, outside any timing."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.problems: list[str] = []
        self.agent_steps = 0        # living agents summed over GridWorld.step calls
        self.reported_subgraphs = 0  # the program's own sub-graph totals
        self.checked = {"subgraphs": 0, "steps": 0, "sweeps": 0, "gradients": 0}
        self._world: Any = None
        self._depth = 0
        self._picked: list[int] = []
        self._calls: list[tuple] = []
        self._recorded: Optional[tuple] = None
        self._first_policy: Optional[tuple] = None
        self._grad_case: Optional[tuple] = None

    def _build_graph(self, orig):
        def hook(world):
            self._world = world
            return orig(world)

        return hook

    def _decompose(self, orig):
        def hook(g, depth, *args, **kwargs):
            out = orig(g, depth, *args, **kwargs)
            snap = snapshot(self._world)
            cells = snap.cells()
            self._depth = depth
            k = min(SAMPLE, len(out))
            idx = self.rng.choice(len(out), size=k, replace=False)
            self._picked = [out[i].centre for i in sorted(idx)]
            for i in sorted(idx):
                self.problems += check_subgraph(snap, cells, out[i], depth)
            self.checked["subgraphs"] += k
            return out

        return hook

    def _ensemble(self, orig):
        def hook(dists, mode="sample", rng=None):
            act, fused = orig(dists, mode=mode, rng=rng)
            self._calls.append((len(dists), mode, act, fused))
            return act, fused

        return hook

    def _step(self, orig):
        def hook(world, joint, rng=None):
            snap = snapshot(world)
            outcome = orig(world, joint, rng)
            self.agent_steps += len(joint)
            self.problems += check_step(snap, joint, outcome, world)
            self.problems += check_ensemble(snap, self._calls, joint, self._depth, self._picked)
            self.checked["steps"] += 1
            self._calls = []
            return outcome

        return hook

    def _sweep(self, orig):
        def hook(entries, critic, *args, **kwargs):
            out = orig(entries, critic, *args, **kwargs)
            k = min(SWEEP_SAMPLE, len(entries))
            for i in self.rng.choice(len(entries), size=k, replace=False):
                sg, joint = entries[i]
                self.problems += check_sweep(sg, joint, out[i], critic)
            self.checked["sweeps"] += k
            return out

        return hook

    def _policy(self, orig):
        def hook(batch, params, record=False):
            logp, trace = orig(batch, params, record=record)
            self.problems += check_rows(logp)
            if self._first_policy is None:
                self._first_policy = (orig, batch, copy.deepcopy(params), None)
            if record:
                self._recorded = (trace, orig, batch)
            return logp, trace

        return hook

    def _critic(self, orig):
        def hook(batch, params, record=False):
            vals, trace = orig(batch, params, record=record)
            if record:
                self._recorded = (trace, orig, batch)
            return vals, trace

        return hook

    def _backward(self, orig):
        def hook(trace, seed):
            if self._grad_case is None and self._recorded and self._recorded[0] is trace:
                _, forward, batch = self._recorded
                self._grad_case = (forward, batch, copy.deepcopy(trace.params), np.array(seed))
            return orig(trace, seed)

        return hook

    def _rollout(self, orig):
        def hook(*args, **kwargs):
            res = orig(*args, **kwargs)
            self.reported_subgraphs += res.stats.subgraphs
            return res

        return hook

    def run(self, round_fn: Callable[[], Any], updates: bool) -> Any:
        """Run one round under the capture wrappers and return its result.

        ``updates`` says whether the round trains, so that its critic sweeps
        must have been seen and checked.
        """
        from gridmarl.nn import network

        # keyed by the span names of tracing.SITES, which say where each is patched
        hooks = {
            "graph.build_graph": self._build_graph,
            "graph.decompose": self._decompose,
            "core.ensemble_action": self._ensemble,
            "gridworld.step": self._step,
            "trainer.sweep_values": self._sweep,
            "network.policy_logprobs": self._policy,
            "network.critic_values": self._critic,
            "network.backward": self._backward,
            "trainer.rollout_graph": self._rollout,
        }
        replacements = []
        for name, make in hooks.items():
            owner, attr = site(name)
            replacements.append((owner, attr, make(getattr(owner, attr))))
        with patched(replacements):
            result = round_fn()
        # the first backward pass of a training round, or else the round's
        # first policy batch under a random seed
        case = self._grad_case or self._first_policy
        if case is not None:
            forward, batch, params, seed = case
            # fresh networks have all-zero biases, which park ReLU inputs of
            # all-zero rows exactly on the kink, where no derivative exists
            for _, layer in params.layers():
                layer.b += self.rng.normal(scale=0.3, size=layer.b.shape)
            out, trace = forward(batch, params, record=True)
            if seed is None:
                seed = self.rng.standard_normal(out.shape)
            grads = network.backward(trace, seed)
            self.problems += check_gradient(forward, batch, params, seed, grads, self.rng)
            self.checked["gradients"] += 1
        if updates and self._grad_case is None:
            self.problems.append("no backward pass was seen")
        if self.agent_steps != self.reported_subgraphs:
            self.problems.append(
                f"{self.agent_steps} agent-steps at GridWorld.step, "
                f"the program reports {self.reported_subgraphs} sub-graphs"
            )
        for what, n in self.checked.items():
            if not n and (updates or what != "sweeps"):
                self.problems.append(f"no {what} were checked")
        return result
