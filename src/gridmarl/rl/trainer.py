"""Rollouts, update rules, and the batch training loop.

Three algorithms share one rollout/metrics pipeline:

* ``graph-ac``  -- each agent acts on its own depth-k sub-graph; actions are
  ensembled across the sub-graphs containing the agent; a per-member critic
  baseline turns rewards into TD errors driving both networks (the full
  actor-critic).
* ``graph-pg``  -- identical rollout and ensembling, but the update
  coefficient is the centre agent's discounted return-to-go and there is no
  critic.
* ``vanilla-pg`` -- REINFORCE on a two-layer perceptron over each agent's own
  47-dim feature; no graphs, no ensembling. The reference baseline.

Each team owns one parameter set shared by its agents (plus a critic and
optimizer state). A sub-graph is evaluated by its centre's team; an agent
ensembles only distributions produced by its own team's policy, while
actor-gradient terms flow to the owning team for every member of its
sub-graphs. The actor credits each member's ensemble draw taken before
illegal moves are coerced to Idle, so the log-probability gradient belongs to
the action the policy chose; the critic is trained and swept on the joint the
world executed. Updates accumulate over a batch of episodes (summed within an
episode, averaged across episodes, negated into the Adam minimizer); an
optional per-step mode applies updates inside the episode instead.

Episodes run one after another; each draws its world and actions from seeds
derived from (run seed, batch, episode).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..graph import (
    DEFAULT_DELTA_D,
    DEFAULT_N_MAX,
    Decomposition,
    SubGraph,
    VERTEX_DIM,
    all_vertex_features,
    build_graph,
    decompose,
)
from ..gridworld import (
    GridWorld,
    N_ACTIONS,
    ScenarioConfig,
    StepOutcome,
    new_scenario,
)
from ..nn.network import (
    GraphBatch,
    backward,
    batch_subgraphs,
    critic_deviations,
    critic_values,
    deviation_sizes,
    mlp_logprobs,
    policy_logprobs,
)
from ..nn.optim import AdamState, PlateauSchedule, adam_state, adam_step, plateau_update
from ..nn.params import (
    MlpParams,
    NetParams,
    Params,
    add_scaled_,
    check_finite,
    new_graph_net,
    new_mlp,
    scale_,
    zeros_like_params,
)
from .core import ensemble_action

ALGORITHMS = ("vanilla-pg", "graph-pg", "graph-ac")

# vertex-row and edge budgets for one batched forward; they bound the memory
# of the big sweeps. Battle sub-graphs carry about two edges per member, so at
# twice the row budget neither binds first there; in crowded worlds edges do.
ROW_BUDGET = 65536
EDGE_BUDGET = 2 * ROW_BUDGET


@dataclass(frozen=True)
class TrainerConfig:
    algorithm: str = "graph-ac"
    gamma: float = 0.99
    lr_policy: float = 0.01
    lr_critic: float = 0.01
    depth: int = 3
    batch_episodes: int = 100
    per_step_updates: bool = False

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}, pick from {ALGORITHMS}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.lr_policy <= 0 or self.lr_critic <= 0:
            raise ConfigError("learning rates must be positive")
        if self.depth < 1:
            raise ConfigError(f"depth must be at least 1, got {self.depth}")
        if self.batch_episodes < 1:
            raise ConfigError("batch_episodes must be at least 1")
        if self.per_step_updates and self.algorithm != "graph-ac":
            raise ConfigError("per-step updates require the graph-ac algorithm")


@dataclass(frozen=True)
class NetConfig:
    hidden: int = 64
    rounds: int = 2
    delta_d: float = DEFAULT_DELTA_D
    n_max: int = DEFAULT_N_MAX

    def validate(self) -> None:
        if self.hidden < 1 or self.rounds < 0 or self.n_max < 1:
            raise ConfigError("network sizes must be positive")
        if self.delta_d <= 0:
            raise ConfigError("delta_d must be positive")


@dataclass
class TeamNets:
    """One team's learnable state: policy, optional critic, optimizers."""

    policy: Params
    critic: Optional[NetParams]
    adam_policy: AdamState
    adam_critic: Optional[AdamState]
    sched: PlateauSchedule
    lr_ratio: float  # critic lr / policy lr at construction


def new_team_nets(tcfg: TrainerConfig, ncfg: NetConfig, rng: np.random.Generator) -> TeamNets:
    if tcfg.algorithm == "vanilla-pg":
        policy: Params = new_mlp(rng, VERTEX_DIM, ncfg.hidden, N_ACTIONS)
    else:
        policy = new_graph_net(
            rng, VERTEX_DIM, ncfg.hidden, ncfg.n_max, N_ACTIONS, ncfg.rounds, pooled=False
        )
    critic = None
    adam_c = None
    if tcfg.algorithm == "graph-ac":
        critic = new_graph_net(
            rng, VERTEX_DIM + N_ACTIONS, ncfg.hidden, ncfg.n_max, 1, ncfg.rounds, pooled=True
        )
        adam_c = adam_state(critic, tcfg.lr_critic)
    return TeamNets(
        policy=policy,
        critic=critic,
        adam_policy=adam_state(policy, tcfg.lr_policy),
        adam_critic=adam_c,
        sched=PlateauSchedule(lr=tcfg.lr_policy),
        lr_ratio=tcfg.lr_critic / tcfg.lr_policy,
    )


# -- episode records ---------------------------------------------------------


@dataclass
class StepData:
    """One tick of a graph rollout, kept as arrays.

    ``acting`` indexes the sub-graphs whose centre's team sampled them from
    its policy; ``probs`` holds their member rows (the rows of other
    sub-graphs are unset). ``drawn`` and ``executed`` are indexed by agent
    id.
    """

    dec: Decomposition
    acting: np.ndarray    # (s',) sub-graph indices, ascending
    probs: np.ndarray     # (M, 5) member distributions, rows of dec
    drawn: np.ndarray     # ensemble draw per agent id, before coercion
    executed: np.ndarray  # post-coercion action per agent id
    outcome: StepOutcome


@dataclass
class Transitions:
    """One team's (sub-graph, action, reward, successor) records, as arrays.

    ``dec`` holds the team's acting sub-graphs, step after step, centres
    ascending. Its first ``len(self)`` are transitions, each with its centre's
    reward and the index of the centre's sub-graph one step later (-1 once
    the agent or the episode ended); any after them are successors only.
    """

    dec: Decomposition
    t: np.ndarray         # (s,) step of each sub-graph
    probs: np.ndarray     # (M, 5) member distributions at sampling time
    sampled: np.ndarray   # (M,) ensemble draws before coercion; the actor credits these
    executed: np.ndarray  # (M,) post-coercion actions the world executed
    reward: np.ndarray    # (n,) centre's reward, per transition
    succ: np.ndarray      # (n,) successor's sub-graph index, or -1

    def __len__(self) -> int:
        return len(self.reward)


@dataclass
class FlatStep:
    """Vanilla-PG record: one row per living agent of one team."""

    ids: np.ndarray
    feats: np.ndarray
    sampled: np.ndarray
    rewards: np.ndarray


@dataclass
class EpisodeStats:
    steps: int
    returns: dict[int, float]       # per team: mean per-agent episode return
    alive_end: dict[int, int]
    wins: dict[int, float]          # per team, empty for jungle
    subgraphs: int
    subgraph_size_sum: int


@dataclass
class EpisodeResult:
    steps: Optional[list[StepData]]
    flat: Optional[dict[int, list[FlatStep]]]
    stats: EpisodeStats


def _episode_stats(
    world: GridWorld,
    agent_returns: np.ndarray,
    steps: int,
    subgraphs: int,
    size_sum: int,
) -> EpisodeStats:
    """``agent_returns`` holds each agent's summed rewards, indexed by id."""
    teams = np.unique(world.team).tolist()
    return EpisodeStats(
        steps=steps,
        returns={t: float(np.mean(agent_returns[world.team == t])) for t in teams},
        alive_end={t: world.num_alive(t) for t in teams},
        wins=world.wins(),
        subgraphs=subgraphs,
        subgraph_size_sum=size_sum,
    )


def _graph_step(
    world: GridWorld,
    nets: Mapping[int, TeamNets],
    tcfg: TrainerConfig,
    ncfg: NetConfig,
    rng: np.random.Generator,
    mode: str,
    random_teams: frozenset[int],
) -> StepData:
    """Sample, ensemble, coerce, and advance the world by one tick."""
    team_of = world.team
    dec = decompose(build_graph(world), tcfg.depth, ncfg.delta_d, ncfg.n_max)
    centre_team = team_of[dec.centres]
    acting = np.flatnonzero(~np.isin(centre_team, list(random_teams)))

    probs = np.empty((len(dec.members), N_ACTIONS))
    for team in sorted(set(centre_team[acting].tolist())):
        mine = acting[centre_team[acting] == team]
        logp, _ = policy_logprobs(batch_subgraphs(dec.take(mine)), nets[team].policy)
        p = np.exp(logp)
        p /= p.sum(axis=1, keepdims=True)
        probs[dec.rows(mine)] = p

    # an agent ensembles its rows of the sub-graphs its own team sampled,
    # grouped by agent in ascending centre order
    own = dec.rows(acting)
    own = own[team_of[dec.members[own]] == np.repeat(centre_team, dec.sizes())[own]]
    own = own[np.argsort(dec.members[own], kind="stable")]
    grouped = probs[own]
    count = np.bincount(dec.members[own], minlength=len(team_of))
    first = np.cumsum(count) - count

    # per agent id; every sub-graph member is a living agent and gets both
    drawn = np.zeros(len(team_of), dtype=np.int64)
    executed = np.zeros(len(team_of), dtype=np.int64)
    ids = np.flatnonzero(world.alive)
    for i, t in zip(ids.tolist(), team_of[ids].tolist()):
        if t in random_teams:
            drawn[i] = rng.integers(N_ACTIONS)
        else:
            lo = first[i]
            drawn[i], _ = ensemble_action(grouped[lo : lo + count[i]], mode=mode, rng=rng)
    executed[ids] = world.coerce(ids, drawn[ids])

    outcome = world.step(dict(zip(ids.tolist(), executed[ids].tolist())))
    return StepData(dec=dec, acting=acting, probs=probs, drawn=drawn, executed=executed, outcome=outcome)


def rollout_graph(
    world: GridWorld,
    nets: Mapping[int, TeamNets],
    tcfg: TrainerConfig,
    ncfg: NetConfig,
    rng: np.random.Generator,
    collect: bool = True,
    mode: str = "sample",
    random_teams: frozenset[int] = frozenset(),
    on_step: Optional[Callable[[StepData], None]] = None,
) -> EpisodeResult:
    """Run one episode to completion under the sub-graph pipeline.

    ``on_step`` is called with each step's record once the world has
    advanced past it.
    """
    steps: list[StepData] = []
    agent_returns = np.zeros(len(world.team))
    n_sub = 0
    size_sum = 0
    n_steps = 0
    while not world.finished:
        sd = _graph_step(world, nets, tcfg, ncfg, rng, mode, random_teams)
        n_steps += 1
        n_sub += len(sd.acting)
        size_sum += int(sd.dec.sizes()[sd.acting].sum())
        rewards = sd.outcome.rewards
        agent_returns[list(rewards)] += list(rewards.values())
        if collect:
            steps.append(sd)
        if on_step is not None:
            on_step(sd)
    stats = _episode_stats(world, agent_returns, n_steps, n_sub, size_sum)
    return EpisodeResult(steps=steps if collect else None, flat=None, stats=stats)


def _flat_step(
    world: GridWorld,
    nets: Mapping[int, TeamNets],
    rng: np.random.Generator,
    mode: str,
    random_teams: frozenset[int],
) -> tuple[StepOutcome, dict[int, FlatStep]]:
    """One tick of the vanilla pipeline; returns per-team row records."""
    ids, feats = all_vertex_features(world)
    team = world.team[ids]  # of each feature row
    teams = np.unique(world.team).tolist()
    probs = np.empty((len(ids), N_ACTIONS))
    for t in teams:
        mask = team == t
        if mask.any() and t not in random_teams:
            logp, _ = mlp_logprobs(feats[mask], nets[t].policy)
            p = np.exp(logp)
            probs[mask] = p / p.sum(axis=1, keepdims=True)
    # one draw per agent in ascending id order: seeded runs depend on the stream
    sampled = np.empty(len(ids), dtype=np.int64)
    for k, t in enumerate(team.tolist()):
        if t in random_teams:
            sampled[k] = rng.integers(N_ACTIONS)
        elif mode == "sample":
            sampled[k] = min(int((np.cumsum(probs[k]) < rng.random()).sum()), N_ACTIONS - 1)
        else:
            sampled[k] = np.argmax(probs[k])
    executed = world.coerce(ids, sampled)
    outcome = world.step(dict(zip(ids.tolist(), executed.tolist())))
    records: dict[int, FlatStep] = {}
    for t in teams:
        sel = team == t
        if t in random_teams or not sel.any():
            continue
        records[t] = FlatStep(
            ids=ids[sel],
            feats=feats[sel],
            sampled=sampled[sel],
            rewards=np.array([outcome.rewards[i] for i in ids[sel].tolist()]),
        )
    return outcome, records


def rollout_flat(
    world: GridWorld,
    nets: Mapping[int, TeamNets],
    rng: np.random.Generator,
    collect: bool = True,
    mode: str = "sample",
    random_teams: frozenset[int] = frozenset(),
) -> EpisodeResult:
    """Vanilla rollout: every agent acts on its own observation alone."""
    flat: dict[int, list[FlatStep]] = {t: [] for t in np.unique(world.team).tolist()}
    agent_returns = np.zeros(len(world.team))
    n_steps = 0
    while not world.finished:
        outcome, records = _flat_step(world, nets, rng, mode, random_teams)
        n_steps += 1
        agent_returns[list(outcome.rewards)] += list(outcome.rewards.values())
        if collect:
            for team, rec in records.items():
                flat[team].append(rec)
    stats = _episode_stats(world, agent_returns, n_steps, 0, 0)
    return EpisodeResult(steps=None, flat=flat if collect else None, stats=stats)


def play_step(
    world: GridWorld,
    nets: Mapping[int, TeamNets],
    tcfg: TrainerConfig,
    ncfg: NetConfig,
    rng: np.random.Generator,
    mode: str = "greedy",
    random_teams: frozenset[int] = frozenset(),
) -> StepOutcome:
    """Advance the world one tick under frozen policies (for inspection)."""
    if isinstance(nets[min(nets)].policy, MlpParams):
        outcome, _ = _flat_step(world, nets, rng, mode, random_teams)
        return outcome
    return _graph_step(world, nets, tcfg, ncfg, rng, mode, random_teams).outcome


def team_transitions(steps: Sequence[StepData], team_of: np.ndarray, team: int) -> Transitions:
    """One team's transitions over ``steps``; ``team_of`` gives each agent id's team."""
    parts, probs, sampled, executed, reward = [], [], [], [], []
    for sd in steps:
        mine = sd.acting[team_of[sd.dec.centres[sd.acting]] == team]
        parts.append(part := sd.dec.take(mine))
        probs.append(sd.probs[sd.dec.rows(mine)])
        sampled.append(sd.drawn[part.members])
        executed.append(sd.executed[part.members])
        reward += [sd.outcome.rewards[c] for c in part.centres.tolist()]
    dec = Decomposition.concat(parts)
    t = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    # the successor holds key (t + 1, centre); keys ascend, step after step
    keys = t * len(team_of) + dec.centres
    want = keys + len(team_of)
    hit = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return Transitions(
        dec=dec,
        t=t,
        probs=np.concatenate(probs),
        sampled=np.concatenate(sampled),
        executed=np.concatenate(executed),
        reward=np.array(reward, dtype=np.float64),
        succ=np.where(keys[hit] == want, hit, -1),
    )


# -- chunked batched forwards ------------------------------------------------


def _chunks(rows: np.ndarray, edges: np.ndarray) -> Iterator[slice]:
    """Consecutive runs of items whose summed rows and edges fit the budgets.

    Rows are held to ``ROW_BUDGET``, edges to ``EDGE_BUDGET``, both read at
    call time. A run takes at least one item, so an item above a budget runs
    alone.
    """
    cum_rows = np.concatenate([[0], np.cumsum(rows)])
    cum_edges = np.concatenate([[0], np.cumsum(edges)])
    start = 0
    while start < len(rows):
        end = min(
            np.searchsorted(cum_rows, cum_rows[start] + ROW_BUDGET, side="right"),
            np.searchsorted(cum_edges, cum_edges[start] + EDGE_BUDGET, side="right"),
        )
        yield slice(start, end := max(int(end) - 1, start + 1))
        start = end


@dataclass
class Entries:
    """(sub-graph, joint) pairs as arrays; ``entries[i]`` builds pair i on demand."""

    dec: Decomposition
    joints: np.ndarray  # (M,) actions, rows of dec

    def __len__(self) -> int:
        return len(self.dec)

    def __getitem__(self, i: int) -> tuple[SubGraph, np.ndarray]:
        return self.dec[i], self.joints[self.dec.offsets[i] : self.dec.offsets[i + 1]]


def sweep_values(
    entries: Entries | Sequence[tuple[SubGraph, np.ndarray]],
    critic: NetParams,
) -> list[np.ndarray]:
    """Critic values for every (member, action) sweep of each entry.

    For an entry (sub-graph, base joint) the result is an (m, 5) array whose
    (j, a) element is q(sg, base with member j's action replaced by a). The
    base joint is evaluated once and fills every row's base-action column.
    Its 4m single-member deviations fill the rest: each re-evaluates only
    the vertices and edges it changes and reads everything else from the
    base pass (:func:`critic_deviations`). A forward holds at most
    ``ROW_BUDGET`` deviation rows and ``EDGE_BUDGET`` deviation edges unless
    one entry alone exceeds them.
    """
    if not entries:
        return []
    if isinstance(entries, Entries):
        batch = batch_subgraphs(entries.dec, joints=[entries.joints])
    else:
        batch = batch_subgraphs([sg for sg, _ in entries], joints=[j for _, j in entries])
    sizes, _ = batch.sizes()
    first = np.concatenate([[0], np.cumsum(sizes)])  # first member row per entry
    base = np.empty(len(entries))
    dev = np.empty((first[-1], N_ACTIONS - 1))
    for part in _chunks(*deviation_sizes(batch, len(critic.rounds))):
        rows = slice(first[part.start], first[part.stop])
        base[part], dev[rows] = critic_deviations(batch.graphs(part), critic)
    table = np.repeat(np.repeat(base, sizes)[:, None], N_ACTIONS, axis=1)
    held = batch.x[:, -N_ACTIONS:].argmax(axis=1)
    # row-major order: members in order, the other actions ascending
    table[np.arange(N_ACTIONS) != held[:, None]] = dev.ravel()
    return [table[lo:hi] for lo, hi in zip(first[:-1], first[1:])]


def chunked_critic_values(
    entries: Sequence[tuple[SubGraph, np.ndarray]],
    critic: NetParams,
) -> np.ndarray:
    """Plain critic values for (sub-graph, joint) pairs, chunked."""
    vals = np.empty(len(entries))
    batch = batch_subgraphs([sg for sg, _ in entries], joints=[j for _, j in entries])
    for part in _chunks(*batch.sizes()):
        vals[part] = critic_values(batch.graphs(part), critic)[0]
    return vals


# -- per-episode gradient computation ----------------------------------------


def _fresh_probs(dec: Decomposition, policy: NetParams) -> np.ndarray:
    """Member distributions under the current parameters, rows of ``dec``."""
    batch = batch_subgraphs(dec)
    logp = [policy_logprobs(batch.graphs(part), policy)[0] for part in _chunks(*batch.sizes())]
    probs = np.exp(np.concatenate(logp))
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _policy_pass(transitions: Transitions, coeffs: np.ndarray, policy: NetParams) -> Params:
    """Gradient of sum over (sub-graph, member) of coeff * ln pi(sampled).

    ``coeffs`` holds one coefficient per member row of the transitions'
    sub-graphs. Each member is credited with its ensemble draw taken before
    coercion: a blocked move the world turned into Idle is a world dynamic,
    not an action of the policy, so crediting the executed Idle would bias
    the score-function estimator.
    """
    grads = zeros_like_params(policy)
    batch = batch_subgraphs(transitions.dec)
    sizes, n_edges = (a[: len(transitions)] for a in batch.sizes())
    first = np.concatenate([[0], np.cumsum(sizes)])  # first member row per transition
    for part in _chunks(sizes, n_edges):
        rows = slice(first[part.start], first[part.stop])
        logp, trace = policy_logprobs(batch.graphs(part), policy, record=True)
        seed = np.zeros_like(logp)
        seed[np.arange(len(logp)), transitions.sampled[rows]] = coeffs[rows]
        add_scaled_(grads, backward(trace, seed))
    return grads


def _critic_pass(transitions: Transitions, coeffs: np.ndarray, critic: NetParams) -> Params:
    """Gradient of sum over transitions of coeff * q(sg, executed joint)."""
    grads = zeros_like_params(critic)
    batch = batch_subgraphs(transitions.dec, joints=[transitions.executed])
    for part in _chunks(*(a[: len(transitions)] for a in batch.sizes())):
        _, trace = critic_values(batch.graphs(part), critic, record=True)
        add_scaled_(grads, backward(trace, coeffs[part]))
    return grads


def ac_episode_grads(
    transitions: Transitions,
    nets: TeamNets,
    tcfg: TrainerConfig,
    fresh_probs: bool = False,
) -> tuple[Params, Params]:
    """Actor and critic gradients of one episode's transitions for one team.

    For every transition and member j: v is the critic baseline on the
    current sub-graph (member j's action swept, others fixed at the joint
    the world executed), v' the same on the successor sub-graph with the
    next step's executed joint (zero when the agent or episode terminated;
    the successor's plain value when j drifted out of the successor
    sub-graph), and delta = R + gamma*v' - v weights both the actor's
    log-probability gradient and the critic's value gradient. The actor term
    attaches to each member's ensemble draw taken before coercion
    (``Transitions.sampled``); the critic is trained on, and swept around,
    the executed joint.

    Each sub-graph of ``transitions.dec`` is swept once per call, and v'
    reads its successor's sweep: in batch mode a later transition's, in
    per-step mode one of the successors held after the transitions.
    """
    assert nets.critic is not None
    policy, critic = nets.policy, nets.critic
    if not transitions:
        return zeros_like_params(policy), zeros_like_params(critic)

    # one row per (sub-graph, member), the transitions' own first
    dec, executed = transitions.dec, transitions.executed
    probs = _fresh_probs(dec, policy) if fresh_probs else transitions.probs
    table = np.concatenate(sweep_values(Entries(dec, executed), critic))
    sizes, members = dec.sizes(), dec.members
    value = (probs * table).sum(axis=1)  # each member's baseline
    plain = table[dec.offsets[:-1], executed[dec.offsets[:-1]]]  # base joint values

    # v' of each own row: the successor's row of the same agent, found by its
    # (sub-graph, agent) key, or the successor's plain value when the agent left it
    own_sizes = sizes[: len(transitions)]
    succ = np.repeat(transitions.succ, own_sizes)
    stride = int(members.max()) + 1
    keys = np.repeat(np.arange(len(dec)), sizes) * stride + members
    order = np.argsort(keys)
    want = succ * stride + members[: len(succ)]
    hit = order[np.minimum(np.searchsorted(keys, want, sorter=order), len(keys) - 1)]
    vn = np.where(keys[hit] == want, value[hit], plain[succ])
    vn[succ < 0] = 0.0

    reward = np.repeat(transitions.reward, own_sizes)
    deltas = reward + tcfg.gamma * vn - value[: len(succ)]
    pol = _policy_pass(transitions, deltas, policy)
    per_transition = np.split(deltas, np.cumsum(own_sizes)[:-1])
    cri = _critic_pass(transitions, np.array([d.sum() for d in per_transition]), critic)
    return pol, cri


def _returns_to_go(ids: np.ndarray, t: np.ndarray, rewards: np.ndarray, gamma: float) -> np.ndarray:
    """G = r + gamma * G' per row of agent ``ids`` at ascending steps ``t``, G' the
    agent's row one step later or 0; added last step first, as in :func:`returns_to_go`."""
    g, acc = np.empty(len(ids)), np.zeros(int(ids.max()) + 1)
    for step in range(int(t[-1]), -1, -1):
        k = np.flatnonzero(t == step)
        g[k] = acc[ids[k]] = rewards[k] + gamma * acc[ids[k]]
    return g


def graph_pg_episode_grads(
    transitions: Transitions,
    nets: TeamNets,
    tcfg: TrainerConfig,
) -> Params:
    """Policy gradient with the centre's return-to-go as the coefficient."""
    n = len(transitions)
    if not n:
        return zeros_like_params(nets.policy)
    dec = transitions.dec
    g = _returns_to_go(dec.centres[:n], transitions.t[:n], transitions.reward, tcfg.gamma)
    return _policy_pass(transitions, np.repeat(g, dec.sizes()[:n]), nets.policy)


def vanilla_episode_grads(
    flats: Sequence[FlatStep],
    nets: TeamNets,
    tcfg: TrainerConfig,
) -> Params:
    """REINFORCE on the per-agent perceptron: G_t * grad ln pi(a_t | x_t)."""
    grads = zeros_like_params(nets.policy)
    if not flats:
        return grads
    ids = np.concatenate([fs.ids for fs in flats])
    t = np.repeat(np.arange(len(flats)), [len(fs.ids) for fs in flats])
    coeff = _returns_to_go(ids, t, np.concatenate([fs.rewards for fs in flats]), tcfg.gamma)
    feats = np.concatenate([fs.feats for fs in flats], axis=0)
    sampled = np.concatenate([fs.sampled for fs in flats])
    logp, trace = mlp_logprobs(feats, nets.policy, record=True)
    seed = np.zeros_like(logp)
    seed[np.arange(len(sampled)), sampled] = coeff
    add_scaled_(grads, backward(trace, seed))
    return grads


# -- batch metrics and the trainer -------------------------------------------


@dataclass
class BatchMetrics:
    batch: int
    team: int
    mean_reward: float
    win_rate: Optional[float]
    lr: float
    seconds: float
    mean_alive: float
    subgraph_count: float
    mean_subgraph_size: float


class Trainer:
    """Owns per-team networks and advances them batch by batch.

    Episode e of batch b always sees the world and rng streams derived from
    (seed, b, e).
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        trainer: TrainerConfig,
        network: NetConfig,
        seed: int = 0,
        world_factory: Optional[Callable[[int, int], GridWorld]] = None,
    ):
        trainer.validate()
        network.validate()
        probe = new_scenario(scenario, 0)
        self.scenario = scenario
        self.tcfg = trainer
        self.ncfg = network
        self.seed = seed
        self.team = probe.team  # of each agent id
        self.teams = np.unique(self.team).tolist()
        self.nets = {
            t: new_team_nets(
                trainer,
                network,
                np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, t))),
            )
            for t in self.teams
        }
        self.batch_index = 0
        self._world_factory = world_factory

    def _world(self, batch: int, ep: int) -> GridWorld:
        if self._world_factory is not None:
            return self._world_factory(batch, ep)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(1, batch, ep))
        return new_scenario(self.scenario, int(ss.generate_state(1)[0]))

    def _rng(self, batch: int, ep: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(2, batch, ep))
        )

    def _episode(self, batch: int, ep: int) -> EpisodeResult:
        world = self._world(batch, ep)
        rng = self._rng(batch, ep)
        if self.tcfg.algorithm == "vanilla-pg":
            return rollout_flat(world, self.nets, rng, collect=True)
        if not self.tcfg.per_step_updates:
            return rollout_graph(world, self.nets, self.tcfg, self.ncfg, rng, collect=True)

        # per-step mode: a step's transitions update the networks once the
        # next step is sampled (values need its joint); the last has none
        prev: Optional[StepData] = None

        def update_prev(sd: StepData) -> None:
            nonlocal prev
            if prev is not None:
                self._apply_step_updates(prev, sd)
            prev = sd

        res = rollout_graph(
            world, self.nets, self.tcfg, self.ncfg, rng, collect=False, on_step=update_prev
        )
        if prev is not None:
            self._apply_step_updates(prev, None)
        return res

    def _apply_step_updates(self, sd: StepData, nxt: Optional[StepData]) -> None:
        for team in self.teams:
            # all alive at t + 1 were alive at t: step t + 1 holds just the successors
            transitions = team_transitions([sd] if nxt is None else [sd, nxt], self.team, team)
            n = int(np.count_nonzero(transitions.t == 0))
            transitions.reward, transitions.succ = transitions.reward[:n], transitions.succ[:n]
            if not transitions:
                continue
            nets = self.nets[team]
            pol, cri = ac_episode_grads(transitions, nets, self.tcfg, fresh_probs=True)
            scale_(pol, -1.0)
            scale_(cri, -1.0)
            self._adam_step(team, "policy", nets.policy, pol, nets.adam_policy)
            assert nets.critic is not None and nets.adam_critic is not None
            self._adam_step(team, "critic", nets.critic, cri, nets.adam_critic)

    def _adam_step(self, team: int, net: str, params: Params, grads: Params, st: AdamState) -> None:
        check_finite(grads, f"team {team} {net} gradient at batch {self.batch_index}")
        adam_step(params, grads, st)

    def train_batch(self) -> list[BatchMetrics]:
        t0 = time.perf_counter()
        results = [self._episode(self.batch_index, e) for e in range(self.tcfg.batch_episodes)]
        if not self.tcfg.per_step_updates:
            self._apply_batch_updates(results)
        seconds = time.perf_counter() - t0
        rows = []
        for team in self.teams:
            nets = self.nets[team]
            mean_reward = float(np.mean([ep.stats.returns[team] for ep in results]))
            wins = [ep.stats.wins.get(team) for ep in results]
            win_rate = float(np.mean(wins)) if all(w is not None for w in wins) else None
            new_lr = plateau_update(nets.sched, mean_reward)
            nets.adam_policy.lr = new_lr
            if nets.adam_critic is not None:
                nets.adam_critic.lr = new_lr * nets.lr_ratio
            subg = float(np.mean([ep.stats.subgraphs for ep in results]))
            total_sub = sum(ep.stats.subgraphs for ep in results)
            total_size = sum(ep.stats.subgraph_size_sum for ep in results)
            rows.append(
                BatchMetrics(
                    batch=self.batch_index,
                    team=team,
                    mean_reward=mean_reward,
                    win_rate=win_rate,
                    lr=new_lr,
                    seconds=seconds,
                    mean_alive=float(np.mean([ep.stats.alive_end[team] for ep in results])),
                    subgraph_count=subg,
                    mean_subgraph_size=(total_size / total_sub) if total_sub else 0.0,
                )
            )
        self.batch_index += 1
        return rows

    def _apply_batch_updates(self, results: Sequence[EpisodeResult]) -> None:
        inv = -1.0 / len(results)
        for team in self.teams:
            nets = self.nets[team]
            acc_p = zeros_like_params(nets.policy)
            acc_c = zeros_like_params(nets.critic) if nets.critic is not None else None
            for ep in results:
                if self.tcfg.algorithm == "vanilla-pg":
                    assert ep.flat is not None
                    add_scaled_(acc_p, vanilla_episode_grads(ep.flat.get(team, []), nets, self.tcfg))
                    continue
                assert ep.steps is not None
                transitions = team_transitions(ep.steps, self.team, team)
                if self.tcfg.algorithm == "graph-ac":
                    pol, cri = ac_episode_grads(transitions, nets, self.tcfg)
                    add_scaled_(acc_p, pol)
                    assert acc_c is not None
                    add_scaled_(acc_c, cri)
                else:
                    add_scaled_(acc_p, graph_pg_episode_grads(transitions, nets, self.tcfg))
                del transitions  # built just before its gradients, dropped after them
            scale_(acc_p, inv)
            self._adam_step(team, "policy", nets.policy, acc_p, nets.adam_policy)
            if acc_c is not None:
                scale_(acc_c, inv)
                assert nets.critic is not None and nets.adam_critic is not None
                self._adam_step(team, "critic", nets.critic, acc_c, nets.adam_critic)

    def train(
        self,
        batches: int,
        on_batch: Optional[Callable[[list[BatchMetrics]], None]] = None,
    ) -> list[BatchMetrics]:
        out: list[BatchMetrics] = []
        for _ in range(batches):
            rows = self.train_batch()
            out.extend(rows)
            if on_batch is not None:
                on_batch(rows)
        return out


def evaluate(
    scenario: ScenarioConfig,
    nets: Mapping[int, TeamNets],
    tcfg: TrainerConfig,
    ncfg: NetConfig,
    episodes: int,
    seed: int = 0,
    mode: str = "greedy",
    random_teams: frozenset[int] = frozenset(),
) -> dict[int, dict[str, Optional[float]]]:
    """Frozen-policy evaluation; returns per-team summary statistics."""
    teams = sorted(nets)
    stats: list[EpisodeStats] = []
    vanilla = isinstance(nets[teams[0]].policy, MlpParams)
    for e in range(episodes):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(3, e))
        world = new_scenario(scenario, int(ss.generate_state(1)[0]))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(4, e)))
        if vanilla:
            res = rollout_flat(world, nets, rng, collect=False, mode=mode, random_teams=random_teams)
        else:
            res = rollout_graph(
                world, nets, tcfg, ncfg, rng, collect=False, mode=mode, random_teams=random_teams
            )
        stats.append(res.stats)
    out: dict[int, dict[str, Optional[float]]] = {}
    for t in teams:
        wins = [s.wins.get(t) for s in stats]
        out[t] = {
            "mean_reward": float(np.mean([s.returns[t] for s in stats])),
            "win_rate": float(np.mean(wins)) if all(w is not None for w in wins) else None,
            "mean_alive": float(np.mean([s.alive_end[t] for s in stats])),
            "mean_steps": float(np.mean([s.steps for s in stats])),
        }
    return out
