"""Agent-interaction graphs and their local decomposition.

Vertices are the living agents. An edge joins two agents whose Chebyshev
distance is at most one, i.e. each stands inside the other's 3x3 window
(overlapping agents are distance zero). The only geometry the networks ever
see is the Euclidean edge length expanded in a Gaussian radial basis, so the
whole pipeline is invariant to translations, rotations and mirrorings of the
board.

Each agent trains and acts on its own neighbourhood: :func:`decompose` cuts
the graph into one sub-graph per agent holding everything within ``depth``
breadth-first hops of it. Members are listed in breadth-first order with ties
broken by ascending agent id, and every induced edge is materialized in both
directions so the message passing can treat edges as directed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyWorld, MemberNotFound
from .gridworld import (
    CH_FOOD,
    CH_LANDMARK,
    CH_OWN,
    CH_WALL,
    GridWorld,
    N_CHANNELS,
    OBS_SIZE,
    Scenario,
)

VERTEX_DIM = 2 + OBS_SIZE  # team one-hot ++ flattened 3x3x5 observation
DEFAULT_DELTA_D = 0.3
DEFAULT_N_MAX = 10


def rbe(d: float, delta_d: float = DEFAULT_DELTA_D, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Gaussian radial basis expansion of a distance.

    Element n is exp(-(d - n*delta_d)^2 / delta_d) for n = 0..n_max-1, so a
    distance sitting exactly on a grid point n*delta_d produces a 1.0 there.
    """
    if not np.isfinite(d) or d < 0.0:
        raise DomainError(f"distance must be finite and non-negative, got {d}")
    if delta_d <= 0.0 or not np.isfinite(delta_d):
        raise DomainError(f"delta_d must be positive, got {delta_d}")
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    centers = np.arange(n_max) * delta_d
    return np.exp(-((d - centers) ** 2) / delta_d)


def _rbe_rows(dists: np.ndarray, delta_d: float, n_max: int) -> np.ndarray:
    centers = np.arange(n_max) * delta_d
    return np.exp(-((dists[:, None] - centers[None, :]) ** 2) / delta_d)


def vertex_features(world: GridWorld, agent_id: int) -> np.ndarray:
    """47-dim feature: team one-hot (2) ++ the agent's flattened observation."""
    a = world.agent(agent_id)
    onehot = np.zeros(2)
    onehot[a.team] = 1.0
    return np.concatenate([onehot, world.observe(agent_id).reshape(OBS_SIZE)])


def all_vertex_features(world: GridWorld) -> tuple[np.ndarray, np.ndarray]:
    """Features of every living agent at once (ids ascending).

    Vectorized equivalent of calling :func:`vertex_features` per agent; the
    per-channel boards are padded with a one-cell wall border so the window
    gather needs no bounds handling.
    """
    alive = [a for a in world.agents if a.alive]
    if not alive:
        raise EmptyWorld("no living agents")
    h, w = world.height, world.width
    wall = np.ones((h + 2, w + 2))
    wall[1:-1, 1:-1] = 0.0
    food = np.zeros((h + 2, w + 2))
    lmark = np.zeros((h + 2, w + 2))
    tbonus = np.zeros((h + 2, w + 2))
    for p in world.walls:
        wall[p.y + 1, p.x + 1] = 1.0
    for p in world.foods:
        food[p.y + 1, p.x + 1] = 1.0
    for p in world.landmarks:
        lmark[p.y + 1, p.x + 1] = 1.0
    tgt = world.target_cell()
    if tgt is not None:
        tbonus[tgt.y + 1, tgt.x + 1] = 1.0

    counts = np.zeros((2, h + 2, w + 2))
    for a in alive:
        counts[a.team, a.pos.y + 1, a.pos.x + 1] += 1.0

    n = len(alive)
    xs = np.array([a.pos.x for a in alive])
    ys = np.array([a.pos.y for a in alive])
    teams = np.array([a.team for a in alive])
    dy, dx = np.mgrid[0:3, 0:3]
    rows = ys[:, None, None] + dy[None, :, :]
    cols = xs[:, None, None] + dx[None, :, :]

    patch = np.zeros((n, 3, 3, N_CHANNELS))
    patch[..., CH_WALL] = wall[rows, cols]
    patch[..., CH_FOOD] = food[rows, cols]
    lm = lmark[rows, cols]
    if world.scenario is Scenario.DECEPTION:
        lm = lm + (teams == 0)[:, None, None] * tbonus[rows, cols]
    patch[..., CH_LANDMARK] = lm
    own = counts[teams[:, None, None], rows, cols]
    other = counts[1 - teams[:, None, None], rows, cols]
    own[:, 1, 1] -= 1.0  # the observer never counts itself
    patch[..., CH_OWN] = own
    patch[..., CH_OWN + 1] = other

    onehot = np.zeros((n, 2))
    onehot[np.arange(n), teams] = 1.0
    feats = np.concatenate([onehot, patch.reshape(n, OBS_SIZE)], axis=1)
    ids = np.array([a.id for a in alive])
    return ids, feats


@dataclass
class EnvGraph:
    """The full interaction graph of one world snapshot.

    ``edges`` holds each undirected pair once as (u, v) local indices with
    u < v; ``adjacency`` lists neighbours per local index, ascending.
    """

    ids: np.ndarray        # (n,) agent ids, ascending
    features: np.ndarray   # (n, VERTEX_DIM)
    edges: np.ndarray      # (e, 2) int local indices, u < v
    dists: np.ndarray      # (e,) Euclidean lengths
    adjacency: list[list[int]]

    def n_vertices(self) -> int:
        return len(self.ids)


def build_graph(world: GridWorld) -> EnvGraph:
    """Snapshot the interaction graph of the world's living agents."""
    ids, feats = all_vertex_features(world)
    alive = [a for a in world.agents if a.alive]
    cell_of = {}
    for local, a in enumerate(alive):
        cell_of.setdefault(a.pos, []).append(local)

    edge_list: list[tuple[int, int]] = []
    dist_list: list[float] = []
    adjacency: list[list[int]] = [[] for _ in alive]
    for u, a in enumerate(alive):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                cell = (a.pos.x + dx, a.pos.y + dy)
                for v in cell_of.get(cell, ()):
                    if v <= u:
                        continue
                    d = math.sqrt(dx * dx + dy * dy)
                    edge_list.append((u, v))
                    dist_list.append(d)
                    adjacency[u].append(v)
                    adjacency[v].append(u)
    for neigh in adjacency:
        neigh.sort()

    edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2)
    return EnvGraph(
        ids=ids,
        features=feats,
        edges=edges,
        dists=np.array(dist_list),
        adjacency=adjacency,
    )


@dataclass
class SubGraph:
    """Everything within ``depth`` hops of one centre agent.

    ``members`` are agent ids in breadth-first order (centre first, ties by
    ascending id). Edges are the induced ones, materialized in both
    directions; ``edge_src``/``edge_dst`` index into the member list.
    """

    centre: int
    members: np.ndarray    # (m,) agent ids
    features: np.ndarray   # (m, VERTEX_DIM)
    edge_src: np.ndarray   # (e,) member slots
    edge_dst: np.ndarray   # (e,)
    edge_dist: np.ndarray  # (e,)
    edge_feat: np.ndarray  # (e, n_max)
    depth: int

    def n_members(self) -> int:
        return len(self.members)

    def member_slot(self, agent_id: int) -> int:
        hits = np.nonzero(self.members == agent_id)[0]
        if not len(hits):
            raise MemberNotFound(f"agent {agent_id} is not in the sub-graph of {self.centre}")
        return int(hits[0])


def decompose(
    g: EnvGraph,
    depth: int = 3,
    delta_d: float = DEFAULT_DELTA_D,
    n_max: int = DEFAULT_N_MAX,
) -> list[SubGraph]:
    """One sub-graph per vertex, in ascending agent-id order."""
    if depth < 1:
        raise DomainError(f"depth must be at least 1, got {depth}")
    if g.n_vertices() == 0:
        raise EmptyWorld("cannot decompose an empty graph")

    # index undirected edges for induced-edge lookup
    pair_dist = dict(zip(map(tuple, g.edges.tolist()), g.dists.tolist()))

    out: list[SubGraph] = []
    for centre_local in range(g.n_vertices()):
        members = [centre_local]
        seen = {centre_local}
        frontier = [centre_local]
        for _ in range(depth):
            nxt: set[int] = set()
            for u in frontier:
                for v in g.adjacency[u]:
                    if v not in seen:
                        nxt.add(v)
            frontier = sorted(nxt)  # breadth-first level, ascending id
            seen.update(frontier)
            members.extend(frontier)
            if not frontier:
                break

        slot = {loc: k for k, loc in enumerate(members)}
        src, dst, dist = [], [], []
        for k, loc in enumerate(members):
            for nb in g.adjacency[loc]:
                j = slot.get(nb)
                if j is None or j <= k:
                    continue
                d = pair_dist[(min(loc, nb), max(loc, nb))]
                src += [k, j]
                dst += [j, k]
                dist += [d, d]

        dist_arr = np.array(dist)
        out.append(
            SubGraph(
                centre=int(g.ids[centre_local]),
                members=g.ids[np.array(members, dtype=np.int64)],
                features=g.features[np.array(members, dtype=np.int64)],
                edge_src=np.array(src, dtype=np.int64),
                edge_dst=np.array(dst, dtype=np.int64),
                edge_dist=dist_arr,
                edge_feat=_rbe_rows(dist_arr, delta_d, n_max)
                if len(dist)
                else np.zeros((0, n_max)),
                depth=depth,
            )
        )
    return out
