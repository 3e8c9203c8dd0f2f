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

The decomposition is one :class:`Decomposition`, a struct of arrays rather
than an object per sub-graph. The members of all sub-graphs are concatenated
centre after centre, with their feature rows, and ``offsets`` marks where
each sub-graph starts. The edges are concatenated the same way, with
``edge_offsets``: endpoints as member slots local to their sub-graph, then
lengths and radial-basis rows. Batched forwards read these arrays as they
are; ``dec[i]`` gives sub-graph i as a :class:`SubGraph` view for code that
handles one sub-graph at a time. All centres are searched at once, level by
level, over the graph's adjacency in compressed sparse rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

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
    window,
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


def _alive(world: GridWorld) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ids, x, y and team of every living agent, ids ascending."""
    ids = np.flatnonzero(world.alive)
    if not len(ids):
        raise EmptyWorld("no living agents")
    xs, ys = world.pos[ids].T
    return ids, xs, ys, world.team[ids]


def _features(world: GridWorld, xs: np.ndarray, ys: np.ndarray, teams: np.ndarray) -> np.ndarray:
    """Vertex features of the living agents at (xs, ys) of the given teams.

    Every channel is a window of one of the world's padded boards.
    """
    n = len(xs)
    patch = np.zeros((n, 3, 3, N_CHANNELS))
    patch[..., CH_WALL] = window(world.wall_board, xs, ys)
    patch[..., CH_FOOD] = window(world.food_board, xs, ys)
    home = (teams == 0)[:, None, None]
    patch[..., CH_LANDMARK] = window(world.landmark_board, xs, ys) + home * window(world.target_board, xs, ys)
    counts = window(world.occupancy(xs, ys, teams), xs, ys)  # (2, n, 3, 3)
    own = counts[teams, np.arange(n)]
    own[:, 1, 1] -= 1  # the observer never counts itself
    patch[..., CH_OWN] = own
    patch[..., CH_OWN + 1] = counts[1 - teams, np.arange(n)]

    onehot = np.zeros((n, 2))
    onehot[np.arange(n), teams] = 1.0
    return np.concatenate([onehot, patch.reshape(n, OBS_SIZE)], axis=1)


def all_vertex_features(world: GridWorld) -> tuple[np.ndarray, np.ndarray]:
    """Features of every living agent at once (ids ascending).

    Vectorized equivalent of calling :func:`vertex_features` per agent.
    """
    ids, xs, ys, teams = _alive(world)
    return ids, _features(world, xs, ys, teams)


def _segment_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + lens[i] - 1, concatenated over i."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lens), lens)


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)])


@dataclass
class EnvGraph:
    """The full interaction graph of one world snapshot.

    ``edges`` holds each undirected pair once as (u, v) local indices with
    u < v. The adjacency follows from them in compressed sparse rows: the
    neighbours of local index u are ``nbrs[indptr[u]:indptr[u + 1]]``,
    ascending, and ``nbr_dist`` holds the matching edge lengths.
    """

    ids: np.ndarray        # (n,) agent ids, ascending
    features: np.ndarray   # (n, VERTEX_DIM)
    edges: np.ndarray      # (e, 2) int local indices, u < v
    dists: np.ndarray      # (e,) Euclidean lengths
    indptr: np.ndarray = field(init=False)    # (n + 1,)
    nbrs: np.ndarray = field(init=False)      # (2e,) local indices
    nbr_dist: np.ndarray = field(init=False)  # (2e,)

    def __post_init__(self) -> None:
        n = len(self.ids)
        u, v = self.edges[:, 0], self.edges[:, 1]
        src, dst = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.argsort(src * n + dst)
        self.indptr = _offsets(np.bincount(src, minlength=n))
        self.nbrs = dst[order]
        self.nbr_dist = np.concatenate([self.dists, self.dists])[order]

    def n_vertices(self) -> int:
        return len(self.ids)


# Euclidean length from the centre of the 3x3 window to each of its cells,
# row-major: sqrt(dy^2 + dx^2)
_WINDOW_LEN = np.sqrt(np.add.outer([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])).ravel()


def build_graph(world: GridWorld) -> EnvGraph:
    """Snapshot the interaction graph of the world's living agents.

    Neighbour pairs come from sorting the agents by padded cell index: each
    agent looks up the agents of the nine cells of its window in the sorted
    order. Pairs are listed by u, then by window cell in row-major order,
    then by ascending v.
    """
    ids, xs, ys, teams = _alive(world)
    index = np.arange((world.height + 2) * (world.width + 2)).reshape(world.height + 2, -1)
    cells = window(index, xs, ys).reshape(len(ids), len(_WINDOW_LEN))
    cell = cells[:, len(_WINDOW_LEN) // 2]  # each agent's own
    by_cell = np.argsort(cell, kind="stable")  # within a cell, ascending local index
    sorted_cells = cell[by_cell]
    lo = np.searchsorted(sorted_cells, cells, side="left").ravel()
    hits = np.searchsorted(sorted_cells, cells, side="right").ravel() - lo
    # one candidate per (u, window cell, occupant), in that order
    cand = np.repeat(np.arange(len(lo)), hits)
    v = by_cell[_segment_arange(lo, hits)]
    u = cand // len(_WINDOW_LEN)
    keep = v > u
    return EnvGraph(
        ids=ids,
        features=_features(world, xs, ys, teams),
        edges=np.stack([u[keep], v[keep]], axis=1),
        dists=_WINDOW_LEN[cand[keep] % len(_WINDOW_LEN)],
    )


@dataclass
class SubGraph:
    """Everything within ``depth`` hops of one centre agent.

    :class:`Decomposition` hands these out as views of its arrays.

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


@dataclass
class Decomposition:
    """Every sub-graph of one graph, stored as concatenated arrays.

    Sub-graph i is centred on agent ``centres[i]``. Its members are rows
    ``offsets[i]:offsets[i + 1]`` of ``members`` and ``features``; its
    edges are rows ``edge_offsets[i]:edge_offsets[i + 1]`` of the edge
    arrays, whose ``edge_src``/``edge_dst`` index the sub-graph's own member
    list. ``len``, iteration and ``dec[i]`` give :class:`SubGraph` views.
    """

    centres: np.ndarray       # (s,) agent ids
    members: np.ndarray       # (M,) agent ids, sub-graph after sub-graph
    features: np.ndarray      # (M, VERTEX_DIM)
    offsets: np.ndarray       # (s + 1,)
    edge_src: np.ndarray      # (E,) member slots within the sub-graph
    edge_dst: np.ndarray      # (E,)
    edge_dist: np.ndarray     # (E,)
    edge_feat: np.ndarray     # (E, n_max)
    edge_offsets: np.ndarray  # (s + 1,)
    depth: int

    def __len__(self) -> int:
        return len(self.centres)

    def __getitem__(self, i: int) -> SubGraph:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        elo, ehi = self.edge_offsets[i], self.edge_offsets[i + 1]
        return SubGraph(
            centre=int(self.centres[i]),
            members=self.members[lo:hi],
            features=self.features[lo:hi],
            edge_src=self.edge_src[elo:ehi],
            edge_dst=self.edge_dst[elo:ehi],
            edge_dist=self.edge_dist[elo:ehi],
            edge_feat=self.edge_feat[elo:ehi],
            depth=self.depth,
        )

    def __iter__(self) -> Iterator[SubGraph]:
        return (self[i] for i in range(len(self)))

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def rows(self, index: np.ndarray) -> np.ndarray:
        """Member rows of the sub-graphs ``index``, in that order."""
        return _segment_arange(self.offsets[index], self.sizes()[index])

    def take(self, index: np.ndarray) -> Decomposition:
        """The sub-graphs ``index``, in that order, as a decomposition of their own."""
        rows = self.rows(index)
        n_edges = np.diff(self.edge_offsets)[index]
        edges = _segment_arange(self.edge_offsets[index], n_edges)
        return Decomposition(
            centres=self.centres[index],
            members=self.members[rows],
            features=self.features[rows],
            offsets=_offsets(self.sizes()[index]),
            edge_src=self.edge_src[edges],
            edge_dst=self.edge_dst[edges],
            edge_dist=self.edge_dist[edges],
            edge_feat=self.edge_feat[edges],
            edge_offsets=_offsets(n_edges),
            depth=self.depth,
        )

    @staticmethod
    def concat(parts: Sequence[Decomposition]) -> Decomposition:
        """The sub-graphs of ``parts``, one part after another, as one decomposition."""
        arrays = ("centres", "members", "features", "edge_src", "edge_dst", "edge_dist", "edge_feat")
        return Decomposition(
            **{name: np.concatenate([getattr(p, name) for p in parts]) for name in arrays},
            offsets=_offsets(np.concatenate([p.sizes() for p in parts])),
            edge_offsets=_offsets(np.concatenate([np.diff(p.edge_offsets) for p in parts])),
            depth=parts[0].depth,
        )


def decompose(
    g: EnvGraph,
    depth: int = 3,
    delta_d: float = DEFAULT_DELTA_D,
    n_max: int = DEFAULT_N_MAX,
) -> Decomposition:
    """One sub-graph per vertex, in ascending agent-id order.

    All centres search at once. A (centre, vertex) pair is keyed
    centre * n + vertex; each breadth-first level expands the previous
    level's pairs over the adjacency rows and keeps the unique keys not
    reached before, so a level comes out in ascending vertex order per
    centre. An induced edge is a member's neighbour that is a member of the
    same sub-graph at a later slot, found by a sorted search of the member
    keys; it is listed by source slot, then by ascending neighbour, each
    pair as (k, j) then (j, k).
    """
    if depth < 1:
        raise DomainError(f"depth must be at least 1, got {depth}")
    n = g.n_vertices()
    if n == 0:
        raise EmptyWorld("cannot decompose an empty graph")
    deg = np.diff(g.indptr)

    def expand(centre: np.ndarray, vertex: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each (centre, vertex) pair's adjacency entries, vertex by vertex."""
        k = deg[vertex]
        return np.repeat(centre, k), _segment_arange(g.indptr[vertex], k)

    level = np.arange(n) * n + np.arange(n)  # level 0: each centre alone
    levels = [level]
    seen = level  # sorted
    for _ in range(depth):
        centre, adj = expand(level // n, level % n)
        level = np.sort(centre * n + g.nbrs[adj])
        new = np.ones(len(level), dtype=bool)
        new[1:] = level[1:] != level[:-1]
        new &= seen[np.minimum(np.searchsorted(seen, level), len(seen) - 1)] != level
        level = level[new]
        if not len(level):
            break
        levels.append(level)
        seen = np.sort(np.concatenate([seen, level]), kind="stable")

    keys = np.concatenate(levels)
    keys = keys[np.argsort(keys // n, kind="stable")]  # by centre, then level
    centre, vertex = keys // n, keys % n
    offsets = _offsets(np.bincount(centre, minlength=n))
    slot = np.arange(len(keys)) - offsets[centre]

    row_of, adj = expand(np.arange(len(keys)), vertex)
    want = centre[row_of] * n + g.nbrs[adj]
    by_key = np.argsort(keys)
    hit = by_key[np.minimum(np.searchsorted(keys, want, sorter=by_key), len(keys) - 1)]
    keep = (keys[hit] == want) & (slot[hit] > slot[row_of])
    k, j = slot[row_of[keep]], slot[hit[keep]]
    edge_src = np.stack([k, j], axis=1).ravel()
    edge_dist = np.repeat(g.nbr_dist[adj[keep]], 2)
    # a row depends on its length alone, and a grid has few distinct lengths
    lengths, length_of = np.unique(edge_dist, return_inverse=True)
    return Decomposition(
        centres=g.ids,
        members=g.ids[vertex],
        features=g.features[vertex],
        offsets=offsets,
        edge_src=edge_src,
        edge_dst=np.stack([j, k], axis=1).ravel(),
        edge_dist=edge_dist,
        edge_feat=_rbe_rows(lengths, delta_d, n_max)[length_of],
        edge_offsets=_offsets(2 * np.bincount(centre[row_of[keep]], minlength=n)),
        depth=depth,
    )
