"""Batched message-passing forward passes for policy and critic.

Any number of sub-graphs are processed at once by flattening them into one
disjoint union: per vertex a row index into a shared feature table (and, for
the critic, an action), per edge a code into a shared table of radial-basis
rows, directed edge index arrays offset per sub-graph, and a
vertex-to-sub-graph map for the critic's sum pooling. Every linear layer
runs on the fewest rows its input depends on and its outputs are gathered:
the embedding multiplies each table row once, the first edge layer each
distinct edge length once and each vertex state once per endpoint role.

A policy batch of a decomposition shares more: an agent is the centre of its
own sub-graph and a member of its neighbours', and sub-graphs are induced
balls, so a member far enough inside its sub-graph has the state it has in
the whole graph. Its forward runs the rounds once over the step graphs, then
only over each sub-graph's shell, the members whose neighbourhood the depth
cut truncates, and gathers each member row's output (:func:`_trunk`), unless
that union holds no fewer vertices than the sub-graphs. The critic's passes
evaluate every sub-graph on its own.

The same forward routine runs in two modes sharing one code path: plain numpy
(sampling, baseline sweeps) and recorded (builds an autodiff graph whose
:func:`backward` yields parameter gradients). A recorded pass takes its data
(the feature table, the one-hot block, the radial-basis rows) as constants,
so the backward pass computes adjoints for the parameters and what depends
on them only, and frees each once it is passed on. A baseline sweep
(:func:`critic_deviations`) keeps the plain pass's states and patches them
for each single-member action deviation, re-evaluating only the vertices
and edges the deviation reaches, one alternative action at a time so that
its temporaries hold one alternative's rows.

Wiring per round, following the two-panel network diagram: edges refresh
first from their endpoints' current vertex values, then vertices refresh
from their incoming refreshed edges with a residual connection. The policy
head emits one 5-way log-softmax row per vertex; the critic sums member
vertices per sub-graph and emits one scalar, with the chosen joint action
entering as per-vertex one-hot input columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ShapeError, StaleTrace
from ..graph import Decomposition, SubGraph, _segment_arange
from ..gridworld import N_ACTIONS
from . import autodiff as ad
from .params import LayerParams, MlpParams, NetParams, Params, zeros_like_params

_ONE_HOT = np.eye(N_ACTIONS)


@dataclass
class Shared:
    """The graphs that a policy batch's sub-graphs were cut from.

    Vertex row v of the batch lies ``hop[v]`` hops from its sub-graph's
    centre, within ``depth``; edge e of the batch is graph edge
    ``edge_adj[e]``. The graphs' vertices are the table rows
    ``first:first + n``; graph edge a runs from vertex ``src[a]`` to vertex
    ``dst[a]`` (``src`` ascending, vertices counted from ``first``) and has
    radial-basis row ``rbf[code[a]]``.
    """

    depth: int
    hop: np.ndarray       # (v,)
    edge_adj: np.ndarray  # (e,)
    first: int
    n: int
    src: np.ndarray       # (a,)
    dst: np.ndarray       # (a,)
    code: np.ndarray      # (a,)

    def cut(self, rows: np.ndarray, lo: int, hi: int, elo: int, ehi: int) -> Shared:
        """The part of vertex rows ``lo:hi``, whose table rows are ``rows``, and
        edges ``elo:ehi``: the graph vertices those rows span and the graph
        edges among them.

        A graph the span cuts in two loses its edges that leave the span,
        and so do the states of its vertices near the cut; but those are no
        interior row's, since an interior row's neighbours within the
        network's rounds are rows of its own sub-graph, inside the span.
        """
        span = (int(rows.min()), int(rows.max()) + 1) if len(rows) else (self.first, self.first)
        v0, v1 = span[0] - self.first, span[1] - self.first
        a0, a1 = np.searchsorted(self.src, [v0, v1])
        src, dst, code = self.src[a0:a1] - v0, self.dst[a0:a1] - v0, self.code[a0:a1]
        adj = self.edge_adj[elo:ehi] - a0
        inside = dst >= 0
        inside &= dst < v1 - v0
        if not inside.all():
            src, dst, code = src[inside], dst[inside], code[inside]
            adj = (np.cumsum(inside) - 1)[adj]
        return Shared(self.depth, self.hop[lo:hi], adj, self.first + v0, v1 - v0, src, dst, code)


@dataclass
class GraphBatch:
    """A disjoint union of sub-graphs, flattened for batched passes.

    Vertex v's features are ``table[rows[v]]`` and, in a critic batch, its
    action is ``acts[v]``; edge e's radial-basis row is ``rbf[edge_code[e]]``.
    The tables are shared with what the batch was built from and with the
    batches :meth:`graphs` cuts from it: nothing gathers their rows but
    :attr:`x`, which no forward reads.

    A policy batch of a decomposition also holds the graphs its sub-graphs
    were cut from (``shared``), and its forward runs the trunk once over
    them and then over each sub-graph's shell only (:func:`_trunk`). The
    vertex rows, :attr:`x` and :meth:`n_vertices` still count one row per
    (sub-graph, member), and the forward's outputs keep that shape.
    """

    table: np.ndarray           # (n, f) vertex feature rows
    rows: np.ndarray            # (v,) each vertex's row of table
    acts: Optional[np.ndarray]  # (v,) each vertex's action in a critic batch, else None
    rbf: np.ndarray             # (L, d) radial-basis rows
    edge_code: np.ndarray       # (e,) each edge's row of rbf
    edge_src: np.ndarray        # (e,) vertex indices
    edge_dst: np.ndarray        # (e,)
    graph_of: np.ndarray        # (v,) owning sub-graph per vertex
    n_graphs: int
    shared: Optional[Shared] = None
    regions: Optional[_Regions] = field(default=None, repr=False)  # kept by _regions

    @property
    def x(self) -> np.ndarray:
        """(v, f) vertex inputs, gathered on demand: the features, then in a
        critic batch the action's one-hot block."""
        x = np.take(self.table, self.rows, axis=0)
        return x if self.acts is None else np.concatenate([x, _ONE_HOT[self.acts]], axis=1)

    def n_vertices(self) -> int:
        return len(self.rows)

    def sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex rows and edges of each sub-graph: (g,) each."""
        of, g = self.graph_of, self.n_graphs
        return np.bincount(of, minlength=g), np.bincount(of[self.edge_src], minlength=g)

    def graphs(self, part: slice) -> GraphBatch:
        """The sub-graphs ``part`` (a plain ascending slice) as a batch of their own,
        sharing this batch's tables."""
        lo, hi = np.searchsorted(self.graph_of, [part.start, part.stop])
        elo, ehi = np.searchsorted(self.graph_of[self.edge_src], [part.start, part.stop])
        rows = self.rows[lo:hi]
        return GraphBatch(
            table=self.table,
            rows=rows,
            acts=None if self.acts is None else self.acts[lo:hi],
            rbf=self.rbf,
            edge_code=self.edge_code[elo:ehi],
            edge_src=self.edge_src[elo:ehi] - lo,
            edge_dst=self.edge_dst[elo:ehi] - lo,
            graph_of=self.graph_of[lo:hi] - part.start,
            n_graphs=part.stop - part.start,
            shared=None if self.shared is None else self.shared.cut(rows, lo, hi, elo, ehi),
            regions=None if self.regions is None else self.regions.rows(lo, hi, elo, ehi),
        )


def batch_subgraphs(
    sgs: Decomposition | Sequence[SubGraph],
    joints: Optional[Sequence[np.ndarray]] = None,
) -> GraphBatch:
    """Stack sub-graphs into one union graph, gathering no feature rows.

    ``sgs`` is a decomposition, whose arrays are stacked already and whose
    feature table and radial-basis rows the batch shares, or a sequence of
    sub-graphs, whose rows are joined into tables indexed in order. With
    ``joints`` (action vectors that, joined, hold one action per member row:
    one per sub-graph, or one for a whole decomposition) each vertex also
    holds an action, which enters as a one-hot input block: the critic's
    input layout. Plain vertex features otherwise: the policy's, and then a
    decomposition's batch also holds its graphs (:class:`Shared`).
    """
    shared = None
    if isinstance(sgs, Decomposition):
        sizes, n_edges = sgs.sizes(), np.diff(sgs.edge_offsets)
        table, rows, rbf, code = sgs.table, sgs.rows, sgs.rbf, sgs.edge_code
        src, dst = sgs.edge_src, sgs.edge_dst
        if joints is None:
            graphs = (sgs.graph_src, sgs.graph_dst, sgs.graph_code)
            shared = Shared(sgs.depth, sgs.hop, sgs.edge_adj, 0, len(table), *graphs)
    else:
        sizes = np.array([sg.n_members() for sg in sgs], dtype=np.int64)
        n_edges = np.array([len(sg.edge_src) for sg in sgs], dtype=np.int64)
        table = np.concatenate([sg.features for sg in sgs], axis=0)
        rbf = np.concatenate([sg.edge_feat for sg in sgs], axis=0)
        rows, code = np.arange(len(table)), np.arange(len(rbf))
        src = np.concatenate([sg.edge_src for sg in sgs])
        dst = np.concatenate([sg.edge_dst for sg in sgs])
    acts = None
    if joints is not None:
        acts = np.concatenate([np.asarray(j, dtype=np.int64) for j in joints])
        if acts.shape != rows.shape:
            raise ShapeError(f"joints hold {len(acts)} actions for {len(rows)} member rows")
    # every edge index shifts by the rows of the sub-graphs stacked before it
    shift = np.repeat(np.cumsum(sizes) - sizes, n_edges)
    return GraphBatch(
        table=table,
        rows=rows,
        acts=acts,
        rbf=rbf,
        edge_code=code,
        edge_src=src + shift,
        edge_dst=dst + shift,
        graph_of=np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
        n_graphs=len(sizes),
        shared=shared,
    )


@dataclass
class _Trunk:
    """The vertices and edges that one forward evaluates, and how the batch reads them.

    Trunk vertex u embeds table row ``rows[u]``; trunk edge t runs from
    ``src[t]`` to ``dst[t]``. Round 0's edge layer runs on the first
    ``len(code)`` edges, with radial-basis rows ``rbf[code]``; with
    ``round0`` every trunk edge reads its round-0 output from edge
    ``round0[t]`` among them. Vertex row v of the batch reads trunk vertex
    ``out[v]``, or trunk vertex v when ``out`` is None.
    """

    rows: np.ndarray                # (u,)
    src: np.ndarray                 # (t,)
    dst: np.ndarray                 # (t,)
    code: np.ndarray                # (t0,)
    round0: Optional[np.ndarray]    # (t,) or None
    out: Optional[np.ndarray]       # (v,) or None


def _trunk(batch: GraphBatch, rounds: int) -> _Trunk:
    """What a forward of ``rounds`` rounds evaluates.

    Without a shared part the trunk is the batch: each sub-graph on its own.
    With one, the rounds run once over the graphs and then over each
    sub-graph's shell, the rows whose neighbourhood the depth cut truncates,
    unless the graphs and the shells hold no fewer vertices than the batch
    (when no row but the centres is interior, as where ``rounds`` is the
    depth): then the trunk is the batch again. This is exact because
    sub-graphs are induced balls: a row at hop h <= depth - rounds has every
    vertex and edge within ``rounds`` hops of it in its sub-graph, so its
    output is its graph vertex's. A shell row (h > depth - rounds) gets its
    sub-graph's in-edges, from shell rows or from graph vertices, which are
    interior rows' states. Round 0's edge outputs depend on the endpoints'
    embeddings only, the same in every sub-graph, so a shell edge reads its
    graph edge's.
    """
    sh, rows = batch.shared, batch.rows
    shell = None if sh is None else sh.hop > sh.depth - rounds
    n_shell = 0 if shell is None else np.count_nonzero(shell)
    if shell is None or sh.n + n_shell >= len(rows):
        return _Trunk(rows, batch.edge_src, batch.edge_dst, batch.edge_code, None, None)
    # each row's trunk vertex: its graph vertex, or a shell vertex of its own
    vertex = rows - sh.first
    vertex[shell] = sh.n + np.arange(n_shell)
    into = shell[batch.edge_dst]  # the sub-graph edges into shell rows
    return _Trunk(
        rows=np.concatenate([np.arange(sh.first, sh.first + sh.n), rows[shell]]),
        src=np.concatenate([sh.src, vertex[batch.edge_src[into]]]),
        dst=np.concatenate([sh.dst, vertex[batch.edge_dst[into]]]),
        code=sh.code,
        round0=np.concatenate([np.arange(len(sh.code)), sh.edge_adj[into]]),
        out=vertex,
    )


# -- one forward routine, two op sets ---------------------------------------


class _NumpyOps:
    """Plain evaluation: values in, values out, nothing recorded.

    ``relu``, ``add`` and ``mul`` write into their last argument, which the
    trunk only ever passes freshly computed and never reads again; this saves
    an allocation per op on the rollout's policy batches, the largest plain
    forwards (the sweep keeps its trunk's values, through :class:`_KeepOps`).
    """

    def layer(self, path: str, p: LayerParams):
        return p

    def wrap(self, x: np.ndarray):
        return x

    def linear(self, x, p: LayerParams, cols: Optional[slice] = None, bias: bool = True):
        out = x @ (p.w if cols is None else p.w[:, cols]).T
        if bias:
            out += p.b
        return out

    def relu(self, x):
        return np.maximum(x, 0.0, out=x)

    def add(self, a, b):
        return np.add(a, b, out=b)

    def mul(self, a, b):
        return np.multiply(a, b, out=b)

    def gather(self, x, idx):
        return np.take(x, idx, axis=0)

    def segsum(self, x, seg, n, rows=None):
        return ad.scatter_rows(x, seg, n, rows)

    def log_softmax(self, x):
        shifted = x - x.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class _KeepOps(_NumpyOps):
    """Plain evaluation that allocates every result, so that the values a
    trunk keeps (see :func:`_graph_trunk`) are never overwritten."""

    def relu(self, x):
        return np.maximum(x, 0.0)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


class _RecordOps:
    """Autodiff evaluation: parameters become leaves, data constants, ops build the tape."""

    def __init__(self) -> None:
        self.leaves: dict[str, tuple[ad.Var, ad.Var]] = {}

    def layer(self, path: str, p: LayerParams):
        if path not in self.leaves:
            self.leaves[path] = (ad.leaf(p.w), ad.leaf(p.b))
        return self.leaves[path]

    def wrap(self, x: np.ndarray):
        return ad.const(x)

    def linear(self, x, wb, cols: Optional[slice] = None, bias: bool = True):
        w, b = wb
        return ad.linear(x, w if cols is None else ad.columns(w, cols), b if bias else None)

    def relu(self, x):
        return ad.relu(x)

    def add(self, a, b):
        return ad.add(a, b)

    def mul(self, a, b):
        return ad.mul(a, b)

    def gather(self, x, idx):
        return ad.gather(x, idx)

    def segsum(self, x, seg, n, rows=None):
        return ad.segment_sum(x if rows is None else ad.gather(x, rows), seg, n)

    def log_softmax(self, x):
        return ad.log_softmax(x)


def _graph_trunk(batch: GraphBatch, params: NetParams, ops, keep: Optional[list] = None):
    """The network's output rows; ``keep``, with :class:`_KeepOps`, gets the states.

    A layer whose input is a concatenation is the sum of its column blocks'
    products, so each block is multiplied on the rows it depends on and the
    products are gathered: the embedding on the feature table's rows (and
    the identity, for the action columns), each round's edge layer on the
    vertex states once per endpoint and, in round 0, on the radial-basis
    rows of the distinct edge lengths. No vertex-input matrix and no edge
    concatenation is built.

    The rounds run over the batch's trunk (:func:`_trunk`): its sub-graphs,
    or for a policy batch of a decomposition its graphs and their shells.
    There a trunk edge's round-0 filter enters the vertex sums straight
    from its round-0 edge, and the head's rows are gathered per vertex row;
    in a recorded pass that gather's adjoint sums the coefficients of every
    row that reads one trunk vertex.

    Per round ``keep`` receives [s, pre, filt, fsum, sv]: the vertex states
    entering the round, the edge layer's pre-activation, the edge filters,
    their sum into each vertex and the vertex messages. Last comes (s,), the
    vertex states leaving the last round. Only a batch whose trunk is its
    sub-graphs is kept.
    """
    feat = batch.table.shape[1]
    width = feat if batch.acts is None else feat + N_ACTIONS
    if width != params.in_dim:
        raise ShapeError(f"vertex inputs have width {width}, network expects {params.in_dim}")
    n_rounds, d, h = len(params.rounds), params.edge_dim, params.hidden
    lay = _trunk(batch, n_rounds)
    ebd = ops.layer("ebd", params.ebd)
    s = ops.gather(ops.linear(ops.wrap(batch.table), ebd, slice(0, feat)), lay.rows)
    if batch.acts is not None:
        act = ops.linear(ops.wrap(_ONE_HOT), ebd, slice(feat, width), bias=False)
        s = ops.add(ops.gather(act, batch.acts), s)
    z = ops.wrap(batch.rbf)  # round 0's edge states: one row per distinct length
    for r, rp in enumerate(params.rounds):
        # the edge layer's input is [z, s[src], s[dst]]
        edge = ops.layer(f"rounds.{r}.edge", rp.edge)
        pre = ops.linear(z, edge, slice(0, d), bias=False)
        src, dst = lay.src, lay.dst
        if r == 0:
            pre = ops.gather(pre, lay.code)
            src, dst = src[: len(lay.code)], dst[: len(lay.code)]
        pre = ops.add(ops.gather(ops.linear(s, edge, slice(d, d + h)), src), pre)
        pre = ops.add(ops.gather(ops.linear(s, edge, slice(d + h, None), bias=False), dst), pre)
        z = ops.relu(pre)
        filt = ops.relu(ops.linear(z, ops.layer(f"rounds.{r}.z_rel", rp.z_rel)))
        # with round0, each trunk edge reads its round-0 outputs from its round-0 edge
        shared = lay.round0 if r == 0 else None
        if r + 1 == n_rounds:
            z = None  # no round reads the last edge states
        elif shared is not None:
            z = ops.gather(z, shared)
        # sum_e sv[dst_e] * filt_e over the edges into v is sv[v] * sum_e filt_e
        fsum = ops.segsum(filt, lay.dst, len(lay.rows), shared)
        if keep is not None:
            keep.append([s, pre, filt, fsum])
        del pre, filt  # each temporary is released once nothing reads it
        sv = ops.linear(s, ops.layer(f"rounds.{r}.v_lin", rp.v_lin))
        if keep is not None:
            keep[-1].append(sv)
        agg = ops.mul(sv, fsum)
        lift = ops.relu(ops.linear(agg, ops.layer(f"rounds.{r}.post_rel", rp.post_rel)))
        del sv, fsum, agg
        s = ops.add(s, ops.linear(lift, ops.layer(f"rounds.{r}.post_lin", rp.post_lin)))
        del lift
    if keep is not None:
        keep.append((s,))
    if params.pooled:
        s = ops.segsum(s, batch.graph_of, batch.n_graphs)
    hid = ops.relu(ops.linear(s, ops.layer("head_rel", params.head_rel)))
    out = ops.linear(hid, ops.layer("head_lin", params.head_lin))
    return out if lay.out is None else ops.gather(out, lay.out)


def _mlp_trunk(x, params: MlpParams, ops):
    if (x.value if isinstance(x, ad.Var) else x).shape[1] != params.in_dim:
        raise ShapeError(f"mlp expects inputs of width {params.in_dim}")
    hid = ops.relu(ops.linear(x, ops.layer("l1", params.l1)))
    return ops.linear(hid, ops.layer("l2", params.l2))


@dataclass
class Trace:
    """A recorded forward pass, ready for one backward sweep."""

    output: ad.Var
    leaves: dict[str, tuple[ad.Var, ad.Var]]
    params: Params
    version: int


def _run(forward: Callable, params: Params, record: bool) -> tuple[np.ndarray, Optional[Trace]]:
    """``forward(ops)`` in plain numpy, or recorded for :func:`backward`."""
    if not record:
        return forward(_NumpyOps()), None
    ops = _RecordOps()
    out = forward(ops)
    return out.value, Trace(out, ops.leaves, params, params.version)


def policy_logprobs(
    batch: GraphBatch, params: NetParams, record: bool = False
) -> tuple[np.ndarray, Optional[Trace]]:
    """Per-vertex log-probabilities, shape (v, 5)."""
    return _run(lambda ops: ops.log_softmax(_graph_trunk(batch, params, ops)), params, record)


def critic_values(
    batch: GraphBatch, params: NetParams, record: bool = False
) -> tuple[np.ndarray, Optional[Trace]]:
    """One scalar per sub-graph, shape (g,)."""
    vals, trace = _run(lambda ops: _graph_trunk(batch, params, ops), params, record)
    return vals.reshape(-1), trace


# -- single-member deviations of a critic batch --------------------------------


@dataclass
class _Regions:
    """Where each vertex row's action deviation reaches, round by round.

    A deviation at row j changes, in round i, the edges with an endpoint
    within i hops of j and the vertices within i + 1 hops, hops taken along
    the edges of j's sub-graph. The region pairs (j, u), u within ``rounds``
    hops of j, are ordered by j, then u. ``edges[i]`` lists round i's changed
    (j, edge) pairs as (edge, src pair, dst pair), the pair positions of the
    edge's endpoints, both within i + 1 hops and so in the region; its
    first rows are round i - 1's changed pairs, in their order.
    """

    row: np.ndarray     # (P,) deviating vertex row j
    vertex: np.ndarray  # (P,) vertex u
    hops: np.ndarray    # (P,) hops from j to u
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def rows(self, lo: int, hi: int, elo: int, ehi: int) -> _Regions:
        """The regions of rows ``lo:hi``, whose sub-graphs hold edges ``elo:ehi``, renumbered."""
        plo, phi = np.searchsorted(self.row, [lo, hi])
        keep = [(e >= elo) & (e < ehi) for e, _, _ in self.edges]
        edges = [(e[k] - elo, ps[k] - plo, pd[k] - plo) for (e, ps, pd), k in zip(self.edges, keep)]
        return _Regions(self.row[plo:phi] - lo, self.vertex[plo:phi] - lo, self.hops[plo:phi], edges)


def _by_endpoint(ends: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges grouped by one endpoint: each vertex's first slot, its count, the edge order."""
    count = np.bincount(ends, minlength=n)
    return np.cumsum(count) - count, count, np.argsort(ends, kind="stable")


def _leaving(rows: np.ndarray, verts: np.ndarray, grouped) -> tuple[np.ndarray, np.ndarray]:
    """(row, edge) for each edge at each of ``verts``, grouped by :func:`_by_endpoint`."""
    first, count, order = grouped
    return np.repeat(rows, count[verts]), order[_segment_arange(first[verts], count[verts])]


def _regions(batch: GraphBatch, rounds: int) -> _Regions:
    """The batch's regions under ``rounds`` rounds, computed once and kept on it."""
    if batch.regions is not None and len(batch.regions.edges) == rounds:
        return batch.regions
    v = batch.n_vertices()
    src, dst = batch.edge_src, batch.edge_dst
    size = np.bincount(batch.graph_of, minlength=batch.n_graphs)
    first = (np.cumsum(size) - size)[batch.graph_of]  # first row of each row's sub-graph
    span = size[batch.graph_of]
    # a dense table over (j, every vertex of j's sub-graph)
    start = np.cumsum(span) - span
    dense_row = np.repeat(np.arange(v), span)
    dense_vertex = np.arange(len(dense_row)) - start[dense_row] + first[dense_row]

    def at(j, u):
        return start[j] + u - first[u]

    by_src, by_dst = _by_endpoint(src, v), _by_endpoint(dst, v)
    hops = np.full(len(dense_row), rounds + 1)
    hops[at(np.arange(v), np.arange(v))] = 0
    # breadth first, one level per round: the edges at the pairs `level` hops
    # out that no earlier round changed are the ones this round adds
    added = []
    for level in range(rounds):
        front = np.flatnonzero(hops == level)
        j, e = _leaving(dense_row[front], dense_vertex[front], by_src)
        j_in, e_in = _leaving(dense_row[front], dense_vertex[front], by_dst)
        reached = at(j, dst[e])
        out = hops[reached] >= level
        into = hops[at(j_in, src[e_in])] > level  # not an edge leaving the front
        hops[reached[hops[reached] > level + 1]] = level + 1
        j = np.concatenate([j[out], j_in[into]])
        e = np.concatenate([e[out], e_in[into]])
        added.append((e, at(j, src[e]), at(j, dst[e])))

    region = np.flatnonzero(hops <= rounds)
    pos = np.full(len(hops), len(region))
    pos[region] = np.arange(len(region))
    reg = _Regions(dense_row[region], dense_vertex[region], hops[region], [])
    changed = (np.zeros(0, dtype=np.int64),) * 3
    for e, ps, pd in added:
        changed = tuple(np.concatenate(pair) for pair in zip(changed, (e, pos[ps], pos[pd])))
        reg.edges.append(changed)
    batch.regions = reg
    return reg


def deviation_sizes(batch: GraphBatch, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Per sub-graph, the vertex rows and edges that :func:`critic_deviations`
    evaluates for it under a ``rounds``-round network: (g,) each."""
    reg = _regions(batch, rounds)
    alts, g = N_ACTIONS - 1, batch.n_graphs
    rows = alts * np.bincount(batch.graph_of[reg.row], minlength=g)
    if not rounds:
        return rows, np.zeros(g, dtype=np.int64)
    edge = reg.edges[-1][0]  # the last round changes the most edges
    return rows, alts * np.bincount(batch.graph_of[batch.edge_src[edge]], minlength=g)


def _sum_rows(x: np.ndarray, seg: np.ndarray, n: int) -> np.ndarray:
    """(n, ...) array whose row k sums the rows i of ``x`` with seg[i] == k.

    One weighted ``np.bincount`` over every element, which adds in row order
    like :func:`autodiff.scatter_rows`; for the small deviation arrays, whose
    rows hold several columns, that beats a count per column. Float64 even
    when ``x`` is empty, where ``np.bincount`` counts in int64.
    """
    width = int(np.prod(x.shape[1:]))
    flat = (seg[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=x.ravel(), minlength=n * width)
    return out.astype(np.float64, copy=False).reshape(n, *x.shape[1:])


def _with_zero_row(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.zeros((1, *x.shape[1:]))])


def critic_deviations(batch: GraphBatch, params: NetParams) -> tuple[np.ndarray, np.ndarray]:
    """Critic values of a batch built with joints, and of its single-member deviations.

    Returns the base values (g,) and the deviation values (v, 4): element
    (j, k) is the value of row j's sub-graph with row j's action switched to
    the k-th of the four other actions, ascending. The base pass keeps its
    states; a deviation re-evaluates only what it changes (:class:`_Regions`)
    and reads the rest from them. Each linear layer splits over its
    concatenated input, so a changed pre-activation is the base one plus
    the changed part's product; the first change is the difference of two
    action columns of the embedding; the pooled sum is the base sum plus the
    changed rows' differences. Plain numpy, nothing recorded.

    The four alternatives are swept one after another, each through every
    round, so each temporary holds one alternative: (changed edges or
    pairs) x h. The rounds' index arrays and base-side update terms are
    computed once and shared by the four sweeps.
    """
    if not params.pooled:
        raise ShapeError("deviations are defined for a pooled critic")
    kept: list = []
    base = _graph_trunk(batch, params, _KeepOps(), kept).reshape(-1)
    reg = _regions(batch, len(params.rounds))
    n_pairs, alts, d, h = len(reg.row), N_ACTIONS - 1, params.edge_dim, params.hidden
    held = batch.acts
    other = np.arange(alts) + (np.arange(alts) >= held[:, None])  # (v, 4)
    act = params.ebd.w[:, -N_ACTIONS:].T  # each action's embedding column

    # each round's index arrays, shared by the four sweeps: its changed
    # edges; where each edge's endpoints and each pair it reaches read their
    # change among the pairs changed before the round (the near pairs; past
    # them a zero row); and, among the pairs changed after it (reach), each
    # edge's head, each pair's vertex and each near pair
    index = []
    for i, (e, ps, pd) in enumerate(reg.edges):
        near = np.flatnonzero(reg.hops <= i)
        slot = np.full(n_pairs + 1, len(near))
        slot[near] = np.arange(len(near))
        reach = np.flatnonzero(reg.hops <= i + 1)
        reach_slot = np.empty(n_pairs, dtype=np.int64)
        reach_slot[reach] = np.arange(len(reach))
        index.append((e, slot[ps], slot[pd], slot[reach], reach_slot[pd], reg.vertex[reach], reach_slot[near]))
    # a changed vertex's new change is its update's product plus this and its
    # old change: the bias and the base pass's state entering the round less
    # the one leaving it, once per base row and gathered per sweep
    back = [rp.post_lin.b + kept[i][0] - kept[i + 1][0] for i, rp in enumerate(params.rounds)]
    pooled_base = ad.scatter_rows(kept[-1][0], batch.graph_of, batch.n_graphs)[batch.graph_of]

    dev = np.empty((batch.n_vertices(), alts))
    for k in range(alts):
        # each near pair's vertex-state change under its row's k-th
        # deviation; before round 0 the near pairs are the rows themselves
        ds = act[other[:, k]] - act[held]
        for i, rp in enumerate(params.rounds):
            _, pre, filt, fsum, sv = kept[i]
            e, at_src, at_dst, at_reach, seg, u, was = index[i]
            w_z, w_src, w_dst = np.split(rp.edge.w, [d, d + h], axis=1)
            # each temporary is (changed edges or pairs) x h: release it once used
            z = np.take(_with_zero_row(ds @ w_src.T), at_src, axis=0)
            z += np.take(_with_zero_row(ds @ w_dst.T), at_dst, axis=0)
            if i:  # the edges the last round changed come first
                z[: len(dz)] += dz @ w_z.T
                del dz
            z += pre[e]
            z = np.maximum(z, 0.0, out=z)
            if i + 1 < len(params.rounds):
                dz = z - np.maximum(pre[e], 0.0)
            dfilt = z @ rp.z_rel.w.T
            del z
            dfilt += rp.z_rel.b
            dfilt = np.maximum(dfilt, 0.0, out=dfilt)
            dfilt -= filt[e]

            agg = _sum_rows(dfilt, seg, len(u))
            del dfilt
            agg += fsum[u]
            agg *= np.take(_with_zero_row(ds @ rp.v_lin.w.T), at_reach, axis=0) + sv[u]
            lift = agg @ rp.post_rel.w.T
            del agg
            lift += rp.post_rel.b
            lift = np.maximum(lift, 0.0, out=lift)
            upd = lift @ rp.post_lin.w.T
            del lift
            upd += back[i][u]
            upd[was] += ds
            ds = upd
            del upd

        # after the last round every region pair is near
        pooled = _sum_rows(ds, reg.row, batch.n_vertices())
        del ds
        pooled += pooled_base
        hid = pooled @ params.head_rel.w.T
        del pooled
        hid += params.head_rel.b
        hid = np.maximum(hid, 0.0, out=hid)
        dev[:, k] = (hid @ params.head_lin.w.T)[:, 0] + params.head_lin.b[0]
    return base, dev


def mlp_logprobs(
    x: np.ndarray, params: MlpParams, record: bool = False
) -> tuple[np.ndarray, Optional[Trace]]:
    """Row-wise log-probabilities of the vanilla policy, shape (n, 5)."""
    return _run(lambda ops: ops.log_softmax(_mlp_trunk(ops.wrap(x), params, ops)), params, record)


def backward(trace: Trace, seed: np.ndarray) -> Params:
    """Parameter gradients of ``seed . output`` for a recorded forward.

    The seed carries the objective: for the linear objectives used here
    (delta-weighted log-probabilities, coefficient-weighted critic values)
    it is simply the coefficient array in the output's shape. The tape
    keeps no adjoint once this returns (:func:`autodiff.backward` releases
    the interior ones, this reads and clears the parameters'), so a second
    call on one trace returns the same gradients.
    """
    if trace.params.version != trace.version:
        raise StaleTrace("parameters changed since this trace was recorded")
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != trace.output.value.shape:
        if seed.size != trace.output.value.size:
            raise ShapeError(
                f"seed has {seed.size} elements, output has {trace.output.value.size}"
            )
        seed = seed.reshape(trace.output.value.shape)
    ad.backward(trace.output, seed)
    grads = zeros_like_params(trace.params)
    for path, layer in grads.layers():
        for leaf, slot in zip(trace.leaves.get(path, ()), (layer.w, layer.b)):
            if leaf.grad is not None:
                slot += leaf.grad
                leaf.grad = None
    return grads


# -- single sub-graph conveniences -------------------------------------------


def policy_forward(sg: SubGraph, params: NetParams) -> np.ndarray:
    """Action distributions for every member of one sub-graph, shape (m, 5)."""
    logp, _ = policy_logprobs(batch_subgraphs([sg]), params)
    return np.exp(logp)


def critic_forward(sg: SubGraph, joint: np.ndarray, params: NetParams) -> float:
    """Scalar action value of one sub-graph under a joint member action."""
    joint = np.asarray(joint, dtype=np.int64)
    if joint.shape != (sg.n_members(),):
        raise ShapeError(f"joint must hold one action per member, got {joint.shape}")
    vals, _ = critic_values(batch_subgraphs([sg], joints=[joint]), params)
    return float(vals[0])
