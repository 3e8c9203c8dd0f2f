"""Batched message-passing forward passes for policy and critic.

Any number of sub-graphs are processed at once by flattening them into one
disjoint union: a stacked vertex-input matrix, directed edge index arrays
offset per sub-graph, and a vertex-to-sub-graph map for the critic's sum
pooling. The same forward routine runs in two modes sharing one code path:
plain numpy (sampling, baseline sweeps) and recorded (builds an autodiff
graph whose :func:`backward` yields parameter gradients). A baseline sweep
(:func:`critic_deviations`) keeps the plain pass's states and patches them
for each single-member action deviation, re-evaluating only the vertices
and edges the deviation reaches.

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


@dataclass
class GraphBatch:
    """A disjoint union of sub-graphs, flattened for batched passes."""

    x: np.ndarray          # (v, f) vertex inputs
    edge_src: np.ndarray   # (e,) row indices
    edge_dst: np.ndarray   # (e,)
    z0: np.ndarray         # (e, d) radial-basis edge features
    graph_of: np.ndarray   # (v,) owning sub-graph per row
    n_graphs: int
    regions: Optional[_Regions] = field(default=None, repr=False)  # kept by _regions

    def n_vertices(self) -> int:
        return self.x.shape[0]

    def sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex rows and edges of each sub-graph: (g,) each."""
        of, g = self.graph_of, self.n_graphs
        return np.bincount(of, minlength=g), np.bincount(of[self.edge_src], minlength=g)

    def graphs(self, part: slice) -> GraphBatch:
        """The sub-graphs ``part`` (a plain ascending slice) as a batch of their own."""
        lo, hi = np.searchsorted(self.graph_of, [part.start, part.stop])
        elo, ehi = np.searchsorted(self.graph_of[self.edge_src], [part.start, part.stop])
        return GraphBatch(
            x=self.x[lo:hi],
            edge_src=self.edge_src[elo:ehi] - lo,
            edge_dst=self.edge_dst[elo:ehi] - lo,
            z0=self.z0[elo:ehi],
            graph_of=self.graph_of[lo:hi] - part.start,
            n_graphs=part.stop - part.start,
            regions=None if self.regions is None else self.regions.rows(lo, hi, elo, ehi),
        )


def batch_subgraphs(
    sgs: Decomposition | Sequence[SubGraph],
    joints: Optional[Sequence[np.ndarray]] = None,
) -> GraphBatch:
    """Stack sub-graphs into one union graph.

    ``sgs`` is a decomposition, whose arrays are stacked already, or a
    sequence of sub-graphs. With ``joints`` (action vectors that, joined,
    hold one action per member row: one per sub-graph, or one for a whole
    decomposition) each vertex input gains a one-hot action block: the
    critic's input layout. Plain vertex features otherwise: the policy's.
    """
    if isinstance(sgs, Decomposition):
        sizes, n_edges = sgs.sizes(), np.diff(sgs.edge_offsets)
        x, src, dst, z0 = sgs.features, sgs.edge_src, sgs.edge_dst, sgs.edge_feat
    else:
        sizes = np.array([sg.n_members() for sg in sgs], dtype=np.int64)
        n_edges = np.array([len(sg.edge_src) for sg in sgs], dtype=np.int64)
        x = np.concatenate([sg.features for sg in sgs], axis=0)
        src = np.concatenate([sg.edge_src for sg in sgs])
        dst = np.concatenate([sg.edge_dst for sg in sgs])
        z0 = np.concatenate([sg.edge_feat for sg in sgs], axis=0)
    if joints is not None:
        acts = np.concatenate([np.asarray(j, dtype=np.int64) for j in joints])
        x = np.concatenate([x, np.eye(N_ACTIONS)[acts]], axis=1)
    # every edge index shifts by the rows of the sub-graphs stacked before it
    shift = np.repeat(np.cumsum(sizes) - sizes, n_edges)
    return GraphBatch(
        x=x,
        edge_src=src + shift,
        edge_dst=dst + shift,
        z0=z0,
        graph_of=np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
        n_graphs=len(sizes),
    )


# -- one forward routine, two op sets ---------------------------------------


class _NumpyOps:
    """Plain evaluation: values in, values out, nothing recorded.

    ``relu``, ``add`` and ``mul`` write into their last argument, which the
    trunk only ever passes freshly computed and never reads again; this saves
    an allocation per op on the large sweep batches.
    """

    def layer(self, path: str, p: LayerParams):
        return p

    def wrap(self, x: np.ndarray):
        return x

    def linear(self, x, p: LayerParams):
        out = x @ p.w.T
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

    def segsum(self, x, seg, n):
        return ad.scatter_rows(x, seg, n)

    def concat(self, parts):
        return np.concatenate(parts, axis=1)

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
    """Autodiff evaluation: parameters become leaves, ops build the tape."""

    def __init__(self) -> None:
        self.leaves: dict[str, tuple[ad.Var, ad.Var]] = {}

    def layer(self, path: str, p: LayerParams):
        if path not in self.leaves:
            self.leaves[path] = (ad.leaf(p.w), ad.leaf(p.b))
        return self.leaves[path]

    def wrap(self, x: np.ndarray):
        return ad.leaf(x)

    def linear(self, x, wb):
        return ad.linear(x, wb[0], wb[1])

    def relu(self, x):
        return ad.relu(x)

    def add(self, a, b):
        return ad.add(a, b)

    def mul(self, a, b):
        return ad.mul(a, b)

    def gather(self, x, idx):
        return ad.gather(x, idx)

    def segsum(self, x, seg, n):
        return ad.segment_sum(x, seg, n)

    def concat(self, parts):
        return ad.concat_cols(list(parts))

    def log_softmax(self, x):
        return ad.log_softmax(x)


def _graph_trunk(batch: GraphBatch, params: NetParams, ops, keep: Optional[list] = None):
    """The network's output rows; ``keep``, with :class:`_KeepOps`, gets the states.

    Per round ``keep`` receives (s, pre, filt, fsum, sv): the vertex states
    entering the round, the edge layer's pre-activation, the edge filters,
    their sum into each vertex and the vertex messages. Last comes (s,), the
    vertex states leaving the last round.
    """
    if batch.x.shape[1] != params.in_dim:
        raise ShapeError(
            f"vertex inputs have width {batch.x.shape[1]}, network expects {params.in_dim}"
        )
    src, dst = batch.edge_src, batch.edge_dst
    s = ops.linear(ops.wrap(batch.x), ops.layer("ebd", params.ebd))
    z = ops.wrap(batch.z0)
    for r, rp in enumerate(params.rounds):
        cat = ops.concat([z, ops.gather(s, src), ops.gather(s, dst)])
        pre = ops.linear(cat, ops.layer(f"rounds.{r}.edge", rp.edge))
        z = ops.relu(pre)
        filt = ops.relu(ops.linear(z, ops.layer(f"rounds.{r}.z_rel", rp.z_rel)))
        sv = ops.linear(s, ops.layer(f"rounds.{r}.v_lin", rp.v_lin))
        # sum_e sv[dst_e] * filt_e over the edges into v is sv[v] * sum_e filt_e
        fsum = ops.segsum(filt, dst, batch.n_vertices())
        if keep is not None:
            keep.append((s, pre, filt, fsum, sv))
        agg = ops.mul(sv, fsum)
        lift = ops.relu(ops.linear(agg, ops.layer(f"rounds.{r}.post_rel", rp.post_rel)))
        s = ops.add(s, ops.linear(lift, ops.layer(f"rounds.{r}.post_lin", rp.post_lin)))
    if keep is not None:
        keep.append((s,))
    if params.pooled:
        s = ops.segsum(s, batch.graph_of, batch.n_graphs)
    hid = ops.relu(ops.linear(s, ops.layer("head_rel", params.head_rel)))
    return ops.linear(hid, ops.layer("head_lin", params.head_lin))


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


def _times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` over the last axis of ``x``, as one matrix product."""
    return (x.reshape(-1, x.shape[-1]) @ w.T).reshape(*x.shape[:-1], w.shape[0])


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
    """
    if not params.pooled:
        raise ShapeError("deviations are defined for a pooled critic")
    kept: list = []
    base = _graph_trunk(batch, params, _KeepOps(), kept).reshape(-1)
    reg = _regions(batch, len(params.rounds))
    n_pairs, alts, d, h = len(reg.row), N_ACTIONS - 1, params.edge_dim, params.hidden
    held = batch.x[:, -N_ACTIONS:].argmax(axis=1)
    other = np.arange(alts) + (np.arange(alts) >= held[:, None])  # (v, 4)
    act = params.ebd.w[:, -N_ACTIONS:].T  # each action's embedding column

    # each region pair's vertex-state change under its row's four deviations
    ds = np.zeros((n_pairs, alts, h))
    ds[reg.hops == 0] = act[other] - act[held][:, None]
    for i, rp in enumerate(params.rounds):
        s, pre, filt, fsum, sv = kept[i]
        e, ps, pd = reg.edges[i]
        near = np.flatnonzero(reg.hops <= i)  # the pairs changed so far
        slot = np.full(n_pairs + 1, len(near))  # a pair's row among them, else a zero row
        slot[near] = np.arange(len(near))
        w_z, w_src, w_dst = np.split(rp.edge.w, [d, d + h], axis=1)
        # each temporary is (changed edges or pairs) x 4 x h: release it once used
        z = np.take(_with_zero_row(_times(ds[near], w_src)), slot[ps], axis=0)
        z += np.take(_with_zero_row(_times(ds[near], w_dst)), slot[pd], axis=0)
        if i:  # the edges the last round changed come first
            z[: len(dz)] += _times(dz, w_z)
            del dz
        z += pre[e][:, None]
        z = np.maximum(z, 0.0, out=z)
        if i + 1 < len(params.rounds):
            dz = z - np.maximum(pre[e], 0.0)[:, None]
        dfilt = _times(z, rp.z_rel.w)
        del z
        dfilt += rp.z_rel.b
        dfilt = np.maximum(dfilt, 0.0, out=dfilt)
        dfilt -= filt[e][:, None]

        reach = np.flatnonzero(reg.hops <= i + 1)  # the pairs changed after this round
        reach_slot = np.empty(n_pairs, dtype=np.int64)
        reach_slot[reach] = np.arange(len(reach))
        u = reg.vertex[reach]
        agg = _sum_rows(dfilt, reach_slot[pd], len(reach))
        del dfilt
        agg += fsum[u][:, None]
        agg *= np.take(_with_zero_row(_times(ds[near], rp.v_lin.w)), slot[reach], axis=0) + sv[u][:, None]
        lift = _times(agg, rp.post_rel.w)
        del agg
        lift += rp.post_rel.b
        lift = np.maximum(lift, 0.0, out=lift)
        upd = _times(lift, rp.post_lin.w)
        del lift
        upd += (rp.post_lin.b + s[u] - kept[i + 1][0][u])[:, None]  # less the base pass's update
        upd += ds[reach]
        ds[reach] = upd
        del upd

    pooled = _sum_rows(ds, reg.row, batch.n_vertices())
    pooled += ad.scatter_rows(kept[-1][0], batch.graph_of, batch.n_graphs)[batch.graph_of][:, None]
    hid = _times(pooled, params.head_rel.w)
    hid += params.head_rel.b
    hid = np.maximum(hid, 0.0, out=hid)
    return base, _times(hid, params.head_lin.w)[..., 0] + params.head_lin.b[0]


def mlp_logprobs(
    x: np.ndarray, params: MlpParams, record: bool = False
) -> tuple[np.ndarray, Optional[Trace]]:
    """Row-wise log-probabilities of the vanilla policy, shape (n, 5)."""
    return _run(lambda ops: ops.log_softmax(_mlp_trunk(ops.wrap(x), params, ops)), params, record)


def backward(trace: Trace, seed: np.ndarray) -> Params:
    """Parameter gradients of ``seed . output`` for a recorded forward.

    The seed carries the objective: for the linear objectives used here
    (delta-weighted log-probabilities, coefficient-weighted critic values)
    it is simply the coefficient array in the output's shape.
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
        if path in trace.leaves:
            wv, bv = trace.leaves[path]
            if wv.grad is not None:
                layer.w += wv.grad
            if bv.grad is not None:
                layer.b += bv.grad
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
