"""Batched message-passing forward passes for policy and critic.

Any number of sub-graphs are processed at once by flattening them into one
disjoint union: a stacked vertex-input matrix, directed edge index arrays
offset per sub-graph, and a vertex-to-sub-graph map for the critic's sum
pooling. The same forward routine runs in two modes sharing one code path:
plain numpy (sampling, baseline sweeps) and recorded (builds an autodiff
graph whose :func:`backward` yields parameter gradients).

Wiring per round, following the two-panel network diagram: edges refresh
first from their endpoints' current vertex values, then vertices refresh
from their incoming refreshed edges with a residual connection. The policy
head emits one 5-way log-softmax row per vertex; the critic sums member
vertices per sub-graph and emits one scalar, with the chosen joint action
entering as per-vertex one-hot input columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ShapeError, StaleTrace
from ..graph import Decomposition, SubGraph
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

    def n_vertices(self) -> int:
        return self.x.shape[0]


def batch_subgraphs(
    sgs: Decomposition | Sequence[SubGraph],
    joints: Optional[Sequence[np.ndarray]] = None,
) -> GraphBatch:
    """Stack sub-graphs into one union graph.

    ``sgs`` is a decomposition, whose arrays are stacked already, or a
    sequence of sub-graphs. With ``joints`` (one action vector per sub-graph,
    aligned with its members) each vertex input gains a one-hot action
    block: the critic's input layout. Plain vertex features otherwise: the
    policy's.
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

    def value(self, x):
        return x


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

    def value(self, x):
        return x.value


def _graph_trunk(batch: GraphBatch, params: NetParams, ops):
    if batch.x.shape[1] != params.in_dim:
        raise ShapeError(
            f"vertex inputs have width {batch.x.shape[1]}, network expects {params.in_dim}"
        )
    src, dst = batch.edge_src, batch.edge_dst
    s = ops.linear(ops.wrap(batch.x), ops.layer("ebd", params.ebd))
    z = ops.wrap(batch.z0)
    for r, rp in enumerate(params.rounds):
        cat = ops.concat([z, ops.gather(s, src), ops.gather(s, dst)])
        z = ops.relu(ops.linear(cat, ops.layer(f"rounds.{r}.edge", rp.edge)))
        filt = ops.relu(ops.linear(z, ops.layer(f"rounds.{r}.z_rel", rp.z_rel)))
        sv = ops.linear(s, ops.layer(f"rounds.{r}.v_lin", rp.v_lin))
        # sum_e sv[dst_e] * filt_e over the edges into v is sv[v] * sum_e filt_e
        agg = ops.mul(sv, ops.segsum(filt, dst, batch.n_vertices()))
        lift = ops.relu(ops.linear(agg, ops.layer(f"rounds.{r}.post_rel", rp.post_rel)))
        s = ops.add(s, ops.linear(lift, ops.layer(f"rounds.{r}.post_lin", rp.post_lin)))
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


def policy_logprobs(
    batch: GraphBatch, params: NetParams, record: bool = False
) -> tuple[np.ndarray, Optional[Trace]]:
    """Per-vertex log-probabilities, shape (v, 5)."""
    if record:
        ops = _RecordOps()
        out = ops.log_softmax(_graph_trunk(batch, params, ops))
        return out.value, Trace(out, ops.leaves, params, params.version)
    ops = _NumpyOps()
    return ops.log_softmax(_graph_trunk(batch, params, ops)), None


def critic_values(
    batch: GraphBatch, params: NetParams, record: bool = False
) -> tuple[np.ndarray, Optional[Trace]]:
    """One scalar per sub-graph, shape (g,)."""
    if record:
        ops = _RecordOps()
        out = _graph_trunk(batch, params, ops)
        return out.value.reshape(-1), Trace(out, ops.leaves, params, params.version)
    out = _graph_trunk(batch, params, _NumpyOps())
    return out.reshape(-1), None


def mlp_logprobs(
    x: np.ndarray, params: MlpParams, record: bool = False
) -> tuple[np.ndarray, Optional[Trace]]:
    """Row-wise log-probabilities of the vanilla policy, shape (n, 5)."""
    if record:
        ops = _RecordOps()
        out = ops.log_softmax(_mlp_trunk(ops.wrap(x), params, ops))
        return out.value, Trace(out, ops.leaves, params, params.version)
    ops = _NumpyOps()
    return ops.log_softmax(_mlp_trunk(x, params, ops)), None


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
