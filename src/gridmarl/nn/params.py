"""Parameter containers, initialization, and single-vertex reference ops.

``h_lin`` and ``h_rel`` are the two primitive maps every network is built
from: an affine map and its rectified version. ``edge_update`` and
``vertex_update`` are the per-edge / per-vertex message-passing rules written
in plain numpy for one vertex at a time; the batched network in
``network.py`` computes exactly the same function over whole graphs and is
tested against these.

Weights draw from the uniform Glorot range +-sqrt(6/(fan_in+fan_out)),
biases start at zero. ``version`` counts in-place parameter mutations so
recorded forward traces can detect staleness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterator, Sequence

import numpy as np

from ..errors import NonFiniteError, ShapeError


@dataclass
class LayerParams:
    """One affine layer: ``y = w @ x + b`` with w of shape (out, in)."""

    w: np.ndarray
    b: np.ndarray


def glorot(rng: np.random.Generator, n_out: int, n_in: int) -> LayerParams:
    bound = np.sqrt(6.0 / (n_in + n_out))
    w = rng.uniform(-bound, bound, size=(n_out, n_in))
    return LayerParams(w=w, b=np.zeros(n_out))


def h_lin(x: np.ndarray, p: LayerParams) -> np.ndarray:
    """Affine map; accepts a vector (in,) or a stack of rows (n, in)."""
    if x.shape[-1] != p.w.shape[1]:
        raise ShapeError(f"h_lin expects inputs of width {p.w.shape[1]}, got {x.shape}")
    return x @ p.w.T + p.b


def h_rel(x: np.ndarray, p: LayerParams) -> np.ndarray:
    """Rectified affine map."""
    return np.maximum(h_lin(x, p), 0.0)


@dataclass
class RoundParams:
    """One message-passing round: an edge update plus a vertex update."""

    edge: LayerParams      # (2H + D) -> D
    v_lin: LayerParams     # H -> D
    z_rel: LayerParams     # D -> D
    post_rel: LayerParams  # D -> H
    post_lin: LayerParams  # H -> H


@dataclass
class NetParams:
    """A full graph network: embed, rounds of message passing, output head.

    ``pooled`` networks sum member vertices before the head (the critic);
    unpooled ones emit one output row per vertex (the policy).
    """

    ebd: LayerParams
    rounds: list[RoundParams]
    head_rel: LayerParams
    head_lin: LayerParams
    in_dim: int
    hidden: int
    edge_dim: int
    out_dim: int
    pooled: bool
    version: int = 0

    def layers(self) -> Iterator[tuple[str, LayerParams]]:
        yield "ebd", self.ebd
        for r, rp in enumerate(self.rounds):
            yield f"rounds.{r}.edge", rp.edge
            yield f"rounds.{r}.v_lin", rp.v_lin
            yield f"rounds.{r}.z_rel", rp.z_rel
            yield f"rounds.{r}.post_rel", rp.post_rel
            yield f"rounds.{r}.post_lin", rp.post_lin
        yield "head_rel", self.head_rel
        yield "head_lin", self.head_lin


@dataclass
class MlpParams:
    """Two-layer perceptron used by the vanilla policy-gradient baseline."""

    l1: LayerParams
    l2: LayerParams
    in_dim: int
    hidden: int
    out_dim: int
    version: int = 0

    def layers(self) -> Iterator[tuple[str, LayerParams]]:
        yield "l1", self.l1
        yield "l2", self.l2


Params = NetParams | MlpParams


def check_finite(params: Params, what: str) -> None:
    """Raise :class:`NonFiniteError` at the first layer holding an inf or a NaN."""
    for path, layer in params.layers():
        if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all()):
            raise NonFiniteError(f"non-finite {what}, layer {path}")


def new_graph_net(
    rng: np.random.Generator,
    in_dim: int,
    hidden: int,
    edge_dim: int,
    out_dim: int,
    n_rounds: int = 2,
    pooled: bool = False,
) -> NetParams:
    rounds = [
        RoundParams(
            edge=glorot(rng, edge_dim, 2 * hidden + edge_dim),
            v_lin=glorot(rng, edge_dim, hidden),
            z_rel=glorot(rng, edge_dim, edge_dim),
            post_rel=glorot(rng, hidden, edge_dim),
            post_lin=glorot(rng, hidden, hidden),
        )
        for _ in range(n_rounds)
    ]
    return NetParams(
        ebd=glorot(rng, hidden, in_dim),
        rounds=rounds,
        head_rel=glorot(rng, hidden, hidden),
        head_lin=glorot(rng, out_dim, hidden),
        in_dim=in_dim,
        hidden=hidden,
        edge_dim=edge_dim,
        out_dim=out_dim,
        pooled=pooled,
    )


def new_mlp(rng: np.random.Generator, in_dim: int, hidden: int, out_dim: int) -> MlpParams:
    return MlpParams(
        l1=glorot(rng, hidden, in_dim),
        l2=glorot(rng, out_dim, hidden),
        in_dim=in_dim,
        hidden=hidden,
        out_dim=out_dim,
    )


# -- container arithmetic (used for gradient accumulators) -----------------


def _zeros_like_layer(p: LayerParams) -> LayerParams:
    return LayerParams(w=np.zeros_like(p.w), b=np.zeros_like(p.b))


def zeros_like_params(p: Params) -> Params:
    if isinstance(p, MlpParams):
        return replace(p, l1=_zeros_like_layer(p.l1), l2=_zeros_like_layer(p.l2), version=0)
    rounds = [
        RoundParams(**{f.name: _zeros_like_layer(getattr(rp, f.name)) for f in fields(rp)})
        for rp in p.rounds
    ]
    return replace(
        p,
        ebd=_zeros_like_layer(p.ebd),
        rounds=rounds,
        head_rel=_zeros_like_layer(p.head_rel),
        head_lin=_zeros_like_layer(p.head_lin),
        version=0,
    )


def add_scaled_(dst: Params, src: Params, scale: float = 1.0) -> None:
    for (_, d), (_, s) in zip(dst.layers(), src.layers()):
        d.w += scale * s.w
        d.b += scale * s.b


def scale_(p: Params, scale: float) -> None:
    for _, layer in p.layers():
        layer.w *= scale
        layer.b *= scale


def max_abs(p: Params) -> float:
    out = 0.0
    for _, layer in p.layers():
        if layer.w.size:
            out = max(out, float(np.max(np.abs(layer.w))), float(np.max(np.abs(layer.b))))
    return out


# -- single-vertex reference semantics --------------------------------------


def edge_update(z: np.ndarray, s_i: np.ndarray, s_j: np.ndarray, p: LayerParams) -> np.ndarray:
    """New edge feature from the old one and its two endpoint vertices."""
    return h_rel(np.concatenate([z, s_i, s_j]), p)


def vertex_update(s: np.ndarray, incoming: Sequence[np.ndarray], p: RoundParams) -> np.ndarray:
    """Residual vertex refresh from the incoming edge features.

    Each incoming edge contributes h_lin(s) * h_rel(z) elementwise; the sum
    (zero with no edges) is pushed through a rectified bottleneck back to the
    vertex width and added onto the current value.
    """
    acc = np.zeros(p.z_rel.w.shape[0])
    for z in incoming:
        acc = acc + h_lin(s, p.v_lin) * h_rel(z, p.z_rel)
    return s + h_lin(h_rel(acc, p.post_rel), p.post_lin)
