"""Minimal reverse-mode differentiation over numpy arrays.

Only the operations the message-passing networks actually use are provided:
affine maps (with or without a bias), a weight's column block, ReLU,
elementwise add/multiply, row gather, segment sum and a row-wise
log-softmax. Every op returns a :class:`Var` holding the forward value
plus vector-Jacobian closures back to those of its parents that need an
adjoint; :func:`backward` replays them in reverse topological order and
accumulates adjoints on the leaves. Data that enters through :func:`const`
needs none, so no closure into it is kept or run. The ReLU subgradient at
exactly zero is zero.

Everything is float64. This is deliberately not a general autodiff.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ShapeError

VJP = Callable[[np.ndarray], np.ndarray]


class Var:
    """A node in the computation graph: value, adjoint, parent links.

    A node needs an adjoint if it is a leaf (``needs_grad``) or depends on
    one; it keeps links to the parents that need one and drops the rest.
    """

    __slots__ = ("value", "grad", "parents", "tag", "needs_grad")

    def __init__(
        self,
        value: np.ndarray,
        parents: Sequence[tuple["Var", VJP]] = (),
        tag: str = "",
        needs_grad: bool = False,
    ):
        self.value = value
        self.grad: Optional[np.ndarray] = None
        self.parents = tuple((p, vjp) for p, vjp in parents if p.needs_grad)
        self.needs_grad = needs_grad or bool(self.parents)
        self.tag = tag


def leaf(value: np.ndarray) -> Var:
    """A value whose adjoint :func:`backward` accumulates: a parameter."""
    return Var(value, needs_grad=True)


def const(value: np.ndarray) -> Var:
    """A value that gets no adjoint: data the gradients are not taken for."""
    return Var(value)


def linear(x: Var, w: Var, b: Optional[Var] = None) -> Var:
    """Rows of ``x`` through the affine map ``x @ w.T + b``, or ``x @ w.T`` without ``b``."""
    xv, wv = x.value, w.value
    b_shape = wv.shape[:1] if b is None else b.value.shape
    if xv.ndim != 2 or wv.ndim != 2 or len(b_shape) != 1:
        raise ShapeError("linear expects x (n,in), w (out,in), b (out,)")
    if xv.shape[1] != wv.shape[1] or b_shape[0] != wv.shape[0]:
        raise ShapeError(
            f"linear shape mismatch: x {xv.shape}, w {wv.shape}, b {b_shape}"
        )
    out = xv @ wv.T
    parents: list[tuple[Var, VJP]] = [(x, lambda g: g @ wv), (w, lambda g: g.T @ xv)]
    if b is not None:
        out += b.value
        parents.append((b, lambda g: g.sum(axis=0)))
    return Var(out, parents=parents)


def columns(w: Var, cols: slice) -> Var:
    """The column block ``w[:, cols]``; its adjoint fills those columns of a zero ``w``."""
    wv = w.value

    def back(g: np.ndarray) -> np.ndarray:
        out = np.zeros_like(wv)
        out[:, cols] = g
        return out

    return Var(wv[:, cols], parents=((w, back),))


def relu(x: Var) -> Var:
    mask = x.value > 0.0
    return Var(np.where(mask, x.value, 0.0), parents=((x, lambda g: g * mask),), tag="relu")


def add(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return Var(a.value + b.value, parents=((a, lambda g: g), (b, lambda g: g)))


def mul(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul shape mismatch: {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    return Var(av * bv, parents=((a, lambda g: g * bv), (b, lambda g: g * av)))


def scatter_rows(
    x: np.ndarray, seg: np.ndarray, n: int, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """(n, d) array whose row k sums the rows i of ``x`` with seg[i] == k.

    Same result, bit for bit, as ``np.add.at`` into zeros: each column is
    one weighted ``np.bincount``, which also adds from 0.0 in index order,
    only several times faster. The result is float64 even when ``seg`` is
    empty, where ``np.bincount`` counts in int64. With ``rows``, the rows
    summed are ``x[rows]``, gathered one column at a time.
    """
    if len(seg) and (seg.min() < 0 or seg.max() >= n):
        raise IndexError(f"segment ids must lie in [0, {n})")
    out = np.empty((n, x.shape[1]))
    for k in range(x.shape[1]):
        out[:, k] = np.bincount(seg, weights=x[:, k] if rows is None else x[rows, k], minlength=n)
    return out


def gather(x: Var, idx: np.ndarray) -> Var:
    """Select rows; the adjoint scatter-adds back to the source rows."""
    n = x.value.shape[0]
    return Var(np.take(x.value, idx, axis=0), parents=((x, lambda g: scatter_rows(g, idx, n)),))


def segment_sum(x: Var, seg: np.ndarray, n_segments: int) -> Var:
    """out[k] = sum of rows i with seg[i] == k; empty segments stay zero."""
    if x.value.ndim != 2 or seg.shape != (x.value.shape[0],):
        raise ShapeError("segment_sum expects x (n,d) and seg (n,)")
    out = scatter_rows(x.value, seg, n_segments)
    return Var(out, parents=((x, lambda g: np.take(g, seg, axis=0)),))


def log_softmax(x: Var) -> Var:
    """Row-wise log-softmax, numerically stabilized by the row max."""
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def back(g: np.ndarray) -> np.ndarray:
        return g - probs * g.sum(axis=1, keepdims=True)

    return Var(out, parents=((x, back),))


def _topo_order(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Var, seed: np.ndarray) -> None:
    """Accumulate d(seed . root) into ``grad`` of every leaf ``root`` depends on.

    An interior node's adjoint is released once it is passed on to the
    node's parents, so afterwards only the leaves hold one, and a second
    call adds the same adjoints onto theirs again. Constants get none.
    """
    if seed.shape != root.value.shape:
        raise ShapeError(f"seed shape {seed.shape} != output shape {root.value.shape}")
    root.grad = np.asarray(seed, dtype=np.float64)
    for node in reversed(_topo_order(root)):
        g = node.grad
        if g is None or not node.parents:
            continue
        node.grad = None
        for parent, vjp in node.parents:
            pg = vjp(g)
            parent.grad = pg if parent.grad is None else parent.grad + pg


def min_relu_preactivation(root: Var) -> float:
    """Smallest |pre-activation| among all ReLU nodes under ``root``.

    Finite-difference checks step across ReLU kinks when this is tiny; tests
    use it to reject degenerate configurations. Returns +inf with no ReLUs.
    """
    best = np.inf
    for node in _topo_order(root):
        if node.tag == "relu" and node.parents:
            pre = node.parents[0][0].value
            if pre.size:
                best = min(best, float(np.min(np.abs(pre))))
    return best
