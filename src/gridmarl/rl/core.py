"""Primitive quantities of the sub-graph actor-critic.

Everything an update rule needs, in isolation: action ensembling across the
sub-graphs that contain an agent, discounted returns-to-go, one-step TD
errors, and the per-member action-value baseline (the policy-weighted sweep
of the critic over one member's five possible actions, all other members'
actions held fixed).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import DomainError, EmptyEnsemble, ShapeError
from ..graph import SubGraph
from ..gridworld import N_ACTIONS
from ..nn.network import critic_forward, policy_forward
from ..nn.params import NetParams


def ensemble_action(
    dists: Sequence[np.ndarray],
    mode: str = "sample",
    rng: Optional[np.random.Generator] = None,
) -> tuple[int, np.ndarray]:
    """Fuse per-sub-graph distributions into one action.

    The ensemble distribution is the plain average of the inputs. ``sample``
    draws from it; ``greedy`` picks the highest-probability action with ties
    resolved to the lowest-ordered one. Returns (action, ensemble dist).
    """
    if not len(dists):
        raise EmptyEnsemble("no distributions to ensemble")
    stack = np.asarray(dists, dtype=np.float64)
    if stack.ndim != 2 or stack.shape[1] != N_ACTIONS:
        raise ShapeError(f"expected shape (k, {N_ACTIONS}), got {stack.shape}")
    mean = np.add.reduce(stack, axis=0) / len(stack)  # what stack.mean(axis=0) computes
    mean /= np.add.reduce(mean)
    if mode == "greedy":
        return int(mean.argmax()), mean
    if mode != "sample":
        raise DomainError(f"unknown ensemble mode {mode!r}")
    if rng is None:
        raise DomainError("sampling mode needs an rng")
    u = rng.random()
    act = np.count_nonzero(mean.cumsum() < u)
    return min(act, N_ACTIONS - 1), mean


def returns_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted suffix sums: G_t = r_t + gamma * G_{t+1}, empty-safe."""
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma}")
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.zeros_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def td_error(reward: float, v: float, v_next: float, gamma: float, terminal: bool = False) -> float:
    """One-step TD error; the successor value counts zero on terminal steps."""
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma}")
    if terminal:
        v_next = 0.0
    return reward + gamma * v_next - v


def baseline(
    sg: SubGraph,
    joint: np.ndarray,
    agent_id: int,
    policy: NetParams,
    critic: NetParams,
) -> float:
    """Policy-weighted critic sweep over one member's actions.

    v = sum over the five actions a of pi(a_j = a | sg) * q(sg, joint with
    agent j's slot replaced by a). Exactly one policy evaluation and five
    critic evaluations.
    """
    slot = sg.member_slot(agent_id)
    joint = np.asarray(joint, dtype=np.int64)
    if joint.shape != (sg.n_members(),):
        raise ShapeError(f"joint must hold one action per member, got {joint.shape}")
    probs = policy_forward(sg, policy)[slot]
    q = np.zeros(N_ACTIONS)
    for a in range(N_ACTIONS):
        swept = joint.copy()
        swept[slot] = a
        q[a] = critic_forward(sg, swept, critic)
    return float(probs @ q)
