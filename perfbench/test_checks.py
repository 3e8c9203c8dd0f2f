"""Each correctness check must catch a corrupted input, and the self-time
arithmetic must match values worked out by hand.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    check_gradient,
    check_step,
    check_subgraph,
    check_sweep,
    snapshot,
)
from tracing import layer_metrics, self_times  # noqa: E402

from gridmarl.graph import VERTEX_DIM, build_graph, decompose  # noqa: E402
from gridmarl.gridworld import N_ACTIONS, Scenario, ScenarioConfig, new_scenario  # noqa: E402
from gridmarl.nn.network import backward, batch_subgraphs, policy_logprobs  # noqa: E402
from gridmarl.nn.params import new_graph_net  # noqa: E402
from gridmarl.rl.trainer import sweep_values  # noqa: E402


def crowded_world(seed: int = 4):
    return new_scenario(ScenarioConfig(Scenario.JUNGLE, 6, 6, agents=12, foods=4, episode_limit=5), seed)


def subgraphs(world, depth: int = 2):
    return decompose(build_graph(world), depth)


def widest(sgs):
    return max(sgs, key=lambda sg: sg.n_members())


def test_self_times_of_nested_spans():
    # root [0, 10] holds A [1, 4] and C [5, 9]; A holds B [2, 3]; C holds D [6, 6.5]
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["A", 1.0, 4.0, 0, None],
        ["B", 2.0, 3.0, 1, None],
        ["C", 5.0, 9.0, 0, None],
        ["D", 6.0, 6.5, 3, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.5, 0.5]


def test_layer_metrics_split_a_sweep_by_hand():
    # one sweep of 3 entries [0, 10]: two critic chunks [1, 4] and [5, 6],
    # the first holding a batch build [1.5, 2.5]; one critic pass outside it
    spans = [
        ["trainer.sweep_values", 0.0, 10.0, -1, (3,)],
        ["network.critic_values", 1.0, 4.0, 0, (100, 400)],
        ["network.batch_subgraphs", 1.5, 2.5, 1, None],
        ["network.critic_values", 5.0, 6.0, 0, (20, 60)],
        ["network.critic_values", 11.0, 11.25, -1, (7, 9)],
    ]
    m = layer_metrics(spans)
    assert m["trainer.sweep_values.self_s"] == 6.0
    assert m["network.critic_values.self_s"] == 2.0 + 1.0 + 0.25
    assert m["network.batch_subgraphs.self_s"] == 1.0
    assert m["network.critic_values.calls"] == 3
    assert m["network.critic_values.rows"] == 127
    assert m["network.critic_values.edges"] == 469
    assert m["trainer.sweep_values.entries"] == 3
    assert m["trainer.sweep_values.chunks"] == 2
    assert m["trainer.sweep_values.critic_rows"] == 120
    assert m["network.backward.self_s"] == 0.0


def test_decomposition_check_catches_a_dropped_member():
    world = crowded_world()
    snap = snapshot(world)
    sgs = subgraphs(world)
    for sg in sgs:
        assert check_subgraph(snap, snap.cells(), sg, 2) == []
    sg = widest(sgs)
    assert sg.n_members() > 1
    dropped = dataclasses.replace(sg, members=sg.members[:-1])
    assert check_subgraph(snap, snap.cells(), dropped, 2)


def test_world_check_catches_a_flipped_reward():
    world = crowded_world()
    rng = np.random.default_rng(0)
    flipped = False
    while not world.finished and not flipped:
        snap = snapshot(world)
        joint = {a.id: int(rng.integers(N_ACTIONS)) for a in world.alive_agents()}
        outcome = world.step(joint)
        assert check_step(snap, joint, outcome, world) == []
        paid = [aid for aid, r in outcome.rewards.items() if r == 1.0]
        if paid:
            outcome.rewards[paid[0]] = 0.0
            assert check_step(snap, joint, outcome, world)
            flipped = True
    assert flipped


def test_sweep_check_catches_a_value_moved_by_1e_6():
    rng = np.random.default_rng(1)
    critic = new_graph_net(rng, VERTEX_DIM + N_ACTIONS, 8, 10, 1, 1, pooled=True)
    sg = widest(subgraphs(crowded_world()))
    joint = rng.integers(N_ACTIONS, size=sg.n_members())
    (swept,) = sweep_values([(sg, joint)], critic)
    assert check_sweep(sg, joint, swept, critic) == []
    moved = swept.copy()
    moved[1, joint[1]] += 1e-6
    assert check_sweep(sg, joint, moved, critic)


def test_gradient_check_catches_a_perturbed_entry():
    rng = np.random.default_rng(2)
    policy = new_graph_net(rng, VERTEX_DIM, 8, 10, N_ACTIONS, 1, pooled=False)
    for _, layer in policy.layers():
        layer.b += rng.normal(scale=0.3, size=layer.b.shape)
    batch = batch_subgraphs(subgraphs(crowded_world()))
    logp, trace = policy_logprobs(batch, policy, record=True)
    seed = rng.standard_normal(logp.shape)
    grads = backward(trace, seed)
    assert check_gradient(policy_logprobs, batch, policy, seed, grads, np.random.default_rng(3)) == []
    grads.head_lin.w[0, 0] += 0.1
    assert check_gradient(policy_logprobs, batch, policy, seed, grads, np.random.default_rng(3))


@pytest.mark.parametrize("workload", ["train-battle14", "eval-battle4k"])
def test_run_without_the_program_fails_without_a_result(tmp_path, workload):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
