"""Whole-system acceptance checks.

Each test covers one release gate and prints a single PASS/FAIL line with
the measured numbers, so a verbose run doubles as an acceptance report.
Tolerances sit next to their assertions. The last three checks train real
models and take a few minutes each; everything above them is fast.
"""

import dataclasses
import decimal
import math
import time

import numpy as np
import pytest

from gridmarl.graph import (
    VERTEX_DIM,
    EnvGraph,
    SubGraph,
    build_graph,
    decompose,
    rbe,
)
from gridmarl.gridworld import Position, Scenario, ScenarioConfig, new_scenario
from gridmarl.harness.bench import run_bench
from gridmarl.harness.cli import main as cli_main
from gridmarl.harness.config import RunBlock, RunConfig
from gridmarl.nn.autodiff import min_relu_preactivation
from gridmarl.nn.network import (
    backward,
    batch_subgraphs,
    critic_values,
    mlp_logprobs,
    policy_forward,
    policy_logprobs,
)
from gridmarl.nn.params import new_graph_net, new_mlp
from gridmarl.rl.core import ensemble_action
from gridmarl.rl.trainer import NetConfig, Trainer, TrainerConfig, evaluate

from test_network import toy_subgraph


@pytest.fixture
def report(capfd):
    """One uncaptured PASS/FAIL line per acceptance check."""

    def _report(ok: bool, label: str, detail: str = "") -> None:
        line = f"{'PASS' if ok else 'FAIL'}: {label}"
        if detail:
            line += f"  [{detail}]"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def jitter_biases(params, rng, scale=0.3):
    """Fresh nets have all-zero biases, which parks ReLU pre-activations
    exactly on the kink; shift them before finite-difference work."""
    for _, layer in params.layers():
        layer.b += rng.normal(scale=scale, size=layer.b.shape)


# -- 1: radial edge encoding --------------------------------------------------


def _rbe_reference(d: float, delta_d: float, n: int) -> float:
    """Element n as 40-digit decimal arithmetic sees it."""
    ctx = decimal.Context(prec=40)
    dd = ctx.subtract(decimal.Decimal(d), ctx.multiply(decimal.Decimal(n), decimal.Decimal(delta_d)))
    expo = ctx.divide(ctx.multiply(dd, dd), decimal.Decimal(delta_d))
    return float(ctx.exp(ctx.minus(expo)))


def test_edge_encoding_matches_high_precision_reference(report):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        d = float(rng.uniform(0.0, 4.0))
        delta = float(rng.uniform(0.05, 1.0))
        got = rbe(d, delta_d=delta)
        for n in range(10):
            worst = max(worst, abs(float(got[n]) - _rbe_reference(d, delta, n)))

    # a distance sitting exactly on a grid point yields exactly 1.0 there
    peaks_exact = True
    for _ in range(50):
        delta = float(rng.uniform(0.05, 1.0))
        for n in range(10):
            peaks_exact &= float(rbe(n * delta, delta_d=delta)[n]) == 1.0

    report(
        worst < 1e-12 and peaks_exact,
        "A01 edge encoding exact",
        f"1000 pairs, max err {worst:.2e}, unit peaks {'exact' if peaks_exact else 'OFF'}",
    )


# -- 2: decomposition vs shortest-path oracle ---------------------------------


def _random_interaction_graph(rng) -> tuple[EnvGraph, list[list[int]]]:
    n = int(rng.integers(1, 21))
    p = float(rng.uniform(0.0, 0.6))
    edges, dists = [], []
    adjacency = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
                dists.append(float(rng.uniform(0.1, 1.4)))
                adjacency[u].append(v)
                adjacency[v].append(u)
    g = EnvGraph(
        ids=np.arange(n, dtype=np.int64),
        features=rng.normal(size=(n, 7)),
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        dists=np.array(dists),
    )
    return g, adjacency


def _hops_from(adjacency, start) -> dict:
    hops = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    nxt.append(v)
        frontier = nxt
    return hops


def test_decomposition_matches_shortest_path_oracle(report):
    rng = np.random.default_rng(22)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        g, adjacency = _random_interaction_graph(rng)
        for k in (1, 2, 3):
            subs = decompose(g, depth=k)
            for centre, sg in enumerate(subs):
                hops = _hops_from(adjacency, centre)
                want = {v for v, h in hops.items() if h <= k}
                if set(int(m) for m in sg.members) != want:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        mismatches == 0 and elapsed < 10.0,
        "A02 decomposition oracle",
        f"500 graphs x depths 1-3, {mismatches} mismatches, {elapsed:.1f}s",
    )


# -- 3: analytic gradients vs finite differences ------------------------------


def _flat_params(params) -> np.ndarray:
    return np.concatenate(
        [np.concatenate([l.w.ravel(), l.b.ravel()]) for _, l in params.layers()]
    )


def _fd_flat(objective, params, step) -> np.ndarray:
    out = []
    for _, layer in params.layers():
        for arr in (layer.w, layer.b):
            flat = arr.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                hi = objective()
                flat[i] = keep - step
                lo = objective()
                flat[i] = keep
                out.append((hi - lo) / (2.0 * step))
    return np.array(out)


def _random_check_case(rng):
    """One small random net with a recorded forward and a scalar objective.

    Rejects parameter draws whose ReLU pre-activations sit within 1e-3 of
    the kink: a finite-difference step across a kink measures the wrong
    one-sided slope, so those coordinates are outside the check's contract.
    """
    kind = int(rng.integers(3))
    in_dim = int(rng.integers(3, 6))
    hidden = int(rng.integers(3, 5))
    n_max = int(rng.integers(3, 6))
    rounds = int(rng.integers(1, 3))
    m = int(rng.integers(2, 5))
    for _ in range(50):
        sub = np.random.default_rng(rng.integers(2**63))
        if kind == 2:
            params = new_mlp(sub, in_dim, hidden, 5)
            jitter_biases(params, sub)
            x = sub.normal(size=(m, in_dim))
            w = sub.normal(size=(m, 5))
            _, trace = mlp_logprobs(x, params, record=True)
            objective = lambda: float(np.sum(w * mlp_logprobs(x, params)[0]))
        else:
            width = in_dim + 5 if kind == 1 else in_dim
            params = new_graph_net(
                sub, width, hidden, n_max, 5 if kind == 0 else 1, rounds, pooled=kind == 1
            )
            jitter_biases(params, sub)
            sg = toy_subgraph(sub, m, in_dim, n_max=n_max)
            if kind == 0:
                batch = batch_subgraphs([sg])
                w = sub.normal(size=(m, 5))
                _, trace = policy_logprobs(batch, params, record=True)
                objective = lambda: float(np.sum(w * policy_logprobs(batch, params)[0]))
            else:
                joint = sub.integers(0, 5, size=m)
                batch = batch_subgraphs([sg], joints=[joint])
                w = float(sub.normal())
                _, trace = critic_values(batch, params, record=True)
                objective = lambda: w * float(critic_values(batch, params)[0][0])
        if min_relu_preactivation(trace.output) > 1e-3:
            seed = w if kind != 1 else np.array([w])
            return params, trace, seed, objective
    raise AssertionError("could not draw a kink-free configuration")


def test_gradients_match_finite_differences(report):
    rng = np.random.default_rng(33)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        params, trace, seed, objective = _random_check_case(rng)
        analytic = _flat_params(backward(trace, np.asarray(seed, dtype=np.float64)))
        numeric = _fd_flat(objective, params, step=1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    elapsed = time.perf_counter() - t0
    report(
        worst < 1e-4 and elapsed < 60.0,
        "A03 gradients vs finite differences",
        f"100 configurations, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- 4: member-order invariance and relabelling -------------------------------


def _random_world(rng, square=False):
    scen = (Scenario.JUNGLE, Scenario.BATTLE, Scenario.DECEPTION)[int(rng.integers(3))]
    w = int(rng.integers(6, 10))
    h = w if square else int(rng.integers(6, 10))
    agents = int(rng.integers(3, 7))
    cfg = ScenarioConfig(
        scen,
        w,
        h,
        agents=agents,
        foods=3 if scen is Scenario.JUNGLE else 0,
        landmarks=3 if scen is Scenario.DECEPTION else 0,
        adversaries=2,
        episode_limit=10,
    )
    return new_scenario(cfg, int(rng.integers(2**31)))


def _shuffled_subgraph(sg: SubGraph, rng) -> SubGraph:
    """Same sub-graph, members and edges stored in a different order."""
    perm = rng.permutation(sg.n_members())  # slot i moves to perm[i]
    inv = np.argsort(perm)
    eperm = rng.permutation(len(sg.edge_src))
    return SubGraph(
        centre=sg.centre,
        members=sg.members[inv],
        features=sg.features[inv],
        edge_src=perm[sg.edge_src][eperm],
        edge_dst=perm[sg.edge_dst][eperm],
        edge_dist=sg.edge_dist[eperm],
        edge_feat=sg.edge_feat[eperm],
        depth=sg.depth,
    )


def _relabelled_world(world, sigma):
    """The world with agent i renamed sigma[i]; ids sigma leaves out are dead agents."""
    ids = [sigma[i] for i in range(len(world.agents))]
    n = max(ids) + 1
    team, pos = np.zeros(n, dtype=np.int64), np.zeros((n, 2), dtype=np.int64)
    alive, streak = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    team[ids], pos[ids], alive[ids], streak[ids] = world.team, world.pos, world.alive, world.streak
    return dataclasses.replace(world, team=team, pos=pos, alive=alive, streak=streak)


def _edge_set(sg: SubGraph) -> set:
    out = set()
    for s, d, dist in zip(sg.edge_src, sg.edge_dst, sg.edge_dist):
        u, v = int(sg.members[s]), int(sg.members[d])
        out.add((min(u, v), max(u, v), float(dist)))
    return out


def test_member_order_and_relabelling_invariance(report):
    rng = np.random.default_rng(44)
    net = new_graph_net(rng, VERTEX_DIM, 8, 10, 5, n_rounds=2)
    jitter_biases(net, rng)

    checked = 0
    worst = 0.0
    while checked < 200:
        world = _random_world(rng)
        for sg in decompose(build_graph(world), depth=int(rng.integers(1, 4))):
            if checked >= 200:
                break
            out1 = policy_forward(sg, net)
            sg2 = _shuffled_subgraph(sg, rng)
            out2 = policy_forward(sg2, net)
            slot2 = {int(m): k for k, m in enumerate(sg2.members)}
            for k, m in enumerate(sg.members):
                diff = float(np.max(np.abs(out1[k] - out2[slot2[int(m)]])))
                worst = max(worst, diff)
            checked += 1

    relabel_ok = True
    for _ in range(30):
        world = _random_world(rng)
        n = len(world.agents)
        perm = rng.permutation(n)
        for sigma, order_preserving in (
            ({i: int(perm[i]) for i in range(n)}, False),
            ({i: 3 * i + 5 for i in range(n)}, True),
        ):
            depth = int(rng.integers(1, 4))
            base = decompose(build_graph(world), depth=depth)
            moved = decompose(build_graph(_relabelled_world(world, sigma)), depth=depth)
            by_centre = {sg.centre: sg for sg in moved}
            for sg in base:
                twin = by_centre[sigma[sg.centre]]
                want_members = {sigma[int(m)] for m in sg.members}
                relabel_ok &= want_members == {int(m) for m in twin.members}
                want_edges = {
                    (min(sigma[u], sigma[v]), max(sigma[u], sigma[v]), d)
                    for u, v, d in _edge_set(sg)
                }
                relabel_ok &= want_edges == _edge_set(twin)
                for k, m in enumerate(sg.members):
                    j = twin.member_slot(sigma[int(m)])
                    relabel_ok &= bool(np.array_equal(sg.features[k], twin.features[j]))
                if order_preserving:
                    relabel_ok &= [sigma[int(m)] for m in sg.members] == [
                        int(m) for m in twin.members
                    ]

    report(
        worst <= 1e-9 and relabel_ok,
        "A04 member order and relabelling",
        f"200 sub-graphs, max policy drift {worst:.1e}; relabelling commutes: {relabel_ok}",
    )


# -- 5: rotation and mirror invariance ----------------------------------------


def _transform_world(world, ops):
    """Apply a sequence of quarter turns and mirrors to a square world."""
    s = world.width

    def rot(p):
        return Position(s - 1 - p.y, p.x)

    def mir(p):
        return Position(s - 1 - p.x, p.y)

    move = {"rot": rot, "mir": mir}

    def t(p):
        for op in ops:
            p = move[op](p)
        return p

    # a new world, so that its boards are derived from the moved cells
    return dataclasses.replace(
        world,
        walls=frozenset(t(p) for p in world.walls),
        foods=frozenset(t(p) for p in world.foods),
        landmarks=tuple(t(p) for p in world.landmarks),
        pos=[t(a.pos) for a in world.agents],
    )


def _transform_patch(patch, ops):
    out = patch
    for op in ops:
        out = np.rot90(out, k=-1, axes=(0, 1)) if op == "rot" else np.flip(out, axis=1)
    return out


def test_rotation_and_mirror_invariance(report):
    rng = np.random.default_rng(55)
    net = new_graph_net(rng, VERTEX_DIM, 8, 10, 5, n_rounds=2)
    jitter_biases(net, rng)

    feats_ok = edges_ok = True
    policy_worst = 0.0
    for _ in range(100):
        world = _random_world(rng, square=True)
        ops = [("rot", "mir")[int(rng.integers(2))] for _ in range(int(rng.integers(1, 4)))]
        moved = _transform_world(world, ops)
        g1, g2 = build_graph(world), build_graph(moved)

        # vertex features move by a fixed permutation of the 3x3 window
        row2 = {int(i): g2.features[k] for k, i in enumerate(g2.ids)}
        for k, i in enumerate(g1.ids):
            a, b = g1.features[k], row2[int(i)]
            feats_ok &= bool(np.array_equal(a[:2], b[:2]))
            want = _transform_patch(a[2:].reshape(3, 3, 5), ops)
            feats_ok &= bool(np.array_equal(want, b[2:].reshape(3, 3, 5)))

        # edge geometry does not move at all
        def pairs(g):
            return {
                (min(int(g.ids[u]), int(g.ids[v])), max(int(g.ids[u]), int(g.ids[v]))): d
                for (u, v), d in zip(g.edges, g.dists)
            }

        p1, p2 = pairs(g1), pairs(g2)
        edges_ok &= set(p1) == set(p2)
        edges_ok &= all(p1[k] == p2[k] for k in p1)

        # with the window contents pinned, the policy cannot see the turn
        subs1 = decompose(g1, depth=2)
        subs2 = decompose(g2, depth=2)
        for sg1, sg2 in zip(subs1, subs2):
            edges_ok &= bool(np.array_equal(sg1.edge_feat, sg2.edge_feat))
            pinned = dataclasses.replace(sg2, features=sg1.features)
            diff = float(np.max(np.abs(policy_forward(sg1, net) - policy_forward(pinned, net))))
            policy_worst = max(policy_worst, diff)

    report(
        feats_ok and edges_ok and policy_worst <= 1e-9,
        "A05 rotation and mirror invariance",
        f"100 worlds; window permutation {'exact' if feats_ok else 'OFF'}, "
        f"edge features {'bit-identical' if edges_ok else 'OFF'}, "
        f"max policy drift {policy_worst:.1e}",
    )


# -- 6: ensembling never raises mean squared error ----------------------------


def test_ensemble_never_raises_mse(report):
    rng = np.random.default_rng(66)
    violations = 0
    for _ in range(1000):
        y = rng.dirichlet(np.full(5, 1.5))
        sigma = float(rng.uniform(0.2, 1.0))
        dists = []
        for _ in range(5):
            p = y * np.exp(rng.normal(scale=sigma, size=5))
            dists.append(p / p.sum())
        _, avg = ensemble_action(dists, mode="greedy")
        mse_avg = float(np.mean((avg - y) ** 2))
        mse_each = float(np.mean([np.mean((p - y) ** 2) for p in dists]))
        if mse_avg > mse_each:
            violations += 1
    report(
        violations == 0,
        "A06 ensemble never raises MSE",
        f"1000 contexts, 5 noisy single-view policies each, {violations} violations",
    )


# -- 7: action-independent critic offsets cancel ------------------------------


def test_constant_offset_leaves_expected_update_at_zero(report):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        in_dim = int(rng.integers(3, 7))
        net = new_graph_net(
            rng, in_dim, int(rng.integers(3, 7)), 5, 5, n_rounds=int(rng.integers(1, 3))
        )
        jitter_biases(net, rng)
        sg = toy_subgraph(rng, int(rng.integers(2, 6)), in_dim, n_max=5)
        logp, trace = policy_logprobs(batch_subgraphs([sg]), net, record=True)
        c = float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)
        # probability-weighted score seeds: the expected update under a
        # constant value offset c applied to every action
        grads = backward(trace, np.exp(logp) * c)
        for _, layer in grads.layers():
            worst = max(worst, float(np.max(np.abs(layer.w))), float(np.max(np.abs(layer.b))))
    report(
        worst < 1e-6,
        "A07 constant critic offset cancels",
        f"100 policy/sub-graph pairs, max |expected update| {worst:.1e}",
    )


# -- 8: learning trend in the jungle ------------------------------------------

TREND_WORLD = ScenarioConfig(Scenario.JUNGLE, 15, 15, agents=8, foods=5, episode_limit=20)
TREND_NET = NetConfig(hidden=8, rounds=1)
TREND_KNOBS = dict(gamma=0.99, depth=2, batch_episodes=20, lr_policy=0.01, lr_critic=0.01)


def _final_reward(algorithm: str, seed: int) -> float:
    tcfg = TrainerConfig(algorithm=algorithm, **TREND_KNOBS)
    trainer = Trainer(TREND_WORLD, tcfg, TREND_NET, seed=seed)
    rows = trainer.train(100)
    return float(np.mean([r.mean_reward for r in rows[-10:]]))


def test_learning_trend_orders_the_algorithms(report):
    t0 = time.perf_counter()
    seeds = (0, 1, 2)
    final = {
        (algo, s): _final_reward(algo, s)
        for algo in ("graph-ac", "graph-pg", "vanilla-pg")
        for s in seeds
    }
    ordered = sum(
        final[("graph-ac", s)] >= final[("graph-pg", s)] >= final[("vanilla-pg", s)]
        for s in seeds
    )

    tcfg = TrainerConfig(algorithm="graph-ac", **TREND_KNOBS)
    probe = Trainer(TREND_WORLD, tcfg, TREND_NET, seed=0)
    rand = evaluate(
        TREND_WORLD, probe.nets, tcfg, TREND_NET, episodes=100, seed=777,
        random_teams=frozenset({0}),
    )[0]["mean_reward"]
    ac_mean = float(np.mean([final[("graph-ac", s)] for s in seeds]))
    elapsed = time.perf_counter() - t0
    triplets = " ".join(
        f"s{s}:{final[('graph-ac', s)]:.1f}/{final[('graph-pg', s)]:.1f}"
        f"/{final[('vanilla-pg', s)]:.1f}"
        for s in seeds
    )

    report(
        ordered >= 2 and ac_mean >= 1.5 * rand and elapsed < 1800.0,
        "A08 learning trend",
        f"ac>=pg>=vanilla in {ordered}/3 seeds (ac/pg/vanilla {triplets}); "
        f"ac {ac_mean:.2f} vs random {rand:.2f} (need 1.5x); {elapsed / 60:.1f} min",
    )


# -- 9: cost scaling with the population --------------------------------------


def test_scaling_stays_subquadratic_and_fits_memory(report):
    base = ScenarioConfig(Scenario.JUNGLE, 8, 8, agents=16, foods=3, episode_limit=2)
    cfg = RunConfig(
        scenario=base,
        trainer=TrainerConfig(algorithm="graph-ac", depth=2, batch_episodes=1),
        network=NetConfig(hidden=4, rounds=1),
        run=RunBlock(seed=0, batches=1, out_dir="unused", timing=True),
    )
    rows = run_bench(cfg, [10, 100, 1000], episodes=100, limit=2)
    t10, t100, t1000 = (r.seconds for r in rows)
    lo, hi = t100 / t10, t1000 / t100
    guard = hi < 100.0 * lo

    big = run_bench(cfg, [10000], episodes=1, limit=1)
    completed = big[0].seconds > 0.0

    report(
        guard and completed,
        "A09 population scaling",
        f"per-100-episode times {t10:.2f}/{t100:.2f}/{t1000:.2f}s, "
        f"growth {hi:.1f}x vs allowed {100.0 * lo:.0f}x; N=10000 completed",
    )


# -- 10: transfer to a doubled battle -----------------------------------------


def test_trained_team_beats_random_at_double_size(report):
    t0 = time.perf_counter()
    train_world = ScenarioConfig(Scenario.BATTLE, 10, 10, agents=14, episode_limit=30)
    eval_world = ScenarioConfig(Scenario.BATTLE, 14, 14, agents=28, episode_limit=30)
    tcfg = TrainerConfig(algorithm="graph-ac", depth=2, batch_episodes=8)
    net = NetConfig(hidden=8, rounds=1)

    trainer = Trainer(train_world, tcfg, net, seed=0)
    trainer.train(50)
    res = evaluate(
        eval_world, trainer.nets, tcfg, net, episodes=200, seed=123,
        mode="greedy", random_teams=frozenset({1}),
    )
    win = res[0]["win_rate"]
    bar = 0.5 + 3.0 * math.sqrt(0.25 / 200.0)
    elapsed = time.perf_counter() - t0
    report(
        win is not None and win > bar,
        "A10 transfer to doubled battle",
        f"win rate {win:.3f} over 200 episodes vs random, bar {bar:.4f}; "
        f"{elapsed / 60:.1f} min",
    )


# -- 11: bit-reproducible training --------------------------------------------

DETERMINISM_YAML = """
scenario:
  type: battle
  width: 6
  height: 6
  agents: 2
  episode_limit: 5
trainer:
  algorithm: graph-ac
  gamma: 0.9
  depth: 2
  batch_episodes: 2
network:
  hidden: 6
  rounds: 1
run:
  seed: 3
  batches: 3
  out_dir: OUTDIR
  timing: false
"""


def test_training_is_bit_reproducible(report, tmp_path):
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(DETERMINISM_YAML.replace("OUTDIR", str(out_dir)))
        assert cli_main(["train", str(cfg)]) == 0
        outs.append(out_dir)
    metrics = [(d / "metrics.csv").read_bytes() for d in outs]
    ckpts = [(d / "checkpoint.gmrl").read_bytes() for d in outs]
    same_metrics = metrics[0] == metrics[1]
    same_ckpt = ckpts[0] == ckpts[1]
    report(
        same_metrics and same_ckpt,
        "A11 bit-reproducible training",
        f"two runs: metrics {'identical' if same_metrics else 'DIFFER'} "
        f"({len(metrics[0])} bytes), checkpoints {'identical' if same_ckpt else 'DIFFER'}",
    )
