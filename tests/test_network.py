"""Message-passing networks: reference forwards, gradients, invariances."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from gridmarl import Position, Scenario, ScenarioConfig, ShapeError, StaleTrace, new_scenario
from gridmarl.graph import DEFAULT_N_MAX, VERTEX_DIM, SubGraph, build_graph, decompose, rbe
from gridmarl.gridworld import N_ACTIONS
from gridmarl.harness.bench import scaled_scenario
from gridmarl.nn import autodiff as ad
from gridmarl.nn import network
from gridmarl.nn.params import h_lin, h_rel, vertex_update
from gridmarl.nn.optim import adam_state
from gridmarl.rl.trainer import NetConfig, Trainer, TrainerConfig, team_transitions
from gridmarl.nn import (
    MlpParams,
    NetParams,
    Trace,
    adam_step,
    backward,
    batch_subgraphs,
    critic_deviations,
    critic_forward,
    critic_values,
    edge_update,
    min_relu_preactivation,
    mlp_logprobs,
    new_graph_net,
    new_mlp,
    policy_forward,
    policy_logprobs,
    zeros_like_params,
)


def toy_subgraph(rng, m: int, in_dim: int, n_max: int = 10, ring: bool = True) -> SubGraph:
    """A small sub-graph with random features and a ring (or empty) edge set."""
    if ring and m > 1:
        src = np.arange(m)
        dst = (src + 1) % m
        src = np.concatenate([src, dst])
        dst = np.concatenate([dst, np.arange(m)])
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    dists = rng.uniform(0.0, 1.5, size=len(src))
    feats = np.stack([rbe(d, n_max=n_max) for d in dists]) if len(src) else np.zeros((0, n_max))
    return SubGraph(
        centre=0,
        members=np.arange(m),
        features=rng.normal(size=(m, in_dim)),
        edge_src=src.astype(np.int64),
        edge_dst=dst.astype(np.int64),
        edge_dist=dists,
        edge_feat=feats,
        depth=3,
    )


def reference_forward(sg: SubGraph, params: NetParams) -> np.ndarray:
    """Vertex-at-a-time forward using the single-vertex reference updates."""
    s = sg.features @ params.ebd.w.T + params.ebd.b
    z = sg.edge_feat.copy()
    for rp in params.rounds:
        z_new = np.stack(
            [
                edge_update(z[e], s[sg.edge_src[e]], s[sg.edge_dst[e]], rp.edge)
                for e in range(len(sg.edge_src))
            ]
        ) if len(sg.edge_src) else z
        s_new = np.stack(
            [
                vertex_update(
                    s[v], [z_new[e] for e in range(len(sg.edge_dst)) if sg.edge_dst[e] == v], rp
                )
                for v in range(sg.n_members())
            ]
        )
        z, s = z_new, s_new
    if params.pooled:
        s = s.sum(axis=0, keepdims=True)
    hid = np.maximum(s @ params.head_rel.w.T + params.head_rel.b, 0.0)
    return hid @ params.head_lin.w.T + params.head_lin.b


def concat_cols(parts):
    """Column concatenation, on the tape when ``parts`` are tape values."""
    if not isinstance(parts[0], ad.Var):
        return np.concatenate(parts, axis=1)
    ends = np.cumsum([0] + [p.value.shape[1] for p in parts])
    back = [lambda g, lo=lo, hi=hi: g[:, lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]
    return ad.Var(np.concatenate([p.value for p in parts], axis=1), parents=list(zip(parts, back)))


def concat_trunk(batch, params: NetParams, ops):
    """The trunk the long way round: the (v, f) vertex-input matrix through the
    whole embedding, and each round's edge layer on the (e, 2h + d)
    concatenation [z, s[src], s[dst]]. ``ops`` is a plain or recording op set
    of the network module; the output rows are log-probabilities for a policy."""
    # the two inputs a batch used to hold, gathered for the whole pass
    x, z0 = batch.x, np.take(batch.rbf, batch.edge_code, axis=0)
    src, dst = batch.edge_src, batch.edge_dst
    s = ops.linear(ops.wrap(x), ops.layer("ebd", params.ebd))
    z = ops.wrap(z0)
    for r, rp in enumerate(params.rounds):
        cat = concat_cols([z, ops.gather(s, src), ops.gather(s, dst)])
        z = ops.relu(ops.linear(cat, ops.layer(f"rounds.{r}.edge", rp.edge)))
        filt = ops.relu(ops.linear(z, ops.layer(f"rounds.{r}.z_rel", rp.z_rel)))
        sv = ops.linear(s, ops.layer(f"rounds.{r}.v_lin", rp.v_lin))
        agg = ops.mul(sv, ops.segsum(filt, dst, batch.n_vertices()))
        lift = ops.relu(ops.linear(agg, ops.layer(f"rounds.{r}.post_rel", rp.post_rel)))
        s = ops.add(s, ops.linear(lift, ops.layer(f"rounds.{r}.post_lin", rp.post_lin)))
    if params.pooled:
        s = ops.segsum(s, batch.graph_of, batch.n_graphs)
    hid = ops.relu(ops.linear(s, ops.layer("head_rel", params.head_rel)))
    out = ops.linear(hid, ops.layer("head_lin", params.head_lin))
    return out if params.pooled else ops.log_softmax(out)


def concat_grads(batch, params: NetParams, seed: np.ndarray):
    """Parameter gradients of seed . output through :func:`concat_trunk`, by path."""
    ops = network._RecordOps()
    out = concat_trunk(batch, params, ops)
    ad.backward(out, seed.reshape(out.value.shape))
    return {path: (w.grad, b.grad) for path, (w, b) in ops.leaves.items()}


def times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` over the last axis of ``x``, as one matrix product."""
    return (x.reshape(-1, x.shape[-1]) @ w.T).reshape(*x.shape[:-1], w.shape[0])


def four_at_once_deviations(batch, params: NetParams):
    """:func:`critic_deviations` with the four alternatives side by side, as it
    ran before it swept them one at a time: each pair's change is (4, h), so
    every temporary is (changed edges or pairs) x 4 x h, and each round's
    index arrays are built as the round runs."""
    kept: list = []
    base = network._graph_trunk(batch, params, network._KeepOps(), kept).reshape(-1)
    reg = network._regions(batch, len(params.rounds))
    n_pairs, alts, d, h = len(reg.row), N_ACTIONS - 1, params.edge_dim, params.hidden
    held = batch.acts
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
        z = np.take(network._with_zero_row(times(ds[near], w_src)), slot[ps], axis=0)
        z += np.take(network._with_zero_row(times(ds[near], w_dst)), slot[pd], axis=0)
        if i:  # the edges the last round changed come first
            z[: len(dz)] += times(dz, w_z)
            del dz
        z += pre[e][:, None]
        z = np.maximum(z, 0.0, out=z)
        if i + 1 < len(params.rounds):
            dz = z - np.maximum(pre[e], 0.0)[:, None]
        dfilt = times(z, rp.z_rel.w)
        del z
        dfilt += rp.z_rel.b
        dfilt = np.maximum(dfilt, 0.0, out=dfilt)
        dfilt -= filt[e][:, None]

        reach = np.flatnonzero(reg.hops <= i + 1)  # the pairs changed after this round
        reach_slot = np.empty(n_pairs, dtype=np.int64)
        reach_slot[reach] = np.arange(len(reach))
        u = reg.vertex[reach]
        agg = network._sum_rows(dfilt, reach_slot[pd], len(reach))
        del dfilt
        agg += fsum[u][:, None]
        agg *= np.take(network._with_zero_row(times(ds[near], rp.v_lin.w)), slot[reach], axis=0) + sv[u][:, None]
        lift = times(agg, rp.post_rel.w)
        del agg
        lift += rp.post_rel.b
        lift = np.maximum(lift, 0.0, out=lift)
        upd = times(lift, rp.post_lin.w)
        del lift
        upd += (rp.post_lin.b + s[u] - kept[i + 1][0][u])[:, None]  # less the base pass's update
        upd += ds[reach]
        ds[reach] = upd
        del upd

    pooled = network._sum_rows(ds, reg.row, batch.n_vertices())
    pooled += ad.scatter_rows(kept[-1][0], batch.graph_of, batch.n_graphs)[batch.graph_of][:, None]
    hid = times(pooled, params.head_rel.w)
    hid += params.head_rel.b
    hid = np.maximum(hid, 0.0, out=hid)
    return base, times(hid, params.head_lin.w)[..., 0] + params.head_lin.b[0]


class TestForward:
    def test_policy_matches_reference(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            net = new_graph_net(rng, in_dim=6, hidden=5, edge_dim=10, out_dim=5, n_rounds=2)
            sg = toy_subgraph(rng, m=int(rng.integers(1, 5)), in_dim=6)
            raw = reference_forward(sg, net)
            shifted = raw - raw.max(axis=1, keepdims=True)
            want = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            logp, _ = policy_logprobs(batch_subgraphs([sg]), net)
            np.testing.assert_allclose(logp, want, atol=1e-10)

    def test_critic_matches_reference(self):
        rng = np.random.default_rng(1)
        net = new_graph_net(rng, in_dim=11, hidden=4, edge_dim=10, out_dim=1, pooled=True)
        sg = toy_subgraph(rng, m=3, in_dim=6)
        joint = np.array([2, 0, 4])
        onehot = np.zeros((3, 5))
        onehot[np.arange(3), joint] = 1.0
        wide = SubGraph(
            centre=sg.centre,
            members=sg.members,
            features=np.concatenate([sg.features, onehot], axis=1),
            edge_src=sg.edge_src,
            edge_dst=sg.edge_dst,
            edge_dist=sg.edge_dist,
            edge_feat=sg.edge_feat,
            depth=sg.depth,
        )
        want = reference_forward(wide, net)
        assert want.shape == (1, 1)
        got = critic_forward(sg, joint, net)
        np.testing.assert_allclose(got, want[0, 0], atol=1e-10)

    def test_batched_equals_per_graph(self):
        rng = np.random.default_rng(2)
        net = new_graph_net(rng, in_dim=7, hidden=6, edge_dim=10, out_dim=5)
        sgs = [toy_subgraph(rng, m=int(rng.integers(1, 6)), in_dim=7) for _ in range(6)]
        batched, _ = policy_logprobs(batch_subgraphs(sgs), net)
        row = 0
        for sg in sgs:
            single, _ = policy_logprobs(batch_subgraphs([sg]), net)
            np.testing.assert_allclose(batched[row : row + sg.n_members()], single, atol=1e-12)
            row += sg.n_members()
        assert row == batched.shape[0]

    def test_batched_critic_equals_per_graph(self):
        rng = np.random.default_rng(3)
        net = new_graph_net(rng, in_dim=12, hidden=4, edge_dim=10, out_dim=1, pooled=True)
        sgs = [toy_subgraph(rng, m=int(rng.integers(1, 5)), in_dim=7) for _ in range(5)]
        joints = [rng.integers(0, 5, size=sg.n_members()) for sg in sgs]
        batched, _ = critic_values(batch_subgraphs(sgs, joints=joints), net)
        assert batched.shape == (5,)
        for k, sg in enumerate(sgs):
            np.testing.assert_allclose(batched[k], critic_forward(sg, joints[k], net), atol=1e-12)

    def test_isolated_vertex_gets_a_distribution(self):
        rng = np.random.default_rng(4)
        net = new_graph_net(rng, in_dim=5, hidden=4, edge_dim=10, out_dim=5)
        sg = toy_subgraph(rng, m=1, in_dim=5, ring=False)
        probs = policy_forward(sg, net)
        assert probs.shape == (1, 5)
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_wrong_feature_width_rejected(self):
        rng = np.random.default_rng(5)
        net = new_graph_net(rng, in_dim=9, hidden=4, edge_dim=10, out_dim=5)
        sg = toy_subgraph(rng, m=2, in_dim=7)
        with pytest.raises(ShapeError):
            policy_logprobs(batch_subgraphs([sg]), net)

    def test_critic_rejects_wrong_joint_length(self):
        rng = np.random.default_rng(6)
        net = new_graph_net(rng, in_dim=12, hidden=4, edge_dim=10, out_dim=1, pooled=True)
        sg = toy_subgraph(rng, m=3, in_dim=7)
        with pytest.raises(ShapeError):
            critic_forward(sg, np.array([1, 2]), net)
        with pytest.raises(ShapeError):
            batch_subgraphs([sg], joints=[np.array([1, 2])])


def crowded_world(rng, scenario: Scenario):
    """A small random world with about 30% of its agents stacked onto another's cell."""
    if scenario is Scenario.JUNGLE:
        cfg = ScenarioConfig(scenario, 6, 6, agents=10, foods=2, episode_limit=6)
    else:
        cfg = ScenarioConfig(scenario, 6, 6, agents=5, episode_limit=6)
    world = new_scenario(cfg, int(rng.integers(1 << 30)))
    for a in world.agents:
        if rng.random() < 0.3:
            a.pos = world.agents[int(rng.integers(len(world.agents)))].pos
    return world


def crowded_decomposition(rng, scenario: Scenario, depth: int = 3):
    """The sub-graphs of every agent of a :func:`crowded_world`."""
    return decompose(build_graph(crowded_world(rng, scenario)), depth=depth)


def eval_step_part():
    """Team 0's part of the first step of a greedy evaluation of A10's world
    scaled to 2000 per team: 2000 sub-graphs of depth 2."""
    base = ScenarioConfig(Scenario.BATTLE, 14, 14, agents=28, episode_limit=30)
    world = new_scenario(scaled_scenario(base, 2000, limit=10), 0)
    g = build_graph(world)
    dec = decompose(g, 2, centres=np.flatnonzero(world.team[g.ids] == 0))
    assert len(dec) == 2000
    return dec


def peak_bytes(forward) -> int:
    """The tracemalloc peak of ``forward()``; tracemalloc peaks are deterministic."""
    tracemalloc.start()
    try:
        forward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def jittered_net(rng, in_dim: int, out_dim: int, rounds: int, pooled: bool) -> NetParams:
    net = new_graph_net(rng, in_dim, 6, DEFAULT_N_MAX, out_dim, rounds, pooled=pooled)
    for _, layer in net.layers():
        layer.b += rng.normal(scale=0.3, size=layer.b.shape)  # keep ReLUs off their kink
    return net


class TestFactoredTrunk:
    """The trunk multiplies table rows and gathers the products; the
    concatenated-input reference gathers the inputs. Both must agree."""

    def assert_grads(self, got: NetParams, want: dict):
        for path, layer in got.layers():
            np.testing.assert_allclose(layer.w, want[path][0], rtol=1e-10, atol=1e-10, err_msg=path)
            np.testing.assert_allclose(layer.b, want[path][1], rtol=1e-10, atol=1e-10, err_msg=path)

    @pytest.mark.parametrize("scenario", [Scenario.JUNGLE, Scenario.BATTLE])
    @pytest.mark.parametrize("rounds", [0, 1, 2, 3])
    def test_matches_the_concatenated_trunk(self, scenario, rounds):
        rng = np.random.default_rng(100 + rounds)
        plain = network._NumpyOps()
        for _ in range(2):
            dec = crowded_decomposition(rng, scenario)
            policy = jittered_net(rng, VERTEX_DIM, N_ACTIONS, rounds, pooled=False)
            critic = jittered_net(rng, VERTEX_DIM + N_ACTIONS, 1, rounds, pooled=True)
            joint = rng.integers(N_ACTIONS, size=int(dec.offsets[-1]))
            views, joints = list(dec), np.split(joint, dec.offsets[1:-1])
            forms = [
                (batch_subgraphs(dec), batch_subgraphs(dec, joints=[joint])),
                (batch_subgraphs(views), batch_subgraphs(views, joints=joints)),
            ]
            close = dict(rtol=0, atol=1e-12)
            for pol_batch, cri_batch in forms:
                want = concat_trunk(pol_batch, policy, plain)
                np.testing.assert_allclose(policy_logprobs(pol_batch, policy)[0], want, **close)
                logp, trace = policy_logprobs(pol_batch, policy, record=True)
                np.testing.assert_allclose(logp, want, **close)
                seed = rng.normal(size=logp.shape)
                self.assert_grads(backward(trace, seed), concat_grads(pol_batch, policy, seed))

                want = concat_trunk(cri_batch, critic, plain).reshape(-1)
                np.testing.assert_allclose(critic_values(cri_batch, critic)[0], want, **close)
                vals, trace = critic_values(cri_batch, critic, record=True)
                np.testing.assert_allclose(vals, want, **close)
                seed = rng.normal(size=vals.shape)
                self.assert_grads(backward(trace, seed), concat_grads(cri_batch, critic, seed))

                base, dev = critic_deviations(cri_batch, critic)
                np.testing.assert_allclose(base, want, **close)
                for j, k in enumerate(cri_batch.graph_of.tolist()):
                    one = cri_batch.graphs(slice(k, k + 1))
                    first = int(np.searchsorted(cri_batch.graph_of, k))
                    others = [a for a in range(N_ACTIONS) if a != cri_batch.acts[j]]
                    for a, got in zip(others, dev[j]):
                        one.acts = one.acts.copy()
                        one.acts[j - first] = a
                        np.testing.assert_allclose(got, concat_trunk(one, critic, plain)[0, 0], **close)

    def test_policy_pass_allocates_well_below_the_concatenated_one(self):
        # one team's part through the A10 policy (hidden 8, one round)
        dec = eval_step_part()
        policy = new_graph_net(np.random.default_rng(0), VERTEX_DIM, 8, DEFAULT_N_MAX, N_ACTIONS, 1)
        factored = peak_bytes(lambda: policy_logprobs(batch_subgraphs(dec), policy))
        plain = network._NumpyOps()
        concatenated = peak_bytes(lambda: concat_trunk(batch_subgraphs(dec), policy, plain))
        assert factored <= 0.6 * concatenated, (factored, concatenated)


def train_battle14_record():
    """The first batch of the ``train-battle14`` workload (A10's training
    world, graph-ac, seed 0, eight episodes, depth 2, hidden 8, one round):
    a function that builds its (episode, team) record with the most member
    rows as a fresh critic batch of the executed joints, and that team's
    critic."""
    cfg = ScenarioConfig(Scenario.BATTLE, 10, 10, agents=14, episode_limit=30)
    tcfg = TrainerConfig(algorithm="graph-ac", depth=2, batch_episodes=8)
    trainer = Trainer(cfg, tcfg, NetConfig(hidden=8, rounds=1), seed=0)
    records = [
        (team_transitions(trainer._episode(0, e).steps, trainer.team, t), t)
        for e in range(8)
        for t in trainer.teams
    ]
    tr, team = max(records, key=lambda r: len(r[0].dec.rows))
    return lambda: batch_subgraphs(tr.dec, joints=[tr.executed]), trainer.nets[team].critic


class TestDeviations:
    """The sweep runs the four alternatives one after another; the same sweep
    with the four side by side must agree, and hold more memory."""

    @pytest.mark.parametrize("scenario", [Scenario.JUNGLE, Scenario.BATTLE])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_matches_the_four_at_once_sweep(self, scenario, rounds):
        rng = np.random.default_rng(300 + rounds)
        close = dict(rtol=0, atol=1e-12)
        for _ in range(2):
            dec = crowded_decomposition(rng, scenario)
            critic = jittered_net(rng, VERTEX_DIM + N_ACTIONS, 1, rounds, pooled=True)
            batch = batch_subgraphs(dec, joints=[rng.integers(N_ACTIONS, size=len(dec.rows))])
            base, dev = critic_deviations(batch, critic)
            want_base, want_dev = four_at_once_deviations(batch, critic)
            assert dev.shape == want_dev.shape == (len(dec.rows), N_ACTIONS - 1)
            np.testing.assert_allclose(base, want_base, **close)
            np.testing.assert_allclose(dev, want_dev, **close)

    def test_sweep_allocates_at_most_06_of_the_four_at_once_one(self):
        batch, critic = train_battle14_record()
        assert batch().n_vertices() == 1516
        # a fresh batch per call: each computes its regions
        alone = peak_bytes(lambda: critic_deviations(batch(), critic))
        together = peak_bytes(lambda: four_at_once_deviations(batch(), critic))
        assert alone <= 0.6 * together, (alone, together)


class WatchedOps(network._RecordOps):
    """The recording op set, keeping each value it wraps."""

    def __init__(self) -> None:
        super().__init__()
        self.wrapped: list = []

    def wrap(self, x):
        var = super().wrap(x)
        self.wrapped.append(var)
        return var


class TestTape:
    """A recorded pass's tape keeps no adjoint but the parameters' once
    backward has run, and never computes one for its data."""

    @pytest.mark.parametrize("scenario", [Scenario.JUNGLE, Scenario.BATTLE])
    @pytest.mark.parametrize("rounds", [1, 2])
    def test_no_adjoint_outlives_backward(self, monkeypatch, scenario, rounds):
        made: list[WatchedOps] = []

        def watched() -> WatchedOps:
            made.append(WatchedOps())
            return made[-1]

        monkeypatch.setattr(network, "_RecordOps", watched)
        rng = np.random.default_rng(400 + rounds)
        dec = crowded_decomposition(rng, scenario)
        policy = jittered_net(rng, VERTEX_DIM, N_ACTIONS, rounds, pooled=False)
        critic = jittered_net(rng, VERTEX_DIM + N_ACTIONS, 1, rounds, pooled=True)
        pol_batch = batch_subgraphs(dec)
        cri_batch = batch_subgraphs(dec, joints=[rng.integers(N_ACTIONS, size=len(dec.rows))])
        for batch, net, run, n_data in (
            (pol_batch, policy, policy_logprobs, 2),  # the feature table, the radial-basis rows
            (cri_batch, critic, critic_values, 3),    # and the one-hot block
        ):
            out, trace = run(batch, net, record=True)
            data = made[-1].wrapped
            assert len(data) == n_data and not any(v.needs_grad for v in data)
            leaves = {id(v) for pair in trace.leaves.values() for v in pair}
            nodes = ad._topo_order(trace.output)
            assert not {id(v) for v in data} & {id(node) for node in nodes}
            seed = rng.normal(size=out.shape)
            grads = backward(trace, seed)
            assert all(node.grad is None for node in nodes)  # the parameters' read and cleared
            # the tape's own backward leaves adjoints on the parameters alone
            ad.backward(trace.output, seed.reshape(trace.output.value.shape))
            held = [node for node in nodes if node.grad is not None]
            assert held and all(id(node) in leaves for node in held)
            assert all(v.grad is None for v in data)
            TestFactoredTrunk().assert_grads(grads, concat_grads(batch, net, seed))


def all_local(batch):
    """``batch`` without its graphs: each sub-graph evaluated on its own."""
    return dataclasses.replace(batch, shared=None)


class TestSharedTrunk:
    """A decomposition's policy batch runs the trunk once over its graph and
    then over each sub-graph's shell; each sub-graph on its own must agree."""

    def assert_matches_all_local(self, batch, policy, rng):
        close = dict(rtol=0, atol=1e-12)
        local = all_local(batch)
        want, trace = policy_logprobs(local, policy, record=True)
        np.testing.assert_allclose(policy_logprobs(batch, policy)[0], want, **close)
        logp, got = policy_logprobs(batch, policy, record=True)
        np.testing.assert_allclose(logp, want, **close)
        seed = rng.normal(size=logp.shape)
        for (path, a), (_, b) in zip(backward(got, seed).layers(), backward(trace, seed).layers()):
            np.testing.assert_allclose(a.w, b.w, rtol=1e-10, atol=1e-10, err_msg=path)
            np.testing.assert_allclose(a.b, b.b, rtol=1e-10, atol=1e-10, err_msg=path)

    @pytest.mark.parametrize("scenario", [Scenario.JUNGLE, Scenario.BATTLE])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("rounds", [0, 1, 2, 3])
    def test_matches_the_all_local_trunk(self, scenario, depth, rounds):
        rng = np.random.default_rng(200 + 10 * depth + rounds)
        for _ in range(2):
            world = crowded_world(rng, scenario)
            g = build_graph(world)
            policy = jittered_net(rng, VERTEX_DIM, N_ACTIONS, rounds, pooled=False)
            # every agent's sub-graphs, and one team's as a rollout step makes them
            for centres in (None, np.flatnonzero(world.team[g.ids] == 0)):
                dec = decompose(g, depth, centres=centres)
                batch = batch_subgraphs(dec)
                self.assert_matches_all_local(batch, policy, rng)
                lay = network._trunk(batch, rounds)
                interior = dec.hop <= depth - rounds
                if rounds == depth:  # at most the centre is interior
                    assert np.array_equal(interior, dec.hop == 0)
                # the split runs where the graph and the shells are the smaller trunk
                smaller = g.n_vertices() + np.count_nonzero(~interior) < len(dec.rows)
                assert (lay.out is not None) == smaller
                if rounds < depth and centres is None:
                    assert smaller  # crowded: some centre has a neighbour within depth - rounds
                if not smaller:
                    continue
                # an interior row reads its graph vertex, a shell row a trunk vertex of its own
                assert np.array_equal(lay.out < g.n_vertices(), interior)
                assert np.array_equal(lay.rows[lay.out], dec.rows)
                assert len(np.unique(lay.out[~interior])) == np.count_nonzero(~interior)

    def test_an_isolated_centre_and_an_empty_part(self):
        rng = np.random.default_rng(7)
        world = new_scenario(ScenarioConfig(Scenario.BATTLE, 8, 8, agents=3, episode_limit=6), 0)
        for a in world.agents:
            a.pos = world.agents[1].pos
        world.agents[0].pos = Position(0, 0) if world.agents[1].pos.x > 2 else Position(7, 7)
        g = build_graph(world)
        assert np.diff(g.indptr)[0] == 0  # agent 0 stands alone
        for rounds in (0, 1, 2):
            policy = jittered_net(rng, VERTEX_DIM, N_ACTIONS, rounds, pooled=False)
            for centres in ([0], [0, 1], [0, 3, 5]):
                batch = batch_subgraphs(decompose(g, 2, centres=np.array(centres)))
                self.assert_matches_all_local(batch, policy, rng)
            # the lone centre is an interior row of a split trunk while rounds < depth
            assert (network._trunk(batch, rounds).out is not None) == (rounds < 2)
            empty = batch_subgraphs(decompose(g, 2, centres=np.empty(0, dtype=np.int64)))
            logp, trace = policy_logprobs(empty, policy, record=True)
            assert logp.shape == (0, N_ACTIONS)
            grads = backward(trace, np.zeros_like(logp))
            assert all(not layer.w.any() and not layer.b.any() for _, layer in grads.layers())

    def test_policy_pass_allocates_at_most_065_of_the_all_local_one(self):
        dec = eval_step_part()
        policy = new_graph_net(np.random.default_rng(0), VERTEX_DIM, 8, DEFAULT_N_MAX, N_ACTIONS, 1)
        split = peak_bytes(lambda: policy_logprobs(batch_subgraphs(dec), policy))
        local = peak_bytes(lambda: policy_logprobs(all_local(batch_subgraphs(dec)), policy))
        assert split <= 0.65 * local, (split, local)


class TestGradients:
    def fd_param_grads(self, run, params, seed, step=1e-6):
        """Central differences for every weight and bias in ``params``."""
        out = zeros_like_params(params)
        for (path, layer), (_, slot) in zip(params.layers(), out.layers()):
            for arr, g in ((layer.w, slot.w), (layer.b, slot.b)):
                flat, gf = arr.ravel(), g.ravel()
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + step
                    hi = float((seed * run()).sum())
                    flat[i] = keep - step
                    lo = float((seed * run()).sum())
                    flat[i] = keep
                    gf[i] = (hi - lo) / (2 * step)
        return out

    def assert_close(self, got, want, rel=1e-4):
        for (_, g), (_, w) in zip(got.layers(), want.layers()):
            for a, b in ((g.w, w.w), (g.b, w.b)):
                denom = np.maximum(np.abs(b), 1e-4)
                assert np.max(np.abs(a - b) / denom) < rel

    def randomize_biases(self, params, rng):
        # fresh nets have zero biases, which parks some ReLU pre-activations
        # exactly on the kink; jitter them so the finite-difference guard holds
        for _, layer in params.layers():
            layer.b[:] = rng.normal(scale=0.1, size=layer.b.shape)

    def test_policy_gradients(self):
        rng = np.random.default_rng(7)
        net = new_graph_net(rng, in_dim=4, hidden=3, edge_dim=5, out_dim=5, n_rounds=1)
        self.randomize_biases(net, rng)
        sg = toy_subgraph(rng, m=3, in_dim=4, n_max=5)
        batch = batch_subgraphs([sg])
        logp, trace = policy_logprobs(batch, net, record=True)
        assert min_relu_preactivation(trace.output) > 1e-6
        seed = rng.normal(size=logp.shape)
        grads = backward(trace, seed)
        want = self.fd_param_grads(
            lambda: policy_logprobs(batch, net)[0], net, seed
        )
        self.assert_close(grads, want)

    def test_critic_gradients(self):
        rng = np.random.default_rng(8)
        net = new_graph_net(rng, in_dim=9, hidden=3, edge_dim=5, out_dim=1, n_rounds=1, pooled=True)
        self.randomize_biases(net, rng)
        sg = toy_subgraph(rng, m=3, in_dim=4, n_max=5)
        joint = np.array([1, 4, 0])
        batch = batch_subgraphs([sg], joints=[joint])
        vals, trace = critic_values(batch, net, record=True)
        assert min_relu_preactivation(trace.output) > 1e-6
        seed = np.array([0.7])
        grads = backward(trace, seed)
        want = self.fd_param_grads(
            lambda: critic_values(batch, net)[0], net, np.array([0.7])
        )
        self.assert_close(grads, want)

    def test_mlp_gradients(self):
        rng = np.random.default_rng(9)
        mlp = new_mlp(rng, in_dim=6, hidden=4, out_dim=5)
        x = rng.normal(size=(3, 6))
        logp, trace = mlp_logprobs(x, mlp, record=True)
        seed = rng.normal(size=logp.shape)
        grads = backward(trace, seed)
        want = self.fd_param_grads(lambda: mlp_logprobs(x, mlp)[0], mlp, seed)
        self.assert_close(grads, want)

    def test_a_second_backward_returns_the_same_gradients(self):
        # A10's training world at its start: every agent's sub-graph, hidden 8
        world = new_scenario(ScenarioConfig(Scenario.BATTLE, 10, 10, agents=14, episode_limit=30), 0)
        dec = decompose(build_graph(world), 2)
        rng = np.random.default_rng(17)
        policy = new_graph_net(rng, VERTEX_DIM, 8, DEFAULT_N_MAX, N_ACTIONS, 1)
        critic = new_graph_net(rng, VERTEX_DIM + N_ACTIONS, 8, DEFAULT_N_MAX, 1, 1, pooled=True)
        joint = rng.integers(N_ACTIONS, size=len(dec.rows))
        for out, trace in (
            policy_logprobs(batch_subgraphs(dec), policy, record=True),
            critic_values(batch_subgraphs(dec, joints=[joint]), critic, record=True),
        ):
            seed = rng.normal(size=out.shape)
            first, second = backward(trace, seed), backward(trace, seed)
            for (path, a), (_, b) in zip(first.layers(), second.layers()):
                np.testing.assert_array_equal(a.w, b.w, err_msg=path)
                np.testing.assert_array_equal(a.b, b.b, err_msg=path)

    def test_stale_trace_rejected(self):
        rng = np.random.default_rng(10)
        net = new_graph_net(rng, in_dim=4, hidden=3, edge_dim=5, out_dim=5, n_rounds=1)
        sg = toy_subgraph(rng, m=2, in_dim=4, n_max=5)
        _, trace = policy_logprobs(batch_subgraphs([sg]), net, record=True)
        grads = backward(trace, np.ones((2, 5)))
        adam = adam_state(net, lr=0.01)
        adam_step(net, grads, adam)
        with pytest.raises(StaleTrace):
            backward(trace, np.ones((2, 5)))

    def test_seed_size_mismatch(self):
        rng = np.random.default_rng(11)
        mlp = new_mlp(rng, in_dim=3, hidden=4, out_dim=5)
        _, trace = mlp_logprobs(rng.normal(size=(2, 3)), mlp, record=True)
        with pytest.raises(ShapeError):
            backward(trace, np.ones((3, 5)))


class TestInvariance:
    def permute_subgraph(self, sg: SubGraph, perm: np.ndarray) -> SubGraph:
        """Relabel member slots by ``perm`` (slot i moves to perm[i])."""
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        order = np.argsort(perm)
        return SubGraph(
            centre=sg.centre,
            members=sg.members[order],
            features=sg.features[order],
            edge_src=perm[sg.edge_src],
            edge_dst=perm[sg.edge_dst],
            edge_dist=sg.edge_dist,
            edge_feat=sg.edge_feat,
            depth=sg.depth,
        )

    def test_vertex_outputs_follow_relabelling(self):
        rng = np.random.default_rng(12)
        net = new_graph_net(rng, in_dim=6, hidden=5, edge_dim=10, out_dim=5)
        for _ in range(20):
            sg = toy_subgraph(rng, m=int(rng.integers(2, 6)), in_dim=6)
            perm = rng.permutation(sg.n_members())
            base = policy_forward(sg, net)
            moved = policy_forward(self.permute_subgraph(sg, perm), net)
            np.testing.assert_allclose(moved, base[np.argsort(perm)], atol=1e-9)

    def test_pooled_critic_is_order_free(self):
        rng = np.random.default_rng(13)
        net = new_graph_net(rng, in_dim=11, hidden=5, edge_dim=10, out_dim=1, pooled=True)
        for _ in range(20):
            sg = toy_subgraph(rng, m=int(rng.integers(2, 6)), in_dim=6)
            joint = rng.integers(0, 5, size=sg.n_members())
            perm = rng.permutation(sg.n_members())
            moved = self.permute_subgraph(sg, perm)
            moved_joint = np.empty_like(joint)
            moved_joint[perm] = joint
            a = critic_forward(sg, joint, net)
            b = critic_forward(moved, moved_joint, net)
            assert abs(a - b) < 1e-9

    def test_zero_head_gives_uniform_policy(self):
        rng = np.random.default_rng(14)
        net = new_graph_net(rng, in_dim=5, hidden=4, edge_dim=10, out_dim=5)
        net.head_lin.w[:] = 0.0
        net.head_lin.b[:] = 0.0
        sg = toy_subgraph(rng, m=3, in_dim=5)
        np.testing.assert_allclose(policy_forward(sg, net), 0.2)


class TestHelpers:
    def test_h_lin_h_rel(self):
        rng = np.random.default_rng(15)
        net = new_mlp(rng, in_dim=4, hidden=3, out_dim=2)
        x = rng.normal(size=4)
        np.testing.assert_allclose(h_lin(x, net.l1), net.l1.w @ x + net.l1.b)
        np.testing.assert_allclose(h_rel(x, net.l1), np.maximum(net.l1.w @ x + net.l1.b, 0))

    def test_onehot_block_layout(self):
        rng = np.random.default_rng(16)
        sg = toy_subgraph(rng, m=2, in_dim=3)
        batch = batch_subgraphs([sg], joints=[np.array([4, 1])])
        np.testing.assert_allclose(batch.x[:, :3], sg.features)
        np.testing.assert_allclose(batch.x[0, 3:], [0, 0, 0, 0, 1])
        np.testing.assert_allclose(batch.x[1, 3:], [0, 1, 0, 0, 0])
