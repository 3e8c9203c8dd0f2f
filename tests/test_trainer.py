"""Rollouts, episode gradients, the batch trainer, evaluation."""

import copy
import dataclasses
import os
import subprocess
import sys
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

import gridmarl
from gridmarl import ConfigError, NonFiniteError, Scenario, ScenarioConfig, new_scenario
from gridmarl.graph import Decomposition, SubGraph, build_graph, decompose
from gridmarl.gridworld import GridWorld, Position
from gridmarl.harness.state import save_state
from gridmarl.nn import (
    add_scaled_,
    adam_step,
    backward,
    batch_subgraphs,
    critic_forward,
    deviation_sizes,
    max_abs,
    mlp_logprobs,
    policy_forward,
    policy_logprobs,
    scale_,
    zeros_like_params,
)
from gridmarl.rl import (
    NetConfig,
    Trainer,
    TrainerConfig,
    baseline,
    evaluate,
    new_team_nets,
    returns_to_go,
    rollout_flat,
    rollout_graph,
)
from gridmarl.nn import network
from gridmarl.rl import trainer
from gridmarl.rl.core import ensemble_action
from gridmarl.rl.trainer import (
    _graph_step,
    _piece_sums,
    ac_episode_grads,
    chunked_critic_values,
    graph_pg_episode_grads,
    sweep_values,
    team_transitions,
    vanilla_episode_grads,
)


def battle_cfg(**kw):
    base = dict(
        scenario=Scenario.BATTLE, width=6, height=6, agents=2, episode_limit=6
    )
    base.update(kw)
    return ScenarioConfig(**base)


def jungle_cfg(**kw):
    base = dict(
        scenario=Scenario.JUNGLE, width=6, height=6, agents=3, foods=2, episode_limit=6
    )
    base.update(kw)
    return ScenarioConfig(**base)


def tiny_net_cfg():
    return NetConfig(hidden=6, rounds=1)


def make_nets(tcfg, ncfg, teams=(0, 1), seed=0):
    rng = np.random.default_rng(seed)
    return {t: new_team_nets(tcfg, ncfg, rng) for t in teams}


def graph_episode(scenario_cfg, tcfg, ncfg, nets, seed=0):
    world = new_scenario(scenario_cfg, seed)
    rng = np.random.default_rng(seed + 100)
    return world, rollout_graph(world, nets, tcfg, ncfg, rng, collect=True)


def capture_graphs(monkeypatch):
    """Each interaction graph the rollout builds, in step order."""
    graphs = []

    def capture(world):
        graphs.append(build_graph(world))
        return graphs[-1]

    monkeypatch.setattr(trainer, "build_graph", capture)
    return graphs


@dataclass
class Rec:
    """One transition of an array record, rebuilt for the reference loops."""

    sg: SubGraph
    executed: np.ndarray
    sampled: np.ndarray
    reward: float
    next: Optional["Rec"]
    t: int
    centre: int

    @property
    def step(self):  # the reference loops read tr.step.sg, tr.next.sg, ...
        return self


def rebuild(transitions):
    """The record's transitions as ``Rec`` objects, sub-graphs through ``dec[i]``."""
    dec = transitions.dec
    recs = []
    for i in range(len(dec)):
        rows = slice(dec.offsets[i], dec.offsets[i + 1])
        reward = float(transitions.reward[i]) if i < len(transitions) else 0.0
        recs.append(
            Rec(dec[i], transitions.executed[rows], transitions.sampled[rows], reward, None,
                int(transitions.t[i]), int(dec.centres[i]))
        )
    for rec, k in zip(recs, transitions.succ.tolist()):
        rec.next = recs[k] if k >= 0 else None
    return recs[: len(transitions)]


def step_transitions(sd, nxt, team_of, team):
    """Per-step mode's record: the step's transitions, then their successors."""
    transitions = team_transitions([sd] if nxt is None else [sd, nxt], team_of, team)
    n = int(np.count_nonzero(transitions.t == 0))
    transitions.reward, transitions.succ = transitions.reward[:n], transitions.succ[:n]
    return transitions


def crowded_jungle():
    """A Jungle world whose agents die of crowding before its last step."""
    return jungle_cfg(width=6, height=6, agents=12, foods=1, episode_limit=8)


class TestRollout:
    def test_records_are_consistent(self, monkeypatch):
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2, batch_episodes=1)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg)
        graphs = capture_graphs(monkeypatch)
        world, res = graph_episode(battle_cfg(), tcfg, ncfg, nets)
        assert world.finished
        assert res.stats.steps == len(res.steps) == len(graphs)
        for team in (0, 1):
            trs = team_transitions(res.steps, world.team, team)
            dec = trs.dec
            m = int(dec.sizes().sum())
            assert len(trs) == len(dec) == len(trs.t) == len(trs.succ)
            assert trs.probs.shape == (m, 5) and trs.sampled.shape == trs.executed.shape == (m,)
            np.testing.assert_allclose(trs.probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all((trs.sampled >= 0) & (trs.sampled < 5))
            assert np.all((trs.executed >= 0) & (trs.executed < 5))
            for t, (sd, g) in enumerate(zip(res.steps, graphs)):
                # the team's sub-graphs of a full decomposition of the step's
                # graph, and the policy's distributions on them
                full = decompose(g, tcfg.depth, ncfg.delta_d, ncfg.n_max)
                mine = [sg for sg in full if world.team[sg.centre] == team]
                # a forward's last bits follow its tables' layout, so the
                # distributions come from the team's own decomposition, as sampled
                own = np.flatnonzero(world.team[g.ids] == team)
                part = decompose(g, tcfg.depth, ncfg.delta_d, ncfg.n_max, centres=own)
                logp, _ = policy_logprobs(batch_subgraphs(part), nets[team].policy)
                probs = np.exp(logp)
                probs /= probs.sum(axis=1, keepdims=True)
                first = np.cumsum([0] + [sg.n_members() for sg in mine])
                here = np.flatnonzero(trs.t == t)
                assert len(here) == len(mine)
                for k, sg, lo, hi in zip(here.tolist(), mine, first[:-1], first[1:]):
                    got, rows = dec[k], slice(dec.offsets[k], dec.offsets[k + 1])
                    assert got.centre == sg.centre and got.depth == sg.depth
                    for name in ("members", "features", "edge_src", "edge_dst", "edge_dist", "edge_feat"):
                        assert np.array_equal(getattr(got, name), getattr(sg, name)), name
                    assert np.array_equal(trs.probs[rows], probs[lo:hi])
                    assert np.array_equal(trs.sampled[rows], sd.drawn[sg.members])
                    assert np.array_equal(trs.executed[rows], sd.executed[sg.members])
                    assert trs.reward[k] == sd.outcome.rewards[sg.centre]

    def test_returns_accumulate_rewards(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=2, batch_episodes=1)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg)
        world, res = graph_episode(jungle_cfg(), tcfg, ncfg, nets, seed=3)
        totals = {}
        for sd in res.steps:
            for aid, r in sd.outcome.rewards.items():
                totals[aid] = totals.get(aid, 0.0) + r
        want = np.mean([totals.get(a.id, 0.0) for a in world.agents])
        assert res.stats.returns[0] == pytest.approx(want)

    def test_flat_rollout_rows_cover_team(self):
        tcfg = TrainerConfig(algorithm="vanilla-pg", batch_episodes=1)
        nets = make_nets(tcfg, tiny_net_cfg())
        world = new_scenario(battle_cfg(), 1)
        res = rollout_flat(world, nets, np.random.default_rng(5), collect=True)
        assert set(res.flat) == {0, 1}
        for team, steps in res.flat.items():
            for fs in steps:
                assert len(fs.ids) == len(fs.sampled) == len(fs.rewards) == fs.feats.shape[0]
                assert fs.feats.shape[1] == 47

    def test_win_rates_by_scenario(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=1)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg)
        _, res = graph_episode(jungle_cfg(), tcfg, ncfg, nets)
        assert res.stats.wins == {}
        _, res = graph_episode(battle_cfg(), tcfg, ncfg, nets)
        assert set(res.stats.wins) == {0, 1}


    def test_ensemble_gets_each_agents_same_team_rows_in_centre_order(self, monkeypatch):
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg)
        world = new_scenario(battle_cfg(agents=8, episode_limit=4), 5)
        rng = np.random.default_rng(9)
        calls = []

        def record(dists, mode="sample", rng=None):
            calls.append(np.array(dists))
            return ensemble_action(dists, mode=mode, rng=rng)

        monkeypatch.setattr(trainer, "ensemble_action", record)
        while not world.finished:
            # the dict-of-lists construction: every same-team sub-graph's row
            # of an agent, appended in ascending centre order
            team_of = {a.id: a.team for a in world.agents}
            g = build_graph(world)
            sgs = decompose(g, tcfg.depth, ncfg.delta_d, ncfg.n_max)
            mine = [sg for sg in sgs if team_of[sg.centre] == 0]
            # rows of the team's own decomposition, which the policy batches
            own = np.flatnonzero(world.team[g.ids] == 0)
            part = decompose(g, tcfg.depth, ncfg.delta_d, ncfg.n_max, centres=own)
            logp, _ = policy_logprobs(batch_subgraphs(part), nets[0].policy)
            probs = np.exp(logp)
            probs /= probs.sum(axis=1, keepdims=True)
            dists = {}
            row = 0
            for sg in mine:
                for k, mid in enumerate(sg.members.tolist()):
                    if team_of[mid] == 0:
                        dists.setdefault(mid, []).append(probs[row + k])
                row += sg.n_members()
            living = [a.id for a in world.alive_agents() if a.team == 0]

            calls.clear()
            _graph_step(world, nets, tcfg, ncfg, rng, "sample", frozenset({1}))
            assert len(calls) == len(living)  # one call per living non-random agent
            for aid, got in zip(living, calls):
                reach = [sg.centre for sg in mine if aid in sg.members.tolist()]
                assert len(got) == len(reach)  # same-team sub-graphs only
                assert np.array_equal(got, np.array(dists[aid]))


    def test_an_uncollected_step_record_is_released_before_the_next_graph(self, monkeypatch):
        # an evaluation keeps no step: when a step's graph is built, no record
        # of an earlier step may still be alive
        records, alive_at_build = [], []

        class Tracked(trainer.StepData):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                records.append(weakref.ref(self))

        plain = trainer.build_graph

        def build(world):
            alive_at_build.append(sum(ref() is not None for ref in records))
            return plain(world)

        monkeypatch.setattr(trainer, "StepData", Tracked)
        monkeypatch.setattr(trainer, "build_graph", build)
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2)
        nets = make_nets(tcfg, tiny_net_cfg())
        world = new_scenario(battle_cfg(agents=4), 0)
        rng = np.random.default_rng(0)
        res = rollout_graph(world, nets, tcfg, tiny_net_cfg(), rng, collect=False)
        assert res.stats.steps >= 2 and len(records) == len(alive_at_build) == res.stats.steps
        assert alive_at_build == [0] * res.stats.steps


class TestTransitions:
    def test_successor_linkage(self, monkeypatch):
        # a Battle world where every agent lives to the end, and a crowded
        # Jungle world where agents die of crowding before the last step
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg)
        for cfg, seed, dies in ((battle_cfg(episode_limit=5), 7, False), (crowded_jungle(), 5, True)):
            graphs = capture_graphs(monkeypatch)
            world, res = graph_episode(cfg, tcfg, ncfg, nets, seed=seed)
            last = len(res.steps) - 1
            early_ends = 0
            for team in np.unique(world.team).tolist():
                trs = team_transitions(res.steps, world.team, team)
                # one transition per (step, living agent) of the team
                want = sum(int((world.team[g.ids] == team).sum()) for g in graphs)
                assert len(trs) == want
                for i, k in enumerate(trs.succ.tolist()):
                    centre, t = trs.dec.centres[i], trs.t[i]
                    if k >= 0:  # the same centre one step later
                        assert trs.dec.centres[k] == centre and trs.t[k] == t + 1
                    else:  # the episode ended, or the agent died during step t
                        assert t == last or centre not in graphs[t + 1].ids
                        early_ends += int(t < last)
            assert (early_ends > 0) == dies

    def test_teams_of_a_step_share_its_feature_table(self, monkeypatch):
        # the parts hold the step graph's table, not a row per member; a
        # record holds one table per step
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg)
        graphs = capture_graphs(monkeypatch)
        world, res = graph_episode(battle_cfg(agents=4), tcfg, ncfg, nets, seed=3)
        for sd, g in zip(res.steps, graphs):
            assert sorted(sd.parts) == [0, 1]
            for dec, _ in sd.parts.values():
                assert dec.table is g.features
        for team in (0, 1):
            trs = team_transitions(res.steps, world.team, team)
            assert len(trs.dec.table) == sum(g.n_vertices() for g in graphs)
            centre_rows = trs.dec.table[trs.dec.rows[trs.dec.offsets[:-1]]]
            assert np.all(centre_rows[:, team] == 1.0)  # the centre's team one-hot


class TestSweeps:
    def build(self, seed=0):
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg, seed=seed)
        world, res = graph_episode(battle_cfg(), tcfg, ncfg, nets, seed=seed)
        trs = []
        for team in (0, 1):
            trs += rebuild(team_transitions(res.steps, world.team, team))
        return nets, trs

    def test_sweep_matches_single_forwards(self):
        nets, trs = self.build()
        critic = nets[0].critic
        entries = [(tr.step.sg, tr.step.executed) for tr in trs[:6]]
        got = sweep_values(entries, critic)
        for (sg, base), table in zip(entries, got):
            assert table.shape == (sg.n_members(), 5)
            for j in range(sg.n_members()):
                for a in range(5):
                    swept = np.asarray(base).copy()
                    swept[j] = a
                    assert table[j, a] == pytest.approx(
                        critic_forward(sg, swept, critic), abs=1e-9
                    )

    def test_sweep_chunking_changes_nothing(self, monkeypatch):
        nets, trs = self.build(seed=1)
        critic = nets[0].critic
        entries = [(tr.step.sg, tr.step.executed) for tr in trs]
        whole = sweep_values(entries, critic)
        monkeypatch.setattr(trainer, "ROW_BUDGET", 8)
        tiny = sweep_values(entries, critic)
        assert len(whole) == len(tiny)
        for a, b in zip(whole, tiny):
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("scenario", [Scenario.JUNGLE, Scenario.BATTLE])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_sweep_matches_per_deviation_forwards(self, scenario, rounds):
        # loop reference: one critic_forward per (member, action), on random
        # crowded worlds with stacked agents, critic biases jittered off zero
        rng = np.random.default_rng(rounds)
        partial = 0  # deviations whose reach is less than their whole sub-graph
        for _ in range(3):
            cfg = jungle_cfg(agents=10) if scenario is Scenario.JUNGLE else battle_cfg(agents=5)
            world = new_scenario(cfg, int(rng.integers(1 << 30)))
            for a in world.agents:
                if rng.random() < 0.3:
                    a.pos = world.agents[int(rng.integers(len(world.agents)))].pos
            critic = new_team_nets(
                TrainerConfig(algorithm="graph-ac"), NetConfig(hidden=6, rounds=rounds), rng
            ).critic
            for _, layer in critic.layers():
                layer.b += rng.normal(scale=0.3, size=layer.b.shape)
            dec = decompose(build_graph(world), depth=3)
            entries = [(sg, rng.integers(5, size=sg.n_members())) for sg in dec]
            rows, _ = deviation_sizes(batch_subgraphs(dec), rounds)
            partial += 4 * int((dec.sizes() ** 2).sum()) - int(rows.sum())
            for (sg, base), table in zip(entries, sweep_values(entries, critic)):
                want = np.empty((sg.n_members(), 5))
                for j in range(sg.n_members()):
                    for a in range(5):
                        swept = base.copy()
                        swept[j] = a
                        want[j, a] = critic_forward(sg, swept, critic)
                np.testing.assert_allclose(table, want, rtol=1e-12, atol=1e-12)
        assert partial > 0

    def test_chunked_values_match(self, monkeypatch):
        nets, trs = self.build(seed=2)
        critic = nets[0].critic
        entries = [(tr.step.sg, tr.step.executed) for tr in trs]
        monkeypatch.setattr(trainer, "ROW_BUDGET", 4)
        got = chunked_critic_values(entries, critic)
        for v, (sg, joint) in zip(got, entries):
            assert v == pytest.approx(critic_forward(sg, joint, critic), abs=1e-12)

    def test_sweep_chunks_stay_within_the_edge_budget(self, monkeypatch):
        # a crowded world: sub-graphs of many members, each deviation
        # reaching much of its sub-graph
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg, seed=6)
        world, res = graph_episode(battle_cfg(agents=8, episode_limit=4), tcfg, ncfg, nets, seed=6)
        entries = [(tr.step.sg, tr.step.executed) for tr in rebuild(team_transitions(res.steps, world.team, 0))]
        critic = nets[0].critic
        rows, edges = deviation_sizes(
            batch_subgraphs([sg for sg, _ in entries]), len(critic.rounds)
        )
        chunks = []
        plain = trainer.critic_deviations

        def counting(batch, params):
            chunks.append(deviation_sizes(batch, len(params.rounds)))
            return plain(batch, params)

        monkeypatch.setattr(trainer, "critic_deviations", counting)
        monkeypatch.setattr(trainer, "ROW_BUDGET", 10**9)
        monkeypatch.setattr(trainer, "EDGE_BUDGET", 10**9)
        whole = sweep_values(entries, critic)
        assert len(chunks) == 1
        for row_budget, edge_budget in ((int(rows.max()), 10**9), (10**9, int(edges.max()))):
            monkeypatch.setattr(trainer, "ROW_BUDGET", row_budget)
            monkeypatch.setattr(trainer, "EDGE_BUDGET", edge_budget)
            chunks.clear()
            split = sweep_values(entries, critic)
            assert len(chunks) > 1
            for r, e in chunks:
                assert r.sum() <= row_budget and e.sum() <= edge_budget
            for a, b in zip(split, whole):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_sweep_computes_its_regions_once(self, monkeypatch, rounds):
        # a sweep split into chunks hands each chunk its share of the regions
        # that sized the chunks, and gets the values one chunk gets
        rng = np.random.default_rng(rounds)
        world = new_scenario(jungle_cfg(agents=10), 3)
        for a in world.agents:
            if rng.random() < 0.3:
                a.pos = world.agents[int(rng.integers(len(world.agents)))].pos
        critic = new_team_nets(
            TrainerConfig(algorithm="graph-ac"), NetConfig(hidden=6, rounds=rounds), rng
        ).critic
        for _, layer in critic.layers():
            layer.b += rng.normal(scale=0.3, size=layer.b.shape)
        dec = decompose(build_graph(world), depth=3)
        entries = trainer.Entries(dec, rng.integers(5, size=len(dec.members)))
        whole = sweep_values(entries, critic)

        computed, chunks = [], []
        regions, deviations = network._regions, trainer.critic_deviations

        def counting(batch, rounds):
            computed.append(batch.regions is None)
            return regions(batch, rounds)

        def chunk(batch, params):
            chunks.append(batch.n_graphs)
            return deviations(batch, params)

        monkeypatch.setattr(network, "_regions", counting)
        monkeypatch.setattr(trainer, "critic_deviations", chunk)
        monkeypatch.setattr(trainer, "ROW_BUDGET", 8)
        split = sweep_values(entries, critic)
        assert len(chunks) > 1
        assert sum(computed) == 1
        for a, b in zip(split, whole):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def naive_ac_grads(transitions, nets, tcfg):
    """Transition-by-transition recomputation with the scalar primitives."""
    policy, critic = nets.policy, nets.critic
    acc_p = zeros_like_params(policy)
    acc_c = zeros_like_params(critic)
    for tr in transitions:
        sg = tr.step.sg
        m = sg.n_members()
        deltas = np.zeros(m)
        for j, mid in enumerate(sg.members):
            v = baseline(sg, tr.step.executed, int(mid), policy, critic)
            if tr.next is None:
                vn = 0.0
            elif int(mid) in [int(x) for x in tr.next.sg.members]:
                vn = baseline(tr.next.sg, tr.next.executed, int(mid), policy, critic)
            else:
                vn = critic_forward(tr.next.sg, tr.next.executed, critic)
            deltas[j] = tr.step.reward + tcfg.gamma * vn - v
        _, trace = policy_logprobs(batch_subgraphs([sg]), policy, record=True)
        seed = np.zeros((m, 5))
        seed[np.arange(m), tr.step.sampled] = deltas
        add_scaled_(acc_p, backward(trace, seed))
        _, trace = critic_values_recorded(sg, tr.step.executed, critic)
        add_scaled_(acc_c, backward(trace, np.array([deltas.sum()])))
    return acc_p, acc_c


def critic_values_recorded(sg, joint, critic):
    from gridmarl.nn import critic_values

    return critic_values(batch_subgraphs([sg], joints=[joint]), critic, record=True)


def params_allclose(a, b, atol=1e-9):
    for (_, x), (_, y) in zip(a.layers(), b.layers()):
        np.testing.assert_allclose(x.w, y.w, atol=atol)
        np.testing.assert_allclose(x.b, y.b, atol=atol)


def params_equal(a, b):
    for (_, x), (_, y) in zip(a.layers(), b.layers()):
        np.testing.assert_array_equal(x.w, y.w)
        np.testing.assert_array_equal(x.b, y.b)


class TestEpisodeGrads:
    def test_piece_sums_have_the_bits_of_each_piece_summed_alone(self):
        # pieces past numpy's 8-wide unrolled and 128-long pairwise blocks
        rng = np.random.default_rng(0)
        for _ in range(300):
            sizes = rng.integers(1, int(rng.choice([5, 40, 300])), size=int(rng.integers(1, 40)))
            x = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=int(sizes.sum()))
            want = np.array([piece.sum() for piece in np.split(x, np.cumsum(sizes)[:-1])])
            assert np.array_equal(_piece_sums(x, sizes), want)

    def setup_ac(self, seed=0):
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2, gamma=0.9)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg, seed=seed)
        world, res = graph_episode(battle_cfg(), tcfg, ncfg, nets, seed=seed)
        return tcfg, nets, res, world.team

    def test_ac_matches_naive(self):
        tcfg, nets, res, team_of = self.setup_ac()
        for team in (0, 1):
            trs = team_transitions(res.steps, team_of, team)
            pol, cri = ac_episode_grads(trs, nets[team], tcfg)
            want_p, want_c = naive_ac_grads(rebuild(trs), nets[team], tcfg)
            params_allclose(pol, want_p)
            params_allclose(cri, want_c)

    def test_per_step_call_matches_naive(self):
        # per-step mode: one step's transitions, successors from the next
        # step (none of them a step of the call), distributions recomputed
        tcfg, nets, res, team_of = self.setup_ac(seed=1)
        for t, sd in enumerate(res.steps):
            nxt = res.steps[t + 1] if t + 1 < len(res.steps) else None
            for team in (0, 1):
                trs = step_transitions(sd, nxt, team_of, team)
                pol, cri = ac_episode_grads(trs, nets[team], tcfg, fresh_probs=True)
                want_p, want_c = naive_ac_grads(rebuild(trs), nets[team], tcfg)
                params_allclose(pol, want_p)
                params_allclose(cri, want_c)

    def test_batch_call_sweeps_each_step_once(self, monkeypatch):
        # every successor is a later transition's own step, so the sweep's
        # base pass sees each step's m rows once, and the critic's only
        # other pass is the recorded one over the same rows
        tcfg, nets, res, team_of = self.setup_ac(seed=2)
        trs = team_transitions(res.steps, team_of, 0)
        assert (trs.succ >= 0).any()
        swept, valued = [], []
        sweep_plain, values_plain = trainer.critic_deviations, trainer.critic_values

        def sweeping(batch, params):
            swept.append(batch.n_vertices())
            return sweep_plain(batch, params)

        def valuing(batch, params, record=False):
            valued.append(batch.n_vertices())
            return values_plain(batch, params, record=record)

        monkeypatch.setattr(trainer, "critic_deviations", sweeping)
        monkeypatch.setattr(trainer, "critic_values", valuing)
        ac_episode_grads(trs, nets[0], tcfg)
        m = trs.dec.sizes()
        assert sum(swept) == int(m.sum())
        assert sum(valued) == int(m.sum())

    def test_ac_stored_vs_fresh_probs_agree_before_updates(self):
        # nothing has stepped the optimizer, so stored and recomputed
        # distributions coincide
        tcfg, nets, res, team_of = self.setup_ac(seed=4)
        trs = team_transitions(res.steps, team_of, 0)
        a_p, a_c = ac_episode_grads(trs, nets[0], tcfg)
        b_p, b_c = ac_episode_grads(trs, nets[0], tcfg, fresh_probs=True)
        params_allclose(a_p, b_p)
        params_allclose(a_c, b_c)

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_policy_passes_split_across_steps_match_the_all_local_trunk(self, monkeypatch, rounds):
        # a crowded Jungle record; with a row budget of 23 the chunks of
        # _policy_pass and _fresh_probs start and end inside steps, and each
        # chunk's graph part is the table rows its rows span
        rng = np.random.default_rng(rounds)
        tcfg = TrainerConfig(algorithm="graph-ac", depth=3)
        ncfg = NetConfig(hidden=6, rounds=rounds)
        nets = make_nets(tcfg, ncfg, seed=6)
        world, res = graph_episode(crowded_jungle(), tcfg, ncfg, nets, seed=6)
        trs = team_transitions(res.steps, world.team, 0)
        policy = nets[0].policy
        for _, layer in policy.layers():
            layer.b += rng.normal(scale=0.3, size=layer.b.shape)  # keep ReLUs off their kink
        rows = int(trs.dec.offsets[len(trs)])
        coeffs = rng.normal(size=rows)

        # the reference: the whole record in one batch, each sub-graph on its own
        batch = batch_subgraphs(trs.dec)
        logp, trace = policy_logprobs(dataclasses.replace(batch, shared=None), policy, record=True)
        seed = np.zeros_like(logp)
        seed[np.arange(rows), trs.sampled[:rows]] = coeffs
        want = backward(trace, seed)
        probs = np.exp(logp)
        probs /= probs.sum(axis=1, keepdims=True)

        monkeypatch.setattr(trainer, "ROW_BUDGET", 23)
        starts = [part.start for part in trainer._chunks(*batch.sizes())][1:]
        assert any(trs.t[k - 1] == trs.t[k] for k in starts)  # a chunk starts inside a step
        assert len(np.unique(trs.t)) >= 3
        parts = trainer._chunks(*batch.sizes())
        assert any(network._trunk(batch.graphs(part), rounds).out is not None for part in parts)
        got = trainer._policy_pass(trs, coeffs, policy)
        for (path, a), (_, b) in zip(got.layers(), want.layers()):
            np.testing.assert_allclose(a.w, b.w, rtol=1e-10, atol=1e-10, err_msg=path)
            np.testing.assert_allclose(a.b, b.b, rtol=1e-10, atol=1e-10, err_msg=path)
        np.testing.assert_allclose(trainer._fresh_probs(trs.dec, policy), probs, rtol=0, atol=1e-12)

    def test_ac_empty_transitions(self):
        # a Jungle world has no team 1, so its record for team 1 is empty
        tcfg = TrainerConfig(algorithm="graph-ac", depth=1)
        nets = make_nets(tcfg, tiny_net_cfg())
        world, res = graph_episode(jungle_cfg(), tcfg, tiny_net_cfg(), nets)
        trs = team_transitions(res.steps, world.team, 1)
        assert len(trs) == 0
        pol, cri = ac_episode_grads(trs, nets[1], tcfg)
        assert max_abs(pol) == 0.0 and max_abs(cri) == 0.0
        assert max_abs(graph_pg_episode_grads(trs, nets[1], tcfg)) == 0.0

    def test_graph_pg_matches_naive(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=2, gamma=0.95)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg, seed=5)
        world, res = graph_episode(jungle_cfg(), tcfg, ncfg, nets, seed=5)
        record = team_transitions(res.steps, world.team, 0)
        got = graph_pg_episode_grads(record, nets[0], tcfg)
        trs = rebuild(record)

        # naive: per centre, G_t from its reward stream; every member row of
        # the sub-graph uses the centre's return-to-go on the member's draw
        acc = zeros_like_params(nets[0].policy)
        by_centre = {}
        for tr in trs:
            by_centre.setdefault(tr.centre, []).append(tr)
        for centre, seq in by_centre.items():
            seq.sort(key=lambda tr: tr.t)
            g = returns_to_go(np.array([tr.step.reward for tr in seq]), tcfg.gamma)
            for tr, gt in zip(seq, g):
                m = tr.step.sg.n_members()
                _, trace = policy_logprobs(
                    batch_subgraphs([tr.step.sg]), nets[0].policy, record=True
                )
                seed = np.zeros((m, 5))
                seed[np.arange(m), tr.step.sampled] = gt
                add_scaled_(acc, backward(trace, seed))
        params_allclose(got, acc)

    def test_vanilla_matches_naive(self):
        tcfg = TrainerConfig(algorithm="vanilla-pg", gamma=0.9)
        nets = make_nets(tcfg, tiny_net_cfg(), seed=6)
        world = new_scenario(battle_cfg(), 6)
        res = rollout_flat(world, nets, np.random.default_rng(6), collect=True)
        flats = res.flat[0]
        got = vanilla_episode_grads(flats, nets[0], tcfg)

        acc = zeros_like_params(nets[0].policy)
        streams = {}
        for fs in flats:
            for aid, r in zip(fs.ids, fs.rewards):
                streams.setdefault(int(aid), []).append(float(r))
        gmap = {aid: returns_to_go(np.array(rs), tcfg.gamma) for aid, rs in streams.items()}
        seen = {aid: 0 for aid in gmap}
        for fs in flats:
            _, trace = mlp_logprobs(fs.feats, nets[0].policy, record=True)
            seed = np.zeros((len(fs.ids), 5))
            for k, aid in enumerate(fs.ids):
                seed[k, fs.sampled[k]] = gmap[int(aid)][seen[int(aid)]]
                seen[int(aid)] += 1
            add_scaled_(acc, backward(trace, seed))
        params_allclose(got, acc)

    def test_vanilla_empty(self):
        tcfg = TrainerConfig(algorithm="vanilla-pg")
        nets = make_nets(tcfg, tiny_net_cfg())
        assert max_abs(vanilla_episode_grads([], nets[0], tcfg)) == 0.0


class _FixedDraw:
    """Rollout rng whose every uniform draw is ``u``: pins the sampled action."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def corner_world(food):
    """One jungle agent at the top-left corner of a 4x4 grid, one food cell.

    Up and Left run into the wall and are coerced to Idle; the episode ends
    after one step.
    """
    return GridWorld(
        scenario=Scenario.JUNGLE,
        width=4,
        height=4,
        walls=frozenset(),
        foods=frozenset({Position(*food)}),
        landmarks=(),
        target=-1,
        team=[0],
        pos=[(0, 0)],
        alive=[True],
        streak=[0],
        episode_limit=1,
    )


class TestExactEnumeration:
    """Expected graph-pg update, enumerated exactly over the five draws."""

    def enumerate_update(self, food):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=1, gamma=0.9)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg, teams=(0,), seed=21)
        policy = nets[0].policy
        rng = np.random.default_rng(21)
        for _, layer in policy.layers():  # move ReLU pre-activations off the kink
            layer.b += rng.normal(scale=0.3, size=layer.b.shape)
        sg = decompose(build_graph(corner_world(food)), tcfg.depth, ncfg.delta_d, ncfg.n_max)[0]
        probs = policy_forward(sg, policy)[0]
        rewards = np.zeros(5)
        expected = zeros_like_params(policy)
        for a in range(5):
            u = probs[:a].sum() + 0.5 * probs[a]  # midpoint of a's CDF interval
            res = rollout_graph(
                corner_world(food), nets, tcfg, ncfg, _FixedDraw(u), collect=True
            )
            record = team_transitions(res.steps, np.array([0]), 0)
            trs = rebuild(record)
            assert [int(tr.step.sampled[0]) for tr in trs] == [a]
            rewards[a] = trs[0].step.reward
            add_scaled_(expected, graph_pg_episode_grads(record, nets[0], tcfg), probs[a])
        return policy, sg, rewards, expected

    def test_action_independent_reward_gives_zero_update(self):
        # food diagonal to the corner: every draw, blocked or not, pays +1,
        # so J is constant and its gradient is zero
        _, _, rewards, expected = self.enumerate_update(food=(1, 1))
        np.testing.assert_array_equal(rewards, 1.0)
        assert max_abs(expected) < 1e-8

    def test_expected_update_matches_finite_difference(self):
        # food two cells right: only Right pays, so J = pi(Right | sg)
        policy, sg, rewards, expected = self.enumerate_update(food=(2, 0))
        np.testing.assert_array_equal(rewards, [0.0, 0.0, 0.0, 1.0, 0.0])
        h = 1e-6
        for (_, layer), (_, got) in zip(policy.layers(), expected.layers()):
            for arr, g in ((layer.w, got.w), (layer.b, got.b)):
                fd = np.zeros_like(arr)
                for idx in np.ndindex(arr.shape):
                    keep = arr[idx]
                    arr[idx] = keep + h
                    up = policy_forward(sg, policy)[0] @ rewards
                    arr[idx] = keep - h
                    down = policy_forward(sg, policy)[0] @ rewards
                    arr[idx] = keep
                    fd[idx] = (up - down) / (2 * h)
                np.testing.assert_allclose(g, fd, atol=1e-7)
        assert max_abs(expected) > 1e-3  # the check is not vacuous


class TestTrainer:
    @staticmethod
    def replay_first_batch(cfg, tcfg, ncfg, seed):
        """A fresh trainer's first batch done by hand the long way round: every
        episode rolled out first, then each team's sums in episode order."""
        replay = Trainer(cfg, tcfg, ncfg, seed=seed)
        results = [replay._episode(0, e) for e in range(tcfg.batch_episodes)]
        for team in replay.teams:
            nets = replay.nets[team]
            acc_p = zeros_like_params(nets.policy)
            acc_c = None if nets.critic is None else zeros_like_params(nets.critic)
            for ep in results:
                if tcfg.algorithm == "vanilla-pg":
                    add_scaled_(acc_p, vanilla_episode_grads(ep.flat[team], nets, tcfg))
                    continue
                trs = team_transitions(ep.steps, replay.team, team)
                if tcfg.algorithm == "graph-pg":
                    add_scaled_(acc_p, graph_pg_episode_grads(trs, nets, tcfg))
                    continue
                p, c = ac_episode_grads(trs, nets, tcfg)
                add_scaled_(acc_p, p)
                add_scaled_(acc_c, c)
            scale_(acc_p, -1.0 / tcfg.batch_episodes)
            adam_step(nets.policy, acc_p, nets.adam_policy)
            if acc_c is not None:
                scale_(acc_c, -1.0 / tcfg.batch_episodes)
                adam_step(nets.critic, acc_c, nets.adam_critic)
        return replay

    def check_batch_replay(self, cfg, tcfg, seed):
        ncfg = tiny_net_cfg()
        tr = Trainer(cfg, tcfg, ncfg, seed=seed)
        frozen = copy.deepcopy(tr.nets)
        tr.train_batch()
        replay = self.replay_first_batch(cfg, tcfg, ncfg, seed)
        for team in replay.teams:
            # streamed sums add the same terms in the same order: the same bits
            params_equal(tr.nets[team].policy, replay.nets[team].policy)
            if tcfg.algorithm == "graph-ac":
                params_equal(tr.nets[team].critic, replay.nets[team].critic)
            # sanity: parameters actually moved
            diff = 0.0
            for (_, a), (_, b) in zip(
                tr.nets[team].policy.layers(), frozen[team].policy.layers()
            ):
                diff = max(diff, float(np.max(np.abs(a.w - b.w))))
            assert diff > 0.0

    def test_batch_update_replays_by_hand(self):
        tcfg = TrainerConfig(algorithm="graph-ac", depth=2, batch_episodes=2, gamma=0.9)
        self.check_batch_replay(battle_cfg(), tcfg, seed=11)

    # the policy-gradient updates need rewards: a crowded battle has kills
    def test_graph_pg_batch_update_replays_by_hand(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=2, batch_episodes=3, gamma=0.9)
        self.check_batch_replay(battle_cfg(width=5, height=5, agents=4, episode_limit=8), tcfg, 12)

    def test_vanilla_batch_update_replays_by_hand(self):
        tcfg = TrainerConfig(algorithm="vanilla-pg", batch_episodes=3, gamma=0.9)
        self.check_batch_replay(battle_cfg(width=5, height=5, agents=4, episode_limit=8), tcfg, 13)

    @pytest.mark.parametrize("algorithm", ["graph-ac", "graph-pg", "vanilla-pg"])
    def test_an_episodes_records_are_released_before_the_next_episode(
        self, monkeypatch, algorithm
    ):
        # a batch adds each episode's gradients as it ends: when the next
        # episode first reads its world, no record of an earlier one is alive
        if algorithm == "vanilla-pg":
            record, reader = "FlatStep", "all_vertex_features"
        else:
            record, reader = "StepData", "build_graph"
        records, new_episode, at_first_read, at_later_reads = [], [False], [], []

        class Tracked(getattr(trainer, record)):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                records.append(weakref.ref(self))

        plain_read, plain_world = getattr(trainer, reader), Trainer._world

        def read(world):
            alive = sum(ref() is not None for ref in records)
            (at_first_read if new_episode[0] else at_later_reads).append(alive)
            new_episode[0] = False
            return plain_read(world)

        def world(self, batch, ep):
            new_episode[0] = True
            return plain_world(self, batch, ep)

        monkeypatch.setattr(trainer, record, Tracked)
        monkeypatch.setattr(trainer, reader, read)
        monkeypatch.setattr(Trainer, "_world", world)
        tcfg = TrainerConfig(algorithm=algorithm, depth=2, batch_episodes=3)
        Trainer(battle_cfg(), tcfg, tiny_net_cfg(), seed=4).train_batch()
        assert at_first_read == [0, 0, 0]
        assert max(at_later_reads) > 0  # within an episode its records are kept

    def test_training_and_evaluation_leave_numpy_ma_unimported(self):
        """A training batch and an evaluation episode import no ``numpy.ma``
        (``np.unique`` does on its first call, for about 1 MiB)."""
        src = os.path.dirname(os.path.dirname(gridmarl.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
        if subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True,
        ).stdout.strip() == "True":
            pytest.skip("importing numpy alone imports numpy.ma")
        code = (
            "import sys\n"
            "from gridmarl import Scenario, ScenarioConfig\n"
            "from gridmarl.rl import NetConfig, Trainer, TrainerConfig, evaluate\n"
            "cfg = ScenarioConfig(Scenario.BATTLE, 10, 10, agents=14, episode_limit=30)\n"
            "tcfg = TrainerConfig(algorithm='graph-ac', depth=2, batch_episodes=8)\n"
            "ncfg = NetConfig(hidden=8, rounds=1)\n"
            "tr = Trainer(cfg, tcfg, ncfg, seed=0)\n"
            "tr.train_batch()\n"
            "evaluate(cfg, tr.nets, tcfg, ncfg, episodes=1)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
            timeout=300,
        )
        assert out.stdout.strip() == "False"

    def test_per_step_update_replays_by_hand(self, monkeypatch):
        tcfg = TrainerConfig(
            algorithm="graph-ac", depth=2, batch_episodes=2, gamma=0.9, per_step_updates=True
        )
        ncfg = tiny_net_cfg()
        tr = Trainer(battle_cfg(), tcfg, ncfg, seed=21)
        rows = tr.train_batch()

        # replay: each tick's transitions update both networks of their team
        # once the next tick is sampled; the last tick has no successors
        replay = Trainer(battle_cfg(), tcfg, ncfg, seed=21)
        team_of = replay.team

        def update(sd, nxt, t):
            for team in replay.teams:
                trs = step_transitions(sd, nxt, team_of, team)
                if not trs:
                    continue
                nets = replay.nets[team]
                p, c = ac_episode_grads(trs, nets, tcfg, fresh_probs=True)
                scale_(p, -1.0)
                scale_(c, -1.0)
                adam_step(nets.policy, p, nets.adam_policy)
                adam_step(nets.critic, c, nets.adam_critic)

        returns = {t: [] for t in replay.teams}
        alive = {t: [] for t in replay.teams}
        wins = {t: [] for t in replay.teams}
        counts, sizes = [], []
        for e in range(2):
            world, rng = replay._world(0, e), replay._rng(0, e)
            graphs = capture_graphs(monkeypatch)
            steps = []
            while not world.finished:
                steps.append(_graph_step(world, replay.nets, tcfg, ncfg, rng, "sample", frozenset()))
                if len(steps) > 1:
                    update(steps[-2], steps[-1], len(steps) - 2)
            update(steps[-1], None, len(steps) - 1)
            got = {a.id: 0.0 for a in world.agents}
            for sd in steps:
                for aid, r in sd.outcome.rewards.items():
                    got[aid] += r
            for t in replay.teams:
                returns[t].append(np.mean([got[a.id] for a in world.agents if a.team == t]))
                alive[t].append(world.num_alive(t))
            wins[0].append(float(world.num_alive(0) > world.num_alive(1)))
            wins[1].append(float(world.num_alive(1) > world.num_alive(0)))
            # every team acts: each step's sub-graphs are a full decomposition's
            full = [decompose(g, tcfg.depth, ncfg.delta_d, ncfg.n_max) for g in graphs]
            counts.append(sum(len(dec) for dec in full))
            sizes.append(sum(int(dec.sizes().sum()) for dec in full))

        for team in replay.teams:
            params_allclose(tr.nets[team].policy, replay.nets[team].policy, atol=0)
            params_allclose(tr.nets[team].critic, replay.nets[team].critic, atol=0)
            assert tr.nets[team].policy.version == replay.nets[team].policy.version > 2
        for row in rows:
            assert row.mean_reward == pytest.approx(np.mean(returns[row.team]), abs=1e-12)
            assert row.win_rate == np.mean(wins[row.team])
            assert row.mean_alive == np.mean(alive[row.team])
            assert row.subgraph_count == np.mean(counts)
            assert row.mean_subgraph_size == pytest.approx(sum(sizes) / sum(counts), abs=1e-12)

    @pytest.mark.parametrize(
        "algorithm, per_step", [("graph-ac", False), ("graph-ac", True), ("graph-pg", False)]
    )
    def test_training_builds_no_subgraph_view(self, monkeypatch, algorithm, per_step):
        # training reads the decomposition's arrays; no sub-graph is built alone
        def refuse(dec, i):
            raise AssertionError("training built a SubGraph view")

        monkeypatch.setattr(Decomposition, "__getitem__", refuse)
        tcfg = TrainerConfig(
            algorithm=algorithm, depth=2, batch_episodes=2, per_step_updates=per_step
        )
        tr = Trainer(battle_cfg(agents=4), tcfg, tiny_net_cfg(), seed=3)
        tr.train_batch()
        assert tr.nets[0].policy.version > 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "algorithm, per_step", [("graph-ac", False), ("graph-ac", True), ("vanilla-pg", False)]
    )
    def test_non_finite_gradient_fails_loudly(self, algorithm, per_step):
        def inf_reward_world(batch, ep):
            world = new_scenario(jungle_cfg(), ep)
            plain = world.step

            def step(joint, rng=None):
                out = plain(joint, rng)
                out.rewards[min(out.rewards)] = np.inf
                return out

            world.step = step
            return world

        tcfg = TrainerConfig(
            algorithm=algorithm, depth=1, batch_episodes=2, per_step_updates=per_step
        )
        tr = Trainer(jungle_cfg(), tcfg, tiny_net_cfg(), seed=4, world_factory=inf_reward_world)
        before = copy.deepcopy(tr.nets[0].policy)
        with pytest.raises(NonFiniteError, match=r"team 0 (policy|critic) gradient at batch 0, layer \S+"):
            tr.train_batch()
        params_allclose(tr.nets[0].policy, before, atol=0)  # no step took the bad gradient

    def test_non_finite_parameters_are_not_saved(self, tmp_path):
        tcfg = TrainerConfig(algorithm="graph-ac", depth=1)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg)
        nets[1].critic.rounds[0].z_rel.b[2] = np.nan
        path = tmp_path / "state.npz"
        with pytest.raises(
            NonFiniteError, match=r"team 1 critic parameters, saving after 7 batches, layer rounds.0.z_rel"
        ):
            save_state(str(path), battle_cfg(), tcfg, ncfg, nets, batch_index=7)
        assert not path.exists()

    def test_metrics_rows(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=1, batch_episodes=2)
        tr = Trainer(jungle_cfg(), tcfg, tiny_net_cfg(), seed=13)
        rows = tr.train(2)
        assert [r.batch for r in rows] == [0, 1]
        assert all(r.team == 0 for r in rows)
        assert all(r.win_rate is None for r in rows)  # jungle has no winner
        assert all(r.seconds >= 0.0 for r in rows)
        assert all(r.subgraph_count > 0 for r in rows)
        assert all(r.mean_subgraph_size >= 1.0 for r in rows)
        assert tr.batch_index == 2

    def test_battle_metrics_have_win_rate(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=1, batch_episodes=2)
        tr = Trainer(battle_cfg(), tcfg, tiny_net_cfg(), seed=14)
        rows = tr.train_batch()
        assert {r.team for r in rows} == {0, 1}
        assert all(r.win_rate is not None and 0.0 <= r.win_rate <= 1.0 for r in rows)

    def test_per_step_mode_updates_many_times(self):
        tcfg = TrainerConfig(
            algorithm="graph-ac", depth=1, batch_episodes=1, per_step_updates=True
        )
        tr = Trainer(battle_cfg(), tcfg, tiny_net_cfg(), seed=15)
        tr.train_batch()
        # one Adam step per world tick (minus the sampling delay), far more
        # than the single step batch mode would take
        assert tr.nets[0].policy.version > 1

    def test_team_of_mapping(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=1)
        tr = Trainer(battle_cfg(agents=3), tcfg, tiny_net_cfg())
        world = new_scenario(battle_cfg(agents=3), 0)
        for a in world.agents:
            assert tr.team[a.id] == a.team

    def test_config_validation(self):
        good = TrainerConfig()
        good.validate()
        with pytest.raises(ConfigError):
            TrainerConfig(algorithm="dqn").validate()
        with pytest.raises(ConfigError):
            TrainerConfig(gamma=0.0).validate()
        with pytest.raises(ConfigError):
            TrainerConfig(gamma=1.1).validate()
        with pytest.raises(ConfigError):
            TrainerConfig(lr_policy=0.0).validate()
        with pytest.raises(ConfigError):
            TrainerConfig(depth=0).validate()
        with pytest.raises(ConfigError):
            TrainerConfig(batch_episodes=0).validate()
        with pytest.raises(ConfigError):
            TrainerConfig(algorithm="graph-pg", per_step_updates=True).validate()
        with pytest.raises(ConfigError):
            NetConfig(hidden=0).validate()
        with pytest.raises(ConfigError):
            NetConfig(delta_d=0.0).validate()

    def test_lr_schedule_flows_into_adam(self):
        tcfg = TrainerConfig(algorithm="graph-ac", depth=1, batch_episodes=1, lr_critic=0.02)
        tr = Trainer(battle_cfg(), tcfg, tiny_net_cfg(), seed=16)
        tr.nets[0].sched.patience = 1
        tr.nets[0].sched.best = 1e9  # force a stall
        tr.train_batch()
        assert tr.nets[0].adam_policy.lr == pytest.approx(0.01 * 0.95)
        assert tr.nets[0].adam_critic.lr == pytest.approx(0.02 * 0.95)


class TestEvaluate:
    def test_deterministic(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=1)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg, seed=17)
        a = evaluate(battle_cfg(), nets, tcfg, ncfg, episodes=3, seed=5)
        b = evaluate(battle_cfg(), nets, tcfg, ncfg, episodes=3, seed=5)
        assert a == b
        assert set(a) == {0, 1}
        for row in a.values():
            assert set(row) == {"mean_reward", "win_rate", "mean_alive", "mean_steps"}

    def test_vanilla_dispatch(self):
        tcfg = TrainerConfig(algorithm="vanilla-pg")
        nets = make_nets(tcfg, tiny_net_cfg(), seed=18)
        out = evaluate(battle_cfg(), nets, tcfg, tiny_net_cfg(), episodes=2, seed=6)
        assert out[0]["mean_steps"] > 0

    def test_random_opponent_mode(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=1)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg, seed=19)
        out = evaluate(
            battle_cfg(), nets, tcfg, ncfg, episodes=2, seed=7, random_teams=frozenset({1})
        )
        assert out[1]["win_rate"] is not None

    def test_random_team_is_not_decomposed(self, monkeypatch):
        # each step decomposes the living agents of team 0, and of it alone
        tcfg = TrainerConfig(algorithm="graph-pg", depth=2)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg, seed=19)
        cfg = battle_cfg(agents=4)
        team_of = new_scenario(cfg, 0).team
        steps = 0

        def record(g, depth, *args, centres=None, **kwargs):
            nonlocal steps
            steps += 1
            assert centres is not None
            assert np.array_equal(g.ids[centres], g.ids[team_of[g.ids] == 0])
            return decompose(g, depth, *args, centres=centres, **kwargs)

        monkeypatch.setattr(trainer, "decompose", record)
        out = evaluate(cfg, nets, tcfg, ncfg, episodes=2, seed=7, random_teams=frozenset({1}))
        assert steps == 2 * out[0]["mean_steps"] > 0

    def test_jungle_win_rate_is_none(self):
        tcfg = TrainerConfig(algorithm="graph-pg", depth=1)
        ncfg = tiny_net_cfg()
        nets = make_nets(tcfg, ncfg, teams=(0,), seed=20)
        out = evaluate(jungle_cfg(), nets, tcfg, ncfg, episodes=2, seed=8)
        assert out[0]["win_rate"] is None
