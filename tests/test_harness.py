"""Config parsing, metrics files, frames, checkpoints, bench, the CLI."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridmarl
from gridmarl import (
    CheckpointError,
    ConfigError,
    Scenario,
    ScenarioConfig,
    ShapeMismatch,
    new_scenario,
)
from gridmarl.harness import (
    MetricsWriter,
    check_compat,
    dedupe_counts,
    format_row,
    frame_record,
    header_record,
    load_run_config,
    load_state,
    parse_config,
    read_frames,
    read_metrics,
    render_ppm,
    run_bench,
    save_state,
    scaled_scenario,
)
from gridmarl.harness.bench import bench_csv, format_bench_table
from gridmarl.harness.frames import dump_record
from gridmarl.harness.cli import main
from gridmarl.harness.config import OUT_DIR_ENV
from gridmarl.harness.metrics import COLUMNS
from gridmarl.rl import BatchMetrics, NetConfig, TrainerConfig, new_team_nets

GOOD_YAML = """
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
  batches: 1
  out_dir: OUTDIR
  timing: false
"""


# `gridmarl decompose --depth 2` on a 7x7 battle world from seed 3: member
# order, edge pairs and their lengths; centre 4 stands alone
DECOMPOSE_GOLDEN = """\
world 7x7 battle seed 3: 10 agents, 10 sub-graphs (depth 2)
sub-graph centre 0: members [0, 1, 2, 7, 6, 9] edges [(0,1) d=1.41, (0,2) d=1.00, (0,7) d=1.00, (1,2) d=1.00, (1,6) d=1.41, (2,6) d=1.00, (7,9) d=1.00]
sub-graph centre 1: members [1, 0, 2, 6, 7, 8] edges [(0,1) d=1.41, (0,2) d=1.00, (0,7) d=1.00, (1,2) d=1.00, (1,6) d=1.41, (2,6) d=1.00, (6,8) d=1.41]
sub-graph centre 2: members [2, 0, 1, 6, 7, 8] edges [(0,1) d=1.41, (0,2) d=1.00, (0,7) d=1.00, (1,2) d=1.00, (1,6) d=1.41, (2,6) d=1.00, (6,8) d=1.41]
sub-graph centre 3: members [3, 5] edges [(3,5) d=1.00]
sub-graph centre 4: members [4] edges []
sub-graph centre 5: members [5, 3] edges [(3,5) d=1.00]
sub-graph centre 6: members [6, 1, 2, 8, 0] edges [(0,1) d=1.41, (0,2) d=1.00, (1,2) d=1.00, (1,6) d=1.41, (2,6) d=1.00, (6,8) d=1.41]
sub-graph centre 7: members [7, 0, 9, 1, 2] edges [(0,1) d=1.41, (0,2) d=1.00, (0,7) d=1.00, (1,2) d=1.00, (7,9) d=1.00]
sub-graph centre 8: members [8, 6, 1, 2] edges [(1,2) d=1.00, (1,6) d=1.41, (2,6) d=1.00, (6,8) d=1.41]
sub-graph centre 9: members [9, 7, 0] edges [(0,7) d=1.00, (7,9) d=1.00]
"""


def good_yaml(out_dir):
    return GOOD_YAML.replace("OUTDIR", str(out_dir))


class TestConfig:
    def test_full_parse(self, tmp_path):
        cfg = parse_config(good_yaml(tmp_path / "run"))
        assert cfg.scenario.scenario is Scenario.BATTLE
        assert cfg.scenario.width == 6 and cfg.scenario.agents == 2
        assert cfg.trainer.algorithm == "graph-ac"
        assert cfg.trainer.gamma == 0.9
        assert cfg.network.hidden == 6
        assert cfg.run.seed == 3 and cfg.run.timing is False

    def test_defaults_fill_missing_blocks(self):
        cfg = parse_config("scenario: {type: jungle, width: 8, height: 8, agents: 3, foods: 2}")
        assert cfg.trainer.algorithm == "graph-ac"
        assert cfg.network.hidden == 64
        assert cfg.run.batches == 10

    def test_scenario_block_required(self):
        with pytest.raises(ConfigError):
            parse_config("trainer: {gamma: 0.9}")

    def test_unknown_keys_rejected(self):
        base = "scenario: {type: jungle, width: 8, height: 8, agents: 3, foods: 1}\n"
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(base + "trainer: {lr: 0.1}")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(base + "network: {layers: 2}")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(base + "run: {outdir: x}")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(base + "logging: {level: debug}")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("scenario: {type: jungle, width: 8, height: 8, agents: 3, color: red}")

    def test_type_checking(self):
        base = "scenario: {type: jungle, width: 8, height: 8, agents: 3, foods: 1}\n"
        with pytest.raises(ConfigError):
            parse_config(base + "trainer: {gamma: fast}")
        with pytest.raises(ConfigError):
            parse_config(base + "run: {seed: true}")
        with pytest.raises(ConfigError):
            parse_config(base + "run: {timing: 1}")
        with pytest.raises(ConfigError):
            parse_config(base + "trainer: {algorithm: 7}")
        # int where float expected is fine
        cfg = parse_config(base + "trainer: {gamma: 1}")
        assert cfg.trainer.gamma == 1.0

    def test_negative_seed_rejected(self):
        base = "scenario: {type: jungle, width: 8, height: 8, agents: 3, foods: 1}\n"
        with pytest.raises(ConfigError, match="run.seed must be non-negative"):
            parse_config(base + "run: {seed: -1}")
        assert parse_config(base + "run: {seed: 0}").run.seed == 0

    def test_bad_scenario_type(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("scenario: {type: chess, width: 8, height: 8, agents: 2}")

    def test_validation_runs(self):
        with pytest.raises(ConfigError):
            parse_config("scenario: {type: battle, width: 2, height: 1, agents: 50}")
        with pytest.raises(ConfigError):
            parse_config(
                "scenario: {type: jungle, width: 8, height: 8, agents: 3}\n"
                "trainer: {algorithm: sarsa}"
            )

    def test_overrides(self, tmp_path):
        cfg = parse_config(
            good_yaml(tmp_path),
            sets=["trainer.gamma=0.5", "run.batches=7", "scenario.agents=3", "run.timing=true"],
        )
        assert cfg.trainer.gamma == 0.5
        assert cfg.run.batches == 7
        assert cfg.scenario.agents == 3
        assert cfg.run.timing is True

    def test_override_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(good_yaml(tmp_path), sets=["gamma=0.5"])
        with pytest.raises(ConfigError):
            parse_config(good_yaml(tmp_path), sets=["trainer.gamma"])
        with pytest.raises(ConfigError):
            parse_config(good_yaml(tmp_path), sets=["optimizer.lr=0.1"])

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "env_out"))
        cfg = parse_config(good_yaml(tmp_path / "ignored"))
        assert cfg.run.out_dir == str(tmp_path / "env_out")
        monkeypatch.delenv(OUT_DIR_ENV)
        cfg = parse_config(good_yaml(tmp_path / "plain"))
        assert cfg.run.out_dir == str(tmp_path / "plain")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(str(tmp_path / "absent.yaml"))

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError):
            parse_config("- a\n- b")
        with pytest.raises(ConfigError):
            parse_config("scenario: [1, 2]")


def sample_metrics(batch=0, team=0, win=0.5, seconds=1.25):
    return BatchMetrics(
        batch=batch,
        team=team,
        mean_reward=1.0 / 3.0,
        win_rate=win,
        lr=0.01,
        seconds=seconds,
        mean_alive=2.5,
        subgraph_count=4.0,
        mean_subgraph_size=2.25,
    )


class TestMetrics:
    def test_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = [sample_metrics(0, 0), sample_metrics(0, 1, win=None), sample_metrics(1, 0)]
        with MetricsWriter(str(path)) as mw:
            for r in rows:
                mw.write(r)
        back = read_metrics(str(path))
        assert len(back) == 3
        for got, want in zip(back, rows):
            assert got.batch == want.batch and got.team == want.team
            assert got.mean_reward == want.mean_reward  # exact, repr round-trip
            assert got.win_rate == want.win_rate
            assert got.lr == want.lr and got.seconds == want.seconds
            assert got.mean_alive == want.mean_alive
            assert got.subgraph_count == want.subgraph_count
            assert got.mean_subgraph_size == want.mean_subgraph_size

    def test_reads_the_sub_graph_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "# doc\n" + ",".join(COLUMNS) + "\n"
            "2,1,0.5,,0.01,0.0,3.0,27.125,3.4700460829493087\n"
        )
        (row,) = read_metrics(str(path))
        assert (row.batch, row.team, row.win_rate, row.mean_alive) == (2, 1, None, 3.0)
        assert row.subgraph_count == 27.125
        assert row.mean_subgraph_size == 3.4700460829493087

    def test_reads_the_seven_column_layout(self, tmp_path):
        # files written before the sub-graph columns existed
        path = tmp_path / "old.csv"
        path.write_text(
            "# doc\nbatch,team,mean_reward,win_rate,lr,seconds,mean_alive\n"
            "0,0,0.25,0.5,0.01,1.5,2.0\n1,1,-0.75,,0.005,0.0,1.0\n"
        )
        rows = read_metrics(str(path))
        assert [(r.batch, r.team, r.mean_reward, r.win_rate, r.lr, r.seconds, r.mean_alive)
                for r in rows] == [(0, 0, 0.25, 0.5, 0.01, 1.5, 2.0),
                                   (1, 1, -0.75, None, 0.005, 0.0, 1.0)]
        assert all(r.subgraph_count == 0.0 and r.mean_subgraph_size == 0.0 for r in rows)

    def test_header_and_doc_line(self, tmp_path):
        path = tmp_path / "m.csv"
        with MetricsWriter(str(path)) as mw:
            mw.write(sample_metrics())
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(COLUMNS)
        assert len(lines) == 3

    def test_timing_off_writes_zero(self):
        line = format_row(sample_metrics(seconds=9.9), timing=False)
        assert line.split(",")[5] == "0.0"

    def test_empty_win_rate_field(self):
        line = format_row(sample_metrics(win=None))
        assert line.split(",")[3] == ""

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense,header\n1,2\n")
        with pytest.raises(ConfigError):
            read_metrics(str(path))
        path.write_text(",".join(COLUMNS) + "\n1,0,not_a_number,,0.01,0.0,2.0,1.0,1.0\n")
        with pytest.raises(ConfigError):
            read_metrics(str(path))
        # a seven-cell row under the nine-column header
        path.write_text(",".join(COLUMNS) + "\n1,0,0.5,,0.01,0.0,2.0\n")
        with pytest.raises(ConfigError):
            read_metrics(str(path))


def small_world(seed=0, **kw):
    base = dict(scenario=Scenario.BATTLE, width=5, height=5, agents=2, episode_limit=4)
    base.update(kw)
    return new_scenario(ScenarioConfig(**base), seed)


class TestFrames:
    def test_header_is_versioned(self):
        world = small_world()
        h = header_record(world)
        assert h["format"] == "gridmarl-frames"
        assert h["version"] == 1
        assert h["scenario"] == "battle"

    def test_frame_record_contents(self):
        world = small_world(seed=1)
        rec = frame_record(world, 7, rewards={1: 0.5, 0: -0.25})
        assert rec["step"] == 7
        assert len(rec["agents"]) == 4
        for a, st in zip(rec["agents"], world.agents):
            assert a == {
                "id": st.id, "team": st.team, "x": st.pos.x, "y": st.pos.y, "alive": st.alive
            }
        assert rec["rewards"] == {"0": -0.25, "1": 0.5}
        json.loads(dump_record(rec))  # serializable

    def test_deception_target_flagged_in_record(self):
        world = new_scenario(
            ScenarioConfig(
                scenario=Scenario.DECEPTION, width=6, height=6, agents=2, landmarks=3,
                adversaries=1, episode_limit=4,
            ),
            seed=2,
        )
        rec = frame_record(world, 0)
        assert rec["target"] in rec["landmarks"]

    def test_ppm_shape_and_palette(self, tmp_path):
        world = small_world(seed=3)
        p = tmp_path / "w.ppm"
        render_ppm(world, str(p), scale=4)
        blob = p.read_bytes()
        header, rest = blob.split(b"\n", 1)
        assert header == b"P6"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"20 20"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255" and len(pixels) == 20 * 20 * 3

    def test_target_not_visible_in_image(self, tmp_path):
        """Two deception worlds differing only in target index render alike."""
        world = new_scenario(
            ScenarioConfig(
                scenario=Scenario.DECEPTION, width=7, height=7, agents=2, landmarks=3,
                adversaries=1, episode_limit=4,
            ),
            seed=4,
        )
        twin = dataclasses.replace(world, target=(world.target + 1) % len(world.landmarks))
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        render_ppm(world, str(a))
        render_ppm(twin, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert frame_record(world, 0)["target"] != frame_record(twin, 0)["target"]

    def test_read_frames_round_trip(self, tmp_path):
        world = small_world(seed=5)
        p = tmp_path / "f.jsonl"
        with open(p, "w") as fh:
            fh.write(dump_record(header_record(world)) + "\n")
            fh.write(dump_record(frame_record(world, 0)) + "\n")
            fh.write(dump_record(frame_record(world, 1)) + "\n")
        header, records = read_frames(str(p))
        assert header["format"] == "gridmarl-frames"
        assert [r["step"] for r in records] == [0, 1]


def fresh_nets(algorithm="graph-ac", teams=(0, 1), seed=0):
    tcfg = TrainerConfig(algorithm=algorithm)
    ncfg = NetConfig(hidden=5, rounds=1)
    rng = np.random.default_rng(seed)
    return tcfg, ncfg, {t: new_team_nets(tcfg, ncfg, rng) for t in teams}


class TestState:
    def scen(self):
        return ScenarioConfig(scenario=Scenario.BATTLE, width=6, height=6, agents=2)

    def test_round_trip(self, tmp_path):
        tcfg, ncfg, nets = fresh_nets()
        nets[0].sched.counter = 4
        nets[1].adam_policy.lr = 0.007
        p = tmp_path / "s.gmrl"
        save_state(str(p), self.scen(), tcfg, ncfg, nets, batch_index=9)
        state = load_state(str(p))
        assert state.batch_index == 9
        assert state.scenario == self.scen()
        assert state.trainer == tcfg and state.network == ncfg
        assert set(state.nets) == {0, 1}
        for t in (0, 1):
            a, b = state.nets[t], nets[t]
            for (_, x), (_, y) in zip(a.policy.layers(), b.policy.layers()):
                np.testing.assert_array_equal(x.w, y.w)
                np.testing.assert_array_equal(x.b, y.b)
            for (_, x), (_, y) in zip(a.critic.layers(), b.critic.layers()):
                np.testing.assert_array_equal(x.w, y.w)
            assert a.sched == b.sched
            assert a.adam_policy.lr == b.adam_policy.lr
            assert a.lr_ratio == b.lr_ratio
        # -inf best survives the JSON header
        assert state.nets[0].sched.best == -np.inf

    def test_save_load_save_is_byte_identical(self, tmp_path):
        tcfg, ncfg, nets = fresh_nets(seed=1)
        p1, p2 = tmp_path / "a.gmrl", tmp_path / "b.gmrl"
        save_state(str(p1), self.scen(), tcfg, ncfg, nets, batch_index=2)
        state = load_state(str(p1))
        save_state(str(p2), state.scenario, state.trainer, state.network, state.nets, state.batch_index)
        assert p1.read_bytes() == p2.read_bytes()

    def test_vanilla_state_round_trip(self, tmp_path):
        tcfg, ncfg, nets = fresh_nets(algorithm="vanilla-pg", seed=2)
        p = tmp_path / "v.gmrl"
        save_state(str(p), self.scen(), tcfg, ncfg, nets, batch_index=0)
        state = load_state(str(p))
        assert state.nets[0].critic is None and state.nets[0].adam_critic is None

    def test_adam_moments_round_trip(self, tmp_path):
        tcfg, ncfg, nets = fresh_nets(seed=3)
        nets[0].adam_policy.m["l1" if hasattr(nets[0].policy, "l1") else "ebd"]
        # put nonzero moments in
        for path in nets[0].adam_policy.m:
            nets[0].adam_policy.m[path][0][:] = 0.5
            nets[0].adam_policy.v[path][1][:] = 0.25
        nets[0].adam_policy.t = 12
        p = tmp_path / "m.gmrl"
        save_state(str(p), self.scen(), tcfg, ncfg, nets, batch_index=0)
        state = load_state(str(p))
        st = state.nets[0].adam_policy
        assert st.t == 12
        for path in st.m:
            np.testing.assert_array_equal(st.m[path][0], 0.5)
            np.testing.assert_array_equal(st.v[path][1], 0.25)

    def test_check_compat(self, tmp_path):
        tcfg, ncfg, nets = fresh_nets(seed=4)
        p = tmp_path / "c.gmrl"
        save_state(str(p), self.scen(), tcfg, ncfg, nets, batch_index=0)
        state = load_state(str(p))
        check_compat(state, tcfg, ncfg)  # same config passes
        with pytest.raises(ShapeMismatch):
            check_compat(state, TrainerConfig(algorithm="graph-pg"), ncfg)
        with pytest.raises(ShapeMismatch):
            check_compat(state, tcfg, NetConfig(hidden=8, rounds=1))
        with pytest.raises(ShapeMismatch):
            check_compat(state, tcfg, NetConfig(hidden=5, rounds=2))

    def test_wrong_kind_rejected(self, tmp_path):
        from gridmarl.nn import save_checkpoint

        p = tmp_path / "other.gmrl"
        save_checkpoint(str(p), {"kind": "something-else"}, {"x": np.zeros(2)})
        with pytest.raises(CheckpointError):
            load_state(str(p))


class TestBench:
    def base(self):
        return ScenarioConfig(
            scenario=Scenario.JUNGLE, width=10, height=10, agents=4, foods=2, episode_limit=3
        )

    def test_scaled_scenario_preserves_density(self):
        base = self.base()
        for n in (4, 16, 64):
            scaled = scaled_scenario(base, n)
            want_density = 4 / 100.0
            got_density = sum(scaled.team_sizes()) / (scaled.width * scaled.height)
            assert got_density == pytest.approx(want_density, rel=0.35)
            assert scaled.foods == round(n * 0.5)

    def test_scaled_scenario_fits_entities(self):
        scaled = scaled_scenario(self.base(), 500)
        need = scaled.walls + scaled.foods + scaled.landmarks + sum(scaled.team_sizes())
        assert need <= scaled.width * scaled.height

    def test_limit_override(self):
        scaled = scaled_scenario(self.base(), 8, limit=2)
        assert scaled.episode_limit == 2

    def test_bad_count(self):
        with pytest.raises(ConfigError):
            scaled_scenario(self.base(), 0)

    def test_dedupe_warns(self, capsys):
        out = dedupe_counts([5, 10, 5, 20, 10])
        assert out == [5, 10, 20]
        err = capsys.readouterr().err
        assert err.count("duplicate agent count") == 2

    def test_run_bench_rows(self, tmp_path):
        cfg = parse_config(
            "scenario: {type: jungle, width: 8, height: 8, agents: 3, foods: 1, episode_limit: 2}\n"
            "trainer: {algorithm: graph-pg, depth: 1}\n"
            "network: {hidden: 4, rounds: 1}\n"
            f"run: {{out_dir: {tmp_path / 'b'}}}"
        )
        rows = run_bench(cfg, [3, 6], episodes=2)
        assert [r.agents for r in rows] == [3, 6]
        assert all(r.episodes == 2 for r in rows)
        assert all(r.seconds > 0 for r in rows)
        assert rows[1].total_agents == 6
        table = format_bench_table(rows)
        assert "agents" in table and "seconds" in table
        csv = bench_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "agents,total_agents,width,height,episodes,seconds"
        assert len(lines) == 3


class TestCli:
    def write_config(self, tmp_path, extra_sets=""):
        os.makedirs(tmp_path, exist_ok=True)
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(good_yaml(out) + extra_sets)
        return cfg, out

    def test_train_writes_outputs(self, tmp_path, capsys):
        cfg, out = self.write_config(tmp_path)
        assert main(["train", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "batch 0 team 0" in stdout and "wrote" in stdout
        assert (out / "metrics.csv").is_file()
        assert (out / "checkpoint.gmrl").is_file()
        rows = read_metrics(str(out / "metrics.csv"))
        assert {r.team for r in rows} == {0, 1}
        assert all(r.seconds == 0.0 for r in rows)  # timing: false
        # graph-ac: the sub-graph columns carry the batch's counts
        assert all(r.subgraph_count > 0 and r.mean_subgraph_size >= 1.0 for r in rows)
        state = load_state(str(out / "checkpoint.gmrl"))
        assert state.batch_index == 1

    def test_train_zero_batches_still_checkpoints(self, tmp_path, capsys):
        cfg, out = self.write_config(tmp_path)
        assert main(["train", str(cfg), "--set", "run.batches=0"]) == 0
        state = load_state(str(out / "checkpoint.gmrl"))
        assert state.batch_index == 0
        assert read_metrics(str(out / "metrics.csv")) == []

    def test_metrics_every_thins_rows(self, tmp_path, capsys):
        cfg, out = self.write_config(tmp_path)
        assert (
            main(["train", str(cfg), "--set", "run.batches=3", "--set", "run.metrics_every=2"])
            == 0
        )
        rows = read_metrics(str(out / "metrics.csv"))
        # batches 1 (cadence) and 2 (final) survive, per team
        assert sorted({r.batch for r in rows}) == [1, 2]

    def test_train_determinism_byte_identical(self, tmp_path):
        cfg_a, out_a = self.write_config(tmp_path / "a")
        cfg_b, out_b = self.write_config(tmp_path / "b")
        assert main(["train", str(cfg_a)]) == 0
        assert main(["train", str(cfg_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "checkpoint.gmrl").read_bytes() == (out_b / "checkpoint.gmrl").read_bytes()

    def test_train_is_byte_identical_with_blas_threads_unset_or_one(self, tmp_path):
        # a crowded world whose products are large enough for OpenBLAS to
        # spread over several threads, which changes their last bits, unless
        # the package pins one thread when the caller sets none
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        src = os.path.dirname(os.path.dirname(gridmarl.__file__))
        checkpoints = []
        for threads in (None, "1"):
            out = tmp_path / f"threads-{threads}"
            cfg = tmp_path / f"threads-{threads}.yaml"
            cfg.write_text(
                "scenario: {type: jungle, width: 30, height: 30, agents: 300, foods: 60, episode_limit: 2}\n"
                "trainer: {algorithm: graph-ac, depth: 2, batch_episodes: 2}\n"
                "network: {hidden: 16, rounds: 1}\n"
                f"run: {{seed: 0, batches: 1, out_dir: {out}}}\n"
            )
            env = {k: v for k, v in os.environ.items() if k not in blas}
            env["PYTHONPATH"] = src
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            code = "import sys; from gridmarl.harness.cli import main; sys.exit(main(sys.argv[1:]))"
            subprocess.run(
                [sys.executable, "-c", code, "train", str(cfg)], env=env, check=True,
                capture_output=True, timeout=300,
            )
            checkpoints.append((out / "checkpoint.gmrl").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_bad_config_exits_2_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(good_yaml(out) + "\nextras:\n  x: 1\n")
        assert main(["train", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_train_negative_seed_exits_2_without_outputs(self, tmp_path, capsys):
        cfg, out = self.write_config(tmp_path)
        assert main(["train", str(cfg), "--set", "run.seed=-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: run.seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["train", str(tmp_path / "none.yaml")]) == 2

    def trained(self, tmp_path, capsys):
        cfg, out = self.write_config(tmp_path)
        assert main(["train", str(cfg)]) == 0
        capsys.readouterr()
        return cfg, out

    def test_eval_prints_summary(self, tmp_path, capsys):
        cfg, out = self.trained(tmp_path, capsys)
        ckpt = str(out / "checkpoint.gmrl")
        assert main(["eval", ckpt, str(cfg), "--episodes", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "team 0:" in stdout and "team 1:" in stdout
        assert "win_rate" in stdout

    def test_eval_zero_episodes(self, tmp_path, capsys):
        cfg, out = self.trained(tmp_path, capsys)
        assert main(["eval", str(out / "checkpoint.gmrl"), str(cfg), "--episodes", "0"]) == 0
        assert "no episodes" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "-1"), ("--episodes", "-2")]
    )
    def test_eval_negative_seed_or_episodes_exits_2(self, tmp_path, capsys, flag, value):
        cfg, out = self.trained(tmp_path, capsys)
        ckpt = str(out / "checkpoint.gmrl")
        assert main(["eval", ckpt, str(cfg), "--episodes", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be non-negative, got {value}\n"
        assert captured.out == ""

    def test_eval_agent_override_and_random_opponent(self, tmp_path, capsys):
        cfg, out = self.trained(tmp_path, capsys)
        ckpt = str(out / "checkpoint.gmrl")
        assert (
            main(["eval", ckpt, str(cfg), "--episodes", "2", "--agents", "3",
                  "--opponent", "random"])
            == 0
        )
        assert "(random policy)" in capsys.readouterr().out

    def test_eval_shape_mismatch_exits_2(self, tmp_path, capsys):
        cfg, out = self.trained(tmp_path, capsys)
        ckpt = str(out / "checkpoint.gmrl")
        assert (
            main(["eval", ckpt, str(cfg), "--episodes", "1", "--set", "network.hidden=12"]) == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_render_writes_frames_and_images(self, tmp_path, capsys):
        cfg, out = self.trained(tmp_path, capsys)
        ckpt = str(out / "checkpoint.gmrl")
        frames_dir = tmp_path / "fr"
        assert (
            main(["render", ckpt, str(cfg), "--episodes", "2", "--out", str(frames_dir)]) == 0
        )
        header, records = read_frames(str(frames_dir / "frames.jsonl"))
        assert header["format"] == "gridmarl-frames"
        assert len(records) >= 2
        ppms = sorted(frames_dir.glob("*.ppm"))
        assert len(ppms) == len(records)
        assert any(p.name.startswith("ep001_") for p in ppms)  # second episode
        # every record carries that step's rewards
        assert all(r["rewards"] for r in records)

    def test_render_negative_episodes_exits_2(self, tmp_path, capsys):
        cfg, out = self.trained(tmp_path, capsys)
        frames_dir = tmp_path / "fr"
        ckpt = str(out / "checkpoint.gmrl")
        assert main(["render", ckpt, str(cfg), "--episodes", "-1", "--out", str(frames_dir)]) == 2
        assert capsys.readouterr().err == "error: --episodes must be non-negative, got -1\n"
        assert not frames_dir.exists()

    def test_decompose_negative_seed_exits_2(self, tmp_path, capsys):
        cfg, _ = self.write_config(tmp_path)
        assert main(["decompose", str(cfg), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be non-negative, got -1\n"
        assert captured.out == ""

    def test_decompose_prints_subgraphs(self, tmp_path, capsys):
        cfg, out = self.write_config(tmp_path)
        assert main(["decompose", str(cfg), "--depth", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "4 agents" in stdout
        assert stdout.count("sub-graph centre") == 4
        assert "members [" in stdout

    def test_decompose_output_is_pinned(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: {type: battle, width: 7, height: 7, agents: 5}\nrun: {seed: 3}\n")
        assert main(["decompose", str(cfg), "--depth", "2"]) == 0
        assert capsys.readouterr().out == DECOMPOSE_GOLDEN

    def test_bench_command(self, tmp_path, capsys):
        cfg, out = self.write_config(tmp_path)
        csv_path = tmp_path / "bench.csv"
        assert (
            main(["bench", str(cfg), "--counts", "2,3", "--episodes", "1", "--limit", "2",
                  "--out", str(csv_path)])
            == 0
        )
        stdout = capsys.readouterr().out
        assert "agents" in stdout
        assert csv_path.is_file()
        assert len(csv_path.read_text().strip().splitlines()) == 3
