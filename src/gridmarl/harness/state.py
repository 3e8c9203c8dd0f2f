"""Serialize full trainer state (networks, optimizers, schedules) to disk.

The binary container comes from nn.checkpoint; this module decides what
goes in it: a JSON header carrying the run's three config blocks plus all
optimizer scalars, and one named array per weight matrix, bias vector, or
Adam moment. Loading rebuilds live TeamNets; a checkpoint trained under a
different architecture is rejected with ShapeMismatch before any episode
runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..errors import CheckpointError, ShapeMismatch
from ..gridworld import Scenario, ScenarioConfig
from ..nn.checkpoint import load as load_container
from ..nn.checkpoint import save as save_container
from ..nn.optim import AdamState, PlateauSchedule
from ..nn.params import LayerParams, MlpParams, NetParams, Params, RoundParams, check_finite
from ..rl.trainer import NetConfig, TeamNets, TrainerConfig

STATE_KIND = "gridmarl-trainer-state"


@dataclass
class TrainerState:
    """Everything a checkpoint holds, rehydrated."""

    scenario: ScenarioConfig
    trainer: TrainerConfig
    network: NetConfig
    nets: dict[int, TeamNets]
    batch_index: int


def _params_meta(p: Params) -> dict[str, Any]:
    if isinstance(p, MlpParams):
        return {
            "kind": "mlp",
            "in_dim": p.in_dim,
            "hidden": p.hidden,
            "out_dim": p.out_dim,
        }
    return {
        "kind": "graph",
        "in_dim": p.in_dim,
        "hidden": p.hidden,
        "edge_dim": p.edge_dim,
        "out_dim": p.out_dim,
        "rounds": len(p.rounds),
        "pooled": p.pooled,
    }


def _pack_params(prefix: str, p: Params, arrays: dict[str, np.ndarray]) -> None:
    for path, layer in p.layers():
        arrays[f"{prefix}.{path}.w"] = layer.w
        arrays[f"{prefix}.{path}.b"] = layer.b


def _pack_adam(prefix: str, st: AdamState, arrays: dict[str, np.ndarray]) -> dict[str, Any]:
    for path in st.m:
        mw, mb = st.m[path]
        vw, vb = st.v[path]
        arrays[f"{prefix}.{path}.mw"] = mw
        arrays[f"{prefix}.{path}.mb"] = mb
        arrays[f"{prefix}.{path}.vw"] = vw
        arrays[f"{prefix}.{path}.vb"] = vb
    return {"lr": st.lr, "beta1": st.beta1, "beta2": st.beta2, "eps": st.eps, "t": st.t}


def _unpack_params(prefix: str, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]) -> Params:
    def layer(path: str) -> LayerParams:
        kw, kb = f"{prefix}.{path}.w", f"{prefix}.{path}.b"
        if kw not in arrays or kb not in arrays:
            raise CheckpointError(f"checkpoint is missing arrays for {prefix}.{path}")
        return LayerParams(w=arrays[kw], b=arrays[kb])

    if meta["kind"] == "mlp":
        return MlpParams(
            l1=layer("l1"),
            l2=layer("l2"),
            in_dim=int(meta["in_dim"]),
            hidden=int(meta["hidden"]),
            out_dim=int(meta["out_dim"]),
        )
    rounds = [
        RoundParams(
            edge=layer(f"rounds.{r}.edge"),
            v_lin=layer(f"rounds.{r}.v_lin"),
            z_rel=layer(f"rounds.{r}.z_rel"),
            post_rel=layer(f"rounds.{r}.post_rel"),
            post_lin=layer(f"rounds.{r}.post_lin"),
        )
        for r in range(int(meta["rounds"]))
    ]
    return NetParams(
        ebd=layer("ebd"),
        rounds=rounds,
        head_rel=layer("head_rel"),
        head_lin=layer("head_lin"),
        in_dim=int(meta["in_dim"]),
        hidden=int(meta["hidden"]),
        edge_dim=int(meta["edge_dim"]),
        out_dim=int(meta["out_dim"]),
        pooled=bool(meta["pooled"]),
    )


def _unpack_adam(
    prefix: str, meta: Mapping[str, Any], params: Params, arrays: Mapping[str, np.ndarray]
) -> AdamState:
    st = AdamState(
        lr=float(meta["lr"]),
        beta1=float(meta["beta1"]),
        beta2=float(meta["beta2"]),
        eps=float(meta["eps"]),
        t=int(meta["t"]),
    )
    for path, layer in params.layers():
        try:
            mw = arrays[f"{prefix}.{path}.mw"]
            mb = arrays[f"{prefix}.{path}.mb"]
            vw = arrays[f"{prefix}.{path}.vw"]
            vb = arrays[f"{prefix}.{path}.vb"]
        except KeyError:
            raise CheckpointError(f"checkpoint is missing moments for {prefix}.{path}") from None
        if mw.shape != layer.w.shape or vb.shape != layer.b.shape:
            raise CheckpointError(f"moment shapes disagree with weights at {prefix}.{path}")
        st.m[path] = (mw, mb)
        st.v[path] = (vw, vb)
    return st


def scenario_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    d = dataclasses.asdict(cfg)
    d["scenario"] = cfg.scenario.value
    return d


def scenario_from_dict(d: Mapping[str, Any]) -> ScenarioConfig:
    fields = dict(d)
    fields["scenario"] = Scenario(fields["scenario"])
    return ScenarioConfig(**fields)


def save_state(
    path: str,
    scenario: ScenarioConfig,
    trainer: TrainerConfig,
    network: NetConfig,
    nets: Mapping[int, TeamNets],
    batch_index: int,
) -> None:
    arrays: dict[str, np.ndarray] = {}
    team_state: dict[str, Any] = {}
    for t in sorted(nets):
        tn = nets[t]
        for net, params in (("policy", tn.policy), ("critic", tn.critic)):
            if params is not None:
                check_finite(params, f"team {t} {net} parameters, saving after {batch_index} batches")
        prefix = f"team{t}"
        _pack_params(f"{prefix}.policy", tn.policy, arrays)
        entry: dict[str, Any] = {
            "policy": _params_meta(tn.policy),
            "adam_policy": _pack_adam(f"{prefix}.adam_policy", tn.adam_policy, arrays),
            "critic": None,
            "adam_critic": None,
            "sched": {
                "lr": tn.sched.lr,
                "best": tn.sched.best,
                "counter": tn.sched.counter,
                "decay": tn.sched.decay,
                "patience": tn.sched.patience,
            },
            "lr_ratio": tn.lr_ratio,
        }
        if tn.critic is not None:
            _pack_params(f"{prefix}.critic", tn.critic, arrays)
            entry["critic"] = _params_meta(tn.critic)
            assert tn.adam_critic is not None
            entry["adam_critic"] = _pack_adam(f"{prefix}.adam_critic", tn.adam_critic, arrays)
        team_state[str(t)] = entry
    header = {
        "kind": STATE_KIND,
        "batch_index": batch_index,
        "scenario": scenario_to_dict(scenario),
        "trainer": dataclasses.asdict(trainer),
        "network": dataclasses.asdict(network),
        "teams": sorted(nets),
        "team_state": team_state,
    }
    save_container(path, header, arrays)


def load_state(path: str) -> TrainerState:
    header, arrays = load_container(path)
    if header.get("kind") != STATE_KIND:
        raise CheckpointError(f"{path} is not a trainer checkpoint")
    nets: dict[int, TeamNets] = {}
    for t in header["teams"]:
        entry = header["team_state"][str(t)]
        prefix = f"team{t}"
        policy = _unpack_params(f"{prefix}.policy", entry["policy"], arrays)
        adam_p = _unpack_adam(f"{prefix}.adam_policy", entry["adam_policy"], policy, arrays)
        critic = None
        adam_c = None
        if entry["critic"] is not None:
            unpacked = _unpack_params(f"{prefix}.critic", entry["critic"], arrays)
            assert isinstance(unpacked, NetParams)
            critic = unpacked
            adam_c = _unpack_adam(f"{prefix}.adam_critic", entry["adam_critic"], critic, arrays)
        sched = PlateauSchedule(**entry["sched"])
        nets[int(t)] = TeamNets(
            policy=policy,
            critic=critic,
            adam_policy=adam_p,
            adam_critic=adam_c,
            sched=sched,
            lr_ratio=float(entry["lr_ratio"]),
        )
    return TrainerState(
        scenario=scenario_from_dict(header["scenario"]),
        trainer=TrainerConfig(**header["trainer"]),
        network=NetConfig(**header["network"]),
        nets=nets,
        batch_index=int(header["batch_index"]),
    )


def check_compat(state: TrainerState, trainer: TrainerConfig, network: NetConfig) -> None:
    """Reject a config whose networks would not fit the checkpoint."""
    if state.trainer.algorithm != trainer.algorithm:
        raise ShapeMismatch(
            f"checkpoint was trained with {state.trainer.algorithm}, "
            f"config asks for {trainer.algorithm}"
        )
    for name in ("hidden", "rounds", "n_max"):
        have = getattr(state.network, name)
        want = getattr(network, name)
        if have != want:
            raise ShapeMismatch(
                f"checkpoint network has {name}={have}, config asks for {name}={want}"
            )
