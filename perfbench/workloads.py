"""The two workloads, each run through the ``gridmarl`` command line.

A round is one workload's fixed operations: one ``gridmarl train`` run of a
fixed number of batches from a fresh start, or one ``gridmarl eval`` run of
a fixed number of episodes. Every round of a run does the same work, so its
wall time can be compared with the run's other rounds and its output must
match theirs byte for byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
from dataclasses import dataclass
from typing import Optional

import yaml

from gridmarl.gridworld import Scenario, ScenarioConfig
from gridmarl.harness import cli
from gridmarl.harness.bench import scaled_scenario

A10_TRAIN = ScenarioConfig(Scenario.BATTLE, 10, 10, agents=14, episode_limit=30)
A10_EVAL = ScenarioConfig(Scenario.BATTLE, 14, 14, agents=28, episode_limit=30)

# The program's seed: networks, worlds and draws. It is the same in every
# run, because training cost follows the learning trajectory and the world
# layout, so a run on another seed would do other work.
PROGRAM_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: ScenarioConfig
    trainer: dict
    network: dict
    ops: int                  # training batches or evaluation episodes per round
    train_on: Optional[ScenarioConfig] = None  # eval only: the checkpoint's world

    @property
    def trains(self) -> bool:
        return self.train_on is None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-battle14",
            A10_TRAIN,
            {"algorithm": "graph-ac", "depth": 2, "batch_episodes": 8},
            {"hidden": 8, "rounds": 1},
            ops=2,
        ),
        Workload(
            "eval-battle4k",
            scaled_scenario(A10_EVAL, 2000, limit=10),
            {"algorithm": "graph-ac", "depth": 2, "batch_episodes": 8},
            {"hidden": 8, "rounds": 1},
            ops=1,
            train_on=A10_TRAIN,
        ),
    )
}


def config_text(w: Workload, scenario: ScenarioConfig, run: dict) -> str:
    scen = dataclasses.asdict(scenario)
    scen["type"] = scen.pop("scenario").value
    return yaml.safe_dump(
        {"scenario": scen, "trainer": w.trainer, "network": w.network, "run": run},
        sort_keys=False,
    )


class Rounds:
    """Config files of one run, and the round that uses them."""

    def __init__(self, w: Workload, work: str):
        self.w = w
        os.makedirs(work)
        # the output directory comes from the config alone
        os.environ.pop("GRIDMARL_OUT", None)
        self.config = os.path.join(work, "run.yaml")
        self.checkpoint = os.path.join(work, "out", cli.CHECKPOINT_NAME)
        run = {"seed": PROGRAM_SEED, "out_dir": os.path.join(work, "out")}
        if w.trains:
            self._write(self.config, config_text(w, w.scenario, dict(run, batches=w.ops)))
        else:
            # set-up: a checkpoint of the seed-0 initial networks, trained on no batch
            init = os.path.join(work, "init.yaml")
            self._write(init, config_text(w, w.train_on, dict(run, batches=0)))
            self.cli(["train", init])
            self._write(self.config, config_text(w, w.scenario, run))

    @staticmethod
    def _write(path: str, text: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @staticmethod
    def cli(argv: list[str]) -> str:
        """Run one ``gridmarl`` command in this process; return its stdout."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gridmarl {' '.join(argv)} exited with {code}")
        return out.getvalue()

    def round(self) -> str:
        """One round; returns what must repeat exactly between rounds."""
        if self.w.trains:
            self.cli(["train", self.config])
            with open(self.checkpoint, "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()
        return self.cli(
            ["eval", self.checkpoint, self.config, "--episodes", str(self.w.ops)]
        )
