"""Span tracing around the program's public functions, kept in memory.

A traced round replaces each public function at the place its caller looks
the name up (``gridmarl.rl.trainer.decompose``, not ``gridmarl.graph``) with
a wrapper that records one span: name, start, end, the enclosing span, and
the quantities the layer's metrics count. Private helpers are not wrapped,
so their cost lands in the self time of the public function that calls
them. Spans stay in a list until the run ends and are then written out.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

# span record: [name, start, end, parent index or -1, quantities or None]
Span = list


def _measure_decompose(args, kwargs, out) -> tuple:
    return (len(out), sum(len(sg.members) for sg in out), sum(len(sg.edge_src) for sg in out))


def _measure_rows(args, kwargs, out) -> tuple:
    batch = args[0]
    return (batch.x.shape[0], len(batch.edge_src))


def _measure_entries(args, kwargs, out) -> tuple:
    return (len(args[0]),)


def _measure_steps(args, kwargs, out) -> tuple:
    return (len(args[1]),)  # GridWorld.step(self, joint): one action per living agent


def _measure_bytes(args, kwargs, out) -> tuple:
    return (os.path.getsize(args[0]),)


# (module, attribute where the caller looks the name up, span name, measure)
SITES = (
    ("gridmarl.gridworld", "GridWorld.step", "gridworld.step", _measure_steps),
    ("gridmarl.rl.trainer", "build_graph", "graph.build_graph", None),
    ("gridmarl.rl.trainer", "decompose", "graph.decompose", _measure_decompose),
    ("gridmarl.rl.trainer", "ensemble_action", "core.ensemble_action", None),
    ("gridmarl.rl.trainer", "batch_subgraphs", "network.batch_subgraphs", None),
    ("gridmarl.rl.trainer", "policy_logprobs", "network.policy_logprobs", _measure_rows),
    ("gridmarl.rl.trainer", "critic_values", "network.critic_values", _measure_rows),
    ("gridmarl.rl.trainer", "backward", "network.backward", None),
    ("gridmarl.rl.trainer", "rollout_graph", "trainer.rollout_graph", None),
    ("gridmarl.rl.trainer", "sweep_values", "trainer.sweep_values", _measure_entries),
    ("gridmarl.rl.trainer", "chunked_critic_values", "trainer.chunked_critic_values", None),
    ("gridmarl.rl.trainer", "ac_episode_grads", "trainer.ac_episode_grads", None),
    ("gridmarl.rl.trainer", "team_transitions", "trainer.team_transitions", None),
    ("gridmarl.rl.trainer", "Trainer.train_batch", "trainer.train_batch", None),
    ("gridmarl.rl.trainer", "adam_step", "optim.adam_step", None),
    ("gridmarl.harness.cli", "save_state", "harness.save_state", _measure_bytes),
    ("gridmarl.harness.cli", "load_state", "harness.load_state", None),
)
CALLS = (
    "gridworld.step",
    "core.ensemble_action",
    "network.policy_logprobs",
    "network.critic_values",
    "network.backward",
    "trainer.sweep_values",
    "optim.adam_step",
    "harness.save_state",
)


def resolve(module: str, attr: str) -> tuple[Any, str]:
    """The object that holds ``attr`` (a module, or a class in it), and its last name."""
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def site(span: str) -> tuple[Any, str]:
    """The owner and attribute that the wrapper named ``span`` replaces."""
    module, attr = next((m, a) for m, a, name, _ in SITES if name == span)
    return resolve(module, attr)


@contextmanager
def patched(replacements: Sequence[tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set each owner.attribute to its replacement, restoring all on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


class Tracer:
    """Collects nested spans from the wrappers it hands out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open = [-1]

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1], None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if measure is not None:
                rec[4] = measure(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        replacements = []
        for module, attr, name, measure in SITES:
            owner, last = resolve(module, attr)
            replacements.append((owner, last, self.wrap(name, getattr(owner, last), measure)))
        with patched(replacements):
            yield


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap and the
    part of a span's interval its children cover is the sum of their
    durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: Sequence[Span]) -> dict[str, float]:
    """Per-layer self times and counts of one traced round."""
    own = self_times(spans)
    self_s = dict.fromkeys((site[2] for site in SITES), 0.0)
    calls = dict.fromkeys(CALLS, 0)
    counts = dict.fromkeys(
        (
            "gridworld.agent_steps",
            "graph.subgraphs",
            "graph.members",
            "graph.edges",
            "network.policy_logprobs.rows",
            "network.critic_values.rows",
            "network.critic_values.edges",
            "trainer.sweep_values.entries",
            "trainer.sweep_values.chunks",
            "trainer.sweep_values.critic_rows",
            "harness.save_state.bytes",
        ),
        0,
    )
    for (name, _, _, parent, qty), t in zip(spans, own):
        self_s[name] += t
        if name in calls:
            calls[name] += 1
        if name == "gridworld.step":
            counts["gridworld.agent_steps"] += qty[0]
        elif name == "graph.decompose":
            counts["graph.subgraphs"] += qty[0]
            counts["graph.members"] += qty[1]
            counts["graph.edges"] += qty[2]
        elif name == "network.policy_logprobs":
            counts["network.policy_logprobs.rows"] += qty[0]
        elif name == "network.critic_values":
            counts["network.critic_values.rows"] += qty[0]
            counts["network.critic_values.edges"] += qty[1]
            if parent >= 0 and spans[parent][0] == "trainer.sweep_values":
                counts["trainer.sweep_values.chunks"] += 1
                counts["trainer.sweep_values.critic_rows"] += qty[0]
        elif name == "trainer.sweep_values":
            counts["trainer.sweep_values.entries"] += qty[0]
        elif name == "harness.save_state":
            counts["harness.save_state.bytes"] += qty[0]
    out: dict[str, float] = {f"{n}.self_s": t for n, t in self_s.items()}
    out.update({f"{n}.calls": c for n, c in calls.items()})
    out.update(counts)
    return out


def merge_rounds(rounds: Sequence[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median self times over traced rounds; counts must repeat exactly."""
    merged: dict[str, float] = {}
    problems: list[str] = []
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if key.endswith("self_s"):
            merged[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{key} differs between identical rounds: {values}")
            merged[key] = values[0]
    return merged, problems


def write_spans(path: str, rounds: Sequence[Sequence[Span]]) -> None:
    """One CSV line per span: round, index, name, start, end, parent, quantities."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,index,name,start,end,parent,quantities\n")
        for r, spans in enumerate(rounds):
            for i, (name, start, end, parent, qty) in enumerate(spans):
                q = "" if qty is None else " ".join(map(str, qty))
                fh.write(f"{r},{i},{name},{start!r},{end!r},{parent},{q}\n")
