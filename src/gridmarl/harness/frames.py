"""Frame dumps: line-delimited JSON records plus one PPM image per step.

The first line of a frame file is a header record naming the format and
schema version; every following line describes one step's world state in a
stable field order (step, width, height, walls, foods, landmarks, target,
agents, rewards). Positions are [x, y] with (0, 0) the top-left cell.

Images are binary portable pixmaps (P6): walls dark, foods green, team 0
red, team 1 blue, landmarks yellow. The deception target is flagged in the
record but drawn like any other landmark, so the picture reveals nothing
the adversary cannot see.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

import numpy as np

from ..gridworld import GridWorld

FRAME_FORMAT = "gridmarl-frames"
FRAME_VERSION = 1

_BACKGROUND = (235, 235, 235)
_WALL = (40, 40, 40)
_FOOD = (50, 160, 60)
_LANDMARK = (235, 200, 50)
_TEAMS = ((205, 50, 50), (55, 80, 205))  # red, blue
_EXTRA_TEAM = (130, 60, 160)             # any further team renders purple


def header_record(world: GridWorld) -> dict[str, Any]:
    return {
        "format": FRAME_FORMAT,
        "version": FRAME_VERSION,
        "scenario": world.scenario.value,
        "width": world.width,
        "height": world.height,
    }


def frame_record(
    world: GridWorld, step: int, rewards: Optional[Mapping[int, float]] = None
) -> dict[str, Any]:
    """Snapshot the world as one serializable record."""
    tgt = world.target_cell()
    return {
        "step": step,
        "width": world.width,
        "height": world.height,
        "walls": sorted([list(p) for p in world.walls]),
        "foods": sorted([list(p) for p in world.foods]),
        "landmarks": [list(p) for p in world.landmarks],
        "target": list(tgt) if tgt is not None else None,
        "agents": [
            {"id": a.id, "team": a.team, "x": a.pos.x, "y": a.pos.y, "alive": a.alive}
            for a in world.agents
        ],
        "rewards": {str(k): rewards[k] for k in sorted(rewards)} if rewards else {},
    }


def dump_record(record: Mapping[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":"))


def render_ppm(world: GridWorld, path: str, scale: int = 8) -> None:
    """Write the world as a binary PPM, one scale x scale block per cell."""
    img = np.empty((world.height * scale, world.width * scale, 3), dtype=np.uint8)
    img[:] = _BACKGROUND

    def paint(x: int, y: int, rgb: tuple[int, int, int]) -> None:
        img[y * scale : (y + 1) * scale, x * scale : (x + 1) * scale] = rgb

    for p in world.landmarks:
        paint(p.x, p.y, _LANDMARK)
    for p in world.foods:
        paint(p.x, p.y, _FOOD)
    for p in world.walls:
        paint(p.x, p.y, _WALL)
    for a in world.alive_agents():
        rgb = _TEAMS[a.team] if a.team < len(_TEAMS) else _EXTRA_TEAM
        paint(a.pos.x, a.pos.y, rgb)

    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_frames(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load a frame file back into (header, records)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        return {}, []
    header = json.loads(lines[0])
    return header, [json.loads(ln) for ln in lines[1:]]
