"""Metrics CSV: one row per (batch, team), fixed columns, lossless floats.

Floats are written with repr so reading them back returns the exact same
values. win_rate is left empty for scenarios with no win/lose notion
(jungle). When the run disables timing, the seconds column is written as
0.0 so two identical runs produce byte-identical files. subgraph_count is the
mean number of sub-graphs per episode, mean_subgraph_size their mean member
count (both 0.0 for vanilla-pg). Files written before those two columns
existed still read, with 0.0 in both.
"""

from __future__ import annotations

from typing import IO, Optional

from ..errors import ConfigError
from ..rl.trainer import BatchMetrics

COLUMNS = (
    "batch",
    "team",
    "mean_reward",
    "win_rate",
    "lr",
    "seconds",
    "mean_alive",
    "subgraph_count",
    "mean_subgraph_size",
)
# the layout before the sub-graph columns: the first seven
OLD_COLUMNS = COLUMNS[:7]

# the one documented normalization choice readers need to interpret rows
DOC_LINE = "# mean_reward: per-agent episode return, averaged over the batch's episodes"


def _fmt(x: float) -> str:
    return repr(float(x))


def format_row(bm: BatchMetrics, timing: bool = True) -> str:
    """Render one metrics record as a CSV line (no newline)."""
    cells = (
        str(bm.batch),
        str(bm.team),
        _fmt(bm.mean_reward),
        "" if bm.win_rate is None else _fmt(bm.win_rate),
        _fmt(bm.lr),
        _fmt(bm.seconds if timing else 0.0),
        _fmt(bm.mean_alive),
        _fmt(bm.subgraph_count),
        _fmt(bm.mean_subgraph_size),
    )
    return ",".join(cells)


class MetricsWriter:
    """Serialized, append-only CSV writer; flushes after every row."""

    def __init__(self, path: str, timing: bool = True):
        self.timing = timing
        self._fh: IO[str] = open(path, "w", encoding="utf-8", newline="")
        self._fh.write(DOC_LINE + "\n")
        self._fh.write(",".join(COLUMNS) + "\n")
        self._fh.flush()

    def write(self, bm: BatchMetrics) -> None:
        self._fh.write(format_row(bm, self.timing) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_metrics(path: str) -> list[BatchMetrics]:
    """Parse a metrics CSV back into records (inverse of MetricsWriter).

    A file in the seven-column layout reads 0.0 for the sub-graph columns.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    rows: list[BatchMetrics] = []
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise ConfigError(f"{path} has no header line")
    header = tuple(body[0].split(","))
    if header not in (COLUMNS, OLD_COLUMNS):
        raise ConfigError(f"{path} does not carry the expected columns")
    for ln in body[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"malformed metrics row: {ln!r}")
        cells += ["0.0"] * (len(COLUMNS) - len(cells))
        try:
            rows.append(
                BatchMetrics(
                    batch=int(cells[0]),
                    team=int(cells[1]),
                    mean_reward=float(cells[2]),
                    win_rate=None if cells[3] == "" else float(cells[3]),
                    lr=float(cells[4]),
                    seconds=float(cells[5]),
                    mean_alive=float(cells[6]),
                    subgraph_count=float(cells[7]),
                    mean_subgraph_size=float(cells[8]),
                )
            )
        except ValueError as e:
            raise ConfigError(f"malformed metrics row: {ln!r} ({e})") from None
    return rows
