"""gridmarl: decentralized multi-agent RL on interaction graphs.

Agents in a shared grid world form a graph (an edge whenever two agents
are within one cell of each other). Each agent trains and acts on its own
depth-limited sub-graph around itself via a small message-passing network,
and its final action ensembles the distributions every nearby sub-graph
assigns to it. Everything runs on numpy with a built-in reverse-mode
gradient tape; no deep-learning framework is required.

Importing the package before numpy pins its BLAS to one thread unless the
caller set a thread count: seeded runs then give the same bits on every
machine, and a busy host does not stall products spread over two cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (
    CheckpointError,
    ConfigError,
    DomainError,
    EmptyEnsemble,
    EmptyWorld,
    EpisodeFinished,
    GridmarlError,
    MemberNotFound,
    NonFiniteError,
    ResourceError,
    ShapeError,
    ShapeMismatch,
    StaleTrace,
    UnknownAgent,
)
from .graph import (
    DEFAULT_DELTA_D,
    DEFAULT_N_MAX,
    Decomposition,
    EnvGraph,
    SubGraph,
    VERTEX_DIM,
    all_vertex_features,
    build_graph,
    decompose,
    rbe,
    vertex_features,
)
from .gridworld import (
    Action,
    AgentState,
    GridWorld,
    N_ACTIONS,
    N_CHANNELS,
    OBS_SIZE,
    Position,
    Scenario,
    ScenarioConfig,
    StepOutcome,
    new_scenario,
    validate_scenario,
)
from .rl.core import baseline, ensemble_action, returns_to_go, td_error
from .rl.trainer import (
    ALGORITHMS,
    BatchMetrics,
    NetConfig,
    Trainer,
    TrainerConfig,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Action",
    "AgentState",
    "BatchMetrics",
    "CheckpointError",
    "ConfigError",
    "DEFAULT_DELTA_D",
    "DEFAULT_N_MAX",
    "Decomposition",
    "DomainError",
    "EmptyEnsemble",
    "EmptyWorld",
    "EnvGraph",
    "EpisodeFinished",
    "GridWorld",
    "GridmarlError",
    "MemberNotFound",
    "N_ACTIONS",
    "N_CHANNELS",
    "NetConfig",
    "NonFiniteError",
    "OBS_SIZE",
    "Position",
    "ResourceError",
    "Scenario",
    "ScenarioConfig",
    "ShapeError",
    "ShapeMismatch",
    "StaleTrace",
    "StepOutcome",
    "SubGraph",
    "Trainer",
    "TrainerConfig",
    "UnknownAgent",
    "VERTEX_DIM",
    "all_vertex_features",
    "baseline",
    "build_graph",
    "decompose",
    "ensemble_action",
    "evaluate",
    "new_scenario",
    "rbe",
    "returns_to_go",
    "td_error",
    "validate_scenario",
    "vertex_features",
    "__version__",
]
