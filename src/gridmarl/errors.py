"""Exception types shared across the package."""


class GridmarlError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GridmarlError):
    """A configuration value is missing, unknown, or out of range."""


class UnknownAgent(GridmarlError):
    """An agent id does not exist in the world (or is no longer alive)."""


class EpisodeFinished(GridmarlError):
    """step() was called on a world whose episode already ended."""


class EmptyWorld(GridmarlError):
    """A graph was requested for a world with no living agents."""


class DomainError(GridmarlError):
    """A numeric argument lies outside its valid domain."""


class ShapeError(GridmarlError):
    """An array argument has the wrong shape for the operation."""


class StaleTrace(GridmarlError):
    """backward() was called on a trace whose parameters have since changed."""


class EmptyEnsemble(GridmarlError):
    """Action ensembling received no distributions."""


class MemberNotFound(GridmarlError):
    """The named agent is not a member of the given sub-graph."""


class NonFiniteError(GridmarlError):
    """A gradient or parameter holds an infinite or NaN value."""


class ResourceError(GridmarlError):
    """A run exceeded its memory budget."""


class CheckpointError(GridmarlError):
    """A checkpoint file is unreadable or structurally invalid."""


class ShapeMismatch(CheckpointError):
    """Checkpoint parameter shapes do not match the requested network."""
