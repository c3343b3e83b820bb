"""Exception types shared across the package."""


class IsogameError(Exception):
    """Base class for all package-specific errors."""


class GraphDomainError(IsogameError, ValueError):
    """Input outside an operation's domain (bad vertex, empty graph, ...)."""


class GenerationError(IsogameError, RuntimeError):
    """A random generator exhausted its retry budget."""


class GraphFormatError(IsogameError, ValueError):
    """Malformed graph6 or edge-list input.

    ``offset`` is the byte offset of the first offending byte, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


class IllegalMoveError(IsogameError, ValueError):
    """A move that the game rules reject.

    ``reason`` is ``"not-playable"`` or ``"already-played"``.
    """

    def __init__(self, vertex: int, reason: str):
        super().__init__(f"illegal move {vertex}: {reason}")
        self.vertex = vertex
        self.reason = reason


class GameStateError(IsogameError, ValueError):
    """An operation was asked of a state it does not apply to (e.g. terminal)."""


class UnknownBoundError(IsogameError, KeyError):
    """A bound filter names a bound that does not exist."""

    # KeyError would print the message quoted, as if it were a missing key.
    __str__ = Exception.__str__


class SolverCapError(IsogameError, ValueError):
    """Graph order exceeds the solver cap, or the cap setting is malformed."""


class StrategyDomainError(IsogameError, ValueError):
    """A strategy was used outside the graph family or turn it supports."""


class SnapshotDomainError(IsogameError, ValueError):
    """Stage snapshots only apply to greedy-Dominator traces."""


class ProtocolViolationError(IsogameError, RuntimeError):
    """A strategy returned an illegal vertex during simulation."""

    def __init__(self, strategy_name: str, vertex: int, reason: str):
        super().__init__(f"strategy {strategy_name!r} chose illegal vertex {vertex}: {reason}")
        self.strategy_name = strategy_name
        self.vertex = vertex
        self.reason = reason
