"""Player strategies, game simulation, and stage instrumentation.

The greedy Dominator always plays a legal vertex marking the most new
vertices; the modified greedy additionally prefers non-leaves among the
maximizers. The extremal Staller answers inside the component Dominator
just played in, on disjoint unions of 3-vertex paths/triangles and
6-vertex paths/cycles. Simulation tags every move with its stage: a
Dominator move is burst stage (1) while some legal move still marks two
or more new vertices, trickle stage (2) once every legal move marks
exactly one; Staller inherits the stage of Dominator's previous move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .engine import GameState, Player, marked_set, new_game, playable_from
from .errors import (GameStateError, IllegalMoveError, ProtocolViolationError,
                     SnapshotDomainError, StrategyDomainError)
from .graph import (Graph, closed_neighborhood, induced_subgraph, iter_bits,
                    open_neighborhood, vertex_set, vertices_of)
from .solver import _UNBOUNDED, Solver, StateCache, _step

STAGE_BURST = 1
STAGE_TRICKLE = 2


class Strategy:
    """Deterministic choice rule mapping a game state to a playable vertex.

    A strategy's rule is :meth:`choose_from`, called with the graph, the
    unmarked set ``U``, the mover, the opponent's previous move ``last``
    (None when no move was made) and the played set; :meth:`choose` is the
    same rule on a :class:`GameState` and its move history. Choices are
    functions of ``U``, the mover and ``last``, not of the played set, so
    the forced search shares one table entry among played sets with the
    same ``U``; it asks for a choice right after the free move ``last``, so
    ``last`` never enters a key. ``reads_played`` marks the exceptions that
    read the played set itself: ``RandomStrategy`` seeds on it, and
    ``BestResponseStrategy`` hands it to its search.

    A strategy that searches defines ``_new_search(g)`` and reaches the
    search through ``_search_for``, which keeps it for the graph last played
    on and rebuilds it when another graph arrives, so a strategy holds at
    most one graph alive.
    """

    name = "strategy"
    reads_played = False

    def __init__(self):
        self._pending_note: str | None = None
        self._search: tuple[Graph, object] | None = None

    def choose(self, state: GameState, history: tuple[int, ...]) -> int:
        return self.choose_from(state.graph, state.unmarked(), state.mover,
                                history[-1] if history else None, state.played)

    def choose_from(self, g: Graph, unmarked: int, mover: Player,
                    last: int | None, played: int) -> int:
        raise NotImplementedError

    def _search_for(self, g: Graph):
        if self._search is None or self._search[0] is not g:
            self._search = (g, self._new_search(g))
        return self._search[1]

    def _flag(self, note: str) -> None:
        self._pending_note = note

    def pop_note(self) -> str | None:
        note, self._pending_note = self._pending_note, None
        return note


def _mark_gains(g: Graph, unmarked: int, within: int = -1) -> list[tuple[int, int]]:
    """(vertex, new-mark count) for every playable vertex in ``within``,
    ascending index, from the unmarked set ``unmarked``.

    A vertex's gain is ``|U|`` minus the size of the unmarked set it steps
    ``U`` to, so no candidate re-marks the graph from scratch.
    """
    playable = playable_from(g, unmarked) & within
    if playable == 0:
        raise GameStateError("no moves in a terminal state")
    adj = g.adj
    before = unmarked.bit_count()
    return [(v, before - _step(adj, unmarked, v).bit_count())
            for v in iter_bits(playable)]


def _first_max(gains: list[tuple[int, int]]) -> int:
    best = max(gain for _, gain in gains)
    return next(v for v, gain in gains if gain == best)


def greedy_move(state: GameState) -> int:
    """Playable vertex marking the most new vertices; ties to lowest index."""
    return GreedyDominator().choose(state, ())


def modified_greedy_move(state: GameState) -> int:
    """Greedy, preferring non-leaves among the maximizers when any exist."""
    return ModifiedGreedyDominator().choose(state, ())


class GreedyDominator(Strategy):
    name = "greedy"

    def choose_from(self, g, unmarked, mover, last, played):
        return _first_max(_mark_gains(g, unmarked))


class ModifiedGreedyDominator(Strategy):
    name = "modified-greedy"

    def choose_from(self, g, unmarked, mover, last, played):
        gains = _mark_gains(g, unmarked)
        best = max(gain for _, gain in gains)
        maximizers = [v for v, gain in gains if gain == best]
        for v in maximizers:
            if g.degree(v) >= 2:
                return v
        return maximizers[0]


class RandomStrategy(Strategy):
    """Uniform choice among playable vertices, derandomized per position so
    simulations are reproducible and memoization-safe. The position is the
    played set, which seeds the choice."""

    name = "random"
    reads_played = True

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed

    def choose_from(self, g, unmarked, mover, last, played):
        playable = vertices_of(playable_from(g, unmarked))
        if not playable:
            raise GameStateError("no moves in a terminal state")
        rng = random.Random(self.seed * (1 << g.n) + played)
        return rng.choice(playable)


class OptimalStrategy(Strategy):
    """Plays the exact solver's move for whichever side is to move."""

    name = "optimal"

    def _new_search(self, g):
        return Solver(g)

    def choose_from(self, g, unmarked, mover, last, played):
        return self._search_for(g)._best_move(unmarked, mover is Player.DOMINATOR)


# -- extremal Staller --------------------------------------------------------

_SUPPORTED_COMPONENTS = ("P3", "C3", "P6", "C6")


def _component_kind(g: Graph, comp: int) -> str:
    members = vertices_of(comp)
    order = len(members)
    inside = sum(1 for u, v in g.edges if comp >> u & 1 and comp >> v & 1)
    degrees = sorted(g.adj[v].bit_count() for v in members)
    if order == 3 and inside == 2:
        return "P3"
    if order == 3 and inside == 3:
        return "C3"
    if order == 6 and inside == 5 and degrees == [1, 1, 2, 2, 2, 2]:
        return "P6"
    if order == 6 and inside == 6 and degrees == [2] * 6:
        return "C6"
    raise StrategyDomainError(
        f"unsupported component of order {order}; the extremal Staller plays "
        f"unions of {', '.join(_SUPPORTED_COMPONENTS)} only")


class ExtremalStaller(Strategy):
    """Replies in the component of Dominator's previous move.

    In a 3-vertex component she plays the vertex marking everything left
    there; in a 6-cycle the vertex at distance 3 from Dominator's move; in
    a 6-path her solver-optimal reply within the component. If the
    component offers no legal reply she falls back to her globally optimal
    move and flags the trace.
    """

    name = "extremal"

    def _new_search(self, g):
        # Component kinds, and a solver per vertex mask, built when first asked.
        return tuple(_component_kind(g, comp) for comp in g.components), {}

    def _optimal_within(self, g: Graph, unmarked: int, members: int) -> int:
        """Staller's optimal move in the subgraph induced on ``members``, a
        union of components, whose local unmarked set is ``unmarked & members``."""
        solvers = self._search_for(g)[1]
        entry = solvers.get(members)
        if entry is None:
            sub, originals = induced_subgraph(g, members)
            entry = solvers[members] = (Solver(sub), originals)
        solver, originals = entry
        local = vertex_set(originals.index(v) for v in iter_bits(unmarked & members))
        return originals[solver._best_move(local, False)]

    def choose_from(self, g, unmarked, mover, last, played):
        kinds = self._search_for(g)[0]
        if mover is not Player.STALLER:
            raise StrategyDomainError("the extremal strategy plays Staller only")
        if last is None:
            raise StrategyDomainError(
                "the extremal strategy answers a Dominator move; none was made")
        comp_index = next(i for i, comp in enumerate(g.components)
                          if comp >> last & 1)
        comp = g.components[comp_index]
        in_component = playable_from(g, unmarked) & comp
        if in_component == 0:
            self._flag("component finished; fell back to the global optimal move")
            return self._optimal_within(g, unmarked, g.full_mask)
        kind = kinds[comp_index]
        if kind in ("P3", "C3"):
            return _first_max(_mark_gains(g, unmarked, comp))
        if kind == "C6":
            antipode = next(v for v in vertices_of(comp)
                            if g.distance(last, v) == 3)
            if in_component >> antipode & 1:
                return antipode
        return self._optimal_within(g, unmarked, comp)


# -- simulation and traces ---------------------------------------------------

@dataclass(frozen=True)
class MoveRecord:
    vertex: int
    mover: Player
    new_marks: int
    stage: int
    note: str | None = None


@dataclass(frozen=True)
class GameTrace:
    graph: Graph
    first_mover: Player
    moves: tuple[MoveRecord, ...]
    dominator_strategy: str
    staller_strategy: str

    @property
    def t(self) -> int:
        return len(self.moves)

    def played_before(self, index: int) -> int:
        return vertex_set(record.vertex for record in self.moves[:index])


def _burst_available(cache: StateCache, played: int) -> bool:
    """True while some legal move still marks two or more new vertices."""
    return any(cache.mark_gain(played, v) >= 2
               for v in iter_bits(cache.info(played)[1]))


def simulate(g: Graph, dominator: Strategy, staller: Strategy,
             first_mover: Player = Player.DOMINATOR) -> GameTrace:
    """Play a complete game, recording per-move mark counts and stages."""
    state = new_game(g, first_mover)
    cache = StateCache(g)
    history: list[int] = []
    records: list[MoveRecord] = []
    last_dominator_stage: int | None = None
    # A note left by an earlier search with the same instance (say, a
    # forced best-response run) belongs to no move of this game.
    dominator.pop_note()
    staller.pop_note()
    while cache.info(state.played)[0]:
        mover = state.mover
        strategy = dominator if mover is Player.DOMINATOR else staller
        v = strategy.choose(state, tuple(history))
        if mover is Player.DOMINATOR:
            stage = STAGE_BURST if _burst_available(cache, state.played) else STAGE_TRICKLE
            last_dominator_stage = stage
        elif last_dominator_stage is not None:
            stage = last_dominator_stage
        else:
            # Staller opens the game: classify by the pre-move position.
            stage = STAGE_BURST if _burst_available(cache, state.played) else STAGE_TRICKLE
        gain = cache.mark_gain(state.played, v) if cache.info(state.played)[1] >> v & 1 else 0
        try:
            state = state.play(v)
        except IllegalMoveError as exc:
            raise ProtocolViolationError(strategy.name, v, exc.reason) from exc
        history.append(v)
        records.append(MoveRecord(vertex=v, mover=mover, new_marks=gain,
                                  stage=stage, note=strategy.pop_note()))
    return GameTrace(graph=g, first_mover=first_mover, moves=tuple(records),
                     dominator_strategy=dominator.name, staller_strategy=staller.name)


# -- stage snapshot ----------------------------------------------------------

@dataclass(frozen=True)
class StageSnapshot:
    """State at the burst/trickle boundary of a greedy-Dominator game.

    ``remote`` holds the vertices at distance at least 2 from every
    unmarked vertex, i.e. everything outside the unmarked set's closed
    neighborhood.
    """
    played: int
    stage1_dominator_moves: int
    unmarked: int
    unmarked_neighbors: int
    remote: int
    leaf_unmarked: int
    nonleaf_unmarked: int
    boundary_index: int
    total_moves: int

    @property
    def unmarked_count(self) -> int:
        return self.unmarked.bit_count()

    @property
    def leaf_unmarked_count(self) -> int:
        return self.leaf_unmarked.bit_count()


def stage_snapshot(trace: GameTrace) -> StageSnapshot | None:
    """Quantities at the stage boundary, or None if no trickle stage ran."""
    if trace.dominator_strategy not in ("greedy", "modified-greedy"):
        raise SnapshotDomainError(
            f"stage snapshots require a greedy Dominator trace, got "
            f"{trace.dominator_strategy!r}")
    boundary = next((i for i, record in enumerate(trace.moves)
                     if record.stage == STAGE_TRICKLE), None)
    if boundary is None:
        return None
    g = trace.graph
    played = trace.played_before(boundary)
    unmarked = marked_set(g, played).unmarked
    neighbors = open_neighborhood(g, unmarked)
    remote = g.full_mask & ~closed_neighborhood(g, unmarked)
    leaves = vertex_set(v for v in iter_bits(unmarked) if g.degree(v) == 1)
    return StageSnapshot(
        played=played,
        stage1_dominator_moves=sum(1 for record in trace.moves[:boundary]
                                   if record.mover is Player.DOMINATOR),
        unmarked=unmarked,
        unmarked_neighbors=neighbors,
        remote=remote,
        leaf_unmarked=leaves,
        nonleaf_unmarked=unmarked & ~leaves,
        boundary_index=boundary,
        total_moves=trace.t,
    )


# -- best response against a fixed strategy ---------------------------------

class ForcedGameSolver(Solver):
    """:class:`Solver` with one side's moves forced by a strategy.

    The free side plays to its own objective (Dominator minimizes, Staller
    maximizes the total move count), and the search's nodes are its states
    only: each free move ``v`` is followed at once by the strategy's reply
    in :meth:`_forced_reply`, so a child's value is ``1 + forced(U1, last=v)``.
    The forced step is not stored. It cuts off a window outside the bracket
    ``[1, |U|]`` like :meth:`Solver._search`, asks ``choose_from`` with
    ``last = v``, steps ``U`` and searches on. ``last`` is therefore never a
    table key, and ``Solver``'s bound flags and window contract hold as they
    are. The played set rides along on the instance for the strategies that
    read it, and below :meth:`value_from` no node re-marks the graph.

    The table keys on ``U << 1 | dominator_to_move``, or on ``played << 1 |
    dominator_to_move`` for a ``reads_played`` strategy. It never keys on
    ``Solver``'s automorphism orbit: the strategies break ties by lowest
    index, which an automorphism does not preserve, so automorphic states
    can have different forced values. The entry points are
    :meth:`value_from` and :meth:`free_side_move`; ``Solver``'s played-set
    methods know nothing of the forced side.
    """

    _orbit_keyed = False

    def __init__(self, g: Graph, strategy: Strategy, fixed_role: Player):
        super().__init__(g)
        self.strategy = strategy
        self.fixed_role = fixed_role
        self._free_dom = fixed_role is Player.STALLER
        self._played = 0
        if strategy.reads_played:
            self._key_of = self._played_key

    def _played_key(self, unmarked: int) -> int:
        return self._played

    def value_from(self, played: int, mover: Player, last: int | None = None) -> int:
        """Forced game length from ``played`` with ``mover`` to move; ``last``
        is the previous move, which the forced side's strategy may read."""
        unmarked = marked_set(self.graph, played).unmarked
        self._played = played
        if mover is self.fixed_role:
            return self._forced_reply(unmarked, last, -1, _UNBOUNDED)
        return self._search(unmarked, self._free_dom)

    def _forced_reply(self, unmarked: int, last: int | None,
                      alpha: int, beta: int) -> int:
        """Moves left from ``unmarked`` with the forced side to move after
        the free move ``last`` (None when it opens), under the window
        contract of :meth:`Solver._search`."""
        if not unmarked:
            return 0
        size = unmarked.bit_count()
        if size <= alpha:
            return size
        if beta <= 1:
            return 1
        before = self._played
        played = before if last is None else before | 1 << last
        g = self.graph
        strategy = self.strategy
        v = strategy.choose_from(g, unmarked, self.fixed_role, last, played)
        if not playable_from(g, unmarked) >> v & 1:
            raise ProtocolViolationError(strategy.name, v, "not-playable")
        self._played = played | 1 << v
        value = 1 + self._search(_step(g.adj, unmarked, v), self._free_dom,
                                 alpha - 1, beta - 1)
        self._played = before
        return value

    def free_side_move(self, played: int, mover: Player) -> int:
        """Lowest-index optimal move for the non-forced side."""
        if mover is self.fixed_role:
            raise GameStateError("the forced side has no choice to optimize")
        self._played = played
        return self._best_move(marked_set(self.graph, played).unmarked,
                               self._free_dom)


def best_response_value(g: Graph, strategy: Strategy, fixed_role: Player,
                        first_mover: Player = Player.DOMINATOR) -> int:
    """Game length with ``fixed_role`` forced to ``strategy`` and the other
    side playing its own optimum against it."""
    return ForcedGameSolver(g, strategy, fixed_role).value_from(0, first_mover)


class BestResponseStrategy(Strategy):
    """Plays the exact best response for ``role`` against a declared
    opponent strategy (the opponent in simulation should match it)."""

    name = "best-response"
    reads_played = True

    def __init__(self, opponent: Strategy, role: Player):
        super().__init__()
        self.opponent = opponent
        self.role = role

    def _new_search(self, g):
        return ForcedGameSolver(g, self.opponent, self.role.other)

    def choose_from(self, g, unmarked, mover, last, played):
        if mover is not self.role:
            raise StrategyDomainError(f"best-response built for {self.role}")
        return self._search_for(g).free_side_move(played, mover)
