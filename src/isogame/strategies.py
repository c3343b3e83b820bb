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
from typing import NamedTuple

from .engine import Player, check_game_domain, marked_set
from .errors import (GameStateError, ProtocolViolationError,
                     SnapshotDomainError, StrategyDomainError)
from .graph import (Graph, closed_neighborhood, induced_subgraph, iter_bits,
                    open_neighborhood, vertex_set, vertices_of)
from .solver import _UNBOUNDED, GameValue, Solver, StateCache, _step

STAGE_BURST = 1
STAGE_TRICKLE = 2


class Strategy:
    """Deterministic choice rule mapping a position to a playable vertex.

    A strategy's one rule is :meth:`choose`, called with the graph, the
    unmarked set ``U``, the mover, the previous move ``last`` (None when no
    move was made) and the played set. Choices are functions of ``U``, the
    mover and ``last``, not of the played set, so the forced search shares
    one table entry among played sets with the same ``U``; it asks for a
    choice right after the free move ``last``, so ``last`` never enters a
    key. ``reads_played`` marks the exceptions that read the played set
    itself: ``RandomStrategy`` seeds on it, and ``BestResponseStrategy``
    hands it to its search. :meth:`note` is a remark on the choice made from
    the same position, such as a fallback, or None.

    A strategy that searches defines ``_new_search(g)`` and reaches the
    search through ``_search_for``, which keeps it for the graph last played
    on and rebuilds it when another graph arrives, so a strategy holds at
    most one graph alive.
    """

    name = "strategy"
    reads_played = False

    def __init__(self):
        self._search: tuple[Graph, object] | None = None

    def choose(self, g: Graph, unmarked: int, mover: Player,
               last: int | None, played: int) -> int:
        raise NotImplementedError

    def note(self, g: Graph, unmarked: int, last: int | None) -> str | None:
        return None

    def _search_for(self, g: Graph):
        if self._search is None or self._search[0] is not g:
            self._search = (g, self._new_search(g))
        return self._search[1]


def _check_choice(strategy: Strategy, g: Graph, unmarked: int, v: int,
                  played: int) -> None:
    """Raise :class:`ProtocolViolationError` unless ``v`` is playable from
    ``unmarked``, i.e. a vertex of ``g`` with an unmarked neighbor."""
    if 0 <= v < g.n and g.adj[v] & unmarked:
        return
    reason = "already-played" if v >= 0 and played >> v & 1 else "not-playable"
    raise ProtocolViolationError(strategy.name, v, reason)


def _mark_gains(g: Graph, unmarked: int, within: int = -1) -> tuple[int, list[int]]:
    """The most new vertices a playable vertex in ``within`` marks from the
    unmarked set ``U``, and every vertex that marks that many, ascending.

    Playing ``w`` marks ``U & N(w)``, then isolates every unplayed ``x`` in
    ``U`` left without an unmarked neighbor. An unplayed ``x`` in ``U`` has
    unmarked neighbors ``A_x = N(x) & U``, never empty, since an unplayed
    vertex without one is isolated and so already marked; a vertex of ``U``
    with ``A_x`` empty is a played one, which nothing isolates. So ``w``
    isolates ``x`` exactly when ``w`` is outside ``N[x]`` and ``A_x`` lies in
    ``N(w)``: the vertices isolating ``x`` are the common neighbors of
    ``A_x`` outside ``N[x]``, all playable as neighbors of unmarked
    vertices. One pass over ``U`` counts these hits per vertex, and
    ``gain(w) = |U & N(w)| + hits(w)``, so no candidate is stepped.
    """
    adj = g.adj
    hits = [0] * g.n
    playable = 0
    rest = unmarked
    while rest:
        low = rest & -rest
        rest ^= low
        near = adj[low.bit_length() - 1]
        playable |= near
        around = near & unmarked
        isolating = within & ~(near | low) if around else 0
        while around and isolating:
            bit = around & -around
            isolating &= adj[bit.bit_length() - 1]
            around ^= bit
        while isolating:
            bit = isolating & -isolating
            hits[bit.bit_length() - 1] += 1
            isolating ^= bit
    playable &= within
    if playable == 0:
        raise GameStateError("no moves in a terminal state")
    best, maximizers = 0, []
    while playable:
        low = playable & -playable
        playable ^= low
        w = low.bit_length() - 1
        gain = (adj[w] & unmarked).bit_count() + hits[w]
        if gain > best:
            best, maximizers = gain, [w]
        elif gain == best:
            maximizers.append(w)
    return best, maximizers


class GreedyDominator(Strategy):
    name = "greedy"

    def choose(self, g, unmarked, mover, last, played):
        return _mark_gains(g, unmarked)[1][0]


class ModifiedGreedyDominator(Strategy):
    name = "modified-greedy"

    def choose(self, g, unmarked, mover, last, played):
        maximizers = _mark_gains(g, unmarked)[1]
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

    def choose(self, g, unmarked, mover, last, played):
        playable = vertices_of(open_neighborhood(g, unmarked))
        if not playable:
            raise GameStateError("no moves in a terminal state")
        rng = random.Random(self.seed * (1 << g.n) + played)
        return rng.choice(playable)


class OptimalStrategy(Strategy):
    """Plays the exact solver's move for whichever side is to move."""

    name = "optimal"

    def _new_search(self, g):
        return Solver(g)

    def choose(self, g, unmarked, mover, last, played):
        return self._search_for(g)._best_move(unmarked, mover is Player.DOMINATOR)


# -- extremal Staller --------------------------------------------------------

_SUPPORTED_COMPONENTS = ("P3", "C3", "P6", "C6")


def _component_kind(g: Graph, comp: int) -> str:
    # A component keeps all its vertices' neighbors, so its edges are half its degree sum.
    degrees = sorted(g.adj[v].bit_count() for v in iter_bits(comp))
    order = len(degrees)
    inside = sum(degrees) // 2
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
    move, and :meth:`note` says so.
    """

    name = "extremal"

    def _new_search(self, g):
        # Each component's kind by mask, and a solver per vertex mask, built when first asked.
        return {comp: _component_kind(g, comp) for comp in g.components}, {}

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

    def _last_component(self, g: Graph, unmarked: int, last: int) -> tuple[int, int]:
        """The component of ``last`` and its playable vertices."""
        comp = next(comp for comp in g.components if comp >> last & 1)
        return comp, open_neighborhood(g, unmarked & comp)

    def choose(self, g, unmarked, mover, last, played):
        kinds = self._search_for(g)[0]
        if mover is not Player.STALLER:
            raise StrategyDomainError("the extremal strategy plays Staller only")
        if last is None:
            raise StrategyDomainError(
                "the extremal strategy answers a Dominator move; none was made")
        comp, in_component = self._last_component(g, unmarked, last)
        if in_component == 0:
            return self._optimal_within(g, unmarked, g.full_mask)
        kind = kinds[comp]
        if kind in ("P3", "C3"):
            return _mark_gains(g, unmarked, comp)[1][0]
        if kind == "C6":
            # The one vertex of the 6-cycle beyond distance 2 of ``last``.
            antipode = comp & ~closed_neighborhood(g, closed_neighborhood(g, 1 << last))
            if in_component & antipode:
                return antipode.bit_length() - 1
        return self._optimal_within(g, unmarked, comp)

    def note(self, g, unmarked, last):
        if last is not None and not self._last_component(g, unmarked, last)[1]:
            return "component finished; fell back to the global optimal move"
        return None


# -- simulation and traces ---------------------------------------------------

class MoveRecord(NamedTuple):
    vertex: int
    mover: Player
    new_marks: int
    stage: int
    note: str | None = None


class GameTrace(NamedTuple):
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


def simulate(g: Graph, dominator: Strategy, staller: Strategy,
             first_mover: Player = Player.DOMINATOR) -> GameTrace:
    """Play a complete game, recording per-move mark counts and stages."""
    check_game_domain(g)
    cache = StateCache(g)
    played, last, mover = 0, None, first_mover
    unmarked = cache.info(played)
    records: list[MoveRecord] = []
    while unmarked:
        strategy = dominator if mover is Player.DOMINATOR else staller
        v = strategy.choose(g, unmarked, mover, last, played)
        _check_choice(strategy, g, unmarked, v, played)
        if mover is Player.STALLER and records:
            stage = records[-1].stage  # Dominator's previous move
        else:  # Dominator, or Staller opening: classify the pre-move position
            stage = STAGE_BURST if _mark_gains(g, unmarked)[0] >= 2 else STAGE_TRICKLE
        records.append(MoveRecord(vertex=v, mover=mover,
                                  new_marks=cache.mark_gain(played, v), stage=stage,
                                  note=strategy.note(g, unmarked, last)))
        played, last, mover = played | 1 << v, v, mover.other
        unmarked = cache.info(played)
    return GameTrace(graph=g, first_mover=first_mover, moves=tuple(records),
                     dominator_strategy=dominator.name, staller_strategy=staller.name)


# -- stage snapshot ----------------------------------------------------------

class StageSnapshot(NamedTuple):
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
    ``[1, |U|]`` like :meth:`Solver._search`, asks ``choose`` with
    ``last = v``, steps ``U`` and searches on. ``last`` is therefore never a
    table key, and ``Solver``'s interval entries and window contract hold as
    they are. The played set rides along on the instance for the strategies
    that read it, and below :meth:`value_from` no node re-marks the graph.

    The table keys on ``U << 1 | dominator_to_move``, or on ``played << 1 |
    dominator_to_move`` for a ``reads_played`` strategy. It never keys on
    ``Solver``'s automorphism orbit: the strategies break ties by lowest
    index, which an automorphism does not preserve, so automorphic states
    can have different forced values. The entry points take a played set
    and convert it to ``U`` through the solver's ``cache``, and each answers
    the forced game: :meth:`value_from`, and :meth:`value` and
    :meth:`Solver.at_most` on it, give its length, and :meth:`best_move`
    the free side's optimal move. The forced side has no move to optimize,
    and the forced game no principal variation, so ``best_move`` for it and
    :meth:`game_value` raise :class:`GameStateError`.
    """

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

    def value_from(self, played: int, mover: Player, last: int | None = None,
                   alpha: int = -1, beta: int = _UNBOUNDED) -> int:
        """Forced game length from ``played`` with ``mover`` to move, under the
        window contract of :meth:`Solver.value`; ``last`` is the previous
        move, which the forced side's strategy may read."""
        unmarked = self.cache.info(played)
        self._played = played
        if mover is self.fixed_role:
            return self._forced_reply(unmarked, last, alpha, beta)
        return self._search(unmarked, self._free_dom, alpha, beta)

    def value(self, played: int, mover: Player,
              alpha: int = -1, beta: int = _UNBOUNDED) -> int:
        """:meth:`value_from` with no previous move."""
        return self.value_from(played, mover, None, alpha, beta)

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
        v = strategy.choose(g, unmarked, self.fixed_role, last, played)
        _check_choice(strategy, g, unmarked, v, played)
        self._played = played | 1 << v
        value = 1 + self._search(_step(g.adj, unmarked, v), self._free_dom,
                                 alpha - 1, beta - 1)
        self._played = before
        return value

    def best_move(self, played: int, mover: Player) -> int:
        """Lowest-index optimal move for the non-forced side."""
        if mover is self.fixed_role:
            raise GameStateError("the forced side has no choice to optimize")
        self._played = played
        return self._best_move(self.cache.info(played), self._free_dom)

    def game_value(self, first_mover: Player) -> GameValue:
        raise GameStateError(
            "a forced game has no principal variation; use value_from, or "
            "simulate the strategy against a BestResponseStrategy")


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

    def choose(self, g, unmarked, mover, last, played):
        if mover is not self.role:
            raise StrategyDomainError(f"best-response built for {self.role}")
        return self._search_for(g).best_move(played, mover)
