"""State machine for the total isolation game.

A vertex is *marked* once it has a played neighbor, or once it is unplayed
and isolated in the graph left after deleting the played set's neighborhood.
A vertex is playable exactly when it has an unmarked neighbor, so the game
ends when every vertex is marked. Marking depends only on the played set,
not on move order, which is what makes transposition-table solving sound.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import GameStateError, GraphDomainError, IllegalMoveError
from .graph import Graph, iter_bits, open_neighborhood


class Player(Enum):
    DOMINATOR = "dominator"
    STALLER = "staller"

    @property
    def other(self) -> "Player":
        return Player.STALLER if self is Player.DOMINATOR else Player.DOMINATOR

    def __str__(self) -> str:
        return self.value


class MarkPartition(NamedTuple):
    """Disjoint marked/unmarked bitmasks covering the whole vertex set."""
    marked: int
    unmarked: int


def marked_set(g: Graph, played: int) -> MarkPartition:
    """Split the vertex set into marked and unmarked for a played set.

    Pure function of (graph, played set); the neighborhood clause marks
    every neighbor of a played vertex, the isolation clause marks unplayed
    vertices whose neighbors were all deleted with the played neighborhood.
    """
    g._check_subset(played)
    if not played and g._low:
        # Nothing played marks no neighbor, and only a degree-0 vertex is
        # isolated in the whole graph, so the root of a game marks nothing.
        return MarkPartition(0, g.full_mask)
    adj = g.adj
    marked = playable_from(g, played)
    full = g.full_mask
    survivors = full & ~marked
    rest = survivors & ~played
    while rest:
        low = rest & -rest
        if not adj[low.bit_length() - 1] & survivors:
            marked |= low
        rest ^= low
    return MarkPartition(marked, full & ~marked)


def playable_from(g: Graph, unmarked: int) -> int:
    """Vertices with at least one neighbor in the ``unmarked`` mask.

    Adjacency is symmetric, so these are the neighbors of the unmarked
    vertices.
    """
    adj = g.adj
    out = 0
    while unmarked:
        low = unmarked & -unmarked
        out |= adj[low.bit_length() - 1]
        unmarked ^= low
    return out


def playable_set(g: Graph, played: int) -> int:
    """Vertices with at least one unmarked neighbor.

    This is the fast equivalent of the two-clause legality rule (a played
    vertex never qualifies: its neighbors all sit inside the played set's
    neighborhood and are marked). The slow two-clause form lives in
    :mod:`isogame.oracles` and the two are cross-checked under test.
    """
    return playable_from(g, marked_set(g, played).unmarked)


def is_isolating_set(g: Graph, members: int) -> bool:
    """True when deleting the members' closed neighborhood leaves no edge."""
    g._check_subset(members)
    remainder = g.full_mask & ~(open_neighborhood(g, members) | members)
    return all(g.adj[v] & remainder == 0 for v in iter_bits(remainder))


def is_total_isolating_set(g: Graph, members: int) -> bool:
    """Isolating, and the induced subgraph on members has no degree-0 vertex."""
    if not is_isolating_set(g, members):
        return False
    return all(g.adj[v] & members for v in iter_bits(members))


class GameState(NamedTuple):
    """One game position: the graph, the played set, and who moved first.

    Immutable; :meth:`play` returns a new state. The mover is derived from
    the parity of the played set.
    """
    graph: Graph
    played: int
    first_mover: Player

    @property
    def mover(self) -> Player:
        return self.first_mover if self.played.bit_count() % 2 == 0 else self.first_mover.other

    def marks(self) -> MarkPartition:
        return marked_set(self.graph, self.played)

    def unmarked(self) -> int:
        return self.marks().unmarked

    def playable(self) -> int:
        return playable_set(self.graph, self.played)

    def is_terminal(self) -> bool:
        return self.unmarked() == 0

    def play(self, v: int) -> "GameState":
        self.graph._check_vertex(v)
        if self.played >> v & 1:
            raise IllegalMoveError(v, "already-played")
        if not self.playable() >> v & 1:
            raise IllegalMoveError(v, "not-playable")
        after = GameState(self.graph, self.played | 1 << v, self.first_mover)
        # A legal move marks its unmarked witness, so the marked set grows.
        assert after.marks().marked.bit_count() > self.marks().marked.bit_count()
        return after


def check_game_domain(g: Graph) -> None:
    """Reject graphs the game is not defined on: fewer than 2 vertices, or
    an isolated vertex (the end-set guarantee fails on them)."""
    if g.n < 2:
        raise GraphDomainError(f"the game needs at least 2 vertices, got n={g.n}")
    if g.min_degree == 0:
        raise GraphDomainError("the game is defined on isolate-free graphs only")


def new_game(g: Graph, first_mover: Player = Player.DOMINATOR) -> GameState:
    """Start a game on a graph that :func:`check_game_domain` accepts."""
    check_game_domain(g)
    return GameState(graph=g, played=0, first_mover=first_mover)


def replay(g: Graph, moves: list[int] | tuple[int, ...],
           first_mover: Player = Player.DOMINATOR) -> GameState:
    """Apply a move sequence from the empty position, validating each move."""
    state = new_game(g, first_mover)
    for v in moves:
        state = state.play(v)
    return state
