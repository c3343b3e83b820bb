"""Exact game values by alpha-beta minimax over (unmarked set, mover) states.

The game's future depends only on the unmarked set ``U``: the playable
vertices are the neighbors of ``U``, the game ends when ``U`` is empty, and
playing ``w`` gives the next ``U`` from ``U`` and ``w`` alone (see
:func:`_step`). So legal moves and the remaining move count are functions
of (``U``, mover), and every played set that reaches the same ``U`` shares
one table entry. Dominator minimizes and Staller maximizes the number of
moves in the completed game. All tie-breaks are lowest vertex index, so
values and principal variations are reproducible.

Two exact reductions keep the search small. Every legal move marks its
unmarked witness, so a non-terminal value lies in ``[1, |U|]``, and a window
outside that bracket is cut off at once. And a graph automorphism maps a
state to one of equal value, so table entries are shared per automorphism
orbit of ``U`` (Allis 1994): on a graph of more than 8 vertices on which at
least ``n`` automorphisms are found (the search stops at ``2n``), the table
keys on the least image of ``U`` under them. When those form the whole
group, as a cycle's ``2n`` rotations and reflections do, one entry serves
the whole orbit. When they are not closed under composition (on Petersen
and Q4, say), two images of ``U`` may still get different keys, so an orbit
can fill several entries; since every image is automorphic to ``U``, an
entry never serves a state of another value.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from operator import or_

from .engine import Player, check_game_domain, marked_set, playable_from
from .errors import GameStateError, SolverCapError
from .graph import Graph, iter_bits, vertex_set

DEFAULT_SOLVER_CAP = 20
SOLVER_CAP_ENV = "ISOGAME_SOLVER_CAP"

_EXACT, _LOWER, _UPPER = 0, 1, 2
_UNBOUNDED = sys.maxsize


def solver_cap_from_env() -> int:
    """The solver cap: ``ISOGAME_SOLVER_CAP`` if set, else the default.

    A game needs at least 2 vertices, so a cap below 2 could solve nothing
    and is rejected like a value that is not an integer.
    """
    raw = os.environ.get(SOLVER_CAP_ENV)
    if raw is None:
        return DEFAULT_SOLVER_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 2:
        raise SolverCapError(
            f"{SOLVER_CAP_ENV} must be an integer of at least 2, got {raw!r}")
    return cap


@dataclass(frozen=True)
class GameValue:
    """Optimal game length and a deterministic line achieving it."""
    total_moves: int
    principal_variation: tuple[int, ...]


@dataclass(frozen=True)
class TableStats:
    """Transposition-table entries, and probes the table settled."""
    states: int
    hits: int


class StateCache:
    """(unmarked mask, playable mask) per played set, for one graph.

    A plain memo owned by the solve or simulation that creates it, so its
    marks are freed together with that owner. Its remaining users are the
    played-set boundary of :class:`Solver` (``value``, ``best_move`` and
    ``game_value``) and :func:`strategies.simulate`; the searches themselves
    step the unmarked set with :func:`_step`.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._info: dict[int, tuple[int, int]] = {}

    def info(self, played: int) -> tuple[int, int]:
        cached = self._info.get(played)
        if cached is not None:
            return cached
        g = self.graph
        unmarked = marked_set(g, played).unmarked
        result = self._info[played] = (unmarked, playable_from(g, unmarked))
        return result

    def mark_gain(self, played: int, v: int) -> int:
        """Number of vertices newly marked by playing ``v``."""
        before = self.info(played)[0]
        after = self.info(played | 1 << v)[0]
        return before.bit_count() - after.bit_count()


def check_solvable(g: Graph) -> None:
    """The one solvability rule: the game's domain, at most the solver cap
    (read here, so every search honours ``ISOGAME_SOLVER_CAP``), and at most
    half the recursion limit, since the searches recurse once per move and a
    game has at most n moves (the other half is for the callers)."""
    cap = solver_cap_from_env()
    check_game_domain(g)
    if g.n > cap:
        raise SolverCapError(
            f"n={g.n} exceeds the solver cap {cap}; "
            f"set {SOLVER_CAP_ENV} to solve it anyway")
    limit = sys.getrecursionlimit()
    if g.n > limit // 2:
        raise SolverCapError(
            f"n={g.n} exceeds {limit // 2}, half of Python's recursion limit "
            f"{limit}; the search recurses once per move")


def _step(adj: tuple[int, ...], unmarked: int, w: int) -> int:
    """The unmarked set after playing the playable vertex ``w`` from ``unmarked``.

    An unmarked vertex with no unmarked neighbor is a played vertex not yet
    covered; every other unmarked vertex is unplayed and keeps an unmarked
    neighbor. Playing ``w`` marks its neighbors, and then every unplayed
    ``x != w`` left without an unmarked neighbor is isolated and marked.
    Only neighbors of the newly marked vertices can lose their last
    unmarked neighbor, so the work stays in the distance-2 ball of ``w``.
    """
    lost = unmarked & adj[w]
    after = unmarked ^ lost
    near = 0
    while lost:
        low = lost & -lost
        near |= adj[low.bit_length() - 1]
        lost ^= low
    near &= after & ~(1 << w)
    isolated = 0
    while near:
        low = near & -near
        if not adj[low.bit_length() - 1] & after:
            isolated |= low
        near ^= low
    return after ^ isolated


def _automorphisms(g: Graph, limit: int) -> list[tuple[int, ...]]:
    """Up to ``limit`` automorphisms of ``g``, each as the tuple of vertex
    images, the identity first.

    Backtracking assigns images in BFS order, so each vertex after the first
    of its component maps to a neighbor of its BFS parent's image, and only
    within its class of (degree, sorted neighbor degrees). A candidate is
    kept when it matches the adjacency to every vertex already mapped.
    """
    n, adj, degrees = g.n, g.adj, g.degrees
    cls = [(degrees[v], sorted(degrees[u] for u in iter_bits(adj[v])))
           for v in range(n)]
    same = [vertex_set(u for u in range(n) if cls[u] == cls[v])
            for v in range(n)]
    order: list[int] = []
    parent = [-1] * n
    seen = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        head = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for u in iter_bits(adj[v] & ~seen):
                seen |= 1 << u
                parent[u] = v
                order.append(u)
    image = [0] * n
    found: list[tuple[int, ...]] = []

    def extend(i: int, domain: int, taken: int) -> bool:
        if i == n:
            found.append(tuple(image))
            return len(found) >= limit
        v = order[i]
        mapped = 0
        for u in iter_bits(adj[v] & domain):
            mapped |= 1 << image[u]
        candidates = same[v] & ~taken
        if parent[v] != -1:
            candidates &= adj[image[parent[v]]]
        for w in iter_bits(candidates):
            if adj[w] & taken == mapped:
                image[v] = w
                if extend(i + 1, domain | 1 << v, taken | 1 << w):
                    return True
        return False

    extend(0, 0, 0)
    return found


def _image_tables(autos: list[tuple[int, ...]], n: int
                  ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per 8-bit chunk of a vertex set, each chunk value's images under
    ``autos``; an image of a set is the OR of its chunks' images."""
    tables = []
    for base in range(0, n, 8):
        rows: list[tuple[int, ...]] = [(0,) * len(autos)]
        for value in range(1, 1 << min(8, n - base)):
            low = value & -value
            bit = base + low.bit_length() - 1
            rows.append(tuple(rest | 1 << sigma[bit] for rest, sigma
                              in zip(rows[value ^ low], autos)))
        tables.append(tuple(rows))
    return tuple(tables)


class Solver:
    """Alpha-beta minimax with a transposition table, for one graph.

    The search runs on (unmarked set, mover) states. One table serves both
    starts: entries are keyed by ``key << 1 | dominator_to_move`` and carry
    a bound flag, so a value found under a cut window is never read back as
    exact (Knuth & Moore 1975). The key is the unmarked set itself, or the
    least image of it under up to ``2n`` automorphisms found in
    ``__init__``, so that entries are shared per automorphism orbit. The
    orbit key is kept only when ``n > 8`` (below that, one 8-bit chunk
    table of images already holds as many entries as the state space) and
    at least ``n`` automorphisms were found (a smaller group saves too few
    entries to repay the key). Before the table is probed, a non-terminal
    state whose bracket ``[1, |U|]`` lies outside the window returns the
    nearer end, ``|U|`` when ``|U| <= alpha`` or 1 when ``beta <= 1``, and
    stores nothing. The public methods take a played set and convert it to
    its unmarked set once, through ``cache``.

    :meth:`at_most` answers a yes/no question about the value with one
    null-window search (the test of MTD(f), Plaat et al. 1996): the window
    ``(k, k + 1)`` cuts every line once the answer is known, and its bound
    entries stay in the same table, so a later exact :meth:`value` reuses
    them.

    A subclass may force one side's moves by defining ``_forced_reply(U,
    last, alpha, beta)``, the moves left after the free side played
    ``last``; ``_search`` and ``_best_move`` then take it as each child's
    value, less the move just made, and the table holds free-side states
    only. ``_key_of``, when set, maps ``U`` to the table's key in place of
    ``U``, and ``_orbit_keyed = False`` turns the orbit key off.
    """

    _forced_reply = None
    _orbit_keyed = True

    def __init__(self, g: Graph):
        check_solvable(g)
        self.graph = g
        self.cache = StateCache(g)
        self._table: dict[int, tuple[int, int]] = {}
        self._hits = 0
        autos = _automorphisms(g, 2 * g.n) if g.n > 8 and self._orbit_keyed else []
        self._images = _image_tables(autos, g.n) if len(autos) >= g.n else None
        self._key_of = None if self._images is None else self._canonical

    @property
    def stats(self) -> TableStats:
        return TableStats(states=len(self._table), hits=self._hits)

    def value(self, played: int, mover: Player,
              alpha: int = -1, beta: int = _UNBOUNDED) -> int:
        """Moves remaining from this position under optimal play.

        Exact under the default window. Under a window ``(alpha, beta)`` a
        result strictly inside it is exact, one at or below ``alpha`` is an
        upper bound and one at or above ``beta`` a lower bound.
        """
        return self._search(self.cache.info(played)[0],
                            mover is Player.DOMINATOR, alpha, beta)

    def at_most(self, mover: Player, k: int) -> bool:
        """Whether the game's value with ``mover`` to start is at most ``k``.

        One search under the null window ``(k, k + 1)``. By the window
        contract of :meth:`value`, a result at or below ``k`` is an upper
        bound and one at or above ``k + 1`` a lower bound, so the answer is
        exact although the value itself may not be.
        """
        return self.value(0, mover, k, k + 1) <= k

    def _search(self, unmarked: int, dom: bool,
                alpha: int = -1, beta: int = _UNBOUNDED) -> int:
        """:meth:`value` on the unmarked set, with the same window contract."""
        if not unmarked:
            return 0
        size = unmarked.bit_count()
        if size <= alpha:
            return size
        if beta <= 1:
            return 1
        key_of = self._key_of
        key = (unmarked if key_of is None else key_of(unmarked)) << 1 | dom
        entry = self._table.get(key)
        if entry is not None:
            flag, stored = entry
            if flag == _EXACT:
                self._hits += 1
                return stored
            if flag == _LOWER:
                alpha = max(alpha, stored)
            else:
                beta = min(beta, stored)
            if alpha >= beta:
                self._hits += 1
                return stored
        alpha_in, beta_in = alpha, beta
        adj = self.graph.adj
        search = self._search
        forced = self._forced_reply
        best = None
        other = not dom
        for v in iter_bits(playable_from(self.graph, unmarked)):
            after = _step(adj, unmarked, v)
            if forced is None:
                child = 1 + search(after, other, alpha - 1, beta - 1)
            else:
                child = 1 + forced(after, v, alpha - 1, beta - 1)
            if best is None or (child < best if dom else child > best):
                best = child
                if dom:
                    beta = min(beta, best)
                else:
                    alpha = max(alpha, best)
                if alpha >= beta:
                    break
        if best <= alpha_in:
            self._table[key] = (_UPPER, best)
        elif best >= beta_in:
            self._table[key] = (_LOWER, best)
        else:
            self._table[key] = (_EXACT, best)
        return best

    def _canonical(self, unmarked: int) -> int:
        """Least image of ``unmarked`` under the automorphisms kept."""
        tables = self._images
        images = tables[0][unmarked & 255]
        for shift in range(8, self.graph.n, 8):
            images = map(or_, images, tables[shift >> 3][unmarked >> shift & 255])
        return min(images)

    def _best_move(self, unmarked: int, dom: bool) -> int:
        if not unmarked:
            raise GameStateError("no optimal move in a terminal state")
        adj = self.graph.adj
        forced = self._forced_reply
        target = self._search(unmarked, dom)
        for v in iter_bits(playable_from(self.graph, unmarked)):
            after = _step(adj, unmarked, v)
            if forced is None:
                child = self._search(after, not dom)
            else:
                child = forced(after, v, -1, _UNBOUNDED)
            if 1 + child == target:
                return v
        raise AssertionError("some child must attain the minimax value")

    def best_move(self, played: int, mover: Player) -> int:
        """Lowest-index playable vertex attaining the mover's optimum."""
        return self._best_move(self.cache.info(played)[0],
                               mover is Player.DOMINATOR)

    def game_value(self, first_mover: Player) -> GameValue:
        total = self.value(0, first_mover)
        unmarked = self.cache.info(0)[0]
        dom = first_mover is Player.DOMINATOR
        variation = []
        while unmarked:
            v = self._best_move(unmarked, dom)
            variation.append(v)
            unmarked = _step(self.graph.adj, unmarked, v)
            dom = not dom
        assert len(variation) == total
        return GameValue(total_moves=total, principal_variation=tuple(variation))


def solve(g: Graph, first_mover: Player = Player.DOMINATOR) -> GameValue:
    """Game length under optimal play: the Dominator-start value for
    ``Player.DOMINATOR``, the Staller-start value for ``Player.STALLER``."""
    return Solver(g).game_value(first_mover)


def cp_gap(g: Graph) -> int:
    """Staller-start value minus Dominator-start value (signed)."""
    solver = Solver(g)
    return solver.value(0, Player.STALLER) - solver.value(0, Player.DOMINATOR)


def solve_both(g: Graph) -> tuple[int, int]:
    """(Dominator-start value, Staller-start value) sharing one table."""
    solver = Solver(g)
    return solver.value(0, Player.DOMINATOR), solver.value(0, Player.STALLER)


__all__ = [
    "DEFAULT_SOLVER_CAP", "SOLVER_CAP_ENV", "GameValue", "TableStats",
    "StateCache", "Solver", "solve",
    "cp_gap", "solve_both", "solver_cap_from_env",
]
