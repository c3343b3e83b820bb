"""Exact game values by alpha-beta minimax over (unmarked set, mover) states.

The game's future depends only on the unmarked set ``U``: the playable
vertices are the neighbors of ``U``, the game ends when ``U`` is empty, and
playing ``w`` gives the next ``U`` from ``U`` and ``w`` alone (see
:func:`_step`). Dominator minimizes and Staller maximizes the number of
moves in the completed game. :class:`Solver` holds the search: its move
order, its table of bounds and the reductions that keep it small.
:meth:`Solver.best_move` and principal variations take the lowest-index
optimal move, so they are reproducible and do not depend on the order in
which the search tries moves.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple

from .engine import Player, check_game_domain, marked_set
from .errors import GameStateError, SolverCapError
from .graph import Graph, iter_bits, vertex_set

DEFAULT_SOLVER_CAP = 20
SOLVER_CAP_ENV = "ISOGAME_SOLVER_CAP"

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


class GameValue(NamedTuple):
    """Optimal game length and a deterministic line achieving it."""
    total_moves: int
    principal_variation: tuple[int, ...]


class TableStats(NamedTuple):
    """Transposition-table entries, and probes the table settled."""
    states: int
    hits: int


class StateCache:
    """The unmarked set of each played set, for one graph.

    A plain memo owned by the solve or simulation that creates it, so its
    marks are freed together with that owner. Its users are the
    played-set boundary of :class:`Solver` (``value``, ``best_move`` and
    ``game_value``, and the forced solver's ``value_from`` and
    ``best_move``) and :func:`strategies.simulate`; the searches
    themselves step the unmarked set with :func:`_step`.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._info: dict[int, int] = {}

    def info(self, played: int) -> int:
        unmarked = self._info.get(played)
        if unmarked is None:
            unmarked = self._info[played] = marked_set(self.graph, played).unmarked
        return unmarked

    def mark_gain(self, played: int, v: int) -> int:
        """Number of vertices newly marked by playing ``v``."""
        return self.info(played).bit_count() - self.info(played | 1 << v).bit_count()


def check_solvable(g: Graph) -> None:
    """The one solvability rule, under the solver cap read here, so every
    search honours ``ISOGAME_SOLVER_CAP``; see :func:`_check_solvable`."""
    _check_solvable(g, solver_cap_from_env())


def _check_solvable(g: Graph, cap: int) -> None:
    """The game's domain, then :func:`check_order`. A corpus run reads the
    cap once and checks each graph here."""
    check_game_domain(g)
    check_order(g.n, cap)


def check_order(n: int, cap: int) -> None:
    """At most ``cap`` vertices, and at most half the recursion limit, since
    the searches recurse once per move and a game has at most n moves (the
    other half is for the callers). It needs only the order, so a graph can
    be refused before it is built."""
    if n > cap:
        raise SolverCapError(
            f"n={n} exceeds the solver cap {cap}; "
            f"set {SOLVER_CAP_ENV} to solve it anyway")
    limit = sys.getrecursionlimit()
    if n > limit // 2:
        raise SolverCapError(
            f"n={n} exceeds {limit // 2}, half of Python's recursion limit "
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


def _ending_moves(adj: tuple[int, ...], unmarked: int) -> int:
    """The moves that mark all of the non-empty ``unmarked`` set ``U``.

    By the derivation of :func:`strategies._mark_gains`, ``w`` marks an
    unplayed ``x`` in ``U`` when ``w`` is in ``N(x)``, or is outside ``N[x]``
    and adjacent to all of ``N(x) & U``; a played ``x`` (``N(x) & U`` empty)
    only when ``w`` is in ``N(x)``. One pass intersects these sets over ``U``.
    """
    ends = -1
    rest = unmarked
    while rest and ends:
        low = rest & -rest
        rest ^= low
        near = adj[low.bit_length() - 1]
        around = near & unmarked
        isolating = ends & ~(near | low) if around else 0
        while around and isolating:
            bit = around & -around
            isolating &= adj[bit.bit_length() - 1]
            around ^= bit
        ends &= near | isolating
    return ends


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
                  ) -> tuple[tuple[int, ...], ...]:
    """Per 8-bit chunk of a vertex set of at most 64 vertices, each chunk
    value's images under ``autos`` packed into one int: the image under
    ``autos[i]`` is its field of bits ``64 i`` to ``64 i + 63``. An image
    of a set is that field of the OR of its chunks' rows."""
    packed_bit = [sum(1 << (64 * i + sigma[v]) for i, sigma in enumerate(autos))
                  for v in range(n)]
    tables = []
    for base in range(0, n, 8):
        rows = [0]
        for value in range(1, 1 << min(8, n - base)):
            low = value & -value
            rows.append(rows[value ^ low] | packed_bit[base + low.bit_length() - 1])
        tables.append(tuple(rows))
    return tuple(tables)


class Solver:
    """Alpha-beta minimax with a transposition table, for one graph.

    The search runs on (unmarked set, mover) states. One table serves both
    starts: entries are keyed by ``key << 1 | dominator_to_move`` and hold
    bounds ``1 <= low <= high <= |U|`` on the value, exact when ``low ==
    high``. Every legal move marks its unmarked witness, so a non-terminal
    value lies in ``[1, |U|]``: a state with no entry reads that bracket as
    its entry, and each store intersects the bound the search found with the
    entry it read, so a value found under a cut window is never read back as
    exact and a bound once known is kept (Knuth & Moore 1975; the two-bound
    entries of MTD(f), Plaat et al. 1996). A state whose bracket lies
    outside the window, or with ``|U| == 1``, returns before the probe and
    stores nothing; the default entry could settle no other probe, so
    :attr:`stats` counts as hits only probes that a stored entry settled.

    The key is the unmarked set itself, or the least image of it under up
    to ``2n`` automorphisms found in ``__init__``, so that entries are
    shared per automorphism orbit (Allis 1994). The orbit key is kept only
    when ``8 < n <= 64`` (below 9, one 8-bit chunk table of images already
    holds as many entries as the state space; above 64, an image does not
    fit the 64-bit field it is packed in) and at least ``n`` automorphisms
    were found (a smaller group saves too few entries to repay the key).
    When the automorphisms kept are not closed under composition (on
    Petersen and Q4, say), two images of ``U`` may get different keys, so
    an orbit can fill several entries; since every image is automorphic to
    ``U``, an entry never serves a state of another value.

    Alpha-beta cuts the most when the best child comes first, so a node
    tries its playable vertices by the unmarked neighbors each marks (a
    cheap form of the paper's greedy rule): the most first for Dominator,
    the fewest first for Staller, ties by lowest index. :meth:`best_move`
    returns the lowest-index child attaining the value, and settles each
    child with one null-window search. The public methods take a played set
    and convert it to its unmarked set once, through ``cache``.

    A subclass may force one side's moves by defining ``_forced_reply(U,
    last, alpha, beta)``, the moves left after the free side played
    ``last``; ``_search`` and ``_best_move`` then take it as each child's
    value, less the move just made, and the table holds free-side states
    only, never keyed on an orbit. The ``beta <= 2`` leaf of ``_search``
    holds there too, for either free side: a forced reply is 0 on an empty
    ``U``, and 1 under ``beta <= 1`` before its strategy is asked.
    ``_key_of``, when set, maps ``U`` to the table's key in place of ``U``.
    """

    _forced_reply = None

    def __init__(self, g: Graph):
        check_solvable(g)
        self._assign(g)

    @classmethod
    def _of_solvable(cls, g: Graph) -> Solver:
        """A solver for a graph that :func:`check_solvable` has accepted, with
        no second check; :meth:`__init__` is the checked constructor."""
        solver = cls.__new__(cls)
        solver._assign(g)
        return solver

    def _assign(self, g: Graph) -> None:
        """Set every field; both constructors end here."""
        self.graph = g
        self.cache = StateCache(g)
        self._table: dict[int, tuple[int, int]] = {}
        self._keys: dict[int, int] = {}
        self._hits = 0
        self._shift = g.n.bit_length()
        self._adj = g.adj
        # A forced strategy breaks ties by index, which an automorphism does not preserve.
        autos = (_automorphisms(g, 2 * g.n)
                 if 8 < g.n <= 64 and self._forced_reply is None else [])
        self._images = _image_tables(autos, g.n) if len(autos) >= g.n else None
        self._packed_bytes = 8 * len(autos)
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
        return self._search(self.cache.info(played),
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
        if beta <= 1 or size == 1:
            return 1
        key_of = self._key_of
        key = (unmarked if key_of is None else key_of(unmarked)) << 1 | dom
        low, high = self._table.get(key, (1, size))
        if low >= beta or high <= alpha or low == high:
            self._hits += 1
            return low if low >= beta else high
        if low > alpha:
            alpha = low
        if high < beta:
            beta = high
        alpha_in, beta_in = alpha, beta
        adj = self._adj
        if beta <= 2:
            # The window asks only whether the value is 1, so this node
            # (every node with |U| == 2 among them) is a leaf that stores 1
            # or the lower bound 2, as its children would say no more.
            # Dominator may end the game in one move. Staller never can at
            # |U| >= 2, for some Staller move leaves U non-empty: a playable
            # vertex of U stays unmarked when played, and if U holds no edge,
            # its vertices are played ones not yet covered, two of which
            # differ in their neighbors (the later was playable after the
            # earlier marked its neighbors), so a neighbor of one of them
            # misses the other.
            best = 1 if dom and _ending_moves(adj, unmarked) else 2
        else:
            search = self._search
            forced = self._forced_reply
            shift = self._shift
            mask = (1 << shift) - 1
            flip = mask if dom else 0
            codes = [marks.bit_count() << shift | (w ^ flip)
                     for w, near in enumerate(adj) if (marks := near & unmarked)]
            codes.sort(reverse=dom)
            best = _UNBOUNDED if dom else 0
            other = not dom
            for code in codes:
                v = (code & mask) ^ flip
                after = _step(adj, unmarked, v)
                if forced is None:
                    child = 1 + search(after, other, alpha - 1, beta - 1)
                else:
                    child = 1 + forced(after, v, alpha - 1, beta - 1)
                if dom:
                    if child < best:
                        best = child
                        if best < beta:
                            beta = best
                        if alpha >= beta:
                            break
                elif child > best:
                    best = child
                    if best > alpha:
                        alpha = best
                    if alpha >= beta:
                        break
        self._table[key] = (best if best > alpha_in else low,
                            best if best < beta_in else high)
        return best

    def _canonical(self, unmarked: int) -> int:
        """Least image of ``unmarked`` under the automorphisms kept: the
        least 64-bit field of the OR of its chunks' packed rows, computed
        once per distinct ``unmarked`` and memoized."""
        key = self._keys.get(unmarked)
        if key is None:
            tables = self._images
            packed = tables[0][unmarked & 255]
            for shift in range(8, self.graph.n, 8):
                packed |= tables[shift >> 3][unmarked >> shift & 255]
            key = self._keys[unmarked] = min(memoryview(
                packed.to_bytes(self._packed_bytes, sys.byteorder)).cast("Q"))
        return key

    def _best_move(self, unmarked: int, dom: bool) -> int:
        if not unmarked:
            raise GameStateError("no optimal move in a terminal state")
        adj = self._adj
        forced = self._forced_reply
        # A child attains the value iff it is worth ``need``, and every
        # child lies on one side of it, so a null window settles each.
        need = self._search(unmarked, dom) - 1
        alpha, beta = (need, need + 1) if dom else (need - 1, need)
        for v, near in enumerate(adj):
            if not near & unmarked:
                continue
            after = _step(adj, unmarked, v)
            if forced is None:
                child = self._search(after, not dom, alpha, beta)
            else:
                child = forced(after, v, alpha, beta)
            if child <= alpha if dom else child >= beta:
                return v
        raise AssertionError("some child must attain the minimax value")

    def best_move(self, played: int, mover: Player) -> int:
        """Lowest-index playable vertex attaining the mover's optimum."""
        return self._best_move(self.cache.info(played),
                               mover is Player.DOMINATOR)

    def game_value(self, first_mover: Player) -> GameValue:
        total = self.value(0, first_mover)
        unmarked = self.cache.info(0)
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
    igt, igts = solve_both(g)
    return igts - igt


def solve_both(g: Graph) -> tuple[int, int]:
    """(Dominator-start value, Staller-start value) sharing one table."""
    solver = Solver(g)
    return solver.value(0, Player.DOMINATOR), solver.value(0, Player.STALLER)


__all__ = [
    "DEFAULT_SOLVER_CAP", "SOLVER_CAP_ENV", "GameValue", "TableStats",
    "StateCache", "Solver", "solve",
    "cp_gap", "solve_both", "solver_cap_from_env",
]
