"""Slow reference implementations used only to check the fast paths.

Everything here re-derives the rules from scratch on plain Python sets:
legality comes straight from the two-clause selection rule (a move must
totally dominate either a vertex of a nontrivial surviving component, or a
played vertex left isolated after deleting the played neighborhood), and
the solvers recurse without any memoization. None of it shares code with
the bitmask engine, which is the point. :func:`brute_forced_value` hands
a strategy the unmarked set that :func:`marked_vertices` derives, and
judges its move by :func:`legal_moves`. :func:`distances` and
:func:`distance` read the graph's breadth-first levels instead, which the
tests check against a vertex-queue search.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from .engine import Player
from .errors import GraphDomainError, ProtocolViolationError, SolverCapError
from .graph import Graph, iter_bits

if TYPE_CHECKING:
    from .strategies import Strategy

BRUTE_SOLVE_CAP = 12
SUBSET_SEARCH_CAP = 24


def _neighborhood(g: Graph, played: set[int]) -> set[int]:
    out: set[int] = set()
    for v in played:
        out.update(g.neighbors(v))
    return out


def _surviving_components(g: Graph, removed: set[int]) -> list[set[int]]:
    """Connected components of the graph after deleting ``removed``."""
    alive = [v for v in range(g.n) if v not in removed]
    seen: set[int] = set()
    comps = []
    for start in alive:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in removed and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def legal_moves(g: Graph, played: set[int]) -> list[int]:
    """Playable vertices straight from the two-clause selection rule."""
    covered = _neighborhood(g, played)
    comp_of: dict[int, int] = {}
    sizes: list[int] = []
    for comp in _surviving_components(g, covered):
        for v in comp:
            comp_of[v] = len(sizes)
        sizes.append(len(comp))
    moves = []
    for v in range(g.n):
        for u in g.neighbors(v):
            if u in covered:
                continue
            if sizes[comp_of[u]] >= 2:
                moves.append(v)
                break
            if u in played:
                # u survives alone after the deletion, i.e. is isolated there.
                moves.append(v)
                break
    return moves


def marked_vertices(g: Graph, played: set[int]) -> set[int]:
    """The marked set, re-derived on plain sets."""
    covered = _neighborhood(g, played)
    marked = set(covered)
    for comp in _surviving_components(g, covered):
        if len(comp) == 1:
            (v,) = comp
            if v not in played:
                marked.add(v)
    return marked


def brute_solve_from(g: Graph, played: set[int], mover: Player) -> int:
    """Memo-free minimax over legal move sequences from a given position."""
    moves = legal_moves(g, played)
    if not moves:
        return 0
    best = None
    for v in moves:
        child = 1 + brute_solve_from(g, played | {v}, mover.other)
        if best is None:
            best = child
        elif mover is Player.DOMINATOR:
            best = min(best, child)
        else:
            best = max(best, child)
    return best


def _check_brute_domain(g: Graph) -> None:
    if g.n > BRUTE_SOLVE_CAP:
        raise SolverCapError(
            f"brute-force solver caps at n={BRUTE_SOLVE_CAP}, got n={g.n}")
    if g.n < 2 or g.min_degree == 0:
        raise GraphDomainError("game values need an isolate-free graph with n >= 2")


def brute_solve(g: Graph, first_mover: Player) -> int:
    _check_brute_domain(g)
    return brute_solve_from(g, set(), first_mover)


def brute_forced_value(g: Graph, strategy: Strategy, fixed_role: Player,
                       first_mover: Player = Player.DOMINATOR,
                       history: tuple[int, ...] = ()) -> int:
    """Memo-free game length with ``fixed_role`` forced to ``strategy``,
    counted from the position the legal move sequence ``history`` reaches
    (by default the empty one).

    The free side ranges over :func:`legal_moves` to its own objective
    (Dominator minimizes, Staller maximizes); the forced side plays
    ``strategy.choose`` on the unmarked set from :func:`marked_vertices`,
    with the last move of the history, and a move outside
    :func:`legal_moves` raises :class:`ProtocolViolationError`.
    """
    _check_brute_domain(g)

    def value(history: tuple[int, ...], mover: Player) -> int:
        played = set(history)
        moves = legal_moves(g, played)
        if not moves:
            return 0
        if mover is fixed_role:
            marked = marked_vertices(g, played)
            unmarked = sum(1 << u for u in range(g.n) if u not in marked)
            last = history[-1] if history else None
            v = strategy.choose(g, unmarked, mover, last, sum(1 << u for u in played))
            if v not in moves:
                reason = "already-played" if v in played else "not-playable"
                raise ProtocolViolationError(strategy.name, v, reason)
            return 1 + value(history + (v,), mover.other)
        children = [1 + value(history + (v,), mover.other) for v in moves]
        return min(children) if mover is Player.DOMINATOR else max(children)

    history = tuple(history)
    return value(history, first_mover if len(history) % 2 == 0 else first_mover.other)


def distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs distances read off the breadth-first levels that
    ``Graph.components`` is built from; unreachable pairs get -1."""
    rows = []
    for s in range(g.n):
        dist = [-1] * g.n
        for d, level in enumerate(g._levels(s)):
            for w in iter_bits(level):
                dist[w] = d
        rows.append(tuple(dist))
    return tuple(rows)


def distance(g: Graph, u: int, v: int) -> int:
    """The distance from ``u`` to ``v`` by the levels from ``u``; -1 when
    ``v`` is unreachable."""
    g._check_vertex(u)
    g._check_vertex(v)
    for d, level in enumerate(g._levels(u)):
        if level >> v & 1:
            return d
    return -1


def _is_isolating(g: Graph, members: set[int]) -> bool:
    closed = _neighborhood(g, members) | members
    rest = [v for v in range(g.n) if v not in closed]
    rest_set = set(rest)
    return all(not (set(g.neighbors(v)) & rest_set) for v in rest)


def _is_total_isolating(g: Graph, members: set[int]) -> bool:
    if not _is_isolating(g, members):
        return False
    return all(set(g.neighbors(v)) & members for v in members)


def iota(g: Graph) -> int:
    """Minimum isolating set size by increasing-cardinality subset search."""
    if g.n > SUBSET_SEARCH_CAP:
        raise SolverCapError(f"subset search caps at n={SUBSET_SEARCH_CAP}, got n={g.n}")
    for k in range(g.n + 1):
        for members in combinations(range(g.n), k):
            if _is_isolating(g, set(members)):
                return k
    raise AssertionError("the full vertex set always isolates")


def iota_t(g: Graph) -> int:
    """Minimum total isolating set size; rejects graphs with isolates."""
    if g.n > SUBSET_SEARCH_CAP:
        raise SolverCapError(f"subset search caps at n={SUBSET_SEARCH_CAP}, got n={g.n}")
    if g.n == 0 or g.min_degree == 0:
        raise GraphDomainError("total isolating sets need an isolate-free graph")
    for k in range(g.n + 1):
        for members in combinations(range(g.n), k):
            if _is_total_isolating(g, set(members)):
                return k
    raise AssertionError("the full vertex set of an isolate-free graph is total isolating")
