"""Exact solver: point values, principal variations, interval table,
window contract, orbit-keyed table, oracle parity."""

import gc
import random
import weakref
from pathlib import Path

import pytest

from isogame import oracles
from isogame.engine import Player, marked_set, new_game, replay
from isogame.errors import GameStateError, GraphDomainError, SolverCapError
from isogame.families import (complete, cycle, from_shorthand, path,
                              random_connected)
from isogame import lab, strategies
from isogame.graph import Graph, open_neighborhood, vertex_set, vertices_of
from isogame.graph6 import parse_graph6
from isogame.solver import (Solver, _automorphisms, _ending_moves,
                            _image_tables, _step, cp_gap, solve, solve_both,
                            solver_cap_from_env)

from conftest import petersen

P5 = path(5)


@pytest.mark.parametrize("graph, dominator_start, staller_start", [
    (path(5), 2, 4),
    (cycle(4), 2, 2),
    (cycle(5), 3, 2),
    (complete(3), 2, 2),
    (complete(4), 2, 2),
    (complete(5), 2, 2),
    (complete(6), 2, 2),
    (complete(7), 2, 2),
    (complete(8), 2, 2),
])
def test_point_values(graph, dominator_start, staller_start):
    assert solve(graph, Player.DOMINATOR).total_moves == dominator_start
    assert solve(graph, Player.STALLER).total_moves == staller_start


def test_c6_dominator_start_is_4():
    assert solve(cycle(6)).total_moves == 4


def test_optimal_move_examples():
    solver = Solver(P5)
    assert solver.best_move(0, Player.DOMINATOR) == 2       # the center
    after_center = new_game(P5).play(2)
    # both neighbors work; lowest index
    assert solver.best_move(after_center.played, after_center.mover) == 1
    terminal = replay(P5, [2, 1])
    with pytest.raises(GameStateError):
        solver.best_move(terminal.played, terminal.mover)


def test_cp_gap_examples():
    assert cp_gap(P5) == 2
    assert cp_gap(complete(5)) == 0
    assert cp_gap(cycle(5)) == -1


def _lowest_index_optimal_line(g, first):
    """The line that takes, at each step, the lowest-index legal move
    attaining the mover's optimum, by the memo-free oracle."""
    played, mover, line = set(), first, []
    while moves := oracles.legal_moves(g, played):
        values = {v: oracles.brute_solve_from(g, played | {v}, mover.other)
                  for v in moves}
        best = (min if mover is Player.DOMINATOR else max)(values.values())
        v = min(v for v in moves if values[v] == best)
        line.append(v)
        played.add(v)
        mover = mover.other
    return tuple(line)


def test_principal_variation_replays_to_terminal(small_connected):
    """Every principal variation replays to a terminal state, and on the
    corpus graphs of order at most 6 it is the oracle's lowest-index
    optimal line, although the search orders its children otherwise."""
    for g in (P5, cycle(6), complete(4), random_connected(9, 0.4, 1, seed=2)):
        for first in (Player.DOMINATOR, Player.STALLER):
            value = solve(g, first)
            state = replay(g, value.principal_variation, first)
            assert state.is_terminal()
            assert len(value.principal_variation) == value.total_moves
    assert len(small_connected) == 141
    for g in small_connected:
        for first in (Player.DOMINATOR, Player.STALLER):
            assert (solve(g, first).principal_variation
                    == _lowest_index_optimal_line(g, first)), (g, first)


PINNED_LINES = {
    ("C18", Player.DOMINATOR): (0, 2, 1, 3, 7, 6, 11, 17, 10, 12, 13),
    ("C18", Player.STALLER): (0, 1, 2, 5, 4, 8, 7, 12, 11, 14, 13),
    ("C20", Player.DOMINATOR): (0, 1, 4, 3, 7, 6, 10, 9, 14, 13, 16, 15),
    ("C20", Player.STALLER): (0, 1, 2, 6, 8, 7, 9, 13, 19, 12, 14, 15),
    ("P18", Player.DOMINATOR): (2, 17, 3, 4, 7, 6, 10, 9, 13, 12, 16),
    ("1", Player.DOMINATOR): (0, 1, 3, 2, 4, 10),
    ("1", Player.STALLER): (7, 0, 9, 1, 13, 10, 12),
    ("2", Player.DOMINATOR): (1, 0, 3, 2, 4, 6),
    ("2", Player.STALLER): (0, 1, 2, 3, 4, 6),
    ("3", Player.DOMINATOR): (3, 0, 1, 8, 2, 5, 9),
    ("3", Player.STALLER): (17, 0, 2, 1, 13, 3, 5, 9),
    ("4", Player.DOMINATOR): (4, 0, 11, 14, 1, 7),
    ("4", Player.STALLER): (1, 11, 2, 10, 0, 5),
}


def test_principal_variations_past_the_oracle_are_pinned():
    """Lowest-index principal variations on graphs too large for the
    oracle: C18, C20 and P18, and the four relabelled random graphs of
    ``perfbench/expected/random.txt`` (numbered there) at their pinned
    values."""
    pinned = Path(__file__).parents[1] / "perfbench" / "expected" / "random.txt"
    rows = [line.split() for line in pinned.read_text().splitlines() if line.strip()]
    graphs = {"C18": cycle(18), "C20": cycle(20), "P18": path(18)}
    values = {}
    for name, text, igt, igts in rows:
        graphs[name] = parse_graph6(text)
        values[name, Player.DOMINATOR] = int(igt)
        values[name, Player.STALLER] = int(igts)
    assert len(graphs) == 7
    for (name, first), line in PINNED_LINES.items():
        value = solve(graphs[name], first)
        assert value.principal_variation == line, (name, first)
        assert value.total_moves == values.get((name, first), len(line))


def test_children_are_searched_by_unmarked_neighbors(monkeypatch):
    """Dominator tries the child marking the most first and Staller the
    fewest, so the C18 Dominator value takes at most 5500 nodes, where
    lowest-index order takes 10969."""
    calls = 0
    search = Solver._search

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return search(self, *args)

    monkeypatch.setattr(Solver, "_search", counted)
    assert Solver(cycle(18)).value(0, Player.DOMINATOR) == 11
    assert calls <= 5500


@pytest.mark.parametrize("n", [3, 8, 15, 16, 17, 20])
def test_children_are_stepped_by_marks_then_index(n, monkeypatch):
    """One expansion steps its children by ``|U & N(w)|``, the most first
    for Dominator and the fewest first for Staller, ties to the lowest
    index, on orders on either side of a power of two, where the width of
    the index in the sort key grows. ``U`` is reached by one move, so the
    marks differ from the degrees, and no child of it cuts the expansion
    short, so every playable vertex is stepped."""
    g = random_connected(n, 0.2, 1, seed=n)
    unmarked = g.full_mask
    if n > 3:
        w = random.Random(n).choice(vertices_of(g.full_mask))
        unmarked = _step(g.adj, unmarked, w)
    playable = vertices_of(open_neighborhood(g, unmarked))
    marks = {w: (unmarked & g.adj[w]).bit_count() for w in playable}
    for dom in (True, False):
        stepped = []

        def recording(adj, before, w):
            if before == unmarked:
                stepped.append(w)
            return _step(adj, before, w)

        monkeypatch.setattr("isogame.solver._step", recording)
        Solver(g)._search(unmarked, dom)
        assert stepped == sorted(playable, key=lambda w: (-marks[w] if dom else marks[w], w))


def test_value_at_least_two():
    rng = random.Random(3)
    for _ in range(50):
        g = random_connected(rng.randint(2, 9), 0.5, 1, seed=rng.random())
        assert solve(g).total_moves >= 2
        assert solve(g, Player.STALLER).total_moves >= 2


def test_matches_brute_oracle_small(small_connected):
    for g in small_connected:
        solver = Solver(g)
        for mover in (Player.DOMINATOR, Player.STALLER):
            assert solver.value(0, mover) == oracles.brute_solve(g, mover)


def _played_set_reaching(g):
    """Each unmarked set the game can reach, mapped to a played set that
    reaches it, both found by the oracles alone (legal moves from the empty
    set, marks re-derived on plain sets)."""
    reaching = {}
    frontier = [0]
    seen = {0}
    while frontier:
        played = frontier.pop()
        as_set = set(vertices_of(played))
        unmarked = g.full_mask & ~vertex_set(oracles.marked_vertices(g, as_set))
        reaching.setdefault(unmarked, played)
        for v in oracles.legal_moves(g, as_set):
            child = played | 1 << v
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return reaching


def _entries_by_kind(entries):
    """Table items grouped by kind. Every entry lies in the bracket,
    ``1 <= low <= high <= |U|`` (an orbit key is an image of ``U``, so it
    has ``|U|`` members too). An exact entry has ``low == high``, a
    lower-bound entry ``high == |U|``, an upper-bound entry ``low == 1``,
    and a two-sided entry tightens both ends."""
    by_kind = {"exact": [], "lower": [], "upper": [], "two-sided": []}
    for key, (low, high) in entries:
        size = (key >> 1).bit_count()
        assert 1 <= low <= high <= size, (key, low, high)
        if low == high:
            kind = "exact"
        elif high == size:
            kind = "lower"
        elif low == 1:
            kind = "upper"
        else:
            kind = "two-sided"
        by_kind[kind].append((key, low, high))
    return by_kind


def test_table_entries_match_memo_free_values():
    """Every kind of table entry, exact or a bound stored under a cut
    window, holds for the oracle's exact value at a played set reaching its
    unmarked set, and reads back through ``value`` as that exact value."""
    rng = random.Random(5)  # the graphs only, so entry counts cannot move them
    samples = random.Random(6)
    seen = set()
    for _ in range(20):
        g = random_connected(rng.randint(3, 7), 0.5, 1, seed=rng.random())
        reaching = _played_set_reaching(g)
        solver = Solver(g)
        solver.game_value(Player.DOMINATOR)
        solver.game_value(Player.STALLER)
        assert {key >> 1 for key in solver._table} <= set(reaching)
        by_kind = _entries_by_kind(sorted(solver._table.items()))
        for kind, entries in by_kind.items():
            if entries:
                seen.add(kind)
            for key, low, high in samples.sample(entries, min(5, len(entries))):
                unmarked, dominator_to_move = key >> 1, key & 1
                mover = Player.DOMINATOR if dominator_to_move else Player.STALLER
                played = reaching[unmarked]
                exact = oracles.brute_solve_from(g, set(vertices_of(played)), mover)
                assert low <= exact <= high
                assert solver.value(played, mover) == exact
    assert {"exact", "lower", "upper"} <= seen


@pytest.mark.parametrize("spec", [
    (6, 0.4, 1), (9, 0.3, 2), (10, 0.5, 3), (12, 0.2, 4),
    "C3", "C7", "C12", "P3+C3+P6+C6", "P3+P3+C6+C6",
], ids=str)
def test_step_matches_marked_set_along_random_playouts(spec):
    """From an unmarked set, the step by a playable ``w`` gives the unmarked
    set of the played set plus ``w``, by the engine and by the oracle."""
    if isinstance(spec, str):
        g = from_shorthand(spec)
    else:
        n, p, seed = spec
        g = random_connected(n, p, 1, seed=seed)
    rng = random.Random(g.n * 1000 + g.m)
    for _ in range(30):
        played, unmarked = 0, g.full_mask
        while unmarked:
            playable = open_neighborhood(g, unmarked)
            assert playable == vertex_set(
                oracles.legal_moves(g, set(vertices_of(played))))
            w = rng.choice(vertices_of(playable))
            played |= 1 << w
            unmarked = _step(g.adj, unmarked, w)
            assert unmarked == marked_set(g, played).unmarked
            assert unmarked == g.full_mask & ~vertex_set(
                oracles.marked_vertices(g, set(vertices_of(played))))


def _reachable_unmarked_sets(g):
    """Every non-empty unmarked set the game can reach, by stepping."""
    seen, frontier = {g.full_mask}, [g.full_mask]
    while frontier:
        unmarked = frontier.pop()
        for w in vertices_of(open_neighborhood(g, unmarked)):
            after = _step(g.adj, unmarked, w)
            if after and after not in seen:
                seen.add(after)
                frontier.append(after)
    return seen


def _check_ending_moves(g, unmarked):
    """``_ending_moves`` is the set of playable moves that step ``U`` to the
    empty set, and it is non-empty exactly when the greedy gain reaches
    ``|U|``, when it equals the greedy maximizers."""
    ends = _ending_moves(g.adj, unmarked)
    assert ends == vertex_set(w for w in vertices_of(open_neighborhood(g, unmarked))
                              if _step(g.adj, unmarked, w) == 0)
    gain, maximizers = strategies._mark_gains(g, unmarked)
    assert bool(ends) == (gain == unmarked.bit_count())
    if ends:
        assert ends == vertex_set(maximizers)


def test_ending_moves_match_the_step_on_every_reachable_set(small_connected):
    for g in small_connected:
        for unmarked in _reachable_unmarked_sets(g):
            _check_ending_moves(g, unmarked)


def test_ending_moves_match_the_step_along_random_playouts():
    g = random_connected(18, 0.2, 2, seed=26)
    rng = random.Random(26)
    for _ in range(40):
        unmarked = g.full_mask
        while unmarked:
            _check_ending_moves(g, unmarked)
            unmarked = _step(g.adj, unmarked,
                             rng.choice(vertices_of(open_neighborhood(g, unmarked))))


def test_dominator_window_at_most_one_steps_no_child(small_connected, monkeypatch):
    """Under the window ``(0, 2)`` a Dominator node with ``|U| >= 3`` asks
    only whether one move ends the game: it steps no child, and its result
    is the exact value 1 or a lower bound 2, as the oracle says. The forced
    search with a free Dominator cuts the same way."""
    stepped = []

    def recording(adj, before, w):
        stepped.append(w)
        return _step(adj, before, w)

    rng = random.Random(27)
    for g in rng.sample(small_connected, 30):
        reaching = _played_set_reaching(g)
        monkeypatch.setattr("isogame.solver._step", recording)
        results = {unmarked: Solver(g)._search(unmarked, True, 0, 2)
                   for unmarked in reaching if unmarked.bit_count() >= 3}
        forced = strategies.ForcedGameSolver(g, strategies.RandomStrategy(1),
                                             Player.STALLER)
        forced_root = forced.value(0, Player.DOMINATOR, 0, 2)
        monkeypatch.setattr("isogame.solver._step", _step)
        assert stepped == []
        for unmarked, got in results.items():
            exact = oracles.brute_solve_from(
                g, set(vertices_of(reaching[unmarked])), Player.DOMINATOR)
            assert got == min(exact, 2)
        exact = oracles.brute_forced_value(g, strategies.RandomStrategy(1),
                                           Player.STALLER)
        assert forced_root == min(exact, 2)


def test_staller_window_at_most_one_steps_no_child(small_connected, monkeypatch):
    """Under the window ``(0, 2)`` a Staller node with ``|U| >= 3`` asks
    only whether every move ends the game: it steps no child, and its
    result is the exact value 1 or a lower bound 2, as the oracle says. The
    forced search with a free Staller cuts the same way."""
    stepped = []

    def recording(adj, before, w):
        stepped.append(w)
        return _step(adj, before, w)

    rng = random.Random(28)
    for g in rng.sample(small_connected, 30):
        reaching = _played_set_reaching(g)
        monkeypatch.setattr("isogame.solver._step", recording)
        results = {unmarked: Solver(g)._search(unmarked, False, 0, 2)
                   for unmarked in reaching if unmarked.bit_count() >= 3}
        forced = strategies.ForcedGameSolver(g, strategies.GreedyDominator(),
                                             Player.DOMINATOR)
        forced_root = forced.value(0, Player.STALLER, 0, 2)
        monkeypatch.setattr("isogame.solver._step", _step)
        assert stepped == []
        for unmarked, got in results.items():
            exact = oracles.brute_solve_from(
                g, set(vertices_of(reaching[unmarked])), Player.STALLER)
            assert got == min(exact, 2)
        exact = oracles.brute_forced_value(g, strategies.GreedyDominator(),
                                           Player.DOMINATOR, Player.STALLER)
        assert forced_root == min(exact, 2)


def _every_move_ends(g, unmarked):
    return all(_step(g.adj, unmarked, w) == 0
               for w in vertices_of(open_neighborhood(g, unmarked)))


def test_no_move_empties_two_or_more_so_the_staller_leaf_is_two(small_connected):
    """At every reachable set with ``|U| >= 2``, some playable vertex leaves
    ``U`` non-empty when stepped, so Staller's value there is at least 2 and
    the leaf answers the lower bound 2 without a pass, in ``Solver`` and in
    the forced search with greedy forcing Dominator. The reason: a playable
    vertex of ``U`` stays unmarked when played, and two played vertices left
    in ``U`` differ in their neighbors, since the second was playable after
    the first was played. The same holds along random playouts of a larger
    graph."""
    for g in small_connected:
        solver = Solver(g)
        forced = strategies.ForcedGameSolver(g, strategies.GreedyDominator(),
                                             Player.DOMINATOR)
        for unmarked in _reachable_unmarked_sets(g):
            if unmarked.bit_count() >= 2:
                assert not _every_move_ends(g, unmarked)
                assert solver._search(unmarked, False, 0, 2) == 2
                assert forced._search(unmarked, False, 0, 2) == 2
    g = random_connected(18, 0.2, 2, seed=28)
    rng = random.Random(28)
    for _ in range(40):
        unmarked = g.full_mask
        while unmarked.bit_count() >= 2:
            assert not _every_move_ends(g, unmarked)
            unmarked = _step(g.adj, unmarked,
                             rng.choice(vertices_of(open_neighborhood(g, unmarked))))


def test_c18_table_holds_one_entry_per_unmarked_state():
    """Played sets that reach the same unmarked set share an entry, and so
    do rotations and reflections of it: C18's two starts fill 159530
    entries keyed on the played set and 19796 keyed on the unmarked set.
    Each start's ``game_value`` fills a pinned number of entries, so a key
    that merges or splits orbits fails here."""
    solver = Solver(cycle(18))
    assert solver.value(0, Player.DOMINATOR) == 11
    assert solver.value(0, Player.STALLER) == 11
    assert solver.stats.states <= 19796 // 10
    for first, states in ((Player.DOMINATOR, 932), (Player.STALLER, 1006)):
        single = Solver(cycle(18))
        single.game_value(first)
        assert single.stats.states == states


@pytest.mark.parametrize("text, first, pinned", [
    pytest.param(text, first, pinned, id=f"{text}-{first.name.lower()}")
    for text, first, pinned in (
        ("C18", Player.DOMINATOR, (932, 2485, 205, 482, 189, 56)),
        ("C18", Player.STALLER, (1006, 2589, 173, 724, 69, 40)),
        ("P12", Player.DOMINATOR, (442, 426, 101, 291, 34, 16)),
        ("P12", Player.STALLER, (468, 372, 120, 237, 103, 8)),
        ("C6+C6+C6", Player.DOMINATOR, (1952, 4772, 560, 813, 572, 7)),
        ("C6+C6+C6", Player.STALLER, (749, 2357, 291, 152, 305, 1)),
    )
])
def test_game_value_fills_pinned_entries_of_each_kind(text, first, pinned):
    """``game_value`` from a fresh table stores a pinned number of entries,
    table hits, and exact, lower-bound, upper-bound and two-sided entries,
    so a change to how entries are probed or stored shows here."""
    solver = Solver(from_shorthand(text))
    solver.game_value(first)
    by_kind = _entries_by_kind(solver._table.items())
    assert (solver.stats.states, solver.stats.hits,
            *map(len, by_kind.values())) == pinned


def test_value_honours_every_window():
    """Under any window a result inside it is exact, one at or below alpha
    an upper bound and one at or above beta a lower bound, from a fresh
    table and from one shared with every earlier window."""
    rng = random.Random(17)
    for _ in range(6):
        g = random_connected(rng.randint(3, 7), 0.5, 1, seed=rng.random())
        reaching = sorted(_played_set_reaching(g).values())
        shared = Solver(g)
        for played in rng.sample(reaching, min(4, len(reaching))):
            for mover in (Player.DOMINATOR, Player.STALLER):
                exact = oracles.brute_solve_from(g, set(vertices_of(played)), mover)
                for alpha in range(-1, g.n + 1):
                    for beta in range(alpha + 1, g.n + 2):
                        for solver in (shared, Solver(g)):
                            got = solver.value(played, mover, alpha, beta)
                            if got <= alpha:
                                assert exact <= got
                            elif got >= beta:
                                assert exact >= got
                            else:
                                assert got == exact


def _cube(d):
    return Graph(1 << d, [(a, a ^ 1 << b) for a in range(1 << d)
                          for b in range(d) if a < a ^ 1 << b])


def _paley17():
    residues = {x * x % 17 for x in range(1, 17)}
    return Graph(17, [(a, b) for a in range(17) for b in range(a + 1, 17)
                      if (b - a) % 17 in residues])


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _image(sigma, mask):
    return vertex_set(sigma[v] for v in vertices_of(mask))


def _fields(row, count):
    """The ``count`` 64-bit fields of a packed row of image tables, which
    holds no bit beyond them."""
    assert row >> 64 * count == 0
    return [row >> 64 * i & (1 << 64) - 1 for i in range(count)]


def _replays_under_the_oracle(g, moves):
    played = set()
    for v in moves:
        assert v in oracles.legal_moves(g, played)
        played.add(v)
    return not oracles.legal_moves(g, played)


SYMMETRIC = {
    **{f"C{k}": cycle(k) for k in range(9, 13)},
    "Petersen": petersen(),
    "Q4": _cube(4),
    "C6+C6": from_shorthand("C6+C6"),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_canonical_key_is_invariant_under_the_automorphisms_found(name):
    """The key of ``U`` is its least image under the automorphisms found,
    so it merges only automorphic states. Where the found set is closed
    under composition, as a cycle's whole dihedral group is, every image of
    ``U`` has the same key; the 2n found on Petersen (120 automorphisms) or
    Q4 (384) need not be. Relabelled copies solve to the same values along
    lines the oracle accepts."""
    base = SYMMETRIC[name]
    values = solve_both(base)
    for seed in (None, 1, 2):
        g = base if seed is None else _relabelled(base, seed)
        solver = Solver(g)
        autos = _automorphisms(g, 2 * g.n)
        assert solver._images is not None and autos[0] == tuple(range(g.n))
        edges = {frozenset(e) for e in g.edges}
        for sigma in autos:
            assert sorted(sigma) == list(range(g.n))
            assert {frozenset((sigma[u], sigma[v])) for u, v in g.edges} == edges
        group = {tuple(s[t[v]] for v in range(g.n))
                 for s in autos for t in autos} == set(autos)
        assert len(autos) == 2 * g.n
        assert group or name in ("Petersen", "Q4")
        rng = random.Random(g.n)
        for _ in range(10):
            unmarked = g.full_mask
            while unmarked:
                key = solver._canonical(unmarked)
                assert key == min(_image(sigma, unmarked) for sigma in autos)
                if group:
                    for sigma in autos:
                        assert solver._canonical(_image(sigma, unmarked)) == key
                w = rng.choice(vertices_of(open_neighborhood(g, unmarked)))
                unmarked = _step(g.adj, unmarked, w)
        for first, value in zip((Player.DOMINATOR, Player.STALLER), values):
            line = solver.game_value(first)
            assert line.total_moves == value
            assert _replays_under_the_oracle(g, line.principal_variation)
        assert {key >> 1 for key in solver._table} <= set(solver._keys.values())
        for unmarked, key in solver._keys.items():
            assert key == min(_image(sigma, unmarked) for sigma in autos)
            assert solver._canonical(unmarked) == key
        other = Solver(g)
        assert other._keys == {} and other._keys is not solver._keys


@pytest.mark.parametrize("name", ["C9", "C10", "C11", "C12", "Petersen", "Q4"])
def test_image_tables_hold_each_chunk_value_image(name):
    """Row ``value`` of the chunk at ``base`` holds, in its 64-bit field
    ``i``, the image of the set ``value << base`` under ``autos[i]``."""
    g = SYMMETRIC[name]
    autos = _automorphisms(g, 2 * g.n)
    tables = _image_tables(autos, g.n)
    assert len(tables) == (g.n + 7) // 8
    for chunk, rows in enumerate(tables):
        base = 8 * chunk
        assert len(rows) == 1 << min(8, g.n - base)
        for value, row in enumerate(rows):
            assert _fields(row, len(autos)) == [
                _image(sigma, value << base) for sigma in autos]


def test_symmetry_is_kept_past_8_vertices_with_n_automorphisms(corpus_graphs):
    """A graph keys on orbits only when n > 8 and at least n automorphisms
    are found; the search stops at 2n, and finds a whole group uncapped."""
    small = corpus_graphs + [cycle(k) for k in range(3, 9)] + [_cube(3)]
    assert all(Solver(g)._images is None for g in small)
    pinned = Path(__file__).parents[1] / "perfbench" / "expected" / "random.txt"
    rows = [line.split() for line in pinned.read_text().splitlines() if line.strip()]
    assert len(rows) == 4
    for _, text, *_ in rows:
        g = parse_graph6(text)
        assert g.n > 8 and Solver(g)._images is None
    for n in range(9, 21):
        rows = Solver(cycle(n))._images[0]
        assert all(row >> 64 * 2 * n == 0 for row in rows)
        assert all(_fields(rows[1], 2 * n))
    paley = _paley17()
    autos = _automorphisms(paley, 10 ** 6)
    assert len(set(autos)) == 136
    edges = {frozenset(e) for e in paley.edges}
    assert all({frozenset((s[u], s[v])) for u, v in paley.edges} == edges
               for s in autos)


def test_orbit_key_stops_at_64_vertices(monkeypatch):
    """An image fills one 64-bit field, so the orbit key is kept up to 64
    vertices, where the top field's top bit is in use, and not past them."""
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "65")
    assert Solver(cycle(65))._images is None
    g = cycle(64)
    solver = Solver(g)
    autos = _automorphisms(g, 2 * g.n)
    assert solver._images is not None and len(autos) == 128
    for unmarked in (1 << 63, g.full_mask ^ 1, 0b1011 << 60 | 1):
        assert solver._canonical(unmarked) == min(_image(sigma, unmarked)
                                                  for sigma in autos)


@pytest.mark.parametrize("name", ["C9", "C10", "Petersen"])
def test_orbit_keyed_entries_hold_for_the_oracle(name):
    """Each stored key is a reachable unmarked set (an automorphic image of
    one is reachable), and entries of every kind on small sets hold the
    oracle's exact value between their bounds."""
    g = SYMMETRIC[name]
    reaching = _played_set_reaching(g)
    solver = Solver(g)
    assert solver._images is not None
    solver.game_value(Player.DOMINATOR)
    solver.game_value(Player.STALLER)
    assert {key >> 1 for key in solver._table} <= set(reaching)
    rng = random.Random(g.n)
    small = [(key, entry) for key, entry in sorted(solver._table.items())
             if (key >> 1).bit_count() <= 5]
    by_kind = _entries_by_kind(small)
    for kind, entries in by_kind.items():
        assert entries or kind == "two-sided"
        for key, low, high in rng.sample(entries, min(4, len(entries))):
            mover = Player.DOMINATOR if key & 1 else Player.STALLER
            played = reaching[key >> 1]
            exact = oracles.brute_solve_from(g, set(vertices_of(played)), mover)
            assert low <= exact <= high


def test_at_most_matches_exact_values(corpus_graphs):
    """The null-window probe answers ``value <= k`` for every corpus graph,
    both starts and every k from -1 to n, from a fresh table and from one
    shared with every earlier probe."""
    for g in corpus_graphs:
        shared = Solver(g)
        for mover in Player:
            exact = Solver(g).value(0, mover)
            for k in range(-1, g.n + 1):
                assert Solver(g).at_most(mover, k) == (exact <= k), (g, mover, k)
                assert shared.at_most(mover, k) == (exact <= k), (g, mover, k)


@pytest.mark.parametrize("n", range(12, 19))
def test_at_most_at_the_value_on_orbit_keyed_cycles(n):
    """On C12-C18, whose tables key on dihedral orbits, the probe just
    below the value fails and the probe at it holds, on fresh and shared
    tables in both orders."""
    g = cycle(n)
    for mover in Player:
        exact = Solver(g).value(0, mover)
        below_first, at_first = Solver(g), Solver(g)
        assert not below_first.at_most(mover, exact - 1)
        assert below_first.at_most(mover, exact)
        assert at_first.at_most(mover, exact)
        assert not at_first.at_most(mover, exact - 1)
        assert at_first.value(0, mover) == exact


def test_solve_both_shares_one_table():
    igt, igts = solve_both(path(5))
    assert (igt, igts) == (2, 4)


def test_solving_does_not_pin_the_graph():
    """Marks live only as long as the solve or simulation that made them,
    and a strategy kept alive holds only the graph it last played on."""
    g = random_connected(8, 0.4, 2, seed=11)
    solve_both(g)
    lab.verify([lab.CorpusEntry(gid="g", graph=g)])
    strategies.simulate(g, strategies.GreedyDominator(),
                        strategies.OptimalStrategy())
    strategies.best_response_value(g, strategies.GreedyDominator(),
                                   Player.DOMINATOR)
    union = from_shorthand("P6+P3")
    stallers = (strategies.OptimalStrategy(), strategies.ExtremalStaller(),
                strategies.BestResponseStrategy(strategies.GreedyDominator(),
                                                Player.STALLER))
    for graph in (union, from_shorthand("C6+P3")):
        for staller in stallers:
            strategies.simulate(graph, strategies.GreedyDominator(), staller)
    refs = weakref.ref(g), weakref.ref(union)
    del g, union
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_domain_and_capacity_errors(monkeypatch):
    from isogame.graph import Graph
    with pytest.raises(GraphDomainError):
        solve(Graph(3, [(0, 1)]))  # isolated vertex
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "8")
    with pytest.raises(SolverCapError):
        solve(path(10))


def test_graph_deeper_than_the_recursion_limit_is_refused(monkeypatch):
    """A game has up to n moves and the search recurses once per move."""
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "5000")
    with pytest.raises(SolverCapError, match="recursion limit"):
        Solver(path(1200))
    with pytest.raises(SolverCapError, match="recursion limit"):
        strategies.ForcedGameSolver(path(1200), strategies.GreedyDominator(),
                                    Player.DOMINATOR)


def test_cap_env_override(monkeypatch):
    monkeypatch.delenv("ISOGAME_SOLVER_CAP", raising=False)
    assert solver_cap_from_env() == 20
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "6")
    assert solver_cap_from_env() == 6
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "many")
    with pytest.raises(SolverCapError):
        solver_cap_from_env()
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "2")
    assert solver_cap_from_env() == 2
    for too_small in ("1", "0", "-3"):
        monkeypatch.setenv("ISOGAME_SOLVER_CAP", too_small)
        with pytest.raises(SolverCapError, match="at least 2"):
            solver_cap_from_env()


def test_library_searches_read_the_cap_from_the_environment(monkeypatch):
    """Every search honours ISOGAME_SOLVER_CAP when it is built; none takes
    a cap argument."""
    g = path(7)
    assert solve(g).total_moves == oracles.brute_solve(g, Player.DOMINATOR)
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "6")
    greedy = strategies.GreedyDominator()
    searches = [
        lambda: solve_both(g),
        lambda: cp_gap(g),
        lambda: Solver(g),
        lambda: strategies.ForcedGameSolver(g, greedy, Player.DOMINATOR),
        lambda: strategies.best_response_value(g, greedy, Player.DOMINATOR),
        lambda: strategies.simulate(g, greedy, strategies.OptimalStrategy()),
        lambda: strategies.simulate(
            g, greedy,
            strategies.BestResponseStrategy(greedy, Player.STALLER)),
    ]
    for search in searches:
        with pytest.raises(SolverCapError, match="solver cap 6"):
            search()


def test_stats_populated():
    solver = Solver(cycle(6))
    solver.game_value(Player.DOMINATOR)
    stats = solver.stats
    assert stats.states > 0
    assert stats.hits >= 0


def test_optimal_move_respects_staller_parity():
    v = Solver(cycle(6)).best_move(0, Player.STALLER)
    assert 0 <= v < 6
