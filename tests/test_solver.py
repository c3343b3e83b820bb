"""Exact solver: point values, principal variations, bound-flag table,
window contract, orbit-keyed table, oracle parity."""

import gc
import random
import weakref
from pathlib import Path

import pytest

from isogame import oracles
from isogame.engine import Player, marked_set, new_game, playable_from, replay
from isogame.errors import GameStateError, GraphDomainError, SolverCapError
from isogame.families import (complete, cycle, from_shorthand, path,
                              random_connected)
from isogame import lab, strategies
from isogame.graph import Graph, vertex_set, vertices_of
from isogame.graph6 import parse_graph6
from isogame.solver import (_EXACT, _LOWER, _UPPER, Solver, _automorphisms,
                            _step, cp_gap, solve, solve_both,
                            solver_cap_from_env)

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


def test_principal_variation_replays_to_terminal():
    for g in (P5, cycle(6), complete(4), random_connected(9, 0.4, 1, seed=2)):
        for first in (Player.DOMINATOR, Player.STALLER):
            value = solve(g, first)
            state = replay(g, value.principal_variation, first)
            assert state.is_terminal()
            assert len(value.principal_variation) == value.total_moves


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


def test_table_entries_match_memo_free_values():
    """Every kind of table entry, exact or a bound stored under a cut
    window, holds for the oracle's exact value at a played set reaching its
    unmarked set, and reads back through ``value`` as that exact value."""
    rng = random.Random(5)
    seen = set()
    for _ in range(20):
        g = random_connected(rng.randint(3, 7), 0.5, 1, seed=rng.random())
        reaching = _played_set_reaching(g)
        solver = Solver(g)
        solver.game_value(Player.DOMINATOR)
        assert {key >> 1 for key in solver._table} <= set(reaching)
        by_flag = {flag: [] for flag in (_EXACT, _LOWER, _UPPER)}
        for key, (flag, stored) in sorted(solver._table.items()):
            by_flag[flag].append((key, stored))
        for flag, entries in by_flag.items():
            if entries:
                seen.add(flag)
            for key, stored in rng.sample(entries, min(5, len(entries))):
                unmarked, dominator_to_move = key >> 1, key & 1
                mover = Player.DOMINATOR if dominator_to_move else Player.STALLER
                played = reaching[unmarked]
                exact = oracles.brute_solve_from(g, set(vertices_of(played)), mover)
                if flag == _EXACT:
                    assert stored == exact
                elif flag == _LOWER:
                    assert stored <= exact
                else:
                    assert stored >= exact
                assert solver.value(played, mover) == exact
    assert seen == {_EXACT, _LOWER, _UPPER}


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
            playable = playable_from(g, unmarked)
            assert playable == vertex_set(
                oracles.legal_moves(g, set(vertices_of(played))))
            w = rng.choice(vertices_of(playable))
            played |= 1 << w
            unmarked = _step(g.adj, unmarked, w)
            assert unmarked == marked_set(g, played).unmarked
            assert unmarked == g.full_mask & ~vertex_set(
                oracles.marked_vertices(g, set(vertices_of(played))))


def test_c18_table_holds_one_entry_per_unmarked_state():
    """Played sets that reach the same unmarked set share an entry, and so
    do rotations and reflections of it: C18's two starts fill 159530
    entries keyed on the played set and 19796 keyed on the unmarked set."""
    solver = Solver(cycle(18))
    assert solver.value(0, Player.DOMINATOR) == 11
    assert solver.value(0, Player.STALLER) == 11
    assert solver.stats.states <= 19796 // 10


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


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


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


def _replays_under_the_oracle(g, moves):
    played = set()
    for v in moves:
        assert v in oracles.legal_moves(g, played)
        played.add(v)
    return not oracles.legal_moves(g, played)


SYMMETRIC = {
    **{f"C{k}": cycle(k) for k in range(9, 13)},
    "Petersen": _petersen(),
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
                w = rng.choice(vertices_of(playable_from(g, unmarked)))
                unmarked = _step(g.adj, unmarked, w)
        for first, value in zip((Player.DOMINATOR, Player.STALLER), values):
            line = solver.game_value(first)
            assert line.total_moves == value
            assert _replays_under_the_oracle(g, line.principal_variation)


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
        assert len(Solver(cycle(n))._images[0][0]) == 2 * n
    paley = _paley17()
    autos = _automorphisms(paley, 10 ** 6)
    assert len(set(autos)) == 136
    edges = {frozenset(e) for e in paley.edges}
    assert all({frozenset((s[u], s[v])) for u, v in paley.edges} == edges
               for s in autos)


@pytest.mark.parametrize("name", ["C9", "C10", "Petersen"])
def test_orbit_keyed_entries_hold_for_the_oracle(name):
    """Each stored key is a reachable unmarked set (an automorphic image of
    one is reachable), and entries on small sets hold for the oracle's
    exact value under their flag."""
    g = SYMMETRIC[name]
    reaching = _played_set_reaching(g)
    solver = Solver(g)
    assert solver._images is not None
    solver.game_value(Player.DOMINATOR)
    solver.game_value(Player.STALLER)
    assert {key >> 1 for key in solver._table} <= set(reaching)
    rng = random.Random(g.n)
    by_flag = {flag: [] for flag in (_EXACT, _LOWER, _UPPER)}
    for key, (flag, stored) in sorted(solver._table.items()):
        if (key >> 1).bit_count() <= 5:
            by_flag[flag].append((key, stored))
    for flag, entries in by_flag.items():
        for key, stored in rng.sample(entries, min(4, len(entries))):
            mover = Player.DOMINATOR if key & 1 else Player.STALLER
            played = reaching[key >> 1]
            exact = oracles.brute_solve_from(g, set(vertices_of(played)), mover)
            if flag == _EXACT:
                assert stored == exact
            elif flag == _LOWER:
                assert stored <= exact
            else:
                assert stored >= exact
    assert by_flag[_EXACT]


def test_solve_both_shares_one_table():
    igt, igts = solve_both(path(5))
    assert (igt, igts) == (2, 4)


def test_solving_does_not_pin_the_graph():
    """Marks live only as long as the solve or simulation that made them,
    and a strategy kept alive holds only the graph it last played on."""
    g = random_connected(8, 0.4, 2, seed=11)
    solve_both(g)
    lab.evaluate_graph("g", g)
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
