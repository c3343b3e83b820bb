"""Exact solver: point values, principal variations, bound-flag table,
oracle parity."""

import gc
import random
import weakref

import pytest

from isogame import oracles
from isogame.engine import Player, marked_set, new_game, playable_from, replay
from isogame.errors import GameStateError, GraphDomainError, SolverCapError
from isogame.families import (complete, cycle, from_shorthand, path,
                              random_connected)
from isogame import lab, strategies
from isogame.graph import vertex_set, vertices_of
from isogame.solver import (_EXACT, _LOWER, _UPPER, Solver, _step, cp_gap,
                            solve, solve_both, solver_cap_from_env)

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
    """Played sets that reach the same unmarked set share an entry: C18's
    two starts fill 159530 entries when keyed on the played set."""
    solver = Solver(cycle(18))
    assert solver.value(0, Player.DOMINATOR) == 11
    assert solver.value(0, Player.STALLER) == 11
    assert solver.stats.states <= 159530 // 4


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
    g = path(10)
    assert solve(g).total_moves == oracles.brute_solve(g, Player.DOMINATOR)
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "8")
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
        with pytest.raises(SolverCapError, match="solver cap 8"):
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
