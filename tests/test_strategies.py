"""Greedy and extremal strategies, simulation traces, stage instrumentation."""

import random

import pytest

from isogame import oracles
from isogame.engine import Player, marked_set, new_game, replay
from isogame.errors import (GameStateError, ProtocolViolationError,
                            SnapshotDomainError, StrategyDomainError)
from isogame.families import (complete, cycle, disjoint_union, from_shorthand,
                              path, random_connected)
from isogame.graph import (Graph, is_independent, is_packing, iter_bits,
                           open_neighborhood, vertex_set, vertices_of)
from isogame.solver import Solver, StateCache, _automorphisms, _step, solve
from isogame.strategies import (STAGE_BURST, STAGE_TRICKLE,
                                BestResponseStrategy, ExtremalStaller,
                                ForcedGameSolver, GreedyDominator,
                                ModifiedGreedyDominator, OptimalStrategy,
                                RandomStrategy, Strategy, _mark_gains,
                                best_response_value, simulate, stage_snapshot)

from conftest import petersen, random_isolate_free


# -- greedy moves ------------------------------------------------------------

def greedy_choice(state):
    return GreedyDominator().choose(state.graph, state.unmarked(), state.mover,
                                    None, state.played)


def modified_greedy_choice(state):
    return ModifiedGreedyDominator().choose(state.graph, state.unmarked(),
                                            state.mover, None, state.played)


def test_greedy_p5_plays_center():
    state = new_game(path(5))
    assert greedy_choice(state) == 2
    assert StateCache(state.graph).mark_gain(0, 2) == 4


def test_greedy_c6_tie_breaks_low():
    assert greedy_choice(new_game(cycle(6))) == 0


def test_greedy_first_gain_at_least_max_degree():
    rng = random.Random(53)
    for _ in range(200):
        g = random_isolate_free(rng)
        state = new_game(g)
        v = greedy_choice(state)
        assert StateCache(g).mark_gain(0, v) >= g.max_degree


def test_greedy_errors_on_terminal():
    with pytest.raises(GameStateError):
        greedy_choice(replay(path(5), [2, 1]))


def _gains_from_scratch(g, played, within):
    before = marked_set(g, played).unmarked
    return [(v, before.bit_count() - marked_set(g, played | 1 << v).unmarked.bit_count())
            for v in iter_bits(open_neighborhood(g, before) & within)]


def _best_and_maximizers(gains):
    best = max(gain for _, gain in gains)
    return best, [v for v, gain in gains if gain == best]


def test_mark_gains_match_marked_set_along_playouts():
    """The best gain and its maximizers, counted in one pass over the
    unmarked set, match the drops in ``|U|`` that ``marked_set`` gives, over
    the whole graph and inside each component, on sparse, dense and
    symmetric graphs."""
    rng = random.Random(97)
    graphs = [random_connected(rng.randint(3, 10), rng.uniform(0.2, 0.7), 1,
                               seed=rng.random()) for _ in range(30)]
    graphs += [from_shorthand(text)
               for text in ("P3+C3", "P6+C6", "C3+P6+C6", "P3+C3+P6", "C6+C6")]
    graphs += [complete(5), Graph(5, [(0, v) for v in range(1, 5)]),
               Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]), petersen()]
    for g in graphs:
        for first in Player:
            state = new_game(g, first)
            while not state.is_terminal():
                for within in (-1, *g.components):
                    expected = _gains_from_scratch(g, state.played, within)
                    if expected:
                        assert (_mark_gains(g, state.unmarked(), within)
                                == _best_and_maximizers(expected))
                    else:
                        with pytest.raises(GameStateError):
                            _mark_gains(g, state.unmarked(), within)
                state = state.play(rng.choice(vertices_of(state.playable())))


def test_greedy_choices_match_oracle_gains(small_connected):
    """Along seeded random playouts on every corpus graph with n <= 6, from
    both starts, greedy plays the lowest-index move marking the most
    vertices at each Dominator turn, and modified greedy the first non-leaf
    among them (the first maximizer when all are leaves), with gains taken
    from the oracle's legal moves and marked sets alone."""
    rng = random.Random(41)
    greedy, modified = GreedyDominator(), ModifiedGreedyDominator()
    positions = 0
    for g in small_connected:
        for first in Player:
            played: set[int] = set()
            mover = first
            while legal := oracles.legal_moves(g, played):
                if mover is Player.DOMINATOR:
                    marked = oracles.marked_vertices(g, played)
                    gains = [(v, len(oracles.marked_vertices(g, played | {v})) - len(marked))
                             for v in legal]
                    _, maximizers = _best_and_maximizers(gains)
                    non_leaves = [v for v in maximizers if len(g.neighbors(v)) >= 2]
                    unmarked = vertex_set(v for v in range(g.n) if v not in marked)
                    position = (g, unmarked, mover, None, vertex_set(played))
                    assert greedy.choose(*position) == min(maximizers)
                    assert modified.choose(*position) == (non_leaves or maximizers)[0]
                    positions += 1
                played.add(rng.choice(legal))
                mover = mover.other
    assert positions > 2 * len(small_connected)


def test_modified_greedy_prefers_non_leaf():
    assert modified_greedy_choice(new_game(path(3))) == 1
    assert greedy_choice(new_game(path(3))) == 0
    assert modified_greedy_choice(new_game(path(5))) == 2
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert modified_greedy_choice(new_game(star)) == 0


def test_modified_greedy_takes_leaf_when_forced():
    # on K2 every vertex is a leaf
    assert modified_greedy_choice(new_game(complete(2))) == 0


# -- extremal Staller ---------------------------------------------------------

def test_extremal_c6_distance_three():
    """After every Dominator opening in a 6-cycle, the extremal Staller plays
    the vertex at distance 3 from it, on unions and on relabelled copies of
    them, whose 6-cycles are not runs of consecutive vertices."""
    rng = random.Random(37)
    graphs = [from_shorthand(text) for text in
              ("C6", "C6+C6", "P3+C6+C3", "P6+C6+C6", "C3+C6+P3+C6+P6")]
    for g in graphs[1:]:
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    replies = 0
    for g in graphs:
        staller = ExtremalStaller()
        dist = oracles.distances(g)
        for comp in g.components:
            if not (comp.bit_count() == 6 and
                    all(g.adj[v].bit_count() == 2 for v in iter_bits(comp))):
                continue
            for last in iter_bits(comp):
                state = new_game(g).play(last)
                (want,) = [v for v in range(g.n) if dist[last][v] == 3]
                assert staller.choose(g, state.unmarked(), Player.STALLER, last,
                                      state.played) == want, (g.edges, last)
                replies += 1
    assert replies == 6 * 29  # 8 six-cycles, and 7 in each of 3 relabellings


def test_extremal_p3_component_marks_all():
    g = from_shorthand("P3+C6")
    state = new_game(g).play(1)  # center of the P3 block
    reply = ExtremalStaller().choose(g, state.unmarked(), Player.STALLER, 1,
                                     state.played)
    assert reply in (0, 2)
    after = state.play(reply)
    assert after.unmarked() & vertex_set([0, 1, 2]) == 0


def test_extremal_rejects_unsupported_family():
    state = new_game(cycle(4)).play(0)
    with pytest.raises(StrategyDomainError):
        ExtremalStaller().choose(state.graph, state.unmarked(), Player.STALLER,
                                 0, state.played)


def test_extremal_rejects_wrong_turn():
    g = cycle(6)
    with pytest.raises(StrategyDomainError):
        ExtremalStaller().choose(g, g.full_mask, Player.DOMINATOR, None, 0)


def test_extremal_component_move_counts():
    """Two moves land in every 3-vertex component, four in every 6-vertex
    component, under greedy-vs-extremal and optimal-vs-extremal play."""
    g = from_shorthand("P3+C3+P6+C6")
    blocks = [(kind, comp) for kind, comp in zip(("P3", "C3", "P6", "C6"),
                                                 g.components)]
    for dominator in (GreedyDominator(), OptimalStrategy()):
        trace = simulate(g, dominator, ExtremalStaller())
        for kind, comp in blocks:
            hosted = sum(1 for record in trace.moves
                         if comp >> record.vertex & 1)
            assert hosted == (2 if kind in ("P3", "C3") else 4), (kind, trace)


def test_extremal_falls_back_to_the_global_optimal_move():
    g = from_shorthand("P6+P3")
    trace = simulate(g, RandomStrategy(262576), ExtremalStaller())
    fallbacks = [i for i, record in enumerate(trace.moves) if record.note ==
                 "component finished; fell back to the global optimal move"]
    assert len(fallbacks) == 1
    (i,) = fallbacks
    assert trace.moves[i].vertex == Solver(g).best_move(trace.played_before(i),
                                                        Player.STALLER)
    assert replay(g, [record.vertex for record in trace.moves]).is_terminal()


def test_a_note_left_by_a_forced_search_tags_no_move_of_a_later_game():
    """A note is a function of the position alone, so a forced search that
    falls back leaves nothing on the instance: a later simulation with that
    instance records the notes a fresh one does."""
    g = from_shorthand("P6+P3")
    reused = ExtremalStaller()
    best_response_value(g, reused, Player.STALLER)
    for dominator in (GreedyDominator, OptimalStrategy):
        fresh_trace = simulate(g, dominator(), ExtremalStaller())
        reused_trace = simulate(g, dominator(), reused)
        assert ([record.note for record in reused_trace.moves]
                == [record.note for record in fresh_trace.moves])
        assert reused_trace.moves == fresh_trace.moves
        best_response_value(g, reused, Player.STALLER)


# -- simulation ----------------------------------------------------------------

def test_simulate_p5_greedy_two_moves():
    trace = simulate(path(5), GreedyDominator(), RandomStrategy(0))
    assert trace.t == 2
    assert trace.moves[0].vertex == 2


def test_simulate_c6_greedy_vs_extremal():
    trace = simulate(cycle(6), GreedyDominator(), ExtremalStaller())
    assert trace.t == 4


def test_trace_mark_sum_identity():
    rng = random.Random(59)
    for _ in range(1000):
        g = random_isolate_free(rng)
        first = rng.choice((Player.DOMINATOR, Player.STALLER))
        trace = simulate(g, RandomStrategy(rng.randint(0, 10**6)),
                         RandomStrategy(rng.randint(0, 10**6)), first)
        assert sum(record.new_marks for record in trace.moves) == g.n
        assert all(record.new_marks >= 1 for record in trace.moves)


def test_trace_stages_are_burst_then_trickle():
    rng = random.Random(61)
    for _ in range(500):
        g = random_isolate_free(rng)
        trace = simulate(g, GreedyDominator(), RandomStrategy(7))
        stages = [record.stage for record in trace.moves]
        assert stages == sorted(stages)  # burst prefix, trickle suffix


def test_greedy_burst_moves_mark_at_least_two():
    rng = random.Random(67)
    for _ in range(300):
        g = random_isolate_free(rng)
        trace = simulate(g, GreedyDominator(), RandomStrategy(3))
        for i, record in enumerate(trace.moves):
            if record.mover is Player.DOMINATOR and record.stage == STAGE_BURST and i > 0:
                assert record.new_marks >= 2


def test_stages_and_marks_match_the_oracle(small_connected):
    """Every move is legal, marks as many vertices as the oracle's marked
    set grows by, and is burst stage iff some legal move then marks at
    least two; a Staller reply inherits the stage of the move before."""
    games = [(g, dom, staller, first) for g in small_connected
             for dom, staller in ((GreedyDominator(), OptimalStrategy()),
                                  (ModifiedGreedyDominator(), RandomStrategy(3)))
             for first in Player]
    games += [(from_shorthand(text), GreedyDominator(), ExtremalStaller(),
               Player.DOMINATOR)
              for text in ("P3+C3", "P6+C6", "P3+C3+P6", "C3+P3+C6", "P3+C3+P3+C3")]
    assert len(games) == 569
    for g, dom, staller, first in games:
        trace = simulate(g, dom, staller, first)
        played: set[int] = set()
        for i, record in enumerate(trace.moves):
            legal = oracles.legal_moves(g, played)
            assert record.vertex in legal
            marked = len(oracles.marked_vertices(g, played))
            if record.mover is Player.STALLER and i > 0:
                assert record.stage == trace.moves[i - 1].stage
            else:
                burst = any(len(oracles.marked_vertices(g, played | {w})) - marked >= 2
                            for w in legal)
                assert record.stage == (STAGE_BURST if burst else STAGE_TRICKLE)
            played.add(record.vertex)
            assert record.new_marks == len(oracles.marked_vertices(g, played)) - marked
        assert not oracles.legal_moves(g, played)


def test_mover_alternation_in_traces():
    trace = simulate(cycle(5), GreedyDominator(), RandomStrategy(1),
                     Player.STALLER)
    movers = [record.mover for record in trace.moves]
    assert movers[0] is Player.STALLER
    assert all(movers[i] is not movers[i + 1] for i in range(len(movers) - 1))


# -- stage snapshot -------------------------------------------------------------

def test_snapshot_none_when_game_ends_in_burst():
    trace = simulate(path(5), GreedyDominator(), RandomStrategy(0))
    assert stage_snapshot(trace) is None


def test_snapshot_rejects_non_greedy_traces():
    trace = simulate(cycle(6), RandomStrategy(0), RandomStrategy(1))
    with pytest.raises(SnapshotDomainError):
        stage_snapshot(trace)


def test_snapshot_quantities_on_c6():
    trace = simulate(cycle(6), GreedyDominator(), ExtremalStaller())
    snap = stage_snapshot(trace)
    assert snap is not None
    g = trace.graph
    assert snap.unmarked_count == snap.unmarked.bit_count()
    assert snap.unmarked & snap.played == snap.unmarked  # every unmarked was played
    assert is_independent(g, snap.unmarked)
    assert is_packing(g, snap.unmarked)
    assert snap.boundary_index == 2 * snap.stage1_dominator_moves


def test_snapshot_structure_under_adversarial_staller():
    # fixed graphs known to enter the trickle stage against an adversary,
    # plus a random sweep for breadth
    from isogame.graph6 import parse_graph6
    fixed = [cycle(6), cycle(8), parse_graph6("EhEG"), parse_graph6("F`ooo"),
             parse_graph6("FhEMG"), parse_graph6("GhCK?K")]
    rng = random.Random(71)
    sampled = [random_connected(rng.randint(4, 8), rng.uniform(0.3, 0.7), 2,
                                seed=rng.random()) for _ in range(150)]
    greedy = GreedyDominator()
    checked = 0
    for position, g in enumerate(fixed + sampled):
        adversary = BestResponseStrategy(greedy, Player.STALLER)
        trace = simulate(g, greedy, adversary)
        snap = stage_snapshot(trace)
        if snap is None:
            assert position >= len(fixed), "fixture must enter the trickle stage"
            continue
        checked += 1
        unmarked, frontier, remote = snap.unmarked, snap.unmarked_neighbors, snap.remote
        assert unmarked | frontier | remote == g.full_mask
        assert unmarked & frontier == 0 and unmarked & remote == 0
        assert frontier.bit_count() >= g.min_degree * snap.unmarked_count
        assert remote.bit_count() >= 2 * snap.stage1_dominator_moves - snap.unmarked_count
    assert checked >= len(fixed)


def test_snapshot_structure_staller_start():
    """In Staller-start games the boundary sits after an odd number of
    moves and the remote-set bound gains one."""
    from isogame.graph6 import parse_graph6
    fixed = [complete(3), cycle(6), cycle(7), cycle(8), parse_graph6("Cl"),
             parse_graph6("D]o")]
    rng = random.Random(79)
    sampled = [random_connected(rng.randint(4, 8), rng.uniform(0.3, 0.7), 2,
                                seed=rng.random()) for _ in range(100)]
    greedy = GreedyDominator()
    checked = 0
    for position, g in enumerate(fixed + sampled):
        adversary = BestResponseStrategy(greedy, Player.STALLER)
        trace = simulate(g, greedy, adversary, Player.STALLER)
        snap = stage_snapshot(trace)
        if snap is None:
            assert position >= len(fixed), "fixture must enter the trickle stage"
            continue
        checked += 1
        moves_in, unmarked_left = snap.stage1_dominator_moves, snap.unmarked_count
        assert snap.boundary_index == 2 * moves_in + 1
        assert is_independent(g, snap.unmarked)
        assert snap.unmarked & snap.played == snap.unmarked
        assert is_packing(g, snap.unmarked)
        assert snap.unmarked_neighbors.bit_count() >= g.min_degree * unmarked_left
        assert snap.remote.bit_count() >= 2 * moves_in + 1 - unmarked_left
        assert trace.t == 2 * moves_in + unmarked_left + 1
    assert checked >= len(fixed)


# -- best response ---------------------------------------------------------------

def test_best_response_c6_greedy():
    assert best_response_value(cycle(6), GreedyDominator(),
                               Player.DOMINATOR, Player.DOMINATOR) == 4


def test_best_response_never_beats_optimum():
    rng = random.Random(73)
    strategies = [GreedyDominator(), ModifiedGreedyDominator(), RandomStrategy(5)]
    for _ in range(40):
        g = random_connected(rng.randint(3, 8), 0.5, 1, seed=rng.random())
        optimum = solve(g).total_moves
        for strategy in strategies:
            assert best_response_value(g, strategy, Player.DOMINATOR,
                                       Player.DOMINATOR) >= optimum


def test_best_response_forced_extremal_union():
    g = from_shorthand("P3+C3+P6+C6")
    forced = best_response_value(g, ExtremalStaller(), Player.STALLER,
                                 Player.DOMINATOR)
    assert 3 * forced >= 2 * g.n


def test_best_response_staller_matches_sgame_optimum():
    # best response against an optimal Dominator is the S-game value
    g = cycle(5)
    assert best_response_value(g, OptimalStrategy(), Player.DOMINATOR,
                               Player.STALLER) == solve(g, Player.STALLER).total_moves


def test_modified_greedy_also_within_degree_bound():
    """The non-leaf preference never costs the greedy mark guarantee, so
    the degree-refined bound covers the modified strategy too."""
    rng = random.Random(83)
    modified = ModifiedGreedyDominator()
    for _ in range(60):
        g = random_connected(rng.randint(4, 8), rng.uniform(0.35, 0.8), 2,
                             seed=rng.random())
        n, d, big = g.n, g.min_degree, g.max_degree
        forced = best_response_value(g, modified, Player.DOMINATOR,
                                     Player.DOMINATOR)
        assert forced * (3 * d - 2) <= (2 * d - 1) * n - (big - 2)


def test_simulated_adversary_attains_forced_value():
    greedy = GreedyDominator()
    for text in ("C6", "P5", "C5", "P3+C6"):
        g = from_shorthand(text)
        forced = best_response_value(g, greedy, Player.DOMINATOR)
        trace = simulate(g, greedy, BestResponseStrategy(greedy, Player.STALLER))
        assert trace.t == forced


def test_forced_search_matches_memo_free_oracle(small_connected):
    """The forced search agrees with the memo-free oracle on every corpus
    graph with n <= 6, from both starts."""
    for g in small_connected:
        for strategy in (GreedyDominator(), ModifiedGreedyDominator(),
                         RandomStrategy(5)):
            for first in Player:
                assert (best_response_value(g, strategy, Player.DOMINATOR, first)
                        == oracles.brute_forced_value(g, strategy,
                                                      Player.DOMINATOR, first))
    extremal = ExtremalStaller()
    for text in ("P3+C3", "C6"):
        g = from_shorthand(text)
        assert (best_response_value(g, extremal, Player.STALLER)
                == oracles.brute_forced_value(g, extremal, Player.STALLER))


def _check_forced_methods(search, g, strategy, fixed_role, starts):
    """Each played-set method of ``search`` answers the forced game from the
    empty position, checked against the memo-free oracle, or raises."""
    free = fixed_role.other
    for first in starts:
        want = oracles.brute_forced_value(g, strategy, fixed_role, first)
        assert search.value(0, first) == search.value_from(0, first) == want
        assert [search.at_most(first, k) for k in range(g.n + 1)] \
            == [want <= k for k in range(g.n + 1)]
        with pytest.raises(GameStateError):
            search.game_value(first)
    move = search.best_move(0, free)
    assert 1 + oracles.brute_forced_value(g, strategy, fixed_role, free, (move,)) \
        == oracles.brute_forced_value(g, strategy, fixed_role, free)
    with pytest.raises(GameStateError):
        search.best_move(0, fixed_role)


def test_forced_solver_methods_answer_the_forced_game(small_connected):
    """``value``, ``at_most`` and ``best_move``, which ``ForcedGameSolver``
    shares with ``Solver``, answer the forced game on every corpus graph
    with n <= 6; ``best_move`` for the forced side and ``game_value`` raise.
    On P6 against greedy, ``Solver``'s own methods answered the free game:
    a value of 2 where the forced game lasts 4 moves."""
    for g in small_connected:
        for strategy in (GreedyDominator(), ModifiedGreedyDominator(),
                         RandomStrategy(5)):
            search = ForcedGameSolver(g, strategy, Player.DOMINATOR)
            _check_forced_methods(search, g, strategy, Player.DOMINATOR, Player)
    greedy = GreedyDominator()
    search = ForcedGameSolver(path(6), greedy, Player.DOMINATOR)
    assert search.value(0, Player.DOMINATOR) == 4
    assert not search.at_most(Player.DOMINATOR, 2)
    # The extremal Staller answers a Dominator move, so Dominator starts.
    extremal = ExtremalStaller()
    for text in ("P3+C3", "C6", "P3+C6"):
        g = from_shorthand(text)
        search = ForcedGameSolver(g, extremal, Player.STALLER)
        _check_forced_methods(search, g, extremal, Player.STALLER,
                              (Player.DOMINATOR,))


def test_forced_illegal_move_is_a_protocol_violation():
    class Stubborn(Strategy):
        name = "stubborn"

        def choose(self, g, unmarked, mover, last, played):
            return 0

    g = path(5)  # vertex 0 stops being playable once played
    with pytest.raises(ProtocolViolationError, match="stubborn"):
        best_response_value(g, Stubborn(), Player.DOMINATOR)
    with pytest.raises(ProtocolViolationError, match="stubborn"):
        oracles.brute_forced_value(g, Stubborn(), Player.DOMINATOR)


class _Fixed(Strategy):
    """Always chooses the same vertex, legal or not."""

    name = "fixed"

    def __init__(self, v):
        super().__init__()
        self.v = v

    def choose(self, g, unmarked, mover, last, played):
        return self.v


def test_a_choice_outside_the_graph_is_a_protocol_violation():
    """Simulation, the forced search and the oracle reject a choice of -1 or
    n as not playable, and a played vertex as already played."""
    g = path(5)
    for v, reason in ((-1, "not-playable"), (g.n, "not-playable"),
                      (0, "already-played")):
        strategy = _Fixed(v)
        for run in (lambda: simulate(g, strategy, GreedyDominator()),
                    lambda: best_response_value(g, strategy, Player.DOMINATOR),
                    lambda: oracles.brute_forced_value(g, strategy, Player.DOMINATOR)):
            with pytest.raises(ProtocolViolationError, match="fixed") as info:
                run()
            assert (info.value.vertex, info.value.reason) == (v, reason)


class _Recording(GreedyDominator):
    """Greedy, asserting on every call the position a strategy is handed."""

    def __init__(self, role):
        super().__init__()
        self.role = role
        self.calls = 0

    def choose(self, g, unmarked, mover, last, played):
        assert unmarked == marked_set(g, played).unmarked
        assert mover is self.role
        assert last is None or played >> last & 1
        self.calls += 1
        return super().choose(g, unmarked, mover, last, played)


def test_every_caller_hands_a_strategy_its_position():
    """Simulation, the forced search and the oracle call ``choose`` with the
    unmarked set of the played set, the strategy's own role, and a previous
    move that was played."""
    for text in ("C6", "P3+C6"):
        g = from_shorthand(text)
        for first in Player:
            dominator, staller = _Recording(Player.DOMINATOR), _Recording(Player.STALLER)
            simulate(g, dominator, staller, first)
            recorders = [dominator, staller]
            for role in Player:
                forced, brute = _Recording(role), _Recording(role)
                assert (best_response_value(g, forced, role, first)
                        == oracles.brute_forced_value(g, brute, role, first))
                recorders += [forced, brute]
            assert all(recorder.calls for recorder in recorders), (text, first)


def _histories(g):
    """Every played set legal play reaches, mapped to a move sequence that
    reaches it, found by breadth-first search over legal moves."""
    histories = {0: ()}
    frontier = [0]
    while frontier:
        following = []
        for played in frontier:
            for v in iter_bits(open_neighborhood(g, marked_set(g, played).unmarked)):
                child = played | 1 << v
                if child not in histories:
                    histories[child] = histories[played] + (v,)
                    following.append(child)
        frontier = following
    return histories


# (graph, strategy, first mover) -> entries in the forced search's table
FORCED_TABLE_SIZES = {
    ("C6", "greedy", Player.DOMINATOR): 1, ("C6", "greedy", Player.STALLER): 2,
    ("C6", "modified-greedy", Player.DOMINATOR): 1,
    ("C6", "modified-greedy", Player.STALLER): 2,
    ("C6", "random", Player.DOMINATOR): 1, ("C6", "random", Player.STALLER): 2,
    ("P5", "greedy", Player.DOMINATOR): 0, ("P5", "greedy", Player.STALLER): 2,
    ("P5", "modified-greedy", Player.DOMINATOR): 0,
    ("P5", "modified-greedy", Player.STALLER): 2,
    ("P5", "random", Player.DOMINATOR): 1, ("P5", "random", Player.STALLER): 2,
    ("P3+C6", "greedy", Player.DOMINATOR): 2, ("P3+C6", "greedy", Player.STALLER): 10,
    ("P3+C6", "modified-greedy", Player.DOMINATOR): 2,
    ("P3+C6", "modified-greedy", Player.STALLER): 10,
    ("P3+C6", "random", Player.DOMINATOR): 5, ("P3+C6", "random", Player.STALLER): 12,
}


def test_forced_memo_keys_on_the_unmarked_set():
    """The forced table stores free-side states only, under ``Solver``'s
    int keys: greedy and modified greedy key on reachable unmarked sets,
    ``RandomStrategy`` on reachable played sets, and the extremal Staller,
    which reads the previous move, on unmarked sets with Dominator to move."""
    strategies = {s.name: s for s in (GreedyDominator(), ModifiedGreedyDominator(),
                                      RandomStrategy(5))}
    for text in ("C6", "P5", "P3+C6"):
        g = from_shorthand(text)
        histories = _histories(g)
        unmarked_sets = {marked_set(g, played).unmarked for played in histories}
        for name, strategy in strategies.items():
            reached = histories if strategy.reads_played else unmarked_sets
            for first in Player:
                search = ForcedGameSolver(g, strategy, Player.DOMINATOR)
                search.value_from(0, first)
                assert len(search._table) == FORCED_TABLE_SIZES[text, name, first]
                for key in search._table:
                    assert key >> 1 in reached and key & 1 == 0, (text, name, key)
    # The random strategy's played-set keys, told apart from unmarked sets
    # on P3+C6: on C6 and P5 every key it stores is also a reachable ``U``.
    search = ForcedGameSolver(g, strategies["random"], Player.DOMINATOR)
    search.value_from(0, Player.DOMINATOR)
    assert any(key >> 1 not in unmarked_sets for key in search._table)
    # At most one entry per free-side (U, Staller) state that greedy-forced
    # play reaches.
    g = from_shorthand("C6+C6+C6")
    greedy = GreedyDominator()
    for first, size in ((Player.DOMINATOR, 138), (Player.STALLER, 253)):
        start = (marked_set(g, 0).unmarked, first)
        states = {start}
        frontier = [start]
        while frontier:
            unmarked, mover = frontier.pop()
            if mover is Player.DOMINATOR:
                moves = [greedy.choose(g, unmarked, mover, None, 0)]
            else:
                moves = iter_bits(open_neighborhood(g, unmarked))
            for v in moves:
                child = (_step(g.adj, unmarked, v), mover.other)
                if child[0] and child not in states:
                    states.add(child)
                    frontier.append(child)
        free = {unmarked for unmarked, mover in states if mover is Player.STALLER}
        search = ForcedGameSolver(g, greedy, Player.DOMINATOR)
        search.value_from(0, first)
        assert len(search._table) == size <= len(free)
        assert {key >> 1 for key in search._table} <= free
    for text, size in (("C6", 4), ("P3+C6", 9)):
        g = from_shorthand(text)
        unmarked_sets = {marked_set(g, played).unmarked for played in _histories(g)}
        search = ForcedGameSolver(g, ExtremalStaller(), Player.STALLER)
        search.value_from(0, Player.DOMINATOR)
        assert len(search._table) == size, text
        for key in search._table:
            assert key >> 1 in unmarked_sets and key & 1 == 1, (text, key)


def _forced_windowed(search, played, mover, last, alpha, beta):
    """The forced search from ``played`` under the window ``(alpha, beta)``:
    ``Solver._search`` at a free-side position, the forced step at one of
    the strategy's."""
    search._played = played
    unmarked = marked_set(search.graph, played).unmarked
    if mover is search.fixed_role:
        return search._forced_reply(unmarked, last, alpha, beta)
    return search._search(unmarked, search._free_dom, alpha, beta)


def test_forced_search_honours_every_window():
    """Under any window a forced result inside it is exact, one at or below
    alpha an upper bound and one at or above beta a lower bound, at free-side
    and forced-side positions, from a fresh table and from one shared with
    every earlier window, taken in a seeded order; the shared table then
    still gives exact values."""
    rng = random.Random(19)
    for _ in range(10):
        g = random_connected(rng.randint(3, 7), 0.5, 1, seed=rng.random())
        histories = _histories(g)
        sample = rng.sample(sorted(histories), min(4, len(histories)))
        windows = [(alpha, beta) for alpha in range(-1, g.n + 1)
                   for beta in range(alpha + 1, g.n + 2)]
        for strategy in (GreedyDominator(), ModifiedGreedyDominator(),
                         RandomStrategy(5)):
            shared = ForcedGameSolver(g, strategy, Player.DOMINATOR)
            for played in sample:
                history = histories[played]
                last = history[-1] if history else None
                for first in Player:
                    exact = oracles.brute_forced_value(g, strategy, Player.DOMINATOR,
                                                       first, history)
                    mover = first if len(history) % 2 == 0 else first.other
                    rng.shuffle(windows)
                    for alpha, beta in windows:
                        for search in (shared, ForcedGameSolver(
                                g, strategy, Player.DOMINATOR)):
                            got = _forced_windowed(search, played, mover, last,
                                                   alpha, beta)
                            if got <= alpha:
                                assert exact <= got
                            elif got >= beta:
                                assert exact >= got
                            else:
                                assert got == exact
                    assert shared.value_from(played, mover, last) == exact


def test_forced_table_never_keys_on_orbits():
    """On C12 ``Solver`` keys on automorphism orbits (n > 8, 24 found), but
    a forced search must not, and builds no orbit tables: greedy's
    lowest-index ties make automorphic states differ. Greedy- and
    modified-greedy-forced values from every position two moves in, each
    strategy on one shared table, match the memo-free oracle; an
    orbit-keyed forced table gets 8 of these 264 wrong."""
    g = cycle(12)
    assert Solver(g)._images is not None
    two_in = [h for h in _histories(g).values() if len(h) == 2]
    assert len(two_in) == 66
    for strategy in (GreedyDominator(), ModifiedGreedyDominator()):
        search = ForcedGameSolver(g, strategy, Player.DOMINATOR)
        assert search._images is None
        for history in two_in:
            for first in Player:
                want = oracles.brute_forced_value(g, strategy, Player.DOMINATOR,
                                                  first, history)
                assert search.value_from(vertex_set(history), first,
                                         history[-1]) == want, (strategy.name,
                                                                history, first)


def test_forced_memo_shares_unmarked_sets_and_not_orbits():
    """Played sets with the same unmarked set share one entry and value on
    C9 and P3+C6. Automorphic unmarked sets do not: on P7 and C8 greedy's
    lowest-index ties give two of them different forced values, so the memo
    keys on ``U`` itself rather than on its orbit."""
    greedy = GreedyDominator()
    for text in ("C9", "P3+C6"):
        g = from_shorthand(text)
        histories = _histories(g)
        reaching = {}
        for played in histories:
            reaching.setdefault(marked_set(g, played).unmarked, []).append(played)
        pairs = [ps[:2] for u, ps in sorted(reaching.items()) if u and len(ps) > 1]
        assert len(pairs) >= 20, text
        search = ForcedGameSolver(g, greedy, Player.DOMINATOR)
        for one, other in pairs:
            for mover in Player:
                value = search.value_from(one, mover)
                entries = len(search._table)
                assert search.value_from(other, mover) == value, (text, one, other)
                assert len(search._table) == entries
        for pair in pairs[:6]:
            for mover in Player:
                want = search.value_from(pair[0], mover)
                for played in pair:
                    history = histories[played]
                    first = mover if len(history) % 2 == 0 else mover.other
                    assert oracles.brute_forced_value(g, greedy, Player.DOMINATOR,
                                                      first, history) == want
    for text, u, image, mover, values in (
            ("P7", 0b1110101, 0b1010111, Player.DOMINATOR, (3, 4)),
            ("C8", 0b01111101, 0b11110101, Player.STALLER, (5, 4))):
        g = from_shorthand(text)
        histories = _histories(g)
        reaching = {}
        for played in histories:
            reaching.setdefault(marked_set(g, played).unmarked, played)
        assert any(image == vertex_set(sigma[v] for v in iter_bits(u))
                   for sigma in _automorphisms(g, 4 * g.n))
        search = ForcedGameSolver(g, greedy, Player.DOMINATOR)
        for unmarked, want in zip((u, image), values):
            played = reaching[unmarked]
            first = mover if len(histories[played]) % 2 == 0 else mover.other
            assert search.value_from(played, mover) == want
            assert oracles.brute_forced_value(g, greedy, Player.DOMINATOR, first,
                                              histories[played]) == want


def test_readme_library_block_runs():
    """The ``## Library`` example in README.md runs as written, and the
    values its comments state hold."""
    import ast
    from pathlib import Path
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values["cp_gap(cycle(5))"] == -1
    assert values["ExtremalStaller().choose(g, unmarked, Player.STALLER, 1, 1 << 1)"] == 0
    assert values["ExtremalStaller().note(g, unmarked, 1)"] is None
    assert values["forced.best_move(0, Player.STALLER)"] in range(namespace["g"].n)
