"""Game-engine rules: marking, legality, terminal detection, end sets.

The fast bitmask paths are cross-checked against the set-based two-clause
re-derivation in isogame.oracles throughout.
"""

import random

import pytest

from isogame import oracles
from isogame.engine import (GameState, Player, is_isolating_set,
                            is_total_isolating_set, marked_set, new_game,
                            playable_set, replay)
from isogame.errors import GraphDomainError, IllegalMoveError
from isogame.families import complete, cycle, disjoint_union, path, random_graph
from isogame.graph import Graph, vertex_set, vertices_of

from conftest import random_isolate_free

P5 = path(5)
V = vertex_set


def test_marked_set_p5_center():
    part = marked_set(P5, V([2]))
    assert part.unmarked == V([2])
    assert part.marked == V([0, 1, 3, 4])


def test_marked_set_empty_on_isolate_free():
    for g in (P5, cycle(6), complete(4)):
        part = marked_set(g, 0)
        assert part.marked == 0
        assert part.unmarked == g.full_mask


def test_marked_set_c6_single_vertex():
    part = marked_set(cycle(6), V([0]))
    assert part.marked == V([1, 5])
    assert part.unmarked == V([0, 2, 3, 4])


def test_marked_unmarked_partition():
    rng = random.Random(31)
    for _ in range(300):
        g = random_isolate_free(rng)
        played = rng.getrandbits(g.n) & g.full_mask
        part = marked_set(g, played)
        assert part.marked & part.unmarked == 0
        assert part.marked | part.unmarked == g.full_mask


def test_playable_p5_examples():
    assert playable_set(P5, V([2])) == V([1, 3])
    assert playable_set(P5, V([2, 1])) == 0


def test_playable_everything_at_start():
    for g in (P5, cycle(6), complete(5), disjoint_union([path(3), cycle(3)])):
        assert playable_set(g, 0) == g.full_mask


def test_playable_agrees_with_two_clause_rule():
    """The unmarked-neighbor shortcut must match the selection rule as
    stated, on random (graph, played set) pairs."""
    rng = random.Random(37)
    for _ in range(2000):
        g = random_isolate_free(rng)
        played = rng.getrandbits(g.n) & g.full_mask
        fast = vertices_of(playable_set(g, played))
        slow = tuple(oracles.legal_moves(g, set(vertices_of(played))))
        assert fast == slow


def test_marked_agrees_with_oracle():
    rng = random.Random(41)
    for _ in range(1000):
        g = random_isolate_free(rng)
        played = rng.getrandbits(g.n) & g.full_mask
        assert set(vertices_of(marked_set(g, played).marked)) \
            == oracles.marked_vertices(g, set(vertices_of(played)))


def test_root_marking_agrees_with_oracle_with_and_without_isolates():
    """``marked_set(g, 0)`` marks nothing on an isolate-free graph and
    exactly the isolated vertices otherwise, as the oracle derives it, on
    the orders 0, 1 and 2 too."""
    rng = random.Random(43)
    graphs = [Graph(0, []), Graph(1, []), Graph(2, []), Graph(2, [(0, 1)]),
              Graph(5, [(1, 3)]), P5, cycle(6)]
    for _ in range(300):
        p = rng.choice((0.1, 0.3, 0.6))
        graphs.append(random_graph(rng.randint(0, 9), p, rng))
    assert any(g.n and g.min_degree == 0 for g in graphs)
    assert any(g.n and g.min_degree > 0 for g in graphs)
    for g in graphs:
        part = marked_set(g, 0)
        assert set(vertices_of(part.marked)) == oracles.marked_vertices(g, set())
        assert part.marked | part.unmarked == g.full_mask
        assert part.marked & part.unmarked == 0


def test_play_legal_and_terminal_on_p5():
    state = new_game(P5).play(2).play(1)
    assert state.is_terminal()
    assert state.played.bit_count() == 2


def test_k2_forced_two_move_game():
    k2 = complete(2)
    state = new_game(k2).play(0)
    assert vertices_of(state.playable()) == (1,)
    state = state.play(1)
    assert state.is_terminal()
    assert state.played.bit_count() == 2


def test_play_rejects_not_playable():
    state = new_game(P5).play(2)
    with pytest.raises(IllegalMoveError) as info:
        state.play(4)
    assert info.value.reason == "not-playable"


def test_play_rejects_already_played():
    state = new_game(P5).play(2)
    with pytest.raises(IllegalMoveError) as info:
        state.play(2)
    assert info.value.reason == "already-played"


def test_terminal_examples():
    assert replay(P5, [2, 3]).is_terminal()
    assert not new_game(P5).is_terminal()
    c6 = cycle(6)
    state = GameState(c6, V([0, 3]), Player.DOMINATOR)
    assert not state.is_terminal()
    assert state.unmarked() == V([0, 3])


def test_game_rejects_isolates_and_tiny_graphs():
    with pytest.raises(GraphDomainError):
        new_game(Graph(3, [(0, 1)]))  # vertex 2 isolated
    with pytest.raises(GraphDomainError):
        new_game(Graph(1, []))


def test_disconnected_isolate_free_accepted():
    g = disjoint_union([path(3), cycle(3)])
    state = new_game(g)
    assert state.playable() == g.full_mask


def test_isolating_set_examples():
    assert is_total_isolating_set(P5, V([1, 2]))
    assert is_isolating_set(P5, V([2]))
    assert not is_total_isolating_set(P5, V([2]))
    for k in (2, 4, 6):
        g = complete(k)
        assert is_total_isolating_set(g, g.full_mask)
    with_isolate = Graph(3, [(0, 1)])
    assert not is_total_isolating_set(with_isolate, with_isolate.full_mask)


def test_mover_alternates_from_first_mover():
    state = new_game(P5, Player.STALLER)
    assert state.mover is Player.STALLER
    assert state.play(0).mover is Player.DOMINATOR


def _random_playout(g, rng, first=Player.DOMINATOR):
    state = new_game(g, first)
    gains = []
    while not state.is_terminal():
        moves = vertices_of(state.playable())
        before = state.unmarked().bit_count()
        state = state.play(rng.choice(moves))
        gains.append(before - state.unmarked().bit_count())
    return state, gains


def test_playout_invariants():
    """Mark growth, the mark-sum identity, end-set validity, and the
    played/playable disjointness, over random complete games."""
    rng = random.Random(43)
    for _ in range(1500):
        g = random_isolate_free(rng)
        first = rng.choice((Player.DOMINATOR, Player.STALLER))
        state = new_game(g, first)
        total = 0
        while True:
            playable = state.playable()
            assert playable & state.played == 0
            unmarked = state.unmarked()
            assert (playable == 0) == (unmarked == 0)
            if playable == 0:
                break
            before = unmarked.bit_count()
            state = state.play(rng.choice(vertices_of(playable)))
            gained = before - state.unmarked().bit_count()
            assert gained >= 1
            total += gained
        assert total == g.n
        assert is_total_isolating_set(g, state.played)


def test_marking_is_markovian_under_transpositions():
    """Permuting a legal move sequence that stays legal and reaches the
    same played set gives the same marked set."""
    rng = random.Random(47)
    checked = 0
    for _ in range(1000):
        g = random_isolate_free(rng)
        state, _ = _random_playout(g, rng)
        moves = list(vertices_of(state.played))
        rng.shuffle(moves)
        try:
            other = replay(g, moves)
        except IllegalMoveError:
            continue
        assert other.played == state.played
        assert other.marks() == state.marks()
        checked += 1
    assert checked >= 200
