"""Acceptance suite: one test per release criterion, in order.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion
(add ``-s`` to see the measured numbers). Criteria that sweep the full
corpus of connected graphs on 3..8 vertices are the slow ones; everything
still finishes in a couple of minutes on a laptop.
"""

import random
import time
from itertools import combinations_with_replacement

import pytest

from isogame import oracles
from isogame.engine import Player, is_total_isolating_set, new_game
from isogame.families import complete, cycle, from_shorthand, path
from isogame.graph import is_independent, is_packing, vertices_of
from isogame.lab import diam2_sample, scan_conjecture, verify
from isogame.solver import Solver, cp_gap, solve, solve_both
from isogame.strategies import (BestResponseStrategy, ExtremalStaller,
                                GreedyDominator, ModifiedGreedyDominator,
                                RandomStrategy, best_response_value, simulate,
                                stage_snapshot)

from conftest import random_isolate_free


def _report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_point_values():
    start = time.monotonic()
    assert solve(path(5), Player.DOMINATOR).total_moves == 2
    assert solve(path(5), Player.STALLER).total_moves == 4
    assert solve_both(cycle(4)) == (2, 2)
    assert solve_both(cycle(5)) == (3, 2)
    for k in range(3, 9):
        assert solve_both(complete(k)) == (2, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 1 (point values)",
            f"P5, C4, C5, K3..K8 all exact in {elapsed:.2f}s")


def test_criterion_02_continuation_principle_failure():
    start = time.monotonic()
    gap = cp_gap(path(5))
    assert gap == 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 2 (continuation principle fails)",
            f"igtS(P5) - igt(P5) = +{gap}")


def test_criterion_03_exhaustive_bound_verification(corpus_entries):
    start = time.monotonic()
    result = verify(corpus_entries)
    elapsed = time.monotonic() - start
    assert len(result.reports) == 12111
    assert result.skipped == []
    assert result.failures == 0
    assert elapsed < 600.0
    _report("criterion 3 (exhaustive bounds)",
            f"12111 graphs, 0 failures, {elapsed:.1f}s single-threaded")


def test_criterion_04_conjecture_scan(corpus_entries):
    scan = scan_conjecture(corpus_entries)
    assert scan.checked == 12111
    if scan.counterexamples:  # pragma: no cover - a publishable event
        pytest.fail(
            "CONJECTURE COUNTEREXAMPLE(S) FOUND - verify by hand, this is "
            f"a new result: {scan.counterexamples}")
    _report("criterion 4 (two-thirds conjecture scan)",
            "no igt > 2n/3 among all connected graphs on 3..8 vertices")


def test_criterion_05_extremal_family_exactness():
    start = time.monotonic()
    kinds = {"P3": 3, "C3": 3, "P6": 6, "C6": 6}
    unions = []
    for count in range(1, 5):
        for combo in combinations_with_replacement(sorted(kinds), count):
            if sum(kinds[k] for k in combo) <= 12:
                unions.append("+".join(combo))
    assert len(unions) == 29
    for text in unions:
        g = from_shorthand(text)
        igt = solve(g).total_moves
        assert 3 * igt == 2 * g.n, (text, igt)
        forced = best_response_value(g, ExtremalStaller(), Player.STALLER,
                                     Player.DOMINATOR)
        assert 3 * forced >= 2 * g.n, (text, forced)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("criterion 5 (extremal family exactness)",
            f"igt = 2n/3 on all {len(unions)} unions, forced Staller attains "
            f"it, {elapsed:.1f}s")


def test_criterion_06_oracle_equivalence(corpus_graphs):
    start = time.monotonic()
    small = [g for g in corpus_graphs if g.n <= 7]
    assert len(small) == 994
    for g in small:
        solver = Solver(g)
        igt = solver.value(0, Player.DOMINATOR)
        igts = solver.value(0, Player.STALLER)
        assert igt == oracles.brute_solve(g, Player.DOMINATOR)
        assert igts == oracles.brute_solve(g, Player.STALLER)
        low = oracles.iota(g)
        low_total = oracles.iota_t(g)
        assert low <= low_total <= igt
        assert low_total <= igts
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("criterion 6 (oracle equivalence)",
            f"memoized == brute on all 994 graphs (both movers), parameter "
            f"chain holds, {elapsed:.1f}s")


def test_criterion_07_strategy_level_bounds(corpus_graphs):
    start = time.monotonic()
    greedy = GreedyDominator()
    modified = ModifiedGreedyDominator()
    checked_greedy = 0
    for g in corpus_graphs:
        n, d, big = g.n, g.min_degree, g.max_degree
        if d >= 2:
            forced = best_response_value(g, greedy, Player.DOMINATOR,
                                         Player.DOMINATOR)
            assert forced * (3 * d - 2) <= (2 * d - 1) * n - (big - 2), g
            checked_greedy += 1
        d_game = best_response_value(g, modified, Player.DOMINATOR,
                                     Player.DOMINATOR)
        s_game = best_response_value(g, modified, Player.DOMINATOR,
                                     Player.STALLER)
        assert 6 * d_game < 5 * n, g
        assert 6 * s_game <= 5 * n, g
    elapsed = time.monotonic() - start
    _report("criterion 7 (strategy-level bounds)",
            f"greedy within degree bound on {checked_greedy} graphs, "
            f"modified greedy within 5n/6 on all 12111, {elapsed:.1f}s")


def test_criterion_08_engine_invariant_trials():
    trials = 10_000
    rng = random.Random(2026)
    for _ in range(trials):
        g = random_isolate_free(rng)
        state = new_game(g, rng.choice((Player.DOMINATOR, Player.STALLER)))
        mark_total = 0
        while True:
            playable = state.playable()
            unmarked = state.unmarked()
            assert playable & state.played == 0
            assert (playable == 0) == (unmarked == 0) == state.is_terminal()
            if playable == 0:
                break
            before = unmarked.bit_count()
            state = state.play(rng.choice(vertices_of(playable)))
            gained = before - state.unmarked().bit_count()
            assert gained >= 1
            mark_total += gained
        assert mark_total == g.n
        assert is_total_isolating_set(g, state.played)
    rng = random.Random(4052)
    for _ in range(trials):
        g = random_isolate_free(rng)
        played = rng.getrandbits(g.n) & g.full_mask
        from isogame.engine import playable_set
        assert list(vertices_of(playable_set(g, played))) \
            == oracles.legal_moves(g, set(vertices_of(played)))
    _report("criterion 8 (engine invariants)",
            f"{trials} playouts and {trials} legality cross-checks clean")


def test_criterion_09_stage_instrumentation(corpus_graphs):
    start = time.monotonic()
    greedy = GreedyDominator()
    eligible = [g for g in corpus_graphs if g.min_degree >= 2]
    snapshots = 0
    for g in eligible:
        stallers = [BestResponseStrategy(greedy, Player.STALLER),
                    RandomStrategy(1), RandomStrategy(2)]
        for staller in stallers:
            trace = simulate(g, greedy, staller, Player.DOMINATOR)
            snap = stage_snapshot(trace)
            if snap is None:
                continue
            snapshots += 1
            unmarked = snap.unmarked
            assert is_independent(g, unmarked)
            assert unmarked & snap.played == unmarked
            assert is_packing(g, unmarked)
            assert snap.unmarked_neighbors.bit_count() \
                >= g.min_degree * snap.unmarked_count
            assert snap.remote.bit_count() \
                >= 2 * snap.stage1_dominator_moves - snap.unmarked_count
            assert trace.t == 2 * snap.stage1_dominator_moves + snap.unmarked_count
    elapsed = time.monotonic() - start
    assert snapshots > 0
    _report("criterion 9 (stage instrumentation)",
            f"{len(eligible)} graphs x 3 Stallers, {snapshots} games entered "
            f"the trickle stage, all structural bounds hold, {elapsed:.1f}s")


def test_criterion_10_sampled_claims_reported_not_asserted():
    """The density-of-diameter-2 claim and the asymptotic tightness of the
    degree bound coefficient are desk-scale-unreachable; we sample the
    former and only report the fraction, asserting nothing about it."""
    summary = diam2_sample(n=10, p=0.5, trials=200, seed=1)
    assert summary.violations == []  # the per-sample 2n/3 check must hold
    assert 0.0 <= summary.fraction_diameter2 <= 1.0
    _report("criterion 10 (sampled-only claims)",
            f"diameter-2 fraction at n=10, p=0.5: "
            f"{summary.fraction_diameter2:.2f} (reported, not asserted)")
