"""Bound formulas, applicability, strictness, and exact rational checks."""

import random
from fractions import Fraction

import pytest

from isogame import oracles
from isogame.bounds import (BOUNDS, GraphFacts, bound_names, bounds_by_name,
                            check_all, check_bound, largest_satisfying,
                            satisfies)
from isogame.families import complete, cycle, disjoint_union, path
from isogame.graph import INFINITE_DIAMETER, Graph
from isogame.solver import solve_both

SPECS = {spec.name: spec for spec in BOUNDS}


def test_builtin_bound_names():
    assert bound_names() == ("T31", "C32", "T33", "C34", "C35a", "C35b",
                             "T36", "T41", "T42")


def test_bounds_by_name_filter():
    assert [s.name for s in bounds_by_name(["T41", "T31"])] == ["T41", "T31"]
    # A bound named twice is returned once, where it was first named.
    assert [s.name for s in bounds_by_name(["T36", "T41", "T36", "T41"])] \
        == ["T36", "T41"]
    with pytest.raises(KeyError):
        bounds_by_name(["T99"])


def test_c5_values():
    facts = GraphFacts.of(cycle(5))
    igt, igts = solve_both(cycle(5))
    assert (igt, igts) == (3, 2)
    t31 = check_bound(SPECS["T31"], facts, igt, igts)
    assert t31.applicable and t31.value == Fraction(15, 4) and t31.passed
    t33 = check_bound(SPECS["T33"], facts, igt, igts)
    assert t33.value == Fraction(14, 4) and t33.passed
    c34 = check_bound(SPECS["C34"], facts, igt, igts)
    assert c34.value == Fraction(14, 4) and not c34.strict and c34.passed


def test_p5_low_degree_rows():
    facts = GraphFacts.of(path(5))
    igt, igts = solve_both(path(5))
    assert (igt, igts) == (2, 4)
    assert not check_bound(SPECS["T31"], facts, igt, igts).applicable
    t41 = check_bound(SPECS["T41"], facts, igt, igts)
    assert t41.value == Fraction(25, 6) and t41.strict and t41.passed
    t42 = check_bound(SPECS["T42"], facts, igt, igts)
    assert t42.value == Fraction(25, 6) and not t42.strict and t42.passed


def test_k4_diameter_one_row():
    facts = GraphFacts.of(complete(4))
    igt, igts = solve_both(complete(4))
    t36 = check_bound(SPECS["T36"], facts, igt, igts)
    assert t36.applicable and t36.value == Fraction(8, 3) and t36.passed


def test_t36_not_applicable_beyond_diameter_two():
    facts = GraphFacts.of(path(5))
    assert not SPECS["T36"].applies(facts)


def test_strictness_conditions():
    c4 = GraphFacts.of(cycle(4))          # max degree 2
    k4 = GraphFacts.of(complete(4))       # degrees 3
    assert not SPECS["C32"].strict(c4)
    assert SPECS["C32"].strict(k4)
    assert not SPECS["C34"].strict(c4)
    assert SPECS["C34"].strict(k4)
    assert SPECS["T41"].strict(c4)
    assert not SPECS["T42"].strict(c4)


def test_satisfies_is_cross_multiplication():
    bound = Fraction(5, 2)
    assert satisfies(2, bound, True)
    assert not satisfies(3, bound, True)
    assert satisfies(2, bound, False)
    # a strict bound exactly attained must fail
    assert not satisfies(5, Fraction(5, 1), True)
    assert satisfies(5, Fraction(5, 1), False)


@pytest.mark.parametrize("bound", [
    Fraction(5, 2), Fraction(5, 1), Fraction(16, 3), Fraction(18, 3),
    Fraction(19, 4), Fraction(1, 4), Fraction(0, 1), Fraction(-3, 2),
])
@pytest.mark.parametrize("strict", [False, True])
def test_largest_satisfying_is_the_last_value_that_satisfies(bound, strict):
    k = largest_satisfying(bound, strict)
    assert satisfies(k, bound, strict)
    assert not satisfies(k + 1, bound, strict)


def test_largest_satisfying_every_applicable_bound(small_connected):
    for g in small_connected:
        facts = GraphFacts.of(g)
        for spec in BOUNDS:
            if not spec.applies(facts):
                continue
            value, strict = spec.value(facts), spec.strict(facts)
            k = largest_satisfying(value, strict)
            assert satisfies(k, value, strict), (spec.name, facts)
            assert not satisfies(k + 1, value, strict), (spec.name, facts)


def test_check_all_recomputed_by_hand(small_connected):
    """Every pass/fail decision must equal a direct integer
    cross-multiplication, with no floats anywhere."""
    for g in small_connected[:200]:
        igt, igts = solve_both(g)
        facts = GraphFacts.of(g)
        for check in check_all(facts, igt, igts):
            if not check.applicable:
                continue
            num, den = check.value.numerator, check.value.denominator
            achieved = {"igt": igt, "igtS": igts}
            targets = ("igt", "igtS") if check.target == "both" else (check.target,)
            expected = all(
                achieved[t] * den < num if check.strict else achieved[t] * den <= num
                for t in targets)
            assert check.passed == expected
            assert isinstance(check.value, Fraction)


def test_bound_nesting(corpus_graphs):
    """T31 never exceeds C32, and C32 never exceeds the 3n/4 bound,
    wherever both of a pair apply."""
    for g in corpus_graphs[:2000]:
        facts = GraphFacts.of(g)
        if SPECS["T31"].applies(facts):
            assert SPECS["T31"].value(facts) <= SPECS["C32"].value(facts)
        if SPECS["C32"].applies(facts):
            assert SPECS["C32"].value(facts) <= SPECS["C35a"].value(facts)


def _facts_agree_with_the_graph(g):
    facts = GraphFacts.of(g)
    assert facts.connected == g.is_connected()
    if facts.connected:
        assert facts.diameter == max(max(row) for row in oracles.distances(g))
    else:
        assert facts.diameter == INFINITE_DIAMETER
        assert any(-1 in row for row in oracles.distances(g))


def test_facts_take_connectivity_from_the_diameter_sweep(corpus_graphs):
    """``GraphFacts.of`` reads connectivity off the diameter's sweep; it
    agrees with the components and the distance matrix on the corpus and on
    relabelled unions, connected (one part) and disconnected, whichever
    component the first breadth-first search starts in."""
    for g in corpus_graphs[::7]:
        _facts_agree_with_the_graph(g)
    _facts_agree_with_the_graph(path(1))
    rng = random.Random(37)
    parts = [path(1), path(2), path(3), path(5), cycle(4), complete(4)]
    for _ in range(200):
        g = disjoint_union(rng.sample(parts, rng.randint(1, 3)))
        order = list(range(g.n))
        rng.shuffle(order)
        _facts_agree_with_the_graph(
            Graph(g.n, [(order[u], order[v]) for u, v in g.edges]))
