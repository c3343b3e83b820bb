import pytest

from isogame.errors import GenerationError, GraphDomainError
from isogame.families import (complete, cycle, disjoint_union, from_shorthand,
                              path, random_connected)
from isogame.graph import Graph


def test_cycle_degree_sequence():
    c5 = cycle(5)
    assert c5.degrees == (2, 2, 2, 2, 2)
    assert c5.m == 5


def test_cycle_too_small():
    with pytest.raises(GraphDomainError):
        cycle(2)


def test_path_and_complete_shapes():
    assert path(1).n == 1 and path(1).m == 0
    assert path(4).m == 3
    assert complete(5).m == 10
    with pytest.raises(GraphDomainError):
        path(0)


def test_disjoint_union_blocks():
    g = disjoint_union([path(3), cycle(6)])
    assert g.n == 9
    assert sorted(comp.bit_count() for comp in g.components) == [3, 6]
    # block relabeling keeps each part's edges inside its block
    assert all(u < 3 and v < 3 or (u >= 3 and v >= 3) for u, v in g.edges)


def test_random_connected_meets_constraints():
    g = random_connected(12, 0.5, 2, seed=7)
    assert g.n == 12
    assert g.is_connected()
    assert g.min_degree >= 2


def test_random_connected_deterministic_per_seed():
    a = random_connected(10, 0.4, 1, seed=3)
    b = random_connected(10, 0.4, 1, seed=3)
    assert a.edges == b.edges


def test_random_connected_gives_up():
    # connectivity is (essentially) unreachable at this density
    with pytest.raises(GenerationError):
        random_connected(40, 0.01, 5, seed=1)


def test_random_connected_bounds_its_coin_flips(monkeypatch):
    """Up to n = 62 the sample count is the retry cap; above it, the samples
    together flip at most ``RANDOM_FLIP_CAP`` coins, one per vertex pair, so
    at n = 1024 it gives up after 36. A minimum degree above n - 1 is
    refused before any sample."""
    import isogame.families as families
    disconnected = {n: Graph(n, []) for n in (62, 1024)}
    calls = []

    def sample(n, p, rng):
        calls.append(n)
        return disconnected[n]

    monkeypatch.setattr(families, "random_graph", sample)
    for n, samples in ((62, families.RANDOM_RETRY_CAP), (1024, 36)):
        calls.clear()
        with pytest.raises(GenerationError, match=f" {samples} samples of G"):
            random_connected(n, 0.0001, seed=1)
        assert len(calls) == samples
        assert samples * n * (n - 1) // 2 <= families.RANDOM_FLIP_CAP
    calls.clear()
    for n, min_degree in ((1024, 1024), (3, 5), (1, 1)):
        with pytest.raises(GraphDomainError, match="has min degree"):
            random_connected(n, 0.5, min_degree, seed=1)
    assert calls == []


def test_random_connected_rejects_bad_p():
    with pytest.raises(GraphDomainError):
        random_connected(5, 1.5, 1, seed=0)


@pytest.mark.parametrize("text, n, m", [
    ("P5", 5, 4),
    ("C6", 6, 6),
    ("K4", 4, 6),
    ("P3+C6", 9, 8),
    (" p3 + c6 ", 9, 8),
    ("P3+C3+P6+C6", 18, 16),
])
def test_shorthand(text, n, m):
    g = from_shorthand(text)
    assert (g.n, g.m) == (n, m)


@pytest.mark.parametrize("bad", ["", "X5", "P", "5", "P5+", "C2"])
def test_shorthand_rejects_garbage(bad):
    with pytest.raises(GraphDomainError):
        from_shorthand(bad)
