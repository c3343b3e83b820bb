from types import SimpleNamespace

import pytest

from isogame import oracles
from isogame.engine import Player
from isogame.errors import GraphDomainError, SolverCapError
from isogame.families import complete, cycle, disjoint_union, path
from isogame.graph import Graph
from isogame.solver import solve_both


def test_brute_point_values():
    assert oracles.brute_solve(path(5), Player.DOMINATOR) == 2
    assert oracles.brute_solve(path(5), Player.STALLER) == 4
    assert oracles.brute_solve(cycle(4), Player.STALLER) == 2


def test_brute_cap():
    with pytest.raises(SolverCapError):
        oracles.brute_solve(path(13), Player.DOMINATOR)


def test_brute_rejects_isolates():
    with pytest.raises(GraphDomainError):
        oracles.brute_solve(Graph(3, [(0, 1)]), Player.DOMINATOR)


def test_iota_examples():
    assert oracles.iota(path(5)) == 1
    assert oracles.iota_t(path(5)) == 2
    for k in range(2, 7):
        assert oracles.iota_t(complete(k)) == 2


def test_iota_t_rejects_isolates():
    with pytest.raises(GraphDomainError):
        oracles.iota_t(Graph(3, [(0, 1)]))


def test_subset_search_cap():
    with pytest.raises(SolverCapError):
        oracles.iota(complete(25))


def test_parameter_chain_small(small_connected):
    """iota <= iota_t <= igt and iota_t <= igtS on every small graph."""
    for g in small_connected:
        igt, igts = solve_both(g)
        low = oracles.iota(g)
        low_total = oracles.iota_t(g)
        assert low <= low_total <= igt
        assert low_total <= igts


def test_distances_read_only_the_order_and_the_neighbors():
    """The oracle's search asks a graph for nothing but ``n`` and
    ``neighbors(v)``, so it shares no code with the bitset searches."""
    g = disjoint_union([cycle(6), path(4), complete(3)])
    standin = SimpleNamespace(n=g.n, neighbors=g.neighbors)
    rows = oracles.distances(standin)
    assert rows == oracles.distances(g)
    assert rows[0][:6] == (0, 1, 2, 3, 2, 1) and rows[0][6] == -1
