"""Graph construction, neighborhoods, and structural predicates."""

import pickle
import random

import pytest

from isogame import oracles
from isogame.errors import GraphDomainError
from isogame.families import complete, cycle, disjoint_union, path, random_connected
from isogame.graph import (INFINITE_DIAMETER, Graph, closed_neighborhood,
                           induced_subgraph, is_independent, is_packing,
                           open_neighborhood, vertex_set, vertices_of)

from conftest import random_isolate_free

P5 = path(5)
V = vertex_set


def test_simple_undirected_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 1)])  # duplicate edge collapses
    assert g.m == 3
    for v in range(g.n):
        assert not g.adj[v] >> v & 1
        for u in g.neighbors(v):
            assert v in g.neighbors(u)


def test_edges_and_m_are_the_deduplicated_input_pairs():
    """``edges`` lists each input pair once as ``(u, v)`` with ``u < v``, in
    sorted order, whatever the repeats and orientation of the input, and a
    pickle round trip keeps ``n``, ``edges`` and the labels. A graph pickles
    as its adjacency, so pickling builds no ``edges`` tuple."""
    rng = random.Random(29)
    cases = [(0, []), (1, []), (2, [(1, 0), (0, 1), (1, 0)]),
             (4, [(3, 2), (0, 1), (2, 3), (1, 0), (2, 1), (1, 2)])]
    for _ in range(100):
        n = rng.randint(2, 12)
        cases.append((n, [tuple(rng.sample(range(n), 2))
                          for _ in range(rng.randint(0, 2 * n))]))
    for n, pairs in cases:
        want = tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs}))
        for g in (Graph(n, pairs), Graph(n, pairs, [f"x{i}" for i in range(n)])):
            back = pickle.loads(pickle.dumps(g))
            assert "edges" not in g.__dict__ and "edges" not in back.__dict__
            assert g.edges == want
            assert g.m == len(want)
            assert (back.n, back.edges, back.labels, back.adj, back.degrees) \
                == (g.n, g.edges, g.labels, g.adj, g.degrees)


def test_rejects_self_loops_and_bad_vertices():
    with pytest.raises(GraphDomainError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphDomainError):
        Graph(3, [(0, 3)])


def test_open_neighborhood_examples():
    assert open_neighborhood(P5, V([2])) == V([1, 3])
    assert open_neighborhood(P5, 0) == 0
    c4 = cycle(4)
    assert open_neighborhood(c4, V([0, 2])) == V([1, 3])


def test_open_neighborhood_rejects_out_of_range_member():
    with pytest.raises(GraphDomainError):
        open_neighborhood(P5, 1 << 5)


def test_closed_neighborhood_examples():
    assert closed_neighborhood(P5, V([2])) == V([1, 2, 3])
    assert closed_neighborhood(P5, 0) == 0
    k4 = complete(4)
    assert closed_neighborhood(k4, V([0])) == k4.full_mask


def test_neighborhood_of_singleton_is_adjacency():
    rng = random.Random(11)
    for _ in range(50):
        g = random_isolate_free(rng)
        for v in range(g.n):
            assert open_neighborhood(g, 1 << v) == g.adj[v]


def test_open_neighborhood_monotone():
    rng = random.Random(13)
    for _ in range(200):
        g = random_isolate_free(rng)
        small = rng.getrandbits(g.n) & g.full_mask
        big = small | (rng.getrandbits(g.n) & g.full_mask)
        assert open_neighborhood(g, small) | open_neighborhood(g, big) \
            == open_neighborhood(g, big)


def test_independence_and_packing_examples():
    assert is_packing(P5, V([0, 3]))
    assert not is_packing(P5, V([0, 2]))
    assert is_independent(P5, V([0, 2]))
    assert is_packing(P5, V([4]))
    assert is_independent(P5, V([4]))
    assert is_packing(P5, 0) and is_independent(P5, 0)


def test_packing_implies_independent_sampled():
    rng = random.Random(17)
    for _ in range(500):
        g = random_isolate_free(rng)
        members = rng.getrandbits(g.n) & g.full_mask
        if is_packing(g, members):
            assert is_independent(g, members)


def test_diameter_and_components():
    assert P5.diameter == 4
    assert complete(2).diameter == 1
    assert complete(7).diameter == 1
    both = disjoint_union([path(3), cycle(3)])
    assert both.diameter == INFINITE_DIAMETER
    assert len(both.components) == 2
    assert not both.is_connected()
    assert P5.is_connected()


def test_diameter_sentinel_is_not_an_integer():
    both = disjoint_union([path(3), cycle(3)])
    assert not isinstance(both.diameter, int)
    assert not both.diameter <= 2


def test_empty_graph_structure_errors():
    g = Graph(0, [])
    assert g.degrees == ()
    with pytest.raises(GraphDomainError):
        g.diameter
    with pytest.raises(GraphDomainError):
        g.components
    with pytest.raises(GraphDomainError):
        g.min_degree
    with pytest.raises(GraphDomainError):
        g.max_degree


def test_component_partition_covers_exactly_once():
    rng = random.Random(19)
    for _ in range(100):
        g = random_isolate_free(rng)
        union = 0
        for comp in g.components:
            assert union & comp == 0
            union |= comp
        assert union == g.full_mask


def test_handshake_and_symmetry_on_random_graphs():
    for seed in range(30):
        g = random_connected(10, 0.4, 1, seed=seed)
        assert g.degrees == tuple(sum(v in edge for edge in g.edges)
                                  for v in range(g.n))
        assert all(g.adj[u] >> v & 1 and g.adj[v] >> u & 1 for u, v in g.edges)
        assert g.min_degree == min(g.degrees)
        assert g.max_degree == max(g.degrees)


def test_distance_matrix_agrees_with_diameter():
    c6 = cycle(6)
    assert oracles.distances(c6)[0][3] == 3
    assert c6.diameter == 3


def _assert_components_and_diameter_match_the_oracle(g):
    """``Graph.components`` are the vertex sets each source reaches in
    ``oracles.distances``, ordered by smallest member, and ``Graph.diameter``
    is its largest distance, or infinite when some pair is unreachable."""
    rows = oracles.distances(g)
    reached = {sum(1 << w for w, d in enumerate(row) if d >= 0) for row in rows}
    assert g.components == tuple(sorted(reached, key=lambda comp: comp & -comp))
    if len(reached) == 1:
        assert g.diameter == max(max(row) for row in rows)
    else:
        assert g.diameter == INFINITE_DIAMETER


def test_components_and_diameter_match_the_oracle_on_the_corpus(corpus_graphs):
    for g in corpus_graphs:
        _assert_components_and_diameter_match_the_oracle(g)


def test_components_and_diameter_match_the_oracle_on_paths_cycles_and_k1():
    for n in range(2, 21):
        _assert_components_and_diameter_match_the_oracle(path(n))
        assert path(n).diameter == n - 1
    for n in range(3, 21):
        _assert_components_and_diameter_match_the_oracle(cycle(n))
        assert cycle(n).diameter == n // 2
    k1 = Graph(1, [])
    assert k1.diameter == 0.0 and oracles.distances(k1) == ((0,),)
    _assert_components_and_diameter_match_the_oracle(complete(2))


def test_unions_keep_the_infinite_diameter_and_unreachable_distances():
    for parts in ([path(3), cycle(3)], [cycle(6), cycle(6), path(2)],
                  [complete(4), path(5)]):
        g = disjoint_union(parts)
        assert g.diameter == INFINITE_DIAMETER
        assert not isinstance(g.diameter, int)
        _assert_components_and_diameter_match_the_oracle(g)
        assert len(g.components) == len(parts)
        first, last = 0, g.n - 1
        assert oracles.distances(g)[first][last] == -1


def test_induced_subgraph_keeps_structure():
    both = disjoint_union([path(3), cycle(6)])
    comp = both.components[1]
    sub, originals = induced_subgraph(both, comp)
    assert sub.n == 6 and sub.m == 6
    assert originals == vertices_of(comp)
    assert all(d == 2 for d in sub.degrees)


def test_labels_default_and_custom():
    assert P5.label(2) == "v3"
    g = Graph(2, [(0, 1)], labels=["a", "b"])
    assert g.labels == ("a", "b")
    with pytest.raises(GraphDomainError):
        Graph(2, [(0, 1)], labels=["only-one"])


def test_vertex_set_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        members = sorted(rng.sample(range(30), rng.randint(0, 10)))
        assert list(vertices_of(vertex_set(members))) == members
