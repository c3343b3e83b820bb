"""graph6 and edge-list codecs, cross-checked against networkx."""

import random
from pathlib import Path

import networkx as nx
import pytest

from isogame.errors import GraphDomainError, GraphFormatError
from isogame.families import complete, random_graph
from isogame.graph import Graph
from isogame.graph6 import (emit_edge_list, emit_graph6, parse_edge_list,
                            parse_graph6)


def test_k4_round_trip_with_edge_count():
    line = emit_graph6(complete(4))
    back = parse_graph6(line)
    assert back.n == 4
    assert back.m == 6


def test_empty_line_is_an_error():
    with pytest.raises(GraphFormatError) as info:
        parse_graph6("")
    assert info.value.offset == 0


def test_long_form_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph6("~??~?????")


def test_illegal_character_reports_offset():
    line = emit_graph6(complete(5))
    broken = line[:2] + "\x1f" + line[3:]
    with pytest.raises(GraphFormatError) as info:
        parse_graph6(broken)
    assert info.value.offset == 2


def test_truncated_payload_reports_offset():
    line = emit_graph6(complete(8))
    with pytest.raises(GraphFormatError) as info:
        parse_graph6(line[:-1])
    assert info.value.offset == len(line) - 1


def test_trailing_bytes_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph6(emit_graph6(complete(4)) + "?")


@pytest.mark.parametrize("text", ["A@", "B@", "Gzzzzz", "Gzzzzz\n"])
def test_nonzero_padding_reports_last_byte(text):
    # n=2 has 1 pair in 6 bits, n=3 has 3 and n=8 has 28 in 30: the
    # lowest bit of the last byte is padding in all three.
    with pytest.raises(GraphFormatError) as info:
        parse_graph6(text)
    assert str(info.value).startswith("nonzero padding bits")
    assert info.value.offset == len(text.rstrip("\n")) - 1


def _networkx_masks(line: str) -> tuple[int, ...]:
    theirs = nx.from_graph6_bytes(line.encode())
    masks = [0] * theirs.number_of_nodes()
    for u, v in theirs.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def _networkx_line(n: int, edges) -> str:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(n))
    nx_graph.add_edges_from(edges)
    return nx.to_graph6_bytes(nx_graph, header=False).decode().strip()


@pytest.mark.parametrize("n", [0, 1, 2, 62])
def test_parse_matches_networkx_at_the_order_limits(n):
    rng = random.Random(n)
    for p in (0.0, 0.1, 0.5, 1.0):
        g = random_graph(n, p, rng)
        line = _networkx_line(n, g.edges)
        ours = parse_graph6(line)
        assert ours.n == n
        assert ours.adj == _networkx_masks(line) == g.adj


def test_every_corpus_line_matches_networkx():
    corpus = Path(__file__).parent / "data" / "connected_3_8.g6"
    lines = corpus.read_text(encoding="ascii").split()
    assert len(lines) == 12111
    for line in lines:
        assert parse_graph6(line).adj == _networkx_masks(line)


def test_decoded_graph_equals_the_checked_constructor():
    rng = random.Random(13)
    for _ in range(300):
        g = random_graph(rng.randint(0, 20), rng.random(), rng)
        back = parse_graph6(emit_graph6(g))
        built = Graph(back.n, back.edges)
        assert (back.n, back.adj, back.full_mask, back.degrees, back.m, back.labels) \
            == (built.n, built.adj, built.full_mask, built.degrees, built.m, built.labels)
        if g.n:
            assert (back.min_degree, back.max_degree) == (built.min_degree, built.max_degree)
        else:
            with pytest.raises(GraphDomainError):
                back.min_degree
            with pytest.raises(GraphDomainError):
                back.max_degree


def test_round_trip_identity_random_graphs():
    rng = random.Random(5)
    for _ in range(10_000):
        g = random_graph(rng.randint(1, 20), rng.random(), rng)
        back = parse_graph6(emit_graph6(g))
        assert back.n == g.n
        assert back.adj == g.adj


def test_emit_matches_networkx():
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng.randint(1, 30), rng.random(), rng)
        assert emit_graph6(g) == _networkx_line(g.n, g.edges)


def test_parse_matches_networkx():
    rng = random.Random(9)
    for _ in range(300):
        g = random_graph(rng.randint(1, 30), rng.random(), rng)
        line = _networkx_line(g.n, g.edges)
        ours = parse_graph6(line)
        theirs = nx.from_graph6_bytes(line.encode())
        assert ours.n == theirs.number_of_nodes()
        assert set(ours.edges) == {(min(u, v), max(u, v)) for u, v in theirs.edges()}


def test_corpus_counts_match_published_enumeration(corpus_graphs):
    by_order = {}
    for g in corpus_graphs:
        by_order[g.n] = by_order.get(g.n, 0) + 1
        assert g.is_connected()
    assert by_order == {3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def test_all_connected_five_vertex_graphs_number_21(corpus_graphs):
    assert sum(1 for g in corpus_graphs if g.n == 5) == 21


def test_edge_list_round_trip():
    g = complete(4)
    text = emit_edge_list(g)
    back = parse_edge_list(text)
    assert back.n == 4 and back.m == 6
    assert back.label(0) == "0"


def test_edge_list_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list("")
    with pytest.raises(GraphFormatError):
        parse_edge_list("abc\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("3\n0 5\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("3\n0 1 2\n")
