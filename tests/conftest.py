import random
from pathlib import Path

import pytest

from isogame.families import random_graph
from isogame.graph import Graph
from isogame.lab import load_graph6_corpus

DATA_DIR = Path(__file__).parent / "data"
CORPUS_PATH = DATA_DIR / "connected_3_8.g6"


@pytest.fixture(autouse=True)
def default_solver_cap(monkeypatch):
    """Run every test at the default cap, whatever the calling shell sets."""
    monkeypatch.delenv("ISOGAME_SOLVER_CAP", raising=False)


@pytest.fixture(scope="session")
def corpus_entries():
    """All connected graphs on 3..8 vertices, parsed once per session."""
    with open(CORPUS_PATH, encoding="ascii") as handle:
        entries = list(load_graph6_corpus(handle, source="connected_3_8"))
    assert all(entry.graph is not None for entry in entries)
    return entries


@pytest.fixture(scope="session")
def corpus_graphs(corpus_entries):
    return [entry.graph for entry in corpus_entries]


@pytest.fixture(scope="session")
def small_connected(corpus_graphs):
    """Connected graphs with at most 6 vertices (quick exhaustive loops)."""
    return [g for g in corpus_graphs if g.n <= 6]


def random_isolate_free(rng: random.Random, max_n: int = 9):
    """One random isolate-free graph (sizes 2..max_n), for property trials."""
    while True:
        n = rng.randint(2, max_n)
        g = random_graph(n, rng.uniform(0.25, 0.8), rng)
        if n >= 1 and all(d > 0 for d in g.degrees):
            return g


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle, spokes, inner pentagram."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)
