"""Standard graph families, random generation, and the family shorthand.

Shorthand grammar: ``(P|C|K)<int>`` terms joined by ``+`` for disjoint
unions, whitespace-insensitive, e.g. ``P5``, ``C6``, ``P3+C6``.
"""

from __future__ import annotations

import random
import re

from .errors import GenerationError, GraphDomainError
from .graph import ORDER_LIMIT, Graph

RANDOM_RETRY_CAP = 10_000
# The coin flips of all samples: the retry cap's worth at n = 62, 36 at n = 1024.
RANDOM_FLIP_CAP = RANDOM_RETRY_CAP * (62 * 61 // 2)

_TERM_RE = re.compile(r"([PCKpck])(\d+)")


def path(k: int) -> Graph:
    if k < 1:
        raise GraphDomainError(f"path needs at least 1 vertex, got {k}")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    if k < 3:
        raise GraphDomainError(f"cycle needs at least 3 vertices, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete(k: int) -> Graph:
    if k < 1:
        raise GraphDomainError(f"complete graph needs at least 1 vertex, got {k}")
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def disjoint_union(parts: list[Graph]) -> Graph:
    """Relabel the parts consecutively block by block and take their union."""
    n = sum(g.n for g in parts)
    edges = []
    offset = 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(n, edges)


def random_connected(n: int, p: float, min_degree: int = 1,
                     seed: int | None = None) -> Graph:
    """Sample G(n, p) until connected with the required minimum degree.

    Deterministic for a fixed seed; raises :class:`GenerationError` after
    ``RANDOM_RETRY_CAP`` failed samples, or as many as flip ``RANDOM_FLIP_CAP`` coins.
    """
    if n < 1:
        raise GraphDomainError(f"need at least 1 vertex, got {n}")
    if not 0 < p < 1:
        raise GraphDomainError(f"edge probability must be in (0, 1), got {p}")
    _check_buildable(n)
    if min_degree > n - 1:
        raise GraphDomainError(f"no graph on {n} vertices has min degree {min_degree}")
    samples = min(RANDOM_RETRY_CAP, RANDOM_FLIP_CAP // max(1, n * (n - 1) // 2))
    rng = random.Random(seed)
    for _ in range(samples):
        g = random_graph(n, p, rng)
        if g.is_connected() and g.min_degree >= min_degree:
            return g
    raise GenerationError(
        f"no connected graph with min degree {min_degree} found in "
        f"{samples} samples of G({n}, {p})")


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """One G(n, p) sample, no connectivity retry."""
    _check_buildable(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _terms(text: str) -> list[tuple[str, int]]:
    """The (kind, order) terms of a family shorthand, kinds upper-cased."""
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise GraphDomainError("empty family shorthand")
    terms = []
    for term in compact.split("+"):
        match = _TERM_RE.fullmatch(term)
        if match is None:
            raise GraphDomainError(
                f"bad family term {term!r}; expected P<k>, C<k>, or K<k>")
        digits = match.group(2)
        try:
            k = int(digits)
        except ValueError:  # more digits than int() converts
            raise GraphDomainError(f"a term's order of {len(digits)} digits "
                                   f"exceeds the order limit {ORDER_LIMIT}") from None
        terms.append((match.group(1).upper(), k))
    return terms


def shorthand_order(text: str) -> int:
    """The order of the graph a family shorthand names, without building it."""
    return sum(k for _, k in _terms(text))


def _check_buildable(n: int) -> None:
    if n > ORDER_LIMIT:
        raise GraphDomainError(f"n={n} exceeds the order limit {ORDER_LIMIT}")


def from_shorthand(text: str) -> Graph:
    """Build a graph from family shorthand like ``P5`` or ``P3+C6``, of at
    most ``ORDER_LIMIT`` vertices in all."""
    terms = _terms(text)
    _check_buildable(sum(k for _, k in terms))
    builders = {"P": path, "C": cycle, "K": complete}
    parts = [builders[kind](k) for kind, k in terms]
    return parts[0] if len(parts) == 1 else disjoint_union(parts)
