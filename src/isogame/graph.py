"""Immutable simple undirected graphs over dense integer vertices.

Vertices are ``0 .. n-1``. Vertex sets are plain ``int`` bitmasks (bit ``v``
set means vertex ``v`` is a member), which keeps solver state keys cheap and
set algebra down to ``| & ^ ~``. :func:`vertex_set` and :func:`vertices_of`
convert between masks and iterables at API boundaries.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import GraphDomainError

INFINITE_DIAMETER = float("inf")

# The most vertices of a graph built from a family shorthand, an edge list or
# a random sample, checked before anything is allocated. A complete graph of
# this order peaks at about 66 MB of RSS, and one of twice it at about
# 223 MB (Python 3.11, x86-64).
ORDER_LIMIT = 1024


def vertex_set(vertices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of vertex indices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertices_of(mask: int) -> tuple[int, ...]:
    """Expand a bitmask into a sorted tuple of vertex indices."""
    return tuple(iter_bits(mask))


class Graph:
    """A simple undirected graph with cached structural data.

    The adjacency masks are the stored form; ``edges`` is derived from
    them. The degree tuple and the degree extremes are stored with them, so
    reading them costs an attribute lookup. Both constructors, the checked
    ``Graph(n, edges, labels)`` and ``_from_adjacency`` (for decoders and
    unpickling), end in ``_assign``, the one place that sets the fields.
    Instances are immutable after construction and pickle as their
    adjacency masks and labels, so they are cheap to share across workers.
    ``labels`` keeps the caller's vertex names for reports; when omitted,
    vertex ``i`` is displayed as ``v{i+1}``.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Sequence[str] | None = None):
        if n < 0:
            raise GraphDomainError(f"vertex count must be nonnegative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphDomainError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise GraphDomainError(f"self-loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if labels is not None and len(labels) != n:
            raise GraphDomainError(f"expected {n} labels, got {len(labels)}")
        self._assign(tuple(adj), tuple(labels) if labels is not None else None)

    @classmethod
    def _from_adjacency(cls, adj: tuple[int, ...],
                        labels: tuple[str, ...] | None = None) -> "Graph":
        """A graph on ``len(adj)`` vertices with these neighbor masks and
        labels, taken as they are: each mask must lie inside the vertex
        range, hold no loop, and agree with the others (``v`` in ``adj[u]``
        exactly when ``u`` is in ``adj[v]``), and ``labels`` is None or one
        label per vertex. For decoders and unpickling, which have valid
        masks by construction; :meth:`__init__` is the checked constructor."""
        g = cls.__new__(cls)
        g._assign(adj, labels)
        return g

    def _assign(self, adj: tuple[int, ...], labels: tuple[str, ...] | None) -> None:
        """Set every field; both constructors end here."""
        n = len(adj)
        degrees = tuple(map(int.bit_count, adj))
        self._n = n
        self._adj = adj
        self._labels = labels
        self._full = (1 << n) - 1
        self._degrees = degrees
        self._low = min(degrees) if n else None
        self._high = max(degrees) if n else None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return sum(self._degrees) // 2

    @property
    def adj(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks."""
        return self._adj

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as ``(u, v)`` with ``u < v``, in sorted order."""
        return tuple((u, v) for u in range(self._n)
                     for v in iter_bits(self._adj[u] & ~((2 << u) - 1)))

    @property
    def full_mask(self) -> int:
        """Bitmask of the whole vertex set."""
        return self._full

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return vertices_of(self._adj[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def label(self, v: int) -> str:
        self._check_vertex(v)
        return self._labels[v] if self._labels is not None else f"v{v + 1}"

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.label(v) for v in range(self._n))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphDomainError(f"vertex {v} outside range 0..{self._n - 1}")

    def _check_subset(self, mask: int) -> None:
        if mask < 0 or mask & ~self._full:
            raise GraphDomainError(f"vertex set {mask:#x} not a subset of 0..{self._n - 1}")

    # -- cached structure --------------------------------------------------

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    @property
    def min_degree(self) -> int:
        if self._low is None:
            raise GraphDomainError("degree undefined on the empty graph")
        return self._low

    @property
    def max_degree(self) -> int:
        if self._high is None:
            raise GraphDomainError("degree undefined on the empty graph")
        return self._high

    @cached_property
    def components(self) -> tuple[int, ...]:
        """Connected components as bitmasks, ordered by smallest member."""
        if self._n == 0:
            raise GraphDomainError("components undefined on the empty graph")
        comps = []
        rest = self._full
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                frontier = open_neighborhood(self, frontier) & ~comp
                comp |= frontier
            comps.append(comp)
            rest &= ~comp
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.components) == 1

    @cached_property
    def diameter(self) -> float:
        """Maximum eccentricity; ``INFINITE_DIAMETER`` when disconnected.

        The sentinel is deliberately not an integer so that predicates like
        "diameter at most 2" can never silently hold on disconnected input.
        """
        if self._n == 0:
            raise GraphDomainError("diameter undefined on the empty graph")
        # One breadth-first search per source, stopped once it has seen the
        # whole graph: its level count is the eccentricity. A frontier that
        # empties first means the graph is disconnected, which the first
        # source already finds.
        adj, full = self._adj, self._full
        widest = 0
        for source in range(self._n):
            seen = frontier = 1 << source
            depth = 0
            while seen != full:
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    grow |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = grow & ~seen
                if not frontier:
                    return INFINITE_DIAMETER
                seen |= frontier
                depth += 1
            if depth > widest:
                widest = depth
        return float(widest)

    # -- misc --------------------------------------------------------------

    def __reduce__(self):
        return (Graph._from_adjacency, (self._adj, self._labels))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


def induced_subgraph(g: Graph, members: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on a vertex mask, plus the local-to-original map."""
    g._check_subset(members)
    originals = vertices_of(members)
    index = {v: i for i, v in enumerate(originals)}
    edges = [(index[u], index[v]) for u, v in g.edges
             if members >> u & 1 and members >> v & 1]
    labels = [g.label(v) for v in originals] if g._labels is not None else None
    return Graph(len(originals), edges, labels=labels), originals


# -- neighborhood and set predicates ---------------------------------------

def open_neighborhood(g: Graph, members: int) -> int:
    """Union of the neighbor sets of ``members``; may intersect ``members``."""
    g._check_subset(members)
    adj = g.adj
    out = 0
    while members:
        low = members & -members
        out |= adj[low.bit_length() - 1]
        members ^= low
    return out


def closed_neighborhood(g: Graph, members: int) -> int:
    """Open neighborhood together with ``members`` itself."""
    return open_neighborhood(g, members) | members


def is_independent(g: Graph, members: int) -> bool:
    """True when no edge joins two members."""
    return not open_neighborhood(g, members) & members


def is_packing(g: Graph, members: int) -> bool:
    """True when members are pairwise at distance at least 3.

    Equivalently the members' closed neighborhoods are pairwise disjoint.
    """
    g._check_subset(members)
    covered = 0
    for v in iter_bits(members):
        ball = g.adj[v] | 1 << v
        if ball & covered:
            return False
        covered |= ball
    return True
