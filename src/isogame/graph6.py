"""graph6 and edge-list text formats.

graph6 support is short form only (n <= 62, single size byte, no ``>>graph6``
header); long-form input is rejected so oversized graphs cannot slip past the
solver caps. A line is decoded one column of the upper triangle at a time,
straight into adjacency masks: each column's bits are read with one shift
and mask, and only its set bits are visited. Every byte of the line, its
length and its padding are checked; the pairs need no check, since each
column's rows lie below it by construction.

Edge-list files are ``n`` on the first line followed by ``u v`` pairs with
0-based endpoints; unlisted indices are isolated vertices.
"""

from __future__ import annotations

from .errors import GraphFormatError
from .graph import ORDER_LIMIT, Graph

_MAX_SHORT_N = 62


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 line."""
    text = line.rstrip("\n\r")
    if not text:
        raise GraphFormatError("empty graph6 line", offset=0)
    first = ord(text[0])
    if first == 126:
        raise GraphFormatError("long-form size prefix not supported (n > 62)", offset=0)
    if not 63 <= first <= 126:
        raise GraphFormatError(f"illegal size byte {text[0]!r}", offset=0)
    n = first - 63
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    payload = text[1:]
    if len(payload) < need_bytes:
        raise GraphFormatError(
            f"truncated bit payload: need {need_bytes} bytes, got {len(payload)}",
            offset=1 + len(payload))
    if len(payload) > need_bytes:
        raise GraphFormatError("trailing bytes after bit payload", offset=1 + need_bytes)

    bits = 0
    for i, ch in enumerate(payload):
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise GraphFormatError(f"illegal payload byte {ch!r}", offset=1 + i)
        bits = bits << 6 | value
    shift = need_bytes * 6 - need_bits
    if bits & ((1 << shift) - 1):
        raise GraphFormatError("nonzero padding bits", offset=len(text) - 1)

    # The upper triangle comes column by column, (0,1), (0,2), (1,2), (0,3),
    # ..., the first pair in the highest bit, so the last column lies just
    # above the padding. Columns are read from there up, each as the ``col``
    # bits above the ones already read, row 0 highest.
    adj = [0] * n
    for col in range(n - 1, 0, -1):
        column = bits >> shift & ((1 << col) - 1)
        shift += col
        bit = 1 << col
        rows = 0
        while column:
            low = column & -column
            row = col - low.bit_length()
            adj[row] |= bit
            rows |= 1 << row
            column ^= low
        adj[col] |= rows
    return Graph._from_adjacency(tuple(adj))


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one short-form graph6 line (no newline)."""
    if g.n > _MAX_SHORT_N:
        raise GraphFormatError(f"short-form graph6 caps at n=62, got n={g.n}")
    bits = 0
    count = 0
    for col in range(1, g.n):
        column = g.adj[col]
        for row in range(col):
            bits = bits << 1 | (column >> row & 1)
            count += 1
    pad = (-count) % 6
    bits <<= pad
    count += pad
    chars = [chr(g.n + 63)]
    for shift in range(count - 6, -1, -6):
        chars.append(chr((bits >> shift & 0x3F) + 63))
    return "".join(chars)


def edge_list_order(text: str) -> int:
    """The vertex count on an edge list's first non-blank line, read
    without the edges."""
    header = next((ln for ln in (raw.strip() for raw in text.splitlines()) if ln), None)
    if header is None:
        raise GraphFormatError("empty edge-list input")
    try:
        n = int(header)
    except ValueError:
        raise GraphFormatError(f"first line must be the vertex count, got {header!r}")
    if n < 0:
        raise GraphFormatError(f"vertex count must be nonnegative, got {n}")
    return n


def parse_edge_list(text: str) -> Graph:
    """Decode the ``n`` + ``u v`` lines edge-list format, for ``n`` up to
    ``ORDER_LIMIT``."""
    n = edge_list_order(text)
    if n > ORDER_LIMIT:
        raise GraphFormatError(
            f"vertex count {n} exceeds the order limit {ORDER_LIMIT}")
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {line!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: endpoint outside 0..{n - 1}")
        edges.append((u, v))
    return Graph(n, edges, labels=[str(i) for i in range(n)])


def emit_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
