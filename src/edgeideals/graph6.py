"""graph6 codec (short form, n <= 62).

Layout: one byte 63+n, then the upper triangle of the adjacency matrix read
column by column ((0,1), (0,2), (1,2), (0,3), ...), packed big-endian six
bits per byte, each byte offset by 63.
"""

from __future__ import annotations

from .graphs import Graph

HEADER = ">>graph6<<"


def graph6_from_rows(n: int, rows) -> str:
    """graph6 of the graph on 0..n-1 whose i < j are adjacent when bit i of rows[j] is set, or
    full neighbour masks: bits j and above of rows[j] are not read."""
    if n > 62:
        raise ValueError("only graphs with at most 62 vertices are supported")
    out = [chr(63 + n)]
    val = used = 0
    for j in range(1, n):
        for i in range(j):
            val = (val << 1) | ((rows[j] >> i) & 1)
            used += 1
            if used == 6:
                out.append(chr(63 + val))
                val = used = 0
    if used:
        out.append(chr(63 + (val << (6 - used))))
    return "".join(out)


def graph_to_graph6(g: Graph) -> str:
    return graph6_from_rows(g.n, g._masks)


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    n = ord(s[0]) - 63
    if n < 0 or n > 62:
        raise ValueError(f"unsupported graph6 size byte {s[0]!r} (need n <= 62)")
    need = (n * (n - 1) // 2 + 5) // 6
    data = s[1:]
    if len(data) != need:
        raise ValueError(f"graph6 string has {len(data)} data bytes, expected {need}")
    bits = []
    for ch in data:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 byte {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def iter_graph6(lines):
    """Decode an iterable of graph6 lines one at a time, skipping blanks and the format header."""
    return (graph_from_graph6(s) for s in map(str.strip, lines) if s and s != HEADER)
