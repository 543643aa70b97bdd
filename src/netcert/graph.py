"""Multigraphs with Z_d edge multiplicities: the graph type, its parsers,
connectivity and local complementation.

A multigraph is a symmetric n x n matrix of multiplicities m_ij in
{0, ..., d-1} with zero diagonal; multiplicity 0 is the same thing as an
absent edge.  This is all of a graph that the proof checker replays, so it
is part of the checker's trusted base (checker, graph, network, errors):
pure Python, importing nothing from netcert but errors.  Canonical forms,
enumeration and orbit walks are in multigraph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DimensionError, ResourceError, StructureError

#: Most vertices a multigraph may have.  The n x n matrix is built before
#: any edge is read, so a larger header is refused first.  1024 vertices is
#: about 1M entries: 10x the largest graph the tests build (a 100-vertex
#: path) and 64x the n = 16 the single-graph path is meant to reach.
_MAX_VERTICES = 1024


@lru_cache(maxsize=64)
def _bits(n: int) -> list[int]:
    """The bit 1 << v of each vertex v of 0..n-1, shared: callers only read it."""
    return [1 << v for v in range(n)]


@dataclass(frozen=True)
class Multigraph:
    """Immutable multigraph: dimension d, vertex count n, multiplicity matrix."""

    d: int
    n: int
    mult: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, d: int, n: int, edges: Iterable[tuple[int, int, int]]) -> "Multigraph":
        """Build from (i, j, m) entries; vertices are 0-indexed."""
        if d < 2:
            raise DimensionError(f"qudit dimension must be >= 2, got {d}")
        if n < 2:
            raise StructureError(f"multigraph needs at least 2 vertices, got {n}")
        if n > _MAX_VERTICES:
            raise ResourceError(f"multigraph has {n} vertices, more than {_MAX_VERTICES}")
        rows = [[0] * n for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for i, j, m in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise StructureError(f"edge ({i},{j}) outside vertex range 0..{n - 1}")
            if i == j:
                raise StructureError(f"self-loop at vertex {i} not allowed")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise StructureError(f"duplicate edge entry for pair {pair}")
            seen.add(pair)
            m %= d
            rows[i][j] = m
            rows[j][i] = m
        return cls(d=d, n=n, mult=tuple(tuple(r) for r in rows))

    @classmethod
    def from_text(cls, text: str) -> "Multigraph":
        """Parse the line format: first line ``d n``, then ``i j m`` lines."""
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if not lines:
            raise StructureError("empty graph description")
        head = lines[0].split()
        if len(head) != 2:
            raise StructureError(f"first line must be 'd n', got {lines[0]!r}")
        try:
            d, n = int(head[0]), int(head[1])
        except ValueError as exc:
            raise StructureError(f"non-integer header {lines[0]!r}") from exc
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 3:
                raise StructureError(f"edge line must be 'i j m', got {ln!r}")
            try:
                edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise StructureError(f"non-integer edge line {ln!r}") from exc
        return cls.from_edges(d, n, edges)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Multigraph":
        """Parse {"d": ..., "n": ..., "edges": [[i, j, m], ...]}; any other
        key is a field no check reads, and is refused."""
        try:
            d, n, edges = obj["d"], obj["n"], obj["edges"]
        except (TypeError, KeyError) as exc:
            raise StructureError(f"graph object needs keys d, n, edges: {obj!r}") from exc
        if extra := [key for key in obj if key not in ("d", "n", "edges")]:
            raise StructureError(f"graph object has keys other than d, n, edges: {extra}")
        # type() is int: JSON true/false load as bools, an int subclass
        if not (type(d) is int and type(n) is int):
            raise StructureError(f"d and n must be integers, got d={d!r}, n={n!r}")
        if not isinstance(edges, (list, tuple)):
            raise StructureError(f"edges must be a list of [i, j, m] triples, got {edges!r}")
        for e in edges:
            triple = isinstance(e, (list, tuple)) and len(e) == 3
            if not (triple and all(type(x) is int for x in e)):
                raise StructureError(f"edge must be an integer triple [i, j, m], got {e!r}")
        return cls.from_edges(d, n, [tuple(e) for e in edges])

    def to_json_obj(self) -> dict:
        return {"d": self.d, "n": self.n, "edges": [list(e) for e in edges(self)]}


def edges(g: Multigraph) -> list[tuple[int, int, int]]:
    """Nonzero (i, j, m) entries with i < j, in row-major order."""
    return [
        (i, j, g.mult[i][j])
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if g.mult[i][j]
    ]


def neighbors(g: Multigraph, i: int) -> set[int]:
    """Vertices joined to i by a nonzero multiplicity."""
    return {j for j in range(g.n) if g.mult[i][j]}


def is_connected(g: Multigraph) -> bool:
    """Breadth-first reachability of every vertex from vertex 0."""
    return _masks_connected(_neighbor_masks(g))


def _masks_connected(nb: Sequence[int]) -> bool:
    """is_connected on the neighbor masks: a breadth-first search, a bitmask per level."""
    seen = level = 1
    while level:
        reach = 0
        while level:
            low = level & -level
            reach |= nb[low.bit_length() - 1]
            level ^= low
        level = reach & ~seen
        seen |= level
    return seen == (1 << len(nb)) - 1


def _neighbor_masks(g: Multigraph) -> list[int]:
    """Bit j of entry i is set iff vertices i and j are adjacent."""
    bits = _bits(g.n)
    return [sum(itertools.compress(bits, row)) for row in g.mult]


def local_complement(g: Multigraph, a: int) -> Multigraph:
    """m_uv -> m_uv + m_au * m_av (mod d) for every pair u < v of neighbors of a."""
    if not 0 <= a < g.n:
        raise StructureError(f"vertex {a} outside 0..{g.n - 1}")
    d, row_a = g.d, g.mult[a]
    nbrs = list(itertools.compress(range(g.n), row_a))
    rows = list(map(list, g.mult))
    for i, u in enumerate(nbrs):
        m_au, row_u = row_a[u], rows[u]
        for v in nbrs[i + 1 :]:
            row_u[v] = rows[v][u] = (row_u[v] + m_au * row_a[v]) % d
    return Multigraph(d=d, n=g.n, mult=tuple(map(tuple, rows)))
