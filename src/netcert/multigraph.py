"""Multigraphs with Z_d edge multiplicities.

A multigraph is a symmetric n x n matrix of multiplicities m_ij in
{0, ..., d-1} with zero diagonal; multiplicity 0 is the same thing as an
absent edge.  This module provides connectivity, local complementation
and its orbit walk (_LCWalk, keyed by _ClassKey on labeled graphs; a
table's walks run in certify._LCClasses), canonical forms under vertex
relabeling, exhaustive enumeration of connected multigraphs up to
isomorphism, and the certificate search's rules on the graph alone: the
lazy angle order (_angles) and the neighborhood partition around an angle
(_partition_masks), which find_angle_or_triangle and
partition_neighborhoods present.  No library code calls those two views;
they stay because the benchmark's layer trace (perfbench/layertrace.py,
TRACED) wraps them, which a tier-1 test pins.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, EnumerationOverflow, ResourceError, StructureError
from .network import _bits

#: Most isomorphism classes an orbit search examines unless the caller sets its cap.
DEFAULT_ORBIT_CAP = 10**6

#: Largest number of labeled multiplicity vectors an enumeration call will
#: examine unless the caller raises the budget explicitly.
DEFAULT_ENUMERATION_BUDGET = 2_000_000

#: Most ids per block and per group, and most blocks per pass, of the
#: enumeration sweep (_canonical_runs); 1024 from n = 7 on, where every id
#: has n! >= 5040 relabeling keys.
_SWEEP_BLOCK = 4096

#: Largest n that canonical_form and the enumerator take: the enumerator keys
#: all n! relabelings, and canonical_form's search has no worst-case bound
#: proved beyond it (a few ms on the symmetric n = 8 graphs).
_CANONICAL_MAX_N = 8

#: Most vertices a multigraph may have.  The n x n matrix is built before
#: any edge is read, so a larger header is refused first.  1024 vertices is
#: about 1M entries: 10x the largest graph the tests build (a 100-vertex
#: path) and 64x the n = 16 the single-graph path is meant to reach.
_MAX_VERTICES = 1024


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
        """Parse {"d": ..., "n": ..., "edges": [[i, j, m], ...]}."""
        try:
            d, n, edges = obj["d"], obj["n"], obj["edges"]
        except (TypeError, KeyError) as exc:
            raise StructureError(f"graph object needs keys d, n, edges: {obj!r}") from exc
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


def permuted(g: Multigraph, perm: Sequence[int]) -> Multigraph:
    """Relabel vertices: old vertex i becomes perm[i]."""
    if sorted(perm) != list(range(g.n)):
        raise StructureError(f"not a permutation of 0..{g.n - 1}: {perm!r}")
    rows = [[0] * g.n for _ in range(g.n)]
    for i in range(g.n):
        for j in range(g.n):
            rows[perm[i]][perm[j]] = g.mult[i][j]
    return Multigraph(d=g.d, n=g.n, mult=tuple(tuple(r) for r in rows))


def _permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row, in itertools order."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return np.fromiter(flat, dtype=np.int8).reshape(-1, n)


def canonical_form(g: Multigraph) -> tuple[int, ...]:
    """Lexicographically minimal upper-triangle vector over all relabelings.

    Two multigraphs are isomorphic iff their canonical forms agree.  Exact,
    by ordered partition refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014): the vector is rows 0..n-2 of the relabeled
    matrix, and the vertex placed at position i fixes row i.  A state labels
    each vertex not yet placed by its multiplicities to the placed ones, in
    order, as one base-``base`` number; equal labels are the cells, and the
    lowest covers position i.  Placing a vertex v of it and extending the
    labels by mult[v] gives the smallest row i the state allows.  States tie
    on all earlier rows, so their sorted labels agree and sorted extended
    labels compare as row i does; only placements with the smallest row go
    on.  Twins (equal multiplicities to every other vertex) are swapped by
    an automorphism, so one of each is tried.  Labels are Python ints, so d
    has no limit.  Refuses n > 8.
    """
    n, mult = g.n, g.mult
    if n > _CANONICAL_MAX_N:
        raise ResourceError(f"canonical_form has no search bound past n={_CANONICAL_MAX_N}; n={n}")
    base = 1 + max(map(max, mult))
    rows = [sorted(r) for r in mult]  # the zero diagonal first
    twin = list(range(n))  # the least vertex of each twin class
    for v, rv in enumerate(mult):
        for u, ru in enumerate(mult[:v]):
            if rows[u] != rows[v]:
                continue
            if ru[:u] == rv[:u] and ru[u + 1 : v] == rv[u + 1 : v] and ru[v + 1 :] == rv[v + 1 :]:
                twin[v] = u
                break
    # row 0 is the least sorted row; a state holds the vertices not yet placed
    # as (label, vertex) pairs, ascending, and the states form an ordered set
    row0 = min(rows)
    states = {
        tuple(sorted([(mult[v][u], u) for u in range(n) if u != v])): None
        for v in {twin[v]: v for v in range(n) if rows[v] == row0}.values()
    }
    form = row0[1:]
    for _ in range(n - 2):
        best, survivors = None, {}
        for state in states:
            head = state[0][0]
            for v in {twin[v]: v for x, v in state if x == head}.values():  # one per twin class
                m = mult[v]
                new = sorted([(x * base + m[u], u) for x, u in state if u != v])
                keys = [x for x, _ in new]
                if best is None or keys < best:
                    best, survivors = keys, {}
                if keys == best:
                    survivors[tuple(new)] = None
        form += [k % base for k in best]
        states = survivors
    return tuple(form)


def from_triu_vector(d: int, n: int, vec: Sequence[int]) -> Multigraph:
    """Inverse of the upper-triangle flattening used by canonical_form."""
    if len(vec) != n * (n - 1) // 2:
        raise StructureError(f"expected {n * (n - 1) // 2} entries, got {len(vec)}")
    it = iter(vec)
    return Multigraph.from_edges(
        d, n, [(i, j, m) for i in range(n) for j in range(i + 1, n) if (m := next(it))]
    )


def enumerate_connected_multigraphs(
    n: int, d: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[Multigraph]:
    """Stream one canonical representative per isomorphism class of connected
    multigraphs on n vertices with multiplicities mod d.

    A labeled multiplicity vector is emitted iff it is the lexicographic
    minimum of its relabeling orbit, so every class appears exactly once
    without any dedup storage.  Raises EnumerationOverflow (with progress
    counts) once more than ``budget`` labeled vectors would be examined.
    """
    for rows in _canonical_rows(n, d, budget):
        for mat in triu_to_matrices(rows, n).tolist():
            yield Multigraph(d=d, n=n, mult=tuple(map(tuple, mat)))


@lru_cache(maxsize=None)
def _slots(n: int) -> np.ndarray:
    """The row format of n-vertex multigraphs, read-only: entry (i, j) is
    column slot[i, j] of the upper-triangle row (canonical_form's order),
    and the diagonal reads column n choose 2, a zero appended to the row."""
    iu, ju = np.triu_indices(n, 1)
    slot = np.full((n, n), len(iu), dtype=np.intp)
    slot[iu, ju] = slot[ju, iu] = np.arange(len(iu))
    slot.setflags(write=False)
    return slot


def triu_to_matrices(rows: np.ndarray, n: int) -> np.ndarray:
    """Stack of symmetric (k, n, n) multiplicity matrices from (k, n choose 2)
    upper-triangle vectors in the order of canonical_form."""
    return np.pad(rows, [(0, 0), (0, 1)])[:, _slots(n)]


def _connected(rows: np.ndarray, n: int) -> np.ndarray:
    """Per upper-triangle row of the stack (k, n choose 2), whether every
    vertex of its multigraph is reachable from 0."""
    adj = np.pad((rows != 0).T, [(0, 1), (0, 0)])[_slots(n)]  # (n, n, k): graphs inner
    reach = adj[0] | (np.arange(n) == 0)[:, None]
    for _ in range(n - 2):
        reach |= (reach[:, None, :] & adj).any(axis=0)
    return reach.all(axis=0)


#: Largest chunk table of _packed_keys, in bytes.
_TABLE_BYTES = 2**20

#: Most keys (rows x n! relabelings) that _key_blocks forms at once.
_KEY_BLOCK = 2**16


class _Keys(NamedTuple):
    """Relabeling keys of upper-triangle vectors over Z_d by table lookup
    (see _packed_keys).  A digit is one place, or several base-b places
    (digit // b^i % b) where d exceeds a table's rows; a chunk is a run of
    places, and its rank the number they spell."""

    weights: np.ndarray  # (N,) int64: vec @ weights is the rank of vec
    place: np.ndarray  # (3, places) int64: digit position, scale and radix
    chunk: np.ndarray  # (places, C) int64: a place's weight in its chunk's rank
    tables: tuple[np.ndarray, ...]  # (rows_c, n!), int32 while d^N < 2^31, else int64
    lows: int  # the chunks from this one on hold the digits from ``cut`` on

    def ranks(self, digits: np.ndarray) -> np.ndarray:
        """Chunk ranks (k, C) of the digit rows (k, N)."""
        pos, scale, radix = self.place
        return (digits[:, pos] // scale % radix) @ self.chunk

    def least(self, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each digit row's least key (int64) and the index of the relabeling
        that gives it: its canonical form, and the permutation reaching it."""
        key, index = np.empty(len(digits), np.int64), np.empty(len(digits), np.intp)
        for start, block in _key_blocks(self.tables, self.ranks(digits)):
            best = block.argmin(axis=1)
            at = slice(start, start + len(best))
            key[at], index[at] = block[np.arange(len(best)), best], best
        return key, index


@lru_cache(maxsize=4)
def _packed_keys(n: int, d: int) -> _Keys:
    """Relabeling keys of upper-triangle vectors over Z_d, for d^(n choose 2) < 2^62.

    The key of vec under a relabeling is the rank of the relabeled vector in
    lexicographic order (``vec @ weights`` for the identity); column p of
    every table is the p-th permutation of itertools.permutations, so the
    argmin of a key row finds canonical_form.  A key is linear in the
    digits, so the table of chunk c holds, per value of its places, their
    share of all n! keys, and a key row is the sum of one row per chunk,
    exact in the tables' integer dtype.  Each table takes at most
    _TABLE_BYTES, in as few chunks as that allows, and no chunk spans digit
    _sweep_cut(n, d), the sweep's split of an id into high and low digits
    (fixed per (n, d), the cache's key).  (5,4) takes three tables (180 KB),
    (8,2) fourteen of 4 rows (8.6 MB).
    """
    ncols, cut = n * (n - 1) // 2, _sweep_cut(n, d)
    weights = d ** np.arange(ncols - 1, -1, -1, dtype=np.int64)
    perms = _permutations(n)
    # digit j weighs wmat[j, p] in the p-th key: entry (i, j) of that
    # relabeling reads entry (p[i], p[j]) of vec, column src[p, slot[i, j]]
    slot = _slots(n).astype(np.int8)  # the n! x n x n gather in int8: 2.6 MB at n = 8
    src = np.empty((len(perms), ncols + 1), dtype=np.int8)
    src[:, slot] = slot[perms[:, :, None], perms[:, None, :]]
    wmat = np.empty((ncols, len(perms)), dtype=np.int64)
    wmat[src[:, :ncols], np.arange(len(perms))[:, None]] = weights
    dtype = np.int32 if d**ncols < 2**31 else np.int64
    rows = _TABLE_BYTES // (len(perms) * np.dtype(dtype).itemsize)
    b, m = min(d, rows), 1  # m base-b places per digit
    while b**m < d:
        m += 1
    places = [(j, b**i, min(b, -(-d // b**i))) for j in range(ncols) for i in range(m - 1, -1, -1)]
    per = 1  # places per chunk
    while b ** (per + 1) <= rows:
        per += 1

    def runs(side):  # as few runs of at most ``per`` places as cover side, balanced
        q = -(-len(side) // per)
        return [side[len(side) * i // q : len(side) * (i + 1) // q] for i in range(q)]

    high = runs(places[: cut * m])
    chunks = high + runs(places[cut * m :])
    chunk = np.zeros((len(places), len(chunks)), dtype=np.int64)
    tables, at = [], 0
    for c, part in enumerate(chunks):
        # mixed radix: a place weighs the product of the later places' radices
        radices = [radix for _, _, radix in part]
        chunk[at : at + len(part), c] = np.cumprod([1, *radices[:0:-1]])[::-1]
        table = np.zeros((1, len(perms)), dtype=dtype)
        for j, scale, radix in part:
            share = (np.arange(radix, dtype=np.int64)[:, None] * scale * wmat[j]).astype(dtype)
            table = (table[:, None, :] + share).reshape(-1, len(perms))
        tables.append(table)
        at += len(part)
    keys = _Keys(weights, np.array(places, dtype=np.int64).T, chunk, tuple(tables), len(high))
    for a in (keys.weights, keys.place, keys.chunk, *keys.tables):
        a.setflags(write=False)
    return keys


def _key_blocks(
    tables: Sequence[np.ndarray], ranks: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """The key rows sum_c tables[c][ranks[:, c]] of the rank rows (k, C), as
    (first row, keys) over runs of rows of at most _KEY_BLOCK keys."""
    step = max(1, _KEY_BLOCK // tables[0].shape[1])
    for start in range(0, len(ranks), step):
        r = ranks[start : start + step]
        keys = tables[0].take(r[:, 0], axis=0)
        for c in range(1, len(tables)):
            keys += tables[c].take(r[:, c], axis=0)
        yield start, keys


def _sweep_span(n: int) -> int:
    """Most ids per block and per group of the sweep, and most blocks per pass."""
    return min(_SWEEP_BLOCK, 4096 if n <= 6 else 1024)


def _sweep_cut(n: int, d: int) -> int:
    """The sweep's high digits: a block holds d^k ids, the most that fit
    _sweep_span, which share all but their last k digits."""
    cut = n * (n - 1) // 2
    while cut and d ** (n * (n - 1) // 2 - cut + 1) <= _sweep_span(n):
        cut -= 1
    return cut


def _canonical_rows(n: int, d: int, budget: int) -> Iterator[np.ndarray]:
    """Array core of enumerate_connected_multigraphs: the canonical connected
    rows ((k, n choose 2) int64, ascending), in batches; connectivity is
    tested once per _SWEEP_ROWS canonical rows (_canonical_runs).  Raises
    EnumerationOverflow as the public generator does, with ``yielded``."""
    if d < 2:
        raise DimensionError(f"qudit dimension must be >= 2, got {d}")
    if n < 2:
        raise StructureError(f"enumeration needs n >= 2, got {n}")
    if n > _CANONICAL_MAX_N:
        raise ResourceError(f"enumeration canonicalizes via n! scan; n={n} > {_CANONICAL_MAX_N}")
    total = d ** (n * (n - 1) // 2)
    if total >= 2**62:
        raise ResourceError(f"d^(n choose 2) = {total} does not fit packed 64-bit keys")
    limit, yielded = min(total, max(budget, 0)), 0
    for rows in _batches(_canonical_runs(n, d, limit), _SWEEP_ROWS):
        rows = rows[_connected(rows, n)]
        if len(rows):
            yielded += len(rows)
            yield rows
    if limit < total:
        raise EnumerationOverflow(
            f"enumeration budget {budget} exhausted for n={n}, d={d} "
            f"({total} labeled vectors total)",
            examined=limit, yielded=yielded,
        )


#: Most canonical rows _canonical_rows holds before it tests their connectivity.
_SWEEP_ROWS = 2**16


def _batches(runs: Iterable[np.ndarray], most: int) -> Iterator[np.ndarray]:
    """The runs end to end, in batches of at least ``most`` rows but the last."""
    held, count = [], 0
    for run in runs:
        held.append(run)
        count += len(run)
        if count >= most:
            yield np.concatenate(held)
            held, count = [], 0
    if held:
        yield np.concatenate(held)


def _canonical_runs(n: int, d: int, limit: int) -> Iterator[np.ndarray]:
    """The ids below ``limit`` that are their own canonical form, as digit
    rows (int64, ascending), one run per group of blocks.  Ids run in
    aligned blocks of d^k sharing all but the last k digits, in passes of
    blocks; a block where some transposition key stays below its first id
    at every low part is skipped.  A surviving id's key row is its block's
    share, looked up once per block, plus one row per low chunk
    (_packed_keys)."""
    cut, span = _sweep_cut(n, d), _sweep_span(n)
    size = d ** (n * (n - 1) // 2 - cut)
    # below d^(N - n + 1) row 0 is zero: vertex 0 is isolated, no id connected;
    # a sweep with no block left keys nothing, so builds no tables
    begin, nblocks = d ** ((n - 1) * (n - 2) // 2) // size, -(-limit // size)
    if begin >= nblocks:
        return
    keys = _packed_keys(n, d)
    weights, lows, tables = keys.weights, keys.lows, keys.tables
    dtype, ncols = tables[0].dtype, tables[0].shape[1]
    swaps = np.flatnonzero((_permutations(n) != np.arange(n)).sum(axis=1) == 2)
    swap_tables = [t[:, swaps] for t in tables]

    def shares(parts, ranks, width):  # per rank row, the sum of the parts' rows
        out = np.zeros((len(ranks), width), dtype)
        for part, r in zip(parts, ranks.T):
            out += part.take(r, axis=0)
        return out

    # the digits of each low part (zero at the high digits), and their shares
    low = np.arange(size)[:, None] // weights % d
    low_ranks = keys.ranks(low)[:, lows:]
    low_sw = shares(swap_tables[lows:], low_ranks, len(swaps)).T.copy()  # swaps on the outer axis
    low_top = low_sw.max(axis=1)[:, None]
    per_group = span // size
    for first in range(begin, nblocks, span):
        blocks = np.arange(first, min(first + span, nblocks), dtype=dtype)
        hi = blocks[:, None] * size // weights % d
        hi_ranks = keys.ranks(hi)[:, :lows]
        hi_sw = shares(swap_tables[:lows], hi_ranks, len(swaps)).T.copy()
        live = np.flatnonzero((hi_sw + low_top >= blocks * size).all(axis=0))
        for group in np.split(live, range(per_group, len(live), per_group)):
            ids = (blocks[group] * size)[:, None] + np.arange(size, dtype=dtype)
            b, j = np.nonzero((hi_sw[:, group, None] + low_sw[:, None, :]).min(axis=0) >= ids)
            ids, least = ids[b, j], np.empty(len(b), dtype)
            hi_keys = shares(tables[:lows], hi_ranks[group], ncols)
            ranks = np.column_stack([b, low_ranks[j]])
            for start, block in _key_blocks((hi_keys, *tables[lows:]), ranks):
                least[start : start + len(block)] = block.min(axis=1)
            keep = (least == ids) & (ids < limit)
            yield hi[group[b[keep]]] + low[j[keep]]


def class_count(n: int, d: int) -> int:
    """Number of isomorphism classes of connected multigraphs on n vertices
    with multiplicities mod d, by Polya counting, independent of the
    enumerator.

    Burnside over the cycle types of S_n acting on vertex pairs: a
    permutation with cycle lengths l_i fixes d^c labeled multigraphs, where
    c = sum floor(l_i / 2) + sum_{i<j} gcd(l_i, l_j) counts its cycles on
    pairs.  A multigraph is a multiset of its connected components, so the
    inverse Euler transform of the totals gives the connected counts
    (Harary & Palmer, Graphical Enumeration, 1973, ch. 4).
    """
    if d < 2:
        raise DimensionError(f"qudit dimension must be >= 2, got {d}")
    if n < 2:
        raise StructureError(f"class count needs n >= 2, got {n}")

    def partitions(m: int, top: int) -> Iterator[tuple[int, ...]]:
        if m == 0:
            yield ()
        for first in range(min(m, top), 0, -1):
            yield from ((first,) + rest for rest in partitions(m - first, first))

    def classes(m: int) -> int:  # all multigraphs on m vertices
        fixed = 0
        for ls in partitions(m, m):
            pairs = itertools.combinations(ls, 2)
            c = sum(l // 2 for l in ls) + sum(math.gcd(a, b) for a, b in pairs)
            z = math.prod(l**k * math.factorial(k) for l, k in Counter(ls).items())
            fixed += math.factorial(m) // z * d**c
        return fixed // math.factorial(m)

    totals = [classes(m) for m in range(n + 1)]
    # m a_m = sum_{k=1}^m s_k a_{m-k}, where s_k = sum_{j | k} j c_j
    s, c = [0] * (n + 1), [0] * (n + 1)
    for m in range(1, n + 1):
        s[m] = m * totals[m] - sum(s[k] * totals[m - k] for k in range(1, m))
        c[m] = (s[m] - sum(j * c[j] for j in range(1, m) if m % j == 0)) // m
    return c[n]


@dataclass(frozen=True)
class NeighborhoodPartition:
    """The seven disjoint neighbor sets around an (A, B, C) triple.

    E_X holds vertices adjacent to X alone (among the triple), J_XY those
    adjacent to exactly X and Y, and T_ABC those adjacent to all three;
    ``far`` collects the vertices adjacent to none of the triple.  Together
    with {A, B, C} these sets partition the vertex set.
    """

    triple: tuple[int, int, int]
    kind: str  # "angle" or "triangle"
    e_a: frozenset[int]
    e_b: frozenset[int]
    e_c: frozenset[int]
    j_ab: frozenset[int]
    j_bc: frozenset[int]
    j_ca: frozenset[int]
    t_abc: frozenset[int]
    far: frozenset[int]


def _neighbor_masks(g: Multigraph) -> list[int]:
    """Bit j of entry i is set iff vertices i and j are adjacent."""
    bits = _bits(g.n)
    return [sum(itertools.compress(bits, row)) for row in g.mult]


def _angles(g: Multigraph) -> Iterator[tuple[int, int, int]]:
    """Every ordered triple (a, b, c) with edges AB and CA, lazily and in
    lexicographic order: for each a, the neighbors b != c of a, ascending."""
    for a, row in enumerate(g.mult):
        nbrs = [v for v, m in enumerate(row) if m]
        for b, c in itertools.permutations(nbrs, 2):
            yield a, b, c


def _partition_masks(a, b, c, nb_a, nb_b, nb_c, full):
    """Bitmasks (e_a, e_b, e_c, j_ab, j_bc, j_ca, t_abc, far) of the
    NeighborhoodPartition of the vertices ``full`` around (a, b, c), given
    the neighbor masks of a, b and c; on Python ints and int64 arrays alike."""
    rest = full & ~(1 << a | 1 << b | 1 << c)
    return (
        rest & nb_a & ~(nb_b | nb_c),
        rest & nb_b & ~(nb_a | nb_c),
        rest & nb_c & ~(nb_a | nb_b),
        rest & nb_a & nb_b & ~nb_c,
        rest & nb_b & nb_c & ~nb_a,
        rest & nb_c & nb_a & ~nb_b,
        rest & nb_a & nb_b & nb_c,
        rest & ~(nb_a | nb_b | nb_c),
    )


def find_angle_or_triangle(g: Multigraph) -> list[tuple[int, int, int, str]]:
    """All ordered triples (A, B, C) with edges AB and CA, in _angles order.

    kind is "triangle" when the BC edge is present too, else "angle".
    Connected graphs with n >= 3 always admit at least one.
    """
    if g.n < 3:
        raise StructureError(f"need at least 3 vertices, got {g.n}")
    if not is_connected(g):
        raise StructureError("graph is not connected")
    return [(a, b, c, "triangle" if g.mult[b][c] else "angle") for a, b, c in _angles(g)]


def partition_neighborhoods(g: Multigraph, a: int, b: int, c: int) -> NeighborhoodPartition:
    """Split the remaining vertices by their adjacency pattern to (a, b, c)."""
    if len({a, b, c}) != 3 or not all(0 <= v < g.n for v in (a, b, c)):
        raise StructureError(f"invalid triple ({a}, {b}, {c})")
    if not (g.mult[a][b] and g.mult[c][a]):
        raise StructureError(f"triple ({a}, {b}, {c}) is missing edge AB or CA")
    nb = _neighbor_masks(g)
    masks = _partition_masks(a, b, c, nb[a], nb[b], nb[c], (1 << g.n) - 1)
    sets = (frozenset(v for v in range(g.n) if mask >> v & 1) for mask in masks)
    return NeighborhoodPartition((a, b, c), "triangle" if g.mult[b][c] else "angle", *sets)


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


@dataclass(frozen=True)
class OrbitResult:
    """Closure of a graph under local complementation.

    ``graphs[i]`` is the first-seen member of the i-th isomorphism class
    discovered (``graphs[0]`` is the starting graph) and ``paths[i]`` is the
    vertex sequence whose successive local complementations take the
    starting graph to ``graphs[i]``.  ``truncated`` marks that the cap cut
    the search short and the closure may be larger.
    """

    graphs: tuple[Multigraph, ...]
    paths: tuple[tuple[int, ...], ...]
    truncated: bool

    @property
    def size(self) -> int:
        return len(self.graphs)


class _LCWalk:
    """Breadth-first walk over a local-complementation orbit.

    A state stands for one member of the orbit, and ``expand(state)`` yields,
    for each vertex a in turn, the class of LC at a of that member and the
    state that stands for the image.  Iterating yields ``(cls, state, path)``
    once per class, the start first (path ``()``); ``path`` is the vertex
    sequence whose successive local complementations take the start to the
    member.  When a new class turns up with ``cap`` classes already seen,
    ``truncated`` is set and the walk stops.  The walk is lazy, so a caller
    may stop early.
    """

    def __init__(
        self,
        start: Any,
        cls: Hashable,
        expand: Callable[[Any], Iterable[tuple[Hashable, Any]]],
        cap: int,
    ) -> None:
        self.start = start
        self.cls = cls
        self.expand = expand
        self.cap = cap
        self.truncated = False

    def __iter__(self) -> Iterator[tuple[Hashable, Any, tuple[int, ...]]]:
        first = (self.cls, self.start, ())
        yield first
        seen = {self.cls}
        queue = deque([first])
        while queue:
            _, state, path = queue.popleft()
            for a, (cls, image) in enumerate(self.expand(state)):
                if cls in seen:
                    continue
                if len(seen) >= self.cap:
                    self.truncated = True
                    return
                seen.add(cls)
                item = (cls, image, path + (a,))
                yield item
                queue.append(item)


class _ClassKey:
    """_graph_walk's class of a labeled graph g (n <= 8, else refused here),
    equal to another iff their canonical forms are.  It hashes an invariant,
    the sorted rows sorted; equal invariants are decided by equal matrices,
    else by canonical_form, computed at most once per key."""

    __slots__ = ("graph", "invariant", "hash", "form")

    def __init__(self, g: Multigraph) -> None:
        if g.n > _CANONICAL_MAX_N:
            msg = f"canonical_form has no search bound past n={_CANONICAL_MAX_N}; n={g.n}"
            raise ResourceError(msg)
        self.graph, self.form = g, None
        self.invariant = tuple(sorted(map(tuple, map(sorted, g.mult))))
        self.hash = hash(self.invariant)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: _ClassKey) -> bool:
        if self.invariant != other.invariant:
            return False
        return self.graph.mult == other.graph.mult or self.canonical() == other.canonical()

    def canonical(self) -> tuple[int, ...]:
        self.form = self.form or canonical_form(self.graph)  # never empty: n >= 2
        return self.form


def _lc_images(g: Multigraph) -> Iterator[tuple[_ClassKey, Multigraph]]:
    """_LCWalk expansion of labeled graphs: per vertex a, the class key of
    LC(g, a), and LC(g, a)."""
    for a in range(g.n):
        image = local_complement(g, a)
        yield _ClassKey(image), image


def _graph_walk(g: Multigraph, cap: int) -> _LCWalk:
    """The walk over g's orbit on labeled graphs, a class being a _ClassKey."""
    return _LCWalk(g, _ClassKey(g), _lc_images, cap)


def _check_orbit_cap(cap: int) -> None:
    if cap < 1:
        raise StructureError(f"orbit cap must be positive, got {cap}")


def lc_orbit(g: Multigraph, cap: int = DEFAULT_ORBIT_CAP) -> OrbitResult:
    """Breadth-first closure of g under local complementation at every vertex,
    deduplicated by canonical form, truncated (and flagged) at ``cap`` classes.
    """
    _check_orbit_cap(cap)
    walk = _graph_walk(g, cap)
    members = list(walk)
    return OrbitResult(
        graphs=tuple(image for _, image, _ in members),
        paths=tuple(path for _, _, path in members),
        truncated=walk.truncated,
    )
