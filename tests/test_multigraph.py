"""Multigraph structure, canonicalization, enumeration, local complementation.

networkx provides an independent isomorphism oracle for the enumeration
and canonical-form tests.
"""

import functools
import itertools
import math
import tracemalloc
from collections import deque

import networkx as nx
import numpy as np
import pytest

from netcert import (
    DimensionError,
    EnumerationOverflow,
    Multigraph,
    ResourceError,
    StructureError,
    canonical_form,
    enumerate_connected_multigraphs,
    find_angle_or_triangle,
    is_connected,
    lc_orbit,
    local_complement,
    neighbors,
    partition_neighborhoods,
)
from netcert import multigraph
from netcert.certify import _direct_pass, _LCClasses
from netcert.multigraph import (
    _canonical_rows,
    _key_blocks,
    _packed_keys,
    class_count,
    edges,
    from_triu_vector,
    permuted,
)


def to_networkx(g: Multigraph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    for i, j, m in edges(g):
        gx.add_edge(i, j, weight=m)
    return gx


def weighted_isomorphic(a: Multigraph, b: Multigraph) -> bool:
    return nx.is_isomorphic(
        to_networkx(a), to_networkx(b), edge_match=lambda x, y: x["weight"] == y["weight"]
    )


KNOWN_COUNTS = {
    (3, 2): 2,
    (4, 2): 6,
    (5, 2): 21,
    (6, 2): 112,
    (3, 3): 7,
    (3, 4): 16,
    (3, 5): 30,
    (3, 6): 50,
    (3, 7): 77,
    (3, 13): 442,
}


@pytest.mark.parametrize("n,d", sorted(KNOWN_COUNTS))
def test_enumeration_counts(n, d):
    got = sum(1 for _ in enumerate_connected_multigraphs(n, d))
    assert got == KNOWN_COUNTS[(n, d)]


POLYA_COUNTS = {
    (5, 4): 10_364,
    (6, 3): 24_576,
    (7, 2): 853,
    (4, 8): 12_348,
    (4, 9): 24_450,
    (3, 6): 50,
    (5, 3): 712,
    (4, 12): 131_846,
}


def test_class_count_pins_and_known_counts():
    """Polya counting gives the pinned class totals, the known small counts,
    the connected graphs of OEIS A001349 at d = 2, and C(d+2,3) - d at n = 3."""
    assert {cell: class_count(*cell) for cell in POLYA_COUNTS} == POLYA_COUNTS
    assert {cell: class_count(*cell) for cell in KNOWN_COUNTS} == KNOWN_COUNTS
    a001349 = [1, 2, 6, 21, 112, 853, 11117, 261080, 11716571]
    assert [class_count(n, 2) for n in range(2, 11)] == a001349
    assert all(class_count(3, d) == (d + 2) * (d + 1) * d // 6 - d for d in range(2, 40))
    with pytest.raises(DimensionError):
        class_count(3, 1)
    with pytest.raises(StructureError):
        class_count(1, 3)


def test_three_vertex_count_formula():
    # Connected classes on 3 vertices over Z_d: C(d+2,3) - d.
    for d in range(2, 9):
        want = (d + 2) * (d + 1) * d // 6 - d
        got = sum(1 for _ in enumerate_connected_multigraphs(3, d))
        assert got == want


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3), (4, 3), (3, 4)])
def test_enumeration_covers_all_labeled_graphs(n, d):
    """The class list equals the set of canonical forms of all labeled graphs."""
    classes = list(enumerate_connected_multigraphs(n, d))
    keys = {canonical_form(g) for g in classes}
    assert len(keys) == len(classes)  # reps are pairwise non-isomorphic
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labeled_forms = set()
    for assignment in itertools.product(range(d), repeat=len(pairs)):
        eds = [(i, j, m) for (i, j), m in zip(pairs, assignment) if m]
        g = Multigraph.from_edges(d, n, eds)
        if is_connected(g):
            labeled_forms.add(canonical_form(g))
    assert labeled_forms == keys


def test_enumeration_classes_pairwise_nonisomorphic_networkx():
    for n, d in [(3, 3), (4, 2), (3, 4)]:
        classes = list(enumerate_connected_multigraphs(n, d))
        for a, b in itertools.combinations(classes, 2):
            assert not weighted_isomorphic(a, b)


def reference_canonical_form(g: Multigraph) -> tuple[int, ...]:
    """The pure-Python n! scan canonical_form must agree with: build the
    upper-triangle tuple of every relabeling and keep the smallest."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        vec = tuple(g.mult[perm[i]][perm[j]] for i in range(g.n) for j in range(i + 1, g.n))
        if best is None or vec < best:
            best = vec
    return best


def random_multigraph(rng, n, d, p):
    eds = [
        (i, j, int(rng.integers(1, d)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Multigraph.from_edges(d, n, eds)


def test_canonical_form_matches_reference_scan():
    rng = np.random.default_rng(17)
    cells = [(n, d) for n in range(2, 8) for d in range(2, 8)]
    # n = 8, d = 7 has 7^28 > 2^63 labeled vectors; wide d needs multi-byte rows
    cells += [(8, 7), (8, 2), (4, 200), (4, 300), (3, 70_000), (3, 2**40)]
    for n, d in cells:
        for p in (0.3, 0.7, 1.0):
            g = random_multigraph(rng, n, d, p)
            assert canonical_form(g) == reference_canonical_form(g), (n, d, edges(g))
    # many automorphisms: every relabeling of a constant-weight clique ties
    clique = Multigraph.from_edges(3, 6, [(i, j, 2) for i in range(6) for j in range(i + 1, 6)])
    assert canonical_form(clique) == reference_canonical_form(clique) == (2,) * 15


def test_canonical_form_permutation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 7))
        eds = []
        for i in range(n):
            for j in range(i + 1, n):
                m = int(rng.integers(0, d))
                if m:
                    eds.append((i, j, m))
        g = Multigraph.from_edges(d, n, eds)
        perm = list(rng.permutation(n))
        h = permuted(g, perm)
        assert canonical_form(g) == canonical_form(h)
        assert weighted_isomorphic(g, h)


#: Groups of order 8 on the elements 0..7, as (add, negate): Z8, Z2^3 and
#: Z4 x Z2 (element x + 4y for (x, y)).
GROUPS_OF_ORDER_8 = {
    "circulant": (lambda a, b: (a + b) % 8, lambda a: -a % 8),
    "z2^3": (lambda a, b: a ^ b, lambda a: a),
    "z4xz2": (lambda a, b: (a + b) % 4 + (a ^ b) // 4 * 4, lambda a: -a % 4 + a // 4 * 4),
}


def cayley_graphs(d: int, group: str) -> list[Multigraph]:
    """Every Cayley multigraph of the group over Z_d: the pair {a, b} takes
    the weight of b - a, one weight per class {s, -s} of nonzero elements.
    These are vertex-transitive, and most have no twins."""
    add, neg = GROUPS_OF_ORDER_8[group]
    classes = sorted({frozenset((s, neg(s))) for s in range(1, 8)}, key=min)
    graphs = []
    for weights in itertools.product(range(d), repeat=len(classes)):
        w = {s: x for cls, x in zip(classes, weights) for s in cls}
        eds = [(a, b, w[add(b, neg(a))]) for a in range(8) for b in range(a + 1, 8)]
        graphs.append(Multigraph.from_edges(d, 8, [e for e in eds if e[2]]))
    return graphs


def relabel_weights(n: int, d: int) -> np.ndarray:
    """The plain int64 key matrix: column p of ``vec @ relabel_weights(n, d)``
    is the rank of vec relabeled by the p-th permutation of
    itertools.permutations, exact while d^(n choose 2) < 2^63."""
    pairs = list(itertools.combinations(range(n), 2))
    slot = {pair: k for k, pair in enumerate(pairs)}
    wmat = np.zeros((len(pairs), math.factorial(n)), dtype=np.int64)
    for p, perm in enumerate(itertools.permutations(range(n))):
        for k, (i, j) in enumerate(pairs):
            wmat[slot[tuple(sorted((perm[i], perm[j])))], p] = d ** (len(pairs) - 1 - k)
    return wmat


def lookup_keys(n: int, d: int, vecs: np.ndarray) -> np.ndarray:
    """The relabeling keys of the rows vecs by the enumerator's chunk tables."""
    keys = _packed_keys(n, d)
    return np.concatenate([block for _, block in _key_blocks(keys.tables, keys.ranks(vecs))])


def packed_reference(graphs: list[Multigraph]) -> list[tuple[int, ...]]:
    """canonical_form of n = 8 graphs over one Z_d by the enumerator's keys:
    the least of the 8! relabeling keys, which must equal the least of the
    plain int64 matmul's, decoded to its digits."""
    d = graphs[0].d
    wmat = relabel_weights(8, d)
    iu, ju = np.triu_indices(8, 1)
    vecs = np.array([np.array(g.mult)[iu, ju] for g in graphs], dtype=np.int64)
    best = np.concatenate(
        [lookup_keys(8, d, vecs[k : k + 64]).min(axis=1) for k in range(0, len(vecs), 64)]
    ).astype(np.int64)
    assert np.array_equal(best, (vecs @ wmat).min(axis=1))
    return [tuple(row) for row in (best[:, None] // wmat[:, 0] % d).tolist()]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("group", sorted(GROUPS_OF_ORDER_8))
def test_canonical_form_symmetric_n8_families(group, d):
    """Vertex-transitive n = 8 graphs (every vertex ties at each position,
    so the search keeps many states), relabeled at random, against the
    packed-key reference; Z2^3 over Z_3 (2,187 graphs) is sampled."""
    graphs = cayley_graphs(d, group)
    if len(graphs) > 500:
        graphs = graphs[::7]
    rng = np.random.default_rng(23)
    got = [canonical_form(permuted(g, rng.permutation(8).tolist())) for g in graphs]
    assert got == packed_reference(graphs)


def test_canonical_form_twin_heavy_n8():
    """Twins: uniform K8 (all 8 twins), K4,4 (two twin classes), and two K4s
    of different weights joined by a third (two twin classes)."""
    side = [(a, b) for a in range(4) for b in range(4, 8)]
    within = [(a, b) for a in range(8) for b in range(a + 1, 8) if (a < 4) == (b < 4)]
    graphs = {
        d: [
            Multigraph.from_edges(d, 8, [(a, b, w) for a, b in pairs])
            for w in range(1, d)
            for pairs in (side + within, side)
        ]
        for d in (2, 3)
    }
    two_k4s = [(a, b, 1) for a, b in side] + [(a, b, 1 + (a < 4)) for a, b in within]
    graphs[3].append(Multigraph.from_edges(3, 8, two_k4s))
    rng = np.random.default_rng(29)
    for group in graphs.values():
        got = [canonical_form(permuted(g, rng.permutation(8).tolist())) for g in group]
        assert got == packed_reference(group)
    assert canonical_form(graphs[2][0]) == (1,) * 28


def test_canonical_form_n8_peak_memory():
    """One n = 8 call allocates well under 1 MB, so no n! relabeling table
    comes back on this path (the scan it replaced peaked near 10 MB)."""
    g = cayley_graphs(3, "z2^3")[1234]
    tracemalloc.start()
    try:
        canonical_form(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_permuted_relabels_edges():
    g = Multigraph.from_edges(3, 3, [(0, 1, 1), (1, 2, 2)])
    h = permuted(g, [2, 0, 1])  # vertex v -> perm[v]
    assert h.mult[2][0] == 1 and h.mult[0][1] == 2


def test_connectivity_and_neighbors():
    g = Multigraph.from_edges(2, 4, [(0, 1, 1), (2, 3, 1)])
    assert not is_connected(g)
    assert neighbors(g, 0) == {1}
    h = Multigraph.from_edges(2, 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert is_connected(h)


def reference_is_connected(g: Multigraph) -> bool:
    """Breadth-first reachability from vertex 0 with a set and a deque."""
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in range(g.n):
            if g.mult[v][u] and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.n


def test_is_connected_on_masks_matches_the_set_search():
    """is_connected, a search on neighbor bitmasks, equals the set and deque
    search on 500 seeded random graphs (n 2..12, d 2..5, edge density
    0.1..0.6), connected and not."""
    rng = np.random.default_rng(36)
    outcomes = {True: 0, False: 0}
    for _ in range(500):
        d, n, density = int(rng.integers(2, 6)), int(rng.integers(2, 13)), rng.uniform(0.1, 0.6)
        pairs = itertools.combinations(range(n), 2)
        eds = [(i, j, int(rng.integers(1, d))) for i, j in pairs if rng.random() < density]
        g = Multigraph.from_edges(d, n, eds)
        want = reference_is_connected(g)
        assert is_connected(g) == want, g
        outcomes[want] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_parsing_text_and_json():
    g = Multigraph.from_text("3 3\n0 1 2\n1 2 1\n")
    assert g.d == 3 and g.n == 3 and g.mult[0][1] == 2
    obj = g.to_json_obj()
    assert obj == {"d": 3, "n": 3, "edges": [[0, 1, 2], [1, 2, 1]]}
    assert Multigraph.from_json_obj(obj) == g
    with pytest.raises(StructureError):
        Multigraph.from_text("3\n0 1 1")
    with pytest.raises(StructureError):
        Multigraph.from_text("3 3\n0 0 1")
    with pytest.raises(StructureError):
        Multigraph.from_text("3 3\n0 7 1")
    with pytest.raises(DimensionError):
        Multigraph.from_text("1 3\n0 1 1")


def test_from_triu_vector_roundtrip():
    g = Multigraph.from_edges(4, 4, [(0, 1, 3), (2, 3, 1), (0, 3, 2)])
    vec = canonical_form(g)
    h = from_triu_vector(4, 4, vec)
    assert canonical_form(h) == vec
    with pytest.raises(StructureError):
        from_triu_vector(4, 4, (1, 2))


def test_find_angle_or_triangle():
    tri = Multigraph.from_edges(2, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    found = find_angle_or_triangle(tri)
    assert all(kind == "triangle" for *_, kind in found)
    assert len(found) == 6
    path = Multigraph.from_edges(2, 3, [(0, 1, 1), (1, 2, 1)])
    kinds = {kind for *_, kind in find_angle_or_triangle(path)}
    assert kinds == {"angle"}
    with pytest.raises(StructureError):
        find_angle_or_triangle(Multigraph.from_edges(2, 2, [(0, 1, 1)]))
    with pytest.raises(StructureError):
        find_angle_or_triangle(Multigraph.from_edges(2, 4, [(0, 1, 1), (2, 3, 1)]))


def test_partition_neighborhoods_buckets():
    # star with extra structure: 0-1, 0-2 apex angle; 3 adjacent to 0 only,
    # 4 adjacent to 1 only, 5 adjacent to all three, 6 isolated-ish (to 4).
    g = Multigraph.from_edges(
        2,
        7,
        [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1), (0, 5, 1), (1, 5, 1), (2, 5, 1), (4, 6, 1)],
    )
    part = partition_neighborhoods(g, 0, 1, 2)
    assert part.kind == "angle"
    assert part.e_a == {3}
    assert part.e_b == {4}
    assert part.t_abc == {5}
    assert part.far == {6}
    with pytest.raises(StructureError):
        partition_neighborhoods(g, 0, 1, 1)
    with pytest.raises(StructureError):
        partition_neighborhoods(g, 3, 4, 5)


@pytest.mark.parametrize("n,d", [(3, 3), (4, 3), (5, 2), (4, 4)])
def test_angle_order_and_partition_match_their_definitions(n, d):
    """find_angle_or_triangle lists the ordered triples with edges AB and CA
    in lexicographic order, and each set of partition_neighborhoods holds the
    other vertices with its adjacency pattern to (A, B, C)."""
    patterns = {
        "e_a": (1, 0, 0),
        "e_b": (0, 1, 0),
        "e_c": (0, 0, 1),
        "j_ab": (1, 1, 0),
        "j_bc": (0, 1, 1),
        "j_ca": (1, 0, 1),
        "t_abc": (1, 1, 1),
        "far": (0, 0, 0),
    }
    for g in enumerate_connected_multigraphs(n, d):
        adj = [[int(m != 0) for m in row] for row in g.mult]
        expected = [
            (a, b, c, "triangle" if adj[b][c] else "angle")
            for a, b, c in itertools.product(range(n), repeat=3)
            if len({a, b, c}) == 3 and adj[a][b] and adj[c][a]
        ]
        assert find_angle_or_triangle(g) == expected
        for a, b, c, kind in expected:
            part = partition_neighborhoods(g, a, b, c)
            assert (part.triple, part.kind) == ((a, b, c), kind)
            for name, pattern in patterns.items():
                members = {
                    v
                    for v in range(n)
                    if v not in (a, b, c) and (adj[v][a], adj[v][b], adj[v][c]) == pattern
                }
                assert getattr(part, name) == members, (g, (a, b, c), name)


def test_local_complement_d2_involution_and_known_orbit():
    path = Multigraph.from_edges(2, 3, [(0, 1, 1), (1, 2, 1)])
    tri = local_complement(path, 1)
    assert edges(tri) == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
    assert local_complement(tri, 1) == path  # involution for d=2
    orbit = lc_orbit(path)
    assert orbit.size == 2
    assert orbit.graphs[0] == path
    assert not orbit.truncated


def test_local_complement_preserves_connectivity_and_class_counts():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 6))
        eds = [(i, j, int(rng.integers(1, d))) for i in range(n) for j in range(i + 1, n)
               if rng.random() < 0.6]
        g = Multigraph.from_edges(d, n, eds)
        if not is_connected(g):
            continue
        v = int(rng.integers(n))
        h = local_complement(g, v)
        assert is_connected(h)
        # d applications restore the graph
        cur = g
        for _ in range(d):
            cur = local_complement(cur, v)
        assert cur == g


def test_lc_orbit_paths_replay():
    g = Multigraph.from_edges(3, 4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])
    orbit = lc_orbit(g, cap=200)
    assert orbit.graphs[0] == g and orbit.paths[0] == ()
    for member, path in zip(orbit.graphs, orbit.paths):
        cur = g
        for v in path:
            cur = local_complement(cur, v)
        assert cur == member
    # distinct canonical classes
    assert len({canonical_form(m) for m in orbit.graphs}) == orbit.size


def test_lc_orbit_cap_truncates():
    g = Multigraph.from_edges(5, 4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])
    full = lc_orbit(g)
    assert not full.truncated and full.size > 3
    capped = lc_orbit(g, cap=3)
    assert capped.truncated and capped.size == 3
    with pytest.raises(StructureError):
        lc_orbit(g, cap=0)


@pytest.mark.parametrize("n,d", [(3, 5), (4, 6), (5, 4), (6, 3), (7, 2), (3, 300_000)])
def test_lc_step_table_matches_single_steps(n, d):
    """The array pass gives every step that local_complement and
    canonical_form give: the class of LC(rep_k, v), and a relabeling of that
    class's canonical representative that is the image.  At d = 300,000 the
    packed keys pass 2^53."""
    rng = np.random.default_rng(n * 1000 + d)
    keys = set()
    for _ in range(40):
        eds = [
            (i, j, int(rng.integers(1, d)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        keys.add(canonical_form(Multigraph.from_edges(d, n, eds)))
    keys = sorted(keys)
    assert len(keys) >= 10
    rows = np.array(keys, dtype=np.int64)
    direct = _direct_pass(rows, n, d)
    classes = _LCClasses(n, d, rows, direct.construction)
    classes.fill(range(len(keys)))
    for k in range(len(keys)):
        rep = from_triu_vector(d, n, keys[k])
        for v in range(n):
            image = local_complement(rep, v)
            k2, p = classes.succ[k][v], classes.perms[classes.relabel[k][v]]
            key = tuple(classes.rows[k2].tolist())
            assert key == canonical_form(image)
            assert permuted(from_triu_vector(d, n, key), p) == image


def test_enumeration_order_and_stop_point():
    """Each class comes as its canonical form, connected, in ascending order,
    and a budget stop leaves exactly the first ``yielded`` classes."""
    for n, d in [(4, 3), (5, 2), (3, 6)]:
        classes = list(enumerate_connected_multigraphs(n, d))
        keys = [canonical_form(g) for g in classes]
        assert keys == sorted(keys)
        assert all(from_triu_vector(d, n, k) == g for k, g in zip(keys, classes))
        assert all(is_connected(g) for g in classes)
    full = list(enumerate_connected_multigraphs(4, 3))
    got = []
    with pytest.raises(EnumerationOverflow) as info:
        for g in enumerate_connected_multigraphs(4, 3, budget=400):
            got.append(g)
    assert info.value.examined == 400
    assert got == full[: info.value.yielded] and 0 < len(got) < len(full)


def test_enumeration_budget_overflow():
    with pytest.raises(EnumerationOverflow) as info:
        list(enumerate_connected_multigraphs(5, 3, budget=100))
    assert info.value.examined == 100
    assert info.value.yielded == 0  # first 100 vectors leave vertex 0 isolated
    with pytest.raises(EnumerationOverflow) as info:
        list(enumerate_connected_multigraphs(4, 3, budget=0))
    assert (info.value.examined, info.value.yielded) == (0, 0)
    # a budget of exactly d^(n choose 2) vectors completes the enumeration
    assert list(enumerate_connected_multigraphs(4, 3, budget=3**6)) == list(
        enumerate_connected_multigraphs(4, 3)
    )
    with pytest.raises(StructureError):
        list(enumerate_connected_multigraphs(1, 3))
    with pytest.raises(ResourceError):
        list(enumerate_connected_multigraphs(9, 2))
    with pytest.raises(ResourceError):  # 5^28 >= 2^62: packed keys would overflow
        list(enumerate_connected_multigraphs(8, 5))
    with pytest.raises(DimensionError):
        list(enumerate_connected_multigraphs(3, 1))


def test_canonical_form_large_n_guard():
    g = Multigraph.from_edges(2, 9, [(i, i + 1, 1) for i in range(8)])
    with pytest.raises(ResourceError):
        canonical_form(g)
    # no limit on d: the form is the least of the 6 relabelings' vectors
    huge = Multigraph.from_edges(2**64 + 1, 3, [(0, 1, 2**64), (1, 2, 1)])
    relabeled = (permuted(huge, p).mult for p in itertools.permutations(range(3)))
    assert canonical_form(huge) == min((m[0][1], m[0][2], m[1][2]) for m in relabeled)


def test_class_keys_are_equal_iff_canonical_forms_are(monkeypatch):
    """The orbit walk's class keys (multigraph._ClassKey) decide equality as
    canonical_form does, equal keys hash alike, and a key computes its
    canonical form at most once: random graphs (n 3..8, d up to 2^70 + 1)
    against random relabelings and each other; every pair of classes of
    (6,2) and (5,3) whose invariants agree, which are not isomorphic; and
    the 3-prism against K3,3, both 3-regular on six vertices."""
    key = multigraph._ClassKey
    calls = []
    monkeypatch.setattr(
        multigraph, "canonical_form", lambda g: calls.append(g) or canonical_form(g)
    )

    def agree(g, h):
        kg, kh = key(g), key(h)
        equal = canonical_form(g) == canonical_form(h)
        calls.clear()
        assert (kg == kh, kh == kg, kg == kh) == (equal,) * 3, (g, h)
        assert len(calls) <= 2  # each key computes its form at most once
        assert not equal or hash(kg) == hash(kh)
        return equal

    rng = np.random.default_rng(61)
    by_n: dict[int, list[Multigraph]] = {}
    for _ in range(300):
        n = int(rng.integers(3, 9))
        d = [2, 3, 5, 2**70 + 1][int(rng.integers(4))]
        eds = [
            (i, j, int(rng.integers(1, 9)) * (d // 9 + 1))
            for i, j in itertools.combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        g = Multigraph.from_edges(d, n, eds)
        assert agree(g, permuted(g, rng.permutation(n).tolist()))
        for h in by_n.get(n, [])[-3:]:
            agree(g, h)
        by_n.setdefault(n, []).append(g)

    collisions = 0
    for n, d in [(6, 2), (5, 3)]:
        groups: dict[tuple, list[Multigraph]] = {}
        for g in enumerate_connected_multigraphs(n, d):
            groups.setdefault(key(g).invariant, []).append(g)
        for group in groups.values():
            for g, h in itertools.combinations(group, 2):
                assert not agree(g, h)
                collisions += 1
    assert collisions > 100

    prism = Multigraph.from_edges(2, 6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1),
                                         (3, 5, 1), (0, 3, 1), (1, 4, 1), (2, 5, 1)])
    k33 = Multigraph.from_edges(2, 6, [(a, b, 1) for a in range(3) for b in range(3, 6)])
    assert key(prism).invariant == key(k33).invariant and not agree(prism, k33)


@functools.lru_cache(maxsize=None)
def labeled_reference(n, d):
    """Every connected labeled vector that is its own canonical form, in id
    (lexicographic) order: the sweep's output by brute force."""
    found = []
    for vec in itertools.product(range(d), repeat=n * (n - 1) // 2):
        g = from_triu_vector(d, n, vec)
        if is_connected(g) and canonical_form(g) == vec:
            found.append(vec)
    return np.array(found, dtype=np.int64)


SWEEP_CELLS = [(4, 3), (3, 6), (5, 2), (4, 4)]


def block_size(n, d):
    """Ids per sweep block: the largest d^k <= _SWEEP_BLOCK, k <= n choose 2."""
    size = 1
    while size * d <= multigraph._SWEEP_BLOCK and size < d ** (n * (n - 1) // 2):
        size *= d
    return size


@pytest.fixture
def sweep_block(monkeypatch):
    """Sets multigraph._SWEEP_BLOCK.  _packed_keys chunks its tables at the
    sweep's cut but is cached by (n, d) alone, so its cache is cleared on
    both sides: no test reads tables chunked for another block size."""

    def set_block(block):
        monkeypatch.setattr(multigraph, "_SWEEP_BLOCK", block)
        _packed_keys.cache_clear()

    yield set_block
    _packed_keys.cache_clear()


def sweep(n, d, budget):
    """The rows of _canonical_rows, and (examined, yielded) if it overflows."""
    chunks, progress = [], None
    try:
        chunks.extend(_canonical_rows(n, d, budget))
    except EnumerationOverflow as exc:
        progress = (exc.examined, exc.yielded)
    assert all(len(c) for c in chunks)
    rows = np.concatenate(chunks) if chunks else np.zeros((0, n * (n - 1) // 2), np.int64)
    return rows, progress


@pytest.mark.parametrize("n,d", SWEEP_CELLS)
@pytest.mark.parametrize("block", [1, 3, 64, multigraph._SWEEP_BLOCK])
def test_block_sweep_matches_brute_force(n, d, block, sweep_block):
    """At every block size, from one id per block (k = 0) up to the default,
    the sweep yields exactly the brute-force rows in the same order."""
    sweep_block(block)
    rows, progress = sweep(n, d, d ** (n * (n - 1) // 2))
    assert progress is None and np.array_equal(rows, labeled_reference(n, d))


@pytest.mark.parametrize(
    "n,d,block", [(n, d, 64) for n, d in SWEEP_CELLS] + [(5, 3, multigraph._SWEEP_BLOCK)]
)
def test_block_sweep_budget_stops(n, d, block, sweep_block):
    """A budget stop at 0, 1, d^(n choose 2), and at each block boundary and
    one id either side of it, yields the full sweep's rows below the budget
    and reports the budget as examined and their number as yielded."""
    sweep_block(block)
    total = d ** (n * (n - 1) // 2)
    full, _ = sweep(n, d, total)
    ids = full @ relabel_weights(n, d)[:, 0]
    size = block_size(n, d)
    assert total // size > 1
    stops = {0, 1, total} | {b + e for b in range(size, total, size) for e in (-1, 0, 1)}
    for budget in sorted(stops):
        rows, progress = sweep(n, d, budget)
        below = int(np.count_nonzero(ids < budget))
        assert np.array_equal(rows, full[:below]), budget
        assert progress == (None if budget >= total else (budget, below)), budget


def test_block_sweep_bounded_for_huge_d():
    """When d alone exceeds the block, blocks are single ids: a sweep at
    d = 1.5M allocates no d-row table, and below its budget it finds the
    paths 0-2-1 with m02 = 1 and m12 = 1..999."""
    d = 1_500_000
    tracemalloc.start()
    try:
        got = []
        with pytest.raises(EnumerationOverflow) as info:
            for g in enumerate_connected_multigraphs(3, d, budget=d + 1000):
                got.append(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.examined, info.value.yielded) == (d + 1000, 999)
    assert [g.mult[1][2] for g in got] == list(range(1, 1000))
    assert all(g.mult[0][1] == 0 and g.mult[0][2] == 1 for g in got)
    assert peak < 16 * 2**20, peak  # one block of d rows takes about 290 MB


def python_keys(vec, n, d):
    """Relabeling keys of one upper-triangle vector in Python ints: per
    permutation p of itertools.permutations, the rank of the matrix M[p][:, p]."""
    pairs = list(itertools.combinations(range(n), 2))
    m = {}
    for (i, j), x in zip(pairs, vec):
        m[i, j] = m[j, i] = x
    return [
        sum(m[p[i], p[j]] * d ** (len(pairs) - 1 - k) for k, (i, j) in enumerate(pairs))
        for p in itertools.permutations(range(n))
    ]


@pytest.mark.parametrize("d,dtype", [(1290, np.int32), (1291, np.int64)])
def test_keys_exact_on_both_sides_of_2_31(d, dtype):
    """The relabeling keys are exact where d^(n choose 2) is just below 2^31
    (int32 tables) and just above it (int64): at n = 3 the largest key,
    d^3 - 1, is 2,146,688,999 at d = 1290 and past 2^31 at d = 1291."""
    assert (d**3 < 2**31) == (dtype is np.int32)
    assert all(t.dtype == dtype for t in _packed_keys(3, d).tables)
    rng = np.random.default_rng(d)
    vecs = np.concatenate([np.full((1, 3), d - 1), rng.integers(0, d, (50, 3))])
    keys = lookup_keys(3, d, vecs)
    assert keys.tolist() == [python_keys(v, 3, d) for v in vecs.tolist()]
    assert keys[0].tolist() == [d**3 - 1] * 6


def test_lookup_keys_match_int64_on_lc_images():
    """On every LC image of the (5,4) classes whose direct attempt fails, as
    _LCClasses.fill forms them, the looked-up keys equal the plain int64
    matmul's, and _Keys.least gives their least key and a relabeling that
    attains it."""
    n, d = 5, 4
    rows = np.concatenate(list(_canonical_rows(n, d, 4**10)))
    mats = multigraph.triu_to_matrices(rows[_direct_pass(rows, n, d).construction == 0], n)
    assert len(mats) == 3851
    wmat = relabel_weights(n, d)
    iu, ju = np.triu_indices(n, 1)
    off = 1 - np.eye(n, dtype=np.int64)
    for v in range(n):
        r = mats[:, v, :]
        images = ((mats + off * r[:, :, None] * r[:, None, :]) % d)[:, iu, ju]
        assert np.array_equal(lookup_keys(n, d, images), images @ wmat)
        least, index = _packed_keys(n, d).least(images)
        assert np.array_equal(least, (images @ wmat).min(axis=1))
        assert np.array_equal((images @ wmat)[np.arange(len(images)), index], least)


def test_budgeted_sweep_on_int64_keys():
    """(6,5) has 5^15 > 2^31 labeled vectors, so int64 tables.  Below id 5^10
    vertex 0 has no edge, so a sweep cut at 5^10 + 2 * 5^6 yields exactly the
    connected vectors with ids from 5^10 up that are their own canonical form."""
    n, d = 6, 5
    first, budget = d**10, d**10 + 2 * d**6
    assert _packed_keys(n, d).tables[0].dtype == np.int64
    rows, progress = sweep(n, d, budget)
    want = []
    for i in range(first, budget):
        vec = tuple(i // d**k % d for k in range(14, -1, -1))
        g = from_triu_vector(d, n, vec)
        if is_connected(g) and canonical_form(g) == vec:
            want.append(vec)
    assert len(want) > 1000
    assert progress == (budget, len(want))
    assert [tuple(r) for r in rows.tolist()] == want
