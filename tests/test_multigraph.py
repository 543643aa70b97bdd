"""Multigraph structure, canonicalization, enumeration, local complementation.

networkx provides an independent isomorphism oracle for the enumeration
and canonical-form tests.
"""

import itertools

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
from netcert.multigraph import _LCClasses, edges, from_triu_vector, permuted


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
    classes = _LCClasses(n, d, np.array(keys, dtype=np.int64))
    classes.fill(range(len(keys)))
    for k in range(len(keys)):
        rep = from_triu_vector(d, n, keys[k])
        for v in range(n):
            image = local_complement(rep, v)
            k2, p = classes.succ[k][v], classes.relabel[k][v]
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


def test_canonical_form_large_n_guard():
    g = Multigraph.from_edges(2, 9, [(i, i + 1, 1) for i in range(8)])
    with pytest.raises(ResourceError):
        canonical_form(g)
    huge = Multigraph.from_edges(2**64 + 1, 3, [(0, 1, 2**64), (1, 2, 1)])
    with pytest.raises(ResourceError):
        canonical_form(huge)
