"""Graph-state generators, stabilizer words, and the GHZ stabilizer group."""

import itertools

import numpy as np
import pytest

from netcert import (
    GHZ_PARTIES,
    Multigraph,
    PauliOperator,
    RangeError,
    StructureError,
    commutation_phase,
    dagger,
    ghz_group,
    ghz_stabilizer_element,
    graph_generator,
    identity,
    multiply,
    power,
    word,
)
from netcert.oracle import dense, expectation_value

from dense_reference import build_graph_state, ghz_state


def random_graph(rng, n, d):
    eds = [
        (i, j, int(rng.integers(1, d)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.6
    ]
    return Multigraph.from_edges(d, n, eds)


def reference_generator(g, v):
    """X at v and Z^{m_vu} at each neighbor u, built site by site."""
    sites = {str(u): (0, m) for u, m in enumerate(g.mult[v]) if m}
    sites[str(v)] = (1, 0)
    return PauliOperator.from_sites(g.d, sites)


def reference_word_operator(g, exponents):
    """The generator-power product word() must agree with: power each
    generator and multiply them in ascending vertex order."""
    op = identity(g.d)
    for v in sorted(exponents):
        e = exponents[v] % g.d
        if e:
            op = multiply(op, power(reference_generator(g, v), e))
    return op


def test_word_matches_power_multiply_product():
    rng = np.random.default_rng(23)
    for _ in range(400):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n, d)
        chosen = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        exps = {int(v): int(rng.integers(-2 * d, 2 * d)) for v in chosen}
        assert word(g, exps) == reference_word_operator(g, exps)
        assert all(graph_generator(g, v) == reference_generator(g, v) for v in range(n))
    with pytest.raises(StructureError):
        word(g, {n: 1})


def test_generator_layout():
    g = Multigraph.from_edges(3, 3, [(0, 1, 2), (1, 2, 1)])
    g1 = graph_generator(g, 1)
    assert g1.phase_exp == 0
    assert g1.site_map() == {"0": (0, 2), "1": (1, 0), "2": (0, 1)}
    with pytest.raises(StructureError):
        graph_generator(g, 3)


def test_generators_commute_exactly():
    rng = np.random.default_rng(5)
    for _ in range(60):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, d)
        gens = [graph_generator(g, i) for i in range(n)]
        for ga, gb in itertools.combinations(gens, 2):
            assert commutation_phase(ga, gb) == 0
            assert multiply(ga, gb) == multiply(gb, ga)


def test_generator_order_divides_d():
    rng = np.random.default_rng(6)
    for _ in range(40):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(2, 5))
        g = random_graph(rng, n, d)
        for i in range(n):
            assert power(graph_generator(g, i), d) == identity(d)


def test_word_factorization_and_reduction():
    g = Multigraph.from_edges(4, 3, [(0, 1, 1), (1, 2, 3)])
    expected = multiply(power(graph_generator(g, 0), 2), graph_generator(g, 2))
    assert word(g, {0: 2, 1: 0, 2: 5}) == expected
    assert word(g, {}) == identity(4)
    with pytest.raises(StructureError):
        word(g, {3: 1})


def test_word_matches_dense_product():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        g = random_graph(rng, n, d)
        exps = {v: int(rng.integers(0, d)) for v in range(n)}
        w = word(g, exps)
        parties = [str(v) for v in range(n)]
        mat = np.eye(d**n, dtype=complex)
        for v in range(n):
            gen = dense(graph_generator(g, v), parties)
            mat = mat @ np.linalg.matrix_power(gen, exps[v])
        assert np.allclose(dense(w, parties), mat, atol=1e-10)


def test_graph_state_is_fixed_by_all_words():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        g = random_graph(rng, n, d)
        if d**n > 256:
            continue
        state = build_graph_state(g)
        parties = [str(v) for v in range(n)]
        exps = {v: int(rng.integers(0, d)) for v in range(n)}
        w = word(g, exps)
        val = expectation_value(dense(w, parties), state)
        assert abs(val - 1.0) < 1e-10


def test_ghz_element_sites_and_phase():
    s = ghz_stabilizer_element(5, 2, 3, 1)
    assert s.phase_exp == 0
    assert s.site_map() == {"A": (1, 2), "B": (1, 1), "C": (1, 2)}
    assert ghz_stabilizer_element(3, 0, 0, 0) == identity(3)
    with pytest.raises(RangeError):
        ghz_stabilizer_element(3, 3, 0, 0)
    with pytest.raises(RangeError):
        ghz_stabilizer_element(3, 0, -1, 0)


def test_ghz_group_closure_and_inverse():
    for d in (2, 3, 5):
        for a, b, c in itertools.product(range(d), repeat=3):
            s = ghz_stabilizer_element(d, a, b, c)
            for x, y, z in [(1, 0, 0), (d - 1, 1, d // 2), (2 % d, 2 % d, 1)]:
                t = ghz_stabilizer_element(d, x, y, z)
                combined = ghz_stabilizer_element(
                    d, (a + x) % d, (b + y) % d, (c + z) % d
                )
                assert multiply(s, t) == combined  # closure, phase-free
            assert dagger(s) == ghz_stabilizer_element(
                d, (-a) % d, (-b) % d, (-c) % d
            )


def test_ghz_group_size_and_order():
    for d in (2, 3, 4):
        elems = list(ghz_group(d))
        assert len(elems) == d**3
        assert len(set(elems)) == d**3
        assert elems[0] == identity(d)
        # lexicographic ordering: second element is S_{0,0,1}
        assert elems[1] == ghz_stabilizer_element(d, 0, 0, 1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ghz_group_average_is_ghz_projector(d):
    acc = np.zeros((d**3, d**3), dtype=complex)
    for s in ghz_group(d):
        acc += dense(s, GHZ_PARTIES)
    acc /= d**3
    psi = ghz_state(d)
    assert np.allclose(acc, np.outer(psi, psi.conj()), atol=1e-10)


def test_ghz_elements_stabilize_ghz_state():
    for d in (2, 3, 5):
        psi = ghz_state(d)
        for s in ghz_group(d):
            val = expectation_value(dense(s, GHZ_PARTIES), psi)
            assert abs(val - 1.0) < 1e-10
