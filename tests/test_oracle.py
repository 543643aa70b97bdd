"""Dense ground truth: state builders, spectral helpers, randomized suites."""

import numpy as np
import pytest

from netcert import (
    DimensionError,
    Multigraph,
    PauliOperator,
    ResourceError,
    StructureError,
    ghz_stabilizer_element,
)
from netcert.oracle import (
    ALL_LEMMA_CHECKS,
    common_plus_one_eigenvector,
    dense,
    dimension_cap,
    expectation_value,
    haar_unitary,
    mean_plus_one,
    plus_one_projector,
    random_density,
    random_state,
    shares_plus_one_eigenvector,
    weyl_x,
    weyl_z,
)
from netcert.pauli import power, relabel

from dense_reference import build_graph_state, build_graph_state_eig, ghz_state, monomial_form


def test_weyl_matrices():
    for d in (2, 3, 5):
        x, z = weyl_x(d), weyl_z(d)
        assert np.allclose(x @ x.conj().T, np.eye(d))
        assert np.allclose(np.linalg.matrix_power(x, d), np.eye(d))
        assert np.allclose(np.linalg.matrix_power(z, d), np.eye(d))
        omega = np.exp(2j * np.pi / d)
        assert np.allclose(z @ x, omega * x @ z)
        # Z|q> = omega^q |q>, X|q> = |q+1>
        e0 = np.zeros(d)
        e0[0] = 1
        assert np.allclose(z @ e0, e0)
        assert np.allclose(x @ e0, np.eye(d)[:, 1])


def test_dense_validation():
    p = ghz_stabilizer_element(3, 1, 1, 1)
    with pytest.raises(StructureError):
        dense(p, ["A", "B"])  # missing party C
    with pytest.raises(StructureError):
        dense(p, ["A", "B", "B"])  # duplicate
    m = dense(p, ["A", "B", "C"])
    assert m.shape == (27, 27)
    assert np.allclose(m @ m.conj().T, np.eye(27))


def test_dense_respects_cap(monkeypatch):
    monkeypatch.setenv("NETCERT_CAP", "8")
    assert dimension_cap() == 8
    p = ghz_stabilizer_element(3, 1, 0, 2)
    with pytest.raises(ResourceError):
        dense(p, ["A", "B", "C"])
    monkeypatch.delenv("NETCERT_CAP")
    assert dimension_cap() == 4096


def test_expectation_value_forms():
    rng = np.random.default_rng(41)
    u = haar_unitary(rng, 6)
    psi = random_state(rng, 6)
    rho = np.outer(psi, psi.conj())
    assert abs(expectation_value(u, psi) - expectation_value(u, rho)) < 1e-12
    with pytest.raises(StructureError):
        expectation_value(u, np.zeros((2, 3)))


def test_plus_one_projector():
    rng = np.random.default_rng(42)
    d = 5
    z = weyl_z(d)
    proj = plus_one_projector(z)
    e0 = np.zeros(d)
    e0[0] = 1
    assert np.allclose(proj, np.outer(e0, e0))
    # projector property on a random unitary with a known +1 space
    basis = haar_unitary(rng, 6)
    phases = np.exp(1j * np.array([0.0, 0.0, 1.1, 2.2, 3.3, 4.4]))
    u = basis @ np.diag(phases) @ basis.conj().T
    p = plus_one_projector(u)
    assert np.allclose(p @ p, p)
    assert np.allclose(p.conj().T, p)
    assert abs(np.trace(p) - 2.0) < 1e-9
    psi = random_state(rng, 6)
    assert abs(mean_plus_one(u, psi) - expectation_value(p, psi).real) < 1e-9


def test_common_plus_one_eigenvector():
    d = 2
    x, z = weyl_x(d), weyl_z(d)
    # commuting pair sharing |00...> style fixed point: Z and Z^T
    assert common_plus_one_eigenvector(z, z.conj().T)
    # X and Z share no +1 eigenvector in dimension 2
    assert not common_plus_one_eigenvector(x, z)
    # identity shares with everything
    assert common_plus_one_eigenvector(np.eye(2), x)


def random_weyl(rng, d, parties):
    """tau^p X^x Z^z on a random subset of the parties, random phase p."""
    sites = {
        name: (int(rng.integers(d)), int(rng.integers(d)))
        for name in parties
        if rng.random() < 0.8
    }
    return PauliOperator.from_sites(d, sites, phase_exp=int(rng.integers(2 * d)))


def monomial_matrix(p, parties):
    target, expo = monomial_form(p, parties)
    dim = len(target)
    m = np.zeros((dim, dim), dtype=complex)
    m[target, np.arange(dim)] = np.exp(1j * np.pi * expo / p.d)
    return m


def test_monomial_form_matches_dense():
    rng = np.random.default_rng(45)
    cells = [(d, k) for d in range(2, 10) for k in range(1, 5) if d**k <= 1024]
    for d, k in cells:
        # party order is not the sorted label order, and some parties are idle
        parties = [f"P{j}" for j in rng.permutation(k)]
        for _ in range(6):
            p = random_weyl(rng, d, parties)
            target, expo = monomial_form(p, parties)
            assert sorted(target) == list(range(d**k))
            assert ((0 <= expo) & (expo < 2 * d)).all()
            assert np.abs(monomial_matrix(p, parties) - dense(p, parties)).max() <= 1e-10
    assert {d for d, _ in cells} == set(range(2, 10))
    assert {k for _, k in cells} == {1, 2, 3, 4}


def test_shares_plus_one_eigenvector_matches_schur_reference():
    rng = np.random.default_rng(46)
    outcomes = {True: 0, False: 0}
    for trial in range(600):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, 4))
        while d**k > 125:
            k -= 1
        parties = [str(j) for j in range(k)]
        p = random_weyl(rng, d, parties)
        if trial % 3 == 0:
            q = p
        elif trial % 3 == 1:
            # a power of p with a fresh phase commutes with p
            q = power(p, int(rng.integers(d)))
            q = PauliOperator.from_sites(d, q.site_map(), int(rng.integers(2 * d)))
        else:
            q = random_weyl(rng, d, parties)
        got = shares_plus_one_eigenvector(p, q, parties)
        want = common_plus_one_eigenvector(dense(p, parties), dense(q, parties))
        assert got == want, (p, q)
        outcomes[got] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_shares_plus_one_eigenvector_validation():
    p = PauliOperator.from_sites(3, {"A": (1, 0)})
    with pytest.raises(DimensionError):
        shares_plus_one_eigenvector(p, PauliOperator.from_sites(2, {"A": (1, 0)}), ["A"])
    with pytest.raises(StructureError):
        shares_plus_one_eigenvector(p, PauliOperator.from_sites(3, {"B": (0, 1)}), ["A"])
    with pytest.raises(StructureError):
        monomial_form(p, ["A", "A"])


def test_shares_plus_one_eigenvector_ignores_party_names():
    """Renamed parties and repeated calls give the same decision, a reordered
    party list gives the Schur reference's on that order, and every answer
    is the Schur reference's."""
    rng = np.random.default_rng(47)
    outcomes = {True: 0, False: 0}
    for trial in range(300):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        while d**k > 125:
            k -= 1
        parties = [str(j) for j in range(k)]
        p = random_weyl(rng, d, parties)
        if trial % 3 == 0:
            q = p
        elif trial % 3 == 1:
            q = power(p, int(rng.integers(d)))
            q = PauliOperator.from_sites(d, q.site_map(), int(rng.integers(2 * d)))
        else:
            q = random_weyl(rng, d, parties)
        want = common_plus_one_eigenvector(dense(p, parties), dense(q, parties))
        # new names whose sorted order is not the party order
        names = [f"R{j}" for j in rng.permutation(k)]
        rename = dict(zip(parties, names))
        renamed = relabel(p, rename), relabel(q, rename)
        for _ in range(2):
            assert shares_plus_one_eigenvector(p, q, parties) == want
            assert shares_plus_one_eigenvector(*renamed, names) == want
        order = [parties[j] for j in rng.permutation(k)]
        got = shares_plus_one_eigenvector(p, q, order)
        assert got == common_plus_one_eigenvector(dense(p, order), dense(q, order))
        outcomes[want] += 1
    assert min(outcomes.values()) >= 40, outcomes


def _op(d, phase_exp, **sites):
    return PauliOperator.from_sites(d, sites, phase_exp)


@pytest.mark.parametrize(
    "p,q,want",
    [
        # p q = omega q p: no common +1 eigenvector
        (_op(3, 0, A=(1, 0)), _op(3, 0, A=(0, 1)), False),
        # q = tau X on a qutrit: q^3 = tau^3 = -1, a scalar other than 1
        (_op(3, 0, A=(1, 0)), _op(3, 1, A=(1, 0)), False),
        # Z and -Z: each squares to 1, but p q = -1
        (_op(2, 0, A=(0, 1)), _op(2, 2, A=(0, 1)), False),
        # d = 6, p = omega Z, q = Z^2: p^6 = q^3 = 1, but p^2 q^2 = omega^2;
        # a0 = 2 properly divides the order 6 of p's Pauli part
        (_op(6, 2, A=(0, 1), B=(3, 0)), _op(6, 0, A=(0, 2)), False),
        # the same with q = omega^2 Z^2: p^2 q^2 = 1, and |5>|+> is shared
        (_op(6, 2, A=(0, 1), B=(3, 0)), _op(6, 4, A=(0, 2)), True),
        # X X and Z Z on two qubits share the Bell state
        (_op(2, 0, A=(1, 0), B=(1, 0)), _op(2, 0, A=(0, 1), B=(0, 1)), True),
    ],
    ids=["noncommuting", "q-power-scalar", "mixed-scalar", "d6-proper-divisor", "d6-shared",
         "bell"],
)
def test_shares_plus_one_eigenvector_hand_made_pairs(p, q, want):
    """Each way the group criterion can answer, against the Schur reference."""
    parties = ["A", "B"]
    assert shares_plus_one_eigenvector(p, q, parties) == want
    assert common_plus_one_eigenvector(dense(p, parties), dense(q, parties)) == want


def test_shares_plus_one_eigenvector_validates_every_call():
    """Each validation error raises even right after the same operators'
    content was decided on a valid party list."""
    x, z = PauliOperator.from_sites(3, {"A": (1, 0)}), PauliOperator.from_sites(3, {"A": (0, 1)})
    assert not shares_plus_one_eigenvector(x, z, ["A"])
    with pytest.raises(DimensionError):
        shares_plus_one_eigenvector(x, PauliOperator.from_sites(2, {"A": (0, 1)}), ["A"])
    # z with an extra site outside the parties
    outside = PauliOperator.from_sites(3, {"A": (0, 1), "B": (0, 1)})
    with pytest.raises(StructureError):
        shares_plus_one_eigenvector(x, outside, ["A"])
    xx = PauliOperator.from_sites(3, {"A": (1, 0), "B": (1, 0)})
    zz = PauliOperator.from_sites(3, {"A": (0, 1), "B": (0, 1)})
    assert not shares_plus_one_eigenvector(xx, zz, ["A", "B"])
    with pytest.raises(StructureError):
        shares_plus_one_eigenvector(x, z, ["A", "A"])


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (2, 5)])
def test_graph_state_builders_agree(n, d):
    rng = np.random.default_rng(n * 10 + d)
    eds = [
        (i, j, int(rng.integers(1, d)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.8
    ]
    g = Multigraph.from_edges(d, n, eds)
    psi = build_graph_state(g)
    phi = build_graph_state_eig(g)
    assert abs(np.linalg.norm(psi) - 1) < 1e-10
    overlap = abs(np.vdot(psi, phi))
    assert abs(overlap - 1.0) < 1e-9


def test_ghz_state():
    for d in (2, 3, 4):
        psi = ghz_state(d)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        nonzero = np.nonzero(np.abs(psi) > 1e-12)[0]
        # the d diagonal kets |qqq>
        stride = d * d + d + 1
        assert list(nonzero) == [q * stride for q in range(d)]


def test_random_density_properties():
    rng = np.random.default_rng(43)
    rho = random_density(rng, 7, rank=3)
    assert np.allclose(rho, rho.conj().T)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-12
    assert (evals > 1e-12).sum() == 3


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(44)
    u = haar_unitary(rng, 9)
    assert np.allclose(u @ u.conj().T, np.eye(9), atol=1e-10)


@pytest.mark.parametrize("check", ALL_LEMMA_CHECKS, ids=lambda c: c.__name__)
def test_lemma_suites_smoke(check):
    report = check(trials=150, seed=7)
    assert report.violations == 0
    assert report.trials == 150
    assert report.extremal_slack >= -1e-9
    if report.branch_counts:
        assert sum(report.branch_counts.values()) >= report.trials


def test_uncertainty_suite_exercises_both_branches():
    from netcert.oracle import check_lemma_uncertainty

    report = check_lemma_uncertainty(trials=200, seed=11)
    assert report.branch_counts.get("hinge_active", 0) >= 1
    assert report.branch_counts.get("hinge_inactive", 0) >= 1
