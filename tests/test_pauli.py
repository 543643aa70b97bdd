"""Symbolic operator algebra, cross-checked against dense matrices."""

import ast
from pathlib import Path

import numpy as np
import pytest

from netcert import (
    DimensionError,
    Multigraph,
    PauliOperator,
    StructureError,
    commutation_phase,
    dagger,
    multiply,
    power,
    relabel,
    restrict,
    support,
)
from netcert import graph, multigraph
from netcert.oracle import dense
from netcert.pauli import identity, single

PARTIES = ["0", "1", "2"]


def random_operator(rng, d, parties, *, phase=True):
    sites = {p: (int(rng.integers(d)), int(rng.integers(d))) for p in parties}
    ph = int(rng.integers(2 * d)) if phase else 0
    return PauliOperator.from_sites(d, sites, phase_exp=ph)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_multiply_matches_dense(d):
    rng = np.random.default_rng(d)
    for _ in range(40):
        p = random_operator(rng, d, PARTIES)
        q = random_operator(rng, d, PARTIES)
        lhs = dense(multiply(p, q), PARTIES)
        rhs = dense(p, PARTIES) @ dense(q, PARTIES)
        assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dagger_and_power_match_dense(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(25):
        p = random_operator(rng, d, PARTIES)
        assert np.allclose(dense(dagger(p), PARTIES), dense(p, PARTIES).conj().T, atol=1e-10)
        for t in (0, 1, 2, d - 1, d, d + 1, -1, -2):
            if t >= 0:
                expected = np.linalg.matrix_power(dense(p, PARTIES), t)
            else:
                expected = np.linalg.matrix_power(dense(p, PARTIES).conj().T, -t)
            assert np.allclose(dense(power(p, t), PARTIES), expected, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_commutation_phase_matches_dense(d):
    rng = np.random.default_rng(200 + d)
    omega = np.exp(2j * np.pi / d)
    for _ in range(30):
        p = random_operator(rng, d, PARTIES)
        q = random_operator(rng, d, PARTIES)
        k = commutation_phase(p, q)
        mp, mq = dense(p, PARTIES), dense(q, PARTIES)
        assert np.allclose(mp @ mq, omega**k * (mq @ mp), atol=1e-10)


def test_multiply_associative_and_unital():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5, 6):
        for _ in range(20):
            a = random_operator(rng, d, PARTIES)
            b = random_operator(rng, d, PARTIES)
            c = random_operator(rng, d, PARTIES)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, identity(d)) == a
            assert multiply(identity(d), a) == a
            assert multiply(a, dagger(a)) == identity(d)


def test_power_is_repeated_multiplication():
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        for _ in range(10):
            a = random_operator(rng, d, PARTIES)
            acc = identity(d)
            for t in range(7):
                assert power(a, t) == acc
                acc = multiply(acc, a)
            assert power(a, -3) == power(dagger(a), 3)


def test_commutation_phase_bilinear():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 6):
        for _ in range(25):
            a = random_operator(rng, d, PARTIES)
            b = random_operator(rng, d, PARTIES)
            c = random_operator(rng, d, PARTIES)
            lhs = commutation_phase(multiply(a, b), c) % d
            rhs = (commutation_phase(a, c) + commutation_phase(b, c)) % d
            assert lhs == rhs
            assert commutation_phase(a, b) % d == (-commutation_phase(b, a)) % d


def test_from_sites_reduces_and_sorts():
    p = PauliOperator.from_sites(3, {"b": (4, 3), "a": (0, 0), "c": (2, 5)}, phase_exp=7)
    assert p.sites == (("b", (1, 0)), ("c", (2, 2)))
    assert p.phase_exp == 1
    assert support(p) == {"b", "c"}


def test_single_site_clock_shift_convention():
    # Z |q> = omega^q |q>, X |q> = |q+1>; stored order is X then Z.
    d = 3
    xz = dense(single(d, "0", 1, 1), ["0"])
    x = dense(single(d, "0", 1, 0), ["0"])
    z = dense(single(d, "0", 0, 1), ["0"])
    assert np.allclose(xz, x @ z, atol=1e-12)
    e0 = np.zeros(d)
    e0[0] = 1
    assert np.allclose(x @ e0, np.eye(d)[:, 1], atol=1e-12)
    assert np.allclose(np.diagonal(z), np.exp(2j * np.pi * np.arange(d) / d), atol=1e-12)


def test_restrict_and_relabel():
    d = 4
    p = PauliOperator.from_sites(d, {"0": (1, 2), "1": (3, 0), "2": (0, 1)}, phase_exp=5)
    r = restrict(p, ["0", "2"])
    assert r.phase_exp == 0
    assert support(r) == {"0", "2"}
    q = relabel(p, {"1": "1'"})
    assert support(q) == {"0", "1'", "2"}
    assert q.phase_exp == p.phase_exp
    with pytest.raises(StructureError):
        relabel(p, {"1": "0"})


def test_dagger_of_graph_generator_triangle():
    # d=3 triangle, all multiplicities 1: the adjoint of X_A Z_B Z_C
    # negates every exponent and keeps the phase zero.
    from netcert.stabilizer import graph_generator

    g = Multigraph.from_edges(3, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    ga = graph_generator(g, 0)
    adj = dagger(ga)
    assert adj.site_map() == {"0": (2, 0), "1": (0, 2), "2": (0, 2)}
    assert adj.phase_exp == 0


def test_minus_one_is_tau_to_the_d():
    for d in (2, 3, 5):
        p = PauliOperator.from_sites(d, {"0": (0, 0)}, phase_exp=d)
        assert np.allclose(dense(p, ["0"]), -np.eye(d), atol=1e-12)


def test_dimension_validation():
    with pytest.raises(DimensionError):
        PauliOperator.from_sites(1, {"0": (0, 0)})
    a = PauliOperator.from_sites(2, {"0": (1, 0)})
    b = PauliOperator.from_sites(3, {"0": (1, 0)})
    with pytest.raises(DimensionError):
        multiply(a, b)


def netcert_imports(module: str) -> dict[str, set[str]]:
    """What a netcert module's source imports from each other netcert
    module, function-level imports included: the names of ``from .x import
    a, b``, and ``*`` for a whole module (``from . import x``)."""
    path = Path(__file__).resolve().parent.parent / "src" / "netcert" / f"{module}.py"
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, "*") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("netcert")
        ):
            base = (node.module or "").removeprefix("netcert").lstrip(".")
            pairs = [(base, a.name) if base else (a.name, "*") for a in node.names]
        else:
            continue
        for name, what in pairs:
            found.setdefault(name.removeprefix("netcert."), set()).add(what)
    return found


def test_library_modules_do_not_build_symbolic_operators():
    """pauli and stabilizer are the symbolic reference layer: checker,
    certify, ghzbound, network, graph, multigraph and cli import nothing from
    them, and oracle imports from pauli only what dense needs."""
    for module in ("checker", "certify", "ghzbound", "network", "graph", "multigraph", "cli"):
        imports = netcert_imports(module)
        assert not imports.keys() & {"pauli", "stabilizer"}, (module, imports)
    oracle = netcert_imports("oracle")
    assert "stabilizer" not in oracle
    assert oracle["pauli"] <= {"PauliOperator", "support"}
    assert netcert_imports("stabilizer")["pauli"] == {"PauliOperator"}


def test_checker_trusted_base():
    """The static closure of checker's imports within netcert, its trusted
    base, is {checker, graph, network, errors}: graph and network import
    from netcert only errors, and no base module imports numpy or scipy.
    multigraph's is_connected and local_complement, which the benchmark's
    layer trace wraps under multigraph's name, are graph's objects."""
    src = Path(__file__).resolve().parent.parent / "src" / "netcert"
    modules = {path.stem for path in src.glob("*.py")}
    base, todo = set(), ["checker"]
    while todo:
        module = todo.pop()
        if module not in base:
            base.add(module)
            todo.extend(m for m in netcert_imports(module) if m in modules)
    assert base == {"checker", "graph", "network", "errors"}
    for module in ("graph", "network"):
        assert netcert_imports(module).keys() & modules == {"errors"}, module
    for module in base:
        nodes = list(ast.walk(ast.parse((src / f"{module}.py").read_text())))
        names = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
        names += [n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level]
        assert not {name.split(".")[0] for name in names} & {"numpy", "scipy"}, module
    assert multigraph.is_connected is graph.is_connected
    assert multigraph.local_complement is graph.local_complement


def test_checker_import_boundary():
    """ghzbound imports nothing from certify or oracle, and no library
    module imports oracle but the package, which the benchmark's layer trace
    needs, and the cli's selftest, which runs its lemma suites."""
    src = Path(__file__).resolve().parent.parent / "src" / "netcert"
    modules = {path.stem for path in src.glob("*.py")}
    assert not netcert_imports("ghzbound").keys() & {"certify", "oracle"}
    assert {m for m in modules if "oracle" in netcert_imports(m)} == {"__init__", "cli"}
    assert netcert_imports("cli")["oracle"] == {"ALL_LEMMA_CHECKS"}
