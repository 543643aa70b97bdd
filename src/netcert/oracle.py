"""Dense-matrix oracle backing the symbolic layer, and the lemma suites.

All of this is brute force on purpose: explicit Weyl matrices, Kronecker
products, full-spectrum projectors.  Tests use it to validate phases,
eigenspaces, and the operator inequalities the fidelity bounds rest on; no
library path runs it.  ``dense`` (of a ``PauliOperator``, at most
MAX_DENSE_DIMENSION dimensions), ``plus_one_projector`` and
``common_plus_one_eigenvector`` are the test reference of
``checker.shares_plus_one_eigenvector``.  The randomized inequality suites
(ALL_LEMMA_CHECKS) back ``netcert selftest``.  scipy loads inside functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import PropertyViolation, ResourceError, StructureError
from .pauli import PauliOperator, support

#: Largest Hilbert-space dimension ``dense`` builds a matrix for.
MAX_DENSE_DIMENSION = 4096
_ANGULAR_TOL = 1e-8


def weyl_x(d: int) -> np.ndarray:
    """Cyclic shift: X|q> = |q+1 mod d>."""
    m = np.zeros((d, d), dtype=complex)
    for q in range(d):
        m[(q + 1) % d, q] = 1.0
    return m


def weyl_z(d: int) -> np.ndarray:
    """Clock matrix: Z|q> = omega^q |q>."""
    omega = cmath.exp(2j * cmath.pi / d)
    return np.diag([omega**q for q in range(d)]).astype(complex)


def _site_matrix(d: int, x: int, z: int) -> np.ndarray:
    return np.linalg.matrix_power(weyl_x(d), x % d) @ np.linalg.matrix_power(
        weyl_z(d), z % d
    )


def _party_names(parties: Sequence[str], *ops: PauliOperator) -> list[str]:
    """The parties as names, checked distinct and covering each operator."""
    names = [str(x) for x in parties]
    known = set(names)
    if len(known) != len(names):
        raise StructureError(f"duplicate parties in {parties!r}")
    for p in ops:
        missing = support(p) - known
        if missing:
            raise StructureError(f"operator acts on {sorted(missing)} outside parties")
    return names


def dense(p: PauliOperator, parties: Sequence[str]) -> np.ndarray:
    """Kronecker-product matrix of p over the given party order."""
    names = _party_names(parties, p)
    dim = p.d ** len(names)
    if dim > MAX_DENSE_DIMENSION:
        raise ResourceError(f"dimension {dim} exceeds cap {MAX_DENSE_DIMENSION}")
    sites = p.site_map()
    out = np.array([[1.0 + 0.0j]])
    for name in names:
        x, z = sites.get(name, (0, 0))
        out = np.kron(out, _site_matrix(p.d, x, z))
    tau = cmath.exp(1j * cmath.pi / p.d)
    return tau**p.phase_exp * out


def expectation_value(matrix: np.ndarray, state: np.ndarray) -> complex:
    """<M> in a pure state (1-d array) or square density matrix (2-d array)."""
    if state.ndim == 1 and state.shape[0] == matrix.shape[0]:
        return complex(np.vdot(state, matrix @ state))
    if state.ndim == 2 and state.shape == matrix.shape and state.shape[0] == state.shape[1]:
        return complex(np.trace(state @ matrix))
    raise StructureError(
        f"state shape {state.shape} does not match operator shape {matrix.shape}"
    )


def plus_one_projector(unitary: np.ndarray, tol: float = _ANGULAR_TOL) -> np.ndarray:
    """Orthogonal projector onto the +1 eigenspace of a unitary.

    Uses a Schur decomposition (orthonormal even for degenerate spectra)
    and keeps eigenvalues within angular tolerance of 1.
    """
    import scipy.linalg

    t, q = scipy.linalg.schur(unitary, output="complex")
    keep = np.abs(np.angle(np.diagonal(t))) <= tol
    cols = q[:, keep]
    return cols @ cols.conj().T


def mean_plus_one(unitary: np.ndarray, state: np.ndarray) -> float:
    """Weight of the state inside the +1 eigenspace of the unitary."""
    return float(expectation_value(plus_one_projector(unitary), state).real)


def common_plus_one_eigenvector(
    u1: np.ndarray, u2: np.ndarray, tol: float = _ANGULAR_TOL
) -> bool:
    """Whether the +1 eigenspaces of two unitaries intersect.

    The intersection is nonempty iff the largest eigenvalue of
    P1 P2 P1 equals 1 (P_i the +1 projectors).
    """
    import scipy.linalg

    p1 = plus_one_projector(u1, tol)
    p2 = plus_one_projector(u2, tol)
    m = p1 @ p2 @ p1
    top = float(scipy.linalg.eigvalsh(m)[-1])
    return top > 1.0 - tol


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one randomized inequality suite."""

    name: str
    trials: int
    violations: int
    seed: int
    extremal_slack: float
    branch_counts: Mapping[str, int] = field(default_factory=dict)


_SLACK = 1e-9


def _fail(name: str, instance: dict) -> None:
    raise PropertyViolation(f"{name}: inequality violated", instance=instance)


def _random_commuting_pair(
    rng: np.random.Generator, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two commuting unitaries with a shared Haar eigenbasis.

    Some eigenphases are forced to exactly zero so the +1 eigenspaces are
    nontrivial; the rest stay clear of zero by a wide margin.
    """
    basis = haar_unitary(rng, dim)
    th1 = rng.uniform(0.05, 2 * math.pi - 0.05, size=dim)
    th2 = rng.uniform(0.05, 2 * math.pi - 0.05, size=dim)
    for th in (th1, th2):
        zero = rng.random(dim) < 0.4
        if not zero.any():
            zero[rng.integers(dim)] = True
        th[zero] = 0.0
    u1 = basis @ np.diag(np.exp(1j * th1)) @ basis.conj().T
    u2 = basis @ np.diag(np.exp(1j * th2)) @ basis.conj().T
    u3 = basis @ np.diag(np.exp(1j * (th1 + th2))) @ basis.conj().T
    return u1, u2, u3, th1, th2


def _random_input_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    if rng.random() < 0.5:
        return random_state(rng, dim)
    return random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))


def check_lemma_product(trials: int, seed: int = 0) -> PropertyReport:
    """Joint +1 weight of commuting unitaries: m(S1 S2) >= m(S1) + m(S2) - 1.

    Checks the full sandwich: the +1 weight of the product dominates the
    joint-projector overlap, which dominates the union bound.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        u1, u2, u3, _, _ = _random_commuting_pair(rng, dim)
        state = _random_input_state(rng, dim)
        p1 = plus_one_projector(u1)
        p2 = plus_one_projector(u2)
        m1 = float(expectation_value(p1, state).real)
        m2 = float(expectation_value(p2, state).real)
        m3 = mean_plus_one(u3, state)
        mid = float(expectation_value(p1 @ p2, state).real)
        slack = min(m3 - mid, mid - (m1 + m2 - 1))
        worst = min(worst, slack)
        if slack < -_SLACK:
            _fail(
                "product",
                {"dim": dim, "m1": m1, "m2": m2, "m3": m3, "joint": mid},
            )
    return PropertyReport("product", trials, 0, seed, worst)


def check_lemma_fidelity(trials: int, seed: int = 0) -> PropertyReport:
    """Stabilizer +1 weight dominates fidelity with the stabilized state.

    Also checks |<S>| >= <Re S> >= 2 m(S) - 1.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        psi = random_state(rng, dim)
        filler = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        filler[:, 0] = psi
        basis, _ = np.linalg.qr(filler)
        angles = rng.uniform(0.05, 2 * math.pi - 0.05, size=dim)
        angles[0] = 0.0
        angles[rng.random(dim) < 0.2] = 0.0
        s = basis @ np.diag(np.exp(1j * angles)) @ basis.conj().T
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        fid = float(np.vdot(psi, rho @ psi).real)
        m = mean_plus_one(s, rho)
        ev = expectation_value(s, rho)
        slack = min(m - fid, abs(ev) - ev.real, ev.real - (2 * m - 1))
        worst = min(worst, slack)
        if slack < -_SLACK:
            _fail("fidelity", {"dim": dim, "fidelity": fid, "mean": m, "ev": str(ev)})
    return PropertyReport("fidelity", trials, 0, seed, worst)


def _gram_matrix(ops: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    n = len(ops)
    g = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            anti = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            g[i, j] = np.trace(rho @ anti)
    return (g + g.conj().T) / 2


def check_lemma_eigenvalue(trials: int, seed: int = 0) -> PropertyReport:
    """sum_i |<S_i>|^2 <= lambda_max(Gram)/2 for any unitary family."""
    import scipy.linalg

    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        ops = [haar_unitary(rng, dim) for _ in range(n)]
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        total = sum(abs(expectation_value(op, rho)) ** 2 for op in ops)
        lam = float(scipy.linalg.eigvalsh(_gram_matrix(ops, rho))[-1])
        slack = lam / 2 - total
        worst = min(worst, slack)
        if slack < -_SLACK:
            _fail("eigenvalue", {"dim": dim, "n": n, "sum": total, "lam": lam})
    return PropertyReport("eigenvalue", trials, 0, seed, worst)


def _wrap_angle(x: float) -> float:
    """Reduce to (-pi, pi]."""
    y = math.fmod(x + math.pi, 2 * math.pi)
    if y <= 0:
        y += 2 * math.pi
    return y - math.pi


def check_lemma_incompatible(trials: int, seed: int = 0) -> PropertyReport:
    """Gram eigenvalue cap for twisted-commuting Weyl families.

    For single-site operators X^a Z^b with S_i S_j = -e^{i theta_ij} S_j S_i,
    lambda_max(Gram) <= 2 [1 + (n-1) sin(theta_max / 2)].
    """
    import scipy.linalg

    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(2, 5))
        pairs = set()
        while len(pairs) < n:
            pairs.add((int(rng.integers(d)), int(rng.integers(d))))
        family = sorted(pairs)
        mats = [_site_matrix(d, a, b) for a, b in family]
        theta_max = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                ai, bi = family[i]
                aj, bj = family[j]
                k = (bi * aj - bj * ai) % d
                theta_max = max(theta_max, abs(_wrap_angle(math.pi + 2 * math.pi * k / d)))
        rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        lam = float(scipy.linalg.eigvalsh(_gram_matrix(mats, rho))[-1])
        bound = 2 * (1 + (n - 1) * math.sin(theta_max / 2))
        slack = bound - lam
        worst = min(worst, slack)
        if slack < -_SLACK:
            _fail(
                "incompatible",
                {"d": d, "family": family, "lam": lam, "bound": bound},
            )
    return PropertyReport("incompatible", trials, 0, seed, worst)


def check_lemma_corr_sum(trials: int, seed: int = 0) -> PropertyReport:
    """Correlation sums for commuting unitaries.

    <Re S1 S2> >= <Re S1> + <Re S2> - 3/2, and the squared version
    |<S1 S2>|^2 >= |<S1>|^2 + |<S2>|^2 - (3 + 1/dim)/2.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        u1, u2, u3, _, _ = _random_commuting_pair(rng, dim)
        state = _random_input_state(rng, dim)
        e1 = expectation_value(u1, state)
        e2 = expectation_value(u2, state)
        e3 = expectation_value(u3, state)
        re_slack = e3.real - (e1.real + e2.real - 1.5)
        sq_slack = abs(e3) ** 2 - (abs(e1) ** 2 + abs(e2) ** 2 - (3 + 1 / dim) / 2)
        slack = min(re_slack, sq_slack)
        worst = min(worst, slack)
        if slack < -_SLACK:
            _fail(
                "corr_sum",
                {"dim": dim, "e1": str(e1), "e2": str(e2), "e3": str(e3)},
            )
    return PropertyReport("corr_sum", trials, 0, seed, worst)


def _variance_re(matrix: np.ndarray, state: np.ndarray) -> tuple[float, float]:
    re = (matrix + matrix.conj().T) / 2
    mean = float(expectation_value(re, state).real)
    second = float(expectation_value(re @ re, state).real)
    return mean, max(0.0, second - mean * mean)


def check_lemma_uncertainty(trials: int, seed: int = 0) -> PropertyReport:
    """Variance trade-off for a twisted Weyl pair.

    Var(Re S1) Var(Re S2) >= max(0, <Re S1><Re S2> - |sin(theta/2)|)^2
    where S1 S2 = -e^{i theta} S2 S1.  Trials are biased so both the active
    and inactive hinge branches occur.
    """
    import scipy.linalg

    rng = np.random.default_rng(seed)
    worst = math.inf
    branches = {"hinge_active": 0, "hinge_inactive": 0}
    for trial in range(trials):
        force_active = trial % 2 == 0
        if force_active:
            d = int(rng.choice([2, 4, 6, 8]))
            a1, b1 = 1, 0
            a2, b2 = 0, d // 2
        else:
            d = int(rng.integers(2, 8))
            while True:
                a1, b1 = int(rng.integers(d)), int(rng.integers(d))
                a2, b2 = int(rng.integers(d)), int(rng.integers(d))
                if (a1, b1) != (a2, b2) and (a1 or b1) and (a2 or b2):
                    break
        m1 = _site_matrix(d, a1, b1)
        m2 = _site_matrix(d, a2, b2)
        k = (b1 * a2 - b2 * a1) % d
        sin_half = abs(math.sin(_wrap_angle(math.pi + 2 * math.pi * k / d) / 2))
        if force_active:
            herm = (m1 + m1.conj().T + m2 + m2.conj().T) / 2
            _, vecs = scipy.linalg.eigh(herm)
            top = vecs[:, -1]
            mix = 0.9 * np.outer(top, top.conj()) + 0.1 * random_density(rng, d)
            state: np.ndarray = mix / np.trace(mix).real
        else:
            state = _random_input_state(rng, d)
        mean1, var1 = _variance_re(m1, state)
        mean2, var2 = _variance_re(m2, state)
        hinge = mean1 * mean2 - sin_half
        branches["hinge_active" if hinge > 0 else "hinge_inactive"] += 1
        rhs = max(0.0, hinge) ** 2
        slack = var1 * var2 - rhs
        worst = min(worst, slack)
        if slack < -_SLACK:
            _fail(
                "uncertainty",
                {
                    "d": d,
                    "pair": [(a1, b1), (a2, b2)],
                    "vars": [var1, var2],
                    "hinge": hinge,
                },
            )
    return PropertyReport("uncertainty", trials, 0, seed, worst, branches)


ALL_LEMMA_CHECKS = (
    check_lemma_product,
    check_lemma_fidelity,
    check_lemma_eigenvalue,
    check_lemma_incompatible,
    check_lemma_corr_sum,
    check_lemma_uncertainty,
)
