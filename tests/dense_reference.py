"""Dense reference states and the exact monomial form of Weyl operators.

Only tests use these: the graph-state builders and the GHZ state are ground
truth for the stabilizer layer, and ``monomial_form`` writes a Weyl operator
as a basis permutation with exact phases, checked against ``oracle.dense``.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from netcert import Multigraph, PauliOperator, ResourceError, StructureError
from netcert.oracle import _party_names, dense, dimension_cap
from netcert.stabilizer import graph_generator


def _content(p: PauliOperator, names: Sequence[str]) -> tuple[tuple[int, int], ...]:
    """The (x, z) exponents of p at each of the checked names, in order."""
    sites = p.site_map()
    return tuple(sites.get(name, (0, 0)) for name in names)


def _basis_digits(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(digits, weights): row q of digits holds the k digits of basis index
    q, the first party most significant, and digits @ weights == q."""
    weights = d ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return np.arange(d**k, dtype=np.int64)[:, None] // weights % d, weights


def monomial_form(p: PauliOperator, parties: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(target, expo) with p|q> = tau^expo[q] |target[q]>, exactly.

    Per site X^x Z^z |q> = omega^(z q) |q + x>, so p translates the basis by
    its X part and expo = phase_exp + 2 z.q (mod 2d).  The basis index is
    ordered as in ``dense``: the first party is the most significant digit.
    """
    xz = _content(p, _party_names(parties, p))
    d = p.d
    x, z = np.array(xz, dtype=np.int64).reshape(-1, 2).T
    digits, weights = _basis_digits(d, len(xz))
    target = (digits + x) % d @ weights
    expo = (p.phase_exp + 2 * (digits @ z)) % (2 * d)
    return target, expo


def build_graph_state(g: Multigraph) -> np.ndarray:
    """Graph state via the circuit picture: CZ^m powers on a plus-state."""
    dim = g.d**g.n
    if dim > dimension_cap():
        raise ResourceError(f"dimension {dim} exceeds cap {dimension_cap()}")
    digits = np.zeros((dim, g.n), dtype=np.int64)
    ids = np.arange(dim, dtype=np.int64)
    for v in range(g.n):
        digits[:, v] = (ids // (g.d ** (g.n - 1 - v))) % g.d
    phase = np.zeros(dim, dtype=np.int64)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.mult[i][j]:
                phase += g.mult[i][j] * digits[:, i] * digits[:, j]
    omega = cmath.exp(2j * cmath.pi / g.d)
    return (omega ** (phase % g.d)) / math.sqrt(dim)


def build_graph_state_eig(g: Multigraph) -> np.ndarray:
    """Graph state via eigenspaces: product of the generator +1 projectors.

    Each projector is (1/d) sum_t g_i^t; the product has rank one for every
    multigraph, and any nonzero column is the state.
    """
    dim = g.d**g.n
    if dim > dimension_cap():
        raise ResourceError(f"dimension {dim} exceeds cap {dimension_cap()}")
    parties = [str(v) for v in range(g.n)]
    proj = np.eye(dim, dtype=complex)
    for v in range(g.n):
        m = dense(graph_generator(g, v), parties)
        acc = np.eye(dim, dtype=complex)
        cur = np.eye(dim, dtype=complex)
        for _ in range(g.d - 1):
            cur = cur @ m
            acc += cur
        proj = proj @ (acc / g.d)
    col = int(np.argmax(np.abs(np.diagonal(proj))))
    vec = proj[:, col]
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise StructureError("projector product vanished; not a stabilizer state")
    return vec / norm


def ghz_state(d: int) -> np.ndarray:
    """(1/sqrt d) sum_q |qqq> on three parties."""
    vec = np.zeros(d**3, dtype=complex)
    for q in range(d):
        vec[q * d * d + q * d + q] = 1.0
    return vec / math.sqrt(d)
