"""Stabilizer operators of graph states and GHZ states.

Graph-state generators are g_i = X at vertex i times Z^{m_ij} at every
neighbor j; they commute exactly (including phases) and generate an
abelian group of order d^n whose joint +1 eigenspace is the graph state.
The GHZ stabilizer group on three parties is parametrized by exponent
triples (a, b, c).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import RangeError, StructureError
from .multigraph import Multigraph
from .pauli import PauliOperator

GHZ_PARTIES = ("A", "B", "C")


def word(g: Multigraph, exponents: Mapping[int, int]) -> PauliOperator:
    """Product of generator powers, one per vertex, in ascending vertex order.

    Built in one pass: g_v^e is X^e at v and Z^(e m_vu) at each neighbor u,
    with no phase, so the product has X-part e and Z-part M e.  Appending
    g_w^(e_w) reorders X^(e_w) past the Z^(sum_{v<w} e_v m_vw) gathered at w,
    adding 2 e_w sum_{v<w} e_v m_vw to the tau exponent.
    """
    d, n = g.d, g.n
    x = [0] * n
    z = [0] * n
    phase = 0
    for v in sorted(exponents):
        if not 0 <= v < n:
            raise StructureError(f"vertex {v} outside 0..{n - 1}")
        e = exponents[v] % d
        if e == 0:
            continue
        phase += 2 * e * z[v]
        x[v] = e
        for u, m in enumerate(g.mult[v]):
            z[u] += e * m
    return PauliOperator.from_sites(d, {str(u): (x[u], z[u]) for u in range(n)}, phase)


def graph_generator(g: Multigraph, i: int) -> PauliOperator:
    """The generator at vertex i: X there, Z^{m_ij} at each neighbor j."""
    if not 0 <= i < g.n:
        raise StructureError(f"vertex {i} outside 0..{g.n - 1}")
    return word(g, {i: 1})


def ghz_stabilizer_element(d: int, a: int, b: int, c: int) -> PauliOperator:
    """The GHZ stabilizer S_abc = Z^a X^c (x) Z^{b-a} X^c (x) Z^{-b} X^c.

    The per-site reorder phases cancel exactly, so the stored phase is 0.
    Exponents must already lie in [0, d).
    """
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not 0 <= value < d:
            raise RangeError(f"exponent {name}={value} outside 0..{d - 1}")
    la, lb, lc = GHZ_PARTIES
    return PauliOperator.from_sites(
        d, {la: (c, a), lb: (c, (b - a) % d), lc: (c, (-b) % d)}
    )


def ghz_group(d: int) -> Iterator[PauliOperator]:
    """All d^3 GHZ stabilizer elements, in lexicographic (a, b, c) order."""
    for a in range(d):
        for b in range(d):
            for c in range(d):
                yield ghz_stabilizer_element(d, a, b, c)
