"""Symbolic Weyl-Heisenberg (generalized Pauli) operators on named sites.

An operator is stored in normal order as

    tau^phase_exp  *  prod_sites  X(site)^x * Z(site)^z

where for qudit dimension d:

    omega = exp(2*pi*1j/d),  tau = exp(1j*pi/d),  tau**2 == omega,
    Z|q> = omega**q |q>,     X|q> = |q+1 mod d>.

``phase_exp`` is kept mod 2d so that -1 = tau**d is representable for every d.
All arithmetic is exact integer arithmetic; the reordering rule is

    X**m Z**n = omega**(-m*n) Z**n X**m.

Site labels are strings; an operator only stores sites it acts on
non-trivially, sorted by label, so equality and hashing are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DimensionError, StructureError

Site = tuple[str, tuple[int, int]]


@dataclass(frozen=True)
class PauliOperator:
    """Normal-ordered product of X/Z powers on named sites with a tau phase."""

    d: int
    phase_exp: int
    sites: tuple[Site, ...]

    @classmethod
    def from_sites(cls, d: int, sites: Mapping[str, tuple[int, int]],
                   phase_exp: int = 0) -> "PauliOperator":
        """Build an operator, reducing exponents mod d and dropping identity sites."""
        if d < 2:
            raise DimensionError(f"qudit dimension must be >= 2, got {d}")
        cleaned = []
        for label, (x, z) in sites.items():
            x %= d
            z %= d
            if x or z:
                cleaned.append((str(label), (x, z)))
        cleaned.sort(key=lambda item: item[0])
        return cls(d=d, phase_exp=phase_exp % (2 * d), sites=tuple(cleaned))

    def site_map(self) -> dict[str, tuple[int, int]]:
        return dict(self.sites)


def identity(d: int) -> PauliOperator:
    """The identity operator (phase tau^0, no sites)."""
    return PauliOperator.from_sites(d, {})


def single(d: int, label: str, x: int, z: int, phase_exp: int = 0) -> PauliOperator:
    """Single-site operator tau^phase_exp * X^x Z^z at ``label``."""
    return PauliOperator.from_sites(d, {label: (x, z)}, phase_exp)


def _check_same_dimension(p: PauliOperator, q: PauliOperator) -> None:
    if p.d != q.d:
        raise DimensionError(f"dimension mismatch: {p.d} vs {q.d}")


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Normal-ordered product p*q.

    Per site, X^x1 Z^z1 * X^x2 Z^z2 = omega^(z1*x2) X^(x1+x2) Z^(z1+z2),
    so the tau exponent picks up 2*z1*x2; X^d = Z^d = 1 exactly, so exponent
    reduction mod d is phase-free.
    """
    _check_same_dimension(p, q)
    d = p.d
    merged = p.site_map()
    phase = p.phase_exp + q.phase_exp
    for label, (x2, z2) in q.sites:
        x1, z1 = merged.get(label, (0, 0))
        phase += 2 * z1 * x2
        merged[label] = ((x1 + x2) % d, (z1 + z2) % d)
    return PauliOperator.from_sites(d, merged, phase)


def dagger(p: PauliOperator) -> PauliOperator:
    """Hermitian conjugate: exponents negate; each mixed site reorders once."""
    d = p.d
    phase = -p.phase_exp
    sites = {}
    for label, (x, z) in p.sites:
        phase += 2 * x * z
        sites[label] = (-x % d, -z % d)
    return PauliOperator.from_sites(d, sites, phase)


def power(p: PauliOperator, t: int) -> PauliOperator:
    """t-fold product p^t; negative t uses the conjugate."""
    if t < 0:
        return power(dagger(p), -t)
    result = identity(p.d)
    base = p
    while t:
        if t & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        t >>= 1
    return result


def commutation_phase(p: PauliOperator, q: PauliOperator) -> int:
    """k in [0, d) with p*q = omega^k q*p.

    k = sum over sites of (z_p*x_q - z_q*x_p) mod d, independent of phases.
    """
    _check_same_dimension(p, q)
    d = p.d
    qmap = q.site_map()
    k = 0
    for label, (xp, zp) in p.sites:
        xq, zq = qmap.get(label, (0, 0))
        k += zp * xq - zq * xp
    return k % d


def support(p: PauliOperator) -> frozenset[str]:
    """Labels where the operator acts non-trivially."""
    return frozenset(label for label, _ in p.sites)


def restrict(p: PauliOperator, labels: Iterable[str]) -> PauliOperator:
    """Keep only the named sites and zero the phase."""
    keep = {str(one) for one in labels}
    sites = {label: xz for label, xz in p.sites if label in keep}
    return PauliOperator.from_sites(p.d, sites, 0)


def relabel(p: PauliOperator, mapping: Mapping[str, str]) -> PauliOperator:
    """Rename sites by ``mapping`` (labels not mapped stay put)."""
    sites = {}
    for label, xz in p.sites:
        new = str(mapping.get(label, label))
        if new in sites:
            raise StructureError(f"relabeling collides on {new!r}")
        sites[new] = xz
    return PauliOperator.from_sites(p.d, sites, p.phase_exp)
