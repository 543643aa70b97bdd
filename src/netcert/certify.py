"""Certificates that a graph state cannot come from bipartite sources.

A certificate names four stabilizer elements S1, S2, S3 = S1 S2, S4 and a
partition of the vertices into four groups such that (i) each S_i avoids
its own group, so four marginal equalities tie its statistics in the base
network to inflated networks, and (ii) S3 and a relabeled S4 fail to
commute by a d-th root of unity omega^kappa.  Any network state must then
satisfy all four stabilizers at once only up to a fidelity below 1; the
bound is (7 + sqrt(4 + 5 lambda'/2))/10 with lambda' = 2 |cos(pi kappa/d)|.

A Certificate stores only that proof: the graph, the local-complementation
path to the member the operators live on, the groups, and S1, S2, S4 as
exponent vectors over its generators; one function (_derive) derives the
rest.  The reader also takes the earlier JSON form (no "version"), whose
derived fields verify_obs3 compares with the derivation.

Two constructions are implemented: ``obs1`` for constant edge
multiplicity, built from generator quotients around an angle or triangle,
and ``obs4`` for general multiplicities, built from generator powers
scaled by the edge weights around the triple.

One rule set picks and builds them: the lazy angle order
(multigraph._angles), the obs4 blocking test (_blocked), the witness
exponents (_exponent_table) and the groups (_group_masks, from
multigraph._partition_masks).  Two paths apply it: _certify_direct on one
graph with Python ints, for certify_any, whose one scan (_scan) also gives
_refusal its reasons, and _direct_pass on a stack of graphs with int64
arrays, once per isomorphism class, for exhaustive_table.  Both check every
witness they build against the verifier's witness conditions
(_witness; _check_witnesses on arrays).  They stay two because
arrays only pay off in bulk (the README gives the measurements).  The
enumerator keeps packed integer keys for the same reason: a byte-string
canonicaliser took _canonical_rows(5, 4) from 0.28 s to 0.42 s.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateMultiplicity,
    EnumerationOverflow,
    NetcertError,
    RangeError,
    StructureError,
)
from .multigraph import (
    DEFAULT_ENUMERATION_BUDGET,
    DEFAULT_ORBIT_CAP,
    Multigraph,
    _angles,
    _canonical_rows,
    _check_orbit_cap,
    _graph_walk,
    _LCClasses,
    _LCWalk,
    _neighbor_masks,
    _partition_masks,
    class_count,
    edges,
    from_triu_vector,
    is_connected,
    local_complement,
    triu_to_matrices,
)
from .network import marginal_chain_checks, prime
from .pauli import PauliOperator, commutation_phase, relabel, restrict, support
from .stabilizer import word

METHOD_CONSTANT = "obs1"
METHOD_GENERAL = "obs4"

_LAMBDA_TOL = 1e-12


class PowerChoice(NamedTuple):
    """Power t of the fourth operator and the exact |cos(pi t m / d)|."""

    t: int
    cos_value: float


def select_power_t(m: int, d: int) -> PowerChoice:
    """Choose t minimizing |cos(pi t m / d)| over t with t m != 0 mod d.

    With g = gcd(m, d) and d' = d/g, the minimum is 0 when d' is even and
    sin(pi / (2 d')) when d' is odd; it is attained at t = m^{-1} floor(d'/2)
    modulo d'.  The cosine is returned exactly (case split, no rounding).
    """
    if d < 2:
        raise RangeError(f"dimension must be >= 2, got {d}")
    m %= d
    if m == 0:
        raise DegenerateMultiplicity(f"multiplicity divisible by {d}")
    g = gcd(m, d)
    d_red = d // g
    m_red = m // g
    t = (pow(m_red, -1, d_red) * (d_red // 2)) % d
    cos_value = 0.0 if d_red % 2 == 0 else math.sin(math.pi / (2 * d_red))
    return PowerChoice(t=t, cos_value=cos_value)


def fidelity_bound_from_lambda(lambda_prime: float) -> float:
    """Fidelity ceiling (7 + sqrt(4 + 5 lambda'/2)) / 10."""
    if not 0.0 <= lambda_prime <= 2.0:
        raise RangeError(f"lambda' must lie in [0, 2], got {lambda_prime}")
    return (7.0 + math.sqrt(4.0 + 2.5 * lambda_prime)) / 10.0


class Proof(NamedTuple):
    """Everything a Certificate's stored fields imply (see _derive)."""

    certified_graph: Multigraph
    s1: PauliOperator
    s2: PauliOperator
    s3: PauliOperator
    s4: PauliOperator
    s4_relabeling: tuple[tuple[str, str], ...]  # S4's sites in G1 -> their doubled copies
    s4_twisted: PauliOperator  # S4 relabeled by s4_relabeling
    kappa: int
    lambda_prime: float
    fidelity_bound: float
    method: str  # obs4 exactly when certified_graph's weights are not constant


@dataclass(frozen=True)
class Certificate:
    """The proof a certificate consists of (see the module docstring).

    ``e1``, ``e2`` and ``e4`` are S1, S2 and S4 as exponent vectors over the
    generators of ``certified_graph``, the graph after the local
    complementations of ``lc_path``: word(e) has X-part e and Z-part M e.
    Everything else is the Proof that _derive computes, once per
    certificate; its fields read as attributes (``s1``..``s4``, ``kappa``,
    ``lambda_prime``, ``fidelity_bound``, ``method``, ...).  ``claims`` holds
    the other fields of a file in the earlier JSON form, as (name, JSON
    text) pairs: verify_obs3 compares the derived ones with the Proof and
    lists the construction records (PROVENANCE) as ignored.
    """

    graph: Multigraph
    lc_path: tuple[int, ...]
    groups: tuple[tuple[str, ...], ...]
    e1: tuple[int, ...]
    e2: tuple[int, ...]
    e4: tuple[int, ...]
    claims: tuple[tuple[str, str], ...] = ()

    @cached_property
    def proof(self) -> Proof:
        return _derive(self)

    def __getattr__(self, name: str):
        # reached only where normal lookup fails: the derived names read the Proof
        if name in Proof._fields:
            return getattr(self.proof, name)
        raise AttributeError(f"'Certificate' object has no attribute {name!r}")


def _general(g: Multigraph) -> bool:
    """Whether g's edge weights are not constant: obs4, else obs1."""
    return len({m for row in g.mult for m in row if m}) > 1


def _derive(cert: Certificate) -> Proof:
    """Replay lc_path, build S1, S2, S4 and S3 = S1 S2 as words, move S4's
    sites in G1 to their doubled copies, and take kappa from the twist of
    S3 and the moved S4.  lambda' is 2 |cos(pi kappa / d)| by the exact case
    split of select_power_t, which is exact for a kappa that S4's power
    already makes optimal (verify_obs3 checks that it is); kappa = 0 bounds
    nothing."""
    h = cert.graph
    for v in cert.lc_path:
        h = local_complement(h, v)
    d = h.d
    e3 = tuple((x + y) % d for x, y in zip(cert.e1, cert.e2))
    s1, s2, s3, s4 = (word(h, dict(enumerate(e))) for e in (cert.e1, cert.e2, e3, cert.e4))
    sigma = tuple(sorted((lbl, prime(lbl)) for lbl in support(s4) & set(cert.groups[0])))
    s4_twisted = relabel(s4, dict(sigma))
    kappa = commutation_phase(s3, s4_twisted)
    lam = 2.0 * select_power_t(kappa, d).cos_value if kappa else 2.0
    method = METHOD_GENERAL if _general(h) else METHOD_CONSTANT
    bound = fidelity_bound_from_lambda(lam)
    return Proof(h, s1, s2, s3, s4, sigma, s4_twisted, kappa, lam, bound, method)


#: Kinds of direct-attempt failure, in the order _refusal reports them.
REJECTION_KINDS = ("non_constant", "t_abc", "apex", "m_tilde_zero")


@dataclass(frozen=True)
class NotCertified:
    """Outcome when no construction applies anywhere in the orbit searched.

    ``reasons`` has one line per failure of the starting graph's direct
    attempt, then a note on the orbit; ``rejections`` counts those lines by
    kind, as (kind, count) pairs over REJECTION_KINDS.
    """

    graph: Multigraph
    reasons: tuple[str, ...]
    orbit_size: int = 1
    orbit_truncated: bool = False
    rejections: tuple[tuple[str, int], ...] = tuple((kind, 0) for kind in REJECTION_KINDS)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """The checks verify_obs3 ran, and the stored fields it read but did
    not interpret (an earlier form's construction records); those never
    count as a passed check."""

    checks: tuple[Check, ...]
    ignored: tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_obj(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "ignored": list(self.ignored),
        }


def _labels(g: Multigraph) -> list[str]:
    return [str(v) for v in range(g.n)]


# The rules below are written once for both paths: on Python ints for one
# graph (_certify_direct) and on int64 arrays for a whole table cell
# (_direct_pass).  Vertex sets are bitmasks; ``tri1`` is 1 for the obs1
# construction on a triangle and 0 otherwise.


def _blocked(m_ab, m_bc, m_ca, h, nb_a, nb_b, nb_c, b, c, d):
    """Flags (t_abc, apex, m_tilde_zero) of REJECTION_KINDS: why the obs4
    construction fails at a triple with edges AB and CA, h the gcd of its
    three edge weights; all false where it succeeds.  m_tilde_zero is only
    set where the other two are not."""
    t_abc = (nb_a & nb_b & nb_c) != 0
    # j_ab | j_ca: neighbors of a shared with exactly one of b, c
    apex = (m_bc != 0) & ((nb_a & (nb_b ^ nb_c) & ~(1 << b | 1 << c)) != 0)
    m_tilde_zero = ((t_abc | apex) == 0) & ((m_ab * m_ca // h) % d == 0)
    return t_abc, apex, m_tilde_zero


def _obs4_weights(m_ab, m_bc, m_ca, h, d):
    """(m_tilde, ea, eb, ec) of the obs4 construction, h the gcd of the
    triple's three edge weights."""
    m_tilde = (m_ab * m_ca // h) % d
    return m_tilde, -(m_bc // h) % d, (m_ca // h) % d, (m_ab // h) % d


def _exponent_table(tri1, ea, eb, ec, t):
    """Generator exponents at (a, b, c) of S1, S2, S3 and S4.

    Where tri1 is 0 these are the obs4 words; obs1 on an angle is the case
    (ea, eb, ec) = (0, -1, -1).
    """

    def pick(x, y):
        return tri1 * x + (1 - tri1) * y

    return (
        (pick(1, ea), pick(-1, 0), pick(0, ec)),
        (pick(-1, -ea), pick(0, -eb), pick(1, 0)),
        (0, pick(-1, -eb), pick(1, ec)),
        (pick(0, t), 0, pick(t, 0)),
    )


def _group_masks(tri1, a, b, c, nb_a, nb_b, nb_c, full):
    """Bitmasks of groups G1..G4 at triple (a, b, c) of the vertices ``full``.

    The obs1 triangle layout where tri1 is 1, else the angle layout, which
    obs4 shares: at a triple obs4 accepts t_abc is empty, and on a triangle
    so are j_ab and j_ca.
    """
    e_a, e_b, e_c, j_ab, j_bc, j_ca, t_abc, far = _partition_masks(a, b, c, nb_a, nb_b, nb_c, full)

    def pick(x, y):
        return (x & -tri1) | (y & (tri1 - 1))

    return (
        pick(1 << c | e_c, 1 << b | j_ab),
        pick(1 << b | e_b | j_ca, 1 << c | j_ca),
        pick(1 << a | e_a | j_bc | t_abc, 1 << a | e_a | t_abc),
        pick(j_ab | far, e_b | e_c | j_bc | far),
    )


def _build_certificate(
    graph: Multigraph,
    lc_path: tuple[int, ...],
    certified: Multigraph,
    triple: tuple[int, int, int],
    general: bool,
    nb: Sequence[int],
) -> Certificate:
    """The obs4 (``general``) or obs1 construction at a triple it accepts;
    ``nb`` holds the neighbor masks of ``certified``.  A construction bug,
    such as a witness that fails one of verify_obs3's _WITNESS_CHECKS, raises
    here."""
    a, b, c = triple
    d, n, mult = certified.d, certified.n, certified.mult
    m_ab, m_bc, m_ca = mult[a][b], mult[b][c], mult[c][a]
    if general:
        m_tilde, ea, eb, ec = _obs4_weights(m_ab, m_bc, m_ca, gcd(m_ab, m_ca, m_bc), d)
    else:
        ea, eb, ec = 0, -1, -1
    t = select_power_t(m_tilde if general else m_ab, d).t
    tri1 = bool(m_bc) and not general
    e1, e2, e3, e4 = (
        tuple(dict(zip(triple, row)).get(v, 0) % d for v in range(n))
        for row in _exponent_table(tri1, ea, eb, ec, t)
    )
    groups = tuple(
        tuple(str(v) for v in range(n) if mask >> v & 1)
        for mask in _group_masks(tri1, a, b, c, nb[a], nb[b], nb[c], (1 << n) - 1)
    )
    if e3 != tuple((x + y) % d for x, y in zip(e1, e2)):
        raise StructureError("construction bug: S3 is not exactly S1 S2")
    cert = Certificate(graph, lc_path, groups, e1, e2, e4)
    passed = _witness(cert)[0]
    if failed := [name for name, ok in zip(_WITNESS_CHECKS, passed) if not ok]:
        raise StructureError(f"construction bug: failed {', '.join(failed)}")
    if general and cert.kappa != (-t * m_tilde) % d:
        raise StructureError("construction bug: kappa differs from -e m_tilde")
    return cert


def _scan(g: Multigraph, nb: Sequence[int]) -> Iterator[tuple]:
    """The direct attempt's view of g, lazily, in _angles order: per triple
    with edges AB and CA, the triple, m_ab, m_ca, the gcd h of its three edge
    weights, and its _blocked flags; ``nb`` holds g's neighbor masks."""
    d, mult = g.d, g.mult
    for a, b, c in _angles(g):
        m_ab, m_bc, m_ca = mult[a][b], mult[b][c], mult[c][a]
        h = gcd(m_ab, m_bc, m_ca)
        yield (a, b, c), m_ab, m_ca, h, _blocked(m_ab, m_bc, m_ca, h, nb[a], nb[b], nb[c], b, c, d)


def _certify_direct(
    graph: Multigraph, lc_path: tuple[int, ...], certified: Multigraph
) -> Certificate | None:
    """Try every construction on one graph: obs1 at its first triple when the
    weights are constant, else obs4 at the first triple not _blocked.  A
    Certificate, or None; _refusal explains a failure."""
    nb = _neighbor_masks(certified)
    general = _general(certified)
    if general:
        usable = (triple for triple, _, _, _, flags in _scan(certified, nb) if not any(flags))
    else:
        usable = _angles(certified)
    triple = next(usable, None)
    if triple is None:
        return None
    return _build_certificate(graph, lc_path, certified, triple, general, nb)


def _refusal(g: Multigraph, size: int, truncated: bool, orbit_cap: int) -> NotCertified:
    """certify_any's answer for a connected g (n >= 3) whose walk of ``size``
    orbit members found nothing: why the direct attempt on g fails, line by
    line and by kind, and how far the orbit search went."""
    reasons = [f"edge multiplicities {sorted({m for _, _, m in edges(g)})} are not constant"]
    kinds = ["non_constant"]
    for (a, b, c), m_ab, m_ca, h, flags in _scan(g, _neighbor_masks(g)):
        lines = (
            "vertices adjacent to all three present",
            "triangle with shared neighbors at the apex",
            f"m_tilde = {m_ab}*{m_ca}/{h} = 0 (mod {g.d})",
        )
        for kind, flag, line in zip(REJECTION_KINDS[1:], flags, lines):
            if flag:
                reasons.append(f"triple ({a},{b},{c}): {line}")
                kinds.append(kind)
    note = f"all {size} graphs in the local-complementation orbit fail"
    if truncated:
        note += f" (orbit search truncated at {orbit_cap})"
    counts = Counter(kinds)
    rejections = tuple((kind, counts[kind]) for kind in REJECTION_KINDS)
    return NotCertified(
        g, (*reasons, note), orbit_size=size, orbit_truncated=truncated, rejections=rejections
    )


def certify_any(g: Multigraph, orbit_cap: int = DEFAULT_ORBIT_CAP) -> Certificate | NotCertified:
    """Certify a graph, searching its local-complementation orbit if needed.

    The orbit is explored breadth-first and each newly discovered member is
    tried immediately, so success exits early.  ``orbit_cap`` (at least 1)
    bounds the number of distinct orbit members examined.
    """
    _check_orbit_cap(orbit_cap)
    if g.n < 3:
        return NotCertified(g, ("fewer than three vertices",))
    if not is_connected(g):
        raise StructureError("graph is not connected")
    cert = _certify_direct(g, (), g)
    if cert is not None:
        return cert
    walk = _graph_walk(g, orbit_cap)
    for size, (_, image, path) in enumerate(walk, start=1):
        if path:
            cert = _certify_direct(g, path, image)
            if cert is not None:
                return cert
    return _refusal(g, size, walk.truncated, orbit_cap)


class _DirectPass(NamedTuple):
    """Direct attempts on a stack of N graphs (see _direct_pass).

    The rows of ``triple`` to ``phase`` are those of the k graphs that
    certify, in stack order; ``phase`` holds tau exponents.
    """

    certified: np.ndarray  # (N,) bool
    rejections: np.ndarray  # (N, 4) reason lines per REJECTION_KINDS; 0 where certified
    general: np.ndarray  # (N,) bool: weights not constant, so obs4, else obs1
    triple: np.ndarray  # (k, 3)
    groups: np.ndarray  # (k, 4) vertex bitmasks of G1..G4
    x: np.ndarray  # (k, 4, n) X exponents of S1..S4
    z: np.ndarray  # (k, 4, n) Z exponents of S1..S4
    phase: np.ndarray  # (k, 4)


#: Graphs per block of _direct_pass; bounds its (block, triples) temporaries.
_PASS_BLOCK = 2048


def _direct_pass(mats: np.ndarray, d: int) -> _DirectPass:
    """_certify_direct on every graph of a stack of connected multiplicity
    matrices (N, n, n), as arrays.

    Each graph gets the construction and the triple that _certify_direct
    picks (obs1 at its first triple when the weights are constant, else obs4
    at the first triple that is not blocked), its S1..S4 are built, and every
    check of _build_certificate runs on them; a failing check raises
    StructureError.  ``rejections`` counts the reason lines _refusal gives
    for each graph that fails, by kind.
    """
    starts = range(0, max(len(mats), 1), _PASS_BLOCK)
    blocks = [_direct_block(mats[i : i + _PASS_BLOCK], d) for i in starts]
    return _DirectPass(*map(np.concatenate, zip(*blocks)))


def _direct_block(mats: np.ndarray, d: int) -> _DirectPass:
    """_direct_pass on one block of graphs."""
    k, n = mats.shape[0], mats.shape[1]
    mats = mats.astype(np.int64, copy=False)
    # all ordered triples, lexicographic: those with edges AB and CA in _angles order
    ta, tb, tc = np.array(list(itertools.permutations(range(n), 3)), np.int64).reshape(-1, 3).T
    m_ab, m_bc, m_ca = mats[:, ta, tb], mats[:, tb, tc], mats[:, tc, ta]
    nb = ((mats != 0) << np.arange(n)).sum(axis=2)
    valid = (m_ab != 0) & (m_ca != 0)
    h = np.gcd(np.gcd(m_ab, m_ca), m_bc)
    h[h == 0] = 1
    t_block, a_block, z_block = (
        valid & flag
        for flag in _blocked(m_ab, m_bc, m_ca, h, nb[:, ta], nb[:, tb], nb[:, tc], tb, tc, d)
    )
    weights = mats.reshape(k, n * n)
    general = weights.max(axis=1) != np.where(weights != 0, weights, d).min(axis=1)
    usable = np.where(general[:, None], valid & ~(t_block | a_block | z_block), valid)
    certified = usable.any(axis=1)
    fail = ~certified & general
    lines = [np.ones(k, np.int64), t_block.sum(axis=1), a_block.sum(axis=1), z_block.sum(axis=1)]
    rejections = np.stack(lines, axis=1) * fail[:, None]

    rows = np.flatnonzero(certified)
    first = usable[rows].argmax(axis=1) if len(rows) else rows
    a, b, c = ta[first], tb[first], tc[first]
    mats = mats[rows]
    obs4 = general[rows]
    tri1 = ((m_bc[rows, first] != 0) & ~obs4).astype(np.int64)
    mt, ea, eb, ec = _obs4_weights(
        m_ab[rows, first], m_bc[rows, first], m_ca[rows, first], h[rows, first], d
    )
    ea, eb, ec = (np.where(obs4, e, obs1) for e, obs1 in ((ea, 0), (eb, -1), (ec, -1)))
    power_of = np.where(obs4, mt, m_ab[rows, first])
    values, inverse = np.unique(power_of, return_inverse=True)
    t = np.array([select_power_t(int(m), d).t for m in values], dtype=np.int64)[inverse]

    sel = np.arange(len(rows))
    e = np.zeros((len(rows), 4, n), dtype=np.int64)
    for i, (xa, xb, xc) in enumerate(_exponent_table(tri1, ea, eb, ec, t)):
        e[sel, i, a], e[sel, i, b], e[sel, i, c] = xa, xb, xc
    e %= d
    # word(): X-part e, Z-part M e, tau exponent 2 sum_{u<v} e_u m_uv e_v
    z = (e @ mats) % d
    upper = np.triu(mats, 1)
    phase = 2 * ((e * ((e @ upper.transpose(0, 2, 1)) % d)).sum(axis=2) % d)
    groups = np.stack(
        _group_masks(tri1, a, b, c, nb[rows, a], nb[rows, b], nb[rows, c], (1 << n) - 1),
        axis=1,
    )
    _check_witnesses(d, e, z, phase, groups, obs4, (-t * mt) % d)
    return _DirectPass(
        certified, rejections, general, np.stack((a, b, c), axis=1), groups, e, z, phase
    )


def _check_witnesses(d, x, z, phase, groups, general, expected_kappa) -> None:
    """The checks of _build_certificate, verify_obs3's witness conditions
    among them, on (k, 4, n) operator arrays S1..S4."""
    (x1, x2, x3, x4), (z1, z2, z3, z4) = x.transpose(1, 0, 2), z.transpose(1, 0, 2)
    cross = (z1 * x2).sum(axis=1)
    if not (
        ((x1 + x2) % d == x3).all()
        and ((z1 + z2) % d == z3).all()
        and ((phase[:, 0] + phase[:, 1] + 2 * cross) % (2 * d) == phase[:, 2]).all()
    ):
        raise StructureError("construction bug: S3 is not exactly S1 S2")
    if ((cross - (z2 * x1).sum(axis=1)) % d).any():
        raise StructureError("construction bug: S1 and S2 do not commute")
    bits = 1 << np.arange(x.shape[2])
    supports = (((x != 0) | (z != 0)) * bits).sum(axis=2)
    touching = (supports & groups).any(axis=0)
    if touching.any():
        idx = int(touching.argmax()) + 1
        raise StructureError(f"construction bug: S{idx} touches group {idx}")
    # S4's sites in G1 move to the primed copies, which S3 never touches
    outside_g1 = (groups[:, :1] & bits) == 0
    kappa = ((z3 * x4 - z4 * x3) * outside_g1).sum(axis=1) % d
    if not kappa.all():
        raise StructureError("construction bug: S3 and relabeled S4 commute")
    common = supports[:, 2] & supports[:, 3] & ~groups[:, 0]
    if (common & ~groups[:, 1]).any():
        raise StructureError("construction bug: overlap leaks outside group 2")
    # they partition the vertices iff their union and their sum are all of them
    full = (1 << x.shape[2]) - 1
    if ((np.bitwise_or.reduce(groups, axis=1) != full) | (groups.sum(axis=1) != full)).any():
        raise StructureError("construction bug: groups do not partition the vertices")
    if (general & (kappa != expected_kappa)).any():
        raise StructureError("construction bug: kappa differs from -e m_tilde")


@dataclass(frozen=True)
class TableReport:
    """Certification tally over all connected multigraphs of one size.

    ``examined`` counts the labeled multiplicity vectors the enumeration
    scanned, also when it stopped on its budget (``complete`` False), and
    ``expected`` is the cell's class count by Polya counting (class_count),
    so a cut cell shows how many classes it missed.
    ``rejections`` counts, over the classes whose direct attempt fails, the
    reasons that attempt gives, by kind (REJECTION_KINDS): one
    ``non_constant`` per class and one entry per blocked triple.
    """

    n: int
    d: int
    total: int
    expected: int
    certified: int
    methods: tuple[tuple[str, int], ...]
    uncertified: tuple[NotCertified, ...]
    complete: bool
    examined: int
    rejections: tuple[tuple[str, int], ...]

    @property
    def all_certified(self) -> bool:
        return self.complete and self.total > 0 and self.certified == self.total


class _OrbitWalk(NamedTuple):
    """The exact orbit walk of one class of a cell whose direct attempt fails."""

    start: int  # the class, by index into the cell
    path: tuple[int, ...] | None  # to the first member that certifies; None if none does
    general: bool | None  # that member's construction: obs4, else obs1; None if none
    size: int  # classes walked
    truncated: bool


def _orbit_walks(
    rows: np.ndarray,
    n: int,
    d: int,
    certified: np.ndarray,
    general: np.ndarray,
    orbit_cap: int,
    labels: bool = True,
) -> tuple[np.ndarray, list[_OrbitWalk]]:
    """The outcome of certify_any's orbit walk from every class of a cell
    (canonical rows, n >= 3) whose direct attempt fails, in cell order: the
    construction of the first member that certifies (1 obs1, 2 obs4, 0 if
    none does), and the exact walks that decided it, where one was needed.

    A walk is a breadth-first search over class indices, along the LC steps
    _LCClasses.fill computes on arrays; it stops at the first class that
    certifies, so it expands only failing ones.  That class lies at the
    start's distance ``dist`` to the nearest certified class, whatever the
    vertex order.  So when every certified class at that distance has one
    construction (``cons``: 1 obs1, 2 obs4, 3 both), the outcome is known
    without a walk, provided the walk cannot be truncated first: at most n^i
    classes lie at distance i, so sum_{i <= dist} n^i <= orbit_cap suffices,
    and ``depth`` is the largest such distance.  Both labels come from
    relaxation over the filled classes: the failing classes of the cell
    and, in a cell cut by its budget, the failing classes the steps append,
    out to ``depth`` steps, which is all that such walks can reach.  The
    exact walk (_LCWalk over _LCClasses.expand) runs for the rest:
    refusals, which need the orbit's size and truncation, classes with both
    constructions at their distance, and classes further out.  ``labels``
    False walks every class, the reference the labels are tested against.

    ``certified`` and ``general`` give _direct_pass's outcome per class; a
    class outside the cell gets its outcome, and its one witness check, from
    _direct_pass on the rows fill appends.  Relabeling permutes the blocked
    triples, so outcome, rejections and construction depend only on the
    class, and its checked witness covers the member a walk reaches, which
    is never built.  The relabelings in the states fix the vertex order of a
    walk, and with it the path.
    """
    classes = _LCClasses(n, d, rows)

    def appended(known: int) -> _DirectPass:  # the direct pass of the rows fill appended
        return _direct_pass(triu_to_matrices(classes.rows[known:], n), d)

    depth, reach = 0, 1 + n
    while reach <= orbit_cap:
        depth, reach = depth + 1, reach * n + 1
    ok, obs4 = certified, general
    failing = np.flatnonzero(~certified)
    frontier, filled, succ = failing, [], []
    for _ in range(max(depth, 1) if labels else 1):
        filled.append(frontier)
        succ.append(classes.fill(frontier.tolist()))
        if len(classes.rows) == len(ok):
            break
        added = appended(len(ok))
        frontier = len(ok) + np.flatnonzero(~added.certified)
        ok, obs4 = np.concatenate([ok, added.certified]), np.concatenate([obs4, added.general])
    outcome = np.zeros(len(failing), dtype=np.int64)
    if labels:
        f, s = np.concatenate(filled), np.concatenate(succ)
        far = len(ok)  # beyond any distance
        dist = np.where(ok, 0, far)
        while True:
            step = np.minimum(dist[s].min(axis=1) + 1, far)
            if (step == dist[f]).all():
                break
            dist[f] = step
        cons = np.where(ok, 1 + obs4, 0)
        for level in range(1, depth + 1):
            # a step leads one level down or further out, where cons is still 0
            at = dist[f] == level
            cons[f[at]] = np.bitwise_or.reduce(cons[s[at]], axis=1)
        decided = (dist[failing] <= depth) & (cons[failing] != 3)
        outcome[decided] = cons[failing[decided]]
    ok, obs4 = ok.tolist(), obs4.tolist()
    identity = tuple(range(n))
    walks = []
    for i in np.flatnonzero(outcome == 0).tolist():
        start = int(failing[i])
        walk = _LCWalk((start, identity), start, classes.expand, orbit_cap)
        for size, (k, _, path) in enumerate(walk, start=1):
            if k >= len(ok):
                added = appended(len(ok))
                ok.extend(added.certified.tolist())
                obs4.extend(added.general.tolist())
            if ok[k]:
                outcome[i] = 1 + obs4[k]
                walks.append(_OrbitWalk(start, path, obs4[k], size, walk.truncated))
                break
        else:  # the walk yields at least its start
            walks.append(_OrbitWalk(start, None, None, size, walk.truncated))
    return outcome, walks


def exhaustive_table(
    n: int,
    d: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    orbit_cap: int = 4096,
    *,
    workers: int = 1,
) -> TableReport:
    """Certify every connected multigraph class on n vertices over Z_d.

    Outcomes and tallies are those of certify_any on every class, decided
    on arrays: one _direct_pass over all classes, which builds and checks
    each witness; for each class it fails, the outcome of the orbit walk
    from it (_orbit_walks: distance labels over the LC steps of the
    classes, and an exact walk over class indices where they cannot
    decide); and _refusal for the classes nothing certifies.  A rescued
    class counts with the construction of the class its walk stops at.  A
    complete cell whose class total differs from class_count raises
    StructureError (an enumerator bug).  ``workers`` is accepted and
    ignored: the cell runs in one process.
    """
    _check_orbit_cap(orbit_cap)
    if budget < 0:
        raise RangeError(f"enumeration budget must be non-negative, got {budget}")
    chunks: list[np.ndarray] = []
    complete = True
    examined = d ** (n * (n - 1) // 2)
    try:
        chunks.extend(_canonical_rows(n, d, budget))
    except EnumerationOverflow as exc:
        complete = False
        examined = exc.examined
    rows = np.concatenate(chunks) if chunks else np.zeros((0, n * (n - 1) // 2), np.int64)
    expected = class_count(n, d)
    if complete and len(rows) != expected:
        raise StructureError(
            f"enumerator bug: {len(rows)} classes of n={n}, d={d}, "
            f"but Polya counting gives {expected}"
        )
    certified, rejected, general = _direct_pass(triu_to_matrices(rows, n), d)[:3]
    methods = Counter(np.where(general[certified], METHOD_GENERAL, METHOD_CONSTANT).tolist())
    rejections = tuple(zip(REJECTION_KINDS, rejected.sum(axis=0).tolist()))

    def graph(idx: int) -> Multigraph:
        return from_triu_vector(d, n, rows[idx].tolist())

    if n < 3:  # certify_any refuses every class outright
        uncertified = [certify_any(graph(idx)) for idx in range(len(rows))]
    else:
        outcome, walks = _orbit_walks(rows, n, d, certified, general, orbit_cap)
        rescues = np.bincount(outcome, minlength=3).tolist()
        methods[METHOD_CONSTANT + "+lc"] += rescues[1]
        methods[METHOD_GENERAL + "+lc"] += rescues[2]
        uncertified = [
            _refusal(graph(w.start), w.size, w.truncated, orbit_cap)
            for w in walks
            if w.path is None
        ]
    return TableReport(
        n=n,
        d=d,
        total=len(rows),
        expected=expected,
        certified=len(rows) - len(uncertified),
        methods=tuple(sorted((k, v) for k, v in methods.items() if v)),
        uncertified=tuple(uncertified),
        complete=complete,
        examined=examined,
        rejections=rejections,
    )


def verify_obs3(cert: Certificate) -> VerificationReport:
    """Derive what a certificate claims from its stored proof, and check it.

    Reports the derived kappa, lambda' and bound; checks the group
    partition, that S1 and S2 commute, the supports, the twist kappa (nonzero,
    overlap inside group 2), the four marginal equalities, that lambda' is
    2 |cos(pi kappa / d)| (S4's power is the best one), and, within the dense
    cap ``oracle.dimension_cap()``, that the twisted operators share no +1
    eigenvector (``oracle.shares_plus_one_eigenvector``).  A certificate in
    the earlier form gets one check per derived field it stores, named after
    the field, and its construction records in ``ignored``.  A certificate
    whose derivation raises fails an ``integrity`` check; a malformed cap
    setting raises ResourceError.
    """
    from . import oracle

    cap = oracle.dimension_cap()
    checks: list[Check] = []
    try:
        _verify_obs3_checks(cert, cap, checks)
    except (NetcertError, ValueError, KeyError) as exc:
        checks.append(Check("integrity", False, f"verification aborted: {exc}"))
    ignored = tuple(name for name, _ in cert.claims if name in PROVENANCE)
    return VerificationReport(checks=tuple(checks), ignored=ignored)


#: verify_obs3's four conditions on a witness, in the order it reports them.
_WITNESS_CHECKS = ("groups_partition", "commute", "supports", "kappa")


def _witness(cert: Certificate):
    """Per _WITNESS_CHECKS whether it holds (the groups partition the
    vertices, S1 and S2 commute, each S_i avoids group i, S3 and the
    relabeled S4 fail to commute with their overlap inside group 2), then
    the sets verify_obs3 reports and reuses: the union of the groups, the
    supports of S1..S4 and the overlap.  _build_certificate raises on any
    check that fails."""
    p = cert.proof
    group_sets = [frozenset(grp) for grp in cert.groups]
    union = frozenset().union(*group_sets)
    n = cert.graph.n
    partition = union == frozenset(_labels(cert.graph)) and sum(map(len, group_sets)) == n
    commute = commutation_phase(p.s1, p.s2) % cert.graph.d == 0
    supports = tuple(map(support, (p.s1, p.s2, p.s3, p.s4)))
    avoid = not any(sup & grp for sup, grp in zip(supports, group_sets))
    overlap = supports[2] & support(p.s4_twisted)
    kappa = p.kappa != 0 and overlap <= group_sets[1]
    return (partition, commute, avoid, kappa), union, supports, overlap


def _verify_obs3_checks(cert: Certificate, cap: int, checks: list[Check]) -> None:
    from . import oracle

    p = cert.proof
    d = cert.graph.d
    parties = _labels(cert.graph)
    passed, union, supports, overlap = _witness(cert)
    details = (
        f"groups cover {sorted(union)} of {sorted(parties)}",
        "S1 S2 == S2 S1; S3 = S1 S2",
        "each S_i avoids group i",
        f"kappa = {p.kappa}, overlap {sorted(overlap)}",
    )
    checks.extend(map(Check, _WITNESS_CHECKS, passed, details))
    premises = marginal_chain_checks(parties, cert.groups, *supports, dict(p.s4_relabeling))
    for name, ok in premises:
        checks.append(Check(f"marginal: {name}", ok))
    lam = p.lambda_prime
    lam_ok = abs(lam - 2.0 * abs(math.cos(math.pi * p.kappa / d))) <= _LAMBDA_TOL
    checks.append(
        Check("lambda_bound", lam_ok, f"lambda' = {lam}, fidelity bound {p.fidelity_bound}")
    )
    r3 = restrict(p.s3, cert.groups[1])
    r4 = restrict(p.s4_twisted, cert.groups[1])
    sites = sorted(support(r3) | support(r4))
    if sites and d ** len(sites) <= cap:
        ok = not oracle.shares_plus_one_eigenvector(r3, r4, sites)
        detail = "restricted operators have no common +1 eigenvector"
    elif not sites:
        # both restrictions are the identity, which fixes every vector
        ok = False
        detail = "restricted operators act trivially on group 2"
    else:
        # U1 v = v = U2 v with U1 U2 = omega^k U2 U1 forces v = omega^k v, so
        # k != 0 rules out a common +1 eigenvector without the eigenbasis check.
        k = commutation_phase(r3, r4)
        ok = k != 0
        detail = (
            f"restricted operators commute up to omega^{k}; dense check "
            f"skipped: dimension {d}^{len(sites)} exceeds cap {cap}"
        )
    checks.append(Check("eigenspace_obstruction", ok, detail))
    derived = _v1_fields(cert) if cert.claims else {}
    for name, text in cert.claims:
        if name in derived:
            ok = text == derived[name]
            checks.append(Check(name, ok, "" if ok else f"stored {text}, derived {derived[name]}"))


#: Fields of the earlier JSON form that recorded how a certificate was built.
PROVENANCE = ("triple", "kind", "exponents")
_V1_SCALARS = ("kappa", "lambda_prime", "fidelity_bound", "method")
_V2_FIELDS = ("version", "graph", "lc_path", "groups", "S1", "S2", "S4")


def _json_text(value) -> str:
    return json.dumps(value, sort_keys=True)


def _v1_fields(cert: Certificate) -> dict[str, str]:
    """The derived fields of the earlier JSON form, as _json_text.  Each
    factorization lists the nonzero exponents of the operator's vector, with
    e3 = e1 + e2 (mod d)."""
    p, d = cert.proof, cert.graph.d
    e3 = tuple(x + y for x, y in zip(cert.e1, cert.e2))
    fields = {}
    for i, op, e in zip(range(1, 5), (p.s1, p.s2, p.s3, p.s4), (cert.e1, cert.e2, e3, cert.e4)):
        fields[f"S{i}"] = {
            "phase_exp": op.phase_exp,
            "sites": {lbl: list(xz) for lbl, xz in op.sites},
            "factorization": [[str(v), x % d] for v, x in enumerate(e) if x % d],
        }
    fields["S4prime_relabel"] = dict(p.s4_relabeling)
    fields.update((name, getattr(p, name)) for name in _V1_SCALARS)
    return {name: _json_text(value) for name, value in fields.items()}


def certificate_to_json_obj(cert: Certificate) -> dict:
    """The JSON form, version 2: the stored proof and nothing derived.
    Field order is part of the format."""
    return {
        "version": 2,
        "graph": cert.graph.to_json_obj(),
        "lc_path": list(cert.lc_path),
        "groups": [list(grp) for grp in cert.groups],
        "S1": list(cert.e1),
        "S2": list(cert.e2),
        "S4": list(cert.e4),
    }


def _typed(value, types: tuple[type, ...], among: tuple = ()):
    # type(), not isinstance: JSON true/false load as bools, an int subclass
    if type(value) not in types or (among and value not in among):
        raise StructureError(f"malformed certificate object: unexpected {value!r}")
    return value


def _ints(value) -> tuple[int, ...]:
    return tuple(_typed(x, (int,)) for x in _typed(value, (list,)))


def _groups(groups) -> tuple[tuple[str, ...], ...]:
    if len(_typed(groups, (list,))) != 4:
        raise StructureError("malformed certificate object: groups must be G1..G4")
    return tuple(tuple(_typed(lbl, (str,)) for lbl in _typed(grp, (list,))) for grp in groups)


def _vector(value, graph: Multigraph) -> tuple[int, ...]:
    e = _ints(value)
    if len(e) != graph.n or not all(0 <= x < graph.d for x in e):
        msg = f"{value!r} is not in Z_{graph.d}^{graph.n}"
        raise StructureError(f"malformed certificate object: {msg}")
    return e


def _factorization_vector(factorization, graph: Multigraph) -> tuple[int, ...]:
    """An earlier-form factorization [[label, exponent], ...] as a vector."""
    e = [0] * graph.n
    unseen = set(_labels(graph))
    for lbl, x in _typed(factorization, (list,)):
        if _typed(lbl, (str,)) not in unseen:
            raise StructureError(f"malformed certificate object: repeated or unknown {lbl!r}")
        unseen.remove(lbl)
        e[int(lbl)] = _typed(x, (int,)) % graph.d
    return tuple(e)


def certificate_from_json_obj(obj: dict) -> Certificate:
    """Inverse of certificate_to_json_obj.  An object without "version" is in
    the earlier form: S1, S2 and S4 come from their factorizations, the other
    fields become ``claims``.  A field not of its JSON type, a vertex or
    exponent out of range, a repeated or unknown factor label, or a version
    other than 2 raises StructureError."""
    try:
        graph = Multigraph.from_json_obj(obj["graph"])
        lc_path = _ints(obj["lc_path"])
        if not all(0 <= v < graph.n for v in lc_path):
            raise StructureError(f"malformed certificate object: lc_path {list(lc_path)}")
        claims = ()
        if "version" in obj:
            _typed(obj["version"], (int,), (2,))
            if sorted(obj) != sorted(_V2_FIELDS):
                raise StructureError(f"malformed certificate object: fields {sorted(obj)}")
            groups = obj["groups"]
            vectors = [_vector(obj[f"S{i}"], graph) for i in (1, 2, 4)]
        else:
            ops = obj["operators"]
            groups = [obj["groups"][f"G{i}"] for i in range(1, 5)]
            factorizations = (ops[f"S{i}"]["factorization"] for i in (1, 2, 4))
            vectors = [_factorization_vector(f, graph) for f in factorizations]
            # the construction records: type-checked, never interpreted
            _ints(obj["triple"])
            _typed(obj["kind"], (str,), ("angle", "triangle"))
            _ints(list(_typed(obj["exponents"], (dict,)).values()))
            stored = {name: ops[name] for name in ("S1", "S2", "S3", "S4", "S4prime_relabel")}
            stored.update((name, obj[name]) for name in (*_V1_SCALARS, *PROVENANCE))
            claims = tuple((name, _json_text(value)) for name, value in stored.items())
        return Certificate(graph, lc_path, _groups(groups), *vectors, claims)
    # AttributeError: a list in place of an object
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed certificate object: {exc}") from exc


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_json_obj(cert), indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"invalid JSON: {exc}") from exc
    return certificate_from_json_obj(obj)
