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
rest, on integer vectors (S_i has X-part e and Z-part M e) and vertex
bitmasks, on which verify_obs3 checks it too.  The reader also takes the
earlier JSON form (no "version"), whose derived fields (_v1_fields, on
the vectors) verify_obs3 compares with the derivation.

Two constructions are implemented: ``obs1`` for constant edge
multiplicity, built from generator quotients around an angle or triangle,
and ``obs4`` for general multiplicities, built from generator powers
scaled by the edge weights around the triple.

One rule set picks and builds them: the lazy angle order
(multigraph._angles), the obs4 blocking tests (_blocked, _m_tilde), the witness
exponents (_exponent_table) and the groups (_group_masks, from
multigraph._partition_masks).  Two paths apply it, and each reads only the
triples (a, b, c) with b < c, one of each mirror pair (see _direct_pass):
_certify_direct on one graph with Python ints, for certify_any, whose
per-triple flags (_triple_flags) also give _refusal its reasons for every
ordered triple, and _direct_pass on a table cell's canonical rows with
integer arrays, a block at a time, for exhaustive_table.  Both check every
witness they build against the verifier's witness conditions, on vectors
and bitmasks (_witness on one Proof; _check_witnesses on each block's
arrays, which are then dropped: a table keeps one construction code per
class).  They stay two because arrays only pay off in bulk (the README
gives the measurements).

A class that fails is walked along its local-complementation orbit:
certify_any walks labeled graphs (multigraph._graph_walk), a table its
class indices (_orbit_walks) in one store, _LCClasses, of each class's row,
construction code and LC steps as arrays; it judges each class it appends.
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
    _LCWalk,
    _masks_connected,
    _neighbor_masks,
    _packed_keys,
    _partition_masks,
    _permutations,
    _slots,
    class_count,
    edges,
    from_triu_vector,
    local_complement,
)
from .network import label_masks, marginal_mask_checks, partitions, prime

METHOD_CONSTANT = "obs1"
METHOD_GENERAL = "obs4"

_LAMBDA_TOL = 1e-12

#: exhaustive_table's default orbit_cap: the most classes one orbit walk visits.
TABLE_ORBIT_CAP = 4096

#: Classes per block of the table's passes over classes, _direct_pass and
#: _LCClasses.fill; bounds their (block, ...) temporaries.
_PASS_BLOCK = 2048


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
    """Everything a Certificate's stored fields imply (see _derive).  S1..S4
    are X-parts ``x``, Z-parts ``z`` and support bitmasks ``supports`` over
    the vertices of ``certified_graph``; G1..G4 are bitmasks over
    ``labels``, the vertex labels and then any group label that names no
    vertex; S_i's tau exponent is _tau(certified_graph, x[i])."""

    certified_graph: Multigraph
    x: tuple[list[int], ...]
    z: tuple[list[int], ...]
    supports: tuple[int, ...]
    labels: list[str]
    groups: list[int]
    kappa: int
    lambda_prime: float
    fidelity_bound: float
    method: str  # obs4 exactly when certified_graph's weights are not constant


def _named(labels: Sequence[str], mask: int) -> list[str]:
    return [lbl for v, lbl in enumerate(labels) if mask >> v & 1]


def _restricted(p: Proof, i: int, mask: int) -> tuple[list[int], list[int], int]:
    """S_i restricted to its vertices in ``mask``, phase dropped, as the
    (x, z, tau) of oracle.shares_plus_one_eigenvector."""
    keep = [mask >> v & 1 for v in range(len(p.x[i]))]
    return [x * k for x, k in zip(p.x[i], keep)], [z * k for z, k in zip(p.z[i], keep)], 0


def _tau(g: Multigraph, x: Sequence[int]) -> int:
    """The tau exponent 2 sum_{u<v} x_u m_uv x_v mod 2d of the generator
    word with X-part x on g (stabilizer.word)."""
    nonzero, mult = [v for v, xv in enumerate(x) if xv], g.mult
    pairs = sum(x[u] * mult[u][v] * x[v] for u, v in itertools.combinations(nonzero, 2))
    return 2 * pairs % (2 * g.d)


def _symplectic(x1, z1, x2, z2, mask: int) -> int:
    """sum of z1 x2 - z2 x1 over the vertices in ``mask``: mod d, the
    commutation phase of (x1, z1) and (x2, z2) where ``mask`` holds every
    vertex both act on."""
    return sum(z1[v] * x2[v] - z2[v] * x1[v] for v in range(len(x1)) if mask >> v & 1)


@dataclass(frozen=True)
class Certificate:
    """The proof a certificate consists of (see the module docstring).

    ``e1``, ``e2`` and ``e4`` are S1, S2 and S4 as exponent vectors over the
    generators of ``certified_graph``, the graph after the local
    complementations of ``lc_path``: word(e) has X-part e and Z-part M e.
    Everything else is the Proof that _derive computes, once per
    certificate; its fields read as attributes (``kappa``,
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
    """Replay lc_path and build S1, S2, S4 and S3 = S1 S2 as vectors: the
    product of the generator powers e (stabilizer.word) has X-part e and
    Z-part M e.  The groups become bitmasks.  kappa is the twist of S3 and S4
    once S4's sites in G1 move to their doubled copies, which S3 never
    touches: the symplectic sum over the vertices outside G1.  lambda' is
    2 |cos(pi kappa / d)| by the exact case split of select_power_t, which is
    exact for a kappa that S4's power already makes optimal (verify_obs3
    checks that it is); kappa = 0 bounds nothing."""
    h = cert.graph
    for v in cert.lc_path:
        h = local_complement(h, v)
    d, n = h.d, h.n
    if max(len(cert.e1), len(cert.e2), len(cert.e4)) > n:
        raise StructureError(f"vertex {n} outside 0..{n - 1}")
    ops = []
    for e in (cert.e1, cert.e2, [x + y for x, y in zip(cert.e1, cert.e2)], cert.e4):
        x, z = [ev % d for ev in e] + [0] * (n - len(e)), [0] * n
        for v, ev in enumerate(x):
            if ev:
                z = [zu + ev * m for zu, m in zip(z, h.mult[v])]
        z = [zu % d for zu in z]
        ops.append((x, z, sum(1 << v for v in range(n) if x[v] or z[v])))
    xs, zs, supports = zip(*ops)
    bit = {lbl: 1 << v for v, lbl in enumerate(_labels(h))}
    groups = label_masks(bit, cert.groups)
    overlap = supports[2] & supports[3] & ~groups[0]
    kappa = _symplectic(xs[2], zs[2], xs[3], zs[3], overlap) % d
    lam = 2.0 * select_power_t(kappa, d).cos_value if kappa else 2.0
    method = METHOD_GENERAL if _general(h) else METHOD_CONSTANT
    bound = fidelity_bound_from_lambda(lam)
    return Proof(h, xs, zs, supports, list(bit), groups, kappa, lam, bound, method)


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


class Check(NamedTuple):
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
            "checks": [c._asdict() for c in self.checks],
            "ignored": list(self.ignored),
        }


def _labels(g: Multigraph) -> list[str]:
    return [str(v) for v in range(g.n)]


# The rules below are written once for both paths: on Python ints for one
# graph (_certify_direct) and on integer arrays for a whole table cell
# (_direct_pass).  Vertex sets are bitmasks; ``tri1`` is 1 for the obs1
# construction on a triangle and 0 otherwise.


def _blocked(m_bc, nb_a, nb_b, nb_c, b, c):
    """Flags (t_abc, apex) of REJECTION_KINDS at a triple with edges AB and
    CA: the obs4 construction fails where either is set, and where both are
    clear it fails iff _m_tilde is 0 (m_tilde_zero)."""
    t_abc = (nb_a & nb_b & nb_c) != 0
    # j_ab | j_ca: neighbors of a shared with exactly one of b, c
    apex = (m_bc != 0) & ((nb_a & (nb_b ^ nb_c) & ~(1 << b | 1 << c)) != 0)
    return t_abc, apex


def _m_tilde(m_ab, m_ca, h, d):
    """m_tilde of the obs4 construction, h the gcd of the triple's three
    edge weights."""
    return (m_ab * m_ca // h) % d


def _obs4_weights(m_ab, m_bc, m_ca, h, d):
    """(m_tilde, ea, eb, ec) of the obs4 construction, h the gcd of the
    triple's three edge weights."""
    return _m_tilde(m_ab, m_ca, h, d), -(m_bc // h) % d, (m_ca // h) % d, (m_ab // h) % d


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
    vectors = [[0] * n for _ in range(4)]
    for e, (xa, xb, xc) in zip(vectors, _exponent_table(tri1, ea, eb, ec, t)):
        e[a], e[b], e[c] = xa % d, xb % d, xc % d
    e1, e2, e3, e4 = map(tuple, vectors)
    labels = _labels(certified)
    masks = _group_masks(tri1, a, b, c, nb[a], nb[b], nb[c], (1 << n) - 1)
    groups = tuple(tuple(_named(labels, mask)) for mask in masks)
    if e3 != tuple((x + y) % d for x, y in zip(e1, e2)):
        raise StructureError("construction bug: S3 is not exactly S1 S2")
    cert = Certificate(graph, lc_path, groups, e1, e2, e4)
    passed = _witness(cert.proof)[0]
    if failed := [name for name, ok in zip(_WITNESS_CHECKS, passed) if not ok]:
        raise StructureError(f"construction bug: failed {', '.join(failed)}")
    if general and cert.kappa != (-t * m_tilde) % d:
        raise StructureError("construction bug: kappa differs from -e m_tilde")
    return cert


def _triple_flags(g: Multigraph, nb: Sequence[int], a: int, b: int, c: int):
    """The direct attempt's view of g at a triple with edges AB and CA: the
    gcd h of its three edge weights where _blocked's flags are clear (else
    None), and its flags (t_abc, apex, m_tilde_zero); ``nb`` holds g's
    neighbor masks."""
    mult = g.mult
    m_ab, m_bc, m_ca = mult[a][b], mult[b][c], mult[c][a]
    t_abc, apex = _blocked(m_bc, nb[a], nb[b], nb[c], b, c)
    h = None if t_abc or apex else gcd(m_ab, m_bc, m_ca)
    return h, (t_abc, apex, h is not None and _m_tilde(m_ab, m_ca, h, g.d) == 0)


def _certify_direct(
    graph: Multigraph, lc_path: tuple[int, ...], certified: Multigraph, nb: list[int] | None = None
) -> Certificate | None:
    """Try every construction on one graph: obs1 at its first triple when the
    weights are constant, else obs4 at the first triple not _blocked.  A
    Certificate, or None; _refusal explains a failure.  ``nb`` holds the
    neighbor masks of ``certified``, if already built."""
    nb = _neighbor_masks(certified) if nb is None else nb
    general = _general(certified)
    if general:
        # by the mirror lemma (see _direct_pass) the first usable triple has b < c
        usable = (
            (a, b, c)
            for a, b, c in _angles(certified)
            if b < c and not any(_triple_flags(certified, nb, a, b, c)[1])
        )
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
    nb = _neighbor_masks(g)
    for a, b, c in _angles(g):
        h, flags = _triple_flags(g, nb, a, b, c)
        lines = (
            "vertices adjacent to all three present",
            "triangle with shared neighbors at the apex",
            f"m_tilde = {g.mult[a][b]}*{g.mult[c][a]}/{h} = 0 (mod {g.d})",
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
    nb = _neighbor_masks(g)
    if not _masks_connected(nb):
        raise StructureError("graph is not connected")
    cert = _certify_direct(g, (), g, nb)
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
    """Direct attempts on N graphs (see _direct_pass)."""

    construction: np.ndarray  # (N,) int8: 0 fails, 1 obs1, 2 obs4 (weights not constant)
    rejections: np.ndarray  # (4,) reason lines per REJECTION_KINDS, summed over the failures


class _DirectBlock(NamedTuple):
    """_DirectPass on one block, rejections per graph, with the witnesses of
    its k graphs that certify, in block order; ``phase`` holds tau exponents."""

    construction: np.ndarray
    rejections: np.ndarray  # (block, 4); 0 where certified
    triple: np.ndarray  # (k, 3)
    groups: np.ndarray  # (k, 4) vertex bitmasks of G1..G4
    x: np.ndarray  # (k, 4, n) X exponents of S1..S4
    z: np.ndarray  # (k, 4, n) Z exponents of S1..S4
    phase: np.ndarray  # (k, 4)


def _direct_pass(rows: np.ndarray, n: int, d: int) -> _DirectPass:
    """_certify_direct on every connected multigraph of a stack of
    upper-triangle rows (N, n choose 2), as arrays, _PASS_BLOCK rows at a
    time; only the construction per graph and the rejection totals are kept.

    Each graph gets the construction and the triple that _certify_direct
    picks (obs1 at its first triple when the weights are constant, else obs4
    at the first triple that is not blocked), its S1..S4 are built, and every
    check of _build_certificate runs on them (_direct_block); a failing
    check raises StructureError.  ``rejections`` counts the reason lines
    _refusal gives for the graphs that fail, by kind.

    It reads each angle once, by the mirror lemma: at a triple (a, b, c)
    with edges AB and CA, validity (m_ab, m_ca nonzero) and the three
    flags of _triple_flags are unchanged when b and c swap, since each reads
    b and c only symmetrically: nb_a & nb_b & nb_c, then m_bc, nb_b ^ nb_c
    and the mask {b, c}, then m_ab m_ca and h, the gcd of all three weights.
    So the first usable triple in _angles order has b < c: were it
    (a, b, c) with b > c, its mirror (a, c, b) would be usable too and
    come earlier (same a, smaller second vertex).  And each kind's count
    of rejected ordered triples is twice its count over those with b < c.
    _direct_block therefore keeps only the n(n-1)(n-2)/2 triples with
    b < c and doubles the blocked-triple counts.
    """
    starts = range(0, max(len(rows), 1), _PASS_BLOCK)
    blocks = (_direct_block(rows[i : i + _PASS_BLOCK], n, d) for i in starts)
    construction, rejections = zip(*((b.construction, b.rejections.sum(axis=0)) for b in blocks))
    return _DirectPass(np.concatenate(construction), np.sum(rejections, axis=0))


def _direct_block(rows: np.ndarray, n: int, d: int) -> _DirectBlock:
    """_direct_pass on one block of rows, with its checked witnesses.
    Weights and neighbour masks are gathered through multigraph._slots, h
    and m_tilde are computed only where _blocked's flags are clear, at about
    one triple in twelve on (5,4), and matrices are built only for the rows
    that certify, for Z = e M."""
    k, slot = len(rows), _slots(n)
    # the ordered triples with b < c, lexicographic: those with edges AB and
    # CA in _angles order, each mirror pair once (see _direct_pass)
    ta, tb, tc = np.array(
        [(a, b, c) for a, b, c in itertools.permutations(range(n), 3) if b < c], np.int32
    ).reshape(-1, 3).T
    # int32 where there are triples: n >= 3 keeps d below 2^21
    small = np.pad(rows, [(0, 0), (0, 1)]).astype(np.int32)
    m_ab, m_bc, m_ca = (small[:, slot[i, j]] for i, j in ((ta, tb), (tb, tc), (tc, ta)))
    nb = ((small[:, slot] != 0) << np.arange(n, dtype=np.int32)).sum(axis=2, dtype=np.int32)
    valid = (m_ab != 0) & (m_ca != 0)
    t_abc, apex = _blocked(m_bc, *(nb.take(x, axis=1) for x in (ta, tb, tc)), tb, tc)
    t_block, a_block = valid & t_abc, valid & apex
    clear = np.flatnonzero(valid & ~(t_abc | apex))
    z_block = np.zeros((k, len(ta)), dtype=bool)
    ab, bc, ca = (x.ravel()[clear].astype(np.int64) for x in (m_ab, m_bc, m_ca))
    z_block.ravel()[clear] = _m_tilde(ab, ca, np.gcd(np.gcd(ab, ca), bc), d) == 0
    general = rows.max(axis=1) != np.where(rows != 0, rows, d).min(axis=1)
    usable = np.where(general[:, None], valid & ~(t_block | a_block | z_block), valid)
    certified = usable.any(axis=1)
    construction = (certified * (1 + general)).astype(np.int8)
    fail = ~certified & general
    rejections = np.zeros((k, 4), dtype=np.int64)
    rejections[fail] = [1, 0, 0, 0]
    for i, x in enumerate((t_block, a_block, z_block), start=1):
        rejections[fail, i] = 2 * np.count_nonzero(x[fail], axis=1)

    hit = np.flatnonzero(certified)
    first = usable[hit].argmax(axis=1) if len(hit) else hit
    a, b, c = (x[first].astype(np.int64) for x in (ta, tb, tc))
    obs4 = general[hit]
    ab, bc, ca = (x[hit, first].astype(np.int64) for x in (m_ab, m_bc, m_ca))
    tri1 = ((bc != 0) & ~obs4).astype(np.int64)
    mt, ea, eb, ec = _obs4_weights(ab, bc, ca, np.gcd(np.gcd(ab, ca), bc), d)
    ea, eb, ec = (np.where(obs4, e, obs1) for e, obs1 in ((ea, 0), (eb, -1), (ec, -1)))
    power_of = np.where(obs4, mt, ab)
    values, inverse = np.unique(power_of, return_inverse=True)
    t = np.array([select_power_t(int(m), d).t for m in values], dtype=np.int64)[inverse]

    sel = np.arange(len(hit))
    e = np.zeros((len(hit), 4, n), dtype=np.int64)
    for i, (xa, xb, xc) in enumerate(_exponent_table(tri1, ea, eb, ec, t)):
        e[sel, i, a], e[sel, i, b], e[sel, i, c] = xa, xb, xc
    e %= d
    # word(): X-part e, Z-part M e, tau exponent 2 sum_{u<v} e_u m_uv e_v,
    # where only e_a, e_b and e_c are nonzero
    z = (e @ small[hit][:, slot]) % d
    xa, xb, xc = (e[sel, :, v] for v in (a, b, c))
    pairs = xa * xb % d * ab[:, None] + xa * xc % d * ca[:, None] + xb * xc % d * bc[:, None]
    phase = 2 * (pairs % d)
    triple = np.stack((a, b, c), axis=1)
    groups = np.stack(_group_masks(tri1, a, b, c, *nb[hit, triple.T], (1 << n) - 1), axis=1)
    _check_witnesses(d, e, z, phase, groups, obs4, (-t * mt) % d)
    return _DirectBlock(construction, rejections, triple, groups, e, z, phase)


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


class _LCClasses:
    """The classes of a table cell on n >= 3 vertices over Z_d, with
    d^(n choose 2) < 2^62, and local complementation between them: one
    store, by class index, of arrays that grow together.

    ``rows`` holds the canonical form of each class: first the cell's, in
    ascending order (as the sweep yields them; else StructureError), then
    each class a step meets outside them (a cell cut short by its budget).
    Class k stands for its canonical representative rep_k, and
    ``construction`` holds _direct_pass's outcome on it.  Once ``fill`` has
    run on k, ``succ[k, v]`` is the class of LC(rep_k, v) and
    ``relabel[k, v]`` the index into ``perms`` of the relabeling p with
    LC(rep_k, v) = permuted(rep_k2, p); ``succ[k]`` is -1 until then.
    """

    def __init__(self, n: int, d: int, rows: np.ndarray, construction: np.ndarray) -> None:
        self.n, self.d = n, d
        self.rows, self.construction = rows, construction
        self.succ = np.full((len(rows), n), -1, dtype=np.int32)
        self.relabel = np.zeros((len(rows), n), dtype=np.uint16)  # n! <= 40,320
        self.perms = _permutations(n)
        self.perm_rows: list[list[int]] | None = None  # ``perms`` as lists, for expand
        self.keys = _packed_keys(n, d)
        # the packed keys of ``rows`` in ascending order, and their classes
        self.sorted_keys, self.order = rows @ self.keys.weights, np.arange(len(rows))
        if (np.diff(self.sorted_keys) <= 0).any():
            raise StructureError("class store rows are not in strictly ascending order")

    def expand(
        self, state: tuple[int, tuple[int, ...]]
    ) -> Iterator[tuple[int, tuple[int, tuple[int, ...]]]]:
        """_LCWalk expansion of states (k, perm), each standing for
        permuted(rep_k, perm): LC at vertex a of that member is LC at vertex
        perm^-1(a) of rep_k, relabeled by perm.  Fills class k first if no
        earlier ``fill`` did."""
        k, perm = state
        succ = self.succ[k].tolist()
        if succ[0] < 0:
            self.fill([k])
            succ = self.succ[k].tolist()
        if self.perm_rows is None:  # built by the first walk: most cells walk none
            self.perm_rows = self.perms.tolist()
        relabel = [self.perm_rows[j] for j in self.relabel[k].tolist()]
        inverse = [0] * self.n
        for i, a in enumerate(perm):
            inverse[a] = i
        for v in inverse:
            yield succ[v], (succ[v], tuple([perm[i] for i in relabel[v]]))

    def fill(self, ks: Sequence[int]) -> None:
        """Every step of the classes ``ks``, _PASS_BLOCK classes at a time:
        LC at v adds m_vi m_vj to entry (i, j), so the images of a row are
        ``(row + row[P1] * row[P2]) % d`` with P1, P2 the slots of (v, i) and
        (v, j), and _Keys.least canonicalises them.  Only the steps to a
        class the store lacks are kept past their block; once all blocks
        are done those classes are appended, their keys merged into the
        sorted key index and their outcome taken from _direct_pass."""
        n, d, ncols = self.n, self.d, self.rows.shape[1]
        slot = _slots(n)
        # at column slot[i, j] of the image at v, the columns of (v, i) and (v, j)
        p1, p2 = np.empty((2, n, ncols + 1), dtype=np.intp)
        p1[:, slot], p2[:, slot] = slot[:, :, None], slot[:, None, :]
        p1, p2 = p1[:, :ncols], p2[:, :ncols]
        ks, lost = np.asarray(ks, dtype=np.intp), []
        for first in range(0, len(ks), _PASS_BLOCK):
            block = ks[first : first + _PASS_BLOCK]
            ext = np.pad(self.rows[block], [(0, 0), (0, 1)])
            images = (ext[:, None, :ncols] + ext[:, p1] * ext[:, p2]) % d
            packed, relabel = self.keys.least(images.reshape(-1, ncols))
            pos = np.searchsorted(self.sorted_keys, packed).clip(max=len(self.order) - 1)
            self.succ[block] = self.order[pos].reshape(-1, n)
            self.relabel[block] = relabel.reshape(-1, n)
            if (missing := self.sorted_keys[pos] != packed).any():
                lost.append(((block[:, None] * n + np.arange(n)).ravel()[missing], packed[missing]))
        if lost:
            steps, packed = map(np.concatenate, zip(*lost))
            new_keys, where = np.unique(packed, return_inverse=True)
            self.succ.flat[steps] = len(self.order) + where
            at = np.searchsorted(self.sorted_keys, new_keys)
            self.sorted_keys = np.insert(self.sorted_keys, at, new_keys)
            self.order = np.insert(self.order, at, len(self.order) + np.arange(len(new_keys)))
            rows = (new_keys[:, None] // self.keys.weights) % d
            grow = [(0, len(rows)), (0, 0)]
            self.rows = np.concatenate((self.rows, rows))
            self.construction = np.append(self.construction, _direct_pass(rows, n, d).construction)
            self.succ = np.pad(self.succ, grow, constant_values=-1)
            self.relabel = np.pad(self.relabel, grow)


class _OrbitWalk(NamedTuple):
    """The exact orbit walk of one class of a cell whose direct attempt fails."""

    start: int  # the class, by index into the cell
    path: tuple[int, ...] | None  # to the first member that certifies; None if none does
    size: int  # classes walked
    truncated: bool


def _orbit_walks(
    rows: np.ndarray,
    n: int,
    d: int,
    construction: np.ndarray,
    orbit_cap: int,
    labels: bool = True,
) -> tuple[np.ndarray, list[_OrbitWalk]]:
    """The outcome of certify_any's orbit walk from every class of a cell
    (canonical rows, n >= 3) whose direct attempt fails, in cell order: the
    construction of the first member that certifies (1 obs1, 2 obs4, 0 if
    none does), and the exact walks that decided it, where one was needed.

    A walk is a breadth-first search over class indices, along the LC steps
    of the class store (_LCClasses); it stops at the first class that
    certifies, so it expands only failing ones.  That class lies at the
    start's distance ``dist`` to the nearest certified class, whatever the
    vertex order.  So when every certified class at that distance has one
    construction (``cons``: 1 obs1, 2 obs4, 3 both), the outcome is known
    without a walk, provided the walk cannot be truncated first: at most n^i
    classes lie at distance i, so sum_{i <= dist} n^i <= orbit_cap suffices,
    and ``depth`` is the largest such distance.  The store first fills the
    failing classes out to ``depth`` steps from the cell, which is all that
    such walks can reach; then one breadth-first loop sets both labels level
    by level: a failing class with a step to level - 1 is at that level, and
    its ``cons`` is the OR of its steps' (those at its level or further out
    are still 0).  The exact walk (_LCWalk over _LCClasses.expand) runs for
    the rest: refusals, which need the orbit's size and truncation, classes
    with both constructions at their distance, and classes further out.
    ``labels`` False walks every class, the reference the labels are tested
    against.

    ``construction`` gives _direct_pass's outcome per class of the cell;
    the store judges each class it appends the same way.
    Relabeling permutes the blocked triples, so outcome, rejections and
    construction depend only on the class, and its checked witness covers
    the member a walk reaches, which is never built.  The relabelings in
    the states fix the vertex order of a walk, and with it the path.
    """
    classes = _LCClasses(n, d, rows, construction)
    depth, reach = 0, 1 + n
    while reach <= orbit_cap:
        depth, reach = depth + 1, reach * n + 1
    for _ in range(max(depth, 1)):
        todo = np.flatnonzero((classes.construction == 0) & (classes.succ[:, 0] < 0))
        if not len(todo):
            break
        classes.fill(todo)
    failing = np.flatnonzero(construction == 0)
    cons = classes.construction.copy()
    if labels:
        dist = np.where(cons > 0, 0, -1)
        filled = np.flatnonzero(classes.succ[:, 0] >= 0)
        for level in range(1, depth + 1):
            filled = filled[dist[filled] < 0]
            succ = classes.succ[filled]
            at = (dist[succ] == level - 1).any(axis=1)
            cons[filled[at]] = np.bitwise_or.reduce(cons[succ[at]], axis=1)
            dist[filled[at]] = level
    outcome = cons[failing] % 3  # 0 where a walk must decide: no label, or both
    identity = tuple(range(n))
    walks = []
    for i in np.flatnonzero(outcome == 0).tolist():
        start = int(failing[i])
        walk, path = _LCWalk((start, identity), start, classes.expand, orbit_cap), None
        for size, (k, _, steps) in enumerate(walk, start=1):
            if classes.construction[k]:
                outcome[i], path = classes.construction[k], steps
                break
        walks.append(_OrbitWalk(start, path, size, walk.truncated))
    return outcome, walks


def exhaustive_table(
    n: int,
    d: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    orbit_cap: int = TABLE_ORBIT_CAP,
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
    try:
        chunks.extend(_canonical_rows(n, d, budget))
    except EnumerationOverflow as exc:
        complete, examined = False, exc.examined
    else:  # only now: _canonical_rows refuses an n too large for this power
        complete, examined = True, d ** (n * (n - 1) // 2)
    rows = np.concatenate(chunks) if chunks else np.zeros((0, n * (n - 1) // 2), np.int64)
    del chunks  # the rows are a copy; holding both doubles the cell for the whole table
    expected = class_count(n, d)
    if complete and len(rows) != expected:
        raise StructureError(
            f"enumerator bug: {len(rows)} classes of n={n}, d={d}, "
            f"but Polya counting gives {expected}"
        )
    construction, rejected = _direct_pass(rows, n, d)
    direct = np.bincount(construction, minlength=3).tolist()
    methods = {METHOD_CONSTANT: direct[1], METHOD_GENERAL: direct[2]}
    rejections = tuple(zip(REJECTION_KINDS, rejected.tolist()))

    def graph(idx: int) -> Multigraph:
        return from_triu_vector(d, n, rows[idx].tolist())

    uncertified = []
    if n < 3:  # certify_any refuses every class outright
        uncertified = [certify_any(graph(idx)) for idx in range(len(rows))]
    elif not construction.all():
        outcome, walks = _orbit_walks(rows, n, d, construction, orbit_cap)
        rescues = np.bincount(outcome, minlength=3).tolist()
        methods.update({METHOD_CONSTANT + "+lc": rescues[1], METHOD_GENERAL + "+lc": rescues[2]})
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
    2 |cos(pi kappa / d)| (S4's power is the best one), and that the twisted
    operators, restricted to group 2, share no +1 eigenvector
    (``oracle.shares_plus_one_eigenvector``, exact at any dimension).  A
    passing kappa check implies the last: with the overlap inside group 2,
    restricting both operators to group 2 keeps their commutation phase
    kappa != 0, so the eigenspace check is decided by its first test; it
    stays, as the obstruction the bound rests on.  A certificate in the earlier form gets
    one check per derived field it stores, named after the field, and its
    construction records in ``ignored``.  A certificate whose derivation
    raises fails an ``integrity`` check.
    """
    checks: list[Check] = []
    try:
        _verify_obs3_checks(cert, checks)
    except (NetcertError, ValueError, KeyError) as exc:
        checks.append(Check("integrity", False, f"verification aborted: {exc}"))
    ignored = tuple(name for name, _ in cert.claims if name in PROVENANCE)
    return VerificationReport(checks=tuple(checks), ignored=ignored)


#: verify_obs3's four conditions on a witness, in the order it reports them.
_WITNESS_CHECKS = ("groups_partition", "commute", "supports", "kappa")


def _witness(p: Proof):
    """Per _WITNESS_CHECKS whether it holds (the groups partition the
    vertices, S1 and S2 commute, each S_i avoids group i, S3 and the
    relabeled S4 fail to commute with their overlap inside group 2), then
    the overlap, as a vertex bitmask.  _build_certificate raises on any check
    that fails."""
    x, z, supports, groups = p.x, p.z, p.supports, p.groups
    partition = partitions(p.certified_graph.n, groups)
    commute = _symplectic(x[0], z[0], x[1], z[1], supports[0] & supports[1])
    avoid = not any(sup & grp for sup, grp in zip(supports, groups))
    # S4's sites in G1 move to the primed copies, which S3 never touches
    overlap = supports[2] & supports[3] & ~groups[0]
    kappa = p.kappa != 0 and not overlap & ~groups[1]
    return (partition, commute % p.certified_graph.d == 0, avoid, kappa), overlap


def _verify_obs3_checks(cert: Certificate, checks: list[Check]) -> None:
    from . import oracle

    p = cert.proof
    d, n = cert.graph.d, cert.graph.n
    passed, overlap = _witness(p)
    details = (
        f"groups cover {sorted(set().union(*cert.groups))} of {sorted(p.labels[:n])}",
        "S1 S2 == S2 S1; S3 = S1 S2",
        "each S_i avoids group i",
        f"kappa = {p.kappa}, overlap {sorted(_named(p.labels, overlap))}",
    )
    checks.extend(map(Check, _WITNESS_CHECKS, passed, details))
    marginal = marginal_mask_checks(n, p.groups, p.supports)
    checks.extend(Check(f"marginal: {name}", ok) for name, ok in marginal)
    lam = p.lambda_prime
    lam_ok = abs(lam - 2.0 * abs(math.cos(math.pi * p.kappa / d))) <= _LAMBDA_TOL
    checks.append(
        Check("lambda_bound", lam_ok, f"lambda' = {lam}, fidelity bound {p.fidelity_bound}")
    )
    # S3 and the relabeled S4 restricted to group 2: the relabeling moved S4's G1 sites
    g1, g2 = p.groups[:2]
    if p.supports[2] & g2 or p.supports[3] & g2 & ~g1:
        r3, r4 = _restricted(p, 2, g2), _restricted(p, 3, g2 & ~g1)
        ok = not oracle.shares_plus_one_eigenvector(r3, r4, d)
        detail = "restricted operators have no common +1 eigenvector"
    else:
        # both restrictions are the identity, which fixes every vector
        ok = False
        detail = "restricted operators act trivially on group 2"
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
    """The derived fields of the earlier JSON form, as _json_text, from the
    Proof: each operator's _tau, nonzero (x, z) by label and factorization
    (its X-part; e3 = e1 + e2 mod d), and S4's vertices in G1, primed."""
    p = cert.proof
    fields = {}
    for i, (x, z) in enumerate(zip(p.x, p.z), start=1):
        fields[f"S{i}"] = {
            "phase_exp": _tau(p.certified_graph, x),
            "sites": {lbl: [xv, zv] for lbl, xv, zv in zip(p.labels, x, z) if xv or zv},
            "factorization": [[str(v), xv] for v, xv in enumerate(x) if xv],
        }
    moved = _named(p.labels, p.supports[3] & p.groups[0])
    fields["S4prime_relabel"] = {lbl: prime(lbl) for lbl in moved}
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
