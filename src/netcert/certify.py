"""The certificate search (netcert.checker defines and checks a certificate).

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
witness they build with the verifier's witness rule, checker._witness (on
one Certificate through _derive; on each block's arrays in _check_witnesses,
which are then dropped: a table keeps one construction code per class).
They stay two because arrays only pay off in bulk (README measurements).

A class that fails is walked along its local-complementation orbit:
certify_any walks labeled graphs (multigraph._graph_walk), a table its
class indices (_orbit_walks) in one store, _LCClasses, of each class's row,
construction code and LC steps as arrays; it judges each class it appends.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Iterator, NamedTuple, Sequence

import numpy as np

# verify_obs3 is bound here for the benchmark's layer trace (see the package's import of oracle)
from .checker import (  # noqa: F401
    _WITNESS_CHECKS,
    METHOD_CONSTANT,
    METHOD_GENERAL,
    Certificate,
    _general,
    _labels,
    _named,
    _product,
    _support,
    _witness,
    select_power_t,
    verify_obs3,
)
from .errors import EnumerationOverflow, RangeError, StructureError
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
)

#: exhaustive_table's default orbit_cap: the most classes one orbit walk visits.
TABLE_ORBIT_CAP = 4096

#: Classes per block of the table's passes over classes, _direct_pass and
#: _LCClasses.fill; bounds their (block, ...) temporaries.
_PASS_BLOCK = 2048

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
    such as a witness that fails one of the witness conditions, raises
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
    e1, e2, e3, e4 = vectors
    if e3 != [(x + y) % d for x, y in zip(e1, e2)]:
        raise StructureError("construction bug: S3 is not exactly S1 S2")
    labels = _labels(n)[0]
    masks = _group_masks(tri1, a, b, c, nb[a], nb[b], nb[c], (1 << n) - 1)
    groups = tuple(tuple(_named(labels, mask)) for mask in masks)
    cert = Certificate(graph, lc_path, groups, tuple(e1), tuple(e2), tuple(e4))
    _raise_failed(cert.proof.witness)
    if general and cert.proof.kappa != (-t * m_tilde) % d:
        raise StructureError("construction bug: kappa differs from -e m_tilde")
    return cert


def _raise_failed(passed) -> None:
    """Raise on each of _WITNESS_CHECKS that ``passed`` marks as failing."""
    if failed := [name for name, ok in zip(_WITNESS_CHECKS, passed) if not ok]:
        raise StructureError(f"construction bug: failed {', '.join(failed)}")


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
    weights are constant, else obs4 at the first triple whose _triple_flags
    are all clear, which has b < c by the mirror lemma (see _direct_pass).  A
    Certificate, or None; _refusal explains a failure.  ``nb`` holds the
    neighbor masks of ``certified``, if already built."""
    nb = _neighbor_masks(certified) if nb is None else nb
    if not _general(certified):
        triple = next(_angles(certified), None)
        return triple and _build_certificate(graph, lc_path, certified, triple, False, nb)
    # nb_a & nb_b once per (a, b): a c whose mask meets it has _blocked's t_abc
    for a, row in enumerate(certified.mult):
        nbrs = list(itertools.compress(range(len(row)), row))
        for i, b in enumerate(nbrs):
            shared = nb[a] & nb[b]
            for c in nbrs[i + 1 :]:
                if not shared & nb[c] and not any(_triple_flags(certified, nb, a, b, c)[1]):
                    return _build_certificate(graph, lc_path, certified, (a, b, c), True, nb)
    return None


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
    """_build_certificate's checks on (k, 4, n) arrays S1..S4 with (k, 4) tau
    exponents ``phase`` and group bitmasks, every row at once: S3 = S1 S2
    (_product), the witness conditions (_witness) and, for obs4, kappa = -t m_tilde."""
    # by operator, then vertex: each entry is an array over the block
    xs, zs, ts = x.transpose(1, 2, 0), z.transpose(1, 2, 0), phase.T
    s1s2 = _product((xs[0], zs[0], ts[0]), (xs[1], zs[1], ts[1]), d)
    if not all(map(np.array_equal, s1s2, (xs[2], zs[2], ts[2]))):
        raise StructureError("construction bug: S3 is not exactly S1 S2")
    passed, _, kappa = _witness(d, xs, zs, list(map(_support, xs, zs)), groups.T)
    _raise_failed([ok.all() for ok in passed])
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
    classes: _LCClasses, orbit_cap: int, labels: bool = True
) -> tuple[np.ndarray, list[_OrbitWalk]]:
    """The outcome of certify_any's orbit walk from every class of a cell
    (n >= 3, its class store as built) whose direct attempt fails, in cell
    order: the construction of the first member that certifies (1 obs1, 2
    obs4, 0 if none does), and the exact walks that decided it, if needed.

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

    The store holds _direct_pass's outcome per class of the cell, and
    judges each class it appends the same way.  Relabeling permutes the
    blocked triples, so outcome, rejections and construction depend only on
    the class, and its checked witness covers the member a walk reaches,
    which is never built.  The relabelings in the states fix the vertex
    order of a walk, and with it the path.
    """
    n, failing = classes.n, np.flatnonzero(classes.construction == 0)
    depth, reach = 0, 1 + n
    while reach <= orbit_cap:
        depth, reach = depth + 1, reach * n + 1
    for _ in range(max(depth, 1)):
        todo = np.flatnonzero((classes.construction == 0) & (classes.succ[:, 0] < 0))
        if not len(todo):
            break
        classes.fill(todo)
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
    total, uncertified = len(rows), []
    if n < 3:  # certify_any refuses every class outright
        uncertified = [certify_any(from_triu_vector(d, n, row)) for row in rows.tolist()]
    elif not construction.all():
        classes = _LCClasses(n, d, rows, construction)
        # the store owns the rows: a fill that appends classes replaces them
        # with a longer copy, and a reference here would keep the old ones
        del rows
        outcome, walks = _orbit_walks(classes, orbit_cap)
        rescues = np.bincount(outcome, minlength=3).tolist()
        methods.update({METHOD_CONSTANT + "+lc": rescues[1], METHOD_GENERAL + "+lc": rescues[2]})
        for w in walks:
            if w.path is None:
                g = from_triu_vector(d, n, classes.rows[w.start].tolist())
                uncertified.append(_refusal(g, w.size, w.truncated, orbit_cap))
    return TableReport(
        n=n,
        d=d,
        total=total,
        expected=expected,
        certified=total - len(uncertified),
        methods=tuple(sorted((k, v) for k, v in methods.items() if v)),
        uncertified=tuple(uncertified),
        complete=complete,
        examined=examined,
        rejections=rejections,
    )
