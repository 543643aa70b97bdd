"""The proof checker: what a certificate states, what it implies, and its check.

A certificate names four stabilizer elements S1, S2, S3 = S1 S2, S4 and a
partition of the vertices into four groups such that (i) each S_i avoids
its own group, so four marginal equalities tie its statistics in the base
network to inflated networks, and (ii) S3 and a relabeled S4 fail to
commute by a d-th root of unity omega^kappa.  Any network state must then
satisfy all four stabilizers at once only up to a fidelity below 1; the
bound is (7 + sqrt(4 + 5 lambda'/2))/10 with lambda' = 2 |cos(pi kappa/d)|.

A Certificate stores only that proof: the graph, the local-complementation
path to the member the operators live on, the groups, and S1, S2, S4 as
exponent vectors over its generators.  _derive derives the rest on
(x, z, tau) integer vectors (S_i has X-part e and Z-part M e) and vertex
bitmasks, where _witness, for Python ints and integer arrays alike, states
the four witness conditions once (the search applies it to table blocks).
The reader also takes the earlier JSON form (no "version"), whose derived
fields (_v1_fields) verify_obs3 compares with the derivation.  Imports:
errors, network, and Multigraph, local_complement and _bits from graph.
With those three modules it is the trusted base: pure Python, and a
tier-1 test pins its import closure.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import repeat
from math import gcd
from operator import and_, attrgetter, itemgetter, mul, ne, or_
from typing import NamedTuple, Sequence

from .errors import DegenerateMultiplicity, NetcertError, RangeError, StructureError
from .graph import Multigraph, _bits, local_complement
from .network import _CHECKS, label_masks, marginal_mask_checks, partitions, prime

METHOD_CONSTANT = "obs1"
METHOD_GENERAL = "obs4"

_LAMBDA_TOL = 1e-12


class PowerChoice(NamedTuple):
    """Power t of the fourth operator and the exact |cos(pi t m / d)|."""

    t: int
    cos_value: float


@lru_cache(maxsize=1024)
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
    d_red, m_red = d // g, m // g
    t = (pow(m_red, -1, d_red) * (d_red // 2)) % d
    cos_value = 0.0 if d_red % 2 == 0 else math.sin(math.pi / (2 * d_red))
    return PowerChoice(t=t, cos_value=cos_value)


def fidelity_bound_from_lambda(lambda_prime: float) -> float:
    """Fidelity ceiling (7 + sqrt(4 + 5 lambda'/2)) / 10."""
    if not 0.0 <= lambda_prime <= 2.0:
        raise RangeError(f"lambda' must lie in [0, 2], got {lambda_prime}")
    return (7.0 + math.sqrt(4.0 + 2.5 * lambda_prime)) / 10.0


# The (x, z, tau) rules.  _symplectic, _support and _product, like _witness, take
# Python ints or integer arrays over a block of operators as entries.

Vector = tuple[Sequence[int], Sequence[int], int]  # tau^t prod_s X_s^x_s Z_s^z_s as (x, z, t)


def _symplectic(x1, z1, x2, z2, mask):
    """sum of z1 x2 - z2 x1 over the vertices in ``mask``: mod d, the
    commutation phase of (x1, z1) and (x2, z2) where ``mask`` holds every
    vertex both act on."""
    return sum((z1[v] * x2[v] - z2[v] * x1[v]) * (mask >> v & 1) for v in range(len(x1)))


def _support(x, z):
    """The vertex bitmask of the vertices where (x, z) acts."""
    return sum(map(mul, map(ne, map(or_, x, z), repeat(0)), _bits(len(x))))


def _tau(g: Multigraph, x: Sequence[int]) -> int:
    """The tau exponent 2 sum_{u<v} x_u m_uv x_v mod 2d of the generator
    word with X-part x on g (stabilizer.word)."""
    nonzero, mult = [v for v, xv in enumerate(x) if xv], g.mult
    pairs = sum(x[u] * mult[u][v] * x[v] for u, v in itertools.combinations(nonzero, 2))
    return 2 * pairs % (2 * g.d)


def _product(p: Vector, q: Vector, d: int) -> Vector:
    """p q in normal order: per site X^x1 Z^z1 X^x2 Z^z2 = omega^(z1 x2)
    X^(x1+x2) Z^(z1+z2), so tau's exponent gains 2 z1 x2 (pauli.multiply)."""
    (px, pz, pt), (qx, qz, qt) = p, q
    x = tuple((u + v) % d for u, v in zip(px, qx))
    z = tuple((u + v) % d for u, v in zip(pz, qz))
    return x, z, (pt + qt + 2 * sum(map(mul, pz, qx))) % (2 * d)


def _power(p: Vector, a: int, d: int) -> Vector:
    """p^a (a >= 0) as (a x, a z, a t + a(a-1) sum_s x_s z_s): each Z_s^z_s
    that passes a later X_s^x_s adds omega^(x_s z_s), and X^d = Z^d = 1."""
    x, z, t = p
    tau = a * t + a * (a - 1) * sum(map(mul, x, z))
    return tuple(a * u % d for u in x), tuple(a * u % d for u in z), tau % (2 * d)


def shares_plus_one_eigenvector(p: Vector, q: Vector, d: int) -> bool:
    """Whether two Weyl operators have a common +1 eigenvector, exactly.

    ``p`` and ``q`` are (x, z, t) over one list of parties (``Vector``),
    with exponents in [0, d) and t in [0, 2d).  Decided from the group S
    that p and q generate, as in the stabilizer formalism (Gottesman,
    arXiv:quant-ph/9705052).  If p q = omega^k q p with k != 0, a common +1
    eigenvector v would give v = p q v = omega^k v.  Otherwise S is finite
    and abelian, and (1/|S|) sum_{s in S} s projects onto the common +1
    eigenspace.  Every Weyl operator with a nonzero Pauli part is
    traceless, so the trace of that projector is dim |C| / |S| when the
    group C of scalars in S is {1}, and 0 otherwise: a nontrivial group of
    roots of unity sums to 0.  The (a, b) with p^a q^b scalar form a
    lattice with basis (0, L), L the order of q's Pauli part, and (a0, b0)
    with the least a0 >= 1; as p and q commute, (a, b) -> p^a q^b is a
    homomorphism on it, so C = {1} iff q^L and p^a0 q^b0 are the identity.
    Idle parties and the party order tensor S with identities or permute
    its factors, so the answer holds over any parties that cover p and q.
    """
    (px, pz, _), (qx, qz, _) = p, q
    if not len(px) == len(pz) == len(qx) == len(qz):
        raise StructureError("operators are not over one list of parties")
    if _symplectic(px, pz, qx, qz, -1) % d:  # mask -1: every party
        return False
    order = d // math.gcd(d, *qx, *qz)
    if _power(q, order, d)[2]:
        return False
    # q^b's Pauli part for each b < L; p^a until one is p^-a's = p^(a(d-1))'s,
    # at a = a0 <= the order of p's Pauli part
    parts = {_power(q, b, d)[:2]: b for b in range(order)}
    for a in itertools.count(1):
        b = parts.get(_power(p, a * (d - 1), d)[:2])
        if b is not None:
            return _product(_power(p, a, d), _power(q, b, d), d)[2] == 0


#: The witness conditions, in the order _witness gives and verify_obs3 reports them.
_WITNESS_CHECKS = ("groups_partition", "commute", "supports", "kappa")


def _witness(d: int, x, z, supports, groups):
    """Whether each of _WITNESS_CHECKS holds (the groups partition the
    vertices, S1 and S2 commute, each S_i avoids group i, S3 and the
    relabeled S4 fail to commute with their overlap inside group 2), that
    overlap as a vertex bitmask, and kappa, their twist over it, mod d.
    ``x`` and ``z`` hold the X- and Z-parts of S1..S4, by operator and then
    vertex, ``supports`` their bitmasks and ``groups`` those of G1..G4 (a
    bit from n up is a label that names no vertex): Python ints for one
    witness, or integer arrays over a block of them, one result per row."""
    s1, s2, s3, s4 = supports
    partition = partitions(len(x[0]), groups)
    commute = _symplectic(x[0], z[0], x[1], z[1], s1 & s2) % d == 0
    avoid = reduce(or_, map(and_, supports, groups)) == 0
    # S4's sites in G1 move to the primed copies, which S3 never touches
    overlap = s3 & s4 & ~groups[0]
    kappa = _symplectic(x[2], z[2], x[3], z[3], overlap) % d
    twist = (kappa != 0) & ((overlap & ~groups[1]) == 0)
    return (partition, commute, avoid, twist), overlap, kappa


class Proof(NamedTuple):
    """What a Certificate's stored fields imply (_derive): S1..S4 as X-parts ``x``,
    Z-parts ``z`` and bitmasks ``supports`` over the vertices of ``certified_graph``
    (tau exponent _tau(certified_graph, x[i])); G1..G4 as bitmasks over ``labels``,
    vertex labels then group labels naming no vertex; and what _witness gives."""

    certified_graph: Multigraph
    x: tuple[list[int], ...]
    z: tuple[list[int], ...]
    supports: tuple[int, ...]
    labels: list[str]
    groups: list[int]
    witness: tuple[bool, bool, bool, bool]
    overlap: int
    kappa: int
    lambda_prime: float
    fidelity_bound: float
    method: str  # obs4 exactly when certified_graph's weights are not constant


def _named(labels: Sequence[str], mask: int) -> list[str]:
    return [lbl for v, lbl in enumerate(labels) if mask >> v & 1]


@lru_cache(maxsize=64)
def _labels(n: int) -> tuple[tuple[str, ...], dict[str, int], str]:
    """Labels str(v) of vertices 0..n-1, their bits, and verify_obs3's sorted
    list of them; shared, so callers copy what they change."""
    labels = tuple(map(str, range(n)))
    return labels, dict(zip(labels, _bits(n))), str(sorted(labels))


def _restricted(p: Proof, i: int, mask: int) -> tuple[list[int], list[int], int]:
    """S_i on its vertices in ``mask``, phase dropped, as (x, z, tau)."""
    keep = [mask & bit != 0 for bit in _bits(len(p.x[i]))]
    return list(map(mul, p.x[i], keep)), list(map(mul, p.z[i], keep)), 0


@dataclass(frozen=True)
class Certificate:
    """The proof a certificate consists of (see the module docstring):
    ``e1``, ``e2`` and ``e4`` are S1, S2 and S4 as exponent vectors over the
    generators of ``certified_graph``, the graph after the local
    complementations of ``lc_path``: word(e) has X-part e and Z-part M e.
    Everything else is the Proof that _derive computes, once per
    certificate; each of its fields but ``groups`` reads as a property
    (``kappa``, ``lambda_prime``, ``fidelity_bound``, ``method``, ...), and
    ``groups`` stays the stored labels.  ``claims`` holds
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


# one read-only property per Proof field the dataclass does not store itself
for _name in set(Proof._fields) - set(Certificate.__dataclass_fields__):
    setattr(Certificate, _name, property(attrgetter(f"proof.{_name}")))


def _general(g: Multigraph) -> bool:
    """Whether g's edge weights are not constant: obs4, else obs1."""
    return len(set().union(*g.mult) - {0}) > 1


def _derive(cert: Certificate) -> Proof:
    """Replay lc_path and build S1, S2, S4 and S3 = S1 S2 as vectors: the
    product of the generator powers e (stabilizer.word) has X-part e and
    Z-part M e; _witness judges them on the groups' bitmasks.  lambda' is
    2 |cos(pi kappa / d)| by the exact case split of select_power_t, exact
    for a kappa that S4's power makes optimal (verify_obs3 checks that it
    is); kappa = 0 bounds nothing."""
    h = cert.graph
    for v in cert.lc_path:
        h = local_complement(h, v)
    d, n = h.d, h.n
    if max(len(cert.e1), len(cert.e2), len(cert.e4)) > n:
        raise StructureError(f"vertex {n} outside 0..{n - 1}")
    xs, zs = [], []
    for e in (cert.e1, cert.e2, cert.e4):
        x, z = [ev % d for ev in e] + [0] * (n - len(e)), [0] * n
        for v, ev in enumerate(x):
            if ev:
                z = [zu + ev * m for zu, m in zip(z, h.mult[v])]
        xs.append(x)
        zs.append([zu % d for zu in z])
    # S3 = S1 S2 has X-part e1 + e2 and, as M is linear, Z-part z1 + z2
    xs.insert(2, [(u + v) % d for u, v in zip(xs[0], xs[1])])
    zs.insert(2, [(u + v) % d for u, v in zip(zs[0], zs[1])])
    supports = tuple(map(_support, xs, zs))
    bit = dict(_labels(n)[1])  # label_masks adds the labels that name no vertex
    groups = label_masks(bit, cert.groups)
    witness, overlap, kappa = _witness(d, xs, zs, supports, groups)
    lam = 2.0 * select_power_t(kappa, d).cos_value if kappa else 2.0
    method = METHOD_GENERAL if _general(h) else METHOD_CONSTANT
    bound = fidelity_bound_from_lambda(lam)
    return Proof(
        h, tuple(xs), tuple(zs), supports, list(bit), groups, witness, overlap, kappa, lam,
        bound, method,
    )


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
        return all(map(itemgetter(1), self.checks))

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_obj(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c._asdict() for c in self.checks],
            "ignored": list(self.ignored),
        }


def verify_obs3(cert: Certificate) -> VerificationReport:
    """Derive what a certificate claims from its stored proof, and check it.

    Reports the derived kappa, lambda' and bound; checks the witness
    conditions (_witness), the four marginal equalities, that lambda' is
    2 |cos(pi kappa / d)| (S4's power is the best one), and that the twisted
    operators, restricted to group 2, share no +1 eigenvector
    (``shares_plus_one_eigenvector``, exact at any dimension).  A passing
    kappa check decides the last at its first test, as restricting both to
    group 2, which holds their overlap, keeps their commutation phase kappa;
    it stays, as the obstruction the bound rests on.  A failing check's detail
    says what failed.  A certificate in the earlier form gets one check per
    derived field it stores, named after the field, and its construction
    records in ``ignored``.  One whose derivation raises fails ``integrity``.
    """
    checks: list[Check] = []
    try:
        _verify_obs3_checks(cert, checks)
    except (NetcertError, ValueError, KeyError) as exc:
        checks.append(Check("integrity", False, f"verification aborted: {exc}"))
    ignored = tuple(name for name, _ in cert.claims if name in PROVENANCE)
    return VerificationReport(checks=tuple(checks), ignored=ignored)


def _verify_obs3_checks(cert: Certificate, checks: list[Check]) -> None:
    p = cert.proof
    d, n = cert.graph.d, cert.graph.n
    _, commute, avoid, _ = p.witness
    meets = (f"S{i} meets group {i}" for i, m in enumerate(map(and_, p.supports, p.groups), 1) if m)
    details = (
        f"groups cover {sorted(set().union(*cert.groups))} of {_labels(n)[2]}",
        f"S1 S2 {'==' if commute else '!='} S2 S1; S3 = S1 S2",
        "each S_i avoids group i" if avoid else "; ".join(meets),
        f"kappa = {p.kappa}, overlap {sorted(_named(p.labels, p.overlap))}",
    )
    checks.extend(map(Check, _WITNESS_CHECKS, p.witness, details))
    marginal = marginal_mask_checks(n, p.groups, p.supports)
    checks.extend(map(Check, _MARGINAL, map(itemgetter(1), marginal)))
    lam = p.lambda_prime
    lam_ok = abs(lam - 2.0 * abs(math.cos(math.pi * p.kappa / d))) <= _LAMBDA_TOL
    checks.append(
        Check("lambda_bound", lam_ok, f"lambda' = {lam}, fidelity bound {p.fidelity_bound}")
    )
    # S3 and the relabeled S4 restricted to group 2: the relabeling moved S4's G1 sites
    g1, g2 = p.groups[:2]
    if p.supports[2] & g2 or p.supports[3] & g2 & ~g1:
        r3, r4 = _restricted(p, 2, g2), _restricted(p, 3, g2 & ~g1)
        ok = not shares_plus_one_eigenvector(r3, r4, d)
        detail = f"restricted operators {'have no common' if ok else 'share a'} +1 eigenvector"
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


#: verify_obs3's names of the marginal equalities, in marginal_mask_checks's order.
_MARGINAL = tuple(f"marginal: {name}" for name in _CHECKS)

#: Fields of the earlier JSON form that recorded how a certificate was built.
PROVENANCE = ("triple", "kind", "exponents")
_V1_SCALARS = ("kappa", "lambda_prime", "fidelity_bound", "method")
_V2_FIELDS = ("version", "graph", "lc_path", "groups", "S1", "S2", "S4")
_V1_FIELDS = ("graph", "lc_path", "groups", "operators", *_V1_SCALARS, *PROVENANCE)
_V1_OPERATORS = ("S1", "S2", "S3", "S4", "S4prime_relabel")


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
    unseen = set(_labels(graph.n)[0])
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
    exponent out of range, a repeated or unknown factor label, a version
    other than 2, or a field, group or operator name that the form lacks
    raises StructureError."""
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
            keys = sorted(obj), sorted(obj["groups"]), sorted(ops)
            if keys != (sorted(_V1_FIELDS), ["G1", "G2", "G3", "G4"], sorted(_V1_OPERATORS)):
                raise StructureError(f"malformed certificate object: fields {keys}")
            groups = [obj["groups"][f"G{i}"] for i in range(1, 5)]
            factorizations = (ops[f"S{i}"]["factorization"] for i in (1, 2, 4))
            vectors = [_factorization_vector(f, graph) for f in factorizations]
            # the construction records: type-checked, never interpreted
            _ints(obj["triple"])
            _typed(obj["kind"], (str,), ("angle", "triangle"))
            _ints(list(_typed(obj["exponents"], (dict,)).values()))
            stored = {name: ops[name] for name in _V1_OPERATORS}
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
