"""Certificates that a graph state cannot come from bipartite sources.

A certificate names four stabilizer elements S1, S2, S3 = S1 S2, S4 and a
partition of the vertices into four groups such that (i) each S_i avoids
its own group, so four marginal equalities tie its statistics in the base
network to inflated networks, and (ii) S3 and a relabeled S4 fail to
commute by a d-th root of unity omega^kappa.  Any network state must then
satisfy all four stabilizers at once only up to a fidelity below 1; the
bound is (7 + sqrt(4 + 5 lambda'/2))/10 with lambda' = 2 |cos(pi kappa/d)|.

Two constructions are implemented: ``obs1`` for constant edge
multiplicity, built from generator quotients around an angle or triangle,
and ``obs4`` for general multiplicities, built from generator powers
scaled by the edge weights around the triple.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DegenerateMultiplicity,
    EnumerationOverflow,
    NetcertError,
    RangeError,
    StructureError,
    WrongFamily,
)
from .multigraph import (
    DEFAULT_ENUMERATION_BUDGET,
    Multigraph,
    NeighborhoodPartition,
    _LCWalk,
    edges,
    enumerate_connected_multigraphs,
    find_angle_or_triangle,
    is_connected,
    local_complement,
    partition_neighborhoods,
)
from .network import marginal_chain_checks, prime
from .pauli import PauliOperator, commutation_phase, multiply, relabel, restrict, support
from .stabilizer import StabilizerWord, word

METHOD_CONSTANT = "obs1"
METHOD_GENERAL = "obs4"

DEFAULT_ORBIT_CAP = 10**6
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


@dataclass(frozen=True)
class Certificate:
    """A verified-construction record; see the module docstring."""

    graph: Multigraph
    lc_path: tuple[int, ...]
    triple: tuple[int, int, int]
    kind: str
    method: str
    groups: tuple[tuple[str, ...], ...]
    s1: StabilizerWord
    s2: StabilizerWord
    s3: StabilizerWord
    s4: StabilizerWord
    s4_relabeling: tuple[tuple[str, str], ...]
    exponents: tuple[tuple[str, int], ...]
    kappa: int
    lambda_prime: float
    fidelity_bound: float

    @property
    def certified_graph(self) -> Multigraph:
        """The orbit member the operators live on (replays lc_path)."""
        g = self.graph
        for v in self.lc_path:
            g = local_complement(g, v)
        return g

    @property
    def d(self) -> int:
        return self.graph.d


@dataclass(frozen=True)
class NotCertified:
    """Outcome when no construction applies anywhere in the orbit searched."""

    graph: Multigraph
    reasons: tuple[str, ...]
    orbit_size: int = 1
    orbit_truncated: bool = False


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

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
        }


def _labels(g: Multigraph) -> list[str]:
    return [str(v) for v in range(g.n)]


def _sorted_group(members: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(members, key=lambda s: (len(s), s)))


def _relabeling_for(s4: StabilizerWord, g1: frozenset[str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((lbl, prime(lbl)) for lbl in support(s4.operator) & g1))


def _finish_certificate(
    graph: Multigraph,
    lc_path: tuple[int, ...],
    certified: Multigraph,
    triple: tuple[int, int, int],
    kind: str,
    method: str,
    group_sets: tuple[frozenset[str], ...],
    words: tuple[StabilizerWord, StabilizerWord, StabilizerWord, StabilizerWord],
    exponents: tuple[tuple[str, int], ...],
    cos_value: float,
) -> Certificate:
    s1, s2, s3, s4 = words
    d = certified.d
    if multiply(s1.operator, s2.operator) != s3.operator:
        raise StructureError("construction bug: S3 is not exactly S1 S2")
    if commutation_phase(s1.operator, s2.operator) % d != 0:
        raise StructureError("construction bug: S1 and S2 do not commute")
    for idx, (w, grp) in enumerate(zip(words, group_sets), start=1):
        if support(w.operator) & grp:
            raise StructureError(f"construction bug: S{idx} touches group {idx}")
    sigma = _relabeling_for(s4, group_sets[0])
    s4p = relabel(s4.operator, dict(sigma))
    kappa = commutation_phase(s3.operator, s4p)
    if kappa % d == 0:
        raise StructureError("construction bug: S3 and relabeled S4 commute")
    common = support(s3.operator) & support(s4p)
    if not common <= group_sets[1]:
        raise StructureError("construction bug: overlap leaks outside group 2")
    lambda_prime = 2.0 * cos_value
    return Certificate(
        graph=graph,
        lc_path=lc_path,
        triple=triple,
        kind=kind,
        method=method,
        groups=tuple(_sorted_group(s) for s in group_sets),
        s1=s1,
        s2=s2,
        s3=s3,
        s4=s4,
        s4_relabeling=sigma,
        exponents=exponents,
        kappa=kappa % d,
        lambda_prime=lambda_prime,
        fidelity_bound=fidelity_bound_from_lambda(lambda_prime),
    )


def _obs1_certificate(
    graph: Multigraph,
    lc_path: tuple[int, ...],
    certified: Multigraph,
    triple: tuple[int, int, int],
) -> Certificate:
    a, b, c = triple
    part = partition_neighborhoods(certified, a, b, c)
    names = _labels(certified)
    la, lb, lc_ = names[a], names[b], names[c]
    m = certified.mult[a][b]
    choice = select_power_t(m, certified.d)
    as_labels = lambda vs: frozenset(names[v] for v in vs)
    if part.kind == "triangle":
        words = (
            word(certified, {a: 1, b: -1}),
            word(certified, {a: -1, c: 1}),
            word(certified, {b: -1, c: 1}),
            word(certified, {c: choice.t}),
        )
        group_sets = (
            frozenset({lc_}) | as_labels(part.e_c),
            frozenset({lb}) | as_labels(part.e_b) | as_labels(part.j_ca),
            frozenset({la}) | as_labels(part.e_a) | as_labels(part.j_bc) | as_labels(part.t_abc),
            as_labels(part.j_ab) | as_labels(part.far),
        )
    else:
        words = (
            word(certified, {c: -1}),
            word(certified, {b: 1}),
            word(certified, {b: 1, c: -1}),
            word(certified, {a: choice.t}),
        )
        group_sets = (
            frozenset({lb}) | as_labels(part.j_ab),
            frozenset({lc_}) | as_labels(part.j_ca),
            frozenset({la}) | as_labels(part.e_a) | as_labels(part.t_abc),
            as_labels(part.e_b) | as_labels(part.e_c) | as_labels(part.j_bc) | as_labels(part.far),
        )
    return _finish_certificate(
        graph,
        lc_path,
        certified,
        triple,
        part.kind,
        METHOD_CONSTANT,
        group_sets,
        words,
        (("t", choice.t),),
        choice.cos_value,
    )


def certify_constant_multiplicity(g: Multigraph) -> Certificate:
    """Certificate for a connected graph whose edges all share one weight.

    Uses the first angle or triangle in lexicographic order; the
    construction never fails on this family.
    """
    triples = find_angle_or_triangle(g)
    weights = {m for _, _, m in edges(g)}
    if len(weights) != 1:
        raise WrongFamily(f"edge multiplicities {sorted(weights)} are not constant")
    return _obs1_certificate(g, (), g, triples[0][:3])


def _neighbor_masks(g: Multigraph) -> list[int]:
    """Bit j of entry i is set iff vertices i and j are adjacent."""
    return [sum(1 << j for j, m in enumerate(row) if m) for row in g.mult]


def _m_tilde(g: Multigraph, a: int, b: int, c: int) -> tuple[int, int]:
    """(h, m_tilde): h = gcd of the triple's edge weights, m_tilde = m_ab m_ca / h mod d."""
    m_ab = g.mult[a][b]
    m_ca = g.mult[c][a]
    h = gcd(m_ab, m_ca, g.mult[b][c])
    return h, (m_ab * m_ca // h) % g.d


def _obs4_blocked(
    g: Multigraph, nb: Sequence[int], triple: tuple[int, int, int], reasons: list[str] | None
) -> bool:
    """Whether the general-multiplicity construction fails at this triple.

    Decided from the neighbor bitmasks ``nb`` and the edge weights, without
    building a partition; the failure reasons are appended to ``reasons``
    unless it is None.
    """
    a, b, c = triple
    all_three = nb[a] & nb[b] & nb[c]
    # j_ab | j_ca: neighbors of a shared with exactly one of b, c
    apex = g.mult[b][c] and nb[a] & (nb[b] ^ nb[c]) & ~(1 << b | 1 << c)
    if all_three or apex:
        if reasons is not None:
            tag = f"triple ({a},{b},{c})"
            if all_three:
                reasons.append(f"{tag}: vertices adjacent to all three present")
            if apex:
                reasons.append(f"{tag}: triangle with shared neighbors at the apex")
        return True
    h, m_tilde = _m_tilde(g, a, b, c)
    if m_tilde == 0:
        if reasons is not None:
            reasons.append(
                f"triple ({a},{b},{c}): m_tilde = {g.mult[a][b]}*{g.mult[c][a]}/{h} = 0 (mod {g.d})"
            )
        return True
    return False


def _obs4_attempt(
    graph: Multigraph,
    lc_path: tuple[int, ...],
    certified: Multigraph,
    triple: tuple[int, int, int],
    part: NeighborhoodPartition,
) -> Certificate:
    """General-multiplicity construction at a triple that _obs4_blocked passes."""
    a, b, c = triple
    d = certified.d
    names = _labels(certified)
    la, lb, lc_ = names[a], names[b], names[c]
    h, m_tilde = _m_tilde(certified, a, b, c)
    choice = select_power_t(m_tilde, d)
    ea = (-(certified.mult[b][c] // h)) % d
    eb = (certified.mult[c][a] // h) % d
    ec = (certified.mult[a][b] // h) % d
    words = (
        word(certified, {a: ea, c: ec}),
        word(certified, {a: -ea, b: -eb}),
        word(certified, {b: -eb, c: ec}),
        word(certified, {a: choice.t}),
    )
    as_labels = lambda vs: frozenset(names[v] for v in vs)
    rest = as_labels(part.e_b) | as_labels(part.e_c) | as_labels(part.j_bc) | as_labels(part.far)
    if part.kind == "triangle":
        group_sets = (
            frozenset({lb}),
            frozenset({lc_}),
            frozenset({la}) | as_labels(part.e_a),
            rest,
        )
    else:
        group_sets = (
            frozenset({lb}) | as_labels(part.j_ab),
            frozenset({lc_}) | as_labels(part.j_ca),
            frozenset({la}) | as_labels(part.e_a),
            rest,
        )
    cert = _finish_certificate(
        graph,
        lc_path,
        certified,
        triple,
        part.kind,
        METHOD_GENERAL,
        group_sets,
        words,
        (("a", ea), ("b", eb), ("c", ec), ("e", choice.t)),
        choice.cos_value,
    )
    expected_kappa = (-choice.t * m_tilde) % d
    if cert.kappa != expected_kappa:
        raise StructureError("construction bug: kappa differs from -e m_tilde")
    return cert


def certify_obs4(g: Multigraph, triple: Sequence[int]) -> Certificate | NotCertified:
    """General-multiplicity certificate at a given angle or triangle."""
    a, b, c = triple[:3]
    part = partition_neighborhoods(g, a, b, c)
    reasons: list[str] = []
    if _obs4_blocked(g, _neighbor_masks(g), (a, b, c), reasons):
        return NotCertified(graph=g, reasons=tuple(reasons))
    return _obs4_attempt(g, (), g, (a, b, c), part)


def _certify_direct(
    graph: Multigraph, lc_path: tuple[int, ...], certified: Multigraph, explain: bool = True
) -> Certificate | list[str]:
    """Try every construction on one graph; Certificate or failure reasons.

    Without ``explain`` a failure returns an empty list: no reason is formatted.
    """
    triples = find_angle_or_triangle(certified)
    weights = {m for _, _, m in edges(certified)}
    if len(weights) == 1:
        return _obs1_certificate(graph, lc_path, certified, triples[0][:3])
    reasons = [f"edge multiplicities {sorted(weights)} are not constant"] if explain else None
    nb = _neighbor_masks(certified)
    for a, b, c, _ in triples:
        if not _obs4_blocked(certified, nb, (a, b, c), reasons):
            part = partition_neighborhoods(certified, a, b, c)
            return _obs4_attempt(graph, lc_path, certified, (a, b, c), part)
    return reasons or []


def certify_any(
    g: Multigraph,
    orbit_cap: int = DEFAULT_ORBIT_CAP,
    *,
    _failed: set[tuple[int, ...]] | None = None,
) -> Certificate | NotCertified:
    """Certify a graph, searching its local-complementation orbit if needed.

    The orbit is explored breadth-first and each newly discovered member is
    tried immediately, so success exits early.  ``orbit_cap`` bounds the
    number of distinct orbit members examined.

    ``_failed`` is exhaustive_table's memo across one table: the canonical
    keys of graphs whose direct attempt failed.  Whether a direct attempt
    succeeds depends only on the isomorphism class, so members found there
    are walked past without a new attempt and no outcome changes.  The
    starting graph is always tried, for its reasons.
    """
    failed = set() if _failed is None else _failed
    if g.n < 3:
        return NotCertified(g, ("fewer than three vertices",))
    if not is_connected(g):
        raise StructureError("graph is not connected")
    result = _certify_direct(g, (), g)
    if isinstance(result, Certificate):
        return result
    walk = _LCWalk(g, orbit_cap)
    size = 0
    for image, path, key in walk:
        size += 1
        if path and key not in failed:
            attempt = _certify_direct(g, path, image, explain=False)
            if isinstance(attempt, Certificate):
                return attempt
        failed.add(key)
    note = f"all {size} graphs in the local-complementation orbit fail"
    if walk.truncated:
        note += f" (orbit search truncated at {orbit_cap})"
    return NotCertified(
        g, (*result, note), orbit_size=size, orbit_truncated=walk.truncated
    )


@dataclass(frozen=True)
class TableReport:
    """Certification tally over all connected multigraphs of one size.

    ``examined`` counts the labeled multiplicity vectors the enumeration
    scanned and ``yielded`` the classes it produced, also when it stopped on
    its budget (``complete`` False).
    """

    n: int
    d: int
    total: int
    certified: int
    methods: tuple[tuple[str, int], ...]
    uncertified: tuple[NotCertified, ...]
    complete: bool
    examined: int
    yielded: int

    @property
    def all_certified(self) -> bool:
        return self.complete and self.total > 0 and self.certified == self.total


def _method_tag(cert: Certificate) -> str:
    return cert.method + ("+lc" if cert.lc_path else "")


def exhaustive_table(
    n: int,
    d: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    orbit_cap: int = 4096,
    workers: int = 1,
) -> TableReport:
    """Certify every connected multigraph class on n vertices over Z_d."""
    graphs: list[Multigraph] = []
    complete = True
    examined = d ** (n * (n - 1) // 2)
    try:
        graphs.extend(enumerate_connected_multigraphs(n, d, budget=budget))
    except EnumerationOverflow as exc:
        complete = False
        examined = exc.examined
    run = partial(certify_any, orbit_cap=orbit_cap, _failed=set())
    if workers > 1 and len(graphs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, graphs, chunksize=8))
    else:
        results = [run(gr) for gr in graphs]
    methods: Counter[str] = Counter()
    uncertified: list[NotCertified] = []
    for res in results:
        if isinstance(res, Certificate):
            methods[_method_tag(res)] += 1
        else:
            uncertified.append(res)
    return TableReport(
        n=n,
        d=d,
        total=len(graphs),
        certified=len(graphs) - len(uncertified),
        methods=tuple(sorted(methods.items())),
        uncertified=tuple(uncertified),
        complete=complete,
        examined=examined,
        yielded=len(graphs),
    )


def _word_from_factorization(
    g: Multigraph, factorization: Iterable[tuple[str, int]]
) -> StabilizerWord:
    return word(g, {int(lbl): e for lbl, e in factorization})


def verify_obs3(cert: Certificate, dense_cap: int | None = None) -> VerificationReport:
    """Re-derive every claim a certificate makes, from the graph up.

    Checks group structure, factorizations, the exact operator identities,
    the four marginal equalities, the twist kappa, the bound arithmetic,
    and (when the restricted dimension is within the dense cap) that the two
    twisted operators have no common +1 eigenvector, from their exact
    per-cycle +1 eigenbases (``oracle.shares_plus_one_eigenvector``).
    A certificate so malformed that re-derivation raises is reported as a
    failed ``integrity`` check rather than an exception.
    """
    checks: list[Check] = []
    try:
        _verify_obs3_checks(cert, dense_cap, checks)
    except (NetcertError, ValueError, KeyError) as exc:
        checks.append(Check("integrity", False, f"verification aborted: {exc}"))
    return VerificationReport(checks=tuple(checks))


def _verify_obs3_checks(
    cert: Certificate, dense_cap: int | None, checks: list[Check]
) -> None:
    from . import oracle

    h = cert.certified_graph
    d = h.d
    parties = set(_labels(h))
    group_sets = [frozenset(grp) for grp in cert.groups]
    union: set[str] = set()
    total = 0
    for grp in group_sets:
        union |= grp
        total += len(grp)
    checks.append(
        Check(
            "groups_partition",
            union == parties and total == len(parties),
            f"groups cover {sorted(union)} of {sorted(parties)}",
        )
    )
    words_ok = True
    for idx, w in enumerate((cert.s1, cert.s2, cert.s3, cert.s4), start=1):
        rebuilt = _word_from_factorization(h, w.factorization)
        if rebuilt.operator != w.operator:
            words_ok = False
            checks.append(Check("factorizations", False, f"S{idx} mismatch"))
            break
    if words_ok:
        checks.append(Check("factorizations", True))
    prod = multiply(cert.s1.operator, cert.s2.operator)
    commute = commutation_phase(cert.s1.operator, cert.s2.operator) % d == 0
    checks.append(
        Check("product", prod == cert.s3.operator and commute, "S3 == S1 S2 exactly")
    )
    supports_ok = all(
        not (support(w.operator) & grp)
        for w, grp in zip((cert.s1, cert.s2, cert.s3, cert.s4), group_sets)
    )
    checks.append(Check("supports", supports_ok, "each S_i avoids group i"))
    sigma = dict(cert.s4_relabeling)
    expected_sigma = dict(_relabeling_for(cert.s4, group_sets[0]))
    checks.append(
        Check("relabel_map", sigma == expected_sigma, "copies are support cap group 1")
    )
    s4p = relabel(cert.s4.operator, sigma)
    kappa = commutation_phase(cert.s3.operator, s4p) % d
    common = support(cert.s3.operator) & support(s4p)
    checks.append(
        Check(
            "kappa",
            kappa == cert.kappa % d and kappa != 0 and common <= group_sets[1],
            f"kappa = {kappa}, overlap {sorted(common)}",
        )
    )
    premises = marginal_chain_checks(
        parties,
        group_sets,
        support(cert.s1.operator),
        support(cert.s2.operator),
        support(cert.s3.operator),
        support(cert.s4.operator),
        sigma,
    )
    for name, ok in premises:
        checks.append(Check(f"marginal: {name}", ok))
    lam = cert.lambda_prime
    lam_ok = (
        0.0 <= lam <= 2.0
        and lam <= 2.0 * abs(math.cos(math.pi * kappa / d)) + _LAMBDA_TOL
        and cert.fidelity_bound == fidelity_bound_from_lambda(lam)
    )
    checks.append(Check("lambda_bound", lam_ok, f"lambda' = {lam}"))
    cap = dense_cap if dense_cap is not None else oracle.dimension_cap()
    r3 = restrict(cert.s3.operator, group_sets[1])
    r4 = restrict(s4p, group_sets[1])
    sites = sorted(support(r3) | support(r4))
    if sites and d ** len(sites) <= cap:
        shared = oracle.shares_plus_one_eigenvector(r3, r4, sites)
        checks.append(
            Check(
                "eigenspace_obstruction",
                not shared,
                "restricted operators have no common +1 eigenvector",
            )
        )
    else:
        # U1 v = v = U2 v with U1 U2 = omega^k U2 U1 forces v = omega^k v, so
        # k != 0 rules out a common +1 eigenvector without the eigenbasis check.
        k = commutation_phase(r3, r4)
        checks.append(
            Check(
                "eigenspace_obstruction",
                k != 0,
                f"restricted operators commute up to omega^{k}; dense check "
                f"skipped: dimension {d}^{len(sites)} exceeds cap {cap}",
            )
        )


def certificate_to_json_obj(cert: Certificate) -> dict:
    """Schema-stable JSON form (field order is part of the format)."""

    def op_obj(w: StabilizerWord) -> dict:
        sm = w.operator.site_map()
        return {
            "phase_exp": w.operator.phase_exp,
            "sites": {lbl: list(sm[lbl]) for lbl in sorted(sm)},
            "factorization": [[lbl, e] for lbl, e in w.factorization],
        }

    return {
        "graph": cert.graph.to_json_obj(),
        "triple": list(cert.triple),
        "kind": cert.kind,
        "groups": {
            f"G{i}": list(grp) for i, grp in enumerate(cert.groups, start=1)
        },
        "operators": {
            "S1": op_obj(cert.s1),
            "S2": op_obj(cert.s2),
            "S3": op_obj(cert.s3),
            "S4": op_obj(cert.s4),
            "S4prime_relabel": {k: v for k, v in cert.s4_relabeling},
        },
        "exponents": {k: v for k, v in cert.exponents},
        "kappa": cert.kappa,
        "lambda_prime": cert.lambda_prime,
        "fidelity_bound": cert.fidelity_bound,
        "method": cert.method,
        "lc_path": list(cert.lc_path),
    }


def certificate_from_json_obj(obj: dict) -> Certificate:
    """Inverse of certificate_to_json_obj."""
    try:
        graph = Multigraph.from_json_obj(obj["graph"])
        d = graph.d

        def op_from(o: dict) -> StabilizerWord:
            operator = PauliOperator.from_sites(
                d,
                {lbl: (x, z) for lbl, (x, z) in o["sites"].items()},
                phase_exp=o["phase_exp"],
            )
            factorization = tuple((lbl, int(e)) for lbl, e in o["factorization"])
            return StabilizerWord(operator=operator, factorization=factorization)

        ops = obj["operators"]
        return Certificate(
            graph=graph,
            lc_path=tuple(int(v) for v in obj["lc_path"]),
            triple=tuple(int(v) for v in obj["triple"]),
            kind=obj["kind"],
            method=obj["method"],
            groups=tuple(
                tuple(obj["groups"][f"G{i}"]) for i in range(1, 5)
            ),
            s1=op_from(ops["S1"]),
            s2=op_from(ops["S2"]),
            s3=op_from(ops["S3"]),
            s4=op_from(ops["S4"]),
            s4_relabeling=tuple(sorted(ops["S4prime_relabel"].items())),
            exponents=tuple((k, int(v)) for k, v in obj["exponents"].items()),
            kappa=int(obj["kappa"]),
            lambda_prime=float(obj["lambda_prime"]),
            fidelity_bound=float(obj["fidelity_bound"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed certificate object: {exc}") from exc


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_json_obj(cert), indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"invalid JSON: {exc}") from exc
    return certificate_from_json_obj(obj)
