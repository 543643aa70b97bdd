"""A certificate's proof on PauliOperator words: the reference model for
``netcert.checker._derive``, ``_witness`` and ``_v1_fields``, and for
``netcert.checker.shares_plus_one_eigenvector``, which work on exponent
vectors and vertex bitmasks.

``reference_proof`` replays the local complementations, builds S1, S2, S4
and S3 = S1 S2 as ``stabilizer.word`` operators, moves S4's sites in G1 to
their primed copies and takes kappa from the commutation phase of S3 and the
moved S4.  ``reference_witness`` checks the four witness conditions on label
sets: the groups partition the vertices, S1 and S2 commute, each S_i avoids
group i, and S3 and the relabeled S4 fail to commute with their overlap
inside group 2.  ``proof_operators`` reads the same operators off a Proof's
vectors and the earlier JSON form's fields, for comparison with it.

``reference_shares_plus_one_eigenvector`` is the eigenspace decision on
PauliOperators, by repeated ``multiply``, and ``as_vectors`` turns two
PauliOperators into the (x, z, tau) vectors of the library's decision.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from netcert.checker import (
    METHOD_CONSTANT,
    METHOD_GENERAL,
    Certificate,
    _general,
    _v1_fields,
    fidelity_bound_from_lambda,
    select_power_t,
)
from netcert.errors import DimensionError
from netcert.multigraph import Multigraph, local_complement
from netcert.network import prime
from netcert.pauli import PauliOperator, commutation_phase, identity, multiply, relabel, support
from netcert.stabilizer import word


class ReferenceProof(NamedTuple):
    certified_graph: Multigraph
    s1: PauliOperator
    s2: PauliOperator
    s3: PauliOperator
    s4: PauliOperator
    s4_relabeling: tuple[tuple[str, str], ...]
    s4_twisted: PauliOperator
    kappa: int
    lambda_prime: float
    fidelity_bound: float
    method: str


def reference_proof(cert: Certificate) -> ReferenceProof:
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
    return ReferenceProof(h, s1, s2, s3, s4, sigma, s4_twisted, kappa, lam, bound, method)


def reference_witness(cert: Certificate):
    """(partition, commute, avoid, kappa), then the union of the groups, the
    supports of S1..S4 and the overlap of S3 and the relabeled S4, as label
    sets."""
    p = reference_proof(cert)
    group_sets = [frozenset(grp) for grp in cert.groups]
    union = frozenset().union(*group_sets)
    labels = frozenset(str(v) for v in range(cert.graph.n))
    partition = union == labels and sum(map(len, group_sets)) == cert.graph.n
    commute = commutation_phase(p.s1, p.s2) % cert.graph.d == 0
    supports = tuple(map(support, (p.s1, p.s2, p.s3, p.s4)))
    avoid = not any(sup & grp for sup, grp in zip(supports, group_sets))
    overlap = supports[2] & support(p.s4_twisted)
    kappa = p.kappa != 0 and overlap <= group_sets[1]
    return (partition, commute, avoid, kappa), union, supports, overlap


def proof_operators(cert: Certificate):
    """S1..S4 as PauliOperators from the Proof's X- and Z-parts with the
    tau exponents of _v1_fields, then S4's relabeling from _v1_fields'
    S4prime_relabel and S4 relabeled by it: the fields of ReferenceProof
    from s1 to s4_twisted."""
    p = cert.proof
    fields = {name: json.loads(text) for name, text in _v1_fields(cert).items()}
    ops = [
        PauliOperator.from_sites(
            p.certified_graph.d,
            dict(zip(p.labels, zip(p.x[i], p.z[i]))),
            fields[f"S{i + 1}"]["phase_exp"],
        )
        for i in range(4)
    ]
    relabeling = tuple(sorted(fields["S4prime_relabel"].items()))
    return (*ops, relabeling, relabel(ops[3], dict(relabeling)))


def as_vectors(*ops: PauliOperator):
    """The operators as (x, z, tau) over the sorted union of their sites."""
    parties = sorted(set().union(*map(support, ops)))
    vectors = []
    for op in ops:
        site_map = op.site_map()
        sites = [site_map.get(lbl, (0, 0)) for lbl in parties]
        vectors.append(([x for x, _ in sites], [z for _, z in sites], op.phase_exp))
    return vectors


def reference_shares_plus_one_eigenvector(p: PauliOperator, q: PauliOperator) -> bool:
    """The eigenspace decision of checker.shares_plus_one_eigenvector on
    PauliOperators, with q's and p's powers by repeated multiply."""
    if p.d != q.d:
        raise DimensionError(f"dimension mismatch: {p.d} vs {q.d}")
    if commutation_phase(p, q):
        return False
    d = p.d
    # q^b for b < L by Pauli part; the first repeated part is q^L's, zero
    powers: dict[tuple, PauliOperator] = {}
    qb = identity(d)
    while qb.sites not in powers:
        powers[qb.sites] = qb
        qb = multiply(qb, q)
    if qb.phase_exp:
        return False
    # p^a until q^b cancels its Pauli part, at a = a0 <= the order of p's
    pa = p
    while True:
        inverse = tuple((label, (-x % d, -z % d)) for label, (x, z) in pa.sites)
        if inverse in powers:
            return multiply(pa, powers[inverse]).phase_exp == 0
        pa = multiply(pa, p)
