"""A certificate's proof on PauliOperator words: the reference model for
``netcert.certify._derive`` and ``_witness``, which work on exponent vectors
and vertex bitmasks.

``reference_proof`` replays the local complementations, builds S1, S2, S4
and S3 = S1 S2 as ``stabilizer.word`` operators, moves S4's sites in G1 to
their primed copies and takes kappa from the commutation phase of S3 and the
moved S4.  ``reference_witness`` checks the four witness conditions on label
sets: the groups partition the vertices, S1 and S2 commute, each S_i avoids
group i, and S3 and the relabeled S4 fail to commute with their overlap
inside group 2.
"""

from __future__ import annotations

from typing import NamedTuple

from netcert.certify import (
    METHOD_CONSTANT,
    METHOD_GENERAL,
    Certificate,
    _general,
    fidelity_bound_from_lambda,
    select_power_t,
)
from netcert.multigraph import Multigraph, local_complement
from netcert.network import prime
from netcert.pauli import PauliOperator, commutation_phase, relabel, support
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
