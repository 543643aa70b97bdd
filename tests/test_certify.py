"""Certificate constructions, verification, serialization, and tallies."""

import dataclasses
import itertools
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from certify_reference import proof_operators, reference_proof, reference_witness
from network_reference import reference_chain
from walk_reference import reference_labelled_walks, reference_orbit_walks, use_reference_walk

from netcert import (
    Certificate,
    DegenerateMultiplicity,
    EnumerationOverflow,
    Multigraph,
    NotCertified,
    RangeError,
    ResourceError,
    StructureError,
    certificate_from_json,
    certificate_to_json,
    certify_any,
    enumerate_connected_multigraphs,
    exhaustive_table,
    fidelity_bound_from_lambda,
    lc_orbit,
    select_power_t,
    verify_obs3,
)
from netcert.certify import (
    REJECTION_KINDS,
    TableReport,
    _blocked,
    _certify_direct,
    _check_witnesses,
    _direct_block,
    _direct_pass,
    _LCClasses,
    _m_tilde,
    _orbit_walks,
    _PASS_BLOCK,
    _triple_flags,
)
from netcert.checker import (
    _support,
    _witness,
    certificate_from_json_obj,
    certificate_to_json_obj,
)
from netcert import certify, checker, multigraph
from netcert.graph import _neighbor_masks, edges, is_connected
from netcert.multigraph import (
    DEFAULT_ENUMERATION_BUDGET,
    _angles,
    _canonical_rows,
    _row_dtype,
    canonical_form,
    class_count,
    from_triu_vector,
    local_complement,
    partition_neighborhoods,
    permuted,
    triu_to_matrices,
)
from netcert.pauli import PauliOperator, commutation_phase, restrict, support


def triangle(d, m=1):
    return Multigraph.from_edges(d, 3, [(0, 1, m), (1, 2, m), (0, 2, m)])


def angle(d, m_ab, m_ca):
    return Multigraph.from_edges(d, 3, [(0, 1, m_ab), (0, 2, m_ca)])


# ---------------------------------------------------------------- power choice


def test_select_power_t_pinned_cases():
    assert select_power_t(1, 2) == (1, 0.0)
    assert select_power_t(1, 4) == (2, 0.0)
    assert select_power_t(3, 6) == (1, 0.0)
    t, cv = select_power_t(1, 3)
    assert t == 1 and cv == math.sin(math.pi / 6)
    t, cv = select_power_t(2, 6)
    assert t == 1 and cv == math.sin(math.pi / 6)
    t, cv = select_power_t(4, 6)
    assert t == 2 and cv == math.sin(math.pi / 6)
    with pytest.raises(DegenerateMultiplicity):
        select_power_t(0, 5)
    with pytest.raises(DegenerateMultiplicity):
        select_power_t(10, 5)
    with pytest.raises(RangeError):
        select_power_t(1, 1)


def test_select_power_t_minimizes_cosine():
    for d in range(2, 16):
        for m in range(1, d):
            t, cv = select_power_t(m, d)
            assert (t * m) % d != 0
            attained = abs(math.cos(math.pi * t * m / d))
            assert abs(attained - cv) < 1e-12
            best = min(
                abs(math.cos(math.pi * s * m / d))
                for s in range(1, d)
                if (s * m) % d != 0
            )
            assert attained <= best + 1e-12


def test_fidelity_bound_from_lambda():
    assert fidelity_bound_from_lambda(0.0) == 0.9
    assert fidelity_bound_from_lambda(2.0) == 1.0
    assert fidelity_bound_from_lambda(1.0) == (7.0 + math.sqrt(6.5)) / 10.0
    with pytest.raises(RangeError):
        fidelity_bound_from_lambda(-0.1)
    with pytest.raises(RangeError):
        fidelity_bound_from_lambda(2.0000001)


# ---------------------------------------------------------------- constructions


def test_constant_multiplicity_triangle_d2():
    cert = certify_any(triangle(2))
    assert cert.method == "obs1"
    # the triangle layout: G1 = {c}, where an angle's would be G1 = {b}
    assert cert.groups == (("2",), ("1",), ("0",), ())
    assert (cert.e1, cert.e2, cert.e4) == ((1, 1, 0), (1, 0, 1), (0, 0, 1))
    assert cert.kappa == 1
    assert cert.lambda_prime == 0.0
    assert cert.fidelity_bound == 0.9
    assert verify_obs3(cert).all_passed


def test_constant_multiplicity_rejects_mixed_weights():
    """Mixed weights never get the constant-multiplicity construction."""
    g = Multigraph.from_edges(3, 3, [(0, 1, 1), (1, 2, 2)])
    cert = certify_any(g)
    assert cert.method == "obs4" and cert.lc_path == ()
    assert verify_obs3(cert).all_passed


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_constant_multiplicity_bounds_by_dimension(d):
    # bound depends only on d' = d/gcd(m, d): 0.9 when even, else the
    # closed form at sin(pi/(2 d')).
    for m in range(1, d):
        g = triangle(d, m)
        cert = certify_any(g)
        assert cert.method == "obs1" and cert.lc_path == ()
        d_red = d // math.gcd(m, d)
        if d_red % 2 == 0:
            assert cert.fidelity_bound == 0.9
        else:
            want = fidelity_bound_from_lambda(2.0 * math.sin(math.pi / (2 * d_red)))
            assert cert.fidelity_bound == want
        assert verify_obs3(cert).all_passed


def test_obs4_on_mixed_angle():
    g = angle(3, 1, 2)
    cert = certify_any(g)
    assert isinstance(cert, Certificate)
    assert cert.method == "obs4"
    # the angle layout at triple (0, 1, 2): S4 = g_0^2, G1 = {1}, G2 = {2}
    assert cert.groups == (("1",), ("2",), ("0",), ())
    assert (cert.e1, cert.e2, cert.e4) == ((0, 0, 1), (0, 1, 0), (2, 0, 0))
    assert verify_obs3(cert).all_passed


def test_negative_control_d6_angle_is_orbit_singleton():
    g = angle(6, 3, 2)
    res = certify_any(g)
    assert isinstance(res, NotCertified)
    assert res.orbit_size == 1
    assert not res.orbit_truncated
    assert any("m_tilde" in r for r in res.reasons)
    assert any("not constant" in r for r in res.reasons)
    assert any("local-complementation orbit" in r for r in res.reasons)


def test_certify_any_small_and_disconnected():
    tiny = Multigraph.from_edges(3, 2, [(0, 1, 1)])
    res = certify_any(tiny)
    assert isinstance(res, NotCertified)
    assert res.reasons == ("fewer than three vertices",)
    broken = Multigraph.from_edges(2, 4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(StructureError):
        certify_any(broken)


def test_direct_attempt_scales_with_the_graph():
    """The direct attempt walks the angles lazily and stops at the first one
    it can use: on a 100-vertex path it holds none of the 970,200 ordered
    triples."""
    g = Multigraph.from_edges(2, 100, [(v, v + 1, 1) for v in range(99)])
    tracemalloc.start()
    try:
        cert = certify_any(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(cert, Certificate)
    assert cert.fidelity_bound == 0.9
    report = verify_obs3(cert)
    assert report.all_passed
    labels = sorted(map(str, range(100)))  # as strings: "0", "1", "10", ...
    assert report.checks[0].detail == f"groups cover {labels} of {labels}"
    assert peak < 4 * 2**20


def test_lc_orbit_rescue():
    """A graph every direct construction misses but one hop of local
    complementation fixes."""
    g = Multigraph.from_edges(
        4, 4, [(0, 2, 2), (0, 3, 2), (1, 2, 2), (1, 3, 2), (2, 3, 1)]
    )
    assert _certify_direct(g, (), g) is None
    cert = certify_any(g)
    assert isinstance(cert, Certificate)
    assert cert.lc_path == (2,)
    assert cert.graph == g
    assert cert.certified_graph != g
    assert cert.fidelity_bound == 0.9
    assert verify_obs3(cert).all_passed


def test_lc_orbit_rescue_past_2_to_the_64():
    """The orbit walk's class keys work at any d: over
    d = 2^70 + 1, K4 with weight 3 on 0-1 and d - 1 elsewhere fails directly
    and certifies after LC at vertex 0."""
    d = 2**70 + 1
    eds = [(i, j, 3 if (i, j) == (0, 1) else d - 1) for i, j in itertools.combinations(range(4), 2)]
    g = Multigraph.from_edges(d, 4, eds)
    assert _certify_direct(g, (), g) is None
    cert = certify_any(g)
    assert isinstance(cert, Certificate)
    assert cert.lc_path == (0,)
    assert cert.fidelity_bound == 0.9
    assert verify_obs3(cert).all_passed


def test_orbit_walk_refuses_nine_vertices_before_any_image(monkeypatch):
    """n <= 8 stays the orbit walk's ceiling, checked at its start: on the
    9-vertex path over Z_6 with weights 3, 2, 3, 2, ..., whose direct attempt
    fails (every angle has m_tilde = 6 = 0), certify_any and lc_orbit raise
    ResourceError before any local complementation runs."""
    path = Multigraph.from_edges(6, 9, [(v, v + 1, 3 - v % 2) for v in range(8)])
    assert _certify_direct(path, (), path) is None

    def no_image(g, a):
        raise AssertionError("an LC image was built")

    monkeypatch.setattr(multigraph, "local_complement", no_image)
    for walk in (certify_any, lc_orbit):
        with pytest.raises(ResourceError, match="past n=8; n=9"):
            walk(path)


def _outcome(res):
    """certify_any's answer as text: a certificate's JSON, or a refusal's repr."""
    return certificate_to_json(res) if isinstance(res, Certificate) else repr(res)


def _walks(orbit_graphs, certify_graphs, caps):
    """lc_orbit at cap 64 on ``orbit_graphs`` and certify_any at each of
    ``caps`` on ``certify_graphs``, as comparable values."""
    orbits = [lc_orbit(g, 64) for g in orbit_graphs]
    return (
        [(o.graphs, o.paths, o.truncated) for o in orbits],
        [_outcome(certify_any(g, *cap)) for g in certify_graphs for cap in caps],
    )


@pytest.mark.parametrize("n,d", [(4, 4), (5, 3), (3, 6)])
def test_class_key_walk_matches_the_canonical_form_walk(n, d, monkeypatch):
    """The orbit walk on class keys against the reference walk keyed by
    canonical_form (tests/walk_reference.py), on every class of the cell:
    lc_orbit's graphs, paths and truncation at cap 64, and certify_any at
    orbit caps 1..64 on the classes whose direct attempt fails.  lc_orbit at
    cap c yields the first c classes of that walk and flags truncation iff a
    (c + 1)-th turns up (_LCWalk, which both walks share), so its cap-64 run
    fixes every cap from 1 to 64."""
    graphs = list(enumerate_connected_multigraphs(n, d))
    walked = [g for g in graphs if _certify_direct(g, (), g) is None]
    got = _walks(graphs, walked, [(cap,) for cap in range(1, 65)])
    use_reference_walk(monkeypatch)
    assert _walks(graphs, walked, [(cap,) for cap in range(1, 65)]) == got
    assert len(walked) >= 2


def test_class_key_walk_matches_the_canonical_form_walk_on_the_pool(monkeypatch):
    """As above on the certify_verify benchmark pool: certify_any at the
    default cap on every graph, lc_orbit at cap 64 on the 19 whose direct
    attempt fails."""
    graphs = _pool_graphs(monkeypatch)
    walked = [g for g in graphs if _certify_direct(g, (), g) is None]
    got = _walks(walked, graphs, [()])
    use_reference_walk(monkeypatch)
    assert _walks(walked, graphs, [()]) == got
    assert len(walked) == 19


def test_orbit_cap_truncation_reported():
    g = Multigraph.from_edges(6, 3, [(0, 1, 3), (0, 2, 2)])
    res = certify_any(g, orbit_cap=1)
    assert isinstance(res, NotCertified)
    # nothing new can be admitted beyond the start graph
    assert res.orbit_size == 1


def test_certification_status_is_relabeling_invariant():
    rng = np.random.default_rng(31)
    graphs = list(enumerate_connected_multigraphs(3, 6))
    for g in graphs[:: max(1, len(graphs) // 25)]:
        base = certify_any(g)
        perm = list(rng.permutation(g.n))
        other = certify_any(permuted(g, perm))
        assert isinstance(base, Certificate) == isinstance(other, Certificate)


def test_random_certificates_verify():
    rng = np.random.default_rng(32)
    verified = 0
    attempts = 0
    while verified < 30 and attempts < 400:
        attempts += 1
        d = int(rng.integers(2, 8))
        n = int(rng.integers(3, 6))
        eds = [
            (i, j, int(rng.integers(1, d)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.55
        ]
        g = Multigraph.from_edges(d, n, eds)
        from netcert import is_connected

        if not is_connected(g):
            continue
        res = certify_any(g, orbit_cap=512)
        if isinstance(res, NotCertified):
            continue
        report = verify_obs3(res)
        assert report.all_passed, report.failed()
        verified += 1
    assert verified == 30


def reference_direct_reasons(g):
    """What the partition-based direct attempt reports for a graph with
    mixed weights: (kind, line) per failure, one line per failing triple, or
    None once a triple is free of shared neighbors and has a nonzero m_tilde."""
    weights = sorted({m for _, _, m in edges(g)})
    reasons = [("non_constant", f"edge multiplicities {weights} are not constant")]
    vs = range(g.n)
    triples = [
        (a, b, c)
        for a in vs
        for b in vs
        for c in vs
        if len({a, b, c}) == 3 and g.mult[a][b] and g.mult[c][a]
    ]
    for a, b, c in triples:
        part = partition_neighborhoods(g, a, b, c)
        tag = f"triple ({a},{b},{c})"
        blocked = []
        if part.t_abc:
            blocked.append(("t_abc", f"{tag}: vertices adjacent to all three present"))
        if part.kind == "triangle" and (part.j_ab or part.j_ca):
            blocked.append(("apex", f"{tag}: triangle with shared neighbors at the apex"))
        if not blocked:
            m_ab, m_ca, m_bc = g.mult[a][b], g.mult[c][a], g.mult[b][c]
            h = math.gcd(math.gcd(m_ab, m_ca), m_bc) if m_bc else math.gcd(m_ab, m_ca)
            if (m_ab * m_ca // h) % g.d:
                return None
            blocked.append(("m_tilde_zero", f"{tag}: m_tilde = {m_ab}*{m_ca}/{h} = 0 (mod {g.d})"))
        reasons.extend(blocked)
    return reasons


def test_direct_attempt_matches_partition_reference():
    """Both paths against the partition reference: _certify_direct and,
    on the same labeled graph, the construction and rejection counts of
    _direct_block, and _direct_pass's totals."""
    rng = np.random.default_rng(41)
    refused = 0
    for _ in range(400):
        d = int(rng.integers(3, 8))
        n = int(rng.integers(3, 7))
        eds = [
            (i, j, int(rng.integers(1, d)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.7
        ]
        g = Multigraph.from_edges(d, n, eds)
        if not is_connected(g) or len({m for _, _, m in edges(g)}) == 1:
            continue
        want = reference_direct_reasons(g)
        got = _certify_direct(g, (), g)
        # an orbit cap of 1 leaves the direct attempt's outcome
        res = certify_any(g, orbit_cap=1)
        direct = _direct_block(triu_rows([g]), n, d)
        assert (direct.construction[0] > 0) == isinstance(res, Certificate)
        assert (_direct_pass(triu_rows([g]), n, d).rejections == direct.rejections[0]).all()
        if want is None:
            assert isinstance(got, Certificate)
            assert direct.rejections[0].tolist() == [0] * len(REJECTION_KINDS)
        else:
            refused += 1
            assert got is None
            assert res.reasons[:-1] == tuple(line for _, line in want)
            kinds = Counter(kind for kind, _ in want)
            assert res.rejections == tuple((kind, kinds[kind]) for kind in REJECTION_KINDS)
            assert tuple(zip(REJECTION_KINDS, direct.rejections[0].tolist())) == res.rejections
    assert refused >= 50


# The two (5,4) classes no construction certifies; both are LC fixpoints.
STRAGGLERS_5X4 = [
    [(0, 2, 1), (0, 3, 2), (0, 4, 2), (1, 2, 2), (1, 3, 2), (1, 4, 2), (2, 4, 2), (3, 4, 2)],
    [(0, 2, 2), (0, 3, 2), (0, 4, 2), (1, 2, 2), (1, 3, 2), (1, 4, 3), (2, 3, 2), (3, 4, 2)],
]


@pytest.mark.parametrize("eds", STRAGGLERS_5X4)
def test_5x4_stragglers_refuse_with_every_reason(eds):
    g = Multigraph.from_edges(4, 5, eds)
    res = certify_any(g)
    assert isinstance(res, NotCertified)
    assert res.orbit_size == 1 and not res.orbit_truncated
    orbit_note = "all 1 graphs in the local-complementation orbit fail"
    want = reference_direct_reasons(g)
    assert res.reasons == (*(line for _, line in want), orbit_note)
    assert len(res.reasons) == 38
    kinds = Counter(kind for kind, _ in want)
    assert res.rejections == tuple((kind, kinds[kind]) for kind in REJECTION_KINDS)
    assert res.rejections[0] == ("non_constant", 1)


# ---------------------------------------------------------------- verification


def _tampered(cert, **changes):
    return dataclasses.replace(cert, **changes)


#: Certificates in the earlier JSON form (no "version"), as `netcert certify
#: --output` wrote them: obs1 on a triangle, obs4 on an angle, and obs4 after
#: local complementations at d = 3 and d = 6.
V1_FIXTURES = sorted((Path(__file__).parent / "data").glob("v1_*.json"))


def _v1_edited(fixture, edit):
    """The fixture's certificate object after ``edit(obj)``, read back."""
    obj = json.loads(fixture.read_text())["certificate"]
    edit(obj)
    return certificate_from_json_obj(obj)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(obj):
        for step in path:
            obj = obj[step]
        obj[key] = value(obj[key]) if callable(value) else value

    return edit


def test_verifier_rejects_tampering():
    """Each edit of a stored proof fails the check it breaks; each edit of a
    field the proof fixes, in the earlier form, fails the check named after
    the field; the construction records are only listed as ignored."""
    cert = certify_any(triangle(3))
    assert verify_obs3(cert).all_passed

    swapped_groups = _tampered(
        cert, groups=(cert.groups[1], cert.groups[0], cert.groups[2], cert.groups[3])
    )
    report = verify_obs3(swapped_groups)
    assert not report.all_passed

    # S4 = S3: no twist
    s3 = tuple((x + y) % 3 for x, y in zip(cert.e1, cert.e2))
    assert "kappa" in [c.name for c in verify_obs3(_tampered(cert, e4=s3)).failed()]

    # a vector longer than the graph is not a proof
    report = verify_obs3(_tampered(cert, e4=(*cert.e4, 1)))
    detail = "verification aborted: vertex 3 outside 0..2"
    assert report.checks == (checker.Check("integrity", False, detail),)

    # S4 at a power whose twist is not the best one: lambda' undercuts the bound
    cert5 = certify_any(triangle(5))
    assert cert5.e4 == (0, 0, 2) and verify_obs3(cert5).all_passed
    report = verify_obs3(_tampered(cert5, e4=(0, 0, 1)))
    assert [c.name for c in report.failed()] == ["lambda_bound"]

    # drop a populated group: use a path on four vertices, whose far vertex
    # lands in group 4
    path4 = Multigraph.from_edges(2, 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    cert4 = certify_any(path4)
    assert cert4.groups[3], "test needs a nonempty fourth group"
    missing_group = _tampered(
        cert4, groups=(cert4.groups[0], cert4.groups[1], cert4.groups[2], ())
    )
    report = verify_obs3(missing_group)
    assert any(c.name == "groups_partition" for c in report.failed())

    def s3_is_s1(obj):
        obj["operators"]["S3"] = obj["operators"]["S1"]

    other = {"obs1": "obs4", "obs4": "obs1", "angle": "triangle", "triangle": "angle"}
    for fixture in V1_FIXTURES:
        assert verify_obs3(_v1_edited(fixture, lambda obj: None)).all_passed
        ops = json.loads(fixture.read_text())["certificate"]["operators"]
        longer = next(f"S{i}" for i in range(1, 5) if len(ops[f"S{i}"]["factorization"]) > 1)
        for edit, check in [
            (_set("kappa", lambda k: k + 1), "kappa"),
            (_set("fidelity_bound", 0.99), "fidelity_bound"),
            (_set("lambda_prime", 2.0), "lambda_prime"),
            (s3_is_s1, "S3"),
            (_set("operators", "S4prime_relabel", {}), "S4prime_relabel"),
            (_set("method", other.get), "method"),
            (_set("operators", longer, "factorization", lambda f: f[::-1]), longer),
        ]:
            report = verify_obs3(_v1_edited(fixture, edit))
            assert [c.name for c in report.failed()] == [check], (fixture.name, check)
        for edit in [_set("triple", [0, 1]), _set("triple", [0, 1, 1]), _set("kind", other.get)]:
            report = verify_obs3(_v1_edited(fixture, edit))
            assert report.all_passed and report.ignored == ("triple", "kind", "exponents")
        doubled = _set("operators", "S4", "factorization", lambda f: f * 2)
        with pytest.raises(StructureError):
            _v1_edited(fixture, doubled)


def test_verifier_decides_obstruction_above_dense_cap():
    """Operators whose restrictions to group 2 commute fail the exact check,
    with no setting that could skip it."""
    cert = certify_any(triangle(3))
    commuting = _tampered(cert, e4=tuple((x + y) % 3 for x, y in zip(cert.e1, cert.e2)))
    report = verify_obs3(commuting)
    eig = [c for c in report.checks if c.name == "eigenspace_obstruction"]
    detail = "restricted operators share a +1 eigenvector"
    assert eig == [checker.Check("eigenspace_obstruction", False, detail)]


@pytest.mark.parametrize("cap", [None, "1"])
def test_verifier_reports_empty_group_two(monkeypatch, cap):
    """With group 2 emptied into group 3, S3 and the relabeled S4 restrict
    to the identity: the check fails and says so, whether or not the retired
    NETCERT_CAP variable is set."""
    g = Multigraph.from_edges(3, 4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
    cert = certify_any(g)
    g1, g2, g3, g4 = cert.groups
    assert g2, "test needs a nonempty second group"
    emptied = _tampered(cert, groups=(g1, (), tuple(sorted(g2 + g3)), g4))
    if cap is None:
        monkeypatch.delenv("NETCERT_CAP", raising=False)
    else:
        monkeypatch.setenv("NETCERT_CAP", cap)
    eig = [c for c in verify_obs3(emptied).checks if c.name == "eigenspace_obstruction"]
    detail = "restricted operators act trivially on group 2"
    assert eig == [checker.Check("eigenspace_obstruction", False, detail)]


def test_marginal_checks_of_every_grouping_match_the_network_model():
    """verify_obs3's four marginal checks, on each of the 256 groupings of
    the 4-vertex path certificate, are the explicit networks' answer."""
    cert = certify_any(Multigraph.from_edges(2, 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]))
    parties = ["0", "1", "2", "3"]
    ref = reference_proof(cert)
    supports = [support(op) for op in (ref.s1, ref.s2, ref.s3, ref.s4)]
    failing = 0
    for assign in itertools.product(range(4), repeat=4):
        groups = tuple(tuple(v for v in parties if assign[int(v)] == k) for k in range(4))
        report = verify_obs3(_tampered(cert, groups=groups))
        marginal = [
            (c.name.removeprefix("marginal: "), c.passed)
            for c in report.checks
            if c.name.startswith("marginal: ")
        ]
        assert marginal == reference_chain(parties, groups, *supports), groups
        failing += not all(ok for _, ok in marginal)
    assert failing == 161


def test_verifier_reports_a_non_partition_as_integrity():
    """Groups that do not partition the vertices fail groups_partition, and
    the marginal checks, which need a partition, end the report with one
    integrity check."""
    cert = certify_any(Multigraph.from_edges(2, 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]))
    g1, g2, g3, g4 = cert.groups
    assert g4, "test needs a nonempty fourth group"
    report = verify_obs3(_tampered(cert, groups=(g1, g2, g3, ())))
    assert [c.name for c in report.checks] == [*checker._WITNESS_CHECKS, "integrity"]
    assert not report.checks[0].passed
    detail = "verification aborted: groups must partition the parties"
    assert report.checks[-1] == checker.Check("integrity", False, detail)


def _pool_graphs(monkeypatch):
    """The certify_verify benchmark pool, in its seed 1 order."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    return workloads.certify_stream(1)


def _pool_certificates(monkeypatch):
    """certify_any's certificates for the certify_verify benchmark pool."""
    return [certify_any(g) for g in _pool_graphs(monkeypatch)]


def test_kappa_check_implies_the_eigenspace_obstruction(monkeypatch):
    """When the overlap of S3 and the relabeled S4 lies in group 2,
    restricting both to group 2 keeps their commutation phase kappa, so a
    passing kappa check decides the eigenspace check by its first test:
    on the pool and on every (4,4) certificate, the group computation after
    that test is never reached."""
    certs = _pool_certificates(monkeypatch)
    certs += [certify_any(g) for g in enumerate_connected_multigraphs(4, 4)]
    assert len(certs) == 216 + 250 and all(isinstance(c, Certificate) for c in certs)

    def unreachable(*args):
        raise AssertionError("the eigenspace check went past its first test")

    monkeypatch.setattr(checker, "_power", unreachable)
    for cert in certs:
        ref = reference_proof(cert)
        r3, r4 = (restrict(op, cert.groups[1]) for op in (ref.s3, ref.s4_twisted))
        assert commutation_phase(r3, r4) == cert.kappa
        passed = {c.name: c.passed for c in verify_obs3(cert).checks}
        assert passed["kappa"] and passed["eigenspace_obstruction"]


def _tampered_layouts(cert):
    """Five group layouts that break a certificate: G1 and G2 swapped, a
    label that names no vertex added to G1, a vertex moved into G1, a vertex
    in both G1 and G2, and the groups in reverse order."""
    g1, g2, g3, g4 = cert.groups
    moved = [v for grp in (g2, g3, g4) for v in grp][-1]
    into_g1 = (g1 + (moved,), *(tuple(v for v in grp if v != moved) for grp in (g2, g3, g4)))
    shared = next(v for v in map(str, range(cert.graph.n)) if v not in g2)
    both = (g1 if shared in g1 else g1 + (shared,), g2 + (shared,), g3, g4)
    return [(g2, g1, g3, g4), (g1 + ("x",), g2, g3, g4), into_g1, both, (g4, g3, g2, g1)]


def test_vector_proof_matches_the_pauli_reference(monkeypatch):
    """_derive and _witness on exponent vectors and bitmasks equal the
    PauliOperator model of tests/certify_reference.py, exactly: kappa,
    lambda', the bound, the method, S1..S4 (from the Proof's vectors with
    _v1_fields' tau exponents), the S4 relabeling and the relabeled S4 (from
    _v1_fields), the witness flags, and the union, supports and overlap as
    labels.  On the certify_verify pool, 400 seeded random graphs (n 3..8,
    d 2..9), every class of (4,4) and (5,3), five tampered group layouts of
    each of their certificates, and the earlier-form fixtures."""
    graphs = []
    rng = np.random.default_rng(35)
    while len(graphs) < 400:
        d, n = int(rng.integers(2, 10)), int(rng.integers(3, 9))
        eds = [(i, j, int(rng.integers(1, d))) for i, j in itertools.combinations(range(n), 2)]
        g = Multigraph.from_edges(d, n, [e for e in eds if rng.random() < 0.5])
        if is_connected(g):
            graphs.append(g)
    graphs += enumerate_connected_multigraphs(4, 4)
    graphs += enumerate_connected_multigraphs(5, 3)
    certs = [c for c in map(certify_any, graphs) if isinstance(c, Certificate)]
    certs += _pool_certificates(monkeypatch)
    assert len(certs) > 1400
    certs += [_tampered(c, groups=groups) for c in certs for groups in _tampered_layouts(c)]
    certs += [_v1_edited(fixture, lambda obj: None) for fixture in V1_FIXTURES]
    names = ("kappa", "lambda_prime", "fidelity_bound", "method")
    operators = ("s1", "s2", "s3", "s4", "s4_relabeling", "s4_twisted")
    for cert in certs:
        p, ref = cert.proof, reference_proof(cert)
        for name in names:
            assert getattr(p, name) == getattr(ref, name), (cert, name)
        for name, op in zip(operators, proof_operators(cert)):
            assert op == getattr(ref, name), (cert, name)
        passed, overlap = p.witness, p.overlap
        union = p.groups[0] | p.groups[1] | p.groups[2] | p.groups[3]
        ref_passed, ref_union, ref_supports, ref_overlap = reference_witness(cert)
        assert passed == ref_passed, cert
        assert frozenset(checker._named(p.labels, union)) == ref_union
        assert [frozenset(checker._named(p.labels, s)) for s in p.supports] == list(ref_supports)
        assert frozenset(checker._named(p.labels, overlap)) == ref_overlap


# ---------------------------------------------------------------- serialization


def test_json_round_trip_is_byte_identical():
    for g in [
        triangle(2),
        triangle(5, 3),
        Multigraph.from_edges(4, 4, [(0, 1, 1), (1, 2, 3), (2, 3, 2), (0, 3, 1)]),
    ]:
        res = certify_any(g)
        assert isinstance(res, Certificate)
        text = certificate_to_json(res)
        back = certificate_from_json(text)
        assert back == res
        assert certificate_to_json(back) == text


def test_json_schema_shape():
    cert = certify_any(triangle(2))
    obj = certificate_to_json_obj(cert)
    assert obj == {
        "version": 2,
        "graph": {"d": 2, "n": 3, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]},
        "lc_path": [],
        "groups": [["2"], ["1"], ["0"], []],
        "S1": [1, 1, 0],
        "S2": [1, 0, 1],
        "S4": [0, 0, 1],
    }
    assert list(obj) == ["version", "graph", "lc_path", "groups", "S1", "S2", "S4"]


def test_malformed_certificates_rejected():
    with pytest.raises(StructureError):
        certificate_from_json("not json at all")
    with pytest.raises(StructureError):
        certificate_from_json("{}")
    cert = certify_any(triangle(2))
    for field in ("S4", "groups"):
        obj = certificate_to_json_obj(cert)
        del obj[field]
        with pytest.raises(StructureError):
            certificate_from_json(json.dumps(obj))
    with pytest.raises(StructureError):
        _v1_edited(V1_FIXTURES[0], lambda obj: obj.pop("kappa"))
    for label in (2, 2.5, None):
        with pytest.raises(StructureError):
            _v1_edited(V1_FIXTURES[0], _set("operators", "S4", "factorization", 0, 0, label))


@pytest.mark.parametrize(
    "edit",
    [
        _set("groups", "G5", ["0"]),
        _set("operators", "S5", {"phase_exp": 0, "sites": {}, "factorization": []}),
        _set("note", "unchecked"),
    ],
    ids=["fifth_group", "fifth_operator", "unknown_field"],
)
def test_earlier_form_refuses_fields_it_never_checks(edit):
    """The earlier-form reader takes exactly the fields of its form: a group
    other than G1..G4, an operator other than S1..S4 and S4prime_relabel, or
    another top-level field raises StructureError, where verify_obs3 would
    pass a certificate whose extra field nothing checks."""
    for fixture in V1_FIXTURES:
        assert verify_obs3(_v1_edited(fixture, lambda obj: None)).all_passed
        with pytest.raises(StructureError, match="malformed certificate object: fields"):
            _v1_edited(fixture, edit)


def test_certificate_refuses_unknown_graph_key():
    """A version-2 certificate whose graph holds a key other than d, n and
    edges is refused: no check reads it, so it would otherwise verify."""
    obj = certificate_to_json_obj(certify_any(Multigraph.from_text("3 4\n0 1 1\n1 2 2\n2 3 1")))
    assert verify_obs3(certificate_from_json_obj(obj)).all_passed
    obj["graph"]["note"] = "x"
    with pytest.raises(StructureError, match="graph object has keys other than d, n, edges"):
        certificate_from_json_obj(obj)


def test_earlier_form_refuses_unknown_graph_key():
    """The earlier-form reader refuses the same graph key, on every fixture."""
    for fixture in V1_FIXTURES:
        with pytest.raises(StructureError, match="graph object has keys other than d, n, edges"):
            _v1_edited(fixture, _set("graph", "note", "x"))


def test_certificate_reads_proof_fields_as_properties():
    """Each Proof field that Certificate does not store is a read-only
    property equal to the Proof's; ``groups`` stays the stored labels,
    an unknown name still raises AttributeError, and the stored fields are
    the dataclass's only fields."""
    cert = certify_any(triangle(3))
    derived = [name for name in checker.Proof._fields if name != "groups"]
    assert derived and all(getattr(cert, name) == getattr(cert.proof, name) for name in derived)
    props = [getattr(Certificate, name) for name in derived]
    assert all(isinstance(prop, property) and prop.fset is None for prop in props)
    # the stored labels, not the Proof's bitmasks
    assert cert.groups == (("2",), ("1",), ("0",), ()) and cert.proof.groups == [4, 2, 1, 0]
    with pytest.raises(AttributeError):
        cert.no_such_field
    stored = ["graph", "lc_path", "groups", "e1", "e2", "e4", "claims"]
    assert [f.name for f in dataclasses.fields(Certificate)] == stored


# ---------------------------------------------------------------- tallies


def test_exhaustive_table_3_3():
    report = exhaustive_table(3, 3)
    assert report.total == 7
    assert report.certified == 7
    assert report.all_certified
    assert report.complete
    assert dict(report.methods) == {"obs1": 4, "obs4": 3}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_exhaustive_table_two_vertices(d):
    """The single edge of each multiplicity is its own class, and none can
    certify."""
    report = exhaustive_table(2, d)
    assert report.total == class_count(2, d) == d - 1
    assert (report.certified, report.complete, report.examined) == (0, True, d)
    assert all(res.reasons == ("fewer than three vertices",) for res in report.uncertified)


def reference_table(n, d, budget=DEFAULT_ENUMERATION_BUDGET, orbit_cap=4096):
    """The table assembled one class at a time from certify_any, with the
    rejections summed over the refusals of each failing direct attempt (an
    orbit cap of 1 keeps certify_any to that attempt)."""
    graphs = []
    complete, examined = True, d ** (n * (n - 1) // 2)
    try:
        graphs.extend(enumerate_connected_multigraphs(n, d, budget=budget))
    except EnumerationOverflow as exc:
        complete, examined = False, exc.examined
    methods, rejections, uncertified = Counter(), Counter(), []
    for g in graphs:
        direct = certify_any(g, orbit_cap=1)
        if isinstance(direct, NotCertified):
            rejections.update(dict(direct.rejections))
        res = certify_any(g, orbit_cap)
        if isinstance(res, Certificate):
            methods[res.method + ("+lc" if res.lc_path else "")] += 1
        else:
            uncertified.append(res)
    return TableReport(
        n=n,
        d=d,
        total=len(graphs),
        expected=class_count(n, d),
        certified=len(graphs) - len(uncertified),
        methods=tuple(sorted(methods.items())),
        uncertified=tuple(uncertified),
        complete=complete,
        examined=examined,
        rejections=tuple((kind, rejections[kind]) for kind in REJECTION_KINDS),
    )


TABLE_CELLS = [  # n, d, enumeration budget, orbit cap; None keeps the default
    (3, 3, None, None),
    (3, 6, None, None),
    (4, 3, None, None),
    (4, 4, None, None),
    (5, 3, None, None),
    (5, 4, None, None),
    (5, 3, 100, None),
    (4, 3, 400, None),  # one walk stops at a class outside the cut cell, by obs1
    (4, 6, 4665, None),  # its walks leave the budget-cut cell: 25 classes filled one by one
    (4, 4, None, 1),
    (4, 8, None, 2),
    # both sides of sum_{i <= D} n^i for D = 1 and 2: the deepest distance
    # at which the labels decide a class without a walk
    (4, 4, None, 4),
    (4, 4, None, 5),
    (4, 4, None, 20),
    (4, 4, None, 21),
    (5, 3, None, 5),
    (5, 3, None, 6),
    (5, 3, None, 30),
    (5, 3, None, 31),
    # the row dtype's bounds: paths (0, a, b) with a <= 16.  Rows are uint8
    # up to d = 256, uint16 at 257; fill's images are int16 up to d = 181,
    # int32 from 182; at d = 256 a zero read as d would wrap to 0 in uint8
    (3, 181, 181 * 17, None),
    (3, 182, 182 * 17, None),
    (3, 255, 255 * 17, None),
    (3, 256, 256 * 17, None),
    (3, 257, 257 * 17, None),
    # _orbit_walks' depth is 127 at cap 3^128, int8 labels, and 128 at 3^129
    (3, 6, None, 3**128),
    (3, 6, None, 3**129),
    # the first d of each witness dtype, the narrowest that holds
    # 2n(d - 1)^2 + 4d: int16 at (4,5), (5,5) and (3,6) above; int32 at
    # (3,75), (4,65) and (5,59); int64 at (3,18920), out of reach of n = 4
    # and 5 (d^(n choose 2) < 2^62)
    (4, 5, None, None),
    (5, 5, 25_000, None),
    (3, 75, 75 * 17, None),
    (4, 65, 65**3 + 2 * 65**2, None),
    (5, 59, 59**6 + 59**3 + 2 * 59**2, None),
    (3, 18920, 18920 + 1000, None),
]


@pytest.mark.parametrize(
    "n,d,budget,orbit_cap",
    TABLE_CELLS,
    ids=[f"{n}-{d}-{b}" + (f"-cap{c}" if c else "") for n, d, b, c in TABLE_CELLS],
)
def test_exhaustive_table_matches_certify_any(n, d, budget, orbit_cap):
    kwargs = {} if budget is None else {"budget": budget}
    if orbit_cap is not None:
        kwargs["orbit_cap"] = orbit_cap
    report = exhaustive_table(n, d, **kwargs)
    assert report == reference_table(n, d, **kwargs)
    if (n, d, budget) == (5, 4, None):
        assert dict(report.rejections) == {
            "non_constant": 3851,
            "t_abc": 157416,
            "apex": 71520,
            "m_tilde_zero": 336,
        }


@pytest.mark.parametrize(
    "d,dtype",
    [(181, np.uint8), (182, np.uint8), (255, np.uint8), (256, np.uint8), (257, np.uint16),
     (65537, np.uint32)],
)
def test_table_rows_take_the_narrowest_dtype(d, dtype):
    """The sweep's rows and the class store's, appended classes included,
    are in the narrowest unsigned dtype holding d - 1; fill forms the
    largest entry an LC image can take, (d - 1) + (d - 1)^2, without
    overflow: on the triangle of weights w = d - 1, LC at 0 gives the path
    (0, w, w), a class the store lacks."""
    chunks = []
    with pytest.raises(EnumerationOverflow):
        chunks.extend(_canonical_rows(3, d, d * 3))
    assert chunks and {rows.dtype for rows in chunks} == {np.dtype(dtype)}
    w = d - 1
    classes = _LCClasses(3, d, np.array([[w, w, w]], dtype), np.zeros(1, np.int8))
    classes.fill([0])
    assert classes.rows.dtype == dtype
    assert classes.rows.tolist() == [[w, w, w], [0, w, w]]
    assert classes.succ[classes.slot[0]].tolist() == [1, 1, 1]


@pytest.mark.parametrize(
    "n,d,dtype",
    [(3, 5, np.int8), (3, 6, np.int16), (3, 74, np.int16), (3, 75, np.int32),
     (3, 18919, np.int32), (3, 18920, np.int64), (4, 4, np.int8), (4, 5, np.int16),
     (4, 64, np.int16), (4, 65, np.int32), (5, 4, np.int8), (5, 5, np.int16),
     (5, 58, np.int16), (5, 59, np.int32)],
)
def test_witness_stage_takes_the_narrowest_dtype(n, d, dtype):
    """The direct pass builds S1..S4 in the narrowest signed dtype that holds
    2n(d - 1)^2 + 4d, the largest sum _product or _symplectic forms on
    them, on both sides of each widening: here on the path of weights
    d - 1, whose obs1 witness checks."""
    row = [[d - 1 if j == i + 1 else 0 for i in range(n) for j in range(i + 1, n)]]
    direct = _direct_block(np.array(row, _row_dtype(d)), n, d)
    assert direct.construction.tolist() == [1]
    assert direct.x.dtype == direct.z.dtype == dtype


def test_direct_pass_operators_equal_certify_any():
    """The array witnesses of the (4,4) classes that certify directly are the
    operators, groups and exponent vectors of the certificates certify_any
    emits (their PauliOperator forms by tests/certify_reference.py)."""
    graphs = list(enumerate_connected_multigraphs(4, 4))
    direct = _direct_block(triu_rows(graphs), 4, 4)
    assert np.count_nonzero(direct.construction) == len(direct.triple) == 185
    certified = [g for g, code in zip(graphs, direct.construction) if code]
    construction = direct.construction[direct.construction > 0]
    for k, g in enumerate(certified):
        cert = certify_any(g)
        assert cert.lc_path == ()
        assert cert.method == ("obs4" if construction[k] == 2 else "obs1")
        assert [cert.e1, cert.e2, cert.e4] == list(map(tuple, direct.x[k, [0, 1, 3]].tolist()))
        masks = [sum(1 << int(v) for v in grp) for grp in cert.groups]
        assert masks == direct.groups[k].tolist()
        ref = reference_proof(cert)
        for i, w in enumerate((ref.s1, ref.s2, ref.s3, ref.s4)):
            sites = {
                str(v): (int(direct.x[k, i, v]), int(direct.z[k, i, v])) for v in range(g.n)
            }
            op = PauliOperator.from_sites(4, sites, int(direct.phase[k, i]))
            assert op == w, (g, i)
    failing = [g for g, code in zip(graphs, direct.construction) if not code]
    assert all(_certify_direct(g, (), g) is None for g in failing)


def triu_rows(graphs):
    """The upper-triangle rows of labeled graphs, in canonical_form's order."""
    return np.array([[m for i, row in enumerate(g.mult) for m in row[i + 1 :]] for g in graphs])


def _cell_rows(n, d, budget=DEFAULT_ENUMERATION_BUDGET):
    """The canonical rows of a cell, up to its budget."""
    chunks = []
    try:
        chunks.extend(_canonical_rows(n, d, budget))
    except EnumerationOverflow:
        pass
    return np.concatenate(chunks)


@pytest.mark.parametrize("n,d", [(4, 4), (4, 5), (5, 3), (4, 8)])
def test_orbit_walks_land_on_certify_any_members(n, d):
    """For every class the table rescues, its exact walk over class indices
    stops at the path certify_any finds, with the construction certify_any
    uses."""
    rows = _cell_rows(n, d)
    direct = _direct_pass(rows, n, d)
    outcome, walks = reference_orbit_walks(_LCClasses(n, d, rows, direct.construction), 4096)
    rescued = [w for w in walks if w.path is not None]
    assert [w.start for w in walks] == np.flatnonzero(direct.construction == 0).tolist()
    assert len(rescued) > 0
    assert [o == 0 for o in outcome.tolist()] == [w.path is None for w in walks]
    for walk, construction in zip(walks, outcome.tolist()):
        if walk.path is None:
            continue
        cert = certify_any(from_triu_vector(d, n, rows[walk.start].tolist()))
        assert cert.lc_path == walk.path
        assert cert.method == ("obs4" if construction == 2 else "obs1")


@pytest.mark.parametrize(
    "n,d,budget",
    [(4, 4, None), (4, 5, None), (5, 3, None), (4, 8, None), (5, 4, None), (4, 3, 400),
     (4, 6, 4665), (4, 6, 16000)],
)
def test_orbit_labels_agree_with_exact_walks(n, d, budget):
    """The distance labels give every failing class the outcome of its exact
    walk: rescued or not, and by which construction; the classes they leave
    undecided walk as before.  The budget-cut cells reach classes outside
    the cell; at budget 16000 labels from one fill round, without the
    failing classes it appends, would mislabel three classes."""
    rows = _cell_rows(n, d, budget or DEFAULT_ENUMERATION_BUDGET)
    direct = _direct_pass(rows, n, d)
    outcome, walks = _orbit_walks(_LCClasses(n, d, rows, direct.construction), 4096)
    want, exact = reference_orbit_walks(_LCClasses(n, d, rows, direct.construction), 4096)
    assert outcome.tolist() == want.tolist()
    walked = {w.start for w in walks}
    assert walks == [w for w in exact if w.start in walked]
    assert len(walks) < len(exact)


@pytest.mark.parametrize("block", [_PASS_BLOCK, 3])
@pytest.mark.parametrize(
    "n,d,budget", [(5, 4, None), (5, 3, None), (4, 8, None), (4, 5, None), (4, 6, 16000)]
)
def test_orbit_labels_match_the_whole_array_loop(monkeypatch, n, d, budget, block):
    """_orbit_walks sets its labels one block of failing classes at a time
    and ORs ``cons`` only over steps at level - 1: a class labelled by an
    earlier block of the same level reads that level, and its ``cons`` is
    already set.  So at any block it gives the outcome and the list of exact
    walks of the whole-array loop (tests/walk_reference.py).  An OR over
    every step changes no outcome but sends more classes to an exact walk
    (at (5,4), 41 instead of 37 at the default block, 93 at block 3)."""
    rows = _cell_rows(n, d, budget or DEFAULT_ENUMERATION_BUDGET)
    construction = _direct_pass(rows, n, d).construction
    want, exact = reference_labelled_walks(_LCClasses(n, d, rows, construction), 4096)
    monkeypatch.setattr(certify, "_PASS_BLOCK", block)
    outcome, walks = _orbit_walks(_LCClasses(n, d, rows, construction), 4096)
    assert outcome.tolist() == want.tolist()
    assert walks == exact


@pytest.mark.parametrize("n,d", [(4, 4), (5, 3), (4, 8)])
def test_direct_pass_outcome_is_a_class_invariant(n, d):
    """Relabeling a graph leaves its direct attempt's outcome, rejection
    counts and construction unchanged, so the table checks one witness per
    class and no labeled orbit member."""
    rows = _cell_rows(n, d)
    reps = triu_to_matrices(rows, n)
    want = _direct_block(rows, n, d)
    rng = np.random.default_rng(7)
    iu, ju = np.triu_indices(n, 1)
    for _ in range(3):
        perms = np.array([rng.permutation(n) for _ in range(len(reps))])
        sel = np.arange(len(reps))[:, None, None]
        mats = reps[sel, perms[:, :, None], perms[:, None, :]]
        got = _direct_block(mats[:, iu, ju], n, d)
        assert (got.construction == want.construction).all()
        assert (got.rejections == want.rejections).all()


def test_mirror_triples_read_alike():
    """The mirror lemma of _direct_pass on Python ints: validity, both
    _blocked flags and whether m_tilde is 0 are equal at (a, b, c) and
    (a, c, b)."""
    rng = np.random.default_rng(43)
    mirrored = 0
    for _ in range(300):
        d = int(rng.integers(2, 10))
        n = int(rng.integers(3, 9))
        eds = [
            (i, j, int(rng.integers(1, d)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        g = Multigraph.from_edges(d, n, eds)
        nb, mult = _neighbor_masks(g), g.mult

        def read(a, b, c):
            m_ab, m_bc, m_ca = mult[a][b], mult[b][c], mult[c][a]
            h = math.gcd(m_ab, m_bc, m_ca) or 1
            flags = (*_blocked(m_bc, nb[a], nb[b], nb[c], b, c), _m_tilde(m_ab, m_ca, h, d) == 0)
            return bool(m_ab and m_ca), tuple(bool(f) for f in flags)

        for a, b, c in itertools.permutations(range(n), 3):
            if b < c:
                assert read(a, b, c) == read(a, c, b), (g, a, b, c)
                mirrored += read(a, b, c)[0]
    assert mirrored > 1000


@pytest.mark.parametrize("n,d", [(4, 4), (5, 3), (4, 8)])
def test_direct_pass_triple_is_certify_direct_triple(n, d, monkeypatch):
    """On every class that certifies directly, the triple _direct_pass picks
    is the one _certify_direct picks, both among the triples with b < c, and
    the first usable one among all ordered triples."""
    picked, first = [], []
    build = certify._build_certificate

    def record(graph, lc_path, certified, triple, general, nb):
        picked.append(triple)
        return build(graph, lc_path, certified, triple, general, nb)

    monkeypatch.setattr(certify, "_build_certificate", record)
    rows = _cell_rows(n, d)
    direct = _direct_block(rows, n, d)
    for k in np.flatnonzero(direct.construction).tolist():
        g = from_triu_vector(d, n, rows[k].tolist())
        assert _certify_direct(g, (), g) is not None
        nb, general = _neighbor_masks(g), direct.construction[k] == 2
        usable = (t for t in _angles(g) if not (general and any(_triple_flags(g, nb, *t)[1])))
        first.append(next(usable))
    assert len(picked) == len(direct.triple) > 0
    assert picked == first
    assert direct.triple.tolist() == [list(t) for t in picked]
    assert (direct.triple[:, 1] < direct.triple[:, 2]).all()


def test_hoisted_scan_picks_the_rule_triple(monkeypatch):
    """_certify_direct's scan with weights not constant, which forms
    nb_a & nb_b once per (a, b), builds at the rule's triple: the first
    ordered triple with b < c whose _triple_flags are all clear, or at none.
    On every class of (4,4), (5,3) and (3,6), 400 seeded random graphs
    (n 3..12, d 2..9), and the certify_verify pool with the orbit members
    its walks visit."""
    cells = [(4, 4), (5, 3), (3, 6)]
    graphs = [g for cell in cells for g in enumerate_connected_multigraphs(*cell)]
    rng = np.random.default_rng(43)
    for _ in range(400):
        n, d = int(rng.integers(3, 13)), int(rng.integers(2, 10))
        eds = [(i, j, int(rng.integers(1, d))) for i, j in itertools.combinations(range(n), 2)
               if rng.random() < 0.5]
        graphs.append(Multigraph.from_edges(d, n, eds))
    for g in _pool_graphs(monkeypatch):
        graphs.extend(lc_orbit(g, 16).graphs if _certify_direct(g, (), g) is None else [g])
    monkeypatch.setattr(certify, "_build_certificate", lambda *args: args[3])
    found = Counter()
    for g in filter(checker._general, graphs):
        nb = _neighbor_masks(g)
        rule = (t for t in _angles(g) if t[1] < t[2] and not any(_triple_flags(g, nb, *t)[1]))
        triple = next(rule, None)
        assert _certify_direct(g, (), g, nb) == triple, g
        found[triple is None] += 1
    assert min(found.values()) > 300


@pytest.mark.parametrize("n,d", [(3, 6), (5, 4)])
def test_table_refusals_give_the_reference_reasons(n, d):
    """Every refusal of the cell states, line by line, the partition
    reference's reasons for its class, as certify_any on the class does."""
    report = exhaustive_table(n, d)
    assert len(report.uncertified) == 2
    for res in report.uncertified:
        note = res.reasons[-1]
        assert res.reasons[:-1] == tuple(line for _, line in reference_direct_reasons(res.graph))
        assert certify_any(res.graph).reasons == res.reasons and note.startswith("all 1 graphs")


@pytest.mark.parametrize("n,d", [(4, 4), (5, 3)])
def test_witness_rule_on_arrays_matches_it_on_proofs(n, d):
    """_witness on a block's arrays gives, row by row, the flags, overlap
    and kappa it gives on that row's Proof: over every class of the cell
    that certifies directly, with its own groups and with each of the five
    tampered layouts of _tampered_layouts."""
    rows = _cell_rows(n, d)
    direct = _direct_block(rows, n, d)
    hits = rows[direct.construction > 0].tolist()
    certs = [certify_any(from_triu_vector(d, n, row)) for row in hits]
    xs, zs = direct.x.transpose(1, 2, 0), direct.z.transpose(1, 2, 0)
    supports = list(map(_support, xs, zs))
    layouts = [[cert.groups, *_tampered_layouts(cert)] for cert in certs]
    failing = np.zeros(4, dtype=int)
    for j in range(6):
        proofs = [_tampered(cert, groups=groups[j]).proof for cert, groups in zip(certs, layouts)]
        assert np.array_equal([p.x for p in proofs], direct.x)
        assert np.array_equal([p.z for p in proofs], direct.z)
        assert [p.supports for p in proofs] == list(zip(*(s.tolist() for s in supports)))
        groups = np.array([p.groups for p in proofs])
        passed, overlap, kappa = _witness(d, xs, zs, supports, groups.T)
        assert list(zip(*(flag.tolist() for flag in passed))) == [p.witness for p in proofs]
        assert overlap.tolist() == [p.overlap for p in proofs]
        assert kappa.tolist() == [p.kappa for p in proofs]
        failing += [np.count_nonzero(~flag) for flag in passed]
    # the layouts fail every condition but commute, which no grouping changes
    assert failing[1] == 0 and failing[[0, 2, 3]].all(), failing


def test_direct_pass_checks_reject_tampered_witnesses():
    graphs = list(enumerate_connected_multigraphs(4, 3))
    direct = _direct_block(triu_rows(graphs), 4, 3)
    expected = np.array(
        [cert.kappa for cert in (certify_any(g) for g, c in zip(graphs, direct.construction) if c)]
    )
    args = dict(
        d=3,
        x=direct.x,
        z=direct.z,
        phase=direct.phase,
        groups=direct.groups,
        general=direct.construction[direct.construction > 0] == 2,
        expected_kappa=expected,
    )
    _check_witnesses(**args)
    phase = direct.phase.copy()
    phase[0, 2] = (phase[0, 2] + 2) % 6
    with pytest.raises(StructureError, match="not exactly S1 S2"):
        _check_witnesses(**{**args, "phase": phase})
    groups = direct.groups.copy()
    groups[0, 3] = 0b1111
    with pytest.raises(StructureError, match="failed groups_partition, supports$"):
        _check_witnesses(**{**args, "groups": groups})
    s4_is_s3 = [0, 1, 2, 2]
    with pytest.raises(StructureError, match="failed groups_partition, kappa$"):
        _check_witnesses(
            **{
                **args,
                "x": direct.x[:, s4_is_s3],
                "z": direct.z[:, s4_is_s3],
                "groups": np.zeros_like(direct.groups),
            }
        )
    with pytest.raises(StructureError, match="kappa differs"):
        _check_witnesses(**{**args, "expected_kappa": expected + 1})
    # row 0 becomes S1 = Z_v, S2 = X_v, S3 = S1 S2 = tau^2 X_v Z_v: exact, not
    # commuting; v = 0 is group 1, so S1 meets it and S3 meets no relabeled S4
    x, z, phase = direct.x.copy(), direct.z.copy(), direct.phase.copy()
    x[0, :3], z[0, :3], phase[0, :3] = 0, 0, (0, 0, 2)
    z[0, 0, 0] = x[0, 1, 0] = x[0, 2, 0] = z[0, 2, 0] = 1
    with pytest.raises(StructureError, match="failed commute, supports, kappa$"):
        _check_witnesses(**{**args, "x": x, "z": z, "phase": phase})
    # without group 2 the groups no longer partition, and S3, S4 overlap in no group
    groups = direct.groups.copy()
    groups[:, 1] = 0
    with pytest.raises(StructureError, match="failed groups_partition, kappa$"):
        _check_witnesses(**{**args, "groups": groups})
    # one vertex dropped from each nonempty group 4: only the partition fails
    groups = direct.groups.copy()
    assert groups[:, 3].any()
    groups[:, 3] &= groups[:, 3] - 1
    with pytest.raises(StructureError, match="failed groups_partition$"):
        _check_witnesses(**{**args, "groups": groups})


def test_direct_pass_memory_is_bounded_per_block():
    """_direct_pass keeps only the outcome per class and drops each block's
    witnesses once checked: on (5,5) at budget 10M (88,985 classes, 44
    blocks) its traced peak stays below twice its peak on one block."""
    rows = _cell_rows(5, 5, 10_000_000)
    assert len(rows) > 40 * _PASS_BLOCK
    peaks = []
    tracemalloc.start()
    try:
        for part in (rows[:_PASS_BLOCK], rows):
            tracemalloc.reset_peak()
            _direct_pass(part, 5, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def test_class_store_memory_per_class():
    """The class store keeps its steps and outcomes as arrays, no Python
    object per class, and steps only for the classes it fills: on (5,5) at
    budget 10M (88,985 classes) the store and the steps of its failing
    classes retain under 36 bytes per class (42 with a step row for every
    class)."""
    rows = _cell_rows(5, 5, 10_000_000)
    direct = _direct_pass(rows, 5, 5)
    failing = np.flatnonzero(direct.construction == 0)
    assert len(failing) > 0
    tracemalloc.start()
    try:
        classes = _LCClasses(5, 5, rows, direct.construction)
        classes.fill(failing)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (classes.succ[classes.slot[failing]] >= 0).all()
    assert retained < 36 * len(rows), retained / len(rows)


def test_class_store_fill_memory_is_bounded_per_block():
    """fill keys, looks up and stores one _PASS_BLOCK of classes at a time:
    over the failing classes of (5,5) at budget 10M (21 blocks) its traced
    peak, less the step rows it stores, stays below twice its peak on their
    first block."""
    rows = _cell_rows(5, 5, 10_000_000)
    direct = _direct_pass(rows, 5, 5)
    failing = np.flatnonzero(direct.construction == 0)
    assert len(failing) > 20 * _PASS_BLOCK
    parts = (failing[:_PASS_BLOCK], failing)
    stores = [_LCClasses(5, 5, rows, direct.construction) for _ in parts]
    peaks = []
    tracemalloc.start()
    try:
        for classes, part in zip(stores, parts):
            tracemalloc.reset_peak()
            classes.fill(part)
            stored = classes.succ.nbytes + classes.relabel.nbytes
            peaks.append(tracemalloc.get_traced_memory()[1] - stored)
    finally:
        tracemalloc.stop()
    assert (stores[1].succ[stores[1].slot[failing]] >= 0).all()
    assert peaks[1] < 2 * peaks[0], peaks


def test_orbit_labels_memory_is_bounded_per_block():
    """_orbit_walks gathers the steps of one run of _PASS_BLOCK classes at
    a time and holds no index array over the cell: on (5,5) at budget 10M
    (88,985 classes, 42,896 failing), its store filled beforehand, its
    traced peak stays below 7 bytes per class, about what the labels and
    one run's temporaries take; with int32 indices of the failing classes
    it took 8.8, and gathering every failing class's steps at once 29."""
    rows = _cell_rows(5, 5, 10_000_000)
    classes = _LCClasses(5, 5, rows, _direct_pass(rows, 5, 5).construction)
    reference_labelled_walks(classes, 4096)  # fills the store as _orbit_walks does
    assert len(np.flatnonzero(classes.construction == 0)) > 20 * _PASS_BLOCK
    tracemalloc.start()
    try:
        _orbit_walks(classes, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * len(classes.construction), peak / len(classes.construction)


@pytest.mark.parametrize(
    "n,d,budget,orbit_cap", [(4, 4, None, 4096), (4, 6, 16000, 4096), (4, 6, 4665, 21)]
)
def test_class_store_keeps_one_step_row_per_filled_class(n, d, budget, orbit_cap):
    """The store keeps steps only for the classes it fills, one row each, in
    the order it fills them: after _orbit_walks, ``slot`` maps the filled
    classes one to one onto the step rows, as many as fill was asked for,
    and each row holds its class's steps by local_complement and
    canonical_form.  Both budget-cut cells append classes met outside the
    cell; at cap 21 (depth 2) walks also fill classes late, one by one
    through expand."""
    rows = _cell_rows(n, d, budget or DEFAULT_ENUMERATION_BUDGET)
    classes = _LCClasses(n, d, rows, _direct_pass(rows, n, d).construction)
    asked, late, fill, expand = [], [], classes.fill, classes.expand
    classes.fill = lambda ks: asked.append(len(ks)) or fill(ks)
    classes.expand = lambda state: late.append(classes.slot[state[0]] < 0) or expand(state)
    _orbit_walks(classes, orbit_cap)
    filled = np.flatnonzero(classes.slot >= 0)
    assert len(classes.succ) == len(classes.relabel) == len(filled) == sum(asked)
    assert sorted(classes.slot[filled].tolist()) == list(range(len(filled)))
    assert (len(classes.construction) > len(rows)) == (budget is not None)
    assert any(late) == (orbit_cap == 21)
    for k in filled.tolist():
        rep, at = from_triu_vector(d, n, classes.rows[k].tolist()), classes.slot[k]
        for v, (k2, p) in enumerate(zip(classes.succ[at], classes.relabel[at])):
            image, key = local_complement(rep, v), tuple(classes.rows[k2].tolist())
            assert key == canonical_form(image)
            assert permuted(from_triu_vector(d, n, key), classes.perms[p]) == image


def test_class_store_takes_ascending_rows():
    """The store takes the row order as key order, so rows that do not
    ascend strictly, such as the (4,4) cell reversed, raise StructureError."""
    rows = _cell_rows(4, 4)
    construction = _direct_pass(rows, 4, 4).construction
    _LCClasses(4, 4, rows, construction)
    with pytest.raises(StructureError, match="ascending"):
        _LCClasses(4, 4, rows[::-1], construction[::-1])
    with pytest.raises(StructureError, match="ascending"):
        _LCClasses(4, 4, rows[[0, 0]], construction[[0, 0]])


def _edited(name, edit):
    """(certify, name, f) where f returns edit(result) of certify's original ``name``."""
    original = getattr(certify, name)
    return certify, name, lambda *args: edit(original(*args))


def _with_row(slot, row):
    return lambda rows: tuple(row if k == slot else r for k, r in enumerate(rows))


#: obs1 at triple (0, 1, 2) of this path 2-0-1-3 puts vertex 3 alone in group 4
PATH4 = Multigraph.from_edges(2, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 1)])


@pytest.mark.parametrize(
    "patch, message, g",
    [
        (_edited("_exponent_table", _with_row(2, (1, 1, 1))), "S3 is not exactly S1 S2", None),
        # S1 and S2 are words of an abelian stabilizer group, so only a faked
        # symplectic sum reaches this check
        ((checker, "_symplectic", lambda *args: 1), "failed commute$", None),
        (
            _edited("_group_masks", lambda m: (m[0] | m[1] | m[2] | m[3], 0, 0, 0)),
            "failed supports, kappa$",
            None,
        ),
        (_edited("_exponent_table", _with_row(3, (0, 0, 0))), "failed kappa$", None),
        # the groups no longer partition the vertices, and S3, S4 overlap in no group
        (_edited("_group_masks", _with_row(1, 0)), "failed groups_partition, kappa$", None),
        (_edited("_obs4_weights", lambda w: (2 * w[0], *w[1:])), "kappa differs", None),
        # only the partition fails: every other check holds without vertex 3
        (
            _edited("_group_masks", lambda m: (*m[:3], m[3] & (m[3] - 1))),
            "failed groups_partition$",
            PATH4,
        ),
    ],
    ids=["s3", "commute", "supports", "kappa", "overlap", "kappa_value", "partition"],
)
def test_build_certificate_raises_on_construction_bugs(monkeypatch, patch, message, g):
    """Each construction check of _build_certificate fires on a tampered rule
    (on the obs4 angle unless a graph is given)."""
    g = g or angle(3, 1, 2)
    assert isinstance(certify_any(g), Certificate)
    monkeypatch.setattr(*patch)
    with pytest.raises(StructureError, match=f"^construction bug: {message}"):
        certify_any(g)


def test_exhaustive_table_budget_overflow_marks_incomplete():
    report = exhaustive_table(5, 3, budget=100)
    assert not report.complete
    assert not report.all_certified


def test_exhaustive_table_keeps_enumeration_progress():
    with pytest.raises(EnumerationOverflow) as info:
        list(enumerate_connected_multigraphs(4, 3, budget=400))
    report = exhaustive_table(4, 3, budget=400)
    assert report.complete is False
    assert report.examined == info.value.examined == 400
    assert report.total == info.value.yielded
    full = exhaustive_table(4, 3)
    assert full.complete and full.examined == 3**6
    assert 0 < report.total < full.total


def test_exhaustive_table_skips_ids_with_vertex_0_isolated(monkeypatch):
    """Below d^(N - n + 1) row 0 is all zero, so the sweep keys no id there:
    (8,3) and (8,2) at the default budget of 2M ids, all below 3^21 and
    2^21, report no class without forming one relabeling key, and build no
    key table, neither in the sweep nor in the orbit pass."""

    def no_keys(*args):
        raise AssertionError("keys formed for an id with vertex 0 isolated")

    monkeypatch.setattr(multigraph, "_key_blocks", no_keys)
    for module in (multigraph, certify):
        monkeypatch.setattr(module, "_packed_keys", no_keys)
    for d in (3, 2):
        report = exhaustive_table(8, d)
        assert (report.total, report.complete, report.examined) == (0, False, 2_000_000)


def test_exhaustive_table_refuses_a_huge_n_at_once():
    """n > 8 is refused before 7^(n choose 2) labeled vectors are counted."""
    with pytest.raises(ResourceError, match="n=100000 > 8"):
        exhaustive_table(100000, 7)


def test_exhaustive_table_6x3_complete_and_counted():
    """(6,3) at budget 15M sweeps all 3^15 labeled vectors, and every one of
    its 24,576 classes (Polya count) certifies."""
    report = exhaustive_table(6, 3, budget=15_000_000)
    assert report.complete and report.examined == 3**15
    assert report.total == report.certified == class_count(6, 3) == 24_576
    assert report.all_certified


def test_exhaustive_table_raises_when_enumerator_drops_a_class(monkeypatch):
    """A complete cell whose class total differs from Polya counting is an
    enumerator bug, not a refusal: dropping one canonical row raises."""

    def drop_one(n, d, budget):
        chunks = list(_canonical_rows(n, d, budget))
        chunks[-1] = chunks[-1][:-1]
        yield from chunks

    assert exhaustive_table(4, 3).total == class_count(4, 3)
    monkeypatch.setattr(certify, "_canonical_rows", drop_one)
    with pytest.raises(StructureError, match="enumerator bug"):
        exhaustive_table(4, 3)
    # a budget-cut cell is incomplete, so there is no total to check
    assert exhaustive_table(4, 3, budget=400).complete is False


def test_table_report_expects_the_polya_count():
    """``expected`` is class_count whether or not the budget cuts the cell, so
    a cut cell shows what it missed: (7,2) at the default budget finds 852
    of its 853 classes."""
    report = exhaustive_table(7, 2)
    assert not report.complete
    assert (report.total, report.expected) == (852, 853)
    assert exhaustive_table(4, 3, budget=400).expected == class_count(4, 3)


def test_exhaustive_table_negative_case_d6():
    report = exhaustive_table(3, 6)
    assert report.total == 50
    assert report.complete
    assert report.certified < report.total
    bad = {tuple(sorted(m for _, _, m in edges(nc.graph))) for nc in report.uncertified}
    # the multiplicity-(3, 2) angle is among the failures
    assert (2, 3) in bad
