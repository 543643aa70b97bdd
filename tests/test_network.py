"""The marginal chain in closed form, against the explicit network model.

The model (network_reference: source multisets, marginal reduction, the
cut and doubled inflations) is tested first.  Its property tests pin down
the exact invariance regions the closed form uses: a marginal of an
inflation equals the base marginal precisely when the region avoids both
endpoints of every rewired source.
"""

from collections import Counter

import numpy as np
import pytest

from network_reference import (
    GroupedNetwork,
    Network,
    UnsupportedSource,
    complete_bipartite_network,
    cut_inflation,
    doubled_inflation,
    reduce,
    reduced_equal,
    reference_chain,
)

from netcert import StructureError, ghz_section3_chain, marginal_chain_checks
from netcert.network import prime


def src(*parties: str) -> frozenset[str]:
    return frozenset(parties)


def test_network_make_validation():
    net = Network.make("ABC", [("A", "B"), ("B", "C")])
    assert net.parties == frozenset("ABC")
    assert net.sources == {src("A", "B"): 1, src("B", "C"): 1}
    assert Network.make("AB", [("B", "A"), ("A", "B")]).sources == {src("A", "B"): 2}
    assert Network.make("ABC", [("A", "B"), ("B", "C")]) == Network.make("CBA", ["CB", "BA"])
    with pytest.raises(StructureError):
        Network.make("AB", [()])
    with pytest.raises(StructureError):
        Network.make("AB", [("A", "C")])


def test_complete_bipartite_counts():
    for n in range(2, 7):
        net = complete_bipartite_network([f"P{k}" for k in range(n)])
        assert len(net.sources) == n * (n - 1) // 2
        assert all(len(src) == 2 for src in net.sources)
    with pytest.raises(StructureError):
        complete_bipartite_network(["A"])


def test_reduce_basics():
    net = complete_bipartite_network("ABCD")
    assert reduce(net, "ABCD") == net
    small = reduce(net, "AB")
    # AB survives whole; AC, AD, BC, BD shrink to singletons; CD disappears
    assert small.sources == {src("A", "B"): 1, src("A"): 2, src("B"): 2}
    assert small.parties == frozenset("AB")
    # still a Counter, so a missing source reads 0
    assert isinstance(small.sources, Counter)
    assert small.sources[src("C")] == 0
    assert reduce(net, []).sources == {}
    with pytest.raises(StructureError):
        reduce(net, "AX")


def test_reduced_equal_bijection_validation():
    net = complete_bipartite_network("ABC")
    assert reduced_equal(net, "AB", net, "AB")
    with pytest.raises(StructureError):
        reduced_equal(net, "AB", net, "AB", bijection={"A": "B"})  # not injective
    with pytest.raises(StructureError):
        reduced_equal(net, "AB", net, "BC")  # identity map misses region2


def test_reduced_equal_detects_asymmetric_swap():
    net = Network.make("ABC", [("A", "B"), ("A", "B"), ("B", "C")])
    assert reduced_equal(net, "ABC", net, "ABC")
    swap = {"A": "C", "C": "A"}
    assert not reduced_equal(net, "ABC", net, "ABC", bijection=swap)


def test_reduced_equal_bijection_over_parallel_sources():
    """A bijection must carry each source with its multiplicity."""
    left = Network.make("ABC", ["AB", "AB", "BC", "BC", "BC"])
    right = Network.make("XYZ", ["YZ", "YZ", "XY", "XY", "XY"])
    reverse = {"A": "Z", "B": "Y", "C": "X"}
    assert reduced_equal(left, "ABC", right, "XYZ", reverse)
    assert not reduced_equal(left, "ABC", right, "XYZ", {"A": "X", "B": "Y", "C": "Z"})
    # on a region the cut sources count too: AB twice and B three times
    assert reduced_equal(left, "AB", right, "YZ", reverse)
    assert not reduced_equal(left, "AB", right, "YZ", {"A": "Y", "B": "Z"})
    thinner = Network.make("XYZ", ["YZ", "XY", "XY", "XY"])
    assert not reduced_equal(left, "ABC", thinner, "XYZ", reverse)


@pytest.mark.parametrize("d", range(2, 9))
def test_ghz_chain_premises_unchanged(d):
    """The GHZ chain's four marginal premises, the last under the C -> C'
    relabeling, all hold."""
    names = ("S1 base vs cut", "S2 base vs cut", "S3 cut vs doubled", "S4 base vs doubled")
    assert ghz_section3_chain(d).premises == tuple((name, True) for name in names)


def test_grouped_network_validation():
    base = complete_bipartite_network("ABCD")
    grouping = GroupedNetwork.make(base, ["A", "B", "C", "D"])
    assert grouping.groups == tuple(frozenset(x) for x in "ABCD")
    GroupedNetwork.make(base, ["AB", "C", "D", ""])  # empty group is fine
    with pytest.raises(StructureError):
        GroupedNetwork.make(base, ["AB", "C", "D"])
    with pytest.raises(StructureError):
        GroupedNetwork.make(base, ["AB", "BC", "D", ""])  # overlap
    with pytest.raises(StructureError):
        GroupedNetwork.make(base, ["AB", "C", "", ""])  # D missing


def test_gamma_inflation_cuts_exactly_the_crossing_sources():
    base = complete_bipartite_network("ABCD")
    grouping = GroupedNetwork.make(base, ["A", "B", "C", "D"])
    net = cut_inflation(grouping)
    assert net.parties == frozenset("ABCD")
    assert net.sources == {
        src("A"): 1,
        src("B"): 1,
        src("A", "C"): 1,
        src("A", "D"): 1,
        src("B", "C"): 1,
        src("B", "D"): 1,
        src("C", "D"): 1,
    }


def test_eta_inflation_doubles_group_one():
    base = complete_bipartite_network("ABCD")
    grouping = GroupedNetwork.make(base, ["A", "B", "C", "D"])
    net = doubled_inflation(grouping)
    assert net.parties == frozenset("ABCD") | {"A'"}
    assert net.sources == {
        src("A"): 2,  # left behind by the rewired AB and AC sources
        src("A'"): 1,  # spectator copy for the AD source
        src("A'", "B"): 1,
        src("A'", "C"): 1,
        src("A", "D"): 1,
        src("B", "C"): 1,
        src("B", "D"): 1,
        src("C", "D"): 1,
    }


def test_eta_duplicates_internal_sources():
    base = complete_bipartite_network("ABC")
    grouping = GroupedNetwork.make(base, ["AB", "C", "", ""])
    counts = doubled_inflation(grouping).sources
    assert counts[src("A", "B")] == 1 and counts[src("A'", "B'")] == 1


def test_unsupported_sources():
    base = Network.make("ABC", [("A", "B", "C")])
    tri = GroupedNetwork.make(base, ["A", "B", "C", ""])
    with pytest.raises(UnsupportedSource):
        cut_inflation(tri)
    with pytest.raises(UnsupportedSource):
        doubled_inflation(tri)
    # a three-party source is fine if it stays clear of the rewiring
    safe_gamma = GroupedNetwork.make(base, ["", "A", "B", "C"])
    assert cut_inflation(safe_gamma) == base
    inside = GroupedNetwork.make(base, ["ABC", "", "", ""])
    assert doubled_inflation(inside).sources[src("A'", "B'", "C'")] == 1


def _random_grouping(rng, parties):
    while True:
        groups = [[], [], [], []]
        for p in parties:
            groups[int(rng.integers(4))].append(p)
        if groups[0]:
            return groups


def test_gamma_marginal_invariance_is_exact():
    """reduce(base, R) == reduce(gamma, R) iff R holds no full group1-group2 source."""
    rng = np.random.default_rng(21)
    parties = [f"P{k}" for k in range(6)]
    base = complete_bipartite_network(parties)
    for _ in range(150):
        groups = _random_grouping(rng, parties)
        grouping = GroupedNetwork.make(base, groups)
        net = cut_inflation(grouping)
        region = [p for p in parties if rng.random() < 0.6]
        bad = any(u in region and v in region for u in groups[0] for v in groups[1])
        assert reduced_equal(base, region, net, region) == (not bad)


def test_eta_vs_gamma_marginal_invariance_is_exact():
    """Unprimed marginals of the two inflations agree iff R holds no full
    group1-group3 source."""
    rng = np.random.default_rng(22)
    parties = [f"P{k}" for k in range(6)]
    base = complete_bipartite_network(parties)
    for _ in range(150):
        groups = _random_grouping(rng, parties)
        grouping = GroupedNetwork.make(base, groups)
        gamma_net = cut_inflation(grouping)
        eta_net = doubled_inflation(grouping)
        region = [p for p in parties if rng.random() < 0.6]
        bad = any(u in region and v in region for u in groups[0] for v in groups[2])
        assert reduced_equal(gamma_net, region, eta_net, region) == (not bad)


def test_eta_vs_base_primed_marginal_invariance_is_exact():
    """After priming the group-1 part of R, the doubled network's marginal
    matches the base iff R holds no full group1-group4 source."""
    rng = np.random.default_rng(23)
    parties = [f"P{k}" for k in range(6)]
    base = complete_bipartite_network(parties)
    for _ in range(150):
        groups = _random_grouping(rng, parties)
        grouping = GroupedNetwork.make(base, groups)
        eta_net = doubled_inflation(grouping)
        region = [p for p in parties if rng.random() < 0.6]
        sigma = {p: prime(p) for p in region if p in groups[0]}
        primed_region = [sigma.get(p, p) for p in region]
        bad = any(u in region and v in region for u in groups[0] for v in groups[3])
        assert reduced_equal(base, region, eta_net, primed_region, sigma) == (not bad)


def test_marginal_chain_checks_pass_for_compliant_supports():
    parties = "ABCD"
    groups = ["B", "C", "A", "D"]
    checks = marginal_chain_checks(
        parties,
        groups,
        support1="ACD",  # avoids group 1
        support2="ABD",  # avoids group 2
        support3="BCD",  # avoids group 3
        support4="ABC",  # avoids group 4
    )
    assert [name for name, _ in checks] == [
        "S1 base vs cut",
        "S2 base vs cut",
        "S3 cut vs doubled",
        "S4 base vs doubled",
    ]
    assert all(ok for _, ok in checks)


def test_marginal_chain_checks_fail_for_violating_support():
    checks = marginal_chain_checks(
        "ABCD",
        ["B", "C", "A", "D"],
        support1="BCD",  # touches group 1 and group 2 together: sees the cut
        support2="ABD",
        support3="BCD",
        support4="ABC",
    )
    results = dict(checks)
    assert not results["S1 base vs cut"]
    assert results["S2 base vs cut"]


def _outcome(chain, *args):
    try:
        return chain(*args)
    except StructureError as exc:
        return type(exc), str(exc)


def _random_chain_input(rng):
    """Parties P0..P{n-1} (2 to 8 of them, or fewer), four groups that may be
    empty, and four supports; a third of the draws carry one or more of the
    faults marginal_chain_checks raises on."""
    n = int(rng.integers(2, 9))
    parties = [f"P{k}" for k in range(n)]
    groups = [[], [], [], []]
    for p in parties:
        groups[int(rng.integers(4))].append(p)
    supports = [[p for p in parties if rng.random() < 0.5] for _ in range(4)]
    if rng.random() < 1 / 3:
        for _ in range(int(rng.integers(1, 4))):
            fault = int(rng.integers(6))
            if fault == 0:
                parties = parties[: int(rng.integers(2))]
            elif fault == 1:
                groups = groups[:3] if rng.random() < 0.5 else groups + [[]]
            elif fault == 2:
                groups[int(rng.integers(len(groups)))].append(parties[0] if parties else "P0")
            elif fault == 3:
                groups[int(rng.integers(len(groups)))].append("X")
            elif fault == 4 and len(parties) > 1:
                for grp in groups:
                    if parties[-1] in grp:
                        grp.remove(parties[-1])
            else:
                supports[int(rng.integers(4))].append("X")
    return parties, groups, *supports


def test_closed_form_matches_reference_chain():
    """The closed form gives the explicit networks' answer on random inputs
    with 2 to 8 parties, and the same StructureError on every faulty one."""
    rng = np.random.default_rng(31)
    raised = Counter()
    for _ in range(2500):
        args = _random_chain_input(rng)
        expected = _outcome(reference_chain, *args)
        assert _outcome(marginal_chain_checks, *args) == expected, args
        if isinstance(expected, tuple):
            raised[expected[1].split(" [")[0]] += 1
    assert set(raised) == {
        "need at least two parties",
        "need exactly four groups",
        "groups must partition the parties",
        "region",
    }


@pytest.mark.parametrize(
    "args, message",
    [
        (("A", ["A", "", "", ""], "", "", "", ""), "need at least two parties"),
        (("AB", ["A", "B", ""], "", "", "", ""), "need exactly four groups"),
        (("AB", ["A", "B", "", "", ""], "", "", "", ""), "need exactly four groups"),
        (("AB", ["A", "AB", "", ""], "", "", "", ""), "groups must partition the parties"),
        (("ABC", ["A", "B", "", ""], "", "", "", ""), "groups must partition the parties"),
        (("AB", ["A", "B", "X", ""], "", "", "", ""), "groups must partition the parties"),
        (("AB", ["A", "B", "", ""], "A", "B", "AX", "XA"), "region ['A', 'X'] not within parties"),
        (("AB", ["A", "B", "", ""], "A", "B", "A", "BX"), "region ['B', 'X'] not within parties"),
    ],
)
def test_closed_form_raises_as_reference_chain(args, message):
    for chain in (marginal_chain_checks, reference_chain):
        with pytest.raises(StructureError) as excinfo:
            chain(*args)
        assert str(excinfo.value) == message
