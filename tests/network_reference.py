"""Explicit source networks: the reference model for netcert.network.

A network is a multiset of sources, each a set of parties, stored as a
Counter of frozensets.  Reducing to a region keeps the intersection of
every source with the region.  ``cut_inflation`` and
``doubled_inflation`` build the two inflations of a grouped network, and
``reference_chain`` decides the four marginal equalities of a certificate
by building all three networks and comparing their marginals, which
``netcert.network.marginal_chain_checks`` decides in closed form.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from netcert.errors import NetcertError, StructureError
from netcert.network import prime


class UnsupportedSource(NetcertError):
    """A source joins the rewired groups and is not bipartite."""


@dataclass(frozen=True)
class Network:
    """Parties plus a multiset of sources: source -> multiplicity."""

    parties: frozenset[str]
    sources: Counter[frozenset[str]]

    @classmethod
    def make(cls, parties: Iterable[str], sources: Iterable[Iterable[str]]) -> "Network":
        party_set = frozenset(str(p) for p in parties)
        counts: Counter[frozenset[str]] = Counter()
        for src in sources:
            fs = frozenset(str(p) for p in src)
            if not fs:
                raise StructureError("empty source")
            if not fs <= party_set:
                raise StructureError(f"source {sorted(fs)} not within parties")
            counts[fs] += 1
        return cls(parties=party_set, sources=counts)


def complete_bipartite_network(parties: Iterable[str]) -> Network:
    """One two-party source for every pair of parties."""
    names = sorted(map(str, parties))
    if len(names) < 2:
        raise StructureError("need at least two parties")
    pairs = Counter(map(frozenset, itertools.combinations(names, 2)))
    return Network(parties=frozenset(names), sources=pairs)


def _add(counts: dict[frozenset[str], int], src: frozenset[str], k: int) -> None:
    counts[src] = counts.get(src, 0) + k


def _marginal(net: Network, region: frozenset[str]) -> dict[frozenset[str], int]:
    if not region <= net.parties:
        raise StructureError(f"region {sorted(region)} not within parties")
    kept: dict[frozenset[str], int] = {}
    for src, k in net.sources.items():
        part = src & region
        if part:
            kept[part] = kept.get(part, 0) + k
    return kept


def reduce(net: Network, region: Iterable[str]) -> Network:
    """Marginal network on a region: intersect sources, drop empty ones."""
    reg = frozenset(str(p) for p in region)
    return Network(parties=reg, sources=Counter(_marginal(net, reg)))


def reduced_equal(
    net1: Network,
    region1: Iterable[str],
    net2: Network,
    region2: Iterable[str],
    bijection: Mapping[str, str] | None = None,
) -> bool:
    """Whether two marginal networks agree under a region bijection.

    ``bijection`` maps region1 names to region2 names; omitted entries map
    to themselves.  It must be one-to-one from region1 onto region2.
    """
    reg1 = frozenset(map(str, region1))
    reg2 = frozenset(map(str, region2))
    sigma = {str(k): str(v) for k, v in bijection.items()} if bijection else {}
    moved = {p: sigma[p] for p in reg1 if sigma.get(p, p) != p}
    image = reg1.difference(moved).union(moved.values())
    if len(image) != len(reg1) or image != reg2:
        raise StructureError("relabeling is not a bijection between the regions")
    marginal1 = _marginal(net1, reg1)
    if moved:
        mapped: dict[frozenset[str], int] = {}
        for src, k in marginal1.items():
            if not src.isdisjoint(moved):
                src = frozenset(moved.get(p, p) for p in src)
            _add(mapped, src, k)
        marginal1 = mapped
    return marginal1 == _marginal(net2, reg2)


@dataclass(frozen=True)
class GroupedNetwork:
    """A network plus a partition of its parties into four groups."""

    base: Network
    g1: frozenset[str]
    g2: frozenset[str]
    g3: frozenset[str]
    g4: frozenset[str]

    @classmethod
    def make(cls, base: Network, groups: Sequence[Iterable[str]]) -> "GroupedNetwork":
        if len(groups) != 4:
            raise StructureError("need exactly four groups")
        sets = [frozenset(map(str, grp)) for grp in groups]
        if frozenset().union(*sets) != base.parties or sum(map(len, sets)) != len(base.parties):
            raise StructureError("groups must partition the parties")
        return cls(base, *sets)

    @property
    def groups(self) -> tuple[frozenset[str], ...]:
        return (self.g1, self.g2, self.g3, self.g4)


def cut_inflation(grouping: GroupedNetwork) -> Network:
    """The gamma inflation: each source joining groups 1 and 2 becomes one
    single-party source per endpoint."""
    g1, g2 = grouping.g1, grouping.g2
    sources: dict[frozenset[str], int] = {}
    for src, k in grouping.base.sources.items():
        if src.isdisjoint(g1) or src.isdisjoint(g2):
            _add(sources, src, k)
        elif len(src) > 2:
            raise UnsupportedSource(
                f"source {sorted(src)} joins groups 1 and 2 and is not bipartite"
            )
        else:
            for p in src:
                _add(sources, frozenset([p]), k)
    return Network(parties=grouping.base.parties, sources=Counter(sources))


def doubled_inflation(grouping: GroupedNetwork) -> Network:
    """The eta inflation: a source from u in group 1 to v in group 2 or 3
    becomes {u', v} plus a lone {u}; one to group 4 stays, plus a lone {u'}."""
    g1 = grouping.g1
    primed = {p: prime(p) for p in g1}
    sources: dict[frozenset[str], int] = {}
    for src, k in grouping.base.sources.items():
        if src.isdisjoint(g1):
            _add(sources, src, k)
        elif src <= g1:
            _add(sources, src, k)
            _add(sources, frozenset(map(primed.get, src)), k)
        elif len(src) > 2:
            raise UnsupportedSource(f"source {sorted(src)} leaves group 1 and is not bipartite")
        else:
            u, v = src
            if u not in g1:
                u, v = v, u
            if v in grouping.g4:
                _add(sources, src, k)
                _add(sources, frozenset([primed[u]]), k)
            else:
                _add(sources, frozenset([primed[u], v]), k)
                _add(sources, frozenset([u]), k)
    parties = grouping.base.parties.union(primed.values())
    return Network(parties=parties, sources=Counter(sources))


def reference_chain(
    parties: Iterable[str],
    groups: Sequence[Iterable[str]],
    support1: Iterable[str],
    support2: Iterable[str],
    support3: Iterable[str],
    support4: Iterable[str],
) -> list[tuple[str, bool]]:
    """marginal_chain_checks computed on the explicit networks: build the
    base network and both inflations and compare the marginals, S4's with
    its sites in group 1 primed."""
    base = complete_bipartite_network(parties)
    grouping = GroupedNetwork.make(base, groups)
    cut = cut_inflation(grouping)
    doubled = doubled_inflation(grouping)
    supp1, supp2, supp3, supp4 = (
        frozenset(map(str, s)) for s in (support1, support2, support3, support4)
    )
    sigma = {p: prime(p) for p in supp4 & grouping.g1}
    region4 = frozenset(sigma.get(p, p) for p in supp4)
    return [
        ("S1 base vs cut", _marginal(base, supp1) == _marginal(cut, supp1)),
        ("S2 base vs cut", _marginal(base, supp2) == _marginal(cut, supp2)),
        ("S3 cut vs doubled", _marginal(cut, supp3) == _marginal(doubled, supp3)),
        ("S4 base vs doubled", reduced_equal(base, supp4, doubled, region4, bijection=sigma)),
    ]
