"""The four marginal equalities behind an incompatibility certificate.

The base network has one two-party source per pair of parties.  A grouping
G1..G4 of the parties gives two inflations of it:

* the cut inflation (gamma) replaces each source joining G1 to G2 by two
  one-party sources, one per end;
* the doubled inflation (eta) adds a copy p' of every party p in G1
  (``prime``).  A source from u in G1 to v in G2 or G3 becomes {u', v}
  plus a lone {u}; one to G4 stays, plus a lone {u'}; one inside G1 is
  duplicated as its primed copy.

The marginal of a network on a region R keeps the part of each source
inside R.  A certificate needs four such marginals to agree (see
``marginal_mask_checks``), and each agreement depends only on which
groups R meets, so it is decided from the groups and the region alone,
without building a network: on vertex bitmasks for a certificate, on
labels through ``marginal_chain_checks``.  The tests check this against an
explicit multiset model of the three networks.  Part of the proof checker's
trusted base (checker, graph, network, errors), it imports from netcert
only errors.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .errors import StructureError


def prime(label: str) -> str:
    """Name of the copy of a party in the doubled inflation."""
    return f"{label}'"


#: The four equalities, in the order marginal_mask_checks reports them.
_CHECKS = ("S1 base vs cut", "S2 base vs cut", "S3 cut vs doubled", "S4 base vs doubled")


def label_masks(bit: dict[str, int], collections: Iterable[Iterable[str]]) -> list[int]:
    """The bitmask of each collection of labels under ``bit``, which maps a
    label to its bit and gives a label it lacks the next bit, 1 << len(bit)."""
    masks = []
    for labels in collections:
        mask = 0
        for lbl in map(str, labels):
            if lbl not in bit:
                bit[lbl] = 1 << len(bit)
            mask |= bit[lbl]
        masks.append(mask)
    return masks


def partitions(n: int, groups: Sequence[int]) -> bool:
    """Whether the bitmasks ``groups`` (ints, or integer arrays entrywise)
    partition the parties 0..n-1: their union and their sum are all parties."""
    return (reduce(or_, groups, 0) == (1 << n) - 1) & (sum(groups) == (1 << n) - 1)


def marginal_mask_checks(
    n: int, groups: Sequence[int], regions: Sequence[int]
) -> list[tuple[str, bool]]:
    """The four marginal equalities behind an incompatibility certificate,
    on bitmasks: bit v is party v of 0..n-1, ``groups`` are G1..G4 (a bit
    from n up is a group label that names no party) and ``regions`` the
    supports of S1..S4, within the parties.

    S1 and S2 must see the same marginal in the base network and its cut
    inflation, S3 the same in the cut and doubled inflations, and S4, with
    its sites in G1 moved to their primed copies, the same in the base
    network and the doubled inflation.

    Why each is a test on the groups R = support_i meets: a source whose
    two ends are not both in R reduces to the same one-party source, or to
    nothing, in each network (for S4, once R's G1 sites are primed on the
    base side).  A source with both ends in R differs only where an
    inflation rewires it: a G1-G2 source {u, v} is {u, v} in the base
    marginal but {u}, {v} in the cut one; a G1-G3 source is {u, v} in the
    cut marginal but {u}, {v} in the doubled one, whose {u', v} leaves R; a
    G1-G4 source is the primed {u', v} on the base side but {u'}, {v} in
    the doubled marginal.  Each such difference leaves a two-party source
    on one side that no other source gives the other side, so none cancel.
    Hence S1 and S2 hold iff R does not meet both G1 and G2, S3 iff it does
    not meet both G1 and G3, and S4 iff it does not meet both G1 and G4.

    Raises StructureError for fewer than two parties, for other than four
    groups and for groups that do not partition the parties, in that order.
    """
    if n < 2:
        raise StructureError("need at least two parties")
    if len(groups) != 4:
        raise StructureError("need exactly four groups")
    if not partitions(n, groups):
        raise StructureError("groups must partition the parties")
    g1, g2, g3, g4 = groups
    return [
        (name, not (region & g1 and region & rewired))
        for name, region, rewired in zip(_CHECKS, regions, (g2, g2, g3, g4))
    ]


def marginal_chain_checks(
    parties: Iterable[str],
    groups: Sequence[Iterable[str]],
    support1: Iterable[str],
    support2: Iterable[str],
    support3: Iterable[str],
    support4: Iterable[str],
) -> list[tuple[str, bool]]:
    """marginal_mask_checks on labels: the parties, the groups G1..G4 and
    the supports of S1..S4 as collections of names that ``prime`` never
    produces.  Raises its StructureErrors, then one for a support outside
    the parties."""
    bit = {lbl: 1 << v for v, lbl in enumerate(dict.fromkeys(map(str, parties)))}
    n = len(bit)
    regions = [frozenset(map(str, s)) for s in (support1, support2, support3, support4)]
    checks = marginal_mask_checks(n, label_masks(bit, groups), label_masks(bit, regions))
    for region in regions:
        if any(bit[lbl] >> n for lbl in region):
            raise StructureError(f"region {sorted(region)} not within parties")
    return checks
