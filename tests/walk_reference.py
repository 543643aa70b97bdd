"""Reference orbit walks: the one over labeled graphs keyed by canonical_form,
for multigraph._ClassKey, which computes a canonical form only where two
keys' invariants agree; and the exact walk from every failing class of a
table cell, for certify._orbit_walks, which walks only the classes its
distance labels leave undecided.

``reference_graph_walk`` is multigraph._graph_walk with each class keyed by
its canonical form; ``use_reference_walk`` patches it in where lc_orbit and
certify_any bind _graph_walk.  ``reference_orbit_walks`` is _orbit_walks
without the labels.
"""

import numpy as np

from netcert import certify, multigraph
from netcert.certify import _OrbitWalk
from netcert.multigraph import _LCWalk, canonical_form, local_complement


def _reference_images(g):
    for a in range(g.n):
        image = local_complement(g, a)
        yield canonical_form(image), image


def reference_graph_walk(g, cap):
    return _LCWalk(g, canonical_form(g), _reference_images, cap)


def use_reference_walk(monkeypatch):
    for module in (multigraph, certify):
        monkeypatch.setattr(module, "_graph_walk", reference_graph_walk)


def reference_orbit_walks(classes, orbit_cap):
    """(outcome, walks) as _orbit_walks gives them, from the exact walk
    (_LCWalk over _LCClasses.expand) of every class of the cell whose direct
    attempt fails: the construction of the first member that certifies (0
    if none does), and each walk.  The steps of those classes are filled in
    one call, as a walk filling one class at a time is slower."""
    failing = np.flatnonzero(classes.construction == 0).tolist()
    classes.fill(failing)
    identity, outcome, walks = tuple(range(classes.n)), [], []
    for start in failing:
        walk, path, found = _LCWalk((start, identity), start, classes.expand, orbit_cap), None, 0
        for size, (k, _, steps) in enumerate(walk, start=1):
            if classes.construction[k]:
                found, path = int(classes.construction[k]), steps
                break
        outcome.append(found)
        walks.append(_OrbitWalk(start, path, size, walk.truncated))
    return np.array(outcome), walks
