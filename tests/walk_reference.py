"""Reference orbit walks: the one over labeled graphs keyed by canonical_form,
for multigraph._ClassKey, which computes a canonical form only where two
keys' invariants agree; and the exact walk from every failing class of a
table cell, for certify._orbit_walks, which walks only the classes its
distance labels leave undecided.

``reference_graph_walk`` is multigraph._graph_walk with each class keyed by
its canonical form; ``use_reference_walk`` patches it in where lc_orbit and
certify_any bind _graph_walk.  ``reference_orbit_walks`` is _orbit_walks
without the labels, and ``reference_labelled_walks`` is _orbit_walks with
its labels set by one whole-array loop per level.
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


def _exact_walk(classes, start, orbit_cap):
    """The exact walk (_LCWalk over _LCClasses.expand) from class ``start``:
    the construction of the first member that certifies (0 if none does),
    and the walk."""
    identity, path, found = tuple(range(classes.n)), None, 0
    walk = _LCWalk((start, identity), start, classes.expand, orbit_cap)
    for size, (k, _, steps) in enumerate(walk, start=1):
        if classes.construction[k]:
            found, path = int(classes.construction[k]), steps
            break
    return found, _OrbitWalk(start, path, size, walk.truncated)


def reference_orbit_walks(classes, orbit_cap):
    """(outcome, walks) as _orbit_walks gives them, from the exact walk of
    every class of the cell whose direct attempt fails: the construction of
    the first member that certifies (0 if none does), and each walk.  The
    steps of those classes are filled in one call, as a walk filling one
    class at a time is slower."""
    failing = np.flatnonzero(classes.construction == 0).tolist()
    classes.fill(failing)
    outcome, walks = [], []
    for start in failing:
        found, walk = _exact_walk(classes, start, orbit_cap)
        outcome.append(found)
        walks.append(walk)
    return np.array(outcome), walks


def reference_labelled_walks(classes, orbit_cap):
    """(outcome, walks) as _orbit_walks gives them, with the distance labels
    set level by level over all failing classes at once: a failing class
    with a step to level - 1 is at that level, and its ``cons`` is the OR
    over all its steps, as those at its level or further out still read 0
    when the level's steps are gathered."""
    n, failing = classes.n, np.flatnonzero(classes.construction == 0)
    depth, reach = 0, 1 + n
    while reach <= orbit_cap:
        depth, reach = depth + 1, reach * n + 1
    for _ in range(max(depth, 1)):
        todo = np.flatnonzero((classes.construction == 0) & (classes.slot < 0))
        if not len(todo):
            break
        classes.fill(todo)
    cons = classes.construction.copy()
    dist = (cons > 0).astype(np.int64) - 1
    filled = np.flatnonzero(classes.slot >= 0)
    for level in range(1, depth + 1):
        filled = filled[dist[filled] < 0]
        succ = classes.succ[classes.slot[filled]]
        at = (dist[succ] == level - 1).any(axis=1)
        cons[filled[at]] = np.bitwise_or.reduce(cons[succ[at]], axis=1)
        dist[filled[at]] = level
    outcome, walks = cons[failing] % 3, []
    for i in np.flatnonzero(outcome == 0).tolist():
        outcome[i], walk = _exact_walk(classes, int(failing[i]), orbit_cap)
        walks.append(walk)
    return outcome, walks
