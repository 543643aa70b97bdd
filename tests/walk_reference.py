"""The orbit walk over labeled graphs keyed by canonical_form: the reference
for multigraph._ClassKey, which computes a canonical form only where two
keys' invariants agree.

``reference_graph_walk`` is multigraph._graph_walk with each class keyed by
its canonical form; ``use_reference_walk`` patches it in where lc_orbit and
certify_any bind _graph_walk.
"""

from netcert import certify, multigraph
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
