"""The GHZ relaxation's formulas, one call per quantity: the reference
model for the flat kernel ``netcert.ghzbound._Block.kernel``.

A block y has variables (p, q, r) and, per cap group, a twist k with a
weight.  At a point its value is var_weight (p + q + r) plus, per group,
weight times the lesser of ``cap`` at the two floor pairs of ``floors``.
Over a box (p1, p2, q1, q2, r1, r2) the certified bound takes the sum at
the upper corner and the floors at the lower corner and least squares
(``min_sq``), and ``ReferenceSearch`` is the best-first search over such
boxes.  ``reference_groups`` rebuilds each block's cap groups from
the +/- classes, apart from the module's own block construction.
"""

from __future__ import annotations

import heapq
import math

from netcert.checker import select_power_t
from netcert.ghzbound import _pm_classes


def min_sq(lo: float, hi: float) -> float:
    if lo <= 0.0 <= hi:
        return 0.0
    return min(lo * lo, hi * hi)


def cap(k: float, h: float, hh: float) -> float:
    """Largest |<S>| for twist k against floor h and modulus floor hh."""
    c1 = math.sqrt(max(0.0, 1.0 + k - hh * hh))
    if h <= k:
        c2 = 1.0
    else:
        c2 = k * h + math.sqrt(max(0.0, (1.0 - h * h) * (1.0 - k * k)))
    return min(1.0, c1, c2)


def floors(
    u: float, p_lo: float, q_lo: float, r_lo: float, p_sq: float, q_sq: float, r_sq: float
) -> tuple[float, float, float, float]:
    h_yy = max(u, p_lo + q_lo - 1.5)
    hh_yy = max(h_yy, math.sqrt(max(0.0, p_sq + q_sq - 1.5)))
    h_0y = max(u, r_lo + p_lo - 1.5)
    hh_0y = max(h_0y, math.sqrt(max(0.0, r_sq + p_sq - 1.5)))
    return h_yy, hh_yy, h_0y, hh_0y


def cap_sum(groups: list[tuple[float, int]], fl: tuple[float, float, float, float]) -> float:
    h_yy, hh_yy, h_0y, hh_0y = fl
    total = 0.0
    for k, weight in groups:
        total += weight * min(cap(k, h_yy, hh_yy), cap(k, h_0y, hh_0y))
    return total


def value(
    var_weight: int, groups: list[tuple[float, int]], u: float, p: float, q: float, r: float
) -> float:
    fl = floors(u, p, q, r, p * p, q * q, r * r)
    return var_weight * (p + q + r) + cap_sum(groups, fl)


def box_bound(
    var_weight: int, groups: list[tuple[float, int]], u: float, box: tuple[float, ...]
) -> float:
    p1, p2, q1, q2, r1, r2 = box
    fl = floors(u, p1, q1, r1, min_sq(p1, p2), min_sq(q1, q2), min_sq(r1, r2))
    return var_weight * (p2 + q2 + r2) + cap_sum(groups, fl)


def center(box: tuple[float, ...]) -> tuple[float, float, float]:
    return ((box[0] + box[1]) / 2, (box[2] + box[3]) / 2, (box[4] + box[5]) / 2)


def reference_groups(d: int) -> dict[int, list[tuple[float, int]]]:
    """Per partner index y = 1..d//2, the cap groups (k, weight) by ascending k:
    each +/- class (a, b, c) with c != 0 adds its weight to the twist k of
    select_power_t(c, d) in block min(t, d - t)."""
    groups: dict[int, dict[float, int]] = {y: {} for y in range(1, d // 2 + 1)}
    for (_, _, c), weight in _pm_classes(d):
        if c:
            choice = select_power_t(c, d)
            by_k = groups[min(choice.t, d - choice.t)]
            by_k[choice.cos_value] = by_k.get(choice.cos_value, 0) + weight
    return {y: sorted(by_k.items()) for y, by_k in groups.items()}


class ReferenceSearch:
    """The block search on the formulas above: pop the top box, halve it
    along the first of its widest axes, bound both halves and value their
    centres."""

    def __init__(self, var_weight: int, groups: list[tuple[float, int]], u: float):
        box0 = (u, 1.0, -1.0, 1.0, -1.0, 1.0)
        self.var_weight, self.groups, self.u = var_weight, groups, u
        self.best_pt = center(box0)
        self.best_lb = value(var_weight, groups, u, *self.best_pt)
        self.heap = [(-box_bound(var_weight, groups, u, box0), box0)]
        self.cells = 1

    def split(self) -> None:
        _, box = heapq.heappop(self.heap)
        widths = (box[1] - box[0], box[3] - box[2], box[5] - box[4])
        axis = widths.index(max(widths))
        lo, hi = box[2 * axis], box[2 * axis + 1]
        mid = (lo + hi) / 2
        for piece in ((lo, mid), (mid, hi)):
            child = list(box)
            child[2 * axis], child[2 * axis + 1] = piece
            child_t = tuple(child)
            pt = center(child_t)
            val = value(self.var_weight, self.groups, self.u, *pt)
            if val > self.best_lb:
                self.best_lb, self.best_pt = val, pt
            bound = box_bound(self.var_weight, self.groups, self.u, child_t)
            heapq.heappush(self.heap, (-bound, child_t))
            self.cells += 1
