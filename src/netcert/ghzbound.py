"""Fidelity ceilings for GHZ states in bipartite-source networks.

Three bounds of increasing sharpness and cost:

* ``ghz_closed_form_bound``: the certificate-chain bound
  (7 + sqrt(4 + 5 sin theta_d)) / 10, theta_d = 0 for even d and
  pi/(2d) for odd d;
* ``ghz_prime_bound``: for prime d, the self-consistent bound obtained by
  feeding the fidelity floor back into the stabilizer expectations;
* ``ghz_numeric_bound``: a certified numeric bound.  The full stabilizer
  group is relaxed to a finite constraint system (one variable per
  +/- conjugation class) whose infeasibility above a fidelity f is proven
  by interval branch-and-bound; bisection then returns the smallest f
  whose feasibility cannot be established, a sound upper bound.  Each
  bisection step needs one bit, whether the relaxation reaches d^3 f, so
  it searches all blocks jointly and stops as soon as the certified upper
  bounds fall short (infeasible) or a point found reaches it (feasible).
  One flat kernel on float locals (``_Block.kernel``) bounds each box and
  values its centre with the operations of the relaxation's formulas in
  their order, so every bound, and with it the search, is bit-identical
  to those formulas.

``ghz_section3_chain`` assembles the explicit three-party certificate
chain behind the closed form, with all premises checked, on vectors.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import product

from .checker import (
    Vector,
    _named,
    _power,
    _product,
    _support,
    _witness,
    fidelity_bound_from_lambda,
    select_power_t,
)
from .errors import DimensionError, RangeError, StructureError, Unconverged, WrongFamily
from .network import marginal_mask_checks, prime

#: The three parties of the GHZ state, in the order of its stabilizers' vectors.
GHZ_PARTIES = ("A", "B", "C")

_NUMERIC_RANGE = (2, 8)
_F_TOL = 1e-4
_PRIME_TOL = 1e-9
_BLOCK_GAP = 0.002
_CELL_BUDGET = 150_000
_MAX_BISECTIONS = 64


def theta_d(d: int) -> float:
    """Residual twist angle: zero for even d, pi/(2d) for odd d."""
    if d < 2:
        raise DimensionError(f"qudit dimension must be >= 2, got {d}")
    return 0.0 if d % 2 == 0 else math.pi / (2 * d)


def ghz_closed_form_bound(d: int) -> float:
    """Certificate-chain fidelity ceiling for the d-level GHZ state."""
    return fidelity_bound_from_lambda(2.0 * math.sin(theta_d(d)))


#: Bases of is_prime's Miller-Rabin test: the first 13 primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The least odd composite that is a strong probable prime to every base in
#: _MR_BASES (Sorenson & Webster, "Strong pseudoprimes to twelve prime
#: bases", Math. Comp. 86, 2017): is_prime is exact below it.  The first 12
#: bases alone pass the composite 318665857834031151167461.
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(d: int) -> bool:
    """Whether d is prime, by deterministic Miller-Rabin over _MR_BASES.
    Raises RangeError from _MR_LIMIT on, where it is no longer exact."""
    if d >= _MR_LIMIT:
        raise RangeError(f"primality is decided only below {_MR_LIMIT}; d={d}")
    if d < 2:
        return False
    for p in _MR_BASES:
        if d % p == 0:
            return d == p
    # d - 1 = q 2^s with q odd; every base is below d here
    s = ((d - 1) & (1 - d)).bit_length() - 1
    q = (d - 1) >> s
    for a in _MR_BASES:
        x = pow(a, q, d)
        if x == 1 or x == d - 1:
            continue
        for _ in range(s - 1):
            x = x * x % d
            if x == d - 1:
                break
        else:
            return False
    return True


def ghz_prime_bound(d: int) -> float:
    """Self-consistent fidelity ceiling, valid for prime d.

    Largest f in [3/4, 1] with
    f <= (d^2 + (d^3 - d^2) sqrt(1 + sin theta_d - (4f - 3)^2)) / d^3;
    the right side minus f is strictly decreasing, so bisection applies.
    """
    if not is_prime(d):
        raise WrongFamily(f"{d} is not prime")
    s = math.sin(theta_d(d))

    def residual(f: float) -> float:
        inner = 1.0 + s - (4.0 * f - 3.0) ** 2
        rhs = (d * d + (d**3 - d * d) * math.sqrt(max(0.0, inner))) / d**3
        return rhs - f

    lo, hi = 0.75, 1.0
    while hi - lo > _PRIME_TOL:
        mid = (lo + hi) / 2
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class GhzChainRecord:
    """The explicit three-party certificate chain and its premises: S1..S4
    as (x, z, tau) over GHZ_PARTIES, and S4's legs in G1 -> doubled copies."""

    d: int
    stabilizers: tuple[Vector, Vector, Vector, Vector]
    s4_relabeling: tuple[tuple[str, str], ...]
    t_power: int
    premises: tuple[tuple[str, bool], ...]
    kappa: int
    sin_theta: float
    bound: float

    @property
    def all_premises_hold(self) -> bool:
        return all(ok for _, ok in self.premises)


def _ghz_element(d: int, a: int, b: int, c: int) -> Vector:
    """The GHZ stabilizer S_abc = Z^a X^c (x) Z^(b-a) X^c (x) Z^(-b) X^c as
    (x, z, tau); the per-site reorder phases cancel exactly, so tau = 0."""
    return (c % d,) * 3, (a % d, (b - a) % d, -b % d), 0


def ghz_section3_chain(d: int) -> GhzChainRecord:
    """Build and check the GHZ incompatibility chain on a triangle network.

    S1 = Z_B Z_A^dag, S2 = Z_A Z_C^dag, S3 = S1 S2 = Z_B Z_C^dag and
    S4 = (X_A X_B X_C)^t with t = floor(d/2), S3 and S4 formed by the
    checker's rules _product and _power, in groups G1..G4 = {C}, {B},
    {A}, {}; the C leg of S4 is moved to the doubled copy C'.  The witness
    passes checker._witness, with kappa the twist over the overlap, B.
    """
    if d < 2:
        raise DimensionError(f"qudit dimension must be >= 2, got {d}")
    s1, s2 = (_ghz_element(d, a, b, 0) for a, b in ((d - 1, 0), (1, 1)))
    s3 = _product(s1, s2, d)
    t, cos_value = select_power_t(1, d)
    s4 = _power(_ghz_element(d, 0, 0, 1), t, d)
    groups = (0b100, 0b010, 0b001, 0)  # {C}, {B}, {A}, {}: bit v is GHZ_PARTIES[v]
    xs, zs, _ = zip(s1, s2, s3, s4)
    supports = list(map(_support, xs, zs))
    premises = tuple(marginal_mask_checks(3, groups, supports))
    passed, _, kappa = _witness(d, xs, zs, supports, groups)
    if not all(passed):
        raise StructureError("chain bug: the witness fails the verifier's conditions")
    lam = 2.0 * cos_value
    if abs(lam - 2.0 * abs(math.cos(math.pi * kappa / d))) > 1e-12:
        raise StructureError("chain bug: twist angle mismatch")
    bound = fidelity_bound_from_lambda(lam)
    if bound != ghz_closed_form_bound(d):
        raise StructureError("chain bug: bound disagrees with the closed form")
    return GhzChainRecord(
        d=d,
        stabilizers=(s1, s2, s3, s4),
        s4_relabeling=tuple((v, prime(v)) for v in _named(GHZ_PARTIES, supports[3] & groups[0])),
        t_power=t,
        premises=premises,
        kappa=kappa,
        sin_theta=math.sin(theta_d(d)),
        bound=bound,
    )


@dataclass(frozen=True)
class BoundReport:
    """All ceilings for one dimension, plus numeric-solver diagnostics."""

    d: int
    bound_closed_form: float
    bound_prime: float | None
    bound_numeric: float | None
    constraints_active: tuple[str, ...] = ()
    solver_trace: tuple[tuple[float, bool, int], ...] = ()


def _pm_classes(d: int) -> list[tuple[tuple[int, int, int], int]]:
    """Nonzero exponent triples up to sign, with class weights."""
    out = []
    for v in product(range(d), repeat=3):
        if v == (0, 0, 0):
            continue
        neg = tuple((-x) % d for x in v)
        if v <= neg:
            out.append((v, 1 if neg == v else 2))
    return out


def _cap(k: float, h: float, hh: float) -> float:
    """Largest |<S>| compatible with twist k against floor h and modulus hh.

    Combines the twisted-pair phase constraint (via hh, the floor on the
    partner modulus) with the variance trade-off (via h, the floor on the
    partner real part); both are monotone, so evaluating at the floors
    upper-bounds every feasible point.  _Block.kernel inlines it; the
    constraints_active report calls it.
    """
    c1 = math.sqrt(max(0.0, 1.0 + k - hh * hh))
    if h <= k:
        c2 = 1.0
    else:
        c2 = k * h + math.sqrt(max(0.0, (1.0 - h * h) * (1.0 - k * k)))
    return min(1.0, c1, c2)


class _Block:
    """One partner index y: variables (p, q, r) and the classes it caps.

    p, q, r are the real stabilizer expectations for exponent triples
    (y,0,0), (0,y,0), (y,y,0); the coupled quantities h/hh floor the
    doubled-network correlators that the phase constraints consume.
    ``groups`` holds the cap groups by ascending twist k, each as the
    constants of _cap: (k, weight, 1 + k, 1 - k*k).
    """

    def __init__(self, y: int, var_weight: int, cap_groups: dict[float, int]):
        self.y = y
        self.var_weight = var_weight
        self.groups = [(k, w, 1.0 + k, 1.0 - k * k) for k, w in sorted(cap_groups.items())]

    def kernel(
        self, u: float, box: tuple[float, ...]
    ) -> tuple[float, tuple[float, float, float], float]:
        """The certified bound over ``box``, its centre and the value there.

        A value is var_weight (p + q + r) plus, per cap group, weight times
        the lesser of _cap at the floors (h_yy, hh_yy) and (h_0y, hh_0y):
        h_yy = max(u, p + q - 1.5), hh_yy = max(h_yy, sqrt(max(0, p^2 + q^2
        - 1.5))), and h_0y, hh_0y the same on (r, p).  The bound takes the
        sum at the box's upper corner and the floors at its lower corner
        and least squares; the caps fall as the floors rise, so it holds at
        every point of the box.  All of it runs on float locals, with the
        operations, operands and order of those formulas and the first of
        equals where they take max or min, so both numbers are theirs bit
        for bit (tests/ghz_reference.py keeps them).
        """
        sqrt = math.sqrt
        p1, p2, q1, q2, r1, r2 = box
        pt = p, q, r = (p1 + p2) / 2, (q1 + q2) / 2, (r1 + r2) / 2
        a, b = p1 * p1, p2 * p2
        pp = 0.0 if p1 <= 0.0 <= p2 else b if b < a else a
        a, b = q1 * q1, q2 * q2
        qq = 0.0 if q1 <= 0.0 <= q2 else b if b < a else a
        a, b = r1 * r1, r2 * r2
        rr = 0.0 if r1 <= 0.0 <= r2 else b if b < a else a
        out = []
        for x, y, z, xx, yy, zz, s in (
            (p1, q1, r1, pp, qq, rr, p2 + q2 + r2), (p, q, r, p * p, q * q, r * r, p + q + r)
        ):
            h, h0 = x + y - 1.5, z + x - 1.5  # h_yy and h_0y; hh, hh0 end as hh_yy^2, hh_0y^2
            h, h0 = h if h > u else u, h0 if h0 > u else u
            t, t0 = xx + yy - 1.5, zz + xx - 1.5
            hh, hh0 = sqrt(t) if t > 0.0 else 0.0, sqrt(t0) if t0 > 0.0 else 0.0
            hh, hh0 = hh if hh > h else h, hh0 if hh0 > h0 else h0
            hh, hh0, g, g0 = hh * hh, hh0 * hh0, 1.0 - h * h, 1.0 - h0 * h0
            total = 0.0
            for k, w, k1, kk in self.groups:  # w min(_cap(k, h, hh), _cap(k, h0, hh0))
                t, t0 = k1 - hh, k1 - hh0
                c, c0 = sqrt(t) if t > 0.0 else 0.0, sqrt(t0) if t0 > 0.0 else 0.0
                c, c0 = c if c < 1.0 else 1.0, c0 if c0 < 1.0 else 1.0
                if h > k:
                    t = g * kk
                    t = k * h + (sqrt(t) if t > 0.0 else 0.0)
                    c = t if t < c else c
                if h0 > k:
                    t0 = g0 * kk
                    t0 = k * h0 + (sqrt(t0) if t0 > 0.0 else 0.0)
                    c0 = t0 if t0 < c0 else c0
                total += w * (c0 if c0 < c else c)
            out.append(self.var_weight * s + total)
        return out[0], pt, out[1]


class _BlockSearch:
    """Best-first branch-and-bound over one block at one u, a split at a time.

    ``-heap[0][0]``, the top box's bound, certifies an upper bound on the
    block's maximum at every step; ``best_lb`` is attained at ``best_pt``.
    Every box is bounded by _Block.kernel, bit for bit the bound of the
    formulas, so the heap order, the split order and each verdict follow
    them exactly.
    """

    def __init__(self, block: _Block, u: float):
        box0 = (u, 1.0, -1.0, 1.0, -1.0, 1.0)  # p >= u = 4f - 3 >= 0
        self.kernel = block.kernel
        self.u = u
        bound, self.best_pt, self.best_lb = block.kernel(u, box0)
        self.heap = [(-bound, box0)]
        self.cells = 1

    def split(self) -> None:
        """Halve the top box along its widest axis (the first of equal
        widths) and bound both halves."""
        _, box = heapq.heappop(self.heap)
        p1, p2, q1, q2, r1, r2 = box
        wp, wq, wr = p2 - p1, q2 - q1, r2 - r1
        i = 2 if wq > wp else 0
        if wr > (wq if i else wp):
            i = 4
        mid = (box[i] + box[i + 1]) / 2
        for child in (box[: i + 1] + (mid,) + box[i + 2 :], box[:i] + (mid,) + box[i + 1 :]):
            bound, pt, val = self.kernel(self.u, child)
            if val > self.best_lb:
                self.best_lb, self.best_pt = val, pt
            heapq.heappush(self.heap, (-bound, child))
        self.cells += 2


def _build_blocks(d: int) -> tuple[list[_Block], float, dict[int, list[int]]]:
    """Blocks per partner index, plus the weight of unconstrained classes."""
    ys = list(range(1, d // 2 + 1))
    var_weight = {y: (1 if (2 * y) % d == 0 else 2) for y in ys}
    free_weight = 0.0
    cap_groups: dict[int, dict[float, int]] = {y: {} for y in ys}
    members: dict[int, list[int]] = {y: [] for y in ys}
    for (a, b, c), weight in _pm_classes(d):
        if c == 0:
            is_var = any(
                (a, b) in ((y, 0), (0, y), (y, y)) for y in ys
            )
            if not is_var:
                free_weight += weight
            continue
        choice = select_power_t(c, d)
        partner = min(choice.t, d - choice.t)
        groups = cap_groups[partner]
        groups[choice.cos_value] = groups.get(choice.cos_value, 0) + weight
        if c not in members[partner]:
            members[partner].append(c)
    blocks = [_Block(y, var_weight[y], cap_groups[y]) for y in ys]
    return blocks, free_weight, members


def ghz_numeric_bound(d: int) -> BoundReport:
    """Certified numeric fidelity ceiling for the d-level GHZ state, 2<=d<=8.

    Relaxation: one scalar per +/- class of stabilizer exponents, floored
    by the fidelity via <Re S> >= 4f - 3 on the class identified with its
    own doubled copy; twisted pairs across the doubling cap each |<S>| via
    the phase and variance constraints; correlator sums floor the doubled
    correlators.  If the relaxed objective cannot reach d^3 f, no network
    state has fidelity f.

    Verdict rule of one bisection step: every block runs its own
    best-first search (``_BlockSearch``), and after each split
    ub = 1 + free + sum of the blocks' top bounds and lb = 1 + free + sum
    of their best values are compared with need = d^3 f - 1e-12.
    ub < need proves f infeasible, since each top bound is certified over
    its block; lb >= need proves it feasible, since a point of the
    relaxation reaches d^3 f.  Otherwise the live block with the largest
    top - best gap is split.  Once every block has met its own stop rule
    the step reads ub >= need, so a step that never decides early gives
    the verdict of maximising each block to ``_BLOCK_GAP`` in turn.
    ``solver_trace`` records (f, verdict, boxes bounded until the verdict).
    """
    lo_d, hi_d = _NUMERIC_RANGE
    if not lo_d <= d <= hi_d:
        raise RangeError(f"numeric bound implemented for {lo_d} <= d <= {hi_d}")
    blocks, free_weight, members = _build_blocks(d)
    target = float(d**3)

    def feasible(f: float) -> tuple[bool, int, list[tuple[float, ...]]]:
        u = 4.0 * f - 3.0
        need = target * f - 1e-12
        searches = [_BlockSearch(block, u) for block in blocks]
        while True:
            ub = lb = 1.0 + free_weight
            pick, gap = None, 0.0
            for search in searches:
                top, best = -search.heap[0][0], search.best_lb
                ub += top
                lb += best
                # not settled (the stop rule of a search run alone); the first largest gap
                if top > best + _BLOCK_GAP and search.cells < _CELL_BUDGET:
                    if pick is None or top - best > gap:
                        pick, gap = search, top - best
            if pick is None or ub < need:
                break
            if lb >= need:
                break  # ub >= need too: it was tested first
            pick.split()
        cells = sum(search.cells for search in searches)
        return ub >= need, cells, [search.best_pt for search in searches]

    trace: list[tuple[float, bool, int]] = []
    ok, cells, points = feasible(0.75)
    trace.append((0.75, ok, cells))
    if not ok:
        raise Unconverged("relaxation infeasible at f = 3/4; nothing to bisect")
    lo, hi = 0.75, 1.0
    iterations = 0
    while hi - lo > _F_TOL:
        if iterations >= _MAX_BISECTIONS:
            raise Unconverged(f"bisection stalled at [{lo}, {hi}]")
        mid = (lo + hi) / 2
        ok, cells, mid_points = feasible(mid)
        trace.append((mid, ok, cells))
        if ok:
            lo, points = mid, mid_points
        else:
            hi = mid
        iterations += 1
    active: set[str] = set()
    u_star = 4.0 * lo - 3.0
    for block, pt in zip(blocks, points):
        p, q, r = pt
        h_yy = max(u_star, p + q - 1.5)
        hh_yy = max(h_yy, math.sqrt(max(0.0, p * p + q * q - 1.5)))
        h_0y = max(u_star, r + p - 1.5)
        hh_0y = max(h_0y, math.sqrt(max(0.0, r * r + p * p - 1.5)))
        for c in members[block.y]:
            k = select_power_t(c, d).cos_value
            cap = min(_cap(k, h_yy, hh_yy), _cap(k, h_0y, hh_0y))
            c1 = math.sqrt(max(0.0, 1.0 + k - min(hh_yy, hh_0y) ** 2))
            if cap == min(1.0, c1):
                active.add(f"phase(c={c},y={block.y})")
            else:
                active.add(f"uncert(c={c},y={block.y})")
    return BoundReport(
        d=d,
        bound_closed_form=ghz_closed_form_bound(d),
        bound_prime=ghz_prime_bound(d) if is_prime(d) else None,
        bound_numeric=hi,
        constraints_active=tuple(sorted(active)),
        solver_trace=tuple(trace),
    )


def bound_report(d: int) -> BoundReport:
    """Best-effort report: closed form always, prime and numeric when defined."""
    if _NUMERIC_RANGE[0] <= d <= _NUMERIC_RANGE[1]:
        return ghz_numeric_bound(d)
    return BoundReport(
        d=d,
        bound_closed_form=ghz_closed_form_bound(d),
        bound_prime=ghz_prime_bound(d) if is_prime(d) else None,
        bound_numeric=None,
    )
