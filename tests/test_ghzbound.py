"""GHZ fidelity ceilings: closed form, prime self-consistency, certified numeric."""

import math
import random

import pytest

from netcert import (
    GHZ_PARTIES,
    DimensionError,
    PauliOperator,
    RangeError,
    WrongFamily,
    bound_report,
    ghz_closed_form_bound,
    ghz_numeric_bound,
    ghz_prime_bound,
    ghz_section3_chain,
    ghz_stabilizer_element,
    relabel,
    support,
    theta_d,
)
from netcert.ghzbound import _MR_LIMIT, _BlockSearch, _build_blocks, _cap, is_prime

import ghz_reference as ref

CLOSED_FORM = {
    2: 0.9,
    3: 0.9549509756796393,
    4: 0.9,
    5: 0.9354800410199289,
    6: 0.9,
    8: 0.9,
}

PRIME = {
    2: 0.8999999999068677,
    3: 0.9504763879813254,
    5: 0.924710953142494,
}

NUMERIC = {
    2: 0.895813,
    3: 0.948730,
    4: 0.881836,
    5: 0.922058,
    6: 0.898743,
    7: 0.908813,
    8: 0.877197,
}

# Frozen outputs of the numeric solver next to NUMERIC: the constraints
# active at the last feasible point, and the bisection's verdicts in order
# ("1" feasible, "0" infeasible; the first is f = 3/4, each later f is the
# midpoint of the bracket the earlier verdicts leave).
ACTIVE = {
    2: ("phase(c=1,y=1)",),
    3: ("uncert(c=1,y=1)", "uncert(c=2,y=1)"),
    4: ("phase(c=1,y=2)", "phase(c=2,y=1)", "phase(c=3,y=2)"),
    5: ("uncert(c=1,y=2)", "uncert(c=2,y=1)", "uncert(c=3,y=1)", "uncert(c=4,y=2)"),
    6: (
        "phase(c=1,y=3)", "phase(c=3,y=1)", "phase(c=5,y=3)",
        "uncert(c=2,y=1)", "uncert(c=4,y=2)",
    ),
    7: (
        "uncert(c=1,y=3)", "uncert(c=2,y=2)", "uncert(c=3,y=1)",
        "uncert(c=4,y=1)", "uncert(c=5,y=2)", "uncert(c=6,y=3)",
    ),
    8: (
        "phase(c=1,y=4)", "phase(c=2,y=2)", "phase(c=3,y=4)", "phase(c=4,y=1)",
        "phase(c=5,y=4)", "phase(c=6,y=2)", "phase(c=7,y=4)",
    ),
}

VERDICTS = {
    2: "1100101010100",
    3: "1110010110111",
    4: "1100001101111",
    5: "1101100000010",
    6: "1100110000100",
    7: "1101000101001",
    8: "1100000100011",
}

# The boxes each bisection step bounded before its verdict, in step order:
# the search itself, not only where it ends (7,208 boxes over d = 2..8).
CELLS = {
    2: [3, 15, 1, 1, 21, 35, 103, 109, 149, 169, 291, 229, 285],
    3: [1, 5, 15, 1, 1, 23, 1, 31, 41, 1, 49, 57, 65],
    4: [2, 24, 2, 2, 2, 82, 34, 50, 358, 64, 98, 220, 370],
    5: [2, 2, 2, 10, 80, 2, 2, 2, 2, 2, 2, 96, 174],
    6: [3, 3, 3, 3, 21, 121, 3, 3, 3, 115, 321, 177, 303],
    7: [3, 3, 3, 39, 3, 3, 3, 71, 3, 121, 105, 235, 255],
    8: [4, 48, 4, 4, 4, 4, 4, 212, 4, 100, 236, 338, 932],
}


def test_theta_d():
    assert theta_d(2) == 0.0
    assert theta_d(4) == 0.0
    assert theta_d(3) == math.pi / 6
    assert theta_d(5) == math.pi / 10
    with pytest.raises(DimensionError):
        theta_d(1)


def test_closed_form_values():
    for d, want in CLOSED_FORM.items():
        assert ghz_closed_form_bound(d) == want
    # even dimensions always give exactly 0.9; odd ones approach it from above
    for d in range(2, 40):
        got = ghz_closed_form_bound(d)
        if d % 2 == 0:
            assert got == 0.9
        else:
            assert 0.9 < got <= CLOSED_FORM[3] + 1e-15
    odd = [ghz_closed_form_bound(d) for d in range(3, 41, 2)]
    assert odd == sorted(odd, reverse=True)  # decreasing toward 0.9


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for d in range(-3, 25):
        assert is_prime(d) == (d in primes)


def trial_division(d: int) -> bool:
    return d >= 2 and all(d % f for f in range(2, math.isqrt(d) + 1))


def test_is_prime_matches_trial_division():
    """Miller-Rabin agrees with trial division on 2..10^5 and on strong
    pseudoprimes: 3215031751 passes bases 2, 3, 5 and 7; the Carmichael
    numbers fool every Fermat test; 318665857834031151167461 =
    399165290221 * 798330580441 passes every base up to 37, so only base 41
    tells it apart.  2^61 - 1 and 10^18 + 3 are prime, the latter once too
    slow for trial division."""
    assert all(is_prime(d) == trial_division(d) for d in range(2, 10**5 + 1))
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    carmichael += [3215031751, 5394826801]
    for d in carmichael:
        assert not trial_division(d) and pow(2, d - 1, d) == 1
        assert not is_prime(d), d
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3)


def test_is_prime_refuses_past_its_limit():
    """The 13 bases are exact only below _MR_LIMIT, itself a strong
    pseudoprime to all of them (1287836182261 * 2575672364521)."""
    assert 1287836182261 * 2575672364521 == _MR_LIMIT
    assert not is_prime(_MR_LIMIT - 2)  # divisible by 17
    for d in (_MR_LIMIT, 10**30):
        with pytest.raises(RangeError):
            is_prime(d)


def test_prime_bound_values():
    assert abs(ghz_prime_bound(2) - 0.9) < 1e-6
    for d, want in PRIME.items():
        assert abs(ghz_prime_bound(d) - want) < 1e-8
    with pytest.raises(WrongFamily):
        ghz_prime_bound(4)
    with pytest.raises(WrongFamily):
        ghz_prime_bound(6)


def test_prime_bound_is_self_consistent_fixed_point():
    for d in (2, 3, 5, 7, 11, 13):
        f = ghz_prime_bound(d)
        s = math.sin(theta_d(d))
        inner = 1.0 + s - (4.0 * f - 3.0) ** 2
        rhs = (d * d + (d**3 - d * d) * math.sqrt(max(0.0, inner))) / d**3
        assert abs(rhs - f) < 1e-7
        assert 0.75 < f < 1.0


def test_prime_bound_improves_on_closed_form_for_odd_primes():
    for d in (3, 5, 7, 11, 13):
        assert ghz_prime_bound(d) < ghz_closed_form_bound(d)


def pauli_operator(d, vector):
    """An (x, z, tau) vector over GHZ_PARTIES as a PauliOperator."""
    x, z, tau = vector
    return PauliOperator.from_sites(d, dict(zip(GHZ_PARTIES, zip(x, z))), tau)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_section3_chain(d):
    rec = ghz_section3_chain(d)
    # S1..S4 are the symbolic layer's GHZ elements S_abc
    abc = [(d - 1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, d // 2)]
    ops = [pauli_operator(d, s) for s in rec.stabilizers]
    assert ops == [ghz_stabilizer_element(d, *e) for e in abc]
    assert rec.all_premises_hold
    assert len(rec.premises) == 4
    assert rec.t_power == d // 2
    assert rec.kappa == (d // 2) % d
    assert rec.bound == ghz_closed_form_bound(d)
    assert rec.sin_theta == math.sin(theta_d(d))
    # the fourth stabilizer is relabeled on one leg only
    s4 = ops[3]
    moved = support(relabel(s4, dict(rec.s4_relabeling))) - support(s4)
    assert moved == {"C'"}


def test_numeric_bound_frozen_values():
    for d, want in NUMERIC.items():
        report = ghz_numeric_bound(d)
        assert report.bound_numeric == pytest.approx(want, abs=2e-6)


def _bisection(verdicts: str) -> list[tuple[float, bool]]:
    """The (f, feasible) sequence that a string of verdicts drives."""
    seq = [(0.75, verdicts[0] == "1")]
    lo, hi = 0.75, 1.0
    for bit in verdicts[1:]:
        mid = (lo + hi) / 2
        seq.append((mid, bit == "1"))
        if bit == "1":
            lo = mid
        else:
            hi = mid
    return seq


@pytest.mark.parametrize("d", sorted(NUMERIC))
def test_numeric_bound_frozen_search(d):
    report = ghz_numeric_bound(d)
    assert [(f, ok) for f, ok, _ in report.solver_trace] == _bisection(VERDICTS[d])
    assert report.bound_numeric == min(f for f, ok in _bisection(VERDICTS[d]) if not ok)
    assert report.constraints_active == ACTIVE[d]
    assert [cells for _, _, cells in report.solver_trace] == CELLS[d]


def _sub_box(rng, box):
    out = []
    for k in range(3):
        out += sorted(rng.uniform(box[2 * k], box[2 * k + 1]) for _ in range(2))
    return tuple(out)


U_VALUES = (0.0, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)


def _value(block, u, p):
    """The kernel's value at the point p: the centre of the box p x p."""
    return block.kernel(u, (p[0], p[0], p[1], p[1], p[2], p[2]))[2]


@pytest.mark.parametrize("d", sorted(NUMERIC))
def test_block_bounds_nest_and_dominate(d):
    """The two facts an early verdict rests on: a box's bound never grows
    under refinement, so a search's top bound only falls, and it is at
    least the value at every point of the box, so it is certified."""
    rng = random.Random(d)
    blocks, _, _ = _build_blocks(d)
    for block in blocks:
        for u in U_VALUES:
            for _ in range(8):
                box = (u, 1.0, -1.0, 1.0, -1.0, 1.0)
                bound = block.kernel(u, box)[0]
                for _ in range(6):
                    points = [
                        tuple(rng.uniform(box[2 * k], box[2 * k + 1]) for k in range(3))
                        for _ in range(6)
                    ]
                    points.append(box[1::2])
                    points.append(box[0::2])
                    for p in points:
                        assert bound >= _value(block, u, p)
                    child = _sub_box(rng, box)
                    child_bound = block.kernel(u, child)[0]
                    assert child_bound <= bound + 1e-12
                    box, bound = child, child_bound


def _boxes(rng, u):
    """Boxes of every shape the bound meets: nested sub-boxes of the start
    box, q and r spans across zero, below it and at it, and points."""
    box = (u, 1.0, -1.0, 1.0, -1.0, 1.0)
    yield box
    for _ in range(12):
        box = _sub_box(rng, box)
        yield box
    for _ in range(24):
        p = sorted(rng.uniform(u, 1.0) for _ in range(2))
        q = sorted(rng.choice((rng.uniform(-1.0, 1.0), 0.0, -0.5)) for _ in range(2))
        r = sorted(rng.uniform(-1.0, 0.0) for _ in range(2))
        yield (*p, *q, *r)
        yield (*p, *r, *q)
        yield (p[0], p[0], q[0], q[0], r[1], r[1])


@pytest.mark.parametrize("d", sorted(NUMERIC))
def test_kernel_equals_the_formulas_bit_for_bit(d):
    """_Block.kernel gives the formulas' bound, centre and centre value
    exactly (==, not approx), with the cap groups the +/- classes give."""
    rng = random.Random(100 + d)
    blocks, _, _ = _build_blocks(d)
    groups = ref.reference_groups(d)
    assert [block.y for block in blocks] == sorted(groups)
    for block in blocks:
        want = groups[block.y]
        assert block.groups == [(k, w, 1.0 + k, 1.0 - k * k) for k, w in want]
        for u in U_VALUES:
            for box in _boxes(rng, u):
                pt = ref.center(box)
                assert block.kernel(u, box) == (
                    ref.box_bound(block.var_weight, want, u, box),
                    pt,
                    ref.value(block.var_weight, want, u, *pt),
                ), (u, box)


def test_cap_equals_the_formula():
    """The constraints_active report reads _cap, the kernel's inlined cap."""
    rng = random.Random(7)
    for _ in range(2000):
        k, h, hh = (rng.choice((rng.uniform(-1.0, 1.0), 0.0, 1.0)) for _ in range(3))
        assert _cap(k, h, hh) == ref.cap(k, h, hh)


@pytest.mark.parametrize("d", sorted(NUMERIC))
def test_block_search_replays_the_reference(d):
    """Split by split, _BlockSearch keeps the reference search's heap,
    best value and best point: the same boxes in the same order."""
    groups = ref.reference_groups(d)
    for block in _build_blocks(d)[0]:
        for u in (0.0, 0.5, 0.8, 0.99):
            search = _BlockSearch(block, u)
            want = ref.ReferenceSearch(block.var_weight, groups[block.y], u)
            for _ in range(120):
                assert (search.heap, search.best_lb, search.best_pt, search.cells) == (
                    want.heap, want.best_lb, want.best_pt, want.cells
                )
                search.split()
                want.split()


def test_numeric_bound_invariants():
    for d in range(2, 9):
        report = ghz_numeric_bound(d)
        got = report.bound_numeric
        assert 0.75 < got <= 1.0
        assert got <= report.bound_closed_form + 1e-9
        if report.bound_prime is not None:
            assert got <= report.bound_prime + 1e-9
        assert report.constraints_active
        assert report.solver_trace
        # bisection trace: feasible fidelities all lie below infeasible ones
        feas = [f for f, ok, _ in report.solver_trace if ok]
        infeas = [f for f, ok, _ in report.solver_trace if not ok]
        assert feas and infeas
        assert max(feas) < min(infeas)
        assert got >= max(feas)  # returned ceiling is on the safe side
        assert got - max(feas) <= 2e-4  # and within bisection resolution


def test_numeric_bound_range():
    with pytest.raises(RangeError):
        ghz_numeric_bound(9)
    with pytest.raises(RangeError):
        ghz_numeric_bound(1)


def test_bound_report_dispatch():
    rep = bound_report(11)
    assert rep.bound_numeric is None
    assert rep.bound_prime == ghz_prime_bound(11)
    assert rep.bound_closed_form == ghz_closed_form_bound(11)
    rep9 = bound_report(9)
    assert rep9.bound_numeric is None and rep9.bound_prime is None
    rep3 = bound_report(3)
    assert rep3.bound_numeric is not None
