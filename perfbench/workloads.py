"""One workload process of the netcert benchmark.

``run.py`` starts this script in a fresh interpreter for every set-up and
every timed pass, so imports, caches and lazy set-up are paid the way a
real caller pays them.  The process imports netcert, builds its inputs
from ``--seed``, makes one warm-up call into each layer on an input outside
the timed set, prints a ``ready`` line, and (with ``--timed 1``) runs the
timed section and prints a ``result`` line.  Both lines are JSON.

The workload drives netcert only through its public functions, looked up
on the package at call time so that the layer trace sees every call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import netcert
from layertrace import LayerTrace

UNIVERSAL_CAP = 0.954951

TABLE_CELL = (5, 4)
TABLE_TOTAL = 10_364
TABLE_MIN_CERTIFIED = 10_362

# certify_verify: the graphs come from one fixed pool, drawn once from
# POOL_SEED over every (n, d, density) stratum; --seed shuffles their order.
# A fresh draw per seed, or even a fresh vertex labelling, moves total time
# several-fold (13.6 s to 28.9 s over four relabelled seeds): the few dense
# n = 8 graphs that need the orbit walk take 0.3 s to over 15 s each,
# depending on when the breadth-first walk reaches a certifiable member.
POOL_SEED = 0
POOL_N = (5, 6, 7, 8)
POOL_D = (2, 3, 4, 5, 6, 7)
POOL_DENSITY = (0.3, 0.5, 0.7)
POOL_PER_STRATUM = 3

GHZ_DIMENSIONS = tuple(range(2, 9))
GHZ_PRIMES = frozenset({2, 3, 5, 7})
# Pinned by tests/test_acceptance.py, criteria 6-8.
GHZ_CLOSED_ROUNDED = {2: 0.900, 3: 0.955, 4: 0.900, 5: 0.935}
GHZ_PRIME_PINNED = {2: (0.900, 1e-6), 3: (0.951, 0.002), 5: (0.925, 0.002)}
GHZ_NUMERIC_PINNED = {2: 0.893, 3: 0.950, 4: 0.881, 5: 0.925}


def random_connected(rng: np.random.Generator, n: int, d: int, p: float) -> netcert.Multigraph:
    while True:
        edges = [
            (i, j, int(rng.integers(1, d)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = netcert.Multigraph.from_edges(d, n, edges)
        if netcert.is_connected(g):
            return g


def certify_stream(seed: int) -> list[netcert.Multigraph]:
    """The seeded certify_verify stream: the pool graphs in a shuffled order."""
    pool_rng = np.random.default_rng(POOL_SEED)
    pool = [
        random_connected(pool_rng, n, d, p)
        for n in POOL_N
        for d in POOL_D
        for p in POOL_DENSITY
        for _ in range(POOL_PER_STRATUM)
    ]
    order = np.random.default_rng(seed).permutation(len(pool))
    return [pool[int(k)] for k in order]


def make_inputs(workload: str, seed: int) -> list:
    """Operations of one workload; only certify_verify depends on the seed."""
    if workload == "table_5x4":
        return [TABLE_CELL, *GHZ_DIMENSIONS]
    return certify_stream(seed)


def digest(workload: str, inputs: list) -> str:
    """sha256 over the inputs, so two runs can show they saw the same ones."""
    items = [g.to_json_obj() if isinstance(g, netcert.Multigraph) else g for g in inputs]
    blob = json.dumps([workload, items], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def warm_up() -> None:
    """One call into each layer, on inputs no workload times."""
    g = netcert.Multigraph.from_edges(3, 4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
    sum(1 for _ in netcert.enumerate_connected_multigraphs(3, 2))
    netcert.lc_orbit(g)
    cert = netcert.certify_any(g)
    netcert.verify_obs3(cert)
    netcert.exhaustive_table(3, 2)
    netcert.ghz_prime_bound(11)
    netcert.ghz_closed_form_bound(11)


class Tally:
    """Operations attempted, failed and refused, plus latency samples."""

    def __init__(self) -> None:
        self.attempted = 0  # operations started
        self.failed = 0
        self.refused = 0
        self.latency: list[float] = []
        self.extra: dict[str, object] = {}
        self.samples: dict[str, list[float]] = {}
        self.notes: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.append(why)


def run_table(inputs, tally: Tally, trace, deadline: float) -> None:
    """The (5,4) table, then the GHZ ceilings: the two sweeps of the paper."""
    (n, d), dims = inputs[0], inputs[1:]
    tally.attempted += 1
    if trace:
        trace.request = 0
    try:
        t = time.perf_counter()
        report = netcert.exhaustive_table(n, d, workers=1)
        tally.latency.append(time.perf_counter() - t)
    except Exception:
        traceback.print_exc()
        tally.fail(f"({n},{d}) raised")
    else:
        refused = report.total - report.certified
        tally.refused += refused
        tally.extra.update(
            classes=report.total,
            certified=report.certified,
            refused_classes=refused,
            methods=dict(report.methods),
        )
        if not report.complete or report.total != TABLE_TOTAL:
            tally.fail(f"({n},{d}) total {report.total}, pinned {TABLE_TOTAL}")
        elif report.certified < TABLE_MIN_CERTIFIED:
            tally.fail(f"({n},{d}) certified {report.certified} < {TABLE_MIN_CERTIFIED}")
    run_ghz(dims, tally, trace)


def run_certify_verify(stream, tally: Tally, trace, deadline: float) -> None:
    certify_s: list[float] = []
    verify_s: list[float] = []
    for k, g in enumerate(stream):
        if k and time.monotonic() > deadline:
            tally.extra["skipped_after_deadline"] = len(stream) - k
            break
        tally.attempted += 1
        if trace:
            trace.request = k
        try:
            t0 = time.perf_counter()
            result = netcert.certify_any(g)
            t1 = time.perf_counter()
            certify_s.append(t1 - t0)
            if not isinstance(result, netcert.Certificate):
                tally.refused += 1
                tally.latency.append(t1 - t0)
                continue
            report = netcert.verify_obs3(result)
            t2 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            tally.fail(f"graph {k} raised")
            continue
        verify_s.append(t2 - t1)
        tally.latency.append(t2 - t0)
        bound = result.fidelity_bound
        if not report.all_passed:
            tally.fail(f"graph {k}: verify_obs3 failed {[c.name for c in report.failed()]}")
        elif bound > UNIVERSAL_CAP or (g.d == 2 and bound != 0.9):
            tally.fail(f"graph {k}: fidelity_bound {bound} out of range at d={g.d}")
    tally.samples["certify"] = certify_s
    tally.samples["verify"] = verify_s


def run_ghz(dims, tally: Tally, trace) -> None:
    ghz_s = tally.samples.setdefault("ghz", [])
    for d in dims:
        tally.attempted += 1
        if trace:
            trace.request = d
        try:
            t = time.perf_counter()
            closed = netcert.ghz_closed_form_bound(d)
            prime = netcert.ghz_prime_bound(d) if d in GHZ_PRIMES else None
            numeric = netcert.ghz_numeric_bound(d).bound_numeric
            ghz_s.append(time.perf_counter() - t)
        except Exception:
            traceback.print_exc()
            tally.fail(f"d={d} raised")
            continue
        problems = []
        if d in GHZ_CLOSED_ROUNDED and round(closed, 3) != GHZ_CLOSED_ROUNDED[d]:
            problems.append(f"closed form {closed}")
        if d in GHZ_PRIME_PINNED:
            want, tol = GHZ_PRIME_PINNED[d]
            if abs(prime - want) > tol:
                problems.append(f"prime bound {prime}")
        if d in GHZ_NUMERIC_PINNED and abs(numeric - GHZ_NUMERIC_PINNED[d]) > 0.01:
            problems.append(f"numeric bound {numeric}")
        if numeric > closed + 1e-12 or (prime is not None and numeric > prime + 1e-12):
            problems.append(f"numeric bound {numeric} above a coarser bound")
        if problems:
            tally.fail(f"d={d}: " + ", ".join(problems))


RUNNERS = {"table_5x4": run_table, "certify_verify": run_certify_verify}


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="no new operation starts this long after the timed section began")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--timed", type=int, choices=(0, 1), default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    args = ap.parse_args()

    inputs = make_inputs(args.workload, args.seed)
    warm_up()
    emit({
        "event": "ready",
        "setup_s": time.monotonic() - args.t0,
        "digest": digest(args.workload, inputs),
        "inputs": len(inputs),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "netcert_cap": os.environ.get("NETCERT_CAP", "unset"),
    })
    if not args.timed:
        return 0

    tally = Tally()
    trace = LayerTrace() if args.trace else None
    if trace:
        trace.install()
    start = time.perf_counter()
    deadline = time.monotonic() + args.seconds
    RUNNERS[args.workload](inputs, tally, trace, deadline)
    wall = time.perf_counter() - start
    event = {
        "event": "result",
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "refused": tally.refused,
        "latency_s": tally.latency,
        "samples_s": tally.samples,
        "extra": tally.extra,
        "notes": tally.notes,
    }
    if trace:
        trace.uninstall()
        event["layers"] = trace.per_function()
        event["counters"] = {
            "classes": trace.classes,
            "certificates": trace.certificates,
            "lc_certificates": trace.lc_certificates,
            "ghz_cells": trace.ghz_cells,
            "ghz_bisections": trace.ghz_bisections,
            "spans": len(trace.arrays()["start"]),
        }
        if args.spans:
            trace.save(args.spans)
    emit(event)
    return 0


if __name__ == "__main__":
    sys.exit(main())
