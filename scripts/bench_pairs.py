"""Collect paired perfbench reports of two checkouts into one BENCH_*.json.

Run alternating pairs of

    python3 perfbench/run.py --workload W --seed K --seconds 60 --trace 0

for seeds K, once in a checkout of the parent commit and once in a checkout
of the change, parent first for odd K and change first for even K; each run
leaves ``.perfbench_out/report-W-seedK-trace0.json`` in its checkout, and
the two runs of one seed form a pair.  Then, from the repository root:

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload W [--workload W2 ...] --metrics M [M ...] --out BENCH_x.json

writes, per workload, the chosen metrics of every run, both commits, the pair
count, per-side medians and interquartile ranges, and the number of pairs the
change wins on each metric (all metrics are lower-is-better).  The defaults
(``table_5x4``; ``wall_s ghz_s op_p50_ms``; ``BENCH_ghz.json``) rebuild
BENCH_ghz.json from its runs.

``--sweep n,d[,budget] ...`` also times the enumeration sweep
(``multigraph._canonical_rows``, drained to the end) of each cell in fresh
processes, SWEEP_RUNS times per checkout and alternating which goes first,
and records each side's times, the sha256 of its rows with their count and
overflow progress, and whether the two sides' outputs agree.
``--canonical`` likewise times ``canonical_form`` per call, in fresh
processes, on two sets of n = 8 graphs: those the ``certify_verify`` pool's
orbit walks key, and every vertex-transitive Cayley multigraph of Z8, Z2^3
and Z4 x Z2 over Z_2 and Z_3 (each call the best of three), and records
per-call medians and maxima and a sha256 of the forms.  ``--verify`` times
``verify_obs3`` once per certificate, in fresh processes, VERIFY_RUNS times
per checkout and alternating which goes first, on the certificates
``certify_any`` gives for the ``certify_verify`` pool (seed 1 order, after
the workload's warm-up), and records each run's median, maximum and total
and one sha256 over all its reports.  ``--table n,d[,budget[,orbit_cap]] ...``
times ``exhaustive_table`` on each cell in fresh processes, TABLE_RUNS times
per checkout and alternating which goes first, and records each side's times
and the sha256 of its ``TableReport`` repr (an empty budget keeps the
default, as in ``4,4,,5``).  ``--table-outputs CELL ...`` runs every cell it
names once per checkout, in one fresh process each, and records one sha256
over their reprs in order.  ``--lc-orbit n,d[,cap] ...`` times ``lc_orbit``
(at orbit cap ``cap``, default DEFAULT_ORBIT_CAP) on every class of each
cell, in fresh processes, LC_ORBIT_RUNS times per checkout and alternating
which goes first, and records each side's total and per-call median times
and a sha256 of the orbits' graphs, paths and truncation.  With one
workload and no option the file holds that workload's object, as
BENCH_ghz.json does; otherwise ``{"workloads": [...], "sweep": [...]}``,
plus ``"canonical"``, ``"verify"``, ``"table"``, ``"table_outputs"`` and
``"lc_orbit"``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SWEEP_RUNS = 5
VERIFY_RUNS = 10
TABLE_RUNS = 5
LC_ORBIT_RUNS = 5

SWEEP = """
import hashlib, json, sys, time
from netcert.errors import EnumerationOverflow
from netcert.multigraph import DEFAULT_ENUMERATION_BUDGET, _canonical_rows
n, d, *budget = map(int, sys.argv[1:])
h, rows, overflow = hashlib.sha256(), 0, None
start = time.perf_counter()
try:
    for chunk in _canonical_rows(n, d, budget[0] if budget else DEFAULT_ENUMERATION_BUDGET):
        h.update(chunk.tobytes())
        rows += len(chunk)
except EnumerationOverflow as exc:
    overflow = [exc.examined, exc.yielded]
sweep_s = time.perf_counter() - start
print(json.dumps({"sweep_s": sweep_s, "sha256": h.hexdigest(), "rows": rows, "overflow": overflow}))
"""

CANONICAL = """
import hashlib, itertools, json, statistics, sys, time
sys.path.insert(0, "perfbench")
import netcert, workloads
from netcert import multigraph
keyed, canonical_form = [], multigraph.canonical_form
multigraph.canonical_form = lambda g: keyed.append(g) or canonical_form(g)
for g in workloads.certify_stream(1):
    netcert.certify_any(g)
multigraph.canonical_form = canonical_form
groups = [
    (lambda a, b: (a + b) % 8, lambda a: -a % 8),
    (lambda a, b: a ^ b, lambda a: a),
    (lambda a, b: (a + b) % 4 + (a ^ b) // 4 * 4, lambda a: -a % 4 + a // 4 * 4),
]
cayley = []
for d, (add, neg) in itertools.product((2, 3), groups):
    classes = sorted({frozenset((s, neg(s))) for s in range(1, 8)}, key=min)
    for ws in itertools.product(range(d), repeat=len(classes)):
        w = {s: x for c, x in zip(classes, ws) for s in c}
        eds = [(a, b, w[add(b, neg(a))]) for a in range(8) for b in range(a + 1, 8)]
        cayley.append(netcert.Multigraph.from_edges(d, 8, [e for e in eds if e[2]]))
out, h = {}, hashlib.sha256()
for name, graphs in (("pool_n8", [g for g in keyed if g.n == 8]), ("cayley_n8", cayley)):
    ms = []
    for g in graphs:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            form = canonical_form(g)
            best = min(best, time.perf_counter() - start)
        ms.append(best * 1e3)
        h.update(repr(form).encode())
    out[name] = {"calls": len(ms), "median_ms": statistics.median(ms), "max_ms": max(ms)}
out["sha256"] = h.hexdigest()
print(json.dumps(out))
"""

VERIFY = """
import hashlib, json, statistics, sys, time
sys.path.insert(0, "perfbench")
import netcert, workloads
certs = [netcert.certify_any(g) for g in workloads.certify_stream(1)]
workloads.warm_up()
ms, reports = [], []
for cert in certs:
    start = time.perf_counter()
    reports.append(netcert.verify_obs3(cert))
    ms.append((time.perf_counter() - start) * 1e3)
h = hashlib.sha256()
for report in reports:
    h.update(json.dumps(report.to_json_obj(), sort_keys=True).encode())
print(json.dumps({
    "certificates": len(ms), "median_ms": statistics.median(ms), "max_ms": max(ms),
    "total_ms": sum(ms), "sha256": h.hexdigest(),
}))
"""

TABLE = """
import hashlib, json, sys, time
from netcert import exhaustive_table
h, times = hashlib.sha256(), []
for cell in sys.argv[1:]:
    n, d, *rest = (int(x) if x else None for x in cell.split(","))
    kwargs = {k: v for k, v in zip(("budget", "orbit_cap"), rest) if v is not None}
    start = time.perf_counter()
    report = exhaustive_table(n, d, **kwargs)
    times.append(time.perf_counter() - start)
    h.update(repr(report).encode())
print(json.dumps({"table_s": times, "sha256": h.hexdigest()}))
"""

LC_ORBIT = """
import hashlib, json, statistics, sys, time
from netcert import enumerate_connected_multigraphs, lc_orbit
from netcert.multigraph import DEFAULT_ORBIT_CAP
n, d, *cap = map(int, sys.argv[1:])
cap = cap[0] if cap else DEFAULT_ORBIT_CAP
h, ms = hashlib.sha256(), []
for g in enumerate_connected_multigraphs(n, d):
    start = time.perf_counter()
    orbit = lc_orbit(g, cap)
    ms.append((time.perf_counter() - start) * 1e3)
    h.update(repr((orbit.graphs, orbit.paths, orbit.truncated)).encode())
print(json.dumps({
    "classes": len(ms), "lc_orbit_s": sum(ms) / 1e3, "median_ms": statistics.median(ms),
    "sha256": h.hexdigest(),
}))
"""


def load(root: Path, workload: str) -> dict[int, dict]:
    """Reports of one workload in one checkout, by seed."""
    pattern = re.compile(rf"report-{re.escape(workload)}-seed(\d+)-trace0\.json")
    runs = {}
    for path in (root / ".perfbench_out").glob(f"report-{workload}-seed*-trace0.json"):
        match = pattern.fullmatch(path.name)
        if match:
            runs[int(match.group(1))] = json.loads(path.read_text())
    return runs


def quartile_spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def side(runs: dict[int, dict], seeds: list[int], metrics: list[str]) -> dict:
    reports = [runs[seed] for seed in seeds]
    values = {m: [r["metrics"][m]["value"] for r in reports] for m in metrics}
    return {
        "commit": sorted({r["env"]["git_commit"] for r in reports}),
        "src_sha256": sorted({r["env"]["src_sha256"] for r in reports}),
        "runs": [
            {"seed": seed, **{m: values[m][k] for m in metrics}, "notes": reports[k]["notes"]}
            for k, seed in enumerate(seeds)
        ],
        "median": {m: statistics.median(v) for m, v in values.items()},
        "iqr": {m: quartile_spread(v) for m, v in values.items()},
    }


def pairs(parent: Path, change: Path, workload: str, metrics: list[str]) -> dict:
    before_runs, after_runs = load(parent, workload), load(change, workload)
    seeds = sorted(before_runs.keys() & after_runs.keys())
    if len(seeds) < 2:
        raise SystemExit(f"bench_pairs: need at least two {workload} seeds run in both checkouts")
    before, after = side(before_runs, seeds, metrics), side(after_runs, seeds, metrics)
    wins = {m: sum(a[m] < b[m] for a, b in zip(after["runs"], before["runs"])) for m in metrics}
    env = after_runs[seeds[0]]["env"]
    for m in metrics:
        print(
            f"{workload} {m}: parent median {before['median'][m]:.4g} "
            f"(IQR {before['iqr'][m]:.3g}), change median {after['median'][m]:.4g}, "
            f"change wins {wins[m]}/{len(seeds)}"
        )
    return {
        "workload": workload,
        "pairs": len(seeds),
        "env": {k: env[k] for k in ("cpu_model", "nproc", "python", "numpy", "blas_threads")},
        "parent": before,
        "change": after,
        "change_wins": wins,
    }


def fresh_run(root: Path, code: str, *args: str) -> dict:
    """The JSON line a snippet prints, run in a fresh process in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def alternating(parent: Path, change: Path, runs: int, run) -> dict[str, list[dict]]:
    """``run(root)`` in each checkout ``runs`` times, parent first on even k."""
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(runs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in order:
            results[name].append(run(parent if name == "parent" else change))
    return results


def sweep(parent: Path, change: Path, cell: list[int]) -> dict:
    results = alternating(
        parent, change, SWEEP_RUNS, lambda root: fresh_run(root, SWEEP, *map(str, cell))
    )
    outputs = {
        name: {(r["sha256"], r["rows"], str(r["overflow"])) for r in res}
        for name, res in results.items()
    }
    first = results["change"][0]
    entry = {
        "cell": cell,
        "identical": len(outputs["parent"] | outputs["change"]) == 1,
        "sha256": first["sha256"],
        "rows": first["rows"],
        "overflow": first["overflow"],
    }
    for name, res in results.items():
        times = [r["sweep_s"] for r in res]
        entry[name] = {"sweep_s": times, "median": statistics.median(times)}
    entry["speedup"] = entry["parent"]["median"] / entry["change"]["median"]
    print(
        f"sweep {cell}: parent {entry['parent']['median']:.3f} s, change "
        f"{entry['change']['median']:.3f} s, x{entry['speedup']:.1f}, "
        f"identical {entry['identical']}"
    )
    return entry


def canonical(parent: Path, change: Path) -> dict:
    results = alternating(parent, change, SWEEP_RUNS, lambda root: fresh_run(root, CANONICAL))
    entry: dict = {"identical": len({r["sha256"] for res in results.values() for r in res}) == 1}
    for name, res in results.items():
        entry[name] = {
            graphs: {
                "calls": res[0][graphs]["calls"],
                "median_ms": [r[graphs]["median_ms"] for r in res],
                "max_ms": [r[graphs]["max_ms"] for r in res],
            }
            for graphs in ("pool_n8", "cayley_n8")
        }
    for graphs in ("pool_n8", "cayley_n8"):
        before, after = (
            statistics.median(entry[side][graphs]["median_ms"]) for side in ("parent", "change")
        )
        print(
            f"canonical_form {graphs}: parent {before:.3f} ms a call, change {after:.3f} ms, "
            f"identical {entry['identical']}"
        )
    return entry


def verify(parent: Path, change: Path) -> dict:
    results = alternating(parent, change, VERIFY_RUNS, lambda root: fresh_run(root, VERIFY))
    entry: dict = {
        "certificates": results["change"][0]["certificates"],
        "identical": len({r["sha256"] for res in results.values() for r in res}) == 1,
        "sha256": results["change"][0]["sha256"],
    }
    for name, res in results.items():
        entry[name] = {key: [r[key] for r in res] for key in ("median_ms", "max_ms", "total_ms")}
        entry[name]["median"] = statistics.median(entry[name]["median_ms"])
        entry[name]["iqr"] = quartile_spread(entry[name]["median_ms"])
    entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
    pairs_ms = zip(entry["change"]["median_ms"], entry["parent"]["median_ms"])
    entry["change_wins"] = sum(after < before for after, before in pairs_ms)
    print(
        f"verify_obs3: parent {entry['parent']['median']:.3f} ms a certificate, change "
        f"{entry['change']['median']:.3f} ms, ratio {entry['ratio']:.2f}, "
        f"identical {entry['identical']}"
    )
    return entry


def table(parent: Path, change: Path, cell: str) -> dict:
    results = alternating(parent, change, TABLE_RUNS, lambda root: fresh_run(root, TABLE, cell))
    entry: dict = {
        "cell": cell,
        "identical": len({r["sha256"] for res in results.values() for r in res}) == 1,
        "sha256": results["change"][0]["sha256"],
    }
    for name, res in results.items():
        times = [r["table_s"][0] for r in res]
        entry[name] = {"table_s": times, "median": statistics.median(times)}
    entry["speedup"] = entry["parent"]["median"] / entry["change"]["median"]
    print(
        f"table {cell}: parent {entry['parent']['median']:.3f} s, change "
        f"{entry['change']['median']:.3f} s, x{entry['speedup']:.2f}, "
        f"identical {entry['identical']}"
    )
    return entry


def lc_orbit(parent: Path, change: Path, cell: str) -> dict:
    results = alternating(
        parent, change, LC_ORBIT_RUNS, lambda root: fresh_run(root, LC_ORBIT, *cell.split(","))
    )
    entry: dict = {
        "cell": cell,
        "classes": results["change"][0]["classes"],
        "identical": len({r["sha256"] for res in results.values() for r in res}) == 1,
        "sha256": results["change"][0]["sha256"],
    }
    for name, res in results.items():
        times = [r["lc_orbit_s"] for r in res]
        entry[name] = {
            "lc_orbit_s": times,
            "median_ms": [r["median_ms"] for r in res],
            "median": statistics.median(times),
        }
    entry["speedup"] = entry["parent"]["median"] / entry["change"]["median"]
    print(
        f"lc_orbit {cell}: parent {entry['parent']['median']:.3f} s, change "
        f"{entry['change']['median']:.3f} s, x{entry['speedup']:.2f}, "
        f"identical {entry['identical']}"
    )
    return entry


def table_outputs(parent: Path, change: Path, cells: list[str]) -> dict:
    entry: dict = {"cells": cells}
    for name, root in (("parent", parent), ("change", change)):
        entry[name] = fresh_run(root, TABLE, *cells)["sha256"]
    entry["identical"] = entry["parent"] == entry["change"]
    print(f"table outputs of {len(cells)} cells: identical {entry['identical']}")
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", help="perfbench workload (repeatable)")
    ap.add_argument("--metrics", nargs="+", default=["wall_s", "ghz_s", "op_p50_ms"])
    ap.add_argument("--sweep", nargs="+", default=[], metavar="n,d[,budget]")
    ap.add_argument("--canonical", action="store_true", help="time canonical_form per call")
    ap.add_argument("--verify", action="store_true", help="time verify_obs3 per certificate")
    ap.add_argument("--table", nargs="+", default=[], metavar="n,d[,budget[,orbit_cap]]")
    ap.add_argument("--table-outputs", nargs="+", default=[], metavar="n,d[,budget[,orbit_cap]]")
    ap.add_argument("--lc-orbit", nargs="+", default=[], metavar="n,d[,cap]")
    ap.add_argument("--out", type=Path, default=Path("BENCH_ghz.json"))
    args = ap.parse_args()
    workloads = args.workload or ["table_5x4"]
    reports = [pairs(args.parent, args.change, w, args.metrics) for w in workloads]
    cells = [[int(x) for x in cell.split(",")] for cell in args.sweep]
    sweeps = [sweep(args.parent, args.change, cell) for cell in cells]
    extra = args.canonical or args.verify or args.table or args.table_outputs or args.lc_orbit
    if len(reports) == 1 and not sweeps and not extra:
        out = reports[0]
    else:
        out = {"workloads": reports, "sweep": sweeps}
        if args.canonical:
            out["canonical"] = canonical(args.parent, args.change)
        if args.verify:
            out["verify"] = verify(args.parent, args.change)
        if args.table:
            out["table"] = [table(args.parent, args.change, cell) for cell in args.table]
        if args.table_outputs:
            out["table_outputs"] = table_outputs(args.parent, args.change, args.table_outputs)
        if args.lc_orbit:
            out["lc_orbit"] = [lc_orbit(args.parent, args.change, cell) for cell in args.lc_orbit]
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
