"""Time two checkouts of netcert in alternating pairs, into one BENCH_*.json.

From the repository root:

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        [--sweep n,d[,budget] ...] [--table n,d[,budget[,orbit_cap]] ...] \\
        [--table-outputs CELL ...] [--lc-orbit n,d[,cap] ...] \\
        [--verify] [--certify] [--canonical] [--ghz] --out BENCH_x.json

Each kind is a snippet that runs RUNS times in a fresh process in each
checkout (its ``src/`` on PYTHONPATH, PYTHONHASHSEED=0), the parent first on
even k and the change first on odd k; run k of each side forms pair k.  No
process reads or writes compiled bytecode: each gets PYTHONDONTWRITEBYTECODE=1
and a fresh, empty PYTHONPYCACHEPREFIX, so stale ``__pycache__`` in either
checkout is never read, and every entry records ``"bytecode": "none"``.  A
snippet prints one JSON line ``{"sha256", "times": {name: value}, ...}``:

- ``sweep n,d[,budget]``: ``multigraph._canonical_rows`` drained to the end;
  sha256 over its chunks as int64 (so the rows' dtype alone does not change
  it), with the row count and any overflow progress.
- ``table CELL``: ``exhaustive_table`` on the cell (an empty budget keeps the
  default, as in ``4,4,,5``); sha256 of the ``TableReport`` repr, and the
  process's peak RSS (``peak_rss_MB``) beside the time.
  ``--table-outputs`` runs all its cells in one process under one key, with
  one sha256 over their reprs in order.
- ``lc_orbit n,d[,cap]``: ``lc_orbit`` at orbit cap ``cap`` (default
  DEFAULT_ORBIT_CAP) on every class of the cell; sha256 over the orbits'
  graphs, paths and truncation.
- ``verify``: ``verify_obs3`` once per certificate ``certify_any`` gives for
  the ``certify_verify`` pool (seed 1 order, after the workload's warm-up);
  sha256 over all reports.
- ``certify``: one round per graph of the ``certify_verify`` pool (seed 1
  order, after the workload's warm-up): ``certify_any``, then
  ``verify_obs3`` on its certificate; the median and total ms per round
  (``median_ms``, ``total_ms``) and the shares of the total that certify and
  verify take (``certify_share``, ``verify_share``); sha256 over each
  certificate's v2 JSON with its report (a refusal's repr, if any).
- ``canonical``: ``canonical_form`` per call (best of three) on the n = 8
  graphs the pool's orbit walks key (each walk's start and every local
  complement it takes, whether or not its class key needs the canonical
  form) and on every vertex-transitive Cayley multigraph of Z8, Z2^3 and
  Z4 x Z2 over Z_2 and Z_3; sha256 of the forms.
- ``ghz``: ``ghz_numeric_bound(d)`` for d = 2..8 in turn, timed in total
  (``ghz_s``) and per d (``d2_s`` ... ``d8_s``); sha256 over the reports'
  repr, ``solver_trace`` cells included, and the cells' total (``cells``).

perfbench runs pair by seed.  Run

    PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W --seed K \\
        --seconds 60 --trace 0

for seeds K = 1, 2, ... in both checkouts, the parent first on even K; each
leaves ``.perfbench_out/report-W-seedK-trace0.json``.  Run them in checkouts
that hold no ``__pycache__`` under ``src/`` or ``perfbench/``: then both
sides compile netcert from source in every process, as a fresh checkout
does, and read the installed packages' bytecode alike (a fresh
PYTHONPYCACHEPREFIX would also hide numpy's, whose compilation then makes up
most of ``setup_s``).  Every workload with at least two seeds in both
checkouts becomes one entry, which records under ``pycache`` whether each
checkout held any: each metric of its reports is a time, and its sha256 is
over the reports' pinned outputs and failure notes.

The file is one object keyed by kind (``"sweep 5,4"``, ``"verify"``,
``"perfbench table_5x4"``), each entry in the shape ``summarize`` gives:
``identical`` (every run of both sides printed the same sha256 and extras),
the sha256 and extras, each side's ``src_sha256`` (the digest perfbench
records), and under ``times``, for each name, both sides' values, median and
IQR, plus ``change_wins``, the pairs the change reads lower, for quantities
in s, ms or MB.  A gain may be claimed only when the change wins at least 9
of 10 pairs and the medians lie further apart than the parent's IQR.

A/A check: with ``--parent`` and ``--change`` two copies of one commit every
entry must read ``identical: true``, and its wins and medians show the noise
floor of the host; BENCH_pairs.json holds such a run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = 10

SWEEP = """
import hashlib, json, sys, time
import numpy as np
from netcert.errors import EnumerationOverflow
from netcert.multigraph import DEFAULT_ENUMERATION_BUDGET, _canonical_rows
n, d, *budget = map(int, sys.argv[1:])
h, rows, overflow = hashlib.sha256(), 0, None
start = time.perf_counter()
try:
    for chunk in _canonical_rows(n, d, budget[0] if budget else DEFAULT_ENUMERATION_BUDGET):
        h.update(chunk.astype(np.int64).tobytes())
        rows += len(chunk)
except EnumerationOverflow as exc:
    overflow = [exc.examined, exc.yielded]
sweep_s = time.perf_counter() - start
print(json.dumps({
    "sha256": h.hexdigest(), "times": {"sweep_s": sweep_s}, "rows": rows, "overflow": overflow,
}))
"""

CANONICAL = """
import hashlib, itertools, json, statistics, sys, time
sys.path.insert(0, "perfbench")
import netcert, workloads
from netcert import certify, multigraph
# the graphs the walks key: each walk's start and each LC image it takes
keyed, walk, step = [], certify._graph_walk, multigraph.local_complement
certify._graph_walk = lambda g, cap: keyed.append(g) or walk(g, cap)
multigraph.local_complement = lambda g, a: keyed.append(step(g, a)) or keyed[-1]
for g in workloads.certify_stream(1):
    netcert.certify_any(g)
certify._graph_walk, multigraph.local_complement = walk, step
canonical_form = multigraph.canonical_form
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
out, h = {"times": {}}, hashlib.sha256()
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
    out[f"{name}_calls"] = len(ms)
    out["times"][f"{name}_median_ms"] = statistics.median(ms)
    out["times"][f"{name}_max_ms"] = max(ms)
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
    "sha256": h.hexdigest(),
    "times": {"median_ms": statistics.median(ms), "max_ms": max(ms), "total_ms": sum(ms)},
    "certificates": len(ms),
}))
"""

CERTIFY = """
import hashlib, json, statistics, sys, time
sys.path.insert(0, "perfbench")
import netcert, workloads
graphs = workloads.certify_stream(1)
workloads.warm_up()
h, ms, certify_ms = hashlib.sha256(), [], 0.0
for g in graphs:
    start = time.perf_counter()
    cert = netcert.certify_any(g)
    mid = time.perf_counter()
    report = netcert.verify_obs3(cert) if isinstance(cert, netcert.Certificate) else None
    end = time.perf_counter()
    ms.append((end - start) * 1e3)
    certify_ms += (mid - start) * 1e3
    if report is None:
        h.update(repr(cert).encode())
    else:
        h.update(netcert.certificate_to_json(cert).encode())
        h.update(json.dumps(report.to_json_obj(), sort_keys=True).encode())
total = sum(ms)
print(json.dumps({
    "sha256": h.hexdigest(),
    "times": {
        "median_ms": statistics.median(ms), "total_ms": total,
        "certify_share": certify_ms / total, "verify_share": 1 - certify_ms / total,
    },
    "rounds": len(ms),
}))
"""

TABLE = """
import hashlib, json, resource, sys, time
from netcert import exhaustive_table
h, table_s = hashlib.sha256(), 0.0
for cell in sys.argv[1:]:
    n, d, *rest = (int(x) if x else None for x in cell.split(","))
    kwargs = {k: v for k, v in zip(("budget", "orbit_cap"), rest) if v is not None}
    start = time.perf_counter()
    report = exhaustive_table(n, d, **kwargs)
    table_s += time.perf_counter() - start
    h.update(repr(report).encode())
peak_rss_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
times = {"table_s": table_s, "peak_rss_MB": peak_rss_MB}
print(json.dumps({"sha256": h.hexdigest(), "times": times}))
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
    "sha256": h.hexdigest(),
    "times": {"lc_orbit_s": sum(ms) / 1e3, "median_ms": statistics.median(ms)},
    "classes": len(ms),
}))
"""

GHZ = """
import hashlib, json, time
from netcert import ghz_numeric_bound
h, times, cells = hashlib.sha256(), {}, 0
for d in range(2, 9):
    start = time.perf_counter()
    report = ghz_numeric_bound(d)
    times[f"d{d}_s"] = time.perf_counter() - start
    h.update(repr(report).encode())
    cells += sum(c for _, _, c in report.solver_trace)
times = {"ghz_s": sum(times.values()), **times}
print(json.dumps({"sha256": h.hexdigest(), "times": times, "cells": cells}))
"""


def source_digest(root: Path) -> str:
    """The ``src_sha256`` perfbench records: every ``src/netcert/*.py`` with its name."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "netcert").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fresh_run(root: Path, code: str, *args: str) -> dict:
    """The JSON line a snippet prints, run in a fresh process in ``root``
    that neither reads nor writes compiled bytecode."""
    with tempfile.TemporaryDirectory() as prefix:
        env = dict(
            os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
            PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=prefix,
        )
        out = subprocess.run(
            [sys.executable, "-c", code, *args],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
    return {"src_sha256": source_digest(root), "bytecode": "none", **json.loads(out.stdout)}


def holds_pycache(root: Path) -> bool:
    """Whether the checkout holds compiled bytecode under ``src/`` or ``perfbench/``."""
    return any(next((root / d).rglob("__pycache__"), None) for d in ("src", "perfbench"))


def alternating(parent: Path, change: Path, run) -> dict[str, list[dict]]:
    """``run(root)`` in each checkout RUNS times, parent first on even k."""
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(RUNS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run(parent if side == "parent" else change))
    return results


def summarize(results: dict[str, list[dict]]) -> dict:
    """One entry from paired results ``{"parent": [...], "change": [...]}``.

    Result k of each side forms pair k.  Each result is a snippet's line with
    the ``src_sha256`` of its checkout; a perfbench report also names the
    ``units`` of its times, while a snippet's time takes the suffix of its
    name (``table_s``, ``median_ms``).  Everything else a result holds is
    output, which must be the same in every run for ``identical``.
    """

    def output(result: dict) -> dict:
        return {k: v for k, v in result.items() if k not in ("src_sha256", "times", "units")}

    first = results["change"][0]
    runs = [json.dumps(output(r), sort_keys=True) for res in results.values() for r in res]
    entry: dict = {
        "identical": len(set(runs)) == 1,
        **output(first),
        "src_sha256": {
            side: sorted({r["src_sha256"] for r in res}) for side, res in results.items()
        },
        "pairs": len(results["change"]),
        "times": {},
    }
    for name in first["times"]:
        unit = first.get("units", {}).get(name, name.rsplit("_", 1)[-1])
        timed: dict = {"unit": unit}
        for side, res in results.items():
            values = [r["times"][name] for r in res]
            q = statistics.quantiles(values, n=4)
            timed[side] = {
                "values": values, "median": statistics.median(values), "iqr": q[2] - q[0],
            }
        if unit in ("s", "ms", "MB"):
            pairs = zip(timed["change"]["values"], timed["parent"]["values"])
            timed["change_wins"] = sum(after < before for after, before in pairs)
        entry["times"][name] = timed
    return entry


def perfbench(parent: Path, change: Path) -> dict[str, dict]:
    """One entry per workload whose trace-0 reports both checkouts hold, paired by seed."""
    sides: dict[str, dict] = {"parent": {}, "change": {}}
    for side, root in (("parent", parent), ("change", change)):
        for path in (root / ".perfbench_out").glob("report-*-trace0.json"):
            report = json.loads(path.read_text())
            pinned = json.dumps([report["outputs"], report["notes"]], sort_keys=True)
            sides[side][report["workload"], report["seed"]] = {
                "src_sha256": report["env"]["src_sha256"],
                "sha256": hashlib.sha256(pinned.encode()).hexdigest(),
                "times": {m: v["value"] for m, v in report["metrics"].items()},
                "units": {m: v["unit"] for m, v in report["metrics"].items()},
            }
    common = sorted(sides["parent"].keys() & sides["change"].keys())
    pycache = {"parent": holds_pycache(parent), "change": holds_pycache(change)}
    entries = {}
    for workload in sorted({w for w, _ in common}):
        seeds = [seed for w, seed in common if w == workload]
        if len(seeds) < 2:
            raise SystemExit(f"bench_pairs: {workload} needs two seeds run in both checkouts")
        results = {side: [runs[workload, seed] for seed in seeds] for side, runs in sides.items()}
        entry = {"seeds": seeds, "pycache": pycache, **summarize(results)}
        entries[f"perfbench {workload}"] = entry
    return entries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--sweep", nargs="+", default=[], metavar="n,d[,budget]")
    ap.add_argument("--canonical", action="store_true", help="time canonical_form per call")
    ap.add_argument("--verify", action="store_true", help="time verify_obs3 per certificate")
    ap.add_argument(
        "--certify", action="store_true", help="time certify_any then verify_obs3 per graph"
    )
    ap.add_argument("--ghz", action="store_true", help="time ghz_numeric_bound for d = 2..8")
    ap.add_argument("--table", nargs="+", default=[], metavar="n,d[,budget[,orbit_cap]]")
    ap.add_argument("--table-outputs", nargs="+", default=[], metavar="n,d[,budget[,orbit_cap]]")
    ap.add_argument("--lc-orbit", nargs="+", default=[], metavar="n,d[,cap]")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    jobs = [(f"sweep {cell}", SWEEP, cell.split(",")) for cell in args.sweep]
    jobs += [(f"table {cell}", TABLE, [cell]) for cell in args.table]
    if args.table_outputs:
        jobs.append((f"table {' '.join(args.table_outputs)}", TABLE, args.table_outputs))
    jobs += [(f"lc_orbit {cell}", LC_ORBIT, cell.split(",")) for cell in args.lc_orbit]
    if args.verify:
        jobs.append(("verify", VERIFY, []))
    if args.certify:
        jobs.append(("certify", CERTIFY, []))
    if args.canonical:
        jobs.append(("canonical", CANONICAL, []))
    if args.ghz:
        jobs.append(("ghz", GHZ, []))
    out = {
        key: summarize(
            alternating(args.parent, args.change, lambda root: fresh_run(root, code, *argv))
        )
        for key, code, argv in jobs
    }
    out.update(perfbench(args.parent, args.change))
    for key, entry in out.items():
        print(f"{key}: identical {entry['identical']}, sha256 {entry['sha256'][:16]}")
        for name, timed in entry["times"].items():
            before, after = timed["parent"], timed["change"]
            wins = ""
            if "change_wins" in timed:
                wins = f", change wins {timed['change_wins']}/{entry['pairs']}"
            print(
                f"  {name}: parent {before['median']:.4g} (IQR {before['iqr']:.3g}), "
                f"change {after['median']:.4g} (IQR {after['iqr']:.3g}){wins}"
            )
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
