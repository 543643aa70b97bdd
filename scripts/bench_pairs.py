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
overflow progress, and whether the two sides' outputs agree.  With
one workload and no ``--sweep`` the file holds that workload's object, as
BENCH_ghz.json does; otherwise ``{"workloads": [...], "sweep": [...]}``.
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


def sweep_once(root: Path, cell: list[int]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", SWEEP, *map(str, cell)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def sweep(parent: Path, change: Path, cell: list[int]) -> dict:
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(SWEEP_RUNS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in order:
            results[name].append(sweep_once(parent if name == "parent" else change, cell))
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", help="perfbench workload (repeatable)")
    ap.add_argument("--metrics", nargs="+", default=["wall_s", "ghz_s", "op_p50_ms"])
    ap.add_argument("--sweep", nargs="+", default=[], metavar="n,d[,budget]")
    ap.add_argument("--out", type=Path, default=Path("BENCH_ghz.json"))
    args = ap.parse_args()
    workloads = args.workload or ["table_5x4"]
    reports = [pairs(args.parent, args.change, w, args.metrics) for w in workloads]
    cells = [[int(x) for x in cell.split(",")] for cell in args.sweep]
    sweeps = [sweep(args.parent, args.change, cell) for cell in cells]
    if len(reports) == 1 and not sweeps:
        out = reports[0]
    else:
        out = {"workloads": reports, "sweep": sweeps}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
