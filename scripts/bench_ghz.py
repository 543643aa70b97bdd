"""Collect table_5x4 perfbench reports of two checkouts into BENCH_ghz.json.

Run alternating pairs of

    python3 perfbench/run.py --workload table_5x4 --seed K --seconds 60 --trace 0

with seeds K = 1..N, once in a checkout of the parent commit and once in a
checkout of the change; each run leaves
``.perfbench_out/report-table_5x4-seedK-trace0.json`` in its checkout, and the
two runs of one seed form a pair.  Then, from the repository root:

    python3 scripts/bench_ghz.py --parent PARENT_DIR --change CHANGE_DIR

writes ``wall_s``, ``ghz_s`` and ``op_p50_ms`` of every run, both commits, the
pair count, per-side medians and interquartile ranges, and the number of pairs
the change wins on each metric (all three are lower-is-better).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

METRICS = ("wall_s", "ghz_s", "op_p50_ms")
REPORT = re.compile(r"report-table_5x4-seed(\d+)-trace0\.json")


def load(root: Path) -> dict[int, dict]:
    """Reports of one checkout, by seed."""
    runs = {}
    for path in (root / ".perfbench_out").glob("report-table_5x4-seed*-trace0.json"):
        match = REPORT.fullmatch(path.name)
        if match:
            runs[int(match.group(1))] = json.loads(path.read_text())
    return runs


def side(runs: dict[int, dict], seeds: list[int]) -> dict:
    reports = [runs[seed] for seed in seeds]
    values = {m: [r["metrics"][m]["value"] for r in reports] for m in METRICS}
    q = {m: statistics.quantiles(v, n=4) for m, v in values.items()}
    return {
        "commit": sorted({r["env"]["git_commit"] for r in reports}),
        "src_sha256": sorted({r["env"]["src_sha256"] for r in reports}),
        "runs": [
            {"seed": seed, **{m: values[m][k] for m in METRICS}, "notes": reports[k]["notes"]}
            for k, seed in enumerate(seeds)
        ],
        "median": {m: statistics.median(v) for m, v in values.items()},
        "iqr": {m: q[m][2] - q[m][0] for m in METRICS},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, default=Path("BENCH_ghz.json"))
    args = ap.parse_args()
    parent, change = load(args.parent), load(args.change)
    seeds = sorted(parent.keys() & change.keys())
    if len(seeds) < 2:
        print("bench_ghz: need at least two seeds run in both checkouts", file=sys.stderr)
        return 1
    before, after = side(parent, seeds), side(change, seeds)
    wins = {
        m: sum(a[m] < b[m] for a, b in zip(after["runs"], before["runs"])) for m in METRICS
    }
    env = change[seeds[0]]["env"]
    out = {
        "workload": "table_5x4",
        "pairs": len(seeds),
        "env": {k: env[k] for k in ("cpu_model", "nproc", "python", "numpy", "blas_threads")},
        "parent": before,
        "change": after,
        "change_wins": wins,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for m in METRICS:
        print(
            f"{m}: parent median {before['median'][m]:.4g} (IQR {before['iqr'][m]:.3g}), "
            f"change median {after['median'][m]:.4g}, change wins {wins[m]}/{len(seeds)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
