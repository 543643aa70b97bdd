"""netcert benchmark: one workload, one seed, one result line.

Usage (from the root of a netcert checkout):

    python3 perfbench/run.py --workload table_5x4 --seed 1 --seconds 60 --trace 0

Every set-up and every timed pass runs ``perfbench/workloads.py`` in a fresh
interpreter with ``src`` on ``PYTHONPATH``, BLAS capped at two threads,
``PYTHONHASHSEED`` fixed and ``NETCERT_CAP`` unset.  Set-up time is the
median over several fresh processes; the timed section runs in two of them.
With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced pass, plus the
trace overhead against an untraced pass of the same inputs.  The lines before it name every metric
with its unit, the pinned-output checks, the input digest and the
environment.  Spans and the full report go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("table_5x4", "certify_verify")
# Fresh-process set-ups per run, the timed passes included, spread over the
# run; setup_s is their median.
SETUPS = 5
# Timed passes per untraced run, each in a fresh process, so that no input is
# used twice in one process.
PASSES = {"table_5x4": 2, "certify_verify": 2}
# The dense eigenspace check is the only BLAS user; two threads halve its
# largest call (a 2401-dimensional eigenproblem, 19 s on one thread).
BLAS_THREADS = min(2, os.cpu_count() or 1)
# A run must end within 180 s; a process still running at this point of the
# run is killed and the run fails.
RUN_LIMIT_S = 170.0

# What one operation is, for the lines before the result; see README.md.
OP_NAME = {"table_5x4": "table", "certify_verify": "round"}


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NETCERT_CAP", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(root: Path, env: dict, args, deadline: float, timed: bool, trace: bool,
              spans: Path | None = None) -> list[dict]:
    """Start one workload process, wait for it, return its JSON events."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--t0", repr(t0),
        "--timed", str(int(timed)), "--trace", str(int(trace)),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"run exceeded {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited with code {proc.returncode}")
    events = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    want = {"ready", "result"} if timed else {"ready"}
    if {e.get("event") for e in events} != want:
        raise ChildFailed(f"workload process printed {[e.get('event') for e in events]}")
    return events


def fastest(per_pass: list[list[float]]) -> list[float]:
    """Operation by operation, the fastest time over the passes."""
    return [min(times) for times in zip(*per_pass)]


def percentile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1000.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "netcert").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, ready: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": ready["python"],
        "numpy": ready["numpy"],
        "scipy": ready["scipy"],
        "blas_threads": BLAS_THREADS,
        "netcert_cap_parent": os.environ.get("NETCERT_CAP", "unset"),
        "netcert_cap_run": ready["netcert_cap"],
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


def layer_metrics(res: dict, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, ``name -> (value, unit)``."""
    out: dict[str, tuple[float, str]] = {}
    layers = res["layers"]
    for name, (calls, self_s) in layers.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    c = res["counters"]
    out["multigraph.enumerate_connected_multigraphs.classes"] = (c["classes"], "count")
    any_calls = layers["certify.certify_any"][0]
    direct = layers["multigraph.find_angle_or_triangle"][0]
    verifies = layers["certify.verify_obs3"][0]
    out["certify.direct_per_class"] = (direct / any_calls if any_calls else 0.0, "ratio")
    out["certify.useful_ratio"] = (c["certificates"] / direct if direct else 0.0, "ratio")
    out["certify.lc_share"] = (
        c["lc_certificates"] / c["certificates"] if c["certificates"] else 0.0, "ratio")
    dense = layers["oracle.common_plus_one_eigenvector"][0]
    out["oracle.dense_share"] = (dense / verifies if verifies else 0.0, "ratio")
    out["ghzbound.cells"] = (c["ghz_cells"], "count")
    out["ghzbound.bisections"] = (c["ghz_bisections"], "count")
    out["trace.overhead_frac"] = (res["wall_s"] / untraced_wall - 1.0, "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "netcert" / "__init__.py").is_file():
        print("perfbench: run from the root of a netcert checkout (src/netcert missing)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes = 1 if args.trace else PASSES[args.workload]
    # Set-ups go before, between and after the passes, so that their median
    # does not rest on one stretch of a host whose speed drifts.
    extra = 0 if args.trace else SETUPS - passes
    plan: list[bool] = []
    for k in range(passes + 1):
        plan += [False] * (extra * (k + 1) // (passes + 1) - extra * k // (passes + 1))
        plan += [True] * (k < passes)

    try:
        readies: list[dict] = []
        results: list[dict] = []
        for timed in plan:
            events = run_child(root, env, args, deadline, timed=timed, trace=False)
            readies.append(events[0])
            results += events[1:]
        traced = None
        if args.trace:
            spans = outdir / f"spans-{tag}.npz"
            ready, traced = run_child(root, env, args, deadline, timed=True, trace=True,
                                      spans=spans)
            readies.append(ready)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    digests = {r["digest"] for r in readies}
    env_info = environment(root, readies[0])
    all_results = results + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in all_results)
    failed = sum(r["failed"] for r in all_results)
    notes = [n for r in all_results for n in r["notes"]]
    correct = failed == 0 and len(digests) == 1

    # Other tenants of the host only ever slow a pass down (by up to 70% for
    # 5-30 s at a time), so a run reports its faster pass and, operation by
    # operation, the faster time.
    wall = min(r["wall_s"] for r in results)
    latency = fastest([r["latency_s"] for r in results])
    op = OP_NAME[args.workload]
    lines: list[tuple[str, float, str]] = [
        ("setup_s", statistics.median(r["setup_s"] for r in readies), "s"),
        ("wall_s", wall, "s"),
        ("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        ("op_p50_ms", percentile_ms(latency, 50), "ms"),
    ]
    end_to_end = {name for name, _, _ in lines}
    # op_p95_ms is printed but has no bound: its ten-run spread on a shared
    # 2-core host was 24-47%, above the largest bound a metric may have.
    p95 = percentile_ms(latency, 95)
    lines += [
        ("op_p95_ms", p95, "ms"),
        ("failed_frac", failed / attempted, "ratio"),
        (f"{op}_samples", len(latency), "count"),
        (f"{op}_beyond_p95", sum(s * 1000.0 > p95 for s in latency), "count"),
    ]
    if args.workload == "table_5x4":
        classes = results[0]["extra"]["classes"]
        ghz = fastest([r["samples_s"]["ghz"] for r in results])
        lines += [
            ("classes_per_s", classes / latency[0], "1/s"),
            ("refused_frac", results[0]["refused"] / classes, "ratio"),
            ("ghz_s", sum(ghz), "s"),
            ("ghz_p50_ms", percentile_ms(ghz, 50), "ms"),
            ("ghz_max_ms", max(ghz) * 1000.0, "ms"),
        ]
    if args.workload == "certify_verify":
        lines.append(("refused_frac", results[0]["refused"] / results[0]["attempted"], "ratio"))
        for kind in ("certify", "verify"):
            samples = fastest([r["samples_s"][kind] for r in results])
            lines += [
                (f"{kind}_p50_ms", percentile_ms(samples, 50), "ms"),
                (f"{kind}_p95_ms", percentile_ms(samples, 95), "ms"),
                (f"{kind}_samples", len(samples), "count"),
            ]

    layer = layer_metrics(traced, wall) if traced else {}
    for name, value, unit in lines:
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in layer.items():
        print(f"layer {name} = {value:.6g} {unit}")
    print(f"inputs {args.workload} seed={args.seed} sha256={readies[0]['digest']}")
    for key, value in results[0]["extra"].items():
        print(f"output {key} = {value}")
    for note in notes:
        print(f"FAILED {note}")
    for key, value in env_info.items():
        print(f"env {key} = {value}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_info, "input_sha256": sorted(digests),
        "metrics": {n: {"value": v, "unit": u} for n, v, u in lines},
        "layers": {n: {"value": v, "unit": u} for n, (v, u) in layer.items()},
        "setup_s_each": [r["setup_s"] for r in readies],
        "wall_s_each": [r["wall_s"] for r in results],
        "outputs": results[0]["extra"], "notes": notes,
    }
    (outdir / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    if args.trace:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in layer.items()}
    else:
        metrics = {n: {"value": v, "unit": u} for n, v, u in lines if n in end_to_end}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
