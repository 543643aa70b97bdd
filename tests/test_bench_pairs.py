"""scripts/bench_pairs.py: the paired summary every BENCH_*.json entry has."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(src: str, wall_s: float, samples: int, sha256: str = "out") -> dict:
    return {
        "src_sha256": src,
        "sha256": sha256,
        "times": {"wall_s": wall_s, "op_samples": samples},
        "units": {"op_samples": "count"},
        "rows": 7,
    }


def test_summarize_pairs_medians_iqr_and_wins():
    results = {
        "parent": [result("p", t, 5) for t in (1.0, 2.0, 3.0, 4.0)],
        "change": [result("c", t, 4) for t in (0.5, 2.5, 1.0, 4.0)],
    }
    entry = bench_pairs.summarize(results)
    assert entry["identical"] is True
    assert (entry["sha256"], entry["rows"], entry["pairs"]) == ("out", 7, 4)
    assert entry["src_sha256"] == {"parent": ["p"], "change": ["c"]}
    wall = entry["times"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"] == {"values": [1.0, 2.0, 3.0, 4.0], "median": 2.5, "iqr": 2.5}
    assert wall["change"]["median"] == 1.75 and wall["change"]["iqr"] == 3.0
    # pairs 1 and 3 are lower, pair 2 higher, pair 4 a tie that counts for neither
    assert wall["change_wins"] == 2
    # a count is recorded with its unit but wins nothing: fewer is not faster
    samples = entry["times"]["op_samples"]
    assert samples["unit"] == "count" and "change_wins" not in samples
    assert samples["change"]["median"] == 4


def test_summarize_one_differing_output_is_not_identical():
    results = {
        "parent": [result("p", 1.0, 5) for _ in range(3)],
        "change": [result("p", 1.0, 5), result("p", 1.0, 5, sha256="moved"), result("p", 1.0, 5)],
    }
    assert bench_pairs.summarize(results)["identical"] is False
    results["change"][1] = {**result("p", 1.0, 5), "rows": 8}
    assert bench_pairs.summarize(results)["identical"] is False


def test_alternating_fresh_runs_on_one_checkout():
    """An A/A pass of a trivial snippet: every pair identical, parent first on even k."""
    snippet = (
        "import json, time; "
        "print(json.dumps({'sha256': 'x', 'times': {'start_ns': time.monotonic_ns()}}))"
    )
    results = bench_pairs.alternating(
        ROOT, ROOT, lambda root: bench_pairs.fresh_run(root, snippet)
    )
    entry = bench_pairs.summarize(results)
    assert entry["identical"] is True and entry["pairs"] == bench_pairs.RUNS
    digest = bench_pairs.source_digest(ROOT)
    assert entry["src_sha256"] == {"parent": [digest], "change": [digest]}
    starts = entry["times"]["start_ns"]
    assert "change_wins" not in starts
    firsts = [p < c for p, c in zip(starts["parent"]["values"], starts["change"]["values"])]
    assert firsts == [k % 2 == 0 for k in range(bench_pairs.RUNS)]


def test_fresh_runs_neither_read_nor_write_bytecode(tmp_path):
    """A snippet's process writes no bytecode and looks for it only under a
    fresh, empty pycache prefix, which is gone once the run ends; its entry
    says so.  perfbench entries record whether a checkout holds any."""
    snippet = (
        "import json, os, sys; print(json.dumps({'sha256': 'x', 'times': {}, 'seen': "
        "[sys.dont_write_bytecode, sys.pycache_prefix, os.listdir(sys.pycache_prefix)]}))"
    )
    out = bench_pairs.fresh_run(ROOT, snippet)
    dont_write, prefix, listed = out["seen"]
    assert dont_write is True and listed == [] and not os.path.exists(prefix)
    assert not prefix.startswith(str(ROOT)) and out["bytecode"] == "none"
    assert not bench_pairs.holds_pycache(tmp_path)
    (tmp_path / "perfbench" / "__pycache__").mkdir(parents=True)
    assert bench_pairs.holds_pycache(tmp_path)


def test_ghz_snippet_hashes_the_reports():
    """``--ghz`` in one fresh process: the reports' repr of d = 2..8, their
    7,208 boxes, and a time per d beside the total."""
    import hashlib

    from netcert import ghz_numeric_bound

    out = bench_pairs.fresh_run(ROOT, bench_pairs.GHZ)
    h = hashlib.sha256()
    for d in range(2, 9):
        h.update(repr(ghz_numeric_bound(d)).encode())
    assert (out["sha256"], out["cells"]) == (h.hexdigest(), 7208)
    per_d = [out["times"][f"d{d}_s"] for d in range(2, 9)]
    assert out["times"]["ghz_s"] == sum(per_d) and min(per_d) > 0


def test_certify_snippet_hashes_certificates_and_reports(monkeypatch):
    """``--certify`` in one fresh process: one round per pool graph, each
    certificate's v2 JSON with its report in the sha256, and the certify and
    verify shares of the rounds' total."""
    import hashlib
    import json

    import netcert

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    out = bench_pairs.fresh_run(ROOT, bench_pairs.CERTIFY)
    h = hashlib.sha256()
    for g in workloads.certify_stream(1):
        cert = netcert.certify_any(g)
        h.update(netcert.certificate_to_json(cert).encode())
        h.update(json.dumps(netcert.verify_obs3(cert).to_json_obj(), sort_keys=True).encode())
    assert (out["sha256"], out["rounds"]) == (h.hexdigest(), 216)
    times = out["times"]
    assert 0 < times["median_ms"] < times["total_ms"]
    assert 0 < times["certify_share"] < 1
    assert abs(times["certify_share"] + times["verify_share"] - 1) < 1e-12
