"""Command-line interface.

Subcommands: certify one graph, enumerate-and-certify a whole size class,
tabulate GHZ fidelity ceilings, explore a local-complementation orbit,
re-verify a stored certificate, and run the randomized self-test suites.
Each offers only the formats it renders: ``tsv`` on the two table
commands (enumerate, ghz-bound), ``json`` and ``human`` everywhere.

Exit codes: 0 success/certified, 1 usage or input error, 2 not certified
or verification failure, 3 budget exhausted.  JSON output is
deterministic: the same inputs (and, for selftest, the same ``--seed``)
produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, NoReturn, Sequence

from . import __version__
from .certify import TABLE_ORBIT_CAP, NotCertified, TableReport, certify_any, exhaustive_table
from .checker import Certificate, _json_text, certificate_from_json_obj, certificate_to_json_obj
from .checker import read_json, verify_obs3
from .errors import NetcertError, StructureError
from .ghzbound import bound_report
from .graph import Multigraph, edges
from .multigraph import DEFAULT_ENUMERATION_BUDGET, DEFAULT_ORBIT_CAP, lc_orbit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_BUDGET = 3

#: Most dimensions one ``--d`` range may name: enumerate and ghz-bound build
#: the reports of every dimension before they print any.
MAX_RANGE = 10_000

TABLE_FORMATS = ("json", "tsv", "human")
RECORD_FORMATS = ("json", "human")


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, obj: object) -> None:
    _emit(args, json.dumps(obj, indent=2) + "\n")


def _load_graph(args: argparse.Namespace) -> Multigraph:
    if args.inline is not None:
        text = args.inline.replace(";", "\n")
        return Multigraph.from_text(text)
    text = Path(args.input).read_text()
    if text.lstrip().startswith("{"):
        return Multigraph.from_json_obj(read_json(text))
    return Multigraph.from_text(text)


def _parse_range(text: str) -> range:
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if sep else lo_s)
    except ValueError:
        raise NetcertError(f"not an integer or a range 'a..b': {text!r}") from None
    if hi < lo:
        raise NetcertError(f"empty range {text!r}")
    if hi - lo >= MAX_RANGE:
        raise NetcertError(f"range {text!r} has {hi - lo + 1} values, more than {MAX_RANGE}")
    return range(lo, hi + 1)


def _not_certified_obj(res: NotCertified) -> dict:
    return {
        "graph": res.graph.to_json_obj(),
        "certified": False,
        "reasons": list(res.reasons),
        "rejections": {kind: count for kind, count in res.rejections},
        "orbit_size": res.orbit_size,
        "orbit_truncated": res.orbit_truncated,
    }


def _human_certificate(cert: Certificate) -> str:
    lines = [
        f"certified: yes ({cert.method})",
        f"graph: d={cert.graph.d} n={cert.graph.n} "
        + " ".join(f"{i}-{j}:{m}" for i, j, m in edges(cert.graph)),
        f"lc_path: {list(cert.lc_path) or '[]'}",
        "groups: "
        + "; ".join(
            f"G{i}={{{', '.join(grp)}}}" for i, grp in enumerate(cert.groups, 1)
        ),
        f"kappa: {cert.kappa}",
        f"lambda_prime: {_fmt6(cert.lambda_prime)}",
        f"fidelity_bound: {_fmt6(cert.fidelity_bound)}",
    ]
    return "\n".join(lines) + "\n"


def cmd_certify(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    result = certify_any(graph, orbit_cap=args.budget_orbit)
    if isinstance(result, Certificate):
        report = verify_obs3(result) if args.verify else None
        if args.format == "human":
            text = _human_certificate(result)
            if report is not None:
                text += f"verification: {'pass' if report.all_passed else 'FAIL'}\n"
            _emit(args, text)
        else:
            # derived from the certificate, so printed beside it
            obj = {
                "certified": True,
                "method": result.method,
                "fidelity_bound": result.fidelity_bound,
                "certificate": certificate_to_json_obj(result),
            }
            if report is not None:
                obj["verification"] = report.to_json_obj()
            _emit_json(args, obj)
        return EXIT_OK if report is None or report.all_passed else EXIT_NEGATIVE
    if args.format == "human":
        lines = ["certified: no"] + [f"  - {r}" for r in result.reasons]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, _not_certified_obj(result))
    return EXIT_BUDGET if result.orbit_truncated else EXIT_NEGATIVE


def _table_obj(report: TableReport) -> dict:
    return {
        "n": report.n,
        "d": report.d,
        "total": report.total,
        "expected": report.expected,
        "certified": report.certified,
        "all_certified": report.all_certified,
        "complete": report.complete,
        "examined": report.examined,
        "methods": {name: count for name, count in report.methods},
        "rejections": {kind: count for kind, count in report.rejections},
        "uncertified": [_not_certified_obj(res) for res in report.uncertified],
    }


def cmd_enumerate(args: argparse.Namespace) -> int:
    reports = [
        exhaustive_table(args.n, d, budget=args.budget_graphs, orbit_cap=args.budget_orbit)
        for d in _parse_range(args.d)
    ]
    if args.format == "json":
        _emit_json(args, [_table_obj(r) for r in reports])
    else:
        rows = [["n", "d", "total", "certified", "methods", "complete"]]
        for r in reports:
            rows.append(
                [
                    str(r.n),
                    str(r.d),
                    str(r.total),
                    str(r.certified),
                    ",".join(f"{k}:{v}" for k, v in r.methods) or "-",
                    "yes" if r.complete else "no",
                ]
            )
        sep = "\t" if args.format == "tsv" else "  "
        _emit(args, "\n".join(sep.join(row) for row in rows) + "\n")
    if any(
        not r.complete or any(res.orbit_truncated for res in r.uncertified) for r in reports
    ):
        return EXIT_BUDGET
    if any(r.certified < r.total for r in reports):
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_ghz_bound(args: argparse.Namespace) -> int:
    reports = [bound_report(d) for d in _parse_range(args.d)]
    if args.format == "json":
        objs = []
        for r in reports:
            obj: dict = {"d": r.d, "bound_closed_form": r.bound_closed_form}
            if r.bound_prime is not None:
                obj["bound_prime"] = r.bound_prime
            if r.bound_numeric is not None:
                obj["bound_numeric"] = r.bound_numeric
                obj["constraints_active"] = list(r.constraints_active)
                obj["solver_trace"] = [
                    {"f": f, "feasible": ok, "cells": cells}
                    for f, ok, cells in r.solver_trace
                ]
            objs.append(obj)
        _emit_json(args, objs)
    else:
        rows = [["d", "closed_form", "prime", "numeric"]]
        for r in reports:
            rows.append(
                [
                    str(r.d),
                    _fmt6(r.bound_closed_form),
                    _fmt6(r.bound_prime) if r.bound_prime is not None else "-",
                    _fmt6(r.bound_numeric) if r.bound_numeric is not None else "-",
                ]
            )
        sep = "\t" if args.format == "tsv" else "  "
        _emit(args, "\n".join(sep.join(row) for row in rows) + "\n")
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    result = lc_orbit(graph, cap=args.budget_orbit)
    if args.format == "json":
        obj = {
            "size": result.size,
            "truncated": result.truncated,
            "members": [
                {
                    "graph": g.to_json_obj(),
                    "path": list(path),
                }
                for g, path in zip(result.graphs, result.paths)
            ],
        }
        _emit_json(args, obj)
    else:
        lines = [f"orbit size: {result.size} (truncated: {result.truncated})"]
        for g, path in zip(result.graphs, result.paths):
            edge_text = " ".join(f"{i}-{j}:{m}" for i, j, m in edges(g)) or "(none)"
            lines.append(f"  path {list(path)}: {edge_text}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_BUDGET if result.truncated else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    obj = read_json(Path(args.input).read_text())
    wrapped = isinstance(obj, dict) and "certificate" in obj
    cert = certificate_from_json_obj(obj["certificate"] if wrapped else obj)
    if wrapped:  # certify's output: what it derives and prints beside the proof is claimed
        claims = {k: _json_text(v) for k, v in obj.items() if k not in ("certified", "certificate")}
        derived = {"method", "fidelity_bound", "verification"}
        if obj.get("certified") is not True or claims.keys() - derived:
            raise StructureError(f"not certify's output of a certificate: fields {sorted(obj)}")
        cert = dataclasses.replace(cert, claims=cert.claims + tuple(claims.items()))
    report = verify_obs3(cert)
    if args.format == "human":
        lines = [
            f"{'pass' if c.passed else 'FAIL'}  {c.name}"
            + (f"  ({c.detail})" if c.detail else "")
            for c in report.checks
        ]
        if report.ignored:
            lines.append(f"ignored  {', '.join(report.ignored)}  (stored, not interpreted)")
        lines.append("all passed" if report.all_passed else "VERIFICATION FAILED")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, report.to_json_obj())
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


def cmd_selftest(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise NetcertError(f"--trials must be at least 1, got {args.trials}")
    from .errors import PropertyViolation
    from .oracle import ALL_LEMMA_CHECKS

    results = []
    failed = False
    for check in ALL_LEMMA_CHECKS:
        try:
            report = check(args.trials, seed=args.seed)
            results.append(
                {
                    "name": report.name,
                    "trials": report.trials,
                    "violations": report.violations,
                    "extremal_slack": report.extremal_slack,
                    "branch_counts": dict(report.branch_counts),
                }
            )
        except PropertyViolation as exc:
            failed = True
            results.append({"name": check.__name__, "violation": str(exc)})
    if args.format == "human":
        lines = []
        for r in results:
            if "violation" in r:
                lines.append(f"FAIL  {r['name']}: {r['violation']}")
            else:
                lines.append(
                    f"pass  {r['name']}: {r['trials']} trials, "
                    f"min slack {_fmt6(r['extremal_slack'])}"
                )
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, results)
    return EXIT_NEGATIVE if failed else EXIT_OK


def _add_graph_arguments(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--inline", help="graph text: 'd n; i j m; ...'")
    source.add_argument("--input", help="graph file (text or JSON)")


def _add_common_arguments(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--output", help="write to a file instead of stdout")


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits with EXIT_ERROR: argparse's own
    code 2 is EXIT_NEGATIVE here."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netcert",
        description="Certify that graph states cannot arise from bipartite sources.",
    )
    parser.add_argument("--version", action="version", version=f"netcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify one multigraph")
    _add_graph_arguments(p)
    p.add_argument("--budget-orbit", type=int, default=DEFAULT_ORBIT_CAP)
    p.add_argument("--verify", action="store_true", help="re-verify the certificate")
    _add_common_arguments(p, RECORD_FORMATS)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("enumerate", help="certify every class of one size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", required=True, help="dimension or range 'a..b'")
    p.add_argument("--budget-graphs", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    p.add_argument("--budget-orbit", type=int, default=TABLE_ORBIT_CAP)
    _add_common_arguments(p, TABLE_FORMATS)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("ghz-bound", help="GHZ fidelity ceilings")
    p.add_argument("--d", required=True, help="dimension or range 'a..b'")
    _add_common_arguments(p, TABLE_FORMATS)
    p.set_defaults(func=cmd_ghz_bound)

    p = sub.add_parser("orbit", help="local-complementation orbit of a graph")
    _add_graph_arguments(p)
    p.add_argument("--budget-orbit", type=int, default=DEFAULT_ORBIT_CAP)
    _add_common_arguments(p, RECORD_FORMATS)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("verify", help="re-verify a stored certificate")
    p.add_argument("--input", required=True, help="certificate JSON file")
    _add_common_arguments(p, RECORD_FORMATS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="randomized operator-inequality suites")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common_arguments(p, RECORD_FORMATS)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func: Callable[[argparse.Namespace], int] = args.func
    try:
        return func(args)
    except (NetcertError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main(None))
