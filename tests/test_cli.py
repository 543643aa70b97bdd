"""Command-line interface: formats, exit codes, round trips, determinism."""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from netcert import NetcertError, cli
from netcert.checker import Check, VerificationReport
from netcert.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, build_parser, main

TRIANGLE = "2 3; 0 1 1; 1 2 1; 0 2 1"
BAD_ANGLE = "6 3; 0 1 3; 0 2 2"
PATH_D2 = "2 3; 0 1 1; 1 2 1"
TRIANGLE_EDGES = [[0, 1, 1], [1, 2, 1], [0, 2, 1]]

#: Certificates in the earlier JSON form (no "version"), as `netcert certify
#: --output` wrote them for these graphs: obs1 on a triangle, obs4 on an
#: angle, obs4 after the local complementation [0] (d = 3) and after
#: [2, 3, 0] (d = 6).
V1_GRAPHS = {
    "v1_obs1_triangle_d2.json": TRIANGLE,
    "v1_obs4_angle_d3.json": "3 3; 0 1 1; 1 2 2",
    "v1_obs4_lc_d3.json": "3 4; 0 1 1; 0 2 1; 0 3 1; 1 2 1; 1 3 1; 2 3 2",
    "v1_obs4_lc_d6.json": "6 4; 0 2 2; 0 3 3; 1 2 2; 1 3 3; 2 3 1",
}
V1_FIXTURES = [Path(__file__).parent / "data" / name for name in V1_GRAPHS]
PROVENANCE = ["triple", "kind", "exponents"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- certify


def test_certify_json(capsys):
    code, out, _ = run(capsys, "certify", "--inline", TRIANGLE)
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["certified"] is True
    # derived, so beside the certificate, which holds only the proof
    assert obj["method"] == "obs1"
    assert obj["fidelity_bound"] == 0.9
    assert list(obj["certificate"]) == ["version", "graph", "lc_path", "groups", "S1", "S2", "S4"]
    assert "verification" not in obj


def test_certify_with_verification(capsys):
    code, out, _ = run(capsys, "certify", "--inline", TRIANGLE, "--verify")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["verification"]["all_passed"] is True
    names = [c["name"] for c in obj["verification"]["checks"]]
    assert "kappa" in names and "eigenspace_obstruction" in names


def test_certify_human(capsys):
    code, out, _ = run(capsys, "certify", "--inline", TRIANGLE, "--format", "human", "--verify")
    assert code == EXIT_OK
    assert "certified: yes (obs1)" in out
    assert "fidelity_bound: 0.9" in out
    assert "verification: pass" in out
    assert "triple" not in out and "exponents" not in out


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_certify_verify_failure_exits_2(monkeypatch, capsys, fmt):
    """A certificate that fails its re-verification is not a success."""
    failing = VerificationReport(checks=(Check("kappa", False),))
    monkeypatch.setattr(cli, "verify_obs3", lambda cert: failing)
    code, out, _ = run(capsys, "certify", "--inline", TRIANGLE, "--verify", "--format", fmt)
    assert code == EXIT_NEGATIVE
    if fmt == "json":
        assert json.loads(out)["verification"]["all_passed"] is False
    else:
        assert "verification: FAIL" in out


@pytest.mark.parametrize("argv", [["verify", "--input", "{cert}"], ["certify", "--verify"]])
def test_verification_reads_no_cap_variable(tmp_path, monkeypatch, capsys, argv):
    """The verifier has no size setting: NETCERT_CAP, which earlier versions
    read, is ignored even when it is not an integer, and the run passes."""
    cert_file = tmp_path / "cert.json"
    assert main(["certify", "--inline", TRIANGLE, "--output", str(cert_file)]) == EXIT_OK
    argv = [a.replace("{cert}", str(cert_file)) for a in argv]
    if argv[0] == "certify":
        argv += ["--inline", TRIANGLE]
    monkeypatch.setenv("NETCERT_CAP", "abc")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    obj = json.loads(out)
    assert obj.get("verification", obj)["all_passed"] is True


def test_certify_negative(capsys):
    code, out, _ = run(capsys, "certify", "--inline", BAD_ANGLE)
    assert code == EXIT_NEGATIVE
    obj = json.loads(out)
    assert obj["certified"] is False
    assert obj["orbit_size"] == 1
    assert any("m_tilde" in r for r in obj["reasons"])
    assert obj["rejections"] == {"non_constant": 1, "t_abc": 0, "apex": 0, "m_tilde_zero": 2}


def test_certify_negative_human(capsys):
    code, out, _ = run(capsys, "certify", "--inline", BAD_ANGLE, "--format", "human")
    assert code == EXIT_NEGATIVE
    assert "certified: no" in out


def test_certify_from_files(tmp_path, capsys):
    text_file = tmp_path / "g.txt"
    text_file.write_text("2 3\n0 1 1\n1 2 1\n0 2 1\n")
    code, out, _ = run(capsys, "certify", "--input", str(text_file))
    assert code == EXIT_OK
    json_file = tmp_path / "g.json"
    json_file.write_text(json.dumps({"d": 2, "n": 3, "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]}))
    code2, out2, _ = run(capsys, "certify", "--input", str(json_file))
    assert code2 == EXIT_OK
    assert out2 == out  # same graph, same bytes


def test_certify_output_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "--inline", TRIANGLE, "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["certified"] is True


def test_certify_input_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify"])
    assert info.value.code == EXIT_ERROR and "error:" in capsys.readouterr().err
    code, _, err = run(capsys, "certify", "--inline", "2 3; 0 9 1")
    assert code == EXIT_ERROR and "error:" in err
    code, _, err = run(capsys, "certify", "--input", "/nonexistent/graph.txt")
    assert code == EXIT_ERROR


@pytest.mark.parametrize(
    "obj",
    [
        {"d": "x", "n": 3, "edges": TRIANGLE_EDGES},
        {"d": 2, "n": 3.0, "edges": TRIANGLE_EDGES},
        {"d": 2, "n": 3, "edges": 5},
        {"d": 2, "n": 3, "edges": [[0, 1], *TRIANGLE_EDGES[1:]]},
        {"d": 2, "n": 3, "edges": [[0, 1, 1.7], *TRIANGLE_EDGES[1:]]},
        {"d": 2, "n": 3, "edges": [[0, 1, "1"], *TRIANGLE_EDGES[1:]]},
        {"d": 2, "n": 3, "edges": [[0, 1, True], *TRIANGLE_EDGES[1:]]},
        {"d": 2, "n": 3, "edges": [7, *TRIANGLE_EDGES[1:]]},
        {"d": 2, "n": 3},
        {"d": 3, "n": 1025, "edges": [[0, 1, 1]]},
        {"d": 3, "n": 10**20, "edges": [[0, 1, 1]]},
        {"d": 2, "n": 3, "edges": TRIANGLE_EDGES, "note": "x"},
    ],
    ids=[
        "d-string", "n-float", "edges-int", "edge-pair", "m-float", "m-string",
        "m-bool", "edge-int", "no-edges", "n-1025", "n-huge", "extra-key",
    ],
)
def test_certify_rejects_malformed_json_graph(tmp_path, capsys, obj):
    """A graph file that is not integers d, n and [i, j, m] triples, or that
    holds another key, exits 1 with one error line; the triangle it spells
    is not certified instead."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "certify", "--input", str(path))
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text,message",
    [
        (" ; ", "empty graph description"),
        ("2 x; 0 1 1", "non-integer header"),
        ("2 3; 0 1", "edge line must be 'i j m'"),
        ("2 3; 0 1 a", "non-integer edge line"),
        ("2 1", "at least 2 vertices"),
        ("2 3; 0 1 1; 1 0 1", "duplicate edge"),
        ("3 1025; 0 1 1", "1025 vertices, more than 1024"),
        ("3 100000000000000000000; 0 1 1", "100000000000000000000 vertices, more than 1024"),
    ],
    ids=["empty", "header-not-integer", "edge-not-triple", "edge-not-integer", "one-vertex",
         "duplicate-edge", "n-1025", "n-huge"],
)
def test_certify_rejects_bad_graph_text(capsys, text, message):
    """Each malformed graph line exits 1 with nothing on stdout and one
    error line on stderr, which names what is wrong."""
    code, out, err = run(capsys, "certify", "--inline", text)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def _key(node, key):
    """An integer key into an object picks its i-th key."""
    return list(node)[key] if isinstance(node, dict) and isinstance(key, int) else key


def _edit(node, where, value, d):
    """Set node[where...] to value; a callable value gets the old value (None
    where there is none) and d."""
    *path, last = where
    for key in path:
        node = node[_key(node, key)]
    last = _key(node, last)
    if callable(value):
        value = value(node.get(last) if isinstance(node, dict) else node[last], d)
    node[last] = value


def _verify_edited(tmp_path, capsys, fixture, where, value):
    """Run verify on the fixture's certificate, edited at ``where``."""
    obj = json.loads(fixture.read_text())
    _edit(obj["certificate"], where, value, obj["certificate"]["graph"]["d"])
    path = tmp_path / fixture.name
    path.write_text(json.dumps(obj))
    return run(capsys, "verify", "--input", str(path))


def _failed(out):
    return [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]


def _assert_refused(code, out, err):
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "where,value,check",
    [
        (["kappa"], 1.9, "kappa"),
        (["kappa"], True, "kappa"),
        (["exponents", "t"], 1.5, None),
        (["operators", "S4", "factorization", 0, 1], 1.5, None),
        (["operators", "S4", "factorization", 0, 0], 2.5, None),
        (["operators", "S4", "factorization", 0, 0], 2, None),
        (["operators", "S1", "phase_exp"], 2.0, "S1"),
        (["operators", "S4", "sites", "2"], [1.0, 0], "S4"),
        (["triple"], [0, 1, 2.0], None),
        (["lc_path"], ["0"], None),
        (["lc_path"], [4], None),
        (["exponents"], [["t", 1]], None),
        (["operators", "S4prime_relabel"], [["2", "2'"]], "S4prime_relabel"),
        (["lambda_prime"], "0.0", "lambda_prime"),
        (["lambda_prime"], False, "lambda_prime"),
        (["fidelity_bound"], "0.9", "fidelity_bound"),
        (["fidelity_bound"], 10**400, "fidelity_bound"),
        (["kind"], 5, None),
        (["method"], ["obs1"], "method"),
        (["groups", "G1"], "2", None),
        (["groups", "G2"], [1], None),
        (["graph", "n"], 1025, None),
        (["graph", "n"], 10**20, None),
    ],
    ids=[
        "kappa-float", "kappa-bool", "exponent-float", "factorization-float",
        "factorization-label-float", "factorization-label-int", "phase-float",
        "site-float", "triple-float", "lc-path-string", "lc-path-outside", "exponents-list",
        "relabel-list",
        "lambda-string", "lambda-bool", "bound-string", "bound-huge-int", "kind-int", "method-list",
        "group-string", "group-int-label", "graph-n-1025", "graph-n-huge",
    ],
)
def test_verify_rejects_malformed_certificate(tmp_path, capsys, where, value, check):
    """A stored certificate in the earlier form is never read as some other
    certificate that verifies.  Where a field the proof is read from, or a
    construction record, does not hold its JSON type (an integer, a list of
    strings, a vertex) or name (kind), verify exits 1 with one error line
    (``check`` None).  A field the proof fixes is compared with the
    derivation as JSON, so a wrongly typed one fails the check named after
    it."""
    for fixture in V1_FIXTURES:
        code, out, err = _verify_edited(tmp_path, capsys, fixture, where, value)
        if check is None:
            _assert_refused(code, out, err)
        else:
            assert code == EXIT_NEGATIVE and err == ""
            assert _failed(out) == [check], fixture.name


def _v2_certificate(tmp_path, inline):
    path = tmp_path / "v2.json"
    assert main(["certify", "--inline", inline, "--output", str(path)]) == EXIT_OK
    return path


@pytest.mark.parametrize(
    "where,value",
    [
        (["version"], None),
        (["version"], 3),
        (["version"], "2"),
        (["version"], 2.0),
        (["kappa"], 1),
        (["S1"], lambda e, d: e + [0]),
        (["S2"], lambda e, d: e[:-1]),
        (["S4", 0], 1.0),
        (["S4", 0], True),
        (["S1", 0], lambda x, d: d),
        (["S2", 0], -1),
        (["S4"], {"0": 1}),
        (["groups"], lambda g, d: g[:3]),
        (["groups"], lambda g, d: g + [[]]),
        (["groups", 0], "0"),
        (["groups", 1], [1]),
        (["groups"], {"G1": []}),
        (["lc_path"], ["0"]),
        (["lc_path"], [0.0]),
        (["lc_path"], [4]),
    ],
    ids=[
        "version-missing", "version-3", "version-string", "version-float", "extra-field",
        "S1-long", "S2-short", "S4-float", "S4-bool", "S1-equal-to-d", "S2-negative",
        "S4-object", "groups-three", "groups-five", "group-string", "group-int-label",
        "groups-object", "lc-path-string", "lc-path-float", "lc-path-outside",
    ],
)
def test_verify_rejects_malformed_v2_certificate(tmp_path, capsys, where, value):
    """A version 2 certificate whose fields are not exactly version 2, the
    graph, a list of its vertices (lc_path), four lists of strings and three
    lists of n integers in [0, d) exits 1 with one error line."""
    for inline in V1_GRAPHS.values():
        path = _v2_certificate(tmp_path, inline)
        obj = json.loads(path.read_text())
        cert = obj["certificate"]
        if value is None:
            del cert[where[0]]
        else:
            _edit(cert, where, value, cert["graph"]["d"])
        path.write_text(json.dumps(obj))
        _assert_refused(*run(capsys, "verify", "--input", str(path)))


# ------------------------------------------------------------------ enumerate


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d", "3")
    assert code == EXIT_OK
    (report,) = json.loads(out)
    assert report["total"] == report["expected"] == 7
    assert report["certified"] == 7
    assert report["all_certified"] is True
    assert report["methods"] == {"obs1": 4, "obs4": 3}
    assert report["uncertified"] == []


def test_enumerate_range_tsv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d", "2..3", "--format", "tsv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["n", "d", "total", "certified", "methods", "complete"]
    assert lines[1].split("\t")[:4] == ["3", "2", "2", "2"]
    assert lines[2].split("\t")[:4] == ["3", "3", "7", "7"]


def test_enumerate_negative_exit(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d", "6")
    assert code == EXIT_NEGATIVE
    (report,) = json.loads(out)
    assert report["total"] == 50
    assert report["certified"] < 50
    assert report["complete"] is True
    assert all(res["certified"] is False for res in report["uncertified"])
    rejections = report["rejections"]
    assert list(rejections) == ["non_constant", "t_abc", "apex", "m_tilde_zero"]
    assert rejections["non_constant"] >= len(report["uncertified"]) > 0
    assert rejections["m_tilde_zero"] > 0
    for res in report["uncertified"]:
        assert list(res["rejections"]) == list(rejections)
        assert res["rejections"]["non_constant"] == 1


def test_enumerate_orbit_budget_exit(capsys):
    """Refusals cut short by the orbit cap end with the budget exit code."""
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--d", "4", "--budget-orbit", "1")
    assert code == EXIT_BUDGET
    (report,) = json.loads(out)
    assert report["complete"] is True
    assert len(report["uncertified"]) == 65
    assert all(res["orbit_truncated"] for res in report["uncertified"])


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--inline", BAD_ANGLE, "--budget-orbit", "-5"],
        ["certify", "--inline", TRIANGLE, "--budget-orbit", "0"],
        ["orbit", "--inline", PATH_D2, "--budget-orbit", "0"],
        ["enumerate", "--n", "3", "--d", "3", "--budget-orbit", "0"],
        ["enumerate", "--n", "3", "--d", "3", "--budget-graphs", "-1"],
        # 5^28 >= 2^62 labeled vectors do not fit the sweep's packed keys
        ["enumerate", "--n", "8", "--d", "5"],
        # n > 8 is refused before 7^(n choose 2) is computed, which would hang
        ["enumerate", "--n", "100000", "--d", "7"],
    ],
)
def test_bad_budgets_exit_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_enumerate_budget_exit(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--d", "3", "--budget-graphs", "100")
    assert code == EXIT_BUDGET
    (report,) = json.loads(out)
    assert report["complete"] is False
    assert report["examined"] == 100 and report["total"] == 0


def test_enumerate_budget_cut_reports_expected_classes(capsys):
    """A cell cut by the default budget reports its Polya class count beside
    the classes it found: (4,12) misses 276 of 131,846."""
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--d", "12")
    assert code == EXIT_BUDGET
    (report,) = json.loads(out)
    assert report["complete"] is False
    assert (report["total"], report["expected"]) == (131_570, 131_846)


def test_enumerate_two_vertices_refuses_every_class(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--d", "4")
    assert code == EXIT_NEGATIVE
    (report,) = json.loads(out)
    assert (report["total"], report["certified"], report["complete"]) == (3, 0, True)


def test_enumerate_bad_range(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "3", "--d", "5..2")
    assert code == EXIT_ERROR and "error:" in err


@pytest.mark.parametrize("command", ["enumerate", "ghz-bound"])
@pytest.mark.parametrize("text", ["x", "2..x", "2.."])
def test_non_integer_dimension_range(capsys, command, text):
    extra = ["--n", "3"] if command == "enumerate" else []
    code, out, err = run(capsys, command, *extra, "--d", text)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["ghz-bound", "--d", "2..100000000000000000000"],
        ["enumerate", "--n", "3", "--d", "2..100000000000000000000"],
    ],
)
def test_oversized_dimension_range(capsys, argv):
    """A range longer than an index can count is an error, not an OverflowError."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["enumerate", "ghz-bound"])
def test_dimension_range_over_the_cap(capsys, command):
    """A range of more than MAX_RANGE dimensions is refused before any report
    is built (ghz-bound --d 2..1000000000 once ran silently for hours);
    exactly MAX_RANGE dimensions are taken."""
    extra = ["--n", "3"] if command == "enumerate" else []
    code, out, err = run(capsys, command, *extra, "--d", "2..1000000000")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"more than {cli.MAX_RANGE}" in err
    assert len(cli._parse_range(f"2..{cli.MAX_RANGE + 1}")) == cli.MAX_RANGE
    with pytest.raises(NetcertError, match=f"more than {cli.MAX_RANGE}"):
        cli._parse_range(f"2..{cli.MAX_RANGE + 2}")


@pytest.mark.parametrize(
    "d, states",
    [(2**1022 - 2, True), (2**1022 - 1, True), (2**1022, False), (10**400, False),
     (10**400 + 1, False)],
    ids=["2^1022-2", "2^1022-1", "2^1022", "10^400", "10^400+1"],
)
def test_certify_states_a_bound_only_below_2_to_1022(capsys, d, states):
    """From d = 2^1022 on, pi / (2 d) and pi kappa / d are past floating
    point, so certify states no bound: exit 1 and one error line, with or
    without --verify, even d or odd (it once ended in an OverflowError
    traceback).  Just below, the certificate it emits verifies."""
    argv = ["certify", "--inline", f"{d} 3; 0 1 1; 1 2 1", "--verify"]
    if states:
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and json.loads(out)["verification"]["all_passed"] is True
    else:
        _assert_refused(*run(capsys, *argv))
        _assert_refused(*run(capsys, *argv[:-1]))


def test_ghz_bound_huge_dimensions(capsys):
    """A prime near 10^18 gets its prime bound at once (trial division ran
    past 10 s); past the exact range of the primality test, exit 1."""
    code, out, _ = run(capsys, "ghz-bound", "--d", "1000000000000000003", "--format", "tsv")
    assert code == EXIT_OK
    assert out.splitlines()[1].split("\t")[2] != "-"
    code, out, err = run(capsys, "ghz-bound", "--d", str(10**25))
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ------------------------------------------------------------------ ghz-bound


def test_ghz_bound_json(capsys):
    code, out, _ = run(capsys, "ghz-bound", "--d", "2..3")
    assert code == EXIT_OK
    two, three = json.loads(out)
    assert two["d"] == 2 and two["bound_closed_form"] == 0.9
    assert abs(two["bound_prime"] - 0.9) < 1e-6
    assert abs(two["bound_numeric"] - 0.895813) < 1e-4
    assert two["solver_trace"] and two["constraints_active"]
    assert three["bound_closed_form"] == 0.9549509756796393


def test_ghz_bound_tsv_placeholders(capsys):
    code, out, _ = run(capsys, "ghz-bound", "--d", "9", "--format", "tsv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["d", "closed_form", "prime", "numeric"]
    row = lines[1].split("\t")
    assert row[0] == "9" and row[2] == "-" and row[3] == "-"


def test_ghz_bound_prime_only(capsys):
    code, out, _ = run(capsys, "ghz-bound", "--d", "11")
    assert code == EXIT_OK
    (obj,) = json.loads(out)
    assert "bound_prime" in obj and "bound_numeric" not in obj


def test_ghz_bound_deterministic(capsys):
    _, first, _ = run(capsys, "ghz-bound", "--d", "2..4")
    _, second, _ = run(capsys, "ghz-bound", "--d", "2..4")
    assert first == second


# ---------------------------------------------------------------------- orbit


def test_orbit_json(capsys):
    code, out, _ = run(capsys, "orbit", "--inline", PATH_D2)
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["size"] == 2
    assert obj["truncated"] is False
    assert obj["members"][0]["path"] == []
    assert {"d": 2, "n": 3, "edges": [[0, 1, 1], [1, 2, 1]]} == obj["members"][0]["graph"]


def test_orbit_truncation_exit(capsys):
    code, out, _ = run(capsys, "orbit", "--inline", PATH_D2, "--budget-orbit", "1")
    assert code == EXIT_BUDGET
    assert json.loads(out)["truncated"] is True


# --------------------------------------------------------------------- verify


def test_verify_round_trip(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run(capsys, "certify", "--inline", TRIANGLE, "--output", str(cert_file))
    code, out, _ = run(capsys, "verify", "--input", str(cert_file))
    assert code == EXIT_OK
    assert json.loads(out)["all_passed"] is True
    code, out, _ = run(capsys, "verify", "--input", str(cert_file), "--format", "human")
    assert code == EXIT_OK and "all passed" in out


def test_v1_fixtures_verify(capsys):
    """Certificates in the earlier form verify, their construction records
    listed as ignored and never as a passed check."""
    for fixture in V1_FIXTURES:
        code, out, _ = run(capsys, "verify", "--input", str(fixture))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["all_passed"] is True and report["ignored"] == PROVENANCE
        assert not {c["name"] for c in report["checks"]} & set(PROVENANCE)
        code, out, _ = run(capsys, "verify", "--input", str(fixture), "--format", "human")
        assert code == EXIT_OK and "ignored  triple, kind, exponents" in out
        # the same proof, written in version 2, verifies with nothing ignored
        code, out, _ = run(capsys, "certify", "--inline", V1_GRAPHS[fixture.name], "--verify")
        obj = json.loads(out)
        assert code == EXIT_OK and obj["verification"]["ignored"] == []
        v1 = json.loads(fixture.read_text())["certificate"]
        assert obj["fidelity_bound"] == v1["fidelity_bound"]
        assert obj["method"] == v1["method"]


def test_verify_rejects_tampering(tmp_path, capsys):
    for fixture in V1_FIXTURES:
        code, out, _ = _verify_edited(tmp_path, capsys, fixture, ["kappa"], 0)
        assert code == EXIT_NEGATIVE
        report = json.loads(out)
        assert report["all_passed"] is False
        assert any(c["name"] == "kappa" and not c["passed"] for c in report["checks"])
    # version 2 stores no kappa: S4 = S1 S2 = S3 leaves no twist
    for inline in V1_GRAPHS.values():
        path = _v2_certificate(tmp_path, inline)
        obj = json.loads(path.read_text())
        cert = obj["certificate"]
        d = cert["graph"]["d"]
        cert["S4"] = [(x + y) % d for x, y in zip(cert["S1"], cert["S2"])]
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == EXIT_NEGATIVE and "kappa" in _failed(out)


@pytest.mark.parametrize("s4", ["kept", "S1+S2"])
def test_verify_fails_integrity_past_the_dimension_ceiling(tmp_path, capsys, s4):
    """A certificate whose d is edited to 10^400 fails integrity, exit 2,
    where it once ended in an OverflowError traceback: its kappa of 2
    reaches select_power_t's ceiling, and a kappa of 0 (S4 = S1 S2, which
    commutes with S3) the float lambda' check."""
    path = _v2_certificate(tmp_path, "3 4; 0 1 1; 1 2 2; 2 3 1")
    obj = json.loads(path.read_text())
    cert = obj["certificate"]
    cert["graph"]["d"] = 10**400
    if s4 == "S1+S2":
        cert["S4"] = [x + y for x, y in zip(cert["S1"], cert["S2"])]
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == EXIT_NEGATIVE and _failed(out)[-1] == "integrity"


@pytest.mark.parametrize(
    "where,value,outcome",
    [
        (["operators", "S4", "factorization"], [["2", 2], ["2", 1]], "refused"),
        (["operators", "S4", "factorization"], [["02", 1]], "refused"),
        (["operators", "S1", "factorization", 0, 1], lambda e, d: e + d, "S1"),
        (["triple"], [0, 1], "ignored"),
        (["triple"], [0, 1, 1], "ignored"),
        (["triple"], [0, 1, 3], "ignored"),
        (["kind"], lambda k, d: {"angle": "triangle", "triangle": "angle"}[k], "ignored"),
        (["method"], lambda m, d: {"obs1": "obs4", "obs4": "obs1"}[m], "method"),
        (["exponents", "zz"], 3, "ignored"),
        (["exponents", 0], 0, "ignored"),
    ],
    ids=[
        "factorization-repeated-label", "factorization-padded-label",
        "factorization-unreduced-exponent", "triple-short", "triple-repeated",
        "triple-outside", "kind-angle-on-triangle", "method-flipped", "exponent-extra",
        "exponent-zeroed",
    ],
)
def test_verify_fails_edited_certificate(tmp_path, capsys, where, value, outcome):
    """A well-typed certificate in the earlier form, edited so that its
    fields no longer match what the construction emits: a factorization
    that does not name each vertex at most once is refused (exit 1); one
    the proof reads but that differs from the derived word, and a changed
    method, fail the check named after the field; an edited construction
    record (triple, kind, exponents) is only listed as ignored."""
    for fixture in V1_FIXTURES:
        code, out, err = _verify_edited(tmp_path, capsys, fixture, where, value)
        if outcome == "refused":
            _assert_refused(code, out, err)
        elif outcome == "ignored":
            report = json.loads(out)
            assert code == EXIT_OK and report["all_passed"] is True
            assert report["ignored"] == PROVENANCE
        else:
            assert code == EXIT_NEGATIVE
            assert _failed(out) == [outcome], fixture.name


def test_verify_input_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == EXIT_ERROR and "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code == EXIT_ERROR
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, _, err = run(capsys, "verify", "--input", str(empty))
    assert code == EXIT_ERROR  # malformed certificate object


@pytest.mark.parametrize("text", ["5", "null", "true", '"certificate"', "[1, 2]"])
def test_verify_rejects_json_that_is_not_an_object(tmp_path, capsys, text):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ------------------------------------------------------------------- selftest


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--trials", "60")
    assert code == EXIT_OK
    results = json.loads(out)
    assert len(results) == 6
    assert all(r["violations"] == 0 for r in results)
    assert all(r["trials"] == 60 for r in results)


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_selftest_rejects_no_trials(capsys, trials):
    code, out, err = run(capsys, "selftest", "--trials", trials)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_selftest_human(capsys):
    code, out, _ = run(capsys, "selftest", "--trials", "40", "--format", "human")
    assert code == EXIT_OK
    assert out.count("pass  ") == 6


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_selftest_reports_a_violation(monkeypatch, capsys, fmt):
    """A lemma check that finds a counterexample gives exit 2, a
    ``violation`` entry in JSON and a FAIL line in the human format."""
    from netcert import oracle
    from netcert.errors import PropertyViolation

    def check_lemma_broken(trials, seed=0):
        raise PropertyViolation("broken: inequality violated", instance={})

    monkeypatch.setattr(oracle, "ALL_LEMMA_CHECKS", (oracle.check_lemma_product, check_lemma_broken))
    code, out, _ = run(capsys, "selftest", "--trials", "5", "--format", fmt)
    assert code == EXIT_NEGATIVE
    if fmt == "json":
        passed, failed = json.loads(out)
        assert passed["violations"] == 0
        assert failed == {"name": "check_lemma_broken", "violation": "broken: inequality violated"}
    else:
        lines = out.splitlines()
        assert lines[0].startswith("pass  product:")
        assert lines[1] == "FAIL  check_lemma_broken: broken: inequality violated"


# ------------------------------------------------------------------- plumbing


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "netcert" in capsys.readouterr().out


def test_unknown_command():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EXIT_ERROR


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--inline", TRIANGLE, "--frobnicate"],
        ["enumerate", "--n", "x", "--d", "3"],
        # --seed belongs to selftest alone
        ["orbit", "--inline", TRIANGLE, "--seed", "1"],
    ],
    ids=["unknown-option", "non-integer-n", "seed-outside-selftest"],
)
def test_usage_errors_exit_1(capsys, argv):
    """Usage errors exit 1, not argparse's 2 (which means "not certified"),
    with argparse's usage and ``error:`` lines and no traceback."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("usage: netcert") and ": error: " in err.splitlines()[-1]


# Arguments of a normal run of each subcommand, which exits EXIT_OK; "{cert}"
# is a stored certificate of TRIANGLE.
NORMAL_ARGS = {
    "certify": ["--inline", TRIANGLE],
    "enumerate": ["--n", "3", "--d", "3"],
    "ghz-bound": ["--d", "3"],
    "orbit": ["--inline", PATH_D2],
    "verify": ["--input", "{cert}"],
    "selftest": ["--trials", "5"],
}


def _format_choices():
    """(subcommand, format) for every --format value the parser accepts."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in sub.choices.items():
        (fmt,) = [a for a in parser._actions if a.dest == "format"]
        for choice in fmt.choices:
            yield command, choice


def _normal_argv(tmp_path, command):
    argv = NORMAL_ARGS[command]
    if "{cert}" in argv:
        cert_file = tmp_path / "cert.json"
        assert main(["certify", "--inline", TRIANGLE, "--output", str(cert_file)]) == EXIT_OK
        argv = [a.replace("{cert}", str(cert_file)) for a in argv]
    return [command, *argv]


@pytest.mark.parametrize("command,fmt", list(_format_choices()))
def test_every_offered_format_renders(tmp_path, capsys, command, fmt):
    code, out, err = run(capsys, *_normal_argv(tmp_path, command), "--format", fmt)
    assert code == EXIT_OK and out and err == ""
    if fmt == "json":
        json.loads(out)
    if fmt == "tsv":
        assert "\t" in out.splitlines()[0]


@pytest.mark.parametrize("command", ["certify", "orbit", "verify", "selftest"])
def test_tsv_is_a_usage_error_where_not_rendered(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as info:
        main([*_normal_argv(tmp_path, command), "--format", "tsv"])
    assert info.value.code == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice" in err and "tsv" in err


@pytest.mark.parametrize("command", ["certify", "orbit", "verify"])
def test_input_that_is_not_utf8_is_an_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("2 3\n0 1 1\n1 2 1\n# caf\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["certify", "orbit"])
def test_inline_and_input_together_is_a_usage_error(tmp_path, capsys, command):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("2 3\n0 1 1\n1 2 1\n")
    with pytest.raises(SystemExit) as info:
        main([command, "--inline", TRIANGLE, "--input", str(graph_file)])
    assert info.value.code == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


def test_selftest_seed_is_deterministic(capsys):
    first = run(capsys, "selftest", "--trials", "5", "--seed", "7")
    assert first[0] == EXIT_OK
    assert run(capsys, "selftest", "--trials", "5", "--seed", "7") == first


def test_layer_trace_names_exist():
    """Every (module, function) the benchmark's layer trace wraps is still
    an attribute of that netcert module, so the traced run cannot fail on a
    renamed or deleted function."""
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = [
        f"{module}.{name}"
        for module, name in layertrace.TRACED
        if not callable(getattr(importlib.import_module(f"netcert.{module}"), name, None))
    ]
    assert layertrace.TRACED and missing == []


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "netcert.cli", "certify", "--inline", TRIANGLE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certified"] is True


def test_console_script_installed():
    exe = shutil.which("netcert")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "ghz-bound", "--d", "3", "--format", "tsv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("3\t")
