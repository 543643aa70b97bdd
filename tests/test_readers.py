"""Reader fuzzer: every mutant of a certificate file is refused with a typed
error or reads back to its own text (ROADMAP item 24).

Sources: the earlier-form fixtures in tests/data, every (4,3) certificate and
the certify_verify pool.  Mutations, at every level: a key dropped, an
unknown key added, a scalar retyped (int to float, bool and string), a list
turned into an object or reversed, a label duplicated, NaN, Infinity and
10**400 in place of a scalar, a key given twice in the text, and the
certify wrapper's own fields.  Standard library only, fixed seeds.
"""

import json
import random
from pathlib import Path

import pytest

from netcert import Certificate, Multigraph, certify_any, enumerate_connected_multigraphs
from netcert.checker import (
    _json_text,
    _v1_to_json_obj,
    certificate_from_json,
    certificate_from_json_obj,
    certificate_to_json_obj,
)
from netcert.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main
from netcert.errors import ResourceError, StructureError

FIXTURES = sorted((Path(__file__).parent / "data").glob("v1_*.json"))


def _sources(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    objs = [json.loads(f.read_text())["certificate"] for f in FIXTURES]
    graphs = [*enumerate_connected_multigraphs(4, 3), *workloads.certify_stream(1)]
    certs = [c for c in map(certify_any, graphs) if isinstance(c, Certificate)]
    return objs + [certificate_to_json_obj(c) for c in certs]


def _nodes(value, path=()):
    """(path, node) of every dict, list and scalar inside ``value``."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _replaced(obj, path, value):
    obj = json.loads(json.dumps(obj))
    if not path:
        return value
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


def _mutants(obj, rng):
    """The mutants of one certificate object, as JSON values."""
    for path, node in _nodes(obj):
        if isinstance(node, dict):
            for key in node:
                yield _replaced(obj, path, {k: v for k, v in node.items() if k != key})
            yield _replaced(obj, path, {**node, "note": 0})
        elif isinstance(node, list):
            yield _replaced(obj, path, {str(i): v for i, v in enumerate(node)})
            if len(node) > 1 and node[::-1] != node:
                yield _replaced(obj, path, node[::-1])
            if node and isinstance(node[0], str):  # a group: a label twice
                yield _replaced(obj, path, [*node, rng.choice(node)])
        elif type(node) is int:
            for value in (float(node), bool(node), str(node), 10**400, float("nan"), float("inf")):
                yield _replaced(obj, path, value)


def _written(cert, obj):
    return (certificate_to_json_obj if "version" in obj else _v1_to_json_obj)(cert)


def test_every_mutant_is_refused_or_reads_back_to_its_own_text(monkeypatch):
    rng = random.Random(24)
    sources = _sources(monkeypatch)
    assert len(sources) == 4 + 53 + 216
    tried = accepted = 0
    for obj in sources:
        for mutant in _mutants(obj, rng):
            tried += 1
            try:
                cert = certificate_from_json_obj(mutant)
            except (StructureError, ResourceError):  # ResourceError: n past the vertex ceiling
                continue
            accepted += 1
            assert _json_text(_written(cert, mutant)) == _json_text(mutant), mutant
    assert tried > 30_000 and 0 < accepted < tried


def test_a_key_given_twice_is_refused():
    """json.loads keeps a repeated key's last value; the reader refuses it at
    every level, whichever copy holds what."""
    v2 = certificate_to_json_obj(certify_any(Multigraph.from_text("3 4\n0 1 1\n1 2 2\n2 3 1")))
    for obj in [v2, *(json.loads(f.read_text())["certificate"] for f in FIXTURES)]:
        for node_path, node in _nodes(obj):
            if not isinstance(node, dict) or not node:
                continue
            key = next(iter(node))
            text = json.dumps(_replaced(obj, node_path, "@"))
            inner = json.dumps(node)
            twice = "{" + json.dumps(key) + ": 0, " + inner[1:]
            with pytest.raises(StructureError, match=f"repeated key {key!r}"):
                certificate_from_json(text.replace('"@"', twice))


def _verify(tmp_path, capsys, obj):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", "--input", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_certify_wrapper_fields_are_refused_or_checked(tmp_path, capsys):
    """verify reads certify's output: a key other than certified, method,
    fidelity_bound, verification and certificate, or certified not true, is
    refused (exit 1); an edited method, fidelity_bound or verification fails
    the check named after it (exit 2)."""
    assert main(["certify", "--inline", "3 4; 0 1 1; 1 2 2; 2 3 1", "--verify"]) == EXIT_OK
    wrapper = json.loads(capsys.readouterr().out)
    assert set(wrapper) == {"certified", "method", "fidelity_bound", "verification", "certificate"}
    code, out, _ = _verify(tmp_path, capsys, wrapper)
    checks = json.loads(out)["checks"]
    assert code == EXIT_OK and [c["name"] for c in checks[-3:]] == [
        "method", "fidelity_bound", "verification",
    ]
    for edit in [{"note": "x"}, {"certified": False}, {"certified": 1}]:
        code, out, err = _verify(tmp_path, capsys, {**wrapper, **edit})
        assert code == EXIT_ERROR and out == "" and err.count("\n") == 1
    code, out, err = _verify(tmp_path, capsys, {k: v for k, v in wrapper.items() if k != "certified"})
    assert code == EXIT_ERROR
    edited = {
        "method": "obs1",
        "fidelity_bound": 0.5,
        "verification": {**wrapper["verification"], "all_passed": False},
    }
    for name, value in edited.items():
        code, out, _ = _verify(tmp_path, capsys, {**wrapper, name: value})
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert code == EXIT_NEGATIVE and failed == [name]
    # obs1 and 0.5 beside an obs4 certificate whose bound is 0.954951
    code, out, _ = _verify(tmp_path, capsys, {**wrapper, **edited})
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert code == EXIT_NEGATIVE and failed == list(edited)
    for fixture in FIXTURES:  # certified and certificate only
        code, _, _ = _verify(tmp_path, capsys, json.loads(fixture.read_text()))
        assert code == EXIT_OK
