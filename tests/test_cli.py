"""End-to-end runs of the command line through ``main(argv)``."""

import argparse
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from defekt import caps, cli, experiments
from defekt.cli import build_parser, main
from defekt.errors import AlgorithmError

from helpers import ladder


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gadget_example(capsys):
    code, out = run(capsys, "gadget", "gsn", "2", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "5 4"
    assert len(lines) == 5  # header plus the four star edges


def test_gadget_formats(capsys):
    code, out = run(capsys, "gadget", "cycle", "4", "--format", "dimacs")
    assert code == 0
    assert out.startswith("p edge 4 4")
    code, out = run(capsys, "gadget", "cycle", "4", "--format", "json")
    assert json.loads(out) == {
        "n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]
    }


def test_bounds_earth_moon_table(capsys):
    code, out = run(capsys, "bounds", "earth-moon")
    assert code == 0
    rows = json.loads(out)
    assert [r["colours"] for r in rows] == [5, 6, 7, 8, 9, 10, 11]


def test_bounds_formula_evaluation(capsys):
    code, out = run(
        capsys, "bounds", "n1",
        "--params", '{"s": 2, "t": 48, "delta": "4", "delta1": "4"}',
    )
    assert code == 0
    assert json.loads(out)["value"] == "196"


def test_analyze_stdin_roundtrip(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c6.txt"
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    code, out = run(capsys, "analyze", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["mad"] == "2"
    assert payload["degeneracy"] == 2


def test_analyze_long_ladder(tmp_path, capsys):
    # its flow paths run ~1000 steps deep, past a recursive search's limit
    g = ladder(1000)
    path = tmp_path / "ladder.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    code, out = run(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["mad"] == "1499/500"


def test_colour_verify_round_trip(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    code, out = run(capsys, "colour", str(graph), "--mode", "list",
                    "--k", "1", "--ell", "2")
    assert code == 0
    colouring = tmp_path / "c.json"
    colouring.write_text(json.dumps(json.loads(out)["colours"]))
    code, out = run(capsys, "verify", str(graph),
                    "--colouring", str(colouring), "--defect", "1")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_rejects_bad_colouring(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n")
    colouring = tmp_path / "c.json"
    colouring.write_text('{"0": 1, "1": 1, "2": 1}')
    code, out = run(capsys, "verify", str(graph),
                    "--colouring", str(colouring), "--defect", "0")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"]


def test_structural_failure_reports_witness(tmp_path, capsys):
    graph = tmp_path / "k4.txt"
    graph.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out = run(capsys, "colour", str(graph), "--mode", "list",
                    "--k", "1", "--ell", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "StructuralError"
    assert payload["witness"]["n"] == 4


def test_witness_round_trips_through_verify(tmp_path, capsys):
    graph = tmp_path / "c4.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    code, out = run(capsys, "detect", str(graph), "--kst-star", "2", "1")
    assert code == 0
    cert = json.loads(out)["kst-star"]
    assert cert is not None
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    code, out = run(capsys, "verify", str(graph),
                    "--certificate", str(cert_file), "--s", "2", "--t", "1")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_usage_errors_exit_two(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n")
    assert run(capsys, "colour", str(graph), "--mode", "list")[0] == 2
    assert run(capsys, "detect", str(graph))[0] == 2
    assert run(capsys, "verify", str(graph))[0] == 2
    assert run(capsys, "experiment", "nope")[0] == 2
    assert run(capsys, "gadget", "nope")[0] == 2
    assert run(capsys, "gadget", "cycle")[0] == 2
    assert run(capsys, "bounds", "no-such-formula")[0] == 2


@pytest.mark.parametrize(
    "data",
    [
        b'{"n": 2, "edges": [["a", 1]]}',
        b'{"n": 2, "edges": [[0, 1]], "labels": 5}',
        b'{"n": true, "edges": []}',
        b"\xff\xfe",
        b'{"n": ' + b"9" * 5000 + b', "edges": []}',
        b'{"n": 2, "edges": ' + b"[" * 100_000 + b"}",
    ],
    ids=["string-vertex-id", "labels-not-a-list", "bool-vertex-count", "not-utf8",
         "int-too-long", "nested-too-deep"],
)
def test_malformed_json_graph_is_usage_error(tmp_path, capsys, data):
    graph = tmp_path / "g.json"
    graph.write_bytes(data)
    assert_usage_error(capsys, "analyze", str(graph))


def test_non_utf8_stdin_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"0 1\n\xff\n")))
    err = assert_usage_error(capsys, "analyze", "-")
    assert "stdin is not UTF-8" in err


def assert_usage_error(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "n1", "--params", '{"s": 2, "t": 2, "delta": "x", "delta1": 1}'],
        ["bounds", "n1", "--params", '{"s": "2", "t": 2, "delta": 1, "delta1": 1}'],
        ["bounds", "n1", "--params", '{"s": true, "t": 2, "delta": 1, "delta1": 1}'],
        ["bounds", "surface-dg", "--params", '{"genus": ' + "9" * 5000 + "}"],
        ["gadget", "binary-tree", "40"],
        ["gadget", "path", "1000000000"],
        ["gadget", "complete", "1001"],
        ["gadget", "complete-bipartite", "-2", "5"],
        ["gadget", "star", "-1"],
        ["gadget", "petersen", "--out", "{tmp}/no-such-dir/g.txt"],
        ["gadget", "petersen", "--out", "{tmp}"],
        ["bounds", "crossing-lower", "--params",
         '{"n": 1000000000000, "m": 6772001872658, "genus": 3}'],
        ["experiment", "earth-moon-table", "--count", "3"],
        ["bounds", "earth-moon", "--params", '{"x": 1}'],
        ["experiment", "dichotomy-random", "--size", "0", "--count", "2"],
        ["experiment", "no-c4-planar", "--size", "0"],
        ["experiment", "kell-smoke", "--count", "-3"],
        ["experiment", "no-c4-planar", "--size", "-1"],
        ["bounds", "n1", "--params",
         '{"formula_id": "n1", "s": 2, "t": 2, "delta": 1, "delta1": 1}'],
    ],
    ids=["bounds-string-delta", "bounds-string-s", "bounds-bool-s",
         "bounds-int-too-long", "gadget-binary-tree-over-cap", "gadget-path-over-cap",
         "gadget-complete-over-edge-cap", "gadget-complete-bipartite-negative-side",
         "gadget-star-negative",
         "out-in-missing-dir", "out-is-a-dir", "bounds-precision", "experiment-override",
         "bounds-earth-moon-params", "dichotomy-size-zero", "no-c4-size-zero",
         "kell-count-negative", "no-c4-size-negative", "bounds-formula-id-param"],
)
def test_bad_argument_is_usage_error(tmp_path, capsys, argv):
    assert_usage_error(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))


def test_fault_inside_an_experiment_is_not_a_usage_error(capsys, monkeypatch):
    def broken(seed=0, count=1):
        raise TypeError("bug inside the experiment")

    monkeypatch.setitem(experiments.EXPERIMENTS, "earth-moon-table", broken)
    with pytest.raises(TypeError, match="bug inside"):
        main(["experiment", "earth-moon-table", "--count", "2"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,
        "p edge 3 1\ne 1 2 " + "7" * 50_000 + "\n",
        '{"n": 2, "edges": [[0, "' + "x" * 100_000 + '"]]}',
    ],
    ids=["edge-list", "dimacs", "json-edge-entry"],
)
def test_parse_error_quotes_a_short_prefix(tmp_path, capsys, text):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    err = assert_usage_error(capsys, "analyze", str(graph))
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "env",
    ["{", '{"top_grad": ' + "9" * 5000 + "}", "[" * 100_000, '{"minor_host": true}',
     '{"minor_host": -1}', '{"a\\nb": 1}'],
    ids=["not-json", "int-too-long", "nested-too-deep", "bool-value", "negative-value",
         "line-break-key"],
)
def test_cap_over_malformed_env_is_usage_error(capsys, monkeypatch, env):
    # refused on every subcommand, including those that read no cap
    monkeypatch.setenv("DEFEKT_CAPS", env)
    for argv in (["bounds", "earth-moon"], ["gadget", "petersen"]):
        err = assert_usage_error(capsys, *argv)
        assert err.count("\n") == 1 and "DEFEKT_CAPS" in err
    assert os.environ["DEFEKT_CAPS"] == env


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"0": ' + "9" * 5000 + ', "1": 2}', "not valid JSON"),
        ("[" * 100_000, "not valid JSON"),
        ('{"0": 1, "00": 2, "1": 2}', "vertex 0 is not keyed as '0'"),
        ('{"0": true, "1": 1}', "colour of vertex 0 must be an integer"),
        ('{"0": "a", "1": "b"}', "colour of vertex 0 must be an integer"),
    ],
    ids=["int-too-long", "nested-too-deep", "non-canonical-key", "bool-colour",
         "string-colour"],
)
def test_malformed_colouring_is_usage_error(tmp_path, capsys, text, message):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n")
    colouring = tmp_path / "c.json"
    colouring.write_text(text)
    err = assert_usage_error(capsys, "verify", str(graph), "--colouring", str(colouring),
                             "--defect", "0")
    assert message in err


@pytest.mark.parametrize(
    "digits, message",
    [(4000, "is out of range for n=2"), (5000, "is not an integer")],
)
def test_long_colouring_key_is_quoted_short(tmp_path, capsys, digits, message):
    # 5,000 digits is past int()'s default limit of 4,300
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n")
    colouring = tmp_path / "c.json"
    colouring.write_text('{"' + "9" * digits + '": 1}')
    err = assert_usage_error(capsys, "verify", str(graph), "--colouring", str(colouring),
                             "--defect", "0")
    assert message in err
    assert err.count("\n") == 1 and len(err.encode()) < 200


C4_FLAGS = {
    "low-degree-vertex": ["--s", "3"],
    "light-edge": ["--ell", "2"],
    "kst-star": ["--s", "2", "--t", "1"],
    "minor-model": ["--pattern", "K3"],
    "tree-embedding": ["--tree", "P3"],
}


def verify_c4(tmp_path, certificate: str, kind: str):
    graph = tmp_path / "c4.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    (tmp_path / "K3").write_text("0 1\n1 2\n0 2\n")
    (tmp_path / "P3").write_text("0 1\n1 2\n")
    cert = tmp_path / "cert.json"
    cert.write_text(certificate)
    flags = [str(tmp_path / f) if f in ("K3", "P3") else f for f in C4_FLAGS[kind]]
    return [str(graph), "--certificate", str(cert), *flags]


@pytest.mark.parametrize(
    "kind, certificate",
    [
        ("low-degree-vertex", '{"kind": "low-degree-vertex", "vertex": 0, "degree": 2}'),
        ("light-edge", '{"kind": "light-edge", "edge": [0, 1], "degrees": [2, 2]}'),
        ("minor-model", '{"kind": "minor-model", "branch_sets": [[0], [1], [2, 3]]}'),
        ("tree-embedding", '{"kind": "tree-embedding", "mapping": [3, 0, 1]}'),
    ],
)
def test_verify_accepts_each_certificate_kind(tmp_path, capsys, kind, certificate):
    code, out = run(capsys, "verify", *verify_c4(tmp_path, certificate, kind))
    assert code == 0
    assert json.loads(out) == {"valid": True, "kind": kind}


@pytest.mark.parametrize(
    "kind, certificate",
    [
        ("low-degree-vertex", "not json"),
        ("low-degree-vertex", "[0, 2]"),
        ("low-degree-vertex", '{"kind": "low-degree-vertex", "vertex": 0}'),
        ("light-edge", '{"kind": "light-edge", "edge": [0, 1, 2], "degrees": [2, 2]}'),
        ("kst-star",
         '{"kind": "kst-star", "centres": [0, 2], "outer": [1], "pair_vertices": [[0, 2]]}'),
        ("minor-model", '{"kind": "minor-model", "branch_sets": [0, 1, 2]}'),
        ("low-degree-vertex", '{"kind": "low-degree-vertex", "vertex": "0", "degree": 2}'),
        ("low-degree-vertex", '{"kind": "low-degree-vertex", "vertex": true, "degree": 2}'),
        ("tree-embedding", '{"kind": "tree-embedding", "mapping": ["a"]}'),
        ("minor-model", '{"kind": ["minor-model"], "branch_sets": []}'),
        ("light-edge", '{"kind": "minor-model", "branch_sets": [[0], [1], [2, 3]]}'),
        ("minor-model", "[" * 100_000),
        ("low-degree-vertex",
         '{"kind": "low-degree-vertex", "vertex": ' + "9" * 5000 + ', "degree": 2}'),
        ("low-degree-vertex",
         '{"kind": "low-degree-vertex", "vertex": 0, "degree": 2, "note": "x"}'),
    ],
    ids=["not-json", "json-list", "missing-field", "three-entry-edge",
         "bad-pair-vertices", "flat-branch-sets", "string-vertex", "bool-vertex",
         "string-in-mapping", "unhashable-kind", "minor-model-without-pattern",
         "nested-too-deep", "int-too-long", "unknown-key"],
)
def test_malformed_certificate_is_usage_error(tmp_path, capsys, kind, certificate):
    assert_usage_error(capsys, "verify", *verify_c4(tmp_path, certificate, kind))


@pytest.mark.parametrize(
    "kind, certificate, needed",
    [
        ("low-degree-vertex", '{"kind": "low-degree-vertex", "vertex": 0, "degree": 2}',
         "--s"),
        ("light-edge", '{"kind": "light-edge", "edge": [0, 1], "degrees": [2, 2]}',
         "--ell"),
        ("kst-star", '{"kind": "kst-star", "centres": [0, 2], "outer": [1], '
         '"pair_vertices": [[[0, 2], 3]]}', "--s and --t"),
    ],
    ids=["low-degree-vertex", "light-edge", "kst-star"],
)
def test_dichotomy_certificate_needs_only_the_flags_it_reads(
    tmp_path, capsys, kind, certificate, needed
):
    argv = verify_c4(tmp_path, certificate, kind)
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    assert json.loads(out) == {"valid": True, "kind": kind}
    err = assert_usage_error(capsys, "verify", *argv[:3])
    assert err == f"error: {kind} certificates need {needed}\n"


def test_missing_file_is_usage_error(capsys):
    assert run(capsys, "analyze", "/no/such/file")[0] == 2


def test_experiment_json_lines_deterministic(capsys):
    code, first = run(capsys, "experiment", "dichotomy-random",
                      "--count", "6", "--seed", "5")
    assert code == 0
    code, second = run(capsys, "experiment", "dichotomy-random",
                       "--count", "6", "--seed", "5")
    assert first == second
    for line in first.strip().splitlines():
        row = json.loads(line)
        assert row["pass"] is True


def test_experiment_formats(capsys):
    code, out = run(capsys, "experiment", "earth-moon-table",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "actual,check_id,claim_id,expected,inputs,pass"
    code, out = run(capsys, "experiment", "earth-moon-table",
                    "--format", "text")
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_cap_override(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DEFEKT_CAPS", raising=False)
    graph = tmp_path / "c13.txt"
    edges = [(i, (i + 1) % 13) for i in range(13)]
    graph.write_text("".join(f"{u} {v}\n" for u, v in edges))
    pattern = tmp_path / "k3.txt"
    pattern.write_text("0 1\n1 2\n0 2\n")
    monkeypatch.setenv("DEFEKT_CAPS", '{"minor_host": 12}')
    code, _ = run(capsys, "detect", str(graph), "--minor", str(pattern))
    assert code == 2
    monkeypatch.setenv("DEFEKT_CAPS", '{"minor_host": 13}')
    code, out = run(capsys, "detect", str(graph), "--minor", str(pattern))
    assert code == 0
    assert json.loads(out)["minor"] is not None


def test_cap_override_bad_pairs(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "p3.txt"
    graph.write_text("0 1\n1 2\n")
    # mad_bruteforce and choosability_vertices were cap keys once
    for name in ("bogus", "mad_bruteforce", "choosability_vertices"):
        monkeypatch.setenv("DEFEKT_CAPS", json.dumps({name: 16}))
        assert_usage_error(capsys, "analyze", str(graph))
    monkeypatch.setenv("DEFEKT_CAPS", '{"minor_host": "x"}')
    assert_usage_error(capsys, "analyze", str(graph))
    # caps have one spelling: there is no --cap option
    monkeypatch.delenv("DEFEKT_CAPS")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(graph), "--cap", "top_grad=3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_every_cap_is_read():
    # a cap that no routine reads is a knob that changes nothing
    package = Path(caps.__file__).parent
    source = "".join(p.read_text() for p in package.glob("*.py") if p.name != "caps.py")
    unread = [f.name for f in dataclasses.fields(caps.Caps)
              if not re.search(rf"\.{f.name}\b", source)]
    assert unread == []


def _reader_source(handler) -> str:
    """Source of ``handler`` and of every ``cli`` function it passes ``args``
    to, transitively."""
    parts, seen, todo = [], set(), [handler]
    while todo:
        fn = todo.pop()
        if fn.__name__ in seen:
            continue
        seen.add(fn.__name__)
        parts.append(inspect.getsource(fn))
        todo += [getattr(cli, name) for name in re.findall(r"\b(\w+)\(args\b", parts[-1])
                 if inspect.isfunction(getattr(cli, name, None))]
    return "\n".join(parts)


def test_every_cli_option_is_read():
    # an option that no handler reads is a flag that changes nothing; each
    # subcommand answers for its own options, so a dest read by one
    # subcommand cannot hide the same dest left unread on another.  main()
    # reads the shared ones (--format, --out) for every subcommand, and the
    # CERTIFICATES table the verify flags its kinds need.
    by_table = {flag for _, flags, _ in cli.CERTIFICATES.values() for flag in flags}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, parser in sub.choices.items():
        source = _reader_source(parser.get_default("handler")) + inspect.getsource(main)
        exempt = by_table if "CERTIFICATES" in source else set()
        unread += [f"{name} {action.dest}" for action in parser._actions
                   if action.dest != "help" and action.dest not in exempt
                   and not re.search(rf"\bargs\.{action.dest}\b", source)]
    assert unread == []


def test_internal_fault_exits_three(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise AlgorithmError("self-check failed")

    monkeypatch.setattr(cli, "build_report", broken)
    graph = tmp_path / "p3.txt"
    graph.write_text("0 1\n1 2\n")
    code = main(["analyze", str(graph)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "AlgorithmError", "message": "self-check failed"}


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["bounds", "earth-moon", "--out", str(target)])
    assert capsys.readouterr().out == ""
    assert code == 0
    assert json.loads(target.read_text())[0]["colours"] == 5
    graph = tmp_path / "k4.txt"
    graph.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code = main(["colour", str(graph), "--mode", "list", "--k", "1", "--ell", "2",
                 "--out", str(target)])
    assert capsys.readouterr().out == ""
    assert code == 1
    assert json.loads(target.read_text())["error"] == "StructuralError"


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DEFEKT_CAPS", raising=False)
    assert build_parser() is build_parser()
    first = run(capsys, "gadget", "gsn", "2", "3")
    assert first[0] == 0
    assert run(capsys, "gadget", "gsn", "2", "3") == first
    assert run(capsys, "gadget", "petersen")[0] == 0  # positionals do not carry over
    graph = tmp_path / "c13.txt"
    graph.write_text("".join(f"{i} {(i + 1) % 13}\n" for i in range(13)))
    pattern = tmp_path / "k3.txt"
    pattern.write_text("0 1\n1 2\n0 2\n")
    monkeypatch.setenv("DEFEKT_CAPS", '{"minor_host": 12}')
    assert run(capsys, "detect", str(graph), "--minor", str(pattern))[0] == 2
    monkeypatch.delenv("DEFEKT_CAPS")
    assert caps.current_caps() == caps.Caps()
    assert run(capsys, "detect", str(graph), "--minor", str(pattern))[0] == 0
    with pytest.raises(SystemExit):
        main(["colour", str(graph), "--mode", "bogus"])
    capsys.readouterr()
    assert run(capsys, "gadget", "gsn", "2", "3") == first


def test_module_entry_point():
    # the child imports the same package as this test, installed or not
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "defekt.cli", "gadget", "petersen"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "10 15"
