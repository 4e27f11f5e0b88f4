"""Frozen outputs: every request of the benchmark's seed-0 corpora, replayed
through the CLI in process, prints exactly the stdout whose digest
``perfbench/digests.json`` records.  Every function the benchmark's tracer
wraps by name still exists.

The corpora and the digests are only read here, never rewritten.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

from defekt import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_seed_0_requests_match_their_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DEFEKT_CAPS", raising=False)
    monkeypatch.chdir(tmp_path)
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    replayed, mismatched = 0, []
    for workload in workloads.WORKLOADS:
        corpus = workloads.build(workload, 0)
        corpus.write(tmp_path)
        for req in corpus.requests:
            cli.main(req.argv)
            stdout = capsys.readouterr().out
            replayed += 1
            if checks.digest(stdout) != recorded[workload][req.rid]:
                mismatched.append(f"{workload}/{req.rid}")
            elif "save_colouring" in req.params:
                # a later verify request reads it, as in the benchmark loop
                colours = json.loads(stdout)["colours"]
                (tmp_path / req.params["save_colouring"]).write_text(json.dumps(colours))
    assert mismatched == []
    assert replayed == sum(map(len, recorded.values()))


def test_every_traced_name_is_a_defekt_function():
    # the tracer looks each name up at run time, so a rename or a deletion
    # would otherwise show only when the benchmark runs traced
    missing = [
        f"{module}.{name}"
        for module, names in tracer.TARGETS.items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(f"defekt.{module}"), name, None))
    ]
    assert missing == []
