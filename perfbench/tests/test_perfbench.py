"""Self-tests of the benchmark: inputs, checkers and tracer.

Run with: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads
from tracer import NAMES, Tracer
from workloads import GraphSpec, Request


def _graph(n: int, edges) -> GraphSpec:
    return GraphSpec("g.el", n, tuple(sorted(edges)))


C6 = _graph(6, [(i, i + 1) for i in range(5)] + [(0, 5)])
C5 = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K3 = _graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_repeats_argv_and_bytes_for_a_seed(workload):
    a, b = workloads.build(workload, 5), workloads.build(workload, 5)
    assert [r.argv for r in a.requests] == [r.argv for r in b.requests]
    assert a.files == b.files
    assert a.files != workloads.build(workload, 6).files


def test_schedule_spreads_samples_and_keeps_single_requests_in_order():
    reqs = [Request(f"r{i}", [], "colour", samples=s) for i, s in enumerate((1, 4, 1, 2, 1))]
    order = workloads.schedule(reqs)
    assert sorted(order) == [0, 1, 1, 1, 1, 2, 3, 3, 4]
    assert [i for i in order if reqs[i].samples == 1] == [0, 2, 4]
    spots = [k for k, i in enumerate(order) if i == 1]
    assert spots[-1] - spots[0] >= len(order) // 2


def test_colour_checker_rejects_a_colour_flipped_past_the_defect():
    req = Request("list", [], "colour", C6, {"k": 1, "ell": 2})
    good = {"mode": "list", "defect_bound": 1,
            "colours": {str(v): 1 + v % 2 for v in range(6)}}
    assert checks.check_colour(req, good) is None
    bad = json.loads(json.dumps(good))
    bad["colours"]["1"] = 1  # 0, 1, 2 now share a colour: vertex 1 has 2
    assert "same-coloured" in checks.check_colour(req, bad)
    bad["colours"]["1"] = 3
    assert "palette" in checks.check_colour(req, bad)


def test_minor_checker_rejects_a_dropped_branch_vertex():
    req = Request("minor", [], "detect", C5, {"pattern": K3})
    model = [[0], [1], [2, 3, 4]]
    assert checks.check_detect(req, {"minor": {"branch_sets": model}}) is None
    dropped = [[0], [1], [2, 4]]
    assert "not connected" in checks.check_detect(req, {"minor": {"branch_sets": dropped}})


def test_analyze_checker_rejects_a_wrong_mad():
    # a triangle with a pendant vertex: the triangle is densest, mad = 2
    g = _graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    req = Request("analyze", [], "analyze", g)
    payload = {"mad": "2", "mad_witness": [0, 1, 2], "degeneracy": 2,
               "top_grad_half": "1", "top_grad_method": "brute-force"}
    assert checks.check_analyze(req, payload) is None
    assert "mad" in checks.check_analyze(req, dict(payload, mad="5/2"))


def test_partition_and_tau_checkers_reject_broken_outputs():
    req = Request("partition", [], "colour", C5, {"limit": 2})
    ok = {"mode": "partition", "degree_bound": 1,
          "forest": [[0, 1], [1, 2], [2, 3], [3, 4]], "bounded": [[0, 4]]}
    assert checks.check_colour(req, ok) is None
    cyclic = dict(ok, forest=ok["forest"] + [[0, 4]], bounded=[])
    assert "cycle" in checks.check_colour(req, cyclic)
    tau = Request("tau", [], "detect", C5, {})
    assert checks.check_detect(tau, {"tau": {"value": 3, "cover": [0, 2, 3]}}) is None
    assert "misses" in checks.check_detect(tau, {"tau": {"value": 3, "cover": [0, 1, 2]}})


def _snapshot() -> dict:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "defekt" or name.startswith("defekt.")
            for attr, value in vars(module).items()}


def test_tracer_sees_internal_calls_and_restores_every_rebinding():
    run.import_cli()
    import defekt.colouring
    import defekt.density
    from defekt.graphs import Graph

    before = _snapshot()
    tracer = Tracer()
    with tracer:
        assert defekt.colouring.top_grad_half is not before[("defekt.density", "top_grad_half")]
        defekt.density.top_grad_half(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.stats["density.top_grad_half"].calls == 1
    assert tracer.stats["density.mad_exact"].calls == 1  # called from inside
    assert set(tracer.dump()) == set(NAMES)


def _cheap(corpus: workloads.Corpus) -> list[Request]:
    return [r for r in corpus.requests
            if r.graph is not None and r.graph.n <= 10][:12]


def _stdouts(execute, reqs) -> list[str]:
    out = []
    for req in reqs:
        code, stdout, _ = execute(req)
        assert code in (0, 1)
        out.append(stdout)
    return out


def test_traced_stdout_equals_untraced_byte_for_byte():
    with run.workspace("oracle-small", 3) as workdir:
        corpus, cli, _ = run.setup("oracle-small", 3, workdir)
        reqs = _cheap(corpus)
        plain = _stdouts(run.InProcess(cli), reqs)
        with Tracer():
            traced = _stdouts(run.InProcess(cli), reqs)
    assert plain == traced

    with run.workspace("cli-cold", 3) as workdir:
        corpus, _, _ = run.setup("cli-cold", 3, workdir)
        reqs = corpus.requests[:4]
        plain = _stdouts(run.Subprocess(workdir), reqs)
        tracer = Tracer()
        traced = _stdouts(run.Subprocess(workdir, tracer), reqs)
    assert plain == traced
    assert tracer.stats["cli.main"].calls == len(reqs)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
