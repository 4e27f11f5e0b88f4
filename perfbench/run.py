"""Seeded benchmark of the defekt CLI.

One run:   python3 perfbench/run.py --workload oracle-small --seed 3 --seconds 30 --trace 0
All three: python3 perfbench/run.py --workload all
Spread:    python3 perfbench/run.py --workload peel-large --repeat 10 --seed 1

A timed run (``--trace 0``) makes ``round(seconds / PASS_SECONDS)`` whole
passes over the workload's request list, sending one request at a time.
Before each pass it sets the workload up twice (a fresh import of the package
from ``src/``, the seeded inputs generated and written under
``.bench_work/``).  Outputs are checked between requests, outside the
timed region.  The last line printed is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of BENCHMARK.json.  A traced run (``--trace 1``) makes one
untraced and one traced pass (see ``tracer.py``) and reports the per-layer
metrics instead.

``--workload all`` and ``--repeat N`` run single runs as subprocesses and
print every metric by name and unit (with quartiles when N > 1); they exit
non-zero when any output check failed.  ``--record-digests`` rewrites
``digests.json`` from the default seed.  DESIGN.md has the rest.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402

DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
SETUPS_PER_PASS = 2  # setup_s is the median of the set-ups spread over a run
PROBE_REPS = 7      # interpreter start-ups per probe arm
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
}
EXTRA_LAYER = {
    "colouring.build_peel_trace.steps": "count",
    "colouring.build_peel_trace.raised": "count",
    "colouring.colour_kell.worst_case_share": "ratio",
    "density.top_grad_half.heuristic_share": "ratio",
    "colouring.build_peel_trace.scaling_exp": "slope",
    "density.degeneracy.scaling_exp": "slope",
    "density.mad_exact.scaling_exp": "slope",
    "cli.import_ms": "ms",
    "env.interpreter_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package, a child that hung)."""


# ---------------------------------------------------------------------------
# set-up

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def import_cli():
    """Import ``defekt.cli`` afresh from ``src/`` (re-running module code)."""
    for name in [n for n in sys.modules if n == "defekt" or n.startswith("defekt.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("defekt.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"defekt was imported from {cli.__file__}, not {SRC}")
    return cli


def run_child(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out: {cmd[:4]}") from None


def setup(workload: str, seed: int, workdir: Path):
    """Import the CLI afresh, generate the inputs and write them; cli-cold
    also starts one CLI process so its byte-code cache is warm.  Returns
    the corpus, the CLI module and the time it all took."""
    if not (SRC / "defekt" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'defekt'}")
    t0 = time.perf_counter()
    cli = import_cli()
    corpus = workloads.build(workload, seed)
    corpus.write(workdir)
    if workload == "cli-cold":
        warm = run_child([sys.executable, "-m", "defekt.cli", "gadget", "path", "2"], workdir)
        if warm.returncode != 0:
            raise BenchError(f"the CLI does not start: {warm.stderr.strip()}")
    return corpus, cli, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# executing requests

class InProcess:
    """Calls ``defekt.cli.main`` with the request's argv, capturing output;
    with ``tracer`` installed around the call when one is given."""

    def __init__(self, cli, tracer: Tracer | None = None) -> None:
        self.cli = cli
        self.tracer = tracer

    def __call__(self, req: workloads.Request) -> tuple[int | str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with (self.tracer or contextlib.nullcontext()), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code: int | str = self.cli.main(req.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed request
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        return code, out.getvalue(), elapsed


class Subprocess:
    """Runs each request in a fresh interpreter: ``python -m defekt.cli``,
    or ``child.py`` with the tracer when ``tracer`` is given."""

    def __init__(self, workdir: Path, tracer: Tracer | None = None) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.stats_file = workdir / "child-stats.json"

    def __call__(self, req: workloads.Request) -> tuple[int | str, str, float]:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "defekt.cli", *req.argv]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), str(self.stats_file), *req.argv]
        t0 = time.perf_counter()
        proc = run_child(cmd, self.workdir)
        elapsed = time.perf_counter() - t0
        if "Traceback" in proc.stderr:
            return f"traceback: {proc.stderr.strip().splitlines()[-1]}", proc.stdout, elapsed
        if self.tracer is not None:
            self.tracer.merge(json.loads(self.stats_file.read_text()))
        return proc.returncode, proc.stdout, elapsed


def executor(workload: str, workdir: Path, cli):
    return Subprocess(workdir) if workload == "cli-cold" else InProcess(cli)


@dataclass
class Loop:
    """What the closed loop did, in whole passes over the request list."""

    samples: list[list[float]]  # per request, one latency per sample
    digests: list[str]          # per request, of the last sample's stdout
    failures: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def of(cls, corpus: workloads.Corpus) -> "Loop":
        return cls([[] for _ in corpus.requests], [""] * len(corpus.requests))

    @property
    def busy_s(self) -> float:
        return sum(map(sum, self.samples))

    @property
    def attempted(self) -> int:
        return sum(map(len, self.samples))


def run_request(loop: Loop, i: int, req: workloads.Request, execute, workdir: Path,
                expected: dict) -> None:
    """Send one request and check its output; only the request is timed."""
    code, stdout, elapsed = execute(req)
    loop.samples[i].append(elapsed)
    loop.digests[i] = checks.digest(stdout)
    reason = verify(req, code, stdout, expected.get(req.rid), workdir)
    if reason is not None:
        loop.failures.append((req.rid, reason))


def run_pass(loop: Loop, corpus: workloads.Corpus, execute, workdir: Path,
             expected: dict) -> None:
    """Send every request its ``samples`` times, one at a time."""
    for i in workloads.schedule(corpus.requests):
        run_request(loop, i, corpus.requests[i], execute, workdir, expected)


def verify(req, code, stdout: str, expected_digest: str | None, workdir: Path) -> str | None:
    if isinstance(code, str):
        return code
    reason = checks.check(req, code, stdout)
    if reason is None and expected_digest is not None and checks.digest(stdout) != expected_digest:
        reason = "stdout differs from the recorded digest"
    if reason is None and "save_colouring" in req.params:
        colours = json.loads(stdout)["colours"]
        (workdir / req.params["save_colouring"]).write_text(json.dumps(colours))
    return reason


def load_digests(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(DIGESTS.read_text())[workload]


# ---------------------------------------------------------------------------
# metrics

def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload: str, corpus: workloads.Corpus, loop: Loop, setup_s: float) -> dict:
    """Metrics of one pass whose request latencies are each request's
    fastest over its samples in the run.  The program is deterministic,
    and on a shared machine interference only ever adds time, in bursts of
    seconds, so the fastest of samples spread over the run is the steadiest
    reading of what the code costs.  Requests that failed in any sample
    count as not completed."""
    latency = [min(ts) for ts in loop.samples]
    failed = {rid for rid, _ in loop.failures}
    done = [r for r in corpus.requests if r.rid not in failed]
    busy = sum(latency)
    lat_ms = [x * 1000 for x in latency]
    return {
        "setup_s": setup_s,
        "req_per_s": len(done) / busy,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "edges_per_s": sum(r.edges for r in done) / busy,
        "peak_rss_mb": peak_rss_mb(workload),
    }


def interpreter_probe(workdir: Path) -> tuple[float, float]:
    """Median start-up of a bare interpreter, and what ``import defekt.cli``
    adds to it, in ms; the two arms alternate so drift hits both."""
    bare, with_cli = [], []
    for _ in range(PROBE_REPS):
        for arm, code in ((bare, "pass"), (with_cli, "import defekt.cli")):
            t0 = time.perf_counter()
            run_child([sys.executable, "-c", code], workdir)
            arm.append(time.perf_counter() - t0)
    base = statistics.median(bare) * 1000
    return base, statistics.median(with_cli) * 1000 - base


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def scaling_probe(corpus: workloads.Corpus, workdir: Path) -> dict:
    """Time the peel and degeneracy over the n = 2k/4k/8k sweep and mad over
    n = 500/1000, calling the layers directly; none of them calls another
    wrapped function, so each time is also the call's self time."""
    graphs = importlib.import_module("defekt.graphs")
    density = importlib.import_module("defekt.density")
    colouring = importlib.import_module("defekt.colouring")
    calls = {
        "colouring.build_peel_trace": ("peel", lambda g: colouring.build_peel_trace(g, 3, 40)),
        "density.degeneracy": ("peel", density.degeneracy),
        "density.mad_exact": ("mad", density.mad_exact),
    }
    out = {}
    for name, (sweep, fn) in calls.items():
        points = []
        for spec in corpus.sweep[sweep]:
            g = graphs.sniff((workdir / spec.name).read_text())
            t0 = time.perf_counter()
            fn(g)
            points.append((spec.n, time.perf_counter() - t0))
        out[f"{name}.scaling_exp"] = slope(points)
    return out


def per_layer(tracer: Tracer, overhead: float, probes: dict) -> dict:
    metrics: dict[str, float] = {}
    for name in NAMES:
        st = tracer.stats[name]
        metrics[f"{name}.calls"] = st.calls
        metrics[f"{name}.self_s"] = st.self_s
    peel = tracer.stats["colouring.build_peel_trace"]
    kell = tracer.stats["colouring.colour_kell"]
    grad = tracer.stats["density.top_grad_half"]
    metrics["colouring.build_peel_trace.steps"] = peel.counters.get("steps", 0)
    metrics["colouring.build_peel_trace.raised"] = peel.raised
    metrics["colouring.colour_kell.worst_case_share"] = _share(kell, "worst_case")
    metrics["density.top_grad_half.heuristic_share"] = _share(grad, "heuristic")
    metrics["trace.overhead_ratio"] = overhead
    metrics.update(probes)
    return metrics


def _share(stats, counter: str) -> float:
    returned = stats.calls - stats.raised
    return stats.counters.get(counter, 0) / returned if returned else 0.0


def layer_units() -> dict:
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_LAYER)
    return units


# ---------------------------------------------------------------------------
# one run

@contextlib.contextmanager
def workspace(workload: str, seed: int):
    """A private work directory to run in (argv names input files relative
    to it), removed afterwards."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield workdir
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = load_digests(workload, seed)
    with workspace(workload, seed) as workdir:
        if not trace:
            setup_times = []
            loop = None
            for _ in range(max(1, round(seconds / workloads.PASS_SECONDS[workload]))):
                for _ in range(SETUPS_PER_PASS):
                    corpus, cli, took = setup(workload, seed, workdir)
                    setup_times.append(took)
                if loop is None:
                    loop = Loop.of(corpus)
                run_pass(loop, corpus, executor(workload, workdir, cli), workdir, expected)
            metrics = end_to_end(workload, corpus, loop, statistics.median(setup_times))
            units = END_TO_END
            loops = [loop]
        else:
            corpus, cli, _ = setup(workload, seed, workdir)
            plain, traced = Loop.of(corpus), Loop.of(corpus)
            tracer = Tracer()
            untraced_exec = executor(workload, workdir, cli)
            if workload == "cli-cold":
                traced_exec = Subprocess(workdir, tracer)
            else:
                traced_exec = InProcess(cli, tracer)
            # untraced and traced alternate request by request, so machine
            # drift hits both sides of the overhead ratio alike
            for i, req in enumerate(corpus.requests):
                run_request(plain, i, req, untraced_exec, workdir, expected)
                run_request(traced, i, req, traced_exec, workdir, expected)
            for req, a, b in zip(corpus.requests, plain.digests, traced.digests):
                if a != b:
                    traced.failures.append((req.rid, "traced stdout differs from untraced"))
            interp_ms, import_ms = interpreter_probe(workdir)
            probes = {"cli.import_ms": import_ms, "env.interpreter_ms": interp_ms}
            if workload == "peel-large":
                probes.update(scaling_probe(corpus, workdir))
            else:
                probes.update({k: 0.0 for k in EXTRA_LAYER if k.endswith("scaling_exp")})
            metrics = per_layer(tracer, traced.busy_s / plain.busy_s, probes)
            units = layer_units()
            loops = [plain, traced]
    failures = [f for lp in loops for f in lp.failures]
    for rid, reason in failures[:10]:
        print(f"FAILED {rid}: {reason}", file=sys.stderr)
    attempted = sum(lp.attempted for lp in loops)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


# ---------------------------------------------------------------------------
# several runs as subprocesses: all workloads, or one workload N times

def run_many(names: list[str], seed: int, seconds: float, trace: int, repeat: int) -> int:
    ok = True
    for workload in names:
        results = []
        for i in range(repeat):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed + i), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} seed {seed + i}: run failed (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results.append(result)
        if results:
            report(workload, results)
    return 0 if ok else 1


def report(workload: str, results: list[dict]) -> None:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"== {workload}: {len(results)} run(s), {attempted} requests, "
          f"fail_ratio {failed / attempted:.4g}")
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        unit = entry["unit"]
        if len(values) == 1:
            print(f"  {name:48s} {values[0]:14.6g} {unit}")
            continue
        q1, q3 = statistics.quantiles(values, n=4)[::2]
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:48s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:7.3f} {unit}")
        print("      runs: " + " ".join(f"{v:.5g}" for v in values))


def record_digests() -> int:
    """Run every request of the default seed once and store stdout digests."""
    table = {}
    for workload in workloads.WORKLOADS:
        with workspace(workload, DEFAULT_SEED) as workdir:
            corpus, cli, _ = setup(workload, DEFAULT_SEED, workdir)
            loop = Loop.of(corpus)
            run_pass(loop, corpus, executor(workload, workdir, cli), workdir, {})
        if loop.failures:
            print(f"{workload}: checks failed, digests not written: {loop.failures[:3]}")
            return 1
        table[workload] = {r.rid: d for r, d in zip(corpus.requests, loop.digests)}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the workload this many times, seeds seed.., "
                             "and print each metric's median and quartiles")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the default seed")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all" or args.repeat > 1:
            names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
            return run_many(names, args.seed, args.seconds, args.trace, args.repeat)
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
