"""Seeded inputs and request lists for the three workloads.

Every workload is a closed loop with one client: the runner sends the
requests of ``Corpus.requests`` one at a time, in whole passes over the
list; a request with ``samples > 1`` is sent that many times in a pass,
at points spread evenly over it (see :func:`schedule`).  A run of
``--seconds`` makes ``round(seconds / PASS_SECONDS)`` passes, whatever
the program's speed, so two commits are always compared over the same
number of passes.

Graphs are built here, with the benchmark's own generators, and handed to
the program only as files (edge-list with an ``n m`` header, or DIMACS).
A fixed seed gives the same argv lists and the same file bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("oracle-small", "peel-large", "cli-cold")
PASS_SECONDS = {"oracle-small": 7.5, "peel-large": 6, "cli-cold": 6}
# The cheap oracle-small requests (about 2 ms each) hold the median.  On a
# shared host they slow in phases of a few seconds, by up to 60%, so each
# is sampled this many times per pass, spread over the pass, and its
# fastest sample lands outside the slow phases.
CHEAP_SAMPLES = 4

Edges = list[tuple[int, int]]


@dataclass(frozen=True)
class GraphSpec:
    """A generated input graph: order, sorted edge list and file name."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass
class Request:
    """One CLI invocation and what its output is checked against.

    ``argv`` names files relative to the work directory.  ``check`` picks
    the checker in :mod:`checks`; ``params`` holds what the checker needs
    beyond the graph (thresholds, the pattern graph, the file a returned
    colouring is saved to for a later ``verify`` request).  ``samples`` is
    how many times a pass sends it.
    """

    rid: str
    argv: list[str]
    check: str
    graph: GraphSpec | None = None
    params: dict = field(default_factory=dict)
    samples: int = 1

    @property
    def edges(self) -> int:
        return self.graph.m if self.graph is not None else 0


@dataclass
class Corpus:
    requests: list[Request]
    files: dict[str, bytes]
    sweep: dict[str, list[GraphSpec]] = field(default_factory=dict)

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (workdir / name).write_bytes(data)


def schedule(requests: list[Request]) -> list[int]:
    """The order of one pass, as indices into ``requests``.

    Request i sits at i / len(requests) of the pass; its further samples
    follow at equal steps of 1 / samples, wrapping round, so they spread
    over the whole pass.  The requests with one sample keep the list
    order, so one that reads what an earlier one wrote (a ``verify`` of a
    saved colouring) must have one sample.
    """
    total = len(requests)
    slots = [((i / total + k / req.samples) % 1, k > 0, i)
             for i, req in enumerate(requests) for k in range(req.samples)]
    return [i for _, _, i in sorted(slots)]


# ---------------------------------------------------------------------------
# graph generators (independent of the package under test)

def _spec(name: str, n: int, edges) -> GraphSpec:
    norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return GraphSpec(name, n, tuple(norm))


def tree(rng: random.Random, n: int) -> Edges:
    return [(rng.randrange(i), i) for i in range(1, n)]


def unicyclic(rng: random.Random, n: int) -> Edges:
    edges = set(tree(rng, n))
    while True:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            return sorted(edges | {(u, v)})


def cycle(n: int) -> Edges:
    return [(i, (i + 1) % n) for i in range(n)]


def complete(n: int) -> Edges:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def complete_bipartite(s: int, t: int) -> Edges:
    return [(i, s + j) for i in range(s) for j in range(t)]


def apollonian(rng: random.Random, n: int) -> Edges:
    """Planar triangulation: each new vertex lands in a random face."""
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        edges += [(a, v), (b, v), (c, v)]
        faces[i] = (a, b, v)
        faces += [(a, c, v), (b, c, v)]
    return edges


def planar_girth5(rng: random.Random, n: int) -> Edges:
    """A spanning subgraph of a triangulation with girth at least 5.

    Edges are offered in random order and kept only when their endpoints
    are more than 3 apart in what is kept so far, so no cycle of length 3
    or 4 ever closes.
    """
    offered = apollonian(rng, n)
    rng.shuffle(offered)
    adj: list[set[int]] = [set() for _ in range(n)]
    kept = []
    for u, v in offered:
        seen = {u}
        frontier = [u]
        for _ in range(3):
            frontier = [w for x in frontier for w in adj[x] if w not in seen]
            seen.update(frontier)
        if v not in seen:
            adj[u].add(v)
            adj[v].add(u)
            kept.append((u, v))
    return kept


def edge_list_text(g: GraphSpec) -> bytes:
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges]
    return ("\n".join(lines) + "\n").encode()


def dimacs_text(g: GraphSpec) -> bytes:
    lines = [f"p edge {g.n} {g.m}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges]
    return ("\n".join(lines) + "\n").encode()


class _Builder:
    def __init__(self) -> None:
        self.files: dict[str, bytes] = {}
        self.requests: list[Request] = []

    def graph(self, name: str, n: int, edges, fmt: str = "el") -> GraphSpec:
        g = _spec(f"{name}.{fmt}", n, edges)
        writer = dimacs_text if fmt == "dimacs" else edge_list_text
        self.files[g.name] = writer(g)
        return g

    def add(self, rid: str, argv: list[str], check: str,
            graph: GraphSpec | None = None, samples: int = 1, **params) -> Request:
        req = Request(rid, argv, check, graph, params, samples)
        self.requests.append(req)
        return req


# ---------------------------------------------------------------------------
# oracle-small: the exponential oracles on graphs with n = 8..16

PATTERNS = {
    "K4": (4, complete(4)),
    "K33": (6, complete_bipartite(3, 3)),
    "K5": (5, complete(5)),
}
SPARSE = ("tree", "unicyclic", "cycle")

# (family, n, p) per slot.  Family, order and density are fixed per slot,
# so every seed has the same size mix and the seed picks only the edges:
# the oracles' cost grows exponentially with n and is highest on sparse
# inputs, so random orders would make the latency quantiles follow the
# seed.  The 20 analyze/kell requests on sparse graphs at n = 13 form the
# block that holds the 90th percentile.  The cheap list and kst requests
# are well over half of a pass, so the median falls inside their block,
# not at its edge.
ANALYSIS_SLOTS = (
    [(SPARSE[i % 3], n, 0) for i, n in enumerate((13,) * 10 + (12, 11, 10, 9, 8))]
    + [("gnp", n, p) for n, p in (
        (16, 0.45), (16, 0.6), (15, 0.45), (14, 0.6), (13, 0.6), (12, 0.45),
        (11, 0.15), (10, 0.6), (9, 0.15))]
)
MINOR_SLOTS = (
    [(SPARSE[i % 3], 8 + i % 6, 0) for i in range(15)]
    + [("gnp", 8 + i % 3, 0.3 + 0.15 * (i % 3)) for i in range(9)]
)
KST_SLOTS = [
    ((("gnp",) + SPARSE)[i % 4], 8 + i % 5, 0.3 + 0.15 * (i % 3)) for i in range(48)
]


def _small_graph(rng: random.Random, family: str, n: int, p: float) -> Edges:
    if family == "gnp":
        # uniform over graphs with round(p * C(n, 2)) edges, so the edge
        # count, and with it edges_per_s, does not depend on the seed
        pairs = complete(n)
        return rng.sample(pairs, round(p * len(pairs)))
    if family == "tree":
        return tree(rng, n)
    if family == "unicyclic":
        return unicyclic(rng, n)
    return cycle(n)


def oracle_small(seed: int) -> Corpus:
    rng = random.Random(seed * 7919 + 11)
    b = _Builder()
    patterns = {
        name: b.graph(f"pattern-{name}", n, edges)
        for name, (n, edges) in PATTERNS.items()
    }
    for i, (family, n, p) in enumerate(ANALYSIS_SLOTS):
        g = b.graph(f"g{i}", n, _small_graph(rng, family, n, p),
                    "dimacs" if i % 2 else "el")
        b.add(f"analyze-{i}", ["analyze", g.name], "analyze", g)
        b.add(f"kell-{i}", ["colour", g.name, "--mode", "kell", "--ell", "2", "--k", "1"],
              "colour", g, ell=2, k=1)
        for k in (1, 2):
            ell = k + i % 3
            b.add(f"list-{i}-k{k}",
                  ["colour", g.name, "--mode", "list", "--k", str(k), "--ell", str(ell)],
                  "colour", g, k=k, ell=ell, peel=(k, ell), samples=CHEAP_SAMPLES)
    for i, (family, n, p) in enumerate(MINOR_SLOTS):
        host = b.graph(f"h{i}", n, _small_graph(rng, family, n, p))
        pattern = patterns[("K4", "K33", "K5")[i % 3]]
        b.add(f"minor-{i}", ["detect", host.name, "--minor", pattern.name],
              "detect", host, pattern=pattern, samples=CHEAP_SAMPLES)
    for i, (family, n, p) in enumerate(KST_SLOTS):
        host = b.graph(f"t{i}", n, _small_graph(rng, family, n, p))
        b.add(f"kst-{i}",
              ["detect", host.name, "--kst-star", "2", "2", "--tau", "--treedepth"],
              "detect", host, s=2, t=2, samples=CHEAP_SAMPLES)
    kbip = b.graph("k10-10", 20, complete_bipartite(10, 10))
    b.add("analyze-k10-10", ["analyze", kbip.name], "analyze", kbip)
    for argv in (
        ["lowerbound-gsn"],
        ["kell-smoke", "--count", "6"],
        ["dichotomy-random", "--count", "30", "--size", "12"],
        ["oracle-agreement", "--count", "50"],
    ):
        b.add(f"exp-{argv[0]}", ["experiment", *argv, "--seed", str(seed)], "experiment")
    return Corpus(b.requests, b.files)


# ---------------------------------------------------------------------------
# peel-large: the polynomial layers on large sparse graphs

SWEEP = (2000, 4000, 8000)
MAD_SWEEP = (500, 1000)


def peel_large(seed: int) -> Corpus:
    """Analyze runs on the n = 500 and 1000 trees and the n = 500
    triangulation.  The n = 1000 triangulation only serves the traced
    run's mad scaling probe: its analyze request alone took 40% of a pass
    and made most of the run-to-run spread."""
    rng = random.Random(seed * 104729 + 23)
    b = _Builder()
    fmt = iter(["el", "dimacs"] * 6)
    sweep = [b.graph(f"apollonian-{n}", n, apollonian(rng, n), next(fmt)) for n in SWEEP]
    mad_sweep = [b.graph(f"apollonian-{n}", n, apollonian(rng, n), next(fmt))
                 for n in MAD_SWEEP]
    for g in sweep:
        saved = f"colouring-{g.n}.json"
        b.add(f"list-{g.n}", ["colour", g.name, "--mode", "list", "--k", "3", "--ell", "40"],
              "colour", g, k=3, ell=40, peel=(3, 40), save_colouring=saved)
        b.add(f"verify-{g.n}", ["verify", g.name, "--colouring", saved, "--defect", "37"],
              "verify", g)
        b.add(f"light-edge-{g.n}", ["detect", g.name, "--light-edge", "12"],
              "detect", g, ell=12)
    partitioned = [
        (b.graph("tree-2000", 2000, tree(rng, 2000), next(fmt)), 7),
        (b.graph("tree-8000", 8000, tree(rng, 8000), next(fmt)), 7),
        (b.graph("girth5-400", 400, planar_girth5(rng, 400), next(fmt)), 8),
    ]
    for g, limit in partitioned:
        b.add(f"partition-{g.name}",
              ["colour", g.name, "--mode", "partition", "--limit", str(limit)],
              "colour", g, limit=limit, peel=(1, limit))
    analyzed = [b.graph(f"tree-{n}", n, tree(rng, n), next(fmt)) for n in MAD_SWEEP]
    for g in analyzed + mad_sweep[:1]:
        b.add(f"analyze-{g.name}", ["analyze", g.name], "analyze", g)
    return Corpus(b.requests, b.files, sweep={"peel": sweep, "mad": mad_sweep})


# ---------------------------------------------------------------------------
# cli-cold: short invocations, each a fresh interpreter

GADGETS = (
    ("petersen", ()), ("cycle", (7,)), ("complete", (5,)),
    ("wheel", (6,)), ("complete-bipartite", (3, 4)), ("path", (9,)),
)
GADGET_FORMATS = ("edge-list", "dimacs", "json")
GROUPS = 4


def cli_cold(seed: int) -> Corpus:
    rng = random.Random(seed * 15485863 + 37)
    b = _Builder()
    n = 10
    path3 = b.graph("tree-path3", 3, [(0, 1), (1, 2)])
    triangle = b.graph("pattern-K3", 3, complete(3))
    c = b.graph(f"cycle-{n}", n, cycle(n))
    # alternating colours along the cycle: at most 1 same-coloured neighbour
    b.files["colouring.json"] = json.dumps({str(v): v % 2 for v in range(n)}).encode()
    b.files["certificate.json"] = json.dumps(
        {"kind": "minor-model", "branch_sets": [[0], [1], list(range(2, n))]}).encode()
    for i in range(GROUPS):
        name, params = GADGETS[i % len(GADGETS)]
        for fmt in GADGET_FORMATS:
            b.add(f"gadget-{i}-{fmt}", ["gadget", name, *map(str, params), "--format", fmt],
                  "gadget", gadget=name, gparams=list(params), fmt=fmt)
        g = b.graph(f"g{i}", n, _small_graph(rng, "gnp", n, 0.35),
                    "dimacs" if i % 2 else "el")
        b.add(f"analyze-{i}", ["analyze", g.name], "analyze", g)
        s, t = rng.randint(2, 3), rng.randint(2, 40)
        delta = f"{rng.randint(3, 9)}/{rng.randint(1, 3)}"
        n1 = {"s": s, "t": t, "delta": delta, "delta1": delta}
        b.add(f"bounds-n1-{i}", ["bounds", "n1", "--params", json.dumps(n1)], "bounds")
        main = {"s": 2, "t": t, "mad": "3", "top_grad": str(rng.randint(2, 4))}
        b.add(f"bounds-main-defect-{i}",
              ["bounds", "main-defect", "--params", json.dumps(main)], "bounds")
        b.add(f"bounds-earth-moon-{i}", ["bounds", "earth-moon"], "bounds")
        k = 1 + i % 2
        b.add(f"list-{i}",
              ["colour", g.name, "--mode", "list", "--k", str(k), "--ell", str(k + 2)],
              "colour", g, k=k, ell=k + 2, peel=(k, k + 2))
        b.add(f"kell-{i}", ["colour", c.name, "--mode", "kell", "--ell", "2", "--k", "1"],
              "colour", c, ell=2, k=1)
        b.add(f"treefree-{i}", ["colour", g.name, "--mode", "treefree", "--tree", path3.name],
              "colour", g, tree=path3)
        b.add(f"detect-{i}",
              ["detect", g.name, "--kst-star", "2", "1", "--light-edge", "4", "--tau"],
              "detect", g, s=2, t=1, ell=4)
        b.add(f"verify-colouring-{i}",
              ["verify", c.name, "--colouring", "colouring.json", "--defect", "1"],
              "verify", c)
        b.add(f"verify-certificate-{i}",
              ["verify", c.name, "--certificate", "certificate.json", "--pattern",
               triangle.name], "verify", c)
    return Corpus(b.requests, b.files)


BUILDERS = {"oracle-small": oracle_small, "peel-large": peel_large, "cli-cold": cli_cold}


def build(workload: str, seed: int) -> Corpus:
    return BUILDERS[workload](seed)
