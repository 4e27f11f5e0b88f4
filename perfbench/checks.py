"""Independent checks of CLI output.

Nothing here imports the package under test: every check works from the
generated input (``workloads.GraphSpec``) and the bytes the CLI printed.
Each checker returns ``None`` when the output is sound and a one-line
reason otherwise.

Values with no cheap independent check (``top_grad_half``, tree-depth, the
optimality of ``tau`` and ``mad``, closed-form bounds) are covered by the
recorded stdout digests of the default seed instead; see ``digest``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import Counter
from fractions import Fraction

from workloads import GraphSpec, Request


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def check(req: Request, code: int, stdout: str) -> str | None:
    """Apply the exit-code contract, then the request's own checker."""
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        if req.check in ("experiment", "gadget"):
            return f"exit code {code}" if code else CHECKERS[req.check](req, stdout)
        payload = json.loads(stdout)
        if code == 1:
            if not isinstance(payload, dict) or payload.get("witness") is None:
                return "exit 1 without a witness"
            return _check_witness(req, payload["witness"])
        return CHECKERS[req.check](req, payload)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


# ---------------------------------------------------------------------------
# graph helpers

def _adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _graph_from_payload(data) -> tuple[int, list[tuple[int, int]]]:
    return data["n"], [tuple(e) for e in data["edges"]]


def degeneracy(n: int, edges) -> int:
    """Largest minimum degree met while repeatedly deleting a minimum-degree
    vertex (lazy heap)."""
    adj = _adjacency(n, edges)
    deg = [len(a) for a in adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * n
    best = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        best = max(best, d)
        for u in adj[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return best


def _connected(vertices: set[int], adj: list[set[int]]) -> bool:
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()] & vertices:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def _colours(payload: dict, n: int) -> list | str:
    raw = payload.get("colours")
    if not isinstance(raw, dict) or sorted(raw, key=int) != [str(v) for v in range(n)]:
        return "colours must name every vertex once"
    return [raw[str(v)] for v in range(n)]


def max_defect(g: GraphSpec, colours: list) -> int:
    same = [0] * g.n
    for u, v in g.edges:
        if colours[u] == colours[v]:
            same[u] += 1
            same[v] += 1
    return max(same, default=0)


def check_minor_model(g: GraphSpec, pattern: GraphSpec, branch_sets) -> str | None:
    """Connected, disjoint branch sets with a host edge per pattern edge."""
    if len(branch_sets) != pattern.n:
        return f"{len(branch_sets)} branch sets for a pattern of order {pattern.n}"
    adj = _adjacency(g.n, g.edges)
    used: set[int] = set()
    sets = []
    for i, b in enumerate(branch_sets):
        bset = set(b)
        if not bset or len(bset) != len(b) or not bset <= set(range(g.n)):
            return f"branch set {i} is empty, repeats or leaves the host"
        if bset & used:
            return f"branch set {i} overlaps another"
        if not _connected(bset, adj):
            return f"branch set {i} is not connected"
        used |= bset
        sets.append(bset)
    for a, c in pattern.edges:
        if not any(adj[x] & sets[c] for x in sets[a]):
            return f"no host edge between branch sets {a} and {c}"
    return None


def kell_pattern(ell: int, k: int) -> GraphSpec:
    """The dominant vertex joined to ``ell`` disjoint stars K_{1,k}."""
    n = 1 + ell * (k + 1)
    edges = [(0, v) for v in range(1, n)]
    for i in range(ell):
        c = 1 + i * (k + 1)
        edges += [(c, c + j) for j in range(1, k + 1)]
    return GraphSpec("kell", n, tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# checkers, one per request kind

def _check_witness(req: Request, witness) -> str | None:
    """A stuck peel's witness must be a non-empty subgraph of the input with
    no vertex of degree <= the vertex threshold.

    The witness is the subgraph induced on the vertices the peel could not
    remove, so it also holds the edges already peeled as light edges, and
    it can itself have a light edge (cli-cold, default seed, list-0).  Its
    light-edge half is therefore not checked here.
    """
    if "peel" not in req.params:
        return None
    vertex_limit = req.params["peel"][0]
    n, edges = _graph_from_payload(witness)
    if n == 0 or n > req.graph.n or len(edges) > req.graph.m:
        return "witness is not a non-empty subgraph of the input"
    if min(len(a) for a in _adjacency(n, edges)) <= vertex_limit:
        return f"witness has a vertex of degree <= {vertex_limit}"
    return None


def check_analyze(req: Request, p: dict) -> str | None:
    g = req.graph
    witness = p["mad_witness"]
    inside = set(witness)
    if not witness or len(inside) != len(witness) or not inside <= set(range(g.n)):
        return "mad witness is empty, repeats or leaves the graph"
    m_w = sum(1 for u, v in g.edges if u in inside and v in inside)
    mad = Fraction(p["mad"])
    if Fraction(2 * m_w, len(inside)) != mad:
        return f"2*m(W)/|W| = {Fraction(2 * m_w, len(inside))} but mad = {mad}"
    if mad < Fraction(2 * g.m, g.n):
        return "mad is below the average degree"
    if p["degeneracy"] != degeneracy(g.n, g.edges):
        return f"degeneracy {p['degeneracy']} is wrong"
    grad = Fraction(p["top_grad_half"])
    exact = g.n <= 20
    if p["top_grad_method"] != ("brute-force" if exact else "heuristic-lower-bound"):
        return f"unexpected top_grad_method {p['top_grad_method']}"
    if grad < mad / 2 or (not exact and grad != mad / 2):
        return f"top_grad_half {grad} is inconsistent with mad {mad}"
    return None


def check_colour(req: Request, p: dict) -> str | None:
    g, prm = req.graph, req.params
    mode = p.get("mode")
    if mode == "partition":
        return _check_partition(g, prm["limit"], p)
    if mode == "kell" and p.get("kind") == "minor":
        return check_minor_model(
            g, kell_pattern(prm["ell"], prm["k"]), p["minor_model"]["branch_sets"]
        )
    if mode == "treefree" and "embedding" in p:
        return _check_tree_embedding(g, prm["tree"], p["embedding"]["mapping"])
    colours = _colours(p, g.n)
    if isinstance(colours, str):
        return colours
    if mode == "list":
        bound = prm["ell"] - prm["k"]
        if p["defect_bound"] != bound:
            return f"defect bound {p['defect_bound']} != {bound}"
        if not set(colours) <= set(range(1, prm["k"] + 2)):
            return "a colour is outside the palette"
    elif mode == "kell":
        if len(set(colours)) > 2:
            return "kell mode used more than 2 colours"
        bound = p["defect_bound"]
    elif mode == "treefree":
        if len(set(colours)) > p["num_colours"]:
            return "more colour classes than reported"
        bound = p["defect_bound"]
    else:
        return f"unexpected mode {mode!r}"
    worst = max_defect(g, colours)
    if worst > bound:
        return f"a vertex has {worst} same-coloured neighbours, bound {bound}"
    return None


def _check_partition(g: GraphSpec, limit: int, p: dict) -> str | None:
    forest = [tuple(e) for e in p["forest"]]
    bounded = [tuple(e) for e in p["bounded"]]
    if sorted(forest + bounded) != list(g.edges):
        return "forest and bounded parts do not cover the edges exactly"
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in forest:
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"forest part has a cycle through ({u},{v})"
        parent[ru] = rv
    deg = Counter(x for e in bounded for x in e)
    if p["degree_bound"] != limit - 1 or max(deg.values(), default=0) > limit - 1:
        return f"bounded part exceeds degree {limit - 1}"
    return None


def _check_tree_embedding(g: GraphSpec, t: GraphSpec, mapping) -> str | None:
    edges = set(g.edges)
    if len(mapping) != t.n or len(set(mapping)) != t.n:
        return "tree embedding is not injective on the tree"
    for a, c in t.edges:
        u, v = sorted((mapping[a], mapping[c]))
        if (u, v) not in edges:
            return f"tree edge ({a},{c}) maps to a non-edge"
    return None


def check_detect(req: Request, p: dict) -> str | None:
    g, prm = req.graph, req.params
    edges = set(g.edges)
    if "minor" in p and p["minor"] is not None:
        bad = check_minor_model(g, prm["pattern"], p["minor"]["branch_sets"])
        if bad:
            return bad
    if "tau" in p:
        cover = set(p["tau"]["cover"])
        if len(cover) != p["tau"]["value"] or len(cover) != len(p["tau"]["cover"]):
            return "vertex cover size differs from the reported tau"
        if any(u not in cover and v not in cover for u, v in edges):
            return "vertex cover misses an edge"
    if "light-edge" in p:
        ell = prm["ell"]
        deg = Counter(x for e in g.edges for x in e)
        light = [e for e in g.edges if deg[e[0]] <= ell and deg[e[1]] <= ell]
        want = list(light[0]) if light else None
        if p["light-edge"] != want:
            return f"light edge {p['light-edge']} != least {ell}-light edge {want}"
    if p.get("kst-star") is not None:
        bad = _check_kst_star(edges, prm["s"], prm["t"], p["kst-star"])
        if bad:
            return bad
    if "treedepth" in p and not 1 <= p["treedepth"] <= g.n:
        return "tree-depth out of range"
    return None


def _check_kst_star(edges: set, s: int, t: int, emb: dict) -> str | None:
    centres, outer = emb["centres"], emb["outer"]
    pairs = emb["pair_vertices"]
    used = centres + outer + [w for _, w in pairs]
    if len(centres) != s or len(outer) != t or len(set(used)) != len(used):
        return "kst-star embedding has wrong sizes or repeats a vertex"

    def adjacent(u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in edges

    if not all(adjacent(a, o) for a in centres for o in outer):
        return "a centre misses an outer vertex"
    want = {(a, c) for i, a in enumerate(centres) for c in centres[i + 1:]}
    if {tuple(pr) for pr, _ in pairs} != want:
        return "pair vertices do not cover the centre pairs"
    if not all(adjacent(a, w) and adjacent(c, w) for (a, c), w in pairs):
        return "a pair vertex misses a centre"
    return None


def check_verify(req: Request, p: dict) -> str | None:
    return None if p.get("valid") is True else "valid input reported invalid"


def check_bounds(req: Request, p) -> str | None:
    if isinstance(p, list):
        ok = p and all(isinstance(r.get("colours"), int) for r in p)
        return None if ok else "earth-moon table is empty or malformed"
    Fraction(str(p["value"]))
    return None


def check_experiment(req: Request, stdout: str) -> str | None:
    rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    if not rows:
        return "experiment printed no rows"
    failed = [r["check_id"] for r in rows if r.get("pass") is not True]
    return f"rows failed: {failed[:3]}" if failed else None


def _parse_graph_text(text: str, fmt: str) -> tuple[int, list[tuple[int, int]]]:
    if fmt == "json":
        return _graph_from_payload(json.loads(text))
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if fmt == "dimacs":
        n = int(lines[0][2])
        return n, [(int(a) - 1, int(b) - 1) for _, a, b in lines[1:]]
    n = int(lines[0][0])
    return n, [(int(a), int(b)) for a, b in lines[1:]]


GADGET_SHAPES = {
    # name -> (order, sorted degree sequence) as functions of the parameters
    "petersen": lambda: (10, [3] * 10),
    "cycle": lambda n: (n, [2] * n),
    "path": lambda n: (n, [1, 1] + [2] * (n - 2)),
    "complete": lambda n: (n, [n - 1] * n),
    "wheel": lambda r: (r + 1, [3] * r + [r]),
    "complete-bipartite": lambda s, t: (s + t, sorted([t] * s + [s] * t)),
}


def check_gadget(req: Request, stdout: str) -> str | None:
    prm = req.params
    n, edges = _parse_graph_text(stdout, prm["fmt"])
    if len({tuple(sorted(e)) for e in edges}) != len(edges):
        return "gadget repeats an edge"
    deg = sorted(len(a) for a in _adjacency(n, edges))
    if (n, deg) != GADGET_SHAPES[prm["gadget"]](*prm["gparams"]):
        return f"gadget {prm['gadget']} has the wrong order or degrees"
    return None


CHECKERS = {
    "analyze": check_analyze,
    "colour": check_colour,
    "detect": check_detect,
    "verify": check_verify,
    "bounds": check_bounds,
    "experiment": check_experiment,
    "gadget": check_gadget,
}
