"""Shared hypothesis strategies, graph builders and checkers for the test
suite."""

import random

from hypothesis import strategies as st

from defekt.corpus import apollonian
from defekt.graphs import Graph


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    )
    return Graph(n, edges)


@st.composite
def nonempty_graphs(draw, min_n: int = 1, max_n: int = 8):
    # at least one edge, for oracles that reject edgeless inputs
    g = draw(graphs(min_n=max(min_n, 2), max_n=max_n))
    if g.m:
        return g
    u = draw(st.integers(0, g.n - 2))
    return Graph(g.n, list(g.edges()) + [(u, u + 1)])


@st.composite
def dense_graphs(draw, min_n: int = 3, max_n: int = 8):
    """A random graph that keeps each pair as an edge on a fair coin, so it
    is dense where ``graphs`` mostly draws short edge lists."""
    n = draw(st.integers(min_n, max_n))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())])


@st.composite
def glued_graphs(draw, max_n: int = 11):
    """Two dense random graphs joined at a shared cut vertex, by a bridge,
    or not at all, plus up to two isolated vertices: hosts with several
    blocks."""
    a = draw(dense_graphs(3, max_n // 2))
    b = draw(dense_graphs(3, max_n - a.n - 2))
    how = draw(st.sampled_from(("cut vertex", "bridge", "apart")))
    shift = a.n - 1 if how == "cut vertex" else a.n
    edges = list(a.edges()) + [(u + shift, v + shift) for u, v in b.edges()]
    if how == "bridge":
        edges.append((draw(st.integers(0, a.n - 1)), shift + draw(st.integers(0, b.n - 1))))
    return Graph(shift + b.n + draw(st.integers(0, 2)), edges)


@st.composite
def subdivided_graphs(draw, max_n: int = 13):
    """A random graph on 3-6 branch vertices with each edge kept or
    1-subdivided, plus pendant and isolated vertices: hosts whose densest
    (<=1)-subdivision preimage is often not a subgraph."""
    n = k = draw(st.integers(3, 6))
    edges = []
    for u in range(k):
        for v in range(u + 1, k):
            kinds = ("absent", "edge", "subdivided") if n < max_n else ("absent", "edge")
            kind = draw(st.sampled_from(kinds))
            if kind == "edge":
                edges.append((u, v))
            elif kind == "subdivided":
                edges += [(u, n), (v, n)]
                n += 1
    for _ in range(draw(st.integers(0, min(3, max_n - n)))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    return Graph(n + draw(st.integers(0, min(2, max_n - n))), edges)


def ladder(rungs: int) -> Graph:
    """P_rungs x K_2: rung i joins vertices i and rungs + i."""
    edges = [(i, rungs + i) for i in range(rungs)]
    edges += [(i, i + 1) for i in range(rungs - 1)]
    edges += [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
    return Graph(2 * rungs, edges)


def grid(width: int, height: int, clique: int = 0) -> Graph:
    """The width x height grid, plus a clique on vertices 0, 7, ..., 7(clique-1)."""
    edges = {(v, v + 1) for v in range(width * height) if (v + 1) % height}
    edges |= {(v, v + height) for v in range((width - 1) * height)}
    edges |= {(7 * a, 7 * b) for a in range(clique) for b in range(a + 1, clique)}
    return Graph(width * height, sorted(edges))


def planar_min_degree_3(n: int, seed: int) -> Graph:
    """Planar graph with minimum degree 3: a triangulation thinned by
    deletions that never drop an endpoint below degree 4 beforehand."""
    g = apollonian(n, seed)
    rng = random.Random(seed ^ 0x5EED)
    adj = [set(g.neighbours(v)) for v in g.vertices()]
    edges = list(g.edges())
    rng.shuffle(edges)
    removed = 0
    for u, v in edges:
        if removed >= n // 3:
            break
        if len(adj[u]) >= 4 and len(adj[v]) >= 4:
            adj[u].discard(v)
            adj[v].discard(u)
            removed += 1
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def tree_closure(tree: Graph, root: int) -> Graph:
    """Join every vertex of a rooted tree to all its ancestors."""
    parent = {root: None}
    order = [root]
    for u in order:
        for v in tree.neighbours(u):
            if v not in parent:
                parent[v] = u
                order.append(v)
    edges = set(tree.edges())
    for v in tree.vertices():
        a = parent[v]
        while a is not None:
            edges.add((min(v, a), max(v, a)))
            a = parent[a]
    return Graph(tree.n, sorted(edges))


def isomorphism(g: Graph, h: Graph) -> list[int] | None:
    """A vertex bijection g -> h preserving adjacency both ways, or None.

    Backtracking with degree-profile pruning; intended for graphs up to a
    couple dozen vertices.
    """
    if g.n != h.n or g.m != h.m:
        return None

    def profile(gr: Graph) -> list[tuple]:
        return [
            (gr.degree(v), tuple(sorted(gr.degree(u) for u in gr.neighbours(v))))
            for v in gr.vertices()
        ]

    pg, ph = profile(g), profile(h)
    if sorted(pg) != sorted(ph):
        return None
    candidates = [
        [w for w in h.vertices() if ph[w] == pg[v]] for v in g.vertices()
    ]
    order = sorted(g.vertices(), key=lambda v: (len(candidates[v]), -g.degree(v)))
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for u in g.neighbours(v):
                mu = mapping[u]
                if mu != -1 and not h.has_edge(w, mu):
                    ok = False
                    break
            if ok:
                # non-edges must map to non-edges too
                for u in order[:i]:
                    if not g.has_edge(v, u) and h.has_edge(w, mapping[u]):
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return mapping if extend(0) else None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return isomorphism(g, h) is not None
