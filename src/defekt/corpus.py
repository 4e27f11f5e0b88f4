"""Seeded instance generators for tests and experiments.

Everything is driven by an explicit seed through ``random.Random``, so a
fixed seed reproduces the same graph on every platform and run.  The
planar families grow triangulations by repeated vertex insertion into a
face, which keeps a planar embedding by construction; variety comes from
seeded deletions that preserve the property each family advertises.
"""

from __future__ import annotations

import random
from collections import deque

from .errors import ValidationError
from .graphs import Graph


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi graph on n vertices with edge probability p."""
    if not 0 <= p <= 1:
        raise ValidationError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform attachment tree: vertex i hangs off a random earlier vertex."""
    if n < 1:
        raise ValidationError("need n >= 1")
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_unicyclic(n: int, seed: int) -> Graph:
    """A random tree plus one random non-edge: exactly one cycle."""
    if n < 3:
        raise ValidationError("need n >= 3")
    rng = random.Random(seed)
    t = random_tree(n, seed)
    present = set(t.edges())
    while True:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in present:
            return Graph(n, list(present) + [e])


def apollonian(n: int, seed: int) -> Graph:
    """Planar triangulation grown by inserting vertices into random faces.

    Starts from a triangle; every later vertex lands inside an existing
    face and joins its three corners.  Minimum degree is 3 once n >= 4.
    """
    if n < 3:
        raise ValidationError("need n >= 3")
    rng = random.Random(seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        edges.extend([(a, v), (b, v), (c, v)])
        faces[i] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
    return Graph(n, edges)


def shortest_cycle(g: Graph) -> tuple[int, ...] | None:
    """Some shortest cycle as a vertex tuple, or None in a forest."""
    best: tuple[int, ...] | None = None
    for s in g.vertices():
        # BFS tree from s; a non-tree edge closing two branches gives a cycle
        parent = {s: -1}
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            if best is not None and dist[v] * 2 + 1 >= len(best):
                break
            for w in g.neighbours(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    q.append(w)
                elif parent[v] != w and parent[w] != v:
                    pa, pb = [], []
                    a, b = v, w
                    while a != -1:
                        pa.append(a)
                        a = parent[a]
                    while b != -1:
                        pb.append(b)
                        b = parent[b]
                    common = set(pa) & set(pb)
                    ia = next(i for i, x in enumerate(pa) if x in common)
                    ib = next(i for i, x in enumerate(pb) if x in common)
                    if pa[ia] != pb[ib]:
                        continue
                    cyc = tuple(pa[: ia + 1] + pb[:ib][::-1])
                    if len(cyc) >= 3 and (best is None or len(cyc) < len(best)):
                        best = cyc
    return best


def planar_girth_5(n: int, seed: int) -> Graph:
    """Planar graph with girth at least 5 (hence no triangle and no
    4-cycle), obtained by breaking every short cycle of a triangulation."""
    g = apollonian(n, seed)
    rng = random.Random(seed ^ 0xC4C4)
    edges = set(g.edges())
    while True:
        cur = Graph(n, sorted(edges))
        cyc = shortest_cycle(cur)
        if cyc is None or len(cyc) >= 5:
            return cur
        i = rng.randrange(len(cyc))
        u, v = cyc[i], cyc[(i + 1) % len(cyc)]
        edges.discard((min(u, v), max(u, v)))


def sparse_pattern_free(n: int, seed: int) -> Graph:
    """Sparse instance with cycle space of dimension at most one.

    The smallest dominated star pair needs two independent cycles, so
    trees and unicyclic graphs can never contain it as a minor.
    """
    if seed % 2 == 0:
        return random_tree(n, seed)
    return random_unicyclic(max(n, 3), seed)
