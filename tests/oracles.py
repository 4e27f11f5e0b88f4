"""Plain reference versions of the fast peel, degeneracy and mad.

A full rescan per peel step, a ``min`` over the live vertices per
degeneracy step, and bisection on the density guess for mad.  They are
quadratic or need ~30 flows, so they only serve as oracles that the fast
versions must match exactly.
"""

from fractions import Fraction

from defekt.colouring import PeelTrace, RemoveEdge, RemoveVertex
from defekt.density import _denser_than, _edges_inside
from defekt.errors import StructuralError
from defekt.graphs import Graph, induced_subgraph


def peel_by_rescan(g: Graph, vertex_limit: int, edge_limit: int) -> PeelTrace:
    """Rescan every vertex, then every edge, for the next removal."""
    adj = g.adjacency_sets()
    present = [True] * g.n
    alive = g.n
    steps = []
    while alive:
        found_vertex = None
        for v in range(g.n):
            if present[v] and len(adj[v]) <= vertex_limit:
                found_vertex = v
                break
        if found_vertex is not None:
            v = found_vertex
            nbrs = tuple(sorted(adj[v]))
            for u in nbrs:
                adj[u].discard(v)
            adj[v].clear()
            present[v] = False
            alive -= 1
            steps.append(RemoveVertex(vertex=v, neighbours=nbrs))
            continue
        found_edge = None
        for u in range(g.n):
            if not present[u] or len(adj[u]) > edge_limit:
                continue
            for w in sorted(adj[u]):
                if w > u and len(adj[w]) <= edge_limit:
                    found_edge = (u, w)
                    break
            if found_edge:
                break
        if found_edge is None:
            stuck, old_ids = induced_subgraph(
                g, [v for v in range(g.n) if present[v]]
            )
            raise StructuralError(
                "peel is stuck: no vertex of degree <= "
                f"{vertex_limit} and no {edge_limit}-light edge among "
                f"vertices {old_ids}",
                witness=stuck,
            )
        u, w = found_edge
        adj[u].discard(w)
        adj[w].discard(u)
        steps.append(RemoveEdge(edge=(u, w)))
    return PeelTrace(vertex_limit=vertex_limit, edge_limit=edge_limit, steps=tuple(steps))


def replay_forward_check(g: Graph, trace: PeelTrace) -> bool:
    """True iff applying the trace to ``g`` deletes every vertex and edge
    exactly once, each step's recorded neighbours matching the live ones."""
    adj = g.adjacency_sets()
    present = [True] * g.n
    for step in trace.steps:
        if isinstance(step, RemoveVertex):
            v = step.vertex
            if not present[v] or tuple(sorted(adj[v])) != step.neighbours:
                return False
            for u in step.neighbours:
                adj[u].discard(v)
            adj[v].clear()
            present[v] = False
        else:
            u, w = step.edge
            if not (present[u] and present[w] and w in adj[u]):
                return False
            adj[u].discard(w)
            adj[w].discard(u)
    return not any(present) and not any(adj[v] for v in range(g.n))


def degeneracy_by_min(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Remove the live vertex of least (degree, id), one ``min`` per step."""
    adj = g.adjacency_sets()
    alive = set(range(g.n))
    order = []
    k = 0
    while alive:
        v = min(alive, key=lambda u: (len(adj[u]), u))
        k = max(k, len(adj[v]))
        order.append(v)
        for u in adj[v]:
            adj[u].discard(v)
        adj[v].clear()
        alive.discard(v)
    return k, tuple(order)


def mad_by_bisection(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Bisect the density guess until the bracket is under 1/n^2, the least
    gap between distinct subgraph densities, keeping the densest witness."""
    if g.m == 0:
        return Fraction(0), (0,)
    n = g.n
    best_set = list(range(n))
    best = Fraction(g.m, n)
    lo, hi = best, Fraction(g.m + 1)
    thresh = Fraction(1, n * n)
    while hi - lo > thresh:
        mid = (lo + hi) / 2
        found = _denser_than(g, mid)
        if found is None:
            hi = mid
        else:
            lo = mid
            dens = Fraction(_edges_inside(g, found), len(found))
            if dens > best:
                best, best_set = dens, found
    return 2 * best, tuple(best_set)
