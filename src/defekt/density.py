"""Exact density measures.

Three quantities drive everything else here: maximum average degree (the
densest-subgraph value, doubled), degeneracy, and the density of the densest
graph whose 1-subdivision-or-less sits inside the host.  All of them are
returned as exact rationals with witnesses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .caps import current_caps
from .errors import AlgorithmError, ValidationError
from .graphs import Graph, bits_of, connected_components, induced_subgraph, neighbour_masks
from .matching import max_bipartite_matching


# ---------------------------------------------------------------------------
# max-flow plumbing for the densest-subgraph test

def _max_flow(
    n: int, arcs: list[tuple[int, int, int, int]], s: int, t: int
) -> tuple[int, list[int]]:
    """Dinic's max flow from ``s`` to ``t`` on nodes ``0..n-1``.

    Each arc (u, v, c, back) carries c from u to v and ``back`` from v to u.
    Blocking flows follow current-arc pointers along an explicit path stack,
    so deep networks cannot exhaust the recursion limit.  Returns the flow
    and the final BFS levels: ``level[v] >= 0`` exactly for the nodes still
    reachable from ``s`` in the residual graph, the minimal min-cut side.
    """
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c, back in arcs:
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, back)
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in head[u]:
                if cap[e] and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[t] < 0:
            return flow, level
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            arcs_u, i, nxt = head[u], it[u], level[u] + 1
            while i < len(arcs_u) and not (cap[arcs_u[i]] and level[to[arcs_u[i]]] == nxt):
                i += 1
            it[u] = i
            if i < len(arcs_u):
                path.append(arcs_u[i])
                u = to[arcs_u[i]]
                if u == t:
                    push = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= push
                        cap[e ^ 1] += push
                    flow += push
                    path.clear()
                    u = s
            elif path:
                # dead end: back up one arc and skip it from now on
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break


def _denser_than(g: Graph, lam: Fraction) -> list[int] | None:
    """A vertex set whose edge/vertex ratio strictly exceeds ``lam``, or None.

    Goldberg's network on the vertices plus a source and a sink, with
    capacities scaled by the denominator q of lam = p/q: source to v carries
    m*q, v to sink m*q + 2p - deg(v)*q, and each edge q both ways.  Source
    side S then cuts m*q*n - 2(q*e(S) - p*|S|), so a flow short of m*q*n
    leaves the minimal maximiser of e(S) - lam*|S| on the source side.
    """
    p, q = lam.numerator, lam.denominator
    n, big = g.n, g.m * q
    source, sink = n, n + 1
    arcs = [(v, sink, big + 2 * p - g.degree(v) * q, 0) for v in range(n)]
    arcs += [(source, v, big, 0) for v in range(n)]
    arcs += [(u, v, q, q) for u, v in g.edges()]
    flow, level = _max_flow(n + 2, arcs, source, sink)
    if flow >= big * n:
        return None
    chosen = [v for v in range(n) if level[v] >= 0]
    if not chosen:
        raise AlgorithmError("cut side empty despite slack in the flow")
    return chosen


def _edges_inside(g: Graph, vertices: list[int]) -> int:
    inside = set(vertices)
    return sum(1 for u, v in g.edges() if u in inside and v in inside)


def mad_exact(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum average degree with an attaining vertex set.

    Dinkelbach's iteration for the densest-subgraph ratio: from lam = m/n,
    ask a scaled integer max-flow for a set denser than lam and jump lam to
    that set's exact density, until no denser set exists.  Each jump
    strictly raises lam, which only takes the finitely many values
    e(S)/|S|, so the loop ends at the optimum lam* after a few flows.

    The last set found is the minimal maximiser of e(S) - lam|S| at some
    lam < lam*, and is densest.  The maximum densest subgraph D (the union
    of all densest sets) scores |D|(lam* - lam) there, at least the set's
    own score, so the set is no smaller than D and, being densest, lies in
    D: it is D, whichever values lam passed through.
    """
    if g.n == 0:
        raise ValidationError("density of the empty graph is undefined")
    if g.m == 0:
        return Fraction(0), tuple(range(g.n))
    best_set = list(range(g.n))
    best = Fraction(g.m, g.n)
    while (found := _denser_than(g, best)) is not None:
        best, best_set = Fraction(_edges_inside(g, found), len(found)), found
    return 2 * best, tuple(best_set)


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Degeneracy and a witnessing elimination order (smallest id first on ties).

    Smallest-last order (Matula-Beck) from a lazy (degree, id) heap, in
    O((n + m) log n).  Live degrees are counters over the frozen graph: a
    removal clears the vertex's alive flag and lowers the counter of each
    live neighbour, which is re-pushed at its new degree.  An entry is stale
    when its degree no longer equals the vertex's counter; a removed
    vertex's counter stays at the degree it was popped at, and every entry
    left for it is higher.
    """
    deg = [g.degree(v) for v in g.vertices()]
    alive = [True] * g.n
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    order = []
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if d != deg[v]:
            continue
        k = max(k, d)
        order.append(v)
        alive[v] = False
        for u in g.neighbours(v):
            if alive[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return k, tuple(order)


# ---------------------------------------------------------------------------
# densest shallow-subdivision preimage

@dataclass(frozen=True)
class SubdivisionWitness:
    """A dense graph realized inside the host with paths of length 1 or 2.

    ``branch[i]`` hosts base vertex i; ``paths`` aligns with
    ``base.edges()`` and lists each realizing path, either (u, v) for a host
    edge or (u, w, v) through a private division vertex.
    """

    base: Graph
    branch: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]


def validate_subdivision_witness(g: Graph, w: SubdivisionWitness) -> list[str]:
    """All the ways the witness fails to embed; empty when it is sound."""
    problems = []
    if len(w.branch) != w.base.n:
        problems.append("branch table length differs from base order")
        return problems
    if len(set(w.branch)) != len(w.branch):
        problems.append("branch vertices repeat")
    seen_mid: set[int] = set()
    base_edges = list(w.base.edges())
    if len(w.paths) != len(base_edges):
        problems.append("one path per base edge required")
        return problems
    branch_set = set(w.branch)
    for (a, b), route in zip(base_edges, w.paths):
        if len(route) not in (2, 3):
            problems.append(f"path {route} has bad length")
            continue
        if route[0] != w.branch[a] or route[-1] != w.branch[b]:
            problems.append(f"path {route} does not join branch vertices of ({a},{b})")
        for x, y in zip(route, route[1:]):
            if not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
                problems.append(f"missing host edge ({x},{y}) on path {route}")
        if len(route) == 3:
            mid = route[1]
            if mid in branch_set:
                problems.append(f"division vertex {mid} is also a branch vertex")
            if mid in seen_mid:
                problems.append(f"division vertex {mid} reused")
            seen_mid.add(mid)
    return problems


def _identity_witness(g: Graph, vertices: tuple[int, ...]) -> SubdivisionWitness:
    sub, old = induced_subgraph(g, vertices)
    paths = tuple((old[a], old[b]) for a, b in sub.edges())
    return SubdivisionWitness(base=sub, branch=old, paths=paths)


def top_grad_half(
    g: Graph, *, _mad_witness: tuple[int, ...] | None = None
) -> tuple[Fraction, SubdivisionWitness, str]:
    """Densest edge/vertex ratio over graphs with a (<=1)-subdivision in ``g``.

    Exhaustive over branch sets S with branch-and-bound: internal host edges
    count directly, and the remaining (missing) pairs are matched to
    distinct outside common neighbours by bipartite matching.  A subtree is
    cut only when no set in it can strictly beat the best ratio so far, so
    the answer is the one an unpruned search finds.  The bounds:

    - the degree-sum lemma: the value of S is at most floor(ds / 2), where
      ds is the degree sum of S.  Each inner edge adds 2 to ds, and each
      matched outside vertex w adds the two distinct edges uw and vw;
    - the matching is no larger than the number of missing pairs, nor than
      the number of outside vertices with two or more neighbours in S;
    - an extension by j more vertices gains at most the j largest remaining
      degrees, in edges and in ds alike;
    - the cycle rank: the value of S is at most |S| - 1 + r, where
      r = m - n + components of ``g``.  The base graph H of S has a
      (<=1)-subdivision inside ``g``, and neither subdividing nor taking a
      subgraph raises m - n + components, so e(H) - |S| + 1 <= r.

    A set's missing pairs are counted as C(|S|, 2) minus its inner edges,
    and are only listed when the bounds above leave it a chance to win.
    Above the cap the densest subgraph is returned instead as a certified
    lower bound (method "heuristic-lower-bound").  Callers that already hold
    the ``mad_exact`` witness pass it as ``_mad_witness`` to skip
    recomputing it.
    """
    if g.n == 0:
        raise ValidationError("density of the empty graph is undefined")
    limit = current_caps().top_grad
    mad_set = _mad_witness if _mad_witness is not None else mad_exact(g)[1]
    best_num = _edges_inside(g, list(mad_set))
    best_den = len(mad_set)
    best_info: tuple[int, list[tuple[int, int, int]]] | None = None
    if g.n > limit:
        witness = _identity_witness(g, tuple(mad_set))
        return Fraction(best_num, best_den), witness, "heuristic-lower-bound"

    n = g.n
    masks = neighbour_masks(g)
    rank = g.m - n + len(connected_components(g))
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + degs[i]

    def evaluate(size: int, s_mask: int, e_in: int) -> None:
        nonlocal best_num, best_den, best_info
        # the missing pairs (u, v) of S, grouped by v in join order, u
        # ascending: the matching, and so the witness, depends on this order
        pairs: list[tuple[int, int]] = []
        joined = 0
        for v in order:
            if s_mask >> v & 1:
                pairs.extend((u, v) for u in bits_of(joined & ~masks[v]))
                joined |= 1 << v
        msize, match = max_bipartite_matching(
            [masks[u] & masks[v] & ~s_mask for u, v in pairs]
        )
        val = e_in + msize
        if val * best_den > best_num * size:
            best_num, best_den = val, size
            best_info = (s_mask, [(u, v, w) for (u, v), w in zip(pairs, match) if w != -1])

    def promising(size: int, e_in: int, ds: int, start: int) -> bool:
        # bound every extension by j more vertices from ``start`` on: edges
        # and degree sum gain at most the j largest remaining degrees, the
        # matching at most the leftover vertices.  The bound only falls as
        # ``start`` grows, so the first hopeless start ends a sibling loop
        for j in range(1, n - start + 1):
            gain = suffix[start] - suffix[start + j]
            tot = size + j
            ub = min(e_in + gain + (n - tot), tot * (tot - 1) // 2, (ds + gain) // 2,
                     tot - 1 + rank)
            if ub * best_den > best_num * tot:
                return True
        return False

    def visit(size: int, s_mask: int, e_in: int, ds: int, one: int, two: int,
              start: int) -> None:
        if size:
            missing = size * (size - 1) // 2 - e_in
            matchable = min(missing, (two & ~s_mask).bit_count())
            ub = min(e_in + matchable, ds // 2, size - 1 + rank)
            if ub * best_den > best_num * size:
                evaluate(size, s_mask, e_in)
        for idx in range(start, n):
            if not promising(size, e_in, ds, idx):
                return
            v = order[idx]
            mv = masks[v]
            visit(size + 1, s_mask | (1 << v), e_in + (mv & s_mask).bit_count(),
                  ds + degs[idx], one | mv, two | (one & mv), idx + 1)

    visit(0, 0, 0, 0, 0, 0, 0)

    if best_info is None:
        witness = _identity_witness(g, tuple(mad_set))
        return Fraction(best_num, best_den), witness, "brute-force"
    s_mask, routed = best_info
    branch = tuple(bits_of(s_mask))
    pos = {v: i for i, v in enumerate(branch)}
    routes: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, u in enumerate(branch):
        for v in branch[i + 1 :]:
            if masks[u] >> v & 1:
                routes[(pos[u], pos[v])] = (u, v)
    for u, v, w in routed:
        a, b = min(pos[u], pos[v]), max(pos[u], pos[v])
        routes[(a, b)] = (branch[a], w, branch[b])
    base = Graph(len(branch), routes)
    paths = tuple(routes[e] for e in base.edges())
    witness = SubdivisionWitness(base=base, branch=branch, paths=paths)
    bugs = validate_subdivision_witness(g, witness)
    if bugs:
        raise AlgorithmError(f"constructed witness fails validation: {bugs[0]}")
    return Fraction(best_num, best_den), witness, "brute-force"


# ---------------------------------------------------------------------------
# combined report

@dataclass(frozen=True)
class DensityReport:
    mad: Fraction
    mad_witness: tuple[int, ...]
    degeneracy: int
    top_grad_half: Fraction
    top_grad_method: str


def build_report(g: Graph) -> DensityReport:
    mad, wit = mad_exact(g)
    k, _ = degeneracy(g)
    tg, _, method = top_grad_half(g, _mad_witness=wit)
    return DensityReport(
        mad=mad,
        mad_witness=wit,
        degeneracy=k,
        top_grad_half=tg,
        top_grad_method=method,
    )
