"""Plain reference versions of the fast peel, degeneracy, mad, matching,
tree-free colouring, ``top_grad_half`` and minor search, plus two
exhaustive checkers.

A full rescan per peel step, a ``min`` over the live vertices per
degeneracy step, bisection on the density guess for mad (each guess a
recursive Dinic flow on the (m+n+2)-node edge-node network), recursive
augmenting paths for Kuhn's matching, and a neighbour recount over explicit
residue sets per tree-free round.  They are quadratic, need ~30 flows or
recurse once per path step, so they only serve as oracles that the fast
versions must match exactly.  ``mad_bruteforce`` enumerates every vertex
subset and ``choosability_check_bounded_palette`` every list assignment,
so both are exponential and only meant for graphs of a dozen vertices or
fewer.  ``top_grad_half_by_rescan`` and ``minor_test_by_plain_search`` are
the two exponential searches as they stood before their pruning, kept so
that the pruned ones can be checked to find the same answers.
"""

from fractions import Fraction
from itertools import combinations, product

from defekt.caps import current_caps
from defekt.colouring import (
    PeelTrace,
    RemoveEdge,
    RemoveVertex,
    TreeEmbedding,
    TreeFreeOutcome,
    validate_tree_embedding,
    verify_defective,
)
from defekt.density import (
    SubdivisionWitness,
    _edges_inside,
    _identity_witness,
    mad_exact,
    validate_subdivision_witness,
)
from defekt.errors import AlgorithmError, StructuralError, ValidationError
from defekt.graphs import Graph, bits_of, induced_subgraph, is_tree
from defekt.matching import max_bipartite_matching
from defekt.structure import MinorModel


def peel_by_rescan(g: Graph, vertex_limit: int, edge_limit: int) -> PeelTrace:
    """Rescan every vertex, then every edge, for the next removal."""
    adj = [set(g.neighbours(v)) for v in g.vertices()]
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
    adj = [set(g.neighbours(v)) for v in g.vertices()]
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
    adj = [set(g.neighbours(v)) for v in g.vertices()]
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


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _push(self, u: int, t: int, limit: int, level, it) -> int:
        if u == t:
            return limit
        while it[u] < len(self.head[u]):
            e = self.head[u][it[u]]
            v = self.to[e]
            if self.cap[e] > 0 and level[v] == level[u] + 1:
                got = self._push(v, t, min(limit, self.cap[e]), level, it)
                if got:
                    self.cap[e] -= got
                    self.cap[e ^ 1] += got
                    return got
            it[u] += 1
        return 0

    def maxflow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                got = self._push(s, t, 1 << 200, level, it)
                if not got:
                    break
                flow += got

    def source_side(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


def mad_bruteforce(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum average degree by subset enumeration."""
    if g.n == 0:
        raise ValidationError("density of the empty graph is undefined")
    masks = g.masks
    n = g.n
    edge_count = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        edge_count[mask] = edge_count[rest] + (masks[low] & rest).bit_count()
    best = Fraction(-1)
    best_mask = 1
    for mask in range(1, 1 << n):
        val = Fraction(2 * edge_count[mask], mask.bit_count())
        if val > best:
            best, best_mask = val, mask
    return best, tuple(v for v in range(n) if best_mask >> v & 1)


def denser_than_by_edge_network(g: Graph, lam: Fraction) -> list[int] | None:
    """A vertex set whose edge/vertex ratio strictly exceeds ``lam``, or None.

    Min-cut on the (m+n+2)-node edge-node network: a unit of supply per
    edge must reach the sink through its endpoints, each endpoint charging
    ``lam``.  Capacities are scaled by the denominator so the flow is pure
    integer arithmetic.
    """
    p, q = lam.numerator, lam.denominator
    m, n = g.m, g.n
    source, sink = 0, 1 + m + n
    net = _Dinic(m + n + 2)
    inf = m * q + 1
    for i, (u, v) in enumerate(g.edges()):
        net.add(source, 1 + i, q)
        net.add(1 + i, 1 + m + u, inf)
        net.add(1 + i, 1 + m + v, inf)
    for v in range(n):
        net.add(1 + m + v, sink, p)
    flow = net.maxflow(source, sink)
    if flow >= m * q:
        return None
    side = net.source_side(source)
    chosen = sorted(v for v in range(n) if (1 + m + v) in side)
    if not chosen:
        raise AlgorithmError("cut side empty despite slack in the flow")
    return chosen


def mad_by_edge_network(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """``density.mad_exact``'s Dinkelbach iteration, each step a flow on the
    edge-node network."""
    if g.m == 0:
        return Fraction(0), tuple(range(g.n))
    best_set = list(range(g.n))
    best = Fraction(g.m, g.n)
    while (found := denser_than_by_edge_network(g, best)) is not None:
        best, best_set = Fraction(_edges_inside(g, found), len(found)), found
    return 2 * best, tuple(best_set)


def mad_by_bisection(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Bisect the density guess until the bracket is under 1/n^2, the least
    gap between distinct subgraph densities, keeping the densest witness."""
    if g.m == 0:
        return Fraction(0), tuple(range(g.n))
    n = g.n
    best_set = list(range(n))
    best = Fraction(g.m, n)
    lo, hi = best, Fraction(g.m + 1)
    thresh = Fraction(1, n * n)
    while hi - lo > thresh:
        mid = (lo + hi) / 2
        found = denser_than_by_edge_network(g, mid)
        if found is None:
            hi = mid
        else:
            lo = mid
            dens = Fraction(_edges_inside(g, found), len(found))
            if dens > best:
                best, best_set = dens, found
    return 2 * best, tuple(best_set)


def matching_by_recursion(num_left, num_right, adj):
    """Kuhn's matching with a recursive augmenting-path search."""
    match_l = [-1] * num_left
    match_r = [-1] * num_right

    def augment(i, seen):
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_r[j] == -1 or augment(match_r[j], seen):
                    match_l[i] = j
                    match_r[j] = i
                    return True
        return False

    size = sum(augment(i, [False] * num_right) for i in range(num_left))
    return size, match_l, match_r


def choosability_check_bounded_palette(
    g: Graph, k: int, d: int, palette_size: int
) -> bool:
    """Check (k,d)-choosability against every k-list assignment drawn from
    a palette of ``palette_size`` colours.

    A False answer is a genuine refutation.  A True answer only says no
    bad assignment exists within the palette; larger palettes could still
    defeat the graph.  Renaming palette colours maps list assignments to
    equivalent ones, so the first vertex's list is pinned to {1..k}.  Each
    assignment is tried by plain enumeration of its colourings, so no
    backtracker from ``defekt.colouring`` is trusted here.
    """
    if k < 1 or d < 0:
        raise ValidationError("need k >= 1 and d >= 0")
    if not k <= palette_size <= 2 * k:
        raise ValidationError(
            f"palette must satisfy {k} <= palette_size <= {2 * k}"
        )
    if g.n == 0:
        return True
    subsets = list(combinations(range(1, palette_size + 1), k))
    first = subsets[0]  # == (1, .., k)
    for rest in product(subsets, repeat=g.n - 1):
        lists = (first,) + rest
        if not any(verify_defective(g, colours, d)[0] for colours in product(*lists)):
            return False
    return True


def tree_centre_radius(t: Graph) -> tuple[int, int]:
    # iterated leaf stripping leaves one or two centre vertices
    adj = [set(t.neighbours(v)) for v in t.vertices()]
    alive = set(t.vertices())
    while len(alive) > 2:
        leaves = [v for v in alive if len(adj[v]) <= 1]
        for v in leaves:
            for u in adj[v]:
                adj[u].discard(v)
            adj[v].clear()
            alive.remove(v)
    centre = min(alive)
    dist = {centre: 0}
    frontier = [centre]
    radius = 0
    while frontier:
        nxt = []
        for v in frontier:
            for u in t.neighbours(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    radius = max(radius, dist[u])
                    nxt.append(u)
        frontier = nxt
    return centre, radius


def colour_tree_free_by_residues(g: Graph, t: Graph) -> TreeFreeOutcome:
    """``colour_tree_free`` with explicit residue sets and a recount per round.

    Peels vertices with at most ``t.n - 2`` residual neighbours for
    ``radius - 1`` rounds and colours by round.  Leftover vertices form the
    last class; if one of them keeps ``t.n - 1`` neighbours inside that
    class, the exclusion was false and a copy of ``t`` is grown from there,
    level by level, back through the peeling residues.
    """
    if not is_tree(t) or t.n < 2:
        raise ValidationError("pattern must be a tree with at least 2 vertices")
    centre, radius = tree_centre_radius(t)
    n = t.n
    bound = n - 2

    residues: list[set[int]] = [set(g.vertices())]
    colours = [0] * g.n
    for i in range(1, radius):
        prev = residues[-1]
        layer = {v for v in prev if sum(1 for w in g.neighbours(v) if w in prev) <= bound}
        for v in layer:
            colours[v] = i
        residues.append(prev - layer)
    last = residues[-1]
    for v in sorted(last):
        colours[v] = radius

    violator = None
    for v in sorted(last):
        if sum(1 for w in g.neighbours(v) if w in last) > bound:
            violator = v
            break
    if violator is None:
        final = tuple(colours)
        ok, violations = verify_defective(g, final, bound)
        if not ok:
            raise AlgorithmError(f"layer colouring broke its bound: {violations}")
        return TreeFreeOutcome(num_colours=radius, defect_bound=bound, colours=final)

    # grow the tree: centre at the violator, level j >= 1 inside
    # residues[radius - j]; the violation feeds level 1, peeling feeds the rest
    level = {centre: 0}
    order = [centre]
    parent = {centre: -1}
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for u in sorted(t.neighbours(v)):
            if u not in level:
                level[u] = level[v] + 1
                parent[u] = v
                order.append(u)
    image = {centre: violator}
    used = {violator}
    for u in order[1:]:
        j = level[u]
        pool = residues[radius - j]
        anchor = image[parent[u]]
        pick = None
        for w in sorted(g.neighbours(anchor)):
            if w in pool and w not in used:
                pick = w
                break
        if pick is None:
            raise AlgorithmError(
                f"embedding stalled at tree vertex {u}: vertex {anchor} has "
                f"no unused neighbour left in residue {radius - j}"
            )
        image[u] = pick
        used.add(pick)
    emb = TreeEmbedding(mapping=tuple(image[u] for u in range(t.n)))
    problems = validate_tree_embedding(g, t, emb)
    if problems:
        raise AlgorithmError(f"grown embedding is invalid: {problems}")
    return TreeFreeOutcome(num_colours=radius, defect_bound=bound, embedding=emb)


def top_grad_half_by_rescan(
    g: Graph, *, _mad_witness: tuple[int, ...] | None = None
) -> tuple[Fraction, SubdivisionWitness, str]:
    """``top_grad_half`` before its degree-sum and two-neighbour bounds.

    The same DFS over branch sets in descending-degree order, but every
    evaluated set rebuilds its missing pairs and matches them from scratch,
    and the only bounds are the pair count and the leftover vertices.
    """
    if g.n == 0:
        raise ValidationError("density of the empty graph is undefined")
    limit = current_caps().top_grad
    mad_set = _mad_witness if _mad_witness is not None else mad_exact(g)[1]
    best_num = _edges_inside(g, list(mad_set))
    best_den = len(mad_set)
    best_info: tuple[list[int], list[tuple[int, int, int]]] | None = None
    if g.n > limit:
        witness = _identity_witness(g, tuple(mad_set))
        return Fraction(best_num, best_den), witness, "heuristic-lower-bound"

    n = g.n
    masks = g.masks
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + degs[i]

    def evaluate(s_bits: list[int], s_mask: int, e_in: int) -> None:
        nonlocal best_num, best_den, best_info
        size = len(s_bits)
        missing = [
            (u, v)
            for i, u in enumerate(s_bits)
            for v in s_bits[i + 1 :]
            if not masks[u] >> v & 1
        ]
        ub = e_in + min(len(missing), n - size)
        if ub * best_den <= best_num * size:
            return
        msize, match = max_bipartite_matching(
            [masks[u] & masks[v] & ~s_mask for u, v in missing]
        )
        val = e_in + msize
        if val * best_den > best_num * size:
            best_num, best_den = val, size
            pairs = [(u, v, w) for (u, v), w in zip(missing, match) if w != -1]
            best_info = (list(s_bits), pairs)

    def visit(s_bits: list[int], s_mask: int, e_in: int, start: int) -> None:
        if s_bits:
            evaluate(s_bits, s_mask, e_in)
        size = len(s_bits)
        # bound every extension by j more vertices: edges gained at most the
        # j largest remaining degrees, matching at most the leftover vertices
        feasible = False
        for j in range(1, n - start + 1):
            gain = suffix[start] - suffix[start + j]
            tot = size + j
            ub = min(e_in + gain + (n - tot), tot * (tot - 1) // 2)
            if ub * best_den > best_num * tot:
                feasible = True
                break
        if not feasible:
            return
        for idx in range(start, n):
            v = order[idx]
            gained = (masks[v] & s_mask).bit_count()
            s_bits.append(v)
            visit(s_bits, s_mask | (1 << v), e_in + gained, idx + 1)
            s_bits.pop()

    visit([], 0, 0, 0)

    if best_info is None:
        witness = _identity_witness(g, tuple(mad_set))
        return Fraction(best_num, best_den), witness, "brute-force"
    s_bits, pairs = best_info
    branch = tuple(sorted(s_bits))
    pos = {v: i for i, v in enumerate(branch)}
    routes: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, u in enumerate(branch):
        for v in branch[i + 1 :]:
            if masks[u] >> v & 1:
                routes[(pos[u], pos[v])] = (u, v)
    for u, v, w in pairs:
        a, b = min(pos[u], pos[v]), max(pos[u], pos[v])
        routes[(a, b)] = (branch[a], w, branch[b])
    base = Graph(len(branch), routes)
    paths = tuple(routes[e] for e in base.edges())
    witness = SubdivisionWitness(base=base, branch=branch, paths=paths)
    bugs = validate_subdivision_witness(g, witness)
    if bugs:
        raise AlgorithmError(f"constructed witness fails validation: {bugs[0]}")
    return Fraction(best_num, best_den), witness, "brute-force"


def minor_test_by_plain_search(g: Graph, h: Graph) -> MinorModel | None:
    """``minor_test_bruteforce`` before its pattern-degree cut.

    The same placement order, twin breaking and subset order, with each
    placement's requirements rebuilt from ``h`` on every call and connected
    subsets produced by recursive generators.  It has no caps.
    """
    if h.n == 0:
        return MinorModel(branch_sets=())
    if h.n > g.n or h.m > g.m:
        return None

    n, q = g.n, h.n
    masks = g.masks
    full = (1 << n) - 1

    # placement order: most placed neighbours first, then degree, then id
    first = max(h.vertices(), key=lambda v: (h.degree(v), -v))
    order = [first]
    placed = {first}
    while len(order) < q:
        nxt = max(
            (v for v in h.vertices() if v not in placed),
            key=lambda v: (sum(1 for u in h.neighbours(v) if u in placed), h.degree(v), -v),
        )
        order.append(nxt)
        placed.add(nxt)
    pos = {v: i for i, v in enumerate(order)}

    # twin classes: pairwise-interchangeable pattern vertices; swapping two
    # of them is an automorphism, so their branch minima may be forced to
    # increase along the placement order
    def twins(u: int, v: int) -> bool:
        su = set(h.neighbours(u)) - {v}
        sv = set(h.neighbours(v)) - {u}
        return su == sv

    twin_prev: list[int | None] = [None] * q
    classes: list[list[int]] = []  # members as positions in `order`
    for i, v in enumerate(order):
        home = None
        for cls in classes:
            if all(twins(v, order[j]) for j in cls):
                home = cls
                break
        if home is None:
            classes.append([i])
        else:
            twin_prev[i] = home[-1]
            home.append(i)

    branch = [0] * q
    nbr_cache = [0] * q  # host neighbourhood mask of each placed branch set

    # the bit loops in this search stay inline: routed through bits_of,
    # its hot path measured ~7% slower
    def connected_subsets(root: int, allowed: int, max_size: int):
        """All connected subsets containing root with the rest in allowed,
        each produced exactly once."""

        def grow(cur: int, cand: int):
            yield cur
            if cur.bit_count() >= max_size:
                return
            tried = 0
            c = cand
            while c:
                b = c & -c
                c ^= b
                v = b.bit_length() - 1
                ncur = cur | b
                ncand = ((cand | (masks[v] & allowed)) & ~ncur) & ~tried
                yield from grow(ncur, ncand)
                tried |= b

        yield from grow(1 << root, masks[root] & allowed)

    def place(i: int, used: int) -> bool:
        if i == q:
            return True
        hv = order[i]
        base_avail = full & ~used
        avail = base_avail
        tp = twin_prev[i]
        if tp is not None:
            lowest = branch[tp] & -branch[tp]
            avail &= ~((lowest << 1) - 1)
        remaining = q - i - 1
        # this branch set draws from avail, but later ones only need room
        # in the unrestricted pool; capping by avail alone prunes models
        max_size = min(avail.bit_count(), base_avail.bit_count() - remaining)
        if max_size <= 0:
            return False
        req = [nbr_cache[pos[u]] for u in h.neighbours(hv) if pos[u] < i]
        root_pool = avail
        if req:
            root_pool &= req[0]
        # adjacency needs of yet-unplaced pattern vertices: positions of
        # already-placed neighbours, and whether hv itself is one
        future = []
        for f in order[i + 1 :]:
            fplaced = [pos[u] for u in h.neighbours(f) if pos[u] < i]
            future.append((fplaced, hv in h.neighbours(f)))
        tried_roots = 0
        pool = root_pool
        while pool:
            b = pool & -pool
            pool ^= b
            root = b.bit_length() - 1
            allowed = avail & ~tried_roots & ~b
            for smask in connected_subsets(root, allowed, max_size):
                if any(not smask & r for r in req):
                    continue
                nb = 0
                rest = smask
                while rest:
                    sb = rest & -rest
                    rest ^= sb
                    nb |= masks[sb.bit_length() - 1]
                nb &= ~smask
                after = base_avail & ~smask
                ok = True
                for fplaced, adj_current in future:
                    if adj_current and not after & nb:
                        ok = False
                        break
                    for j in fplaced:
                        if not after & nbr_cache[j]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                branch[i] = smask
                nbr_cache[i] = nb
                if place(i + 1, used | smask):
                    return True
            tried_roots |= b
        return False

    if not place(0, 0):
        return None
    sets: list[tuple[int, ...]] = [()] * q
    for i, hv in enumerate(order):
        sets[hv] = tuple(bits_of(branch[i]))
    model = MinorModel(branch_sets=tuple(sets))
    return model
