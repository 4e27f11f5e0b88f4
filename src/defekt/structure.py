"""Structural certificate searches.

The centrepiece is the three-way dichotomy: a graph whose density obeys the
caller-certified bounds must contain a low-degree vertex, a light edge, or a
starred complete-bipartite pattern.  All searches are deterministic
(lexicographic tie-breaks) and every certificate can be re-validated by a
pure function here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import floor

from .bounds import n1
from .caps import current_caps
from .errors import CapExceededError, PreconditionRefutedError, ValidationError
from .graphs import (
    Graph, bits_of, blocks, component_mask, connected_components, neighbour_masks,
)
from .matching import max_bipartite_matching


# ---------------------------------------------------------------------------
# certificate types: ``kind`` names each on the wire (see defekt.wire)

@dataclass(frozen=True)
class LowDegreeVertex:
    vertex: int
    degree: int

    kind = "low-degree-vertex"


@dataclass(frozen=True)
class LightEdge:
    edge: tuple[int, int]
    degrees: tuple[int, int]

    kind = "light-edge"


@dataclass(frozen=True)
class KstStarEmbedding:
    """K_{s,t} plus one private common neighbour per pair of the s-side.

    ``centres`` is the s-side, ``outer`` the t vertices adjacent to every
    centre, and ``pair_vertices`` assigns each centre pair its extra common
    neighbour.
    """

    centres: tuple[int, ...]
    outer: tuple[int, ...]
    pair_vertices: tuple[tuple[tuple[int, int], int], ...]

    kind = "kst-star"


DichotomyCertificate = LowDegreeVertex | LightEdge | KstStarEmbedding


@dataclass(frozen=True)
class MinorModel:
    """Disjoint connected branch sets indexed by pattern vertex."""

    branch_sets: tuple[tuple[int, ...], ...]

    kind = "minor-model"


# ---------------------------------------------------------------------------
# the easy searches

def find_light_edge(g: Graph, ell: int) -> tuple[int, int] | None:
    """Lexicographically least edge whose endpoints both have degree <= ell."""
    if ell < 0:
        raise ValidationError("light-edge threshold must be non-negative")
    for u, v in g.edges():
        if g.degree(u) <= ell and g.degree(v) <= ell:
            return (u, v)
    return None


def find_kst_star(g: Graph, s: int, t: int) -> KstStarEmbedding | None:
    """Search for the starred K_{s,t} pattern as a subgraph.

    Centres are tried in lexicographic order; for each centre set the outer
    vertices and the pair vertices are filled in simultaneously by a
    bipartite matching over the candidate pools, so overlap between the
    pools is handled exactly.  The matching runs over the pools' own
    vertices, numbered in ascending id, so it tries candidates in id order.
    """
    if s < 1 or t < 1:
        raise ValidationError("need s >= 1 and t >= 1")
    need = s + t + s * (s - 1) // 2
    if g.n < need:
        return None
    min_deg = t + s - 1
    cands = [v for v in g.vertices() if g.degree(v) >= min_deg]
    n_pairs = s * (s - 1) // 2
    for centres in combinations(cands, s):
        # no vertex neighbours itself, so no centre is a common neighbour
        common = set(g.neighbours(centres[0])).intersection(*map(g.neighbours, centres[1:]))
        if len(common) < t:
            continue
        pairs = list(combinations(centres, 2))
        # each pair's candidates include the common pool, which is not empty
        pools = [set(g.neighbours(u)).intersection(g.neighbours(v)).difference(centres)
                 for u, v in pairs]
        order = sorted(common.union(*pools))
        bit = {v: 1 << i for i, v in enumerate(order)}
        pair_cands = [sum(map(bit.get, p)) for p in pools]
        size, match = max_bipartite_matching(pair_cands + [sum(map(bit.get, common))] * t)
        if size == n_pairs + t:
            match = [order[j] for j in match]
            pair_vertices = tuple(zip(pairs, match))
            outer = tuple(sorted(match[n_pairs:]))
            return KstStarEmbedding(
                centres=tuple(centres), outer=outer, pair_vertices=pair_vertices
            )
    return None


def validate_kst_star(g: Graph, emb: KstStarEmbedding, s: int, t: int) -> list[str]:
    problems = []
    if len(emb.centres) != s:
        problems.append(f"expected {s} centres, got {len(emb.centres)}")
    if len(emb.outer) != t:
        problems.append(f"expected {t} outer vertices, got {len(emb.outer)}")
    expected_pairs = set(combinations(sorted(emb.centres), 2))
    got_pairs = {tuple(sorted(p)) for p, _ in emb.pair_vertices}
    if got_pairs != expected_pairs:
        problems.append("pair vertices do not cover exactly the centre pairs")
    everyone = list(emb.centres) + list(emb.outer) + [w for _, w in emb.pair_vertices]
    if len(set(everyone)) != len(everyone):
        problems.append("embedding vertices are not distinct")
    if any(not 0 <= v < g.n for v in everyone):
        problems.append("vertex out of range")
        return problems
    for w in emb.outer:
        for a in emb.centres:
            if not g.has_edge(w, a):
                problems.append(f"outer {w} misses centre {a}")
    for (u, v), w in emb.pair_vertices:
        if not (g.has_edge(w, u) and g.has_edge(w, v)):
            problems.append(f"pair vertex {w} misses ({u},{v})")
    return problems


# ---------------------------------------------------------------------------
# the dichotomy

def dichotomy_threshold(s: int, t: int, delta, delta1) -> int:
    return floor(n1(s, t, delta, delta1))


def structural_dichotomy(
    g: Graph, s: int, t: int, delta, delta1
) -> DichotomyCertificate:
    """Produce one of the three certificates the density bounds promise.

    ``delta`` must bound the average degree of every subgraph and ``delta1``
    the average degree of every exact-1-subdivision preimage; both are the
    caller's responsibility.  If all three searches fail, those bounds were
    wrong, and the graph itself is raised as the refutation.
    """
    if g.n == 0:
        raise ValidationError("dichotomy needs at least one vertex")
    for v in g.vertices():
        if g.degree(v) <= s - 1:
            return LowDegreeVertex(vertex=v, degree=g.degree(v))
    # the density arguments are only consulted once the graph has no
    # low-degree vertex, so edgeless inputs never reach them
    ell = dichotomy_threshold(s, t, delta, delta1)
    if ell >= 0:
        edge = find_light_edge(g, ell)
        if edge is not None:
            u, v = edge
            return LightEdge(edge=edge, degrees=(g.degree(u), g.degree(v)))
    emb = find_kst_star(g, s, t)
    if emb is not None:
        return emb
    raise PreconditionRefutedError(
        f"no certificate for s={s}, t={t}, delta={delta}, delta1={delta1}, "
        f"ell={ell}: the stated density bounds cannot hold",
        witness=g,
    )


def validate_certificate(
    g: Graph, cert: DichotomyCertificate, s: int, t: int, ell: int
) -> list[str]:
    """Check any dichotomy certificate against the graph; empty means sound."""
    if isinstance(cert, LowDegreeVertex):
        if not 0 <= cert.vertex < g.n:
            return ["vertex out of range"]
        if g.degree(cert.vertex) != cert.degree:
            return ["recorded degree is wrong"]
        if cert.degree > s - 1:
            return [f"degree {cert.degree} exceeds s-1 = {s - 1}"]
        return []
    if isinstance(cert, LightEdge):
        u, v = cert.edge
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
            return ["edge not in graph"]
        if (g.degree(u), g.degree(v)) != cert.degrees:
            return ["recorded degrees are wrong"]
        if max(cert.degrees) > ell:
            return [f"edge is not {ell}-light"]
        return []
    if isinstance(cert, KstStarEmbedding):
        return validate_kst_star(g, cert, s, t)
    return [f"unknown certificate {cert!r}"]


# ---------------------------------------------------------------------------
# exact minor containment

def _rank_refutes(g: Graph, h: Graph) -> bool:
    """``h`` has the larger cycle rank, m - n + components."""
    return h.m - h.n + len(connected_components(h)) > g.m - g.n + len(connected_components(g))


def _blocks_refute(g: Graph, h: Graph) -> bool:
    """``h`` is 2-connected, and no block of ``g`` has as many vertices and
    edges and as large an m - n."""
    pattern = blocks(h) if h.n >= 3 else []
    if len(pattern) != 1 or len(pattern[0][0]) != h.n:
        return False
    return not any(
        len(vs) >= h.n and len(es) >= h.m and len(es) - len(vs) >= h.m - h.n
        for vs, es in blocks(g)
    )


def minor_test_bruteforce(g: Graph, h: Graph) -> MinorModel | None:
    """Exhaustive branch-set search for ``h`` as a minor of ``g``.

    Branch sets are grown as connected subsets in a canonical order, pattern
    vertices are placed most-constrained-first, and interchangeable pattern
    vertices (twins) are broken by forcing their branch minima to increase.
    The pattern-degree cut drops a candidate set B when some placed set,
    B included, has fewer free neighbours than it has pattern neighbours
    still to place: their branch sets are disjoint, so each needs a free
    vertex of its own beside it.  The cut drops only sets that cannot
    extend to a model, so the answer is the first model in the canonical
    order.  Exact within the caps; returns that model or None.

    Two cuts answer None, and only None, before the search: ``h`` needs a
    cycle rank (m - n + components) no larger than ``g``'s, since no minor
    operation raises it; and a 2-connected ``h`` needs a block of ``g`` with
    at least its vertex count, edge count and m - n, since a 2-connected
    minor of ``g`` is a minor of one of its blocks.  So whenever a model
    exists, the search runs and finds the same one.
    """
    caps = current_caps()
    if g.n > caps.minor_host:
        raise CapExceededError(f"host has {g.n} vertices, cap is {caps.minor_host}")
    if h.n > caps.minor_pattern:
        raise CapExceededError(f"pattern has {h.n} vertices, cap is {caps.minor_pattern}")
    if h.n == 0:
        return MinorModel(branch_sets=())
    if h.n > g.n or h.m > g.m or _rank_refutes(g, h) or _blocks_refute(g, h):
        return None

    n, q = g.n, h.n
    masks = neighbour_masks(g)
    full = (1 << n) - 1

    # placement order: most placed neighbours first, then degree, then id
    order: list[int] = []
    placed: set[int] = set()
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

    # what each position needs, fixed by the placement order: the earlier
    # positions adjacent to it, the count of its neighbours placed after
    # it, and each earlier position with the count of its neighbours
    # placed after this one
    req_pos = [[pos[u] for u in h.neighbours(hv) if pos[u] < i] for i, hv in enumerate(order)]
    later = [h.degree(hv) - len(req_pos[i]) for i, hv in enumerate(order)]
    waiting = [
        list(Counter(j for k in range(i + 1, q) for j in req_pos[k] if j < i).items())
        for i in range(q)
    ]

    branch = [0] * q
    nbr_cache = [0] * q  # host neighbourhood mask of each placed branch set

    # the bit loops in this search stay inline: routed through bits_of,
    # its hot path measured ~7% slower
    def connected_subsets(root: int, allowed: int, max_size: int):
        """All connected subsets containing root with the rest in allowed,
        each produced exactly once, with its outer neighbourhood.

        Depth first: a subset is produced, then each of its extensions by
        one candidate, lowest first, leaving out the candidates an earlier
        sibling extension already took.  A frame holds (subset, its size,
        untried candidates, tried ones, union of its neighbourhoods).
        """
        cur = 1 << root
        yield cur, masks[root] & ~cur
        stack = [(cur, 1, masks[root] & allowed, 0, masks[root])]
        while stack:
            cur, size, cand, tried, reach = stack[-1]
            if not cand or size >= max_size:
                stack.pop()
                continue
            b = cand & -cand
            stack[-1] = (cur, size, cand ^ b, tried | b, reach)
            v = b.bit_length() - 1
            ncur = cur | b
            nreach = reach | masks[v]
            yield ncur, nreach & ~ncur
            stack.append((ncur, size + 1, ((cand ^ b) | (masks[v] & allowed & ~tried)) & ~ncur,
                          0, nreach))

    def place(i: int, used: int) -> bool:
        if i == q:
            return True
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
        req = [nbr_cache[j] for j in req_pos[i]]
        root_pool = avail
        if req:
            root_pool &= req[0]
        need = later[i]
        tried_roots = 0
        pool = root_pool
        while pool:
            b = pool & -pool
            pool ^= b
            root = b.bit_length() - 1
            allowed = avail & ~tried_roots & ~b
            for smask, nb in connected_subsets(root, allowed, max_size):
                if any(not smask & r for r in req):
                    continue
                # the branch sets placed later are disjoint, so each needs
                # its own free vertex beside every placed set it touches
                if (nb & base_avail).bit_count() < need:
                    continue
                after = base_avail & ~smask
                if any((after & nbr_cache[j]).bit_count() < c for j, c in waiting[i]):
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


def validate_minor_model(g: Graph, h: Graph, model: MinorModel) -> list[str]:
    problems = []
    if len(model.branch_sets) != h.n:
        return ["one branch set per pattern vertex required"]
    seen: set[int] = set()
    for i, bset in enumerate(model.branch_sets):
        if not bset:
            problems.append(f"branch set {i} is empty")
            continue
        if any(not 0 <= v < g.n for v in bset):
            problems.append(f"branch set {i} out of range")
            continue
        overlap = seen.intersection(bset)
        if overlap:
            problems.append(f"branch sets overlap on {sorted(overlap)[:3]}")
        seen.update(bset)
        inside, reached, stack = set(bset), {bset[0]}, [bset[0]]
        while stack:
            grow = inside.intersection(g.neighbours(stack.pop())) - reached
            reached |= grow
            stack.extend(grow)
        if reached != inside:
            problems.append(f"branch set {i} is not connected")
    if any(not 0 <= v < g.n for bset in model.branch_sets for v in bset):
        return problems
    for u, v in h.edges():
        found = any(
            g.has_edge(x, y)
            for x in model.branch_sets[u]
            for y in model.branch_sets[v]
        )
        if not found:
            problems.append(f"no host edge between branch sets {u} and {v}")
    return problems


# ---------------------------------------------------------------------------
# small pattern invariants

def vertex_cover_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact minimum vertex cover by branch and bound on the max-degree vertex."""
    limit = current_caps().vertex_cover
    if g.n > limit:
        raise CapExceededError(f"vertex cover needs n <= {limit}, got {g.n}")
    masks = neighbour_masks(g)
    n = g.n
    best_size = n
    best_mask = (1 << n) - 1

    def rec(alive: int, cover: int, size: int) -> None:
        nonlocal best_size, best_mask
        if size >= best_size:
            return
        deg_best, v_best = 0, -1
        for v in bits_of(alive):
            d = (masks[v] & alive).bit_count()
            if d > deg_best:
                deg_best, v_best = d, v
        if deg_best == 0:
            best_size, best_mask = size, cover
            return
        if deg_best == 1:
            # remaining edges form a matching; the smaller endpoint of each
            # suffices
            taken = 0
            handled = 0
            for v in bits_of(alive):
                if handled >> v & 1:
                    continue
                nb = masks[v] & alive
                if nb:
                    taken |= 1 << v
                    handled |= 1 << v | nb
            extra = taken.bit_count()
            if size + extra < best_size:
                best_size, best_mask = size + extra, cover | taken
            return
        vb = 1 << v_best
        rec(alive & ~vb, cover | vb, size + 1)
        nbrs = masks[v_best] & alive
        rec(alive & ~nbrs & ~vb, cover | nbrs, size + nbrs.bit_count())

    rec((1 << n) - 1, 0, 0)
    return best_size, tuple(bits_of(best_mask))


def tree_depth(g: Graph) -> int:
    """Exact tree-depth by memoized component recursion."""
    limit = current_caps().tree_depth
    if g.n > limit:
        raise CapExceededError(f"tree depth needs n <= {limit}, got {g.n}")
    if g.n == 0:
        return 0
    masks = neighbour_masks(g)
    memo: dict[int, int] = {}

    def td(mask: int) -> int:
        count = mask.bit_count()
        if count <= 1:
            return count
        cached = memo.get(mask)
        if cached is not None:
            return cached
        comp = component_mask(masks, mask, mask & -mask)
        if comp != mask:
            val = max(td(comp), td(mask ^ comp))
        else:
            floor_bound = (count + 1).bit_length() - 1
            if (1 << floor_bound) < count + 1:
                floor_bound += 1
            # connected: remove the best vertex
            val = count
            rest = mask  # inline rather than bits_of: the loop can stop early
            while rest:
                b = rest & -rest
                rest ^= b
                cur = 1 + td(mask ^ b)
                if cur < val:
                    val = cur
                    if val == floor_bound:
                        break
        memo[mask] = val
        return val

    return td((1 << g.n) - 1)


def is_star_plus_isolated(h: Graph) -> tuple[int, int] | None:
    """Decompose ``h`` as one star plus isolated vertices, if possible.

    Returns (leaves, isolated) or None.  An edgeless graph counts: its star
    is a single vertex.
    """
    if h.n == 0:
        return None
    positive = [v for v in h.vertices() if h.degree(v) > 0]
    if not positive:
        return (0, h.n - 1)
    if h.m == 1:
        return (1, h.n - 2)
    centre = max(positive, key=lambda v: (h.degree(v), -v))
    if h.degree(centre) != len(positive) - 1 or h.m != len(positive) - 1:
        return None
    if any(h.degree(v) != 1 for v in positive if v != centre):
        return None
    return (h.degree(centre), h.n - len(positive))


def hfree_bounds(h: Graph) -> tuple[int, int]:
    """Bounds (lower, upper) on the colours needed by graphs excluding h as
    a minor, with defect allowed to depend on h.

    A star plus isolated vertices pins the value to one colour exactly.
    Otherwise the tree-depth of h minus one is a lower bound and its vertex
    cover number an upper bound.
    """
    if h.n == 0:
        raise ValidationError("pattern must have at least one vertex")
    shape = is_star_plus_isolated(h)
    if shape is not None and h.n >= 2:
        return (1, 1)
    td = tree_depth(h)
    tau, _ = vertex_cover_number(h)
    return (td - 1, tau)
