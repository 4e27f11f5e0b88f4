"""Constructive defective-colouring algorithms and their exhaustive oracle.

The workhorse is the peel-and-replay list colouring: strip a low-degree
vertex or a light edge until nothing is left, then reinsert in reverse,
recolouring an endpoint when an edge insertion pushes it over the defect.
On top of that sit the layered colouring for graphs excluding a fixed tree,
the forest-plus-bounded-degree edge partition, and the quotient-and-pullback
two-colouring for graphs excluding a star of stars as a minor.

Colour values are arbitrary integers; verifiers only compare them for
equality.  All public functions either return a verified object or raise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor
from typing import Sequence, Union

from .bounds import n1
from .caps import current_caps
from .density import mad_exact, top_grad_half
from .errors import (
    AlgorithmError,
    CapExceededError,
    PreconditionRefutedError,
    StructuralError,
    ValidationError,
)
from .gadgets import gen_kell_H
from .graphs import (
    Graph, bits_of, connected_components, contract_components, induced_subgraph, is_tree,
)
from .structure import MinorModel, minor_test_bruteforce, validate_minor_model

ColourAssignment = tuple[int, ...]
ListAssignment = Sequence[Sequence[int]]


# ---------------------------------------------------------------------------
# verification

def verify_defective(
    g: Graph, colours: Sequence[int], d: int
) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Check that every vertex has at most ``d`` same-coloured neighbours.

    Returns ``(ok, violations)`` where each violation is ``(vertex, count)``.
    """
    if len(colours) != g.n:
        raise ValidationError(f"need {g.n} colours, got {len(colours)}")
    for v, c in enumerate(colours):
        if not isinstance(c, int):
            raise ValidationError(f"vertex {v} is uncoloured")
    if d < 0:
        raise ValidationError("defect must be >= 0")
    violations = []
    for v in g.vertices():
        same = [colours[w] for w in g.neighbours(v)].count(colours[v])
        if same > d:
            violations.append((v, same))
    return not violations, tuple(violations)


# ---------------------------------------------------------------------------
# peel traces

@dataclass(frozen=True)
class RemoveVertex:
    """A vertex deleted while its degree was at most the vertex threshold.

    ``neighbours`` records the adjacency at removal time; edges to vertices
    deleted earlier, or deleted separately as light edges, are not in it.
    """

    vertex: int
    neighbours: tuple[int, ...]

    kind = "remove-vertex"


@dataclass(frozen=True)
class RemoveEdge:
    """An edge deleted while both endpoint degrees were at most the edge
    threshold."""

    edge: tuple[int, int]

    kind = "remove-edge"


PeelStep = Union[RemoveVertex, RemoveEdge]


@dataclass(frozen=True)
class PeelTrace:
    vertex_limit: int
    edge_limit: int
    steps: tuple[PeelStep, ...]


def build_peel_trace(g: Graph, vertex_limit: int, edge_limit: int) -> PeelTrace:
    """Reduce ``g`` to nothing, logging each removal.

    Prefers the smallest vertex of degree <= vertex_limit; otherwise takes
    the lexicographically least edge whose endpoints both have degree
    <= edge_limit.  If neither exists the reduction is stuck and the
    surviving subgraph is raised as a witness.  Degrees only fall, so a
    vertex or edge stays eligible from when it becomes so until removed, and
    two heaps of eligible vertices and edges (stale edges skipped lazily)
    yield exactly those choices in O((n + m) log n).

    The graph itself is never copied.  Live degrees are counters, a removed
    vertex loses its alive flag, and an edge taken by the edge rule goes
    into a cut set, which stays empty until that rule first runs.  A
    vertex's live neighbours are the alive ones in its sorted neighbour
    tuple whose edge is not cut; they are what ``RemoveVertex`` records.
    An edge is pushed once, when its later endpoint's counter falls to
    edge_limit (or when the heap is built), so no edge on the heap is cut:
    an entry is stale exactly when an endpoint is dead.
    """
    deg = [g.degree(v) for v in g.vertices()]
    alive = [True] * g.n
    remaining = g.n
    # both orientations of every edge the edge rule removed
    cut: set[tuple[int, int]] = set()
    # ascending, so already a heap; vertices only leave it by being popped
    vertex_heap = [v for v in range(g.n) if deg[v] <= vertex_limit]
    # built when the vertex rule first runs dry, which is often never
    edge_heap: list[tuple[int, int]] | None = None
    steps: list[PeelStep] = []

    def live(u: int) -> list[int]:
        return [w for w in g.neighbours(u) if alive[w] and (u, w) not in cut]

    def lowered(u: int) -> None:
        # u just lost a neighbour: push what that made eligible
        d = deg[u]
        if d == vertex_limit:
            heapq.heappush(vertex_heap, u)
        if d == edge_limit and edge_heap is not None:
            for w in live(u):
                if deg[w] <= edge_limit:
                    heapq.heappush(edge_heap, (min(u, w), max(u, w)))

    while remaining:
        if vertex_heap:
            v = heapq.heappop(vertex_heap)
            nbrs = tuple(live(v))
            alive[v] = False
            remaining -= 1
            for u in nbrs:
                deg[u] -= 1
                lowered(u)
            steps.append(RemoveVertex(vertex=v, neighbours=nbrs))
            continue
        if edge_heap is None:
            # no edge is cut yet, so the live neighbours are the alive ones
            edge_heap = [
                (u, w)
                for u in range(g.n)
                if alive[u] and deg[u] <= edge_limit
                for w in g.neighbours(u)
                if u < w and alive[w] and deg[w] <= edge_limit
            ]
            heapq.heapify(edge_heap)
        while edge_heap and not (alive[edge_heap[0][0]] and alive[edge_heap[0][1]]):
            heapq.heappop(edge_heap)
        if not edge_heap:
            stuck, old_ids = induced_subgraph(
                g, [v for v in range(g.n) if alive[v]]
            )
            raise StructuralError(
                "peel is stuck: no vertex of degree <= "
                f"{vertex_limit} and no {edge_limit}-light edge among "
                f"vertices {old_ids}",
                witness=stuck,
            )
        u, w = heapq.heappop(edge_heap)
        cut.update(((u, w), (w, u)))
        deg[u] -= 1
        deg[w] -= 1
        lowered(u)
        lowered(w)
        steps.append(RemoveEdge(edge=(u, w)))
    return PeelTrace(vertex_limit=vertex_limit, edge_limit=edge_limit, steps=tuple(steps))


# ---------------------------------------------------------------------------
# defective list colouring

def defective_list_colour(
    g: Graph, lists: ListAssignment, k: int, ell: int
) -> ColourAssignment:
    """Colour ``g`` from (k+1)-lists with defect at most ``ell - k``.

    Requires that every subgraph of ``g`` has a vertex of degree at most
    ``k`` or an ``ell``-light edge; a stuck peel raises a structural error
    carrying the surviving subgraph.  The returned assignment is verified
    before it leaves.
    """
    if not 1 <= k <= ell:
        raise ValidationError(f"need ell >= k >= 1, got k={k}, ell={ell}")
    if len(lists) != g.n:
        raise ValidationError(f"need {g.n} lists, got {len(lists)}")
    palettes = []
    for v, lst in enumerate(lists):
        pal = tuple(sorted(set(lst)))
        if len(pal) != k + 1:
            raise ValidationError(
                f"list of vertex {v} must hold exactly {k + 1} colours, "
                f"got {len(pal)}"
            )
        palettes.append(pal)

    trace = build_peel_trace(g, k, ell)
    d = ell - k
    colours: list[int | None] = [None] * g.n
    adj: list[set[int]] = [set() for _ in range(g.n)]

    def same_count(v: int) -> int:
        return sum(1 for w in adj[v] if colours[w] == colours[v])

    def recolour(v: int) -> None:
        used = {colours[w] for w in adj[v]}
        for c in palettes[v]:
            if c not in used:
                colours[v] = c
                return
        raise AlgorithmError(
            f"no free colour for vertex {v}: its {len(adj[v])} neighbours "
            f"block all of {palettes[v]}"
        )

    for step in reversed(trace.steps):
        if isinstance(step, RemoveVertex):
            v = step.vertex
            for u in step.neighbours:
                adj[v].add(u)
                adj[u].add(v)
            recolour(v)
        else:
            x, y = step.edge
            adj[x].add(y)
            adj[y].add(x)
            if colours[x] == colours[y]:
                for z in (x, y):
                    if same_count(z) > d:
                        recolour(z)
                        break

    final = tuple(colours)  # type: ignore[arg-type]
    ok, violations = verify_defective(g, final, d)
    if not ok:
        raise AlgorithmError(f"replay produced defect violations {violations}")
    for v in range(g.n):
        if final[v] not in palettes[v]:
            raise AlgorithmError(f"vertex {v} left its list")
    return final


# ---------------------------------------------------------------------------
# exhaustive oracle

def is_kd_colourable_bruteforce(
    g: Graph, k: int, d: int
) -> tuple[bool, ColourAssignment | None]:
    """Exact (k,d)-colourability by exhaustive search.

    Vertices are coloured in id order.  Colour classes are interchangeable,
    so vertex i only ever tries colours up to one past the largest colour
    used before it.  An assignment is pruned as soon as any vertex collects
    more than ``d`` same-coloured neighbours.
    """
    if k < 1:
        raise ValidationError("need k >= 1")
    if d < 0:
        raise ValidationError("need d >= 0")
    if g.n == 0:
        return True, ()
    if k == 1:
        colouring = (0,) * g.n
        return (g.max_degree() <= d, colouring if g.max_degree() <= d else None)
    caps = current_caps()
    cap = caps.kd_colour_k2 if k == 2 else caps.kd_colour_k3
    if g.n > cap:
        raise CapExceededError(
            f"exhaustive colouring needs n <= {cap} for k = {k}, got {g.n}"
        )
    colours: list[int | None] = [None] * g.n
    same = [0] * g.n  # same-coloured neighbours among already-coloured

    def assign(v: int, top: int) -> bool:
        # top is the largest colour used so far (-1 before any)
        if v == g.n:
            return True
        for c in range(min(top + 1, k - 1) + 1):
            bumped = []
            cnt = 0
            ok = True
            for w in g.neighbours(v):
                if colours[w] == c:
                    cnt += 1
                    if cnt > d or same[w] + 1 > d:
                        ok = False
                        break
                    bumped.append(w)
            if ok:
                colours[v] = c
                same[v] = cnt
                for w in bumped:
                    same[w] += 1
                if assign(v + 1, max(top, c)):
                    return True
                for w in bumped:
                    same[w] -= 1
                colours[v] = None
        return False

    if not assign(0, -1):
        return False, None
    return True, tuple(colours)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# colouring graphs that exclude a fixed tree

@dataclass(frozen=True)
class TreeEmbedding:
    """Injective map of a tree's vertices onto host vertices, edge for edge."""

    mapping: tuple[int, ...]

    kind = "tree-embedding"


@dataclass(frozen=True)
class TreeFreeOutcome:
    """Exactly one of ``colours`` and ``embedding`` is set."""

    num_colours: int
    defect_bound: int
    colours: ColourAssignment | None = None
    embedding: TreeEmbedding | None = None


def validate_tree_embedding(g: Graph, t: Graph, emb: TreeEmbedding) -> list[str]:
    problems = []
    if len(emb.mapping) != t.n:
        return ["mapping must cover every tree vertex"]
    if len(set(emb.mapping)) != t.n:
        problems.append("mapping is not injective")
    if any(not 0 <= v < g.n for v in emb.mapping):
        problems.append("mapping leaves the host")
        return problems
    for u, w in t.edges():
        if not g.has_edge(emb.mapping[u], emb.mapping[w]):
            problems.append(f"tree edge ({u},{w}) has no host edge")
    return problems


def _peel_rounds(g: Graph, limit: int, rounds: int) -> list[int]:
    """The round in which each vertex falls when every round removes, all at
    once, each live vertex with at most ``limit`` live neighbours; vertices
    still live after ``rounds`` rounds get ``rounds + 1``.

    Live degrees are kept as counters, so the next round's layer is exactly
    the live neighbours whose counter just fell to ``limit``: O(n + m).
    """
    deg = [g.degree(v) for v in g.vertices()]
    fell = [rounds + 1] * g.n
    layer = [v for v in g.vertices() if deg[v] <= limit]
    for r in range(1, rounds + 1):
        for v in layer:
            fell[v] = r
        nxt = []
        for v in layer:
            for w in g.neighbours(v):
                deg[w] -= 1
                if deg[w] == limit and fell[w] > rounds:
                    nxt.append(w)
        layer = nxt
    return fell


def colour_tree_free(g: Graph, t: Graph) -> TreeFreeOutcome:
    """Layered colouring for hosts that exclude the tree ``t`` as a subgraph.

    Peels vertices with at most ``t.n - 2`` live neighbours for
    ``radius - 1`` rounds and colours by round; leftover vertices form the
    last class.  A vertex peeled in an earlier round had at most ``t.n - 2``
    live neighbours then, its same-coloured ones among them, so only the
    last class can break the bound.  If one of its vertices does, the
    exclusion was false and a copy of ``t`` is grown from the least such
    vertex, level by level, back through the rounds.
    """
    if not is_tree(t) or t.n < 2:
        raise ValidationError("pattern must be a tree with at least 2 vertices")
    # the last round of leaf stripping holds the one or two centre vertices
    stripped = _peel_rounds(t, 1, t.n)
    centre = stripped.index(max(stripped))
    level, parent, order = {centre: 0}, {}, [centre]
    for v in order:
        for u in t.neighbours(v):
            if u not in level:
                level[u] = level[v] + 1
                parent[u] = v
                order.append(u)
    radius = level[order[-1]]
    bound = t.n - 2

    colours = _peel_rounds(g, bound, radius - 1)
    ok, violations = verify_defective(g, colours, bound)
    if ok:
        return TreeFreeOutcome(num_colours=radius, defect_bound=bound, colours=tuple(colours))

    # tree level j >= 1 goes to a host vertex that outlived round radius - j;
    # the violation feeds level 1, peeling feeds the rest
    image = [-1] * t.n
    image[centre] = violations[0][0]
    used = {image[centre]}
    for u in order[1:]:
        residue = radius - level[u]
        anchor = image[parent[u]]
        pick = next(
            (w for w in g.neighbours(anchor) if colours[w] > residue and w not in used),
            None,
        )
        if pick is None:
            raise AlgorithmError(
                f"embedding stalled at tree vertex {u}: vertex {anchor} has "
                f"no unused neighbour left in residue {residue}"
            )
        image[u] = pick
        used.add(pick)
    emb = TreeEmbedding(mapping=tuple(image))
    problems = validate_tree_embedding(g, t, emb)
    if problems:
        raise AlgorithmError(f"grown embedding is invalid: {problems}")
    return TreeFreeOutcome(num_colours=radius, defect_bound=bound, embedding=emb)


# ---------------------------------------------------------------------------
# edge partition into a forest and a bounded-degree rest

def edge_partition_forest_bounded(
    g: Graph, limit: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Split the edges into an acyclic part and a part of maximum degree
    ``limit - 1``.

    Requires every subgraph to have a vertex of degree at most 1 or a
    ``limit``-light edge.  Replay keeps the invariant that an edge enters
    the forest only when one endpoint has forest-degree 0, which can never
    close a cycle; an edge enters the other side only while both endpoints
    have room.
    """
    if limit < 1:
        raise ValidationError("need limit >= 1")
    trace = build_peel_trace(g, 1, limit)
    tree_edges: list[tuple[int, int]] = []
    rest_edges: list[tuple[int, int]] = []
    deg_rest = [0] * g.n

    for step in reversed(trace.steps):
        if isinstance(step, RemoveVertex):
            v = step.vertex
            if step.neighbours:
                u = step.neighbours[0]
                tree_edges.append((min(u, v), max(u, v)))
        else:
            x, y = step.edge
            if deg_rest[x] <= limit - 2 and deg_rest[y] <= limit - 2:
                rest_edges.append((x, y))
                deg_rest[x] += 1
                deg_rest[y] += 1
            else:
                tree_edges.append((x, y))

    # independent checks: union-find for acyclicity, counting for degrees
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in tree_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise AlgorithmError(f"forest side closed a cycle at edge ({u},{v})")
        parent[ru] = rv
    degs = [0] * g.n
    for u, v in rest_edges:
        degs[u] += 1
        degs[v] += 1
    if degs and max(degs) > limit - 1:
        raise AlgorithmError(
            f"bounded side reached degree {max(degs)}, cap is {limit - 1}"
        )
    if sorted(tree_edges + rest_edges) != list(g.edges()):
        raise AlgorithmError("partition does not cover the edge set exactly")
    return tuple(sorted(tree_edges)), tuple(sorted(rest_edges))


# ---------------------------------------------------------------------------
# two-colouring graphs excluding a star of stars as a minor

@dataclass(frozen=True)
class KellResult:
    """Outcome of the quotient-and-pullback pipeline.

    ``kind`` is "colouring" when the two-colouring went through and "minor"
    when a model of the excluded pattern surfaced instead; the latter is a
    legitimate answer, not a failure.
    """

    kind: str
    diagnostics: dict
    colours: ColourAssignment | None = None
    defect_bound: int | None = None
    minor_model: MinorModel | None = None


def _common_neighbour_threshold(ell: int, k: int) -> int:
    return comb(ell * ell - 1, 2) * (k + 1) + ell * ell + ell


def colour_kell(g: Graph, ell: int, k: int) -> KellResult:
    """Two-colour a graph that excludes the dominated union of ``ell`` stars
    ``K_{1,k}`` as a minor.

    Vertices with many shared neighbours are linked in an auxiliary graph;
    a high-degree vertex there yields a model of the excluded pattern
    directly.  Otherwise the auxiliary components are contracted, the
    quotient is list-coloured with measured density parameters, and the
    colours are pulled back.  Small inputs are additionally screened by the
    exact minor test, which catches patterns the auxiliary graph cannot
    see, the pattern itself among them.
    """
    if ell < 2 or k < 1:
        raise ValidationError("need ell >= 2 and k >= 1")
    pattern = gen_kell_H(ell, k)
    r = _common_neighbour_threshold(ell, k)
    caps = current_caps()
    diagnostics: dict = {
        "threshold": r,
        "pattern_vertices": pattern.n,
    }

    # dense hosts make exhaustive refutation explode, and the screen only
    # exists for small sparse inputs (the pattern itself has m/n < 3/2)
    screenable = (
        g.n <= caps.minor_host
        and pattern.n <= caps.minor_pattern
        and 2 * g.m <= 3 * g.n
    )
    if screenable:
        model = minor_test_bruteforce(g, pattern)
        if model is not None:
            problems = validate_minor_model(g, pattern, model)
            if problems:
                raise AlgorithmError(f"screen produced a bad model: {problems}")
            diagnostics["source"] = "exact-screen"
            return KellResult(kind="minor", diagnostics=diagnostics, minor_model=model)

    masks = g.masks
    aux = Graph(g.n, [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (masks[u] & masks[v]).bit_count() >= r
    ])
    diagnostics["aux_edges"] = aux.m
    diagnostics["linked_vertices"] = sum(1 for v in range(g.n) if aux.degree(v))

    hub = next((v for v in range(g.n) if aux.degree(v) >= ell), None)
    if hub is not None:
        model = _extract_pattern_model(g, aux, hub, ell, k)
        problems = validate_minor_model(g, pattern, model)
        if problems:
            raise AlgorithmError(f"hub extraction produced a bad model: {problems}")
        diagnostics["source"] = "aux-hub"
        return KellResult(kind="minor", diagnostics=diagnostics, minor_model=model)

    # contract auxiliary components; singletons stay themselves
    quotient, proj = contract_components(g, connected_components(aux))
    diagnostics["quotient_vertices"] = quotient.n

    if quotient.m == 0:
        quotient_colours: ColourAssignment = (1,) * quotient.n
        d_prime = 0
        diagnostics["quotient_defect"] = 0
    else:
        if quotient.n <= caps.top_grad:
            delta, mad_witness = mad_exact(quotient)
            grad_twice = 2 * top_grad_half(quotient, _mad_witness=mad_witness)[0]
            diagnostics["density_source"] = "measured"
        else:
            # beyond the exact oracle, fall back to the class-wide average
            # degree bound for a 2-degenerate excluded minor, which also
            # caps the depth-one grad of the quotient
            worst = Fraction(7 * (ell * k + ell + 1))
            delta = worst + 2 * ell - 2
            grad_twice = delta
            diagnostics["density_source"] = "worst-case"
        t_prime = ell * ell * (ell - 1) * (ell - 1) * r
        ell_col = floor(n1(2, t_prime, delta, grad_twice))
        # measured mad below 2 means the quotient is a forest; the formula
        # can then dip under the always-sufficient threshold of 1
        if ell_col < 1:
            ell_col = 1
        d_prime = ell_col - 1
        diagnostics.update(
            {
                "quotient_mad": str(delta),
                "quotient_grad_twice": str(grad_twice),
                "excluded_biclique_size": t_prime,
                "edge_threshold": ell_col,
                "quotient_defect": d_prime,
            }
        )
        lists = [(1, 2)] * quotient.n
        try:
            quotient_colours = defective_list_colour(quotient, lists, 1, ell_col)
        except StructuralError as err:
            raise StructuralError(
                "quotient colouring is stuck, the input likely contains the "
                f"excluded pattern; diagnostics: {diagnostics}",
                witness=err.witness,
            ) from err

    colours = tuple(quotient_colours[proj[v]] for v in range(g.n))
    defect_bound = d_prime + ell * ell - 1
    ok, violations = verify_defective(g, colours, defect_bound)
    if not ok:
        raise PreconditionRefutedError(
            f"pulled-back colouring exceeds defect {defect_bound} at "
            f"{violations[:3]}; the input cannot exclude the pattern",
            witness=g,
        )
    diagnostics["defect_bound"] = defect_bound
    return KellResult(
        kind="colouring",
        diagnostics=diagnostics,
        colours=colours,
        defect_bound=defect_bound,
    )


def _extract_pattern_model(
    g: Graph, aux: Graph, hub: int, ell: int, k: int
) -> MinorModel:
    """Model of the dominated star union rooted at an auxiliary vertex with
    ``ell`` auxiliary neighbours.

    Every auxiliary edge guarantees ``r`` shared neighbours in the host, so
    k+1 fresh ones per auxiliary neighbour always exist: one is merged into
    the star centre, k stay as leaves.
    """
    spokes = aux.neighbours(hub)[:ell]
    masks = g.masks
    forbidden = {hub, *spokes}
    chosen: set[int] = set()
    centre_sets: list[tuple[int, ...]] = []
    leaf_sets: list[list[int]] = []
    for s in spokes:
        common = masks[hub] & masks[s]
        picks = [w for w in bits_of(common) if w not in forbidden and w not in chosen][: k + 1]
        if len(picks) < k + 1:
            raise AlgorithmError(
                f"auxiliary edge ({hub},{s}) has too few fresh shared "
                f"neighbours: {len(picks)} < {k + 1}"
            )
        chosen.update(picks)
        centre_sets.append(tuple(sorted((s, picks[0]))))
        leaf_sets.append(picks[1:])

    # pattern ids: 0 dominant, then centre i at 1+i(k+1) followed by leaves
    sets: list[tuple[int, ...]] = [(hub,)]
    for i in range(ell):
        sets.append(centre_sets[i])
        for leaf in leaf_sets[i]:
            sets.append((leaf,))
    return MinorModel(branch_sets=tuple(sets))
