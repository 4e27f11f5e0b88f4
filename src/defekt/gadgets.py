"""Deterministic graph constructions used as test instances and witnesses.

All constructors number vertices the same way on every call, so frozen
expected values in tests stay valid.
"""

from __future__ import annotations

from itertools import combinations

from .caps import current_caps
from .errors import CapExceededError, ValidationError
from .graphs import Graph


def _check_order(count: int, what: str = "vertices") -> int:
    """Return ``count``, or raise ``CapExceededError`` when a construction of
    that many vertices is above the ``gadget_vertices`` cap.  Every generator
    calls this before it builds anything; the families with quadratically
    many edges also call it on their edge count (``what="edges"``), against
    the same cap."""
    cap = current_caps().gadget_vertices
    if count > cap:
        # a count too long to print is named by its bit length
        shown = count if count.bit_length() <= 64 else f"over 2**{count.bit_length() - 1}"
        raise CapExceededError(f"construction would have {shown} {what}, cap is {cap}")
    return count


def _exponent_limit() -> int:
    """An exponent past which 2**exponent is above the cap and above 2**64,
    so exponential families can be refused without forming a huge power."""
    return max(64, current_caps().gadget_vertices.bit_length())


# ---------------------------------------------------------------------------
# standard graphs

def path(n: int) -> Graph:
    _check_order(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValidationError("cycles need at least 3 vertices")
    _check_order(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _check_order(n)
    _check_order(n * (n - 1) // 2, "edges")
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(s: int, t: int) -> Graph:
    if s < 0 or t < 0:
        raise ValidationError("complete bipartite sides must be non-negative")
    _check_order(s + t)
    _check_order(s * t, "edges")
    return Graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def star(leaves: int) -> Graph:
    """A star with centre 0 and the given number of leaves."""
    return complete_bipartite(1, leaves)


def wheel(rim: int) -> Graph:
    """A cycle of the given length plus a hub (vertex 0) joined to all of it."""
    if rim < 3:
        raise ValidationError("wheels need a rim of at least 3")
    _check_order(rim + 1)
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(rim + 1, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def dodecahedron() -> Graph:
    """The dodecahedral graph: planar, 3-regular, girth 5."""
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 10), (10, 6), (6, 11), (11, 7), (7, 12),
        (12, 8), (8, 13), (13, 9), (9, 14), (14, 5),
        (10, 15), (11, 16), (12, 17), (13, 18), (14, 19),
        (15, 16), (16, 17), (17, 18), (18, 19), (19, 15),
    ]
    return Graph(20, edges)


# ---------------------------------------------------------------------------
# constructions specific to this package

def gsn_order(s: int, N: int) -> int:
    """Vertex count of ``gen_gsn(s, N)`` without building it."""
    if s < 2 or N < 1:
        raise ValidationError("need s >= 2 and N >= 1")
    size = N + 2
    for _ in range(s - 2):
        size = (N + 1) * size + 1
    return size


def gen_gsn(s: int, N: int) -> Graph:
    """The recursive dominant-vertex construction over stars.

    Level 2 is the star with N+1 leaves; level s joins a fresh dominant
    vertex (id 0) to N+1 disjoint copies of level s-1.  Useful as a hard
    instance: it keeps defect unbounded for s-1 colours while excluding
    complete bipartite minors.
    """
    # the order at least doubles per level, so clamping s keeps an over-cap
    # order over the cap, and an order that passes is exact
    total = _check_order(gsn_order(min(s, _exponent_limit() + 2), N))

    def build(level: int, base: int) -> list[tuple[int, int]]:
        # vertices of the block occupy ids base .. base+size-1, root at base
        if level == 2:
            return [(base, base + i) for i in range(1, N + 2)]
        edges = []
        sub = gsn_order(level - 1, N)
        off = base + 1
        for _ in range(N + 1):
            edges.extend(build(level - 1, off))
            edges.extend((base, off + j) for j in range(sub))
            off += sub
        return edges

    return Graph(total, build(s, 0))


def gen_kst_star(s: int, t: int) -> Graph:
    """Complete bipartite K_{s,t} plus one private common neighbour per
    pair of the s-side.

    Vertices: the s-side is 0..s-1, the t-side follows, then one pair vertex
    for each of the s(s-1)/2 pairs in lexicographic order.
    """
    if s < 1 or t < 1:
        raise ValidationError("need s >= 1 and t >= 1")
    pairs = s * (s - 1) // 2
    _check_order(s + t + pairs)
    _check_order(s * t + 2 * pairs, "edges")
    edges = [(i, s + j) for i in range(s) for j in range(t)]
    nxt = s + t
    for u, v in combinations(range(s), 2):
        edges += [(u, nxt), (v, nxt)]
        nxt += 1
    return Graph(nxt, edges)


def gen_kell_H(ell: int, k: int) -> Graph:
    """A dominant vertex joined to ell disjoint stars, each with k leaves.

    Vertex 0 dominates; star i occupies ids 1+i*(k+1) (centre) followed by
    its k leaves.
    """
    if ell < 1 or k < 1:
        raise ValidationError("need ell >= 1 and k >= 1")
    n = _check_order(1 + ell * (k + 1))
    edges = [(0, v) for v in range(1, n)]
    for i in range(ell):
        c = 1 + i * (k + 1)
        edges += [(c, c + j) for j in range(1, k + 1)]
    return Graph(n, edges)


def complete_binary_tree(radius: int) -> Graph:
    """The complete binary tree whose root (id 0) has eccentricity ``radius``.

    Vertices are numbered level by level, so children of v are 2v+1, 2v+2.
    """
    if radius < 0:
        raise ValidationError("radius must be non-negative")
    # clamping the radius keeps an over-cap order over the cap, and an order
    # that passes is exact
    n = _check_order(2 ** (min(radius, _exponent_limit()) + 1) - 1)
    return Graph(n, [(v, (v - 1) // 2) for v in range(1, n)])

