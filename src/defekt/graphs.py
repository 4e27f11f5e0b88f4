"""Immutable simple graphs and the text formats used by the rest of the package.

Vertices are dense integers ``0..n-1``.  Duplicate edges collapse silently on
construction; self-loops are rejected.  Instances never mutate after
``__init__``, so they are safe to share across threads and to use as dict
keys.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence

from .errors import ParseError, ValidationError


class Graph:
    """An undirected simple graph with frozen adjacency."""

    __slots__ = ("n", "labels", "_adj", "_m", "_masks")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValidationError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self.n = n
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self._m = m
        self._masks: tuple[int, ...] | None = None
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValidationError("label count differs from vertex count")
        self.labels = labels

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self.n)

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def min_degree(self) -> int:
        return min((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as sorted pairs, in lexicographic order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def masks(self) -> tuple[int, ...]:
        """Neighbourhoods as bitmasks, computed once on first use."""
        if self._masks is None:
            out = []
            for nbrs in self._adj:
                m = 0
                for v in nbrs:
                    m |= 1 << v
                out.append(m)
            self._masks = tuple(out)
        return self._masks

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


# ---------------------------------------------------------------------------
# text formats

_QUOTE_LIMIT = 60


def _quote(text: str) -> str:
    """``repr`` of stripped input for an error message, cut after
    ``_QUOTE_LIMIT`` characters so that a huge line cannot flood stderr."""
    text = text.strip()
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def from_edge_list(text: str) -> Graph:
    """Parse whitespace-separated ``u v`` lines, one edge per line.

    An optional first line ``n m`` fixes the vertex count explicitly; it is
    recognised as a header only when consistent (n > 0, exactly m edge lines
    follow, every endpoint below n).  Without a header the vertex count is
    one more than the largest endpoint.  ``#`` starts a comment.
    """
    rows: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {_quote(raw)}", line=lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer token in {_quote(raw)}", line=lineno) from None
        rows.append((lineno, a, b))
    if not rows:
        return Graph(0)
    (_, n0, m0), rest = rows[0], rows[1:]
    if n0 > 0 and len(rest) == m0 and all(0 <= u < n0 and 0 <= v < n0 for _, u, v in rest):
        return _build(n0, rest)
    n = max(max(u, v) for _, u, v in rows) + 1
    if min(min(u, v) for _, u, v in rows) < 0:
        bad = next(ln for ln, u, v in rows if u < 0 or v < 0)
        raise ParseError("negative vertex id", line=bad)
    return _build(n, rows)


def _build(n: int, rows: list[tuple[int, int, int]]) -> Graph:
    for lineno, u, v in rows:
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
    return Graph(n, [(u, v) for _, u, v in rows])


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}", *(f"{u} {v}" for u, v in g.edges())]
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format: ``p edge n m`` then 1-based ``e u v`` lines."""
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError(f"bad problem line {_quote(raw)}", line=lineno)
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise ParseError("non-integer size in problem line", line=lineno) from None
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line=lineno)
            if len(parts) != 3:
                raise ParseError(f"bad edge line {_quote(raw)}", line=lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer endpoint", line=lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range in {_quote(raw)}", line=lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown record {_quote(parts[0])}", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    return Graph(n, edges)


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_json(text: str) -> Graph:
    """Parse ``{"n": int, "edges": [[u, v], ...], "labels": [...]}``; the
    last two are optional, and booleans are not integers here."""
    try:
        data = json.loads(text)
    # ValueError also covers an integer too long to convert
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data:
        raise ParseError("expected an object with an 'n' field")
    n = data["n"]
    edges = data.get("edges", [])
    labels = data.get("labels")
    if type(n) is not int or not isinstance(edges, list):
        raise ParseError("'n' must be an integer and 'edges' a list")
    if labels is not None and not isinstance(labels, list):
        raise ParseError("'labels' must be a list")
    pairs = []
    for item in edges:
        if not (isinstance(item, list) and len(item) == 2) or any(
            type(x) is not int for x in item
        ):
            raise ParseError(f"bad edge entry {_quote(json.dumps(item))}")
        pairs.append((item[0], item[1]))
    return Graph(n, pairs, labels=labels)


def to_json(g: Graph) -> str:
    data: dict = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        data["labels"] = list(g.labels)
    return json.dumps(data, sort_keys=True)


def sniff(text: str) -> Graph:
    """Parse text in any supported format, keyed on its first character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    if stripped.startswith(("p", "c", "e")):
        return from_dimacs(text)
    return from_edge_list(text)


# ---------------------------------------------------------------------------
# derived graphs

def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced on ``vertices``.

    Returns the new graph together with the remap table: entry ``i`` is the
    old id of new vertex ``i``.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not (0 <= v < g.n):
            raise ValidationError(f"vertex {v} not in graph of order {g.n}")
    index = {old: new for new, old in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph(len(keep), edges), tuple(keep)


def contract_components(
    g: Graph, partition: Sequence[Iterable[int]]
) -> tuple[Graph, tuple[int, ...]]:
    """Contract each part of a vertex partition to a single vertex.

    Loops and parallel edges produced by the identification are dropped, so
    the quotient is again simple.  Parts must be disjoint and cover every
    vertex; whether each part is connected in whatever auxiliary graph the
    caller cares about is the caller's responsibility.  Returns the quotient
    and the projection table old id -> part index.
    """
    proj = [-1] * g.n
    for i, part in enumerate(partition):
        part = list(part)
        if not part:
            raise ValidationError(f"part {i} is empty")
        for v in part:
            if not (0 <= v < g.n):
                raise ValidationError(f"vertex {v} not in graph of order {g.n}")
            if proj[v] != -1:
                raise ValidationError(f"vertex {v} appears in two parts")
            proj[v] = i
    if any(p == -1 for p in proj):
        missing = [v for v in range(g.n) if proj[v] == -1]
        raise ValidationError(f"partition misses vertices {missing[:5]}")
    k = len(partition)
    edges = {
        (min(proj[u], proj[v]), max(proj[u], proj[v]))
        for u, v in g.edges()
        if proj[u] != proj[v]
    }
    return Graph(k, sorted(edges)), tuple(proj)


# ---------------------------------------------------------------------------
# connectivity helpers

def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbours(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def blocks(g: Graph) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Blocks (biconnected components) with an edge, each as (sorted
    vertices, edges as sorted pairs).  Hopcroft and Tarjan's edge stack, on
    an explicit stack of (vertex, parent, neighbour iterator, edge-stack
    height at its tree edge) frames, so a long path needs no recursion."""
    disc = [0] * g.n  # discovery times, counted from 1; 0 is unvisited
    low = [0] * g.n
    out = []
    clock = 0
    for s in range(g.n):
        if disc[s]:
            continue
        clock += 1
        disc[s] = low[s] = clock
        edges: list[tuple[int, int]] = []
        stack = [(s, -1, iter(g.neighbours(s)), 0)]
        while stack:
            u, parent, rest, mark = stack[-1]
            for v in rest:
                if not disc[v]:
                    clock += 1
                    disc[v] = low[v] = clock
                    stack.append((v, u, iter(g.neighbours(v)), len(edges)))
                    edges.append((u, v))
                    break
                if v != parent and disc[v] < disc[u]:
                    edges.append((u, v))
                    low[u] = min(low[u], disc[v])
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    block = [(min(a, b), max(a, b)) for a, b in edges[mark:]]
                    del edges[mark:]
                    out.append((sorted({x for e in block for x in e}), block))
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def bits_of(mask: int) -> list[int]:
    """Set bit positions of a mask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def component_mask(masks: Sequence[int], inside: int, start_bit: int) -> int:
    """Bitmask of the connected component of ``start_bit`` within ``inside``."""
    comp = start_bit
    frontier = start_bit
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        grow = masks[v] & inside & ~comp
        comp |= grow
        frontier |= grow
    return comp

