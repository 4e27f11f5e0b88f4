"""Shared hypothesis strategies for the test suite."""

from hypothesis import strategies as st

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
