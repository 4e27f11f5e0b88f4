from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt import corpus, gadgets
from defekt.density import (
    SubdivisionWitness,
    _denser_than,
    build_report,
    degeneracy,
    mad_exact,
    top_grad_half,
    validate_subdivision_witness,
)
from defekt.errors import ValidationError
from defekt.graphs import Graph, neighbour_masks
from defekt.wire import encode

from helpers import graphs, grid, ladder, nonempty_graphs, subdivided_graphs
from oracles import (
    degeneracy_by_min,
    denser_than_by_edge_network,
    mad_bruteforce,
    mad_by_bisection,
    mad_by_edge_network,
    top_grad_half_by_rescan,
)


def _densest_union(g):
    """Union of every vertex set of greatest density, by enumeration."""
    masks = neighbour_masks(g)
    edge_count = [0] * (1 << g.n)
    best, union = Fraction(-1), 0
    for mask in range(1, 1 << g.n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        edge_count[mask] = edge_count[rest] + (masks[low] & rest).bit_count()
        dens = Fraction(edge_count[mask], mask.bit_count())
        if dens > best:
            best, union = dens, mask
        elif dens == best:
            union |= mask
    return tuple(v for v in range(g.n) if union >> v & 1)


@settings(max_examples=60, deadline=None)
@given(nonempty_graphs(max_n=12))
def test_mad_exact_agrees_with_bruteforce(g):
    exact = mad_exact(g)
    assert exact[0] == mad_bruteforce(g)[0]
    # the witness is the maximum densest subgraph, as bisection also finds
    assert exact[1] == _densest_union(g)
    assert exact == mad_by_bisection(g)


@given(nonempty_graphs(max_n=8))
def test_degeneracy_at_most_floor_mad(g):
    k, order = degeneracy(g)
    mad, _ = mad_exact(g)
    assert k <= mad
    assert sorted(order) == list(g.vertices())


@pytest.mark.parametrize(
    "g",
    [
        corpus.apollonian(200, 1),
        corpus.planar_girth_5(100, 2),
        corpus.gnp(80, 0.08, 3),
        corpus.random_unicyclic(200, 4),
    ],
)
def test_mad_dinkelbach_matches_bisection_on_larger_graphs(g):
    assert mad_exact(g) == mad_by_bisection(g)


@settings(max_examples=100, deadline=None)
@given(nonempty_graphs(max_n=12), st.fractions(0, 6, max_denominator=40))
def test_vertex_network_matches_edge_network(g, lam):
    # the (n+2)-node network answers every density query as the edge-node
    # network does, so mad_exact keeps each Dinkelbach step and its witness
    assert _denser_than(g, lam) == denser_than_by_edge_network(g, lam)
    assert mad_exact(g) == mad_by_edge_network(g)


@pytest.mark.parametrize(
    "g",
    [
        corpus.apollonian(1000, 1),
        corpus.random_tree(500, 2),
        ladder(250),
        grid(50, 40),
        grid(50, 40, clique=8),
        corpus.gnp(300, 0.03, 6),
        corpus.random_unicyclic(400, 4),
        corpus.planar_girth_5(300, 2),
    ],
    ids=["apollonian", "tree", "ladder", "grid", "grid-k8", "gnp", "unicyclic", "girth-5"],
)
def test_mad_exact_matches_edge_network_on_fixed_graphs(g):
    assert mad_exact(g) == mad_by_edge_network(g)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=14))
def test_degeneracy_heap_matches_min_loop(g):
    assert degeneracy(g) == degeneracy_by_min(g)


def test_degeneracy_heap_matches_min_loop_on_larger_graphs():
    for g in (corpus.apollonian(1000, 5), corpus.gnp(300, 0.03, 6)):
        assert degeneracy(g) == degeneracy_by_min(g)


@pytest.mark.parametrize("n", [500, 2000, 4000])
def test_degeneracy_equals_networkx_max_core(n):
    nx = pytest.importorskip("networkx")
    g = corpus.apollonian(n, n)
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    assert degeneracy(g)[0] == max(nx.core_number(h).values())


def test_mad_known_values():
    assert mad_exact(gadgets.complete(5))[0] == 4
    assert mad_exact(gadgets.cycle(6))[0] == 2
    assert mad_exact(gadgets.petersen())[0] == 3
    tree = gadgets.path(9)
    assert mad_exact(tree)[0] == Fraction(16, 9)


def test_mad_edge_cases():
    with pytest.raises(ValidationError):
        mad_exact(Graph(0))
    assert mad_exact(Graph(3))[0] == 0


def naive_grad_half(g: Graph) -> Fraction:
    """Exhaustive reference for the densest (<=1)-subdivision preimage.

    For every branch set S, pairs already adjacent in the host are edges
    outright; the remaining pairs compete for distinct outside middle
    vertices, assigned by plain backtracking.
    """
    best = Fraction(0)

    def assign(pairs, used):
        if not pairs:
            return 0
        head, *rest = pairs
        u, v = head
        top = assign(rest, used)
        cands = set(g.neighbours(u)) & set(g.neighbours(v)) - used
        for w in cands:
            got = 1 + assign(rest, used | {w})
            top = max(top, got)
        return top

    for size in range(1, g.n + 1):
        for s in combinations(g.vertices(), size):
            inked = set(s)
            direct = sum(
                1 for u, v in combinations(s, 2) if g.has_edge(u, v)
            )
            missing = [
                (u, v) for u, v in combinations(s, 2) if not g.has_edge(u, v)
            ]
            extra = assign(missing, inked)
            best = max(best, Fraction(direct + extra, size))
    return best


@settings(max_examples=40, deadline=None)
@given(nonempty_graphs(max_n=6))
def test_top_grad_half_agrees_with_naive(g):
    value, witness, method = top_grad_half(g)
    assert method == "brute-force"
    assert value == naive_grad_half(g)
    assert validate_subdivision_witness(g, witness) == []


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
def test_top_grad_half_matches_plain_rescan(g):
    # the bounds cut only what cannot win, so value and method are the
    # unpruned search's; the routing may differ
    value, witness, method = top_grad_half(g)
    old_value, _, old_method = top_grad_half_by_rescan(g)
    assert (value, method) == (old_value, old_method)
    assert validate_subdivision_witness(g, witness) == []


@settings(max_examples=100, deadline=None)
@given(subdivided_graphs())
def test_top_grad_half_matches_plain_rescan_on_subdivisions(g):
    # the branch set of a connected subdivided base graph scores exactly
    # |S| - 1 + r, the cycle-rank bound, so a bound one too tight shows
    value, _, method = top_grad_half(g)
    assert (value, method) == top_grad_half_by_rescan(g)[::2]


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("family", ["tree", "unicyclic", "cycle"])
def test_top_grad_half_of_a_sparse_host_is_half_its_mad(family, n):
    # a set S scores at most |S| - 1 + r with r <= 1, which mad/2 already
    # meets, so the search ends at its root
    g = {
        "tree": lambda: corpus.random_tree(n, n),
        "unicyclic": lambda: corpus.random_unicyclic(n, n),
        "cycle": lambda: gadgets.cycle(n),
    }[family]()
    value, witness, method = top_grad_half(g)
    assert (value, method) == (mad_exact(g)[0] / 2, "brute-force")
    assert validate_subdivision_witness(g, witness) == []


# a triangle realised in K4 minus the edge (0, 2): its pair (0, 2) goes
# through the division vertex 3
WITNESS_HOST = Graph(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])
TRIANGLE = Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.mark.parametrize(
    "branch, paths, problems",
    [
        ((0, 1, 2), ((0, 1), (0, 3, 2), (1, 2)), []),
        ((0, 1), ((0, 1), (0, 3, 2), (1, 2)),
         ["branch table length differs from base order"]),
        ((0, 1, 1), ((0, 1), (0, 1), (1, 3, 1)), ["branch vertices repeat"]),
        ((0, 1, 2), ((0, 1), (0, 3, 2)), ["one path per base edge required"]),
        ((0, 1, 2), ((0,), (0, 3, 2), (1, 2)), ["path (0,) has bad length"]),
        ((0, 1, 2), ((0, 1), (1, 3, 2), (1, 2)),
         ["path (1, 3, 2) does not join branch vertices of (0,2)"]),
        ((0, 1, 2), ((0, 1), (0, 2), (1, 2)), ["missing host edge (0,2) on path (0, 2)"]),
        ((0, 1, 2), ((0, 1), (0, 1, 2), (1, 2)),
         ["division vertex 1 is also a branch vertex"]),
        ((0, 1, 2), ((0, 1), (0, 3, 2), (1, 3, 2)), ["division vertex 3 reused"]),
    ],
    ids=["sound", "branch-length", "branch-repeat", "path-count", "path-length",
         "path-ends", "host-edge", "division-is-branch", "division-reused"],
)
def test_validate_subdivision_witness_names_each_breakage(branch, paths, problems):
    witness = SubdivisionWitness(base=TRIANGLE, branch=branch, paths=paths)
    assert validate_subdivision_witness(WITNESS_HOST, witness) == problems


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
def test_top_grad_half_obeys_the_degree_sum_lemma(g):
    # a branch set S scores at most half its degree sum, so at most
    # |S| * max degree / 2
    assert 2 * top_grad_half(g)[0] <= g.max_degree()


def test_top_grad_known_values():
    assert top_grad_half(gadgets.complete(6))[0] == Fraction(5, 2)
    assert top_grad_half(gadgets.petersen())[0] == Fraction(3, 2)
    assert top_grad_half(gadgets.cycle(6))[0] == 1
    assert top_grad_half(gadgets.star(3))[0] == Fraction(3, 4)
    # the densest subgraph already scores 5 = max degree / 2, so the
    # degree-sum bound settles the search at its root (1.2 s without it)
    assert top_grad_half(gadgets.complete_bipartite(10, 10))[0] == 5


def test_top_grad_above_cap_degrades_to_lower_bound(monkeypatch):
    monkeypatch.setenv("DEFEKT_CAPS", '{"top_grad": 3}')
    g = gadgets.complete(6)
    value, witness, method = top_grad_half(g)
    assert method == "heuristic-lower-bound"
    assert value == Fraction(5, 2)
    assert validate_subdivision_witness(g, witness) == []


def test_report_payload_shape():
    payload = encode(build_report(gadgets.petersen()))
    assert payload == {
        "mad": "3",
        "mad_witness": list(range(10)),
        "degeneracy": 3,
        "top_grad_half": "3/2",
        "top_grad_method": "brute-force",
    }
