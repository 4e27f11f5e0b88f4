import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt import gadgets
from defekt.errors import ParseError, ValidationError
from defekt.graphs import (
    Graph,
    bits_of,
    blocks,
    connected_components,
    contract_components,
    from_dimacs,
    from_edge_list,
    from_json,
    induced_subgraph,
    is_tree,
    sniff,
    to_dimacs,
    to_edge_list,
    to_json,
)

from helpers import glued_graphs, graphs, is_isomorphic


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.neighbours(0) == (1,)


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        Graph(2, [(1, 1)])


def test_out_of_range_edge_rejected():
    with pytest.raises(ValidationError):
        Graph(2, [(0, 2)])


def test_masks_match_adjacency():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for v in g.vertices():
        assert g.masks[v].bit_count() == g.degree(v)
        for u in g.neighbours(v):
            assert g.masks[v] >> u & 1


@given(graphs())
def test_edge_list_round_trip(g):
    assert from_edge_list(to_edge_list(g)) == g


@given(graphs())
def test_dimacs_round_trip(g):
    assert from_dimacs(to_dimacs(g)) == g


@given(graphs())
def test_json_round_trip(g):
    assert from_json(to_json(g)) == g


@given(graphs())
def test_sniff_recognises_all_three(g):
    assert sniff(to_edge_list(g)) == g
    assert sniff(to_dimacs(g)) == g
    assert sniff(to_json(g)) == g


def test_headerless_edge_list():
    # "0 1" cannot be a header (n would be 0), so it is an edge
    g = from_edge_list("0 1\n")
    assert (g.n, g.m) == (2, 1)


def test_header_fixes_isolated_vertices():
    g = from_edge_list("4 1\n0 1\n")
    assert (g.n, g.m) == (4, 1)


def test_inconsistent_header_is_data():
    # first line fails the header test (edge count mismatch), so every
    # line is an edge and vertex 3 sets the size
    g = from_edge_list("3 2\n0 1\n")
    assert (g.n, g.m) == (4, 2)


def test_edge_list_errors():
    with pytest.raises(ParseError):
        from_edge_list("0 a\n")
    with pytest.raises(ParseError):
        from_edge_list("1 2 3\n")
    with pytest.raises(ParseError):
        from_edge_list("-1 2\n")


def test_comments_and_blank_lines_ignored():
    g = from_edge_list("# a triangle\n\n0 1\n1 2 # last\n0 2\n")
    assert (g.n, g.m) == (3, 3)


def test_dimacs_is_one_based():
    g = from_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_json_errors():
    with pytest.raises(ParseError):
        from_json("[1, 2]")
    with pytest.raises(ParseError):
        from_json('{"edges": []}')
    with pytest.raises(ParseError):
        from_json('{"n": 2, "edges": [[0]]}')


def test_induced_subgraph_remaps():
    g = Graph(5, [(0, 2), (2, 4), (4, 0), (1, 3)])
    sub, remap = induced_subgraph(g, [0, 2, 4])
    assert sub.n == 3 and sub.m == 3
    assert set(remap) == {0, 2, 4}


def test_contract_components_quotient():
    # two triangles joined by one edge contract to a single edge
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    q, proj = contract_components(g, [[0, 1, 2], [3, 4, 5]])
    assert (q.n, q.m) == (2, 1)
    assert proj[0] == proj[1] == proj[2]
    assert proj[3] == proj[4] == proj[5] != proj[0]


def test_connected_components_partition():
    g = Graph(5, [(0, 1), (2, 3)])
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]


def _as_multiset(parts):
    return sorted(sorted(tuple(sorted(e)) for e in es) for es in parts)


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(max_n=12), glued_graphs(max_n=12)))
def test_blocks_match_networkx(g):
    nx = pytest.importorskip("networkx")
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices())
    ng.add_edges_from(g.edges())
    found = blocks(g)
    assert all(vs == sorted({x for e in es for x in e}) for vs, es in found)
    assert _as_multiset(es for _, es in found) == _as_multiset(
        nx.biconnected_component_edges(ng)
    )


def test_blocks_of_a_long_path_need_no_recursion():
    found = blocks(gadgets.path(20_000))
    assert len(found) == 19_999
    assert all(len(vs) == 2 and es == [tuple(vs)] for vs, es in found)


def test_is_tree():
    assert is_tree(Graph(3, [(0, 1), (1, 2)]))
    assert not is_tree(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_tree(Graph(4, [(0, 1), (2, 3)]))


def test_isomorphism_positive_and_negative():
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    shuffled = Graph(6, [(2, 5), (5, 1), (1, 4), (4, 0), (0, 3), (3, 2)])
    p6 = Graph(6, [(i, i + 1) for i in range(5)])
    assert is_isomorphic(c6, shuffled)
    assert not is_isomorphic(c6, p6)


def test_bits_of():
    assert bits_of(0b10110) == [1, 2, 4]
    assert bits_of(0) == []
