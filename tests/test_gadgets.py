from math import comb

import pytest
from hypothesis import given, strategies as st

from defekt import corpus, gadgets
from defekt.errors import CapExceededError, ValidationError
from defekt.graphs import is_tree

from helpers import is_isomorphic, tree_closure


def test_basic_shapes():
    assert (gadgets.path(5).n, gadgets.path(5).m) == (5, 4)
    assert (gadgets.cycle(5).n, gadgets.cycle(5).m) == (5, 5)
    assert gadgets.complete(6).m == 15
    assert gadgets.complete_bipartite(3, 4).m == 12
    assert gadgets.star(7).m == 7
    assert (gadgets.wheel(5).n, gadgets.wheel(5).m) == (6, 10)


def test_named_cubic_graphs():
    for g, n in ((gadgets.petersen(), 10), (gadgets.dodecahedron(), 20)):
        assert g.n == n
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert len(corpus.shortest_cycle(g)) == 5


def test_gsn_order_recurrence():
    # level 2 is a star on N+2 vertices; each level above is an apex over
    # N+1 copies of the one below
    for s in range(2, 7):
        for big_n in range(1, 4):
            expect = big_n + 2
            for _ in range(s - 2):
                expect = 1 + (big_n + 1) * expect
            assert gadgets.gsn_order(s, big_n) == expect
    with pytest.raises(ValidationError):
        gadgets.gsn_order(1, 2)


def test_gsn_level_two_is_a_star():
    assert is_isomorphic(gadgets.gen_gsn(2, 3), gadgets.star(4))


@given(st.integers(2, 3), st.integers(1, 2))
def test_gsn_is_the_ancestor_closure_of_a_uniform_tree(s, big_n):
    """The recursion (apex over N+1 copies) flattens to the closure of the
    (N+1)-ary tree of depth s-1."""
    g = gadgets.gen_gsn(s, big_n)

    edges = []
    level = [0]
    nxt = 1
    for _ in range(s - 1):
        fresh = []
        for parent in level:
            for _ in range(big_n + 1):
                edges.append((parent, nxt))
                fresh.append(nxt)
                nxt += 1
        level = fresh
    from defekt.graphs import Graph

    tree = Graph(nxt, edges)
    assert is_isomorphic(g, tree_closure(tree, 0))


def test_gsn_min_degree_is_s_minus_one():
    assert gadgets.gen_gsn(2, 2).min_degree() == 1
    assert gadgets.gen_gsn(3, 2).min_degree() == 2


def test_kst_star_counts():
    for s, t in ((2, 1), (2, 3), (3, 2)):
        g = gadgets.gen_kst_star(s, t)
        assert g.n == s + t + comb(s, 2)
        assert g.m == s * t + 2 * comb(s, 2)


def test_kst_star_two_one_is_a_four_cycle():
    assert is_isomorphic(gadgets.gen_kst_star(2, 1), gadgets.cycle(4))


def test_kell_pattern_shape():
    for ell, k in ((2, 1), (3, 2), (4, 1)):
        g = gadgets.gen_kell_H(ell, k)
        assert g.n == 1 + ell * (k + 1)
        assert g.m == ell * (2 * k + 1)
        assert g.degree(0) == g.n - 1
        rest = sorted(g.degree(v) for v in range(1, g.n))
        # ell star centres of degree k+1, ell*k leaves of degree 2
        assert rest == sorted([k + 1] * ell + [2] * (ell * k))

    with pytest.raises(ValidationError):
        gadgets.gen_kell_H(0, 1)
    with pytest.raises(ValidationError):
        gadgets.gen_kell_H(2, 0)


def test_complete_binary_tree():
    for radius in range(4):
        t = gadgets.complete_binary_tree(radius)
        assert t.n == 2 ** (radius + 1) - 1
        assert is_tree(t)


def test_gadget_size_cap():
    with pytest.raises(CapExceededError):
        gadgets.gen_gsn(12, 3)


# each generator with arguments whose order is exactly 10, and with the
# smallest change that makes it 11 or more; the three families with
# quadratically many edges are built at the largest size whose edge count
# also fits the cap (see QUADRATIC below)
AT_TEN_AND_OVER = [
    (gadgets.path, (10,), (11,)),
    (gadgets.cycle, (10,), (11,)),
    (gadgets.complete, (5,), (11,)),
    (gadgets.complete_bipartite, (2, 5), (5, 6)),
    (gadgets.star, (9,), (10,)),
    (gadgets.wheel, (9,), (10,)),
    (gadgets.gen_gsn, (2, 8), (2, 9)),
    (gadgets.gen_kst_star, (2, 4), (3, 5)),
    (gadgets.gen_kell_H, (3, 2), (2, 4)),
    (gadgets.complete_binary_tree, (2,), (3,)),
]


@pytest.mark.parametrize(
    "fn, at_cap, over_cap", AT_TEN_AND_OVER, ids=[f.__name__ for f, _, _ in AT_TEN_AND_OVER]
)
def test_every_generator_checks_its_order(monkeypatch, fn, at_cap, over_cap):
    monkeypatch.setenv("DEFEKT_CAPS", '{"gadget_vertices": 10}')
    assert fn(*at_cap).n <= 10
    with pytest.raises(CapExceededError, match="would have 1[1-9] vertices, cap is 10"):
        fn(*over_cap)


# the families whose edge count grows quadratically in their order, with
# arguments of at most 10 vertices and exactly 10 edges, and with arguments
# of at most 10 vertices but more than 10 edges
QUADRATIC = [
    (gadgets.complete, (5,), (6,)),
    (gadgets.complete_bipartite, (2, 5), (3, 4)),
    (gadgets.gen_kst_star, (2, 4), (3, 2)),
]


@pytest.mark.parametrize(
    "fn, at_cap, over_cap", QUADRATIC, ids=[f.__name__ for f, _, _ in QUADRATIC]
)
def test_quadratic_generators_check_their_edges(monkeypatch, fn, at_cap, over_cap):
    monkeypatch.setenv("DEFEKT_CAPS", '{"gadget_vertices": 10}')
    assert fn(*at_cap).m == 10
    with pytest.raises(CapExceededError, match="would have 1[1-9] edges, cap is 10"):
        fn(*over_cap)


def test_exponential_generators_refuse_huge_exponents():
    # refused from a clamped exponent, without forming 2**radius
    with pytest.raises(CapExceededError, match=r"would have over 2\*\*64 vertices"):
        gadgets.complete_binary_tree(10**30)
    with pytest.raises(CapExceededError, match=r"would have over 2\*\*\d+ vertices"):
        gadgets.gen_gsn(10**30, 1)
