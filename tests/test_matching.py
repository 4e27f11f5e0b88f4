from hypothesis import given, settings
from hypothesis import strategies as st

from defekt import gadgets
from defekt.graphs import bits_of
from defekt.matching import max_bipartite_matching
from defekt.structure import find_kst_star

from oracles import matching_by_recursion


@st.composite
def bipartite(draw):
    num_right = draw(st.integers(0, 10))
    cands = st.integers(0, (1 << num_right) - 1)
    return num_right, draw(st.lists(cands, max_size=10))


@settings(max_examples=300, deadline=None)
@given(bipartite())
def test_iterative_matching_equals_recursive(case):
    num_right, cands = case
    size, match_l, _ = matching_by_recursion(
        len(cands), num_right, [bits_of(c) for c in cands]
    )
    assert max_bipartite_matching(cands) == (size, match_l)


def test_long_augmenting_path_needs_no_recursion():
    # left i < n takes right i; the last left, with only right 0, then
    # shifts every earlier one up to right i + 1 along a 5000-step path
    n = 5000
    cands = [0b11 << i for i in range(n)] + [1]
    size, match = max_bipartite_matching(cands)
    assert size == n + 1
    assert match == list(range(1, n + 1)) + [0]


def test_kst_star_with_many_shared_slots():
    # 700 outer slots share the 1500 leaves of one centre
    emb = find_kst_star(gadgets.star(1500), 1, 700)
    assert emb.centres == (0,)
    assert emb.outer == tuple(range(1, 701))
    assert emb.pair_vertices == ()
