from hypothesis import given, settings
from hypothesis import strategies as st

from defekt.matching import max_bipartite_matching

from oracles import matching_by_recursion


@st.composite
def bipartite(draw):
    num_left = draw(st.integers(0, 10))
    num_right = draw(st.integers(0, 10))
    right = st.integers(0, num_right - 1) if num_right else st.nothing()
    cands = st.lists(right, unique=True)
    adj = draw(st.lists(cands, min_size=num_left, max_size=num_left))
    return num_left, num_right, adj


@settings(max_examples=300, deadline=None)
@given(bipartite())
def test_iterative_matching_equals_recursive(case):
    assert max_bipartite_matching(*case) == matching_by_recursion(*case)


def test_long_augmenting_path_needs_no_recursion():
    # left i takes right i + 1 first; the last left then shifts every
    # earlier one back to right i along a 5000-step alternating path
    n = 5000
    adj = [[i + 1, i] for i in range(n)] + [[n]]
    size, match_l, match_r = max_bipartite_matching(n + 1, n + 1, adj)
    assert size == n + 1
    assert match_l == list(range(n + 1))
    assert match_r == list(range(n + 1))
