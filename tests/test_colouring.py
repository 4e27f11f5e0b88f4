"""Colouring procedures against frozen oracle values and verification.

The expected booleans in the frozen tests were computed once with the
exhaustive checkers in this module and are kept as regression constants.
"""

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import find, given, settings, strategies as st

from defekt import colouring, corpus, gadgets
from defekt.colouring import (
    PeelTrace,
    RemoveEdge,
    RemoveVertex,
    build_peel_trace,
    colour_kell,
    colour_tree_free,
    defective_list_colour,
    edge_partition_forest_bounded,
    is_kd_colourable_bruteforce,
    validate_minor_model,
    validate_tree_embedding,
    verify_defective,
)
from defekt.density import degeneracy
from defekt.errors import (
    CapExceededError,
    StructuralError,
    ValidationError,
)
from defekt.graphs import Graph
from defekt.structure import MinorModel, find_kst_star

from helpers import graphs
from oracles import (
    choosability_check_bounded_palette,
    colour_tree_free_by_residues,
    list_colour_by_recheck,
    partition_by_room_check,
    peel_by_rescan,
    replay_forward_check,
)


def test_verify_defective_counts():
    g = gadgets.cycle(4)
    ok, violations = verify_defective(g, (1, 1, 1, 1), 1)
    assert not ok
    assert violations == ((0, 2), (1, 2), (2, 2), (3, 2))
    ok, _ = verify_defective(g, (1, 1, 1, 1), 2)
    assert ok
    ok, _ = verify_defective(g, (1, 2, 1, 2), 0)
    assert ok


def test_verify_defective_validation():
    g = gadgets.path(3)
    with pytest.raises(ValidationError):
        verify_defective(g, (1, 2), 1)
    with pytest.raises(ValidationError):
        verify_defective(g, (1, 2, 3), -1)


def test_peel_trace_vertex_rule_eats_trees():
    t = gadgets.complete_binary_tree(3)
    trace = build_peel_trace(t, 1, 1)
    assert len(trace.steps) == t.n
    assert all(step.kind == "remove-vertex" for step in trace.steps)


def test_peel_trace_edge_rule_on_cycles():
    trace = build_peel_trace(gadgets.cycle(6), 1, 2)
    kinds = {step.kind for step in trace.steps}
    assert "remove-edge" in kinds


def test_peel_trace_stuck_carries_witness():
    with pytest.raises(StructuralError) as err:
        build_peel_trace(gadgets.complete(4), 1, 2)
    stuck = err.value.witness
    assert isinstance(stuck, Graph)
    assert stuck.n == 4 and stuck.m == 6


def _outcome(f, *args):
    try:
        return f(*args), None
    except StructuralError as err:
        return None, (str(err), err.witness)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=11), st.integers(0, 4), st.integers(0, 7))
def test_peel_heaps_match_rescan_oracle(g, vertex_limit, edge_limit):
    fast = _outcome(build_peel_trace, g, vertex_limit, edge_limit)
    assert fast == _outcome(peel_by_rescan, g, vertex_limit, edge_limit)
    if fast[0] is not None:
        assert replay_forward_check(g, fast[0])


LARGER_PEELS = [
    (corpus.apollonian(400, 4), 3, 40),
    (corpus.apollonian(400, 5), 2, 7),
    (corpus.apollonian(400, 5), 1, 9),  # stuck after 210 vertices go
    (corpus.planar_girth_5(100, 6), 1, 7),
    (corpus.gnp(60, 0.2, 7), 1, 2),  # stuck at once
    (corpus.gnp(60, 0.1, 8), 2, 6),
    (corpus.random_tree(300, 9), 1, 1),
]


@pytest.mark.parametrize("g, vertex_limit, edge_limit", LARGER_PEELS)
def test_peel_heaps_match_rescan_oracle_on_larger_graphs(g, vertex_limit, edge_limit):
    fast = _outcome(build_peel_trace, g, vertex_limit, edge_limit)
    assert fast == _outcome(peel_by_rescan, g, vertex_limit, edge_limit)


# edge (0, 1) of the 4-cycle goes while both its ends have degree 2
C4_CUT_FIRST = (
    RemoveEdge((0, 1)), RemoveVertex(0, (3,)), RemoveVertex(1, (2,)),
    RemoveVertex(2, (3,)), RemoveVertex(3, ()),
)


@pytest.mark.parametrize(
    "g, good, bad, steps",
    [
        # vertex 1 goes with two live neighbours
        (gadgets.path(3), (2, 2), (1, 2),
         (RemoveVertex(1, (0, 2)), RemoveVertex(0, ()), RemoveVertex(2, ()))),
        (gadgets.cycle(4), (1, 2), (1, 1), C4_CUT_FIRST),
        (gadgets.cycle(4), (1, 2), (2, 2), C4_CUT_FIRST),
    ],
    ids=["vertex-over-limit", "edge-end-over-edge-limit", "edge-end-at-vertex-limit"],
)
def test_replay_check_rejects_a_step_over_its_threshold(g, good, bad, steps):
    assert replay_forward_check(g, PeelTrace(*good, steps))
    assert not replay_forward_check(g, PeelTrace(*bad, steps))


@pytest.mark.parametrize(
    "peel",
    [
        degeneracy,
        lambda g: build_peel_trace(g, 3, 9),
        lambda g: defective_list_colour(g, [(1, 2, 3, 4)] * g.n, 3, 9),
    ],
    ids=["degeneracy", "trace", "list-colour"],
)
def test_peels_copy_no_adjacency(peel, monkeypatch):
    # counters over the frozen graph peak at about 3.5 MiB here; a list of
    # n mutable neighbour sets took it past 8 MiB.  The replay check that
    # every trace gets builds such sets, so it runs after the measurement.
    traces = []

    def recorded(g, vertex_limit, edge_limit):
        traces.append(build_peel_trace(g, vertex_limit, edge_limit))
        return traces[-1]

    monkeypatch.setattr(colouring, "build_peel_trace", recorded)
    g = corpus.apollonian(16000, 1)
    tracemalloc.start()
    try:
        peel(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert all(replay_forward_check(g, trace) for trace in traces)


def _kst_star_found(g):
    return find_kst_star(g, 2, 1) is not None


def _triangle_model_problems(g):
    model = MinorModel(((0,), (1,), tuple(range(2, g.n))))
    return validate_minor_model(g, gadgets.complete(3), model)


@pytest.mark.parametrize(
    "check, expected",
    [(_kst_star_found, True), (_triangle_model_problems, [])],
    ids=["kst-star", "minor-model"],
)
def test_certificate_paths_build_no_masks(check, expected):
    # one n-bit neighbour mask per vertex takes about 22 MiB here.  A fresh
    # host per case, so that nothing one case left on it helps the other.
    g = corpus.apollonian(16000, 1)
    tracemalloc.start()
    try:
        assert check(g) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_list_colour_on_trees_is_proper():
    for seed in range(10):
        t = corpus.random_tree(12, seed)
        lists = [(seed + v, seed + v + 1) for v in range(12)]
        colours = defective_list_colour(t, lists, 1, 1)
        ok, _ = verify_defective(t, colours, 0)
        assert ok
        assert all(colours[v] in lists[v] for v in t.vertices())


@settings(max_examples=50, deadline=None)
@given(graphs(max_n=10), st.integers(0, 5))
def test_list_colour_defect_respects_bound(g, salt):
    k, ell = 1 + salt % 2, 2 + salt % 3
    if k > ell:
        k = ell
    rng = random.Random(salt * 31 + g.n)
    lists = [
        tuple(rng.sample(range(1, 10), k + 1)) for _ in g.vertices()
    ]
    try:
        colours = defective_list_colour(g, lists, k, ell)
    except StructuralError:
        return  # peel hypothesis fails for this graph; nothing promised
    ok, _ = verify_defective(g, colours, ell - k)
    assert ok
    assert all(colours[v] in lists[v] for v in g.vertices())


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10), st.integers(1, 3), st.integers(0, 4), st.randoms())
def test_replays_match_recheck_oracles(g, k, slack, rng):
    ell = k + slack
    lists = [tuple(rng.sample(range(1, k + 4), k + 1)) for _ in g.vertices()]
    assert _outcome(defective_list_colour, g, lists, k, ell) == _outcome(
        list_colour_by_recheck, g, lists, k, ell
    )
    assert _outcome(edge_partition_forest_bounded, g, ell) == _outcome(
        partition_by_room_check, g, ell
    )


@pytest.mark.parametrize("g, vertex_limit, edge_limit", LARGER_PEELS)
def test_replays_match_recheck_oracles_on_larger_graphs(g, vertex_limit, edge_limit):
    rng = random.Random(g.n + edge_limit)
    k = vertex_limit
    lists = [tuple(rng.sample(range(1, k + 4), k + 1)) for _ in g.vertices()]
    assert _outcome(defective_list_colour, g, lists, k, edge_limit) == _outcome(
        list_colour_by_recheck, g, lists, k, edge_limit
    )
    assert _outcome(edge_partition_forest_bounded, g, edge_limit) == _outcome(
        partition_by_room_check, g, edge_limit
    )


def test_list_colour_validation():
    g = gadgets.path(3)
    with pytest.raises(ValidationError):
        defective_list_colour(g, [(1, 2)] * 3, 2, 1)
    with pytest.raises(ValidationError):
        defective_list_colour(g, [(1, 2)] * 2, 1, 1)
    with pytest.raises(ValidationError):
        defective_list_colour(g, [(1, 2, 3)] * 3, 1, 1)
    with pytest.raises(ValidationError):
        defective_list_colour(g, [(1, 1)] * 3, 1, 1)


def test_kd_bruteforce_frozen_small_cases():
    c5, k4 = gadgets.cycle(5), gadgets.complete(4)
    assert is_kd_colourable_bruteforce(c5, 2, 0)[0] is False
    assert is_kd_colourable_bruteforce(c5, 2, 1)[0] is True
    assert is_kd_colourable_bruteforce(k4, 2, 0)[0] is False
    assert is_kd_colourable_bruteforce(k4, 2, 1)[0] is True
    assert is_kd_colourable_bruteforce(gadgets.star(3), 1, 2)[0] is False
    assert is_kd_colourable_bruteforce(gadgets.star(3), 1, 3)[0] is True


def test_kd_bruteforce_frozen_petersen():
    pet = gadgets.petersen()
    assert is_kd_colourable_bruteforce(pet, 3, 0)[0] is True
    assert is_kd_colourable_bruteforce(pet, 2, 1)[0] is True


def test_kd_bruteforce_witness_is_checked():
    ok, colours = is_kd_colourable_bruteforce(gadgets.cycle(5), 2, 1)
    assert ok
    valid, _ = verify_defective(gadgets.cycle(5), colours, 1)
    assert valid


def test_kd_bruteforce_caps():
    with pytest.raises(CapExceededError):
        is_kd_colourable_bruteforce(gadgets.cycle(19), 2, 1)
    with pytest.raises(CapExceededError):
        is_kd_colourable_bruteforce(gadgets.cycle(13), 3, 1)


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=0, max_n=7), st.integers(1, 3), st.integers(0, 2))
def test_kd_bruteforce_matches_plain_enumeration(g, k, d):
    expected = any(verify_defective(g, colours, d)[0]
                   for colours in product(range(k), repeat=g.n))
    ok, colours = is_kd_colourable_bruteforce(g, k, d)
    assert ok is expected
    if ok:
        assert len(colours) == g.n and set(colours) <= set(range(k))
        assert verify_defective(g, colours, d)[0]
    else:
        assert colours is None


def test_choosability_frozen_star():
    # the plain checker accepts (1, 3) but no 2-colour lists survive at
    # defect 2: adversarial lists pin the centre
    k13 = gadgets.star(3)
    assert choosability_check_bounded_palette(k13, 1, 2, 2) is False
    assert choosability_check_bounded_palette(k13, 1, 3, 2) is True


def test_choosability_frozen_odd_cycle():
    c5 = gadgets.cycle(5)
    assert choosability_check_bounded_palette(c5, 2, 0, 3) is False
    assert choosability_check_bounded_palette(c5, 2, 0, 4) is False
    assert choosability_check_bounded_palette(c5, 2, 1, 3) is True


def test_choosability_palette_validation():
    g = gadgets.path(3)
    with pytest.raises(ValidationError):
        choosability_check_bounded_palette(g, 2, 0, 1)
    with pytest.raises(ValidationError):
        choosability_check_bounded_palette(g, 2, 0, 5)


def test_tree_free_low_degree_host_gets_colours():
    out = colour_tree_free(gadgets.cycle(6), gadgets.star(3))
    assert out.num_colours == 1
    assert out.defect_bound == 2
    assert out.colours is not None
    ok, _ = verify_defective(gadgets.cycle(6), out.colours, 2)
    assert ok


def test_tree_free_dense_host_yields_embedding():
    host = gadgets.wheel(5)
    t = gadgets.star(3)
    out = colour_tree_free(host, t)
    assert out.embedding is not None
    assert validate_tree_embedding(host, t, out.embedding) == []


def test_tree_free_deep_tree_embeds_in_clique():
    host = gadgets.complete(7)
    t = gadgets.complete_binary_tree(2)
    out = colour_tree_free(host, t)
    assert out.num_colours == 2
    if out.colours is not None:
        ok, _ = verify_defective(host, out.colours, 5)
        assert ok
    else:
        assert validate_tree_embedding(host, t, out.embedding) == []


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=9), st.sampled_from(["path", "star", "binary"]))
def test_tree_free_always_one_of_two_outcomes(g, shape):
    t = {
        "path": gadgets.path(3),
        "star": gadgets.star(3),
        "binary": gadgets.complete_binary_tree(2),
    }[shape]
    out = colour_tree_free(g, t)
    if out.colours is not None:
        ok, _ = verify_defective(g, out.colours, out.defect_bound)
        assert ok
    else:
        assert validate_tree_embedding(g, t, out.embedding) == []


def test_tree_free_validation():
    with pytest.raises(ValidationError):
        colour_tree_free(gadgets.cycle(4), gadgets.cycle(3))
    with pytest.raises(ValidationError):
        colour_tree_free(gadgets.cycle(4), Graph(1))


@st.composite
def hosts_and_trees(draw):
    """A G(n, p) host on at most 40 vertices and a relabelled random tree
    on 2 to 9 vertices."""
    host = corpus.gnp(
        draw(st.integers(0, 40)),
        draw(st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.8])),
        draw(st.integers(0, 2**16)),
    )
    tree = corpus.random_tree(draw(st.integers(2, 9)), draw(st.integers(0, 2**16)))
    perm = draw(st.permutations(range(tree.n)))
    return host, Graph(tree.n, [(perm[u], perm[v]) for u, v in tree.edges()])


@settings(max_examples=300, deadline=None)
@given(hosts_and_trees())
def test_tree_free_matches_residue_oracle(pair):
    assert colour_tree_free(*pair) == colour_tree_free_by_residues(*pair)


@pytest.mark.parametrize("outcome", ["colours", "embedding"])
def test_tree_free_pairs_reach_both_outcomes(outcome):
    find(
        hosts_and_trees(),
        lambda pair: getattr(colour_tree_free(*pair), outcome) is not None,
        settings=settings(database=None, deadline=None),
    )


def union_find_is_forest(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=10), st.integers(3, 6))
def test_partition_postconditions(g, limit):
    try:
        forest, bounded = edge_partition_forest_bounded(g, limit)
    except StructuralError:
        return
    assert sorted(forest + bounded) == sorted(g.edges())
    assert union_find_is_forest(g.n, forest)
    degree = [0] * g.n
    for u, v in bounded:
        degree[u] += 1
        degree[v] += 1
    assert max(degree, default=0) <= limit - 1


def test_partition_stuck_on_cliques():
    with pytest.raises(StructuralError):
        edge_partition_forest_bounded(gadgets.complete(5), 3)


def test_kell_frozen_cycle_pipeline():
    res = colour_kell(gadgets.cycle(6), 2, 1)
    assert res.kind == "colouring"
    assert res.defect_bound == 4
    assert res.diagnostics["threshold"] == 12
    assert res.diagnostics["excluded_biclique_size"] == 48
    assert res.diagnostics["edge_threshold"] == 2
    ok, _ = verify_defective(gadgets.cycle(6), res.colours, 4)
    assert ok


def test_kell_finds_the_pattern_in_itself():
    pattern = gadgets.gen_kell_H(2, 1)
    res = colour_kell(pattern, 2, 1)
    assert res.kind == "minor"
    assert validate_minor_model(pattern, pattern, res.minor_model) == []


def test_kell_dense_host_skips_the_screen_but_still_colours():
    res = colour_kell(gadgets.complete(5), 2, 1)
    assert res.kind == "colouring"
    ok, _ = verify_defective(gadgets.complete(5), res.colours, res.defect_bound)
    assert ok


def test_kell_aux_hub_yields_a_checked_model():
    # n = 15 is above minor_host, so the exact screen is skipped; the three
    # vertices on the small side share 12 = r neighbours pairwise
    g = gadgets.complete_bipartite(3, 12)
    res = colour_kell(g, 2, 1)
    assert res.kind == "minor"
    assert res.diagnostics["source"] == "aux-hub"
    assert res.minor_model.branch_sets == ((0,), (1, 3), (4,), (2, 5), (6,))
    assert validate_minor_model(g, gadgets.gen_kell_H(2, 1), res.minor_model) == []


def test_kell_edgeless_quotient_takes_one_colour():
    res = colour_kell(Graph(5), 2, 1)
    assert res.kind == "colouring"
    assert res.colours == (1,) * 5
    assert res.diagnostics["quotient_defect"] == 0
    assert res.defect_bound == 3


def test_kell_worst_case_density_fallback():
    g = corpus.sparse_pattern_free(25, 99)
    res = colour_kell(g, 2, 1)
    assert res.kind == "colouring"
    assert res.diagnostics["density_source"] == "worst-case"
    ok, _ = verify_defective(g, res.colours, res.defect_bound)
    assert ok


def test_kell_validation():
    with pytest.raises(ValidationError):
        colour_kell(gadgets.cycle(5), 1, 1)
    with pytest.raises(ValidationError):
        colour_kell(gadgets.cycle(5), 2, 0)
