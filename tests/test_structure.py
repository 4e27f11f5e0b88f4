"""Structure searches against independent brute-force references."""

import json
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt import gadgets, structure
from defekt.colouring import build_peel_trace, colour_tree_free
from defekt.density import mad_exact, top_grad_half
from defekt.errors import CapExceededError, PreconditionRefutedError
from defekt.graphs import Graph, connected_components
from defekt.structure import (
    KstStarEmbedding,
    dichotomy_threshold,
    find_kst_star,
    find_light_edge,
    is_star_plus_isolated,
    minor_test_bruteforce,
    structural_dichotomy,
    tree_depth,
    validate_certificate,
    validate_kst_star,
    validate_minor_model,
    vertex_cover_number,
)
from defekt.wire import decode, encode

from helpers import glued_graphs, graphs, is_isomorphic, nonempty_graphs
from oracles import minor_test_by_plain_search


def test_find_light_edge():
    g = gadgets.cycle(5)
    assert find_light_edge(g, 2) is not None
    assert find_light_edge(g, 1) is None
    k4 = gadgets.complete(4)
    assert find_light_edge(k4, 3) == (0, 1)


def test_kst_star_detects_its_own_gadget():
    for s, t in ((2, 1), (2, 2), (3, 1)):
        g = gadgets.gen_kst_star(s, t)
        emb = find_kst_star(g, s, t)
        assert emb is not None
        assert validate_kst_star(g, emb, s, t) == []


def test_kst_star_absent_in_sparse_hosts():
    assert find_kst_star(gadgets.cycle(8), 2, 1) is None
    assert find_kst_star(gadgets.path(6), 2, 1) is None


def _peel_step(kind):
    trace = build_peel_trace(gadgets.complete(4), 1, 3)
    return next(step for step in trace.steps if step.kind == kind)


@pytest.mark.parametrize(
    "kind, make",
    [
        ("low-degree-vertex", lambda: structural_dichotomy(gadgets.path(3), 2, 2, 2, 2)),
        ("light-edge", lambda: structural_dichotomy(gadgets.cycle(5), 2, 2, 2, 2)),
        ("kst-star", lambda: find_kst_star(gadgets.gen_kst_star(3, 2), 3, 2)),
        ("minor-model",
         lambda: minor_test_bruteforce(gadgets.petersen(), gadgets.complete(5))),
        ("tree-embedding",
         lambda: colour_tree_free(gadgets.complete(4), gadgets.path(3)).embedding),
        ("remove-vertex", lambda: _peel_step("remove-vertex")),
        ("remove-edge", lambda: _peel_step("remove-edge")),
    ],
)
def test_certificate_payload_round_trip(kind, make):
    cert = make()
    assert cert.kind == kind
    payload = json.loads(json.dumps(encode(cert)))
    assert payload.pop("kind") == kind
    assert decode(type(cert), payload, kind) == cert


def test_validate_kst_star_catches_corruption():
    g = gadgets.gen_kst_star(2, 2)
    emb = find_kst_star(g, 2, 2)
    wrong = KstStarEmbedding(
        centres=emb.centres,
        outer=emb.outer,
        pair_vertices=tuple(
            (pair, emb.centres[0]) for pair, _ in emb.pair_vertices
        ),
    )
    assert validate_kst_star(g, wrong, 2, 2) != []


@settings(max_examples=60, deadline=None)
@given(nonempty_graphs(max_n=8))
def test_dichotomy_with_measured_densities_never_refutes(g):
    delta = mad_exact(g)[0]
    delta1 = 2 * top_grad_half(g)[0]
    s, t = 2, 2
    cert = structural_dichotomy(g, s, t, delta, delta1)
    ell = dichotomy_threshold(s, t, delta, delta1)
    assert validate_certificate(g, cert, s, t, ell) == []


def test_dichotomy_refutation_needs_false_densities():
    # claimed densities give threshold 2, useless against a 3-regular
    # graph, and girth 5 rules out the s=2, t=1 pattern (a four-cycle)
    g = gadgets.petersen()
    with pytest.raises(PreconditionRefutedError) as err:
        structural_dichotomy(g, 2, 1, 2, 1)
    assert err.value.witness is g


def naive_minor(g: Graph, h: Graph) -> bool:
    """Minor containment by enumerating all partial partitions.

    Every map V(g) -> V(h) or 'unused' is checked directly; hopeless for
    anything but toy sizes, which is the point.
    """
    for assignment in product(range(h.n + 1), repeat=g.n):
        sets = [[v for v in g.vertices() if assignment[v] == i] for i in range(h.n)]
        if any(not s for s in sets):
            continue
        ok = True
        for s in sets:
            sub = {v: [u for u in g.neighbours(v) if u in s] for v in s}
            seen = {s[0]}
            stack = [s[0]]
            while stack:
                for u in sub[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) != len(s):
                ok = False
                break
        if not ok:
            continue
        for a, b in h.edges():
            if not any(
                g.has_edge(u, v) for u in sets[a] for v in sets[b]
            ):
                ok = False
                break
        if ok:
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(nonempty_graphs(min_n=2, max_n=5), nonempty_graphs(min_n=2, max_n=3))
def test_minor_search_agrees_with_naive(g, h):
    model = minor_test_bruteforce(g, h)
    assert (model is not None) == naive_minor(g, h)
    if model is not None:
        assert validate_minor_model(g, h, model) == []


MINOR_PATTERNS = {
    "K4": gadgets.complete(4),
    "K33": gadgets.complete_bipartite(3, 3),
    "K5": gadgets.complete(5),
    "P3": gadgets.path(3),
    "C5+chord": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
}


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=11), st.sampled_from(sorted(MINOR_PATTERNS)))
def test_minor_search_matches_plain_search(g, name):
    # the pattern-degree cut drops only subsets that cannot extend to a
    # model, and the subset order is the same, so both find the same model
    h = MINOR_PATTERNS[name]
    assert minor_test_bruteforce(g, h) == minor_test_by_plain_search(g, h)


CUT_PATTERNS = {
    "K4": gadgets.complete(4),
    "K33": gadgets.complete_bipartite(3, 3),
    "K5": gadgets.complete(5),
    "kell-H(2,1)": gadgets.gen_kell_H(2, 1),
    "C4": gadgets.cycle(4),
    "K23": gadgets.complete_bipartite(2, 3),
    "W5": gadgets.wheel(5),
    "K3+K2": Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
    "K4+isolated": Graph(5, list(gadgets.complete(4).edges())),
}


def minor_search_without_cuts(g, h):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_rank_refutes", lambda g, h: False)
        mp.setattr(structure, "_blocks_refute", lambda g, h: False)
        return minor_test_bruteforce(g, h)


@settings(max_examples=200, deadline=None)
@given(glued_graphs(max_n=11), st.sampled_from(sorted(CUT_PATTERNS)))
def test_refutation_cuts_change_no_answer(g, name):
    # the cycle-rank and host-block cuts only ever answer None, and only
    # where the search would find no model
    h = CUT_PATTERNS[name]
    assert minor_test_bruteforce(g, h) == minor_search_without_cuts(g, h)


@pytest.mark.parametrize("host, pattern, cut", [
    (gadgets.gen_gsn(3, 2), gadgets.complete_bipartite(3, 3), "_blocks_refute"),
    (gadgets.star(12), gadgets.gen_kell_H(2, 1), "_rank_refutes"),
    (Graph(13, list(gadgets.cycle(5).edges()) + [(v, v + 1) for v in range(4, 12)]),
     gadgets.gen_kell_H(2, 1), "_rank_refutes"),
    (gadgets.cycle(13), gadgets.gen_kell_H(2, 1), "_rank_refutes"),
])
def test_refutation_cuts_fire(host, pattern, cut):
    assert getattr(structure, cut)(host, pattern)
    assert minor_test_bruteforce(host, pattern) is None
    assert minor_search_without_cuts(host, pattern) is None


def test_minor_known_cases():
    pet = gadgets.petersen()
    k5 = gadgets.complete(5)
    model = minor_test_bruteforce(pet, k5)
    assert model is not None
    assert validate_minor_model(pet, k5, model) == []
    k33 = gadgets.complete_bipartite(3, 3)
    assert minor_test_bruteforce(pet, k33) is not None
    # K6 needs 15 edges across 6 branch sets; the Petersen graph cannot
    assert minor_test_bruteforce(pet, gadgets.complete(6)) is None
    assert minor_test_bruteforce(gadgets.cycle(7), gadgets.complete(3)) is not None
    assert minor_test_bruteforce(gadgets.path(7), gadgets.complete(3)) is None


def test_minor_caps():
    with pytest.raises(CapExceededError):
        minor_test_bruteforce(gadgets.cycle(15), gadgets.complete(3))
    with pytest.raises(CapExceededError):
        minor_test_bruteforce(gadgets.cycle(9), gadgets.cycle(9))
    # the caps are checked before the cuts that would refute these
    with pytest.raises(CapExceededError):
        minor_test_bruteforce(gadgets.path(15), gadgets.complete(4))
    with pytest.raises(CapExceededError):
        minor_test_bruteforce(gadgets.path(5), gadgets.complete(9))


def test_validate_minor_model_catches_defects():
    g = gadgets.cycle(6)
    h = gadgets.path(3)
    model = minor_test_bruteforce(g, h)
    assert model is not None
    from defekt.structure import MinorModel

    overlap = MinorModel(branch_sets=((0, 1), (1, 2), (3,)))
    assert validate_minor_model(g, h, overlap) != []
    split = MinorModel(branch_sets=((0, 2), (1,), (3,)))
    assert any("connected" in p for p in validate_minor_model(g, h, split))
    short = MinorModel(branch_sets=((0,), (1,)))
    assert validate_minor_model(g, h, short) != []
    outside = MinorModel(branch_sets=((99,), (1,), (2,)))
    assert validate_minor_model(g, h, outside) == ["branch set 0 out of range"]


def naive_vertex_cover(g: Graph) -> int:
    for size in range(g.n + 1):
        for s in combinations(g.vertices(), size):
            chosen = set(s)
            if all(u in chosen or v in chosen for u, v in g.edges()):
                return size
    return g.n


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8))
def test_vertex_cover_agrees_with_naive(g):
    value, cover = vertex_cover_number(g)
    assert value == naive_vertex_cover(g)
    chosen = set(cover)
    assert len(cover) == value
    assert all(u in chosen or v in chosen for u, v in g.edges())


def test_vertex_cover_known_values():
    assert vertex_cover_number(gadgets.petersen())[0] == 6
    assert vertex_cover_number(gadgets.cycle(7))[0] == 4
    assert vertex_cover_number(gadgets.star(5))[0] == 1


def test_tree_depth_known_values():
    assert tree_depth(gadgets.path(7)) == 3
    assert tree_depth(gadgets.complete(5)) == 5
    assert tree_depth(gadgets.cycle(6)) == 4
    assert tree_depth(gadgets.star(4)) == 2
    assert tree_depth(gadgets.petersen()) == 6
    assert tree_depth(Graph(1)) == 1


def test_tree_depth_of_disjoint_union_is_max():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4), (6, 7)])
    parts = connected_components(g)
    assert len(parts) == 2
    assert tree_depth(g) == 3


def test_tree_depth_cap():
    with pytest.raises(CapExceededError):
        tree_depth(gadgets.cycle(13))


def test_is_star_plus_isolated():
    assert is_star_plus_isolated(gadgets.star(3)) is not None
    lonely = Graph(5, [(0, 1), (0, 2), (0, 3)])
    assert is_star_plus_isolated(lonely) is not None
    assert is_star_plus_isolated(gadgets.path(4)) is None
    assert is_star_plus_isolated(gadgets.cycle(3)) is None
