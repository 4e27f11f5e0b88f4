"""Metamorphic checks on the density report: renaming the vertices changes
no value, and a disjoint union takes the larger of each.

The mad witness is the maximum densest subgraph, which is unique, so it
must follow the renaming exactly, and a union's witness is the witnesses
of the parts whose density is the larger.  Unions stay within the default
``top_grad`` cap of 20 vertices, so both sides are exact.

Renaming also keeps the certificates: a K*_{s,t} embedding is found
exactly when it was before, a minor model carried through the renaming
still validates, and a kell colouring of the renamed graph still verifies.
"""

import random

import pytest

from defekt import gadgets
from defekt.caps import current_caps
from defekt.colouring import colour_kell, verify_defective
from defekt.density import build_report
from defekt.graphs import Graph
from defekt.structure import (
    KstStarEmbedding,
    MinorModel,
    find_kst_star,
    minor_test_bruteforce,
    validate_kst_star,
    validate_minor_model,
)

from helpers import grid, ladder


def chorded_cycle(n: int, chords: list[tuple[int, int]]) -> Graph:
    return Graph(n, list(gadgets.cycle(n).edges()) + chords)


FAMILY = {
    "path-7": gadgets.path(7),
    "path-12": gadgets.path(12),
    "ladder-5": ladder(5),
    "ladder-8": ladder(8),
    "grid-3x4": grid(3, 4),
    "grid-4x5": grid(4, 5),
    "star-6": gadgets.star(6),
    "star-11": gadgets.star(11),
    "k-2-4": gadgets.complete_bipartite(2, 4),
    "k-3-3": gadgets.complete_bipartite(3, 3),
    "k-4-7": gadgets.complete_bipartite(4, 7),
    "cycle-8-chords": chorded_cycle(8, [(0, 4), (1, 5)]),
    "cycle-9-chords": chorded_cycle(9, [(0, 3), (0, 5), (2, 7)]),
    "cycle-16-chords": chorded_cycle(16, [(0, 8), (2, 11), (3, 5), (6, 13)]),
    "edgeless-5": Graph(5),
}

UNIONS = [
    ("path-7", "star-6"),
    ("ladder-5", "k-2-4"),
    ("grid-3x4", "cycle-8-chords"),
    ("k-3-3", "cycle-9-chords"),
    ("star-6", "k-3-3"),
    ("cycle-8-chords", "ladder-5"),
    ("k-4-7", "cycle-9-chords"),
    ("path-7", "grid-3x4"),
    ("edgeless-5", "star-6"),
    ("edgeless-5", "edgeless-5"),
]


CERTIFIED = {
    **FAMILY,
    "kst-star-2-2": gadgets.gen_kst_star(2, 2),
    "kst-star-3-1": gadgets.gen_kst_star(3, 1),
    "kell-2-1": gadgets.gen_kell_H(2, 1),
    "wheel-7": gadgets.wheel(7),
    "petersen": gadgets.petersen(),
    "k-6": gadgets.complete(6),
}

KST_SHAPES = [(1, 3), (2, 1), (2, 2), (3, 1), (3, 2)]

MINOR_PATTERNS = [
    gadgets.complete(3),
    gadgets.complete(4),
    gadgets.cycle(5),
    gadgets.complete_bipartite(2, 3),
    gadgets.gen_kell_H(2, 1),
]


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shuffled(name: str, n: int) -> list[int]:
    perm = list(range(n))
    random.Random(name).shuffle(perm)
    return perm


def union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()])


def values(report) -> tuple:
    return report.mad, report.degeneracy, report.top_grad_half, report.top_grad_method


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_relabelling_changes_no_value(name):
    g = FAMILY[name]
    perm = shuffled(name, g.n)
    before, after = build_report(g), build_report(relabel(g, perm))
    assert values(after) == values(before)
    assert after.mad_witness == tuple(sorted(perm[v] for v in before.mad_witness))


@pytest.mark.parametrize("first, second", UNIONS)
def test_disjoint_union_takes_the_max(first, second):
    g, h = FAMILY[first], FAMILY[second]
    assert g.n + h.n <= 20
    rg, rh, ru = build_report(g), build_report(h), build_report(union(g, h))
    assert ru.mad == max(rg.mad, rh.mad)
    assert ru.degeneracy == max(rg.degeneracy, rh.degeneracy)
    assert ru.top_grad_half == max(rg.top_grad_half, rh.top_grad_half)
    assert ru.top_grad_method == rg.top_grad_method == rh.top_grad_method == "brute-force"
    witness = [v for v in rg.mad_witness if rg.mad == ru.mad]
    witness += [v + g.n for v in rh.mad_witness if rh.mad == ru.mad]
    assert ru.mad_witness == tuple(witness)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_relabelling_keeps_kst_stars(name):
    g = CERTIFIED[name]
    perm = shuffled(name, g.n)
    moved = relabel(g, perm)
    for s, t in KST_SHAPES:
        before, after = find_kst_star(g, s, t), find_kst_star(moved, s, t)
        assert (before is None) == (after is None)
        if after is not None:
            assert validate_kst_star(moved, after, s, t) == []
            carried = KstStarEmbedding(
                centres=tuple(perm[v] for v in before.centres),
                outer=tuple(perm[v] for v in before.outer),
                pair_vertices=tuple(
                    ((perm[u], perm[v]), perm[w]) for (u, v), w in before.pair_vertices
                ),
            )
            assert validate_kst_star(moved, carried, s, t) == []


@pytest.mark.parametrize(
    "name", sorted(n for n, g in CERTIFIED.items() if g.n <= current_caps().minor_host)
)
def test_relabelling_carries_minor_models(name):
    g = CERTIFIED[name]
    perm = shuffled(name, g.n)
    moved = relabel(g, perm)
    for h in MINOR_PATTERNS:
        model = minor_test_bruteforce(g, h)
        assert (model is None) == (minor_test_bruteforce(moved, h) is None)
        if model is not None:
            carried = MinorModel(tuple(tuple(perm[v] for v in b) for b in model.branch_sets))
            assert validate_minor_model(moved, h, carried) == []


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_relabelling_keeps_kell_colourings(name):
    g = CERTIFIED[name]
    moved = relabel(g, shuffled(name, g.n))
    for ell, k in ((2, 1), (3, 1), (2, 2)):
        before, after = colour_kell(g, ell, k), colour_kell(moved, ell, k)
        assert after.kind == before.kind
        if after.kind == "minor":
            pattern = gadgets.gen_kell_H(ell, k)
            assert validate_minor_model(moved, pattern, after.minor_model) == []
        else:
            assert after.defect_bound == before.defect_bound
            assert verify_defective(moved, after.colours, after.defect_bound)[0]
