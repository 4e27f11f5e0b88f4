"""Metamorphic checks on the density report: renaming the vertices changes
no value, and a disjoint union takes the larger of each.

The mad witness is the maximum densest subgraph, which is unique, so it
must follow the renaming exactly, and a union's witness is the witnesses
of the parts whose density is the larger.  Unions stay within the default
``top_grad`` cap of 20 vertices, so both sides are exact.
"""

import random

import pytest

from defekt import gadgets
from defekt.density import build_report
from defekt.graphs import Graph

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


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()])


def values(report) -> tuple:
    return report.mad, report.degeneracy, report.top_grad_half, report.top_grad_method


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_relabelling_changes_no_value(name):
    g = FAMILY[name]
    perm = list(range(g.n))
    random.Random(name).shuffle(perm)
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
