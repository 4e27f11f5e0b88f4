"""End-to-end acceptance checks, one per release criterion.

Each test prints a single ``C<n> PASS`` line on success; a failure is
reported by pytest as usual and the line stays absent.  Seeds are frozen
so every run exercises the same corpus.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import floor

from defekt import corpus
from defekt.bounds import (
    earth_moon_table,
    genus_thickness_colour_params,
    main_defect_bound,
)
from defekt.colouring import defective_list_colour, verify_defective
from defekt.density import degeneracy, mad_exact
from defekt.errors import StructuralError
from defekt.experiments import run_experiment
from defekt.structure import find_light_edge

from helpers import planar_min_degree_3
from oracles import mad_bruteforce

C1_SEED = 48625
C6_SEED = 90210
C7_SEED = 20260819
C10_SEED = 777

# earth-moon reference rows, frozen byte for byte
EARTH_MOON_JSON = (
    '[{"colours":5,"defect":36,"source":"derived"},'
    '{"colours":6,"defect":19,"source":"recorded"},'
    '{"colours":7,"defect":12,"source":"recorded"},'
    '{"colours":8,"defect":9,"source":"recorded"},'
    '{"colours":9,"defect":6,"source":"recorded"},'
    '{"colours":10,"defect":4,"source":"recorded"},'
    '{"colours":11,"defect":2,"source":"recorded"}]'
)


def _report(tag: str, detail: str) -> None:
    print(f"{tag} PASS: {detail}")


def test_c01_peel_colourings_verify_on_500_random_graphs():
    """Every graph passing the peel precondition gets a verified colouring."""
    t0 = time.time()
    collected = 0
    attempts = 0
    i = 0
    while collected < 500:
        i += 1
        attempts += 1
        assert attempts < 4000, "sampler failed to collect 500 instances"
        n = 3 + (i * 13) % 28
        p = 0.08 + ((i * 7) % 5) * 0.04
        k = 1 + i % 3
        ell = k + (i * 5) % 4
        g = corpus.gnp(n, p, C1_SEED + i)
        lists = [tuple(range(1, k + 2)) for _ in range(g.n)]
        try:
            colours = defective_list_colour(g, lists, k, ell)
        except StructuralError:
            continue
        ok, violations = verify_defective(g, colours, ell - k)
        assert ok, (i, violations)
        assert all(colours[v] in lists[v] for v in range(g.n))
        collected += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"budget blown: {elapsed:.2f}s"
    _report("C1", f"500/500 verified from {attempts} attempts in {elapsed:.2f}s")


def test_c02_peel_agrees_with_bruteforce_on_small_graphs():
    """Where the peel succeeds, exhaustive search confirms colourability."""
    rows = run_experiment("oracle-agreement", count=200)
    assert len(rows) == 200
    assert all(r["pass"] for r in rows)
    coloured = sum(1 for r in rows if r["inputs"]["outcome"] == "coloured")
    assert coloured >= 50, f"only {coloured} coloured rows, check vacuous"
    _report("C2", f"200/200 agree, {coloured} coloured instances")


def test_c03_blowup_family_is_minor_free_yet_uncolourable():
    """The recursive blowups separate the defect bound from below."""
    t0 = time.time()
    rows = run_experiment("lowerbound-gsn")
    elapsed = time.time() - t0
    assert len(rows) == 8
    assert all(r["pass"] for r in rows)
    assert elapsed < 60.0, f"budget blown: {elapsed:.2f}s"
    params = {(r["inputs"]["s"], r["inputs"]["N"]) for r in rows}
    assert params == {(2, 1), (2, 2), (3, 1), (3, 2)}
    _report("C3", f"8/8 rows over {sorted(params)} in {elapsed:.2f}s")


def test_c04_measured_density_dichotomy_never_refuted():
    """With exact densities the structure test always yields a certificate."""
    rows = run_experiment("dichotomy-random", count=300, size=14)
    assert len(rows) == 300
    assert all(r["pass"] for r in rows)
    assert all(r["inputs"]["n"] <= 14 for r in rows)
    _report("C4", "300/300 instances certified, none refuted")


def test_c05_earth_moon_rows_match_recorded_constants_exactly():
    """The two-layer table reproduces its reference rows byte for byte."""
    table = earth_moon_table()
    assert json.dumps(table, sort_keys=True, separators=(",", ":")) == EARTH_MOON_JSON
    assert genus_thickness_colour_params(2, 0) == (5, 36)
    rows = run_experiment("earth-moon-table")
    assert all(r["pass"] for r in rows)
    _report("C5", f"{len(table)} rows byte-exact, derived head row (5, 36)")


def test_c06_planar_min_degree_3_graphs_have_a_12_light_edge():
    """Min-degree-3 planar graphs always expose a light edge at level 12."""
    for i in range(100):
        n = 10 + (i * 7) % 31
        g = planar_min_degree_3(n, C6_SEED + i)
        assert g.n <= 40
        assert g.min_degree() >= 3
        edge = find_light_edge(g, 12)
        assert edge is not None, f"instance {i} (n={g.n}) has no 12-light edge"
        u, v = edge
        assert g.degree(u) <= 12 and g.degree(v) <= 12
    _report("C6", "100/100 planar instances expose a 12-light edge")


def test_c07_two_colour_defect_bound_matches_closed_form():
    """The threshold at s=2, t=1 collapses to its closed form on rationals."""
    rng = random.Random(C7_SEED)
    for trial in range(100):
        a = 1 + Fraction(rng.randint(0, 900), 100)
        b = 1 + Fraction(rng.randint(0, 900), 100)
        lo, hi = min(a, b), max(a, b)
        got = main_defect_bound(2, 1, 2 * lo, hi)
        want = floor(2 * ((lo - 1) * hi + lo) - 1)
        assert got == want, (trial, lo, hi, got, want)
    _report("C7", "100/100 rational pairs match the closed form")


def test_c08_tree_free_dichotomy_holds_on_three_patterns():
    """Every instance yields either a tree embedding or a bounded colouring."""
    rows = run_experiment("treefree", count=100)
    assert len(rows) == 300
    assert all(r["pass"] for r in rows)
    patterns = {r["inputs"]["pattern"] for r in rows}
    assert len(patterns) == 3
    _report("C8", f"300/300 rows over patterns {sorted(patterns)}")


def test_c09_quotient_pipeline_colours_cycles_and_sparse_graphs():
    """The contraction pipeline verifies on cycles, sparse graphs, a minor."""
    rows = run_experiment("kell-smoke")
    assert len(rows) == 28
    assert all(r["pass"] for r in rows)
    checks = [r["check_id"] for r in rows]
    assert sum(1 for c in checks if c.startswith("kell-cycle")) == 7
    assert sum(1 for c in checks if c.startswith("kell-sparse")) == 20
    assert checks.count("kell-identity") == 1
    _report("C9", "28/28 rows: 7 cycles, 20 sparse, 1 identity minor")


def test_c10_mad_oracles_agree_and_bound_degeneracy():
    """LP-free exact density equals brute force; degeneracy sits below it."""
    for i in range(100):
        n = 2 + (i * 5) % 11
        p = 0.15 + ((i * 3) % 6) * 0.12
        g = corpus.gnp(n, p, C10_SEED + i)
        exact, _ = mad_exact(g)
        brute, _ = mad_bruteforce(g)
        assert exact == brute, (i, n, p, exact, brute)
        dgy, _ = degeneracy(g)
        assert dgy <= floor(exact) if g.m else dgy == 0
    _report("C10", "100/100 instances agree, degeneracy bounded throughout")
