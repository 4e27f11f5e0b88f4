from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, strategies as st

from defekt import gadgets
from defekt.bounds import (
    FORMULAS,
    dg,
    earth_moon_table,
    evaluate,
    genus_thickness_colour_params,
    main_defect_bound,
    n1,
    queue_params,
    stack_params,
    surface_edge_bound,
)
from defekt.errors import ValidationError
from defekt.structure import hfree_bounds
from defekt.wire import encode


def test_n1_base_cases():
    assert n1(1, 7, 3, 3) == 6
    assert n1(2, 1, 2, 1) == 2
    assert n1(2, 48, 4, 4) == 196


def test_n1_matches_manual_formula_for_s2():
    d, d1, t = Fraction(7, 2), Fraction(9, 4), 5
    assert n1(2, t, d, d1) == Fraction(1, 2) * (d - 2) * d1 * t + d


def test_n1_matches_manual_formula_for_s3():
    from math import comb

    d, d1, t = Fraction(11, 2), Fraction(7, 2), 4
    expect = (d - 3) * (comb(3, 2) * (t - 1) + d1 / 2) + d
    assert n1(3, t, d, d1) == expect


def test_n1_validation():
    with pytest.raises(ValidationError):
        n1(0, 1, 1, 1)
    with pytest.raises(ValidationError):
        n1(2, 0, 1, 1)
    with pytest.raises(ValidationError):
        n1(2, 2, 0, 1)
    with pytest.raises(ValidationError):
        n1(2, 2, 1, -1)


rationals = st.fractions(min_value=1, max_value=10)


@given(rationals, rationals)
def test_main_defect_bound_closed_form(g0, g1):
    """For two colours and a single outer vertex the general threshold
    collapses to a one-line expression."""
    lo, hi = min(g0, g1), max(g0, g1)
    got = main_defect_bound(2, 1, 2 * lo, hi)
    assert got == floor(2 * ((lo - 1) * hi + lo) - 1)


def test_main_defect_bound_rejects_inconsistent_densities():
    with pytest.raises(ValidationError):
        main_defect_bound(2, 1, 5, 2)


def test_earth_moon_table_frozen():
    rows = earth_moon_table()
    assert [(r["colours"], r["defect"]) for r in rows] == [
        (5, 36), (6, 19), (7, 12), (8, 9), (9, 6), (10, 4), (11, 2)
    ]
    assert rows[0]["source"] == "derived"
    assert all(r["source"] == "recorded" for r in rows[1:])


def test_genus_thickness_colour_params():
    assert genus_thickness_colour_params(1, 0) == (3, 10)
    assert genus_thickness_colour_params(2, 0) == (5, 36)
    assert genus_thickness_colour_params(2, 3) == (5, 48)
    with pytest.raises(ValidationError):
        genus_thickness_colour_params(0, 0)


def test_surface_bounds_planar_case():
    # d_0 = max(3, 6/4) = 3 edges per vertex
    assert dg(0).value == 3
    assert surface_edge_bound(0, 10).value == 30
    assert dg(1).lo > 3 or dg(1).value == 3


def test_dg_is_exact_on_perfect_squares():
    # 24g+1 = 49 at g = 2, so the enclosure collapses to a point
    assert dg(2).value == 3


def test_stack_and_queue_params_grow():
    s1, s2 = stack_params(1), stack_params(2)
    assert s2.s > s1.s and s2.defect > s1.defect
    q1, q2 = queue_params(1), queue_params(2)
    assert q2.s > q1.s and q2.defect > q1.defect


def test_hfree_bounds_cases():
    assert hfree_bounds(gadgets.star(4)) == (1, 1)
    lo, hi = hfree_bounds(gadgets.path(4))
    assert 1 <= lo <= hi
    with pytest.raises(ValidationError):
        from defekt.graphs import Graph

        hfree_bounds(Graph(0))


def test_evaluate_registry_smoke():
    samples = {
        "n1": {"s": 2, "t": 3, "delta": 3, "delta1": 4},
        "main-defect": {"s": 2, "t": 1, "mad": 3, "top_grad": 2},
        "surface-dg": {"genus": 1},
        "surface-edges": {"genus": 0, "n": 12},
        "crossing-lower": {"n": 10, "m": 40, "genus": 0},
        "close-genus-edges": {"k": 2, "genus": 0, "n": 10},
        "close-genus-k3t-max": {"k": 2, "genus": 0},
        "k3t-crossings": {"t": 4, "genus": 0},
        "light-edge-check": {
            "a": 1, "b": 2, "a2": 1, "b2": 2, "delta": 3, "ell": 8
        },
        "root-upper": {"alpha": 1, "beta": 2, "gamma": 1},
        "genus-thickness-light": {"k": 2, "genus": 0},
        "genus-thickness-colours": {"k": 2, "genus": 0},
        "stack-params": {"k": 2},
        "queue-params": {"k": 2},
    }
    assert set(samples) == set(FORMULAS)
    for formula_id, params in samples.items():
        payload = encode(evaluate(formula_id, **params))
        assert payload["formula_id"] == formula_id
        assert "value" in payload


def test_evaluate_rejects_bad_input():
    with pytest.raises(ValidationError):
        evaluate("no-such-formula")
    with pytest.raises(ValidationError):
        evaluate("n1", s=2)
    with pytest.raises(ValidationError):
        evaluate("n1", s=2, t=1, delta=2, delta1=2, bogus=1)


@pytest.mark.parametrize(
    "formula_id, params",
    [
        ("n1", {"s": 2, "t": 2, "delta": "x", "delta1": 1}),
        ("n1", {"s": 2, "t": 2, "delta": "1/0", "delta1": 1}),
        ("n1", {"s": 2, "t": 2, "delta": None, "delta1": 1}),
        ("n1", {"s": 2, "t": 2, "delta": [1], "delta1": 1}),
        ("n1", {"s": "2", "t": 2, "delta": 1, "delta1": 1}),
        ("n1", {"s": True, "t": 2, "delta": 1, "delta1": 1}),
        ("n1", {"s": 2.0, "t": 2, "delta": 1, "delta1": 1}),
        ("surface-dg", {"genus": None}),
        ("root-upper", {"alpha": {}, "beta": 1, "gamma": 1}),
    ],
)
def test_evaluate_rejects_values_a_formula_cannot_take(formula_id, params):
    with pytest.raises(ValidationError):
        evaluate(formula_id, **params)
