"""The JSON codec: literal payloads for the values no benchmark digest
covers, and the checks ``decode`` makes on outside input."""

import pytest

from defekt import gadgets
from defekt.bounds import evaluate
from defekt.errors import ValidationError
from defekt.structure import KstStarEmbedding, LightEdge, find_kst_star
from defekt.wire import decode, encode


@pytest.mark.parametrize(
    "formula_id, params, value",
    [
        ("surface-dg", {"genus": 0}, {"exact": "3"}),
        ("surface-dg", {"genus": 3}, {"lo": "237414257/70116418", "hi": "27787237/8206506"}),
        ("stack-params", {"k": 2},
         {"s": 3, "t": 7, "delta": "6", "delta1": "160", "defect": 229204}),
        ("genus-thickness-colours", {"k": 2, "genus": 0}, [5, 36]),
    ],
    ids=["enclosure-exact", "enclosure-interval", "param-bundle", "tuple"],
)
def test_bound_payloads(formula_id, params, value):
    assert encode(evaluate(formula_id, **params)) == {
        "formula_id": formula_id, "params": params, "value": value,
    }


def test_kst_star_payload():
    emb = find_kst_star(gadgets.gen_kst_star(3, 2), 3, 2)
    payload = {
        "kind": "kst-star",
        "centres": [0, 1, 2],
        "outer": [3, 4],
        "pair_vertices": [[[0, 1], 5], [[0, 2], 6], [[1, 2], 7]],
    }
    assert encode(emb) == payload
    del payload["kind"]
    assert decode(KstStarEmbedding, payload, "kst-star") == emb


def count_up(seed: int, count: int = 3, note=None) -> tuple:
    return seed, count, note


@pytest.mark.parametrize(
    "data, message",
    [
        ({"seed": 1, "extra": 2, "a\nb": 3}, r"^f does not take 'a\\nb', extra$"),
        ({"count": 2}, "^f misses 'seed'$"),
        ({"seed": True}, "^f: seed must be an integer, got bool$"),
        ({"seed": "1"}, "^f: seed must be an integer, got str$"),
    ],
    ids=["unknown-keys", "missing-key", "bool-for-int", "string-for-int"],
)
def test_decode_refuses_what_the_signature_does_not_take(data, message):
    with pytest.raises(ValidationError, match=message):
        decode(count_up, data, "f")


def test_decode_fills_defaults_and_passes_unannotated_values():
    assert decode(count_up, {"seed": 1}, "f") == (1, 3, None)
    assert decode(count_up, {"seed": 1, "note": [1.5, "x"]}, "f") == (1, 3, [1.5, "x"])


@pytest.mark.parametrize(
    "data, message",
    [
        ({"edge": [0, 1, 2], "degrees": [1, 1]}, "edge must have 2 entries, got 3"),
        ({"edge": (0, 1), "degrees": [1, 1]}, "edge must be a list, got tuple"),
        ({"edge": [0, [1]], "degrees": [1, 1]}, "edge must be an integer, got list"),
    ],
)
def test_decode_reads_tuples_entry_by_entry(data, message):
    with pytest.raises(ValidationError, match=message):
        decode(LightEdge, data, "light-edge certificate")

