"""Named experiment suites emitting deterministic check rows.

Each experiment maps a seed (plus optional size overrides) to a list of
row dicts shaped ``{check_id, claim_id, inputs, expected, actual, pass}``.
The claim id names the statement the row exercises; the registry below is
the single source of those names.  Rows are plain JSON-ready values so a
fixed seed yields byte-identical reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import corpus, gadgets
from .bounds import earth_moon_table, genus_thickness_colour_params
from .colouring import (
    build_peel_trace,
    colour_kell,
    colour_tree_free,
    defective_list_colour,
    edge_partition_forest_bounded,
    is_kd_colourable_bruteforce,
    validate_tree_embedding,
    verify_defective,
)
from .density import mad_exact, top_grad_half
from .errors import PreconditionRefutedError, StructuralError, ValidationError
from .graphs import Graph
from .structure import (
    dichotomy_threshold,
    minor_test_bruteforce,
    structural_dichotomy,
    validate_certificate,
    validate_minor_model,
)
from .wire import decode

CLAIMS = {
    "gsn-forces-colours": "the recursive star family admits no colouring "
    "with one colour fewer, whatever the defect bound",
    "gsn-excludes-biclique-minor": "the recursive star family has no "
    "balanced complete bipartite minor of its level",
    "dichotomy-certificate": "graphs measured against their own densities "
    "always yield a low-degree vertex, a light edge, or a biclique-with-"
    "pair-vertices embedding",
    "planar-no-c4-light-edge": "planar graphs without 4-cycles peel by "
    "degree-1 vertices and 7-light edges",
    "forest-plus-bounded-partition": "edges split into a forest and a part "
    "of maximum degree 7",
    "tree-exclusion-dichotomy": "layered colouring succeeds or the excluded "
    "tree embeds",
    "kell-two-colouring": "two colours suffice at the pipeline's defect "
    "bound for hosts excluding the dominated star union",
    "kell-identity-minor": "the excluded pattern is found in itself",
    "peel-oracle-agreement": "peel-and-replay success implies exhaustive "
    "colourability at the same parameters",
    "earth-moon-row": "two-layer thickness colour/defect pairs match the "
    "recorded table",
}


def _row(check_id: str, claim_id: str, inputs: dict, expected, actual) -> dict:
    assert claim_id in CLAIMS
    return {
        "check_id": check_id,
        "claim_id": claim_id,
        "inputs": inputs,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


def lowerbound_gsn(seed: int = 0) -> list[dict]:
    rows = []
    for s, big_n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        g = gadgets.gen_gsn(s, big_n)
        colourable, _ = is_kd_colourable_bruteforce(g, s - 1, big_n)
        rows.append(
            _row(
                f"gsn-{s}-{big_n}-colouring",
                "gsn-forces-colours",
                {"s": s, "N": big_n, "n": g.n, "colours": s - 1, "defect": big_n},
                False,
                colourable,
            )
        )
        pattern = gadgets.complete_bipartite(s, s)
        model = minor_test_bruteforce(g, pattern)
        rows.append(
            _row(
                f"gsn-{s}-{big_n}-minor",
                "gsn-excludes-biclique-minor",
                {"s": s, "N": big_n, "n": g.n, "pattern": f"K_{{{s},{s}}}"},
                None,
                None if model is None else [list(b) for b in model.branch_sets],
            )
        )
    return rows


def dichotomy_random(seed: int = 0, count: int = 300, size: int = 14) -> list[dict]:
    rows = []
    made = 0
    attempt = 0
    while made < count:
        attempt += 1
        inst_seed = seed * 100003 + attempt
        n = 1 + (attempt * 13) % size
        p = 0.15 + ((attempt * 7) % 8) / 10.0
        g = corpus.gnp(n, p, inst_seed)
        s = 1 + attempt % 3
        t = 1 + (attempt // 3) % 3
        if g.m:
            delta, wit = mad_exact(g)
            grad = top_grad_half(g, _mad_witness=wit)[0]
        else:
            delta = grad = Fraction(0)
        try:
            cert = structural_dichotomy(g, s, t, delta, 2 * grad)
            ell = dichotomy_threshold(s, t, delta, 2 * grad) if g.m else 0
            problems = validate_certificate(g, cert, s=s, t=t, ell=ell)
            outcome = cert.kind if not problems else f"invalid: {problems}"
        except PreconditionRefutedError:
            outcome = "refuted"
        made += 1
        rows.append(
            _row(
                f"dichotomy-{made}",
                "dichotomy-certificate",
                {"seed": inst_seed, "n": n, "m": g.m, "s": s, "t": t},
                True,
                outcome in ("low-degree-vertex", "light-edge", "kst-star"),
            )
        )
    return rows


def no_c4_planar(seed: int = 0, count: int = 30, size: int = 30) -> list[dict]:
    rows = []
    for i in range(count):
        n = max(8, 8 + (i * 5) % size)
        g = corpus.planar_girth_5(n, seed * 9176 + i)
        try:
            build_peel_trace(g, 1, 7)
            peels = True
        except StructuralError:
            peels = False
        rows.append(
            _row(
                f"no-c4-peel-{i}",
                "planar-no-c4-light-edge",
                {"seed": seed * 9176 + i, "n": g.n, "m": g.m},
                True,
                peels,
            )
        )
        try:
            tree_part, rest_part = edge_partition_forest_bounded(g, 8)
            partitioned = len(tree_part) + len(rest_part) == g.m
        except StructuralError:
            partitioned = False
        rows.append(
            _row(
                f"no-c4-partition-{i}",
                "forest-plus-bounded-partition",
                {"seed": seed * 9176 + i, "n": g.n, "m": g.m, "limit": 8},
                True,
                partitioned,
            )
        )
    return rows


def kell_smoke(seed: int = 0, count: int = 20) -> list[dict]:
    cases = [
        (f"kell-cycle-{m}", gadgets.cycle(m), {"n": m, "ell": 2, "k": 1})
        for m in range(6, 13)
    ]
    for i in range(count):
        g = corpus.sparse_pattern_free(10 + (i % 7), seed * 7919 + i)
        cases.append((f"kell-sparse-{i}", g, {"seed": seed * 7919 + i, "n": g.n, "m": g.m}))
    rows = []
    for check_id, g, inputs in cases:
        res = colour_kell(g, 2, 1)
        ok = (
            res.kind == "colouring"
            and len(set(res.colours)) <= 2
            and verify_defective(g, res.colours, res.defect_bound)[0]
        )
        rows.append(_row(check_id, "kell-two-colouring", inputs, True, ok))
    pattern = gadgets.gen_kell_H(2, 1)
    res = colour_kell(pattern, 2, 1)
    ok = (
        res.kind == "minor"
        and not validate_minor_model(pattern, pattern, res.minor_model)
    )
    rows.append(
        _row(
            "kell-identity",
            "kell-identity-minor",
            {"ell": 2, "k": 1, "n": pattern.n},
            True,
            ok,
        )
    )
    return rows


def treefree(seed: int = 0, count: int = 100) -> list[dict]:
    patterns = {
        "path-3": gadgets.path(3),
        "star-3": gadgets.star(3),
        "binary-tree-2": gadgets.complete_binary_tree(2),
    }
    rows = []
    for name, t in patterns.items():
        for i in range(count):
            inst_seed = seed * 31337 + i
            n = 4 + (i * 11) % 22
            p = 0.1 + ((i * 3) % 9) / 12.0
            g = corpus.gnp(n, p, inst_seed)
            out = colour_tree_free(g, t)
            if out.colours is not None:
                ok = verify_defective(g, out.colours, out.defect_bound)[0]
                kind = "colouring"
            else:
                ok = not validate_tree_embedding(g, t, out.embedding)
                kind = "embedding"
            rows.append(
                _row(
                    f"treefree-{name}-{i}",
                    "tree-exclusion-dichotomy",
                    {"pattern": name, "seed": inst_seed, "n": n, "m": g.m,
                     "outcome": kind},
                    True,
                    ok,
                )
            )
    return rows


def oracle_agreement(seed: int = 0, count: int = 200) -> list[dict]:
    rows = []
    for i in range(count):
        inst_seed = seed * 65537 + i
        n = 2 + (i * 7) % 9
        p = 0.15 + ((i * 5) % 8) / 10.0
        g = corpus.gnp(n, p, inst_seed)
        k = 1 + i % 2
        ell = k + (i // 2) % 3
        lists = [tuple(range(1, k + 2))] * g.n
        try:
            colours = defective_list_colour(g, lists, k, ell)
        except StructuralError:
            outcome, ok = "stuck", True
        else:
            outcome = "coloured"
            sound = verify_defective(g, colours, ell - k)[0]
            agrees, _ = is_kd_colourable_bruteforce(g, k + 1, ell - k)
            ok = sound and agrees
        rows.append(
            _row(
                f"agreement-{i}",
                "peel-oracle-agreement",
                {"seed": inst_seed, "n": n, "m": g.m, "k": k, "ell": ell,
                 "outcome": outcome},
                True,
                ok,
            )
        )
    return rows


RECORDED_EARTH_MOON = [
    (5, 36), (6, 19), (7, 12), (8, 9), (9, 6), (10, 4), (11, 2)
]


def earth_moon(seed: int = 0) -> list[dict]:
    rows = []
    table = earth_moon_table()
    derived = genus_thickness_colour_params(2, 0)
    rows.append(
        _row(
            "earth-moon-derived",
            "earth-moon-row",
            {"layers": 2, "genus": 0},
            list(RECORDED_EARTH_MOON[0]),
            [derived[0], derived[1]],
        )
    )
    for i, (colours, defect) in enumerate(RECORDED_EARTH_MOON):
        rows.append(
            _row(
                f"earth-moon-{colours}",
                "earth-moon-row",
                {"row": i},
                [colours, defect],
                [table[i]["colours"], table[i]["defect"]],
            )
        )
    return rows


EXPERIMENTS: dict[str, Callable[..., list[dict]]] = {
    "lowerbound-gsn": lowerbound_gsn,
    "dichotomy-random": dichotomy_random,
    "no-c4-planar": no_c4_planar,
    "kell-smoke": kell_smoke,
    "treefree": treefree,
    "oracle-agreement": oracle_agreement,
    "earth-moon-table": earth_moon,
}


def run_experiment(name: str, seed: int = 0, **overrides) -> list[dict]:
    """Run a named experiment; ``None`` overrides are left at its defaults,
    and the others must be positive."""
    if name not in EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    for key, value in kwargs.items():
        if value <= 0:
            raise ValidationError(f"{key} must be positive, got {value}")
    return decode(EXPERIMENTS[name], {"seed": seed, **kwargs}, f"experiment {name!r}")
