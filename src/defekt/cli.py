"""Command-line entry point.

Seven subcommands wire the library together: ``analyze`` (density report),
``detect`` (structure searches), ``colour`` (the four colouring modes),
``verify`` (re-check colourings and certificates), ``bounds`` (closed-form
formulas), ``gadget`` (named constructions), and ``experiment`` (seeded
check suites).  Exit codes: 0 success, 1 structural failure with a witness
in the report, 2 usage error, 3 internal fault (a failed self-check, reported
as JSON on stderr).  Caps come from ``DEFEKT_CAPS`` alone; a bad value is a
usage error before any work.  Output is deterministic for a fixed argv:
keys are sorted and nothing is stamped with times or paths.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import caps as caps_mod
from . import gadgets
from .bounds import FORMULAS, earth_moon_table, evaluate
from .colouring import (
    TreeEmbedding,
    build_peel_trace,
    colour_kell,
    colour_tree_free,
    defective_list_colour,
    edge_partition_forest_bounded,
    validate_tree_embedding,
    verify_defective,
)
from .density import build_report
from .errors import (
    AlgorithmError,
    CapExceededError,
    ParseError,
    PrecisionError,
    StructuralError,
    ValidationError,
)
from .experiments import EXPERIMENTS, run_experiment
from .graphs import Graph, _quote, sniff, to_dimacs, to_edge_list, to_json
from .structure import (
    KstStarEmbedding,
    LightEdge,
    LowDegreeVertex,
    MinorModel,
    find_kst_star,
    find_light_edge,
    minor_test_bruteforce,
    tree_depth,
    validate_certificate,
    validate_minor_model,
    vertex_cover_number,
)
from .wire import decode, encode, read_object

USAGE_ERROR = 2
STRUCTURAL_ERROR = 1
INTERNAL_ERROR = 3


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise ParseError(f"{name} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_graph(path: str) -> Graph:
    return sniff(_read_text(path))


def _graph_payload(g: Graph) -> dict:
    return json.loads(to_json(g))


def _colour_map(colours) -> dict:
    return {str(v): c for v, c in enumerate(colours)}


def _parse_colouring(text: str, n: int) -> tuple:
    out = [None] * n
    for key, value in read_object(text, "colouring").items():
        try:
            v = int(key)
        except ValueError:
            raise ValidationError(f"vertex key {_quote(key)} is not an integer") from None
        if not 0 <= v < n:
            raise ValidationError(f"vertex {_quote(key)} is out of range for n={n}")
        if key != str(v):
            raise ValidationError(f"vertex {v} is not keyed as {str(v)!r}")
        if type(value) is not int:
            raise ValidationError(f"colour of vertex {v} must be an integer")
        out[v] = value
    missing = [v for v, c in enumerate(out) if c is None]
    if missing:
        raise ValidationError(f"colouring misses vertices {missing[:8]}")
    return tuple(out)


# ---------------------------------------------------------------------------
# emission

def _flatten(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    elif fmt == "csv":
        fields = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _flatten(v) for k, v in row.items()})
    else:
        for row in rows:
            tag = "PASS" if row.get("pass") else "FAIL"
            rest = " ".join(
                f"{k}={_flatten(v)}" for k, v in sorted(row.items())
                if k not in ("pass", "check_id")
            )
            out.write(f"{tag} {row.get('check_id', '?')} {rest}\n")


def _emit_payload(payload, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        if isinstance(payload, list):
            _emit_rows(payload, "csv", out)
            return
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key in sorted(payload):
            writer.writerow([key, _flatten(payload[key])])
    else:
        if isinstance(payload, list):
            for item in payload:
                out.write(_flatten(item) + "\n")
            return
        for key in sorted(payload):
            out.write(f"{key}: {_flatten(payload[key])}\n")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, payload or None)

def _cmd_analyze(args) -> tuple[int, object]:
    g = _load_graph(args.graph)
    return 0, build_report(g)


def _cmd_detect(args) -> tuple[int, object]:
    g = _load_graph(args.graph)
    requested = False
    payload: dict = {}
    if args.kst_star is not None:
        requested = True
        s, t = args.kst_star
        payload["kst-star"] = find_kst_star(g, s, t)
    if args.light_edge is not None:
        requested = True
        payload["light-edge"] = find_light_edge(g, args.light_edge)
    if args.minor is not None:
        requested = True
        pattern = _load_graph(args.minor)
        payload["minor"] = minor_test_bruteforce(g, pattern)
    if args.tau:
        requested = True
        value, cover = vertex_cover_number(g)
        payload["tau"] = {"value": value, "cover": cover}
    if args.treedepth:
        requested = True
        payload["treedepth"] = tree_depth(g)
    if not requested:
        raise ValidationError("detect needs at least one search flag")
    return 0, payload


def _cmd_colour(args) -> tuple[int, object]:
    g = _load_graph(args.graph)
    if args.mode == "list":
        if args.k is None or args.ell is None:
            raise ValidationError("list mode needs --k and --ell")
        lists = [tuple(range(1, args.k + 2))] * g.n
        colours = defective_list_colour(g, lists, args.k, args.ell)
        payload = {
            "mode": "list",
            "colours": _colour_map(colours),
            "defect_bound": args.ell - args.k,
        }
        if args.trace:
            payload["trace"] = build_peel_trace(g, args.k, args.ell).steps
        return 0, payload
    if args.mode == "kell":
        if args.k is None or args.ell is None:
            raise ValidationError("kell mode needs --k and --ell")
        res = colour_kell(g, args.ell, args.k)
        payload = {"mode": "kell", "kind": res.kind, "diagnostics": res.diagnostics}
        if res.kind == "colouring":
            payload["colours"] = _colour_map(res.colours)
            payload["defect_bound"] = res.defect_bound
        else:
            payload["minor_model"] = res.minor_model
        return 0, payload
    if args.mode == "treefree":
        if args.tree is None:
            raise ValidationError("treefree mode needs --tree FILE")
        t = _load_graph(args.tree)
        outcome = colour_tree_free(g, t)
        payload = {
            "mode": "treefree",
            "num_colours": outcome.num_colours,
            "defect_bound": outcome.defect_bound,
        }
        if outcome.colours is not None:
            payload["colours"] = _colour_map(outcome.colours)
        else:
            payload["embedding"] = outcome.embedding
        return 0, payload
    if args.limit is None:
        raise ValidationError("partition mode needs --limit")
    forest, bounded = edge_partition_forest_bounded(g, args.limit)
    payload = {
        "mode": "partition",
        "forest": forest,
        "bounded": bounded,
        "degree_bound": args.limit - 1,
    }
    if args.trace:
        payload["trace"] = build_peel_trace(g, 1, args.limit).steps
    return 0, payload


def _check_dichotomy(args, g: Graph, cert) -> list[str]:
    # each kind reads only the flags the table requires for it: --s for
    # low-degree-vertex, --ell for light-edge, --s and --t for kst-star
    return validate_certificate(g, cert, args.s, args.t, args.ell)


# kind -> (certificate type, verify flags it needs, validator)
CERTIFICATES = {
    "low-degree-vertex": (LowDegreeVertex, ("s",), _check_dichotomy),
    "light-edge": (LightEdge, ("ell",), _check_dichotomy),
    "kst-star": (KstStarEmbedding, ("s", "t"), _check_dichotomy),
    "minor-model": (
        MinorModel, ("pattern",),
        lambda args, g, cert: validate_minor_model(g, _load_graph(args.pattern), cert),
    ),
    "tree-embedding": (
        TreeEmbedding, ("tree",),
        lambda args, g, cert: validate_tree_embedding(g, _load_graph(args.tree), cert),
    ),
}


def _verify_certificate(args, g: Graph) -> tuple[int, object]:
    data = read_object(_read_text(args.certificate), "certificate")
    kind = data.pop("kind", None)
    if not isinstance(kind, str) or kind not in CERTIFICATES:
        raise ValidationError(
            f"unknown certificate kind {kind!r}; choose from {sorted(CERTIFICATES)}"
        )
    cls, flags, check = CERTIFICATES[kind]
    if any(getattr(args, flag) is None for flag in flags):
        needed = " and ".join(f"--{flag}" for flag in flags)
        raise ValidationError(f"{kind} certificates need {needed}")
    problems = check(args, g, decode(cls, data, f"{kind} certificate"))
    if problems:
        return STRUCTURAL_ERROR, {"valid": False, "kind": kind, "problems": problems}
    return 0, {"valid": True, "kind": kind}


def _cmd_verify(args) -> tuple[int, object]:
    g = _load_graph(args.graph)
    if args.colouring is not None:
        if args.defect is None:
            raise ValidationError("verify --colouring needs --defect")
        colours = _parse_colouring(_read_text(args.colouring), g.n)
        ok, violations = verify_defective(g, colours, args.defect)
        if ok:
            return 0, {"valid": True, "defect": args.defect}
        return STRUCTURAL_ERROR, {
            "valid": False,
            "defect": args.defect,
            "violations": [
                {"vertex": v, "same_coloured": c} for v, c in violations
            ],
        }
    if args.certificate is not None:
        return _verify_certificate(args, g)
    raise ValidationError("verify needs --colouring or --certificate")


def _cmd_bounds(args) -> tuple[int, object]:
    if args.formula is None:
        raise ValidationError(
            f"bounds needs a formula id or earth-moon; formulas: {sorted(FORMULAS)}"
        )
    if args.formula == "earth-moon":
        if args.params is not None:
            raise ValidationError("earth-moon takes no --params")
        return 0, earth_moon_table()
    params = read_object(args.params, "--params") if args.params else {}
    return 0, evaluate(args.formula, **params)


GADGETS: dict[str, tuple] = {
    "gsn": (gadgets.gen_gsn, 2),
    "kst-star": (gadgets.gen_kst_star, 2),
    "kell-pattern": (gadgets.gen_kell_H, 2),
    "path": (gadgets.path, 1),
    "cycle": (gadgets.cycle, 1),
    "complete": (gadgets.complete, 1),
    "complete-bipartite": (gadgets.complete_bipartite, 2),
    "star": (gadgets.star, 1),
    "wheel": (gadgets.wheel, 1),
    "binary-tree": (gadgets.complete_binary_tree, 1),
    "petersen": (gadgets.petersen, 0),
    "dodecahedron": (gadgets.dodecahedron, 0),
}


def _cmd_gadget(args) -> tuple[int, object]:
    if args.name not in GADGETS:
        raise ValidationError(
            f"unknown gadget {args.name!r}; choose from {sorted(GADGETS)}"
        )
    fn, arity = GADGETS[args.name]
    if len(args.params) != arity:
        raise ValidationError(f"gadget {args.name} takes {arity} integer(s)")
    g = fn(*args.params)
    if args.format == "dimacs":
        return 0, to_dimacs(g)
    if args.format == "json":
        return 0, to_json(g) + "\n"
    return 0, to_edge_list(g)


def _cmd_experiment(args) -> tuple[int, object]:
    return 0, run_experiment(args.name, seed=args.seed, count=args.count, size=args.size)


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json", help="report format")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``defekt`` argument parser, built on the first call and shared by
    every later one: parsing keeps no state on it, and building it costs more
    than most small requests."""
    parser = argparse.ArgumentParser(
        prog="defekt",
        description="Defective colouring toolkit: bounded-defect colourings, "
        "structure certificates, density oracles, and gadget generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="density report for a graph")
    p.add_argument("graph", help="graph file, or - for stdin")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("detect", help="structure searches with certificates")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("--kst-star", nargs=2, type=int, metavar=("S", "T"),
                   default=None, help="biclique plus pair-vertices embedding")
    p.add_argument("--light-edge", type=int, metavar="L", default=None,
                   help="edge with both endpoint degrees at most L")
    p.add_argument("--minor", metavar="HFILE", default=None,
                   help="exact minor model of the pattern in HFILE")
    p.add_argument("--tau", action="store_true", help="vertex cover number")
    p.add_argument("--treedepth", action="store_true", help="tree-depth")
    _add_common(p)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("colour", help="run one of the colouring procedures")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("--mode", choices=("list", "kell", "treefree", "partition"),
                   required=True)
    p.add_argument("--k", type=int, default=None,
                   help="vertex peel threshold (list, kell)")
    p.add_argument("--ell", type=int, default=None,
                   help="light edge threshold (list, kell)")
    p.add_argument("--tree", metavar="FILE", default=None,
                   help="excluded tree (treefree)")
    p.add_argument("--limit", type=int, default=None,
                   help="light edge threshold (partition)")
    p.add_argument("--trace", action="store_true",
                   help="include the peel trace in the report")
    _add_common(p)
    p.set_defaults(handler=_cmd_colour)

    p = sub.add_parser("verify", help="re-check a colouring or certificate")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("--colouring", metavar="FILE", default=None,
                   help="JSON {vertex: colour} to check")
    p.add_argument("--defect", type=int, default=None,
                   help="allowed same-colour neighbours per vertex")
    p.add_argument("--certificate", metavar="FILE", default=None,
                   help="JSON certificate payload to re-validate")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--pattern", metavar="FILE", default=None,
                   help="pattern graph for minor-model certificates")
    p.add_argument("--tree", metavar="FILE", default=None,
                   help="tree for tree-embedding certificates")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p.add_argument("formula", nargs="?", default=None,
                   help=f"one of {sorted(FORMULAS)} or earth-moon")
    p.add_argument("--params", metavar="JSON", default=None,
                   help="formula parameters as a JSON object")
    _add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("gadget", help="emit a named construction")
    p.add_argument("name", help=f"one of {sorted(GADGETS)}")
    p.add_argument("params", nargs="*", type=int, help="integer parameters")
    p.add_argument("--format", choices=("edge-list", "dimacs", "json"),
                   default="edge-list", help="graph output format")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(handler=_cmd_gadget)

    p = sub.add_parser("experiment", help="run a seeded check suite")
    p.add_argument("name", help=f"one of {sorted(EXPERIMENTS)}")
    p.add_argument("--count", type=int, default=None,
                   help="override the instance count")
    p.add_argument("--size", type=int, default=None,
                   help="override the instance size")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for generated corpora")
    _add_common(p)
    p.set_defaults(handler=_cmd_experiment)

    return parser


def _check_out_dir(path: str | None) -> None:
    # refuse a mistyped --out before the work, not after it
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValidationError(f"cannot write {path}: no such directory")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    target = io.StringIO() if args.out else sys.stdout
    try:
        _check_out_dir(args.out)
        caps_mod.current_caps()  # a bad DEFEKT_CAPS is refused before any work
        code, payload = args.handler(args)
        payload = encode(payload)
    except (ParseError, ValidationError, CapExceededError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except StructuralError as exc:
        # the failure report is JSON whatever --format asks for
        code = STRUCTURAL_ERROR
        payload = json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
            "witness": None if exc.witness is None else _graph_payload(exc.witness),
        }, sort_keys=True, indent=2) + "\n"
    except AlgorithmError as exc:
        # a failed self-check is a bug, neither bad input nor a structural outcome
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return INTERNAL_ERROR
    if payload is not None:
        if isinstance(payload, str):
            target.write(payload)
        elif args.command == "experiment":
            _emit_rows(payload, args.format, target)
        else:
            _emit_payload(payload, getattr(args, "format", "json"), target)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(target.getvalue())
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
