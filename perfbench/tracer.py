"""Run-time spans around the public functions of each package layer.

``Tracer.install`` wraps every function in ``TARGETS`` and rebinds its name
in every loaded ``defekt`` module that holds the original, so calls from
inside the package (``top_grad_half`` calling ``mad_exact``) are seen as
well as the CLI's own.  ``uninstall`` puts every original back.

Each call opens a span (name, start, end, parent).  Spans are folded into
per-function totals as they close: calls, self time (the span's duration
minus that of the wrapped calls inside it) and exceptions raised.  A few
functions also have their return values inspected for work counters.
Timed runs never install the tracer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

TARGETS = {
    "graphs": ("sniff", "induced_subgraph", "contract_components"),
    "density": ("build_report", "mad_exact", "degeneracy", "top_grad_half"),
    "matching": ("max_bipartite_matching",),
    "structure": ("minor_test_bruteforce", "find_kst_star", "find_light_edge",
                  "vertex_cover_number", "tree_depth", "structural_dichotomy"),
    "colouring": ("build_peel_trace", "defective_list_colour",
                  "edge_partition_forest_bounded", "colour_kell", "colour_tree_free",
                  "verify_defective", "is_kd_colourable_bruteforce"),
    "bounds": ("evaluate", "n1"),
    "experiments": ("run_experiment",),
    "cli": ("main",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


def _peel_steps(result) -> dict:
    return {"steps": len(result.steps)}


def _kell_source(result) -> dict:
    return {"worst_case": result.diagnostics.get("density_source") == "worst-case"}


def _grad_method(result) -> dict:
    return {"heuristic": result[2] == "heuristic-lower-bound"}


# counters taken from return values: name -> result -> {counter: increment}
OBSERVERS = {
    "colouring.build_peel_trace": _peel_steps,
    "colouring.colour_kell": _kell_source,
    "density.top_grad_half": _grad_method,
}


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    child_s: float = 0.0
    end: float = 0.0


class Stats:
    __slots__ = ("calls", "self_s", "raised", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.counters: dict[str, int] = {}

    def merge(self, other: dict) -> None:
        self.calls += other["calls"]
        self.self_s += other["self_s"]
        self.raised += other["raised"]
        for key, value in other["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value

    def to_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "raised": self.raised, "counters": dict(self.counters)}


class Tracer:
    def __init__(self) -> None:
        self.stats = {name: Stats() for name in NAMES}
        self._current: Span | None = None
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), self._current)
            self._current = span
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                span.end = clock()
                self._current = span.parent
                duration = span.end - span.start
                stats.calls += 1
                stats.self_s += duration - span.child_s
                if span.parent is not None:
                    span.parent.child_s += duration
            if observe is not None:
                for key, inc in observe(result).items():
                    stats.counters[key] = stats.counters.get(key, 0) + inc
            return result

        return wrapper

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        for mod_name, fns in TARGETS.items():
            home = importlib.import_module(f"defekt.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in _package_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def merge(self, dumped: dict) -> None:
        for name, data in dumped.items():
            self.stats[name].merge(data)

    def dump(self) -> dict:
        return {name: s.to_dict() for name, s in self.stats.items()}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "defekt" or name.startswith("defekt."))]
