"""Size caps for the exact search oracles.

Above its cap a brute-force routine either refuses the input
(``CapExceededError``) or, where a safe degradation exists, takes it and
labels the answer (``top_grad_half`` falls back to a
``heuristic-lower-bound``); none runs unbounded.  Defaults are sized so each
capped search finishes in seconds.  Every routine reads its cap from
``current_caps()`` when called; override them through the ``DEFEKT_CAPS``
environment variable (a JSON object such as ``{"minor_host": 12}``, unknown
keys rejected), the only place caps are set.
"""

from __future__ import annotations

import dataclasses
import json
import os
from functools import lru_cache

from .errors import ValidationError

ENV_VAR = "DEFEKT_CAPS"


@dataclasses.dataclass(frozen=True)
class Caps:
    top_grad: int = 20
    minor_host: int = 14
    minor_pattern: int = 8
    vertex_cover: int = 16
    tree_depth: int = 12
    kd_colour_k2: int = 18
    kd_colour_k3: int = 12
    gadget_vertices: int = 500_000


_FIELDS = {f.name for f in dataclasses.fields(Caps)}


@lru_cache(maxsize=8)
def _parse(raw: str | None) -> Caps:
    if not raw:
        return Caps()
    try:
        data = json.loads(raw)
    # ValueError also covers an integer too long to convert
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{ENV_VAR} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{ENV_VAR} must be a JSON object")
    unknown = set(data) - _FIELDS
    if unknown:
        raise ValidationError(f"{ENV_VAR} has unknown keys: {sorted(unknown)}")
    for key, value in data.items():
        if type(value) is not int or value < 0:
            raise ValidationError(f"{ENV_VAR}[{key!r}] must be a non-negative integer")
    return Caps(**data)


def current_caps() -> Caps:
    """The active cap set: package defaults overlaid with ``DEFEKT_CAPS``."""
    return _parse(os.environ.get(ENV_VAR))
