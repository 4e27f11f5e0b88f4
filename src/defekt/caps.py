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
import os
from functools import lru_cache

from .errors import ValidationError
from .wire import decode, read_object

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


@lru_cache(maxsize=8)
def _parse(raw: str | None) -> Caps:
    if not raw:
        return Caps()
    caps = decode(Caps, read_object(raw, ENV_VAR), ENV_VAR)
    for key, value in vars(caps).items():
        if value < 0:
            raise ValidationError(f"{ENV_VAR}: {key} must be non-negative")
    return caps


def current_caps() -> Caps:
    """The active cap set: package defaults overlaid with ``DEFEKT_CAPS``."""
    return _parse(os.environ.get(ENV_VAR))
