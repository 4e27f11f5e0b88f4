"""The JSON wire format, decided in one place.

``encode`` writes any report, certificate or table as JSON-ready values,
``decode`` reads a JSON object back into a dataclass or a function call
with its keys and ``int`` values checked against the signature, and
``read_object`` parses outside text that must hold one JSON object.  A
certificate's payload is its fields plus its ``kind``, so ``decode`` of
the payload without ``kind`` gives the certificate back.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from fractions import Fraction
from typing import get_args, get_origin, get_type_hints

from .errors import ValidationError
from .rationals import Enclosure


def read_object(text: str, what: str) -> dict:
    """Parse ``text``, which must be one JSON object."""
    try:
        data = json.loads(text)
    # ValueError also covers an integer too long to convert
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return data


def encode(value):
    """JSON-ready form of ``value``: an enclosure as ``{"exact"}`` or
    ``{"lo", "hi"}``, a Fraction as its string, a dataclass as its fields
    (plus ``kind`` when its type names one), a NamedTuple as a dict, a tuple
    as a list; containers are encoded all the way down."""
    # plain values first: they are nearly every call on a large payload
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (tuple, list)):
        if hasattr(value, "_asdict"):
            return encode(value._asdict())
        return [encode(x) for x in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, Enclosure):
        if value.is_exact:
            return {"exact": str(value.lo)}
        return {"lo": str(value.lo), "hi": str(value.hi)}
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value):
        out = {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
        # read from the type: a result may have a field of that name
        kind = getattr(type(value), "kind", None)
        if kind is not None:
            out["kind"] = kind
        return out
    return value


def decode(target, data: dict, where: str):
    """``target(**data)`` for a dataclass or function ``target``, once
    ``data`` fits its signature: no key it does not take, none missing that
    has no default, an exact ``int`` (not ``bool``) where it annotates
    ``int``, and a list, read entry by entry, where it annotates
    ``tuple[...]``.  Anything else raises ``ValidationError`` naming
    ``where``."""
    params = inspect.signature(target).parameters
    unknown = [k if k.isidentifier() else repr(k) for k in sorted(set(data) - set(params))]
    if unknown:
        raise ValidationError(f"{where} does not take {', '.join(unknown)}")
    hints = get_type_hints(target)
    values = {}
    for name, param in params.items():
        if name in data:
            values[name] = _read(data[name], hints.get(name), f"{where}: {name}")
        elif param.default is param.empty:
            raise ValidationError(f"{where} misses {name!r}")
    return target(**values)


def _read(value, hint, where: str):
    if hint is int:
        # bool is an int subclass, but true is not a count or a vertex
        if type(value) is not int:
            raise ValidationError(f"{where} must be an integer, got {type(value).__name__}")
        return value
    if get_origin(hint) is not tuple:
        return value
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a list, got {type(value).__name__}")
    args = get_args(hint)
    if len(args) == 2 and args[1] is Ellipsis:
        args = (args[0],) * len(value)
    elif len(value) != len(args):
        raise ValidationError(f"{where} must have {len(args)} entries, got {len(value)}")
    return tuple(_read(x, a, where) for x, a in zip(value, args))
