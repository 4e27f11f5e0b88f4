"""Closed-form defect and edge bounds, evaluated in exact rational arithmetic.

Values containing square roots travel as outward-rounded enclosures from
:mod:`defekt.rationals`; everything else is a Fraction or an int.  Each
public formula is registered under a stable id so the command line and the
report writers can name what they evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor
from typing import NamedTuple

from .errors import ValidationError
from .rationals import Enclosure, exact, sqrt_enclosure
from .wire import decode


def _fr(x) -> Fraction:
    if isinstance(x, float):
        raise ValidationError("floats are not accepted; pass ints or 'p/q' strings")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValidationError(
            f"{x!r} is not a rational; pass an int or a 'p/q' string"
        ) from None


# ---------------------------------------------------------------------------
# the threshold function behind the light-edge / dense-pattern dichotomy

def n1(s: int, t: int, delta, delta1) -> Fraction:
    """Degree threshold below which a sparse graph must contain either a
    low-degree vertex or a light edge, given that dense bipartite patterns
    are excluded.

    ``delta`` bounds the average degree of every subgraph, ``delta1`` the
    average degree of every graph whose exact 1-subdivision embeds.
    """
    if s < 1 or t < 1:
        raise ValidationError("need s >= 1 and t >= 1")
    delta, delta1 = _fr(delta), _fr(delta1)
    if delta <= 0 or delta1 <= 0:
        raise ValidationError("degree bounds must be positive")
    if s == 1:
        return Fraction(t - 1)
    if s == 2:
        return Fraction(1, 2) * (delta - 2) * delta1 * t + delta
    return (delta - s) * (comb(floor(delta1), s - 1) * (t - 1) + delta1 / 2) + delta


def main_defect_bound(s: int, t: int, mad, top_grad) -> int:
    """Defect for s-colour list colouring when the starred K_{s,t} pattern
    is absent: floor of the threshold, minus s-1.
    """
    mad, top_grad = _fr(mad), _fr(top_grad)
    if mad > 2 * top_grad:
        raise ValidationError("mad cannot exceed twice the subdivision density")
    return floor(n1(s, t, mad, 2 * top_grad)) - s + 1


# ---------------------------------------------------------------------------
# surfaces

def dg(genus: int) -> Enclosure:
    """Edge-density constant for Euler genus g: max(3, (5+sqrt(24g+1))/4)."""
    if genus < 0:
        raise ValidationError("genus must be non-negative")
    root = sqrt_enclosure(24 * genus + 1)
    return ((root + 5) * Fraction(1, 4)).max_with(3)


def surface_edge_bound(genus: int, n: int) -> Enclosure:
    """Edge count bound d_g * n for an n-vertex graph of Euler genus g."""
    if n < 0:
        raise ValidationError("vertex count must be non-negative")
    return dg(genus) * n


def crossing_lower_bound(n: int, m: int, genus: int) -> Enclosure:
    """Minimum crossings when drawn in the surface of Euler genus g.

    Uses m^3 / (8 (d_g n)^2) once m is at least twice the edge bound, and
    the naive excess m - d_g n (floored at zero) below that.
    """
    if n <= 0 or m < 0:
        raise ValidationError("need n > 0 and m >= 0")
    d = dg(genus)
    edge_bound = d * n
    if exact(m) >= 2 * edge_bound:
        return exact(m**3) / (8 * edge_bound * edge_bound)
    return (exact(m) - edge_bound).max_with(0)


def close_genus_edge_bound(k: int, genus: int, n: int) -> Enclosure:
    """Edge bound sqrt(8k+4) * d_g * n for graphs k crossings away from
    embeddable in the surface of Euler genus g."""
    if k < 0 or n < 0:
        raise ValidationError("need k >= 0 and n >= 0")
    return sqrt_enclosure(8 * k + 4) * dg(genus) * n


def k3t_crossing_bound(t: int, genus: int) -> Fraction:
    """Crossings forced by K_{3,t} in the genus-g surface:
    t(t-1) / ((2g+3)(2g+2))."""
    if t < 2:
        raise ValidationError("needs t >= 2")
    if genus < 0:
        raise ValidationError("genus must be non-negative")
    return Fraction(t * (t - 1), (2 * genus + 3) * (2 * genus + 2))


def close_genus_k3t_max(k: int, genus: int) -> int:
    """Largest t for which K_{3,t} can appear with at most k crossings in
    the genus-g surface: 3k(2g+3)(2g+2) + 1."""
    if k < 0 or genus < 0:
        raise ValidationError("need k >= 0 and genus >= 0")
    return 3 * k * (2 * genus + 3) * (2 * genus + 2) + 1


# ---------------------------------------------------------------------------
# quadratic light-edge machinery

def light_edge_general_check(a, b, a2, b2, delta, ell) -> bool:
    """Whether the coefficient conditions guaranteeing an (ell-1)-light edge
    hold for a graph class with edge bounds a*n+b (graphs) and a2*n+b2
    (bipartite subgraphs) at minimum degree delta.
    """
    a, b, a2, b2 = _fr(a), _fr(b), _fr(a2), _fr(b2)
    delta, ell = _fr(delta), _fr(ell)
    cond1 = 2 * a >= delta > a2
    cond2 = (delta - a2) * ell > (2 * a - a2) * delta
    lhs = (
        (delta - a2) * ell * ell
        - ((2 * a - a2) * delta + b2 - delta + a2) * ell
        - (2 * a - a2 + 2 * b - b2) * delta
    )
    return bool(cond1 and cond2 and lhs > 0)


def root_upper_approx(alpha, beta, gamma) -> Fraction:
    """Upper bound beta/alpha + gamma/beta for the positive root of
    alpha x^2 - beta x - gamma."""
    alpha, beta, gamma = _fr(alpha), _fr(beta), _fr(gamma)
    if alpha <= 0 or beta <= 0 or gamma < 0:
        raise ValidationError("need alpha, beta > 0 and gamma >= 0")
    return beta / alpha + gamma / beta


def genus_thickness_light_bound(k: int, genus: int) -> int:
    """Light-edge threshold 2kg + 8k^2 + 4k for graphs of genus-g thickness k
    at minimum degree 2k+1."""
    if k < 1 or genus < 0:
        raise ValidationError("need k >= 1 and genus >= 0")
    return 2 * k * genus + 8 * k * k + 4 * k


def genus_thickness_colour_params(k: int, genus: int) -> tuple[int, int]:
    """(colours, defect) = (2k+1, 2kg + 8k^2 + 2k) for genus-g thickness k."""
    if k < 1 or genus < 0:
        raise ValidationError("need k >= 1 and genus >= 0")
    return (2 * k + 1, 2 * k * genus + 8 * k * k + 2 * k)


# ---------------------------------------------------------------------------
# parameter bundles for layered layouts

class ParamBundle(NamedTuple):
    s: int
    t: int
    delta: Fraction
    delta1: Fraction
    defect: int


def stack_params(k: int) -> ParamBundle:
    """Colour/defect parameters for graphs of stack number k."""
    if k < 1:
        raise ValidationError("stack number must be at least 1")
    s = k + 1
    t = k * (k + 1) + 1
    delta = Fraction(2 * k + 2)
    delta1 = Fraction(40 * k * k)
    d = floor(n1(s, t, delta, delta1)) - s + 1
    return ParamBundle(s, t, delta, delta1, d)


def queue_params(k: int) -> ParamBundle:
    """Colour/defect parameters for graphs of queue number k."""
    if k < 1:
        raise ValidationError("queue number must be at least 1")
    s = 2 * k + 1
    t = 2 * k + 1
    delta = Fraction(4 * k)
    delta1 = Fraction(2 * (2 * k + 2) ** 2)
    d = floor(n1(s, t, delta, delta1)) - s + 1
    return ParamBundle(s, t, delta, delta1, d)


# ---------------------------------------------------------------------------
# recorded tables

def earth_moon_table() -> list[dict]:
    """Colour/defect pairs for graphs of thickness two.

    Only the first row follows from the thickness formulas in this module;
    the rest are fixed reference constants kept for regression comparison.
    """
    colours, defect = genus_thickness_colour_params(2, 0)
    rows = [{"colours": colours, "defect": defect, "source": "derived"}]
    for c, d in ((6, 19), (7, 12), (8, 9), (9, 6), (10, 4), (11, 2)):
        rows.append({"colours": c, "defect": d, "source": "recorded"})
    return rows


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class BoundResult:
    formula_id: str
    params: dict
    value: object


FORMULAS = {
    "n1": n1,
    "main-defect": main_defect_bound,
    "surface-dg": dg,
    "surface-edges": surface_edge_bound,
    "crossing-lower": crossing_lower_bound,
    "close-genus-edges": close_genus_edge_bound,
    "close-genus-k3t-max": close_genus_k3t_max,
    "k3t-crossings": k3t_crossing_bound,
    "light-edge-check": light_edge_general_check,
    "root-upper": root_upper_approx,
    "genus-thickness-light": genus_thickness_light_bound,
    "genus-thickness-colours": genus_thickness_colour_params,
    "stack-params": stack_params,
    "queue-params": queue_params,
}


def evaluate(formula_id: str, /, **params) -> BoundResult:
    """Evaluate a registered formula by id.

    Unknown ids, missing or unexpected parameters, a non-int (or bool) value
    for a parameter the formula annotates as ``int``, and a rational one that
    ``Fraction`` cannot read all raise ``ValidationError``.
    """
    if formula_id not in FORMULAS:
        raise ValidationError(f"unknown formula {formula_id!r}")
    value = decode(FORMULAS[formula_id], params, formula_id)
    return BoundResult(formula_id=formula_id, params=dict(params), value=value)
