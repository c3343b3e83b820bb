"""Upper-bound formulas checked by the verification lab.

Every bound is an exact rational in n and the degree extremes, evaluated
by integer cross-multiplication; floating point never decides pass/fail.
The short IDs (T31, C32, ...) are the stable names used by the CLI bound
filter and the report columns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import UnknownBoundError
from .graph import INFINITE_DIAMETER, Graph

TARGET_DGAME = "igt"
TARGET_SGAME = "igtS"
TARGET_BOTH = "both"


class GraphFacts(NamedTuple):
    """The structural inputs every bound is a function of."""
    n: int
    m: int
    min_degree: int
    max_degree: int
    diameter: float
    connected: bool

    @classmethod
    def of(cls, g: Graph) -> "GraphFacts":
        # The diameter's breadth-first sweep also decides connectivity.
        diameter = g.diameter
        return cls(n=g.n, m=g.m, min_degree=g.min_degree, max_degree=g.max_degree,
                   diameter=diameter, connected=diameter != INFINITE_DIAMETER)


class BoundSpec(NamedTuple):
    """One inequality: value(facts) bounds the targeted game value(s)."""
    name: str
    description: str
    target: str
    applies: Callable[[GraphFacts], bool]
    value: Callable[[GraphFacts], Fraction]
    strict: Callable[[GraphFacts], bool]

    def targets(self) -> tuple[str, ...]:
        if self.target == TARGET_BOTH:
            return (TARGET_DGAME, TARGET_SGAME)
        return (self.target,)


class BoundCheck(NamedTuple):
    """Evaluation of one bound on one graph."""
    name: str
    target: str
    applicable: bool
    value: Fraction | None
    strict: bool | None
    passed: bool | None
    slack: Fraction | None


def _base(facts: GraphFacts) -> bool:
    return facts.connected and facts.n >= 3


def _base_min2(facts: GraphFacts) -> bool:
    return _base(facts) and facts.min_degree >= 2


def _never_strict(facts: GraphFacts) -> bool:
    return False


def _always_strict(facts: GraphFacts) -> bool:
    return True


# The full bound set, in report order.
BOUNDS: tuple[BoundSpec, ...] = (
    BoundSpec(
        name="T31", target=TARGET_DGAME,
        description="degree-refined bound ((2d-1)n - (D-2)) / (3d-2) on the "
                    "Dominator-start game (d = min degree, D = max degree)",
        applies=_base_min2,
        value=lambda f: Fraction((2 * f.min_degree - 1) * f.n - (f.max_degree - 2),
                                 3 * f.min_degree - 2),
        strict=_never_strict,
    ),
    BoundSpec(
        name="C32", target=TARGET_DGAME,
        description="(2d-1)n / (3d-2) on the Dominator-start game, strict once "
                    "the max degree reaches 3",
        applies=_base_min2,
        value=lambda f: Fraction((2 * f.min_degree - 1) * f.n, 3 * f.min_degree - 2),
        strict=lambda f: f.max_degree >= 3,
    ),
    BoundSpec(
        name="T33", target=TARGET_SGAME,
        description="degree-refined bound ((2d-1)n - (d-1)(2d-3)) / (3d-2) on "
                    "the Staller-start game",
        applies=_base_min2,
        value=lambda f: Fraction(
            (2 * f.min_degree - 1) * f.n - (f.min_degree - 1) * (2 * f.min_degree - 3),
            3 * f.min_degree - 2),
        strict=_never_strict,
    ),
    BoundSpec(
        name="C34", target=TARGET_SGAME,
        description="(2d-1)n / (3d-2) - 1/4 on the Staller-start game, strict "
                    "once the min degree reaches 3",
        applies=_base_min2,
        value=lambda f: Fraction((2 * f.min_degree - 1) * f.n, 3 * f.min_degree - 2)
        - Fraction(1, 4),
        strict=lambda f: f.min_degree >= 3,
    ),
    BoundSpec(
        name="C35a", target=TARGET_DGAME,
        description="3n/4 on the Dominator-start game for min degree >= 2",
        applies=_base_min2,
        value=lambda f: Fraction(3 * f.n, 4),
        strict=_never_strict,
    ),
    BoundSpec(
        name="C35b", target=TARGET_SGAME,
        description="3n/4 - 1/4 on the Staller-start game for min degree >= 2",
        applies=_base_min2,
        value=lambda f: Fraction(3 * f.n, 4) - Fraction(1, 4),
        strict=_never_strict,
    ),
    BoundSpec(
        name="T36", target=TARGET_BOTH,
        description="2n/3 on both games for diameter at most 2",
        applies=lambda f: _base(f) and f.diameter <= 2,
        value=lambda f: Fraction(2 * f.n, 3),
        strict=_never_strict,
    ),
    BoundSpec(
        name="T41", target=TARGET_DGAME,
        description="strict 5n/6 on the Dominator-start game for every "
                    "connected graph",
        applies=_base,
        value=lambda f: Fraction(5 * f.n, 6),
        strict=_always_strict,
    ),
    BoundSpec(
        name="T42", target=TARGET_SGAME,
        description="5n/6 on the Staller-start game for every connected graph",
        applies=_base,
        value=lambda f: Fraction(5 * f.n, 6),
        strict=_never_strict,
    ),
)


def bound_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in BOUNDS)


def bounds_by_name(names: list[str] | tuple[str, ...] | None) -> tuple[BoundSpec, ...]:
    """Resolve a name filter; None means all bounds. Each named bound is
    returned once, in the order it was first named."""
    if names is None:
        return BOUNDS
    known = {spec.name: spec for spec in BOUNDS}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise UnknownBoundError(
            f"unknown bound(s) {', '.join(unknown)}; valid: {', '.join(known)}")
    return tuple(known[name] for name in dict.fromkeys(names))


def satisfies(game_value: int, bound: Fraction, strict: bool) -> bool:
    """Integer cross-multiplication comparison, no floating point."""
    lhs = game_value * bound.denominator
    rhs = bound.numerator
    return lhs < rhs if strict else lhs <= rhs


def largest_satisfying(bound: Fraction, strict: bool) -> int:
    """The largest integer game value that :func:`satisfies` the bound."""
    return (bound.numerator - strict) // bound.denominator


def check_bound(spec: BoundSpec, facts: GraphFacts, igt: int, igts: int) -> BoundCheck:
    """Evaluate one bound against solved game values.

    For a both-target bound, ``passed`` is the conjunction over both games
    and ``slack`` the tighter of the two margins.
    """
    if not spec.applies(facts):
        return BoundCheck(name=spec.name, target=spec.target, applicable=False,
                          value=None, strict=None, passed=None, slack=None)
    value = spec.value(facts)
    strict = spec.strict(facts)
    achieved = {TARGET_DGAME: igt, TARGET_SGAME: igts}
    passed = all(satisfies(achieved[t], value, strict) for t in spec.targets())
    slack = min(value - achieved[t] for t in spec.targets())
    return BoundCheck(name=spec.name, target=spec.target, applicable=True,
                      value=value, strict=strict, passed=passed, slack=slack)


def check_key(facts: GraphFacts, igt: int, igts: int) -> tuple:
    """Everything of its arguments that :func:`check_all` reads: for one bound
    set, equal keys give equal checks. The bounds read no edge count and,
    of the diameter, only whether it is at most 2."""
    return (facts.n, facts.min_degree, facts.max_degree, facts.diameter <= 2,
            facts.connected, igt, igts)


def check_all(facts: GraphFacts, igt: int, igts: int,
              specs: tuple[BoundSpec, ...] | None = None) -> tuple[BoundCheck, ...]:
    return tuple(check_bound(spec, facts, igt, igts)
                 for spec in (BOUNDS if specs is None else specs))
