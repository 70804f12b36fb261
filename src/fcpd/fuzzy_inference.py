"""Mamdani fuzzy inference over linguistic variables.

The operator set is fixed: min for AND, max for OR, 1-x for NOT, min
(clipping) for implication, pointwise max for aggregation, and centroid
defuzzification over a uniformly sampled output domain.  Rule weights scale
the clip level: a consequent set is clipped at weight * firing_strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidDataError,
    MissingFeatureError,
    as_floats,
    check_int,
    check_real,
)

_MF_ARITY = {"tri": 3, "trap": 4, "gauss": 2, "zmf": 2, "smf": 2}


@dataclass(frozen=True)
class MembershipFunction:
    """One parametric membership function.

    kind: 'tri' (a, b, c), 'trap' (a, b, c, d), 'gauss' (center, width),
    'zmf' (a, b: 1 at a falling to 0 at b), 'smf' (a, b: 0 at a rising to 1).
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _MF_ARITY:
            raise InvalidConfigError(
                f"unknown membership kind {self.kind!r}; expected one of {sorted(_MF_ARITY)}"
            )
        arity = _MF_ARITY[self.kind]
        if not isinstance(self.params, (tuple, list)) or len(self.params) != arity:
            raise InvalidConfigError(f"{self.kind} takes {arity} parameters, got {self.params!r}")
        for p in self.params:
            check_real("membership parameter", p, -math.inf)
        params = tuple(float(p) for p in self.params)
        if self.kind == "tri":
            a, b, c = params
            if not (a <= b <= c) or a == c:
                raise InvalidConfigError(f"tri needs a <= b <= c with a < c, got {params}")
        elif self.kind == "trap":
            a, b, c, d = params
            if not (a <= b <= c <= d) or a == d:
                raise InvalidConfigError(f"trap needs a <= b <= c <= d with a < d, got {params}")
        elif self.kind == "gauss":
            if params[1] <= 0:
                raise InvalidConfigError(f"gauss width must be > 0, got {params[1]}")
        else:  # zmf / smf
            if not params[0] < params[1]:
                raise InvalidConfigError(f"{self.kind} needs a < b, got {params}")
        object.__setattr__(self, "params", params)
        # A set whose span or midpoint overflows is evaluated at x / 2 on
        # halved parameters, where both are finite and every ratio the same.
        lo, hi = params[0], params[-1]
        spans = (hi - lo, lo + hi) if self.kind in ("zmf", "smf") else (hi - lo,)
        overflows = self.kind != "gauss" and not all(map(math.isfinite, spans))
        halved = MembershipFunction(self.kind, tuple(p / 2.0 for p in params)) if overflows else None
        object.__setattr__(self, "_halved", halved)


def triangular(a: float, b: float, c: float) -> MembershipFunction:
    return MembershipFunction("tri", (a, b, c))


def trapezoidal(a: float, b: float, c: float, d: float) -> MembershipFunction:
    return MembershipFunction("trap", (a, b, c, d))


def gaussian(center: float, width: float) -> MembershipFunction:
    return MembershipFunction("gauss", (center, width))


def z_shape(a: float, b: float) -> MembershipFunction:
    return MembershipFunction("zmf", (a, b))


def s_shape(a: float, b: float) -> MembershipFunction:
    return MembershipFunction("smf", (a, b))


def _clip_unit(v: float) -> float:
    # np.clip(v, 0.0, 1.0) on one float: a -0.0 stays -0.0.
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def _mf_scalar(mf: MembershipFunction, x: float) -> float:
    # ``** 2`` rather than ``t * t``, and numpy's exp rather than math.exp:
    # the alternatives change the last bit of some degrees, which the tests
    # pin to a numpy reference.
    if mf.kind == "gauss":
        center, width = mf.params
        try:
            exponent = -((x - center) ** 2) / (2.0 * width * width)
        except (OverflowError, ZeroDivisionError):  # a square over- or underflows
            ratio = (x - center) / width
            exponent = -0.5 * ratio * ratio
        return _clip_unit(float(np.exp(exponent)))
    if mf._halved is not None:
        mf, x = mf._halved, x / 2.0
    if mf.kind in ("zmf", "smf"):
        a, b = mf.params
        span = b - a
        if x >= b:
            out = 1.0
        elif x <= a:
            out = 0.0
        elif x <= (a + b) / 2.0:
            out = 2.0 * ((x - a) / span) ** 2
        else:
            out = 1.0 - 2.0 * ((x - b) / span) ** 2
        return _clip_unit(1.0 - out if mf.kind == "zmf" else out)
    p = mf.params  # a triangle is a trapezoid whose top is the single point b
    a, b, c, d = p if mf.kind == "trap" else (p[0], p[1], p[1], p[2])
    if x < a or x > d:
        return 0.0
    left = 1.0 if b == a else (x - a) / (b - a)
    right = 1.0 if d == c else (d - x) / (d - c)
    return _clip_unit(min(left, right))


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise InvalidDataError("membership evaluation needs finite inputs")
    return value


def mf_eval(mf: MembershipFunction, x):
    """Membership degree of ``x`` (scalar or array); always within [0, 1].

    Every value goes through the same plain-float code: a scalar returns a
    float, an array an array of the same shape holding each element's degree.
    """
    xs = as_floats("membership input", x)
    if xs.ndim == 0:
        return _mf_scalar(mf, _finite(float(xs)))
    degrees = [_mf_scalar(mf, _finite(v)) for v in xs.ravel().tolist()]
    return np.array(degrees).reshape(xs.shape)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable with a bounded domain and named fuzzy sets."""

    name: str
    lo: float
    hi: float
    sets: dict[str, MembershipFunction]

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidConfigError("variable name must be non-empty")
        check_real(f"variable {self.name!r} lo", self.lo, -math.inf)
        check_real(f"variable {self.name!r} hi", self.hi, -math.inf)
        if not self.lo < self.hi:
            raise InvalidConfigError(
                f"variable {self.name!r} needs lo < hi, got [{self.lo}, {self.hi}]"
            )
        if not self.sets:
            raise InvalidConfigError(f"variable {self.name!r} declares no fuzzy sets")


@dataclass(frozen=True)
class Atom:
    """Antecedent leaf: ``variable is [not] fuzzy_set``."""

    variable: str
    fuzzy_set: str
    negated: bool = False


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


Expr = Union[Atom, And, Or]


@dataclass(frozen=True)
class Rule:
    """IF antecedent THEN (variable is fuzzy_set), with an optional weight in (0, 1]."""

    antecedent: Expr
    consequent_var: str
    consequent_set: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        check_real("rule weight", self.weight, 0)
        if self.weight > 1.0:
            raise InvalidConfigError(f"rule weight must be in (0, 1], got {self.weight}")


def _atoms(expr: Expr):
    # Left-to-right so referenced-variable listings follow source order.
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            yield node
        else:
            stack.extend((node.right, node.left))


@dataclass(frozen=True)
class FisConfig:
    """A validated inference system: input variables, one output, and rules."""

    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rules: tuple[Rule, ...]
    resolution: int = 1001

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise InvalidConfigError("an inference system needs at least one rule")
        check_int("resolution", self.resolution, 2)
        names = [v.name for v in self.inputs]
        if len(set(names)) != len(names):
            raise InvalidConfigError(f"duplicate input variable names in {names}")
        if self.output.name in names:
            raise InvalidConfigError(
                f"output variable {self.output.name!r} also declared as an input"
            )
        by_name = {v.name: v for v in self.inputs}
        for number, rule in enumerate(self.rules, start=1):
            for atom in _atoms(rule.antecedent):
                var = by_name.get(atom.variable)
                if atom.variable == self.output.name:
                    raise InvalidConfigError(
                        f"rule {number} reads the output variable {atom.variable!r}"
                    )
                if var is None:
                    raise InvalidConfigError(
                        f"rule references unknown input variable {atom.variable!r}"
                    )
                if atom.fuzzy_set not in var.sets:
                    raise InvalidConfigError(
                        f"variable {atom.variable!r} has no set {atom.fuzzy_set!r}"
                    )
            if rule.consequent_var != self.output.name:
                raise InvalidConfigError(
                    f"rule concludes on {rule.consequent_var!r}, output is {self.output.name!r}"
                )
            if rule.consequent_set not in self.output.sets:
                raise InvalidConfigError(
                    f"output variable has no set {rule.consequent_set!r}"
                )

    def input_variables_referenced(self) -> tuple[str, ...]:
        """Names of input variables appearing in any rule antecedent, in rule order."""
        seen: dict[str, None] = {}
        for rule in self.rules:
            for atom in _atoms(rule.antecedent):
                seen.setdefault(atom.variable, None)
        return tuple(seen)

    @cached_property
    def _compiled(self) -> tuple[dict[str, LinguisticVariable], np.ndarray, np.ndarray]:
        """What infer reuses on every record: the input variables by name,
        the output grid, and each rule's consequent set over that grid (one
        read-only row per rule; each distinct set is evaluated once).  Built
        on first use; the fields never change.
        """
        grid = np.linspace(self.output.lo, self.output.hi, self.resolution)
        names = dict.fromkeys(r.consequent_set for r in self.rules)
        over_grid = {name: mf_eval(self.output.sets[name], grid) for name in names}
        sets = np.array([over_grid[r.consequent_set] for r in self.rules])
        grid.flags.writeable = sets.flags.writeable = False
        return {v.name: v for v in self.inputs}, grid, sets


@dataclass(frozen=True)
class InferenceResult:
    """Defuzzified score plus diagnostics.

    degenerate is True when no rule produced any output mass; the score then
    falls back to the output domain midpoint.
    """

    score: float
    degenerate: bool
    firing_strengths: tuple[float, ...] = field(default=())


def _eval_expr(expr: Expr, variables: Mapping[str, LinguisticVariable], values) -> float:
    if isinstance(expr, Atom):
        var = variables[expr.variable]
        try:
            x = float(values.get(expr.variable))
        except (TypeError, ValueError, OverflowError):  # None, text, a list, an int past 1e308
            x = math.nan
        if not math.isfinite(x):
            raise MissingFeatureError(
                f"no finite value for input variable {expr.variable!r}"
            )
        # float(): the clamp may return an int domain bound, and past 2^53 an
        # int compares with the set's float parameters unlike its float.
        degree = _mf_scalar(var.sets[expr.fuzzy_set], float(min(max(x, var.lo), var.hi)))
        return 1.0 - degree if expr.negated else degree
    if isinstance(expr, And):
        return min(_eval_expr(expr.left, variables, values), _eval_expr(expr.right, variables, values))
    if isinstance(expr, Or):
        return max(_eval_expr(expr.left, variables, values), _eval_expr(expr.right, variables, values))
    raise InvalidConfigError(f"unknown antecedent node {expr!r}")


def infer(fis: FisConfig, values: Mapping[str, float]) -> InferenceResult:
    """Run the five Mamdani stages for one record of input values.

    Input values are clamped to their variable domains.  Raises
    MissingFeatureError when a referenced input has no finite value.
    """
    variables, grid, consequents = fis._compiled
    strengths = [
        rule.weight * _eval_expr(rule.antecedent, variables, values) for rule in fis.rules
    ]
    aggregate = np.zeros_like(grid)
    for strength, consequent in zip(strengths, consequents):
        if strength == 0.0:
            continue  # clipping at 0 adds nothing to the aggregate
        np.maximum(aggregate, np.minimum(strength, consequent), out=aggregate)
    mass = float(aggregate.sum())
    if mass <= 0.0:
        midpoint = (fis.output.lo + fis.output.hi) / 2.0
        return InferenceResult(score=midpoint, degenerate=True, firing_strengths=tuple(strengths))
    score = float((grid * aggregate).sum() / mass)
    return InferenceResult(score=score, degenerate=False, firing_strengths=tuple(strengths))
