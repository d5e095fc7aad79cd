"""Quantifying causal effects: scale functions, difference functionals, scores.

Probabilities stay exact rationals until a transcendental scale function is
applied; the sinh-based scale and Euclidean norms use binary64 floats. The
linear scale and all built-in difference functionals are exact, so their
scores compare with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from .errors import EmptySubjectError, MissingNumericVariableError, NonBinaryTreatmentError
from .kernels import CausalSpace, InterventionSpec, intervention_kernel, intervention_measure
from .measure import Measure, RandomVariable, mean_and_variance
from .space import Event, Outcome, Partition, coordinate_subalgebra

Scalar = Union[Fraction, float]

_GRID_STEPS = 1024
_FLOAT_TOL = 1e-12
_HALF = Fraction(1, 2)


def scale_f1(x) -> Fraction:
    """The linear scale: a raw probability shift, exact."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"scale functions are defined on [0, 1], got {x}")
    return x - _HALF


def scale_f2(x) -> float:
    """The sinh-based scale: flat near 1/2, steep near the boundaries."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"scale functions are defined on [0, 1], got {x}")
    return math.sinh(x - 0.5) / (2.0 * math.sinh(0.5))


@dataclass(frozen=True)
class ScaleFunction:
    """A named map [0,1] -> [-1/2, 1/2], non-decreasing and symmetric.

    Validated at construction on a uniform 1025-point grid: boundary values,
    monotonicity, and the symmetry f(x) = -f(1-x); exactly for rational-valued
    functions, to 1e-12 for float-valued ones. The built-in :data:`F1` and
    :data:`F2` run the same check on their first call instead, so importing
    the package does not pay for it.
    """

    name: str
    fn: Callable[[Scalar], Scalar]
    exact: bool = False

    _unchecked = False  # not a field: set only on scales made by _deferred

    @classmethod
    def _deferred(cls, name: str, fn: Callable[[Scalar], Scalar], exact: bool = False) -> "ScaleFunction":
        """A scale whose grid check runs on its first call, not at construction."""
        scale = object.__new__(cls)
        for attr, value in (("name", name), ("fn", fn), ("exact", exact), ("_unchecked", True)):
            object.__setattr__(scale, attr, value)
        return scale

    def __post_init__(self):
        self._check()

    def _check(self) -> None:
        tol = 0 if self.exact else _FLOAT_TOL
        xs = [Fraction(i, _GRID_STEPS) for i in range(_GRID_STEPS + 1)]
        ys = [self._eval(x) for x in xs]
        for anchor, want in ((0, -_HALF), (_GRID_STEPS // 2, 0), (_GRID_STEPS, _HALF)):
            if abs(ys[anchor] - want) > tol:
                raise ValueError(f"{self.name}: boundary value at x={xs[anchor]} is {ys[anchor]}, want {want}")
        for i in range(_GRID_STEPS):
            if ys[i + 1] < ys[i] - tol:
                raise ValueError(f"{self.name}: not non-decreasing near x={xs[i]}")
        for i in range(_GRID_STEPS + 1):
            if abs(ys[i] + ys[_GRID_STEPS - i]) > tol:
                raise ValueError(f"{self.name}: not symmetric around 1/2 at x={xs[i]}")

    def _eval(self, x: Fraction) -> Scalar:
        return self.fn(x if self.exact else float(x))

    def __call__(self, x) -> Scalar:
        if self._unchecked:
            self._check()  # raises, and stays unchecked, if the scale is invalid
            object.__setattr__(self, "_unchecked", False)
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError(f"scale functions are defined on [0, 1], got {x}")
        return self._eval(x)


F1 = ScaleFunction._deferred("f1", scale_f1, exact=True)
F2 = ScaleFunction._deferred("f2", scale_f2)


@dataclass(frozen=True)
class DifferenceFunctional:
    """A named comparator of two measures restricted to a sigma-algebra.

    Values live in a normed space: absolute value in dimension one, the
    Euclidean norm otherwise. `evaluate` returns a tuple of that dimension.
    """

    name: str
    dim: int
    fn: Callable[[Measure, Measure, Partition, Optional[RandomVariable]], tuple]
    needs_variable: bool = False

    def evaluate(
        self,
        mu: Measure,
        nu: Measure,
        algebra: Partition,
        variable: Optional[RandomVariable] = None,
    ) -> tuple:
        if self.needs_variable:
            if variable is None:
                raise MissingNumericVariableError(f"functional {self.name!r} needs a numeric random variable")
            if not variable.measurable_wrt(algebra):
                raise ValueError("the random variable is not measurable w.r.t. the target algebra")
        out = self.fn(mu, nu, algebra, variable)
        if len(out) != self.dim:
            raise ValueError(f"functional {self.name!r} returned dimension {len(out)}, declared {self.dim}")
        return out

    @staticmethod
    def norm_squared(values: tuple):
        """Exact squared Euclidean norm when all entries are rational, else float."""
        if all(isinstance(v, Fraction) for v in values):
            return sum((v * v for v in values), Fraction(0))
        return float(sum(float(v) ** 2 for v in values))


def _mean_diff(mu, nu, algebra, rv):
    return (mean_and_variance(mu, rv)[0] - mean_and_variance(nu, rv)[0],)


def _variance_diff(mu, nu, algebra, rv):
    return (mean_and_variance(mu, rv)[1] - mean_and_variance(nu, rv)[1],)


def _total_variation(mu, nu, algebra, rv):
    return (sum((abs(mu(b) - nu(b)) for b in algebra.blocks), Fraction(0)) / 2,)


def _mean_and_variance_diff(mu, nu, algebra, rv):
    m1, v1 = mean_and_variance(mu, rv)
    m2, v2 = mean_and_variance(nu, rv)
    return (m1 - m2, v1 - v2)


MEAN_DIFF = DifferenceFunctional("mean_diff", 1, _mean_diff, needs_variable=True)
VARIANCE_DIFF = DifferenceFunctional("variance_diff", 1, _variance_diff, needs_variable=True)
TOTAL_VARIATION = DifferenceFunctional("total_variation", 1, _total_variation)
MEAN_AND_VARIANCE_DIFF = DifferenceFunctional("mean_and_variance_diff", 2, _mean_and_variance_diff, needs_variable=True)


def builtin_difference_functionals() -> dict[str, DifferenceFunctional]:
    return {
        f.name: f
        for f in (MEAN_DIFF, VARIANCE_DIFF, TOTAL_VARIATION, MEAN_AND_VARIANCE_DIFF)
    }


@dataclass(frozen=True)
class EffectScore:
    """A computed score: its value plus the query that produced it.

    `value` is a scalar for one-dimensional scores, a tuple otherwise. For
    maximum scores `argmax` is the achieving outcome (first in canonical
    order) and `tied` flags other rows reaching the same magnitude.
    """

    value: Union[Scalar, tuple]
    coords: frozenset
    target: Union[Event, Partition]
    q: Optional[Measure] = None
    subject: Optional[Event] = None
    argmax: Optional[Outcome] = None
    tied: bool = False

    def magnitude(self):
        if isinstance(self.value, tuple):
            return DifferenceFunctional.norm_squared(self.value)
        return abs(self.value)


def mean_effect_score_event(
    cs: CausalSpace,
    coords: Iterable[str],
    q: Measure,
    a: Event,
    scale: ScaleFunction,
) -> EffectScore:
    """The signed scaled shift of the probability of `a` under the intervention."""
    coords = cs.space.check_subset(coords)
    pdo = intervention_measure(cs, InterventionSpec(coords, q))
    a = frozenset(a)
    value = scale(pdo(a)) - scale(cs.observational(a))
    return EffectScore(value, coords, a, q=q)


def _score_candidates(cs: CausalSpace, coords: frozenset, b: Event) -> list[tuple[Outcome, Outcome]]:
    """(representative outcome, row key) per distinct kernel row reachable from `b`.

    Outcomes sharing a row table collapse to the first one in canonical space
    order; candidates keep that order, which is also the tie-break order.
    """
    if not b:
        raise EmptySubjectError("the subject event is empty")
    if not coordinate_subalgebra(cs.space, coords).contains_event(b):
        raise ValueError("the subject event is not measurable w.r.t. the intervened coordinates")
    kernel = cs.kernel(coords)
    seen_rows: list = []
    out = []
    for omega in cs.space.sort_event(b):
        key = cs.space.restrict(omega, coords)
        table = kernel.rows[key]
        if table in seen_rows:
            continue
        seen_rows.append(table)
        out.append((omega, key))
    return out


def _maximum(scored: list[tuple]) -> tuple:
    """(outcome, value, tied): the first of the (outcome, value, size) triples of largest size."""
    best = max(size for _, _, size in scored)
    winners = [(omega, value) for omega, value, size in scored if size == best]
    return (*winners[0], len(winners) > 1)


def max_effect_score_event(
    cs: CausalSpace,
    coords: Iterable[str],
    b: Event,
    a: Event,
    scale: ScaleFunction,
) -> EffectScore:
    """The largest scaled shift achievable by a point intervention within `b`."""
    coords = cs.space.check_subset(coords)
    a = frozenset(a)
    base = scale(cs.observational(a))
    kernel = cs.kernel(coords)
    shifts = [(omega, scale(kernel.value(key, a)) - base) for omega, key in _score_candidates(cs, coords, frozenset(b))]
    omega_max, value, tied = _maximum([(omega, s, abs(s)) for omega, s in shifts])
    return EffectScore(value, coords, a, subject=frozenset(b), argmax=omega_max, tied=tied)


def mean_effect_score_algebra(
    cs: CausalSpace,
    coords: Iterable[str],
    q: Measure,
    algebra: Partition,
    functional: DifferenceFunctional,
    variable: Optional[RandomVariable] = None,
) -> EffectScore:
    """The functional's comparison of the intervention measure against the observational one."""
    coords = cs.space.check_subset(coords)
    pdo = intervention_measure(cs, InterventionSpec(coords, q))
    values = functional.evaluate(pdo, cs.observational, algebra, variable)
    return EffectScore(values[0] if functional.dim == 1 else values, coords, algebra, q=q)


def max_effect_score_algebra(
    cs: CausalSpace,
    coords: Iterable[str],
    b: Event,
    algebra: Partition,
    functional: DifferenceFunctional,
    variable: Optional[RandomVariable] = None,
) -> EffectScore:
    """The functional value at the point intervention within `b` of maximal norm."""
    coords = cs.space.check_subset(coords)
    kernel = cs.kernel(coords)
    scored = []
    for omega, key in _score_candidates(cs, coords, frozenset(b)):
        values = functional.evaluate(kernel.row(key), cs.observational, algebra, variable)
        scored.append((omega, values, functional.norm_squared(values)))
    omega_max, values, tied = _maximum(scored)
    value = values[0] if functional.dim == 1 else values
    return EffectScore(value, coords, algebra, subject=frozenset(b), argmax=omega_max, tied=tied)


def ate(cs: CausalSpace, treatment: str, outcome: RandomVariable) -> Fraction:
    """The average treatment effect of a binary coordinate on a numeric variable.

    Computed in the space obtained by first forcing the control level, scoring
    a further intervention to the treated level; the sequential-intervention
    identity makes this equal the direct contrast of the two point
    interventions, and both paths are computed and compared. Only the kernels
    read are derived: the control space's measure and its kernel on the
    treatment, not its whole family. That kernel is the stored kernel on the
    treatment, which intervening on the treatment leaves unchanged, so the
    only kernels built are the two measures' kernels on the empty subset.
    """
    labels = set(cs.space.coordinate(treatment).labels)
    if labels != {"0", "1"}:
        raise NonBinaryTreatmentError(f"coordinate {treatment!r} is labelled {sorted(labels)}, need exactly 0/1")
    do0 = InterventionSpec.point(cs.space, {treatment: "0"})
    do1 = InterventionSpec.point(cs.space, {treatment: "1"})
    control = intervention_measure(cs, do0)
    # intervening on the control space to the treated level reads its kernel on the treatment there
    sequential = intervention_kernel(cs, do0, {treatment}).row(("1",))
    direct = intervention_measure(cs, do1)
    if sequential != direct:
        raise AssertionError("sequential-intervention identity violated; this is a bug")
    treated_mean = mean_and_variance(sequential, outcome)[0]
    control_mean = mean_and_variance(control, outcome)[0]
    return treated_mean - control_mean
