"""Quantifying causal effects: scale functions, difference functionals, scores.

Every score compares one measure against the observational one. The four
score functions share two paths and differ only in that comparison:

- the mean path applies it to the measure after the intervention;
- the maximum path applies it to each distinct kernel row that a point
  intervention within the subject event selects, read off the subject's
  cylinder image, and keeps the first row of largest size.

The event scores compare scaled probabilities of one event, sized by their
absolute value; the algebra scores apply a difference functional, sized by
its squared Euclidean norm. Each score first checks its target by the
space's own rules: an event by ``ProductSpace.event``, an algebra by
``ProductSpace.check_partition``, so a stray member or a partition of
another space raises ValueError. The average treatment effect is the
mean-difference functional between two point interventions.

Probabilities stay exact rationals until a transcendental scale function is
applied; the sinh-based scale and Euclidean norms use binary64 floats. The
linear scale and all built-in difference functionals are exact, so their
scores compare with zero tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from .errors import EmptySubjectError, MissingNumericVariableError, NonBinaryTreatmentError
from .kernels import CausalKernel, CausalSpace, InterventionSpec, intervention_kernel, intervention_measure
from .measure import Measure, RandomVariable, _mean, exact_sum, mean_and_variance
from .space import Event, Outcome, Partition, _Value

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


class ScaleFunction(_Value):
    """A named map [0,1] -> [-1/2, 1/2], non-decreasing and symmetric.

    Validated at construction on a uniform 1025-point grid: boundary values,
    monotonicity, and the symmetry f(x) = -f(1-x); exactly for rational-valued
    functions, to 1e-12 for float-valued ones. The built-in :data:`F1` and
    :data:`F2` run the same check on their first call instead, so importing
    the package does not pay for it.
    """

    _fields = ("name", "fn", "exact")
    _unchecked = False  # not a field: set only on scales made by _deferred

    def __init__(self, name: str, fn: Callable[[Scalar], Scalar], exact: bool = False):
        self.__dict__.update(name=name, fn=fn, exact=exact)
        self.__post_init__()

    @classmethod
    def _deferred(cls, name: str, fn: Callable[[Scalar], Scalar], exact: bool = False) -> "ScaleFunction":
        """A scale whose grid check runs on its first call, not at construction."""
        scale = object.__new__(cls)
        scale.__dict__.update(name=name, fn=fn, exact=exact, _unchecked=True)
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


class DifferenceFunctional(_Value):
    """A named comparator of two measures restricted to a sigma-algebra.

    Values live in a normed space: absolute value in dimension one, the
    Euclidean norm otherwise. `evaluate` returns a tuple of that dimension.
    """

    _fields = ("name", "dim", "fn", "needs_variable")

    def __init__(
        self,
        name: str,
        dim: int,
        fn: Callable[[Measure, Measure, Partition, Optional[RandomVariable]], tuple],
        needs_variable: bool = False,
    ):
        self.__dict__.update(name=name, dim=dim, fn=fn, needs_variable=needs_variable)

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
        return tuple(out)

    @staticmethod
    def norm_squared(values: tuple):
        """Exact squared Euclidean norm when all entries are rational, else float."""
        if all(isinstance(v, Fraction) for v in values):
            return exact_sum([v * v for v in values])
        return float(sum(float(v) ** 2 for v in values))


def _moments(*which: int) -> Callable:
    """The functional whose entries are the (mean, variance) entries at `which` under mu less those under nu.

    The second moment is built only when the variance is among them.
    """
    moments = mean_and_variance if 1 in which else _mean

    def diff(mu, nu, algebra, rv):
        ours, theirs = moments(mu, rv), moments(nu, rv)
        return tuple(ours[i] - theirs[i] for i in which)

    return diff


def _total_variation(mu, nu, algebra, rv):
    return (exact_sum([abs(mu(b) - nu(b)) for b in algebra.blocks]) / 2,)


MEAN_DIFF = DifferenceFunctional("mean_diff", 1, _moments(0), needs_variable=True)
VARIANCE_DIFF = DifferenceFunctional("variance_diff", 1, _moments(1), needs_variable=True)
TOTAL_VARIATION = DifferenceFunctional("total_variation", 1, _total_variation)
MEAN_AND_VARIANCE_DIFF = DifferenceFunctional("mean_and_variance_diff", 2, _moments(0, 1), needs_variable=True)


def builtin_difference_functionals() -> dict[str, DifferenceFunctional]:
    return {
        f.name: f
        for f in (MEAN_DIFF, VARIANCE_DIFF, TOTAL_VARIATION, MEAN_AND_VARIANCE_DIFF)
    }


class EffectScore(_Value):
    """A computed score: its value plus the query that produced it.

    `value` is a scalar for one-dimensional scores, a tuple otherwise. For
    maximum scores `argmax` is the achieving outcome (first in canonical
    order) and `tied` flags other rows reaching the same magnitude.
    """

    _fields = ("value", "coords", "target", "q", "subject", "argmax", "tied")

    def __init__(
        self,
        value: Union[Scalar, tuple],
        coords: frozenset,
        target: Union[Event, Partition],
        q: Optional[Measure] = None,
        subject: Optional[Event] = None,
        argmax: Optional[Outcome] = None,
        tied: bool = False,
    ):
        self.__dict__.update(value=value, coords=coords, target=target, q=q, subject=subject, argmax=argmax, tied=tied)

    def magnitude(self):
        return _size(self.value)


def _size(value):
    """What a score is ranked by: the absolute value of a scalar, the squared norm of a tuple."""
    return DifferenceFunctional.norm_squared(value) if isinstance(value, tuple) else abs(value)


def _mean_score(cs: CausalSpace, coords: Iterable[str], q: Measure, target, compare: Callable) -> EffectScore:
    """The mean path: `compare` applied to the measure after intervening on `coords` with `q`."""
    coords = cs.space.check_subset(coords)
    value = compare(intervention_measure(cs, InterventionSpec(coords, q)))
    return EffectScore(value, coords, target, q=q)


def _max_score(cs: CausalSpace, coords: Iterable[str], b: Event, target, compare: Callable) -> EffectScore:
    """The maximum path: `compare` applied to each distinct candidate row of the kernel on `coords`.

    Keeps the first row of largest size (`EffectScore.magnitude`'s rule) in
    canonical order, and flags a tie when another row reaches that size. A
    one-dimensional functional's value is still a 1-tuple here, so it is
    sized by its squared norm.
    """
    coords = cs.space.check_subset(coords)
    kernel = cs.kernel(coords)
    b = frozenset(b)
    scored = [(omega, compare(kernel.row(key))) for omega, key in _score_candidates(kernel, b)]
    sizes = [_size(value) for _, value in scored]
    i = sizes.index(max(sizes))
    return EffectScore(scored[i][1], coords, target, subject=b, argmax=scored[i][0], tied=sizes.count(sizes[i]) > 1)


def _score_candidates(kernel: CausalKernel, b: Event) -> list[tuple[Outcome, Outcome]]:
    """(representative outcome, row key) per distinct row of `kernel` reachable from `b`.

    `b` must be measurable w.r.t. the kernel's coordinates, that is, a
    cylinder over them (:meth:`~causalspaces.space.ProductSpace.cylinder_image`),
    so no coordinate subalgebra is built. Its keys are taken in the
    subspace's canonical order, and each key is represented by the first
    outcome of its cylinder. Keys sharing a row (equal canonical integer rows)
    then collapse to the first one; candidates keep canonical order, which is
    also the tie-break order.
    """
    if not b:
        raise EmptySubjectError("the subject event is empty")
    space, coords = kernel.space, kernel.coords
    image = space.cylinder_image(b, coords)
    if image is None:
        raise ValueError("the subject event is not measurable w.r.t. the intervened coordinates")
    candidates: dict[tuple, tuple[Outcome, Outcome]] = {}
    for key in sorted(image, key=space.subspace(coords).outcome_index.__getitem__):
        row = kernel.rows[key]
        candidates.setdefault((row.den, frozenset(row.nums.items())), (space.splice(space.outcomes[0], coords, key), key))
    return list(candidates.values())


def _shift(cs: CausalSpace, a: Event, scale: ScaleFunction) -> Callable[[Measure], Scalar]:
    """The event scores' comparison: the scaled probability of `a`, less its observational value."""
    base = scale(cs.observational(a))
    return lambda mu: scale(mu(a)) - base


def _functional(cs: CausalSpace, algebra: Partition, functional: DifferenceFunctional, variable: Optional[RandomVariable]) -> Callable:
    """The algebra scores' comparison: the functional against the observational measure, on an algebra of the space."""
    cs.space.check_partition(algebra)
    return lambda mu: functional.evaluate(mu, cs.observational, algebra, variable)


def _scalar(functional: DifferenceFunctional, score: EffectScore) -> EffectScore:
    """The score with a one-dimensional functional's value unwrapped from its tuple."""
    if functional.dim != 1:
        return score
    return EffectScore(score.value[0], score.coords, score.target, score.q, score.subject, score.argmax, score.tied)


def mean_effect_score_event(
    cs: CausalSpace,
    coords: Iterable[str],
    q: Measure,
    a: Event,
    scale: ScaleFunction,
) -> EffectScore:
    """The signed scaled shift of the probability of `a` under the intervention."""
    a = cs.space.event(a)
    return _mean_score(cs, coords, q, a, _shift(cs, a, scale))


def max_effect_score_event(
    cs: CausalSpace,
    coords: Iterable[str],
    b: Event,
    a: Event,
    scale: ScaleFunction,
) -> EffectScore:
    """The largest scaled shift achievable by a point intervention within `b`.

    Each distinct kernel row reachable from `b` is read as a checked measure,
    so a corrupt row raises InvalidMeasureError rather than being scored.
    """
    a = cs.space.event(a)
    return _max_score(cs, coords, b, a, _shift(cs, a, scale))


def mean_effect_score_algebra(
    cs: CausalSpace,
    coords: Iterable[str],
    q: Measure,
    algebra: Partition,
    functional: DifferenceFunctional,
    variable: Optional[RandomVariable] = None,
) -> EffectScore:
    """The functional's comparison of the intervention measure against the observational one."""
    return _scalar(functional, _mean_score(cs, coords, q, algebra, _functional(cs, algebra, functional, variable)))


def max_effect_score_algebra(
    cs: CausalSpace,
    coords: Iterable[str],
    b: Event,
    algebra: Partition,
    functional: DifferenceFunctional,
    variable: Optional[RandomVariable] = None,
) -> EffectScore:
    """The functional value at the point intervention within `b` of maximal norm.

    Like :func:`max_effect_score_event`, it reads each distinct kernel row
    reachable from `b` once, as a checked measure.
    """
    compare = _functional(cs, algebra, functional, variable)
    return _scalar(functional, _max_score(cs, coords, b, algebra, compare))


def ate(cs: CausalSpace, treatment: str, outcome: RandomVariable) -> Fraction:
    """The average treatment effect of a binary coordinate on a numeric variable.

    It is the mean-difference functional of the treated measure against the
    control one, on the outcome's own partition. The treated measure is
    computed in the space obtained by first forcing the control level, by a
    further intervention to the treated level; the sequential-intervention
    identity makes this equal the direct point intervention, and both paths
    are computed and compared. Only the kernels read are derived: the control
    space's measure and its kernel on the treatment, not its whole family.
    That kernel is the stored kernel on the treatment, which intervening on
    the treatment leaves unchanged, so the only kernels built are the two
    measures' kernels on the empty subset.
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
    return MEAN_DIFF.evaluate(sequential, control, outcome.partition, outcome)[0]
