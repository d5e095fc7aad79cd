"""Exact-rational probability measures, conditioning, and independence checks.

A probability row, a measure or one row of a causal kernel, is stored once
as a :class:`Row`: a denominator ``den`` and a numerator per outcome in
``nums``, made canonical by its constructor and read as a table of Fractions
built on read. :func:`row_holds` is the one bulk test that such a row is a
probability measure on Ω, shared by :class:`Measure` and each kernel's
axiom fact, which :func:`~causalspaces.kernels.validate` reads. A measure
sums probabilities in the integers of its row. Every comparison in this
module is an exact equality, never a tolerance.
Conditioning on a zero-measure event is a distinguished ``None`` result
rather than an exception, because the conditional-effect definitions
consume "undefined" as a verdict ingredient.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import repeat
from operator import attrgetter, floordiv, mul
from typing import Iterable, Optional, Sequence, Union

from .errors import InvalidMeasureError, MissingNumericVariableError
from .space import Event, Outcome, Partition, ProductSpace, _Value, coordinate_subalgebra

ONE = Fraction(1)
ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_numerators = attrgetter("numerator")
_denominators = attrgetter("denominator")


def exact_sum(values: Iterable) -> Fraction:
    """The exact sum of rationals (Fractions or ints), over one common denominator.

    Adding Fractions one by one reduces every partial sum by a gcd; this
    scales each numerator to the least common denominator, adds in integers
    and builds one Fraction.
    """
    values = list(values)
    dens = list(map(_denominators, values))
    den = math.lcm(*dens)
    return Fraction(sum(map(mul, map(_numerators, values), map(floordiv, repeat(den), dens))), den)


def integer_row(outcomes: Sequence[Outcome], nums: list[int], dens: list[int]) -> Row:
    """The :class:`Row` of the entries ``nums[i] / dens[i]``.

    Denominators are positive; entries need not be in lowest terms. The
    numerators are scaled to the lcm of the entry denominators, and
    :class:`Row` drops the zeros and divides out one gcd.
    """
    den = math.lcm(*dens)
    if dens.count(den) != len(dens):
        nums = list(map(mul, nums, map(floordiv, repeat(den), dens)))
    return Row(den, dict(zip(outcomes, nums)))


def row_mass(row: Row, a: Event) -> Fraction:
    """The mass a row puts on `a`: one integer sum over the selected numerators.

    A row that lies inside `a` is summed whole without a per-entry test, and
    the totals 0 and `den` return shared Fractions instead of building one.
    """
    nums = row.nums
    if len(nums) <= len(a) and nums.keys() <= a:
        total = sum(nums.values())
    else:
        total = sum([n for o, n in nums.items() if o in a])
    if total == row.den:
        return ONE
    return Fraction(total, row.den) if total else ZERO


def fraction_row(table: Mapping) -> Row:
    """The :class:`Row` of a table of Fractions, ints or strings; each entry is read once."""
    ws = list(map(_as_fraction, table.values()))
    return integer_row(list(map(tuple, table)), list(map(_numerators, ws)), list(map(_denominators, ws)))


class Row(Mapping):
    """One canonical integer row, a denominator `den` and ``nums = {outcome: numerator}``, read as ``{outcome: Fraction}``.

    The constructor is the one place a row is made canonical: zero
    numerators are dropped and one gcd is divided out, so two rows are equal
    exactly when their Fraction tables are. `nums` is the caller's dict when
    it is already canonical. ``row[o]`` builds ``Fraction(nums[o], den)``
    afresh and caches nothing, and a row is unhashable.
    """

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: dict):
        if not all(nums.values()):
            nums = {o: n for o, n in nums.items() if n}
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {o: n // g for o, n in nums.items()}
        self.den = den
        self.nums = nums

    def __getitem__(self, o: Outcome) -> Fraction:
        return Fraction(self.nums[o], self.den)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        if isinstance(other, Row):
            return self.den == other.den and self.nums == other.nums
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def as_row(table: Mapping) -> Row:
    """`table` as a :class:`Row`: a row is kept as it is, any other table is read by :func:`fraction_row`."""
    return table if isinstance(table, Row) else fraction_row(table)


def row_holds(row: Row, index: Mapping) -> bool:
    """Whether a row is a probability measure on Ω.

    No numerator is negative, the numerators sum to `den` and every outcome
    is a key of `index`. This is the one bulk test of a probability row.
    """
    nums = row.nums
    return bool(nums) and min(nums.values()) >= 0 and sum(nums.values()) == row.den and nums.keys() <= index.keys()


def _checked(index: Mapping, o, w) -> tuple[Outcome, Fraction]:
    """One entry of a measure's table as (outcome, Fraction), raising if it is outside Ω or negative."""
    o = tuple(o)
    if o not in index:
        raise InvalidMeasureError(f"{o!r} is not an outcome of the space")
    w = _as_fraction(w)
    if w < 0:
        raise InvalidMeasureError(f"negative weight {w} at {o!r}")
    return o, w


class Measure(_Value):
    """A probability measure on a finite product space, stored sparsely.

    Invariants (enforced at construction): every outcome is in Ω, every
    weight is nonnegative and the weights sum to exactly 1. `weights` is a
    table of Fractions, ints or strings, or a :class:`Row`; after
    construction it is the measure's :class:`Row`, which is all a measure
    stores and every probability is summed in.
    A table is read entry by entry, so an outcome outside Ω raises even at
    weight 0. Either form is then checked by :func:`row_holds`; only a row
    that fails is walked in input order for its first faulty entry, and a
    row with none raises the sum error, so a table and a row give the same
    error.
    """

    _fields = ("space", "weights")

    def __init__(self, space: ProductSpace, weights: Mapping[Outcome, Fraction]):
        self.__dict__.update(space=space, weights=weights)
        self.__post_init__()

    def __post_init__(self):
        index = self.space.outcome_index
        weights = self.weights
        if not isinstance(weights, Row):
            weights = fraction_row(dict(_checked(index, o, w) for o, w in weights.items()))
        if not row_holds(weights, index):
            for o, w in weights.items():
                _checked(index, o, w)
            total = Fraction(sum(weights.nums.values()), weights.den)
            raise InvalidMeasureError(f"weights sum to {total}, expected exactly 1")
        object.__setattr__(self, "weights", weights)

    def __call__(self, a: Event) -> Fraction:
        return row_mass(self.weights, a)

    def of(self, omega: Outcome) -> Fraction:
        return self.weights.get(tuple(omega), ZERO)


def delta(space: ProductSpace, omega: Outcome) -> Measure:
    """The point mass at an outcome."""
    return Measure(space, Row(1, {space.check_outcome(omega): 1}))


def uniform(space: ProductSpace) -> Measure:
    return Measure(space, Row(len(space), dict.fromkeys(space.outcomes, 1)))


def condition_on_event(p: Measure, g: Event) -> Optional[Measure]:
    """The conditional measure given an event, or None when the event is null.

    Returns the measure A -> P(G & A) / P(G) when P(G) > 0: the numerators
    on G over their total.
    """
    nums = {o: n for o, n in p.weights.nums.items() if o in g}
    total = sum(nums.values())
    if total == 0:
        return None
    return Measure(p.space, Row(total, nums))


def condition_on_algebra(p: Measure, algebra: Partition, omega_tilde: Outcome, a: Event) -> Optional[Fraction]:
    """The conditional probability of `a` given a sigma-algebra, at one outcome.

    Evaluates the block of `omega_tilde` and returns P(A | block); None when
    the block is null under `p` (no version is chosen on null blocks).
    """
    block = p.space.check_partition(algebra).block_of(tuple(omega_tilde))
    pb = p(block)
    if pb == 0:
        return None
    return p(block & a) / pb


def pushforward(row: Row, image: Mapping) -> Row:
    """`row` pushed through `image`, a table from outcome to outcome.

    The numerators of the outcomes that share an image are added, over the
    row's own denominator, and the :class:`Row` is reduced once. This is the
    library's one pushforward of rows: marginal measures, marginal causal
    spaces and the mixing marginal of every derived kernel are made by it,
    each through a :meth:`~causalspaces.space.ProductSpace.projection` table.
    """
    table: dict[Outcome, int] = {}
    for o, n in row.nums.items():
        key = image[o]
        if key in table:
            table[key] += n
        else:
            table[key] = n
    return Row(row.den, table)


def marginal(p: Measure, coords: Iterable[str]) -> Measure:
    """The pushforward of `p` under projection onto a coordinate subset (:func:`pushforward`)."""
    coords = p.space.check_subset(coords)
    return Measure(p.space.subspace(coords), pushforward(p.weights, p.space.projection(coords)))


def mutually_abs_continuous_on(p: Measure, q: Measure, algebra: Partition) -> bool:
    """Whether two measures are mutually absolutely continuous on an algebra.

    True iff every block is null under both measures or positive under both.
    """
    if p.space != q.space:
        raise ValueError("measures live on different spaces")
    return all((p(b) == 0) == (q(b) == 0) for b in p.space.check_partition(algebra).blocks)


def independent(p: Measure, a: Event, algebra: Partition) -> bool:
    """Whether `a` and the algebra are independent under `p`.

    P(A & B) = P(A) P(B) on every block; by additivity this extends to every
    union of blocks, hence to the whole generated sigma-algebra.
    """
    blocks = p.space.check_partition(algebra).blocks
    pa = p(a)
    return all(p(a & b) == pa * p(b) for b in blocks)


def cond_independent(
    p: Measure,
    a: Event,
    algebra: Partition,
    given: Union[Event, Partition],
) -> Optional[bool]:
    """Conditional independence of `a` and an algebra, given an event or algebra.

    Event form: None (undefined) when the conditioning event is null, else
    independence under the conditional measure. Partition form: the product
    identity must hold under conditioning on every positive-measure block.
    """
    p.space.check_partition(algebra)
    if isinstance(given, Partition):
        for block in p.space.check_partition(given).blocks:
            pb = condition_on_event(p, block)
            if pb is None:
                continue
            if not independent(pb, a, algebra):
                return False
        return True
    pg = condition_on_event(p, frozenset(given))
    if pg is None:
        return None
    return independent(pg, a, algebra)


class RandomVariable(_Value):
    """An exact-rational evaluand on outcomes, measurable w.r.t. a partition."""

    _fields = ("space", "values", "partition")

    def __init__(self, space: ProductSpace, values: Mapping[Outcome, Fraction], partition: Partition):
        self.__dict__.update(space=space, values=values, partition=partition)
        self.__post_init__()

    def __post_init__(self):
        self.space.check_partition(self.partition)
        table = {tuple(o): _as_fraction(v) for o, v in self.values.items()}
        if set(table) != set(self.space.outcomes):
            raise ValueError("random variable must assign a value to every outcome")
        object.__setattr__(self, "values", table)
        if not self.measurable_wrt(self.partition):
            raise ValueError("random variable is not constant on a block of its partition")

    def __call__(self, omega: Outcome) -> Fraction:
        return self.values[tuple(omega)]

    def measurable_wrt(self, algebra: Partition) -> bool:
        return all(len({self.values[o] for o in b}) == 1 for b in self.space.check_partition(algebra).blocks)

    @classmethod
    def from_coordinate(cls, space: ProductSpace, cid: str) -> "RandomVariable":
        """The numeric value of one coordinate; requires that coordinate's values."""
        space.check_subset([cid])
        c = space.coordinate(cid)
        if c.values is None:
            raise MissingNumericVariableError(f"coordinate {cid!r} has no numeric label values")
        i = space.ids.index(cid)
        return cls(
            space,
            {o: c.value_of(o[i]) for o in space.outcomes},
            coordinate_subalgebra(space, {cid}),
        )


def _mean(p: Measure, x: RandomVariable) -> tuple[Fraction, list, list]:
    """The expectation of `x` under `p`, the values ``x(o)`` it read (each once) and their weights ``n * x(o)``."""
    if x.space != p.space:
        raise ValueError("random variable and measure live on different spaces")
    nums = p.weights.nums
    values = list(map(x, nums))
    first = list(map(mul, nums.values(), values))
    return exact_sum(first) / p.weights.den, values, first


def mean_and_variance(p: Measure, x: RandomVariable) -> tuple[Fraction, Fraction]:
    """Exact expectation and population variance of `x` under `p`."""
    mean, values, first = _mean(p, x)
    second = exact_sum(list(map(mul, first, values))) / p.weights.den
    return mean, second - mean * mean
