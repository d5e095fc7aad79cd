"""Causal kernels, causal spaces, interventions, and marginal causal spaces.

A causal space couples an observational measure with a family of causal
kernels, one per coordinate subset; the family may be partial. Kernel rows
are stored as raw weight tables so that a corrupt space can still be
represented and reported by :func:`validate` as violation data; operations
that consume a row promote it to a checked :class:`~causalspaces.measure.Measure`.

Interventions mix kernel rows with an exact-rational mixing measure and yield
a new causal space whose own kernels are derived lazily (memoized; recomputing
them is idempotent, so sharing across threads is safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .errors import KernelMissingError
from .measure import Measure, _as_fraction, delta, marginal, uniform
from .space import Event, Outcome, ProductSpace

ZERO = Fraction(0)
ONE = Fraction(1)


def subsets_in_order(ids: Sequence[str]) -> tuple[frozenset, ...]:
    """All subsets of a coordinate id sequence, smallest first, then by position."""
    out = []
    for r in range(len(ids) + 1):
        out.extend(frozenset(c) for c in combinations(ids, r))
    return tuple(out)


def _fmt_subset(coords: frozenset) -> str:
    return "{" + ", ".join(sorted(coords)) + "}"


@dataclass(frozen=True)
class CausalKernel:
    """A transition table per partial outcome: rows are raw weight tables.

    Measurability w.r.t. the row subset is structural (a row is keyed by the
    subset outcome alone); the probability and support axioms are checked by
    :func:`validate`, not at construction, so invalid kernels are representable.
    """

    space: ProductSpace
    coords: frozenset
    rows: Mapping[Outcome, Mapping[Outcome, Fraction]]

    def __post_init__(self):
        coords = self.space.check_subset(self.coords)
        object.__setattr__(self, "coords", coords)
        expected = self.space.subspace(coords).outcome_index
        rows = {}
        for key, table in self.rows.items():
            key = tuple(key)
            if key not in expected:
                raise ValueError(f"{key!r} is not an outcome over {_fmt_subset(coords)}")
            row = rows[key] = {}
            for o, w in table.items():
                w = _as_fraction(w)
                if w:
                    row[tuple(o)] = w
        if len(rows) != len(expected):
            missing = set(expected) - set(rows)
            raise ValueError(f"kernel on {_fmt_subset(coords)} lacks rows for {sorted(missing)}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_measures(cls, space: ProductSpace, coords: Iterable[str], rows: Mapping[Outcome, Measure]) -> "CausalKernel":
        return cls(space, frozenset(coords), {k: dict(m.weights) for k, m in rows.items()})

    def row(self, key: Outcome) -> Measure:
        """The row as a checked probability measure (raises if the row is corrupt)."""
        key = tuple(key)
        if key not in self.rows:
            raise ValueError(f"{key!r} is not an outcome over {_fmt_subset(self.coords)}")
        return Measure(self.space, self.rows[key])

    def at(self, omega: Outcome) -> Measure:
        """The row selected by a full outcome (only its `coords` components matter)."""
        return self.row(self.space.restrict(self.space.check_outcome(omega), self.coords))

    def value(self, key: Outcome, a: Event) -> Fraction:
        """Row probability of an event, straight off the raw table."""
        return sum((w for o, w in self.rows[tuple(key)].items() if o in a), ZERO)


@dataclass(frozen=True)
class Violation:
    """One axiom failure found by validation; data, not an exception."""

    kind: str  # "row-sum" | "negative-weight" | "support" | "observational-conflict" | "measure-sum" | ...
    kernel: Optional[frozenset] = None
    row: Optional[Outcome] = None
    outcome: Optional[Outcome] = None
    detail: str = ""

    def __str__(self) -> str:
        where = "observational measure" if self.kernel is None else f"kernel {_fmt_subset(self.kernel)}"
        if self.row is not None:
            where += f", row {','.join(self.row) or '()'}"
        if self.outcome is not None:
            where += f", outcome {','.join(self.outcome)}"
        return f"{self.kind} at {where}: {self.detail}"


@dataclass(frozen=True)
class InterventionSpec:
    """An intervention target: a coordinate subset and a mixing measure on it."""

    coords: frozenset
    q: Measure

    def __post_init__(self):
        object.__setattr__(self, "coords", frozenset(self.coords))
        if set(self.q.space.ids) != self.coords:
            raise ValueError("mixing measure must live on the product over the intervened coordinates")

    @classmethod
    def point(cls, space: ProductSpace, assignment: Mapping[str, str]) -> "InterventionSpec":
        """A delta intervention pinning the given coordinates to the given labels."""
        coords = space.check_subset(assignment)
        sub = space.subspace(coords)
        key = tuple(assignment[cid] for cid in sub.ids)
        return cls(coords, delta(sub, key))

    @classmethod
    def uniform(cls, space: ProductSpace, coords: Iterable[str]) -> "InterventionSpec":
        coords = space.check_subset(coords)
        return cls(coords, uniform(space.subspace(coords)))


class CausalSpace:
    """A finite product space, its observational measure, and a kernel family.

    The family may be partial; the empty-subset kernel is always synthesized
    from the observational measure (a user-supplied one is kept only so that
    :func:`validate` can report a conflict). Spaces produced by
    :func:`intervene` derive kernels on demand from the parent space.
    """

    def __init__(
        self,
        space: ProductSpace,
        observational: Measure,
        kernels: Mapping[frozenset, CausalKernel] = (),
        _derived_from: Optional[tuple["CausalSpace", InterventionSpec]] = None,
    ):
        if observational.space != space:
            raise ValueError("observational measure lives on a different space")
        self.space = space
        self.observational = observational
        table = {}
        for coords, kernel in dict(kernels).items():
            coords = space.check_subset(coords)
            if kernel.space != space or kernel.coords != coords:
                raise ValueError(f"kernel stored under {_fmt_subset(coords)} does not match")
            table[coords] = kernel
        self.kernels = table
        self._derived_from = _derived_from
        self._memo: dict[frozenset, CausalKernel] = {}

    # -- kernel family ---------------------------------------------------------

    def has_kernel(self, coords: Iterable[str]) -> bool:
        coords = self.space.check_subset(coords)
        if not coords or coords in self.kernels:
            return True
        if self._derived_from is not None:
            base, spec = self._derived_from
            return base.has_kernel(coords | spec.coords)
        return False

    def kernel(self, coords: Iterable[str]) -> CausalKernel:
        coords = self.space.check_subset(coords)
        if coords and coords in self.kernels:
            return self.kernels[coords]
        if coords in self._memo:
            return self._memo[coords]
        if not coords:
            kernel = CausalKernel(self.space, coords, {(): dict(self.observational.weights)})
            self._memo[coords] = kernel
            return kernel
        if self._derived_from is not None:
            base, spec = self._derived_from
            if base.has_kernel(coords | spec.coords):
                kernel = intervention_kernel(base, spec, coords)
                self._memo[coords] = kernel
                return kernel
        raise KernelMissingError(coords)

    def kernel_subsets(self) -> tuple[frozenset, ...]:
        """Every nonempty subset with an available kernel, in canonical order."""
        if self._derived_from is None:
            present = set(self.kernels) - {frozenset()}
            return tuple(s for s in subsets_in_order(self.space.ids) if s in present)
        return tuple(s for s in subsets_in_order(self.space.ids) if s and self.has_kernel(s))

    def require_kernels(self, subsets: Iterable[frozenset]) -> None:
        for s in subsets:
            if not self.has_kernel(s):
                raise KernelMissingError(s)

    # -- comparison --------------------------------------------------------------

    def same_as(self, other: "CausalSpace") -> bool:
        """Entry-wise exact equality of space, measure, and available kernels."""
        if self.space != other.space or self.observational != other.observational:
            return False
        mine, theirs = self.kernel_subsets(), other.kernel_subsets()
        if mine != theirs:
            return False
        return all(self.kernel(s).rows == other.kernel(s).rows for s in mine)

    def __repr__(self) -> str:
        names = ",".join(_fmt_subset(s) for s in self.kernel_subsets())
        return f"CausalSpace(|Omega|={len(self.space)}, kernels=[{names}])"


def validate(cs: CausalSpace) -> list[Violation]:
    """Check every stored kernel against the causal-space axioms.

    Empty list iff each row is a probability measure supported on the outcomes
    agreeing with its own row key, and any explicitly supplied empty-subset
    kernel coincides with the observational measure. Violations are returned
    as data; nothing raises.
    """
    found: list[Violation] = []
    index = cs.space.outcome_index
    for coords in sorted(cs.kernels, key=lambda s: (len(s), sorted(s))):
        kernel = cs.kernels[coords]
        pos = cs.space.positions(coords)
        for key in cs.space.subspace(coords).outcomes:
            table = kernel.rows[key]
            total = ZERO
            for o, w in sorted(table.items()):
                total += w
                if w < 0:
                    found.append(Violation("negative-weight", coords, key, o, f"weight {w}"))
                elif o not in index or tuple(map(o.__getitem__, pos)) != key:
                    found.append(Violation("support", coords, key, o, f"mass {w} outside the row's cylinder"))
            if total != ONE:
                found.append(Violation("row-sum", coords, key, None, f"row sums to {total}, expected 1"))
        if not coords:
            for key in [()]:
                if kernel.rows[key] != cs.observational.weights:
                    found.append(
                        Violation(
                            "observational-conflict",
                            coords,
                            key,
                            None,
                            "supplied empty-subset kernel differs from the observational measure",
                        )
                    )
    return found


def intervention_measure(cs: CausalSpace, spec: InterventionSpec) -> Measure:
    """Mix the rows of the targeted kernel with the spec's mixing weights."""
    kernel = cs.kernel(spec.coords)
    table: dict[Outcome, Fraction] = {}
    for key, q in spec.q.weights.items():
        for o, w in kernel.rows[key].items():
            table[o] = table.get(o, ZERO) + q * w
    return Measure(cs.space, table)


def intervention_kernel(cs: CausalSpace, spec: InterventionSpec, coords: Iterable[str]) -> CausalKernel:
    """The derived kernel on `coords` after intervening per `spec`.

    Each row mixes the rows of the kernel on the union subset over the
    intervened coordinates not already fixed by the row key.
    """
    coords = cs.space.check_subset(coords)
    union = coords | spec.coords
    source = cs.kernel(union)
    mixing = marginal(spec.q, spec.coords - coords)
    sub = cs.space.subspace(coords)
    # a source row key is read off the row key followed by the mixing cell
    at = {cid: i for i, cid in enumerate(sub.ids + mixing.space.ids)}
    take = tuple(at[cid] for cid in cs.space.ordered(union))
    rows: dict[Outcome, dict[Outcome, Fraction]] = {}
    for key in sub.outcomes:
        table: dict[Outcome, Fraction] = {}
        for extra, q in mixing.weights.items():
            source_key = tuple(map((key + extra).__getitem__, take))
            for o, w in source.rows[source_key].items():
                table[o] = table.get(o, ZERO) + q * w
        rows[key] = table
    return CausalKernel(cs.space, coords, rows)


def intervene(cs: CausalSpace, spec: InterventionSpec) -> CausalSpace:
    """The causal space produced by an intervention.

    Its measure is :func:`intervention_measure`; its kernels are derived on
    demand for every subset whose source kernel exists, and stay missing
    otherwise.
    """
    return CausalSpace(cs.space, intervention_measure(cs, spec), _derived_from=(cs, spec))


def marginalize(cs: CausalSpace, coords: Iterable[str]) -> CausalSpace:
    """Restrict a causal space to a coordinate subset.

    The observational measure and every available kernel on a subset of
    `coords` are pushed forward; kernels absent from `cs` stay absent.
    """
    coords = cs.space.check_subset(coords)
    sub = cs.space.subspace(coords)
    pos = cs.space.positions(coords)
    kernels = {}
    for s in subsets_in_order(sub.ids):
        if not s or not cs.has_kernel(s):
            continue
        source = cs.kernel(s)
        rows: dict[Outcome, dict[Outcome, Fraction]] = {}
        for key, table in source.rows.items():
            small: dict[Outcome, Fraction] = {}
            for o, w in table.items():
                small_o = tuple(map(o.__getitem__, pos))
                small[small_o] = small.get(small_o, ZERO) + w
            rows[key] = small
        kernels[s] = CausalKernel(sub, s, rows)
    return CausalSpace(sub, marginal(cs.observational, coords), kernels)


def is_marginalization_of(small: CausalSpace, large: CausalSpace) -> bool:
    """Whether `small` equals the restriction of `large` to small's coordinates.

    Compares the observational measures and every kernel present in both
    spaces, entry-wise and exactly.
    """
    for c in small.space.coordinates:
        if c.id not in large.space.ids or large.space.coordinate(c.id) != c:
            raise ValueError(f"coordinate {c.id!r} does not match between the spaces")
    restricted = marginalize(large, set(small.space.ids))
    if restricted.observational != small.observational:
        return False
    shared = set(small.kernel_subsets()) & set(restricted.kernel_subsets())
    return all(small.kernel(s).rows == restricted.kernel(s).rows for s in shared)
