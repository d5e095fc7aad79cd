"""Causal kernels, causal spaces, interventions, and marginal causal spaces.

A causal space couples an observational measure with a family of causal
kernels, one per coordinate subset; the family may be partial. Each kernel
row is a :class:`~causalspaces.measure.Row`, the form a measure is stored
in: one canonical integer row, a common denominator ``den`` and one
numerator per nonzero outcome in ``nums``, read as a table of Fractions, so
a row probability is one integer sum. The kernel on the empty subset holds
the observational measure's own row. Rows are stored unchecked, so that a
corrupt space can still be represented and reported by :func:`validate` as
violation data; operations that consume a row promote it to a checked
:class:`~causalspaces.measure.Measure`, which keeps the same row.
:func:`validate`, :func:`marginalize`, :func:`intervene` and serialization
walk the stored kernels in the order of :func:`sorted_subsets`, which sorts
the stored subsets and never enumerates the 2^n subsets of the space.

Interventions mix kernel rows with an exact-rational mixing measure and yield
a new causal space that stores its derived kernels like any other: the whole
family is computed when the space is made, so a space never changes after it
is built. A derived kernel on a subset S that holds every intervened
coordinate has nothing to mix, so the derived space shares that kernel object
with its source; kernels are never changed after construction.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import lcm
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

from .errors import KernelMissingError
from .measure import Measure, Row, as_row, delta, pushforward, row_holds, row_mass, uniform
from .space import Event, Outcome, ProductSpace, cut_at


def subsets_in_order(ids: Sequence[str]) -> tuple[frozenset, ...]:
    """All subsets of a coordinate id sequence, smallest first, then by position."""
    out = []
    for r in range(len(ids) + 1):
        out.extend(frozenset(c) for c in combinations(ids, r))
    return tuple(out)


def sorted_subsets(space: ProductSpace, subsets: Iterable[frozenset]) -> tuple[frozenset, ...]:
    """`subsets` in the order of :func:`subsets_in_order`: smallest first, then by declared position."""
    return tuple(sorted(subsets, key=lambda s: (len(s), space.positions(s))))


def _fmt_subset(coords: frozenset) -> str:
    return "{" + ", ".join(sorted(coords)) + "}"


@dataclass(frozen=True)
class CausalKernel:
    """A transition table per partial outcome, one :class:`~causalspaces.measure.Row` per key.

    `rows` maps each key to a table of Fractions, ints or strings, or to a
    :class:`~causalspaces.measure.Row`, which is stored as it is; after
    construction it is a read-only mapping of rows. Measurability w.r.t. the
    row subset is structural (a row is keyed by the subset outcome alone);
    the probability and support axioms are checked by :func:`validate`, not
    at construction, so invalid kernels are representable.
    """

    space: ProductSpace
    coords: frozenset
    rows: Mapping[Outcome, Mapping[Outcome, Fraction]]

    def __post_init__(self):
        coords = self.space.check_subset(self.coords)
        object.__setattr__(self, "coords", coords)
        expected = self.space.subspace(coords).outcome_index
        rows: dict[Outcome, Row] = {}
        for key, table in self.rows.items():
            key = tuple(key)
            if key not in expected:
                raise self._no_row(key)
            rows[key] = as_row(table)
        if len(rows) != len(expected):
            missing = set(expected) - set(rows)
            raise ValueError(f"kernel on {_fmt_subset(coords)} lacks rows for {sorted(missing)}")
        object.__setattr__(self, "rows", MappingProxyType(rows))
        object.__setattr__(self, "_rows", rows)

    @cached_property
    def _holds(self) -> bool:
        """Whether every row passes :func:`~causalspaces.measure.row_holds` and cuts to its own key.

        This is the kernel's axiom fact: each row is a probability measure on
        the cylinder of its key (interventional determinism). A kernel never
        changes after construction, so the fact is computed once.
        """
        index, cut = self.space.outcome_index, cut_at(self.space.positions(self.coords))
        return all(row_holds(row, index) and set(map(cut, row.nums)) == {key} for key, row in self._rows.items())

    def _no_row(self, key: Outcome) -> ValueError:
        return ValueError(f"{key!r} is not an outcome over {_fmt_subset(self.coords)}")

    def row(self, key: Outcome) -> Measure:
        """The row as a checked probability measure (raises if the row is corrupt)."""
        key = tuple(key)
        if key not in self._rows:
            raise self._no_row(key)
        return Measure(self.space, self._rows[key])

    def at(self, omega: Outcome) -> Measure:
        """The row selected by a full outcome (only its `coords` components matter)."""
        return self.row(self.space.restrict(self.space.check_outcome(omega), self.coords))

    def value(self, key: Outcome, a: Event) -> Fraction:
        """Row probability of an event, straight off the stored integer row (:func:`~causalspaces.measure.row_mass`)."""
        key = tuple(key)
        try:
            row = self._rows[key]
        except KeyError:
            raise self._no_row(key) from None
        return row_mass(row, a)


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

    The family may be partial; lookups of the empty-subset kernel always
    synthesize it from the observational measure. A supplied one is stored,
    marginalized and compared like any other, so that :func:`validate` can
    report a conflict.
    """

    def __init__(self, space: ProductSpace, observational: Measure, kernels: Mapping[frozenset, CausalKernel] = ()):
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

    # -- kernel family ---------------------------------------------------------

    @cached_property
    def _empty_kernel(self) -> CausalKernel:
        return CausalKernel(self.space, frozenset(), {(): self.observational.weights})

    def has_kernel(self, coords: Iterable[str]) -> bool:
        coords = self.space.check_subset(coords)
        return not coords or coords in self.kernels

    def kernel(self, coords: Iterable[str]) -> CausalKernel:
        coords = self.space.check_subset(coords)
        if not coords:
            return self._empty_kernel
        if coords in self.kernels:
            return self.kernels[coords]
        raise KernelMissingError(coords)

    def kernel_subsets(self) -> tuple[frozenset, ...]:
        """Every subset with a stored kernel, in canonical order: smallest first, then by declared position.

        The stored subsets are sorted (:func:`sorted_subsets`); the 2^n subsets of the space are not enumerated.
        """
        return sorted_subsets(self.space, self.kernels)

    def require_kernels(self, subsets: Iterable[frozenset]) -> None:
        for s in subsets:
            if not self.has_kernel(s):
                raise KernelMissingError(s)

    # -- comparison --------------------------------------------------------------

    def same_as(self, other: "CausalSpace") -> bool:
        """Entry-wise exact equality of space, measure, and stored kernels."""
        if self.space != other.space or self.observational != other.observational:
            return False
        mine, theirs = ({s: k.rows for s, k in cs.kernels.items()} for cs in (self, other))
        return mine == theirs

    def __repr__(self) -> str:
        names = ",".join(_fmt_subset(s) for s in self.kernel_subsets())
        return f"CausalSpace(|Omega|={len(self.space)}, kernels=[{names}])"


def validate(cs: CausalSpace) -> list[Violation]:
    """Check every stored kernel against the causal-space axioms.

    Empty list iff each row is a probability measure supported on the outcomes
    agreeing with its own row key, and any explicitly supplied empty-subset
    kernel coincides with the observational measure. Violations are returned
    as data; nothing raises. Kernels are walked in the order of
    :meth:`CausalSpace.kernel_subsets`, as documents list them.

    Each kernel's axiom fact, computed once per kernel object, decides in
    bulk: every row passes :func:`~causalspaces.measure.row_holds`, the
    check a :class:`~causalspaces.measure.Measure` makes, and every outcome
    of a row cuts to the row's key (on ∅ every outcome does). Only a kernel
    whose fact is false is walked row by row, each row entry by entry as a
    table of Fractions, for its violations; a row that holds gives none.
    """
    found: list[Violation] = []
    index = cs.space.outcome_index
    for coords in cs.kernel_subsets():
        kernel = cs.kernels[coords]
        if not kernel._holds:
            cut = cut_at(cs.space.positions(coords))
            for key in cs.space.subspace(coords).outcomes:
                found.extend(_row_violations(coords, key, kernel._rows[key], index, cut))
        if not coords and kernel._rows[()] != cs.observational.weights:
            found.append(
                Violation(
                    "observational-conflict",
                    coords,
                    (),
                    None,
                    "supplied empty-subset kernel differs from the observational measure",
                )
            )
    return found


def _row_violations(coords: frozenset, key: Outcome, table: Row, index: Mapping, cut) -> list[Violation]:
    """A row's violations: its faulty entries in outcome order, then its sum."""
    found = []
    # the row's weights are Fractions, whose sign is the numerator's
    faults = [(o, w) for o, w in table.items() if w.numerator < 0 or o not in index or cut(o) != key]
    # sorted by outcome tuple, comparing labels as strings rather than in declared label order
    for o, w in sorted(faults):
        if w < 0:
            found.append(Violation("negative-weight", coords, key, o, f"weight {w}"))
        else:
            found.append(Violation("support", coords, key, o, f"mass {w} outside the row's cylinder"))
    total = Fraction(sum(table.nums.values()), table.den)
    if total != 1:
        found.append(Violation("row-sum", coords, key, None, f"row sums to {total}, expected 1"))
    return found


def intervention_measure(cs: CausalSpace, spec: InterventionSpec) -> Measure:
    """The observational measure after intervening per `spec`: the derived kernel on the empty subset.

    It mixes the rows of the targeted kernel with the spec's mixing weights.
    """
    return intervention_kernel(cs, spec, ()).row(())


def intervention_kernel(cs: CausalSpace, spec: InterventionSpec, coords: Iterable[str]) -> CausalKernel:
    """The derived kernel on `coords` after intervening per `spec`.

    Each row mixes the rows of the kernel on the union subset over the
    intervened coordinates not already fixed by the row key, weighted by the
    mixing marginal: the spec's integer row pushed forward onto those
    coordinates (:func:`~causalspaces.measure.pushforward`), its cells in
    the mixing measure's own coordinate order. When `coords` holds every
    intervened coordinate there is nothing to mix, and the source kernel
    itself is returned. A mixing measure whose coordinates carry other
    labels than the space's is refused with a ValueError.
    """
    coords = cs.space.check_subset(coords)
    union = coords | spec.coords
    source = cs.kernel(union)
    for c in spec.q.space.coordinates:
        labels = cs.space.coordinate(c.id).labels
        if set(c.labels) != set(labels):
            raise ValueError(f"the mixing measure gives coordinate {c.id!r} the labels {list(c.labels)}, the space {list(labels)}")
    if union == coords:
        return source
    rest = spec.coords - coords
    q_space = spec.q.space
    mixing = pushforward(spec.q.weights, q_space.projection(rest))
    sub = cs.space.subspace(coords)
    # a source row key is read off the row key followed by the mixing cell, in q's own coordinate order
    at = {cid: i for i, cid in enumerate(sub.ids + q_space.ordered(rest))}
    take = cut_at([at[cid] for cid in cs.space.ordered(union)])
    rows: dict[Outcome, Row] = {}
    for key in sub.outcomes:
        # the mixed row is sum_i q_i/q_den * n_i/d_i, over the denominator q_den * lcm(d_i)
        parts = [(q, source._rows[take(key + extra)]) for extra, q in mixing.nums.items()]
        den = lcm(*[row.den for _, row in parts])
        table: dict[Outcome, int] = {}
        for q, row in parts:
            scale = q * (den // row.den)
            for o, n in row.nums.items():
                # the source rows of a valid kernel have disjoint supports, so only a
                # corrupt one lands twice on a cell
                if o in table:
                    table[o] += scale * n
                else:
                    table[o] = scale * n
        rows[key] = Row(mixing.den * den, table)
    return CausalKernel(cs.space, coords, rows)


def _derive(cs: CausalSpace, spec: InterventionSpec, subsets: Iterable[frozenset]) -> CausalSpace:
    """The space intervened per `spec` with its derived kernels on `subsets` only, ∅ skipped.

    Its measure is :func:`intervention_measure`, and each listed S gets
    :func:`intervention_kernel`, in the order listed.
    """
    measure = intervention_measure(cs, spec)
    return CausalSpace(cs.space, measure, {s: intervention_kernel(cs, spec, s) for s in subsets if s})


def intervene(cs: CausalSpace, spec: InterventionSpec) -> CausalSpace:
    """The causal space produced by an intervention on the coordinates U.

    Its measure is :func:`intervention_measure`. Its kernel on each nonempty
    subset S is :func:`intervention_kernel`, computed here for every S whose
    source kernel, on S and U together, is in `cs`; the others stay missing.
    So the candidates are read off the stored kernels: S = (T − U) ∪ W for
    each stored T ⊇ U and each W ⊆ U, in :func:`sorted_subsets` order.
    Every S that contains U keeps the kernel object of `cs` on S, so only the
    subsets that miss part of U build a new kernel.
    """
    u = spec.coords
    parts = [frozenset(w) for r in range(len(u) + 1) for w in combinations(u, r)]
    candidates = {(t - u) | w for t in cs.kernels if t >= u for w in parts}
    return _derive(cs, spec, sorted_subsets(cs.space, candidates))


def marginalize(cs: CausalSpace, coords: Iterable[str]) -> CausalSpace:
    """Restrict a causal space to a coordinate subset.

    The observational measure's row, which is the row of the kernel on ∅,
    and every row of each stored kernel on a subset of `coords`, walked in
    :meth:`CausalSpace.kernel_subsets` order, are pushed
    forward (:func:`~causalspaces.measure.pushforward`) through one
    projection table over Ω; kernels absent from `cs` stay absent. An entry
    outside Ω (a corrupt row) is projected where it stands.
    """
    coords = cs.space.check_subset(coords)
    sub = cs.space.subspace(coords)
    project = cs.space.projection(coords)
    kernels = {
        s: CausalKernel(sub, s, {key: pushforward(row, project) for key, row in cs.kernels[s]._rows.items()})
        for s in cs.kernel_subsets()
        if s <= coords
    }
    return CausalSpace(sub, Measure(sub, pushforward(cs.observational.weights, project)), kernels)


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
