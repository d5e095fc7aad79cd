"""Finite product outcome spaces, events, and sigma-algebras as partitions.

Outcomes are plain tuples of labels, one per coordinate in declared order;
events are frozensets of outcomes. On a finite space every sigma-algebra is
the set of unions of the blocks of a unique partition, so :class:`Partition`
is the package's sigma-algebra representation and the full collection of
block unions is never materialized.

Everything here is immutable and safe to share across threads.

Projection layer. A :class:`ProductSpace` fills a few caches lazily, on
first use, because every step that builds or rewrites a causal space
projects outcomes onto coordinate subsets over and over:

- the set of coordinate ids, so :meth:`ProductSpace.check_subset` builds
  no set per call;
- per checked subset, the positions of its coordinates in declared order,
  so :meth:`ProductSpace.restrict` indexes by position;
- per checked subset, its :meth:`ProductSpace.subspace`, so a subspace's
  own outcome caches are built once;
- the map from cell strings (``label,label,...``) to outcomes used by the
  document parser.

A :meth:`ProductSpace.projection` table, the outcome -> projection map
every pushforward reads, is not among them: it is built afresh on each call.

Every outcome-to-key cut of the package, from :meth:`ProductSpace.restrict`
and :meth:`ProductSpace.cylinders` to kernel validation, the intervention
kernel's source keys and the verdict engine's row keys, is one
:func:`cut_at` over the cached positions. Every partition of Ω by a key is
one :meth:`ProductSpace.level_sets` grouping, the one level-set rule: the
cylinders over a coordinate subset group by its cut, a generated algebra by
the membership pattern of its generators, and a document variable's
partition by its values. Likewise the one measurability
rule, that an event is measurable w.r.t. a coordinate subset exactly when it
is a cylinder over it, is :meth:`ProductSpace.cylinder_image`, which reads
its members through :meth:`ProductSpace.event`.

Input gates. Whether an input belongs to a space is decided here, once per
kind, and every verdict, oracle call and score reads its inputs through
these rules:

- an outcome, by :meth:`ProductSpace.check_outcome`, a lookup in
  ``outcome_index``;
- an event, by :meth:`ProductSpace.event`, the one membership check of its
  members, which returns a frozenset that passes as it is;
- a sigma-algebra, by :meth:`ProductSpace.check_partition`, the one
  same-space rule.

A failed check raises ValueError. The primitives that take an event, such
as ``Measure.__call__``, ``CausalKernel.value`` and ``independent``, sum
over it as given and check nothing about it.

The caches hold only values derived from the coordinates, which never
change. Filling one is idempotent: two threads that fill the same entry at
once compute equal values and either may win, so spaces stay safe to share
across threads without a lock.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .errors import MissingNumericVariableError

Outcome = tuple[str, ...]
Event = frozenset  # frozenset[Outcome]


class _Value:
    """The value semantics of the data model's classes, driven by each class's `_fields`.

    Two objects are equal when they are of one class and their fields are
    equal, the hash is that of the tuple of fields, and the repr is
    ``Name(field=value, ...)``. Fields are read-only: assigning or deleting
    any attribute raises AttributeError. Each class's ``__init__`` stores its
    fields with one ``self.__dict__.update(field=value, ...)`` call and then
    runs its ``__post_init__``, if it has one. On CPython 3.11 an instance
    dict filled that way keeps attribute reads specialised, also after a
    ``cached_property`` adds a key; fields set one by one, by
    ``object.__setattr__`` or by key, leave each read about three times slower.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Coordinate(_Value):
    """One axis of the product: an id, its outcome labels, optional numeric values."""

    _fields = ("id", "labels", "values")

    def __init__(self, id: str, labels: tuple[str, ...], values: Optional[tuple[Fraction, ...]] = None):
        self.__dict__.update(id=id, labels=labels, values=values)
        self.__post_init__()

    def __post_init__(self):
        if not self.labels:
            raise ValueError(f"coordinate {self.id!r} has no outcome labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"coordinate {self.id!r} has duplicate labels")
        if self.values is not None and len(self.values) != len(self.labels):
            raise ValueError(f"coordinate {self.id!r}: values do not align with labels")

    def value_of(self, label: str) -> Fraction:
        if self.values is None:
            raise MissingNumericVariableError(f"coordinate {self.id!r} has no numeric label values")
        return self.values[self.labels.index(label)]


class ProductSpace(_Value):
    """A finite product outcome space: ordered coordinates and their cartesian product."""

    _fields = ("coordinates",)

    def __init__(self, coordinates: tuple[Coordinate, ...]):
        self.__dict__.update(coordinates=coordinates)
        self.__post_init__()

    def __post_init__(self):
        ids = [c.id for c in self.coordinates]
        if len(set(ids)) != len(ids):
            raise ValueError("coordinate ids are not distinct")

    # -- basic structure -----------------------------------------------------

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.coordinates)

    @cached_property
    def _index(self) -> Mapping[str, int]:
        return {c.id: i for i, c in enumerate(self.coordinates)}

    def coordinate(self, cid: str) -> Coordinate:
        return self.coordinates[self._index[cid]]

    @cached_property
    def outcomes(self) -> tuple[Outcome, ...]:
        """All outcomes in canonical order (cartesian product of declared labels)."""
        return tuple(product(*(c.labels for c in self.coordinates)))

    @cached_property
    def outcome_index(self) -> Mapping[Outcome, int]:
        return {o: i for i, o in enumerate(self.outcomes)}

    def __len__(self) -> int:
        n = 1
        for c in self.coordinates:
            n *= len(c.labels)
        return n

    def contains(self, omega: Outcome) -> bool:
        return tuple(omega) in self.outcome_index

    def check_outcome(self, omega) -> Outcome:
        omega = tuple(omega)
        if not self.contains(omega):
            raise ValueError(f"{omega!r} is not an outcome of this space")
        return omega

    @cached_property
    def _id_set(self) -> frozenset:
        return frozenset(self.ids)

    def check_subset(self, coords: Iterable[str]) -> frozenset:
        coords = frozenset(coords)
        if not coords <= self._id_set:
            raise ValueError(f"unknown coordinate ids: {sorted(coords - self._id_set)}")
        return coords

    def check_partition(self, partition: "Partition") -> "Partition":
        """`partition`, refused unless it is a sigma-algebra of this space: the one same-space rule."""
        if partition.space != self:
            raise ValueError("partition lives on a different space")
        return partition

    # -- projections and subsets ----------------------------------------------

    @cached_property
    def _positions(self) -> dict[frozenset, tuple[int, ...]]:
        return {}

    @cached_property
    def _subspaces(self) -> dict[frozenset, "ProductSpace"]:
        return {}

    def positions(self, coords: Iterable[str]) -> tuple[int, ...]:
        """Indices of a coordinate subset's components in an outcome (declared order)."""
        if isinstance(coords, frozenset):
            pos = self._positions.get(coords)
            if pos is not None:
                return pos
        coords = self.check_subset(coords)
        pos = self._positions.get(coords)
        if pos is None:
            pos = tuple(i for i, cid in enumerate(self.ids) if cid in coords)
            self._positions[coords] = pos
        return pos

    def ordered(self, coords: Iterable[str]) -> tuple[str, ...]:
        """A coordinate subset in declared order."""
        ids = self.ids
        return tuple(ids[i] for i in self.positions(coords))

    def restrict(self, omega: Outcome, coords: Iterable[str]) -> Outcome:
        """Project an outcome onto a coordinate subset (declared order): the :func:`cut_at` of its positions."""
        return cut_at(self.positions(coords))(omega)

    def projection(self, coords: Iterable[str]) -> dict[Outcome, Outcome]:
        """A fresh table from each outcome of Ω to its :meth:`restrict` onto `coords`.

        The table is built through :meth:`restrict` on every call and cached
        nowhere. A key outside Ω is projected where it stands on lookup, and
        not stored, so a corrupt row pushed through the table meets the same
        projection, or the same IndexError, as one restricted entry by entry.
        """
        coords = self.check_subset(coords)
        table = _Projection({o: self.restrict(o, coords) for o in self.outcomes})
        table.cut = cut_at(self.positions(coords))
        return table

    def splice(self, omega: Outcome, coords: Iterable[str], part: Outcome) -> Outcome:
        """Replace the `coords` components of `omega` with `part` (declared order)."""
        ordered = self.ordered(coords)
        if len(part) != len(ordered):
            raise ValueError("replacement tuple does not match the coordinate subset")
        repl = dict(zip(ordered, part))
        return tuple(repl.get(cid, l) for l, cid in zip(omega, self.ids))

    def subspace(self, coords: Iterable[str]) -> "ProductSpace":
        """The product space over a coordinate subset (declared order kept)."""
        coords = self.check_subset(coords)
        sub = self._subspaces.get(coords)
        if sub is None:
            sub = ProductSpace(tuple(self.coordinates[i] for i in self.positions(coords)))
            self._subspaces[coords] = sub
        return sub

    def level_sets(self, key: Callable[[Outcome], Hashable]) -> dict[Hashable, list[Outcome]]:
        """Ω grouped by `key`: each value of `key` maps to the outcomes it takes that value at.

        This is the package's one level-set rule. Each group keeps the
        canonical order of the outcomes, and the groups come in the order of
        their first outcome.
        """
        groups: dict[Hashable, list[Outcome]] = defaultdict(list)
        for o in self.outcomes:
            groups[key(o)].append(o)
        return dict(groups)

    def cylinders(self, coords: Iterable[str]) -> dict[Outcome, list[Outcome]]:
        """The outcomes grouped by their projection onto `coords`: the :meth:`level_sets` of its cut.

        Keys follow the subspace's canonical order, since a key first appears
        in Ω at its own least outcome, so no subspace is built. Each group
        keeps the canonical order of the outcomes.
        """
        return self.level_sets(cut_at(self.positions(coords)))

    def cylinder_image(self, a: Iterable[Outcome], coords: Iterable[str]) -> Optional[frozenset]:
        """The cuts of `a` onto `coords` when `a` is a cylinder over `coords`, else None.

        This is the package's one measurability rule: `a` is measurable w.r.t.
        the coordinates `coords` exactly when it is a cylinder over them, that
        is, when |a| · |Ω_coords| = |image(a)| · |Ω|, since each cut lifts to
        |Ω| / |Ω_coords| outcomes. The rule counts only outcomes, so the
        members of `a` are first checked by :meth:`event`. ∅ is a cylinder
        with an empty image.
        """
        a, pos = self.event(a), self.positions(coords)
        image = frozenset(map(cut_at(pos), a))
        return image if len(a) * prod(len(self.coordinates[i].labels) for i in pos) == len(image) * len(self) else None

    @cached_property
    def cells(self) -> Mapping[str, Outcome]:
        """Cell string (labels joined by commas) -> outcome.

        Holds exactly the strings that split back into an outcome, so an
        outcome whose labels contain commas, or a one-coordinate outcome
        with the empty label, is left out; the empty string maps to the
        empty outcome only on the space with no coordinates.
        """
        table = {}
        for o in self.outcomes:
            cell = ",".join(o)
            if (tuple(cell.split(",")) if cell else ()) == o:
                table[cell] = o
        return table

    # -- events ----------------------------------------------------------------

    def event(self, members: Iterable[Outcome]) -> Event:
        """An event given extensionally as a collection of outcomes.

        This is the package's one membership check of an event. A member that
        is not an outcome raises ValueError, which names the least such member
        by ``repr``, so the error does not depend on the order the set
        iterates in. A frozenset that passes is returned as it is, not copied.
        """
        ev = members if isinstance(members, frozenset) else frozenset(map(tuple, members))
        # a set less a dict looks its members up by their stored hashes; a tuple does not cache its hash
        strays = ev.difference(self.outcome_index)
        if strays:
            raise ValueError(f"{min(strays, key=repr)!r} is not an outcome of this space")
        return ev

    def where(self, /, **constraints) -> Event:
        """The event of outcomes matching a conjunction of coordinate constraints.

        Each keyword maps a coordinate id to a label or an iterable of labels;
        an unknown id or label raises ValueError.
        """
        self.check_subset(constraints)
        allowed = {}
        for cid, spec in constraints.items():
            c = self.coordinate(cid)
            labels = {spec} if isinstance(spec, str) else set(spec)
            bad = labels - set(c.labels)
            if bad:
                raise ValueError(f"coordinate {cid!r} has no labels {sorted(bad)}")
            allowed[self._index[cid]] = labels
        return frozenset(o for o in self.outcomes if all(o[i] in ls for i, ls in allowed.items()))

    def all_event(self) -> Event:
        return frozenset(self.outcomes)

    def complement(self, a: Event) -> Event:
        return frozenset(self.outcomes) - a

    def sort_event(self, a: Event) -> tuple[Outcome, ...]:
        """An event's outcomes in canonical order; a member that is not an outcome raises :meth:`event`'s ValueError."""
        return tuple(sorted(self.event(a), key=self.outcome_index.__getitem__))


def cut_at(positions: Sequence[int]) -> Callable[[Outcome], Outcome]:
    """The cut of an outcome at `positions`: the tuple of its labels there, in the order given.

    More than one position is one ``itemgetter`` call. ``itemgetter`` of one
    position returns the bare label, and it needs at least one, so one
    position and none build their tuple here. A position past the end of the
    outcome raises IndexError.
    """
    if len(positions) != 1:
        return itemgetter(*positions) if positions else lambda o: ()
    (i,) = positions
    return lambda o: (o[i],)


class _Projection(dict):
    """An outcome -> projection table whose missing keys are cut on lookup by its `cut`, not stored."""

    def __missing__(self, o: Outcome) -> Outcome:
        return self.cut(o)


class Partition(_Value):
    """A sigma-algebra on a finite space, represented by its atoms.

    Blocks are pairwise disjoint nonempty events covering the space, stored in
    canonical order (sorted by least member outcome), so structural equality
    is sigma-algebra equality.
    """

    _fields = ("space", "blocks")

    def __init__(self, space: ProductSpace, blocks: tuple[Event, ...]):
        self.__dict__.update(space=space, blocks=blocks)
        self.__post_init__()

    def __post_init__(self):
        blocks = tuple(frozenset(b) for b in self.blocks)
        seen: set = set()
        for b in blocks:
            if not b:
                raise ValueError("partition blocks must be nonempty")
            if seen & b:
                raise ValueError("partition blocks are not disjoint")
            seen |= b
        if seen != set(self.space.outcomes):
            raise ValueError("partition blocks do not cover the space")
        idx = self.space.outcome_index
        canon = tuple(sorted(blocks, key=lambda b: min(idx[o] for o in b)))
        object.__setattr__(self, "blocks", canon)

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, omega: Outcome) -> Event:
        for b in self.blocks:
            if omega in b:
                return b
        raise ValueError(f"{omega!r} is not an outcome of this space")

    def contains_event(self, a: Event) -> bool:
        """Whether `a` is measurable, i.e. a union of blocks."""
        return all(b <= a or not (b & a) for b in self.blocks)

    def refines(self, coarser: "Partition") -> bool:
        """Whether every block of self lies inside a block of `coarser`."""
        return all(any(b <= c for c in coarser.blocks) for b in self.blocks)


def coordinate_subalgebra(space: ProductSpace, coords: Iterable[str]) -> Partition:
    """The sub-sigma-algebra generated by a coordinate subset.

    Its blocks are the :meth:`~ProductSpace.cylinders` over `coords`, the
    level sets of their cut; the empty subset gives the trivial partition
    {Omega}.
    """
    return Partition(space, tuple(map(frozenset, space.cylinders(coords).values())))


def generated_algebra(space: ProductSpace, events: Sequence[Event]) -> Partition:
    """The coarsest partition making every generator event measurable.

    Its blocks are the :meth:`~ProductSpace.level_sets` of the membership
    pattern, which generators an outcome lies in: the common refinement of
    each event/complement split. The result is independent of generator
    order and of repeated generators.
    """
    events = [space.event(e) for e in events]
    groups = space.level_sets(lambda o: tuple(o in e for e in events))
    return Partition(space, tuple(map(frozenset, groups.values())))
