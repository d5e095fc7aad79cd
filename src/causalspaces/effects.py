"""Binary causal-effect verdicts over finite causal spaces.

Implements the active-effect check, the full no/active/dormant trichotomy,
their conditional variants (given an event or a sigma-algebra) and the
post-intervention variant, plus executable forms of the independence
results that link "no active effect" to independence under intervention.

Every verdict runs through one engine; the public functions are thin
wrappers over it.

- Row pairs. A shape (joint subset, reduced subset, coordinates fixed from
  the subject) yields one pair per assignment `part` of the other joint
  coordinates: the joint-kernel row spliced from the subject against the
  reduced-kernel row of the same cell. The quantified family has one shape
  per subset S: (S, S minus U, S meet U) for the plain verdicts, and
  (S+V, (S+V) minus (U minus V), (S+V) meet (U minus V)) after
  intervening on V; the plain family is the post family with V empty. The
  active check is the first shape, (U, {}, U) plain and (U+V, V, U) post;
  the kernel on the empty subset is the observational measure, which is
  read directly. A pair is (part, read1, key1, read2, key2): each `read`
  is the bound ``CausalKernel.value`` of its kernel, or for the empty
  subset a reader of the observational measure, both fixed per shape, and
  each key selects a row. Each shape's key plan is built once, from the
  space's cached coordinate positions: one cut per key, by the space's cut
  rule (:func:`~causalspaces.space.cut_at`), that takes it from the cell
  ``key + part``, so nothing is built per row but the two keys. The
  reduced key is `part` itself whenever the reduced subset is the
  joint one minus the fixed coordinates: every shape but the
  post-intervention active shape with U meeting V. With W = U minus V, a
  subset S whose S+V misses W gives a shape whose joint and reduced
  subsets coincide: it compares a row with itself. Subsets that differ
  only inside V give the same shape twice.
- Skipped shapes. Every S+V, and every (S+V) minus W (W misses V), is a
  superset of V, so the quantified family is one shape (T, T minus W,
  T meet W) per superset T of V, in canonical order: each distinct shape
  once. When W is nonempty the scan skips the supersets that miss W, whose
  shapes compare a row with itself. Two equal rows are equal on every event
  and mutually continuous, so only the event premise could fail on them;
  and each skipped row K_T(p) is also the reduced row of the kept shape
  (T+W, T, W) at the same cell, where that premise is still checked. When
  W is empty every shape compares a row with itself and none is skipped,
  so the event premise is checked on each row.
- Comparators. The comparator is built from what is given: plain equality
  of the two probabilities of the target when nothing is, and ratios per
  block of what is given otherwise. A sigma-algebra gives its blocks,
  premise: both rows are mutually absolutely continuous on it; an event g
  is the one block (g,), premise: g has positive mass under both rows.
  Each comparator has three steps. `split` works out, once per target
  event, what a pair is compared on: the event itself for plain equality,
  and for the ratios the blocks the event splits, each with its part in the
  event. `prepare` reads a pair's premise on every block and returns the
  pair with its denominators, or None when the premise fails; `differs`
  compares one prepared pair on one split target, through the readers.
  Plain equality tests identity first: a row sum returns the shared ONE and
  ZERO for the masses 1 and 0, and the pure-Python ``Fraction.__eq__`` runs
  only on two distinct objects. Once the premise holds, a
  block inside the target has the ratio P(b)/P(b) = 1 and a block off it
  0 = 0 under any row, even one with negative weights or a sum other than
  1, so neither can witness an effect; a target that splits no block
  compares nothing.
- Aggregation, with priority Active > Undetermined > Dormant > NoEffect.
  Each phase reads its pairs in one scan, and an event target compares each
  pair as soon as its premise is read, so no pair outlives its step. The
  active phase compares the active shape's pairs: the first differing pair
  returns active, and a failed premise leaves the verdict undetermined
  unless a later pair is active. Only the trichotomy goes on: it requires
  every kernel the family names, skipped shapes included, and returns
  undetermined at the first failed premise; a differing pair only marks the
  verdict dormant, since a premise read later may still fail. A partition
  target keeps the phase's prepared pairs and, after the scan, compares
  them on each union of its blocks in turn.

Every comparison is exact rational equality; this module has no tolerance
parameter. All functions are pure; the quantifier loops run in a fixed
canonical order so results are deterministic.

A subject may be a single outcome (tuple) or a nonempty event (frozenset);
verdicts depend on an outcome only through its projection onto the
intervened coordinates, so event subjects are deduplicated by that
projection. A target may be an event or a partition, in which case every
union of its blocks is a target; each phase enumerates the unions afresh,
so a union lives only while it is compared. Before any row is read, the
inputs are checked once by the space's own rules (the input gates of
:mod:`causalspaces.space`): an event target or given event by
``ProductSpace.event``, a partition target or given algebra by
``ProductSpace.check_partition``, then the subject by ``check_outcome`` or
``event``. A stray member or a partition of another space raises
ValueError, from every verdict and from ``check_lemma1``, ``check_prop2``
and ``check_prop3``.
"""

from __future__ import annotations

import enum
from itertools import count
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    BlockCountExceededError,
    EmptySubjectError,
    PremiseNotMetError,
)
from .kernels import CausalSpace, InterventionSpec, _derive, intervention_measure, subsets_in_order
from .measure import Measure, cond_independent, independent
from .space import Event, Outcome, Partition, _Value, coordinate_subalgebra, cut_at

DEFAULT_BLOCK_CAP = 16

Subject = Union[Outcome, Event]
Target = Union[Event, Partition]


class EffectTag(enum.Enum):
    NO_EFFECT = "no-effect"
    ACTIVE = "active"
    DORMANT = "dormant"
    UNDETERMINED = "undetermined"


class Reason(_Value):
    """Why a verdict is undetermined."""

    _fields = ("kind",)

    def __init__(self, kind: str):  # "zero-measure-conditioning" | "not-mutually-abs-continuous"
        self.__dict__.update(kind=kind)

    def __str__(self) -> str:
        return self.kind


ZERO_MEASURE_CONDITIONING = Reason("zero-measure-conditioning")
NOT_MUTUALLY_ABS_CONT = Reason("not-mutually-abs-continuous")


class EffectVerdict(_Value):
    """Outcome of an effect query: a tag plus a reason when undetermined."""

    _fields = ("tag", "reason")

    def __init__(self, tag: EffectTag, reason: Optional[Reason] = None):
        self.__dict__.update(tag=tag, reason=reason)
        self.__post_init__()

    def __post_init__(self):
        if (self.tag is EffectTag.UNDETERMINED) != (self.reason is not None):
            raise ValueError("exactly the undetermined verdicts carry a reason")

    @property
    def determined(self) -> bool:
        return self.tag is not EffectTag.UNDETERMINED

    def __str__(self) -> str:
        return f"{self.tag.value} ({self.reason})" if self.reason else self.tag.value


NO_EFFECT = EffectVerdict(EffectTag.NO_EFFECT)
ACTIVE = EffectVerdict(EffectTag.ACTIVE)
DORMANT = EffectVerdict(EffectTag.DORMANT)


def undetermined(reason: Reason) -> EffectVerdict:
    return EffectVerdict(EffectTag.UNDETERMINED, reason)


# ---------------------------------------------------------------------------
# the engine: subject keys, targets, row pairs, comparators, aggregation


def _subject_keys(cs: CausalSpace, coords: frozenset, subject: Subject) -> list[Outcome]:
    """Distinct projections of the subject onto `coords`, in canonical order.

    An event's members are cut by one cutter over the subset's positions. An
    outcome goes through :meth:`~causalspaces.space.ProductSpace.restrict`,
    a boundary that ``bench/tracer.py`` requires to be called.
    """
    space = cs.space
    if isinstance(subject, tuple):
        return [space.restrict(space.check_outcome(subject), coords)]
    members = space.event(subject)
    if not members:
        raise EmptySubjectError("the subject event is empty")
    keys = set(map(cut_at(space.positions(coords)), members))
    return sorted(keys, key=space.subspace(coords).outcome_index.__getitem__)


def algebra_events(partition: Partition, block_cap: Optional[int] = None) -> Iterator[Event]:
    """Every union of the partition's blocks (the whole sigma-algebra).

    Refuses partitions above the block cap instead of sampling.
    """
    cap = DEFAULT_BLOCK_CAP if block_cap is None else block_cap
    n = len(partition.blocks)
    if n > cap:
        raise BlockCountExceededError(n, cap)
    for mask in range(1 << n):
        out: frozenset = frozenset()
        for i in range(n):
            if mask >> i & 1:
                out |= partition.blocks[i]
        yield out


def _pairs(cs: CausalSpace, u: frozenset, keys: list[Outcome], shapes) -> Iterator[tuple]:
    """Row pairs of each shape, per subject key, per assignment of the free coordinates.

    A shape is (joint subset, reduced subset, coordinates fixed from the
    subject key). For each assignment `part` of the joint coordinates
    outside `fixed`, the joint row takes the key's labels on `fixed` and
    `part` elsewhere; the reduced row is that cell restricted to the reduced
    subset. Yields (part, read1, key1, read2, key2): ``read(key, a)`` is the
    probability of `a` under row `key` of the kernel on that subset.

    Each shape's key plan is built once, from the cached positions of its
    subsets: the cell ``key + part`` holds the label of the coordinate at
    position g of an outcome at cell index ``at[g]``, and each key is cut
    from the cell by the space's cut rule,
    :func:`~causalspaces.space.cut_at`.
    """
    space = cs.space
    pu = space.positions(u)
    in_key = dict(zip(pu, count()))
    for joint, reduced, fixed in shapes:
        # the kernel on the empty subset is the observational measure, read directly
        read1, read2 = (cs.kernel(s).value if s else lambda key, a: cs.observational(a) for s in (joint, reduced))
        free = joint - fixed
        # a free coordinate's label comes from `part` even when it is also in u
        at = in_key | dict(zip(space.positions(free), count(len(pu))))
        cut1 = cut_at([at[g] for g in space.positions(joint)])
        # the reduced key is `part` itself unless the reduced subset differs from the free coordinates
        cut2 = None if reduced == free else cut_at([at[g] for g in space.positions(reduced)])
        for key in keys:
            for part in space.subspace(free).outcomes:
                cell = key + part
                yield part, read1, cut1(cell), read2, part if cut2 is None else cut2(cell)


class _Equal:
    """Compares the two rows' probabilities of the target; no premise."""

    def prepare(self, pair: tuple) -> tuple:
        return pair

    def split(self, a: Event) -> Event:
        return a

    def differs(self, prepared: tuple, a: Event) -> bool:
        # row sums return the shared ONE and ZERO for the totals den and 0, so identity settles most pairs
        _, read1, key1, read2, key2 = prepared
        m1, m2 = read1(key1, a), read2(key2, a)
        return m1 is not m2 and m1 != m2


class _GivenAlgebra:
    """Compares probabilities given each block; a given event is the one block ``(g,)``.

    Premise for an event (`strict`): `g` has positive mass under both rows.
    Premise for a sigma-algebra: mutual absolute continuity on it, so a block
    null under both rows is skipped.
    """

    def __init__(self, given: Union[Event, Partition]):
        self.strict = not isinstance(given, Partition)
        self.blocks = (given,) if self.strict else given.blocks
        self.reason = ZERO_MEASURE_CONDITIONING if self.strict else NOT_MUTUALLY_ABS_CONT

    def prepare(self, pair: tuple) -> Optional[tuple]:
        _, read1, key1, read2, key2 = pair
        dens = []
        for b in self.blocks:
            d1, d2 = read1(key1, b), read2(key2, b)
            if (d1 == 0 or d2 == 0) if self.strict else (d1 == 0) != (d2 == 0):
                return None
            dens.append((d1, d2))
        return pair, dens

    def split(self, a: Event) -> list:
        # once the premise holds, a block inside `a` or missing it gives the ratio 1 or 0 under both rows
        return [(i, x) for i, b in enumerate(self.blocks) if (x := b & a) and x != b]

    def differs(self, prepared: tuple, parts: list) -> bool:
        (_, read1, key1, read2, key2), dens = prepared
        for i, x in parts:
            d1, d2 = dens[i]
            if d1 and read1(key1, x) * d2 != read2(key2, x) * d1:
                return True
        return False


def _verdict(
    cs: CausalSpace,
    u: Iterable[str],
    v: Iterable[str],
    subject: Subject,
    target: Target,
    given: Union[Event, Partition, None],
    block_cap: Optional[int],
    active_only: bool,
) -> EffectVerdict:
    """The one aggregation loop behind every verdict (see the module docstring)."""
    space = cs.space
    u, v = space.check_subset(u), space.check_subset(v)
    target = space.check_partition(target) if isinstance(target, Partition) else space.event(target)
    if given is not None:
        given = space.check_partition(given) if isinstance(given, Partition) else space.event(given)
    keys = _subject_keys(cs, u, subject)
    compare = _Equal() if given is None else _GivenAlgebra(given)
    prepare, differs = compare.prepare, compare.differs
    # an event target is split once and compared as each pair is read; a partition's unions wait for the scan
    a = None if isinstance(target, Partition) else compare.split(target)
    for tag in (ACTIVE,) if active_only else (ACTIVE, DORMANT):
        if tag is ACTIVE:
            shapes = [(u | v, v, u)]
        else:
            w = u - v
            family = [t for t in subsets_in_order(space.ids) if t >= v]
            cs.require_kernels(family)
            # a row compared with itself only when w is empty, since otherwise it is also the
            # reduced row of a kept shape (module docstring: skipped shapes)
            shapes = [(t, t - w, t & w) for t in family if not w or t & w]
        checked, blocked, found = [], False, False
        for pair in _pairs(cs, u, keys, shapes):
            prepared = prepare(pair)
            if prepared is None:
                if tag is not ACTIVE:
                    return undetermined(compare.reason)  # outranks dormant
                blocked = True  # another row may still be active
            elif a is None:
                checked.append(prepared)
            elif not found and differs(prepared, a):
                if tag is ACTIVE:
                    return ACTIVE
                found = True  # dormant, unless a later premise fails
        if a is None:
            for parts in map(compare.split, algebra_events(target, block_cap)):
                for p in checked:
                    if differs(p, parts):
                        return tag
        if found:
            return tag
        if blocked:
            return undetermined(compare.reason)
    return NO_EFFECT


# ---------------------------------------------------------------------------
# active effects (marginal comparison against the observational measure)


def active_effect(cs: CausalSpace, coords: Iterable[str], omega: Outcome, a: Event) -> bool:
    """Whether the kernel row selected by `omega` moves the probability of `a`."""
    return _verdict(cs, coords, (), tuple(omega), a, None, None, True) is ACTIVE


def active_effect_event(cs: CausalSpace, coords: Iterable[str], b: Event, a: Event) -> bool:
    """Whether some outcome of the nonempty event `b` has an active effect on `a`."""
    return _verdict(cs, coords, (), frozenset(b), a, None, None, True) is ACTIVE


def active_effect_on_algebra(
    cs: CausalSpace,
    coords: Iterable[str],
    subject: Subject,
    algebra: Partition,
    block_cap: Optional[int] = None,
) -> bool:
    """Whether the subject has an active effect on some event of the algebra.

    Scans every union of the partition's blocks (capped), not just the blocks.
    """
    return _verdict(cs, coords, (), subject, algebra, None, block_cap, True) is ACTIVE


# ---------------------------------------------------------------------------
# the unconditional trichotomy


def has_causal_effect(cs: CausalSpace, coords: Iterable[str], omega: Outcome, a: Event) -> bool:
    """The strong notion: some joint intervention is changed by also fixing `coords`.

    Quantifies over every subset S and every assignment of the S-minus-U
    coordinates; requires the full kernel family.
    """
    coords = cs.space.check_subset(coords)
    cs.require_kernels(subsets_in_order(cs.space.ids))
    return _verdict(cs, coords, (), tuple(omega), a, None, None, False) is not NO_EFFECT


def classify(
    cs: CausalSpace,
    coords: Iterable[str],
    subject: Subject,
    target: Target,
    block_cap: Optional[int] = None,
) -> EffectVerdict:
    """No/active/dormant verdict for a subject on an event or sigma-algebra.

    Active needs only the kernel on `coords`, so a positive verdict comes
    back even on a partial family; separating no-effect from dormant
    quantifies over every subset and raises on the first missing kernel.
    """
    return _verdict(cs, coords, (), subject, target, None, block_cap, False)


# ---------------------------------------------------------------------------
# conditional variants, given an event


def conditional_active_effect_event(
    cs: CausalSpace,
    coords: Iterable[str],
    subject: Subject,
    a: Event,
    g: Event,
) -> EffectVerdict:
    """Active-effect verdict with both measures conditioned on the event `g`.

    Undetermined unless `g` has positive probability observationally and
    under each subject row; event subjects aggregate per-outcome verdicts.
    """
    return _verdict(cs, coords, (), subject, a, frozenset(g), None, True)


def conditional_classify_event(
    cs: CausalSpace,
    coords: Iterable[str],
    subject: Subject,
    target: Target,
    g: Event,
    block_cap: Optional[int] = None,
) -> EffectVerdict:
    """Trichotomy verdict conditioned on an event.

    Active and the S=U positivity premise need only the kernel on `coords`;
    the full quantified no-effect check runs (and may raise on a missing
    kernel) only when neither settles the verdict.
    """
    return _verdict(cs, coords, (), subject, target, frozenset(g), block_cap, False)


# ---------------------------------------------------------------------------
# conditional variants, given a sigma-algebra


def conditional_active_effect_algebra(
    cs: CausalSpace,
    coords: Iterable[str],
    subject: Subject,
    a: Event,
    algebra: Partition,
) -> EffectVerdict:
    """Active-effect verdict with both measures conditioned on a sigma-algebra.

    Undetermined unless the observational and the row measure are mutually
    absolutely continuous on the algebra; otherwise compares the conditional
    probabilities of `a` block by block over the positive-measure blocks.
    """
    return _verdict(cs, coords, (), subject, a, algebra, None, True)


def conditional_classify_algebra(
    cs: CausalSpace,
    coords: Iterable[str],
    subject: Subject,
    target: Target,
    algebra: Partition,
    block_cap: Optional[int] = None,
) -> EffectVerdict:
    """Trichotomy verdict conditioned on a sigma-algebra.

    Mirrors the event form: the active comparison and its mutual-continuity
    premise use only the kernel on `coords`; the quantified check over every
    subset runs only when those leave the verdict open.
    """
    return _verdict(cs, coords, (), subject, target, algebra, block_cap, False)


# ---------------------------------------------------------------------------
# post-intervention variants


def post_intervention_active_effect(
    cs: CausalSpace,
    u: Iterable[str],
    v: Iterable[str],
    subject: Subject,
    a: Event,
) -> bool:
    """Whether intervening on `u` still moves `a` once `v` has been intervened on."""
    return _verdict(cs, u, v, subject, a, None, None, True) is ACTIVE


def post_intervention_classify(
    cs: CausalSpace,
    u: Iterable[str],
    v: Iterable[str],
    subject: Subject,
    target: Target,
    block_cap: Optional[int] = None,
) -> EffectVerdict:
    """No/active/dormant verdict for interventions on `u` after fixing `v`.

    The active comparison needs the kernels on the union and on `v` alone;
    the quantified no-effect check requires the wider family and raises on
    the first missing subset in canonical order.
    """
    return _verdict(cs, u, v, subject, target, None, block_cap, False)


# ---------------------------------------------------------------------------
# effect queries


class EffectQuery(_Value):
    """One effect question: who intervenes, on what, compared how.

    `subject` is an outcome or a nonempty event; `target` an event or a
    partition; `given` conditions the comparison; `post` asks the
    post-intervention variant (mutually exclusive with `given`).
    """

    _fields = ("intervention", "subject", "target", "given", "post")

    def __init__(
        self,
        intervention: frozenset,
        subject: Subject,
        target: Target,
        given: Union[Event, Partition, None] = None,
        post: Optional[frozenset] = None,
    ):
        self.__dict__.update(intervention=intervention, subject=subject, target=target, given=given, post=post)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "intervention", frozenset(self.intervention))
        if self.post is not None:
            object.__setattr__(self, "post", frozenset(self.post))
            if self.given is not None:
                raise ValueError("a query conditions or post-intervenes, not both")


def run_query(
    cs: CausalSpace,
    query: EffectQuery,
    active_only: bool = False,
    block_cap: Optional[int] = None,
) -> EffectVerdict:
    """Dispatch an :class:`EffectQuery` to the matching verdict operation.

    With `active_only` the cheaper active-effect checks run (no full kernel
    family needed); otherwise the trichotomy operations run.
    """
    u, v, subject, target, given = query.intervention, query.post, query.subject, query.target, query.given
    if not active_only:
        if v is not None:
            return post_intervention_classify(cs, u, v, subject, target, block_cap)
        if isinstance(given, Partition):
            return conditional_classify_algebra(cs, u, subject, target, given, block_cap)
        if given is not None:
            return conditional_classify_event(cs, u, subject, target, given, block_cap)
        return classify(cs, u, subject, target, block_cap)
    if isinstance(target, Partition):
        if v is None and given is None:
            return ACTIVE if active_effect_on_algebra(cs, u, subject, target, block_cap) else NO_EFFECT
        # the conditional and post-intervention active checks take no block cap
        return _verdict(cs, u, v or (), subject, target, given, block_cap, True)
    if v is not None:
        return ACTIVE if post_intervention_active_effect(cs, u, v, subject, target) else NO_EFFECT
    if isinstance(given, Partition):
        return conditional_active_effect_algebra(cs, u, subject, target, given)
    if given is not None:
        return conditional_active_effect_event(cs, u, subject, target, given)
    if isinstance(subject, tuple):
        return ACTIVE if active_effect(cs, u, subject, target) else NO_EFFECT
    return ACTIVE if active_effect_event(cs, u, subject, target) else NO_EFFECT


# ---------------------------------------------------------------------------
# executable forms of the independence results


def check_lemma1(cs: CausalSpace, coords: Iterable[str], a: Event, q: Measure) -> bool:
    """No active effect anywhere implies independence under the intervention.

    Verifies the premise (every row leaves the probability of `a` unchanged)
    and then actually tests independence of `a` and the coordinate algebra
    under the mixed measure; a theorem, so False means an implementation bug.
    """
    coords = cs.space.check_subset(coords)
    a = cs.space.event(a)
    if _verdict(cs, coords, (), cs.space.all_event(), a, None, None, True) is ACTIVE:
        raise PremiseNotMetError("some outcome has an active effect on the event")
    pdo = intervention_measure(cs, InterventionSpec(coords, q))
    return independent(pdo, a, coordinate_subalgebra(cs.space, coords))


def check_prop2(
    cs: CausalSpace,
    coords: Iterable[str],
    a: Event,
    given: Union[Event, Partition],
    q: Measure,
) -> bool:
    """No conditional active effect anywhere implies conditional independence."""
    coords = cs.space.check_subset(coords)
    a = cs.space.event(a)
    verdict = _verdict(cs, coords, (), frozenset(cs.space.outcomes), a, given, None, True)
    if verdict.tag is not EffectTag.NO_EFFECT:
        raise PremiseNotMetError(f"conditional active-effect verdict is {verdict}")
    pdo = intervention_measure(cs, InterventionSpec(coords, q))
    result = cond_independent(pdo, a, coordinate_subalgebra(cs.space, coords), given)
    return bool(result)


def check_prop3(
    cs: CausalSpace,
    u: Iterable[str],
    v: Iterable[str],
    omega: Outcome,
    a: Event,
    q_on_v: Optional[Measure] = None,
    q_on_u: Optional[Measure] = None,
) -> bool:
    """No post-intervention active effect is preserved by actually intervening.

    Part (i), checked when `u` and `v` are disjoint and `q_on_v` is given: in
    the space intervened on `v`, the subject has no active `u`-effect on `a`.
    Part (ii), checked when `q_on_u` is given: in the space intervened on `u`,
    the post-intervention no-effect statement still holds.
    """
    u, v = cs.space.check_subset(u), cs.space.check_subset(v)
    omega = cs.space.check_outcome(omega)
    a = cs.space.event(a)
    if post_intervention_active_effect(cs, u, v, omega, a):
        raise PremiseNotMetError("the subject has an active post-intervention effect")
    if q_on_v is None and q_on_u is None:
        raise ValueError("provide a mixing measure for part (i), part (ii), or both")
    ok = True
    if q_on_v is not None and not (u & v):
        after_v = _derive(cs, InterventionSpec(v, q_on_v), [u])
        ok = ok and not active_effect(after_v, u, omega, a)
    if q_on_u is not None:
        after_u = _derive(cs, InterventionSpec(u, q_on_u), [u | v, v])
        ok = ok and not post_intervention_active_effect(after_u, u, v, omega, a)
    return ok

