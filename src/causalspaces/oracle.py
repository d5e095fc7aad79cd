"""A second, deliberately naive implementation of every effect verdict.

This module re-derives verdicts by writing each quantified definition out
literally: loop over every subset, every replacement outcome, every union of
partition blocks, every member of the subject event, with no deduplication
and no shortcuts. It shares the data model (spaces, kernels, partitions,
verdict tags) with the rest of the package but none of the computation
helpers in :mod:`causalspaces.effects`, so agreement between the two is
meaningful differential evidence. The one thing it does not repeat is
building a Fraction table: the observational table and each kernel row's
are copied into a dict once per call and read again from a per-call memo.

Intended for test suites and for reproducing disagreements from the command
line; it is exponentially slower than the main implementation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .errors import BlockCountExceededError, EmptySubjectError
from .kernels import CausalSpace
from .space import Event, Outcome, Partition
from .effects import (
    ACTIVE,
    DORMANT,
    NO_EFFECT,
    NOT_MUTUALLY_ABS_CONT,
    ZERO_MEASURE_CONDITIONING,
    DEFAULT_BLOCK_CAP,
    EffectQuery,
    EffectTag,
    EffectVerdict,
    undetermined,
)

_ZERO = Fraction(0)


def _mass(table, a: Event) -> Fraction:
    total = _ZERO
    for o, w in table.items():
        if o in a:
            total += w
    return total


class _Reads:
    """A causal space as one oracle call reads it: each Fraction table is built once per call."""

    def __init__(self, cs: CausalSpace):
        self.space, self.kernel = cs.space, cs.kernel
        self.p = dict(cs.observational.weights)
        self.tables: dict = {}


def _row_table(cs: _Reads, coords: frozenset, omega: Outcome):
    key = tuple(l for l, cid in zip(omega, cs.space.ids) if cid in coords)
    table = cs.tables.get((coords, key))
    if table is None:
        table = cs.tables[coords, key] = dict(cs.kernel(coords).rows[key])
    return table


def _all_subsets(ids):
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            yield frozenset(combo)


def _assignments(cs: _Reads, coords: frozenset):
    """Every assignment of labels to `coords`, as {cid: label} dicts."""
    picked = [cid for cid in cs.space.ids if cid in coords]
    pools = [cs.space.coordinate(cid).labels for cid in picked]
    for labels in product(*pools):
        yield dict(zip(picked, labels))


def _replace(cs: _Reads, omega: Outcome, assignment: dict) -> Outcome:
    return tuple(assignment.get(cid, l) for l, cid in zip(omega, cs.space.ids))


def _unions(partition: Partition, cap: Optional[int]):
    cap = DEFAULT_BLOCK_CAP if cap is None else cap
    if len(partition.blocks) > cap:
        raise BlockCountExceededError(len(partition.blocks), cap)
    events = [frozenset()]
    for block in partition.blocks:
        events += [e | block for e in events]
    return events


# -- per-outcome, per-event verdicts, written out definition by definition ----


def _active(cs, u, omega, a) -> bool:
    return _mass(_row_table(cs, u, omega), a) != _mass(cs.p, a)


def _has_effect(cs, u, omega, a) -> bool:
    for s in _all_subsets(cs.space.ids):
        for assignment in _assignments(cs, s - u):
            spliced = _replace(cs, omega, assignment)
            if _mass(_row_table(cs, s, spliced), a) != _mass(_row_table(cs, s - u, spliced), a):
                return True
    return False


def _cond_event_active(cs, u, omega, a, g) -> Optional[bool]:
    pg = _mass(cs.p, g)
    row = _row_table(cs, u, omega)
    kg = _mass(row, g)
    if pg == 0 or kg == 0:
        return None
    return _mass(row, g & a) / kg != _mass(cs.p, g & a) / pg


def _cond_event_no_effect(cs, u, omega, a, g) -> Optional[bool]:
    verdict = True
    for s in _all_subsets(cs.space.ids):
        for assignment in _assignments(cs, s - u):
            spliced = _replace(cs, omega, assignment)
            t1 = _row_table(cs, s, spliced)
            t2 = _row_table(cs, s - u, spliced)
            d1, d2 = _mass(t1, g), _mass(t2, g)
            if d1 == 0 or d2 == 0:
                return None
            if _mass(t1, g & a) / d1 != _mass(t2, g & a) / d2:
                verdict = False
    return verdict


def _mutually_continuous(t1, t2, algebra: Partition) -> bool:
    for block in algebra.blocks:
        if (_mass(t1, block) == 0) != (_mass(t2, block) == 0):
            return False
    return True


def _cond_algebra_equal(t1, t2, a, algebra: Partition) -> bool:
    for block in algebra.blocks:
        d1, d2 = _mass(t1, block), _mass(t2, block)
        if d1 == 0:
            continue
        if _mass(t1, block & a) / d1 != _mass(t2, block & a) / d2:
            return False
    return True


def _cond_algebra_active(cs, u, omega, a, algebra) -> Optional[bool]:
    row = _row_table(cs, u, omega)
    p = cs.p
    if not _mutually_continuous(p, row, algebra):
        return None
    return not _cond_algebra_equal(p, row, a, algebra)


def _cond_algebra_no_effect(cs, u, omega, a, algebra) -> Optional[bool]:
    verdict = True
    for s in _all_subsets(cs.space.ids):
        for assignment in _assignments(cs, s - u):
            spliced = _replace(cs, omega, assignment)
            t1 = _row_table(cs, s, spliced)
            t2 = _row_table(cs, s - u, spliced)
            if not _mutually_continuous(t1, t2, algebra):
                return None
            if not _cond_algebra_equal(t1, t2, a, algebra):
                verdict = False
    return verdict


def _post_active(cs, u, v, omega, a) -> bool:
    for assignment in _assignments(cs, v - u):
        spliced = _replace(cs, omega, assignment)
        if _mass(_row_table(cs, u | v, spliced), a) != _mass(_row_table(cs, v, spliced), a):
            return True
    return False


def _post_no_effect(cs, u, v, omega, a) -> bool:
    for s in _all_subsets(cs.space.ids):
        reduced = (s | v) - (u - v)
        for assignment in _assignments(cs, reduced):
            spliced = _replace(cs, omega, assignment)
            if _mass(_row_table(cs, s | v, spliced), a) != _mass(_row_table(cs, reduced, spliced), a):
                return False
    return True


def _point_verdict(cs, query: EffectQuery, omega: Outcome, a: Event) -> EffectVerdict:
    u = query.intervention
    if query.post is not None:
        if _post_active(cs, u, query.post, omega, a):
            return ACTIVE
        if not _post_no_effect(cs, u, query.post, omega, a):
            return DORMANT
        return NO_EFFECT
    if isinstance(query.given, Partition):
        active = _cond_algebra_active(cs, u, omega, a, cs.space.check_partition(query.given))
        if active:
            return ACTIVE
        no_effect = _cond_algebra_no_effect(cs, u, omega, a, query.given)
        if active is None or no_effect is None:
            return undetermined(NOT_MUTUALLY_ABS_CONT)
        return NO_EFFECT if no_effect else DORMANT
    if query.given is not None:
        g = cs.space.event(query.given)
        active = _cond_event_active(cs, u, omega, a, g)
        if active:
            return ACTIVE
        no_effect = _cond_event_no_effect(cs, u, omega, a, g)
        if active is None or no_effect is None:
            return undetermined(ZERO_MEASURE_CONDITIONING)
        return NO_EFFECT if no_effect else DORMANT
    if _active(cs, u, omega, a):
        return ACTIVE
    return DORMANT if _has_effect(cs, u, omega, a) else NO_EFFECT


_PRIORITY = (EffectTag.ACTIVE, EffectTag.UNDETERMINED, EffectTag.DORMANT, EffectTag.NO_EFFECT)


def oracle_effect_brute(cs: CausalSpace, query: EffectQuery, block_cap: Optional[int] = None) -> EffectVerdict:
    """The query's trichotomy verdict by exhaustive literal enumeration.

    The subject, the target and what is given are read by the space's own
    rules, as the engine reads them, so both refuse the same stray inputs.
    """
    if isinstance(query.subject, tuple):
        subjects = [cs.space.check_outcome(query.subject)]
    else:
        subjects = list(cs.space.sort_event(query.subject))
        if not subjects:
            raise EmptySubjectError("the subject event is empty")
    if isinstance(query.target, Partition):
        targets = _unions(cs.space.check_partition(query.target), block_cap)
    else:
        targets = [cs.space.event(query.target)]
    verdicts = []
    reads = _Reads(cs)
    for omega in subjects:
        for a in targets:
            v = _point_verdict(reads, query, omega, a)
            if v.tag is EffectTag.ACTIVE:
                return v
            verdicts.append(v)
    for tag in _PRIORITY:
        for v in verdicts:
            if v.tag is tag:
                return v
    return NO_EFFECT
