"""Metamorphic relations on generated spaces of at most four coordinates.

- Coordinate order: declaring the coordinates in another order, with every
  cell, row key, subject, target and conditioning object relabelled to
  match, changes no verdict and no score.
- Marginalization: for kept coordinates K containing the intervened ones,
  and a target and conditioning event measurable on K, the active verdict
  on the marginal space equals the one on the full space, and a full-space
  no-effect verdict stays no-effect on the marginal (which quantifies over
  fewer subsets).
"""

import random
from collections import Counter
from fractions import Fraction

from causalspaces.effects import NO_EFFECT, EffectQuery, EffectTag, run_query
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.kernels import CausalKernel, CausalSpace, marginalize
from causalspaces.measure import Measure, RandomVariable
from causalspaces.scores import (
    F1,
    F2,
    MEAN_AND_VARIANCE_DIFF,
    TOTAL_VARIATION,
    max_effect_score_algebra,
    max_effect_score_event,
    mean_effect_score_algebra,
    mean_effect_score_event,
)
from causalspaces.space import Partition, ProductSpace, coordinate_subalgebra, generated_algebra

F = Fraction


def _spaces(seed0: int, count: int):
    for s in range(count):
        yield gen_random_space(GenConfig(seed=seed0 + s, max_coords=4, max_labels=3 if s % 5 == 0 else 2))


def _random_measure(rng, space):
    raw = [0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in space.outcomes]
    raw[rng.randrange(len(raw))] += 1
    return Measure(space, {o: F(w, sum(raw)) for o, w in zip(space.outcomes, raw) if w})


def _small_partition(rng, space):
    """A partition of at most a few blocks: a coordinate algebra on at most two coordinates, or one generated by an event."""
    if rng.random() < 0.6:
        return coordinate_subalgebra(space, rng.sample(space.ids, rng.randint(0, min(2, len(space.ids)))))
    return generated_algebra(space, [frozenset(rng.sample(space.outcomes, rng.randint(0, len(space.outcomes))))])


def _query(rng, cs) -> EffectQuery:
    sp = cs.space
    outcomes = sp.outcomes
    u = frozenset(rng.sample(sp.ids, rng.randint(0, len(sp.ids))))
    if rng.random() < 0.5:
        subject = rng.choice(outcomes)
    else:
        subject = frozenset(rng.sample(outcomes, rng.randint(1, min(4, len(outcomes)))))
    target = frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes)))) if rng.random() < 0.7 else _small_partition(rng, sp)
    mode = rng.random()
    if mode < 0.35:
        return EffectQuery(u, subject, target)
    if mode < 0.55:
        return EffectQuery(u, subject, target, given=frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes)))))
    if mode < 0.75:
        return EffectQuery(u, subject, target, given=_small_partition(rng, sp))
    return EffectQuery(u, subject, target, post=frozenset(rng.sample(sp.ids, rng.randint(0, len(sp.ids)))))


def _verdict_or_error(cs, query, active_only):
    try:
        return run_query(cs, query, active_only=active_only)
    except Exception as exc:  # a missing kernel, say: compared by type
        return type(exc)


# ---------------------------------------------------------------------------
# coordinate order


class _Reordered:
    """`cs` with its coordinates declared in `order`, and the relabelling of everything on it."""

    def __init__(self, cs: CausalSpace, order):
        self.old = cs.space
        self.new = ProductSpace(tuple(self.old.coordinate(c) for c in order))
        self._source = [self.old.ids.index(c) for c in order]
        p = Measure(self.new, {self.outcome(o): w for o, w in cs.observational.weights.items()})
        kernels = {
            s: CausalKernel(self.new, s, {self.key(s, k): self.table(t) for k, t in kernel.rows.items()})
            for s, kernel in cs.kernels.items()
        }
        self.cs = CausalSpace(self.new, p, kernels)

    def outcome(self, o):
        return tuple(o[i] for i in self._source)

    def key(self, coords, key):
        labels = dict(zip(self.old.ordered(coords), key))
        return tuple(labels[c] for c in self.new.ordered(coords))

    def table(self, table):
        return {self.outcome(o): w for o, w in table.items()}

    def __call__(self, x):
        """An outcome, event or partition of the old space, relabelled."""
        if isinstance(x, tuple):
            return self.outcome(x)
        if isinstance(x, Partition):
            return Partition(self.new, tuple(frozenset(map(self.outcome, b)) for b in x.blocks))
        return frozenset(map(self.outcome, x))

    def query(self, q: EffectQuery) -> EffectQuery:
        given = None if q.given is None else self(q.given)
        return EffectQuery(q.intervention, self(q.subject), self(q.target), given=given, post=q.post)

    def measure(self, coords, m: Measure) -> Measure:
        return Measure(self.new.subspace(coords), {self.key(coords, k): w for k, w in m.weights.items()})


def _same_max(score, moved_score, relabel, cs, u):
    """Equal size and tie flag; untied, the same value from the same (relabelled) row."""
    assert (score.magnitude(), score.tied) == (moved_score.magnitude(), moved_score.tied)
    if not score.tied:
        assert score.value == moved_score.value
        table = cs.kernel(u).rows[cs.space.restrict(score.argmax, u)]
        moved_cs = relabel.cs
        assert moved_cs.kernel(u).rows[moved_cs.space.restrict(moved_score.argmax, u)] == relabel.table(table)


def test_coordinate_order_leaves_verdicts_unchanged():
    rng = random.Random(7501)
    tags = Counter()
    for cs in _spaces(75_000, 60):
        order = list(cs.space.ids)
        while len(order) > 1 and order == list(cs.space.ids):
            rng.shuffle(order)
        relabel = _Reordered(cs, order)
        for _ in range(15):
            query = _query(rng, cs)
            for active_only in (True, False):
                got = _verdict_or_error(cs, query, active_only)
                assert got == _verdict_or_error(relabel.cs, relabel.query(query), active_only), (order, query)
                tags[active_only, getattr(got, "tag", got)] += 1
    assert sum(tags.values()) == 1800
    assert all(tags[False, t] >= 5 for t in EffectTag), tags  # dormant is the rarest


def test_coordinate_order_leaves_scores_unchanged():
    rng = random.Random(7502)
    maxima = 0
    for cs in _spaces(75_100, 40):
        sp = cs.space
        order = list(sp.ids)
        rng.shuffle(order)
        relabel = _Reordered(cs, order)
        for _ in range(4):
            u = frozenset(rng.sample(sp.ids, rng.randint(0, len(sp.ids))))
            q = _random_measure(rng, sp.subspace(u))
            a = frozenset(rng.sample(sp.outcomes, rng.randint(0, len(sp.outcomes))))
            cid = rng.choice(sp.ids)
            algebra = coordinate_subalgebra(sp, {cid} | set(rng.sample(sp.ids, rng.randint(0, len(sp.ids)))))
            rv = RandomVariable.from_coordinate(sp, cid)
            moved_rv = RandomVariable.from_coordinate(relabel.new, cid)
            for scale in (F1, F2):
                assert mean_effect_score_event(cs, u, q, a, scale).value == mean_effect_score_event(
                    relabel.cs, u, relabel.measure(u, q), relabel(a), scale
                ).value
            for functional, var, moved_var in ((TOTAL_VARIATION, None, None), (MEAN_AND_VARIANCE_DIFF, rv, moved_rv)):
                assert mean_effect_score_algebra(cs, u, q, algebra, functional, var).value == mean_effect_score_algebra(
                    relabel.cs, u, relabel.measure(u, q), relabel(algebra), functional, moved_var
                ).value
            cylinders = list(sp.cylinders(u).values())
            b = frozenset(o for cyl in rng.sample(cylinders, rng.randint(1, len(cylinders))) for o in cyl)
            for scale in (F1, F2):
                score = max_effect_score_event(cs, u, b, a, scale)
                _same_max(score, max_effect_score_event(relabel.cs, u, relabel(b), relabel(a), scale), relabel, cs, u)
                maxima += 1
            for functional, var, moved_var in ((TOTAL_VARIATION, None, None), (MEAN_AND_VARIANCE_DIFF, rv, moved_rv)):
                score = max_effect_score_algebra(cs, u, b, algebra, functional, var)
                moved = max_effect_score_algebra(relabel.cs, u, relabel(b), relabel(algebra), functional, moved_var)
                _same_max(score, moved, relabel, cs, u)
                maxima += 1
    assert maxima == 640


# ---------------------------------------------------------------------------
# marginalization


def test_marginal_keeps_active_verdicts_and_no_effect():
    rng = random.Random(7601)
    active, implied = Counter(), 0
    for cs in _spaces(76_000, 200):
        sp = cs.space
        if len(sp.ids) < 2:
            continue
        for _ in range(8):
            keep = frozenset(rng.sample(sp.ids, rng.randint(1, len(sp.ids) - 1)))
            u = frozenset(rng.sample(sorted(keep), rng.randint(0, len(keep))))
            small = marginalize(cs, keep)
            cylinders = list(sp.cylinders(keep).items())

            def on_k(n):
                """A random event measurable on K, on both spaces."""
                chosen = rng.sample(cylinders, n)
                return frozenset(o for _, cyl in chosen for o in cyl), frozenset(key for key, _ in chosen)

            omega = rng.choice(sp.outcomes)
            a, small_a = on_k(rng.randint(0, len(cylinders)))
            given = on_k(rng.randint(1, len(cylinders))) if rng.random() < 0.4 else (None, None)
            query = EffectQuery(u, omega, a, given=given[0])
            small_query = EffectQuery(u, sp.restrict(omega, keep), small_a, given=given[1])
            verdict = run_query(cs, query, active_only=True)
            assert verdict == run_query(small, small_query, active_only=True), (keep, query)
            active[verdict.tag] += 1
            if run_query(cs, query) is NO_EFFECT:
                assert run_query(small, small_query) is NO_EFFECT, (keep, query)
                implied += 1
    assert len(active) == 3 and min(active.values()) >= 30 and sum(active.values()) >= 1000 and implied >= 500, (active, implied)
