"""Seeded sweep helpers and space constructions shared by the test suites."""

import random
from fractions import Fraction

from causalspaces.effects import EffectQuery
from causalspaces.generators import GenConfig, gen_dormant_space, gen_random_space, gen_screened_space
from causalspaces.kernels import CausalKernel, CausalSpace, subsets_in_order
from causalspaces.measure import uniform
from causalspaces.space import Coordinate, ProductSpace, coordinate_subalgebra, generated_algebra


def random_effect_query(rng: random.Random, cs) -> EffectQuery:
    """A random query covering every subject/target/conditioning combination."""
    sp = cs.space
    ids = sorted(sp.ids)
    outcomes = list(sp.outcomes)
    u = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
    if rng.random() < 0.5:
        subject = rng.choice(outcomes)
    else:
        subject = frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes))))
    roll = rng.random()
    if roll < 0.7:
        target = frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes))))
    elif roll < 0.85:
        target = coordinate_subalgebra(sp, frozenset(rng.sample(ids, rng.randint(0, len(ids)))))
    else:
        target = generated_algebra(sp, [frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes))))])
    mode = rng.random()
    given = post = None
    if mode < 0.35:
        pass
    elif mode < 0.55:
        given = frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes))))
    elif mode < 0.75:
        given = coordinate_subalgebra(sp, frozenset(rng.sample(ids, rng.randint(0, len(ids)))))
    else:
        post = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
    return EffectQuery(u, subject, target, given=given, post=post)


def random_space_stream(rng: random.Random, trial: int):
    """A mix of adversarial constructions and random full-family spaces."""
    seed = rng.randrange(10**6)
    if trial % 40 == 0:
        return gen_dormant_space()
    if trial % 40 == 1:
        return gen_screened_space(GenConfig(seed=seed))
    if trial % 5 == 0:
        return gen_random_space(GenConfig(seed=seed, max_coords=2, max_labels=3))
    return gen_random_space(GenConfig(seed=seed, max_labels=2))


def with_point_mass_rows(rng: random.Random, cs, share: float):
    """A copy of `cs` in which each kernel row, with probability `share`, is a point mass on its cylinder.

    Point masses make conditioning events null on single rows, so premises
    fail on rows the active comparison never reads.
    """
    space = cs.space
    kernels = {}
    for s, kernel in cs.kernels.items():
        rows = {
            key: {rng.choice(cyl): Fraction(1)} if rng.random() < share else kernel.rows[key]
            for key, cyl in space.cylinders(s).items()
        }
        kernels[s] = CausalKernel(space, s, rows)
    return CausalSpace(space, cs.observational, kernels)


def without_kernels(cs, dropped):
    """`cs` with the kernels on the `dropped` subsets removed from its family."""
    return CausalSpace(cs.space, cs.observational, {s: k for s, k in cs.kernels.items() if s not in dropped})


def skip_aimed_query(rng: random.Random, cs) -> EffectQuery:
    """A query aimed at the scan's identical-row skip.

    Covers an empty intervention, an intervention inside, across and outside
    the post-intervened set, and event subjects with several keys. A nonempty
    intervention leaves a coordinate out where it can, so that kernels on
    subsets disjoint from it exist.
    """
    sp = cs.space
    ids = sorted(sp.ids)
    outcomes = list(sp.outcomes)
    u = frozenset() if rng.random() < 0.25 else frozenset(rng.sample(ids, rng.randint(1, max(1, len(ids) - 1))))
    if rng.random() < 0.3:
        subject = rng.choice(outcomes)
    else:
        subject = frozenset(rng.sample(outcomes, rng.randint(2, len(outcomes)))) if len(outcomes) > 1 else outcomes[0]
    roll = rng.random()
    if roll < 0.2:
        target = frozenset(outcomes)  # never active, so the quantified scan decides
    elif roll < 0.8:
        target = frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes))))
    else:
        target = coordinate_subalgebra(sp, frozenset(rng.sample(ids, rng.randint(0, len(ids)))))
    mode = rng.random()
    given = post = None
    if mode < 0.2:
        pass
    elif mode < 0.55:
        given = frozenset(rng.sample(outcomes, rng.randint((len(outcomes) + 1) // 2, len(outcomes))))
    elif mode < 0.65:
        given = coordinate_subalgebra(sp, frozenset(rng.sample(ids, rng.randint(0, len(ids)))))
    else:
        others = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        post = rng.choice((u | others, (others - u) | frozenset(rng.sample(sorted(u), len(u) // 2)), others - u))
    return EffectQuery(u, subject, target, given=given, post=post)


def uniform_binary_space(n: int):
    """n binary coordinates, a uniform observational measure, every kernel row uniform on its cylinder."""
    space = ProductSpace(tuple(Coordinate(f"c{i}", ("0", "1")) for i in range(n)))
    kernels = {
        s: CausalKernel(space, s, {key: {o: Fraction(1, len(cyl)) for o in cyl} for key, cyl in space.cylinders(s).items()})
        for s in subsets_in_order(space.ids)
        if s
    }
    return CausalSpace(space, uniform(space), kernels)
