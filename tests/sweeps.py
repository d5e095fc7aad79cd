"""Seeded sweep helpers and space constructions shared by the test suites."""

import random
from fractions import Fraction
from itertools import product

from causalspaces.effects import EffectQuery
from causalspaces.generators import GenConfig, gen_dormant_space, gen_random_space, gen_screened_space
from causalspaces.kernels import CausalKernel, CausalSpace, subsets_in_order
from causalspaces.measure import Measure, uniform
from causalspaces.space import Coordinate, Partition, ProductSpace, coordinate_subalgebra, generated_algebra


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


def literal_holds(kernel) -> bool:
    """Whether every row of `kernel` is a probability row on its key's cylinder, walked literally.

    Each row is read as a table of Fractions: no weight is negative, every
    outcome is in Ω and agrees with the key at each of the kernel's
    coordinates (an index loop), and the weights sum to 1.
    """
    sp = kernel.space
    pos = [i for i, cid in enumerate(sp.ids) if cid in kernel.coords]
    for key, row in kernel.rows.items():
        total = Fraction(0)
        for o, w in row.items():
            if w < 0 or o not in sp.outcomes or any(o[pos[j]] != key[j] for j in range(len(pos))):
                return False
            total += w
        if total != 1:
            return False
    return True


def conditioned(cs, event):
    """A copy of `cs` whose observational measure is conditioned on `event`, which it must give positive mass."""
    total = cs.observational(event)
    weights = {o: w / total for o, w in cs.observational.weights.items() if o in event}
    return CausalSpace(cs.space, Measure(cs.space, weights), cs.kernels)


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
    return uniform_space(ProductSpace(tuple(Coordinate(f"c{i}", ("0", "1")) for i in range(n))))


def uniform_space(space: ProductSpace):
    """The full family on `space`: a uniform observational measure, every kernel row uniform on its cylinder."""
    kernels = {
        s: CausalKernel(space, s, {key: {o: Fraction(1, len(cyl)) for o in cyl} for key, cyl in space.cylinders(s).items()})
        for s in subsets_in_order(space.ids)
        if s
    }
    return CausalSpace(space, uniform(space), kernels)


def dense_binary_space(rng: random.Random, n: int, share: float):
    """n binary coordinates on which every kernel row, and the measure, is positive on each cell of its cylinder.

    The coordinates are independent under the measure, P = p0 x ... x p(n-1).
    Each kernel is, with probability `share`, a random positive table per
    row; otherwise it keeps its row key's labels and draws the other
    coordinates from P, so that U has no effect on events about the other
    coordinates and the quantified scan runs to its end.
    """
    space = ProductSpace(tuple(Coordinate(f"c{i}", ("0", "1")) for i in range(n)))
    marginals = []
    for _ in range(n):
        w = rng.randint(1, 11)
        marginals.append({"0": Fraction(w, 12), "1": Fraction(12 - w, 12)})

    def product(o, coords):
        out = Fraction(1)
        for i, cid in enumerate(space.ids):
            if cid not in coords:
                out *= marginals[i][o[i]]
        return out

    kernels = {}
    for s in subsets_in_order(space.ids)[1:]:
        rows = {}
        for key, cyl in space.cylinders(s).items():
            if rng.random() < share:
                raw = [rng.randint(1, 9) for _ in cyl]
                rows[key] = {o: Fraction(w, sum(raw)) for o, w in zip(cyl, raw)}
            else:
                rows[key] = {o: product(o, s) for o in cyl}
        kernels[s] = CausalKernel(space, s, rows)
    measure = Measure(space, {o: product(o, frozenset()) for o in space.outcomes})
    return CausalSpace(space, measure, kernels)


def dense_query(rng: random.Random, cs, mode: str) -> EffectQuery:
    """A query of the given mode ("plain", "event", "partition" or "post") for a dense space.

    The kernel on all the coordinates has point-mass rows, so only the given
    event Omega and the trivial partition hold every premise of the
    quantified scan; each is drawn half the time, and otherwise a random
    nonempty event or the algebra of one or two coordinates. Targets mix
    random events, cylinder events on coordinates outside U, Omega and the
    empty event.
    """
    sp = cs.space
    ids = list(sp.ids)
    outcomes = list(sp.outcomes)
    u = frozenset(rng.sample(ids, rng.randint(1, 2)))
    subject = rng.choice(outcomes) if rng.random() < 0.5 else frozenset(rng.sample(outcomes, rng.randint(1, 3)))
    roll = rng.random()
    if roll < 0.4:
        target = frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes) - 1)))
    elif roll < 0.8:
        off_u = [cid for cid in ids if cid not in u]  # nonempty: u holds at most two of n >= 3 coordinates
        target = sp.where(**{cid: rng.choice("01") for cid in rng.sample(off_u, rng.randint(1, 2))})
    else:
        target = rng.choice((sp.all_event(), frozenset()))
    given = post = None
    whole = rng.random() < 0.5
    if mode == "event":
        given = sp.all_event() if whole else frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes))))
    elif mode == "partition":
        given = coordinate_subalgebra(sp, frozenset() if whole else frozenset(rng.sample(ids, rng.randint(1, 2))))
    elif mode == "post":
        post = frozenset(rng.sample(ids, rng.randint(0, 2)))
    return EffectQuery(u, subject, target, given=given, post=post)


def block_partition(rng: random.Random, space, lo: int = 5, hi: int = 8, atoms=None) -> Partition:
    """A random partition of `space` into lo..hi blocks that is not the algebra of any coordinate set.

    Each block is a union of `atoms`, disjoint lists of outcomes that cover
    the space; by default each outcome is an atom.
    """
    atoms = [[o] for o in space.outcomes] if atoms is None else atoms
    coordinate_algebras = [coordinate_subalgebra(space, s) for s in subsets_in_order(space.ids)]
    while True:
        k = rng.randint(lo, min(hi, len(atoms)))
        shuffled = rng.sample(atoms, len(atoms))
        blocks = [list(a) for a in shuffled[:k]]  # every block nonempty
        for a in shuffled[k:]:
            rng.choice(blocks).extend(a)
        partition = Partition(space, tuple(frozenset(b) for b in blocks))
        if partition not in coordinate_algebras:
            return partition


def block_query(rng: random.Random, cs, mode: str) -> EffectQuery:
    """A query of the given mode whose target or given algebra is a :func:`block_partition`.

    Modes: "target" (a partition target, nothing given), "given algebra" (an
    event target given a partition), "both" (a partition target given a
    partition), "given event" (a partition target given an event) and "post"
    (a partition target after intervening on a random set). Where there are
    enough atoms, a target's blocks are unions of cylinders over the
    coordinates outside U, which U may leave unmoved, and the given algebra
    of "given algebra" has blocks that each meet every cylinder over U, so
    that the active premise can hold on a measure positive everywhere. A
    given event is always a union of cylinders over the coordinates outside U.
    """
    sp = cs.space
    ids = list(sp.ids)
    outcomes = list(sp.outcomes)
    u = frozenset(rng.sample(ids, 1 if rng.random() < 0.75 else 2))
    subject = rng.choice(outcomes) if rng.random() < 0.6 else frozenset(rng.sample(outcomes, rng.randint(1, 3)))
    off_u = list(sp.cylinders(set(ids) - u).values())
    across_u = [list(s) for s in zip(*(rng.sample(c, len(c)) for c in sp.cylinders(u).values()))]

    def partition(atoms, hi):
        return block_partition(rng, sp, 5, hi, atoms if len(atoms) >= 5 else None)

    if mode == "given algebra":
        target = frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes) - 1)))
    else:  # fewer blocks where the oracle's scan is slowest
        target = partition(off_u, {"both": 5, "post": 6}.get(mode, 8))
    given = post = None
    if mode == "given algebra":
        given = partition(across_u, 8)
    elif mode == "both":
        given = block_partition(rng, sp, 5, 6)
    elif mode == "given event":
        given = frozenset(o for atom in rng.sample(off_u, rng.randint(len(off_u) // 2, len(off_u))) for o in atom)
    elif mode == "post":
        post = frozenset(rng.sample(ids, rng.randint(0, 2)))
    return EffectQuery(u, subject, target, given=given, post=post)


def scm_space(rng: random.Random, n: int):
    """A random structural causal model on n binary coordinates, and the causal space it induces.

    The DAG runs over c0..c(n-1) in topological order: each edge c_j -> c_i
    with j < i is present with probability 1/2. Coordinate i has one rational
    table P(c_i = 1 | parents), with entries strictly between 0 and 1, that
    depends on every parent: flipping any one parent's label changes some
    entry (faithfulness). K_S(s, .) is the truncated factorisation, the
    labels of s on S times the tables of the coordinates outside S, and the
    observational measure is K on the empty subset. Returns (cs, parents,
    tables): parents[i] lists the parent indices of c_i in ascending order,
    and tables[i] maps their labels, in that order, to P(c_i = 1 | parents).
    """
    space = ProductSpace(tuple(Coordinate(f"c{i}", ("0", "1"), (Fraction(0), Fraction(1))) for i in range(n)))
    parents = [[j for j in range(i) if rng.random() < 0.5] for i in range(n)]
    flip = {"0": "1", "1": "0"}
    tables = []
    for ps in parents:
        assignments = list(product("01", repeat=len(ps)))
        while True:
            table = {pa: Fraction(rng.randint(1, 9), 10) for pa in assignments}
            if all(any(table[pa] != table[pa[:k] + (flip[pa[k]],) + pa[k + 1 :]] for pa in table) for k in range(len(ps))):
                break
        tables.append(table)

    def weight(o, s):
        w = Fraction(1)
        for i, cid in enumerate(space.ids):
            if cid not in s:
                p1 = tables[i][tuple(o[j] for j in parents[i])]
                w *= p1 if o[i] == "1" else 1 - p1
        return w

    kernels = {
        s: CausalKernel(space, s, {key: {o: weight(o, s) for o in cyl} for key, cyl in space.cylinders(s).items()})
        for s in subsets_in_order(space.ids)[1:]
    }
    observational = Measure(space, {o: weight(o, frozenset()) for o in space.outcomes})
    return CausalSpace(space, observational, kernels), parents, tables
