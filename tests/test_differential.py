import random
from collections import Counter
from fractions import Fraction

import pytest

from causalspaces.effects import (
    DORMANT,
    NO_EFFECT,
    NOT_MUTUALLY_ABS_CONT,
    ZERO_MEASURE_CONDITIONING,
    EffectQuery,
    EffectTag,
    run_query,
    undetermined,
)
from causalspaces.errors import BlockCountExceededError, EmptySubjectError, KernelMissingError
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.kernels import CausalKernel, CausalSpace, subsets_in_order
from causalspaces.oracle import oracle_effect_brute
from causalspaces.space import Partition, coordinate_subalgebra, generated_algebra

from sweeps import (
    block_partition,
    block_query,
    conditioned,
    dense_binary_space,
    dense_query,
    random_effect_query,
    random_space_stream,
    skip_aimed_query,
    uniform_binary_space,
    with_point_mass_rows,
    without_kernels,
)


def test_oracle_copy_space_fixed_points(copy_space):
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    assert oracle_effect_brute(copy_space, EffectQuery(frozenset({"c1"}), ("0", "1"), diag)) is DORMANT
    whole = copy_space.space.all_event()
    assert oracle_effect_brute(copy_space, EffectQuery(frozenset({"c1"}), ("0", "1"), whole)) is NO_EFFECT
    with pytest.raises(EmptySubjectError, match="^the subject event is empty$"):
        oracle_effect_brute(copy_space, EffectQuery(frozenset({"c1"}), frozenset(), whole))
    cells = coordinate_subalgebra(copy_space.space, {"c1", "c2"})
    with pytest.raises(BlockCountExceededError, match=r"^partition has 4 blocks, exceeding the cap of 3 \(2\*\*4 unions\)$"):
        oracle_effect_brute(copy_space, EffectQuery(frozenset({"c1"}), ("0", "1"), cells), block_cap=3)


def test_differential_agreement_quick():
    rng = random.Random(99)
    for trial in range(250):
        cs = random_space_stream(rng, trial)
        query = random_effect_query(rng, cs)
        expected = oracle_effect_brute(cs, query)
        assert run_query(cs, query) == expected, (trial, query)
        assert _active_only_agrees(run_query(cs, query, active_only=True), expected), (trial, query)


@pytest.mark.parametrize("n, seed", [(4, 4104), (5, 5105)])
def test_differential_agreement_on_dense_families(n, seed):
    # every row is positive on its whole cylinder, so most row sums add several weights
    rng = random.Random(seed)
    seen = Counter()
    for trial in range(48):
        cs = dense_binary_space(rng, n, rng.choice((0.0, 0.3)))
        for mode in ("plain", "event", "partition", "post"):
            query = dense_query(rng, cs, mode)
            expected = oracle_effect_brute(cs, query)
            assert run_query(cs, query) == expected, (trial, query)
            assert _active_only_agrees(run_query(cs, query, active_only=True), expected), (trial, query)
            seen[mode, expected.tag] += 1
    for mode in ("plain", "event", "partition", "post"):
        assert seen[mode, EffectTag.ACTIVE] >= 3 and seen[mode, EffectTag.NO_EFFECT] >= 3, seen


def test_differential_agreement_on_block_partitions():
    # targets and given algebras of 5-8 blocks that no coordinate set generates, on full binary families
    rng = random.Random(5)
    seen = Counter()
    for trial in range(10):
        base = dense_binary_space(rng, 3 + trial % 2, rng.choice((0.0, 0.5)))
        if trial % 3 == 1:
            base = with_point_mass_rows(rng, base, 0.2)
        for mode in ("target", "given algebra", "both", "given event", "post"):
            query = block_query(rng, base, mode)
            cs = base
            if trial % 3 == 2:  # the measure on the subject's side of a coordinate of U: blocks off it are null under both rows
                omega = query.subject if isinstance(query.subject, tuple) else min(query.subject)
                cid = min(query.intervention)
                cs = conditioned(base, base.space.where(**{cid: omega[base.space.ids.index(cid)]}))
            expected = oracle_effect_brute(cs, query)
            assert run_query(cs, query) == expected, (trial, query)
            assert _active_only_agrees(run_query(cs, query, active_only=True), expected), (trial, query)
            seen[expected.tag] += 1
    assert min(seen[tag] for tag in EffectTag) >= 3, seen


def _active_only_agrees(active_only, oracle) -> bool:
    """Active exactly when the oracle is active; undetermined only as the oracle's verdict; else no-effect."""
    if EffectTag.ACTIVE in (active_only.tag, oracle.tag) or active_only.tag is EffectTag.UNDETERMINED:
        return active_only == oracle
    return active_only == NO_EFFECT


def _null_row_off_u(cs, query) -> bool:
    """Whether some row of a kernel on T, T nonempty and disjoint from U, gives the given event mass 0."""
    g, u = query.given, query.intervention
    return any(
        cs.kernel(t).value(key, g) == 0
        for t in subsets_in_order(cs.space.ids)
        if t and not t & u
        for key in cs.space.subspace(t).outcomes
    )


def test_differential_agreement_aimed_at_the_skip():
    # the quantified scan skips the shapes that compare a row with itself; these queries
    # put the skip's edge cases in front of the oracle
    rng = random.Random(2718)
    seen = Counter()
    for trial in range(400):
        cs = gen_random_space(GenConfig(seed=rng.randrange(10**6), max_labels=2))
        while len(cs.space.ids) < 2:  # one coordinate leaves no kernel off a nonempty U
            cs = gen_random_space(GenConfig(seed=rng.randrange(10**6), max_labels=2))
        if trial % 2:
            cs = with_point_mass_rows(rng, cs, 0.5)
        query = skip_aimed_query(rng, cs)
        expected = oracle_effect_brute(cs, query)
        got, active_only = run_query(cs, query), run_query(cs, query, active_only=True)
        assert got == expected, (trial, query)
        assert _active_only_agrees(active_only, expected), (trial, query)
        u, v = query.intervention, query.post
        if not u:
            seen["empty U"] += 1
        elif v is not None and u <= v:
            seen["U inside V"] += 1
        elif v is not None and u & v:
            seen["U across V"] += 1
        if isinstance(query.subject, frozenset) and len({cs.space.restrict(o, u) for o in query.subject}) > 1:
            seen["several subject keys"] += 1
        given_event = query.given is not None and not isinstance(query.given, Partition)
        if given_event and u and active_only == NO_EFFECT and _null_row_off_u(cs, query):
            # with the skip, that row's premise is read only on the reduced side of the shape T + U
            assert got == undetermined(ZERO_MEASURE_CONDITIONING), (trial, query)
            seen["null row off U"] += 1
    assert min(seen[k] for k in ("empty U", "U inside V", "U across V", "several subject keys", "null row off U")) >= 10, seen


def test_null_row_off_u_stays_undetermined():
    # K_{c1}(0) is a point mass off g; every other row gives g positive mass, and no row is active
    base = uniform_binary_space(2)
    sp = base.space
    c1 = frozenset({"c1"})
    rows = {**base.kernels[c1].rows, ("0",): {("1", "0"): 1}}
    cs = CausalSpace(sp, base.observational, {**base.kernels, c1: CausalKernel(sp, c1, rows)})
    g = sp.event([("0", "0"), ("0", "1"), ("1", "1")])
    for u in ({"c0"}, set()):
        query = EffectQuery(frozenset(u), ("0", "0"), sp.all_event(), given=g)
        assert run_query(cs, query, active_only=True) == NO_EFFECT
        assert run_query(cs, query) == oracle_effect_brute(cs, query) == undetermined(ZERO_MEASURE_CONDITIONING)


def _oracle_or_missing(cs, query):
    try:
        return oracle_effect_brute(cs, query)
    except KernelMissingError:
        return KernelMissingError


def test_kernel_missing_parity_on_partial_families():
    """The engine raises KernelMissingError only where the oracle reads a missing kernel or exits before it.

    The engine asks for the whole family before the quantified scan; the
    oracle reads kernels as it goes and may stop early at a dormant pair or a
    failed premise, never with no-effect. Verdicts the engine does return
    match the oracle's on the completed family.
    """
    rng = random.Random(3141)
    seen = Counter()
    for trial in range(300):
        full = gen_random_space(GenConfig(seed=rng.randrange(10**6), max_labels=2))
        family = [s for s in subsets_in_order(full.space.ids) if s]
        dropped = {s for s in family if rng.random() < 0.25} or {rng.choice(family)}
        partial = without_kernels(full, dropped)
        query = random_effect_query(rng, full)
        expected = oracle_effect_brute(full, query)
        for active_only in (False, True):
            try:
                got = run_query(partial, query, active_only=active_only)
            except KernelMissingError:
                oracle = _oracle_or_missing(partial, query)
                if oracle is KernelMissingError:
                    seen["both raise"] += 1
                else:
                    # the oracle reads the compared kernels first, so only the quantified scan can stop early
                    assert not active_only, (trial, query)
                    assert oracle == expected and expected.tag in (EffectTag.DORMANT, EffectTag.UNDETERMINED), (trial, query)
                    seen["oracle stops early"] += 1
                continue
            seen["answered"] += 1
            assert (_active_only_agrees(got, expected) if active_only else got == expected), (trial, query, active_only)
    assert seen["both raise"] >= 10 and seen["answered"] >= 10, seen


@pytest.mark.parametrize("missing", [{"c1"}, {"c2"}, {"c1", "c2"}])
def test_kernel_missing_off_u_still_raises(missing):
    # K_T with T and U = {c0} disjoint is read only as the reduced side of T + {c0}; its absence must still raise
    cs = without_kernels(uniform_binary_space(3), {frozenset(missing)})
    sp = cs.space
    queries = [
        EffectQuery(frozenset({"c0"}), ("0", "1", "0"), sp.all_event()),
        EffectQuery(frozenset({"c0"}), frozenset(sp.outcomes), sp.where(c1="0"), given=sp.all_event()),
        EffectQuery(frozenset({"c0"}), ("1", "1", "0"), sp.where(c2="1"), given=coordinate_subalgebra(sp, {"c1"})),
    ]
    for query in queries:
        for run in (run_query, oracle_effect_brute):
            with pytest.raises(KernelMissingError):
                run(cs, query)


def test_post_intervention_kernel_missing_off_w_still_raises():
    # after intervening on V = {c1}, K_{c1} is read only as the reduced side of {c0, c1}
    cs = without_kernels(uniform_binary_space(3), {frozenset({"c1"})})
    query = EffectQuery(frozenset({"c0"}), ("0", "0", "0"), cs.space.all_event(), post=frozenset({"c1"}))
    for run in (run_query, oracle_effect_brute):
        with pytest.raises(KernelMissingError):
            run(cs, query)


def _with_negative_row(rng: random.Random, cs) -> CausalSpace:
    """A copy of `cs` in which one row of a kernel off the full set sums to 1 with a negative weight."""
    space = cs.space
    s = rng.choice([s for s in subsets_in_order(space.ids) if s and len(s) < len(space.ids)])
    key, cyl = rng.choice(list(space.cylinders(s).items()))
    rows = {**cs.kernels[s].rows, key: {cyl[0]: Fraction(3, 2), cyl[-1]: Fraction(-1, 2)}}
    return CausalSpace(space, cs.observational, {**cs.kernels, s: CausalKernel(space, s, rows)})


def _coarsening(rng: random.Random, partition: Partition) -> Partition:
    """A partition whose every block is a union of `partition`'s blocks."""
    blocks = rng.sample(partition.blocks, len(partition.blocks))
    k = rng.randint(1, len(blocks))
    groups = [[b] for b in blocks[:k]]
    for b in blocks[k:]:
        rng.choice(groups).append(b)
    return Partition(partition.space, tuple(frozenset().union(*g) for g in groups))


UNSPLIT_MODES = ("given inside target", "given off target", "union of blocks", "coarser partition", "post, U meets V")


def _unsplit_query(rng: random.Random, cs, mode: str) -> EffectQuery:
    """A query whose target splits no block of what is given, or a post-intervention query with U meeting V.

    A given event g lies inside the target or off it; given an algebra, the
    target is a union of its blocks, or a partition whose blocks are such
    unions, so that every event of the target's algebra is one.
    """
    sp = cs.space
    ids, outcomes = list(sp.ids), list(sp.outcomes)
    u = frozenset(rng.sample(ids, rng.randint(1, min(2, len(ids)))))
    subject = rng.choice(outcomes) if rng.random() < 0.6 else frozenset(rng.sample(outcomes, min(3, len(outcomes))))
    whole = rng.random() < 0.4  # Omega given, or the trivial algebra: premises a point-mass row can hold
    if mode.startswith("given"):
        g = sp.all_event() if whole else frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes))))
        rest = [o for o in outcomes if o not in g]
        a = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
        return EffectQuery(u, subject, g | a if mode == "given inside target" else a, given=g)
    if mode == "post, U meets V":  # V holds one or both coordinates of U, and maybe others
        u = frozenset(rng.sample(ids, min(2, len(ids))))
        others = [cid for cid in ids if cid not in u]
        v = frozenset(rng.sample(sorted(u), rng.randint(1, len(u))) + rng.sample(others, rng.randint(0, len(others))))
        target = sp.all_event() if rng.random() < 0.3 else frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes))))
        return EffectQuery(u, subject, target, post=v)
    if whole:
        algebra = coordinate_subalgebra(sp, frozenset())
    elif len(outcomes) >= 4 and rng.random() < 0.5:
        algebra = block_partition(rng, sp, 2, min(5, len(outcomes)))
    else:
        algebra = coordinate_subalgebra(sp, frozenset(rng.sample(ids, rng.randint(1, len(ids)))))
    coarser = _coarsening(rng, algebra)
    if mode == "coarser partition":
        return EffectQuery(u, subject, coarser, given=algebra)
    return EffectQuery(u, subject, frozenset().union(*rng.sample(coarser.blocks, rng.randint(0, len(coarser.blocks)))), given=algebra)


@pytest.mark.parametrize("family", ["dense", "sparse", "negative row"])
def test_differential_agreement_on_targets_that_split_no_block(family):
    # a block the target misses or covers gives it the conditional probability 0 or 1 under both rows,
    # even under a row with a negative weight; the verdicts must still be the oracle's, undetermined ones included
    rng = random.Random(f"unsplit/{family}")
    seen = Counter()
    for trial in range(20):
        if family == "sparse":
            cs = gen_random_space(GenConfig(seed=rng.randrange(10**6), max_coords=3, max_labels=2))
            while [len(c.labels) for c in cs.space.coordinates] != [2, 2, 2]:  # the shape of the dense families
                cs = gen_random_space(GenConfig(seed=rng.randrange(10**6), max_coords=3, max_labels=2))
            cs = with_point_mass_rows(rng, cs, 0.3) if trial % 2 else cs
        else:
            cs = dense_binary_space(rng, 3, rng.choice((0.0, 0.5)))
            cs = _with_negative_row(rng, cs) if family == "negative row" else cs
        for mode in UNSPLIT_MODES:
            query = _unsplit_query(rng, cs, mode)
            expected = oracle_effect_brute(cs, query)
            assert run_query(cs, query) == expected, (trial, query)
            assert _active_only_agrees(run_query(cs, query, active_only=True), expected), (trial, query)
            seen[mode.startswith("post"), expected.tag] += 1
    # a target that splits no block never moves a conditional probability: given modes end no-effect or undetermined
    assert set(seen) <= {(False, EffectTag.NO_EFFECT), (False, EffectTag.UNDETERMINED)} | {(True, tag) for tag in EffectTag}
    assert min(seen[False, EffectTag.NO_EFFECT], seen[False, EffectTag.UNDETERMINED], seen[True, EffectTag.NO_EFFECT]) >= 3, seen
    assert seen[True, EffectTag.ACTIVE] + seen[True, EffectTag.DORMANT] >= 1, seen


def _split_query(rng: random.Random, cs, mode: str) -> EffectQuery:
    """A query whose target splits one block of what is given, or several.

    Half the time the target is a cylinder event over coordinates outside U,
    given Omega or the algebra of some of the other coordinates outside U,
    never all of the cylinder's: U may leave it unmoved and the premises can
    hold on a dense family, so the quantified scan decides. Otherwise what is
    given is random, and the target splits a random nonempty set of its
    blocks of two or more outcomes and covers or misses each other block; a
    partition target is the algebra that event generates.
    """
    sp = cs.space
    ids, outcomes = list(sp.ids), list(sp.outcomes)
    u = frozenset(rng.sample(ids, rng.randint(1, 2)))
    subject = rng.choice(outcomes) if rng.random() < 0.6 else frozenset(rng.sample(outcomes, 3))
    if rng.random() < 0.5:
        off_u = [cid for cid in ids if cid not in u]
        moved = rng.sample(off_u, rng.randint(1, len(off_u)))
        a = sp.where(**{cid: rng.choice("01") for cid in moved})
        if mode == "given event":
            return EffectQuery(u, subject, a, given=sp.all_event())
        kept = [cid for cid in rng.sample(off_u, rng.randint(0, len(off_u))) if cid != moved[0]]
        return EffectQuery(u, subject, a, given=coordinate_subalgebra(sp, frozenset(kept)))
    if mode == "given event":
        given = frozenset(rng.sample(outcomes, rng.randint(2, len(outcomes))))
        blocks = [given]
    else:
        if rng.random() < 0.5:
            given = block_partition(rng, sp, 2, 5)
        else:
            given = coordinate_subalgebra(sp, frozenset(rng.sample(ids, rng.randint(0, 2))))
        blocks = given.blocks
    splittable = [b for b in blocks if len(b) > 1]
    split = rng.sample(splittable, 1 if rng.random() < 0.5 else rng.randint(1, len(splittable)))
    a = frozenset()
    for b in blocks:
        if b in split:
            members = [o for o in outcomes if o in b]
            a |= frozenset(rng.sample(members, rng.randint(1, len(members) - 1)))
        elif rng.random() < 0.5:
            a |= b
    if mode == "given event":
        rest = [o for o in outcomes if o not in given]
        a |= frozenset(rng.sample(rest, rng.randint(0, len(rest))))
    return EffectQuery(u, subject, generated_algebra(sp, [a]) if rng.random() < 0.3 else a, given=given)


def test_differential_agreement_on_targets_that_split_some_blocks():
    # the conditional comparison reads only the blocks the target splits; the verdicts, undetermined
    # ones included, must still be the oracle's when any block, or only one, is split
    seen = Counter()
    for family in ("dense", "sparse", "negative row"):
        rng = random.Random(f"split/{family}")
        for trial in range(20):
            if family == "sparse":
                cs = gen_random_space(GenConfig(seed=rng.randrange(10**6), max_coords=3, max_labels=2))
                while [len(c.labels) for c in cs.space.coordinates] != [2, 2, 2]:
                    cs = gen_random_space(GenConfig(seed=rng.randrange(10**6), max_coords=3, max_labels=2))
                cs = with_point_mass_rows(rng, cs, 0.3) if trial % 2 else cs
            else:
                cs = dense_binary_space(rng, 3, 0.4)
                cs = _with_negative_row(rng, cs) if family == "negative row" else cs
            for mode in ("given event", "given algebra"):
                query = _split_query(rng, cs, mode)
                expected = oracle_effect_brute(cs, query)
                assert run_query(cs, query) == expected, (family, trial, query)
                assert _active_only_agrees(run_query(cs, query, active_only=True), expected), (family, trial, query)
                seen[mode, expected.tag] += 1
    for mode in ("given event", "given algebra"):
        assert seen[mode, EffectTag.ACTIVE] >= 3 and seen[mode, EffectTag.DORMANT] >= 3, seen


@pytest.mark.parametrize("given_kind", ["event", "algebra"])
def test_premises_are_read_where_the_target_splits_no_block(given_kind):
    # K_{c1}(0) is a point mass on (1, 0, 0), read as the reduced side of T = {c0, c1} against a row
    # uniform on c0 = 0, c1 = 0. It gives g (the outcomes with c0 = 0) and the block c2 = 1 no mass,
    # and no other row is null where its partner is not. The targets cover or miss every block, so
    # nothing is compared, yet the failed premise decides the verdict, and the active phase still
    # leaves a partial family to raise
    base = uniform_binary_space(3)
    sp = base.space
    c1 = frozenset({"c1"})
    rows = {**base.kernels[c1].rows, ("0",): {("1", "0", "0"): 1}}
    cs = CausalSpace(sp, base.observational, {**base.kernels, c1: CausalKernel(sp, c1, rows)})
    if given_kind == "event":
        given = sp.where(c0="0")
        targets, reason = [given, given | sp.where(c2="1"), sp.all_event()], ZERO_MEASURE_CONDITIONING
    else:
        given = coordinate_subalgebra(sp, {"c2"})
        targets, reason = [frozenset(), sp.where(c2="1"), sp.all_event(), given], NOT_MUTUALLY_ABS_CONT
    partial = without_kernels(cs, {frozenset({"c1", "c2"})})
    for target in targets:
        query = EffectQuery(frozenset({"c0"}), ("0", "1", "1"), target, given=given)
        assert run_query(cs, query, active_only=True) == run_query(partial, query, active_only=True) == NO_EFFECT
        assert run_query(cs, query) == oracle_effect_brute(cs, query) == undetermined(reason)
        with pytest.raises(KernelMissingError):
            run_query(partial, query)
