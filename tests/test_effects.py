import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from causalspaces.effects import (
    ACTIVE,
    DORMANT,
    NO_EFFECT,
    ZERO_MEASURE_CONDITIONING,
    EffectQuery,
    EffectTag,
    EffectVerdict,
    active_effect,
    active_effect_event,
    active_effect_on_algebra,
    check_lemma1,
    check_prop2,
    check_prop3,
    classify,
    conditional_active_effect_algebra,
    conditional_active_effect_event,
    conditional_classify_algebra,
    conditional_classify_event,
    has_causal_effect,
    post_intervention_active_effect,
    post_intervention_classify,
    run_query,
    undetermined,
)
from causalspaces import effects
from causalspaces.errors import (
    BlockCountExceededError,
    EmptySubjectError,
    KernelMissingError,
    PremiseNotMetError,
)
from causalspaces.generators import GenConfig, gen_null_effect_space, gen_random_space
from causalspaces.kernels import (
    CausalKernel,
    CausalSpace,
    InterventionSpec,
    intervene,
    intervention_measure,
    subsets_in_order,
    validate,
)
from causalspaces.measure import Measure, independent, uniform
from causalspaces.oracle import oracle_effect_brute
from causalspaces.space import Coordinate, Partition, ProductSpace, coordinate_subalgebra, generated_algebra

from sweeps import random_space_stream, uniform_binary_space, without_kernels

F = Fraction
INS = frozenset({"ins"})
C1 = frozenset({"c1"})


def factorized_space():
    """Kernels that resample every untouched coordinate from a fixed product law."""
    mu = {"c0": {("0",): F(1, 3), ("1",): F(2, 3)}, "c1": {("0",): F(1, 2), ("1",): F(1, 3), ("2",): F(1, 6)}}
    space = ProductSpace(
        (Coordinate("c0", ("0", "1")), Coordinate("c1", ("0", "1", "2")))
    )

    def weight(o, fixed):
        w = F(1)
        for cid, label in zip(space.ids, o):
            if cid in fixed:
                if fixed[cid] != label:
                    return F(0)
            else:
                w *= mu[cid][(label,)]
        return w

    p = Measure(space, {o: weight(o, {}) for o in space.outcomes})
    kernels = {}
    for coords in subsets_in_order(space.ids):
        if not coords:
            continue
        rows = {}
        for key in space.subspace(coords).outcomes:
            fixed = dict(zip(space.ordered(coords), key))
            rows[key] = {o: w for o in space.outcomes if (w := weight(o, fixed))}
        kernels[coords] = CausalKernel(space, coords, rows)
    return CausalSpace(space, p, kernels)


# ---------------------------------------------------------------------------
# active effects


def test_active_effect_insurance(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    assert active_effect(insurance, INS, ("N", "Y", "0"), a)
    assert active_effect(insurance, INS, ("N", "N", "0"), a)
    assert not active_effect(insurance, INS, ("N", "Y", "0"), insurance.space.all_event())


def test_active_effect_event_form(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    assert active_effect_event(insurance, INS, insurance.space.where(ins="Y"), a)
    with pytest.raises(EmptySubjectError):
        active_effect_event(insurance, INS, frozenset(), a)


def test_active_effect_on_algebra(insurance, insurance_doc):
    trivial = coordinate_subalgebra(insurance.space, set())
    by_pay = insurance_doc.partitions["by_pay"]
    b = insurance.space.where(ins="Y")
    assert not active_effect_on_algebra(insurance, INS, b, trivial)
    assert active_effect_on_algebra(insurance, INS, b, by_pay)
    with pytest.raises(BlockCountExceededError):
        active_effect_on_algebra(insurance, INS, b, by_pay, block_cap=2)


def test_active_effect_on_algebra_matches_manual_union_scan(insurance, insurance_doc):
    # a row of mass 3/2 that agrees with the measure on the first block: only the unions holding the last block differ
    sp = ProductSpace((Coordinate("c0", ("0", "1")), Coordinate("c1", ("0", "1"))))
    c0 = frozenset({"c0"})
    rows = {(x,): {(x, "0"): F(1, 2), (x, "1"): F(1)} for x in "01"}
    heavy = CausalSpace(sp, uniform(sp), {c0: CausalKernel(sp, c0, rows)})
    cases = [(insurance, INS, ("Y",), insurance_doc.partitions["by_pay"]), (heavy, c0, ("0",), coordinate_subalgebra(sp, {"c1"}))]
    for cs, u, key, algebra in cases:
        kernel = cs.kernel(u)
        p = cs.observational
        hit = False
        for r in range(len(algebra.blocks) + 1):
            for combo in combinations(algebra.blocks, r):
                union = frozenset().union(*combo) if combo else frozenset()
                if kernel.value(key, union) != p(union):
                    hit = True
        assert hit == active_effect_on_algebra(cs, u, cs.space.where(**dict(zip(sorted(u), key))), algebra)


# ---------------------------------------------------------------------------
# the trichotomy


def test_partition_target_keeps_no_union_between_phases():
    # no union moves under K_{c0}, so the active phase compares all 4096 of them before the
    # dormant phase finds K_{c1} missing; each phase enumerates the unions afresh, so none waits
    cs = uniform_binary_space(5)
    c0 = frozenset({"c0"})
    cs = without_kernels(cs, [s for s in cs.kernels if s != c0])
    cylinders = coordinate_subalgebra(cs.space, {"c1", "c2", "c3", "c4"}).blocks
    target = Partition(cs.space, cylinders[:11] + (frozenset().union(*cylinders[11:]),))
    assert len(target.blocks) == 12
    tracemalloc.start()
    try:
        with pytest.raises(KernelMissingError):
            classify(cs, c0, cs.space.outcomes[0], target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_has_causal_effect_copy_space(copy_space):
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    assert has_causal_effect(copy_space, C1, ("0", "1"), diag)
    assert not has_causal_effect(copy_space, C1, ("0", "1"), copy_space.space.all_event())


def test_has_causal_effect_requires_full_family(insurance, insurance_doc):
    with pytest.raises(KernelMissingError) as err:
        has_causal_effect(insurance, INS, ("N", "Y", "0"), insurance_doc.events["pays1000"])
    assert err.value.coords == frozenset({"dan"})


def test_factorized_space_has_no_effect_on_unintervened_events():
    cs = factorized_space()
    h_rest = coordinate_subalgebra(cs.space, {"c1"})
    unions = [frozenset()]
    for block in h_rest.blocks:
        unions += [u | block for u in unions]
    for omega in cs.space.outcomes:
        for a in unions:
            assert not has_causal_effect(cs, frozenset({"c0"}), omega, a)
            assert classify(cs, frozenset({"c0"}), omega, a) is NO_EFFECT


def test_classify_insurance_partial_family(insurance, insurance_doc):
    # an active verdict needs only the named kernel, so the partial family answers
    a = insurance_doc.events["pays1000"]
    assert classify(insurance, INS, ("N", "Y", "0"), a) is ACTIVE
    # distinguishing no-effect from dormant does need the full family
    with pytest.raises(KernelMissingError):
        classify(insurance, INS, ("N", "Y", "0"), insurance.space.all_event())


def test_classify_copy_space(copy_space):
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    assert classify(copy_space, C1, ("0", "1"), diag) is DORMANT
    assert classify(copy_space, C1, ("0", "0"), copy_space.space.where(c2="0")) is ACTIVE
    assert classify(copy_space, C1, ("0", "1"), frozenset()) is NO_EFFECT


def test_classify_event_subject_aggregation(copy_space):
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    whole = copy_space.space.all_event()
    assert classify(copy_space, C1, whole, diag) is DORMANT
    assert classify(copy_space, C1, whole, copy_space.space.where(c2="0")) is ACTIVE


def test_classify_algebra_target(copy_space):
    h2 = coordinate_subalgebra(copy_space.space, {"c2"})
    assert classify(copy_space, C1, ("0", "0"), h2) is ACTIVE
    trivial = coordinate_subalgebra(copy_space.space, set())
    assert classify(copy_space, C1, ("0", "0"), trivial) is NO_EFFECT
    diag_algebra = generated_algebra(copy_space.space, [copy_space.space.event([("0", "0"), ("1", "1")])])
    assert classify(copy_space, C1, ("0", "1"), diag_algebra) is DORMANT


# ---------------------------------------------------------------------------
# conditional variants


def test_conditional_event_insurance(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    omega = ("N", "Y", "0")
    assert conditional_active_effect_event(insurance, INS, omega, a, insurance_doc.events["no_danger"]) is NO_EFFECT
    assert conditional_active_effect_event(insurance, INS, omega, a, insurance_doc.events["high_danger"]) is ACTIVE
    null_g = frozenset([("N", "Y", "0")])
    verdict = conditional_active_effect_event(insurance, INS, omega, a, null_g)
    assert verdict.tag is EffectTag.UNDETERMINED
    assert verdict.reason.kind == "zero-measure-conditioning"


def test_conditional_event_subject_aggregation(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    whole = insurance.space.all_event()
    # given no danger both rows agree with the conditional observational law
    assert conditional_active_effect_event(insurance, INS, whole, a, insurance_doc.events["no_danger"]) is NO_EFFECT
    # a conditioning event unreachable for the no-insurance row blocks a verdict
    g = insurance.space.where(dan="N", ins="Y")
    verdict = conditional_active_effect_event(insurance, INS, whole, a, g)
    assert verdict.tag is EffectTag.UNDETERMINED
    # ... but an active row elsewhere wins over the blocked one
    verdict = conditional_active_effect_event(insurance, INS, whole, a, insurance.space.where(dan="H", ins="Y"))
    assert verdict is ACTIVE or verdict.tag is EffectTag.UNDETERMINED


def two_coordinate_space():
    """Two binary coordinates: P puts no mass on (1,0), K_{c0} and K_{c1} rows are uniform, K_{c0,c1} rows are point masses."""
    space = ProductSpace((Coordinate("c0", ("0", "1")), Coordinate("c1", ("0", "1"))))
    p = Measure(space, {("0", "0"): F(1, 2), ("0", "1"): F(1, 4), ("1", "1"): F(1, 4)})
    kernels = {
        s: CausalKernel(space, s, {key: {o: F(1, len(cyl)) for o in cyl} for key, cyl in space.cylinders(s).items()})
        for s in subsets_in_order(space.ids)
        if s
    }
    cs = CausalSpace(space, p, kernels)
    assert validate(cs) == []
    return cs


def test_a_failed_premise_read_after_a_differing_pair_still_outranks_dormant():
    # U = {c0}, subject (0,0), target {(0,0)}, given c1 = 0. The active pair, K_{c0}(0) against P, agrees: both give
    # the target all of g's mass. The quantified scan then reads the shape ({c0,c1}, {c1}, {c0}) over c1: at c1 = 0
    # the point mass at (0,0) gives ratio 1 and K_{c1}(0) gives 1/2, a difference; at c1 = 1 the point mass at
    # (0,1) gives g no mass. The premise read second still makes the verdict undetermined, not dormant
    cs = two_coordinate_space()
    sp = cs.space
    c0, subject, a, g = frozenset({"c0"}), ("0", "0"), frozenset({("0", "0")}), sp.where(c1="0")
    verdict = conditional_classify_event(cs, c0, subject, a, g)
    assert verdict == undetermined(ZERO_MEASURE_CONDITIONING)
    assert oracle_effect_brute(cs, EffectQuery(c0, subject, a, given=g)) == verdict
    # the pair at c1 = 0 differs, and the premise of the pair at c1 = 1, read after it, fails
    joint, reduced = cs.kernels[frozenset(sp.ids)], cs.kernels[frozenset({"c1"})]
    assert joint.value(("0", "0"), a & g) / joint.value(("0", "0"), g) == 1
    assert reduced.value(("0",), a & g) / reduced.value(("0",), g) == F(1, 2)
    assert joint.value(("0", "1"), g) == 0


def test_a_failed_premise_read_before_a_differing_pair_still_gives_active():
    # U = {c0}, subject keys 0 and 1, target {(1,1)}, given c0 = 1: the first active pair, K_{c0}(0) against P,
    # gives g no mass under K_{c0}(0); the second gives the target 1/2 under K_{c0}(1) and 1 under P
    cs = two_coordinate_space()
    sp = cs.space
    c0, subject, a, g = frozenset({"c0"}), frozenset({("0", "0"), ("1", "0")}), frozenset({("1", "1")}), sp.where(c0="1")
    assert conditional_active_effect_event(cs, c0, subject, a, g) is ACTIVE
    assert conditional_classify_event(cs, c0, subject, a, g) is ACTIVE
    assert oracle_effect_brute(cs, EffectQuery(c0, subject, a, given=g)) is ACTIVE
    # the blocked key alone is undetermined
    assert conditional_active_effect_event(cs, c0, ("0", "0"), a, g) == undetermined(ZERO_MEASURE_CONDITIONING)


def test_conditional_algebra_insurance(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    verdict = conditional_active_effect_algebra(insurance, INS, ("N", "Y", "0"), a, insurance_doc.partitions["by_ins"])
    assert verdict.tag is EffectTag.UNDETERMINED
    assert verdict.reason.kind == "not-mutually-abs-continuous"


def test_conditional_algebra_trivial_reduces_to_active(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    trivial = coordinate_subalgebra(insurance.space, set())
    for omega in insurance.space.outcomes:
        expected = ACTIVE if active_effect(insurance, INS, omega, a) else NO_EFFECT
        assert conditional_active_effect_algebra(insurance, INS, omega, a, trivial) is expected


def test_conditional_algebra_copy_space_blocks(copy_space):
    # the copy kernel row at c1=0 kills the c1=1 block, so the premise fails
    h1 = coordinate_subalgebra(copy_space.space, {"c1"})
    verdict = conditional_active_effect_algebra(copy_space, C1, ("0", "0"), copy_space.space.where(c2="0"), h1)
    assert verdict.tag is EffectTag.UNDETERMINED


def test_conditional_classify_event_insurance_requires_family(insurance, insurance_doc):
    with pytest.raises(KernelMissingError):
        conditional_classify_event(
            insurance, INS, ("N", "Y", "0"), insurance_doc.events["pays1000"], insurance_doc.events["no_danger"]
        )


def test_conditional_classify_reductions_match_unconditional():
    for seed in range(12):
        cs = gen_random_space(GenConfig(seed=seed, max_labels=2))
        sp = cs.space
        u = frozenset(sorted(sp.ids)[:1])
        omega = sp.outcomes[seed % len(sp.outcomes)]
        a = frozenset(o for o in sp.outcomes if o[-1] == sp.outcomes[0][-1])
        base = classify(cs, u, omega, a)
        assert conditional_classify_event(cs, u, omega, a, sp.all_event()) is base
        trivial = coordinate_subalgebra(sp, set())
        assert conditional_classify_algebra(cs, u, omega, a, trivial) is base
        assert post_intervention_classify(cs, u, set(), omega, a) is base


def test_self_conditioning_is_never_an_effect():
    for seed in range(12):
        cs = gen_random_space(GenConfig(seed=seed, max_labels=2))
        sp = cs.space
        u = frozenset(sorted(sp.ids)[-1:])
        g = frozenset(o for o in sp.outcomes if o[0] == sp.outcomes[0][0])
        for omega in sp.outcomes:
            verdict = conditional_classify_event(cs, u, omega, g, g)
            assert verdict.tag in (EffectTag.NO_EFFECT, EffectTag.UNDETERMINED)


def test_measurable_target_conditioned_on_its_algebra_is_no_effect():
    for seed in range(12):
        cs = gen_random_space(GenConfig(seed=seed, max_labels=2))
        sp = cs.space
        u = frozenset(sorted(sp.ids)[:1])
        algebra = coordinate_subalgebra(sp, set(sp.ids) - u or set(sp.ids))
        a = algebra.blocks[0]
        for omega in sp.outcomes[:2]:
            verdict = conditional_classify_algebra(cs, u, omega, a, algebra)
            assert verdict.tag in (EffectTag.NO_EFFECT, EffectTag.UNDETERMINED)


# ---------------------------------------------------------------------------
# post-intervention variants


def test_post_intervention_copy_space(copy_space):
    a = copy_space.space.where(c2="0")
    for omega in copy_space.space.outcomes:
        assert not post_intervention_active_effect(copy_space, C1, {"c2"}, omega, a)


def test_post_intervention_nested_targets_never_active(copy_space):
    both = frozenset({"c1", "c2"})
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    for omega in copy_space.space.outcomes:
        for a in (diag, copy_space.space.where(c2="1"), frozenset()):
            assert not post_intervention_active_effect(copy_space, C1, both, omega, a)


def test_post_intervention_classify_copy_space(copy_space):
    whole = copy_space.space.all_event()
    assert post_intervention_classify(copy_space, C1, {"c2"}, ("0", "1"), whole) is NO_EFFECT
    # the joint kernel pins c1 (probability 1) while the c2 kernel redraws it (1/2)
    verdict = post_intervention_classify(copy_space, C1, {"c2"}, ("0", "1"), copy_space.space.where(c1="0"))
    assert verdict is ACTIVE
    # forcing c2 leaves the diagonal fully determined by the c1 intervention
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    assert post_intervention_active_effect(copy_space, C1, {"c2"}, ("0", "1"), diag)


def test_soundness_active_implies_effect():
    for seed in range(12):
        cs = gen_random_space(GenConfig(seed=seed, max_labels=2))
        sp = cs.space
        u = frozenset(sorted(sp.ids)[:1])
        a = frozenset(o for o in sp.outcomes if o[0] == sp.outcomes[0][0])
        for omega in sp.outcomes:
            if classify(cs, u, omega, a) is ACTIVE:
                assert has_causal_effect(cs, u, omega, a)
            if not has_causal_effect(cs, u, omega, a):
                assert classify(cs, u, omega, a) is NO_EFFECT


def test_monotone_algebra_property():
    cs = factorized_space()
    u = frozenset({"c0"})
    fine = coordinate_subalgebra(cs.space, {"c1"})
    merged = (fine.blocks[0] | fine.blocks[1], fine.blocks[2])
    from causalspaces.space import Partition

    coarse = Partition(cs.space, merged)
    for omega in cs.space.outcomes:
        if classify(cs, u, omega, fine) is NO_EFFECT:
            assert classify(cs, u, omega, coarse) is NO_EFFECT


# ---------------------------------------------------------------------------
# theorem checks


def test_check_lemma1_null_space():
    ns = gen_null_effect_space(GenConfig(seed=5), {"c0"})
    rest = set(ns.space.ids) - {"c0"}
    algebra = coordinate_subalgebra(ns.space, rest)
    q = uniform(ns.space.subspace({"c0"}))
    a = algebra.blocks[0]
    assert check_lemma1(ns, {"c0"}, a, q)
    assert check_lemma1(ns, {"c0"}, ns.space.all_event(), q)


def test_check_lemma1_premise_not_met(insurance, insurance_doc):
    q = uniform(insurance.space.subspace(INS))
    with pytest.raises(PremiseNotMetError):
        check_lemma1(insurance, INS, insurance_doc.events["pays1000"], q)


def _lemma1_premise_loop(cs, coords, a, q):
    """check_lemma1 with its premise spelled out: every row of the kernel on `coords` keeps P(a)."""
    coords = cs.space.check_subset(coords)
    kernel = cs.kernel(coords)
    a = frozenset(a)
    pa = cs.observational(a)
    if any(kernel.value(key, a) != pa for key in cs.space.subspace(coords).outcomes):
        raise PremiseNotMetError("some outcome has an active effect on the event")
    pdo = intervention_measure(cs, InterventionSpec(coords, q))
    return independent(pdo, a, coordinate_subalgebra(cs.space, coords))


def _outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_check_lemma1_matches_the_premise_loop():
    rng = random.Random(7402)
    counts = Counter()
    for seed in range(60):
        cfg = GenConfig(seed=74_000 + seed, max_coords=4, max_labels=2, kernel_mode="partial" if seed % 3 == 2 else "full")
        if seed % 3 == 0:
            u = {"c0"} if seed % 2 else {"c1"}
            cs = gen_null_effect_space(cfg, u)
        else:
            cs = gen_random_space(cfg)
        ids = cs.space.ids
        outcomes = cs.space.outcomes
        for u in ([u] if seed % 3 == 0 else []) + [set(), set(rng.sample(ids, rng.randint(1, len(ids))))]:
            q = uniform(cs.space.subspace(u))
            rest = coordinate_subalgebra(cs.space, set(ids) - set(u))
            for a in (frozenset(outcomes), frozenset(), rng.choice(rest.blocks), frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes))))):
                got = _outcome_or_error(check_lemma1, cs, u, a, q)
                assert got == _outcome_or_error(_lemma1_premise_loop, cs, u, a, q), (seed, u, a)
                counts[got if got is True else got[0].__name__] += 1
    assert counts[True] >= 100 and counts["PremiseNotMetError"] >= 30 and counts["KernelMissingError"] >= 10, counts

def test_check_prop2_event_and_trivial_algebra():
    ns = gen_null_effect_space(GenConfig(seed=9), {"c0"})
    rest = set(ns.space.ids) - {"c0"}
    algebra = coordinate_subalgebra(ns.space, rest)
    positive = [b for b in algebra.blocks if ns.observational(b) > 0]
    a, g = positive[0], positive[-1]
    q = uniform(ns.space.subspace({"c0"}))
    assert check_prop2(ns, {"c0"}, a, g, q)
    trivial = coordinate_subalgebra(ns.space, set())
    assert check_prop2(ns, {"c0"}, a, trivial, q) == check_lemma1(ns, {"c0"}, a, q)


def test_check_prop2_generated_algebra_conditioning():
    # conditioning on an algebra generated by an event over the untouched coordinates
    ns = gen_null_effect_space(GenConfig(seed=17), {"c0"})
    rest = set(ns.space.ids) - {"c0"}
    atoms = coordinate_subalgebra(ns.space, rest).blocks
    a = atoms[0]
    generated = generated_algebra(ns.space, [atoms[0] | atoms[-1]])
    q = uniform(ns.space.subspace({"c0"}))
    assert check_prop2(ns, {"c0"}, a, generated, q)


def test_check_prop2_premise_not_met(insurance, insurance_doc):
    q = uniform(insurance.space.subspace(INS))
    with pytest.raises(PremiseNotMetError):
        check_prop2(insurance, INS, insurance_doc.events["pays1000"], insurance_doc.events["high_danger"], q)


def test_check_prop3_copy_space(copy_space):
    a = copy_space.space.where(c2="0")
    q_v = uniform(copy_space.space.subspace({"c2"}))
    q_u = uniform(copy_space.space.subspace({"c1"}))
    assert check_prop3(copy_space, C1, {"c2"}, ("0", "1"), a, q_on_v=q_v, q_on_u=q_u)
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    with pytest.raises(PremiseNotMetError):
        check_prop3(copy_space, C1, {"c2"}, ("0", "1"), diag, q_on_v=q_v)
    with pytest.raises(ValueError, match=r"^provide a mixing measure for part \(i\), part \(ii\), or both$"):
        check_prop3(copy_space, C1, {"c2"}, ("0", "1"), a)


def test_check_prop3_derives_only_the_kernels_it_reads(kernel_constructions):
    # a full family of 4 binary coordinates whose kernel on {c0, c1} keeps c0 and otherwise follows
    # the kernel on c1, so c0 has no post-intervention effect on events over c2 and c3
    cs = gen_random_space(GenConfig(seed=63, max_coords=4, max_labels=2))
    space = cs.space
    assert [len(c.labels) for c in space.coordinates] == [2] * 4
    u, v, uv = frozenset({"c0"}), frozenset({"c1"}), frozenset({"c0", "c1"})
    rows = {key: Counter() for key in space.subspace(uv).outcomes}
    for (x1,), table in cs.kernel(v).rows.items():
        for o, w in table.items():
            for x0 in "01":
                rows[x0, x1][(x0, *o[1:])] += w
    cs = CausalSpace(space, cs.observational, {**cs.kernels, uv: CausalKernel(space, uv, rows)})
    omega, a = ("1", "0", "1", "0"), space.where(c2="1") | space.where(c3="0")
    q_v, q_u = Measure(space.subspace(v), {("0",): F(1, 3), ("1",): F(2, 3)}), uniform(space.subspace(u))
    # the two parts as written before: each in the whole intervened family
    whole = (
        not active_effect(intervene(cs, InterventionSpec(v, q_v)), u, omega, a),
        not post_intervention_active_effect(intervene(cs, InterventionSpec(u, q_u)), u, v, omega, a),
    )
    kernel_constructions.clear()
    assert check_prop3(cs, u, v, omega, a, q_on_v=q_v, q_on_u=q_u) is all(whole) is True
    # part (i): the measure and the kernel on u after do(v); part (ii): the measure and the kernel on v
    # after do(u), whose kernel on u|v is the stored one
    assert kernel_constructions == [frozenset(), u, frozenset(), v]


# ---------------------------------------------------------------------------
# queries


def test_effect_query_validation(copy_space):
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    with pytest.raises(ValueError):
        EffectQuery(C1, ("0", "1"), diag, given=diag, post=frozenset({"c2"}))
    for tag, reason in ((EffectTag.UNDETERMINED, None), (EffectTag.ACTIVE, ZERO_MEASURE_CONDITIONING)):
        with pytest.raises(ValueError, match="^exactly the undetermined verdicts carry a reason$"):
            EffectVerdict(tag, reason)


def test_run_query_dispatch(copy_space):
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    assert run_query(copy_space, EffectQuery(C1, ("0", "1"), diag)) is DORMANT
    assert run_query(copy_space, EffectQuery(C1, ("0", "1"), diag), active_only=True) is NO_EFFECT
    q_post = EffectQuery(C1, ("0", "1"), copy_space.space.where(c2="0"), post=frozenset({"c2"}))
    assert run_query(copy_space, q_post) is NO_EFFECT
    h1 = coordinate_subalgebra(copy_space.space, {"c1"})
    q_alg = EffectQuery(C1, ("0", "0"), copy_space.space.where(c2="0"), given=h1)
    assert run_query(copy_space, q_alg, active_only=True).tag is EffectTag.UNDETERMINED
    q_target_alg = EffectQuery(C1, ("0", "0"), coordinate_subalgebra(copy_space.space, {"c2"}))
    assert run_query(copy_space, q_target_alg) is ACTIVE


FOREIGN = ProductSpace((Coordinate("c1", ("a", "b")), Coordinate("c2", ("a", "b"))))


@pytest.mark.parametrize(
    "role, active_only, mode",
    [
        ("target", False, "plain"),
        ("target", False, "post"),
        ("target", True, "plain"),
        ("target", True, "given"),
        ("target", True, "post"),
        ("given", False, "given"),
        ("given", True, "given"),
    ],
)
def test_foreign_partition_refused(copy_space, role, active_only, mode):
    sp = copy_space.space
    foreign = coordinate_subalgebra(FOREIGN, {"c2"})
    target = foreign if role == "target" else sp.where(c2="0")
    given = None
    if mode == "given":
        given = foreign if role == "given" else sp.all_event()
    post = frozenset({"c2"}) if mode == "post" else None
    with pytest.raises(ValueError):
        run_query(copy_space, EffectQuery(C1, ("0", "1"), target, given=given, post=post), active_only=active_only)


# ---------------------------------------------------------------------------
# the keys of the row pairs


def test_pair_keys_match_the_spliced_cell():
    # every pair's keys are the spliced cell restricted to the joint and to the reduced subset, for
    # the plain family (U may be empty), the post family and the post active shape with U meeting V
    rng = random.Random(2808)
    seen = Counter()
    for trial in range(120):
        cs = random_space_stream(rng, trial)
        sp = cs.space
        ids = sp.ids
        u = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        v = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        w = u - v
        shapes = [(u | v, v, u)] + [(t, t - w, t & w) for t in subsets_in_order(ids) if t >= v]
        subject = frozenset(rng.sample(sp.outcomes, rng.randint(1, min(3, len(sp)))))
        keys = sorted({sp.restrict(o, u) for o in subject}, key=sp.subspace(u).outcome_index.__getitem__)
        expected = []
        for joint, reduced, fixed in shapes:
            for key in keys:
                base = sp.splice(sp.outcomes[0], u, key)
                for part in sp.subspace(joint - fixed).outcomes:
                    cell = sp.splice(base, joint - fixed, part)
                    expected.append((part, sp.restrict(cell, joint), sp.restrict(cell, reduced)))
        got = [(part, key1, key2) for part, _, key1, _, key2 in effects._pairs(cs, u, keys, shapes)]
        assert got == expected, (trial, u, v)
        seen["empty U"] += not u
        seen["one-coordinate joint"] += any(len(joint) == 1 for joint, _, _ in shapes)
        seen["post active, U meets V"] += bool(u & v)
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# work done by the quantified scan


@pytest.fixture()
def row_sums(monkeypatch):
    """Counts calls of CausalKernel.value, the engine's one row sum."""
    calls = []
    value = CausalKernel.value

    def counted(self, key, a):
        calls.append(self.coords)
        return value(self, key, a)

    monkeypatch.setattr(CausalKernel, "value", counted)
    return calls


@pytest.fixture()
def kernel_lookups(monkeypatch):
    """Counts calls of CausalSpace.kernel, the engine's one kernel lookup."""
    calls = []
    kernel = CausalSpace.kernel

    def counted(self, coords):
        calls.append(frozenset(coords))
        return kernel(self, coords)

    monkeypatch.setattr(CausalSpace, "kernel", counted)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_no_effect_scan_skips_identical_rows(row_sums, kernel_lookups, n):
    # 1 active-phase sum, plus per subset S holding c0 one joint and (unless S = {c0}) one reduced
    # sum per assignment of S - {c0}; the 2(3^(n-1) - 1) sums of the shapes whose S misses c0 are skipped
    cs = uniform_binary_space(n)
    assert classify(cs, {"c0"}, cs.space.outcomes[0], cs.space.all_event()) is NO_EFFECT
    assert len(row_sums) == 2 * 3 ** (n - 1)
    # a kernel missing c0 is read only as the reduced side of S + {c0}: once per row
    per_kernel = Counter(row_sums)
    assert all(per_kernel[s] == 2 ** len(s) for s in subsets_in_order(cs.space.ids) if s and "c0" not in s)
    # each shape looks up its kernels once, not once per row: K_{c0} for the active shape, then per subset
    # S holding c0 the joint kernel and (unless S = {c0}) the reduced one, 1 + 2^(n-1) + 2^(n-1) - 1
    assert len(kernel_lookups) == 2 ** n


@pytest.mark.parametrize("n, expected", [(3, 16), (4, 40)])
def test_post_intervention_scan_compares_each_shape_once(row_sums, n, expected):
    # S and S + {c1} give the same post shape; with the shapes that compare a row with
    # itself dropped, only the subsets holding c0 and c1 remain, each read once: 4 * 3^(n-2)
    # sums, plus 4 for the active phase (two assignments of c1, two kernels each)
    cs = uniform_binary_space(n)
    verdict = post_intervention_classify(cs, {"c0"}, {"c1"}, cs.space.outcomes[-1], cs.space.all_event())
    assert verdict is NO_EFFECT
    assert len(row_sums) == expected == 4 * 3 ** (n - 2) + 4


@pytest.fixture()
def measure_sums(monkeypatch):
    """Counts calls of Measure.__call__, the engine's read of the observational measure."""
    calls = []
    call = Measure.__call__

    def counted(self, a):
        calls.append(a)
        return call(self, a)

    monkeypatch.setattr(Measure, "__call__", counted)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conditional_scan_reads_only_the_premise_when_the_target_splits_no_block(row_sums, measure_sums, kernel_lookups, n):
    # given g and target Omega, each of the 3^(n-1) pairs of the no-effect scan (a shape per subset T
    # holding c0, 2^(|T|-1) assignments each) and the active pair reads g, the premise, under both rows;
    # g lies inside Omega, so no comparison is read. The pairs against the observational measure are the
    # active one and T = {c0}, so the measure is summed twice and kernel rows 2 * 3^(n-1) times
    cs = uniform_binary_space(n)
    sp = cs.space
    subject = sp.outcomes[0]
    g = sp.all_event() - {sp.outcomes[-1]}  # meets every cylinder the scan reads: each row gives it positive mass
    assert conditional_classify_event(cs, {"c0"}, subject, sp.all_event(), g) is NO_EFFECT
    assert len(measure_sums) == 2 and set(measure_sums) == {g}
    assert len(row_sums) == 2 * 3 ** (n - 1)
    per_kernel = Counter(row_sums)
    assert per_kernel[frozenset({"c0"})] == 2  # the active pair and the pair of T = {c0}
    assert all(per_kernel[s] == 2 ** len(s) for s in subsets_in_order(sp.ids) if s and "c0" not in s)
    assert len(kernel_lookups) == 2 ** n  # one lookup per kernel a shape reads, as in the plain scan


@pytest.mark.parametrize("n, target, expected_rows, expected_measure", [
    # every union of the given algebra's blocks splits none of them: only the premise is read, both
    # blocks under both rows of each of the 3^(n-1) + 1 pairs, 4 of those sums on the measure
    (3, {"c1"}, 36, 4), (4, {"c1"}, 108, 4), (5, {"c1"}, 324, 4),
    # 8 of the 16 unions of the {c1, c2} atoms split each block of {c1}; a row whose subset holds c1
    # gives one block no mass, so only the other block is compared under it
    (3, {"c1", "c2"}, 228, 36), (4, {"c1", "c2"}, 684, 36), (5, {"c1", "c2"}, 2052, 36),
])
def test_conditional_algebra_scan_compares_only_the_blocks_the_target_splits(
    row_sums, measure_sums, n, target, expected_rows, expected_measure
):
    cs = uniform_binary_space(n)
    sp = cs.space
    given = coordinate_subalgebra(sp, {"c1"})
    verdict = conditional_classify_algebra(cs, {"c0"}, sp.outcomes[0], coordinate_subalgebra(sp, target), given)
    assert verdict is NO_EFFECT
    assert (len(row_sums), len(measure_sums)) == (expected_rows, expected_measure)


class _Probe:
    """Stands in for a pair's free assignment, so that a weak reference can tell whether the pair is still kept."""


@pytest.fixture()
def live_pairs(monkeypatch):
    """Wraps `effects._pairs`: each pair's `part` becomes a probe, and each draw records how many earlier pairs are alive."""
    pairs, refs, alive = effects._pairs, [], []

    def watched(*args):
        for _, *rest in pairs(*args):
            alive.append(sum(ref() is not None for ref in refs))
            probe = _Probe()
            refs.append(weakref.ref(probe))
            yield (probe, *rest)
            del probe

    monkeypatch.setattr(effects, "_pairs", watched)
    return alive


@pytest.mark.parametrize("given", [None, "event"])
def test_an_event_target_scan_keeps_no_pair_alive(live_pairs, given):
    # the trichotomy with target Omega on n = 5 draws 3^4 + 1 pairs and compares each as it is read, so when a pair
    # is drawn only the one before it may still be held: at most two are alive at once. The control, a partition
    # target (the trivial one, {Omega}), compares the phase's pairs after the scan and so keeps all of them
    cs = uniform_binary_space(5)
    sp = cs.space
    g = None if given is None else sp.all_event() - {sp.outcomes[-1]}
    assert run_query(cs, EffectQuery({"c0"}, sp.outcomes[0], sp.all_event(), given=g)) is NO_EFFECT
    assert len(live_pairs) == 3**4 + 1 and max(live_pairs) <= 1, live_pairs
    live_pairs.clear()
    assert run_query(cs, EffectQuery({"c0"}, sp.outcomes[0], coordinate_subalgebra(sp, ()), given=g)) is NO_EFFECT
    assert len(live_pairs) == 3**4 + 1 and max(live_pairs) >= 3**4 - 1, live_pairs
