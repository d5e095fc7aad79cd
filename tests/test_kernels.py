import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from causalspaces import document as document_module, kernels as kernels_module
from causalspaces.document import SpaceDocument, dumps_document
from causalspaces.errors import KernelMissingError
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.kernels import (
    CausalKernel,
    CausalSpace,
    InterventionSpec,
    Violation,
    intervene,
    intervention_kernel,
    intervention_measure,
    is_marginalization_of,
    marginalize,
    subsets_in_order,
    validate,
)
from causalspaces.measure import Measure, delta, marginal, uniform
from causalspaces.space import Coordinate, ProductSpace, coordinate_subalgebra

from sweeps import literal_holds

F = Fraction
INS = frozenset({"ins"})


def _with_kernel_rows(cs, coords, mutate):
    rows = {k: dict(t) for k, t in cs.kernel(coords).rows.items()}
    mutate(rows)
    kernels = dict(cs.kernels)
    kernels[coords] = CausalKernel(cs.space, coords, rows)
    return CausalSpace(cs.space, cs.observational, kernels)


def test_validate_insurance_clean(insurance):
    assert repr(insurance) == "CausalSpace(|Omega|=18, kernels=[{ins}])"
    assert validate(insurance) == []


def test_validate_support_violation(insurance):
    def move_mass(rows):
        rows[("Y",)][("N", "Y", "30")] -= F("0.05")
        rows[("Y",)][("N", "N", "30")] = F("0.05")

    bad = _with_kernel_rows(insurance, INS, move_mass)
    violations = validate(bad)
    assert [v.kind for v in violations] == ["support"]
    assert violations[0].row == ("Y",) and violations[0].outcome == ("N", "N", "30")


@pytest.mark.parametrize("foreign", [("N", "Y"), ("bogus", "Y", "30"), ("N", "Y", "30", "extra")])
def test_validate_reports_mass_outside_the_space(insurance, foreign):
    def move_mass(rows):
        rows[("Y",)][("N", "Y", "30")] -= F("0.05")
        rows[("Y",)][foreign] = F("0.05")

    violations = validate(_with_kernel_rows(insurance, INS, move_mass))
    assert [(v.kind, v.row, v.outcome) for v in violations] == [("support", ("Y",), foreign)]


def test_validate_row_sum_violation(insurance):
    def scale(rows):
        rows[("N",)] = {o: w * F(9, 10) for o, w in rows[("N",)].items()}

    bad = _with_kernel_rows(insurance, INS, scale)
    violations = validate(bad)
    assert [v.kind for v in violations] == ["row-sum"]
    assert violations[0].row == ("N",)


def test_validate_negative_weight(insurance):
    def negate(rows):
        rows[("Y",)][("N", "Y", "30")] = F(-1, 20)
        rows[("Y",)][("L", "Y", "30")] += F(1, 10)

    bad = _with_kernel_rows(insurance, INS, negate)
    kinds = {v.kind for v in validate(bad)}
    assert "negative-weight" in kinds
    assert [str(v) for v in validate(bad)] == ["negative-weight at kernel {ins}, row Y, outcome N,Y,30: weight -1/20"]


def test_validate_supplied_empty_kernel_conflict(insurance):
    tampered = dict(insurance.observational.weights)
    tampered[("N", "Y", "30")] += F(1, 100)
    tampered[("N", "N", "0")] -= F(1, 100)
    kernels = dict(insurance.kernels)
    kernels[frozenset()] = CausalKernel(insurance.space, frozenset(), {(): tampered})
    bad = CausalSpace(insurance.space, insurance.observational, kernels)
    kinds = [v.kind for v in validate(bad)]
    assert "observational-conflict" in kinds
    # lookups still synthesize the axiom-respecting kernel
    assert bad.kernel(frozenset()).rows[()] == dict(insurance.observational.weights)


def test_kernel_requires_complete_rows(insurance):
    rows = dict(insurance.kernel(INS).rows)
    del rows[("N",)]
    with pytest.raises(ValueError):
        CausalKernel(insurance.space, INS, rows)


def test_intervention_measure_insurance(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    do_y = InterventionSpec.point(insurance.space, {"ins": "Y"})
    do_n = InterventionSpec.point(insurance.space, {"ins": "N"})
    assert intervention_measure(insurance, do_y)(a) == 0
    assert intervention_measure(insurance, do_n)(a) == F("0.015")
    mixed = InterventionSpec.uniform(insurance.space, INS)
    assert intervention_measure(insurance, mixed)(a) == F(1, 2) * 0 + F(1, 2) * F("0.015")


def test_intervention_measure_requires_kernel(insurance):
    with pytest.raises(KernelMissingError) as err:
        intervention_measure(insurance, InterventionSpec.uniform(insurance.space, {"dan"}))
    assert err.value.coords == frozenset({"dan"})


def test_intervention_kernel_same_target(insurance):
    do_y = InterventionSpec.point(insurance.space, {"ins": "Y"})
    derived = intervention_kernel(insurance, do_y, INS)
    assert derived.rows == insurance.kernel(INS).rows


def test_intervention_kernel_superset_target(copy_space):
    both = frozenset({"c1", "c2"})
    do0 = InterventionSpec.point(copy_space.space, {"c1": "0"})
    derived = intervention_kernel(copy_space, do0, both)
    assert derived.rows == copy_space.kernel(both).rows


def test_intervention_kernel_copy_space_mixture(copy_space):
    # singleton mixture: each row of the derived kernel on c2 is the joint row at c1=0
    do0 = InterventionSpec.point(copy_space.space, {"c1": "0"})
    derived = intervention_kernel(copy_space, do0, frozenset({"c2"}))
    joint = copy_space.kernel(frozenset({"c1", "c2"}))
    for b in ("0", "1"):
        assert derived.rows[(b,)] == joint.rows[("0", b)]


def test_intervene_empty_target_returns_observational(insurance):
    new = intervene(insurance, InterventionSpec.uniform(insurance.space, set()))
    assert new.observational == insurance.observational
    assert new.kernel(INS).rows == insurance.kernel(INS).rows


def test_intervene_insurance_measure_is_kernel_row(insurance):
    do_y = InterventionSpec.point(insurance.space, {"ins": "Y"})
    new = intervene(insurance, do_y)
    assert new.observational.weights == insurance.kernel(INS).rows[("Y",)]
    # downstream kernels exist only where the source family allows
    assert new.has_kernel(INS)
    assert not new.has_kernel(frozenset({"dan"}))
    with pytest.raises(KernelMissingError):
        new.kernel(frozenset({"dan"}))


def test_sequential_same_target_interventions(insurance):
    do_y = InterventionSpec.point(insurance.space, {"ins": "Y"})
    do_n = InterventionSpec.point(insurance.space, {"ins": "N"})
    twice = intervene(intervene(insurance, do_y), do_n)
    once = intervene(insurance, do_n)
    assert twice.observational == once.observational


def test_sequential_identity_on_random_spaces():
    for seed in range(30):
        cs = gen_random_space(GenConfig(seed=seed))
        ids = sorted(cs.space.ids)
        target = frozenset(ids[: 1 + seed % len(ids)])
        sub = cs.space.subspace(target)
        first, second = sub.outcomes[0], sub.outcomes[-1]
        do_a = InterventionSpec(target, delta(sub, first))
        do_b = InterventionSpec(target, delta(sub, second))
        assert intervene(intervene(cs, do_a), do_b).observational == intervene(cs, do_b).observational


def test_intervention_measure_restricted_to_target_is_q():
    for seed in range(20):
        cs = gen_random_space(GenConfig(seed=seed))
        ids = sorted(cs.space.ids)
        target = frozenset(ids[: 1 + seed % len(ids)])
        q = uniform(cs.space.subspace(target))
        pdo = intervention_measure(cs, InterventionSpec(target, q))
        assert marginal(pdo, target) == q
        for block in coordinate_subalgebra(cs.space, target).blocks:
            key = cs.space.restrict(next(iter(block)), target)
            assert pdo(block) == q(frozenset([key]))


def _random_mixing(rng, sub):
    raw = [rng.choice([0, 1, 2, 5]) for _ in sub.outcomes]
    raw[rng.randrange(len(raw))] += 1
    return Measure(sub, {o: F(w, sum(raw)) for o, w in zip(sub.outcomes, raw) if w})


def _product(sub, q: Measure, r: Measure) -> Measure:
    """q ⊗ r on `sub`, the product over the coordinates of q and of r."""
    weights = {}
    for x, qw in q.weights.items():
        for y, rw in r.weights.items():
            labels = dict(zip(q.space.ids + r.space.ids, x + y))
            weights[tuple(labels[cid] for cid in sub.ids)] = qw * rw
    return Measure(sub, weights)


def test_interventions_on_disjoint_targets_compose():
    """do(U, q) then do(V, r) is do(U ∪ V, q ⊗ r) for disjoint U and V, every kernel included."""
    checked = 0
    for seed in range(150):
        cs = gen_random_space(GenConfig(seed=seed, max_coords=4, max_labels=3))
        ids = list(cs.space.ids)
        if len(ids) < 2:
            continue
        rng = random.Random(seed)
        rng.shuffle(ids)
        cut = rng.randint(1, len(ids) - 1)
        u = frozenset(ids[:cut])
        v = frozenset(rng.sample(ids[cut:], rng.randint(1, len(ids) - cut)))
        q, r = _random_mixing(rng, cs.space.subspace(u)), _random_mixing(rng, cs.space.subspace(v))
        twice = intervene(intervene(cs, InterventionSpec(u, q)), InterventionSpec(v, r))
        both = u | v
        once = intervene(cs, InterventionSpec(both, _product(cs.space.subspace(both), q, r)))
        assert twice.same_as(once), seed
        assert len(once.kernels) == 2 ** len(ids) - 1
        checked += 1
    assert checked >= 100


def test_intervention_measure_is_the_literal_mixture():
    """P^do(U,Q) = sum over keys of Q(key) * K_U(key, .), summed from the raw rows.

    On an intervened space the rows of K_U are themselves the mixtures
    sum over cells of Q1(cell) * K_{U+W}(key on U, cell on W minus U) of the
    base space intervened on W; the empty U gives the observational measure.
    """
    rng = random.Random(6301)
    seen = Counter()
    for trial in range(30):
        cs = gen_random_space(GenConfig(seed=6301 + trial, max_coords=3, max_labels=3))
        sp = cs.space
        ids = list(sp.ids)

        def raw_rows(coords):
            return cs.kernels[coords].rows if coords else {(): cs.observational.weights}

        for _ in range(4):
            u, w = (frozenset(rng.sample(ids, rng.randint(0, len(ids)))) for _ in range(2))
            q2, q1 = _random_mixing(rng, sp.subspace(u)), _random_mixing(rng, sp.subspace(w))
            want = Counter()
            for k2, m2 in q2.weights.items():
                for o, x in raw_rows(u)[k2].items():
                    want[o] += m2 * x
            assert intervention_measure(cs, InterventionSpec(u, q2)).weights == {o: x for o, x in want.items() if x}
            want = Counter()
            u_ids, w_ids, both = sp.ordered(u), sp.ordered(w), sp.ordered(u | w)
            for k2, m2 in q2.weights.items():
                for c1, m1 in q1.weights.items():
                    cell = {**dict(zip(w_ids, c1)), **dict(zip(u_ids, k2))}
                    for o, x in raw_rows(u | w)[tuple(cell[c] for c in both)].items():
                        want[o] += m2 * m1 * x
            derived = intervene(cs, InterventionSpec(w, q1))
            assert intervention_measure(derived, InterventionSpec(u, q2)).weights == {o: x for o, x in want.items() if x}
            seen["empty U"] += not u
            seen["derived"] += 1
    assert seen["empty U"] >= 10, seen


def test_intervened_kernels_pass_validation():
    for seed in range(10):
        cs = gen_random_space(GenConfig(seed=seed))
        ids = sorted(cs.space.ids)
        target = frozenset(ids[:1])
        sub = cs.space.subspace(target)
        new = intervene(cs, InterventionSpec(target, delta(sub, sub.outcomes[0])))
        materialized = {s: new.kernel(s) for s in new.kernel_subsets()}
        assert validate(CausalSpace(new.space, new.observational, materialized)) == []


def test_marginalize_identity(insurance):
    assert marginalize(insurance, set(insurance.space.ids)).same_as(insurance)


def test_marginalize_insurance_to_ins_pay(insurance):
    small = marginalize(insurance, {"ins", "pay"})
    sp = small.space
    assert small.kernel(INS).value(("Y",), sp.where(pay="30")) == 1
    assert small.observational(sp.where(pay="1000")) == F(1, 160)
    assert is_marginalization_of(small, insurance)


def test_marginalize_keeps_only_available_kernels(insurance):
    small = marginalize(insurance, {"ins", "pay"})
    assert small.kernel_subsets() == (INS,)


def test_marginalize_and_the_document_writer_walk_the_stored_kernels_only(monkeypatch):
    def enumerate_all(ids):
        raise AssertionError("all 2^n subsets were enumerated")

    monkeypatch.setattr(kernels_module, "subsets_in_order", enumerate_all)
    monkeypatch.setattr(document_module, "subsets_in_order", enumerate_all, raising=False)
    sp = ProductSpace(tuple(Coordinate(f"c{i}", ("0", "1") if i in (0, 3) else ("0",)) for i in range(6)))

    def point_rows(s):
        rows = {}
        for o in sp.outcomes:
            rows.setdefault(sp.restrict(o, s), {o: 1})
        return CausalKernel(sp, s, rows)

    # stored out of canonical order
    given = [{"c3", "c4"}, {"c5"}, {"c0", "c1", "c2"}, {"c3"}, {"c1"}, {"c0", "c5"}]
    kernels = {frozenset(s): point_rows(frozenset(s)) for s in given}
    cs = CausalSpace(sp, delta(sp, sp.outcomes[0]), kernels)
    small = marginalize(cs, {"c0", "c1", "c3", "c4"})
    assert tuple(small.kernels) == (frozenset({"c1"}), frozenset({"c3"}), frozenset({"c3", "c4"}))
    z = "0,0,0,0,0,0"
    reference = {
        "coordinates": [{"id": f"c{i}", "labels": ["0", "1"] if i in (0, 3) else ["0"]} for i in range(6)],
        "measure": {z: "1"},
        "kernels": {
            "c1": {"0": {z: "1"}},
            "c3": {"0": {z: "1"}, "1": {"0,0,0,1,0,0": "1"}},
            "c5": {"0": {z: "1"}},
            "c0,c5": {"0,0": {z: "1"}, "1,0": {"1,0,0,0,0,0": "1"}},
            "c3,c4": {"0,0": {z: "1"}, "1,0": {"0,0,0,1,0,0": "1"}},
            "c0,c1,c2": {"0,0,0": {z: "1"}, "1,0,0": {"1,0,0,0,0,0": "1"}},
        },
    }
    got = dumps_document(SpaceDocument(sp, cs.observational.weights, kernels))
    assert got == json.dumps(reference, indent=2, ensure_ascii=False) + "\n"
    # intervene reads its candidates off the stored kernels: S = (T - U) ∪ W for each stored T ⊇ U and W ⊆ U
    s = lambda *ids: frozenset(ids)
    normalized = intervene(cs, InterventionSpec.point(sp, {}))
    assert normalized.kernel_subsets() == (s("c1"), s("c3"), s("c5"), s("c0", "c5"), s("c3", "c4"), s("c0", "c1", "c2"))
    assert all(normalized.kernels[t] is kernels[t] for t in kernels)
    # U = {c0} draws on {c0, c5} and {c0, c1, c2}, and on the kernel on {c0} that its measure mixes
    with_u = CausalSpace(sp, cs.observational, {**kernels, s("c0"): point_rows(s("c0"))})
    spec = InterventionSpec.point(sp, {"c0": "1"})
    after = intervene(with_u, spec)
    assert after.kernel_subsets() == (s("c0"), s("c5"), s("c0", "c5"), s("c1", "c2"), s("c0", "c1", "c2"))
    assert all(after.kernels[t].rows == intervention_kernel(with_u, spec, t).rows for t in after.kernels)


def test_is_marginalization_rejects_perturbation(insurance):
    small = marginalize(insurance, {"ins", "pay"})
    def bump(rows):
        rows[("Y",)][("Y", "30")] -= F(1, 100)
        rows[("Y",)][("Y", "0")] = F(1, 100)
    perturbed = _with_kernel_rows(small, INS, bump)
    assert not is_marginalization_of(perturbed, insurance)


def test_is_marginalization_rejects_another_observational_measure(insurance):
    small = marginalize(insurance, {"ins", "pay"})
    other = CausalSpace(small.space, uniform(small.space), small.kernels)
    assert is_marginalization_of(small, insurance) and not is_marginalization_of(other, insurance)


# each part is taken from the insurance space `cs` or from its marginal `small` on ins and pay
_FOREIGN_PARTS = {
    "measure-on-another-space": (
        lambda cs, small: CausalSpace(cs.space, small.observational),
        "observational measure lives on a different space",
    ),
    "kernel-under-another-subset": (
        lambda cs, small: CausalSpace(cs.space, cs.observational, {frozenset({"dan"}): cs.kernel(INS)}),
        "kernel stored under {dan} does not match",
    ),
    "kernel-on-another-space": (
        lambda cs, small: CausalSpace(cs.space, cs.observational, {INS: small.kernel(INS)}),
        "kernel stored under {ins} does not match",
    ),
}


@pytest.mark.parametrize("build, message", _FOREIGN_PARTS.values(), ids=_FOREIGN_PARTS.keys())
def test_causal_space_refuses_parts_of_another_space_or_subset(insurance, build, message):
    small = marginalize(insurance, {"ins", "pay"})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(insurance, small)


def test_is_marginalization_coordinate_mismatch(insurance, copy_space):
    with pytest.raises(ValueError):
        is_marginalization_of(copy_space, insurance)


def test_marginalization_round_trip_random_spaces():
    for seed in range(15):
        cs = gen_random_space(GenConfig(seed=seed))
        for coords in subsets_in_order(cs.space.ids):
            if not coords:
                continue
            assert is_marginalization_of(marginalize(cs, coords), cs)


def test_same_as_distinguishes_measures(insurance):
    do_y = InterventionSpec.point(insurance.space, {"ins": "Y"})
    assert not intervene(insurance, do_y).same_as(insurance)


def test_intervention_spec_validates_measure_space(insurance):
    with pytest.raises(ValueError):
        InterventionSpec(frozenset({"ins"}), uniform(insurance.space.subspace({"dan"})))
    with pytest.raises(ValueError):
        InterventionSpec.point(insurance.space, {"ins": "Q"})


def test_mixing_measure_on_other_labels_is_refused(insurance):
    other = uniform(ProductSpace((Coordinate("ins", ("A", "B")),)))
    spec = InterventionSpec(INS, other)
    message = r"coordinate 'ins' the labels \['A', 'B'\], the space \['Y', 'N'\]"
    for call in (
        lambda: intervene(insurance, spec),
        lambda: intervention_measure(insurance, spec),
        lambda: intervention_kernel(insurance, spec, ()),
        lambda: intervention_kernel(insurance, spec, INS),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    # the same labels in another order are the same coordinate
    reordered = uniform(ProductSpace((Coordinate("ins", ("N", "Y")),)))
    assert intervene(insurance, InterventionSpec(INS, reordered)).same_as(
        intervene(insurance, InterventionSpec.uniform(insurance.space, INS))
    )


def _mixing_weights(rng, sub):
    """Random weights on every outcome of `sub`, some of them zero, as a table of Fractions summing to 1."""
    raw = [rng.randint(0, 3) for _ in sub.outcomes]
    raw[rng.randrange(len(raw))] += 1
    return {o: F(w, sum(raw)) for o, w in zip(sub.outcomes, raw) if w}


def test_a_mixing_measure_declared_in_another_coordinate_order_mixes_alike():
    rng = random.Random(2302)
    checked = 0
    for trial in range(80):
        cs = gen_random_space(GenConfig(seed=2302 + trial, max_coords=4, max_labels=2, kernel_mode="partial" if trial % 2 else "full"))
        ids = cs.space.ids
        if len(ids) < 2:
            continue
        u = frozenset(rng.sample(ids, rng.randint(2, min(3, len(ids)))))
        if not cs.has_kernel(u):
            continue
        sub = cs.space.subspace(u)
        weights = _mixing_weights(rng, sub)
        order = list(range(len(sub.ids)))
        while order == sorted(order):
            rng.shuffle(order)
        permuted = ProductSpace(tuple(sub.coordinates[i] for i in order))
        declared = InterventionSpec(u, Measure(sub, weights))
        other = InterventionSpec(u, Measure(permuted, {tuple(o[i] for i in order): w for o, w in weights.items()}))
        assert intervene(cs, declared).same_as(intervene(cs, other))
        assert intervention_measure(cs, declared) == intervention_measure(cs, other)
        for s in subsets_in_order(ids):
            if cs.has_kernel(s | u):
                assert intervention_kernel(cs, declared, s).rows == intervention_kernel(cs, other, s).rows
        checked += 1
    assert checked >= 30, checked


def test_marginalization_composes_and_commutes_with_an_intervention_on_kept_coordinates():
    rng = random.Random(2303)
    composed = commuted = 0
    for trial in range(80):
        cs = gen_random_space(GenConfig(seed=2303 + trial, max_coords=5, max_labels=2, kernel_mode="partial" if trial % 2 else "full"))
        ids = cs.space.ids
        if len(ids) < 2:
            continue
        a = frozenset(rng.sample(ids, rng.randint(1, len(ids))))
        b = frozenset(rng.sample(sorted(a), rng.randint(1, len(a))))
        assert marginalize(marginalize(cs, a), b).same_as(marginalize(cs, b))
        composed += 1
        u = frozenset(rng.sample(sorted(a), rng.randint(1, len(a))))
        if cs.has_kernel(u):
            spec = InterventionSpec(u, Measure(cs.space.subspace(u), _mixing_weights(rng, cs.space.subspace(u))))
            assert marginalize(intervene(cs, spec), a).same_as(intervene(marginalize(cs, a), spec))
            commuted += 1
    assert composed >= 60 and commuted >= 30, (composed, commuted)


def reference_pushforward(cs, coords):
    """Every stored kernel on a subset of `coords`, each row projected entry by entry, as Fraction tables."""
    pos = cs.space.positions(coords)
    kernels = {}
    for s, kernel in cs.kernels.items():
        if s <= coords:
            rows = {}
            for key, row in kernel.rows.items():
                table = {}
                for o, w in row.items():
                    small = tuple(map(o.__getitem__, pos))
                    table[small] = table.get(small, 0) + w
                rows[key] = {o: w for o, w in table.items() if w}
            kernels[s] = rows
    return kernels


def _outcome(read):
    try:
        return ("value", read())
    except Exception as exc:  # the reference and the library must fail alike, whatever the exception
        return ("error", type(exc), str(exc))


@pytest.mark.parametrize(
    "foreign",
    [("Q", "Y", "30"), ("N", "Y", "7"), ("N", "Y", "30", "x"), ("N", "Y"), ("N",), ()],
    ids=["unknown-dropped-label", "unknown-kept-label", "too-long", "too-short", "one-label", "empty"],
)
def test_marginalize_pushes_entries_outside_omega_like_the_entry_loop(insurance, foreign):
    def corrupt(rows):
        rows[("Y",)][foreign] = F(1, 7)
        rows[("N",)] = {foreign: F(1, 3), ("H", "N", "0"): F(2, 3)}

    cs = _with_kernel_rows(insurance, INS, corrupt)
    coords = frozenset({"ins", "pay"})
    got = _outcome(lambda: {s: dict(k.rows) for s, k in marginalize(cs, coords).kernels.items()})
    assert got == _outcome(lambda: reference_pushforward(cs, coords))


def test_kernel_row_access(insurance):
    kernel = insurance.kernel(INS)
    row = kernel.row(("Y",))
    assert isinstance(row, Measure)
    assert row(insurance.space.where(pay="30")) == 1
    assert kernel.at(("H", "N", "0"))(insurance.space.where(pay="1000")) == F("0.015")
    with pytest.raises(ValueError):
        kernel.row(("H",))


@pytest.mark.parametrize("key", [("zz",), ("H",), (), ("Y", "N")])
def test_kernel_value_refuses_a_foreign_row_key_like_row(insurance, key):
    kernel = insurance.kernel(INS)
    with pytest.raises(ValueError) as by_row:
        kernel.row(key)
    with pytest.raises(ValueError) as by_value:
        kernel.value(key, frozenset())
    with pytest.raises(ValueError) as by_construction:
        CausalKernel(insurance.space, INS, {**kernel.rows, key: kernel.rows[("Y",)]})
    assert str(by_value.value) == str(by_row.value) == f"{key!r} is not an outcome over {{ins}}"
    assert str(by_construction.value) == str(by_row.value)


def test_intervene_stores_the_derived_family():
    """intervene(cs, (U, Q)) holds K'_S for exactly the nonempty S with a kernel on S+U in cs.

    Each stored row is the literal mixture sum over cells of Q(cell) *
    K_{S+U}(key on S, cell on U minus S), summed from the raw rows; every
    other subset is missing. The derived space is intervened a second time
    and checked against itself the same way.
    """
    rng = random.Random(8101)
    seen = Counter()
    for trial in range(40):
        mode = "partial" if trial % 2 else "full"
        cs = gen_random_space(GenConfig(seed=8101 + trial, max_coords=4, max_labels=2 + (trial % 4 == 0), kernel_mode=mode))
        for depth in range(2):
            sp = cs.space
            ids = list(sp.ids)
            choices = [u for u in subsets_in_order(ids) if u and cs.has_kernel(u)]
            u = frozenset() if trial % 5 == depth or not choices else rng.choice(choices)
            q = _random_mixing(rng, sp.subspace(u))
            new = intervene(cs, InterventionSpec(u, q))
            present = tuple(s for s in subsets_in_order(ids) if s and cs.has_kernel(s | u))
            assert new.kernel_subsets() == present and tuple(new.kernels) == present

            def raw_rows(coords):
                return cs.kernels[coords].rows if coords else {(): cs.observational.weights}

            u_ids = sp.ordered(u)
            for s in subsets_in_order(ids):
                if s and s not in present:
                    assert not new.has_kernel(s)
                    with pytest.raises(KernelMissingError):
                        new.kernel(s)
                    seen["missing"] += 1
                    continue
                s_ids, both = sp.ordered(s), sp.ordered(s | u)
                for key in sp.subspace(s).outcomes:
                    want = Counter()
                    for cell_u, m in q.weights.items():
                        cell = {**dict(zip(u_ids, cell_u)), **dict(zip(s_ids, key))}
                        for o, x in raw_rows(s | u)[tuple(cell[c] for c in both)].items():
                            want[o] += m * x
                    assert new.kernel(s).rows[key] == {o: x for o, x in want.items() if x}
                seen["kernels"] += 1
            assert validate(new) == []
            seen["empty U"] += not u
            seen["overlap"] += any(s & u for s in present)
            seen[f"n{len(ids)}"] += 1
            cs = new
    assert seen["missing"] >= 20 and seen["empty U"] >= 10 and seen["overlap"] >= 20, seen
    assert all(seen[f"n{n}"] for n in range(1, 5)), seen


@pytest.mark.parametrize(
    "seed, n, mode",
    [(17, 3, "full"), (63, 4, "full"), (307, 5, "full"), (421, 5, "partial")],
)
def test_intervene_shares_the_kernels_it_leaves_unchanged(kernel_constructions, seed, n, mode):
    """A derived kernel on S is the source kernel object exactly when U is a subset of S.

    Only the measure and the subsets that miss part of U build a kernel:
    3 * 2^(n-2) on a full binary family with |U| = 2.
    """
    cs = gen_random_space(GenConfig(seed=seed, max_coords=n, max_labels=2, kernel_mode=mode))
    assert [len(c.labels) for c in cs.space.coordinates] == [2] * n
    u = frozenset(cs.space.ids[:2])
    kernel_constructions.clear()
    new = intervene(cs, InterventionSpec.uniform(cs.space, u))
    built = [s for s in new.kernel_subsets() if not u <= s]
    assert kernel_constructions == [frozenset(), *built]
    for s, kernel in new.kernels.items():
        assert (kernel is cs.kernels.get(s)) is (u <= s)
    if mode == "full":
        assert len(kernel_constructions) == 3 * 2 ** (n - 2)
    else:
        assert built and any(u <= s for s in new.kernels)



def _corrupt_rows(rng, space, coords):
    """Random rows over the whole space: negative weights, and mass outside each row's cylinder."""
    rows = {}
    for key in space.subspace(coords).outcomes:
        picks = rng.sample(space.outcomes, rng.randint(1, min(8, len(space))))
        rows[key] = {o: F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4])) for o in picks}
    return rows


def _literal_violations(sp, observational, family):
    """What `validate` reports on the kernels `family` (subset -> key -> table), walked literally.

    Per kernel in canonical order and per key: the negative entries and the
    entries outside Ω or off the key's cylinder, sorted by outcome, then the
    row sum when it is not 1; a kernel on ∅ that is not the observational
    measure conflicts with it.
    """
    want = []
    for t in subsets_in_order(sp.ids):
        if t not in family:
            continue
        pos = [i for i, cid in enumerate(sp.ids) if cid in t]
        for key in sp.subspace(t).outcomes:
            table, faults = family[t][key], []
            for o, w in table.items():
                if w < 0:
                    faults.append(Violation("negative-weight", t, key, o, f"weight {w}"))
                elif o not in sp.outcomes or any(o[pos[j]] != key[j] for j in range(len(pos))):
                    faults.append(Violation("support", t, key, o, f"mass {w} outside the row's cylinder"))
            want += sorted(faults, key=lambda v: v.outcome)
            if (total := sum(table.values())) != 1:
                want.append(Violation("row-sum", t, key, None, f"row sums to {total}, expected 1"))
        if not t and family[t][()] != observational:
            want.append(Violation("observational-conflict", t, (), None, "supplied empty-subset kernel differs from the observational measure"))
    return want


def test_kernel_rewrites_match_a_literal_sum_on_corrupt_rows():
    """Derived and marginal rows equal a Counter sum from zero on corrupt kernels.

    Corrupt source rows overlap after mixing and after projection, the only
    inputs on which a rewrite adds to a cell it has already filled, and a
    planted pair of opposite weights cancels in the mixture. `validate`
    reports exactly what a literal walk of the kernels on 0, 1 and several
    coordinates finds, each kernel's axiom fact equals a literal row walk,
    and `validate` is empty exactly when every fact holds and ∅ agrees.
    """
    rng = random.Random(4177)
    # the kernels on ∅ come from their own stream, so the draws of every other kernel stay as they are
    empty_rng = random.Random(4178)
    seen = Counter()
    for _ in range(30):
        n = rng.randint(2, 4)
        sp = ProductSpace(tuple(Coordinate(f"c{i}", tuple("xyz"[: rng.randint(2, 3)])) for i in range(n)))
        ids = sp.ids
        observational = _random_mixing(rng, sp)
        u = frozenset(rng.sample(ids, rng.randint(1, len(ids) - 1)))
        s = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        if u <= s:
            s -= {rng.choice(sorted(u))}
        s_ids, both, u_ids = sp.ordered(s), sp.ordered(s | u), sp.ordered(u)
        family = {t: _corrupt_rows(rng, sp, t) for t in subsets_in_order(ids)[1:]}
        # two source rows that differ only on one mixed coordinate put opposite weights on one
        # outcome; the uniform mixture gives them equal weight, so they cancel
        source = family[s | u]
        first = sp.subspace(s | u).outcomes[0]
        i = both.index(sorted(u - s)[0])
        flipped = (*first[:i], sp.coordinate(both[i]).labels[1], *first[i + 1 :])
        o = rng.choice(sp.outcomes)
        source[first][o], source[flipped][o] = F(1, 7), F(-1, 7)
        family[frozenset()] = _corrupt_rows(empty_rng, sp, frozenset())
        bad = CausalSpace(sp, observational, {t: CausalKernel(sp, t, rows) for t, rows in family.items()})
        found = validate(bad)
        assert found == _literal_violations(sp, observational.weights, family)
        facts = [k._holds for k in bad.kernels.values()]
        assert facts == [literal_holds(k) for k in bad.kernels.values()]
        assert (found == []) is (all(facts) and family[frozenset()][()] == observational.weights)
        seen["one-coordinate support"] += sum(v.kind == "support" and len(v.kernel) == 1 for v in found)
        q = uniform(sp.subspace(u))
        derived = intervention_kernel(bad, InterventionSpec(u, q), s)
        for key in sp.subspace(s).outcomes:
            want, hits = Counter(), Counter()
            for cell_u, m in q.weights.items():
                cell = {**dict(zip(u_ids, cell_u)), **dict(zip(s_ids, key))}
                for out, x in source[tuple(cell[c] for c in both)].items():
                    want[out] += m * x
                    hits[out] += 1
            assert derived.rows[key] == {out: x for out, x in want.items() if x}
            seen["mixed collisions"] += sum(h > 1 for h in hits.values())
            seen["cancelled"] += sum(x == 0 for x in want.values())
        keep = frozenset(rng.sample(ids, rng.randint(1, len(ids))))
        pos = sp.positions(keep)
        small = marginalize(bad, keep)
        for t in subsets_in_order(sp.ordered(keep))[1:]:
            for key, table in bad.kernel(t).rows.items():
                want = Counter()
                for out, x in table.items():
                    want[tuple(out[i] for i in pos)] += x
                assert small.kernel(t).rows[key] == {out: x for out, x in want.items() if x}
                seen["projected collisions"] += len(want) < len(table)
        want = Counter()
        for out, x in observational.weights.items():
            want[tuple(out[i] for i in pos)] += x
        assert marginal(observational, keep).weights == dict(want) == small.observational.weights
        assert is_marginalization_of(small, bad)
    assert all(seen[k] >= 25 for k in ("mixed collisions", "cancelled", "projected collisions", "one-coordinate support")), seen
