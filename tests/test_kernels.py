from fractions import Fraction

import pytest

from causalspaces.errors import KernelMissingError
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.kernels import (
    CausalKernel,
    CausalSpace,
    InterventionSpec,
    intervene,
    intervention_kernel,
    intervention_measure,
    is_marginalization_of,
    marginalize,
    subsets_in_order,
    validate,
)
from causalspaces.measure import Measure, delta, marginal, uniform
from causalspaces.space import coordinate_subalgebra

F = Fraction
INS = frozenset({"ins"})


def _with_kernel_rows(cs, coords, mutate):
    rows = {k: dict(t) for k, t in cs.kernel(coords).rows.items()}
    mutate(rows)
    kernels = dict(cs.kernels)
    kernels[coords] = CausalKernel(cs.space, coords, rows)
    return CausalSpace(cs.space, cs.observational, kernels)


def test_validate_insurance_clean(insurance):
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


def test_is_marginalization_rejects_perturbation(insurance):
    small = marginalize(insurance, {"ins", "pay"})
    def bump(rows):
        rows[("Y",)][("Y", "30")] -= F(1, 100)
        rows[("Y",)][("Y", "0")] = F(1, 100)
    perturbed = _with_kernel_rows(small, INS, bump)
    assert not is_marginalization_of(perturbed, insurance)


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


def test_kernel_row_access(insurance):
    kernel = insurance.kernel(INS)
    row = kernel.row(("Y",))
    assert isinstance(row, Measure)
    assert row(insurance.space.where(pay="30")) == 1
    assert kernel.at(("H", "N", "0"))(insurance.space.where(pay="1000")) == F("0.015")
    with pytest.raises(ValueError):
        kernel.row(("H",))
