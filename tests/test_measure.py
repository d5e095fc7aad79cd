import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest

from causalspaces import kernels as kernels_module, measure as measure_module
from causalspaces.errors import InvalidMeasureError, MissingNumericVariableError
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.kernels import CausalKernel, CausalSpace, InterventionSpec, validate
from causalspaces.measure import (
    Measure,
    RandomVariable,
    Row,
    cond_independent,
    condition_on_algebra,
    condition_on_event,
    delta,
    independent,
    marginal,
    mean_and_variance,
    mutually_abs_continuous_on,
    row_holds,
    uniform,
)
from causalspaces.space import Coordinate, Partition, ProductSpace, coordinate_subalgebra

F = Fraction


def test_measure_invariants(insurance):
    sp = insurance.space
    with pytest.raises(InvalidMeasureError):
        Measure(sp, {sp.outcomes[0]: F(-1, 2), sp.outcomes[1]: F(3, 2)})
    with pytest.raises(InvalidMeasureError):
        Measure(sp, {sp.outcomes[0]: F(1, 2)})
    with pytest.raises(InvalidMeasureError):
        Measure(sp, {("bogus", "Y", "0"): F(1)})
    # zero entries are dropped, so equal measures compare equal
    assert Measure(sp, {sp.outcomes[0]: F(1), sp.outcomes[1]: F(0)}) == Measure(sp, {sp.outcomes[0]: F(1)})


_COIN = ProductSpace((Coordinate("a", ("x", "y")),))


@pytest.mark.parametrize(
    "row, holds",
    [
        ((2, {("x",): 1, ("y",): 1}), True),
        ((1, {("y",): 1}), True),
        ((1, {("x",): 2, ("y",): -1}), False),
        ((2, {("x",): 1}), False),
        ((1, {("z",): 1}), False),
        ((1, {}), False),
    ],
    ids=["half-half", "point", "negative", "short-sum", "outside-omega", "empty"],
)
def test_row_holds_is_the_probability_row_test(row, holds):
    assert row_holds(Row(*row), _COIN.outcome_index) is holds
    if holds:
        weights = Measure(_COIN, Row(*row)).weights
        assert (weights.den, weights.nums) == row
    else:
        with pytest.raises(InvalidMeasureError):
            Measure(_COIN, Row(*row))


def test_a_valid_row_never_takes_the_entry_walk():
    cs = gen_random_space(GenConfig(seed=5, max_coords=4, max_labels=3))
    rows = [(k, key) for k in cs.kernels.values() for key in k.rows]
    walk = AssertionError("a valid row took the entry walk")
    with (
        mock.patch.object(measure_module, "_checked", side_effect=walk),
        mock.patch.object(kernels_module, "_row_violations", side_effect=walk),
    ):
        assert Measure(cs.space, cs.observational.weights) == cs.observational
        assert all(kernel.row(key).weights is kernel.rows[key] for kernel, key in rows)
        assert validate(cs) == []


def test_the_row_constructor_drops_zeros_and_divides_out_one_gcd():
    a, b, c = ("a",), ("b",), ("c",)
    row = Row(4, {a: 2, b: 2, c: 0})
    assert row.den == 2 and row.nums == {a: 1, b: 1}
    assert repr(row) == "{('a',): Fraction(1, 2), ('b',): Fraction(1, 2)}"
    canonical = {a: 1, b: 2}
    assert Row(3, canonical).nums is canonical


def test_an_unreduced_row_equals_its_reduced_form_in_measures_and_kernels():
    x, y = ("x",), ("y",)
    assert Measure(_COIN, Row(2, {x: 2})) == delta(_COIN, x)
    coords = frozenset({"a"})
    given = CausalKernel(_COIN, coords, {x: Row(4, {x: 4}), y: Row(3, {y: 3})})
    tables = CausalKernel(_COIN, coords, {x: {x: F(1)}, y: {y: F(1)}})
    assert CausalSpace(_COIN, uniform(_COIN), {coords: given}).same_as(CausalSpace(_COIN, uniform(_COIN), {coords: tables}))


def test_rows_are_equal_exactly_when_their_fraction_tables_are():
    rng = random.Random(25)
    outcomes = [("x",), ("y",), ("z",)]
    seen = set()
    for _ in range(2000):
        d1 = rng.randint(1, 6)
        n1 = {o: rng.randint(-2, 6) for o in outcomes if rng.random() < 0.8}
        if rng.random() < 0.5:
            # the same table scaled by k, half the time with a zero on an outcome it lacks
            k = rng.randint(1, 4)
            d2, n2 = d1 * k, {o: n * k for o, n in n1.items()}
            if rng.random() < 0.5:
                n2.setdefault(rng.choice(outcomes), 0)
        else:
            d2, n2 = rng.randint(1, 6), {o: rng.randint(-2, 6) for o in outcomes if rng.random() < 0.8}
        want = {o: F(n, d1) for o, n in n1.items() if n} == {o: F(n, d2) for o, n in n2.items() if n}
        r1, r2 = Row(d1, dict(n1)), Row(d2, dict(n2))
        assert (r1 == r2) is want and (dict(r1) == dict(r2)) is want
        seen.add(want)
    assert seen == {True, False}


def test_condition_on_event_table_values(insurance, insurance_doc):
    p = insurance.observational
    a = insurance_doc.events["pays1000"]
    high = insurance_doc.events["high_danger"]
    conditioned = condition_on_event(p, high)
    assert conditioned(a) == F(1, 160)  # 0.00125 / 0.2 = 0.00625
    assert condition_on_event(p, frozenset(insurance.space.outcomes)) == p
    assert condition_on_event(p, frozenset([("N", "Y", "0")])) is None


def test_condition_composition_on_nested_events(insurance):
    p = insurance.observational
    sp = insurance.space
    g = sp.where(dan=("L", "H"))
    inner = sp.where(dan="L")
    once = condition_on_event(p, g)
    assert condition_on_event(once, inner) == condition_on_event(p, inner)


def test_condition_on_algebra(insurance, insurance_doc):
    p = insurance.observational
    sp = insurance.space
    a = insurance_doc.events["pays1000"]
    trivial = coordinate_subalgebra(sp, set())
    for omega in sp.outcomes[:4]:
        assert condition_on_algebra(p, trivial, omega, a) == p(a)
    by_dan = insurance_doc.partitions["by_dan"]
    assert condition_on_algebra(p, by_dan, ("H", "Y", "0"), a) == F(1, 160)
    # an event that is a union of blocks conditions to its indicator
    union = sp.where(dan=("N", "L"))
    assert condition_on_algebra(p, by_dan, ("N", "Y", "0"), union) == 1
    assert condition_on_algebra(p, by_dan, ("H", "Y", "0"), union) == 0


def test_condition_on_algebra_zero_block():
    sp = ProductSpace((Coordinate("a", ("x", "y")),))
    p = Measure(sp, {("x",): F(1)})
    part = coordinate_subalgebra(sp, {"a"})
    assert condition_on_algebra(p, part, ("y",), frozenset([("x",)])) is None


def test_marginal_pay_matches_table_sums(insurance):
    m = marginal(insurance.observational, {"pay"})
    assert m.weights == {("0",): F("0.48375"), ("30",): F("0.51"), ("1000",): F("0.00625")}


def test_marginal_identity_and_danger(insurance):
    p = insurance.observational
    assert marginal(p, set(insurance.space.ids)).weights == p.weights
    # sums of Table 1 column pairs, computed here directly from the cells
    by_dan = marginal(p, {"dan"})
    direct = {}
    for o, w in p.weights.items():
        direct[(o[0],)] = direct.get((o[0],), F(0)) + w
    assert by_dan.weights == direct
    assert direct == {("N",): F(1, 10), ("L",): F(7, 10), ("H",): F(1, 5)}


def test_marginal_composes(insurance):
    p = insurance.observational
    two = marginal(p, {"ins", "pay"})
    assert marginal(two, {"pay"}).weights == marginal(p, {"pay"}).weights


def test_delta_properties(insurance):
    sp = insurance.space
    omega = ("L", "N", "1000")
    d = delta(sp, omega)
    assert d(frozenset([omega])) == 1
    assert d(sp.where(dan="H")) == 0
    assert marginal(d, {"ins"}).weights == {("N",): F(1)}
    assert condition_on_event(d, sp.where(dan="L")) == d


def test_mutual_absolute_continuity(insurance, insurance_doc):
    p = insurance.observational
    kernel_y = insurance.kernel(frozenset({"ins"})).row(("Y",))
    by_ins = insurance_doc.partitions["by_ins"]
    assert mutually_abs_continuous_on(p, p, by_ins)
    trivial = coordinate_subalgebra(insurance.space, set())
    assert mutually_abs_continuous_on(p, kernel_y, trivial)
    # the no-insurance block has observational mass 49/100 but kernel mass 0
    assert p(insurance.space.where(ins="N")) == F(49, 100)
    assert kernel_y(insurance.space.where(ins="N")) == 0
    assert not mutually_abs_continuous_on(p, kernel_y, by_ins)
    with pytest.raises(ValueError, match="^measures live on different spaces$"):
        mutually_abs_continuous_on(p, uniform(_COIN), by_ins)


def test_independent_trivial_cases(insurance, insurance_doc):
    p = insurance.observational
    trivial = coordinate_subalgebra(insurance.space, set())
    assert independent(p, insurance.space.where(dan="H"), trivial)
    assert independent(p, frozenset(), insurance_doc.partitions["by_dan"])


def product_space_measure():
    sp = ProductSpace((Coordinate("u", ("0", "1")), Coordinate("v", ("a", "b", "c"))))
    left = {("0",): F(1, 4), ("1",): F(3, 4)}
    right = {("a",): F(1, 2), ("b",): F(1, 3), ("c",): F(1, 6)}
    weights = {(x, y): left[(x,)] * right[(y,)] for x in "01" for y in "abc"}
    return sp, Measure(sp, weights)


def test_independent_product_measure_brute_force():
    # every event over the untouched coordinate is independent of the other axis
    sp, p = product_space_measure()
    hu = coordinate_subalgebra(sp, {"u"})
    hv = coordinate_subalgebra(sp, {"v"})
    for a in _block_unions(hv):
        assert independent(p, a, hu)


def _block_unions(partition):
    out = []
    for r in range(len(partition.blocks) + 1):
        for combo in combinations(partition.blocks, r):
            out.append(frozenset().union(*combo) if combo else frozenset())
    return out


def test_independent_matches_union_enumeration():
    # block-level checking must coincide with checking every union of blocks
    sp, p = product_space_measure()
    skew = Measure(sp, {**p.weights, ("0", "a"): p.weights[("0", "a")] + F(1, 12), ("1", "c"): p.weights[("1", "c")] - F(1, 12)})
    hv = coordinate_subalgebra(sp, {"v"})
    for measure in (p, skew):
        for a in [sp.where(u="0"), sp.where(u="0", v=("a", "b")), frozenset([("1", "c")])]:
            blocks_only = independent(measure, a, hv)
            masks = []
            for r in range(len(hv.blocks) + 1):
                for combo in combinations(hv.blocks, r):
                    union = frozenset().union(*combo) if combo else frozenset()
                    masks.append(measure(a & union) == measure(a) * measure(union))
            assert blocks_only == all(masks)


def test_cond_independent_event_form(insurance, insurance_doc):
    p = insurance.observational
    sp = insurance.space
    by_ins = insurance_doc.partitions["by_ins"]
    whole = frozenset(sp.outcomes)
    a = insurance_doc.events["pays1000"]
    assert cond_independent(p, a, by_ins, whole) == independent(p, a, by_ins)
    assert cond_independent(p, a, by_ins, frozenset([("N", "Y", "0")])) is None
    # an event measurable in the tested algebra factorizes after conditioning
    g = sp.where(dan=("L", "H"))
    assert cond_independent(p, sp.where(ins="Y"), by_ins, g) in (True, False)
    assert cond_independent(p, sp.where(ins="Y"), coordinate_subalgebra(sp, set()), g) is True


def test_cond_independent_partition_form():
    sp, p = product_space_measure()
    hu = coordinate_subalgebra(sp, {"u"})
    hv = coordinate_subalgebra(sp, {"v"})
    # an event measurable in the conditioning algebra factorizes as an indicator
    assert cond_independent(p, sp.where(v=("a", "b")), hu, hv) is True
    # but an event over u itself is not conditionally independent of H_u
    assert cond_independent(p, sp.where(u="0"), hu, hv) is False


def test_mean_and_variance_insurance(insurance, insurance_doc):
    pay = insurance_doc.variables["payment"]
    mean, var = mean_and_variance(insurance.observational, pay)
    # direct weighted sums over the fixture cells
    direct_mean = sum(w * F(o[2]) for o, w in insurance.observational.weights.items())
    direct_second = sum(w * F(o[2]) ** 2 for o, w in insurance.observational.weights.items())
    assert (mean, var) == (direct_mean, direct_second - direct_mean**2)
    assert mean == F("21.55")
    assert var == F("6244.5975")
    row_y = insurance.kernel(frozenset({"ins"})).row(("Y",))
    assert mean_and_variance(row_y, pay) == (30, 0)


def test_mean_and_variance_constant(insurance):
    sp = insurance.space
    c = F(7, 3)
    x = RandomVariable(sp, {o: c for o in sp.outcomes}, coordinate_subalgebra(sp, set()))
    assert mean_and_variance(insurance.observational, x) == (c, 0)
    with pytest.raises(ValueError, match="^random variable and measure live on different spaces$"):
        mean_and_variance(uniform(_COIN), x)


def test_law_of_total_probability(insurance, insurance_doc):
    p = insurance.observational
    part = insurance_doc.partitions["by_dan"]
    a = insurance.space.where(pay=("30", "1000"))
    total = F(0)
    for block in part.blocks:
        pb = p(block)
        if pb:
            total += pb * condition_on_event(p, block)(a)
    assert total == p(a)


def test_random_variable_requires_numeric_labels(insurance):
    with pytest.raises(MissingNumericVariableError):
        RandomVariable.from_coordinate(insurance.space, "dan")


def test_random_variable_must_be_block_constant():
    sp = ProductSpace((Coordinate("a", ("x", "y")),))
    trivial = coordinate_subalgebra(sp, set())
    with pytest.raises(ValueError, match="^random variable is not constant on a block of its partition$"):
        RandomVariable(sp, {("x",): F(0), ("y",): F(1)}, trivial)
    with pytest.raises(ValueError, match="^random variable must assign a value to every outcome$"):
        RandomVariable(sp, {("x",): F(0)}, trivial)
    # constant on the first block, not on the last
    three = ProductSpace((Coordinate("a", ("x", "y", "z")),))
    split = Partition(three, (frozenset({("x",)}), frozenset({("y",), ("z",)})))
    values = {("x",): F(0), ("y",): F(1), ("z",): F(2)}
    with pytest.raises(ValueError, match="^random variable is not constant on a block of its partition$"):
        RandomVariable(three, values, split)
    rv = RandomVariable(three, values, coordinate_subalgebra(three, {"a"}))
    assert rv.measurable_wrt(coordinate_subalgebra(three, {"a"})) and not rv.measurable_wrt(split)


def test_uniform_is_probability():
    sp = ProductSpace((Coordinate("a", ("x", "y", "z")),))
    u = uniform(sp)
    assert all(w == F(1, 3) for w in u.weights.values())
    InterventionSpec(frozenset({"a"}), u)  # accepted as a mixing measure



_OWN = ProductSpace((Coordinate("c0", ("0", "1")), Coordinate("c1", ("0", "1"))))
# one space with other outcomes, and one whose outcomes are the same tuples under other coordinate ids
_FOREIGN = {
    "other outcomes": ProductSpace((Coordinate("c0", ("0", "1")),)),
    "same tuples": ProductSpace((Coordinate("d0", ("0", "1")), Coordinate("d1", ("0", "1")))),
}
# each helper that takes a partition, given a measure p, an event a, an algebra of p's space and a random variable
_PARTITION_CALLS = {
    "independent": lambda p, a, own, rv, part: independent(p, a, part),
    "mutually_abs_continuous_on": lambda p, a, own, rv, part: mutually_abs_continuous_on(p, p, part),
    "cond_independent algebra": lambda p, a, own, rv, part: cond_independent(p, a, part, a),
    "cond_independent given": lambda p, a, own, rv, part: cond_independent(p, a, own, part),
    "condition_on_algebra": lambda p, a, own, rv, part: condition_on_algebra(p, part, _OWN.outcomes[0], a),
    "RandomVariable": lambda p, a, own, rv, part: RandomVariable(_OWN, dict(rv.values), part),
    "measurable_wrt": lambda p, a, own, rv, part: rv.measurable_wrt(part),
}


@pytest.mark.parametrize("foreign", sorted(_FOREIGN))
@pytest.mark.parametrize("call", list(_PARTITION_CALLS))
def test_partitions_from_another_space_are_refused(foreign, call):
    rv = RandomVariable(_OWN, {o: F(int(o[0])) for o in _OWN.outcomes}, coordinate_subalgebra(_OWN, {"c0"}))
    args = (uniform(_OWN), _OWN.where(c0="0"), coordinate_subalgebra(_OWN, {"c1"}), rv)
    part = coordinate_subalgebra(_FOREIGN[foreign], {_FOREIGN[foreign].ids[0]})
    with pytest.raises(ValueError, match="^partition lives on a different space$"):
        _PARTITION_CALLS[call](*args, part)
