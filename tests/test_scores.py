import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import causalspaces
from causalspaces.errors import (
    EmptySubjectError,
    InvalidMeasureError,
    MissingNumericVariableError,
    NonBinaryTreatmentError,
)
from causalspaces.generators import GenConfig, gen_null_effect_space, gen_random_space
from causalspaces.kernels import CausalKernel, CausalSpace, InterventionSpec, intervention_measure, subsets_in_order
from causalspaces.measure import Measure, RandomVariable, Row, delta, marginal, mean_and_variance, uniform
from causalspaces.scores import (
    F1,
    F2,
    DifferenceFunctional,
    MEAN_AND_VARIANCE_DIFF,
    MEAN_DIFF,
    TOTAL_VARIATION,
    VARIANCE_DIFF,
    ScaleFunction,
    ate,
    builtin_difference_functionals,
    max_effect_score_algebra,
    max_effect_score_event,
    mean_effect_score_algebra,
    mean_effect_score_event,
    scale_f1,
    scale_f2,
)
from causalspaces.space import Coordinate, ProductSpace, coordinate_subalgebra

F = Fraction
INS = frozenset({"ins"})


def sinh_series(x: float) -> float:
    """Independent sinh evaluation: the odd Taylor series, 12 terms."""
    total, term = 0.0, x
    for k in range(12):
        total += term
        term *= x * x / ((2 * k + 2) * (2 * k + 3))
    return total


# ---------------------------------------------------------------------------
# scale functions


def test_scale_boundaries():
    assert scale_f1(0) == F(-1, 2)
    assert scale_f1(F(1, 2)) == 0
    assert scale_f1(1) == F(1, 2)
    assert scale_f2(0.5) == 0.0
    assert scale_f2(1.0) == 0.5
    assert scale_f2(0.0) == -0.5


def test_scale_f2_against_series_oracle():
    for x in (0.00625, 0.015, 0.3, 0.875):
        expected = sinh_series(x - 0.5) / (2 * sinh_series(0.5))
        assert scale_f2(x) == pytest.approx(expected, abs=1e-12)
    assert scale_f2(0.00625) == pytest.approx(-0.4932474, abs=1e-6)


def test_scale_domain_errors():
    with pytest.raises(ValueError):
        scale_f1(F(3, 2))
    with pytest.raises(ValueError):
        scale_f2(-0.1)
    with pytest.raises(ValueError):
        F1(2)


def test_scale_function_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ScaleFunction("shrunk", lambda x: (x - F(1, 2)) / 2, exact=True)  # bad boundaries
    with pytest.raises(ValueError):
        ScaleFunction("wiggle", lambda x: x - F(1, 2) + (x * (1 - x)) ** 2, exact=True)  # asymmetric
    with pytest.raises(ValueError):
        ScaleFunction("decreasing", lambda x: F(1, 2) - x, exact=True)
    # right boundary values and odd around 1/2, but dips below its start near x = 0.3
    with pytest.raises(ValueError, match=r"^dip: not non-decreasing near x=303/1024$"):
        ScaleFunction("dip", lambda x: -(x - F(1, 2)) + 8 * (x - F(1, 2)) ** 3, exact=True)
    # right boundary values and non-decreasing, but its even term breaks f(x) = -f(1 - x)
    with pytest.raises(ValueError, match=r"^skewed: not symmetric around 1/2 at x=1/1024$"):
        ScaleFunction("skewed", lambda x: (x - F(1, 2)) + ((x - F(1, 2)) ** 2 - F(1, 4)) * (x - F(1, 2)) ** 2, exact=True)


def test_builtin_scales_are_unchecked_after_import():
    src = str(Path(causalspaces.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import causalspaces.scores as s; print(s.F1._unchecked, s.F2._unchecked, s.F1(1), s.F1._unchecked)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["True", "True", "1/2", "False"], out.stderr


@pytest.mark.parametrize("builtin", [F1, F2], ids=["f1", "f2"])
def test_builtin_scale_checks_once_before_its_first_value(builtin, monkeypatch):
    events = []
    check = ScaleFunction._check
    monkeypatch.setattr(ScaleFunction, "_check", lambda self: (events.append("check"), check(self))[1])

    def fn(x):
        events.append("eval")
        return builtin.fn(x)

    scale = ScaleFunction._deferred(builtin.name, fn, builtin.exact)
    assert events == []
    assert scale == ScaleFunction(builtin.name, fn, builtin.exact)  # the eager twin checks once
    events.clear()
    first = scale(F(1, 4))
    assert events == ["check"] + ["eval"] * 1025 + ["eval"]
    assert first == builtin(F(1, 4))
    events.clear()
    assert scale(F(3, 4)) == builtin(F(3, 4))
    assert events == ["eval"]


def test_deferred_invalid_scale_raises_on_first_call():
    bad = ScaleFunction._deferred("shrunk", lambda x: (x - F(1, 2)) / 2, exact=True)
    for _ in range(2):  # a failed check is not recorded as passed
        with pytest.raises(ValueError, match="boundary value"):
            bad(F(1, 2))


def test_custom_valid_scale_function():
    cubic = ScaleFunction("cubic", lambda x: 2 * (x - F(1, 2)) ** 3 + (x - F(1, 2)) / 2, exact=True)
    assert cubic(F(1, 2)) == 0
    assert cubic(1) == F(1, 2)
    assert cubic(0) == F(-1, 2)


# ---------------------------------------------------------------------------
# mean and maximum scores on events


def test_mean_scores_insurance(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    q_y = InterventionSpec.point(insurance.space, {"ins": "Y"}).q
    q_n = InterventionSpec.point(insurance.space, {"ins": "N"}).q
    assert mean_effect_score_event(insurance, INS, q_y, a, F1).value == F(-1, 160)
    assert mean_effect_score_event(insurance, INS, q_n, a, F1).value == F(7, 800)
    s2_y = mean_effect_score_event(insurance, INS, q_y, a, F2).value
    s2_n = mean_effect_score_event(insurance, INS, q_n, a, F2).value
    oracle = lambda p: sinh_series(p - 0.5) / (2 * sinh_series(0.5))
    assert s2_y == pytest.approx(oracle(0.0) - oracle(0.00625), abs=1e-12)
    assert s2_n == pytest.approx(oracle(0.015) - oracle(0.00625), abs=1e-12)
    assert s2_y == pytest.approx(-0.00675, abs=1e-4)
    assert s2_n == pytest.approx(0.00942, abs=1e-4)


def test_f1_score_is_raw_probability_difference(insurance, insurance_doc):
    a = insurance.space.where(pay=("30", "1000"))
    q = uniform(insurance.space.subspace(INS))
    pdo = intervention_measure(insurance, InterventionSpec(INS, q))
    score = mean_effect_score_event(insurance, INS, q, a, F1)
    assert score.value == pdo(a) - insurance.observational(a)


def test_max_event_score_insurance(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    score = max_effect_score_event(insurance, INS, insurance.space.all_event(), a, F1)
    assert score.value == F(7, 800)
    assert score.argmax[1] == "N"
    assert not score.tied
    # a single-row subject reproduces the point-intervention mean score
    b = insurance.space.where(ins="Y")
    single = max_effect_score_event(insurance, INS, b, a, F1)
    q_y = InterventionSpec.point(insurance.space, {"ins": "Y"}).q
    assert single.value == mean_effect_score_event(insurance, INS, q_y, a, F1).value
    # the whole space is a null target for every subject
    assert max_effect_score_event(insurance, INS, b, insurance.space.all_event(), F1).value == 0


def test_max_event_score_requires_measurable_subject(insurance, insurance_doc):
    with pytest.raises(EmptySubjectError):
        max_effect_score_event(insurance, INS, frozenset(), insurance_doc.events["pays1000"], F1)
    with pytest.raises(ValueError):
        max_effect_score_event(insurance, INS, insurance.space.where(dan="H"), insurance_doc.events["pays1000"], F1)


def test_max_event_score_refuses_a_subject_member_that_is_not_an_outcome(insurance):
    subject = insurance.space.where(ins="Y") | {("zz", "Y", "0")}
    with pytest.raises(ValueError, match=r"^\('zz', 'Y', '0'\) is not an outcome of this space$"):
        max_effect_score_event(insurance, INS, subject, insurance.space.all_event(), F1)


def test_max_event_score_tie_flag(copy_space):
    # both rows shift the single-cell event by the same magnitude, opposite signs
    a = copy_space.space.event([("0", "0")])
    score = max_effect_score_event(copy_space, frozenset({"c1"}), copy_space.space.all_event(), a, F1)
    assert score.tied
    assert score.argmax == ("0", "0")
    assert abs(score.value) == F(1, 2)


# ---------------------------------------------------------------------------
# difference functionals and algebra scores


def test_functional_zero_on_equal_measures(insurance, insurance_doc):
    p = insurance.observational
    by_pay = insurance_doc.partitions["by_pay"]
    pay = insurance_doc.variables["payment"]
    for functional in builtin_difference_functionals().values():
        values = functional.evaluate(p, p, by_pay, pay)
        assert all(v == 0 for v in values)


def test_functionals_insurance_values(insurance, insurance_doc):
    by_pay = insurance_doc.partitions["by_pay"]
    pay = insurance_doc.variables["payment"]
    row_y = insurance.kernel(INS).row(("Y",))
    p = insurance.observational
    assert MEAN_DIFF.evaluate(row_y, p, by_pay, pay) == (F("8.45"),)
    assert VARIANCE_DIFF.evaluate(row_y, p, by_pay, pay) == (F("-6244.5975"),)
    assert MEAN_AND_VARIANCE_DIFF.evaluate(row_y, p, by_pay, pay) == (F("8.45"), F("-6244.5975"))
    tv = TOTAL_VARIATION.evaluate(row_y, p, by_pay)[0]
    assert tv == F(49, 100)
    misdeclared = DifferenceFunctional("misdeclared", 2, TOTAL_VARIATION.fn)
    with pytest.raises(ValueError, match="^functional 'misdeclared' returned dimension 1, declared 2$"):
        misdeclared.evaluate(row_y, p, by_pay)


def test_total_variation_equals_max_union_gap(insurance, insurance_doc):
    from itertools import combinations

    by_pay = insurance_doc.partitions["by_pay"]
    row_y = insurance.kernel(INS).row(("Y",))
    p = insurance.observational
    best = F(0)
    for r in range(len(by_pay.blocks) + 1):
        for combo in combinations(by_pay.blocks, r):
            union = frozenset().union(*combo) if combo else frozenset()
            best = max(best, abs(row_y(union) - p(union)))
    assert TOTAL_VARIATION.evaluate(row_y, p, by_pay)[0] == best


def test_functional_requires_variable(insurance, insurance_doc):
    by_pay = insurance_doc.partitions["by_pay"]
    p = insurance.observational
    with pytest.raises(MissingNumericVariableError):
        MEAN_DIFF.evaluate(p, p, by_pay, None)
    by_dan = insurance_doc.partitions["by_dan"]
    with pytest.raises(ValueError):
        MEAN_DIFF.evaluate(p, p, by_dan, insurance_doc.variables["payment"])


def test_mean_algebra_score_insurance(insurance, insurance_doc):
    q_y = InterventionSpec.point(insurance.space, {"ins": "Y"}).q
    score = mean_effect_score_algebra(
        insurance, INS, q_y, insurance_doc.partitions["by_pay"], MEAN_AND_VARIANCE_DIFF, insurance_doc.variables["payment"]
    )
    assert score.value == (F("8.45"), F("-6244.5975"))


def test_mean_algebra_score_null_intervention(insurance, insurance_doc):
    by_pay = insurance_doc.partitions["by_pay"]
    pay = insurance_doc.variables["payment"]
    empty = frozenset()
    q = uniform(insurance.space.subspace(empty))
    score = mean_effect_score_algebra(insurance, empty, q, by_pay, MEAN_AND_VARIANCE_DIFF, pay)
    assert score.value == (0, 0)


def test_mean_algebra_score_zero_for_observational_mixture():
    ns = gen_null_effect_space(GenConfig(seed=3), {"c0"})
    rest = sorted(set(ns.space.ids) - {"c0"})
    algebra = coordinate_subalgebra(ns.space, rest)
    q = marginal(ns.observational, {"c0"})
    score = mean_effect_score_algebra(ns, {"c0"}, q, algebra, TOTAL_VARIATION)
    assert score.value == 0
    assert intervention_measure(ns, InterventionSpec(frozenset({"c0"}), q)) == ns.observational


def test_max_algebra_score_insurance(insurance, insurance_doc):
    by_pay = insurance_doc.partitions["by_pay"]
    pay = insurance_doc.variables["payment"]
    score = max_effect_score_algebra(insurance, INS, insurance.space.all_event(), by_pay, MEAN_DIFF, pay)
    assert score.value == F("8.45")
    assert score.argmax[1] == "Y"
    # oracle: expectations straight from the three tables
    row_n = insurance.kernel(INS).row(("N",))
    assert mean_and_variance(row_n, pay)[0] - mean_and_variance(insurance.observational, pay)[0] == F("-6.55")
    single = max_effect_score_algebra(insurance, INS, insurance.space.where(ins="N"), by_pay, MEAN_DIFF, pay)
    assert single.value == F("-6.55")
    tv0 = max_effect_score_algebra(insurance, INS, insurance.space.where(ins="N"), by_pay, TOTAL_VARIATION)
    assert tv0.value > 0
    # a float-valued functional is sized by the float form of the squared norm, and a list value is read as a tuple
    tv_float = DifferenceFunctional("tv_float", 1, lambda mu, nu, alg, rv: [float(TOTAL_VARIATION.fn(mu, nu, alg, rv)[0])])
    whole = max_effect_score_algebra(insurance, INS, insurance.space.all_event(), by_pay, tv_float)
    exact = max_effect_score_algebra(insurance, INS, insurance.space.all_event(), by_pay, TOTAL_VARIATION)
    assert (whole.value, whole.argmax, whole.tied) == (float(exact.value), exact.argmax, exact.tied)
    assert DifferenceFunctional.norm_squared((0.5, F(1, 4))) == 0.3125


def test_max_algebra_score_zero_when_rows_match_observational():
    ns = gen_null_effect_space(GenConfig(seed=11), {"c0"})
    rest = sorted(set(ns.space.ids) - {"c0"})
    algebra = coordinate_subalgebra(ns.space, rest)
    score = max_effect_score_algebra(ns, {"c0"}, ns.space.all_event(), algebra, TOTAL_VARIATION)
    assert score.value == 0


# ---------------------------------------------------------------------------
# ATE


def toy_bernoulli_space():
    w = Coordinate("w", ("0", "1"), (F(0), F(1)))
    y = Coordinate("y", ("0", "1"), (F(0), F(1)))
    sp = ProductSpace((w, y))
    rows = {}
    for label in "01":
        p1 = F(1, 4) + F(1, 2) * int(label)
        rows[(label,)] = {(label, "0"): 1 - p1, (label, "1"): p1}
    kernel = CausalKernel(sp, frozenset({"w"}), rows)
    p = Measure(sp, {("0", "0"): F(3, 8), ("0", "1"): F(1, 8), ("1", "0"): F(1, 8), ("1", "1"): F(3, 8)})
    return CausalSpace(sp, p, {frozenset({"w"}): kernel})


def test_ate_toy_bernoulli():
    cs = toy_bernoulli_space()
    y = RandomVariable.from_coordinate(cs.space, "y")
    assert ate(cs, "w", y) == F(1, 2)


def test_ate_zero_when_rows_share_outcome_law():
    w = Coordinate("w", ("0", "1"), (F(0), F(1)))
    y = Coordinate("y", ("0", "1"), (F(0), F(1)))
    sp = ProductSpace((w, y))
    outcome_law = {F(0): F(2, 5), F(1): F(3, 5)}
    rows = {(label,): {(label, yl): outcome_law[F(int(yl))] for yl in "01"} for label in "01"}
    kernel = CausalKernel(sp, frozenset({"w"}), rows)
    p = Measure(sp, {(wl, yl): F(1, 2) * outcome_law[F(int(yl))] for wl in "01" for yl in "01"})
    cs = CausalSpace(sp, p, {frozenset({"w"}): kernel})
    assert ate(cs, "w", RandomVariable.from_coordinate(sp, "y")) == 0


def test_ate_rejects_non_binary_treatment(insurance, insurance_doc):
    with pytest.raises(NonBinaryTreatmentError):
        ate(insurance, "ins", insurance_doc.variables["payment"])


def test_ate_matches_direct_contrast():
    cs = toy_bernoulli_space()
    y = RandomVariable.from_coordinate(cs.space, "y")
    do0 = InterventionSpec.point(cs.space, {"w": "0"})
    do1 = InterventionSpec.point(cs.space, {"w": "1"})
    direct = (
        mean_and_variance(intervention_measure(cs, do1), y)[0]
        - mean_and_variance(intervention_measure(cs, do0), y)[0]
    )
    assert ate(cs, "w", y) == direct


def test_ate_equals_mean_diff_score_in_control_space():
    # the score of the treated intervention, taken inside the control space
    from causalspaces.kernels import intervene

    cs = toy_bernoulli_space()
    y = RandomVariable.from_coordinate(cs.space, "y")
    control = intervene(cs, InterventionSpec.point(cs.space, {"w": "0"}))
    q1 = InterventionSpec.point(cs.space, {"w": "1"}).q
    score = mean_effect_score_algebra(control, {"w"}, q1, y.partition, MEAN_DIFF, y)
    assert score.value == ate(cs, "w", y) == F(1, 2)


# ---------------------------------------------------------------------------
# score-level invariants


def test_score_antisymmetry(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    p = insurance.observational
    row_y = insurance.kernel(INS).row(("Y",))
    for scale in (F1, F2):
        forward = scale(row_y(a)) - scale(p(a))
        backward = scale(p(a)) - scale(row_y(a))
        assert forward == -backward


def test_score_complement_symmetry(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    comp = insurance.space.complement(a)
    q_n = InterventionSpec.point(insurance.space, {"ins": "N"}).q
    for scale in (F1,):
        s = mean_effect_score_event(insurance, INS, q_n, a, scale).value
        s_comp = mean_effect_score_event(insurance, INS, q_n, comp, scale).value
        assert s == -s_comp
    s2 = mean_effect_score_event(insurance, INS, q_n, a, F2).value
    s2_comp = mean_effect_score_event(insurance, INS, q_n, comp, F2).value
    assert s2 == pytest.approx(-s2_comp, abs=1e-12)


def test_zero_effect_coherence():
    ns = gen_null_effect_space(GenConfig(seed=21), {"c0"})
    rest = sorted(set(ns.space.ids) - {"c0"})
    a = coordinate_subalgebra(ns.space, rest).blocks[0]
    for q_key in ns.space.subspace({"c0"}).outcomes:
        q = delta(ns.space.subspace({"c0"}), q_key)
        for scale in (F1, F2):
            assert mean_effect_score_event(ns, {"c0"}, q, a, scale).value == 0


def test_zero_f1_score_converse_for_delta(insurance, insurance_doc):
    from causalspaces.effects import active_effect

    a = insurance_doc.events["pays1000"]
    for key in ("Y", "N"):
        q = InterventionSpec.point(insurance.space, {"ins": key}).q
        score = mean_effect_score_event(insurance, INS, q, a, F1).value
        omega = next(o for o in insurance.space.outcomes if o[1] == key)
        assert (score == 0) == (not active_effect(insurance, INS, omega, a))


def test_max_score_dominates_point_scores(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    best = abs(max_effect_score_event(insurance, INS, insurance.space.all_event(), a, F1).value)
    for key in ("Y", "N"):
        q = InterventionSpec.point(insurance.space, {"ins": key}).q
        assert best >= abs(mean_effect_score_event(insurance, INS, q, a, F1).value)


def test_monotone_scale_preserves_sign(insurance, insurance_doc):
    a = insurance_doc.events["pays1000"]
    p = insurance.observational
    for key in ("Y", "N"):
        q = InterventionSpec.point(insurance.space, {"ins": key}).q
        pdo = intervention_measure(insurance, InterventionSpec(INS, q))
        raw = pdo(a) - p(a)
        for scale in (F1, F2):
            score = mean_effect_score_event(insurance, INS, q, a, scale).value
            assert (score > 0) == (raw > 0) and (score < 0) == (raw < 0)


# ---------------------------------------------------------------------------
# maximum scores against a literal loop


def _literal_max(cs, u, b, shift_of):
    """The maximum-score rule spelled out: (argmax, value, tied).

    Walks Ω in canonical order, keeps the first outcome of `b` per distinct
    row table of the kernel on `u`, takes each kept row's (value, size), and
    returns the first of the largest size plus whether another row reaches it.
    """
    kernel = cs.kernel(u)
    positions = [i for i, cid in enumerate(cs.space.ids) if cid in u]
    seen, scored = [], []
    for omega in cs.space.outcomes:
        if omega not in b:
            continue
        table = kernel.rows[tuple(omega[i] for i in positions)]
        if table in seen:
            continue
        seen.append(table)
        scored.append((omega, *shift_of(table)))
    best = max(size for _, _, size in scored)
    winners = [(omega, value) for omega, value, size in scored if size == best]
    return winners[0][0], winners[0][1], len(winners) > 1


def _mass(table, a):
    return sum((w for o, w in table.items() if o in a), F(0))


def _moments(table, cid_index):
    mean = sum((w * int(o[cid_index]) for o, w in table.items()), F(0))
    return mean, sum((w * int(o[cid_index]) ** 2 for o, w in table.items()), F(0)) - mean * mean


def _three_way_tie_space():
    """c0 in {0,1,2}, c1 binary; the rows on c0 put 1/4, 3/4, 1/4 on c1=1 against 1/2 observationally."""
    sp = ProductSpace(tuple(Coordinate(c, tuple(str(j) for j in range(m)), tuple(F(j) for j in range(m))) for c, m in (("c0", 3), ("c1", 2))))
    rows = {(i,): {(i, "0"): 1 - p1, (i, "1"): p1} for i, p1 in zip("012", (F(1, 4), F(3, 4), F(1, 4)))}
    return CausalSpace(sp, uniform(sp), {frozenset({"c0"}): CausalKernel(sp, frozenset({"c0"}), rows)})


def _max_score_cases():
    """Generated full families on 1-4 coordinates plus the three-way tie space, with random subjects."""
    rng = random.Random(7301)
    spaces = [gen_random_space(GenConfig(seed=73_000 + s, max_coords=4, max_labels=3 if s % 4 == 0 else 2)) for s in range(24)]
    spaces.append(_three_way_tie_space())
    for cs in spaces:
        sp = cs.space
        subsets = [s for s in cs.kernels if s] if len(cs.kernels) == 1 else subsets_in_order(sp.ids)
        for _ in range(3):
            u = rng.choice(subsets)
            cylinders = list(sp.cylinders(u).values())
            chosen = rng.sample(cylinders, rng.randint(1, len(cylinders)))
            yield rng, cs, u, frozenset(o for cyl in chosen for o in cyl)


def test_max_event_score_matches_literal_loop():
    ties = cases = 0
    for rng, cs, u, b in _max_score_cases():
        outcomes = cs.space.outcomes
        targets = [frozenset(outcomes), frozenset(), frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes))))]
        targets.append(cs.space.where(**{cs.space.ids[-1]: "0"}))
        for a in targets:
            for scale in (F1, F2):
                pa = scale(_mass(cs.observational.weights, a))

                def shift(table):
                    value = scale(_mass(table, a)) - pa
                    return value, abs(value)

                score = max_effect_score_event(cs, u, b, a, scale)
                assert (score.argmax, score.value, score.tied) == _literal_max(cs, u, b, shift), (cs.space.ids, u, a)
                ties += score.tied
                cases += 1
    assert cases >= 600 and ties >= 100


def test_max_algebra_score_matches_literal_loop():
    ties = cases = 0
    for rng, cs, u, b in _max_score_cases():
        sp = cs.space
        p = cs.observational.weights
        for algebra_coords in (frozenset(), frozenset(rng.sample(sp.ids, rng.randint(1, len(sp.ids)))), frozenset(sp.ids)):
            algebra = coordinate_subalgebra(sp, algebra_coords)

            def total_variation(table):
                tv = sum((abs(_mass(table, blk) - _mass(p, blk)) for blk in algebra.blocks), F(0)) / 2
                return tv, tv * tv

            score = max_effect_score_algebra(cs, u, b, algebra, TOTAL_VARIATION)
            assert (score.argmax, score.value, score.tied) == _literal_max(cs, u, b, total_variation)
            ties += score.tied
            cases += 1
            if not algebra_coords:
                continue
            cid = sorted(algebra_coords)[0]
            i = sp.ids.index(cid)

            def mean_and_variance_diff(table):
                (m1, v1), (m2, v2) = _moments(table, i), _moments(p, i)
                return (m1 - m2, v1 - v2), (m1 - m2) ** 2 + (v1 - v2) ** 2

            rv = RandomVariable.from_coordinate(sp, cid)
            score = max_effect_score_algebra(cs, u, b, algebra, MEAN_AND_VARIANCE_DIFF, rv)
            assert (score.argmax, score.value, score.tied) == _literal_max(cs, u, b, mean_and_variance_diff)
            ties += score.tied
            cases += 1
    assert cases >= 300 and ties >= 50


def test_max_scores_on_a_three_way_tie():
    cs = _three_way_tie_space()
    everything = cs.space.all_event()
    event = max_effect_score_event(cs, {"c0"}, everything, cs.space.where(c1="1"), F1)
    assert (event.argmax, event.value, event.tied) == (("0", "0"), F(-1, 4), True)
    algebra = max_effect_score_algebra(cs, {"c0"}, everything, coordinate_subalgebra(cs.space, {"c1"}), TOTAL_VARIATION)
    assert (algebra.argmax, algebra.value, algebra.tied) == (("0", "0"), F(1, 4), True)
    # without the first row, the tie is between the second and third
    rest = cs.space.where(c0=["1", "2"])
    event = max_effect_score_event(cs, {"c0"}, rest, cs.space.where(c1="1"), F1)
    assert (event.argmax, event.value, event.tied) == (("1", "0"), F(1, 4), True)


def test_max_scores_collapse_rows_that_share_a_table():
    # the rows at c0 = 0 and c0 = 2 are one table, which puts the second row's mass outside its cylinder
    sp = ProductSpace((Coordinate("c0", ("0", "1", "2")), Coordinate("c1", ("0", "1"))))
    shared = {("0", "0"): F(3, 4), ("0", "1"): F(1, 4)}
    rows = {("0",): shared, ("1",): {("1", "0"): F(1, 2), ("1", "1"): F(1, 2)}, ("2",): dict(shared)}
    cs = CausalSpace(sp, uniform(sp), {frozenset({"c0"}): CausalKernel(sp, frozenset({"c0"}), rows)})
    everything = sp.all_event()
    event = max_effect_score_event(cs, {"c0"}, everything, sp.where(c1="1"), F1)
    assert (event.argmax, event.value, event.tied) == (("0", "0"), F(-1, 4), False)
    algebra = max_effect_score_algebra(cs, {"c0"}, everything, coordinate_subalgebra(sp, {"c1"}), TOTAL_VARIATION)
    assert (algebra.argmax, algebra.value, algebra.tied) == (("0", "0"), F(1, 4), False)


def test_ate_derives_only_the_kernels_it_reads(kernel_constructions):
    # a full family of 5 binary coordinates (31 kernels); the control space's whole family is not needed
    cs = gen_random_space(GenConfig(seed=307, max_coords=5, max_labels=2))
    assert [len(c.labels) for c in cs.space.coordinates] == [2] * 5
    y = RandomVariable.from_coordinate(cs.space, "c4")
    means = {
        level: mean_and_variance(intervention_measure(cs, InterventionSpec.point(cs.space, {"c1": level})), y)[0]
        for level in "01"
    }
    kernel_constructions.clear()
    value = ate(cs, "c1", y)
    # the control measure and the direct treated measure; the control space's kernel on the
    # treatment is the stored one
    assert kernel_constructions == [frozenset(), frozenset()]
    assert value == means["1"] - means["0"]


# ---------------------------------------------------------------------------
# the maximum path's single pass over the candidate rows


class _CountingRow(dict):
    """A stored row's numerators that count the equality comparisons made against them."""

    comparisons = 0

    def __eq__(self, other):
        _CountingRow.comparisons += 1
        return dict.__eq__(self, other)


def test_max_score_compares_each_candidate_row_table_at_most_once(monkeypatch):
    # a point-mass kernel on all 10 coordinates: 1024 distinct rows, each the delta at its own outcome;
    # the candidates are told apart by their stored integer rows (den, numerators), so those count
    sp = ProductSpace(tuple(Coordinate(f"c{i}", ("0", "1")) for i in range(10)))
    ids = frozenset(sp.ids)
    kernel = CausalKernel(sp, ids, {o: Row(1, _CountingRow({o: 1})) for o in sp.outcomes})
    cs = CausalSpace(sp, uniform(sp), {ids: kernel})
    monkeypatch.setattr(_CountingRow, "comparisons", 0)
    score = max_effect_score_event(cs, ids, sp.all_event(), sp.where(c0="0"), F1)
    # every row shifts P(c0 = 0) from 1/2 to 1 or to 0
    assert (score.argmax, score.value, score.tied) == (sp.outcomes[0], F(1, 2), True)
    assert _CountingRow.comparisons <= len(sp)


@st.composite
def _subject_queries(draw):
    """A space of at most 3 coordinates, an intervened subset U (possibly empty) and a subject event."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    sp = ProductSpace(tuple(Coordinate(f"c{i}", tuple(str(j) for j in range(m))) for i, m in enumerate(sizes)))
    u = frozenset(draw(st.sets(st.sampled_from(sp.ids))))
    b = frozenset(draw(st.sets(st.sampled_from(sp.outcomes))))
    return sp, u, b


@settings(max_examples=200)
@given(_subject_queries())
def test_max_score_measurability_count_matches_the_coordinate_subalgebra(query):
    sp, u, b = query
    # each row of the kernel on U is the point mass at the first outcome of its cylinder
    rows = {key: {cylinder[0]: 1} for key, cylinder in sp.cylinders(u).items()}
    cs = CausalSpace(sp, uniform(sp), {u: CausalKernel(sp, u, rows)} if u else {})
    a = frozenset(sp.outcomes[:1])
    if not b:
        with pytest.raises(EmptySubjectError):
            max_effect_score_event(cs, u, b, a, F1)
    elif coordinate_subalgebra(sp, u).contains_event(b):
        assert max_effect_score_event(cs, u, b, a, F1).argmax in b
    else:
        with pytest.raises(ValueError) as err:
            max_effect_score_event(cs, u, b, a, F1)
        assert not isinstance(err.value, EmptySubjectError)


def test_max_event_score_reads_candidate_rows_as_checked_measures():
    sp = ProductSpace((Coordinate("c0", ("0", "1")), Coordinate("c1", ("0", "1"))))
    c0 = frozenset({"c0"})
    # the row at c0 = 1 sums to 1/2
    rows = {("0",): {("0", "0"): 1}, ("1",): {("1", "1"): F(1, 2)}}
    cs = CausalSpace(sp, uniform(sp), {c0: CausalKernel(sp, c0, rows)})
    a = sp.where(c1="1")
    with pytest.raises(InvalidMeasureError, match="weights sum to 1/2"):
        max_effect_score_event(cs, c0, sp.all_event(), a, F1)
    with pytest.raises(InvalidMeasureError, match="weights sum to 1/2"):
        max_effect_score_algebra(cs, c0, sp.all_event(), coordinate_subalgebra(sp, {"c1"}), TOTAL_VARIATION)
    # a subject that reaches only the valid row scores it
    assert max_effect_score_event(cs, c0, sp.where(c0="0"), a, F1).value == F(-1, 2)
