"""The quantifying measures and the verdicts against the ground truth of structural causal models.

Every family comes from `sweeps.scm_space`, whose interventional kernels are
the SCM's truncated factorisations, so they form a causal space (Park,
Buchholz, Schoelkopf and Muandet, NeurIPS 2023). The reference values are
computed here from the SCM's tables alone, never from `causalspaces`:

- the average treatment effect of c_t on c_y is the adjustment for the
  direct causes of c_t, sum over z of P(z) [P(y=1 | t=1, z) - P(y=1 | t=0, z)],
  read off the observational table (Pearl, *Causality*, 2009, Thm 3.2.2);
- P(y=1 | do(t=x)) is the truncated factorisation with c_t forced to x,
  and a soft intervention mixes these with its weights;
- when c_t is no ancestor of c_y, intervening on c_t leaves the law of c_y
  unchanged, so every mean score on c_y is zero;
- when c_t is no ancestor of any coordinate of a set Y, K_{S+t} and K_S
  agree on every event over Y for every S (the truncated factorisation of
  the coordinates outside S+t does not read c_t), so `classify` finds no
  effect of c_t on such an event, whatever the subject.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

from causalspaces.effects import NO_EFFECT, classify
from causalspaces.kernels import InterventionSpec, validate
from causalspaces.measure import Measure, RandomVariable
from causalspaces.scores import (
    F1,
    MEAN_DIFF,
    TOTAL_VARIATION,
    VARIANCE_DIFF,
    ate,
    max_effect_score_algebra,
    max_effect_score_event,
    mean_effect_score_algebra,
    mean_effect_score_event,
)
from causalspaces.space import coordinate_subalgebra

from sweeps import scm_space


def _joint(n: int, parents, tables, do=None) -> dict:
    """P(o) for every o in {0,1}^n by the truncated factorisation; `do` maps a coordinate index to its forced label."""
    do = do or {}
    joint = {}
    for o in product("01", repeat=n):
        w = Fraction(1)
        for i in range(n):
            if i in do:
                w *= o[i] == do[i]
            else:
                p1 = tables[i][tuple(o[j] for j in parents[i])]
                w *= p1 if o[i] == "1" else 1 - p1
        joint[o] = w
    return joint


def _prob(joint: dict, holds) -> Fraction:
    return sum((w for o, w in joint.items() if holds(o)), Fraction(0))


def _adjusted_ate(joint: dict, z: list, t: int, y: int) -> Fraction:
    """Sum over assignments of the coordinates `z` of P(z) [P(y=1 | t=1, z) - P(y=1 | t=0, z)]."""
    total = Fraction(0)
    for labels in product("01", repeat=len(z)):
        in_z = lambda o: all(o[j] == label for j, label in zip(z, labels))  # noqa: E731
        contrast = Fraction(0)
        for x, sign in (("1", 1), ("0", -1)):
            given = _prob(joint, lambda o: in_z(o) and o[t] == x)
            contrast += sign * _prob(joint, lambda o: in_z(o) and o[t] == x and o[y] == "1") / given
        total += _prob(joint, in_z) * contrast
    return total


def _ancestors(parents, i: int) -> set:
    seen, stack = set(), list(parents[i])
    while stack:
        j = stack.pop()
        if j not in seen:
            seen.add(j)
            stack.extend(parents[j])
    return seen


def test_scores_match_the_scm_ground_truth():
    rng = random.Random(15)
    seen = Counter()
    for trial in range(60):
        n = 2 + trial % 3
        cs, parents, tables = scm_space(rng, n)
        assert validate(cs) == []
        sp = cs.space
        joint = _joint(n, parents, tables)
        for t, y in permutations(range(n), 2):
            tid, yid = sp.ids[t], sp.ids[y]
            outcome = RandomVariable.from_coordinate(sp, yid)
            effect = ate(cs, tid, outcome)
            assert effect == _adjusted_ate(joint, parents[t], t, y), (trial, t, y)
            y1, sigma_y = sp.where(**{yid: "1"}), coordinate_subalgebra(sp, {yid})
            base = _prob(joint, lambda o: o[y] == "1")
            do = [_prob(_joint(n, parents, tables, {t: x}), lambda o: o[y] == "1") for x in "01"]
            # the point intervention c_t = 1, and a soft one that sets c_t = 1 with probability w
            w = Fraction(rng.randint(1, 6), 7)
            soft = Measure(sp.subspace({tid}), {("0",): 1 - w, ("1",): w})
            scores = []
            for q, p in ((InterventionSpec.point(sp, {tid: "1"}).q, do[1]), (soft, (1 - w) * do[0] + w * do[1])):
                want = [p - base, p - base, p * (1 - p) - base * (1 - base), abs(p - base)]
                got = [mean_effect_score_event(cs, {tid}, q, y1, F1).value] + [
                    mean_effect_score_algebra(cs, {tid}, q, sigma_y, f, outcome if f.needs_variable else None).value
                    for f in (MEAN_DIFF, VARIANCE_DIFF, TOTAL_VARIATION)
                ]
                assert got == want, (trial, t, y, q)
                scores += got
            if t in _ancestors(parents, y):
                seen["ancestor"] += 1
                seen["ancestor with an effect"] += effect != 0
            else:
                seen["no ancestor"] += 1
                assert do == [base, base] and effect == 0 and scores == [0] * 8, (trial, t, y)
    # both relations ran often, and faithful tables make most ancestors show an effect
    assert seen["no ancestor"] >= 100 and seen["ancestor"] >= 100, seen
    assert seen["ancestor with an effect"] > seen["ancestor"] // 2, seen


def test_maximum_scores_match_a_literal_maximum_over_the_interventional_rows():
    """The maximum over the point interventions do(U = u), u a cut of the subject b, read off the truncated factorisation.

    The value is the largest in magnitude, the argmax is the first such u in
    canonical order with every other coordinate at its first label, and
    `tied` says another u reaches the same magnitude. Distinct cuts force U
    to distinct labels, so no two rows coincide.
    """
    rng = random.Random(34)
    seen = Counter()
    for trial in range(120):
        n = 2 + trial % 3
        cs, parents, tables = scm_space(rng, n)
        sp = cs.space
        y = rng.randrange(n)
        us = sorted(rng.sample([i for i in range(n) if i != y], rng.randint(1, n - 1)))
        coords = {sp.ids[i] for i in us}
        cuts = sorted(rng.sample(list(product("01", repeat=len(us))), rng.randint(1, 2 ** len(us))))
        b = frozenset(o for o in sp.outcomes if tuple(o[i] for i in us) in cuts)
        base = _prob(_joint(n, parents, tables), lambda o: o[y] == "1")
        ps = [_prob(_joint(n, parents, tables, dict(zip(us, cut))), lambda o: o[y] == "1") for cut in cuts]
        y1, sigma_y = sp.where(**{sp.ids[y]: "1"}), coordinate_subalgebra(sp, {sp.ids[y]})
        outcome = RandomVariable.from_coordinate(sp, sp.ids[y])
        scores = {
            "f1": (max_effect_score_event(cs, coords, b, y1, F1), [p - base for p in ps]),
            "variance": (
                max_effect_score_algebra(cs, coords, b, sigma_y, VARIANCE_DIFF, outcome),
                [p * (1 - p) - base * (1 - base) for p in ps],
            ),
        }
        for name, (score, values) in scores.items():
            sizes = [abs(v) for v in values]
            i = sizes.index(max(sizes))
            argmax = tuple(dict(zip(us, cuts[i])).get(j, "0") for j in range(n))
            assert (score.value, score.argmax, score.tied) == (values[i], argmax, sizes.count(sizes[i]) > 1), (trial, name)
            seen[name, "tied" if score.tied else "untied"] += 1
            seen[name, "first" if i == 0 else "later"] += 1
    # ties (a U that holds no ancestor of y, or labels that swap p and 1 - p) and later argmaxes both occur
    assert all(seen[name, kind] >= 10 for name in ("f1", "variance") for kind in ("tied", "untied", "later")), seen


def test_classify_finds_no_effect_on_events_the_treatment_is_no_ancestor_of():
    rng = random.Random(10)
    seen = Counter()
    for trial in range(200):
        n = (3, 4, 5, 3, 4, 5, 3, 4, 6, 3)[trial % 10]  # few 6-coordinate families: each takes about 40 ms to build
        cs, parents, _ = scm_space(rng, n)
        sp = cs.space
        descendants = [{i for i in range(n) if t in _ancestors(parents, i)} for t in range(n)]
        # the last coordinate is an ancestor of none, so some treatment has a non-descendant
        t = rng.choice([t for t in range(n) if len(descendants[t]) < n - 1])
        subject = rng.choice(sp.outcomes) if rng.random() < 0.5 else frozenset(rng.sample(sp.outcomes, rng.randint(1, 4)))
        others = sorted(set(range(n)) - descendants[t] - {t})
        questions = [("no ancestor", rng.sample(others, rng.randint(1, len(others))))]
        if descendants[t]:  # Y holds a descendant of c_t, and maybe other coordinates
            rest = sorted(set(range(n)) - {t})
            questions.append(("ancestor", {rng.choice(sorted(descendants[t]))} | set(rng.sample(rest, rng.randint(0, len(rest))))))
        for kind, ys in questions:
            cells = list(sp.cylinders({sp.ids[y] for y in ys}).values())
            target = frozenset(o for cell in rng.sample(cells, rng.randint(1, len(cells) - 1)) for o in cell)
            verdict = classify(cs, {sp.ids[t]}, subject, target)
            seen[kind] += 1
            if kind == "no ancestor":
                assert verdict is NO_EFFECT, (trial, t, sorted(ys), verdict)
            else:
                seen["ancestor with an effect"] += verdict is not NO_EFFECT
    # every family asked the no-ancestor question, and faithful tables make most ancestors show an effect
    assert seen["no ancestor"] == 200 and seen["ancestor"] >= 50, seen
    assert seen["ancestor with an effect"] > 3 * seen["ancestor"] // 4, seen
