"""Closed forms from the causal-space axioms, checked against the engine.

A causal kernel obeys interventional determinism: each row is a probability
row on the cylinder of its key, so on such a kernel a row gives an event over
the kernel's own coordinates the mass 1_a(ω) (Park et al., 2023). Whether
every row of a kernel is such a row is the kernel's one axiom fact,
``CausalKernel._holds``, which `validate` reads. These tests check the fact
against a literal row walk, `validate` against the fact, the verdicts the
fact decides against the engine, and the closed form itself on both rows of
every row pair, read literally. On kernels whose fact is false, where no
closed form holds, the engine's verdicts are checked against the oracle.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from causalspaces.effects import ACTIVE, EffectQuery, active_effect, run_query
from causalspaces.kernels import CausalKernel, CausalSpace, subsets_in_order, validate
from causalspaces.oracle import oracle_effect_brute
from causalspaces.space import coordinate_subalgebra

from sweeps import dense_binary_space, literal_holds, random_space_stream, scm_space


@pytest.fixture(scope="module")
def valid_spaces():
    """Spaces that pass `validate`: from the random stream, and from the dense and SCM generators on 3 to 5 coordinates."""
    rng = random.Random(2107)
    spaces = [random_space_stream(rng, trial) for trial in range(90)]
    for n in (3, 3, 4, 4, 5) * 12:
        spaces.append(dense_binary_space(rng, n, rng.choice((0.0, 0.5, 1.0))))
        spaces.append(scm_space(rng, n)[0])
    return [cs for cs in spaces if not validate(cs)]


def _cylinder(cs, coords, keys):
    """The event of the outcomes whose cut onto `coords` is among `keys`."""
    return frozenset(o for key, cyl in cs.space.cylinders(coords).items() if key in keys for o in cyl)


def test_active_check_is_the_indicator_of_a_target_over_the_intervened_coordinates(valid_spaces):
    """On a valid space, ω is active on a cylinder `a` over U exactly when P(a) ≠ 1_a(ω)."""
    rng = random.Random(2108)
    seen = {True: 0, False: 0}
    for cs in valid_spaces:
        u = rng.choice(cs.kernel_subsets())
        keys = cs.space.subspace(u).outcomes
        a = _cylinder(cs, u, set(rng.sample(keys, rng.randint(0, len(keys)))))
        p = cs.observational(a)
        for omega in cs.space.outcomes:
            want = p != (1 if omega in a else 0)
            assert active_effect(cs, u, omega, a) is want, (cs, u, omega, sorted(a))
            seen[want] += 1
    assert len(valid_spaces) >= 200 and min(seen.values()) >= 1000, (len(valid_spaces), seen)


def _corrupt(rng, cs, coords, fault):
    """A copy of the kernel on `coords` with one row broken by `fault`: its sum, its support, its outcomes or its signs."""
    kernel, space = cs.kernels[coords], cs.space
    key = rng.choice(space.subspace(coords).outcomes)
    row = dict(kernel.rows[key])
    cyl = space.cylinders(coords)[key]
    if fault == "sum":  # on the cylinder, no negative weight, but the row sums to 3/2
        row = {o: w * Fraction(3, 2) for o, w in row.items()}
    elif fault == "support":  # a probability row, with one outcome's mass moved off the cylinder
        o = rng.choice(sorted(row))
        off = rng.choice([x for x in space.outcomes if x not in cyl])
        row[off] = row.pop(o)
    elif fault == "outside":  # a probability row whose key cut is right, with one outcome's mass moved outside Ω
        o = rng.choice(sorted(row))
        free = rng.choice([i for i, cid in enumerate(space.ids) if cid not in coords])
        row[o[:free] + ("?",) + o[free + 1 :]] = row.pop(o)
    else:  # a row that sums to 1 on the cylinder, with one negative weight
        o1, o2 = rng.sample(cyl, 2)
        row[o1], row[o2] = row.get(o1, 0) + 2, row.get(o2, 0) - 2
    return CausalKernel(space, coords, {**kernel.rows, key: row})


def test_the_kernel_fact_is_a_literal_row_walk_and_decides_validate(valid_spaces):
    """`_holds` equals a literal walk, and `validate` is empty exactly when every fact holds and ∅ agrees."""
    rng = random.Random(2109)
    seen = {"sum": 0, "support": 0, "outside": 0, "signs": 0, "conflict": 0}
    for cs in valid_spaces:
        assert all(k._holds and literal_holds(k) for k in cs.kernels.values())
        coords = rng.choice(cs.kernel_subsets())
        faults = ["sum"]
        if len(cs.space.subspace(coords)) > 1:
            faults.append("support")
        if len(cs.space) > len(cs.space.subspace(coords)):
            faults += ["outside", "signs"]
        fault = rng.choice(faults)
        kernels = {**cs.kernels, coords: _corrupt(rng, cs, coords, fault)}
        # a supplied kernel on ∅ is a probability row on Ω: the measure's own, or, once in three spaces, a valid kernel row
        row = rng.choice(list(cs.kernels[coords].rows.values())) if rng.random() < 1 / 3 else cs.observational.weights
        empty = CausalKernel(cs.space, frozenset(), {(): row})
        conflict = row != cs.observational.weights
        for with_empty in (False, True):
            bad = CausalSpace(cs.space, cs.observational, {**kernels, frozenset(): empty} if with_empty else kernels)
            facts = {s: k._holds for s, k in bad.kernels.items()}
            assert facts == {s: literal_holds(k) for s, k in bad.kernels.items()}
            assert [s for s, f in facts.items() if not f] == [coords]
            agrees = not (with_empty and conflict)
            assert (validate(bad) == []) is (all(facts.values()) and agrees)
            # without the broken kernel, what is left is empty exactly when ∅ agrees
            rest = CausalSpace(cs.space, cs.observational, {s: k for s, k in bad.kernels.items() if s != coords})
            assert (validate(rest) == []) is (all(f for s, f in facts.items() if s != coords) and agrees)
        seen[fault] += 1
        seen["conflict"] += conflict
    assert min(seen.values()) >= 20, seen


def _literal_mass(cs, coords, key, a):
    """The mass of `a` under row `key` of the kernel on `coords`, summed from the stored table as Fractions; ∅ reads the measure."""
    row = cs.kernels[coords].rows[key] if coords else cs.observational.weights
    return sum((Fraction(w) for o, w in row.items() if o in a), Fraction(0))


def test_both_rows_of_every_pair_give_a_target_over_the_reduced_subset_its_indicator():
    """On a valid space, both rows of each pair of a shape (T, R, F) give a cylinder over D ⊆ R the mass 1_a(cell)."""
    rng = random.Random(2110)
    spaces = [cs for cs in (random_space_stream(rng, trial) for trial in range(60)) if len(cs.space.ids) == 3]
    for n in (3, 3, 4, 4, 5, 6):
        spaces += [dense_binary_space(rng, n, rng.choice((0.0, 0.5, 1.0))), scm_space(rng, n)[0]]
    seen = Counter()
    for cs in spaces:
        assert validate(cs) == []
        sp = cs.space
        ids = sp.ids
        u = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        v = frozenset(rng.sample(ids, rng.randint(0, len(ids)))) if rng.random() < 0.5 else frozenset()
        w = u - v
        # the active shape, then one shape per superset of V, the ones the scan skips included
        shapes = [(u | v, v, u)] + [(t, t - w, t & w) for t in subsets_in_order(ids) if t >= v]
        key = sp.restrict(rng.choice(sp.outcomes), u)
        base = sp.splice(sp.outcomes[0], u, key)
        for joint, reduced, fixed in shapes:
            for d in subsets_in_order(sp.ordered(reduced)):
                keys = sp.subspace(d).outcomes
                a = _cylinder(cs, d, set(rng.sample(keys, rng.randint(0, len(keys)))))
                for part in sp.subspace(joint - fixed).outcomes:
                    cell = sp.splice(base, joint - fixed, part)
                    m1 = _literal_mass(cs, joint, sp.restrict(cell, joint), a)
                    m2 = _literal_mass(cs, reduced, sp.restrict(cell, reduced), a)
                    assert m1 == m2 == (cell in a), (cs, u, v, joint, reduced, d, cell)
                    seen[m1] += 1
        seen["post"] += bool(v)
    assert len(spaces) >= 30 and seen["post"] >= 5 and min(seen[0], seen[1]) >= 1000, (len(spaces), seen)


def test_verdicts_on_corrupt_kernels_match_the_oracle():
    """Kernels with a row of sum 3/2, mass off its cylinder or a negative weight are read as they are, by the engine and the oracle alike."""
    rng = random.Random(2111)
    seen = Counter()
    for trial in range(300):
        cs = random_space_stream(rng, trial) if trial % 3 else dense_binary_space(rng, 3, rng.choice((0.0, 1.0)))
        sp = cs.space
        # one row broken in each of a random nonempty set of kernels, so that shapes pair valid and corrupt kernels
        kernels = dict(cs.kernels)
        for coords in rng.sample(cs.kernel_subsets(), rng.randint(1, len(kernels))):
            faults = ["sum"]
            if len(sp.subspace(coords)) > 1:
                faults.append("support")
            if len(sp) > len(sp.subspace(coords)):
                faults.append("signs")
            fault = rng.choice(faults)
            kernels[coords] = _corrupt(rng, cs, coords, fault)
            seen[fault] += 1
        bad = CausalSpace(sp, cs.observational, kernels)
        # a target over coordinates outside U, where the axioms fix both rows of many pairs on a valid kernel
        u = frozenset(rng.sample(sp.ids, rng.randint(1, max(1, len(sp.ids) - 1))))
        off = sp.ordered(frozenset(sp.ids) - u)
        d = frozenset(rng.sample(off, rng.randint(min(1, len(off)), len(off))))
        keys = sp.subspace(d).outcomes
        target = _cylinder(cs, d, set(rng.sample(keys, rng.randint(0, len(keys)))))
        subject = rng.choice(sp.outcomes) if rng.random() < 0.3 else sp.all_event()
        mode = rng.choice(("plain", "event", "algebra", "post"))
        given = post = None
        if mode == "event":
            given = frozenset(rng.sample(sp.outcomes, rng.randint((len(sp) + 1) // 2, len(sp))))
        elif mode == "algebra":
            given = coordinate_subalgebra(sp, frozenset(rng.sample(sp.ids, rng.randint(0, len(sp.ids)))))
        elif mode == "post":
            post = frozenset(rng.sample(sp.ids, rng.randint(0, len(sp.ids))))
        query = EffectQuery(u, subject, target, given=given, post=post)
        expected = oracle_effect_brute(bad, query)
        assert run_query(bad, query) == expected, (trial, query)
        assert (run_query(bad, query, active_only=True) is ACTIVE) is (expected is ACTIVE), (trial, query)
        seen["moved"] += expected != oracle_effect_brute(cs, query)
    assert min(seen["sum"], seen["support"], seen["signs"]) >= 100 and seen["moved"] >= 30, seen
