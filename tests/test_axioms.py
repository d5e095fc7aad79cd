"""Closed forms from the causal-space axioms, checked against the engine.

A causal kernel obeys interventional determinism: each row is a probability
row on the cylinder of its key, so on such a kernel a row gives an event over
the kernel's own coordinates the mass 1_a(ω) (Park et al., 2023). Whether
every row of a kernel is such a row is the kernel's one axiom fact,
``CausalKernel._holds``, which `validate` reads. These tests check the fact
against a literal row walk, `validate` against the fact, and the verdicts
the fact decides against the engine.
"""

import random
from fractions import Fraction

import pytest

from causalspaces.effects import active_effect
from causalspaces.kernels import CausalKernel, CausalSpace, validate

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
