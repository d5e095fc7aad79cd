import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import causalspaces
from causalspaces.effects import (
    EffectQuery,
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
)
from causalspaces.errors import MissingNumericVariableError
from causalspaces.measure import uniform
from causalspaces.oracle import oracle_effect_brute
from causalspaces.scores import (
    F1,
    TOTAL_VARIATION,
    max_effect_score_algebra,
    max_effect_score_event,
    mean_effect_score_algebra,
    mean_effect_score_event,
)
from causalspaces.space import (
    Coordinate,
    Partition,
    ProductSpace,
    coordinate_subalgebra,
    generated_algebra,
)

from sweeps import uniform_binary_space


def two_by_three():
    return ProductSpace(
        (
            Coordinate("a", ("x", "y")),
            Coordinate("b", ("0", "1", "2"), (Fraction(0), Fraction(1), Fraction(2))),
        )
    )


def test_value_of_needs_numeric_label_values():
    assert two_by_three().coordinate("b").value_of("2") == 2
    with pytest.raises(MissingNumericVariableError, match="^coordinate 'x' has no numeric label values$"):
        Coordinate("x", ("a",)).value_of("a")


def test_outcome_count_is_product(insurance):
    assert len(insurance.space) == 18
    assert len(insurance.space.outcomes) == 18


def test_coordinate_invariants():
    with pytest.raises(ValueError):
        Coordinate("a", ())
    with pytest.raises(ValueError):
        Coordinate("a", ("x", "x"))
    with pytest.raises(ValueError):
        Coordinate("a", ("x",), (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        ProductSpace((Coordinate("a", ("x",)), Coordinate("a", ("y",))))


def test_restrict_and_splice():
    sp = two_by_three()
    assert sp.restrict(("x", "2"), {"b"}) == ("2",)
    assert sp.splice(("x", "2"), {"a"}, ("y",)) == ("y", "2")
    assert sp.splice(("x", "2"), set(), ()) == ("x", "2")
    with pytest.raises(ValueError, match="^replacement tuple does not match the coordinate subset$"):
        sp.splice(("x", "2"), {"a"}, ("y", "0"))
    with pytest.raises(ValueError):
        sp.restrict(("x", "2"), {"zzz"})


def test_restrict_gives_a_tuple_and_raises_past_the_end_of_a_short_outcome():
    """The cut at kept positions: always a tuple, () on no coordinates, IndexError past the end.

    A kept position past the end of the outcome raises for one kept
    coordinate and for several, and a projection table lookup of such a key
    raises the same, instead of cutting a shorter key; a key outside Ω that
    is long enough is cut where it stands and not stored.
    """
    sp = ProductSpace((Coordinate("a", ("0", "1")), Coordinate("b", ("x", "y")), Coordinate("c", ("u", "v"))))
    for coords, want in (({"a", "c"}, ("0", "u")), ({"b"}, ("x",)), (set(), ()), ({"a", "b", "c"}, ("0", "x", "u"))):
        for omega in (("0", "x", "u"), ["0", "x", "u"]):
            got = sp.restrict(omega, coords)
            assert type(got) is tuple and got == want
    assert sp.restrict(("0", "x"), {"a", "b"}) == ("0", "x")
    assert sp.restrict(("0",), set()) == ()
    for coords in ({"c"}, {"a", "c"}, {"b", "c"}, {"a", "b", "c"}):
        with pytest.raises(IndexError):
            sp.restrict(("0", "x"), coords)
        table = sp.projection(coords)
        with pytest.raises(IndexError):
            table[("0", "x")]
        assert ("0", "x") not in table
    table = sp.projection({"b"})
    assert table[("1", "z", "w", "extra")] == ("z",) and len(table) == len(sp)


def test_sort_event_orders_outcomes_and_names_a_stray_member():
    sp = two_by_three()
    assert sp.sort_event(frozenset(sp.outcomes[::-1])) == sp.outcomes
    event = frozenset({("y", "1"), ("z", "0"), ("x",), ("x", "0")})
    with pytest.raises(ValueError, match=r"^\('x',\) is not an outcome of this space$"):
        sp.sort_event(event)
    with pytest.raises(ValueError, match=r"^\('z', '0'\) is not an outcome of this space$"):
        sp.event([("y", "1"), ("z", "0")])


def test_where_predicates(insurance):
    sp = insurance.space
    assert len(sp.where(ins="Y")) == 9
    assert len(sp.where(dan=("N", "L"), ins="N")) == 6
    with pytest.raises(ValueError):
        sp.where(ins="maybe")


def test_coordinate_subalgebra_trivial_cases(insurance):
    sp = insurance.space
    assert coordinate_subalgebra(sp, set()).blocks == (frozenset(sp.outcomes),)
    discrete = coordinate_subalgebra(sp, set(sp.ids))
    assert len(discrete) == 18 and all(len(b) == 1 for b in discrete.blocks)
    by_ins = coordinate_subalgebra(sp, {"ins"})
    assert set(by_ins.blocks) == {sp.where(ins="Y"), sp.where(ins="N")}
    with pytest.raises(ValueError):
        coordinate_subalgebra(sp, {"nope"})


def test_generated_algebra_edges(insurance):
    sp = insurance.space
    assert generated_algebra(sp, []).blocks == (frozenset(sp.outcomes),)
    a = sp.where(dan="H")
    assert set(generated_algebra(sp, [a]).blocks) == {a, sp.complement(a)}


def test_generated_algebra_danger_generators(insurance):
    sp = insurance.space
    part = generated_algebra(sp, [sp.where(dan="N"), sp.where(dan="L")])
    expected = {
        frozenset(o for o in sp.outcomes if o[0] == level) for level in ("N", "L", "H")
    }
    assert set(part.blocks) == expected


@given(st.data())
def test_generated_algebra_idempotent_and_order_insensitive(data):
    sp = two_by_three()
    outcomes = list(sp.outcomes)
    events = data.draw(
        st.lists(st.sets(st.sampled_from(outcomes)).map(frozenset), min_size=0, max_size=3)
    )
    part = generated_algebra(sp, events)
    assert generated_algebra(sp, events + events) == part
    assert generated_algebra(sp, list(reversed(events))) == part
    regenerated = generated_algebra(sp, list(part.blocks))
    assert part.refines(regenerated) and regenerated.refines(part)


def test_subalgebra_subset_monotone(insurance):
    sp = insurance.space
    ids = sp.ids
    subsets = [frozenset(c) for r in range(len(ids) + 1) for c in combinations(ids, r)]
    for s in subsets:
        for s2 in subsets:
            if s <= s2:
                finer = coordinate_subalgebra(sp, s2)
                coarser = coordinate_subalgebra(sp, s)
                assert finer.refines(coarser)


def test_partition_validation():
    sp = two_by_three()
    o = sp.outcomes
    with pytest.raises(ValueError):
        Partition(sp, (frozenset(o[:3]), frozenset(o[2:])))
    with pytest.raises(ValueError):
        Partition(sp, (frozenset(o[:3]),))
    with pytest.raises(ValueError):
        Partition(sp, (frozenset(o[:3]), frozenset(), frozenset(o[3:])))


def test_partition_canonical_order():
    sp = two_by_three()
    o = sp.outcomes
    p1 = Partition(sp, (frozenset(o[3:]), frozenset(o[:3])))
    p2 = Partition(sp, (frozenset(o[:3]), frozenset(o[3:])))
    assert p1 == p2
    assert p1.blocks[0] == frozenset(o[:3])


def test_partition_block_of_and_measurability():
    sp = two_by_three()
    part = coordinate_subalgebra(sp, {"a"})
    assert part.block_of(("x", "1")) == sp.where(a="x")
    with pytest.raises(ValueError, match=r"^\('z', '1'\) is not an outcome of this space$"):
        part.block_of(("z", "1"))
    assert part.contains_event(sp.where(a="y"))
    assert not part.contains_event(frozenset([("x", "0")]))


@pytest.mark.parametrize("sizes", [(2, 3), (2, 2, 2)], ids=["2x3", "2x2x2"])
def test_cylinder_image_is_the_literal_cylinder_rule(sizes):
    """On every event and coordinate subset: a cylinder holds every outcome that shares a member's cut, and its image is the set of cuts."""
    sp = ProductSpace(tuple(Coordinate(f"c{i}", tuple("xyz"[:k])) for i, k in enumerate(sizes)))
    events = [frozenset(c) for r in range(len(sp) + 1) for c in combinations(sp.outcomes, r)]
    subsets = [frozenset(c) for r in range(len(sp.ids) + 1) for c in combinations(sp.ids, r)]
    cylinders = 0
    for coords in subsets:
        pos = [i for i, cid in enumerate(sp.ids) if cid in coords]

        def cut(o):
            return tuple(o[i] for i in pos)

        assert sp.cylinder_image(frozenset(), coords) == frozenset()
        for a in events:
            closed = all(p in a for o in a for p in sp.outcomes if cut(p) == cut(o))
            assert sp.cylinder_image(a, coords) == (frozenset(map(cut, a)) if closed else None), (coords, sorted(a))
            cylinders += closed
    # a cylinder over S is a union of cuts of Ω_S, so there are 2^|Ω_S| of them
    assert cylinders == sum(2 ** len(sp.subspace(s)) for s in subsets)


SHAPES = pytest.mark.parametrize("sizes", [(2, 3), (2, 2, 2), (3, 2, 3)], ids=["2x3", "2x2x2", "3x2x3"])


def _labelled(sizes):
    return ProductSpace(tuple(Coordinate(f"c{i}", tuple("xyz"[:k])) for i, k in enumerate(sizes)))


def _subsets(sp):
    return [frozenset(c) for r in range(len(sp.ids) + 1) for c in combinations(sp.ids, r)]


def _literal_groups(sp, key):
    """Ω grouped by `key` with no dict: each outcome joins the first group whose key equals its own, or opens a new one."""
    groups = []
    for o in sp.outcomes:
        for k, members in groups:
            if k == key(o):
                members.append(o)
                break
        else:
            groups.append((key(o), [o]))
    return groups


@SHAPES
def test_level_sets_is_the_literal_grouping(sizes):
    """Cut, membership and value keys: the groups in order of their first outcome, each in canonical order."""
    sp = _labelled(sizes)
    rng = random.Random(len(sp))
    keys = [lambda o, pos=[i for i, c in enumerate(sp.ids) if c in s]: tuple(o[i] for i in pos) for s in _subsets(sp)]
    for _ in range(20):
        events = [frozenset(rng.sample(sp.outcomes, rng.randint(0, len(sp)))) for _ in range(rng.randint(0, 3))]
        keys.append(lambda o, events=events: tuple(o in e for e in events))
        values = {o: Fraction(rng.randint(0, 3), rng.randint(1, 2)) for o in sp.outcomes}
        keys.append(values.__getitem__)
    for key in keys:
        assert list(sp.level_sets(key).items()) == _literal_groups(sp, key)


@SHAPES
def test_cylinder_keys_are_the_subspace_outcomes(sizes, monkeypatch):
    """The generators draw one row per cylinder key in this order, so their hash pins rest on it; no subspace is built."""
    sp = _labelled(sizes)
    keys = {coords: sp.subspace(coords).outcomes for coords in _subsets(sp)}
    monkeypatch.setattr(ProductSpace, "subspace", lambda space, coords: pytest.fail("cylinders built a subspace"))
    for coords, outcomes in keys.items():
        pos = [i for i, c in enumerate(sp.ids) if c in coords]
        groups = sp.cylinders(coords)
        assert list(groups) == list(outcomes)
        assert all(groups[key] == [o for o in sp.outcomes if tuple(o[i] for i in pos) == key] for key in groups)


@SHAPES
def test_generated_algebra_is_the_literal_common_refinement(sizes):
    """Split Ω by each generator and its complement in turn; permuted and repeated generators give the same blocks."""
    sp = _labelled(sizes)
    rng = random.Random(sum(sizes))
    for _ in range(30):
        events = [frozenset(rng.sample(sp.outcomes, rng.randint(0, len(sp)))) for _ in range(rng.randint(0, 4))]
        blocks = [frozenset(sp.outcomes)]
        for e in events:
            blocks = [part for b in blocks for part in (b & e, b - e) if part]
        want = sorted(blocks, key=lambda b: min(map(sp.outcome_index.__getitem__, b)))
        shuffled = rng.sample(events, len(events)) + rng.sample(events, rng.randint(0, len(events)))
        for gens in (events, shuffled):
            assert list(generated_algebra(sp, gens).blocks) == want, (events, gens)


def test_cylinder_image_checks_its_members_before_it_counts():
    sp = ProductSpace((Coordinate("c0", ("0", "1")), Coordinate("c1", ("0", "1"))))
    # two members, one cut and two outcomes per cut: the count alone would call this a cylinder over c0
    trap = frozenset({("0", "0"), ("0", "z")})
    with pytest.raises(ValueError, match=r"^\('0', 'z'\) is not an outcome of this space$"):
        sp.cylinder_image(trap, {"c0"})


_STRAYS = """
from fractions import Fraction
from causalspaces.effects import EffectQuery, active_effect_event, classify
from causalspaces.kernels import CausalKernel, CausalSpace
from causalspaces.measure import uniform
from causalspaces.oracle import oracle_effect_brute
from causalspaces.scores import F1, max_effect_score_event
from causalspaces.space import Coordinate, ProductSpace

sp = ProductSpace((Coordinate("x", ("x0", "x1")), Coordinate("y", ("y0", "y1"))))
family = [frozenset("x"), frozenset("y"), frozenset("xy")]
kernels = {s: CausalKernel(sp, s, {k: {o: Fraction(1, len(c)) for o in c} for k, c in sp.cylinders(s).items()}) for s in family}
cs = CausalSpace(sp, uniform(sp), kernels)
subject = frozenset({("x0", "y0"), ("y0",), ("x1",), ("x0", "y2"), ("y1",), ("x0",), ("x1", "y1", "z")})
target = sp.where(y="y0")
calls = [
    lambda: classify(cs, {"x"}, subject, target),
    lambda: active_effect_event(cs, {"x"}, subject, target),
    lambda: oracle_effect_brute(cs, EffectQuery(frozenset("x"), subject, target)),
    lambda: max_effect_score_event(cs, {"x"}, subject, target, F1),
    lambda: sp.event(subject),
    lambda: sp.sort_event(subject),
    lambda: sp.cylinder_image(subject, {"x"}),
]
for call in calls:
    try:
        call()
        print("no error")
    except ValueError as e:
        print(e)
"""


def test_a_stray_subject_member_is_named_the_same_under_every_hash_seed():
    """Engine, oracle, scores and space name the least stray by repr, whatever order the set iterates in."""
    src = str(Path(causalspaces.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    texts = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run([sys.executable, "-c", _STRAYS], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        texts.add(proc.stdout)
    assert len(texts) == 1, texts
    # "('x0', 'y2')" sorts before "('x0',)", since a space sorts before ")"
    assert texts.pop().splitlines() == ["('x0', 'y2') is not an outcome of this space"] * 7


# -- every query entry point checks its outcome subject, target, given event or algebra and score algebra by the space's rules
_CS = uniform_binary_space(3)
_SP = _CS.space
_U, _V = frozenset({"c0"}), frozenset({"c1"})
_OMEGA, _SUBJECT = ("0", "0", "0"), _SP.where(c0="0")  # the subject is a cylinder over U, as the max scores need
_A, _G, _ALGEBRA = _SP.where(c1="0"), _SP.where(c2="1"), coordinate_subalgebra(_SP, {"c2"})
_Q, _QV = uniform(_SP.subspace(_U)), uniform(_SP.subspace(_V))
_STRAY_OUTCOME = ("x", "x", "x")
_STRAY = _G | {_STRAY_OUTCOME}
_FOREIGN = coordinate_subalgebra(uniform_binary_space(2).space, {"c1"})
_BAD = {
    "stray-outcome": ({"s": _STRAY_OUTCOME}, r"^\('x', 'x', 'x'\) is not an outcome of this space$"),
    "stray-target": ({"a": _STRAY}, r"^\('x', 'x', 'x'\) is not an outcome of this space$"),
    "stray-given": ({"g": _STRAY}, r"^\('x', 'x', 'x'\) is not an outcome of this space$"),
    "foreign-target": ({"a": _FOREIGN}, r"^partition lives on a different space$"),
    "foreign-given": ({"g": _FOREIGN}, r"^partition lives on a different space$"),
}
# entry point -> (a call whose keywords `s`, `a` and `g` default to valid inputs, the bad inputs it can take)
_ENTRY_POINTS = {
    "active_effect": (lambda s=_OMEGA, a=_A: active_effect(_CS, _U, s, a), "stray-outcome stray-target"),
    "active_effect_event": (lambda a=_A: active_effect_event(_CS, _U, _SUBJECT, a), "stray-target"),
    "active_effect_on_algebra": (lambda a=_ALGEBRA: active_effect_on_algebra(_CS, _U, _SUBJECT, a), "foreign-target"),
    "classify": (lambda s=_SUBJECT, a=_A: classify(_CS, _U, s, a), "stray-outcome stray-target foreign-target"),
    "conditional_active_effect_event": (
        lambda a=_A, g=_G: conditional_active_effect_event(_CS, _U, _SUBJECT, a, g),
        "stray-target stray-given",
    ),
    "conditional_classify_event": (
        lambda a=_A, g=_G: conditional_classify_event(_CS, _U, _SUBJECT, a, g),
        "stray-target foreign-target stray-given",
    ),
    "conditional_active_effect_algebra": (
        lambda a=_A, g=_ALGEBRA: conditional_active_effect_algebra(_CS, _U, _SUBJECT, a, g),
        "stray-target foreign-given",
    ),
    "conditional_classify_algebra": (
        lambda a=_A, g=_ALGEBRA: conditional_classify_algebra(_CS, _U, _SUBJECT, a, g),
        "stray-target foreign-target foreign-given",
    ),
    "post_intervention_active_effect": (
        lambda a=_A: post_intervention_active_effect(_CS, _U, _V, _SUBJECT, a),
        "stray-target",
    ),
    "post_intervention_classify": (
        lambda a=_A: post_intervention_classify(_CS, _U, _V, _SUBJECT, a),
        "stray-target foreign-target",
    ),
    "has_causal_effect": (lambda s=_OMEGA, a=_A: has_causal_effect(_CS, _U, s, a), "stray-outcome stray-target"),
    "check_lemma1": (lambda a=_A: check_lemma1(_CS, _U, a, _Q), "stray-target"),
    "check_prop2": (lambda a=_A, g=_G: check_prop2(_CS, _U, a, g, _Q), "stray-target stray-given foreign-given"),
    "check_prop3": (lambda s=_OMEGA, a=_A: check_prop3(_CS, _U, _V, s, a, q_on_v=_QV), "stray-outcome stray-target"),
    "mean_effect_score_event": (lambda a=_A: mean_effect_score_event(_CS, _U, _Q, a, F1), "stray-target"),
    "max_effect_score_event": (lambda a=_A: max_effect_score_event(_CS, _U, _SUBJECT, a, F1), "stray-target"),
    "mean_effect_score_algebra": (
        lambda a=_ALGEBRA: mean_effect_score_algebra(_CS, _U, _Q, a, TOTAL_VARIATION),
        "foreign-target",
    ),
    "max_effect_score_algebra": (
        lambda a=_ALGEBRA: max_effect_score_algebra(_CS, _U, _SUBJECT, a, TOTAL_VARIATION),
        "foreign-target",
    ),
}
for _only in (False, True):
    _mode = "run_query-active" if _only else "run_query"
    _ENTRY_POINTS[_mode] = (
        lambda a=_A, g=None, only=_only: run_query(_CS, EffectQuery(_U, _SUBJECT, a, given=g), active_only=only),
        "stray-target foreign-target stray-given foreign-given",
    )
    _ENTRY_POINTS[_mode + "-post"] = (
        lambda a=_A, only=_only: run_query(_CS, EffectQuery(_U, _SUBJECT, a, post=_V), active_only=only),
        "stray-target foreign-target",
    )
_ENTRY_POINTS["oracle_effect_brute"] = (
    lambda s=_SUBJECT, a=_A, g=None: oracle_effect_brute(_CS, EffectQuery(_U, s, a, given=g)),
    "stray-outcome stray-target foreign-target stray-given foreign-given",
)
_ENTRY_POINTS["oracle_effect_brute-post"] = (
    lambda a=_A: oracle_effect_brute(_CS, EffectQuery(_U, _SUBJECT, a, post=_V)),
    "stray-target foreign-target",
)


@pytest.mark.parametrize(
    "entry, bad",
    [(entry, bad) for entry, (_, kinds) in _ENTRY_POINTS.items() for bad in kinds.split()],
    ids=lambda x: x,
)
def test_every_entry_point_refuses_stray_members_and_foreign_partitions(entry, bad):
    call = _ENTRY_POINTS[entry][0]
    call()  # the valid inputs pass
    kwargs, error = _BAD[bad]
    with pytest.raises(ValueError, match=error):
        call(**kwargs)
