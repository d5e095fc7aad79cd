import random

from causalspaces.effects import DORMANT, NO_EFFECT, EffectQuery, EffectTag, run_query
from causalspaces.oracle import oracle_effect_brute

from sweeps import random_effect_query, random_space_stream


def test_oracle_copy_space_fixed_points(copy_space):
    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    assert oracle_effect_brute(copy_space, EffectQuery(frozenset({"c1"}), ("0", "1"), diag)) is DORMANT
    whole = copy_space.space.all_event()
    assert oracle_effect_brute(copy_space, EffectQuery(frozenset({"c1"}), ("0", "1"), whole)) is NO_EFFECT


def test_differential_agreement_quick():
    rng = random.Random(99)
    for trial in range(250):
        cs = random_space_stream(rng, trial)
        query = random_effect_query(rng, cs)
        expected = oracle_effect_brute(cs, query)
        assert run_query(cs, query) == expected, (trial, query)
        assert _active_only_agrees(run_query(cs, query, active_only=True), expected), (trial, query)


def _active_only_agrees(active_only, oracle) -> bool:
    """Active exactly when the oracle is active; undetermined only as the oracle's verdict; else no-effect."""
    if EffectTag.ACTIVE in (active_only.tag, oracle.tag) or active_only.tag is EffectTag.UNDETERMINED:
        return active_only == oracle
    return active_only == NO_EFFECT
