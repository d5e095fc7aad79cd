import hashlib
from fractions import Fraction

import pytest

from causalspaces.document import document_from_space, dumps_document
from causalspaces.effects import DORMANT, active_effect, post_intervention_active_effect
from causalspaces.generators import (
    GenConfig,
    gen_dormant_space,
    gen_null_effect_space,
    gen_random_space,
    gen_screened_space,
)
from causalspaces.kernels import InterventionSpec, intervention_measure, validate
from causalspaces.measure import Measure, independent, marginal, uniform
from causalspaces.space import coordinate_subalgebra

F = Fraction


def test_config_bounds():
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_coords=0)
    with pytest.raises(ValueError):
        GenConfig(seed=0, kernel_mode="some")


def test_determinism_same_seed():
    a = gen_random_space(GenConfig(seed=42))
    b = gen_random_space(GenConfig(seed=42))
    assert a.same_as(b)
    assert not a.same_as(gen_random_space(GenConfig(seed=43)))


def test_partial_mode_subsets():
    cs = gen_random_space(GenConfig(seed=4, kernel_mode="partial"))
    assert set(cs.kernel_subsets()) <= {s for s in cs.kernel_subsets()}
    assert validate(cs) == []


def test_every_generated_space_is_valid_large_sweep():
    # the generator's core contract, swept across ten thousand seeds
    for seed in range(10_000):
        assert validate(gen_random_space(GenConfig(seed=seed))) == []


def test_generated_kernels_direct_support_scan():
    # independent of validate(): scan raw tables for mass outside each row's cylinder
    for seed in range(100):
        cs = gen_random_space(GenConfig(seed=seed, max_coords=2))
        for coords in cs.kernel_subsets():
            kernel = cs.kernel(coords)
            for key, table in kernel.rows.items():
                for o, w in table.items():
                    assert w > 0
                    assert cs.space.restrict(o, coords) == key


def test_null_effect_space_premise_exhaustive():
    for seed in range(25):
        ns = gen_null_effect_space(GenConfig(seed=seed), {"c0"})
        assert validate(ns) == []
        rest = set(ns.space.ids) - {"c0"}
        algebra = coordinate_subalgebra(ns.space, rest)
        unions = [frozenset()]
        for block in algebra.blocks:
            unions += [u | block for u in unions]
        for a in unions:
            for omega in ns.space.outcomes:
                assert not active_effect(ns, {"c0"}, omega, a)


def test_null_effect_space_mixture_is_product():
    ns = gen_null_effect_space(GenConfig(seed=7), {"c0"})
    rest = sorted(set(ns.space.ids) - {"c0"})
    q = uniform(ns.space.subspace({"c0"}))
    pdo = intervention_measure(ns, InterventionSpec(frozenset({"c0"}), q))
    mu = marginal(ns.observational, rest)
    expected = {}
    for key, qw in q.weights.items():
        for tail, mw in mu.weights.items():
            cell = {**dict(zip(ns.space.subspace({"c0"}).ids, key)), **dict(zip(mu.space.ids, tail))}
            o = tuple(cell[cid] for cid in ns.space.ids)
            expected[o] = qw * mw
    assert pdo == Measure(ns.space, expected)
    hu = coordinate_subalgebra(ns.space, {"c0"})
    for block in coordinate_subalgebra(ns.space, set(rest)).blocks:
        assert independent(pdo, block, hu)


def test_null_effect_space_rejects_bad_subsets():
    with pytest.raises(ValueError):
        gen_null_effect_space(GenConfig(seed=0), set())
    with pytest.raises(ValueError):
        gen_null_effect_space(GenConfig(seed=0), {"c0", "c1", "c2", "c9"})
    with pytest.raises(ValueError):
        gen_null_effect_space(GenConfig(seed=0, max_coords=1), {"c0"})


def test_dormant_space_shape(copy_space):
    assert validate(copy_space) == []
    assert copy_space.observational.weights == {("0", "0"): F(1, 2), ("1", "1"): F(1, 2)}
    from causalspaces.effects import classify

    diag = copy_space.space.event([("0", "0"), ("1", "1")])
    assert classify(copy_space, {"c1"}, ("0", "1"), diag) is DORMANT
    assert gen_dormant_space().same_as(copy_space)


def test_screened_space_premise():
    for seed in range(20):
        sc = gen_screened_space(GenConfig(seed=seed))
        assert validate(sc) == []
        h2 = coordinate_subalgebra(sc.space, {"c2"})
        unions = [frozenset()]
        for block in h2.blocks:
            unions += [u | block for u in unions]
        for a in unions:
            for omega in sc.space.outcomes:
                assert not post_intervention_active_effect(sc, {"c1"}, {"c2"}, omega, a)


# SHA-256 of dumps_document(document_from_space(...)) for each generator call.
# A seed names one space, so the order in which the generators draw from the
# seeded RNG is part of their contract: every hash must hold.
RANDOM_PINS = [  # (seed, max_coords, max_labels, kernel_mode, sha256)
    (307, 5, 2, "full", "a8ed4aaa485e8a3fe83a4c79f2aba8894c2bbba20d17ddac835b008212c01171"),
    (351, 5, 2, "partial", "1527f4a7b5b7f06c0d7ff8ddb33d419b6b05292543fcf981d8d31b2f3f9c2843"),
    (1831, 5, 3, "full", "b8d8f442f293fd267581e9db12cf71b3ea36a6fd11d1031ae766ac25ef5630e1"),
    (5290, 5, 3, "partial", "6b8097005c09d64858161339fd3aa7a091bd2f31c7cfe404e0031fcefb9e29d3"),
    (92, 4, 3, "full", "74c03715e2f85f271bf1ef91fc87c0cede8e748bf693c2db3652233e4d69a4c3"),
    (446, 4, 3, "partial", "ee84f4eedfeefbd70bf41c45834852076aaa8c50f2167ee506c7a3917cfc9f0f"),
    (5, 5, 2, "full", "77fd47d37a70831b0d317fc4aa740d07c71d41f4f02604545b82d213bf431c0a"),
    (5, 5, 2, "partial", "72790b6e51fe919ec9b46d0a8f8c3231ea24a662bf48547943d06fdb641a0ba6"),
    (5, 5, 3, "partial", "00fb5c97f34976fe0cdfac204ac3117fb21a63f069fa1d60ea3fbc32eff97abc"),
    (10, 5, 3, "partial", "a70f74e99a0161573a69d5fd29016ee28671245e29104eef835787573e944e70"),
    (11, 4, 3, "full", "b07e88e6a181a0895ac26be4fa7e371c257eb405c61f208ac03b854838a63bd2"),
    (8, 5, 2, "partial", "07ae9789850b2f37943d2c92295b17c757c6075efb114ce1d957791dfaf87b8f"),
    (2, 5, 2, "full", "7a26b680b3556a398c38fbbeae7bfc59976fa4a1d94b7cb4dd76ec63fe3eb204"),
    (3, 4, 3, "full", "a1589fb6ccbc490358a02580d81d6499212433ca82a95af82b8544ba3ccb7230"),
]
NULL_EFFECT_PINS = [  # (seed, max_coords, max_labels, intervened coords, sha256)
    (0, 4, 3, ("c0",), "2e9cce35b1fc127d40d7cf7baf01a22cbf19ee65282260292d1dd38b61b4d80b"),
    (0, 4, 3, ("c0", "c2"), "21f5aef39a542f853213be22f6c1888d8e3ca8c88174300670b3b9c6deb27642"),
    (1, 4, 3, ("c1",), "6e45c2dd60c1d375b571501050e2145efc5b6429d54f391db276b039449cb0d3"),
    (11, 5, 3, ("c1", "c3"), "081cc5abc68af29847ec5ed2c17e6f662b503feb087012ee390e3f1c1fd4310f"),
    (12, 5, 3, ("c0", "c1", "c4"), "e90f107991a07d1a7a5ac67cfe35628259ce5e49671650edbb16a6e629c30e92"),
    (16, 5, 2, ("c2",), "3e68e81674cf2f00403d0b583bf13ff319e29a46e3aed992238c460dd0b6ecec"),
    (0, 5, 3, ("c0", "c1", "c2", "c3"), "81aa4ac66ab35490f723a4b29a9d92224f7b876ff52d82b50a4c6aadfec20729"),
]
SCREENED_PINS = [  # (seed, max_labels, sha256)
    (0, 3, "434240e85d4fde67617d0d730510cd585ebb26c7449cc657dd2c65b569ee45ff"),
    (1, 3, "2df5af3d81faaa2a295700a211d0e9074e7f91cc9d2d62f7ed3e813b58af9c16"),
    (2, 2, "fd512b550055c51f542cadeec911ca9db2410d1b3c381a183a69a64746f7172b"),
    (7, 4, "af97a561a021daae7d506d5504405aecb7111176de5f6747511e590d0bcc5df5"),
]


def _digest(cs) -> str:
    return hashlib.sha256(dumps_document(document_from_space(cs)).encode()).hexdigest()


@pytest.mark.parametrize("seed, max_coords, max_labels, mode, digest", RANDOM_PINS)
def test_random_space_output_pinned(seed, max_coords, max_labels, mode, digest):
    cfg = GenConfig(seed=seed, max_coords=max_coords, max_labels=max_labels, kernel_mode=mode)
    assert _digest(gen_random_space(cfg)) == digest


@pytest.mark.parametrize("seed, max_coords, max_labels, coords, digest", NULL_EFFECT_PINS)
def test_null_effect_space_output_pinned(seed, max_coords, max_labels, coords, digest):
    cfg = GenConfig(seed=seed, max_coords=max_coords, max_labels=max_labels)
    assert _digest(gen_null_effect_space(cfg, coords)) == digest


@pytest.mark.parametrize("seed, max_labels, digest", SCREENED_PINS)
def test_screened_space_output_pinned(seed, max_labels, digest):
    assert _digest(gen_screened_space(GenConfig(seed=seed, max_labels=max_labels))) == digest
