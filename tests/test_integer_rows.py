"""Kernel rows and measures are stored as canonical integer rows and read as Fraction views.

A row is stored once as ``(den, {outcome: numerator})`` in a `Row`;
``kernel.rows[key]`` and ``measure.weights`` build its Fraction table
afresh. These tests compare the stored form with the Fraction tables it was
built from, on families that break the axioms (negative weights, mass
outside Ω, sums other than 1, explicit zeros), and the integer rewrites in
`intervention_kernel`, `marginalize` and the `Measure` constructor with the
Fraction loops they replaced, copied here as references.
"""

import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from causalspaces.document import parse_document
from causalspaces.errors import InvalidMeasureError
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.kernels import (
    CausalKernel,
    CausalSpace,
    InterventionSpec,
    intervention_kernel,
    marginalize,
    subsets_in_order,
)
from causalspaces.measure import Measure, Row, fraction_row, marginal, uniform
from causalspaces.oracle import _mass
from causalspaces.scores import F1, max_effect_score_event
from causalspaces.space import Coordinate, ProductSpace

from sweeps import uniform_binary_space

F = Fraction


def _random_weight(rng: random.Random):
    """A weight as the constructors accept it: a Fraction, an int or a string, sometimes zero or negative."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice([0, F(0), "0", "0/5"])
    if roll < 0.25:
        return -F(rng.randint(1, 6), rng.randint(1, 6))
    if roll < 0.35:
        return rng.randint(1, 2)
    if roll < 0.45:
        return f"{rng.randint(1, 9)}/{rng.randint(1, 12)}"
    return F(rng.randint(1, 9), rng.randint(1, 12))


def _corrupt_table(rng: random.Random, space: ProductSpace, cylinder) -> dict:
    """A row on its cylinder with random weights, sometimes with a cell off the cylinder or outside Ω."""
    table = {o: _random_weight(rng) for o in cylinder if rng.random() < 0.8}
    if rng.random() < 0.2:
        table[rng.choice(space.outcomes)] = _random_weight(rng)
    if rng.random() < 0.15:
        table[("zz",) * len(space.ids)] = _random_weight(rng)
    return table


def _random_family(rng: random.Random):
    """1 to 5 coordinates, a uniform measure, and the full family of corrupt input tables."""
    n = rng.randint(1, 5)
    sizes = [rng.randint(1, 3 if n <= 3 else 2) for _ in range(n)]
    space = ProductSpace(tuple(Coordinate(f"c{i}", tuple(str(j) for j in range(m))) for i, m in enumerate(sizes)))
    tables = {
        s: {key: _corrupt_table(rng, space, cyl) for key, cyl in space.cylinders(s).items()}
        for s in subsets_in_order(space.ids)
        if s
    }
    return space, tables


def _families(count: int, seed: int = 2024):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, *_random_family(rng)


def _as_fractions(table) -> dict:
    """An input table as the Fraction table its view must equal: zeros dropped."""
    out = {tuple(o): F(w) for o, w in table.items()}
    return {o: w for o, w in out.items() if w}


def test_views_equal_their_input_tables_and_each_row_is_canonical():
    for rng, space, tables in _families(60):
        for s, rows in tables.items():
            kernel = CausalKernel(space, s, rows)
            assert set(kernel.rows) == set(rows)
            for key, table in rows.items():
                view = kernel.rows[key]
                assert view == _as_fractions(table)
                assert all(type(w) is Fraction for w in view.values())
                den, nums = kernel.rows[key].den, kernel.rows[key].nums
                assert den == lcm(*(w.denominator for w in view.values()))
                assert gcd(den, *nums.values()) == 1 and 0 not in nums.values()
                assert nums == {o: w.numerator * (den // w.denominator) for o, w in view.items()}


def _spelled(rng: random.Random, w: Fraction) -> str:
    """`w` as a document weight, often not in lowest terms: ``2/4``, ``0.50``, ``-3/6``."""
    if rng.random() < 0.5 and 10**6 % w.denominator == 0:
        millionths = abs(w.numerator) * (10**6 // w.denominator)
        return ("-" if w < 0 else "") + f"{millionths // 10**6}.{millionths % 10**6:06d}"
    k = rng.choice([1, 2, 3, 10])
    return f"{w.numerator * k}/{w.denominator * k}"


def test_parsed_and_generated_rows_are_canonical():
    # the parser and the generator build integer rows from numerators over unreduced denominators
    for rng, space, tables in _families(30):
        data = {
            "coordinates": [{"id": cid, "labels": list(space.coordinate(cid).labels)} for cid in space.ids],
            "measure": {",".join(o): "1" if i == 0 else "0" for i, o in enumerate(space.outcomes)},
            "kernels": {
                ",".join(space.ordered(s)): {
                    ",".join(key): {",".join(o): _spelled(rng, F(w)) for o, w in table.items() if o in space.outcome_index}
                    for key, table in rows.items()
                }
                for s, rows in tables.items()
            },
        }
        doc = parse_document(data)
        for s, rows in tables.items():
            want = {key: {o: w for o, w in table.items() if o in space.outcome_index} for key, table in rows.items()}
            assert doc.kernels[s] == CausalKernel(space, s, want)
            _assert_canonical(doc.kernels[s])
    for seed in range(40):
        for kernel in gen_random_space(GenConfig(seed=seed, max_coords=4)).kernels.values():
            _assert_canonical(kernel)


def test_value_equals_the_oracle_mass_of_the_view():
    for rng, space, tables in _families(40):
        outcomes = list(space.outcomes) + [("zz",) * len(space.ids)]
        for s, rows in tables.items():
            kernel = CausalKernel(space, s, rows)
            for key in rows:
                for _ in range(3):
                    a = frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes))))
                    assert kernel.value(key, a) == _mass(kernel.rows[key], a)


def test_view_equality_agrees_with_fraction_table_equality():
    for rng, space, tables in _families(40):
        for s, rows in tables.items():
            kernel = CausalKernel(space, s, rows)
            # the same tables spelled another way, and a copy with one entry changed
            respelled = {key: {o: str(F(w)) for o, w in table.items()} for key, table in rows.items()}
            changed = {key: dict(table) for key, table in rows.items()}
            key = rng.choice(list(changed))
            cell = rng.choice(list(space.cylinders(s)[key]))
            changed[key][cell] = F(changed[key].get(cell, 0)) + rng.choice([0, F(1, 2), -F(1, 3)])
            for other in (respelled, changed):
                other_kernel = CausalKernel(space, s, other)
                want = {k: _as_fractions(t) for k, t in rows.items()} == {k: _as_fractions(t) for k, t in other.items()}
                assert (kernel.rows == other_kernel.rows) is want
                assert (kernel == other_kernel) is want
                assert (kernel.rows == {k: _as_fractions(t) for k, t in other.items()}) is want


# The Fraction loops the integer rewrites replaced.


def reference_intervention_rows(cs: CausalSpace, spec: InterventionSpec, coords: frozenset) -> dict:
    union = coords | spec.coords
    source = cs.kernel(union)
    mixing = marginal(spec.q, spec.coords - coords)
    sub = cs.space.subspace(coords)
    at = {cid: i for i, cid in enumerate(sub.ids + mixing.space.ids)}
    take = tuple(at[cid] for cid in cs.space.ordered(union))
    rows = {}
    for key in sub.outcomes:
        table = {}
        for extra, q in mixing.weights.items():
            source_key = tuple(map((key + extra).__getitem__, take))
            for o, w in source.rows[source_key].items():
                if o in table:
                    table[o] += q * w
                else:
                    table[o] = q * w
        rows[key] = {o: w for o, w in table.items() if w}
    return rows


def reference_marginal_rows(kernel: CausalKernel, pos) -> dict:
    rows = {}
    for key, table in kernel.rows.items():
        small = {}
        for o, w in table.items():
            small_o = tuple(map(o.__getitem__, pos))
            if small_o in small:
                small[small_o] += w
            else:
                small[small_o] = w
        rows[key] = {o: w for o, w in small.items() if w}
    return rows


def _random_mixing(rng: random.Random, sub: ProductSpace) -> Measure:
    raw = [rng.choice([0, 1, 2, 3, 7]) for _ in sub.outcomes]
    raw[rng.randrange(len(raw))] += 1
    return Measure(sub, {o: F(w, sum(raw)) for o, w in zip(sub.outcomes, raw) if w})


def _assert_canonical(kernel: CausalKernel):
    for den, nums in ((r.den, r.nums) for r in kernel.rows.values()):
        assert den > 0 and gcd(den, *nums.values()) == 1 and 0 not in nums.values()


def test_integer_intervention_and_marginalization_equal_the_fraction_loops():
    for rng, space, tables in _families(40):
        cs = CausalSpace(space, uniform(space), {s: CausalKernel(space, s, rows) for s, rows in tables.items()})
        u = frozenset(rng.sample(space.ids, rng.randint(1, len(space.ids))))
        spec = InterventionSpec(u, _random_mixing(rng, space.subspace(u)))
        for s in subsets_in_order(space.ids):
            derived = intervention_kernel(cs, spec, s)
            assert derived.rows == reference_intervention_rows(cs, spec, s)
            _assert_canonical(derived)
        keep = frozenset(rng.sample(space.ids, rng.randint(1, len(space.ids))))
        small = marginalize(cs, keep)
        pos = space.positions(keep)
        for s, kernel in small.kernels.items():
            assert kernel.rows == reference_marginal_rows(cs.kernels[s], pos)
            _assert_canonical(kernel)


def test_integer_rows_take_less_memory_than_fraction_tables_and_views_cache_nothing():
    # the full family on 7 binary coordinates holds 4**7 = 16,384 kernel entries
    space = uniform_binary_space(7).space
    cylinders = {s: space.cylinders(s) for s in subsets_in_order(space.ids) if s}
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tables = {
            s: {key: {o: F(1, len(cyl)) for o in cyl} for key, cyl in cyls.items()} for s, cyls in cylinders.items()
        }
        built = tracemalloc.get_traced_memory()[0]
        kernels = {s: CausalKernel(space, s, rows) for s, rows in tables.items()}
        stored = tracemalloc.get_traced_memory()[0]
        assert stored - built < built - start
        del tables
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for kernel in kernels.values():
            for key in kernel.rows:
                kernel.rows[key]
            assert sum(len(t) for t in kernel.rows.values()) == len(space)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        assert after - before <= 64 * 1024
    finally:
        tracemalloc.stop()


# `Measure.__post_init__` before a measure stored only its integer row, copied as the reference.


def reference_measure_table(space: ProductSpace, weights) -> dict:
    """The measure's checked Fraction table, zeros dropped, or the InvalidMeasureError it raised."""
    index = space.outcome_index
    table = {}
    for o, w in weights.items():
        o = tuple(o)
        if o not in index:
            raise InvalidMeasureError(f"{o!r} is not an outcome of the space")
        w = w if isinstance(w, Fraction) else Fraction(w)
        if w < 0:
            raise InvalidMeasureError(f"negative weight {w} at {o!r}")
        if w:
            table[o] = w
    row = fraction_row(table)
    den, nums = row.den, row.nums
    total = sum(nums.values())
    if total != den:
        raise InvalidMeasureError(f"weights sum to {Fraction(total, den)}, expected exactly 1")
    return table


def _outcome(build):
    """(result, None), or (None, the text of the InvalidMeasureError that `build` raised)."""
    try:
        return build(), None
    except InvalidMeasureError as exc:
        return None, str(exc)


def _measure_table(rng: random.Random, space: ProductSpace) -> dict:
    """A table on Ω, half the time a probability table with at most one fault: a negative or rescaled weight, or mass outside Ω."""
    table = {o: _random_weight(rng) for o in space.outcomes if rng.random() < 0.8}
    if rng.random() < 0.5:
        return table
    table = {o: abs(F(w)) for o, w in table.items()}
    total = sum(table.values(), F(0))
    if total:
        table = {o: w / total for o, w in table.items()}
    roll = rng.random()
    if table and roll < 0.2:
        o = rng.choice(list(table))
        table[o] = -table[o] or F(-1)
    elif table and roll < 0.4:
        o = rng.choice(list(table))
        table[o] *= 2
    elif roll < 0.6:
        # nonzero, since a row, like a kernel's stored rows, drops zero entries
        table[("zz",) * len(space.ids)] = F(1, 3)
    return table


def _error_kind(text):
    if text is None:
        return None
    return "outside" if "not an outcome" in text else text.split()[0]


def test_measures_from_tables_and_from_rows_match_the_reference():
    kinds = Counter()
    for rng, space, _ in _families(60):
        for _ in range(10):
            table = _measure_table(rng, space)
            want, want_err = _outcome(lambda: reference_measure_table(space, table))
            kinds[_error_kind(want_err)] += 1
            for weights in (table, fraction_row(table)):
                got, err = _outcome(lambda: Measure(space, weights))
                assert err == want_err
                if want is not None:
                    assert got.weights == want and (got.weights.den, got.weights.nums) == (fraction_row(want).den, fraction_row(want).nums)
                    assert isinstance(got.weights, Row)
    assert set(kinds) == {None, "negative", "weights", "outside"}


def test_kernel_rows_promote_to_measures_with_the_reference_error():
    for rng, space, tables in _families(40):
        for s, rows in tables.items():
            kernel = CausalKernel(space, s, rows)
            # the stored rows drop zero entries, as the Fraction views the reference read did
            wants = {key: _outcome(lambda: reference_measure_table(space, _as_fractions(rows[key]))) for key in rows}
            for key, (want, want_err) in wants.items():
                got, err = _outcome(lambda: kernel.row(key))
                assert err == want_err
                if want is not None:
                    assert got.weights == want and got.weights is kernel.rows[key]
            # the maximum score promotes each distinct row in canonical key order and stops at the first fault
            cs = CausalSpace(space, uniform(space), {s: kernel})
            first_err = next((e for key in space.subspace(s).outcomes if (e := wants[key][1])), None)
            _, err = _outcome(lambda: max_effect_score_event(cs, s, space.all_event(), frozenset(space.outcomes[:1]), F1))
            assert err == first_err


@pytest.mark.parametrize("seed", range(5))
def test_the_kernel_on_the_empty_subset_holds_the_measure_row(seed):
    cs = gen_random_space(GenConfig(seed=seed, max_coords=3))
    assert cs.kernel(()).rows[()] is cs.observational.weights
    assert cs.kernel(()).row(()) == cs.observational
