"""Deterministic generators of valid causal spaces and adversarial constructions.

Everything here is a pure function of its seed and bounds, so sweeps are
reproducible and parallelizable. Generated weights are rationals with small
raw numerators; each cell is zeroed with probability 1/4 so that degenerate
(zero-measure) regions are common enough to exercise the undetermined paths.

Coordinate ids are ``c0, c1, ...`` and labels are ``0, 1, ...`` with matching
numeric values, so any generated coordinate can serve as a treatment or a
numeric outcome.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .kernels import CausalKernel, CausalSpace, subsets_in_order
from .measure import Measure, Row
from .space import Coordinate, Outcome, ProductSpace


@dataclass(frozen=True)
class GenConfig:
    """Bounds and mode for the random-space generator."""

    seed: int
    max_coords: int = 3
    max_labels: int = 3
    kernel_mode: str = "full"  # "full" | "partial"
    denominator_bound: int = 32

    def __post_init__(self):
        if self.max_coords < 1 or self.max_labels < 1 or self.denominator_bound < 1:
            raise ValueError("generator bounds must be at least 1")
        if self.kernel_mode not in ("full", "partial"):
            raise ValueError("kernel_mode must be 'full' or 'partial'")


def _random_row(rng: random.Random, outcomes, bound: int) -> Row:
    """A random row: small raw numerators over their total."""
    raw = [0 if rng.random() < 0.25 else rng.randint(1, bound) for _ in outcomes]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    return Row(sum(raw), dict(zip(outcomes, raw)))


def _coordinate(cid: str, m: int) -> Coordinate:
    """A coordinate labelled ``0, ..., m-1`` with matching numeric values."""
    return Coordinate(cid, tuple(str(j) for j in range(m)), tuple(Fraction(j) for j in range(m)))


def _random_space(rng: random.Random, cfg: GenConfig, min_coords: int = 1) -> ProductSpace:
    n = rng.randint(min_coords, cfg.max_coords)
    return ProductSpace(tuple(_coordinate(f"c{i}", rng.randint(1, cfg.max_labels)) for i in range(n)))


def _random_kernel(rng: random.Random, space: ProductSpace, coords: frozenset, bound: int) -> CausalKernel:
    rows = {key: _random_row(rng, support, bound) for key, support in space.cylinders(coords).items()}
    return CausalKernel(space, coords, rows)


def gen_random_space(cfg: GenConfig) -> CausalSpace:
    """A valid random causal space; full mode carries kernels for every subset."""
    rng = random.Random(cfg.seed)
    space = _random_space(rng, cfg)
    p = Measure(space, _random_row(rng, space.outcomes, cfg.denominator_bound))
    kernels = {}
    for s in subsets_in_order(space.ids)[1:]:  # the empty-subset kernel is the measure
        if cfg.kernel_mode == "partial" and rng.random() < 0.5:
            continue
        kernels[s] = _random_kernel(rng, space, s, cfg.denominator_bound)
    return CausalSpace(space, p, kernels)


def gen_null_effect_space(cfg: GenConfig, coords: Iterable[str]) -> CausalSpace:
    """A space where no outcome has an active effect on the untouched coordinates.

    The kernel on `coords` factors as a point mass on the intervened part
    times a fixed measure on the rest, and the observational measure is the
    matching product, so the kernel leaves every event over the remaining
    coordinates at its observational probability. Only that one kernel is
    supplied. `coords` must be a nonempty proper subset of the generated ids
    (``c0``, ``c1``, ...; at least two coordinates are always generated).
    """
    if cfg.max_coords < 2:
        raise ValueError("a null-effect space needs at least two coordinates")
    rng = random.Random(cfg.seed)
    space = _random_space(rng, cfg, min_coords=2)
    coords = space.check_subset(coords)
    if not coords or coords == set(space.ids):
        raise ValueError(f"coords must be a nonempty proper subset of {space.ids}")
    rest = frozenset(space.ids) - coords
    on_coords = _random_row(rng, space.subspace(coords).outcomes, cfg.denominator_bound)
    on_rest = _random_row(rng, space.subspace(rest).outcomes, cfg.denominator_bound)

    def product_numerator(o: Outcome, left: dict) -> int:
        return left.get(space.restrict(o, coords), 0) * on_rest.nums.get(space.restrict(o, rest), 0)

    p = Measure(space, Row(on_coords.den * on_rest.den, {o: product_numerator(o, on_coords.nums) for o in space.outcomes}))
    rows = {
        key: Row(on_rest.den, {o: product_numerator(o, {key: 1}) for o in cylinder})
        for key, cylinder in space.cylinders(coords).items()
    }
    kernel = CausalKernel(space, coords, rows)
    return CausalSpace(space, p, {coords: kernel})


def gen_dormant_space() -> CausalSpace:
    """The fixed two-coordinate copy construction exhibiting a dormant effect.

    Both coordinates are binary; the observational measure is uniform on the
    diagonal. Intervening on the first coordinate copies it onto the second,
    so it cannot move the probability of the diagonal, yet jointly intervening
    on both coordinates can: a causal effect with no active trace.
    """
    space = ProductSpace((_coordinate("c1", 2), _coordinate("c2", 2)))
    p = Measure(space, Row(2, {("0", "0"): 1, ("1", "1"): 1}))
    copy_rows = {(a,): Row(1, {(a, a): 1}) for a in "01"}
    keep_rows = {(b,): Row(2, {("0", b): 1, ("1", b): 1}) for b in "01"}
    return _copy_family(space, p, copy_rows, keep_rows)


def gen_screened_space(cfg: GenConfig) -> CausalSpace:
    """A seeded two-coordinate variant of the copy construction.

    The kernel on ``c2`` ignores ``c1`` interventions (it redraws ``c1`` from
    a fixed measure) and the joint kernel is a point mass, so for every event
    over ``c2`` the first coordinate has no active effect once ``c2`` has been
    intervened on. Used to exercise the post-intervention results with
    nondegenerate numbers.
    """
    rng = random.Random(cfg.seed)
    space = ProductSpace(tuple(_coordinate(f"c{i}", rng.randint(2, max(2, cfg.max_labels))) for i in (1, 2)))
    bound = cfg.denominator_bound
    p = Measure(space, _random_row(rng, space.outcomes, bound))
    redraw = _random_row(rng, space.subspace({"c1"}).outcomes, bound)
    keep_rows = {
        (b,): Row(redraw.den, {(a, b): n for (a,), n in redraw.nums.items()})
        for b in space.coordinate("c2").labels
    }
    first_rows = {}
    for a in space.coordinate("c1").labels:
        downstream = _random_row(rng, space.subspace({"c2"}).outcomes, bound)
        first_rows[(a,)] = Row(downstream.den, {(a, b): n for (b,), n in downstream.nums.items()})
    return _copy_family(space, p, first_rows, keep_rows)


def _copy_family(space: ProductSpace, p: Measure, first_rows: dict, keep_rows: dict) -> CausalSpace:
    """The two-coordinate family: the given kernels on ``c1`` and ``c2``, point masses on the pair."""
    joint_rows = {o: Row(1, {o: 1}) for o in space.outcomes}
    family = {("c1",): first_rows, ("c2",): keep_rows, ("c1", "c2"): joint_rows}
    return CausalSpace(space, p, {frozenset(s): CausalKernel(space, frozenset(s), rows) for s, rows in family.items()})
