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
from .measure import Measure
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


def _random_table(rng: random.Random, outcomes, bound: int) -> dict[Outcome, Fraction]:
    raw = [0 if rng.random() < 0.25 else rng.randint(1, bound) for _ in outcomes]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return {o: Fraction(w, total) for o, w in zip(outcomes, raw) if w}


def _random_space(rng: random.Random, cfg: GenConfig, min_coords: int = 1) -> ProductSpace:
    n = rng.randint(min_coords, cfg.max_coords)
    coords = []
    for i in range(n):
        m = rng.randint(1, cfg.max_labels)
        coords.append(Coordinate(f"c{i}", tuple(str(j) for j in range(m)), tuple(Fraction(j) for j in range(m))))
    return ProductSpace(tuple(coords))


def _random_kernel(rng: random.Random, space: ProductSpace, coords: frozenset, bound: int) -> CausalKernel:
    rows = {key: _random_table(rng, support, bound) for key, support in space.cylinders(coords).items()}
    return CausalKernel(space, coords, rows)


def gen_random_space(cfg: GenConfig) -> CausalSpace:
    """A valid random causal space; full mode carries kernels for every subset."""
    rng = random.Random(cfg.seed)
    space = _random_space(rng, cfg)
    p = Measure(space, _random_table(rng, space.outcomes, cfg.denominator_bound))
    kernels = {}
    for s in subsets_in_order(space.ids):
        if not s:
            continue
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
    coords = frozenset(coords)
    if not coords or not coords < set(space.ids):
        raise ValueError(f"coords must be a nonempty proper subset of {space.ids}")
    rest = frozenset(space.ids) - coords
    on_coords = _random_table(rng, space.subspace(coords).outcomes, cfg.denominator_bound)
    on_rest = _random_table(rng, space.subspace(rest).outcomes, cfg.denominator_bound)

    def product_weight(o: Outcome, left: dict) -> Fraction:
        return left.get(space.restrict(o, coords), Fraction(0)) * on_rest.get(space.restrict(o, rest), Fraction(0))

    p = Measure(space, {o: w for o in space.outcomes if (w := product_weight(o, on_coords))})
    rows = {}
    for key, cylinder in space.cylinders(coords).items():
        point = {key: Fraction(1)}
        rows[key] = {o: w for o in cylinder if (w := product_weight(o, point))}
    kernel = CausalKernel(space, coords, rows)
    return CausalSpace(space, p, {coords: kernel})


def gen_dormant_space() -> CausalSpace:
    """The fixed two-coordinate copy construction exhibiting a dormant effect.

    Both coordinates are binary; the observational measure is uniform on the
    diagonal. Intervening on the first coordinate copies it onto the second,
    so it cannot move the probability of the diagonal, yet jointly intervening
    on both coordinates can: a causal effect with no active trace.
    """
    c1 = Coordinate("c1", ("0", "1"), (Fraction(0), Fraction(1)))
    c2 = Coordinate("c2", ("0", "1"), (Fraction(0), Fraction(1)))
    space = ProductSpace((c1, c2))
    half = Fraction(1, 2)
    p = Measure(space, {("0", "0"): half, ("1", "1"): half})
    copy_rows = {(a,): {(a, a): Fraction(1)} for a in "01"}
    keep_rows = {(b,): {("0", b): half, ("1", b): half} for b in "01"}
    joint_rows = {(a, b): {(a, b): Fraction(1)} for a in "01" for b in "01"}
    return CausalSpace(
        space,
        p,
        {
            frozenset({"c1"}): CausalKernel(space, frozenset({"c1"}), copy_rows),
            frozenset({"c2"}): CausalKernel(space, frozenset({"c2"}), keep_rows),
            frozenset({"c1", "c2"}): CausalKernel(space, frozenset({"c1", "c2"}), joint_rows),
        },
    )


def gen_screened_space(cfg: GenConfig) -> CausalSpace:
    """A seeded two-coordinate variant of the copy construction.

    The kernel on ``c2`` ignores ``c1`` interventions (it redraws ``c1`` from
    a fixed measure) and the joint kernel is a point mass, so for every event
    over ``c2`` the first coordinate has no active effect once ``c2`` has been
    intervened on. Used to exercise the post-intervention results with
    nondegenerate numbers.
    """
    rng = random.Random(cfg.seed)
    m1 = rng.randint(2, max(2, cfg.max_labels))
    m2 = rng.randint(2, max(2, cfg.max_labels))
    coords = tuple(
        Coordinate(f"c{i + 1}", tuple(str(j) for j in range(m)), tuple(Fraction(j) for j in range(m)))
        for i, m in enumerate((m1, m2))
    )
    space = ProductSpace(coords)
    bound = cfg.denominator_bound
    p = Measure(space, _random_table(rng, space.outcomes, bound))
    redraw = _random_table(rng, space.subspace({"c1"}).outcomes, bound)
    keep_rows = {
        (b,): {(a, b): w for (a,), w in redraw.items()}
        for b in coords[1].labels
    }
    first_rows = {}
    for a in coords[0].labels:
        downstream = _random_table(rng, space.subspace({"c2"}).outcomes, bound)
        first_rows[(a,)] = {(a, b): w for (b,), w in downstream.items()}
    joint_rows = {(a, b): {(a, b): Fraction(1)} for a in coords[0].labels for b in coords[1].labels}
    return CausalSpace(
        space,
        p,
        {
            frozenset({"c1"}): CausalKernel(space, frozenset({"c1"}), first_rows),
            frozenset({"c2"}): CausalKernel(space, frozenset({"c2"}), keep_rows),
            frozenset({"c1", "c2"}): CausalKernel(space, frozenset({"c1", "c2"}), joint_rows),
        },
    )
