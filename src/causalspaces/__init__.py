"""Causal spaces over finite product outcome spaces, with exact arithmetic.

Causal kernels and interventions, the no/active/dormant causal-effect
trichotomy with conditional and post-intervention variants, quantifying
effect scores, marginal causal spaces, seeded generators with an independent
brute-force oracle, and a JSON document format with a CLI (``cee``).

Every public name is importable from the package. The data model (``errors``,
``space``, ``measure``, ``kernels``, ``generators``) loads with it; the query
engines (``effects``, ``scores``, ``oracle``) load on first use of one of
their names, so a ``cee`` request that runs no verdict or score never
compiles them.
"""

from importlib import import_module as _import_module

from .errors import (
    BlockCountExceededError,
    CausalSpacesError,
    DocumentError,
    EmptySubjectError,
    InvalidMeasureError,
    KernelMissingError,
    MissingNumericVariableError,
    NonBinaryTreatmentError,
    PremiseNotMetError,
)
from .generators import GenConfig, gen_dormant_space, gen_null_effect_space, gen_random_space, gen_screened_space
from .kernels import (
    CausalKernel,
    CausalSpace,
    InterventionSpec,
    Violation,
    intervene,
    intervention_kernel,
    intervention_measure,
    is_marginalization_of,
    marginalize,
    subsets_in_order,
    validate,
)
from .measure import (
    Measure,
    RandomVariable,
    cond_independent,
    condition_on_algebra,
    condition_on_event,
    delta,
    independent,
    marginal,
    mean_and_variance,
    mutually_abs_continuous_on,
    uniform,
)
from .space import (
    Coordinate,
    Event,
    Outcome,
    Partition,
    ProductSpace,
    coordinate_subalgebra,
    generated_algebra,
)

__version__ = "0.1.0"

# every public name of the query engines, and the engines themselves, by defining module
_LAZY = {
    name: module
    for module, names in (
        (
            "effects",
            (
                "ACTIVE",
                "DORMANT",
                "NO_EFFECT",
                "EffectQuery",
                "EffectTag",
                "EffectVerdict",
                "active_effect",
                "active_effect_event",
                "active_effect_on_algebra",
                "check_lemma1",
                "check_prop2",
                "check_prop3",
                "classify",
                "conditional_active_effect_algebra",
                "conditional_active_effect_event",
                "conditional_classify_algebra",
                "conditional_classify_event",
                "has_causal_effect",
                "post_intervention_active_effect",
                "post_intervention_classify",
                "run_query",
            ),
        ),
        (
            "scores",
            (
                "F1",
                "F2",
                "MEAN_AND_VARIANCE_DIFF",
                "MEAN_DIFF",
                "TOTAL_VARIATION",
                "VARIANCE_DIFF",
                "DifferenceFunctional",
                "EffectScore",
                "ScaleFunction",
                "ate",
                "builtin_difference_functionals",
                "max_effect_score_algebra",
                "max_effect_score_event",
                "mean_effect_score_algebra",
                "mean_effect_score_event",
                "scale_f1",
                "scale_f2",
            ),
        ),
        ("oracle", ("oracle_effect_brute",)),
    )
    for name in (module, *names)
}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    """Load the engine that defines `name` and bind the name here, so later lookups skip this hook."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
