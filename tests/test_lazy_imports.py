"""The package loads its query engines on first use.

`import causalspaces` loads the data model (errors, space, measure, kernels,
generators); `effects`, `scores` and `oracle` load when one of their names is
first read, which binds the name in the package, so later reads are plain
attribute hits. The subcommand checks run in a fresh interpreter, because this
one has already imported every module.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import causalspaces

ROOT = Path(__file__).resolve().parent.parent
INSURANCE = str(ROOT / "fixtures" / "insurance.json")
ENGINES = {"effects", "scores", "oracle"}

# the public names as they were when every engine loaded with the package; the
# submodule names among them were exported as a side effect of the imports
PUBLIC = [
    "ACTIVE", "BlockCountExceededError", "CausalKernel", "CausalSpace", "CausalSpacesError", "Coordinate",
    "DORMANT", "DifferenceFunctional", "DocumentError", "EffectQuery", "EffectScore", "EffectTag",
    "EffectVerdict", "EmptySubjectError", "Event", "F1", "F2", "GenConfig", "InterventionSpec",
    "InvalidMeasureError", "KernelMissingError", "MEAN_AND_VARIANCE_DIFF", "MEAN_DIFF", "Measure",
    "MissingNumericVariableError", "NO_EFFECT", "NonBinaryTreatmentError", "Outcome", "Partition",
    "PremiseNotMetError", "ProductSpace", "RandomVariable", "ScaleFunction", "TOTAL_VARIATION",
    "VARIANCE_DIFF", "Violation", "active_effect", "active_effect_event", "active_effect_on_algebra", "ate",
    "builtin_difference_functionals", "check_lemma1", "check_prop2", "check_prop3", "classify",
    "cond_independent", "condition_on_algebra", "condition_on_event", "conditional_active_effect_algebra",
    "conditional_active_effect_event", "conditional_classify_algebra", "conditional_classify_event",
    "coordinate_subalgebra", "delta", "effects", "errors", "gen_dormant_space", "gen_null_effect_space",
    "gen_random_space", "gen_screened_space", "generated_algebra", "generators", "has_causal_effect",
    "independent", "intervene", "intervention_kernel", "intervention_measure", "is_marginalization_of",
    "kernels", "marginal", "marginalize", "max_effect_score_algebra", "max_effect_score_event",
    "mean_and_variance", "mean_effect_score_algebra", "mean_effect_score_event", "measure",
    "mutually_abs_continuous_on", "oracle", "oracle_effect_brute", "post_intervention_active_effect",
    "post_intervention_classify", "run_query", "scale_f1", "scale_f2", "scores", "space", "subsets_in_order",
    "uniform", "validate",
]

# runs `cee` with the given arguments, then prints its exit code and the package modules it loaded
_PROBE = """
import contextlib, io, json, sys
from causalspaces.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("causalspaces."))]))
"""


@pytest.mark.parametrize(
    "argv, engines",
    [
        (("validate", INSURANCE), set()),
        (("intervene", INSURANCE, "-U", "ins", "--Q", "delta:ins=Y"), set()),
        (("marginalize", INSURANCE, "--coords", "ins,pay"), set()),
        (("gen", "--seed", "7", "--max-labels", "2"), set()),
        (("effect", INSURANCE, "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000"), {"effects"}),
        (("classify", INSURANCE, "-U", "ins", "--omega", "ins=N,dan=H", "--event", "pays1000"), {"effects"}),
        (("score", INSURANCE, "-U", "ins", "--Q", "delta:ins=N", "--event", "pay=1000"), {"scores"}),
    ],
    ids=["validate", "intervene", "marginalize", "gen", "effect", "classify", "score"],
)
def test_a_subcommand_loads_only_the_engines_it_runs(argv, engines):
    path = os.pathsep.join([str(Path(causalspaces.__file__).resolve().parent.parent), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert {m.split(".")[1] for m in loaded} & ENGINES == engines


@pytest.fixture
def unbound(monkeypatch):
    """The package namespace as a fresh import leaves it: no engine name bound yet."""
    namespace = vars(causalspaces)
    for name in causalspaces._LAZY:
        if name in namespace:
            monkeypatch.delitem(namespace, name)
    return namespace


def test_public_names_are_unchanged():
    assert causalspaces.__all__ == PUBLIC


def test_every_engine_name_is_the_object_its_module_defines():
    assert set(causalspaces._LAZY) <= set(PUBLIC) and set(causalspaces._LAZY.values()) == ENGINES
    for name, module in causalspaces._LAZY.items():
        defining = import_module(f"causalspaces.{module}")
        assert getattr(causalspaces, name) is (defining if name == module else getattr(defining, name)), name


def test_dir_lists_the_unloaded_names(unbound):
    assert not unbound.keys() & causalspaces._LAZY.keys()
    assert set(dir(causalspaces)) >= set(PUBLIC)


def test_an_unknown_attribute_raises_the_standard_error(unbound):
    with pytest.raises(AttributeError, match=r"^module 'causalspaces' has no attribute 'nope'$"):
        causalspaces.nope  # noqa: B018
    assert not hasattr(causalspaces, "nope")


def test_first_access_binds_the_name(unbound, monkeypatch):
    calls = []
    hook = causalspaces.__getattr__
    monkeypatch.setattr(causalspaces, "__getattr__", lambda name: calls.append(name) or hook(name))
    first = causalspaces.run_query
    assert causalspaces.run_query is first
    from causalspaces import run_query

    assert run_query is first is import_module("causalspaces.effects").run_query
    assert calls == ["run_query"]
