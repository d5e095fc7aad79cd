"""The value semantics of the data model's sixteen classes, pinned class by class.

Each class is built by position and by keyword, with its defaults; it equals
an equal copy and nothing else, hashes by value unless a field is a Row, a
dict or a mapping proxy (or holds one), prints as ``Name(field=value, ...)``,
refuses assignment and deletion (a `SpaceDocument` alone stays mutable and
unhashable) and survives `copy.copy` and, unless it holds a kernel,
`pickle`. The objects are built in the test, so a library fault fails its
class's cases, not the collection.
"""

import copy
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest

from causalspaces.document import SpaceDocument
from causalspaces.errors import InvalidMeasureError
from causalspaces.effects import EffectQuery, EffectTag, EffectVerdict, Reason
from causalspaces.generators import GenConfig
from causalspaces.kernels import CausalKernel, InterventionSpec, Violation
from causalspaces.measure import Measure, RandomVariable, Row, uniform
from causalspaces.scores import TOTAL_VARIATION, DifferenceFunctional, EffectScore, ScaleFunction, scale_f1
from causalspaces.space import Coordinate, Partition, ProductSpace, coordinate_subalgebra

F = Fraction


def _cases() -> dict:
    """Class name -> (class, field names, fresh field values, defaults of the trailing fields, a field and another value, hashable).

    Each call builds new objects, so two calls give equal values that are not the same objects.
    """
    a = Coordinate("a", ("0", "1"), (F(0), F(1)))
    sp = ProductSpace((a, Coordinate("b", ("x", "y"))))
    quarter = {o: F(1, 4) for o in sp.outcomes}
    a_algebra = coordinate_subalgebra(sp, {"a"})
    kernel = CausalKernel(sp, frozenset(), {(): quarter})
    on_a = uniform(sp.subspace({"a"}))
    x0 = frozenset({("0", "x")})
    return {
        "Coordinate": (Coordinate, "id labels values", ["a", ("0", "1"), (F(0), F(1))], [None], ("id", "b"), True),
        "ProductSpace": (ProductSpace, "coordinates", [(a, Coordinate("b", ("x", "y")))], [], ("coordinates", (a,)), True),
        "Partition": (Partition, "space blocks", [sp, a_algebra.blocks], [], ("blocks", (frozenset(sp.outcomes),)), True),
        "Measure": (Measure, "space weights", [sp, dict(quarter)], [], ("weights", {("0", "x"): 1}), False),
        "RandomVariable": (
            RandomVariable,
            "space values partition",
            [sp, {o: F(int(o[0])) for o in sp.outcomes}, a_algebra],
            [],
            ("values", {o: F(2 * int(o[0])) for o in sp.outcomes}),
            False,
        ),
        "CausalKernel": (
            CausalKernel,
            "space coords rows",
            [sp, frozenset({"a"}), {("0",): {("0", "x"): 1}, ("1",): {("1", "y"): 1}}],
            [],
            ("rows", {("0",): {("0", "y"): 1}, ("1",): {("1", "y"): 1}}),
            False,
        ),
        "Violation": (
            Violation,
            "kind kernel row outcome detail",
            ["row-sum", frozenset({"a"}), ("0",), ("0", "x"), "sums to 2"],
            [None, None, None, ""],
            ("kind", "support"),
            True,
        ),
        "InterventionSpec": (InterventionSpec, "coords q", [frozenset({"a"}), on_a], [], ("q", Measure(sp.subspace({"a"}), {("0",): 1})), False),
        "SpaceDocument": (
            SpaceDocument,
            "space measure_table kernels events partitions variables measures",
            [sp, dict(quarter), {frozenset(): kernel}, {"e": x0}, {"p": a_algebra}, {}, {"q": on_a}],
            [{}, {}, {}, {}, {}],
            ("events", {}),
            False,
        ),
        "GenConfig": (
            GenConfig,
            "seed max_coords max_labels kernel_mode denominator_bound",
            [7, 4, 2, "partial", 16],
            [3, 3, "full", 32],
            ("seed", 8),
            True,
        ),
        "Reason": (Reason, "kind", ["zero-measure-conditioning"], [], ("kind", "not-mutually-abs-continuous"), True),
        "EffectVerdict": (EffectVerdict, "tag reason", [EffectTag.ACTIVE, None], [None], ("tag", EffectTag.DORMANT), True),
        "EffectQuery": (
            EffectQuery,
            "intervention subject target given post",
            [frozenset({"a"}), ("0", "x"), x0, None, frozenset({"b"})],
            [None, None],
            ("subject", ("1", "x")),
            True,
        ),
        "ScaleFunction": (ScaleFunction, "name fn exact", ["linear", scale_f1, True], [False], ("name", "f1"), True),
        "DifferenceFunctional": (
            DifferenceFunctional,
            "name dim fn needs_variable",
            ["total_variation", 1, TOTAL_VARIATION.fn, False],
            [False],
            ("dim", 2),
            True,
        ),
        "EffectScore": (
            EffectScore,
            "value coords target q subject argmax tied",
            [F(1, 4), frozenset({"a"}), x0, None, sp.where(a="0"), ("0", "x"), True],
            [None, None, None, False],
            ("tied", False),
            True,
        ),
    }


NAMES = [
    "Coordinate", "ProductSpace", "Partition", "Measure", "RandomVariable", "CausalKernel", "Violation",
    "InterventionSpec", "SpaceDocument", "GenConfig", "Reason", "EffectVerdict", "EffectQuery", "ScaleFunction",
    "DifferenceFunctional", "EffectScore",
]

# a kernel's rows are a read-only mapping proxy, which pickle refuses
HOLDS_A_KERNEL = {"CausalKernel", "SpaceDocument"}


@pytest.mark.parametrize("name", NAMES)
def test_a_data_model_class_has_value_semantics(name):
    cls, fields, values, defaults, (field, other), hashable = _cases()[name]
    fields = fields.split()
    obj, twin = cls(*values), cls(*_cases()[name][2])
    by_keyword = dict(zip(fields, values))

    # construction by position and by keyword; the fields read back as given, and the trailing ones default
    assert cls.__name__ == name
    assert [getattr(obj, f) for f in fields] == values
    assert cls(**by_keyword) == obj
    required = len(fields) - len(defaults)
    short = cls(*values[:required])
    assert [getattr(short, f) for f in fields[required:]] == defaults
    assert short == cls(*values[:required], *defaults) == cls(**dict(zip(fields, values[:required])))

    # equality with an equal copy, not with a changed field, another class or the bare values
    assert twin is not obj and twin == obj and not twin != obj
    assert cls(**{**by_keyword, field: other}) != obj
    other_class = type(name, (cls,), {})
    assert other_class(*values) != obj and obj != other_class(*values)
    assert obj != tuple(getattr(obj, f) for f in fields)

    if hashable:
        assert hash(twin) == hash(obj) and len({obj, twin}) == 1
    else:
        with pytest.raises(TypeError):
            hash(obj)

    assert repr(obj) == f"{name}(" + ", ".join(f"{f}={getattr(obj, f)!r}" for f in fields) + ")"

    if cls is SpaceDocument:
        short.events = {"e": frozenset()}
        assert short.events == {"e": frozenset()} and short != cls(*values[:required])
        del short.events
        assert "events" not in vars(short)
        assert cls(*values[:required]).kernels is not cls(*values[:required]).kernels  # a fresh dict per document
    else:
        for f in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(obj, f, None)
            with pytest.raises(AttributeError):
                delattr(obj, f)
        assert obj == twin and not hasattr(obj, "extra")

    assert copy.copy(obj) == obj
    if name in HOLDS_A_KERNEL:
        with pytest.raises(TypeError, match="mappingproxy"):
            pickle.dumps(obj)
    else:
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_reprs_read_as_constructor_calls():
    assert repr(Coordinate("a", ("0", "1"))) == "Coordinate(id='a', labels=('0', '1'), values=None)"
    assert repr(GenConfig(7)) == "GenConfig(seed=7, max_coords=3, max_labels=3, kernel_mode='full', denominator_bound=32)"
    assert repr(EffectVerdict(EffectTag.UNDETERMINED, Reason("zero-measure-conditioning"))) == (
        "EffectVerdict(tag=<EffectTag.UNDETERMINED: 'undetermined'>, reason=Reason(kind='zero-measure-conditioning'))"
    )


def test_each_constructor_runs_its_checks_and_stores_canonical_fields():
    a = Coordinate("a", ("0", "1"))
    sp = ProductSpace((a, Coordinate("b", ("x", "y"))))
    quarter = {o: "1/4" for o in sp.outcomes}
    on_a = uniform(sp.subspace({"a"}))
    with pytest.raises(ValueError, match="duplicate labels"):
        Coordinate("c", ("0", "0"))
    with pytest.raises(ValueError, match="^coordinate ids are not distinct$"):
        ProductSpace((a, a))
    algebra = coordinate_subalgebra(sp, {"a"})
    assert Partition(sp, [set(b) for b in reversed(algebra.blocks)]).blocks == algebra.blocks
    with pytest.raises(ValueError, match="^partition blocks do not cover the space$"):
        Partition(sp, algebra.blocks[:1])
    assert isinstance(Measure(sp, quarter).weights, Row)
    with pytest.raises(InvalidMeasureError, match="^weights sum to 2, expected exactly 1$"):
        Measure(sp, {sp.outcomes[0]: 2})
    assert {type(v) for v in RandomVariable(sp, dict.fromkeys(sp.outcomes, 1), algebra).values.values()} == {Fraction}
    with pytest.raises(ValueError, match="^random variable is not constant on a block of its partition$"):
        RandomVariable(sp, {o: F(o[1] == "x") for o in sp.outcomes}, algebra)
    kernel = CausalKernel(sp, ["a"], {("0",): {("0", "x"): "1"}, ("1",): {("1", "y"): 1}})
    assert kernel.coords == frozenset({"a"}) and type(kernel.coords) is frozenset
    assert isinstance(kernel.rows, MappingProxyType) and all(isinstance(r, Row) for r in kernel.rows.values())
    with pytest.raises(ValueError, match=r"lacks rows for \[\('1',\)\]"):
        CausalKernel(sp, ["a"], {("0",): {("0", "x"): 1}})
    assert type(InterventionSpec(["a"], on_a).coords) is frozenset
    with pytest.raises(ValueError, match="^mixing measure must live on the product over the intervened coordinates$"):
        InterventionSpec(["b"], on_a)
    assert isinstance(SpaceDocument(sp, quarter).measure_table, Row)
    with pytest.raises(ValueError, match="^generator bounds must be at least 1$"):
        GenConfig(1, max_coords=0)
    with pytest.raises(ValueError, match="^exactly the undetermined verdicts carry a reason$"):
        EffectVerdict(EffectTag.UNDETERMINED)
    query = EffectQuery(["a"], ("0", "x"), sp.where(b="x"), post=["b"])
    assert type(query.intervention) is frozenset and type(query.post) is frozenset
    with pytest.raises(ValueError, match="^a query conditions or post-intervenes, not both$"):
        EffectQuery(["a"], ("0", "x"), sp.where(b="x"), given=sp.where(b="y"), post=["b"])
    with pytest.raises(ValueError, match="boundary value"):
        ScaleFunction("identity", lambda x: x, exact=True)
