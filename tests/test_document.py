import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import console_checks
from causalspaces import document as document_module
from causalspaces.cli import main
from causalspaces.document import (
    MAX_RATIONAL_DIGITS,
    MAX_RATIONAL_EXPONENT,
    SpaceDocument,
    _emit,
    _parse_cell,
    decimal_str,
    document_from_space,
    document_violations,
    dumps_document,
    fraction_str,
    load_document,
    marginalize_document,
    parse_document,
    parse_rational,
    serialize_document,
    to_causal_space,
)
from causalspaces.errors import DocumentError
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.kernels import CausalKernel, CausalSpace, marginalize, validate
from causalspaces.measure import Measure, RandomVariable, Row, fraction_row
from causalspaces.space import Partition, ProductSpace, coordinate_subalgebra, generated_algebra

F = Fraction


def test_parse_rational_exact():
    assert parse_rational("0.00125", "x") == F(1, 800)
    assert parse_rational("1/160", "x") == F(1, 160)
    assert parse_rational(2, "x") == F(2)
    with pytest.raises(DocumentError):
        parse_rational(0.5, "x")
    with pytest.raises(DocumentError) as err:
        parse_rational("1//3", "measure[a]")
    assert "measure[a]" in str(err.value)


def test_decimal_rendering():
    assert decimal_str(F(1, 160)) == "0.00625"
    assert decimal_str(F(51, 100)) == "0.51"
    assert decimal_str(F(-7, 800)) == "-0.00875"
    assert decimal_str(F(3)) == "3"
    assert decimal_str(F(1, 3)) == repr(1 / 3)
    assert decimal_str(0.25) == "0.25"
    assert fraction_str(F(-7, 800)) == "-7/800"


def test_insurance_document_objects(insurance_doc):
    assert set(insurance_doc.events) == {"pays1000", "no_danger", "high_danger"}
    assert len(insurance_doc.partitions["by_dan"]) == 3
    assert insurance_doc.variables["payment"](("N", "Y", "30")) == 30
    assert document_violations(insurance_doc) == []


def test_round_trip_is_normal_form(insurance_doc):
    text = dumps_document(insurance_doc)
    again = parse_document(json.loads(text))
    assert dumps_document(again) == text


def test_serialize_drops_zero_cells(insurance_doc):
    data = serialize_document(insurance_doc)
    assert "N,Y,0" not in data["measure"]
    assert data["measure"]["N,Y,30"] == "1/100"
    assert data["kernels"]["ins"]["Y"]["L,Y,30"] == "13/20"


def test_document_structure_errors(tmp_path):
    base = {
        "coordinates": [{"id": "a", "labels": ["x", "y"]}],
        "measure": {"x": "1/2", "y": "1/2"},
    }

    def bad(mutate):
        data = json.loads(json.dumps(base))
        mutate(data)
        with pytest.raises(DocumentError):
            parse_document(data)

    bad(lambda d: d.update(surprise={}))
    bad(lambda d: d["coordinates"].append({"id": "a", "labels": ["z"]}))
    bad(lambda d: d["coordinates"][0]["labels"].append("with,comma"))
    bad(lambda d: d["measure"].update({"zzz": "1/2"}))
    bad(lambda d: d["measure"].update({"x": "nope"}))
    bad(lambda d: d.update(events={"e": "not-a-spec"}))
    bad(lambda d: d.update(partitions={"p": {"coords": "b"}}))
    bad(lambda d: d.update(variables={"v": {"coord": "a"}}))  # no numeric values
    bad(lambda d: d.update(measures={"m": {"coords": "a"}}))
    bad(lambda d: d.pop("coordinates"))


WRONGLY_TYPED = {
    "kernels-list": lambda d: d.update(kernels=[]),
    "partition-blocks-int": lambda d: d.update(partitions={"p": {"blocks": 5}}),
    "variable-values-list": lambda d: d.update(variables={"v": {"values": []}}),
    "labels-string": lambda d: d["coordinates"][0].update(labels="xy"),
    "coordinates-object": lambda d: d.update(coordinates={"a": ["x", "y"]}),
    "coordinate-values-int": lambda d: d["coordinates"][0].update(values=5),
    "events-list": lambda d: d.update(events=[]),
    "event-cell-int": lambda d: d.update(events={"e": [1]}),
    "event-cell-list": lambda d: d.update(events={"e": [["x"]]}),
    "event-labels-int": lambda d: d.update(events={"e": {"a": 5}}),
    "partition-generators-int": lambda d: d.update(partitions={"p": {"generators": 5}}),
    "partition-coords-nested": lambda d: d.update(partitions={"p": {"coords": [["a"]]}}),
    "variable-coord-list": lambda d: d.update(variables={"v": {"coord": ["a"]}}),
    "measures-list": lambda d: d.update(measures=[]),
}


@pytest.mark.parametrize("mutate", WRONGLY_TYPED.values(), ids=WRONGLY_TYPED.keys())
def test_wrongly_typed_sections_rejected(mutate):
    data = {"coordinates": [{"id": "a", "labels": ["x", "y"]}], "measure": {"x": "1/2", "y": "1/2"}}
    mutate(data)
    with pytest.raises(DocumentError):
        parse_document(data)


FUZZ_BASE = {
    "coordinates": [{"id": "a", "labels": ["x", "y"], "values": ["0", "1"]}],
    "measure": {"x": "1/2", "y": "1/2"},
    "kernels": {"a": {"x": {"x": "1"}, "y": {"y": "1"}}},
    "events": {"e": ["x"]},
    "partitions": {"p": {"coords": "a"}},
    "variables": {"v": {"coord": "a"}},
    "measures": {"m": {"coords": "a", "weights": {"x": "1"}}},
}
FUZZ_PATHS = [
    ("coordinates",), ("coordinates", 0), ("coordinates", 0, "id"), ("coordinates", 0, "labels"),
    ("coordinates", 0, "labels", 0), ("coordinates", 0, "values"), ("measure",), ("measure", "x"),
    ("kernels",), ("kernels", "a"), ("kernels", "a", "x"), ("kernels", "a", "x", "x"),
    ("events",), ("events", "e"), ("events", "e", 0), ("partitions",), ("partitions", "p"),
    ("partitions", "p", "coords"), ("variables",), ("variables", "v"), ("variables", "v", "coord"),
    ("measures",), ("measures", "m"), ("measures", "m", "coords"), ("measures", "m", "weights"),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["", "x", "a", "x,y", "1/2", "1e5", "nope"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "x", "coords", "blocks", "generators", "values", "coord"]), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=300)
@given(st.sampled_from(FUZZ_PATHS), JSON_VALUES)
def test_any_json_shape_parses_or_raises_document_error(path, value):
    data = json.loads(json.dumps(FUZZ_BASE))
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    try:
        parse_document(data)
    except DocumentError:
        pass


def test_parse_rational_bounds_digits_and_exponent():
    assert parse_rational("1e-" + str(MAX_RATIONAL_EXPONENT), "x") == F(1, 10**MAX_RATIONAL_EXPONENT)
    assert parse_rational("1" * MAX_RATIONAL_DIGITS, "x") == int("1" * MAX_RATIONAL_DIGITS)
    for text in ("1e400000000", "1E-400000000", "0.5e+1_001", "1/2e5000"):
        with pytest.raises(DocumentError):
            parse_rational(text, "x")
    with pytest.raises(DocumentError, match=f"more than {MAX_RATIONAL_DIGITS} digits"):
        parse_rational("0." + "3" * MAX_RATIONAL_DIGITS, "x")


_REFERENCE_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)")


def reference_parse_rational(value, location):
    """parse_rational before its int() fast path: every string goes through Fraction."""
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"weights must be strings or integers to stay exact, got {value!r}", location)
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_DIGITS and sum(map(str.isdecimal, value)) > MAX_RATIONAL_DIGITS:
            raise DocumentError(f"rational has more than {MAX_RATIONAL_DIGITS} digits", location)
        exponent = _REFERENCE_EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_RATIONAL_EXPONENT:
            raise DocumentError(f"rational exponent {exponent.group(1)} exceeds +-{MAX_RATIONAL_EXPONENT}", location)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DocumentError(f"malformed rational {value!r} ({exc})", location) from None


def rational_outcome(parse, value):
    try:
        got = parse(value, "measure[x]")
    except DocumentError as exc:
        return ("error", str(exc))
    assert type(got) is Fraction
    return ("value", got.numerator, got.denominator)


NEAR_MISSES = [
    "+1", " 1", "1 ", "\t1/2\n", " -3.25 ", "1_000", "1_000/3", "0.1_5",
    "\u00b2", "1\u00b2", "\u0661", "\u0661/\u0662", "-\u0661.5",
    "007", "-007/010", "00.50", "-0", "-0.0", "0/5", "1/0", "-1/0", "0/0", "-0/0", "1/-2", "-1/-2",
    "/3", "3/", "-", "", ".5", "1.", "-.5", "1e5", "1E-3", "1/2/3", "--1", "1.2.3", "1,5", "0x10", "1/2.5",
    # decimals next to the inline d+.d+ form
    "01.50", "1.5.", "1.5/2", "2/1.5", "-0.5", "1.5e3",
    "1." + "5" * (MAX_RATIONAL_DIGITS - 2), "1." + "5" * (MAX_RATIONAL_DIGITS - 1),
]
_LONG = [k * "9" for k in (MAX_RATIONAL_DIGITS - 1, MAX_RATIONAL_DIGITS, MAX_RATIONAL_DIGITS + 1)]
LONG_FORMS = [f(d) for d in _LONG for f in (str, "-{}".format, "1/{}".format, "{}/7".format, "0.{}".format, "{}.5".format)]

RATIONAL_TEXT = st.one_of(
    st.fractions(max_denominator=10**6).map(str),
    st.builds(lambda sign, a, b: f"{sign}{a}.{b}", st.sampled_from(["", "-"]), st.integers(0, 10**6), st.text("0123456789", min_size=1, max_size=8)),
    st.sampled_from(NEAR_MISSES + LONG_FORMS),
    st.text("0123456789-+/._ e\u00b2\u0661", max_size=8),
)


@settings(max_examples=400)
@given(RATIONAL_TEXT)
def test_parse_rational_fast_path_matches_fraction(text):
    assert rational_outcome(parse_rational, text) == rational_outcome(reference_parse_rational, text)


def test_parse_rational_near_misses_match_fraction():
    for text in NEAR_MISSES + LONG_FORMS + [7, -7, 0, True, 0.5, None, ["1"]]:
        assert rational_outcome(parse_rational, text) == rational_outcome(reference_parse_rational, text), text


# The weight-table reader against the loop it replaced: every entry through
# _parse_cell and parse_rational, with each location built eagerly.


def reference_weight_table(space, obj, location):
    if not isinstance(obj, dict):
        raise DocumentError("expected an object of cell -> weight entries", location)
    table = {}
    for cell, value in obj.items():
        where = f"{location}[{cell}]"
        o = _parse_cell(space, cell, where)
        if o in table:
            raise DocumentError(f"duplicate cell {cell!r}", location)
        table[o] = parse_rational(value, where)
    return table


def reference_kernel_rows(space, rows_obj, loc, coords):
    rows = {}
    for row_text, table in rows_obj.items():
        row = _parse_cell(space, row_text, f"{loc}[{row_text}]", coords)
        rows[row] = reference_weight_table(space, table, f"{loc}[{row_text}]")
    for key in space.subspace(coords).outcomes:
        rows.setdefault(key, {})
    return CausalKernel(space, coords, rows).rows


def reference_variable_values(space, obj, location):
    if not isinstance(obj, dict):
        raise DocumentError("'values' must be an object of cell -> rational entries", location)
    values = {}
    for cell, v in obj.items():
        o = _parse_cell(space, cell, f"{location}[{cell}]")
        values[o] = parse_rational(v, f"{location}[{cell}]")
    missing = set(space.outcomes) - set(values)
    if missing:
        raise DocumentError(f"variable lacks values for {len(missing)} outcomes", location)
    return values


def table_outcome(read):
    try:
        return ("table", read())
    except DocumentError as exc:
        return ("error", str(exc), exc.location)


WEIGHT_CELLS = st.sampled_from(["x,u", "x,v", "y,u", "y,v", "x", "x,u,v", "", ",", "x,", "z,u", "x,w", "X,u", 1, None, True, ("x", "u")])
WEIGHT_VALUES = st.one_of(
    st.sampled_from(NEAR_MISSES + LONG_FORMS + ["1", "1/4", "3/4", "00/07", "0", "0/1", "12/0", "1/00"]),
    RATIONAL_TEXT,
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)
WEIGHT_TABLES = st.dictionaries(WEIGHT_CELLS, WEIGHT_VALUES, max_size=5) | st.sampled_from([[], "x,u", None, 7])
ROW_CELLS = st.sampled_from(["x", "y", "z", "x,u", "", "y,", 3, None])
WEIGHT_PLACES = ["measure", "kernel", "variable", "named-measure"]


def assert_reader_matches_reference(place, table, rows_obj):
    space = parse_document(_TWO).space
    a = frozenset({"a"})
    if place == "measure":
        data = _two(measure=table)
        got = table_outcome(lambda: parse_document(data, "doc").measure_table)
        want = table_outcome(lambda: fraction_row(reference_weight_table(space, table, "doc.measure")))
    elif place == "kernel":
        data = _two(kernels={"a": rows_obj})
        got = table_outcome(lambda: parse_document(data, "doc").kernels[a].rows)
        want = table_outcome(lambda: reference_kernel_rows(space, rows_obj, "doc.kernels[a]", a))
    elif place == "variable":
        data = _two(variables={"v": {"values": table}})
        got = table_outcome(lambda: parse_document(data, "doc").variables["v"].values)
        want = table_outcome(lambda: reference_variable_values(space, table, "doc.variables[v]"))
    else:
        sub = space.subspace(a)
        data = _two(measures={"m": {"coords": "a", "weights": table}})
        got = table_outcome(lambda: parse_document(data, "doc").measures["m"].weights)
        try:
            want = ("table", Measure(sub, reference_weight_table(sub, table, "doc.measures[m].weights")).weights)
        except DocumentError as exc:
            want = ("error", str(exc), exc.location)
        except ValueError as exc:
            want = ("error", f"doc.measures[m].weights: {exc}", "doc.measures[m].weights")
    assert got == want
    if got[0] == "table":
        tables = got[1].values() if place == "kernel" else [got[1]]
        assert all(type(w) is Fraction for t in tables for w in t.values())


@settings(max_examples=200)
@given(st.sampled_from(WEIGHT_PLACES), WEIGHT_TABLES, st.dictionaries(ROW_CELLS, WEIGHT_TABLES, max_size=3))
def test_weight_table_reader_matches_the_entry_by_entry_loop(place, table, rows_obj):
    assert_reader_matches_reference(place, table, rows_obj)


@pytest.mark.parametrize("place", WEIGHT_PLACES)
def test_weight_table_reader_matches_the_loop_on_every_near_miss(place):
    for value in NEAR_MISSES + LONG_FORMS + ["1", "00/07", "0", "12/0", "1/00", 7, -7, 0, 0.5, True, False, None]:
        for cell in ["x,u", "x", "z,u", 1]:
            table = {"y,v": "1/2", cell: value}
            assert_reader_matches_reference(place, table, {"x": table, "y": {cell: value}})


# a plain entry is read in the loop; each of these after it takes the fallback
FALLBACK_AFTER_PLAIN = [("y,v", v) for v in ["1/0", "0.5", "-1/2", "\u0661", 1, 0, 0.5]] + [("z,u", "1/4")]


@pytest.mark.parametrize("place", WEIGHT_PLACES)
@pytest.mark.parametrize("cell, value", FALLBACK_AFTER_PLAIN)
def test_weight_table_reader_matches_the_loop_where_a_row_leaves_the_plain_forms(place, cell, value):
    table = {"x,u": "1/4", "x,v": "1/8", "y,u": "1", cell: value}
    assert_reader_matches_reference(place, table, {"x": table, "y": {"x,u": "1/2", "y,u": "1/2"}})


@pytest.mark.parametrize("place", WEIGHT_PLACES)
def test_weight_table_reader_matches_the_loop_on_zeros_inside_a_row(place):
    table = {"x,u": "1/4", "x,v": "0/5", "y,u": "00/07", "y,v": "3/4"}
    assert_reader_matches_reference(place, table, {"x": table, "y": dict(reversed(table.items()))})


# every string needs escaping or is not ASCII, and every optional section is present,
# with an empty kernel row and an empty event
ESCAPED = {
    "coordinates": [{"id": 'q"d', "labels": ["é", "日本"], "values": ["1/3", "-2"]}, {"id": "b\\s", "labels": ["t\tab", "x"]}],
    "measure": {"é,t\tab": "1/2", "日本,x": "1/2"},
    "kernels": {'q"d': {"é": {"é,t\tab": "1"}, "日本": {}}},
    "events": {'ev"1': ["é,t\tab", "日本,x"], "nul\\l": []},
    "partitions": {"p\té": {"coords": 'q"d'}},
    "variables": {"v日本": {"coord": 'q"d'}},
    "measures": {'m"': {"coords": "b\\s", "weights": {"t\tab": "1/2", "x": "1/2"}}},
}


def _writer_documents(insurance_doc):
    yield insurance_doc
    counts = set()
    for seed in range(12):
        for mode in ("full", "partial"):
            cs = gen_random_space(GenConfig(seed=seed, max_coords=5, max_labels=2, kernel_mode=mode))
            counts.add(len(cs.space.ids))
            yield document_from_space(cs)
    assert counts == {1, 2, 3, 4, 5}
    yield parse_document(ESCAPED)


def test_writer_matches_the_stdlib_encoder(insurance_doc):
    for doc in _writer_documents(insurance_doc):
        assert dumps_document(doc) == json.dumps(serialize_document(doc), indent=2, ensure_ascii=False) + "\n"
    assert list(serialize_document(parse_document(ESCAPED))) == list(ESCAPED)


@pytest.mark.parametrize("value", [{"a": 1}, ["x", None], 0.5, True, {"a": ("x",)}, {1: "a"}])
def test_writer_refuses_a_leaf_that_is_not_a_string(value):
    with pytest.raises(TypeError):
        _emit(value)


def test_load_document_reports_json_position(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text('{"coordinates": [,]}')
    with pytest.raises(DocumentError) as err:
        load_document(target)
    assert "broken.json:1" in str(err.value)


def test_load_document_refuses_undecodable_input(tmp_path):
    target = tmp_path / "huge.json"
    target.write_text('{"coordinates": [{"id": "a", "labels": ["x"]}], "measure": {"x": ' + "1" * 5000 + "}}")
    with pytest.raises(DocumentError, match="invalid JSON"):
        load_document(target)
    target.write_bytes(b'{"coordinates": [{"id": "\xff", "labels": ["x"]}]}')
    with pytest.raises(DocumentError, match="invalid JSON"):
        load_document(target)


def test_missing_kernel_row_becomes_row_sum_violation(insurance_doc, tmp_path):
    data = serialize_document(insurance_doc)
    del data["kernels"]["ins"]["N"]
    doc = parse_document(data)
    cs = to_causal_space(doc)
    kinds = [v.kind for v in validate(cs)]
    assert kinds == ["row-sum"]


def test_measure_violations_reported(insurance_doc):
    data = serialize_document(insurance_doc)
    data["measure"]["N,Y,30"] = "1/50"
    doc = parse_document(data)
    assert [v.kind for v in document_violations(doc)] == ["measure-sum"]


def test_measure_table_is_a_row_however_the_document_is_made(insurance_doc):
    assert type(insurance_doc.measure_table) is Row
    assert to_causal_space(insurance_doc).observational.weights is insurance_doc.measure_table
    # a zero, a negative and a string weight: the parsed row and the row of the table are one
    table = {("N", "Y", "30"): F(1, 2), ("N", "N", "0"): 0, ("L", "Y", "30"): F(-1, 4), ("H", "Y", "30"): "3/4"}
    data = serialize_document(insurance_doc)
    data["measure"] = {",".join(o): str(w) for o, w in table.items()}
    parsed = parse_document(data).measure_table
    built = SpaceDocument(insurance_doc.space, table).measure_table
    assert type(built) is Row and (built.den, built.nums) == (parsed.den, parsed.nums)
    assert [v.kind for v in document_violations(SpaceDocument(insurance_doc.space, table))] == ["measure-negative"]


def test_marginalize_document_carries_surviving_names(insurance_doc):
    small = marginalize_document(insurance_doc, {"ins", "pay"})
    assert set(small.events) == {"pays1000"}
    assert set(small.partitions) == {"by_ins", "by_pay"}
    assert set(small.variables) == {"payment"}
    assert small.space.ids == ("ins", "pay")
    assert to_causal_space(small).observational(small.space.where(pay="1000")) == F(1, 160)


def _level_sets(rv) -> set:
    """A variable's level sets, written out: for each value, the outcomes it takes there."""
    return {frozenset(o for o in rv.space.outcomes if rv(o) == v) for v in set(rv.values.values())}


def test_a_variable_partition_is_its_level_sets(insurance_doc):
    """Parsed from values (with a repeated value on outcomes that share no coordinate label), and marginalized from the fixture."""
    values = {"x,u": "0", "x,v": "1/2", "y,u": "1/2", "y,v": "3"}
    rv = parse_document(_two(variables={"v": {"values": values}})).variables["v"]
    assert set(rv.partition.blocks) == _level_sets(rv) and len(rv.partition) == 3
    small = marginalize_document(insurance_doc, {"ins", "pay"}).variables["payment"]
    assert small.space.ids == ("ins", "pay")
    assert set(small.partition.blocks) == _level_sets(small) == set(coordinate_subalgebra(small.space, {"pay"}).blocks)


def test_marginalize_document_builds_no_subalgebra_and_projects_only_what_is_named(insurance_doc, monkeypatch):
    def no_subalgebra(space, coords):
        raise AssertionError("a coordinate subalgebra was built")

    calls = []
    projection = ProductSpace.projection

    def counted(space, coords):
        calls.append(coords)
        return projection(space, coords)

    nameless = SpaceDocument(insurance_doc.space, insurance_doc.measure_table, insurance_doc.kernels)
    monkeypatch.setattr(document_module, "coordinate_subalgebra", no_subalgebra)
    monkeypatch.setattr(ProductSpace, "projection", counted)
    small = marginalize_document(nameless, {"ins", "pay"})
    # the one table is the one `kernels.marginalize` pushes the rows through
    assert len(calls) == 1 and small.events == {} and small.partitions == {} and small.variables == {}
    calls.clear()
    named = marginalize_document(insurance_doc, {"ins", "pay"})
    # the named events, blocks and variables are cut where they stand, through no second table
    assert len(calls) == 1
    assert set(named.events) == {"pays1000"} and set(named.partitions) == {"by_ins", "by_pay"} and set(named.variables) == {"payment"}


@pytest.mark.parametrize("keep", [console_checks.WIDE_IDS, ["c0", "c1"], ["c1", "c5"]])
def test_marginalize_document_builds_one_projection_table_on_a_wide_named_document(monkeypatch, keep):
    """The console checks' `wide-named` document: 14 coordinates, one named event and one partition.

    The rows go through the one projection table of `kernels.marginalize`,
    and the event and the partition's blocks are cut where they stand.
    """
    doc = parse_document(json.loads(console_checks.documents()["wide-named"]))
    calls = []
    projection = ProductSpace.projection

    def counted(space, coords):
        calls.append(coords)
        return projection(space, coords)

    monkeypatch.setattr(ProductSpace, "projection", counted)
    small = marginalize_document(doc, keep)
    assert len(calls) == 1
    sub = small.space
    assert sub.ids == tuple(keep)
    # every kept set holds c1, so the partition survives; the event needs c0
    assert small.events == ({"c0_set": sub.where(c0="1")} if "c0" in keep else {})
    assert {name: set(part.blocks) for name, part in small.partitions.items()} == {"by_c1": {sub.where(c1="0"), sub.where(c1="1")}}


def test_marginalize_document_identity(insurance_doc):
    full = marginalize_document(insurance_doc, set(insurance_doc.space.ids))
    assert dumps_document(full) == dumps_document(insurance_doc)


def test_marginalize_document_follows_the_lift_rule():
    """A name survives iff it is determined by the kept coordinates, and its image is the projection.

    An event `a` survives iff {o : restrict(o) in image} == a, where image is
    the projection of `a`; a partition iff every block does; a variable iff
    outcomes with the same projection take the same value.
    """
    rng, pick = random.Random(6201), random.Random(6202)
    seen = Counter()
    for trial in range(40):
        cs = gen_random_space(GenConfig(seed=6201 + trial, max_coords=4, max_labels=2, kernel_mode="partial" if trial % 2 else "full"))
        sp = cs.space
        ids, outcomes = list(sp.ids), list(sp.outcomes)

        def cylinder():
            cid = rng.choice(ids)
            return sp.where(**{cid: rng.sample(sp.coordinate(cid).labels, 1)})

        events = {f"r{i}": frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes)))) for i in range(3)}
        events.update({f"y{i}": cylinder() for i in range(3)})
        partitions = {
            "coords": coordinate_subalgebra(sp, rng.sample(ids, rng.randint(0, len(ids)))),
            "generated": generated_algebra(sp, [cylinder(), cylinder()]),
            "random": generated_algebra(sp, [events["r0"]]),
        }
        on = rng.sample(ids, rng.randint(0, len(ids)))
        weights = {cid: rng.randint(0, 3) for cid in ids}
        variables = {
            "coord": RandomVariable.from_coordinate(sp, rng.choice(ids)),
            "sum": _level_variable(sp, {o: Fraction(sum(weights[c] * int(l) for c, l in zip(ids, o) if c in on)) for o in outcomes}),
            "random": _level_variable(sp, {o: Fraction(rng.randint(0, 2)) for o in outcomes}),
        }
        doc = document_from_space(cs, events, partitions, variables)
        for _ in range(3):
            coords = frozenset(rng.sample(ids, rng.randint(1, len(ids))))
            small = marginalize_document(doc, coords)

            def lifted(a):
                image = frozenset(sp.restrict(o, coords) for o in a)
                return image, {o for o in outcomes if sp.restrict(o, coords) in image} == a

            want_events = {name: image for name, (image, ok) in ((n, lifted(a)) for n, a in events.items()) if ok}
            assert small.events == want_events
            want_parts = {
                name: {lifted(b)[0] for b in part.blocks}
                for name, part in partitions.items()
                if all(lifted(b)[1] for b in part.blocks)
            }
            assert {name: set(part.blocks) for name, part in small.partitions.items()} == want_parts
            want_vars = {}
            for name, rv in variables.items():
                table = {}
                if all(table.setdefault(sp.restrict(o, coords), rv(o)) == rv(o) for o in outcomes):
                    want_vars[name] = table
            assert {name: dict(rv.values) for name, rv in small.variables.items()} == want_vars
            # marginalizing twice keeps the same named objects, on the same space, as marginalizing once
            fewer = frozenset(pick.sample(sorted(coords), pick.randint(1, len(coords))))
            assert dumps_document(marginalize_document(small, fewer)) == dumps_document(marginalize_document(doc, fewer))
            survived = len(want_events) + len(want_parts) + len(want_vars)
            seen["survived"] += survived
            seen["dropped"] += len(events) + len(partitions) + len(variables) - survived
    assert seen["survived"] >= 100 and seen["dropped"] >= 100, seen


def _level_variable(space, values):
    levels = {}
    for o, v in values.items():
        levels.setdefault(v, set()).add(o)
    return RandomVariable(space, values, Partition(space, tuple(frozenset(s) for s in levels.values())))


def test_document_from_space_round_trip(insurance):
    doc = document_from_space(insurance)
    rebuilt = to_causal_space(parse_document(json.loads(dumps_document(doc))))
    assert rebuilt.same_as(insurance)


def test_named_measures_round_trip(insurance_doc):
    data = serialize_document(insurance_doc)
    data["measures"] = {"q_even": {"coords": "ins", "weights": {"Y": "1/2", "N": "1/2"}}}
    doc = parse_document(data)
    q = doc.named_measure("q_even")
    assert q.weights == {("Y",): F(1, 2), ("N",): F(1, 2)}
    assert dumps_document(parse_document(json.loads(dumps_document(doc)))) == dumps_document(doc)


def test_kernel_subset_given_twice_is_refused():
    # two spellings of one subset used to keep only the second table
    base = {
        "coordinates": [{"id": "a", "labels": ["x", "y"]}, {"id": "b", "labels": ["u", "v"]}],
        "measure": {"x,u": "1"},
    }
    point = {"x,u": {"x,u": "1"}, "x,v": {"x,v": "1"}, "y,u": {"y,u": "1"}, "y,v": {"y,v": "1"}}
    empty = {"": {"x,u": "1"}}
    for kernels, second in (({"a,b": point, "b,a": point}, "b,a"), ({"": empty, ",": empty}, ",")):
        with pytest.raises(DocumentError) as err:
            parse_document({**base, "kernels": kernels}, "doc")
        assert err.value.location == f"doc.kernels[{second}]" and "duplicate kernel subset" in str(err.value)
    assert parse_document({**base, "kernels": {"a,b": point}}).kernels.keys() == {frozenset("ab")}


def test_documents_and_spaces_share_kernel_objects(insurance, insurance_doc):
    """Parsing builds each kernel once; building the space and snapshotting it pass the same objects on."""
    assert insurance.kernels.keys() == insurance_doc.kernels.keys()
    assert all(insurance.kernels[s] is insurance_doc.kernels[s] for s in insurance_doc.kernels)
    seen = set()
    spaces = [insurance] + [
        gen_random_space(GenConfig(seed=seed, max_coords=4, max_labels=2, kernel_mode=mode))
        for seed in range(700, 720)
        for mode in ("full", "partial")
    ]
    for cs in spaces:
        doc = document_from_space(cs)
        assert list(doc.kernels) == list(cs.kernel_subsets())
        assert all(doc.kernels[s] is cs.kernels[s] for s in doc.kernels)
        text = dumps_document(doc)
        parsed = parse_document(json.loads(text))
        built = to_causal_space(parsed)
        assert built.kernels.keys() == parsed.kernels.keys()
        assert all(built.kernels[s] is parsed.kernels[s] for s in parsed.kernels)
        assert built.same_as(cs)
        assert dumps_document(parsed) == text and dumps_document(document_from_space(built)) == text
        full = len(cs.kernels) == 2 ** len(cs.space.ids) - 1
        seen.add((len(cs.space.ids), full))
    assert {(n, full) for n in range(1, 5) for full in (True, False)} <= seen


@pytest.mark.parametrize("weights", [{"Y": "1", "N": "1"}, {"Y": "3/2", "N": "-1/2"}, {}], ids=["sum-2", "negative", "empty"])
def test_named_measure_must_be_a_probability_measure(insurance_doc, weights):
    data = serialize_document(insurance_doc)
    data["measures"] = {"bad": {"coords": "ins", "weights": weights}}
    with pytest.raises(DocumentError) as err:
        parse_document(data, "doc")
    assert err.value.location == "doc.measures[bad].weights"


def test_empty_label_is_refused():
    # on a one-coordinate subspace the cell "" is the empty outcome: this kernel's filled row ("",) would
    # serialize as "" and fail to parse again
    data = {
        "coordinates": [{"id": "a", "labels": ["", "x"]}, {"id": "b", "labels": ["u", "v"]}],
        "measure": {"x,u": "1"},
        "kernels": {"a": {"x": {"x,u": "1"}}},
    }
    with pytest.raises(DocumentError, match="labels must be nonempty") as err:
        parse_document(data, "doc")
    assert err.value.location == "doc.coordinates[0]"


# A supplied empty-subset kernel is part of the stored family: it is written
# out, marginalized and compared like any other, so re-emission keeps it.

_CONFLICT = {
    "coordinates": [{"id": "a", "labels": ["x", "y"]}],
    "measure": {"x": "1"},
    "kernels": {"": {"": {"y": "1"}}},
}
_CONSISTENT = {
    "coordinates": [{"id": "a", "labels": ["x", "y"]}, {"id": "b", "labels": ["u", "v"]}],
    "measure": {"x,u": "1/4", "y,v": "3/4"},
    "kernels": {"": {"": {"x,u": "1/4", "y,v": "3/4"}}, "a": {"x": {"x,u": "1"}, "y": {"y,v": "1"}}},
}


def _cee(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_reemission_keeps_an_observational_conflict(tmp_path, capsys):
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(_CONFLICT))
    assert _cee(capsys, "validate", str(path))[0] == 1
    again = tmp_path / "again.json"
    again.write_text(dumps_document(load_document(path)))
    code, out = _cee(capsys, "validate", str(again))
    assert code == 1 and "observational-conflict" in out


def test_supplied_empty_kernel_is_a_fixed_point_of_reemission(tmp_path, capsys):
    first = dumps_document(parse_document(_CONSISTENT))
    assert json.loads(first)["kernels"][""] == {"": {"x,u": "1/4", "y,v": "3/4"}}
    assert dumps_document(parse_document(json.loads(first))) == first
    path = tmp_path / "consistent.json"
    path.write_text(first)
    assert _cee(capsys, "marginalize", str(path), "--coords", "a,b") == (0, first)


def test_supplied_empty_kernel_survives_the_library_paths():
    cs = to_causal_space(parse_document(_CONFLICT))
    empty = frozenset()
    assert document_from_space(cs).kernels[empty] is cs.kernels[empty]
    assert marginalize(cs, {"a"}).kernels[empty].rows == cs.kernels[empty].rows
    without = CausalSpace(cs.space, cs.observational)
    assert not cs.same_as(without) and not without.same_as(cs)
    assert cs.same_as(to_causal_space(parse_document(_CONFLICT)))


# Refusals carry the location of the document entry they come from.

_TWO = {
    "coordinates": [{"id": "a", "labels": ["x", "y"], "values": ["0", "1"]}, {"id": "b", "labels": ["u", "v"]}],
    "measure": {"x,u": "1/4", "x,v": "1/4", "y,u": "1/4", "y,v": "1/4"},
    "events": {"ax": {"a": "x"}},
}


def _two(**sections) -> dict:
    data = json.loads(json.dumps(_TWO))
    data.update(sections)
    return data


LOCATED_REFUSALS = {
    "kernel-subset": (_two(kernels={"a,zz": {}}), "doc.kernels[a,zz]", "unknown coordinate ids: ['zz']"),
    "event-predicate": (_two(events={"e": {"zz": "x"}}), "doc.events[e]", "unknown coordinate ids: ['zz']"),
    "partition-blocks": (_two(partitions={"p": {"blocks": [["x,u"]]}}), "doc.partitions[p]", "partition blocks do not cover the space"),
    "variable-coord": (_two(variables={"v": {"coord": "nope"}}), "doc.variables[v]", "unknown coordinate ids: ['nope']"),
    "variable-no-values": (_two(variables={"v": {"coord": "b"}}), "doc.variables[v]", "coordinate 'b' has no numeric label values"),
    "coordinate": (_two(coordinates=[{"id": "a", "labels": ["x", "x"]}]), "doc.coordinates[0]", "coordinate 'a' has duplicate labels"),
    "space": (_two(coordinates=[{"id": "a", "labels": ["x"]}, {"id": "a", "labels": ["y"]}]), "doc.coordinates", "coordinate ids are not distinct"),
    "named-measure": (_two(measures={"m": {"coords": "a", "weights": {"x": "1/2"}}}), "doc.measures[m].weights", "weights sum to 1/2, expected exactly 1"),
    "named-measure-cell": (_two(measures={"m": {"coords": "a", "weights": {"z": "1"}}}), "doc.measures[m].weights[z]", "cell 'z': 'z' is not a label of coordinate 'a'"),
}


@pytest.mark.parametrize("data, location, message", LOCATED_REFUSALS.values(), ids=LOCATED_REFUSALS.keys())
def test_refusals_are_located(data, location, message):
    with pytest.raises(DocumentError) as err:
        parse_document(data, "doc")
    assert err.value.location == location
    assert str(err.value) == f"{location}: {message}"


def test_unknown_coordinate_variable_names_the_id():
    space = parse_document(_TWO).space
    with pytest.raises(ValueError, match=re.escape("unknown coordinate ids: ['nope']")):
        RandomVariable.from_coordinate(space, "nope")


# The generators partition form: named events, inline events, or none at all.


def test_generators_partition_forms():
    gens = {
        "named": ["ax"],
        "predicate": [{"b": "u"}],
        "cells": [["x,u", "y,v"]],
        "empty": [],
        "mixed": ["ax", {"b": "u"}],
        "mixed_reversed": [{"b": "u"}, "ax"],
    }
    doc = parse_document(_two(partitions={name: {"generators": g} for name, g in gens.items()}))
    sp = doc.space
    ax, bu = sp.where(a="x"), sp.where(b="u")
    expected = {
        "named": generated_algebra(sp, [ax]),
        "predicate": generated_algebra(sp, [bu]),
        "cells": Partition(sp, (frozenset({("x", "u"), ("y", "v")}), frozenset({("x", "v"), ("y", "u")}))),
        "empty": Partition(sp, (sp.all_event(),)),
        "mixed": coordinate_subalgebra(sp, {"a", "b"}),
        "mixed_reversed": coordinate_subalgebra(sp, {"a", "b"}),
    }
    assert doc.partitions == expected
    assert doc.partitions["named"] == coordinate_subalgebra(sp, {"a"})
    # serialization writes every partition as its blocks, and they parse back to the same partitions
    text = dumps_document(doc)
    partitions = json.loads(text)["partitions"]
    assert all(set(spec) == {"blocks"} for spec in partitions.values())
    assert partitions["empty"] == {"blocks": [["x,u", "x,v", "y,u", "y,v"]]}
    again = parse_document(json.loads(text))
    assert again.partitions == expected
    assert dumps_document(again) == text


def test_generators_refuse_a_name_that_is_not_an_event():
    with pytest.raises(DocumentError) as err:
        parse_document(_two(partitions={"p": {"generators": ["ax", "missing"]}}), "doc")
    assert err.value.location == "doc.partitions[p][1]"
    assert "'missing'" in str(err.value) and "'events'" in str(err.value)
