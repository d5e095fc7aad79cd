import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from causalspaces.document import (
    MAX_RATIONAL_DIGITS,
    MAX_RATIONAL_EXPONENT,
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
from causalspaces.kernels import validate

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


def test_marginalize_document_carries_surviving_names(insurance_doc):
    small = marginalize_document(insurance_doc, {"ins", "pay"})
    assert set(small.events) == {"pays1000"}
    assert set(small.partitions) == {"by_ins", "by_pay"}
    assert set(small.variables) == {"payment"}
    assert small.space.ids == ("ins", "pay")
    assert to_causal_space(small).observational(small.space.where(pay="1000")) == F(1, 160)


def test_marginalize_document_identity(insurance_doc):
    full = marginalize_document(insurance_doc, set(insurance_doc.space.ids))
    assert dumps_document(full) == dumps_document(insurance_doc)


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
