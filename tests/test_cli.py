import json
import time
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from causalspaces import cli
from causalspaces.cli import main
from causalspaces.document import document_from_space, dumps_document, load_document, to_causal_space
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.kernels import is_marginalization_of

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(insurance_path, capsys):
    code, out, _ = run(capsys, "validate", insurance_path)
    assert code == 0
    assert "ok: True" in out


def test_validate_reports_corruption(insurance_path, tmp_path, capsys):
    data = json.loads(dumps_document(load_document(insurance_path)))
    data["kernels"]["ins"]["Y"]["N,Y,30"] = "1/10"
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(target))
    assert code == 1
    assert "row-sum" in out


def test_effect_active_example(insurance_path, capsys):
    code, out, _ = run(capsys, "effect", insurance_path, "--active", "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000")
    assert code == 0
    assert "verdict: active" in out
    assert "0 (= 0)" in out and "1/160 (= 0.00625)" in out


def test_effect_conditional_examples(insurance_path, capsys):
    code, out, _ = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000", "--given", "dan=N")
    assert code == 0 and "verdict: no-effect" in out
    code, out, _ = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000", "--given", "dan=H")
    assert code == 0 and "verdict: active" in out
    code, out, _ = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000", "--given", "dan=N,ins=Y,pay=0")
    assert code == 2 and "undetermined" in out


def test_effect_named_event_and_sigma_target(insurance_path, capsys):
    code, out, _ = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--event", "pays1000")
    assert code == 0 and "verdict: active" in out
    code, out, _ = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--sigma", "by_pay")
    assert code == 0 and "verdict: active" in out


def test_classify_partial_family(insurance_path, capsys):
    # an active verdict is reachable with only the insurance kernel ...
    code, out, _ = run(capsys, "classify", insurance_path, "-U", "ins", "--omega", "ins=Y,dan=N,pay=0", "--event", "pays1000")
    assert code == 0 and "verdict: active" in out
    # ... but a non-active query needs the full family and names the gap
    code, _, err = run(capsys, "classify", insurance_path, "-U", "ins", "--omega", "ins=Y,dan=N,pay=0", "--event", "pay=0|30|1000")
    assert code == 3
    assert "dan" in err


def test_classify_dormant_space(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--dormant")
    assert code == 0
    doc_path = tmp_path / "copy.json"
    doc_path.write_text(out)
    code, out, _ = run(
        capsys, "classify", str(doc_path), "-U", "c1", "--omega", "c1=0,c2=1", "--subject", "c1=0", "--event", "c1=0,c2=0"
    )
    assert code == 4  # both --omega and --subject is a usage error
    code, out, _ = run(capsys, "classify", str(doc_path), "-U", "c1", "--omega", "c1=0,c2=1", "--event", "c1=0|1,c2=0|1")
    assert code == 0
    # the diagonal event needs an extensional spec, so pass it via a predicate pair
    data = json.loads(doc_path.read_text())
    data["events"] = {"diag": ["0,0", "1,1"]}
    doc_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "classify", str(doc_path), "-U", "c1", "--omega", "c1=0,c2=1", "--event", "diag")
    assert code == 0 and "verdict: dormant" in out


def test_effect_post_intervention_flag(tmp_path, capsys):
    _, doc_text, _ = run(capsys, "gen", "--dormant")
    path = tmp_path / "copy.json"
    path.write_text(doc_text)
    code, out, _ = run(capsys, "effect", str(path), "-U", "c1", "-V", "c2", "--omega", "c1=0,c2=1", "--event", "c2=0")
    assert code == 0 and "verdict: no-effect" in out
    code, out, _ = run(capsys, "effect", str(path), "-U", "c1", "-V", "c2", "--omega", "c1=0,c2=1", "--event", "c1=0")
    assert code == 0 and "verdict: active" in out
    # an empty -V reduces to the marginal active check
    code, out, _ = run(capsys, "effect", str(path), "-U", "c1", "-V", "", "--omega", "c1=0,c2=1", "--event", "c2=0")
    assert code == 0 and "verdict: active" in out


def test_score_examples(insurance_path, capsys):
    code, out, _ = run(capsys, "score", insurance_path, "-U", "ins", "--Q", "delta:ins=N", "--event", "pay=1000", "--scale", "f1")
    assert code == 0
    assert "score: 7/800 (= 0.00875)" in out
    code, out, _ = run(
        capsys, "score", insurance_path, "-U", "ins", "--Q", "delta:ins=Y", "--sigma", "by_pay",
        "--diff", "mean+var", "--rv", "payment", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    values = [F(entry["fraction"]) for entry in report["score"]]
    assert values == [F("8.45"), F("-6244.5975")]


def test_score_zero_for_empty_intervention(insurance_path, capsys):
    code, out, _ = run(capsys, "score", insurance_path, "--event", "pay=1000", "--scale", "f1")
    assert code == 0 and "score: 0 (= 0)" in out


def test_score_max_reports_argmax(insurance_path, capsys):
    code, out, _ = run(capsys, "score", insurance_path, "-U", "ins", "--max", "--event", "pay=1000", "--scale", "f1")
    assert code == 0
    assert "argmax: N,N,0" in out and "tied: False" in out


def test_marginalize_all_is_normalization(insurance_path, capsys):
    code, out, _ = run(capsys, "marginalize", insurance_path, "--coords", "dan,ins,pay")
    assert code == 0
    assert out == dumps_document(load_document(insurance_path))


def test_marginalize_round_trip(insurance_path, tmp_path, capsys):
    code, out, _ = run(capsys, "marginalize", insurance_path, "--coords", "ins,pay")
    assert code == 0
    emitted = tmp_path / "small.json"
    emitted.write_text(out)
    code2, out2, _ = run(capsys, "validate", str(emitted))
    assert code2 == 0
    small = to_causal_space(load_document(emitted))
    assert small.observational(small.space.where(pay="1000")) == F(1, 160)
    assert is_marginalization_of(small, to_causal_space(load_document(insurance_path)))


def test_intervene_emits_valid_document(insurance_path, tmp_path, capsys):
    code, out, _ = run(capsys, "intervene", insurance_path, "-U", "ins", "--Q", "delta:ins=Y")
    assert code == 0
    target = tmp_path / "intervened.json"
    target.write_text(out)
    code2, _, _ = run(capsys, "validate", str(target))
    assert code2 == 0
    new = to_causal_space(load_document(target))
    base = to_causal_space(load_document(insurance_path))
    assert new.observational.weights == base.kernel(frozenset({"ins"})).rows[("Y",)]


def test_gen_is_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "--seed", "11", "--max-labels", "2")
    _, second, _ = run(capsys, "gen", "--seed", "11", "--max-labels", "2")
    assert first == second
    _, third, _ = run(capsys, "gen", "--seed", "12", "--max-labels", "2")
    assert first != third


def test_gen_null_effect_and_screened(capsys, tmp_path):
    for argv in (["gen", "--seed", "3", "--null-effect", "c0"], ["gen", "--seed", "3", "--screened"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "g.json"
        path.write_text(out)
        assert run(capsys, "validate", str(path))[0] == 0


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 4
    assert "parse error" in err


def test_malformed_weight_is_parse_error(insurance_path, tmp_path, capsys):
    data = json.loads(dumps_document(load_document(insurance_path)))
    data["measure"]["N,Y,30"] = "0.0x1"
    target = tmp_path / "weird.json"
    target.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", str(target))
    assert code == 4 and "malformed rational" in err


def test_wrongly_typed_sections_exit_4(tmp_path, capsys):
    base = {"coordinates": [{"id": "a", "labels": ["x", "y"]}], "measure": {"x": "1/2", "y": "1/2"}}
    for section, value in (
        ("kernels", []),
        ("partitions", {"p": {"blocks": 5}}),
        ("variables", {"v": {"values": []}}),
        ("coordinates", [{"id": "a", "labels": "xy"}]),
    ):
        target = tmp_path / f"{section}.json"
        target.write_text(json.dumps({**base, section: value}))
        code, _, err = run(capsys, "validate", str(target))
        assert code == 4 and "parse error" in err, (section, err)


def test_huge_exponent_is_refused_fast(insurance_path, tmp_path, capsys):
    data = json.loads(dumps_document(load_document(insurance_path)))
    data["measure"]["N,Y,30"] = "1e400000000"
    target = tmp_path / "huge.json"
    target.write_text(json.dumps(data))
    start = time.perf_counter()
    code, _, err = run(capsys, "validate", str(target))
    assert time.perf_counter() - start < 0.5
    assert code == 4 and "exponent" in err


def test_usage_error_exit_code(insurance_path, capsys):
    code, _, err = run(capsys, "effect", insurance_path, "-U", "ins", "--event", "pay=1000")
    assert code == 4  # no subject given
    code, _, _ = run(capsys, "score", insurance_path, "-U", "ins", "--event", "pay=1000")
    assert code == 4  # missing --Q


def test_block_cap_env_override(insurance_path, capsys, monkeypatch):
    monkeypatch.setenv("CEE_BLOCK_CAP", "2")
    code, _, err = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--sigma", "by_pay")
    assert code == 4
    assert "exceeding the cap" in err
    monkeypatch.setenv("CEE_BLOCK_CAP", "16")
    code, _, _ = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--sigma", "by_pay")
    assert code == 0


def test_json_reports_are_deterministic(insurance_path, capsys):
    argv = ("effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    report = json.loads(first)
    assert report["compared"][0]["rhs"]["fraction"] == "1/160"
    assert F(report["compared"][0]["rhs"]["fraction"]) == F(1, 160)


def test_one_parser_serves_every_request_like_a_fresh_one(insurance_path, capsys, monkeypatch):
    request = ("effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000", "--format", "json")
    calls = [
        ("150", ("effect",)),
        ("52", ("--help",)),
        ("52", ("effect", "--help")),
        ("150", ("effect", "--help")),
        (None, request),
        (None, request),
    ]

    def run_all():
        out = []
        for columns, argv in calls:
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            out.append(run(capsys, *argv))
        return out

    cli._parser.cache_clear()
    shared = run_all()
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    fresh = run_all()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [4, 0, 0, 0, 0, 0]
    narrow, wide = shared[2][1], shared[3][1]
    assert narrow != wide and max(map(len, narrow.splitlines())) <= 52 < max(map(len, wide.splitlines()))
    assert shared[4] == shared[5]


# JSON-shaped documents: generated valid ones, then at most two weights or places replaced
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["", "0", "1", "c0", "0,1", "1/2", "-1/2", "0.5", "1e400000000", "1/0", "x", "١", "+1", " 1"]),
)
JSON_SHAPES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["0", "1", "c0", "id", "labels", "0,1"]), inner, max_size=3),
    max_leaves=8,
)


def _places(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _places(child, path + (key,))


@st.composite
def fuzzed_documents(draw):
    cfg = GenConfig(
        seed=draw(st.integers(0, 10**6)),
        max_coords=draw(st.integers(1, 3)),
        max_labels=draw(st.integers(2, 3)),
        kernel_mode=draw(st.sampled_from(["full", "partial"])),
    )
    data = json.loads(dumps_document(document_from_space(gen_random_space(cfg))))
    for edit in draw(st.lists(st.sampled_from(["weight", "shape"]), max_size=2)):
        places = list(_places(data))
        if edit == "weight":  # a parseable but possibly wrong weight, where one stands
            places = [p for p in places if p[:1] in (("measure",), ("kernels",)) and len(p) in (2, 4)]
            value = str(draw(st.fractions(min_value=-1, max_value=2, max_denominator=16)))
        else:
            value = draw(JSON_SHAPES)
        if not places:
            continue
        path = draw(st.sampled_from(places))
        if not path:
            data = value
            continue
        node = data
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return data


VALIDATE_SECONDS = 2.0  # per request; the largest fuzzed document has 27 outcomes


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_documents())
def test_validate_exit_codes_under_fuzzed_documents(tmp_path, capsys, data):
    """Every JSON-shaped document gets exit 0, 1 or 4 from `cee validate`, fast, with no traceback."""
    target = tmp_path / "fuzzed.json"
    target.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(target))
    assert time.perf_counter() - start < VALIDATE_SECONDS
    assert code in (0, 1, 4), (code, err)
    assert "Traceback" not in out + err
    assert (code == 4) == err.startswith("parse error"), err
