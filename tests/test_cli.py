import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import causalspaces
from causalspaces import cli
from causalspaces.cli import main
from causalspaces.document import (
    MAX_OUTCOMES,
    document_from_space,
    dumps_document,
    load_document,
    name_fault,
    parse_document,
    serialize_document,
    to_causal_space,
)
from causalspaces.errors import DocumentError
from causalspaces.generators import GenConfig, gen_dormant_space, gen_random_space
from causalspaces.kernels import is_marginalization_of, validate
from causalspaces.oracle import _mass
from causalspaces.space import Coordinate, Partition, ProductSpace, coordinate_subalgebra

from sweeps import uniform_space

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


def test_subset_flags_strip_their_pieces_like_the_constraint_flags(insurance_path, capsys):
    # -U reads "ins, dan" as {ins, dan}, as --omega reads " ins = Y , dan=L"; the fixture has no kernel on it
    spaced = run(capsys, "effect", insurance_path, "-U", "ins, dan", "--omega", " ins = Y , dan=L", "--event", "pay=1000")
    plain = run(capsys, "effect", insurance_path, "-U", "ins,dan", "--omega", "ins=Y,dan=L", "--event", "pay=1000")
    assert spaced == plain and spaced[0] == 3
    spaced = run(capsys, "effect", insurance_path, "--active", "-U", " ins ,", "--omega", "ins=Y", "--event", "pay=1000")
    assert spaced == run(capsys, "effect", insurance_path, "--active", "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000")
    assert spaced[0] == 0 and "verdict: active" in spaced[1]
    code, out, _ = run(capsys, "marginalize", insurance_path, "--coords", "ins , pay")
    assert code == 0 and out == run(capsys, "marginalize", insurance_path, "--coords", "ins,pay")[1]


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


@pytest.mark.parametrize("content", [None, "[" * 200000 + "]" * 200000], ids=["missing-file", "nested-too-deep"])
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, content):
    target = tmp_path / "input.json"
    if content is not None:
        target.write_text(content)
    code, out, err = run(capsys, "validate", str(target))
    assert code == 4 and out == ""
    assert err.startswith(f"parse error: {target}") and "Traceback" not in err


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


@pytest.mark.parametrize("flags, message", [
    (["--Q", "delta:ins=Y", "--omega", "ins=N", "--event", "pay=1000"], "--omega and --subject give the subject of --max"),
    (["--Q", "delta:ins=Y", "--subject", "pays1000", "--event", "pay=1000"], "--omega and --subject give the subject of --max"),
    (["--max", "--Q", "delta:ins=N", "--event", "pay=1000"], "--max takes no --Q"),
    (["--Q", "uniform", "--rv", "payment", "--event", "pay=1000"], "--rv is read with --sigma"),
    (["--Q", "uniform", "--event", "pay=1000", "--diff", "tv"], "--diff is read with --sigma"),
    (["--Q", "uniform", "--sigma", "by_pay", "--scale", "f2"], "--scale is read with --event"),
    (["--Q", "uniform", "--sigma", "by_pay", "--rv", "payment", "--diff", "tv"], "--diff tv reads no --rv"),
    (["--Q", "uniform", "--sigma", "by_pay", "--rv", "nosuch"], "unknown variable 'nosuch'"),
])
def test_score_refuses_a_flag_its_score_would_not_read(insurance_path, capsys, flags, message):
    code, out, err = run(capsys, "score", insurance_path, "-U", "ins", *flags)
    assert code == 4 and out == ""
    assert err.startswith("usage error") and message in err


def test_block_cap_env_override(insurance_path, capsys, monkeypatch):
    monkeypatch.setenv("CEE_BLOCK_CAP", "2")
    code, _, err = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--sigma", "by_pay")
    assert code == 4
    assert "exceeding the cap" in err
    monkeypatch.setenv("CEE_BLOCK_CAP", "16")
    code, _, _ = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--sigma", "by_pay")
    assert code == 0
    # a negative cap is a usage error, not a cap every partition exceeds
    monkeypatch.setenv("CEE_BLOCK_CAP", "-3")
    code, out, err = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--sigma", "by_pay")
    assert code == 4
    assert "CEE_BLOCK_CAP must be a nonnegative integer" in err
    assert "exceeding the cap" not in err and out == ""
    monkeypatch.setenv("CEE_BLOCK_CAP", "abc")
    code, out, err = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--sigma", "by_pay")
    assert code == 4 and out == ""
    assert err.startswith("usage error: CEE_BLOCK_CAP must be an integer, got 'abc'")
    monkeypatch.setenv("CEE_BLOCK_CAP", "0")
    code, _, err = run(capsys, "effect", insurance_path, "-U", "ins", "--omega", "ins=Y", "--sigma", "by_pay")
    assert code == 4
    assert "exceeding the cap of 0" in err


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


def _literal_row(doc, coords, cell):
    """The raw row table of the kernel on `coords` at the assignment `cell` (coordinate -> label)."""
    if not coords:
        return doc.measure_table
    return doc.kernels[coords].rows[tuple(cell[c] for c in doc.space.ordered(coords))]


def _literal_ratio(t1, t2, g, a):
    d1, d2 = _mass(t1, g), _mass(t2, g)
    if d1 > 0 and d2 > 0:
        return {"lhs": _mass(t1, g & a) / d1, "rhs": _mass(t2, g & a) / d2}
    return {"undefined": True}


def _exact(entry):
    return {k: (v if k == "undefined" else Fraction(v["fraction"])) for k, v in entry.items() if k in ("lhs", "rhs", "undefined")}


def test_effect_compared_section_matches_raw_rows(tmp_path, capsys):
    """Each `compared` entry of `cee effect --format json` equals its definition, summed from the raw rows."""
    rng = random.Random(6101)
    seen = Counter()
    for trial in range(24):
        cs = gen_random_space(GenConfig(seed=6101 + trial, max_coords=3, max_labels=3, kernel_mode="partial" if trial % 4 == 3 else "full"))
        sp = cs.space
        ids, outcomes = list(sp.ids), list(sp.outcomes)
        # a partition with null blocks, blocks of zero observational mass among them
        null = [o for o in outcomes if cs.observational.of(o) == 0]
        blocks = [frozenset(null), frozenset(outcomes) - frozenset(null)] if null else [frozenset(outcomes)]
        events = {"subj": frozenset(rng.sample(outcomes, rng.randint(2, len(outcomes)))) if len(outcomes) > 1 else frozenset(outcomes)}
        path = tmp_path / f"doc{trial}.json"
        partitions = {"coarse": coordinate_subalgebra(sp, rng.sample(ids, 1)), "nulls": Partition(sp, tuple(b for b in blocks if b))}
        path.write_text(dumps_document(document_from_space(cs, events, partitions)))
        doc = load_document(path)
        for _ in range(12):
            u = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            a = frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes))))
            doc.events["target"] = a
            path.write_text(dumps_document(doc))
            mode = rng.choice(["plain", "event", "partition", "post"])
            argv = ["effect", str(path), "-U", ",".join(sorted(u)), "--subject", "subj", "--event", "target", "--format", "json"]
            given = post = None
            if mode == "event":
                given = frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes))))
                doc.events["g"] = given
                path.write_text(dumps_document(doc))
                argv += ["--given", "g"]
            elif mode == "partition":
                name = rng.choice(sorted(partitions))
                given = doc.partitions[name]
                argv += ["--given", name]
            elif mode == "post":
                post = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
                argv += ["-V", ",".join(sorted(post))]
            code, out, err = run(capsys, *argv)
            if code == 3:  # a kernel the active check reads is missing
                continue
            assert code in (0, 2), err
            compared = json.loads(out)["compared"]
            keys = sorted({sp.restrict(o, u) for o in events["subj"]}, key=sp.subspace(u).outcome_index.__getitem__)
            assert [e["row"] for e in compared] == [",".join(k) for k in keys]
            for key, entry in zip(keys, compared):
                cell = dict(zip(sp.ordered(u), key))
                if post is not None:
                    free = sp.ordered(post - u)
                    parts = list(product(*(sp.coordinate(c).labels for c in free)))
                    assert [c["fixed"] for c in entry["comparisons"]] == [",".join(p) for p in parts]
                    for part, item in zip(parts, entry["comparisons"]):
                        joint = {**cell, **dict(zip(free, part))}
                        want = {"lhs": _mass(_literal_row(doc, u | post, joint), a), "rhs": _mass(_literal_row(doc, post, joint), a)}
                        assert _exact(item) == want
                    continue
                row, p = _literal_row(doc, u, cell), doc.measure_table
                if isinstance(given, Partition):
                    assert [c["block"] for c in entry["comparisons"]] == [[",".join(o) for o in sp.sort_event(b)] for b in given.blocks]
                    for b, item in zip(given.blocks, entry["comparisons"]):
                        assert _exact(item) == _literal_ratio(row, p, b, a)
                        seen["undefined block" if "undefined" in item else "block"] += 1
                elif given is not None:
                    assert _exact(entry) == _literal_ratio(row, p, given, a)
                else:
                    assert _exact(entry) == {"lhs": _mass(row, a), "rhs": _mass(p, a)}
            seen[mode] += 1
            seen["multi-key"] += len(keys) > 1
            seen["empty U"] += not u
    assert min(seen.values()) >= 5, seen


def test_effect_post_report_needs_no_kernel_on_u(tmp_path, capsys):
    """A post-intervention report reads the kernels on U+V and V only, as its verdict does."""
    doc = document_from_space(gen_dormant_space())
    del doc.kernels[frozenset({"c1"})]
    path = tmp_path / "partial.json"
    path.write_text(dumps_document(doc))
    code, out, err = run(capsys, "effect", str(path), "-U", "c1", "-V", "c2", "--omega", "c1=0,c2=1", "--event", "c2=0", "--format", "json")
    assert code == 0, err
    assert [c["fixed"] for c in json.loads(out)["compared"][0]["comparisons"]] == ["0", "1"]
    code, _, err = run(capsys, "effect", str(path), "-U", "c1", "--omega", "c1=0,c2=1", "--event", "c2=0")
    assert code == 3 and "{c1}" in err


# SHA-256 of `cee <command> --help` at COLUMNS=100; the same on Python 3.10 to 3.13
HELP_SHA256 = {
    "validate": "17139cd6cd9d6fc68742aaeffcb54b2a9bb2f81723bb192f23ddc602852bc702",
    "effect": "a1f0ef153d8f1805dfa637edda6d0123a34863bc85bd657f21791e90632c7a33",
    "classify": "a86cc7f50f6273b9ca21fed35ef1ec010ce27e223de7320aa61ad1eec44cafa7",
    "score": "1ab2055892c7fb7796249da1cdad3773d620366cbfc32c4fd1170851d0b5a749",
    "intervene": "7107c5cf0c92f6f1c2be35e7a99832499a5ba4328e11eca316d862a748202af4",
    "marginalize": "533ad9ff6d827cb6437181d81fd52a552d5836a2f3e1b7b98a7a9d020daca9d5",
    "gen": "151b7e58ad8b48dee262e353c8a5d2425a418c4ec9b08cae03365e3b22775b06",
}


def test_subcommand_help_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    for command, digest in HELP_SHA256.items():
        code, out, err = run(capsys, command, "--help")
        assert code == 0 and err == ""
        assert out.rstrip().endswith("--format {text,json}")  # --format closes every option list
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def _refused_quickly(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == "" and "Traceback" not in err
    return err


def test_oversized_space_is_a_parse_error(tmp_path, capsys):
    doc = {"coordinates": [{"id": f"x{i}", "labels": ["0", "1"]} for i in range(40)], "measure": {}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate"], ["classify", "-U", "x0", "--omega", "x0=0", "--event", "x1=1"], ["marginalize", "--coords", "x0"]):
        err = _refused_quickly(capsys, argv[0], str(path), *argv[1:])
        assert err.startswith("parse error:") and ".coordinates:" in err and "1099511627776 outcomes" in err


def test_many_one_label_coordinates_are_a_parse_error(tmp_path, capsys):
    # one outcome, but 2**40 coordinate subsets: classify used to build them all and crash
    n = 40
    zeros = ",".join("0" * n)
    doc = {
        "coordinates": [{"id": f"x{i}", "labels": ["0"]} for i in range(n)],
        "measure": {zeros: "1"},
        "kernels": {"x0": {"0": {zeros: "1"}}},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["validate"],
        ["classify", "-U", "x0", "--omega", "x0=0", "--event", "x1=0"],
        ["intervene", "-U", "x0", "--Q", "delta:x0=0"],
        ["marginalize", "--coords", "x0"],
    ):
        err = _refused_quickly(capsys, argv[0], str(path), *argv[1:])
        assert err.startswith("parse error:") and ".coordinates:" in err and "40 coordinates" in err
    limit = MAX_OUTCOMES.bit_length() - 1
    parse_document({"coordinates": [{"id": f"x{i}", "labels": ["0"]} for i in range(limit)]})
    with pytest.raises(DocumentError) as raised:
        parse_document({"coordinates": [{"id": f"x{i}", "labels": ["0"]} for i in range(limit + 1)]}, "doc")
    assert raised.value.location == "doc.coordinates"


def test_kernel_subset_given_twice_exits_4(tmp_path, capsys):
    data = json.loads(dumps_document(document_from_space(gen_dormant_space())))
    data["kernels"]["c2,c1"] = data["kernels"]["c1,c2"]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    err = _refused_quickly(capsys, "validate", str(path))
    assert err.startswith("parse error:") and ".kernels[c2,c1]:" in err and "duplicate kernel subset" in err


def test_gen_dormant_reads_no_size_flag(capsys):
    code, want, _ = run(capsys, "gen", "--dormant")
    assert code == 0 and want
    for argv in (["--max-coords", "0"], ["--denom-bound", "0"], ["--max-labels", "0"], ["--max-coords", "0", "--denom-bound", "0"]):
        assert run(capsys, "gen", "--dormant", *argv) == (0, want, "")


@pytest.mark.parametrize(
    "flags",
    [
        ["--screened", "--null-effect", "c0"],
        ["--dormant", "--screened"],
        ["--dormant", "--null-effect", "c0"],
        ["--null-effect", "c0", "--dormant", "--screened"],
    ],
)
def test_gen_refuses_two_constructions(capsys, flags):
    err = _refused_quickly(capsys, "gen", *flags)
    named = [flag for flag in ("--dormant", "--screened", "--null-effect") if flag in flags]
    assert err == f"usage error: {', '.join(named)}: choose at most one construction\n"


def test_a_request_reads_a_piped_document_through_dev_stdin(capsys, tmp_path):
    """``cee gen --dormant | cee classify /dev/stdin ...`` in a fresh process reports what the request on a file does."""
    src = str(Path(causalspaces.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    path = tmp_path / "dormant.json"
    path.write_text(dumps_document(document_from_space(gen_dormant_space())))
    query = ["-U", "c1", "--omega", "c1=0,c2=1", "--event", "c1=0,c2=0"]
    piped = subprocess.run(
        [sys.executable, "-m", "causalspaces.cli", "classify", "/dev/stdin", *query],
        input=path.read_text(), env=env, capture_output=True, text=True, timeout=60,
    )
    assert (piped.returncode, piped.stdout, piped.stderr) == run(capsys, "classify", str(path), *query)
    assert piped.stdout.endswith("\nverdict: active\n")


def test_document_outcome_limit_is_inclusive():
    binary = MAX_OUTCOMES.bit_length() - 1  # 2**binary == MAX_OUTCOMES
    assert 2**binary == MAX_OUTCOMES
    doc = parse_document({"coordinates": [{"id": f"x{i}", "labels": ["0", "1"]} for i in range(binary)]})
    assert len(doc.space) == MAX_OUTCOMES
    with pytest.raises(DocumentError) as raised:
        parse_document({"coordinates": [{"id": f"x{i}", "labels": ["0", "1"]} for i in range(binary)] + [{"id": "y", "labels": ["0", "1", "2"]}]}, "doc")
    assert raised.value.location == "doc.coordinates"


def test_gen_refuses_size_flags_above_the_limit(capsys):
    for argv in (
        ["--max-coords", "40", "--seed", "3"],
        ["--max-coords", "9", "--max-labels", "2"],
        ["--max-coords", "17", "--max-labels", "1"],
        ["--max-coords", str(10**12)],
        ["--max-coords", "2", "--max-labels", "200"],
        ["--screened", "--max-labels", "200"],
        ["--null-effect", "c0", "--max-coords", "40"],
    ):
        err = _refused_quickly(capsys, "gen", *argv)
        assert err.startswith("usage error:") and "65536" in err
    # the copy construction reads no size flag; the screened one reads only --max-labels
    code, out, _ = run(capsys, "gen", "--dormant", "--max-coords", "40")
    assert code == 0 and out
    code, out, _ = run(capsys, "gen", "--screened", "--max-coords", "40", "--seed", "5")
    assert code == 0 and out


def test_effect_rows_follow_declared_label_order(insurance_path, capsys):
    # `ins` declares Y before N, so the report lists the Y row first, not in sorted order
    code, out, _ = run(capsys, "effect", insurance_path, "-U", "ins", "--subject", "ins=N|Y", "--event", "pays1000", "--format", "json")
    assert code == 0
    assert [entry["row"] for entry in json.loads(out)["compared"]] == ["Y", "N"]


def _with_measures(insurance_path, tmp_path, measures) -> str:
    data = json.loads(dumps_document(load_document(insurance_path)))
    data["measures"] = measures
    path = tmp_path / "named.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("weights", [{"Y": "1", "N": "1"}, {"Y": "3/2", "N": "-1/2"}, {}], ids=["sum-2", "negative", "empty"])
def test_validate_refuses_a_named_measure_that_is_no_probability_measure(insurance_path, tmp_path, capsys, weights):
    path = _with_measures(insurance_path, tmp_path, {"bad": {"coords": "ins", "weights": weights}})
    code, out, err = run(capsys, "validate", path)
    assert code == 4 and out == ""
    assert err.startswith("parse error") and ".measures[bad].weights" in err


def test_validate_refuses_an_empty_label(tmp_path, capsys):
    path = tmp_path / "empty-label.json"
    path.write_text(json.dumps({
        "coordinates": [{"id": "a", "labels": ["", "x"]}, {"id": "b", "labels": ["u", "v"]}],
        "measure": {"x,u": "1"},
        "kernels": {"a": {"x": {"x,u": "1"}}},
    }))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 4 and out == ""
    assert err.startswith("parse error") and "labels must be nonempty" in err


@pytest.mark.parametrize("cid, labels, location", [
    ("x=y", ["0", "1"], "coordinates[0].id"),
    (" x", ["0", "1"], "coordinates[0].id"),
    ("x,y", ["0", "1"], "coordinates[0].id"),
    ("x", ["0", "p|q"], "coordinates[0].labels[1]"),
])
def test_validate_refuses_a_name_no_cee_text_can_write(tmp_path, capsys, cid, labels, location):
    path = tmp_path / "name.json"
    path.write_text(json.dumps({"coordinates": [{"id": cid, "labels": labels}], "measure": {"0": "1"}}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 4 and out == ""
    assert err.startswith(f"parse error: {path}.{location}: ")


WELL_FORMED_NAMES = st.sampled_from(["a", "b", "ab", "a b", "b\ta", "a.b"])


@st.composite
def named_spaces(draw):
    """The uniform full family on one or two coordinates, half the time with one name that may break the grammar."""
    def names(n):
        return draw(st.lists(WELL_FORMED_NAMES, min_size=1, max_size=n, unique=True))

    layout = [[cid, *names(2)] for cid in names(2)]  # per coordinate: the id, then the labels
    if draw(st.booleans()):
        row = draw(st.sampled_from(layout))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.text(alphabet="ab,=| \t", max_size=3))
    ids = [row[0] for row in layout]
    labels = [row[1:] for row in layout]
    assume(len(set(ids)) == len(ids) and all(len(set(ls)) == len(ls) for ls in labels))
    return uniform_space(ProductSpace(tuple(Coordinate(cid, tuple(ls)) for cid, ls in zip(ids, labels))))


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(named_spaces())
def test_every_accepted_name_round_trips_and_works_in_cee(tmp_path, capsys, cs):
    text = dumps_document(document_from_space(cs))
    names = [n for c in cs.space.coordinates for n in (c.id, *c.labels)]
    try:
        doc = parse_document(json.loads(text), "doc")
    except DocumentError as exc:
        assert any(name_fault(n) for n in names) and exc.location.startswith("doc.coordinates["), exc
        return
    assert not any(name_fault(n) for n in names)
    assert dumps_document(doc) == text
    path = tmp_path / "named.json"
    path.write_text(text)
    for c in cs.space.coordinates:
        for label in c.labels:
            pinned = f"{c.id}={label}"
            for target in (["--event", pinned], ["--sigma", c.id]):
                code, _, err = run(capsys, "effect", str(path), "-U", c.id, "--omega", pinned, *target)
                assert code == 0, (pinned, target, err)


def test_validate_walks_kernels_in_declared_order(tmp_path, capsys):
    # every row of every kernel is empty, so each kernel reports row-sum faults
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps({
        "coordinates": [{"id": "b", "labels": ["0", "1"]}, {"id": "a", "labels": ["0", "1"]}],
        "measure": {"0,0": "1"},
        "kernels": {"a": {}, "a,b": {}, "b": {}},
    }))
    code, out, _ = run(capsys, "validate", str(path), "--format", "json")
    assert code == 1
    kernels = [v["kernel"] for v in json.loads(out)["violations"]]
    assert list(dict.fromkeys(kernels)) == ["b", "a", "a,b"]
    cs = to_causal_space(load_document(path))
    assert list(dict.fromkeys(v.kernel for v in validate(cs))) == list(cs.kernel_subsets())


def test_requests_build_each_kernel_once(tmp_path, capsys, kernel_constructions):
    # a full family of 5 binary coordinates: 31 kernels
    cs = gen_random_space(GenConfig(seed=307, max_coords=5, max_labels=2))
    assert [len(c.labels) for c in cs.space.coordinates] == [2] * 5 and len(cs.kernels) == 31
    path = tmp_path / "n5.json"
    path.write_text(dumps_document(document_from_space(cs)))
    kernel_constructions.clear()
    code, _, err = run(capsys, "validate", str(path))
    assert code == 0, err
    assert len(kernel_constructions) == 31
    kernel_constructions.clear()
    code, _, err = run(capsys, "marginalize", str(path), "--coords", "c0,c1,c2,c3")
    assert code == 0, err
    # the 31 parsed kernels, then the 15 marginal ones
    assert len(kernel_constructions) == 31 + 15


NAMED = {
    "pin": {"coords": "ins", "weights": {"Y": "1"}},
    "dan_even": {"coords": "dan", "weights": {"N": "1/3", "L": "1/3", "H": "1/3"}},
    "joint": {"coords": "pay,ins", "weights": {"Y,0": "1/2", "N,1000": "1/2"}},
}


def test_named_q_reports_like_the_equal_delta(insurance_path, tmp_path, capsys):
    path = _with_measures(insurance_path, tmp_path, NAMED)
    for argv in (["score", path, "-U", "ins", "--event", "pay=1000"], ["intervene", path, "-U", "ins"]):
        named = run(capsys, *argv, "--Q", "pin")
        assert named[0] == 0, named
        assert named == run(capsys, *argv, "--Q", "delta:ins=Y")
    code, out, err = run(capsys, "score", path, "-U", "ins", "--Q", "dan_even", "--event", "pay=1000")
    assert code == 4 and out == ""
    assert err.startswith("usage error") and "other coordinates" in err


def test_named_measures_survive_intervene_and_marginalize(insurance_path, tmp_path, capsys):
    path = _with_measures(insurance_path, tmp_path, NAMED)
    section = serialize_document(load_document(path))["measures"]
    assert section["joint"]["coords"] == "ins,pay"
    code, out, err = run(capsys, "intervene", path, "-U", "ins", "--Q", "pin")
    assert code == 0, err
    assert json.loads(out)["measures"] == section
    code, out, err = run(capsys, "marginalize", path, "--coords", "ins,pay")
    assert code == 0, err
    assert json.loads(out)["measures"] == {name: section[name] for name in ("joint", "pin")}
