"""The `cee` argument layer: one parser per text form, one refusal per fault.

Every text that names coordinates and labels (`--omega`, `--subject`,
`--event`, `--given`, `--Q delta:`) is read by one parser. A malformed text
is a usage error (exit 4) that names the problem; it never escapes `main`
as a traceback and is never answered as some other, well-formed query.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from causalspaces import cli
from causalspaces.cli import main
from causalspaces.document import document_from_space, load_document
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.measure import Measure
from causalspaces.space import Coordinate, ProductSpace

INSURANCE = Path(__file__).resolve().parent.parent / "fixtures" / "insurance.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# well-formed requests: stdout and exit code pinned, one request per resolver path

# (argv after the subcommand's file argument, exit code, first 16 hex digits of sha256(stdout))
PINNED = [
    (('effect', '-U', 'ins', '--omega', 'dan=L,ins=Y,pay=30', '--event', 'pay=1000', '--format', 'text'), 0, "fc1dbf1777964dc3"),
    (('effect', '-U', 'ins', '--omega', 'dan=L,ins=Y,pay=30', '--event', 'pay=1000', '--format', 'json'), 0, "fa875987a0d7f905"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--event', 'pay=1000', '--format', 'text'), 0, "137b8afd14eb1780"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--event', 'pay=1000', '--format', 'json'), 0, "048f2cf6c89d2115"),
    (('classify', '-U', 'ins', '--omega', 'ins=N,dan=H', '--event', 'pays1000', '--format', 'text'), 0, "46ee0a5dbd76e6b8"),
    (('classify', '-U', 'ins', '--omega', 'ins=N,dan=H', '--event', 'pays1000', '--format', 'json'), 0, "ea85b1f71db202b7"),
    (('effect', '-U', 'ins', '--subject', 'high_danger', '--event', 'pay=1000|30', '--format', 'text'), 0, "7f3b2a3840e6d59c"),
    (('effect', '-U', 'ins', '--subject', 'high_danger', '--event', 'pay=1000|30', '--format', 'json'), 0, "aa735fad75c0ba05"),
    (('effect', '-U', 'ins', '--subject', 'dan=L|H', '--event', 'pay=1000', '--format', 'text'), 0, "71ee8cea58d99f29"),
    (('effect', '-U', 'ins', '--subject', 'dan=L|H', '--event', 'pay=1000', '--format', 'json'), 0, "e709375491bc5ea5"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--event', 'pays1000', '--given', 'no_danger', '--format', 'text'), 0, "094fda717c36a388"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--event', 'pays1000', '--given', 'no_danger', '--format', 'json'), 0, "a7e797c6061c4077"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--event', 'pay=1000', '--given', 'dan=N|L', '--format', 'text'), 0, "e34cc63af0fa419c"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--event', 'pay=1000', '--given', 'dan=N|L', '--format', 'json'), 0, "2677129c254e6050"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--event', 'pay=1000', '--given', 'by_dan', '--format', 'text'), 0, "d00692dffb63b631"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--event', 'pay=1000', '--given', 'by_dan', '--format', 'json'), 0, "78a9150035a4b5e2"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--sigma', 'by_pay', '--format', 'text'), 0, "f90d9cee15ae57d8"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--sigma', 'by_pay', '--format', 'json'), 0, "5a04d0ce171db9d4"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--sigma', 'pay,dan', '--format', 'text'), 0, "9d7376374b419671"),
    (('effect', '-U', 'ins', '--omega', 'ins=Y', '--sigma', 'pay,dan', '--format', 'json'), 0, "ff42f6a4bbc0e1e1"),
    (('classify', '-U', 'ins', '--omega', 'ins=Y', '--sigma', 'pay', '--given', 'dan=H', '--format', 'text'), 0, "5a6c4c3541cb6899"),
    (('classify', '-U', 'ins', '--omega', 'ins=Y', '--sigma', 'pay', '--given', 'dan=H', '--format', 'json'), 0, "19de4ba2be975b98"),
    (('score', '-U', 'ins', '--Q', 'delta:ins=N', '--event', 'pay=1000', '--scale', 'f2', '--format', 'text'), 0, "745f51cf6c3988fe"),
    (('score', '-U', 'ins', '--Q', 'delta:ins=N', '--event', 'pay=1000', '--scale', 'f2', '--format', 'json'), 0, "4624b62a790a619b"),
    (('score', '-U', 'ins', '--Q', 'uniform', '--event', 'pays1000', '--format', 'text'), 0, "7558868ec71e7f68"),
    (('score', '-U', 'ins', '--Q', 'uniform', '--event', 'pays1000', '--format', 'json'), 0, "0479ab053325810a"),
    (('score', '-U', 'ins', '--Q', 'delta:ins=Y', '--sigma', 'by_pay', '--diff', 'mean+var', '--rv', 'payment', '--format', 'text'), 0, "7704c5c70dd5ef26"),
    (('score', '-U', 'ins', '--Q', 'delta:ins=Y', '--sigma', 'by_pay', '--diff', 'mean+var', '--rv', 'payment', '--format', 'json'), 0, "6d5ea724586cb100"),
    (('score', '-U', 'ins', '--Q', 'uniform', '--sigma', 'pay,dan', '--diff', 'tv', '--format', 'text'), 0, "1dfefab7c85f976e"),
    (('score', '-U', 'ins', '--Q', 'uniform', '--sigma', 'pay,dan', '--diff', 'tv', '--format', 'json'), 0, "f852b718f4bbb359"),
    (('score', '-U', 'ins', '--max', '--subject', 'ins=Y|N', '--event', 'pay=1000', '--format', 'text'), 0, "d8f2078ff55d5fa4"),
    (('score', '-U', 'ins', '--max', '--subject', 'ins=Y|N', '--event', 'pay=1000', '--format', 'json'), 0, "fb904d49c8fedd52"),
    (('score', '-U', 'ins', '--max', '--omega', 'ins=Y', '--event', 'pay=30', '--format', 'text'), 0, "dd6f4ccab8eb5b44"),
    (('score', '-U', 'ins', '--max', '--omega', 'ins=Y', '--event', 'pay=30', '--format', 'json'), 0, "cc9cd806a87478ad"),
    (('intervene', '-U', 'ins', '--Q', 'delta:ins=Y', '--format', 'text'), 0, "3b5d9b92d9d76efe"),
    (('intervene', '-U', 'ins', '--Q', 'delta:ins=Y', '--format', 'json'), 0, "3b5d9b92d9d76efe"),
    (('intervene', '-U', 'ins', '--Q', 'uniform', '--format', 'text'), 0, "dd2778f4e5c0def2"),
    (('intervene', '-U', 'ins', '--Q', 'uniform', '--format', 'json'), 0, "dd2778f4e5c0def2"),
    (('marginalize', '--coords', 'ins,pay', '--format', 'text'), 0, "ad3bc2843e51a504"),
    (('marginalize', '--coords', 'ins,pay', '--format', 'json'), 0, "ad3bc2843e51a504"),
    (('validate', '--format', 'text'), 0, "d04e1de3e3af0e1e"),
    (('validate', '--format', 'json'), 0, "5f2f013c63ac8d77"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[" ".join(p[0]) for p in PINNED])
def test_well_formed_requests_report_as_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, argv[0], str(INSURANCE), *argv[1:])
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


# Literal copies of the two text readers `cee` used before it had one, kept to
# check that every well-formed text still resolves to the same object.


def literal_parse_assignment(text):
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"expected coord=label, got {item!r}")
        cid, label = item.split("=", 1)
        out[cid.strip()] = label.strip()
    return out


def literal_predicate_event(doc, text):
    constraints = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"expected coord=label (or coord=a|b), got {item!r}")
        cid, labels = item.split("=", 1)
        constraints[cid.strip()] = [l.strip() for l in labels.split("|")]
    return doc.space.where(**constraints)


def literal_subject(doc, omega):
    assignment = literal_parse_assignment(omega)
    coords = doc.space.check_subset(assignment)
    if len(coords) == len(doc.space.ids):
        return tuple(assignment[cid] for cid in doc.space.ids)
    return doc.space.where(**{cid: assignment[cid] for cid in assignment})


def literal_delta(doc, coords, text):
    assignment = literal_parse_assignment(text)
    sub = doc.space.subspace(coords)
    return Measure(sub, {tuple(assignment[cid] for cid in sub.ids): Fraction(1)})


def _spaced(rng, text):
    return f" {text} " if rng.random() < 0.3 else text


def _well_formed_texts(rng, space, count):
    """(assignment text, predicate text) pairs naming each coordinate at most once, in any order."""
    for _ in range(count):
        ids = [cid for cid in space.ids if rng.random() < 0.7] or [rng.choice(space.ids)]
        rng.shuffle(ids)
        assignment, predicate = [], []
        for cid in ids:
            labels = space.coordinate(cid).labels
            assignment.append(f"{_spaced(rng, cid)}={_spaced(rng, rng.choice(labels))}")
            chosen = rng.sample(labels, rng.randint(1, len(labels)))
            predicate.append(f"{_spaced(rng, cid)}=" + "|".join(_spaced(rng, l) for l in chosen))
        yield ",".join(assignment), ",".join(predicate)


def _documents():
    yield load_document(INSURANCE)
    for seed in range(800, 820):
        cfg = GenConfig(seed=seed, max_coords=4, max_labels=3, kernel_mode="partial")
        yield document_from_space(gen_random_space(cfg))


def test_well_formed_texts_resolve_as_the_literal_readers_did():
    rng = random.Random(5)
    checked = 0
    for doc in _documents():
        for assignment, predicate in _well_formed_texts(rng, doc.space, 40):
            assert cli._resolve_subject(doc, assignment, None) == literal_subject(doc, assignment)
            assert cli._resolve_event(doc, predicate) == literal_predicate_event(doc, predicate)
            assert cli._resolve_subject(doc, None, predicate) == literal_predicate_event(doc, predicate)
            assert cli._resolve_given(doc, predicate) == literal_predicate_event(doc, predicate)
            coords = frozenset(cid.strip() for cid, _ in (item.split("=") for item in assignment.split(",")))
            q = cli._resolve_q(doc, coords, "delta:" + assignment)
            assert q == literal_delta(doc, coords, assignment)
            checked += 1
    assert checked == 21 * 40


# ---------------------------------------------------------------------------
# malformed requests: each is a usage error that names the problem


@pytest.mark.parametrize(
    "argv",
    [
        ("effect", "-U", "ins", "--omega", "ins=Y,ins=N", "--event", "pay=1000"),
        ("effect", "-U", "ins", "--subject", "ins=Y,ins=N", "--event", "pay=1000"),
        ("effect", "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000,pay=0"),
        ("effect", "-U", "ins", "--omega", "ins=Y", "--event", "pay=1000", "--given", "dan=N, dan=L"),
        ("score", "-U", "ins", "--Q", "delta:ins=Y,ins=N", "--event", "pay=1000"),
    ],
    ids=["omega", "subject", "event", "given", "delta"],
)
def test_a_coordinate_named_twice_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv[0], str(INSURANCE), *argv[1:])
    assert (code, out) == (4, "")
    assert err.startswith("usage error:") and "named twice" in err


@pytest.mark.parametrize("flag", ["--event", "--given"])
def test_an_empty_event_is_a_usage_error(capsys, flag):
    argv = {"--event": ["--event", ""], "--given": ["--event", "pay=1000", "--given", ""]}[flag]
    code, out, err = run(capsys, "effect", str(INSURANCE), "-U", "ins", "--omega", "ins=Y", *argv)
    assert (code, out) == (4, "")
    assert err.startswith("usage error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("--omega", "nope=1", "--event", "pay=1000"),
        ("--omega", "ins=Y,nope=1", "--event", "pay=1000"),
        ("--subject", "nope=1", "--event", "pay=1000"),
        ("--omega", "ins=Y", "--event", "pay=1000,nope=1"),
        ("--omega", "ins=Y", "--event", "pay=1000", "--given", "nope=1|2"),
    ],
    ids=["omega", "partial-omega", "subject", "event", "given"],
)
def test_an_unknown_coordinate_is_refused_alike_by_every_flag(capsys, argv):
    code, out, err = run(capsys, "effect", str(INSURANCE), "-U", "ins", *argv)
    assert (code, out, err) == (4, "", "usage error: unknown coordinate ids: ['nope']\n")


def test_where_refuses_an_unknown_coordinate():
    space = ProductSpace((Coordinate("a", ("x", "y")),))
    with pytest.raises(ValueError, match=r"unknown coordinate ids: \['nope'\]"):
        space.where(nope="1")


def test_where_takes_any_coordinate_id_as_a_keyword(capsys):
    space = ProductSpace((Coordinate("self", ("x", "y")),))
    assert space.where(self="x") == {("x",)}
    code, out, err = run(capsys, "effect", str(INSURANCE), "-U", "ins", "--omega", "ins=Y", "--event", "self=1")
    assert (code, out, err) == (4, "", "usage error: unknown coordinate ids: ['self']\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--omega", "ins=Y|N", "--event", "pay=1000"),
        ("--omega", "ins=X", "--event", "pay=1000"),
        ("--omega", "dan=X,ins=Y,pay=0", "--event", "pay=1000"),
        ("--omega", "ins=Y", "--event", "pay=1000,"),
        ("--omega", "ins=Y", "--event", "pay"),
    ],
    ids=["omega-alternatives", "omega-label", "full-omega-label", "trailing-comma", "no-equals"],
)
def test_malformed_predicates_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, "effect", str(INSURANCE), "-U", "ins", *argv)
    assert (code, out) == (4, "")
    assert err.startswith("usage error:")


@pytest.mark.parametrize(
    "ids, message",
    [
        ("", "--null-effect '' holds an empty coordinate id"),
        ("c0,,c1", "--null-effect 'c0,,c1' holds an empty coordinate id"),
        ("c9", "--null-effect 'c9': unknown coordinate ids: ['c9']"),
    ],
    ids=["empty", "empty-item", "unknown"],
)
def test_a_bad_null_effect_id_is_a_usage_error_naming_the_flag(capsys, ids, message):
    code, out, err = run(capsys, "gen", "--null-effect", ids, "--seed", "2", "--max-coords", "3")
    assert (code, out, err) == (4, "", f"usage error: {message}\n")


# ---------------------------------------------------------------------------
# fuzzed requests: no flag value makes `main` raise or exit out of its contract

_DOC = load_document(INSURANCE)
_TOKENS = ["=", ",", "|", "", "nope", "self", *_DOC.space.ids, *{l for c in _DOC.space.coordinates for l in c.labels}]
_VALID = {
    "-U": ["ins", "ins,dan", ""],
    "-V": ["dan", "pay"],
    "--coords": ["ins,pay", "dan"],
    "--omega": ["ins=Y", "ins=N", "dan=L,ins=Y,pay=30"],
    "--subject": ["high_danger", "ins=Y|N", "dan=N|L"],
    "--event": ["pay=1000", "pays1000", "dan=H,pay=30|1000"],
    "--sigma": ["by_pay", "pay", "pay,dan"],
    "--given": ["dan=N", "by_dan", "no_danger", "dan=L|H"],
    "--Q": ["uniform", "delta:ins=Y", "delta:ins=N"],
    "--rv": ["payment"],
}
_noise = st.lists(st.sampled_from(_TOKENS), max_size=6).map("".join)
_malformed = st.one_of(st.just(""), _noise, _noise.map(lambda t: "delta:" + t))


# per subcommand: pairs of flags that exclude each other, then optional flags
_FLAGS = {
    "effect": ([["--omega", "--subject"], ["--event", "--sigma"]], ["-U", "-V", "--given"]),
    "classify": ([["--omega", "--subject"], ["--event", "--sigma"]], ["-U", "-V", "--given"]),
    "score": ([["--event", "--sigma"]], ["-U", "--Q", "--rv", "--omega", "--subject"]),
    "intervene": ([], ["-U", "--Q"]),
    "marginalize": ([], ["--coords"]),
}


@st.composite
def _requests(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, str(INSURANCE)]
    alternatives, optional = _FLAGS[command]
    flags = []
    for pair in alternatives:  # mostly exactly one of the pair
        one = st.sampled_from([pair[:1], pair[1:]])
        flags += draw(st.one_of(one, one, st.sampled_from([pair, []])))
    flags += [flag for flag in optional if draw(st.booleans())]
    for flag in flags:  # a well-formed value three times in five
        well_formed = draw(st.integers(0, 4)) < 3
        argv += [flag, draw(st.sampled_from(_VALID[flag]) if well_formed else _malformed)]
    if command == "score":
        argv += draw(st.sampled_from([[], ["--max"], ["--diff", "tv"], ["--scale", "f2"]]))
    return argv + draw(st.sampled_from([[], ["--format", "json"]]))


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_requests())
def test_fuzzed_requests_keep_the_exit_contract(capsys, argv):
    code = main(argv)  # an exception leaving main fails the test here
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 4)
    if code == 4:
        assert out == ""
