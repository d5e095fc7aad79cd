"""Integer-exact sums and row checks against the Fraction loops they replaced.

`exact_sum` adds over one common denominator; `Measure`, `validate`,
`document_violations` and the row probabilities `CausalKernel.value` and
`Measure.__call__` use it. Each reference below is the Fraction-by-Fraction
loop those ran before, kept literally, and the test requires the same
values, the same violations in the same order and the same error texts.
"""

import ast
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import causalspaces
import causalspaces.kernels as kernels_module
from causalspaces.document import SpaceDocument, document_from_space, document_violations, parse_document, serialize_document, to_causal_space
from causalspaces.errors import InvalidMeasureError
from causalspaces.generators import GenConfig, gen_random_space
from causalspaces.kernels import CausalKernel, CausalSpace, Violation, validate
from causalspaces.measure import Measure, exact_sum

F = Fraction
INS = frozenset({"ins"})

WEIGHTS = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=48),
    st.integers(-2, 2),
    st.sampled_from([F(0), F(1), F(-1, 3), F(10**30 + 1, 3**40)]),
)


@given(st.lists(WEIGHTS, max_size=12))
def test_exact_sum_equals_fraction_sum(values):
    got = exact_sum(values)
    assert type(got) is Fraction
    assert got == sum(values, F(0))
    assert exact_sum(iter(values)) == got


def reference_validate(cs):
    found = []
    index = cs.space.outcome_index
    for coords in sorted(cs.kernels, key=lambda s: (len(s), sorted(s))):
        kernel = cs.kernels[coords]
        pos = cs.space.positions(coords)
        for key in cs.space.subspace(coords).outcomes:
            table = kernel.rows[key]
            total = F(0)
            for o, w in sorted(table.items()):
                total += w
                if w < 0:
                    found.append(Violation("negative-weight", coords, key, o, f"weight {w}"))
                elif o not in index or tuple(map(o.__getitem__, pos)) != key:
                    found.append(Violation("support", coords, key, o, f"mass {w} outside the row's cylinder"))
            if total != 1:
                found.append(Violation("row-sum", coords, key, None, f"row sums to {total}, expected 1"))
        if not coords:
            if kernel.rows[()] != cs.observational.weights:
                found.append(
                    Violation(
                        "observational-conflict",
                        coords,
                        (),
                        None,
                        "supplied empty-subset kernel differs from the observational measure",
                    )
                )
    return found


def reference_measure_error(space, weights):
    """The error Measure raised before, or None: checks in table order, then the sum."""
    total = F(0)
    for o, w in weights.items():
        o = tuple(o)
        if not space.contains(o):
            return f"{o!r} is not an outcome of the space"
        w = F(w)
        if w < 0:
            return f"negative weight {w} at {o!r}"
        total += w
    if total != 1:
        return f"weights sum to {total}, expected exactly 1"
    return None


def reference_document_violations(doc):
    found = []
    total = F(0)
    for o in doc.space.outcomes:
        w = doc.measure_table.get(o, F(0))
        total += w
        if w < 0:
            found.append(Violation("measure-negative", None, None, o, f"weight {w}"))
    if total != 1:
        found.append(Violation("measure-sum", None, None, None, f"weights sum to {total}, expected 1"))
    return found


SPACES = st.builds(
    lambda seed, n, labels, mode: gen_random_space(
        GenConfig(seed=seed, max_coords=n, max_labels=labels, kernel_mode=mode, denominator_bound=12)
    ),
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(2, 3),
    st.sampled_from(["full", "partial"]),
)


def corrupt_row(draw, space, coords, row, key):
    """Apply one drawn corruption to a raw kernel row (a dict outcome -> weight)."""
    kind = draw(st.sampled_from(["negative", "cylinder", "omega", "scale", "drop", "none"]))
    pos = space.positions(coords)
    inside = [o for o in space.outcomes if tuple(o[i] for i in pos) == key]
    if kind == "negative":
        row[draw(st.sampled_from(inside))] = draw(st.fractions(max_value=F(-1, 48), min_value=-1, max_denominator=48))
    elif kind == "cylinder":
        outside = [o for o in space.outcomes if o not in inside]
        if outside:
            row[draw(st.sampled_from(outside))] = draw(WEIGHTS.filter(bool))
    elif kind == "omega":
        first = space.outcomes[0]
        foreign = draw(st.sampled_from([first[:-1], first + ("extra",), ("bogus",) + first[1:]]))
        row[foreign] = draw(WEIGHTS.filter(bool))
    elif kind == "scale":
        factor = draw(st.sampled_from([F(1, 2), F(3, 2), F(-1), F(0)]))
        for o in list(row):
            row[o] = row[o] * factor
    elif kind == "drop" and row:
        del row[draw(st.sampled_from(sorted(row)))]


def wide_space(seed, mode):
    """The first generated space with 4 or 5 coordinates, searching from `seed` on."""
    while True:
        cs = gen_random_space(GenConfig(seed=seed, max_coords=5, max_labels=2, kernel_mode=mode, denominator_bound=12))
        if len(cs.space.ids) >= 4:
            return cs
        seed += 1


WIDE_SPACES = st.builds(wide_space, st.integers(0, 10**6), st.sampled_from(["full", "partial"]))


@settings(max_examples=150)
@given(SPACES, st.data())
def test_validate_matches_reference_on_corrupted_rows(cs, data):
    check_corrupted_copy(cs, data)


@settings(max_examples=30)
@given(WIDE_SPACES, st.data())
def test_validate_matches_reference_on_corrupted_rows_of_wide_spaces(cs, data):
    one_coordinate = {s: k for s, k in cs.kernels.items() if len(s) == 1}
    if data.draw(st.booleans()):
        cs = CausalSpace(cs.space, cs.observational, one_coordinate)
    # a valid row passes the bulk check: no kernel falls back to the entry-by-entry walk
    with mock.patch.object(kernels_module, "_row_violations", side_effect=AssertionError("bulk check refused a valid row")):
        assert validate(cs) == []
    check_corrupted_copy(cs, data)


def check_corrupted_copy(cs, data):
    """Corrupt a few rows of a copy of `cs` and require the reference's violations."""
    space = cs.space
    kernels = {}
    for coords, kernel in cs.kernels.items():
        rows = {key: dict(table) for key, table in kernel.rows.items()}
        for key in data.draw(st.lists(st.sampled_from(sorted(rows)), max_size=3, unique=True)):
            corrupt_row(data.draw, space, coords, rows[key], key)
        kernels[coords] = CausalKernel(space, coords, rows)
    if data.draw(st.booleans()):
        supplied = dict(cs.observational.weights)
        if data.draw(st.booleans()):
            corrupt_row(data.draw, space, frozenset(), supplied, ())
        kernels[frozenset()] = CausalKernel(space, frozenset(), {(): supplied})
    bad = CausalSpace(space, cs.observational, kernels)
    assert validate(bad) == reference_validate(bad)


def corrupt_document_row(draw, space, coords, key, row):
    """Apply one drawn corruption to the row at `key` as a document writes it: cell -> weight string."""
    kind = draw(st.sampled_from(["negative", "shift", "outside", "drop", "zero", "unreduced"]))
    cell = draw(st.sampled_from(sorted(row))) if row else None
    if kind == "negative" and cell:
        row[cell] = "-" + row[cell]
    elif kind == "shift" and cell:
        row[cell] = str(F(row[cell]) + draw(st.sampled_from([F(1, 97), F(-1, 97), F(1)])))
    elif kind == "outside":
        outside = [o for o in space.outcomes if space.restrict(o, coords) != key]
        if outside:
            row[",".join(draw(st.sampled_from(outside)))] = draw(st.sampled_from(["1/7", "2", "0.25"]))
    elif kind == "drop" and cell:
        del row[cell]
    elif kind == "zero" and cell:
        row[cell] = draw(st.sampled_from(["0", "0/3", "-0"]))
    elif kind == "unreduced" and cell:
        w = F(row[cell])
        row[cell] = f"{w.numerator * 3}/{w.denominator * 3}"


@settings(max_examples=60)
@given(st.one_of(SPACES, WIDE_SPACES), st.data())
def test_validate_matches_reference_on_corrupted_documents(cs, data):
    space = cs.space
    doc = serialize_document(document_from_space(cs))
    for subset, rows in doc.get("kernels", {}).items():
        coords = frozenset(subset.split(","))
        for row_text in data.draw(st.lists(st.sampled_from(sorted(rows)), max_size=2, unique=True)):
            corrupt_document_row(data.draw, space, coords, tuple(row_text.split(",")) if row_text else (), rows[row_text])
    if data.draw(st.booleans()):
        corrupt_document_row(data.draw, space, frozenset(), (), doc["measure"])
    parsed = parse_document(doc)
    violations = document_violations(parsed)
    assert violations == reference_document_violations(parsed)
    if not violations:
        bad = to_causal_space(parsed)
        assert validate(bad) == reference_validate(bad)


def test_validate_reports_every_kind_in_row_order(insurance):
    ins = frozenset({"ins"})
    rows = {key: dict(table) for key, table in insurance.kernel(ins).rows.items()}
    rows[("Y",)].update({("N", "Y", "30"): F(-1, 20), ("N", "N", "30"): F(1, 20), ("bogus",): F(1, 7)})
    bad = CausalSpace(insurance.space, insurance.observational, {ins: CausalKernel(insurance.space, ins, rows)})
    got = validate(bad)
    assert got == reference_validate(bad)
    assert [(v.kind, v.outcome) for v in got] == [
        ("support", ("N", "N", "30")),
        ("negative-weight", ("N", "Y", "30")),
        ("support", ("bogus",)),
        ("row-sum", None),
    ]


MEASURE_CELLS = st.one_of(
    st.tuples(st.sampled_from(["Y", "N"]), st.sampled_from(["N", "L", "H"]), st.sampled_from(["0", "30", "1000"])),
    st.sampled_from([("Y",), ("Y", "N", "30", "x"), ("bogus", "N", "0"), ["N", "N", "0"]]),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(MEASURE_CELLS, WEIGHTS), max_size=6), st.booleans())
def test_measure_errors_match_reference(insurance, entries, normalize):
    space = insurance.space
    weights = {tuple(o) if isinstance(o, list) else o: w for o, w in entries}
    if normalize and weights:
        total = sum(weights.values(), F(0))
        if total > 0:
            weights = {o: F(w) / total for o, w in weights.items()}
    want = reference_measure_error(space, weights)
    if want is None:
        m = Measure(space, weights)
        assert m.weights == {o: F(w) for o, w in weights.items() if w}
    else:
        with pytest.raises(InvalidMeasureError) as err:
            Measure(space, weights)
        assert str(err.value) == want


@settings(max_examples=200)
@given(st.dictionaries(st.sampled_from(range(12)), WEIGHTS, max_size=12), st.booleans())
def test_document_violations_match_reference(insurance, cells, with_foreign):
    space = insurance.space
    table = {space.outcomes[i]: w for i, w in cells.items()}
    if with_foreign:
        table[("bogus", "N", "0")] = F(1, 2)
    doc = SpaceDocument(space, table)
    assert document_violations(doc) == reference_document_violations(doc)


def reference_value(rows, key, a):
    """`CausalKernel.value` and `Measure.__call__` before they summed in integers."""
    return sum((w for o, w in rows[key].items() if o in a), F(0))


def foreign_outcomes(space):
    """Tuples that are not outcomes of `space`: one label short, one too many, an unknown label."""
    first = space.outcomes[0]
    return [first[:-1], first + ("extra",), ("bogus",) + first[1:]]


def events(space):
    """Events of `space`, empty ones included, that may also hold tuples outside Omega."""
    return st.frozensets(st.sampled_from(list(space.outcomes) + foreign_outcomes(space)))


@settings(max_examples=150)
@given(SPACES, st.data())
def test_kernel_value_matches_reference_on_corrupt_rows(cs, data):
    space = cs.space
    coords = data.draw(st.sampled_from([frozenset(), *sorted(cs.kernels, key=sorted)]))
    rows = {key: dict(table) for key, table in cs.kernel(coords).rows.items()}
    # negative weights, mass outside the cylinder or outside Omega, rows that do not sum to 1
    for key in data.draw(st.lists(st.sampled_from(sorted(rows)), max_size=3, unique=True)):
        corrupt_row(data.draw, space, coords, rows[key], key)
    kernel = CausalKernel(space, coords, rows)
    for a in [frozenset(), *data.draw(st.lists(events(space), min_size=1, max_size=4))]:
        for key in kernel.rows:
            got = kernel.value(key, a)
            assert type(got) is Fraction
            assert got == reference_value(kernel.rows, key, a)


@pytest.mark.parametrize(
    "entries",
    [
        {("N", "Y", "30"): F(-1, 20)},  # a negative weight; the row no longer sums to 1
        {("bogus",): F(1, 7), ("N", "Y", "30", "x"): F(2, 7)},  # mass outside Omega
        {("N", "N", "30"): F(3, 5)},  # mass outside the row's cylinder
    ],
)
def test_kernel_value_matches_reference_on_each_corruption(insurance, entries):
    space = insurance.space
    rows = {key: dict(table) for key, table in insurance.kernel(INS).rows.items()}
    rows[("Y",)].update(entries)
    kernel = CausalKernel(space, INS, rows)
    everything = space.all_event() | set(entries)
    for a in (frozenset(), space.where(pay="30"), frozenset(entries), everything, space.all_event()):
        for key in kernel.rows:
            got = kernel.value(key, a)
            assert type(got) is Fraction
            assert got == reference_value(kernel.rows, key, a)
    assert kernel.value(("Y",), everything) != 1


@settings(max_examples=150)
@given(SPACES, st.data())
def test_measure_call_matches_reference(cs, data):
    space = cs.space
    coords = data.draw(st.sampled_from([frozenset(), *sorted(cs.kernels, key=sorted)]))
    kernel = cs.kernel(coords)
    measures = [cs.observational] + [kernel.row(key) for key in kernel.rows]
    for a in [frozenset(), *data.draw(st.lists(events(space), min_size=1, max_size=4))]:
        for m in measures:
            got = m(a)
            assert type(got) is Fraction
            assert got == reference_value({(): m.weights}, (), a)


def _fraction_constants(trees):
    """Names bound at module level to a `Fraction(...)` call in any of the modules."""
    names = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and _is_fraction_call(node.value):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _is_fraction_call(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("Fraction", "F")


def test_no_module_adds_fractions_one_by_one():
    # every exact sum in the library goes through exact_sum; the oracle keeps its literal loops
    package = Path(causalspaces.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    constants = _fraction_constants(trees)
    assert {"ZERO", "_ZERO"} <= constants

    def fraction_start(node):
        return _is_fraction_call(node) or getattr(node, "id", getattr(node, "attr", None)) in constants

    offenders = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum":
                starts = node.args[1:] + [k.value for k in node.keywords if k.arg == "start"]
                if any(map(fraction_start, starts)):
                    offenders.append(f"{name}:{node.lineno}")
    assert [o for o in offenders if not o.startswith("oracle.py:")] == []
