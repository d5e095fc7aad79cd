"""Causal-space documents: a JSON-compatible schema with exact weights.

A document declares coordinates, a sparse observational measure, sparse
kernels, and optional named events, partitions, random variables, and mixing
measures. Weights are decimal or fraction strings and parse exactly to
rationals; unspecified cells are weight zero. Cells are ``label,label,...``
strings in declared coordinate order. Coordinate ids and labels are names
(:func:`name_fault`), so ``cee`` texts can name each of them.

Parsing builds the library's own objects once: the observational
:class:`Row`, a :class:`CausalKernel` per kernel subset and a checked
:class:`Measure` per named mixing measure, each row read straight into the
integers of a :class:`Row` with no Fraction per entry. The observational row
and kernel rows may still break the axioms, for :func:`document_violations`
and :func:`validate` to report as data. One entry loop reads every weight table;
the cells serialization writes and the weights ``d+``, ``d+/d+`` and
``d+.d+`` are read inline, anything else by the general readers.

Serialization is canonical (fixed section order, the stored kernels sorted
by :func:`~causalspaces.kernels.sorted_subsets`, canonical cell order,
fractions in lowest terms), so loading and re-emitting a document is a
deterministic normalization, and equal in-memory spaces serialize to
byte-identical documents. :func:`dumps_document` lays the canonical form out
with a small writer of its own, byte for byte as ``json.dumps(...,
indent=2, ensure_ascii=False)`` does, and encodes each string with the
encoder that call uses; the stdlib's indenting encoder runs in pure Python.

A weight string may hold at most :data:`MAX_RATIONAL_DIGITS` digits and a
decimal exponent of magnitude at most :data:`MAX_RATIONAL_EXPONENT`. Both
limits are checked before conversion: the exact value of ``"1e400000000"``
has 400 million digits, and expanding it would not finish. Likewise a space
may have at most :data:`MAX_OUTCOMES` outcomes, checked from the label
counts before any outcome is built: 40 binary coordinates declare 2**40. It
may also have at most 16 coordinates, so that its 2**n coordinate subsets
stay within the same limit even when most coordinates have one label.
A kernel subset may be given once, under one spelling.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring
from math import gcd
from typing import Mapping, Optional, Union

from .errors import DocumentError
from .kernels import CausalKernel, CausalSpace, Violation, marginalize, sorted_subsets
from .measure import Measure, RandomVariable, Row, as_row, integer_row, row_mass
from .space import Coordinate, Event, Outcome, Partition, ProductSpace, _Value, coordinate_subalgebra, cut_at, generated_algebra

_SECTIONS = ("coordinates", "measure", "kernels", "events", "partitions", "variables", "measures")

MAX_RATIONAL_DIGITS = 1000
MAX_RATIONAL_EXPONENT = 1000
# the largest outcome space a document may declare; `cee gen` refuses flags that allow a
# full family of more weights than this
MAX_OUTCOMES = 2**16
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)")


def parse_rational(value, location: str, key: Optional[str] = None) -> Fraction:
    """Parse a decimal/fraction string (or int) exactly through ``Fraction``; floats are rejected.

    Strings with more than :data:`MAX_RATIONAL_DIGITS` digits or a decimal
    exponent beyond :data:`MAX_RATIONAL_EXPONENT` are rejected unparsed. An
    error is reported at `location`, or at ``location[key]`` when a key is
    given, and that string is built only then. A document's weight tables
    read their plain entries inline (:func:`_parse_entries`) and come here
    for any other.
    """
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_DIGITS and sum(map(str.isdecimal, value)) > MAX_RATIONAL_DIGITS:
            raise DocumentError(f"rational has more than {MAX_RATIONAL_DIGITS} digits", _at(location, key))
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_RATIONAL_EXPONENT:
            raise DocumentError(
                f"rational exponent {exponent.group(1)} exceeds +-{MAX_RATIONAL_EXPONENT}", _at(location, key)
            )
    elif isinstance(value, (bool, float)):
        raise DocumentError(f"weights must be strings or integers to stay exact, got {value!r}", _at(location, key))
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DocumentError(f"malformed rational {value!r} ({exc})", _at(location, key)) from None


def fraction_str(x: Fraction) -> str:
    return str(x)


def decimal_str(x: Union[Fraction, float]) -> str:
    """A deterministic decimal rendering: exact when terminating, else shortest float."""
    if isinstance(x, float):
        return repr(x)
    num, den = x.numerator, x.denominator
    d, twos, fives = den, 0, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    if d != 1:
        return repr(float(x))
    k = max(twos, fives)
    if k == 0:
        return str(num)
    digits = str(abs(num) * 10**k // den).rjust(k + 1, "0")
    out = f"{digits[:-k]}.{digits[-k:]}"
    return "-" + out if num < 0 else out


class SpaceDocument(_Value):
    """A parsed document: the observational row, the kernels and every named object.

    `measure_table` is always a :class:`Row`: parsed, shared with the space a
    document is made from, or read from any other table by :func:`as_row`.
    It and the :class:`CausalKernel` objects may violate the axioms until
    :func:`document_violations` and :func:`validate` check them; named
    measures are checked :class:`Measure` objects on their own coordinates.
    Unlike the other value classes a document is mutable, so it is unhashable.
    Each named-object table left out starts as a fresh empty dict.
    """

    _fields = ("space", "measure_table", "kernels", "events", "partitions", "variables", "measures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        space: ProductSpace,
        measure_table: Row,
        kernels: Optional[dict[frozenset, CausalKernel]] = None,
        events: Optional[dict[str, Event]] = None,
        partitions: Optional[dict[str, Partition]] = None,
        variables: Optional[dict[str, RandomVariable]] = None,
        measures: Optional[dict[str, Measure]] = None,
    ):
        self.__dict__.update(
            space=space,
            measure_table=measure_table,
            kernels={} if kernels is None else kernels,
            events={} if events is None else events,
            partitions={} if partitions is None else partitions,
            variables={} if variables is None else variables,
            measures={} if measures is None else measures,
        )
        self.__post_init__()

    def __post_init__(self):
        self.measure_table = as_row(self.measure_table)

    def named_measure(self, name: str) -> Measure:
        return self.measures[name]


# ---------------------------------------------------------------------------
# parsing


# `cee` reads ``coord=label|label,...`` texts by splitting at these, in this order, and
# stripping each piece
NAME_SEPARATORS = ",=|"


def name_fault(name: str) -> Optional[str]:
    """What keeps `name` from being a coordinate id or label, or None when nothing does.

    A name is nonempty, has no surrounding whitespace and contains none of
    :data:`NAME_SEPARATORS`, so it reads back unchanged from a ``cee`` text.
    """
    if not name:
        return "must be nonempty"
    if name != name.strip():
        return "must not have surrounding whitespace"
    for sep in NAME_SEPARATORS:
        if sep in name:
            return "must not contain commas" if sep == "," else f"must not contain {sep!r}"
    return None


class _located:
    """A block whose ValueError is refused as a DocumentError at `location`; a DocumentError passes unchanged.

    A class rather than a generator context manager: documents enter one
    block per kernel subset, and a class costs about a third as much to enter.
    """

    __slots__ = ("location",)

    def __init__(self, location: str):
        self.location = location

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ValueError) and not isinstance(exc, DocumentError):
            raise DocumentError(str(exc), self.location) from None


def _parse_cell(space: ProductSpace, cell: str, location: str, coords: Optional[frozenset] = None) -> Outcome:
    if not isinstance(cell, str):
        raise DocumentError(f"a cell is a string of comma-separated labels, got {cell!r}", location)
    sub = space if coords is None else space.subspace(coords)
    hit = sub.cells.get(cell)
    if hit is not None:
        return hit
    parts = tuple(cell.split(",")) if cell else ()
    if len(parts) != len(sub.ids):
        raise DocumentError(f"cell {cell!r} has {len(parts)} labels, expected {len(sub.ids)}", location)
    # `parts` joins back to `cell`, so were every label its coordinate's own, the cell would be in `sub.cells`
    label, cid = next((label, cid) for label, cid in zip(parts, sub.ids) if label not in sub.coordinate(cid).labels)
    raise DocumentError(f"cell {cell!r}: {label!r} is not a label of coordinate {cid!r}", location)


def _parse_row(space: ProductSpace, obj, location: str, row: Optional[str] = None) -> Row:
    """A ``cell -> weight`` object as its :class:`Row`, with no Fraction per entry."""
    nums, dens = _parse_entries(space, obj, location, row)
    return integer_row(list(nums), list(nums.values()), dens)


def _parse_entries(space: ProductSpace, obj, location: str, row: Optional[str] = None) -> tuple[dict[Outcome, int], list[int]]:
    """A ``cell -> weight`` object as ``{outcome: numerator}`` and the denominators in the same order.

    The table sits at `location`, or at ``location[row]`` for a kernel row.
    This loop is the one fast weight reader. A canonical cell is read from
    ``space.cells``, and an ASCII weight in a form serialization writes,
    ``d+`` or ``d+/d+`` with a nonzero denominator, is read with ``int``, as
    is a plain decimal ``d+.d+``, ``int(head + tail)`` over ``10 **
    len(tail)``. Any other cell goes to :func:`_parse_cell` and any other
    weight to :func:`parse_rational`, in entry order, so every error and its
    location are theirs; an entry's location string is built only when one
    of them raises.
    """
    table_at = _at(location, row)
    if not isinstance(obj, dict):
        raise DocumentError("expected an object of cell -> weight entries", table_at)
    cells = space.cells
    nums: dict[Outcome, int] = {}
    dens: list[int] = []
    for cell, value in obj.items():
        o = cells.get(cell)
        if o is None:
            o = _parse_cell(space, cell, f"{table_at}[{cell}]")
        if value.__class__ is str and len(value) <= MAX_RATIONAL_DIGITS and value.isascii():
            head, sep, tail = value.partition("/")
        else:
            head = sep = tail = ""
        if not sep and head.isdigit():
            num, den = int(head), 1
        elif head.isdigit() and tail.isdigit() and (den := int(tail)):
            num = int(head)
        else:
            if not sep:
                head, sep, tail = head.partition(".")
            if sep == "." and head.isdigit() and tail.isdigit():
                num, den = int(head + tail), 10 ** len(tail)
            else:
                x = parse_rational(value, table_at, cell)
                num, den = x.numerator, x.denominator
        nums[o] = num
        dens.append(den)
    return nums, dens


def _at(location: str, key: Optional[str]) -> str:
    return location if key is None else f"{location}[{key}]"


def _parse_subset(space: ProductSpace, text, location: str) -> frozenset:
    if isinstance(text, list) and not all(isinstance(t, str) for t in text):
        raise DocumentError("a coordinate subset is a list of ids or a comma-separated string", location)
    ids = text if isinstance(text, list) else [t for t in str(text).split(",") if t]
    with _located(location):
        return space.check_subset(ids)


def _parse_event(space: ProductSpace, spec, location: str) -> Event:
    if isinstance(spec, list):
        return frozenset(_parse_cell(space, c, location) for c in spec)
    if isinstance(spec, dict):
        for cid, labels in spec.items():
            if not isinstance(labels, str) and not _is_list_of(labels, str):
                raise DocumentError(f"the labels of {cid!r} must be a label or a list of labels", location)
        with _located(location):
            return space.where(**spec)
    raise DocumentError("an event is a list of cells or a coordinate-predicate object", location)


def _parse_partition(space: ProductSpace, spec, events: dict, location: str) -> Partition:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise DocumentError("a partition is one of {'coords': ...}, {'generators': ...}, {'blocks': ...}", location)
    (kind, value), = spec.items()
    if kind == "coords":
        return coordinate_subalgebra(space, _parse_subset(space, value, location))
    if kind == "generators":
        if not isinstance(value, list):
            raise DocumentError("'generators' must be a list of events", location)
        gens = []
        for i, g in enumerate(value):
            where = f"{location}[{i}]"
            if isinstance(g, str) and g not in events:
                raise DocumentError(f"{g!r} names no event in the 'events' section", where)
            gens.append(events[g] if isinstance(g, str) else _parse_event(space, g, where))
        return generated_algebra(space, gens)
    if kind == "blocks":
        if not _is_list_of(value, list):
            raise DocumentError("'blocks' must be a list of lists of cells", location)
        blocks = [frozenset(_parse_cell(space, c, location) for c in b) for b in value]
        with _located(location):
            return Partition(space, tuple(blocks))
    raise DocumentError(f"unknown partition form {kind!r}", location)


def _parse_variable(space: ProductSpace, spec, location: str) -> RandomVariable:
    if not isinstance(spec, dict):
        raise DocumentError("a variable is {'coord': id} or {'values': {cell: rational}}", location)
    if set(spec) == {"coord"}:
        if not isinstance(spec["coord"], str):
            raise DocumentError("'coord' must be a coordinate id", location)
        with _located(location):
            return RandomVariable.from_coordinate(space, spec["coord"])
    if set(spec) == {"values"}:
        if not isinstance(spec["values"], dict):
            raise DocumentError("'values' must be an object of cell -> rational entries", location)
        nums, dens = _parse_entries(space, spec["values"], location)
        values = {o: Fraction(n, d) for (o, n), d in zip(nums.items(), dens)}
        missing = set(space.outcomes) - set(values)
        if missing:
            raise DocumentError(f"variable lacks values for {len(missing)} outcomes", location)
        return _variable(space, values)
    raise DocumentError("a variable is {'coord': id} or {'values': {cell: rational}}", location)


def _variable(space: ProductSpace, values: Mapping[Outcome, Fraction]) -> RandomVariable:
    """The variable with these values, measurable with respect to its own :meth:`~causalspaces.space.ProductSpace.level_sets`."""
    return RandomVariable(space, values, Partition(space, tuple(map(frozenset, space.level_sets(values.__getitem__).values()))))


def _is_list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _section(data: dict, name: str, kind: type, source: str):
    """A top-level section, empty when absent; a list or an object by `kind`."""
    value = data.get(name, kind())
    if not isinstance(value, kind):
        raise DocumentError(f"section {name!r} must be {'a list' if kind is list else 'an object'}", f"{source}.{name}")
    return value


def parse_document(data, source: str = "document") -> SpaceDocument:
    """Build a :class:`SpaceDocument` from decoded JSON, validating structure only."""
    if not isinstance(data, dict):
        raise DocumentError("the top level must be an object", source)
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise DocumentError(f"unknown sections {sorted(unknown)}", source)
    coords = []
    for i, c in enumerate(_section(data, "coordinates", list, source)):
        loc = f"{source}.coordinates[{i}]"
        if not isinstance(c, dict) or "id" not in c or "labels" not in c:
            raise DocumentError("a coordinate needs 'id' and 'labels'", loc)
        if not isinstance(c["labels"], list):
            raise DocumentError("'labels' must be a list", loc)
        cid, labels = str(c["id"]), tuple(str(l) for l in c["labels"])
        if "" in labels:  # on one coordinate the cell "" would name the empty outcome; reported on the list
            raise DocumentError("labels must be nonempty", loc)
        for kind, name, where in [("ids", cid, "id")] + [("labels", l, f"labels[{j}]") for j, l in enumerate(labels)]:
            fault = name_fault(name)
            if fault:
                raise DocumentError(f"{kind} {fault}", f"{loc}.{where}")
        values = None
        if "values" in c:
            if not isinstance(c["values"], list):
                raise DocumentError("'values' must be a list", loc)
            values = tuple(parse_rational(v, f"{loc}.values") for v in c["values"])
        with _located(loc):
            coords.append(Coordinate(cid, labels, values))
    if not coords:
        raise DocumentError("at least one coordinate is required", source)
    with _located(f"{source}.coordinates"):
        space = ProductSpace(tuple(coords))
    if len(space) > MAX_OUTCOMES:
        raise DocumentError(f"the space has {len(space)} outcomes, more than the limit of {MAX_OUTCOMES}", f"{source}.coordinates")
    max_coords = MAX_OUTCOMES.bit_length() - 1  # 2**n coordinate subsets stay within MAX_OUTCOMES
    if len(coords) > max_coords:
        raise DocumentError(f"the space has {len(coords)} coordinates, more than the limit of {max_coords}", f"{source}.coordinates")

    measure_table = _parse_row(space, data.get("measure", {}), f"{source}.measure")

    kernels: dict[frozenset, CausalKernel] = {}
    for subset_text, rows_obj in _section(data, "kernels", dict, source).items():
        loc = f"{source}.kernels[{subset_text}]"
        coords_set = _parse_subset(space, subset_text, loc)
        if coords_set in kernels:
            raise DocumentError(f"duplicate kernel subset {subset_text!r}", loc)
        if not isinstance(rows_obj, dict):
            raise DocumentError("kernel rows must be an object keyed by row cells", loc)
        sub = space.subspace(coords_set)
        row_cells = sub.cells
        rows = {}
        for row_text, table in rows_obj.items():
            row = row_cells.get(row_text)
            if row is None:
                row = _parse_cell(space, row_text, f"{loc}[{row_text}]", coords_set)
            rows[row] = _parse_row(space, table, loc, row_text)
        for key in sub.outcomes:
            if key not in rows:
                rows[key] = Row(1, {})
        kernels[coords_set] = CausalKernel(space, coords_set, rows)

    events = {}
    for name, spec in _section(data, "events", dict, source).items():
        events[name] = _parse_event(space, spec, f"{source}.events[{name}]")
    partitions = {}
    for name, spec in _section(data, "partitions", dict, source).items():
        partitions[name] = _parse_partition(space, spec, events, f"{source}.partitions[{name}]")
    variables = {}
    for name, spec in _section(data, "variables", dict, source).items():
        variables[name] = _parse_variable(space, spec, f"{source}.variables[{name}]")
    measures = {}
    for name, spec in _section(data, "measures", dict, source).items():
        loc = f"{source}.measures[{name}]"
        if not isinstance(spec, dict) or set(spec) != {"coords", "weights"}:
            raise DocumentError("a named measure needs 'coords' and 'weights'", loc)
        sub = space.subspace(_parse_subset(space, spec["coords"], loc))
        with _located(f"{loc}.weights"):
            measures[name] = Measure(sub, _parse_row(sub, spec["weights"], f"{loc}.weights"))

    return SpaceDocument(space, measure_table, kernels, events, partitions, variables, measures)


def load_document(path) -> SpaceDocument:
    """Parse a document file; malformed JSON or structure raises DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DocumentError(str(exc), str(path)) from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}") from None
    # bytes that are not UTF-8, an integer beyond the interpreter's digit limit, or nesting deeper than the decoder recurses
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}", str(path)) from None
    return parse_document(data, source=str(path))


# ---------------------------------------------------------------------------
# validation and conversion


def document_violations(doc: SpaceDocument) -> list[Violation]:
    """Problems with the observational row over Ω, reported as violation data and read in integers.

    A negative weight is a numerator below 0, reported in canonical order;
    the weights on Ω are summed as one integer sum and compared with the
    row's denominator.
    """
    row = doc.measure_table
    index = doc.space.outcome_index
    found = [
        Violation("measure-negative", None, None, o, f"weight {row[o]}")
        for o in sorted((o for o, n in row.nums.items() if n < 0 and o in index), key=index.__getitem__)
    ]
    total = row_mass(row, index.keys())
    if total != 1:
        found.append(Violation("measure-sum", None, None, None, f"weights sum to {total}, expected 1"))
    return found


def to_causal_space(doc: SpaceDocument) -> CausalSpace:
    """The typed causal space; raises if the observational row is invalid.

    The space holds the document's own observational :class:`Row`, which
    :class:`Measure` checks in bulk, and its own kernel objects, so building
    it converts no entry. A supplied empty-subset kernel is stored so that
    validation can compare it against the observational measure, but
    lookups keep synthesizing.
    """
    return CausalSpace(doc.space, Measure(doc.space, doc.measure_table), doc.kernels)


def document_from_space(
    cs: CausalSpace,
    events: Optional[Mapping[str, Event]] = None,
    partitions: Optional[Mapping[str, Partition]] = None,
    variables: Optional[Mapping[str, RandomVariable]] = None,
    measures: Optional[Mapping[str, Measure]] = None,
) -> SpaceDocument:
    """A document of a causal space: it shares the space's measure row and stored kernels, copying no row."""
    return SpaceDocument(
        cs.space,
        cs.observational.weights,
        {s: cs.kernels[s] for s in cs.kernel_subsets()},
        dict(events or {}),
        dict(partitions or {}),
        dict(variables or {}),
        dict(measures or {}),
    )


def marginalize_document(doc: SpaceDocument, coords) -> SpaceDocument:
    """Marginalize the space and carry over every named object that survives.

    An event survives when it is a cylinder over the kept coordinates; a
    partition when all its blocks are; a variable when its values factor
    through the projection; a named measure when its coordinates are kept.
    Only the named events, blocks and variables are cut, by the space's cut
    rule (:func:`~causalspaces.space.cut_at`); the one
    :meth:`~causalspaces.space.ProductSpace.projection` table is the one
    :func:`~causalspaces.kernels.marginalize` pushes the rows through. Whether
    an event or block is a cylinder, and its image if so, is the space's one
    measurability rule, :meth:`~causalspaces.space.ProductSpace.cylinder_image`.
    No coordinate subalgebra is built.
    """
    space = doc.space
    coords = space.check_subset(coords)
    small = marginalize(to_causal_space(doc), coords)
    cut = cut_at(space.positions(coords))
    events = {name: cells for name, a in doc.events.items() if (cells := space.cylinder_image(a, coords)) is not None}
    partitions, variables = {}, {}
    for name, part in doc.partitions.items():
        if None not in (blocks := tuple(space.cylinder_image(b, coords) for b in part.blocks)):
            partitions[name] = Partition(small.space, blocks)
    for name, rv in doc.variables.items():
        values = {cut(o): v for o, v in rv.values.items()}
        if all(values[cut(o)] == v for o, v in rv.values.items()):
            variables[name] = _variable(small.space, values)
    measures = {name: m for name, m in doc.measures.items() if set(m.space.ids) <= coords}
    return document_from_space(small, events, partitions, variables, measures)


# ---------------------------------------------------------------------------
# serialization


def _cell_str(o: Outcome) -> str:
    return ",".join(o)


def _cells(space: ProductSpace, event: Event) -> list[str]:
    """An event's cells in canonical order."""
    return [_cell_str(o) for o in space.sort_event(event)]


def _row_json(space: ProductSpace, row: Row) -> dict[str, str]:
    """A row's cells in canonical order, each weight as its Fraction prints; cells outside `space` are dropped."""
    den, nums = row.den, row.nums
    idx = space.outcome_index
    out = {}
    for o in sorted((o for o in nums if o in idx), key=idx.__getitem__):
        n = nums[o]
        g = gcd(n, den)
        out[_cell_str(o)] = str(n // g) if g == den else f"{n // g}/{den // g}"
    return out


def serialize_document(doc: SpaceDocument) -> dict:
    """The canonical JSON-compatible form of a document."""
    space = doc.space
    data: dict = {"coordinates": []}
    for c in space.coordinates:
        entry: dict = {"id": c.id, "labels": list(c.labels)}
        if c.values is not None:
            entry["values"] = [fraction_str(v) for v in c.values]
        data["coordinates"].append(entry)
    data["measure"] = _row_json(space, doc.measure_table)
    if doc.kernels:
        kernels = {}
        for coords in sorted_subsets(space, doc.kernels):
            sub = space.subspace(coords)
            rows = doc.kernels[coords].rows
            kernels[",".join(sub.ids)] = {_cell_str(key): _row_json(space, rows[key]) for key in sub.outcomes}
        data["kernels"] = kernels
    if doc.events:
        data["events"] = {name: _cells(space, doc.events[name]) for name in sorted(doc.events)}
    if doc.partitions:
        data["partitions"] = {
            name: {"blocks": [_cells(space, b) for b in doc.partitions[name].blocks]}
            for name in sorted(doc.partitions)
        }
    if doc.variables:
        data["variables"] = {
            name: {"values": {_cell_str(o): fraction_str(doc.variables[name](o)) for o in space.outcomes}}
            for name in sorted(doc.variables)
        }
    if doc.measures:
        data["measures"] = {
            name: {"coords": ",".join(m.space.ids), "weights": _row_json(m.space, m.weights)}
            for name, m in sorted(doc.measures.items())
        }
    return data


def dumps_document(doc: SpaceDocument) -> str:
    return _emit(serialize_document(doc)) + "\n"


def _emit(value, indent: str = "\n") -> str:
    """`value`, made of dicts, lists and strings, as ``json.dumps(value, indent=2, ensure_ascii=False)`` lays it out.

    Strings go through the encoder that call uses, ``json.encoder.encode_basestring``;
    any other leaf raises TypeError.
    """
    if isinstance(value, str):
        return encode_basestring(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items, brackets = [f"{encode_basestring(k)}: {_emit(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, list):
        items, brackets = [_emit(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"a document holds dicts, lists and strings, not {type(value).__name__}")
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}" if items else brackets
