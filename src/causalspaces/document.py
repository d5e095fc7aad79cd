"""Causal-space documents: a JSON-compatible schema with exact weights.

A document declares coordinates, a sparse observational measure, sparse
kernels, and optional named events, partitions, random variables, and mixing
measures. Weights are decimal or fraction strings and parse exactly to
rationals; unspecified cells are weight zero. Cells are ``label,label,...``
strings in declared coordinate order.

Serialization is canonical (fixed section order, canonical cell order,
fractions in lowest terms), so loading and re-emitting a document is a
deterministic normalization, and equal in-memory spaces serialize to
byte-identical documents.

A weight string may hold at most :data:`MAX_RATIONAL_DIGITS` digits and a
decimal exponent of magnitude at most :data:`MAX_RATIONAL_EXPONENT`. Both
limits are checked before conversion: the exact value of ``"1e400000000"``
has 400 million digits, and expanding it would not finish.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import DocumentError
from .kernels import CausalKernel, CausalSpace, Violation, subsets_in_order
from .measure import Measure, RandomVariable
from .space import Coordinate, Event, Outcome, Partition, ProductSpace, coordinate_subalgebra, generated_algebra

_SECTIONS = ("coordinates", "measure", "kernels", "events", "partitions", "variables", "measures")

MAX_RATIONAL_DIGITS = 1000
MAX_RATIONAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)")


def parse_rational(value, location: str) -> Fraction:
    """Parse a decimal/fraction string (or int) exactly; floats are rejected.

    Strings with more than :data:`MAX_RATIONAL_DIGITS` digits or a decimal
    exponent beyond :data:`MAX_RATIONAL_EXPONENT` are rejected unparsed.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"weights must be strings or integers to stay exact, got {value!r}", location)
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_DIGITS and sum(map(str.isdecimal, value)) > MAX_RATIONAL_DIGITS:
            raise DocumentError(f"rational has more than {MAX_RATIONAL_DIGITS} digits", location)
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_RATIONAL_EXPONENT:
            raise DocumentError(f"rational exponent {exponent.group(1)} exceeds +-{MAX_RATIONAL_EXPONENT}", location)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DocumentError(f"malformed rational {value!r} ({exc})", location) from None


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


@dataclass
class SpaceDocument:
    """A parsed document: the raw tables plus every named auxiliary object.

    The measure and kernel tables are kept raw (they may violate the axioms);
    :func:`document_violations` reports problems with the observational table
    and :func:`to_causal_space` builds the typed space.
    """

    space: ProductSpace
    measure_table: dict[Outcome, Fraction]
    kernel_tables: dict[frozenset, dict[Outcome, dict[Outcome, Fraction]]] = field(default_factory=dict)
    events: dict[str, Event] = field(default_factory=dict)
    partitions: dict[str, Partition] = field(default_factory=dict)
    variables: dict[str, RandomVariable] = field(default_factory=dict)
    measures: dict[str, tuple[frozenset, dict[Outcome, Fraction]]] = field(default_factory=dict)

    def named_measure(self, name: str) -> Measure:
        coords, table = self.measures[name]
        return Measure(self.space.subspace(coords), table)


# ---------------------------------------------------------------------------
# parsing


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
    for label, cid in zip(parts, sub.ids):
        if label not in sub.coordinate(cid).labels:
            raise DocumentError(f"cell {cell!r}: {label!r} is not a label of coordinate {cid!r}", location)
    return parts


def _parse_weight_table(space, obj, location, coords=None) -> dict[Outcome, Fraction]:
    if not isinstance(obj, dict):
        raise DocumentError("expected an object of cell -> weight entries", location)
    table = {}
    for cell, value in obj.items():
        o = _parse_cell(space, cell, f"{location}[{cell}]", coords)
        if o in table:
            raise DocumentError(f"duplicate cell {cell!r}", location)
        table[o] = parse_rational(value, f"{location}[{cell}]")
    return table


def _parse_subset(space: ProductSpace, text, location: str) -> frozenset:
    if isinstance(text, list) and not all(isinstance(t, str) for t in text):
        raise DocumentError("a coordinate subset is a list of ids or a comma-separated string", location)
    ids = text if isinstance(text, list) else [t for t in str(text).split(",") if t]
    try:
        return space.check_subset(ids)
    except ValueError as exc:
        raise DocumentError(str(exc), location) from None


def _parse_event(space: ProductSpace, spec, location: str) -> Event:
    if isinstance(spec, list):
        return frozenset(_parse_cell(space, c, location) for c in spec)
    if isinstance(spec, dict):
        constraints = {}
        for cid, labels in spec.items():
            if cid not in space.ids:
                raise DocumentError(f"unknown coordinate {cid!r}", location)
            if not isinstance(labels, str) and not _is_list_of(labels, str):
                raise DocumentError(f"the labels of {cid!r} must be a label or a list of labels", location)
            constraints[cid] = labels
        try:
            return space.where(**constraints)
        except ValueError as exc:
            raise DocumentError(str(exc), location) from None
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
            if isinstance(g, str) and g in events:
                gens.append(events[g])
            else:
                gens.append(_parse_event(space, g, f"{location}[{i}]"))
        return generated_algebra(space, gens)
    if kind == "blocks":
        if not _is_list_of(value, list):
            raise DocumentError("'blocks' must be a list of lists of cells", location)
        blocks = [frozenset(_parse_cell(space, c, location) for c in b) for b in value]
        try:
            return Partition(space, tuple(blocks))
        except ValueError as exc:
            raise DocumentError(str(exc), location) from None
    raise DocumentError(f"unknown partition form {kind!r}", location)


def _parse_variable(space: ProductSpace, spec, location: str) -> RandomVariable:
    if not isinstance(spec, dict):
        raise DocumentError("a variable is {'coord': id} or {'values': {cell: rational}}", location)
    if set(spec) == {"coord"}:
        if not isinstance(spec["coord"], str):
            raise DocumentError("'coord' must be a coordinate id", location)
        try:
            return RandomVariable.from_coordinate(space, spec["coord"])
        except (ValueError, KeyError) as exc:
            raise DocumentError(str(exc), location) from None
    if set(spec) == {"values"}:
        if not isinstance(spec["values"], dict):
            raise DocumentError("'values' must be an object of cell -> rational entries", location)
        values = {}
        for cell, v in spec["values"].items():
            values[_parse_cell(space, cell, f"{location}[{cell}]")] = parse_rational(v, f"{location}[{cell}]")
        missing = set(space.outcomes) - set(values)
        if missing:
            raise DocumentError(f"variable lacks values for {len(missing)} outcomes", location)
        levels: dict[Fraction, set] = {}
        for o, v in values.items():
            levels.setdefault(v, set()).add(o)
        partition = Partition(space, tuple(frozenset(s) for s in levels.values()))
        return RandomVariable(space, values, partition)
    raise DocumentError("a variable is {'coord': id} or {'values': {cell: rational}}", location)


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
        labels = tuple(str(l) for l in c["labels"])
        if any("," in l for l in labels):
            raise DocumentError("labels must not contain commas", loc)
        values = None
        if "values" in c:
            if not isinstance(c["values"], list):
                raise DocumentError("'values' must be a list", loc)
            values = tuple(parse_rational(v, f"{loc}.values") for v in c["values"])
        try:
            coords.append(Coordinate(str(c["id"]), labels, values))
        except ValueError as exc:
            raise DocumentError(str(exc), loc) from None
    if not coords:
        raise DocumentError("at least one coordinate is required", source)
    try:
        space = ProductSpace(tuple(coords))
    except ValueError as exc:
        raise DocumentError(str(exc), f"{source}.coordinates") from None

    measure_table = _parse_weight_table(space, data.get("measure", {}), f"{source}.measure")

    kernel_tables: dict[frozenset, dict] = {}
    for subset_text, rows_obj in _section(data, "kernels", dict, source).items():
        loc = f"{source}.kernels[{subset_text}]"
        coords_set = _parse_subset(space, subset_text, loc)
        if not coords_set:
            coords_set = frozenset()
        if not isinstance(rows_obj, dict):
            raise DocumentError("kernel rows must be an object keyed by row cells", loc)
        rows = {}
        for row_text, table in rows_obj.items():
            row = _parse_cell(space, row_text, f"{loc}[{row_text}]", coords_set)
            rows[row] = _parse_weight_table(space, table, f"{loc}[{row_text}]")
        for key in space.subspace(coords_set).outcomes:
            rows.setdefault(key, {})
        kernel_tables[coords_set] = rows

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
        sub = _parse_subset(space, spec["coords"], loc)
        measures[name] = (sub, _parse_weight_table(space, spec["weights"], f"{loc}.weights", sub))

    return SpaceDocument(space, measure_table, kernel_tables, events, partitions, variables, measures)


def load_document(path) -> SpaceDocument:
    """Parse a document file; malformed JSON or structure raises DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DocumentError(str(exc), str(path)) from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}") from None
    except ValueError as exc:  # bytes that are not UTF-8, or an integer beyond the interpreter's digit limit
        raise DocumentError(f"invalid JSON: {exc}", str(path)) from None
    return parse_document(data, source=str(path))


# ---------------------------------------------------------------------------
# validation and conversion


def document_violations(doc: SpaceDocument) -> list[Violation]:
    """Problems with the observational table, reported as violation data."""
    found = []
    total = Fraction(0)
    for o in doc.space.outcomes:
        w = doc.measure_table.get(o, Fraction(0))
        total += w
        if w < 0:
            found.append(Violation("measure-negative", None, None, o, f"weight {w}"))
    if total != 1:
        found.append(Violation("measure-sum", None, None, None, f"weights sum to {total}, expected 1"))
    return found


def to_causal_space(doc: SpaceDocument) -> CausalSpace:
    """The typed causal space; raises if the observational table is invalid.

    A supplied empty-subset kernel is stored so that validation can compare
    it against the observational measure, but lookups keep synthesizing.
    """
    p = Measure(doc.space, doc.measure_table)
    kernels = {coords: CausalKernel(doc.space, coords, rows) for coords, rows in doc.kernel_tables.items()}
    return CausalSpace(doc.space, p, kernels)


def document_from_space(
    cs: CausalSpace,
    events: Optional[Mapping[str, Event]] = None,
    partitions: Optional[Mapping[str, Partition]] = None,
    variables: Optional[Mapping[str, RandomVariable]] = None,
    measures: Optional[Mapping[str, tuple[frozenset, dict]]] = None,
) -> SpaceDocument:
    """Snapshot a causal space (materializing lazy kernels) into a document."""
    return SpaceDocument(
        cs.space,
        dict(cs.observational.weights),
        {s: {k: dict(t) for k, t in cs.kernel(s).rows.items()} for s in cs.kernel_subsets()},
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
    """
    from .kernels import marginalize

    coords = doc.space.check_subset(coords)
    small = marginalize(to_causal_space(doc), coords)

    def project(a: Event) -> Optional[frozenset]:
        image = {doc.space.restrict(o, coords) for o in a}
        lifted = {o for o in doc.space.outcomes if doc.space.restrict(o, coords) in image}
        return frozenset(image) if lifted == set(a) else None

    events = {}
    for name, a in doc.events.items():
        image = project(a)
        if image is not None:
            events[name] = image
    partitions = {}
    for name, part in doc.partitions.items():
        images = [project(b) for b in part.blocks]
        if all(i is not None for i in images):
            partitions[name] = Partition(small.space, tuple(images))
    variables = {}
    for name, rv in doc.variables.items():
        by_key: dict[Outcome, set] = {}
        for o in doc.space.outcomes:
            by_key.setdefault(doc.space.restrict(o, coords), set()).add(rv(o))
        if all(len(vs) == 1 for vs in by_key.values()):
            values = {k: next(iter(vs)) for k, vs in by_key.items()}
            levels: dict[Fraction, set] = {}
            for o, v in values.items():
                levels.setdefault(v, set()).add(o)
            variables[name] = RandomVariable(
                small.space, values, Partition(small.space, tuple(frozenset(s) for s in levels.values()))
            )
    measures = {name: m for name, m in doc.measures.items() if m[0] <= coords}
    return document_from_space(small, events, partitions, variables, measures)


# ---------------------------------------------------------------------------
# serialization


def _cell_str(o: Outcome) -> str:
    return ",".join(o)


def _weights_json(space: ProductSpace, table: Mapping[Outcome, Fraction]) -> dict[str, str]:
    """The nonzero cells of a weight table in canonical order; outcomes outside `space` are dropped."""
    idx = space.outcome_index
    cells = sorted((o for o, w in table.items() if w and o in idx), key=idx.__getitem__)
    return {_cell_str(o): fraction_str(table[o]) for o in cells}


def serialize_document(doc: SpaceDocument) -> dict:
    """The canonical JSON-compatible form of a document."""
    space = doc.space
    data: dict = {"coordinates": []}
    for c in space.coordinates:
        entry: dict = {"id": c.id, "labels": list(c.labels)}
        if c.values is not None:
            entry["values"] = [fraction_str(v) for v in c.values]
        data["coordinates"].append(entry)
    data["measure"] = _weights_json(space, doc.measure_table)
    if doc.kernel_tables:
        kernels = {}
        for coords in subsets_in_order(space.ids):
            if coords not in doc.kernel_tables or not coords:
                continue
            sub = space.subspace(coords)
            rows = doc.kernel_tables[coords]
            kernels[",".join(sub.ids)] = {_cell_str(key): _weights_json(space, rows[key]) for key in sub.outcomes}
        data["kernels"] = kernels
    if doc.events:
        data["events"] = {
            name: [_cell_str(o) for o in space.sort_event(doc.events[name])] for name in sorted(doc.events)
        }
    if doc.partitions:
        data["partitions"] = {
            name: {"blocks": [[_cell_str(o) for o in space.sort_event(b)] for b in doc.partitions[name].blocks]}
            for name in sorted(doc.partitions)
        }
    if doc.variables:
        data["variables"] = {
            name: {"values": {_cell_str(o): fraction_str(doc.variables[name](o)) for o in space.outcomes}}
            for name in sorted(doc.variables)
        }
    if doc.measures:
        section = {}
        for name in sorted(doc.measures):
            coords, table = doc.measures[name]
            sub = space.subspace(coords)
            section[name] = {
                "coords": ",".join(sub.ids),
                "weights": _weights_json(sub, table),
            }
        data["measures"] = section
    return data


def dumps_document(doc: SpaceDocument) -> str:
    return json.dumps(serialize_document(doc), indent=2, ensure_ascii=False) + "\n"
