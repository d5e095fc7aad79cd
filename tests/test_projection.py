"""The cached projection layer of ProductSpace against its literal definitions.

Each reference below is the uncached definition the layer replaces: projection
(of one outcome, and the projection table over Ω) by testing ids for
membership, subspaces rebuilt per call, a set built per subset check, cells
split and checked label by label, and kernel rows serialized by scanning
every outcome of the space.
"""

import json
import sys
import threading
from fractions import Fraction
from itertools import combinations

from hypothesis import given, strategies as st

from causalspaces.document import SpaceDocument, _parse_cell, fraction_str, serialize_document
from causalspaces.errors import DocumentError
from causalspaces.kernels import CausalKernel, subsets_in_order
from causalspaces.space import Coordinate, ProductSpace

LABEL_POOL = ("", "0", "1", "x", "a,b")


def literal_check_subset(space, coords):
    coords = frozenset(coords)
    unknown = coords - set(space.ids)
    if unknown:
        raise ValueError(f"unknown coordinate ids: {sorted(unknown)}")
    return coords


def literal_restrict(space, omega, coords):
    coords = literal_check_subset(space, coords)
    return tuple(l for l, cid in zip(omega, space.ids) if cid in coords)


def literal_subspace(space, coords):
    coords = literal_check_subset(space, coords)
    return ProductSpace(tuple(c for c in space.coordinates if c.id in coords))


def literal_parse_cell(space, cell, location, coords=None):
    sub = space if coords is None else literal_subspace(space, coords)
    parts = tuple(cell.split(",")) if cell else ()
    if len(parts) != len(sub.ids):
        raise DocumentError(f"cell {cell!r} has {len(parts)} labels, expected {len(sub.ids)}", location)
    for label, cid in zip(parts, sub.ids):
        if label not in sub.coordinate(cid).labels:
            raise DocumentError(f"cell {cell!r}: {label!r} is not a label of coordinate {cid!r}", location)
    return parts


def literal_weights(space, table):
    return {",".join(o): fraction_str(table[o]) for o in space.outcomes if table.get(o)}


def outcome_of(call, *args):
    """('ok', value) or ('error', exception type, message): comparable across implementations."""
    try:
        return ("ok", call(*args))
    except (ValueError, DocumentError) as exc:
        return ("error", type(exc), str(exc))


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 4))
    coords = []
    for i in range(n):
        labels = draw(st.lists(st.sampled_from(LABEL_POOL), min_size=1, max_size=3, unique=True))
        coords.append(Coordinate(f"c{i}", tuple(labels)))
    return ProductSpace(tuple(coords))


def all_subsets(space):
    return [frozenset(c) for r in range(len(space.ids) + 1) for c in combinations(space.ids, r)]


@given(spaces(), st.data())
def test_projection_layer_matches_literal_definitions(space, data):
    subsets = all_subsets(space)
    for coords in subsets:
        for form in (coords, set(coords), sorted(coords), coords):  # the last call hits the memo
            assert space.check_subset(form) == literal_check_subset(space, form)
            assert space.subspace(form) == literal_subspace(space, form)
            assert space.ordered(form) == tuple(c for c in space.ids if c in coords)
            for o in space.outcomes:
                assert space.restrict(o, form) == literal_restrict(space, o, form)
            # the projection table is built afresh on every call
            assert space.projection(form) == {o: literal_restrict(space, o, form) for o in space.outcomes}
            assert space.projection(form) is not space.projection(form)
        assert space.subspace(coords) is space.subspace(set(coords))
    bad = data.draw(st.sets(st.sampled_from(space.ids + ("zz", "c9")), min_size=1))
    assert outcome_of(space.check_subset, bad) == outcome_of(literal_check_subset, space, bad)
    assert outcome_of(space.subspace, bad) == outcome_of(literal_subspace, space, bad)
    if outcome_of(literal_check_subset, space, bad)[0] == "error":
        omega = space.outcomes[0]
        assert outcome_of(space.restrict, omega, frozenset(bad)) == outcome_of(literal_restrict, space, omega, bad)
        assert outcome_of(space.projection, bad) == outcome_of(literal_check_subset, space, bad)


@given(spaces(), st.data())
def test_parse_cell_matches_literal_definition(space, data):
    subsets = [None] + all_subsets(space)
    cells = [",".join(o) for o in space.outcomes]
    cells += data.draw(st.lists(st.lists(st.sampled_from(LABEL_POOL + ("zz",)), max_size=5).map(",".join)))
    cells += ["", ",", "0,", ",0"]
    for coords in subsets:
        for cell in cells:
            got = outcome_of(_parse_cell, space, cell, "loc", coords)
            assert got == outcome_of(literal_parse_cell, space, cell, "loc", coords)


@given(spaces(), st.data())
def test_sorted_serialization_matches_outcome_scan(space, data):
    weights = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-1, 2), Fraction(2)])
    tables = {}
    for coords in subsets_in_order(space.ids):
        if not data.draw(st.booleans()):
            continue
        rows = {}
        for key in space.subspace(coords).outcomes:
            # any outcome may carry mass, in or out of the row's cylinder, and zeros are explicit
            cells = data.draw(st.lists(st.sampled_from(space.outcomes), unique=True))
            rows[key] = {o: data.draw(weights) for o in cells}
        tables[coords] = rows
    measure = {o: data.draw(weights) for o in data.draw(st.lists(st.sampled_from(space.outcomes), unique=True))}
    kernels = {coords: CausalKernel(space, coords, rows) for coords, rows in tables.items()}
    got = serialize_document(SpaceDocument(space, measure, kernels))
    # json.dumps keeps key order, so equal dumps mean equal cells in equal order
    assert json.dumps(got["measure"]) == json.dumps(literal_weights(space, measure))
    expected = {
        ",".join(space.ordered(coords)): {
            ",".join(key): literal_weights(space, tables[coords][key]) for key in space.subspace(coords).outcomes
        }
        for coords in subsets_in_order(space.ids)
        if coords in tables
    }
    assert json.dumps(got.get("kernels", {})) == json.dumps(expected)


def test_projection_caches_are_safe_to_fill_from_threads():
    coords = tuple(Coordinate(f"c{i}", ("0", "1", "2")) for i in range(5))
    space = ProductSpace(coords)
    subsets = all_subsets(space)
    expected = {s: (literal_subspace(space, s), [literal_restrict(space, o, s) for o in space.outcomes]) for s in subsets}
    failures = []

    def work(offset):
        for s in subsets[offset:] + subsets[:offset]:
            sub, projections = expected[s]
            if space.subspace(s) != sub or [space.restrict(o, s) for o in space.outcomes] != projections:
                failures.append(s)
        if space.cells.get(",".join(space.outcomes[-1])) != space.outcomes[-1]:
            failures.append("cells")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
