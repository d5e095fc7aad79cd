"""A mutation catalogue for the verdict engine, the scores, the row arithmetic, the cut rule, the axiom checks, the input gates and the value classes.

Each mutant is a textual replacement ``(file, old, new, note)`` in one module
of ``src/causalspaces``; the note starts with the mutant's name. The runner
copies ``src/`` to a temporary directory, applies one mutant there (``old``
must occur exactly once in the file) and runs the fixed test selection
``SELECTION`` against the copy with ``pytest -x``. A mutant is killed when
pytest fails, and survives when the selection passes. A mutant times out
when its run takes more than ``TIMEOUT_FACTOR`` times the unmutated run; a
timeout is printed as its own verdict and counts as a kill only for a mutant
outside the allow-list.

``EQUIVALENT`` names the mutants that no test can kill, each with a one-line
argument. The run exits 1 when a mutant outside that list survives, when a
listed one is killed (the list is stale) or times out, or when some ``old``
text does not occur exactly once; it exits 2 when the unmutated copy fails
the selection.

Run from the repository root (pytest does not collect this file); it runs
every mutant, one per CPU up to four at a time:

    python3 tests/mutants.py

``python3 tests/mutants.py K/N`` runs only part K of N: every N-th mutant of
the catalogue, from its K-th on, so the allow-listed ones spread over the
parts. Each part checks the whole catalogue's texts and runs the unmutated
selection first; the N parts together run every mutant once.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# fastest first, so that -x stops a killed mutant early; tests/test_acceptance.py is left out
# because it killed no mutant that these miss, and it adds 6-7 s to every surviving one
SELECTION = [
    "tests/test_value_classes.py",
    "tests/test_space.py",
    "tests/test_measure.py",
    "tests/test_effects.py",
    "tests/test_kernels.py",
    "tests/test_axioms.py",
    "tests/test_scores.py",
    "tests/test_integer_rows.py",
    "tests/test_scm_scores.py",
    "tests/test_metamorphic.py",
    "tests/test_projection.py",
    "tests/test_console_checks.py",
    "tests/test_cli_catalogue.py",
    "tests/test_document.py",
    "tests/test_differential.py",
]

TIMEOUT_FACTOR = 4  # a mutant's run may take this many times the unmutated run
JOBS = min(4, os.cpu_count() or 1)  # mutants run at once

CATALOGUE = [
    # -- effects: the comparators -------------------------------------------------------------
    ("effects.py",
     "return m1 is not m2 and m1 != m2",
     "return m1 is m2 or m1 == m2",
     "equal-inverted: _Equal.differs reports the pairs whose masses agree, and not those that differ"),
    ("effects.py",
     "m1, m2 = read1(key1, a), read2(key2, a)",
     "m1, m2 = read1(key1, a), read2(key1, a)",
     "equal-one-key: _Equal.differs reads the second row at the first row's key"),
    ("effects.py",
     "return m1 is not m2 and m1 != m2",
     "return m1 is not m2 or m1 != m2",
     "equal-identity-or: _Equal.differs counts two equal masses that are distinct objects as a difference"),
    ("effects.py",
     "(d1 == 0 or d2 == 0) if self.strict",
     "(d1 == 0 and d2 == 0) if self.strict",
     "given-strict-and: the given-event premise fails only when both rows give g no mass"),
    ("effects.py",
     "else (d1 == 0) != (d2 == 0):",
     "else (d1 == 0) and (d2 != 0):",
     "given-one-sided: the mutual-continuity premise is checked in one direction only"),
    ("effects.py",
     "if (d1 == 0 or d2 == 0) if self.strict else",
     "if (d1 == 0 or d2 == 0) if not self.strict else",
     "given-premises-swapped: an event gets the algebra premise and an algebra the event one"),
    ("effects.py",
     "                return None\n            dens.append((d1, d2))",
     "                pass\n            dens.append((d1, d2))",
     "given-premise-ignored: _GivenAlgebra.prepare keeps a pair whose premise fails"),
    ("effects.py",
     "if d1 and read1(key1, x) * d2 != read2(key2, x) * d1:",
     "if d1 and read1(key1, x) * d1 != read2(key2, x) * d2:",
     "given-cross-swapped: _GivenAlgebra.differs multiplies each mass by its own denominator"),
    ("effects.py",
     "if d1 and read1(key1, x)",
     "if d2 and read1(key1, x)",
     "given-guard-d2: _GivenAlgebra.differs skips a block by the second row's mass"),
    ("effects.py",
     "if (x := b & a) and x != b]",
     "if (x := b & a)]",
     "given-inside-blocks: _GivenAlgebra.split also hands on the blocks inside the target"),
    ("effects.py",
     "return [(i, x) for i, b in",
     "return [(i, b) for i, b in",
     "given-whole-blocks: _GivenAlgebra.split hands on whole blocks, not their parts in the target"),
    ("effects.py",
     "return [(i, x) for i, b in enumerate(self.blocks) if (x := b & a) and x != b]",
     "return self.__dict__.setdefault(\"parts\", [(i, x) for i, b in enumerate(self.blocks) if (x := b & a) and x != b])",
     "split-first-target: _GivenAlgebra.split works out the split blocks of the first target only"),
    ("effects.py",
     "ZERO_MEASURE_CONDITIONING if self.strict else NOT_MUTUALLY_ABS_CONT",
     "NOT_MUTUALLY_ABS_CONT if self.strict else ZERO_MEASURE_CONDITIONING",
     "given-reasons-swapped: a failed premise reports the other reason"),
    ("effects.py",
     "compare = _Equal() if given is None else _GivenAlgebra(given)",
     "compare = _GivenAlgebra(given) if given else _Equal()",
     "choice-truthy: an empty given event is compared as if nothing were given"),
    ("effects.py",
     "blocked = True  # another row may still be active",
     "return undetermined(compare.reason)",
     "active-blocked-early: a failed premise in the active phase decides before the other rows"),
    ("effects.py",
     "found = True  # dormant, unless a later premise fails",
     "return tag",
     "dormant-early: the quantified phase returns dormant at its first differing pair, before the later premises"),
    ("effects.py",
     "            elif a is None:\n                checked.append(prepared)\n",
     "            elif checked.append(prepared) or a is None:\n                pass\n",
     "event-pairs-kept: an event target's prepared pairs are kept for the whole scan anyway"),
    ("effects.py",
     "for parts in map(compare.split, algebra_events(target, block_cap)):",
     "for parts in map(compare.split, [next(algebra_events(target, block_cap))]):",
     "partition-first-union: a partition target is compared on its first union only"),
    ("effects.py",
     "        if blocked:\n            return undetermined(compare.reason)",
     "        if False:\n            return undetermined(compare.reason)",
     "active-blocked-ignored: a failed premise in the active phase is forgotten"),
    ("effects.py",
     "shapes = [(u | v, v, u)]",
     "shapes = [(u | v, u | v, u)]",
     "active-shape-self: the active shape compares the joint row with itself"),
    ("effects.py",
     "for t in family if not w or t & w]",
     "for t in family]",
     "skip-dropped: the quantified scan also compares the rows it skips"),
    ("effects.py",
     "if t >= v]",
     "if t > v]",
     "family-drops-v: the quantified family leaves out T = V"),
    ("effects.py",
     "if s else lambda key, a: cs.observational(a)",
     "if s is not None else None",
     "pairs-empty-kernel: _pairs reads the empty subset through its synthesized kernel"),
    ("effects.py",
     "cut2 = None if reduced == free else",
     "cut2 = None if True else",
     "pairs-reduced-key-part: the reduced key is always the free assignment"),
    ("effects.py",
     "at = in_key | dict(zip(space.positions(free), count(len(pu))))",
     "at = {g: i + len(free) for g, i in in_key.items()} | dict(zip(space.positions(free), count()))",
     "pairs-cell-order: _pairs reads the cell as free labels first"),
    ("effects.py",
     "count(len(pu))",
     "count(len(pu) - 1)",
     "pairs-free-offset: _pairs reads the free labels from one cell early"),
    ("effects.py",
     "return sorted(keys, key=space.subspace(coords).outcome_index.__getitem__)",
     "return list(keys)",
     "subject-keys-unsorted: event subjects are scanned in set order"),
    ("effects.py",
     "        for i in range(n):\n            if mask >> i & 1:",
     "        for i in range(n - 1):\n            if mask >> i & 1:",
     "unions-drop-last-block: algebra_events never includes the last block"),
    ("effects.py",
     "if (self.tag is EffectTag.UNDETERMINED) != (self.reason is not None):",
     "if False:",
     "verdict-reason-unchecked: EffectVerdict accepts a reason on any tag"),
    ("effects.py",
     "target = space.check_partition(target) if isinstance(target, Partition) else space.event(target)",
     "target = target if isinstance(target, Partition) else frozenset(target)",
     "verdict-target-ungated: _verdict reads the target without checking it against the space"),
    ("effects.py",
     "given = space.check_partition(given) if isinstance(given, Partition) else space.event(given)",
     "given = given if isinstance(given, Partition) else frozenset(given)",
     "verdict-given-ungated: _verdict reads what is given without checking it against the space"),
    ("effects.py",
     "if q_on_v is None and q_on_u is None:",
     "if False:",
     "prop3-no-measure: check_prop3 with no mixing measure reports success"),
    # -- measure: row sums, the probability-row check, the pushforward and the Row constructor ----
    ("measure.py",
     "if len(nums) <= len(a) and nums.keys() <= a:",
     "if len(nums) <= len(a):",
     "row-mass-whole: row_mass sums the whole row whenever it is no longer than the event"),
    ("measure.py",
     "total = sum([n for o, n in nums.items() if o in a])",
     "total = sum([n for o, n in nums.items() if o not in a])",
     "row-mass-complement: row_mass sums the outcomes outside the event"),
    ("measure.py",
     "    if total == row.den:\n        return ONE",
     "    if total == row.den + 1:\n        return ONE",
     "row-mass-one: row_mass builds Fraction(den, den) instead of returning the shared ONE"),
    ("measure.py",
     "min(nums.values()) >= 0 and",
     "min(nums.values()) >= -1 and",
     "holds-negative: row_holds accepts a numerator of -1"),
    ("measure.py",
     "sum(nums.values()) == row.den and",
     "sum(nums.values()) >= row.den and",
     "holds-sum: row_holds accepts a row whose numerators sum past den"),
    ("measure.py",
     "sum(nums.values()) == row.den and nums.keys() <= index.keys()",
     "sum(nums.values()) == row.den",
     "holds-support: row_holds accepts an outcome outside the space"),
    ("measure.py",
     "return bool(nums) and min(nums.values())",
     "return min(nums.values(), default=0)",
     "holds-empty: row_holds accepts the empty row"),
    ("measure.py",
     "            table[key] += n\n",
     "            table[key] = n\n",
     "pushforward-overwrite: pushforward keeps the last numerator of an image, not the sum"),
    ("measure.py",
     "return Row(row.den, table)",
     "return Row(row.den, dict(row.nums))",
     "pushforward-identity: pushforward returns the row unprojected"),
    ("measure.py",
     "if not all(nums.values()):",
     "if False:",
     "row-zeros-kept: the Row constructor keeps zero numerators"),
    ("measure.py",
     "        if g != 1:\n            den //= g",
     "        if False:\n            den //= g",
     "row-unreduced: the Row constructor divides out no gcd"),
    ("measure.py",
     "g = math.gcd(den, *nums.values())",
     "g = math.gcd(*nums.values())",
     "row-gcd-numerators: the Row constructor's gcd ignores the denominator"),
    ("measure.py",
     "return self.den == other.den and self.nums == other.nums",
     "return self.den == other.den",
     "row-eq-den: two rows are equal when their denominators are"),
    ("measure.py",
     '    if p.space != q.space:\n        raise ValueError("measures live on different spaces")',
     "    pass",
     "continuity-space-unchecked: mutually_abs_continuous_on compares measures on two spaces"),
    # -- kernels: the intervention kernel and validate ----------------------------------------
    ("kernels.py",
     "scale = q * (den // row.den)",
     "scale = den // row.den",
     "mix-unweighted: intervention_kernel drops the mixing weights"),
    ("kernels.py",
     "rows[key] = Row(mixing.den * den, table)",
     "rows[key] = Row(den, table)",
     "mix-den: intervention_kernel forgets the mixing denominator"),
    ("kernels.py",
     "                    table[o] += scale * n\n",
     "                    table[o] = scale * n\n",
     "mix-overwrite: intervention_kernel keeps the last source row's mass on a shared cell"),
    ("kernels.py",
     "enumerate(sub.ids + q_space.ordered(rest))",
     "enumerate(q_space.ordered(rest) + sub.ids)",
     "mix-key-order: intervention_kernel reads the source key as mixing cell first"),
    ("kernels.py",
     "mixing = pushforward(spec.q.weights, q_space.projection(rest))",
     "mixing = spec.q.weights",
     "mix-no-marginal: intervention_kernel mixes over q's whole cells, not their marginal on the rest"),
    ("kernels.py",
     "all(row_holds(row, index) and set(map(cut, row.nums)) == {key} for",
     "all(set(map(cut, row.nums)) == {key} for",
     "validate-no-holds: the kernel fact, and so validate, skips the probability-row check"),
    ("kernels.py",
     "all(row_holds(row, index) and set(map(cut, row.nums)) == {key} for",
     "all(row_holds(row, index) for",
     "validate-no-cylinder: the kernel fact, and so validate, skips the cylinder check"),
    ("kernels.py",
     "all(row_holds(row, index) and",
     "all(min(row.nums.values()) >= 0 and row.nums.keys() <= index.keys() and",
     "holds-no-sum: the kernel fact ignores the row sum"),
    ("kernels.py",
     "return all(row_holds(row, index)",
     "return any(row_holds(row, index)",
     "holds-any: the kernel fact holds when one row does"),
    ("kernels.py",
     "        if not kernel._holds:\n",
     "        if False:\n",
     "validate-trusts-kernels: validate walks no kernel, whatever its fact"),
    ("kernels.py",
     "or o not in index or cut(o) != key]",
     "or o not in index]",
     "row-violations-no-cylinder: a row's walk reports no entry off the key's cylinder"),
    ("kernels.py",
     "if not coords and kernel._rows[()] != cs.observational.weights:",
     "if False:",
     "validate-no-conflict: validate ignores a supplied empty-subset kernel that differs"),
    # -- space: the one cut rule, the one measurability rule and the input gates ----------------
    ("space.py",
     "        if not self.contains(omega):\n",
     "        if len(omega) != len(self.coordinates):\n",
     "outcome-any-labels: check_outcome accepts any tuple of the right length"),
    ("space.py",
     "if partition.space != self:",
     "if partition.space == self:",
     "same-space-inverted: check_partition refuses a partition of its own space and accepts any other"),
    ("space.py",
     "        if strays:\n",
     "        if strays and not isinstance(members, frozenset):\n",
     "event-frozenset-unchecked: event returns a frozenset without its membership test"),
    ("space.py",
     "a, pos = self.event(a), self.positions(coords)",
     "a, pos = frozenset(a), self.positions(coords)",
     "cylinder-no-membership: cylinder_image counts an event's members without checking them"),
    ("space.py",
     "== len(image) * len(self) else None",
     "<= len(image) * len(self) else None",
     "candidates-measurable-gt: cylinder_image accepts an event that misses part of a cylinder"),
    ("space.py",
     "== len(image) * len(self) else None",
     ">= len(image) * len(self) else None",
     "candidates-measurable-lt: cylinder_image refuses only an event that overfills its cylinders"),
    ("space.py",
     "{min(strays, key=repr)!r}",
     "{next(iter(strays))!r}",
     "event-first-stray: event names the first stray member in set order"),
    ("space.py",
     "if len(positions) != 1:",
     "if positions is not None:",
     "pairs-one-index-bare: a key cut at one index is the bare label, not a 1-tuple"),
    ("space.py",
     "else lambda o: ()",
     "else lambda o: o[:0]",
     "cut-zero-slice: the cut at no position is the outcome's empty slice, a list for a list outcome"),
    ("space.py",
     "return lambda o: (o[i],)",
     "return lambda o: (o[0],)",
     "cut-one-first: the cut at one position takes the outcome's first label"),
    ("space.py",
     "return lambda o: (o[i],)",
     "return lambda o: tuple(o[i : i + 1])",
     "cut-short-slice: the cut at one position past the end of a short outcome is (), not an IndexError"),
    # -- space, measure and document: the one level-set rule and its readers --------------------
    ("space.py",
     "groups[key(o)].append(o)",
     "groups[key(self.outcomes[self.outcome_index[o] - 1])].append(o)",
     "level-sets-previous-key: level_sets files each outcome under the key of the one before it"),
    ("space.py",
     "        return dict(groups)\n",
     "        return dict(list(groups.items())[:-1])\n",
     "level-sets-last-dropped: level_sets leaves out its last group"),
    ("space.py",
     "        for o in self.outcomes:\n            groups[key(o)]",
     "        for o in reversed(self.outcomes):\n            groups[key(o)]",
     "level-sets-reversed: level_sets orders the groups, and each group, by their last outcome"),
    ("space.py",
     "level_sets(lambda o: tuple(o in e for e in events))",
     "level_sets(lambda o: frozenset(o in e for e in events))",
     "generated-pattern-set: generated_algebra keys an outcome by the set of its memberships, not their pattern"),
    ("measure.py",
     "        if not self.measurable_wrt(self.partition):\n",
     "        if False:\n",
     "variable-constancy-dropped: RandomVariable accepts a variable that is not constant on a block"),
    ("measure.py",
     "return all(len({self.values[o] for o in b}) == 1",
     "return any(len({self.values[o] for o in b}) == 1",
     "measurable-any-block: measurable_wrt holds when the variable is constant on one block"),
    ("document.py",
     "space.level_sets(values.__getitem__)",
     "space.cylinders(space.ids)",
     "variable-discrete: a document variable's partition is the discrete one, not its level sets"),
    ("effects.py",
     "set(map(cut_at(space.positions(coords)), members))",
     "set(map(cut_at(space.positions(coords)), list(members)[:1]))",
     "subject-keys-one-member: an event subject's keys are cut off one of its members"),
    # -- document: the weight reader and the cylinder rule's reader ------------------------------
    ("document.py",
     "(cells := space.cylinder_image(a, coords))",
     "(cells := frozenset(map(cut, a)))",
     "lift-any-event: marginalize_document carries every event over as its projection, cylinder or not"),
    ("document.py",
     "tuple(space.cylinder_image(b, coords) for b in part.blocks)",
     "tuple(frozenset(map(cut, b)) for b in part.blocks)",
     "lift-any-block: marginalize_document carries every partition over block by block, cylinders or not"),
    ("document.py",
     "num, den = int(head + tail), 10 ** len(tail)",
     "num, den = int(head + tail), 10 ** (len(tail) + 1)",
     "reader-decimal: the weight reader scales a decimal by one power of ten too many"),
    ("document.py",
     "num, den = int(head), 1",
     "num, den = int(head), 10",
     "reader-integer: the weight reader reads an integer as tenths"),
    ("document.py",
     "            num = int(head)\n",
     "            num = int(tail)\n",
     "reader-fraction: the weight reader reads a fraction's denominator as its numerator"),
    ("document.py",
     "and (den := int(tail)):",
     "and ((den := int(tail)) or True):",
     "reader-zero-den: the weight reader accepts a zero denominator"),
    # -- scores: the moments functional, the size rule and the candidates ----------------------
    ("scores.py",
     "    cs.space.check_partition(algebra)\n",
     "",
     "scores-algebra-ungated: the algebra scores take a partition of any space"),
    ("scores.py",
     "return tuple(ours[i] - theirs[i] for i in which)",
     "return tuple(theirs[i] - ours[i] for i in which)",
     "moments-sign: the moments functional subtracts the intervened measure's moments"),
    ("scores.py",
     '"variance_diff", 1, _moments(1)',
     '"variance_diff", 1, _moments(0)',
     "moments-variance-as-mean: VARIANCE_DIFF compares means"),
    ("scores.py",
     "_moments(0, 1)",
     "_moments(1, 0)",
     "moments-order: MEAN_AND_VARIANCE_DIFF gives the variance first"),
    ("scores.py",
     "if isinstance(value, tuple) else abs(value)",
     "if isinstance(value, tuple) else value",
     "size-signed: a scalar score is ranked by its signed value"),
    ("scores.py",
     "norm_squared(value) if isinstance(value, tuple)",
     "norm_squared(value) if isinstance(value, list)",
     "size-tuple-as-scalar: a tuple score is sized by abs"),
    ("scores.py",
     "i = sizes.index(max(sizes))",
     "i = len(sizes) - 1 - sizes[::-1].index(max(sizes))",
     "max-last: the maximum path keeps the last row of largest size"),
    ("scores.py",
     "tied=sizes.count(sizes[i]) > 1",
     "tied=sizes.count(sizes[i]) > 2",
     "max-tie: the maximum path flags a tie only among three rows"),
    ("scores.py",
     "space.splice(space.outcomes[0], coords, key)",
     "space.splice(space.outcomes[-1], coords, key)",
     "candidates-last-outcome: _score_candidates represents a key by its last outcome"),
    ("scores.py",
     "candidates.setdefault((row.den, frozenset(row.nums.items())),",
     "candidates.setdefault(key,",
     "candidates-no-collapse: _score_candidates keeps keys that share a row"),
    ("scores.py",
     "MEAN_DIFF.evaluate(sequential, control, outcome.partition, outcome)",
     "MEAN_DIFF.evaluate(control, sequential, outcome.partition, outcome)",
     "ate-sign: ate is the control mean less the treated one"),
    ("scores.py",
     "if len(out) != self.dim:",
     "if False:",
     "functional-dim-unchecked: evaluate accepts a value of the wrong dimension"),
    ("scores.py",
     "return float(sum(float(v) ** 2 for v in values))",
     "return float(sum(float(v) for v in values))",
     "norm-float-unsquared: the float squared norm sums the entries"),
    ("scores.py",
     '                raise ValueError(f"{self.name}: not non-decreasing near x={xs[i]}")',
     "                pass",
     "scale-monotone-unchecked: a scale that dips passes validation"),
    ("scores.py",
     '                raise ValueError(f"{self.name}: not symmetric around 1/2 at x={xs[i]}")',
     "                pass",
     "scale-symmetry-unchecked: a skewed scale passes validation"),
    # -- the value base and the constructors of the data model's classes ------------------------
    ("space.py",
     "return self is other or self._values() == other._values()",
     "return self is other or self._values()[:1] == other._values()[:1]",
     "value-eq-first-field: == compares only the first field"),
    ("space.py",
     "if other.__class__ is not self.__class__:",
     "if not isinstance(other, type(self)):",
     "value-eq-subclass: an object equals an instance of a subclass with the same fields"),
    ("space.py",
     "return hash(self._values())",
     "return id(self)",
     "value-hash-identity: equal objects hash by identity"),
    ("space.py",
     'f"{name}={value!r}"',
     'f"{name}={value}"',
     "value-repr-str: the repr shows each field by str"),
    ("space.py",
     'raise AttributeError(f"cannot assign to field {name!r}")',
     "object.__setattr__(self, name, value)",
     "value-assignable: assignment to a field is allowed"),
    ("space.py",
     'raise AttributeError(f"cannot delete field {name!r}")',
     "object.__delattr__(self, name)",
     "value-deletable: deleting a field is allowed"),
    ("measure.py",
     "self.__dict__.update(space=space, weights=weights)\n        self.__post_init__()",
     "self.__dict__.update(space=space, weights=weights)",
     "measure-init-unchecked: Measure.__init__ skips __post_init__"),
    ("effects.py",
     "given=given, post=post)\n        self.__post_init__()",
     "given=given, post=post)",
     "query-init-unchecked: EffectQuery.__init__ skips __post_init__"),
    ("generators.py",
     "max_coords=max_coords, max_labels=max_labels,",
     "max_coords=max_labels, max_labels=max_coords,",
     "genconfig-swapped: GenConfig stores max_coords and max_labels in each other's place"),
    ("document.py",
     "events={} if events is None else events,",
     "events={} if events is None else {},",
     "document-events-dropped: SpaceDocument drops the events it is given"),
    ("scores.py",
     "score.argmax, score.tied)",
     "score.argmax)",
     "scalar-drops-tied: _scalar loses the tie flag of a one-dimensional maximum score"),
    # -- the cell reader, the weight reader and part (i) of check_prop3 ---------------------------
    ("document.py",
     "if label not in sub.coordinate(cid).labels)",
     "if label in sub.coordinate(cid).labels)",
     "cell-names-valid-label: _parse_cell's label error names a label of its coordinate, not the stray one"),
    ("document.py",
     "        nums[o] = num\n        dens.append(den)",
     "        nums[o] = num\n        dens.append(num)",
     "entries-den-is-num: the weight reader stores each weight's numerator as its denominator"),
    ("effects.py",
     "if q_on_v is not None and not (u & v):",
     "if q_on_v is not None:",
     "prop3-part-i-overlap: check_prop3 checks part (i) when u and v meet"),
]

EQUIVALENT = {
    "given-guard-d2": "once a pair's premise holds, d1 == 0 exactly when d2 == 0 (both nonzero for an event, mutually continuous for an algebra)",
    "subject-keys-unsorted": "the verdict aggregates over every subject key, and a tag's priority does not depend on which key shows it first",
    "family-drops-v": "with W nonempty the T = V shape is skipped anyway, V is empty whenever a premise exists (a query conditions or post-intervenes) and the active shape reads that premise first, and the active shape reads K_V before the family check",
    "holds-empty": "an empty row's numerators sum to 0, never to its positive den, so the sum test refuses it",
    "candidates-measurable-lt": "each member of a lies in the cylinder of its own cut, so |a| is at most |image| times |Omega| / |Omega_coords|, and >= holds exactly when == does",
}


def _name(mutant) -> str:
    return mutant[3].split(":", 1)[0]


def check_catalogue() -> list[str]:
    """Problems with the catalogue itself: a repeated name, or an `old` text not found exactly once."""
    problems, names = [], [_name(m) for m in CATALOGUE]
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"{name}: name used twice")
    for name in sorted(set(EQUIVALENT) - set(names)):
        problems.append(f"{name}: allow-listed but not in the catalogue")
    for mutant in CATALOGUE:
        count = (ROOT / "src" / "causalspaces" / mutant[0]).read_text().count(mutant[1])
        if count != 1:
            problems.append(f"{_name(mutant)}: old text occurs {count} times in {mutant[0]}")
    return problems


def run_one(mutant, timeout=None) -> tuple[str, float, str]:
    """(status, seconds, first failing test) of the selection, run against `src/` with `mutant` applied.

    `mutant` may be None for the unmutated copy; the status is "killed",
    "survived" or "timeout" (the run took more than `timeout` seconds).
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            path = src / "causalspaces" / mutant[0]
            path.write_text(path.read_text().replace(mutant[1], mutant[2], 1))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *SELECTION]
        start = time.perf_counter()
        try:
            out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
    if out.returncode == 0:
        return "survived", seconds, ""
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
    return "killed", seconds, first.group(1) if first else f"exit {out.returncode}"


def verdict(status: str, listed: bool) -> str:
    """How a mutant's run reads; the upper-case verdicts fail the catalogue."""
    if listed:
        return {"survived": "equivalent", "killed": "STALE ALLOW-LIST ENTRY"}.get(status, "TIMEOUT")
    return {"survived": "SURVIVED"}.get(status, status)


def main(argv: list[str]) -> int:
    part, parts = map(int, argv[0].split("/")) if argv else (1, 1)
    if not 1 <= part <= parts:
        print(f"usage: python3 tests/mutants.py [K/N] with 1 <= K <= N, not {argv[0]}")
        return 2
    mutants = CATALOGUE[part - 1::parts]
    problems = check_catalogue()
    for problem in problems:
        print(f"catalogue: {problem}")
    if problems:
        return 1
    status, seconds, failed = run_one(None)
    if status != "survived":
        print(f"the unmutated source fails the selection ({status}, {failed}); no mutant run")
        return 2
    timeout = TIMEOUT_FACTOR * seconds
    print(f"unmutated selection passes in {seconds:.1f} s; {len(mutants)} of {len(CATALOGUE)} mutants, {JOBS} at a time, "
          f"each under a {timeout:.0f} s timeout")
    start, bad, timeouts = time.perf_counter(), [], 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        runs = pool.map(lambda mutant: run_one(mutant, timeout), mutants)
        for mutant, (status, seconds, failed) in zip(mutants, runs):
            name = _name(mutant)
            shown = verdict(status, name in EQUIVALENT)
            print(f"{shown:10} {status:8} {seconds:5.1f} s  {mutant[0]:12} {name:28} {failed}", flush=True)
            timeouts += status == "timeout"
            if shown.isupper():
                bad.append(name)
    print(f"{len(mutants) - len(bad)} of {len(mutants)} as expected ({timeouts} timed out) "
          f"in {time.perf_counter() - start:.0f} s")
    if bad:
        print("unexpected: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
