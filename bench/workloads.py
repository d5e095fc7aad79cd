"""The benchmark's workloads: ``verdicts``, ``pipeline`` and ``cli``.

Each workload builds its inputs from the seed in ``setup``, exposes one
pass of operations as ``ops`` (a list of ``(label, callable)``), names the
group each op reports under in ``group_of`` (its shape, or its CLI
subcommand), and checks outputs: ``check`` runs right after each op,
outside its timing, and ``final_check`` runs once after the timed phase. The
library is reached only through module attributes (``C.run_query``,
``D.dumps_document``, ...), so the tracer's patches are seen on every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import causalspaces as C
import causalspaces.cli as CLI
import causalspaces.document as D

# (label, coordinates, labels per coordinate); every space has the full family
SHAPES = (("n5", 5, 2), ("n6", 6, 2), ("n7", 7, 2), ("n4l3", 4, 3))
DENOMINATOR_BOUND = 32


def shape_seeds(start: int, n: int, labels: int, count: int) -> list[int]:
    """The first `count` generator seeds >= `start` that give an n x labels space.

    Mirrors the first draws of ``generators._random_space`` (coordinate count,
    then one label count per coordinate); the generated space is checked
    against the shape afterwards, so a change in that draw order fails loudly.
    """
    found = []
    s = start
    while len(found) < count:
        rng = random.Random(s)
        if rng.randint(1, n) == n and all(rng.randint(1, labels) == labels for _ in range(n)):
            found.append(s)
        s += 1
    return found


def gen_shape(seed: int, n: int, labels: int):
    cs = C.gen_random_space(C.GenConfig(seed=seed, max_coords=n, max_labels=labels, kernel_mode="full"))
    got = [len(c.labels) for c in cs.space.coordinates]
    if got != [labels] * n:
        raise RuntimeError(f"generator seed {seed} gave label counts {got}, expected {n} x {labels}")
    return cs


def _cylinders(space, coords: frozenset) -> dict:
    """Outcomes grouped by their projection onto `coords` (declared order)."""
    pos = [i for i, cid in enumerate(space.ids) if cid in coords]
    groups: dict = {}
    for o in space.outcomes:
        groups.setdefault(tuple(o[i] for i in pos), []).append(o)
    return groups


def _positive_table(rng: random.Random, outcomes) -> dict:
    raw = [rng.randint(1, DENOMINATOR_BOUND) for _ in outcomes]
    total = sum(raw)
    return {o: Fraction(w, total) for o, w in zip(outcomes, raw)}


def densify(cs, rng: random.Random):
    """A space of the same shape and family with every cell positive."""
    space = cs.space
    kernels = {}
    for coords in cs.kernels:
        rows = {key: _positive_table(rng, members) for key, members in _cylinders(space, coords).items()}
        kernels[coords] = C.CausalKernel(space, coords, rows)
    return C.CausalSpace(space, C.Measure(space, _positive_table(rng, space.outcomes)), kernels)


class Workload:
    """Defaults for the hooks the runner calls around the ops."""

    name = ""
    setup_repeats = 3

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed

    def next_pass(self) -> None:
        """Called between timed passes."""

    def final_check(self) -> set[int]:
        """Op indices whose outputs fail a check made after the timed phase."""
        return set()

    def same(self, a, b) -> bool:
        """Whether two outputs of one op are identical."""
        return a == b

    def close(self) -> None:
        """Remove anything written in set-up."""


# ---------------------------------------------------------------------------
# verdicts


class _Draw:
    """Seeded random query ingredients over one space."""

    def __init__(self, rng: random.Random, space):
        self.rng, self.space = rng, space
        self.ids = list(space.ids)

    def coords(self, k: int) -> frozenset:
        return frozenset(self.rng.sample(self.ids, k))

    def coords_outside(self, used: frozenset, k: int) -> frozenset:
        return frozenset(self.rng.sample([c for c in self.ids if c not in used], k))

    def outcome(self):
        return self.rng.choice(self.space.outcomes)

    def event(self):
        ev = frozenset(o for o in self.space.outcomes if self.rng.random() < 0.5)
        return ev or frozenset([self.outcome()])

    def small_event(self):
        return frozenset(self.rng.sample(self.space.outcomes, self.rng.randint(2, 3)))

    def meeting_event(self, omega, u: frozenset):
        """The cylinder of `omega` on `u` plus random extra outcomes.

        It meets every cylinder the quantified check conditions on, so the
        positivity premise holds wherever every cell is positive.
        """
        pos = [i for i, cid in enumerate(self.space.ids) if cid in u]
        return frozenset(
            o for o in self.space.outcomes if all(o[i] == omega[i] for i in pos) or self.rng.random() < 0.25
        )

    def partition(self, blocks: int):
        outcomes = list(self.space.outcomes)
        self.rng.shuffle(outcomes)
        groups = [[o] for o in outcomes[:blocks]]
        for o in outcomes[blocks:]:
            groups[self.rng.randrange(blocks)].append(o)
        return C.Partition(self.space, tuple(frozenset(g) for g in groups))


def verdict_batch(rng: random.Random, space) -> list[tuple[str, object, bool]]:
    """One space's fixed query mix: (mode, EffectQuery, active_only).

    Covers every dispatch branch of ``run_query`` and ends with the worst
    case (target Omega, |U| = 1), which always scans every row pair.
    """
    d = _Draw(rng, space)
    Q = C.EffectQuery
    omega = d.outcome
    batch = []

    def add(mode, query, active_only=False):
        batch.append((mode, query, active_only))

    u1 = d.coords(1)
    add("event", Q(u1, omega(), d.event()))
    add("event", Q(d.coords(2), omega(), d.event()))
    add("event-active", Q(d.coords(1), omega(), d.event()), True)
    add("event-active", Q(d.coords(2), d.small_event(), d.event()), True)
    add("event", Q(d.coords(1), d.small_event(), d.event()))
    add("partition", Q(d.coords(1), omega(), d.partition(rng.randint(2, 6))))
    add("partition", Q(d.coords(1), omega(), C.coordinate_subalgebra(space, d.coords(1))))
    add("partition-active", Q(d.coords(1), omega(), C.generated_algebra(space, [d.event(), d.event()])), True)
    add("given-event", Q(d.coords(1), omega(), d.event(), given=d.event()))
    u, w = d.coords(1), omega()
    add("given-event", Q(u, w, d.event(), given=d.meeting_event(w, u)))
    u, w = d.coords(1), omega()
    add("given-event", Q(u, w, space.all_event(), given=d.meeting_event(w, u)))
    u, w = d.coords(1), omega()
    add("given-event-active", Q(u, w, d.event(), given=d.meeting_event(w, u)), True)
    u, w = d.coords(1), omega()
    add("given-event-active", Q(u, w, d.partition(rng.randint(2, 4)), given=d.meeting_event(w, u)), True)
    add("given-algebra", Q(d.coords(1), omega(), d.event(), given=C.coordinate_subalgebra(space, d.coords(1))))
    algebra = C.coordinate_subalgebra(space, d.coords(2))
    add("given-algebra-active", Q(d.coords(1), omega(), d.event(), given=algebra), True)
    # V disjoint from U: with U inside V the post-intervention check is a full no-effect scan
    u = d.coords(1)
    add("post", Q(u, omega(), d.event(), post=d.coords_outside(u, 1)))
    u = d.coords(1)
    add("post-active", Q(u, omega(), d.event(), post=d.coords_outside(u, 2)), True)
    u = d.coords(1)
    add("post-active", Q(u, omega(), d.partition(rng.randint(2, 3)), post=d.coords_outside(u, 1)), True)
    add("worst", Q(u1, omega(), space.all_event()))
    return batch


def active_only_agrees(engine, oracle) -> bool:
    """Whether an active-only verdict is consistent with the oracle's trichotomy.

    Active exactly when the oracle says active; an undetermined active check
    makes the oracle undetermined for the same reason; a no-effect active
    check leaves the oracle anything but active.
    """
    A, U = C.EffectTag.ACTIVE, C.EffectTag.UNDETERMINED
    if engine.tag is A or oracle.tag is A:
        return engine.tag is oracle.tag
    if engine.tag is U:
        return oracle == engine
    return engine.tag is C.EffectTag.NO_EFFECT


class Verdicts(Workload):
    """One op is one ``run_query`` verdict on a prebuilt full-family space."""

    name = "verdicts"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        # choosing generator seeds calls no library code, so it stays out of the timed set-up
        self.gseeds = [
            shape_seeds(1_000_003 * seed + 7919 * i, n, labels, 1)[0] for i, (_, n, labels) in enumerate(SHAPES)
        ]

    def setup(self) -> None:
        self.spaces = {}
        for (label, n, labels), gseed in zip(SHAPES, self.gseeds):
            sparse = gen_shape(gseed, n, labels)
            self.spaces[f"{label}-sparse"] = sparse
            self.spaces[f"{label}-dense"] = densify(sparse, random.Random(f"dense/{self.seed}/{label}"))
        self.queries = []  # (space name, shape label, mode, query, active_only)
        for name, cs in self.spaces.items():
            rng = random.Random(f"verdicts/{self.seed}/{name}")
            for mode, query, active_only in verdict_batch(rng, cs.space):
                self.queries.append((name, name.split("-")[0], mode, query, active_only))
        self.ops = [
            (f"{shape}:{mode}", self._op(self.spaces[name], query, active_only))
            for name, shape, mode, query, active_only in self.queries
        ]
        self.first: dict[int, object] = {}

    @staticmethod
    def _op(cs, query, active_only):
        return lambda: C.run_query(cs, query, active_only=active_only)

    def group_of(self, i: int) -> str:
        return self.queries[i][1]

    def check(self, i: int, out) -> bool:
        """Store the first verdict of each query; later passes must repeat it."""
        if i not in self.first:
            self.first[i] = out
            return True
        return out == self.first[i]

    def final_check(self) -> set[int]:
        """Queries whose verdict disagrees with the brute-force oracle."""
        bad = set()
        for i, verdict in sorted(self.first.items()):
            name, _, _, query, active_only = self.queries[i]
            oracle = C.oracle_effect_brute(self.spaces[name], query)
            ok = active_only_agrees(verdict, oracle) if active_only else verdict == oracle
            if not ok:
                bad.add(i)
        return bad


# ---------------------------------------------------------------------------
# pipeline


class Pipeline(Workload):
    """One op carries one generated full-family space through every rewrite.

    The n7 shape is left out: one n7 op takes about 2 s, so a run would hold
    too few samples for its tail percentile. Its generation is still timed,
    in the set-up of ``verdicts``.
    """

    name = "pipeline"
    setup_repeats = 5
    shapes = tuple(s for s in SHAPES if s[0] != "n7")
    # distinct generator seeds per shape; passes beyond this reuse them in turn
    seeds_per_shape = 4

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        # choosing generator seeds calls no library code, and how long the search
        # takes depends on the seed, so it stays out of the timed set-up
        per_shape = [
            shape_seeds(1_000_003 * seed + 7919 * i, n, labels, self.seeds_per_shape)
            for i, (_, n, labels) in enumerate(self.shapes)
        ]
        self.rounds = [
            [(label, n, labels, seeds[r]) for (label, n, labels), seeds in zip(self.shapes, per_shape)]
            for r in range(self.seeds_per_shape)
        ]

    def setup(self) -> None:
        self.round = 0
        self.checked: dict[int, dict] = {}  # generator seed -> first output that passed
        self.next_pass()

    def next_pass(self) -> None:
        """Point the op list at the next round of generator seeds."""
        specs = self.rounds[self.round % len(self.rounds)]
        self.round += 1
        self.ops = [(label, self._op(gseed, n, labels)) for label, n, labels, gseed in specs]
        self._shapes = [label for label, _, _, _ in specs]
        self._seeds = [gseed for _, _, _, gseed in specs]

    def group_of(self, i: int) -> str:
        return self._shapes[i]

    @staticmethod
    def _op(gseed: int, n: int, labels: int):
        def op():
            cs = gen_shape(gseed, n, labels)
            doc = D.document_from_space(cs)
            text = D.dumps_document(doc)
            parsed = D.parse_document(json.loads(text))
            cs2 = D.to_causal_space(parsed)
            violations = C.validate(cs2)
            ids = cs2.space.ids
            after = C.intervene(cs2, C.InterventionSpec.uniform(cs2.space, ids[:2]))
            derived = {s: after.kernel(s) for s in after.kernel_subsets()}
            small = C.marginalize(cs2, ids[:-1])
            return {
                "n": n,
                "text": text,
                "parsed": parsed,
                "violations": violations,
                "after": after,
                "derived": derived,
                "marginal_ok": C.is_marginalization_of(small, cs2),
            }

        return op

    def check(self, i: int, out) -> bool:
        """Full checks the first time a generator seed comes round, then sameness."""
        first = self.checked.get(self._seeds[i])
        if first is not None:
            return self.same(out, first)
        after = out["after"]
        materialized = C.CausalSpace(after.space, after.observational, out["derived"])
        ok = (
            D.dumps_document(out["parsed"]) == out["text"]
            and out["violations"] == []
            and len(out["derived"]) == 2 ** out["n"] - 1
            and C.validate(materialized) == []
            and out["marginal_ok"] is True
        )
        if ok:
            self.checked[self._seeds[i]] = out
        return ok

    def same(self, a, b) -> bool:
        keys = ("text", "violations", "marginal_ok")
        return all(a[k] == b[k] for k in keys) and {s: k.rows for s, k in a["derived"].items()} == {
            s: k.rows for s, k in b["derived"].items()
        }


# ---------------------------------------------------------------------------
# cli

INSURANCE = "fixtures/insurance.json"
# generated documents written in set-up: name -> (generator seed, coordinates, labels, kernel mode)
CLI_DOCS = {"g3": (11, 3, 3, "full"), "g4": (21, 4, 2, "full"), "g5": (31, 5, 2, "full"), "gp": (41, 4, 2, "partial")}


def _pred(spec: dict) -> str:
    return ",".join(f"{cid}={'|'.join(labels)}" for cid, labels in spec.items())


# Effect requests are data, so argv and the oracle cross-check come from one spec.
# subject: {"omega": {cid: label}} (all coordinates -> outcome, else cylinder) or {"subject": name}
# target: {"event": name-or-predicate} or {"sigma": name-or-coords}; given: name or predicate
EFFECT_REQUESTS = {
    "effect-plain": ("effect", "ins", "ins", {"omega": {"ins": "Y"}}, {"event": "pays1000"}, None, None, "text"),
    "effect-plain-g5": ("effect", "g5", "c2", {"omega": {"c0": "1", "c1": "0", "c2": "1", "c3": "0", "c4": "1"}}, {"event": {"c4": ["1"]}}, None, None, "json"),
    "effect-given-event": ("effect", "ins", "ins", {"omega": {"ins": "Y"}}, {"event": {"pay": ["1000"]}}, {"dan": ["H"]}, None, "text"),
    "effect-given-event-null": ("effect", "ins", "ins", {"omega": {"ins": "Y"}}, {"event": {"pay": ["1000"]}}, {"dan": ["N"], "ins": ["Y"], "pay": ["0"]}, None, "text"),
    "effect-given-partition": ("effect", "ins", "ins", {"omega": {"ins": "N"}}, {"event": "pays1000"}, "by_dan", None, "json"),
    "effect-given-partition-g4": ("effect", "g4", "c1", {"omega": {"c1": "0"}}, {"event": {"c3": ["1"]}}, "by_c0", None, "text"),
    "effect-post": ("effect", "g4", "c0", {"omega": {"c0": "1", "c1": "0", "c2": "1", "c3": "1"}}, {"event": {"c2": ["0"], "c3": ["1"]}}, None, "c1", "text"),
    "effect-sigma": ("effect", "g4", "c1", {"omega": {"c0": "0", "c1": "1", "c2": "1", "c3": "0"}}, {"sigma": "c2,c3"}, None, None, "text"),
    "effect-sigma-g3": ("effect", "g3", "c0", {"subject": {"c0": ["0", "1"]}}, {"sigma": "c2"}, None, None, "json"),
    "classify-event-g4": ("classify", "g4", "c0", {"omega": {"c0": "0", "c1": "1", "c2": "0", "c3": "1"}}, {"event": {"c3": ["1"]}}, None, None, "text"),
    "classify-omega-g5": ("classify", "g5", "c1", {"omega": {"c0": "0", "c1": "1", "c2": "0", "c3": "1", "c4": "0"}}, {"event": {"c0": ["0", "1"]}}, None, None, "json"),
    "classify-given-g4": ("classify", "g4", "c2", {"omega": {"c0": "0", "c1": "0", "c2": "1", "c3": "1"}}, {"event": {"c0": ["1"]}}, {"c2": ["1"], "c1": ["0", "1"]}, None, "text"),
    "classify-post-g3": ("classify", "g3", "c1", {"omega": {"c0": "2", "c1": "1", "c2": "0"}}, {"sigma": "c2"}, None, "c0", "text"),
    "classify-dormant": ("classify", "cd", "c1", {"omega": {"c1": "0", "c2": "1"}}, {"event": "diag"}, None, None, "json"),
    "effect-dormant": ("effect", "cd", "c1", {"omega": {"c1": "0", "c2": "1"}}, {"event": "diag"}, None, None, "text"),
    "classify-active-ins": ("classify", "ins", "ins", {"omega": {"ins": "Y", "dan": "N", "pay": "0"}}, {"event": "pays1000"}, None, None, "text"),
    "classify-missing-kernel": ("classify", "ins", "ins", {"omega": {"ins": "Y", "dan": "N", "pay": "0"}}, {"event": {"pay": ["0", "30", "1000"]}}, None, None, "text"),
    "classify-partial-family": ("classify", "gp", "c0", {"omega": {"c0": "1", "c1": "0", "c2": "1", "c3": "0"}}, {"event": {"c0": ["0", "1"]}}, None, None, "text"),
}

OTHER_REQUESTS = {
    "validate-ins": ["validate", "{ins}"],
    "validate-g5": ["validate", "{g5}", "--format", "json"],
    "validate-invalid": ["validate", "{invalid}"],
    "validate-malformed": ["validate", "{malformed}"],
    "score-f1": ["score", "{ins}", "-U", "ins", "--Q", "delta:ins=Y", "--event", "pays1000", "--scale", "f1"],
    "score-f2": ["score", "{ins}", "-U", "ins", "--Q", "delta:ins=N", "--event", "pay=1000", "--scale", "f2", "--format", "json"],
    "score-sigma-mean": ["score", "{ins}", "-U", "ins", "--Q", "uniform", "--sigma", "by_pay", "--diff", "mean", "--rv", "payment"],
    "score-sigma-var": ["score", "{ins}", "-U", "ins", "--Q", "uniform", "--sigma", "by_pay", "--diff", "var", "--rv", "payment"],
    "score-sigma-tv": ["score", "{ins}", "-U", "ins", "--Q", "delta:ins=N", "--sigma", "by_dan", "--diff", "tv"],
    "score-max-event": ["score", "{ins}", "-U", "ins", "--max", "--event", "pays1000", "--scale", "f2"],
    "score-max-sigma": ["score", "{ins}", "-U", "ins", "--max", "--sigma", "by_pay", "--diff", "mean+var", "--rv", "payment"],
    "score-g4": ["score", "{g4}", "-U", "c0,c1", "--Q", "uniform", "--sigma", "c3", "--diff", "mean", "--rv", "x"],
    "intervene-ins": ["intervene", "{ins}", "-U", "ins", "--Q", "delta:ins=Y"],
    "intervene-g4": ["intervene", "{g4}", "-U", "c0,c1", "--Q", "uniform"],
    "marginalize-ins": ["marginalize", "{ins}", "--coords", "ins,pay"],
    "marginalize-g5": ["marginalize", "{g5}", "--coords", "c0,c1,c2,c3"],
    "gen-random": ["gen", "--seed", "3", "--max-coords", "4", "--max-labels", "2"],
    "gen-dormant": ["gen", "--dormant"],
    "gen-screened": ["gen", "--screened", "--seed", "5"],
    "gen-null-effect": ["gen", "--null-effect", "c0", "--seed", "2", "--max-coords", "3"],
    "usage-unknown-coordinate": ["effect", "{ins}", "-U", "nope", "--omega", "ins=Y", "--event", "pays1000"],
    "usage-no-target": ["effect", "{ins}", "-U", "ins", "--omega", "ins=Y"],
    "usage-bad-predicate": ["score", "{ins}", "-U", "ins", "--Q", "delta:ins=Y", "--event", "pay"],
    "usage-bad-scale": ["score", "{ins}", "-U", "ins", "--Q", "uniform", "--event", "pays1000", "--scale", "f9"],
    "classify-invalid": ["classify", "{invalid}", "-U", "c0", "--omega", "c0=1", "--event", "c1=1"],
    "score-malformed": ["score", "{malformed}", "-U", "c0", "--Q", "uniform", "--event", "c1=1"],
}


def effect_argv(spec) -> list[str]:
    cmd, doc, u, subject, target, given, post, fmt = spec
    argv = [cmd, "{" + doc + "}", "-U", u]
    if "omega" in subject:
        argv += ["--omega", ",".join(f"{c}={l}" for c, l in subject["omega"].items())]
    else:
        argv += ["--subject", _pred(subject["subject"])]
    (kind, value), = target.items()
    argv += [f"--{kind}", value if isinstance(value, str) else _pred(value)]
    if given is not None:
        argv += ["--given", given if isinstance(given, str) else _pred(given)]
    if post is not None:
        argv += ["-V", post]
    return argv + ["--format", fmt]


def effect_query(doc, spec):
    """The library-side EffectQuery for an effect request, built without the CLI."""
    _, _, u, subject, target, given, post, _ = spec
    space = doc.space
    if "omega" in subject:
        omega = subject["omega"]
        subj = tuple(omega[c] for c in space.ids) if len(omega) == len(space.ids) else space.where(**omega)
    else:
        subj = space.where(**subject["subject"])
    (kind, value), = target.items()
    if kind == "event":
        tgt = doc.events[value] if isinstance(value, str) else space.where(**value)
    else:
        tgt = doc.partitions[value] if value in doc.partitions else C.coordinate_subalgebra(space, value.split(","))
    if isinstance(given, str):
        given = doc.events[given] if given in doc.events else doc.partitions[given]
    elif given is not None:
        given = space.where(**given)
    return C.EffectQuery(
        frozenset(u.split(",")), subj, tgt, given=given, post=frozenset(post.split(",")) if post else None
    )


def cli_requests() -> dict[str, list[str]]:
    """Every request id -> argv template ({doc} placeholders name documents)."""
    out = {rid: effect_argv(spec) for rid, spec in EFFECT_REQUESTS.items()}
    out.update(OTHER_REQUESTS)
    return out


def write_cli_docs(workdir: Path) -> dict[str, str]:
    """Write the generated documents; returns placeholder -> path for argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {"ins": INSURANCE}
    for name, (seed, n, labels, mode) in CLI_DOCS.items():
        (gseed,) = shape_seeds(seed, n, labels, 1)
        cs = C.gen_random_space(C.GenConfig(seed=gseed, max_coords=n, max_labels=labels, kernel_mode=mode))
        space = cs.space
        doc = D.document_from_space(
            cs,
            partitions={"by_c0": C.coordinate_subalgebra(space, {"c0"})},
            variables={"x": C.RandomVariable.from_coordinate(space, space.ids[-1])},
        )
        path = workdir / f"{name}.json"
        path.write_text(D.dumps_document(doc), encoding="utf-8")
        paths[name] = str(path)
    copy = C.gen_dormant_space()
    diagonal = frozenset(o for o in copy.space.outcomes if o[0] == o[1])
    paths["cd"] = str(workdir / "cd.json")
    text = D.dumps_document(D.document_from_space(copy, events={"diag": diagonal}))
    Path(paths["cd"]).write_text(text, encoding="utf-8")
    data = json.loads(Path(paths["g4"]).read_text(encoding="utf-8"))
    first_row = next(iter(data["kernels"]["c0"].values()))
    first_cell = next(iter(first_row))
    first_row[first_cell] = "1/1000"
    (workdir / "invalid.json").write_text(json.dumps(data), encoding="utf-8")
    (workdir / "malformed.json").write_text('{"coordinates": [', encoding="utf-8")
    paths["invalid"] = str(workdir / "invalid.json")
    paths["malformed"] = str(workdir / "malformed.json")
    return paths


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = CLI.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


EXPECTED_PATH = Path(__file__).resolve().parent / "cli_expected.json"


class Cli(Workload):
    """One op is one in-process ``cli.main(argv)`` call, output captured."""

    name = "cli"
    setup_repeats = 5

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.workdir = root / ".bench_build" / f"cli-{os.getpid()}"

    def setup(self) -> None:
        paths = write_cli_docs(self.workdir)
        self.expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["requests"]
        requests = cli_requests()
        if set(requests) != set(self.expected):
            raise RuntimeError("cli_expected.json does not cover the request catalogue; re-record it")
        order = sorted(requests)
        random.Random(f"cli/{self.seed}").shuffle(order)
        self.ids = order
        self.ops = [(rid, self._op([a.format(**paths) for a in requests[rid]])) for rid in order]

    @staticmethod
    def _op(argv):
        return lambda: run_cli(argv)

    def group_of(self, i: int) -> str:
        return self.ids[i].split("-")[0]

    def check(self, i: int, out) -> bool:
        code, stdout, _ = out
        want = self.expected[self.ids[i]]
        return code == want["code"] and digest(stdout) == want["stdout_sha256"]

    def close(self) -> None:
        for p in self.workdir.glob("*.json"):
            p.unlink()
        with contextlib.suppress(OSError):
            self.workdir.rmdir()


WORKLOADS = {w.name: w for w in (Verdicts, Pipeline, Cli)}
