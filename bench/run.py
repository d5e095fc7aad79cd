"""The causalspaces benchmark: one closed-loop client, one process, one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verdicts|pipeline|cli --seed N --seconds S --trace 0|1

With ``--trace 0`` it sets up the workload (several times; the median counts),
runs passes over the workload's ops until S seconds of op time have been
measured, checks every output, and reports the end-to-end metrics. Every time
it reports is scaled by the host's speed, sampled with a fixed reference unit
of work beside the measurement (see ``Yardstick``). With
``--trace 1`` it runs an untraced warm-up pass, an untraced pass and a
traced pass over the same ops, checks that the two measured passes agree
and that every boundary the workload must exercise was called, and reports
the per-layer metrics plus the tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import BOUNDARIES, Tracer, diff

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COLD_START_ARGV = ["-m", "causalspaces.cli", "validate", "fixtures/insurance.json"]
COLD_START_SAMPLES = 25  # fresh `cee validate` processes per run
IMPORT_SAMPLES = 7  # fresh-process import timings per traced run
IMPORT_REPEATS = 9  # in-process imports behind setup_s
TAIL_BEYOND = 10  # samples beyond the percentile reported as op_tail_ms
TAGS = ("active", "no_effect", "dormant", "undetermined")
REFERENCE_STEPS = 200  # size of the reference unit
REFERENCE_MS = 0.7  # the reference unit's time at the faster speed of a 2-vCPU Xeon, Python 3.11.7
SAMPLE_EVERY_NS = 20_000_000  # a reference sample is taken before an op once this long has passed since the last
SAMPLE_WINDOW = 2  # samples on each side of a timed span that set its scale
COLD_START_WINDOW = 3  # samples on each side of a cold start


def reference_unit() -> int:
    """A fixed unit of pure-Python work like the library's.

    Fractions summed in a dict keyed by tuples, frozenset unions and a JSON
    round trip.
    """
    table: dict = {}
    sets = []
    for i in range(REFERENCE_STEPS):
        key = (i % 7, i % 5, i % 3)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 11 + 1, i % 13 + 2)
        sets.append(frozenset(key) | {i % 4})
    text = json.dumps({str(k): str(v) for k, v in table.items()})
    return len(json.loads(text)) + len(frozenset().union(*sets))


class Yardstick:
    """The host's speed over a run, sampled by timing the reference unit.

    The shared host this benchmark was written on switches between speeds
    about 1.75x apart, for stretches from milliseconds to half a minute, and
    its slowdowns hit the reference unit and the library alike. Each timed
    span is therefore reported as its time over the mean time of the
    reference samples around it, times ``REFERENCE_MS``: milliseconds on a host that
    runs the reference unit in ``REFERENCE_MS``. The samples are taken
    between timed spans, never inside one.
    """

    def __init__(self) -> None:
        self.at: list[int] = []
        self.ns: list[int] = []
        for _ in range(5):  # warm-up, not recorded
            reference_unit()

    def sample(self) -> None:
        start = time.perf_counter_ns()
        reference_unit()
        self.at.append(start)
        self.ns.append(time.perf_counter_ns() - start)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter_ns() - self.at[-1] > SAMPLE_EVERY_NS:
            self.sample()

    def scale(self, start_ns: int, ns: float, window: int = SAMPLE_WINDOW) -> float:
        """`ns` measured from `start_ns` on, as ms at the reference speed; sample after the span first.

        The speed is the mean over `window` samples on each side of the span.
        """
        i = bisect.bisect(self.at, start_ns)
        near = self.ns[max(0, i - window) : i + window]
        return ns / statistics.mean(near) * REFERENCE_MS

    def median_ms(self) -> float:
        return statistics.median(self.ns) / 1e6


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library(repeats: int, yard: Yardstick) -> float:
    """Import the checkout's library `repeats` times; returns the median scaled seconds.

    Each repeat drops the package from ``sys.modules`` first, so it runs
    every module body again; the last import is the one the workloads use.
    """
    if not (SRC / "causalspaces" / "__init__.py").is_file():
        fail(f"no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    spans = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "causalspaces" or m.startswith("causalspaces.")]:
            del sys.modules[name]
        yard.sample()
        start = time.perf_counter_ns()
        import causalspaces
        import causalspaces.cli  # noqa: F401 - part of the measured import

        spans.append((start, time.perf_counter_ns() - start))
    yard.sample()
    times = [yard.scale(start, ns) / 1e3 for start, ns in spans]
    if Path(causalspaces.__file__).resolve().parent != SRC / "causalspaces":
        fail(f"imported causalspaces from {causalspaces.__file__}, not from {SRC}")
    return statistics.median(times)


def timed_subprocess(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return (time.perf_counter() - start) * 1e3, proc


def cold_start(yard: Yardstick) -> tuple[float, float, bool]:
    """One fresh `cee validate` on the fixture: scaled ms, wall ms, and whether it reported ok."""
    for _ in range(COLD_START_WINDOW):
        yard.sample()
    start = time.perf_counter_ns()
    ms, proc = timed_subprocess(COLD_START_ARGV)
    for _ in range(COLD_START_WINDOW):
        yard.sample()
    return yard.scale(start, ms * 1e6, COLD_START_WINDOW), ms, proc.returncode == 0 and "ok: True" in proc.stdout


def import_ms() -> float:
    """Fresh-process import of the CLI module minus a bare interpreter start."""
    bare, full = [], []
    for i in range(IMPORT_SAMPLES + 1):
        b, _ = timed_subprocess(["-c", "pass"])
        f, proc = timed_subprocess(["-c", "import causalspaces.cli"])
        if proc.returncode != 0:
            fail(f"fresh import failed: {proc.stderr.strip()}")
        if i:
            bare.append(b)
            full.append(f)
    return statistics.median(full) - statistics.median(bare)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(wl, tracer=None, yard=None, starts=None):
    """One pass over the workload's ops: (latencies ns, outputs, raised flags).

    With a yardstick, samples it between ops when due and appends each op's
    start time to `starts`.
    """
    perf = time.perf_counter_ns
    lat, outs, raised = [], [], []
    for label, fn in wl.ops:
        if tracer is not None:
            tracer.op = label
        if yard is not None:
            yard.sample_if_due()
        start = perf()
        if starts is not None:
            starts.append(start)
        try:
            out, err = fn(), False
        except Exception as exc:  # an op that raises counts as failed, the loop goes on
            out, err = repr(exc), True
        lat.append(perf() - start)
        outs.append(out)
        raised.append(err)
    return lat, outs, raised


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples above it: (value, percentile, n)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n, n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end mode


def run_e2e(wl, seconds: float, import_s: float, yard: Yardstick) -> dict:
    spans = []
    for _ in range(wl.setup_repeats):
        wl.ops = None
        gc.collect()
        yard.sample()
        start = time.perf_counter_ns()
        wl.setup()
        spans.append((start, time.perf_counter_ns() - start))
    yard.sample()
    setups = [yard.scale(start, ns) / 1e3 for start, ns in spans]
    setup_s = import_s + statistics.median(setups)  # both medians of repeats

    budget = seconds * 1e9
    busy, lat, starts, failed, per_op = 0, [], [], [], []  # per run of an op: failed?, op index
    # cold starts are sampled between passes, spread over the timed phase
    *_, cold_ok = cold_start(yard)  # warm-up
    colds, cold_walls, next_cold = [], [], 0.0
    while busy < budget or len(colds) < COLD_START_SAMPLES:
        if busy >= next_cold:
            ms, wall, ok = cold_start(yard)
            colds.append(ms)
            cold_walls.append(wall)
            cold_ok = cold_ok and ok
            next_cold += budget / COLD_START_SAMPLES
        if busy >= budget:
            continue
        p_lat, outs, raised = run_pass(wl, yard=yard, starts=starts)
        for i, (out, err) in enumerate(zip(outs, raised)):
            failed.append(err or not wl.check(i, out))
            per_op.append(i)
        lat.extend(p_lat)
        busy += sum(p_lat)
        wl.next_pass()
    yard.sample()
    bad = wl.final_check()
    failed = sum(f or i in bad for f, i in zip(failed, per_op))

    cold = statistics.median(colds)
    ms = [yard.scale(start, ns) for start, ns in zip(starts, lat)]
    tail_ms, pct, n = tail(ms)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_p50_ms": metric(statistics.median(ms), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
        "cold_start_ms": metric(cold, "ms"),
    }
    print(f"workload {wl.name}: {len(lat)} ops in {busy / 1e9:.3f} s of op time, {failed} failed")
    print(f"  setup repeats: {', '.join(f'{s:.4f}' for s in setups)} s (+ import {import_s:.4f} s)")
    print(
        f"  reference unit: median {yard.median_ms():.4f} ms over {len(yard.ns)} samples;"
        f" times below are scaled to {REFERENCE_MS} ms"
    )
    print(
        f"  unscaled: op_p50_ms {statistics.median(lat) / 1e6:.6g}, ops_per_s {len(lat) / (busy / 1e9):.6g},"
        f" cold_start_ms {statistics.median(cold_walls):.6g}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  op_tail_ms is p{pct:.2f} of {n} samples ({TAIL_BEYOND} beyond it)")
    print(f"  ops_failed_frac = {failed / max(1, len(lat)):.6g} ratio")
    if not cold_ok:
        print("  cold start: `cee validate` on the fixture did not report ok", file=sys.stderr)
    return {"correct": failed == 0 and cold_ok, "attempted": len(lat), "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced mode


def self_s(stats: dict, *names: str) -> float:
    return sum(stats[n][2] for n in names) / 1e9


def calls(stats: dict, *names: str) -> int:
    return sum(stats[n][0] for n in names)


def by_group(wl, lat: list[int], groups: tuple[str, ...]) -> dict[str, float]:
    """Median untraced latency (ms) per op group; 0 for groups the workload lacks."""
    found: dict[str, list] = {}
    for i, ns in enumerate(lat):
        found.setdefault(wl.group_of(i), []).append(ns / 1e6)
    return {g: statistics.median(found[g]) if g in found else 0.0 for g in groups}


def layer_metrics(main: dict, check: dict, wl, lat: list[int], untraced_s: float, traced_s: float) -> dict:
    st = main["stats"]
    names = [n for _, _, n, _, _ in BOUNDARIES]
    effects = [n for n in names if n.startswith("effects.") and n != "effects.unions"]
    verdicts = calls(st, "effects.run_query")
    lookups = calls(st, "kernels.lookup")
    engine_s = sum(lat) / 1e9 if wl.name == "verdicts" else 0.0
    shapes = by_group(wl, lat, ("n5", "n6", "n7", "n4l3")) if wl.name == "verdicts" else {}
    commands = ("validate", "effect", "classify", "score", "intervene", "marginalize", "gen")
    per_cmd = by_group(wl, lat, commands) if wl.name == "cli" else {}
    values = {
        "space.restrict.calls": (calls(st, "space.restrict"), "count"),
        "space.check_subset.calls": (calls(st, "space.check_subset"), "count"),
        "space.restrict.self_s": (self_s(st, "space.restrict"), "s"),
        "space.algebra.self_s": (
            self_s(st, "space.coordinate_subalgebra", "space.generated_algebra", "space.partition"),
            "s",
        ),
        "measure.eval.calls": (calls(st, "measure.eval"), "count"),
        "measure.eval.self_s": (self_s(st, "measure.eval"), "s"),
        "measure.build.calls": (calls(st, "measure.build"), "count"),
        "measure.build.self_s": (self_s(st, "measure.build"), "s"),
        "kernels.row_sum.calls": (calls(st, "kernels.row_sum"), "count"),
        "kernels.row_sum.self_s": (self_s(st, "kernels.row_sum"), "s"),
        "kernels.row_sums_per_verdict": (calls(st, "kernels.row_sum") / verdicts if verdicts else 0.0, "ratio"),
        "kernels.lookup.calls": (lookups, "count"),
        "kernels.derived.calls": (calls(st, "kernels.intervention_kernel"), "count"),
        "kernels.derived_per_lookup": (calls(st, "kernels.intervention_kernel") / lookups if lookups else 0.0, "ratio"),
        "kernels.construct.self_s": (self_s(st, "kernels.construct"), "s"),
        "kernels.validate.self_s": (self_s(st, "kernels.validate"), "s"),
        "kernels.intervene.self_s": (
            self_s(st, "kernels.intervene", "kernels.intervention_measure", "kernels.intervention_kernel"),
            "s",
        ),
        "kernels.marginalize.self_s": (self_s(st, "kernels.marginalize", "kernels.is_marginalization_of"), "s"),
        "effects.verdict.self_s": (self_s(st, *effects), "s"),
        **{f"effects.verdict_ms.{k}": (shapes.get(k, 0.0), "ms") for k in ("n5", "n6", "n7", "n4l3")},
        "effects.unions.count": (calls(st, "effects.unions"), "count"),
        **{f"effects.tag.{t}": (main["tags"].get(t, 0), "count") for t in TAGS},
        "effects.errors": (main["errors"].get("effects", 0), "count"),
        "oracle.verdict.self_s": (self_s(check["stats"], "oracle.verdict"), "s"),
        "oracle.over_engine": (check["stats"]["oracle.verdict"][1] / 1e9 / engine_s if engine_s else 0.0, "ratio"),
        "scores.calls": (calls(st, *[n for n in names if n.startswith("scores.")]), "count"),
        "scores.self_s": (self_s(st, *[n for n in names if n.startswith("scores.")]), "s"),
        "generators.gen.calls": (calls(st, *[n for n in names if n.startswith("generators.")]), "count"),
        "generators.gen.self_s": (self_s(st, *[n for n in names if n.startswith("generators.")]), "s"),
        "document.parse.self_s": (
            self_s(
                st,
                "document.parse_document",
                "document.load_document",
                "document.to_causal_space",
                "document.document_violations",
            ),
            "s",
        ),
        "document.dumps.self_s": (self_s(st, "document.dumps_document"), "s"),
        "document.from_space.self_s": (
            self_s(st, "document.document_from_space", "document.marginalize_document"),
            "s",
        ),
        "document.bytes": (main["bytes_out"], "count"),
        "cli.main.self_s": (self_s(st, "cli.main"), "s"),
        **{f"cli.request_ms.{c}": (per_cmd.get(c, 0.0), "ms") for c in commands},
        "cli.import_ms": (import_ms(), "ms"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
    return {k: metric(v, u) for k, (v, u) in values.items()}


def run_traced(wl, seed: int) -> dict:
    tracer = Tracer()
    tracer.install()
    start = tracer.snapshot()
    wl.setup()
    tracer.uninstall()
    run_pass(wl)  # warm-up, so both measured passes see the same cache state
    lat, outs, raised = run_pass(wl)
    failed = [err or not wl.check(i, out) for i, (out, err) in enumerate(zip(outs, raised))]
    tracer.install()
    t_lat, t_outs, t_raised = run_pass(wl, tracer)
    tracer.op = "final_check"
    after_pass = tracer.snapshot()
    bad = wl.final_check()
    after_check = tracer.snapshot()
    tracer.uninstall()
    failed = sum(f or i in bad for i, f in enumerate(failed))

    main, check = diff(after_pass, start), diff(after_check, after_pass)
    identical = raised == t_raised and all(wl.same(a, b) for a, b in zip(outs, t_outs))
    uncovered = tracer.uncovered(wl.name, diff(after_check, start))
    tracer.write_spans(ROOT / ".bench_build" / "trace" / f"{wl.name}-seed{seed}.jsonl")

    metrics = layer_metrics(main, check, wl, lat, sum(lat) / 1e9, sum(t_lat) / 1e9)
    print(f"workload {wl.name} (traced): {len(lat)} ops per pass, {failed} failed, {len(tracer.spans)} spans")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not identical:
        print("  traced and untraced passes gave different outputs", file=sys.stderr)
    if uncovered:
        print(f"  boundaries with no call on this workload: {', '.join(uncovered)}", file=sys.stderr)
    correct = failed == 0 and identical and not uncovered
    return {"correct": correct, "attempted": len(lat), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    os.environ.pop("CEE_BLOCK_CAP", None)  # the CLI's block cap; expected outputs assume the default
    yard = Yardstick()
    import_s = import_library(IMPORT_REPEATS, yard)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        result = run_traced(wl, args.seed) if args.trace else run_e2e(wl, args.seconds, import_s, yard)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
