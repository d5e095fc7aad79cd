"""Per-layer tracing by wrapping library callables from outside the library.

Nothing under ``src/`` changes. Each boundary below is replaced, in every
loaded module namespace that binds it (or on its class, for methods), by a
wrapper that counts calls and sums inclusive and self time; self time is a
call's duration minus the time covered by the wrapped calls it made. Coarse
boundaries also record one span per call (name, start, end, parent span,
op); hot boundaries keep only the per-name aggregates, because they run
millions of times per pass.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from pathlib import Path

# (module, attribute or "Class.method", traced name, kind, workloads that must call it)
# kind: "span" records a span per call, "hot" keeps only aggregates, "yield" counts
# the items a generator yields
V, P, L = "verdicts", "pipeline", "cli"
BOUNDARIES = (
    ("space", "ProductSpace.restrict", "space.restrict", "hot", {V, P, L}),
    ("space", "ProductSpace.check_subset", "space.check_subset", "hot", {V, P, L}),
    ("space", "coordinate_subalgebra", "space.coordinate_subalgebra", "span", {V, L}),
    ("space", "generated_algebra", "space.generated_algebra", "span", {V}),
    ("space", "Partition.__post_init__", "space.partition", "hot", {V, L}),
    ("measure", "Measure.__call__", "measure.eval", "hot", {V, L}),
    ("measure", "Measure.__post_init__", "measure.build", "hot", {V, P, L}),
    ("kernels", "CausalKernel.value", "kernels.row_sum", "hot", {V, L}),
    ("kernels", "CausalSpace.kernel", "kernels.lookup", "hot", {V, P, L}),
    ("kernels", "CausalKernel.__post_init__", "kernels.construct", "hot", {V, P, L}),
    ("kernels", "intervention_kernel", "kernels.intervention_kernel", "span", {P, L}),
    ("kernels", "intervention_measure", "kernels.intervention_measure", "span", {P, L}),
    ("kernels", "intervene", "kernels.intervene", "span", {P, L}),
    ("kernels", "validate", "kernels.validate", "span", {P, L}),
    ("kernels", "marginalize", "kernels.marginalize", "span", {P, L}),
    ("kernels", "is_marginalization_of", "kernels.is_marginalization_of", "span", {P}),
    ("effects", "run_query", "effects.run_query", "span", {V, L}),
    ("effects", "classify", "effects.classify", "span", {V, L}),
    ("effects", "conditional_classify_event", "effects.conditional_classify_event", "span", {V, L}),
    ("effects", "conditional_classify_algebra", "effects.conditional_classify_algebra", "span", {V}),
    ("effects", "post_intervention_classify", "effects.post_intervention_classify", "span", {V, L}),
    ("effects", "active_effect", "effects.active_effect", "span", {V, L}),
    ("effects", "active_effect_event", "effects.active_effect_event", "span", {V}),
    ("effects", "active_effect_on_algebra", "effects.active_effect_on_algebra", "span", {V, L}),
    ("effects", "conditional_active_effect_event", "effects.conditional_active_effect_event", "span", {V, L}),
    ("effects", "conditional_active_effect_algebra", "effects.conditional_active_effect_algebra", "span", {V, L}),
    ("effects", "post_intervention_active_effect", "effects.post_intervention_active_effect", "span", {V, L}),
    ("effects", "algebra_events", "effects.unions", "yield", {V, L}),
    ("oracle", "oracle_effect_brute", "oracle.verdict", "span", {V}),
    ("scores", "mean_effect_score_event", "scores.mean_effect_score_event", "span", {L}),
    ("scores", "max_effect_score_event", "scores.max_effect_score_event", "span", {L}),
    ("scores", "mean_effect_score_algebra", "scores.mean_effect_score_algebra", "span", {L}),
    ("scores", "max_effect_score_algebra", "scores.max_effect_score_algebra", "span", {L}),
    ("generators", "gen_random_space", "generators.gen_random_space", "span", {V, P, L}),
    ("generators", "gen_dormant_space", "generators.gen_dormant_space", "span", {L}),
    ("generators", "gen_screened_space", "generators.gen_screened_space", "span", {L}),
    ("generators", "gen_null_effect_space", "generators.gen_null_effect_space", "span", {L}),
    ("document", "parse_document", "document.parse_document", "span", {P, L}),
    ("document", "load_document", "document.load_document", "span", {L}),
    ("document", "to_causal_space", "document.to_causal_space", "span", {P, L}),
    ("document", "document_violations", "document.document_violations", "span", {L}),
    ("document", "dumps_document", "document.dumps_document", "span", {P, L}),
    ("document", "document_from_space", "document.document_from_space", "span", {P, L}),
    ("document", "marginalize_document", "document.marginalize_document", "span", {L}),
    ("cli", "main", "cli.main", "span", {L}),
)


class Tracer:
    """Counters and spans for the boundaries above; install/uninstall patches."""

    def __init__(self):
        self.stats = {name: [0, 0, 0] for _, _, name, _, _ in BOUNDARIES}  # calls, total ns, self ns
        self.errors: dict[str, int] = {}  # layer -> exceptions leaving its outermost span
        self.bytes_out = 0  # characters returned by dumps_document
        self.tags: dict[str, int] = {}  # verdict tag -> run_query results
        self.spans: list[tuple] = []  # (id, parent, op, name, start ns, end ns)
        self.op = None  # label of the op in progress, stamped on spans
        self._stack: list[list] = []  # per active call: [child ns, span id, layer]
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        rec = self.stats[name]
        stack = self._stack
        perf = time.perf_counter_ns
        layer = name.split(".")[0]
        tracer = self

        hot = kind == "hot"
        if kind == "yield":

            def counted(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    rec[0] += 1
                    yield item

            return counted

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                frame = [0, parent[1] if parent else None, layer]
            else:
                frame = [0, next(tracer._ids), layer]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[2] != layer:
                    tracer.errors[layer] = tracer.errors.get(layer, 0) + 1
                raise
            finally:
                end = perf()
                stack.pop()
                dt = end - start
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                if not hot:
                    tracer.spans.append((frame[1], parent[1] if parent else None, tracer.op, name, start, end))
            if name == "document.dumps_document":
                tracer.bytes_out += len(result)
            elif name == "effects.run_query":
                tag = result.tag.name.lower()
                tracer.tags[tag] = tracer.tags.get(tag, 0) + 1
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary in every namespace that binds it."""
        modules = [m for m in list(sys.modules.values()) if getattr(m, "__dict__", None) is not None]
        for mod_name, attr, name, kind, _ in BOUNDARIES:
            module = importlib.import_module(f"causalspaces.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name, kind))
                self._patches.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, kind)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "errors": dict(self.errors),
            "bytes_out": self.bytes_out,
            "tags": dict(self.tags),
        }

    def uncovered(self, workload: str, snap: dict) -> list[str]:
        """Boundaries the table says `workload` exercises that saw no call."""
        return [name for _, _, name, _, homes in BOUNDARIES if workload in homes and snap["stats"][name][0] == 0]

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "op", "name", "start_ns", "end_ns"), span))) + "\n")


def diff(after: dict, before: dict) -> dict:
    """Counter deltas between two snapshots."""
    return {
        "stats": {k: [a - b for a, b in zip(v, before["stats"][k])] for k, v in after["stats"].items()},
        "errors": {k: v - before["errors"].get(k, 0) for k, v in after["errors"].items()},
        "bytes_out": after["bytes_out"] - before["bytes_out"],
        "tags": {k: v - before["tags"].get(k, 0) for k, v in after["tags"].items()},
    }
