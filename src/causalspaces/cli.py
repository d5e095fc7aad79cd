"""Command-line front end: validate, intervene, marginalize, query, score, generate.

Reports are deterministic for a given document, query, and seed; every exact
number is rendered as a fraction string plus a decimal approximation, and
``--format json`` mirrors the text report field for field.

Exit codes: 0 success or a determined verdict, 1 validation failure,
2 undetermined verdict, 3 missing kernel, 4 parse/usage error. The
CEE_BLOCK_CAP environment variable overrides the 16-block cap on
sigma-algebra enumeration.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Union

from .document import (
    MAX_OUTCOMES,
    NAME_SEPARATORS,
    SpaceDocument,
    _cell_str,
    _cells,
    decimal_str,
    document_from_space,
    document_violations,
    dumps_document,
    fraction_str,
    load_document,
    marginalize_document,
    to_causal_space,
)
from .errors import CausalSpacesError, DocumentError, KernelMissingError
from .generators import GenConfig, gen_dormant_space, gen_null_effect_space, gen_random_space, gen_screened_space
from .kernels import CausalSpace, InterventionSpec, intervene, validate
from .measure import Measure, delta, uniform
from .space import Event, Outcome, Partition, ProductSpace, coordinate_subalgebra


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _num(x) -> dict:
    if isinstance(x, Fraction):
        return {"fraction": fraction_str(x), "decimal": decimal_str(x)}
    return {"decimal": repr(float(x))}


def _block_cap() -> Optional[int]:
    raw = os.environ.get("CEE_BLOCK_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise _UsageError(f"CEE_BLOCK_CAP must be an integer, got {raw!r}") from None
    if cap < 0:
        raise _UsageError(f"CEE_BLOCK_CAP must be a nonnegative integer, got {raw!r}")
    return cap


# ---------------------------------------------------------------------------
# argument resolution against a loaded document


def _constraints(text: str, single: bool = False) -> dict[str, list[str]]:
    """Read ``coord=label[|label],...``: each coordinate once, with one label if `single`.

    Splits at the separators of the document name grammar, which no id or label holds.
    """
    items, assign, alternatives = NAME_SEPARATORS
    out: dict[str, list[str]] = {}
    for item in text.split(items):
        if assign not in item:
            raise _UsageError(f"expected coord=label, got {item!r}")
        cid, labels = item.split(assign, 1)
        cid, labels = cid.strip(), [l.strip() for l in labels.split(alternatives)]
        if cid in out:
            raise _UsageError(f"coordinate {cid!r} is named twice in {text!r}")
        if single and len(labels) > 1:
            raise _UsageError(f"expected one label for {cid!r}, got {'|'.join(labels)!r}")
        out[cid] = labels
    return out


def _where(space: ProductSpace, constraints: dict[str, list[str]]) -> Event:
    try:
        return space.where(**constraints)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _resolve_event(doc: SpaceDocument, text: str) -> Event:
    if text in doc.events:
        return doc.events[text]
    return _where(doc.space, _constraints(text))


def _resolve_partition(doc: SpaceDocument, text: str) -> Partition:
    if text in doc.partitions:
        return doc.partitions[text]
    return coordinate_subalgebra(doc.space, _subset(doc, text))


def _resolve_given(doc: SpaceDocument, text: str) -> Union[Event, Partition]:
    if text in doc.partitions and text not in doc.events:
        return doc.partitions[text]
    return _resolve_event(doc, text)


def _resolve_subject(doc: SpaceDocument, omega: Optional[str], subject: Optional[str]):
    if (omega is None) == (subject is None):
        raise _UsageError("give exactly one of --omega or --subject")
    if omega is not None:
        assignment = _constraints(omega, single=True)
        event = _where(doc.space, assignment)
        return next(iter(event)) if len(assignment) == len(doc.space.ids) else event
    return _resolve_event(doc, subject)


def _resolve_q(doc: SpaceDocument, coords: frozenset, text: Optional[str]) -> Measure:
    sub = doc.space.subspace(coords)
    if text is None:
        if not coords:
            return uniform(sub)
        raise _UsageError("--Q is required when -U is nonempty")
    if text == "uniform":
        return uniform(sub)
    if text.startswith("delta:"):
        assignment = _constraints(text[len("delta:"):], single=True)
        if set(assignment) != coords:
            raise _UsageError("a delta measure must pin exactly the intervened coordinates")
        (key,) = _where(sub, assignment)
        return delta(sub, key)
    if text in doc.measures:
        if set(doc.measures[text].space.ids) != coords:
            raise _UsageError(f"named measure {text!r} is on other coordinates")
        return doc.measures[text]
    raise _UsageError(f"{text!r} is not delta:..., uniform, or a named measure")


def _subset(doc: SpaceDocument, text: str) -> frozenset:
    """Read ``id,id,...``, stripping each piece as :func:`_constraints` does; empty pieces are skipped."""
    ids = [t.strip() for t in text.split(NAME_SEPARATORS[0])]
    try:
        return doc.space.check_subset([t for t in ids if t])
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _checked(path: str) -> tuple[SpaceDocument, Optional[CausalSpace], list]:
    """Load a document and validate it: the observational table first, then the built space."""
    doc = load_document(path)
    violations = document_violations(doc)
    if violations:
        return doc, None, violations
    cs = to_causal_space(doc)
    return doc, cs, validate(cs)


def _load_checked(path: str) -> tuple[SpaceDocument, CausalSpace]:
    """Load a document and enforce its invariant: it must pass validation."""
    doc, cs, violations = _checked(path)
    if violations:
        for v in violations:
            print(f"invalid document: {v}", file=sys.stderr)
        raise SystemExit(1)
    return doc, cs


# ---------------------------------------------------------------------------
# report emission


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, ensure_ascii=False))
        return
    for line in _text_lines(report, ""):
        print(line)


def _text_lines(obj, prefix: str):
    if isinstance(obj, dict):
        if set(obj) <= {"fraction", "decimal"}:
            yield f"{prefix}: {obj.get('fraction', '')}{' (= ' + obj['decimal'] + ')' if 'fraction' in obj else obj['decimal']}"
            return
        for key, value in obj.items():
            yield from _text_lines(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, list):
        if not obj:
            yield f"{prefix}: (none)"
        elif all(isinstance(v, str) for v in obj):
            yield f"{prefix}: " + " | ".join(obj)
        else:
            for i, value in enumerate(obj):
                yield from _text_lines(value, f"{prefix}[{i}]")
    else:
        yield f"{prefix}: {obj}"


def _echo(doc: SpaceDocument, x: Union[Outcome, Event, Partition]) -> dict:
    """A query's outcome, event or partition, as the report shows it."""
    if isinstance(x, tuple):
        return {"outcome": _cell_str(x)}
    if isinstance(x, Partition):
        return {"partition": [_cells(doc.space, b) for b in x.blocks]}
    return {"event": _cells(doc.space, x)}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    _, _, violations = _checked(args.file)
    report = {
        "command": "validate",
        "violations": [
            {
                "kind": v.kind,
                "kernel": ",".join(sorted(v.kernel)) if v.kernel is not None else None,
                "row": _cell_str(v.row) if v.row is not None else None,
                "outcome": _cell_str(v.outcome) if v.outcome is not None else None,
                "detail": v.detail,
            }
            for v in violations
        ],
        "ok": not violations,
    }
    _emit(report, args.format)
    return 0 if not violations else 1


def _effect_query(doc: SpaceDocument, args):
    # the query engines load inside the subcommands that run them, so validate, intervene,
    # marginalize and gen never import them
    from . import effects

    u = _subset(doc, args.U)
    subject = _resolve_subject(doc, args.omega, args.subject)
    if (args.event is None) == (args.sigma is None):
        raise _UsageError("give exactly one of --event (target event) or --sigma (target partition)")
    target = _resolve_event(doc, args.event) if args.event is not None else _resolve_partition(doc, args.sigma)
    given = _resolve_given(doc, args.given) if args.given is not None else None
    post = _subset(doc, args.V) if args.V is not None else None
    return effects.EffectQuery(u, subject, target, given=given, post=post)


def _ratio(m1, m2, g: Event, a: Event) -> dict:
    """The two rows' probabilities of `a` given `g`, or undefined where either row gives `g` no mass."""
    d1, d2 = m1(g), m2(g)
    if d1 > 0 and d2 > 0:
        return {"lhs": _num(m1(g & a) / d1), "rhs": _num(m2(g & a) / d2)}
    return {"undefined": True}


def _comparisons(doc: SpaceDocument, cs: CausalSpace, query) -> list:
    """The row pairs the active check compares, for the report."""
    from . import effects

    if isinstance(query.target, Partition):
        return []
    a, u, v, given = frozenset(query.target), query.intervention, query.post or frozenset(), query.given
    out = []
    for key in effects._subject_keys(cs, u, query.subject):
        entry: dict = {"row": _cell_str(key)}
        pairs = [
            (part, functools.partial(read1, key1), functools.partial(read2, key2))
            for part, read1, key1, read2, key2 in effects._pairs(cs, u, [key], [(u | v, v, u)])
        ]
        if query.post is not None:
            entry["comparisons"] = [{"fixed": _cell_str(part), "lhs": _num(m1(a)), "rhs": _num(m2(a))} for part, m1, m2 in pairs]
        else:
            (_, m1, m2), = pairs
            if isinstance(given, Partition):
                entry["comparisons"] = [
                    {"block": _cells(doc.space, b), **_ratio(m1, m2, b, a)} for b in given.blocks
                ]
            elif given is not None:
                entry.update(_ratio(m1, m2, frozenset(given), a))
            else:
                entry.update(lhs=_num(m1(a)), rhs=_num(m2(a)))
        out.append(entry)
    return out


def _cmd_effect(args, trichotomy: bool) -> int:
    from . import effects

    doc, cs = _load_checked(args.file)
    query = _effect_query(doc, args)
    verdict = effects.run_query(cs, query, active_only=not trichotomy, block_cap=_block_cap())
    report = {
        "command": "classify" if trichotomy else "effect",
        "query": {
            "intervention": ",".join(sorted(query.intervention)),
            **({"post": ",".join(sorted(query.post))} if query.post is not None else {}),
            "subject": _echo(doc, query.subject),
            "target": _echo(doc, query.target),
            **({"given": _echo(doc, query.given)} if query.given is not None else {}),
        },
        "verdict": verdict.tag.value,
        **({"reason": str(verdict.reason)} if verdict.reason else {}),
    }
    if not trichotomy:
        report["compared"] = _comparisons(doc, cs, query)
    _emit(report, args.format)
    return 0 if verdict.determined else 2


def _cmd_score(args) -> int:
    from . import scores

    doc, cs = _load_checked(args.file)
    u = _subset(doc, args.U)
    if (args.event is None) == (args.sigma is None):
        raise _UsageError("give exactly one of --event or --sigma")
    # a flag the requested score would not read is refused, not dropped
    if not args.max and (args.omega is not None or args.subject is not None):
        raise _UsageError("--omega and --subject give the subject of --max")
    if args.max and args.Q is not None:
        raise _UsageError("--Q mixes the mean score; --max takes no --Q")
    if args.rv is not None and args.event is not None:
        raise _UsageError("--rv is read with --sigma, not --event")
    if args.diff is not None and args.event is not None:
        raise _UsageError("--diff is read with --sigma, not --event")
    if args.scale is not None and args.sigma is not None:
        raise _UsageError("--scale is read with --event, not --sigma")
    variable = doc.variables.get(args.rv)
    if args.rv is not None and variable is None:
        raise _UsageError(f"unknown variable {args.rv!r}")
    query: dict = {"intervention": ",".join(sorted(u))}
    # the maximum ranges over a subject event, the mean mixes by a measure on U
    if args.max:
        over = doc.space.all_event() if args.omega is None and args.subject is None else _resolve_subject(doc, args.omega, args.subject)
        over = frozenset([over]) if isinstance(over, tuple) else over
        query["subject"] = _echo(doc, over)
    else:
        over = _resolve_q(doc, u, args.Q)
        query["q"] = {_cell_str(o): _num(w) for o, w in sorted(over.weights.items())}
    if args.event is not None:
        target = _resolve_event(doc, args.event)
        scale = {"f1": scores.F1, "f2": scores.F2}[args.scale or "f1"]
        query.update(target=_echo(doc, target), scale=scale.name)
        score_fn, extra = (scores.max_effect_score_event if args.max else scores.mean_effect_score_event), (scale,)
    else:
        target = _resolve_partition(doc, args.sigma)
        functional = {
            "mean": scores.MEAN_DIFF,
            "var": scores.VARIANCE_DIFF,
            "tv": scores.TOTAL_VARIATION,
            "mean+var": scores.MEAN_AND_VARIANCE_DIFF,
        }[args.diff or "mean"]
        if args.rv is not None and not functional.needs_variable:
            raise _UsageError(f"--diff {args.diff} reads no --rv")
        query.update(target=_echo(doc, target), functional=functional.name)
        if args.rv is not None:
            query["variable"] = args.rv
        score_fn, extra = (scores.max_effect_score_algebra if args.max else scores.mean_effect_score_algebra), (functional, variable)
    score = score_fn(cs, u, over, target, *extra)
    value = score.value
    report = {"command": "score", "query": query, "score": [_num(v) for v in value] if isinstance(value, tuple) else _num(value)}
    if args.max:
        report.update(argmax=_cell_str(score.argmax), tied=score.tied)
    _emit(report, args.format)
    return 0


def _cmd_intervene(args) -> int:
    doc, cs = _load_checked(args.file)
    u = _subset(doc, args.U)
    spec = InterventionSpec(u, _resolve_q(doc, u, args.Q))
    new = intervene(cs, spec)
    out = document_from_space(new, doc.events, doc.partitions, doc.variables, doc.measures)
    sys.stdout.write(dumps_document(out))
    return 0


def _cmd_marginalize(args) -> int:
    doc, _ = _load_checked(args.file)
    coords = _subset(doc, args.coords)
    if not coords:
        raise _UsageError("--coords must name at least one coordinate")
    sys.stdout.write(dumps_document(marginalize_document(doc, coords)))
    return 0


def _cmd_gen(args) -> int:
    chosen = [flag for flag, on in (("--dormant", args.dormant), ("--screened", args.screened), ("--null-effect", args.null_effect is not None)) if on]
    if len(chosen) > 1:
        raise _UsageError(f"{', '.join(chosen)}: choose at most one construction")
    if args.dormant:
        cs = gen_dormant_space()  # reads no size flag
    else:
        cfg = GenConfig(
            seed=args.seed,
            max_coords=args.max_coords,
            max_labels=args.max_labels,
            kernel_mode=args.mode,
            denominator_bound=args.denom_bound,
        )
        # a full family on n coordinates of at most m labels holds 2^n |Omega| <= (2m)^n weights;
        # past MAX_OUTCOMES.bit_length() coordinates that exceeds the limit whatever m is
        n, m = (2, max(2, cfg.max_labels)) if args.screened else (cfg.max_coords, cfg.max_labels)
        if (2 * m) ** min(n, MAX_OUTCOMES.bit_length()) > MAX_OUTCOMES:
            raise _UsageError(f"the size flags allow a kernel family of more than {MAX_OUTCOMES} weights")
        if args.screened:
            cs = gen_screened_space(cfg)
        elif args.null_effect is not None:
            ids = args.null_effect.split(",")
            if "" in ids:
                raise _UsageError(f"--null-effect {args.null_effect!r} holds an empty coordinate id")
            try:
                cs = gen_null_effect_space(cfg, ids)
            except ValueError as exc:  # the generated ids are known only once the space is drawn
                raise _UsageError(f"--null-effect {args.null_effect!r}: {exc}") from None
        else:
            cs = gen_random_space(cfg)
    sys.stdout.write(dumps_document(document_from_space(cs)))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_query_flags(p: _Parser) -> None:
    p.add_argument("-U", default="", help="intervened coordinates, comma-separated")
    p.add_argument("-V", default=None, help="already-intervened coordinates (post-intervention variant)")
    p.add_argument("--omega", default=None, help="subject outcome as coord=label,...; a partial assignment is its cylinder event")
    p.add_argument("--subject", default=None, help="subject event: a named event or a predicate")
    p.add_argument("--event", default=None, help="target event: a named event or a predicate like pay=1000")
    p.add_argument("--sigma", default=None, help="target partition: a name or a coordinate list")
    p.add_argument("--given", default=None, help="conditioning event or partition (name or predicate)")


def build_parser() -> _Parser:
    parser = _Parser(prog="cee", description="Causal effects on events over finite causal spaces, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a space document against the causal-space axioms")
    p.add_argument("file")

    p = sub.add_parser("effect", help="active-effect verdicts (marginal, conditional, post-intervention)")
    p.add_argument("file")
    p.add_argument("--active", action="store_true", help="explicitly request the active-effect check (the default)")
    _add_query_flags(p)

    p = sub.add_parser("classify", help="full no/active/dormant verdicts (needs the full kernel family)")
    p.add_argument("file")
    _add_query_flags(p)

    p = sub.add_parser("score", help="mean and maximum effect scores")
    p.add_argument("file")
    p.add_argument("-U", default="")
    p.add_argument("--Q", default=None, help="mixing measure: delta:coord=label,... | uniform | a named measure")
    p.add_argument("--event", default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--scale", choices=("f1", "f2"))
    p.add_argument("--diff", choices=("mean", "var", "tv", "mean+var"))
    p.add_argument("--rv", default=None, help="named random variable for mean/variance functionals")
    p.add_argument("--max", action="store_true", help="maximum score over a subject event (default: the whole space)")
    p.add_argument("--omega", default=None)
    p.add_argument("--subject", default=None)

    p = sub.add_parser("intervene", help="emit the intervened space as a document")
    p.add_argument("file")
    p.add_argument("-U", default="")
    p.add_argument("--Q", default=None)

    p = sub.add_parser("marginalize", help="emit the marginal space over --coords as a document")
    p.add_argument("file")
    p.add_argument("--coords", required=True)

    p = sub.add_parser("gen", help="emit a generated space as a document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-coords", type=int, default=3)
    p.add_argument("--max-labels", type=int, default=3)
    p.add_argument("--mode", choices=("full", "partial"), default="full")
    p.add_argument("--denom-bound", type=int, default=32)
    p.add_argument("--null-effect", default=None, metavar="COORDS", help="null-effect construction on these coordinates")
    p.add_argument("--dormant", action="store_true", help="the fixed copy construction with a dormant effect")
    p.add_argument("--screened", action="store_true", help="a seeded screened-mediator construction")

    for p in sub.choices.values():  # last, so it closes every option list
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


# One parser serves every request in a process: parsing reads no state off it,
# and help output takes the terminal width when it is formatted.
_parser = functools.cache(build_parser)


_DISPATCH = {
    "validate": _cmd_validate,
    "effect": lambda args: _cmd_effect(args, trichotomy=False),
    "classify": lambda args: _cmd_effect(args, trichotomy=True),
    "score": _cmd_score,
    "intervene": _cmd_intervene,
    "marginalize": _cmd_marginalize,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except KernelMissingError as exc:
        print(f"missing kernel: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    except (CausalSpacesError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
