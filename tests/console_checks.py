"""The console checks of the `cee` command line, as data, and one driver that runs them.

Each check is one request: its argv, the document it reads where the argv
says ``/dev/stdin`` (a document of :func:`documents`, or the stdout of an
earlier check), the exit code it must end with, and at most one expectation
on its stdout:

- ``("line", text)``: `text` is a whole line of stdout;
- ``("kinds", [...])``: the ``violations[i].kind`` values of a `validate`
  report, in order, and no others;
- ``("same", name)``: stdout is byte-identical to the stdout of check `name`;
- ``("stdlib", None)``: stdout is what ``json.dumps(..., indent=2,
  ensure_ascii=False)`` writes for the document it holds.

Run every check against an installed console script, each request a fresh
process under a 60 s timeout; the arguments are the command to run::

    python tests/console_checks.py cee

``tests/test_console_checks.py`` runs the same checks in-process through
``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

INSURANCE = Path(__file__).resolve().parent.parent / "fixtures" / "insurance.json"
STDIN = "/dev/stdin"
WIDE_IDS = [f"c{i}" for i in range(14)]
ALL14 = ",".join(WIDE_IDS)


class Check(NamedTuple):
    name: str
    argv: str  # split with shlex
    stdin: Optional[str] = None  # a document of `documents()`, or an earlier check
    code: int = 0
    expect: Optional[tuple] = None


CHECKS = (
    # the README examples
    Check("validate", "validate /dev/stdin", "insurance"),
    Check("effect-active", "effect /dev/stdin --active -U ins --omega ins=Y --event pay=1000", "insurance"),
    Check("effect-given-N", "effect /dev/stdin -U ins --omega ins=Y --event pay=1000 --given dan=N", "insurance"),
    Check("effect-given-H", "effect /dev/stdin -U ins --omega ins=Y --event pay=1000 --given dan=H", "insurance"),
    Check("score-f1", "score /dev/stdin -U ins --Q delta:ins=N --event pay=1000 --scale f1", "insurance"),
    Check("score-mean-var", "score /dev/stdin -U ins --Q delta:ins=Y --sigma by_pay --diff mean+var --rv payment", "insurance"),
    Check("score-max", "score /dev/stdin -U ins --max --event pay=1000 --scale f1", "insurance"),
    Check("gen-7", "gen --seed 7 --max-labels 2"),
    Check("gen-7-validate", "validate /dev/stdin", "gen-7"),
    Check("gen-dormant", "gen --dormant"),
    Check("dormant-classify", "classify /dev/stdin -U c1 --omega c1=0,c2=1 --event c1=0,c2=0", "gen-dormant"),
    # targets that split no block of what is given: each conditional probability is 0 or 1 under both rows
    Check("unsplit-event", "effect /dev/stdin -U ins --omega ins=Y --event dan=H --given dan=H", "insurance", 0, ("line", "verdict: no-effect")),
    Check("unsplit-sigma", "effect /dev/stdin -U ins --omega ins=Y --sigma by_dan --given by_dan", "insurance", 0, ("line", "verdict: no-effect")),
    # targets that split blocks of by_dan: the event splits every block, and so does some union of by_pay
    Check("split-event", "effect /dev/stdin -U ins --omega ins=Y --event pay=1000 --given by_dan", "insurance", 0, ("line", "verdict: active")),
    Check("split-sigma", "effect /dev/stdin -U ins --omega ins=Y --sigma by_pay --given by_dan", "insurance", 0, ("line", "verdict: active")),
    # the document writer against the stdlib encoder, on a generated, an intervened and a marginalized document
    Check("gen-23", "gen --seed 23 --max-coords 7 --max-labels 2", None, 0, ("stdlib", None)),
    Check("gen-23-validate", "validate /dev/stdin", "gen-23"),
    Check("intervened", "intervene /dev/stdin -U ins --Q delta:ins=Y", "insurance", 0, ("stdlib", None)),
    Check("marginalized", "marginalize /dev/stdin --coords ins,pay", "insurance", 0, ("stdlib", None)),
    Check("non-ascii", "marginalize /dev/stdin --coords t,y", "non-ascii", 0, ("stdlib", None)),
    # two interventions on 7 coordinates: parse into integer rows, intervene and serialize, twice
    Check("gen-23-intervened", "intervene /dev/stdin -U c0,c1 --Q uniform", "gen-23"),
    Check("gen-23-twice-intervened", "intervene /dev/stdin -U c2 --Q uniform", "gen-23-intervened"),
    Check("gen-23-twice-intervened-validate", "validate /dev/stdin", "gen-23-twice-intervened", 0, ("line", "ok: True")),
    # marginalize the 7-coordinate family onto 4 coordinates: the measure and the kernels are pushed forward as integer rows
    Check("gen-23-marginalized", "marginalize /dev/stdin --coords c0,c1,c2,c3", "gen-23"),
    Check("gen-23-marginalized-validate", "validate /dev/stdin", "gen-23-marginalized", 0, ("line", "ok: True")),
    # marginalizing twice writes the bytes of marginalizing once, on the fixture and on the 7-coordinate family
    Check("fixture-once", "marginalize /dev/stdin --coords pay", "insurance"),
    Check("fixture-twice", "marginalize /dev/stdin --coords pay", "marginalized", 0, ("same", "fixture-once")),
    Check("family-once", "marginalize /dev/stdin --coords c0,c1", "gen-23"),
    Check("family-twice", "marginalize /dev/stdin --coords c0,c1", "gen-23-marginalized", 0, ("same", "family-once")),
    # an intervention on kept coordinates commutes with marginalizing
    Check("intervened-first", "marginalize /dev/stdin --coords ins,pay", "intervened"),
    Check("marginalized-first", "intervene /dev/stdin -U ins --Q delta:ins=Y", "marginalized", 0, ("same", "intervened-first")),
    Check("classify-sigma", "classify /dev/stdin -U ins --omega ins=Y --sigma by_pay", "insurance"),
    # given a partition the compared rows are not mutually continuous on: exit 2 with that reason
    Check("given-algebra", "classify /dev/stdin -U ins --omega ins=Y --event pay=1000 --given by_pay", "insurance", 2, ("line", "reason: not-mutually-abs-continuous")),
    # one kernel weight changed: validate must exit 1 and report the row sum
    Check("row-sum", "validate /dev/stdin", "row-sum", 1, ("line", "violations[0].kind: row-sum")),
    # mass moved out of a kernel row's cylinder at a negative weight: the row fails the bulk check and is walked entry by entry
    Check("row-walk", "validate /dev/stdin", "row-walk", 1, ("kinds", ["support", "negative-weight", "row-sum"])),
    # a negative observational weight, a zero cell and weights that still sum to 1: only the negative weight, no measure-sum
    Check("measure-negative", "validate /dev/stdin", "measure-negative", 1, ("kinds", ["measure-negative"])),
    # 14 binary coordinates, a point-mass measure and one kernel on c0: each request walks the stored kernel only
    Check("wide-validate", "validate /dev/stdin", "wide"),
    Check("wide-marginalized", f"marginalize /dev/stdin --coords {ALL14}", "wide"),
    Check("wide-normalized", "intervene /dev/stdin -U ''", "wide", 0, ("same", "wide-marginalized")),
    Check("wide-intervened", "intervene /dev/stdin -U c0 --Q delta:c0=1", "wide"),
    Check("wide-intervened-validate", "validate /dev/stdin", "wide-intervened", 0, ("line", "ok: True")),
    # the same document naming an event and a partition: both survive marginalizing onto every coordinate
    Check("wide-named-marginalized", f"marginalize /dev/stdin --coords {ALL14}", "wide-named"),
    Check("wide-named-normalized", "intervene /dev/stdin -U ''", "wide-named", 0, ("same", "wide-named-marginalized")),
)


def documents() -> dict[str, str]:
    """The input documents by name: the insurance fixture, three faulty edits of it, one with non-ASCII labels, and a 14-coordinate one with and without names."""
    text = INSURANCE.read_text(encoding="utf-8")

    def edited(section: str, path: tuple, cells: dict) -> str:
        data = json.loads(text)
        table = data[section]
        for key in path:
            table = table[key]
        table.update(cells)
        return json.dumps(data)

    zeros = ["0"] * 14
    wide = {
        "coordinates": [{"id": c, "labels": ["0", "1"]} for c in WIDE_IDS],
        "measure": {",".join(zeros): "1"},
        "kernels": {"c0": {"0": {",".join(zeros): "1"}, "1": {",".join(["1"] + zeros[1:]): "1"}}},
    }
    return {
        "insurance": text,
        "row-sum": edited("kernels", ("ins", "Y"), {"N,Y,30": "0.06"}),
        "row-walk": edited("kernels", ("ins", "Y"), {"N,Y,30": "-0.05", "N,N,30": "0.05"}),
        "measure-negative": edited("measure", (), {"N,Y,30": "-0.01", "N,N,0": "0.11", "L,Y,0": "0"}),
        "non-ascii": json.dumps(
            {
                "coordinates": [{"id": "t", "labels": ["é", "ü"]}, {"id": "y", "labels": ["0", "1"]}],
                "measure": {"é,0": "1/2", "ü,1": "1/2"},
                "events": {"t_e": {"t": "é"}},
            },
            ensure_ascii=False,
        ),
        "wide": json.dumps(wide),
        "wide-named": json.dumps({**wide, "events": {"c0_set": {"c0": "1"}}, "partitions": {"by_c1": {"coords": "c1"}}}),
    }


def _fault(check: Check, out: str, outputs: dict[str, str]) -> Optional[str]:
    """What `out` breaks of the check's expectation, or None."""
    if check.expect is None:
        return None
    kind, want = check.expect
    if kind == "line":
        ok = want in out.splitlines()
    elif kind == "kinds":
        ok = re.findall(r"^violations\[\d+\]\.kind: (.*)$", out, re.M) == want
    elif kind == "same":
        ok = out == outputs[want]
    else:
        ok = json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n" == out
    return None if ok else f"expected {kind} {want!r}"


def run_checks(run: Callable[[list[str]], tuple[int, str]], workdir: Path) -> list[str]:
    """Run every check in order through `run(argv) -> (exit code, stdout)`; one message per failed check."""
    paths = {}
    for name, text in documents().items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    outputs: dict[str, str] = {}
    failures = []
    for check in CHECKS:
        argv = [str(paths[check.stdin]) if a == STDIN else a for a in shlex.split(check.argv)]
        code, out = run(argv)
        outputs[check.name] = out
        paths[check.name] = workdir / f"{check.name}.out"
        paths[check.name].write_text(out, encoding="utf-8", newline="")
        fault = f"exit {code}, expected {check.code}" if code != check.code else _fault(check, out, outputs)
        if fault:
            failures.append(f"{check.name}: cee {check.argv} (stdin: {check.stdin}): {fault}\n{out}")
    return failures


def in_process(argv: list[str]) -> tuple[int, str]:
    """One request through ``cli.main``, stdout captured."""
    from causalspaces import cli  # imported here: the fresh-process driver runs without the package importable

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def main(command: list[str]) -> int:
    def fresh_process(argv: list[str]) -> tuple[int, str]:
        done = subprocess.run(command + argv, stdout=subprocess.PIPE, timeout=60)
        return done.returncode, done.stdout.decode("utf-8")

    with tempfile.TemporaryDirectory() as workdir:
        failures = run_checks(fresh_process, Path(workdir))
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(CHECKS) - len(failures)} of {len(CHECKS)} console checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["cee"]))
