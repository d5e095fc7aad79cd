"""Record the expected outputs of the ``cli`` workload's requests.

Usage, from the root of a checkout: ``python3 bench/record_cli.py``.

Runs every request of the catalogue in ``workloads.py`` once and writes
``bench/cli_expected.json``: each request's exit code and the SHA-256 of its
standard output. Before writing, every verdict a request reports is checked
against ``oracle_effect_brute`` on the same query, built from the request's
spec without the CLI, and every request expected to fail must exit with its
documented code. Re-record only when a change of output is intended.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import causalspaces as C  # noqa: E402
import causalspaces.document as D  # noqa: E402
from workloads import (  # noqa: E402
    EFFECT_REQUESTS,
    EXPECTED_PATH,
    active_only_agrees,
    cli_requests,
    digest,
    effect_query,
    run_cli,
    write_cli_docs,
)

# requests that must fail, with their documented exit codes
# (1 validation failure, 3 missing kernel, 4 parse or usage error)
FAILURES = {
    "validate-invalid": 1,
    "classify-invalid": 1,
    "classify-missing-kernel": 3,
    "classify-partial-family": 3,
    "validate-malformed": 4,
    "score-malformed": 4,
    "usage-unknown-coordinate": 4,
    "usage-no-target": 4,
    "usage-bad-predicate": 4,
    "usage-bad-scale": 4,
}


def reported_verdict(stdout: str, fmt: str) -> tuple[str, str]:
    """The (verdict, reason) a report states; reason is "" when there is none."""
    if fmt == "json":
        report = json.loads(stdout)
        return report["verdict"], report.get("reason", "")
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if line.startswith(("verdict: ", "reason: ")))
    return fields["verdict"], fields.get("reason", "")


def oracle_verdict(path: str, spec):
    doc = D.load_document(path)
    cs = D.to_causal_space(doc)
    try:
        return C.oracle_effect_brute(cs, effect_query(doc, spec))
    except C.KernelMissingError:
        return None


def cross_check(rid: str, code: int, stdout: str, path: str) -> str:
    """The oracle's verdict for an effect request; raises on any disagreement."""
    spec = EFFECT_REQUESTS[rid]
    oracle = oracle_verdict(path, spec)
    if code == 3:
        if oracle is not None:
            raise SystemExit(f"{rid}: CLI reports a missing kernel, the oracle says {oracle}")
        return "kernel-missing"
    if oracle is None:
        raise SystemExit(f"{rid}: the oracle hits a missing kernel, the CLI exits {code}")
    verdict, reason = reported_verdict(stdout, spec[-1])
    tag = C.EffectTag(verdict)
    undetermined = tag is C.EffectTag.UNDETERMINED
    if undetermined or spec[0] == "classify":
        ok = tag is oracle.tag and reason == (str(oracle.reason) if oracle.reason else "")
    else:
        ok = active_only_agrees(C.EffectVerdict(tag), oracle)
    if not ok or (code == 2) != undetermined:
        raise SystemExit(f"{rid}: CLI verdict {verdict} {reason} (exit {code}) disagrees with the oracle's {oracle}")
    return str(oracle)


def main() -> int:
    workdir = ROOT / ".bench_build" / "record"
    paths = write_cli_docs(workdir)
    records = {}
    for rid, template in sorted(cli_requests().items()):
        argv = [a.format(**paths) for a in template]
        code, stdout, stderr = run_cli(argv)
        if rid in FAILURES and code != FAILURES[rid]:
            raise SystemExit(f"{rid}: exit {code}, documented {FAILURES[rid]}: {stderr.strip()}")
        if rid not in FAILURES and code not in (0, 2):
            raise SystemExit(f"{rid}: unexpected exit {code}: {stderr.strip()}")
        entry = {"argv": template, "code": code, "stdout_sha256": digest(stdout)}
        if rid in EFFECT_REQUESTS:
            entry["oracle"] = cross_check(rid, code, stdout, paths[EFFECT_REQUESTS[rid][1]])
        records[rid] = entry
        print(f"{rid}: exit {code}{', oracle ' + entry['oracle'] if 'oracle' in entry else ''}")
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    EXPECTED_PATH.write_text(
        json.dumps({"recorded_at": sha, "requests": records}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(records)} requests to {EXPECTED_PATH.relative_to(ROOT)}")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
