"""The benchmark's `cli` request catalogue, run once through `cli.main`.

The requests, the generated documents and the expected exit codes and stdout
hashes come from `bench/` (read only), so a change that alters any report
of the catalogue fails here before the benchmark's output check sees it.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_catalogue_matches_recorded_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the catalogue names fixtures/insurance.json relative to the root
    monkeypatch.delenv("CEE_BLOCK_CAP", raising=False)
    W = _bench_workloads()
    paths = W.write_cli_docs(tmp_path)
    expected = json.loads(W.EXPECTED_PATH.read_text(encoding="utf-8"))["requests"]
    requests = W.cli_requests()
    assert set(requests) == set(expected) and len(requests) == 44
    got = {}
    for rid, argv in sorted(requests.items()):
        code, out, _ = W.run_cli([a.format(**paths) for a in argv])
        got[rid] = (code, W.digest(out))
    want = {rid: (e["code"], e["stdout_sha256"]) for rid, e in expected.items()}
    assert {rid: got[rid] for rid in got if got[rid] != want[rid]} == {}
