"""Repeated runs of the benchmark: spread, determinism and the baseline record.

Usage, from the root of a checkout:

    python3 bench/suite.py spread [--workloads verdicts,pipeline,cli] [--seeds 1-10]
    python3 bench/suite.py determinism [--seed 1]
    python3 bench/suite.py baseline --out bench/BENCH_0.json [--seed 1]

``spread`` runs each workload once per seed and prints, for every end-to-end
metric, the median, the quartiles and the quartile distance as a share of
the median next to the metric's bound. ``determinism`` makes two traced runs
per workload on one seed and requires identical values of every metric with
unit ``count`` (``.calls``, ``.count``, ``effects.tag.*`` and the rest).
``baseline`` records machine, interpreter, commit, seed and every metric of
every workload. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [*CONFIG["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}\n{proc.stderr}")
    return {**result, "report": report}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(workloads: list[str], seeds: list[int]) -> None:
    for w in workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            for name, m in run(w, seed, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w} ({len(seeds)} seeds)")
        for m in CONFIG["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / statistics.median(xs)
            print(
                f"  {m['name']:<14} median {statistics.median(xs):12.6g} {m['unit']:<5}"
                f" q1 {q1:12.6g} q3 {q3:12.6g} spread {share:6.3f} bound {m['bound']}"
            )
            print("    " + " ".join(f"{x:.6g}" for x in xs))


def determinism(seed: int) -> None:
    ok = True
    for w in (x["name"] for x in CONFIG["workloads"]):
        a, b = run(w, seed, 1)["metrics"], run(w, seed, 1)["metrics"]
        exact = [n for n in a if a[n]["unit"] == "count"]  # .calls, .count, effects.tag.*, errors, bytes
        diff = [n for n in exact if a[n]["value"] != b[n]["value"]]
        ok = ok and not diff
        print(f"{w}: {len(exact)} count metrics, {'differ: ' + ', '.join(diff) if diff else 'identical'}")
    if not ok:
        raise SystemExit(1)


def machine() -> dict:
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "git_sha": sha}


def baseline(seed: int, out: Path) -> None:
    record = {**machine(), "seed": seed, "run_seconds": CONFIG["run_seconds"], "workloads": {}}
    for w in (x["name"] for x in CONFIG["workloads"]):
        e2e, layers = run(w, seed, 0), run(w, seed, 1)
        record["workloads"][w] = {
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "report": e2e["report"],
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
        }
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads", default=",".join(x["name"] for x in CONFIG["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p = sub.add_parser("determinism")
    p.add_argument("--seed", type=int, default=1)
    p = sub.add_parser("baseline")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.cmd == "spread":
        spread(args.workloads.split(","), seed_range(args.seeds))
    elif args.cmd == "determinism":
        determinism(args.seed)
    else:
        baseline(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
