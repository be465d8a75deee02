"""Self-test of the benchmark harness itself.

    python3 perfbench/selftest.py

1. The checker catches failures: one pass of ``grouplaw-induced`` with one
   wrong reference (the flagged generator list emptied) must report a
   failed check, and a reference set missing a tolerance must count the
   task's exception as a failed check.  The correct references must give
   no failure.
2. Traced-run sanity: one short traced run of every workload, through
   ``run.py``; every per-layer metric named in ``BENCHMARK.json`` must be
   nonzero on at least one workload, and must be mapped in ``layers.json``.

Exits 0 when every check holds.  Part 2 takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_pass(references) -> dict:
    import worker
    from clock import ReferenceClock

    clock = ReferenceClock().start()
    try:
        return worker.measure("grouplaw-induced", 7, 0.0, False, clock, references=references)
    finally:
        clock.stop()


def check_references() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    problems = []
    good = one_pass(dict(workloads.REFERENCES))
    if good["failed"] != 0:
        problems.append(f"correct references failed {good['failed']} checks: {good['failures']}")
    wrong = one_pass(dict(workloads.REFERENCES, flagged_generators=()))
    if not wrong["failed"] > 0:
        problems.append("a wrong reference gave fail_ratio 0")
    missing = dict(workloads.REFERENCES)
    del missing["homomorphism_tol"]
    raised = one_pass(missing)
    if not (raised["failed"] == 1 and "raised" in raised["failures"][0]):
        problems.append(f"an exception was not counted as one failed check: {raised['failures']}")
    for name, rec in (("correct", good), ("wrong", wrong), ("missing", raised)):
        print(f"references {name}: fail_ratio {rec['failed']}/{rec['attempted']}")
    return problems


def check_traced_runs() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    prefixes = [p for layer in layers for p in layer["prefixes"]]
    nonzero: dict[str, list[str]] = {m["name"]: [] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", "5", "--seconds", "1", "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            problems.append(f"{workload}: traced run exited {proc.returncode}: "
                            f"{proc.stderr[-500:]}")
            continue
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        if set(metrics) != set(nonzero):
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
        for name, entry in metrics.items():
            if entry["value"] and name in nonzero:
                nonzero[name].append(workload)
        print(f"traced {workload}: {sum(1 for m in metrics.values() if m['value'])} "
              f"of {len(metrics)} metrics nonzero")
    for name, where in nonzero.items():
        if not where:
            problems.append(f"{name} is zero on every workload")
        if not any(name.startswith(p) for p in prefixes):
            problems.append(f"{name} has no entry in layers.json")
    return problems


def main() -> int:
    problems = check_references() + check_traced_runs()
    for problem in problems:
        print("SELFTEST FAILED: " + problem)
    if not problems:
        print("selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
