"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample runs in a fresh worker
process (``worker.py``): eight set-up-only workers, four before and four
after the measured worker, give with the measured worker's own set-up nine
cold set-up samples, of which ``setup_s`` is the median.  The measured
worker runs the workload's tasks for ``--seconds`` and checks every
result.

Times are reference-speed seconds from ``clock.ReferenceClock``: wall time
corrected, probe by probe, for the speed the shared vCPU runs at.  The raw
wall time is printed beside each of them.

With ``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
full record, with the environment and per-task times, goes to
``.perfbench_out/``.  The exit code is 0 when every check passed, 1 when a
check failed, and 2 when a worker could not run (nothing is printed on
stdout then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0
SETUP_SAMPLES_BEFORE = 4
SETUP_SAMPLES_AFTER = 4


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({
        # fixed hashing makes every process do identical work for one seed
        "PYTHONHASHSEED": "0",
        # one BLAS thread: no spinning helper thread competes with the
        # interpreter for the second vCPU, which would make numpy-heavy
        # workloads the noisiest
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget exhausted before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} timed out after {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared(key: str) -> list[dict]:
    """Workloads or metrics as BENCHMARK.json names them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES_BEFORE)]
    record = spawn(common + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups.append(record["setup_s"])
    setups += [spawn(common + ["--setup-only"], deadline)["setup_s"]
               for _ in range(SETUP_SAMPLES_AFTER)]
    record["setup_samples_s"] = setups
    record["environment"]["git_sha"] = git_sha()

    values = {
        "wall_s": record["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mib": record["peak_rss_mib"],
    }
    values.update(record.get("layers", {}))
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for spec in declared(kind):
        if spec["name"] not in values:
            raise WorkerError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    return result, record


def report(result: dict, record: dict, trace: bool) -> None:
    env = record["environment"]
    print(f"perfbench {env['workload']} seed={env['seed']} trace={int(trace)} "
          f"passes={len(record['passes'])} sha={env['git_sha']}")
    print("environment " + json.dumps(env, sort_keys=True))
    untraced = [p for p in record["passes"] if not p["traced"]]
    print(f"  wall_s        {record['wall_s']:.4f} s  (raw {record['raw_wall_s']:.4f} s, "
          f"median of {len(untraced)} untraced passes)")
    print(f"  setup_s       {statistics.median(record['setup_samples_s']):.4f} s  "
          f"(median of {len(record['setup_samples_s'])} cold processes)")
    print(f"  peak_rss_mib  {record['peak_rss_mib']:.1f} MiB")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  fail_ratio    {ratio:.6f}  ({record['failed']} of {record['attempted']} checks)")
    if trace:
        print(f"  tracing overhead {record['layers']['trace.overhead_s']:.4f} s per pass "
              f"(spans x wrapper cost; traced pass {record['traced_wall_s']:.4f} s, "
              f"{record['spans']['count']} spans)")
    for failure in record["failures"]:
        print("  FAILED " + failure.replace("\n", "\n    "))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="newstein benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared("workloads")])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / (f"result-{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"result": result, "record": record}, indent=1, default=str))
    report(result, record, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
