"""One benchmark process: set up one workload, run its tasks, check them.

``run.py`` starts this script in a fresh interpreter for every set-up
sample and every measured run, so set-up time and peak RSS are cold-process
numbers and no workload's heap leaks into another's.  It prints one JSON
object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs every task of the workload once, in order.  Passes repeat
while the next one is expected to finish within ``--seconds``; there is
always at least one.  With ``--trace 1`` untraced and traced passes
alternate (at least one of each); the layer metrics come from the traced
ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Checker:
    """Counts checks; an exception inside a task counts as one failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"{name}: {detail!r}"[:300])

    def run(self, task, inputs, references) -> None:
        try:
            task(inputs, references, self.check)
        except Exception:
            self.attempted += 1
            self._fail(f"{task.__name__} raised:\n{traceback.format_exc(limit=4)}")


def run_pass(tasks, inputs, references, clock, checker) -> dict:
    raw0, ref0 = time.perf_counter(), clock.now()
    task_s = {}
    for task in tasks:
        t0 = clock.now()
        checker.run(task, inputs, references)
        task_s[task.__name__] = clock.now() - t0
    return {"wall_s": clock.now() - ref0, "raw_wall_s": time.perf_counter() - raw0,
            "task_s": task_s}


def measure(workload: str, seed: int, seconds: float, trace: bool, clock,
            references=None, setup_only: bool = False) -> dict:
    """Set up and run one workload in this process; returns the result record.

    ``clock`` must already run: set-up time counts from its start, which
    ``main`` places before numpy and newstein are imported.
    """
    import spans as tracing
    import workloads
    import newstein

    src = (ROOT / "src").resolve()
    if Path(newstein.__file__).resolve().parent.parent != src:
        raise ImportError(f"newstein imported from {newstein.__file__}, not from {src}")
    setup_fn, tasks = workloads.WORKLOADS[workload]
    references = workloads.REFERENCES if references is None else references

    tracer = tracing.Tracer(clock.now) if trace else None
    originals = tracing.snapshot()
    if tracer:
        tracer.install()
    inputs = setup_fn(seed)
    setup_s = clock.now()
    record = {"setup_s": setup_s}
    if setup_only:
        return record

    checker = Checker()
    passes = []
    start = time.perf_counter()
    while True:
        tracing_this = tracer is not None and len(passes) % 2 == 1
        if tracer:
            if tracing_this:
                tracer.run_id = len(passes)
                tracer.install()
            else:
                tracer.uninstall()
        if not tracing_this:
            tracing.assert_untouched(originals)
        result = run_pass(tasks, inputs, references, clock, checker)
        result["traced"] = tracing_this
        passes.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["raw_wall_s"] for p in passes)
        need_both = tracer is not None and len(passes) < 2
        if not need_both and elapsed + typical > seconds:
            break
    if tracer:
        tracer.uninstall()

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    record.update({
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in untraced),
        "passes": passes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "probes": clock.probes,
        "probe_s": clock.probe_s,
        "environment": environment(workload, seed, [t.__name__ for t in tasks]),
    })
    if tracer:
        layers = tracer.metrics([i for i, p in enumerate(passes) if p["traced"]])
        record["layers"] = layers
        record["traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
        out = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.csv.gz"
        record["spans"] = {"file": str(out.relative_to(ROOT)), "count": tracer.write_spans(out)}
    return record


def environment(workload: str, seed: int, tasks: list[str]) -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload,
        "tasks": tasks,
    }


def main(argv=None) -> int:
    # the clock starts before anything heavy is imported: set-up time is
    # measured from here to the first task
    from clock import ReferenceClock

    clock = ReferenceClock().start()
    try:
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, default=10.0)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--setup-only", action="store_true")
        args = parser.parse_args(argv)
        sys.path.insert(0, str(ROOT / "src"))
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), clock,
                         setup_only=args.setup_only)
    finally:
        clock.stop()
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
