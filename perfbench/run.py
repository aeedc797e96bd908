"""Benchmark of kerrpurify.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Workloads are defined, each
with its reason, in ``workloads.py``.  Operations run in a closed loop,
one at a time, for S seconds.

--trace 0 measures with tracing off.  The JSON result holds:
  setup_s             set-up time at the nominal host speed: the median over
                      SETUP_RUNS fresh interpreters, started one at a time
                      between slices of the timed loop, of the time from
                      ``import kerrpurify`` to the end of the workload's first
                      operation, divided by the reference latency around it
                      (the mean of the median of SETUP_REFS runs of the
                      ``objects`` reference task just before the child starts
                      and of SETUP_REFS runs in the child right after its
                      set-up), times reference.OBJECTS_NOMINAL_S
  op_p50_ref          median operation latency in reference units: each latency
                      divided by the mean latency of the reference task run just
                      before and just after it (see reference.py)
  throughput_per_ref  work units per reference unit, from the median of each
                      operation kind: grid points (param_sweep), studies
                      (fresh_angles) or MC trials (mc_stream)
  peak_mb             the largest tracemalloc peak of one operation, over one
                      whole cycle of operation kinds run after the timed loop,
                      each started after a full garbage collection
Wall-clock figures are printed above it: the set-up times in seconds,
points_per_s, configs_per_s or trials_per_s, op_p50_ms, op_tail_ms (the
highest percentile with ten samples beyond it, with that percentile and the
sample count) and error_rate.  They are not in the JSON because host speed
changes make them vary by up to 40% between runs; the reference ratios
repeat within a few percent.

--trace 1 runs the operations with every layer wrapped (see tracer.py),
then replays them untraced, and reports per-operation counts and self times
plus the tracing overhead (traced minus untraced time).

Every operation is checked.  ``failed`` counts operations that raised or
failed any check, and ``correct`` is true only when none did.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
SETUP_REFS = 5
TAIL_BEYOND = 10


class Runner:
    """Generates, runs and checks the operations of one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        # imported here, not at the top: setup children time the first import
        import ops
        import reference

        self.ops = ops
        self.reference = reference
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self._files = 0

    def next_op(self) -> dict:
        op = workloads.make_op(self.workload.name, self.seed, self.next_index)
        self.next_index += 1
        return op

    def execute(self, op: dict, measure=contextlib.nullcontext) -> float | None:
        """Run and check one operation; its run time, or None if it raised."""
        self._files += 1
        csv_path = self.workdir / f"op{op['index']}-{self._files}.csv"
        self.attempted += 1
        elapsed = None
        with measure():
            start = time.perf_counter()
            try:
                result = self.ops.run_op(op, csv_path)
                elapsed = time.perf_counter() - start
            except Exception as exc:  # a raising operation is a failed one
                problems = [f"raised {exc!r}"]
        if elapsed is not None:
            try:
                problems = self.ops.check_op(op, result, csv_path)
            except Exception as exc:  # unreadable output fails the operation
                problems = [f"check raised {exc!r}"]
        csv_path.unlink(missing_ok=True)
        if problems:
            self.failed += 1
            self.failures[f"{op['kind']}: {problems[0]}"] += 1
        return elapsed

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def cycles(self, seconds: float, measure=contextlib.nullcontext) -> list:
        """Whole cycles of operation kinds until ``seconds`` have passed, with
        the reference task before the first operation and after each one:
        [(op, latency, mean reference latency around it)] for every operation
        that did not raise."""
        done = []
        before = self.reference.seconds(self.workload.reference)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for _ in self.workload.kinds:
                op = self.next_op()
                elapsed = self.execute(op, measure)
                after = self.reference.seconds(self.workload.reference)
                if elapsed is not None:
                    done.append((op, elapsed, (before + after) / 2))
                before = after
        return done


def by_kind(done: list) -> dict:
    """kind -> (work units of one operation, median latency, median latency
    in reference units)."""
    groups = defaultdict(list)
    for op, elapsed, ref in done:
        groups[op["kind"]].append((workloads.points(op), elapsed, elapsed / ref))
    return {kind: tuple(statistics.median(x[i] for x in v) for i in range(3))
            for kind, v in groups.items()}


def tail(latencies: list) -> tuple:
    """(latency, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@contextlib.contextmanager
def peak_memory(peaks: list):
    gc.collect()  # garbage left by earlier operations would count in the peak
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def median_reference() -> float:
    import reference

    return statistics.median(reference.seconds("objects") for _ in range(SETUP_REFS))


def setup_seconds(workload: str, seed: int) -> tuple:
    """(set-up time of one child, reference latency around it)."""
    before = median_reference()
    child = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-child",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    setup, after = child.stdout.split()[-2:]
    return float(setup), (before + float(after)) / 2


def setup_child(workload: str, seed: int, workdir: Path) -> None:
    op = workloads.make_op(workload, seed, 0)
    start = time.perf_counter()
    import kerrpurify  # noqa: F401  (the import is what is timed)
    import ops

    ops.run_op(op, workdir / "setup.csv")
    elapsed = time.perf_counter() - start
    print(elapsed, median_reference())


def end_to_end(runner: Runner, seconds: float, lines: list) -> dict:
    runner.execute(runner.next_op())  # the first operation, timed by setup_s only
    # one set-up child before each slice of the loop, so that set-up samples
    # the same spells of host speed as the operations do
    setups, done = [], []
    for _ in range(SETUP_RUNS):
        setups.append(setup_seconds(runner.workload.name, runner.seed))
        done += runner.cycles(seconds / SETUP_RUNS)
    peak_mb = {}
    for _ in runner.workload.kinds:
        op, peak = runner.next_op(), []
        runner.execute(op, lambda: peak_memory(peak))
        peak_mb[op["kind"]] = peak[0] / 1e6
    latencies = [elapsed for _, elapsed, _ in done]
    ratios = [elapsed / ref for _, elapsed, ref in done]
    kinds = by_kind(done)
    work = sum(p for p, _, _ in kinds.values())
    tail_ms, tail_pct = tail(latencies)
    tail_ref, _ = tail(ratios)
    lines += [f"setup runs: {' '.join(f'{s:.4f}' for s, _ in setups)} s, "
              f"{' '.join(f'{s / r:.4g}' for s, r in setups)} ref",
              f"{runner.workload.unit}_per_s = "
              f"{work / sum(t for _, t, _ in kinds.values()):.6g} 1/s",
              f"op_p50_ms = {1e3 * statistics.median(latencies):.6g} ms",
              f"op_tail_ms = {1e3 * tail_ms:.6g} ms = {tail_ref:.6g} ref "
              f"(p{tail_pct:.1f} of n={len(latencies)} operations)",
              f"reference {runner.workload.reference} p50 = "
              f"{1e3 * statistics.median(ref for _, _, ref in done):.6g} ms"]
    lines += [f"{kind} p50 = {1e3 * t:.6g} ms = {r:.6g} ref for {p:g} {runner.workload.unit}, "
              f"peak {peak_mb[kind]:.6g} MB"
              for kind, (p, t, r) in kinds.items()]
    setup_ref = statistics.median(s / r for s, r in setups)
    return {
        "setup_s": (setup_ref * runner.reference.OBJECTS_NOMINAL_S, "s"),
        "op_p50_ref": (statistics.median(ratios), "ref"),
        "throughput_per_ref": (work / sum(r for _, _, r in kinds.values()), "1/ref"),
        "peak_mb": (max(peak_mb.values()), "MB"),
    }


def per_layer(runner: Runner, seconds: float, lines: list) -> dict:
    from tracer import Tracer

    runner.execute(runner.next_op())
    tracer = Tracer()

    @contextlib.contextmanager
    def recording():
        tracer.recording = True
        try:
            yield
        finally:
            tracer.recording = False

    with tracer:
        traced = runner.cycles(seconds / 2, recording)
    untraced = [runner.execute(op) for op, _, _ in traced]
    n = len(traced)
    metrics = tracer.layer_metrics(n)
    overhead = sum(t for _, t, _ in traced) - sum(t for t in untraced if t is not None)
    metrics["trace.overhead_ms"] = (1e3 * overhead / n, "ms/op")
    spans = BENCH / "out" / f"spans-{runner.workload.name}.npz"
    tracer.write_spans(spans)
    lines.append(f"{len(tracer.spans()['name'])} spans over {n} operations "
                 f"written to {spans.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "kerrpurify" / "__init__.py").is_file():
        print(f"error: no kerrpurify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        if args.setup_child:
            setup_child(args.workload, args.seed, workdir)
            return 0
        runner = Runner(args.workload, args.seed, workdir)
        lines = []
        mode = per_layer if args.trace else end_to_end
        metrics = mode(runner, args.seconds, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = args.workload
    for line in lines:
        print(f"{name}: {line}")
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit}")
    print(f"{name}: error_rate = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} operations failed)")
    for message, count in runner.failures.most_common(5):
        print(f"{name}: {count} x {message}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
