"""Benchmark of the `reversions` library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
One client drives the library from this process as a closed loop: each
operation is an in-process `reversions.cli.main(argv)` call (the iso-pairs
table build calls `reversions.iso.build_partial_iso`), timed on its own,
and its output is checked against a known answer afterwards, outside the
timing.

--trace 0 runs one block of operations untimed as a warm-up, then operations
until S seconds of operation time and at least 100 operations have passed,
and reports the end-to-end metrics.  Their times are in ref seconds: wall
seconds scaled by how fast a fixed reference loop ran around each operation
(see ReferenceLoop); the wall-clock figures go to stderr.  --trace 1
replays a fixed number of operations (set by S and the workload) once
untraced and once traced, and reports the per-layer metrics; the spans go
to .perfbench_out/.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; a summary goes to stderr.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100
SETUP_REPEATS = 7
# Traced operations per second of --seconds: about a third of the baseline
# throughput, so the untraced and the traced replay together fit the run.
TRACE_OPS_PER_S = {"classify-miss": 0.5, "iso-pairs": 1.0, "draw": 4.0}
# The reference loop's time on a host running at reference speed, and how
# much operation time passes between two timings of it.
REF_LOOP_S = 0.010
REF_EVERY_S = 0.25
# Reference timings on each side of an operation that its scale comes from.
REF_WINDOW = 2
# Stderr-only figures next to the declared metrics.
WALL_UNITS = {"ops_per_s": "ops/s", "latency_p50_s": "s", "latency_p90_s": "s",
              "setup_s": "s", "ref_loop_s": "s"}


class BenchError(Exception):
    pass


def load_library() -> None:
    """Import `reversions` from this checkout's src/, never from elsewhere."""
    package = SRC / "reversions"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no library at {package}: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import reversions

    if Path(reversions.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported reversions from {reversions.__file__}, not {package}")


class Tally:
    def __init__(self) -> None:
        self.latencies = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = Counter()
        self.examples = []

    def fail(self, reason: str, detail: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] += 1
        if len(self.examples) < 5:
            self.examples.append(detail)


class ReferenceLoop:
    """A fixed loop of Fraction arithmetic on 200-bit numbers, the kind of
    work the library does, timed between operations (never inside one).

    The shared hosts this runs on change speed by up to 1.7x within
    minutes, and by as much from one second to the next, for every process
    alike.  The loop's time near an operation, against REF_LOOP_S,
    measures the host's speed while that operation ran; `scale_at()` turns
    its wall seconds into ref seconds, the seconds the same work takes on a
    host where the loop takes REF_LOOP_S.  The loop uses only the standard
    library, so no change to `reversions` moves it."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.fractions = [Fraction(rng.getrandbits(200) | 1, rng.getrandbits(200) | 1)
                          for _ in range(16)]
        self.times = []

    def run(self) -> None:
        t0 = time.perf_counter()
        odd = 0
        for _ in range(6):
            for a in self.fractions:
                for b in self.fractions[:8]:
                    odd += (a * b + a - b).numerator & 1
        self.times.append(time.perf_counter() - t0)

    def scale_at(self, index: int) -> float:
        """Ref seconds per wall second around the timing `index`: from the
        median of the REF_WINDOW timings on each side of it and itself."""
        near = self.times[max(0, index - REF_WINDOW):index + REF_WINDOW + 1]
        return REF_LOOP_S / statistics.median(near)


def run_op(op, tally: Tally, tracer=None, index: int = 0) -> None:
    """Time one operation, then check its output outside the timing."""
    patch = tracer.patched(index) if tracer is not None else contextlib.nullcontext()
    tally.attempted += 1
    with patch:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation, counted and reported
            tally.timed_s += time.perf_counter() - t0
            tally.fail(f"{op.kind}: {type(exc).__name__}", f"{op.kind} {exc!r}")
            return
        dt = time.perf_counter() - t0
    tally.timed_s += dt
    if result[0] != 0:
        tally.fail(f"{op.kind}: exit {result[0]}", f"{op.kind} exited {result[0]}")
        return
    try:
        problem = op.check(result)
    except Exception as exc:  # unparseable output is a wrong answer
        problem = f"check raised {exc!r}"
    if problem is not None:
        tally.fail(f"{op.kind}: wrong output", f"{op.kind}: {problem}", wrong=True)
        return
    tally.latencies.append(dt)


def setup(workload: str, seed: int, workdir: Path, import_s: float):
    """Generate the inputs and write the config files SETUP_REPEATS times,
    timing the reference loop before each time; returns the inputs and the
    set-up time (the import plus the median generation) in ref seconds and
    in wall seconds."""
    from workloads import WORKLOADS

    generate = WORKLOADS[workload][0]
    ref, times = ReferenceLoop(), []
    for _ in range(SETUP_REPEATS):
        ref.run()
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        inputs = generate(random.Random(seed), workdir)
        times.append(time.perf_counter() - t0)
    ref.run()
    scaled = [t * ref.scale_at(i) for i, t in enumerate(times)]
    return (inputs, import_s * ref.scale_at(0) + statistics.median(scaled),
            import_s + statistics.median(times))


def timed_run(ops, block: int, seconds: float, setup_s: float):
    """The first block of operations untimed, as a warm-up; then operations
    in schedule order until `seconds` of operation time and MIN_OPS
    operations have passed, with the reference loop timed every REF_EVERY_S
    of operation time.  Each operation's time is scaled by the reference
    timings around it.  Returns the end-to-end metrics and, for stderr, the
    wall-clock ones."""
    warmup, tally, ref = Tally(), Tally(), ReferenceLoop()
    for op in ops[:block]:
        run_op(op, warmup)
    # Per operation: wall seconds with the index of the last reference
    # timing before it, and whether it succeeded.
    timed, succeeded = [], []
    i, next_ref = 0, 0.0
    while tally.timed_s < seconds or tally.attempted < MIN_OPS:
        if tally.timed_s >= next_ref:
            ref.run()
            next_ref += REF_EVERY_S
        timed_s, ok = tally.timed_s, len(tally.latencies)
        run_op(ops[i % len(ops)], tally)
        timed.append((tally.timed_s - timed_s, len(ref.times) - 1))
        succeeded.append(len(tally.latencies) > ok)
        i += 1
    ref.run()
    scaled = [dt * ref.scale_at(j) for dt, j in timed]
    lat = [t for t, ok in zip(scaled, succeeded) if ok] or [sum(scaled) / len(scaled)]
    wall_lat = tally.latencies or [tally.timed_s / tally.attempted]
    wall = {
        "ops_per_s": len(tally.latencies) / tally.timed_s,
        "latency_p50_s": statistics.median(wall_lat),
        "latency_p90_s": _p90(wall_lat),
        "ref_loop_s": statistics.median(ref.times),
    }
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(tally.latencies) / sum(scaled),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": _p90(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, wall, [warmup, tally]


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def traced_run(ops, count: int, spans_path: Path):
    """The first `count` operations once untraced, then once traced; the
    per-layer metrics.  The spans are written to `spans_path`."""
    from spans import Tracer

    plain, traced, tracer = Tally(), Tally(), Tracer()
    for i in range(count):
        run_op(ops[i % len(ops)], plain)
    for i in range(count):
        run_op(ops[i % len(ops)], traced, tracer, i)
    metrics = tracer.metrics()
    # The same operations ran in both passes, so the ratio of their ops/s
    # is the ratio of their times.
    metrics["trace.overhead_ratio"] = traced.timed_s / plain.timed_s
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    return metrics, {}, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TRACE_OPS_PER_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        load_library()
        import workloads
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, setup_s, wall_setup_s = setup(args.workload, args.seed, workdir, import_s)
        block = workloads.WORKLOADS[args.workload][1]
        if args.trace:
            count = block * math.ceil(args.seconds * TRACE_OPS_PER_S[args.workload] / block)
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.tsv"
            metrics, wall, tallies = traced_run(inputs.ops, count, spans_path)
        else:
            metrics, wall, tallies = timed_run(inputs.ops, block, args.seconds, setup_s)
            wall["setup_s"] = wall_setup_s
        problem = workloads.self_check(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 2
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = problem is None and not any(t.wrong for t in tallies)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{failed} failed (failed_ratio {failed / attempted:.4f}), correct={correct}",
          file=sys.stderr)
    for reason, count in sorted(sum((t.reasons for t in tallies), Counter()).items()):
        print(f"  failed {count}x {reason}", file=sys.stderr)
    for detail in [d for t in tallies for d in t.examples][:5]:
        print(f"  e.g. {detail}", file=sys.stderr)
    if problem is not None:
        print(f"  self-check: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}", file=sys.stderr)
    for name, value in wall.items():
        print(f"  wall: {name} = {value:.6g} {WALL_UNITS[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
