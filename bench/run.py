"""creditcurves benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: issuer_eod, recovery_scan, cds_hedge, cli_pipeline (see
BENCHMARK.json for why each exists).  One client, one process, closed
loop: each operation starts when the previous one has finished.

``--trace 0`` times operations for S seconds with tracing off and prints
the end-to-end metrics.  ``--trace 1`` runs a fixed list of operations
twice, untraced then traced, and prints the per-layer metrics together
with the tracing overhead; the fixed list makes call counts repeat
exactly at one seed.

Host speed.  On a shared host the CPU speed drifts by tens of percent
over seconds.  Around and during every operation the harness times a
fixed reference kernel that does not touch the program (refprice.py)
and scales the operation's wall time to a host on which that kernel
takes ``REF_NOMINAL_S``.  Raw wall times are printed beside the scaled
ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The package is imported from
``src/``; the program is never installed.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()
# Pin BLAS threads before numpy is imported: the fit solves tiny systems,
# and threads would only add scheduling noise.  Children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("issuer_eod", "recovery_scan", "cds_hedge", "cli_pipeline")
REF_NOMINAL_S = 5e-4
SETUP_REPEATS = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# end-to-end metric -> unit; BENCHMARK.json holds the same names.  An "op"
# is a block: one issuer's pipeline (issuer_eod, cds_hedge, and the five CLI
# calls of cli_pipeline) or one implied_recovery call (recovery_scan).  The
# p50 is the nearest-rank median, so it is always a measured operation and
# does not jump when a run completes one operation more or less.
END_TO_END = {"setup_s": "s", "bonds_per_s": "bonds/s", "op_p50_ms": "ms",
              "peak_rss_mb": "MB"}
# Names of the per-operation statistics printed beside the metrics.
OP_NAMES = {
    "issuer_eod": ("issuer", "ms", 1e3),
    "cds_hedge": ("issuer", "ms", 1e3),
    "recovery_scan": ("scan", "s", 1.0),
    "cli_pipeline": ("invocation", "s", 1.0),
}


class Clock:
    """Times calls and scales wall time to the nominal reference speed.

    The reference kernel runs before and after every call and, from a
    timer signal, every SAMPLE_INTERVAL_S during it; its own time inside
    the call is subtracted.  A call that spans MIN_INSIDE samples or more
    is scaled by their mean.  A shorter call is scaled by the median of
    the samples within WINDOW_S of it: one sample is noisy, while the host
    speed drifts over seconds."""

    SAMPLE_INTERVAL_S = 0.05
    WINDOW_S = 1.0
    MIN_INSIDE = 5

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.sample_times: list[float] = []
        self.samples: list[float] = []
        for _ in range(20):  # let the kernel's own caches settle
            kernel()

    def _sample(self) -> None:
        value = self.kernel()
        self.sample_times.append(time.perf_counter())
        self.samples.append(value)

    def time(self, fn):
        """(result or exception, start, wall seconds) of fn()."""
        self._sample()
        stolen = 0.0

        def sample(signum, frame):
            nonlocal stolen
            begin = time.perf_counter()
            self._sample()
            stolen += time.perf_counter() - begin

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation that raises counts as failed
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - start - stolen
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return result, start, wall

    def scaled(self, start: float, wall: float) -> float:
        lo = bisect.bisect_left(self.sample_times, start)
        hi = bisect.bisect_right(self.sample_times, start + wall)
        if hi - lo < self.MIN_INSIDE:
            lo = bisect.bisect_left(self.sample_times, start - self.WINDOW_S)
            hi = bisect.bisect_right(self.sample_times, start + wall + self.WINDOW_S)
            return wall * REF_NOMINAL_S / statistics.median(self.samples[lo:hi])
        return wall * REF_NOMINAL_S / statistics.fmean(self.samples[lo:hi])


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, or the median when there are too few samples."""
    n = len(values)
    chosen = 50.0
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            chosen = p
    ordered = sorted(values)
    rank = min(n - 1, max(0, int(round(chosen / 100.0 * (n - 1)))))
    return chosen, ordered[rank]


def metadata(seed: int) -> dict:
    import numpy

    files = sorted(f for f in os.listdir(os.path.join(SRC, "creditcurves")) if f.endswith(".py"))
    digest = hashlib.sha256()
    src_lines = 0
    for name in files:
        with open(os.path.join(SRC, "creditcurves", name), "rb") as handle:
            data = handle.read()
        digest.update(name.encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16], "src_lines": src_lines,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed,
        "ref_nominal_s": REF_NOMINAL_S,
    }


def _import_seconds(clock: Clock) -> float:
    """Median scaled time for a fresh interpreter to import the package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    timings = [clock.time(lambda: subprocess.run(
        [sys.executable, "-c", "import creditcurves.cli"], env=env, cwd=ROOT, check=True,
        capture_output=True, timeout=120)) for _ in range(SETUP_REPEATS)]
    return statistics.median(clock.scaled(start, wall) for _, start, wall in timings)


def set_up(name: str, seed: int, clock: Clock):
    """Build the workload SETUP_REPEATS times; return the last one and the
    median scaled set-up time (fresh-interpreter import + generation + warm-up)."""
    from workloads import WORKLOAD_CLASSES

    def build():
        workload = WORKLOAD_CLASSES[name](seed, ROOT)
        workload.prepare()
        workload.warm_up()
        return workload

    timings = []
    for _ in range(SETUP_REPEATS):
        if timings:
            timings[-1][0].close()
        timings.append(clock.time(build))
        if isinstance(timings[-1][0], Exception):
            raise timings[-1][0]
    prepare_s = statistics.median(clock.scaled(start, wall) for _, start, wall in timings)
    return timings[-1][0], _import_seconds(clock) + prepare_s


def _problems(op, out) -> list[str]:
    """What is wrong with an operation's output; empty when it is right."""
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    try:
        return op.check(out)
    except Exception as exc:  # a check that cannot run fails the operation
        return [f"check raised {type(exc).__name__}: {exc}"]


def _summary(records):
    """(failed operations, first problems) from (op, start, wall, problems) records."""
    failed = [(op, found) for op, _, _, found in records if found]
    problems = [f"{op.issuer} {op.label}: {p}" for op, found in failed for p in found[:3]]
    return len(failed), problems


def measure(workload, seconds: float, clock: Clock):
    """Closed loop over whole blocks until `seconds` have passed.  Outputs
    are checked right after each operation, outside its timing, and then
    dropped, so memory does not grow with the number of operations."""
    records = []  # (op, start, wall, problems)
    blocks = []  # (bonds, first record, end record)
    begin = time.perf_counter()
    for block in workload.blocks():
        if records and time.perf_counter() - begin >= seconds:
            break
        first = len(records)
        for op in block.ops:
            out, start, wall = clock.time(op.run)
            records.append((op, start, wall, _problems(op, out)))
        blocks.append((block.bonds, first, len(records)))
    return records, blocks


def end_to_end(name, workload, seconds, clock, setup_s):
    first_op = time.perf_counter() - PROCESS_START
    records, blocks = measure(workload, seconds, clock)
    failed, problems = _summary(records)
    raw = [wall for _, _, wall, _ in records]
    scaled = [clock.scaled(start, wall) for _, start, wall, _ in records]
    block_s = [sum(scaled[i:j]) for _, i, j in blocks]
    who = resource.RUSAGE_CHILDREN if name == "cli_pipeline" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "bonds_per_s": sum(bonds for bonds, _, _ in blocks) / sum(block_s),
        "op_p50_ms": statistics.median_low(block_s) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    op, unit, factor = OP_NAMES[name]
    pct, tail_scaled = tail(scaled)
    _, tail_raw = tail(raw)
    named = {
        f"{op}_p50_{unit}": (statistics.median_low(scaled) * factor, unit),
        f"{op}_tail_{unit}": (tail_scaled * factor, unit),
        f"{op}_tail_percentile": (pct, "%"),
        f"{op}_samples": (len(scaled), "count"),
        f"{op}_p50_raw_{unit}": (statistics.median_low(raw) * factor, unit),
        f"{op}_tail_raw_{unit}": (tail_raw * factor, unit),
        "failed_ratio": (failed / len(records), "ratio"),
        "process_start_to_first_op_raw_s": (first_op, "s"),
        "ref_kernel_median_s": (statistics.median(clock.samples), "s"),
    }
    operations = [[op.issuer, op.label, wall, s]
                  for (op, _, wall, _), s in zip(records, scaled)]
    return records, metrics, named, problems, operations


def traced(name, workload, clock, trace_blocks=None):
    """Run a fixed list of operations untraced, then traced; check both
    afterwards, once the wrappers are gone (CLI checks call the library)."""
    from tracing import Tracer

    blocks = []
    for block in workload.blocks():
        if len(blocks) >= (trace_blocks or workload.trace_blocks):
            break
        blocks.append(block)
    ops = [op for block in blocks for op in block.ops]
    plain = [(op, *clock.time(op.run)) for op in ops]
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        with_trace = []
        for op in ops:
            tracer.issuer = op.issuer
            with_trace.append((op, *clock.time(op.run)))
    finally:
        workload.tracer = None
        tracer.uninstall()
    records = [(op, start, wall, _problems(op, out))
               for op, out, start, wall in plain + with_trace]
    failed, problems = _summary(records)
    metrics = tracer.layer_metrics()

    def scaled_total(timed):
        return sum(clock.scaled(start, wall) for _, _, start, wall in timed)

    metrics["trace.overhead_ratio"] = scaled_total(with_trace) / scaled_total(plain) - 1.0
    startup = getattr(workload, "startup", [])
    if startup:
        metrics["cli.interpreter_s"] = statistics.median(i for i, _, _ in startup)
        metrics["cli.import_s"] = statistics.median(m for _, m, _ in startup)
        metrics["cli.startup_share"] = (sum(i + m for i, m, _ in startup)
                                        / sum(w for _, _, w in startup))
    else:
        for key in ("cli.interpreter_s", "cli.import_s", "cli.startup_share"):
            metrics[key] = 0.0
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}.csv.gz"))
    named = {"operations": (len(ops), "count"), "spans": (len(tracer.spans), "count"),
             "failed_ratio": (failed / len(records), "ratio")}
    operations = [[op.issuer, op.label, wall, clock.scaled(start, wall)]
                  for op, start, wall, _ in records]
    return records, metrics, named, problems, operations


def run(name: str, seed: int, seconds: float, trace: bool, trace_blocks=None) -> dict:
    """One benchmark run; returns the result record (see module docstring)."""
    sys.path.insert(0, SRC)
    from refprice import reference_kernel
    from tracing import PER_LAYER

    clock = Clock(reference_kernel)
    workload, setup_s = set_up(name, seed, clock)
    try:
        if trace:
            records, metrics, named, problems, operations = traced(name, workload, clock,
                                                                   trace_blocks)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            records, metrics, named, problems, operations = end_to_end(
                name, workload, seconds, clock, setup_s)
            units = END_TO_END
    finally:
        workload.close()
    failed = sum(1 for *_, found in records if found)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "named": named,
        "problems": problems[:20],
        "meta": metadata(seed),
        "operations": operations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "creditcurves", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(result, handle, indent=2)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} meta={json.dumps(result['meta'])}")
    for key, entry in result["metrics"].items():
        print(f"{key} {entry['value']!r} {entry['unit']}")
    for key, (value, unit) in result["named"].items():
        print(f"# {key} {value!r} {unit}")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
