"""dispmax benchmark: run one workload's CLI operations in-process and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Operations are repeated round-robin for about S seconds.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, from one pass
run with layer spans installed (spans.py), followed by untraced
repetitions that give the tracing overhead.  The end-to-end times are CPU
seconds scaled to reference speed: a shared host's load moves wall and CPU
times alike by tens of percent, and a fixed reference computation
(reference.py) sampled in the same run moves with them.

An operation fails on a non-zero exit code, an exception, or output bytes
that differ from the stored digests (committed seed) or from the operation's
first repetition (any other seed).

    python3 perfbench/run.py --record-digests

rewrites digests.json from one pass of every workload at the committed seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread, set before numpy loads (reference.py loads it): the
# two cores are shared with other tenants, and no workload spends measurable
# time in BLAS.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import reference  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_REPS = 5
# CPU seconds of the import, then one reference sample (see reference.py).
SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.process_time(); "
    "import dispmax.cli; t = time.process_time() - t; "
    "import reference; print(t, reference.sample())"
)

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def at_reference_speed(cpu_s: float, reference_s: float) -> float:
    """CPU seconds scaled to a host where a reference sample takes
    reference.NOMINAL_S."""
    return cpu_s * reference.NOMINAL_S / reference_s


def measure_setup(reps: int) -> float:
    """Median CPU seconds, at reference speed, to import dispmax.cli in a
    fresh interpreter.

    One untimed import first writes the bytecode caches, as any earlier
    call of the CLI would have.  Each probe is scaled by a reference sample
    taken in the same interpreter right after the import.
    """
    times = []
    for i in range(reps + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        if i:
            cpu_s, reference_s = map(float, out.stdout.split())
            times.append(at_reference_speed(cpu_s, reference_s))
    return statistics.median(times)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload, seed, ops) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "ops": [" ".join(op.argv) for op in ops],
    }


def digest_dir(path: Path) -> dict:
    if not path.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


class Runner:
    """Runs operations, times them, and checks exit codes and output bytes."""

    def __init__(self, main, ops, work: Path, expected: dict | None):
        self.main = main
        self.ops = ops
        self.work = work
        self.expected = dict(expected or {})  # label -> {file: sha256}
        self.stored = frozenset(self.expected)
        self.wall = {op.label: [] for op in ops}
        self.cpu = {op.label: [] for op in ops}
        self.reference = []  # a reference sample before every operation
        self.attempted = 0
        self.failed = 0
        self.configs = {}
        for op in ops:
            if op.config:
                path = work / f"{op.label}.cfg"
                path.write_text(op.config)
                self.configs[op.label] = ("--config", str(path))

    def run(self, op, main=None) -> float:
        """Runs one operation and returns the CPU seconds the process spent
        on it.  On a shared host the wall time also holds the time this
        process waited for a CPU behind other tenants; the CPU time does
        not.  A reference sample is taken just before."""
        out = self.work / op.label
        shutil.rmtree(out, ignore_errors=True)
        argv = [*op.argv, *self.configs.get(op.label, ()), "--out", str(out)]
        err = io.StringIO()
        self.attempted += 1
        self.reference.append(reference.sample())
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = (main or self.main)(argv)
        except Exception:  # an operation that raises is counted, not fatal
            rc = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        self.cpu[op.label].append(cpu)
        self.wall[op.label].append(wall)
        problem = None
        if rc != 0:
            problem = f"exit code {rc}"
        else:
            got = digest_dir(out)
            want = self.expected.setdefault(op.label, got)
            if got != want:
                problem = "output bytes differ from " + (
                    "the stored digests" if op.label in self.stored
                    else "the first repetition")
        if problem:
            self.failed += 1
            print(f"perfbench: {op.label} ({' '.join(argv)}): {problem}\n{err.getvalue()}",
                  file=sys.stderr)
        return cpu


def median_sum(samples: dict) -> float:
    """Seconds for one pass: per-operation medians, summed."""
    return sum(statistics.median(v) for v in samples.values())


def run_seconds(runner: Runner, samples: dict) -> float:
    """CPU seconds for one pass at reference speed, against the mean of the
    run's reference samples: the operations' medians span the whole run, and
    so does the mean speed."""
    return at_reference_speed(median_sum(samples), statistics.fmean(runner.reference))


def repeat_until(runner: Runner, start: float, seconds: float, min_ops: int) -> dict:
    """Round-robin over the operations until the next one would end after
    the deadline, as its median wall time so far predicts; returns the new
    CPU times."""
    cpus = {op.label: [] for op in runner.ops}
    for i in itertools.count():
        op = runner.ops[i % len(runner.ops)]
        if i >= min_ops and (time.perf_counter() - start
                             + statistics.median(runner.wall[op.label]) > seconds):
            return cpus
        cpus[op.label].append(runner.run(op))


def run_traced(runner: Runner, seconds: float):
    """Per-layer metrics from one traced pass over the operations.

    An untraced warm-up run of the first operation lets lazy set-up finish
    first; of it only the first call of kernel._psi_sq, which fills its
    table, is spanned.  Untraced repetitions after the traced pass give the
    tracing overhead.
    """
    import spans as sp
    from dispmax import cli, kernel

    tracer = sp.Tracer()
    start = time.perf_counter()
    tracer.install_first_call(kernel, "_psi_sq", "kernel.psi_table")
    try:
        runner.run(runner.ops[0])
    finally:
        tracer.uninstall()

    first = len(tracer.spans)
    traced_main = tracer.wrap("cli.main", cli.main)
    traced, cpu_s, legs = {}, 0.0, {}
    sp.install_layers(tracer)
    try:
        for op_id, op in enumerate(runner.ops):
            tracer.op = op_id
            legs[op_id] = op.leg
            traced[op.label] = runner.run(op, traced_main)
            cpu_s += runner.cpu[op.label][-1]
    finally:
        tracer.uninstall()
    spans = tracer.spans[first:]

    untraced = repeat_until(runner, start, seconds, min_ops=1)

    gap = max(sp.op_self_time_gaps(spans))
    if gap > 1e-6:
        runner.failed += 1
        print(f"perfbench: span self times miss an operation's wall time by {gap:.3g} s",
              file=sys.stderr)
    metrics = sp.pass_metrics(spans, legs, sp.gauss_order())
    both = [label for label, v in untraced.items() if v]
    metrics["kernel.psi_table_s"] = sum(s["end"] - s["start"] for s in tracer.spans
                                        if s["name"] == "kernel.psi_table")
    metrics["trace.overhead_frac"] = (sum(traced[label] for label in both)
                                      / median_sum({label: untraced[label] for label in both})
                                      - 1.0)
    metrics["process.cpu_s"] = cpu_s
    return metrics, tracer, sp.UNITS


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def record_digests(main) -> int:
    table = {}
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, workloads.COMMITTED_SEED)
        work = OUT_DIR / f"record-{os.getpid()}-{name}"
        work.mkdir(parents=True)
        try:
            runner = Runner(main, ops, work, None)
            for op in ops:
                runner.run(op)
            if runner.failed:
                return 1
            table[name] = runner.expected
        finally:
            shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.COMMITTED_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one setup probe, for the self-test")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not args.record_digests and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dispmax" / "cli.py").is_file():
        print(f"perfbench: no dispmax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = None if args.record_digests else measure_setup(1 if args.smoke else SETUP_REPS)
    from dispmax.cli import main as cli_main

    if args.record_digests:
        return record_digests(cli_main)

    ops = workloads.build(args.workload, args.seed, smoke=args.smoke)
    committed = args.seed == workloads.COMMITTED_SEED and not args.smoke
    expected = load_digests().get(args.workload, {}) if committed else {}
    if committed and set(expected) != {op.label for op in ops}:
        print("perfbench: digests.json does not cover this workload's operations",
              file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed, ops)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(cli_main, ops, work, expected)
        if args.trace:
            metrics, tracer, units = run_traced(runner, args.seconds)
            tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                               {"env": env})
        else:
            cpus = repeat_until(runner, time.perf_counter(), args.seconds, len(ops))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"run_s": run_seconds(runner, cpus), "setup_s": setup_s,
                       "peak_rss_mb": rss_mb}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    for label, walls in runner.wall.items():
        print(f"{label}: wall " + " ".join(f"{w:.3f}" for w in walls) + " s; CPU "
              + " ".join(f"{c:.3f}" for c in runner.cpu[label]) + " s")
    print(f"reference: mean {statistics.fmean(runner.reference):.4f} CPU s over "
          f"{len(runner.reference)} samples (nominal {reference.NOMINAL_S} s)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    print(result_line(runner.failed == 0, runner.attempted, runner.failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
