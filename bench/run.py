"""Benchmark of the loopsphere library and CLI.

Usage (from the repository root):

    python3 bench/run.py --workload spectral --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

One process runs the workload's job list in a closed loop, one job at a time,
until `--seconds` have passed (at least one whole round).  Every output is
checked against the frozen reference in reference.json.  Time metrics are
scaled to a fixed host speed, measured between jobs.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones of one extra, traced round.  See README.md next
to this file.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from jobs import WORKLOADS, build_jobs, run_job, write_inputs
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
# setup_s is the median of SETUP_REPEATS fresh interpreters, spread over the
# run between rounds, so that the host's slow and fast spells weigh in it as
# they do in the rounds.
SETUP_REPEATS = 10
# Host speed: between jobs, at most every SPEED_EVERY_S, the run times a fixed
# kernel that does not call the program.  Every time metric is scaled by
# SPEED_REFERENCE_S over the kernel's mean time in the run (see README.md).
SPEED_EVERY_S = 0.05
SPEED_REFERENCE_S = 0.001  # the kernel on a quiet host of the baseline
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import loopsphere.cli as cli; cli.build_parser(); print(time.perf_counter() - t0)"
)


def configure_environment():
    """One BLAS thread, no LOOPSPEC_THREADS pool; returns the settings used."""
    os.environ.pop("LOOPSPEC_THREADS", None)
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREADS} | {"LOOPSPEC_THREADS": None}


class Library:
    """The loopsphere modules, imported from this checkout's src/."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import loopsphere
        from loopsphere import (angular, cli, curvature, manifold, numerics, prng, radial,
                                resolution, trigpoly)

        if Path(loopsphere.__file__).resolve().parent != SRC / "loopsphere":
            raise ImportError(f"loopsphere imported from {loopsphere.__file__}, not {SRC}")
        self.cli, self.radial, self.manifold = cli, radial, manifold
        self.curvature, self.trigpoly, self.resolution = curvature, trigpoly, resolution
        self.numerics, self.angular, self.prng = numerics, angular, prng


def measure_setup():
    """Seconds to import loopsphere.cli (numpy, scipy included) and build the parser."""
    proc = subprocess.run([sys.executable, "-s", "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(lib, jobs, exits, tracer=None, meter=None):
    """Run the job list once; returns (wall seconds, [(job, outcome or None)]).

    `exits` maps job ids to their last exit code; a job whose input job did
    not exit 0 is skipped.
    """
    results = []
    start = time.perf_counter()
    for job in jobs:
        if job.needs and exits.get(job.needs) != 0:
            results.append((job, None))  # its input was never produced
            continue
        if tracer is not None:
            tracer.job = job.id
        outcome = run_job(lib, job)
        results.append((job, outcome))
        exits[job.id] = outcome.exit
        if meter is not None:
            meter.sample()
    return time.perf_counter() - start, results


def _kernel():
    import math

    import numpy as np

    for _ in range(4):
        a = np.arange(32.0)
        sum(math.sin(i) * float((a + i).sum()) for i in range(120))


class SpeedMeter:
    """The host's speed over a run, from a fixed kernel timed between jobs.

    The CPU of a shared host runs at a speed that changes by up to 2x over
    seconds and minutes; the kernel, Python calls and small numpy operations
    like the program's, slows with it.  Each sample is weighted by the time
    since the previous one, so that the mean covers the run evenly.
    """

    def __init__(self):
        self.last = time.perf_counter()
        self.weighted = self.weight = 0.0
        self.samples = 0

    def sample(self):
        """Time the kernel if SPEED_EVERY_S have passed since the last sample."""
        now = time.perf_counter()
        if now - self.last < SPEED_EVERY_S:
            return
        _kernel()
        self.weighted += (time.perf_counter() - now) * (now - self.last)
        self.weight += now - self.last
        self.samples += 1
        self.last = time.perf_counter()

    def mean(self):
        """Time-weighted mean seconds of the kernel."""
        if not self.samples:  # a run too short to sample between its jobs
            self.last -= SPEED_EVERY_S
            self.sample()
        return self.weighted / self.weight


def tail(samples, beyond=10):
    """(value, percentile) of the highest percentile with `beyond` samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def tally(rounds, reference):
    """Check every outcome; returns (attempted, failed, known defects, unexplained)."""
    from verify import check  # imports numpy: after the thread settings

    attempted = failed = 0
    known = Counter()
    unexplained = []
    for _, results in rounds:
        for job, outcome in results:
            if outcome is None:
                continue
            attempted += 1
            entry = reference["jobs"].get(job.id)
            reason = check(job, outcome, entry, reference["loops"])
            if not reason:
                continue
            failed += 1
            defect = entry.get("defect") if entry else None
            if defect and re.search(entry["fails_as"], reason, re.S):
                known[defect] += 1
            else:
                unexplained.append((job.id, reason))
    return attempted, failed, known, unexplained


def latency_metrics(samples):
    """(wall_s, job_p50_s, job_tail_s, tail percentile) from each job's times.

    A job's latency is its mean time over the rounds, and wall_s their sum:
    the mean time of one round.  A mean, not a minimum or a median: on a
    shared host the CPU runs slow most of the time and fast in bursts of a
    few seconds, and the mean moves smoothly with the share of time spent in
    each, where a minimum or a median jumps from one speed to the other.
    """
    latencies = [statistics.fmean(values) for values in samples.values()]
    tail_value, tail_pct = tail(latencies)
    return sum(latencies), statistics.median(latencies), tail_value, tail_pct


def run_workload(workload, seed, seconds, trace):
    """Run one workload; prints the report and returns the exit code."""
    if not (SRC / "loopsphere" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"error: no loopsphere sources under {SRC} or no {REFERENCE.name}", file=sys.stderr)
        return 2
    if workload not in WORKLOADS:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    settings = configure_environment()
    setup = [measure_setup()]
    lib = Library()
    reference = json.loads(REFERENCE.read_text())
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    tracer = traced = None
    try:
        jobs = build_jobs(workload, seed, reference["pools"], tmp)
        write_inputs(jobs, reference["loops"], tmp)
        # Whole rounds only, so that every run checks each job equally often
        # and failed / attempted does not depend on the host's speed.  Each
        # round is checked as it ends and only its times are kept, so that
        # memory does not grow with the number of rounds.
        walls = []
        checks = []
        samples = {}
        exits = {}
        meter = SpeedMeter()
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, results = run_round(lib, jobs, exits, meter=meter)
            walls.append(wall)
            checks.append(tally([(wall, results)], reference))
            for job, outcome in results:
                if outcome is not None:
                    samples.setdefault(job.id, []).append(outcome.seconds)
            due = SETUP_REPEATS * (time.perf_counter() - start) / max(seconds, 1e-9)
            while len(setup) < min(due, SETUP_REPEATS):
                setup.append(measure_setup())
        if trace:
            tracer = Tracer()
            tracer.install(lib)
            try:
                traced = run_round(lib, jobs, exits, tracer=tracer)
            finally:
                tracer.restore()
            checks.append(tally([traced], reference))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())

    attempted = sum(c[0] for c in checks)
    failed = sum(c[1] for c in checks)
    known = sum((c[2] for c in checks), Counter())
    unexplained = [reason for c in checks for reason in c[3]]
    print(f"workload {workload} seed {seed}: {len(walls)} rounds of up to {len(jobs)} jobs"
          f"{' and one traced round' if trace else ''}")
    print(f"round walls (s): {', '.join(f'{w:.3f}' for w in walls)}")
    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(), "threads": settings}
    print(f"environment {json.dumps(env)}")
    print(f"fail_ratio {failed / attempted:.4f} (1) = {failed} failed / {attempted} attempted; "
          f"known defects {dict(sorted(known.items()))}; unexplained {len(unexplained)}")
    for job_id, reason in unexplained[:10]:
        print(f"  unexplained failure {job_id}: {reason}")
    if trace:
        spans_file = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.write(spans_file)
        # Overhead: the traced round's job time over the jobs' untraced times.
        traced_s = sum(o.seconds for _, o in traced[1] if o is not None)
        untraced_s = latency_metrics(samples)[0]
        metrics = layer_metrics(tracer.spans, tracer.counts, traced_s, untraced_s)
        print(f"trace: {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}; "
              f"names missing: {tracer.missing or 'none'}")
    else:
        wall, p50, tail_value, tail_pct = latency_metrics(samples)
        setup_s = statistics.median(setup)
        kernel_s = meter.mean()
        scale = SPEED_REFERENCE_S / kernel_s
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "wall_s": (wall * scale, "s"),
            "job_p50_s": (p50 * scale, "s"),
            "job_tail_s": (tail_value * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"job_tail_s is the p{tail_pct:.1f} latency of the {len(samples)} jobs: "
              f"10 jobs lie beyond it")
        print(f"host speed: the kernel took {kernel_s * 1e3:.3f} ms on average over "
              f"{meter.samples} samples; times are scaled by {scale:.4f} to "
              f"{SPEED_REFERENCE_S * 1e3:g} ms")
        print(f"unscaled: setup_s = {setup_s:.6g} s, wall_s = {wall:.6g} s, "
              f"job_p50_s = {p50:.6g} s, job_tail_s = {tail_value:.6g} s")
        print(f"setup_s is the median of {len(setup)} fresh imports: "
              f"{', '.join(f'{t:.3f}' for t in setup)} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not unexplained, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="spectral, curvature, quick or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    # Each workload in its own process, so set-up and peak memory are its own.
    code = 0
    for workload in ("spectral", "curvature", "quick"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
