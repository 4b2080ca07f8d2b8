"""Job lists of the benchmark workloads and the code that runs one job.

A job is one CLI command run in-process through ``loopsphere.cli.main`` or
one public library call.  Job ids are stable and key the frozen reference,
so that every job a seed can produce has a recorded expected outcome.

The workload seed decides which loop of each (k, N) slot's pool a job uses
and the order of the jobs; the inputs themselves (loop files) come from the
reference, so the program only ever sees the generated inputs.
"""

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

SPECTRAL = "spectral"
CURVATURE = "curvature"
QUICK = "quick"
WORKLOADS = (SPECTRAL, CURVATURE, QUICK)

# Every job must be short enough to run several times within one run: on a
# shared host the CPU speed swings by up to 2x for seconds at a time, and a
# job that runs only once or twice reads the speed of the moments it met.
# So no job takes more than about 2 s, and one round of a workload takes a
# few seconds.
#
# Loops of the pools are random_loop(k, N, R=1, seed) for these seeds.  A
# pool keeps only loops whose jobs pass at the frozen commit (see freeze.py),
# so the seed cannot change how many jobs fail or end refused; the loops that
# show a known defect, or that the code refuses, run as fixed jobs in every
# round instead.  Curvature loops of degree 3 and up are fixed too: their
# cost differs from loop to loop (Jacobi sweeps), which would show as
# seed-to-seed spread.  With (2, 3, 1) among them, job_tail_s falls between
# fixed loops, above every random one.
POOL_SIZE = 4
CURVATURE_SLOTS = [(k, n) for k in (2, 3, 4) for n in (1, 2)]
# (3, 5, 0), (2, 3, 6) and (3, 3, 9) show D2, with routes apart by 7e-7,
# 4e-2 and 3e-5; (2, 4, 2), (2, 4, 5) and (2, 5, 5) are refused as
# near-singular.
CURVATURE_FIXED = ([(k, 3, 0) for k in (2, 3, 4)] + [(2, 3, 1), (2, 4, 0), (3, 4, 0)]
                   + [(3, 5, 0), (2, 3, 6), (3, 3, 9), (2, 4, 2), (2, 4, 5), (2, 5, 5)])
QUICK_SLOTS = [(k, n) for k in (2, 3, 4, 6) for n in range(1, 9)]
# (3, 6, 9), (2, 4, 2) and (4, 8, 3) show D1; (2, 7, 3) shows D5.
QUICK_FIXED = [(3, 6, 9), (2, 4, 2), (4, 8, 3), (2, 7, 3)]

# Spectral jobs solve three truncation levels, not the CLI's default seven:
# `gap --k 5 --R 0.5` at full depth takes 12-19 s.  Three levels run the same
# code (coefficients, V_eff, LSODA shooting, acceleration) at each level.
LEVELS = ("--levels", "3", "--tol", "1e-3")
# Criterion 02 runs all eight (k, R) pairs of k in (2, 3, 5, 6), R in (0.5, 1);
# these two cover each R once, with its truncation a = 1e-3 and the lowest
# ORACLE_COUNT eigenvalues.
ORACLE_CONFIGS = [(2, 0.5), (6, 1.0)]
ORACLE_COUNT = 2
FD_CONFIGS = [(k, r) for k in range(2, 8) for r in (0.5, 0.75, 1.0)]
SPECTRUM_KS = (3, 4)
HARMONIC_CONFIGS = [(1, 0)]
DEGREE_ONE = [(r, t / 10.0) for r in (1.0, 1.25, 1.5) for t in range(1, 10)]


@dataclass(frozen=True)
class Job:
    """One unit of work.

    ``check`` names the comparison in verify.py.  A CLI job has ``argv``; a
    library job has ``call`` and ``args``.  ``output`` is the file a CLI job
    writes with --output (read back after the timed call), ``needs`` the id
    of the job whose output this one reads, and ``loop`` the id of the loop
    this job's result must reproduce.
    """

    id: str
    check: str
    argv: tuple = ()
    call: str = ""
    args: tuple = ()
    output: str = ""
    needs: str = ""
    loop: str = ""


@dataclass
class Outcome:
    """What one job did: exit code (None if it raised), text output, time."""

    exit: int | None
    text: str
    error: str
    seconds: float


def loop_id(k, n, seed):
    return f"k{k}-N{n}-s{seed}"


def _fmt(x):
    return format(x, "g")


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def _spectral_units():
    units = [[Job("gap-k5-R0.5", "gap", argv=("gap", "--k", "5", "--R", "0.5") + LEVELS)]]
    for k in SPECTRUM_KS:
        units.append([Job(f"spectrum-k{k}", "spectrum", argv=("spectrum", "--k", str(k)) + LEVELS)])
    for l, s in HARMONIC_CONFIGS:
        argv = ("spectrum", "--k", "2", "--l", str(l), "--s", str(s)) + LEVELS
        units.append([Job(f"spectrum-k2-l{l}-s{s}", "spectrum", argv=argv)])
    for k, r in ORACLE_CONFIGS:
        units.append([Job(f"oracle-k{k}-R{_fmt(r)}", "oracle", call="oracle", args=(k, r))])
    for k, r in FD_CONFIGS:
        units.append([Job(f"fd-k{k}-R{_fmt(r)}", "fd", call="fd", args=(k, r))])
    units.append([Job("crit01", "crit01", call="crit01")])
    return units


def _curvature_job(lid, tmp):
    return Job(f"curvature-{lid}", "curvature",
               argv=("curvature", "--input", str(tmp / f"{lid}.json")), loop=lid)


def _curvature_fixed_loops():
    return ([loop_id(*fixed) for fixed in CURVATURE_FIXED]
            + [f"deg1-R{_fmt(r)}-t{_fmt(t)}" for r, t in DEGREE_ONE]
            + [f"round-k{k}" for k in range(2, 7)])


def _curvature_units(pools, rng, tmp):
    loops = [loop_id(k, n, rng.choice(pools[f"k{k}-N{n}"])) for k, n in CURVATURE_SLOTS]
    return [[_curvature_job(lid, tmp)] for lid in loops + _curvature_fixed_loops()]


def _chain(k, n, seed, tmp):
    """random-loop -> check -> factorize -> factorize back, on one loop."""
    lid = loop_id(k, n, seed)
    raw = str(tmp / f"rl-{lid}.json")
    rots = str(tmp / f"rot-{lid}.json")
    back = str(tmp / f"back-{lid}.json")
    return [
        Job(f"random-loop-{lid}", "random-loop", loop=lid, output=raw,
            argv=("random-loop", "--k", str(k), "--N", str(n), "--seed", str(seed),
                  "--output", raw)),
        Job(f"check-{lid}", "check", argv=("check", "--input", raw), loop=lid,
            needs=f"random-loop-{lid}"),
        Job(f"factorize-{lid}", "factorize", argv=("factorize", "--input", raw, "--output", rots),
            output=rots, loop=lid, needs=f"random-loop-{lid}"),
        Job(f"compose-{lid}", "compose", argv=("factorize", "--input", rots, "--output", back),
            output=back, loop=lid, needs=f"factorize-{lid}"),
    ]


def _quick_units(pools, rng, tmp):
    units = [_chain(k, n, rng.choice(pools[f"quick-k{k}-N{n}"]), tmp) for k, n in QUICK_SLOTS]
    units += [_chain(k, n, seed, tmp) for k, n, seed in QUICK_FIXED]
    single = []
    for k, t in ((2, 0.25), (2, 0.5), (2, 0.75), (3, 0.5), (4, 0.25)):
        single.append(("ricci", "--k", str(k), "--t", _fmt(t)))
    for extra in (("--k", "2", "--l", "1", "--t", "0.25"), ("--k", "2", "--l", "2", "--t", "0.25"),
                  ("--k", "2", "--l", "2", "--s", "1", "--t", "0.5"),
                  ("--k", "3", "--l", "1", "--s", "1", "--t", "0.3"),
                  ("--k", "3", "--l", "3", "--s", "1", "--t", "0.3")):
        single.append(("angular",) + extra)
    single += [("volume", "--k", str(k), "--R", "2") for k in range(2, 7)]
    single += [("classify", "--k", str(k)) for k in range(2, 9)]
    single += [("frobenius", "--k", str(k)) for k in range(2, 7)]
    single += [("veff", "--k", str(k), "--tau", "0.7") for k in range(3, 7)]
    units += [[Job(" ".join(argv), "table", argv=argv)] for argv in single]
    # Malformed and out-of-range requests.
    off = str(tmp / "off-sphere.json")
    bad = str(tmp / "malformed.json")
    invalid = [
        Job("volume --k 200", "volume-range", argv=("volume", "--k", "200")),
        Job("random-loop --R inf", "invalid",
            argv=("random-loop", "--k", "3", "--N", "2", "--seed", "1", "--R", "inf")),
        Job("random-loop --N -1", "invalid",
            argv=("random-loop", "--k", "3", "--N", "-1", "--seed", "1")),
        Job("check off-sphere", "table", argv=("check", "--input", off)),
        Job("factorize off-sphere", "invalid", argv=("factorize", "--input", off)),
        Job("check malformed", "invalid", argv=("check", "--input", bad)),
        Job("spectrum --k 1", "invalid", argv=("spectrum", "--k", "1")),
        Job("angular --k 5", "invalid", argv=("angular", "--k", "5", "--l", "1", "--t", "0.5")),
        Job("ricci --t 1.5", "invalid", argv=("ricci", "--k", "2", "--t", "1.5")),
    ]
    units += [[job] for job in invalid]
    return units


def build_jobs(workload, seed, pools, tmp):
    """The ordered job list of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    tmp = Path(tmp)
    if workload == SPECTRAL:
        units = _spectral_units()
    elif workload == CURVATURE:
        units = _curvature_units(pools, rng, tmp)
    elif workload == QUICK:
        units = _quick_units(pools, rng, tmp)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(units)
    return [job for unit in units for job in unit]


def all_jobs(workload, pools, tmp):
    """Every job any seed can put in `workload` (the reference must cover them)."""
    tmp = Path(tmp)
    if workload == SPECTRAL:
        units = _spectral_units()
    elif workload == CURVATURE:
        loops = [loop_id(k, n, seed) for k, n in CURVATURE_SLOTS for seed in pools[f"k{k}-N{n}"]]
        units = [[_curvature_job(lid, tmp)] for lid in loops + _curvature_fixed_loops()]
    else:
        units = []
        for i in range(POOL_SIZE):
            pool = {key: [seeds[i]] for key, seeds in pools.items() if key.startswith("quick-")}
            units += _quick_units(pool, random.Random(0), tmp)
    unique = {}
    for unit in units:
        for job in unit:
            unique.setdefault(job.id, job)
    return list(unique.values())


def write_inputs(jobs, loops, tmp):
    """Write the loop files the jobs read, from the reference's loop records."""
    tmp = Path(tmp)
    for job in jobs:
        if job.check == "curvature":
            (tmp / f"{job.loop}.json").write_text(json.dumps(loops[job.loop]))
    off = dict(loops[loop_id(3, 2, 0)])
    off["v"] = [1.5 * x for x in off["v"]]
    (tmp / "off-sphere.json").write_text(json.dumps(off))
    (tmp / "malformed.json").write_text('{"k": 3, "N": 1, "v": [1.0')


def degree_one_loop(radius, t):
    """Degree-one loop of criterion 07: frame = identity in R^3."""
    c = radius * math.sqrt(1.0 - t)
    return {"k": 2, "N": 1, "R": radius, "v": [radius * math.sqrt(t), 0.0, 0.0],
            "a": [[0.0, c, 0.0]], "b": [[0.0, 0.0, c]]}


def round_loop(k):
    """Constant loop at the north pole of the unit k-sphere."""
    return {"k": k, "N": 0, "R": 1.0, "v": [1.0] + [0.0] * k, "a": [], "b": []}


# ---------------------------------------------------------------------------
# Running a job
# ---------------------------------------------------------------------------


def _library_call(lib, job):
    """Run a library job; returns a JSON-ready result."""
    radial, manifold = lib.radial, lib.manifold
    if job.call == "oracle":
        k, r = job.args
        rep = radial.oracle_comparison(manifold.ModelParams(k=k, R=r), a=1e-3,
                                       count=ORACLE_COUNT)
        return {"shooting": [float(x) for x in rep["shooting"]],
                "finite_difference": [float(x) for x in rep["finite_difference"]],
                "max_rel_deviation": float(rep["max_rel_deviation"])}
    if job.call == "fd":
        k, r = job.args
        params = manifold.ModelParams(k=k, R=r)
        lo = manifold.tau_of_t(1e-3, params)
        hi = manifold.tau_of_t(1.0 - 1e-3, params)
        vals = radial.solve_truncated_fd(radial.liouville_problem(params), lo, hi, count=5,
                                         bc=("dirichlet", "dirichlet"), npoints=2000)
        return {"eigenvalues": [float(x) for x in vals]}
    if job.call == "crit01":
        prob = radial.SLProblem(p=lambda t: 1.0, q=lambda t: 0.0, w=lambda t: 1.0,
                                interval=(0.0, 1.0))
        return {"eigenvalues": [float(x) for x in radial.solve_truncated(prob, 0.0, 1.0, count=2)]}
    raise ValueError(f"unknown library call {job.call!r}")


def run_job(lib, job):
    """Run one job, timing only the call into the program."""
    out = io.StringIO()
    err = io.StringIO()
    code = None
    error = ""
    result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if job.argv:
                code = lib.cli.main(list(job.argv))
            else:
                result = _library_call(lib, job)
                code = 0
        except SystemExit as exc:  # argparse rejects flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if result is not None:
        text = json.dumps(result)
    elif job.output and code == 0:
        try:
            text = Path(job.output).read_text()
        except OSError as exc:
            text = ""
            error = error or f"missing output file: {exc}"
    else:
        text = out.getvalue()
    return Outcome(exit=code, text=text, error=error or err.getvalue().strip()[-300:],
                   seconds=seconds)
