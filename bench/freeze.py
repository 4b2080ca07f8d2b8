"""Freeze the benchmark reference: run every job any seed can produce.

    python3 bench/freeze.py [--output bench/reference.json]

Records, for each job id, the expected exit codes and the output values the
checks in verify.py compare.  Where the code at the frozen commit is wrong in
one of the known ways (DEFECTS), the entry records the correct exit code,
any output values the checks compare, the defect, and the pattern of the
reason the defect fails with (verify.FAILS_AS).  A failure of that kind
counts in `failed` without making the run incorrect.  Any other failure
stops the freeze.
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from jobs import (CURVATURE_FIXED, CURVATURE_SLOTS, DEGREE_ONE, POOL_SIZE, QUICK_FIXED,
                  QUICK_SLOTS, WORKLOADS, _chain, _fmt, all_jobs, degree_one_loop, loop_id,
                  round_loop, write_inputs)
from run import OUT, REFERENCE, ROOT, Library, configure_environment, run_round
from verify import FAILS_AS, ROUTE_RTOL, check, strict_json

DEFECTS = {
    "D1": "factorize exits 2 on valid sphere-valued loops: the 1e-10 orthogonality tolerance "
          "in rotation_from_basis is taken relative to the small top harmonic",
    "D2": "curvature exits 0 although its closed and Ricci-trace scalar-curvature routes "
          "disagree beyond 1e-8 relative",
    "D3": "volume --k 200 raises an uncaught OverflowError",
    "D4": "random-loop --R inf emits Infinity/NaN tokens and exits 0",
    "D5": "factorize then compose misses the 1e-10 sup-norm round trip of criterion 09 on "
          "some loops of degree 7 and 8",
}


def _loop_record(lib, k, n, seed):
    loop = lib.cli.random_loop(k, n, 1.0, seed)
    return json.loads(json.dumps(lib.trigpoly.loop_to_dict(loop, 1.0)))


def curvature_pools(lib):
    """Per (k, N) slot, the first POOL_SIZE seeds whose loop is answered with
    agreeing scalar-curvature routes."""
    pools = {}
    for k, n in CURVATURE_SLOTS:
        seeds = []
        seed = 0
        while len(seeds) < POOL_SIZE:
            loop = lib.cli.random_loop(k, n, 1.0, seed)
            try:
                if lib.curvature.scalar_and_mean(loop, radius=1.0).scalar_trace_residual <= ROUTE_RTOL:
                    seeds.append(seed)
            except lib.curvature.NearSingularStratumError:
                pass
            seed += 1
        pools[f"k{k}-N{n}"] = seeds
    return pools


def quick_pools(lib, tmp):
    """Per (k, N) slot, the first POOL_SIZE seeds whose whole chain passes."""
    pools = {}
    for k, n in QUICK_SLOTS:
        seeds = []
        seed = 0
        while len(seeds) < POOL_SIZE:
            lid = loop_id(k, n, seed)
            loops = {lid: _loop_record(lib, k, n, seed)}
            _, results = run_round(lib, _chain(k, n, seed, Path(tmp)), {})
            if all(outcome and not check(job, outcome, {"exit": [0]}, loops)
                   for job, outcome in results if job.check != "check"):
                seeds.append(seed)
            seed += 1
        pools[f"quick-k{k}-N{n}"] = seeds
    return pools


def make_loops(lib, pools):
    ids = [(k, n, s) for k, n in QUICK_SLOTS for s in pools[f"quick-k{k}-N{n}"]] + QUICK_FIXED
    ids += [(k, n, s) for k, n in CURVATURE_SLOTS for s in pools[f"k{k}-N{n}"]]
    ids += CURVATURE_FIXED
    loops = {loop_id(k, n, s): _loop_record(lib, k, n, s) for k, n, s in ids}
    for r, t in DEGREE_ONE:
        loops[f"deg1-R{_fmt(r)}-t{_fmt(t)}"] = degree_one_loop(r, t)
    for k in range(2, 7):
        loops[f"round-k{k}"] = round_loop(k)
    return loops


def _defect(entry, tag):
    return entry | {"defect": tag, "fails_as": FAILS_AS[tag]}


def entry_for(job, outcome, loops):
    """Reference entry of one job from its outcome at the frozen commit."""
    if outcome is None:  # its input was never produced; an answer is still expected
        return {"exit": [0]}
    try:
        data = strict_json(outcome.text) if outcome.text.strip() else None
        strict = True
    except ValueError:
        data, strict = None, False
    if job.check == "volume-range" and outcome.error.startswith("OverflowError"):
        return _defect({"exit": [0, 2]}, "D3")
    if job.check == "invalid" and outcome.exit == 0 and not strict:
        return _defect({"exit": [2]}, "D4")
    if job.check == "factorize" and outcome.exit == 2 and "orthogonal" in outcome.error:
        return _defect({"exit": [0]}, "D1")
    if job.check == "compose" and check(job, outcome, {"exit": [0]}, loops):
        return _defect({"exit": [0]}, "D5")
    if job.check == "curvature" and outcome.exit == 3:
        return {"exit": [3, 0]}
    if job.check == "curvature" and outcome.exit == 0:
        values = {key: data[key] for key in ("scalar", "mean_sq", "dim")}
        values["ricci_eigenvalues"] = sorted(data["ricci_eigenvalues"])
        entry = {"exit": [0], "values": values}
        if data["scalar_trace_residual"] > ROUTE_RTOL:
            return _defect(entry, "D2")
        return entry
    if outcome.exit is None or not strict:
        raise SystemExit(f"freeze: {job.id} failed in an unknown way: {outcome.error}")
    entry = {"exit": [outcome.exit]}
    if job.check in ("spectrum", "gap", "oracle", "fd", "crit01", "table", "check") and data:
        entry["values"] = data
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default=str(REFERENCE))
    args = parser.parse_args(argv)
    configure_environment()
    lib = Library()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    outcomes = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        pools = quick_pools(lib, tmp) | curvature_pools(lib)
        loops = make_loops(lib, pools)
        reference = {"defects": DEFECTS, "pools": pools, "loops": loops, "jobs": {},
                     "frozen_at": commit or "unknown"}
        for workload in WORKLOADS:
            jobs = all_jobs(workload, pools, tmp)
            write_inputs(jobs, loops, tmp)
            _, results = run_round(lib, jobs, {})
            for job, outcome in results:
                reference["jobs"][job.id] = entry_for(job, outcome, loops)
                print(f"{workload:9s} {job.id:40s} exit {outcome and outcome.exit} "
                      f"{reference['jobs'][job.id].get('defect') or ''}", flush=True)
            outcomes += results
    # The frozen record must explain every failure at this commit, each by
    # the way its defect fails.
    for job, outcome in outcomes:
        entry = reference["jobs"][job.id]
        reason = outcome is not None and check(job, outcome, entry, loops)
        if reason and not (entry.get("defect") and re.search(entry["fails_as"], reason, re.S)):
            raise SystemExit(f"freeze: {job.id} fails its own reference: {reason}")
    Path(args.output).write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.output}: {len(reference['jobs'])} jobs, {len(loops)} loops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
