"""Tests of the benchmark itself.

    python3 -m pytest bench

They run the quick workload for one round (a few seconds each) and single
cheap jobs; none of them checks a timing.
"""

import copy
import json
import types

import pytest

import jobs
import run
import tracer as tracing
import verify
from tracer import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def lib():
    run.configure_environment()
    return run.Library()


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


def find(job_list, job_id):
    return next(job for job in job_list if job.id == job_id)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, trace, section):
    code = run.main(["--workload", "quick", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    result = result_line(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_perturbed_reference_value_is_a_counted_failure(lib, reference, tmp_path):
    job_list = jobs.build_jobs("spectral", 1, reference["pools"], tmp_path)
    job = find(job_list, "fd-k5-R0.5")
    outcome = jobs.run_job(lib, job)
    assert run.tally([(0.0, [(job, outcome)])], reference) == (1, 0, {}, [])

    perturbed = copy.deepcopy(reference)
    perturbed["jobs"][job.id]["values"]["eigenvalues"][0] *= 1.0 + 2e-8
    attempted, failed, known, unexplained = run.tally([(0.0, [(job, outcome)])], perturbed)
    assert (attempted, failed, known) == (1, 1, {})
    assert unexplained[0][0] == job.id and "deviate" in unexplained[0][1]


def test_known_defect_counts_as_failure_without_making_the_run_incorrect(lib, reference,
                                                                        tmp_path):
    job = find(jobs.build_jobs("quick", 1, reference["pools"], tmp_path), "volume --k 200")
    outcome = jobs.run_job(lib, job)
    attempted, failed, known, unexplained = run.tally([(0.0, [(job, outcome)])], reference)
    if verify.check(job, outcome, reference["jobs"][job.id], reference["loops"]):
        assert (failed, known, unexplained) == (1, {"D3": 1}, [])
    else:  # fixed since the reference was frozen
        assert (failed, unexplained) == (0, [])


def test_defect_job_counts_as_known_only_when_it_fails_the_known_way(lib, reference, tmp_path):
    job = jobs._curvature_job("k2-N3-s6", tmp_path)
    jobs.write_inputs([job], reference["loops"], tmp_path)
    outcome = jobs.run_job(lib, job)
    entry = reference["jobs"][job.id]
    assert entry["defect"] == "D2" and entry["values"]["ricci_eigenvalues"]
    attempted, failed, known, unexplained = run.tally([(0.0, [(job, outcome)])], reference)
    if verify.check(job, outcome, entry, reference["loops"]):
        assert (failed, known, unexplained) == (1, {"D2": 1}, [])
    else:  # fixed since the reference was frozen
        assert (failed, unexplained) == (0, [])

    perturbed = copy.deepcopy(reference)
    perturbed["jobs"][job.id]["values"]["ricci_eigenvalues"][0] += 1e-4
    attempted, failed, known, unexplained = run.tally([(0.0, [(job, outcome)])], perturbed)
    assert (failed, known) == (1, {})
    assert "Ricci eigenvalues deviate" in unexplained[0][1]


def _names(lib):
    """Every attribute of the traced modules and classes, by identity."""
    owners = [lib.cli, lib.radial, lib.manifold, lib.curvature, lib.trigpoly, lib.resolution,
              lib.numerics, lib.angular, lib.prng, lib.curvature.CurvatureContext,
              lib.radial.EffectivePotential, lib.prng.SplitMix64]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_tracing_restores_every_wrapped_name(lib, reference, tmp_path):
    before = _names(lib)
    job = find(jobs.build_jobs("quick", 1, reference["pools"], tmp_path), "volume --k 3 --R 2")
    tracer = Tracer()
    tracer.install(lib)
    try:
        assert lib.cli.main is not before[(id(lib.cli), "main")]
        assert jobs.run_job(lib, job).exit == 0
    finally:
        tracer.restore()
    assert {s[3] for s in tracer.spans} >= {"cli.main", "numerics.integrate",
                                           "manifold.radial_volume_quadrature"}
    assert tracer.counts["manifold.weight_trig"] > 0
    after = _names(lib)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_untraced_run_records_no_spans(lib, reference, tmp_path):
    tracer = Tracer()
    job_list = jobs.build_jobs("quick", 1, reference["pools"], tmp_path)
    jobs.write_inputs(job_list, reference["loops"], tmp_path)
    run.run_round(lib, job_list[:20], {})
    assert tracer.spans == [] and not tracer.counts
    assert not any(getattr(getattr(value, "__code__", None), "co_filename", "") == tracing.__file__
                   for value in _names(lib).values())


def test_missing_name_reads_zero():
    tracer = Tracer()
    tracer._patch(types.ModuleType("loopsphere.radial"), "no_such_function", tracer._timed)
    assert tracer.missing == ["loopsphere.radial.no_such_function"]
    metrics = tracing.layer_metrics([], tracer.counts, 1.0, 1.0)
    assert metrics["radial.mismatch.calls"] == (0, "count")


@pytest.mark.parametrize("workload", ["curvature", "quick"])
def test_seed_changes_loop_inputs_but_not_metric_set(workload, reference, tmp_path):
    first = jobs.build_jobs(workload, 1, reference["pools"], tmp_path)
    second = jobs.build_jobs(workload, 2, reference["pools"], tmp_path)
    assert {job.loop for job in first} != {job.loop for job in second}
    assert len(first) == len(second)
    assert {job.check for job in first} == {job.check for job in second}


def test_seed_does_not_change_metric_names(capsys):
    names = []
    for seed in (5, 6):
        assert run.main(["--workload", "quick", "--seed", str(seed), "--seconds", "0"]) == 0
        names.append(set(result_line(capsys)["metrics"]))
    assert names[0] == names[1]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_reference_covers_every_seed(workload, reference, tmp_path):
    for seed in range(50):
        for job in jobs.build_jobs(workload, seed, reference["pools"], tmp_path):
            assert job.id in reference["jobs"]
            assert not job.loop or job.loop in reference["loops"]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seed_does_not_change_expected_failures_or_refusals(workload, reference, tmp_path):
    """Pools hold only passing loops, so failed / attempted is the same for every seed."""
    def expected(seed):
        entries = [reference["jobs"][job.id]
                   for job in jobs.build_jobs(workload, seed, reference["pools"], tmp_path)]
        return (sorted(e["defect"] for e in entries if e.get("defect")),
                sum(e["exit"][0] != 0 for e in entries))

    assert all(expected(seed) == expected(0) for seed in range(1, 50))
