import argparse
import ast
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import odeint

from loopsphere import cli, curvature, manifold, numerics, radial, resolution, trigpoly


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_random_loop_deterministic_and_on_sphere(tmp_path, capsys):
    code1, out1, _ = run(capsys, ["random-loop", "--k", "3", "--N", "2", "--seed", "7"])
    code2, out2, _ = run(capsys, ["random-loop", "--k", "3", "--N", "2", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical given identical flags and seed
    n, radius = trigpoly.loop_from_json(out1)
    assert n.degree == 2 and radius == 1.0
    assert trigpoly.sphere_residual(n, radius)[0] < 1e-12
    code3, out3, _ = run(capsys, ["random-loop", "--k", "3", "--N", "2", "--seed", "8"])
    assert out3 != out1


def test_random_loop_degree_statistics():
    hits = 0
    for seed in range(40):
        n = cli.random_loop(2, 3, 1.0, seed)
        assert trigpoly.sphere_residual(n, 1.0)[0] < 1e-12
        hits += n.degree == 3
    assert hits >= 38  # degenerations are measure-zero


def test_check_great_circle(tmp_path, capsys):
    circle = {
        "k": 2,
        "N": 1,
        "R": 1.0,
        "v": [0.0, 0.0, 0.0],
        "a": [[1.0, 0.0, 0.0]],
        "b": [[0.0, 1.0, 0.0]],
    }
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle))
    code, out, _ = run(capsys, ["check", "--input", str(path)])
    assert code == 0
    rec = json.loads(out)
    assert rec["constraint_residual"] == 0.0
    assert rec["stratum"] == "great-circles"


@pytest.mark.parametrize("record, stratum", [
    ({"k": 1, "N": 1, "R": 1.0, "v": [0, 0], "a": [[1, 0]], "b": [[0, 1]]}, "great-circles"),
    ({"k": 3, "N": 0, "R": 1e120, "v": [1e120, 0, 0, 0], "a": [], "b": []}, "point-loops"),
])
def test_check_accepts_loops_without_model_parameters(tmp_path, capsys, record, stratum):
    # A circle-valued loop (k = 1) and a radius whose R^7 overflows: no
    # ModelParams exists for either, and `curvature` and `factorize` take both.
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert (rec["k"], rec["R"], rec["on_sphere"], rec["stratum"]) == (
        record["k"], record["R"], True, stratum)


def test_random_loop_seed_range_is_64_bits(capsys):
    argv = ["random-loop", "--k", "3", "--N", "1"]
    for seed in ("0", str(2**64 - 1)):
        code, out, _ = run(capsys, argv + ["--seed", seed])
        assert code == 0 and out
    # Out of range, a seed used to wrap onto the loop of seed mod 2^64.
    for seed in (str(2**64), "-1"):
        code, out, err = run(capsys, argv + [f"--seed={seed}"])
        assert code == 2 and out == ""
        assert err == f"error: seed must be an integer in [0, 2^64), got {seed}\n"


@pytest.mark.parametrize("argv, limit", [
    (["random-loop", "--k", "2", "--N", str(10**20), "--seed", "1"], "[0, 1000]"),
    (["random-loop", "--k", "3", "--N", str(manifold.N_MAX + 1), "--seed", "1"], "[0, 1000]"),
    (["angular", "--k", "3", "--l", "80", "--s", "80", "--t", "0.5"], "at most 1024"),
    (["angular", "--k", "3", "--l", "160", "--s", "160", "--t", "0.5"], "at most 1024"),
    (["angular", "--k", "3", "--l", str(10**45), "--s", "1", "--t", "0.5"], "at most 1024"),
    (["angular", "--k", "2", "--l", "1024", "--t", "0.5"], "at most 1023"),
    (["angular", "--k", "2", "--l", str(10**12), "--t", "0.5"], "at most 1023"),
])
def test_oversized_requests_exit_2_naming_the_limit_before_any_work(capsys, argv, limit):
    # Refused before any draw or matrix: unbounded, each takes minutes or gigabytes.
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "") and err.count("\n") == 1 and limit in err, err


@pytest.mark.parametrize("k, degree, limit", [
    (2, 11, None), (2, 12, "4N + 1 = 49 constraints; a curvature report takes at most 45"),
    (249, 1, None), (250, 1, "(2N + 1) = 753; a curvature report takes at most 750"),
    (749, 0, None), (750, 0, "(2N + 1) = 751; a curvature report takes at most 750"),
    (5, 11, None), (6, 11, "(2N + 1))^2 = 2.362e+09; a curvature report takes at most 2e+09"),
    (31, 11, "(2N + 1))^2 = 4.936e+10; a curvature report takes at most 2e+09"),
], ids=["N=11", "N=12", "k=249", "k=250", "k=749 N=0", "k=750 N=0", "k=5 N=11", "k=6 N=11",
        "k=31 N=11"])
def test_curvature_refuses_loops_beyond_its_limits_before_any_kernel(tmp_path, capsys, monkeypatch,
                                                                     k, degree, limit):
    # A loop at one limit and far inside the others takes about 30 s; one past
    # any limit is refused before the Hessians are built.  k = 31, N = 11 lies
    # within the first two and took 184 s.
    def no_kernel(*args):
        raise AssertionError("a curvature kernel ran")

    monkeypatch.setattr(curvature, "_hessians", no_kernel)
    # The circle cos(N theta) e0 + sin(N theta) e1, or the point e0 at N = 0.
    e0, e1 = np.eye(k + 1)[:2]
    a, b = np.zeros((degree, k + 1)), np.zeros((degree, k + 1))
    if degree:
        a[-1], b[-1] = e0, e1
    loop = trigpoly.TrigPolyVec(e0 * (degree == 0), a, b)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(trigpoly.loop_to_dict(loop, 1.0)))
    argv = ["curvature", "--input", str(path)]
    if limit is None:
        with pytest.raises(AssertionError, match="kernel ran"):
            cli.main(argv)
    else:
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "") and err.count("\n") == 1 and limit in err, err


def test_check_rejects_off_sphere(tmp_path, capsys):
    bad = {
        "k": 2,
        "N": 0,
        "R": 1.0,
        "v": [2.0, 0.0, 0.0],
        "a": [],
        "b": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, ["check", "--input", str(path)])
    assert code == 3
    assert not json.loads(out)["on_sphere"]


def test_factorize_roundtrip(tmp_path, capsys):
    loop_path = tmp_path / "loop.json"
    rot_path = tmp_path / "rots.json"
    code, _, _ = run(capsys, ["random-loop", "--k", "2", "--N", "3", "--seed", "11",
                              "--output", str(loop_path)])
    assert code == 0
    code, _, _ = run(capsys, ["factorize", "--input", str(loop_path),
                              "--output", str(rot_path)])
    assert code == 0
    rots = json.loads(rot_path.read_text())
    assert len(rots["rotations"]) == 3
    code, out, _ = run(capsys, ["factorize", "--input", str(rot_path)])
    assert code == 0
    rebuilt, radius = trigpoly.loop_from_json(out)
    original, _ = trigpoly.loop_from_json(loop_path.read_text())
    thetas = np.linspace(0, 2 * np.pi, 37, endpoint=False)
    assert np.max(np.abs(rebuilt.eval(thetas) - original.eval(thetas))) < 1e-10
    # The reconstruction passes the constraint check.
    recon_path = tmp_path / "recon.json"
    recon_path.write_text(out)
    code, _, _ = run(capsys, ["check", "--input", str(recon_path)])
    assert code == 0


def test_record_files_are_one_line_of_compact_strict_json(tmp_path, capsys):
    # random-loop and factorize, there and back, write one line of compact
    # JSON holding the library's floats; identical invocations write the same bytes.
    loop = cli.random_loop(6, 8, 1.0, 3)
    rots = resolution.rotations_to_dict(resolution.factorize(loop, 1.0))
    back = trigpoly.loop_to_dict(resolution.compose(resolution.rotations_from_dict(rots)), 1.0)
    steps = [
        ("loop", ["random-loop", "--k", "6", "--N", "8", "--seed", "3"],
         trigpoly.loop_to_dict(loop, 1.0)),
        ("rots", ["factorize", "--input", str(tmp_path / "loop-0.json")], rots),
        ("back", ["factorize", "--input", str(tmp_path / "rots-0.json")], back),
    ]
    for name, argv, expect in steps:
        paths = [tmp_path / f"{name}-{copy}.json" for copy in (0, 1)]
        for path in paths:
            assert run(capsys, [*argv, "--output", str(path)]) == (0, "", "")
        text = paths[0].read_text()
        assert paths[1].read_text() == text
        assert text.endswith("\n") and text.count("\n") == 1 and " " not in text
        assert _strict_json(text) == expect


@pytest.mark.parametrize("argv, tol", [
    (["--k", "5", "--levels", "6"], 1e-6),
    (["--k", "3", "--levels", "3", "--tol", "1e-3"], 1e-3),
])
def test_spectrum_est_error_is_the_residual_that_decides_convergence(capsys, argv, tol):
    code, out, _ = run(capsys, ["spectrum"] + argv)
    rows = json.loads(out)
    converged = max(row["est_error"] for row in rows) <= tol
    assert all(row["converged"] == converged for row in rows)
    assert code == (0 if converged else 3)


def test_gap_classifies_the_right_end_at_large_and_small_R(capsys):
    # The Liouville ends are classified in closed form: R = 10 and 100 meet no
    # "potential pole", and k = 2 at R = 0.5 has the real double exponent 1/2
    # at pi R / 2.
    for argv, expected in (("gap --k 5 --R 10 --levels 2 --tol 1e-3", 0),
                           ("gap --k 5 --R 100 --levels 3 --tol 1e-3", 0),
                           ("gap --k 2 --R 0.5 --levels 2 --tol 1e-3", 3)):
        code, out, err = run(capsys, argv.split())
        assert code == expected and err == "", (argv, err)
        assert json.loads(out)["converged"] == (expected == 0), argv


def test_gap_report_fields(capsys):
    code, out, _ = run(capsys, ["gap", "--k", "5", "--R", "1.0", "--levels", "4"])
    assert code == 0
    rec = json.loads(out)
    for field in ("k", "R", "lambda0", "lambda1", "gap", "bound_12_over_R2",
                  "lavine_paper", "lavine_classical", "convex", "rayleigh_upper"):
        assert field in rec
    assert rec["gap"] == pytest.approx(rec["lambda1"] - rec["lambda0"])


def test_classify_and_frobenius(capsys):
    code, out, _ = run(capsys, ["classify", "--k", "4"])
    assert code == 0
    rows = json.loads(out)
    assert [list(row) for row in rows] == [["endpoint", "kind", "mu1", "mu2", "log_case"]] * 2
    assert [row["kind"] for row in rows] == ["limit-circle", "limit-point"]
    code, out, _ = run(capsys, ["frobenius", "--k", "4"])
    assert code == 0
    assert [list(row) for row in json.loads(out)] == [["endpoint", "mu1", "mu2", "log_case"]] * 2


def test_veff_volume_ricci_angular(capsys):
    code, out, _ = run(capsys, ["veff", "--k", "3", "--R", "1.0", "--tau", "0.5"])
    assert code == 0
    rec = json.loads(out)
    assert "value" in rec and "endpoint_exponents" in rec

    code, out, _ = run(capsys, ["volume", "--k", "3", "--R", "2.0"])
    assert code == 0
    rec = json.loads(out)
    assert rec["relative_deviation"] < 1e-10

    code, out, _ = run(capsys, ["ricci", "--k", "2", "--t", "0.5"])
    assert code == 0
    quantities = [row["quantity"] for row in json.loads(out)]
    assert "variety_scalar" in quantities and "fiber_ricci_ab" in quantities

    code, out, _ = run(capsys, ["angular", "--k", "2", "--l", "2", "--t", "0.25"])
    assert code == 0
    rows = json.loads(out)
    assert sum(r["multiplicity"] for r in rows) == 5


def test_k3_angular_values_scale_as_inverse_radius_squared(capsys):
    # The fiber metric is (R^2/4) times an R-free metric, as at k = 2.
    tables = {}
    for radius in (1, 2):
        code, out, err = run(capsys, ["angular", "--k", "3", "--l", "3", "--s", "1", "--t", "0.3",
                                      "--R", str(radius)])
        assert (code, err) == (0, "")
        tables[radius] = [(row["eigenvalue"] * radius**2, row["multiplicity"])
                          for row in json.loads(out)]
    assert tables[2] == tables[1]


def test_curvature_report(tmp_path, capsys):
    loop_path = tmp_path / "loop.json"
    run(capsys, ["random-loop", "--k", "2", "--N", "1", "--seed", "5",
                 "--output", str(loop_path)])
    code, out, _ = run(capsys, ["curvature", "--input", str(loop_path)])
    assert code == 0
    rec = json.loads(out)
    assert rec["dim"] == 4
    assert rec["scalar_trace_residual"] < 1e-9


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_curvature_of_circle_valued_loop_has_no_leung_bound(tmp_path, capsys, degree):
    # theta -> (cos N theta, sin N theta): a 1-dimensional variety, below the
    # dimension the Leung bound needs.
    path = tmp_path / "loop.json"
    zero = [[0.0, 0.0]] * (degree - 1)
    path.write_text(json.dumps({"k": 1, "N": degree, "R": 1.0, "v": [0.0, 0.0],
                                "a": zero + [[1.0, 0.0]], "b": zero + [[0.0, 1.0]]}))
    code, out, err = run(capsys, ["curvature", "--input", str(path)])
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert (rec["dim"], rec["scalar"], rec["leung_rhs"]) == (1, 0.0, None)
    assert rec["ricci_eigenvalues"] == [0.0]
    assert rec["mean_sq"] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("radius", [1e-60, 1e-100, 1.16e77])
def test_curvature_report_scales_as_inverse_radius_squared(tmp_path, capsys, k, radius):
    loop = cli.random_loop(k, 2, 1.0, 7)
    reports = []
    for scale in (1.0, radius):
        path = tmp_path / f"loop-{scale}.json"
        path.write_text(json.dumps(trigpoly.loop_to_dict(trigpoly.scale(loop, scale), scale)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, ["curvature", "--input", str(path)])
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    unit, scaled = reports
    assert scaled["dim"] == unit["dim"]
    for key in ("scalar", "mean_sq", "ricci_min", "ricci_eigenvalues", "leung_rhs"):
        expect = np.asarray(unit[key]) / radius**2
        assert np.allclose(scaled[key], expect, rtol=1e-10, atol=0.0), key
    for name, term in unit["scalar_terms"].items():
        assert scaled["scalar_terms"][name] == pytest.approx(term / radius**2, rel=1e-10)


def test_check_and_stratum_share_one_on_sphere_tolerance(tmp_path, capsys):
    # Loops stretched to residual 6.0e-10 R^2 (on the sphere, so on the smooth
    # degree-one stratum too) and 1.2e-9 R^2 (off it), and the rotations
    # records of their stretched base points: every command that tests sphere
    # membership gives the one verdict.
    path = tmp_path / "loop.json"
    for radius in (1.0, 3.0):
        unit = cli.random_loop(3, 1, radius, 4)
        rotations = resolution.rotations_to_dict(resolution.factorize(unit, radius))
        for stretch, on_sphere in ((1.0 + 3e-10, True), (1.0 + 6e-10, False)):
            loop = trigpoly.scale(unit, stretch)
            path.write_text(json.dumps(trigpoly.loop_to_dict(loop, radius)))
            code, out, _ = run(capsys, ["check", "--input", str(path)])
            rec = json.loads(out)
            if on_sphere:
                assert 5e-10 < rec["constraint_residual"] / radius**2 < 1e-9
                assert (code, rec["on_sphere"], rec["stratum"]) == (0, True, "smooth")
            else:
                assert 1e-9 < rec["constraint_residual"] / radius**2 < 1.5e-9
                assert (code, rec["on_sphere"], rec["stratum"]) == (3, False, "not-on-variety")
            expect = 0 if on_sphere else 2
            for command in ("factorize", "curvature"):
                code, out, err = run(capsys, [command, "--input", str(path)])
                assert code == expect, (radius, stretch, command, err)
            record = dict(rotations, base=[stretch * x for x in rotations["base"]])
            path.write_text(json.dumps(record))
            code, out, err = run(capsys, ["factorize", "--input", str(path)])
            assert code == expect, (radius, stretch, err)


@pytest.mark.parametrize("record, code, stratum", [
    ({"k": 3, "N": 0, "R": 1.0, "v": [1, 0, 0, 0], "a": [], "b": []}, 0, "point-loops"),
    ({"k": 3, "N": 0, "R": 1.0, "v": [1.5, 0, 0, 0], "a": [], "b": []}, 3, "not-on-variety"),
    ({"k": 1, "N": 1, "R": 1.0, "v": [0, 0], "a": [[1, 0]], "b": [[0, 1]]}, 0, "great-circles"),
    ({"k": 2, "N": 1, "R": 1.0, "v": [0, 0, 0], "a": [[1, 0, 0]], "b": [[0, 2, 0]]}, 3,
     "not-on-variety"),
])
def test_check_computes_the_sphere_residual_once(tmp_path, capsys, monkeypatch, record, code,
                                                 stratum):
    calls = []
    real = trigpoly.sphere_residual

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trigpoly, "sphere_residual", counted)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(record))
    got, out, _ = run(capsys, ["check", "--input", str(path)])
    assert (got, len(calls)) == (code, 1)
    assert list(json.loads(out).items())[-1] == ("stratum", stratum)


def test_compose_refuses_an_off_sphere_base_point(tmp_path, capsys):
    path = tmp_path / "rotations.json"
    path.write_text('{"k": 2, "R": 1.0, "base": [5, 0, 0], "rotations": []}')
    code, out, err = run(capsys, ["factorize", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: loop does not map into the sphere of radius 1.0: largest "
                   "constraint-residual coefficient is 2.400e+01\n")


def test_factorize_refuses_frames_that_compose_off_the_sphere(tmp_path, capsys):
    # Each of the 40 frames has |u|^2 - 1 = |v|^2 - 1 = 9.8e-11, inside the 1e-10
    # gate of a frame, but the loop they compose has a residual of 3.8e-9.
    gen = np.random.default_rng(1)
    frames = [np.linalg.qr(gen.standard_normal((4, 2)))[0].T for _ in range(40)]
    for scale, expect in ((1.0, 0), (1.0 + 4.9e-11, 2)):
        path = tmp_path / "rotations.json"
        path.write_text(json.dumps({"k": 3, "R": 1.0, "base": [1.0, 0.0, 0.0, 0.0], "rotations": [
            {"u": (scale * u).tolist(), "v": (scale * v).tolist()} for u, v in frames]}))
        code, out, err = run(capsys, ["factorize", "--input", str(path)])
        assert code == expect
        if expect:
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: loop does not map into the sphere of radius 1.0: "
                                  "largest constraint-residual coefficient is 3.8")
        else:
            n, radius = trigpoly.loop_from_json(out)
            assert trigpoly.sphere_residual(n, radius)[1]


@pytest.mark.parametrize("k", [-1, 2.7])
def test_rotations_records_need_a_nonnegative_integer_k(tmp_path, capsys, k):
    path = tmp_path / "rotations.json"
    base = [1.0] + [0.0] * int(k)
    path.write_text(json.dumps({"k": k, "R": 1.0, "base": base, "rotations": []}))
    code, out, err = run(capsys, ["factorize", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: malformed rotations record: k = {k} is not a nonnegative integer\n"


_RECORDS = {
    "loop": {"k": 1, "N": 1, "R": 1.0, "v": [0, 0], "a": [[1, 0]], "b": [[0, 1]]},
    "rotations": {"k": 1, "R": 1.0, "base": [1, 0], "rotations": [{"u": [1, 0], "v": [0, 1]}]},
}
_NON_NUMBERS = [("loop", "R", "1.0"), ("loop", "R", True), ("loop", "v", ["0", "0"]),
                ("loop", "a", [[1, "0"]]), ("loop", "b", [[0, True]]),
                ("rotations", "R", "1.0"), ("rotations", "base", ["1", 0]),
                ("rotations", "rotations[0].u", [True, 0]),
                ("rotations", "rotations[0].v", [0, "1"])]


_NON_NUMBER_CASES = [(command, kind, field, value) for kind, field, value in _NON_NUMBERS
                     for command in (("check", "curvature", "factorize") if kind == "loop"
                                     else ("factorize",))]


@pytest.mark.parametrize("command, kind, field, value", _NON_NUMBER_CASES,
                         ids=[f"{c} {k} {f}={json.dumps(v)}" for c, k, f, v in _NON_NUMBER_CASES])
def test_records_take_only_json_numbers(tmp_path, capsys, command, kind, field, value):
    # float() takes a numeric string or a boolean; a record entry must be a JSON number.
    path = tmp_path / "record.json"
    record = copy.deepcopy(_RECORDS[kind])
    path.write_text(json.dumps(record))
    assert run(capsys, [command, "--input", str(path)])[0] == 0
    target, key = (record["rotations"][0], field[-1]) if "." in field else (record, field)
    target[key] = value
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, [command, "--input", str(path)])
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith(f"error: {kind} record field {field} holds "), err


@pytest.mark.parametrize("k", [2, 3, 5, 8])
@pytest.mark.parametrize("radius", ["0.5", "1.0", "3.0"])
def test_veff_inverse_square_coefficients_fix_the_endpoint_exponents(capsys, k, radius):
    code, out, _ = run(capsys, ["veff", "--k", str(k), "--R", radius])
    assert code == 0
    rec = json.loads(out)
    params = manifold.ModelParams(k=k, R=float(radius))
    for key, endpoint in (("0", 0.0), ("pi_R_over_2", math.pi * params.R / 2.0)):
        c = radial.veff_inverse_square(params, endpoint)
        assert rec["inverse_square_coefficients"][key] == c
        for mu in rec["endpoint_exponents"][key]:
            assert mu * (mu - 1.0) == pytest.approx(c, rel=1e-14, abs=1e-14)


def test_classify_and_frobenius_answer_every_k_in_closed_form(capsys):
    # p underflows near t = 1 from k = 43 on; the exponents do not depend on it.
    for k in range(2, manifold.K_MAX + 1):
        at0, at1 = sorted([0.0, (3.0 - k) / 2.0], reverse=True), [0.0, 2.0 - k]
        for command in ("classify", "frobenius"):
            code, out, err = run(capsys, [command, "--k", str(k)])
            assert (code, err) == (0, ""), (command, k, err)
            rows = json.loads(out)
            assert [[row["mu1"], row["mu2"]] for row in rows] == [at0, at1], (command, k)
            assert [row["log_case"] for row in rows] == [k % 2 == 1, True], (command, k)


@pytest.mark.parametrize("argv, fit", [
    ("spectrum --k 20", 6),
    ("spectrum --k 30 --levels 4 --tol 1e-3", 3),
    ("spectrum --k 3 --R 1e-30 --levels 2 --tol 1e-3", 0),
    ("spectrum --k 10 --R 1e10 --levels 2 --tol 1e-3", 0),
    ("spectrum --k 50 --levels 2 --tol 1e-3", 1),
    ("spectrum --k 410 --levels 2 --tol 1e-3", 0),
    ("gap --k 5 --levels 8 --tol 1e-3", 7),
])
def test_coefficients_outside_the_doubles_exit_2_before_any_solve(monkeypatch, capsys, argv, fit):
    # sigma^2 = p (w + |q|) rounds to 0 (or inf at R = 1e10, or meets V_eff's
    # pole at level 8 of gap) on a seed mesh: the shots would divide by zero,
    # fail to bracket, or meet the pole after solving every shallower level.
    def no_work(*args, **kwargs):
        raise AssertionError("solver work started")

    monkeypatch.setattr(radial, "solve_truncated", no_work)
    code, out, err = run(capsys, argv.split())
    assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1, err
    assert f"allow at most {fit}" in err, err


def test_validation_errors(tmp_path, capsys, monkeypatch):
    # Malformed loop JSON names the offending field and exits 2.
    path = tmp_path / "bad.json"
    path.write_text('{"k": 2, "N": 1, "R": 1.0, "v": [0.0], "a": [], "b": []}')
    code, _, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2
    assert err == "error: loop record field v has shape (1,), expected (3,)\n"
    # A loop on S^0 is a point of a 0-dimensional variety.
    path.write_text('{"k": 0, "N": 0, "R": 1.0, "v": [1.0], "a": [], "b": []}')
    code, out, err = run(capsys, ["curvature", "--input", str(path)])
    assert (code, out) == (2, "") and "k >= 1" in err
    # Invalid parameter range.
    code, _, err = run(capsys, ["classify", "--k", "1"])
    assert code == 2
    assert "k" in err
    # A negative representation label is named as such, with or without a
    # weight, before the weight is compared with it.
    for argv in (["angular", "--k", "2", "--l", "-1", "--t", "0.5"],
                 ["angular", "--k", "2", "--l", "-1", "--s", "0", "--t", "0.5"],
                 ["spectrum", "--k", "2", "--l", "-1"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "") and "label l must be a nonnegative integer" in err, (argv, err)
    # Harmonics away from k = 2.
    code, out, err = run(capsys, ["spectrum", "--k", "3", "--l", "1"])
    assert code == 2 and out == "" and "k = 2" in err
    # A solver flag out of range exits 2 naming the value, with no warning.
    for argv, value in (("spectrum --k 3 --neigs 0 --levels 2 --tol 1e-3", "got 0"),
                        ("spectrum --k 3 --neigs -1 --levels 2 --tol 1e-3", "got -1"),
                        ("spectrum --k 3 --levels 2 --tol nan", "got nan"),
                        ("gap --k 5 --levels 2 --tol nan", "got nan")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv.split())
        assert code == 2 and out == "" and caught == [] and len(err.splitlines()) == 1, (argv, err)
        assert value in err, (argv, err)
    # Fewer than two truncation levels, and levels whose deepest truncation
    # (1e-17 of the width from each end at 16) rounds onto an endpoint, are
    # refused before any endpoint is classified or any truncation solved.
    def no_work(*args, **kwargs):
        raise AssertionError("solver work started")

    monkeypatch.setattr(radial, "classify_endpoint", no_work)
    monkeypatch.setattr(radial, "solve_truncated", no_work)
    for argv, value in (("spectrum --k 3 --levels 1 --tol 1e-3", "got 1"),
                        ("gap --k 5 --levels 0 --tol 1e-3", "got 0"),
                        ("spectrum --k 5 --levels 16 --tol 1e-3", "16 truncation levels"),
                        ("gap --k 5 --levels 16 --tol 1e-3", "allows at most 15"),
                        ("spectrum --k 3 --s 4 --levels 2 --tol 1e-3", "--s needs --l")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv.split())
        assert code == 2 and out == "" and caught == [] and len(err.splitlines()) == 1, (argv, err)
        assert value in err, (argv, err)
    monkeypatch.undo()
    # Unknown flags abort argument parsing.
    for argv in (["classify", "--bogus", "3"], ["gap", "--k", "5", "--neigs", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


_REFUSALS = [
    *[([command, "--input", path], message) for command in ("check", "curvature", "factorize")
      for path, message in (("missing.json", "No such file or directory"), (".", "Is a directory"))],
    (["angular", "--k", "3", "--l", "1", "--t", "0.5"], "require both --l and --s"),
    (["angular", "--k", "3", "--l", "1", "--s", "1", "--t", "1e-300", "--R", "1e-40"],
     "a value overflows a double: k = 3 angular eigenvalues at t = 1e-300, R = 1e-40"),
    (["spectrum", "--k", "2", "--l", "1", "--s", "2"], "weight |s| = 2 exceeds l = 1"),
    # An object holding `base` is read as a rotations record, whose missing field is named.
    (["factorize", "--input", "base-only.json"],
     "error: malformed rotations record: 'rotations'\n"),
]


@pytest.mark.parametrize("argv, message", _REFUSALS, ids=[" ".join(a) for a, _ in _REFUSALS])
def test_refused_requests_exit_2_on_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    # An unreadable --input (the OSError branch of `cli._run`), and requests
    # each handler refuses before any solve.  A message that starts with
    # `error: ` is the whole line.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base-only.json").write_text('{"k": 2, "R": 1.0, "base": [1, 0, 0]}')
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and err.count("\n") == 1 and err.startswith("error: "), err
    assert err == message if message.startswith("error: ") else message in err, err


@pytest.mark.parametrize("command", ["check", "curvature", "factorize"])
def test_record_commands_refuse_text_that_is_not_json_alike(command):
    # JSON nested past the parser's recursion limit is refused as a syntax error is.
    for text, reason in (("not json\n", "Expecting value: line 1 column 1 (char 0)\n"),
                         ("[" * 10**5 + "]" * 10**5, "maximum recursion depth exceeded")):
        code, out, err, caught = _main_on_stdin([command, "--input", "-"], text)
        assert (code, out, caught) == (2, "", []) and err.count("\n") == 1, err
        assert err.startswith(f"error: invalid JSON: {reason}"), err


def test_cli_start_up_and_non_radial_commands_leave_scipy_unimported():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import loopsphere.cli as cli; "
            "loaded = lambda top: sorted(m for m in sys.modules if m.split('.')[0] == top); "
            "cli.build_parser(); print(loaded('loopsphere'), file=sys.stderr); "
            "assert cli.main(['ricci', '--k', '2', '--t', '0.5']) == 0; "
            "print(loaded('loopsphere'), loaded('scipy'), sep='\\n', file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True)
    start_up, after_ricci, scipy = map(ast.literal_eval, proc.stderr.splitlines())
    # Each command imports the library modules it runs, and only those.
    assert start_up == ["loopsphere", "loopsphere.cli"]
    unused = {f"loopsphere.{name}" for name in ("resolution", "angular", "prng", "radial")}
    assert not unused & set(after_ricci), after_ricci
    assert scipy == []


_SOLVER_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import loopsphere.cli as cli, loopsphere.radial

def solvers():
    return sorted({"scipy.integrate", "scipy.linalg", "scipy.optimize"} & set(sys.modules))

steps = [[None, None, solvers()]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv, code, solvers()])
print(json.dumps(steps))
"""


def test_only_commands_that_solve_load_scipy():
    # scipy.integrate (which loads scipy.linalg and scipy.optimize) costs about
    # 50 MB and half a second of start-up; only a shot or an FD solve needs it.
    src = str(Path(cli.__file__).resolve().parents[1])
    argvs = [["classify", "--k", "3"], ["frobenius", "--k", "5"],
             ["veff", "--k", "3", "--tau", "0.5"], ["volume", "--k", "4", "--R", "1.5"],
             ["angular", "--k", "3", "--l", "3", "--s", "1", "--t", "0.3"],
             ["gap", "--k", "5", "--R", "0.5", "--levels", "3", "--tol", "1e-3"]]
    proc = subprocess.run([sys.executable, "-c", _SOLVER_SCRIPT, src, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120, check=True)
    steps = json.loads(proc.stdout)
    assert steps[0] == [None, None, []]  # after `import loopsphere.radial`
    for argv, code, loaded in steps[1:-1]:
        assert (code, loaded) == (0, []), argv
    assert steps[-1] == [argvs[-1], 0, ["scipy.integrate", "scipy.linalg", "scipy.optimize"]]


# One fresh-process input per `except` branch of `cli.main` but RuntimeError's,
# which no input reaches without patching the solver (see
# test_failed_integration_leg_exits_3).  In-process tests cannot catch a missing
# import on these paths: this module imports every library module first.
@pytest.mark.parametrize("argv, stdin, code, message", [
    (["curvature", "--input", "-"], ("random-loop", 2, 4, 2), 3, "condition number"),
    (["check", "--input", "-"], ("truncated", 3, 2, 7), 2, "invalid JSON"),
    (["factorize", "--input", "-"], ("random-loop", 3, 6, 9), 2, "basis must be orthogonal"),
    (["spectrum", "--k", "1"], None, 2, "k must be an integer >= 2, got 1"),
    (["check", "--input", "missing.json"], None, 2, "No such file or directory"),
    (["angular", "--k", "2", "--l", str(10**400), "--s", "0", "--t", "0.5"], None, 2,
     "a value overflows a double"),
    (["gap", "--k", "2", "--R", "1e60", "--levels", "2", "--tol", "1e-3"], None, 3,
     "is not finite"),
], ids=["near-singular", "truncated", "D1", "bad-k", "missing-file", "overflow", "nan-shot"])
def test_fresh_process_error_paths_exit_on_one_error_line(tmp_path, argv, stdin, code, message):
    src = str(Path(cli.__file__).resolve().parents[1])
    text = None
    if stdin is not None:
        kind, k, degree, seed = stdin
        text = json.dumps(trigpoly.loop_to_dict(cli.random_loop(k, degree, 1.0, seed), 1.0),
                          indent=2)
        if kind == "truncated":
            text = text[: len(text) // 2]
    proc = subprocess.run([sys.executable, "-m", "loopsphere.cli", *argv], input=text,
                          capture_output=True, text=True, timeout=120, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def test_module_entry_point_runs_a_command():
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "loopsphere.cli", "ricci", "--k", "2", "--t", "0.5"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)[-1]["quantity"] == "fiber_ricci_vb"


# One valid argv per subcommand.
_VALID_ARGV = {
    "spectrum": ["--k", "3", "--neigs", "3", "--levels", "4"],
    "gap": ["--k", "5", "--R", "0.5", "--tol", "1e-3"],
    "classify": ["--k", "4"],
    "frobenius": ["--k", "4"],
    "veff": ["--k", "3", "--tau", "0.5"],
    "volume": ["--k", "3", "--R", "2", "--output", "vol.json"],
    "curvature": ["--input", "loop.json"],
    "ricci": ["--k", "2", "--t", "0.5"],
    "angular": ["--k", "2", "--l", "2", "--s", "1", "--t", "0.25"],
    "factorize": ["--input", "-"],
    "check": ["--input", "-"],
    "random-loop": ["--k", "3", "--N", "2", "--seed", "7"],
}


def _parse(parser, argv):
    """(parsed flags or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_every_subcommand_has_a_valid_argv_here():
    assert list(_VALID_ARGV) == list(cli._COMMANDS)
    assert list(_RUNNABLE_ARGV) == list(cli._COMMANDS)
    assert list(_FLAG_EFFECTS) == list(cli._COMMANDS)


@pytest.mark.parametrize("name", list(_VALID_ARGV))
def test_one_subcommand_parser_parses_as_the_full_parser(name, capsys):
    one, full = cli.build_parser(name), cli.build_parser()
    for case in ("valid", "help"):
        argv = _VALID_ARGV[name] if case == "valid" else ["--help"]
        got, want = _parse(one, argv), _parse(full, [name] + argv)
        if case == "valid":
            assert want[0].pop("command") == name and got[2] == ""
        else:
            assert got[0] == 0 and got[1].startswith(f"usage: loopsphere {name} ")
        assert got == want, case
    # An unrecognized option or a missing flag prints this command's usage, not
    # the usage of all twelve, and then one error line.
    required = ", ".join(action.option_strings[0] for action in one._actions if action.required)
    for argv, error in (([name] + _VALID_ARGV[name] + ["--bogus", "3"],
                         "unrecognized arguments: --bogus 3"),
                        ([name], f"the following arguments are required: {required}")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        first, *_, last = err.splitlines()
        assert (exc.value.code, out) == (2, "") and first.startswith(f"usage: loopsphere {name} ")
        assert err.count("error:") == 1 and last == f"loopsphere {name}: error: {error}"
    # The other subcommands are not built.
    assert not any(isinstance(action, argparse._SubParsersAction) for action in one._actions)


# A runnable argv per subcommand that takes well under a second (gap in
# _VALID_ARGV solves seven levels); {loop} and {rotations} name files.
_RUNNABLE_ARGV = {
    "spectrum": "--k 3 --R 2 --neigs 1 --levels 2 --tol 1e-3",
    "gap": "--k 5 --R 0.5 --levels 2 --tol 1e-3",
    "classify": "--k 4",
    "frobenius": "--k 4",
    "veff": "--k 3 --R 2 --tau 0.5",
    "volume": "--k 3 --R 2",
    "curvature": "--input {loop}",
    "ricci": "--k 2 --R 2 --t 0.5",
    "angular": "--k 2 --R 2 --l 2 --s 1 --t 0.25",
    "factorize": "--input {loop} --output {rotations}",
    "check": "--input {loop}",
    "random-loop": "--k 3 --R 2 --N 2 --seed 7 --output {loop}",
}


@pytest.mark.parametrize("name", list(_RUNNABLE_ARGV))
def test_every_parsed_flag_is_read_by_its_handler(tmp_path, name):
    loop, rotations = tmp_path / "loop.json", tmp_path / "rotations.json"
    loop.write_text(json.dumps(trigpoly.loop_to_dict(cli.random_loop(3, 2, 2.0, 7), 2.0)))
    argv = [name] + _RUNNABLE_ARGV[name].format(loop=loop, rotations=rotations).split()
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attr):
            reads.add(attr)
            return super().__getattribute__(attr)

    args = cli.build_parser(name).parse_args(argv[1:], namespace=Recording())
    flags = set(vars(args)) - {"handler"}
    reads.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert args.handler(args) in (cli.EXIT_OK, cli.EXIT_NUMERIC)
    assert flags - reads == set()


# Per subcommand, a runnable argv and, for each optional flag, a value that
# changes its exit code, stdout or --output file; {loop} and {out} name files.
_FLAG_EFFECTS = {
    "spectrum": ("--k 2 --l 1 --levels 2 --tol 0.5",
                 {"--R": "2", "--l": "2", "--s": "1", "--tol": "1e-3", "--levels": "3",
                  "--output": "{out}", "--neigs": "1"}),
    "gap": ("--k 5 --R 0.5 --levels 2 --tol 0.1",
            {"--R": "1", "--tol": "1e-3", "--levels": "3", "--output": "{out}"}),
    "classify": ("--k 4", {"--output": "{out}"}),
    "frobenius": ("--k 4", {"--output": "{out}"}),
    "veff": ("--k 3", {"--R": "2", "--tau": "0.5", "--output": "{out}"}),
    "volume": ("--k 3", {"--R": "2", "--output": "{out}"}),
    "curvature": ("--input {loop}", {"--output": "{out}"}),
    "ricci": ("--k 2 --t 0.5", {"--R": "2", "--output": "{out}"}),
    "angular": ("--k 2 --l 2 --t 0.25", {"--R": "2", "--l": "1", "--s": "1", "--output": "{out}"}),
    "factorize": ("--input {loop}", {"--output": "{out}"}),
    "check": ("--input {loop}", {"--output": "{out}"}),
    "random-loop": ("--k 3 --N 2 --seed 7", {"--R": "2", "--output": "{out}"}),
}


def _optional_flags(name):
    return {action.option_strings[0] for action in cli.build_parser(name)._actions
            if action.option_strings and not action.required and action.dest != "help"}


@pytest.mark.parametrize("name", list(_FLAG_EFFECTS))
def test_every_optional_flag_changes_the_result(tmp_path, capsys, name):
    loop, out = tmp_path / "loop.json", tmp_path / "out.json"
    loop.write_text(json.dumps(trigpoly.loop_to_dict(cli.random_loop(3, 2, 2.0, 7), 2.0)))
    base, changes = _FLAG_EFFECTS[name]
    assert set(changes) == _optional_flags(name)

    def result(argv):
        out.unlink(missing_ok=True)
        code, stdout, _ = run(capsys, [name] + [arg.format(loop=loop, out=out) for arg in argv])
        return code, stdout, out.read_text() if out.exists() else None

    before = result(base.split())
    for flag, value in changes.items():
        argv = base.split()
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        assert result(argv) != before, flag


_REMOVED_FLAGS = [[name, "--k", "3", "--L", "2"]
                  for name in ("spectrum", "gap", "classify", "frobenius", "veff", "volume")]
_REMOVED_FLAGS += [["random-loop", "--k", "2", "--N", "1", "--seed", "1", "--format", "csv"],
                   ["factorize", "--input", "-", "--format", "csv"]]
_REMOVED_FLAGS += [[name, "--k", "3", "--format", "csv"]
                   for name in ("spectrum", "gap", "classify", "frobenius", "veff", "volume")]
_REMOVED_FLAGS += [[name, "--input", "-", "--format", "csv"] for name in ("curvature", "check")]
_REMOVED_FLAGS += [["ricci", "--k", "2", "--t", "0.5", "--format", "csv"],
                   ["angular", "--k", "2", "--l", "2", "--t", "0.25", "--format", "csv"]]
_REMOVED_FLAGS += [[name, "--k", "3", "--R", "2"] for name in ("classify", "frobenius")]


@pytest.mark.parametrize("argv", _REMOVED_FLAGS, ids=" ".join)
def test_removed_flags_are_unrecognized(argv):
    code, out, err = _parse(cli.build_parser(argv[0]), argv[1:])
    last = err.splitlines()[-1]
    assert (code, out) == (2, "")
    assert last == f"loopsphere {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}"


def test_main_builds_only_the_invoked_subcommands_parser(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert cli.main(["ricci", "--k", "2", "--t", "0.5"]) == 0
    # The console script calls main() with no arguments.
    monkeypatch.setattr(sys, "argv", ["loopsphere", "classify", "--k", "4"])
    assert cli.main() == 0
    for argv in (["--help"], [], ["bogus"], ["-h", "ricci"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert built == ["ricci", "classify", None, None, None, None]
    capsys.readouterr()


def test_main_builds_each_subcommands_parser_once(capsys):
    cli.build_parser.cache_clear()
    argv = ["ricci", "--k", "2", "--t", "0.5"]
    outs = [run(capsys, argv) for _ in range(2)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_a_parse_leaves_no_flags_for_the_next():
    parser = cli.build_parser("spectrum")
    assert cli.build_parser("spectrum") is parser
    first = parser.parse_args(["--k", "3", "--neigs", "5", "--levels", "4"])
    assert (first.neigs, first.levels) == (5, 4)
    second = parser.parse_args(["--k", "3"])
    assert (second.neigs, second.levels, second.tol, second.l) == (2, 7, 1e-6, None)


def test_failed_parse_and_help_leave_the_next_output_as_a_fresh_process(capsys):
    argv = ["angular", "--k", "2", "--l", "2", "--t", "0.25"]
    src = str(Path(cli.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "loopsphere.cli", *argv], capture_output=True,
                           text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert fresh.returncode == 0 and fresh.stderr == ""
    for bad, code in ((argv + ["--bogus", "3"], 2), (["angular", "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == code
    capsys.readouterr()
    assert run(capsys, argv) == (0, fresh.stdout, "")


def test_volume_answers_alike_from_the_cached_rule(capsys):
    numerics.gauss_legendre.cache_clear()  # the first call builds the rule, the second reuses it
    argv = ["volume", "--k", "3", "--R", "2"]
    first = run(capsys, argv)
    assert first[0] == 0 and run(capsys, argv) == first


_USAGE = """\
usage: loopsphere [-h]
                  {spectrum,gap,classify,frobenius,veff,volume,curvature,ricci,angular,factorize,check,random-loop}
                  ...
"""

_HELP = _USAGE + """
Finite-dimensional loop spaces of round spheres.

positional arguments:
  {spectrum,gap,classify,frobenius,veff,volume,curvature,ricci,angular,factorize,check,random-loop}
    spectrum            radial eigenvalues by shrinking truncations
    gap                 spectral-gap report
    classify            endpoint classification
    frobenius           indicial exponents at both endpoints
    veff                Liouville-form effective potential
    volume              Riemannian volume, quadrature vs closed form
    curvature           curvature report at a loop
    ricci               closed-form Ricci tables
    angular             angular eigenvalues and multiplicities
    factorize           loop <-> plane-rotation factorization
    check               constraint residual and stratum of a loop
    random-loop         seeded random sphere-valued loop

options:
  -h, --help            show this help message and exit
"""


@pytest.mark.parametrize("argv, code, out, err", [
    (["--help"], 0, _HELP, ""),
    ([], 2, "", _USAGE + "loopsphere: error: the following arguments are required: command\n"),
    (["bogus"], 2, "", _USAGE + "loopsphere: error: argument command: invalid choice: 'bogus' "
     "(choose from 'spectrum', 'gap', 'classify', 'frobenius', 'veff', 'volume', 'curvature', "
     "'ricci', 'angular', 'factorize', 'check', 'random-loop')\n"),
], ids=["help", "no command", "unknown command"])
def test_top_level_help_and_command_errors(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("value", [math.nan, -math.inf, 1e300])
def test_non_finite_or_huge_loop_entries_exit_2_naming_the_value(tmp_path, capsys, value):
    loop = cli.random_loop(2, 1, 1.0, 3)
    records = {"loop": trigpoly.loop_to_dict(loop, 1.0),
               "rotations": resolution.rotations_to_dict(resolution.factorize(loop, 1.0))}
    records["loop"]["a"][0][1] = value
    records["rotations"]["rotations"][0]["u"][1] = value
    for name, record in records.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(record))
        commands = ("check", "factorize", "curvature") if name == "loop" else ("factorize",)
        for command in commands:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, [command, "--input", str(path)])
            assert (code, out, caught) == (2, "", []), (command, name, err)
            assert err == f"error: {name} record holds {value!r}; entries must be finite and at " \
                          f"most 2^500 in magnitude\n"


def test_unrepresentable_volume_exits_2_naming_the_value(capsys):
    code, out, err = run(capsys, ["volume", "--k", "200"])
    assert code == 2 and out == ""
    assert "Stiefel volume at k = 200" in err


def test_non_finite_radius_exits_2_without_output(capsys):
    for radius in ("inf", "nan"):
        code, out, err = run(capsys, ["random-loop", "--k", "3", "--N", "2", "--seed", "1",
                                      "--R", radius])
        assert code == 2 and out == ""
        assert "radius" in err
    code, out, err = run(capsys, ["volume", "--k", "3", "--R", "inf"])
    assert code == 2 and out == ""


def test_more_eigenvalues_than_the_fd_seed_holds_exit_2_at_once(capsys):
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["spectrum", "--k", "5", "--neigs", str(10**6), "--levels", "2"])
    assert time.perf_counter() - start < 1.0
    assert (code, out, caught, len(err.splitlines())) == (2, "", [], 1)
    assert "[1, 1498]" in err and "got 1000000" in err


def test_non_finite_output_value_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(manifold, "stiefel_volume", lambda k: float("nan"))
    code, out, err = run(capsys, ["volume", "--k", "3"])
    assert code == 2 and out == ""
    assert "not JSON compliant" in err


def test_failed_integration_leg_exits_3(monkeypatch, capfd):
    # A step budget of one makes every LSODA leg fail.  The failed leg's
    # ODEintWarning is one stderr line, ahead of the error line.
    monkeypatch.setattr(radial, "_MXSTEP", 1)
    code = cli.main(["spectrum", "--k", "3", "--levels", "2"])
    out, err = capfd.readouterr()
    assert code == 3
    assert out == ""
    warning, error = err.splitlines()
    assert warning.startswith("warning: ODEintWarning: Excess work done on this call")
    assert error.startswith("error: Prufer integration failed")


def test_lsoda_step_budget_exits_3_on_one_line(monkeypatch, capfd):
    monkeypatch.setattr(radial, "_NST_BUDGET", 1000)
    code = cli.main(["spectrum", "--k", "3", "--levels", "2"])
    out, err = capfd.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("error: Prufer shooting passed its budget of 1000 LSODA steps")
    assert len(err.splitlines()) == 1


def test_shooting_writes_nothing_to_fd_1_or_2_beyond_cli_output(monkeypatch, capfd):
    # Truncation level 2 starts 1e-4 from each endpoint, so the shooting runs
    # the deep log-distance legs; nothing silences the solver's output.
    starts = []

    def spy(rhs, y0, t, **kwargs):
        starts.append(t[0])
        return odeint(rhs, y0, t, **kwargs)

    monkeypatch.setattr(radial, "odeint", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["spectrum", "--k", "4", "--levels", "3", "--tol", "1e-3"])
    out, err = capfd.readouterr()
    assert code == 0 and err == "" and caught == []
    assert min(starts) < math.log(1e-3)
    rows = json.loads(out)
    assert out.startswith("[") and out.endswith("]\n") and len(rows) == 2


def test_gap_with_stdout_closed_writes_same_json(tmp_path, monkeypatch):
    argv = ["gap", "--k", "5", "--R", "0.5", "--levels", "3", "--tol", "1e-3", "--output"]
    assert cli.main(argv + [str(tmp_path / "open.json")]) == 0
    # A process started with fd 1 closed has sys.stdout set to None.
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(argv + [str(tmp_path / "closed.json")]) == 0
    monkeypatch.undo()
    assert (tmp_path / "closed.json").read_bytes() == (tmp_path / "open.json").read_bytes()


def test_output_file_and_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "vol.json"
    code, out, _ = run(capsys, ["volume", "--k", "2", "--output", str(out_path)])
    assert code == 0 and out == ""
    rec = json.loads(out_path.read_text())
    assert rec["k"] == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--k", "3", "--R", "1e200"],
    ["volume", "--k", "3", "--R", "1e200"],
    ["veff", "--k", "3", "--R", "1e200", "--tau", "1"],
    ["ricci", "--k", "2", "--t", "0.5", "--R", "1e300"],
    ["random-loop", "--k", "3", "--N", "2", "--seed", "1", "--R", "1e300"],
])
def test_unrepresentable_radius_power_exits_2_naming_the_value(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"radius R = {float(argv[argv.index('--R') + 1])!r}" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_random_loop_takes_every_radius_a_loop_record_holds(tmp_path, capsys):
    # R^16 of k = 6 overflows the radial model, but the loop is an ordinary record.
    loop, rots, back = (tmp_path / f"{name}.json" for name in ("loop", "rots", "back"))
    argv = ["random-loop", "--k", "6", "--N", "2", "--seed", "1", "--R", "1e30"]
    assert run(capsys, argv + ["--output", str(loop)]) == (0, "", "")
    code, out, err = run(capsys, ["check", "--input", str(loop)])
    assert (code, err) == (0, "") and json.loads(out)["on_sphere"]
    assert run(capsys, ["factorize", "--input", str(loop), "--output", str(rots)]) == (0, "", "")
    assert run(capsys, ["factorize", "--input", str(rots), "--output", str(back)]) == (0, "", "")
    n, radius = trigpoly.loop_from_json(loop.read_text())
    m, _ = trigpoly.loop_from_json(back.read_text())
    thetas = np.linspace(0.0, 2 * np.pi, 13, endpoint=False)
    assert radius == 1e30 and np.max(np.abs(m.eval(thetas) - n.eval(thetas))) < 1e-11 * radius
    # Out of the record's range, or a loop with an entry above 2^500 (a harmonic
    # of k2-N3-s198 at R = 2^500 reaches 1.06 R).
    for k, degree, seed, value in [(6, 2, 1, 0.0), (6, 2, 1, 2.0**-501), (6, 2, 1, 2.0**501),
                                   (6, 2, 1, math.inf), (6, 2, 1, math.nan),
                                   (2, 3, 198, 2.0**500)]:
        code, out, err = run(capsys, ["random-loop", "--k", str(k), "--N", str(degree),
                                      "--seed", str(seed), f"--R={value!r}"])
        assert (code, out, len(err.splitlines())) == (2, "", 1), (value, err)
        assert err.startswith(f"error: radius R = {value!r} is out of range"), err


def test_remaining_overflow_exits_2_on_one_line(monkeypatch, capsys):
    def overflow(params):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(radial, "classify_endpoints", overflow)
    code, out, err = run(capsys, ["classify", "--k", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=refuse)


_FUZZ_FLOATS = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e-200, 1e200, 1e300, math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["random-loop", "check", "volume", "classify", "frobenius",
                                "veff", "ricci", "angular"]),
       k=st.sampled_from([2, 3]) | st.integers(-1, 12),
       degree=st.integers(-2, 5) | st.integers(manifold.N_MAX + 1, 10**30),
       radius=_FUZZ_FLOATS, t=_FUZZ_FLOATS, tau=st.none() | _FUZZ_FLOATS,
       l=st.none() | st.integers(-2, 4), s=st.none() | st.integers(-3, 4),
       seed=st.integers(0, 2**64 - 1) | st.integers(-2**70, 2**70))
def test_fast_subcommands_exit_documented_codes_with_strict_json(command, k, degree, radius, t,
                                                                  tau, l, s, seed):
    values = {"--k": k, "--N": degree, "--R": radius, "--t": t, "--tau": tau, "--l": l,
              "--s": s, "--seed": seed}
    takes = {
        "random-loop": ("--k", "--N", "--R", "--seed"), "check": (),
        "volume": ("--k", "--R"), "classify": ("--k",), "frobenius": ("--k",),
        "veff": ("--k", "--R", "--tau"), "ricci": ("--k", "--R", "--t"),
        "angular": ("--k", "--R", "--t", "--l", "--s"),
    }

    def argv_for(name):
        # flag=value, so that argparse reads a negative value as a value.
        return [name] + [f"{flag}={values[flag]!r}" for flag in takes[name]
                         if values[flag] is not None]

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = argv_for(command)
        if command == "check":
            # The loop comes from random-loop with the same flags; if that is
            # refused, check reads a file that is not a loop.
            loop_path = f"{tmp}/loop.json"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                if cli.main(argv_for("random-loop") + ["--output", loop_path]) != 0:
                    with open(loop_path, "w") as fh:
                        fh.write("{}")
            argv = ["check", "--input", loop_path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert caught == [], (argv, [str(w.message) for w in caught])
    assert "warning:" not in err.getvalue(), (argv, err.getvalue())
    if out.getvalue():
        _strict_json(out.getvalue())
    if code != 0:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())


@pytest.mark.parametrize("command", ["spectrum", "gap"])
@settings(max_examples=8, deadline=None)
@given(k=st.integers(2, manifold.K_MAX),
       radius=st.floats(math.log(0.1), math.log(100.0)).map(math.exp), neigs=st.integers(1, 2))
@example(k=3, radius=1e-30, neigs=2)  # spectrum: p (w + |q|) underflows on every seed mesh
@example(k=2, radius=1e60, neigs=2)  # V_eff's derivative overflows; gap: every shot is NaN
def test_solver_subcommands_exit_documented_codes_with_strict_json(command, k, radius, neigs):
    argv = [command, f"--k={k}", f"--R={radius!r}", "--levels=2", "--tol=1e-3"]
    if command == "spectrum":
        argv.append(f"--neigs={neigs}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 2, 3) and caught == [], (argv, err.getvalue())
    lines = err.getvalue().splitlines()
    if out.getvalue():
        _strict_json(out.getvalue())
        assert lines == [], (argv, lines)
    else:
        # A failed LSODA leg warns before it raises (gap --k 3 --R 1e-30): its
        # warning line precedes the error line.  No other warning.
        assert code != 0 and lines[-1].startswith("error:"), (argv, lines)
        assert all(line.startswith("warning: ODEintWarning: ") for line in lines[:-1]), argv


_BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0.0, -1.0,
                               -5, 0, 1, 4, 2**63, "x", "3", None, True, [], [[]], {}, [1.0]]
                             ).map(copy.deepcopy)


def _subtrees(node, path):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _subtrees(child, path + (key,))


@st.composite
def _fuzzed_loop_files(draw):
    """A loop (or rotations) record from random-loop, then up to three faults."""
    k = draw(st.sampled_from([2, 3]))
    degree = draw(st.integers(0, 4))
    radius = draw(st.sampled_from([0.5, 1.0, 3.0]))
    loop = cli.random_loop(k, degree, radius, draw(st.integers(0, 2**64 - 1)))
    record = trigpoly.loop_to_dict(loop, radius)
    if draw(st.booleans()):
        try:
            record = resolution.rotations_to_dict(resolution.factorize(loop, radius))
        except ValueError:  # known factorization defects; fuzz the loop instead
            pass
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 9)) == 0:
            record = draw(_BAD_VALUES)  # not an object at all
        if not isinstance(record, dict) or not record:
            break
        key = draw(st.sampled_from(sorted(record)))
        path = draw(st.sampled_from(list(_subtrees(record[key], (key,)))))
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        node = parent[path[-1]]
        action = draw(st.sampled_from(["delete", "replace", "scale", "append"]))
        if action == "delete":
            del parent[path[-1]]  # a missing key, or a ragged or short stack
        elif action == "replace":
            parent[path[-1]] = draw(_BAD_VALUES)
        elif action == "scale" and isinstance(node, (int, float)) and not isinstance(node, bool):
            parent[path[-1]] = node * draw(st.sampled_from([1.5, 1.0 + 1e-6, -1.0, 1e300]))
        elif action == "append" and isinstance(node, list):
            node.append(copy.deepcopy(node[-1]) if node else 0.0)
    return record


@settings(max_examples=60, deadline=None)
@given(record=_fuzzed_loop_files())
def test_loop_file_commands_exit_documented_codes_on_fuzzed_files(record):
    # NaN and infinite coefficients reach the file as JSON's NaN and Infinity
    # tokens, which json.loads reads.
    text = json.dumps(record)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/loop.json"
        with open(path, "w") as fh:
            fh.write(text)
        for command in ("check", "factorize", "curvature"):
            argv = [command, "--input", path]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
            assert code in (0, 2, 3), (argv, text, err.getvalue())
            # A warning would be one more line on a command's standard error.
            assert caught == [], (argv, text, [str(w.message) for w in caught])
            if code == 0 or (command == "check" and code == 3 and out.getvalue()):
                # Success, or the check's report of a loop off the sphere.
                assert err.getvalue() == "", (argv, text, err.getvalue())
                report = _strict_json(out.getvalue())
                assert code == 0 or report["on_sphere"] is False, (argv, text)
            else:
                assert out.getvalue() == "", (argv, text, out.getvalue())
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, text, lines)


def _main_on_stdin(argv, text):
    """(exit code, stdout, stderr, warnings) of `cli.main(argv)` with `text` on stdin.

    The warnings are those that reach the caller and the `warning:` lines on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught, \
            pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("always")
        patch.setattr(sys, "stdin", io.StringIO(text))
        code = cli.main(argv)
    warned = [line for line in err.getvalue().splitlines() if line.startswith("warning:")]
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught] + warned


@pytest.mark.parametrize("k, degree, seed", [(2, 1, 1), (3, 2, 7), (3, 4, 0), (4, 3, 2),
                                             (2, 3, 1)])
def test_loop_files_below_the_radius_floor_exit_2_naming_the_radius(k, degree, seed):
    # Scaled whole, these loops stay on their spheres.  Below 2^-500, R^2 is
    # subnormal or 0: `check` found them off the sphere from R = 1e-156, and
    # from 1e-162 the trim dropped every harmonic, so `check` and `factorize`
    # answered for a constant loop.
    loop = cli.random_loop(k, degree, 1.0, seed)
    rotations = resolution.rotations_to_dict(resolution.factorize(loop, 1.0))
    for radius in (1e-156, 1e-158, 1e-162, 1e-200, 2.0**-501):
        record = trigpoly.loop_to_dict(trigpoly.scale(loop, radius), radius)
        scaled = {**rotations, "R": radius, "base": [radius * x for x in rotations["base"]]}
        for command, rec in [("check", record), ("factorize", record), ("curvature", record),
                             ("factorize", scaled)]:
            name = "rotations" if "rotations" in rec else "loop"
            result = _main_on_stdin([command, "--input", "-"], json.dumps(rec))
            assert result == (2, "", f"error: {name} record has radius R = {radius!r}; R must be "
                                     f"at least 2^-500, so that R^2 is a normal double\n", [])
    # At the floor itself every command answers.
    text = json.dumps(trigpoly.loop_to_dict(trigpoly.scale(loop, 2.0**-500), 2.0**-500))
    results = {command: _main_on_stdin([command, "--input", "-"], text)
               for command in ("check", "factorize", "curvature")}
    assert all(r[0] == 0 and r[2:] == ("", []) for r in results.values()), results
    report = json.loads(results["check"][1])
    assert (report["N"], report["on_sphere"]) == (degree, True)


def test_curvatures_beyond_the_doubles_exit_2_on_one_line():
    # k4-N3-s7 has curvatures of order 1e11 at R = 1, so of order 1e312 at
    # R = 2^-500, where numpy's overflow warnings used to precede the error.
    radius = 2.0**-500
    loop = trigpoly.scale(cli.random_loop(4, 3, 1.0, 7), radius)
    text = json.dumps(trigpoly.loop_to_dict(loop, radius))
    code, out, err, caught = _main_on_stdin(["curvature", "--input", "-"], text)
    assert (code, out, caught) == (2, "", [])
    assert err.startswith(f"error: radius R = {radius!r} is out of range: a curvature of ")
    assert err.endswith(" / R^2 cannot be represented as a double\n") and err.count("\n") == 1


# Radii across the range a loop file may hold: from 2^-500 up to 2^498, where
# the entries of a loop, at most sqrt(2) R, stay below 2^500.  Powers of two
# scale exactly, so a command at radius R reads the R = 1 loop bit for bit and
# any difference comes from the scale itself.  A scale with a mantissa rounds
# each entry once, and the closed curvature route (D2, ROADMAP item 1) turns
# that ulp into 1e-7 to 1.3e-6 relative on Sc for 3 of 150 random loops, at
# Gram condition numbers of 9e5 to 6e7, and into 170 % on k2-N4-s8 (3e10).
_RADII = st.integers(-500, 498).map(lambda e: 2.0**e)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 4), degree=st.integers(0, 4), seed=st.integers(0, 2**64 - 1),
       radius=_RADII | st.sampled_from([2.0**-500, 2.0**498]))
def test_scaled_loops_answer_as_the_unit_loop(k, degree, seed, radius):
    loop = cli.random_loop(k, degree, 1.0, seed)
    texts = {r: json.dumps(trigpoly.loop_to_dict(trigpoly.scale(loop, r), r))
             for r in (1.0, radius)}
    for command in ("check", "factorize", "curvature"):
        results = {r: _main_on_stdin([command, "--input", "-"], text)
                   for r, text in texts.items()}
        (unit_code, unit_out, _, _), (code, out, err, caught) = results[1.0], results[radius]
        assert code in (0, 2, 3) and caught == [], (command, err, caught)
        unit, report = (_strict_json(text) if text else None for text in (unit_out, out))
        if code != 0 and report is None:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
        if command == "curvature" and unit_code == 0:
            # Sc and the other curvatures scale as 1/R^2, which leaves the
            # doubles near the smallest radii for a strongly curved loop.
            values = [unit["scalar"], unit["mean_sq"], *unit["ricci_eigenvalues"],
                      unit["leung_rhs"] or 0.0, *unit["scalar_terms"].values()]
            if max(map(abs, values)) > sys.float_info.max * radius**2:
                assert code == 2 and "cannot be represented as a double" in err, err
                continue
        assert code == unit_code, (command, err)
        if command == "check":
            assert (report["N"], report["on_sphere"]) == (unit["N"], unit["on_sphere"])
        elif command == "curvature" and code == 0:
            assert report["scalar"] * radius**2 == pytest.approx(unit["scalar"], rel=1e-8)
        elif command == "factorize" and code == 0:
            back = _main_on_stdin(["factorize", "--input", "-"], out)
            assert back[0] == 0, back
            n, r = trigpoly.loop_from_json(back[1])
            expect = trigpoly.scale(loop, radius)
            assert r == radius and n.degree == expect.degree
            for got, want in ((n.v, expect.v), (n.a, expect.a), (n.b, expect.b)):
                assert np.abs(got - want).max(initial=0.0) <= 1e-10 * radius
