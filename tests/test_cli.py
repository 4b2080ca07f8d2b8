import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import ODEintWarning, odeint

from loopsphere import cli, manifold, radial, resolution, trigpoly


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
    assert trigpoly.constraint_residual(n, radius).max_abs_coeff() < 1e-12
    code3, out3, _ = run(capsys, ["random-loop", "--k", "3", "--N", "2", "--seed", "8"])
    assert out3 != out1


def test_random_loop_degree_statistics():
    hits = 0
    for seed in range(40):
        n = cli.random_loop(2, 3, 1.0, seed)
        assert trigpoly.constraint_residual(n, 1.0).max_abs_coeff() < 1e-12
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


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, ["spectrum", "--k", "5", "--levels", "6",
                                "--neigs", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lambda,est_error,converged"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first[1]) > 12  # 17 significant digits
    assert first[3] == "true"


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
    # The endpoint probes scale with the Liouville interval: R = 10 and 100
    # no longer meet a "potential pole", and k = 2 at R = 0.5 reads a real
    # double exponent instead of a complex pair.
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
    code, out, _ = run(capsys, ["classify", "--k", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "endpoint,kind,mu1,mu2,log_case"
    assert "limit-circle" in lines[1] and "limit-point" in lines[2]
    code, out, _ = run(capsys, ["frobenius", "--k", "4", "--format", "csv"])
    assert code == 0
    assert out.startswith("endpoint,mu1,mu2,log_case")


def test_veff_volume_ricci_angular(capsys):
    code, out, _ = run(capsys, ["veff", "--k", "3", "--R", "1.0", "--tau", "0.5"])
    assert code == 0
    rec = json.loads(out)
    assert "value" in rec and "endpoint_exponents" in rec

    code, out, _ = run(capsys, ["volume", "--k", "3", "--R", "2.0"])
    assert code == 0
    rec = json.loads(out)
    assert rec["relative_deviation"] < 1e-10

    code, out, _ = run(capsys, ["ricci", "--k", "2", "--t", "0.5", "--format", "csv"])
    assert code == 0
    assert "variety_scalar" in out and "fiber_ricci_ab" in out

    code, out, _ = run(capsys, ["angular", "--k", "2", "--l", "2", "--t", "0.25"])
    assert code == 0
    rows = json.loads(out)
    assert sum(r["multiplicity"] for r in rows) == 5


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
        path.write_text(trigpoly.loop_to_json(trigpoly.scale(loop, scale), scale))
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
    # Residual 6.0e-10 R^2: on the sphere, so on the smooth degree-one stratum too.
    loop = trigpoly.scale(cli.random_loop(3, 1, 1.0, 4), 1.0 + 3e-10)
    path = tmp_path / "loop.json"
    path.write_text(trigpoly.loop_to_json(loop, 1.0))
    code, out, _ = run(capsys, ["check", "--input", str(path)])
    rec = json.loads(out)
    assert 5e-10 < rec["constraint_residual"] < 1e-9
    assert (code, rec["on_sphere"], rec["stratum"]) == (0, True, "smooth")


@pytest.mark.parametrize("k", ["50", "410"])
@pytest.mark.parametrize("command", [["classify"], ["spectrum", "--levels", "2", "--tol", "1e-3"]])
def test_underflowing_coefficient_probe_exits_2_on_one_line(capsys, command, k):
    code, out, err = run(capsys, [command[0], "--k", k, *command[1:]])
    assert (code, out) == (2, "")
    assert err == "error: exponent probe requires positive coefficient values\n"


def test_validation_errors(tmp_path, capsys, monkeypatch):
    # Malformed loop JSON names the offending field and exits 2.
    path = tmp_path / "bad.json"
    path.write_text('{"k": 2, "N": 1, "R": 1.0, "v": [0.0], "a": [], "b": []}')
    code, _, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2
    assert "constant term" in err
    # A loop on S^0 is a point of a 0-dimensional variety.
    path.write_text('{"k": 0, "N": 0, "R": 1.0, "v": [1.0], "a": [], "b": []}')
    code, out, err = run(capsys, ["curvature", "--input", str(path)])
    assert (code, out) == (2, "") and "k >= 1" in err
    # Invalid parameter range.
    code, _, err = run(capsys, ["classify", "--k", "1"])
    assert code == 2
    assert "k" in err
    # A negative representation label, and harmonics away from k = 2.
    for argv in (["angular", "--k", "2", "--l", "-1", "--t", "0.5"],
                 ["spectrum", "--k", "3", "--l", "1"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
    assert "k = 2" in err
    # A solver flag out of range exits 2 naming the value, with no warning.
    for argv, value in (("spectrum --k 3 --neigs 0 --levels 2 --tol 1e-3", "got 0"),
                        ("spectrum --k 3 --neigs -1 --levels 2 --tol 1e-3", "got -1"),
                        ("spectrum --k 3 --levels 2 --tol nan", "got nan"),
                        ("gap --k 5 --levels 2 --tol nan", "got nan")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv.split())
        assert code == 2 and out == "" and caught == [], (argv, err)
        assert value in err, (argv, err)
    # Fewer than two truncation levels are refused before any endpoint is
    # classified or any truncation solved.
    def no_work(*args, **kwargs):
        raise AssertionError("solver work started")

    monkeypatch.setattr(radial, "classify_endpoint", no_work)
    monkeypatch.setattr(radial, "solve_truncated", no_work)
    for argv, value in (("spectrum --k 3 --levels 1 --tol 1e-3", "got 1"),
                        ("gap --k 5 --levels 0 --tol 1e-3", "got 0")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv.split())
        assert code == 2 and out == "" and caught == [], (argv, err)
        assert value in err, (argv, err)
    monkeypatch.undo()
    # Unknown flags abort argument parsing.
    for argv in (["classify", "--bogus", "3"], ["gap", "--k", "5", "--neigs", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_cli_start_up_and_non_radial_commands_leave_scipy_unimported():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import loopsphere.cli as cli; "
            "cli.build_parser(); assert cli.main(['ricci', '--k', '2', '--t', '0.5']) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True)
    assert proc.stderr.strip() == "[]"


def test_module_entry_point_runs_a_command():
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "loopsphere.cli", "ricci", "--k", "2", "--t", "0.5"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)[-1]["quantity"] == "fiber_ricci_vb"


# One valid argv per subcommand.
_VALID_ARGV = {
    "spectrum": ["--k", "3", "--neigs", "3", "--levels", "4", "--format", "csv"],
    "gap": ["--k", "5", "--R", "0.5", "--tol", "1e-3"],
    "classify": ["--k", "4"],
    "frobenius": ["--k", "4", "--L", "2"],
    "veff": ["--k", "3", "--tau", "0.5"],
    "volume": ["--k", "3", "--R", "2", "--output", "vol.json"],
    "curvature": ["--input", "loop.json"],
    "ricci": ["--k", "2", "--t", "0.5"],
    "angular": ["--k", "2", "--l", "2", "--s", "1", "--t", "0.25"],
    "factorize": ["--input", "-"],
    "check": ["--input", "-", "--format", "csv"],
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
    assert list(_VALID_ARGV) == list(cli._NAMES)


@pytest.mark.parametrize("name", list(_VALID_ARGV))
def test_one_subcommand_parser_parses_as_the_full_parser(name):
    one, full = cli.build_parser(name), cli.build_parser()
    cases = {
        "help": [name, "--help"],
        "valid": [name] + _VALID_ARGV[name],
        "missing required flag": [name],
        "unrecognized flag": [name] + _VALID_ARGV[name] + ["--bogus", "3"],
    }
    for case, argv in cases.items():
        got = _parse(one, argv)
        assert got == _parse(full, argv), case
        if case == "help":
            assert got[0] == 0 and got[1].startswith(f"usage: loopsphere {name} ")
        elif case == "valid":
            assert got[0]["command"] == name and got[2] == ""
        else:
            assert got[0] == 2 and got[1] == "" and "error:" in got[2]
    # The other subcommands are not built.
    other = "ricci" if name != "ricci" else "check"
    code, _, err = _parse(one, [other] + _VALID_ARGV[other])
    assert code == 2 and f"invalid choice: '{other}'" in err


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
    records["rotations"]["rotations"][0]["P"][1][1] = value
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
    code, out, err = run(capsys, ["classify", "--k", "3", "--R", "inf"])
    assert code == 2 and out == ""


def test_non_finite_output_value_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(manifold, "stiefel_volume", lambda k: float("nan"))
    code, out, err = run(capsys, ["volume", "--k", "3"])
    assert code == 2 and out == ""
    assert "not JSON compliant" in err


def test_failed_integration_leg_exits_3(monkeypatch, capfd):
    # A step budget of one makes every LSODA leg fail.
    monkeypatch.setattr(radial, "_MXSTEP", 1)
    with pytest.warns(ODEintWarning, match="Excess work"):
        code = cli.main(["spectrum", "--k", "3", "--levels", "2"])
    out, err = capfd.readouterr()
    assert code == 3
    assert out == ""
    assert "Prufer integration failed" in err


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
    ["classify", "--k", "3", "--R", "1e200"],
    ["veff", "--k", "3", "--R", "1e200", "--tau", "1"],
    ["ricci", "--k", "2", "--t", "0.5", "--R", "1e300"],
    ["random-loop", "--k", "3", "--N", "2", "--seed", "1", "--R", "1e300"],
])
def test_unrepresentable_radius_power_exits_2_naming_the_value(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"radius R = {float(argv[argv.index('--R') + 1])!r}" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


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
       k=st.sampled_from([2, 3]) | st.integers(-1, 12), degree=st.integers(-2, 5),
       radius=_FUZZ_FLOATS, t=_FUZZ_FLOATS, tau=st.none() | _FUZZ_FLOATS,
       l=st.none() | st.integers(-2, 4), s=st.none() | st.integers(-3, 4),
       seed=st.integers(0, 2**64 - 1) | st.integers(-2**70, 2**70))
def test_fast_subcommands_exit_documented_codes_with_strict_json(command, k, degree, radius, t,
                                                                  tau, l, s, seed):
    values = {"--k": k, "--N": degree, "--R": radius, "--t": t, "--tau": tau, "--l": l,
              "--s": s, "--seed": seed}
    takes = {
        "random-loop": ("--k", "--N", "--R", "--seed"), "check": (),
        "volume": ("--k", "--R"), "classify": ("--k", "--R"), "frobenius": ("--k", "--R"),
        "veff": ("--k", "--R", "--tau"), "ricci": ("--k", "--R", "--t"),
        "angular": ("--k", "--R", "--t", "--l", "--s"),
    }

    def argv_for(name):
        # flag=value, so that argparse reads a negative value as a value.
        return [name] + [f"{flag}={values[flag]!r}" for flag in takes[name]
                         if values[flag] is not None]

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
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
    if out.getvalue():
        _strict_json(out.getvalue())
    if code != 0:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())


@pytest.mark.parametrize("command", ["spectrum", "gap"])
@settings(max_examples=8, deadline=None)
@given(k=st.integers(2, 6), radius=st.floats(math.log(0.25), math.log(4.0)).map(math.exp),
       neigs=st.integers(1, 2))
def test_solver_subcommands_exit_documented_codes_with_strict_json(command, k, radius, neigs):
    argv = [command, f"--k={k}", f"--R={radius!r}", "--levels=2", "--tol=1e-3"]
    if command == "spectrum":
        argv.append(f"--neigs={neigs}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if out.getvalue():
        _strict_json(out.getvalue())
    else:
        assert code != 0 and err.getvalue().startswith("error:"), (argv, err.getvalue())


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
