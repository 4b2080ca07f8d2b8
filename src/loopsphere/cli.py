"""Command-line front end.

Subcommands map one-to-one onto the library modules:

    spectrum     radial eigenvalues by shrinking truncations (--neigs of them)
    gap          spectral-gap report of the lowest two eigenvalues, with
                 convexity and bound comparison (no --neigs)
    classify     endpoint classification of the radial problem
    frobenius    indicial (Frobenius) exponents at both endpoints
    veff         effective potential of the Liouville normal form
    volume       Riemannian volume: quadrature vs closed form
    curvature    full curvature report at a loop (JSON loop input)
    ricci        closed-form Ricci tables at one radial coordinate
    angular      angular (Stiefel-fiber) eigenvalues and multiplicities
    factorize    loop JSON -> rotations JSON, or rotations JSON -> loop JSON
    check        constraint residual, degree, and stratum of a loop
    random-loop  seeded random sphere-valued loop of prescribed degree

`main` builds the parser of the invoked subcommand only; help and a missing
or unknown command get the parser of all twelve.

Exit codes: 0 success, 2 validation error (bad flags, malformed input, or a
result that a double cannot represent), 3 numeric diagnostic failure.
Output is JSON (default) or CSV with floats at 17 significant digits;
identical flags and seed give byte-identical output.  JSON output is strict
RFC 8259: a non-finite value is a validation error, never a NaN or Infinity
token.
"""

import argparse
import json
import sys

import numpy as np

# The radial subcommands import `radial` themselves, so that the others start
# without loading scipy.
from . import angular, curvature, manifold, resolution, trigpoly
from .prng import SplitMix64

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(value):
    """One CSV cell: floats at 17 significant digits, everything else as str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_default(obj):
    """numpy arrays and scalars, the values json cannot encode itself."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(obj, **kwargs):
    """Strict JSON text; a NaN or infinite value raises ValueError."""
    return json.dumps(obj, allow_nan=False, default=_json_default, **kwargs)


def _write(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(header, rows, fmt, output):
    """A rectangular table: CSV rows, or JSON list of row objects."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        _write("\n".join(lines) + "\n", output)
    else:
        data = [dict(zip(header, row)) for row in rows]
        _write(_dumps(data, indent=2) + "\n", output)


def _emit_record(record, fmt, output):
    """A single keyed record: JSON object, or key,value CSV."""
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in record.items():
            lines.append(f"{key},{_fmt(value) if not isinstance(value, (list, dict)) else _dumps(value)}")
        _write("\n".join(lines) + "\n", output)
    else:
        _write(_dumps(record, indent=2) + "\n", output)


def _read_input(path):
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Seeded random loops
# ---------------------------------------------------------------------------


def random_loop(k, degree, radius, seed):
    """Seeded random sphere-valued loop: N random plane rotations of a point.

    The base point is a uniformly random direction scaled to the sphere;
    each step applies a plane rotation through a random orthonormal pair,
    which generically raises the harmonic degree by exactly one while
    preserving the constraint identically.
    """
    params = manifold.ModelParams(k=k, R=radius)
    if degree < 0:
        raise ValueError(f"loop degree must be >= 0, got {degree}")
    rng = SplitMix64(seed)
    d = params.k + 1
    base = np.array(rng.gauss_vector(d))
    base *= params.R / np.linalg.norm(base)
    n = trigpoly.trig_poly(base)
    for _ in range(degree):
        a = np.array(rng.gauss_vector(d))
        b = np.array(rng.gauss_vector(d))
        a /= np.linalg.norm(a)
        b -= (a @ b) * a
        b /= np.linalg.norm(b)
        rot = resolution.rotation_from_basis(a, b)
        n = resolution.apply_rotation(rot, n)
    return n


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _params(args):
    return manifold.ModelParams(k=args.k, R=args.R, L=args.L)


def _cmd_spectrum(args):
    from . import radial

    params = _params(args)
    if args.l is not None:
        prob = radial.coefficients_with_harmonics(params, args.l, args.s or 0)
    else:
        prob = radial.coefficients(params)
    res = radial.spectrum(prob, count=args.neigs, tol=args.tol, levels=args.levels)
    # est_error is the residual that `converged` compares with --tol.
    header = ["n", "lambda", "est_error", "converged"]
    rows = [
        [i, float(res.raw[i]), float(res.residual[i]), bool(res.converged)]
        for i in range(len(res.raw))
    ]
    _emit_rows(header, rows, args.format, args.output)
    return EXIT_OK if res.converged else EXIT_NUMERIC


def _cmd_gap(args):
    from . import radial

    params = _params(args)
    rep = radial.gap_analysis(params, tol=args.tol, levels=args.levels)
    record = {
        "k": rep["k"],
        "R": rep["R"],
        "lambda0": rep["lambda0_raw"],
        "lambda1": rep["lambda1_raw"],
        "gap": rep["gap"],
        "bound_12_over_R2": rep["bound_12_over_R2"],
        "lavine_paper": rep["lavine_bound_recorded"],
        "lavine_classical": rep["lavine_bound_classical"],
        "convex": rep["convex_potential"],
        "rayleigh_upper": rep["rayleigh_upper_raw"],
        "gap_exceeds_12_over_R2": rep["gap_exceeds_12_over_R2"],
        "gap_exceeds_lavine_paper": rep["gap_exceeds_recorded"],
        "gap_exceeds_lavine_classical": rep["gap_exceeds_classical"],
        "radius_limit_for_12_bound": rep["radius_limit_for_12_bound"],
        "converged": rep["converged"],
        "convergence_proven": rep["convergence_proven"],
    }
    _emit_record(record, args.format, args.output)
    return EXIT_OK if rep["converged"] else EXIT_NUMERIC


def _cmd_classify(args):
    from . import radial

    params = _params(args)
    reports = radial.classify_endpoints(params)
    header = ["endpoint", "kind", "mu1", "mu2", "log_case"]
    rows = [
        [ep, rep.kind.value, rep.exponents[0], rep.exponents[1], rep.log_case]
        for ep, rep in sorted(reports.items())
    ]
    _emit_rows(header, rows, args.format, args.output)
    return EXIT_OK


def _cmd_frobenius(args):
    from . import radial

    params = _params(args)
    prob = radial.coefficients(params)
    header = ["endpoint", "mu1", "mu2", "log_case"]
    rows = []
    for ep in prob.interval:
        (mu1, mu2), log_case = radial.frobenius_exponents(prob, ep)
        rows.append([ep, mu1, mu2, log_case])
    _emit_rows(header, rows, args.format, args.output)
    return EXIT_OK


def _cmd_veff(args):
    from . import radial

    params = _params(args)
    veff = radial.EffectivePotential(params)
    hi = np.pi * params.R / 2.0
    record = {
        "k": params.k,
        "R": params.R,
        "interval": [0.0, hi],
        "endpoint_exponents": {
            "0": list(radial.veff_exponents(params, 0.0)),
            "pi_R_over_2": list(radial.veff_exponents(params, hi)),
        },
        "inverse_square_coefficients": {
            "0": (params.k**2 - 6.0 * params.k + 8.0) / 4.0,
            "pi_R_over_2": (4.0 * params.k**2 - 16.0 * params.k + 15.0) / 4.0,
        },
    }
    if args.tau is not None:
        record["tau"] = args.tau
        record["value"] = veff.value(args.tau)
    _emit_record(record, args.format, args.output)
    return EXIT_OK


def _cmd_volume(args):
    params = _params(args)
    # The closed forms name a value that a double cannot represent; the
    # quadrature's integrand would overflow on the way to it.
    closed = manifold.radial_volume_closed_form(params)
    stiefel = manifold.stiefel_volume(params.k)
    total = manifold.volume_total(params)
    quad = manifold.radial_volume_quadrature(params)
    record = {
        "k": params.k,
        "R": params.R,
        "radial_quadrature": quad,
        "radial_closed_form": closed,
        "stiefel_volume": stiefel,
        "total_volume": total,
        "relative_deviation": abs(quad - closed) / closed,
    }
    _emit_record(record, args.format, args.output)
    return EXIT_OK


def _cmd_curvature(args):
    n, radius = trigpoly.loop_from_json(_read_input(args.input))
    rep = curvature.scalar_and_mean(n, radius=radius)
    record = {
        "k": n.ambient_dim - 1,
        "N": n.degree,
        "R": radius,
        "dim": rep.dim,
        "scalar": rep.scalar,
        "mean_sq": rep.mean_sq,
        "ricci_min": rep.ricci_min,
        "ricci_eigenvalues": rep.ricci_eigenvalues.tolist(),
        "leung_rhs": rep.leung_rhs,
        "condition_gram": rep.condition_gram,
        "scalar_terms": rep.scalar_terms,
        "scalar_trace_residual": rep.scalar_trace_residual,
    }
    _emit_record(record, args.format, args.output)
    return EXIT_OK


def _cmd_ricci(args):
    params = manifold.ModelParams(k=args.k, R=args.R)
    if not (0.0 < args.t < 1.0):
        raise ValueError(f"--t must lie in (0, 1), got {args.t}")
    header = ["quantity", "value"]
    rows = []
    if args.k == 2:
        closed = curvature.ricci_closed_form_k2(args.t, params.R)
        for value, mult in closed["eigenvalues"]:
            rows.append([f"variety_ricci_eigenvalue_mult{mult}", value])
        rows.append(["variety_scalar", closed["scalar"]])
        rows.append(["variety_ricci_lower_bound", closed["lower_bound"]])
    for label, value in sorted(curvature.fiber_ricci_closed(args.k, args.t).items()):
        rows.append([f"fiber_ricci_{label}", value])
    _emit_rows(header, rows, args.format, args.output)
    return EXIT_OK


def _cmd_angular(args):
    params = manifold.ModelParams(k=args.k, R=args.R)
    if not (0.0 < args.t < 1.0):
        raise ValueError(f"--t must lie in (0, 1), got {args.t}")
    header = ["eigenvalue", "multiplicity"]
    if args.k == 2:
        if args.l is None:
            raise ValueError("k = 2 angular spectra require --l")
        if args.s is not None:
            value = angular.angular_eigenvalue_k2(args.l, args.s, args.t, params.R)
            rows = [[value, 1 if args.s == 0 else 2]]
        else:
            rows = [list(item) for item in angular.angular_spectrum_k2(args.l, args.t, params.R)]
    elif args.k == 3:
        # For k = 3 the representation is labeled by the two highest weights
        # of the commuting su(2) factors, passed as --l and --s.
        if args.l is None or args.s is None:
            raise ValueError("k = 3 angular spectra require both --l and --s (the two highest weights)")
        vals = angular.angular_spectrum_k3(args.l, args.s, args.t)
        grouped = []
        for v in vals:
            if grouped and abs(v - grouped[-1][0]) <= 1e-10 * (1.0 + abs(v)):
                grouped[-1][1] += 1
            else:
                grouped.append([float(v), 1])
        rows = grouped
    else:
        raise ValueError(f"angular spectra are implemented for k in {{2, 3}}, got {args.k}")
    _emit_rows(header, rows, args.format, args.output)
    return EXIT_OK


def _cmd_factorize(args):
    data = json.loads(_read_input(args.input))
    if isinstance(data, dict) and "rotations" in data:
        fact = resolution.rotations_from_dict(data)
        n = resolution.compose(fact)
        _write(_dumps(trigpoly.loop_to_dict(n, fact.radius), indent=2) + "\n", args.output)
    else:
        n, radius = trigpoly.loop_from_dict(data)
        fact = resolution.factorize(n, radius)
        _write(_dumps(resolution.rotations_to_dict(fact), indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_check(args):
    n, radius = trigpoly.loop_from_json(_read_input(args.input))
    residual = trigpoly.constraint_residual(n, radius).max_abs_coeff()
    ok = residual <= trigpoly.SPHERE_RTOL * radius**2
    stratum = (
        manifold.classify_stratum(n, radius).value
        if n.degree <= 1
        else ("smooth" if ok else "not-on-variety")
    )
    record = {
        "k": n.ambient_dim - 1,
        "N": n.degree,
        "R": radius,
        "constraint_residual": residual,
        "on_sphere": ok,
        "stratum": stratum,
    }
    _emit_record(record, args.format, args.output)
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_random_loop(args):
    n = random_loop(args.k, args.N, args.R, args.seed)
    _write(_dumps(trigpoly.loop_to_dict(n, args.R), indent=2) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# name, help, `_add_common` flags, handler
_COMMANDS = (
    ("spectrum", "radial eigenvalues by shrinking truncations", "k R L ls eigs neigs",
     _cmd_spectrum),
    ("gap", "spectral-gap report", "k R L eigs", _cmd_gap),
    ("classify", "endpoint classification", "k R L", _cmd_classify),
    ("frobenius", "indicial exponents at both endpoints", "k R L", _cmd_frobenius),
    ("veff", "Liouville-form effective potential", "k R L tau", _cmd_veff),
    ("volume", "Riemannian volume, quadrature vs closed form", "k R L", _cmd_volume),
    ("curvature", "curvature report at a loop", "input", _cmd_curvature),
    ("ricci", "closed-form Ricci tables", "k R t", _cmd_ricci),
    ("angular", "angular eigenvalues and multiplicities", "k R t ls", _cmd_angular),
    ("factorize", "loop <-> plane-rotation factorization", "input", _cmd_factorize),
    ("check", "constraint residual and stratum of a loop", "input", _cmd_check),
    ("random-loop", "seeded random sphere-valued loop", "k R seed N", _cmd_random_loop),
)
_NAMES = tuple(row[0] for row in _COMMANDS)


def _add_common(sub, flags):
    if "k" in flags:
        sub.add_argument("--k", type=int, required=True, help="sphere dimension (>= 2)")
    if "R" in flags:
        sub.add_argument("--R", type=float, default=1.0, help="sphere radius (> 0)")
    if "L" in flags:
        sub.add_argument("--L", type=float, default=1.0, help="coupling scale (> 0)")
    if "t" in flags:
        sub.add_argument("--t", type=float, required=True, help="radial coordinate in (0, 1)")
    if "tau" in flags:
        sub.add_argument("--tau", type=float, default=None, help="arclength coordinate in (0, pi R / 2)")
    if "ls" in flags:
        sub.add_argument("--l", type=int, default=None, help="representation label")
        sub.add_argument("--s", type=int, default=None, help="weight / second representation label")
    if "eigs" in flags:
        sub.add_argument("--tol", type=float, default=1e-6, help="relative convergence tolerance")
        sub.add_argument("--levels", type=int, default=7, help="number of truncation levels")
    if "input" in flags:
        sub.add_argument("--input", required=True, help="input JSON path ('-' for stdin)")
    if "seed" in flags:
        sub.add_argument("--seed", type=int, required=True, help="64-bit PRNG seed")
    if "N" in flags:
        sub.add_argument("--N", type=int, required=True, help="harmonic degree (>= 0)")
    sub.add_argument("--output", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if "neigs" in flags:  # after --format, where spectrum's help has always listed it
        sub.add_argument("--neigs", type=int, default=2, help="number of eigenvalues")


def build_parser(command=None):
    """The CLI parser, with every subcommand or only the one named `command`."""
    parser = argparse.ArgumentParser(
        prog="loopsphere",
        description="Finite-dimensional loop spaces of round spheres.",
    )
    # One command's parser still lists them all in the usage line that an
    # unrecognized argument prints.
    metavar = None if command is None else "{" + ",".join(_NAMES) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, flags, handler in _COMMANDS:
        if command in (None, name):
            sub = subs.add_parser(name, help=help_text)
            _add_common(sub, flags.split())
            sub.set_defaults(handler=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _NAMES else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.handler(args)
    except (trigpoly.LoopFormatError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (curvature.NearSingularStratumError, resolution.PeelError,
            manifold.StratumError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:
        print(f"error: a value overflows a double: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
