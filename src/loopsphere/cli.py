"""Command-line front end.

The twelve subcommands:

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

`main` parses the arguments after a command's name with that command's own
parser, so a bad option, a missing flag or a bad value prints that command's
usage and one `loopsphere <command>: error: ...` line, and exits 2.  Help and
a missing or unknown command get the parser of all twelve.  A process builds
each parser once and reuses it for every later call of `main`.

Only numpy is imported at module level.  Each handler imports the library
modules it runs, and `main` imports the error classes' modules only when a
command fails, so `import loopsphere.cli` with `build_parser()` loads no
other library module, a command compiles only its own modules, and only
`spectrum` and `gap`, which shoot and run FD solves, load scipy.

Exit codes: 0 success, 2 validation error (bad flags, malformed input, or a
result that a double cannot represent), 3 numeric diagnostic failure.  Each
warning a command raises is one `warning: <Category>: <message>` line on
standard error, and a failure adds one `error:` line after them.
The table and record commands write indented JSON; loop and rotation records
(random-loop, factorize) are one line of compact JSON, which
`python -m json.tool` pretty-prints; a rotations record stores each rotation
as the frame {"u": [...], "v": [...]} of its plane, and `factorize` refuses
one whose composed loop is off the sphere.  `factorize` reads a JSON object
that holds `rotations` or `base` as a rotations record (a loop record holds
neither) and any other input as a loop record.  Identical flags and seed give
byte-identical output.  JSON output is strict RFC 8259: a non-finite value is a validation
error, never a NaN or Infinity token.
"""

import argparse
import functools
import json
import sys
import warnings

import numpy as np

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _dumps(obj, **kwargs):
    """Strict JSON text; a NaN or infinite value raises ValueError."""
    return json.dumps(obj, allow_nan=False, **kwargs)


def _write(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(data, output):
    """A table or record as indented JSON."""
    _write(_dumps(data, indent=2) + "\n", output)


def _table(header, rows):
    """A rectangular table as a list of row objects."""
    return [dict(zip(header, row)) for row in rows]


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
    preserving the constraint identically.  The radius obeys a loop record's
    rule: finite, at least 2^-500, and no entry of the loop above 2^500, so
    that `check` reads every loop this draws.
    """
    from . import manifold, resolution, trigpoly
    from .prng import SplitMix64

    d = manifold.ModelParams(k=k).k + 1  # the model's bounds on k
    if not trigpoly.MIN_RADIUS <= radius <= trigpoly.MAX_ENTRY:
        raise ValueError(f"radius R = {radius!r} is out of range: a loop record's radius "
                         f"must lie in [2^-500, 2^500]")
    if not 0 <= degree <= manifold.N_MAX:
        raise ValueError(f"loop degree must lie in [0, {manifold.N_MAX}], got {degree}")
    rng = SplitMix64(seed)
    base = np.array(rng.gauss_vector(d))
    base *= radius / np.linalg.norm(base)
    rotations = []
    for _ in range(degree):
        a = np.array(rng.gauss_vector(d))
        b = np.array(rng.gauss_vector(d))
        a /= np.linalg.norm(a)
        b -= (a @ b) * a
        b /= np.linalg.norm(b)
        rotations.append(resolution.rotation_from_basis(a, b))
    # The first rotation drawn acts first, so it is the last factor.
    n = resolution.compose(resolution.Factorization(
        rotations=tuple(reversed(rotations)), base=base, radius=float(radius)))
    # An entry of a harmonic may exceed R, by a factor of up to 4/pi.
    peak = max(np.abs(n.v).max(), np.abs(n.a).max(initial=0.0), np.abs(n.b).max(initial=0.0))
    if peak > trigpoly.MAX_ENTRY:
        raise ValueError(f"radius R = {radius!r} is out of range: the loop drawn has an "
                         f"entry {float(peak)!r} above 2^500")
    return n


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _params(args):
    from . import manifold

    return manifold.ModelParams(k=args.k, R=args.R)


def _cmd_spectrum(args):
    from . import radial

    if args.s is not None and args.l is None:
        raise ValueError("--s needs --l: the weight s labels a state of the representation l")
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
    _emit(_table(header, rows), args.output)
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
    _emit(record, args.output)
    return EXIT_OK if rep["converged"] else EXIT_NUMERIC


def _cmd_classify(args):
    from . import manifold, radial

    # The endpoint reports depend on k alone.
    reports = sorted(radial.classify_endpoints(manifold.ModelParams(k=args.k)).items())
    header = ["endpoint", "kind", "mu1", "mu2", "log_case"]
    rows = [[ep, rep.kind.value, *rep.exponents, rep.log_case] for ep, rep in reports]
    _emit(_table(header, rows), args.output)
    return EXIT_OK


def _cmd_frobenius(args):
    from . import manifold, radial

    reports = sorted(radial.classify_endpoints(manifold.ModelParams(k=args.k)).items())
    rows = [[ep, *rep.exponents, rep.log_case] for ep, rep in reports]
    _emit(_table(["endpoint", "mu1", "mu2", "log_case"], rows), args.output)
    return EXIT_OK


def _cmd_veff(args):
    from . import radial

    params = _params(args)
    veff = radial.EffectivePotential(params)
    hi = veff.hi
    record = {
        "k": params.k,
        "R": params.R,
        "interval": [0.0, hi],
        "endpoint_exponents": {
            "0": list(radial.veff_exponents(params, 0.0)),
            "pi_R_over_2": list(radial.veff_exponents(params, hi)),
        },
        "inverse_square_coefficients": {
            "0": radial.veff_inverse_square(params, 0.0),
            "pi_R_over_2": radial.veff_inverse_square(params, hi),
        },
    }
    if args.tau is not None:
        record["tau"] = args.tau
        record["value"] = veff.value(args.tau)
    _emit(record, args.output)
    return EXIT_OK


def _cmd_volume(args):
    from . import manifold

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
    _emit(record, args.output)
    return EXIT_OK


def _cmd_curvature(args):
    from . import curvature, trigpoly

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
    _emit(record, args.output)
    return EXIT_OK


def _cmd_ricci(args):
    from . import curvature

    params = _params(args)
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
    _emit(_table(header, rows), args.output)
    return EXIT_OK


def _cmd_angular(args):
    from . import angular

    params = _params(args)
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
        # The fiber metric is (R^2/4) g with g free of R, so its Laplacian scales as 1/R^2.
        with np.errstate(over="ignore"):  # an overflow is refused below
            vals = angular.angular_spectrum_k3(args.l, args.s, args.t) / params.R**2
        if not np.all(np.isfinite(vals)):
            raise OverflowError(f"k = 3 angular eigenvalues at t = {args.t!r}, R = {params.R!r}")
        grouped = []
        for v in vals:
            if grouped and abs(v - grouped[-1][0]) <= 1e-10 * (1.0 + abs(v)):
                grouped[-1][1] += 1
            else:
                grouped.append([float(v), 1])
        rows = grouped
    else:
        raise ValueError(f"angular spectra are implemented for k in {{2, 3}}, got {args.k}")
    _emit(_table(header, rows), args.output)
    return EXIT_OK


def _cmd_factorize(args):
    from . import resolution, trigpoly

    data = trigpoly.read_json(_read_input(args.input))
    if isinstance(data, dict) and {"rotations", "base"} & data.keys():
        fact = resolution.rotations_from_dict(data)
        n = resolution.compose(fact)
        trigpoly.require_on_sphere(n, fact.radius)  # each frame's 1e-10 slack adds up
        record = trigpoly.loop_to_dict(n, fact.radius)
    else:
        n, radius = trigpoly.loop_from_dict(data)
        record = resolution.rotations_to_dict(resolution.factorize(n, radius))
    _write(_dumps(record, separators=(",", ":")) + "\n", args.output)
    return EXIT_OK


def _cmd_check(args):
    from . import trigpoly

    n, radius = trigpoly.loop_from_json(_read_input(args.input))
    residual, ok = trigpoly.sphere_residual(n, radius)
    if not ok:
        stratum = "not-on-variety"
    elif n.degree <= 1:
        from . import manifold

        stratum = manifold._stratum_on_variety(n, radius).value
    else:
        stratum = "smooth"
    record = {
        "k": n.ambient_dim - 1,
        "N": n.degree,
        "R": radius,
        "constraint_residual": residual,
        "on_sphere": ok,
        "stratum": stratum,
    }
    _emit(record, args.output)
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_random_loop(args):
    from . import trigpoly

    n = random_loop(args.k, args.N, args.R, args.seed)
    _write(_dumps(trigpoly.loop_to_dict(n, args.R), separators=(",", ":")) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# name: help, `_add_common` flags, handler
_COMMANDS = {
    "spectrum": ("radial eigenvalues by shrinking truncations", "k R ls eigs neigs", _cmd_spectrum),
    "gap": ("spectral-gap report", "k R eigs", _cmd_gap),
    "classify": ("endpoint classification", "k", _cmd_classify),
    "frobenius": ("indicial exponents at both endpoints", "k", _cmd_frobenius),
    "veff": ("Liouville-form effective potential", "k R tau", _cmd_veff),
    "volume": ("Riemannian volume, quadrature vs closed form", "k R", _cmd_volume),
    "curvature": ("curvature report at a loop", "input", _cmd_curvature),
    "ricci": ("closed-form Ricci tables", "k R t", _cmd_ricci),
    "angular": ("angular eigenvalues and multiplicities", "k R t ls", _cmd_angular),
    "factorize": ("loop <-> plane-rotation factorization", "input", _cmd_factorize),
    "check": ("constraint residual and stratum of a loop", "input", _cmd_check),
    "random-loop": ("seeded random sphere-valued loop", "k R seed N", _cmd_random_loop),
}


def _add_common(sub, flags, handler):
    flags = flags.split()
    if "k" in flags:
        sub.add_argument("--k", type=int, required=True, help="sphere dimension (>= 2)")
    if "R" in flags:
        sub.add_argument("--R", type=float, default=1.0, help="sphere radius (> 0)")
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
    if "neigs" in flags:  # last, where spectrum's help has always listed it
        sub.add_argument("--neigs", type=int, default=2, help="number of eigenvalues")
    sub.set_defaults(handler=handler)
    return sub


@functools.cache
def build_parser(command=None):
    """The parser of the arguments after `command`, or with no command the full CLI parser.

    Built once per `command` and process: the returned parser is shared by
    every later call, so callers must not mutate it (add arguments, change
    defaults).  `parse_args` keeps no state from one parse to the next.
    """
    if command is not None:
        _, flags, handler = _COMMANDS[command]
        return _add_common(argparse.ArgumentParser(prog=f"loopsphere {command}"), flags, handler)
    parser = argparse.ArgumentParser(
        prog="loopsphere",
        description="Finite-dimensional loop spaces of round spheres.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, handler) in _COMMANDS.items():
        _add_common(subs.add_parser(name, help=help_text), flags, handler)
    return parser


def _run(handler, args):
    """(exit code, error line or None) of one handler call."""
    try:
        return handler(args), None
    except RuntimeError as exc:
        return EXIT_NUMERIC, f"error: {exc}"
    except ValueError as exc:
        # Malformed input, or one of the library's numeric diagnostics, which
        # all derive from ValueError.
        from .curvature import NearSingularStratumError
        from .manifold import StratumError
        from .resolution import PeelError

        numeric = (NearSingularStratumError, PeelError, StratumError)
        return EXIT_NUMERIC if isinstance(exc, numeric) else EXIT_VALIDATION, f"error: {exc}"
    except OSError as exc:
        return EXIT_VALIDATION, f"error: {exc}"
    except OverflowError as exc:
        return EXIT_VALIDATION, f"error: a value overflows a double: {exc}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv[1:] if command else argv)
    # Each warning becomes one line, without the source line that
    # warnings.showwarning adds; the caller's filters still decide which show.
    with warnings.catch_warnings(record=True) as caught:
        code, error = _run(args.handler, args)
    for warning in caught:
        message = " ".join(str(warning.message).split())
        print(f"warning: {warning.category.__name__}: {message}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
