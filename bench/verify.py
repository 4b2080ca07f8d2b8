"""Checks of job outputs against the frozen reference.

`check` returns "" when a job's outcome matches its reference entry and a
one-line reason otherwise.  Every comparison is made on the parsed output,
never on its formatting, and only on the fields the reference records, so a
later commit may add fields without failing.
"""

import json
import math

import numpy as np

DOCUMENTED_EXITS = (0, 2, 3)

# The bars a later commit must meet.  Eigenvalues and gaps: the engine-swap
# bar.  Round trips: criterion 09.  Oracle agreement: criterion 02.
# Constant-coefficient eigenvalues and gap: criterion 01.  Closed-form
# curvature: criterion 07.
EIGEN_RTOL = 1e-8
VALUE_RTOL = 1e-8
ROUTE_RTOL = 1e-8
LOOP_ATOL = 1e-12
ROUNDTRIP_ATOL = 1e-10
ORACLE_MAX_DEV = 1e-6
CRIT01_GAP_ATOL = 1e-6
DEGREE_ONE_TOL = 1e-8
ROUND_SPHERE_TOL = 1e-10

# How each known defect of the frozen commit fails: a pattern (matched with re.S)
# of the reason `check` gives.  A defect job that fails in any other way is
# unexplained.
FAILS_AS = {
    "D1": r"^exit 2, reference expects \[0\]: .*orthogonal",
    "D2": r"^scalar-curvature routes disagree",
    "D3": r"^raised OverflowError",
    "D4": r"^output is not RFC 8259 JSON",
    "D5": r"^factorization round trip off",
}

THETAS = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity tokens are errors."""

    def reject(token):
        raise ValueError(f"non-RFC-8259 token {token}")

    return json.loads(text, parse_constant=reject)


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def same(got, ref, rtol=VALUE_RTOL, path=""):
    """Compare a parsed output with a recorded one; "" when they agree.

    Numbers agree within rtol * max(|ref|, 1); everything else must be equal.
    Keys the reference lacks are ignored.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{path or '/'}: expected an object"
        for key, value in ref.items():
            if key not in got:
                return f"{path}/{key}: missing"
            reason = same(got[key], value, rtol, f"{path}/{key}")
            if reason:
                return reason
        return ""
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path or '/'}: expected {len(ref)} items"
        for i, (g, r) in enumerate(zip(got, ref)):
            reason = same(g, r, rtol, f"{path}/{i}")
            if reason:
                return reason
        return ""
    if _number(ref):
        if _number(got) and abs(got - ref) <= rtol * max(abs(ref), 1.0):
            return ""
        return f"{path}: {got!r} differs from reference {ref!r}"
    return "" if got == ref else f"{path}: {got!r} differs from reference {ref!r}"


def rel_diff(got, ref):
    """Largest relative deviation of a list of nonzero numbers."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(got - ref) / np.abs(ref))) if ref.size else 0.0


def _eigen_reason(label, got, ref):
    dev = rel_diff(got, ref)
    if dev <= EIGEN_RTOL:
        return ""
    return f"{label} deviate from reference by {dev:.2e} relative"


def loop_values(n, thetas=THETAS):
    """Evaluate a loop record on a grid of angles, shape (len(thetas), k+1)."""
    v = np.asarray(n["v"], dtype=float)
    a = np.asarray(n["a"], dtype=float).reshape(-1, v.size)
    b = np.asarray(n["b"], dtype=float).reshape(-1, v.size)
    s = np.arange(1, a.shape[0] + 1)
    return v + np.cos(np.outer(thetas, s)) @ a + np.sin(np.outer(thetas, s)) @ b


def closed_form_curvature(loop_id, loop):
    """Criterion 07 closed forms: (sorted Ricci eigenvalues, scalar, tol) or None."""
    if loop_id.startswith("deg1-"):
        radius = loop["R"]
        t = (loop["v"][0] / radius) ** 2
        den = radius**2 * (1.0 + t) ** 2
        triple = (3.0 * t**2 + 6.0 * t - 1.0) / den
        single = (3.0 * t**2 + 2.0 * t + 3.0) / den
        return sorted([triple] * 3 + [single]), 4.0 * t * (3.0 * t + 5.0) / den, DEGREE_ONE_TOL
    if loop_id.startswith("round-"):
        k = loop["k"]
        return [k - 1.0] * k, float(k * (k - 1)), ROUND_SPHERE_TOL
    return None


def log_radial_volume(k, radius=1.0):
    """log of the radial volume integral, computed in log space."""
    return ((3.0 - (5.0 * k - 1.0) / 2.0) * math.log(2.0) + (3 * k - 2) * math.log(radius)
            + math.lgamma(k - 1.0) + math.lgamma((k + 1.0) / 2.0)
            - math.lgamma((3.0 * k - 1.0) / 2.0))


# ---------------------------------------------------------------------------
# Per-kind checks: (parsed output, reference entry, job, loop record) -> reason
# ---------------------------------------------------------------------------


def _check_spectrum(data, entry, job, loop):
    ref = entry["values"]
    if not isinstance(data, list) or len(data) != len(ref):
        return f"expected {len(ref)} eigenvalue rows"
    if any(row.get("converged") != r["converged"] for row, r in zip(data, ref)):
        return "converged flag differs from reference"
    return _eigen_reason("eigenvalues", [row.get("lambda") for row in data],
                         [r["lambda"] for r in ref])


def _check_gap(data, entry, job, loop):
    ref = entry["values"]
    for key in ("convex", "converged"):
        if data.get(key) != ref[key]:
            return f"{key} differs from reference"
    keys = ("lambda0", "lambda1", "gap")
    return _eigen_reason("eigenvalues and gap", [data.get(k) for k in keys], [ref[k] for k in keys])


def _check_oracle(data, entry, job, loop):
    ref = entry["values"]
    for key in ("shooting", "finite_difference"):
        reason = _eigen_reason(f"{key} eigenvalues", data[key], ref[key])
        if reason:
            return reason
    if not data["max_rel_deviation"] <= ORACLE_MAX_DEV:
        return f"oracles disagree by {data['max_rel_deviation']:.2e} (bar {ORACLE_MAX_DEV:g})"
    return ""


def _check_eigenvalues(data, entry, job, loop):
    return _eigen_reason("eigenvalues", data["eigenvalues"], entry["values"]["eigenvalues"])


def _check_crit01(data, entry, job, loop):
    vals = data["eigenvalues"]
    exact = [(n * math.pi) ** 2 for n in range(1, len(vals) + 1)]
    dev = rel_diff(vals, exact)
    if dev > EIGEN_RTOL:
        return f"constant-coefficient eigenvalues off (n pi)^2 by {dev:.2e} relative"
    gap_err = abs((vals[1] - vals[0]) - 3.0 * math.pi**2)
    if gap_err >= CRIT01_GAP_ATOL:
        return f"constant-coefficient gap off 3 pi^2 by {gap_err:.2e}"
    return _check_eigenvalues(data, entry, job, loop)


def _check_curvature(data, entry, job, loop):
    closed = closed_form_curvature(job.loop, loop)
    if closed is not None:
        eigs, scalar, tol = closed
        got = sorted(data["ricci_eigenvalues"])
        if len(got) != len(eigs) or max(abs(g - e) for g, e in zip(got, eigs)) >= tol:
            return "Ricci eigenvalues differ from the closed form"
        if abs(data["scalar"] - scalar) >= tol * max(abs(scalar), 1.0):
            return "scalar curvature differs from the closed form"
    ref = entry.get("values")
    if ref is not None:
        scale = max([1.0] + [abs(x) for x in ref["ricci_eigenvalues"]])
        got = sorted(data["ricci_eigenvalues"])
        if len(got) != len(ref["ricci_eigenvalues"]):
            return "Ricci tensor has the wrong dimension"
        dev = max((abs(g - r) for g, r in zip(got, ref["ricci_eigenvalues"])), default=0.0)
        if dev > VALUE_RTOL * scale:
            return f"Ricci eigenvalues deviate from reference by {dev:.2e}"
        reason = same({k: data.get(k) for k in ("scalar", "mean_sq", "dim")},
                      {k: ref[k] for k in ("scalar", "mean_sq", "dim")})
        if reason:
            return reason
    # Last, so that a known route disagreement (D2) cannot hide a wrong value.
    resid = data.get("scalar_trace_residual")
    if not (_number(resid) and resid <= ROUTE_RTOL):
        return f"scalar-curvature routes disagree by {resid!r} (bar {ROUTE_RTOL:g})"
    return ""


def _check_random_loop(data, entry, job, loop):
    for key in ("k", "N", "R"):
        if data.get(key) != loop[key]:
            return f"{key} is {data.get(key)!r}, reference {loop[key]!r}"
    for key in ("v", "a", "b"):
        got = np.asarray(data[key], dtype=float)
        ref = np.asarray(loop[key], dtype=float)
        if got.shape != ref.shape or (ref.size and np.max(np.abs(got - ref)) > LOOP_ATOL):
            return f"coefficients {key} differ from the reference loop"
    return ""


def _check_check(data, entry, job, loop):
    reason = same(data, entry["values"])
    if reason:
        return reason
    if data["on_sphere"] and not data["constraint_residual"] <= 1e-9 * data["R"] ** 2:
        return "on_sphere with a constraint residual above 1e-9 R^2"
    return ""


def _check_factorize(data, entry, job, loop):
    rots = data.get("rotations")
    if not isinstance(rots, list) or len(rots) != loop["N"]:
        return f"expected {loop['N']} plane rotations"
    if len(data.get("base", [])) != loop["k"] + 1:
        return "base point has the wrong dimension"
    return ""


def _check_compose(data, entry, job, loop):
    err = float(np.max(np.abs(loop_values(data) - loop_values(loop))))
    if not err <= ROUNDTRIP_ATOL:
        return f"factorization round trip off by {err:.2e} sup-norm (bar {ROUNDTRIP_ATOL:g})"
    return ""


def _check_table(data, entry, job, loop):
    return same(data, entry["values"])


def _check_volume_range(data, entry, job, loop):
    expect = math.exp(log_radial_volume(data["k"], data["R"]))
    got = data.get("radial_closed_form")
    if not (_number(got) and abs(got - expect) <= VALUE_RTOL * expect):
        return f"radial volume {got!r}, expected {expect!r}"
    return ""


def _check_nothing(data, entry, job, loop):
    return ""


CHECKS = {
    "spectrum": _check_spectrum,
    "gap": _check_gap,
    "oracle": _check_oracle,
    "fd": _check_eigenvalues,
    "crit01": _check_crit01,
    "curvature": _check_curvature,
    "random-loop": _check_random_loop,
    "check": _check_check,
    "factorize": _check_factorize,
    "compose": _check_compose,
    "table": _check_table,
    "volume-range": _check_volume_range,
    "invalid": _check_nothing,
}


def check(job, outcome, entry, loops):
    """"" if the outcome matches the reference entry, else why not."""
    if entry is None:
        return "no reference entry"
    if outcome.exit is None:
        return f"raised {outcome.error}"
    data = None
    if outcome.text.strip():
        try:
            data = strict_json(outcome.text)
        except ValueError as exc:
            return f"output is not RFC 8259 JSON: {exc}"
    if outcome.exit not in DOCUMENTED_EXITS:
        return f"undocumented exit code {outcome.exit}"
    if outcome.exit not in entry["exit"]:
        return f"exit {outcome.exit}, reference expects {entry['exit']}: {outcome.error}"
    if outcome.exit == 0 and data is None:
        return "exit 0 without output"
    if outcome.exit != 0 and "values" not in entry:
        return ""
    try:
        return CHECKS[job.check](data, entry, job, loops.get(job.loop))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"output lacks an expected field: {type(exc).__name__}: {exc}"
