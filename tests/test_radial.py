import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import odeint
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from loopsphere import manifold, radial


def const_problem():
    return radial.SLProblem(
        p=lambda t: 1.0, q=lambda t: 0.0, w=lambda t: 1.0, interval=(0.0, 1.0)
    )


def default_bc(prob):
    """The truncation boundary conditions `spectrum` picks by endpoint kind."""
    return radial._bc_for(radial._endpoint_kinds(prob))


# ---------------------------------------------------------------------------
# Constant-coefficient oracles
# ---------------------------------------------------------------------------


def test_constant_dirichlet_eigenvalues():
    vals = radial.solve_truncated(const_problem(), 0.0, 1.0, count=4)
    expect = [(n * math.pi) ** 2 for n in range(1, 5)]
    assert np.allclose(vals, expect, rtol=1e-8)


def test_constant_mixed_conditions():
    prob = const_problem()
    # Dirichlet-flux: ((n + 1/2) pi)^2; flux-flux: (n pi)^2 starting at 0.
    dn = radial.solve_truncated(prob, 0.0, 1.0, count=3, bc=("dirichlet", "flux"))
    assert np.allclose(dn, [((n + 0.5) * math.pi) ** 2 for n in range(3)], rtol=1e-8)
    nn = radial.solve_truncated(prob, 0.0, 1.0, count=3, bc=("flux", "flux"))
    assert np.allclose(nn, [(n * math.pi) ** 2 for n in range(3)], atol=1e-6)


def test_fd_solver_constant_problem():
    vals = radial.solve_truncated_fd(const_problem(), 0.0, 1.0, count=3)
    assert np.allclose(vals, [(n * math.pi) ** 2 for n in range(1, 4)], rtol=1e-8)


def test_prufer_mismatch_increasing_in_lambda():
    prob = const_problem()
    lams = [1.0, 5.0, 20.0, 60.0]
    vals = [radial.prufer_mismatch(prob, 0.0, 1.0, lam) for lam in lams]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cross_validation_against_fd():
    vals = radial.solve_truncated(const_problem(), 0.0, 1.0, count=2)
    oracle = radial.solve_truncated_fd(const_problem(), 0.0, 1.0, count=2)
    assert np.max(np.abs(vals - oracle) / (1.0 + np.abs(oracle))) <= 1e-5
    assert np.allclose(vals, [math.pi**2, 4 * math.pi**2], rtol=1e-8)


def test_problem_without_coefficients_names_what_is_missing():
    with pytest.raises(ValueError, match="missing p, q, w"):
        radial.SLProblem(interval=(0.0, 1.0))
    with pytest.raises(ValueError, match="missing w"):
        radial.SLProblem(p=lambda t: 1.0, q=lambda t: 0.0, interval=(0.0, 1.0))


def test_each_lambda_is_integrated_once_per_solve(monkeypatch):
    shots = []
    real = radial.prufer_mismatch

    def spy(prob, a, b, lam, **kwargs):
        shots.append(lam)
        return real(prob, a, b, lam, **kwargs)

    monkeypatch.setattr(radial, "prufer_mismatch", spy)
    k3 = radial.coefficients(manifold.ModelParams(k=3, R=1.0))
    (a, b), = radial.default_schedule(k3, levels=1)
    for prob, lo, hi, count, bc in [
        (const_problem(), 0.0, 1.0, 5, ("dirichlet", "dirichlet")),
        (k3, a, b, 2, default_bc(k3)),
    ]:
        shots.clear()
        vals = radial.solve_truncated(prob, lo, hi, count=count, bc=bc)
        assert len(vals) == count
        assert len(shots) == len(set(shots)) > 2 * count


def test_truncation_rounded_onto_the_deep_cut_shoots():
    # The level-1 truncation b = hi - 1e-3 (hi - lo) of this problem lies
    # closer to the log-distance cut than the shortest leg LSODA can start.
    prob = radial.liouville_problem(manifold.ModelParams(k=4, R=0.29780402771124387))
    _, (a, b) = radial.default_schedule(prob, levels=2)
    lo, hi = prob.interval
    deep_leg = math.log(1e-3 * (hi - lo)) - math.log(hi - b)
    assert 0.0 < deep_leg < 2.0 * np.finfo(float).eps * abs(math.log(hi - b))
    assert math.isfinite(radial.prufer_mismatch(prob, a, b, 1.0))


def test_lsoda_steps_of_one_solve_are_bounded_by_the_budget(monkeypatch):
    legs = []

    def spy(*args, **kwargs):
        y, info = odeint(*args, **kwargs)
        legs.append(int(info["nst"][-1]))
        return y, info

    monkeypatch.setattr(radial, "odeint", spy)
    want = radial.solve_truncated(const_problem(), 0.0, 1.0, count=2)
    total = sum(legs)
    assert 0 < total < radial._NST_BUDGET
    # A budget of exactly the solve's steps lets it finish with the same values;
    # one step less stops it at the leg that passes the budget.
    monkeypatch.setattr(radial, "_NST_BUDGET", total)
    assert np.array_equal(radial.solve_truncated(const_problem(), 0.0, 1.0, count=2), want)
    monkeypatch.setattr(radial, "_NST_BUDGET", total - 1)
    legs.clear()
    with pytest.raises(RuntimeError, match=f"budget of {total - 1} LSODA steps"):
        radial.solve_truncated(const_problem(), 0.0, 1.0, count=2)
    assert sum(legs) == total
    # The budget counts one solve: each call starts from zero.
    monkeypatch.setattr(radial, "_NST_BUDGET", total)
    radial.solve_truncated(const_problem(), 0.0, 1.0, count=2)
    radial.solve_truncated(const_problem(), 0.0, 1.0, count=2)


def test_failed_fd_seed_reaches_the_caller_before_any_shot(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("probe")

    shots = []
    monkeypatch.setattr(radial, "solve_truncated_fd", broken)
    monkeypatch.setattr(radial, "prufer_mismatch", lambda *args, **kwargs: shots.append(args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="probe"):
            radial.solve_truncated(const_problem(), 0.0, 1.0, count=2)
    assert (caught, shots) == ([], [])


def test_a_non_finite_matching_value_stops_the_search_at_its_shot(monkeypatch):
    shots = []

    def nan_mismatch(prob, a, b, lam, bc, steps):
        shots.append(lam)
        return math.nan

    monkeypatch.setattr(radial, "prufer_mismatch", nan_mismatch)
    with pytest.raises(RuntimeError, match="not finite") as info:
        radial.solve_truncated(const_problem(), 0.0, 1.0, count=2)
    assert len(shots) == 1
    assert f"lambda={shots[0]}" in str(info.value) and "[0.0, 1.0]" in str(info.value)


# ---------------------------------------------------------------------------
# Array-valued coefficients and finite-difference assembly
# ---------------------------------------------------------------------------


def graded_points(lo, hi, m=401):
    """Points of (lo, hi) clustered toward both ends, endpoints excluded."""
    s = np.linspace(0.0, 1.0, m + 2)[1:-1]
    g = 0.5 * (1.0 + np.tanh(8.0 * (s - 0.5)) / np.tanh(4.0))
    return lo + (hi - lo) * g


def scalar_coeffs(prob, xs):
    """(6, len(xs)) array of coefficients evaluated one float at a time."""
    return np.array([prob.coeffs(float(x)) for x in xs], dtype=float).T


def test_array_coefficients_equal_scalar_evaluation_bitwise():
    problems = [(f"radial-k{k}", radial.coefficients(manifold.ModelParams(k=k, R=0.75)))
                for k in range(2, 8)]
    problems += [(f"radial-k2-l{l}-s{s}",
                  radial.coefficients_with_harmonics(manifold.ModelParams(k=2), l, s))
                 for l, s in ((1, 0), (2, 1))]
    problems.append(("constant", const_problem()))
    for label, prob in problems:
        xs = graded_points(*prob.interval)
        arrays = np.array(prob.coeffs(xs), dtype=float)
        assert arrays.shape == (6, len(xs))
        assert np.array_equal(arrays, scalar_coeffs(prob, xs)), label


def test_liouville_array_coefficients_match_scalar_evaluation():
    # numpy's tan may differ from the C library's in the last bit.
    for k in (2, 5):
        prob = radial.liouville_problem(manifold.ModelParams(k=k, R=0.5))
        xs = graded_points(*prob.interval)[1:-1]
        arrays = np.array(prob.coeffs(xs), dtype=float)
        scalars = scalar_coeffs(prob, xs)
        assert np.allclose(arrays, scalars, rtol=4 * np.finfo(float).eps, atol=0.0)


def assemble_per_row(prob, x, bc):
    """Reference assembly of the finite-difference oracle, one row at a time."""
    m = len(x)
    hseg = np.diff(x)
    xm = 0.5 * (x[:-1] + x[1:])
    pm = np.array([prob.coeffs(xi)[0] for xi in xm])
    qv = np.array([prob.coeffs(xi)[1] for xi in x])
    wv = np.array([prob.coeffs(xi)[2] for xi in x])
    flux = pm / hseg
    keep_left = bc[0] == "flux"
    keep_right = bc[1] == "flux"
    idx = np.arange(m)[(1 - keep_left) : m - (1 - keep_right)]
    nn = len(idx)
    diag = np.zeros(nn)
    off = np.zeros(nn - 1)
    mass = np.zeros(nn)
    for row, i in enumerate(idx):
        left = flux[i - 1] if i > 0 else 0.0
        right = flux[i] if i < m - 1 else 0.0
        if i == 0:
            cell = 0.5 * hseg[0]
        elif i == m - 1:
            cell = 0.5 * hseg[-1]
        else:
            cell = 0.5 * (hseg[i - 1] + hseg[i])
        diag[row] = left + right + qv[i] * cell
        mass[row] = wv[i] * cell
        if row + 1 < nn:
            off[row] = -flux[i]
    return diag, off, mass


def test_vectorized_fd_assembly_matches_per_row_reference():
    prob = radial.coefficients(manifold.ModelParams(k=5, R=0.75))
    x = graded_points(0.0, 1.0, m=31)
    for bc in [(left, right) for left in ("dirichlet", "flux") for right in ("dirichlet", "flux")]:
        got = radial._fd_assemble(prob, x, bc)
        want = assemble_per_row(prob, x, bc)
        for g_part, w_part in zip(got, want):
            assert np.array_equal(g_part, w_part), bc


# ---------------------------------------------------------------------------
# Reference float arithmetic of the coefficients
#
# The library computes constant factors once per problem, unrolls Horner's
# rule and dispatches on the argument type once per call.  The references
# below evaluate the same formulas the plain way, one float at a time, with
# every constant recomputed on each call; the library must match them bit
# for bit.
# ---------------------------------------------------------------------------


def bits(values):
    return [float(v).hex() for v in values]


def reference_weight_alg(t, params):
    k, R = params.k, params.R
    return (R ** (3 * k - 2) / 2 ** ((5 * k - 3) / 2) * t ** ((k - 3) / 2.0)
            * (1.0 - t) ** (k - 2) * (1.0 + t))


def reference_algebraic(params):
    k, R = params.k, params.R

    def coeffs(t):
        w = reference_weight_alg(t, params)
        p = 4.0 / R**2 * t * (1.0 - t) * w
        q = R**2 * (1.0 - t) * w
        dlogw = (k - 3) / (2.0 * t) - (k - 2) / (1.0 - t) + 1.0 / (1.0 + t)
        dp = p * (dlogw + 1.0 / t - 1.0 / (1.0 - t))
        dq = q * (dlogw - 1.0 / (1.0 - t))
        return p, q, w, dp, dq, w * dlogw

    return coeffs


def reference_harmonic(params, l, s):
    base = reference_algebraic(params)
    R = params.R

    def coeffs(t):
        p, q, w, dp, dq, dw = base(t)
        ang = (4.0 * l * (2 * l + 1) / (3.0 * R**2 * (1.0 + t))
               + s**2 * (3.0 * t - 1.0) / (R**2 * (1.0 - t**2)))
        dang = (-4.0 * l * (2 * l + 1) / (3.0 * R**2 * (1.0 + t) ** 2)
                + s**2 * (3.0 * t**2 - 2.0 * t + 3.0) / (R**2 * (1.0 - t**2) ** 2))
        return p, q + ang * w, w, dp, dq + dang * w + ang * dw, dw

    return coeffs


def reference_liouville(params):
    k, R = params.k, params.R

    def coeffs(tau):
        # numpy's sin, tan and pow for an ndarray tau, the C library's for a float.
        if isinstance(tau, np.ndarray):
            sin, tan, pw = np.sin, np.tan, np.float_power
        else:
            sin, tan, pw = math.sin, math.tan, pow
        s = sin(tau / R)
        x = 1.0 / s
        x2 = x * x
        den = 4.0 * R**2 * x2 * (x2 - 1.0) * pw(x2 + 1.0, 2)
        y = 1.0 / pw(s, 2)
        num = ynum = ydnum = 0.0
        for c in radial._veff_poly_coeffs(k, R):
            num = num * x2 + c
            ydnum = ydnum * y + ynum
            ynum = ynum * y + c
        yden = 4.0 * R**2 * (((y + 1.0) * y - 1.0) * y - 1.0) * y
        ydden = 4.0 * R**2 * ((4.0 * y + 3.0) * y - 2.0) * y - 4.0 * R**2
        dv_dy = (ydnum * yden - ynum * ydden) / pw(yden, 2)
        dy_dtau = -2.0 * y / (R * tan(tau / R))
        return 1.0, num / den, 1.0, 0.0, dv_dy * dy_dtau, 0.0

    return coeffs


def reference_composed(funcs, lo, hi):
    def central(f, t):
        h = 1e-6 * min(t - lo, hi - t)
        return (f(t + h) - f(t - h)) / (2.0 * h) if h > 0.0 else 0.0

    return lambda t: tuple(f(t) for f in funcs) + tuple(central(f, t) for f in funcs)


CALLABLES = (lambda t: 1.0 + t * t, lambda t: 3.0 * t - 1.0, lambda t: 2.0 - t)


def problems_with_references():
    """(label, radius, problem, reference coeffs, truncation (a, b)) for each problem kind."""
    out = []
    for k, R in ((2, 0.75), (3, 1.25), (5, 0.6), (7, 0.9)):
        params = manifold.ModelParams(k=k, R=R)
        out.append((f"radial-k{k}", R, radial.coefficients(params), reference_algebraic(params),
                    (1e-4, 1.0 - 1e-3)))
        lp = radial.liouville_problem(params)
        hi = lp.interval[1]
        out.append((f"liouville-k{k}", R, lp, reference_liouville(params),
                    (1e-3 * hi, hi - 1e-3 * hi)))
    for l, s in ((1, 0), (2, 1)):
        params = manifold.ModelParams(k=2, R=0.75)
        out.append((f"radial-k2-l{l}-s{s}", params.R,
                    radial.coefficients_with_harmonics(params, l, s),
                    reference_harmonic(params, l, s), (1e-3, 1.0 - 1e-3)))
    for label, funcs in (("callables", CALLABLES),
                         ("constant", (lambda t: 1.0, lambda t: 0.0, lambda t: 1.0))):
        prob = radial.SLProblem(p=funcs[0], q=funcs[1], w=funcs[2], interval=(0.0, 1.0))
        out.append((label, 1.0, prob, reference_composed(funcs, 0.0, 1.0), (0.0, 1.0)))
    return out


def test_float_coefficients_equal_reference_arithmetic_bitwise():
    for label, _, prob, reference, _ in problems_with_references():
        lo, hi = prob.interval
        xs = [float(x) for x in graded_points(lo, hi)]
        if prob.p is not None:  # bare callables are also evaluated at the ends
            xs += [lo, hi]
        for x in xs:
            assert bits(prob.coeffs(x)) == bits(reference(x)), (label, x)


def test_liouville_coefficients_are_the_effective_potential_bitwise():
    # The problem's entry point is the potential's own method, and at an
    # ndarray tau its constant entries are arrays of tau's shape.  The float
    # path is checked by the float oracle test above.
    for k, R in ((2, 0.75), (3, 1.25), (5, 0.6), (7, 0.9)):
        params = manifold.ModelParams(k=k, R=R)
        coeffs = radial.liouville_problem(params).coeffs
        assert coeffs.__func__ is radial.EffectivePotential.coeffs
        assert coeffs.__self__ == radial.EffectivePotential(params)
        reference = reference_liouville(params)
        xs = graded_points(0.0, coeffs.__self__.hi)
        for taus in (xs, xs[:400].reshape(20, 20)):
            for got, want in zip(coeffs(taus), reference(taus)):
                assert isinstance(got, np.ndarray) and got.shape == taus.shape, k
                assert got.tobytes() == np.broadcast_to(want, taus.shape).tobytes(), k


def test_matching_function_equals_reference_arithmetic_bitwise():
    # The algebraic truncation starts at 1e-4, inside the log-distance legs.
    for label, radius, prob, reference, (a, b) in problems_with_references():
        twin = radial.SLProblem(coeffs=reference, interval=prob.interval)
        lam = 2.0 + 3.0 * radius
        got = radial.prufer_mismatch(prob, a, b, lam)
        assert got.hex() == radial.prufer_mismatch(twin, a, b, lam).hex(), label


def reference_prufer_integrate(prob, t_from, t_to, lam, phi0, rtol=1e-11):
    """The Prufer integrator with every coefficient evaluated on every call."""
    lo, hi = prob.interval
    atol = 1e-2 * rtol

    def slope(t, y):
        c, s = math.cos(y[0]), math.sin(y[0])
        pv, qv, wv, dpv, dqv, dwv = prob.coeffs(t)
        bal = wv + abs(qv)
        sig = math.sqrt(pv * bal)
        sgn = 1.0 if qv > 0.0 else (-1.0 if qv < 0.0 else 0.0)
        dlog = 0.5 * (dpv / pv + (dwv + sgn * dqv) / bal)
        return sig / pv * c * c + (lam * wv - qv) / sig * s * s + dlog * s * c

    width = hi - lo
    anchor = lo if abs(t_from - lo) <= abs(t_from - hi) else hi
    d_from, d_to = abs(t_from - anchor), abs(t_to - anchor)
    rhs, legs = slope, [(t_from, t_to, rtol, atol)]
    if 0.0 < d_from < 0.01 * width <= d_to:
        sign = 1.0 if anchor == lo else -1.0

        def rhs(u, y):
            dt_du = sign * math.exp(u)
            return dt_du * slope(anchor + dt_du, y)

        u_from, u_cut, u_to = math.log(d_from), math.log(1e-3 * width), math.log(d_to)
        legs = [(u_from, u_to, rtol, atol)]
        if u_cut - u_from >= 2.0 * np.finfo(float).eps * max(abs(u_from), abs(u_cut)):
            legs = [(u_from, u_cut, max(rtol, 1e-8), max(atol, 1e-8)), (u_cut, u_to, rtol, atol)]
    phi = phi0
    for leg_from, leg_to, leg_rtol, leg_atol in legs:
        y = odeint(rhs, [phi], [leg_from, leg_to], tfirst=True, tcrit=[leg_to],
                   rtol=leg_rtol, atol=leg_atol, mxstep=radial._MXSTEP)
        phi = float(y[-1, 0])
    return phi


def prufer_legs():
    """(label, problem, t_from, t_to, lam, phi0): forward and backward legs of each kind."""
    cases = []

    def both_ways(label, prob, a, b, bc, lams):
        phi_a = 0.0 if bc[0] == "dirichlet" else 0.5 * math.pi
        phi_b = math.pi if bc[1] == "dirichlet" else 0.5 * math.pi
        for lam in lams:
            cases.append((label, prob, a, 0.5 * (a + b), lam, phi_a))
            cases.append((label, prob, b, 0.5 * (a + b), lam, phi_b))

    # The deep-cut log legs of gap --k 5 --R 0.5 at the three bench levels.
    gap = radial.liouville_problem(manifold.ModelParams(k=5, R=0.5))
    for a, b in radial.default_schedule(gap, levels=3):
        both_ways("liouville-k5", gap, a, b, ("dirichlet", "dirichlet"), (0.16, 2.5))
    # Flux conditions toward the limit-circle and regular ends.
    harmonic = radial.coefficients_with_harmonics(manifold.ModelParams(k=2), 1, 0)
    for label, prob in (("radial-k3", radial.coefficients(manifold.ModelParams(k=3))),
                        ("radial-k4", radial.coefficients(manifold.ModelParams(k=4))),
                        ("radial-k2-l1-s0", harmonic)):
        for a, b in radial.default_schedule(prob, levels=3):
            both_ways(label, prob, a, b, default_bc(prob), (0.3, 4.0))
    # Bare callables on the whole interval (criterion 01), and a start
    # rounded onto the deep cut, which leaves a single log-distance leg.
    both_ways("constant", const_problem(), 0.0, 1.0, ("dirichlet", "dirichlet"),
              (math.pi**2, 30.0))
    shallow = radial.liouville_problem(manifold.ModelParams(k=4, R=0.29780402771124387))
    (a, b), = radial.default_schedule(shallow, levels=2)[1:]
    both_ways("liouville-k4-shallow", shallow, a, b, ("dirichlet", "dirichlet"), (1.0,))
    return cases


def test_prufer_integrate_equals_per_call_coefficient_reference_bitwise(monkeypatch):
    legs_per_call = []
    real = radial.odeint

    def counting_odeint(*args, **kwargs):
        legs_per_call[-1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "odeint", counting_odeint)
    for label, prob, t_from, t_to, lam, phi0 in prufer_legs():
        legs_per_call.append(0)
        got = radial._prufer_integrate(prob, t_from, t_to, lam, phi0)
        want = reference_prufer_integrate(prob, t_from, t_to, lam, phi0)
        assert got.hex() == want.hex(), (label, t_from, t_to, lam)
    # Both the one-leg (t or shallow log) and the two-leg (deep log) paths ran.
    assert set(legs_per_call) == {1, 2}


def test_solve_truncated_and_a_direct_mismatch_share_one_atol(monkeypatch):
    tolerances = []
    real = radial.odeint

    def spy(*args, **kwargs):
        tolerances.append((kwargs["rtol"], kwargs["atol"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "odeint", spy)
    radial.solve_truncated(const_problem(), 0.0, 1.0, count=1)
    solved = set(tolerances)
    tolerances.clear()
    radial.prufer_mismatch(const_problem(), 0.0, 1.0, 5.0)
    assert set(tolerances) == solved == {(1e-11, 1e-2 * 1e-11)}


def test_coefficients_are_evaluated_once_per_abscissa(monkeypatch):
    # Level index 2 of gap --k 5 --R 0.5: two log-distance legs at each end.
    base = radial.liouville_problem(manifold.ModelParams(k=5, R=0.5))
    evaluations = []

    def counted(t):
        evaluations.append(t)
        return base.coeffs(t)

    prob = radial.SLProblem(coeffs=counted, interval=base.interval)
    legs = []
    real = radial.odeint

    def spy(rhs, *args, **kwargs):
        abscissae = []
        legs.append(abscissae)

        def recorded(x, y):
            abscissae.append(x)
            return rhs(x, y)

        return real(recorded, *args, **kwargs)

    monkeypatch.setattr(radial, "odeint", spy)
    a, b = radial.default_schedule(prob, levels=3)[2]
    for t_from, phi0 in ((a, 0.0), (b, math.pi)):
        evaluations.clear()
        legs.clear()
        radial._prufer_integrate(prob, t_from, 0.5 * (a + b), 0.16, phi0)
        assert len(legs) == 2
        # One evaluation per change of abscissa between consecutive calls,
        # counted across the leg boundary: the second leg opens at the cut,
        # where the first one stopped.
        xs = [x for leg in legs for x in leg]
        assert len(evaluations) == 1 + sum(u != v for u, v in zip(xs, xs[1:]))
        assert len(evaluations) <= 0.6 * len(xs), (len(evaluations), len(xs))


def test_fd_eigenvalues_equal_the_eigenvector_solve_bitwise(monkeypatch):
    # The Liouville-form solves of the benchmark: eigenvalues only must equal
    # the eigenvalues of a solve that also returns eigenvectors.
    def solve_all():
        out = []
        for k in range(2, 8):
            for R in (0.5, 0.75, 1.0):
                params = manifold.ModelParams(k=k, R=R)
                lo = manifold.tau_of_t(1e-3, params)
                hi = manifold.tau_of_t(1.0 - 1e-3, params)
                vals = radial.solve_truncated_fd(radial.liouville_problem(params), lo, hi,
                                                 count=5, bc=("dirichlet", "dirichlet"),
                                                 npoints=2000)
                out.append(((k, R), bits(vals)))
        return out

    eigenvalues_only = solve_all()

    def eigh_with_vectors(d, e, eigvals_only, **kwargs):
        assert eigvals_only
        return eigh_tridiagonal(d, e, **kwargs)[0]

    monkeypatch.setattr(radial, "eigh_tridiagonal", eigh_with_vectors)
    assert solve_all() == eigenvalues_only


def test_scipy_solvers_are_patchable_module_attributes(monkeypatch):
    # A solve runs whatever `radial.<name>` holds, as the spies above and the
    # benchmark's tracer rely on; the names import scipy on first access.
    assert radial.odeint is odeint and radial.brentq is brentq
    assert radial.eigh_tridiagonal is eigh_tridiagonal
    assert not hasattr(radial, "no_such_name")
    calls = {"brentq": 0, "eigh_tridiagonal": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(radial, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(radial, name, counted)
    vals = radial.solve_truncated(const_problem(), 0.0, 1.0, count=2)
    assert calls == {"brentq": 2, "eigh_tridiagonal": 1}
    assert np.allclose(vals, [math.pi**2, (2 * math.pi)**2], rtol=1e-8)
    radial.solve_truncated_fd(const_problem(), 0.0, 1.0, count=2)  # two meshes
    assert calls == {"brentq": 2, "eigh_tridiagonal": 3}


# ---------------------------------------------------------------------------
# Endpoint classification and Frobenius exponents
# ---------------------------------------------------------------------------


def _richardson(v0, v1, v2):
    """Limit d -> 0 of estimates at d, 2 d, 4 d whose error is c1 d + c2 d^2."""
    return (4.0 * (2.0 * v0 - v1) - (2.0 * v1 - v2)) / 3.0


def _local_exponent(f, endpoint, side, eps):
    """Power-law exponent of f near the endpoint.

    Log-ratio estimates at nested scales eps, 2 eps, 4 eps, 8 eps are
    Richardson-extrapolated (f ~ C d^a (1 + c1 d + ...) makes the estimate
    linear-plus-quadratic in d).
    """
    def ratio(j):
        d1 = eps * 2.0**j
        v1, v2 = f(endpoint + side * d1), f(endpoint + side * 2.0 * d1)
        assert v1 > 0.0 and v2 > 0.0, "exponent probe requires positive coefficient values"
        return math.log(v2 / v1) / math.log(2.0)

    return _richardson(*(ratio(j) for j in range(3)))


def probe_exponents(prob, endpoint):
    """Indicial exponents and log case, probed numerically from `prob.coeffs`.

    The indicial polynomial at t0 is mu (mu - 1) + r0 mu + q0 = 0 with
    r0 = lim (t - t0) p'/p, the local power-law exponent of p, and
    q0 = lim (t - t0)^2 (-q)/p.  The probes start 1e-7 interval widths from
    the endpoint.
    """
    lo, hi = prob.interval
    side = 1.0 if abs(endpoint - lo) < abs(endpoint - hi) else -1.0
    eps = 1e-7 * (hi - lo)
    r0 = _local_exponent(lambda t: prob.coeffs(t)[0], endpoint, side, eps=eps)

    def q0_probe(t):
        p, q = prob.coeffs(t)[:2]
        return (t - endpoint) ** 2 * (-q) / p

    q0 = _richardson(*(q0_probe(endpoint + side * eps * 2.0**j) for j in range(3)))
    disc = (r0 - 1.0) ** 2 - 4.0 * q0
    assert disc > -1e-6, f"complex indicial exponents at {endpoint} (disc={disc:.3e})"
    root = math.sqrt(max(disc, 0.0))
    mu1, mu2 = 0.5 * (1.0 - r0 + root), 0.5 * (1.0 - r0 - root)
    return (mu1, mu2), abs(mu1 - mu2 - round(mu1 - mu2)) < 1e-6


def probe_endpoint(prob, endpoint):
    """Weyl classification by quadrature-free integrability probes.

    Regular: 1/p, q, w all integrable at the endpoint (local power-law
    exponents > -1).  Limit circle: both Frobenius solutions square-integrable
    against w, i.e. 2 mu_min + alpha_w > -1 strictly.  Otherwise limit point.
    The probes start 1e-6 interval widths from the endpoint.
    """
    lo, hi = prob.interval
    side = 1.0 if abs(endpoint - lo) < abs(endpoint - hi) else -1.0
    eps = 1e-6 * (hi - lo)
    alpha_invp = -_local_exponent(lambda t: prob.coeffs(t)[0], endpoint, side, eps)
    alpha_q = _local_exponent(lambda t: abs(prob.coeffs(t)[1]) + 1e-300, endpoint, side, eps)
    alpha_w = _local_exponent(lambda t: prob.coeffs(t)[2], endpoint, side, eps)
    exps, log_case = probe_exponents(prob, endpoint)
    tol = 1e-3
    if alpha_invp > -1.0 + tol and alpha_q > -1.0 + tol and alpha_w > -1.0 + tol:
        kind = radial.EndpointKind.REGULAR
    elif 2.0 * min(exps) + alpha_w > -1.0 + tol:
        kind = radial.EndpointKind.LIMIT_CIRCLE
    else:
        kind = radial.EndpointKind.LIMIT_POINT
    return radial.EndpointReport(kind=kind, exponents=exps, log_case=log_case)


def test_closed_form_endpoints_match_the_exponent_probe():
    # The probe is exact enough wherever the potential does not cancel: not at
    # the Liouville form's right end, which the next test pins instead.
    cases = [(f"k={k} R={R}", radial.coefficients(manifold.ModelParams(k=k, R=R)), (0, 1))
             for k in range(2, 9) for R in (0.5, 1.0, 2.0)]
    cases += [(f"l={l} s={s}", radial.coefficients_with_harmonics(manifold.ModelParams(k=2), l, s),
               (0, 1)) for l, s in ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 3))]
    cases += [(f"liouville k={k}", radial.liouville_problem(manifold.ModelParams(k=k)), (0,))
              for k in range(2, 9)]
    for label, prob, ends in cases:
        for end in ends:
            endpoint = prob.interval[end]
            exact = radial.classify_endpoint(prob, endpoint)
            probed = probe_endpoint(prob, endpoint)
            assert exact is prob.endpoints[end], (label, endpoint)
            assert exact.kind is probed.kind, (label, endpoint)
            assert exact.log_case == probed.log_case, (label, endpoint)
            assert exact.exponents == pytest.approx(probed.exponents, abs=1e-6), (label, endpoint)
            assert radial.frobenius_exponents(prob, endpoint) == (exact.exponents, exact.log_case)
    prob = radial.coefficients(manifold.ModelParams(k=3))
    with pytest.raises(ValueError, match=r"endpoint must be one of \(0.0, 1.0\), got 0.5"):
        radial.classify_endpoint(prob, 0.5)


def test_liouville_inverse_square_coefficients_match_the_potential():
    # delta^2 V_eff(tau0 +- delta) = c + O(delta^2); one Richardson step in
    # delta^2 leaves ~1e-9, the cancellation of V_eff near pi R / 2.
    for k in range(2, 12):
        for R in (0.25, 0.5, 1.0, 2.0, 10.0):
            params = manifold.ModelParams(k=k, R=R)
            veff = radial.EffectivePotential(params)
            delta = 3e-4 * veff.hi
            for endpoint, side in ((0.0, 1.0), (veff.hi, -1.0)):
                def scaled(d):
                    return d * d * veff.value(endpoint + side * d)

                estimate = (4.0 * scaled(delta) - scaled(2.0 * delta)) / 3.0
                c = radial.veff_inverse_square(params, endpoint)
                assert abs(estimate - c) <= 1e-8 * max(1.0, abs(c)), (k, R, endpoint, estimate, c)


def test_endpoint_table():
    for k in range(2, 7):
        params = manifold.ModelParams(k=k)
        reports = radial.classify_endpoints(params)
        expected = radial.expected_endpoint_kinds(k)
        assert reports[0.0].kind is expected[0.0], k
        assert reports[1.0].kind is expected[1.0], k


def test_liouville_endpoint_kinds_do_not_depend_on_R():
    # k = 3 sits on the LP/LC threshold c = 3/4 and k = 2 on the double
    # exponent c = -1/4 at the right end.
    for k in range(2, 7):
        kinds = {R: radial._endpoint_kinds(radial.liouville_problem(manifold.ModelParams(k=k, R=R)))
                 for R in (0.25, 0.5, 1.0, 10.0, 100.0)}
        assert len(set(kinds.values())) == 1, (k, kinds)
        assert kinds[1.0][1] is radial.expected_endpoint_kinds(k)[1.0], k
    for R in (0.25, 0.5, 1.0, 10.0, 100.0):
        prob = radial.liouville_problem(manifold.ModelParams(k=2, R=R))
        assert radial.classify_endpoint(prob, prob.interval[1]) == radial.EndpointReport(
            kind=radial.EndpointKind.LIMIT_CIRCLE, exponents=(0.5, 0.5), log_case=True)


def test_frobenius_exponents_closed_form():
    for k in range(2, 9):
        prob = radial.coefficients(manifold.ModelParams(k=k))
        (mu1, mu2), log0 = radial.frobenius_exponents(prob, 0.0)
        assert sorted([mu1, mu2]) == pytest.approx(
            sorted([0.0, (3.0 - k) / 2.0]), abs=1e-6
        )
        assert log0 == (k % 2 == 1)  # integer difference iff k odd (k=3: double root)
        (nu1, nu2), log1 = radial.frobenius_exponents(prob, 1.0)
        assert sorted([nu1, nu2]) == pytest.approx(sorted([0.0, 2.0 - k]), abs=1e-6)
        assert log1  # 2 - k is always an integer


def test_analytic_derivatives_match_finite_differences():
    for maker in (
        lambda: radial.coefficients(manifold.ModelParams(k=4, R=1.5)),
        lambda: radial.coefficients_with_harmonics(manifold.ModelParams(k=2), 2, 1),
        lambda: radial.liouville_problem(manifold.ModelParams(k=5, R=0.5)),
    ):
        prob = maker()
        lo, hi = prob.interval
        for frac in (0.2, 0.5, 0.8):
            t = lo + frac * (hi - lo)
            h = 1e-6 * (hi - lo)
            for i in range(3):
                fd = (prob.coeffs(t + h)[i] - prob.coeffs(t - h)[i]) / (2.0 * h)
                scale = max(abs(fd), abs(prob.coeffs(t)[i]) / (hi - lo), 1e-12)
                assert abs(prob.coeffs(t)[i + 3] - fd) < 1e-5 * scale


# ---------------------------------------------------------------------------
# Boundary conditions and domain monotonicity
# ---------------------------------------------------------------------------


def test_flux_and_dirichlet_differ_at_regular_endpoint():
    # k = 2: t = 0 is a regular endpoint, so the flux and Dirichlet problems
    # are genuinely different extensions.
    prob = radial.coefficients(manifold.ModelParams(k=2))
    a, b = 1e-4, 1.0 - 1e-4
    flux = radial.solve_truncated(prob, a, b, count=1, bc=("flux", "dirichlet"))
    diri = radial.solve_truncated(prob, a, b, count=1, bc=("dirichlet", "dirichlet"))
    assert abs(flux[0] - diri[0]) > 1e-2 * max(abs(flux[0]), 1.0)


def test_dirichlet_domain_monotonicity():
    # Enlarging the interval can only lower Dirichlet eigenvalues.
    prob = radial.coefficients(manifold.ModelParams(k=5))
    small = radial.solve_truncated(prob, 1e-2, 1.0 - 1e-2, count=2)
    large = radial.solve_truncated(prob, 1e-3, 1.0 - 1e-3, count=2)
    assert large[0] <= small[0] + 1e-12
    assert large[1] <= small[1] + 1e-12


def test_liouville_isospectral_on_matched_truncations():
    params = manifold.ModelParams(k=3)
    prob_t = radial.coefficients(params)
    prob_tau = radial.liouville_problem(params)
    a = 1e-3
    t_vals = radial.solve_truncated(prob_t, a, 1.0 - a, count=2)
    tau_vals = radial.solve_truncated(
        prob_tau,
        manifold.tau_of_t(a, params),
        manifold.tau_of_t(1.0 - a, params),
        count=2,
    )
    assert np.allclose(t_vals, tau_vals, rtol=1e-6)


# ---------------------------------------------------------------------------
# Effective potential
# ---------------------------------------------------------------------------


def generic_transform_value(params, tau):
    """Independent V_eff: (sqrt w)'' / sqrt w + R^2 cos^2(tau / R).

    The second derivative of sqrt(w_trig) is taken by fourth-order central
    differences with step 1e-3 min(tau, pi R / 2 - tau, R) and Richardson
    extrapolation; constants in w drop out.
    """
    R = params.R

    def s(x):
        return math.sqrt(manifold.weight_trig(x, params))

    h = 1e-3 * min(tau, math.pi * R / 2.0 - tau, R)

    def second(hh):
        return (
            -s(tau - 2 * hh)
            + 16.0 * s(tau - hh)
            - 30.0 * s(tau)
            + 16.0 * s(tau + hh)
            - s(tau + 2 * hh)
        ) / (12.0 * hh * hh)

    d2 = (16.0 * second(h / 2.0) - second(h)) / 15.0
    return d2 / s(tau) + R**2 * math.cos(tau / R) ** 2


def lambda_shift_residual(params, tau, lam):
    """A(lam)/B - (A(0)/B - lam) for the numerator A(lam) of V_eff - lam.

    A(lam) adds -4 lam R^2 to the x^8 and x^6 coefficients of A(0) and
    +4 lam R^2 to the x^4 and x^2 ones, which is -lam B: identically zero.
    """
    k, R = params.k, params.R
    shift = 4.0 * lam * R**2
    x2 = 1.0 / math.sin(tau / R) ** 2
    num = 0.0
    for c, d in zip(radial._veff_poly_coeffs(k, R), (0.0, -shift, -shift, shift, shift, 0.0)):
        num = num * x2 + (c + d)
    den = 4.0 * R**2 * x2 * (x2 - 1.0) * (x2 + 1.0) ** 2
    return num / den - (radial.EffectivePotential(params).value(tau) - lam)


def test_veff_closed_form_vs_generic_transform():
    for k in (2, 3, 5):
        params = manifold.ModelParams(k=k, R=1.0)
        veff = radial.EffectivePotential(params)
        hi = math.pi * params.R / 2.0
        for frac in np.linspace(0.1, 0.9, 9):
            tau = frac * hi
            closed = veff.value(tau)
            generic = generic_transform_value(params, tau)
            assert abs(closed - generic) < 1e-6 * max(abs(closed), 1.0), (k, tau)


def test_veff_lambda_shift_identity():
    params = manifold.ModelParams(k=4, R=0.7)
    for tau in (0.2, 0.5, 0.9):
        for lam in (0.0, 3.0, 11.0):
            assert abs(lambda_shift_residual(params, tau, lam)) < 1e-10


def test_veff_exponent_table():
    params = manifold.ModelParams(k=5, R=1.0)
    at0 = radial.veff_exponents(params, 0.0)
    assert sorted(at0) == pytest.approx([2.0 - 5 / 2.0, 5 / 2.0 - 1.0])
    at_hi = radial.veff_exponents(params, math.pi / 2.0)
    assert sorted(at_hi) == pytest.approx([5.0 / 2.0 - 5.0, 5.0 - 3.0 / 2.0])


def test_leading_veff_coefficient_vanishes_at_k2_and_k4():
    assert radial._veff_poly_coeffs(2, 1.0)[0] == 0.0
    assert radial._veff_poly_coeffs(4, 1.0)[0] == 0.0
    assert radial._veff_poly_coeffs(3, 1.0)[0] == -1.0


def test_convexity_k5():
    rep = radial.convexity_check(manifold.ModelParams(k=5, R=0.5))
    assert rep["convex"]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 12, 40, 410])
def test_convexity_check_refuses_a_potential_outside_the_doubles(k):
    # Each radius the model accepts gets a finite minimum second difference or
    # a ValueError, and no numpy warning.
    answered = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in range(-300, 301, 5):
            try:
                params = manifold.ModelParams(k=k, R=10.0**exponent)
            except ValueError:
                continue
            try:
                rep = radial.convexity_check(params)
            except ValueError as exc:
                assert "leaves the doubles" in str(exc)
                continue
            assert math.isfinite(rep["min_second_derivative"])
            answered += 1
    assert answered
    if k == 2:
        for radius in (1e-75, 1e75):
            with pytest.raises(ValueError, match=re.escape(f"k = 2, R = {radius!r}")):
                radial.convexity_check(manifold.ModelParams(k=2, R=radius))


# ---------------------------------------------------------------------------
# Spectrum driver
# ---------------------------------------------------------------------------


def test_accelerate_geometric_sequence():
    exact = np.array([2.5, 7.0])
    hist = [exact + 0.3 * 0.25**r for r in range(6)]
    final, resid = radial.accelerate(hist)
    assert np.allclose(final, exact, atol=1e-10)
    assert resid.shape == exact.shape and np.max(resid) < 1e-9
    with pytest.raises(ValueError, match="two truncation levels"):
        radial.accelerate([exact])


def test_default_schedule_and_bc():
    prob = radial.coefficients(manifold.ModelParams(k=5))
    sched = radial.default_schedule(prob)
    assert len(sched) == 7
    assert sched[0] == pytest.approx((1e-2, 1.0 - 1e-2))
    assert sched[6] == pytest.approx((1e-8, 1.0 - 1e-8))
    assert default_bc(prob) == ("dirichlet", "dirichlet")
    # k = 2: regular at t = 0 and limit circle at t = 1, flux at both.
    prob2 = radial.coefficients(manifold.ModelParams(k=2))
    assert default_bc(prob2) == ("flux", "flux")


def test_spectrum_regular_problem_neumann():
    with pytest.raises(ValueError, match="no endpoint classification"):
        radial.spectrum(const_problem(), count=2, tol=1e-8)
    regular = radial.EndpointReport(kind=radial.EndpointKind.REGULAR, exponents=(1.0, 0.0),
                                    log_case=True)
    prob = radial.SLProblem(p=lambda t: 1.0, q=lambda t: 0.0, w=lambda t: 1.0,
                            interval=(0.0, 1.0), endpoints=(regular, regular))
    res = radial.spectrum(prob, count=2, tol=1e-8)
    # Default boundary conditions at regular endpoints are the flux condition.
    assert default_bc(prob) == ("flux", "flux")
    assert res.converged and res.convergence_proven
    assert abs(res.raw[0]) < 1e-6
    assert res.raw[1] == pytest.approx(math.pi**2, rel=1e-6)


def chained_seed_solve(prob, a, b, count, bc, seeds):
    """Eigenvalues on [a, b] bracketed from given seeds, as `spectrum` once seeded
    each level from the previous level's eigenvalues."""
    out = []
    for index in range(count):
        def miss(lam, target=index * math.pi):
            return radial.prufer_mismatch(prob, a, b, lam, bc=bc) - target

        guess = float(seeds[index])
        delta = 1e-4 * (1.0 + abs(guess))
        for _ in range(40):
            lo, hi = guess - delta, guess + delta
            if out and lo <= out[-1]:
                lo = 0.5 * (out[-1] + guess)
            if miss(lo) < 0.0 < miss(hi):
                break
            delta *= 4.0
        else:
            raise AssertionError(f"seed {guess} brackets no eigenvalue")
        out.append(float(brentq(miss, lo, hi, xtol=1e-10, rtol=4.0 * np.finfo(float).eps)))
    return np.array(out)


def bench_spectra():
    """(name, problem, boundary conditions) of the four spectra of the benchmark."""
    gap = radial.liouville_problem(manifold.ModelParams(k=5, R=0.5))
    out = [("gap-k5-R0.5", gap, ("dirichlet", "dirichlet"))]
    for k in (3, 4):
        prob = radial.coefficients(manifold.ModelParams(k=k))
        out.append((f"spectrum-k{k}", prob, default_bc(prob)))
    prob = radial.coefficients_with_harmonics(manifold.ModelParams(k=2), 1, 0)
    out.append(("spectrum-k2-l1-s0", prob, default_bc(prob)))
    return out


def test_fd_seeded_levels_agree_with_previous_level_seeds():
    # Seeds from each level's own coarse FD solve land on the same roots as
    # seeds from the previous level's eigenvalues.  gap-k5-R0.5's lambda_0 is
    # the exception in width: its matching function changes sign irregularly
    # within about 3e-8 relative of the root (LSODA error, ROADMAP item 4), so
    # two brackets find two of those sign changes (2.0e-8 apart at level 1).
    for name, prob, bc in bench_spectra():
        res = radial.spectrum(prob, count=2, tol=1e-3, levels=3, bc=bc)
        schedule = radial.default_schedule(prob, levels=3)
        seeds = res.history[0]
        for level, (a, b) in enumerate(schedule[1:], start=1):
            old = chained_seed_solve(prob, a, b, 2, bc, seeds)
            rtol = np.array([3e-8 if name == "gap-k5-R0.5" else 1e-9, 1e-9])
            dev = np.abs(res.history[level] - old) / np.abs(old)
            assert np.all(dev <= rtol), (name, level, dev)
            seeds = old


def test_spectrum_k3_shoots_at_most_40_times(monkeypatch):
    shots = []
    real = radial.prufer_mismatch

    def spy(*args, **kwargs):
        shots.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "prufer_mismatch", spy)
    radial.spectrum(radial.coefficients(manifold.ModelParams(k=3)), count=2, tol=1e-3, levels=3)
    # 32 shots; seeding levels 1 and 2 from the level before took 54, and
    # widening both bracket ends, not only the near one, took 38.
    assert len(shots) <= 32


def test_gap_job_shoots_at_most_43_times(monkeypatch):
    shots = []
    real = radial.prufer_mismatch

    def spy(*args, **kwargs):
        shots.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "prufer_mismatch", spy)
    radial.gap_analysis(manifold.ModelParams(k=5, R=0.5), tol=1e-3, levels=3)
    # 43 shots; stopping brentq at a bracket of 1e-10 absolute, below the
    # noise LSODA leaves in D at lambda_1 ~ 95, took 70.
    assert len(shots) <= 43


def test_roots_lie_within_the_relative_stop_of_the_full_precision_root(monkeypatch):
    # On matching functions without LSODA noise to speak of, from lambda ~ 1e-3
    # (the constant problem on (0, 100)) to 1e5 (on (0, 0.01)), each root lies
    # within the stop's bracket of the root brentq reaches on the same shots
    # at its finest relative tolerance.
    pairs = []

    def both(f, lo, hi, **kwargs):
        root = brentq(f, lo, hi, **kwargs)
        pairs.append((root, brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)))
        return root

    monkeypatch.setattr(radial, "brentq", both)
    for length in (1e-2, 1.0, 1e2):
        prob = radial.SLProblem(p=lambda t: 1.0, q=lambda t: 0.0, w=lambda t: 1.0,
                                interval=(0.0, length))
        radial.solve_truncated(prob, 0.0, length, count=2)
    for k in (3, 4):
        prob = radial.coefficients(manifold.ModelParams(k=k))
        (a, b), = radial.default_schedule(prob, levels=1)
        radial.solve_truncated(prob, a, b, count=2, bc=default_bc(prob))
    assert len(pairs) == 10
    for root, full in pairs:
        assert abs(root - full) <= 1e-9 * abs(full) + 1e-12, (root, full)


@pytest.mark.parametrize("bc, q", [(("dirichlet", "dirichlet"), -math.pi**2),
                                   (("dirichlet", "flux"), -math.pi**2 / 4)],
                         ids=["dirichlet-dirichlet", "dirichlet-flux"])
def test_absolute_floor_ends_the_search_at_a_zero_eigenvalue(monkeypatch, bc, q):
    # -f'' + q f = lambda f on (0, 1), with -q the lowest eigenvalue of -f''
    # under the same conditions, so lambda_0 = 0 exactly.  Unlike the flux-flux constant problem, D never
    # returns exactly 0.0 near this root: without the absolute floor brentq
    # halves the bracket down to the doubles around 0 (32 and 38 shots).
    shots = []
    real = radial.prufer_mismatch

    def spy(*args, **kwargs):
        shots.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "prufer_mismatch", spy)
    prob = radial.SLProblem(p=lambda t: 1.0, q=lambda t: q, w=lambda t: 1.0, interval=(0.0, 1.0))
    lam = radial.solve_truncated(prob, 0.0, 1.0, count=2, bc=bc)
    assert abs(lam[0]) <= 1e-8
    assert len(shots) <= 16  # 11 for each bc


def test_oracle_comparison_quick():
    rep = radial.oracle_comparison(manifold.ModelParams(k=3, R=1.0), count=3)
    assert rep["max_rel_deviation"] < 1e-6
    assert len(rep["shooting"]) == 3


# ---------------------------------------------------------------------------
# Bounds and constants
# ---------------------------------------------------------------------------


def test_rayleigh_upper_bound_value():
    assert radial.rayleigh_upper_bound(manifold.ModelParams(k=5, R=1.0)) == pytest.approx(9.0 / 14.0)
    assert radial.rayleigh_upper_bound(manifold.ModelParams(k=2, R=2.0)) == pytest.approx(2.4)


def test_hardy_constants_hold():
    for k in (2, 5, 6):
        rep = radial.hardy_constant_check(manifold.ModelParams(k=k, R=1.0), npoints=400)
        assert rep["all_hold"], (k, rep["margins"])


def test_gap_analysis_report_k5():
    rep = radial.gap_analysis(manifold.ModelParams(k=5, R=1.0), levels=5)
    assert rep["gap"] == pytest.approx(rep["lambda1_raw"] - rep["lambda0_raw"])
    assert rep["convex_potential"]
    assert rep["lavine_bound_classical"] == pytest.approx(12.0 / 1.0**2)
    assert rep["lavine_bound_recorded"] == pytest.approx(12.0 / math.pi)
    assert rep["gap"] > 0.0
    assert isinstance(rep["gap_exceeds_12_over_R2"], bool)
