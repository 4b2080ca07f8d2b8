import math

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
        (k3, a, b, 2, radial.default_bc(k3)),
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


def test_failed_fd_seed_warns_and_falls_back(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("probe")

    monkeypatch.setattr(radial, "solve_truncated_fd", broken)
    with pytest.warns(RuntimeWarning, match="probe"):
        vals = radial.solve_truncated(const_problem(), 0.0, 1.0, count=2)
    expect = np.array([math.pi**2, 4 * math.pi**2])
    assert np.max(np.abs(vals - expect) / expect) < 1e-8


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
    problems = [radial.coefficients(manifold.ModelParams(k=k, R=0.75)) for k in range(2, 8)]
    problems += [radial.coefficients_with_harmonics(manifold.ModelParams(k=2), l, s)
                 for l, s in ((1, 0), (2, 1))]
    problems.append(const_problem())
    for prob in problems:
        xs = graded_points(*prob.interval)
        arrays = np.array(prob.coeffs(xs), dtype=float)
        assert arrays.shape == (6, len(xs))
        assert np.array_equal(arrays, scalar_coeffs(prob, xs)), prob.name


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
        s = math.sin(tau / R)
        x = 1.0 / s
        x2 = x * x
        den = 4.0 * R**2 * x2 * (x2 - 1.0) * (x2 + 1.0) ** 2
        y = 1.0 / s**2
        num = ynum = ydnum = 0.0
        for c in radial._veff_poly_coeffs(k, R):
            num = num * x2 + c
            ydnum = ydnum * y + ynum
            ynum = ynum * y + c
        yden = 4.0 * R**2 * (((y + 1.0) * y - 1.0) * y - 1.0) * y
        ydden = 4.0 * R**2 * ((4.0 * y + 3.0) * y - 2.0) * y - 4.0 * R**2
        dv_dy = (ydnum * yden - ynum * ydden) / yden**2
        dy_dtau = -2.0 * y / (R * math.tan(tau / R))
        return 1.0, num / den, 1.0, 0.0, dv_dy * dy_dtau, 0.0

    return coeffs


def reference_composed(funcs, lo, hi):
    def central(f, t):
        h = 1e-6 * min(t - lo, hi - t)
        return (f(t + h) - f(t - h)) / (2.0 * h) if h > 0.0 else 0.0

    return lambda t: tuple(f(t) for f in funcs) + tuple(central(f, t) for f in funcs)


CALLABLES = (lambda t: 1.0 + t * t, lambda t: 3.0 * t - 1.0, lambda t: 2.0 - t)


def problems_with_references():
    """(problem, reference coeffs, truncation (a, b)) for each problem kind."""
    out = []
    for k, R in ((2, 0.75), (3, 1.25), (5, 0.6), (7, 0.9)):
        params = manifold.ModelParams(k=k, R=R)
        out.append((radial.coefficients(params), reference_algebraic(params), (1e-4, 1.0 - 1e-3)))
        lp = radial.liouville_problem(params)
        hi = lp.interval[1]
        out.append((lp, reference_liouville(params), (1e-3 * hi, hi - 1e-3 * hi)))
    for l, s in ((1, 0), (2, 1)):
        params = manifold.ModelParams(k=2, R=0.75)
        out.append((radial.coefficients_with_harmonics(params, l, s),
                    reference_harmonic(params, l, s), (1e-3, 1.0 - 1e-3)))
    for funcs in (CALLABLES, (lambda t: 1.0, lambda t: 0.0, lambda t: 1.0)):
        prob = radial.SLProblem(p=funcs[0], q=funcs[1], w=funcs[2], interval=(0.0, 1.0))
        out.append((prob, reference_composed(funcs, 0.0, 1.0), (0.0, 1.0)))
    return out


def test_float_coefficients_equal_reference_arithmetic_bitwise():
    for prob, reference, _ in problems_with_references():
        lo, hi = prob.interval
        xs = [float(x) for x in graded_points(lo, hi)]
        if prob.p is not None:  # bare callables are also evaluated at the ends
            xs += [lo, hi]
        for x in xs:
            assert bits(prob.coeffs(x)) == bits(reference(x)), (prob.name, x)


def test_matching_function_equals_reference_arithmetic_bitwise():
    # The algebraic truncation starts at 1e-4, inside the log-distance legs.
    for prob, reference, (a, b) in problems_with_references():
        twin = radial.SLProblem(coeffs=reference, interval=prob.interval)
        lam = 2.0 + 3.0 * (prob.params.R if prob.params else 1.0)
        got = radial.prufer_mismatch(prob, a, b, lam)
        assert got.hex() == radial.prufer_mismatch(twin, a, b, lam).hex(), prob.name


def reference_prufer_integrate(prob, t_from, t_to, lam, phi0, rtol=1e-11, atol=1e-13):
    """The Prufer integrator with every coefficient evaluated on every call."""
    lo, hi = prob.interval

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
    """(problem, t_from, t_to, lam, phi0): forward and backward legs of each kind."""
    cases = []

    def both_ways(prob, a, b, bc, lams):
        phi_a = 0.0 if bc[0] == "dirichlet" else 0.5 * math.pi
        phi_b = math.pi if bc[1] == "dirichlet" else 0.5 * math.pi
        for lam in lams:
            cases.append((prob, a, 0.5 * (a + b), lam, phi_a))
            cases.append((prob, b, 0.5 * (a + b), lam, phi_b))

    # The deep-cut log legs of gap --k 5 --R 0.5 at the three bench levels.
    gap = radial.liouville_problem(manifold.ModelParams(k=5, R=0.5))
    for a, b in radial.default_schedule(gap, levels=3):
        both_ways(gap, a, b, ("dirichlet", "dirichlet"), (0.16, 2.5))
    # Flux conditions toward the limit-circle and regular ends.
    for prob in (radial.coefficients(manifold.ModelParams(k=3)),
                 radial.coefficients(manifold.ModelParams(k=4)),
                 radial.coefficients_with_harmonics(manifold.ModelParams(k=2), 1, 0)):
        for a, b in radial.default_schedule(prob, levels=3):
            both_ways(prob, a, b, radial.default_bc(prob), (0.3, 4.0))
    # Bare callables on the whole interval (criterion 01), and a start
    # rounded onto the deep cut, which leaves a single log-distance leg.
    both_ways(const_problem(), 0.0, 1.0, ("dirichlet", "dirichlet"), (math.pi**2, 30.0))
    shallow = radial.liouville_problem(manifold.ModelParams(k=4, R=0.29780402771124387))
    (a, b), = radial.default_schedule(shallow, levels=2)[1:]
    both_ways(shallow, a, b, ("dirichlet", "dirichlet"), (1.0,))
    return cases


def test_prufer_integrate_equals_per_call_coefficient_reference_bitwise(monkeypatch):
    legs_per_call = []
    real = radial.odeint

    def counting_odeint(*args, **kwargs):
        legs_per_call[-1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "odeint", counting_odeint)
    for prob, t_from, t_to, lam, phi0 in prufer_legs():
        legs_per_call.append(0)
        got = radial._prufer_integrate(prob, t_from, t_to, lam, phi0)
        want = reference_prufer_integrate(prob, t_from, t_to, lam, phi0)
        assert got.hex() == want.hex(), (prob.name, t_from, t_to, lam)
    # Both the one-leg (t or shallow log) and the two-leg (deep log) paths ran.
    assert set(legs_per_call) == {1, 2}


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


# ---------------------------------------------------------------------------
# Endpoint classification and Frobenius exponents
# ---------------------------------------------------------------------------


def test_endpoint_table():
    for k in range(2, 7):
        params = manifold.ModelParams(k=k)
        reports = radial.classify_endpoints(params)
        expected = radial.expected_endpoint_kinds(k)
        assert reports[0.0].kind is expected[0.0], k
        assert reports[1.0].kind is expected[1.0], k


def test_liouville_endpoint_kinds_do_not_depend_on_R():
    # The probes scale with the interval pi R / 2; at a fixed absolute
    # distance, sin(tau / R) rounds to 1 at the right end once R >= 10.
    for k in range(2, 7):
        kinds = {R: radial._endpoint_kinds(radial.liouville_problem(manifold.ModelParams(k=k, R=R)))
                 for R in (0.25, 0.5, 1.0, 10.0, 100.0)}
        assert len(set(kinds.values())) == 1, (k, kinds)
        if k != 3:  # k = 3 sits on the LP/LC threshold, where the probe reads LC
            assert kinds[1.0][1] is radial.expected_endpoint_kinds(k)[1.0], k


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


def test_veff_closed_form_vs_generic_transform():
    for k in (2, 3, 5):
        params = manifold.ModelParams(k=k, R=1.0)
        veff = radial.EffectivePotential(params)
        hi = math.pi * params.R / 2.0
        for frac in np.linspace(0.1, 0.9, 9):
            tau = frac * hi
            closed = veff.value(tau)
            generic = veff.generic_transform_value(tau)
            assert abs(closed - generic) < 1e-6 * max(abs(closed), 1.0), (k, tau)


def test_veff_lambda_shift_identity():
    params = manifold.ModelParams(k=4, R=0.7)
    veff = radial.EffectivePotential(params)
    for tau in (0.2, 0.5, 0.9):
        for lam in (0.0, 3.0, 11.0):
            assert abs(veff.lambda_shift_residual(tau, lam)) < 1e-10


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
    rep = radial.convexity_check(manifold.ModelParams(k=5, R=0.5), grid_size=500)
    assert rep["convex"]


def test_heun_coefficient_map():
    params = manifold.ModelParams(k=5, R=2.0, L=0.5)
    lam = 3.0
    coeffs = radial.heun_coefficient_map(params, lam)
    assert coeffs["a"] == -1.0 and coeffs["alpha"] == 0.0 and coeffs["mu2"] == 0.0
    # The local exponents agree with the Frobenius exponents of the equation.
    prob = radial.coefficients(params)
    (mu1, mu2), _ = radial.frobenius_exponents(prob, 0.0)
    assert coeffs["mu0"] == pytest.approx(min(mu1, mu2), abs=1e-6)
    (nu1, nu2), _ = radial.frobenius_exponents(prob, 1.0)
    assert coeffs["mu1"] == pytest.approx(min(nu1, nu2), abs=1e-6)
    # Accessory parameters are linear in lam with beta1 = beta0 + beta2.
    assert coeffs["beta1"] == pytest.approx(coeffs["beta0"] + coeffs["beta2"], rel=1e-14)
    eta = params.R**2 / params.L
    assert coeffs["beta2"] == pytest.approx(-eta / 4.0)


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
    assert radial.default_bc(prob) == ("dirichlet", "dirichlet")
    # k = 2: regular at t = 0 and limit circle at t = 1, flux at both.
    prob2 = radial.coefficients(manifold.ModelParams(k=2))
    assert radial.default_bc(prob2) == ("flux", "flux")


def test_spectrum_regular_problem_neumann():
    res = radial.spectrum(const_problem(), count=2, tol=1e-8)
    # Default boundary conditions at regular endpoints are the flux condition.
    assert res.bc == ("flux", "flux")
    assert res.converged and res.convergence_proven
    assert abs(res.raw[0]) < 1e-6
    assert res.raw[1] == pytest.approx(math.pi**2, rel=1e-6)


def chained_seed_solve(prob, a, b, count, bc, seeds):
    """Eigenvalues on [a, b] bracketed from given seeds, as `spectrum` once seeded
    each level from the previous level's eigenvalues."""
    out = []
    for index in range(count):
        def miss(lam, target=index * math.pi):
            return radial.prufer_mismatch(prob, a, b, lam, bc=bc, rtol=1e-11, atol=1e-13) - target

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
        out.append((f"spectrum-k{k}", prob, radial.default_bc(prob)))
    prob = radial.coefficients_with_harmonics(manifold.ModelParams(k=2), 1, 0)
    out.append(("spectrum-k2-l1-s0", prob, radial.default_bc(prob)))
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
    # 38 shots; seeding levels 1 and 2 from the level before took 54.
    assert len(shots) <= 40


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
