"""Radial Sturm-Liouville problem of the degree-one loop Hamiltonian.

After separating the Stiefel-fiber variables, the radial part is the singular
Sturm-Liouville problem on t in (0, 1)

    -(p f')' + q f = Lambda w f,
    p(t) = (4 / R^2) t (1 - t) w(t),
    q(t) = R^2 (1 - t) w(t),
    w(t) = c_k t^{(k-3)/2} (1 - t)^{k-2} (1 + t),

with c_k the radial weight prefactor.  Both endpoints are singular for most
k; their Weyl classification is

    t = 0:  regular for k = 2, limit-circle for k in {3, 4}, limit-point k >= 5,
    t = 1:  limit-circle for k = 2, limit-point for k >= 3.

Eigenvalues are computed by Prufer-angle shooting on a shrinking sequence of
truncated intervals, cross-checked against a dense finite-difference
generalized eigenproblem, and (for the gap analysis) against the unitarily
equivalent Liouville normal form

    -F'' + V_eff(tau) F = Lambda F   on (0, pi R / 2),

whose potential is an explicit rational function of csc(tau/R).  The module
also provides Frobenius endpoint exponents, the k = 2 angular-harmonic
radial equations, Hardy-inequality constants for the weight envelope, the
Rayleigh upper bound for the ground state, and the spectral-gap report.

Engine.  Every coefficient evaluation goes through `SLProblem.coeffs`, which
returns (p, q, w, p', q', w') at a float or an ndarray t.  The shooting
integrator calls it with one float per LSODA abscissa (about half of the
right-hand sides repeat the last abscissa, and reuse its coefficients); the
finite-difference oracle, the convexity probe and the Hardy check call it
once on a whole mesh.  For the algebraic-coordinate problems the array and
float evaluations agree bit for bit.  The float calls dominate the cost of a
solve (83 000 of them, for 160 000 right-hand sides, in `gap --k 5 --R 0.5
--levels 3`), so every constant factor of a formula is computed once per
problem, when it is built (`ModelParams.prefactor`, the V_eff numerator and
4 R^2, the scales of p, q and of the harmonic term), each evaluation
chooses its float or array operations once, and the right-hand side keeps
the last abscissa's factors in closure cells.  On a shared 2-core x86-64 VM
with Python 3.11 a float evaluation costs 0.7 us (algebraic), 0.8 us (bare
callables), 1.3 us (Liouville form) and 1.8 us (k = 2 harmonic term); the
rest of a right-hand side adds 0.4 to 0.5 us at a new abscissa, a repeated
abscissa costs 0.23 us in all, and odeint's own call 0.4 to 1.3 us more; the
host's speed varies by up to 2x.
A solve makes about 7 shots (matching evaluations) per eigenvalue, 7.3 over
the benchmark's spectral round: 2 to 3 to bracket the coarse
finite-difference seed of its own truncation, which lies within 4e-3
relative of the root, and 4 to 5 for brentq.
Each Prufer integration leg is one LSODA call through scipy's odeint, whose C
port of ODEPACK writes to no file descriptor: a failed leg comes back in
`infodict["message"]`, which the integrator raises as a RuntimeError, and
odeint's ODEintWarning reaches the caller's warning filters untouched.

Eigenvalue normalization: `SpectrumResult.eigenvalues` stores Lambda / R^2
(the coupling-normalized values); `raw` stores the Sturm-Liouville
eigenvalues Lambda themselves.  Upper/lower bound comparisons in this module
use the raw values.
"""

import math
from dataclasses import dataclass, field
import enum
import warnings

import numpy as np
from scipy.integrate import odeint
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from . import manifold, numerics
from .manifold import ModelParams


# ---------------------------------------------------------------------------
# Problem definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class SLProblem:
    """A Sturm-Liouville triple -(p f')' + q f = Lambda w f on an interval.

    `coeffs(t)` is the one evaluation entry point: it returns
    (p, q, w, p', q', w') at a float or an ndarray t, and the shooting
    integrator, the finite-difference oracle, the convexity probe and the
    endpoint classification read nothing else.  The analytic derivatives let
    the integrator compute the logarithmic derivative of its scaling function
    exactly; near singular endpoints a finite-difference step amplifies
    coefficient roundoff by orders of magnitude.

    A problem given by bare p, q, w callables instead of `coeffs` gets
    `coeffs` composed from them.  Each callable takes a float or an ndarray
    t; a scalar result for an ndarray t is broadcast (a constant
    coefficient).  Each derivative is a central difference with step 1e-6
    times the distance to the nearer endpoint, and 0 at an endpoint.
    """

    interval: tuple
    name: str = "sl-problem"
    params: ModelParams | None = None
    coeffs: object = None
    p: object = None
    q: object = None
    w: object = None

    def __post_init__(self):
        lo, hi = self.interval
        if not (lo < hi):
            raise ValueError(f"empty interval ({lo}, {hi})")
        if self.coeffs is None:
            missing = [name for name in ("p", "q", "w") if getattr(self, name) is None]
            if missing:
                raise ValueError(
                    f"SLProblem needs coeffs or all of p, q, w; missing {', '.join(missing)}"
                )
            object.__setattr__(self, "coeffs", _composed_coeffs(self))


def _composed_coeffs(prob):
    """The (p, q, w, p', q', w') entry point of a problem given by callables."""
    lo, hi = prob.interval
    p, q, w = funcs = (prob.p, prob.q, prob.w)

    def at(f, t):
        value = f(t)
        return np.full(t.shape, value, dtype=float) if np.ndim(value) == 0 else value

    def coeffs(t):
        # One step h per t serves all three central differences.
        if isinstance(t, np.ndarray):
            h = 1e-6 * np.minimum(t - lo, hi - t)
            step = np.where(h > 0.0, h, 1.0)
            up, down, width = t + step, t - step, 2.0 * step
            return (*[at(f, t) for f in funcs],
                    *[np.where(h > 0.0, (at(f, up) - at(f, down)) / width, 0.0) for f in funcs])
        h = 1e-6 * min(t - lo, hi - t)
        if not h > 0.0:
            return p(t), q(t), w(t), 0.0, 0.0, 0.0
        up, down, width = t + h, t - h, 2.0 * h
        return (p(t), q(t), w(t),
                (p(up) - p(down)) / width, (q(up) - q(down)) / width, (w(up) - w(down)) / width)

    return coeffs


def coefficients(params):
    """The radial problem on (0, 1) in the algebraic coordinate."""
    k, R = params.k, params.R
    # The constant left-hand factors of the products below, computed once.
    p_scale, q_scale = 4.0 / R**2, R**2
    left_exp, right_exp = k - 3, k - 2

    def coeffs(t):
        w = manifold.weight_alg(t, params)
        u = 1.0 - t
        p = p_scale * t * u * w
        q = q_scale * u * w
        # Logarithmic derivative of the weight c t^((k-3)/2) (1-t)^(k-2) (1+t).
        dlogw = left_exp / (2.0 * t) - right_exp / u + 1.0 / (1.0 + t)
        inv_u = 1.0 / u
        dp = p * (dlogw + 1.0 / t - inv_u)
        dq = q * (dlogw - inv_u)
        return p, q, w, dp, dq, w * dlogw

    return SLProblem(coeffs=coeffs, interval=(0.0, 1.0), name=f"radial-k{k}", params=params)


def coefficients_with_harmonics(params, l, s):
    """k = 2 radial problem including the angular eigenvalue potential.

    The angular operator contributes the closed-form eigenvalue on W_{2l} at
    weight s as an additional multiplicative potential.
    """
    if params.k != 2:
        raise ValueError("angular-harmonic radial equations are specific to k = 2")
    if abs(s) > l:
        raise ValueError(f"weight |s| = {abs(s)} exceeds l = {l}")
    from . import angular

    base = coefficients(params).coeffs
    R = params.R
    # The constant left-hand factors of d(ang)/dt, computed once.
    casimir, casimir_scale, weight2, r2 = -4.0 * l * (2 * l + 1), 3.0 * R**2, s**2, R**2

    def coeffs(t):
        p, q, w, dp, dq, dw = base(t)
        ang = angular.angular_eigenvalue_k2(l, s, t, R)
        pw = np.float_power if isinstance(t, np.ndarray) else pow  # as numerics._power
        t2 = pw(t, 2)
        dang = (
            casimir / (casimir_scale * pw(1.0 + t, 2))
            + weight2 * (3.0 * t2 - 2.0 * t + 3.0) / (r2 * pw(1.0 - t2, 2))
        )
        return p, q + ang * w, w, dp, dq + dang * w + ang * dw, dw

    return SLProblem(coeffs=coeffs, interval=(0.0, 1.0), name=f"radial-k2-l{l}-s{s}",
                     params=params)


# ---------------------------------------------------------------------------
# Endpoint classification and Frobenius exponents
# ---------------------------------------------------------------------------


class EndpointKind(enum.Enum):
    REGULAR = "regular"
    LIMIT_CIRCLE = "limit-circle"
    LIMIT_POINT = "limit-point"


@dataclass(frozen=True)
class EndpointReport:
    endpoint: float
    kind: EndpointKind
    exponents: tuple
    log_case: bool


def _local_exponent(f, endpoint, side, eps):
    """Power-law exponent of f near the endpoint.

    Log-ratio estimates at nested scales eps, 2 eps, 4 eps, 8 eps are
    Richardson-extrapolated (f ~ C d^a (1 + c1 d + ...) makes the estimate
    linear-plus-quadratic in d).
    """
    def ratio(j):
        d1 = eps * 2.0**j
        v1, v2 = f(endpoint + side * d1), f(endpoint + side * 2.0 * d1)
        if v1 <= 0.0 or v2 <= 0.0:
            raise ValueError("exponent probe requires positive coefficient values")
        return math.log(v2 / v1) / math.log(2.0)

    e = [ratio(j) for j in range(3)]
    a = [2.0 * e[j] - e[j + 1] for j in range(2)]
    return (4.0 * a[0] - a[1]) / 3.0


def frobenius_exponents(prob, endpoint):
    """Indicial exponents of the equation at a regular singular endpoint.

    Works numerically: the equation in normal form is
    f'' + (p'/p) f' + ((lambda w - q)/p) f = 0; the indicial polynomial at t0
    is mu(mu-1) + r0 mu + q0 = 0 with r0 = lim (t-t0) p'/p and
    q0 = lim (t-t0)^2 (lambda w - q)/p (independent of lambda when w/p has at
    most a simple pole, as here).  Returns (exponents, log_case); log_case is
    True when the exponents differ by an integer (including zero).  The
    probes start 1e-7 interval widths from the endpoint.
    """
    lo, hi = prob.interval
    side = 1.0 if abs(endpoint - lo) < abs(endpoint - hi) else -1.0
    eps = 1e-7 * (hi - lo)

    # r0 = lim (t - t0) p'/p is the local power-law exponent of p itself.
    r0 = _local_exponent(lambda t: prob.coeffs(t)[0], endpoint, side, eps=eps)

    def limit(g):
        # Richardson extrapolation in the distance d = eps * 2^j.
        vals = [g(endpoint + side * eps * 2.0**j) for j in range(3)]
        a0 = 2.0 * vals[0] - vals[1]
        a1 = 2.0 * vals[1] - vals[2]
        return (4.0 * a0 - a1) / 3.0

    def q0_probe(t):
        p, q = prob.coeffs(t)[:2]
        return (t - endpoint) ** 2 * (-q) / p

    q0 = limit(q0_probe)
    disc = (r0 - 1.0) ** 2 - 4.0 * q0
    if disc < 0.0:
        if disc < -1e-6:
            raise ValueError(f"complex indicial exponents at {endpoint} (disc={disc:.3e})")
        disc = 0.0
    root = math.sqrt(disc)
    mu1 = 0.5 * (1.0 - r0 + root)
    mu2 = 0.5 * (1.0 - r0 - root)
    diff = mu1 - mu2
    log_case = abs(diff - round(diff)) < 1e-6
    return (mu1, mu2), log_case


def classify_endpoint(prob, endpoint):
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
    exps, log_case = frobenius_exponents(prob, endpoint)
    tol = 1e-3
    if alpha_invp > -1.0 + tol and alpha_q > -1.0 + tol and alpha_w > -1.0 + tol:
        kind = EndpointKind.REGULAR
    elif 2.0 * min(exps) + alpha_w > -1.0 + tol:
        kind = EndpointKind.LIMIT_CIRCLE
    else:
        kind = EndpointKind.LIMIT_POINT
    return EndpointReport(endpoint=endpoint, kind=kind, exponents=exps, log_case=log_case)


def classify_endpoints(params):
    """Both endpoint reports for the radial problem at the given parameters."""
    prob = coefficients(params)
    return {0.0: classify_endpoint(prob, 0.0), 1.0: classify_endpoint(prob, 1.0)}


def expected_endpoint_kinds(k):
    """Closed-form endpoint classification by sphere dimension."""
    at0 = (
        EndpointKind.REGULAR
        if k == 2
        else (EndpointKind.LIMIT_CIRCLE if k in (3, 4) else EndpointKind.LIMIT_POINT)
    )
    at1 = EndpointKind.LIMIT_CIRCLE if k == 2 else EndpointKind.LIMIT_POINT
    return {0.0: at0, 1.0: at1}


# ---------------------------------------------------------------------------
# Prufer shooting on truncated intervals
# ---------------------------------------------------------------------------


# LSODA's step budget per integration leg; the legs of the truncated problems
# take far fewer steps, so the budget only stops a runaway integration.
_MXSTEP = 10**6


def _prufer_integrate(prob, t_from, t_to, lam, phi0, rtol=1e-11, atol=1e-13):
    """Integrate the scaled Prufer angle phi from t_from to t_to.

    Scaled transformation f = rho sin(phi), p f' = sigma rho cos(phi) with the
    lambda-independent balance sigma = sqrt(p (w + |q|)):

        phi' = (sigma/p) cos^2 + ((lam w - q)/sigma) sin^2
               + (sigma'/sigma) sin phi cos phi.

    The scaling keeps the angle dynamics resolvable when p underflows near a
    singular endpoint (the classical sigma = 1 angle saturates at its pi/2
    plateaus there and loses the eigenvalue).  Dirichlet still reads
    phi = 0 mod pi and zero flux phi = pi/2 mod pi; phi can only increase
    through multiples of pi, and phi(b; lam) is increasing in lam.

    Works in either direction (t_to < t_from integrates backward).  When
    t_from sits deep inside a singular endpoint layer the integration runs
    in the log-distance variable u = log|t - endpoint|, which turns the
    power-law coefficient blowup into slowly varying terms.  Each leg is one
    LSODA call (ODEPACK through scipy's odeint) that stops exactly at the
    leg's end (tcrit) instead of interpolating past it.  The right-hand side
    evaluates the coefficients once per LSODA abscissa: a call at the last
    abscissa reuses its phi-free factors, with the same arithmetic.
    """
    lo_int, hi_int = prob.interval
    coeffs = prob.coeffs
    cos, sin, sqrt, exp = math.cos, math.sin, math.sqrt, math.exp
    width = hi_int - lo_int
    anchor = lo_int if abs(t_from - lo_int) <= abs(t_from - hi_int) else hi_int
    d_from, d_to = abs(t_from - anchor), abs(t_to - anchor)
    log_legs = 0.0 < d_from < 0.01 * width <= d_to
    sign = 1.0 if anchor == lo_int else -1.0
    # The last abscissa and its phi-free factors: dt/dx, sigma/p,
    # (lam w - q)/sigma and sigma'/sigma.
    last, scale, fa, fb, fc = None, 1.0, 0.0, 0.0, 0.0

    def rhs(x, y):
        nonlocal last, scale, fa, fb, fc
        if x != last:
            if log_legs:
                scale = sign * exp(x)
                pv, qv, wv, dpv, dqv, dwv = coeffs(anchor + scale)
            else:
                pv, qv, wv, dpv, dqv, dwv = coeffs(x)
            bal = wv + abs(qv)
            sig = sqrt(pv * bal)
            sgn = 1.0 if qv > 0.0 else (-1.0 if qv < 0.0 else 0.0)
            last, fa, fb = x, sig / pv, (lam * wv - qv) / sig
            fc = 0.5 * (dpv / pv + (dwv + sgn * dqv) / bal)
        phi = y.item()
        c, s = cos(phi), sin(phi)
        return scale * (fa * c * c + fb * s * s + fc * s * c)

    legs = [(t_from, t_to, rtol, atol)]
    if log_legs:
        # Catastrophic cancellation in t - endpoint makes the coefficient
        # values noisy at relative level ~ eps/d deep in the layer; the angle
        # dynamics there is an adiabatic approach to an attracting direction,
        # so a noise-tolerant deep phase loses nothing.
        u_from, u_cut, u_to = math.log(d_from), math.log(1e-3 * width), math.log(d_to)
        # LSODA refuses a leg shorter than 2 eps max(|u|); a start that close
        # to the cut (a truncation at 1e-3 of the width, rounded) has no deep
        # phase.
        legs = [(u_from, u_to, rtol, atol)]
        if u_cut - u_from >= 2.0 * np.finfo(float).eps * max(abs(u_from), abs(u_cut)):
            legs = [(u_from, u_cut, max(rtol, 1e-8), max(atol, 1e-8)),
                    (u_cut, u_to, rtol, atol)]

    phi = phi0
    for leg_from, leg_to, leg_rtol, leg_atol in legs:
        y, info = odeint(
            rhs, [phi], [leg_from, leg_to], tfirst=True, tcrit=[leg_to],
            rtol=leg_rtol, atol=leg_atol, mxstep=_MXSTEP, full_output=True,
        )
        if info["message"] != "Integration successful.":
            raise RuntimeError(
                f"Prufer integration failed on ({t_from}, {t_to}): {info['message']}"
            )
        phi = float(y[-1, 0])
    return phi


def prufer_mismatch(prob, a, b, lam, bc=("dirichlet", "dirichlet"), rtol=1e-11, atol=1e-13):
    """Two-sided Prufer matching function D(lam) = phi_L(m) - phi_R(m).

    phi_L is integrated forward from a with the left boundary angle (0 for
    Dirichlet, pi/2 for flux); phi_R backward from b starting at pi
    (Dirichlet) or pi/2 (flux).  D is strictly increasing in lam and the
    n-th eigenvalue satisfies D = n pi.  Matching in the interior keeps the
    eigenvalue condition well-scaled when a singular endpoint layer flattens
    the one-sided angle onto its pi/2 plateaus.
    """
    match = 0.5 * (a + b)
    bc_left, bc_right = bc
    phi_a = 0.0 if bc_left == "dirichlet" else 0.5 * math.pi
    phi_b = math.pi if bc_right == "dirichlet" else 0.5 * math.pi
    left = _prufer_integrate(prob, a, match, lam, phi_a, rtol=rtol, atol=atol)
    right = _prufer_integrate(prob, b, match, lam, phi_b, rtol=rtol, atol=atol)
    return left - right


def solve_truncated(prob, a, b, count=2, bc=("dirichlet", "dirichlet"), ode_rtol=1e-11):
    """First `count` eigenvalues on [a, b] by two-sided Prufer shooting.

    The matching defect D(lambda) of `prufer_mismatch` is increasing in
    lambda, so the index-th eigenvalue is the unique root of
    D(lambda) - index*pi.  A coarse finite-difference solve seeds the search
    brackets (the root itself is determined entirely by the shooting
    function); a sign-change check widens or rebuilds the bracket if a seed
    is off.  Each eigenvalue search integrates every distinct lambda once:
    brentq opens on the two bracket ends the sign-change check has just
    evaluated, and gets those values back instead of two more shots.  If the
    finite-difference seed fails, a RuntimeWarning names the error and the
    brackets come from outward doubling.  Each root is located to 1e-10
    absolute in lambda.
    """
    if count < 1:
        raise ValueError(f"eigenvalue count must be >= 1, got {count}")
    seeds = None
    try:
        seeds = solve_truncated_fd(prob, a, b, count=count, bc=bc, npoints=1500, richardson=False)
    except Exception as exc:
        warnings.warn(
            f"finite-difference seed failed ({type(exc).__name__}: {exc}); "
            "bracketing by outward doubling",
            RuntimeWarning,
            stacklevel=2,
        )
    out = []
    for index in range(count):
        target = index * math.pi
        shots = {}

        def miss(lam):
            if lam not in shots:
                shots[lam] = prufer_mismatch(prob, a, b, lam, bc=bc, rtol=ode_rtol,
                                             atol=1e-2 * ode_rtol) - target
            return shots[lam]

        lo = hi = None
        if seeds is not None:
            guess = float(seeds[index])
            delta = 1e-4 * (1.0 + abs(guess))
            for _ in range(40):
                cand_lo, cand_hi = guess - delta, guess + delta
                if out and cand_lo <= out[-1]:
                    cand_lo = 0.5 * (out[-1] + guess)
                if miss(cand_lo) < 0.0 < miss(cand_hi):
                    lo, hi = cand_lo, cand_hi
                    break
                delta *= 4.0
        if lo is None:
            # fall back to outward doubling from the previous eigenvalue
            lo = out[-1] if out else -1.0
            hi = abs(lo) + 1.0
            for _ in range(200):
                if miss(lo) < 0.0:
                    break
                lo = lo - 2.0 * (abs(lo) + 1.0)
            else:
                raise RuntimeError("failed to bracket eigenvalue from below")
            for _ in range(200):
                if miss(hi) > 0.0:
                    break
                hi = hi + 2.0 * (abs(hi) + 1.0)
            else:
                raise RuntimeError("failed to bracket eigenvalue from above")
        lam = float(brentq(miss, lo, hi, xtol=1e-10, rtol=4.0 * np.finfo(float).eps))
        out.append(lam)
    return np.array(out)


def solve_truncated_fd(prob, a, b, count=2, bc=("dirichlet", "dirichlet"),
                       npoints=2000, richardson=True):
    """Finite-difference oracle: symmetric second-order discretization.

    Conservative scheme for -(p f')' + q f = lam w f with midpoint p values
    on a uniform mesh of npoints nodes.  Flux boundary nodes carry half-cell
    masses.  With richardson=True the second-order error in the mesh
    parameter is eliminated from runs at npoints and 2*npoints-1.  LAPACK
    bisection (?stebz) gives the lowest `count` eigenvalues only; no
    eigenvectors are computed.
    """

    def solve_once(m):
        x = a + (b - a) * np.linspace(0.0, 1.0, m)
        diag, off, mass = _fd_assemble(prob, x, bc)
        dinv = 1.0 / np.sqrt(mass)
        sym_diag = diag * dinv**2
        sym_off = off * dinv[:-1] * dinv[1:]
        return eigh_tridiagonal(
            sym_diag, sym_off, eigvals_only=True, select="i", select_range=(0, count - 1)
        )

    v1 = solve_once(npoints)
    if not richardson:
        return v1
    v2 = solve_once(2 * npoints - 1)
    return (4.0 * v2 - v1) / 3.0


def _fd_assemble(prob, x, bc):
    """Tridiagonal stiffness (diag, off) and diagonal mass on the nodes x.

    Node i carries the cell of half its two neighbouring segments (half one
    segment at x[0] and x[-1]); a Dirichlet end drops its node, a flux end
    keeps it.
    """
    hseg = np.diff(x)
    pm = prob.coeffs(0.5 * (x[:-1] + x[1:]))[0]
    _, qv, wv, _, _, _ = prob.coeffs(x)
    flux = pm / hseg
    left = np.concatenate(([0.0], flux))
    right = np.concatenate((flux, [0.0]))
    cell = 0.5 * np.concatenate(([hseg[0]], hseg[:-1] + hseg[1:], [hseg[-1]]))
    keep = slice(0 if bc[0] == "flux" else 1, None if bc[1] == "flux" else -1)
    diag = (left + right + qv * cell)[keep]
    mass = (wv * cell)[keep]
    # flux[i] couples nodes i and i + 1, so the same slice of flux (one entry
    # shorter than x) selects the couplings between consecutive kept nodes.
    off = -flux[keep]
    return diag, off, mass


def oracle_comparison(params, a=1e-3, count=5):
    """Compare the two independent eigenvalue engines on a truncation.

    Prufer shooting solves the radial problem in the algebraic coordinate on
    [a, 1-a] with Dirichlet conditions; the finite-difference eigensolver
    discretizes the unitarily equivalent Liouville normal form on the image
    interval.  Returns the two spectra and their worst relative deviation.
    """
    prob = coefficients(params)
    shoot = solve_truncated(prob, a, 1.0 - a, count=count, bc=("dirichlet", "dirichlet"))
    lp = liouville_problem(params)
    ta = manifold.tau_of_t(a, params)
    tb = manifold.tau_of_t(1.0 - a, params)
    fd = solve_truncated_fd(lp, ta, tb, count=count, bc=("dirichlet", "dirichlet"))
    rel = float(np.max(np.abs(shoot - fd) / np.abs(fd)))
    return {"shooting": shoot, "finite_difference": fd, "max_rel_deviation": rel}


# ---------------------------------------------------------------------------
# Spectrum on shrinking truncations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumResult:
    """Converged eigenvalues with the truncation history.

    eigenvalues: Lambda / R^2 (coupling-normalized); raw: Lambda.
    residual: per eigenvalue, the relative change between the last two
    accelerated rows; converged is max(residual) <= tol.
    """

    eigenvalues: np.ndarray
    raw: np.ndarray
    residual: np.ndarray
    history: list
    converged: bool
    convergence_proven: bool
    bc: tuple
    tol: float


def _aitken(seq):
    """One stage of Aitken delta-squared acceleration along axis 0.

    For sequences with geometric truncation error lambda_r = L + C q^r this
    removes the leading term exactly.
    """
    s = np.asarray(seq, dtype=float)
    d1 = s[1:] - s[:-1]
    d2 = d1[1:] - d1[:-1]
    safe = np.where(np.abs(d2) > 1e-300, d2, 1.0)
    corr = np.where(np.abs(d2) > 1e-300, d1[1:] ** 2 / safe, 0.0)
    return s[2:] - corr


def accelerate(history):
    """Repeated Aitken acceleration of the truncation-level eigenvalues.

    Returns (values, residual): the last accelerated row and, per
    eigenvalue, the relative change between the final two accelerated rows
    (whose maximum is the convergence measure).
    """
    s = np.asarray(history, dtype=float)
    while s.shape[0] >= 4:
        s = _aitken(s)
    if s.shape[0] < 2:
        raise ValueError("need at least two truncation levels to accelerate")
    last, prev = s[-1], s[-2]
    return last, np.abs(last - prev) / (1.0 + np.abs(last))


def default_schedule(prob, levels=7):
    """Truncations a_r = lo + 10^(-2-r) (hi-lo), b_r = hi - 10^(-2-r) (hi-lo)."""
    lo, hi = prob.interval
    width = hi - lo
    return [
        (lo + 10.0 ** (-2 - r) * width, hi - 10.0 ** (-2 - r) * width)
        for r in range(levels)
    ]


def default_bc(prob):
    """Truncation boundary conditions by endpoint type.

    Flux (p f' -> 0) toward regular and limit-circle endpoints (matching the
    zero-flux condition singling out the physical extension there); Dirichlet
    toward limit-point endpoints (where the truncated Dirichlet problems
    converge to the unique extension).
    """
    return _bc_for(_endpoint_kinds(prob))


def _endpoint_kinds(prob):
    return tuple(classify_endpoint(prob, e).kind for e in prob.interval)


def _bc_for(kinds):
    return tuple("dirichlet" if kind is EndpointKind.LIMIT_POINT else "flux" for kind in kinds)


def spectrum(prob, count=2, tol=1e-6, levels=7, bc=None):
    """Eigenvalues of the singular problem via shrinking truncations.

    The truncations are `default_schedule(prob, levels)`.  Convergence is
    declared when the last two Aitken-accelerated rows agree to `tol`
    relative (the per-eigenvalue `residual`); `tol` must be finite and
    positive, and `levels` at least 2.  For problems whose endpoint
    classification makes the flux condition a genuine boundary-condition
    choice (limit circle at both ends reachable by several extensions),
    convergence to the intended extension is flagged as proven only in the
    regular/limit-point cases.

    Each level is an independent `solve_truncated`, seeded by its own coarse
    finite-difference solve: on the benchmark's three-level spectra those
    seeds lie 2e-6 to 4e-3 relative off the roots, where the previous
    level's eigenvalues lie up to 0.36 off (lambda_0 of the Liouville form
    at k = 5, R = 0.5, level 1) and cost the bracket search more widenings.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"convergence tolerance must be finite and > 0, got {tol}")
    if levels < 2:
        raise ValueError(f"need at least two truncation levels to accelerate, got {levels}")
    kinds = _endpoint_kinds(prob)
    if bc is None:
        bc = _bc_for(kinds)
    # Every level seeds its brackets from its own coarse finite-difference
    # solve, far closer to its roots than the previous level's eigenvalues.
    history = [solve_truncated(prob, a, b, count=count, bc=bc)
               for a, b in default_schedule(prob, levels)]
    final, residual = accelerate(history)
    converged = bool(np.max(residual) <= tol)
    lp_only = EndpointKind.LIMIT_CIRCLE not in kinds
    scale = prob.params.R**2 if prob.params is not None else 1.0
    return SpectrumResult(
        eigenvalues=final / scale,
        raw=final,
        residual=residual,
        history=history,
        converged=converged,
        convergence_proven=converged and lp_only,
        bc=bc,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Rayleigh upper bound and Hardy constants
# ---------------------------------------------------------------------------


def rayleigh_upper_bound(params):
    """Upper bound for the raw ground eigenvalue from the constant test function.

    Lambda_0 <= (q, 1)_w-quotient = R^2 <1 - t>_w = (1-2k)/(1-3k) R^2.
    """
    k = params.k
    return (1.0 - 2.0 * k) / (1.0 - 3.0 * k) * params.R**2


def hardy_constant_check(params, npoints=2000):
    """Power-law envelope constants for the coefficient triple.

    On (0, 1/2]: p >= k1 t^((k-1)/2), q <= k2 t^((k-3)/2), w <= k3 t^((k-3)/2);
    on [1/2, 1): p >= l1 (1-t)^(k-1), q <= l2 (1-t)^(k-1), w <= l3 (1-t)^(k-2);
    with the constants below.  Returns the six worst margins (all must be >= 0
    up to roundoff) and the constants.
    """
    k, R = params.k, params.R
    ck = manifold.weight_prefactor(params)
    k1 = 3.0 * ck / (2.0 ** (k - 2) * R**2)
    k2 = ck * R**2
    k3 = ck if k >= 3 else 1.5 * ck
    l1 = 3.0 * ck / (2.0 ** ((k - 3) / 2.0) * R**2)
    l2 = 2.0 * R**2 * ck if k >= 3 else 3.0 * ck * R**2 / math.sqrt(2.0)
    l3 = 2.0 * ck if k >= 3 else 3.0 * ck / math.sqrt(2.0)
    prob = coefficients(params)
    left = np.linspace(1e-9, 0.5, npoints)
    right = np.linspace(0.5, 1.0 - 1e-9, npoints)
    p_left, q_left, w_left, _, _, _ = prob.coeffs(left)
    p_right, q_right, w_right, _, _, _ = prob.coeffs(right)
    margins = {
        "p_lower_left": np.min(p_left - k1 * numerics._power(left, (k - 1) / 2.0)),
        "q_upper_left": np.min(k2 * numerics._power(left, (k - 3) / 2.0) - q_left),
        "w_upper_left": np.min(k3 * numerics._power(left, (k - 3) / 2.0) - w_left),
        "p_lower_right": np.min(p_right - l1 * numerics._power(1.0 - right, k - 1.0)),
        "q_upper_right": np.min(l2 * numerics._power(1.0 - right, k - 1.0) - q_right),
        "w_upper_right": np.min(l3 * numerics._power(1.0 - right, k - 2.0) - w_right),
    }
    constants = {"k1": k1, "k2": k2, "k3": k3, "l1": l1, "l2": l2, "l3": l3}
    ok = all(v >= -1e-12 * max(1.0, ck) for v in margins.values())
    return {"constants": constants, "margins": margins, "all_hold": ok}


# ---------------------------------------------------------------------------
# Liouville normal form
# ---------------------------------------------------------------------------


def _veff_poly_coeffs(k, R, lam=0.0):
    """Coefficients of A(x) in descending even powers x^10 .. x^0."""
    return [
        k**2 - 6.0 * k + 8.0,
        -4.0 * k**2 + 12.0 * k + 4.0 * R**4 - 4.0 * lam * R**2 - 6.0,
        -2.0 * k**2 - 8.0 * k - 4.0 * lam * R**2 + 5.0,
        12.0 * k**2 - 44.0 * k - 8.0 * R**4 + 4.0 * lam * R**2 + 44.0,
        9.0 * k**2 - 18.0 * k + 4.0 * lam * R**2 + 9.0,
        4.0 * R**4,
    ]


# (sin, tan, pow) for a float and for an ndarray argument; float_power calls
# the C library's pow, as the float ** operator does (see numerics._power).
_FLOAT_OPS = (math.sin, math.tan, pow)
_ARRAY_OPS = (np.sin, np.tan, np.float_power)


@dataclass(frozen=True)
class EffectivePotential:
    """V_eff(tau) of the Liouville normal form on (0, pi R / 2).

    `value` and `value_and_derivative` take a float or an ndarray tau.  The
    coefficients of the numerator polynomial A, the interval end pi R / 2 and
    the factor 4 R^2 of both denominators are computed once, at construction.
    """

    params: ModelParams
    poly: tuple = field(init=False, repr=False, compare=False)
    hi: float = field(init=False, repr=False, compare=False)
    four_r2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        R = self.params.R
        object.__setattr__(self, "poly", tuple(_veff_poly_coeffs(self.params.k, R)))
        object.__setattr__(self, "hi", math.pi * R / 2.0)
        object.__setattr__(self, "four_r2", 4.0 * R**2)

    def value_and_derivative(self, tau):
        """V_eff and dV_eff/dtau, sharing one validation and one sine.

        The value is the rational form in x^2 = (1 / sin(tau / R))^2, the
        exact derivative the rational form in y = 1 / sin(tau / R)^2; the two
        squares differ in rounding, and each form keeps its own.
        """
        R, hi, four_r2 = self.params.R, self.hi, self.four_r2
        array = isinstance(tau, np.ndarray)
        if not (numerics._inside(tau, 0.0, hi) if array else 0.0 < tau < hi):
            raise ValueError(f"tau must lie in (0, {hi}), got {tau}")
        sin, tan, pw = _ARRAY_OPS if array else _FLOAT_OPS
        z = tau / R
        s = sin(z)
        try:
            x = 1.0 / s
        except ZeroDivisionError:  # tau / R underflows to 0 (an array gives inf)
            x = math.inf
        x2 = x * x
        den = four_r2 * x2 * (x2 - 1.0) * pw(x2 + 1.0, 2)
        # x2 >= 1, so den >= 0 and vanishes only where sin(tau / R) rounds to 1;
        # it is infinite where x2 overflows, before sin(tau / R)^2 underflows.
        if not (numerics._inside(den, 0.0, math.inf) if array else 0.0 < den < math.inf):
            raise ValueError(f"potential pole at tau={tau}")
        y = 1.0 / pw(s, 2)
        # Horner's rule for A(x2), and for A(y) with its derivative A'(y),
        # unrolled.  Each recurrence starts at 0, and its first step 0 * x + c0
        # is c0: x2 and y are finite once the pole check passes, and c0 is
        # never -0.0.
        c0, c1, c2, c3, c4, c5 = self.poly
        num = ((((c0 * x2 + c1) * x2 + c2) * x2 + c3) * x2 + c4) * x2 + c5
        y1 = c0 * y + c1
        y2 = y1 * y + c2
        y3 = y2 * y + c3
        y4 = y3 * y + c4
        ynum = y4 * y + c5
        ydnum = (((c0 * y + y1) * y + y2) * y + y3) * y + y4
        yden = four_r2 * (((y + 1.0) * y - 1.0) * y - 1.0) * y
        ydden = four_r2 * ((4.0 * y + 3.0) * y - 2.0) * y - four_r2
        dv_dy = (ydnum * yden - ynum * ydden) / pw(yden, 2)
        dy_dtau = -2.0 * y / (R * tan(z))
        return num / den, dv_dy * dy_dtau

    def value(self, tau):
        return self.value_and_derivative(tau)[0]

    def generic_transform_value(self, tau):
        """Independent evaluation: (sqrt w)'' / sqrt w + R^2 cos^2(tau / R).

        The second derivative of sqrt(w_trig) is taken by fourth-order
        central differences with step 1e-3 min(tau, pi R / 2 - tau, R) and
        Richardson extrapolation; constants in w drop out.
        """
        R = self.params.R

        def s(x):
            return math.sqrt(manifold.weight_trig(x, self.params))

        h = 1e-3 * min(tau, self.hi - tau, R)

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

    def lambda_shift_residual(self, tau, lam):
        """A(lam)/B - (A(0)/B - lam): identically zero by the shift identity."""
        k, R = self.params.k, self.params.R
        x2 = 1.0 / math.sin(tau / R) ** 2
        num = 0.0
        for c in _veff_poly_coeffs(k, R, lam):
            num = num * x2 + c
        den = 4.0 * R**2 * x2 * (x2 - 1.0) * (x2 + 1.0) ** 2
        return num / den - (self.value(tau) - lam)


def liouville_problem(params):
    """The Liouville normal form as an SLProblem with p = w = 1."""
    veff = EffectivePotential(params)

    def coeffs(tau):
        if isinstance(tau, np.ndarray):
            one, zero = np.ones_like(tau), np.zeros_like(tau)
        else:
            one, zero = 1.0, 0.0
        value, slope = veff.value_and_derivative(tau)
        return one, value, one, zero, slope, zero

    return SLProblem(coeffs=coeffs, interval=(0.0, math.pi * params.R / 2.0),
                     name=f"liouville-k{params.k}", params=params)


def veff_exponents(params, endpoint):
    """Indicial data of -F'' + V F at an interval endpoint.

    V ~ c / (tau - tau0)^2 with c = (k^2-6k+8)/4 at tau = 0 and
    c = (4k^2-16k+15)/4 at tau = pi R / 2; exponents mu(mu-1) = c.
    """
    k = params.k
    hi = math.pi * params.R / 2.0
    if endpoint == 0.0:
        c = (k**2 - 6.0 * k + 8.0) / 4.0
    elif abs(endpoint - hi) < 1e-12 * max(hi, 1.0):
        c = (4.0 * k**2 - 16.0 * k + 15.0) / 4.0
    else:
        raise ValueError(f"endpoint must be 0 or {hi}, got {endpoint}")
    root = math.sqrt(1.0 + 4.0 * c)
    return (0.5 * (1.0 + root), 0.5 * (1.0 - root))


def convexity_check(params, grid_size=2000):
    """Discrete convexity probe of V_eff on the open interval.

    Returns the minimum second difference (scaled by h^2) and a boolean; the
    potential blows up convexly at both ends, so the interior grid decides.
    """
    hi = math.pi * params.R / 2.0
    taus = np.linspace(hi / (grid_size + 1), hi - hi / (grid_size + 1), grid_size)
    vals = liouville_problem(params).coeffs(taus)[1]
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    h = taus[1] - taus[0]
    scale = max(1.0, float(np.median(np.abs(vals))))
    min_second = float(np.min(second)) / h**2
    return {
        "min_second_derivative": min_second,
        "convex": bool(np.min(second) >= -1e-8 * scale),
        "grid_size": grid_size,
    }


def heun_coefficient_map(params, lam):
    """Parameters of the confluent-Heun substitution for the radial equation.

    The algebraic-coordinate equation maps onto a confluent Heun shape with
    singular points {0, 1, -1}; only the coefficient dictionary is provided
    (no Heun solver is used anywhere).  eta = R^2 / L; the local exponents
    mu0, mu1 agree with the Frobenius exponents at t = 0 and t = 1, and the
    accessory parameters satisfy beta1 = beta0 + beta2 identically in lam.
    """
    k, R, L = params.k, params.R, params.L
    eta = R**2 / L
    return {
        "a": -1.0,
        "alpha": 0.0,
        "mu0": (3.0 - k) / 2.0,
        "mu1": 2.0 - k,
        "mu2": 0.0,
        "beta0": 0.25 * eta * (1.0 - lam),
        "beta1": -0.25 * eta * lam,
        "beta2": -0.25 * eta,
    }


# ---------------------------------------------------------------------------
# Spectral gap analysis
# ---------------------------------------------------------------------------


def gap_analysis(params, tol=1e-6, levels=7):
    """Ground-state gap of the Liouville-form radial operator, with bounds.

    Computes Lambda_0, Lambda_1 on the Liouville interval (0, pi R / 2) by
    Dirichlet truncations, checks convexity of the effective potential, and
    compares the gap against the candidate lower bounds: the convex-potential
    gap bound in its literature form 3 pi^2 / r^2, the variant 3 pi / r^2 as
    recorded in the source derivation, and the dimension-free 12 / R^2 claim
    (valid for k >= 5 under a radius restriction).  The Rayleigh upper bound
    applies to the raw ground eigenvalue.
    """
    prob = liouville_problem(params)
    res = spectrum(prob, tol=tol, levels=levels, bc=("dirichlet", "dirichlet"))
    lam0, lam1 = float(res.raw[0]), float(res.raw[1])
    gap = lam1 - lam0
    r = math.pi * params.R / 2.0
    conv = convexity_check(params)
    k = params.k
    radius_limit = 59049.0 * (k - 4) * (k - 2) / 4096.0 if k >= 5 else None
    return {
        "k": k,
        "R": params.R,
        "lambda0_raw": lam0,
        "lambda1_raw": lam1,
        "gap": gap,
        "converged": res.converged,
        "convergence_proven": res.convergence_proven,
        "convex_potential": conv["convex"],
        "lavine_bound_classical": 3.0 * math.pi**2 / r**2,
        "lavine_bound_recorded": 3.0 * math.pi / r**2,
        "bound_12_over_R2": 12.0 / params.R**2,
        "gap_exceeds_classical": gap >= 3.0 * math.pi**2 / r**2,
        "gap_exceeds_recorded": gap >= 3.0 * math.pi / r**2,
        "gap_exceeds_12_over_R2": gap >= 12.0 / params.R**2,
        "radius_limit_for_12_bound": radius_limit,
        "rayleigh_upper_raw": rayleigh_upper_bound(params),
        # The test-function bound is for the realization the Dirichlet
        # truncations select; it is only conclusive when that realization is
        # unique (limit point at both endpoints, k >= 5).
        "rayleigh_holds": (
            bool(lam0 <= rayleigh_upper_bound(params) + tol * (1 + abs(lam0)))
            if res.convergence_proven
            else None
        ),
    }
