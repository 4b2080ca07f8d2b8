"""Radial Sturm-Liouville problem of the degree-one loop Hamiltonian.

After separating the Stiefel-fiber variables, the radial part is the singular
Sturm-Liouville problem on t in (0, 1)

    -(p f')' + q f = Lambda w f,
    p(t) = (4 / R^2) t (1 - t) w(t),
    q(t) = R^2 (1 - t) w(t),
    w(t) = c_k t^{(k-3)/2} (1 - t)^{k-2} (1 + t),

with c_k the radial weight prefactor.  Both endpoints are singular for most
k; their Weyl classification and Frobenius exponents, which every problem
built here carries in closed form in `SLProblem.endpoints`, are

    t = 0:  regular for k = 2, limit-circle for k in {3, 4}, limit-point k >= 5;
            exponents {0, (3 - k)/2},
    t = 1:  limit-circle for k = 2, limit-point for k >= 3; exponents {0, 2 - k}.

Eigenvalues are computed by Prufer-angle shooting on a shrinking sequence of
truncated intervals, cross-checked against a dense finite-difference
generalized eigenproblem, and (for the gap analysis) against the unitarily
equivalent Liouville normal form

    -F'' + V_eff(tau) F = Lambda F   on (0, pi R / 2),

whose potential is an explicit rational function of csc(tau/R).  The module
also provides the k = 2 angular-harmonic radial equations, Hardy-inequality
constants for the weight envelope, the Rayleigh upper bound for the ground
state, and the spectral-gap report.

Engine.  Every coefficient evaluation goes through `SLProblem.coeffs`, which
returns (p, q, w, p', q', w') at a float or an ndarray t; the Liouville form's
is `EffectivePotential.coeffs`.  The shooting integrator calls it with one
float per LSODA abscissa (about half of the right-hand sides repeat the last
abscissa, and reuse its coefficients); the finite-difference oracle, the
convexity probe and the Hardy check call it once on a whole mesh.  For the
algebraic-coordinate problems the array and float evaluations agree bit for
bit.  The float calls dominate the cost of a solve (53 500 of them, for
103 000 right-hand sides, in `gap --k 5 --R 0.5 --levels 3`), so every
constant factor of a formula is computed once per problem, when it is built
(`ModelParams.prefactor`, the V_eff numerator, R and 4 R^2, the scales of p, q
and of the harmonic term), each evaluation chooses its float or array
operations once, and the right-hand side keeps the last abscissa's factors in
closure cells.  On a shared 2-core x86-64 VM with Python 3.11 a float
evaluation costs 0.7 us (algebraic), 1.0 us (bare callables), 1.3 us
(Liouville form) and 1.9 us (k = 2 harmonic term); the rest of a right-hand
side adds 0.4 to 0.5 us at a new abscissa, a repeated abscissa costs 0.23 us
in all, and odeint's own call 0.4 to 1.3 us more; the host's speed varies by
up to 2x.
A solve makes about 6 shots (matching evaluations) per eigenvalue, 5.8 over
the benchmark's spectral round: 2 to 3 to bracket the coarse
finite-difference seed of its own truncation, which lies within 4e-3
relative of the root, then brentq, which stops at a bracket of
1e-9 |lambda| + 1e-12: 3 to 3.5 shots on the algebraic spectra, and on the
Liouville form of `gap --k 5 --R 0.5` 7 to 9 at lambda_0 and 2 to 3 at
lambda_1.  LSODA leaves about 3e-10 of noise in D(lambda) there, where
dD/dlambda is 0.046 at lambda_0 and 0.023 at lambda_1, so those roots are
fixed only to about 8e-9 and 1.4e-8 absolute (ROADMAP item 5, Finding 4):
5e-8 relative at lambda_0 = 0.16, where brentq still chases the noise below
it, and 1.5e-10 at lambda_1 = 95, above the stop.  On the algebraic spectra
the noise is 1e-14 to 1e-10.  `spectrum` solves each truncation level but the
last in a forked child process (`numerics.fork_map`), bit for bit as in-process.
Each Prufer integration leg is one LSODA call through scipy's odeint, whose C
port of ODEPACK writes to no file descriptor: a failed leg comes back in
`infodict["message"]`, which the integrator raises as a RuntimeError, and
odeint's ODEintWarning reaches the caller's warning filters untouched.  A
leg may take 10^5 steps (`_MXSTEP`), and all legs of one `solve_truncated`
call together 10^7 (`_NST_BUDGET`), past which the solve raises a
RuntimeError: they are 10x and 16x the most that default-level `spectrum`
and `gap` take over k 2-8 and R 0.1-10.

scipy is loaded by the shooting and FD engines alone.  `odeint`, `brentq`
and `eigh_tridiagonal` are module attributes that import scipy.integrate,
scipy.optimize and scipy.linalg the first time a shot or an FD solve reads
them (importing scipy.integrate loads the other two); `spectrum` reads them
before its levels fork, so that no child imports scipy again.  Endpoint
classification, Frobenius exponents, V_eff, the Hardy constants and the
other tables run without scipy, and a process that never solves never loads
it.  A solve reads each name through the module at call time, so a
monkeypatched `radial.odeint` is the function that runs.
"""

import math
from dataclasses import dataclass, field
import enum
import importlib
import sys

import numpy as np

from . import manifold, numerics
from .manifold import ModelParams

# The solvers `__getattr__` imports on first access, by their scipy module.
# Call sites read them through `_module`, so a patched name is the one that runs.
_SCIPY_SOLVERS = {
    "odeint": "scipy.integrate",
    "brentq": "scipy.optimize",
    "eigh_tridiagonal": "scipy.linalg",
}
_module = sys.modules[__name__]


def __getattr__(name):
    if name not in _SCIPY_SOLVERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    solver = getattr(importlib.import_module(_SCIPY_SOLVERS[name]), name)
    globals()[name] = solver
    return solver


# ---------------------------------------------------------------------------
# Problem definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class SLProblem:
    """A Sturm-Liouville triple -(p f')' + q f = Lambda w f on an interval.

    `coeffs(t)` is the one evaluation entry point: it returns
    (p, q, w, p', q', w') at a float or an ndarray t, and the shooting
    integrator, the finite-difference oracle, the convexity probe and
    `spectrum`'s range check read nothing else.  The analytic derivatives let
    the integrator compute the logarithmic derivative of its scaling function
    exactly; near singular endpoints a finite-difference step amplifies
    coefficient roundoff by orders of magnitude.

    A problem given by bare p, q, w callables instead of `coeffs` gets
    `coeffs` composed from them.  Each callable takes a float or an ndarray
    t; a scalar result for an ndarray t is broadcast (a constant
    coefficient).  Each derivative is a central difference with step 1e-6
    times the distance to the nearer endpoint, and 0 at an endpoint.

    `endpoints` holds the `EndpointReport`s of the two ends of `interval`, in
    its order; `spectrum` reads them and refuses a problem without them.
    """

    interval: tuple
    endpoints: tuple = None
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

    kinds = expected_endpoint_kinds(k)
    endpoints = (_report(kinds[0.0], 0.0, (3.0 - k) / 2.0), _report(kinds[1.0], 0.0, 2.0 - k))
    return SLProblem(coeffs=coeffs, interval=(0.0, 1.0), endpoints=endpoints)


def coefficients_with_harmonics(params, l, s):
    """k = 2 radial problem including the angular eigenvalue potential.

    The angular operator contributes the closed-form eigenvalue on W_{2l} at
    weight s as an additional multiplicative potential, which adds
    s^2 / (4 (1 - t)^2) to -q/p: the exponents at t = 1 are +-|s|/2.
    """
    from . import angular

    if params.k != 2:
        raise ValueError("angular-harmonic radial equations are specific to k = 2")
    angular._check_label(l)
    if abs(s) > l:
        raise ValueError(f"weight |s| = {abs(s)} exceeds l = {l}")
    base_problem = coefficients(params)
    base = base_problem.coeffs
    R = params.R
    # The constant left-hand factors of d(ang)/dt, computed once.
    casimir, casimir_scale, weight2, r2 = -4.0 * l * (2 * l + 1), 3.0 * R**2, s**2, R**2

    def coeffs(t):
        p, q, w, dp, dq, dw = base(t)
        ang = angular.angular_eigenvalue_k2(l, s, t, R)
        pw = np.float_power if isinstance(t, np.ndarray) else pow  # C pow either way
        t2 = pw(t, 2)
        dang = (
            casimir / (casimir_scale * pw(1.0 + t, 2))
            + weight2 * (3.0 * t2 - 2.0 * t + 3.0) / (r2 * pw(1.0 - t2, 2))
        )
        return p, q + ang * w, w, dp, dq + dang * w + ang * dw, dw

    at1 = _report(EndpointKind.LIMIT_POINT if s else EndpointKind.LIMIT_CIRCLE,
                  0.5 * abs(s), -0.5 * abs(s))
    return SLProblem(coeffs=coeffs, interval=(0.0, 1.0),
                     endpoints=(base_problem.endpoints[0], at1))


# ---------------------------------------------------------------------------
# Endpoint classification and Frobenius exponents
# ---------------------------------------------------------------------------


class EndpointKind(enum.Enum):
    REGULAR = "regular"
    LIMIT_CIRCLE = "limit-circle"
    LIMIT_POINT = "limit-point"


@dataclass(frozen=True)
class EndpointReport:
    kind: EndpointKind
    exponents: tuple
    log_case: bool


def _report(kind, mu_a, mu_b):
    """An endpoint's report: exponents larger first, log case iff they differ by an integer."""
    mu1, mu2 = max(mu_a, mu_b), min(mu_a, mu_b)
    return EndpointReport(kind=kind, exponents=(mu1, mu2), log_case=float(mu1 - mu2).is_integer())


def classify_endpoint(prob, endpoint):
    """The Weyl class and Frobenius exponents at an end of `prob.interval`.

    Reads `prob.endpoints`; a problem without them, or a point that is not
    one of the two values of `prob.interval`, is refused.
    """
    if prob.endpoints is None:
        raise ValueError("the problem carries no endpoint classification (SLProblem.endpoints)")
    if endpoint not in prob.interval:
        raise ValueError(f"endpoint must be one of {prob.interval}, got {endpoint}")
    return prob.endpoints[prob.interval.index(endpoint)]


def frobenius_exponents(prob, endpoint):
    """Indicial exponents (larger first) and log-case flag at an end of `prob.interval`."""
    report = classify_endpoint(prob, endpoint)
    return report.exponents, report.log_case


def classify_endpoints(params):
    """Both endpoint reports for the radial problem at the given parameters."""
    prob = coefficients(params)
    return dict(zip(prob.interval, prob.endpoints))


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


# LSODA's step budget per integration leg, 10x the most steps (10 031) that a
# default-level `spectrum` or `gap` leg takes over k 2-8, R 0.1-10.
_MXSTEP = 10**5

# LSODA's step budget over all legs of one `solve_truncated` call, 15.7x the
# most steps (635 562, gap --k 2 --R 10) that one call of a default-level
# `spectrum` or `gap` takes over k 2-8, R 0.1-10.
_NST_BUDGET = 10**7

# LSODA's relative tolerance on every shot; its absolute tolerance is 1e-2 of it.
_ODE_RTOL = 1e-11

# Nodes of the coarse finite-difference solve that seeds each truncation.
_SEED_NODES = 1500

# brentq's stop, a bracket of _ROOT_RTOL |lambda| + _ROOT_XTOL (see solve_truncated).
_ROOT_RTOL = 1e-9
_ROOT_XTOL = 1e-12


def _prufer_integrate(prob, t_from, t_to, lam, phi0, steps=None):
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
    abscissa reuses its phi-free factors, with the same arithmetic.  A
    one-element list `steps` adds up the LSODA steps of each leg; past
    _NST_BUDGET the integration raises RuntimeError.
    """
    rtol, atol = _ODE_RTOL, 1e-2 * _ODE_RTOL
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
        y, info = _module.odeint(
            rhs, [phi], [leg_from, leg_to], tfirst=True, tcrit=[leg_to],
            rtol=leg_rtol, atol=leg_atol, mxstep=_MXSTEP, full_output=True,
        )
        if info["message"] != "Integration successful.":
            raise RuntimeError(
                f"Prufer integration failed on ({t_from}, {t_to}): {info['message']}"
            )
        if steps is not None:
            steps[0] += int(info["nst"][-1])
            if steps[0] > _NST_BUDGET:
                raise RuntimeError(f"Prufer shooting passed its budget of {_NST_BUDGET} LSODA "
                                   f"steps per truncated solve, on ({t_from}, {t_to}) at "
                                   f"lambda={lam}")
        phi = float(y[-1, 0])
    return phi


def prufer_mismatch(prob, a, b, lam, bc=("dirichlet", "dirichlet"), steps=None):
    """Two-sided Prufer matching function D(lam) = phi_L(m) - phi_R(m).

    phi_L is integrated forward from a with the left boundary angle (0 for
    Dirichlet, pi/2 for flux); phi_R backward from b starting at pi
    (Dirichlet) or pi/2 (flux).  D is strictly increasing in lam and the
    n-th eigenvalue satisfies D = n pi.  Matching in the interior keeps the
    eigenvalue condition well-scaled when a singular endpoint layer flattens
    the one-sided angle onto its pi/2 plateaus.  `steps` is passed to both
    integrations.
    """
    match = 0.5 * (a + b)
    bc_left, bc_right = bc
    phi_a = 0.0 if bc_left == "dirichlet" else 0.5 * math.pi
    phi_b = math.pi if bc_right == "dirichlet" else 0.5 * math.pi
    left = _prufer_integrate(prob, a, match, lam, phi_a, steps)
    right = _prufer_integrate(prob, b, match, lam, phi_b, steps)
    return left - right


def solve_truncated(prob, a, b, count=2, bc=("dirichlet", "dirichlet")):
    """First `count` eigenvalues on [a, b] by two-sided Prufer shooting.

    The matching defect D(lambda) of `prufer_mismatch` is increasing in
    lambda, so the index-th eigenvalue is the unique root of
    D(lambda) - index*pi.  A coarse finite-difference solve seeds each search
    (the root itself is determined entirely by the shooting function): a
    bracket around the seed widens by 4x, at most 40 times, until D - index*pi
    changes sign across it, and brentq opens on its two ends, getting their
    values back instead of two more shots.  An end found on the root's far
    side becomes the other end as the near one moves out, so each eigenvalue
    search integrates every distinct lambda once.  A failed seed, a shot
    whose D is not finite, a seed that brackets no root and shots that take
    more than _NST_BUDGET LSODA steps in all each raise.
    brentq stops at a bracket of 1e-9 |lambda| + 1e-12: a tenth of the 1e-8
    relative at which eigenvalues are read, at every scale of lambda, with an
    absolute floor that ends the search at a zero eigenvalue.  The root is
    fixed only to the noise of D over its slope: 1e-14 to 5e-10 absolute on
    the algebraic spectra and about 1e-8 on the Liouville form of `gap --k 5
    --R 0.5`, where brentq still chases that noise for 7 to 9 shots at
    lambda_0 = 0.16 (the module docstring gives the measurement).  `count`
    may not exceed the seed's unknowns: its 1500 nodes less one per
    Dirichlet end.
    """
    unknowns = _SEED_NODES - bc.count("dirichlet")
    if not 1 <= count <= unknowns:
        raise ValueError(f"eigenvalue count must lie in [1, {unknowns}] for boundary "
                         f"conditions {bc}, got {count}")
    seeds = solve_truncated_fd(prob, a, b, count=count, bc=bc, npoints=_SEED_NODES,
                               richardson=False)
    out = []
    steps = [0]
    for index in range(count):
        target = index * math.pi
        shots = {}

        def miss(lam):
            if lam not in shots:
                shot = prufer_mismatch(prob, a, b, lam, bc=bc, steps=steps)
                if not math.isfinite(shot):
                    raise RuntimeError(f"Prufer matching value {shot} at lambda={lam} "
                                       f"on [{a}, {b}] is not finite")
                shots[lam] = shot - target
            return shots[lam]

        guess = float(seeds[index])
        delta = 1e-4 * (1.0 + abs(guess))
        lo, hi = guess - delta, guess + delta
        for _ in range(40):
            if out and lo <= out[-1]:
                lo = 0.5 * (out[-1] + guess)
            # D is increasing: an end on the root's far side becomes the
            # other end, and only the near end moves outward.
            if miss(lo) > 0.0:
                lo, hi = guess - 4.0 * delta, lo
            elif miss(hi) < 0.0:
                lo, hi = hi, guess + 4.0 * delta
            else:
                break
            delta *= 4.0
        else:
            raise RuntimeError(f"no bracket of eigenvalue {index} around its "
                               f"finite-difference seed {guess}")
        lam = float(_module.brentq(miss, lo, hi, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL))
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
        return _module.eigh_tridiagonal(
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
    # The derivatives, unread here, may overflow where p, q, w do not; a
    # non-finite p, q or w is refused by eigh_tridiagonal.
    with np.errstate(all="ignore"):
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

    raw: the Sturm-Liouville eigenvalues Lambda.
    residual: per eigenvalue, the relative change between the last two
    accelerated rows; converged is max(residual) <= tol.
    """

    raw: np.ndarray
    residual: np.ndarray
    history: list
    converged: bool
    convergence_proven: bool


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


def _endpoint_kinds(prob):
    return tuple(classify_endpoint(prob, e).kind for e in prob.interval)


def _bc_for(kinds):
    """Truncation boundary conditions by endpoint kind.

    Flux (p f' -> 0) toward regular and limit-circle endpoints (matching the
    zero-flux condition singling out the physical extension there); Dirichlet
    toward limit-point endpoints (where the truncated Dirichlet problems
    converge to the unique extension).
    """
    return tuple("dirichlet" if kind is EndpointKind.LIMIT_POINT else "flux" for kind in kinds)


def spectrum(prob, count=2, tol=1e-6, levels=7, bc=None):
    """Eigenvalues of the singular problem via shrinking truncations.

    The truncations are `default_schedule(prob, levels)`.  Convergence is
    declared when the last two Aitken-accelerated rows agree to `tol`
    relative (the per-eigenvalue `residual`); `tol` must be finite and
    positive, and `levels` at least 2.  A level that rounds onto an endpoint,
    or takes p (w + |q|) to 0 or inf on its seed mesh, is refused before any
    solve.  For problems whose endpoint classification makes the flux
    condition a genuine boundary-condition choice (limit circle at both ends
    reachable by several extensions), convergence to the intended extension
    is flagged as proven only in the regular/limit-point cases.

    Each level is an independent `solve_truncated`, seeded by its own coarse
    finite-difference solve: on the benchmark's three-level spectra those
    seeds lie 2e-6 to 4e-3 relative off the roots, where the previous
    level's eigenvalues lie up to 0.36 off (lambda_0 of the Liouville form
    at k = 5, R = 0.5, level 1) and cost the bracket search more widenings.
    Every level but the last runs in a forked child (`numerics.fork_map`),
    and `history` is bit for bit the one the levels give in-process.

    At k = 2 flux at the regular end t = 0 of `coefficients` selects the sector
    even in sigma = +-sqrt(t), lambda_0 = 0.583210 at R = 1 (`gap`: the odd one).
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"convergence tolerance must be finite and > 0, got {tol}")
    if levels < 2:
        raise ValueError(f"need at least two truncation levels to accelerate, got {levels}")
    schedule = default_schedule(prob, levels)
    lo, hi = prob.interval
    inside = [lo < a and b < hi for a, b in schedule]
    if not all(inside):
        raise ValueError(f"{levels} truncation levels reach an endpoint of ({lo}, {hi}) in "
                         f"floating point; the interval allows at most {inside.index(False)}")

    def held(a, b):  # the shots divide by sigma = sqrt(p (w + |q|)) on [a, b]
        # A non-finite p, q or w makes sigma2 non-finite, and is refused.
        with np.errstate(all="ignore"):
            try:
                p, q, w = prob.coeffs(a + (b - a) * np.linspace(0.0, 1.0, _SEED_NODES))[:3]
            except ValueError:  # a pole of the coefficients, such as V_eff's at pi R / 2
                return False
            sigma2 = p * (w + np.abs(q))
        return bool(np.all((0.0 < sigma2) & (sigma2 < math.inf)))

    # The deepest truncation spans the others, so its mesh decides.
    if not held(*schedule[-1]):
        fit = next(level for level, (a, b) in enumerate(schedule) if not held(a, b))
        raise ValueError(f"{levels} truncation levels take p (w + |q|) outside the doubles "
                         f"at level {fit + 1}; the coefficients allow at most {fit}")
    kinds = _endpoint_kinds(prob)
    if bc is None:
        bc = _bc_for(kinds)
    # Load scipy here, once, and not in every forked child of fork_map.
    for name in _SCIPY_SOLVERS:
        getattr(_module, name)
    history = numerics.fork_map(lambda ab: solve_truncated(prob, *ab, count=count, bc=bc),
                                schedule)
    final, residual = accelerate(history)
    converged = bool(np.max(residual) <= tol)
    lp_only = EndpointKind.LIMIT_CIRCLE not in kinds
    return SpectrumResult(
        raw=final,
        residual=residual,
        history=history,
        converged=converged,
        convergence_proven=converged and lp_only,
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
        "p_lower_left": np.min(p_left - k1 * np.float_power(left, (k - 1) / 2.0)),
        "q_upper_left": np.min(k2 * np.float_power(left, (k - 3) / 2.0) - q_left),
        "w_upper_left": np.min(k3 * np.float_power(left, (k - 3) / 2.0) - w_left),
        "p_lower_right": np.min(p_right - l1 * np.float_power(1.0 - right, k - 1.0)),
        "q_upper_right": np.min(l2 * np.float_power(1.0 - right, k - 1.0) - q_right),
        "w_upper_right": np.min(l3 * np.float_power(1.0 - right, k - 2.0) - w_right),
    }
    constants = {"k1": k1, "k2": k2, "k3": k3, "l1": l1, "l2": l2, "l3": l3}
    ok = all(v >= -1e-12 * max(1.0, ck) for v in margins.values())
    return {"constants": constants, "margins": margins, "all_hold": ok}


# ---------------------------------------------------------------------------
# Liouville normal form
# ---------------------------------------------------------------------------


def _veff_poly_coeffs(k, R):
    """Coefficients of A(x) in descending even powers x^10 .. x^0."""
    return [
        k**2 - 6.0 * k + 8.0,
        -4.0 * k**2 + 12.0 * k + 4.0 * R**4 - 6.0,
        -2.0 * k**2 - 8.0 * k + 5.0,
        12.0 * k**2 - 44.0 * k - 8.0 * R**4 + 44.0,
        9.0 * k**2 - 18.0 * k + 9.0,
        4.0 * R**4,
    ]


# (sin, tan, pow) for a float and for an ndarray argument; float_power calls
# the C library's pow, as the float ** operator does, bit for bit.
_FLOAT_OPS = (math.sin, math.tan, pow)
_ARRAY_OPS = (np.sin, np.tan, np.float_power)


@dataclass(frozen=True)
class EffectivePotential:
    """V_eff(tau) of the Liouville normal form on (0, pi R / 2).

    `coeffs` (the `coeffs` of `liouville_problem`) and `value` take a float or
    an ndarray tau.  R, the numerator polynomial A's coefficients, pi R / 2
    and 4 R^2, the factor of both denominators, are computed at construction.
    """

    params: ModelParams
    R: float = field(init=False, repr=False, compare=False)
    poly: tuple = field(init=False, repr=False, compare=False)
    hi: float = field(init=False, repr=False, compare=False)
    four_r2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        R = self.params.R
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "poly", tuple(_veff_poly_coeffs(self.params.k, R)))
        object.__setattr__(self, "hi", math.pi * R / 2.0)
        object.__setattr__(self, "four_r2", 4.0 * R**2)

    def coeffs(self, tau):
        """(1, V_eff, 1, 0, dV_eff/dtau, 0), sharing one validation and one sine.

        For an ndarray tau the ones and zeros are arrays of its shape.  The
        value is the rational form in x^2 = (1 / sin(tau / R))^2, the exact
        derivative the rational form in y = 1 / sin(tau / R)^2; the two
        squares differ in rounding, and each form keeps its own.
        """
        R, hi, four_r2 = self.R, self.hi, self.four_r2
        array = isinstance(tau, np.ndarray)
        if not (numerics._inside(tau, 0.0, hi) if array else 0.0 < tau < hi):
            raise ValueError(f"tau must lie in (0, {hi}), got {tau}")
        sin, tan, pw = _ARRAY_OPS if array else _FLOAT_OPS
        one, zero = (np.ones_like(tau), np.zeros_like(tau)) if array else (1.0, 0.0)
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
        return one, num / den, one, zero, dv_dy * dy_dtau, zero

    def value(self, tau):
        return self.coeffs(tau)[1]


def liouville_problem(params):
    """The Liouville normal form as an SLProblem with p = w = 1.

    Weyl's alternative for V ~ c / (tau - tau0)^2 classifies each end: regular
    iff c = 0 (the rest of V is bounded), limit circle iff c < 3/4.
    """
    veff = EffectivePotential(params)

    def report(endpoint):
        c = veff_inverse_square(params, endpoint)
        kind = (EndpointKind.REGULAR if c == 0.0
                else EndpointKind.LIMIT_CIRCLE if c < 0.75 else EndpointKind.LIMIT_POINT)
        return _report(kind, *veff_exponents(params, endpoint))

    return SLProblem(coeffs=veff.coeffs, interval=(0.0, veff.hi),
                     endpoints=(report(0.0), report(veff.hi)))


def veff_inverse_square(params, endpoint):
    """c of V ~ c / (tau - tau0)^2 at an endpoint tau0 of (0, pi R / 2).

    c = (k^2-6k+8)/4 at tau = 0 and c = (4k^2-16k+15)/4 at tau = pi R / 2.
    """
    k = params.k
    hi = math.pi * params.R / 2.0
    if endpoint == 0.0:
        return (k**2 - 6.0 * k + 8.0) / 4.0
    if abs(endpoint - hi) < 1e-12 * max(hi, 1.0):
        return (4.0 * k**2 - 16.0 * k + 15.0) / 4.0
    raise ValueError(f"endpoint must be 0 or {hi}, got {endpoint}")


def veff_exponents(params, endpoint):
    """Indicial exponents mu(mu-1) = c of -F'' + V F, c = `veff_inverse_square`."""
    root = math.sqrt(1.0 + 4.0 * veff_inverse_square(params, endpoint))
    return (0.5 * (1.0 + root), 0.5 * (1.0 - root))


def convexity_check(params):
    """Discrete convexity probe of V_eff on 2000 interior points of the interval.

    Returns the minimum second difference (scaled by h^2) and a boolean; the
    potential blows up convexly at both ends, so the interior grid decides.
    A V_eff or scaled second difference that a double cannot hold raises
    ValueError.
    """
    hi, grid_size = math.pi * params.R / 2.0, 2000
    taus = np.linspace(hi / (grid_size + 1), hi - hi / (grid_size + 1), grid_size)
    # V_eff's derivative, unread here, may overflow where V_eff does not.  A
    # non-finite V_eff leaves a second difference non-finite, and h^2 may underflow.
    with np.errstate(all="ignore"):
        vals = liouville_problem(params).coeffs(taus)[1]
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        h = taus[1] - taus[0]
        min_second = float(np.min(second) / h**2)
    if not (np.all(np.isfinite(second)) and math.isfinite(min_second)):
        raise ValueError(f"V_eff or its second difference leaves the doubles at k = {params.k}, "
                         f"R = {params.R!r}")
    scale = max(1.0, float(np.median(np.abs(vals))))
    return {
        "min_second_derivative": min_second,
        "convex": bool(np.min(second) >= -1e-8 * scale),
        "grid_size": grid_size,
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

    At k = 2 Dirichlet at the regular end tau = 0 selects the sector odd in
    sigma = +-sqrt(t), lambda_0 = 1.853884 at R = 1 (`spectrum`: the even one).
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
