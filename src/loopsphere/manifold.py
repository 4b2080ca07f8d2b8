"""Charts, strata, Riemannian weights, and volume of the degree-one loop variety.

The degree-one sphere-valued loops

    n(theta) = v + a cos(theta) + b sin(theta),    n . n = R^2,

form a (3k-2)-dimensional variety inside S^k loops.  Away from two singular
strata -- point loops (|v| = R, a = b = 0) and great circles (v = 0) -- the
variety fibers over the radial coordinate t = |v|^2 / R^2 in (0, 1) with fiber
the Stiefel manifold of orthonormal 3-frames (e_v, e_a, e_b) in R^{k+1}:

    v = R sqrt(t) e_v,  a = R sqrt(1-t) e_a,  b = R sqrt(1-t) e_b.

This module provides the chart in algebraic (t) and arclength (tau,
t = sin^2(tau/R)) coordinates, the induced metric on the frame directions,
the scalar volume weights, and the total Riemannian volume.
"""

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import numerics, trigpoly
from .trigpoly import TrigPolyVec


_LOG_MIN_NORMAL = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)
# The largest k whose 2^((5k-3)/2) is a double: 2^1023.5.
K_MAX = 410


class StratumError(ValueError):
    """Raised when an operation requires a smooth-stratum point but got a singular one."""


@dataclass(frozen=True)
class ModelParams:
    """Sphere dimension 2 <= k <= K_MAX, finite radius R > 0, finite coupling scale L > 0.

    The largest powers the model takes, 2^((5k-3)/2) and R^(3k-2) (both in
    the weight prefactor; R^4 is the next) and L itself, must be normal
    doubles; the check on R and L runs in log space.
    """

    k: int
    R: float = 1.0
    L: float = 1.0
    # c_k of `weight_prefactor`, computed once at construction; not part of
    # the identity.
    prefactor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 2:
            raise ValueError(f"sphere dimension k must be an integer >= 2, got {self.k}")
        if self.k > K_MAX:
            raise ValueError(
                f"sphere dimension k = {self.k} is out of range: the weight prefactor's "
                f"2^((5k-3)/2) overflows a double for k > {K_MAX}"
            )
        if not (0 < self.R < math.inf):
            raise ValueError(f"radius R must be positive and finite, got {self.R}")
        if not (0 < self.L < math.inf):
            raise ValueError(f"coupling scale L must be positive and finite, got {self.L}")
        for name, symbol, power in (("radius", "R", 3 * self.k - 2), ("coupling scale", "L", 1)):
            value = getattr(self, symbol)
            log_power = power * math.log(value)
            if not (_LOG_MIN_NORMAL <= log_power <= _LOG_MAX):
                raise ValueError(
                    f"{name} {symbol} = {value!r} is out of range: {symbol}^{power} = "
                    f"exp({log_power:.10g}) cannot be represented as a normal double"
                )
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "R", float(self.R))
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "prefactor", weight_prefactor(self))


class Stratum(enum.Enum):
    SMOOTH = "smooth"
    POINT_LOOPS = "point-loops"
    GREAT_CIRCLES = "great-circles"
    NOT_ON_VARIETY = "not-on-variety"


@dataclass(frozen=True)
class FramePoint:
    """Radial coordinate t in (0,1) plus an orthonormal 3-frame (rows of `frame`)."""

    t: float
    frame: np.ndarray  # shape (3, k+1); rows e_v, e_a, e_b

    def __post_init__(self):
        t = float(self.t)
        frame = np.asarray(self.frame, dtype=float)
        if not (0.0 < t < 1.0):
            raise ValueError(f"radial coordinate t must lie in (0, 1), got {t}")
        if frame.ndim != 2 or frame.shape[0] != 3:
            raise ValueError(f"frame must have shape (3, k+1), got {frame.shape}")
        gram = frame @ frame.T
        if np.linalg.norm(gram - np.eye(3)) > 1e-12:
            raise ValueError(
                f"frame rows are not orthonormal: |G - I| = {np.linalg.norm(gram - np.eye(3)):.3e}"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "frame", frame)

    @property
    def k(self):
        return self.frame.shape[1] - 1


def classify_stratum(n, radius):
    """Locate a loop on the sphere of the given radius within the degree-one variety.

    A loop off the variety (nonzero constraint residual) is NOT_ON_VARIETY;
    on the variety, vanishing harmonics mean a point loop, vanishing constant
    term a great circle, anything else the smooth stratum.  Any ambient
    dimension is accepted, the circle (k = 1) included.
    """
    res = trigpoly.constraint_residual(n, radius)
    if res.max_abs_coeff() > trigpoly.SPHERE_RTOL * radius**2:
        return Stratum.NOT_ON_VARIETY
    if n.degree > 1:
        return Stratum.NOT_ON_VARIETY
    harm = 0.0 if n.degree == 0 else np.linalg.norm(n.a[0]) + np.linalg.norm(n.b[0])
    if harm <= trigpoly.TRIM_RTOL * radius:
        return Stratum.POINT_LOOPS
    if np.linalg.norm(n.v) <= 1e-10 * radius:
        return Stratum.GREAT_CIRCLES
    return Stratum.SMOOTH


def alg_chart(point, params):
    """Degree-one loop for a frame point, algebraic radial coordinate t."""
    if point.k != params.k:
        raise ValueError(f"frame is in R^{point.k + 1}, parameters specify R^{params.k + 1}")
    R, t = params.R, point.t
    e_v, e_a, e_b = point.frame
    v = R * math.sqrt(t) * e_v
    a = R * math.sqrt(1.0 - t) * e_a
    b = R * math.sqrt(1.0 - t) * e_b
    return TrigPolyVec(v=v, a=a[None, :], b=b[None, :])


def trig_chart(tau, frame, params):
    """Degree-one loop in arclength coordinate tau in (0, pi R / 2)."""
    R = params.R
    if not (0.0 < tau < math.pi * R / 2.0):
        raise ValueError(f"arclength coordinate must lie in (0, {math.pi * R / 2.0}), got {tau}")
    t = math.sin(tau / R) ** 2
    return alg_chart(FramePoint(t=t, frame=frame), params)


def chart_inverse(n, params):
    """Recover (t, frame) from a smooth-stratum degree-one loop.

    Raises StratumError naming the stratum for singular or off-variety loops.
    """
    if n.ambient_dim != params.k + 1:
        raise ValueError(
            f"loop lives in R^{n.ambient_dim} but parameters specify R^{params.k + 1}"
        )
    stratum = classify_stratum(n, params.R)
    if stratum is not Stratum.SMOOTH:
        raise StratumError(
            f"chart inverse requires a smooth-stratum loop; this one lies on '{stratum.value}'"
        )
    R = params.R
    v = n.v
    a = n.a[0]
    b = n.b[0]
    t = float(v @ v) / R**2
    e_v = v / np.linalg.norm(v)
    e_a = a / np.linalg.norm(a)
    e_b = b / np.linalg.norm(b)
    return FramePoint(t=t, frame=np.vstack([e_v, e_a, e_b]))


def tau_of_t(t, params):
    return params.R * math.asin(math.sqrt(t))


def t_of_tau(tau, params):
    return math.sin(tau / params.R) ** 2


def weight_prefactor(params):
    """Constant c_k = R^(3k-2) / 2^((5k-3)/2) in the algebraic radial weight."""
    k, R = params.k, params.R
    return R ** (3 * k - 2) / 2 ** ((5 * k - 3) / 2)


def weight_alg(t, params):
    """Scalar radial volume weight in the coordinate t in (0, 1); t a float or an ndarray.

    The prefactor is `params.prefactor`; the powers go through the C
    library's pow for either argument type (see numerics._power).
    """
    array = isinstance(t, np.ndarray)
    if not (numerics._inside(t, 0.0, 1.0) if array else 0.0 < t < 1.0):
        raise ValueError(f"weight_alg requires t in the open interval (0, 1), got {t}")
    pw = np.float_power if array else pow
    k = params.k
    return params.prefactor * pw(t, (k - 3) / 2.0) * pw(1.0 - t, k - 2) * (1.0 + t)


def weight_trig(tau, params):
    """Scalar radial volume weight in arclength tau in (0, pi R / 2)."""
    R, k = params.R, params.k
    if not (0.0 < tau < math.pi * R / 2.0):
        raise ValueError(
            f"weight_trig requires tau in (0, {math.pi * R / 2.0}), got {tau}"
        )
    pref = R ** (3 * k - 3) / 2 ** ((5 * k - 5) / 2)
    s = math.sin(tau / R)
    c = math.cos(tau / R)
    return pref * s ** (k - 2) * c ** (2 * k - 3) * (1.0 + s * s)


@dataclass(frozen=True)
class MetricBlock:
    """Diagonal frame-direction metric coefficients and their multiplicities.

    Keys: 'va', 'vb', 'ab' (rotations inside the frame) and, for k >= 3,
    'vi', 'ai', 'bi' (rotations of a frame leg against the orthogonal
    complement, multiplicity k-2 each).  The overall scale R^2/4 multiplies
    every entry.
    """

    coefficients: dict
    multiplicities: dict
    scale: float


def metric_omega(t, params):
    """Induced metric on the Stiefel-fiber directions at radial coordinate t."""
    if not (0.0 < t < 1.0):
        raise ValueError(f"metric_omega requires t in (0, 1), got {t}")
    k, R = params.k, params.R
    coeff = {
        "va": 1.0 + t,
        "vb": 1.0 + t,
        "ab": 2.0 * (1.0 - t),
    }
    mult = {"va": 1, "vb": 1, "ab": 1}
    if k >= 3:
        coeff.update({"vi": 2.0 * t, "ai": 1.0 - t, "bi": 1.0 - t})
        mult.update({"vi": k - 2, "ai": k - 2, "bi": k - 2})
    return MetricBlock(coefficients=coeff, multiplicities=mult, scale=R**2 / 4.0)


def sqrt_det_omega(t, params):
    """sqrt(det) of the frame-direction metric block (without the R^2/4 scale),
    computed directly from the diagonal coefficients."""
    block = metric_omega(t, params)
    det = 1.0
    for key, c in block.coefficients.items():
        det *= c ** block.multiplicities[key]
    return math.sqrt(det)


def sqrt_det_omega_closed_form(t, params):
    """Closed-form candidate for sqrt_det_omega recorded for comparison.

    This display disagrees with the direct product of the diagonal metric
    entries by the constant-and-(1-t) factor reported by
    volume_density_discrepancy; the direct computation is authoritative.
    """
    k = params.k
    return 2 ** ((k - 2) / 2.0) * t ** ((k - 2) / 2.0) * (1.0 - t) ** (k - 0.5) * (1.0 + t)


def volume_density_discrepancy(params):
    """Compare the direct sqrt-determinant with the recorded closed form.

    Returns a record with both values at t = 0.1, 0.2, ..., 0.9 and their
    ratio, which is sqrt(2) * (1 - t)^(-1) pointwise: the closed form carries
    one extra factor of (1-t) and one fewer factor of sqrt(2).
    """
    ts = np.linspace(0.1, 0.9, 9)
    direct = np.array([sqrt_det_omega(t, params) for t in ts])
    recorded = np.array([sqrt_det_omega_closed_form(t, params) for t in ts])
    ratio = recorded / direct
    predicted = (1.0 - ts) / math.sqrt(2.0)
    return {
        "t": ts,
        "direct": direct,
        "recorded": recorded,
        "ratio": ratio,
        "ratio_model": predicted,
        "ratio_matches_model": bool(np.allclose(ratio, predicted, rtol=1e-12)),
    }


def sphere_volume(k):
    """Riemannian volume of the unit k-sphere (the 0-sphere counts 2 points)."""
    if k < 0:
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def _exp_normal(log_value, what):
    """exp(log_value), refusing a result that is not a normal double."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not (sys.float_info.min <= value < math.inf):
        raise ValueError(
            f"{what} = exp({log_value:.10g}) cannot be represented as a normal double"
        )
    return value


def _log_stiefel_volume(k):
    if k < 2:
        raise ValueError("frame manifold requires k >= 2")
    return (
        math.log(8.0)
        + (3 * k / 2.0) * math.log(math.pi)
        - math.lgamma((k + 1) / 2.0)
        - math.lgamma(k / 2.0)
        - math.lgamma((k - 1) / 2.0)
    )


def _log_radial_volume(params):
    k, R = params.k, params.R
    return (
        (3 - (5 * k - 1) / 2.0) * math.log(2.0)
        + (3 * k - 2) * math.log(R)
        + math.lgamma(k - 1)
        + math.lgamma((k + 1) / 2.0)
        - math.lgamma((3 * k - 1) / 2.0)
    )


def stiefel_volume(k):
    """Volume of the orthonormal 3-frames in R^{k+1}.

    Equals vol(S^k) vol(S^{k-1}) vol(S^{k-2}); at k = 2 the last factor is
    vol(S^0) = 2 and the value is 16 pi^2.  Computed in log space; raises
    ValueError when the value is not a normal double.
    """
    return _exp_normal(_log_stiefel_volume(k), f"Stiefel volume at k = {k}")


def radial_volume_closed_form(params):
    """Exact value of the integral of the radial weight over (0, pi R / 2).

    Computed in log space; raises ValueError when the value is not a normal
    double.
    """
    return _exp_normal(_log_radial_volume(params),
                       f"radial volume at k = {params.k}, R = {params.R}")


def radial_volume_quadrature(params):
    """The same radial integral by 120-point Gauss-Legendre in the arclength coordinate."""
    rule = numerics.gauss_legendre(120)
    eps = 1e-13 * params.R
    return numerics.integrate(
        lambda tau: weight_trig(tau, params),
        (eps, math.pi * params.R / 2.0 - eps),
        rule,
    )


def volume_total(params):
    """Total Riemannian volume: radial weight integral times the frame volume.

    Computed in log space; raises ValueError when the value is not a normal
    double.
    """
    return _exp_normal(_log_radial_volume(params) + _log_stiefel_volume(params.k),
                       f"total volume at k = {params.k}, R = {params.R}")
