"""Vector- and scalar-valued trigonometric polynomials on the circle.

A vector trig polynomial of degree N in ambient dimension d is

    n(theta) = v + sum_{s=1}^{N} (a[s] cos(s theta) + b[s] sin(s theta)),

stored as the constant v (shape (d,)) and harmonic stacks a, b (shape (N, d)).
Products are computed exactly through complex exponential coefficients
c_s = (a_s - i b_s)/2, c_{-s} = conj(c_s), c_0 = v, for which the pointwise
product is a convolution.

The L2 pairing used throughout is the average over the circle,

    <m, n> = v_m . v_n + (1/2) sum_s (a_m[s] . a_n[s] + b_m[s] . b_n[s]),

and similarly for scalar polynomials.
"""

import json
from dataclasses import dataclass, field

import numpy as np

TRIM_RTOL = 1e-12
# The largest magnitude of an entry or radius a serialized loop may hold, so
# that the squares and products of entries the constraint sums are doubles.
MAX_ENTRY = 2.0**500


class LoopFormatError(ValueError):
    """Raised when serialized loop data is malformed."""


@dataclass(frozen=True)
class TrigPolyVec:
    """Vector-valued trig polynomial; trailing zero harmonics are trimmed."""

    v: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"constant term must be a vector, got shape {v.shape}")
        d = v.shape[0]
        if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape or a.shape[1:] != (d,):
            raise ValueError(
                f"harmonic stacks must have shape (N, {d}); got {a.shape} and {b.shape}"
            )
        # Trim trailing harmonics that are negligible relative to the loop norm.
        norm = np.sqrt(v @ v + 0.5 * (np.sum(a * a) + np.sum(b * b)))
        cutoff = TRIM_RTOL * max(norm, 1e-300)
        deg = a.shape[0]
        while deg > 0 and np.linalg.norm(a[deg - 1]) + np.linalg.norm(b[deg - 1]) <= cutoff:
            deg -= 1
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "a", a[:deg].copy())
        object.__setattr__(self, "b", b[:deg].copy())

    @property
    def degree(self):
        return self.a.shape[0]

    @property
    def ambient_dim(self):
        return self.v.shape[0]

    def eval(self, theta):
        """Evaluate at angle(s) theta; returns shape theta.shape + (d,)."""
        th = np.asarray(theta, dtype=float)
        out = np.broadcast_to(self.v, th.shape + (self.ambient_dim,)).copy()
        for s in range(1, self.degree + 1):
            out += np.multiply.outer(np.cos(s * th), self.a[s - 1])
            out += np.multiply.outer(np.sin(s * th), self.b[s - 1])
        return out

    def norm(self):
        return np.sqrt(l2_inner(self, self))


@dataclass(frozen=True)
class ScalarTrigPoly:
    """Scalar trig polynomial c0 + sum_s (cos_coeffs[s-1] cos + sin_coeffs[s-1] sin)."""

    c0: float
    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sin_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        cos_c = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float))
        sin_c = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float))
        if cos_c.ndim != 1 or cos_c.shape != sin_c.shape:
            raise ValueError("cosine and sine coefficient sequences must match in length")
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "cos_coeffs", cos_c)
        object.__setattr__(self, "sin_coeffs", sin_c)

    @property
    def degree(self):
        return self.cos_coeffs.shape[0]

    def eval(self, theta):
        th = np.asarray(theta, dtype=float)
        out = np.full(th.shape, self.c0)
        for s in range(1, self.degree + 1):
            out = out + self.cos_coeffs[s - 1] * np.cos(s * th)
            out = out + self.sin_coeffs[s - 1] * np.sin(s * th)
        return out

    def max_abs_coeff(self):
        vals = [abs(self.c0)]
        if self.degree:
            vals.append(np.max(np.abs(self.cos_coeffs)))
            vals.append(np.max(np.abs(self.sin_coeffs)))
        return max(vals)

    def norm(self):
        return np.sqrt(scalar_l2_inner(self, self))


def trig_poly(v, a=None, b=None):
    """Build a TrigPolyVec from the constant term and optional harmonic stacks."""
    v = np.asarray(v, dtype=float)
    d = v.shape[0]
    if a is None:
        a = np.zeros((0, d))
    if b is None:
        b = np.zeros((0, d))
    return TrigPolyVec(v=v, a=a, b=b)


def to_exponential(n):
    """Complex coefficients c[m+N] for m = -N..N (N the degree), c_0 = v."""
    order = n.degree
    d = n.ambient_dim
    c = np.zeros((2 * order + 1, d), dtype=complex)
    c[order] = n.v
    for s in range(1, n.degree + 1):
        cs = 0.5 * (n.a[s - 1] - 1j * n.b[s - 1])
        c[order + s] = cs
        c[order - s] = np.conj(cs)
    return c


def from_exponential(c):
    """Inverse of to_exponential; input shape (2M+1, d) with Hermitian symmetry."""
    m2, d = c.shape
    order = (m2 - 1) // 2
    v = c[order].real
    a = np.zeros((order, d))
    b = np.zeros((order, d))
    for s in range(1, order + 1):
        a[s - 1] = 2.0 * c[order + s].real
        b[s - 1] = -2.0 * c[order + s].imag
    return TrigPolyVec(v=v, a=a, b=b)


def _convolve_exponential(c1, c2):
    """Full convolution over the harmonic axis (pointwise product of series)."""
    m1 = (c1.shape[0] - 1) // 2
    m2 = (c2.shape[0] - 1) // 2
    order = m1 + m2
    out_shape = (2 * order + 1,) + np.broadcast_shapes(c1.shape[1:], c2.shape[1:])
    out = np.zeros(out_shape, dtype=complex)
    for i in range(c1.shape[0]):
        for j in range(c2.shape[0]):
            out[i + j] = out[i + j] + c1[i] * c2[j]
    return out


def pointwise_dot(m, n):
    """Exact scalar polynomial theta -> m(theta) . n(theta), degree deg m + deg n."""
    if m.ambient_dim != n.ambient_dim:
        raise ValueError("ambient dimensions differ")
    cm = to_exponential(m)
    cn = to_exponential(n)
    order = m.degree + n.degree
    c = np.zeros(2 * order + 1, dtype=complex)
    for i in range(cm.shape[0]):
        for j in range(cn.shape[0]):
            c[i + j] += cm[i] @ cn[j]
    c0 = c[order].real
    cos_c = 2.0 * c[order + 1 :].real
    sin_c = -2.0 * c[order + 1 :].imag
    return ScalarTrigPoly(c0=c0, cos_coeffs=cos_c, sin_coeffs=sin_c)


def scalar_mul(n, phi):
    """Exact vector polynomial theta -> phi(theta) * n(theta)."""
    cn = to_exponential(n)
    cphi = np.zeros((2 * phi.degree + 1, 1), dtype=complex)
    cphi[phi.degree, 0] = phi.c0
    for s in range(1, phi.degree + 1):
        cs = 0.5 * (phi.cos_coeffs[s - 1] - 1j * phi.sin_coeffs[s - 1])
        cphi[phi.degree + s, 0] = cs
        cphi[phi.degree - s, 0] = np.conj(cs)
    return from_exponential(_convolve_exponential(cphi, cn))


def add(m, n):
    deg = max(m.degree, n.degree)
    d = m.ambient_dim
    a = np.zeros((deg, d))
    b = np.zeros((deg, d))
    a[: m.degree] += m.a
    b[: m.degree] += m.b
    a[: n.degree] += n.a
    b[: n.degree] += n.b
    return TrigPolyVec(v=m.v + n.v, a=a, b=b)


def scale(n, factor):
    return TrigPolyVec(v=factor * n.v, a=factor * n.a, b=factor * n.b)


def project(n, order):
    """Truncate to harmonics of index <= order (L2-orthogonal projection)."""
    if order < 0:
        raise ValueError("projection order must be >= 0")
    deg = min(order, n.degree)
    return TrigPolyVec(v=n.v, a=n.a[:deg], b=n.b[:deg])


def l2_inner(m, n):
    """Circle-average pairing of two vector polynomials."""
    deg = min(m.degree, n.degree)
    out = float(m.v @ n.v)
    if deg:
        out += 0.5 * float(np.sum(m.a[:deg] * n.a[:deg]) + np.sum(m.b[:deg] * n.b[:deg]))
    return out


def scalar_l2_inner(phi, psi):
    deg = min(phi.degree, psi.degree)
    out = phi.c0 * psi.c0
    if deg:
        out += 0.5 * float(
            phi.cos_coeffs[:deg] @ psi.cos_coeffs[:deg]
            + phi.sin_coeffs[:deg] @ psi.sin_coeffs[:deg]
        )
    return out


def constraint_residual(n, radius):
    """Scalar polynomial n.n - radius^2; identically zero iff n maps into the sphere."""
    sq = pointwise_dot(n, n)
    return ScalarTrigPoly(
        c0=sq.c0 - radius**2, cos_coeffs=sq.cos_coeffs, sin_coeffs=sq.sin_coeffs
    )


def loop_to_dict(n, radius):
    """Serialize a sphere-valued loop with its sphere dimension and radius."""
    return {
        "k": n.ambient_dim - 1,
        "N": n.degree,
        "R": float(radius),
        "v": n.v.tolist(),
        "a": n.a.tolist(),
        "b": n.b.tolist(),
    }


def check_entries(record, *values):
    """Raise LoopFormatError unless every value is finite and at most MAX_ENTRY in magnitude."""
    for value in values:
        bad = np.asarray(value)[~(np.abs(value) <= MAX_ENTRY)]
        if bad.size:
            raise LoopFormatError(
                f"{record} record holds {float(bad[0])!r}; entries must be finite and at "
                f"most 2^500 in magnitude"
            )


def loop_from_dict(data):
    """Deserialize; returns (TrigPolyVec, radius).  Validates shapes and types."""
    try:
        k = int(data["k"])
        deg = int(data["N"])
        radius = float(data["R"])
        v = np.asarray(data["v"], dtype=float)
        a = np.asarray(data["a"], dtype=float)
        b = np.asarray(data["b"], dtype=float)
        if a.size == 0:
            a = a.reshape(0, k + 1)
        if b.size == 0:
            b = b.reshape(0, k + 1)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise LoopFormatError(f"malformed loop record: {exc}") from exc
    check_entries("loop", radius, v, a, b)
    if radius <= 0:
        raise LoopFormatError(f"radius must be positive, got {radius}")
    if v.shape != (k + 1,):
        raise LoopFormatError(f"constant term has shape {v.shape}, expected ({k + 1},)")
    if a.shape != (deg, k + 1) or b.shape != (deg, k + 1):
        raise LoopFormatError(
            f"harmonic stacks have shapes {a.shape}, {b.shape}; expected ({deg}, {k + 1})"
        )
    return TrigPolyVec(v=v, a=a, b=b), radius


def loop_to_json(n, radius, **kwargs):
    """Strict JSON text of the loop; a NaN or infinite value raises ValueError."""
    return json.dumps(loop_to_dict(n, radius), allow_nan=False, **kwargs)


def loop_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoopFormatError(f"invalid JSON: {exc}") from exc
    return loop_from_dict(data)
