"""Trigonometric polynomials on the circle with values in R^d.

A vector trig polynomial of degree N in ambient dimension d is

    n(theta) = v + sum_{s=1}^{N} (a[s] cos(s theta) + b[s] sin(s theta)),

stored as the constant v (shape (d,)) and harmonic stacks a, b (shape (N, d)).
Products are computed exactly through complex exponential coefficients
c_s = (a_s - i b_s)/2, c_{-s} = conj(c_s), c_0 = v, for which the pointwise
product is a convolution.  A scalar polynomial, such as n.n or a component
index phi of the constraint, is a loop in R^1.  The one layout,
`_exponential`, serves scalar and vector loops alike.

The L2 pairing used throughout is the average over the circle,

    <m, n> = v_m . v_n + (1/2) sum_s (a_m[s] . a_n[s] + b_m[s] . b_n[s]).

Loop and rotations records are read field by field by one reader,
`record_field`, which checks a field's type, range and shape in one call and
names the record and the field in the LoopFormatError it raises.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

TRIM_RTOL = 1e-12
# The test of `sphere_residual`: no constraint-residual coefficient above SPHERE_RTOL R^2.
SPHERE_RTOL = 1e-9
# The largest magnitude of an entry or radius a serialized loop may hold, so
# that the squares and products of entries the constraint sums are doubles.
MAX_ENTRY = 2.0**500
# The smallest radius a serialized loop may hold, so that R^2, the scale of
# the sphere test and of the harmonic trim, is a normal double.
MIN_RADIUS = 2.0**-500


def _euclidean_norm(x):
    """np.linalg.norm(x) of a C-ordered real array, bit for bit, in one numpy call."""
    return math.sqrt(np.vdot(x, x))


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
        norm = math.sqrt(v @ v + 0.5 * ((a * a).sum() + (b * b).sum()))
        cutoff = TRIM_RTOL * max(norm, 1e-300)
        deg = a.shape[0]
        while deg > 0 and _euclidean_norm(a[deg - 1]) + _euclidean_norm(b[deg - 1]) <= cutoff:
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


def trig_poly(v, a=None, b=None):
    """Build a TrigPolyVec from the constant term and optional harmonic stacks."""
    v = np.asarray(v, dtype=float)
    d = v.shape[0]
    if a is None:
        a = np.zeros((0, d))
    if b is None:
        b = np.zeros((0, d))
    return TrigPolyVec(v=v, a=a, b=b)


def _exponential(v, a, b):
    """Complex coefficients c[m+N], m = -N..N, of v + sum_s a[s] cos + b[s] sin.

    c_0 = v and c_{+-s} = (a[s] -+ i b[s])/2; a and b stack the N harmonics on
    their first axis and have the shape of v after it, (d,) for a loop in R^d.
    """
    half = 0.5 * (a - 1j * b)
    return np.concatenate([np.conj(half[::-1]), [v], half])


def from_exponential(c):
    """Vector loop of coefficients c of shape (2M+1, d) with Hermitian symmetry."""
    order = (c.shape[0] - 1) // 2
    return TrigPolyVec(v=c[order].real, a=2.0 * c[order + 1 :].real, b=-2.0 * c[order + 1 :].imag)


def _convolve(c1, c2):
    """Full convolution over the harmonic axis (pointwise product of series).

    Each product c1[i] c2[j] is formed once and added to out[i + j] in
    ascending i, so every entry is rounded the same way whatever the trailing
    shape; the curvature Hessians rely on that.
    """
    tail = np.broadcast_shapes(c1.shape[1:], c2.shape[1:])
    out = np.zeros((c1.shape[0] + c2.shape[0] - 1,) + tail, dtype=complex)
    for i in range(c1.shape[0]):
        out[i : i + c2.shape[0]] += c1[i] * c2
    return out


def _dot_exponential(m, n):
    """Exponential coefficients, untrimmed, of theta -> m(theta) . n(theta)."""
    if m.ambient_dim != n.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return _convolve(_exponential(m.v, m.a, m.b), _exponential(n.v, n.a, n.b)).sum(axis=-1)


def pointwise_dot(m, n):
    """Exact loop in R^1 theta -> m(theta) . n(theta), degree at most deg m + deg n."""
    return from_exponential(_dot_exponential(m, n)[:, None])


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


def sphere_residual(n, radius):
    """(largest coefficient of n.n - radius^2, whether n is on the sphere).

    The coefficients are c_0 - radius^2, 2 Re c_s and -2 Im c_s, read from the
    product before the harmonic trim of TrigPolyVec could drop any of them.
    """
    c = _dot_exponential(n, n)
    order = c.shape[0] // 2
    harmonics = 2.0 * np.abs(c[order + 1 :].view(float))  # Re c_s, Im c_s interleaved
    residual = float(max(abs(c[order].real - radius**2), harmonics.max(initial=0.0)))
    return residual, bool(residual <= SPHERE_RTOL * radius**2)


def require_on_sphere(n, radius):
    """Raise ValueError unless n maps into the sphere of the given radius."""
    residual, on_sphere = sphere_residual(n, radius)
    if not on_sphere:
        raise ValueError(f"loop does not map into the sphere of radius {radius}: largest "
                         f"constraint-residual coefficient is {residual:.3e}")


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


def _shape(value):
    """The lengths of the levels of nested lists, down to the first that is ragged or not lists."""
    shape, level = (), [value]
    while level and all(type(x) is list for x in level) and len({len(x) for x in level}) == 1:
        shape += (len(level[0]),)
        level = [x for row in level for x in row]
    return shape


def record_field(record, data, name, shape):
    """The field `name` of a loop or rotations record, checked; LoopFormatError otherwise.

    data is the record's JSON object, or the object of one rotation, whose
    field `u` is named `rotations[i].u`.  shape is int for a nonnegative
    integer, list for a list, and otherwise the shape of nested lists of JSON
    numbers (() for one number), each finite and at most MAX_ENTRY in
    magnitude, returned as a float array.  A boolean or a numeric string,
    which float() would take, is refused.
    """
    key = name.rpartition(".")[2]
    if type(data) is not dict:
        raise LoopFormatError(f"malformed {record} record: expected a JSON object holding "
                              f"field {name}")
    if key not in data:
        raise LoopFormatError(f"malformed {record} record: {key!r}")
    value = data[key]
    if shape is int or shape is list:
        if type(value) is not shape or (shape is int and value < 0):
            kind = "nonnegative integer" if shape is int else "list"
            raise LoopFormatError(f"malformed {record} record: {name} = {value!r} is not a {kind}")
        return value
    entries = [value]
    for size in shape:
        if not all(type(x) is list and len(x) == size for x in entries):
            raise LoopFormatError(f"{record} record field {name} has shape {_shape(value)}, "
                                  f"expected {shape}")
        entries = [x for row in entries for x in row]
    for x in entries:
        if type(x) not in (int, float):  # a bool is not an int here
            raise LoopFormatError(f"{record} record field {name} holds {x!r}; its entries "
                                  f"must be JSON numbers")
        if not abs(x) <= MAX_ENTRY:
            raise LoopFormatError(f"{record} record holds {x!r}; entries must be finite and at "
                                  f"most 2^500 in magnitude")
    return np.array(entries, dtype=float).reshape(shape)


def record_radius(record, data):
    """The radius R of a loop or rotations record: a number at least MIN_RADIUS."""
    radius = float(record_field(record, data, "R", ()))
    if radius < MIN_RADIUS:
        raise LoopFormatError(
            f"{record} record has radius R = {radius!r}; R must be at least 2^-500, so that "
            f"R^2 is a normal double"
        )
    return radius


def loop_from_dict(data):
    """Deserialize; returns (TrigPolyVec, radius).  Validates each field's type, range and shape."""
    k = record_field("loop", data, "k", int)
    deg = record_field("loop", data, "N", int)
    radius = record_radius("loop", data)
    v = record_field("loop", data, "v", (k + 1,))
    a = record_field("loop", data, "a", (deg, k + 1))
    b = record_field("loop", data, "b", (deg, k + 1))
    return TrigPolyVec(v=v, a=a, b=b), radius


def read_json(text):
    """The value of a JSON text; LoopFormatError if it is not JSON or nests too deep to parse."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise LoopFormatError(f"invalid JSON: {exc}") from exc


def loop_from_json(text):
    return loop_from_dict(read_json(text))
