"""Factorization of sphere-valued trig-polynomial loops into plane rotations.

A plane rotation loop is

    lambda(theta) = P cos(theta) + W sin(theta) + (I - P),

where P is the orthogonal projection onto a 2-plane and W is a rotation by
ninety degrees inside that plane (W^2 = -P, W P = P W = W, W^T = -W).  Acting
pointwise on a degree-N loop, a suitably chosen plane rotation lowers the
degree by one; iterating yields

    n = lambda_N lambda_{N-1} ... lambda_1 n_0

with n_0 a constant loop on the sphere.  The peeling plane at each step is
spanned by the top harmonic pair (a[N], b[N]), which for a sphere-valued loop
is automatically an orthogonal pair of equal length.

The module also builds the explicit degree-one orthogonal-matrix loop
phi(theta) = V + A cos(theta) + B sin(theta) associated to an orthonormal
pair, and tests whether a given rotation is degree-lowering ("singular") for
a given loop.
"""

from dataclasses import dataclass

import numpy as np

from . import trigpoly


class PeelError(ValueError):
    """Raised when a loop admits no degree-lowering plane rotation step."""


@dataclass(frozen=True)
class PlaneRotation:
    """Rotation loop determined by a projection P and plane rotation W."""

    projection: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.projection, dtype=float)
        w = np.asarray(self.rotation, dtype=float)
        if p.shape != w.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("projection and rotation must be square matrices of equal shape")
        norm = trigpoly._euclidean_norm
        tol = 1e-12 * max(1.0, norm(p))
        checks = {
            "P symmetric": norm(p - p.T),
            "P idempotent": norm(p @ p - p),
            "P has rank 2": abs(np.trace(p) - 2.0),
            "W antisymmetric": norm(w + w.T),
            "W^2 = -P": norm(w @ w + p),
            "W preserves the plane": norm(p @ w - w),
        }
        for name, err in checks.items():
            if not err <= 100 * tol:  # NaN fails too
                raise ValueError(f"invalid plane rotation: {name} fails with error {err:.3e}")
        object.__setattr__(self, "projection", p)
        object.__setattr__(self, "rotation", w)

    @property
    def ambient_dim(self):
        return self.projection.shape[0]

    def matrix(self, theta):
        """The orthogonal matrix lambda(theta)."""
        p, w = self.projection, self.rotation
        eye = np.eye(self.ambient_dim)
        return p * np.cos(theta) + w * np.sin(theta) + (eye - p)

    def inverse(self):
        return PlaneRotation(projection=self.projection, rotation=-self.rotation)


def rotation_from_basis(a, b):
    """Plane rotation whose ninety-degree turn sends b to a (and a to -b).

    The pair must be orthogonal with equal nonzero lengths.  Applying the
    resulting loop pointwise to  a cos(N theta) + b sin(N theta)  lowers the
    harmonic degree; applying its inverse raises it.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na2 = float(a @ a)
    nb2 = float(b @ b)
    if na2 <= 0.0 or nb2 <= 0.0:
        raise ValueError("basis vectors must be nonzero")
    if abs(na2 - nb2) > 1e-10 * na2 or abs(a @ b) > 1e-10 * na2:
        raise ValueError(
            f"basis must be orthogonal with equal lengths: |a|^2={na2:.6e}, "
            f"|b|^2={nb2:.6e}, a.b={float(a @ b):.3e}"
        )
    # From an orthonormal frame (u, v) of the plane, P is a projection to
    # roundoff, so the pair's own error cannot build up from peel to peel.
    u = a / np.linalg.norm(a)
    v = b - (u @ b) * u
    v /= np.linalg.norm(v)
    p = np.outer(u, u) + np.outer(v, v)
    w = np.outer(u, v) - np.outer(v, u)  # w @ x = (v.x) u - (u.x) v
    return PlaneRotation(projection=p, rotation=w)


def apply_rotation(rot, n, inverse=False):
    """Pointwise product theta -> lambda(theta) n(theta), computed exactly."""
    if rot.ambient_dim != n.ambient_dim:
        raise ValueError("rotation and loop ambient dimensions differ")
    p = rot.projection
    w = -rot.rotation if inverse else rot.rotation
    return trigpoly.matrix_mul(np.eye(rot.ambient_dim) - p, p, w, n)


def top_harmonic_basis(n):
    """The pair (a[N], b[N]) of a loop of degree N >= 1; PeelError if degenerate."""
    if n.degree < 1:
        raise PeelError("constant loops admit no peeling step")
    a = n.a[-1]
    b = n.b[-1]
    scale = n.norm()
    if np.linalg.norm(a) <= 1e-12 * scale or np.linalg.norm(b) <= 1e-12 * scale:
        raise PeelError(
            "top harmonic pair is degenerate (a vanishing cosine or sine component); "
            "no plane rotation lowers the degree"
        )
    return a, b


def peel(n):
    """One degree-lowering step.

    Returns (factor, lowered) with factor a PlaneRotation such that applying
    it to `lowered` reproduces `n`; equivalently, applying its inverse to `n`
    gives `lowered`, of degree exactly one less.
    """
    a, b = top_harmonic_basis(n)
    # rotation_from_basis(b, a) raises the degree of the (a, b) top pair, so it
    # is the stored left factor; its inverse performs the actual lowering.
    factor = rotation_from_basis(b, a)
    lowered = apply_rotation(factor, n, inverse=True)
    if lowered.degree >= n.degree:
        # The factor cancels the top harmonic exactly in exact arithmetic;
        # residue there is convolution roundoff.  Drop it when it is at
        # roundoff scale, otherwise the pair was genuinely inadmissible.
        residue = max(
            np.max(np.abs(lowered.a[n.degree - 1 :])),
            np.max(np.abs(lowered.b[n.degree - 1 :])),
        )
        if residue > 1e-9 * n.norm():
            raise PeelError(
                f"degree did not decrease (got {lowered.degree} from {n.degree}); "
                "the top harmonic pair is not an orthogonal pair of equal lengths"
            )
        lowered = trigpoly.project(lowered, n.degree - 1)
    return factor, lowered


@dataclass(frozen=True)
class Factorization:
    """n = rotations[0] rotations[1] ... rotations[-1] applied to the base point."""

    rotations: tuple
    base: np.ndarray
    radius: float


def factorize(n, radius):
    """Full peeling of a sphere-valued loop into plane rotations and a base point."""
    trigpoly.require_on_sphere(n, radius)
    rotations = []
    current = n
    while current.degree >= 1:
        factor, current = peel(current)
        rotations.append(factor)
    base = current.v
    return Factorization(rotations=tuple(rotations), base=base, radius=float(radius))


def compose(factorization):
    """Rebuild the loop from its factorization (rightmost rotation acts first)."""
    n = trigpoly.trig_poly(factorization.base)
    for rot in reversed(factorization.rotations):
        n = apply_rotation(rot, n)
    return n


def is_singular_rotation(rot, n):
    """Whether the rotation lowers (rather than raises) the degree of the loop.

    With an orthonormal basis (u, w) of the rotation plane oriented so that
    the ninety-degree turn sends u to -w, the criterion is the vanishing of
    the complex pairing (a[N] + i b[N]) . (u + i w), which encodes the two
    real degeneracy conditions u.a[N] = w.b[N] and w.a[N] = -u.b[N].
    """
    a_top, b_top = top_harmonic_basis(n)
    p = rot.projection
    cols = np.linalg.norm(p, axis=0)
    u = p[:, int(np.argmax(cols))]
    u = u / np.linalg.norm(u)
    w = -rot.rotation @ u
    val = np.hypot(u @ a_top - w @ b_top, w @ a_top + u @ b_top)
    scale = np.sqrt((a_top @ a_top + b_top @ b_top) * (u @ u + w @ w))
    return val <= 1e-10 * scale


@dataclass(frozen=True)
class DegreeOneOrthogonalLoop:
    """Orthogonal-matrix loop phi(theta) = V + A cos(theta) + B sin(theta)."""

    V: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def matrix(self, theta):
        return self.V + self.A * np.cos(theta) + self.B * np.sin(theta)


def orthogonal_loop_from_pair(a, b):
    """The explicit degree-lowering orthogonal loop for an orthonormal pair (a, b).

    A has rows a, b in the last two slots; B has rows b, -a there; V carries an
    orthonormal basis of the orthogonal complement of span(a, b) in the first
    k-1 slots.  The result satisfies all five quadratic identities exactly and
    maps a loop with top pair proportional to (a, b) to one of lower degree.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a.shape[0]
    if abs(a @ a - 1.0) > 1e-10 or abs(b @ b - 1.0) > 1e-10 or abs(a @ b) > 1e-10:
        raise ValueError("expected an orthonormal pair")
    amat = np.zeros((d, d))
    bmat = np.zeros((d, d))
    amat[d - 2] = a
    amat[d - 1] = b
    bmat[d - 2] = b
    bmat[d - 1] = -a
    # Orthonormal complement basis via the QR factorization of [a b | I].
    q, _ = np.linalg.qr(np.column_stack([a, b, np.eye(d)]))
    comp = q[:, 2:d].T
    vmat = np.zeros((d, d))
    vmat[: d - 2] = comp
    return DegreeOneOrthogonalLoop(V=vmat, A=amat, B=bmat)


def compare_peel_mechanisms(n):
    """Run both degree-lowering mechanisms on one loop and report the outcome.

    The plane-rotation peel keeps the loop in its original coordinates; the
    explicit orthogonal loop also moves the peeling plane onto the last two
    coordinate axes.  Both must lower the degree by exactly one.
    """
    a, b = top_harmonic_basis(n)
    factor, lowered = peel(n)
    phi = orthogonal_loop_from_pair(a / np.linalg.norm(a), b / np.linalg.norm(b))
    moved = trigpoly.matrix_mul(phi.V, phi.A, phi.B, n)
    return {
        "input_degree": n.degree,
        "peel_degree": lowered.degree,
        "orthogonal_loop_degree": moved.degree,
        "peel_result": lowered,
        "orthogonal_loop_result": moved,
        "same_norm": abs(lowered.norm() - moved.norm()) <= 1e-10 * max(n.norm(), 1.0),
    }


def rotations_to_dict(factorization):
    """Serialize a factorization: base point, radius, and rotation list."""
    return {
        "k": factorization.base.shape[0] - 1,
        "R": factorization.radius,
        "base": factorization.base.tolist(),
        "rotations": [
            {"P": rot.projection.tolist(), "W": rot.rotation.tolist()}
            for rot in factorization.rotations
        ],
    }


def rotations_from_dict(data):
    try:
        k = trigpoly.nonnegative_int("k", data["k"])
        radius = float(data["R"])
        base = np.asarray(data["base"], dtype=float)
        pairs = [(np.asarray(item["P"], dtype=float), np.asarray(item["W"], dtype=float))
                 for item in data["rotations"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise trigpoly.LoopFormatError(f"malformed rotations record: {exc}") from exc
    trigpoly.check_entries("rotations", radius, base, *(m for pair in pairs for m in pair))
    trigpoly.check_radius("rotations", radius)
    try:
        rots = [PlaneRotation(projection=p, rotation=w) for p, w in pairs]
    except ValueError as exc:
        raise trigpoly.LoopFormatError(f"malformed rotations record: {exc}") from exc
    if base.shape != (k + 1,):
        raise trigpoly.LoopFormatError(
            f"base point has shape {base.shape}, expected ({k + 1},)"
        )
    trigpoly.require_on_sphere(trigpoly.trig_poly(base), radius)
    return Factorization(rotations=tuple(rots), base=base, radius=radius)
