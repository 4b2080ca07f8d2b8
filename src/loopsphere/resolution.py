"""Factorization of sphere-valued trig-polynomial loops into plane rotations.

A plane rotation loop is

    lambda(theta) = P cos(theta) + W sin(theta) + (I - P),

where P is the orthogonal projection onto a 2-plane and W is a rotation by
ninety degrees inside that plane (W^2 = -P, W P = P W = W, W^T = -W), both
fixed by an oriented orthonormal frame (u, v) of the plane: P = u u^T + v v^T,
and W = u v^T - v u^T sends v to u.  `PlaneRotation` and rotations records hold
the frame.  lambda(theta) turns zeta = (u - i v) . n by e^{i theta} and fixes
the rest of n, so on exponential coefficients it is a one-slot shift of
zeta's, with no P or W.  Acting pointwise on a degree-N loop, a suitably
chosen plane rotation lowers the degree by one; iterating yields

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
    """Rotation loop of the plane with oriented orthonormal frame (u, v).

    P = u u^T + v v^T and W = u v^T - v u^T, which sends v to u and u to -v,
    are formed from the frame when read, for the matrix form.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 1 or u.shape != v.shape:
            raise ValueError(f"invalid plane rotation: frame shapes {u.shape}, {v.shape} "
                             f"unequal or not 1-D")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("invalid plane rotation: frame entries must be finite")
        checks = {"|u|^2 = 1": u @ u - 1.0, "|v|^2 = 1": v @ v - 1.0, "u.v = 0": u @ v}
        for name, err in checks.items():
            if not abs(err) <= 1e-10:
                raise ValueError(f"invalid plane rotation: {name} fails with error {err:.3e}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def projection(self):
        return np.outer(self.u, self.u) + np.outer(self.v, self.v)

    @property
    def rotation(self):
        return np.outer(self.u, self.v) - np.outer(self.v, self.u)

    def inverse(self):
        """The rotation of the reversed frame: the same P and W negated."""
        return PlaneRotation(u=self.v, v=self.u)


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
    return PlaneRotation(u=u, v=v)


def _turn(c, rot, inverse=False):
    """Coefficients (2M+3, d) of lambda n, or lambda^{-1} n if inverse, from those c of n.

    lambda n = n + Re[(e^{+-i theta} - 1) zeta (u + i v)] with zeta = (u - i v) . n.
    """
    z = c @ (rot.u - 1j * rot.v)
    zero = np.zeros(2, dtype=complex)
    delta = np.concatenate((z, zero) if inverse else (zero, z))  # z one slot down or up
    delta[1:-1] -= z
    y = np.multiply.outer(delta, rot.u + 1j * rot.v)
    out = 0.5 * (y + np.conj(y[::-1]))
    out[1:-1] += c
    return out


def apply_rotation(rot, n, inverse=False):
    """Pointwise product theta -> lambda(theta) n(theta), computed exactly."""
    return trigpoly.from_exponential(_turn(trigpoly._exponential(n.v, n.a, n.b), rot, inverse))


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
    c = np.asarray(factorization.base, dtype=complex)[None]
    for rot in reversed(factorization.rotations):
        c = _turn(c, rot)
    return trigpoly.from_exponential(c)


def is_singular_rotation(rot, n):
    """Whether the rotation lowers (rather than raises) the degree of the loop.

    With the rotation's frame (u, v), whose ninety-degree turn sends u to -v,
    the criterion is the vanishing of the complex pairing
    (a[N] + i b[N]) . (u + i v), which encodes the two real degeneracy
    conditions u.a[N] = v.b[N] and v.a[N] = -u.b[N].
    """
    a_top, b_top = top_harmonic_basis(n)
    u, v = rot.u, rot.v
    val = np.hypot(u @ a_top - v @ b_top, v @ a_top + u @ b_top)
    scale = np.sqrt((a_top @ a_top + b_top @ b_top) * (u @ u + v @ v))
    return val <= 1e-10 * scale


@dataclass(frozen=True)
class DegreeOneOrthogonalLoop:
    """Orthogonal-matrix loop phi(theta) = V + A cos(theta) + B sin(theta)."""

    V: np.ndarray
    A: np.ndarray
    B: np.ndarray


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
    """Serialize a factorization: base point, radius, and each rotation's frame."""
    return {
        "k": factorization.base.shape[0] - 1,
        "R": factorization.radius,
        "base": factorization.base.tolist(),
        "rotations": [{"u": rot.u.tolist(), "v": rot.v.tolist()}
                      for rot in factorization.rotations],
    }


def rotations_from_dict(data):
    try:
        k = trigpoly.nonnegative_int("k", data["k"])
        radius = float(data["R"])
        base = np.asarray(data["base"], dtype=float)
        frames = [(np.asarray(item["u"], dtype=float), np.asarray(item["v"], dtype=float))
                  for item in data["rotations"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise trigpoly.LoopFormatError(f"malformed rotations record: {exc}") from exc
    trigpoly.check_entries("rotations", radius, base, *(x for frame in frames for x in frame))
    trigpoly.check_radius("rotations", radius)
    if base.shape != (k + 1,):
        raise trigpoly.LoopFormatError(
            f"base point has shape {base.shape}, expected ({k + 1},)"
        )
    if any(u.shape != (k + 1,) or v.shape != (k + 1,) for u, v in frames):
        raise trigpoly.LoopFormatError(f"rotation frames must be vectors of length k + 1 = {k + 1}")
    try:
        rots = [PlaneRotation(u=u, v=v) for u, v in frames]
    except ValueError as exc:
        raise trigpoly.LoopFormatError(f"malformed rotations record: {exc}") from exc
    return Factorization(rotations=tuple(rots), base=base, radius=radius)
