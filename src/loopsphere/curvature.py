"""Curvature of loop varieties: exact second-fundamental-form calculus.

A degree-N loop variety sits inside the flat space of degree-N vector trig
polynomials as the common zero set of the scalar constraints

    f_phi(n) = <n.n - R^2, phi>,   phi a scalar trig polynomial, deg phi <= 2N.

All curvature quantities reduce to finite linear algebra in the orthonormal
flat coordinates of that space:

  * grad f_phi = 2 Pr_N(n phi), with Pr_N the harmonic truncation;
  * the Hessian of f_phi is the symmetric matrix H_phi : X -> 2 Pr_N(X phi),
    which depends on (N, d) only.  It is assembled with one exact product
    per scalar basis element phi_i: the unit flat directions ride side by
    side on the ambient axis of one vector polynomial (see _hessians);
  * the constraint Gram matrix s_ij = <grad f_i, grad f_j> is invertible on
    the smooth stratum, and the Gauss equation contracts Hessian products
    against its inverse:

        <R(X,Y)Z, W> = u(Z,Y)^T s^{-1} u(W,X) - u(Z,X)^T s^{-1} u(W,Y),
        u(Z,Y)_i = <Z, H_i Y>.

The scalar curvature admits a closed contraction with no tangent basis:
with A_qri = <grad_q, H_i grad_r>, m_i = s^{qr} A_{qri}, and
tau_i = tr(H_i) - m_i (the tangential trace of the Hessians),

    H^2  = tau^T s^{-1} tau            (squared mean curvature),
    Sc   = H^2 - s^{ij} tr(H_i H_j) + 2 s^{qr} s^{ij} (H_i g_q).(H_j g_r)
               - s^{kl} s^{qr} s^{ij} A_{qki} A_{lrj}.

Both identities are verified against the tangent-basis contraction in tests.
The Ricci route's tangent frame T is the null space of the gradients' Gram
matrix, from numerics.eig_symmetric: cyclic Jacobi on one stack [a; V] that
keeps a exactly symmetric, bitwise the textbook loop, because the frozen
benchmark reference holds the roundoff-dominated D2 Ricci values.  After it,
u_i = T^T H_i T is one batched matmul and the Ricci sums are tensordots.

The module also provides the homogeneous-space (Lie bracket) Ricci engine for
the Stiefel fibers, the closed forms of the degree-one variety, the mixed
second fundamental form of the radial fibration, the tube-boundary form near
the top-degree stratum, and the Leung / Chen / Meyer eigenvalue bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import manifold, numerics, trigpoly
from .trigpoly import ScalarTrigPoly, TrigPolyVec


class NearSingularStratumError(ValueError):
    """Raised when the constraint Gram matrix is numerically singular."""


# Largest condition number of the constraint Gram matrix a curvature report
# accepts; beyond it the inverse Gram matrix amplifies roundoff past use.
COND_LIMIT = 1e12


# ---------------------------------------------------------------------------
# Flat orthonormal coordinates
# ---------------------------------------------------------------------------


def flat_dim(degree, ambient_dim):
    return ambient_dim * (2 * degree + 1)


def scalar_dim(order):
    return 2 * order + 1


def flatten_vec(n, degree):
    """Orthonormal flat coordinates: [v, a_s/sqrt(2), b_s/sqrt(2)]."""
    out = np.zeros((2 * degree + 1, n.ambient_dim))
    out[0] = n.v
    out[1 : 2 * n.degree : 2] = n.a / math.sqrt(2.0)
    out[2 : 2 * n.degree + 1 : 2] = n.b / math.sqrt(2.0)
    return out.ravel()


def unflatten_vec(x, degree, ambient_dim):
    blocks = np.reshape(x, (2 * degree + 1, ambient_dim))
    a, b = blocks[1::2] * math.sqrt(2.0), blocks[2::2] * math.sqrt(2.0)
    return TrigPolyVec(v=blocks[0], a=a, b=b)


def scalar_basis_element(i, order):
    """The i-th orthonormal scalar basis polynomial: 1, sqrt2 cos s, sqrt2 sin s."""
    if i == 0:
        return ScalarTrigPoly(c0=1.0)
    s = (i + 1) // 2
    cos_c = np.zeros(order)
    sin_c = np.zeros(order)
    if i % 2 == 1:
        cos_c[s - 1] = math.sqrt(2.0)
    else:
        sin_c[s - 1] = math.sqrt(2.0)
    return ScalarTrigPoly(c0=0.0, cos_coeffs=cos_c, sin_coeffs=sin_c)


def infer_radius(n):
    """Sphere radius from the constant coefficient of n.n."""
    sq = trigpoly.pointwise_dot(n, n)
    if sq.c0 <= 0.0:
        raise ValueError("loop has nonpositive mean square; not sphere-valued")
    return math.sqrt(sq.c0)


def _hessians(degree, ambient_dim):
    """Hessians H_i, shape (m, nn, nn), of the constraints f_i at any loop.

    Column col of H_i is 2 flatten(Pr_N(x_col phi_i)) for the unit flat
    direction x_col.  All nn directions ride side by side on the ambient axis
    of one vector polynomial, direction col in slots col*d .. col*d+d-1, so
    each phi_i takes one scalar_mul.  The convolution is elementwise along
    that axis and each output coefficient sums at most two nonzero products,
    so every entry equals the one-direction-at-a-time product exactly (only
    the sign of some zeros differs).  Elementwise arithmetic only: a matrix
    product or einsum could fuse multiply-adds and change the rounding.
    """
    d = ambient_dim
    m = scalar_dim(2 * degree)
    nn = flat_dim(degree, d)
    # Flat coordinate j of direction col lives in unit[col, block(j), j % d]:
    # block 0 is the constant term, blocks 2s-1 and 2s harmonic s.
    unit = np.eye(nn).reshape(nn, 2 * degree + 1, d)
    unit[:, 1:] *= math.sqrt(2.0)
    blocks = unit.transpose(1, 0, 2).reshape(2 * degree + 1, nn * d)
    batch = TrigPolyVec(v=blocks[0], a=blocks[1::2], b=blocks[2::2])
    hess = np.zeros((m, nn, nn))
    for i in range(m):
        phi = scalar_basis_element(i, 2 * degree)
        image = trigpoly.project(trigpoly.scalar_mul(batch, phi), degree)
        flat = np.zeros((2 * degree + 1, nn, d))
        flat[0] = image.v.reshape(nn, d)
        flat[1::2] = image.a.reshape(degree, nn, d) / math.sqrt(2.0)
        flat[2::2] = image.b.reshape(degree, nn, d) / math.sqrt(2.0)
        hess[i] = 2.0 * flat.transpose(0, 2, 1).reshape(nn, nn)
    return hess


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelOperator:
    """Symmetric operator on degree <= 2N scalars, in the orthonormal basis."""

    N: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", numerics.check_symmetric(self.matrix, rtol=1e-12))


@dataclass(frozen=True)
class TangentBasis:
    """Orthonormal basis of the tangent space at a loop."""

    base: TrigPolyVec
    vectors: tuple
    gram: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    scalar: float
    mean_sq: float
    ricci_matrix: np.ndarray
    ricci_eigenvalues: np.ndarray  # ascending
    leung_rhs: float | None
    condition_gram: float
    dim: int
    scalar_terms: dict
    scalar_trace_residual: float

    @property
    def ricci_min(self):
        return float(self.ricci_eigenvalues[0])


# ---------------------------------------------------------------------------
# Kernel context
# ---------------------------------------------------------------------------


class CurvatureContext:
    """Caches the exact linear-algebra data of the constraint at one loop."""

    def __init__(self, n, radius=None):
        self.loop = n
        self.radius = infer_radius(n) if radius is None else float(radius)
        self.degree = n.degree
        self.ambient_dim = n.ambient_dim
        deg = n.degree
        res = trigpoly.constraint_residual(n, self.radius)
        if res.max_abs_coeff() > trigpoly.SPHERE_RTOL * self.radius**2:
            raise ValueError(
                "loop is not sphere-valued: largest constraint-residual "
                f"coefficient is {res.max_abs_coeff():.3e}"
            )
        self.hessians = _hessians(deg, n.ambient_dim)
        self.nflat = flatten_vec(n, deg)
        self.grads = np.einsum("iab,b->ia", self.hessians, self.nflat)
        self.s_full = self.grads @ self.grads.T
        self.condition = float(np.linalg.cond(self.s_full))
        if not np.isfinite(self.condition) or self.condition > COND_LIMIT:
            raise NearSingularStratumError(
                f"constraint Gram matrix has condition number {self.condition:.3e}; "
                "the loop lies on or near a singular stratum (too close to a "
                "lower-degree variety)"
            )
        self.s_inv = np.linalg.inv(self.s_full)
        self._tangent = None

    # -- kernels -----------------------------------------------------------

    def gram_operator(self):
        """Constraint metric g(phi, psi) = <grad f_phi, grad f_psi> / 4."""
        return KernelOperator(N=self.degree, matrix=self.s_full / 4.0)

    def green_operator(self):
        """Inverse of the constraint metric as an operator on scalars."""
        return KernelOperator(N=self.degree, matrix=4.0 * self.s_inv)

    def pair_coords(self, x, y):
        """u(X,Y)_i = <X, H_i Y> -- coordinates of the scalar 2 X.Y."""
        return np.einsum("a,iab,b->i", x, self.hessians, y)

    def tangent_matrix(self):
        """Columns: orthonormal flat coordinates of a tangent basis."""
        if self._tangent is not None:
            return self._tangent
        # Rows of grads/2 span the coordinates of n.X over the flat basis.
        amat = 0.5 * self.grads
        w, v = numerics.eig_symmetric(amat.T @ amat)
        vecs = v[:, w <= 1e-12 * max(w[-1], 1e-300)]
        expected = flat_dim(self.degree, self.ambient_dim) - scalar_dim(2 * self.degree)
        if vecs.shape[1] != expected:
            raise manifold.StratumError(
                f"tangent space has dimension {vecs.shape[1]}, expected {expected}: "
                "the loop is not on the smooth stratum"
            )
        self._tangent = vecs
        return vecs

    # -- curvature ---------------------------------------------------------

    def riemann_flat(self, x, y, z, w):
        """<R(X,Y)Z, W> for tangent vectors in flat coordinates (Gauss equation)."""
        u_zy = self.pair_coords(z, y)
        u_wx = self.pair_coords(w, x)
        u_zx = self.pair_coords(z, x)
        u_wy = self.pair_coords(w, y)
        return float(u_zy @ self.s_inv @ u_wx - u_zx @ self.s_inv @ u_wy)

    def _tangent_hessians(self):
        """u_i = T^T H_i T, shape (m, dim, dim), for the tangent basis T."""
        basis = self.tangent_matrix()
        return basis.T @ self.hessians @ basis

    def ricci_matrix(self):
        """Ricci tensor in the orthonormal tangent basis."""
        u = self._tangent_hessians()
        trace_u = np.trace(u, axis1=1, axis2=2)
        first = np.tensordot(trace_u @ self.s_inv, u, axes=1)
        # second_AB = sum_iE u_i[E, A] (s^{-1} u)_i[B, E]
        second = np.tensordot(u, np.tensordot(self.s_inv, u, axes=1), axes=([0, 1], [0, 2]))
        return numerics.check_symmetric(first - second, rtol=1e-9)

    def tangent_hessian_trace(self):
        """tau_i = trace of H_i over the tangent space, via the tangent basis."""
        return np.trace(self._tangent_hessians(), axis1=1, axis2=2)

    def closed_contractions(self):
        """Mean curvature and the closed scalar-curvature decomposition.

        Returns a dict with tau (tangential Hessian trace, computed without a
        tangent basis), mean_sq = tau^T s^{-1} tau, and the four scalar terms
        whose sum is the scalar curvature.
        """
        h = self.hessians
        g = self.grads
        sinv = self.s_inv
        a_tensor = np.einsum("qa,iab,rb->qri", g, h, g)
        m_vec = np.einsum("qr,qri->i", sinv, a_tensor)
        tau = np.einsum("iaa->i", h) - m_vec
        mean_sq = float(tau @ sinv @ tau)
        hg = np.einsum("iab,qb->iqa", h, g)
        hess_trace_term = -float(np.einsum("ij,iab,jba->", sinv, h, h))
        cross_term = 2.0 * float(np.einsum("qr,ij,iqa,jra->", sinv, sinv, hg, hg))
        conn_term = -float(
            np.einsum("kl,qr,ij,qki,lrj->", sinv, sinv, sinv, a_tensor, a_tensor)
        )
        return {
            "tau": tau,
            "mean_sq": mean_sq,
            "terms": {
                "mean": mean_sq,
                "hessian_trace": hess_trace_term,
                "cross": cross_term,
                "connection": conn_term,
            },
        }


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------


def grad_f(n, phi):
    """Gradient of the constraint component f_phi at n: 2 Pr_N(n phi)."""
    if phi.degree > 2 * n.degree:
        raise ValueError(f"scalar degree {phi.degree} exceeds 2N = {2 * n.degree}")
    return trigpoly.scale(trigpoly.project(trigpoly.scalar_mul(n, phi), n.degree), 2.0)


def gram_kernel(n, radius=None):
    return CurvatureContext(n, radius).gram_operator()


def green_kernel(n, radius=None):
    return CurvatureContext(n, radius).green_operator()


def tangent_basis(n, radius=None):
    """Orthonormal tangent basis as loop-space vectors."""
    ctx = CurvatureContext(n, radius)
    cols = ctx.tangent_matrix()
    vecs = tuple(unflatten_vec(col, ctx.degree, ctx.ambient_dim) for col in cols.T)
    gram = np.array([[trigpoly.l2_inner(x, y) for y in vecs] for x in vecs])
    return TangentBasis(base=n, vectors=vecs, gram=gram)


def scalar_and_mean(n, radius=None):
    """Full curvature report at one loop.

    The kernels are computed for the loop scaled to the unit sphere, where
    their entries are of order one whatever the radius; the curvatures then
    scale as 1/R^2.
    """
    radius = infer_radius(n) if radius is None else float(radius)
    ctx = CurvatureContext(trigpoly.scale(n, 1.0 / radius), 1.0)
    ric = ctx.ricci_matrix()
    closed = ctx.closed_contractions()
    terms = closed["terms"]
    scalar_closed = sum(terms.values())
    scalar_trace = float(np.trace(ric))
    resid = abs(scalar_closed - scalar_trace) / max(abs(scalar_trace), 1.0)
    mean_sq = closed["mean_sq"]
    dim = ric.shape[0]
    leung = leung_bound(scalar_closed, mean_sq, dim)
    r2 = radius**2
    return CurvatureReport(
        scalar=scalar_closed / r2,
        mean_sq=mean_sq / r2,
        ricci_matrix=ric / r2,
        ricci_eigenvalues=np.linalg.eigvalsh(ric) / r2,
        leung_rhs=None if leung is None else leung / r2,
        condition_gram=ctx.condition,
        dim=dim,
        scalar_terms={name: term / r2 for name, term in terms.items()},
        scalar_trace_residual=resid,
    )


def leung_bound(scalar, mean_sq, dim):
    """Extrinsic Ricci-minimum lower bound for an n-manifold in flat space.

    Returns None when the radicand (n-1)H^2 - n Sc is negative (the estimate
    does not apply there).
    """
    n = dim
    if n < 2:
        raise ValueError("bound requires dimension >= 2")
    radicand = (n - 1) * mean_sq - n * scalar
    if radicand < -1e-9 * max(abs(scalar), mean_sq, 1.0):
        return None
    radicand = max(radicand, 0.0)
    h = math.sqrt(max(mean_sq, 0.0))
    inner = math.sqrt(n - 1.0) * (n - 2.0) * h - 2.0 * math.sqrt(radicand)
    return scalar - (n - 1) * mean_sq / 4.0 + inner**2 / (4.0 * n**2)


# ---------------------------------------------------------------------------
# Closed forms for the degree-one variety
# ---------------------------------------------------------------------------


def ricci_closed_form_k2(t, radius):
    """Ricci eigenvalues and scalar curvature of the 4-dimensional k=2 variety.

    Eigenvalue (3t^2+6t-1)/(R^2 (1+t)^2) has multiplicity 3 and
    (3t^2+2t+3)/(R^2 (1+t)^2) multiplicity 1; the scalar curvature is
    4t(3t+5)/(R^2 (1+t)^2), and the Ricci tensor is bounded below by -1/R^2
    times the metric.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    den = radius**2 * (1.0 + t) ** 2
    lo = (3.0 * t**2 + 6.0 * t - 1.0) / den
    hi = (3.0 * t**2 + 2.0 * t + 3.0) / den
    return {
        "eigenvalues": [(lo, 3), (hi, 1)],
        "scalar": 4.0 * t * (3.0 * t + 5.0) / den,
        "lower_bound": -1.0 / radius**2,
    }


def fiber_ricci_closed(k, t):
    """Closed-form Ricci coefficients of the Stiefel-fiber metric.

    Coefficients of the squared frame one-forms; the overall metric scale
    drops out of the Ricci tensor, so no radius appears.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if k == 2:
        return {
            "ab": (2.0 * t**2 - 4.0 * t + 2.0) / (1.0 + t) ** 2,
            "va": 2.0 * t / (t + 1.0),
            "vb": 2.0 * t / (t + 1.0),
        }
    d = k + 1
    return {
        "ab": ((2 * d - 4) * t**2 + (4 * d - 16) * t + 2 * d - 4) / (1.0 + t) ** 2,
        "va": ((2 * d - 4) * t + 2 * d - 6) / (t + 1.0),
        "vb": ((2 * d - 4) * t + 2 * d - 6) / (t + 1.0),
        "vi": float(k - 3),
        "ai": float(k - 3),
        "bi": float(k - 3),
    }


# ---------------------------------------------------------------------------
# Homogeneous-space (Lie bracket) route for the Stiefel fibers
# ---------------------------------------------------------------------------


def _skew_basis(dim):
    """Frobenius-orthonormal basis (E_ij - E_ji)/sqrt(2), keyed by (i, j), i<j."""
    basis = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim))
            m[i, j] = 1.0 / math.sqrt(2.0)
            m[j, i] = -1.0 / math.sqrt(2.0)
            basis[(i, j)] = m
    return basis


def _pair_label(pair):
    i, j = pair
    if (i, j) == (0, 1):
        return "va"
    if (i, j) == (0, 2):
        return "vb"
    if (i, j) == (1, 2):
        return "ab"
    if i == 0:
        return "vi"
    if i == 1:
        return "ai"
    return "bi"


FIBER_METRIC_COEFFS = {
    "va": lambda t: 1.0 + t,
    "vb": lambda t: 1.0 + t,
    "ab": lambda t: 2.0 * (1.0 - t),
    "vi": lambda t: 2.0 * t,
    "ai": lambda t: 1.0 - t,
    "bi": lambda t: 1.0 - t,
}


def besse_ricci(k, t):
    """Ricci of the Stiefel fiber computed from Lie brackets alone.

    The fiber is the quotient of the rotation group of R^{k+1} by the
    stabilizer of the 3-frame; its tangent space identifies with the span of
    the skew generators that move the frame legs, carrying the diagonal
    metric with the frame-direction coefficients.  The Ricci tensor of such a
    reductive quotient is the universal bracket sum

      Ric(X,X) = -1/2 sum_j |[X,X_j]_p|^2
                 -1/2 sum_j ([X,[X,X_j]_p]_p, X_j)
                 -    sum_j ([X,[X,X_j]_f]_p, X_j)
                 +1/4 sum_{ij} ([X_i,X_j]_p, X)^2

    over a metric-orthonormal basis {X_j} of the moving span p, with f the
    stabilizer algebra.  Off-diagonal entries come from polarization.

    Reported values are Ric(X, X) for the unnormalized skew generators
    X = E_ij - E_ji (matching the closed-form convention), while the metric
    coefficients attach to the Frobenius-normalized generators; the two
    conventions differ by a factor of two in the reported values.

    Returns {"labels", "matrix", "diagonal"}.
    """
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie in (0, 1), got {t}")
    dim = k + 1
    basis = _skew_basis(dim)
    pairs = sorted(basis.keys())
    moving = [pq for pq in pairs if pq[0] <= 2]
    fixing = [pq for pq in pairs if pq[0] > 2]
    labels = [_pair_label(pq) for pq in moving]
    diag = np.array([FIBER_METRIC_COEFFS[lab](t) for lab in labels])
    mats = np.array([basis[pq] for pq in moving])
    fix_mats = np.array([basis[pq] for pq in fixing]) if fixing else np.zeros((0, dim, dim))

    def decompose(mat):
        mv = np.einsum("kab,ab->k", mats, mat)
        fx = np.einsum("kab,ab->k", fix_mats, mat) if len(fix_mats) else np.zeros(0)
        return mv, fx

    def from_moving(comp):
        return np.einsum("k,kab->ab", comp, mats)

    def from_fixing(comp):
        if not len(fix_mats):
            return np.zeros((dim, dim))
        return np.einsum("k,kab->ab", comp, fix_mats)

    def inner(c1, c2):
        return float(np.sum(c1 * diag * c2))

    nmove = len(moving)
    ortho = [from_moving(np.eye(nmove)[j] / math.sqrt(diag[j])) for j in range(nmove)]
    ortho_mv = [np.eye(nmove)[j] / math.sqrt(diag[j]) for j in range(nmove)]

    def ricci_value(x, x_mv):
        total = 0.0
        for xj, xj_mv in zip(ortho, ortho_mv):
            br = x @ xj - xj @ x
            br_mv, br_fx = decompose(br)
            total -= 0.5 * inner(br_mv, br_mv)
            inner_br = from_moving(br_mv)
            br2 = x @ inner_br - inner_br @ x
            br2_mv, _ = decompose(br2)
            total -= 0.5 * inner(br2_mv, xj_mv)
            fix_br = from_fixing(br_fx)
            br3 = x @ fix_br - fix_br @ x
            br3_mv, _ = decompose(br3)
            total -= inner(br3_mv, xj_mv)
        for xi in ortho:
            for xj in ortho:
                br = xi @ xj - xj @ xi
                br_mv, _ = decompose(br)
                total += 0.25 * inner(br_mv, x_mv) ** 2
        return total

    full = np.zeros((nmove, nmove))
    diag_cache = [ricci_value(mats[j], np.eye(nmove)[j]) for j in range(nmove)]
    for i in range(nmove):
        full[i, i] = diag_cache[i]
        for j in range(i + 1, nmove):
            plus = ricci_value(mats[i] + mats[j], np.eye(nmove)[i] + np.eye(nmove)[j])
            full[i, j] = full[j, i] = 0.5 * (plus - diag_cache[i] - diag_cache[j])
    # Report in the unnormalized-generator convention (factor 2, see docstring).
    full *= 2.0
    diagonal = {}
    for j, lab in enumerate(labels):
        diagonal.setdefault(lab, full[j, j])
    return {"labels": labels, "matrix": full, "diagonal": diagonal}


def vertical_ricci_display(k, t):
    """Recorded closed-form vertical Ricci components (verification target only).

    These displays use an unstated normalization of the vertical coframe;
    compare_vertical_ricci records per-direction ratios against the bracket
    engine rather than asserting equality.
    """
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie in (0, 1), got {t}")
    return {
        "ai": -((8 * k - 7) * t**2 + (5 * k - 6) * t - 3 * k + 5) / (t + 1.0),
        "bi": -((8 * k - 7) * t**2 + (5 * k - 6) * t - 3 * k + 5) / (t + 1.0),
        "vi": (16 * k * t**2 + 13 * k * t - 3 * k - 14 * t**2 - 19 * t + 3.0) / (t + 1.0),
        "ab": -2.0
        * ((8 * k - 7) * t**3 + (13 * k - 15) * t**2 + (2 * k - 1) * t - 3 * k + 3)
        / (t + 1.0) ** 2,
        "va": (8 * k - 7) * t - 2.0,
        "vb": (8 * k - 7) * t - 2.0,
    }


def compare_vertical_ricci(k, t):
    """Per-direction ratio: recorded vertical display / bracket engine."""
    disp = vertical_ricci_display(k, t)
    brk = besse_ricci(k, t)["diagonal"]
    out = {}
    for lab, val in brk.items():
        if lab in disp:
            out[lab] = disp[lab] / val if abs(val) > 1e-14 else math.nan
    return out


# ---------------------------------------------------------------------------
# Mixed second fundamental form of the radial fibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecondFormReport:
    """Coefficients of the mixed form T, its trace, and the compensator CT,
    as coefficients of the squared frame one-forms."""

    T: dict
    trace: float
    CT: dict


def second_form(k, radius, t):
    """Mixed second fundamental form of the fibration over the radial coordinate."""
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie in (0, 1), got {t}")
    if k < 2 or radius <= 0:
        raise ValueError("requires k >= 2 and positive radius")
    f = 0.5 * radius * math.sqrt(t * (1.0 - t))
    tcoef = {"va": f, "vb": f, "ab": -2.0 * f}
    ct = {
        "va": t * (1.0 - t) / (1.0 + t),
        "vb": t * (1.0 - t) / (1.0 + t),
        "ab": 2.0 * t,
    }
    if k >= 3:
        tcoef.update({"vi": 2.0 * f, "ai": -f, "bi": -f})
        ct.update({"vi": 2.0 * (1.0 - t), "ai": t, "bi": t})
        trace = (
            2.0
            * ((7 - 4 * k) * t**2 + (7 - 3 * k) * t + k - 2)
            / (radius * (t + 1.0) * math.sqrt(t * (1.0 - t)))
        )
    else:
        trace = 4.0 * math.sqrt(t * (1.0 - t)) / (radius * (t + 1.0))
    return SecondFormReport(T=tcoef, trace=trace, CT=ct)


# ---------------------------------------------------------------------------
# Tube boundary form near the top-degree stratum
# ---------------------------------------------------------------------------


def tube_boundary_form(n, x, y):
    """Second fundamental form of the level sets of the top-harmonic energy.

    With f(n) = |a[N]|^2 + |b[N]|^2 and h = grad f / |grad f|^2 (the L2
    gradient), alpha(X, Y) = 2 (X_a[N].Y_a[N] + X_b[N].Y_b[N]) h.  Returns
    (coefficient, h); the coefficient is a positive semidefinite quadratic
    form in X = Y, which makes the tube boundary convex toward the
    lower-degree locus.
    """
    deg = n.degree
    if deg < 1:
        raise ValueError("tube form requires a loop of positive degree")

    def top(z):
        if z.degree >= deg:
            return z.a[deg - 1], z.b[deg - 1]
        return np.zeros(z.ambient_dim), np.zeros(z.ambient_dim)

    xa, xb = top(x)
    ya, yb = top(y)
    coeff = 2.0 * float(xa @ ya + xb @ yb)
    d = n.ambient_dim
    ga = np.zeros((deg, d))
    gb = np.zeros((deg, d))
    ga[deg - 1] = 4.0 * n.a[deg - 1]
    gb[deg - 1] = 4.0 * n.b[deg - 1]
    grad = TrigPolyVec(v=np.zeros(d), a=ga, b=gb)
    gnorm2 = trigpoly.l2_inner(grad, grad)
    if gnorm2 <= 0.0:
        raise ValueError("top harmonic pair vanishes; the level-set normal is undefined")
    h = trigpoly.scale(grad, 1.0 / gnorm2)
    return coeff, h


# ---------------------------------------------------------------------------
# Eigenvalue lower bounds
# ---------------------------------------------------------------------------


def chen_lower_bound(m, curvature_lower, mean_upper, alpha, rolling_radius, diameter):
    """First-eigenvalue lower bound from diameter, mean curvature, and rolling.

    Parameters: intrinsic dimension m >= 3; curvature_lower is the constant
    K >= 0 bounding the sectional curvature below by -K; mean_upper bounds
    the mean curvature; 0 < alpha < 1 (interior cone aperture) and
    0 < rolling_radius < 1; diameter > 0.
    """
    if m < 3:
        raise ValueError(f"bound requires dimension >= 3, got {m}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"cone aperture alpha must lie in (0, 1), got {alpha}")
    if not (0.0 < rolling_radius < 1.0):
        raise ValueError(f"rolling radius must lie in (0, 1), got {rolling_radius}")
    if diameter <= 0.0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    if curvature_lower < 0.0 or mean_upper < 0.0:
        raise ValueError("curvature and mean-curvature bounds must be nonnegative")
    h = mean_upper
    r = rolling_radius
    d = diameter
    b3 = 2.0 * (m - 1) * h * (1.0 + h) * (1.0 + 3.0 * h) / r + h * (1.0 + h) / r**2
    b2 = (
        (1.0 + h) * b3
        + ((2 * m - 3) ** 2 + (4 * m - 5) * alpha**2)
        * h**2
        / ((m - 1) * r**2 * alpha**2)
        + (1.0 + h) ** 2 * curvature_lower
    )
    b1 = 1.0 + math.sqrt(1.0 + 4.0 * (m - 1) * d**2 * b2 / (1.0 - alpha**2))
    return (
        1.0
        / (1.0 + h**2)
        * ((1.0 - alpha**2) / (4.0 * (m - 1) * d**2) * b1**2 - b2)
        * math.exp(-b1)
    )


def meyer_lower_bound(n, excentricity, inradius, ricci_lower, diameter):
    """First-eigenvalue lower bound from diameter, inradius, and Ricci bound.

    `ricci_lower` is the constant K with Ricci >= (n-1) K; there is one
    branch for K >= 0 and one for K < 0.  The K -> 0^- limit of the negative
    branch is exp(-2 gamma(n) D / a) times the K = 0 value, so the two
    branches do not join continuously; callers probing continuity should
    compare against meyer_zero_limit.
    """
    if n < 2:
        raise ValueError(f"bound requires dimension >= 2, got {n}")
    if inradius <= 0.0 or diameter <= 0.0:
        raise ValueError("inradius and diameter must be positive")
    if excentricity < 0.0:
        raise ValueError("excentricity must be nonnegative")
    alpha = math.exp(-2.0) / (4.0 * (n - 1))
    beta = 16.0 * n
    gamma = 2.0 * (n - 1) ** 1.5
    base = diameter * max(excentricity, 1.0 / inradius)
    if ricci_lower >= 0.0:
        return alpha * math.exp(-beta * base)
    root = math.sqrt(-ricci_lower)
    return alpha * math.exp(
        -beta * base - gamma * diameter * root / math.tanh(inradius * root / 2.0)
    )


def meyer_zero_limit(n, excentricity, inradius, diameter):
    """Analytic K -> 0^- limit of the negative-curvature branch."""
    alpha = math.exp(-2.0) / (4.0 * (n - 1))
    beta = 16.0 * n
    gamma = 2.0 * (n - 1) ** 1.5
    base = diameter * max(excentricity, 1.0 / inradius)
    return alpha * math.exp(-beta * base - 2.0 * gamma * diameter / inradius)
