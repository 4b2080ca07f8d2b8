"""Curvature of loop varieties: exact second-fundamental-form calculus.

A degree-N loop variety sits inside the flat space of degree-N vector trig
polynomials as the common zero set of the scalar constraints

    f_phi(n) = <n.n - R^2, phi>,   phi a scalar trig polynomial, deg phi <= 2N.

All curvature quantities reduce to finite linear algebra in the orthonormal
flat coordinates of that space:

  * grad f_phi = 2 Pr_N(n phi), with Pr_N the harmonic truncation;
  * the Hessian of f_phi is the symmetric matrix H_phi : X -> 2 Pr_N(X phi),
    which depends on (N, d) only and equals h_phi (x) I_d, h_phi the same map
    on scalars.  All the h_i come from one product-to-sum of exponential
    coefficients and are lifted to H_i by the Kronecker product (_hessians);
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
The last term's m^6 products (m = 4N + 1) are summed in np.einsum's order,
bit for bit, because the frozen benchmark reference holds roundoff-dominated
D2 scalars: numpy 2.4 visits k, l, q, i, r, j from outer to inner, multiplies
left to right, and sums runs of whole blocks of the inner axes that fit its
8192-element buffer (ending with the block of the next axis out), each from
+0.0 in order, adding each run's sum to the total in turn (_connection_sum).
The Ricci route's tangent frame T is the null space of the gradients' Gram
matrix, from numerics.eig_symmetric: cyclic Jacobi on one stack [a; V] that
keeps a exactly symmetric, bitwise the textbook loop, because the frozen
benchmark reference holds the roundoff-dominated D2 Ricci values.  After it,
u_i = T^T H_i T is one batched matmul and the Ricci sums are tensordots.

The module also provides the homogeneous-space (Lie bracket) Ricci engine for
the Stiefel fibers, the closed forms of the degree-one variety, and the Leung
Ricci-minimum bound that the curvature report carries.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import manifold, numerics, trigpoly


class NearSingularStratumError(ValueError):
    """Raised when the constraint Gram matrix is numerically singular."""


# Largest condition number of the constraint Gram matrix a curvature report
# accepts; beyond it the inverse Gram matrix amplifies roundoff past use.
COND_LIMIT = 1e12
# Largest number m = 4N + 1 of constraints and largest flat dimension
# (k + 1)(2N + 1) a curvature report takes, with one BLAS thread on one core
# of a Xeon VM: the m^6 connection sum takes 21-23 s at m = 45 (k = 3, N = 11)
# and 36 s at 49, and cyclic Jacobi on the flat-dimension-square Gram matrix
# takes 27-31 s at 720 (k = 239, N = 1), 26-30 s at 753 and 44-57 s at 768.
# Near both limits at once the closed route's m^3 flat^2 einsums and the
# Jacobi frame add up: a loop with k = 31, N = 11 (m = 45, flat dimension 736)
# takes 184 s.  CONTRACTION_MAX bounds those einsums' m^3 flat^2: the
# largest loop it admits at N = 4, 5, 6, 7, 8, 9, 10, 11 (k = 69, 41, 26, 18,
# 12, 9, 7, 5) takes 25, 12, 8, 7, 8, 10, 15 and 25 s, and FLAT_DIM_MAX
# bounds N <= 3 (at most 32 s).
CONSTRAINTS_MAX = 45
FLAT_DIM_MAX = 750
CONTRACTION_MAX = 2 * 10**9


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


def infer_radius(n):
    """Sphere radius from the constant coefficient of n.n."""
    mean_sq = trigpoly.pointwise_dot(n, n).v[0]
    if mean_sq <= 0.0:
        raise ValueError("loop has nonpositive mean square; not sphere-valued")
    return math.sqrt(mean_sq)


def _hessians(degree, ambient_dim):
    """Hessians H_i, shape (m, nn, nn), of the constraints f_i at any loop.

    Column col of H_i is 2 flatten(Pr_N(x_col phi_i)) for the unit flat
    direction x_col.  Multiplying by phi_i acts on each ambient component
    alike, so H_i = h_i (x) I_d with h_i the same map on the 2N+1 unit scalar
    directions.  All m blocks come from one trigpoly._convolve of the basis
    scalars' exponential coefficients against the directions', followed by
    the from_exponential, flatten_vec and 2.0 * steps: every entry takes the
    float operations of the one-product-per-direction assembly and equals it
    exactly (only the sign of some zeros differs).  Elementwise arithmetic
    only: a matrix product or einsum could fuse multiply-adds and change the
    rounding.
    """
    nb = scalar_dim(degree)
    m = scalar_dim(2 * degree)

    def units(size):
        # Exponential coefficients of the basis 1, sqrt2 cos s, sqrt2 sin s.
        unit = np.eye(size)
        unit[1:] *= math.sqrt(2.0)
        return trigpoly._exponential(unit[0], unit[1::2], unit[2::2])

    # Harmonics 0..N of phi_i x_col: rows 3N..4N of the product.
    c = trigpoly._convolve(units(m)[:, :, None], units(nb)[:, None])[3 * degree : 4 * degree + 1]
    flat = np.empty((nb, m, nb))
    flat[0] = c[0].real
    flat[1::2] = 2.0 * c[1:].real / math.sqrt(2.0)
    flat[2::2] = -2.0 * c[1:].imag / math.sqrt(2.0)
    hess = np.zeros((m, nb, ambient_dim, nb, ambient_dim))
    diag = np.arange(ambient_dim)
    hess[:, :, diag, :, diag] = 2.0 * flat.transpose(1, 0, 2)
    return hess.reshape(m, nb * ambient_dim, nb * ambient_dim)


def _connection_sum(s, a):
    """sum_klqirj s_kl s_qr s_ij a_qki a_lrj, bit for bit as np.einsum sums it.

    The module docstring gives np.einsum's order of products and sums.  For
    m <= 6 the runs split k, and each is summed whole.  Otherwise the runs
    are lanes laid out innermost and summed side by side: one per index of
    the axes outside the run's axis c and, when those are few, per group of
    c.  Many lanes take one `acc += row` per place in the run; fewer take
    np.add.accumulate, two lanes per complex addition.  O(m^4) doubles are
    held.
    """
    m = len(s)
    c = next(c for c in range(6) if m ** (5 - c) <= 8192)  # 8192: numpy's buffer size
    per_run = min(m, 8192 // m ** (5 - c))
    # The five factors over the axes (k, l, q, i, r, j).
    s_kl, s_qr = s[:, :, None, None, None, None], s[None, None, :, None, :, None]
    s_ij, a_lrj = s[None, None, None, :, None, :], a[None, :, None, None, :, :]
    a_qki = a.transpose(1, 0, 2)[:, None, :, :, None, None]
    if c == 0:
        terms = ((np.multiply(s_kl, s_qr) * s_ij) * a_qki * a_lrj).reshape(m, -1)
        runs = [np.add.accumulate(terms[k : k + per_run].ravel())[-1] for k in range(0, m, per_run)]
        return 0.0 + float(np.add.accumulate(runs)[-1])
    groups = -(-m // per_run)
    g_lane = m**c < 512  # few lanes outside c: c's groups join them
    rows = m**c * groups**g_lane >= 512  # enough lanes for one numpy add per place
    groups += g_lane and not rows and groups % 2  # an even count pairs up as complex
    nl = m**c * groups**g_lane
    # Axes 0..c-1, c split into (group, place in run), c+1..5; l first keeps inner loops long.
    outer = sorted(range(c), key=lambda ax: ax != 1)
    lanes = outer[:1] + [c] * g_lane + outer[1:]
    places = [c] * (not g_lane) + list(range(c + 1, 7))
    full = [groups if ax == c else per_run if ax == c + 1 else m for ax in places + lanes]
    budget = max(m**4, 1 << 18)
    factors = []
    for f in (s_kl, s_qr, s_ij, a_qki, a_lrj):
        head, tail = f.shape[:c], f.shape[c + 1 :]
        if f.shape[c] > 1:  # zeros up to whole groups
            f = np.concatenate([f, np.zeros(head + (groups * per_run - m,) + tail)], c)
        split = (groups, per_run) if f.shape[c] > 1 else (1, 1)
        f = f.reshape(head + split + tail).transpose(places + lanes)
        wide = f.shape[: len(places)] + tuple(full[len(places) :])
        if not rows and math.prod(wide) <= budget:
            f = np.broadcast_to(f, wide)
        factors.append(np.ascontiguousarray(f))
    # The leading axes are looped over in Python: group and place when the groups are not lanes.
    lead = max(2 - g_lane, next(d for d in range(7) if math.prod(full[d:]) <= budget))
    buf = np.empty(full[lead:])
    terms = buf.reshape(-1, nl)
    sums = np.zeros((groups ** (not g_lane), nl))
    for idx in np.ndindex(*full[:lead]):
        if not g_lane and idx[0] * per_run + idx[1] >= m:
            continue  # padding
        x_kl, x_qr, x_ij, x_qki, x_lrj = (f[tuple(i % n for i, n in zip(idx, f.shape))]
                                          for f in factors)
        np.multiply(np.multiply(x_kl, x_qr, order="C"), x_ij, out=buf)
        buf *= x_qki
        buf *= x_lrj
        acc = sums[0 if g_lane else idx[0]]
        if rows:
            for row in terms:
                acc += row
        else:
            terms[0] += acc
            acc[:] = np.add.accumulate(terms.view(np.complex128), axis=0)[-1].view(np.float64)
    labels = [c] * (not g_lane) + lanes
    runs = sums.reshape([groups if ax == c else m for ax in labels]).transpose(np.argsort(labels))
    runs = runs.ravel()
    # 0.0 + ...: a run of zeros summed by np.add.accumulate may read -0.0.
    return 0.0 + float(np.add.accumulate(runs, out=runs)[-1])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


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
        trigpoly.require_on_sphere(n, self.radius)
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
        conn_term = -_connection_sum(sinv, a_tensor)
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


def scalar_and_mean(n, radius=None):
    """Full curvature report at one loop.

    The kernels are computed for the loop scaled to the unit sphere, where
    their entries are of order one whatever the radius; the curvatures then
    scale as 1/R^2.
    """
    if n.ambient_dim < 2:
        raise ValueError("curvature requires k >= 1: the loops on S^0 are isolated points")
    m, flat = scalar_dim(2 * n.degree), flat_dim(n.degree, n.ambient_dim)
    if m > CONSTRAINTS_MAX:
        raise ValueError(f"a loop of degree N = {n.degree} has 4N + 1 = {m} constraints; a "
                         f"curvature report takes at most {CONSTRAINTS_MAX} "
                         f"(N <= {(CONSTRAINTS_MAX - 1) // 4})")
    if flat > FLAT_DIM_MAX:
        raise ValueError(f"a loop of degree N = {n.degree} on S^{n.ambient_dim - 1} has flat "
                         f"dimension (k + 1)(2N + 1) = {flat}; a curvature report takes at "
                         f"most {FLAT_DIM_MAX}")
    if m**3 * flat**2 > CONTRACTION_MAX:
        raise ValueError(f"a loop of degree N = {n.degree} on S^{n.ambient_dim - 1} has "
                         f"m^3 flat^2 = (4N + 1)^3 ((k + 1)(2N + 1))^2 = {m**3 * flat**2:.3e}; "
                         f"a curvature report takes at most {CONTRACTION_MAX:.0e}")
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
    leung = leung_bound(scalar_closed, mean_sq, dim) if dim >= 2 else None
    eigenvalues = np.linalg.eigvalsh(ric)
    r2 = radius**2
    # Near the smallest radius a loop file may hold, the curvatures of a
    # strongly curved loop exceed the doubles.
    largest = max(abs(scalar_closed), mean_sq, np.abs(eigenvalues).max(), abs(leung or 0.0),
                  *(abs(term) for term in terms.values()))
    if largest > sys.float_info.max * r2:
        raise ValueError(
            f"radius R = {radius!r} is out of range: a curvature of {largest:.3e} / R^2 "
            f"cannot be represented as a double"
        )
    return CurvatureReport(
        scalar=scalar_closed / r2,
        mean_sq=mean_sq / r2,
        ricci_matrix=ric / r2,
        ricci_eigenvalues=eigenvalues / r2,
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


def besse_ricci(k, t):
    """Ricci of the Stiefel fiber computed from Lie brackets alone.

    The fiber is the quotient of the rotation group of R^{k+1} by the
    stabilizer of the 3-frame; its tangent space identifies with the span p
    of the skew generators that move the frame legs, carrying the diagonal
    metric g of `manifold.metric_omega`.  The Ricci tensor of such a
    reductive quotient is the universal bracket sum (Besse, Einstein
    Manifolds, 7.38)

      Ric(X,X) = -1/2 sum_j |[X,X_j]_p|^2
                 -1/2 sum_j ([X,[X,X_j]_p]_p, X_j)
                 -    sum_j ([X,[X,X_j]_f]_p, X_j)
                 +1/4 sum_{ij} ([X_i,X_j]_p, X)^2

    over a metric-orthonormal basis X_j = E_j / sqrt(g_j) of p, with f the
    stabilizer algebra.  In the Frobenius-orthonormal generators
    E_ij = (e_i e_j^T - e_j e_i^T)/sqrt(2), i < j, every bracket is read from
    the structure constants c_abe = <[E_a, E_b], E_e>, and each term is a
    quadratic form x^T Q x in the coordinates of X = sum_a x_a E_a:

      Q = -1/2 sum_{j,e in p} c_aje c_bje g_e / g_j
          -1/2 sum_{j,e in p} c_aje c_bej
          -    sum_{j in p, h in f} c_ajh c_bhj
          +1/4 sum_{i,j in p} c_ija c_ijb g_a g_b / (g_i g_j).

    Reported values are Ric for the unnormalized skew generators
    E_ij - E_ji (matching the closed-form convention), twice those of the
    normalized ones: the matrix is Q + Q^T.

    Returns {"labels", "matrix", "diagonal"}, the moving pairs (i, j) in
    lexicographic order.
    """
    metric = manifold.metric_omega(t, manifold.ModelParams(k=k)).coefficients
    dim = k + 1
    # Lexicographic pairs: the nm moving ones (i <= 2) come first.
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    gens = np.zeros((len(pairs), dim, dim))
    for gen, (i, j) in zip(gens, pairs):
        gen[i, j], gen[j, i] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    prod = np.einsum("aij,bjk->abik", gens, gens)
    c = np.einsum("abik,eik->abe", prod - prod.transpose(1, 0, 2, 3), gens)
    labels = [manifold.frame_pair_label(i, j) for i, j in pairs if i <= 2]
    g = np.array([metric[lab] for lab in labels])
    nm = len(labels)
    cm = c[:nm, :nm, :nm]
    q = (-0.5 * np.einsum("aje,bje,e,j->ab", cm, cm, g, 1.0 / g)
         - 0.5 * np.einsum("aje,bej->ab", cm, cm)
         - np.einsum("ajh,bhj->ab", c[:nm, :nm, nm:], c[:nm, nm:, :nm])
         + 0.25 * np.einsum("ija,ijb,i,j->ab", cm, cm, 1.0 / g, 1.0 / g) * np.outer(g, g))
    full = q + q.T
    diagonal = {}
    for j, lab in enumerate(labels):
        diagonal.setdefault(lab, full[j, j])
    return {"labels": labels, "matrix": full, "diagonal": diagonal}
