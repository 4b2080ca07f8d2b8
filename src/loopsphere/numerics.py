"""Shared numerical kernels: Gauss-Legendre quadrature (the radial volume),
the symmetry check and the cyclic-Jacobi eigensolver of the curvature
reports, and the open-interval test of the formulas' ndarray branches.
"""

import functools
import math

import numpy as np


def _inside(x, lo, hi):
    """lo < x < hi for every entry of the ndarray x."""
    return bool(np.all((lo < x) & (x < hi)))


@functools.lru_cache(typed=True)
def gauss_legendre(order):
    """Nodes and weights of the Gauss-Legendre rule with `order` nodes on [-1, 1].

    Exact for degree 2*order-1.  The rules are kept in an `lru_cache`, one per
    order, and shared by every caller; their nodes and weights are read-only
    arrays.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate(f, interval, rule):
    """Integrate a scalar callable over (lo, hi) with the (nodes, weights) rule.

    Raises ValueError naming the offending abscissa if the integrand returns a
    non-finite value (singular-endpoint integrands must be truncated by the
    caller).
    """
    nodes, weights = rule
    lo, hi = interval
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"integration interval must be finite, got ({lo}, {hi})")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid + half * nodes
    vals = np.array([f(x) for x in xs], dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        x_bad = xs[bad][0]
        raise ValueError(f"integrand returned a non-finite value at abscissa {x_bad!r}")
    return half * float(np.dot(weights, vals))


def check_symmetric(matrix, rtol=1e-13):
    """Return the matrix as float ndarray, raising if it is not symmetric.

    Asymmetry is measured relative to the matrix norm; the default threshold
    1e-13 admits roundoff from symmetric assembly but rejects transposition
    bugs.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.linalg.norm(m)
    asym = np.linalg.norm(m - m.T)
    if asym > rtol * max(scale, 1.0):
        raise ValueError(
            f"matrix is not symmetric: |M - M^T| = {asym:.3e} exceeds "
            f"{rtol:.1e} * max(|M|, 1) = {rtol * max(scale, 1.0):.3e}"
        )
    return 0.5 * (m + m.T)


def eig_symmetric(matrix):
    """Eigenvalues and eigenvectors of a symmetric matrix by cyclic Jacobi.

    Returns (w, V) with eigenvalues ascending and V[:, i] the orthonormal
    eigenvector for w[i].  The cyclic Jacobi iteration annihilates each
    off-diagonal entry in turn with a Givens rotation; convergence is
    quadratic once the off-diagonal mass is small.  It stops when the
    off-diagonal norm is at most 1e-14 of the matrix norm, and raises after
    100 sweeps.

    Each Givens step rotates columns p and q of one column-major stack
    [a; V], elementwise.  a stays exactly symmetric (check_symmetric returns
    0.5 (m + m^T), and the column update gives rows p and q the bits it
    gives the columns), so the row update is two row copies and the 2x2
    block.  The frozen benchmark reference holds roundoff-dominated (D2)
    curvature values read off this frame, so (w, V) stay bitwise those of
    the loop that rotates columns, rows and V in turn (the test oracle): no
    matmul or einsum, which may fuse multiply-adds.
    """
    tol, max_sweeps = 1e-14, 100
    a = check_symmetric(matrix)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy(), np.eye(1)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    stack = np.asfortranarray(np.vstack([a, np.eye(n)]))
    a, v = stack[:n], stack[n:]
    # Entries negligible at working precision are zeroed, not rotated away.
    skip = 1e-18 * tol * scale + 1e-300
    for _ in range(max_sweeps):
        # Sum the off-diagonal entries directly: subtracting the diagonal
        # mass from the total cancels catastrophically near convergence.  The
        # sums run on a C-ordered copy: np.sum's order follows the layout.
        block = np.ascontiguousarray(a)
        off2 = np.sum(block**2) - np.sum(block.diagonal() ** 2)
        if off2 < 1e-12 * np.sum(block.diagonal() ** 2):
            off2 = np.sum((block - np.diag(block.diagonal())) ** 2)
        off = np.sqrt(max(off2, 0.0))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a.item(p, q)
                if abs(apq) <= skip:
                    a[p, q] = a[q, p] = 0.0
                    continue
                # Rotation angle from the standard two-by-two symmetric
                # Schur decomposition (Golub & Van Loan 8.4).
                tau = (a.item(q, q) - a.item(p, p)) / (2.0 * apq)
                # |a_qq - a_pp| <= 1.42 |a| and |a_pq| > 1e-32 |a|: |tau| < 1e33.
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                x, y = stack[:, p], stack[:, q]
                rot_p, rot_q = c * x - s * y, s * x + c * y
                stack[:, p], stack[:, q] = rot_p, rot_q
                a[p], a[q] = rot_p[:n], rot_q[:n]
                a[p, p] = c * rot_p.item(p) - s * rot_p.item(q)
                a[q, q] = s * rot_q.item(p) + c * rot_q.item(q)
                a[p, q] = a[q, p] = 0.0
    else:
        raise RuntimeError(f"Jacobi iteration failed to converge in {max_sweeps} sweeps")
    w = a.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
