import math

import numpy as np
import pytest

from loopsphere import numerics
from loopsphere.prng import SplitMix64


def test_gauss_legendre_exact_on_polynomials():
    rule = numerics.gauss_legendre(6)
    # Exact for degree <= 11 on [-1, 1].
    for deg in range(12):
        val = numerics.integrate(lambda x: x**deg, (-1.0, 1.0), rule)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(val - exact) < 1e-14


def test_integrate_interval_mapping():
    rule = numerics.gauss_legendre(20)
    val = numerics.integrate(math.sin, (0.0, math.pi), rule)
    assert abs(val - 2.0) < 1e-13


def test_integrate_rejects_non_finite():
    rule = numerics.gauss_legendre(4)
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite"):
        numerics.integrate(lambda x: 1.0 / (x - x), (0.0, 1.0), rule)


def test_check_symmetric():
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    out = numerics.check_symmetric(m)
    assert np.array_equal(out, m)
    with pytest.raises(ValueError, match="not symmetric"):
        numerics.check_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))
    with pytest.raises(ValueError, match="square"):
        numerics.check_symmetric(np.zeros((2, 3)))


def test_eig_symmetric_matches_lapack():
    rng = SplitMix64(99)
    for n in (1, 2, 5, 12):
        raw = np.array(rng.gauss_vector(n * n)).reshape(n, n)
        m = 0.5 * (raw + raw.T)
        w, v = numerics.eig_symmetric(m)
        w_ref = np.linalg.eigvalsh(m)
        assert np.allclose(w, w_ref, atol=1e-12 * max(1.0, np.linalg.norm(m)))
        # Residual and orthogonality of the eigenvectors.
        assert np.linalg.norm(m @ v - v @ np.diag(w)) < 1e-11 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(v.T @ v - np.eye(n)) < 1e-12


def bisect_root(f, bracket, tol=1e-12, max_iter=200):
    """Root of a scalar function on a sign-changing bracket by bisection.

    A test oracle.  `tol` bounds the final bracket width (absolute plus
    relative to the midpoint magnitude).
    """
    lo, hi = bracket
    flo = f(lo)
    fhi = f(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)):
        raise ValueError(f"function is non-finite at a bracket endpoint ({lo}, {hi})")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(
            f"bracket ({lo}, {hi}) does not change sign: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * (1.0 + abs(mid)):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def test_bisect_root():
    root = bisect_root(lambda x: x**2 - 2.0, (0.0, 2.0))
    assert abs(root - math.sqrt(2.0)) < 1e-11
    with pytest.raises(ValueError, match="does not change sign"):
        bisect_root(lambda x: 1.0 + x * x, (0.0, 1.0))
