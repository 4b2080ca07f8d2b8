import math
import os
import threading
import warnings

import numpy as np
import pytest

from loopsphere import curvature, numerics
from loopsphere.cli import random_loop
from loopsphere.prng import SplitMix64


def test_gauss_legendre_exact_on_polynomials():
    rule = numerics.gauss_legendre(6)
    # Exact for degree <= 11 on [-1, 1].
    for deg in range(12):
        val = numerics.integrate(lambda x: x**deg, (-1.0, 1.0), rule)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(val - exact) < 1e-14


def test_gauss_legendre_rules_are_shared_and_read_only():
    rule = numerics.gauss_legendre(120)
    assert numerics.gauss_legendre(120) is rule
    nodes, weights = np.polynomial.legendre.leggauss(120)
    assert np.array_equal(rule[0], nodes) and np.array_equal(rule[1], weights)
    for values in rule:
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
    with pytest.raises(ValueError, match="order must be >= 1"):
        numerics.gauss_legendre(0)


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


def jacobi_rotating_rows_and_columns(matrix):
    """Cyclic Jacobi that rotates a's columns, then its rows, then V's columns.

    A test oracle: numerics.eig_symmetric must return its (w, V) bit for bit.
    """
    tol, max_sweeps = 1e-14, 100
    a = numerics.check_symmetric(matrix).copy()
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n), v
    for _ in range(max_sweeps):
        off2 = np.sum(a**2) - np.sum(a.diagonal() ** 2)
        if off2 < 1e-12 * np.sum(a.diagonal() ** 2):
            off2 = np.sum((a - np.diag(a.diagonal())) ** 2)
        off = np.sqrt(max(off2, 0.0))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * tol * scale + 1e-300:
                    a[p, q] = a[q, p] = 0.0
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    else:
        raise RuntimeError(f"Jacobi iteration failed to converge in {max_sweeps} sweeps")
    w = a.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def test_eig_symmetric_matches_jacobi_oracle_bitwise():
    matrices = []
    # Tangent Gram matrices of the curvature frame, the D2 loops among them.
    for k, degree, seed in ((3, 5, 0), (2, 3, 6), (3, 3, 9), (4, 3, 0)):
        amat = 0.5 * curvature.CurvatureContext(random_loop(k, degree, 1.0, seed)).grads
        matrices.append(amat.T @ amat)
    rng = SplitMix64(7)
    for n in (1, 2, 5, 12, 44):
        raw = np.array(rng.gauss_vector(n * n)).reshape(n, n)
        matrices.append(raw + raw.T)
    matrices.append(np.zeros((3, 3)))
    # Every off-diagonal entry takes the skip branch.
    matrices.append(np.diag([2.0, -1.0, 0.5, 3.0]))
    for m in matrices:
        w, v = numerics.eig_symmetric(m)
        w_ref, v_ref = jacobi_rotating_rows_and_columns(m)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref), m.shape


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


# ---------------------------------------------------------------------------
# fork_map
# ---------------------------------------------------------------------------


def usable_cpus(monkeypatch, cpus):
    """Make `numerics.fork_map` see `cpus` usable CPUs; it forks only for two or more."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def count_forks(monkeypatch):
    """The list to which each `os.fork` call from now on appends the caller's pid."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def warn_then(item):
    warnings.warn(f"item {item}", UserWarning)
    if item == 2:
        raise ValueError("item 2 failed")
    return item


# Forked: one child for [0, 1] and two for [1, 2, 3], none for a last item.
@pytest.mark.parametrize("cpus, children", [(1, 0), (2, 3)], ids=["in-process", "forked"])
def test_fork_map_replays_warnings_and_the_first_failure_in_item_order(monkeypatch, cpus,
                                                                       children):
    usable_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert numerics.fork_map(warn_then, [0, 1]) == [0, 1]
        shown = [str(w.message) for w in caught]
        caught.clear()
        # Item 3's warning is never shown: the loop stops at item 2.
        with pytest.raises(ValueError, match="item 2 failed"):
            numerics.fork_map(warn_then, [1, 2, 3])
    assert shown == ["item 0", "item 1"]
    assert [str(w.message) for w in caught] == ["item 1", "item 2"]
    assert {w.category for w in caught} == {UserWarning}
    assert caught[0].filename == __file__
    assert len(forks) == children
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class NeedsCode(Exception):
    """Pickles, but cannot be unpickled: its __init__ wants a second argument."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def raise_unpicklable(item):
    if item == 0:
        raise NeedsCode("no code", 7)
    if item == 1:
        raise ValueError(lambda: None)
    return item


@pytest.mark.parametrize("item, match", [(0, "NeedsCode: no code"),
                                         (1, "ValueError: <function")],
                         ids=["unpicklable", "unpicklable-argument"])
def test_fork_map_names_an_exception_pickle_cannot_carry_back(monkeypatch, item, match):
    usable_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=match):
        numerics.fork_map(raise_unpicklable, [item, 2])
    # The last item runs in the caller, which raises the exception itself.
    with pytest.raises(NeedsCode):
        numerics.fork_map(raise_unpicklable, [2, 0])


def test_fork_map_runs_in_process_while_another_thread_runs(monkeypatch):
    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert numerics.fork_map(lambda item: 2 * item, [1, 2, 3]) == [2, 4, 6]
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    assert numerics.fork_map(lambda item: 2 * item, [1, 2, 3]) == [2, 4, 6]
    assert len(forks) == 2


def test_fork_map_reaps_its_children_when_a_fork_fails(monkeypatch):
    usable_cpus(monkeypatch, 2)
    real_fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(os.getpid())
        if len(forks) == 2:
            raise BlockingIOError("fork refused")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    open_fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    with pytest.raises(BlockingIOError, match="fork refused") as info:
        numerics.fork_map(lambda item: item, [1, 2, 3, 4])
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # Both ends of both pipes are closed, while the traceback still holds
    # fork_map's frame (a file object that is collected closes anyway).
    if open_fds is not None:
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
    assert info.traceback
