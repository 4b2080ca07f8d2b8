import functools
import math
import tracemalloc

import numpy as np
import pytest

from loopsphere import curvature, manifold, numerics, trigpoly
from loopsphere.cli import random_loop
from loopsphere.prng import SplitMix64
from test_manifold import random_frame
from test_resolution import matrix_random_loop
from test_trigpoly import scalar_mul


def add_loops(m, n):
    """The sum of two vector polynomials, coefficient by coefficient."""
    deg = max(m.degree, n.degree)
    a = np.zeros((deg, m.ambient_dim))
    b = np.zeros((deg, m.ambient_dim))
    a[: m.degree] += m.a
    b[: m.degree] += m.b
    a[: n.degree] += n.a
    b[: n.degree] += n.b
    return trigpoly.TrigPolyVec(v=m.v + n.v, a=a, b=b)


def unflatten_vec(x, degree, ambient_dim):
    """The loop of flat coordinates x: the inverse of curvature.flatten_vec."""
    blocks = np.reshape(x, (2 * degree + 1, ambient_dim))
    a, b = blocks[1::2] * math.sqrt(2.0), blocks[2::2] * math.sqrt(2.0)
    return trigpoly.TrigPolyVec(v=blocks[0], a=a, b=b)


def scalar_basis_element(i, order):
    """The i-th orthonormal scalar basis polynomial, a loop in R^1: 1, sqrt2 cos s, sqrt2 sin s."""
    return unflatten_vec(np.eye(curvature.scalar_dim(order))[i], order, 1)


def grad_f(n, phi):
    """Gradient of the constraint component f_phi at n: 2 Pr_N(n phi)."""
    if phi.degree > 2 * n.degree:
        raise ValueError(f"scalar degree {phi.degree} exceeds 2N = {2 * n.degree}")
    return trigpoly.scale(trigpoly.project(scalar_mul(n, phi), n.degree), 2.0)


def test_round_sphere_constant_loops():
    # Degree-0 loops form the round sphere: Ric = (k-1)/R^2 times the metric.
    for k in (2, 4):
        radius = 1.3
        n = trigpoly.trig_poly(np.concatenate([[radius], np.zeros(k)]))
        rep = curvature.scalar_and_mean(n, radius=radius)
        assert rep.dim == k
        expected = (k - 1) / radius**2
        assert np.allclose(rep.ricci_matrix, expected * np.eye(k), atol=1e-11)
        assert rep.scalar == pytest.approx(k * (k - 1) / radius**2, rel=1e-11)


def test_degree_one_k2_closed_forms():
    rng = SplitMix64(31)
    params = manifold.ModelParams(k=2, R=1.0)
    t = 0.5
    n = manifold.alg_chart(manifold.FramePoint(t=t, frame=random_frame(rng, 2)), params)
    rep = curvature.scalar_and_mean(n, radius=params.R)
    closed = curvature.ricci_closed_form_k2(t, params.R)
    eigs = np.sort(np.linalg.eigvalsh(rep.ricci_matrix))
    expect = np.sort(
        [v for v, mult in closed["eigenvalues"] for _ in range(mult)]
    )
    assert np.allclose(eigs, expect, atol=1e-9)
    assert rep.scalar == pytest.approx(closed["scalar"], rel=1e-9)
    assert eigs[0] >= closed["lower_bound"] - 1e-9


def test_flat_coordinates_match_per_harmonic_loops_bitwise():
    for k, degree, seed in ((2, 1, 0), (3, 3, 1), (4, 2, 2)):
        n = random_loop(k, degree, 1.3, seed)
        d = k + 1
        for deg in (degree, degree + 1):
            expected = np.zeros(curvature.flat_dim(deg, d))
            expected[:d] = n.v
            for s in range(1, n.degree + 1):
                expected[d * (2 * s - 1) : d * 2 * s] = n.a[s - 1] / math.sqrt(2.0)
                expected[d * 2 * s : d * (2 * s + 1)] = n.b[s - 1] / math.sqrt(2.0)
            flat = curvature.flatten_vec(n, deg)
            assert np.array_equal(flat, expected)
            back = unflatten_vec(flat, deg, d)
            for s in range(1, n.degree + 1):
                a_s, b_s = flat[d * (2 * s - 1) : d * 2 * s], flat[d * 2 * s : d * (2 * s + 1)]
                assert np.array_equal(back.a[s - 1], a_s * math.sqrt(2.0))
                assert np.array_equal(back.b[s - 1], b_s * math.sqrt(2.0))
            assert np.array_equal(back.v, n.v) and back.degree == n.degree


def _per_direction_hessians(degree, ambient_dim):
    """Reference assembly: one scalar_mul per (basis scalar, flat direction)."""
    m = curvature.scalar_dim(2 * degree)
    nn = curvature.flat_dim(degree, ambient_dim)
    hess = np.zeros((m, nn, nn))
    for i in range(m):
        phi = scalar_basis_element(i, 2 * degree)
        for col in range(nn):
            e = np.zeros(nn)
            e[col] = 1.0
            x = unflatten_vec(e, degree, ambient_dim)
            image = trigpoly.project(scalar_mul(x, phi), degree)
            hess[i, :, col] = 2.0 * curvature.flatten_vec(image, degree)
    return hess


def test_batched_hessians_match_per_direction_assembly_bitwise():
    for degree in range(9):
        scalar = curvature._hessians(degree, 1)
        for d in (1, 3, 4, 5, 7):
            expected = _per_direction_hessians(degree, d)
            got = curvature._hessians(degree, d)
            assert np.array_equal(got, expected), (degree, d)
            for i in range(scalar.shape[0]):
                assert np.array_equal(got[i], np.kron(scalar[i], np.eye(d))), (degree, d, i)
    # One ulp off in a single entry is a mismatch.
    got[3, 5, 7] = np.nextafter(got[3, 5, 7], np.inf)
    assert not np.array_equal(got, expected)


def test_curvature_context_builds_no_trig_polynomial_products(monkeypatch):
    # One convolution builds all the Hessians, and one each reads the radius
    # and tests the sphere: none is per direction.
    calls = []
    convolve = trigpoly._convolve

    def counted(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(trigpoly, "_convolve", counted)
    ctx = curvature.CurvatureContext(random_loop(3, 3, 1.0, 0))
    assert ctx.hessians.shape == (13, 28, 28)
    assert len(calls) == 3


def test_ricci_min_matches_jacobi_oracle():
    for k, degree, seed in ((2, 2, 3), (3, 2, 4), (4, 1, 8)):
        rep = curvature.scalar_and_mean(random_loop(k, degree, 1.0, seed))
        w, _ = numerics.eig_symmetric(rep.ricci_matrix)
        scale = max(1.0, float(np.max(np.abs(w))))
        assert abs(rep.ricci_min - w[0]) <= 1e-12 * scale, (k, degree, seed)


def test_ricci_and_tangent_trace_match_einsum_contractions():
    # The contractions written as the einsums they replaced.  The 1e-12 bar
    # holds on the D2 loops only for these bits (ROADMAP item 1), so the loops
    # are composed in the matrix form, bit for bit as random_loop drew them before.
    loops = [(k, degree, seed) for k in (2, 3, 4) for degree in (1, 2, 3, 4) for seed in (0, 1, 2)]
    loops += [(3, 5, 0), (2, 3, 6), (3, 3, 9)]  # the D2 loops
    checked = 0
    for k, degree, seed in loops:
        try:
            ctx = curvature.CurvatureContext(matrix_random_loop(k, degree, 1.0, seed))
        except curvature.NearSingularStratumError:
            continue
        basis = ctx.tangent_matrix()
        u = np.einsum("aA,iab,bB->ABi", basis, ctx.hessians, basis)
        trace_u = np.einsum("EEi->i", u)
        first = np.einsum("i,ij,ABj->AB", trace_u, ctx.s_inv, u)
        second = np.einsum("EAi,ij,BEj->AB", u, ctx.s_inv, u)
        ric = first - second
        bar = 1e-12 * max(1.0, float(np.linalg.norm(ric)))
        assert np.max(np.abs(ctx.ricci_matrix() - ric)) <= bar, (k, degree, seed)
        assert np.max(np.abs(ctx.tangent_hessian_trace() - trace_u)) <= bar, (k, degree, seed)
        checked += 1
    assert checked >= 30


def test_grad_f_is_constraint_gradient():
    n = random_loop(2, 2, 1.0, seed=41)
    phi = scalar_basis_element(3, 2 * n.degree)
    grad = grad_f(n, phi)
    rng = SplitMix64(32)
    for _ in range(4):
        x = trigpoly.TrigPolyVec(
            v=np.array(rng.gauss_vector(3)),
            a=np.array([rng.gauss_vector(3) for _ in range(n.degree)]),
            b=np.array([rng.gauss_vector(3) for _ in range(n.degree)]),
        )
        eps = 1e-6
        plus = add_loops(n, trigpoly.scale(x, eps))
        minus = add_loops(n, trigpoly.scale(x, -eps))
        f_plus = trigpoly.l2_inner(trigpoly.pointwise_dot(plus, plus), phi)
        f_minus = trigpoly.l2_inner(trigpoly.pointwise_dot(minus, minus), phi)
        directional = (f_plus - f_minus) / (2.0 * eps)
        assert directional == pytest.approx(trigpoly.l2_inner(grad, x), abs=1e-8)
    with pytest.raises(ValueError, match="exceeds 2N"):
        grad_f(n, scalar_basis_element(2 * (2 * n.degree) + 1, 8))


def test_tangent_basis_orthonormal_and_tangential():
    n = random_loop(2, 1, 1.0, seed=13)
    cols = curvature.CurvatureContext(n).tangent_matrix()
    vectors = [unflatten_vec(col, n.degree, n.ambient_dim) for col in cols.T]
    m = len(vectors)
    assert m == curvature.flat_dim(1, 3) - curvature.scalar_dim(2)
    gram = np.array([[trigpoly.l2_inner(x, y) for y in vectors] for x in vectors])
    assert np.allclose(gram, np.eye(m), atol=1e-10)
    # Tangency: <n x, phi> = 0 for every tangent x and constraint phi.
    for x in vectors[:3]:
        prod = trigpoly.pointwise_dot(n, x)
        assert prod.norm() < 1e-8


def test_riemann_symmetries_and_bianchi():
    n = random_loop(2, 2, 1.0, seed=19)
    ctx = curvature.CurvatureContext(n)
    basis = ctx.tangent_matrix()
    rng = SplitMix64(33)
    def rand_tangent():
        coeff = np.array(rng.gauss_vector(basis.shape[1]))
        return basis @ coeff
    x, y, z, w = (rand_tangent() for _ in range(4))
    r = ctx.riemann_flat
    scale = max(abs(r(x, y, z, w)), 1.0)
    assert abs(r(x, y, z, w) + r(y, x, z, w)) < 1e-9 * scale
    assert abs(r(x, y, z, w) + r(x, y, w, z)) < 1e-9 * scale
    assert abs(r(x, y, z, w) - r(z, w, x, y)) < 1e-9 * scale
    bianchi = r(x, y, z, w) + r(y, z, x, w) + r(z, x, y, w)
    assert abs(bianchi) < 1e-9 * scale


def test_mean_curvature_closed_vs_basis():
    # tau computed without a tangent basis must match the basis contraction.
    for seed in (1, 2, 3):
        n = random_loop(3, 2, 1.0, seed=seed)
        ctx = curvature.CurvatureContext(n)
        closed = ctx.closed_contractions()
        tau_basis = ctx.tangent_hessian_trace()
        assert np.allclose(closed["tau"], tau_basis, atol=1e-9 * (1 + np.max(np.abs(tau_basis))))
        h2_basis = float(tau_basis @ ctx.s_inv @ tau_basis)
        assert closed["mean_sq"] == pytest.approx(h2_basis, rel=1e-9)


def test_scalar_decomposition_consistency():
    n = random_loop(2, 2, 1.0, seed=23)
    rep = curvature.scalar_and_mean(n)
    assert rep.scalar_trace_residual < 1e-9
    assert rep.scalar == pytest.approx(sum(rep.scalar_terms.values()), rel=1e-12)


def _exact(value):
    """pytest.approx at 1e-10 relative, or 1e-10 absolute for a value of 0."""
    return pytest.approx(value, rel=1e-10, abs=1e-10)


def _great_circle(k, degree, radius):
    """The N-fold great circle R(cos N theta e_1 + sin N theta e_2) on S^k."""
    a, b = np.zeros((degree, k + 1)), np.zeros((degree, k + 1))
    a[-1, 0] = b[-1, 1] = radius
    return trigpoly.trig_poly(np.zeros(k + 1), a, b)


# Sc R^2 and Ric_min R^2 of the N-fold great circle on S^k.
_GREAT_CIRCLE = {
    2: (lambda N: -4 * N**2 + 2 * N + 2, lambda N: -(2 * N - 1)),
    3: (lambda N: 12 * N + 6, lambda N: 2),
    4: (lambda N: 12 * N**2 + 30 * N + 12, lambda N: 2 * N + 3),
    5: (lambda N: 32 * N**2 + 56 * N + 20, lambda N: 4 * N + 4),
}


@pytest.mark.parametrize("k", sorted(_GREAT_CIRCLE))
def test_great_circle_curvatures_are_integers(k):
    """Sc R^2, Ric_min R^2 and |H|^2 R^2 = dim^2 on the N-fold great circle, N = 1-4.

    The formulas are measured, not derived: they fit this route's values at
    N = 1-4, where its scalar trace residual is below 1e-15.
    """
    scalar, ricci_min = _GREAT_CIRCLE[k]
    for degree, radius in zip((1, 2, 3, 4), (1.0, 0.37, 5.0, 1.0)):
        rep = curvature.scalar_and_mean(_great_circle(k, degree, radius), radius=radius)
        r2 = radius**2
        assert rep.scalar * r2 == _exact(scalar(degree)), degree
        assert rep.ricci_min * r2 == _exact(ricci_min(degree)), degree
        assert rep.mean_sq * r2 == _exact(rep.dim**2), degree


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_torus_knot_curvatures_are_exact(degree):
    """Sc R^2 = 28N - 34/9 and Ric_min R^2 = 10/3 on the (N, N-1) torus knot on S^3.

    The knot is R(cos(pi/4) e^{i N theta} + sin(pi/4) e^{i (N-1) theta}) in
    C^2 = R^4.  The formulas are measured, not derived.
    """
    for radius in (0.37, 1.0, 5.0):
        a, b = np.zeros((degree, 4)), np.zeros((degree, 4))
        a[-1, 0] = b[-1, 1] = a[-2, 2] = b[-2, 3] = radius * math.sqrt(0.5)
        rep = curvature.scalar_and_mean(trigpoly.trig_poly(np.zeros(4), a, b), radius=radius)
        r2 = radius**2
        assert rep.scalar * r2 == _exact(28 * degree - 34 / 9), radius
        assert rep.ricci_min * r2 == _exact(10 / 3), radius
        assert rep.mean_sq * r2 == _exact(rep.dim**2), radius


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mean_curvature_of_random_loops_is_dim_over_radius(k):
    """|H|^2 R^2 = dim^2 on seeded random loops of degree 1-4.

    Measured, not derived: the loop variety appears minimal in the L^2-sphere
    of radius R that its constant constraint defines.
    """
    radii = (0.37, 1.0, 5.0)
    for degree in (1, 2, 3, 4):
        radius = radii[(k + degree) % 3]
        rep = curvature.scalar_and_mean(random_loop(k, degree, radius, 0), radius=radius)
        assert rep.mean_sq * radius**2 == _exact(rep.dim**2), degree


@functools.lru_cache(maxsize=None)
def _scalar_hessians(degree):
    return curvature._hessians(degree, 1)


def _normal_kernel_diagonal(n):
    """K_N(theta) = sum_a |nu_a(theta)|^2 at 4N+5 angles, nu_a an orthonormal basis of span{grad f_i}.

    The basis is the Q factor of a QR of the constraint gradients
    H_i n = 2 Pr_N(n phi_i); H_i = h_i (x) I_d, so the scalar Hessians h_i act
    on the (2N+1, d) block of n's flat coordinates.  The 4N+1 columns of Q,
    side by side, unflatten to one loop in R^(d(4N+1)) whose squared length
    is K_N.
    """
    degree, d = n.degree, n.ambient_dim
    blocks = curvature.flatten_vec(n, degree).reshape(-1, d)
    grads = (_scalar_hessians(degree) @ blocks).reshape(4 * degree + 1, -1)
    q, _ = np.linalg.qr(grads.T)
    basis = unflatten_vec(q.ravel(), degree, q.size // (2 * degree + 1))
    thetas = np.linspace(0.0, 2 * np.pi, 4 * degree + 5, endpoint=False)
    return np.sum(basis.eval(thetas) ** 2, axis=1)


def test_normal_kernel_diagonal_is_4N_plus_1():
    """K_N(theta) = 4N+1, the dimension of the normal space, at every angle.

    Measured, not derived: a constant K_N makes the tangential trace of every
    zero-mean constraint Hessian vanish, which is the minimality in the
    L^2-sphere that |H|^2 R^2 = dim^2 shows.  Off the sphere it varies.
    """
    loops = [random_loop(k, degree, 1.0, seed) for k in range(2, 7)
             for degree in range(1, 7) for seed in (0, 1)]
    for degree in range(1, 25):
        loops += [_great_circle(k, degree, 1.0) for k in (2, 3, 5)]
        if degree >= 2:
            a, b = np.zeros((degree, 4)), np.zeros((degree, 4))
            a[-1, 0] = b[-1, 1] = a[-2, 2] = b[-2, 3] = math.sqrt(0.5)
            loops.append(trigpoly.trig_poly(np.zeros(4), a, b))
    for n in loops:
        dim = 4 * n.degree + 1
        assert np.max(np.abs(_normal_kernel_diagonal(n) - dim)) <= 1e-10 * dim, n
    rng = SplitMix64(41)
    for k, degree in ((2, 1), (3, 2)):
        coeffs = np.array([rng.gauss_vector(k + 1) for _ in range(2 * degree + 1)])
        off = trigpoly.trig_poly(coeffs[0], coeffs[1::2], coeffs[2::2])
        diagonal = _normal_kernel_diagonal(off)
        assert np.ptp(diagonal) > 0.1 * (4 * degree + 1), (k, degree, diagonal)


def _connection_operands(n):
    """s^{-1} and A_qri of the loop scaled to the unit sphere, as scalar_and_mean builds them."""
    ctx = curvature.CurvatureContext(trigpoly.scale(n, 1.0 / curvature.infer_radius(n)), 1.0)
    return ctx, ctx.s_inv, np.einsum("qa,iab,rb->qri", ctx.grads, ctx.hessians, ctx.grads)


def _einsum_connection(s, a):
    return float(np.einsum("kl,qr,ij,qki,lrj->", s, s, s, a, a))


_DEGREE_ONE = trigpoly.trig_poly(np.array([math.sqrt(0.3), 0.0, 0.0]),
                                 a=np.array([[0.0, math.sqrt(0.7), 0.0]]),
                                 b=np.array([[0.0, 0.0, math.sqrt(0.7)]]))


# m = 4N + 1 = 1, 5, 9, 13, 17, 21; k2-N3-s6, k3-N3-s9 and k3-N5-s0 are the
# D2 loops, whose frozen scalar curvatures are roundoff.
@pytest.mark.parametrize("loop", [
    "round", "degree-one", (4, 1, 3), (3, 2, 1), (2, 2, 4), (2, 3, 6), (3, 3, 9), (4, 3, 0),
    (3, 4, 0), (3, 5, 0),
], ids=str)
def test_connection_term_is_the_einsum_bit_for_bit(loop):
    if loop == "round":
        n = trigpoly.trig_poly(np.array([1.0, 0.0, 0.0, 0.0]))
    else:
        n = _DEGREE_ONE if loop == "degree-one" else random_loop(*loop[:2], 1.0, loop[2])
    ctx, s, a = _connection_operands(n)
    assert ctx.closed_contractions()["terms"]["connection"] == -_einsum_connection(s, a)


@pytest.mark.parametrize("m", [1, 2, 4, 5, 6, 7, 8, 9, 11, 13, 15, 17, 19, 21])
def test_connection_sum_is_the_einsum_bit_for_bit_on_random_operands(m):
    rng = np.random.default_rng(m)
    s = rng.standard_normal((m, m))
    a = rng.standard_normal((m, m, m))
    assert curvature._connection_sum(s, a) == _einsum_connection(s, a)
    # Columns l and m-1-l of s equal and slices l and m-1-l of a opposite:
    # every term has its exact negative, so the sum is all roundoff and
    # shows the order of every product and every addition.
    s[:, (m + 1) // 2 :] = s[:, : m // 2][:, ::-1]
    a[m // 2 :] = -a[: (m + 1) // 2][::-1]
    a[m // 2] *= m % 2 == 0
    assert curvature._connection_sum(s, a) == _einsum_connection(s, a)


def test_connection_sum_is_the_einsum_bit_for_bit_at_degree_six():
    _, s, a = _connection_operands(random_loop(3, 6, 1.0, 5))
    assert len(s) == 25
    assert curvature._connection_sum(s, a) == _einsum_connection(s, a)


def test_connection_sum_holds_a_few_megabytes_at_degree_five():
    # m^4 doubles are 1.6 MB at m = 21; an m^5 array would be 33 MB.
    _, s, a = _connection_operands(random_loop(3, 5, 1.0, 0))
    tracemalloc.start()
    try:
        curvature._connection_sum(s, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_near_singular_stratum_raises():
    # A degree-one loop with nearly vanishing harmonics sits next to the
    # point-loop stratum; the constraint Gram matrix degenerates.
    eps = 1e-8
    v = np.array([math.sqrt(1.0 - eps**2), 0.0, 0.0])
    n = trigpoly.trig_poly(
        v, a=np.array([[0.0, eps, 0.0]]), b=np.array([[0.0, 0.0, eps]])
    )
    with pytest.raises(curvature.NearSingularStratumError, match="condition"):
        curvature.CurvatureContext(n)


def test_besse_matches_fiber_closed_form():
    # The whole bracket matrix: diagonal, with the closed form on its diagonal.
    for k in range(2, 7):
        for t in np.arange(1, 10) / 10:
            rep = curvature.besse_ricci(k, t)
            matrix = rep["matrix"]
            assert np.max(np.abs(matrix - np.diag(np.diag(matrix)))) <= 1e-12, (k, t)
            closed = curvature.fiber_ricci_closed(k, t)
            expected = [closed[label] for label in rep["labels"]]
            assert np.max(np.abs(np.diag(matrix) - expected)) <= 1e-12, (k, t)


def test_fiber_ricci_nonnegative_k3():
    for t in (0.1, 0.5, 0.9):
        vals = curvature.fiber_ricci_closed(3, t)
        for label in ("va", "vb", "ab"):
            assert vals[label] > 0.0, (t, label)
        assert all(v >= 0.0 for v in vals.values())


def test_leung_bound_branches():
    assert curvature.leung_bound(scalar=10.0, mean_sq=1.0, dim=4) is None
    val = curvature.leung_bound(scalar=1.0, mean_sq=10.0, dim=4)
    assert val is not None and np.isfinite(val)
    with pytest.raises(ValueError, match="dimension"):
        curvature.leung_bound(1.0, 1.0, 1)
