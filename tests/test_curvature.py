import math

import numpy as np
import pytest

from loopsphere import curvature, manifold, numerics, trigpoly
from loopsphere.cli import random_loop
from loopsphere.prng import SplitMix64
from test_manifold import random_frame


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
            back = curvature.unflatten_vec(flat, deg, d)
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
        phi = curvature.scalar_basis_element(i, 2 * degree)
        for col in range(nn):
            e = np.zeros(nn)
            e[col] = 1.0
            x = curvature.unflatten_vec(e, degree, ambient_dim)
            image = trigpoly.project(trigpoly.scalar_mul(x, phi), degree)
            hess[i, :, col] = 2.0 * curvature.flatten_vec(image, degree)
    return hess


def test_batched_hessians_match_per_direction_assembly_bitwise():
    for degree in range(8):
        for d in (3, 4, 5, 7):
            expected = _per_direction_hessians(degree, d)
            got = curvature._hessians(degree, d)
            assert np.array_equal(got, expected), (degree, d)
    # One ulp off in a single entry is a mismatch.
    got[3, 5, 7] = np.nextafter(got[3, 5, 7], np.inf)
    assert not np.array_equal(got, expected)


def test_ricci_min_matches_jacobi_oracle():
    for k, degree, seed in ((2, 2, 3), (3, 2, 4), (4, 1, 8)):
        rep = curvature.scalar_and_mean(random_loop(k, degree, 1.0, seed))
        w, _ = numerics.eig_symmetric(rep.ricci_matrix)
        scale = max(1.0, float(np.max(np.abs(w))))
        assert abs(rep.ricci_min - w[0]) <= 1e-12 * scale, (k, degree, seed)


def test_ricci_and_tangent_trace_match_einsum_contractions():
    # The contractions written as the einsums they replaced.
    loops = [(k, degree, seed) for k in (2, 3, 4) for degree in (1, 2, 3, 4) for seed in (0, 1, 2)]
    loops += [(3, 5, 0), (2, 3, 6), (3, 3, 9)]  # the D2 loops
    checked = 0
    for k, degree, seed in loops:
        try:
            ctx = curvature.CurvatureContext(random_loop(k, degree, 1.0, seed))
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
    phi = curvature.scalar_basis_element(3, 2 * n.degree)
    grad = curvature.grad_f(n, phi)
    rng = SplitMix64(32)
    for _ in range(4):
        x = trigpoly.TrigPolyVec(
            v=np.array(rng.gauss_vector(3)),
            a=np.array([rng.gauss_vector(3) for _ in range(n.degree)]),
            b=np.array([rng.gauss_vector(3) for _ in range(n.degree)]),
        )
        eps = 1e-6
        plus = trigpoly.add(n, trigpoly.scale(x, eps))
        minus = trigpoly.add(n, trigpoly.scale(x, -eps))
        f_plus = trigpoly.scalar_l2_inner(trigpoly.pointwise_dot(plus, plus), phi)
        f_minus = trigpoly.scalar_l2_inner(trigpoly.pointwise_dot(minus, minus), phi)
        directional = (f_plus - f_minus) / (2.0 * eps)
        assert directional == pytest.approx(trigpoly.l2_inner(grad, x), abs=1e-8)
    with pytest.raises(ValueError, match="exceeds 2N"):
        curvature.grad_f(n, curvature.scalar_basis_element(2 * (2 * n.degree) + 1, 8))


def test_gram_green_inverse_pair():
    n = random_loop(3, 1, 1.0, seed=7)
    gram = curvature.gram_kernel(n).matrix
    green = curvature.green_kernel(n).matrix
    assert np.allclose(gram @ green, np.eye(gram.shape[0]), atol=1e-9)


def test_tangent_basis_orthonormal_and_tangential():
    n = random_loop(2, 1, 1.0, seed=13)
    basis = curvature.tangent_basis(n)
    m = len(basis.vectors)
    assert m == curvature.flat_dim(1, 3) - curvature.scalar_dim(2)
    assert np.allclose(basis.gram, np.eye(m), atol=1e-10)
    # Tangency: <n x, phi> = 0 for every tangent x and constraint phi.
    for x in basis.vectors[:3]:
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
    for k in (2, 3, 4):
        for t in (0.25, 0.5, 0.75):
            engine = curvature.besse_ricci(k, t)["diagonal"]
            closed = curvature.fiber_ricci_closed(k, t)
            for label, val in closed.items():
                assert engine[label] == pytest.approx(val, abs=1e-9), (k, t, label)


def test_fiber_ricci_nonnegative_k3():
    for t in (0.1, 0.5, 0.9):
        vals = curvature.fiber_ricci_closed(3, t)
        for label in ("va", "vb", "ab"):
            assert vals[label] > 0.0, (t, label)
        assert all(v >= 0.0 for v in vals.values())


def test_vertical_ricci_comparison_is_a_record():
    ratios = curvature.compare_vertical_ricci(3, 0.5)
    assert set(ratios) <= {"va", "vb", "ab", "vi", "ai", "bi"}
    # Ratios are finite where the reference Ricci is nonzero; the extra
    # directions at k = 3 have zero reference value, so no ratio is defined.
    for label in ("va", "vb", "ab"):
        assert np.isfinite(ratios[label]), label
    # The ratios differ across directions: the display is not Einstein.
    assert abs(ratios["va"] - ratios["ab"]) > 1e-6


def test_second_form_values():
    k, radius, t = 2, 1.0, 0.36
    rep = curvature.second_form(k, radius, t)
    f = 0.5 * radius * math.sqrt(t * (1 - t))
    assert rep.T["va"] == pytest.approx(f)
    assert rep.T["ab"] == pytest.approx(-2.0 * f)
    assert rep.trace == pytest.approx(4.0 * math.sqrt(t * (1 - t)) / (radius * (t + 1)))
    # CT = T g^{-1} T componentwise on the diagonal metric.
    block = manifold.metric_omega(t, manifold.ModelParams(k=k, R=radius))
    for label, tval in rep.T.items():
        g = block.scale * block.coefficients[label]
        assert rep.CT[label] == pytest.approx(tval**2 / g, rel=1e-12)


def test_tube_boundary_form_positive():
    n = random_loop(2, 2, 1.0, seed=29)
    x = trigpoly.TrigPolyVec(
        v=np.zeros(3),
        a=np.vstack([np.zeros((1, 3)), [[1.0, 2.0, 0.0]]]),
        b=np.vstack([np.zeros((1, 3)), [[0.0, 1.0, -1.0]]]),
    )
    coeff, h = curvature.tube_boundary_form(n, x, x)
    assert coeff > 0.0
    assert h.degree == n.degree


def test_leung_bound_branches():
    assert curvature.leung_bound(scalar=10.0, mean_sq=1.0, dim=4) is None
    val = curvature.leung_bound(scalar=1.0, mean_sq=10.0, dim=4)
    assert val is not None and np.isfinite(val)
    with pytest.raises(ValueError, match="dimension"):
        curvature.leung_bound(1.0, 1.0, 1)


def test_chen_bound_validation_and_positivity():
    val = curvature.chen_lower_bound(
        m=4, curvature_lower=1.0, mean_upper=0.5, alpha=0.5, rolling_radius=0.5,
        diameter=2.0,
    )
    assert val > 0.0
    with pytest.raises(ValueError, match="alpha"):
        curvature.chen_lower_bound(4, 1.0, 0.5, 1.5, 0.5, 2.0)
    with pytest.raises(ValueError, match="dimension"):
        curvature.chen_lower_bound(2, 1.0, 0.5, 0.5, 0.5, 2.0)


def test_meyer_bound_and_zero_limit():
    args = dict(n=4, excentricity=1.0, inradius=0.5, diameter=2.0)
    pos = curvature.meyer_lower_bound(ricci_lower=1.0, **args)
    assert pos > 0.0
    # The K -> 0^- limit of the negative branch equals the documented limit,
    # which is strictly below the K = 0 value (discontinuous join).
    limit = curvature.meyer_zero_limit(**args)
    near = curvature.meyer_lower_bound(ricci_lower=-1e-12, **args)
    assert near == pytest.approx(limit, rel=1e-5)
    assert limit < pos
