import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from loopsphere import resolution, trigpoly
from loopsphere.prng import SplitMix64


def random_poly(rng, degree, dim):
    v = np.array(rng.gauss_vector(dim))
    a = np.array([rng.gauss_vector(dim) for _ in range(degree)]).reshape(degree, dim)
    b = np.array([rng.gauss_vector(dim) for _ in range(degree)]).reshape(degree, dim)
    return trigpoly.TrigPolyVec(v=v, a=a, b=b)


def test_eval_matches_definition():
    rng = SplitMix64(1)
    n = random_poly(rng, 3, 4)
    theta = 0.7
    direct = n.v.copy()
    for s in range(1, 4):
        direct = direct + n.a[s - 1] * np.cos(s * theta) + n.b[s - 1] * np.sin(s * theta)
    assert np.allclose(n.eval(theta), direct, atol=1e-14)


def test_pointwise_dot_exact():
    rng = SplitMix64(2)
    m = random_poly(rng, 2, 3)
    n = random_poly(rng, 3, 3)
    phi = trigpoly.pointwise_dot(m, n)
    thetas = np.linspace(0.0, 2 * np.pi, 23, endpoint=False)
    lhs = phi.eval(thetas)[:, 0]
    rhs = np.einsum("td,td->t", m.eval(thetas), n.eval(thetas))
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert phi.degree <= m.degree + n.degree


def test_scalar_mul_exact():
    rng = SplitMix64(3)
    n = random_poly(rng, 2, 3)
    phi = trigpoly.TrigPolyVec(v=np.array([0.5]), a=np.array([[1.0], [-0.3]]),
                               b=np.array([[0.2], [0.7]]))
    prod = trigpoly.scalar_mul(n, phi)
    thetas = np.linspace(0.0, 2 * np.pi, 31, endpoint=False)
    assert np.allclose(prod.eval(thetas), phi.eval(thetas) * n.eval(thetas), atol=1e-12)


def test_scalar_mul_refuses_a_factor_outside_r1():
    rng = SplitMix64(3)
    n = random_poly(rng, 2, 3)
    with pytest.raises(ValueError, match="R\\^1"):
        trigpoly.scalar_mul(n, random_poly(rng, 1, 3))


def test_exponential_roundtrip():
    rng = SplitMix64(4)
    n = random_poly(rng, 4, 5)
    back = trigpoly.from_exponential(trigpoly._exponential(n.v, n.a, n.b))
    assert np.allclose(back.v, n.v, atol=1e-15)
    assert np.allclose(back.a, n.a, atol=1e-15)
    assert np.allclose(back.b, n.b, atol=1e-15)


def test_l2_inner_is_circle_average():
    rng = SplitMix64(5)
    m = random_poly(rng, 2, 3)
    n = random_poly(rng, 3, 3)
    thetas = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    avg = float(np.mean(np.einsum("td,td->t", m.eval(thetas), n.eval(thetas))))
    assert abs(trigpoly.l2_inner(m, n) - avg) < 1e-10


def test_projection_idempotent_exact():
    rng = SplitMix64(6)
    n = random_poly(rng, 4, 3)
    for order in range(5):
        once = trigpoly.project(n, order)
        twice = trigpoly.project(once, order)
        assert np.array_equal(once.v, twice.v)
        assert np.array_equal(once.a, twice.a)
        assert np.array_equal(once.b, twice.b)
        assert once.degree <= order


def test_projection_is_orthogonal():
    rng = SplitMix64(7)
    n = random_poly(rng, 4, 3)
    m = random_poly(rng, 2, 3)
    # <P n, m> = <n, P m> for the truncation P at the lower degree.
    pn = trigpoly.project(n, 2)
    assert abs(trigpoly.l2_inner(pn, m) - trigpoly.l2_inner(n, trigpoly.project(m, 2))) < 1e-13


def test_constraint_residual_zero_on_circle():
    # Great circle in the x-y plane of R^3.
    n = trigpoly.trig_poly(
        np.zeros(3),
        a=np.array([[2.0, 0.0, 0.0]]),
        b=np.array([[0.0, 2.0, 0.0]]),
    )
    assert trigpoly.sphere_residual(n, 2.0)[0] < 1e-14


def sphere_loop(rng, degree, dim, radius):
    """A point of the sphere of the given radius turned by `degree` random plane rotations."""
    base = np.array(rng.gauss_vector(dim))
    n = trigpoly.trig_poly(base * (radius / np.linalg.norm(base)))
    for _ in range(degree):
        a, b = np.linalg.qr(np.array([rng.gauss_vector(dim), rng.gauss_vector(dim)]).T)[0].T
        n = resolution.apply_rotation(resolution.rotation_from_basis(a, b), n)
    return n


def max_coefficient_of_square_minus_r2(n, radius):
    """The largest |coefficient| of n.n - radius^2, from its constant, cosine and sine terms."""
    c = trigpoly._exponential(n.v, n.a, n.b)
    c = trigpoly._convolve(c, c).sum(axis=-1)
    order = 2 * n.degree
    c0 = float(c[order].real) - radius**2
    cos_coeffs, sin_coeffs = 2.0 * c[order + 1 :].real, -2.0 * c[order + 1 :].imag
    vals = [abs(c0)]
    if order:
        vals.append(np.max(np.abs(cos_coeffs)))
        vals.append(np.max(np.abs(sin_coeffs)))
    return max(vals)


@pytest.mark.parametrize("radius", [1.1, 0.37, 3e5])
def test_sphere_residual_is_the_max_coefficient_formula_bitwise(radius):
    rng = SplitMix64(12)
    for k in range(1, 7):
        for degree in range(9):
            on = sphere_loop(rng, degree, k + 1, radius)
            off = trigpoly.scale(random_poly(rng, degree, k + 1), radius)
            for n in (on, off, trigpoly.scale(on, 1.0 + 7e-10)):
                expect = max_coefficient_of_square_minus_r2(n, radius)
                assert trigpoly.sphere_residual(n, radius) == (
                    expect, bool(expect <= trigpoly.SPHERE_RTOL * radius**2)), (k, degree)


def test_json_roundtrip():
    rng = SplitMix64(8)
    n = random_poly(rng, 3, 4)
    text = json.dumps(trigpoly.loop_to_dict(n, 1.5))
    back, radius = trigpoly.loop_from_json(text)
    assert radius == 1.5
    assert np.allclose(back.v, n.v)
    assert np.allclose(back.a, n.a)
    assert np.allclose(back.b, n.b)


@pytest.mark.parametrize(
    "mutation, field",
    [
        (lambda d: d.pop("v"), "loop record"),
        (lambda d: d.update(R=-1.0), "radius"),
        (lambda d: d.update(v=[1.0]), "constant term"),
        (lambda d: d.update(N=7), "harmonic stacks"),
        (lambda d: d.update(k=2.7), "k = 2.7 is not a nonnegative integer"),
        (lambda d: d.update(N=1.5), "N = 1.5 is not a nonnegative integer"),
        (lambda d: d.update(k=-1, N=0, v=[], a=[], b=[]), "k = -1 is not a nonnegative integer"),
    ],
)
def test_malformed_loop_errors_name_field(mutation, field):
    rng = SplitMix64(9)
    n = random_poly(rng, 2, 3)
    data = trigpoly.loop_to_dict(n, 1.0)
    mutation(data)
    with pytest.raises(trigpoly.LoopFormatError, match=field):
        trigpoly.loop_from_dict(data)


def test_trim_drops_negligible_top_harmonics():
    n = trigpoly.TrigPolyVec(
        v=np.array([1.0, 0.0]),
        a=np.array([[0.5, 0.0], [1e-18, 0.0]]),
        b=np.array([[0.0, 0.5], [0.0, 1e-18]]),
    )
    assert n.degree == 1


# Oracles: the loops the kernels replaced, kept to pin their rounding.  The
# frozen curvature and factorization results depend on it bit for bit.


def double_loop_convolution(c1, c2):
    order = (c1.shape[0] - 1) // 2 + (c2.shape[0] - 1) // 2
    out_shape = (2 * order + 1,) + np.broadcast_shapes(c1.shape[1:], c2.shape[1:])
    out = np.zeros(out_shape, dtype=complex)
    for i in range(c1.shape[0]):
        for j in range(c2.shape[0]):
            out[i + j] = out[i + j] + c1[i] * c2[j]
    return out


def three_tap_product(lam_zero, lam_plus, lam_minus, n):
    c = np.zeros((2 * n.degree + 1, n.ambient_dim), dtype=complex)
    c[n.degree] = n.v
    for s in range(1, n.degree + 1):
        cs = 0.5 * (n.a[s - 1] - 1j * n.b[s - 1])
        c[n.degree + s] = cs
        c[n.degree - s] = np.conj(cs)
    out = np.zeros((c.shape[0] + 2, n.ambient_dim), dtype=complex)
    for m in range(c.shape[0]):
        out[m + 1] += lam_zero @ c[m]
        out[m + 2] += lam_plus @ c[m]
        out[m] += lam_minus @ c[m]
    return trigpoly.from_exponential(out)


def assert_same_poly(got, expect):
    assert np.array_equal(got.v, expect.v)
    assert np.array_equal(got.a, expect.a)
    assert np.array_equal(got.b, expect.b)


# Shapes as the library forms them: a scalar series rides on a trailing axis
# of length one (scalar_mul) against loops in R^(k+1), k >= 2.  A product of
# two single numbers can take numpy's scalar path, which may round without
# the fused multiply-add of its array loop on some hosts.
@pytest.mark.parametrize("shape1, shape2", [
    ((1, 1), (1, 3)),
    ((3, 1), (5, 3)),
    ((5, 3), (3, 3)),
    ((1, 4), (7, 4)),
    ((7, 1), (5, 6)),
    ((13, 1), (7, 112)),  # _hessians(3, 4): 4N+1 scalar taps against 28 directions of R^4
], ids=str)
def test_convolve_matches_double_loop_bitwise(shape1, shape2):
    gen = np.random.default_rng(sum(shape1) + 7 * sum(shape2))
    c1 = gen.standard_normal(shape1) + 1j * gen.standard_normal(shape1)
    c2 = gen.standard_normal(shape2) + 1j * gen.standard_normal(shape2)
    assert np.array_equal(trigpoly._convolve(c1, c2), double_loop_convolution(c1, c2))


def test_matrix_mul_matches_three_tap_loop_bitwise():
    rng = SplitMix64(10)
    for dim, degree in itertools.product((3, 4, 5, 7), range(9)):
        n = random_poly(rng, degree, dim)
        a = np.array(rng.gauss_vector(dim))
        b = np.array(rng.gauss_vector(dim))
        a /= np.linalg.norm(a)
        b -= (a @ b) * a
        b /= np.linalg.norm(b)
        rot = resolution.rotation_from_basis(a, b)
        p = rot.projection
        for w in (rot.rotation, -rot.rotation):
            lam_plus = 0.5 * (p - 1j * w)
            expect = three_tap_product((np.eye(dim) - p).astype(complex), lam_plus,
                                       np.conj(lam_plus), n)
            assert_same_poly(trigpoly.matrix_mul(np.eye(dim) - p, p, w, n), expect)
        phi = resolution.orthogonal_loop_from_pair(a, b)
        half = 0.5 * (phi.A - 1j * phi.B)
        expect = three_tap_product(phi.V.astype(complex), half, np.conj(half), n)
        assert_same_poly(trigpoly.matrix_mul(phi.V, phi.A, phi.B, n), expect)


def exact_rotation_product(rot, n, inverse):
    """lambda n (lambda^{-1} n if inverse) in rational arithmetic from the float frame and loop.

    Returns the cosine and sine stacks {"cos": [v, a_1, ..., a_(N+1)],
    "sin": [0, b_1, ..., b_(N+1)]} of (I - P) n + cos(theta) P n +- sin(theta) W n.
    """
    u, v = ([Fraction(x) for x in w] for w in (rot.u, rot.v))
    sign = -1 if inverse else 1
    out = {kind: [[Fraction(0)] * n.ambient_dim for _ in range(n.degree + 2)]
           for kind in ("cos", "sin")}

    def add(kind, s, coef, vec):
        if kind == "cos" or s > 0:  # sin(0 theta) = 0
            out[kind][s] = [o + coef * x for o, x in zip(out[kind][s], vec)]

    rows = ([("cos", 0, n.v)] + [("cos", s, row) for s, row in enumerate(n.a, 1)]
            + [("sin", s, row) for s, row in enumerate(n.b, 1)])
    for kind, s, row in rows:
        x = [Fraction(e) for e in row]
        xu = sum(p * q for p, q in zip(u, x))
        xv = sum(p * q for p, q in zip(v, x))
        pn = [p * xu + q * xv for p, q in zip(u, v)]
        wn = [sign * (p * xv - q * xu) for p, q in zip(u, v)]
        add(kind, s, 1, [p - q for p, q in zip(x, pn)])
        half = Fraction(1, 2) if s else Fraction(1)
        # cos(theta) times cos(s theta) or sin(s theta): half each at s + 1 and s - 1.
        add(kind, s + 1, half, pn)
        if s:
            add(kind, s - 1, half, pn)
        # sin(theta) cos(s theta) = (sin((s+1) theta) - sin((s-1) theta)) / 2 and
        # sin(theta) sin(s theta) = (cos((s-1) theta) - cos((s+1) theta)) / 2.
        if kind == "cos":
            add("sin", s + 1, half, wn)
            if s:
                add("sin", s - 1, -half, wn)
        else:
            add("cos", s - 1, half, wn)
            add("cos", s + 1, -half, wn)
    return out


def distance_to_exact(got, exact):
    """Largest |got - exact| over every coefficient, with got's trimmed harmonics as zeros."""
    worst = Fraction(0)
    for kind, stack in (("cos", got.a), ("sin", got.b)):
        for s, row in enumerate(exact[kind]):
            if s == 0:
                have = got.v if kind == "cos" else np.zeros(got.ambient_dim)
            else:
                have = stack[s - 1] if s <= got.degree else np.zeros(got.ambient_dim)
            worst = max([worst] + [abs(Fraction(g) - e) for g, e in zip(have, row)])
    return float(worst)


def test_apply_rotation_matches_the_exact_rational_product():
    # lambda n from the same floats u, v and n, evaluated exactly.  Both the
    # frame shift and the matrix form measure at most 1.6 ulps of the largest
    # coefficient of n over these loops; the bar is 4.
    rng = SplitMix64(10)
    eps = np.finfo(float).eps
    for dim, degree in itertools.product((3, 4, 5, 7), range(9)):
        n = random_poly(rng, degree, dim)
        a = np.array(rng.gauss_vector(dim))
        b = np.array(rng.gauss_vector(dim))
        a /= np.linalg.norm(a)
        b -= (a @ b) * a
        b /= np.linalg.norm(b)
        rot = resolution.rotation_from_basis(a, b)
        bar = 4 * eps * max(np.abs(n.v).max(), np.abs(n.a).max(initial=0.0),
                            np.abs(n.b).max(initial=0.0))
        p = rot.projection
        for inverse, w in ((False, rot.rotation), (True, -rot.rotation)):
            exact = exact_rotation_product(rot, n, inverse)
            got = resolution.apply_rotation(rot, n, inverse=inverse)
            assert distance_to_exact(got, exact) <= bar, (dim, degree, inverse)
            # The matrix form, (I - P) + P cos + W sin through matrix_mul, meets the bar too.
            matrix = trigpoly.matrix_mul(np.eye(dim) - p, p, w, n)
            assert distance_to_exact(matrix, exact) <= bar, (dim, degree, inverse)


def linalg_norm_trimmed_degree(v, a, b):
    """The harmonic trim of TrigPolyVec with the norms np.linalg.norm forms."""
    norm = np.sqrt(v @ v + 0.5 * (np.sum(a * a) + np.sum(b * b)))
    cutoff = trigpoly.TRIM_RTOL * max(norm, 1e-300)
    deg = a.shape[0]
    while deg > 0 and np.linalg.norm(a[deg - 1]) + np.linalg.norm(b[deg - 1]) <= cutoff:
        deg -= 1
    return deg


@pytest.mark.parametrize("dim", [2, 3, 5, 7])
def test_trim_cutoff_matches_the_linalg_norm_formula_at_the_boundary(dim):
    # Top harmonics in general directions whose norms sum to the cutoff, and
    # to a few ulps below and above it, trim as np.linalg.norm's norms do.
    rng = SplitMix64(40 + dim)
    kept = set()
    for degree in range(1, 5):
        v = np.array(rng.gauss_vector(dim))
        a = np.array([rng.gauss_vector(dim) for _ in range(degree)])
        b = np.array([rng.gauss_vector(dim) for _ in range(degree)])
        a[-1] /= np.linalg.norm(a[-1])
        b[-1] /= np.linalg.norm(b[-1])
        body = np.sqrt(v @ v + 0.5 * (np.sum(a[:-1] ** 2) + np.sum(b[:-1] ** 2)))
        at_cutoff = 0.5 * trigpoly.TRIM_RTOL * body
        for ulps in range(-4, 5):
            top = at_cutoff * (1.0 + ulps * np.finfo(float).eps)
            a_top, b_top = a.copy(), b.copy()
            a_top[-1] *= top
            b_top[-1] *= top
            expect = linalg_norm_trimmed_degree(v, a_top, b_top)
            assert trigpoly.TrigPolyVec(v=v, a=a_top, b=b_top).degree == expect
            kept.add(expect == degree)
    assert kept == {True, False}  # the ulps straddle the cutoff
