import json
import re

import numpy as np
import pytest

from loopsphere import resolution, trigpoly
from loopsphere.cli import random_loop
from loopsphere.prng import SplitMix64


def random_pair(rng, dim):
    a = np.array(rng.gauss_vector(dim))
    b = np.array(rng.gauss_vector(dim))
    a /= np.linalg.norm(a)
    b -= (a @ b) * a
    b /= np.linalg.norm(b)
    return a, b


def rotation_matrix(rot, theta):
    """The orthogonal matrix lambda(theta) = (I - P) + P cos(theta) + W sin(theta)."""
    p, w = rot.projection, rot.rotation
    return p * np.cos(theta) + w * np.sin(theta) + (np.eye(rot.u.shape[0]) - p)


def orthogonal_loop_matrix(phi, theta):
    """The matrix V + A cos(theta) + B sin(theta) of a degree-one orthogonal loop."""
    return phi.V + phi.A * np.cos(theta) + phi.B * np.sin(theta)


def test_plane_rotation_validation():
    with pytest.raises(ValueError, match="orthogonal with equal lengths"):
        resolution.rotation_from_basis(np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="nonzero"):
        resolution.rotation_from_basis(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    rng = SplitMix64(21)
    a, b = random_pair(rng, 4)
    rot = resolution.rotation_from_basis(a, b)
    # Defining identities.
    p, w = rot.projection, rot.rotation
    assert np.allclose(w @ w, -p, atol=1e-12)
    assert np.allclose(p @ w, w, atol=1e-12)
    assert np.allclose(w @ b, a, atol=1e-12)
    assert np.allclose(w @ a, -b, atol=1e-12)
    # lambda(theta) is orthogonal for every theta.
    for theta in (0.0, 0.4, 2.2):
        m = rotation_matrix(rot, theta)
        assert np.allclose(m @ m.T, np.eye(4), atol=1e-12)


def test_apply_rotation_matches_pointwise_product():
    rng = SplitMix64(22)
    n = random_loop(3, 2, 1.0, seed=5)
    a, b = random_pair(rng, 4)
    rot = resolution.rotation_from_basis(a, b)
    out = resolution.apply_rotation(rot, n)
    thetas = np.linspace(0.0, 2 * np.pi, 17, endpoint=False)
    expected = np.array([rotation_matrix(rot, th) @ n.eval(th) for th in thetas])
    assert np.allclose(out.eval(thetas), expected, atol=1e-12)
    # Inverse application undoes it.
    back = resolution.apply_rotation(rot, out, inverse=True)
    assert np.allclose(back.eval(thetas), n.eval(thetas), atol=1e-12)


def test_peel_lowers_degree_by_one():
    n = random_loop(2, 3, 1.0, seed=9)
    factor, lowered = resolution.peel(n)
    assert lowered.degree == n.degree - 1
    rebuilt = resolution.apply_rotation(factor, lowered)
    thetas = np.linspace(0.0, 2 * np.pi, 25, endpoint=False)
    assert np.allclose(rebuilt.eval(thetas), n.eval(thetas), atol=1e-11)


def test_peel_errors():
    const = trigpoly.trig_poly(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(resolution.PeelError, match="constant"):
        resolution.peel(const)


def test_factorize_compose_roundtrip():
    thetas = np.linspace(0.0, 2 * np.pi, 41, endpoint=False)
    for seed in range(10):
        n = random_loop(3, 3, 1.0, seed=seed)
        fact = resolution.factorize(n, 1.0)
        assert len(fact.rotations) == n.degree
        back = resolution.compose(fact)
        assert np.max(np.abs(back.eval(thetas) - n.eval(thetas))) < 1e-11


def test_factorize_rejects_off_sphere_loops():
    n = trigpoly.trig_poly(np.array([1.0, 0.0, 0.0]), a=np.array([[0.3, 0.0, 0.0]]),
                           b=np.array([[0.0, 0.3, 0.0]]))
    with pytest.raises(ValueError, match="does not map into the sphere"):
        resolution.factorize(n, 1.0)


def test_repeel_determinism():
    n = random_loop(2, 4, 1.0, seed=17)
    f1 = resolution.factorize(n, 1.0)
    f2 = resolution.factorize(n, 1.0)
    assert np.array_equal(f1.base, f2.base)
    for r1, r2 in zip(f1.rotations, f2.rotations):
        assert np.array_equal(r1.projection, r2.projection)
        assert np.array_equal(r1.rotation, r2.rotation)


def test_is_singular_rotation_both_ways():
    rng = SplitMix64(23)
    n = random_loop(3, 2, 1.0, seed=31)
    # The inverse of the peeling factor lowers the degree: singular.
    factor, _ = resolution.peel(n)
    lowering = factor.inverse()
    assert resolution.is_singular_rotation(lowering, n)
    assert resolution.apply_rotation(lowering, n).degree <= n.degree
    # A generic rotation raises the degree: not singular.
    a, b = random_pair(rng, 4)
    generic = resolution.rotation_from_basis(a, b)
    assert not resolution.is_singular_rotation(generic, n)
    assert resolution.apply_rotation(generic, n).degree == n.degree + 1


def test_orthogonal_loop_identities_and_degree_lowering():
    rng = SplitMix64(24)
    a, b = random_pair(rng, 4)
    phi = resolution.orthogonal_loop_from_pair(a, b)
    for theta in (0.1, 1.0, 3.0):
        m = orthogonal_loop_matrix(phi, theta)
        assert np.allclose(m @ m.T, np.eye(4), atol=1e-12)
    n = random_loop(3, 2, 1.0, seed=12)
    rep = resolution.compare_peel_mechanisms(n)
    assert rep["peel_degree"] == rep["input_degree"] - 1
    assert rep["orthogonal_loop_degree"] == rep["input_degree"] - 1
    assert rep["same_norm"]


def test_rotations_json_roundtrip():
    n = random_loop(2, 2, 1.0, seed=3)
    fact = resolution.factorize(n, 1.0)
    data = resolution.rotations_to_dict(fact)
    back = resolution.rotations_from_dict(data)
    assert np.array_equal(back.base, fact.base)
    assert back.radius == fact.radius
    thetas = np.linspace(0.0, 2 * np.pi, 19, endpoint=False)
    assert np.allclose(
        resolution.compose(back).eval(thetas), n.eval(thetas), atol=1e-11
    )
    data["base"] = [1.0]
    with pytest.raises(trigpoly.LoopFormatError, match="base point"):
        resolution.rotations_from_dict(data)


def reference_plane(a, b):
    """P and W of the pair (a, b) by the outer-product formulas of the matrix form."""
    u = a / np.linalg.norm(a)
    v = b - (u @ b) * u
    v /= np.linalg.norm(v)
    return np.outer(u, u) + np.outer(v, v), np.outer(u, v) - np.outer(v, u)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_frame_rotations_equal_the_matrix_formulas_bitwise():
    for k in (2, 3, 4, 6):
        for degree in range(9):
            for seed in range(12):
                n = random_loop(k, degree, 1.0, seed)
                current, factors = n, []
                try:
                    while current.degree >= 1:
                        a, b = resolution.top_harmonic_basis(current)
                        factor, current = resolution.peel(current)
                        p, w = reference_plane(b, a)
                        assert same_bits(factor.projection, p), (k, degree, seed)
                        assert same_bits(factor.rotation, w), (k, degree, seed)
                        inverse = factor.inverse()
                        assert same_bits(inverse.projection, p)
                        # Equal as numbers: a zero of W is +0.0 on both sides.
                        assert np.array_equal(inverse.rotation, -w)
                        factors.append(factor)
                except ValueError:
                    continue  # a top pair past rotation_from_basis's gate (k3-N6-s9)
                fact = resolution.Factorization(rotations=tuple(factors), base=current.v,
                                                radius=1.0)
                data = json.loads(json.dumps(resolution.rotations_to_dict(fact)))
                assert [sorted(rot) for rot in data["rotations"]] == [["u", "v"]] * n.degree
                assert all(len(rot["u"]) == len(rot["v"]) == k + 1 for rot in data["rotations"])
                back = resolution.compose(resolution.rotations_from_dict(data))
                direct = resolution.compose(fact)
                for x, y in ((back.v, direct.v), (back.a, direct.a), (back.b, direct.b)):
                    assert same_bits(x, y), (k, degree, seed)


# The matrix form that applied and composed rotations before the frame shift:
# (I - P) + P cos + W sin through trigpoly.matrix_mul, one TrigPolyVec per rotation.


def matrix_apply(rot, n, inverse=False):
    p = rot.projection
    w = -rot.rotation if inverse else rot.rotation
    return trigpoly.matrix_mul(np.eye(n.ambient_dim) - p, p, w, n)


def matrix_compose(factorization):
    n = trigpoly.trig_poly(factorization.base)
    for rot in reversed(factorization.rotations):
        n = matrix_apply(rot, n)
    return n


def matrix_factorize(n, radius):
    """resolution.factorize with each peel applied in the matrix form."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "apply_rotation", matrix_apply)
        return resolution.factorize(n, radius)


def matrix_random_loop(k, degree, radius, seed):
    """random_loop's draws composed in the matrix form, bit for bit the loops it drew so."""
    rng = SplitMix64(seed)
    base = np.array(rng.gauss_vector(k + 1))
    base *= radius / np.linalg.norm(base)
    rotations = [resolution.rotation_from_basis(*random_pair(rng, k + 1)) for _ in range(degree)]
    return matrix_compose(resolution.Factorization(
        rotations=tuple(reversed(rotations)), base=base, radius=float(radius)))


def coefficient_distance(m, n):
    assert m.degree == n.degree
    return max(np.abs(m.v - n.v).max(), np.abs(m.a - n.a).max(initial=0.0),
               np.abs(m.b - n.b).max(initial=0.0))


def test_frame_shift_matches_the_matrix_form_over_the_sweep():
    refused, matrix_refused = set(), set()
    for k in (2, 3, 4, 6):
        for degree in range(9):
            for seed in range(12):
                n = random_loop(k, degree, 1.0, seed)
                m = matrix_random_loop(k, degree, 1.0, seed)
                assert coefficient_distance(n, m) <= 1e-14, (k, degree, seed)
                try:
                    matrix_factorize(m, 1.0)
                except ValueError:
                    matrix_refused.add((k, degree, seed))
                try:
                    fact = resolution.factorize(n, 1.0)
                except ValueError:
                    refused.add((k, degree, seed))
                    continue
                back = resolution.compose(fact)
                assert coefficient_distance(back, matrix_compose(fact)) <= 1e-14, (k, degree, seed)
                assert coefficient_distance(back, n) <= 1e-10, (k, degree, seed)
    # D1: the peel's top-pair error is roundoff amplified by small top
    # harmonics, so an ulp moves a loop near the 1e-10 gate across it.  The
    # largest gate ratio of k3-N5-s9 goes from 1.09 to 0.44 and of k3-N8-s8
    # from 0.08 to 2.6; over the sweep the two peels' ratios agree in the mean.
    assert len(refused) == 17
    assert refused ^ matrix_refused == {(3, 5, 9), (3, 8, 8)}


E0, E1 = [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("frame, message", [
    ({"u": [1.0 + 1e-8, 0.0, 0.0, 0.0], "v": E1}, "invalid plane rotation: |u|^2 = 1 fails"),
    ({"u": E0, "v": [0.0, 1.0 - 1e-8, 0.0, 0.0]}, "invalid plane rotation: |v|^2 = 1 fails"),
    ({"u": E0, "v": [1e-8, 1.0, 0.0, 0.0]}, "invalid plane rotation: u.v = 0 fails"),
    ({"u": E0, "v": E1[:3]}, "rotation frames must be vectors of length k + 1 = 4"),
    ({"u": E0[:3], "v": E1[:3]}, "rotation frames must be vectors of length k + 1 = 4"),
    ({"P": np.eye(4).tolist(), "W": np.zeros((4, 4)).tolist()},
     "malformed rotations record: 'u'"),
], ids=["|u|", "|v|", "u.v", "unequal lengths", "length not k+1", "P/W record"])
def test_rotations_records_refuse_a_frame_by_name(frame, message):
    data = {"k": 3, "R": 1.0, "base": E0, "rotations": [{"u": E0, "v": E1}]}
    assert len(resolution.rotations_from_dict(data).rotations) == 1
    data["rotations"].append(frame)
    with pytest.raises(trigpoly.LoopFormatError, match=re.escape(message)):
        resolution.rotations_from_dict(data)


def test_plane_rotation_refuses_a_frame_by_name():
    e0, e1 = np.array(E0), np.array(E1)
    for u, v, message in ((e0, e1[:3], "frame shapes (4,), (3,) unequal or not 1-D"),
                          (np.eye(4), np.eye(4), "frame shapes (4, 4), (4, 4) unequal or not 1-D"),
                          (np.array([np.nan, 0.0, 0.0, 0.0]), e1, "entries must be finite"),
                          (e0, np.array([0.0, np.inf, 0.0, 0.0]), "entries must be finite"),
                          (e0, e0, "u.v = 0 fails with error 1.000e+00")):
        with pytest.raises(ValueError, match=re.escape(message)):
            resolution.PlaneRotation(u=u, v=v)
    rot = resolution.PlaneRotation(u=e0, v=e1)
    assert np.array_equal(rot.rotation @ e1, e0) and np.array_equal(rot.rotation @ e0, -e1)


def test_peel_frames_do_not_build_up_roundoff():
    # Each plane rotation is built from an orthonormal frame of its pair, so P
    # is a projection to roundoff and the peel error does not grow from one
    # degree to the next: these loops round-trip through the JSON record.
    for k, degree, seed in ((2, 7, 3), (2, 4, 2)):
        n = random_loop(k, degree, 1.0, seed=seed)
        data = json.loads(json.dumps(resolution.rotations_to_dict(resolution.factorize(n, 1.0))))
        back = resolution.compose(resolution.rotations_from_dict(data))
        thetas = np.linspace(0.0, 2 * np.pi, 4 * degree + 5, endpoint=False)
        assert np.max(np.abs(back.eval(thetas) - n.eval(thetas))) < 1e-11, (k, degree, seed)
    # Top harmonics of 1e-4 to 2e-4 R still carry a peel error past the 1e-10 gate.
    for k, degree, seed in ((3, 6, 9), (4, 8, 3)):
        with pytest.raises(ValueError, match="orthogonal with equal lengths"):
            resolution.factorize(random_loop(k, degree, 1.0, seed=seed), 1.0)
