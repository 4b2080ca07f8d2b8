import numpy as np
import pytest

from loopsphere import angular


def comm(a, b):
    return a @ b - b @ a


def test_ladder_matrices_spin_half_and_one():
    jz, jp, jm = angular.ladder_matrices(2)
    assert np.allclose(jz, np.diag([0.5, -0.5]))
    assert np.allclose(comm(jp, jm), 2.0 * jz, atol=1e-14)
    jz, jp, jm = angular.ladder_matrices(3)
    assert np.allclose(jz, np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(comm(jz, jp), jp, atol=1e-14)
    with pytest.raises(ValueError):
        angular.ladder_matrices(0)


def test_su2_structure_constants():
    for dim in (2, 3, 4, 5):
        u1, u2, u3 = angular.su2_generators(dim)
        assert np.allclose(comm(u1, u2), u3, atol=1e-13)
        assert np.allclose(comm(u2, u3), u1, atol=1e-13)
        assert np.allclose(comm(u3, u1), u2, atol=1e-13)
        # Anti-hermitian images of a real form.
        for u in (u1, u2, u3):
            assert np.allclose(u + u.conj().T, 0.0, atol=1e-13)


def test_casimir_scalar_k2():
    assert angular.casimir_scalar_k2(0) == 0.0
    assert angular.casimir_scalar_k2(1) == -1.0
    assert angular.casimir_scalar_k2(2) == pytest.approx(-10.0 / 3.0)
    with pytest.raises(ValueError):
        angular.casimir_scalar_k2(-1)


def test_k2_matrix_matches_closed_form():
    for l in (0, 1, 2, 3):
        for t in (0.25, 0.5, 0.75):
            mat = angular.h_omega_matrix_k2(l, t, radius=1.0)
            numeric = np.sort(np.linalg.eigvalsh(mat))
            closed = np.sort(
                [
                    angular.angular_eigenvalue_k2(l, s, t, 1.0)
                    for s in range(-l, l + 1)
                ]
            )
            assert np.allclose(numeric, closed, atol=1e-12)


def test_k2_spectrum_multiplicities():
    levels = angular.angular_spectrum_k2(2, 0.3, 1.0)
    assert sum(mult for _, mult in levels) == 5
    with pytest.raises(ValueError, match="exceeds"):
        angular.angular_eigenvalue_k2(1, 2, 0.3, 1.0)
    with pytest.raises(ValueError, match="t must lie"):
        angular.angular_eigenvalue_k2(1, 0, 1.5, 1.0)


def test_k2_labels_above_the_bound_are_refused():
    top = angular.K2_L_MAX
    levels = angular.angular_spectrum_k2(top, 0.5, 1.0)
    assert sum(mult for _, mult in levels) == 2 * top + 1
    for l in (top + 1, 10**12):
        for build in (angular.angular_spectrum_k2, angular.h_omega_matrix_k2):
            with pytest.raises(ValueError, match=f"at most {top} "):
                build(l, 0.5, 1.0)


def test_so4_structure_constants_match_defining_rep():
    # The representation images must satisfy the same commutators as the
    # defining matrices L_ij = E_ij - E_ji.
    def lmat(p, q):
        m = np.zeros((4, 4))
        m[p, q] = 1.0
        m[q, p] = -1.0
        return m

    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    defining = {pq: lmat(*pq) for pq in pairs}
    rho = angular.so4_rep_generators(1, 1)
    for pq1 in pairs:
        for pq2 in pairs:
            target = comm(defining[pq1], defining[pq2])
            coeffs = {pq: target[pq] for pq in pairs}
            expected = sum(c * rho[pq] for pq, c in coeffs.items())
            got = comm(rho[pq1], rho[pq2])
            assert np.allclose(got, expected, atol=1e-12), (pq1, pq2)


def test_k3_operator_hermitian_and_matches_closed_forms():
    for t in (0.25, 0.5, 0.75):
        spec11 = angular.angular_spectrum_k3(1, 1, t)
        assert np.allclose(spec11, angular.closed_form_k3_11(t), atol=1e-11)
        spec31 = angular.angular_spectrum_k3(3, 1, t)
        assert np.allclose(spec31, angular.closed_form_k3_31(t), atol=1e-10)


def test_k3_radical_pair_is_genuinely_irrational():
    # The (3,1) display contains a conjugate radical pair; check it is not a
    # rational-eigenvalue coincidence at a generic t.
    t = 0.37
    vals = angular.closed_form_k3_31(t)
    assert len(np.unique(np.round(vals, 9))) == 5


def test_gelbart_multiplicity():
    assert angular.gelbart_multiplicity(0, 0, 0) == 1
    assert angular.gelbart_multiplicity(1, 1, 1) == 1
    assert angular.gelbart_multiplicity(2, 1, 0) == 8
    assert angular.gelbart_multiplicity(3, 1, 0) == 15
    with pytest.raises(ValueError, match="m1 >= m2 >= m3"):
        angular.gelbart_multiplicity(1, 2, 0)
