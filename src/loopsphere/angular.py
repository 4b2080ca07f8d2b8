"""Angular (Stiefel-fiber) spectra of the fiber Laplacian.

The angular part of the Hamiltonian acts on functions of the orthonormal
3-frame and block-diagonalizes over irreducible representations of the
rotation group of R^{k+1}.

k = 2 (frames = rotations of R^3): on the (2l+1)-dimensional representation
W_{2l} the operator is

    H_Omega = -(4 / (R^2 (1+t))) Delta - (2(3t-1) / (R^2 (1-t^2))) L_ab^2,

where Delta acts by the scalar -l(2l+1)/3 and L_ab^2 (square of the
generator rotating the a-b legs) has eigenvalues -s^2/2 for weight s,
|s| <= l.  The eigenvalues are

    4 l (2l+1) / (3 R^2 (1+t)) + s^2 (3t-1) / (R^2 (1-t^2)).

k = 3 (frames in R^4): so(4) splits into two commuting su(2) factors; the
operator on the representation W_l (x) W_m is built explicitly as

    (1/2) sum_{pairs} c_pair(t) rho(L_pair)^2,

with L_pair = E_ij - E_ji and c_pair = 1/g_pair the inverse of the frame
metric coefficient that `manifold.metric_omega` gives the pair.  Closed-form
spectra are provided for W_1 (x) W_1 and W_3 (x) W_1 and are matched by the
matrix construction.

Weight multiplicities for branching along the flag of subgroups are given by
the Gelbart dimension formula.
"""

import math

import numpy as np

from . import manifold, numerics

# ---------------------------------------------------------------------------
# su(2) ladder operators
# ---------------------------------------------------------------------------


def ladder_matrices(dim):
    """(jz, jplus, jminus) for the spin-(dim-1)/2 representation.

    Basis ordered by descending weight m = j, j-1, ..., -j with
    jplus |j m> = sqrt(j(j+1) - m(m+1)) |j m+1>.
    """
    if dim < 1:
        raise ValueError("representation dimension must be >= 1")
    j = (dim - 1) / 2.0
    ms = np.array([j - i for i in range(dim)])
    jz = np.diag(ms)
    jp = np.zeros((dim, dim))
    for i in range(1, dim):
        m = ms[i]
        jp[i - 1, i] = math.sqrt(j * (j + 1) - m * (m + 1))
    return jz, jp, jp.T


def su2_generators(dim):
    """Real-Lie-algebra images U_1, U_2, U_3 with [U_i, U_j] = eps_ijk U_k."""
    jz, jp, jm = ladder_matrices(dim)
    sx = 0.5 * (jp + jm)
    sy = -0.5j * (jp - jm)
    return (-1j * sx, -1j * sy, -1j * jz)


# ---------------------------------------------------------------------------
# k = 2: rotations of R^3
# ---------------------------------------------------------------------------


# Largest label l of a k = 2 representation W_{2l}, sized as K3_DIM_MAX: the
# dense (2l+1)-square operator of h_omega_matrix_k2 peaks at 0.17 GB and takes
# 0.5 s at 1023, and angular_spectrum_k2 loops over the l+1 weights.
K2_L_MAX = 1023


def _check_label(l):
    if l < 0 or int(l) != l:
        raise ValueError(f"label l must be a nonnegative integer, got {l}")


def _check_k2_label(l):
    """A label whose W_{2l} is small enough to build or enumerate."""
    _check_label(l)
    if l > K2_L_MAX:
        raise ValueError(f"label l must be at most {K2_L_MAX} (W_{{2l}} of dimension at most "
                         f"{2 * K2_L_MAX + 1}), got {l}")


def casimir_scalar_k2(l):
    """Scalar by which the fiber Laplacian acts on the representation W_{2l}."""
    _check_label(l)
    return -l * (2 * l + 1) / 3.0


def leg_rotation_squared(l):
    """Matrix of L_ab^2 on W_{2l}: diagonal with eigenvalues -s^2/2.

    Built from the weight operator of the spin-l ladder: the generator
    rotating the a-b frame legs acts with weights 2s, normalized so that its
    square has spectrum {-s^2/2 : |s| <= l}.
    """
    jz, _, _ = ladder_matrices(2 * l + 1)
    return -0.5 * jz @ jz


def angular_eigenvalue_k2(l, s, t, radius):
    """Closed-form eigenvalue on W_{2l} at angular weight s; t a float or an ndarray."""
    if l < 0:  # a comparison, not _check_label: the k = 2 harmonic term calls this per abscissa
        raise ValueError(f"label l must be a nonnegative integer, got {l}")
    if abs(s) > l:
        raise ValueError(f"weight |s| = {abs(s)} exceeds l = {l}")
    if isinstance(t, np.ndarray):  # the powers go through the C library's pow either way
        inside, pw = numerics._inside(t, 0.0, 1.0), np.float_power
    else:
        inside, pw = 0.0 < t < 1.0, pow
    if not inside:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    r2 = radius**2
    return 4.0 * l * (2 * l + 1) / (3.0 * r2 * (1.0 + t)) + s**2 * (
        3.0 * t - 1.0
    ) / (r2 * (1.0 - pw(t, 2)))


def h_omega_matrix_k2(l, t, radius):
    """The angular operator on W_{2l} as an explicit (2l+1) x (2l+1) matrix."""
    _check_k2_label(l)
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie in (0, 1), got {t}")
    dim = 2 * l + 1
    delta = casimir_scalar_k2(l) * np.eye(dim)
    lab2 = leg_rotation_squared(l)
    return (
        -4.0 / (radius**2 * (1.0 + t)) * delta
        - 2.0 * (3.0 * t - 1.0) / (radius**2 * (1.0 - t**2)) * lab2
    )


def angular_spectrum_k2(l, t, radius):
    """Eigenvalues with multiplicities on W_{2l}: [(value, mult), ...] ascending."""
    _check_k2_label(l)
    vals = {}
    for s in range(0, l + 1):
        lam = angular_eigenvalue_k2(l, s, t, radius)
        vals[lam] = vals.get(lam, 0) + (1 if s == 0 else 2)
    return sorted(vals.items())


# ---------------------------------------------------------------------------
# k = 3: frames in R^4, so(4) = su(2) + su(2)
# ---------------------------------------------------------------------------


# Largest dimension (lw+1)(mw+1) of a k = 3 representation: the operator and
# its six generators are dense complex matrices, 0.2 GB and 1.3 s at 1024.
K3_DIM_MAX = 1024


def so4_rep_generators(lw, mw):
    """Images rho(L_pair) on W_lw (x) W_mw, keyed by coordinate pair (i, j).

    lw, mw are the highest weights (spin j = lw/2, mw/2); the generators
    satisfy the so(4) structure constants of L_ij = E_ij - E_ji exactly.
    """
    if lw < 0 or mw < 0 or int(lw) != lw or int(mw) != mw:
        raise ValueError("representation labels must be nonnegative integers")
    dim = (lw + 1) * (mw + 1)
    if dim > K3_DIM_MAX:
        raise ValueError(f"W_{lw} (x) W_{mw} has dimension {dim}; at most {K3_DIM_MAX} is built")
    ua = su2_generators(lw + 1)
    ub = su2_generators(mw + 1)
    eye_a = np.eye(lw + 1)
    eye_b = np.eye(mw + 1)
    # The defining-representation factors satisfy [A_1, A_2] = -A_3 (and
    # likewise for B), so each factor maps to minus the standard su(2) images.
    rho_a = [-np.kron(u, eye_b) for u in ua]
    rho_b = [-np.kron(eye_a, u) for u in ub]
    # L_jk (cyclic) = A_i + B_i ; L_i4 = A_i - B_i, mirroring the defining rep.
    rho = {}
    rho[(1, 2)] = rho_a[0] + rho_b[0]
    rho[(0, 2)] = -(rho_a[1] + rho_b[1])  # L_02 = -J_2
    rho[(0, 1)] = rho_a[2] + rho_b[2]
    rho[(0, 3)] = rho_a[0] - rho_b[0]
    rho[(1, 3)] = rho_a[1] - rho_b[1]
    rho[(2, 3)] = rho_a[2] - rho_b[2]
    return rho


def angular_operator_k3(lw, mw, t):
    """The fiber Laplacian image on W_lw (x) W_mw at radial coordinate t."""
    metric = manifold.metric_omega(t, manifold.ModelParams(k=3)).coefficients
    rho = so4_rep_generators(lw, mw)
    dim = (lw + 1) * (mw + 1)
    out = np.zeros((dim, dim), dtype=complex)
    # The in-frame pairs first: the sum's order fixes the roundoff of the output.
    for pair in ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)):
        g = rho[pair]
        out += 0.5 * (1.0 / metric[manifold.frame_pair_label(*pair)]) * (g @ g)
    # Largest absolute entries: unlike the Frobenius norm, they cannot
    # overflow while every entry is finite.
    herm = np.max(np.abs(out - out.conj().T))
    if herm > 1e-10 * max(np.max(np.abs(out)), 1.0):
        raise RuntimeError(f"angular operator lost hermiticity: {herm:.3e}")
    return out


def angular_spectrum_k3(lw, mw, t):
    """Ascending eigenvalues of the angular operator on W_lw (x) W_mw."""
    op = angular_operator_k3(lw, mw, t)
    return np.linalg.eigvalsh(op)


def closed_form_k3_11(t):
    """Spectrum on W_1 (x) W_1 (the defining 4-dimensional representation)."""
    return np.sort(
        [
            (t + 5.0) / (4.0 * (t - 1.0) * (t + 1.0)),
            (t + 5.0) / (4.0 * (t - 1.0) * (t + 1.0)),
            (3.0 * t + 1.0) / (4.0 * (t - 1.0) * t),
            -(5.0 * t + 1.0) / (4.0 * t * (t + 1.0)),
        ]
    )


def closed_form_k3_31(t):
    """Spectrum on W_3 (x) W_1 (8-dimensional)."""
    den = 4.0 * (t - 1.0) * t * (t + 1.0)
    disc = math.sqrt(13.0 * t**4 + 4.0 * t**3 + 2.0 * t**2 - 4.0 * t + 1.0)
    vals = [
        (3.0 * t**2 + 12.0 * t + 1.0) / den,
        (3.0 * t**2 + 12.0 * t + 1.0) / den,
        (7.0 * t**2 + 16.0 * t + 1.0) / den,
        -(9.0 * t**2 - 16.0 * t - 1.0) / den,
        -(t**2 + 2.0 * disc - 13.0 * t - 2.0) / den,
        -(t**2 + 2.0 * disc - 13.0 * t - 2.0) / den,
        -(t**2 - 2.0 * disc - 13.0 * t - 2.0) / den,
        -(t**2 - 2.0 * disc - 13.0 * t - 2.0) / den,
    ]
    return np.sort(vals)


# ---------------------------------------------------------------------------
# Multiplicities
# ---------------------------------------------------------------------------


def gelbart_multiplicity(m1, m2, m3):
    """Dimension of the multiplicity space for a highest weight (m1, m2, m3).

    Requires the dominance chain m1 >= m2 >= m3 >= 0; the value is
    (m1-m2+1)(m2-m3+1)(m1-m3+2)/2.
    """
    if not (m1 >= m2 >= m3 >= 0):
        raise ValueError(
            f"weights must satisfy m1 >= m2 >= m3 >= 0, got ({m1}, {m2}, {m3})"
        )
    return (m1 - m2 + 1) * (m2 - m3 + 1) * (m1 - m3 + 2) // 2

