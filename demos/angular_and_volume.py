"""Angular spectra on the frame fibers and the total volume identity.

The degree-one stratum fibers over the radial coordinate with homogeneous
frame-manifold fibers; harmonic analysis on the fiber reduces the Laplacian
to finite matrices indexed by representation data.  This script prints the
k = 2 angular levels, the k = 3 displays including the conjugate radical
pair, and verifies the closed-form total volume against quadrature.
"""

import numpy as np

from loopsphere import angular, manifold


def main():
    t = 0.5
    print(f"k = 2 angular levels at t = {t} (value, multiplicity):")
    for l in range(3):
        levels = angular.angular_spectrum_k2(l, t, 1.0)
        pretty = ", ".join(f"({value:.6f}, x{mult})" for value, mult in levels)
        print(f"  l={l}: {pretty}")
    print()

    print(f"k = 3 displays at t = {t}:")
    s11 = angular.angular_spectrum_k3(1, 1, t)
    print(f"  (1,1): numeric {np.round(s11, 9)}")
    print(f"         closed  {np.round(angular.closed_form_k3_11(t), 9)}")
    s31 = angular.angular_spectrum_k3(3, 1, t)
    c31 = angular.closed_form_k3_31(t)
    print(f"  (3,1): numeric {np.round(s31, 9)}")
    print(f"         closed  {np.round(c31, 9)}  (includes the radical pair)")
    print()

    print("representation multiplicities (m1, m2, m3) -> multiplicity:")
    for m in ((0, 0, 0), (1, 1, 1), (2, 1, 0), (3, 1, 0)):
        print(f"  {m}: {angular.gelbart_multiplicity(*m)}")
    print()

    print("total volume: quadrature x frame volume vs closed form")
    print(f"{'k':>2} {'R':>4} {'quadrature x frames':>22} {'closed form':>22} {'rel dev':>10}")
    for k in (2, 3, 5):
        for R in (0.5, 1.0, 2.0):
            params = manifold.ModelParams(k=k, R=R)
            quad = manifold.radial_volume_quadrature(params) * manifold.stiefel_volume(k)
            closed = manifold.volume_total(params)
            rel = abs(quad - closed) / closed
            print(f"{k:>2} {R:>4} {quad:>22.12e} {closed:>22.12e} {rel:>10.1e}")


if __name__ == "__main__":
    main()
