"""Resolution of a sphere-valued loop into plane rotations.

Every trigonometric-polynomial loop on the sphere factors as a product of
degree-one plane rotations applied to a constant base point, and the
factorization is unique once the peeling convention is fixed.  This script
builds a random degree-4 loop, peels it rotation by rotation, rebuilds it,
and shows how singular rotations (the ones that lower the degree) are
detected.
"""

import numpy as np

from loopsphere import resolution
from loopsphere.cli import random_loop


def main():
    n = random_loop(3, 4, 1.0, seed=2024)
    print(f"random loop: k = 3, degree {n.degree}, |n| = {n.norm():.6f}")
    fact = resolution.factorize(n, 1.0)
    print(f"factorization: {len(fact.rotations)} plane rotations applied to "
          f"base point {np.round(fact.base, 4)}")
    current = n
    for i, rot in enumerate(fact.rotations):
        current = resolution.apply_rotation(rot, current, inverse=True)
        print(f"  after peel {i + 1}: degree {current.degree}")

    back = resolution.compose(fact)
    thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    err = np.max(np.abs(back.eval(thetas) - n.eval(thetas)))
    print(f"compose(factorize(n)) sup-norm error: {err:.2e}")

    print()
    print("singular-rotation detection (degree after application):")
    factor, _ = resolution.peel(n)
    lowering = factor.inverse()
    for label, rot in (("peel-factor inverse", lowering), ("peel factor", factor)):
        singular = resolution.is_singular_rotation(rot, n)
        degree = resolution.apply_rotation(rot, n).degree
        print(f"  {label:<20}: singular={singular}, "
              f"degree {n.degree} -> {degree}")


if __name__ == "__main__":
    main()
