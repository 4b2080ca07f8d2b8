"""Finite-dimensional loop spaces of round spheres.

Subpackages cover the algebra of trigonometric-polynomial loops, charts and
volumes of the degree-one loop variety, the rotation factorization, extrinsic
curvature, angular (Stiefel-fiber) spectra, and the singular radial
Sturm-Liouville problem with its spectral-gap analysis.
"""

__version__ = "0.1.0"
