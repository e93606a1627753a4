"""deltasum: a verification toolkit for exponential-sum identities.

Library modules:

- arith: exact factorization, modular inverses, multiplicative functions
- characters: Dirichlet characters, Gauss sums, orthogonality
- expsums: Kloosterman/Ramanujan sums, Weil bounds, residue recombination
- modforms: eta-product newform coefficients, Hecke and bound checks
- kernels: smooth bumps, J-Bessel, delta-symbol decompositions, oscillatory
  double integrals
- pipeline: shifted convolution sums, second-moment identities, Voronoi
  checks, exponent arithmetic
- cli: batch front-end emitting CSV reports

Every Kloosterman sum goes through one numpy kernel, deltasum._backend.
"""

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the Kloosterman kernel, recorded as run provenance."""
    return "numpy"
