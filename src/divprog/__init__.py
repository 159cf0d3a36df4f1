"""Divisor sums over arithmetic progressions, and the machinery around them.

The package's API is its submodules; import each name from the module
that defines it (``from divprog.tausieve import divisor_sum_progressions``).
Importing the package alone loads none of them.

  arith        inverses, factorization, multiplicative functions
  tausieve     the divisor sieve and exact S(X; a, q), one or all residues
  mainterm     the main-term polynomial, error terms and exceptional sets
  kloosterman  complete Kloosterman sums: scalar, batched over a, tables
  bilinear     bilinear Kloosterman sums over intervals, and their bounds
  characters   characters mod p, fourth moments, congruence counts
  bessel       the kernels K0, Y0, K1, Y1 of the transform weights
  cutoff       the smooth cutoff of the transform
  quadrature   the Gauss and Gauss-Kronrod rules
  voronoi      the transform-side expansion of R(X; a, q)
  poisson      divisor-weighted Poisson summation checks
  sweeps       experiment configs, reference envelopes and reports
  cache        byte-bounded caches of built tables
  errors       the package's error types
  cli          the command-line front end
"""
