"""Harmonic measure on the unit strip and the convexity defect.

Computes Poisson masses of boundary sets, the doubling ratio against its
closed-form bound, the boundary-norm constancy of the analytic family
F(z) = d^((1+alpha)z) x d^((1+alpha)(1-z)), and the convexity-defect
statistic over a small random ensemble.
"""

import numpy as np

from schattenlab import (AnalyticFamily, BoundaryGridCache, BoundarySet,
                        PositiveDefiniteMatrix, boundary_measure,
                        boundary_norm_profile, convexity_defect,
                        doubling_ratio)

rng = np.random.default_rng(3)

# mass of the right boundary line equals the base point gamma0
for g in (0.25, 0.5, 0.75):
    m = boundary_measure(g, BoundarySet((), ((-40.0, 40.0),)))
    print("gamma0 = %.2f : P(right line) = %.10f" % (g, m))

aset = BoundarySet(((-0.5, 1.0),), ((0.2, 0.8),))
ratio, bound = doubling_ratio(0.5, aset)
print("\ndoubling ratio %.4f  <=  bound %.4f" % (ratio, bound))

# boundary norms of the analytic family are constant for Hermitian x
n, alpha = 4, 1.0
lam = np.exp(rng.uniform(-1, 1, n))
q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
d = PositiveDefiniteMatrix.from_spectral(lam, q)
a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
x = 0.5 * (a + a.conj().T)
fam = AnalyticFamily(d, x, alpha)
n0, n1 = boundary_norm_profile(fam, 1.0, np.linspace(-3, 3, 7))
print("\n||F(it)||_1 along the left line: ", np.round(n0, 8))
print("||F(1+it)||_1 along the right line:", np.round(n1, 8))

# convexity defect: boundary average beats the center value by a
# quantitative margin depending on the deviation.  The cache holds F and
# gamma0; it takes ||F||_q from the exact line masses 1 - gamma0 and gamma0
# and ||F - F(gamma0)|| from its boundary grid.  At q = 2 the defect is 1.
print("\nconvexity defects for one family:")
cache = BoundaryGridCache(fam, gamma0=0.5)
for qq in (0.5, 1.0, 2.0):
    print("  q = %.1f : %.6f" % (qq, convexity_defect(cache, qq)))
