"""Schatten quasi-norms on small matrices.

Walks through the basic norm machinery: singular values from LAPACK's SVD,
the p-triangle inequality for p < 1, Hoelder, and how the exponent
bookkeeping ties (alpha, s, r) to the derived pair (p, q).
"""

import math

import numpy as np

from schattenlab import ExponentConfig, schatten_norm, singular_values

rng = np.random.default_rng(1)


def rand(n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


a = rand(4)
print("singular values:", np.round(singular_values(a), 4))

for p in (0.5, 1, 2, math.inf):
    print("||a||_%-4s = %.6f" % (p, schatten_norm(a, p)))

# for p < 1 the triangle inequality fails but its p-th power version holds
b = rand(4)
p = 0.5
lhs = schatten_norm(a + b, p) ** p
rhs = schatten_norm(a, p) ** p + schatten_norm(b, p) ** p
print("\np-triangle at p=1/2:  %.4f <= %.4f" % (lhs, rhs))

# Hoelder: ||ab||_p <= ||a||_s ||b||_r with 1/p = 1/s + 1/r
s, r = 1.5, 3.0
p = 1.0 / (1.0 / s + 1.0 / r)
print("Hoelder:  %.4f <= %.4f"
      % (schatten_norm(a @ b, p), schatten_norm(a, s) * schatten_norm(b, r)))

# the exponent relations used throughout: 1/p = 1/s + 1/r and
# 1/q = (1+alpha)/s + 1/r
cfg = ExponentConfig(alpha=1.0, s=4.0 / 3.0, r=math.inf)
print("\nalpha=1, s=4/3, r=inf  ->  p=%.4f  q=%.4f  gamma=%.4f"
      % (cfg.p, cfg.q, cfg.gamma))
