"""Schatten p-(quasi)norms for 0 < p <= inf and the exponent bookkeeping.

The norm is computed from singular values with max-scaling so that tiny
exponents (p well below 1) neither overflow nor underflow.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import ValidationError, _as_array, _svdvals

# singular values below this fraction of the largest are treated as exact
# zeros before raising to powers below 1
ZERO_CUT = 1e-14


@dataclass(frozen=True)
class ExponentConfig:
    """The exponent tuple (alpha, s, r) with derived p and q.

    1/p = 1/s + 1/r and 1/q = (1+alpha)/s + 1/r, with 1/inf = 0.
    """

    alpha: float
    s: float
    r: float
    p: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValidationError("alpha must be positive, got %r" % (self.alpha,))
        if not 0 < self.s < math.inf:
            raise ValidationError("s must be in (0, inf), got %r" % (self.s,))
        if not 0 < self.r:
            raise ValidationError("r must be in (0, inf], got %r" % (self.r,))
        inv_r = 0.0 if math.isinf(self.r) else 1.0 / self.r
        object.__setattr__(self, "p", 1.0 / (1.0 / self.s + inv_r))
        object.__setattr__(self, "q", 1.0 / ((1.0 + self.alpha) / self.s + inv_r))

    @property
    def gamma(self):
        """The interior strip point alpha/(1+alpha)."""
        return self.alpha / (1.0 + self.alpha)


def singular_values(A):
    """Singular values of A, descending, from LAPACK's SVD of A itself."""
    return _svdvals(_as_array(A))


def _power_sum_norm(sig, p):
    smax = sig[0]
    if smax == 0.0:
        return 0.0
    if math.isinf(p):
        return float(smax)
    scaled = sig / smax
    if p < 1.0:
        scaled = scaled[scaled > ZERO_CUT]
    return float(smax * (scaled ** p).sum() ** (1.0 / p))


def schatten_norm(A, p):
    """(sum sigma_i^p)^(1/p); the operator norm for p = inf."""
    if not (p > 0 or math.isinf(p)):
        raise ValidationError("Schatten exponent must be positive or inf, got %r" % (p,))
    return _power_sum_norm(singular_values(A), p)


def schatten_norm_from_singular_values(sig, p):
    """Same as schatten_norm but from precomputed descending singular values."""
    if not (p > 0 or math.isinf(p)):
        raise ValidationError("Schatten exponent must be positive or inf, got %r" % (p,))
    sig = np.asarray(sig, dtype=float)
    if sig.size == 0 or sig[0] == 0.0:
        return 0.0
    return _power_sum_norm(sig, p)
