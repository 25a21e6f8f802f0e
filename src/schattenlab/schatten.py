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


def _exponents(s, r, alpha=0.0):
    """(p, q) with 1/p = 1/s + 1/r and 1/q = (1+alpha)/s + 1/r, 1/inf = 0.

    Raises ValidationError unless s > 0, r > 0 and both p and q lie in
    (0, inf).
    """
    if not (s > 0 and r > 0):
        raise ValidationError("s and r must be positive, got s=%r, r=%r" % (s, r))
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    try:
        p = 1.0 / (1.0 / s + inv_r)
        q = 1.0 / ((1.0 + alpha) / s + inv_r)
    except ZeroDivisionError:
        p = q = math.inf
    if not (0 < p < math.inf and 0 < q < math.inf):
        raise ValidationError("s=%r, r=%r, alpha=%r give exponents outside"
                              " (0, inf)" % (s, r, alpha))
    return p, q


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
        _check_alpha(self.alpha)
        if not 0 < self.s < math.inf:
            raise ValidationError("s must be in (0, inf), got %r" % (self.s,))
        p, q = _exponents(self.s, self.r, self.alpha)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

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


def _check_alpha(alpha):
    if not 0 < alpha < math.inf:
        raise ValidationError("alpha must be in (0, inf), got %r" % (alpha,))


def _check_exponent(p):
    if not (p > 0 or math.isinf(p)):
        raise ValidationError("Schatten exponent must be positive or inf, got %r" % (p,))


def schatten_norm(A, p):
    """(sum sigma_i^p)^(1/p); the operator norm for p = inf."""
    _check_exponent(p)
    return _power_sum_norm(singular_values(A), p)


def schatten_norm_from_singular_values(sig, p):
    """Same as schatten_norm but from precomputed descending singular values."""
    _check_exponent(p)
    sig = np.asarray(sig, dtype=float)
    if sig.size == 0 or sig[0] == 0.0:
        return 0.0
    return _power_sum_norm(sig, p)
