"""Schatten p-(quasi)norms for 0 < p <= inf and the exponent bookkeeping.

The norm is computed from singular values with max-scaling so that tiny
exponents (p well below 1) neither overflow nor underflow.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import NumericalError, ValidationError, _as_array, _svdvals

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
    """Singular values of a non-empty 2-D A, descending, from matcore's SVD,
    which is homogeneous at any scale."""
    a = _as_array(A)
    if a.ndim != 2 or not a.size:
        raise ValidationError("expected a non-empty matrix, got shape %s" % (a.shape,))
    return _svdvals(a)


def _power_sum_norm(sig, p):
    """(sum sig_i^p)^(1/p), max-scaled, of one row sig that must be
    descending (as LAPACK's SVD gives it): sig[0] is read as the largest
    entry and, for p < 1, sig[-1] as the smallest.

    The final power is taken on a Python float, which is libm's pow; numpy's
    array ** can differ from it in the last bit.  A norm past the float
    range, from the last power at a small p or from the scale-back by
    sig[0], raises NumericalError.
    """
    smax = float(sig[0])
    if smax == 0.0:
        return 0.0
    if math.isinf(p):
        return smax
    scaled = sig / smax
    if p < 1.0 and not scaled[-1] > ZERO_CUT:
        scaled = scaled[scaled > ZERO_CUT]
    try:
        norm = smax * float(np.add.reduce(scaled ** p)) ** (1.0 / p)
    except OverflowError:
        raise _overflow(p) from None
    if norm == math.inf:
        raise _overflow(p)
    return norm


def _power_sum_norms(sig, p):
    """_power_sum_norm of each row of a (..., n) stack of descending rows,
    bit for bit, as an array of the stack's leading shape.

    The entries ZERO_CUT keeps are a prefix of each row, so rows with the
    same kept count are summed as one contiguous block.  The last step,
    smax * v ** (1/p), is a scalar power per row: numpy's array ** can
    differ from the scalar one in the last bit.  A norm past the float
    range raises NumericalError, as there.  A stack of one row costs
    more than _power_sum_norm, so single norms keep calling that.
    """
    rows = sig.reshape(-1, sig.shape[-1])
    smax = rows[:, 0]
    out = np.zeros(rows.shape[0])
    live = np.flatnonzero(smax)
    if math.isinf(p):
        out[live] = smax[live]
        return out.reshape(sig.shape[:-1])
    scaled = rows[live] / smax[live, None]
    powered = scaled ** p
    kept = (scaled > ZERO_CUT).sum(axis=1) if p < 1.0 else np.full(live.size, rows.shape[1])
    sums = np.empty(live.size)
    # a set, not np.unique, whose first call imports numpy.ma (1.5 MB)
    for k in set(kept.tolist()):
        block = kept == k
        sums[block] = np.ascontiguousarray(powered[block, :k]).sum(axis=1)
    inv = 1.0 / p
    try:
        norms = [s * v ** inv for s, v in zip(smax[live].tolist(), sums.tolist())]
    except OverflowError:
        raise _overflow(p) from None
    if math.inf in norms:
        raise _overflow(p)
    out[live] = norms
    return out.reshape(sig.shape[:-1])


def _overflow(p):
    # the norm is sig[0] (sum of scaled powers)^(1/p), and the power reaches
    # n^(1/p) for n equal singular values: past the float range at a small
    # p, or at any p once sig[0] is near it
    return NumericalError("Schatten norm at p = %r: sig[0] (sum)^(1/p)"
                          " overflows" % (p,))


def _check_alpha(alpha):
    if not 0 < alpha < math.inf:
        raise ValidationError("alpha must be in (0, inf), got %r" % (alpha,))


def _check_exponent(p):
    if not p > 0:
        raise ValidationError("Schatten exponent must be in (0, inf], got %r" % (p,))


def schatten_norm(A, p):
    """(sum sigma_i^p)^(1/p); the operator norm for p = inf."""
    _check_exponent(p)
    return _power_sum_norm(singular_values(A), p)

