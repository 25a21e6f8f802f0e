"""Mazur maps and the inequality ratio objectives.

Each ratio function returns numerator/denominator for one of the L_p-L_q
inequalities under study.  Denominators that vanish relative to the
numerator indicate a numerically degenerate instance, not a counterexample
(the inequalities forbid genuine blow-up), so such calls return the +inf
sentinel for the caller to flag and exclude.
"""

import math

import numpy as np

from .kernels import (DEGENERATE_GAP, TMapParams, mixed_kernel_map, t_map,
                      _divided_difference)
from .matcore import (ComplexMatrix, PositiveDefiniteMatrix, ValidationError,
                      _as_array, _svd, anticommutator, positive_power)
from .schatten import _exponents, schatten_norm

# denominators below this fraction of the numerator scale are flagged as
# near-kernel instances rather than divided
SENTINEL_REL = 1e-13


def _safe_ratio(num, den):
    if num == 0.0 and den == 0.0:
        return 0.0
    if den <= SENTINEL_REL * max(num, 1e-14):
        return math.inf
    return num / den


def mazur_map(f, p, q):
    """M_{p,q}(f) = U |f|^(p/q) = W S^(p/q) V* from the SVD f = W S V*."""
    if not (p > 0 and q > 0):
        raise ValidationError("Mazur map exponents must be positive")
    w, sig, vh = _svd(f)
    return ComplexMatrix((w * sig ** (p / q)) @ vh)


def main_ratio(d, x, cfg):
    """||x d^(1+alpha)||_q / (||d||_s^alpha ||dx+xd||_p)."""
    xm = _as_array(x)
    if xm.shape[0] != d.dim:
        raise ValidationError("dimension mismatch")
    d_pow = positive_power(d, 1.0 + cfg.alpha)
    num = schatten_norm(xm @ d_pow, cfg.q)
    den = schatten_norm(d.mat, cfg.s) ** cfg.alpha \
        * schatten_norm(anticommutator(d, xm), cfg.p)
    return _safe_ratio(num, den)


def interp_corollary_ratio(d, x, eps, s, r):
    """||xd||_p / ((||d||_s ||x||_r)^eps ||dx+xd||_p^(1-eps))."""
    if not 0 < eps < 1:
        raise ValidationError("eps must be in (0, 1)")
    p, _ = _exponents(s, r)
    xm = _as_array(x)
    num = schatten_norm(xm @ d.mat, p)
    den = (schatten_norm(d.mat, s) * schatten_norm(xm, r)) ** eps \
        * schatten_norm(anticommutator(d, xm), p) ** (1.0 - eps)
    return _safe_ratio(num, den)


def eq1_ratio(d, x, p, q, sign):
    """||x d^(p/q) +- d^(p/q) x||_q / (||xd +- dx||_p ||d||_p^(p/q-1))."""
    if not 0 < q < p:
        raise ValidationError("need 0 < q < p")
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    xm = _as_array(x)
    d_pow = positive_power(d, p / q)
    num = schatten_norm(xm @ d_pow + sign * d_pow @ xm, q)
    base = anticommutator(d, xm) if sign == +1 else \
        ComplexMatrix(xm @ d.mat - d.mat @ xm)
    den = schatten_norm(base, p) * schatten_norm(d.mat, p) ** (p / q - 1.0)
    return _safe_ratio(num, den)


def powers_diff_ratio(x, y, p, q):
    """||x^(p/q) - y^(p/q)||_q / (max(||x||_p,||y||_p)^(p/q-1) ||x-y||_p)."""
    if not 0 < q < p:
        raise ValidationError("need 0 < q < p")
    num = schatten_norm(positive_power(x, p / q) - positive_power(y, p / q), q)
    den = max(schatten_norm(x.mat, p), schatten_norm(y.mat, p)) ** (p / q - 1.0) \
        * schatten_norm(x.mat - y.mat, p)
    return _safe_ratio(num, den)


def mazur_lipschitz_ratio(x, y, p, q, variant="mazur"):
    """Lipschitz-on-balls ratio for M_{p,q} or the |.|^(p/q) difference.

    variant "mazur":     ||M_{p,q}(x) - M_{p,q}(y)||_q in the numerator
    variant "abs-power": || |x|^(p/q) - |y|^(p/q) ||_q in the numerator
    """
    if not 0 < q < p:
        raise ValidationError("need 0 < q < p")
    xm, ym = _as_array(x), _as_array(y)
    if variant == "mazur":
        diff = mazur_map(xm, p, q).mat - mazur_map(ym, p, q).mat
    elif variant == "abs-power":
        (_, sx, vx), (_, sy, vy) = _svd(xm), _svd(ym)
        diff = (vx.conj().T * sx ** (p / q)) @ vx - (vy.conj().T * sy ** (p / q)) @ vy
    else:
        raise ValidationError("unknown variant %r" % (variant,))
    num = schatten_norm(diff, q)
    den = max(schatten_norm(xm, p), schatten_norm(ym, p)) ** (p / q - 1.0) \
        * schatten_norm(xm - ym, p)
    return _safe_ratio(num, den)


def _weighted_dd_kernel(t):
    """Kernel (a^(1-t)-b^(1-t))/(a-b) a^t b^t with the derivative convention
    at near-coincident pairs, matching the t-map's degenerate rule."""
    def kern(a, b):
        return _divided_difference(a, b, 1.0 - t) * a ** t * b ** t
    return kern


def decomposition_residual(x, y, t):
    """Residual of the three-term splitting of x^(1+t) - y^(1+t).

    Checks x^(1+t) - y^(1+t) = x^t (x-y) + (x-y) y^t - z where z is the
    weighted mixed divided-difference multiplier applied to x - y, and
    cross-checks z against the 2x2 block-diagonal construction.

    Returns (identity_residual, construction_gap), both operator norms.
    """
    if not 0 < t < 0.5:
        raise ValidationError("t must be in (0, 1/2), got %r" % (t,))
    if x.dim != y.dim:
        raise ValidationError("dimension mismatch")
    xm, ym = x.mat, y.mat
    diff = xm - ym
    z = mixed_kernel_map(x, y, _weighted_dd_kernel(t), diff).mat

    lhs = positive_power(x, 1.0 + t) - positive_power(y, 1.0 + t)
    rhs = positive_power(x, t) @ diff + diff @ positive_power(y, t) - z
    residual = schatten_norm(lhs - rhs, math.inf)

    # block construction: d = blockdiag(x, y), delta = upper-right block x - y
    n = x.dim
    big = np.zeros((2 * n, 2 * n), dtype=complex)
    big[:n, :n] = xm
    big[n:, n:] = ym
    d_block = PositiveDefiniteMatrix(big)
    delta = np.zeros_like(big)
    delta[:n, n:] = diff
    z_block = t_map(d_block, TMapParams(beta=t, gamma=1.0 - t), delta).mat[:n, n:]
    gap = schatten_norm(z - z_block, math.inf)
    return residual, gap
