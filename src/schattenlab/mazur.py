"""Mazur maps and the inequality ratio objectives.

Each ratio function returns numerator/denominator for one of the L_p-L_q
inequalities under study.  Denominators that vanish relative to the
numerator indicate a numerically degenerate instance, not a counterexample
(the inequalities forbid genuine blow-up), so such calls return the +inf
sentinel for the caller to flag and exclude.
"""

import math

import numpy as np

from .kernels import TMapParams, mixed_kernel_map, t_map, _divided_difference
from .matcore import (ComplexMatrix, NumericalError, PositiveDefiniteMatrix,
                      ValidationError, _as_array, _finite, _power, _svd,
                      _svdvals, herm_eig, positive_power)
from .schatten import _exponents, _power_sum_norm, schatten_norm

# denominators below this fraction of the numerator scale are flagged as
# near-kernel instances rather than divided
SENTINEL_REL = 1e-13


def _safe_ratio(num, den):
    if num == 0.0 and den == 0.0:
        return 0.0
    if den <= SENTINEL_REL * max(num, 1e-14):
        return math.inf
    return num / den


def _mazur_matrix(f, p, q):
    """W S^(p/q) V* from the SVD f = W S V*, as an array."""
    w, sig, vh = _svd(f)
    return (w * sig ** (p / q)) @ vh


def mazur_map(f, p, q):
    """M_{p,q}(f) = U |f|^(p/q) = W S^(p/q) V* from the SVD f = W S V*."""
    if not (p > 0 and q > 0):
        raise ValidationError("Mazur map exponents must be positive")
    return ComplexMatrix(_mazur_matrix(f, p, q))


# Each ratio below has one array function over d = V diag(lam) V* (its
# matrix dm, lam ascending and V) and x, which the public function calls
# after validating its input and the search calls on its state.  The
# numerator's norm comes from schatten_norm, the denominator's from one
# stacked SVD.  Matrices that the public API once wrapped in ComplexMatrix
# get _finite where they are formed, in the original order, so a bad state
# raises the class it always did.

def _main(dm, lam, v, x, cfg):
    num = schatten_norm(x @ _power(lam, v, 1.0 + cfg.alpha), cfg.q)
    sv = _svdvals(np.stack((dm, _finite(dm @ x + x @ dm))))
    return _safe_ratio(num, _power_sum_norm(sv[0], cfg.s) ** cfg.alpha
                       * _power_sum_norm(sv[1], cfg.p))


def main_ratio(d, x, cfg):
    """||x d^(1+alpha)||_q / (||d||_s^alpha ||dx+xd||_p)."""
    xm = _as_array(x)
    if xm.shape[0] != d.dim:
        raise ValidationError("dimension mismatch")
    s = herm_eig(d)
    return _main(d.mat, s.eigenvalues, s.vectors, xm, cfg)


def _interp(dm, x, eps, s, r, p):
    num = schatten_norm(x @ dm, p)
    sv = _svdvals(np.stack((dm, _finite(x, NumericalError),
                            _finite(dm @ x + x @ dm))))
    return _safe_ratio(num, (_power_sum_norm(sv[0], s) * _power_sum_norm(sv[1], r)) ** eps
                       * _power_sum_norm(sv[2], p) ** (1.0 - eps))


def interp_corollary_ratio(d, x, eps, s, r):
    """||xd||_p / ((||d||_s ||x||_r)^eps ||dx+xd||_p^(1-eps))."""
    if not 0 < eps < 1:
        raise ValidationError("eps must be in (0, 1)")
    p, _ = _exponents(s, r)
    return _interp(d.mat, _as_array(x), eps, s, r, p)


def _eq1(dm, lam, v, x, p, q, sign):
    d_pow = _power(lam, v, p / q)
    num = schatten_norm(x @ d_pow + sign * d_pow @ x, q)
    base = _finite(dm @ x + x @ dm if sign == +1 else x @ dm - dm @ x)
    sv = _svdvals(np.stack((base, dm)))
    return _safe_ratio(num, _power_sum_norm(sv[0], p)
                       * _power_sum_norm(sv[1], p) ** (p / q - 1.0))


def eq1_ratio(d, x, p, q, sign):
    """||x d^(p/q) +- d^(p/q) x||_q / (||xd +- dx||_p ||d||_p^(p/q-1))."""
    if not 0 < q < p:
        raise ValidationError("need 0 < q < p")
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    s = herm_eig(d)
    return _eq1(d.mat, s.eigenvalues, s.vectors, _as_array(x), p, q, sign)


def _powers_diff(xm, lx, vx, ym, ly, vy, p, q):
    num = schatten_norm(_power(lx, vx, p / q) - _power(ly, vy, p / q), q)
    return _safe_ratio(num, _lipschitz_den(xm, ym, p, q))


def _lipschitz_den(x, y, p, q):
    """max(||x||_p, ||y||_p)^(p/q-1) ||x-y||_p."""
    sv = _svdvals(np.stack((x, y, x - y)))
    return max(_power_sum_norm(sv[0], p), _power_sum_norm(sv[1], p)) ** (p / q - 1.0) \
        * _power_sum_norm(sv[2], p)


def powers_diff_ratio(x, y, p, q):
    """||x^(p/q) - y^(p/q)||_q / (max(||x||_p,||y||_p)^(p/q-1) ||x-y||_p)."""
    if not 0 < q < p:
        raise ValidationError("need 0 < q < p")
    sx, sy = herm_eig(x), herm_eig(y)
    return _powers_diff(x.mat, sx.eigenvalues, sx.vectors,
                        y.mat, sy.eigenvalues, sy.vectors, p, q)


def _mazur_lipschitz(x, y, p, q, variant):
    if variant == "mazur":
        diff = _finite(_mazur_matrix(x, p, q)) - _finite(_mazur_matrix(y, p, q))
    elif variant == "abs-power":
        (_, sx, vx), (_, sy, vy) = _svd(x), _svd(y)
        diff = (vx.conj().T * sx ** (p / q)) @ vx - (vy.conj().T * sy ** (p / q)) @ vy
    else:
        raise ValidationError("unknown variant %r" % (variant,))
    return _safe_ratio(schatten_norm(diff, q), _lipschitz_den(x, y, p, q))


def mazur_lipschitz_ratio(x, y, p, q, variant="mazur"):
    """Lipschitz-on-balls ratio for M_{p,q} or the |.|^(p/q) difference.

    variant "mazur":     ||M_{p,q}(x) - M_{p,q}(y)||_q in the numerator
    variant "abs-power": || |x|^(p/q) - |y|^(p/q) ||_q in the numerator
    """
    if not 0 < q < p:
        raise ValidationError("need 0 < q < p")
    return _mazur_lipschitz(_as_array(x), _as_array(y), p, q, variant)


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
