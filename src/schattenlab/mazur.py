"""Mazur maps and the inequality ratio objectives.

Each ratio function returns numerator/denominator for one of the L_p-L_q
inequalities under study.  Denominators that vanish relative to the
numerator indicate a numerically degenerate instance, not a counterexample
(the inequalities forbid genuine blow-up), so such calls return the +inf
sentinel for the caller to flag and exclude.  The two-point ratios return 0
for a pair that coincides to COINCIDENT_TOL, and an overflow of |f|^(p/q)
raises NumericalError.

A ratio on one positive d = V diag(lam) V* and one x is unitarily invariant,
so its array function takes lam and x in d's eigenbasis, X' = V* x V, which
only _eigen_args forms; no array function takes V.
"""

import math

import numpy as np

from .kernels import (TMapParams, divided_difference_kernel, mixed_kernel_map,
                      t_map, _divided_difference)
from .matcore import (ComplexMatrix, NumericalError, PositiveDefiniteMatrix,
                      ValidationError, _as_array, _finite, _positive_spectrum,
                      _power, _same_shape, _svd, _svdvals, herm_eig,
                      positive_power)
from .schatten import _exponents, _power_sum_norm, schatten_norm

# denominators below this fraction of the numerator scale are flagged as
# near-kernel instances rather than divided
SENTINEL_REL = 1e-13

# pairs whose entries all differ by less than this are one point, where
# the two-point ratios (eq2, the Lipschitz ratios) are 0
COINCIDENT_TOL = 1e-14


def _safe_ratio(num, den):
    if num == 0.0 and den == 0.0:
        return 0.0
    if den <= SENTINEL_REL * max(num, 1e-14):
        return math.inf
    return num / den


def _check_pq(p, q):
    if not 0 < q < p < math.inf:
        raise ValidationError("need 0 < q < p < inf, got p=%r, q=%r" % (p, q))


def _sv_power(left, sig, vh, p, q):
    """left diag(sig^(p/q)) vh, as an array; NumericalError when it leaves
    the double range."""
    m = (left * sig ** (p / q)) @ vh
    if not np.isfinite(m).all():
        raise NumericalError("|f|^(p/q) overflows at p/q = %r" % (p / q,))
    return m


def mazur_map(f, p, q):
    """M_{p,q}(f) = U |f|^(p/q) = W S^(p/q) V* from the SVD f = W S V*."""
    if not (p > 0 and q > 0):
        raise ValidationError("Mazur map exponents must be positive")
    return ComplexMatrix(_sv_power(*_svd(f), p, q))


# Each ratio below has one array function, which the public function calls
# after validating its input and the search calls on its state.  In the dx
# ratios (main, interp, eq1 with sign +1, tmap), x d^a is X' scaled by
# lam_j^a in column j, and dx + xd and x d^a + d^a x are the Schur products
# of X' with lam_i + lam_j and lam_i^a + lam_j^a; d's own norms come from
# lam.  The commutator of eq1 with sign -1 and the power difference of eq2
# take formed matrices, so that x = d gives an exact zero.  Numerators but
# tmap's go through schatten_norm and the other norms through _svdvals; both
# reach the one SVD, and the split only keeps one traced singular_values call
# per evaluation for the benchmark.  X' is checked finite before use (tmap's
# by its SVD), and each formed matrix by the SVD that reads it, raising the
# class the public API always raised for that input.

def _spectrum_norm(lam, s):
    """||d||_s from the eigenvalues lam > 0 of d, which must be ascending
    (as _eigen_args and the search give them): it reads them reversed."""
    return _power_sum_norm(lam[::-1], s)


def _eigen_args(d, x):
    """(lam ascending, V, X' = V* x V) for positive definite
    d = V diag(lam) V* and x of d's shape; ValidationError otherwise."""
    _, xm = _same_shape(d, x)
    s = herm_eig(d)
    lam, v = _positive_spectrum(s.eigenvalues, s.vectors)
    return lam, v, v.conj().T @ xm @ v


def _main(lam, x, cfg):
    x = _finite(x, NumericalError)
    num = schatten_norm(x * lam ** (1.0 + cfg.alpha), cfg.q)
    sv = _svdvals(x * np.add.outer(lam, lam), ValidationError)
    return _safe_ratio(num, _spectrum_norm(lam, cfg.s) ** cfg.alpha
                       * _power_sum_norm(sv, cfg.p))


def main_ratio(d, x, cfg):
    """||x d^(1+alpha)||_q / (||d||_s^alpha ||dx+xd||_p)."""
    lam, _, xe = _eigen_args(d, x)
    return _main(lam, xe, cfg)


def _interp(lam, x, eps, s, r, p):
    x = _finite(x, NumericalError)
    num = schatten_norm(x * lam, p)
    sv = _svdvals(np.array((x, x * np.add.outer(lam, lam))), ValidationError)
    return _safe_ratio(num, (_spectrum_norm(lam, s) * _power_sum_norm(sv[0], r)) ** eps
                       * _power_sum_norm(sv[1], p) ** (1.0 - eps))


def _interp_exponent(eps, s, r):
    """interp's p, 1/p = 1/s + 1/r; ValidationError unless 0 < eps < 1."""
    if not 0 < eps < 1:
        raise ValidationError("eps must be in (0, 1), got %r" % (eps,))
    return _exponents(s, r)[0]


def interp_corollary_ratio(d, x, eps, s, r):
    """||xd||_p / ((||d||_s ||x||_r)^eps ||dx+xd||_p^(1-eps))."""
    p = _interp_exponent(eps, s, r)
    lam, _, xe = _eigen_args(d, x)
    return _interp(lam, xe, eps, s, r, p)


def _eq1_den(base, lam, p, q):
    """||base||_p ||d||_p^(p/q-1)."""
    return (_power_sum_norm(_svdvals(base, ValidationError), p)
            * _spectrum_norm(lam, p) ** (p / q - 1.0))


def _eq1_plus(lam, x, p, q):
    x = _finite(x, NumericalError)
    a = lam ** (p / q)
    num = schatten_norm(x * np.add.outer(a, a), q)
    return _safe_ratio(num, _eq1_den(x * np.add.outer(lam, lam), lam, p, q))


def _eq1_minus(dm, d_pow, lam, x, p, q):
    x = _finite(x, NumericalError)
    num = schatten_norm(x @ d_pow - d_pow @ x, q)
    return _safe_ratio(num, _eq1_den(x @ dm - dm @ x, lam, p, q))


def eq1_ratio(d, x, p, q, sign):
    """||x d^(p/q) +- d^(p/q) x||_q / (||xd +- dx||_p ||d||_p^(p/q-1))."""
    _check_pq(p, q)
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    lam, v, xe = _eigen_args(d, x)
    if sign == +1:
        return _eq1_plus(lam, xe, p, q)
    return _eq1_minus(_as_array(d), _power(lam, v, p / q), lam, _as_array(x), p, q)


def _tmap_ratio(lam, x, params, p, q, s):
    # each SVD scans its own input: a non-finite x is a numerical failure,
    # a non-finite T(x) of a finite x a rejected proposal
    sig = _svdvals(x)
    num = _power_sum_norm(_svdvals(divided_difference_kernel(lam, params) * x,
                                   ValidationError), q)
    den = _power_sum_norm(sig, p) * _spectrum_norm(lam, s) ** params.alpha
    return _safe_ratio(num, den)


def tmap_ratio(d, x, params, s, r):
    """||T_{beta,gamma}(x)||_q / (||x||_p ||d||_s^alpha), with alpha =
    2 beta + gamma - 1, 1/p = 1/s + 1/r and 1/q = (1+alpha)/s + 1/r."""
    p, q = _exponents(s, r, params.alpha)
    lam, _, xe = _eigen_args(d, x)
    return _tmap_ratio(lam, xe, params, p, q, s)


def _powers_diff(xm, x_pow, ym, y_pow, p, q):
    if np.abs(xm - ym).max() < COINCIDENT_TOL:
        return 0.0
    return _safe_ratio(schatten_norm(x_pow - y_pow, q), _lipschitz_den(xm, ym, p, q))


def _lipschitz_den(x, y, p, q):
    """max(||x||_p, ||y||_p)^(p/q-1) ||x-y||_p."""
    sv = _svdvals(np.array((x, y, x - y)))
    return max(_power_sum_norm(sv[0], p), _power_sum_norm(sv[1], p)) ** (p / q - 1.0) \
        * _power_sum_norm(sv[2], p)


def powers_diff_ratio(x, y, p, q):
    """||x^(p/q) - y^(p/q)||_q / (max(||x||_p,||y||_p)^(p/q-1) ||x-y||_p)."""
    _check_pq(p, q)
    _same_shape(x, y)
    return _powers_diff(x.mat, positive_power(x, p / q),
                        y.mat, positive_power(y, p / q), p, q)


def _mazur_lipschitz(x, y, p, q, variant):
    if variant not in ("mazur", "abs-power"):
        raise ValidationError("unknown variant %r" % (variant,))
    # one SVD call on the pair, bit for bit two calls, refuses a non-finite
    # x or y before the coincidence test
    (wx, wy), (sx, sy), (vx, vy) = _svd(np.array((x, y)))
    if np.abs(x - y).max() < COINCIDENT_TOL:
        return 0.0
    if variant == "abs-power":   # V S^(p/q) V* in place of W S^(p/q) V*
        wx, wy = vx.conj().T, vy.conj().T
    diff = _sv_power(wx, sx, vx, p, q) - _sv_power(wy, sy, vy, p, q)
    return _safe_ratio(schatten_norm(diff, q), _lipschitz_den(x, y, p, q))


def mazur_lipschitz_ratio(x, y, p, q, variant="mazur"):
    """Lipschitz-on-balls ratio for M_{p,q} or the |.|^(p/q) difference.

    variant "mazur":     ||M_{p,q}(x) - M_{p,q}(y)||_q in the numerator
    variant "abs-power": || |x|^(p/q) - |y|^(p/q) ||_q in the numerator
    """
    _check_pq(p, q)
    return _mazur_lipschitz(*_same_shape(x, y), p, q, variant)


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
    xm, ym = _same_shape(x, y)
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
