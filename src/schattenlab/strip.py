"""Unit-strip boundary machinery: Poisson densities, boundary measures,
set dilation, the doubling inequality, and the convexity-defect estimate.

The strip is {0 < Re z < 1} with boundary lines at Re z = 0 and Re z = 1.
Harmonic measure seen from the interior point gamma0 has the explicit
density sin(gamma0 pi) / (2 (cosh(pi t) - (-1)^k cos(gamma0 pi))) on the
line Re z = k, with antiderivative (1/pi) arctan(tanh(pi t/2) / tan(theta/2)),
theta = gamma0 pi on Re z = 0 and (1 - gamma0) pi on Re z = 1.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matcore import (ComplexMatrix, ValidationError, _as_array, _same_shape,
                      _svdvals, herm_eig)
from .schatten import (_check_alpha, _check_exponent, _power_sum_norm,
                       schatten_norm_from_singular_values, singular_values)

# tail truncation for unbounded boundary integrals: the density at |t| = 40
# is below 1e-54, far under every tolerance used here
TAIL_CUT = 40.0


def _merge(intervals):
    merged = []
    for a, b in sorted((float(a), float(b)) for a, b in intervals):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError("interval endpoints must be finite")
        if b < a:
            raise ValidationError("interval [%r, %r] reversed" % (a, b))
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return tuple(merged)


@dataclass(frozen=True)
class BoundarySet:
    """Finite union of closed intervals on the two boundary lines."""

    intervals0: tuple = ()
    intervals1: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals0", _merge(self.intervals0))
        object.__setattr__(self, "intervals1", _merge(self.intervals1))

    @staticmethod
    def full():
        return BoundarySet(((-TAIL_CUT, TAIL_CUT),), ((-TAIL_CUT, TAIL_CUT),))


def poisson_density(gamma0, k, t):
    """Harmonic-measure density on the boundary line Re z = k."""
    if not 0 < gamma0 < 1:
        raise ValidationError("gamma0 must be in (0, 1), got %r" % (gamma0,))
    if k not in (0, 1):
        raise ValidationError("k must be 0 or 1")
    return _density(gamma0, k, math.cosh(math.pi * t))


def _density(gamma0, k, cosh_pt):
    """poisson_density given cosh(pi t), elementwise for an array of them."""
    sign = 1.0 if k == 0 else -1.0
    return math.sin(gamma0 * math.pi) / (
        2.0 * (cosh_pt - sign * math.cos(gamma0 * math.pi)))


def _arctan_measure(c, intervals):
    """Sum over [a, b] of (1/pi) [arctan(tanh(pi t/2) / c)] from a to b, as
    (1/pi) atan2(c (T_b - T_a), c^2 + T_a T_b), T = tanh(pi t/2): unlike the
    plain difference of arctangents, it keeps relative accuracy in the tails."""
    total = 0.0
    for a, b in intervals:
        a = max(a, -TAIL_CUT)
        b = min(b, TAIL_CUT)
        if b <= a:
            continue
        ha, hb = 0.5 * math.pi * a, 0.5 * math.pi * b
        diff = math.sinh(0.5 * math.pi * (b - a)) / (math.cosh(ha) * math.cosh(hb))
        total += math.atan2(c * diff, c * c + math.tanh(ha) * math.tanh(hb))
    return total / math.pi


def boundary_measure(gamma0, A):
    """Harmonic measure of a boundary set, from the closed-form antiderivative."""
    if not 0 < gamma0 < 1:
        raise ValidationError("gamma0 must be in (0, 1), got %r" % (gamma0,))
    return (_arctan_measure(math.tan(0.5 * gamma0 * math.pi), A.intervals0)
            + _arctan_measure(math.tan(0.5 * (1.0 - gamma0) * math.pi),
                              A.intervals1))


def dilate(A):
    """Dilation by a factor 2 in the imaginary direction.

    Doubling keeps merged intervals sorted and disjoint, so the result skips
    _merge; only the outermost endpoints of a line can overflow."""
    out = object.__new__(BoundarySet)
    for line in ("intervals0", "intervals1"):
        ivs = tuple((2 * a, 2 * b) for a, b in getattr(A, line))
        if ivs and not (math.isfinite(ivs[0][0]) and math.isfinite(ivs[-1][1])):
            raise ValidationError("interval endpoints must be finite")
        object.__setattr__(out, line, ivs)
    return out


def doubling_bound(gamma0):
    """The constant 4 / (1 - |cos(gamma0 pi)|) from chaining the density
    equivalences with the factor-2 estimate for the cosh reference measure."""
    return 4.0 / (1.0 - abs(math.cos(gamma0 * math.pi)))


def doubling_ratio(gamma0, A):
    """measure(2.A) / measure(A) together with its proven upper bound."""
    base = boundary_measure(gamma0, A)
    if base <= 1e-12:
        raise ValidationError("boundary set has near-null measure")
    ratio = boundary_measure(gamma0, dilate(A)) / base
    return ratio, doubling_bound(gamma0)


def cosh_measure(A):
    """Reference measure with density 1/cosh(pi t) on both boundary lines:
    (2/pi) arctan(tanh(pi t/2)), twice the harmonic measure at theta = pi/2."""
    return 2.0 * _arctan_measure(1.0, A.intervals0 + A.intervals1)


@dataclass(frozen=True)
class AnalyticFamily:
    """The analytic family z -> d^((1+alpha) z) x d^((1+alpha)(1-z))."""

    d: object   # PositiveDefiniteMatrix
    x: object   # ComplexMatrix or ndarray
    alpha: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        _same_shape(self.d, self.x)


def family_eval(F, z):
    """Evaluate the analytic family at a strip point, 0 <= Re z <= 1."""
    z = complex(z)
    if not -1e-12 <= z.real <= 1.0 + 1e-12:
        raise ValidationError("Re z = %r outside [0, 1]" % (z.real,))
    s = herm_eig(F.d)
    lam = s.eigenvalues
    v = s.vectors
    c = 1.0 + F.alpha
    left = (v * np.exp(c * z * np.log(lam))) @ v.conj().T
    right = (v * np.exp(c * (1.0 - z) * np.log(lam))) @ v.conj().T
    return ComplexMatrix(left @ _as_array(F.x) @ right)


def boundary_norm_profile(F, q, t_grid):
    """Schatten q-norms of F along both boundary lines at the given t values."""
    t_grid = np.asarray(t_grid, dtype=float)
    norms0 = np.array([schatten_norm_from_singular_values(
        singular_values(family_eval(F, 1j * t)), q) for t in t_grid])
    norms1 = np.array([schatten_norm_from_singular_values(
        singular_values(family_eval(F, 1.0 + 1j * t)), q) for t in t_grid])
    return norms0, norms1


@functools.cache
def _gauss_panels():
    """Composite Gauss-Legendre nodes t and weights on [-T, T], 8 nodes on
    each unit panel, 192 in all, and cosh(pi t) at each node; read-only
    arrays, built on first use."""
    T, order = 12.0, 8
    xg, wg = np.polynomial.legendre.leggauss(order)
    mids = np.arange(-T + 0.5, T)
    nodes = (mids[:, None] + 0.5 * xg).ravel()
    # scalar math.cosh, as poisson_density takes it: array np.cosh can
    # differ from it in the last bit
    grid = (nodes, np.tile(0.5 * wg, mids.size),
            np.array([math.cosh(math.pi * t) for t in nodes]))
    for a in grid:
        a.setflags(write=False)
    return grid


class BoundaryGridCache:
    """Singular values of F and F - F(gamma0) on a fixed boundary grid.

    Lets several q-exponents share one set of matrix evaluations.  With
    nodes the 192 grid points t and n the dimension, per line k in (0, 1):
    sv[k] is one (1, n) row, since F(k+it) has the same singular values at
    every node; diff_sv[k] is a (nodes, n) array, row i for
    F(k+it_i) - F(gamma0); weights[k] is the (nodes,) Poisson-weighted
    quadrature weights.  center_sv is the (n,) singular values of F(gamma0).
    """

    def __init__(self, F, gamma0):
        if not 0 < gamma0 < 1:
            raise ValidationError("gamma0 must be in (0, 1)")
        self.gamma0 = gamma0
        self.nodes, wq, cosh_pt = _gauss_panels()
        # work in the eigenbasis of d: F(z) there is the entrywise scaling
        # lam_i^(c z) X'_ij lam_j^(c (1-z)), and Schatten norms are
        # basis-independent
        s = herm_eig(F.d)
        lam, v = s.eigenvalues, s.vectors
        xp = v.conj().T @ _as_array(F.x) @ v
        c = 1.0 + F.alpha

        def f_at(re):  # F at the real strip point re
            return (lam ** (c * re))[:, None] * xp * (lam ** (c * (1 - re)))[None, :]

        center = f_at(gamma0)
        self.center_sv = singular_values(center)
        # F(k+it) = D F(k) D* with D = diag(rot) unitary, rot = lam^(i c t)
        rot = np.exp(1j * c * self.nodes[:, None] * np.log(lam))
        stack = np.empty((len(self.nodes),) + center.shape, dtype=complex)
        self.sv = {}       # k -> (1, n) singular values of F(k+it), any t
        self.diff_sv = {}  # k -> (nodes, n) same for F(k+it) - F(gamma0)
        self.weights = {}  # k -> Poisson-weighted quadrature weights
        for k in (0, 1):
            self.weights[k] = wq * _density(gamma0, k, cosh_pt)
            base = f_at(k)
            self.sv[k] = singular_values(base)[None, :]
            np.multiply(rot[:, :, None], base, out=stack)
            stack *= np.conj(rot)[:, None, :]
            stack -= center
            self.diff_sv[k] = _svdvals(stack)

    def lq_functional(self, q, which):
        """(integral of ||.||_q^q dP)^(1/q) for F or F - F(gamma0)."""
        _check_exponent(q)
        table = self.sv if which == "F" else self.diff_sv
        acc = 0.0
        for k in (0, 1):
            norms = np.array([_power_sum_norm(sv, q) for sv in table[k]])
            acc += float((self.weights[k] * norms ** q).sum())
        return acc ** (1.0 / q)


def convexity_defect(F, gamma0, q, cache=None):
    """Sample upper bound for the complex uniform-convexity constant.

    Returns (||F||^2 - ||F(gamma0)||_q^2) / ||F - F(gamma0)||^2 where both
    boundary functionals use the same fixed quadrature grid.  Degenerate
    (constant) families raise a validation error.
    """
    if not (0 < q <= 2):
        raise ValidationError("q must be in (0, 2], got %r" % (q,))
    if cache is None:
        cache = BoundaryGridCache(F, gamma0)
    dev = cache.lq_functional(q, "diff")
    if dev <= 1e-12:
        raise ValidationError("degenerate family: F is constant on the boundary")
    full = cache.lq_functional(q, "F")
    center = schatten_norm_from_singular_values(cache.center_sv, q)
    return (full ** 2 - center ** 2) / dev ** 2
