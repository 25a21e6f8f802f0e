"""Unit-strip boundary machinery: Poisson densities, boundary measures,
set dilation, the doubling inequality, and the convexity-defect estimate.

The strip is {0 < Re z < 1} with boundary lines at Re z = 0 and Re z = 1.
Harmonic measure seen from the interior point gamma0 has the explicit
density sin(gamma0 pi) / (2 (cosh(pi t) - (-1)^k cos(gamma0 pi))) on the
line Re z = k, with antiderivative (1/pi) arctan(tanh(pi t/2) / tan(theta/2)),
theta = gamma0 pi on Re z = 0 and (1 - gamma0) pi on Re z = 1; the lines
carry masses 1 - gamma0 and gamma0.  The rules gamma0 in (0, 1) and, for
the convexity defect, q in (0, 2] are checked here and nowhere else.

The analytic family F is held in the eigenbasis of d that AnalyticFamily
computes once; family_eval and BoundaryGridCache both read it there.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matcore import ComplexMatrix, NumericalError, ValidationError, _svdvals
from .mazur import _eigen_args
from .schatten import (_check_alpha, _check_exponent, _power_sum_norm,
                       _power_sum_norms, singular_values)

# tail truncation for unbounded boundary integrals: the density at |t| = 40
# is below 1e-54, far under every tolerance used here
TAIL_CUT = 40.0
_HALF_PI = 0.5 * math.pi
# convexity_defect refuses a family whose boundary deviation from F(gamma0)
# is at most this share of ||F||: rounding alone leaves about 1e-16 of ||F||
DEGENERATE_REL = 1e-12


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


def _merge_rows(a, b, used):
    """_merge of every row of (L, 3) interval slots [a, b] at once, the
    slots where the bool mask `used` is False left out.

    Returns the merged starts and ends of all rows, row after row, as two
    flat arrays, and the (L,) count of merged intervals in each row.  The
    used slots are sorted by (start, end) with the three compare-exchanges
    of a stable 3-slot network, so ties go by end as sorted() takes them;
    a sorted slot then joins the interval before it when its start is at
    most the running maximum of the ends, as in _merge.  a and b are
    overwritten, so a whole batch of slots takes no second copy.
    """
    a[~used] = math.inf
    b[~used] = math.inf
    bad = used & ~(np.isfinite(a) & np.isfinite(b))
    if bad.any():
        raise ValidationError("interval endpoints must be finite")
    if (b < a).any():
        raise ValidationError("an interval ends before it starts")
    # unused slots are (inf, inf) and sort after every used one
    for i, j in ((0, 1), (1, 2), (0, 1)):
        ai, aj, bi, bj = a[:, i], a[:, j], b[:, i], b[:, j]
        swap = (ai > aj) | ((ai == aj) & (bi > bj))
        a[:, i], a[:, j] = np.where(swap, aj, ai), np.where(swap, ai, aj)
        b[:, i], b[:, j] = np.where(swap, bj, bi), np.where(swap, bi, bj)
    # sorted, the used slots lead each row
    used = a < math.inf
    top = np.maximum.accumulate(b, axis=1, out=b)
    opens = used.copy()
    opens[:, 1:] &= a[:, 1:] > top[:, :-1]
    # a used slot closes its interval when the next slot opens one or is unused
    closes = used.copy()
    closes[:, :-1] &= opens[:, 1:] | ~used[:, 1:]
    return a[opens], top[closes], opens.sum(axis=1)


@dataclass(frozen=True, init=False)
class BoundarySet:
    """Finite union of closed intervals on the two boundary lines, each line
    held as sorted, disjoint intervals."""

    intervals0: tuple
    intervals1: tuple

    def __init__(self, intervals0=(), intervals1=()):
        object.__setattr__(self, "intervals0", _merge(intervals0))
        object.__setattr__(self, "intervals1", _merge(intervals1))

    @classmethod
    def _of_merged(cls, intervals0, intervals1):
        """The set of lines that are already merged and valid: tuples of
        (a, b) float pairs, finite, a <= b, sorted and disjoint."""
        out = cls.__new__(cls)
        # the frozen __setattr__ refuses; the fields live in the instance dict
        fields = out.__dict__
        fields["intervals0"], fields["intervals1"] = intervals0, intervals1
        return out

    @staticmethod
    def full():
        return BoundarySet(((-TAIL_CUT, TAIL_CUT),), ((-TAIL_CUT, TAIL_CUT),))


def _check_gamma0(gamma0):
    if not 0 < gamma0 < 1:
        raise ValidationError("gamma0 must be in (0, 1), got %r" % (gamma0,))


def _check_defect_q(q):
    if not 0 < q <= 2:
        raise ValidationError("q must be in (0, 2], got %r" % (q,))


def poisson_density(gamma0, k, t):
    """Harmonic-measure density on the boundary line Re z = k."""
    _check_gamma0(gamma0)
    if k not in (0, 1):
        raise ValidationError("k must be 0 or 1")
    return _density(gamma0, k, math.cosh(math.pi * t))


def _density(gamma0, k, cosh_pt):
    """poisson_density given cosh(pi t), elementwise for an array of them."""
    sign = 1.0 if k == 0 else -1.0
    return math.sin(gamma0 * math.pi) / (
        2.0 * (cosh_pt - sign * math.cos(gamma0 * math.pi)))


def _arctan_measure(c, cc, intervals, sinh=math.sinh, cosh=math.cosh,
                    tanh=math.tanh, atan2=math.atan2, half_pi=_HALF_PI,
                    lo=-TAIL_CUT, hi=TAIL_CUT):
    """Sum over [a, b] of (1/pi) [arctan(tanh(pi t/2) / c)] from a to b, as
    (1/pi) atan2(c (T_b - T_a), c^2 + T_a T_b), T = tanh(pi t/2), cc = c^2:
    unlike the plain difference of arctangents, it keeps relative accuracy in
    the tails.  The defaults, which no caller passes, bind the functions and
    the tail clip [lo, hi] as locals for the doubling check's tens of
    thousands of calls; keyword-only defaults would cost a dict lookup each."""
    total = 0.0
    for a, b in intervals:
        if a < lo:
            a = lo
        if b > hi:
            b = hi
        if b <= a:
            continue
        ha, hb = half_pi * a, half_pi * b
        diff = sinh(half_pi * (b - a)) / (cosh(ha) * cosh(hb))
        total += atan2(c * diff, cc + tanh(ha) * tanh(hb))
    return total / math.pi


# gamma0 -> its line constants, for at most 64 gamma0; only a gamma0 that
# passed _check_gamma0 enters
_LINE_CONSTANTS = {}


def _line_constants(gamma0):
    """(c, c^2) on Re z = 0 and on Re z = 1, c = tan(theta/2): the constants
    of _arctan_measure, checked and cached per gamma0 by value."""
    _check_gamma0(gamma0)
    c0 = math.tan(0.5 * gamma0 * math.pi)
    c1 = math.tan(0.5 * (1.0 - gamma0) * math.pi)
    lines = c0, c0 * c0, c1, c1 * c1
    if len(_LINE_CONSTANTS) < 64:
        # by value: a float and an np.float64 share it, and an unhashable
        # 0-d array gamma0, never found, takes this path on every call
        _LINE_CONSTANTS[float(gamma0)] = lines
    return lines


def boundary_measure(gamma0, A):
    """Harmonic measure of a boundary set, from the closed-form antiderivative."""
    try:
        c0, cc0, c1, cc1 = _LINE_CONSTANTS[gamma0]
    except (KeyError, TypeError):
        c0, cc0, c1, cc1 = _line_constants(gamma0)
    return _arctan_measure(c0, cc0, A.intervals0) + _arctan_measure(c1, cc1, A.intervals1)


def _doubled(intervals):
    ivs = tuple([(2 * a, 2 * b) for a, b in intervals])
    if ivs and not (math.isfinite(ivs[0][0]) and math.isfinite(ivs[-1][1])):
        raise ValidationError("interval endpoints must be finite")
    return ivs


def dilate(A):
    """Dilation by a factor 2 in the imaginary direction.

    Doubling keeps merged intervals sorted and disjoint, so the result skips
    _merge; only the outermost endpoints of a line can overflow."""
    return BoundarySet._of_merged(_doubled(A.intervals0), _doubled(A.intervals1))


def doubling_bound(gamma0):
    """The constant 4 / (1 - |cos(gamma0 pi)|) from chaining the density
    equivalences with the factor-2 estimate for the cosh reference measure."""
    return 4.0 / (1.0 - abs(math.cos(gamma0 * math.pi)))


def _doubling_ratio(gamma0, A, A2):
    """measure(A2) / measure(A), A2 the dilation of A."""
    base = boundary_measure(gamma0, A)
    if base <= 1e-12:
        raise ValidationError("boundary set has near-null measure")
    return boundary_measure(gamma0, A2) / base


def doubling_ratio(gamma0, A):
    """measure(2.A) / measure(A) together with its proven upper bound."""
    return _doubling_ratio(gamma0, A, dilate(A)), doubling_bound(gamma0)


def cosh_measure(A):
    """Reference measure with density 1/cosh(pi t) on both boundary lines:
    (2/pi) arctan(tanh(pi t/2)), twice the harmonic measure at theta = pi/2."""
    return 2.0 * _arctan_measure(1.0, 1.0, A.intervals0 + A.intervals1)


class AnalyticFamily:
    """The analytic family z -> d^((1+alpha) z) x d^((1+alpha)(1-z)), kept as
    lam ascending, v, vh = v* and xp = v* x v from d = v diag(lam) v*,
    computed once."""

    __slots__ = ("lam", "v", "vh", "xp", "alpha")

    def __init__(self, d, x, alpha):
        _check_alpha(alpha)
        self.lam, self.v, self.xp = _eigen_args(d, x)
        self.vh = self.v.conj().T
        self.alpha = alpha

    @classmethod
    def _of_eigenbasis(cls, lam, xp, alpha):
        """The family of d = diag(lam) and x = xp, v the identity, from data
        that is already valid: lam ascending and positive, alpha checked."""
        fam = cls.__new__(cls)
        fam.lam, fam.xp, fam.alpha = lam, xp, alpha
        fam.v = np.eye(lam.size, dtype=complex)
        fam.vh = fam.v.conj().T
        return fam

    def eig_at(self, z):
        """v* F(z) v = lam_i^(c z) xp_ij lam_j^(c (1-z)), c = 1 + alpha."""
        c = 1.0 + self.alpha
        return (self.lam ** (c * z))[:, None] * self.xp * (self.lam ** (c * (1 - z)))[None, :]


def family_eval(F, z):
    """Evaluate the analytic family at a strip point, 0 <= Re z <= 1."""
    z = complex(z)
    if not -1e-12 <= z.real <= 1.0 + 1e-12:
        raise ValidationError("Re z = %r outside [0, 1]" % (z.real,))
    return ComplexMatrix(F.v @ F.eig_at(z) @ F.vh)


def boundary_norm_profile(F, q, t_grid):
    """Schatten q-norms of F along both boundary lines at the given t values.

    F is evaluated at every node; the singular values of all the nodes come
    from one stacked SVD and their norms from one stacked norm."""
    _check_exponent(q)
    t_grid = np.asarray(t_grid, dtype=float)
    mats = ([family_eval(F, 1j * t).mat for t in t_grid]
            + [family_eval(F, 1.0 + 1j * t).mat for t in t_grid])
    # reshape keeps an empty grid a (0, n, n) stack
    n = F.lam.size
    norms = _power_sum_norms(_svdvals(np.array(mats).reshape(-1, n, n)), q)
    return norms[:t_grid.size], norms[t_grid.size:]


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
    nodes the 192 grid points t, n the dimension and line k = 0, 1 on axis 0:
    sv is (2, n), row k the singular values of F(k+it), the same at every t;
    diff_sv is (2, nodes, n), row [k, i] for F(k+it_i) - F(gamma0);
    weights is (2, nodes), the Poisson-weighted quadrature weights.
    center_sv is the (n,) singular values of F(gamma0).
    """

    def __init__(self, F, gamma0):
        _check_gamma0(gamma0)
        self.gamma0 = gamma0
        self.nodes, wq, cosh_pt = _gauss_panels()
        self.weights = np.stack([wq * _density(gamma0, k, cosh_pt) for k in (0, 1)])
        # Schatten norms are basis-independent, so every table is built from
        # F in d's eigenbasis
        center = F.eig_at(gamma0)
        self.center_sv = singular_values(center)
        base = np.stack([F.eig_at(k) for k in (0, 1)])
        self.sv = _svdvals(base)
        # F(k+it) = D F(k) D* with D = diag(rot) unitary, rot = lam^(i c t)
        rot = np.exp(1j * (1.0 + F.alpha) * self.nodes[:, None] * np.log(F.lam))
        stack = rot[None, :, :, None] * base[:, None]
        stack *= np.conj(rot)[None, :, None, :]
        stack -= center
        self.diff_sv = _svdvals(stack)


def convexity_defect(cache, q):
    """Sample upper bound for the complex uniform-convexity constant.

    Returns (||F||^2 - ||F(gamma0)||_q^2) / ||F - F(gamma0)||^2 for the
    family F and the point gamma0 of the BoundaryGridCache, the boundary
    norms being (integral of ||.||_q^q dP)^(1/q).  ||F||_q is constant on
    each line, so the F term takes the exact line masses, which the grid's
    weights miss (by 1.6e-3 at gamma0 = 0.9); only F - F(gamma0) is
    integrated on the grid.  Degenerate (constant) families, where
    ||F - F(gamma0)|| <= DEGENERATE_REL ||F||, raise a validation error; a
    power that overflows raises NumericalError.
    """
    _check_defect_q(q)
    acc = 0.0
    with np.errstate(over="ignore"):
        for weights, norms in zip(cache.weights, _power_sum_norms(cache.diff_sv, q)):
            acc += float((weights * norms ** q).sum())
    try:
        dev = acc ** (1.0 / q)
        full = ((1.0 - cache.gamma0) * _power_sum_norm(cache.sv[0], q) ** q
                + cache.gamma0 * _power_sum_norm(cache.sv[1], q) ** q) ** (1.0 / q)
        # relative to ||F||, so the test does not depend on the scale of x;
        # an infinite ||F|| is the overflow below, not a degenerate family
        if dev <= DEGENERATE_REL * full < math.inf:
            raise ValidationError("degenerate family: F is constant on the boundary")
        center = _power_sum_norm(cache.center_sv, q)
        defect = (full ** 2 - center ** 2) / dev ** 2
    except OverflowError:
        defect = math.nan
    # an overflow in the array powers leaves acc infinite and defect 0
    if not (math.isfinite(acc) and math.isfinite(defect)):
        raise NumericalError("convexity defect at q = %r: a power of the "
                             "boundary norms overflows" % (q,))
    return defect
