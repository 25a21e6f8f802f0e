"""Divided-difference (Loewner) kernels and spectral-projection Schur multipliers.

The central object is the weighted map

    T_{beta,gamma} applied to delta  =  sum_ij k_ij P_i delta P_j

where k_ij is the divided difference of t -> t^gamma on the spectrum of a
positive matrix, weighted by d_i^beta d_j^beta, and P_i are the spectral
projections.  Each multiplier runs over the n eigenvalues, one kernel entry
per eigenvector pair, with the divided difference's derivative convention as
its one rule for near-coincident pairs; mixed two-spectrum multipliers take
a caller-supplied kernel.  group_spectrum is a standalone utility.
"""

from dataclasses import dataclass, field

import numpy as np

from .matcore import (ComplexMatrix, DomainError, HermitianMatrix,
                      ValidationError, _eigh, _positive_spectrum, _same_shape,
                      herm_eig)
from .schatten import _check_alpha

# relative eigenvalue gap below which divided differences switch to the
# derivative convention; the quotient is catastrophic near coincidences
DEGENERATE_GAP = 1e-8

# group_spectrum clusters neighbouring eigenvalues closer than this fraction
# of max|lambda| into one group
CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class TMapParams:
    """Weight exponent beta >= 0 and power gamma in (0, 1)."""

    beta: float
    gamma: float
    alpha: float = field(init=False)

    def __post_init__(self):
        if not self.beta >= 0:
            raise ValidationError("beta must be >= 0, got %r" % (self.beta,))
        if not 0 < self.gamma < 1:
            raise ValidationError("gamma must be in (0, 1), got %r" % (self.gamma,))
        object.__setattr__(self, "alpha", 2.0 * self.beta + self.gamma - 1.0)


def group_spectrum(S):
    """Cluster the ascending eigenvalues of S into eigenspace groups.

    Neighbours whose gap is at most CLUSTER_TOL * max|lambda| (absolute)
    share a group.  Returns (values, cols): the mean eigenvalue of each group
    and the group index of each eigenvector column.  No multiplier uses it.
    """
    return _group_spectrum(S.eigenvalues)


def _group_spectrum(lam):
    """group_spectrum on ascending eigenvalues lam."""
    scale = max(abs(lam[0]), abs(lam[-1]), 1e-300)
    breaks = np.diff(lam) > CLUSTER_TOL * scale
    cols = np.concatenate(([0], breaks.cumsum()))
    edges = [0, *(breaks.nonzero()[0] + 1).tolist(), lam.shape[0]]
    # each group's mean as np.mean computes it (one add.reduce, then one
    # division), without its per-call overhead
    values = np.array([lam[a:b].sum() / (b - a) for a, b in zip(edges, edges[1:])])
    return values, cols


def _divided_difference(a, b, gamma):
    if abs(a - b) <= DEGENERATE_GAP * max(a, b):
        return gamma * (0.5 * (a + b)) ** (gamma - 1.0)
    return (a ** gamma - b ** gamma) / (a - b)


def _loewner_matrix(vals, gamma):
    """_divided_difference on every pair of vals, bit for bit: each power once
    in scalar ** (array ** can differ by an ulp), the quotients as array
    operations, the derivative only at near-coincident pairs."""
    pw = np.array([t ** gamma for t in vals.tolist()])
    diff = np.subtract.outer(vals, vals)
    near = np.abs(diff) <= DEGENERATE_GAP * np.maximum.outer(vals, vals)
    k = np.divide(np.subtract.outer(pw, pw), diff, out=np.empty_like(diff), where=~near)
    i, j = near.nonzero()
    k[i, j] = [gamma * m ** (gamma - 1.0)
               for m in (0.5 * (vals[i] + vals[j])).tolist()]
    return k


def divided_difference_kernel(values, params):
    """Loewner kernel of t -> t^gamma with d_i^beta d_j^beta weights."""
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise DomainError("divided-difference kernel needs positive values")
    w = vals ** params.beta
    return _loewner_matrix(vals, params.gamma) * np.outer(w, w)


def loewner_min_eig(values, gamma):
    """Smallest eigenvalue of the unweighted Loewner matrix of t -> t^gamma."""
    if not 0 < gamma <= 1:
        raise ValidationError("gamma must be in (0, 1], got %r" % (gamma,))
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise DomainError("Loewner matrix needs positive values")
    lam, _ = _eigh(_loewner_matrix(vals, gamma), want_vectors=False)
    return float(lam[0])


def _schur_apply(vl, vr, kernel, delta):
    """sum_ij k_ij P_i delta Q_j computed in the eigenbases vl and vr, as an
    array; kernel[i, j] belongs to column i of vl and column j of vr."""
    return vl @ (kernel * (vl.conj().T @ delta @ vr)) @ vr.conj().T


def _t_map(lam, v, params, delta):
    """t_map of the array delta over the spectrum (lam, v), as an array."""
    return _schur_apply(v, v, divided_difference_kernel(lam, params), delta)


def t_map(d, params, delta):
    """The weighted Loewner-kernel Schur multiplier applied to delta."""
    _, dm = _same_shape(d, delta)
    s = herm_eig(d)
    return ComplexMatrix(_t_map(s.eigenvalues, s.vectors, params, dm))


def unital_cp_map(d, gamma, y):
    """The unital trace-preserving map S = (1/v) T_{(1-v)/2, v} over d^gamma.

    v = 1/(2 gamma); requires gamma in (1/2, 1) so that v < 1.
    """
    if not 0.5 < gamma < 1:
        raise ValidationError("gamma must be in (1/2, 1), got %r" % (gamma,))
    v = 1.0 / (2.0 * gamma)
    _, ym = _same_shape(d, y)
    s = herm_eig(d)
    lam, vecs = _positive_spectrum(s.eigenvalues ** gamma, s.vectors)
    m = _t_map(lam, vecs, TMapParams(beta=(1.0 - v) / 2.0, gamma=v), ym) / v
    return HermitianMatrix(0.5 * (m + m.conj().T))


def mixed_kernel_map(x, y, kernel, delta):
    """sum_ij kernel(x_i, y_j) P_i delta Q_j over two spectra.

    The caller supplies the kernel, including its own convention at near
    coincident eigenvalue pairs.
    """
    _, _, dm = _same_shape(x, y, delta)
    sx, sy = herm_eig(x), herm_eig(y)
    k = np.empty((x.dim, y.dim))
    for i, a in enumerate(sx.eigenvalues):
        for j, b in enumerate(sy.eigenvalues):
            val = kernel(a, b)
            if not np.isfinite(val):
                raise DomainError(
                    "kernel non-finite at eigenvalue pair (%r, %r)" % (a, b))
            k[i, j] = val
    return ComplexMatrix(_schur_apply(sx.vectors, sy.vectors, k, dm))


def rx_kernel(values, alpha):
    """The ratio kernel (a^(1+alpha)+b^(1+alpha)) / ((a+b)(a^alpha+b^alpha))."""
    _check_alpha(alpha)
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise DomainError("ratio kernel needs positive values")
    a = vals[:, None]
    b = vals[None, :]
    return (a ** (1 + alpha) + b ** (1 + alpha)) / ((a + b) * (a ** alpha + b ** alpha))
