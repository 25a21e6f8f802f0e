"""Divided-difference (Loewner) kernels and spectral-projection Schur multipliers.

The central object is the weighted map

    T_{beta,gamma} applied to delta  =  sum_ij k_ij P_i delta P_j

where k_ij is the divided difference of t -> t^gamma on the spectrum of a
positive matrix, weighted by d_i^beta d_j^beta, and P_i are the spectral
projections.  Mixed two-spectrum multipliers share the same engine with a
caller-supplied kernel.
"""

from dataclasses import dataclass, field

import numpy as np

from .matcore import (ComplexMatrix, DomainError, HermitianMatrix,
                      PositiveDefiniteMatrix, ValidationError, _as_array,
                      _eigh, herm_eig)

# relative eigenvalue gap below which divided differences switch to the
# derivative convention; the quotient is catastrophic near coincidences
DEGENERATE_GAP = 1e-8

# neighbouring eigenvalues closer than this fraction of max|lambda| are
# clustered into one group
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

    Neighbours whose gap is at most CLUSTER_TOL * max|lambda| share a group.
    Returns (values, cols): the mean eigenvalue of each group and the group
    index of each eigenvector column.
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
    """The matrix of divided differences of t -> t^gamma on vals, entry by
    entry in scalar arithmetic (array ** can differ from scalar ** by an
    ulp)."""
    n = vals.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            k[i, j] = k[j, i] = _divided_difference(vals[i], vals[j], gamma)
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


def _schur_apply(vl, rows, vr, cols, kernel, delta):
    """sum_ij k_ij P_i delta Q_j computed in the joint eigenbases, as an
    array; rows and cols give the group of each column of vl and vr."""
    d = vl.conj().T @ delta @ vr
    return vl @ (kernel[rows[:, None], cols] * d) @ vr.conj().T


def _t_map(lam, v, params, delta):
    """t_map of the array delta over the spectrum (lam, v), as an array."""
    values, cols = _group_spectrum(lam)
    kernel = divided_difference_kernel(values, params)
    return _schur_apply(v, cols, v, cols, kernel, delta)


def t_map(d, params, delta):
    """The weighted Loewner-kernel Schur multiplier applied to delta."""
    dm = _as_array(delta)
    if dm.shape[0] != d.dim:
        raise ValidationError("dimension mismatch: %d vs %d" % (d.dim, dm.shape[0]))
    s = herm_eig(d)
    return ComplexMatrix(_t_map(s.eigenvalues, s.vectors, params, dm))


def unital_cp_map(d, gamma, y):
    """The unital trace-preserving map S = (1/v) T_{(1-v)/2, v} over d^gamma.

    v = 1/(2 gamma); requires gamma in (1/2, 1) so that v < 1.
    """
    if not 0.5 < gamma < 1:
        raise ValidationError("gamma must be in (1/2, 1), got %r" % (gamma,))
    v = 1.0 / (2.0 * gamma)
    s = herm_eig(d)
    d_gamma = PositiveDefiniteMatrix.from_spectral(s.eigenvalues ** gamma, s.vectors)
    out = t_map(d_gamma, TMapParams(beta=(1.0 - v) / 2.0, gamma=v), _as_array(y))
    m = out.mat / v
    return HermitianMatrix(0.5 * (m + m.conj().T))


def mixed_kernel_map(x, y, kernel, delta):
    """sum_ij kernel(x_i, y_j) P_i delta Q_j over two spectra.

    The caller supplies the kernel, including its own convention at near
    coincident eigenvalue pairs.
    """
    dm = _as_array(delta)
    if dm.shape[0] != x.dim or x.dim != y.dim:
        raise ValidationError("dimension mismatch")
    sx, sy = herm_eig(x), herm_eig(y)
    gx, rows = _group_spectrum(sx.eigenvalues)
    gy, cols = _group_spectrum(sy.eigenvalues)
    k = np.empty((len(gx), len(gy)))
    for i, a in enumerate(gx):
        for j, b in enumerate(gy):
            val = kernel(a, b)
            if not np.isfinite(val):
                raise DomainError(
                    "kernel non-finite at eigenvalue pair (%r, %r)" % (a, b))
            k[i, j] = val
    return ComplexMatrix(_schur_apply(sx.vectors, rows, sy.vectors, cols, k, dm))


def rx_kernel(values, alpha):
    """The ratio kernel (a^(1+alpha)+b^(1+alpha)) / ((a+b)(a^alpha+b^alpha))."""
    if not alpha > 0:
        raise ValidationError("alpha must be positive, got %r" % (alpha,))
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise DomainError("ratio kernel needs positive values")
    a = vals[:, None]
    b = vals[None, :]
    return (a ** (1 + alpha) + b ** (1 + alpha)) / ((a + b) * (a ** alpha + b ** alpha))
