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

# default relative tolerance for clustering eigenvalues into groups
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


class EigenGrouping:
    """Tolerance-clustered eigenspaces: representative values and the
    eigenvector columns spanning each group."""

    __slots__ = ("values", "indices", "vectors", "dim")

    def __init__(self, values, indices, vectors, dim):
        self.values = values            # representative eigenvalue per group
        self.indices = indices          # eigenvector-column indices per group
        self.vectors = vectors          # eigenvector matrix of the source
        self.dim = dim

    def __len__(self):
        return len(self.values)


def group_spectrum(S, tol=CLUSTER_TOL):
    """Cluster eigenvalues within relative distance tol into eigenspace groups."""
    if not tol > 0:
        raise ValidationError("clustering tolerance must be positive")
    lam = S.eigenvalues
    v = S.vectors
    n = lam.shape[0]
    scale = max(abs(lam[0]), abs(lam[-1]), 1e-300)
    groups = []
    start = 0
    for i in range(1, n + 1):
        if i == n or lam[i] - lam[i - 1] > tol * max(scale, abs(lam[i])):
            groups.append(list(range(start, i)))
            start = i
    values = np.array([lam[g].mean() for g in groups])
    return EigenGrouping(values, groups, v, n)


def _divided_difference(a, b, gamma):
    if abs(a - b) <= DEGENERATE_GAP * max(a, b):
        return gamma * (0.5 * (a + b)) ** (gamma - 1.0)
    return (a ** gamma - b ** gamma) / (a - b)


def divided_difference_kernel(values, params):
    """Loewner kernel of t -> t^gamma with d_i^beta d_j^beta weights."""
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise DomainError("divided-difference kernel needs positive values")
    gamma, beta = params.gamma, params.beta
    n = vals.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            k[i, j] = k[j, i] = _divided_difference(vals[i], vals[j], gamma)
    w = vals ** beta
    return k * np.outer(w, w)


def loewner_min_eig(values, gamma):
    """Smallest eigenvalue of the unweighted Loewner matrix of t -> t^gamma."""
    if not 0 < gamma <= 1:
        raise ValidationError("gamma must be in (0, 1], got %r" % (gamma,))
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise DomainError("Loewner matrix needs positive values")
    n = vals.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            if gamma == 1.0:
                k[i, j] = k[j, i] = 1.0
            else:
                k[i, j] = k[j, i] = _divided_difference(vals[i], vals[j], gamma)
    lam, _ = _eigh(k, want_vectors=False)
    return float(lam[0])


def _schur_apply(grouping_left, grouping_right, kernel_matrix, delta):
    """sum_ij k_ij P_i delta Q_j computed in the joint eigenbases."""
    vl = grouping_left.vectors
    vr = grouping_right.vectors
    d = vl.conj().T @ _as_array(delta) @ vr
    # expand the group-level kernel to eigenvector columns
    n_l, n_r = grouping_left.dim, grouping_right.dim
    k = np.empty((n_l, n_r))
    for gi, idx_i in enumerate(grouping_left.indices):
        for gj, idx_j in enumerate(grouping_right.indices):
            k[np.ix_(idx_i, idx_j)] = kernel_matrix[gi, gj]
    return ComplexMatrix(vl @ (k * d) @ vr.conj().T)


def t_map(d, params, delta, tol=CLUSTER_TOL):
    """The weighted Loewner-kernel Schur multiplier applied to delta."""
    dm = _as_array(delta)
    if dm.shape[0] != d.dim:
        raise ValidationError("dimension mismatch: %d vs %d" % (d.dim, dm.shape[0]))
    grouping = group_spectrum(herm_eig(d), tol)
    kernel = divided_difference_kernel(grouping.values, params)
    return _schur_apply(grouping, grouping, kernel, dm)


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
    gx = group_spectrum(herm_eig(x))
    gy = group_spectrum(herm_eig(y))
    k = np.empty((len(gx), len(gy)))
    for i, a in enumerate(gx.values):
        for j, b in enumerate(gy.values):
            val = kernel(a, b)
            if not np.isfinite(val):
                raise DomainError(
                    "kernel non-finite at eigenvalue pair (%r, %r)" % (a, b))
            k[i, j] = val
    return _schur_apply(gx, gy, k, dm)


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
