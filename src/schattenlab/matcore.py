"""Dense complex linear algebra and functional calculus on small matrices.

Everything here operates on square complex matrices of dimension at most 64.
Eigenvalues and singular values come from numpy.linalg's own LAPACK gufuncs,
which _lapack calls directly, so results are identical on one machine and
BLAS, not across platforms.

The validated classes (ComplexMatrix, HermitianMatrix, PositiveDefiniteMatrix,
SpectralDecomposition) are for input to the public API.  The search computes
on plain arrays through the private helpers below (_positive_order, _power,
_all_finite, _finite, _check_unitary, _svdvals, ...), which the classes and
the public functions share, so each piece of arithmetic and each rule exists
once.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg

MAX_DIM = 64

# LAPACK's SVD rescales a matrix whose largest entry lies outside about
# [6.7e-139, 1.5e138] by an inexact factor, which moves a small singular
# value by up to eps times the largest; a largest singular value outside
# this range (at most 64 times the largest entry) flags such a matrix
SVD_SAFE_RANGE = (1e-130, 1e130)


class ValidationError(ValueError):
    """Raised when an input matrix violates a structural precondition."""


class DomainError(ValueError):
    """Raised when a scalar function is applied outside its domain."""


class NumericalError(RuntimeError):
    """Raised when a LAPACK routine fails or meets non-finite input."""


class ComplexMatrix:
    """Immutable square complex matrix with finite entries, dim <= 64."""

    __slots__ = ("_m",)

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("expected a square matrix, got shape %s" % (m.shape,))
        n = m.shape[0]
        if n < 1 or n > MAX_DIM:
            raise ValidationError("dimension %d outside [1, %d]" % (n, MAX_DIM))
        _finite(m)
        m.setflags(write=False)
        self._m = m

    @property
    def mat(self):
        return self._m

    @property
    def dim(self):
        return self._m.shape[0]

    def __repr__(self):
        return "%s(dim=%d)" % (type(self).__name__, self.dim)


class HermitianMatrix(ComplexMatrix):
    """Square matrix with A = A* up to 1e-12 relative."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        m = self._m
        scale = 1.0 + np.abs(m).max()
        dev = np.abs(m - m.conj().T).max()
        if dev > 1e-12 * scale:
            raise ValidationError(
                "matrix is not Hermitian (deviation %.3e, allowed %.3e)"
                % (dev, 1e-12 * scale))


class SpectralDecomposition:
    """Eigenvalues (ascending) and a unitary matrix of eigenvectors."""

    __slots__ = ("eigenvalues", "vectors")

    def __init__(self, eigenvalues, vectors):
        lam = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(vectors, dtype=complex)
        if np.any(np.diff(lam) < 0):
            raise ValidationError("eigenvalues must be nondecreasing")
        _check_unitary(v, lam.shape[0])
        lam.setflags(write=False)
        v.setflags(write=False)
        self.eigenvalues = lam
        self.vectors = v

    def reconstruct(self):
        v = self.vectors
        return (v * self.eigenvalues) @ v.conj().T


class PositiveDefiniteMatrix(HermitianMatrix):
    """Hermitian matrix with min eigenvalue > 1e-12 * max eigenvalue.

    The spectral decomposition computed for the positivity check is cached
    and reused by the functional-calculus routines.
    """

    __slots__ = ("_spectral",)

    def __init__(self, entries):
        super().__init__(entries)
        self._spectral = SpectralDecomposition(*_positive_spectrum(*_eigh(self.mat)))

    @classmethod
    def from_spectral(cls, eigenvalues, vectors):
        """Build U diag(lam) U* directly from known positive spectral data.

        Skips the redundant re-diagonalization; used by generators that
        construct d from an explicit spectrum and unitary.
        """
        lam, v = _positive_spectrum(eigenvalues, vectors)
        obj = cls.__new__(cls)
        HermitianMatrix.__init__(obj, _power(lam, v, 1.0))
        obj._spectral = SpectralDecomposition(lam, v)
        return obj

    @property
    def spectral(self):
        return self._spectral


def _as_array(a):
    return a.mat if isinstance(a, ComplexMatrix) else np.asarray(a, dtype=complex)


def _all_finite(a):
    """np.isfinite(a).all() of a float or complex array, exactly, at the cost
    of one BLAS dot product: the real part of vdot(a, a), the sum of |a_i|^2,
    is finite only when every entry is, and when it overflows on finite
    entries (near 1e154 and beyond) the full scan decides."""
    return np.vdot(a, a).real < math.inf or bool(np.isfinite(a).all())


def _finite(a, error=ValidationError):
    """a itself when all its entries are finite; otherwise raise error."""
    if not _all_finite(a):
        raise error("matrix has non-finite entries")
    return a


def _same_shape(*mats):
    """The arrays of mats; ValidationError unless they share one shape."""
    arrays = [_as_array(m) for m in mats]
    if len({a.shape for a in arrays}) > 1:
        raise ValidationError("dimension mismatch: %s"
                              % " vs ".join(str(a.shape) for a in arrays))
    return arrays


def _check_unitary(v, n):
    """Raise ValidationError unless the n columns of v are orthonormal
    (a non-finite entry makes them not orthonormal)."""
    ortho = np.abs(v.conj().T @ v - np.eye(n)).max()
    if not ortho <= 1e-10:
        raise ValidationError("eigenvector matrix not unitary (%.3e)" % ortho)


def _positive_order(eigenvalues):
    """The stable order that sorts eigenvalues ascending; ValidationError
    unless min > 1e-12 max > 0, the package's one positivity rule."""
    order = np.argsort(eigenvalues, kind="stable")
    lo, hi = eigenvalues[order[0]], eigenvalues[order[-1]]
    # sorting puts NaN last, so the two ends decide: every comparison with
    # NaN or an infinite end is false
    if not (lo > 0.0 and lo > 1e-12 * hi):
        raise ValidationError("spectrum not strictly positive definite "
                              "(min eig %.3e, max eig %.3e)" % (lo, hi))
    return order


def _positive_spectrum(eigenvalues, vectors):
    """(lam ascending, V's columns in that order), by _positive_order."""
    lam = np.asarray(eigenvalues, dtype=float)
    order = _positive_order(lam)
    return lam[order], np.asarray(vectors, dtype=complex)[:, order]


def _power(lam, v, t):
    """V diag(lam^t) V*, symmetrized."""
    m = (v * lam ** t) @ v.conj().T
    return 0.5 * (m + m.conj().T)


def _nonconvergence(err, flag):
    raise NumericalError("LAPACK did not converge (%s, flag %d)" % (err, flag))


# each gufunc's float64 and complex128 loop, by the input's dtype character,
# so that a real matrix is never computed as complex
_LOOPS = {(g, t[0]): t for g in (_umath_linalg.svd, _umath_linalg.svd_s,
                                  _umath_linalg.eigh_lo, _umath_linalg.eigvalsh_lo)
          for t in g.types if t[0] in "dD"}


# numpy.linalg's own error state around these gufuncs: a LAPACK failure sets
# the invalid flag, which calls _nonconvergence
@np.errstate(call=_nonconvergence, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _lapack(gufunc, a, error=NumericalError):
    """One of numpy's LAPACK gufuncs on a matrix or a stack, called directly,
    as numpy.linalg calls it; a non-finite entry raises error first, since
    LAPACK answers some with NaN instead of failing."""
    if not _all_finite(a):
        raise error("%s: %s input has non-finite entries"
                    % (gufunc.__name__, "x".join(map(str, a.shape))))
    return gufunc(a, signature=_LOOPS[gufunc, a.dtype.char])


def _eigh(h, want_vectors=True):
    """Eigenvalues of a Hermitian matrix, ascending, and a unitary of
    eigenvectors (None unless want_vectors)."""
    if want_vectors:
        return _lapack(_umath_linalg.eigh_lo, h)
    return _lapack(_umath_linalg.eigvalsh_lo, h), None


def _svd_any_scale(a, compute_uv, error=NumericalError):
    """numpy's SVD of a matrix or a stack, from one LAPACK call; a matrix whose
    largest singular value lies outside SVD_SAFE_RANGE is decomposed again
    as 2^-e m, which is exact, and its singular values scaled back by 2^e,
    so that every SVD in the package is homogeneous at any scale.  A
    non-finite entry raises error; a largest singular value past the float
    range, NumericalError."""
    gufunc = _umath_linalg.svd_s if compute_uv else _umath_linalg.svd
    out = _lapack(gufunc, a, error)
    sig = out[1] if compute_uv else out
    if not sig.size:
        return out
    lo, hi = SVD_SAFE_RANGE
    if sig.ndim == 1:
        top = float(sig[0])
        if lo <= top <= hi or top == 0.0:
            return out
        redo = ...   # the one matrix
    else:
        top = sig[..., 0]
        if lo <= top.min() and top.max() <= hi:
            return out
        redo = (top > hi) | (top < lo) & (top > 0.0)
        top = top[redo]
    if np.isinf(top).any():
        # frexp(inf) has exponent 0: the redo would decompose the same matrix
        raise NumericalError("%s: the largest singular value of a %s input"
                             " overflows" % (gufunc.__name__, "x".join(map(str, a.shape))))
    e = np.clip(np.frexp(top)[1], -1000, 1000)   # 2^+-e stays finite
    again = _lapack(gufunc, a[redo] * np.ldexp(1.0, -e)[..., None, None])
    if compute_uv:
        out[0][redo], out[2][redo] = again[0], again[2]
        again = again[1]
    sig[redo] = again * np.ldexp(1.0, e)[..., None]
    return out


def _svdvals(a, error=NumericalError):
    """Singular values, descending; for a stack of matrices, one row per
    matrix from one call, bit for bit what one call per matrix gives.  A
    non-finite entry raises error, so a caller that forms a matrix for this
    call alone names its class here instead of scanning it first."""
    return _svd_any_scale(a, False, error)


def _svd(a):
    """The SVD a = W diag(sigma) V* as (W, sigma descending, V*); a stack
    gives stacked factors, each matrix's bit for bit its own."""
    return _svd_any_scale(_as_array(a), True)


def herm_eig(A):
    """Eigenvalues (ascending) and unitary eigenvectors of a Hermitian matrix.

    A PositiveDefiniteMatrix returns its cached decomposition.
    """
    if isinstance(A, PositiveDefiniteMatrix):
        return A.spectral
    if not isinstance(A, HermitianMatrix):
        A = HermitianMatrix(_as_array(A))
    lam, v = _eigh(A.mat)
    return SpectralDecomposition(lam, v)


def matrix_function(S, f):
    """Apply a real scalar function to a spectral decomposition: V f(L) V*."""
    try:
        vals = np.array([float(f(lv)) for lv in S.eigenvalues])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError("scalar function undefined on the spectrum: %s" % exc)
    if not np.all(np.isfinite(vals)):
        bad = S.eigenvalues[~np.isfinite(vals)]
        raise DomainError("scalar function non-finite at eigenvalue(s) %s" % bad)
    return HermitianMatrix(_power(vals, S.vectors, 1.0))


def positive_power(d, t):
    """d**t for positive definite d, via the cached eigendecomposition."""
    s = herm_eig(d)
    _positive_order(s.eigenvalues)   # the identity order: they are ascending
    return _power(s.eigenvalues, s.vectors, t)


def polar_decompose(A):
    """Polar decomposition A = U P with P = (A*A)^(1/2) positive semidefinite.

    Both factors come from one SVD A = W S V*: U = W V* and P = V S V*.
    U is unitary; for rank-deficient A it is one of several unitaries with
    A = U P.
    """
    w, sig, vh = _svd(A)
    v = vh.conj().T
    P = (v * sig) @ vh
    return w @ vh, 0.5 * (P + P.conj().T)


def imaginary_power(d, h):
    """The unitary d^(ih) = V diag(exp(i h log lam)) V* for d > 0."""
    s = herm_eig(d)
    _positive_order(s.eigenvalues)
    phases = np.exp(1j * h * np.log(s.eigenvalues))
    v = s.vectors
    return ComplexMatrix((v * phases) @ v.conj().T)

