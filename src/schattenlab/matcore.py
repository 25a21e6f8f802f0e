"""Dense complex linear algebra and functional calculus on small matrices.

Everything here operates on square complex matrices of dimension at most 64.
Eigenvalues and singular values come from LAPACK via numpy (eigh and svd),
so results are identical on one machine and BLAS, not across platforms.

The validated classes (ComplexMatrix, HermitianMatrix, PositiveDefiniteMatrix,
SpectralDecomposition) are for input to the public API.  The search computes
on plain arrays through the private helpers below (_positive_spectrum,
_spectral_arrays, _power, _finite, _check_unitary, _svdvals), which the
classes and the public functions share, so each piece of arithmetic exists
once.
"""

import numpy as np

MAX_DIM = 64


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

    def adjoint(self):
        return ComplexMatrix(self._m.conj().T)

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
        lam, v = _eigh(self.mat)
        s = SpectralDecomposition(lam, v)
        if lam[0] <= 1e-12 * lam[-1] or lam[0] <= 0.0:
            raise ValidationError(
                "matrix is not positive definite (min eig %.3e, max eig %.3e)"
                % (lam[0], lam[-1]))
        self._spectral = s

    @classmethod
    def from_spectral(cls, eigenvalues, vectors):
        """Build U diag(lam) U* directly from known positive spectral data.

        Skips the redundant re-diagonalization; used by generators that
        construct d from an explicit spectrum and unitary.
        """
        m, lam, v = _spectral_arrays(eigenvalues, vectors)
        obj = cls.__new__(cls)
        HermitianMatrix.__init__(obj, m)
        obj._spectral = SpectralDecomposition(lam, v)
        return obj

    @property
    def spectral(self):
        return self._spectral


def _as_array(a):
    return a.mat if isinstance(a, ComplexMatrix) else np.asarray(a, dtype=complex)


def _finite(a, error=ValidationError):
    """a itself when all its entries are finite; otherwise raise error."""
    if not np.isfinite(a).all():
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


def _positive_spectrum(eigenvalues, vectors):
    """(lam ascending, V's columns in that order); ValidationError unless lam
    is finite and min lam > 1e-12 max lam > 0."""
    lam = np.asarray(eigenvalues, dtype=float)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    # sorting puts NaN last, so the two ends decide: every comparison with
    # NaN or an infinite end is false
    if not (lam[0] > 0.0 and lam[0] > 1e-12 * lam[-1]):
        raise ValidationError("spectrum not strictly positive definite")
    return lam, np.asarray(vectors, dtype=complex)[:, order]


def _spectral_arrays(eigenvalues, vectors):
    """(V diag(lam) V* symmetrized, lam, V) from _positive_spectrum."""
    lam, v = _positive_spectrum(eigenvalues, vectors)
    m = (v * lam) @ v.conj().T
    return 0.5 * (m + m.conj().T), lam, v


def _power(lam, v, t):
    """V diag(lam^t) V*, symmetrized."""
    m = (v * lam ** t) @ v.conj().T
    return 0.5 * (m + m.conj().T)


def _lapack(routine, a, **kwargs):
    """Run a numpy.linalg routine on finite input; failures raise NumericalError.

    LAPACK answers some non-finite inputs with NaN instead of an error, so
    those are refused before the call.
    """
    if not np.isfinite(a).all():
        raise NumericalError("%s: %s input has non-finite entries"
                             % (routine.__name__, "x".join(map(str, a.shape))))
    try:
        return routine(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("LAPACK %s failed on %s input: %s"
                             % (routine.__name__, "x".join(map(str, a.shape)),
                                exc)) from exc


def _eigh(h, want_vectors=True):
    """Eigenvalues of a Hermitian matrix, ascending, and a unitary of
    eigenvectors (None unless want_vectors)."""
    if want_vectors:
        return _lapack(np.linalg.eigh, h)
    return _lapack(np.linalg.eigvalsh, h), None


def _svdvals(a):
    """Singular values, descending; for a stack of matrices, one row per
    matrix from one call, bit for bit what one call per matrix gives."""
    return _lapack(np.linalg.svd, a, compute_uv=False)


def _svd(a):
    """The SVD a = W diag(sigma) V* as (W, sigma descending, V*)."""
    return _lapack(np.linalg.svd, _as_array(a))


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
    v = S.vectors
    m = (v * vals) @ v.conj().T
    return HermitianMatrix(0.5 * (m + m.conj().T))


def positive_power(d, t):
    """d**t for positive definite d, via the cached eigendecomposition."""
    s = herm_eig(d)
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
    lam = s.eigenvalues
    if np.any(lam <= 0.0):
        raise DomainError("imaginary power needs a strictly positive spectrum")
    phases = np.exp(1j * h * np.log(lam))
    v = s.vectors
    return ComplexMatrix((v * phases) @ v.conj().T)


def anticommutator(d, x):
    """dx + xd."""
    dm, xm = _same_shape(d, x)
    return ComplexMatrix(dm @ xm + xm @ dm)


def commutator(d, x):
    """dx - xd."""
    dm, xm = _same_shape(d, x)
    return ComplexMatrix(dm @ xm - xm @ dm)
