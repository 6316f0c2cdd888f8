"""Dense eigensolvers in double and extended precision.

Each tier has an eigenvalue-only primitive for the callers that read
nothing else: ``eigvals_double`` (LAPACK without eigenvectors, in the order
of ``eig_dense``) and, for bare matrices, ``eigvals_mp``: Berkowitz's
division-free recurrence gives the characteristic polynomial exactly on the
Gaussian integers of the power-of-two-scaled matrix (a bc family point
brings its own, ``BcModel.eigvals_mp``), and ``_extended_roots`` finds its
roots at ``EXTENDED_BITS`` by the integer fixed-point Aberth iteration of
``poly`` from the double eigenvalues, each rounded once to ``complex``.
The extended tier matters close to a degeneracy, where double-precision
eigenvalues lose half their digits per coalescing level; the perturbation
draws, the metric's reality verdict, the algebraic multiplicity of a
degeneracy classification and the Hermitian demo's extended sweep read
``eigvals_mp``.  ``eigvals_double`` also takes a ``(k, n, n)`` stack and
returns one row per matrix, bit for bit what each matrix gives alone; a
sweep solves its grid in stacked chunks, on several threads at once (the
LAPACK call releases the GIL), and a real stack reaches ``dgeev`` without a
complex copy.  A LAPACK failure is raised as
``ConvergenceError``.  ``eigvalsh_double`` is the double tier of an exactly
Hermitian matrix or stack (the Hermitian demo's sweep): LAPACK's Hermitian
driver, whose values are real by construction.
``eig_dense`` (right eigenvectors of unit 2-norm from ``numpy.linalg.eig``,
left ones as the columns of Y = X^-H, so that Y^H X = I by construction, and
the clusters of the values) serves only the consumers of eigenvectors: the
metric and the coalescence angle of a degeneracy classification.  Eigenvectors
exist in double precision only.

No other module calls LAPACK's nonsymmetric drivers.  Both double solvers
send a matrix whose imaginary parts are all exactly zero to the real
``dgeev`` and any other to ``zgeev``.  The real driver is faster, and a real
matrix's real eigenvalues come back with imaginary part exactly 0.0, the
others in exact conjugate pairs; in a stack the choice is made per matrix.
The double seeds of ``_extended_roots`` stay on the complex driver: real
seeds would move the extended roots it polishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import ConvergenceError, _dyadic_roots, _gaussian_cleared, _rounded
from .scalars import EXTENDED_BITS, RootCluster, cluster_points
from .tridiag import as_array


@dataclass(frozen=True)
class EigResult:
    """Eigentriples of a dense matrix, ascending in (Re, Im).

    ``right[:, i]`` satisfies M x = values[i] x and has unit 2-norm;
    ``left[:, i]`` satisfies y^H M = values[i] y^H, and the columns are
    normalized against each other, Y^H X = I.  Where X is exactly singular
    (LAPACK's vectors of a defective matrix can be parallel to the last
    bit), ``left`` is all NaN.  ``clusters`` are the ``cluster_points`` of
    the values: a member of a cluster of multiplicity > 1 has no
    individually trustworthy eigenvectors.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    clusters: tuple[RootCluster, ...]


def eigvals_double(m) -> np.ndarray:
    """Eigenvalues of a dense matrix in double precision, ascending (Re, Im).

    The double twin of ``eigvals_mp``: LAPACK with no eigenvectors, in the
    order in which ``eig_dense`` reports its values.  Always complex; for a
    real matrix the real eigenvalues have imaginary part exactly 0.0 and the
    others come in exact conjugate pairs.  A ``(k, n, n)`` stack gives a
    ``(k, n)`` array whose row i equals ``eigvals_double(m[i])`` bit for bit:
    a real stack goes to the real driver as it is; of a complex one, the
    matrices with no imaginary part go to the real driver together, the
    others to the complex one.  A LAPACK failure (``LinAlgError``) is raised
    as ``ConvergenceError``.
    """
    try:
        if np.ndim(m) != 3:
            a = as_array(m)
            values = np.linalg.eigvals(a if a.imag.any() else a.real).astype(complex, copy=False)
        elif not np.iscomplexobj(m):
            values = np.linalg.eigvals(m).astype(complex, copy=False)
        else:
            a = np.asarray(m)
            real = ~a.imag.any(axis=(1, 2))
            values = np.empty(a.shape[:2], dtype=complex)
            for rows, stack in ((real, a[real].real), (~real, a[~real])):
                if len(stack):
                    values[rows] = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"double eigensolve failed: {exc}") from exc
    return np.take_along_axis(values, np.lexsort((values.imag, values.real)), axis=-1)


def eigvalsh_double(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or a ``(k, n, n)`` stack of them, in double.

    LAPACK's Hermitian driver (``numpy.linalg.eigvalsh``, which reads the
    lower triangle), ascending and returned as complex with imaginary part
    +0.0, so each row is in the (Re, Im) order of ``eigvals_double``.  A
    LAPACK failure (``LinAlgError``) is raised as ``ConvergenceError``.
    """
    try:
        values = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"double Hermitian eigensolve failed: {exc}") from exc
    return values.astype(complex)


def _eig_double(a: np.ndarray):
    try:
        values, right = np.linalg.eig(a if a.imag.any() else a.real)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"double eigensolve failed: {exc}") from exc
    right = right.astype(complex, copy=False)
    try:
        left = np.linalg.inv(right).conj().T
    except np.linalg.LinAlgError:
        left = np.full_like(right, np.nan)
    return values.astype(complex, copy=False), right, left


def _berkowitz(entries: list[list[tuple[int, int]]]) -> list[tuple[int, int]]:
    """Characteristic polynomial det(x I - m) of a Gaussian-integer matrix.

    Ascending (re, im) coefficients, exact.  Berkowitz's division-free
    recurrence: with r and s the row and column bordering the leading
    k x k block B, and a the new diagonal entry, the polynomial grows by a
    lower-triangular Toeplitz product with
    (1, -a, -r s, -r B s, ..., -r B^(k-1) s).
    """

    def dot(xs, ys):
        re = im = 0
        for (a, b), (c, d) in zip(xs, ys):
            re += a * c - b * d
            im += a * d + b * c
        return re, im

    poly = [(1, 0)]  # descending
    for k in range(len(entries)):
        toeplitz = [(1, 0), (-entries[k][k][0], -entries[k][k][1])]
        col = [entries[i][k] for i in range(k)]
        rows = [entries[i][:k] for i in range(k + 1)]
        for _ in range(k):
            re, im = dot(rows[k], col)
            toeplitz.append((-re, -im))
            col = [dot(rows[i], col) for i in range(k)]
        poly = [
            dot((toeplitz[i - j] for j in range(min(i, k) + 1)), poly[: min(i, k) + 1])
            for i in range(k + 2)
        ]
    return poly[::-1]


def _nudged_seeds(values) -> list[tuple[Fraction, Fraction]]:
    """Each double eigenvalue s moved exactly by 1e-3 * 2^-26 * (1 + |s|) along both axes.

    Exact arithmetic keeps every symmetry of the polynomial: from seeds on
    the real axis the iterates of a real polynomial stay real, and never
    reach a pair off the axis.
    """
    steps = [Fraction(1e-3 * 2.0**-26 * (1 + abs(s))) for s in values]
    return [(Fraction(s.real) + e, Fraction(s.imag) + e) for s, e in zip(values, steps)]


def _extended_roots(coeffs: list[tuple[int, int]], exp2: int, approx: np.ndarray) -> list[complex]:
    """The roots of the Gaussian-integer polynomial ``coeffs``, divided by 2^exp2, at ``EXTENDED_BITS``.

    They are the eigenvalues of a matrix near ``approx`` (a double
    matrix), found by the fixed-point integer Aberth iteration of ``poly``,
    seeded with ``_nudged_seeds`` of the eigenvalues of ``approx`` from the
    complex LAPACK driver, and each rounded once to ``complex``, in the
    order of the seeds.  Raises ``ConvergenceError`` with the unconverged
    subset if any root fails to lock; unpolished roots are never returned.
    """
    seeds = _nudged_seeds(np.linalg.eigvals(approx.astype(complex)))
    roots, scale, _ = _dyadic_roots(coeffs, seeds, EXTENDED_BITS, exp2)
    return [_rounded(root, scale) for root in roots]


def eigvals_mp(m) -> list[complex]:
    """Eigenvalues of a dense matrix at ``EXTENDED_BITS``, in the order of its double ones.

    Every entry is a binary float, so scaled by the lcm D = 2^k of their
    denominators the matrix has Gaussian-integer entries; ``_berkowitz``
    gives its characteristic polynomial exactly, whose roots are 2^k times
    the eigenvalues, and ``_extended_roots`` finds them.
    """
    a = as_array(m)
    n = len(a)
    flat, d = _gaussian_cleared(a.ravel())
    return _extended_roots(_berkowitz([flat[i * n : (i + 1) * n] for i in range(n)]), d.bit_length() - 1, a)


def eig_dense(m) -> EigResult:
    """Eigenvalues plus right and left eigenvectors of a dense matrix, and the clusters of its values."""
    values, right, left = _eig_double(as_array(m))
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    return EigResult(values, right[:, order], left[:, order], cluster_points(values))
