"""Dense eigensolvers in double and extended precision.

Each tier has an eigenvalue-only primitive for the callers that read
nothing else: ``eigvals_double`` (LAPACK without eigenvectors, in the order
of ``eig_dense``) and, for bare matrices, ``eigvals_mp``, which runs on
Python ints from the double matrix to the rounded roots: Berkowitz's
division-free recurrence gives the characteristic polynomial exactly on the
Gaussian integers of the power-of-two-scaled matrix (a bc family point
brings its own, ``BcModel.eigvals_mp``), and ``_extended_roots`` finds its
roots at ``EXTENDED_BITS`` by the integer fixed-point Aberth iteration of
``poly``, seeded from the double eigenvalues, each rounded once to ``complex``.
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

import math
from dataclasses import dataclass

import numpy as np

from .poly import ConvergenceError, _dyadic_roots, _rounded
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


def _gaussian_cleared(a: np.ndarray) -> tuple[list[int], list[int], int]:
    """The Gaussian integers 2^k a of a complex array of binary floats, row-major, as (re, im, k).

    Each part num / 2^q (``float.as_integer_ratio``) is shifted to 2^k, the
    largest 2^q; an infinite or NaN part raises ``ValueError``.
    """
    parts = np.ascontiguousarray(a, dtype=complex).view(float).ravel().tolist()  # re, im interleaved
    try:
        ratios = [x.as_integer_ratio() for x in parts]
    except (OverflowError, ValueError):
        raise ValueError(f"{next(x for x in parts if not math.isfinite(x))} has no exact rational value") from None
    k = max((den for _, den in ratios), default=1).bit_length()
    ints = [num << k - den.bit_length() for num, den in ratios]
    return ints[0::2], ints[1::2], k - 1


def _berkowitz(re: list[int], im: list[int], n: int) -> list[tuple[int, int]]:
    """Characteristic polynomial det(x I - m) of the n x n Gaussian-integer matrix re + i im (row-major).

    Ascending (re, im) coefficients, exact.  Berkowitz's division-free
    recurrence: with r and s the row and column bordering the leading
    k x k block B, and a the new diagonal entry, the polynomial grows by a
    lower-triangular Toeplitz product with
    (1, -a, -r s, -r B s, ..., -r B^(k-1) s); B^k s is never formed.
    """
    pr, pi = [1], [0]  # descending
    for k in range(n):
        rows = [(re[i * n : i * n + k], im[i * n : i * n + k]) for i in range(k + 1)]  # B's, then r
        sr, si = re[k : k * n : n], im[k : k * n : n]
        tr, ti = [1, -re[k * n + k]], [0, -im[k * n + k]]
        for step in range(k):
            # (B; r) B^step s: B^(step+1) s, then the Toeplitz entry's r B^step s (alone at the last step)
            nr, ni = [], []
            for br, bi in rows[k if step == k - 1 else 0 :]:
                ur = ui = 0
                for a, b, c, d in zip(br, bi, sr, si):
                    ur += a * c - b * d
                    ui += a * d + b * c
                nr.append(ur)
                ni.append(ui)
            sr, si = nr, ni
            tr.append(-ur)
            ti.append(-ui)
        pr, pi, qr, qi = pr + [0], pi + [0], [], []
        for i in range(k + 2):
            ur, ui = pr[i], pi[i]  # tr[0] = 1
            for a, b, c, d in zip(tr[i:0:-1], ti[i:0:-1], pr, pi):
                ur += a * c - b * d
                ui += a * d + b * c
            qr.append(ur)
            qi.append(ui)
        pr, pi = qr, qi
    return list(zip(pr, pi))[::-1]


def _extended_roots(coeffs: list[tuple[int, int]], exp2: int, approx: np.ndarray) -> list[complex]:
    """The roots of the Gaussian-integer polynomial ``coeffs``, divided by 2^exp2, at ``EXTENDED_BITS``.

    They are the eigenvalues of a matrix near ``approx`` (a double
    matrix), found by the fixed-point integer Aberth iteration of
    ``poly._dyadic_roots`` from the eigenvalues of ``approx`` by the complex
    LAPACK driver, and each rounded once to ``complex``, in the order of
    the seeds.  Raises ``ConvergenceError`` with the unconverged subset if
    any root fails to lock, and for a seed beyond the double range;
    unpolished roots are never returned.
    """
    seeds = np.linalg.eigvals(approx.astype(complex))
    if not np.isfinite(seeds).all():
        raise ConvergenceError("a double eigenvalue beyond the double range seeds no extended root")
    roots, scale, _ = _dyadic_roots(coeffs, seeds, EXTENDED_BITS, exp2)
    return [_rounded(root, scale) for root in roots]


def eigvals_mp(m) -> list[complex]:
    """Eigenvalues of a dense matrix at ``EXTENDED_BITS``, in the order of its double ones.

    Every entry is a binary float, so scaled by their largest denominator
    2^k the matrix has Gaussian-integer entries (``_gaussian_cleared``; an
    infinite or NaN entry is a ``ValueError``); ``_berkowitz`` gives its
    characteristic polynomial exactly, whose roots are 2^k times the
    eigenvalues, and ``_extended_roots`` finds them, all on ints.
    """
    a = as_array(m)
    re, im, k = _gaussian_cleared(a)
    return _extended_roots(_berkowitz(re, im, len(a)), k, a)


def eig_dense(m) -> EigResult:
    """Eigenvalues plus right and left eigenvectors of a dense matrix, and the clusters of its values."""
    values, right, left = _eig_double(as_array(m))
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    return EigResult(values, right[:, order], left[:, order], cluster_points(values))
