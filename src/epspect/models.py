"""Constructors for the three matrix families and the coupling parameterizations.

* ``epn_matrix``      -- tridiagonal family whose whole spectrum coalesces at
  t = 0 into an exceptional point of maximal order (EPN);
* ``bc_matrix``       -- discrete Laplacian with boundary-controlled complex
  corner couplings z and conj(z);
* ``hermitian_demo``  -- seeded random Hermitian pencil A + t*B used to
  exhibit avoided crossings.

Each solvable family has one exact characteristic polynomial, kept here:
``epn_secular``, and the bc corner decomposition ``bc_secular_parts``, which
``secular_in_y`` and ``bc_secular_at`` alone assemble into A(E, y) + r^2 B(E).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .core import ConvergenceError, DenseMatrix, Polynomial, as_fraction, charpoly_from_parts
from .core import eigvals_double, eigvalsh_double, eigvals_mp
from .core.eig import _extended_roots
from .core.poly import _cleared


# --------------------------------------------------------------------------
# coupling parameterizations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Robin:
    """z = 1/(1 - beta*h - i*alpha*h); h is an inessential real scale."""

    alpha: float
    beta: float
    h: float = 1.0


@dataclass(frozen=True)
class Circle:
    """z = i*sqrt(1 - r^2); |r| <= 1 keeps z on the unit half-circle."""

    r: float


@dataclass(frozen=True)
class ShiftedCircle:
    """z = y + i*sqrt(1 - r^2)."""

    y: float
    r: float


@dataclass(frozen=True)
class Explicit:
    z: complex


ZParam = Union[Robin, Circle, ShiftedCircle, Explicit]


def z_value(param: ZParam) -> complex:
    """Evaluate a coupling parameterization to a complex number.

    The square root is the principal complex branch, so |r| > 1 is allowed
    and yields a real-shifted coupling (a Hermitian matrix); the in-model
    region is |r| <= 1.
    """
    if isinstance(param, Robin):
        den = 1.0 - param.beta * param.h - 1j * param.alpha * param.h
        if den == 0:
            raise ValueError("Robin coupling undefined: 1 - beta*h - i*alpha*h = 0")
        return 1.0 / den
    if isinstance(param, Circle):
        return 1j * cmath.sqrt(1.0 - param.r * param.r)
    if isinstance(param, ShiftedCircle):
        return param.y + 1j * cmath.sqrt(1.0 - param.r * param.r)
    if isinstance(param, Explicit):
        return complex(param.z)
    raise TypeError(f"not a coupling parameterization: {param!r}")


def in_model(param: ZParam) -> bool:
    """True when the parameterization lies in its documented real-r domain."""
    if isinstance(param, (Circle, ShiftedCircle)):
        return abs(param.r) <= 1.0
    return True


# --------------------------------------------------------------------------
# matrix families
# --------------------------------------------------------------------------


def _epn_weight_sq(n: int, k: int) -> int:
    return (k + 1) * (n - k - 1)


def epn_matrix(n: int, t: float) -> DenseMatrix:
    """N-level family with a maximal-order exceptional point at t = 0.

    With tau = 1 - t and shift = 8*sqrt(1 - tau^2):
    diag_k = (2k - n + 1) + shift, sup_k = +sqrt((k+1)(n-k-1))*tau,
    sub_k = -sup_k.  The spectrum is (2k - n + 1 + 8)*sqrt(1 - tau^2): real
    and positive on t in (0, 1] for n <= 8, fully degenerate at t = 0, and
    purely non-real for t < 0 (the shift turns imaginary; the principal
    square root is used for t outside [0, 2]).  The matrix is
    ``EpnModel(n).matrix(t)``; an entry beyond double range raises
    ``DenseMatrix``'s ``ValueError``.
    """
    return DenseMatrix(EpnModel(n).matrix(t))


@lru_cache(maxsize=None)
def epn_secular(n: int) -> tuple[Polynomial, ...]:
    """E-coefficients of det(M(t) - E) in u = E - 8*sqrt(1 - q), q = (1 - t)^2.

    The shift is common to the whole diagonal, so in u the minor recurrence
    runs over Q[q] with diagonal 2k - n + 1 and products -(k+1)(n-k-1)*q;
    coefficient k of the returned tuple is the exact polynomial in q that
    multiplies u^k.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    prev, cur = (), (Polynomial([1]),)
    for k in range(n):
        d = Polynomial([2 * k - n + 1])
        nxt = [d * c for c in cur] + [Polynomial.zero()]
        for j, c in enumerate(cur):
            nxt[j + 1] = nxt[j + 1] - c
        w = Polynomial([0, _epn_weight_sq(n, k - 1)])
        for j, c in enumerate(prev):
            nxt[j] = nxt[j] + w * c
        prev, cur = cur, tuple(nxt)
    return cur


def _sqrt_double(y: Fraction) -> float:
    """sqrt(y), y >= 0, correctly rounded to double; ``OverflowError`` beyond double range.

    m = floor(sqrt(y) 2^s) has at least 55 bits, so no double and no midpoint
    between two lies strictly between m and m + 1: m / 2^s rounds as sqrt(y)
    where the root is exact, (m + 1/2) / 2^s where it is not.
    """
    s = max(0, 56 - (y.numerator.bit_length() - y.denominator.bit_length()) // 2)
    n, rem = divmod(y.numerator << 2 * s, y.denominator)
    m = math.isqrt(n)
    return (2 * m + (rem != 0 or m * m != n)) / (1 << s + 1)


@lru_cache(maxsize=None)
def bc_secular_parts(n: int) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
    """Exact decomposition det(R - E) = c0 + c1*z + c2*conj(z) + c3*z*conj(z).

    Obtained by evaluating the characteristic-polynomial recurrence at the
    four corner assignments (z, conj z) in {0,1}^2, which is exact because
    all remaining entries are integers.  By the reversal symmetry of the
    matrix c1 == c2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")

    def corner_poly(u: int, v: int) -> Polynomial:
        # the recurrence runs on ints; the parts carry Fraction coefficients
        diag = [2 - u] + [2] * (n - 2) + [2 - v]
        return Polynomial([Fraction(c) for c in charpoly_from_parts(diag, [1] * (n - 1)).coeffs])

    p00, p10, p01, p11 = (corner_poly(u, v) for u, v in ((0, 0), (1, 0), (0, 1), (1, 1)))
    c1, c2 = p10 - p00, p01 - p00
    assert c1 == c2, "corner symmetry violated"
    return p00, c1, c2, p11 - p10 - p01 + p00


@lru_cache(maxsize=None)
def secular_in_y(n: int) -> tuple[Polynomial, ...]:
    """E-coefficients of A(E, y) = det(R - E) at r = 0, as polynomials in y.

    Coefficient k is c0_k + (c1_k + c2_k)*y + c3_k*(y^2 + 1).
    """
    c0, c1, c2, c3 = (list(c.coeffs) + [0] * (n + 1 - len(c.coeffs)) for c in bc_secular_parts(n))
    return tuple(Polynomial([c0[k] + c3[k], c1[k] + c2[k], c3[k]]) for k in range(n + 1))


def bc_secular_at(n: int, y: Fraction) -> tuple[Polynomial, Polynomial]:
    """(A, B) with det(M - E) = A(E) + r^2 B(E) at the exact shift y: ``secular_in_y`` at y, and B = -c3, free of y."""
    return Polynomial([c(y) for c in secular_in_y(n)]), -bc_secular_parts(n)[3]


def bc_matrix(n: int, z: complex) -> DenseMatrix:
    """Discrete Laplacian with corner couplings 2-z and 2-conj(z).

    diag = (2-z, 2, ..., 2, 2-conj(z)), sup = sub = -1; Hermitian exactly
    when z is real.  The matrix is the one ``BcModel.matrices`` fills at
    that z; an entry beyond double range raises ``DenseMatrix``'s
    ``ValueError``.
    """
    return DenseMatrix(_bc_matrices(n, np.array([complex(z)]))[0])


def _bc_matrices(n: int, z: np.ndarray) -> np.ndarray:
    """The ``(k, n, n)`` complex stack of ``bc_matrix`` at each coupling of ``z``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    k = np.arange(n)
    out = np.zeros((len(z), n, n), dtype=complex)
    out[:, k, k] = 2.0
    out[:, 0, 0] = 2.0 - z
    out[:, -1, -1] = 2.0 - z.conj()
    out[:, k[:-1], k[1:]] = out[:, k[1:], k[:-1]] = -1.0
    return out


def hermitian_demo(n: int, t: float, seed: int) -> DenseMatrix:
    """Random Hermitian pencil A + t*B, reproducible for a fixed seed.

    A and B are Hermitized standard complex Gaussians drawn in that order
    from ``numpy.random.default_rng(seed)``; exhibits avoided crossings of
    all eigenvalue curves as t sweeps an interval.
    """
    return DenseMatrix(HermitianDemoModel(n, seed).matrix(t))


def hermitian_demo_pencil(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (A, B) pair behind ``hermitian_demo``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g1 + g1.conj().T) / 2.0, (g2 + g2.conj().T) / 2.0


# --------------------------------------------------------------------------
# sweepable model specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EpnModel:
    """EPN family swept over t."""

    n: int

    param = "t"
    closed_form_double = True  # ``eigvals`` is the closed form: no LAPACK, no solver threads

    def matrices(self, grid) -> np.ndarray:
        """The ``(k, n, n)`` stack of the matrices at each t of ``grid``, in one numpy pass.

        ``epn_matrix`` wraps one of its matrices.  The stack is
        real when 1 - tau^2 >= 0 at every t; otherwise it is complex, and
        where 1 - tau^2 < 0 the shift 8*sqrt(1 - tau^2) is imaginary.
        """
        n = self.n
        if n < 2:
            raise ValueError("n must be >= 2")
        tau = 1.0 - np.asarray(grid, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # beyond |t| ~ 1.3e154 the stack is not finite
            inside = (1.0 - tau * tau)[:, None]
        shift = 8.0 * np.sqrt(np.abs(inside))
        real = inside >= 0
        sup = np.sqrt([_epn_weight_sq(n, k) for k in range(n - 1)]) * tau[:, None]
        k = np.arange(n)
        out = np.zeros((len(tau), n, n), dtype=float if real.all() else complex)
        out[:, k, k] = np.arange(1 - n, n, 2.0) + np.where(real, shift, 0.0)
        if not real.all():
            out.imag[:, k, k] = np.where(real, 0.0, shift)
        out[:, k[:-1], k[1:]] = sup
        out[:, k[1:], k[:-1]] = -sup
        return out

    def matrix(self, t: float) -> np.ndarray:
        return self.matrices([t])[0]

    def eigvals(self, grid) -> np.ndarray:
        """The ``(k, n)`` spectra at each t of ``grid`` in double, from the closed form, ascending in (Re, Im).

        M - shift is 2(J_z + i tau J_y) on the spin-(n - 1)/2 representation,
        so E_k = (2k - n + 9) s with s = sqrt|1 - tau^2|, real where
        1 - tau^2 >= 0 and imaginary elsewhere; the other part is exactly 0.
        1 - tau^2 is taken as t(2 - t), the exact 1 - q of ``eigvals_mp``,
        so each value is the family's at the double t to within three
        roundings (1.5 eps relative), not that of the rounded matrix.  At
        t = 0 and t = 2 every level is 0.0 (never -0.0).  A value beyond
        double range (t(2 - t) overflows beyond |t| ~ 1.3e154) raises
        ``ConvergenceError``.
        """
        if self.n < 2:
            raise ValueError("n must be >= 2")
        t = np.asarray(grid, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            x = t * (2.0 - t)
            values = np.arange(9 - self.n, self.n + 9, 2.0) * np.sqrt(np.abs(x))[:, None] + 0.0  # + 0.0: no -0.0
        if not np.isfinite(values).all():
            raise ConvergenceError("an EPN level is not a finite double")
        out = np.zeros(values.shape, dtype=complex)
        real = x >= 0
        out.real[real] = values[real]
        out.imag[~real] = values[~real]
        return out

    def eigvals_mp(self, t) -> list[complex]:
        """The eigenvalues at t, ascending in (Re, Im): (2k - n + 9) sqrt(1 - q), each correctly rounded.

        1 - q = t(2 - t) is exact, and each level is ``_sqrt_double`` of
        c^2 |1 - q|, real where q <= 1 and imaginary where q > 1, the other
        part exactly 0.  At t = 0 every E is 0.  A value beyond double range
        raises ``ConvergenceError``.
        """
        x = 1 - (1 - as_fraction(t)) ** 2
        try:
            levels = [math.copysign(_sqrt_double(c * c * abs(x)), c) for c in range(9 - self.n, self.n + 9, 2)]
        except OverflowError:
            raise ConvergenceError("an EPN level is not a finite double") from None
        return [complex(v, 0.0) if x >= 0 else complex(0.0, v) for v in levels]

    def describe(self) -> dict:
        return {"model": "epn", "n": self.n, "param": "t"}


@dataclass(frozen=True)
class BcModel:
    """Boundary-controlled family at fixed shift y, swept over r."""

    n: int
    y: float = 0.0

    param = "r"
    closed_form_double = False

    def matrices(self, grid) -> np.ndarray:
        """The ``(k, n, n)`` complex stack of the matrices at each r of ``grid``.

        z = y + i*sqrt(1 - r^2) on the principal branch, as in ``z_value``;
        the entries are those of ``bc_matrix`` at that z.
        """
        r = np.asarray(grid, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # beyond |r| ~ 1.3e154 the stack is not finite
            return _bc_matrices(self.n, self.y + 1j * np.sqrt((1.0 - r * r).astype(complex)))

    def matrix(self, r: float) -> np.ndarray:
        return self.matrices([r])[0]

    def eigvals(self, grid) -> np.ndarray:
        """The ``(k, n)`` spectra at each r of ``grid`` in double: ``eigvals_double`` of the stack."""
        return eigvals_double(self.matrices(grid))

    def eigvals_mp(self, r) -> list[complex]:
        """The eigenvalues at r at ``EXTENDED_BITS``, in the order of the double ones: the roots of A + p' B at y'.

        (A, B) is ``bc_secular_at`` y', and (y', p') = (y, r^2) where
        r^2 <= 1.  Beyond |r| = 1 the matrix is the family's at the real
        coupling z = 2 - M[0, 0], read exactly from ``matrix(r)``, and p' = 1;
        with the energies scaled by the denominator 2^k of z the integer
        coefficients are +-Berkowitz's, so ``_extended_roots``, seeded from
        ``matrix(r)``, gives ``eigvals_mp(matrix(r))`` bit for bit.
        """
        approx, y, p, d = self.matrix(r), as_fraction(self.y), as_fraction(r) ** 2, 1
        if p > 1:
            if not math.isfinite(approx[0, 0].real):  # r^2 overflows a double
                raise ConvergenceError("the matrix at r is not a finite double")
            y, p = 2 - as_fraction(approx[0, 0].real), 1
            d = y.denominator
        a, b = bc_secular_at(self.n, y)
        poly = a + b.scale(p)
        (ints,), _ = _cleared([Polynomial([c * d ** (self.n - k) for k, c in enumerate(poly.coeffs)])])
        return _extended_roots([(c, 0) for c in ints], d.bit_length() - 1, approx)

    def describe(self) -> dict:
        return {"model": "bc", "n": self.n, "y": self.y, "param": "r"}


@dataclass(frozen=True)
class HermitianDemoModel:
    """Seeded Hermitian pencil swept over t."""

    n: int
    seed: int = 42

    param = "t"
    closed_form_double = False

    @cached_property
    def _pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, B), drawn once per model and shared by every grid point."""
        return hermitian_demo_pencil(self.n, self.seed)

    def matrices(self, grid) -> np.ndarray:
        """The ``(k, n, n)`` stack A + t*B over the t of ``grid``."""
        a, b = self._pencil
        return a + np.asarray(grid, dtype=float)[:, None, None] * b

    def matrix(self, t: float) -> np.ndarray:
        return self.matrices([t])[0]

    def eigvals(self, grid) -> np.ndarray:
        """The ``(k, n)`` spectra at each t of ``grid`` in double: ``eigvalsh_double`` of the stack.

        A + t*B with A and B Hermitian is exactly Hermitian in double (each
        conjugate pair of entries is rounded alike), so the Hermitian solver
        applies: every value is real, with imaginary part +0.0, ascending.
        """
        return eigvalsh_double(self.matrices(grid))

    def eigvals_mp(self, t) -> list[complex]:
        """The eigenvalues at t at ``EXTENDED_BITS``: ``eigvals_mp`` of the double matrix."""
        return eigvals_mp(self.matrix(t))

    def describe(self) -> dict:
        return {"model": "hermitian-demo", "n": self.n, "seed": self.seed, "param": "t"}


ModelSpec = Union[EpnModel, BcModel, HermitianDemoModel]
