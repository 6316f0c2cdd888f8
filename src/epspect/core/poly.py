"""Univariate polynomials, root finding, resultants and discriminants.

Polynomials carry their coefficients in one of the three arithmetic tiers
(see ``scalars``).  Exact-tier polynomials support exact division, gcd and
resultants; floating tiers feed the Aberth-Ehrlich root finder.

Every exact resultant and discriminant goes through one kernel: the
Sylvester determinant over Z[y] by Bareiss's fraction-free elimination on
plain ``int`` coefficient lists.  ``res_E`` and ``disc_E`` clear each
argument's denominators once, check every division for exactness, and
rescale at the end, so they return the rational polynomial an elimination
over ``Fraction`` would, without a gcd per arithmetic operation.
"""

from __future__ import annotations

import cmath
import math
from itertools import zip_longest
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .scalars import (
    EXTENDED_DPS,
    CLUSTER_RTOL,
    ExactTypes,
    MpTypes,
    Precision,
    RootCluster,
    cluster_points,
    is_exact_zero,
    to_double,
    to_extended,
)


class ConvergenceError(RuntimeError):
    """Root iteration hit its cap; carries the unconverged subset."""

    def __init__(self, message, roots=(), unconverged=()):
        super().__init__(message)
        self.roots = tuple(roots)
        self.unconverged = tuple(unconverged)


class Polynomial:
    """Dense univariate polynomial, coefficients in ascending degree.

    Trailing coefficients that are exactly zero are trimmed, so the leading
    coefficient is nonzero unless the polynomial is identically zero (whose
    degree is reported as -1).  Binary operations require both operands in
    the same arithmetic tier; convert explicitly with ``to_double()`` or
    ``to_extended()``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while len(cs) > 1 and is_exact_zero(cs[-1]):
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    # -- basic properties ---------------------------------------------------

    @property
    def degree(self) -> int:
        if self.is_zero:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and is_exact_zero(self.coeffs[0])

    @property
    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1]

    @property
    def mode(self) -> Precision:
        if any(isinstance(c, MpTypes) for c in self.coeffs):
            return Precision.EXTENDED
        if all(isinstance(c, ExactTypes) for c in self.coeffs):
            return Precision.EXACT
        return Precision.DOUBLE

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- conversions ----------------------------------------------------------

    def to_double(self) -> "Polynomial":
        return Polynomial([to_double(c) for c in self.coeffs])

    def to_extended(self) -> "Polynomial":
        return Polynomial([to_extended(c) for c in self.coeffs])

    # -- arithmetic -----------------------------------------------------------

    def _check_mode(self, other: "Polynomial"):
        a, b = self.mode, other.mode
        if Precision.EXACT in (a, b) and a != b:
            raise TypeError(
                "mixed exact/floating polynomial arithmetic; convert "
                "explicitly with to_double()/to_extended()"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_mode(other)
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Polynomial(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_mode(other)
            if self.is_zero or other.is_zero:
                # a zero of the operands' tier: a float 0.0 stays floating
                return Polynomial([self.coeffs[0] * other.coeffs[0]])
            a, b = self.coeffs, other.coeffs
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if is_exact_zero(ca):
                    continue
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
            return Polynomial(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "Polynomial":
        return Polynomial([c * s for c in self.coeffs])

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_mode(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv = (
            Fraction(1, 1) / b[-1]
            if isinstance(b[-1], ExactTypes)
            else 1.0 / b[-1]
        )
        if len(a) - 1 < db:
            return Polynomial([0]), Polynomial(a)
        q = [0] * (len(a) - db)
        for k in range(len(a) - 1, db - 1, -1):
            coeff = a[k] * inv
            q[k - db] = coeff
            if not is_exact_zero(coeff):
                for j in range(db + 1):
                    a[k - db + j] -= coeff * b[j]
        return Polynomial(q), Polynomial(a[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Division known to be remainder-free (exact tier only)."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("division expected to be exact left a remainder")
        return q

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial([0])
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; the arithmetic follows the argument's type."""
        acc = 0 * x + 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ZeroDivisionError("zero polynomial has no monic form")
        lc = self.lc
        inv = Fraction(1, 1) / lc if isinstance(lc, ExactTypes) else 1.0 / lc
        return self.scale(inv)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd by the Euclidean algorithm (exact tier)."""
        if self.mode is not Precision.EXACT or other.mode is not Precision.EXACT:
            raise TypeError("gcd requires exact-tier polynomials")
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    @staticmethod
    def from_roots(roots, lc=1) -> "Polynomial":
        p = Polynomial([lc])
        for r in roots:
            p = p * Polynomial([-r, 1])
        return p

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial([0])


# --------------------------------------------------------------------------
# root finding (Aberth-Ehrlich with Newton corrections)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyRoots:
    """All roots of a polynomial plus their multiplicity clusters."""

    roots: tuple[complex, ...]
    clusters: tuple[RootCluster, ...]
    residuals: tuple[float, ...]
    iterations: int


def _horner_pair(coeffs, z):
    """Value and derivative at z in one pass."""
    p = coeffs[-1]
    dp = 0 * z
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _aberth(coeffs, z, eps, absfn, maxiter=200):
    """Aberth-Ehrlich simultaneous iteration from the starting points z.

    A root locks once |p(z)| <= 16 eps sum |c_k| |z|^k.  Magnitudes are
    taken once per coefficient and once per root and sweep: under mpmath
    each ``abs`` is a hypot, and near a degeneracy the iteration converges
    only linearly, so they would otherwise dominate.
    """
    m = len(z)
    locked = [False] * m
    tol_factor = 16 * eps
    abs_coeffs = [absfn(c) for c in coeffs]
    it = 0
    for it in range(1, maxiter + 1):
        moved = False
        for i in range(m):
            if locked[i]:
                continue
            p, dp = _horner_pair(coeffs, z[i])
            az = absfn(z[i])
            scale = sum(a * az ** k for k, a in enumerate(abs_coeffs))
            if absfn(p) <= tol_factor * scale:
                locked[i] = True
                continue
            if dp == 0:
                # nudge off a stationary point
                z[i] = z[i] + (0.5 + 0.5j) * (1 + az) * eps ** 0.25
                moved = True
                continue
            newton = p / dp
            s = 0
            for j in range(m):
                if j != i:
                    d = z[i] - z[j]
                    if d == 0:
                        d = eps * (1 + az)
                    s = s + 1 / d
            denom = 1 - newton * s
            step = newton if denom == 0 else newton / denom
            z[i] = z[i] - step
            moved = True
        if not moved:
            break
    return z, locked, it


def _initial_circle(coeffs):
    """Starting points on a circle sized from the coefficient magnitudes."""
    m = len(coeffs) - 1
    an = abs(coeffs[-1])
    a0 = abs(coeffs[0])
    r = (a0 / an) ** (1.0 / m) if a0 > 0 else 0.5
    r = min(max(r, 1e-3), 1 + max(abs(c) / an for c in coeffs[:-1]))
    return [
        r * cmath.exp(2j * math.pi * (k + 0.25) / m + 0.4j) for k in range(m)
    ]


def poly_roots(
    p: Polynomial,
    precision: Precision = Precision.DOUBLE,
    cluster_rtol: float = CLUSTER_RTOL,
) -> PolyRoots:
    """All complex roots of ``p`` with near-coincident roots clustered.

    Exact zero constant terms are deflated symbolically, the remaining roots
    come from Aberth-Ehrlich iteration (double precision start, optionally
    re-polished under mpmath for ``precision=EXTENDED``).  Raises
    ``ConvergenceError`` if some roots fail the residual test after the
    iteration cap; the unconverged subset is attached to the exception.
    """
    if p.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    # deflate roots at the origin exactly (constant term identically zero)
    zero_mult = 0
    while zero_mult < p.degree and is_exact_zero(p.coeffs[zero_mult]):
        zero_mult += 1
    work = [complex(to_double(c)) for c in p.coeffs[zero_mult:]]

    roots: list[complex] = [0j] * zero_mult
    iters = 0
    if len(work) > 1:
        eps = float(np.finfo(float).eps)
        z = _initial_circle(work)
        z, locked, iters = _aberth(work, z, eps, abs)
        if not all(locked):
            # deterministic fallback: companion-matrix estimates, re-polished
            z = list(np.roots(list(reversed(work))).astype(complex))
            z, locked, extra = _aberth(work, z, eps, abs)
            iters += extra
        if not all(locked):
            bad = [zi for zi, ok in zip(z, locked) if not ok]
            raise ConvergenceError(
                f"{len(bad)} root(s) failed to converge", roots=z, unconverged=bad
            )
        roots.extend(z)

    if precision is Precision.EXTENDED and len(work) > 1:
        with mp.workdps(EXTENDED_DPS):
            cs = [to_extended(c) for c in p.coeffs[zero_mult:]]
            z = [mp.mpc(r) for r in roots[zero_mult:]]
            z, locked, extra = _aberth(cs, z, mp.eps, lambda t: float(abs(t)))
            iters += extra
            roots = [0j] * zero_mult + list(z)

    residuals = tuple(float(abs(p(complex(r)))) for r in roots)
    clusters = cluster_points([complex(r) for r in roots], rtol=cluster_rtol)
    roots_sorted = sorted(
        (complex(r) for r in roots), key=lambda v: (v.real, v.imag)
    )
    return PolyRoots(tuple(roots_sorted), clusters, residuals, iters)


# --------------------------------------------------------------------------
# resultants / discriminants
# --------------------------------------------------------------------------


def _sylvester_rows(f: list, g: list, zero=0) -> list[list]:
    """Sylvester matrix of two ascending coefficient lists.

    Convention Res(f, g) = lc(f)^deg(g) * prod g(alpha_i).  Entries are
    scalars, or int coefficient lists of polynomials in a second variable
    (pass ``zero=[]``).
    """
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    fr, gr = f[::-1], g[::-1]
    return [[zero] * i + fr + [zero] * (size - n - 1 - i) for i in range(m)] + [
        [zero] * i + gr + [zero] * (size - m - 1 - i) for i in range(n)
    ]


def sylvester_matrix(p: Polynomial, q: Polynomial) -> list[list]:
    """Sylvester matrix in the convention Res(p,q) = lc(p)^deg(q) * prod q(alpha_i)."""
    if p.degree < 1 or q.degree < 1:
        raise ValueError("resultant requires both degrees >= 1")
    return _sylvester_rows(list(p.coeffs), list(q.coeffs))


def resultant(p: Polynomial, q: Polynomial):
    """Resultant of p and q: lc(p)^deg(q) * prod over roots alpha of p of q(alpha).

    Exact-tier inputs give an exact Fraction (zero iff a common root exists);
    floating inputs go through an LU determinant of the Sylvester matrix and
    are zero only up to rounding (compare against ``1e-10 * scale``).
    """
    if p.degree < 1 or q.degree < 1:
        raise ValueError("resultant requires both degrees >= 1 (nonzero lc)")
    if p.mode is Precision.EXACT and q.mode is Precision.EXACT:
        # constant polynomials in a dummy second variable
        f = [Polynomial([c]) for c in p.coeffs]
        g = [Polynomial([c]) for c in q.coeffs]
        return Fraction(res_E(f, g).coeffs[0])
    arr = np.array(
        [[complex(to_double(x)) for x in row] for row in sylvester_matrix(p, q)]
    )
    det = complex(np.linalg.det(arr))
    if abs(det.imag) <= 1e-12 * (1 + abs(det.real)):
        return det.real
    return det


def discriminant(p: Polynomial):
    """Res(p, p') / lc(p)."""
    res = resultant(p, p.derivative())
    lc = p.lc
    if isinstance(lc, ExactTypes):
        return Fraction(res) / lc
    return res / lc


# The exact kernel runs over Z[y]: a polynomial in the second variable is an
# ascending list of ints with a nonzero last entry, and [] is zero.


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _int_sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _int_exact_div(num: list[int], den: list[int]) -> list[int]:
    """num / den in Z[y]; ArithmeticError unless the quotient is integral and exact."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return []
    lc, low = den[-1], den[:-1]
    shift = len(den) - 1
    if len(num) <= shift:
        raise ArithmeticError("division expected to be exact left a remainder")
    rem = num[:]
    quot = [0] * (len(num) - shift)
    for k in range(len(num) - 1, shift - 1, -1):
        q, r = divmod(rem[k], lc)
        if r:
            raise ArithmeticError("division expected to be exact has no integral quotient")
        if q:
            quot[k - shift] = q
            for j, c in enumerate(low, k - shift):
                rem[j] -= q * c
    if any(rem[:shift]):
        raise ArithmeticError("division expected to be exact left a remainder")
    return quot


def _det_bareiss_poly(rows: list[list[list[int]]]) -> list[int]:
    """Determinant over Z[y] by Bareiss's fraction-free elimination.

    Every division by the previous pivot is exact (Bareiss 1968), so no
    entry ever leaves Z[y] and no gcd is taken.
    """
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return []
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot, row_k, divide = a[k][k], a[k], prev != [1]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                num = _int_sub(_int_mul(row[j], pivot), _int_mul(lead, row_k[j]))
                row[j] = _int_exact_div(num, prev) if divide else num
            row[k] = []
        prev = pivot
    det = a[n - 1][n - 1]
    return det if sign == 1 else [-c for c in det]


def _cleared(coeffs: list[Polynomial]) -> tuple[list[list[int]], int]:
    """Integer coefficient lists of D * coeffs, with D the lcm of all denominators."""
    for p in coeffs:
        if p.mode is not Precision.EXACT:
            raise TypeError("the exact kernel requires exact coefficients")
    d = math.lcm(*(Fraction(c).denominator for p in coeffs for c in p.coeffs))
    cleared = []
    for p in coeffs:
        ints = [int(c * d) for c in p.coeffs]
        while ints and not ints[-1]:
            ints.pop()
        cleared.append(ints)
    return cleared, d


def _int_homogeneous(ints: list[int], u: int, v: int) -> int:
    """v^deg * P(u/v) for P with integer coefficients ``ints``: Horner without division."""
    if not ints:
        return 0
    acc, vk = ints[-1], 1
    for c in reversed(ints[:-1]):
        vk *= v
        acc = acc * u + c * vk
    return acc


def _rescaled(det: list[int], denom: int) -> Polynomial:
    return Polynomial([Fraction(c, denom) for c in det])


def res_E(f: list[Polynomial], g: list[Polynomial]) -> Polynomial:
    """Res_E(f, g) as an exact polynomial in a second variable.

    ``f`` and ``g`` are polynomials in E given as ascending lists of their
    E-coefficients, each an exact Polynomial in the second variable.  Each
    argument is scaled once by its common denominator (Df, Dg) and the
    Sylvester determinant runs over Z[y]; since the resultant has degree
    deg g in f's coefficients and deg f in g's, it is divided by
    Df^deg g * Dg^deg f at the end.
    """
    fi, df = _cleared(f)
    gi, dg = _cleared(g)
    det = _det_bareiss_poly(_sylvester_rows(fi, gi, []))
    return _rescaled(det, df ** (len(g) - 1) * dg ** (len(f) - 1))


def disc_E(f: list[Polynomial]) -> Polynomial:
    """Disc_E(f) = Res_E(f, df/dE) / lc_E(f), coefficients as in ``res_E``.

    With F = D f integral, Res(F, F') = +-lc(F) Disc(F) where Disc(F) is an
    integer polynomial in the coefficients of F, so the division by lc(F) is
    exact over Z[y]; Disc_E(f) = Res(F, F') / lc(F) / D^(2 deg f - 2).
    """
    fi, d = _cleared(f)
    dfi = [[k * c for c in fi[k]] for k in range(1, len(fi))]
    res = _det_bareiss_poly(_sylvester_rows(fi, dfi, []))
    return _rescaled(_int_exact_div(res, fi[-1]), d ** (2 * len(f) - 4))


# --------------------------------------------------------------------------
# secular polynomials linear in one parameter
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BivariateSecular:
    """P(E; p) = A(E) + p * B(E) with deg B < deg A.

    A is the characteristic polynomial at p = 0; the full family stays
    linear in the sweep parameter p.
    """

    A: Polynomial
    B: Polynomial
    parameter: str = "p"

    def __post_init__(self):
        if self.A.degree < 1:
            raise ValueError("A must have degree >= 1")
        if not self.B.is_zero and self.B.degree >= self.A.degree:
            raise ValueError("deg B must be < deg A")

    @property
    def degree(self) -> int:
        return self.A.degree

    @property
    def coefficients(self) -> list[Polynomial]:
        """E-coefficients A_k + p B_k, each an exact polynomial in p."""
        a = list(self.A.coeffs)
        b = list(self.B.coeffs) + [0] * (len(a) - len(self.B.coeffs))
        return [Polynomial([Fraction(ak), Fraction(bk)]) for ak, bk in zip(a, b)]

    def poly_at(self, p0) -> Polynomial:
        """Specialize the parameter; exact when p0 and the coefficients are."""
        if isinstance(p0, ExactTypes) and self.A.mode is Precision.EXACT:
            return self.A + self.B.scale(Fraction(p0))
        return self.A.to_double() + self.B.to_double().scale(to_double(p0))


def discriminant_in_E(s: BivariateSecular) -> Polynomial:
    """Discriminant of A(E) + p*B(E) with respect to E, as a polynomial in p.

    Zeros of the returned polynomial are exactly the parameter values where
    the secular polynomial acquires a repeated E-root.  Normalized as
    Res_E(P, dP/dE) / lc_E(P); requires exact coefficients and a constant
    (parameter-independent) leading E-coefficient, which holds whenever
    deg B < deg A.
    """
    if s.A.mode is not Precision.EXACT or s.B.mode is not Precision.EXACT:
        raise TypeError("discriminant_in_E requires exact coefficients")
    return disc_E(s.coefficients)
