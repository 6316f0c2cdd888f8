"""Sturmian coupling function r(E) of the boundary-controlled family.

The determinant det(R - E) of the boundary-controlled matrix is bilinear in
the two corner couplings z and conj(z), hence linear in p = r^2 once
z = y + i*sqrt(1 - r^2).  Writing det = A(E) + p*B(E) inverts to the
two-branched coupling function r^2(E) = -A(E)/B(E): every spectral question
at fixed y becomes a question about one rational function of E.

r^2(E) is evaluated exactly on integers: A and B are cleared to integer
coefficients once per function, and each energy, an exact rational, goes
through a division-free homogeneous Horner sum, so a pole is an integer
zero test and a finite value costs one Fraction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    BivariateSecular,
    ConvergenceError,
    Polynomial,
    Precision,
    as_fraction,
    charpoly_from_parts,
    eigvals_double,
    poly_roots,
    real_root_count,
    reality_flags,
)
from .core.poly import _cleared, _int_homogeneous, _newton_polish_real
from .models import bc_matrix

# Cluster radius and reality tolerance of the extended retry in
# ``_real_roots``: on exact coefficients at 30 digits a multiple root splits
# by ~1e-15, while two distinct real roots, or a complex pair, 1e-12 apart
# stay apart.
EXTENDED_CLUSTER_RTOL = 1e-12


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
        diag = [Fraction(2)] * n
        diag[0] = Fraction(2 - u)
        diag[-1] = Fraction(2 - v)
        products = [Fraction(1)] * (n - 1)
        return charpoly_from_parts(diag, products)

    p00 = corner_poly(0, 0)
    p10 = corner_poly(1, 0)
    p01 = corner_poly(0, 1)
    p11 = corner_poly(1, 1)
    c0 = p00
    c1 = p10 - p00
    c2 = p01 - p00
    c3 = p11 - p10 - p01 + p00
    assert c1 == c2, "corner symmetry violated"
    return c0, c1, c2, c3


@lru_cache(maxsize=None)
def secular_in_y(n: int, p=0) -> tuple[Polynomial, ...]:
    """E-coefficients of det(R - E) at fixed rational p = r^2, as polynomials in y.

    Coefficient k is c0_k + (c1_k + c2_k)*y + c3_k*(y^2 + 1 - p): the one
    place where the corner decomposition is assembled.
    """
    p = as_fraction(p)
    parts = bc_secular_parts(n)
    width = parts[0].degree + 1
    c0, c1, c2, c3 = (
        [Fraction(x) for x in c.coeffs] + [Fraction(0)] * (width - len(c.coeffs))
        for c in parts
    )
    return tuple(
        Polynomial([c0[k] + c3[k] * (1 - p), c1[k] + c2[k], c3[k]])
        for k in range(width)
    )


@dataclass(frozen=True)
class SturmianFunction:
    """r^2(E) = -A(E)/B(E) for the boundary-controlled family at shift y.

    A(E) + r^2 B(E) equals the characteristic polynomial of the assembled
    matrix on the model domain |r| <= 1; outside it the matrix conjugates a
    coupling that has become real, while A + p B continues analytically.
    """

    n: int
    y: Fraction
    A: Polynomial
    B: Polynomial

    @property
    def secular(self) -> BivariateSecular:
        return BivariateSecular(self.A, self.B, parameter="r^2")

    def poly_at(self, p) -> Polynomial:
        return self.secular.poly_at(p)

    def common_factor(self) -> Polynomial:
        """Exact gcd(A, B); nontrivial iff some E is an eigenvalue for every r."""
        return self.A.gcd(self.B)

    @cached_property
    def cleared(self) -> tuple[list[int], list[int]]:
        """Integer coefficient lists of D*A and D*B, one common denominator D."""
        (a, b), _ = _cleared([self.A, self.B])
        return a, b


def bivariate_secular(n: int, y) -> SturmianFunction:
    """Exact A, B with det(R(n, y + i*sqrt(1-r^2)) - E) = A(E) + r^2*B(E).

    y may be an int, Fraction or float (floats convert exactly).
    """
    y = as_fraction(y)
    a = Polynomial([c(y) for c in secular_in_y(n)])
    b = -bc_secular_parts(n)[3]
    return SturmianFunction(n, y, a, b)


# --------------------------------------------------------------------------
# pointwise evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class R2Value:
    """Value of r^2 at one energy: finite, a pole, or indeterminate (0/0)."""

    kind: str  # "finite" | "pole" | "indeterminate"
    value: float | None
    exact: Fraction | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


def sturmian_r2(s: SturmianFunction, energy) -> R2Value:
    """Evaluate r^2(E) = -A(E)/B(E), reporting poles and 0/0 explicitly.

    Evaluation is exact (the float input converts exactly to a rational
    u/v), so a pole is B(E) == 0 identically, not a small-denominator
    accident.  With the integer forms of D*A and D*B, N_P = v^deg P * P(u/v)
    is a homogeneous Horner sum over the integers, and
    r^2 = -N_A / (N_B * v^(deg A - deg B)): one Fraction per finite value,
    none per Horner step.
    """
    e = as_fraction(energy)
    u, v = e.numerator, e.denominator
    a, b = s.cleared
    num = _int_homogeneous(a, u, v)
    den = _int_homogeneous(b, u, v)
    if den == 0:
        return R2Value("indeterminate" if num == 0 else "pole", None)
    val = Fraction(-num, den * v ** (len(a) - len(b)))
    return R2Value("finite", float(val), val)


# --------------------------------------------------------------------------
# branch tracing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TracePoint:
    energy: float
    r_plus: float
    r_minus: float
    in_model: bool
    refined: bool = False


@dataclass(frozen=True)
class BranchPoint:
    """A marked energy on the Sturmian plot."""

    energy: float
    kind: str  # "pole-of-r" | "indeterminate" | "zero-of-r" | "branch-merge"
    multiplicity: int


@dataclass(frozen=True)
class BranchTrace:
    points: tuple[TracePoint, ...]
    persistent_lines: tuple[float, ...]
    poles: tuple[BranchPoint, ...]
    merges: tuple[BranchPoint, ...]


def _real_roots(p: Polynomial, lo=None, hi=None) -> list[tuple[float, int]]:
    """Distinct real roots of an exact polynomial in [lo, hi], with multiplicities.

    The roots are the real clusters of ``poly_roots``; their number is
    certified against the exact Sturm count on the same window.  On a
    mismatch the roots are recomputed at ``Precision.EXTENDED`` from the
    exact coefficients, clustered and filtered at ``EXTENDED_CLUSTER_RTOL``,
    which separates two real roots, or a complex pair, closer than double
    rounding can resolve; a second mismatch raises ``ConvergenceError``.
    """
    if p.degree < 1:
        return []
    want = real_root_count(p, lo, hi) + (lo is not None and p(as_fraction(lo)) == 0)

    def real_in_window(found, rtol):
        return [
            (c.center.real, c.multiplicity)
            for c in found.clusters
            if abs(c.center.imag) <= rtol * (1 + abs(c.center))
            and (lo is None or c.center.real >= lo)
            and (hi is None or c.center.real <= hi)
        ]

    out = real_in_window(poly_roots(p.to_double()), 1e-8)
    if len(out) != want:
        rtol = EXTENDED_CLUSTER_RTOL
        out = real_in_window(poly_roots(p, precision=Precision.EXTENDED, cluster_rtol=rtol), rtol)
    if len(out) != want:
        raise ConvergenceError(
            f"{len(out)} real root(s) found where Sturm's theorem counts {want}",
            roots=[e for e, _ in out],
        )
    return out


def _polished_real_roots(p: Polynomial) -> list[tuple[float, int]]:
    """``_real_roots`` with each root Newton-polished on the square-free part of p."""
    simple = p.exact_div(p.gcd(p.derivative())) if p.degree >= 1 else p
    return [(float(_newton_polish_real(simple, e)), m) for e, m in _real_roots(p)]


def _without_factors_of(p: Polynomial, q: Polynomial) -> Polynomial:
    """p with every factor it shares with q divided out, multiplicity included."""
    while (common := p.gcd(q)).degree >= 1:
        p = p.exact_div(common)
    return p


def sturmian_poles(s: SturmianFunction) -> tuple[BranchPoint, ...]:
    """Real zeros of the denominator B, classified pole vs indeterminate.

    B splits exactly into the part made of roots of gcd(A, B), where A and
    B vanish together and the energy is an eigenvalue for every coupling
    ("indeterminate", not a divergence of r(E)), and the rest ("pole-of-r").
    Each root is Newton-polished on its part, so an exact root of B such as
    E = 2 comes out exact.
    """
    poles = _without_factors_of(s.B, s.common_factor())
    shared = s.B.exact_div(poles)
    points = [
        BranchPoint(e, kind, mult)
        for kind, part in (("indeterminate", shared), ("pole-of-r", poles))
        for e, mult in _polished_real_roots(part)
    ]
    return tuple(sorted(points, key=lambda b: b.energy))


def branch_merges(s: SturmianFunction) -> tuple[BranchPoint, ...]:
    """Critical points of r^2(E): real zeros of A'B - AB' that B does not share."""
    num = _without_factors_of(s.A.derivative() * s.B - s.A * s.B.derivative(), s.B)
    out = [BranchPoint(e, "branch-merge", mult) for e, mult in _real_roots(num)]
    return tuple(sorted(out, key=lambda b: b.energy))


def branch_trace(
    s: SturmianFunction,
    e_range: tuple[float, float],
    samples: int,
    refine_levels: int = 3,
    refine_factor: int = 10,
) -> BranchTrace:
    """Both coupling branches r = +-sqrt(r^2(E)) over an energy window.

    Energies with r^2 < 0 are omitted; r^2 > 1 is emitted but flagged
    outside the model.  The uniform grid is locally refined (3 levels,
    factor 10 each) around poles and branch merges; output is ordered by
    energy regardless of refinement.
    """
    lo, hi = float(e_range[0]), float(e_range[1])
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if hi <= lo:
        raise ValueError("empty energy range")
    base = np.linspace(lo, hi, samples)
    h = (hi - lo) / (samples - 1)

    poles = sturmian_poles(s)
    merges = branch_merges(s)
    special = [b.energy for b in poles] + [b.energy for b in merges]

    energies = [(float(e), False) for e in base]
    for e0 in special:
        if not (lo <= e0 <= hi):
            continue
        window = h
        for _ in range(refine_levels):
            step = window / refine_factor
            k = np.arange(-refine_factor, refine_factor + 1)
            for e in e0 + k * step:
                if lo <= e <= hi:
                    energies.append((float(e), True))
            window = step

    energies.sort(key=lambda t: t[0])
    points = []
    seen = set()
    for e, refined in energies:
        key = round((e - lo) / (h * 1e-6))
        if key in seen:
            continue
        seen.add(key)
        val = sturmian_r2(s, e)
        if not val.is_finite or val.value < 0:
            continue
        r = math.sqrt(val.value)
        points.append(TracePoint(e, r, -r, val.value <= 1.0, refined))

    lines = []
    g = s.common_factor()
    if g.degree >= 1:
        lines = [e for e, _ in _real_roots(g, lo, hi)]
    return BranchTrace(tuple(points), tuple(sorted(lines)), poles, merges)


# --------------------------------------------------------------------------
# direct spectra
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RealSpectrum:
    values: np.ndarray
    real_flags: np.ndarray
    in_model: bool


def real_spectrum_at(n: int, y: float, r: float) -> RealSpectrum:
    """Eigenvalues of the boundary-controlled matrix with per-value reality flags.

    |r| > 1 is allowed (the coupling becomes real and the matrix Hermitian)
    but flagged outside the model.  A value is 'real' when
    |Im| <= 1e-10 * max(1, spectral scale).
    """
    z = y + 1j * cmath.sqrt(1.0 - r * r)
    values = eigvals_double(bc_matrix(n, z))
    return RealSpectrum(values, reality_flags(values), abs(r) <= 1.0)
