"""Sturmian coupling function r(E) of the boundary-controlled family.

The determinant det(R - E) of the boundary-controlled matrix is bilinear in
the two corner couplings z and conj(z), hence linear in p = r^2 once
z = y + i*sqrt(1 - r^2).  Writing det = A(E) + p*B(E) inverts to the
two-branched coupling function r^2(E) = -A(E)/B(E): every spectral question
at fixed y becomes a question about one rational function of E.  A and
B come from ``models.bc_secular_at``.

Everything after the decomposition runs on the cleared integers D*A and
D*B (``SturmianFunction.cleared``, one common denominator D), which give
the same r^2, merges, poles and Sturm counts as A and B.  r^2 has one
kernel, ``_r2_ratio``: at an energy u/v, the exact rational of its float,
one division-free homogeneous Horner pass over both lists gives N_A and
N_B, so a pole is an integer zero test and a finite value is one
correctly rounded integer division.  ``sturmian_r2`` wraps it in an
``R2Value``; ``branch_trace`` calls it directly for each of its samples.
Counting real levels at a rational p = num/den uses den*D*A + num*D*B
(``cleared_at``), and gcd(A, B) is computed once per function
(``common_factor``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .core import (
    ConvergenceError,
    Polynomial,
    as_fraction,
    eigvals_double,
    real_roots,
    reality_flags,
    square_free_factors,
)
from .core.poly import _cleared
from .core.scalars import as_ratio
from . import models
from .models import BcModel, bc_secular_at

bc_secular_parts = models.bc_secular_parts  # importable from here: perfbench's tracer wraps it under this module
REFINE_LEVELS = 3  # local refinements of a branch trace around each pole and merge
REFINE_FACTOR = 10  # each one this many times finer than the last


@dataclass(frozen=True)
class SturmianFunction:
    """r^2(E) = -A(E)/B(E) for the boundary-controlled family at shift y.

    A(E) + r^2 B(E) equals the characteristic polynomial of the assembled
    matrix on the model domain |r| <= 1; outside it the matrix conjugates a
    coupling that has become real, while A + p B continues analytically.
    deg B < deg A, so the leading E-coefficient is free of p, and the
    discriminant in E of ``coefficients`` (``disc_E``) is a polynomial in p
    whose zeros are exactly the p where a level is repeated.
    """

    n: int
    y: Fraction
    A: Polynomial
    B: Polynomial

    @property
    def coefficients(self) -> list[Polynomial]:
        """E-coefficients A_k + p B_k, each an exact polynomial in p = r^2."""
        pairs = zip_longest(self.A.coeffs, self.B.coeffs, fillvalue=0)
        return [Polynomial([Fraction(a), Fraction(b)]) for a, b in pairs]

    def poly_at(self, p) -> Polynomial:
        """A + p B at p, an int, Fraction or float that converts exactly (``as_fraction``)."""
        return self.A + self.B.scale(as_fraction(p))

    @cached_property
    def cleared(self) -> tuple[list[int], list[int]]:
        """Integer coefficient lists of D*A and D*B, one common denominator D."""
        (a, b), _ = _cleared([self.A, self.B])
        return a, b

    @cached_property
    def cleared_terms(self) -> list[tuple[int, int]]:
        """(D*A_k, D*B_k) from the highest degree down, the shorter list padded with zeros."""
        a, b = self.cleared
        return list(zip_longest(a, b, fillvalue=0))[::-1]

    def cleared_at(self, p: Fraction) -> Polynomial:
        """den*D*A + num*D*B at p = num/den: ``poly_at(p)`` times D*den > 0, on integers.

        A positive multiple has the same roots and Sturm counts.
        """
        a, b = self.cleared
        u, v = p.numerator, p.denominator
        return Polynomial([v * x + u * y for x, y in zip_longest(a, b, fillvalue=0)])

    @cached_property
    def common_factor(self) -> Polynomial:
        """Exact monic gcd(A, B); nontrivial iff some E is an eigenvalue for every r."""
        a, b = self.cleared
        return Polynomial(a).gcd(Polynomial(b))


def bivariate_secular(n: int, y) -> SturmianFunction:
    """Exact A, B with det(R(n, y + i*sqrt(1-r^2)) - E) = A(E) + r^2*B(E).

    y may be an int, Fraction or float (floats convert exactly).
    """
    y = as_fraction(y)
    return SturmianFunction(n, y, *bc_secular_at(n, y))


# --------------------------------------------------------------------------
# pointwise evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class R2Value:
    """Value of r^2 at one energy: finite, a pole, or indeterminate (0/0).

    A finite value keeps its exact ratio (numerator, positive denominator),
    not necessarily in lowest terms, and ``value`` is that ratio rounded
    once to the nearest double.
    """

    kind: str  # "finite" | "pole" | "indeterminate"
    value: float | None
    ratio: tuple[int, int] | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def exact(self) -> Fraction | None:
        return None if self.ratio is None else Fraction(*self.ratio)


def _r2_ratio(terms: list[tuple[int, int]], u: int, v: int) -> tuple[int, int]:
    """r^2 = num / den at E = u/v (v > 0) from ``SturmianFunction.cleared_terms``, with den >= 0.

    One homogeneous Horner pass over both columns gives N_A = v^d A(u/v)
    and N_B = v^d B(u/v) at the common degree d, so r^2 = -N_A / N_B on
    the integers.  den == 0 is a pole (num != 0) or 0/0 (num == 0).
    """
    it = iter(terms)
    (num, den), vk = next(it), 1
    for ca, cb in it:
        vk *= v
        num = num * u + ca * vk
        den = den * u + cb * vk
    if den == 0:
        return num, 0
    # a positive denominator, so a zero value reads +0.0, as float(Fraction) does
    return (-num, den) if den > 0 else (num, -den)


def sturmian_r2(s: SturmianFunction, energy) -> R2Value:
    """Evaluate r^2(E) = -A(E)/B(E), reporting poles and 0/0 explicitly.

    Evaluation is exact (the float input converts exactly to a rational
    u/v), so a pole is B(E) == 0 identically, not a small-denominator
    accident.  On the integer forms of D*A and D*B (``_r2_ratio``) a finite
    value is one correctly rounded integer division, no gcd and no Fraction.
    """
    num, den = _r2_ratio(s.cleared_terms, *as_ratio(energy))
    if den == 0:
        return R2Value("indeterminate" if num == 0 else "pole", None)
    return R2Value("finite", num / den, (num, den))


# --------------------------------------------------------------------------
# branch tracing
# --------------------------------------------------------------------------


class TracePoint(NamedTuple):
    """One sample of ``branch_trace``: r = +-sqrt(r^2(E)) at an energy.

    ``in_model`` is r^2 <= 1; ``refined`` marks an energy added around a
    pole or a branch merge.
    """

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


def _marked(p: Polynomial, kind: str) -> list[BranchPoint]:
    """A point at each distinct real root of p, its multiplicity from the exact square-free factorization."""
    return [BranchPoint(float(e), kind, m) for m, f in enumerate(square_free_factors(p), 1) for e in real_roots(f)]


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
    The roots come from ``real_roots``, so an exact root of B such as E = 2
    comes out exact.
    """
    denom = Polynomial(s.cleared[1])
    poles = _without_factors_of(denom, s.common_factor)
    points = _marked(denom.exact_div(poles), "indeterminate") + _marked(poles, "pole-of-r")
    return tuple(sorted(points, key=lambda b: b.energy))


def branch_merges(s: SturmianFunction) -> tuple[BranchPoint, ...]:
    """Critical points of r^2(E): real zeros of A'B - AB' that B does not share, from ``real_roots``.

    D*A and D*B give the same r^2, so the integer forms stand in for A and B.
    """
    a, b = (Polynomial(c) for c in s.cleared)
    num = _without_factors_of(a.derivative() * b - a * b.derivative(), b)
    return tuple(sorted(_marked(num, "branch-merge"), key=lambda b: b.energy))


def branch_trace(
    s: SturmianFunction,
    e_range: tuple[float, float],
    samples: int,
) -> BranchTrace:
    """Both coupling branches r = +-sqrt(r^2(E)) over an energy window.

    Each sample is the integer kernel ``_r2_ratio``, bit for bit what
    ``sturmian_r2`` reads there.  Poles, 0/0 points and energies with
    r^2 < 0 are omitted; r^2 > 1 is emitted but flagged outside the
    model.  The uniform grid is locally refined
    (``REFINE_LEVELS`` levels, ``REFINE_FACTOR`` times finer each) around
    poles and branch merges; output is ordered by energy regardless of
    refinement.  The persistent lines are the real roots in the window of
    gcd(A, B), from ``real_roots``.  An r^2 sample beyond the double range
    raises ``ConvergenceError``.
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
        for _ in range(REFINE_LEVELS):
            step = window / REFINE_FACTOR
            k = np.arange(-REFINE_FACTOR, REFINE_FACTOR + 1)
            for e in e0 + k * step:
                if lo <= e <= hi:
                    energies.append((float(e), True))
            window = step

    # one energy per 1e-6 h bucket: the lowest, unless a pole or merge
    # itself falls there, so a grid point an ulp away cannot displace it
    centers = {e0 for e0 in special if lo <= e0 <= hi}
    chosen: dict[int, tuple[float, bool]] = {}
    for e, refined in sorted(energies, key=lambda t: t[0]):
        key = round((e - lo) / (h * 1e-6))
        if key not in chosen or e in centers:
            chosen[key] = (e, refined)
    terms = s.cleared_terms
    points = []
    try:  # only num / den can raise it
        for e, refined in chosen.values():
            num, den = _r2_ratio(terms, *e.as_integer_ratio())
            if den == 0 or (r2 := num / den) < 0:
                continue
            r = math.sqrt(r2)
            points.append(TracePoint(e, r, -r, r2 <= 1.0, refined))
    except OverflowError:
        raise ConvergenceError("an r^2(E) sample is not a finite double") from None

    lines = tuple(float(e) for e in real_roots(s.common_factor, lo, hi))
    return BranchTrace(tuple(points), lines, poles, merges)


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
    values = eigvals_double(BcModel(n, y).matrix(r))
    return RealSpectrum(values, reality_flags(values), abs(r) <= 1.0)
