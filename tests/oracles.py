"""mpmath oracles shared by the tests: family matrices, eigenvalues and real roots beyond double.

The package computes in double or in fixed-point integers only; these
helpers build the EPN and boundary-controlled matrices with every entry
rounded at mpmath's working precision, give the EPN family's closed-form
spectrum at that precision, read the package's integer eigenvalue kernel
at a chosen number of bits, and find the real roots of an exact
polynomial with mpmath's own root finder.  Two more oracles sit beside
them: the characteristic polynomial of a tridiagonal matrix from its
three-term recurrence in complex doubles, and the exact Sylvester matrix of
two polynomials.  The shift scan's earlier event polynomials in y follow:
the pole resultant Res_E(A_y, B), and Disc_E W with W = A'B - AB' and
its subresultant chain, from the package's ``res_E`` and ``disc_chain``,
split into coprime square-free pieces by exact gcds as the scan once did.
Last comes the extended tier's earlier route through
``as_ratio`` clearing, per-dot Berkowitz products, ``Fraction`` seeds and a
Gaussian rounding division, which the package's integer route must match
bit for bit (``reference_eigvals_mp``, ``reference_extended_roots``).
"""

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
import numpy as np

from epspect.core import Polynomial, as_array, disc_chain, res_E, square_free_factors
from epspect.core.eig import _berkowitz
from epspect.core.poly import EXTENDED_GUARD_BITS, ConvergenceError, _bits_below_roots, _dyadic_roots, _rounded
from epspect.core.scalars import EXTENDED_BITS, as_ratio
from epspect.epfinder import _disc_in_y_at_p
from epspect.models import BcModel, EpnModel, bc_secular_at, secular_in_y

POLISH_PREC = 136  # mpmath's precision at 40 digits


class Gaussian(NamedTuple):
    """An exact complex entry: ``gaussian_cleared`` reads ``.real`` and ``.imag``."""

    real: Fraction
    imag: Fraction


def frac(x) -> Fraction:
    """The exact rational value of a finite ``mpf``."""
    x = mp.mpf(x)
    man, exp = x.man_exp  # the mantissa without its sign
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def epn_mp(n, t):
    """EPN matrix with entries at the working precision (principal branch for t < 0)."""
    tau = 1 - mp.mpf(t)
    shift = 8 * mp.sqrt(1 - tau * tau)
    m = mp.zeros(n)
    for k in range(n):
        m[k, k] = (2 * k - n + 1) + shift
    for k in range(n - 1):
        w = mp.sqrt((k + 1) * (n - k - 1))
        m[k, k + 1] = w * tau
        m[k + 1, k] = -w * tau
    return m


def epn_levels(n, t):
    """The EPN family's levels (2k - n + 9) sqrt(t(2 - t)), k = 0..n-1, at the double t.

    t(2 - t) is exact; the root is taken at the working precision, as an
    ``mpc`` on the imaginary axis where t(2 - t) < 0.
    """
    x = Fraction(t) * (2 - Fraction(t))
    root = mp.sqrt(mp.mpf(x.numerator) / x.denominator)
    return [(2 * k - n + 9) * root for k in range(n)]


def bc_mp(n, y, r):
    """Boundary-controlled matrix with z = y + i sqrt(1 - r^2) at the working precision."""
    z = mp.mpf(y) + mp.mpc(0, 1) * mp.sqrt(1 - mp.mpf(r) ** 2)
    m = mp.zeros(n)
    for k in range(n):
        m[k, k] = 2
    m[0, 0] = 2 - z
    m[n - 1, n - 1] = 2 - mp.conj(z)
    for k in range(n - 1):
        m[k, k + 1] = m[k + 1, k] = -1
    return m


def model_mp(model, p):
    """``epn_mp`` or ``bc_mp`` of a model at its parameter value p."""
    if isinstance(model, EpnModel):
        return epn_mp(model.n, p)
    if isinstance(model, BcModel):
        return bc_mp(model.n, model.y, p)
    raise TypeError(model)


def eigvals_at(m, prec):
    """Eigenvalues of an ``mp.matrix`` of dyadic entries, at ``prec`` bits, as ``mpc``.

    The route of ``eigvals_mp`` read exactly: Berkowitz's polynomial of the
    power-of-two-scaled matrix, the integer Aberth kernel at ``prec`` bits
    seeded with the double eigenvalues, and each fixed-point root converted
    to ``mpc`` at the working precision.
    """
    flat, d = gaussian_cleared([Gaussian(frac(mp.mpc(v).real), frac(mp.mpc(v).imag)) for v in m])
    coeffs = _berkowitz([re for re, _ in flat], [im for _, im in flat], m.rows)
    seeds = np.linalg.eigvals(np.array(m.tolist(), dtype=complex))
    roots, scale, _ = _dyadic_roots(coeffs, seeds, prec, d.bit_length() - 1)
    return [as_mpc(root, scale) for root in roots]


def as_mpc(root, scale):
    """The fixed-point (re, im) / 2^scale as ``mpc`` at the working precision."""
    return mp.mpc(mp.mpf((root[0], -scale)), mp.mpf((root[1], -scale)))


def real_roots_mp(p, dps=40):
    """The real roots of an exact polynomial by ``mp.polyroots`` at ``dps`` digits, ascending, as ``mpf``.

    A root counts as real when its imaginary part is below 10^(-dps/2).
    """
    with mp.workdps(dps):
        coeffs = [mp.mpf(Fraction(c).numerator) / Fraction(c).denominator for c in reversed(p.coeffs)]
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=4 * dps)
        tiny = mp.mpf(10) ** (-dps // 2)
        return sorted(mp.re(r) for r in roots if abs(mp.im(r)) < tiny)


def rounded(x) -> float:
    """An ``mpf`` correctly rounded to the nearest double."""
    return float(frac(x))


def charpoly_tridiag(diag, sup=None, sub=None) -> list[complex]:
    """Coefficients of det(T - E*I), ascending, by the minor recurrence D_k = (d_k - E) D_(k-1) - w_k D_(k-2) in complex doubles.

    T is given by its three bands, or as a matrix (``diag`` alone, anything
    ``as_array`` takes) whose bands are read; w_k = sup[k-1] * sub[k-1].
    """
    if sup is None:
        a = as_array(diag)
        diag, sup, sub = a.diagonal(), a.diagonal(1), a.diagonal(-1)
    prev, cur = [], [1 + 0j]
    for d, w in zip(diag, (0, *(complex(s) * complex(t) for s, t in zip(sup, sub)))):
        nxt = [complex(d) * c for c in cur] + [0j]
        for j, c in enumerate(cur):
            nxt[j + 1] -= c
        for j, c in enumerate(prev):
            nxt[j] -= complex(w) * c
        prev, cur = cur, nxt
    return cur


def sylvester_matrix(p: Polynomial, q: Polynomial) -> list[list]:
    """Sylvester matrix in the convention Res(p,q) = lc(p)^deg(q) * prod q(alpha_i)."""
    if p.degree < 1 or q.degree < 1:
        raise ValueError("resultant requires both degrees >= 1")
    n, m = p.degree, q.degree
    fr, gr = list(p.coeffs[::-1]), list(q.coeffs[::-1])
    return [[0] * i + fr + [0] * (m - 1 - i) for i in range(m)] + [
        [0] * i + gr + [0] * (n - 1 - i) for i in range(n)
    ]


# --------------------------------------------------------------------------
# the shift scan's earlier event polynomials in y
# --------------------------------------------------------------------------
#
# The scan once took its pole and fold candidates from the real roots of two
# polynomials in y, split with the merge discriminant into coprime pieces.
# It now reads them from polynomials in E; these are the oracles it meets.


@lru_cache(maxsize=None)
def pole_collision_poly(n: int) -> Polynomial:
    """Res_E(A_y, B) as an exact polynomial in y: zero where A_y and B share a root."""
    return res_E(list(secular_in_y(n)), [Polynomial([c]) for c in bc_secular_at(n, 0)[1].coeffs])


@lru_cache(maxsize=None)
def fold_coeffs_in_E(n: int) -> tuple[Polynomial, ...]:
    """E-coefficients of W = A_y' B - A_y B', each a polynomial in y."""
    b = bc_secular_at(n, 0)[1].coeffs  # B does not depend on y
    w = [Polynomial.zero()] * (n + len(b) - 1)
    # A'B - AB' = sum over i, j of (i - j) a_i b_j E^(i + j - 1)
    for i, a_i in enumerate(secular_in_y(n)):
        for j, b_j in enumerate(b):
            if i != j:
                w[i + j - 1] = w[i + j - 1] + a_i.scale(Fraction((i - j) * b_j))
    while len(w) > 1 and w[-1].is_zero:
        w.pop()
    return tuple(w)


@lru_cache(maxsize=None)
def fold_chain(n: int):
    """Disc_E W with the subresultant chain of W and W_E over Z[y] (``disc_chain``)."""
    return disc_chain(list(fold_coeffs_in_E(n)))


def fold_event_poly(n: int) -> Polynomial:
    """Disc_E W as an exact polynomial in y: zero at every fold of the EP curve, and at every pole."""
    return fold_chain(n).disc


def event_pieces(n: int) -> list[tuple[Polynomial, tuple[str, ...]]]:
    """The merge, pole and fold polynomials in y split into coprime square-free pieces, each with the mechanisms it belongs to."""
    pieces = []
    for kind, poly in (("merge", _disc_in_y_at_p(n)), ("pole", pole_collision_poly(n)), ("fold", fold_event_poly(n))):
        if poly.degree < 1:
            continue
        rest = math.prod(square_free_factors(poly))
        split = []
        for piece, owners in pieces:
            common = piece.gcd(rest)
            if common.degree >= 1:
                split.append((common, owners + (kind,)))
                piece, rest = piece.exact_div(common), rest.exact_div(common)
            if piece.degree >= 1:
                split.append((piece, owners))
        if rest.degree >= 1:
            split.append((rest, (kind,)))
        pieces = split
    return pieces


# --------------------------------------------------------------------------
# the extended tier's earlier route, kept as its bit-for-bit reference
# --------------------------------------------------------------------------
#
# ``eigvals_mp`` and ``_extended_roots`` once cleared every scalar through
# ``as_ratio``, took each Berkowitz product as a separate dot product,
# seeded the iteration with ``Fraction`` sums and divided through a Gaussian
# rounding helper.  The package now runs on ints from the double matrix to
# the rounded roots; each of its iterates must be the one below.


def gaussian_cleared(values) -> tuple[list[tuple[int, int]], int]:
    """Gaussian integers D * values, with D the lcm of all denominators.

    The values are exact or floating scalars (int, Fraction, float,
    complex); a binary float is the dyadic rational it stores, so for
    floating input D is a power of two.
    """
    parts = [(as_ratio(v.real), as_ratio(v.imag)) for v in values]
    d = math.lcm(*(den for pair in parts for _, den in pair))
    return [(re * (d // re_den), im * (d // im_den)) for (re, re_den), (im, im_den) in parts], d


def berkowitz_by_dots(entries: list[list[tuple[int, int]]]) -> list[tuple[int, int]]:
    """det(x I - m) of a Gaussian-integer matrix, ascending, one dot product per Berkowitz product."""

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


def nudged_seeds(values) -> list[tuple[Fraction, Fraction]]:
    """Each double eigenvalue s moved exactly by 1e-3 * 2^-26 * (1 + |s|) along both axes, as ``Fraction``."""
    steps = [Fraction(1e-3 * 2.0**-26 * (1 + abs(s))) for s in values]
    return [(Fraction(s.real) + e, Fraction(s.imag) + e) for s, e in zip(values, steps)]


def _div_round(a: int, b: int) -> int:
    return (2 * a + b) // (2 * b)


def _gaussian_div(a, b):
    (ar, ai), (br, bi) = a, b
    q = br * br + bi * bi
    return _div_round(ar * br + ai * bi, q), _div_round(ai * br - ar * bi, q)


def aberth_by_divisions(coeffs, z, bits, eps_bits, maxiter=200):
    """The integer Aberth kernel with every quotient through ``_gaussian_div`` and the lock test squared out."""
    m, deg = len(z), len(coeffs) - 1
    one = 1 << bits
    frac = eps_bits + EXTENDED_GUARD_BITS
    locked = [False] * m
    shifted = [(cr << (deg - k) * bits, ci << (deg - k) * bits) for k, (cr, ci) in enumerate(coeffs)]
    abs_shifted = [math.isqrt(cr * cr + ci * ci) if ci else abs(cr) for cr, ci in shifted]
    it = 0
    for it in range(1, maxiter + 1):
        moved = False
        for i in range(m):
            if locked[i]:
                continue
            zr, zi = z[i]
            pr, pi = shifted[-1]
            dr = di = 0
            for cr, ci in reversed(shifted[:-1]):
                dr, di = dr * zr - di * zi + pr, dr * zi + di * zr + pi
                pr, pi = pr * zr - pi * zi + cr, pr * zi + pi * zr + ci
            az = math.isqrt(zr * zr + zi * zi) if zi else abs(zr)
            scale = abs_shifted[-1]
            for a in reversed(abs_shifted[:-1]):
                scale = scale * az + a
            if (pr * pr + pi * pi) << 2 * eps_bits <= (scale << 4) ** 2:
                locked[i] = True
                continue
            if not (dr or di):
                nudge = (one + az) >> eps_bits // 4 + 1
                z[i] = (zr + nudge, zi + nudge)
                moved = True
                continue
            nr, ni = _gaussian_div((pr, pi), (dr, di))
            wide = (nr << frac, ni << frac)
            er, ei = 1 << frac, 0
            for j in range(m):
                if j != i:
                    d = (zr - z[j][0], zi - z[j][1])
                    if d == (0, 0):
                        d = (max((one + az) >> eps_bits, 1), 0)
                    qr, qi = _gaussian_div(wide, d)
                    er, ei = er - qr, ei - qi
            if er or ei:
                nr, ni = _gaussian_div(wide, (er, ei))
            z[i] = (zr - nr, zi - ni)
            moved = True
        if not moved:
            break
    return z, locked, it


def dyadic_roots_from_fractions(coeffs, seeds, prec, exp2=0):
    """``_dyadic_roots`` from exact (re, im) seeds, each put to fixed point by a rounded division."""
    exact = [(as_ratio(re), as_ratio(im)) for re, im in seeds]
    zeros = next(k for k, c in enumerate(coeffs) if c != (0, 0))
    moving = range(len(seeds))
    if zeros:
        moving = sorted(sorted(moving, key=lambda i: abs(complex(float(seeds[i][0]), float(seeds[i][1]))))[zeros:])
    roots = [(0, 0)] * len(seeds)
    if not moving:
        return roots, prec + EXTENDED_GUARD_BITS + exp2, 0
    bits = max(0, prec + EXTENDED_GUARD_BITS + _bits_below_roots(coeffs[zeros:]))
    shift = 1 << bits + exp2
    z = [tuple(_div_round(num * shift, den) for num, den in exact[i]) for i in moving]
    z, locked, it = aberth_by_divisions(coeffs[zeros:], z, bits, prec - 1)
    for i, root in zip(moving, z):
        roots[i] = root
    if not all(locked):
        rounded = [_rounded(root, bits + exp2) for root in roots]
        bad = [rounded[i] for i, ok in zip(moving, locked) if not ok]
        raise ConvergenceError(f"{len(bad)} root(s) failed to converge", roots=rounded, unconverged=bad)
    return roots, bits + exp2, it


def reference_extended_roots(coeffs, exp2, approx):
    """``_extended_roots`` by the reference route."""
    seeds = nudged_seeds(np.linalg.eigvals(approx.astype(complex)))
    roots, scale, _ = dyadic_roots_from_fractions(coeffs, seeds, EXTENDED_BITS, exp2)
    return [_rounded(root, scale) for root in roots]


def reference_eigvals_mp(m) -> list[complex]:
    """``eigvals_mp`` by the reference route."""
    a = as_array(m)
    n = len(a)
    flat, d = gaussian_cleared(a.ravel())
    return reference_extended_roots(berkowitz_by_dots([flat[i * n : (i + 1) * n] for i in range(n)]), d.bit_length() - 1, a)
