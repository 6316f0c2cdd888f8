"""mpmath oracles shared by the tests: family matrices, eigenvalues and real roots beyond double.

The package computes in double or in fixed-point integers only; these
helpers build the EPN and boundary-controlled matrices with every entry
rounded at mpmath's working precision, give the EPN family's closed-form
spectrum at that precision, read the package's integer eigenvalue kernel
at a chosen number of bits, and find the real roots of an exact
polynomial with mpmath's own root finder.  Two more oracles sit beside
them: the characteristic polynomial of a tridiagonal matrix from its
three-term recurrence in complex doubles, and the exact Sylvester matrix of
two polynomials.
"""

from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

from epspect.core import Polynomial, as_array
from epspect.core.eig import _berkowitz, _nudged_seeds
from epspect.core.poly import _dyadic_roots, _gaussian_cleared
from epspect.models import BcModel, EpnModel

POLISH_PREC = 136  # mpmath's precision at 40 digits


class Gaussian(NamedTuple):
    """An exact complex entry: ``_gaussian_cleared`` reads ``.real`` and ``.imag``."""

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
    seeded with the nudged double eigenvalues, and each fixed-point root
    converted to ``mpc`` at the working precision.
    """
    n = m.rows
    entries = [Gaussian(frac(mp.mpc(v).real), frac(mp.mpc(v).imag)) for v in m]
    flat, d = _gaussian_cleared(entries)
    coeffs = _berkowitz([flat[i * n : (i + 1) * n] for i in range(n)])
    approx = np.array(m.tolist(), dtype=complex)
    seeds = _nudged_seeds(np.linalg.eigvals(approx))
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
