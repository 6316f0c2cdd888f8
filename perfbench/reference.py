"""Independent exact algebra the benchmark checks the program's answers against.

Everything here is derived from the definitions of the two matrix families,
not from the package under test, so a check keeps its meaning when the
package's own algebra is rewritten.  Polynomials are plain lists of integer
or Fraction coefficients, lowest degree first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np


def trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def scale(p, s):
    return trim([c * s for c in p])


def mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def deriv(p):
    return trim([k * p[k] for k in range(1, len(p))] or [0])


def evaluate(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def divmod_poly(p, q):
    p = [Fraction(c) for c in p]
    out = [Fraction(0)] * max(1, len(p) - len(q) + 1)
    while len(p) >= len(q) and any(p):
        f = p[-1] / q[-1]
        k = len(p) - len(q)
        out[k] = f
        for i, c in enumerate(q):
            p[i + k] -= f * c
        p = trim(p[:-1]) if len(p) > 1 else [Fraction(0)]
    return trim(out), trim(p)


def gcd_poly(p, q):
    while any(q):
        p, q = q, divmod_poly(p, q)[1]
    return [Fraction(c) / p[-1] for c in p]


def squarefree(p):
    """p divided by gcd(p, p'): the same real roots, each of them simple."""
    g = gcd_poly(p, deriv(p))
    return divmod_poly(p, g)[0] if len(g) > 1 else p


def det(rows):
    """Bareiss elimination; exact for integer or Fraction entries."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num // prev if isinstance(num, int) and isinstance(prev, int) else num / prev
        prev = a[k][k]
    return sign * a[-1][-1]


def resultant(p, q):
    """Sylvester determinant Res(p, q); zero iff p and q share a root."""
    n, m = len(p) - 1, len(q) - 1
    size = n + m
    rp, rq = list(reversed(p)), list(reversed(q))
    rows = [[0] * i + rp + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + rq + [0] * (size - m - 1 - i) for i in range(n)]
    return det(rows)


# --------------------------------------------------------------------------
# the two families
# --------------------------------------------------------------------------


def charpoly(diag, products):
    """det(T - E) of a tridiagonal matrix by the three-term minor recurrence."""
    prev2, prev1 = [1], [1]
    for k, d in enumerate(diag):
        cur = mul([d, -1], prev1)
        if k:
            cur = add(cur, scale(prev2, -products[k - 1]))
        prev2, prev1 = prev1, cur
    return prev1


@lru_cache(maxsize=None)
def bc_parts(n: int):
    """(c0, c1, c3) with det(R - E) = c0 + c1*(z + conj z) + c3*|z|^2.

    R is the discrete Laplacian with corners 2 - z and 2 - conj(z); the
    determinant is bilinear in the two corner entries.
    """

    def corner(u, v):
        d = [2] * n
        d[0] = 2 - u
        d[-1] = 2 - v
        return charpoly(d, [1] * (n - 1))

    p00, p10, p01, p11 = corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)
    c1 = add(p10, scale(p00, -1))
    c3 = add(add(p11, scale(p10, -1)), add(scale(p01, -1), p00))
    return p00, c1, c3


def bc_secular(n: int, y):
    """(A, B) with det(R(y + i*sqrt(1 - p)) - E) = A(E) + p*B(E)."""
    c0, c1, c3 = bc_parts(n)
    return add(add(c0, scale(c1, 2 * y)), scale(c3, y * y + 1)), scale(c3, -1)


def epn_spectrum(n: int, t: float) -> list[complex]:
    """(2k - n + 1 + 8) * sqrt(1 - tau^2), tau = 1 - t, k = 0..n-1."""
    tau = 1.0 - t
    root = complex(1.0 - tau * tau) ** 0.5
    return [(2 * k - n + 1 + 8) * root for k in range(n)]


def epn_dense(n: int, t: float) -> np.ndarray:
    """The EPN matrix: diag (2k-n+1) + 8*sqrt(1-tau^2), sup = -sub = sqrt((k+1)(n-k-1))*tau."""
    tau = 1.0 - t
    shift = 8.0 * complex(1.0 - tau * tau) ** 0.5
    k = np.arange(n - 1)
    w = np.sqrt((k + 1) * (n - k - 1)) * tau
    return np.diag(np.arange(n) * 2.0 - n + 1 + shift) + np.diag(w + 0j, 1) - np.diag(w + 0j, -1)


# --------------------------------------------------------------------------
# event polynomials in the shift y of the boundary-controlled family
# --------------------------------------------------------------------------


def _merge_at(n, y):
    a, _ = bc_secular(n, y)
    return resultant(a, deriv(a))


def _pole_at(n, y):
    a, b = bc_secular(n, y)
    return resultant(a, b)


def _fold_at(n, y):
    a, b = bc_secular(n, y)
    w = add(mul(deriv(a), b), scale(mul(a, deriv(b)), -1))
    return resultant(w, deriv(w))


# merge: A_y has a double root in E (a level merger at r = 0);
# pole: A_y shares a root with B (a persistent eigenvalue at a pole of r^2);
# fold: W = A_y' B - A_y B' has a double root (two interior mergers collide).
EVENT_MECHANISMS = {"merge": _merge_at, "pole": _pole_at, "fold": _fold_at}


def _interpolate(f, degree):
    xs = list(range(degree + 1))
    coef = [Fraction(f(x)) for x in xs]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    p = [Fraction(0)]
    for i in range(len(xs) - 1, -1, -1):
        p = add(mul(p, [-xs[i], 1]), [coef[i]])
    return p


@lru_cache(maxsize=None)
def event_poly(n: int, mechanism: str):
    """Square-free exact polynomial in y whose real roots are the events.

    Every Sylvester entry is at most quadratic in y, so the determinant has
    degree at most twice the matrix size; it is interpolated exactly from
    integer shifts and verified at one more rational point.
    """
    f = EVENT_MECHANISMS[mechanism]
    size = 4 * n if mechanism == "fold" else 2 * n
    p = _interpolate(lambda y: f(n, y), 2 * size)
    probe = Fraction(-3, 7)
    if evaluate(p, probe) != f(n, probe):
        raise ArithmeticError(f"{mechanism} polynomial for n={n} failed its probe")
    return tuple(squarefree(p))


OWN_RTOL = Fraction(1, 10**6)  # a reported event must sit this close to an exact root


def owns(n: int, mechanism: str, y: float) -> bool:
    """Whether the mechanism's polynomial has a real root within OWN_RTOL*(1+|y|) of y."""
    p = list(event_poly(n, mechanism))
    if len(p) < 2:
        return False
    yy = Fraction(y)
    d = OWN_RTOL * (1 + abs(yy))
    return evaluate(p, yy - d) * evaluate(p, yy + d) <= 0
