"""Univariate polynomials and their real and complex roots.

A ``Polynomial`` holds exact coefficients only (``int`` / ``Fraction``):
its constructor refuses any other with ``TypeError``, so division, gcd
and root finding all run on rationals.

Complex roots come from one Aberth-Ehrlich kernel, ``_aberth_fixed``, on
Python ints: the coefficients are Gaussian integers (denominators cleared
by their lcm), the iterates are fixed point, Horner is exact and only
divisions round.  ``_dyadic_roots`` runs it at a precision given in bits
for ``eig._extended_roots``, which serves ``eig.eigvals_mp`` and the bc
family's extended spectrum.
``real_root_intervals`` is the one routine for the real roots of an exact
polynomial, and neither a double seed nor the kernel enters it: it
isolates each root by bisecting dyadic intervals on the sign variations of
a Sturm sequence over Z, and ``_bracket`` narrows each interval on exact
signs, by quadratic interval refinement, to a certified 136 bits; the
root is returned with about 138.  ``_rounded_ratio`` certifies the double
that a rational function takes at one such root: the coupling or the
shift of an exceptional point whose energy is a root of a polynomial in E.
``Polynomial.gcd``, ``square_free_factors`` and the Sturm sequences run the
primitive pseudo-remainder sequence over Z on the cleared integers.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from fractions import Fraction

from .scalars import ExactTypes, as_fraction


class ConvergenceError(RuntimeError):
    """Root iteration hit its cap; carries the unconverged subset."""

    def __init__(self, message, roots=(), unconverged=()):
        super().__init__(message)
        self.roots = tuple(roots)
        self.unconverged = tuple(unconverged)


class Polynomial:
    """Dense univariate polynomial, ``int`` or ``Fraction`` coefficients (any other is a ``TypeError``) in ascending degree.

    Trailing zero coefficients are trimmed, so the leading coefficient is
    nonzero unless the polynomial is identically zero (whose degree is
    reported as -1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, ExactTypes):
                raise TypeError("the exact kernel requires exact coefficients")
        while len(cs) > 1 and not cs[-1]:
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
        return len(self.coeffs) == 1 and not self.coeffs[0]

    @property
    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1]

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
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
            return Polynomial(_int_mul(self.coeffs, other.coeffs))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "Polynomial":
        return Polynomial([c * s for c in self.coeffs])

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv = Fraction(1, 1) / b[-1]
        if len(a) - 1 < db:
            return Polynomial([0]), Polynomial(a)
        q = [0] * (len(a) - db)
        for k in range(len(a) - 1, db - 1, -1):
            coeff = a[k] * inv
            q[k - db] = coeff
            if coeff:
                for j in range(db + 1):
                    a[k - db + j] -= coeff * b[j]
        return Polynomial(q), Polynomial(a[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Division known to be remainder-free, over the integers.

        By Gauss's lemma the quotient of the primitive parts of the cleared
        integer forms is an integer polynomial, so only the ratio of their
        contents is rational.  ``ArithmeticError`` if a remainder is left.
        """
        (a, b), _ = _cleared([self, other])
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if not a:
            return Polynomial.zero()
        ca, cb = math.gcd(*a), math.gcd(*b)
        quot = _int_exact_div([c // ca for c in a], [c // cb for c in b])
        return Polynomial([Fraction(ca * c, cb) for c in quot])

    def derivative(self) -> "Polynomial":
        return Polynomial(_int_derivative(self.coeffs))

    def __call__(self, x):
        """Horner evaluation; the arithmetic follows the argument's type.

        An exact argument u/v takes one homogeneous Horner pass over the
        cleared integers and one division, and gives an ``int`` where every
        coefficient and the argument are ints.
        """
        if isinstance(x, ExactTypes):
            (ints,), d = _cleared([self])
            u, v = x.numerator, x.denominator
            value = _int_homogeneous(ints, u, v)
            if isinstance(x, int) and not any(isinstance(c, Fraction) for c in self.coeffs):
                return value
            return Fraction(value, d * v ** max(len(ints) - 1, 0))
        acc = 0 * x + 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ZeroDivisionError("zero polynomial has no monic form")
        return self.scale(Fraction(1, 1) / self.lc)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd, by the primitive pseudo-remainder sequence over Z."""
        (a, b), _ = _cleared([self, other])
        g = _int_gcd(a, b)
        return _monic(g) if g else Polynomial.zero()

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


# The extended tier runs on Gaussian integers: a coefficient is an (re, im)
# pair of ints, and an iterate is an (re, im) pair read at 2^-bits.


def _div_round(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b > 0."""
    return (2 * a + b) // (2 * b)


EXTENDED_GUARD_BITS = 32


def _aberth_fixed(coeffs, z, bits, eps_bits, maxiter=200):
    """Aberth-Ehrlich simultaneous iteration on Gaussian integers.

    ``coeffs`` are ascending Gaussian-integer coefficients and each iterate
    ``z[i]`` stands for z[i] / 2^bits.  Horner and its derivative are exact:
    with d the degree, 2^(d bits) p(z) and 2^((d-1) bits) p'(z) are
    integers.  The Newton quotient N = p / p' is rounded to 2^-bits; the
    dimensionless Aberth term N sum 1 / (z - z_j) and the step
    N / (1 - N sum 1 / (z - z_j)) are rounded to 2^-frac, with frac =
    eps_bits + ``EXTENDED_GUARD_BITS``, whatever the scale of the roots.
    A root locks once |p(z)| <= 16 2^-eps_bits sum |c_k| |z|^k, compared on
    integers with the magnitudes floored by ``isqrt``: by the bit lengths of
    the two sides, squared out exactly only where those are within 2.
    """
    m, deg = len(z), len(coeffs) - 1
    one = 1 << bits
    frac = eps_bits + EXTENDED_GUARD_BITS
    locked = [False] * m
    # c_k 2^((d-k) bits): the Horner terms of the scaled value
    shifted = [(cr << (deg - k) * bits, ci << (deg - k) * bits) for k, (cr, ci) in enumerate(coeffs)]
    abs_shifted = [math.isqrt(cr * cr + ci * ci) if ci else abs(cr) for cr, ci in shifted]
    lower, abs_lower = shifted[-2::-1], abs_shifted[-2::-1]
    it = 0
    for it in range(1, maxiter + 1):
        moved = False
        for i in range(m):
            if locked[i]:
                continue
            zr, zi = z[i]
            pr, pi = shifted[-1]
            dr = di = 0
            for cr, ci in lower:
                dr, di = dr * zr - di * zi + pr, dr * zi + di * zr + pi
                pr, pi = pr * zr - pi * zi + cr, pr * zi + pi * zr + ci
            az = math.isqrt(zr * zr + zi * zi) if zi else abs(zr)
            scale = abs_shifted[-1]
            for a in abs_lower:
                scale = scale * az + a
            # log2(|p| 2^eps_bits / (16 scale)) lies in (gap - 1, gap + 1.5)
            gap = max(pr.bit_length(), pi.bit_length()) + eps_bits - scale.bit_length() - 4
            if gap < -1 or gap < 1 and (pr * pr + pi * pi) << 2 * eps_bits <= (scale << 4) ** 2 or not (pr or pi):
                locked[i] = True
                continue
            if not (dr or di):
                # nudge off a stationary point by (1 + |z|) eps^(1/4) (1 + i) / 2
                nudge = (one + az) >> eps_bits // 4 + 1
                z[i] = (zr + nudge, zi + nudge)
                moved = True
                continue
            # each quotient a / b is floor((2 a conj(b) + |b|^2) / (2 |b|^2)) per part
            q = dr * dr + di * di
            nr, ni = (2 * (pr * dr + pi * di) + q) // (2 * q), (2 * (pi * dr - pr * di) + q) // (2 * q)
            # 1 - N sum 1 / (z - z_j), at 2^-frac
            er, ei = 1 << frac, 0
            for xr, xi in z[:i] + z[i + 1 :]:
                xr, xi = zr - xr, zi - xi
                if not (xr or xi):
                    xr = max((one + az) >> eps_bits, 1)
                q = xr * xr + xi * xi
                er -= (((nr * xr + ni * xi) << frac + 1) + q) // (2 * q)
                ei -= (((ni * xr - nr * xi) << frac + 1) + q) // (2 * q)
            if er or ei:
                q = er * er + ei * ei
                ur, ui = (nr * er + ni * ei) << frac + 1, (ni * er - nr * ei) << frac + 1
                nr, ni = (ur + q) // (2 * q), (ui + q) // (2 * q)
            z[i] = (zr - nr, zi - ni)
            moved = True
        if not moved:
            break
    return z, locked, it


def _bits_below_roots(coeffs) -> int:
    """An integer b with 2^-b below every root of a polynomial with c_0 != 0.

    Fujiwara's bound on the reversed polynomial: every root has
    |z| >= 1 / (2 max_k |c_k / c_0|^(1/k)).  The bound is within a factor
    2d of the smallest root, also of a tight cluster, where double seeds
    can be many orders of magnitude too large.  On the reversed
    coefficients, 2^b is above every root; a constant gives 1.
    """
    sizes = [max(abs(cr), abs(ci)).bit_length() for cr, ci in coeffs]  # log2|c| in [s - 1, s + 1/2)
    return 1 + max((-((sizes[0] - s - 2) // k) for k, s in enumerate(sizes) if k and s), default=0)


def _fixed_sum(x: float, e: float, scale: int) -> int:
    """The exact sum x + e of two binary floats at 2^-scale, rounded half up.

    Each is the num / 2^q of ``float.as_integer_ratio``: the sum is taken
    over the larger 2^q and shifted, with no division and no ``Fraction``.
    """
    (a, p), (b, q) = x.as_integer_ratio(), e.as_integer_ratio()
    m = max(p, q)  # powers of two, so both quotients are exact
    num, h = a * (m // p) + b * (m // q), m.bit_length() - 1 - scale
    return num << -h if h <= 0 else ((num >> h - 1) + 1) >> 1


def _dyadic_roots(coeffs, values, prec, exp2=0):
    """Roots at ``prec`` bits from the Gaussian-integer ``coeffs``, exactly as iterated.

    The polynomial's roots are 2^exp2 times the wanted ones, which the
    complex doubles ``values`` approximate.  The seeds are the values s
    moved by e = 1e-3 * 2^-26 * (1 + |s|) along both axes (``_fixed_sum``,
    exact): the iteration keeps every symmetry of the polynomial, so from the
    real axis the iterates of a real polynomial would never reach a pair off
    it.  Roots exactly at the origin are deflated (the lock test, relative
    to sum |c_k| |z|^k, cannot pass there) and take the places of the seeds
    nearest it in double.  The other iterates are fixed point at 2^-bits,
    bits = prec + ``EXTENDED_GUARD_BITS`` + the bits below the smallest root
    (``_bits_below_roots``), so even that root carries ``prec`` bits and the
    guard; a root locks at the relative residual 16 * 2^(1 - prec).
    Returns ``(z, scale, sweeps)``: root i, in the order of the seeds, is
    (z[i][0] + i z[i][1]) / 2^scale.  Raises ``ConvergenceError`` with the
    unconverged subset, rounded to ``complex``, if any root fails to lock.
    """
    seeds = [(s.real, s.imag, 1e-3 * 2.0**-26 * (1 + abs(s))) for s in values]
    zeros = next(k for k, c in enumerate(coeffs) if c != (0, 0))
    moving = range(len(seeds))
    if zeros:  # the seeds nearest the origin give way to the roots there
        nearness = [abs(complex(re + e, im + e)) for re, im, e in seeds]
        moving = sorted(sorted(moving, key=nearness.__getitem__)[zeros:])
    roots = [(0, 0)] * len(seeds)
    if not moving:
        return roots, prec + EXTENDED_GUARD_BITS + exp2, 0
    bits = max(0, prec + EXTENDED_GUARD_BITS + _bits_below_roots(coeffs[zeros:]))
    scale = bits + exp2
    z = [(_fixed_sum(re, e, scale), _fixed_sum(im, e, scale)) for re, im, e in map(seeds.__getitem__, moving)]
    z, locked, it = _aberth_fixed(coeffs[zeros:], z, bits, prec - 1)
    for i, root in zip(moving, z):
        roots[i] = root
    if not all(locked):
        rounded = [_rounded(root, scale) for root in roots]
        bad = [rounded[i] for i, ok in zip(moving, locked) if not ok]
        raise ConvergenceError(f"{len(bad)} root(s) failed to converge", roots=rounded, unconverged=bad)
    return roots, scale, it


def _rounded(root: tuple[int, int], scale: int) -> complex:
    """The fixed-point (re, im) / 2^scale rounded once to the nearest ``complex``."""
    return complex(root[0] / (1 << scale), root[1] / (1 << scale))


# --------------------------------------------------------------------------
# integer polynomials
# --------------------------------------------------------------------------


# The exact kernel runs over Z: a polynomial is an ascending list of ints
# with a nonzero last entry, and [] is zero.  Products and derivatives take
# any exact coefficients, and serve ``Polynomial`` too.


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


def _int_derivative(a: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


def _int_exact_div(num: list[int], den: list[int]) -> list[int]:
    """num / den over Z; ArithmeticError unless the quotient is integral and exact."""
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


def _cleared(coeffs: list[Polynomial]) -> tuple[list[list[int]], int]:
    """Integer coefficient lists of D * coeffs, with D the lcm of all denominators."""
    d = math.lcm(*(c.denominator for p in coeffs for c in p.coeffs))
    cleared = []
    for p in coeffs:
        ints = [c.numerator * (d // c.denominator) for c in p.coeffs]
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


def _int_homogeneous_bounds(ints: list[int], lo: int, hi: int, e: int) -> tuple[int, int]:
    """Integers below and above 2^(deg e) P(u / 2^e) for all u in [lo, hi]: Horner on intervals."""
    low = high = ints[-1]
    for k, c in enumerate(reversed(ints[:-1]), 1):
        ends = (low * lo, low * hi, high * lo, high * hi)
        low, high = min(ends) + (c << e * k), max(ends) + (c << e * k)
    return low, high


def _rounded_ratio(s: list[list[int]], g: Polynomial, x: Fraction, a: Fraction, b: Fraction) -> Fraction:
    """The double -s_0(y0) / s_1(y0) rounds to at the one root y0 of g in (a, b], as a ``Fraction``; the ratio itself where y0 is met.

    s_0 and s_1 are integer polynomials with s_1(y0) != 0: the coupling
    -A/B at a branch merge's energy, -A'/B' at a crossing's, the shift
    -W0/W1 at a fold's or a merger's energy, or -P/Q at a pole's.  The
    dyadic x lies within 2^-``POLISH_BITS`` |x| of y0.
    ``_bracket`` narrows that neighbourhood on the signs of g, or of its
    square-free part, until Horner on intervals bounds the ratio over it by
    two numbers that round to one double.  Where they round to neighbours,
    the ratio at y0 may be the tie t between them, which no bracket
    settles: it is, exactly when s_0 + t s_1 and g share a root in (a, b].
    ``ConvergenceError`` for a ratio beyond the double range.
    """
    (f,), _ = _cleared([g])
    eps = abs(x) / 2**POLISH_BITS
    grid = Fraction(2) ** (POLISH_BITS + 2 - x.numerator.bit_length() + x.denominator.bit_length())  # 1 / grid <= eps / 2
    lo, hi = max(a, math.floor((x - eps) * grid) / grid), min(b, math.ceil((x + eps) * grid) / grid)

    def brackets(f: list[int]) -> bool:
        flo, fhi = (_int_homogeneous(f, y.numerator, y.denominator) for y in (lo, hi))
        return not fhi or flo and (flo > 0) != (fhi > 0)

    if not brackets(f):  # y0 is a root of g of even multiplicity
        f = _int_exact_div(f, _int_gcd(f, _int_derivative(f)))
        lo, hi = (lo, hi) if brackets(f) else (a, b)
    s0, s1 = (c + [0] * (max(map(len, s[:2])) - len(c)) for c in s[:2])  # one degree: -s_0 / s_1 on any grid
    rounded = []

    def double(num: int, den: int) -> float:
        try:
            return num / den
        except OverflowError:
            return math.inf if (num > 0) == (den > 0) else -math.inf

    def done(lo: int, hi: int, e: int) -> bool:
        (n0, n1), (d0, d1) = (_int_homogeneous_bounds(c, lo, hi, e) for c in (s0, s1))
        if d0 <= 0 <= d1:
            return False
        low, *_, high = sorted(double(-n, d) for n in (n0, n1) for d in (d0, d1))
        if low == high:
            rounded.append(low)
        elif math.isfinite(low - high) and math.nextafter(low, high) == high:  # the ratio at y0 may be the tie t
            t = (Fraction(low) + Fraction(high)) / 2
            at_t = _int_sub([t.denominator * c for c in s0], [-t.numerator * c for c in s1])  # s_0 + t s_1
            if real_root_count(Polynomial(_int_gcd(f, at_t)), a, b):
                rounded.append(t)
        return bool(rounded)

    lo, hi, e = _bracket(f, lo, hi, done)
    if lo == hi:
        return Fraction(-_int_homogeneous(s0, hi, 1 << e), _int_homogeneous(s1, hi, 1 << e))
    if math.isinf(rounded[0]):
        raise ConvergenceError("a ratio beyond the double range")
    return Fraction(rounded[0])


def _sign_at(h: Polynomial, g: Polynomial, a: Fraction, b: Fraction) -> int:
    """The sign of h at the one root of the square-free g in (a, b], exactly: -1, 0 or 1.

    0 where h and g share that root; else ``_bracket`` narrows (a, b] on
    the signs of g until Horner on intervals keeps h off 0 over it.
    """
    if real_root_count(h.gcd(g), a, b):
        return 0
    (f, ints), _ = _cleared([g, h])
    signs = []

    def done(lo: int, hi: int, e: int) -> bool:
        low, high = _int_homogeneous_bounds(ints, lo, hi, e)
        if low > 0 or high < 0:
            signs.append(1 if low > 0 else -1)
        return bool(signs)

    lo, hi, e = _bracket(f, a, b, done)
    return signs[0] if signs else (1 if _int_homogeneous(ints, hi, 1 << e) > 0 else -1)


# --------------------------------------------------------------------------
# exact real-root counting (Sturm)
# --------------------------------------------------------------------------


def _int_content_free(ints: list[int]) -> list[int]:
    """The integer list divided by the gcd of its entries (a positive factor)."""
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b over Z.

    Each elimination step scales by lc(b); the sign that the lc(b)^(d+1)
    factor carries in total is undone at the end, so the result has the
    sign pattern of the true remainder.
    """
    rem = a[:]
    lc, db = b[-1], len(b) - 1
    steps = 0
    while len(rem) - 1 >= db and rem:
        lead, shift = rem[-1], len(rem) - 1 - db
        rem = [lc * c for c in rem]
        for j, c in enumerate(b):
            rem[shift + j] -= lead * c
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
        steps += 1
    if lc < 0 and steps % 2:
        rem = [-c for c in rem]
    return rem


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd over Z, by the primitive pseudo-remainder sequence; [] for two zeros."""
    while b:
        a, b = b, _int_content_free(_int_pseudo_rem(a, b))
    return _int_content_free(a) if a else a


def _monic(ints: list[int]) -> Polynomial:
    """The monic rational polynomial of a nonzero integer list, one Fraction per coefficient."""
    return Polynomial([Fraction(c, ints[-1]) for c in ints])


def _sturm_sequence(p: Polynomial) -> list[list[int]] | None:
    """Positive integer multiples of the Sturm sequence of the square-free part of p.

    That part heads the sequence, primitive over Z: the sequence of p itself
    ends in gcd(p, p'), which is divided out once, exactly (Gauss's lemma).
    None for a nonzero constant; ``ValueError`` on the zero polynomial.
    """
    (ints,), _ = _cleared([p])
    if len(ints) < 2:
        if not ints:
            raise ValueError("the zero polynomial has no finite set of roots")
        return None
    seq = [_int_content_free(ints)]
    while True:
        seq[1:] = [_int_content_free(_int_derivative(seq[0]))]
        while len(seq[-1]) > 1 and (rem := _int_pseudo_rem(seq[-2], seq[-1])):
            seq.append(_int_content_free([-c for c in rem]))
        if len(seq[-1]) == 1:
            return seq
        seq = [_int_exact_div(seq[0], seq[-1])]


def _sign_variations(seq: list[list[int]], x) -> int:
    """Sign changes of the sequence at x (None: +inf, "-inf": -inf), zeros skipped."""
    if x is None:
        signs = [c[-1] > 0 for c in seq]
    elif x == "-inf":
        signs = [(c[-1] > 0) == (len(c) % 2 == 1) for c in seq]
    else:
        u, v = x.numerator, x.denominator
        values = (_int_homogeneous(c, u, v) for c in seq)
        signs = [val > 0 for val in values if val]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def real_root_count(p: Polynomial, lo=None, hi=None) -> int:
    """Number of distinct real roots of an exact polynomial in (lo, hi].

    ``lo=None`` and ``hi=None`` stand for -inf and +inf; finite ends are
    converted exactly (``as_fraction``).  Sturm's theorem on the square-free
    part (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*,
    ch. 2): the count is the drop in sign variations of the Sturm sequence
    from lo to hi.  The sequence is a primitive pseudo-remainder sequence
    over Z, so no rational gcd is taken.  Raises ``ValueError`` on the zero
    polynomial.
    """
    seq = _sturm_sequence(p)
    lo = "-inf" if lo is None else as_fraction(lo)
    hi = None if hi is None else as_fraction(hi)
    if seq is None or (lo != "-inf" and hi is not None and lo >= hi):
        return 0
    return _sign_variations(seq, lo) - _sign_variations(seq, hi)


def real_roots_above(p: Polynomial, center, size: int, real: int) -> int | None:
    """Distinct real roots of p above the ``size`` roots that cluster at ``center``, or None if not told apart.

    p has ``real`` real roots counted with multiplicity, Sturm's theorem
    counts distinct ones, and the cluster holds the difference: a multiple
    root, or roots that the rounding of p pushed off the real axis.  Its
    other members fill the widest interval (center - 2^e, center + 2^e]
    that holds no more roots, with e galloping down from a Cauchy bound and
    then bisected; None unless it holds exactly them, and for a constant p.
    """
    seq = _sturm_sequence(p)
    if seq is None:
        return None
    center = as_fraction(center)
    top = _sign_variations(seq, None)
    inside = size - real + _sign_variations(seq, "-inf") - top
    if inside < (_int_homogeneous(seq[0], center.numerator, center.denominator) == 0):
        return None
    counts = {}

    def count(e: int) -> int:
        if e not in counts:
            d = Fraction(2) ** e
            counts[e] = _sign_variations(seq, center - d) - _sign_variations(seq, center + d)
        return counts[e]

    # 2^high > |center| + 1 + max |c_k / c_n|, beyond every root
    high = math.floor(abs(center) + 1 + max(abs(Fraction(c, seq[0][-1])) for c in seq[0][:-1])).bit_length()
    e, step = high, 1
    while count(e) > inside:  # a root at center alone stops it
        high, e, step = e, e - step, 2 * step
    while high - e > 1:
        mid = (e + high) // 2
        e, high = (mid, high) if count(mid) <= inside else (e, mid)
    return _sign_variations(seq, center + Fraction(2) ** e) - top if count(e) == inside else None


def _dyadic_split(a: Fraction, b: Fraction) -> Fraction:
    """A dyadic point inside (a, b): a power of two for ends of one sign a factor 4 or more apart, else the midpoint.

    Such ends are powers of two (Fujiwara's bounds or earlier such splits),
    and the split halves the range of exponents between them.
    """
    (p, q), (r, s) = (a.numerator, a.denominator), (b.numerator, b.denominator)
    if 0 < 4 * p * s <= r * q or p * s <= 4 * r * q < 0:
        e = (p.bit_length() - q.bit_length() + r.bit_length() - s.bit_length()) // 2
        return (1 if p > 0 else -1) * Fraction(2) ** e
    return Fraction(p * s + r * q, 2 * q * s)


POLISH_BITS = 136  # 40 decimal digits


def _bracket(f: list[int], a: Fraction, b: Fraction, done) -> tuple[int, int, int]:
    """The one root of the integer polynomial f in (a, b], dyadic ends, bracketed as (lo / 2^e, hi / 2^e] once ``done(lo, hi, e)``; lo = hi where it is met.

    f changes sign in (a, b] only there (f(a) may be 0, at a neighbour).
    While the ends lie a factor 4 or more apart, ``_dyadic_split`` halves
    the range of their exponents; then quadratic interval refinement
    (Abbott, ISSAC 2006; Kerber and Sagraloff, ISSAC 2011): the secant
    through the ends picks a point of a grid of N pieces, and the signs of f
    there and at the grid point beside it keep the part that holds the root.
    N -> N^2 where that part is one piece, else N -> sqrt(N); N = 2 is a
    bisection.  Near a simple root the secant lands within a piece, so the
    bits double.
    """
    fb = _int_homogeneous(f, b.numerator, b.denominator)
    while fb and (0 < 4 * a <= b or a <= 4 * b < 0):
        m = _dyadic_split(a, b)
        fm = _int_homogeneous(f, m.numerator, m.denominator)
        a, b, fb = (m, b, fb) if fm and (fm > 0) != (fb > 0) else (a, m, fm)
    fa = _int_homogeneous(f, a.numerator, a.denominator) if fb else 0
    e, deg = max(a.denominator, b.denominator).bit_length() - 1, len(f) - 1
    sa, sb = (e + 1 - x.denominator.bit_length() for x in (a, b))  # the ends and their values onto the grid 2^-e
    lo, flo, hi, fhi, k = a.numerator << sa, fa << sa * deg, b.numerator << sb, fb << sb * deg, 2  # N = 2^k
    while fhi and not done(lo, hi, e):
        w, lo, hi, e = hi - lo, lo << k, hi << k, e + k
        flo, fhi = flo << k * deg, fhi << k * deg
        m = lo + w * min(max(_div_round(abs(flo) << k, abs(flo) + abs(fhi)), 1), (1 << k) - 1)
        for _ in range(2):  # the secant's grid point, then its neighbour toward the root
            fm = _int_homogeneous(f, m, 1 << e)
            lo, flo, hi, fhi = (m, fm, hi, fhi) if fm and (fm > 0) != (fhi > 0) else (lo, flo, m, fm)
            m = lo + w if lo == m else hi - w
            if not (fhi and lo < m < hi):
                break
        k = 2 * k if hi - lo == w else k // 2
    return (lo if fhi else hi), hi, e


def _refined_root(f: list[int], a: Fraction, b: Fraction) -> Fraction:
    """The root of the square-free integer polynomial f alone in (a, b], as ``real_root_intervals`` returns it.

    ``_bracket`` narrows (a, b] until the bracket is 2^-``POLISH_BITS`` of
    either end wide, which certifies it.  The exact root where the bracket
    meets it or it is the double of the upper end or the tie toward it;
    else the bracket's midpoint, on the root's side of that tie, rounded to
    ``POLISH_BITS`` + 2 bits or as many more as keep it inside (a, b] and
    off the tie: within 2^-``POLISH_BITS`` |root| of the root, with its
    correctly rounded double.  ``ConvergenceError`` for a root whose double
    overflows or is 0.
    """
    lo, hi, e = _bracket(f, a, b, lambda lo, hi, e: (hi - lo) << POLISH_BITS <= min(abs(lo), abs(hi)))
    x, low = Fraction(hi, 1 << e), Fraction(lo, 1 << e)
    try:
        d = float(x)
        near = Fraction(d), (Fraction(d) + Fraction(math.nextafter(d, math.inf if x > d else -math.inf))) / 2
    except OverflowError:
        d = 0.0
    if x and not d:
        raise ConvergenceError("a real root beyond the double range")
    for c in near:  # the double of x, or the tie between it and its neighbour toward x, may be the root itself
        if low < c <= x and not (fc := _int_homogeneous(f, c.numerator, c.denominator)):
            return c
    if lo == hi:
        return x
    if low < near[1] <= x:  # the bracket ends on the tie or straddles it (fc is f there): keep the root's side
        t = (near[1].numerator << e) // near[1].denominator  # exact: the tie lies on the bracket's grid
        lo, hi = (lo, t) if near[1] == x or (fc > 0) == (_int_homogeneous(f, hi, 1 << e) > 0) else (t, hi)
    # the midpoint, at 2^-(e + 1), rounded to a grid 2^s at most 2^-(POLISH_BITS + 1) of it and a quarter of its
    # distance to a, b and that tie (any other lies a quarter ulp off): it moves by at most 2^-(POLISH_BITS + 2)
    # |root|, stays in (a, b] and on the root's side of every tie, so it has the root's double
    mid = Fraction(lo + hi, 2 << e)
    room = math.floor(min(mid - a, b - mid, abs(mid - near[1])) * (2 << e))  # >= 1
    s = min(min(abs(lo), abs(hi)).bit_length() - POLISH_BITS - 1, room.bit_length() - 2)
    return mid if s <= 0 else Fraction(_div_round(lo + hi, 1 << s) << s, 2 << e)


def real_roots(p: Polynomial, lo=None, hi=None) -> list[Fraction]:
    """The distinct real roots of an exact polynomial in [lo, hi], ascending: ``real_root_intervals`` without the intervals."""
    return [x for x, _, _ in real_root_intervals(p, lo, hi)]


def real_root_intervals(p: Polynomial, lo=None, hi=None) -> list[tuple]:
    """The distinct real roots of an exact polynomial in [lo, hi], ascending, each as (root, a, b).

    The root is the only one of p in (a, b], a Sturm-isolating interval
    with finite dyadic ends.

    ``lo``/``hi`` of None stand for -inf/+inf; finite ends convert exactly
    and a root on one is kept.  The square-free part f heads the Sturm
    sequence, whose counts at lo and hi select the roots.  Isolation
    bisects from (-2^k, 2^k], with 2^-j below every nonzero root of f and
    2^k above every root (Fujiwara's bounds, ``_bits_below_roots``): an
    interval whose ends share a sign and lie a factor 4 or more apart is
    split at a power of two between them, any other at its midpoint, and
    only pieces that hold a wanted root are kept, until each holds one
    (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*,
    ch. 2).  ``_refined_root`` then narrows each piece to its root;
    multiplicities come from ``square_free_factors``.  Raises
    ``ValueError`` on the zero polynomial and ``ConvergenceError`` if a
    wanted root lies beyond the double range.
    """
    seq = _sturm_sequence(p)
    if seq is None:
        return []
    start = _sign_variations(seq, "-inf")
    below = 0  # the roots below lo; ``upto``: those up to hi
    if lo is not None:
        lo = as_fraction(lo)
        below = start - _sign_variations(seq, lo) - (_int_homogeneous(seq[0], lo.numerator, lo.denominator) == 0)
    upto = start - _sign_variations(seq, None if hi is None else as_fraction(hi))
    f = seq[0]
    zero = not f[0]  # a root at the origin, alone in (-2^-j, 0]
    big = Fraction(2) ** _bits_below_roots([(c, 0) for c in reversed(f)])
    small = Fraction(2) ** -_bits_below_roots([(c, 0) for c in f[zero:]])
    at0 = _sign_variations(seq, Fraction(0))
    # pieces (a, V(a), b, V(b)) still to split, the leftmost last
    pieces = [
        (small, at0, big, _sign_variations(seq, None)),
        (-small, at0 + zero, Fraction(0), at0),
        (-big, start, -small, at0 + zero),
    ]
    roots = []
    while pieces:
        a, va, b, vb = pieces.pop()
        if va == vb or start - vb <= below or start - va >= upto:
            continue
        if va - vb == 1:
            roots.append((_refined_root(f, a, b), a, b))
            continue
        m = _dyadic_split(a, b)
        vm = _sign_variations(seq, m)
        pieces += [(m, vm, b, vb), (a, va, m, vm)]
    return roots


def square_free_factors(p: Polynomial) -> tuple[Polynomial, ...]:
    """Yun's square-free factorization of an exact polynomial (Yun, 1976).

    Monic, square-free, pairwise coprime f_1, ..., f_k with p = lc(p) f_1
    f_2^2 ... f_k^k, so each root of f_m has multiplicity m in p (f_m = 1
    when there is none); a constant p gives ``()``.
    """
    if p.degree < 1:
        return ()
    # Yun's loop on primitive integer forms: a primitive divisor of an
    # integer polynomial leaves an integer quotient (Gauss's lemma)
    (b,), _ = _cleared([p])
    d = _int_derivative(b)
    a = _int_gcd(b, d)
    b, d = _int_exact_div(b, a), _int_exact_div(d, a)
    factors = []
    while len(b) > 1:
        d = _int_sub(d, _int_derivative(b))
        f = _int_gcd(b, d)
        factors.append(_monic(f))
        b, d = _int_exact_div(b, f), _int_exact_div(d, f)
    return tuple(factors)
