"""Core substrate: polynomials, roots, eigensolver, and the resultant kernel kept as an oracle."""

import cmath
import itertools
import math
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import epspect.core.poly as core_poly
import epspect.models as models
from epspect.core import (
    EXTENDED_BITS,
    ConvergenceError,
    Polynomial,
    as_fraction,
    charpoly_from_parts,
    cluster_points,
    eig_dense,
    eigvals_double,
    eigvals_mp,
    real_root_count,
    real_root_intervals,
    real_roots,
    real_roots_above,
    reality_flags,
    square_free_factors,
)
from epspect.core.eig import _berkowitz, _gaussian_cleared
from epspect.core.poly import (
    POLISH_BITS,
    _bracket,
    _cleared,
    _dyadic_roots,
    _int_exact_div,
    _int_homogeneous,
    _sign_at,
    _sturm_sequence,
)
from epspect.epfinder import classify_degeneracy
from epspect.models import BcModel, EpnModel, bc_matrix, bc_secular_parts, epn_matrix, hermitian_demo, secular_in_y
from epspect.sturmian import bivariate_secular
from oracles import (
    POLISH_PREC,
    Gaussian,
    as_mpc,
    berkowitz_by_dots,
    charpoly_tridiag,
    coefficients,
    disc_chain,
    disc_E,
    disc_in_y_at_p,
    discriminant,
    dyadic_roots_from_fractions,
    eigvals_at,
    epn_mp,
    epn_secular,
    event_pieces,
    fold_coeffs_in_E,
    fold_event_poly,
    frac,
    gaussian_cleared,
    nudged_seeds,
    pole_collision_poly,
    poly_at,
    reference_eigvals_mp,
    reference_extended_roots,
    res_E,
    resultant,
    sylvester_matrix,
)


# --------------------------------------------------------------------------
# Polynomial basics
# --------------------------------------------------------------------------


def test_polynomial_trims_trailing_exact_zeros():
    p = Polynomial([Fraction(1), Fraction(2), Fraction(0), Fraction(0)])
    assert p.degree == 1
    assert Polynomial([0]).degree == -1
    assert Polynomial([0]).is_zero


@pytest.mark.parametrize(
    "bad", [1.0, 0.5j, np.float64(1), np.int64(1), math.nan], ids=["float", "complex", "float64", "int64", "nan"]
)
def test_polynomial_refuses_an_inexact_coefficient(bad):
    for coeffs in ([bad], [1, bad], [Fraction(1, 3), bad, 2]):
        with pytest.raises(TypeError, match="the exact kernel requires exact coefficients"):
            Polynomial(coeffs)
    with pytest.raises(TypeError):
        Polynomial([1, 2]).scale(bad)


def test_polynomial_accepts_int_bool_and_fraction():
    assert Polynomial([True, 2, Fraction(1, 3)]).coeffs == (1, 2, Fraction(1, 3))
    assert Polynomial([Fraction(1, 2), False]).coeffs == (Fraction(1, 2),)
    assert Polynomial([]).is_zero and Polynomial([0, Fraction(0)]).is_zero


def test_polynomial_divmod_and_gcd():
    p = Polynomial.from_roots([Fraction(1), Fraction(2), Fraction(3)])
    q = Polynomial.from_roots([Fraction(2)])
    quot, rem = divmod(p, q)
    assert rem.is_zero
    assert quot == Polynomial.from_roots([Fraction(1), Fraction(3)])
    g = p.gcd(Polynomial.from_roots([Fraction(2), Fraction(5)]))
    assert g == Polynomial([Fraction(-2), Fraction(1)])


EXACT_COEFFS = st.lists(
    st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=30)), min_size=1, max_size=8
)


def _fraction_horner(coeffs, x):
    """Horner with the arithmetic of the argument's type, one operation at a time."""
    acc = 0 * x + 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=200, deadline=None)
@given(EXACT_COEFFS, st.one_of(st.integers(-20, 20), st.fractions(-20, 20, max_denominator=40)))
@example([Fraction(4, 2), 0, 3], 2)  # an integral Fraction coefficient keeps a Fraction value
@example([1, -3, 2], 1)  # an int root of int coefficients reads the int 0
@example([0], Fraction(1, 2))
def test_exact_evaluation_is_fraction_horner_with_its_type(coeffs, x):
    p = Polynomial(coeffs)
    got, want = p(x), _fraction_horner(p.coeffs, x)
    assert got == want and type(got) is type(want)
    if isinstance(x, int) and all(isinstance(c, int) for c in p.coeffs):
        assert type(got) is int


@settings(max_examples=100, deadline=None)
@given(EXACT_COEFFS, st.one_of(st.floats(-20, 20), st.complex_numbers(max_magnitude=20)))
def test_evaluation_at_a_float_or_complex_follows_its_type(coeffs, x):
    p = Polynomial(coeffs)
    got, want = p(x), _fraction_horner(p.coeffs, x)
    assert type(got) is type(want) is type(x)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.lists(EXACT_COEFFS, min_size=1, max_size=3))
def test_cleared_integers_match_the_fraction_route(lists):
    polys = [Polynomial(c) for c in lists]
    d = math.lcm(*(Fraction(c).denominator for p in polys for c in p.coeffs))
    want = [[int(c * d) for c in p.coeffs] for p in polys]
    for ints in want:
        while ints and not ints[-1]:
            ints.pop()
    assert _cleared(polys) == (want, d)


def test_cleared_refuses_a_float_coefficient():
    with pytest.raises(TypeError, match="the exact kernel requires exact coefficients"):
        _cleared([Polynomial([Fraction(1, 3), 2]), Polynomial([1, 0.5])])


@settings(max_examples=150, deadline=None)
@given(EXACT_COEFFS, EXACT_COEFFS.filter(lambda c: any(c)))
def test_exact_division_matches_fraction_long_division(qc, bc):
    q, b = Polynomial(qc), Polynomial(bc)
    quot, rem = divmod(q * b, b)
    got = (q * b).exact_div(b)
    assert rem.is_zero and got == quot == q
    if not q.is_zero:
        assert all(type(c) is Fraction for c in got.coeffs)
    if b.degree >= 1:
        with pytest.raises(ArithmeticError):
            (q * b + Polynomial([1])).exact_div(b)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(EXACT_COEFFS.filter(lambda c: len(c) > 1 and c[-1]), min_size=1, max_size=3),
    st.fractions(-9, 9).filter(bool),
)
def test_square_free_factors_are_monic_coprime_and_rebuild_p(pieces, lc):
    p = Polynomial([lc])
    for m, c in enumerate(pieces, 1):
        p = p * math.prod([Polynomial(c)] * m, start=Polynomial([1]))
    factors = square_free_factors(p)
    assert factors[-1].degree >= 1
    rebuilt = Polynomial([p.lc])
    for m, f in enumerate(factors, 1):
        assert f.lc == 1 and all(type(c) is Fraction for c in f.coeffs)
        assert f.gcd(f.derivative()).degree <= 0
        rebuilt = rebuilt * math.prod([f] * m, start=Polynomial([1]))
    assert rebuilt == p
    for f, g in itertools.combinations(factors, 2):
        assert f.gcd(g).degree <= 0


# --------------------------------------------------------------------------
# characteristic polynomial of tridiagonal matrices
# --------------------------------------------------------------------------


def _cofactor_det(rows):
    """Independent oracle: cofactor expansion over polynomial entries."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = Polynomial.zero()
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def _poly_matrix(diag, sup, sub):
    """(T - E I) as a matrix of exact polynomials in E."""
    n = len(diag)
    zero = Polynomial.zero()
    rows = [[zero] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = Polynomial([diag[k], Fraction(-1)])
    for k in range(n - 1):
        rows[k][k + 1] = Polynomial([sup[k]])
        rows[k + 1][k] = Polynomial([sub[k]])
    return rows


def test_epn_secular_at_q0_is_diagonal_product():
    # t = 1 (q = 0) decouples the chain; with the shift 8 back in, the
    # spectrum in E is 3, 5, ..., 13
    p = Polynomial([c(0) for c in epn_secular(6)])
    assert p == Polynomial.from_roots([Fraction(v) for v in (-5, -3, -1, 1, 3, 5)])


def test_charpoly_bc6_matches_printed_secular_polynomial():
    # exact identity comes from the secular decomposition; here the float
    # recurrence on the assembled matrix must agree at sampled couplings
    s = bivariate_secular(6, 0)
    for r in (0.0, 0.3, 0.7, 1.0):
        z = 1j * math.sqrt(1 - r * r) if r <= 1 else 0
        got = charpoly_tridiag(bc_matrix(6, z))
        want = poly_at(s, r * r)
        assert len(got) == len(want.coeffs)
        for a, b in zip(got, want.coeffs):
            assert abs(a - complex(b)) < 1e-12


def test_epn_secular_at_q1_is_pure_power():
    # t = 0 (q = 1): the shift vanishes and det(M - E) = E^6
    p = Polynomial([c(1) for c in epn_secular(6)])
    assert p == Polynomial([0, 0, 0, 0, 0, 0, 1])
    # independent oracle: exact cofactor expansion of the rationalized
    # similar matrix (sup -> -products, sub -> -1 keeps the determinant)
    diag = [Fraction(2 * k - 5) for k in range(6)]
    prods = [-Fraction((k + 1) * (5 - k)) for k in range(5)]
    rows = _poly_matrix(diag, [-pk for pk in prods], [Fraction(-1)] * 5)
    assert _cofactor_det(rows) == p


def test_epn_at_t1_decouples_into_simple_levels():
    # at t = 1 the off-diagonal products are +-0.0: the levels are the
    # diagonal, each one simple
    for n in range(2, 9):
        m = epn_matrix(n, 1.0).a
        assert not (m.diagonal(1) * m.diagonal(-1)).any()
        assert all(classify_degeneracy(m, d).kind == "simple" for d in m.diagonal())


def test_charpoly_matches_cofactor_on_random_exact_tridiagonals():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        for _ in range(3):
            diag = [Fraction(int(v)) for v in rng.integers(-5, 6, n)]
            sup = [Fraction(int(v)) for v in rng.integers(-4, 5, n - 1)]
            sub = [Fraction(int(v)) for v in rng.integers(-4, 5, n - 1)]
            got = charpoly_from_parts(diag, [s * t for s, t in zip(sup, sub)])
            want = _cofactor_det(_poly_matrix(diag, sup, sub))
            assert got == want


# --------------------------------------------------------------------------
# polynomial roots
# --------------------------------------------------------------------------


def test_real_roots_of_a_perfect_square():
    p = Polynomial([Fraction(4), Fraction(-4), Fraction(1)])
    assert real_roots(p) == [2]
    assert square_free_factors(p) == (Polynomial([1]), Polynomial([-2, 1]))


def _bisection_real_roots(coeffs, lo, hi, n_grid=4000):
    """Oracle: sign changes on a grid plus bisection."""

    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    xs = np.linspace(lo, hi, n_grid)
    roots = []
    for a, b in zip(xs[:-1], xs[1:]):
        fa, fb = f(a), f(b)
        if fa == 0:
            roots.append(a)
            continue
        if fa * fb < 0:
            for _ in range(80):
                m = 0.5 * (a + b)
                if f(a) * f(m) <= 0:
                    b = m
                else:
                    a = m
            roots.append(0.5 * (a + b))
    return roots


def test_real_roots_quartic_against_bisection_oracle():
    coeffs = [3, -16, 20, -8, 1]  # ascending
    expected = _bisection_real_roots(coeffs, 0.0, 4.0)
    assert len(expected) == 4
    got = real_roots(Polynomial([Fraction(c) for c in coeffs]))
    assert np.allclose([float(g) for g in got], expected, atol=1e-9)


def test_real_roots_of_a_pure_power():
    x = Polynomial([Fraction(0), Fraction(1)])
    assert real_roots(x * x * x * x * x * x) == [0]
    ((root, a, b),) = real_root_intervals(x * x * x * x * x * x, 0, 0)
    assert root == 0 and a < 0 <= b


# --------------------------------------------------------------------------
# exact real-root counting
# --------------------------------------------------------------------------

_real_factors = st.lists(
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=7), st.integers(1, 3)),
    max_size=4,
)
_complex_factors = st.lists(
    st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=9), max_size=2
)


def _product(real_roots, quadratics, lc):
    """lc * prod (x - a)^k * prod (x^2 + c): known roots, repeated ones included."""
    p = Polynomial([Fraction(lc)])
    for a, k in real_roots:
        for _ in range(k):
            p = p * Polynomial([-a, Fraction(1)])
    for c in quadratics:
        p = p * Polynomial([c, Fraction(0), Fraction(1)])
    return p


@settings(deadline=None, max_examples=150)
@given(
    _real_factors,
    _complex_factors,
    st.sampled_from([1, -3, Fraction(2, 5)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
def test_real_root_count_matches_planted_roots(real_roots, quadratics, lc, a, b):
    p = _product(real_roots, quadratics, lc)
    distinct = {r for r, _ in real_roots}
    assert real_root_count(p) == len(distinct)
    lo, hi = min(a, b), max(a, b)
    # (lo, hi]: a root on lo is out, a root on hi is in
    assert real_root_count(p, lo, hi) == sum(lo < r <= hi for r in distinct)
    assert real_root_count(p, None, hi) == sum(r <= hi for r in distinct)
    assert real_root_count(p, lo, None) == sum(r > lo for r in distinct)


def test_real_root_count_counts_endpoint_roots_on_the_right_only():
    p = _product([(Fraction(1), 2), (Fraction(2), 1), (Fraction(-1, 3), 3)], [Fraction(2)], 1)
    assert real_root_count(p) == 3
    assert real_root_count(p, 1, 2) == 1
    assert real_root_count(p, Fraction(1, 2), 1) == 1
    assert real_root_count(p, 1.0, 1.5) == 0
    assert real_root_count(p, 2, 1) == 0
    assert real_root_count(Polynomial([Fraction(7)])) == 0


def test_real_root_count_rejects_floats_and_zero():
    with pytest.raises(TypeError):
        real_root_count(Polynomial([1.0, -2.0, 1.0]))
    with pytest.raises(ValueError):
        real_root_count(Polynomial.zero())


def _is_dyadic(r: Fraction) -> bool:
    return r.denominator & (r.denominator - 1) == 0


@settings(deadline=None, max_examples=150)
@given(
    _real_factors,
    st.lists(st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=9), min_size=1, max_size=2),
    st.sampled_from([1, -3, Fraction(2, 5)]),
    st.integers(0, 3),
    st.integers(0, 3),
)
@example([(Fraction(0), 2), (Fraction(1, 3), 1)], [Fraction(1)], 1, 0, 1)
def test_real_roots_of_planted_roots(real_factors, quadratics, lc, i, j):
    p = _product(real_factors, quadratics, lc)
    want = sorted({r for r, _ in real_factors})
    got = real_roots(p)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if _is_dyadic(w):  # its double is the root: returned exactly
            assert g == w
        else:
            assert abs(g - w) <= Fraction(1, 2**100) and float(g) == float(w)
    # a root on lo or hi is kept
    if want:
        lo, hi = sorted((want[i % len(want)], want[j % len(want)]))
        assert [float(g) for g in real_roots(p, lo, hi)] == [float(w) for w in want if lo <= w <= hi]
    planted = {}
    for r, k in real_factors:
        planted[r] = planted.get(r, 0) + k
    found = {float(r): m for m, f in enumerate(square_free_factors(p), 1) for r in real_roots(f)}
    assert found == {float(r): k for r, k in planted.items()}


@st.composite
def _planted_roots(draw):
    """Distinct rational roots +-m 2^e, e in [-200, 200], some with a partner 2^-k (k <= 60) above them."""
    roots = set()
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.fractions(min_value=1, max_value=2, max_denominator=1000))
        r = draw(st.sampled_from([1, -1])) * m * Fraction(2) ** draw(st.integers(-200, 200))
        roots.add(r)
        if draw(st.booleans()):
            roots.add(r + abs(r) / 2 ** draw(st.integers(1, 60)))
    return sorted(roots)


_SCALES = [Fraction(4, 3) * Fraction(2) ** (20 * k - 200) * sign for k in range(10) for sign in (-1, 1)]


@settings(deadline=None, max_examples=30)  # a Sturm sequence at degree 40 and 2^200 takes seconds
@given(
    _planted_roots(),
    st.lists(st.integers(1, 3), min_size=20, max_size=20),
    _complex_factors,
    st.integers(0, 19),
    st.integers(0, 19),
    st.sampled_from(["both", "lo", "hi", "none"]),
)
@example([Fraction(2) ** -200, 3 * Fraction(2) ** -200, Fraction(2) ** 200], [1] * 20, [], 0, 2, "none")
@example([Fraction(-5, 7) * (1 + Fraction(1, 2**60)), Fraction(-5, 7), Fraction(1, 3)], [3] * 20, [], 0, 1, "both")
@example(sorted(_SCALES), [2] * 20, [], 3, 16, "both")  # degree 40
@example([Fraction(1), 1 + Fraction(1, 2**53)], [1] * 20, [], 0, 0, "lo")  # a root on a tie of two doubles
@example([1 + Fraction(1, 2**53) + Fraction(1, 3 * 2**200), Fraction(3)], [1] * 20, [], 0, 1, "none")  # just off a tie
@example([1 + Fraction(1, 2**53) - Fraction(1, 3 * 2**200), Fraction(3)], [1] * 20, [], 0, 1, "none")
@example([1 + Fraction(1, 2**150), Fraction(3)], [1] * 20, [], 0, 0, "none")  # nearer the split at 1 than Newton resolves
@example([Fraction(1), 1 + Fraction(1, 2**150), Fraction(3)], [1] * 20, [], 0, 2, "none")  # Newton only halves the gap
@example(  # a Newton iterate kept on its residual alone once missed even 2^-70 here
    [
        Fraction(-79989470920704, 91),
        Fraction(-9998683865088, 13),
        Fraction(-349, 351797248),
        Fraction(-1463811747, 1475544604475392),
        Fraction(249, 302104352320690171801888873360138569274174162831165053036658688),
        Fraction(63993, 77338714194096683981283551580195473734188585684778253577384624128),
        Fraction(25, 14462442398330912479877658831070463422699826944045135517712384),
        Fraction(1717986918425, 993851473937841185390604844167891665152959691992535663943403488227098624),
        Fraction(141, 440742125766605731236848827632584037671600265120186368),
        Fraction(162561932149565423757, 508141074782455258849883900360145998936712898076044710123840845977223168),
        Fraction(323, 81018099971732350697472),
        Fraction(23274602874250723651, 5837969357487350513793520608751273377792),
        Fraction(19807040628566084398385987584, 1),
        Fraction(19807040628566154767130165248, 1),
    ],
    [1] * 20,
    [],
    0,
    1,
    "lo",
)
def test_real_root_intervals_isolate_planted_roots_at_every_scale(roots, mults, quadratics, i, j, ends):
    """Planted roots from 2^-200 to 2^200 with multiplicities, close pairs
    down to 2^-60 apart relative to their size (2^-150 in an example),
    degree up to 40 and windows whose ends fall on roots: each root lies
    alone in its (a, b] by a Sturm count of 1, within 2^-136 of the planted
    root relative to its size, and its double is the planted root's,
    correctly rounded."""
    assume(sum(mults[: len(roots)]) + 2 * len(quadratics) <= 40)
    p = _product(list(zip(roots, mults)), quadratics, 1)
    lo, hi = sorted((roots[i % len(roots)], roots[j % len(roots)]))
    lo, hi = {"both": (lo, hi), "lo": (lo, None), "hi": (None, hi), "none": (None, None)}[ends]
    want = [r for r in roots if (lo is None or lo <= r) and (hi is None or r <= hi)]
    got = real_root_intervals(p, lo, hi)
    assert len(got) == len(want)
    for (x, a, b), w in zip(got, want):
        assert a < w <= b and real_root_count(p, a, b) == 1
        assert a < x <= b and abs(x - w) <= abs(w) / 2**136
        assert float(x) == float(w)
        if Fraction(float(w)) == w:
            assert x == w


def _signs_across(f, lo, hi, e):
    return [_int_homogeneous(f, u, 1 << e) > 0 for u in (lo, hi)]


def _to_136_bits(lo, hi, e):
    return (hi - lo) << 136 <= min(abs(lo), abs(hi))


def test_bracket_certifies_the_root_it_narrows_to():
    # f = 3x - 1 rises through 1/3, which no dyadic grid meets
    f = [-1, 3]
    lo, hi, e = _bracket(f, Fraction(1, 4), Fraction(1, 2), _to_136_bits)
    assert _signs_across(f, lo, hi, e) == [False, True]
    assert Fraction(lo, 1 << e) < Fraction(1, 3) < Fraction(hi, 1 << e)
    assert Fraction(hi - lo, 1 << e) <= Fraction(1, 3) / 2**136
    # 1 is met exactly; 1 + 2^-150 lies closer to it than 136 bits resolve
    planted = [Fraction(1), 1 + Fraction(1, 2**150), Fraction(3)]
    p = _product([(root, 1) for root in planted], [], 1)
    f = _sturm_sequence(p)[0]
    brackets = [(_bracket(f, a, b, _to_136_bits), root) for (_, a, b), root in zip(real_root_intervals(p), planted)]
    assert [root for (lo, hi, _), root in brackets if lo == hi] == [1, 3]
    for (lo, hi, e), root in brackets:
        if lo == hi:
            assert Fraction(hi, 1 << e) == root and not _int_homogeneous(f, hi, 1 << e)
        else:
            assert _signs_across(f, lo, hi, e) in ([False, True], [True, False])
            assert Fraction(lo, 1 << e) < root < Fraction(hi, 1 << e)
            assert Fraction(hi - lo, 1 << e) <= root / 2**136


@settings(deadline=None, max_examples=80)
@given(k=st.integers(2, 200), shift=st.integers(-3, 3), scale=st.sampled_from([1, -3, Fraction(2, 7)]))
@example(k=200, shift=0, scale=1)
@example(k=300, shift=1, scale=-3)
def test_sign_at_a_root_is_exact(k, shift, scale):
    # c > 0 lies within a few 2^-k of sqrt(2), and d is 3/2 moved by shift 2^-k:
    # the sign of scale (x - c) at sqrt(2) is that of scale (2 - c^2), and
    # at the dyadic root 3/2, which the bracket can meet exactly, that of
    # scale (3/2 - d), 0 where d = 3/2
    c = Fraction(math.isqrt(2 << 2 * k) + shift, 1 << k)
    d = Fraction(3, 2) + Fraction(shift, 1 << k)
    sign = 1 if scale > 0 else -1
    assert _sign_at(Polynomial([-c, 1]).scale(scale), Polynomial([-2, 0, 1]), Fraction(1), Fraction(2)) == sign * (1 if c * c < 2 else -1)
    assert _sign_at(Polynomial([-d, 1]).scale(scale), Polynomial([-3, 2]), Fraction(1), Fraction(2)) == sign * (Fraction(3, 2) > d) - sign * (Fraction(3, 2) < d)
    assert _sign_at(Polynomial([-2, 0, 1]) * Polynomial([5, 1]), Polynomial([-2, 0, 1]), Fraction(1), Fraction(2)) == 0


def _refinement_corpus():
    """Planted roots from 2^-200 to 2^200, close pairs and the square-free factors of the n = 8 shift scan."""
    return [
        _product([(root, 1) for root in _SCALES], [], 1),
        _product([(Fraction(1), 1), (1 + Fraction(1, 2**150), 1), (Fraction(3), 1)], [], 1),
        _product([(Fraction(2), 1), (2 + Fraction(1, 10**12), 1)], [], 1),
        _product([(Fraction(-5, 7) * (1 + Fraction(1, 2**60)), 1), (Fraction(-5, 7), 1)], [], 1),
        *(piece for piece, _ in event_pieces(8)),
    ]


def test_refinement_converges_quadratically(monkeypatch):
    """A guard on the refinement's rate that no host speed moves: exact
    evaluations per refined root, averaged over planted roots from 2^-200
    to 2^200, close pairs and the square-free factors of the n = 8 shift
    scan.  Quadratic refinement spends about 19 from the isolating
    interval, bisection to 136 bits about 124."""
    isolated = [(_sturm_sequence(p)[0], a, b) for p in _refinement_corpus() for _, a, b in real_root_intervals(p)]
    calls = []
    evaluate = core_poly._int_homogeneous
    monkeypatch.setattr(core_poly, "_int_homogeneous", lambda *args: calls.append(1) or evaluate(*args))
    for f, a, b in isolated:
        core_poly._refined_root(f, a, b)
    assert len(isolated) == 42
    assert len(calls) <= 20 * len(isolated), len(calls) / len(isolated)


def test_refined_roots_carry_about_the_certified_bits():
    """A root that is not exact carries POLISH_BITS + 2 significant bits
    (3 with a carry of its rounding), however far the last refinement step
    overshot, unless it needs more to stay inside its isolating interval:
    1 + 2^-150 beside the root 1 needs about 150.  Every root stays in its
    interval, and within 2^-136 of the root relative to its size: the
    midpoint is at most 2^-137 off, its rounding 2^-138 more."""
    widths = []
    for p in _refinement_corpus():
        f = _sturm_sequence(p)[0]
        for x, a, b in real_root_intervals(p):
            if _int_homogeneous(f, x.numerator, x.denominator):  # not the exact root
                inside = math.floor(abs(x) / min(x - a, b - x)).bit_length()  # bits that keep x off a and b
                assert x.numerator.bit_length() <= max(POLISH_BITS + 3, inside + 3), (x, a, b)
                widths.append(x.numerator.bit_length())
            _, hi, e = _bracket(f, a, b, lambda lo, hi, e: (hi - lo) << 200 <= min(abs(lo), abs(hi)))
            root = Fraction(hi, 1 << e)  # within 2^-200 of the root
            assert a < x <= b and abs(x - root) <= abs(root) * Fraction(7, 8) / 2**136
    assert len(widths) == 38 and sorted(widths)[len(widths) // 2] <= POLISH_BITS + 2
    # a root that the bracket meets comes back exactly, however many bits it has (here 151)
    met = Fraction(3, 2**200) + Fraction(1, 2**350)
    assert real_roots(Polynomial.from_roots([met, Fraction(3)]))[0] == met


@pytest.mark.parametrize("end, side", [("on", -1), ("across", -1), ("across", 1)])
def test_a_refined_root_keeps_the_side_of_a_tie_that_its_bracket_meets(monkeypatch, end, side):
    """A final bracket that ends on the tie t = 1 + 3 2^-53, which rounds up
    to even, or straddles it, with the root 2^-200 / 3 beside t: the root's
    double is the one on its own side of t, also where the bracket's
    midpoint lies on the other, and t is not returned."""
    tie = 1 + Fraction(3, 2**53)
    w = tie + side * Fraction(1, 3 * 2**200)
    f = [-w.numerator, w.denominator]
    e = 260
    t = tie * 2**e  # (lo, hi] holds w and t, and its midpoint lies across t from w
    u = math.floor(w * 2**e) if side < 0 else math.ceil(w * 2**e)
    lo, hi = sorted([u, 4 * t - 3 * u])
    if end == "on":  # then the root lies below t
        hi = t
    assert lo < w * 2**e < hi and lo < t <= hi
    monkeypatch.setattr(core_poly, "_bracket", lambda f, a, b, done: (int(lo), int(hi), e))
    x = core_poly._refined_root(f, Fraction(1), Fraction(2))
    assert x != tie and float(x) == float(w) and abs(x - w) <= w / 2**136


def test_real_roots_keep_roots_on_float_window_ends():
    p = _product([(Fraction(1), 2), (Fraction(2), 1), (Fraction(-1, 3), 3)], [Fraction(2)], 1)
    assert real_roots(p, 1.0, 2.0) == [1, 2]
    assert real_roots(p, 1.5, 2.0) == [2]
    assert real_roots(p, 2.0, 1.0) == []
    assert real_roots(Polynomial([Fraction(7)])) == []
    assert real_roots(_product([], [Fraction(1)], 1)) == []


def test_real_roots_close_pair_forces_the_extended_retry():
    # numpy.roots of the rounded coefficients splits the pair 1e-12 apart
    # into a complex pair ~6e-8 off the axis, which once forced the 103-bit
    # retry of the seeded isolation; Sturm bisection needs no seed
    pair = [Fraction(2), 2 + Fraction(1, 10**12)]
    p = Polynomial.from_roots([*pair, Fraction(3)])
    got = real_roots(p)
    assert got[0] == 2 and got[2] == 3
    # the pair's condition number ~1e12 costs 12 of the polisher's 40 digits
    assert abs(got[1] - pair[1]) <= Fraction(1, 10**26) and float(got[1]) == float(pair[1])


def test_real_roots_rejects_floats_and_zero():
    with pytest.raises(TypeError):
        real_roots(Polynomial([1.0, -2.0, 1.0]))
    with pytest.raises(ValueError):
        real_roots(Polynomial.zero())


def test_square_free_factors_of_a_constant_and_of_a_power():
    assert square_free_factors(Polynomial([Fraction(3)])) == ()
    x = Polynomial([Fraction(0), Fraction(1)])
    assert square_free_factors(x * x * x) == (Polynomial([1]), Polynomial([1]), x)


def test_non_finite_double_coefficients_are_refused_before_numpy():
    huge = Polynomial([Fraction(1), Fraction(10**400), Fraction(1)])
    with pytest.raises(ConvergenceError):
        real_roots(huge)


# --------------------------------------------------------------------------
# dense eigensolver
# --------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(1.0, math.inf)])
def test_eig_dense_of_a_non_finite_matrix_is_a_typed_refusal(bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ConvergenceError):
        eig_dense(a)


def test_eig_dense_hermitian_spectrum_is_real():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (g + g.conj().T) / 2
    res = eig_dense(h)
    assert np.max(np.abs(res.values.imag)) <= 1e-12 * np.linalg.norm(h)
    assert np.all(np.linalg.norm(h @ res.right - res.right * res.values, axis=0) <= 1e-10 * np.linalg.norm(h))


def test_eig_dense_epn_half_matches_closed_form():
    res = eig_dense(epn_matrix(6, 0.5))
    want = np.array([3, 5, 7, 9, 11, 13]) * math.sqrt(0.75)
    assert np.allclose(np.sort(res.values.real), want, atol=1e-9)
    assert np.max(np.abs(res.values.imag)) < 1e-9
    # independent route: characteristic polynomial + numpy's root finder
    rr = np.roots(charpoly_tridiag(epn_matrix(6, 0.5))[::-1])
    assert np.allclose(np.sort(rr.real), np.sort(res.values.real), atol=1e-9)


def test_eig_dense_epn_negative_t_has_no_real_eigenvalues():
    res = eig_dense(epn_matrix(6, -0.1))
    scale = np.max(np.abs(res.values))
    assert np.all(np.abs(res.values.imag) > 1e-10 * scale)


def test_eig_dense_left_vectors_satisfy_adjoint_relation():
    a = epn_matrix(5, 0.4).a
    res = eig_dense(a)
    for i in range(5):
        y = res.left[:, i]
        lhs = y.conj() @ a
        assert np.linalg.norm(lhs - res.values[i] * y.conj()) <= 1e-8 * np.linalg.norm(a)


def test_eig_dense_matches_charpoly_roots_on_random_tridiagonals():
    rng = np.random.default_rng(11)
    for n in (4, 8, 12):
        diag = 10.0 * np.arange(n) + rng.standard_normal(n)
        sup = rng.standard_normal(n - 1)
        sub = rng.standard_normal(n - 1)
        t = np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)
        ev = np.sort(eig_dense(t).values.real)
        rr = sorted(np.roots(charpoly_tridiag(diag, sup, sub)[::-1]).real)
        assert np.allclose(ev, rr, atol=1e-8)


def test_eig_dense_without_an_inverse_of_the_right_vectors_has_nan_left_vectors():
    # LAPACK's two eigenvectors of this Jordan block are exactly parallel
    res = eig_dense(np.array([[0.0, 1e300], [0.0, 0.0]]))
    assert np.all(np.isfinite(res.right)) and np.all(np.isnan(res.left))
    assert [c.multiplicity for c in res.clusters] == [2]


def test_eig_dense_flags_near_degenerate_vectors():
    res = eig_dense(bc_matrix(6, 1j))
    assert max(c.multiplicity for c in res.clusters) >= 2  # the merged pair at E = 2


def _random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize(
    "m",
    [
        epn_matrix(8, 0.5),
        bc_matrix(6, -0.5 + 0.8j),
        hermitian_demo(4, 0.3, 1),
        _random_complex(7, 5),
    ],
    ids=["epn8", "bc6", "demo4", "random7"],
)
def test_eigvals_double_matches_eig_dense_values_in_order(m):
    want = eig_dense(m).values
    got = eigvals_double(m)
    assert got.shape == want.shape
    # index by index, so the (Re, Im) order must agree as well
    assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))


def _random_real_normal(n, seed):
    """Q T Q^T with Q orthogonal and T block diagonal: 1x1 real blocks and
    scaled rotations (conjugate pairs), real parts 3 apart.  The matrix is
    normal, so every eigenvalue is perfectly conditioned."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = np.zeros((n, n))
    k = 0
    while k < n:
        t[k, k] = 3.0 * k + rng.uniform(-1, 1)
        if k + 1 < n and rng.random() < 0.5:
            t[k + 1, k + 1] = t[k, k]
            t[k, k + 1] = rng.uniform(0.5, 2.0)
            t[k + 1, k] = -t[k, k + 1]
            k += 1
        k += 1
    return q @ t @ q.T


def _assert_closed_under_conjugation(values):
    # exact: a real eigenvalue has imaginary part 0.0 (its own conjugate),
    # every other one has its conjugate bit for bit in the spectrum
    pairs = sorted((v.real, v.imag) for v in values)
    assert pairs == sorted((v.real, -v.imag) for v in values)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_real_matrix_spectrum_is_exactly_conjugate_closed(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    values = eigvals_double(a)
    assert values.dtype == complex
    _assert_closed_under_conjugation(values)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.floats(0.0, 2.0))
def test_epn_spectrum_is_exactly_conjugate_closed(n, t):
    _assert_closed_under_conjugation(eigvals_double(epn_matrix(n, t)))


def test_eigvals_double_stack_matches_single_solves_bit_for_bit():
    # real matrices (EPN ones, one at its EP8, and a random one with
    # conjugate pairs) between complex boundary-controlled ones
    stack = [
        epn_matrix(8, 0.3).a,
        bc_matrix(8, 1j).a,
        epn_matrix(8, 0.0).a,
        bc_matrix(8, -0.5 + 0.8j).a,
        epn_matrix(8, 1.7).a,
        np.random.default_rng(3).standard_normal((8, 8)),
    ]
    got = eigvals_double(np.array(stack))
    assert got.shape == (len(stack), 8) and got.dtype == complex
    for row, m in zip(got, stack):
        assert row.tobytes() == eigvals_double(m).tobytes()
    # the real matrices keep the real driver inside the stack
    for i in (0, 4):
        assert np.all(got[i].imag == 0.0)
    for i in (2, 5):
        _assert_closed_under_conjugation(got[i])
    assert np.any(got[5].imag != 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_real_driver_matches_complex_driver(n, seed):
    a = _random_real_normal(n, seed)
    got = eigvals_double(a)
    want = np.linalg.eigvals(a.astype(complex))
    # matched, not index by index: a conjugate pair's two real parts are
    # equal from the real driver and may differ in the last bit from the
    # complex one, which can swap the pair in (Re, Im) order
    rows, cols = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    assert np.all(np.abs(got[rows] - want[cols]) <= 1e-8 * (1 + np.abs(want[cols])))
    dense = eig_dense(a).values
    assert np.all(np.abs(got - dense) <= 1e-12 * (1 + np.abs(dense)))


def test_reality_flags_scale_is_per_column():
    # the same value 1 + 5e-9 i is real beside |E| = 100 (scale 100) and
    # not real beside |E| = 1 (scale 1)
    tracks = np.array([[100.0, 1.0], [1 + 5e-9j, 1 + 5e-9j]])
    assert reality_flags(tracks).tolist() == [[True, True], [True, False]]
    for k in range(2):
        assert reality_flags(tracks[:, k]).tolist() == reality_flags(tracks)[:, k].tolist()
    # the scale never drops below 1
    assert reality_flags(np.array([0.0, 1e-11j, 2e-10j])).tolist() == [True, True, False]


# --------------------------------------------------------------------------
# extended eigenvalues: Berkowitz charpoly + Aberth against the mp.eig oracle
# --------------------------------------------------------------------------


def _oracle_input(kind, n):
    if kind == "random":
        rng = np.random.default_rng(100 + n)
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "epn":
        return epn_matrix(n, 0.5).a
    return bc_matrix(n, 1j).a


@pytest.mark.parametrize("kind", ["random", "epn", "bc"])
@pytest.mark.parametrize("n", range(2, 9))
def test_eigvals_mp_matches_mp_eig_oracle(n, kind):
    a = _oracle_input(kind, n)
    with mp.workdps(30):
        # eigvals_mp is the 103-bit route of ``eigvals_at``, each root rounded once
        assert eigvals_mp(a) == [complex(v) for v in eigvals_at(mp.matrix(a.tolist()), EXTENDED_BITS)]
    with mp.workdps(40):
        m = mp.matrix(a.tolist())
        ours = eigvals_at(m, POLISH_PREC)
        oracle, _ = mp.eig(m)
        assert len(ours) == n
        # bc at z = i has a defective pair at E = 2 for even n.  Aberth locks
        # a root once |p(z)| <= 16 eps sum |c_k| |z|^k, so the members of a
        # defective k-cluster are fixed only to about (eps sum|c_k|)^(1/k)
        # (~1e-19 here, against ~1e-21 from QR); they are held to that fog
        for c in cluster_points([complex(v) for v in oracle], rtol=1e-12):
            center = mp.mpc(c.center)
            near = lambda vals: [v for v in vals if abs(v - center) <= 1e-8 * (1 + abs(center))]
            members, want = near(ours), near(oracle)
            assert len(members) == len(want) == c.multiplicity
            if c.multiplicity == 1:
                tol = mp.mpf("1e-20")
            else:
                tol = (10**6 * mp.eps) ** (mp.mpf(1) / c.multiplicity)
            centroid = mp.fsum(want) / c.multiplicity
            for v in members:
                assert abs(v - centroid) <= tol * (1 + abs(centroid))


def test_eigvals_mp_resolves_epn6_exceptional_point():
    # the secular polynomial is exactly u^6 at t = 0; the 40-digit matrix
    # splits the EP by ~(1e-40)^(1/6), for the kernel and for QR alike
    assert EpnModel(6).eigvals_mp(0.0) == [0j] * 6
    with mp.workdps(40):
        m = epn_mp(6, 0)
        for ev in (eigvals_at(m, POLISH_PREC), mp.eig(m)[0]):
            center = mp.fsum(ev) / len(ev)
            assert abs(center) < 1e-5
            assert max(abs(v - center) for v in ev) < 1e-5


def test_eigvals_mp_reaches_a_complex_pair_from_real_seeds(monkeypatch):
    # real seeds of a real polynomial keep every Aberth iterate real; the
    # double seed solve is replaced by real ones to cover the off-axis lift
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array([0.5, -0.5]))
    ev = sorted(eigvals_mp(np.array([[0.0, -1.0], [1.0, 0.0]])), key=lambda v: v.imag)
    assert abs(ev[0] + 1j) < 1e-25 and abs(ev[1] - 1j) < 1e-25


def test_as_fraction_keeps_sign_and_refuses_non_finite_values():
    tiny = Fraction(-3, 2**1100)
    assert as_fraction(tiny) is tiny
    assert as_fraction(-0.75) == as_fraction(Fraction(-3, 4)) == Fraction(-3, 4)
    assert as_fraction(-5e-324) == Fraction(-1, 2**1074)
    assert as_fraction(2.0**80) == 2**80
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            as_fraction(bad)


# The integer kernels of the extended tier against exact and mpmath oracles.


def _gaussian_det(rows):
    """Determinant of a matrix of (re, im) Fraction pairs by exact elimination."""
    mul = lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
    a = [list(row) for row in rows]
    det = (Fraction(1), Fraction(0))
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k] != (0, 0)), None)
        if piv is None:
            return (Fraction(0), Fraction(0))
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = (-det[0], -det[1])
        det = mul(det, a[k][k])
        q = a[k][k][0] ** 2 + a[k][k][1] ** 2
        inv = (a[k][k][0] / q, -a[k][k][1] / q)
        for i in range(k + 1, len(a)):
            f = mul(a[i][k], inv)
            a[i] = [(x[0] - g[0], x[1] - g[1]) for x, g in zip(a[i], [mul(f, y) for y in a[k]])]
    return det


_dyadics = st.builds(
    lambda man, exp: Fraction(man) * Fraction(2) ** exp, st.integers(-(2**53), 2**53), st.integers(-300, 300)
)


@st.composite
def _exact_matrices(draw):
    """A square matrix (rows of ``Gaussian`` entries) of complex, real-only or
    sparse dyadic entries over exponents -300..300, or of 40-digit values."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["complex", "real", "sparse", "dps40"]))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if kind == "dps40":
                with mp.workdps(40):
                    x = mp.sqrt(draw(st.integers(1, 10**6))) * mp.mpf(2) ** draw(st.integers(-60, 60))
                    rows[i][j] = Gaussian(frac(x), frac(draw(st.sampled_from([0, -1])) / x))
            elif kind == "sparse" and draw(st.booleans()):
                rows[i][j] = Gaussian(Fraction(0), Fraction(0))
            else:
                im = Fraction(0) if kind == "real" else draw(_dyadics)
                rows[i][j] = Gaussian(draw(_dyadics), im)
    return rows


@settings(deadline=None, max_examples=60)
@given(_exact_matrices())
def test_integer_berkowitz_is_the_exact_characteristic_polynomial(m):
    n = len(m)
    exact = [[(v.real, v.imag) for v in row] for row in m]
    flat, d = gaussian_cleared([v for row in m for v in row])
    assert d & (d - 1) == 0  # dyadic entries: D is a power of two
    assert flat == [(int(re * d), int(im * d)) for row in exact for re, im in row]
    coeffs = _berkowitz([re for re, _ in flat], [im for _, im in flat], n)
    assert len(coeffs) == n + 1 and coeffs[-1] == (1, 0)
    # both sides are monic of degree n in x, so n values fix them:
    # det(x I - A) = D^-n det(D x I - D A)
    for x in range(n):
        want = _gaussian_det(
            [[((x if i == j else 0) - re, -im) for j, (re, im) in enumerate(row)] for i, row in enumerate(exact)]
        )
        got = tuple(
            sum(Fraction(c[part]) * (d * x) ** k for k, c in enumerate(coeffs)) / Fraction(d) ** n
            for part in (0, 1)
        )
        assert got == want


_half_integer_points = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def _from_roots(roots):
    """Gaussian-integer coefficients of prod (2x - R) for the Gaussian integers R:
    a polynomial whose roots are R / 2."""
    coeffs = [(1, 0)]
    for rr, ri in roots:
        out = [(0, 0)] + [(2 * cr, 2 * ci) for cr, ci in coeffs]
        for k, (cr, ci) in enumerate(coeffs):
            out[k] = (out[k][0] - (rr * cr - ri * ci), out[k][1] - (rr * ci + ri * cr))
        coeffs = out
    return coeffs


def _double_seeds(coeffs):
    return np.roots([complex(cr, ci) for cr, ci in reversed(coeffs)])


def _circle_seeds(degree):
    """Seeds far from every root: the Aberth term has to keep them apart."""
    return [5 * cmath.exp(2j * math.pi * (k + 0.25) / degree + 0.4j) for k in range(degree)]


def _roots_at_40_digits(coeffs, seeds):
    """The integer kernel's roots at 136 bits, as ``mpc`` (call at 40 digits)."""
    roots, scale, _ = _dyadic_roots(coeffs, seeds, POLISH_PREC)
    return [as_mpc(root, scale) for root in roots]


@settings(deadline=None, max_examples=80)
@given(st.lists(_half_integer_points, min_size=1, max_size=6, unique=True), st.booleans())
def test_integer_aberth_matches_mp_polyroots_on_simple_roots(points, far_seeds):
    coeffs = _from_roots(points)
    seeds = _circle_seeds(len(points)) if far_seeds else _double_seeds(coeffs)
    with mp.workdps(40):
        ours = _roots_at_40_digits(coeffs, seeds)
        oracle = mp.polyroots([mp.mpc(cr, ci) for cr, ci in reversed(coeffs)], maxsteps=200, extraprec=100)
        assert len(ours) == len(oracle) == len(points)
        for want in oracle:
            assert min(abs(v - want) for v in ours) <= 1e-25


@settings(deadline=None, max_examples=80)
@given(
    _half_integer_points.filter(lambda p: p != (0, 0)),
    st.integers(2, 4),
    st.lists(_half_integer_points, max_size=2, unique=True),
)
def test_integer_aberth_holds_multiple_roots_to_the_fog_bound(point, mult, others):
    others = [p for p in others if p != point]
    coeffs = _from_roots([point] * mult + others)
    center = complex(*point) / 2
    with mp.workdps(40):
        ours = _roots_at_40_digits(coeffs, _double_seeds(coeffs))
        fog = (10**6 * mp.eps) ** (mp.mpf(1) / mult) * (1 + abs(center))
        members = [v for v in ours if abs(v - center) <= fog]
    assert len(members) == mult
    assert len(ours) == mult + len(others)


def _stall_first_root(monkeypatch):
    """Make the integer Aberth kernel report its first root unconverged."""
    real_aberth = core_poly._aberth_fixed

    def stalls_on_first(coeffs, z, bits, eps_bits, maxiter=200):
        z, locked, it = real_aberth(coeffs, z, bits, eps_bits, maxiter)
        return z, [False] + locked[1:], it

    monkeypatch.setattr(core_poly, "_aberth_fixed", stalls_on_first)


def test_eigvals_mp_raises_on_unconverged_roots(monkeypatch):
    _stall_first_root(monkeypatch)
    with pytest.raises(ConvergenceError) as err:
        eigvals_mp(epn_matrix(4, 0.5))
    assert len(err.value.roots) == 4
    assert err.value.unconverged == (err.value.roots[0],)


@pytest.mark.parametrize(
    "m",
    [
        [[1e308, 1e308], [1e308, 1e308]],  # the double eigenvalue 2e308 overflows to inf
        [[1e308j, 1e308j], [1e308j, 1e308j]],  # and to inf j on the complex driver
    ],
)
def test_eigvals_mp_refuses_seeds_beyond_the_double_range(m):
    with pytest.raises(ConvergenceError, match="beyond the double range"):
        eigvals_mp(np.array(m))


# The extended tier runs on ints from the double matrix to the rounded
# roots; the earlier route through ``Fraction`` seeds and per-dot Berkowitz
# products (``oracles.reference_eigvals_mp``) is its bit-for-bit reference.


def _hexes(values):
    """Each value's parts as ``float.hex``, so that -0.0 and 0.0 differ."""
    return [(v.real.hex(), v.imag.hex()) for v in values]


def _outcome(solve, *args, read=_hexes):
    """``read`` of what ``solve(*args)`` returns, or its refusal with the roots it carries."""
    try:
        return read(solve(*args))
    except (ConvergenceError, ValueError) as exc:
        return type(exc), str(exc), _hexes(getattr(exc, "roots", ())), _hexes(getattr(exc, "unconverged", ()))


def _assert_same_fixed_point_roots(coeffs, exp2, approx):
    """``_extended_roots``'s fixed-point roots, scale and sweep count, or its refusal, are the reference's."""
    values = np.linalg.eigvals(approx.astype(complex))
    got = _outcome(_dyadic_roots, coeffs, values, EXTENDED_BITS, exp2, read=tuple)
    want = _outcome(dyadic_roots_from_fractions, coeffs, nudged_seeds(values), EXTENDED_BITS, exp2, read=tuple)
    assert got == want


_binary_entries = st.one_of(
    st.just(0.0),
    st.builds(lambda x, sign: sign * x, st.floats(2.0**-80, 2.0**20), st.sampled_from([1.0, -1.0])),
)


@st.composite
def _double_matrices(draw):
    """A real or complex n x n double matrix, n = 1..8, with entries from
    2^-80 to 2^20 in magnitude; a singular one repeats a row or zeroes a
    column, so that roots at the origin deflate."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["real", "complex", "singular"]))
    entries = st.lists(_binary_entries, min_size=n * n, max_size=n * n)
    a = np.array(draw(entries), dtype=complex).reshape(n, n)
    if kind != "real":
        a += 1j * np.array(draw(entries)).reshape(n, n)
    if kind == "singular":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            a[i] = a[j] * 2.0 ** draw(st.integers(-3, 3))
        else:
            a[:, i] = 0
    return a


@settings(deadline=None, max_examples=80)
@given(_double_matrices())
@example(np.zeros((0, 0)))
@example(np.zeros((3, 3)))
@example(np.diag([0.0, 1.0, 0.0, -1.0]))
def test_eigvals_mp_is_the_reference_route_bit_for_bit(a):
    assert _outcome(eigvals_mp, a) == _outcome(reference_eigvals_mp, a)
    re, im, k = _gaussian_cleared(a)
    flat, d = gaussian_cleared(a.ravel())
    assert (re, im, k) == ([x for x, _ in flat], [y for _, y in flat], d.bit_length() - 1)
    coeffs = _berkowitz(re, im, len(a))
    assert coeffs == berkowitz_by_dots([flat[i * len(a) : (i + 1) * len(a)] for i in range(len(a))])
    _assert_same_fixed_point_roots(coeffs, k, a)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_eigvals_mp_near_an_epn_exceptional_point_is_the_reference_route(n, seed):
    rng = np.random.default_rng(seed)
    a = epn_matrix(n, 0.0).a + 1e-12 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert _outcome(eigvals_mp, a) == _outcome(reference_eigvals_mp, a)
    re, im, k = _gaussian_cleared(a)
    _assert_same_fixed_point_roots(_berkowitz(re, im, n), k, a)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 8), st.floats(-1.5, 1.5), st.floats(-3.0, 3.0))
@example(6, 0.0, 2.0)
@example(5, -0.5, 1.0)
def test_bc_eigvals_mp_is_the_reference_route(n, y, r):
    model = BcModel(n, y)
    with mock.patch.object(models, "_extended_roots", reference_extended_roots):
        want = _outcome(model.eigvals_mp, r)
    with mock.patch.object(models, "_extended_roots", wraps=models._extended_roots) as solve:
        assert _outcome(model.eigvals_mp, r) == want
    if solve.called:  # beyond |r| ~ 1.3e154 the matrix is refused first
        _assert_same_fixed_point_roots(*solve.call_args.args)


def test_eigvals_mp_builds_no_fraction(monkeypatch):
    rng = np.random.default_rng(5)
    a = epn_matrix(6, 0.0).a + 1e-9 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    built = []
    fraction_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    eigvals_mp(a)
    assert built == []


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf), complex(1, math.nan)])
def test_eigvals_mp_refuses_non_finite_entries(bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="has no exact rational value"):
        eigvals_mp(a)


# --------------------------------------------------------------------------
# resultants and discriminants: the oracle's subresultant kernel
# --------------------------------------------------------------------------


def test_resultant_shared_root_is_zero():
    p = Polynomial([Fraction(-1), Fraction(1)])
    assert resultant(p, p) == 0


def test_resultant_sign_convention():
    p = Polynomial([Fraction(-1), Fraction(1)])  # E - 1
    q = Polynomial([Fraction(1), Fraction(1)])  # E + 1
    # lc(p)^deg(q) * q(1) = 2
    assert resultant(p, q) == 2


def test_resultant_of_secular_and_derivative_vanishes_at_r0():
    s = bivariate_secular(6, 0)
    a = s.A
    assert resultant(a, a.derivative()) == 0
    # oracle: the square factor (E-2)^2 of A explains the vanishing
    square = Polynomial([Fraction(4), Fraction(-4), Fraction(1)])
    quart = Polynomial([Fraction(3), Fraction(-16), Fraction(20), Fraction(-8), Fraction(1)])
    assert a == square * quart


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=4),
    st.lists(st.integers(-6, 6), min_size=2, max_size=4),
    st.integers(-5, 5),
)
def test_resultant_detects_planted_common_factor(pc, qc, root):
    p = Polynomial([Fraction(c) for c in pc])
    q = Polynomial([Fraction(c) for c in qc])
    if p.degree < 1 or q.degree < 1:
        return
    factor = Polynomial([Fraction(-root), Fraction(1)])
    assert resultant(p * factor, q * factor) == 0


def test_resultant_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        resultant(Polynomial([Fraction(3)]), Polynomial([Fraction(0), Fraction(1)]))


def test_resultant_and_discriminant_refuse_floating_coefficients():
    # the refusal comes from building the floating polynomial
    q = Polynomial([Fraction(1), Fraction(1)])
    for call in (lambda p: resultant(p, q), lambda p: resultant(q, p), discriminant):
        with pytest.raises(TypeError, match="the exact kernel requires exact coefficients"):
            call(Polynomial([6.0, -5.0, 1.0]))


def test_discriminant_normalization():
    # pinned convention Res(p, p')/lc: for (E-2)(E-3) that is p'(2)p'(3) = -1
    # (differs from the textbook discriminant by (-1)^(n(n-1)/2))
    p = Polynomial([Fraction(6), Fraction(-5), Fraction(1)])
    assert discriminant(p) == -1
    assert discriminant(Polynomial([Fraction(4), Fraction(-4), Fraction(1)])) == 0


# --------------------------------------------------------------------------
# discriminant of the bivariate secular polynomial
# --------------------------------------------------------------------------


def test_discriminant_in_E_vanishes_at_p0_for_even_n():
    d = disc_E(coefficients(bivariate_secular(6, 0)))
    assert d(Fraction(0)) == 0
    # simple zero: the EP at r = 0 is the only one on [0, 1]
    dd = Polynomial(d.coeffs[1:])
    assert dd(Fraction(0)) != 0
    real_in_range = [
        z.real for z in np.roots([float(c) for c in reversed(dd.coeffs)]) if abs(z.imag) <= 1e-8 and 0 <= z.real <= 1
    ]
    assert real_in_range == []


def test_discriminant_in_E_constant_when_B_zero():
    a = Polynomial.from_roots([Fraction(1), Fraction(2), Fraction(4)])
    d = disc_E([Polynomial([c]) for c in a.coeffs])
    assert d.degree == 0
    assert d.coeffs[0] != 0


def test_discriminant_in_E_has_zero_past_critical_shift():
    # just past the critical shift of the five-level family the level pair
    # touches at small coupling: a real discriminant zero inside (0, 1)
    d = disc_E(coefficients(bivariate_secular(5, -0.2)))
    zeros = [
        z.real
        for z in np.roots([float(c) for c in reversed(d.coeffs)])
        if abs(z.imag) <= 1e-8 * (1 + abs(z)) and 0 < z.real < 1
    ]
    assert zeros, "expected a real discriminant zero in (0, 1)"


def test_discriminant_in_E_matches_pointwise_resultant():
    rng = np.random.default_rng(5)
    s = bivariate_secular(6, Fraction(1, 3))
    d = disc_E(coefficients(s))
    lc = s.A.lc
    for _ in range(20):
        p0 = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 40)))
        poly = poly_at(s, p0)
        want = Fraction(resultant(poly, poly.derivative())) / lc
        assert d(p0) == want

    # the event polynomials in the shift y, against the same scalar kernels
    # at rational points
    n = 5
    for y0 in (Fraction(-1, 2), Fraction(1, 3), Fraction(-7, 9), Fraction(2)):
        s = bivariate_secular(n, y0)
        assert disc_in_y_at_p(n)(y0) == discriminant(poly_at(s, 0))
        # the chain at a nonzero coupling, on coefficients A(y) + p0 B built here (B = -c3 is constant in y)
        for p0 in (Fraction(0), Fraction(2, 5)):
            at_p0 = [c - Polynomial([p0 * b]) for c, b in itertools.zip_longest(secular_in_y(n), bc_secular_parts(n)[3].coeffs, fillvalue=0)]
            assert disc_chain(at_p0).disc(y0) == discriminant(poly_at(s, p0))
        assert pole_collision_poly(n)(y0) == resultant(s.A, s.B)
        w = s.A.derivative() * s.B - s.A * s.B.derivative()
        assert fold_event_poly(n)(y0) == discriminant(w)


# --------------------------------------------------------------------------
# the exact kernel against an oracle that does not go through it
# --------------------------------------------------------------------------


def _det_gauss(rows):
    """Determinant by Fraction Gaussian elimination with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _sylvester(f, g):
    """Sylvester matrix of two ascending coefficient lists, leading zeros kept."""
    n, m = len(f) - 1, len(g) - 1
    return [[0] * i + f[::-1] + [0] * (m - 1 - i) for i in range(m)] + [
        [0] * i + g[::-1] + [0] * (n - 1 - i) for i in range(n)
    ]


def _disc_oracle(p):
    return _det_gauss(sylvester_matrix(p, p.derivative())) / p.lc


@pytest.mark.parametrize("n", range(3, 10))
def test_event_polynomials_match_gaussian_elimination(n):
    for y0 in (Fraction(-1, 2), Fraction(2, 7), Fraction(-9, 10)):
        s = bivariate_secular(n, y0)
        a = Polynomial([c(y0) for c in secular_in_y(n)])
        assert a == s.A
        assert disc_in_y_at_p(n)(y0) == _disc_oracle(a)
        assert pole_collision_poly(n)(y0) == _det_gauss(sylvester_matrix(s.A, s.B))
        w = Polynomial([c(y0) for c in fold_coeffs_in_E(n)])
        assert fold_event_poly(n)(y0) == _disc_oracle(w)


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9)
_polys_in_y = st.lists(_fractions, min_size=1, max_size=3).map(Polynomial)


@settings(deadline=None, max_examples=80)
@given(
    st.lists(_polys_in_y, min_size=2, max_size=4),
    st.lists(_polys_in_y, min_size=2, max_size=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=20),
)
def test_res_E_with_denominators_matches_sylvester_at_a_point(f, g, y0):
    fy, gy = [c(y0) for c in f], [c(y0) for c in g]
    assert res_E(f, g)(y0) == _det_gauss(_sylvester(fy, gy))
    if fy[-1] != 0:
        dfy = [k * c for k, c in enumerate(fy)][1:]
        assert disc_E(f)(y0) == _det_gauss(_sylvester(fy, dfy)) / fy[-1]


def test_res_E_zero_leading_pivot_swaps_rows():
    # lc_E(f) is the zero polynomial, so the first pivot is zero
    f = [Polynomial([Fraction(1, 2), Fraction(1, 3)]), Polynomial([Fraction(2, 3)]), Polynomial.zero()]
    g = [Polynomial([Fraction(-5, 4)]), Polynomial([Fraction(0), Fraction(3, 7)]), Polynomial([Fraction(1, 6)])]
    res = res_E(f, g)
    assert not res.is_zero
    for y0 in (Fraction(0), Fraction(1, 3), Fraction(-7, 5)):
        assert res(y0) == _det_gauss(_sylvester([c(y0) for c in f], [c(y0) for c in g]))


def test_integer_division_is_checked():
    assert _int_exact_div([2, 6, 4], [1, 2]) == [2, 2]
    with pytest.raises(ArithmeticError):
        _int_exact_div([1, 1], [2])  # quotient not integral
    with pytest.raises(ArithmeticError):
        _int_exact_div([1, 0, 1], [1, 1])  # remainder 2
    with pytest.raises(ZeroDivisionError):
        _int_exact_div([1], [])


def _in_E(*coeffs):
    """E-coefficients, each an ascending coefficient list in y."""
    return [Polynomial([Fraction(c) for c in cs]) for cs in coeffs]


_polys_up_to_cubic = st.lists(_fractions, min_size=1, max_size=4).map(Polynomial)


@settings(deadline=None, max_examples=80)
@given(
    st.lists(_polys_up_to_cubic, min_size=1, max_size=8),
    st.lists(_polys_up_to_cubic, min_size=1, max_size=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=20),
)
@example(_in_E([1, 1], [2], [0, 0, 3]), _in_E([0, 1], [-1], [Fraction(1, 2)]), Fraction(1, 3))  # delta = 0
@example(_in_E([0, 1], [2]), _in_E([1], [0], [0, 1], [3]), Fraction(-2, 5))  # degrees 1 and 3, swapped
@example(_in_E([1], [0, 1], []), _in_E([2], [1], [0, 1]), Fraction(3, 7))  # lc(f) = 0
@example(_in_E([1], [0, 1], [3]), _in_E([0, 1], [1], [], []), Fraction(-1, 2))  # lc(g) = 0
@example(_in_E([1], [0, 1], []), _in_E([0, 1], []), Fraction(2))  # both
@example(_in_E([], []), _in_E([1], [Fraction(1, 3)], [2]), Fraction(1))  # f = 0
@example(_in_E([2, 1]), _in_E([1], [0, 1], [2]), Fraction(5, 3))  # an E-constant
def test_resultant_kernel_matches_sylvester_of_the_formal_degrees(f, g, y0):
    fy, gy = [c(y0) for c in f], [c(y0) for c in g]
    assert res_E(f, g)(y0) == _det_gauss(_sylvester(fy, gy))


def test_res_E_of_two_E_constants_is_the_empty_determinant():
    assert res_E(_in_E([Fraction(2, 3), 1]), _in_E([5])) == Polynomial([1])
    assert res_E(_in_E([]), _in_E([0, 1])) == Polynomial([1])


def test_disc_E_refuses_an_E_constant():
    with pytest.raises(ValueError, match="got 0"):
        disc_E(_in_E([3, 1]))


def test_disc_E_refuses_a_zero_leading_E_coefficient():
    with pytest.raises(ValueError, match="leading"):
        disc_E(_in_E([1], [0, 1], []))


_small_linear = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda c: Polynomial([Fraction(c[0]), Fraction(c[1])]))


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.tuples(_small_linear, st.integers(1, 3)), min_size=1, max_size=3),
    st.integers(-2, 2).map(Fraction),
)
def test_chain_reads_the_gcd_of_f_and_its_derivative(factors, y0):
    # f = prod (E - a_i(y))^m_i, so roots collide at small integer y and the
    # chain has missing degrees; at y0 the structure theorem holds
    f = [Polynomial([Fraction(1)])]
    for a, m in factors:
        for _ in range(m):  # f *= E - a
            f = [s - c * a for s, c in zip([Polynomial.zero()] + f, f + [Polynomial.zero()])]
    fy = Polynomial([c(y0) for c in f])
    gcd = fy.gcd(fy.derivative())
    chain = disc_chain(f).chain
    j, _, s = min((entry for entry in chain if Polynomial(entry[1])(y0) != 0), key=lambda e: e[0])
    assert j == gcd.degree
    assert Polynomial([Polynomial(c)(y0) for c in s]).monic() == gcd


def test_chain_reads_order_and_energy_at_rational_and_irrational_roots():
    # (E - 1)^2 - (y^2 - 2): a double root E = 1 at y = -+sqrt(2)
    chain = disc_chain(_in_E([3, 0, -1], [-2], [1]))
    roots = real_root_intervals(chain.disc)
    assert [float(y) for y, _, _ in roots] == [-math.sqrt(2), math.sqrt(2)]
    assert [chain.repeated_root(chain.disc, *root) for root in roots] == [(1, 1), (1, 1)]
    # (E - 1)^3 - y: a triple root E = 1 at y = 0
    chain = disc_chain(_in_E([-1, -1], [3], [-3], [1]))
    ((y, a, b),) = real_root_intervals(chain.disc)
    assert chain.repeated_root(chain.disc, y, a, b) == (2, 1)
    # E^4 + y E + 1: the remainder drops two degrees, so S_1 is rescaled;
    # the double root is E* = -+3^(-1/4) at y = -4 E*^3
    chain = disc_chain(_in_E([1], [0, 1], [], [], [1]))
    assert [j for j, _, _ in chain.chain] == [3, 1, 0]
    for root in real_root_intervals(chain.disc):
        j, e_star = chain.repeated_root(chain.disc, *root)
        assert j == 1 and float(e_star) == pytest.approx(-math.copysign(3**-0.25, root[0]), rel=1e-15)


def test_chain_certifies_how_the_corner_energy_rounds():
    # bc n = 5 at y = 1e300: the discriminant's one root in (0, 1] lies
    # between 1 - 1e-1800 and 1 - 1e-2100, and s_1 of the chain nearly
    # vanishes there, so E* = -s_0 / s_1 read at a point 2^-137 off once gave
    # 2.0; the certificate reads the double E* rounds to from any point
    # within 2^-136 of the root
    chain = disc_chain(coefficients(bivariate_secular(5, 1e300)))
    ((_, a, b),) = real_root_intervals(chain.disc, 0, 1)
    lo, hi, e = _bracket(_sturm_sequence(chain.disc)[0], a, b, lambda lo, hi, e: (hi - lo) << 8000 <= lo)
    for root in (1 - Fraction(1, 2**137), 1 + Fraction(1, 2**137), 1 - Fraction(1, 2**400), Fraction(1), Fraction(hi, 1 << e)):
        assert chain.repeated_root(chain.disc, root, a, b) == (1, Fraction(-1e300))


def test_certified_energy_settles_a_tie_exactly():
    # (E - c)^2 - (y^2 - 2) with c = t + y^2 - 2 has E* = t at y = -+sqrt(2)
    def energies(t):
        chain = disc_chain(_in_E([(t - 2) ** 2 + 2, 0, 2 * t - 5, 0, 1], [4 - 2 * t, 0, -2], [1]))
        return [chain.repeated_root(chain.disc, *root) for root in real_root_intervals(chain.disc)]

    # the tie between 1 and its neighbour above: every bracket bounds E*
    # across it, and the exact test finds it
    tie = 1 + Fraction(1, 2**53)
    assert energies(tie) == [(1, tie), (1, tie)]
    # 2^-200 off the tie, the bracket narrows from 2^-136 until E* rounds one way
    assert energies(tie + Fraction(1, 2**200)) == [(1, Fraction(1 + 2**-52))] * 2
    assert energies(tie - Fraction(1, 2**200)) == [(1, Fraction(1))] * 2


def test_certified_energy_at_an_even_root_of_the_discriminant():
    # (E - y)^2 - (y^2 - 2)^2: the discriminant 4 (y^2 - 2)^2 keeps its sign
    # across y = -+sqrt(2), so the energy E* = y is narrowed on its
    # square-free part, and rounds as sqrt does
    chain = disc_chain(_in_E([-4, 0, 5, 0, -1], [0, -2], [1]))
    roots = real_root_intervals(chain.disc)
    want = [(1, Fraction(-math.sqrt(2))), (1, Fraction(math.sqrt(2)))]
    assert [chain.repeated_root(chain.disc, *root) for root in roots] == want


def test_chain_refuses_what_one_repeated_root_cannot_explain():
    # ((E - 1)^2 - y)((E + 1)^2 - y): two double roots E = -+1 at y = 0
    chain = disc_chain(_in_E([1, -2, 1], [], [-2, -2], [], [1]))
    y, a, b = next(root for root in real_root_intervals(chain.disc) if root[0] == 0)
    with pytest.raises(ArithmeticError, match="not one repeated root"):
        chain.repeated_root(chain.disc, y, a, b)
    # (E - 1)^3 - (y^2 - 2): a triple root at the irrational y = sqrt(2)
    chain = disc_chain(_in_E([1, 0, -1], [3], [-3], [1]))
    for root in real_root_intervals(chain.disc):
        with pytest.raises(ArithmeticError):
            chain.repeated_root(chain.disc, *root)


def test_roots_above_a_cluster_count_multiple_and_split_roots():
    e = Polynomial([Fraction(0), Fraction(1)])
    # a double root at 1, one root above it, one below
    p = (e - Polynomial([1])) * (e - Polynomial([1])) * (e - Polynomial([3])) * (e + Polynomial([2]))
    assert real_roots_above(p, 1, 2, 4) == 1
    # the pair split into a complex pair 1 +- 1e-9 i: the count is the same
    p = ((e - Polynomial([1])) * (e - Polynomial([1])) + Polynomial([Fraction(1, 10**18)])) * (e - Polynomial([3])) * (e + Polynomial([2]))
    assert real_roots_above(p, 1, 2, 4) == 1
    # split into two real roots 1 +- 1e-9
    p = ((e - Polynomial([1])) * (e - Polynomial([1])) - Polynomial([Fraction(1, 10**18)])) * (e - Polynomial([3]))
    assert real_roots_above(p, Fraction(1), 2, 3) == 1
    # two roots at the same distance from the centre are not told apart
    q = Polynomial([Fraction(3, 4)])
    assert real_roots_above((e - q) * (e + q), 0, 1, 2) is None


@pytest.mark.parametrize("n", [10, 11])
def test_event_polynomials_beyond_n9_match_gaussian_elimination(n):
    for y0 in (Fraction(-1, 2), Fraction(2, 7)):
        s = bivariate_secular(n, y0)
        assert disc_in_y_at_p(n)(y0) == _disc_oracle(s.A)
        assert pole_collision_poly(n)(y0) == _det_gauss(sylvester_matrix(s.A, s.B))
        w = Polynomial([c(y0) for c in fold_coeffs_in_E(n)])
        assert fold_event_poly(n)(y0) == _disc_oracle(w)


def _gcd_oracle(a, b):
    """Monic gcd by Euclid's algorithm over Fraction."""
    while not b.is_zero:
        a, b = b, a % b
    return a if a.is_zero else a.monic()


_polys_in_x = st.lists(_fractions, min_size=1, max_size=5).map(Polynomial)


@settings(deadline=None, max_examples=150)
@given(_polys_in_x, _polys_in_x, _polys_in_x)
@example(Polynomial.zero(), Polynomial.zero(), Polynomial([1]))
@example(Polynomial.zero(), Polynomial([Fraction(1, 3), 2]), Polynomial([Fraction(-5, 2), 1]))
@example(Polynomial([Fraction(7, 4)]), Polynomial([1, 2, 3]), Polynomial([1]))
@example(Polynomial([Fraction(1, 2), 1]), Polynomial([-1, 0, 1]), Polynomial([Fraction(2, 9), Fraction(-1, 3), 1]))
def test_gcd_matches_fraction_euclid(a, b, common):
    """``common`` is planted in both operands unless it is zero."""
    if not common.is_zero:
        a, b = a * common, b * common
    g = a.gcd(b)
    assert g == _gcd_oracle(a, b)
    if not g.is_zero:
        assert g.lc == 1
        assert (a % g).is_zero and (b % g).is_zero
        if not common.is_zero:
            assert (g % common).is_zero
