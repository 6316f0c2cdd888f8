"""Core substrate: polynomials, roots, resultants, eigensolver."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import epspect.core.eig as core_eig
from epspect.core import (
    BivariateSecular,
    ConvergenceError,
    Polynomial,
    Precision,
    Tridiagonal,
    charpoly_from_parts,
    charpoly_tridiag,
    cluster_points,
    disc_E,
    discriminant,
    discriminant_in_E,
    eig_dense,
    eigvals_double,
    eigvals_mp,
    poly_roots,
    real_root_count,
    reality_flags,
    res_E,
    resultant,
    sylvester_matrix,
    to_mp_matrix,
)
from epspect.core.poly import _int_exact_div
from epspect.epfinder import (
    _disc_in_y_at_p,
    _fold_coeffs_in_E,
    _fold_event_poly,
    _pole_collision_poly,
    classify_degeneracy,
)
from epspect.models import EpnModel, bc_matrix, epn_matrix, epn_secular, hermitian_demo
from epspect.sturmian import bivariate_secular, secular_in_y


# --------------------------------------------------------------------------
# Polynomial basics
# --------------------------------------------------------------------------


def test_polynomial_trims_trailing_exact_zeros():
    p = Polynomial([Fraction(1), Fraction(2), Fraction(0), Fraction(0)])
    assert p.degree == 1
    assert Polynomial([0]).degree == -1
    assert Polynomial([0]).is_zero


def test_polynomial_mode_and_guard():
    exact = Polynomial([Fraction(1), Fraction(1)])
    dbl = Polynomial([1.0, 1.0])
    assert exact.mode is Precision.EXACT
    assert dbl.mode is Precision.DOUBLE
    with pytest.raises(TypeError):
        exact + dbl
    # explicit conversion is the supported route
    assert (exact.to_double() + dbl).coeffs == (2.0, 2.0)


def test_polynomial_divmod_and_gcd():
    p = Polynomial.from_roots([Fraction(1), Fraction(2), Fraction(3)])
    q = Polynomial.from_roots([Fraction(2)])
    quot, rem = divmod(p, q)
    assert rem.is_zero
    assert quot == Polynomial.from_roots([Fraction(1), Fraction(3)])
    g = p.gcd(Polynomial.from_roots([Fraction(2), Fraction(5)]))
    assert g == Polynomial([Fraction(-2), Fraction(1)])


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
        want = s.poly_at(Fraction(r * r) if r in (0.0, 1.0) else r * r)
        for a, b in zip(got.coeffs, want.to_double().coeffs if want.mode is Precision.EXACT else want.coeffs):
            assert abs(complex(a) - complex(b)) < 1e-12


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


@pytest.mark.parametrize("n", range(2, 9))
def test_charpoly_epn_at_t1_keeps_the_floating_tier(n):
    # at t = 1 the off-diagonal products are float +-0.0; a zero product
    # must stay in the double tier, or the recurrence mixes tiers
    m = epn_matrix(n, 1.0)
    want = Polynomial([1.0])
    for d in m.diag:
        want = Polynomial([d, -1]) * want
    got = charpoly_tridiag(m)
    assert got.mode is Precision.DOUBLE
    assert got == want
    assert classify_degeneracy(m, m.diag[0]).kind == "simple"


def test_charpoly_floating_overflow_is_an_error():
    with pytest.raises(ArithmeticError):
        charpoly_from_parts([1e308] * 4, [1e308] * 3)


def test_charpoly_matches_cofactor_on_random_exact_tridiagonals():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        for _ in range(3):
            diag = [Fraction(int(v)) for v in rng.integers(-5, 6, n)]
            sup = [Fraction(int(v)) for v in rng.integers(-4, 5, n - 1)]
            sub = [Fraction(int(v)) for v in rng.integers(-4, 5, n - 1)]
            got = charpoly_tridiag(Tridiagonal(diag, sup, sub))
            want = _cofactor_det(_poly_matrix(diag, sup, sub))
            assert got == want


def test_tridiagonal_to_array_converts_every_entry_type():
    diag = (Fraction(1, 3), 2, 2.5, 1 - 2j, mp.mpf("0.25"))
    sup = (mp.mpc(1, -1), Fraction(-1, 7), -0.0, 3)
    sub = (-1, 1j, mp.mpf(3), Fraction(5, 2))
    want = np.zeros((5, 5), dtype=complex)
    for k in range(5):
        want[k, k] = complex(diag[k])
    for k in range(4):
        want[k, k + 1] = complex(sup[k])
        want[k + 1, k] = complex(sub[k])
    got = Tridiagonal(diag, sup, sub).to_array()
    assert got.dtype == complex and got.tobytes() == want.tobytes()
    assert Tridiagonal((Fraction(3),), (), ()).to_array().tolist() == [[3]]


# --------------------------------------------------------------------------
# polynomial roots
# --------------------------------------------------------------------------


def test_poly_roots_perfect_square():
    r = poly_roots(Polynomial([4.0, -4.0, 1.0]))
    assert len(r.roots) == 2
    (cluster,) = [c for c in r.clusters if c.multiplicity == 2]
    assert abs(cluster.center - 2) < 1e-6


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


def test_poly_roots_quartic_against_bisection_oracle():
    coeffs = [3.0, -16.0, 20.0, -8.0, 1.0]  # ascending
    expected = _bisection_real_roots(coeffs, 0.0, 4.0)
    assert len(expected) == 4
    got = sorted(r.real for r in poly_roots(Polynomial(coeffs)).roots)
    assert np.allclose(got, expected, atol=1e-9)
    assert all(abs(r.imag) < 1e-9 for r in poly_roots(Polynomial(coeffs)).roots)


def test_poly_roots_pure_power_is_one_cluster():
    r = poly_roots(Polynomial([0, 0, 0, 0, 0, 0, 1]))
    assert len(r.roots) == 6
    assert len(r.clusters) == 1
    assert r.clusters[0].multiplicity == 6
    assert r.clusters[0].center == 0


def test_poly_roots_rejects_constants():
    with pytest.raises(ValueError):
        poly_roots(Polynomial([3.0]))


def test_poly_roots_extended_sharpens_multiple_roots():
    # (E-2)^2 (E-5): double evaluation noise limits the pair to ~1e-6;
    # the mpmath polish brings it below the clustering tolerance
    p = Polynomial([Fraction(-20), Fraction(24), Fraction(-9), Fraction(1)])
    coarse = poly_roots(p)
    fine = poly_roots(p, precision=Precision.EXTENDED)
    pair_err_fine = max(
        abs(r - 2) for r in fine.roots if abs(r - 2) < 0.5
    )
    assert pair_err_fine < 1e-10
    assert any(c.multiplicity == 2 for c in fine.clusters)
    assert pair_err_fine <= max(
        abs(r - 2) for r in coarse.roots if abs(r - 2) < 0.5
    )


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


# --------------------------------------------------------------------------
# dense eigensolver
# --------------------------------------------------------------------------


def test_eig_dense_hermitian_spectrum_is_real():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (g + g.conj().T) / 2
    res = eig_dense(h)
    assert np.max(np.abs(res.values.imag)) <= 1e-12 * np.linalg.norm(h)
    assert np.all(res.residual_right <= 1e-10 * np.linalg.norm(h))


def test_eig_dense_epn_half_matches_closed_form():
    res = eig_dense(epn_matrix(6, 0.5), precision=Precision.EXTENDED)
    want = np.array([3, 5, 7, 9, 11, 13]) * math.sqrt(0.75)
    assert np.allclose(np.sort(res.values.real), want, atol=1e-9)
    assert np.max(np.abs(res.values.imag)) < 1e-9
    # independent route: characteristic polynomial + root finder, extended
    rr = poly_roots(charpoly_tridiag(epn_matrix(6, 0.5)), precision=Precision.EXTENDED)
    assert np.allclose(
        np.sort([r.real for r in rr.roots]), np.sort(res.values.real), atol=1e-9
    )


def test_eig_dense_epn_negative_t_has_no_real_eigenvalues():
    res = eig_dense(epn_matrix(6, -0.1))
    scale = np.max(np.abs(res.values))
    assert np.all(np.abs(res.values.imag) > 1e-10 * scale)


def test_eig_dense_left_vectors_satisfy_adjoint_relation():
    a = epn_matrix(5, 0.4).to_array()
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
        t = Tridiagonal(tuple(diag), tuple(sup), tuple(sub))
        ev = np.sort(eig_dense(t).values.real)
        rr = sorted(r.real for r in poly_roots(charpoly_tridiag(t)).roots)
        assert np.allclose(ev, rr, atol=1e-8)


def test_eig_dense_flags_near_degenerate_vectors():
    res = eig_dense(bc_matrix(6, 1j))
    assert res.low_confidence.sum() >= 2  # the merged pair at E = 2


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
        return epn_matrix(n, 0.5).to_array()
    return bc_matrix(n, 1j).to_array()


@pytest.mark.parametrize("kind", ["random", "epn", "bc"])
@pytest.mark.parametrize("n", range(2, 9))
def test_eigvals_mp_matches_mp_eig_oracle(n, kind):
    with mp.workdps(40):
        m = to_mp_matrix(_oracle_input(kind, n))
        ours = eigvals_mp(m)
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
    with mp.workdps(40):
        m = EpnModel(6).matrix_mp(0)
        for ev in (eigvals_mp(m), mp.eig(m)[0]):
            center = mp.fsum(ev) / len(ev)
            assert abs(center) < 1e-5
            assert max(abs(v - center) for v in ev) < 1e-5


def test_eigvals_mp_reaches_a_complex_pair_from_real_seeds():
    # real seeds of a real polynomial keep every Aberth iterate real
    with mp.workdps(30):
        m = mp.matrix([[0, -1], [1, 0]])
        ev = sorted(eigvals_mp(m, [0.5, -0.5]), key=lambda v: v.imag)
    assert abs(ev[0] + 1j) < 1e-25 and abs(ev[1] - 1j) < 1e-25


def test_eigvals_mp_raises_on_unconverged_roots(monkeypatch):
    real_aberth = core_eig._aberth

    def stalls_on_first(coeffs, z, eps, absfn, maxiter=200):
        z, locked, it = real_aberth(coeffs, z, eps, absfn, maxiter)
        return z, [False] + locked[1:], it

    monkeypatch.setattr(core_eig, "_aberth", stalls_on_first)
    with mp.workdps(40):
        m = to_mp_matrix(epn_matrix(4, 0.5).to_array())
        with pytest.raises(ConvergenceError) as err:
            eigvals_mp(m)
    assert len(err.value.roots) == 4
    assert err.value.unconverged == (err.value.roots[0],)


# --------------------------------------------------------------------------
# resultants and discriminants
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
    d = discriminant_in_E(bivariate_secular(6, 0).secular)
    assert d(Fraction(0)) == 0
    # simple zero: the EP at r = 0 is the only one on [0, 1]
    dd = Polynomial(d.coeffs[1:])
    assert dd(Fraction(0)) != 0
    real_in_range = [
        c.center.real
        for c in poly_roots(dd.to_double()).clusters
        if abs(c.center.imag) <= 1e-8 and 0 <= c.center.real <= 1
    ]
    assert real_in_range == []


def test_discriminant_in_E_constant_when_B_zero():
    a = Polynomial.from_roots([Fraction(1), Fraction(2), Fraction(4)])
    s = BivariateSecular(a, Polynomial.zero())
    d = discriminant_in_E(s)
    assert d.degree == 0
    assert d.coeffs[0] != 0


def test_discriminant_in_E_has_zero_past_critical_shift():
    # just past the critical shift of the five-level family the level pair
    # touches at small coupling: a real discriminant zero inside (0, 1)
    d = discriminant_in_E(bivariate_secular(5, -0.2).secular)
    zeros = [
        c.center.real
        for c in poly_roots(d.to_double()).clusters
        if abs(c.center.imag) <= 1e-8 * (1 + abs(c.center)) and 0 < c.center.real < 1
    ]
    assert zeros, "expected a real discriminant zero in (0, 1)"


def test_discriminant_in_E_matches_pointwise_resultant():
    rng = np.random.default_rng(5)
    s = bivariate_secular(6, Fraction(1, 3))
    d = discriminant_in_E(s.secular)
    lc = s.A.lc
    for _ in range(20):
        p0 = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 40)))
        poly = s.poly_at(p0)
        want = Fraction(resultant(poly, poly.derivative())) / lc
        assert d(p0) == want

    # the event polynomials in the shift y, against the same scalar kernels
    # at rational points
    n = 5
    for y0 in (Fraction(-1, 2), Fraction(1, 3), Fraction(-7, 9), Fraction(2)):
        s = bivariate_secular(n, y0)
        for p0 in (Fraction(0), Fraction(2, 5)):
            assert _disc_in_y_at_p(n, p0)(y0) == discriminant(s.poly_at(p0))
        assert _pole_collision_poly(n)(y0) == resultant(s.A, s.B)
        w = s.A.derivative() * s.B - s.A * s.B.derivative()
        assert _fold_event_poly(n)(y0) == discriminant(w)


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
        assert _disc_in_y_at_p(n, 0)(y0) == _disc_oracle(a)
        assert _pole_collision_poly(n)(y0) == _det_gauss(sylvester_matrix(s.A, s.B))
        w = Polynomial([c(y0) for c in _fold_coeffs_in_E(n)])
        assert _fold_event_poly(n)(y0) == _disc_oracle(w)


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
