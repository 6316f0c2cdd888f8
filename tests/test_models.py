"""Matrix family constructors and coupling parameterizations."""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import epspect.models as models
from epspect.cli import main as cli_main
from epspect.core import (
    ConvergenceError,
    DenseMatrix,
    Polynomial,
    charpoly_from_parts,
    eig_dense,
    eigvals_double,
    eigvals_mp,
    real_root_count,
    square_free_factors,
)
from epspect.models import (
    BcModel,
    Circle,
    EpnModel,
    Explicit,
    HermitianDemoModel,
    Robin,
    ShiftedCircle,
    bc_matrix,
    epn_matrix,
    hermitian_demo,
    z_value,
)
from epspect.sturmian import bivariate_secular
from oracles import charpoly_tridiag, epn_levels, epn_secular, poly_at, rounded


# --------------------------------------------------------------------------
# EPN family
# --------------------------------------------------------------------------


def test_epn_matrix_reproduces_six_level_entries():
    # hard-coded 6x6 pattern: diagonal -5..5 plus the shift, off-diagonal
    # magnitudes sqrt5, 2sqrt2, 3, 2sqrt2, sqrt5 times the coupling
    rng = np.random.default_rng(0)
    mags = [math.sqrt(5), 2 * math.sqrt(2), 3.0, 2 * math.sqrt(2), math.sqrt(5)]
    for t in rng.uniform(0.0, 2.0, 10):
        tau = 1.0 - t
        shift = 8.0 * math.sqrt(1.0 - tau * tau)
        m = epn_matrix(6, t).a
        assert not m.imag.any()
        diag, sup, sub = (m.diagonal(k).real for k in (0, 1, -1))
        for k, base in enumerate((-5, -3, -1, 1, 3, 5)):
            assert math.isclose(diag[k], base + shift, rel_tol=1e-15, abs_tol=1e-15)
        for k in range(5):
            assert math.isclose(sup[k], mags[k] * tau, rel_tol=1e-14, abs_tol=1e-15)
            assert math.isclose(sub[k], -mags[k] * tau, rel_tol=1e-14, abs_tol=1e-15)


def test_epn_degenerate_instant():
    m = epn_matrix(6, 0.0)
    assert all(d == v for d, v in zip(m.a.diagonal(), (-5, -3, -1, 1, 3, 5)))
    roots = np.roots(charpoly_tridiag(m)[::-1])
    assert all(abs(r) < 1e-2 for r in roots)  # total collapse at t=0


def test_epn_secular_matches_charpoly_of_the_matrix():
    # the E-coefficients in u = E - 8 sqrt(1 - q), q = (1 - t)^2, shifted
    # back to E, against the float recurrence on the assembled matrix;
    # t = -0.4 makes the shift imaginary, t = 1.7 makes tau negative
    rng = np.random.default_rng(1)
    for n in (2, 3, 6, 8):
        for t in (-0.4, 0.3, 0.9, 1.7):
            q = (1 - t) ** 2
            in_u = np.polynomial.Polynomial([float(c(q)) for c in epn_secular(n)])
            got = in_u(np.polynomial.Polynomial([-8 * cmath.sqrt(1 - q), 1])).coef
            want = np.array(charpoly_tridiag(epn_matrix(n, t)))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n, t)
        # at rational t the coefficients are exact: the recurrence on the
        # products -(k+1)(n-k-1) tau^2 gives the same polynomial in u
        t = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 20)))
        q = (1 - t) ** 2
        diag = [Fraction(2 * k - n + 1) for k in range(n)]
        prods = [-Fraction((k + 1) * (n - k - 1)) * q for k in range(n - 1)]
        assert Polynomial([c(q) for c in epn_secular(n)]) == charpoly_from_parts(diag, prods)


def test_epn_spectrum_reality_partition():
    for t in np.linspace(0.02, 1.0, 9):
        vals = eig_dense(epn_matrix(6, float(t))).values
        scale = max(1.0, np.max(np.abs(vals)))
        assert np.all(np.abs(vals.imag) <= 1e-10 * scale)
        assert np.all(vals.real > 0)
    for t in np.linspace(-1.0, -0.02, 9):
        vals = eig_dense(epn_matrix(6, float(t))).values
        scale = max(1.0, np.max(np.abs(vals)))
        assert not np.any(np.abs(vals.imag) <= 1e-10 * scale)


def test_epn_outside_unit_window_goes_complex():
    m = epn_matrix(6, -0.5).a
    assert m[0, 0].imag != 0


# dyadic t in [-0.5, 1] with at most 53 significant bits: exact doubles
_dyadic_t = st.integers(0, 52).flatmap(lambda k: st.integers(-(2**k >> 1), 2**k).map(lambda m: m / 2**k))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 12), t=_dyadic_t)
@example(n=12, t=0.0)
@example(n=8, t=2.0**-30)
def test_epn_extended_spectrum_is_the_closed_form(n, t):
    # E_k = (2k - n + 1 + 8) sqrt(1 - tau^2), tau = 1 - t, at 40 digits; the
    # levels lie on the real axis (t >= 0) or the imaginary one (t < 0), so
    # Re + Im orders both sides alike
    x = 1 - (1 - Fraction(t)) ** 2
    got = sorted(EpnModel(n).eigvals_mp(t), key=lambda v: v.real + v.imag)
    with mp.workdps(40):
        root = mp.sqrt(mp.mpf(x.numerator) / x.denominator)
        want = [(2 * k - n + 1 + 8) * root for k in range(n)]
        scale = max(abs(w) for w in want)
        for g, w in zip(got, sorted(want, key=lambda v: mp.re(v) + mp.im(v))):
            assert abs(g - w) <= 2**-52 * scale, (g, w)
    if t == 0:
        assert got == [0j] * n  # the exact n-fold E = 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), t=_dyadic_t)
@example(n=6, t=-0.5)
@example(n=7, t=2.5)
@example(n=5, t=2.0)
def test_epn_certified_spectrum_has_exact_zero_parts(n, t):
    # q = (1 - t)^2 <= 1 exactly for t in [0, 2]: every level is real and its
    # imaginary part is 0; beyond, every level is imaginary and its real part is 0
    got = EpnModel(n).eigvals_mp(t)
    if 0 <= t <= 2:
        assert all(v.imag == 0 for v in got)
    else:
        assert all(v.real == 0 for v in got)


def test_epn_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        epn_matrix(1, 0.5)


@pytest.mark.parametrize("model", [EpnModel(1), BcModel(1), HermitianDemoModel(1)], ids=repr)
def test_models_reject_tiny_dimension(model):
    with pytest.raises(ValueError):
        model.matrices([0.5])
    with pytest.raises(ValueError):
        model.eigvals([0.5])


# --------------------------------------------------------------------------
# EPN closed form: E_k = (2k - n + 9) sqrt(1 - q)
# --------------------------------------------------------------------------


def test_epn_secular_is_the_closed_form_product():
    # M - shift = 2(J_z + i tau J_y) on spin (n - 1)/2, so over Q[q][u]
    # det(M - E) = (-1)^n prod_c (u^2 - c^2 (1 - q)) u^(n mod 2), c = n - 1, n - 3, ... > 0
    for n in range(2, 41):
        coeffs = [Polynomial.zero()] * (n % 2) + [Polynomial([(-1) ** n])]
        for c in range(n - 1, 0, -2):
            padded = coeffs + [Polynomial.zero()] * 2
            coeffs = [s - Polynomial([c * c, -c * c]) * a for s, a in zip([Polynomial.zero()] * 2 + coeffs, padded)]
        assert tuple(coeffs) == epn_secular(n), n


def _within_2_ulp(got, want) -> bool:
    """|got - want| <= 2 eps |want| (eps = 2^-52), want at 40 digits."""
    with mp.workdps(40):
        return abs(got - want) <= 2 * mp.mpf(2) ** -52 * abs(want)


def _rounded_levels(n, t, dps=40) -> list[complex]:
    """The EPN levels at the double t at ``dps`` digits, each part rounded once to double."""
    with mp.workdps(dps):
        return [complex(rounded(mp.re(w)), rounded(mp.im(w))) for w in epn_levels(n, t)]


_tiny_t = st.sampled_from([5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 2.0**-60, -(2.0**-60)])
_epn_t = st.one_of(st.floats(-1.0, 3.0), st.just(0.0), st.just(2.0), _tiny_t, st.floats(-1e-12, 1e-12))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 40), t=_epn_t)
@example(n=32, t=0.0)
@example(n=9, t=2.0)
@example(n=32, t=0.1505)
@example(n=12, t=-5e-324)
@example(n=9, t=0.5)  # level 0 is 0 * sqrt(0.75)
def test_epn_double_spectrum_is_the_closed_form(n, t):
    got = EpnModel(n).eigvals([t, t])
    assert got.shape == (2, n) and np.array_equal(got[0], got[1])
    with mp.workdps(40):
        levels = epn_levels(n, t)
    other = got[0].imag if Fraction(t) * (2 - Fraction(t)) >= 0 else got[0].real
    assert np.all(other == 0) and not np.signbit(other).any()
    assert not np.signbit(got[0][got[0] == 0].view(float)).any()  # 0.0, never -0.0
    for g, w in zip(got[0], levels):
        assert _within_2_ulp(complex(g), w), (g, w)
    assert list(got[0]) == sorted(got[0], key=lambda v: (v.real, v.imag))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), t=_epn_t)
@example(n=9, t=0.5)
@example(n=17, t=-0.5)
def test_epn_double_and_extended_tiers_agree_within_2_ulp(n, t):
    double = EpnModel(n).eigvals([t])[0]
    extended = EpnModel(n).eigvals_mp(t)
    assert extended == _rounded_levels(n, t)  # correctly rounded
    assert np.array_equal(double.real == 0, np.array(extended).real == 0)
    assert np.array_equal(double.imag == 0, np.array(extended).imag == 0)
    for d, e in zip(double, extended):
        assert abs(d - e) <= 2 * 2**-52 * abs(e), (d, e)


def _exact_real_count(n, t) -> int:
    """The real eigenvalues of the EPN family at t, with multiplicity, from its exact secular polynomial.

    Where q = (1 - t)^2 <= 1 the shift 8 sqrt(1 - q) is real, so E is real
    exactly where u is: Sturm counts of the square-free factors.  Where
    q > 1 the shift is iS with S^2 = 64 (q - 1), and P(E - iS) = A(E) + iS B(E)
    with A and B over Q, so the real eigenvalues are the real roots of gcd(A, B).
    """
    q = (1 - Fraction(t)) ** 2
    coeffs = [c(q) for c in epn_secular(n)]
    poly = Polynomial(coeffs)
    if q > 1:
        sigma, a, b = 64 * (q - 1), Polynomial.zero(), Polynomial.zero()
        for k, c in enumerate(coeffs):
            for j in range(k + 1):  # (-iS)^j is (-1)^(j/2) sigma^(j/2), or -iS (-1)^((j-1)/2) sigma^((j-1)/2)
                term = Polynomial([0] * (k - j) + [c * math.comb(k, j) * (-1) ** (j // 2) * sigma ** (j // 2)])
                a, b = (a, b - term) if j % 2 else (a + term, b)
        poly = a.gcd(b)
    return sum(m * real_root_count(f) for m, f in enumerate(square_free_factors(poly), 1))


@pytest.mark.parametrize(
    "argv, name",
    [
        (["figure", "2"], "figure2_data.csv"),
        (["figure", "3"], "figure3_data.csv"),
        (["sweep", "--model", "epn", "--n", "12", "--range", "-0.2:0.2", "--samples", "401"], "sweep.csv"),
    ],
    ids=["figure2", "figure3", "epn12"],
)
def test_epn_sweep_flags_are_the_exact_real_counts(argv, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main([*argv, *(["--out-dir", "."] if argv[0] == "figure" else [])]) == 0
    header, *lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
    flags = [i for i, h in enumerate(header.split(",")) if h.startswith("real")]
    for line in lines:
        row = line.split(",")
        assert sum(int(row[i]) for i in flags) == _exact_real_count(len(flags), float(row[1])), row[:2]


def test_epn_extended_levels_are_correctly_rounded_where_t_squared_overflows_a_double():
    # t(2 - t) is exact, so at t = 1e300 every level is finite (the double tier refuses there);
    # sqrt(t^2 - 2t) = t - 1 - ... moves a level off a tie by 1e-300 relative, so the oracle takes 700 digits
    assert EpnModel(4).eigvals_mp(1e300) == _rounded_levels(4, 1e300, dps=700)


# --------------------------------------------------------------------------
# boundary-controlled family
# --------------------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(2, 10),
    y=st.integers(-96, 96).map(lambda k: k / 32),
    r=st.floats(-1.5, 1.5, allow_nan=False),
)
@example(n=6, y=0.0, r=1e-13)  # beside the EP at r = 0
@example(n=6, y=0.0, r=0.0)  # on it: a double root at E = 2
@example(n=5, y=-0.5, r=1.0)  # the real coupling z = y
@example(n=5, y=-0.5, r=-1.5)
@example(n=12, y=-0.2, r=1.0 + 2.0**-52)  # the first double beyond |r| = 1
@example(n=13, y=-2.339193081439843, r=17.711481035569445)  # two corner levels 2e-13 apart
def test_bc_extended_spectrum_is_the_roots_of_the_exact_secular_polynomial(n, y, r):
    """Where |r| <= 1, ``BcModel.eigvals_mp`` gives the 40-digit roots of the
    exact A + r^2 B to 1e-12, matched as sets; beyond |r| = 1 the matrix's
    real coupling is read from it, and the values are those of the bare
    matrix's extended route bit for bit."""
    model = BcModel(n, y)
    got = np.array(model.eigvals_mp(r))
    if abs(r) > 1:
        assert got.tolist() == eigvals_mp(model.matrix(r))
        return
    poly = poly_at(bivariate_secular(n, y), Fraction(r) ** 2)
    with mp.workdps(40):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in map(Fraction, reversed(poly.coeffs))]
        want = np.array([complex(v) for v in mp.polyroots(coeffs, maxsteps=400, extraprec=400)])
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12


@pytest.mark.parametrize("r", [1.4e154, -1e200, 1e300])
def test_bc_extended_spectrum_beyond_the_double_range_of_r_squared_is_a_typed_refusal(r):
    # r^2 overflows a double, so the matrix has no finite corner to read the coupling from
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError):
            BcModel(4, 0.0).eigvals_mp(r)


def test_bc_matrix_laplacian_spectrum():
    vals = np.sort(eig_dense(bc_matrix(3, 0.0)).values.real)
    want = [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)]
    assert np.allclose(vals, want, atol=1e-12)


def test_bc_matrix_at_circle_top_splits_into_double_and_quartic():
    vals = np.sort(eig_dense(bc_matrix(6, 1j)).values.real)
    quartic = sorted(np.roots([1, -8, 20, -16, 3]).real)
    want = np.sort(np.concatenate([[2.0, 2.0], quartic]))
    assert np.allclose(vals, want, atol=1e-7)


def test_bc_matrix_entry_layout():
    z = 0.3 - 0.7j
    m = bc_matrix(4, z).a
    assert m[0, 0] == 2 - z
    assert m[-1, -1] == 2 - z.conjugate()
    assert m[1, 1] == m[2, 2] == 2
    assert all(s == -1 for s in m.diagonal(1))
    assert all(s == -1 for s in m.diagonal(-1))
    assert not (np.triu(m, 2).any() or np.tril(m, -2).any())


@settings(deadline=None, max_examples=50)
@given(
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)
)
def test_bc_matrix_hermitian_iff_real_coupling(z):
    m = bc_matrix(5, z)
    assert m.is_hermitian(tol=0.0) == (z.imag == 0)


def test_bc_real_coupling_real_spectrum():
    vals = eig_dense(bc_matrix(6, -0.4 + 0j)).values
    assert np.max(np.abs(vals.imag)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


# --------------------------------------------------------------------------
# coupling parameterizations
# --------------------------------------------------------------------------


def test_z_value_robin_unit():
    assert z_value(Robin(alpha=0.0, beta=0.0, h=1.0)) == 1.0


def test_z_value_robin_rejects_zero_denominator():
    with pytest.raises(ValueError):
        z_value(Robin(alpha=0.0, beta=1.0, h=1.0))


def test_z_value_circle_center():
    assert z_value(Circle(0.0)) == 1j


def test_z_value_shifted_circle_edge():
    assert z_value(ShiftedCircle(-0.5, 1.0)) == -0.5


def test_z_value_outside_circle_turns_real():
    z = z_value(Circle(2.0))
    assert z.imag == pytest.approx(0.0, abs=1e-15)
    assert z.real == pytest.approx(-math.sqrt(3))


def test_z_value_explicit_passthrough():
    assert z_value(Explicit(0.25 - 1j)) == 0.25 - 1j


def test_in_model_domain_flag():
    from epspect.models import in_model

    assert in_model(Circle(0.5))
    assert not in_model(Circle(1.5))
    assert in_model(ShiftedCircle(-0.5, 1.0))
    assert in_model(Robin(1.0, 1.0))


# --------------------------------------------------------------------------
# random Hermitian pencil
# --------------------------------------------------------------------------


def test_hermitian_demo_at_zero_is_base_matrix():
    a0 = hermitian_demo(4, 0.0, seed=1).a
    a1 = hermitian_demo(4, 0.0, seed=1).a
    assert np.array_equal(a0, a1)
    assert np.allclose(a0, a0.conj().T)


def test_hermitian_demo_seed_reproducibility():
    a = hermitian_demo(5, 0.37, seed=9).a
    b = hermitian_demo(5, 0.37, seed=9).a
    c = hermitian_demo(5, 0.37, seed=10).a
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_hermitian_demo_model_draws_its_pencil_once(monkeypatch):
    draws = []
    pencil = models.hermitian_demo_pencil

    def counted(n, seed):
        draws.append((n, seed))
        return pencil(n, seed)

    monkeypatch.setattr(models, "hermitian_demo_pencil", counted)
    ts = np.linspace(-1, 1, 21)
    model = HermitianDemoModel(4, 1)
    mats = [model.matrix(t) for t in ts]
    assert draws == [(4, 1)]
    monkeypatch.undo()
    for t, m in zip(ts, mats):
        assert np.array_equal(m, hermitian_demo(4, t, seed=1).a)


def test_hermitian_demo_sweep_all_real_with_positive_gap():
    ts = np.linspace(-1, 1, 201)
    min_gap = math.inf
    for t in ts:
        vals = np.linalg.eigvalsh(hermitian_demo(4, float(t), seed=1).a)
        min_gap = min(min_gap, float(np.diff(vals).min()))
    assert min_gap > 0


@pytest.mark.parametrize("n, seed", [(4, 1), (4, 5), (7, 3)])
def test_hermitian_demo_double_spectrum_is_the_hermitian_solvers(n, seed):
    model = HermitianDemoModel(n, seed)
    grid = np.linspace(-3.0, 3.0, 301)
    stack = model.matrices(grid)
    assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))  # exactly Hermitian in double
    values = model.eigvals(grid)
    assert values.dtype == np.complex128 and values.shape == (len(grid), n)
    assert np.array_equal(values.imag.view(np.uint64), np.zeros(values.shape, dtype=np.uint64))  # +0.0
    assert np.all(np.diff(values.real, axis=1) > 0)
    assert np.array_equal(values.real, np.array([np.linalg.eigvalsh(m) for m in stack]))
    # the nonsymmetric solver agrees up to its rounding
    general = eigvals_double(stack)
    assert np.max(np.abs(general - values)) <= 1e-13 * np.max(np.abs(values))


# --------------------------------------------------------------------------
# stacked builders
# --------------------------------------------------------------------------


def _bits(a):
    """The float64 words of a real or complex array, so -0.0 differs from 0.0."""
    return np.asarray(a, dtype=complex).view(np.uint64)


def _bc_point(n, y, r):
    return bc_matrix(n, z_value(ShiftedCircle(y, r)))


FAMILY_GRIDS = pytest.mark.parametrize(
    "model, grid",
    [
        # 1 - tau^2 changes sign at t = 0 and t = 2: both complex branches
        (EpnModel(6), np.linspace(-0.5, 2.5, 601)),
        (EpnModel(9), np.array([-0.5, 0.0, 1.0, 2.0, 2.5, 1e-17])),
        (BcModel(5, -0.5), np.linspace(-1.5, 1.5, 301)),
        (BcModel(4), np.array([-2.0, -1.0, 0.0, 1.0, 3.0])),
        (HermitianDemoModel(4, 1), np.linspace(-1, 1, 101)),
    ],
    ids=["epn6-both-branches", "epn9-edges", "bc5-beyond-unit-r", "bc4-real-z", "demo4"],
)


@FAMILY_GRIDS
def test_matrices_are_the_per_point_matrices_bit_for_bit(model, grid):
    stack = model.matrices(grid)
    per_point = np.array([model.matrix(p) for p in grid])
    assert stack.dtype == per_point.dtype and stack.shape == (len(grid), model.n, model.n)
    assert np.array_equal(_bits(stack), _bits(per_point))


@FAMILY_GRIDS
def test_family_constructors_wrap_the_model_matrix_in_a_dense_matrix(model, grid):
    # epn_matrix, bc_matrix and hermitian_demo hold the model's matrix, complex, bit for bit
    for p in map(float, grid):
        if isinstance(model, EpnModel):
            m = epn_matrix(model.n, p)
        elif isinstance(model, BcModel):
            m = _bc_point(model.n, model.y, p)
        else:
            m = hermitian_demo(model.n, p, seed=model.seed)
        assert type(m) is DenseMatrix and m.a.dtype == complex
        assert np.array_equal(_bits(m.a), _bits(model.matrix(p)))


def test_epn_stack_is_real_exactly_where_every_shift_is():
    assert EpnModel(6).matrices(np.linspace(0.0, 2.0, 11)).dtype == np.float64
    mixed = EpnModel(6).matrices([-0.5, 0.5])
    assert mixed.dtype == np.complex128
    assert not mixed[1].imag.any() and mixed[0].imag.any()
