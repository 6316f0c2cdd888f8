"""Sturmian coupling function: secular decomposition, branches, poles."""

import cmath
import math
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import epspect.epfinder as epfinder
import epspect.sturmian as sturmian
from epspect.core import (
    Polynomial,
    eig_dense,
    real_root_count,
    real_root_intervals,
    real_roots,
    square_free_factors,
)
from epspect.cli import FIGURES
from epspect.models import bc_matrix
from epspect.sturmian import (
    SturmianFunction,
    bivariate_secular,
    branch_merges,
    branch_trace,
    real_spectrum_at,
    sturmian_poles,
    sturmian_r2,
)
from oracles import charpoly_tridiag, real_roots_mp, rounded

PRINTED_A = Polynomial(
    [Fraction(c) for c in (12, -76, 147, -128, 56, -12, 1)]
)
PRINTED_B = Polynomial([Fraction(c) for c in (-5, 20, -21, 8, -1)])


# --------------------------------------------------------------------------
# secular decomposition
# --------------------------------------------------------------------------


def test_six_level_secular_matches_printed_coefficients():
    s = bivariate_secular(6, 0)
    assert s.A == PRINTED_A
    assert s.B == PRINTED_B


def test_six_level_numerator_factors():
    s = bivariate_secular(6, 0)
    square = Polynomial([Fraction(4), Fraction(-4), Fraction(1)])
    quart = Polynomial(
        [Fraction(3), Fraction(-16), Fraction(20), Fraction(-8), Fraction(1)]
    )
    quot, rem = divmod(s.A, square)
    assert rem.is_zero
    assert quot == quart


def test_two_level_secular_by_hand():
    # det = (2-z-E)(2-conj z-E) - 1 = (2-E)^2 - r^2
    s = bivariate_secular(2, 0)
    assert s.A == Polynomial([Fraction(4), Fraction(-4), Fraction(1)])
    assert s.B == Polynomial([Fraction(-1)])


def test_secular_identity_against_matrix_charpoly():
    # holds on the model domain |r| <= 1; beyond it the matrix conjugates a
    # real coupling while the polynomial continues analytically
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        y = float(np.round(rng.uniform(-1, 1), 3))
        r = float(rng.uniform(-1.0, 1.0))
        s = bivariate_secular(n, y)
        z = y + 1j * cmath.sqrt(1 - r * r)
        got = charpoly_tridiag(bc_matrix(n, z))
        want = s.poly_at(r * r)
        assert len(got) == len(want.coeffs)
        for a, b in zip(got, want.coeffs):
            assert abs(a - complex(b)) <= 1e-12 * (1 + abs(complex(b)))


# --------------------------------------------------------------------------
# pointwise values
# --------------------------------------------------------------------------


def test_r2_at_band_center_is_zero():
    s = bivariate_secular(6, 0)
    v = sturmian_r2(s, 2)
    assert v.kind == "finite" and v.value == 0.0


def test_r2_at_quartic_root_is_zero():
    v = sturmian_r2(bivariate_secular(6, 0), 1)
    assert v.kind == "finite" and v.value == 0.0


def test_r2_two_level_case():
    v = sturmian_r2(bivariate_secular(2, 0), 3)
    assert v.kind == "finite" and v.value == 1.0


def test_r2_pole_and_indeterminate_outcomes():
    s5 = bivariate_secular(5, 0)
    assert sturmian_r2(s5, 2).kind == "indeterminate"
    s6 = bivariate_secular(6, 0)
    # exact rational pole check: B has no rational roots, so synthesize one
    # via the two-level family shifted into a pole-free regime instead
    poles = sturmian_poles(s6)
    assert all(b.kind == "pole-of-r" for b in poles)


def test_r2_matches_printed_rational_function():
    s = bivariate_secular(6, 0)
    rng = np.random.default_rng(4)
    for e in rng.uniform(-3.0, 7.0, 100):
        num = (e - 2) ** 2 * (e**4 - 8 * e**3 + 20 * e**2 - 16 * e + 3)
        den = e**4 - 8 * e**3 + 21 * e**2 - 20 * e + 5
        if abs(den) < 1e-6:
            continue
        v = sturmian_r2(s, float(e))
        assert v.kind == "finite"
        assert abs(v.value - num / den) <= 1e-12 * (1 + abs(num / den))


@pytest.mark.parametrize("n, energy", [(2, 2), (3, 1), (6, 2), (9, 1), (10, 2)])
def test_r2_zero_is_positive_zero(n, energy):
    # at these roots of A, B is negative: -0 / B must still read +0.0
    v = sturmian_r2(bivariate_secular(n, 0), energy)
    assert v.kind == "finite" and v.value.hex() == 0.0.hex()
    assert v.exact == Fraction(*v.ratio) == 0


def test_r2_exact_is_the_ratio_and_none_on_poles():
    s = bivariate_secular(7, Fraction(-2, 7))
    assert sturmian_r2(s, 2).kind == "pole"
    assert sturmian_r2(s, 2).exact is None
    for e in (0.3, Fraction(7, 3), -4, 1e-9):
        v = sturmian_r2(s, e)
        assert v.kind == "finite" and v.ratio[1] > 0
        assert v.exact == Fraction(*v.ratio)
        assert v.value == float(v.exact)


def _r2_oracle(s, energy):
    """(kind, exact) of -A(E)/B(E) by a plain Fraction loop over the coefficients."""
    e = Fraction(energy)
    a = sum((Fraction(c) * e**k for k, c in enumerate(s.A.coeffs)), Fraction(0))
    b = sum((Fraction(c) * e**k for k, c in enumerate(s.B.coeffs)), Fraction(0))
    if b == 0:
        return ("indeterminate" if a == 0 else "pole"), None
    return "finite", -a / b


SHIFTS = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 9), Fraction(-11, 15)]),
    st.fractions(-1, 1, max_denominator=60),
)
ENERGIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.integers(-10, 10),
    st.fractions(-10, 10, max_denominator=1000),
    st.sampled_from([1, 2, 3]),  # the rational roots of B, where n allows them
)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), SHIFTS, ENERGIES)
@example(5, 0.0, 2)  # 0/0: the persistent centre level of odd n at y = 0
@example(7, Fraction(-2, 7), 2)  # B(2) = 0 for odd n
@example(4, Fraction(1, 3), 1)  # B(1) = B(3) = 0 when 3 divides n - 1
@example(10, -0.5, 3)  # 0/0: A and B share the root 3 at the n=10 pole event
def test_r2_matches_fraction_oracle(n, y, energy):
    s = bivariate_secular(n, y)
    kind, exact = _r2_oracle(s, energy)
    got = sturmian_r2(s, energy)
    assert got.kind == kind
    assert got.exact == exact
    if exact is None:
        assert got.value is None
    else:
        assert got.value.hex() == float(exact).hex()  # bit-equal


# --------------------------------------------------------------------------
# branch traces
# --------------------------------------------------------------------------


def test_branch_trace_x_crossing_at_band_center():
    s = bivariate_secular(6, 0)
    tr = branch_trace(s, (1.5, 2.5), 200)
    near = [p for p in tr.points if abs(p.energy - 2) < 0.02]
    assert near, "no branch points near the crossing"
    assert min(abs(p.r_plus) for p in near) < 1e-4  # branches reach r = 0
    # both signs present and symmetric
    for p in tr.points:
        assert p.r_minus == -p.r_plus


def test_branch_trace_vertical_line_for_odd_n():
    s = bivariate_secular(5, 0)
    tr = branch_trace(s, (0.0, 4.0), 300)
    assert tr.persistent_lines == (2.0,)


def test_branch_trace_two_level_straight_branches():
    s = bivariate_secular(2, 0)
    tr = branch_trace(s, (1.0, 3.0), 101)
    for p in tr.points:
        assert p.r_plus == pytest.approx(abs(2 - p.energy), abs=1e-12)
        assert p.in_model  # |2 - E| <= 1 on [1, 3]


def test_branch_trace_validates_grid():
    s = bivariate_secular(2, 0)
    with pytest.raises(ValueError):
        branch_trace(s, (1.0, 3.0), 1)
    with pytest.raises(ValueError):
        branch_trace(s, (3.0, 1.0), 10)


def test_branch_trace_flags_out_of_model_points():
    s = bivariate_secular(2, 0)
    tr = branch_trace(s, (3.0, 4.0), 50)
    outside = [p for p in tr.points if p.energy > 3.01]
    assert outside and not any(p.in_model for p in outside)


def _traced(s, window, samples):
    """``branch_trace`` with the energies its integer kernel evaluated r^2 at."""
    sampled, kernel = [], sturmian._r2_ratio

    def recording(terms, u, v):
        sampled.append(u / v)  # u/v is the exact ratio of a float, so this is that float
        return kernel(terms, u, v)

    with mock.patch.object(sturmian, "_r2_ratio", recording):
        return branch_trace(s, window, samples), sampled


TRACE_SHIFTS = st.one_of(
    st.just(0),
    st.fractions(-1, 1, max_denominator=40),
    st.integers(-64, 64).map(lambda k: k / 64),  # dyadic
    st.floats(-1.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), TRACE_SHIFTS, st.floats(-1.0, 3.0), st.floats(0.5, 4.0), st.integers(2, 120))
@example(5, 0, 1.5, 1.0, 50)  # 0/0 at E = 2: A and B share the root at odd n, y = 0
@example(7, 0, 0.0, 4.0, 101)
@example(3, 0, 1.9, 0.2, 2)
@example(6, Fraction(1, 3), -1.0, 4.0, 97)
@example(3, 0, 0.0, 2.9999999999999996, 4)  # grid point 1.9999999999999998 shares E = 2's dedupe bucket
def test_trace_points_are_the_pointwise_r2_and_drop_exactly_the_rest(n, y, lo, width, samples):
    # every point is sturmian_r2 at its energy, bit for bit, and an evaluated
    # energy is dropped exactly at a pole, at 0/0 and where r^2 < 0
    s = bivariate_secular(n, y)
    tr, sampled = _traced(s, (lo, lo + width), samples)
    kept = {p.energy: p for p in tr.points}
    assert [p.energy for p in tr.points] == sorted(kept)  # ascending, no energy twice
    for e in sampled:
        v = sturmian_r2(s, e)
        if not v.is_finite or v.value < 0:
            assert e not in kept
            continue
        p, r = kept.pop(e), math.sqrt(v.value)
        assert (p.r_plus.hex(), p.r_minus.hex(), p.in_model) == (r.hex(), (-r).hex(), v.value <= 1.0)
    assert kept == {}
    if n % 2 and y == 0 and lo <= 2 <= lo + width:
        assert 2.0 in sampled and sturmian_r2(s, 2).kind == "indeterminate"


def test_branch_points_are_eigenvalues():
    s = bivariate_secular(6, 0)
    tr = branch_trace(s, (0.0, 4.0), 120)
    rng = np.random.default_rng(8)
    sample = rng.choice(len(tr.points), size=25, replace=False)
    for k in sample:
        p = tr.points[int(k)]
        if not p.in_model:
            continue
        z = 1j * cmath.sqrt(1 - p.r_plus**2)
        vals = eig_dense(bc_matrix(6, z)).values
        assert np.min(np.abs(vals - p.energy)) <= 1e-8 * (1 + abs(p.energy))


# --------------------------------------------------------------------------
# poles
# --------------------------------------------------------------------------


def test_poles_of_six_level_family():
    poles = sturmian_poles(bivariate_secular(6, 0))
    want = sorted(np.roots([1, -8, 21, -20, 5]).real)
    assert len(poles) == 4
    assert np.allclose([b.energy for b in poles], want, atol=1e-7)
    assert all(b.kind == "pole-of-r" and b.multiplicity == 1 for b in poles)


def test_two_level_family_has_no_poles():
    assert sturmian_poles(bivariate_secular(2, 0)) == ()


def test_five_level_pole_structure_at_critical_shift():
    # at shift -0.7071 the denominator still has its three simple real
    # zeros; the one at 2 + sqrt(2) carries the reality exchange
    poles = sturmian_poles(bivariate_secular(5, -0.7071))
    energies = sorted(b.energy for b in poles)
    assert np.allclose(
        energies, [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)], atol=1e-7
    )
    assert all(b.kind == "pole-of-r" for b in poles)


def test_five_level_center_is_indeterminate_at_zero_shift():
    poles = sturmian_poles(bivariate_secular(5, 0))
    center = [b for b in poles if abs(b.energy - 2) < 1e-8]
    assert center and center[0].kind == "indeterminate"


@pytest.mark.parametrize("y", [-0.5, -0.8])
def test_poles_are_polished_on_B(y):
    # B is the interior chain, eigenvalues 2 - 2 cos(k pi / 4): 2 exactly
    # and 2 +- sqrt(2), each the double nearest the root
    poles = sturmian_poles(bivariate_secular(5, y))
    with mp.workdps(40):
        want = [float(2 - mp.sqrt(2)), 2.0, float(2 + mp.sqrt(2))]
    assert [b.energy for b in poles] == want


@pytest.mark.parametrize("n, y, shared", [(5, 0, 2), (10, Fraction(-1, 2), 3)])
def test_indeterminate_and_merges_split_by_exact_gcd(n, y, shared):
    # A and B share the root E = shared exactly: it is indeterminate, not a
    # pole, and no branch merge sits on it
    s = bivariate_secular(n, y)
    assert s.common_factor(Fraction(shared)) == 0
    kinds = {b.energy: b.kind for b in sturmian_poles(s)}
    assert kinds.pop(float(shared)) == "indeterminate"
    assert set(kinds.values()) == {"pole-of-r"}
    assert all(s.B(Fraction(b.energy)) != 0 for b in branch_merges(s))


def _by_energy(points):
    return tuple(sorted(points, key=lambda b: b.energy))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.fractions(-1, 1, max_denominator=50).filter(lambda y: abs(y) < 1))
@example(5, Fraction(0))
@example(10, Fraction(-1, 2))  # A and B share the root 3
@example(6, Fraction(-7, 10))
def test_cleared_forms_give_the_merges_poles_and_history_of_a_and_b(n, y):
    # D*A and D*B stand in for A and B: the same r^2, merges, poles and Sturm counts
    s = bivariate_secular(n, y)
    num = sturmian._without_factors_of(s.A.derivative() * s.B - s.A * s.B.derivative(), s.B)
    assert branch_merges(s) == _by_energy(sturmian._marked(num, "branch-merge"))
    common = s.A.gcd(s.B)
    assert s.common_factor == common
    poles = sturmian._without_factors_of(s.B, common)
    want = sturmian._marked(s.B.exact_div(poles), "indeterminate") + sturmian._marked(poles, "pole-of-r")
    assert sturmian_poles(s) == _by_energy(want)
    # the history from the counts of A + p B itself
    with mock.patch.object(SturmianFunction, "cleared_at", SturmianFunction.poly_at):
        want = epfinder._reality_history.__wrapped__(n, y)
    assert epfinder._reality_history.__wrapped__(n, y) == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 10),
    st.fractions(-1, 1, max_denominator=50),
    st.fractions(-3, 3, max_denominator=1000),
    st.one_of(st.none(), st.fractions(-1, 6, max_denominator=64)),
)
def test_cleared_at_is_a_positive_multiple_of_poly_at(n, y, p, energy):
    s = bivariate_secular(n, y)
    got, want = s.cleared_at(p), s.poly_at(p)
    assert all(type(c) is int for c in got.coeffs)
    ratio = Fraction(got.lc) / want.lc
    assert ratio > 0 and got == want.scale(ratio)
    assert real_root_count(got, energy) == real_root_count(want, energy)


@pytest.mark.parametrize(
    "n, y",
    [(FIGURES[k][1]["n"], FIGURES[k][1]["y"]) for k in (4, 5, 6)] + [(7, 0.3), (8, -0.5), (10, 0.0)],
    ids=["figure4", "figure5", "figure6", "n7-y0.3", "n8-y-0.5", "n10-y0"],
)
def test_branch_merges_are_the_correctly_rounded_roots(n, y):
    # the real zeros of A'B - AB' where B does not vanish, found by mpmath
    # at 40 digits and rounded once to double
    s = bivariate_secular(n, y)
    num = s.A.derivative() * s.B - s.A * s.B.derivative()
    with mp.workdps(40):
        b_mp = [mp.mpf(Fraction(c).numerator) / Fraction(c).denominator for c in reversed(s.B.coeffs)]
        want = [rounded(e) for e in real_roots_mp(num) if abs(mp.polyval(b_mp, e)) > mp.mpf(10) ** -20]
    merges = branch_merges(s)
    assert [b.energy for b in merges] == want
    assert all(b.multiplicity == 1 for b in merges)
    if y == 0:
        assert want == [2.0]


@pytest.mark.parametrize("n, y", [(4, -2.9028432123001946e-106), (6, -5.644468332401973e-79)])
def test_a_merge_nearer_a_split_point_than_the_polish_resolves_stays_in_its_interval(n, y):
    # at a tiny shift a merge of r^2(E) lies about |y| above E = 2; with
    # roots at 1 and 3 beside it, 2 ends its isolating interval, and a
    # 136-bit Newton iterate can land on 2 itself
    s = bivariate_secular(n, y)
    for f in square_free_factors(s.A.derivative() * s.B - s.A * s.B.derivative()):
        g = f * Polynomial.from_roots([Fraction(1), Fraction(3)])
        roots = real_root_intervals(g)
        assert all(a < x <= b and real_root_count(g, a, b) == 1 for x, a, b in roots)
        assert sum(0 < x - 2 < Fraction(1, 10**30) for x, _, _ in roots) == 1


@pytest.mark.parametrize("n, y, line", [(4, -0.5, 3.0), (7, -0.5, 3.0), (10, -0.5, 3.0), (5, 0.0, 2.0)])
def test_persistent_lines_are_exact_roots(n, y, line):
    # the common root of A and B is rational, so it reads exactly
    assert branch_trace(bivariate_secular(n, y), (-1.0, 5.0), 50).persistent_lines == (line,)


# --------------------------------------------------------------------------
# direct spectra
# --------------------------------------------------------------------------


def test_real_spectrum_complex_pair_at_half_shift():
    rs = real_spectrum_at(5, -0.5, 0.0)
    assert int((~rs.real_flags).sum()) == 2


def test_real_spectrum_persistent_center_eigenvalue():
    for r in np.random.default_rng(2).uniform(-1, 1, 6):
        rs = real_spectrum_at(5, 0.0, float(r))
        k = int(np.argmin(np.abs(rs.values - 2.0)))
        assert abs(rs.values[k] - 2.0) <= 1e-10
        assert rs.real_flags[k]


def test_real_spectrum_hermitian_at_unit_coupling():
    rs = real_spectrum_at(6, 0.0, 1.0)
    assert rs.real_flags.all()
    assert rs.in_model


def test_real_spectrum_flags_out_of_model():
    assert not real_spectrum_at(6, 0.0, 1.5).in_model
