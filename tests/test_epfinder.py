"""Degeneracy location and classification."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import epspect.epfinder as epfinder
from epspect.core import Precision, eig_dense
from epspect.epfinder import (
    _disc_in_y_at_p,
    _event_pieces,
    _fold_event_poly,
    _min_pairwise,
    _ep_locate_model,
    _pole_collision_poly,
    _roots_in_window,
    bc_reality_signature,
    classify_degeneracy,
    ep_locate_1d,
    ep_locate_2d_bc,
    epn_rank_chain,
    perturbation_exponent,
    sweep,
)
from epspect.models import BcModel, EpnModel, HermitianDemoModel, bc_matrix, epn_matrix
from epspect.sturmian import bivariate_secular

EPS_LADDER = [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6]


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


def test_sweep_epn6_real_tracks_with_closed_form():
    res = sweep(EpnModel(6), (0.0, 1.0), 101)
    assert res.tracks.shape == (6, 101)
    # away from the degenerate endpoint every value is real and matches
    # the closed form (8 + 2k - 5) * sqrt(2t - t^2) as a set
    for k in range(1, 101):
        t = res.grid[k]
        want = np.sort(np.array([3, 5, 7, 9, 11, 13]) * math.sqrt(2 * t - t * t))
        got = np.sort(res.tracks[:, k].real)
        assert res.real_flags[:, k].all()
        assert np.allclose(got, want, atol=1e-8)


def test_sweep_hermitian_demo_avoided_crossings():
    res = sweep(HermitianDemoModel(4, 1), (-1.0, 1.0), 501)
    assert res.real_flags.all()
    gaps = np.diff(np.sort(res.tracks.real, axis=0), axis=0)
    assert gaps.min() > 0


def test_sweep_epn8_total_merger_at_origin():
    res = sweep(EpnModel(8), (-0.5, 0.5), 201)
    mid = 100
    assert abs(res.grid[mid]) < 1e-12
    spread_mid = np.max(np.abs(res.tracks[:, mid] - res.tracks[:, mid].mean()))
    spread_end = np.max(np.abs(res.tracks[:, -1] - res.tracks[:, -1].mean()))
    assert spread_mid < 0.3
    assert spread_end > 2.0


def test_sweep_track_continuity():
    res = sweep(EpnModel(6), (0.1, 1.0), 181)
    steps = np.abs(np.diff(res.tracks, axis=1))
    median_step = np.median(steps)
    for k in range(steps.shape[1]):
        if res.warnings[k + 1]:
            continue
        assert steps[:, k].max() < 10 * median_step


def test_sweep_requires_two_samples():
    with pytest.raises(ValueError):
        sweep(EpnModel(6), (0.0, 1.0), 1)


def _pairwise_loop(values):
    n = len(values)
    return min(abs(values[i] - values[j]) for i in range(n) for j in range(i + 1, n))


def test_min_pairwise_matches_the_double_loop():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5, 9, 32):
        for scale in (1e-6, 1.0, 1e4):
            v = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            assert _min_pairwise(v) == _pairwise_loop(v)
            assert _min_pairwise(v.real.astype(complex)) == _pairwise_loop(v.real.astype(complex))
    repeated = np.array([1 + 2j, 3 - 1j, 1 + 2j, -4 + 0j])
    assert _min_pairwise(repeated) == 0.0
    assert _min_pairwise(np.array([0.5 + 0j, 2.0 + 1j])) == abs(1.5 + 1j)


def _reference_sweep(model, param_range, samples):
    """The sweep as one eigentriple solve per point and Python loops."""
    grid = np.linspace(param_range[0], param_range[1], samples)
    spectra = [eig_dense(model.matrix(p)).values for p in grid]
    n = len(spectra[0])
    tracks = np.zeros((n, samples), dtype=complex)
    warnings = np.zeros(samples, dtype=bool)
    tracks[:, 0] = spectra[0]
    for k in range(1, samples):
        prev, cur = tracks[:, k - 1], spectra[k]
        rows, cols = linear_sum_assignment(np.abs(cur[None, :] - prev[:, None]))
        tracks[:, k] = cur[cols[np.argsort(rows)]]
        step = np.max(np.abs(tracks[:, k] - prev))
        warnings[k] = _pairwise_loop(tracks[:, k]) < 2.0 * step
    flags = np.zeros((n, samples), dtype=bool)
    for k in range(samples):
        col = tracks[:, k]
        scale = max(1.0, float(np.max(np.abs(col))))
        flags[:, k] = np.abs(col.imag) <= 1e-10 * scale
    return tracks, flags, warnings


@pytest.mark.parametrize(
    "model, param_range, samples",
    [(EpnModel(8), (-0.5, 0.5), 201), (BcModel(6, -0.5), (1.0, 0.0), 161)],
    ids=["epn8-through-EP8", "bc6-y-0.5"],
)
def test_sweep_matches_per_point_eigentriple_reference(model, param_range, samples):
    tracks, flags, warnings = _reference_sweep(model, param_range, samples)
    res = sweep(model, param_range, samples)
    assert np.max(np.abs(res.tracks - tracks)) <= 1e-12
    assert np.array_equal(res.real_flags, flags)
    assert np.array_equal(res.warnings, warnings)
    # the windows cross the reality boundary and the ambiguous pairings
    assert flags.any() and not flags.all()
    assert warnings.any()


def _matched_distance(got, want):
    """Largest distance between two spectra after min-cost matching."""
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.mark.parametrize(
    "model, param_range, samples",
    [(EpnModel(6), (-0.5, 1.0), 6), (BcModel(5, -0.5), (1.0, 0.0), 6)],
    ids=["epn6", "bc5-y-0.5"],
)
def test_extended_sweep_matches_mpmath_qr_values(model, param_range, samples):
    # the index order may differ where real parts tie (t < 0 for epn), so
    # each grid point is compared as a matched set
    res = sweep(model, param_range, samples, precision=Precision.EXTENDED)
    for k, p in enumerate(res.grid):
        want = eig_dense(model.matrix(p), precision=Precision.EXTENDED).values
        assert _matched_distance(res.tracks[:, k], want) <= 1e-12, p


def test_extended_sweep_converges_through_maximal_ep():
    res = sweep(EpnModel(8), (-0.2, 0.2), 5, precision=Precision.EXTENDED)
    assert abs(res.grid[2]) < 1e-15
    assert np.all(np.isfinite(res.tracks))


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------


def test_classify_bc6_center_is_ep2():
    cls = classify_degeneracy(bc_matrix(6, 1j), 2.0)
    assert cls.kind == "ep"
    assert cls.algebraic == 2
    assert cls.geometric == 1


def test_classify_epn6_origin_is_ep6():
    # double arithmetic spreads a maximal-order cluster like eps^(1/6),
    # so the tolerance must sit above ~1e-3; the exact rank chain below is
    # the independent oracle for the verdict
    cls = classify_degeneracy(epn_matrix(6, 0), 0.0, cluster_rtol=1e-2)
    assert cls.kind == "ep"
    assert cls.algebraic == 6
    assert cls.geometric == 1
    assert epn_rank_chain(6) == [5, 4, 3, 2, 1, 0]


def test_classify_planted_double_eigenvalue_is_diabolic():
    cls = classify_degeneracy(np.diag([1.0, 1.0, 2.0]), 1.0)
    assert cls.kind == "diabolic"
    assert cls.algebraic == 2
    assert cls.geometric == 2


def test_classify_simple_eigenvalue():
    cls = classify_degeneracy(np.diag([1.0, 2.0, 3.0]), 2.0)
    assert cls.kind == "simple"


def test_classify_rejects_energy_off_spectrum():
    with pytest.raises(ValueError):
        classify_degeneracy(np.diag([1.0, 2.0, 3.0]), 10.0)


def test_classify_ambiguous_rank_is_indeterminate():
    # a singular value sitting inside the threshold band must not be
    # silently rounded into a rank decision
    cls = classify_degeneracy(np.diag([1.0, 1.0 + 5e-9, 2.0]), 1.0)
    assert cls.kind == "indeterminate"
    assert "sigma_in_band" in cls.residuals


def test_classify_ep_has_small_coalescence_angle():
    cls = classify_degeneracy(bc_matrix(6, 1j), 2.0)
    assert cls.residuals["coalescence_angle"] < 1e-3
    dia = classify_degeneracy(np.diag([1.0, 1.0, 2.0]), 1.0)
    assert dia.residuals["coalescence_angle"] > 0.1


def test_epn_rank_chain_all_dimensions():
    for n in range(2, 9):
        assert epn_rank_chain(n) == list(range(n - 1, -1, -1))


# --------------------------------------------------------------------------
# one-parameter location
# --------------------------------------------------------------------------


def test_locate_bc6_finds_single_ep2_at_origin():
    pts = ep_locate_1d(bivariate_secular(6, 0), (-1, 1))
    assert len(pts) == 1
    (pt,) = pts
    assert pt.kind == "ep" and pt.order == 2
    assert abs(pt.params["r"]) <= 1e-8
    assert abs(pt.energy - 2.0) <= 1e-8


def test_locate_bc5_finds_nothing_at_zero_shift():
    assert ep_locate_1d(bivariate_secular(5, 0), (-1, 1)) == []


def test_located_zero_coincides_with_discriminant_sign_change():
    from fractions import Fraction

    from epspect.core import discriminant_in_E

    s = bivariate_secular(6, 0)
    d = discriminant_in_E(s.secular)
    (pt,) = ep_locate_1d(s, (-1, 1))
    p_star = pt.params["r"] ** 2
    eps = Fraction(1, 1000)
    lo = d(Fraction(p_star) - eps)
    hi = d(Fraction(p_star) + eps)
    assert (lo < 0 < hi) or (hi < 0 < lo)


def test_locate_epn6_finds_maximal_ep():
    pts = ep_locate_1d(EpnModel(6), (-0.5, 0.5))
    eps = [p for p in pts if p.kind == "ep"]
    assert len(eps) == 1
    (pt,) = eps
    assert pt.order == 6
    assert abs(pt.params["t"]) <= 1e-6
    assert abs(pt.energy) <= 1e-4


@pytest.mark.parametrize("n", [8, 10, 12])
def test_locate_epn_exact_maximal_ep(n):
    # the discriminant's only root is q = 1, where det(M - E) = +-E^n; the
    # float gap scan and polish report EP2 at n=8 and nothing certain at 10
    pts = ep_locate_1d(EpnModel(n), (-0.5, 0.5))
    assert [(p.params, p.kind, p.order) for p in pts] == [({"t": 0.0}, "ep", n)]
    assert pts[0].energy == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_epn_exact_path_matches_float_chain(n):
    # the gap scan plus mp polish stays the reference for models without an
    # exact form; where it resolves the EP it must agree with the exact path
    exact = ep_locate_1d(EpnModel(n), (-0.5, 0.5))
    chain = _ep_locate_model(EpnModel(n), (-0.5, 0.5), 201)
    assert [(p.kind, p.order) for p in chain] == [(p.kind, p.order) for p in exact]
    for p in chain:
        assert abs(p.params["t"]) <= 1e-6
        assert p.residuals["polish_shrink"] >= 100


@pytest.mark.parametrize(
    "n, y", [(3, -0.5), (5, -0.5), (6, 0), (6, -0.8), (7, -0.196), (8, 0.3)]
)
def test_matrix_and_sturmian_paths_agree(n, y):
    # at n=3, y=-0.5 the golden-section polish hands Aberth real seeds
    # (the previous roots) next to the complex pair 3 +- 3.9e-6i; the last
    # three cases need the secular polynomial evaluated exactly at the
    # irrational root, not rounded to double
    matrix = ep_locate_1d(BcModel(n, y), (-1, 1))
    exact = ep_locate_1d(bivariate_secular(n, y), (-1, 1))

    def verdicts(points):
        return {(round(abs(p.params["r"]), 6), p.kind, p.order) for p in points}

    # the matrix path reports both mirrors +-r, the Sturmian path one of them
    assert verdicts(matrix) == verdicts(exact)
    for p in matrix:
        q = next(q for q in exact if abs(abs(q.params["r"]) - abs(p.params["r"])) < 1e-6)
        assert abs(p.energy - q.energy) <= 1e-6
    # relative to the discriminant's own size, so a root reads ~rounding
    assert all(q.residuals["disc_residual"] <= 1e-15 for q in exact)


def test_locate_hermitian_demo_finds_nothing():
    assert [
        p
        for p in ep_locate_1d(HermitianDemoModel(4, 1), (-1, 1), samples=101)
        if p.kind == "ep"
    ] == []


# --------------------------------------------------------------------------
# two-parameter search (boundary-controlled family)
# --------------------------------------------------------------------------


def test_scan_y_locates_first_complexification():
    pts = ep_locate_2d_bc(5, (-0.4, 0.0))
    eps = [p for p in pts if p.kind == "ep"]
    assert len(eps) == 1
    (pt,) = eps
    assert pt.params["y"] == pytest.approx(-0.196, abs=0.005)
    assert pt.params["r"] == pytest.approx(0.0, abs=1e-8)
    assert pt.order == 2
    assert tuple(pt.residuals["tracks"]) == (1, 2)


def test_scan_y_locates_pole_event():
    pts = ep_locate_2d_bc(5, (-0.75, -0.65))
    poles = [p for p in pts if p.kind == "sturmian-pole"]
    assert len(poles) == 1
    (pt,) = poles
    assert pt.params["y"] == pytest.approx(-0.7071, abs=0.002)
    assert pt.energy.real == pytest.approx(2 + math.sqrt(2), abs=1e-6)
    assert pt.residuals["crossing_coupling"] == pytest.approx(0.25)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_pole_at_zero_shift_is_exact_and_has_no_single_crossing(n):
    # A and B share E = 2 exactly; the mirror E -> 4 - E sends two levels
    # into it together, so no one level crosses the persistent line
    (pole,) = (p for p in ep_locate_2d_bc(n, (-0.1, 0.1)) if p.kind == "sturmian-pole")
    assert pole.params["y"] == 0.0 and pole.energy == 2.0
    assert pole.residuals["numerator_at_pole"] == 0.0
    assert pole.residuals["crossing_track"] is None
    assert pole.residuals["labels_ambiguous"] is True


def test_scan_y_events_do_not_depend_on_the_window():
    wide = ep_locate_2d_bc(5, (-1.0, 0.0))
    narrow = ep_locate_2d_bc(5, (-0.75, -0.65))
    assert narrow
    for p in narrow:
        assert any(
            q.kind == p.kind
            and q.order == p.order
            and abs(q.params["y"] - p.params["y"]) <= 1e-9
            for q in wide
        ), p


def _labels(point):
    keys = ("tracks", "appearing", "vanishing", "crossing_track", "labels_ambiguous")
    return {k: point.residuals[k] for k in keys if k in point.residuals}


def _mirrored_labels(labels, n):
    """Labels of the mirror event: level l becomes n - 1 - l, and walking
    y downward through the mirror swaps appearing and vanishing."""
    swap = {"appearing": "vanishing", "vanishing": "appearing"}
    out = {}
    for key, value in labels.items():
        if isinstance(value, tuple):
            value = tuple(sorted(n - 1 - label for label in value))
        elif isinstance(value, int) and not isinstance(value, bool):
            value = n - 1 - value
        out[swap.get(key, key)] = value
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_scan_y_events_mirror_under_y_to_minus_y(n):
    # R(n, -conj z) is similar to 4 - R(n, z) (reverse the basis, flip
    # alternate signs), so an event at (y, E) has a mirror at (-y, 4 - E)
    # with the same kind, order and mirrored labels
    events = ep_locate_2d_bc(n, (-1.0, 1.0))
    assert all(p.kind != "indeterminate" for p in events)
    for p in events:
        assert any(
            q.kind == p.kind
            and q.order == p.order
            and abs(q.params["y"] + p.params["y"]) <= 1e-9
            and abs(q.energy.real - (4 - p.energy.real)) <= 1e-9
            and _labels(q) == _mirrored_labels(_labels(p), n)
            for q in events
        ), p


@pytest.fixture(scope="module")
def scan8():
    return ep_locate_2d_bc(8, (-1.0, 0.0))


@pytest.fixture(scope="module")
def scan10():
    return ep_locate_2d_bc(10, (-1.0, 0.0))


def _own_event_poly(n, point):
    """The exact polynomial in y of the event's mechanism, made square-free."""
    if point.kind == "sturmian-pole":
        poly = _pole_collision_poly(n)
    elif point.params["r"] == 0:
        poly = _disc_in_y_at_p(n, 0)
    else:
        poly = _fold_event_poly(n)
    return poly.exact_div(poly.gcd(poly.derivative()))


@pytest.mark.parametrize("n", [8, 10])
def test_scan_events_are_sign_changes_of_their_own_polynomial(n, request):
    events = request.getfixturevalue(f"scan{n}")
    assert events
    d = Fraction(1, 10**9)
    for p in events:
        poly = _own_event_poly(n, p)
        y = Fraction(p.params["y"])
        assert poly(y - d) * poly(y + d) <= 0, p


@pytest.mark.parametrize("n", [8, 10])
def test_scan_verdicts_are_certified(n, request):
    events = request.getfixturevalue(f"scan{n}")
    for p in events:
        assert p.kind != "simple", p
        assert p.kind == "sturmian-pole" or p.order >= 2, p
        assert not cmath.isnan(p.energy), p
        # each residual is relative to the polynomial's own size: a double
        # rounded from a root reads a few units of rounding
        (residual,) = (
            p.residuals[k]
            for k in ("disc_residual", "resultant_residual", "fold_residual")
            if k in p.residuals
        )
        assert residual <= 1e-15, p
    folds = [p for p in events if p.params["r"] > 0]
    assert folds
    assert all((p.kind, p.order) == ("ep", 3) for p in folds), folds
    if n == 8:
        assert any(abs(p.params["y"] - (-0.951492)) <= 1e-6 for p in folds)


def test_scan10_pole_energy_is_the_exact_root_of_B(scan10):
    # at y = -1/2 the interior chain's polynomial B has the exact root 3
    (pole,) = (p for p in scan10 if p.kind == "sturmian-pole" and p.params["y"] == -0.5)
    assert abs(pole.energy - 3.0) <= 1e-15
    s = bivariate_secular(10, Fraction(-1, 2))
    assert s.B(Fraction(3)) == 0
    exact = -s.A.derivative()(Fraction(3)) / s.B.derivative()(Fraction(3))
    assert abs(pole.residuals["crossing_coupling"] - float(exact)) <= 1e-14 * abs(float(exact))


@pytest.mark.parametrize("n", [6, 8])
def test_locate_bc_rational_double_root_is_exact(n):
    # at y = 0 the levels merge at r = 0 on E = 2 exactly; the extended
    # cluster centre is off by ~1e-14, the polish on the derivative is not
    pts = ep_locate_1d(bivariate_secular(n, 0), (-1, 1))
    merges = [p for p in pts if p.params["r"] == 0.0]
    assert [(p.kind, p.order, p.energy) for p in merges] == [("ep", 2, 2.0 + 0j)]
    assert merges[0].energy.imag == 0.0


def test_scan8_merge_at_zero_shift_is_exact(scan8):
    (merge,) = (p for p in scan8 if p.params == {"y": 0.0, "r": 0.0})
    assert merge.energy == 2.0 + 0j and merge.energy.imag == 0.0


def test_reality_signatures_either_side_of_pole_event():
    assert bc_reality_signature(5, -0.5) == frozenset({1, 2})
    assert 0 in bc_reality_signature(5, -0.8)


def test_reality_signatures_hold_up_to_each_event(scan8):
    # at the double nearest an event and 1e-12 from it, where critical
    # values and levels crowd within rounding (three levels meet at a fold),
    # the signature is defined and equals that of a side 1e-6 away
    for p in scan8:
        y = p.params["y"]
        below, above = (bc_reality_signature(8, y + d) for d in (-1e-6, 1e-6))
        assert bc_reality_signature(8, y) in (below, above), p
        assert bc_reality_signature(8, y - 1e-12) == below, p
        assert bc_reality_signature(8, y + 1e-12) == above, p


def test_scan8_every_event_is_labelled(scan8):
    # the labels are exact: both folds and the merge at y = 0 carry the
    # levels that meet, and each pole the level crossing its persistent line
    for p in scan8:
        assert "labels_ambiguous" not in p.residuals, p
        if p.kind == "sturmian-pole":
            assert p.residuals["crossing_track"] is not None, p
        else:
            assert len(p.residuals["tracks"]) == p.order, p
    folds = [p.residuals["tracks"] for p in scan8 if p.params["r"] > 0]
    assert folds == [(0, 1, 2), (1, 2, 3)]
    (merge,) = (p for p in scan8 if p.params == {"y": 0.0, "r": 0.0})
    assert merge.residuals["tracks"] == (3, 4)


def test_scan_labels_without_sweeps_one_history_per_gap(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the shift scan sampled a sweep")

    monkeypatch.setattr(epfinder, "sweep", no_sweep)
    epfinder._reality_history.cache_clear()
    points = ep_locate_2d_bc(8, (-1.0, 0.0))
    candidates = sum(len(_roots_in_window(piece, -1.0, 0.0)) for piece, _ in _event_pieces(8))
    assert len(points) == 7
    assert epfinder._reality_history.cache_info().misses <= candidates + 1


def test_landing_labels_are_unknown_only_beside_another_complex_pair():
    # one complex pair lands with its own labels
    segments, lost = epfinder._continue_labels(4, [(0.9, "depart", 0), (0.5, "land", 1)])
    assert segments == ((0, 1, 2, 3), (2, 3), (2, 0, 1, 3)) and lost == {0, 1}
    # two pairs off the axis: which one lands is not decided, yet the lost
    # set stays exact, since an unknown label has left the axis before
    steps = [(0.9, "depart", 0), (0.7, "depart", 2), (0.5, "land", 1), (0.3, "depart", 1), (0.2, "depart", 0)]
    segments, lost = epfinder._continue_labels(6, steps)
    assert segments[3] == (2, None, None, 3)
    assert segments[-1] == ()
    assert lost == {0, 1, 2, 3, 4, 5}
    assert epfinder._labels_at(segments[3], 0, 1) == (2,)
    assert epfinder._labels_at(segments[3], 0, 2) is None


@settings(deadline=None, max_examples=25)
@given(
    st.integers(4, 6),
    st.floats(-1.0, 0.0),
    st.floats(-1.0, 0.0),
)
def test_scan_events_and_labels_do_not_depend_on_the_window(n, a, b):
    lo, hi = sorted((a, b))
    full = ep_locate_2d_bc(n, (-1.0, 0.0))
    for p in ep_locate_2d_bc(n, (lo, hi)):
        assert any(
            q.kind == p.kind
            and q.order == p.order
            and abs(q.params["y"] - p.params["y"]) <= 1e-9
            and _labels(q) == _labels(p)
            for q in full
        ), p


# --------------------------------------------------------------------------
# perturbation splitting exponents
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [6, 7, 8])
def test_perturbation_exponent_maximal_order(n):
    # the whole EPN spectrum is one cluster; at n >= 7 the double-precision
    # fog only merges it at the loosest rung of the tolerance ladder
    fit = perturbation_exponent(epn_matrix(n, 0), n, EPS_LADDER, seed=42, draws=4)
    assert fit.ok
    assert fit.slope == pytest.approx(1 / n, abs=0.02)


def test_perturbation_exponent_pairwise():
    fit = perturbation_exponent(
        bc_matrix(6, 1j), 2, EPS_LADDER, seed=42, at=2.0, draws=4
    )
    assert fit.ok
    assert fit.slope == pytest.approx(0.5, abs=0.02)


def test_perturbation_exponent_regular_case():
    fit = perturbation_exponent(
        np.diag([1.0, 2.0, 3.0]), 1, EPS_LADDER, seed=42, at=1.0, draws=4
    )
    assert fit.ok
    assert fit.slope == pytest.approx(1.0, abs=0.02)


def test_perturbation_exponent_needs_four_decades():
    with pytest.raises(ValueError):
        perturbation_exponent(epn_matrix(6, 0), 6, [1e-8, 1e-7, 1e-6], seed=1)
