"""Degeneracy location and classification."""

import cmath
import itertools
import math
import threading
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import epspect.epfinder as epfinder
from epspect.core import (
    ConvergenceError,
    Polynomial,
    Precision,
    eig_dense,
    eigvals_double,
    real_root_intervals,
    square_free_factors,
)
from epspect.epfinder import (
    _assign,
    _pairing_warnings,
    _stack_length,
    _sweep_stacks,
    bc_reality_signature,
    classify_degeneracy,
    ep_locate_1d,
    ep_locate_2d_bc,
    epn_rank_chain,
    perturbation_exponent,
    sweep,
)
from epspect.models import BcModel, EpnModel, HermitianDemoModel, bc_matrix, bc_secular_at, epn_matrix
from epspect.sturmian import bivariate_secular
from oracles import (
    POLISH_PREC,
    bc_mp,
    coefficients,
    disc_chain,
    disc_E,
    disc_in_y_at_p,
    eigvals_at,
    epn_levels,
    fold_chain,
    fold_event_poly,
    model_mp,
    pole_collision_poly,
    real_roots_mp,
    rounded,
    secular_chain,
)

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


def _reference_sweep(model, param_range, samples):
    """The sweep as one solve per point and Python loops: for EPN the
    40-digit closed form of the family in level order, for bc the
    eigentriples of the matrix continued by scipy's assignment."""
    grid = np.linspace(param_range[0], param_range[1], samples)
    if isinstance(model, EpnModel):
        with mp.workdps(40):
            spectra = [np.array([complex(v) for v in epn_levels(model.n, p)]) for p in grid]
    else:
        spectra = [eig_dense(model.matrix(p)).values for p in grid]
    n = len(spectra[0])
    tracks = np.zeros((n, samples), dtype=complex)
    warnings = np.zeros(samples, dtype=bool)
    tracks[:, 0] = spectra[0]
    for k in range(1, samples):
        prev, cur = tracks[:, k - 1], spectra[k]
        if isinstance(model, BcModel):
            rows, cols = linear_sum_assignment(np.abs(cur[None, :] - prev[:, None]))
            cur = cur[cols[np.argsort(rows)]]
        tracks[:, k] = cur
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


@pytest.mark.parametrize(
    "model, param_range, samples",
    [
        (EpnModel(8), (-0.5, 0.5), 201),
        (BcModel(6, -0.5), (1.0, 0.0), 161),
        (EpnModel(4), (-0.5, 0.5), 2 * _stack_length(4) + 1),  # crosses two stack boundaries
    ],
    ids=["epn8-through-EP8", "bc6-y-0.5", "epn4-chunked"],
)
def test_pairing_warnings_match_the_per_step_formula(model, param_range, samples):
    res = sweep(model, param_range, samples)
    tracks = res.tracks
    want = [False] + [
        _pairwise_loop(tracks[:, k]) < 2.0 * float(np.max(np.abs(tracks[:, k] - tracks[:, k - 1])))
        for k in range(1, samples)
    ]
    assert res.warnings.tolist() == want
    assert _pairing_warnings(tracks, None).tolist() == want
    assert any(want)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 16),
    st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True),
    st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True),
    st.integers(2, 401),
    st.sampled_from([Precision.DOUBLE, Precision.EXTENDED]),
)
@example(6, -1.0, 1.0, 101, Precision.DOUBLE)
@example(12, -0.2, 0.2, 201, Precision.DOUBLE)
@example(16, 0.0, 1.0, 11, Precision.EXTENDED)
def test_epn_sweep_column_k_is_level_k(n, a, b, samples, precision):
    # E_k = (2k - n + 9) sqrt|t(2 - t)|, real or imaginary: no level is
    # continued into another at the EP of t = 0 or at t = 2
    if precision is Precision.EXTENDED:
        samples = min(samples, 21)
    res = sweep(EpnModel(n), (min(a, b), max(a, b)), samples, precision=precision)
    scale = np.sqrt(np.abs(res.grid * (2.0 - res.grid)))
    away = scale > 0
    levels = (res.tracks.real + res.tracks.imag)[:, away] / scale[away]
    assert np.abs(levels - np.arange(9 - n, n + 9, 2.0)[:, None]).max(initial=0.0) <= 1e-9


def _sweep_on(workers, monkeypatch, *args):
    """``sweep(*args)`` with the stack solves on at most ``workers`` threads."""
    monkeypatch.setattr(epfinder, "_worker_count", lambda stacks: min(workers, stacks))
    return sweep(*args)


def _across_stacks(name, model, param_range):
    """Sweeps of 2, 255, 256, 257, 513 and 2001 samples, and of one stack
    less one, one stack, one more, and two stacks and one."""
    length = _stack_length(model.n)
    for samples in sorted({2, 255, 256, 257, 513, 2001, length - 1, length, length + 1, 2 * length + 1}):
        yield pytest.param(model, param_range, samples, id=f"{name}-{samples}")


@pytest.mark.parametrize(
    "model, param_range, samples",
    [
        *_across_stacks("epn8-mixed-stacks", EpnModel(8), (-0.5, 1.0)),
        *_across_stacks("bc5-beyond-unit-r", BcModel(5, -0.5), (-1.5, 1.5)),
    ],
)
def test_pooled_sweep_is_the_one_thread_sweep_bit_for_bit(model, param_range, samples, monkeypatch):
    alone = _sweep_on(1, monkeypatch, model, param_range, samples)
    for workers in (2, 3):
        pooled = _sweep_on(workers, monkeypatch, model, param_range, samples)
        assert np.array_equal(pooled.grid, alone.grid)
        assert np.array_equal(pooled.tracks.view(float), alone.tracks.view(float))
        assert np.array_equal(pooled.real_flags, alone.real_flags)
        assert np.array_equal(pooled.warnings, alone.warnings)


@pytest.mark.parametrize(
    "error, raised",
    [(np.linalg.LinAlgError("Eigenvalues did not converge"), ConvergenceError), (ValueError("bad chunk"), ValueError)],
    ids=["lapack", "other"],
)
def test_a_failed_chunk_solve_propagates_and_leaves_no_thread(error, raised, monkeypatch):
    calls, eigvals = itertools.count(), np.linalg.eigvals

    def third_solve_fails(a):
        if next(calls) == 2:
            raise error
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", third_solve_fails)
    monkeypatch.setattr(epfinder, "_worker_count", lambda stacks: min(2, stacks))
    threads = threading.active_count()
    with pytest.raises(raised):
        sweep(BcModel(6, -0.5), (-1.0, 1.0), 6 * _stack_length(6))
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [2, 3])
def test_the_pool_solves_at_most_one_stack_per_worker_ahead_and_stops_when_closed(workers, monkeypatch):
    built, matrices = [], BcModel.matrices

    def counted(self, grid):
        built.append(len(grid))
        return matrices(self, grid)

    monkeypatch.setattr(BcModel, "matrices", counted)
    monkeypatch.setattr(epfinder, "SWEEP_STACK_BYTES", 16 * 4 * 4 * 4)  # four points per stack at n = 4
    monkeypatch.setattr(epfinder, "_worker_count", lambda stacks: min(workers, stacks))
    threads = threading.active_count()
    stacks = _sweep_stacks(BcModel(4, -0.5), (-1.0, 1.0), 4 * 40)
    for read, stack in enumerate(stacks, 1):
        assert len(stack.grid) == 4
        time.sleep(0.002)  # a slow reader: a pool without a bound would solve every stack meanwhile
        assert len(built) - read <= workers
        if read == 10:
            break
    stacks.close()
    assert threading.active_count() == threads
    assert 10 <= len(built) <= 10 + workers


# --------------------------------------------------------------------------
# track assignment: bit for bit scipy's linear_sum_assignment
# --------------------------------------------------------------------------


def _scipy_columns(cost):
    rows, cols = linear_sum_assignment(cost)
    return cols[np.argsort(rows)]


def _cost(kind: str, n: int, seed: int) -> np.ndarray:
    """A float, small-integer (tie-heavy) or conjugate-pair cost matrix."""
    rng = np.random.default_rng(seed)
    if kind == "float":
        return rng.random((n, n))
    if kind == "integer":
        return rng.integers(0, 4, (n, n)).astype(float)
    # distances between two conjugate-closed spectra, some values real: a
    # real value is exactly as far from x + iy as from x - iy
    def spectrum():
        half = (n + 1) // 2
        z = (rng.integers(-4, 5, half) + 1j * rng.integers(-4, 5, half)) / 4
        z.imag[rng.random(half) < 0.4] = 0.0
        return np.concatenate([z, z.conj()])[:n]

    prev, cur = spectrum(), spectrum()
    return np.abs(cur[None, :] - prev[:, None])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["float", "integer", "conjugate"]),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_assign_matches_scipy_bit_for_bit(kind, n, seed):
    cost = _cost(kind, n, seed)
    assert _assign(cost).tolist() == _scipy_columns(cost).tolist()


def test_assign_matches_scipy_on_a_sweep_through_the_ep8():
    model = EpnModel(8)
    res = sweep(model, (-0.5, 0.5), 201)
    through_port = 0
    for k in range(1, len(res.grid)):
        cur = eigvals_double(model.matrix(res.grid[k]))
        cost = np.abs(cur[None, :] - res.tracks[:, k - 1][:, None])
        assert _assign(cost).tolist() == _scipy_columns(cost).tolist(), k
        through_port += len(set(cost.argmin(axis=1).tolist())) < len(cost)
    # the augmenting-path port, not only the row-minimum shortcut, is exercised
    assert through_port > 0


ROW_KINDS = ["real", "complex", "mixed", "integer", "conjugate"]


def _spectra(kind: str, rows: int, n: int, seed: int) -> np.ndarray:
    """``rows`` spectra of n values, each sorted in (Re, Im) as a solver returns it:
    real (with some -0.0 imaginary parts), complex, real and complex rows
    mixed, small integers (ties and equal values) or conjugate-closed."""
    rng = np.random.default_rng(seed)

    def row(kind):
        if kind == "real":
            z = rng.standard_normal(n) + 0j
            z.imag[rng.random(n) < 0.3] = -0.0
        elif kind == "complex":
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        elif kind == "mixed":
            z = row(rng.choice(["real", "complex", "conjugate"]))
        elif kind == "integer":
            z = rng.integers(-2, 3, n) + 1j * rng.integers(-1, 2, n) * (rng.random() < 0.5)
        else:
            half = (n + 1) // 2
            w = (rng.integers(-4, 5, half) + 1j * rng.integers(-4, 5, half)) / 4
            w.imag[rng.random(half) < 0.4] = 0.0
            z = np.concatenate([w, w.conj()])[:n]
        return z.astype(complex)

    values = np.array([row(kind) for _ in range(rows)])
    return np.take_along_axis(values, np.lexsort((values.imag, values.real)), axis=-1)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ROW_KINDS),
    st.integers(1, 8),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_stack_continuation_is_the_per_row_scipy_continuation_bit_for_bit(kind, n, rows, with_prev, seed):
    spectra = _spectra(kind, rows + with_prev, n, seed)
    prev, values = (spectra[0], spectra[1:]) if with_prev else (None, spectra)
    want, last = values.copy(), prev
    for k, cur in enumerate(want):
        if last is not None:
            want[k] = cur = cur[_scipy_columns(np.abs(cur[None, :] - last[:, None]))]
        last = cur
    got = values.copy()
    epfinder._continue_tracks(got, None if prev is None else prev.copy())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _warning_columns(n: int, width: int, seed: int) -> np.ndarray:
    """Columns of n values: real, complex, or real beside complex, with some
    -0.0 imaginary parts and some values repeated (gap 0)."""
    rng = np.random.default_rng(seed)
    tracks = rng.integers(-3, 4, (n, width)) / 2 + 0j
    tracks += rng.standard_normal((n, width)) * (rng.random((1, width)) < 0.5)
    imag = rng.integers(-2, 3, (n, width)) * (rng.random((n, width)) < rng.random((1, width)))
    tracks.imag = np.where(imag == 0, np.where(rng.random((n, width)) < 0.5, -0.0, 0.0), imag)
    repeat = rng.random(width) < 0.3
    tracks[-1, repeat] = tracks[0, repeat]
    return tracks


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_pairing_warnings_match_the_pairwise_loop_on_real_and_complex_columns(n, width, seed):
    tracks = _warning_columns(n, width, seed)
    before = _warning_columns(n, 1, seed + 1)[:, 0]
    warnings = _pairing_warnings(tracks, before)
    if n == 1:
        assert not warnings.any()
        return
    gaps = [_pairwise_loop(tracks[:, k]) for k in range(width)]
    assert epfinder._min_gaps(tracks).tolist() == gaps
    steps = np.abs(tracks - np.column_stack((before, tracks[:, :-1]))).max(axis=0)
    assert warnings.tolist() == [g < 2.0 * s for g, s in zip(gaps, steps.tolist())]


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
        with mp.workdps(30):
            want = np.array([complex(v) for v in mp.eig(mp.matrix(model.matrix(p).tolist()), left=False, right=False)])
        assert _matched_distance(res.tracks[:, k], want) <= 1e-12, p


def test_extended_epn_sweep_orders_imaginary_levels_by_im():
    # at t = -0.5 every level is imaginary with real part exactly 0, so the
    # (Re, Im) sort that starts the tracks ascends in Im
    res = sweep(EpnModel(6), (-0.5, 1.0), 41, precision=Precision.EXTENDED)
    first = res.tracks[:, 0]
    assert np.all(first.real == 0)
    assert np.all(np.diff(first.imag) > 0)


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


def test_classify_dense_integer_ep3_is_order_three():
    # J_3(2) conjugated by S = I + subdiag(1), whose inverse I - N + N^2 is
    # an integer matrix: an exact EP3 at E = 2.  Its double eigenvalues split
    # like eps^(1/3) ~ 1e-5, far beyond the cluster tolerance.
    n = np.diag([1.0, 1.0], -1)
    a = (np.eye(3) + n) @ (2 * np.eye(3) + n.T) @ (np.eye(3) - n + n @ n)
    assert not np.linalg.matrix_power(a - 2 * np.eye(3), 3).any()
    cls = classify_degeneracy(a, 2.0)
    assert (cls.kind, cls.algebraic, cls.geometric) == ("ep", 3, 1)


@pytest.mark.parametrize("m, energy", [(bc_matrix(6, 1j), 2.0), (epn_matrix(5, 0.5), 4 * math.sqrt(0.75))])
def test_classify_gives_one_verdict_for_either_matrix_form(m, energy):
    assert classify_degeneracy(m, energy) == classify_degeneracy(m.a, energy)


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
    s = bivariate_secular(6, 0)
    d = disc_E(coefficients(s))
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


def _min_gaps(model, params) -> np.ndarray:
    """Smallest distance between two double eigenvalues of ``model.matrix(p)``, per p."""
    gaps = []
    for p in params:
        v = np.linalg.eigvals(model.matrix(p))
        gaps.append(np.abs(v[:, None] - v[None, :])[np.triu_indices(len(v), 1)].min())
    return np.array(gaps)


def _refined_gap(model, lo, hi, rounds=8, points=21) -> float:
    """The smallest gap on [lo, hi], zooming tenfold per round around the grid minimum."""
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        gaps = _min_gaps(model, grid)
        k = int(np.argmin(gaps))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]
    return float(gaps[k])


def _mp_distances(model, point) -> list[float]:
    """Distances of the 40-digit eigenvalues of the 40-digit matrix at the point from its energy, ascending."""
    with mp.workdps(40):
        values = eigvals_at(model_mp(model, point.params[model.param]), POLISH_PREC)
    return sorted(abs(complex(v) - point.energy) for v in values)


def _assert_mp_order(model, point):
    """At 40 digits ``order`` eigenvalues lie within 1e-6 of the energy, the next one far outside."""
    dist = _mp_distances(model, point)
    assert dist[point.order - 1] <= 1e-6
    assert point.order == len(dist) or dist[point.order] > 1e-3


def _check_against_gap_scan(model, param_range, points, mirror, samples=201):
    """An independent double and 40-digit check of an exact 1-D locator result.

    Completeness: every deep minimum of the smallest eigenvalue gap on the
    grid (a local minimum below a quarter of the median gap) lies within
    one grid step of an exact event or its mirror, or is an avoided
    crossing whose refined gap stays open; every event in the range has
    such a minimum next to it.  Order: ``_assert_mp_order``.  Kind: M - E I
    loses rank once at an ep, ``order`` times at a diabolic point.
    """
    grid = np.linspace(param_range[0], param_range[1], samples)
    step = abs(grid[1] - grid[0])
    gaps = _min_gaps(model, grid)
    events = [p.params[model.param] for p in points]
    events += [mirror(e) for e in events]
    deep = [
        k
        for k in range(1, samples - 1)
        if gaps[k] <= min(gaps[k - 1], gaps[k + 1]) and gaps[k] <= 0.25 * np.median(gaps)
    ]
    for k in deep:
        if not any(abs(grid[k] - e) <= step for e in events):
            # a missed EP2 would close to ~1e-5 after eight tenfold zooms
            assert _refined_gap(model, grid[k - 1], grid[k + 1]) > 1e-3, grid[k]
    for e in events:
        if min(param_range) <= e <= max(param_range):
            assert any(abs(grid[k] - e) <= step for k in deep), e

    for p in points:
        _assert_mp_order(model, p)
        a = model.matrix(p.params[model.param])
        sv = np.linalg.svd(a - p.energy * np.eye(len(a)), compute_uv=False)
        defect = int(np.sum(sv <= 1e-6 * np.linalg.norm(a, 2)))
        assert defect == (1 if p.kind == "ep" else p.order)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_epn_exact_path_matches_float_chain(n):
    # the maximal EP at t = 0 and nothing else, checked by a double gap scan
    # and by 40-digit eigenvalues; the mirror of t is 2 - t (q = (1 - t)^2)
    exact = ep_locate_1d(EpnModel(n), (-0.5, 0.5))
    assert [(p.kind, p.order) for p in exact] == [("ep", n)]
    _check_against_gap_scan(EpnModel(n), (-0.5, 0.5), exact, mirror=lambda t: 2 - t)
    for p in exact:
        assert abs(p.params["t"]) <= 1e-6
        # 40 digits tighten the double cluster at least a hundredfold
        double = sorted(abs(v - p.energy) for v in np.linalg.eigvals(EpnModel(n).matrix(p.params["t"])))
        assert double[n - 1] >= 100 * _mp_distances(EpnModel(n), p)[n - 1]


@pytest.mark.parametrize(
    "n, y", [(3, -0.5), (5, -0.5), (6, 0), (6, -0.8), (7, -0.196), (8, 0.3)]
)
def test_matrix_and_sturmian_paths_agree(n, y):
    # n=6, y=-0.8 has avoided crossings at r = +-0.73 (gap 0.096) beside the
    # EP at r = 0.591; the last three cases need the secular polynomial
    # evaluated exactly at the irrational root, not rounded to double
    matrix = ep_locate_1d(BcModel(n, y), (-1, 1))
    exact = ep_locate_1d(bivariate_secular(n, y), (-1, 1))
    assert matrix == exact
    _check_against_gap_scan(BcModel(n, y), (-1, 1), exact, mirror=lambda r: -r)
    # relative to the size of W or gcd(A, B), so a root reads ~rounding
    assert all(q.residuals["merge_residual"] <= 1e-15 for q in exact)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(3, 7), y=st.fractions(-1, 1, max_denominator=16).filter(lambda y: abs(y) < 1))
def test_bc_located_points_are_multiple_eigenvalues(n, y):
    model = BcModel(n, float(y))
    for p in ep_locate_1d(model, (-1, 1)):
        assert p.kind != "simple" and p.order >= 2
        _assert_mp_order(model, p)


def _mpf(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


_unit_fractions = st.fractions(0, 1, max_denominator=64)


def _mp_value(poly: Polynomial, x):
    """An exact polynomial at an ``mpf``, at the working precision."""
    return mp.polyval([_mpf(Fraction(c)) for c in reversed(poly.coeffs)], x)


def _ep_at_40_digits(s, energy):
    """(E*, p*) at 40 digits for a located bc EP near ``energy``.

    E* is the real root of W = A'B - AB' nearest it, from mpmath's root
    finder on W's square-free part, and p* = -A(E*)/B(E*); at a crossing on
    a persistent line, where B(E*) = 0 as well, p* = -A'(E*)/B'(E*).
    """
    a, b = s.A, s.B
    w = a.derivative() * b - a * b.derivative()
    with mp.workdps(40):
        e_star = min(real_roots_mp(w.exact_div(w.gcd(w.derivative()))), key=lambda x: abs(x - energy))
        if abs(_mp_value(b, e_star)) > 1e-30:
            return e_star, -_mp_value(a, e_star) / _mp_value(b, e_star)
        return e_star, -_mp_value(a.derivative(), e_star) / _mp_value(b.derivative(), e_star)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 8),
    y=st.fractions(-1, 1, max_denominator=16).filter(lambda y: abs(y) < 1),
    window=st.tuples(_unit_fractions, _unit_fractions).map(sorted),
)
@example(n=6, y=Fraction(-4, 5), window=[Fraction(0), Fraction(1)])
@example(n=8, y=Fraction(0), window=[Fraction(0), Fraction(1)])
@example(n=7, y=Fraction(1, 2), window=[Fraction(0), Fraction(1)])
def test_chain_order_is_the_cluster_size_of_the_40_digit_spectrum(n, y, window):
    # each located (r, E, order), against the eigenvalues of the 40-digit
    # matrix at the 40-digit r*: E is E* rounded once, r is r* to rounding,
    # and exactly ``order`` eigenvalues meet at E*
    s = bivariate_secular(n, y)
    r_window = tuple(math.sqrt(w) for w in window)
    for p in ep_locate_1d(s, r_window):
        assert (p.kind, p.order >= 2) == ("ep", True)
        e_star, p_star = _ep_at_40_digits(s, p.energy.real)
        with mp.workdps(40):
            r_star = mp.sqrt(max(p_star, 0))
            assert p.energy == rounded(e_star)
            assert abs(abs(p.params["r"]) - r_star) <= 1e-15 * max(1.0, abs(p.params["r"]))
            values = eigvals_at(bc_mp(n, _mpf(y), r_star), POLISH_PREC)
            dist = sorted(abs(v - e_star) for v in values)
        assert dist[p.order - 1] <= 1e-15
        assert p.order == n or dist[p.order] > 1e-8


def _oracle_bc_locate(s, window) -> list:
    """(params, energy, order) of the 1-D bc locator by the oracle chain.

    The real roots lam of Disc_E(A + lam B) in the window of r^2, with an
    end whose square overflows bounding nothing; at each, r = +-sqrt(lam)
    (the positive one where the window holds it) and the chain's order
    j + 1 and energy E* (``DiscriminantChain.repeated_root``).
    """
    lo, hi = sorted(map(float, window))
    lam_lo = 0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi, np.finfo(float).max)
    lam_hi = max(lo * lo, hi * hi)
    chain = disc_chain(coefficients(s))
    out = []
    for lam, a, b in real_root_intervals(chain.disc, lam_lo, lam_hi if math.isfinite(lam_hi) else None):
        mu = math.sqrt(lam)
        r = next((x for x in (mu, -mu) if lo <= x <= hi), None)
        if r is not None:
            j, e_star = chain.repeated_root(chain.disc, lam, a, b)
            out.append(({"y": float(s.y), "r": r}, complex(float(e_star)), j + 1))
    return out


_windows = st.tuples(st.fractions(-3, 3, max_denominator=64), st.fractions(-3, 3, max_denominator=64))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 10), y=st.fractions(-2, 2, max_denominator=16), window=_windows)
@example(n=5, y=Fraction(0), window=(-1, 1))
@example(n=7, y=Fraction(0), window=(-3, 3))
@example(n=7, y=Fraction(1, 2), window=(-1, 1))
@example(n=7, y=Fraction(-1, 2), window=(0, 3))
@example(n=10, y=Fraction(1, 2), window=(-1, 1))
@example(n=5, y=Fraction(1e300), window=(-1, 1))
@example(n=4, y=Fraction(3e-300), window=(-1, 1))
def test_bc_locator_is_the_oracle_chain(n, y, window):
    # the branch merges of r^2 and the crossings on persistent lines
    # (n = 7 at y = +-1/2, n = 10 at y = 1/2) give the params, energy and
    # order of the discriminant's roots and their subresultant chain; at
    # y = 3e-300 the coupling of the merge near E = 2 lies a hair below 0
    # and rounds to 0.0, which exact signs keep out of the window
    s = bivariate_secular(n, y)
    got = [(p.params, p.energy, p.order) for p in ep_locate_1d(s, window)]
    assert got == _oracle_bc_locate(s, window)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), window=st.tuples(st.fractions(-1, 1, max_denominator=64), st.fractions(-1, 1, max_denominator=64)).map(sorted))
@example(n=12, window=[Fraction(-1, 2), Fraction(1, 2)])
def test_epn_locator_finds_one_epn_in_every_window_around_zero(n, window):
    points = ep_locate_1d(EpnModel(n), window)
    if not window[0] <= 0 <= window[1]:
        assert points == []
        return
    assert [(p.params, p.kind, p.order, p.energy) for p in points] == [({"t": 0.0}, "ep", n, 0)]
    # at t = 0 the matrix is similar to the integer one of epn_rank_chain,
    # whose 40-digit spectrum is one cluster of all n levels at 0
    m = mp.matrix(n)
    for k in range(n):
        m[k, k] = 2 * k - n + 1
    for k in range(n - 1):
        m[k, k + 1], m[k + 1, k] = (k + 1) * (n - k - 1), -1
    with mp.workdps(40):
        assert all(v == 0 for v in eigvals_at(m, POLISH_PREC))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 7), window=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(sorted))
def test_scan_events_are_never_simple(n, window):
    for p in ep_locate_2d_bc(n, window):
        assert p.kind in ("ep", "sturmian-pole"), p
        assert p.kind == "sturmian-pole" or p.order >= 2, p


def test_locate_hermitian_demo_finds_nothing():
    assert ep_locate_1d(HermitianDemoModel(4, 1), (-1, 1)) == []


def test_locate_refuses_a_model_without_an_exact_form():
    class Pencil:
        param = "t"

        def matrix(self, t):
            return np.array([[0.0, 1.0], [t, 0.0]])

    with pytest.raises(TypeError):
        ep_locate_1d(Pencil(), (-1, 1))


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


def test_pole_energies_are_found_once_per_n(monkeypatch):
    # B does not depend on y, so a scan finds its roots once, not at every pole event
    b = bc_secular_at(8, 0)[1]
    calls = []
    roots = epfinder.real_root_intervals
    monkeypatch.setattr(epfinder, "real_root_intervals", lambda p, *args: calls.append(p == b) or roots(p, *args))
    epfinder._scan_candidates.cache_clear()
    poles = [p for p in ep_locate_2d_bc(8, (-1, 1)) if p.kind == "sturmian-pole"]
    assert len(poles) >= 2 and sum(calls) == 1


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
    """The exact polynomial in y of the event's mechanism, made square-free: for a pole and a fold the oracle's."""
    if point.kind == "sturmian-pole":
        poly = pole_collision_poly(n)
    elif point.params["r"] == 0:
        poly = disc_in_y_at_p(n)
    else:
        poly = fold_event_poly(n)
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
            for k in ("merge_residual", "pole_residual", "fold_residual")
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
    candidates = sum(-1.0 <= y <= 0.0 for y, _ in epfinder._scan_candidates(8))
    assert len(points) == 7
    assert epfinder._reality_history.cache_info().misses <= candidates + 1


@pytest.mark.parametrize("n", range(3, 17))
def test_merge_candidates_are_those_of_the_oracle_chain(n):
    # the oracle is the discriminant at r = 0 over Z[y] with its
    # subresultant chain: at each real root y0 it reads j = deg gcd(A, A_E)
    # and the repeated root E*; the roots of N, and at n = 7 the two roots
    # of B where A(., y*) has a double root, give the same (y*, E*, j + 1)
    chain = secular_chain(n)
    want = set()
    for g in square_free_factors(chain.disc):
        for y, a, b in real_root_intervals(g):
            j, e_star = chain.repeated_root(g, y, a, b)
            want.add((float(y), float(e_star), j + 1))
    got = {(float(y), float(e), order) for y, e, order in epfinder._merge_candidates(n)}
    owned = {(float(y), float(e), m) for y, e, m in epfinder._pole_candidates(n) if m > 1}
    assert owned == ({(0.5, 1.0, 2), (-0.5, 3.0, 2)} if n == 7 else set())
    assert got | owned == want and not got & owned


@pytest.mark.parametrize("n", range(3, 17))
def test_fold_orders_and_shifts_are_those_of_the_oracle_chain(n):
    # the oracle is Disc_E W over Z[y] with its subresultant chain: at the
    # fold's root y0 it reads j_W = deg gcd(W, W_E) and the repeated root E*
    chain = fold_chain(n)
    roots = {float(y): (y, a, b) for y, a, b in real_root_intervals(chain.disc)}
    folds = [p for p in ep_locate_2d_bc(n, (-1.0, 1.0)) if p.params["r"] > 0]
    assert folds or n < 6
    for p in folds:
        j, e_star = chain.repeated_root(chain.disc, *roots[p.params["y"]])
        assert (p.order, p.energy) == (j + 2, complex(float(e_star))), p


@settings(deadline=None, max_examples=60)
@given(n=st.integers(3, 12), e=st.fractions(-1, 5, max_denominator=64))
@example(n=6, e=Fraction(1, 3))
def test_the_fold_curve_is_a_double_root_of_the_family_in_exact_fractions(n, e):
    # at E off the roots of B and W1, y = -W0/W1 and p = -A/B make E a
    # double root of A + p B: the curve E -> (y, p) holds every interior EP
    w0, w1, _, _ = epfinder._ep_curve(n)
    b = bc_secular_at(n, 0)[1]
    assume(b(e) * w1(e) != 0)
    a, b = bc_secular_at(n, -w0(e) / w1(e))
    pencil = a + b.scale(-a(e) / b(e))
    assert pencil(e) == 0 and pencil.derivative()(e) == 0


@pytest.mark.parametrize("n", range(3, 25))
def test_pole_candidates_are_the_closed_form_rounded_once(n):
    # B's roots are 2 - 2 cos(k pi / (n - 1)), k = 1..n - 2, each shared by
    # A at y = cos(k pi / (n - 1)); at n = 7 the two at y = +-1/2 are level
    # mergers at r = 0, owned by the merge candidates
    with mp.workdps(40):
        cosines = [mp.cospi(mp.mpf(k) / (n - 1)) for k in range(1, n - 1)]  # exactly 0 at k / (n - 1) = 1/2
        want = {(rounded(c), rounded(2 - 2 * c)) for c in cosines}
    owned = {(0.5, 1.0), (-0.5, 3.0)} if n == 7 else set()
    assert owned <= want
    assert {(float(y), float(e)) for y, e, m in epfinder._pole_candidates(n) if m == 1} == want - owned
    if owned:
        merges = {(p.params["y"], p.energy.real) for p in ep_locate_2d_bc(n, (-0.5, 0.5)) if p.params["r"] == 0}
        assert owned <= merges


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


def test_history_next_to_a_fold_places_the_departing_pair():
    # at the double nearest the n = 10 fold at y = -0.9911 a pair lands and,
    # 3e-25 lower in p, a pair sharing one of its levels departs; an 80-digit
    # spectrum puts that pair at positions 1 and 2 of the real levels
    y = Fraction(-8927183828110645, 9007199254740992)
    steps = [(kind, k) for _, kind, k in epfinder._reality_history(10, y).steps]
    assert steps == [("depart", 0), ("land", 0), ("depart", 1)]


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
