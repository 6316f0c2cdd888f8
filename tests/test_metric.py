"""Metric operators: biorthogonal bases, quasi-Hermiticity, conditioning."""

import mpmath as mp
import numpy as np
import pytest

from epspect.metric import (
    ComplexSpectrumError,
    DegenerateBasisError,
    MetricConstructionError,
    biorthogonal_basis,
    build_metric,
    metric_conditioning_sweep,
    metric_family_distinct,
    physical_inner_product,
)
from epspect.models import EpnModel, BcModel, bc_matrix, epn_matrix
from oracles import epn_mp


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


# --------------------------------------------------------------------------
# biorthogonal bases
# --------------------------------------------------------------------------


def test_biorthogonal_hermitian_left_equals_right():
    h = _random_hermitian(5, 0)
    basis = biorthogonal_basis(h)
    assert basis.overlap_residual() <= 1e-8
    # for a Hermitian matrix left and right eigenvectors coincide up to
    # normalization: X^H X diagonal, so Y ~ X columnwise
    for i in range(5):
        x = basis.right[:, i] / np.linalg.norm(basis.right[:, i])
        y = basis.left[:, i] / np.linalg.norm(basis.left[:, i])
        assert abs(abs(np.vdot(x, y)) - 1) <= 1e-8


def test_biorthogonal_epn_interior_is_well_conditioned():
    m = epn_matrix(6, 0.5).a
    basis = biorthogonal_basis(m)
    assert basis.overlap_residual() <= 1e-8
    lam = np.diag(basis.values)
    assert np.linalg.norm(m @ basis.right - basis.right @ lam) <= 1e-8 * np.linalg.norm(m)
    assert basis.cond_right < 1e3


def test_biorthogonal_near_ep_degenerates_or_flags():
    m = epn_matrix(6, 1e-6).a
    try:
        basis = biorthogonal_basis(m)
    except DegenerateBasisError:
        return
    assert basis.cond_right > 1e6


def test_biorthogonal_refuses_clustered_spectrum():
    with pytest.raises(DegenerateBasisError) as exc:
        biorthogonal_basis(bc_matrix(6, 1j))
    assert "degenerate" in str(exc.value)


# --------------------------------------------------------------------------
# metric construction
# --------------------------------------------------------------------------


def test_metric_hermitian_uniform_weights_is_identity():
    h = _random_hermitian(4, 1)
    met = build_metric(h)
    assert np.allclose(met.theta, np.eye(4), atol=1e-10)


def test_metric_diagonal_model_is_identity():
    met = build_metric(epn_matrix(6, 1.0).a)
    assert np.allclose(met.theta, np.eye(6), atol=1e-12)


def test_metric_epn_interior_satisfies_quasi_hermiticity():
    m = epn_matrix(6, 0.5).a
    met = build_metric(m)
    bound = 1e-10 * np.linalg.norm(m, "fro") * np.linalg.norm(met.theta, "fro")
    assert met.residual <= bound
    assert met.min_eig > 0
    assert met.quasi_hermiticity_residual(m) <= bound


def test_metric_rejects_complex_spectrum():
    with pytest.raises(ComplexSpectrumError):
        build_metric(epn_matrix(6, -0.3).a)


def test_metric_rejects_bad_kappa():
    m = epn_matrix(6, 0.5).a
    with pytest.raises(ValueError):
        build_metric(m, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        build_metric(m, np.zeros(6))


def test_metric_refuses_at_exceptional_point():
    with pytest.raises(
        (ComplexSpectrumError, DegenerateBasisError, MetricConstructionError)
    ):
        build_metric(epn_matrix(6, 0.0).a)
    with pytest.raises(
        (ComplexSpectrumError, DegenerateBasisError, MetricConstructionError)
    ):
        build_metric(bc_matrix(6, 1j).a)


def _epn_entries_in_double(t):
    return EpnModel(6).matrix(t)


def _epn_entries_in_extended(t):
    with mp.workdps(30):
        m = epn_mp(6, t)
    return np.array(m.tolist(), dtype=complex)


@pytest.mark.parametrize(
    "entries",
    [
        pytest.param(_epn_entries_in_double, id="auto"),
        pytest.param(_epn_entries_in_extended, id="extended"),
    ],
)
def test_metric_refuses_theta_that_is_not_positive_definite(entries):
    # at t = 1e-4 Theta meets the residual bound (relative to a huge
    # ||Theta||) with a negative smallest eigenvalue: not a metric, whether
    # the entries are built in double or in extended arithmetic and rounded
    with pytest.raises(MetricConstructionError, match="positive-definite"):
        build_metric(entries(1e-4))


def test_conditioning_sweep_never_reports_a_point_that_is_not_positive():
    points = metric_conditioning_sweep(EpnModel(6), [0.5, 0.01, 1e-3, 1e-4])
    assert [p.error is None for p in points] == [True, True, False, False]
    assert all(p.min_eig > 0 for p in points if p.error is None)
    assert all(p.min_eig is None and "positive-definite" in p.error for p in points[2:])


@pytest.mark.parametrize("n, y, r", [(4, 0.0, 1e-6), (6, 0.0, 1e-6), (7, -0.5, 1e-3)])
def test_metric_exists_where_the_double_spectrum_looks_complex(n, y, r):
    # the double eigenvalues of these real spectra carry imaginary parts far
    # above 1e-10 |E|; the extended ones, which decide reality, do not
    m = BcModel(n, y).matrix(r)
    met = build_metric(m)
    assert met.residual <= 1e-10 * np.linalg.norm(m) * np.linalg.norm(met.theta)
    assert met.min_eig > 0


def _theta_oracle(m):
    """Theta for kappa = 1 from mpmath's QR at 30 digits: right vectors of
    unit 2-norm, Y = X^-H."""
    with mp.workdps(30):
        _, x = mp.eig(mp.matrix(np.asarray(m, dtype=complex).tolist()))
        for j in range(x.cols):
            x[:, j] /= mp.norm(x[:, j])
        y = mp.inverse(x).H
        theta = y * y.H
        return np.array([[complex(theta[i, j]) for j in range(theta.cols)] for i in range(theta.rows)])


@pytest.mark.parametrize(
    "m",
    [EpnModel(6).matrix(0.5), EpnModel(8).matrix(0.2), BcModel(7, 0.0).matrix(0.5)],
    ids=["epn6-t0.5", "epn8-t0.2", "bc7-y0-r0.5"],
)
def test_metric_matches_a_30_digit_oracle_in_the_unit_norm_convention(m):
    theta = build_metric(m).theta
    want = _theta_oracle(m)
    assert np.linalg.norm(theta - want) <= 1e-12 * np.linalg.norm(want)


def test_metric_kappa_scaling_is_linear():
    m = epn_matrix(6, 0.4).a
    k = np.array([1.0, 2.0, 0.5, 1.5, 3.0, 1.0])
    t1 = build_metric(m, k).theta
    t2 = build_metric(m, 4.0 * k).theta
    assert np.allclose(t2, 4.0 * t1, atol=1e-12 * np.linalg.norm(t1))


# --------------------------------------------------------------------------
# the kappa ambiguity
# --------------------------------------------------------------------------


def test_family_distinct_scale_invariance():
    m = epn_matrix(6, 0.5).a
    assert metric_family_distinct(m, np.ones(6), 2 * np.ones(6)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_family_distinct_inequivalent_weights():
    m = epn_matrix(6, 0.5).a
    sep = metric_family_distinct(m, np.ones(6), np.arange(1.0, 7.0))
    assert sep > 1e-3


def test_family_distinct_hermitian_uniform_case():
    h = _random_hermitian(4, 5)
    assert metric_family_distinct(h, np.ones(4), 3 * np.ones(4)) == pytest.approx(
        0.0, abs=1e-12
    )


# --------------------------------------------------------------------------
# conditioning sweep toward the EP
# --------------------------------------------------------------------------


def test_conditioning_sweep_min_eig_decays_toward_ep():
    grid = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
    points = metric_conditioning_sweep(EpnModel(6), grid)
    assert all(p.error is None for p in points)
    vals = [p.min_eig for p in points]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_conditioning_sweep_records_failures_as_gaps():
    points = metric_conditioning_sweep(EpnModel(6), [0.5, 0.0])
    assert points[0].error is None
    assert points[1].error is not None
    assert points[1].min_eig is None


def test_conditioning_sweep_bc_blowup_near_merger():
    model = BcModel(5, -0.19)
    points = metric_conditioning_sweep(model, [0.8, 0.4, 0.2, 0.1])
    conds = [p.cond for p in points if p.cond is not None]
    assert conds[-1] > conds[0]


# --------------------------------------------------------------------------
# physical inner product
# --------------------------------------------------------------------------


def test_inner_product_identity_metric_is_standard():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = physical_inner_product(np.eye(4), psi, phi)
    assert got == pytest.approx(complex(np.vdot(psi, phi)), abs=1e-12)


def test_inner_product_positive_on_diagonal():
    m = epn_matrix(6, 0.5).a
    met = build_metric(m)
    rng = np.random.default_rng(4)
    for _ in range(10):
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        val = physical_inner_product(met, psi, psi)
        assert val.real > 0
        assert abs(val.imag) <= 1e-10 * val.real


def test_inner_product_orthogonality_of_eigenvectors():
    m = epn_matrix(6, 0.5).a
    met = build_metric(m)
    basis = biorthogonal_basis(m)
    for i in range(6):
        for j in range(6):
            val = physical_inner_product(met, basis.right[:, i], basis.right[:, j])
            if i != j:
                assert abs(val) <= 1e-8
            else:
                assert val.real > 0


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        physical_inner_product(np.eye(3), np.ones(3), np.ones(4))


# --------------------------------------------------------------------------
# invariants on random draws
# --------------------------------------------------------------------------


def test_metric_invariants_on_random_models():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 50:
        t = float(rng.uniform(0.15, 1.0))
        kappa = rng.uniform(0.2, 3.0, 6)
        m = epn_matrix(6, t).a
        met = build_metric(m, kappa)
        bound = 1e-10 * np.linalg.norm(m, "fro") * np.linalg.norm(met.theta, "fro")
        assert met.residual <= bound
        assert met.min_eig > 0
        checked += 1


def test_observables_are_metric_self_adjoint():
    rng = np.random.default_rng(7)
    m = epn_matrix(6, 0.3).a
    met = build_metric(m)
    scale = np.linalg.norm(m) * np.linalg.norm(met.theta)
    for _ in range(10):
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = physical_inner_product(met, psi, m @ phi)
        rhs = physical_inner_product(met, m @ psi, phi)
        assert abs(lhs - rhs) <= 1e-10 * scale * np.linalg.norm(psi) * np.linalg.norm(phi)
