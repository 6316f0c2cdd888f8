"""Acceptance criteria.

Each test implements one numbered criterion at its stated tolerance and
prints a single PASS line on success (run with `pytest -s` to see them all;
a failure surfaces through the assertion itself).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import epspect as ep
from epspect.cli import main as cli_main
from epspect.core import Polynomial, eig_dense
from epspect.epfinder import bc_reality_signature


def _report(num, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_01_secular_polynomial_exact():
    t0 = time.time()
    s = ep.bivariate_secular(6, 0)
    want_a = Polynomial([Fraction(c) for c in (12, -76, 147, -128, 56, -12, 1)])
    want_b = Polynomial([Fraction(c) for c in (-5, 20, -21, 8, -1)])
    assert s.A == want_a, "numerator coefficients differ"
    assert s.B == want_b, "parameter-slope coefficients differ"
    _report(1, time.time() - t0, 1.0, "six-level secular polynomial exact")


def test_criterion_02_coupling_function_identity_exact():
    t0 = time.time()
    s = ep.bivariate_secular(6, 0)
    square = Polynomial([Fraction(4), Fraction(-4), Fraction(1)])
    quart_num = Polynomial(
        [Fraction(3), Fraction(-16), Fraction(20), Fraction(-8), Fraction(1)]
    )
    quart_den = Polynomial(
        [Fraction(5), Fraction(-20), Fraction(21), Fraction(-8), Fraction(1)]
    )
    num = square * quart_num
    # -A/B = num/den as a rational identity <=> A*den = -num*B
    assert s.A * quart_den == -(num * s.B)
    _report(2, time.time() - t0, 1.0, "r^2(E) equals the printed rational function")


def test_criterion_03_band_center_ep2_even_dimensions():
    t0 = time.time()
    for n in (6, 8):
        pts = ep.ep_locate_1d(ep.bivariate_secular(n, 0), (-1, 1))
        assert len(pts) == 1, f"n={n}: expected exactly one critical point"
        (pt,) = pts
        assert pt.kind == "ep", f"n={n}: wrong kind {pt.kind}"
        assert pt.order == 2
        assert pt.residuals["rank_defect"] == 1  # geometric multiplicity 1
        assert abs(pt.params["r"]) <= 1e-8
        assert abs(pt.energy - 2.0) <= 1e-8
    _report(3, time.time() - t0, 10.0, "EP2 at (r, E) = (0, 2) for n = 6 and 8")


def test_criterion_04_odd_dimension_vertical_line():
    t0 = time.time()
    s = ep.bivariate_secular(5, 0)
    line = Polynomial([Fraction(-2), Fraction(1)])
    qa, ra = divmod(s.A, line)
    qb, rb = divmod(s.B, line)
    assert ra.is_zero and rb.is_zero, "(E-2) must divide both A and B exactly"
    rng = np.random.default_rng(17)
    for r in rng.uniform(-1, 1, 20):
        rs = ep.real_spectrum_at(5, 0.0, float(r))
        assert np.min(np.abs(rs.values - 2.0)) <= 1e-10
    _report(4, time.time() - t0, 5.0, "persistent eigenvalue E = 2 for odd n")


def test_criterion_05_maximal_order_rank_chain():
    t0 = time.time()
    for n in range(2, 9):
        assert ep.epn_rank_chain(n) == [n - k for k in range(1, n + 1)]
    _report(5, time.time() - t0, 10.0, "rank(M^k) = n - k exactly, n = 2..8")


def test_criterion_06_reality_partition():
    t0 = time.time()
    for t in np.linspace(0.02, 1.0, 50):
        vals = eig_dense(ep.epn_matrix(6, float(t))).values
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert np.all(np.abs(vals.imag) <= 1e-10 * scale), f"non-real at t={t}"
    for t in np.linspace(-1.0, -0.02, 50):
        vals = eig_dense(ep.epn_matrix(6, float(t))).values
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert not np.any(np.abs(vals.imag) <= 1e-10 * scale), f"real at t={t}"
    _report(6, time.time() - t0, 5.0, "spectrum real on (0,1], non-real for t<0")


def test_criterion_07_shifted_family_critical_values():
    t0 = time.time()
    pts = ep.ep_locate_2d_bc(5, (-0.4, 0.0))
    eps2 = [p for p in pts if p.kind == "ep" and p.order == 2]
    assert len(eps2) == 1
    assert eps2[0].params["y"] == pytest.approx(-0.196, abs=0.005)
    assert tuple(eps2[0].residuals["tracks"]) == (1, 2)

    pts = ep.ep_locate_2d_bc(5, (-0.75, -0.65))
    poles = [
        p
        for p in pts
        if p.kind == "sturmian-pole"
        and abs(p.params["y"] - (-0.7071)) <= 0.002
    ]
    assert len(poles) == 1, "pole event at y = -0.7071 missing or misclassified"
    assert all(
        p.kind != "ep" or abs(p.params["y"] - (-0.7071)) > 0.002 for p in pts
    )

    assert 0 in bc_reality_signature(5, -0.8), "ground-state track stays real"
    assert bc_reality_signature(5, -0.5) == frozenset({1, 2})
    _report(
        7, time.time() - t0, 60.0, "EP2 at y=-0.196(1,2); pole at y=-0.7071; E0 at y=-0.8"
    )


def test_criterion_08_metric_residual_and_degeneracy_trend():
    t0 = time.time()
    grid = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
    min_eigs = []
    for t in grid:
        m = ep.epn_matrix(6, t).a
        met = ep.build_metric(m)
        bound = 1e-10 * np.linalg.norm(m, "fro") * np.linalg.norm(met.theta, "fro")
        assert met.residual <= bound, f"residual bound missed at t={t}"
        that = met.normalized()
        w = np.linalg.eigvalsh(that)
        assert w[0] > 0
        min_eigs.append(float(w[0]))
    assert all(a > b for a, b in zip(min_eigs, min_eigs[1:])), "min_eig not decreasing"
    _report(8, time.time() - t0, 5.0, "quasi-Hermiticity residual + min_eig decay")


def test_criterion_09_perturbation_splitting_exponents():
    t0 = time.time()
    ladder = [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6]
    fit6 = ep.perturbation_exponent(ep.epn_matrix(6, 0), 6, ladder, seed=42, draws=16)
    assert fit6.ok
    assert abs(fit6.slope - 1 / 6) <= 0.02, f"slope {fit6.slope}"
    fit2 = ep.perturbation_exponent(
        ep.bc_matrix(6, 1j), 2, ladder, seed=42, at=2.0, draws=16
    )
    assert fit2.ok
    assert abs(fit2.slope - 0.5) <= 0.02, f"slope {fit2.slope}"
    _report(
        9,
        time.time() - t0,
        30.0,
        f"slopes {fit6.slope:.4f} (1/6) and {fit2.slope:.4f} (1/2)",
    )


def test_criterion_10_avoided_crossings():
    t0 = time.time()
    res = ep.sweep(ep.HermitianDemoModel(4, 1), (-1.0, 1.0), 2001)
    assert res.real_flags.all(), "Hermitian sweep must stay real"
    gaps = np.diff(np.sort(res.tracks.real, axis=0), axis=0)
    assert gaps.min() > 0, "adjacent eigenvalue gap closed"
    _report(10, time.time() - t0, 5.0, f"min adjacent gap {gaps.min():.4f} > 0")


def test_criterion_11_figure_determinism(tmp_path):
    t0 = time.time()
    for k in range(1, 7):
        d1 = tmp_path / f"run1_{k}"
        d2 = tmp_path / f"run2_{k}"
        assert cli_main(["figure", str(k), "--out-dir", str(d1)]) == 0
        assert cli_main(["figure", str(k), "--out-dir", str(d2)]) == 0
        for name in (f"figure{k}_data.csv", f"figure{k}_plot.txt"):
            b1 = (d1 / name).read_bytes()
            b2 = (d2 / name).read_bytes()
            assert b1 == b2, f"{name} differs between runs"
        sidecar = f"figure{k}_data_poles.json"
        if (d1 / sidecar).exists():
            assert (d1 / sidecar).read_bytes() == (d2 / sidecar).read_bytes()
    _report(11, time.time() - t0, 60.0, "figures 1..6 byte-identical across reruns")
