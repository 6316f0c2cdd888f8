"""Metric operators for quasi-Hermitian observables.

A matrix M with real simple spectrum is self-adjoint in the inner product
weighted by Theta = Y diag(kappa) Y^H, where Y holds the left eigenvectors
normalized against the right ones (Y^H X = I) and kappa is any strictly
positive weight vector.  The kappa freedom is the well-known ambiguity of
the metric; everything here reports relative to an explicit kappa, with
(1, ..., 1) as the reproducible default.

Close to an exceptional point the eigenbasis degenerates and every such
Theta loses invertibility; construction is refused there instead of
returning a numerically singular metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .core import (
    CLUSTER_RTOL,
    EXTENDED_DPS,
    Precision,
    as_array,
    eig_dense,
    eigtriples_mp,
    from_mp_matrix,
)


class DegenerateBasisError(ValueError):
    """Spectrum is numerically clustered; no biorthogonal basis exists."""

    def __init__(self, clusters):
        self.clusters = clusters
        desc = "; ".join(
            f"{c.multiplicity} values near {c.center:.6g} (radius {c.radius:.2e})"
            for c in clusters
        )
        super().__init__(f"basis degenerate: {desc}")


class ComplexSpectrumError(ValueError):
    """A metric needs a real spectrum; reported with the offending values."""

    def __init__(self, values):
        self.values = tuple(values)
        desc = ", ".join(f"{v:.6g}" for v in values)
        super().__init__(f"spectrum is not real: {desc}")


class MetricConstructionError(ValueError):
    """No tier produced a metric within the quasi-Hermiticity bound."""


@dataclass(frozen=True)
class BiorthogonalBasis:
    """Right/left eigenvector pair with Y^H X = I."""

    values: np.ndarray
    right: np.ndarray  # columns X
    left: np.ndarray  # columns Y
    cond_right: float

    @property
    def n(self) -> int:
        return len(self.values)

    def overlap_residual(self) -> float:
        return float(
            np.linalg.norm(self.left.conj().T @ self.right - np.eye(self.n))
        )


def biorthogonal_basis(
    m,
    *,
    cluster_rtol: float = CLUSTER_RTOL,
    precision: Precision = Precision.DOUBLE,
) -> BiorthogonalBasis:
    """Left/right eigenbasis normalized to Y^H X = I.

    Raises DegenerateBasisError naming the cluster when the spectrum is not
    numerically simple; a finite but large cond(X) (> 1e6) is tolerated and
    left to the caller via ``cond_right``.
    """
    a = as_array(m)
    res = eig_dense(a, precision=precision, cluster_rtol=cluster_rtol)
    bad = [c for c in res.clusters if c.multiplicity > 1]
    if bad:
        raise DegenerateBasisError(bad)
    x = res.right.copy()
    y = res.left.copy()
    overlap = np.diag(y.conj().T @ x)
    if np.min(np.abs(overlap)) == 0:
        raise DegenerateBasisError(res.clusters)
    y = y / np.conj(overlap)[None, :]
    cond = float(np.linalg.cond(x))
    return BiorthogonalBasis(res.values, x, y, cond)


@dataclass(frozen=True)
class MetricOperator:
    """Hermitian positive-definite metric for one quasi-Hermitian matrix."""

    theta: np.ndarray
    kappa: np.ndarray
    residual: float  # ||M^H Theta - Theta M||_F at build time
    cond_basis: float

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.theta)[0])

    @property
    def cond(self) -> float:
        w = np.linalg.eigvalsh(self.theta)
        return float(w[-1] / w[0]) if w[0] > 0 else float("inf")

    def normalized(self) -> np.ndarray:
        """Theta scaled to unit Frobenius norm (the scale is unphysical)."""
        return self.theta / np.linalg.norm(self.theta, "fro")

    def quasi_hermiticity_residual(self, m) -> float:
        a = as_array(m)
        return float(np.linalg.norm(a.conj().T @ self.theta - self.theta @ a, "fro"))


def _build_theta_double(a, kappa):
    basis = biorthogonal_basis(a)
    values = basis.values
    scale = max(1.0, float(np.max(np.abs(values))))
    nonreal = [v for v in values if abs(v.imag) > 1e-10 * scale]
    if nonreal:
        raise ComplexSpectrumError(nonreal)
    y = basis.left
    theta = y @ np.diag(kappa.astype(complex)) @ y.conj().T
    return theta, basis.cond_right


def _build_theta_extended(a, kappa):
    n = a.shape[0]
    with mp.workdps(EXTENDED_DPS):
        ev, el, er = eigtriples_mp(a)
        scale = max(1.0, max(abs(v) for v in ev))
        nonreal = [complex(v) for v in ev if abs(mp.im(v)) > 1e-10 * scale]
        if nonreal:
            raise ComplexSpectrumError(nonreal)
        # normalize rows of el against columns of er, then Theta = Y K Y^H
        theta = mp.zeros(n)
        for i in range(n):
            row = el[i, :]
            col = er[:, i]
            d = sum(row[0, k] * col[k, 0] for k in range(n))
            yk = [mp.conj(row[0, k] / d) for k in range(n)]
            for p in range(n):
                for q in range(n):
                    theta[p, q] += mp.mpf(float(kappa[i])) * yk[p] * mp.conj(yk[q])
        out = from_mp_matrix(theta)
        er_np = from_mp_matrix(er)
    return out, float(np.linalg.cond(er_np))


def build_metric(
    m,
    kappa=None,
    *,
    precision: str | Precision = "auto",
) -> MetricOperator:
    """Metric Theta = Y diag(kappa) Y^H making M self-adjoint.

    Requires a real, numerically simple spectrum and strictly positive
    kappa (default all ones).  A tier's Theta is accepted only if it is
    positive definite, its smallest eigenvalue above the eigensolver's
    rounding level n * eps * ||Theta||_2, and its quasi-Hermiticity
    residual meets the 1e-10 * ||M||_F * ||Theta||_F bound.
    ``precision="auto"`` builds in double and silently re-builds under
    mpmath if either test fails, which happens when the eigenbasis is badly
    conditioned near a degeneracy; ``MetricConstructionError`` is raised
    when no tier passes.
    """
    a = as_array(m)
    n = a.shape[0]
    kappa = np.ones(n) if kappa is None else np.asarray(kappa, dtype=float)
    if kappa.shape != (n,):
        raise ValueError("kappa must have one weight per dimension")
    if np.any(kappa <= 0):
        raise ValueError("kappa must be strictly positive")

    tiers = (
        [Precision.DOUBLE, Precision.EXTENDED]
        if precision == "auto"
        else [precision if isinstance(precision, Precision) else Precision(precision)]
    )
    residual = bound = min_eig = float("nan")
    for tier in tiers:
        if tier is Precision.DOUBLE:
            theta, cond = _build_theta_double(a, kappa)
        else:
            theta, cond = _build_theta_extended(a, kappa)
        theta = (theta + theta.conj().T) / 2.0
        residual = float(np.linalg.norm(a.conj().T @ theta - theta @ a, "fro"))
        bound = 1e-10 * np.linalg.norm(a, "fro") * np.linalg.norm(theta, "fro")
        w = np.linalg.eigvalsh(theta)
        min_eig = float(w[0])
        # the sign of w[0] is only known beyond eigvalsh's rounding, n eps ||Theta||_2
        if residual <= bound and min_eig > n * np.finfo(float).eps * max(-w[0], w[-1]):
            return MetricOperator(theta, kappa, residual, cond)
    raise MetricConstructionError(
        f"no positive-definite metric within the quasi-Hermiticity bound in "
        f"{' or '.join(t.value for t in tiers)} precision: residual {residual:.3e} "
        f"(bound {bound:.3e}), smallest eigenvalue of Theta {min_eig:.3e}; the "
        "eigenbasis is too close to degenerate (near an exceptional point)"
    )


def metric_family_distinct(m, kappa1, kappa2) -> float:
    """Frobenius separation of two metrics after unit-norm scaling.

    Zero exactly when the weight vectors are proportional (the metric is
    only defined up to scale); positive separations exhibit the genuine
    kappa-ambiguity of the physical inner product.
    """
    t1 = build_metric(m, kappa1).normalized()
    t2 = build_metric(m, kappa2).normalized()
    return float(np.linalg.norm(t1 - t2, "fro"))


@dataclass(frozen=True)
class ConditioningPoint:
    param: float
    min_eig: float | None
    cond: float | None
    error: str | None = None


def metric_conditioning_sweep(model, grid, kappa=None) -> list[ConditioningPoint]:
    """min_eig and cond of the unit-norm metric along a parameter grid.

    Points where construction is refused (degenerate basis, complex
    spectrum, no positive-definite metric within the residual bound) are
    recorded as gaps carrying the error text, not aborts.
    Approaching an exceptional point the minimum eigenvalue of the
    normalized metric decays to zero: the metric ceases to be invertible in
    the limit.
    """
    out = []
    for p in grid:
        try:
            met = build_metric(model.matrix(float(p)), kappa)
            that = met.normalized()
            w = np.linalg.eigvalsh(that)
            out.append(
                ConditioningPoint(
                    float(p), float(w[0]), float(w[-1] / w[0]) if w[0] > 0 else float("inf")
                )
            )
        except (DegenerateBasisError, ComplexSpectrumError, MetricConstructionError) as exc:
            out.append(ConditioningPoint(float(p), None, None, str(exc)))
    return out


def physical_inner_product(theta, psi, phi) -> complex:
    """<<psi|phi> = (Theta psi)^H phi = psi^H Theta phi for Hermitian Theta."""
    t = theta.theta if isinstance(theta, MetricOperator) else np.asarray(theta)
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if t.shape != (len(psi), len(phi)) or len(psi) != len(phi):
        raise ValueError("dimension mismatch")
    return complex(np.vdot(psi, t @ phi))
