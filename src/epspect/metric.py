"""Metric operators for quasi-Hermitian observables.

A matrix M with real simple spectrum is self-adjoint in the inner product
weighted by Theta = Y diag(kappa) Y^H, where Y holds the left eigenvectors
normalized against the right ones (Y^H X = I) and kappa is any strictly
positive weight vector.  The kappa freedom is the well-known ambiguity of
the metric; everything here reports relative to an explicit kappa, with
(1, ..., 1) as the reproducible default.

Theta also depends on the scale of each right eigenvector x_i: rescaling
x_i by c rescales kappa_i by 1/|c|^2.  One convention fixes it: X holds
LAPACK's right eigenvectors of unit 2-norm, and Y = X^-H.  Every metric is
built one way, from that double eigenbasis; whether the spectrum is real is
decided from the extended eigenvalues (``eigvals_mp``), where the rounding
noise of a double eigensolve cannot make a real level look complex.

Close to an exceptional point the eigenbasis degenerates and every such
Theta loses invertibility; construction is refused there instead of
returning a numerically singular metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_array, eig_dense, eigvals_mp, reality_flags


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
    """Theta is not positive definite within the quasi-Hermiticity bound."""


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


def biorthogonal_basis(m) -> BiorthogonalBasis:
    """Left/right eigenbasis normalized to Y^H X = I (Y = X^-H).

    Raises DegenerateBasisError naming the cluster when the spectrum is not
    numerically simple; a finite but large cond(X) (> 1e6) is tolerated and
    left to the caller via ``cond_right``.
    """
    res = eig_dense(m)
    bad = [c for c in res.clusters if c.multiplicity > 1]
    if bad:
        raise DegenerateBasisError(bad)
    return BiorthogonalBasis(res.values, res.right, res.left, float(np.linalg.cond(res.right)))


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


def build_metric(m, kappa=None) -> MetricOperator:
    """Metric Theta = Y diag(kappa) Y^H making M self-adjoint.

    Requires a numerically simple spectrum (else ``DegenerateBasisError``),
    a real one by ``reality_flags`` on the extended eigenvalues (else
    ``ComplexSpectrumError``, carrying the non-real ones) and strictly
    positive kappa (default all ones).  Theta is accepted only if it is
    positive definite, its smallest eigenvalue above the eigensolver's
    rounding level n * eps * ||Theta||_2, and its quasi-Hermiticity
    residual meets the 1e-10 * ||M||_F * ||Theta||_F bound; otherwise
    ``MetricConstructionError`` is raised, which happens when the
    eigenbasis is badly conditioned near a degeneracy.
    """
    a = as_array(m)
    n = a.shape[0]
    kappa = np.ones(n) if kappa is None else np.asarray(kappa, dtype=float)
    if kappa.shape != (n,):
        raise ValueError("kappa must have one weight per dimension")
    if np.any(kappa <= 0):
        raise ValueError("kappa must be strictly positive")

    basis = biorthogonal_basis(a)
    values = np.sort_complex(eigvals_mp(a))
    real = reality_flags(values)
    if not real.all():
        raise ComplexSpectrumError(values[~real])
    y = basis.left
    theta = (y * kappa) @ y.conj().T
    theta = (theta + theta.conj().T) / 2.0
    residual = float(np.linalg.norm(a.conj().T @ theta - theta @ a, "fro"))
    bound = 1e-10 * np.linalg.norm(a, "fro") * np.linalg.norm(theta, "fro")
    w = np.linalg.eigvalsh(theta)
    # the sign of w[0] is only known beyond eigvalsh's rounding, n eps ||Theta||_2
    if residual <= bound and w[0] > n * np.finfo(float).eps * max(-w[0], w[-1]):
        return MetricOperator(theta, kappa, residual, basis.cond_right)
    raise MetricConstructionError(
        f"no positive-definite metric within the quasi-Hermiticity bound: residual "
        f"{residual:.3e} (bound {bound:.3e}), smallest eigenvalue of Theta {w[0]:.3e}; "
        "the eigenbasis is too close to degenerate (near an exceptional point)"
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
