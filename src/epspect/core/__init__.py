"""Numeric substrate: scalars, polynomials, matrices, eigensolvers."""

from .scalars import (
    CLUSTER_RTOL,
    EXTENDED_BITS,
    REALITY_RTOL,
    Precision,
    RootCluster,
    as_fraction,
    cluster_points,
    reality_flags,
)
from .poly import (
    ConvergenceError,
    Polynomial,
    real_root_count,
    real_root_intervals,
    real_roots,
    real_roots_above,
    square_free_factors,
)
from .tridiag import (
    DenseMatrix,
    as_array,
    charpoly_from_parts,
    exact_matmul,
    exact_rank,
)
from .eig import (
    EigResult,
    eig_dense,
    eigvals_double,
    eigvals_mp,
    eigvalsh_double,
)

__all__ = [
    "CLUSTER_RTOL",
    "EXTENDED_BITS",
    "REALITY_RTOL",
    "Precision",
    "RootCluster",
    "as_fraction",
    "cluster_points",
    "reality_flags",
    "ConvergenceError",
    "Polynomial",
    "real_root_count",
    "real_root_intervals",
    "real_roots",
    "real_roots_above",
    "square_free_factors",
    "DenseMatrix",
    "as_array",
    "charpoly_from_parts",
    "exact_matmul",
    "exact_rank",
    "EigResult",
    "eig_dense",
    "eigvals_double",
    "eigvals_mp",
    "eigvalsh_double",
]
