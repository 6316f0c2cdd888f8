"""epspect: spectra, exceptional points and metric operators for two
solvable non-Hermitian matrix families.

The library builds an N-level tridiagonal family with a maximal-order
exceptional point, a boundary-controlled discrete Laplacian with complex
corner couplings, extracts the Sturmian coupling function r(E), locates and
classifies spectral degeneracies, and constructs the quasi-Hermiticity
metric operators that turn the non-Hermitian matrices into observables.
"""

from .core import (
    ConvergenceError,
    DenseMatrix,
    Polynomial,
    Precision,
    RootCluster,
    charpoly_from_parts,
    cluster_points,
    eig_dense,
)
from .models import (
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
from .sturmian import (
    BranchTrace,
    SturmianFunction,
    bivariate_secular,
    branch_trace,
    real_spectrum_at,
    sturmian_poles,
    sturmian_r2,
)
from .epfinder import (
    CriticalPoint,
    SweepResult,
    bc_reality_signature,
    classify_degeneracy,
    ep_locate_1d,
    ep_locate_2d_bc,
    epn_rank_chain,
    perturbation_exponent,
    sweep,
)
from .metric import (
    BiorthogonalBasis,
    ComplexSpectrumError,
    DegenerateBasisError,
    MetricConstructionError,
    MetricOperator,
    biorthogonal_basis,
    build_metric,
    metric_conditioning_sweep,
    metric_family_distinct,
    physical_inner_product,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DenseMatrix",
    "Polynomial",
    "Precision",
    "RootCluster",
    "charpoly_from_parts",
    "cluster_points",
    "eig_dense",
    "BcModel",
    "Circle",
    "EpnModel",
    "Explicit",
    "HermitianDemoModel",
    "Robin",
    "ShiftedCircle",
    "bc_matrix",
    "epn_matrix",
    "hermitian_demo",
    "z_value",
    "BranchTrace",
    "SturmianFunction",
    "bivariate_secular",
    "branch_trace",
    "real_spectrum_at",
    "sturmian_poles",
    "sturmian_r2",
    "CriticalPoint",
    "SweepResult",
    "bc_reality_signature",
    "classify_degeneracy",
    "ep_locate_1d",
    "ep_locate_2d_bc",
    "epn_rank_chain",
    "perturbation_exponent",
    "sweep",
    "BiorthogonalBasis",
    "ComplexSpectrumError",
    "DegenerateBasisError",
    "MetricConstructionError",
    "MetricOperator",
    "biorthogonal_basis",
    "build_metric",
    "metric_conditioning_sweep",
    "metric_family_distinct",
    "physical_inner_product",
    "__version__",
]
