"""The dense matrix container, and exact tridiagonal and rational matrix algebra.

The family constructors return their matrix as a ``DenseMatrix`` (a complex
``ndarray`` checked square and finite), and ``as_array`` unwraps one or
converts any square array-like to complex.  The characteristic polynomial
of a tridiagonal matrix only involves the diagonal entries and the products
sup[k]*sub[k], which lets the exact algebra handle matrices whose
individual off-diagonal entries are irrational but whose products are
rational (``charpoly_from_parts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import Polynomial


@dataclass(frozen=True)
class DenseMatrix:
    """Square complex matrix with finite entries."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "a", arr)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def is_hermitian(self, tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.a - self.a.conj().T)) <= tol)


def as_array(m) -> np.ndarray:
    """Accepts a DenseMatrix or an array-like; returns a complex ndarray."""
    if isinstance(m, DenseMatrix):
        return m.a
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    return arr


def charpoly_from_parts(diag, products) -> Polynomial:
    """det(T - E*I) from exact (``int`` / ``Fraction``) diagonal entries and off-diagonal products.

    Three-term minor recurrence D_k = (d_k - E) D_{k-1} - products[k-1] D_{k-2};
    a floating input raises ``TypeError`` where its ``Polynomial`` is built.
    """
    diag = list(diag)
    products = list(products)
    if len(products) != len(diag) - 1:
        raise ValueError("need exactly n-1 off-diagonal products")
    prev, cur = Polynomial.zero(), Polynomial([1])  # D_-1, D_0
    for d, w in zip(diag, [0, *products]):
        prev, cur = cur, Polynomial([d, -1]) * cur - Polynomial([w]) * prev
    return cur


def exact_rank(rows: list[list]) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(nrows):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def exact_matmul(a: list[list], b: list[list]) -> list[list]:
    """Exact matrix product for rational/integer entries."""
    n = len(a)
    m = len(b[0])
    k = len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]
