"""Location and classification of spectral degeneracies.

The exceptional points of the two solvable families are decided exactly,
each as a real root of a univariate polynomial in the energy E: along r
at a fixed shift, the branch merges of r^2 = -A/B and the crossings on
its persistent lines; along the shift y, the level mergers at r = 0 and
the poles and folds of the bc family's rational EP curve.  The coupling
or shift of each is the certified double of a rational function at its
root, and its order a multiplicity there.  The EPN family's one EP is
read from its closed-form spectrum.  Every event is an EP: both families
are irreducible tridiagonal, so each eigenvalue has geometric multiplicity 1.
A Hermitian family has none, and any other one-parameter model is refused.
Sweeps read the family's eigenvalues in double or extended precision
(for EPN its closed form, for the others those of the matrix), the
perturbation exponent in extended precision.  A sweep is made one stack
of grid points at a time, each sized by the bytes of its matrices and of
its continuation's cost block, so a writer can stream the stacks as they
are solved; ``sweep`` joins them.  Column k is level k for EPN and the
demo; only bc tracks are continued, in numpy, from the row before.  The
classification of one matrix takes its algebraic multiplicity from the
extended eigenvalues, whatever the type of the matrix, and reads the
double eigenvectors only for the coalescence angle.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .core import (
    CLUSTER_RTOL,
    Polynomial,
    Precision,
    as_array,
    as_fraction,
    cluster_points,
    eig_dense,
    eigvals_double,
    eigvals_mp,
    exact_matmul,
    exact_rank,
    real_root_count,
    real_root_intervals,
    real_roots_above,
    reality_flags,
    square_free_factors,
)
from .core.poly import _cleared, _rounded_ratio, _sign_at
from .models import BcModel, EpnModel, HermitianDemoModel, secular_in_y
from .sturmian import SturmianFunction, bivariate_secular, branch_merges, sturmian_r2

SWEEP_STACK_BYTES = 1 << 20  # bytes of complex n x n matrices per stack of a sweep


# --------------------------------------------------------------------------
# parameter sweeps with eigenvalue-track continuation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Eigenvalue tracks over a parameter grid.

    ``tracks[i, k]`` is track i at grid point k: level i of the ascending
    (Re, Im) order for EPN and the Hermitian demo; for bc, continued by
    minimal-total-displacement assignment from that order at the first point.
    ``warnings[k]`` flags points where the pairing is ambiguous because two
    eigenvalues lie closer than the step displacement.
    """

    grid: np.ndarray
    tracks: np.ndarray
    real_flags: np.ndarray
    warnings: np.ndarray
    model_info: dict = field(default_factory=dict)

    @property
    def n_tracks(self) -> int:
        return self.tracks.shape[0]


@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per n and read-only (it is shared)."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _assign(cost: np.ndarray) -> np.ndarray:
    """The column of each row in a minimum-cost assignment of a finite square matrix.

    Bit for bit the assignment scipy's ``linear_sum_assignment`` returns:
    a port of its shortest augmenting path solver (Crouse, IEEE TAES 52(4),
    2016, after Jonker and Volgenant), with the same scan order, tie rule
    and floating-point operations, so ties and rounding resolve alike.
    When the first minima of the rows fall in distinct columns, they are
    the answer: the solver sinks each row on its first scan, where a tie
    goes to the lowest free column.
    """
    best = cost.argmin(axis=1)
    if len(set(best.tolist())) == len(best):
        return best
    return np.array(_augmenting_paths(cost))


def _augmenting_paths(cost: np.ndarray) -> list[int]:
    """scipy's square ``augmenting_path`` LSAP solver, line by line.

    Rows are added in order.  A run of rows whose reduced row c - v has its
    first minimum on a free column is placed in one numpy step: the solver
    sinks each such row on its first scan, and the duals v stay as they are.
    """
    n = len(cost)
    c = cost.tolist()
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    cur = 0
    while cur < n:
        reduced = cost[cur:] - np.array(v)
        for k, j in enumerate(reduced.argmin(axis=1).tolist()):
            if row4col[j] != -1:
                break
            u[cur], col4row[cur], row4col[j] = float(reduced[k, j]), j, cur
            cur += 1
        if cur == n:
            break

        # the shortest augmenting path from row cur (Crouse's pseudocode)
        remaining = list(range(n - 1, -1, -1))  # reversed: a constant cost gives the identity
        shortest = [math.inf] * n
        visited_rows, visited_cols = [cur], []
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            index, lowest = -1, math.inf
            ci, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                s = shortest[j]
                r = min_val + ci[j] - ui - v[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # among equal minima prefer a free column: a new sink
                if s <= lowest and (s < lowest or row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                visited_rows.append(i)
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
        cur += 1
    return col4row


def _pairing_warnings(tracks: np.ndarray, before: np.ndarray | None) -> np.ndarray:
    """Points where two values of a column lie closer than twice the largest step into them.

    Per column k of a stack of tracks this is ``min_{i<j} |tracks[i, k] -
    tracks[j, k]| < 2 * max |tracks[:, k] - tracks[:, k - 1]|``.  Column -1
    is ``before``, the last column of the stack before; with none, column 0
    is grid point 0 and is never flagged.
    """
    n, width = tracks.shape
    warnings = np.zeros(width, dtype=bool)
    if n < 2:
        return warnings
    if before is None:
        warnings[1:] = _pairing_warnings(tracks[:, 1:], tracks[:, 0])
        return warnings
    step = np.abs(tracks - np.column_stack((before, tracks[:, :-1]))).max(axis=0)
    return _min_gaps(tracks) < 2.0 * step


def _min_gaps(tracks: np.ndarray) -> np.ndarray:
    """``min_{i<j} |tracks[i, k] - tracks[j, k]|`` for each column k, as Python's ``abs`` gives it.

    A column whose imaginary parts are all +-0 takes the least gap between
    its sorted real parts: rounding is monotone and hypot(x, +-0) = |x|, so
    no farther pair rounds to less.  The others take ``hypot`` of every pair.
    """
    gaps = np.empty(tracks.shape[1])
    real = ~tracks.imag.any(axis=0)
    gaps[real] = np.diff(np.sort(tracks.real[:, real], axis=0), axis=0).min(axis=0)
    if not real.all():
        rows, cols = _upper_pairs(len(tracks))
        other = tracks[:, ~real]
        diff = other[rows] - other[cols]
        gaps[~real] = np.hypot(diff.real, diff.imag).min(axis=0)
    return gaps


def _stack_length(n: int) -> int:
    """Grid points per stack: as many complex n x n matrices as ``SWEEP_STACK_BYTES`` holds, at least one.

    That bounds the stack's matrices, where the model builds them (16 n^2
    bytes per point), and the (k, n, n) cost block of ``_continue_tracks``,
    which bc builds (8 n^2 bytes per point, and 16 n^2 more for the
    complex differences of a complex stack while it is made).
    """
    return max(1, SWEEP_STACK_BYTES // (16 * n * n))


def _worker_count(stacks: int) -> int:
    """Threads for the stack solves of a double sweep: one per usable CPU, at most one per stack."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, stacks)


def _continue_tracks(values: np.ndarray, prev: np.ndarray | None) -> None:
    """Continue each sorted spectrum ``values[k]`` from row k - 1, in place.

    Row -1 is ``prev``, the last row of the stack before; with none, row 0
    is the first spectrum as it is.  Row k becomes s_k[pi_k], where s_k is
    the sorted row and pi_k is ``_assign`` of |s_k[j] - s_(k-1)[pi_(k-1)[i]]|,
    the cost between row k and the continued row k - 1.  That cost is
    C0_k[pi_(k-1)], with C0_k[a, j] = |s_k[j] - s_(k-1)[a]| between the sorted
    rows, so the C0 of the whole stack is one (k, n, n) block, built from
    the real parts alone when every imaginary part is +-0, since
    hypot(x, +-0) = |x|.  Where each row of C0_k has its first minimum on
    the diagonal, so has C0_k[pi_(k-1)] at pi_(k-1), and ``_assign``
    returns pi_(k-1): only the other rows are assigned one by one.
    """
    rows = values if prev is None else np.concatenate((prev[None, :], values))
    if len(rows) < 2:
        return
    if rows.imag.any():
        cost = np.abs(rows[1:, None, :] - rows[:-1, :, None])
    else:
        real = rows.real.copy()  # contiguous: the broadcast difference runs faster
        cost = real[1:, None, :] - real[:-1, :, None]
        np.abs(cost, out=cost)
    perms = [np.arange(rows.shape[1])]
    moved = (cost.argmin(axis=2) != perms[0]).any(axis=1)
    for k in np.flatnonzero(moved).tolist():
        perms.append(_assign(cost[k, perms[-1]]))
    continued = np.take_along_axis(rows[1:], np.array(perms)[np.cumsum(moved)], axis=1)
    values[len(values) - len(continued) :] = continued


def _ahead(pool, solve, stacks, workers: int):
    """``solve`` of each stack in order, at most ``workers`` stacks submitted to ``pool`` ahead of the caller."""
    futures = deque()
    for stack in stacks:
        futures.append(pool.submit(solve, stack))
        if len(futures) > workers:
            yield futures.popleft().result()
    while futures:
        yield futures.popleft().result()


class SweepStack(NamedTuple):
    """Consecutive grid points of a sweep, with the fields of ``SweepResult`` there."""

    grid: np.ndarray
    tracks: np.ndarray
    real_flags: np.ndarray
    warnings: np.ndarray


def _sweep_stacks(model, param_range: tuple[float, float], samples: int, precision: Precision = Precision.DOUBLE):
    """The sweep of the family's spectrum over a grid, one ``SweepStack`` at a time.

    The grid is cut into stacks of ``_stack_length(model.n)`` points.  In
    double precision each stack is solved as one by ``model.eigvals``: the
    closed form where the model's ``closed_form_double`` says so (EPN), the
    eigenvalues of the stack of matrices from LAPACK for the others.  With
    more than one LAPACK stack and more than one usable CPU, a thread pool
    solves the stacks while the caller reads those already solved, since
    numpy's eigensolvers release the GIL; a closed form is solved on this
    thread, and no pool is made.  The pool keeps at most one stack per
    worker submitted ahead of the caller, and it is shut down when the
    generator ends, raises or is closed.  Extended precision reads each
    point's ``model.eigvals_mp`` on this thread.  EPN and demo stacks stay
    as solved, ascending in (Re, Im): EPN's column k is level k on both
    sides of t = 0, and Hermitian levels do not cross.  Only bc levels meet
    and part, so a bc stack is continued as a whole by ``_continue_tracks``
    from the last row of the stack before; the stacks do not depend on the
    number of threads.  ``reality_flags`` flags real levels and
    ``_pairing_warnings`` ambiguous pairings of the columns as written.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    grid = np.linspace(float(param_range[0]), float(param_range[1]), samples)
    if precision is Precision.DOUBLE:
        solve = model.eigvals

    elif precision is Precision.EXTENDED:
        def solve(points):
            values = np.array([model.eigvals_mp(p) for p in points], dtype=complex)
            return np.take_along_axis(values, np.lexsort((values.imag, values.real)), axis=-1)

    else:
        raise ValueError("sweep supports double or extended precision")
    length = _stack_length(model.n)
    stacks = [grid[k : k + length] for k in range(0, samples, length)]
    lapack = precision is Precision.DOUBLE and not model.closed_form_double
    workers = _worker_count(len(stacks)) if lapack else 1
    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # on first use: import time stays flat

        pool = ThreadPoolExecutor(workers)
    try:
        solved = map(solve, stacks) if pool is None else _ahead(pool, solve, stacks, workers)
        prev = None
        for points, values in zip(stacks, solved):
            if isinstance(model, BcModel):
                _continue_tracks(values, prev)
            tracks = np.ascontiguousarray(values.T)
            yield SweepStack(points, tracks, reality_flags(tracks), _pairing_warnings(tracks, prev))
            prev = values[-1].copy()  # a copy: the stack before need not stay alive
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def sweep(
    model,
    param_range: tuple[float, float],
    samples: int,
    *,
    precision: Precision = Precision.DOUBLE,
) -> SweepResult:
    """Eigenvalue tracks of the family at each p of a grid.

    The stacks of ``_sweep_stacks``, joined: double precision solves the
    grid in stacks by ``model.eigvals``, on a thread pool when there are
    several LAPACK stacks, and extended precision reads each point's
    ``model.eigvals_mp``.  The pool is shut down before ``sweep`` returns
    or raises, and the tracks do not depend on the number of threads.
    """
    stacks = list(_sweep_stacks(model, param_range, samples, precision))
    grid, tracks, flags, warnings = (np.concatenate(part, axis=-1) for part in zip(*stacks))
    info = model.describe() if hasattr(model, "describe") else {}
    return SweepResult(grid, tracks, flags, warnings, info)


# --------------------------------------------------------------------------
# degeneracy classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Local multiplicity structure of one (matrix, energy) pair."""

    kind: str  # "simple" | "ep" | "diabolic" | "indeterminate"
    algebraic: int
    geometric: int
    energy: complex
    residuals: dict


@dataclass(frozen=True)
class CriticalPoint:
    """A located spectral singularity."""

    params: dict
    energy: complex
    kind: str  # "ep" | "sturmian-pole"
    order: int
    residuals: dict


def _geometric_multiplicity(a: np.ndarray, energy: complex, rank_rtol: float = 1e-8):
    """n - rank(A - E I) from the singular values, at ``rank_rtol * max(||A||_2, 1)``.

    Returns the multiplicity, the singular values (descending, so the last
    is sigma_min) and the threshold.  A real ``a`` is taken as complex, so
    both norms come from the one complex SVD driver.
    """
    a = as_array(a)
    n = a.shape[0]
    sv = np.linalg.svd(a - energy * np.eye(n), compute_uv=False)
    thr = rank_rtol * max(float(np.linalg.norm(a, 2)), 1.0)
    return n - int(np.sum(sv > thr)), sv, thr


def classify_degeneracy(
    m,
    energy: complex,
    *,
    cluster_rtol: float = CLUSTER_RTOL,
    rank_rtol: float = 1e-8,
    band: float = 10.0,
) -> Classification:
    """Algebraic/geometric multiplicity at one energy plus the verdict.

    Algebraic multiplicity is the size of the cluster at ``energy`` among
    the extended eigenvalues (``eigvals_mp``: the roots of the exact
    characteristic polynomial of the binary-float matrix), whatever type
    ``m`` has; an EP of order k splits like eps^(1/k) under rounding, so
    double eigenvalues cannot hold one of order 3.  The residual
    "discriminant" is prod_{i<j} |E_i - E_j|^2 over the same values, which
    is |Res(chi, chi')| for the monic chi(E) = det(E - M).  Geometric
    multiplicity is n - rank(M - E I) with the rank read off the singular
    values at threshold ``rank_rtol * ||M||``.  A singular value inside
    (threshold/band, threshold*band) makes the rank call ambiguous and the
    verdict "indeterminate" instead of a guess.
    """
    a = as_array(m)
    values = eigvals_mp(a)
    cluster = min(cluster_points(values, rtol=cluster_rtol), key=lambda c: abs(c.center - energy))
    tol = cluster_rtol * (1 + abs(energy))
    if abs(cluster.center - energy) > max(10 * tol, 2 * cluster.radius):
        raise ValueError(
            f"energy {energy} is not within cluster tolerance of the spectrum"
        )
    alg = cluster.multiplicity

    pairs = [abs(u - v) ** 2 for i, u in enumerate(values) for v in values[i + 1 :]]
    residuals = {
        "cluster_radius": cluster.radius,
        "discriminant": math.prod(pairs) if pairs else float("nan"),
    }

    if alg == 1:
        return Classification("simple", 1, 1, cluster.center, residuals)

    res = eig_dense(a)
    geo, sv, thr = _geometric_multiplicity(a, cluster.center, rank_rtol)
    norm = max(float(sv[0]), 1e-300)
    in_band = [s for s in sv if thr / band < s < thr * band]
    residuals["rank_defect"] = geo
    residuals["sigma_min"] = float(sv[-1])
    residuals["sigma_gap"] = float(sv[-1] / norm)

    # smallest angle between the eigenvectors paired with the cluster
    idx = sorted(
        range(len(res.values)), key=lambda i: abs(res.values[i] - cluster.center)
    )[:alg]
    angle = float("nan")
    if len(idx) >= 2:
        best = 0.0
        for ii in range(len(idx)):
            for jj in range(ii + 1, len(idx)):
                x = res.right[:, idx[ii]]
                y = res.right[:, idx[jj]]
                c = abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))
                best = max(best, min(1.0, c))
        angle = math.acos(best)
    residuals["coalescence_angle"] = angle

    if in_band:
        residuals["sigma_in_band"] = float(min(in_band))
        return Classification("indeterminate", alg, geo, cluster.center, residuals)
    kind = "ep" if geo == 1 else "diabolic"
    return Classification(kind, alg, geo, cluster.center, residuals)


# --------------------------------------------------------------------------
# one-parameter EP location
# --------------------------------------------------------------------------


def ep_locate_1d(target, param_range: tuple[float, float]) -> list[CriticalPoint]:
    """All exceptional points of a one-parameter family inside a range.

    The two solvable families are located exactly: the boundary-controlled
    family in r, given as a BcModel or its SturmianFunction, from
    polynomials in E (``_bc_locate``), and an EpnModel in t from its
    closed-form spectrum (``_epn_locate``).  A HermitianDemoModel has none:
    its matrix is Hermitian at every real t, hence diagonalizable, and a
    level crossing on a generic one-parameter Hermitian line has
    codimension 3 (von Neumann and Wigner, 1929).  Any other target raises
    ``TypeError``.
    """
    if isinstance(target, BcModel):
        target = bivariate_secular(target.n, target.y)
    if isinstance(target, SturmianFunction):
        return _bc_locate(target, param_range)
    if isinstance(target, EpnModel):
        return _epn_locate(target, param_range)
    if isinstance(target, HermitianDemoModel):
        return []
    raise TypeError(f"no exact exceptional-point locator for {type(target).__name__}")


def _epn_locate(model: EpnModel, param_range) -> list[CriticalPoint]:
    """The EPN family's one EP, of order n at E = 0: at t = 0 where the range holds it, else at t = 2 where it holds that.

    The spectrum (2k - n + 9) sqrt(t(2 - t)) is simple wherever
    q = (1 - t)^2 != 1, and coalesces into E = 0 at q = 1; the mirror
    t -> 2 - t maps t = 0 onto t = 2, and one representative is kept.
    """
    if model.n < 2:
        raise ValueError("n must be >= 2")
    lo, hi = sorted((float(param_range[0]), float(param_range[1])))
    t = next((t for t in (0.0, 2.0) if lo <= t <= hi), None)
    return [] if t is None else [CriticalPoint({"t": t}, 0j, "ep", model.n, _rank_residuals(model.matrix(t), 0j))]


def _bc_locate(s: SturmianFunction, param_range) -> list[CriticalPoint]:
    """Every EP of A + p B at the shift y with r in the range, p = r^2, ascending in p, from polynomials in E.

    Off the roots of B, E* is a root of multiplicity m + 1 of A + p B
    exactly when p = -A(E*)/B(E*) and E* is a root of multiplicity m of
    W = A'B - AB': the branch merges of r^2 (``merge_roots``), each an EP
    of order m + 1.  At a root e of gcd(A, B), an eigenvalue for every
    coupling, the moving level crosses the persistent one at
    p* = -A'(e)/B'(e) (B is square-free): an EP of the order that e has in
    A + p* B (``_root_multiplicity``).  Each p* is rounded once
    (``_rounded_ratio``, ``ConvergenceError`` beyond the double range) and
    kept where it lies in the window of p, decided on exact signs
    (``_sign_at``) where it rounds to an end; ``merge_residual`` is the
    relative residual, at the reported energy, of W or of gcd(A, B).  The
    mirror locations +-sqrt(p*) carry one critical point each way; one
    representative is kept, +sqrt(p*) when the range allows it.  A range
    end whose square overflows a double bounds nothing above.
    """
    model = BcModel(s.n, float(s.y))
    lo, hi = sorted((float(param_range[0]), float(param_range[1])))
    p_lo = 0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi, np.finfo(float).max)
    p_hi = max(lo * lo, hi * hi)
    a, b = (Polynomial(c) for c in s.cleared)
    da, db = a.derivative(), b.derivative()
    common = s.common_factor
    events = [(m + 1, f, root, (a, b), da * b - a * db) for m, f, *root in s.merge_roots]
    events += [
        (_root_multiplicity(((db, a), (-da, b)), common, *root[1:]), common, root, (da, db), common)
        for root in real_root_intervals(common)
    ]
    points = []
    for order, f, (e, e_lo, e_hi), (s0, s1), poly in events:
        p = _rounded_ratio(_cleared([s0, s1])[0], f, e, e_lo, e_hi)
        # the sign of p* - end; where p* rounds to the end it may lie on either side of it
        side = [
            (p > end) - (p < end) or -_sign_at(s0 + s1.scale(Fraction(end)), f, e_lo, e_hi) * _sign_at(s1, f, e_lo, e_hi)
            for end in (p_lo, p_hi)
        ]
        if side[0] < 0 or side[1] > 0:
            continue
        mu = math.sqrt(p)
        param = next((x for x in (mu, -mu) if lo <= x <= hi), None)
        if param is None:
            continue
        energy = complex(float(e))
        resid = _rank_residuals(model.matrix(param), energy)
        resid["merge_residual"] = _relative_residual(poly, energy.real)
        points.append((p, CriticalPoint({"y": model.y, "r": param}, energy, "ep", order, resid)))
    return [point for _, point in sorted(points, key=lambda pair: pair[0])]


def _root_multiplicity(terms, g: Polynomial, lo: Fraction, hi: Fraction) -> int:
    """The multiplicity at the one root e of g in (lo, hi] of sum c_i(e) F_i(E), a polynomial in E, for ``terms`` (c_i, F_i).

    Its k-th derivative at e is sum c_i(e) F_i^(k)(e), which vanishes
    exactly where g and sum c_i F_i^(k) share a root in (lo, hi].
    """
    k = 0
    while real_root_count(g.gcd(sum((c * f for c, f in terms), Polynomial.zero())), lo, hi):
        k, terms = k + 1, [(c, f.derivative()) for c, f in terms]
    return k


def _rank_residuals(matrix, energy) -> dict:
    """The rank defect and sigma_min of M - E I at a located EP, from one SVD: reported, never read."""
    geo, sv, _ = _geometric_multiplicity(matrix, energy)
    return {"rank_defect": geo, "sigma_min": float(sv[-1])}


def _relative_residual(p: Polynomial, x) -> float:
    """|p(x)| / sum |c_k| |x|^k, evaluated exactly at the exact value of x.

    At a double rounded from a simple root this reads a few units of
    rounding, however large the coefficients of p are.
    """
    x = as_fraction(x)
    scale = Polynomial([abs(c) for c in p.coeffs])(abs(x))
    return float(abs(p(x)) / scale) if scale else 0.0


# --------------------------------------------------------------------------
# two-parameter search for the boundary-controlled family
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _RealityHistory:
    """The real levels of A + p B, labelled along p = r^2 from 1 down to 0.

    ``steps`` are the couplings p_j in (0, 1) where the number of real
    levels changes, descending: (p_j, "depart" | "land", k), the pair
    sitting at positions k and k + 1 of the real levels, descending in
    energy, on the side where it is real.  ``segments[i]``
    lists the labels of the real levels, descending in energy, above step
    i (the last one below every step, down to r = 0).  A label is ``None``
    where a landing pair could be either of two complex pairs.  ``lost``
    holds every label that leaves the real axis on r in [0, 1].
    """

    steps: tuple
    segments: tuple
    lost: frozenset


def _simplest_between(lo: Fraction, hi: Fraction | None) -> Fraction:
    """The rational with the smallest denominator in the open interval (lo, hi).

    ``hi=None`` is +inf.  Continued-fraction descent (Stern-Brocot).
    """
    if hi is not None and lo < 0 < hi:
        return Fraction(0)
    if hi is not None and hi <= 0:
        return -_simplest_between(-hi, -lo)
    whole = lo.numerator // lo.denominator
    if hi is None or whole + 1 < hi:
        return Fraction(whole + 1)
    return whole + 1 / _simplest_between(1 / (hi - whole), None if lo == whole else 1 / (lo - whole))


def _inner_rational(a, b) -> Fraction:
    """The simplest rational in the middle half of (a, b), clear of the rounding of a and b."""
    a, b = Fraction(a), Fraction(b)
    quarter = (b - a) / 4
    return _simplest_between(a + quarter, b - quarter)


@lru_cache(maxsize=128)
def _reality_history(n: int, y: Fraction) -> _RealityHistory:
    """The exact label history of the boundary-controlled family at a rational y.

    A + p B has a real double root E* exactly where r^2(E) = -A/B has a
    critical point with critical value p (A and B share no root between
    events), so the number of real levels can change only at the branch
    merges of r^2 with r^2(E*) in (0, 1): the real roots of A'B - AB',
    certified by a Sturm count (``branch_merges``).  Between two of them
    the number of real levels is constant: the Sturm count of A + p B at a
    rational p inside, taken on its integer multiple ``cleared_at(p)``.
    Labels run 0..n-1 descending at the Hermitian end r = 1 and are
    continued downward: the pair merging at E* sits at the positions given
    by the number of real levels above it.  On the side of
    p_j where the pair is real, its two levels lie on the monotone branches
    of r^2 on either side of the critical point, and no other level lies
    between them, so the Sturm count above its double E* at that side's
    rational p is one more.  A
    landing pair is the one complex pair, its labels in ascending order;
    with several complex pairs it is unknown.
    """
    s = bivariate_secular(n, y)
    # the critical values are exact rationals (r^2 at the double E*), so
    # even the ~1e-18-wide interval between two critical points next to a
    # fold of the EP curve has a rational inside; equal ones are one point
    critical = ((sturmian_r2(s, m.energy).exact, m.energy) for m in branch_merges(s))
    merges = dict(sorted(critical, reverse=True))
    merges = [(p, e) for p, e in merges.items() if 0 < p < 1]
    bounds = [1.0, *(p for p, _ in merges), 0.0]
    inner = [s.cleared_at(_inner_rational(b, a)) for a, b in zip(bounds, bounds[1:])]
    counts = [real_root_count(p) for p in inner]
    steps = []
    for i, (p_j, e_star) in enumerate(merges):
        above, below = counts[i : i + 2]
        if below == above:
            continue
        if abs(below - above) != 2:
            raise ArithmeticError(f"{abs(below - above)} levels change reality at one p = {p_j}")
        k = real_root_count(inner[i] if above > below else inner[i + 1], e_star) - 1
        steps.append((p_j, "depart" if below < above else "land", k))
    return _RealityHistory(tuple(steps), *_continue_labels(n, steps))


def _continue_labels(n: int, steps) -> tuple[tuple, frozenset]:
    """Label segments and lost labels of the steps of a history, from r = 1 down."""
    real, complex_pairs, lost = list(range(n)), [], set()
    segments = [tuple(real)]
    for _, kind, k in steps:
        if kind == "depart":
            pair = tuple(real[k : k + 2])
            del real[k : k + 2]
            complex_pairs.append(pair)
            lost.update(label for label in pair if label is not None)
        elif len(complex_pairs) == 1 and None not in complex_pairs[0]:
            real[k:k] = sorted(complex_pairs.pop())
        else:
            real[k:k] = [None, None]
            complex_pairs = [(None, None)] * (len(complex_pairs) - 1)
        segments.append(tuple(real))
    return tuple(segments), frozenset(lost)


def bc_reality_signature(n: int, y) -> frozenset:
    """Which tracks lose reality somewhere on r in [0, 1], decided exactly.

    Track labels run 0..n-1 in descending eigenvalue order at the Hermitian
    endpoint r = 1 (label 0 is the topmost level).  y converts exactly; the
    real-level count of A + p B changes only at the critical values p in
    (0, 1) of r^2(E) = -A/B, and between them it is a Sturm count at a
    rational p (``_reality_history``).  The set is exact even where a
    landing pair's labels are not: a label of unknown identity has left
    the axis before.
    """
    return _reality_history(n, as_fraction(y)).lost


def _labels_at(levels: tuple, k: int | None, m: int) -> tuple | None:
    """The m labels at positions k.. of a descending level list, or None if unknown."""
    if k is None or k < 0 or k + m > len(levels) or None in levels[k : k + m]:
        return None
    return tuple(sorted(levels[k : k + m]))


def _common_steps(a: _RealityHistory, b: _RealityHistory) -> int:
    """Number of leading steps on which two histories agree in kind and position."""
    i = 0
    while i < min(len(a.steps), len(b.steps)) and a.steps[i][1:] == b.steps[i][1:]:
        i += 1
    return i


def _label_residuals(resid: dict, key: str, labels) -> None:
    """Store the labels of an event, or flag them ambiguous instead of guessing."""
    resid[key] = labels if labels is not None else (() if key == "tracks" else None)
    if labels is None:
        resid["labels_ambiguous"] = True


def _parts_in_y(n: int) -> tuple[Polynomial, Polynomial, Polynomial]:
    """P, Q and c3 with A(E, y) = P + Q y + c3 y^2, on ints: the coefficients of ``secular_in_y`` by powers of y, cleared."""
    parts, _ = _cleared([Polynomial([c.coeffs[i] if i < len(c.coeffs) else 0 for c in secular_in_y(n)]) for i in range(3)])
    return tuple(map(Polynomial, parts))


def _pole_candidates(n: int) -> tuple[tuple[Fraction, Fraction, int], ...]:
    """(y*, E*, m) for each real root E* of B = -c3 off the roots of Q, y* rounded once, m the multiplicity of E* in A(., y*).

    B does not depend on y, and at its root A = P + Q y is linear in y, so
    A and B share E* exactly at y* = -P(E*)/Q(E*), the double that
    ``_rounded_ratio`` certifies (or the exact value where it is met).  A
    root where Q vanishes has no such y.  m = 1 is a pole event.  m is
    read from Q(E*)^2 A(E, y*) = Q(E*)^2 P - P(E*) Q(E*) Q + P(E*)^2 c3
    (``_root_multiplicity``), where the E-derivative P'Q^2 - Q'PQ + c3'P^2
    shares a root with B: there p* = -A'(E*)/B'(E*) = 0, and the moving
    level meets the persistent one at r = 0, a level merger of order
    m >= 2 (n = 7, y = +-1/2).
    """
    p, q, c3 = _parts_in_y(n)
    b = -c3
    terms = ((q * q, p), (-p * q, q), (p * p, c3))
    slope = sum((c * f.derivative() for c, f in terms), Polynomial.zero())
    owned, poleless = b.gcd(slope), b.gcd(q)
    ratio, _ = _cleared([p, q])
    return tuple(
        (_rounded_ratio(ratio, b, e, lo, hi), e, _root_multiplicity(terms, b, lo, hi) if real_root_count(owned, lo, hi) else 1)
        for e, lo, hi in real_root_intervals(b)
        if not real_root_count(poleless, lo, hi)
    )


@lru_cache(maxsize=None)
def _ep_curve(n: int) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
    """(W0, W1, V, N): W = A'B - AB' = W0 + y W1, its Wronskian V = W0 W1' - W0' W1, and N = W1^2 A(E, -W0/W1).

    With A = P + Q y + c3 y^2 and B = -c3 the y^2 terms of W cancel, so
    W0 = P'B - PB' and W1 = Q'B - QB'.  Where B(E) W1(E) != 0 the shift
    y(E) = -W0/W1 is the one where E is a real double root of A + p B,
    p = -A/B: every interior EP lies on E -> (y(E), p(E)).  Since
    y' = V / W1^2 its folds are the roots of V, and since p = -A/B its
    level mergers at r = 0 are the roots of N = W1^2 P - W0 W1 Q + W0^2 c3.
    """
    p, q, c3 = _parts_in_y(n)
    b = -c3
    w0 = p.derivative() * b - p * b.derivative()
    w1 = q.derivative() * b - q * b.derivative()
    return w0, w1, w0 * w1.derivative() - w0.derivative() * w1, w1 * w1 * p - w0 * w1 * q + w0 * w0 * c3


def _curve_roots(n: int, poly: Polynomial):
    """(m, y*, E*, g, lo, hi) for each real root E* of ``poly`` off the roots of B W1, y* = -W0(E*)/W1(E*) rounded once.

    m is the multiplicity of E* in ``poly``, and g the part of its
    square-free factor (``square_free_factors``) off those roots, which
    holds E* alone in (lo, hi].
    """
    w0, w1, _, _ = _ep_curve(n)
    ratio, _ = _cleared([w0, w1])
    off = -_parts_in_y(n)[2] * w1
    for m, f in enumerate(square_free_factors(poly), 1):
        g = f.exact_div(f.gcd(off))
        for e, lo, hi in real_root_intervals(g):
            yield m, _rounded_ratio(ratio, g, e, lo, hi), e, g, lo, hi


def _fold_candidates(n: int) -> tuple[tuple[Fraction, Fraction, int], ...]:
    """(y*, E*, order) for each real root E* of V off the roots of B and W1 (``_curve_roots``).

    At a root of multiplicity m of V, y(E) - y* vanishes to order m + 1,
    so W(., y*) has a root of that multiplicity and A + p B one of
    multiplicity m + 2: an EP of order m + 2 (the Pluecker formula for a
    Wronskian).
    """
    return tuple((y, e, m + 2) for m, y, e, *_ in _curve_roots(n, _ep_curve(n)[2]))


def _merge_candidates(n: int) -> tuple[tuple[Fraction, Fraction, int], ...]:
    """(y*, E*, order) for each real root E* of N off the roots of B and W1 (``_curve_roots``): a level merger at r = 0.

    There p(E*) = 0 and E* is a double root of A(., y*): an EP of order 2,
    or of order m + 2 where E* is a root of multiplicity m of V, a fold of
    the curve on r = 0 (``_fold_candidates``).
    """
    one, v = Polynomial([1]), _ep_curve(n)[2]
    return tuple((y, e, 2 + _root_multiplicity(((one, v),), g, lo, hi)) for _, y, e, g, lo, hi in _curve_roots(n, _ep_curve(n)[3]))


@lru_cache(maxsize=None)
def _scan_candidates(n: int) -> tuple:
    """Every event candidate of the shift scan on the whole line, ascending in y, as (y*, polish).

    All are roots in E, with their y*: the level mergers at r = 0 and the
    folds of the EP curve (``_merge_candidates``, ``_fold_candidates``),
    and the roots of B (``_pole_candidates``), poles where A(., y*) has a
    simple root there and mergers where it has a multiple one.
    ``polish(y*, below, above)`` gives the event, or None.  Two candidates
    at one double y* are not merged: ``ArithmeticError``.
    """
    poles, b, nn = _pole_candidates(n), -_parts_in_y(n)[2], _ep_curve(n)[3]
    merges = [(y, e, order, nn) for y, e, order in _merge_candidates(n)] + [(y, e, m, b) for y, e, m in poles if m > 1]
    candidates = sorted(
        [
            *((float(y), partial(_polish_merge_event, n, e, order, poly)) for y, e, order, poly in merges),
            *((float(y), partial(_polish_pole_event, n, e)) for y, e, m in poles if m == 1),
            *((float(y), partial(_polish_fold_event, n, e, order)) for y, e, order in _fold_candidates(n)),
        ],
        key=lambda c: c[0],
    )
    for (y, _), (next_y, _) in zip(candidates, candidates[1:]):
        if y == next_y:
            raise ArithmeticError(f"two event candidates of the n = {n} shift scan round to one y = {y!r}")
    return tuple(candidates)


def ep_locate_2d_bc(n: int, y_range: tuple[float, float]) -> list[CriticalPoint]:
    """Critical shifts y where the reality pattern of the spectrum changes.

    The exact algebra decides.  The candidates (``_scan_candidates``) are
    the level mergers at r = 0, the poles and the folds of the EP curve
    E -> (y, p) = (-W0/W1, -A/B), all read from polynomials in E: a merger
    at each real root E* of N = W1^2 A(E, -W0/W1) and a fold at each real
    root E* of the Wronskian V of W = W0 + y W1, both at y* = -W0(E*)/W1(E*),
    and a pole at each real root E* of B, at y* = -P(E*)/Q(E*), unless
    A(., y*) has a multiple root there, which makes it a merger.  Those
    with y* in ``y_range`` (endpoints included) are polished, and a
    candidate is an event exactly when its polisher accepts it.

    A pole is always a ``sturmian-pole``, with its crossing coupling
    p* = -A'(E*)/B'(E*) in the residuals; no sampling decides it.
    The labels come from one exact label history per gap between
    consecutive candidates (on the whole line, so a window only selects
    events), taken at the simplest rational in the gap: ``tracks`` of a
    merger or fold are the levels meeting at its multiple root, a pole has
    ``appearing``/``vanishing`` (read walking y downward through it) and
    ``crossing_track``, the level that crosses its persistent line.  Where
    a landing pair cannot be told apart from another complex pair, or two
    levels reach a persistent line together (the odd-n pole at y = 0), the
    labels are left out and ``labels_ambiguous`` is set.  The labels never
    create or remove an event.
    """
    lo, hi = sorted((float(y_range[0]), float(y_range[1])))
    candidates = _scan_candidates(n)
    ys = [y for y, _ in candidates]

    def gap(i: int) -> _RealityHistory:
        """The label history between candidates i - 1 and i."""
        a = ys[i - 1] if i > 0 else ys[0] - 1 - abs(ys[0])
        b = ys[i] if i < len(ys) else ys[-1] + 1 + abs(ys[-1])
        return _reality_history(n, _inner_rational(a, b))

    points = []
    for i, (y, polish) in enumerate(candidates):
        if lo <= y <= hi and (point := polish(y, gap(i), gap(i + 1))) is not None:
            points.append(point)
    return points


def _polish_merge_event(n, e_star: Fraction, order: int, poly: Polynomial, y_star: float, below, above) -> CriticalPoint:
    """A level merger at r = 0: ``order`` levels meet at E*, a root of ``poly`` (N, or B for a merger on a pole).

    ``merge_residual`` is the relative residual of ``poly`` at the reported
    double of E*.  Its ``tracks`` are the levels at the merge energy's
    positions at r -> 0, on the side of y* where they are real: Sturm
    counts the levels of the secular polynomial at the double y* above the
    merging ones (``real_roots_above``), which that rounding may have moved
    off the real axis.
    """
    energy = complex(float(e_star))
    resid = _rank_residuals(BcModel(n, y_star).matrix(0.0), energy)
    lowest = below.segments[-1], above.segments[-1]
    levels = max(lowest, key=len)
    k = None
    if len(lowest[0]) != len(lowest[1]) or lowest[0] == lowest[1]:
        k = real_roots_above(bivariate_secular(n, y_star).A, energy.real, order, len(levels))
    _label_residuals(resid, "tracks", _labels_at(levels, k, order))
    resid["merge_residual"] = _relative_residual(poly, energy.real)
    return CriticalPoint({"y": y_star, "r": 0.0}, energy, "ep", order, resid)


def _polish_pole_event(n, energy: Fraction, y_star: float, below, above) -> CriticalPoint:
    """A reality exchange through a pole of the coupling function.

    At y* the numerator A_y* and the denominator B share the real root
    E* = ``energy`` of B (``_pole_candidates``): an eigenvalue that stays
    put for every coupling.  The residuals evaluate A, A' and B' exactly at
    E*, which is exact where its double is a root of B (E* = 2 for odd n
    at y = 0), so they and ``_crossing_track``'s zero-slope test see it
    exactly; ``pole_residual`` is B's relative residual at the reported
    double of E*.  Its ``crossing_coupling`` p* = -A'(E*)/B'(E*) is the
    coupling at which the moving branch of r^2(E) passes through the
    persistent line; ``crossing_track`` is that moving level
    (``_crossing_track``).
    """
    s = bivariate_secular(n, y_star)
    p_star = -s.A.derivative()(energy) / s.B.derivative()(energy)
    resid = {
        "appearing": tuple(sorted(below.lost - above.lost)),
        "vanishing": tuple(sorted(above.lost - below.lost)),
        "numerator_at_pole": abs(float(s.A(energy))),
        "crossing_coupling": float(p_star),
        "pole_residual": _relative_residual(s.B, float(energy)),
    }
    _label_residuals(resid, "crossing_track", _crossing_track(s, energy, p_star, below, above))
    return CriticalPoint(
        {"y": y_star, "r": float("nan")}, complex(float(energy)), "sturmian-pole", 1, resid
    )


def _crossing_track(s: SturmianFunction, energy: Fraction, p_star: Fraction, below, above):
    """The label of the level that crosses the persistent line E* at p*.

    On E* = energy the persistent level and the moving one meet at p*; the
    moving one leaves with dE/dp = -2 B'(E*) / (A''(E*) + p* B''(E*)).
    Inside the model the labels just above p* are those above the first
    step where the two neighbouring histories differ; a crossing below
    r = 0 or above r = 1 is read at that end, where the moving level is the
    neighbour of E* on the side it moved to.  Sturm counts the levels of
    A + p B above those meeting at E* there (``real_roots_above``), at the
    double of p, since the rounding of y* has split those levels already.
    """
    slope = s.A.derivative().derivative()(energy) + p_star * s.B.derivative().derivative()(energy)
    if slope == 0:  # two levels reach E* together: no single crossing level
        return None
    # on the model's side of p*, is the moving level above E*?
    rising = (-2 * s.B.derivative()(energy) / slope > 0) == (p_star <= 1)
    inside = 0 < p_star < 1
    if inside:
        i = _common_steps(below, above)
        if i == len(below.steps) == len(above.steps):
            i = sum(p > p_star for p, _, _ in below.steps)
        levels = below.segments[i]
    else:
        levels = below.segments[-1 if p_star <= 0 else 0]
        if levels != above.segments[-1 if p_star <= 0 else 0]:
            return None
    p_end = as_fraction(min(max(float(p_star), 0.0), 1.0))
    k = real_roots_above(s.cleared_at(p_end), float(energy), 2 if inside else 1, len(levels))
    if k is None:
        return None
    k += inside and rising
    labels = _labels_at(levels, k - 1 if rising else k + 1, 1)
    return None if labels is None else labels[0]


def _polish_fold_event(n, e_star: Fraction, order: int, y_star: float, below, above) -> CriticalPoint | None:
    """Two interior-r level mergers colliding: a fold of the EP curve.

    E* is a root of the Wronskian V, of the multiplicity that gives the
    EP's ``order`` (``_fold_candidates``), and ``fold_residual`` is V's
    relative residual at its reported double.  Its coupling p* is r^2 at
    the reported doubles of E* and y*; r^2 is stationary at E* to second
    order, so the last bits of E* do not move it.  Its ``tracks`` are the
    three levels that are real between the landing and the departure that
    the fold joins: on one side of y* the history has these two extra
    steps next to each other.
    """
    energy = complex(float(e_star))
    r2 = sturmian_r2(bivariate_secular(n, y_star), energy.real)
    if not r2.is_finite or not -1e-9 <= r2.exact <= 1 + 1e-9:
        return None
    r0 = math.sqrt(max(r2.value, 0.0))
    resid = _rank_residuals(BcModel(n, y_star).matrix(r0), energy)
    _label_residuals(resid, "tracks", _fold_tracks(below, above, order))
    resid["fold_residual"] = _relative_residual(_ep_curve(n)[2], energy.real)
    return CriticalPoint({"y": y_star, "r": r0}, energy, "ep", order, resid)


def _fold_tracks(below: _RealityHistory, above: _RealityHistory, order: int) -> tuple | None:
    """The levels real between a landing and the departure right after it.

    The side of the fold with two more steps has them where the two
    histories first differ; the landing and departing pairs share one
    level, so the three meeting levels are consecutive there.
    """
    wide, narrow = sorted((below, above), key=lambda h: len(h.steps), reverse=True)
    if len(wide.steps) != len(narrow.steps) + 2:
        return None
    i = _common_steps(wide, narrow)
    (_, land, k_land), (_, depart, k_depart) = wide.steps[i : i + 2]
    first = min(k_land, k_depart)
    if (land, depart) != ("land", "depart") or {k_land, k_depart} != {first, first + 1}:
        return None
    return _labels_at(wide.segments[i + 1], first, order) if order == 3 else None


# --------------------------------------------------------------------------
# maximal-order EP verification (exact)
# --------------------------------------------------------------------------


def epn_rank_chain(n: int) -> list[int]:
    """Exact ranks of M^k, k = 1..n, for the EPN family at t = 0.

    A diagonal similarity rationalizes the off-diagonals (sup -> sup*sub
    products, sub -> -1) without changing any rank, so the computation runs
    in integer arithmetic.  A maximal-order EP gives rank(M^k) = n - k.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = [[0] * n for _ in range(n)]
    for k in range(n):
        m[k][k] = 2 * k - n + 1
    for k in range(n - 1):
        m[k][k + 1] = (k + 1) * (n - k - 1)
        m[k + 1][k] = -1
    ranks = []
    power = [row[:] for row in m]
    ranks.append(exact_rank(power))
    for _ in range(n - 1):
        power = exact_matmul(power, m)
        ranks.append(exact_rank(power))
    return ranks


# --------------------------------------------------------------------------
# perturbation splitting exponent
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    """Log-log fit of cluster splitting against perturbation size."""

    slope: float
    stderr: float
    r_squared: float
    eps: tuple[float, ...]
    mean_split: tuple[float, ...]
    ok: bool


def _largest_merging_cluster(values, rtol0=CLUSTER_RTOL, rtol_max=5e-2):
    """The merging cluster of largest multiplicity over the tolerance ladder, or None.

    Near a high-order degeneracy the rounding fog splits the coalescing set
    unevenly, so tight tolerances see spurious sub-pairs while the full
    multiplicity only appears at a looser one.  Of equal multiplicities the
    one found at the tightest tolerance is kept.
    """
    levels = []
    rtol = rtol0
    while rtol < rtol_max:
        levels.append(rtol)
        rtol *= 10
    levels.append(rtol_max)
    best = None
    for rtol in levels:
        for c in cluster_points(values, rtol=rtol):
            if c.multiplicity > (best.multiplicity if best else 1):
                best = c
    return best


def perturbation_exponent(
    m,
    order: int,
    eps_list,
    seed: int,
    *,
    at: complex | None = None,
    draws: int = 16,
) -> ExponentFit:
    """Fitted exponent of the eigenvalue splitting law near a degeneracy.

    Perturbs by eps*G with G a seeded unit-Frobenius-norm complex Gaussian,
    records the largest displacement inside the tracked cluster, averages
    the logs over ``draws`` directions, and fits a log-log slope.  An EP of
    order m splits like eps^(1/m); a simple eigenvalue like eps^1.  Fits
    with R^2 < 0.99 are flagged not ok.  Each perturbed spectrum is read
    from ``eigvals_mp``.
    """
    eps = sorted(float(e) for e in eps_list)
    if len(eps) < 3 or eps[0] <= 0:
        raise ValueError("need at least 3 positive perturbation sizes")
    if eps[-1] / eps[0] < 1e4:
        raise ValueError("perturbation sizes must span at least 4 decades")

    a = as_array(m)
    n = a.shape[0]
    base = eigvals_double(a)
    if at is not None:
        center = min((c.center for c in cluster_points(base)), key=lambda v: abs(v - at))
    elif order > 1:
        cluster = _largest_merging_cluster(base)
        if cluster is None or cluster.multiplicity < order:
            raise ValueError(
                f"matrix does not show an eigenvalue cluster of size {order}"
            )
        center = cluster.center
    else:
        center = min(base, key=abs)

    rng = np.random.default_rng(seed)
    logs = np.zeros((draws, len(eps)))
    for d in range(draws):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g /= np.linalg.norm(g)
        for j, e in enumerate(eps):
            vals = eigvals_mp(a + e * g)
            members = sorted(vals, key=lambda v: abs(v - center))[:order]
            split = max(abs(v - center) for v in members)
            logs[d, j] = math.log(split)

    ys = logs.mean(axis=0)
    xs = np.log(np.array(eps))
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, res_ss, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    slope = float(coef[0])
    fitted = design @ coef
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    ss_res = float(np.sum((ys - fitted) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = max(len(eps) - 2, 1)
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    stderr = math.sqrt(ss_res / dof / sxx) if sxx > 0 else float("nan")
    return ExponentFit(
        slope, stderr, r2, tuple(eps), tuple(np.exp(ys)), r2 >= 0.99
    )
