"""Location and classification of spectral degeneracies.

Where a family has an exact secular polynomial, the real roots of its
discriminant decide.  Elsewhere detection runs in double precision; every
candidate is re-polished under mpmath and only accepted as an exceptional
point if its eigenvalue cluster shrinks by at least two orders of magnitude,
which separates a true degeneracy from the rounding fog around one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.optimize import linear_sum_assignment, minimize_scalar

from .core import (
    CLUSTER_RTOL,
    EXTENDED_DPS,
    REALITY_RTOL,
    Polynomial,
    Precision,
    Tridiagonal,
    as_array,
    as_fraction,
    charpoly_tridiag,
    cluster_points,
    disc_E,
    discriminant,
    eig_dense,
    eigvals_double,
    eigvals_mp,
    exact_matmul,
    exact_rank,
    poly_roots,
    real_root_count,
    reality_flags,
    res_E,
    to_mp_matrix,
)
from .core.poly import POLISH_DPS, _newton_polish_real
from .models import BcModel, EpnModel, epn_secular
from .sturmian import (
    SturmianFunction,
    _real_roots,
    bc_secular_parts,
    bivariate_secular,
    branch_merges,
    secular_in_y,
    sturmian_r2,
)

POLISH_SHRINK = 100.0  # accepted EPs must tighten at least this much
PERTURB_DPS = 30


# --------------------------------------------------------------------------
# parameter sweeps with eigenvalue-track continuation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Eigenvalue tracks over a parameter grid.

    ``tracks[i, k]`` is track i at grid point k; tracks are continued by
    minimal-total-displacement assignment between consecutive points, with
    the ordering fixed by an ascending (Re, Im) sort at the first point.
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


def _min_pairwise(values) -> float:
    """Smallest distance between two of the values (at least two)."""
    diff = np.subtract.outer(values, values)[_upper_pairs(len(values))]
    # hypot, not np.abs: the vectorized complex abs can differ from the
    # scalar one in the last bit, which moves EP polishing minima
    return float(np.min(np.hypot(diff.real, diff.imag)))


def sweep(
    model,
    param_range: tuple[float, float],
    samples: int,
    *,
    reality_rtol: float = REALITY_RTOL,
    precision: Precision = Precision.DOUBLE,
) -> SweepResult:
    """Continued eigenvalue tracks of ``model.matrix(p)`` over a grid.

    Extended precision reads the eigenvalue-only ``eigvals_mp`` at
    ``EXTENDED_DPS``, from ``model.matrix_mp`` where the model has one.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    grid = np.linspace(float(param_range[0]), float(param_range[1]), samples)
    if precision is Precision.DOUBLE:
        spectra = [eigvals_double(model.matrix(p)) for p in grid]
    elif precision is Precision.EXTENDED:
        with mp.workdps(EXTENDED_DPS):
            values = [np.array(_mp_eigvals(model, p, None), dtype=complex) for p in grid]
        spectra = [v[np.lexsort((v.imag, v.real))] for v in values]
    else:
        raise ValueError("sweep supports double or extended precision")

    n = len(spectra[0])
    tracks = np.zeros((n, samples), dtype=complex)
    warnings = np.zeros(samples, dtype=bool)
    order = np.lexsort((spectra[0].imag, spectra[0].real))
    tracks[:, 0] = spectra[0][order]
    for k in range(1, samples):
        prev = tracks[:, k - 1]
        cur = spectra[k]
        cost = np.abs(cur[None, :] - prev[:, None])
        rows, cols = linear_sum_assignment(cost)
        assigned = cur[cols[np.argsort(rows)]]
        tracks[:, k] = assigned
        step = np.abs(assigned - prev)
        if n > 1 and _min_pairwise(assigned) < 2.0 * float(np.max(step)):
            warnings[k] = True

    flags = reality_flags(tracks, rtol=reality_rtol)
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
    kind: str  # "ep" | "diabolic" | "sturmian-pole" | "indeterminate"
    order: int
    residuals: dict


def _geometric_multiplicity(a: np.ndarray, energy: complex, rank_rtol: float = 1e-8):
    """n - rank(A - E I) from the singular values, at ``rank_rtol * max(||A||_2, 1)``.

    Returns the multiplicity, the singular values (descending, so the last
    is sigma_min) and the threshold.
    """
    n = a.shape[0]
    sv = np.linalg.svd(a - energy * np.eye(n), compute_uv=False)
    thr = rank_rtol * max(float(np.linalg.norm(a, 2)), 1.0)
    return n - int(np.sum(sv > thr)), sv, thr


def classify_degeneracy(
    m,
    energy: complex,
    *,
    precision: Precision = Precision.DOUBLE,
    cluster_rtol: float = CLUSTER_RTOL,
    rank_rtol: float = 1e-8,
    band: float = 10.0,
) -> Classification:
    """Algebraic/geometric multiplicity at one energy plus the verdict.

    Algebraic multiplicity is the size of the eigenvalue cluster at
    ``energy``; geometric multiplicity is n - rank(M - E I) with the rank
    read off the singular values at threshold ``rank_rtol * ||M||``.  A
    singular value inside (threshold/band, threshold*band) makes the rank
    call ambiguous and the verdict "indeterminate" instead of a guess.
    """
    a = as_array(m)
    res = eig_dense(a, precision=precision, cluster_rtol=cluster_rtol)
    # algebraic multiplicity from root clustering of the characteristic
    # polynomial; for tridiagonal input the minor recurrence is far more
    # backward-stable than the eigensolver near a high-order degeneracy
    if isinstance(m, Tridiagonal):
        char = charpoly_tridiag(m)
        if char.mode is not Precision.DOUBLE:
            char = char.to_double()
        # the recurrence often yields exact coefficients; re-polishing the
        # roots under mpmath then resolves a true multiple root far below
        # the clustering tolerance, which double evaluation noise cannot
        clusters = poly_roots(
            char, precision=Precision.EXTENDED, cluster_rtol=cluster_rtol
        ).clusters
    else:
        char = Polynomial([complex(c) for c in np.poly(a)[::-1]])
        clusters = res.clusters
    cluster = min(clusters, key=lambda c: abs(c.center - energy))
    tol = cluster_rtol * (1 + abs(energy))
    if abs(cluster.center - energy) > max(10 * tol, 2 * cluster.radius):
        raise ValueError(
            f"energy {energy} is not within cluster tolerance of the spectrum"
        )
    alg = cluster.multiplicity

    disc = discriminant(char) if char.degree >= 2 else None
    residuals = {
        "cluster_radius": cluster.radius,
        "discriminant": abs(disc) if disc is not None else float("nan"),
    }

    if alg == 1:
        return Classification("simple", 1, 1, cluster.center, residuals)

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


def _merging_candidates(values, rtol0=CLUSTER_RTOL, rtol_max=5e-2):
    """Candidate merging clusters over the tolerance ladder.

    One candidate per distinct multiplicity, largest first: near a
    high-order degeneracy the rounding fog splits the coalescing set
    unevenly, so tight tolerances see spurious sub-pairs while the full
    multiplicity only appears at a looser one.  The polish shrink test
    downstream rejects the over-merged candidates.
    """
    levels = []
    rtol = rtol0
    while rtol < rtol_max:
        levels.append(rtol)
        rtol *= 10
    levels.append(rtol_max)
    seen = {}
    for rtol in levels:
        for c in cluster_points(values, rtol=rtol):
            if c.multiplicity > 1 and c.multiplicity not in seen:
                seen[c.multiplicity] = c
    return [seen[m] for m in sorted(seen, reverse=True)]


def _golden_min_mp(f, lo, hi, iters=80):
    phi = (mp.sqrt(5) - 1) / 2
    a, b = mp.mpf(lo), mp.mpf(hi)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (a + b) / 2


def _mp_eigvals(model, p, seeds):
    if hasattr(model, "matrix_mp"):
        m = model.matrix_mp(p)
    else:
        m = to_mp_matrix(model.matrix(float(p)))
    return eigvals_mp(m, seeds)


def ep_locate_1d(target, param_range: tuple[float, float], *, samples: int = 201):
    """All exceptional points of a one-parameter family inside a range.

    The two solvable families are located exactly (``_ep_locate_exact``): a
    SturmianFunction in r, where lam = r^2, and an EpnModel in t, where
    lam = (1 - t)^2.  Any other swept model with a ``matrix(p)`` method is
    handled by gap minimization plus extended-precision polishing.
    """
    if isinstance(target, SturmianFunction):
        model = BcModel(target.n, float(target.y))
        coeffs, shift = target.secular.coefficients, lambda lam: 0.0
        return _ep_locate_exact(model, coeffs, lambda mu: mu, shift, param_range)
    if isinstance(target, EpnModel):
        coeffs, shift = epn_secular(target.n), lambda lam: 8 * cmath.sqrt(1 - lam)
        return _ep_locate_exact(target, coeffs, lambda mu: 1 - mu, shift, param_range)
    return _ep_locate_model(target, param_range, samples)


def _ep_locate_exact(model, coeffs, to_param, shift, param_range) -> list[CriticalPoint]:
    """Every real root lam of the square-free discriminant in the window.

    ``coeffs`` are the E-coefficients of the secular polynomial, exact
    polynomials in lam = mu^2; it is the characteristic polynomial of
    ``model.matrix`` in E - shift(lam).  ``to_param`` maps mu to the swept
    parameter and back.  The mirror locations +-mu carry one critical point
    each way; one representative is kept, mu = +sqrt(lam) when the range
    allows it.
    """
    lo, hi = sorted((float(param_range[0]), float(param_range[1])))
    mu_lo, mu_hi = sorted((to_param(lo), to_param(hi)))
    lam_lo = 0.0 if mu_lo <= 0.0 <= mu_hi else min(mu_lo * mu_lo, mu_hi * mu_hi)
    lam_hi = max(mu_lo * mu_lo, mu_hi * mu_hi)
    d = disc_E(list(coeffs))
    if d.is_zero:
        raise ValueError("discriminant vanishes identically; family is degenerate")

    points = []
    for lam in _roots_in_window(d.exact_div(d.gcd(d.derivative())), lam_lo, lam_hi):
        mu = math.sqrt(lam)
        param = next((p for p in (to_param(mu), to_param(-mu)) if lo <= p <= hi), None)
        if param is None:
            continue
        params = {"y": model.y, "r": param} if isinstance(model, BcModel) else {"t": param}
        matrix = model.matrix(param)
        for energy, order, kind, resid in _repeated_roots(coeffs, lam, matrix, shift(lam)):
            resid["disc_residual"] = _relative_residual(d, lam)
            points.append(CriticalPoint(params, energy, kind, order, resid))
    return points


def _repeated_roots(coeffs, root, matrix, shift=0.0) -> list[tuple]:
    """(energy, order, kind, residuals) of each repeated root at one exact event.

    ``root`` is a real root of the discriminant of the secular polynomial
    with E-coefficients ``coeffs``, the characteristic polynomial of
    ``matrix`` in E - ``shift``.  The algebraic multiplicity is the size of
    an extended-precision root cluster of that polynomial evaluated exactly
    at ``as_fraction(root)`` (a float root splits a double root by
    ~sqrt(rounding), below tolerance); the geometric one comes from the
    singular values of M - E I.  A centre within the cluster radius of the
    real axis is Newton-polished on the (m-1)-th derivative, where the m-fold
    root is simple, so an exactly rational root comes out exact.
    """
    poly = Polynomial([k(as_fraction(root)) for k in coeffs])
    found = []
    for c in poly_roots(poly, precision=Precision.EXTENDED).clusters:
        if c.multiplicity < 2:
            continue
        center = c.center
        if abs(center.imag) <= c.radius:
            simple = poly
            for _ in range(c.multiplicity - 1):
                simple = simple.derivative()
            center = complex(float(_newton_polish_real(simple, center.real)))
        energy = center + shift
        geo, sv, _ = _geometric_multiplicity(matrix, energy)
        resid = {"cluster_radius": c.radius, "rank_defect": geo, "sigma_min": float(sv[-1])}
        found.append((energy, c.multiplicity, "ep" if geo == 1 else "diabolic", resid))
    return found


def _relative_residual(p: Polynomial, x) -> float:
    """|p(x)| / sum |c_k| |x|^k, evaluated exactly at the exact value of x.

    At a double rounded from a simple root this reads a few units of
    rounding, however large the coefficients of p are.
    """
    x = as_fraction(x)
    scale = Polynomial([abs(c) for c in p.coeffs])(abs(x))
    return float(abs(p(x)) / scale) if scale else 0.0


def _ep_locate_model(model, param_range, samples) -> list[CriticalPoint]:
    lo, hi = float(param_range[0]), float(param_range[1])
    grid = np.linspace(lo, hi, samples)
    spectra = [eigvals_double(model.matrix(p)) for p in grid]
    gaps = np.array([_min_pairwise(v) for v in spectra])
    scale = max(1.0, max(float(np.max(np.abs(v))) for v in spectra))

    points = []
    for k in range(1, samples - 1):
        if not (gaps[k] <= gaps[k - 1] and gaps[k] <= gaps[k + 1]):
            continue
        if gaps[k] > 0.25 * float(np.median(gaps)):
            continue
        bracket = (grid[k - 1], grid[k + 1])
        point = _polish_candidate(model, bracket, scale)
        if point is not None:
            points.append(point)
    return points


def _polish_candidate(model, bracket, scale) -> CriticalPoint | None:
    def gap_double(p):
        return _min_pairwise(eigvals_double(model.matrix(p)))

    res = minimize_scalar(
        gap_double, bounds=bracket, method="bounded", options={"xatol": 1e-13}
    )
    p_dbl = float(res.x)
    vals = eigvals_double(model.matrix(p_dbl))
    fallback = None
    for cluster in _merging_candidates(vals):
        radius_dbl = max(cluster.radius, 1e-300)
        with mp.workdps(POLISH_DPS):
            anchor = mp.mpc(cluster.center)
            # each evaluation starts Aberth from the previous one's roots
            seeds = None

            def diameter_mp(p):
                nonlocal seeds
                ev = seeds = _mp_eigvals(model, p, seeds)
                members = sorted(ev, key=lambda v: abs(v - anchor))[
                    : cluster.multiplicity
                ]
                c2 = sum(members) / len(members)
                return max(abs(v - c2) for v in members)

            width = max(abs(bracket[1] - bracket[0]) * 0.05, 1e-6)
            p_mp = _golden_min_mp(diameter_mp, p_dbl - width, p_dbl + width)
            ev_star = _mp_eigvals(model, p_mp, seeds)
            members = sorted(ev_star, key=lambda v: abs(v - anchor))[
                : cluster.multiplicity
            ]
            center = complex(sum(members) / len(members))
            radius_mp = float(max(abs(v - center) for v in members))
            p_star = float(p_mp)

        shrink = radius_dbl / max(radius_mp, 1e-300)
        resid = {
            "cluster_radius_double": radius_dbl,
            "cluster_radius_polished": radius_mp,
            "polish_shrink": shrink,
            "bracket": (float(bracket[0]), float(bracket[1])),
        }
        if shrink < POLISH_SHRINK or radius_mp > 1e-4 * scale:
            if fallback is None and radius_dbl <= 1e-3 * scale:
                fallback = CriticalPoint(
                    {model.param: p_dbl}, cluster.center, "indeterminate", 0, resid
                )
            continue

        # the polished cluster fixes the algebraic multiplicity; the
        # geometric one comes from the singular values of M - E I, which
        # stay well conditioned at the degeneracy itself
        geo, sv, _ = _geometric_multiplicity(model.matrix(p_star), center)
        resid["sigma_min"] = float(sv[-1])
        resid["rank_defect"] = geo
        kind = "ep" if geo == 1 else "diabolic"
        return CriticalPoint(
            {model.param: p_star}, center, kind, cluster.multiplicity, resid
        )
    return fallback


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


def _levels_above(roots, energy: complex, cluster: int, real: int) -> int:
    """Real levels above ``energy`` in one double spectrum with ``real`` real levels.

    The exact count ``real`` says how many levels are real; the doubles
    only say which and on which side of ``energy`` they lie.  The
    ``cluster`` roots nearest ``energy`` are the ones meeting there: they
    are real and not "above".  The other real ones are the ``real -
    cluster`` roots nearest the real axis.
    """
    roots = sorted(roots, key=lambda z: abs(z - energy))
    others = sorted(roots[cluster:], key=lambda z: abs(z.imag))[: real - cluster]
    return sum(z.real > energy.real for z in others)


@lru_cache(maxsize=128)
def _reality_history(n: int, y: Fraction) -> _RealityHistory:
    """The exact label history of the boundary-controlled family at a rational y.

    A + p B has a real double root E* exactly where r^2(E) = -A/B has a
    critical point with critical value p (A and B share no root between
    events), so the number of real levels can change only at the branch
    merges of r^2 with r^2(E*) in (0, 1): the real roots of A'B - AB',
    certified by a Sturm count (``branch_merges``).  Between two of them
    the number of real levels is constant: the Sturm count of A + p B at a
    rational p inside.  Labels run 0..n-1 descending at the Hermitian end
    r = 1 and are continued downward: the pair merging at E* sits at the
    positions given by the number of real levels above E*, read off the
    roots at p_j (``_levels_above``).  A landing pair is the one complex
    pair, its labels in ascending order; with several complex pairs it is
    unknown.
    """
    s = bivariate_secular(n, y)
    # the critical values are exact rationals (r^2 at the double E*), so
    # even the ~1e-18-wide interval between two critical points next to a
    # fold of the EP curve has a rational inside; equal ones are one point
    critical = ((sturmian_r2(s, m.energy).exact, m.energy) for m in branch_merges(s))
    merges = dict(sorted(critical, reverse=True))
    merges = [(p, e) for p, e in merges.items() if 0 < p < 1]
    bounds = [1.0, *(p for p, _ in merges), 0.0]
    counts = [real_root_count(s.poly_at(_inner_rational(b, a))) for a, b in zip(bounds, bounds[1:])]
    steps = []
    for (p_j, e_star), above, below in zip(merges, counts, counts[1:]):
        if below == above:
            continue
        if abs(below - above) != 2:
            raise ArithmeticError(f"{abs(below - above)} levels change reality at one p = {p_j}")
        roots = poly_roots(s.poly_at(p_j)).roots
        _, pair, third = sorted(abs(z - e_star) for z in roots)[:3]
        if third <= 100 * pair:
            # a third level as close as the pair's own rounding split (near a
            # fold): the double roots cannot tell its side, 30 digits can
            roots = poly_roots(s.poly_at(p_j), precision=Precision.EXTENDED).roots
        k = _levels_above(roots, complex(e_star), 2, max(above, below))
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


@lru_cache(maxsize=None)
def _disc_in_y_at_p(n: int, p) -> Polynomial:
    """Discriminant in E of the secular polynomial, as an exact polynomial in y."""
    return disc_E(list(secular_in_y(n, p)))


@lru_cache(maxsize=None)
def _pole_collision_poly(n: int) -> Polynomial:
    """Res_E(A_y, B) as an exact polynomial in y.

    Zeros are the shifts where the numerator of r^2(E) shares a root with
    its denominator: the coupling function develops a persistent eigenvalue
    at a pole instead of a level merger.
    """
    b = -bc_secular_parts(n)[3]
    return res_E(list(secular_in_y(n)), [Polynomial([Fraction(c)]) for c in b.coeffs])


@lru_cache(maxsize=None)
def _fold_coeffs_in_E(n: int) -> tuple[Polynomial, ...]:
    """E-coefficients of W = A_y' B - A_y B' (polynomials in y).

    Real double roots of W(., y) with coupling p = -A/B inside (0, 1] are
    folds of the exceptional-point curve: two level mergers collide at an
    interior r and the non-real interval between them closes.
    """
    ce = secular_in_y(n)
    de = [k * ce[k] for k in range(1, len(ce))]
    b = [Fraction(c) for c in (-bc_secular_parts(n)[3]).coeffs]
    db = [k * b[k] for k in range(1, len(b))]

    def mul_scalar(coeffs_poly, coeffs_scalar):
        out = [Polynomial.zero()] * (len(coeffs_poly) + len(coeffs_scalar) - 1)
        for i, cp in enumerate(coeffs_poly):
            if cp.is_zero:
                continue
            for j, cs in enumerate(coeffs_scalar):
                if cs == 0:
                    continue
                out[i + j] = out[i + j] + cp.scale(cs)
        return out

    term1 = mul_scalar(de, b)
    term2 = mul_scalar(ce, db)
    size = max(len(term1), len(term2))
    term1 += [Polynomial.zero()] * (size - len(term1))
    term2 += [Polynomial.zero()] * (size - len(term2))
    w = [t1 - t2 for t1, t2 in zip(term1, term2)]
    while len(w) > 1 and w[-1].is_zero:
        w.pop()
    return tuple(w)


@lru_cache(maxsize=None)
def _fold_event_poly(n: int) -> Polynomial:
    """Disc_E of W(E, y) as an exact polynomial in y (EP-curve folds)."""
    return disc_E(list(_fold_coeffs_in_E(n)))


def ep_locate_2d_bc(n: int, y_range: tuple[float, float]) -> list[CriticalPoint]:
    """Critical shifts y where the reality pattern of the spectrum changes.

    The exact algebra decides.  The candidates are the real roots in
    ``y_range`` (endpoints included) of the three event polynomials in y:
    level mergers at r = 0 (the discriminant of the secular polynomial at
    p = 0), poles (Res_E(A_y, B)) and folds of the EP curve (Disc_E W).  A
    root is an event exactly when its mechanism's polisher accepts it; a
    root shared by several polynomials is tried on merge, pole and fold in
    that order and yields at most one event.

    A pole-owned root is always a ``sturmian-pole``, with its crossing
    coupling p* = -A'(E*)/B'(E*) in the residuals; no sampling decides it.
    The labels come from one exact label history per gap between
    consecutive real roots of the event polynomials (on the whole line, so
    a window only selects events), taken at the simplest rational in the
    gap: ``tracks`` of a merger or fold are the levels meeting at its
    multiple root, a pole has ``appearing``/``vanishing`` (read walking y
    downward through it) and ``crossing_track``, the level that crosses
    its persistent line.  Where a landing pair cannot be told apart from
    another complex pair, or two levels reach a persistent line together
    (the odd-n pole at y = 0), the labels are left out and
    ``labels_ambiguous`` is set.  The labels never create or remove an
    event.
    """
    lo, hi = sorted((float(y_range[0]), float(y_range[1])))
    roots = sorted(
        ((y, polishers) for piece, polishers in _event_pieces(n) for y in _exact_real_roots(piece, lo, hi)),
        key=lambda c: c[0],
    )
    ys = [float(y) for y, _ in roots]

    def gap(i: int) -> _RealityHistory:
        """The label history between roots i - 1 and i."""
        a = ys[i - 1] if i > 0 else ys[0] - 1 - abs(ys[0])
        b = ys[i] if i < len(ys) else ys[-1] + 1 + abs(ys[-1])
        return _reality_history(n, _inner_rational(a, b))

    points = []
    for i, (y_star, polishers) in enumerate(roots):
        if not lo <= y_star <= hi:
            continue
        below, above = gap(i), gap(i + 1)
        for polish in polishers:
            point = polish(n, ys[i], below, above)
            if point is not None:
                points.append(point)
                break
    return points


def _event_pieces(n: int) -> list[tuple[Polynomial, tuple]]:
    """The event polynomials split into coprime square-free exact factors.

    Each factor carries the polishers of every event polynomial it divides,
    in the order merge, pole, fold, so each real root appears in exactly
    one factor together with all of its mechanisms (the fold polynomial,
    for one, vanishes at every pole root).  The split is by gcds over Q;
    no two floating-point roots are ever compared.
    """
    pieces = []
    for polish, poly in (
        (_polish_merge_event, _disc_in_y_at_p(n, 0)),
        (_polish_pole_event, _pole_collision_poly(n)),
        (_polish_fold_event, _fold_event_poly(n)),
    ):
        if poly.degree < 1:
            continue
        rest = poly.exact_div(poly.gcd(poly.derivative()))
        split = []
        for piece, owners in pieces:
            common = piece.gcd(rest)
            if common.degree >= 1:
                split.append((common, owners + (polish,)))
                piece, rest = piece.exact_div(common), rest.exact_div(common)
            if piece.degree >= 1:
                split.append((piece, owners))
        if rest.degree >= 1:
            split.append((rest, (polish,)))
        pieces = split
    return pieces


def _exact_real_roots(piece: Polynomial, lo: float, hi: float) -> list[Fraction | float]:
    """Every real root of a square-free exact polynomial.

    Each is Newton-polished on the polynomial itself, where every root is
    simple.  A root on an endpoint of [lo, hi] is found by exact
    evaluation, returned as that exact ``Fraction`` and deflated, so the
    polish cannot move it out of the window.
    """
    roots = []
    for end in sorted({lo, hi}):
        e = as_fraction(end)
        if piece(e) == 0:
            roots.append(e)
            piece = piece.exact_div(Polynomial([-e, 1]))
    return roots + [float(_newton_polish_real(piece, y0)) for y0, _ in _real_roots(piece)]


def _roots_in_window(piece: Polynomial, lo: float, hi: float) -> list[Fraction | float]:
    """The real roots in [lo, hi] of a square-free exact polynomial (``_exact_real_roots``)."""
    return [y for y in _exact_real_roots(piece, lo, hi) if lo <= y <= hi]


def _polish_merge_event(n, y_star, below, above) -> CriticalPoint | None:
    """A level merger at r = 0 on a root y* of the exact discriminant.

    The secular polynomial at r = 0, as a polynomial in y, is classified at
    y* by ``_repeated_roots``, like every root of the exact 1-D locator.
    Its ``tracks`` are the levels at the merge energy's positions at
    r -> 0, on the side of y* where they are real.
    """
    found = _repeated_roots(secular_in_y(n), y_star, BcModel(n, y_star).matrix(0.0))
    if not found:
        return None
    energy, order, kind, resid = found[0]
    lowest = below.segments[-1], above.segments[-1]
    levels = max(lowest, key=len)
    poly = Polynomial([c(as_fraction(y_star)) for c in secular_in_y(n)])
    k = _levels_above(poly_roots(poly.to_double()).roots, energy, order, len(levels))
    if len(lowest[0]) == len(lowest[1]) and lowest[0] != lowest[1]:
        k = None
    _label_residuals(resid, "tracks", _labels_at(levels, k, order))
    resid["disc_residual"] = _relative_residual(_disc_in_y_at_p(n, 0), y_star)
    return CriticalPoint({"y": y_star, "r": 0.0}, energy, kind, order, resid)


def _polish_pole_event(n, y_star, below, above) -> CriticalPoint:
    """A reality exchange through a pole of the coupling function.

    At a root y* of Res_E(A_y, B) the numerator A_y* and the denominator B
    share a real root E*: an eigenvalue that stays put for every coupling.
    B is the characteristic polynomial of the interior Hermitian chain, so
    its roots are real and simple, and E* is the one where A_y* vanishes,
    Newton-polished on B at ``POLISH_DPS``; the residuals evaluate A, A'
    and B' exactly at that E*.  A rational E* whose double is an exact root
    of B (E* = 2 for odd n at y = 0) is kept as that root, so the residuals
    and ``_crossing_track``'s zero-slope test see it exactly.  A root shared
    with the merge polynomial is tried as a merger first, so every root
    that reaches this polisher is a pole.  Its ``crossing_coupling``
    p* = -A'(E*)/B'(E*) is the coupling at which the moving branch of
    r^2(E) passes through the persistent line; ``crossing_track`` is that
    moving level (``_crossing_track``).
    """
    s = bivariate_secular(n, as_fraction(y_star))
    a_dbl = s.A.to_double()
    e0 = min((e for e, _ in _real_roots(s.B)), key=lambda e: abs(a_dbl(complex(e))))
    polished = _newton_polish_real(s.B, e0)
    energy = as_fraction(float(polished))
    if s.B(energy) != 0:
        energy = as_fraction(polished)
    p_star = -s.A.derivative()(energy) / s.B.derivative()(energy)
    resid = {
        "appearing": tuple(sorted(below.lost - above.lost)),
        "vanishing": tuple(sorted(above.lost - below.lost)),
        "numerator_at_pole": abs(float(s.A(energy))),
        "crossing_coupling": float(p_star),
        "resultant_residual": _relative_residual(_pole_collision_poly(n), y_star),
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
    neighbour of E* on the side it moved to.
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
    p_end = min(max(p_star, Fraction(0)), Fraction(1))
    roots = poly_roots(s.poly_at(p_end).to_double()).roots
    k = _levels_above(roots, complex(float(energy)), 2 if inside else 1, len(levels))
    k += inside and rising
    labels = _labels_at(levels, k - 1 if rising else k + 1, 1)
    return None if labels is None else labels[0]


def _polish_fold_event(n, y_star, below, above) -> CriticalPoint | None:
    """Two interior-r level mergers colliding: a fold of the EP curve.

    A double root E* of W(., y*) with coupling p* = -A(E*)/B(E*) in [0, 1]
    is a triple root of A + p* B.  E* is Newton-polished on W' and p* kept
    as the exact rational of that E*: a double p* would split the triple
    root beyond any cluster tolerance.  The secular polynomial at p* is
    then classified by ``_repeated_roots``, like every merger; the event
    energy is E* itself.  Its ``tracks`` are the three levels that are real
    between the landing and the departure that the fold joins: on one side
    of y* the history has these two extra steps next to each other.
    """
    y_frac = as_fraction(y_star)
    w_at = Polynomial([c(y_frac) for c in _fold_coeffs_in_E(n)])
    s = bivariate_secular(n, y_frac)
    for c in poly_roots(w_at, precision=Precision.EXTENDED).clusters:
        if c.multiplicity < 2 or abs(c.center.imag) > 1e-6 * (1 + abs(c.center)):
            continue
        e_star = as_fraction(_newton_polish_real(w_at.derivative(), c.center.real))
        denom = s.B(e_star)
        if denom == 0:
            continue
        p_star = -s.A(e_star) / denom
        if not -1e-9 <= p_star <= 1 + 1e-9:
            continue
        r0 = math.sqrt(max(float(p_star), 0.0))
        matrix = BcModel(n, y_star).matrix(r0)
        found = _repeated_roots(secular_in_y(n, p_star), y_star, matrix)
        if not found:
            return None
        # the cluster fixes order and kind; its centroid carries the
        # rounding fog of the 30-digit root finder, E* does not
        _, order, kind, resid = min(found, key=lambda f: abs(f[0] - complex(e_star)))
        _label_residuals(resid, "tracks", _fold_tracks(below, above, order))
        resid["fold_residual"] = _relative_residual(_fold_event_poly(n), y_star)
        return CriticalPoint({"y": y_star, "r": r0}, complex(e_star), kind, order, resid)
    return None


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


def perturbation_exponent(
    m,
    order: int,
    eps_list,
    seed: int,
    *,
    at: complex | None = None,
    draws: int = 16,
    precision: Precision = Precision.EXTENDED,
) -> ExponentFit:
    """Fitted exponent of the eigenvalue splitting law near a degeneracy.

    Perturbs by eps*G with G a seeded unit-Frobenius-norm complex Gaussian,
    records the largest displacement inside the tracked cluster, averages
    the logs over ``draws`` directions, and fits a log-log slope.  An EP of
    order m splits like eps^(1/m); a simple eigenvalue like eps^1.  Fits
    with R^2 < 0.99 are flagged not ok.
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
        candidates = _merging_candidates(base)
        if not candidates or candidates[0].multiplicity < order:
            raise ValueError(
                f"matrix does not show an eigenvalue cluster of size {order}"
            )
        center = candidates[0].center
    else:
        center = min(base, key=abs)

    rng = np.random.default_rng(seed)
    logs = np.zeros((draws, len(eps)))
    use_mp = precision is Precision.EXTENDED
    for d in range(draws):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g /= np.linalg.norm(g)
        for j, e in enumerate(eps):
            pert = a + e * g
            if use_mp:
                with mp.workdps(PERTURB_DPS):
                    vals = [complex(v) for v in eigvals_mp(to_mp_matrix(pert))]
            else:
                vals = eigvals_double(pert)
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
