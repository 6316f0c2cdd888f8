"""Arithmetic modes and scalar helpers.

Three tiers are used throughout the package:

* ``EXACT``    -- rational arithmetic (``int`` / ``fractions.Fraction``),
  used for every polynomial identity.  Values are kept in lowest terms by
  ``Fraction`` itself and can never overflow.
* ``DOUBLE``   -- IEEE double (``float`` / ``complex``), used for sweeps.
* ``EXTENDED`` -- mpmath multiprecision, used to polish results close to a
  spectral degeneracy where double arithmetic loses too many digits.

Conversions out of the exact tier are explicit (``to_double`` /
``to_extended``); nothing in the package silently promotes a float back to
a rational.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

EXTENDED_DPS = 30

ExactTypes = (int, Fraction)
MpTypes = (mp.mpf, mp.mpc)


class Precision(enum.Enum):
    EXACT = "exact"
    DOUBLE = "double"
    EXTENDED = "extended"


def is_exact_zero(value) -> bool:
    """True only for a value that is exactly zero in its own arithmetic."""
    return value == 0


def to_double(value):
    """Explicit conversion to double arithmetic (complex preserved)."""
    if isinstance(value, Fraction):
        return float(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, mp.mpc):
        return complex(value)
    if isinstance(value, mp.mpf):
        return float(value)
    return value


def to_extended(value):
    """Explicit conversion to mpmath arithmetic at the current precision."""
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / mp.mpf(value.denominator)
    if isinstance(value, int):
        return mp.mpf(value)
    if isinstance(value, complex):
        return mp.mpc(value)
    if isinstance(value, float):
        return mp.mpf(value)
    return value


def as_ratio(value) -> tuple[int, int]:
    """Exact (numerator, positive denominator) of an int/Fraction/float/mpf.

    Binary floats convert exactly, so their denominator is a power of two;
    the pair need not be in lowest terms.  Infinities and NaNs raise.
    """
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, float):
        return value.as_integer_ratio()
    if isinstance(value, mp.mpf):
        sign, man, exp, _ = value._mpf_
        if not man and exp:
            raise ValueError(f"{value} has no exact rational value")
        man = -man if sign else man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    raise TypeError(f"cannot represent {type(value)!r} exactly")


def as_fraction(value) -> Fraction:
    """Exact rational from an int/Fraction/float/mpf (binary floats convert exactly)."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*as_ratio(value))


# --------------------------------------------------------------------------
# reality test
# --------------------------------------------------------------------------

REALITY_RTOL = 1e-10


def reality_flags(values, rtol: float = REALITY_RTOL) -> np.ndarray:
    """Which eigenvalues count as real: |Im E| <= rtol * max(1, max |E|).

    ``values`` is one spectrum or an (n, samples) array of tracks; the scale
    is taken per column, i.e. per spectrum.
    """
    values = np.asarray(values)
    scale = np.maximum(1.0, np.max(np.abs(values), axis=0, initial=0.0))
    return np.abs(values.imag) <= rtol * scale


# --------------------------------------------------------------------------
# root clustering
# --------------------------------------------------------------------------

CLUSTER_RTOL = 1e-7  # relative radius that merges near-coincident roots


@dataclass(frozen=True)
class RootCluster:
    """A group of numerically coincident values.

    ``multiplicity`` is the cluster size, ``radius`` the largest distance of
    a member from the centroid.
    """

    center: complex
    radius: float
    multiplicity: int
    members: tuple[complex, ...]


def cluster_points(values, rtol: float = CLUSTER_RTOL) -> tuple[RootCluster, ...]:
    """Single-linkage clustering of complex values.

    Two values join the same cluster when they lie within
    ``rtol * (1 + |midpoint|)`` of each other (directly or through a chain).
    Clusters are returned sorted by (Re, Im) of their centroid.
    """
    vals = [complex(v) for v in values]
    m = len(vals)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            mid = abs(vals[i] + vals[j]) / 2
            if abs(vals[i] - vals[j]) <= rtol * (1 + mid):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, list[complex]] = {}
    for i, v in enumerate(vals):
        groups.setdefault(find(i), []).append(v)

    clusters = []
    for members in groups.values():
        center = sum(members) / len(members)
        radius = max(abs(v - center) for v in members)
        clusters.append(
            RootCluster(center, radius, len(members), tuple(members))
        )
    clusters.sort(key=lambda c: (c.center.real, c.center.imag))
    return tuple(clusters)
