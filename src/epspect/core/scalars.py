"""Arithmetic tiers and scalar helpers.

Every polynomial identity is exact: a ``Polynomial`` holds ``int`` /
``fractions.Fraction`` coefficients only (``ExactTypes``), which cannot
overflow.  Floating work runs in one of two ``Precision`` tiers:

* ``DOUBLE``   -- IEEE double (``float`` / ``complex``), used for sweeps.
* ``EXTENDED`` -- fixed-point dyadic rationals on Python integers, used to
  polish results close to a spectral degeneracy where double arithmetic
  loses too many digits.  Its working precision is ``EXTENDED_BITS`` (103
  bits, about 30 digits); results leave it rounded once to ``complex``.

A float enters the exact algebra only through ``as_fraction``, as the
dyadic rational it stores.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EXTENDED_BITS = 103  # 30 decimal digits

ExactTypes = (int, Fraction)


class Precision(enum.Enum):
    DOUBLE = "double"
    EXTENDED = "extended"


def as_ratio(value) -> tuple[int, int]:
    """Exact (numerator, positive denominator) of an int/Fraction/float.

    Binary floats convert exactly, so their denominator is a power of two;
    the pair need not be in lowest terms.  Infinities and NaNs raise
    ``ValueError``.
    """
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value} has no exact rational value")
        return value.as_integer_ratio()
    raise TypeError(f"cannot represent {type(value)!r} exactly")


def as_fraction(value) -> Fraction:
    """Exact rational from an int/Fraction/float (binary floats convert exactly)."""
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
