"""Mixing measures and mixed Poisson evaluation.

Two kinds of mixing measure appear in this project: finite discrete measures
on [0, inf), and the reflected-exponential family (c - 2X)^+ with X
exponential of mean 1, which is the limiting measure for the depth of central
keys.  ``mixed_poisson_pmf`` mixes the Poisson kernel over a discrete measure
as a finite sum and over the reflected-exponential measure in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distributions import (
    DEFAULT_TAIL_TOL,
    Pmf,
    _fsum_rows,
    _mixed_poisson_rows,
    _poisson_rows,
    _poisson_support,
    _validate_tol,
    shared_harmonic_table,
)

__all__ = [
    "DiscreteMeasure",
    "ReflectedExponential",
    "MixingMeasure",
    "EULER_GAMMA",
    "limit_mixing_measure",
    "harmonic_mixing_measure",
    "mixed_poisson_pmf",
    "measure_mean",
    "measure_variance",
    "measure_wasserstein",
]

# Euler's constant, hard-coded to full binary64 precision.
EULER_GAMMA = 0.5772156649015328606


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite discrete probability measure on [0, inf).

    Locations are sorted and coalesced at construction; locations and
    weights are finite and nonnegative, and the weights sum to one within
    1e-12.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        loc = np.asarray(self.locations, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if loc.shape != w.shape or loc.ndim != 1 or loc.size == 0:
            raise ValueError("locations and weights must be matching 1-D arrays")
        _, loc, w = _measure_rows(np.array([loc.size]), loc, w)
        loc.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_atoms(cls, atoms: list[tuple[float, float]]) -> "DiscreteMeasure":
        """Build from (location, weight) pairs, sorting and merging duplicates."""
        return cls(
            np.asarray([a[0] for a in atoms], dtype=np.float64),
            np.asarray([a[1] for a in atoms], dtype=np.float64),
        )

    @classmethod
    def point(cls, location: float) -> "DiscreteMeasure":
        return cls(np.array([float(location)]), np.array([1.0]))

    def to_json_dict(self) -> dict:
        return {
            "variant": "discrete",
            "atoms": [[float(l), float(w)] for l, w in zip(self.locations, self.weights)],
        }


def _measure_rows(sizes: np.ndarray, locations: np.ndarray,
                  weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DiscreteMeasure's checks, sort and coalescing on many measures at once,
    given and returned as flat arrays: measure i is the next sizes[i] > 0
    (location, weight) atoms.
    """
    loc = np.asarray(locations, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if not (np.isfinite(loc).all() and np.minimum.reduce(loc) >= 0.0):
        raise ValueError("locations must be finite and >= 0")
    if not (np.isfinite(w).all() and np.minimum.reduce(w) >= 0.0):
        raise ValueError("weights must be finite and >= 0")
    # The stable sort keeps equal locations in input order, so np.add.at
    # sums their weights in input order, as merging the unsorted input with
    # np.unique's inverse would, and 0.0 + w turns a -0.0 weight into 0.0, as
    # that merge does.
    measure = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((loc, measure))
    loc, w = loc[order], w[order]
    first = np.ones(loc.size, dtype=bool)
    first[1:] = (loc[1:] != loc[:-1]) | (measure[1:] != measure[:-1])
    slot = np.cumsum(first) - 1  # the coalesced atom each atom joins
    merged = np.zeros(slot[-1] + 1)
    np.add.at(merged, slot, w)
    sizes = np.bincount(measure[first], minlength=len(sizes))
    w = merged.tolist()
    if any(abs(math.fsum(w[end - size : end]) - 1.0) > 1e-12
           for size, end in zip(sizes.tolist(), np.cumsum(sizes).tolist())):
        raise ValueError("weights must sum to 1 within 1e-12")
    return sizes, loc[first], merged


@dataclass(frozen=True)
class ReflectedExponential:
    """Law of (c - 2X)^+ with X exponential of mean 1.

    An atom of mass e^(-c/2) sits at 0 and the density on (0, c) is
    (1/2) e^(-(c - t)/2).  For c <= 0 the measure degenerates to the point
    mass at 0.
    """

    c: float

    @property
    def degenerate(self) -> bool:
        return self.c <= 0.0

    @property
    def atom_at_zero(self) -> float:
        return 1.0 if self.degenerate else math.exp(-self.c / 2.0)

    def to_json_dict(self) -> dict:
        return {"variant": "exp-reflected", "c": float(self.c)}


MixingMeasure = Union[DiscreteMeasure, ReflectedExponential]


def limit_mixing_measure(n: int, t: float) -> ReflectedExponential:
    """Reflected-exponential mixing measure for size n and relative key rank t.

    The shift is c = 2 log n + 2 gamma + log(t (1 - t)); for c <= 0 the
    measure is the point mass at 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly inside (0, 1), got {t}")
    c = 2.0 * math.log(n) + 2.0 * EULER_GAMMA + math.log(t * (1.0 - t))
    return ReflectedExponential(c=c)


def harmonic_mixing_measure(jd) -> DiscreteMeasure:
    """Discrete measure putting the weight of grid cell (i, j) at H_i + H_j.

    ``jd`` is the joint law of the (smaller, larger) predecessor counts for
    key jd.l in a tree of size jd.n (see exact_depth.predecessor_joint);
    equal locations are coalesced.
    """
    H = shared_harmonic_table(jd.n).H
    locations = np.add.outer(H[: jd.l], H[: jd.n - jd.l + 1]).ravel()
    return DiscreteMeasure(locations, np.ravel(jd.weights))


def measure_mean(measure: MixingMeasure) -> float:
    if isinstance(measure, DiscreteMeasure):
        return math.fsum((measure.locations * measure.weights).tolist())
    if measure.degenerate:
        return 0.0
    c = measure.c
    return c - 2.0 + 2.0 * math.exp(-c / 2.0)


def measure_variance(measure: MixingMeasure) -> float:
    if isinstance(measure, DiscreteMeasure):
        m = measure_mean(measure)
        second = math.fsum(
            (measure.locations * measure.locations * measure.weights).tolist()
        )
        return second - m * m
    if measure.degenerate:
        return 0.0
    c = measure.c
    return 4.0 - 4.0 * c * math.exp(-c / 2.0) - 4.0 * math.exp(-c)


def mixed_poisson_pmf(measure: MixingMeasure, tol: float = DEFAULT_TAIL_TOL) -> Pmf:
    """Pmf of the mixed Poisson law with the given mixing measure.

    For a discrete measure this is an exact finite mixture of truncated
    Poisson pmfs.  For the reflected-exponential measure the density part
    gives mass e^(-c/2) 2^k P(Poisson(c/2) > k) at k, and the atom at 0 adds
    e^(-c/2) to the mass at 0.  The support is cut where the tail of the
    dominating Poisson(rate upper bound) drops below tol, as found by
    distributions._poisson_support.  A discrete mixture then evaluates all
    its rates up to the cut and books its own tail past it, as the one-row
    case of distributions._mixed_poisson_rows.  The reflected mixture takes
    its Poisson(c/2) survivals from one distributions._poisson_rows pass and
    books the Poisson(c) tail the search returned, which bounds its own
    because every rate is at most c.
    """
    _validate_tol(tol)
    if isinstance(measure, DiscreteMeasure):
        masses, tails = _mixed_poisson_rows(np.array([measure.locations.size]),
                                            measure.locations, measure.weights, tol)
        return Pmf.from_masses(0, masses[0], tails[0])

    if measure.degenerate:
        return Pmf.delta(0)
    c = measure.c
    k_max, _, tails_c = _poisson_support(np.array([c]), tol)
    one = np.ones(1, dtype=np.int64)
    tails = _poisson_rows(one, np.array([c / 2.0]), np.ones(1), k_max)[1][0]
    masses = np.ldexp(tails, np.arange(len(tails))) * math.exp(-c / 2.0)
    masses[0] += measure.atom_at_zero
    return Pmf.from_masses(0, masses, float(tails_c[0, k_max[0]]))


def _measure_wasserstein_rows(sizes: np.ndarray, locations: np.ndarray,
                              weights: np.ndarray) -> list[float]:
    """measure_wasserstein for measures 0 and 1, 2 and 3, ... of the flat
    measures that _measure_rows returns.  A pair's atoms, the first measure's
    before the second's, are sorted stably by location into one row, the
    second's weights negated.  Padding a row with its largest location at
    weight 0 splits no interval of positive length and adds 0 to its sums.
    """
    measure = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((locations, measure // 2))
    pair_sizes = sizes[0::2] + sizes[1::2]
    real = np.arange(pair_sizes.max()) < pair_sizes[:, None]
    loc, cdf_gap = np.zeros(real.shape), np.zeros(real.shape)
    loc[real] = locations[order]
    cdf_gap[real] = np.where(measure % 2, -weights, weights)[order]
    # Sorted rows of locations >= 0 on zeros: the running maximum pads them.
    np.maximum.accumulate(loc, axis=1, out=loc)
    np.cumsum(cdf_gap, axis=1, out=cdf_gap)
    return _fsum_rows(abs(cdf_gap[:, :-1]) * np.diff(loc, axis=1))


def measure_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """L1 Wasserstein distance between finite discrete measures.

    The integral of |F_mu - F_nu| over the line: both atom lists are merged
    into one sorted list, mu's weights counted positive and nu's negative, so
    the running sum of weights is F_mu - F_nu up to each atom and is constant
    until the next.  Exact for finite measures up to rounding.
    """
    sizes = np.array([mu.locations.size, nu.locations.size])
    return _measure_wasserstein_rows(sizes, np.concatenate((mu.locations, nu.locations)),
                                     np.concatenate((mu.weights, nu.weights)))[0]
