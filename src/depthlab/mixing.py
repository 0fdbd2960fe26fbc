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
    _check_pmf_rows,
    _fsum_rows,
    _poisson_blocks,
    _poisson_terms,
    _poisson_truncated,
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
        locations, weights = _measure_rows([(loc, w)])
        loc, w = locations[0], weights[0]
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


def _measure_rows(atoms: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """DiscreteMeasure's checks, sort and coalescing on many measures at once.

    ``atoms`` holds one nonempty (locations, weights) pair of 1-D arrays per
    measure.  Returns locations and weights with one measure per row, sorted
    and coalesced, each row padded past its atoms with its largest location
    at weight 0.  So the last column holds every row's largest location, and
    the padding changes no sum of weights.
    """
    sizes = np.array([len(loc) for loc, _ in atoms])
    real = np.arange(sizes.max()) < sizes[:, None]
    loc = np.full(real.shape, np.inf)  # the padding sorts last
    w = np.zeros(real.shape)
    loc[real] = np.concatenate([a[0] for a in atoms])
    w[real] = np.concatenate([a[1] for a in atoms])
    if not (np.isfinite(loc[real]).all() and np.minimum.reduce(loc[real]) >= 0.0):
        raise ValueError("locations must be finite and >= 0")
    if not (np.isfinite(w).all() and np.minimum.reduce(w, axis=None) >= 0.0):
        raise ValueError("weights must be finite and >= 0")
    # The stable sort keeps equal locations in input order, so np.add.at
    # sums their weights in input order, as merging the unsorted input with
    # np.unique's inverse would, and 0.0 + w turns a -0.0 weight into 0.0, as
    # that merge does.
    order = np.argsort(loc, axis=1, kind="stable")
    loc = np.take_along_axis(loc, order, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    first = real.copy()
    first[:, 1:] &= loc[:, 1:] != loc[:, :-1]
    slot = np.cumsum(first, axis=1) - 1  # the coalesced atom each atom joins
    rows = np.broadcast_to(np.arange(len(atoms))[:, None], real.shape)
    width = int(slot[:, -1].max()) + 1
    merged = np.zeros((len(atoms), width))
    np.add.at(merged, (rows[real], slot[real]), w[real])
    if any(abs(s - 1.0) > 1e-12 for s in _fsum_rows(merged)):
        raise ValueError("weights must sum to 1 within 1e-12")
    # Sorted rows of locations >= 0 on zeros: the running maximum pads each
    # row with its largest location.
    locations = np.zeros_like(merged)
    locations[rows[first], slot[first]] = loc[first]
    return np.maximum.accumulate(locations, axis=1), merged


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
    distributions._poisson_truncated.  A discrete mixture then evaluates all
    its rates up to the cut and books its own tail past it, as the one-row
    case of _mixed_poisson_rows; the reflected mixture books the Poisson(c)
    tail the search returned, which bounds its own because every rate is at
    most c.
    """
    _validate_tol(tol)
    if isinstance(measure, DiscreteMeasure):
        masses, tails = _mixed_poisson_rows(measure.locations[None], measure.weights[None], tol)
        return Pmf.from_masses(0, masses[0], tails[0])

    if measure.degenerate:
        return Pmf.delta(0)
    c = measure.c
    tails_c = _poisson_truncated(c, tol)[1]
    k_max = len(tails_c) - 1
    ks = np.arange(k_max + 1)
    masses = np.ldexp(_poisson_terms(c / 2.0, k_max)[1], ks) * math.exp(-c / 2.0)
    masses[0] += measure.atom_at_zero
    return Pmf.from_masses(0, masses, float(tails_c[-1]))


def _mixed_poisson_rows(locations: np.ndarray, weights: np.ndarray,
                        tol: float = DEFAULT_TAIL_TOL) -> tuple[np.ndarray, list[float]]:
    """The discrete branch of mixed_poisson_pmf for each row of measures padded
    as _measure_rows pads them.

    Each row is cut at its own k_max, from the support search on its largest
    rate, and books its own mixture tail past it; a row whose rates are all 0
    is the point mass at 0.  All rows share one (k, atom, law) kernel pass
    up to the largest k_max, each law summed as it would be alone, and masses
    past a row's k_max are set to 0.  Pmf's invariants are checked on every
    row.  Returns the masses on 0..max k_max, one row per measure, and the
    tails.
    """
    lam_max = locations[:, -1]
    point = lam_max == 0.0
    k_max = np.zeros(len(lam_max), dtype=np.int64)
    k_max[~point] = [len(m) - 1 for m, _ in _poisson_blocks(lam_max[~point], tol)]
    masses, tails = _poisson_terms(locations.T, k_max, weights.T)
    masses, tails = masses.T, tails[k_max, np.arange(len(k_max))]
    masses[np.arange(masses.shape[1]) > k_max[:, None]] = 0.0
    masses[point, 0], tails[point] = 1.0, 0.0
    tails = tails.tolist()
    _check_pmf_rows(masses, tails)
    return masses, tails


def _measure_wasserstein_rows(mu_loc: np.ndarray, mu_w: np.ndarray,
                              nu_loc: np.ndarray, nu_w: np.ndarray) -> list[float]:
    """measure_wasserstein for each row pair of measures padded as
    _measure_rows pads them.

    A zero-weight padding atom sorts just after its row's largest real atom,
    at the same location, so it splits no interval of positive length and
    adds 0 to the running sum: every term is the unpadded one or an exact 0.
    """
    locations = np.concatenate((mu_loc, nu_loc), axis=1)
    order = locations.argsort(axis=1, kind="stable")
    locations = np.take_along_axis(locations, order, axis=1)
    cdf_gap = np.take_along_axis(np.concatenate((mu_w, -nu_w), axis=1), order, axis=1)
    np.cumsum(cdf_gap, axis=1, out=cdf_gap)
    return _fsum_rows(abs(cdf_gap[:, :-1]) * np.diff(locations, axis=1))


def measure_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """L1 Wasserstein distance between finite discrete measures.

    The integral of |F_mu - F_nu| over the line: both atom lists are merged
    into one sorted list, mu's weights counted positive and nu's negative, so
    the running sum of weights is F_mu - F_nu up to each atom and is constant
    until the next.  Exact for finite measures up to rounding.
    """
    return _measure_wasserstein_rows(mu.locations[None], mu.weights[None],
                                     nu.locations[None], nu.weights[None])[0]
