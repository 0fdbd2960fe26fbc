"""Finite pmf arithmetic, harmonic tables, record-count laws and probability metrics.

Everything here works on `Pmf`, an immutable mass function on the nonnegative
integers that keeps track of how much probability was dropped during
truncation.  Distances computed from truncated laws therefore come back with an
error bound attached instead of silently ignoring the lost mass (see
wasserstein for the term its bound misses).
One cumulative-sum kernel builds every record-count law on a fixed support,
booking the mass spilled past it.
Poisson laws need only numpy and math: log k! comes from one cached table
(Stirling's series, within 1 ulp of scipy.special.gammaln), masses from
exp(k log lam - log k! - lam), and upper tails from those terms summed
upwards, with a geometric bound on the remainder.  One ragged kernel pass
evaluates any set of laws, each a Poisson law or a discrete mixture.
Masses and tails carry the relative error of exp() at a large argument, as
scipy's do: they are within 2e-13 of scipy for lam <= 60 and within 5e-10
at lam = 1e5.

All values are immutable after construction and every operation is a pure
function, so the module is safe to use from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Pmf",
    "HarmonicTable",
    "BoundReport",
    "Distance",
    "harmonic_table",
    "record_count_pmf",
    "convolve",
    "poisson_pmf",
    "total_variation",
    "wasserstein",
    "mean_var",
    "ks_to_standard_normal",
]

# Default tail mass at which infinite-support laws are truncated.  The dropped
# mass is carried in Pmf.truncated_tail, never renormalized away.
DEFAULT_TAIL_TOL = 1e-12

_NORMALIZATION_TOL = 1e-9
# A bound holds when lhs <= rhs + _BOUND_SLACK (see _holds).
_BOUND_SLACK = 1e-12
_TAIL_LIMIT = 1e-9


class Distance(float):
    """A float distance with a truncation error bound attached.

    Behaves exactly like ``float`` in arithmetic and comparisons; the
    ``error_bound`` attribute carries the uncertainty contributed by the
    truncated tails of the input laws.
    """

    __slots__ = ("error_bound",)

    error_bound: float

    def __new__(cls, value: float, error_bound: float = 0.0) -> "Distance":
        self = super().__new__(cls, value)
        self.error_bound = float(error_bound)
        return self


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on integers >= offset with tail bookkeeping.

    Invariants (checked at construction):
      * every mass lies in [0, 1], so NaN and infinite masses are rejected,
      * sum(masses) + truncated_tail = 1 up to 1e-9,
      * truncated_tail stays below 1e-9.
    """

    offset: int
    masses: np.ndarray
    truncated_tail: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.masses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("masses must be a nonempty 1-D array")
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")
        _check_pmf_rows(arr[None], [self.truncated_tail])
        arr.flags.writeable = False
        object.__setattr__(self, "masses", arr)

    @classmethod
    def from_masses(
        cls,
        offset: int,
        masses: Sequence[float] | np.ndarray,
        truncated_tail: float = 0.0,
    ) -> "Pmf":
        """Build a Pmf, clamping negative rounding dust and trimming zero ends."""
        arr = np.array(masses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("masses must be a nonempty 1-D array")
        if not np.minimum.reduce(arr) >= -1e-12:
            raise ValueError("masses must be nonnegative and not NaN")
        np.maximum(arr, 0.0, out=arr)
        nz = arr.nonzero()[0]
        if nz.size == 0:
            # All mass was dropped; keep a single zero cell at the offset.
            return cls(offset, np.zeros(1), truncated_tail)
        lo, hi = int(nz[0]), int(nz[-1])
        return cls(offset + lo, arr[lo : hi + 1], truncated_tail)

    @classmethod
    def delta(cls, k: int) -> "Pmf":
        """Point mass at the integer k."""
        return cls(k, np.array([1.0]))

    @property
    def support_min(self) -> int:
        return self.offset

    @property
    def support_max(self) -> int:
        return self.offset + len(self.masses) - 1

    def __len__(self) -> int:
        return len(self.masses)

    def mass_at(self, k: int) -> float:
        if self.offset <= k <= self.support_max:
            return float(self.masses[k - self.offset])
        return 0.0

    def items(self) -> Iterator[tuple[int, float]]:
        for i, m in enumerate(self.masses):
            yield self.offset + i, float(m)

    def shifted(self, delta: int) -> "Pmf":
        """Law of X + delta; the shifted support must stay nonnegative."""
        return Pmf(self.offset + delta, self.masses, self.truncated_tail)

    def to_json_dict(self) -> dict:
        return {
            "offset": self.offset,
            "masses": [float(m) for m in self.masses],
            "truncated_tail": self.truncated_tail,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Pmf":
        return cls(
            int(data["offset"]),
            np.asarray(data["masses"], dtype=np.float64),
            float(data.get("truncated_tail", 0.0)),
        )


def _check_pmf_rows(masses: np.ndarray, tails: list[float]) -> None:
    """Pmf's invariants on each row of masses with its truncated tail.

    Raises ValueError at the first broken one.  Written so that NaN, which
    fails every comparison, fails each check.  A plain sum is exact enough
    for the 1e-9 normalization check.
    """
    if not (np.minimum.reduce(masses, axis=None) >= 0.0
            and np.maximum.reduce(masses, axis=None) <= 1.0 + 1e-12):
        raise ValueError("masses must lie in [0, 1]")
    for tail in tails:
        if not 0.0 <= tail <= _TAIL_LIMIT * (1 + 1e-6):
            raise ValueError(f"truncated_tail {tail!r} outside [0, {_TAIL_LIMIT}]")
    for mass, tail in zip(masses.sum(axis=1).tolist(), tails):
        total = mass + tail
        if not abs(total - 1.0) <= _NORMALIZATION_TOL:
            raise ValueError(f"masses + tail sum to {total!r}, expected 1")


@dataclass(frozen=True)
class HarmonicTable:
    """First and second order harmonic numbers H_k and H_k^(2) for k <= n_max."""

    H: np.ndarray
    H2: np.ndarray

    def __post_init__(self) -> None:
        self.H.flags.writeable = False
        self.H2.flags.writeable = False

    @property
    def n_max(self) -> int:
        return len(self.H) - 1


@dataclass(frozen=True)
class BoundReport:
    """Result of evaluating an inequality lhs <= rhs."""

    lhs: float
    rhs: float
    holds: bool
    margin: float

    @classmethod
    def check(cls, lhs: float, rhs: float) -> "BoundReport":
        lhs = float(lhs)
        rhs = float(rhs)
        return cls(lhs=lhs, rhs=rhs, holds=_holds(lhs, rhs), margin=rhs - lhs)


def _holds(lhs, rhs):
    """Whether lhs <= rhs holds up to _BOUND_SLACK, for floats or arrays."""
    return lhs <= rhs + _BOUND_SLACK


# H_k and H_k^(2) below this k are Kahan-compensated running sums; from it on,
# their asymptotic series.
_HARMONIC_SERIES_MIN_K = 64


def harmonic_table(n_max: int) -> HarmonicTable:
    """Tables of H_k = sum 1/i and H_k^(2) = sum 1/i^2 for k = 0..n_max.

    Below k = _HARMONIC_SERIES_MIN_K, Kahan-compensated running sums.  From
    it on, the asymptotic series
        H_k = log k + gamma + 1/(2k) - 1/(12k^2) + 1/(120k^4) - 1/(252k^6) + 1/(240k^8),
        H_k^(2) = pi^2/6 - 1/k + 1/(2k^2) - 1/(6k^3) + 1/(30k^5) - 1/(42k^7) + 1/(30k^9),
    the second being pi^2/6 - psi'(k + 1); their next terms are below 1e-20
    at k = 64.  Entries are within 2 ulp of the true values up to 2^15 and
    within 1e-13 at k = 10^6.  Each entry depends on k alone, so a table is a
    prefix of every larger one.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    H = np.empty(n_max + 1)
    H2 = np.empty(n_max + 1)
    H[0] = 0.0
    H2[0] = 0.0
    s = c = s2 = c2 = 0.0
    head = min(n_max + 1, _HARMONIC_SERIES_MIN_K)
    for k in range(1, head):
        y = 1.0 / k - c
        t = s + y
        c = (t - s) - y
        s = t
        H[k] = s
        inv2 = 1.0 / (k * k)
        y2 = inv2 - c2
        t2 = s2 + y2
        c2 = (t2 - s2) - y2
        s2 = t2
        H2[k] = s2
    if head <= n_max:  # small tables skip the numpy calls' fixed cost
        x = np.arange(float(head), n_max + 1.0)
        r = 1.0 / x
        r2 = r * r
        H[head:] = np.log(x) + (np.euler_gamma + r * (
            0.5 - r * (1 / 12 - r2 * (1 / 120 - r2 * (1 / 252 - r2 / 240)))))
        H2[head:] = math.pi**2 / 6 - r * (
            1.0 - r * (0.5 - r * (1 / 6 - r2 * (1 / 30 - r2 * (1 / 42 - r2 / 30)))))
    return HarmonicTable(H=H, H2=H2)


@lru_cache(maxsize=8)
def _harmonic_cached(n_max_pow2: int) -> HarmonicTable:
    return harmonic_table(n_max_pow2)


def _pow2_at_least(n: int) -> int:
    """Smallest power of two >= max(n, 1): cached tables are sized by it."""
    return 1 << max(n - 1, 0).bit_length()


# log k! below this k is the log of the exact k!; from it on, Stirling's series.
_STIRLING_MIN_K = 16
_STIRLING_CONST = 0.5 * math.log(2.0 * math.pi) - 0.5


@lru_cache(maxsize=8)
def _ln_table(n_pow2: int) -> np.ndarray:
    """log k! for k = 0..n_pow2, within 1 ulp of scipy.special.gammaln up to 2^15.

    From k = _STIRLING_MIN_K on, Stirling's series for log Gamma(x) at
    x = k + 1, written as (x - 1/2)(log x - 1) + (log(2 pi) - 1)/2 +
    1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7) + 1/(1188x^9).  For
    x >= e^2, log x - 1 is exact, so the rounding of log x is not magnified
    by the cancellation in x log x - x; the series' next term is below 1e-16
    at x = 17.  Each entry depends on k alone, so a table is a prefix of
    every larger one.
    """
    t = np.empty(n_pow2 + 1)
    head = min(n_pow2 + 1, _STIRLING_MIN_K)
    t[:head] = [math.log(math.factorial(k)) for k in range(head)]
    x = np.arange(_STIRLING_MIN_K + 1.0, n_pow2 + 2.0)
    r = 1.0 / x
    r2 = r * r
    series = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188))))
    t[head:] = (x - 0.5) * (np.log(x) - 1.0) + _STIRLING_CONST + series
    t.flags.writeable = False
    return t


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, a prefix of the cached table sized by _pow2_at_least(n)."""
    return _ln_table(_pow2_at_least(n))[: n + 1]


def shared_harmonic_table(n_max: int) -> HarmonicTable:
    """Cached harmonic table of at least the requested length."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return _harmonic_cached(_pow2_at_least(n_max))


def _record_support_bound(m: int) -> int:
    """Support cutoff wide enough that the spilled record-law tail is < 1e-18."""
    if m <= 1:
        return 2
    h = math.log(m) + 1.0
    return int(math.ceil(h + 8.0 * math.sqrt(h) + 16.0))


def _record_laws(m_max: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """Record-count laws on 0..K for the key counts ``rows`` picks from 0..m_max,
    and the mass each spilled past K = min(_record_support_bound(m_max), m_max).

    With col_d[m] = P(d records among m keys), m col_d[m] = (m-1) col_d[m-1]
    + col_{d-1}[m-1], so each column is the cumulative sum of the previous
    one divided by m.  No mass returns from past K, so masses on 0..K are
    exact and row m has spilled the sum over k <= m of col_K[k-1]/k.  An int
    ``rows`` keeps one law, in O(m_max) memory.
    """
    k_cap = min(_record_support_bound(m_max), m_max)
    ms = np.arange(1.0, m_max + 1.0)
    col = np.zeros(m_max + 1)
    col[0] = 1.0
    laws = np.empty(np.shape(col[rows]) + (k_cap + 1,))
    laws[..., 0] = col[rows]
    for d in range(1, k_cap + 1):
        col = np.concatenate(([0.0], np.cumsum(col[:-1]) / ms))
        laws[..., d] = col[rows]
    spill = np.concatenate(([0.0], np.cumsum(col[:-1] / ms)))
    return laws, spill[rows]


def record_count_pmf(m: int) -> Pmf:
    """Law of the number of records in a uniform random permutation of length m.

    The count is a sum of independent Bernoulli(1/i) indicators, i = 1..m;
    the mass past the fixed support of _record_laws is booked in truncated_tail.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    masses, spill = _record_laws(m, m)
    return Pmf.from_masses(0, masses, float(spill))


def convolve(p: Pmf, q: Pmf) -> Pmf:
    """Pmf of the sum of independent draws from p and q."""
    masses = np.convolve(p.masses, q.masses)
    tail = p.truncated_tail + q.truncated_tail - p.truncated_tail * q.truncated_tail
    return Pmf.from_masses(p.offset + q.offset, masses, tail)


def _validate_nl(n: int, l: int | None) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if l is None or not 1 <= l <= n:
        raise ValueError(f"l must be in 1..{n}, got {l}")


def _validate_tol(tol: float) -> None:
    if not 0.0 < tol <= 1e-9:
        raise ValueError(f"tol must be in (0, 1e-9], got {tol}")


# A Poisson tail sum stops where the terms left are below e^-45 (3e-20) times
# its first term; a geometric bound on them is added to the sum.
_TAIL_LOG_CUT = 45.0


def _poisson_kernel(lam: np.ndarray, k_max: np.ndarray) -> np.ndarray:
    """e^(-lam) lam^k / k! for each rate lam >= 0 of a 1-D array and its
    k = 0..k_max, one rate after another, as one flat array.

    log lam is math.log of each rate, so a rate gets the same terms alone or
    in any array.  k log lam is taken as 0 at k = 0 whatever lam is, so a
    rate of 0 gives the point mass at 0.
    """
    logs = np.array([math.log(r) if r > 0.0 else -math.inf for r in lam.tolist()])
    spans = k_max + 1
    first = np.cumsum(spans) - spans  # where each rate's k = 0 term goes
    ks = np.arange(spans.sum())
    ks -= np.repeat(first, spans)
    # The repeats stay alive until x is built: freeing each one as soon as it
    # was used left the allocator's heap larger (sweep-small peak RSS +0.5 MiB).
    log_factorials = _log_factorials(int(k_max.max()))[ks]
    logs, rates = np.repeat(logs, spans), np.repeat(lam, spans)
    with np.errstate(invalid="ignore"):  # 0 * -inf at k = 0, overwritten below
        x = ks * logs
    x -= log_factorials
    x[first] = 0.0
    x -= rates
    return np.exp(x, out=x)


def _poisson_ends(lam_max: np.ndarray, k_max: np.ndarray) -> np.ndarray:
    """The last term J that _poisson_rows sums, for each law's largest rate and k_max."""
    j0 = np.maximum(k_max + 1, np.ceil(lam_max))
    steps = 2.0 * _TAIL_LOG_CUT + np.sqrt(2.0 * _TAIL_LOG_CUT * j0)
    r0 = (lam_max / (j0 + 1)).tolist()
    steps = np.minimum(steps, [_TAIL_LOG_CUT / -math.log(r) if r > 0.0 else math.inf for r in r0])
    return (j0 + np.maximum(1.0, np.ceil(steps))).astype(np.int64)


def _poisson_rows(sizes: np.ndarray, rates: np.ndarray, weights: np.ndarray,
                  k_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(X = k) and P(X > k) for k = 0..k_max[i], where law i mixes
    Poisson(rate) over the next sizes[i] rates, sorted, with their weights
    (as mixing._measure_rows returns measures).  Rows run to max(k_max);
    masses past a law's own k_max are 0.

    One kernel pass evaluates each rate on k = 0..J, its law's own end, and
    the weighted terms go to their law in input order, so a law gets the
    same bits alone or among others.  Each survival is the terms from k + 1
    to J summed smallest first: all are positive, so nothing cancels, and
    the relative error is that of the terms, exp() at an argument of size
    about k log k.  From j0 = max(k_max + 1, ceil(lam)) on (lam the law's
    largest rate), the terms fall by a factor of at most lam / (j0 + 1) per
    step and by exp(-d(d+1) / (2(j0 + d))) over d steps; the sum stops at
    J = j0 + d, with d the fewest steps that take either bound below
    e^-_TAIL_LOG_CUT.  Past J each term is at most r = rate / (J + 1) times
    the one before, so the rest is at most the last term times r / (1 - r),
    and that bound is added.
    """
    law = np.repeat(np.arange(len(sizes)), sizes)  # the law of each rate
    ends = _poisson_ends(rates[np.cumsum(sizes) - 1], k_max)[law]
    terms = _poisson_kernel(rates, ends)
    # Rate a's terms, flat from cell start[a] on, go to row law[a] of a (law, k) grid.
    spans = ends + 1
    width, start = int(ends.max()) + 1, np.cumsum(spans) - spans
    cell = np.repeat(law * width - start, spans)
    cell += np.arange(terms.size)
    weighted = np.repeat(weights, spans)
    weighted *= terms
    grid = np.bincount(cell, weighted, len(sizes) * width).reshape(len(sizes), width)
    rest = terms[start + ends] * rates / (spans - rates) * weights
    top = int(k_max.max())
    # Running sums from the top, turned back round: column k is P(X >= k).
    tails = np.add.accumulate(grid[:, ::-1], axis=1)[:, ::-1][:, 1 : top + 2]
    tails = tails + np.bincount(law, rest, len(sizes))[:, None]  # frees the full sums
    masses = grid[:, : top + 1]
    masses[np.arange(top + 1) > k_max[:, None]] = 0.0
    return masses, tails


def _poisson_support(lams: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each rate lam > 0, the smallest k_max >= int(lam) with
    P(X > k_max) < tol, X ~ Poisson(lam); and the rows of P(X = k) and
    P(X > k) that _poisson_rows gave for the block it was found in, padded
    to a common length.  Entries past a rate's k_max are not part of its
    cut law.

    The tail is evaluated on blocks of 16 + 12 sqrt(lam) candidates from
    k = int(lam) upwards.  One _poisson_rows pass evaluates the next block of
    every rate still searching, each rate as it would be alone, so a rate
    gets the same k_max and rows in any array.  At tol >= 1e-15 the first
    block held the answer for every lambda in the tests; smaller tols may
    take further blocks.
    """
    k0 = lams.astype(np.int64)
    width = 16 + (12.0 * np.sqrt(lams)).astype(np.int64)
    k_max = np.zeros(len(lams), dtype=np.int64)
    blocks = []
    todo = np.arange(len(lams))
    while todo.size:
        last = k0[todo] + width[todo] - 1
        ones = np.ones(todo.size, dtype=np.int64)
        masses, tails = _poisson_rows(ones, lams[todo], ones.astype(np.float64), last)
        ks = np.arange(tails.shape[1])
        below = (tails < tol) & (ks >= k0[todo, None]) & (ks <= last[:, None])
        hit = below.any(axis=1)
        k_max[todo[hit]] = below.argmax(axis=1)[hit]
        if not blocks and hit.all():  # the usual case; the assembly below adds ~10 us a call
            return k_max, masses, tails
        blocks.append((todo[hit], masses[hit], tails[hit]))
        todo = todo[~hit]
        k0[todo] += width[todo]
    cols = max((block[1].shape[1] for block in blocks), default=0)
    masses, tails = np.zeros((len(lams), cols)), np.zeros((len(lams), cols))
    for rows, block_masses, block_tails in blocks:
        masses[rows, : block_masses.shape[1]] = block_masses
        tails[rows, : block_tails.shape[1]] = block_tails
    return k_max, masses, tails


def _mixed_poisson_rows(sizes: np.ndarray, rates: np.ndarray, weights: np.ndarray,
                        tol: float = DEFAULT_TAIL_TOL) -> tuple[np.ndarray, list[float]]:
    """The discrete branch of mixing.mixed_poisson_pmf for many measures, as
    _poisson_rows takes them.

    Each law is cut at its own k_max, from the support search on its largest
    rate, and books its own mixture tail past it; a law whose rates are all 0
    is the point mass at 0.  Pmf's invariants are checked on every row.
    Returns the masses on 0..max k_max (one row per law, 0 past its k_max)
    and tails.
    """
    lam_max = rates[np.cumsum(sizes) - 1]
    point = lam_max == 0.0
    k_max = np.zeros(len(sizes), dtype=np.int64)
    k_max[~point] = _poisson_support(lam_max[~point], tol)[0]
    masses, tails = _poisson_rows(sizes, rates, weights, k_max)
    tails = tails[np.arange(len(sizes)), k_max]
    masses[point, 0], tails[point] = 1.0, 0.0
    tails = tails.tolist()
    _check_pmf_rows(masses, tails)
    return masses, tails


def poisson_pmf(lam: float, tol: float = DEFAULT_TAIL_TOL) -> Pmf:
    """Poisson(lam) truncated to tail mass < tol; Poisson(0) is the point mass at 0."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    _validate_tol(tol)
    if lam == 0.0:
        return Pmf.delta(0)
    k_max, masses, tails = _poisson_support(np.array([float(lam)]), tol)
    k = int(k_max[0])
    return Pmf.from_masses(0, masses[0, : k + 1], float(tails[0, k]))


def _aligned_masses(p: Pmf, q: Pmf) -> tuple[np.ndarray, np.ndarray]:
    lo = min(p.offset, q.offset)
    hi = max(p.support_max, q.support_max)
    a = np.zeros(hi - lo + 1)
    b = np.zeros(hi - lo + 1)
    a[p.offset - lo : p.offset - lo + len(p.masses)] = p.masses
    b[q.offset - lo : q.offset - lo + len(q.masses)] = q.masses
    return a, b


def _fsum_rows(values: np.ndarray) -> list[float]:
    """math.fsum of each row: zero entries, such as padding, leave it unchanged."""
    return [math.fsum(row) for row in values.tolist()]


def _total_variation_rows(a: np.ndarray, b: np.ndarray) -> list[float]:
    """Half the l1 gap of each pair of rows of masses on a common support."""
    return [0.5 * s for s in _fsum_rows(np.abs(a - b))]


def _wasserstein_rows(a: np.ndarray, b: np.ndarray, first) -> list[float]:
    """The l1 gap of the survival functions of each pair of rows of masses,
    summed from column ``first`` (an int, or one per row) to the last.

    Survival values are accumulated from the top of each row, so trailing
    zero columns change none of them.
    """
    sa = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
    sb = np.cumsum(b[:, ::-1], axis=1)[:, ::-1]
    diffs = np.abs(sa - sb)
    return _fsum_rows(np.where(np.arange(a.shape[1]) < np.reshape(first, (-1, 1)), 0.0, diffs))


def total_variation(p: Pmf, q: Pmf) -> Distance:
    """Total variation distance: half the l1 distance between the pmfs.

    The attached error bound is half the combined truncated tail mass.
    """
    a, b = _aligned_masses(p, q)
    value = _total_variation_rows(a[None], b[None])[0]
    return Distance(value, 0.5 * (p.truncated_tail + q.truncated_tail))


def wasserstein(p: Pmf, q: Pmf) -> Distance:
    """L1 Wasserstein distance for integer laws: the l1 gap of survival functions.

    Computes sum over k >= 1 of |P(X >= k) - P(Y >= k)| (the k = 0 term always
    vanishes).  The attached error bound, (tail_p + tail_q) times the window
    max(support_max), covers how far dropped mass (Poisson tails, record-law
    spills and grid cells outside the band) shifts each survival value inside
    the window.  It is not a certified bound: it misses the dropped mass's own
    distance past the window, E[(X - window)^+], so the true W1 from
    poisson_pmf(lam) to Pmf.delta(0), which is lam, lies outside it.
    """
    a, b = _aligned_masses(p, q)
    # The k = 0 survival of a pmf on {0,...} is 1 - tail: start at k = 1.
    value = _wasserstein_rows(a[None], b[None], int(min(p.offset, q.offset) == 0))[0]
    window = max(p.support_max, q.support_max)
    bound = (p.truncated_tail + q.truncated_tail) * window
    return Distance(value, bound)


def mean_var(p: Pmf) -> tuple[float, float]:
    """First moment and variance, compensated summation throughout."""
    ks = np.arange(p.offset, p.offset + len(p.masses), dtype=np.float64)
    mean, second = _fsum_rows(np.stack((ks, ks * ks)) * p.masses)
    return mean, second - mean * mean


def standard_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ks_to_standard_normal(p: Pmf, shift: float, scale: float) -> float:
    """Kolmogorov-Smirnov distance of the standardized law (X - shift)/scale to Phi.

    The supremum over the real line is attained at a jump of the standardized
    cdf, so both sides of every support point are evaluated.
    """
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    cdf = np.cumsum(p.masses)
    best = 0.0
    for i in range(len(p.masses)):
        x = (p.offset + i - shift) / scale
        phi = standard_normal_cdf(x)
        left = cdf[i - 1] if i > 0 else 0.0
        best = max(best, abs(cdf[i] - phi), abs(left - phi))
    return float(best)
