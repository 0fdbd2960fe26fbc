"""Verification suites: the paper's inequalities and exact-vs-oracle identities
swept over grids.  ``SUITES`` maps each name to a function that returns the
suite's checks as columns (see ``Table``); the route-agreement suites build
theirs in ``_within``, which holds the TV between two routes' laws to a
tolerance.  ``suite_table`` runs one suite, and ``run_suite`` returns its
rows as the dicts ``verify`` prints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .distributions import (
    Pmf,
    _fsum_rows,
    _holds,
    _mixed_poisson_rows,
    _record_laws,
    _record_support_bound,
    _total_variation_rows,
    _wasserstein_rows,
)
from .exact_depth import (
    BRUTE_FORCE_CAP,
    DEFAULT_N_CAP,
    MIXING_VARIANCE_BOUND,
    CapExceededError,
    _ROW_DEPTH_BINS,
    _depth_law_rows,
    _depth_pmf_by_arrival,
    _depth_moments,
    _hypergeometric_log_bound,
    _mixing_variance_rows,
    brute_force_depth_pmf,
    exact_depth_pmf,
    mixpo_distance,
    move_joint_pmf,
    poisson_bound_report,
)
from .mixing import _measure_rows, _measure_wasserstein_rows
from .montecarlo import _find_recursions, _index_bits
from .trees import _permutation_array

__all__ = ["SUITES", "Table", "run_suite", "suite_table"]

THEOREM3_GRID = (2, 3, 5, 10, 30, 100, 300, 1000, 3000)
THEOREM6_GRID = (64, 256, 1024, 4096, 16384)
# Theorem 6 has no explicit constant: the scaled d_W may grow 10% past its first value.
THEOREM6_GROWTH = 1.10
DEFAULT_TRIALS = 1000
FIND_ENUMERATION_CAP = 7  # find runs the quickselect kernel for each key over all n! permutations
# lemma5 evaluates Theta(N^3) cells at one N, and Theta(N^4) over every N up to
# it.  At this cap, on 2 vCPU, --n takes 0.04 s and --n-max (every N up to the
# cap) 1.4 s at a 160 MiB peak.
LEMMA5_CAP = 160
# lemma2 costs Theta(n^2) at one n and Theta(N^3) over every n up to N: its
# sweep (--n-max) stops at this N, which takes about 1.3 s on 2 vCPU.  One
# --n is cut at --cap only.
LEMMA2_CAP = 1000
# rootsplit checks every key up to this n and _spot_keys above it.  At n = 1000
# a spot key reaches band-cut blocks of the predecessor grid; at n <= 500 none does.
ROOTSPLIT_EVERY_KEY_MAX = 60
ROOTSPLIT_GRID = (1000,)
# arrival holds exact_depth_pmf to the arrival-time quadrature at the spot keys
# of each n of its grid, and from ARRIVAL_FEW_KEYS_N on at keys 2 and n/2 only,
# as one central grid law takes about 70 ms there.
ARRIVAL_GRID = (1000, 4096, 16384, 32768)
ARRIVAL_FEW_KEYS_N = 32768
ARRIVAL_TV = 1e-13
# lemma4b and metrics run in chunks of trials: 64 lemma4b trials are 128
# laws, whose ragged (k, atom) kernel takes about 0.4 MiB per array.
LEMMA4B_CHUNK = 64
METRICS_CHUNK = 256
# metrics draws pmfs of 1..PMF_MAX_WIDTH masses at offsets 0..PMF_MAX_OFFSET.
PMF_MAX_WIDTH = 24
PMF_MAX_OFFSET = 5

# A suite's checks, one column per param, then lhs, rhs and holds.
Columns = tuple[dict[str, Sequence], Sequence[float], Sequence[float | None], np.ndarray]


class Table:
    """One suite's checks in row order, as columns: one per param, then lhs,
    rhs (None on an informational row) and holds, a bool array.  A plain
    class: a dataclass would add about 0.3 ms to ``import depthlab.cli``."""

    def __init__(self, suite: str, params: dict[str, Sequence], lhs: Sequence[float],
                 rhs: Sequence[float | None], holds: np.ndarray):
        self.suite, self.params, self.lhs, self.rhs, self.holds = suite, params, lhs, rhs, holds

    def __len__(self) -> int:
        return len(self.holds)

    def rows(self, failed_only: bool = False) -> list[dict]:
        """The rows {suite, params, lhs, rhs, holds} as verify prints them, in Python scalars."""
        pick = np.flatnonzero(~self.holds) if failed_only else slice(None)
        names = list(self.params)
        columns = [np.asarray(column)[pick].tolist()
                   for column in (*self.params.values(), self.lhs, self.rhs, self.holds)]
        return [{"suite": self.suite, "params": dict(zip(names, values)),
                 "lhs": lhs, "rhs": rhs, "holds": holds}
                for *values, lhs, rhs, holds in zip(*columns)]


@dataclass(frozen=True)
class _Sweep:
    """The arguments of one suite run, with defaults resolved."""

    n: int | None
    n_max: int | None
    trials: int
    rng: np.random.Generator
    cap: int

    def sizes(self, default_max: int, cap: float = math.inf) -> Sequence[int]:
        """The single n, else 1..n_max (default_max if unset), cut at cap."""
        if self.n is not None:
            if self.n > cap:
                raise CapExceededError("exhaustive sweep", self.n, cap)
            return [self.n]
        return range(1, min(self.n_max or default_max, cap) + 1)

    def grid_sizes(self, grid: Sequence[int]) -> Sequence[int]:
        """The single n, else the points of a fixed grid up to n_max."""
        if self.n is not None:
            return [self.n]
        return [n for n in grid if n <= (self.n_max or grid[-1])]


def _within(tol: float, checks: Iterable[tuple[dict, Pmf | tuple, Pmf | tuple]]) -> Columns:
    """Route agreement: the TV between the two laws of each (params, a, b) check,
    held to tol.  A law is a Pmf or an (offset, masses) pair.  All laws go on one
    zero-padded grid for one _total_variation_rows pass: its fsum does not depend
    on order and padding adds exact zeros, so each row has the bits of
    total_variation(a, b)."""
    rows, laws = [], []
    for params, *pair in checks:
        rows.append(params)
        laws += [(law.offset, law.masses) if isinstance(law, Pmf) else law for law in pair]
    grid = np.zeros((len(laws), max((offset + len(m) for offset, m in laws), default=0)))
    for row, (offset, masses) in zip(grid, laws):
        row[offset : offset + len(masses)] = masses
    lhs = np.array(_total_variation_rows(grid[0::2], grid[1::2]))
    params = {name: [p[name] for p in rows] for name in (rows[0] if rows else ())}
    return params, lhs, np.full(lhs.size, tol), lhs <= tol


def _oracle(sw: _Sweep) -> Columns:
    checks = (({"n": n, "l": l}, exact_depth_pmf(n, l, n_cap=sw.cap), brute_force_depth_pmf(n, l))
              for n in sw.sizes(8, cap=BRUTE_FORCE_CAP) for l in range(1, n + 1))
    return _within(1e-12, checks)


def _recurrence_rows(sizes: Sequence[int], cap: int) -> Iterator[np.ndarray]:
    """The root-split rows of the given sizes; the cap is checked before any row is built."""
    top = max(sizes)
    if top > cap:
        raise CapExceededError("depth-law recurrence", top, cap)
    return _depth_law_rows(top, set(sizes))


def _moments(sw: _Sweep) -> Columns:
    depths = np.arange(_ROW_DEPTH_BINS, dtype=np.float64)
    sizes, keys_of, errors = [], [], []
    for row in _recurrence_rows(sw.sizes(500), sw.cap):
        n = len(row)
        # 20 evenly spread keys (every key when n <= 20).
        keys = np.array(sorted({round(1 + (n - 1) * i / 19) for i in range(20)}))
        laws = row[keys - 1, :-1]  # the depth >= K bin holds only booked dust
        mean = laws @ depths
        var = laws @ (depths * depths) - mean * mean
        kmean, kvar = _depth_moments(n, keys)
        mean_err = np.abs(mean - kmean)
        var_err = np.abs(var - kvar) / np.maximum(1.0, kvar)
        sizes.append(np.full(keys.size, n))
        keys_of.append(keys)
        errors.append(np.column_stack((mean_err, var_err)))
    # Two rows per key, the mean's and then the variance's.
    keys = np.concatenate(keys_of)
    params = {"n": np.repeat(np.concatenate(sizes), 2), "l": np.repeat(keys, 2),
              "check": np.tile(["mean", "variance"], keys.size)}
    lhs, rhs = np.concatenate(errors).ravel(), np.tile([1e-9, 1e-8], keys.size)
    return params, lhs, rhs, lhs <= rhs


def _spot_keys(n: int) -> list[int]:
    return sorted(l for l in {1, 2, math.ceil(n / 4), math.ceil(n / 2), n - 1, n} if 1 <= l <= n)


def _rootsplit(sw: _Sweep) -> Columns:
    sizes = sorted({*sw.sizes(ROOTSPLIT_EVERY_KEY_MAX), *sw.grid_sizes(ROOTSPLIT_GRID)})
    checks = []
    for row in _recurrence_rows(sizes, sw.cap):
        n = len(row)
        keys = range(1, n + 1) if n <= ROOTSPLIT_EVERY_KEY_MAX else _spot_keys(n)
        checks += [({"n": n, "l": l}, exact_depth_pmf(n, l, n_cap=sw.cap), (0, row[l - 1, :-1]))
                   for l in keys]
    return _within(1e-12, checks)


def _arrival(sw: _Sweep) -> Columns:
    checks = (({"n": n, "l": l}, _depth_pmf_by_arrival(n, l, n_cap=sw.cap)[0],
               exact_depth_pmf(n, l, n_cap=sw.cap))
              for n in sw.grid_sizes(ARRIVAL_GRID)
              for l in (_spot_keys(n) if n < ARRIVAL_FEW_KEYS_N else (2, n // 2)))
    return _within(ARRIVAL_TV, checks)


def _theorem3(sw: _Sweep) -> Columns:
    keys = [(n, l) for n in sw.grid_sizes(THEOREM3_GRID)
            for l in sorted({1, math.ceil(n / 4), math.ceil(n / 2), n})]
    reports = [poisson_bound_report(n, l, n_cap=sw.cap) for n, l in keys]
    return ({"n": [n for n, _ in keys], "l": [l for _, l in keys]}, [rep.lhs for rep in reports],
            [rep.rhs for rep in reports], np.array([rep.holds for rep in reports], dtype=bool))


def _theorem6(sw: _Sweep) -> Columns:
    sizes = sw.grid_sizes(THEOREM6_GRID)
    lhs = [mixpo_distance(n, 0.5, n_cap=sw.cap)[1] for n in sizes]
    # The first row is informational; each later one may grow THEOREM6_GROWTH past it.
    rhs = [THEOREM6_GROWTH * lhs[0] if i else None for i in range(len(lhs))]
    params = {"n": sizes, "t": [0.5] * len(lhs), "check": ["d_w_scaled"] * len(lhs)}
    return params, lhs, rhs, np.array([r is None or d <= r for d, r in zip(lhs, rhs)], dtype=bool)


def _lemma2(sw: _Sweep) -> Columns:
    sizes = sw.sizes(300, cap=sw.cap)[:LEMMA2_CAP]  # a sweep is 1..n_max, so this cuts it at n = LEMMA2_CAP
    lhs = np.concatenate([_mixing_variance_rows(n) for n in sizes])
    params = {"n": np.repeat(sizes, sizes), "l": np.concatenate([np.arange(1, n + 1) for n in sizes])}
    return params, lhs, np.full(lhs.size, MIXING_VARIANCE_BOUND), _holds(lhs, MIXING_VARIANCE_BOUND)


def _normalized(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Flat runs of sizes[i] > 0 values, each divided by its own sum."""
    return values / np.repeat(np.add.reduceat(values, np.cumsum(sizes) - sizes), sizes)


def _measure_draws(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    """count random measures as flat (sizes, locations, weights): all sizes (1 to
    7 atoms), all rates in [0, 20), then all weights, normalized per measure."""
    sizes = rng.integers(1, 8, size=count)
    locations = rng.random(sizes.sum()) * 20.0
    return sizes, locations, _normalized(rng.random(sizes.sum()) + 1e-3, sizes)


def _lemma4b(sw: _Sweep) -> Columns:
    """W1 of the mixed Poisson laws of two random measures against W1 of the
    measures, one chunked numpy pass: each chunk draws its trials' measures,
    mu before nu, in one _measure_draws call and puts them on one kernel.
    """
    lhs, rhs = [], []
    for start in range(0, sw.trials, LEMMA4B_CHUNK):
        measures = _measure_rows(*_measure_draws(sw.rng, 2 * min(LEMMA4B_CHUNK, sw.trials - start)))
        masses, _ = _mixed_poisson_rows(*measures)
        # Every law has mass at 0 (rates < 20), so W1 sums from k = 1.
        lhs += _wasserstein_rows(masses[0::2], masses[1::2], 1)
        rhs += _measure_wasserstein_rows(*measures)
    lhs, rhs = np.array(lhs), np.array(rhs) + 1e-8
    return {"trial": np.arange(sw.trials)}, lhs, rhs, lhs <= rhs


def _lemma5(sw: _Sweep) -> Columns:
    # Rows (N, M, n) with M, n = 1..N, n fastest: cases with n * M = 0 are skipped.
    sizes = sw.sizes(80, cap=LEMMA5_CAP)
    N = np.repeat(sizes, np.square(sizes))
    r = np.concatenate([np.arange(size * size) for size in sizes])
    M, n = r // N + 1, r % N + 1
    lhs, rhs = _hypergeometric_log_bound(N, M, n)
    return {"N": N, "M": M, "n": n}, lhs, rhs, _holds(lhs, rhs)


def _pmf_draws(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    """count random pmfs as flat (offsets, widths, masses): all widths, all
    offsets, then all masses, each positive and normalized per pmf."""
    widths = rng.integers(1, PMF_MAX_WIDTH + 1, size=count)
    offsets = rng.integers(0, PMF_MAX_OFFSET + 1, size=count)
    return offsets, widths, _normalized(rng.random(widths.sum()) + 1e-3, widths)


def _metrics(sw: _Sweep) -> Columns:
    """d_TV <= 2 d_W and |mean gap| <= d_W on pairs of random pmfs, one chunked
    numpy pass: each chunk draws its pmfs in one _pmf_draws call and puts
    them on one zero-padded grid over 0..PMF_MAX_OFFSET + PMF_MAX_WIDTH - 1.
    The drawn masses are positive and normalized, so every row is a valid Pmf.
    """
    ks = np.arange(PMF_MAX_OFFSET + PMF_MAX_WIDTH, dtype=np.float64)
    tvs, gaps, dws = [], [], []
    for start in range(0, sw.trials, METRICS_CHUNK):
        offsets, widths, masses = _pmf_draws(sw.rng, 2 * min(METRICS_CHUNK, sw.trials - start))
        grid = np.zeros((len(offsets), len(ks)))
        grid[(ks >= offsets[:, None]) & (ks < (offsets + widths)[:, None])] = masses
        p, q = grid[0::2], grid[1::2]
        tvs += _total_variation_rows(p, q)
        # W1 sums from the pair's lower offset, and never over k = 0, as wasserstein does.
        dws += _wasserstein_rows(p, q, np.maximum(1, np.minimum(offsets[0::2], offsets[1::2])))
        means = np.array(_fsum_rows(ks * grid))
        gaps.append(np.abs(means[0::2] - means[1::2]))
    dws = np.array(dws)
    # Two rows per trial: d_TV <= 2 d_W, then |mean gap| <= d_W.
    lhs = np.column_stack((tvs, np.concatenate(gaps))).ravel()
    rhs = np.column_stack((2.0 * dws + 1e-10, dws + 1e-10)).ravel()
    params = {"trial": np.repeat(np.arange(sw.trials), 2),
              "check": np.tile(["tv_le_2dw", "dw_ge_mean_gap"], sw.trials)}
    return params, lhs, rhs, lhs <= rhs


def _find(sw: _Sweep) -> Columns:
    checks = []
    for n in sw.sizes(FIND_ENUMERATION_CAP, cap=FIND_ENUMERATION_CAP):
        # Row r gives value v arrival time r[v - 1], shifted above the index
        # bits the kernel writes (uint8 holds them at n <= 7); the rows are
        # closed under inversion.
        keys = _permutation_array(n).astype(np.uint8) << _index_bits(n)
        for l in range(1, n + 1):
            # counts[r]: arrival orders on which quickselect for l recurses r times.
            counts = np.bincount(_find_recursions(keys, l), minlength=n)
            checks.append(({"n": n, "l": l}, (0, counts / math.factorial(n)),
                           brute_force_depth_pmf(n, l)))
    return _within(0.0, checks)


def _record_pmfs(m_max: int) -> Callable[[int], Pmf]:
    """record_count_pmf(m) for m <= m_max, bit for bit, from one _record_laws
    table: a column is a cumulative sum, so its entries up to m are those of
    m's own table.  Row m keeps m's columns 0..K and books the spill of
    column K over keys 1..m, summed in the same order."""
    table, _ = _record_laws(m_max, slice(None))

    @functools.lru_cache(maxsize=None)
    def law(m: int) -> Pmf:
        k = min(_record_support_bound(m), m)
        spill = np.cumsum(table[:m, k] / np.arange(1.0, m + 1.0))[-1] if k < m else 0.0
        return Pmf.from_masses(0, table[m, : k + 1], float(spill))

    return law


def _moves(sw: _Sweep) -> Columns:
    sizes = sw.sizes(30)
    if sizes[-1] > sw.cap:  # move_joint_pmf's error at the first n past the cap, before any table
        raise CapExceededError("exact depth computation", max(sizes[0], sw.cap + 1), sw.cap)
    record_pmf = _record_pmfs(sizes[-1])
    checks = []
    for n in sizes:
        for l in sorted({1, max(1, n // 2), n}):
            grid = move_joint_pmf(n, l, n_cap=sw.cap).grid
            checks += [({"n": n, "l": l, "check": "right"}, (1, grid.sum(axis=1)), record_pmf(l)),
                       ({"n": n, "l": l, "check": "left"}, (1, grid.sum(axis=0)),
                        record_pmf(n + 1 - l))]
    return _within(1e-12, checks)


SUITES: dict[str, Callable[[_Sweep], Columns]] = {
    f.__name__.lstrip("_"): f
    for f in (_oracle, _moments, _theorem3, _theorem6, _lemma2,
              _lemma4b, _lemma5, _metrics, _find, _moves, _rootsplit, _arrival)
}


def suite_table(name: str, *, n: int | None = None, n_max: int | None = None,
                trials: int | None = None, seed: int | None = None,
                cap: int = DEFAULT_N_CAP) -> Table:
    """The checks of one suite as a Table.

    ``n`` runs one size and ``n_max`` bounds the sizes; ``trials`` and ``seed`` drive lemma4b
    and metrics.  Unset values take the suite's defaults; an unknown name raises KeyError.
    """
    suite = SUITES[name]
    for flag, value in (("n", n), ("n_max", n_max), ("trials", trials)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    rng = np.random.default_rng(seed or 0)
    return Table(name, *suite(_Sweep(n, n_max, trials or DEFAULT_TRIALS, rng, cap)))


def run_suite(name: str, **flags) -> list[dict]:
    """Rows {suite, params, lhs, rhs, holds} of one suite, as ``verify --all-rows`` prints
    them; rhs is None on informational rows.  ``flags`` are suite_table's."""
    return suite_table(name, **flags).rows()
