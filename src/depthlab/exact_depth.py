"""Exact law of the depth of the node holding key l in a random BST of size n.

The depth splits into the number of right moves and left moves on the search
path; conditionally on the pair (i, j) of smaller/larger predecessor counts
these are independent record counts.  The exact pmf is
therefore a mixture, over an explicit joint grid for (i, j), of convolutions
of record-count laws.  The mixture is evaluated as two matrix products over a
banded grid: each block of rows is evaluated only over the columns that carry
mass, and the mass left out is bounded and booked in truncated_tail.  A cell
is a row factor times a column factor times an antidiagonal factor, so a
block is one product of a column vector with a Hankel view of an
antidiagonal vector, and rows are scaled to their exact mass in the product
with the record laws, not cell by cell.  The cost is O(c s + l s^2) with c
the number of band cells and s the record-pmf support width: the products,
plus one multiply per cell.  For a central key the band holds about 14% of
the l (n-l+1) grid cells at n = 16384 and 10% at n = 32768; the first
exact_depth_pmf(16384, 8192) in a process takes about 20 ms on 2 vCPU (AMD
EPYC), 3 ms of it in the record matrix, and (32768, 16384) about 50 ms.

A second exact route shares nothing with the grid: the root of a random BST
is uniform, so the laws of every key of every size up to N follow from the
root-split recurrence (_depth_law_rows) in Theta(N^2 K) time, K = 64 depth
bins.  That pays when all keys of all sizes are wanted, as in the moments
sweep.

A third route integrates over key l's arrival time (_depth_pmf_by_arrival):
given it, the two predecessor counts are independent binomials, so the law
is a one-dimensional integral, evaluated by Gauss-Legendre panels in a few
ms at n = 16384.  It shares only the record matrix with the grid.  Its
quadrature error is estimated, not bounded, so the banded grid stays the
certified route of exact_depth_pmf and everything that reports it; the
approximation reports (mixpo_distance, approx), which compare laws at about
1e-12, run on the quadrature.

Closed-form mean and variance, the explicit Poisson approximation bound, the
mixed Poisson Wasserstein distance and two auxiliary inequalities are exposed
as report operations, plus a brute-force enumeration oracle for small n.
Each inequality has one row kernel (_mixing_variance_lhs for Lemma 2,
_hypergeometric_log_bound for Lemma 5): its report calls it with one row,
and the verify suites with many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterator

import numpy as np

from .distributions import (
    BoundReport,
    Distance,
    Pmf,
    poisson_pmf,
    shared_harmonic_table,
    total_variation,
    wasserstein,
    _ln_table,  # perfbench counts this cache as exact_depth._ln_table
    _log_factorials,
    _pow2_at_least,
    _record_laws,
    _validate_nl,
)
from .mixing import ReflectedExponential, limit_mixing_measure, mixed_poisson_pmf
from .trees import _permutation_array

__all__ = [
    "CapExceededError",
    "PredecessorJoint",
    "MoveJoint",
    "DEFAULT_N_CAP",
    "BRUTE_FORCE_CAP",
    "predecessor_joint",
    "exact_depth_pmf",
    "move_joint_pmf",
    "depth_mean",
    "depth_variance",
    "poisson_bound_report",
    "mixpo_distance",
    "mixing_variance_report",
    "hypergeometric_log_bound_report",
    "brute_force_depth_pmf",
]

# Exact computation is capped by the time of the banded grid sweep: a central
# key at the cap evaluates ~10% of its l * (n - l + 1) grid cells, about 50 ms
# and under 5 MiB of transient arrays on 2 vCPU.
DEFAULT_N_CAP = 32768

# The enumeration oracle visits all n! permutations.
BRUTE_FORCE_CAP = 9

# Rows per grid block.  A central block's band at n = 16384 is about 1.4 MiB,
# near L2 size; 128 rows ran faster there than 256, 64 or 32.
_JD_BLOCK_ROWS = 128

# Cells per chunk of the batched Lemma 2 and Lemma 5 rows: a few float64
# arrays of this size (2 MiB each) are alive at once, whatever n or N is.
_MIXING_CHUNK_CELLS = 1 << 18
_HYPERGEOM_CHUNK_CELLS = 1 << 18

# The banded grid walk steps through columns in chunks of this many
# conditional standard deviations of j given i, and at least _JD_MIN_CHUNK.
_JD_CHUNK_SIGMAS = 2.0
_JD_MIN_CHUNK = 8
# Most log units that the two factors of a block, or of a piece of one, may
# span together (see _jd_cells).  Every cell then lies within e^{+-600} of the
# reference cell, 1: a row sum over at most 2^15 cells stays finite, and a
# cell within e^-40 of its row's peak, where the mass is, stays a normal
# number after a join.  A block past it is cut into equal pieces, which also
# keeps the running sums short where a row is flat over many columns.
_JD_FACTOR_SPAN = 600.0
_LOG2 = math.log(2.0)
# Depth bins of the root-split rows; the last bin holds depth >= this.
_ROW_DEPTH_BINS = 64

# Grid cells below this floor end the banded walk (see _jd_bands).
MASS_FLOOR = 1e-18
_LOG_MASS_FLOOR = math.log(MASS_FLOOR)

# The arrival-time rule: q Gauss-Legendre nodes per panel on u in
# [0, _ARRIVAL_HEAD / n] and on four equal panels in t = -log u; the law is the
# rule of 2q, and its distance to the rule of q is the error estimate.
_ARRIVAL_NODES = 15
_ARRIVAL_HEAD = 8
_ARRIVAL_T_PANELS = 4
# Each node's binomial pmf is evaluated on mean +- (this many sd + this many).
_ARRIVAL_SDS = 12.0
# How approx names the law it reports on.
ARRIVAL_ROUTE = "arrival-quadrature"


class CapExceededError(Exception):
    """Raised when a computation would exceed its configured size cap."""

    def __init__(self, what: str, n: int, cap: int):
        super().__init__(f"{what}: n={n} exceeds the cap {cap}")
        self.n = n
        self.cap = cap


@dataclass(frozen=True)
class PredecessorJoint:
    """Joint law of (smaller, larger) predecessor counts of key l.

    weights[i][j] = P(i earlier-inserted keys below l and j above l), for
    0 <= i <= l-1 and 0 <= j <= n-l.  Rows sum to 1/l and columns to
    1/(n-l+1), up to the cells cut from the grid's bands: each count is
    marginally uniform.
    """

    n: int
    l: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights.flags.writeable = False


@dataclass(frozen=True)
class MoveJoint:
    """Joint pmf of (right moves, left moves) on the path to key l.

    grid[r][s] = P(r right moves, s left moves).  truncated_tail is the
    booked bound on the mass the grid leaves out, not 1 - sum, so the grid
    sums to at least 1 - truncated_tail up to rounding.
    """

    n: int
    l: int
    grid: np.ndarray
    truncated_tail: float

    def __post_init__(self) -> None:
        self.grid.flags.writeable = False

    def right_marginal(self) -> Pmf:
        return Pmf.from_masses(0, self.grid.sum(axis=1), self.truncated_tail)

    def left_marginal(self) -> Pmf:
        return Pmf.from_masses(0, self.grid.sum(axis=0), self.truncated_tail)

    def depth_pmf(self) -> Pmf:
        masses = np.bincount(_antidiagonals(*self.grid.shape), weights=self.grid.ravel())
        return Pmf.from_masses(0, masses, self.truncated_tail)


@lru_cache(maxsize=8)
def _antidiagonals(r: int, s: int) -> np.ndarray:
    """i + j for each cell (i, j) of a flattened r x s grid: the depth bin it folds into."""
    diag = np.add.outer(np.arange(r), np.arange(s)).ravel()
    diag.flags.writeable = False
    return diag


def _jd_blocks(n: int, l: int):
    """Yield (i0, jlo, w, tail) for each block of rows of the joint predecessor grid.

    Cell (i, j) weighs C(l-1, i) C(n-l, j) / (n C(n-1, i+j)): a row factor
    times a column factor b_j = 1 / (j! (n-l-j)!) times an antidiagonal
    factor c_{i+j} = (i+j)! (n-1-i-j)!.  w[k, j - jlo] is cell (i0 + k, j)
    without its row factor, so each row of w is in a scale of its own: the
    caller scales row k to its exact mass 1/l minus tail[k].  The columns
    are cut to the band that _jd_bands finds, and tail[k] bounds row k's
    mass outside it.  Every block is written into one work buffer,
    allocated once and regrown only when a band is wider than any before
    it, so each yielded w is overwritten by the next block: a caller that
    keeps a block copies it.
    """
    width = n - l + 1
    jlo, jhi, tails = _jd_bands(n, l)
    # The steps of the log factors: dc[s] = log c_{s+1} - log c_s and
    # db[j] = log b_{j+1} - log b_j = log((n-l-j)/(j+1)), which is the same
    # table for n-l+1, reversed.
    dc, db = _log_steps(n), _log_steps(width)[::-1]
    buffer = np.empty(0)
    for k, (lo, hi) in enumerate(zip(jlo, jhi)):
        i0 = k * _JD_BLOCK_ROWS
        rows = min(_JD_BLOCK_ROWS, l - i0)
        size = rows * (hi - lo)
        if buffer.size < size:  # doubled, so that a widening band regrows it rarely
            buffer = np.empty(2 * size)
        w = buffer[:size].reshape(rows, hi - lo)
        _jd_cells(db, dc, i0, lo, w)
        yield i0, lo, w, tails[k, :rows]


def _log_steps(m: int) -> np.ndarray:
    """log((s+1)/(m-1-s)) for s = 0..m-2: the steps of log s! (m-1-s)!.

    Computed per call: a cache of tables per size held 0.2 MiB over a verify
    sweep to save about 2 us a call.
    """
    k = np.arange(1.0, m)
    steps = k / k[::-1]
    return np.log(steps, out=steps)


def _jd_cells(db: np.ndarray, dc: np.ndarray, i0: int, jlo: int, w: np.ndarray) -> None:
    """Write the cells of rows i0.. and columns jlo.. of the grid into w, without row factors.

    A block is eb[j] ec[k + j]: one multiply of the column factor with a
    Hankel view of the antidiagonal factor.  Each factor is the exp of a
    running sum of its log steps (_jd_factor_logs), so it carries none of
    the absolute rounding of a log-factorial table.  Where the two factors
    span more than _JD_FACTOR_SPAN together, the columns are cut into
    about sqrt(span / _JD_FACTOR_SPAN) equal pieces, and so on until every
    piece's span is within it.  Each piece has a frame of its own, and is
    joined to the one before it, row by row, by the ratio of their values
    at the column they share, never by absolute table values; then every
    row is scaled by its largest join.  A row's peak then stays within
    e^{+-_JD_FACTOR_SPAN} of 1.
    """
    rows, cols = w.shape
    pieces, todo = [], [(jlo, jlo + cols)]
    while todo:
        q0, q1 = todo.pop()
        f0 = q0 - 1 if q0 > jlo else q0  # a later piece starts at the column it shares
        lb, lc, span = _jd_factor_logs(db, dc, i0, rows, f0, q1)
        if span > _JD_FACTOR_SPAN and q1 - q0 > 1:
            # Past its trend, which each piece removes, a span grows as the width squared.
            cuts = np.linspace(q0, q1, min(q1 - q0, math.ceil(math.sqrt(span / _JD_FACTOR_SPAN))) + 1)
            cuts = cuts.astype(int)
            todo += zip(cuts[-2::-1].tolist(), cuts[:0:-1].tolist())
        else:
            pieces.append((q0 - f0, lb, lc))
    if len(pieces) == 1:
        _, lb, lc = pieces[0]
        np.multiply(_hankel(np.exp(lc, out=lc), rows, cols), np.exp(lb, out=lb), out=w)
        return
    joins, join, prev = [], np.zeros(rows), None
    for skip, lb, lc in pieces:
        if prev is not None:
            last = prev[0].size - 1
            join = join + (prev[0][last] + prev[1][last : last + rows]) - (lb[0] + lc[:rows])
        joins.append(join)
        prev = lb, lc
    top = np.maximum.reduce(joins)
    j = 0
    for (skip, lb, lc), join in zip(pieces, joins):
        part = w[:, j : j + lb.size - skip]
        np.multiply(_hankel(np.exp(lc[skip:]), rows, part.shape[1]), np.exp(lb[skip:]), out=part)
        part *= np.exp(join - top)[:, None]
        j += part.shape[1]


def _hankel(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The zero-copy view h[k, j] = v[k + j], built on v's buffer (which
    bounds-checks the strides) because sliding_window_view's own checks cost
    more than a whole small block."""
    return np.ndarray((rows, cols), buffer=v, strides=(v.itemsize, v.itemsize))


def _jd_factor_logs(db: np.ndarray, dc: np.ndarray, i0: int, rows: int, j0: int, j1: int
                    ) -> tuple[np.ndarray, np.ndarray, float]:
    """The log column factor on columns j0..j1-1, the log antidiagonal factor
    on s = i0+j0 .. i0+rows+j1-2, and the span of their sums (a bound on it
    where that is below _JD_FACTOR_SPAN).

    Both are taken outwards from a reference cell: about the middle row's
    mode, clipped to the piece.  The antidiagonal factor is the running sum
    of its steps, detrended by the slope g that flattens it there, which
    scales row i by e^{g i} only.  The column factor is the middle row's own
    log profile, a running sum of steps that do not cancel, less the
    antidiagonal factor along that row.  So the sums are small where the
    mass is, even where the two factors are large, and the reference cell
    is 1.
    """
    width, n = db.size + 1, dc.size + 1
    l = n - width + 1
    r = rows // 2
    i = i0 + r
    jref = (j0 + j1 - 1) // 2 if l == 1 else min(max(i * (width - 1) // (l - 1), j0), j1 - 1)
    sref = i + jref
    g = -float(dc[min(sref, n - 2)]) if n > 1 else 0.0
    row = _running_sum(db[j0 : j1 - 1] + dc[i + j0 : i + j1 - 1], jref - j0, 0.0)
    if rows == 1:  # one row is its own profile, with a unit antidiagonal factor
        return row, np.zeros(row.size), float(np.maximum.reduce(row) - min(row[0], row[-1]))
    lc = _running_sum(dc[i0 + j0 : i0 + rows + j1 - 2], sref - i0 - j0, -g)
    lb = row - lc[r : r + row.size]  # one rounding per column, not a running one
    # lb is log C(n-l, j) - g j and lc is -log C(n-1, s) + g s, up to constants,
    # and a log binomial coefficient of m spans at most m log 2.
    span = (n + width - 2) * _LOG2 + abs(g) * (lb.size + lc.size - 2)
    if span > _JD_FACTOR_SPAN:  # measure it: lb is concave and lc convex, so each has an extreme at an end
        span = (np.maximum.reduce(lb) - min(lb[0], lb[-1])) + (max(lc[0], lc[-1]) - np.minimum.reduce(lc))
    return lb, lc, float(span)


def _running_sum(steps: np.ndarray, ref: int, g: float) -> np.ndarray:
    """x[k] = sum of steps[ref:k] - g (k - ref), taken outwards from x[ref] = 0."""
    x = np.empty(steps.size + 1)
    x[ref] = 0.0
    right = x[ref + 1 :]
    np.subtract(steps[ref:], g, out=right)
    np.add.accumulate(right, out=right)
    if ref:
        left = x[ref - 1 :: -1]
        np.subtract(g, steps[ref - 1 :: -1], out=left)
        np.add.accumulate(left, out=left)
    return x


def _jd_bands(n: int, l: int) -> tuple[list[int], list[int], np.ndarray]:
    """Column band [jlo, jhi) of each block of rows, and per row (blocks x
    _JD_BLOCK_ROWS) the bound on the mass outside it.

    The search reads cells in log space off the log-factorial table,
    log w(i, j) = a_i + b_j + c_{i+j}, with a_i the log row factor
    -log n - log C(n-1, l-1) - log i! - log (l-1-i)!: the floor is an
    absolute mass, and far cells underflow binary64.  Row i peaks at
    j = ceil(i (n-l+1)/(l-1) - 1), and is log-concave in j (a product of
    two binomial coefficients in j).  A block's columns are
    walked outwards from its span of modes in chunks of step = about two
    conditional standard deviations of j given i.  A chunk [ja, ja + step)
    right of the modes ends the walk when at its inner column ja every row
    of the block is below MASS_FLOOR and decreasing: by log-concavity each
    row then decreases from ja onwards, so the whole chunk is below the
    floor.  That chunk is kept, and _geometric_tail bounds the cells beyond
    it.  The left side mirrors the right.  The walk is run for every block
    at once: the first chunk whose inner column passes for the block's
    nearest row (the last row on the right, the first on the left) is
    checked for every row, and later ones only if it fails.  A block whose
    modes span every column has no band to find, nor does any block of a
    grid whose first and last blocks both have none.
    """
    width = n - l + 1
    blocks = -(-l // _JD_BLOCK_ROWS)
    tail = np.zeros((blocks, _JD_BLOCK_ROWS))
    if l == 1:
        return [0], [width], tail  # one flat row: every column is a mode
    slope = width / (l - 1)
    # The modes move right with i, so no block has a band if the last starts
    # at column 0 and the first reaches the last column.
    if (math.floor(slope * ((blocks - 1) * _JD_BLOCK_ROWS) - 1.0) <= 0
            and math.floor(slope * (min(_JD_BLOCK_ROWS, l) - 1) - 1.0) + 2 >= width):
        return [0] * blocks, [width] * blocks, tail
    jlo, jhi = np.zeros(blocks, dtype=int), np.full(blocks, width)
    i0 = np.arange(0, l, _JD_BLOCK_ROWS)
    i1 = np.minimum(i0 + _JD_BLOCK_ROWS, l)
    lo = np.minimum(np.maximum(np.floor(slope * i0 - 1.0), 0), width - 1).astype(int)
    hi = np.minimum(np.floor(slope * (i1 - 1) - 1.0).astype(int) + 2, width)
    cut = np.flatnonzero((lo > 0) | (hi < width))
    lf = _log_factorials(n)
    a = (-math.log(n) - lf[n - 1] + lf[l - 1] + lf[n - l]) - (lf[:l] + lf[l - 1 :: -1])
    b = -(lf[:width] + lf[width - 1 :: -1])
    c = lf[:n] + lf[n - 1 :: -1]

    def cells(r: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return a[r] + b[cols] + c[r + cols]

    # Largest conditional variance of j given i in each block (beta-binomial).
    step = np.array([max(_JD_MIN_CHUNK, math.ceil(_JD_CHUNK_SIGMAS * math.sqrt(
        (n - l) * (m + 1) * (l - m) * (n + 1) / ((l + 1) ** 2 * (l + 2)))))
        for m in np.minimum(np.maximum((l - 1) // 2, i0[cut]), i1[cut] - 1).tolist()], dtype=int)
    # Both sides of every cut block at once: the right side walks up from hi,
    # the left down from lo - 1, and k = cut.size.
    k = cut.size
    rows = np.minimum(i0[cut, None] + np.arange(_JD_BLOCK_ROWS), i1[cut, None] - 1)
    rows = np.concatenate((rows, rows))
    stride = np.concatenate((step, -step))
    found = _jd_walk(cells, rows, np.concatenate((rows[:k, -1], rows[k:, 0])),
                     np.concatenate((hi[cut], lo[cut] - 1)), np.repeat([width - 1, 0], k), stride)
    right, left = found[:k] >= 0, found[k:] >= 0
    jhi[cut[right]] = np.minimum(found[:k][right] + step[right], width)
    jlo[cut[left]] = np.maximum(found[k:][left] + 1 - step[left], 0)
    # Past each band edge, a geometric tail at the ratio of its last two columns.
    edge = np.concatenate((jhi[cut] - 1, jlo[cut]))
    beyond = np.concatenate((width - jhi[cut], jlo[cut]))
    booked = np.flatnonzero(beyond > 0)
    if booked.size:
        r, edge = rows[booked], edge[booked, None]
        log_beyond = np.array([math.log(x) for x in beyond[booked].tolist()])
        terms = _geometric_tail(cells(r, edge), cells(r, edge - np.sign(stride[booked, None])),
                                log_beyond[:, None])
        # Right before left, as one row's two sides are added in this order.
        for half in (booked < k, booked >= k):
            tail[cut[booked[half] % k]] += terms[half]
    return jlo.tolist(), jhi.tolist(), tail


def _geometric_tail(log_edge, log_prev, log_beyond):
    """Bound on the mass past the edge of a log-concave row, from the log masses of the edge
    and the cell before it: the geometric sum at their ratio, capped at e^log_beyond edges."""
    log_ratio = np.minimum(log_edge - log_prev, 0.0)
    with np.errstate(divide="ignore"):
        log_geom = log_ratio - np.log(-np.expm1(log_ratio))
    return np.exp(log_edge + np.minimum(log_geom, log_beyond))


def _jd_walk(cells, rows: np.ndarray, near: np.ndarray, start: np.ndarray, stop: np.ndarray,
             step: np.ndarray) -> np.ndarray:
    """Per walk, the first inner column ja of start, start + step, ... (short
    of stop) at which every one of its rows is below MASS_FLOOR and
    decreasing away from the modes; -1 where there is none.

    The candidates of every walk are tried on its nearest row in one gather;
    only the first that row passes is tried on every row.
    """
    count = np.maximum(-((start - stop) // step), 0)  # ceil((stop - start) / step)
    walk = np.repeat(np.arange(start.size), count)
    ja = start[walk] + step[walk] * (np.arange(walk.size) - np.repeat(np.cumsum(count) - count, count))
    out = np.sign(step[walk])
    lw = cells(near[walk], ja)
    ok = (lw < _LOG_MASS_FLOOR) & (cells(near[walk], ja + out) < lw)
    found = np.full(start.size, -1)
    while ok.any():
        first = np.flatnonzero(ok)
        head = np.ones(first.size, dtype=bool)  # walk is ascending: keep each walk's first
        np.not_equal(walk[first[1:]], walk[first[:-1]], out=head[1:])
        pick = first[head]
        cols = ja[pick][:, None]
        r = rows[walk[pick]]
        lw = cells(r, cols)
        passed = pick[((lw < _LOG_MASS_FLOOR) & (cells(r, cols + out[pick, None]) < lw)).all(axis=1)]
        found[walk[passed]] = ja[passed]
        ok[pick] = False
        ok &= found[walk] < 0
    return found


def predecessor_joint(n: int, l: int) -> PredecessorJoint:
    """Materialize the full joint grid; memory is l * (n - l + 1) doubles.

    The cells outside each block's band (see _jd_bands) are zero: they
    carry less than the booked tail, below 1e-18 of a row's mass.  Capped at
    DEFAULT_N_CAP, which also bounds harmonic_mixing_measure, the consumer
    of this grid.
    """
    _validate_nl(n, l)
    if n > DEFAULT_N_CAP:
        raise CapExceededError("joint predecessor grid", n, DEFAULT_N_CAP)
    weights = np.zeros((l, n - l + 1))
    for i0, jlo, w, tail in _jd_blocks(n, l):
        # Rows to their mass; w lives in a buffer the next block overwrites.
        scale = (1.0 / l - tail) / np.add.reduce(w, axis=1)
        np.multiply(w, scale[:, None], out=weights[i0 : i0 + w.shape[0], jlo : jlo + w.shape[1]])
    return PredecessorJoint(n=n, l=l, weights=weights)


@lru_cache(maxsize=4)
def _record_matrix_pow2(m_pow2: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows 0..m of record-count masses on 0..K, plus per-row spilled tails."""
    rows, tails = _record_laws(m_pow2, slice(None))
    rows.flags.writeable = False
    tails.flags.writeable = False
    return rows, tails


def _record_matrix(m_max: int) -> tuple[np.ndarray, np.ndarray]:
    rows, tails = _record_matrix_pow2(_pow2_at_least(m_max))
    return rows[: m_max + 1], tails[: m_max + 1]


def _move_grid(n: int, l: int, n_cap: int) -> tuple[np.ndarray, float]:
    """Joint (right moves, left moves) grid via two blocked matrix products.

    G = R_small^T (JD @ R_large): accumulating blockwise over the banded
    joint grid keeps only one block's band alive at a time.  The reduction
    order over blocks is fixed, so results are reproducible.  The returned
    tail is the booked bound on dropped mass: the grid cells outside the
    bands, plus the record spills that _exact_records books.
    """
    rec, booked = _exact_records(n, l, n_cap)
    r_small = rec[:l]
    r_large = rec[: n - l + 1]
    grid = None
    for i0, jlo, w, tail in _jd_blocks(n, l):
        moves = w @ r_large[jlo : jlo + w.shape[1]]
        # Each record row sums to 1 less a spill below 1e-18, so the row sums
        # of the product are those of w: rows go to 1/l - tail here, not per cell.
        moves *= ((1.0 / l - tail) / np.add.reduce(moves, axis=1))[:, None]
        block = r_small[i0 : i0 + w.shape[0]].T @ moves
        del moves  # freed before the next block's product is allocated, which keeps the peak down
        if grid is None:
            grid = block
        else:
            grid += block
        if w.shape[1] < n - l + 1:  # a full-width band books no tail
            booked.append(float(tail.sum()))
    return grid, math.fsum(booked) if booked else 0.0


def _exact_records(n: int, l: int, n_cap: int) -> tuple[np.ndarray, list[float]]:
    """Checks (n, l) and the cap, then gives either exact route its record
    matrix and the record-law mass it loses, as a list to book.

    Each predecessor count is marginally uniform, so the spills t_m cut off
    the record matrix lose at most sum_i t_i / l + sum_j t_j / (n-l+1).
    """
    _validate_nl(n, l)
    if n > n_cap:
        raise CapExceededError("exact depth computation", n, n_cap)
    rec, rec_tails = _record_matrix(max(l - 1, n - l))
    if rec_tails[-1] == 0.0:  # tails grow with m; none are cut for small m
        return rec, []
    return rec, [float(rec_tails[:l].sum()) / l, float(rec_tails[: n - l + 1].sum()) / (n - l + 1)]


def _depth_pmf_by_arrival(n: int, l: int, n_cap: int = DEFAULT_N_CAP) -> tuple[Pmf, float]:
    """The depth law of key l by quadrature over its arrival time, and an
    estimate of the quadrature's error in total variation.

    Give every key an independent uniform arrival time and fix key l's time
    u.  The smaller and larger predecessor counts are then independent
    Bin(l-1, u) and Bin(n-l, u), so the move grid is
        G = int_0^1 f_{l-1}(u)^T f_{n-l}(u) du,
    with f_a(u) the law of the record count of Bin(a, u) keys
    (_arrival_laws), and the depth law is its antidiagonal sums.  The
    integrand is smooth in t = -log u, and _arrival_nodes gives the rule.
    The law is the rule of 2q nodes per panel, q = _ARRIVAL_NODES.  The
    estimate is its total variation distance to the rule of q nodes, which
    is not a bound.  truncated_tail books the record spills, as _move_grid
    does, and the binomial mass cut at each node, integrated by the rule.
    The cap is that of exact_depth_pmf.
    """
    rec, spills = _exact_records(n, l, n_cap)
    fine, coarse = (_arrival_rule(n, l, q, rec, spills)
                    for q in (2 * _ARRIVAL_NODES, _ARRIVAL_NODES))
    return fine, float(total_variation(fine, coarse))


def _arrival_rule(n: int, l: int, q: int, rec: np.ndarray, spills: list[float]) -> Pmf:
    """The depth law of _depth_pmf_by_arrival by the rule of q nodes per panel."""
    u, w = _arrival_nodes(n, q)
    small, cut_small = _arrival_laws(l - 1, u, rec)
    large, cut_large = _arrival_laws(n - l, u, rec)
    tail = math.fsum(spills + [float(w @ (cut_small + cut_large))])
    return MoveJoint(n, l, small.T @ (w[:, None] * large), tail).depth_pmf()


def _arrival_nodes(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u, ascending, and weights of the arrival-time rule on [0, 1].

    One Gauss-Legendre panel of q nodes on u in [0, h/n], h = _ARRIVAL_HEAD,
    and _ARRIVAL_T_PANELS equal panels of q nodes in t = -log u over
    [0, log(n/h)], where du = u dt.  For n <= 2h, one panel of 5q nodes on
    [0, 1].
    """
    if n <= 2 * _ARRIVAL_HEAD:
        x, w = _gauss_legendre(5 * q)
        return (x + 1.0) / 2.0, w / 2.0
    x, w = _gauss_legendre(q)
    width = math.log(n / _ARRIVAL_HEAD) / _ARRIVAL_T_PANELS
    t = (np.arange(_ARRIVAL_T_PANELS)[:, None] + (x + 1.0) / 2.0) * width
    u_t = np.exp(-t)
    head = _ARRIVAL_HEAD / n
    u = np.concatenate(((x + 1.0) * (head / 2.0), u_t[::-1, ::-1].ravel()))
    weights = np.concatenate((w * (head / 2.0), (w * u_t * (width / 2.0))[::-1, ::-1].ravel()))
    return u, weights


@lru_cache(maxsize=4)
def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre recurrence, polished by two Newton steps on P_q.  The weights
    are 2 / ((1 - x^2) P_q'(x)^2): over the depth laws of n <= 40 they left
    a TV error of 8e-16 against exact_depth_pmf, where the form
    2 (1 - x^2) / (q P_{q-1}(x))^2 left 2.5e-15.  numpy.polynomial's
    leggauss gives the same, but importing it costs about 2 ms in a fresh
    process.
    """
    k = np.arange(1.0, q)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        p, dp = _legendre(q, x)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * _legendre(q, x)[1] ** 2)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_q(x) and P_q'(x), by the three-term recurrence; |x| < 1."""
    prev, p = np.ones_like(x), x
    for j in range(1, q):
        prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
    return p, q * (x * p - prev) / (x * x - 1.0)


def _arrival_laws(a: int, u: np.ndarray, rec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row k: the record-count law f_a(u_k) = sum_m P(Bin(a, u_k) = m) rec[m];
    and the binomial mass each row leaves out.

    The binomial pmf is read in log space off the log-factorial table, on
    mean +- (_ARRIVAL_SDS sd + _ARRIVAL_SDS) at each node.  Each run of
    nodes from _window_runs shares one rectangle over the union of their
    windows, at most twice their own cells.  A binomial pmf is log-concave,
    so _geometric_tail bounds the mass past a cut edge of the rectangle.
    Each row is renormalized to 1 minus that bound, which removes the
    rounding of the log-space closed form.
    """
    laws = np.empty((u.size, rec.shape[1]))
    cut = np.zeros(u.size)
    if a == 0:
        laws[:] = rec[0]
        return laws, cut
    lf = _log_factorials(a)
    log_binom = lf[a] - (lf + lf[::-1])
    half = _ARRIVAL_SDS * np.sqrt(a * u * (1.0 - u)) + _ARRIVAL_SDS
    lo = np.maximum(np.floor(a * u - half), 0).astype(int)
    hi = np.minimum(np.ceil(a * u + half), a).astype(int) + 1
    log_v = np.log1p(-u)
    log_odds = np.log(u) - log_v
    for run in _window_runs(lo.tolist(), hi.tolist()):
        jlo, jhi = int(lo[run].min()), int(hi[run].max())
        lp = np.multiply.outer(log_odds[run], np.arange(jlo, jhi, dtype=np.float64))
        lp += log_binom[jlo:jhi]
        lp += a * log_v[run, None]
        for edge, prev, beyond in ((-1, -2, a + 1 - jhi), (0, 1, jlo)):
            if beyond:
                cut[run] += _geometric_tail(lp[:, edge], lp[:, prev], math.log(beyond))
        p = np.exp(lp, out=lp)
        p *= ((1.0 - cut[run]) / p.sum(axis=1))[:, None]
        laws[run] = p @ rec[jlo:jhi]
    return laws, cut


def _window_runs(lo: list[int], hi: list[int]) -> Iterator[slice]:
    """Split nodes 0..len-1 into runs whose rectangle, the run's nodes times
    its union window [min lo, max hi), has at most twice the cells of their
    own windows."""
    start, run_lo, run_hi, own = 0, lo[0], hi[0], hi[0] - lo[0]
    for k in range(1, len(lo)):
        new_lo, new_hi, new_own = min(run_lo, lo[k]), max(run_hi, hi[k]), own + hi[k] - lo[k]
        if (k + 1 - start) * (new_hi - new_lo) > 2 * new_own:
            yield slice(start, k)
            start, new_lo, new_hi, new_own = k, lo[k], hi[k], hi[k] - lo[k]
        run_lo, run_hi, own = new_lo, new_hi, new_own
    yield slice(start, len(lo))


def _depth_law_rows(n_max: int, sizes: Collection[int] | None = None) -> Iterator[np.ndarray]:
    """Yield row n for n = 1..n_max in ``sizes`` (default every n): the depth
    laws of keys 1..n as an (n, K+1) array.

    The root-split recurrence.  The root of a random BST of size n is uniform
    on 1..n: key l is the root (depth 0), or it has rank l in a left subtree
    of size r-1 (root r > l), or rank l-r in a right subtree of size n-r
    (root r < l).  So, one level deeper,
        n P_n(l) = delta_0 + shift_1( sum_{m=l}^{n-1} P_m(l) + sum_{r=1}^{l-1} P_{n-r}(l-r) ).
    The first sum runs down column l of the (m, l) triangle, the second down
    its diagonal m - l = n - l.  Keys l and m+1-l of size m are mirror images,
    so that diagonal holds the column n-l+1 sum, term for term and in the
    same order; every computed row is exactly symmetric, as it is the sum of
    two column sums in both orders.  One running sum per column therefore
    makes row n cost O(nK), and all rows O(n_max^2 K) time and O(n_max K)
    memory.  Column K = _ROW_DEPTH_BINS is an absorbing bin for depth >= K
    that the shift feeds, so the mass past depth K-1 is booked there, not
    lost.  Every step adds nonnegative numbers, so nothing cancels.  Every
    row is computed in one reused buffer; each yielded row is a fresh copy.
    """
    k = _ROW_DEPTH_BINS
    col = np.zeros((n_max, k + 1))  # col[l-1]: sum of P_m(l) over the rows m so far
    buffer = np.empty((n_max, k + 1))
    for n in range(1, n_max + 1):
        mirror = col[n - 1 :: -1]  # mirror[l-1] = col[n-l]: the diagonal n - l
        row = buffer[:n]
        row[:, 0] = 1.0
        np.add(col[:n, : k - 1], mirror[:, : k - 1], out=row[:, 1:k])
        row[:, k] = col[:n, k] + mirror[:, k]
        row[:, k] += col[:n, k - 1] + mirror[:, k - 1]
        row /= n
        col[:n] += row
        if sizes is None or n in sizes:
            yield row.copy()


def exact_depth_pmf(n: int, l: int, n_cap: int = DEFAULT_N_CAP) -> Pmf:
    """Exact pmf of the depth of the node holding key l."""
    return MoveJoint(n, l, *_move_grid(n, l, n_cap)).depth_pmf()


def move_joint_pmf(n: int, l: int, n_cap: int = DEFAULT_N_CAP) -> MoveJoint:
    """Joint pmf of right and left move counts on the path to key l."""
    grid, tail = _move_grid(n, l, n_cap)
    return MoveJoint(n=n, l=l, grid=grid, truncated_tail=tail)


def depth_mean(n: int, l: int) -> float:
    """Closed-form expected depth H_l + H_{n+1-l} - 2."""
    _validate_nl(n, l)
    return float(_depth_moments(n, l)[0])


def depth_variance(n: int, l: int) -> float:
    """Closed-form depth variance in terms of harmonic numbers."""
    _validate_nl(n, l)
    return float(_depth_moments(n, l)[1])


def _depth_moments(n: int, l):
    """Closed-form mean and variance of the depth of key l, an int or an int array.

    Elementwise, so an array of keys gets the same bits as one call per key.
    """
    h = shared_harmonic_table(n)
    r = n + 1 - l
    a = 2.0 * (n + 1) / (l * r)
    mean = h.H[l] + h.H[r] - 2.0
    var = a * h.H[n] + (1.0 - a) * (h.H[l] + h.H[r]) - h.H2[l] - h.H2[r] + 2.0 / (l * r) + 2.0
    return mean, var


# Explicit constant in the total-variation Poisson approximation bound.
POISSON_BOUND_CONSTANT = 28.0 + math.pi**2


def poisson_bound_report(n: int, l: int, n_cap: int = DEFAULT_N_CAP) -> BoundReport:
    """Check d_TV(exact law, Poisson with the same mean) <= (28 + pi^2)/log n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _poisson_bound_of(exact_depth_pmf(n, l, n_cap), n, l)


def _poisson_bound_of(exact: Pmf, n: int, l: int) -> BoundReport:
    """poisson_bound_report for an already computed exact law of key l, n >= 2."""
    lhs = total_variation(exact, poisson_pmf(depth_mean(n, l)))
    return BoundReport.check(float(lhs), POISSON_BOUND_CONSTANT / math.log(n))


def rank_to_key(n: int, t: float) -> int:
    """Key index round(n * t), half away from zero, clamped to 1..n-1."""
    return min(max(int(math.floor(n * t + 0.5)), 1), n - 1)


def mixpo_distance(
    n: int, t: float, n_cap: int = DEFAULT_N_CAP
) -> tuple[Distance, float]:
    """Wasserstein distance from the exact law at l = round(n t) to the
    mixed Poisson law with the reflected-exponential mixing measure.  The
    exact law is the arrival-time quadrature (_depth_pmf_by_arrival), which
    the arrival verify suite holds to exact_depth_pmf at TV 1e-13; the
    distance's error bound is made of booked tails only.

    Returns the distance and the distance scaled by sqrt(log n); the theory
    promises the scaled value stays bounded, with no explicit constant, so
    callers should assert boundedness or trends only.
    """
    measure = _mixpo_measure(n, t)
    law, _ = _depth_pmf_by_arrival(n, rank_to_key(n, t), n_cap)
    return _mixpo_distance_of(law, n, measure)


def _mixpo_measure(n: int, t: float) -> ReflectedExponential:
    """limit_mixing_measure(n, t) for mixpo_distance, which needs n >= 2."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return limit_mixing_measure(n, t)


def _mixpo_distance_of(exact: Pmf, n: int, measure: ReflectedExponential) -> tuple[Distance, float]:
    """mixpo_distance for an already computed exact law and its mixing measure."""
    d = wasserstein(exact, mixed_poisson_pmf(measure))
    return d, float(d) * math.sqrt(math.log(n))


# Lemma 2's bound on the variance of the harmonic mixing measure.
MIXING_VARIANCE_BOUND = 28.0


def mixing_variance_report(n: int, l: int) -> BoundReport:
    """Check that the variance of the harmonic mixing measure is at most 28.

    The measure is the law of H_I + H_J, with (I, J) the predecessor counts
    of key l.  Give every key an independent uniform arrival time and fix
    key l's time u: then I ~ Bin(a, u) and J ~ Bin(b, u) are independent,
    a = l-1 and b = n-l, and I, J are marginally uniform on 0..a and 0..b.
    Four harmonic sums give the variance:
        E[H_I] = H_{a+1} - 1, so E[H_I] + E[H_J] = depth_mean(n, l);
        E[H_I^2] = ((a+1) H_a^2 - (2a+1) H_a + 2a) / (a+1), and likewise J;
        E[H_I H_J] = int_0^1 g_a(u) g_b(u) du, where g_a(u) = E[H_Bin(a,u)],
                   = (H_{a+1} - 1) H_b - H_a b/(b+1)
                     + sum_{m=1..b} (H_a + H_{m+1} - H_{a+m+1}) / (m(m+1))
    by partial fractions.  The value is symmetric in (a, b), so b is taken
    as the shorter side and the sum is the only O(min(a, b)) step.
    """
    _validate_nl(n, l)
    lhs = _mixing_variance_lhs(n, np.array([min(l - 1, n - l)]))
    return BoundReport.check(lhs[0], MIXING_VARIANCE_BOUND)


def _mixing_variance_lhs(n: int, b: np.ndarray) -> np.ndarray:
    """mixing_variance_report's variance for each shorter side b = min(l-1, n-l).

    The cross-term sums are rectangles of cells (row, m), m = 1..max(b), over
    chunks of rows of at most _MIXING_CHUNK_CELLS cells.  Cells with m > b
    are padding: their H[a+m+1] lookups are clipped into the table, and they
    never enter the row's fsum.
    """
    H = shared_harmonic_table(n).H
    a = n - 1 - b
    k = np.array((a, b))
    h = H[k]
    (h_a, h_b), (h_a1, h_b1) = h, H[k + 1]
    # Squares of Python floats call C pow(); numpy's array square is x * x,
    # which differs from it in the last bit for about 0.1% of entries.
    h2 = np.array([x**2 for x in h.ravel().tolist()]).reshape(h.shape)
    k = k.astype(float)  # cast once, not in every operation below
    second_a, second_b = ((k + 1) * h2 - (2 * k + 1) * h + 2 * k) / (k + 1)
    mean = h_b1 + h_a1 - 2.0
    sums = np.empty(len(b))
    step = max(1, _MIXING_CHUNK_CELLS // max(1, int(b.max())))
    for r in range(0, len(b), step):
        rows = slice(r, r + step)
        m = np.arange(1, b[rows].max() + 1)
        terms = h_a[rows, None] + H[m + 1]
        terms -= H.take(a[rows, None] + m + 1, mode="clip")
        terms /= m * (m + 1)
        sums[rows] = [math.fsum(row[:width].tolist()) for width, row in zip(b[rows].tolist(), terms)]
    cross = (h_a1 - 1.0) * h_b - h_a * b / (b + 1) + sums
    return second_a + second_b + 2.0 * cross - mean * mean


def _mixing_variance_rows(n: int) -> np.ndarray:
    """The lhs of mixing_variance_report(n, l) for l = 1..n.

    The report depends on l only through b = min(l-1, n-l), so one kernel
    row per b = 0..(n-1)//2 serves the keys l = b+1 and n-b.
    """
    _validate_nl(n, 1)
    k = np.arange(n)
    return _mixing_variance_lhs(n, np.arange((n - 1) // 2 + 1))[np.minimum(k, n - 1 - k)]


def hypergeometric_log_bound_report(N: int, M: int, n: int) -> BoundReport:
    """Check E|log(X / EX)| 1{X > 0} for X hypergeometric against its bound.

    X counts the white balls among n draws without replacement from N balls
    of which M are white; EX = nM/N.  The right side is
    4 N log N / (n M) + 2 sqrt(N / (n M)).
    """
    if not 0 <= M <= N or not 0 <= n <= N:
        raise ValueError(f"need 0 <= M,n <= N, got N={N}, M={M}, n={n}")
    if n * M < 1:
        raise ValueError("degenerate case n*M = 0")
    lhs, rhs = _hypergeometric_log_bound(*(np.array([x]) for x in (N, M, n)))
    return BoundReport.check(lhs[0], rhs[0])


def _hypergeometric_log_bound(
    N: np.ndarray, M: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of hypergeometric_log_bound_report for each row (N, M, n)
    of three int arrays, all n * M >= 1.

    Row r's pmf terms are the k of its own support lo..hi, lo = max(1,
    n+M-N) and hi = min(n, M).  The rows of one support width w are one
    rectangle k = lo[:, None] + arange(w), cut into chunks of at most
    _HYPERGEOM_CHUNK_CELLS cells, so no lookup leaves a row's support and no
    cell is padding.  Each row's terms are summed by math.fsum, which does
    not depend on their order, and the sum goes back to the row's position.
    """
    lf = _log_factorials(int(N.max()))
    lo = np.maximum(1, n + M - N)
    width = np.minimum(n, M) - lo + 1
    lhs = np.empty(len(N))
    order = np.argsort(width, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        w = int(width[group[0]])
        step = max(1, _HYPERGEOM_CHUNK_CELLS // w)
        for s in range(0, len(group), step):
            rows = group[s : s + step]
            r = rows[:, None]
            lhs[rows] = _hypergeometric_log_sums(lf, N[r], M[r], n[r], lo[r], w)
    nm = n * M
    # 4 N log N by math.log, once per run of rows with equal N.
    cuts = np.flatnonzero(np.diff(N)) + 1
    scale = [4.0 * x * math.log(x) for x in N[np.r_[0, cuts]].tolist()]
    rhs = np.repeat(scale, np.diff(np.r_[0, cuts, len(N)])) / nm + 2.0 * np.sqrt(N / nm)
    return lhs, rhs


def _hypergeometric_log_sums(lf: np.ndarray, N: np.ndarray, M: np.ndarray, n: np.ndarray,
                             lo: np.ndarray, w: int) -> np.ndarray:
    """math.fsum over k = lo..lo+w-1 of P(X = k) |log(k / EX)| for column vectors of rows.

    k = lo + j is written into each lookup, and every other array is an
    expression temporary, so only the terms and their list are alive at the fsum.
    """
    j = np.arange(w)
    t = lf[M] - lf[lo + j]
    t -= lf[(M - lo) - j]
    t += (lf[N - M] - lf[(n - lo) - j]) - lf[(N - M - n + lo) + j]
    t -= (lf[N] - lf[n]) - lf[N - n]
    np.exp(t, out=t)
    t *= np.abs(np.log((lo + j) / (n * M / N)))
    cells = iter(t.ravel().tolist())
    return np.fromiter(map(math.fsum, zip(*[cells] * w)), float, len(N))


@lru_cache(maxsize=16)
def _brute_depth_counts(n: int) -> tuple[tuple[int, ...], ...]:
    """counts[l-1][d] = number of permutations of 1..n whose tree puts l at depth d.

    Builds the trees of all n! permutations at once, by the usual insertion
    rule: child[r, key, side] is row r's left (side 0) or right (side 1)
    child of key, 0 for none.  Each value is inserted into every row in turn,
    walking down one tree level per step with the rows still looking for a
    free slot, so the depths are those of a literal tree build.
    """
    perms = _permutation_array(n)
    rows = perms.shape[0]
    child = np.zeros((rows, n + 1, 2), dtype=np.int8)
    depth = np.zeros((rows, n + 1), dtype=np.int8)
    every_row = np.arange(rows)
    for t in range(1, n):
        r, node, v = every_row, perms[:, 0], perms[:, t]
        for d in range(1, t + 1):  # the t keys already placed bound the depth
            side = (v > node).view(np.int8)
            nxt = child[r, node, side]
            free = nxt == 0
            placed_r, placed_v = r[free], v[free]
            child[placed_r, node[free], side[free]] = placed_v
            depth[placed_r, placed_v] = d
            if free.all():
                break
            walk = ~free
            r, node, v = r[walk], nxt[walk], v[walk]
    return tuple(tuple(np.bincount(depth[:, l], minlength=n).tolist()) for l in range(1, n + 1))


def brute_force_depth_pmf(n: int, l: int) -> Pmf:
    """Depth pmf of key l from enumerating every permutation and building its tree.

    Integer counts over n! permutations, so the only rounding is the final
    division.  All n! trees are built at once, by insertion, and the counts
    are shared across all l for a given n; at BRUTE_FORCE_CAP the build
    peaks at about 24 MiB.
    """
    _validate_nl(n, l)
    if n > BRUTE_FORCE_CAP:
        raise CapExceededError("brute-force enumeration", n, BRUTE_FORCE_CAP)
    counts = _brute_depth_counts(n)[l - 1]
    fact = math.factorial(n)
    masses = np.array([c / fact for c in counts])
    return Pmf.from_masses(0, masses)
