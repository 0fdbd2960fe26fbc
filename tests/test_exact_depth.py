"""Exact depth law: grid, pmf, moments, bounds and the enumeration oracle."""

import json
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.special import gammaln

from depthlab import exact_depth
from depthlab.distributions import (
    BoundReport,
    Pmf,
    _pow2_at_least,
    mean_var,
    record_count_pmf,
    shared_harmonic_table,
    total_variation,
)
from depthlab.exact_depth import (
    BRUTE_FORCE_CAP,
    DEFAULT_N_CAP,
    MIXING_VARIANCE_BOUND,
    MASS_FLOOR,
    CapExceededError,
    _HYPERGEOM_CHUNK_CELLS,
    _JD_BLOCK_ROWS,
    _JD_CHUNK_SIGMAS,
    _JD_MIN_CHUNK,
    _MIXING_CHUNK_CELLS,
    _arrival_laws,
    _arrival_nodes,
    _brute_depth_counts,
    _depth_law_rows,
    _depth_pmf_by_arrival,
    _gauss_legendre,
    _hypergeometric_log_bound,
    _jd_bands,
    _jd_blocks,
    _ln_table,
    _log_factorials,
    _mixing_variance_rows,
    brute_force_depth_pmf,
    depth_mean,
    depth_variance,
    exact_depth_pmf,
    hypergeometric_log_bound_report,
    mixing_variance_report,
    mixpo_distance,
    move_joint_pmf,
    poisson_bound_report,
    predecessor_joint,
    rank_to_key,
)
from depthlab.mixing import harmonic_mixing_measure, measure_variance
from depthlab.trees import _insert_keys
from depthlab.verify import run_suite


# ------------------------------------------------------------ joint grid


def test_joint_corner_cell_is_one_over_n():
    for n, l in ((2, 1), (7, 3), (40, 40), (11, 1)):
        jd = predecessor_joint(n, l)
        assert jd.weights[0, 0] == pytest.approx(1.0 / n, rel=1e-12)


def test_joint_3_2_from_enumeration():
    # Tally (smaller predecessors, larger predecessors) of key 2 over all 3!
    # permutations: each of the diagonal cells carries 1/3, off-diagonal 1/6.
    jd = predecessor_joint(3, 2)
    expected = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    np.testing.assert_allclose(jd.weights, expected, atol=1e-14)


def test_joint_4_2_single_cell():
    jd = predecessor_joint(4, 2)
    # (1/4) * C(3,1) * C(0,0) / C(3,1)
    assert jd.weights[1, 2] == pytest.approx(0.25, rel=1e-12)


def test_joint_marginals_uniform():
    # Both predecessor counts are marginally uniform; checked up to n = 300.
    for n in range(1, 301):
        for l in {1, min(2, n), max(n // 2, 1), max(n - 1, 1), n}:
            jd = predecessor_joint(n, l)
            rows = jd.weights.sum(axis=1)
            cols = jd.weights.sum(axis=0)
            np.testing.assert_allclose(rows, 1.0 / l, rtol=1e-11)
            np.testing.assert_allclose(cols, 1.0 / (n - l + 1), rtol=1e-11)


def test_joint_domain():
    with pytest.raises(ValueError):
        predecessor_joint(3, 0)
    with pytest.raises(ValueError):
        predecessor_joint(3, 4)


def test_joint_cap(monkeypatch):
    # The cap is checked before any block is built.  l = 1 keeps the grid one
    # row, so a missing check shows as a return, never as a huge allocation.
    with pytest.raises(CapExceededError) as err:
        predecessor_joint(DEFAULT_N_CAP + 1, 1)
    assert f"cap {DEFAULT_N_CAP}" in str(err.value)
    # The cap is read at call time, so the boundary can be checked at small n.
    monkeypatch.setattr(exact_depth, "DEFAULT_N_CAP", 100)
    with pytest.raises(CapExceededError):
        predecessor_joint(101, 50)
    assert predecessor_joint(100, 50).weights.shape == (50, 51)


# ------------------------------------------------------------ dense oracle
#
# The full grid by the log-ratio recurrence along each row, every cell kept:
# an independent route to the same law as the banded closed-form kernel.


def _dense_joint(n, l):
    i = np.arange(l)[:, None]
    j = np.arange(n - l)[None, :]
    lt = np.log(np.maximum(np.arange(n + 1.0), 1.0))
    start = -math.log(n) + gammaln(n - i) - gammaln(l - i) - gammaln(n) + gammaln(l)
    log_ratio = lt[i + j + 1] + lt[n - l - j] - lt[j + 1] - lt[n - 1 - i - j]
    w = np.exp(np.hstack((start, start + np.cumsum(log_ratio, axis=1))))
    return w * ((1.0 / l) / w.sum(axis=1, keepdims=True))


@lru_cache(maxsize=1)
def _record_rows(m_max=16384, k=64):
    # rows[m] = law of the record count of m keys: Bernoulli(1/i) sums.
    rows = np.zeros((m_max + 1, k))
    rows[0, 0] = 1.0
    for m in range(1, m_max + 1):
        rows[m] = rows[m - 1] * (1.0 - 1.0 / m)
        rows[m, 1:] += rows[m - 1, :-1] / m
    return rows


def _dense_depth_pmf(n, l):
    rec = _record_rows()
    grid = rec[:l].T @ _dense_joint(n, l) @ rec[: n - l + 1]
    k = grid.shape[0]
    diag = np.add.outer(np.arange(k), np.arange(k)).ravel()
    return Pmf.from_masses(0, np.bincount(diag, weights=grid.ravel()))


def _oracle_keys(n):
    return sorted({l for l in (1, 2, -(-n // 4), -(-n // 2), n - 1, n) if 1 <= l <= n})


# Keys whose last block is one row short of, exactly, or one row past a full
# block, and one past two blocks.
_BLOCK_EDGE_CASES = [(3000, l) for l in (_JD_BLOCK_ROWS - 1, _JD_BLOCK_ROWS, _JD_BLOCK_ROWS + 1,
                                         2 * _JD_BLOCK_ROWS + 1)]


def test_exact_matches_dense_oracle():
    cases = [(n, l) for n in (1, 2, 3, 10, 257, 1000, 3000) for l in _oracle_keys(n)]
    # At l = 100 one block's modes span more than the whole row width.
    for n, l in cases + _BLOCK_EDGE_CASES + [(16384, 100)]:
        d = total_variation(exact_depth_pmf(n, l), _dense_depth_pmf(n, l))
        assert float(d) < 1e-12, (n, l, float(d))


def test_joint_grid_matches_dense_oracle_across_blocks():
    # The blocks are built in one reused buffer, so the full grid must copy
    # each block before the next one overwrites it.
    for n, l in ((600, 300), (1000, 999)):
        assert l > 2 * _JD_BLOCK_ROWS
        dense = _dense_joint(n, l)
        np.testing.assert_allclose(predecessor_joint(n, l).weights, dense, rtol=0, atol=1e-15)


# Keys whose grids have band-cut blocks of every shape: narrow and wide grids,
# first, middle and short last blocks.
_BAND_CASES = [(257, l) for l in range(1, 258, 16)]
_BAND_CASES += [(3000, 750), (3000, 1500), (16384, 100)] + _BLOCK_EDGE_CASES


def test_booked_tail_covers_out_of_band_mass():
    for n, l in _BAND_CASES:
        dense = _dense_joint(n, l)
        outside = 0.0
        for i0, jlo, w, tail in _jd_blocks(n, l):
            rows = dense[i0 : i0 + w.shape[0]]
            row_out = rows[:, :jlo].sum(axis=1) + rows[:, jlo + w.shape[1] :].sum(axis=1)
            assert np.all(tail >= row_out), (n, l, i0)
            outside += float(row_out.sum())
        assert exact_depth_pmf(n, l).truncated_tail >= outside, (n, l)
        assert move_joint_pmf(n, l).truncated_tail >= outside, (n, l)


def _reference_band(n, l, i0, i1):
    """Test-side reference for one block of _jd_bands: the per-block walk,
    which evaluates every row of the block on every candidate column.

    Returns (jlo, jhi, tail) for rows i0..i1-1, cells read off the
    log-factorial closed form a_i + b_j + c_{i+j} in the same order of
    additions as the library.
    """
    lf = _log_factorials(n)
    width = n - l + 1
    a = (-math.log(n) - lf[n - 1] + lf[l - 1] + lf[n - l]) - (lf[:l] + lf[l - 1 :: -1])
    b = -(lf[:width] + lf[width - 1 :: -1])
    c = lf[:n] + lf[n - 1 :: -1]
    rows = np.arange(i0, i1)[:, None]

    def cells(cols):
        return a[rows] + b[cols] + c[rows + cols]

    tail = np.zeros(i1 - i0)
    if l == 1:
        return 0, width, tail
    slope = (n - l + 1) / (l - 1)
    lo = min(max(math.floor(slope * i0 - 1.0), 0), width - 1)
    hi = min(math.floor(slope * (i1 - 1) - 1.0) + 2, width)
    if lo == 0 and hi == width:
        return 0, width, tail
    i_mid = min(max((l - 1) // 2, i0), i1 - 1)
    var = (n - l) * (i_mid + 1) * (l - i_mid) * (n + 1) / ((l + 1) ** 2 * (l + 2))
    step = max(_JD_MIN_CHUNK, math.ceil(_JD_CHUNK_SIGMAS * math.sqrt(var)))
    right = np.arange(hi, width - 1, step)
    left = np.arange(lo - 1, 0, -step)
    lw_in = cells(np.concatenate((right, left)))
    lw_out = cells(np.concatenate((right + 1, left - 1)))
    ok = ((lw_in < math.log(MASS_FLOOR)) & (lw_out < lw_in)).all(axis=0)
    ok_right, ok_left = ok[: right.size], ok[right.size :]
    jhi = min(int(right[ok_right.argmax()]) + step, width) if ok_right.any() else width
    jlo = max(int(left[ok_left.argmax()]) + 1 - step, 0) if ok_left.any() else 0
    for edge, prev, beyond in ((jhi - 1, jhi - 2, width - jhi), (jlo, jlo + 1, jlo)):
        if beyond == 0:
            continue
        lw = cells(np.array([edge, prev]))
        log_ratio = np.minimum(lw[:, 0] - lw[:, 1], 0.0)
        with np.errstate(divide="ignore"):
            log_geom = log_ratio - np.log(-np.expm1(log_ratio))
        tail += np.exp(lw[:, 0] + np.minimum(log_geom, math.log(beyond)))
    return jlo, jhi, tail


def test_band_search_makes_the_per_block_walks_decisions():
    # The one vectorized search must cut every band where the per-block walk
    # does and book the same tail bits: no speedup from a narrower band or a
    # looser bound.
    for n, l in _BAND_CASES + [(16384, 8192), (16384, 8193), (32768, 16384)]:
        jlo, jhi, tail = _jd_bands(n, l)
        assert len(jlo) == len(jhi) == -(-l // _JD_BLOCK_ROWS)
        for k, i0 in enumerate(range(0, l, _JD_BLOCK_ROWS)):
            i1 = min(i0 + _JD_BLOCK_ROWS, l)
            ref_lo, ref_hi, ref_tail = _reference_band(n, l, i0, i1)
            assert (jlo[k], jhi[k]) == (ref_lo, ref_hi), (n, l, i0)
            assert np.array_equal(tail[k, : i1 - i0], ref_tail), (n, l, i0)


def test_keys_just_below_n_match_their_mirror_keys():
    # Grids of at most four columns: the factors carry no log-factorial
    # rounding, which once left TV 5e-13 between these mirror keys.
    for n in (4096, 32768):
        for k in (1, 2, 3):
            d = float(total_variation(exact_depth_pmf(n, n - k), exact_depth_pmf(n, k + 1)))
            assert d <= 1e-14, (n, k, d)


def test_cut_blocks_match_the_arrival_law(monkeypatch):
    # Wide blocks of few rows are cut into pieces, each joined to the last at
    # a shared column.  A join by absolute log-table values left TV 5-8e-14.
    calls = []
    factor_logs = exact_depth._jd_factor_logs
    monkeypatch.setattr(exact_depth, "_jd_factor_logs", lambda *a: calls.append(a) or factor_logs(*a))
    for n, l in ((16384, 1), (16384, 2), (16384, 3), (16384, 100), (32768, 2)):
        calls.clear()
        d = float(total_variation(exact_depth_pmf(n, l), _depth_pmf_by_arrival(n, l)[0]))
        assert d <= 2e-14, (n, l, d)
        if l > 1:  # one row is summed whole; these blocks take more than one piece
            assert len(calls) > 1, (n, l)


def test_extreme_keys_at_large_n_are_shifted_record_laws():
    # A single-column grid (l = n) and a single-row grid (l = 1) carry no
    # truncation, so their booked tails stay at record-law dust.
    n = 16384
    rec = record_count_pmf(n).shifted(-1)
    for l in (1, n):
        p = exact_depth_pmf(n, l)
        assert float(total_variation(p, rec)) < 1e-13, l
        assert p.truncated_tail < 1e-20, l


# ------------------------------------------------------------ exact pmf


def test_exact_depth_root_only():
    p = exact_depth_pmf(1, 1)
    assert p.mass_at(0) == 1.0


def test_exact_depth_3_2_is_uniform():
    p = exact_depth_pmf(3, 2)
    np.testing.assert_allclose(p.masses, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)


def test_exact_depth_4_2_literal():
    p = exact_depth_pmf(4, 2)
    np.testing.assert_allclose(
        p.masses, [1 / 4, 7 / 24, 1 / 3, 1 / 8], atol=1e-14
    )


def test_exact_matches_brute_force_everywhere_small():
    for n in range(1, 8):
        for l in range(1, n + 1):
            d = total_variation(exact_depth_pmf(n, l), brute_force_depth_pmf(n, l))
            assert float(d) < 1e-12


def test_exact_depth_symmetry():
    for n, l in ((9, 2), (30, 7), (151, 40)):
        p = exact_depth_pmf(n, l)
        q = exact_depth_pmf(n, n + 1 - l)
        assert p.offset == q.offset
        np.testing.assert_allclose(p.masses, q.masses, atol=1e-12)


def test_exact_depth_extreme_keys_are_shifted_record_laws():
    for n in (2, 5, 23, 100):
        rec = record_count_pmf(n).shifted(-1)
        for l in (1, n):
            d = total_variation(exact_depth_pmf(n, l), rec)
            assert float(d) < 1e-12


def _row_law(row, l):
    return Pmf.from_masses(0, row[l - 1, :-1], float(row[l - 1, -1]))


def test_root_split_rows_match_the_banded_route():
    *rows, big = _depth_law_rows(3000, {*range(1, 121), 3000})
    small = {len(row): row for row in rows}
    worst = max(
        float(total_variation(_row_law(row, l), exact_depth_pmf(n, l)))
        for n, row in small.items() for l in range(1, n + 1)
    )
    assert worst <= 1e-13, worst
    for l in _oracle_keys(3000):
        d = float(total_variation(_row_law(big, l), exact_depth_pmf(3000, l)))
        assert d <= 1e-13, (l, d)


def test_root_split_rows_match_brute_force():
    for row in _depth_law_rows(8):
        n = len(row)
        for l in range(1, n + 1):
            d = float(total_variation(_row_law(row, l), brute_force_depth_pmf(n, l)))
            assert d <= 1e-15, (n, l, d)


def test_root_split_rows_of_chosen_sizes_are_the_full_sequence_rows():
    every = list(_depth_law_rows(200))
    chosen = list(_depth_law_rows(200, {1, 2, 64, 65, 199}))
    assert [len(row) for row in chosen] == [1, 2, 64, 65, 199]
    assert all(np.array_equal(row, every[len(row) - 1]) for row in chosen)
    assert not any(np.shares_memory(a, b) for a, b in zip(every, every[1:]))  # fresh copies
    assert list(_depth_law_rows(10, set())) == []


def test_root_split_rows_book_the_deep_tail():
    k = exact_depth._ROW_DEPTH_BINS
    spill = 0.0
    for row in _depth_law_rows(1000):
        n = len(row)
        assert row.shape == (n, k + 1)
        assert np.abs(row.sum(axis=1) - 1.0).max() <= 1e-14, n
        if n <= k:
            assert not row[:, -1].any(), n  # depth is at most n - 1 < K
        spill = max(spill, float(row[:, -1].max()))
    assert 0.0 < spill < 1e-20  # the bin does fill, and only with dust, by n = 1000


# ------------------------------------------------------------ arrival-time quadrature


@pytest.mark.parametrize("q", [1, 2, 15, 30, 75, 150])
def test_gauss_legendre_matches_leggauss(q):
    from numpy.polynomial.legendre import leggauss

    x, w = _gauss_legendre(q)
    ref_x, ref_w = leggauss(q)
    assert np.abs(x - ref_x).max() <= 1e-15
    # Both round their nodes, which moves the smallest end weights the most.
    assert np.abs(w / ref_w - 1.0).max() <= 1e-10
    assert abs(w.sum() - 2.0) <= 1e-14


@pytest.mark.parametrize("n", [2, 16, 17, 1000, 32768])
def test_arrival_nodes_integrate_polynomials_and_ascend(n):
    u, w = _arrival_nodes(n, 15)
    assert np.all(np.diff(u) > 0) and 0.0 < u[0] and u[-1] < 1.0
    assert u.size == 75 and np.all(w > 0)
    for k in (0, 1, 2, 5):
        assert abs(w @ u**k - 1.0 / (k + 1)) <= 1e-14, k


def test_arrival_law_matches_the_grid_at_every_key_up_to_40():
    for n in range(1, 41):
        for l in range(1, n + 1):
            law, estimate = _depth_pmf_by_arrival(n, l)
            d = float(total_variation(law, exact_depth_pmf(n, l)))
            assert d <= 1e-13, (n, l, d)
            assert 0.0 <= estimate <= 1e-13, (n, l, estimate)
            assert law.truncated_tail == 0.0  # no record spill or binomial cut this small


def test_arrival_law_books_record_spills_and_binomial_cuts():
    law, estimate = _depth_pmf_by_arrival(16384, 8192)
    grid = exact_depth_pmf(16384, 8192)
    assert float(total_variation(law, grid)) <= 1e-13
    assert 0.0 < estimate <= 1e-13
    # The same record spills as the grid books, which has its band tails on top.
    rec_tails = exact_depth._record_matrix(8192)[1]
    spills = rec_tails[:8192].sum() / 8192 + rec_tails.sum() / 8193
    assert spills <= law.truncated_tail < grid.truncated_tail
    assert abs(math.fsum(law.masses.tolist()) + law.truncated_tail - 1.0) <= 1e-14


@pytest.mark.parametrize("a", [1, 40, 2000])
def test_arrival_laws_book_a_bound_on_each_binomial_cut(a):
    # Against each node's whole binomial pmf, from scipy's gammaln: the rows
    # agree, and the booked cut bounds the mass its run's rectangle left out.
    u, _ = _arrival_nodes(4 * a + 1, 30)
    rec = exact_depth._record_matrix(a)[0]
    laws, cut = _arrival_laws(a, u, rec)
    m = np.arange(a + 1)
    lp = gammaln(a + 1) - gammaln(m + 1) - gammaln(a - m + 1)
    p = np.exp(lp + np.multiply.outer(np.log(u), m) + np.multiply.outer(np.log1p(-u), a - m))
    # The log-space closed form rounds: its masses sum to 1 within 2e-12 at a = 2000.
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-11
    assert np.abs(laws - (p / p.sum(axis=1)[:, None]) @ rec).max() <= 1e-14
    assert np.all(cut >= 0.0) and cut.max() <= 1e-25
    half = exact_depth._ARRIVAL_SDS * (np.sqrt(a * u * (1 - u)) + 1)
    lo = np.maximum(np.floor(a * u - half), 0).astype(int)
    hi = np.minimum(np.ceil(a * u + half), a).astype(int) + 1
    runs = list(exact_depth._window_runs(lo.tolist(), hi.tolist()))
    assert [r.start for r in runs[1:]] == [r.stop for r in runs[:-1]] and runs[-1].stop == u.size
    for run in runs:
        inside = (m >= lo[run].min()) & (m < hi[run].max())
        outside = p[run][:, ~inside].sum(axis=1)
        assert np.all(cut[run] >= outside), (run, cut[run], outside)
    if a == 2000:
        assert len(runs) > 1 and cut.max() > 0.0  # the test reaches cut rectangles


def test_arrival_law_honours_the_cap_and_domain():
    with pytest.raises(CapExceededError) as err:
        _depth_pmf_by_arrival(100, 50, n_cap=50)
    assert "cap 50" in str(err.value)
    for l in (0, 6):
        with pytest.raises(ValueError):
            _depth_pmf_by_arrival(5, l)


def test_exact_depth_cap():
    with pytest.raises(CapExceededError) as err:
        exact_depth_pmf(100, 50, n_cap=50)
    assert "cap 50" in str(err.value)


def test_exact_depth_domain():
    with pytest.raises(ValueError):
        exact_depth_pmf(5, 0)
    with pytest.raises(ValueError):
        exact_depth_pmf(5, 6)


# ------------------------------------------------------------ moments


def test_depth_mean_examples():
    assert depth_mean(1, 1) == 0.0
    assert depth_mean(3, 2) == pytest.approx(1.0, abs=1e-14)
    assert depth_mean(4, 2) == pytest.approx(float(Fraction(4, 3)), abs=1e-14)


def test_depth_variance_spot_values():
    assert depth_variance(3, 2) == pytest.approx(float(Fraction(2, 3)), abs=1e-12)
    assert depth_variance(4, 2) == pytest.approx(float(Fraction(35, 36)), abs=1e-12)
    assert depth_variance(2, 1) == pytest.approx(0.25, abs=1e-12)


def test_moment_identities_sampled_grid():
    # The full n <= 500 sweep runs in the acceptance module; spot-check here.
    for n in (10, 57, 200):
        for l in sorted({1, 2, n // 3 or 1, n // 2 or 1, n}):
            p = exact_depth_pmf(n, l)
            mean, var = mean_var(p)
            assert abs(mean - depth_mean(n, l)) < 1e-9
            kv = depth_variance(n, l)
            assert abs(var - kv) <= 1e-8 * max(1.0, kv)


# ------------------------------------------------------------ move joint


def test_move_joint_2_1():
    mj = move_joint_pmf(2, 1)
    # Key 1 never moves right; one left move when inserted second.
    assert mj.grid[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert mj.grid[0, 1] == pytest.approx(0.5, abs=1e-14)
    assert np.all(mj.grid[1:, :] < 1e-15)


def test_move_joint_3_2_witnesses_dependence():
    mj = move_joint_pmf(3, 2)
    joint_00 = mj.grid[0, 0]
    right0 = mj.right_marginal().mass_at(0)
    left0 = mj.left_marginal().mass_at(0)
    assert joint_00 == pytest.approx(1 / 3, abs=1e-14)
    assert right0 * left0 == pytest.approx(1 / 4, abs=1e-14)
    assert abs(joint_00 - right0 * left0) > 0.08


def test_move_joint_marginals_are_record_laws():
    for n, l in ((3, 2), (8, 3), (40, 17), (60, 1)):
        mj = move_joint_pmf(n, l)
        d_right = total_variation(mj.right_marginal().shifted(1), record_count_pmf(l))
        d_left = total_variation(
            mj.left_marginal().shifted(1), record_count_pmf(n + 1 - l)
        )
        assert float(d_right) < 1e-12
        assert float(d_left) < 1e-12


def test_move_joint_sums_to_depth_pmf():
    for n, l in ((5, 3), (31, 12)):
        d = total_variation(move_joint_pmf(n, l).depth_pmf(), exact_depth_pmf(n, l))
        assert float(d) < 1e-14


# ------------------------------------------------------------ bound reports


def test_poisson_bound_3_2():
    rep = poisson_bound_report(3, 2)
    assert rep.lhs == pytest.approx(0.1493936, abs=1e-6)
    assert rep.rhs == pytest.approx((28 + math.pi**2) / math.log(3), rel=1e-12)
    assert rep.holds


def test_poisson_bound_2_1():
    assert poisson_bound_report(2, 1).holds


def test_poisson_bound_1000_500_regression():
    rep = poisson_bound_report(1000, 500)
    assert rep.holds
    assert rep.lhs < 0.2


def test_poisson_bound_requires_n_ge_2():
    with pytest.raises(ValueError):
        poisson_bound_report(1, 1)


def test_mixpo_distance_basics():
    d, scaled = mixpo_distance(2, 0.5)
    assert float(d) >= 0.0 and math.isfinite(float(d))
    assert scaled == pytest.approx(float(d) * math.sqrt(math.log(2)), rel=1e-12)
    with pytest.raises(ValueError):
        mixpo_distance(100, 0.0)
    with pytest.raises(ValueError):
        mixpo_distance(100, 1.0)


def test_mixpo_distance_symmetric_in_t():
    # n*t = 2.5 rounds to 3 and n*(1-t) = 7.5 rounds to 8 = n+1-3, so both
    # runs hit mirror keys and the same mixing measure.
    d1, s1 = mixpo_distance(10, 0.25)
    d2, s2 = mixpo_distance(10, 0.75)
    assert float(d1) == pytest.approx(float(d2), abs=1e-10)
    assert s1 == pytest.approx(s2, abs=1e-10)


def test_rank_to_key_rounding_and_clamping():
    assert rank_to_key(10, 0.25) == 3
    assert rank_to_key(10, 0.5) == 5
    assert rank_to_key(10, 0.999) == 9
    assert rank_to_key(2, 0.01) == 1


def test_mixing_variance_examples():
    rep = mixing_variance_report(1, 1)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14) and rep.holds
    rep = mixing_variance_report(3, 2)
    assert rep.lhs == pytest.approx(2 / 3, abs=1e-12) and rep.holds
    rep = mixing_variance_report(300, 150)
    assert rep.holds


def mpmath_mixing_variance(n, l, dps=40):
    """Oracle: variance of H_I + H_J under the hypergeometric form of the
    predecessor joint, P(I=i, J=j) = C(l-1, i) C(n-l, j) / (n C(n-1, i+j)),
    in dps-digit arithmetic.  Returns (total weight, variance)."""
    with mp.workdps(dps):
        H = [mpf(0)]
        for k in range(1, n + 1):
            H.append(H[-1] + mpf(1) / k)
        a = [math.comb(l - 1, i) for i in range(l)]
        b = [math.comb(n - l, j) for j in range(n - l + 1)]
        c = [n * math.comb(n - 1, s) for s in range(n)]
        total = mean = second = mpf(0)
        for i in range(l):
            for j in range(n - l + 1):
                w = mpf(a[i] * b[j]) / c[i + j]
                x = H[i] + H[j]
                total += w
                mean += w * x
                second += w * x * x
        return total, second - mean * mean


def test_mixing_variance_matches_mpmath_at_baseline_point():
    baseline = json.loads((Path(__file__).parent / "data" / "baselines.json").read_text())
    at = tuple(baseline["mixing_variance_max"]["at"])
    # (300, 2) and (300, 299) have l - 1 = 1 and n - l = 1: the shortest sums.
    for n, l in (at, (300, 2), (300, 299)):
        total, var = mpmath_mixing_variance(n, l)
        assert abs(total - 1) < 1e-30
        assert abs(mixing_variance_report(n, l).lhs - float(var)) < 1e-12, (n, l)
        if (n, l) == at:
            assert abs(baseline["mixing_variance_max"]["value"] - float(var)) < 1e-15


def test_mixing_variance_matches_harmonic_measure_grid():
    # The closed form against the variance of the H_i + H_j grid measure,
    # one report call and one suite row per key.
    rows = iter(run_suite("lemma2", n_max=40))
    for n in range(1, 41):
        for l in range(1, n + 1):
            grid = measure_variance(harmonic_mixing_measure(predecessor_joint(n, l)))
            assert abs(mixing_variance_report(n, l).lhs - grid) < 1e-12, (n, l)
            row = next(rows)
            assert row["params"] == {"n": n, "l": l}
            assert abs(row["lhs"] - grid) < 1e-12, (n, l)


def scalar_mixing_variance(n, l):
    """Test-side reference: mixing_variance_report's formula one key at a
    time, with a scalar square of H_k (C pow()) and one fsum over m = 1..b."""
    mean = depth_mean(n, l)
    H = shared_harmonic_table(n).H
    a, b = max(l - 1, n - l), min(l - 1, n - l)

    def second_moment(k):
        return ((k + 1) * H[k] ** 2 - (2 * k + 1) * H[k] + 2 * k) / (k + 1)

    m = np.arange(1, b + 1)
    cross = (H[a + 1] - 1.0) * H[b] - H[a] * b / (b + 1) + math.fsum(
        ((H[a] + H[2 : b + 2] - H[a + 2 : a + b + 2]) / (m * (m + 1))).tolist()
    )
    return BoundReport.check(second_moment(a) + second_moment(b) + 2.0 * cross - mean * mean,
                             MIXING_VARIANCE_BOUND)


def test_lemma2_rows_equal_the_scalar_reference():
    rows = run_suite("lemma2")
    expected = [(n, l) for n in range(1, 301) for l in range(1, n + 1)]
    assert [(r["params"]["n"], r["params"]["l"]) for r in rows] == expected
    for r in rows:
        ref = scalar_mixing_variance(r["params"]["n"], r["params"]["l"])
        assert (r["lhs"], r["rhs"], r["holds"]) == (ref.lhs, ref.rhs, ref.holds), r["params"]
    # H_491^2 and H_1229^2 are the first entries where numpy's array square
    # differs in the last bit from the scalar square.
    for n in (600, 1300):
        for l, lhs in enumerate(_mixing_variance_rows(n).tolist(), start=1):
            ref = scalar_mixing_variance(n, l)
            assert lhs == ref.lhs, (n, l)
            assert mixing_variance_report(n, l) == ref, (n, l)


def test_mixing_variance_report_memory_is_linear_in_n():
    n, l = 4096, 2048
    mixing_variance_report(n, l)  # fill the table caches outside the trace
    tracemalloc.start()
    try:
        mixing_variance_report(n, l)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One pass over the shorter side; the location grid would be 33.6 MB.
    assert peak < 4 * n * 8


def test_lemma2_rows_memory_is_one_chunk():
    # Every key of n = 4000: 2000 kernel rows of up to 1999 cells, in chunks
    # of _MIXING_CHUNK_CELLS cells.  One rectangle took 92 MiB here.
    n = 4000
    _mixing_variance_rows(n)  # fill the table caches outside the trace
    tracemalloc.start()
    try:
        lhs = _mixing_variance_rows(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * _MIXING_CHUNK_CELLS * 8
    for l in (1, 1000, 2000, 4000):
        assert lhs[l - 1] == scalar_mixing_variance(n, l).lhs, l


# ------------------------------------------------------------ hypergeometric bound


def test_hypergeom_bound_full_draw_degenerate():
    rep = hypergeometric_log_bound_report(5, 3, 5)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.holds


def test_hypergeom_bound_two_point():
    rep = hypergeometric_log_bound_report(2, 1, 1)
    assert rep.lhs == pytest.approx(0.5 * math.log(2), abs=1e-12)
    assert rep.rhs == pytest.approx(8 * math.log(2) + 2 * math.sqrt(2), abs=1e-12)
    assert rep.holds


def test_hypergeom_bound_80_40_20():
    assert hypergeometric_log_bound_report(80, 40, 20).holds


def test_hypergeom_bound_domain():
    with pytest.raises(ValueError):
        hypergeometric_log_bound_report(2, 0, 1)
    with pytest.raises(ValueError):
        hypergeometric_log_bound_report(2, 3, 1)


def scalar_hypergeometric_log_bound(N, M, n):
    """Test-side reference: hypergeometric_log_bound_report's formula for one
    (N, M, n), the pmf over the row's own support k_lo..k_hi."""
    ex = n * M / N
    ks = np.arange(max(0, n - (N - M)), min(n, M) + 1)
    lf = _log_factorials(N)
    pmf = np.exp(
        (lf[M] - lf[ks] - lf[M - ks]) + (lf[N - M] - lf[n - ks] - lf[N - M - n + ks])
        - (lf[N] - lf[n] - lf[N - n])
    )
    positive = ks >= 1
    lhs = math.fsum((pmf[positive] * np.abs(np.log(ks[positive] / ex))).tolist())
    rhs = 4.0 * N * math.log(N) / (n * M) + 2.0 * math.sqrt(N / (n * M))
    return BoundReport.check(lhs, rhs)


def test_lemma5_rows_equal_the_scalar_reference():
    rows = run_suite("lemma5", n_max=40)
    expected = [(N, M, n) for N in range(1, 41) for M in range(1, N + 1) for n in range(1, N + 1)]
    assert [(r["params"]["N"], r["params"]["M"], r["params"]["n"]) for r in rows] == expected
    for r in rows:
        ref = scalar_hypergeometric_log_bound(r["params"]["N"], r["params"]["M"], r["params"]["n"])
        assert (r["lhs"], r["rhs"], r["holds"]) == (ref.lhs, ref.rhs, ref.holds), r["params"]


def test_lemma5_rows_match_exact_rational_pmf():
    # An oracle that shares no table with the kernel: the pmf as an exact
    # ratio of binomial coefficients, rounded once to a float.
    comb = lru_cache(maxsize=None)(math.comb)
    worst = 0.0
    for r in run_suite("lemma5", n_max=40):
        N, M, n = r["params"]["N"], r["params"]["M"], r["params"]["n"]
        total = comb(N, n)
        ref = math.fsum(
            float(Fraction(comb(M, k) * comb(N - M, n - k), total)) * abs(math.log(k * N / (n * M)))
            for k in range(max(1, n + M - N), min(n, M) + 1)
        )
        if ref == 0.0:
            assert abs(r["lhs"]) <= 1e-15, (N, M, n)
        else:
            worst = max(worst, abs(r["lhs"] - ref) / ref)
        assert r["rhs"] == 4.0 * N * math.log(N) / (n * M) + 2.0 * math.sqrt(N / (n * M)), (N, M, n)
    assert worst <= 2e-13, worst


def test_lemma5_rows_memory_is_one_chunk():
    # The rows (2000, M, 500), M = 1..2000.  For 500 <= M <= 1501 the support
    # is k = 1..500: one group of 1002 rows and 501000 cells, about two chunks.
    N, n = 2000, 500
    M = np.arange(1, N + 1)
    _log_factorials(N)  # fill the table cache outside the trace
    tracemalloc.start()
    try:
        lhs, rhs = _hypergeometric_log_bound(np.full(N, N), M, np.full(N, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A few chunk-sized arrays; the group as one rectangle is 4 MB per array.
    assert peak < 6 * _HYPERGEOM_CHUNK_CELLS * 8
    for row in (999, N - 1):  # M = 1000 in the large group, and the last row
        ref = scalar_hypergeometric_log_bound(N, int(M[row]), n)
        assert (lhs[row], rhs[row]) == (ref.lhs, ref.rhs), row


def test_hypergeometric_report_memory_is_its_support():
    # One report evaluates k over its own support only.  Measured peaks with
    # numpy 2.4.6: 0.32 MB for (20000, 10000, 5000), a support of 5000, and
    # 2 kB for (20000, 10000, 19999), a support of 2; a k = 1..N rectangle
    # takes 1.28 MB on either.
    for N, M, n in ((20000, 10000, 5000), (20000, 10000, 19999)):
        support = min(n, M) - max(1, n + M - N) + 1
        hypergeometric_log_bound_report(N, M, n)  # fill the table cache outside the trace
        tracemalloc.start()
        try:
            hypergeometric_log_bound_report(N, M, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * support + 16384, (N, M, n, peak)


def test_log_factorials_are_prefixes_of_one_table_per_power_of_two():
    largest = _ln_table(_pow2_at_least(1025))
    for n in (0, 1, 2, 3, 5, 8, 9, 40, 200, 1000, 1025):
        got = _log_factorials(n)
        assert got.tobytes() == largest[: n + 1].tobytes(), n
    _ln_table.cache_clear()
    for n in range(1, 201):
        _log_factorials(n)
    assert _ln_table.cache_info().misses == len({_pow2_at_least(n) for n in range(1, 201)})


def test_ln_table_within_4_ulps_of_gammaln():
    table = _ln_table(1 << 15)
    ref = gammaln(np.arange(1.0, (1 << 15) + 2.0))
    assert table[:2].tolist() == [0.0, 0.0]
    assert np.all(np.abs(table - ref) <= 4 * np.spacing(ref))


# ------------------------------------------------------------ brute force


def test_brute_force_2_2():
    p = brute_force_depth_pmf(2, 2)
    np.testing.assert_allclose(p.masses, [0.5, 0.5], atol=0)


def test_brute_force_3_1_is_shifted_record_law():
    p = brute_force_depth_pmf(3, 1)
    np.testing.assert_allclose(p.masses, [1 / 3, 1 / 2, 1 / 6], atol=1e-15)


def test_brute_force_4_2_literal():
    p = brute_force_depth_pmf(4, 2)
    np.testing.assert_allclose(p.masses, [1 / 4, 7 / 24, 1 / 3, 1 / 8], atol=1e-15)


def test_brute_depth_counts_equal_a_tree_build_per_permutation():
    for n in range(1, 9):
        counts = [[0] * n for _ in range(n)]
        for values in permutations(range(1, n + 1)):
            for key, depth in enumerate(_insert_keys(values)[2][1:]):
                counts[key][depth] += 1
        assert _brute_depth_counts(n) == tuple(map(tuple, counts)), n


def test_brute_force_memory_at_the_cap():
    # 9! rows: the int8 permutation and child tables plus the index arrays of
    # one insertion step measured 23.8 MiB.
    brute_force_depth_pmf(2, 1)  # import-time and table caches outside the trace
    _brute_depth_counts.cache_clear()
    tracemalloc.start()
    try:
        brute_force_depth_pmf(BRUTE_FORCE_CAP, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


def test_brute_force_cap():
    with pytest.raises(CapExceededError):
        brute_force_depth_pmf(BRUTE_FORCE_CAP + 1, 1)


# ------------------------------------------------------------ normality direction


def test_sc_centering_stays_bounded():
    # |E depth at the median key - 2 log n| approaches 2*gamma - 2 - 2*log 2;
    # it must stay bounded as n grows.
    gaps = []
    for n in (100, 1000, 10_000, 100_000):
        l = (n + 1) // 2
        gaps.append(abs(depth_mean(n, l) - 2 * math.log(n)))
    assert all(g < 3.0 for g in gaps)
    limit = abs(2 * 0.5772156649015329 - 2 - 2 * math.log(2))
    assert gaps[-1] == pytest.approx(limit, abs=0.01)
