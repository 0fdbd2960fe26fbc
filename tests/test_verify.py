"""Verify suites: the enumerating and per-key suites run batched kernels, not per-row calls."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from depthlab.distributions import Pmf, mean_var, record_count_pmf, total_variation, wasserstein
from depthlab.exact_depth import CapExceededError, _brute_depth_counts, _jd_blocks
from depthlab.mixing import (
    DiscreteMeasure,
    _measure_rows,
    _mixed_poisson_rows,
    measure_wasserstein,
    mixed_poisson_pmf,
)
from depthlab.verify import (
    ARRIVAL_TV,
    LEMMA4B_CHUNK,
    METRICS_CHUNK,
    PMF_MAX_OFFSET,
    PMF_MAX_WIDTH,
    ROOTSPLIT_EVERY_KEY_MAX,
    _measure_draws,
    _pmf_draws,
    _record_pmfs,
    _within,
    run_suite,
)


def _forbid(monkeypatch, name):
    """Make every depthlab module's binding of ``name`` fail the test when called."""

    def unexpected(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    bound = [mod for key, mod in list(sys.modules.items())
             if key.startswith("depthlab") and hasattr(mod, name)]
    assert bound, name
    for mod in bound:
        monkeypatch.setattr(mod, name, unexpected)


@pytest.mark.parametrize(
    "suite, kwargs, per_row",
    [
        ("find", {}, "find_select"),
        ("lemma2", {"n_max": 60}, "mixing_variance_report"),
        ("oracle", {}, "_insert_keys"),
        ("moments", {"n_max": 60}, "exact_depth_pmf"),
        ("lemma4b", {}, "mixed_poisson_pmf"),
        ("lemma4b", {}, "measure_wasserstein"),
        ("metrics", {}, "total_variation"),
        ("metrics", {}, "wasserstein"),
        ("metrics", {}, "mean_var"),
        ("lemma5", {"n_max": 20}, "hypergeometric_log_bound_report"),
        ("oracle", {}, "total_variation"),
        ("find", {}, "total_variation"),
        ("moves", {}, "total_variation"),
        ("rootsplit", {"n_max": 20}, "total_variation"),
    ],
)
def test_suite_makes_no_per_row_call(monkeypatch, suite, kwargs, per_row):
    _brute_depth_counts.cache_clear()  # the oracle and find suites enumerate afresh
    _forbid(monkeypatch, per_row)
    rows = run_suite(suite, **kwargs)
    assert rows and all(r["holds"] for r in rows)


def test_within_has_the_bits_of_total_variation_pair_by_pair():
    # Random laws at offsets 0..5 of widths 1..24 and one-cell laws, half of
    # them passed as (offset, masses) pairs.
    rng = np.random.default_rng(27)
    offsets, widths, masses = _pmf_draws(rng, 400)
    pmfs = [Pmf(int(o), m) for o, m in zip(offsets, np.split(masses, np.cumsum(widths)[:-1]))]
    pmfs += [Pmf.delta(k) for k in range(PMF_MAX_OFFSET + 1)] * 2
    pmfs = [pmfs[i] for i in rng.permutation(len(pmfs))]
    as_pair = rng.random(len(pmfs)) < 0.5
    laws = [(p.offset, p.masses) if pair else p for p, pair in zip(pmfs, as_pair)]
    checks = [({"pair": i}, a, b) for i, (a, b) in enumerate(zip(laws[0::2], laws[1::2]))]
    params, lhs, rhs, holds = _within(0.5, checks)
    assert params["pair"] == list(range(len(checks)))
    assert list(lhs) == [float(total_variation(p, q)) for p, q in zip(pmfs[0::2], pmfs[1::2])]
    assert np.array_equal(rhs, np.full(len(checks), 0.5)) and np.array_equal(holds, lhs <= 0.5)
    params, lhs, rhs, holds = _within(1e-12, [])
    assert params == {} and len(lhs) == len(rhs) == len(holds) == 0


def test_rootsplit_reaches_a_band_cut_block():
    # moments no longer calls the banded route, and no band cuts at n <= 500:
    # rootsplit's spot keys must reach the blocks whose tails are booked.
    rows = run_suite("rootsplit")
    assert rows and all(r["holds"] for r in rows)
    spots = [(r["params"]["n"], r["params"]["l"]) for r in rows
             if r["params"]["n"] > ROOTSPLIT_EVERY_KEY_MAX]
    assert any(w.shape[1] < n - l + 1 for n, l in spots for _, _, w, _ in _jd_blocks(n, l))


def test_arrival_holds_the_grid_to_the_quadrature_at_spot_keys():
    rows = run_suite("arrival")
    assert rows and all(r["holds"] and r["rhs"] == ARRIVAL_TV for r in rows)
    keys = [(r["params"]["n"], r["params"]["l"]) for r in rows]
    for n in (1000, 4096, 16384):
        expected = [1, 2, -(-n // 4), -(-n // 2), n - 1, n]
        assert [l for m, l in keys if m == n] == expected
    assert [l for m, l in keys if m == 32768] == [2, 16384]
    assert max(r["lhs"] for r in rows) <= 1e-13
    assert [(r["params"]["n"], r["params"]["l"]) for r in run_suite("arrival", n=3)] == [
        (3, 1), (3, 2), (3, 3)]
    with pytest.raises(CapExceededError):
        run_suite("arrival", n=1000, cap=999)


# Reference routes for the batched lemma4b and metrics suites: the same draws,
# one library call chain per trial.


def _chunk_draws(draw, chunk, seed, trials):
    """The flat draws of each chunk of a suite's trials, made as the suite makes them."""
    rng = np.random.default_rng(seed)
    for start in range(0, trials, chunk):
        yield draw(rng, 2 * min(chunk, trials - start))


def _split(sizes, *flat):
    """Flat per-item runs of sizes[i] values, one tuple of runs per item."""
    cuts = np.cumsum(sizes)[:-1]
    return list(zip(*(np.split(values, cuts) for values in flat)))


def _drawn_measures(seed, trials):
    return [(loc, w) for sizes, locations, weights in
            _chunk_draws(_measure_draws, LEMMA4B_CHUNK, seed, trials)
            for loc, w in _split(sizes, locations, weights)]


def _drawn_pmfs(seed, trials):
    return [(offset, masses) for offsets, widths, flat in
            _chunk_draws(_pmf_draws, METRICS_CHUNK, seed, trials)
            for offset, (masses,) in zip(offsets.tolist(), _split(widths, flat))]


def _lemma4b_per_trial(seed, trials):
    measures = [DiscreteMeasure(loc, w) for loc, w in _drawn_measures(seed, trials)]
    for mu, nu in zip(measures[0::2], measures[1::2]):
        lhs = float(wasserstein(mixed_poisson_pmf(mu), mixed_poisson_pmf(nu)))
        rhs = measure_wasserstein(mu, nu) + 1e-8
        yield lhs, rhs, lhs <= rhs


def _metrics_per_trial(seed, trials):
    pmfs = [Pmf.from_masses(offset, masses) for offset, masses in _drawn_pmfs(seed, trials)]
    for p, q in zip(pmfs[0::2], pmfs[1::2]):
        tv = float(total_variation(p, q))
        dw = float(wasserstein(p, q))
        yield tv, 2.0 * dw + 1e-10, tv <= 2.0 * dw + 1e-10
        gap = abs(mean_var(p)[0] - mean_var(q)[0])
        yield gap, dw + 1e-10, gap <= dw + 1e-10


def test_draws_keep_their_ranges_and_give_valid_laws():
    rng = np.random.default_rng(5)
    sizes, locations, weights = _measure_draws(rng, 4000)
    assert sizes.min() == 1 and sizes.max() == 7 and sizes.sum() == len(locations) == len(weights)
    assert locations.min() >= 0.0 and locations.max() < 20.0
    assert weights.min() > 0.0
    for loc, w in _split(sizes, locations, weights):
        assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-12
        measure = DiscreteMeasure(loc, w)
        assert np.array_equal(measure.locations, np.sort(loc))
    offsets, widths, masses = _pmf_draws(rng, 4000)
    assert offsets.min() == 0 and offsets.max() == PMF_MAX_OFFSET
    assert widths.min() == 1 and widths.max() == PMF_MAX_WIDTH and widths.sum() == len(masses)
    assert masses.min() > 0.0
    for offset, (m,) in zip(offsets.tolist(), _split(widths, masses)):
        p = Pmf.from_masses(offset, m)
        assert p.offset == offset and np.array_equal(p.masses, m)
        assert abs(math.fsum(m.tolist()) - 1.0) <= 1e-12


def test_moves_record_table_rows_are_record_count_pmf_bitwise():
    # 31 is the table of the default sweep (n <= 30); from m = 39 on, a row
    # keeps fewer columns than the table and books its own spill.
    for m_max in (31, 120):
        law = _record_pmfs(m_max)
        for m in range(m_max + 1):
            row, ref = law(m), record_count_pmf(m)
            assert row.offset == ref.offset and row.truncated_tail == ref.truncated_tail, m
            assert row.masses.tobytes() == ref.masses.tobytes(), m
    assert record_count_pmf(120).truncated_tail > 0.0


def test_moves_past_the_cap_raises_before_any_table():
    # The record table for n_max = 50000 would take about 23 MiB; the cap
    # error names the first n past the cap and comes before any table.
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="^exact depth computation: n=11 exceeds the cap 10$"):
            run_suite("moves", n_max=50000, cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_metrics_rows_equal_the_per_trial_route(seed):
    rows = run_suite("metrics", seed=seed, trials=1000)
    assert [(r["lhs"], r["rhs"], r["holds"]) for r in rows] == list(_metrics_per_trial(seed, 1000))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_lemma4b_rows_match_the_per_trial_route(seed):
    rows = run_suite("lemma4b", seed=seed, trials=1000)
    expected = list(_lemma4b_per_trial(seed, 1000))
    assert [(r["rhs"], r["holds"]) for r in rows] == [(rhs, holds) for _, rhs, holds in expected]
    assert max(abs(r["lhs"] - lhs) for r, (lhs, _, _) in zip(rows, expected)) <= 1e-14


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_lemma4b_laws_match_mixed_poisson_pmf(seed):
    # Each law of the suite's chunks, against the one-measure call: the same
    # support search cut and the same booked tail.
    for sizes, locations, weights in _chunk_draws(_measure_draws, LEMMA4B_CHUNK, seed, 1000):
        masses, tails = _mixed_poisson_rows(*_measure_rows(sizes, locations, weights))
        for (loc, w), row, tail in zip(_split(sizes, locations, weights), masses, tails):
            p = mixed_poisson_pmf(DiscreteMeasure(loc, w))
            assert p.offset == 0 and p.support_max == np.flatnonzero(row)[-1]
            assert abs(tail - p.truncated_tail) <= 1e-15 * p.truncated_tail


def test_lemma4b_memory_stays_flat():
    # The ragged (k, atom) kernel runs on 2 * LEMMA4B_CHUNK laws at a time.
    # Measured peaks at 1000 trials, rows included: 2.2 MiB in chunks of 64
    # trials, 29 MiB with all 2000 laws on one kernel.
    run_suite("lemma4b", trials=10)  # first-call caches are not the suite's
    tracemalloc.start()
    try:
        run_suite("lemma4b", trials=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak / 2**20
