"""Pmf arithmetic, harmonic tables, record laws and metric properties."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy import stats
from scipy.special import gammaln, pdtrc

import depthlab
from depthlab.distributions import (
    BoundReport,
    _HARMONIC_SERIES_MIN_K,
    Pmf,
    _poisson_rows,
    _poisson_support,
    _record_laws,
    convolve,
    harmonic_table,
    ks_to_standard_normal,
    mean_var,
    poisson_pmf,
    record_count_pmf,
    total_variation,
    wasserstein,
)
from depthlab.verify import run_suite


def enumerate_record_counts(m):
    """Oracle: tally ascending-record counts over all m! permutations."""
    counts = {}
    for perm in permutations(range(1, m + 1)):
        best = 0
        records = 0
        for x in perm:
            if x > best:
                records += 1
                best = x
        counts[records] = counts.get(records, 0) + 1
    fact = math.factorial(m)
    return {k: Fraction(v, fact) for k, v in counts.items()}


def record_matrix_loop(m_max, k_cap):
    """Oracle: record laws for m = 0..m_max on 0..k_cap, one Bernoulli(1/m) step
    per row, with the mass leaving k_cap accumulated as each row's spill."""
    rows = np.zeros((m_max + 1, k_cap + 1))
    tails = np.zeros(m_max + 1)
    rows[0, 0] = 1.0
    for m in range(1, m_max + 1):
        p = 1.0 / m
        prev = rows[m - 1]
        rows[m, 0] = prev[0] * (1.0 - p)
        rows[m, 1:] = prev[1:] * (1.0 - p) + prev[:-1] * p
        tails[m] = tails[m - 1] + prev[-1] * p
    return rows, tails


def record_count_floor_loop(m, floor=1e-18):
    """Oracle: the record law of m keys by m two-point convolutions, dropping
    masses below ``floor`` into the tail and trimming the support each step."""
    masses = np.array([1.0])
    dropped = 0.0
    for i in range(1, m + 1):
        p = 1.0 / i
        nxt = np.empty(len(masses) + 1)
        nxt[0] = masses[0] * (1.0 - p)
        nxt[1:-1] = masses[1:] * (1.0 - p) + masses[:-1] * p
        nxt[-1] = masses[-1] * p
        small = (nxt > 0.0) & (nxt < floor)
        if np.any(small):
            dropped += float(nxt[small].sum())
            nxt[small] = 0.0
        nz = np.flatnonzero(nxt)
        masses = nxt[: int(nz[-1]) + 1]
    return Pmf.from_masses(0, masses, dropped)


# ----------------------------------------------------------- construction


def test_pmf_validates_normalization():
    with pytest.raises(ValueError):
        Pmf(0, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        Pmf(-1, np.array([1.0]))
    with pytest.raises(ValueError):
        Pmf(0, np.array([1.2, -0.2]))


def test_pmf_rejects_non_finite_masses():
    for masses in ([math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0]):
        with pytest.raises(ValueError):
            Pmf(0, np.array(masses))
    for masses in ([math.nan, 0.5, 0.5], [0.5, math.inf], [0.5, 0.5, -math.inf]):
        with pytest.raises(ValueError):
            Pmf.from_masses(0, masses)


def test_pmf_trims_and_clamps():
    p = Pmf.from_masses(2, [0.0, 0.0, 1.0, 0.0])
    assert p.offset == 4
    assert len(p) == 1
    assert p.mass_at(4) == 1.0
    assert p.mass_at(3) == 0.0


def test_pmf_json_roundtrip():
    p = record_count_pmf(4)
    q = Pmf.from_json_dict(p.to_json_dict())
    assert q.offset == p.offset
    assert np.array_equal(q.masses, p.masses)


# ----------------------------------------------------------- harmonic numbers


def test_harmonic_empty_sum():
    h = harmonic_table(0)
    assert list(h.H) == [0.0] and list(h.H2) == [0.0]


def test_harmonic_small_values():
    h = harmonic_table(3)
    assert h.H[0] == 0.0
    assert h.H[2] == pytest.approx(1.5, abs=0)
    assert h.H2[2] == pytest.approx(1.25, abs=0)
    assert h.H[3] == pytest.approx(Fraction(11, 6), abs=1e-15)


def test_harmonic_table_accuracy_at_scale():
    n = 10**6
    h = harmonic_table(n)
    for k in (10, 1000, 99_999, n):
        exact = math.fsum(1.0 / i for i in range(1, k + 1))
        assert abs(h.H[k] - exact) < 1e-13
    exact2 = math.fsum(1.0 / (i * i) for i in range(1, 1001))
    assert abs(h.H2[1000] - exact2) < 1e-13


def _kahan_harmonic(n_max):
    # Reference for the head: running Kahan sums, the library's rule below
    # _HARMONIC_SERIES_MIN_K.
    H, H2 = [0.0], [0.0]
    s = c = s2 = c2 = 0.0
    for k in range(1, n_max + 1):
        y = 1.0 / k - c
        t = s + y
        c = (t - s) - y
        s = t
        y2 = 1.0 / (k * k) - c2
        t2 = s2 + y2
        c2 = (t2 - s2) - y2
        s2 = t2
        H.append(s)
        H2.append(s2)
    return np.array(H), np.array(H2)


def test_harmonic_head_is_the_kahan_loop_bit_for_bit():
    h = harmonic_table(2 * _HARMONIC_SERIES_MIN_K)
    H, H2 = _kahan_harmonic(_HARMONIC_SERIES_MIN_K - 1)
    assert np.array_equal(h.H[:_HARMONIC_SERIES_MIN_K], H)
    assert np.array_equal(h.H2[:_HARMONIC_SERIES_MIN_K], H2)


def test_harmonic_series_tail_within_2_ulp_of_mpmath():
    h = harmonic_table(2**15)
    k0 = _HARMONIC_SERIES_MIN_K
    with mp.workdps(40):
        for k in (k0 - 1, k0, k0 + 1, 10**3, 2**14, 2**15):
            for got, exact in ((h.H[k], mp.harmonic(k)), (h.H2[k], mp.zeta(2) - mp.psi(1, k + 1))):
                ulps = abs(mpf(float(got)) - exact) / math.ulp(float(exact))
                assert ulps <= 2, (k, float(got), ulps)


def test_harmonic_tables_are_prefixes_of_larger_ones():
    big = harmonic_table(5000)
    for m in (0, 1, _HARMONIC_SERIES_MIN_K - 1, _HARMONIC_SERIES_MIN_K, 1000, 4999):
        small = harmonic_table(m)
        assert np.array_equal(small.H, big.H[: m + 1]), m
        assert np.array_equal(small.H2, big.H2[: m + 1]), m


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic_table(-1)


def test_harmonic_sum_reciprocal_estimate():
    # sum_{m=1}^{n-1} 1/H_m <= 3n / log n for every 2 <= n <= 1e5
    n_top = 10**5
    h = harmonic_table(n_top)
    cumulative = np.cumsum(1.0 / h.H[1:n_top])  # index m-1 holds sum up to m
    ns = np.arange(2, n_top + 1)
    bound = 3.0 * ns / np.log(ns)
    assert np.all(cumulative[: n_top - 1] <= bound)


# ----------------------------------------------------------- record counts


def test_record_count_trivial():
    assert record_count_pmf(0).mass_at(0) == 1.0
    p1 = record_count_pmf(1)
    assert p1.offset == 1 and p1.mass_at(1) == 1.0


def test_record_count_matches_enumeration():
    for m in range(2, 7):
        oracle = enumerate_record_counts(m)
        p = record_count_pmf(m)
        for k, frac in oracle.items():
            assert p.mass_at(k) == pytest.approx(float(frac), abs=1e-14)
        assert p.support_min == 1 and p.support_max == m


def test_record_count_mean_is_harmonic():
    h = harmonic_table(2 * 10**5)
    for m in (3, 47, 1000, 10**4, 2 * 10**5):
        mean, var = mean_var(record_count_pmf(m))
        assert abs(mean - h.H[m]) < 1e-10
        assert var == pytest.approx(h.H[m] - h.H2[m], abs=1e-9)


def test_record_count_mean_every_m_up_to_1e4():
    # The shared record matrix holds all laws at once, so the mean identity
    # can be checked for every m, not just a sample.
    from depthlab.exact_depth import _record_matrix

    m_top = 10**4
    rows, _ = _record_matrix(m_top)
    means = rows @ np.arange(rows.shape[1], dtype=np.float64)
    h = harmonic_table(m_top)
    assert np.max(np.abs(means - h.H[: m_top + 1])) < 1e-10


def test_record_kernel_matches_matrix_loop():
    for size in (2**10, 2**14):
        rows, tails = _record_laws(size, slice(None))
        ref_rows, ref_tails = record_matrix_loop(size, rows.shape[1] - 1)
        big = ref_rows > 1e-15
        rel = np.abs(rows[big] - ref_rows[big]) / ref_rows[big]
        assert rel.max() <= 1e-13
        assert np.max(np.abs(tails - ref_tails)) <= 1e-30


def test_record_count_matches_floor_loop():
    for m in (0, 1, 2, 5, 30, 1000, 10**4):
        d = total_variation(record_count_pmf(m), record_count_floor_loop(m))
        assert float(d) <= 1e-14


def test_record_count_memory_is_linear_in_m():
    # One law keeps O(m) memory: a few columns of m + 1 doubles, never the
    # (m + 1) x (K + 1) matrix of all laws (about 96 MB here).
    m = 2 * 10**5
    tracemalloc.start()
    try:
        record_count_pmf(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (m + 1) * 8


def test_record_count_rejects_negative():
    with pytest.raises(ValueError):
        record_count_pmf(-1)


def test_bernoulli_sum_poisson_approximation_bound():
    # d_TV(record law, Poisson(H_m)) <= H_m^(2) / H_m for every m <= 500
    h = harmonic_table(500)
    for m in range(1, 501):
        d = total_variation(record_count_pmf(m), poisson_pmf(h.H[m]))
        assert float(d) <= h.H2[m] / h.H[m] + 1e-12


# ----------------------------------------------------------- convolution


def test_convolve_identity():
    p = record_count_pmf(5)
    q = convolve(Pmf.delta(0), p)
    assert q.offset == p.offset
    np.testing.assert_allclose(q.masses, p.masses, atol=1e-15)


def test_convolve_bernoulli_pair():
    ber = Pmf.from_masses(0, [0.5, 0.5])
    out = convolve(ber, ber)
    np.testing.assert_allclose(out.masses, [0.25, 0.5, 0.25], atol=1e-15)


def test_convolve_record_pair_matches_enumeration():
    # Sum of record counts of two independent 2-permutations.
    out = convolve(record_count_pmf(2), record_count_pmf(2))
    assert out.offset == 2
    np.testing.assert_allclose(out.masses, [0.25, 0.5, 0.25], atol=1e-15)


def test_convolve_offsets_add():
    out = convolve(Pmf.delta(3), Pmf.delta(4))
    assert out.offset == 7 and out.mass_at(7) == 1.0


# ----------------------------------------------------------- poisson


def test_poisson_zero_is_point_mass():
    p = poisson_pmf(0.0)
    assert p.mass_at(0) == 1.0 and len(p) == 1


def test_poisson_values():
    assert poisson_pmf(math.log(2)).mass_at(0) == pytest.approx(0.5, abs=1e-15)
    assert poisson_pmf(1.0).mass_at(1) == pytest.approx(math.exp(-1), abs=1e-14)
    p = poisson_pmf(7.5, tol=1e-10)
    assert p.truncated_tail < 1e-10
    assert abs(math.fsum(p.masses.tolist()) + p.truncated_tail - 1.0) < 1e-12


def support(lam, tol):
    """k_max of the support search for the one rate lam."""
    return int(_poisson_support(np.array([float(lam)]), tol)[0][0])


def one_rate_rows(rates, k_max):
    """_poisson_rows for laws of one rate each, all cut at k_max: P(X = k) and
    P(X > k), one row per rate."""
    count = len(rates)
    return _poisson_rows(np.ones(count, dtype=np.int64), np.asarray(rates, dtype=np.float64),
                         np.ones(count), np.full(count, k_max))


def scipy_stats_poisson_support(lam, tol):
    """Oracle: the scipy.stats inverse survival function, then a walk up to tail < tol."""
    k_max = int(stats.poisson.isf(tol, lam))
    while stats.poisson.sf(k_max, lam) >= tol:
        k_max += 1
    return k_max


def poisson_exp_rtol(lam, ks):
    """Relative error allowed in a Poisson mass or tail at k against scipy.

    Both sides take exp() of k log lam - log k! - lam, whose rounding is a few
    ulps of its largest part; this allows 4 ulps of their sum at k + 1 (the
    first term of the tail at k).  Measured: at most 2.6 ulps of it.
    """
    ks = np.asarray(ks)
    return 4 * np.finfo(np.float64).eps * (1 + lam + (ks + 1) * np.abs(np.log(lam)) + gammaln(ks + 2))


def test_poisson_pmf_equals_scipy_stats_oracle():
    for lam in (1e-9, 0.3, math.log(2), 7.5, 20.0, 500.0):
        for tol in (1e-9, 1e-12, 1e-15):
            k_max = scipy_stats_poisson_support(lam, tol)
            assert support(lam, tol) == k_max, (lam, tol)
            ref = Pmf.from_masses(
                0,
                stats.poisson.pmf(np.arange(k_max + 1), lam),
                float(stats.poisson.sf(k_max, lam)),
            )
            p = poisson_pmf(lam, tol)
            assert p.offset == ref.offset and p.support_max == ref.support_max, (lam, tol)
            rtol = poisson_exp_rtol(lam, np.arange(k_max + 1))
            assert np.all(np.abs(p.masses - ref.masses) <= rtol * ref.masses), (lam, tol)
            tail_err = abs(p.truncated_tail - ref.truncated_tail)
            assert tail_err <= rtol[-1] * ref.truncated_tail, (lam, tol)


def scalar_poisson_support(lam, tol):
    """Oracle: one scalar pdtrc call per k, upwards from int(lam)."""
    k = int(lam)
    while pdtrc(k, lam) >= tol:
        k += 1
    return k


def test_poisson_support_equals_scalar_search():
    rng = np.random.default_rng(12)
    lams = [1e-300, 1e-20, *np.exp(rng.uniform(-20.0, math.log(60.0), 2000)).tolist(), 1e3, 1e5]
    for lam in lams:
        for tol in (1e-9, 1e-12, 1e-15):
            assert support(lam, tol) == scalar_poisson_support(lam, tol), (lam, tol)


def test_poisson_blocks_search_each_rate_as_alone():
    # One array of rates against one call per rate: the same k_max and the
    # same masses and tails, bit for bit.  At tol 1e-40 some rates take more
    # than one block, so the search loops.
    rng = np.random.default_rng(12)
    lams = np.array([1e-300, 1e-20, *np.exp(rng.uniform(-20.0, math.log(60.0), 500)), 1e3])
    for tol in (1e-9, 1e-12, 1e-15, 1e-40):
        k_max, masses, tails = _poisson_support(lams, tol)
        for lam, k, row_masses, row_tails in zip(lams.tolist(), k_max.tolist(), masses, tails):
            alone = _poisson_support(np.array([lam]), tol)
            assert alone[0][0] == k, (lam, tol)
            row_masses, row_tails = row_masses[: k + 1], row_tails[: k + 1]
            assert np.array_equal(row_masses, alone[1][0, : k + 1]), (lam, tol)
            assert np.array_equal(row_tails, alone[2][0, : k + 1]), (lam, tol)
            assert row_tails[-1] < tol and (k == int(lam) or row_tails[-2] >= tol), (lam, tol)
    width = 16 + (12.0 * np.sqrt(lams)).astype(int)
    assert np.any(k_max - lams.astype(int) >= width)


def test_poisson_tails_match_pdtrc():
    # The rates of test_poisson_support_equals_scalar_search, at every k up
    # to the support at tol 1e-15, within poisson_exp_rtol.
    rng = np.random.default_rng(12)
    lams = [1e-300, 1e-20, *np.exp(rng.uniform(-20.0, math.log(60.0), 2000)).tolist(), 1e3, 1e5]
    for lam in lams:
        k_max = support(lam, 1e-15)
        ks = np.arange(k_max + 1)
        tails = one_rate_rows([lam], k_max)[1][0]
        ref = pdtrc(ks, lam)
        assert np.all(np.abs(tails - ref) <= poisson_exp_rtol(lam, ks) * ref), lam
    # One k at an array of rates, as a discrete mixture's tail.  Tails below
    # 1e-290 are left out: near the subnormal range they lose relative precision.
    rates = np.array(lams[:-2])
    for k in (0, 5, 30, 80, 200):
        tails = one_rate_rows(rates, k)[1][:, k]
        ref = pdtrc(k, rates)
        normal = ref >= 1e-290
        assert np.all(np.abs(tails - ref)[normal] <= (poisson_exp_rtol(rates, k) * ref)[normal]), k
        assert np.all(tails[~normal] < 1e-289), k


def test_poisson_terms_with_a_zero_rate():
    masses, tails = one_rate_rows([0.0, 2.0], 6)
    assert masses[0].tolist() == [1.0, 0, 0, 0, 0, 0, 0]
    assert tails[0].tolist() == [0.0] * 7
    single_masses, single_tails = one_rate_rows([2.0], 6)
    np.testing.assert_allclose(masses[1], single_masses[0], rtol=1e-15, atol=0)
    np.testing.assert_allclose(tails[1], single_tails[0], rtol=1e-15, atol=0)


def test_import_does_not_load_scipy_stats():
    # A fresh interpreter that imports this same depthlab: scipy.stats alone
    # costs about a second of import time.
    src = str(Path(depthlab.__file__).resolve().parents[1])
    code = "import sys, depthlab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"


def test_poisson_pmf_rejects_non_finite_lambda():
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda"):
            poisson_pmf(lam)


def test_poisson_domain_errors():
    with pytest.raises(ValueError):
        poisson_pmf(-0.5)
    with pytest.raises(ValueError):
        poisson_pmf(1.0, tol=1e-6)
    with pytest.raises(ValueError):
        poisson_pmf(1.0, tol=0.0)


# ----------------------------------------------------------- metrics


def test_total_variation_examples():
    p = record_count_pmf(4)
    assert float(total_variation(p, p)) == 0.0
    assert float(total_variation(Pmf.delta(0), Pmf.delta(1))) == 1.0
    ber = Pmf.from_masses(0, [0.5, 0.5])
    d = total_variation(ber, poisson_pmf(0.5))
    assert float(d) == pytest.approx(0.196734670143, abs=1e-9)
    assert d.error_bound <= 1e-12


def test_wasserstein_examples():
    assert float(wasserstein(Pmf.delta(0), Pmf.delta(3))) == 3.0
    p = record_count_pmf(6)
    assert float(wasserstein(p, p)) == 0.0
    # Additive coupling: adding an independent Poisson(c) shifts by exactly c.
    d = wasserstein(poisson_pmf(1.0), poisson_pmf(2.0))
    assert float(d) == pytest.approx(1.0, abs=1e-9)
    assert d.error_bound < 1e-8


@pytest.mark.xfail(strict=True, reason="error_bound misses E[(X - window)^+] of the dropped mass")
@pytest.mark.parametrize("lam", [0.5, 5.0, 20.0])
def test_wasserstein_error_bound_covers_a_dropped_poisson_tail(lam):
    # W1(Poisson(lam), delta_0) = lam exactly, and the computed value misses
    # the truncated tail's mean, which the bound does not cover.
    d = wasserstein(poisson_pmf(lam), Pmf.delta(0))
    assert abs(float(d) - lam) <= d.error_bound


@pytest.mark.xfail(strict=True, reason="error_bound misses the rounding of the kept masses")
@pytest.mark.parametrize("lam", [20.0, 60.0, 150.0, 400.0])
def test_total_variation_error_bound_covers_a_dropped_poisson_tail(lam):
    # TV(Poisson(lam), delta_0) = 1 - exp(-lam) exactly.  The bound, half the
    # dropped mass, does not cover the rounding of the kept masses: at
    # lam = 150 the error is 4.00e-13 and the bound 3.67e-13.  Against a
    # 50-digit mpmath reference each error here exceeds its bound by at
    # least 2e-15, so the miss is not the reference's rounding.
    d = total_variation(poisson_pmf(lam), Pmf.delta(0))
    assert abs(float(d) + math.expm1(-lam)) <= d.error_bound


def test_metric_axioms_on_random_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        pmfs = []
        for _ in range(3):
            width = int(rng.integers(1, 20))
            offset = int(rng.integers(0, 5))
            masses = rng.random(width) + 1e-3
            pmfs.append(Pmf.from_masses(offset, masses / masses.sum()))
        p, q, r = pmfs
        for metric in (total_variation, wasserstein):
            dpq = float(metric(p, q))
            dqp = float(metric(q, p))
            assert dpq >= 0.0
            assert abs(dpq - dqp) < 1e-10
            assert dpq <= float(metric(p, r)) + float(metric(r, q)) + 1e-10
        assert float(metric(p, p)) < 1e-15


def test_tv_le_2dw_and_dw_ge_mean_gap():
    # The metrics suite, with slack 1e-10: two rows per pair of random pmfs.
    rows = run_suite("metrics", seed=99)
    assert len(rows) == 2000
    assert all(row["holds"] for row in rows)


# ----------------------------------------------------------- moments


def test_mean_var_examples():
    assert mean_var(Pmf.delta(5)) == (5.0, 0.0)
    mean, var = mean_var(Pmf.from_masses(0, [1 / 3] * 3))
    assert mean == pytest.approx(1.0, abs=1e-15)
    assert var == pytest.approx(2 / 3, abs=1e-15)
    mean, var = mean_var(record_count_pmf(3))
    assert mean == pytest.approx(11 / 6, abs=1e-15)
    assert var == pytest.approx(17 / 36, abs=1e-15)


# ----------------------------------------------------------- KS distance


def test_ks_point_mass():
    assert ks_to_standard_normal(Pmf.delta(0), 0.0, 1.0) == pytest.approx(0.5)


def test_ks_two_point():
    value = ks_to_standard_normal(Pmf.from_masses(0, [0.5, 0.5]), 0.5, 0.5)
    phi1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
    assert value == pytest.approx(phi1 - 0.5, abs=1e-12)


def test_ks_poisson_100_close_to_normal():
    assert ks_to_standard_normal(poisson_pmf(100.0), 100.0, 10.0) < 0.05


def test_ks_rejects_bad_scale():
    with pytest.raises(ValueError):
        ks_to_standard_normal(Pmf.delta(0), 0.0, 0.0)


# ----------------------------------------------------------- bound report


def test_bound_report_check():
    rep = BoundReport.check(1.0, 2.0)
    assert rep.holds and rep.margin == 1.0
    assert not BoundReport.check(2.0, 1.0).holds
    assert BoundReport.check(1.0, 1.0).holds
