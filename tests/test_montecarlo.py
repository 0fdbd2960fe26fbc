"""Sampling routes: determinism, distributional correctness, cross-validation."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from depthlab.distributions import Pmf, record_count_pmf, total_variation
from depthlab.exact_depth import (
    DEFAULT_N_CAP,
    _brute_depth_counts,
    brute_force_depth_pmf,
    depth_mean,
    depth_variance,
    exact_depth_pmf,
)
from depthlab.montecarlo import (
    EmpiricalPmf,
    RngStream,
    _arrival_keys,
    _bst_depths,
    _chunk_rows,
    _draw,
    _find_pivots,
    _predecessor_split,
    _record_counts,
    collect_samples,
    empirical_pmf,
    random_permutation,
    sample_depth_bst,
    sample_depth_representation,
    sample_find_recursions,
    sample_random_key_depth,
)
from depthlab.trees import Permutation, _insert_keys, _permutation_array, build_bst, find_select, node_depth
from depthlab.verify import _first_arrivals


def test_stream_determinism():
    a = RngStream(seed=123, stream_id=4)
    b = RngStream(seed=123, stream_id=4)
    assert [a.generator.integers(0, 1000) for _ in range(10)] == [
        b.generator.integers(0, 1000) for _ in range(10)
    ]
    c = RngStream(seed=123, stream_id=5)
    assert [c.generator.integers(0, 1000) for _ in range(10)] != [
        RngStream(seed=123, stream_id=4).generator.integers(0, 1000)
        for _ in range(10)
    ]


def test_random_permutation_fixed_seed_repeats():
    p1 = random_permutation(20, RngStream(seed=9))
    p2 = random_permutation(20, RngStream(seed=9))
    assert p1.values == p2.values
    assert random_permutation(1, RngStream(seed=0)).values == (1,)


def test_random_permutation_uniform_chi_square():
    # 6e4 draws of 3-permutations: frequencies within 0.01 of 1/6 and a
    # chi-square test at significance 1e-3.
    rng = RngStream(seed=42)
    counts: dict[tuple, int] = {}
    draws = 60_000
    for _ in range(draws):
        v = random_permutation(3, rng).values
        counts[v] = counts.get(v, 0) + 1
    assert len(counts) == 6
    freqs = np.array(list(counts.values())) / draws
    assert np.all(np.abs(freqs - 1 / 6) < 0.01)
    _, pvalue = stats.chisquare(list(counts.values()))
    assert pvalue > 1e-3


def test_hypergeometric_sampler_pmf_and_chi_square():
    # The vectorized split draw for key M + 1 at position draws + 1 among
    # N + 1 keys stays on the hypergeometric support, and its frequencies
    # pass chi-square against the scipy pmf at 1e-3 over small triples.
    gen = RngStream(seed=7).generator
    for N, M, draws in ((10, 4, 5), (12, 6, 3), (9, 2, 7), (30, 15, 10)):
        draws_n = 20_000
        samples = _predecessor_split(
            N + 1, np.full(draws_n, M + 1), np.full(draws_n, draws + 1), gen
        )
        k_lo, k_hi = max(0, draws - (N - M)), min(draws, M)
        assert k_lo <= samples.min() and samples.max() <= k_hi
        pmf = stats.hypergeom.pmf(np.arange(k_lo, k_hi + 1), N, M, draws)
        observed = np.bincount(samples - k_lo, minlength=len(pmf))
        keep = pmf * draws_n >= 5
        if keep.sum() >= 2:
            _, pvalue = stats.chisquare(observed[keep], pmf[keep] / pmf[keep].sum() * observed[keep].sum())
            assert pvalue > 1e-3


def _quickselect(times, l):
    """find_select's recursion count on each row's arrival order (value v at time row[v - 1])."""
    return [find_select(Permutation.from_iterable(np.argsort(row) + 1), l).recursions for row in times]


def test_batch_kernels_match_tree_build_and_quickselect_pathwise():
    # The bst route on a chunk of arrival keys equals a full tree build on the
    # permutation that orders the values by key (built here by argsort).
    for n, l in ((1, 1), (2, 1), (2, 2), (7, 1), (7, 4), (7, 7), (60, 1), (60, 23), (60, 60)):
        keys = _arrival_keys(n, 300, RngStream(seed=100 * n + l).generator)
        rows = [Permutation.from_iterable(row) for row in np.argsort(keys, axis=1) + 1]
        depths = [node_depth(build_bst(p), l) for p in rows]
        assert _bst_depths(keys, l).tolist() == depths, (n, l)
    # On every row of a full chunk, the bst route equals the depth that the
    # literal insertion loop gives, at both extreme keys and at n = 1.
    for n, l in ((1000, 1), (1000, 500), (1000, 1000), (500, 250), (7, 3), (1, 1)):
        keys = _arrival_keys(n, _chunk_rows("bst", n), RngStream(seed=n + l).generator)
        depths = [_insert_keys(row.tolist(), stop=l)[2][l] for row in np.argsort(keys, axis=1) + 1]
        assert _bst_depths(keys, l).tolist() == depths, (n, l)
    # The pivot chain, driven by each row's first arrivals, equals scalar
    # quickselect on random arrival orders (the argsort of random keys).
    for n, l, rows in ((60, 1, 300), (60, 23, 300), (60, 60, 300), (1000, 1, 262), (1000, 500, 262),
                       (1000, 1000, 262)):
        times = np.argsort(_arrival_keys(n, rows, RngStream(seed=n + l).generator), axis=1) + 1
        got = _find_pivots(n, l, rows, _first_arrivals(times, l)).tolist()
        assert got == _quickselect(times, l), (n, l)


def test_keyed_kernels_match_brute_force_over_every_arrival_order():
    # Row r of the n! rows gives value v arrival time r[v - 1]; bst on the
    # times as they are counts every depth exactly as the enumeration oracle
    # does.  The find route draws pivots, not keys, and is held to the oracle
    # by test_pivot_chain_matches_quickselect_over_every_arrival_order.
    for n in range(1, 8):
        times = _permutation_array(n)
        for l in range(1, n + 1):
            expected = list(_brute_depth_counts(n)[l - 1])
            assert np.bincount(_bst_depths(times.copy(), l), minlength=n).tolist() == expected, (n, l)


def test_pivot_chain_matches_quickselect_over_every_arrival_order():
    # Driven by verify's first-arrival source, which returns each live row's
    # first arrival among values lo + 1..hi of a fixed arrival order, the
    # chain runs quickselect on that order: over all n! orders and every l
    # its counts equal scalar quickselect's row by row and the enumeration
    # oracle's in total.
    for n in range(1, 8):
        times = _permutation_array(n)
        for l in range(1, n + 1):
            got = _find_pivots(n, l, len(times), _first_arrivals(times, l))
            assert got.tolist() == _quickselect(times, l), (n, l)
            assert np.bincount(got, minlength=n).tolist() == list(_brute_depth_counts(n)[l - 1]), (n, l)


def test_find_route_at_the_cap_draws_in_little_memory():
    # 10^4 samples at the cap draw only their pivots, a few arrays of one
    # chunk's live rows: a route that read one 64-bit arrival key per value
    # peaked at 2.9e6 bytes here.  The sample mean lies within
    # 4 sd / sqrt(count) of the exact mean.
    n, l, count = DEFAULT_N_CAP, DEFAULT_N_CAP // 2, 10_000
    mean, sd = depth_mean(n, l), math.sqrt(depth_variance(n, l))
    tracemalloc.start()
    try:
        samples = collect_samples("find", n, l, count, seed=3030)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak
    assert abs(np.mean(samples) - mean) < 4 * sd / math.sqrt(count)


def test_record_skip_sum_matches_record_count_law():
    # m = 0 and m = 1 are exact.  For m = 2 and 50, d_TV of K draws to the
    # record law stays below E d_TV <= sum_k sqrt(p_k) / (2 sqrt K) plus the
    # McDiarmid deviation sqrt(ln(1e9) / (2K)), failure probability 1e-9.
    # The m values are interleaved in one call to exercise per-entry indexing.
    K = 100_000
    ms = (0, 1, 2, 50)
    counts = _record_counts(np.tile(ms, K), RngStream(seed=404).generator)
    assert np.all(counts[0::4] == 0) and np.all(counts[1::4] == 1)
    for i, m in enumerate(ms[2:], start=2):
        exact = record_count_pmf(m)
        bound = np.sqrt(exact.masses).sum() / (2 * math.sqrt(K)) + math.sqrt(
            math.log(1e9) / (2 * K)
        )
        d = total_variation(empirical_pmf(counts[i::4].tolist()), exact)
        assert float(d) < bound, (m, float(d), bound)


def test_collect_samples_deterministic_across_chunk_boundaries():
    n, l = 1024, 300
    for route in ("bst", "find", "representation", "key"):
        chunk = _chunk_rows(route, n)
        cases = [(chunk - 1, 1), (chunk, 1), (chunk + 1, 1), (2 * chunk + 1, 2), (2 * chunk + 1, 3)]
        for count, streams in cases:
            a = collect_samples(route, n, l, count, seed=21, streams=streams)
            assert a == collect_samples(route, n, l, count, seed=21, streams=streams)
            assert len(a) == count and all(type(x) is int and 0 <= x < n for x in a)


def test_key_route_matches_brute_force_random_key_law():
    # The random-key law is the per-key average of the enumerated laws; the
    # sample cdf stays within the DKW-Massart bound at failure probability 1e-9.
    K, delta = 100_000, 1e-9
    eps = math.sqrt(math.log(2.0 / delta) / (2.0 * K))
    for n in (2, 5, 8):
        law = np.zeros(n)
        for l in range(1, n + 1):
            p = brute_force_depth_pmf(n, l)
            law[p.offset : p.offset + len(p.masses)] += p.masses / n
        counts = np.bincount(collect_samples("key", n, None, K, seed=8 + n), minlength=n)
        gap = float(np.abs(np.cumsum(counts) / K - np.cumsum(law)).max())
        assert gap <= eps, (n, gap, eps)


def test_sample_routes_trivial_cases():
    rng = RngStream(seed=1)
    assert sample_depth_bst(1, 1, rng) == 0
    assert sample_depth_representation(1, 1, rng) == 0
    assert sample_find_recursions(1, 1, rng) == 0
    assert sample_random_key_depth(1, rng) == 0


def test_routes_match_uniform_law_at_3_2():
    target = Pmf.from_masses(0, [1 / 3, 1 / 3, 1 / 3])
    for route in ("bst", "representation", "find"):
        samples = collect_samples(route, 3, 2, 30_000, seed=13)
        d = total_variation(empirical_pmf(samples), target)
        assert float(d) < 0.012, route


def test_random_key_exact_law_n2():
    samples = collect_samples("key", 2, None, 40_000, seed=17)
    emp = empirical_pmf(samples)
    assert emp.mass_at(0) == pytest.approx(0.5, abs=0.01)
    assert emp.mass_at(1) == pytest.approx(0.5, abs=0.01)


def test_representation_matches_exact_at_100_37():
    samples = collect_samples("representation", 100, 37, 30_000, seed=23)
    d = total_variation(empirical_pmf(samples), exact_depth_pmf(100, 37))
    assert float(d) < 0.015


def test_bst_route_mean_within_clt_band():
    from depthlab.exact_depth import depth_mean, depth_variance

    count = 100_000
    samples = collect_samples("bst", 100, 37, count, seed=5150)
    band = 3.0 * math.sqrt(depth_variance(100, 37) / count)
    assert abs(np.mean(samples) - depth_mean(100, 37)) < band


def test_empirical_pmf_basic():
    p = empirical_pmf([0, 0, 1, 1])
    assert p.mass_at(0) == 0.5 and p.mass_at(1) == 0.5
    assert p.truncated_tail == 0.0
    d5 = empirical_pmf([5])
    assert d5.mass_at(5) == 1.0
    with pytest.raises(ValueError):
        empirical_pmf([])


def test_empirical_pmf_poisson_self_check():
    gen = RngStream(seed=31).generator
    samples = gen.poisson(3.0, size=100_000)
    from depthlab.distributions import poisson_pmf

    d = total_variation(empirical_pmf(samples.tolist()), poisson_pmf(3.0))
    assert float(d) < 0.01


def test_empirical_counts_container():
    emp = EmpiricalPmf.from_samples([2, 2, 3, 5])
    assert emp.offset == 2
    assert emp.counts == (2, 1, 0, 1)
    assert emp.sample_size == 4


def test_collect_samples_deterministic_and_stream_partitioned():
    a = collect_samples("representation", 50, 20, 101, seed=3, streams=4)
    b = collect_samples("representation", 50, 20, 101, seed=3, streams=4)
    assert a == b
    c = collect_samples("representation", 50, 20, 101, seed=3, streams=1)
    assert len(c) == 101
    assert a != c  # different partitioning, different draws

    with pytest.raises(ValueError):
        collect_samples("warp", 10, 5, 10, seed=0)
    with pytest.raises(ValueError):
        collect_samples("bst", 10, 5, 0, seed=0)


def test_collect_samples_builds_no_generator_for_an_empty_stream():
    expected = collect_samples("representation", 50, 20, 5, seed=3, streams=5)
    t0 = time.perf_counter()
    assert collect_samples("representation", 50, 20, 5, seed=3, streams=10**9) == expected
    assert time.perf_counter() - t0 < 0.5


def test_collect_samples_gives_each_stream_its_own_id():
    n, l, K, seed = 60, 25, 400, 17
    for route in ("bst", "find", "representation", "key"):
        key = None if route == "key" else l
        halves = [_draw(route, n, key, K, RngStream(seed, sid).route_generator(route))
                  for sid in (0, 1)]
        assert collect_samples(route, n, key, 2 * K, seed, streams=2) == halves[0] + halves[1]
        assert halves[0] != halves[1], route
        if route != "find":  # only find's streams are keyed apart from RngStream's
            assert halves == [_draw(route, n, key, K, RngStream(seed, sid).generator)
                              for sid in (0, 1)], route


def test_single_sample_bst_and_find_draw_apart():
    # find draws from its own generator of the stream, so its pivots are
    # never derived from the bits that bst reads as keys.
    def draws(sample):
        rng = RngStream(4)
        return [sample(200, 77, rng) for _ in range(50)]

    bst, find = draws(sample_depth_bst), draws(sample_find_recursions)
    assert bst != find
    assert draws(sample_depth_bst) == bst and draws(sample_find_recursions) == find


def test_route_agreement_full_fidelity():
    # Pairwise d_TV between the three routes' empirical laws at 1e5 samples
    # each stays under 0.015 and each route stays within 0.01 of the exact
    # law.  The (100, 37) point runs in the acceptance suite; this covers the
    # extreme-key and larger-n points.  Most of its time is the bst route at
    # n = 500, Theta(n) per sample; find draws only its pivots, O(log n).
    for n, l in ((50, 1), (500, 250)):
        exact = exact_depth_pmf(n, l)
        emps = {
            route: empirical_pmf(collect_samples(route, n, l, 100_000, seed=1999))
            for route in ("bst", "representation", "find")
        }
        for route, emp in emps.items():
            assert float(total_variation(emp, exact)) < 0.01, (n, l, route)
        routes = list(emps)
        for i, a in enumerate(routes):
            for b in routes[i + 1 :]:
                assert float(total_variation(emps[a], emps[b])) < 0.015, (n, l, a, b)


def test_sampler_domain_checks():
    rng = RngStream(seed=0)
    with pytest.raises(ValueError):
        sample_depth_bst(5, 6, rng)
    # A missing key fails the (n, l) check on every fixed-key route.
    with pytest.raises(ValueError, match="l must be in 1..100"):
        sample_depth_bst(100, None, rng)
    for route in ("bst", "representation", "find"):
        with pytest.raises(ValueError, match="l must be in 1..100"):
            collect_samples(route, 100, None, 10, 1)
    with pytest.raises(ValueError):
        sample_depth_representation(0, 1, rng)
    with pytest.raises(ValueError):
        sample_random_key_depth(0, rng)
