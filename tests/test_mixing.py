"""Mixing measures, mixed Poisson evaluation and the contraction property."""

import math
from functools import lru_cache

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy import stats
from scipy.special import gammainc, gammaln

from depthlab import distributions
from depthlab.distributions import (
    Pmf,
    _poisson_kernel,
    _poisson_support,
    mean_var,
    poisson_pmf,
    total_variation,
)
from depthlab.exact_depth import depth_mean, predecessor_joint
from depthlab.mixing import (
    EULER_GAMMA,
    DiscreteMeasure,
    ReflectedExponential,
    _measure_rows,
    _measure_wasserstein_rows,
    _mixed_poisson_rows,
    harmonic_mixing_measure,
    limit_mixing_measure,
    measure_mean,
    measure_variance,
    measure_wasserstein,
    mixed_poisson_pmf,
)
from depthlab.verify import LEMMA4B_CHUNK, _measure_draws, run_suite


def random_measure(rng, max_rate=20.0, max_atoms=8):
    size = int(rng.integers(1, max_atoms))
    locations = rng.random(size) * max_rate
    weights = rng.random(size) + 1e-3
    weights /= weights.sum()
    weights[-1] = 1.0 - math.fsum(weights[:-1].tolist())
    return DiscreteMeasure.from_atoms(list(zip(locations, weights)))


# -------------------------------------------------------- measure basics


def test_discrete_measure_merges_atoms():
    m = DiscreteMeasure.from_atoms([(1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
    assert list(m.locations) == [0.0, 1.0]
    assert list(m.weights) == [0.5, 0.5]


def test_discrete_measure_constructor_sorts_and_merges():
    direct = DiscreteMeasure(np.array([3.0, 1.0, 3.0, 0.0]), np.full(4, 0.25))
    atoms = DiscreteMeasure.from_atoms([(0.0, 0.25), (1.0, 0.25), (3.0, 0.5)])
    assert np.array_equal(direct.locations, atoms.locations)
    assert np.array_equal(direct.weights, atoms.weights)
    unsorted = DiscreteMeasure(np.array([5.0, 1.0]), np.array([0.5, 0.5]))
    spread = DiscreteMeasure.from_atoms([(0.0, 0.5), (10.0, 0.5)])
    assert measure_wasserstein(unsorted, spread) == pytest.approx(3.0, abs=1e-15)


def test_discrete_measure_stores_the_unique_merge_bit_for_bit():
    # Sorted and distinct, unsorted, and with duplicates: the stored arrays are
    # those np.unique plus np.add.at give, and the caller's arrays stay writeable.
    cases = [
        ([0.0, 0.5, 2.0, 7.25], [0.1, -0.0, 0.5, 0.4]),
        ([7.25, 0.0, 2.0, 0.5], [0.4, 0.1, 0.3, 0.2]),
        ([2.0, 0.5, 2.0, 0.0, 0.5, 2.0], [0.1, 0.2, 0.3, 0.15, 0.05, 0.2]),
    ]
    for locations, weights in cases:
        loc, w = np.array(locations), np.array(weights)
        ref_loc, inverse = np.unique(loc, return_inverse=True)
        ref_w = np.zeros(ref_loc.size)
        np.add.at(ref_w, inverse, w)
        m = DiscreteMeasure(loc, w)
        assert m.locations.tobytes() == ref_loc.tobytes(), locations
        assert m.weights.tobytes() == ref_w.tobytes(), locations
        assert loc.flags.writeable and w.flags.writeable


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([1.0]), np.array([0.5]))


def test_discrete_measure_rejects_non_finite_atoms():
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, math.nan], [math.nan, 1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, math.nan], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, 2.0], [math.nan, 1.0])
    # An infinite rate used to pass and fail later in mixed_poisson_pmf.
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, math.inf], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, 2.0], [math.inf, 0.5])


def test_measure_json_tags():
    disc = DiscreteMeasure.from_atoms([(0.0, 0.5), (2.0, 0.5)])
    assert disc.to_json_dict() == {"variant": "discrete", "atoms": [[0.0, 0.5], [2.0, 0.5]]}
    refl = ReflectedExponential(1.5)
    assert refl.to_json_dict() == {"variant": "exp-reflected", "c": 1.5}


def test_limit_measure_shift_values():
    nu = limit_mixing_measure(2, 0.5)
    assert nu.c == pytest.approx(2 * EULER_GAMMA, abs=1e-15)
    assert nu.atom_at_zero == pytest.approx(math.exp(-EULER_GAMMA), abs=1e-15)
    # Direct evaluation of 2 log n + 2 gamma + log(t(1-t)) at n=100, t=1/2.
    nu100 = limit_mixing_measure(100, 0.5)
    assert nu100.c == pytest.approx(
        2 * math.log(100) + 2 * EULER_GAMMA - math.log(4), abs=1e-12
    )
    assert nu100.c == pytest.approx(8.978477340659359, abs=1e-9)


def test_limit_measure_degenerate():
    nu = limit_mixing_measure(1, 0.001)
    assert nu.c < 0 and nu.degenerate
    assert mixed_poisson_pmf(nu).mass_at(0) == 1.0


def test_limit_measure_domain():
    with pytest.raises(ValueError):
        limit_mixing_measure(10, 0.0)
    with pytest.raises(ValueError):
        limit_mixing_measure(10, 1.0)
    with pytest.raises(ValueError):
        limit_mixing_measure(0, 0.5)


def test_reflected_exponential_moments():
    # Closed forms against numerical integration; the atom at 0 contributes
    # nothing to either integral.
    for c in (0.5, 2.0, 9.0):
        nu = ReflectedExponential(c)
        xs = np.linspace(0.0, c, 200_001)
        dens = 0.5 * np.exp(-(c - xs) / 2.0)
        mean_num = np.trapezoid(xs * dens, xs)
        second_num = np.trapezoid(xs * xs * dens, xs)
        assert measure_mean(nu) == pytest.approx(mean_num, abs=1e-6)
        assert measure_variance(nu) == pytest.approx(
            second_num - mean_num**2, abs=1e-6
        )


# -------------------------------------------------------- mixed poisson


def test_mixpo_point_measure_is_poisson():
    # A point measure's mixture is poisson_pmf's law bit for bit: the same
    # support search and the same survival sums, through the discrete branch.
    rng = np.random.default_rng(26)
    lams = [1e-300, 1e-20, *np.exp(rng.uniform(-20.0, math.log(60.0), 500)).tolist(), 150.0, 1e3, 1e5]
    for tol in (1e-9, 1e-12, 1e-15, 1e-40):
        for lam in lams:
            p, q = mixed_poisson_pmf(DiscreteMeasure.point(lam), tol), poisson_pmf(lam, tol)
            assert p.offset == q.offset and np.array_equal(p.masses, q.masses), (lam, tol)
            assert p.truncated_tail == q.truncated_tail, (lam, tol)


def test_mixpo_point_zero():
    p = mixed_poisson_pmf(DiscreteMeasure.point(0.0))
    assert p.mass_at(0) == 1.0


def test_mixpo_two_atom_mixture():
    measure = DiscreteMeasure.from_atoms([(0.0, 0.5), (math.log(2), 0.5)])
    p = mixed_poisson_pmf(measure)
    assert p.mass_at(0) == pytest.approx(0.75, abs=1e-14)


def test_mixpo_reflected_exponential_against_incomplete_gamma():
    # Independent closed form: the density part of the k-th mass equals
    # e^(-c/2) 2^k P(k+1, c/2) with P the regularized lower incomplete gamma.
    for n, t in ((10, 0.5), (100, 0.5), (1000, 0.2)):
        nu = limit_mixing_measure(n, t)
        c = nu.c
        p = mixed_poisson_pmf(nu)
        ks = np.arange(0, p.support_max + 1)
        closed = np.exp(-c / 2.0) * (2.0**ks) * gammainc(ks + 1, c / 2.0)
        closed[0] += math.exp(-c / 2.0)
        np.testing.assert_allclose(p.masses, closed[: len(p.masses)], atol=1e-11)


@lru_cache(maxsize=1)
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(16)
    return x, w


def _gl_panel(c: float, a: float, b: float, k_max: int) -> np.ndarray:
    """16-point Gauss-Legendre estimate of the mixed Poisson masses over (a, b)."""
    x, w = _gl_nodes()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    lam = mid + half * x
    # The (k, node) terms, C-contiguous so that the product sums as it always has.
    kern = np.ascontiguousarray(_poisson_kernel(lam, np.full(lam.size, k_max)).reshape(lam.size, -1).T)
    dens = 0.5 * np.exp(-(c - lam) / 2.0)
    return half * (kern @ (w * dens))


def _adaptive_gl(c: float, a: float, b: float, k_max: int, tol: float, depth: int = 0) -> np.ndarray:
    """Reference: the density part of the reflected mixture by adaptive quadrature."""
    whole = _gl_panel(c, a, b, k_max)
    mid = 0.5 * (a + b)
    split = _gl_panel(c, a, mid, k_max) + _gl_panel(c, mid, b, k_max)
    err = float(np.max(np.abs(split - whole)))
    # Below the rounding floor err is noise that bisection cannot shrink, so a
    # tol under it would never be met.  The kernel's exponent adds terms up to
    # about k_max * log(1 + b) in size, each carrying its rounding into exp().
    scale = 8.0 + k_max * math.log1p(b)
    floor = scale * np.finfo(np.float64).eps * float(np.max(np.abs(split)))
    if err < tol or err < floor or depth >= 40:
        return split
    return _adaptive_gl(c, a, mid, k_max, tol / 2.0, depth + 1) + _adaptive_gl(
        c, mid, b, k_max, tol / 2.0, depth + 1
    )


def scipy_stats_mixed_poisson_pmf(measure, tol):
    """Oracle: mixed_poisson_pmf with its support and tails from scipy.stats.poisson.

    The reflected measure's masses come from the quadrature above and its
    tail is the dominating Poisson(c) tail.
    """

    def support(lam):
        k_max = int(stats.poisson.isf(tol, lam))
        while stats.poisson.sf(k_max, lam) >= tol:
            k_max += 1
        return k_max

    if isinstance(measure, DiscreteMeasure):
        k_max = support(float(measure.locations[-1]))
        masses = measure.weights @ stats.poisson.pmf(np.arange(k_max + 1), measure.locations[:, None])
        tail = float(np.dot(measure.weights, stats.poisson.sf(k_max, measure.locations)))
        return k_max, Pmf.from_masses(0, masses, tail)
    k_max = support(measure.c)
    masses = _adaptive_gl(measure.c, 0.0, measure.c, k_max, tol / 10.0)
    masses[0] += measure.atom_at_zero
    return k_max, Pmf.from_masses(0, masses, float(stats.poisson.sf(k_max, measure.c)))


def test_mixpo_equals_scipy_stats_oracle():
    discrete = [
        DiscreteMeasure.point(7.5),
        DiscreteMeasure.from_atoms([(0.0, 0.5), (math.log(2), 0.5)]),
        DiscreteMeasure.from_atoms([(1e-9, 0.25), (0.3, 0.25), (20.0, 0.5)]),
        harmonic_mixing_measure(predecessor_joint(50, 17)),
    ]
    reflected = [limit_mixing_measure(n, t) for n, t in ((3, 0.5), (64, 0.1), (1000, 0.5), (16384, 0.3))]
    cases = [(m, tol) for m in discrete for tol in (1e-9, 1e-12, 1e-15)]
    cases += [(m, tol) for m in reflected for tol in (1e-9, 1e-12, 1e-14, 1e-15)]
    for measure, tol in cases:
        k_max, ref = scipy_stats_mixed_poisson_pmf(measure, tol)
        lam_max = measure.c if isinstance(measure, ReflectedExponential) else float(measure.locations[-1])
        assert _poisson_support(np.array([lam_max]), tol)[0][0] == k_max, (measure, tol)
        p = mixed_poisson_pmf(measure, tol)
        assert p.offset == ref.offset and p.support_max == ref.support_max, (measure, tol)
        # 4 ulps of the largest part of the exp() argument k log lam - log k! - lam,
        # at k_max + 1 and the rate where it is largest, as test_distributions allows.
        rates = np.array([measure.c]) if isinstance(measure, ReflectedExponential) else measure.locations
        rates = rates[rates > 0]
        scale = 1 + rates + (k_max + 1) * np.abs(np.log(rates)) + gammaln(k_max + 2)
        rtol = 4 * np.finfo(np.float64).eps * float(scale.max())
        assert abs(p.truncated_tail - ref.truncated_tail) <= rtol * ref.truncated_tail, (measure, tol)
        if isinstance(measure, DiscreteMeasure):
            assert np.all(np.abs(p.masses - ref.masses) <= rtol * ref.masses), (measure, tol)
        else:
            # Closed form against quadrature: two computations, so rounding differs.
            np.testing.assert_allclose(p.masses, ref.masses, rtol=0.0, atol=1e-14, err_msg=str((measure, tol)))


def test_mixpo_reflected_matches_mpmath():
    # 40-digit masses e^(-c/2) 2^k P(k+1, c/2), P the regularized lower
    # incomplete gamma, plus the atom at 0.  The booked tail must cover the
    # mixture's true mass past k_max.
    for n, t in ((64, 0.1), (16384, 0.5), (10**6, 0.1), (10**13, 0.5)):
        nu = limit_mixing_measure(n, t)
        p = mixed_poisson_pmf(nu, 1e-12)
        k_max = int(_poisson_support(np.array([nu.c]), 1e-12)[0][0])
        assert p.offset == 0 and p.support_max == k_max, (n, t)
        with mp.workdps(40):
            half = mpf(nu.c) / 2
            exact = [
                mp.exp(-half) * 2**k * mp.gammainc(k + 1, 0, half, regularized=True)
                for k in range(k_max + 1)
            ]
            exact[0] += mp.exp(-half)
            error = max(abs(mpf(float(m)) - e) for m, e in zip(p.masses, exact))
            assert error <= 5e-15, (n, t, float(error))
            assert mpf(p.truncated_tail) >= 1 - mp.fsum(exact), (n, t)


def test_mixpo_reflected_below_binary64_resolution():
    # tol = 1e-15 and the smallest subnormal still return, normalized and on
    # the incomplete-gamma closed form.
    for n, t in ((16384, 0.5), (10**6, 0.1)):
        nu = limit_mixing_measure(n, t)
        for tol in (1e-15, 5e-324):
            p = mixed_poisson_pmf(nu, tol)
            assert abs(math.fsum(p.masses.tolist()) + p.truncated_tail - 1.0) < 1e-14
            ks = np.arange(len(p.masses))
            closed = np.exp(-nu.c / 2.0) * (2.0**ks) * gammainc(ks + 1, nu.c / 2.0)
            closed[0] += nu.atom_at_zero
            np.testing.assert_allclose(p.masses, closed, rtol=0.0, atol=1e-14)


def test_mixpo_is_normalized_with_tail():
    nu = limit_mixing_measure(4096, 0.3)
    p = mixed_poisson_pmf(nu)
    assert p.truncated_tail < 1e-9
    assert abs(math.fsum(p.masses.tolist()) + p.truncated_tail - 1.0) < 1e-9


def test_mixpo_tol_domain():
    with pytest.raises(ValueError):
        mixed_poisson_pmf(DiscreteMeasure.point(1.0), tol=1e-3)


def test_mixpo_mean_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        measure = random_measure(rng)
        mean_mix, _ = mean_var(mixed_poisson_pmf(measure))
        assert mean_mix == pytest.approx(measure_mean(measure), abs=1e-8)
    for n, t in ((64, 0.5), (1024, 0.25)):
        nu = limit_mixing_measure(n, t)
        mean_mix, _ = mean_var(mixed_poisson_pmf(nu))
        assert mean_mix == pytest.approx(measure_mean(nu), abs=1e-8)


def test_mixpo_to_poisson_variance_over_mean_bound():
    # d_TV(mixed law, Poisson with the same mean) <= var / mean.
    rng = np.random.default_rng(21)
    for _ in range(200):
        measure = random_measure(rng, max_rate=10.0)
        m = measure_mean(measure)
        if m <= 0:
            continue
        d = total_variation(mixed_poisson_pmf(measure), poisson_pmf(m))
        assert float(d) <= measure_variance(measure) / m + 1e-9


# -------------------------------------------------------- harmonic measure


def test_harmonic_measure_point_at_n1():
    mu = harmonic_mixing_measure(predecessor_joint(1, 1))
    assert list(mu.locations) == [0.0]
    assert list(mu.weights) == [1.0]


def test_harmonic_measure_n3_l2():
    mu = harmonic_mixing_measure(predecessor_joint(3, 2))
    np.testing.assert_allclose(mu.locations, [0.0, 1.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(mu.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)


def test_harmonic_measure_mean_matches_depth_mean():
    for n, l in ((4, 2), (30, 11), (200, 67), (300, 1)):
        mu = harmonic_mixing_measure(predecessor_joint(n, l))
        assert measure_mean(mu) == pytest.approx(depth_mean(n, l), abs=1e-10)


# -------------------------------------------------------- wasserstein / contraction


def test_measure_wasserstein_point_pair():
    a = DiscreteMeasure.from_atoms([(0.0, 0.5), (2.0, 0.5)])
    b = DiscreteMeasure.point(1.0)
    assert measure_wasserstein(a, b) == pytest.approx(1.0, abs=1e-14)
    assert measure_wasserstein(a, a) == 0.0


def test_measure_wasserstein_is_mean_gap_for_sorted_shift():
    a = DiscreteMeasure.from_atoms([(1.0, 0.5), (3.0, 0.5)])
    b = DiscreteMeasure.from_atoms([(2.0, 0.5), (4.0, 0.5)])
    assert measure_wasserstein(a, b) == pytest.approx(1.0, abs=1e-14)


def test_measure_wasserstein_equals_scipy_stats():
    # Against scipy.stats.wasserstein_distance: the lemma4b suite's random
    # pairs, a pair sharing atoms, and two harmonic measures of 150 x 151 and
    # 100 x 201 grid cells.
    def scipy_distance(mu, nu):
        return stats.wasserstein_distance(mu.locations, nu.locations, mu.weights, nu.weights)

    rng = np.random.default_rng(2024)
    measures = []
    for start in range(0, 1000, LEMMA4B_CHUNK):  # drawn in the suite's chunks of trials
        sizes, locations, weights = _measure_draws(rng, 2 * min(LEMMA4B_CHUNK, 1000 - start))
        cuts = np.cumsum(sizes)[:-1]
        measures += map(DiscreteMeasure, np.split(locations, cuts), np.split(weights, cuts))
    pairs = list(zip(measures[0::2], measures[1::2]))
    pairs.append((
        DiscreteMeasure.from_atoms([(0.0, 0.25), (1.5, 0.5), (4.0, 0.25)]),
        DiscreteMeasure.from_atoms([(1.5, 0.125), (4.0, 0.625), (9.0, 0.25)]),
    ))
    pairs.append(tuple(harmonic_mixing_measure(predecessor_joint(300, l)) for l in (150, 100)))
    for mu, nu in pairs:
        assert measure_wasserstein(mu, nu) == pytest.approx(scipy_distance(mu, nu), rel=1e-12, abs=0)


# Handcrafted measures for the row kernels: duplicate locations (coalesced),
# all mass at rate 0 (the point mass at 0), one atom, and rates near 20.
EDGE_MEASURES = [
    (np.array([3.0, 1.0, 3.0, 0.0]), np.full(4, 0.25)),
    (np.array([2.5, 2.5, 2.5]), np.array([0.5, 0.25, 0.25])),
    (np.array([0.0]), np.array([1.0])),
    (np.array([0.0, 0.0]), np.array([0.5, 0.5])),
    (np.array([7.5]), np.array([1.0])),
    (np.array([np.nextafter(20.0, 0.0)]), np.array([1.0])),
    (np.array([19.75, 0.0, 19.75, 1e-9]), np.array([0.125, 0.25, 0.5, 0.125])),
]


def _flat(measures):
    """Measures given as (locations, weights) pairs, as the flat arrays of _measure_rows."""
    return (np.array([len(loc) for loc, _ in measures]),
            np.concatenate([loc for loc, _ in measures]), np.concatenate([w for _, w in measures]))


def test_measure_rows_are_discrete_measures():
    sizes, locations, weights = _measure_rows(*_flat(EDGE_MEASURES))
    assert sizes.tolist() == [3, 1, 1, 1, 1, 1, 3]  # after coalescing
    cuts = np.cumsum(sizes)[:-1]
    for (loc, w), row_loc, row_w in zip(EDGE_MEASURES, np.split(locations, cuts),
                                        np.split(weights, cuts)):
        m = DiscreteMeasure(loc, w)
        assert np.array_equal(row_loc, m.locations) and np.array_equal(row_w, m.weights)


def test_measure_rows_reject_what_discrete_measure_rejects():
    good = (np.array([1.0]), np.array([1.0]))
    for bad in ((np.array([-1.0]), np.array([1.0])), (np.array([math.inf]), np.array([1.0])),
                (np.array([1.0, 2.0]), np.array([math.nan, 1.0])), (np.array([1.0]), np.array([0.5]))):
        with pytest.raises(ValueError):
            _measure_rows(*_flat([good, bad]))


def test_mixture_rows_match_mixed_poisson_pmf_on_edge_measures():
    masses, tails = _mixed_poisson_rows(*_measure_rows(*_flat(EDGE_MEASURES)))
    for (loc, w), row, tail in zip(EDGE_MEASURES, masses, tails):
        p = mixed_poisson_pmf(DiscreteMeasure(loc, w))
        k_max = np.flatnonzero(row)[-1]
        assert p.offset == 0 and p.support_max == k_max, loc
        np.testing.assert_allclose(row[: k_max + 1], p.masses, rtol=1e-15, atol=0)
        assert abs(tail - p.truncated_tail) <= 1e-15 * p.truncated_tail, loc
        if not loc.any():
            assert p == Pmf.delta(0)
            assert row.tolist() == [1.0] + [0.0] * (len(row) - 1) and tail == 0.0


def test_measure_wasserstein_rows_ignore_the_padding():
    # Every ordered pair of the edge measures, one after the other, in one call.
    pairs = [(i, j) for i in range(len(EDGE_MEASURES)) for j in range(len(EDGE_MEASURES))]
    rows = _measure_wasserstein_rows(*_measure_rows(*_flat(
        [EDGE_MEASURES[k] for pair in pairs for k in pair])))
    measures = [DiscreteMeasure(loc, w) for loc, w in EDGE_MEASURES]
    assert rows == [measure_wasserstein(measures[i], measures[j]) for i, j in pairs]


def test_poisson_laws_count_kernel_passes(monkeypatch):
    # The support search hands back the block it evaluated: a Poisson law
    # takes one kernel pass, the reflected mixture one more for its
    # Poisson(c/2) tails, a discrete mixture one more for all its rates, and
    # so does a lemma4b chunk of 2 * LEMMA4B_CHUNK laws in one call.
    passes = []

    def counted(lam, k_max):
        passes.append(k_max)
        return _poisson_kernel(lam, k_max)

    monkeypatch.setattr(distributions, "_poisson_kernel", counted)
    five_atoms = DiscreteMeasure(np.array([0.5, 2.0, 3.0, 7.5, 11.0]), np.full(5, 0.2))
    chunk = _measure_rows(*_measure_draws(np.random.default_rng(7), 2 * LEMMA4B_CHUNK))
    for law, expected in (
        (lambda: poisson_pmf(12.3), 1),
        (lambda: mixed_poisson_pmf(limit_mixing_measure(16384, 0.5)), 2),
        (lambda: mixed_poisson_pmf(five_atoms), 2),
        (lambda: _mixed_poisson_rows(*chunk), 2),
    ):
        passes.clear()
        law()
        assert len(passes) == expected


def test_mixpo_contraction_on_random_pairs():
    # Mixed Poisson evaluation contracts the Wasserstein distance: the
    # lemma4b suite, with slack 1e-8, on 1000 random pairs of measures.
    rows = run_suite("lemma4b", seed=2024)
    assert len(rows) == 1000
    assert all(row["holds"] for row in rows)
