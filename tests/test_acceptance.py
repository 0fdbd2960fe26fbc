"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  Regression baselines live in tests/data/baselines.json.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

import depthlab as dl
from depthlab.distributions import harmonic_table
from depthlab.exact_depth import _depth_law_rows
from depthlab.montecarlo import RngStream
from depthlab.verify import run_suite

BASELINES = json.loads((Path(__file__).parent / "data" / "baselines.json").read_text())


def _line(label: int | str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label!s:>2} {status}: {detail}")


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    worst = max(row["lhs"] for row in run_suite("oracle", n_max=8))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 60
    _line(1, ok, f"exact vs enumeration, n<=8 all l: worst d_TV={worst:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-12
    assert elapsed < 60


def test_criterion_02_03_moment_identities():
    t0 = time.time()
    rows = run_suite("moments", n_max=500)
    worst_mean = max(r["lhs"] for r in rows if r["params"]["check"] == "mean")
    worst_var = max(r["lhs"] for r in rows if r["params"]["check"] == "variance")
    elapsed = time.time() - t0
    ok_mean = worst_mean < 1e-9
    _line(2, ok_mean, f"mean identity n<=500: worst abs err={worst_mean:.2e} ({elapsed:.1f}s)")
    assert ok_mean

    spot_ok = (
        abs(dl.depth_variance(3, 2) - 2 / 3) < 1e-12
        and abs(dl.depth_variance(4, 2) - 35 / 36) < 1e-12
    )
    ok_var = worst_var < 1e-8 and spot_ok
    _line(3, ok_var, f"variance identity n<=500: worst rel err={worst_var:.2e}, spot values exact")
    assert worst_var < 1e-8
    assert spot_ok


def test_criterion_04_poisson_bound_grid():
    t0 = time.time()
    baseline = BASELINES["poisson_bound_lhs"]
    rows = run_suite("theorem3")
    all_hold = all(r["holds"] for r in rows)
    drift = 0.0
    for r in rows:
        ref = baseline["{n},{l}".format(**r["params"])]
        drift = max(drift, abs(r["lhs"] - ref) / max(1e-12, ref))
    elapsed = time.time() - t0
    ok = all_hold and drift < 1e-6 and elapsed < 300
    _line(
        4,
        ok,
        f"Poisson bound grid up to n=3000: all hold, baseline drift={drift:.1e} ({elapsed:.1f}s)",
    )
    assert all_hold
    assert drift < 1e-6
    assert elapsed < 300


def test_criterion_05_mixpo_trend():
    t0 = time.time()
    baseline = BASELINES["mixpo_scaled_dw"]
    scaled = {r["params"]["n"]: r["lhs"] for r in run_suite("theorem6")}
    for n, s in scaled.items():
        assert math.isfinite(s)
        assert abs(s - baseline[str(n)]) / baseline[str(n)] < 1e-6
    elapsed = time.time() - t0
    first, last = scaled[min(scaled)], scaled[max(scaled)]
    assert scaled[4096] <= 1.10 * scaled[64]
    ok = last <= 1.10 * first and elapsed < 900
    _line(
        5,
        ok,
        f"scaled mixed-Poisson d_W at t=1/2: first={first:.4f} last={last:.4f} "
        f"(+{100 * (last / first - 1):.2f}%) ({elapsed:.1f}s)",
    )
    assert last <= 1.10 * first
    assert elapsed < 900


def test_criterion_06_mixing_variance_bound():
    t0 = time.time()
    rows = run_suite("lemma2", n_max=300)
    for r in rows:
        assert r["holds"], r["params"]
    top = max(rows, key=lambda r: r["lhs"])
    max_var, argmax = top["lhs"], tuple(top["params"].values())
    elapsed = time.time() - t0
    ref = BASELINES["mixing_variance_max"]["value"]
    ok = max_var <= 28.0 and abs(max_var - ref) < 1e-6
    _line(
        6,
        ok,
        f"mixing-measure variance <= 28 for n<=300: max={max_var:.6f} at {argmax} ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_07_hypergeometric_bound():
    t0 = time.time()
    rows = run_suite("lemma5", n_max=80)
    for r in rows:
        assert r["holds"], r["params"]
    checked = len(rows)
    min_margin = min(r["rhs"] - r["lhs"] for r in rows)
    elapsed = time.time() - t0
    _line(
        7,
        True,
        f"hypergeometric log-ratio bound: {checked} cases, min margin={min_margin:.4f} ({elapsed:.1f}s)",
    )
    assert checked > 170_000


def test_criterion_08_mixpo_contraction():
    t0 = time.time()
    # The suite's rhs carries a 1e-8 slack over the measure-level distance.
    rows = run_suite("lemma4b", trials=1000, seed=20240817)
    for r in rows:
        assert r["holds"], r["params"]
    worst = max(r["lhs"] - (r["rhs"] - 1e-8) for r in rows)
    elapsed = time.time() - t0
    _line(8, True, f"mixed-Poisson contraction, 1000 pairs: worst excess={worst:.2e} ({elapsed:.1f}s)")


def test_criterion_09_tv_le_two_dw():
    t0 = time.time()
    # The suite's rhs carries a 1e-10 slack over 2 d_W.
    rows = [
        r for r in run_suite("metrics", trials=1000, seed=31337)
        if r["params"]["check"] == "tv_le_2dw"
    ]
    for r in rows:
        assert r["holds"], r["params"]
    worst = max(r["lhs"] - (r["rhs"] - 1e-10) for r in rows)
    elapsed = time.time() - t0
    _line(9, True, f"d_TV <= 2 d_W on 1000 pairs: worst excess={worst:.2e} ({elapsed:.1f}s)")


def test_criterion_10_find_equivalence():
    t0 = time.time()
    # Exhaustive: recursion-count pmf equals the enumeration oracle pmf exactly.
    for r in run_suite("find", n_max=7):
        assert r["lhs"] == 0.0, r["params"]

    # Pathwise: r_minus + r_plus equals the tree depth on 1e5 random cases.
    rng = RngStream(seed=424242)
    gen = rng.generator
    cases = 0
    failures = 0
    while cases < 100_000:
        n = int(gen.integers(1, 501))
        perm = dl.random_permutation(n, rng)
        bst = dl.build_bst(perm)
        for l in (int(v) for v in gen.integers(1, n + 1, size=min(50, 100_000 - cases))):
            rd = dl.record_decomposition(perm, l)
            if rd.r_minus + rd.r_plus != bst.depth_of[l]:
                failures += 1
            cases += 1
    elapsed = time.time() - t0
    ok = failures == 0
    _line(
        10,
        ok,
        f"quickselect pmf exact n<=7; decomposition identity on {cases} cases, "
        f"{failures} failures ({elapsed:.1f}s)",
    )
    assert failures == 0


def test_criterion_11_move_counts():
    t0 = time.time()
    worst = max(r["lhs"] for n in (2, 3, 5, 10, 40, 120) for r in run_suite("moves", n=n))
    mj = dl.move_joint_pmf(3, 2)
    joint = mj.grid[0, 0]
    product = mj.right_marginal().mass_at(0) * mj.left_marginal().mass_at(0)
    witness = abs(joint - 1 / 3) < 1e-12 and abs(product - 1 / 4) < 1e-12
    elapsed = time.time() - t0
    ok = worst < 1e-12 and witness
    _line(
        11,
        ok,
        f"move marginals are record laws (worst d_TV={worst:.1e}); "
        f"joint(0,0)={joint:.4f} vs product={product:.4f} ({elapsed:.1f}s)",
    )
    assert worst < 1e-12
    assert witness


def test_criterion_12a_normality_trend_exact():
    t0 = time.time()
    results = {}
    for rule in ("half", "one"):
        values = []
        for n in (100, 1000, 10_000):
            l = (n + 1) // 2 if rule == "half" else 1
            am = dl.depth_mean(n, l)
            values.append(
                dl.ks_to_standard_normal(dl.exact_depth_pmf(n, l), am, math.sqrt(am))
            )
        results[rule] = values
    elapsed = time.time() - t0
    ok = all(
        all(v[i] >= v[i + 1] for i in range(len(v) - 1)) and v[-1] < 0.1
        for v in results.values()
    )
    _line(
        "12a",
        ok,
        "KS to normal decreases along n=1e2,1e3,1e4: "
        f"median-key {['%.4f' % v for v in results['half']]}, "
        f"key 1 {['%.4f' % v for v in results['one']]} ({elapsed:.1f}s)",
    )
    assert ok


def random_key_depth_law(n: int) -> dl.Pmf:
    """Exact law of the depth of a uniformly random key in a random BST of size n.

    The m-th inserted key lands at depth sum_{k=2}^{m} Bernoulli(2/k) with
    independent terms (the record argument of Devroye 1988, "Applications of
    the theory of records in the study of random trees", Acta Informatica 26),
    and a uniformly random key is the m-th inserted with probability 1/n.
    Built here, O(n^2), as an oracle that shares no code with the samplers.
    """
    current = np.zeros(n)
    current[0] = 1.0
    mixture = current.copy()
    for k in range(2, n + 1):
        p = 2.0 / k
        current[1:k] = current[1:k] * (1.0 - p) + current[: k - 1] * p
        current[0] *= 1.0 - p
        mixture += current
    return dl.Pmf.from_masses(0, mixture / n)


def _dense(p: dl.Pmf, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[p.offset : p.offset + len(p.masses)] = p.masses
    return out


def _per_key_average(law, n: int) -> np.ndarray:
    return np.mean([_dense(law(n, l), n) for l in range(1, n + 1)], axis=0)


def test_criterion_12b_reference_law():
    """The oracle 12b relies on equals the per-key average of the exact laws."""
    worst = 0.0
    for n, law in [(n, dl.brute_force_depth_pmf) for n in range(1, 9)] + [
        (50, dl.exact_depth_pmf),
        (200, dl.exact_depth_pmf),
    ]:
        diff = np.abs(_dense(random_key_depth_law(n), n) - _per_key_average(law, n))
        worst = max(worst, float(diff.max()))
    assert worst < 1e-12, f"reference law vs per-key average: worst abs diff {worst:.2e}"

    # A second oracle: the mean over keys of the root-split row of size n.
    for row in _depth_law_rows(1000):
        if len(row) in (100, 1000):
            mean_row = row.mean(axis=0)
            average = dl.Pmf.from_masses(0, mean_row[:-1], float(mean_row[-1]))
            d = float(dl.total_variation(random_key_depth_law(len(row)), average))
            assert d <= 1e-13, (len(row), d)

    n = 10_000
    mean, _ = dl.mean_var(random_key_depth_law(n))
    closed_form = 2.0 * (n + 1) * harmonic_table(n).H[n] / n - 4.0
    assert abs(mean - closed_form) < 1e-9, (mean, closed_form)


def test_criterion_12b_random_key_normality():
    """Random-key depth is approximately normal under (2 log n, sqrt(2 log n)).

    The limit theorem (D_n - 2 log n)/sqrt(2 log n) -> N(0, 1) promises no
    rate, and the KS < 0.05 threshold once asserted here is not supported at
    n = 10^4: no affine standardization meets it.  The exact mean is
    2 (n+1)/n H_n - 4 = 15.577 against 2 log n = 18.421, an offset of ~0.66
    standard deviations that shrinks only like 1/sqrt(log n); the exact law's
    KS is 0.3168 under the prescribed standardization, 0.0579 centred at the
    exact mean and 0.0564 with exact mean and variance.  Its largest atom is
    0.0977, and a lattice law stays at least half its largest atom (0.0488)
    from a continuous cdf.

    What is asserted instead, against the exact law of `random_key_depth_law`:
      * the sampler draws that law: sup |F_emp - F_exact| <= eps, the
        Dvoretzky-Kiefer-Wolfowitz-Massart bound at failure probability 1e-9
        (eps = 0.0103 for 10^5 samples; measured 0.0034);
      * under the prescribed standardization the exact law's KS strictly
        decreases along n = 10^2, 10^3, 10^4 (0.4336, 0.3623, 0.3168), as 12a
        requires for fixed keys;
      * the sample shows that trend: KS_sample(10^4) + eps < KS_exact(10^3)
        (0.3180 + 0.0103 < 0.3623).
    """
    t0 = time.time()
    n, count, delta = 10_000, 100_000, 1e-9
    samples = dl.collect_samples("key", n, None, count, seed=20260810)
    emp = dl.empirical_pmf(samples)
    two_log = 2.0 * math.log(n)
    ks = dl.ks_to_standard_normal(emp, two_log, math.sqrt(two_log))

    laws = {size: random_key_depth_law(size) for size in (100, 1000, n)}
    trend = []
    for size, law in laws.items():
        centre = 2.0 * math.log(size)
        trend.append(dl.ks_to_standard_normal(law, centre, math.sqrt(centre)))
    decreasing = trend[0] > trend[1] > trend[2]

    exact = laws[n]
    eps = math.sqrt(math.log(2.0 / delta) / (2.0 * count))
    cdf_gap = float(np.abs(np.cumsum(_dense(emp, n)) - np.cumsum(_dense(exact, n))).max())
    mean, var = dl.mean_var(exact)
    ks_exact_mean = dl.ks_to_standard_normal(exact, mean, math.sqrt(two_log))
    ks_exact_moments = dl.ks_to_standard_normal(exact, mean, math.sqrt(var))
    lattice_floor = float(exact.masses.max()) / 2.0
    elapsed = time.time() - t0
    ok = cdf_gap <= eps and decreasing and ks + eps < trend[1]
    _line(
        "12b",
        ok,
        f"random-key KS vs normal, (2logn, sqrt(2logn)): sample {ks:.4f}, exact "
        f"{['%.4f' % v for v in trend]} along n=1e2,1e3,1e4; exact-mean {ks_exact_mean:.4f}, "
        f"mean-and-variance {ks_exact_moments:.4f}, lattice floor {lattice_floor:.4f}; "
        f"sup|F_emp-F_exact|={cdf_gap:.4f} vs DKW eps={eps:.4f} ({elapsed:.1f}s)",
    )
    assert cdf_gap <= eps, (
        f"sample cdf is {cdf_gap:.4f} from the exact random-key law, beyond the "
        f"DKW bound {eps:.4f} at failure probability {delta:g}: the key route "
        f"does not draw the random-key depth"
    )
    assert decreasing, (
        f"exact random-key KS under (2 log n, sqrt(2 log n)) does not strictly "
        f"decrease along n=1e2,1e3,1e4: {trend}"
    )
    assert ks + eps < trend[1], (
        f"sample KS {ks:.4f} at n=10^4 plus DKW eps {eps:.4f} does not fall below "
        f"the exact KS {trend[1]:.4f} at n=10^3; exact-mean centring gives "
        f"{ks_exact_mean:.4f} and the lattice floor is {lattice_floor:.4f}, so no "
        f"affine standardization reaches the old 0.05 threshold at this n"
    )


def test_criterion_13_sampler_cross_validation():
    t0 = time.time()
    n, l, count = 100, 37, 100_000
    exact = dl.exact_depth_pmf(n, l)
    emps = {}
    for route in ("bst", "representation", "find"):
        samples = dl.collect_samples(route, n, l, count, seed=8675309)
        emps[route] = dl.empirical_pmf(samples)
    vs_exact = {
        route: float(dl.total_variation(emp, exact)) for route, emp in emps.items()
    }
    routes = list(emps)
    pairwise = {
        f"{a}/{b}": float(dl.total_variation(emps[a], emps[b]))
        for i, a in enumerate(routes)
        for b in routes[i + 1 :]
    }
    repeat = dl.collect_samples("find", n, l, 1000, seed=8675309)
    again = dl.collect_samples("find", n, l, 1000, seed=8675309)
    deterministic = repeat == again
    elapsed = time.time() - t0
    ok = (
        all(v < 0.01 for v in vs_exact.values())
        and all(v < 0.015 for v in pairwise.values())
        and deterministic
    )
    _line(
        13,
        ok,
        f"three routes at (100,37), 1e5 samples: max vs exact={max(vs_exact.values()):.4f}, "
        f"max pairwise={max(pairwise.values()):.4f}, deterministic={deterministic} ({elapsed:.1f}s)",
    )
    assert all(v < 0.01 for v in vs_exact.values()), vs_exact
    assert all(v < 0.015 for v in pairwise.values()), pairwise
    assert deterministic
