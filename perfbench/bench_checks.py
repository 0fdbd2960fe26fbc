"""Output checks for each benchmark op, with reference values computed here.

The closed forms are re-derived in plain Python so that a check never trusts
a value the program printed about itself.  Each check returns a list of
problems; an empty list means the op's output is correct.
"""

from __future__ import annotations

import json
import math

MEAN_TOL = 1e-9  # absolute, as in the `moments` verify suite
VAR_TOL = 1e-8  # relative to max(1, variance)
BASELINE_TOL = 1e-12
# Per-check failure probability allowed by the sampling bounds below.
SAMPLING_DELTA = 1e-9
# Two-sided normal quantile for SAMPLING_DELTA (Phi^-1(1 - 5e-10) = 6.109).
CLT_Z = 6.11


def harmonic(n: int) -> tuple[list[float], list[float]]:
    """H_k and H_k^(2) for k = 0..n."""
    h, h2 = [0.0] * (n + 1), [0.0] * (n + 1)
    for k in range(1, n + 1):
        h[k] = math.fsum((h[k - 1], 1.0 / k))
        h2[k] = math.fsum((h2[k - 1], 1.0 / (k * k)))
    return h, h2


def depth_moments(n: int, l: int, h=None) -> tuple[float, float]:
    """Mean and variance of the depth of key l in a random BST of size n."""
    h, h2 = h or harmonic(n)
    r = n + 1 - l
    a = 2.0 * (n + 1) / (l * r)
    mean = h[l] + h[r] - 2.0
    var = a * h[n] + (1.0 - a) * (h[l] + h[r]) - h2[l] - h2[r] + 2.0 / (l * r) + 2.0
    return mean, var


def random_key_moments(n: int) -> tuple[float, float]:
    """Mean and variance of the depth of a uniform random key (law of total variance)."""
    h = harmonic(n)
    pairs = [depth_moments(n, l, h) for l in range(1, n + 1)]
    mean = math.fsum(m for m, _ in pairs) / n
    second = math.fsum(v + m * m for m, v in pairs) / n
    return mean, second - mean * mean


def tv_sampling_bound(samples: int, sd: float) -> float:
    """Upper bound on d_TV(empirical, exact) that fails with prob. <= SAMPLING_DELTA.

    With K samples, E|p^_k - p_k| <= sqrt(p_k / K), so E[d_TV] <= sum_k sqrt(p_k) / (2 sqrt K).
    Cauchy-Schwarz with weights 1 + ((k - mu)/sd)^2 gives
    sum_k sqrt(p_k) <= sqrt(2) * sqrt(sum_k 1/(1 + ((k - mu)/sd)^2)) <= sqrt(2 (1 + pi sd)).
    Moving one sample moves d_TV by at most 1/K, so McDiarmid adds
    sqrt(ln(1/delta) / (2K)) at failure probability delta.
    """
    mean_part = math.sqrt(2.0 * (1.0 + math.pi * sd)) / (2.0 * math.sqrt(samples))
    return mean_part + math.sqrt(math.log(1.0 / SAMPLING_DELTA) / (2.0 * samples))


def _doc(stdout: str) -> dict:
    return json.loads(stdout)


def check_exact(stdout: str, n: int, l: int) -> list[str]:
    doc = _doc(stdout)
    mean, var = depth_moments(n, l)
    errs = []
    if abs(doc["mean"] - mean) > MEAN_TOL:
        errs.append(f"exact mean {doc['mean']!r} vs closed form {mean!r}")
    if abs(doc["variance"] - var) / max(1.0, var) > VAR_TOL:
        errs.append(f"exact variance {doc['variance']!r} vs closed form {var!r}")
    return errs


def check_approx(stdout: str, expected_scaled: float) -> list[str]:
    doc = _doc(stdout)
    errs = []
    scaled = doc["mixpo"]["d_w_scaled_by_sqrt_log_n"]
    if abs(scaled - expected_scaled) > BASELINE_TOL:
        errs.append(f"d_w_scaled_by_sqrt_log_n {scaled!r} vs baseline {expected_scaled!r}")
    if doc["poisson"]["holds"] is not True:
        errs.append("poisson bound does not hold")
    return errs


def check_verify(stdout: str) -> list[str]:
    doc = _doc(stdout)
    if doc["failures"] != 0:
        return [f"verify reported {doc['failures']} failing checks of {doc['checks']}"]
    return []


def check_simulate(stdout: str, route: str, n: int, l: int | None, samples: int) -> list[str]:
    """Empirical mean inside a CLT band, and d_TV to the exact law under its bound."""
    doc = _doc(stdout)
    errs = []
    if doc["samples"] != samples:
        errs.append(f"simulate reported {doc['samples']} samples, asked for {samples}")
    emp = doc["empirical"]
    masses = emp["masses"]
    if abs(math.fsum(masses) - 1.0) > 1e-12:
        errs.append("empirical masses do not sum to 1")
    emp_mean = math.fsum((emp["offset"] + k) * m for k, m in enumerate(masses))
    mean, var = random_key_moments(n) if route == "key" else depth_moments(n, l)
    sd = math.sqrt(var)
    band = CLT_Z * sd / math.sqrt(samples)
    if abs(emp_mean - mean) > band:
        errs.append(f"{route} mean {emp_mean!r} outside {mean!r} +- {band!r}")
    if route != "key":
        bound = tv_sampling_bound(samples, sd)
        d_tv = doc.get("d_tv_vs_exact")
        if d_tv is None or not 0.0 <= d_tv <= bound:
            errs.append(f"{route} d_tv_vs_exact {d_tv!r} above sampling bound {bound!r}")
    return errs
