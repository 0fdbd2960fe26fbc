"""Verify suites: the enumerating and per-key suites run batched kernels, not per-row calls."""

import sys

import pytest

from depthlab.exact_depth import _brute_depth_counts, _jd_blocks
from depthlab.verify import ROOTSPLIT_EVERY_KEY_MAX, run_suite


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
    ],
)
def test_suite_makes_no_per_row_call(monkeypatch, suite, kwargs, per_row):
    _brute_depth_counts.cache_clear()  # the oracle and find suites enumerate afresh
    _forbid(monkeypatch, per_row)
    rows = run_suite(suite, **kwargs)
    assert rows and all(r["holds"] for r in rows)


def test_rootsplit_reaches_a_band_cut_block():
    # moments no longer calls the banded route, and no band cuts at n <= 500:
    # rootsplit's spot keys must reach the blocks whose tails are booked.
    rows = run_suite("rootsplit")
    assert rows and all(r["holds"] for r in rows)
    spots = [(r["params"]["n"], r["params"]["l"]) for r in rows
             if r["params"]["n"] > ROOTSPLIT_EVERY_KEY_MAX]
    assert any(w.shape[1] < n - l + 1 for n, l in spots for _, _, w, _ in _jd_blocks(n, l))
