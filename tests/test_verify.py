"""Verify suites: the enumerating and per-key suites run batched kernels, not per-row calls."""

import sys

import pytest

from depthlab.exact_depth import _brute_depth_counts
from depthlab.verify import run_suite


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
    ],
)
def test_suite_makes_no_per_row_call(monkeypatch, suite, kwargs, per_row):
    _brute_depth_counts.cache_clear()  # the oracle and find suites enumerate afresh
    _forbid(monkeypatch, per_row)
    rows = run_suite(suite, **kwargs)
    assert rows and all(r["holds"] for r in rows)
