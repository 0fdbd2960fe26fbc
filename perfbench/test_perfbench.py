"""Tests of the benchmark itself: span arithmetic, wrappers, checks, caches.

Run with ``python -m pytest perfbench``.  The module also serves as a fake CLI
entry point (``fake_run``) for the fail-ratio test, so it imports nothing
beyond the standard library and the benchmark's own modules at load time.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]

import bench_checks  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer, cache_counters, self_times  # noqa: E402
from workloads import Child, Op, Workload  # noqa: E402


def fake_run(argv, out):
    """Stand-in for depthlab.cli.run: prints an `exact` document for --n/--l,
    with the mean off by 0.5 when --wrong is given."""
    n, l = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--l") + 1])
    mean, var = bench_checks.depth_moments(n, l)
    if "--wrong" in argv:
        mean += 0.5
    json.dump({"mean": mean, "variance": var}, out)
    return 0


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] -> a [1, 4] -> c [2, 3]; root -> b [5, 9]; b -> a [6, 7]
    names = ["root", "a", "b", "c"]
    name_id = [0, 1, 3, 2, 1]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0]
    got = self_times(names, name_id, parent, start, end)
    assert got["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert got["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert got["b"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert got["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert math.isclose(sum(v["self_s"] for v in got.values()), 10.0)


def test_wrapper_passes_values_and_exceptions():
    tracer = Tracer()

    def square(x):
        return x * x

    def fail():
        raise KeyError("boom")

    sq, bad = tracer.wrap("square", square), tracer.wrap("fail", fail)
    with tracer.span("outer"):
        assert sq(7) == 49
        try:
            bad()
        except KeyError as exc:
            assert exc.args == ("boom",)
        else:
            raise AssertionError("exception was swallowed")
    summary = tracer.summary()
    assert {k: v["calls"] for k, v in summary.items()} == {"outer": 1, "square": 1, "fail": 1}
    assert list(tracer.parent) == [-1, 0, 0]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_install_wraps_every_namespace_and_uninstalls_cleanly():
    import depthlab
    from depthlab import cli, distributions, exact_depth
    from depthlab.distributions import Pmf

    before = {
        "pkg": depthlab.exact_depth_pmf,
        "cli": cli.exact_depth_pmf,
        "mod": exact_depth.exact_depth_pmf,
        "poisson": exact_depth.poisson_pmf,
        "from_masses": vars(Pmf)["from_masses"],
        "command": cli._COMMANDS["exact"],
    }
    tracer = Tracer()
    try:
        assert tracer.install() > 20
        assert cli.exact_depth_pmf is exact_depth.exact_depth_pmf is depthlab.exact_depth_pmf
        assert cli.exact_depth_pmf is not before["mod"]
        assert exact_depth.poisson_pmf is distributions.poisson_pmf is not before["poisson"]
        assert cli._COMMANDS["exact"] is cli.cmd_exact is not before["command"]
        pmf, ref = cli.exact_depth_pmf(5, 3), before["mod"](5, 3)
        assert pmf.offset == ref.offset and pmf.masses.tolist() == ref.masses.tolist()
        try:
            cli.exact_depth_pmf(0, 1)
        except ValueError:
            pass
        else:
            raise AssertionError("ValueError did not pass through the wrapper")
        calls = {k: v["calls"] for k, v in tracer.summary().items()}
        assert calls["exact_depth.exact_depth_pmf"] == 2
        assert calls["distributions.Pmf.from_masses"] >= 1
    finally:
        tracer.uninstall()
    assert depthlab.exact_depth_pmf is before["pkg"]
    assert cli.exact_depth_pmf is before["cli"] is before["mod"] is exact_depth.exact_depth_pmf
    assert exact_depth.poisson_pmf is before["poisson"]
    assert vars(Pmf)["from_masses"] is before["from_masses"]
    assert cli._COMMANDS["exact"] is before["command"]


def test_absent_cache_is_reported_absent():
    import depthlab  # noqa: F401  (the present cache lives in depthlab.exact_depth)

    got = cache_counters({
        "cache.ln_table": ("depthlab.exact_depth", "_ln_table"),
        "cache.renamed": ("depthlab.exact_depth", "_no_such_cache"),
        "cache.module_gone": ("depthlab.no_such_module", "_ln_table"),
    })
    assert got["cache.ln_table"]["status"] == "present"
    assert {"hits", "misses"} <= set(got["cache.ln_table"])
    assert got["cache.renamed"] == {"status": "absent"}
    assert got["cache.module_gone"] == {"status": "absent"}
    layers = run.layer_metrics({}, got, 1.0)
    assert layers["cache.renamed.hits"]["status"] == "absent"
    assert "status" not in layers["cache.ln_table.hits"]


def test_wrong_output_raises_fail_ratio():
    entry = "test_perfbench:fake_run"

    def op(label, wrong):
        argv = ("exact", "--n", "9", "--l", "4") + (("--wrong",) if wrong else ())
        check = lambda out: bench_checks.check_exact(out, n=9, l=4)  # noqa: E731
        return Op(label, argv, check)

    fake = Workload("fake", "", "", "",
                    lambda seed, ctx: [Child("fake", (op("good", False), op("bad", True)),
                                             "exact_s", entry=entry)])
    with tempfile.TemporaryDirectory() as workdir:
        res = run.run_plain(fake, seed=1, seconds=0.0, ctx={}, workdir=workdir,
                            deadline=time.monotonic() + 60)
    assert res["attempted"] == 2 and res["failed"] == 1
    assert res["metrics"]["fail_ratio"]["value"] == 0.5
    assert [e["op"] for e in res["errors"]] == ["bad"]
    assert "closed form" in res["errors"][0]["errors"][0]


def test_simulate_check_catches_a_shifted_sampler():
    n, l, k = 1000, 500, 2000
    mean, var = bench_checks.depth_moments(n, l)
    center = round(mean)
    doc = {"samples": k, "empirical": {"offset": center + 1, "masses": [1.0]},
           "d_tv_vs_exact": 0.9}
    errs = bench_checks.check_simulate(json.dumps(doc), "bst", n, l, k)
    assert len(errs) == 2
    assert bench_checks.tv_sampling_bound(k, math.sqrt(var)) < 0.2
