"""The benchmark's workloads: which CLI ops each runs, and how each is checked.

A workload is a list of children.  Each child is one fresh interpreter that
imports depthlab (timed as setup) and then runs its ops in sequence through
``depthlab.cli.run`` (timed per op).  One round runs every child once; the
benchmark repeats rounds in a closed loop with one client.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from bench_checks import check_approx, check_exact, check_simulate, check_verify

CENTRAL_N = 16384
CENTRAL_L = 8192
CENTRAL_T = 0.5

# Verify suites of sweep-small with the argv tail each runs at.  Suites not
# listed with --n-max run at their CLI defaults; the three widest sweeps are
# narrowed so that one pass takes a few seconds.  theorem6 is left out: its
# n = 16384 work is central-large's.
SWEEP_SUITES = (
    ("oracle", ()),
    ("moments", ("--n-max", "200")),
    ("theorem3", ()),
    ("lemma2", ("--n-max", "120")),
    ("lemma4b", ("SEED",)),
    ("lemma5", ("--n-max", "40")),
    ("metrics", ("SEED",)),
    ("find", ()),
    ("moves", ()),
)

SIM_N = 1000
SIM_L = 500
# Samples per route, sized so that each route's op takes about two seconds:
# long enough to average out second-scale host noise, short enough for two
# rounds in a 40 s run.
SIM_SAMPLES = {"bst": 1400, "find": 2800, "representation": 60000, "key": 24000}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Child:
    """One fresh process.  ``metric`` names the op-level metric it feeds;
    ``work`` is the sample count when that metric is a rate, else None;
    ``entry`` is the ``module:function`` each op's argv is passed to."""

    label: str
    ops: tuple[Op, ...]
    metric: str
    work: int | None = None
    entry: str = "depthlab.cli:run"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    children: Callable[[int, dict], list[Child]]


def _central(seed: int, ctx: dict) -> list[Child]:
    n, l, t = str(CENTRAL_N), str(CENTRAL_L), str(CENTRAL_T)
    exact = Op("exact", ("exact", "--n", n, "--l", l, "--format", "json"),
               partial(check_exact, n=CENTRAL_N, l=CENTRAL_L))
    approx = Op("approx", ("approx", "--n", n, "--t", t, "--format", "json"),
                partial(check_approx, expected_scaled=ctx["mixpo_scaled_dw"][str(CENTRAL_N)]))
    return [Child("exact", (exact,), "exact_s"), Child("approx", (approx,), "approx_s")]


def _sweep(seed: int, ctx: dict) -> list[Child]:
    ops = []
    for suite, extra in SWEEP_SUITES:
        tail = ("--seed", str(seed)) if extra == ("SEED",) else extra
        ops.append(Op(f"verify.{suite}", ("verify", "--suite", suite, *tail, "--format", "json"),
                      check_verify))
    return [Child("sweep", tuple(ops), "sweep_s")]


def _simulate(seed: int, ctx: dict) -> list[Child]:
    children = []
    for route, k in SIM_SAMPLES.items():
        l = None if route == "key" else SIM_L
        argv = ["simulate", "--route", route, "--n", str(SIM_N)]
        if l is not None:
            argv += ["--l", str(l)]
        argv += ["--samples", str(k), "--seed", str(seed), "--format", "json"]
        check = partial(check_simulate, route=route, n=SIM_N, l=l, samples=k)
        children.append(Child(route, (Op(f"simulate.{route}", tuple(argv), check),),
                              f"{route}_samples_per_s", k))
    return children


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "central-large",
            "CLI exact and approx at n = 16384, l = 8192 (t = 0.5): the ROADMAP baseline point.",
            "exact_depth predecessor grid (_jd_block) and the two matrix products; approx builds "
            "the exact pmf twice and runs the mixed-Poisson quadrature",
            "samplers, trees and per-call overhead: a handful of calls, each doing large numpy work",
            _central,
        ),
        Workload(
            "sweep-small",
            "Nine verify suites in one child: tens of thousands of small calls at n <= 500.",
            "per-call cost: exact_depth_pmf on tiny grids incl. edge keys, mixing_variance_report, "
            "hypergeometric_log_bound_report, discrete mixed_poisson_pmf, Pmf construction, metrics, "
            "scipy.stats per-call overhead",
            "wide grids (no n above 3000) and the samplers",
            _sweep,
        ),
        Workload(
            "simulate-routes",
            "simulate on routes bst, find, representation (n = 1000, l = 500) and key (n = 1000).",
            "per-sample Python cost in montecarlo and trees, and the hypergeometric cdf cache",
            "grid work beyond one n = 1000 reference pmf per op; verify and quadrature",
            _simulate,
        ),
    )
}
