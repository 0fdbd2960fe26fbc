"""Command-line front end.

Commands: exact, approx, verify, simulate, depth-plot.  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success (and all bounds hold),
1 bound violation, 2 usage or domain error, 3 resource cap exceeded.

Output is deterministic for a fixed command line and seed: floats are printed
with 17 significant digits, CSV always uses '.' as the decimal separator, and
row order is fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

import numpy as np

from . import __version__
from .distributions import (
    Pmf,
    mean_var,
    record_count_pmf,
    total_variation,
    wasserstein,
)
from .exact_depth import (
    BRUTE_FORCE_CAP,
    DEFAULT_N_CAP,
    CapExceededError,
    brute_force_depth_pmf,
    depth_mean,
    depth_variance,
    exact_depth_pmf,
    hypergeometric_log_bound_report,
    mixing_variance_report,
    mixpo_distance,
    move_joint_pmf,
    poisson_bound_report,
    rank_to_key,
    _check_mixpo_args,
    _mixpo_distance_of,
    _poisson_bound_of,
)
from .mixing import (
    DiscreteMeasure,
    limit_mixing_measure,
    measure_wasserstein,
    mixed_poisson_pmf,
)
from .montecarlo import RngStream, collect_samples, empirical_pmf, random_permutation
from .trees import Permutation, depth_plot, find_select

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

THEOREM3_GRID = [2, 3, 5, 10, 30, 100, 300, 1000, 3000]
THEOREM6_GRID = [64, 256, 1024, 4096, 16384]

_SUITES = (
    "oracle",
    "moments",
    "theorem3",
    "theorem6",
    "lemma2",
    "lemma4b",
    "lemma5",
    "metrics",
    "find",
    "moves",
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _meta(operation: str, **params: Any) -> dict:
    meta = {"operation": operation, "version": __version__}
    meta.update(params)
    return meta


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DEPTHLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"DEPTHLAB_SEED must be a decimal integer, got {env!r}") from exc
    return 0


def _emit_json(doc: dict, out) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def _emit_pmf_csv(pmf: Pmf, out) -> None:
    out.write("k,mass\n")
    for k, m in pmf.items():
        out.write(f"{k},{_fmt(m)}\n")


# ---------------------------------------------------------------- exact


def cmd_exact(args, out) -> int:
    pmf = exact_depth_pmf(args.n, args.l, n_cap=args.cap)
    mean, var = mean_var(pmf)
    if args.format == "json":
        _emit_json(
            {
                "meta": _meta("exact", n=args.n, l=args.l),
                "pmf": pmf.to_json_dict(),
                "mean": mean,
                "variance": var,
                "mean_formula": depth_mean(args.n, args.l),
                "variance_formula": depth_variance(args.n, args.l),
            },
            out,
        )
    else:
        _emit_pmf_csv(pmf, out)
    return EXIT_OK


# ---------------------------------------------------------------- approx


def cmd_approx(args, out) -> int:
    if args.t is not None:
        _check_mixpo_args(args.n, args.t)
        l = rank_to_key(args.n, args.t)
    else:
        l = args.l
    doc: dict[str, Any] = {"meta": _meta("approx", n=args.n, l=l)}
    mean = depth_mean(args.n, l)
    doc["mean"] = mean
    doc["variance"] = depth_variance(args.n, l)
    exact = None
    if args.n >= 2:
        # One exact law serves both reports; with --t, l is the mixpo key.
        exact = exact_depth_pmf(args.n, l, n_cap=args.cap)
        rep = _poisson_bound_of(exact, args.n, l)
        doc["poisson"] = {
            "d_tv": rep.lhs,
            "bound": rep.rhs,
            "holds": rep.holds,
            "margin": rep.margin,
        }
    if args.t is not None:
        d, scaled = _mixpo_distance_of(exact, args.n, args.t)
        doc["mixpo"] = {
            "t": args.t,
            "shift": limit_mixing_measure(args.n, args.t).c,
            "d_w": float(d),
            "d_w_error_bound": d.error_bound,
            "d_w_scaled_by_sqrt_log_n": scaled,
        }
    if args.format == "json":
        _emit_json(doc, out)
    else:
        out.write("quantity,value\n")
        out.write(f"mean,{_fmt(doc['mean'])}\n")
        out.write(f"variance,{_fmt(doc['variance'])}\n")
        if "poisson" in doc:
            out.write(f"poisson_d_tv,{_fmt(doc['poisson']['d_tv'])}\n")
            out.write(f"poisson_bound,{_fmt(doc['poisson']['bound'])}\n")
        if "mixpo" in doc:
            out.write(f"mixpo_d_w,{_fmt(doc['mixpo']['d_w'])}\n")
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _verify_rows(suite: str, args) -> list[dict]:
    """One row per check; rhs is null for purely informational rows."""
    rows: list[dict] = []

    def add(params: dict, lhs: float, rhs: float | None, holds: bool) -> None:
        rows.append(
            {
                "suite": suite,
                "params": params,
                "lhs": float(lhs),
                "rhs": None if rhs is None else float(rhs),
                "holds": bool(holds),
            }
        )

    if suite == "oracle":
        n_max = min(args.n_max or 8, BRUTE_FORCE_CAP)
        grid = [args.n] if args.n else range(1, n_max + 1)
        for n in grid:
            for l in range(1, n + 1):
                d = total_variation(exact_depth_pmf(n, l), brute_force_depth_pmf(n, l))
                add({"n": n, "l": l}, float(d), 1e-12, float(d) <= 1e-12)

    elif suite == "moments":
        n_max = args.n_max or 500
        grid = [args.n] if args.n else range(1, n_max + 1)
        for n in grid:
            for l in _l_grid(n, 20):
                pmf = exact_depth_pmf(n, l, n_cap=args.cap)
                mean, var = mean_var(pmf)
                mean_err = abs(mean - depth_mean(n, l))
                kv = depth_variance(n, l)
                var_err = abs(var - kv) / max(1.0, kv)
                add({"n": n, "l": l, "check": "mean"}, mean_err, 1e-9, mean_err <= 1e-9)
                add({"n": n, "l": l, "check": "variance"}, var_err, 1e-8, var_err <= 1e-8)

    elif suite == "theorem3":
        if args.n is not None and args.n < 2:
            raise ValueError("the Poisson approximation bound requires n >= 2")
        grid = [args.n] if args.n else [
            n for n in THEOREM3_GRID if n <= (args.n_max or THEOREM3_GRID[-1])
        ]
        for n in grid:
            for l in sorted({1, math.ceil(n / 4), math.ceil(n / 2), n}):
                rep = poisson_bound_report(n, l, n_cap=args.cap)
                add({"n": n, "l": l}, rep.lhs, rep.rhs, rep.holds)

    elif suite == "theorem6":
        grid = [n for n in THEOREM6_GRID if n <= (args.n_max or THEOREM6_GRID[-1])]
        if args.n:
            grid = [args.n]
        scaled_values: list[tuple[int, float]] = []
        for n in grid:
            _, scaled = mixpo_distance(n, 0.5, n_cap=args.cap)
            scaled_values.append((n, scaled))
        threshold = 1.10 * scaled_values[0][1] if scaled_values else None
        for i, (n, scaled) in enumerate(scaled_values):
            rhs = threshold if i > 0 else None
            add(
                {"n": n, "t": 0.5, "check": "d_w_scaled"},
                scaled,
                rhs,
                True if rhs is None else scaled <= rhs,
            )

    elif suite == "lemma2":
        n_max = args.n_max or 300
        grid = [args.n] if args.n else range(1, n_max + 1)
        for n in grid:
            for l in range(1, n + 1):
                rep = mixing_variance_report(n, l)
                add({"n": n, "l": l}, rep.lhs, rep.rhs, rep.holds)

    elif suite == "lemma4b":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed or 0)))
        trials = args.trials or 1000
        for trial in range(trials):
            mu = _random_measure(rng)
            nu = _random_measure(rng)
            lhs = float(
                wasserstein(mixed_poisson_pmf(mu), mixed_poisson_pmf(nu))
            )
            rhs = measure_wasserstein(mu, nu) + 1e-8
            add({"trial": trial}, lhs, rhs, lhs <= rhs)

    elif suite == "lemma5":
        grid = [args.n] if args.n else range(1, (args.n_max or 80) + 1)
        for N in grid:
            for M in range(0, N + 1):
                for n_draw in range(0, N + 1):
                    if n_draw * M < 1:
                        continue
                    rep = hypergeometric_log_bound_report(N, M, n_draw)
                    add({"N": N, "M": M, "n": n_draw}, rep.lhs, rep.rhs, rep.holds)

    elif suite == "metrics":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed or 0)))
        trials = args.trials or 1000
        for trial in range(trials):
            p = _random_pmf(rng)
            q = _random_pmf(rng)
            tv = float(total_variation(p, q))
            dw = float(wasserstein(p, q))
            add({"trial": trial, "check": "tv_le_2dw"}, tv, 2.0 * dw + 1e-10, tv <= 2.0 * dw + 1e-10)
            gap = abs(mean_var(p)[0] - mean_var(q)[0])
            add({"trial": trial, "check": "dw_ge_mean_gap"}, gap, dw + 1e-10, gap <= dw + 1e-10)

    elif suite == "find":
        n_max = min(args.n_max or 7, 7)
        grid = [args.n] if args.n else range(1, n_max + 1)
        for n in grid:
            for l in range(1, n + 1):
                pmf = _exhaustive_find_pmf(n, l)
                d = total_variation(pmf, brute_force_depth_pmf(n, l))
                add({"n": n, "l": l}, float(d), 0.0, float(d) == 0.0)

    elif suite == "moves":
        n_max = args.n_max or 30
        grid = [args.n] if args.n else range(1, n_max + 1)
        for n in grid:
            for l in (1, max(1, n // 2), n):
                mj = move_joint_pmf(n, l, n_cap=args.cap)
                d_r = total_variation(
                    mj.right_marginal().shifted(1), record_count_pmf(l)
                )
                d_l = total_variation(
                    mj.left_marginal().shifted(1), record_count_pmf(n + 1 - l)
                )
                add({"n": n, "l": l, "check": "right"}, float(d_r), 1e-12, float(d_r) <= 1e-12)
                add({"n": n, "l": l, "check": "left"}, float(d_l), 1e-12, float(d_l) <= 1e-12)

    else:
        raise ValueError(f"unknown suite {suite!r}")

    return rows


def _l_grid(n: int, points: int) -> list[int]:
    if n <= points:
        return list(range(1, n + 1))
    return sorted({max(1, min(n, round(1 + (n - 1) * i / (points - 1)))) for i in range(points)})


def _random_pmf(rng: np.random.Generator) -> Pmf:
    width = int(rng.integers(1, 25))
    offset = int(rng.integers(0, 6))
    masses = rng.random(width) + 1e-3
    return Pmf.from_masses(offset, masses / masses.sum())


def _random_measure(rng: np.random.Generator) -> DiscreteMeasure:
    size = int(rng.integers(1, 8))
    locations = rng.random(size) * 20.0
    weights = rng.random(size) + 1e-3
    weights /= weights.sum()
    # Renormalize exactly so construction never trips the 1e-12 sum check.
    weights[-1] = 1.0 - math.fsum(weights[:-1].tolist())
    return DiscreteMeasure.from_atoms(list(zip(locations, weights)))


def _exhaustive_find_pmf(n: int, l: int) -> Pmf:
    from itertools import permutations

    counts = np.zeros(n, dtype=np.int64)
    for values in permutations(range(1, n + 1)):
        counts[find_select(Permutation(values), l).recursions] += 1
    return Pmf.from_masses(0, counts / math.factorial(n))


def cmd_verify(args, out) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    rows: list[dict] = []
    for suite in suites:
        rows.extend(_verify_rows(suite, args))
    failed = [r for r in rows if not r["holds"]]
    if args.format == "json":
        _emit_json(
            {
                "meta": _meta("verify", suites=suites),
                "checks": len(rows),
                "failures": len(failed),
                "rows": rows if args.all_rows else failed,
            },
            out,
        )
    else:
        out.write("suite,params,lhs,rhs,holds\n")
        for r in rows if args.all_rows else failed:
            params = ";".join(f"{k}={v}" for k, v in r["params"].items())
            rhs = "" if r["rhs"] is None else _fmt(r["rhs"])
            out.write(f"{r['suite']},{params},{_fmt(r['lhs'])},{rhs},{r['holds']}\n")
    if failed:
        for r in failed:
            print(
                f"FAILED {r['suite']} {r['params']}: lhs={r['lhs']} rhs={r['rhs']}",
                file=sys.stderr,
            )
        return EXIT_BOUND_VIOLATION
    print(f"verified {len(rows)} checks across {len(suites)} suite(s)", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def cmd_simulate(args, out) -> int:
    seed = _resolve_seed(args)
    if args.route != "key" and args.l is None:
        raise ValueError(f"route {args.route!r} requires --l")
    samples = collect_samples(
        args.route, args.n, args.l, args.samples, seed=seed, streams=args.streams
    )
    if args.raw:
        out.write("\n".join(str(s) for s in samples))
        out.write("\n")
        return EXIT_OK
    emp = empirical_pmf(samples)
    doc: dict[str, Any] = {
        "meta": _meta("simulate", n=args.n, l=args.l, route=args.route),
        "seed": seed,
        "samples": args.samples,
        "empirical": emp.to_json_dict(),
    }
    if args.route != "key" and args.n <= args.cap:
        exact = exact_depth_pmf(args.n, args.l, n_cap=args.cap)
        d = total_variation(emp, exact)
        doc["d_tv_vs_exact"] = float(d)
        doc["d_tv_error_bound"] = d.error_bound
    if args.format == "json":
        _emit_json(doc, out)
    else:
        _emit_pmf_csv(emp, out)
    return EXIT_OK


# ---------------------------------------------------------------- depth-plot


def cmd_depth_plot(args, out) -> int:
    if args.perm_file:
        try:
            with open(args.perm_file, "r", encoding="ascii") as fh:
                text = fh.read()
            values = [int(tok) for tok in text.split()]
            perm = Permutation.from_iterable(values)
        except (OSError, ValueError) as exc:
            raise ValueError(f"bad permutation file {args.perm_file!r}: {exc}") from exc
    else:
        if args.n is None:
            raise ValueError("depth-plot needs --perm-file or --n")
        perm = random_permutation(args.n, RngStream(seed=_resolve_seed(args)))
    depths = depth_plot(perm)
    if args.format == "json":
        _emit_json(
            {
                "meta": _meta("depth-plot", n=len(perm)),
                "permutation": list(perm.values),
                "depths": depths,
            },
            out,
        )
    else:
        out.write("l,depth\n")
        for l, d in enumerate(depths, start=1):
            out.write(f"{l},{d}\n")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthlab",
        description="Node-depth distributions in random binary search trees.",
    )
    parser.add_argument("--version", action="version", version=f"depthlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=True):
        if need_n:
            p.add_argument("--n", type=int, required=True, help="tree size")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write data here instead of stdout")
        p.add_argument("--cap", type=int, default=DEFAULT_N_CAP, help="exact-computation size cap")

    p_exact = sub.add_parser("exact", help="exact depth pmf and moments")
    common(p_exact)
    p_exact.add_argument("--l", type=int, required=True, help="key value")

    p_approx = sub.add_parser("approx", help="Poisson / mixed Poisson approximation report")
    common(p_approx)
    group = p_approx.add_mutually_exclusive_group(required=True)
    group.add_argument("--l", type=int, help="key value")
    group.add_argument("--t", type=float, help="relative key rank in (0,1)")

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("--suite", choices=("all",) + _SUITES, default="all")
    p_verify.add_argument("--n", type=int, help="restrict a sweep to a single n")
    p_verify.add_argument("--n-max", type=int, help="upper bound for sweep sizes")
    p_verify.add_argument("--trials", type=int, help="trial count for randomized suites")
    p_verify.add_argument("--seed", type=int, help="seed for randomized suites")
    p_verify.add_argument("--all-rows", action="store_true", help="emit passing rows too")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--output", help="write data here instead of stdout")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_N_CAP)

    p_sim = sub.add_parser("simulate", help="sample depths on one of the routes")
    common(p_sim)
    p_sim.add_argument("--route", choices=("bst", "representation", "find", "key"), required=True)
    p_sim.add_argument("--l", type=int, help="key value (not used by route 'key')")
    p_sim.add_argument("--samples", type=int, required=True)
    p_sim.add_argument("--seed", type=int, help="seed (falls back to DEPTHLAB_SEED, then 0)")
    p_sim.add_argument("--streams", type=int, default=1, help="independent substreams")
    p_sim.add_argument("--raw", action="store_true", help="emit newline-delimited samples")

    p_plot = sub.add_parser("depth-plot", help="depth of every key for one permutation")
    p_plot.add_argument("--perm-file", help="one line of whitespace-separated values 1..n")
    p_plot.add_argument("--n", type=int, help="generate a random permutation of this size")
    p_plot.add_argument("--seed", type=int)
    p_plot.add_argument("--format", choices=("json", "csv"), default="json")
    p_plot.add_argument("--output", help="write data here instead of stdout")

    return parser


_COMMANDS = {
    "exact": cmd_exact,
    "approx": cmd_approx,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "depth-plot": cmd_depth_plot,
}


def run(argv: list[str] | None = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sink = None
    try:
        if getattr(args, "output", None):
            sink = open(args.output, "w", encoding="ascii")
        if getattr(args, "samples", None) is not None and args.samples < 1:
            raise ValueError("--samples must be >= 1")
        return _COMMANDS[args.command](args, sink or out or sys.stdout)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if sink is not None:
            sink.close()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
