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
import functools
import json
import locale  # argparse's gettext imports it at the first parse; loaded here, that cost falls in import
import os
import sys
from typing import Any

from . import __version__
from .distributions import Pmf, mean_var, total_variation
from .exact_depth import (
    ARRIVAL_ROUTE,
    DEFAULT_N_CAP,
    CapExceededError,
    depth_mean,
    depth_variance,
    exact_depth_pmf,
    rank_to_key,
    _depth_pmf_by_arrival,
    _mixpo_distance_of,
    _mixpo_measure,
    _poisson_bound_of,
)
from .montecarlo import RngStream, collect_samples, empirical_pmf, random_permutation
from .trees import Permutation, depth_plot
from .verify import SUITES, suite_table

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


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
            seed = int(env)
        except ValueError as exc:
            raise ValueError(f"DEPTHLAB_SEED must be a decimal integer, got {env!r}") from exc
        if seed < 0:
            raise ValueError(f"DEPTHLAB_SEED must be >= 0, got {env!r}")
        return seed
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
    measure = None
    if args.t is not None:
        # Built before the exact law, so a bad --n or --t fails first.
        measure = _mixpo_measure(args.n, args.t)
        l = rank_to_key(args.n, args.t)
    else:
        l = args.l
    if args.n >= 2:
        # One law serves both reports; with --t, l is the mixpo key.  It is
        # the arrival-time quadrature, whose error is estimated, not bounded.
        # Built before the harmonic tables of the moments, so --cap fails first.
        law, estimate = _depth_pmf_by_arrival(args.n, l, n_cap=args.cap)
    doc: dict[str, Any] = {
        "meta": _meta("approx", n=args.n, l=l),
        "mean": depth_mean(args.n, l),
        "variance": depth_variance(args.n, l),
    }
    if args.n >= 2:
        doc["law_route"] = ARRIVAL_ROUTE
        doc["law_error_estimate"] = estimate
        rep = _poisson_bound_of(law, args.n, l)
        doc["poisson"] = {
            "d_tv": rep.lhs,
            "bound": rep.rhs,
            "holds": rep.holds,
            "margin": rep.margin,
        }
    if measure is not None:
        d, scaled = _mixpo_distance_of(law, args.n, measure)
        doc["mixpo"] = {
            "t": args.t,
            "shift": measure.c,
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
        if "law_route" in doc:
            out.write(f"law_route,{doc['law_route']}\n")
            out.write(f"law_error_estimate,{_fmt(doc['law_error_estimate'])}\n")
        if "poisson" in doc:
            out.write(f"poisson_d_tv,{_fmt(doc['poisson']['d_tv'])}\n")
            out.write(f"poisson_bound,{_fmt(doc['poisson']['bound'])}\n")
        if "mixpo" in doc:
            out.write(f"mixpo_d_w,{_fmt(doc['mixpo']['d_w'])}\n")
    return EXIT_OK


# ---------------------------------------------------------------- verify


def cmd_verify(args, out) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    flags = {k: getattr(args, k) for k in ("n", "n_max", "trials", "seed", "cap")}
    tables = [suite_table(suite, **flags) for suite in suites]
    checks = sum(len(table) for table in tables)
    if not checks:
        raise ValueError("the selected sweep has no checks")
    # Row dicts are built only for the rows that are printed.
    failed = [r for table in tables for r in table.rows(failed_only=True)]
    shown = [r for table in tables for r in table.rows()] if args.all_rows else failed
    if args.format == "json":
        _emit_json(
            {
                "meta": _meta("verify", suites=suites),
                "checks": checks,
                "failures": len(failed),
                "rows": shown,
            },
            out,
        )
    else:
        out.write("suite,params,lhs,rhs,holds\n")
        for r in shown:
            params = ";".join(f"{k}={v}" for k, v in r["params"].items())
            rhs = "" if r["rhs"] is None else _fmt(r["rhs"])
            out.write(f"{r['suite']},{params},{_fmt(r['lhs'])},{rhs},{r['holds']}\n")
    if failed:
        for r in failed:
            msg = f"FAILED {r['suite']} {r['params']}: lhs={r['lhs']} rhs={r['rhs']}"
            print(msg, file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    print(f"verified {checks} checks across {len(suites)} suite(s)", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def cmd_simulate(args, out) -> int:
    if args.route != "key" and args.l is None:
        raise ValueError(f"simulate --route {args.route} needs --l")
    seed = _resolve_seed(args)
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
    p_verify.add_argument("--suite", choices=("all", *SUITES), default="all")
    p_verify.add_argument("--n", type=int, help="restrict a sweep to a single n")
    p_verify.add_argument("--n-max", type=int, help="upper bound for sweep sizes")
    p_verify.add_argument("--trials", type=int, help="trial count for randomized suites")
    p_verify.add_argument("--seed", type=int, help="seed for randomized suites")
    p_verify.add_argument("--all-rows", action="store_true", help="emit passing rows too")
    common(p_verify, need_n=False)

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


@functools.lru_cache(maxsize=1)
def _parser(suites: tuple[str, ...]) -> argparse.ArgumentParser:
    """build_parser(), built again only when the suites (--suite's choices) change."""
    return build_parser()


def run(argv: list[str] | None = None, out=None) -> int:
    args = _parser(tuple(SUITES)).parse_args(argv)
    sink = None
    try:
        if getattr(args, "output", None):
            sink = open(args.output, "w", encoding="ascii")
        if getattr(args, "samples", None) is not None and args.samples < 1:
            raise ValueError("--samples must be >= 1")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
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
