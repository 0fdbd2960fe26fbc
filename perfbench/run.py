"""depthlab benchmark: runs a workload, checks its outputs, reports metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload central-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Load is a closed loop with one client: one child process at a time, each a
fresh interpreter that imports depthlab from ``src/`` and runs CLI ops through
``depthlab.cli.run``.  Rounds repeat until ``--seconds`` is used up.  Every
op's output is checked.  ``--trace 1`` instead runs each child twice, plain
and with span wrappers installed, and reports per-layer self time, call
counts and cache counters.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists (``end_to_end`` without tracing, ``per_layer`` with
it).  A full result file with provenance is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, Child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
# Every child of one workload run must finish within this many seconds.
RUN_DEADLINE_S = 170.0

# Metrics named per workload for people; round_s, setup_s and peak_rss_mib
# are the ones every workload reports to BENCHMARK.json.
UNITS = {
    "round_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "fail_ratio": "share",
    "exact_s": "s",
    "approx_s": "s",
    "sweep_s": "s",
    "bst_samples_per_s": "1/s",
    "find_samples_per_s": "1/s",
    "representation_samples_per_s": "1/s",
    "key_samples_per_s": "1/s",
}

# Per-layer metrics the traced run reports (each function span gives
# "<span>.self_s" and "<span>.calls").
LAYER_SPANS = (
    "exact_depth.exact_depth_pmf",
    "exact_depth.poisson_bound_report",
    "exact_depth.mixpo_distance",
    "exact_depth.move_joint_pmf",
    "exact_depth.mixing_variance_report",
    "exact_depth.hypergeometric_log_bound_report",
    "exact_depth.brute_force_depth_pmf",
    "distributions.Pmf.from_masses",
    "distributions.mean_var",
    "distributions.record_count_pmf",
    "distributions.shared_harmonic_table",
    "distributions.total_variation",
    "distributions.poisson_pmf",
    "distributions.wasserstein",
    "mixing.mixed_poisson_pmf",
    "mixing.measure_wasserstein",
    "trees.build_bst",
    "trees.node_depth",
    "trees.find_select",
    "montecarlo.sample_depth_bst",
    "montecarlo.sample_depth_representation",
    "montecarlo.sample_find_recursions",
    "montecarlo.sample_random_key_depth",
    "montecarlo.random_permutation",
    "montecarlo.collect_samples",
    "montecarlo.empirical_pmf",
    "cli.run",
)
VERIFY_SUITES = ("oracle", "moments", "theorem3", "lemma2", "lemma4b", "lemma5", "metrics",
                 "find", "moves")


class RepoMissing(Exception):
    """The checkout has no depthlab sources to benchmark."""


def load_context() -> dict:
    cli = ROOT / "src" / "depthlab" / "cli.py"
    baselines = ROOT / "tests" / "data" / "baselines.json"
    spec = ROOT / "BENCHMARK.json"
    for path in (cli, baselines, spec):
        if not path.is_file():
            raise RepoMissing(f"{path.relative_to(ROOT)} not found under {ROOT}")
    ctx = json.loads(baselines.read_text())
    ctx["benchmark"] = json.loads(spec.read_text())
    return ctx


# ---------------------------------------------------------------- children


def run_child(child: Child, workdir: str, tag: str, deadline: float, trace: bool = False,
              provenance: bool = False, spans_file: str | None = None) -> dict:
    """Run one child to completion and check each op's output.

    Returns the child's record with per-op ``errors``; an op counts as failed
    when it exits nonzero, raises, or fails its check.
    """
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    spec = {
        "import": child.entry.split(":")[0],
        "entry": child.entry,
        "ops": [{"label": op.label, "argv": list(op.argv)} for op in child.ops],
        "trace": trace,
        "provenance": provenance,
        "result": result_path,
        "spans_file": spans_file,
    }
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Setup is measured as an installed depthlab starts: from cached bytecode,
    # which the warm-up child writes.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc_error = None
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), spec_path], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            proc_error = f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        proc_error = f"child killed at the run deadline after {timeout:.0f} s"
    rec: dict = {"label": child.label, "ops": []}
    if proc_error is None:
        with open(result_path, encoding="utf-8") as fh:
            rec = json.load(fh)
        rec["label"] = child.label
        src = str(ROOT / "src")
        if child.entry.startswith("depthlab") and not str(rec.get("module_file")).startswith(src):
            proc_error = f"imported {rec.get('module_file')}, not the checkout's src/"
    by_label = {o["label"]: o for o in rec["ops"]}
    checked = []
    for op in child.ops:
        out = by_label.get(op.label, {"label": op.label, "argv": list(op.argv)})
        errors = []
        if proc_error is not None:
            errors.append(proc_error)
        elif out.get("error"):
            errors.append(out["error"])
        elif out.get("rc") != 0:
            errors.append(f"exit code {out.get('rc')}")
        else:
            try:
                errors.extend(op.check(out["stdout"]))
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"unreadable output: {exc!r}")
        out["errors"] = errors
        checked.append(out)
    rec["ops"] = checked
    return rec


def warmup(children: list[Child], workdir: str, deadline: float) -> dict:
    """An untimed child with no ops: compiles bytecode, warms the file cache and
    reports versions, so the first timed child pays no one-off cost."""
    return run_child(Child("warmup", (), "setup_s", entry=children[0].entry), workdir, "warmup",
                     deadline, provenance=True)


def _op_seconds(rec: dict) -> float:
    return sum(o.get("seconds", 0.0) for o in rec["ops"])


def _common(children: list[Child], ops: list[dict], warm: dict) -> dict:
    failed = [o for o in ops if o["errors"]]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "provenance": warm.get("provenance"),
        "children": [{"label": c.label, "argv": [list(op.argv) for op in c.ops]}
                     for c in children],
        "errors": [{"op": o["label"], "errors": o["errors"]} for o in failed],
    }


# ---------------------------------------------------------------- runs


def run_plain(workload, seed: int, seconds: float, ctx: dict, workdir: str,
              deadline: float) -> dict:
    """Closed loop: repeat rounds until the next one would overrun ``seconds``."""
    children = workload.children(seed, ctx)
    warm = warmup(children, workdir, deadline)
    rounds: list[list[dict]] = []
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        rounds.append([
            run_child(c, workdir, f"r{len(rounds)}-{c.label}", deadline) for c in children
        ])
        now = time.monotonic()
        if (now - t0) + (now - r0) > seconds or now + (now - r0) > deadline:
            break
    recs = [rec for rnd in rounds for rec in rnd]
    ops = [o for rec in recs for o in rec["ops"]]
    failed = sum(1 for o in ops if o["errors"])
    metrics: dict[str, dict] = {}

    def put(name: str, samples: list, value: float | None = None) -> None:
        if samples:
            metrics[name] = {"value": statistics.median(samples) if value is None else value,
                             "unit": UNITS[name], "ops": len(samples), "samples": samples}

    by_op: dict[str, list[float]] = {}
    for o in ops:
        by_op.setdefault(o["label"], []).append(o.get("seconds", 0.0))
    put("round_s", [sum(_op_seconds(r) for r in rnd) for rnd in rounds])
    put("setup_s", [r["import_s"] for r in recs if "import_s" in r])
    rss = [r["max_rss_mib"] for r in recs if "max_rss_mib" in r]
    put("peak_rss_mib", rss, max(rss, default=0.0))
    put("fail_ratio", [bool(o["errors"]) for o in ops], failed / len(ops))
    for child in children:
        times = [_op_seconds(r) for r in recs if r["label"] == child.label]
        put(child.metric, times, child.work / statistics.median(times) if child.work else None)
    return {"rounds": len(rounds), "metrics": metrics, "op_seconds": by_op,
            **_common(children, ops, warm)}


def run_traced(workload, seed: int, ctx: dict, workdir: str, deadline: float,
               spans_dir: Path) -> dict:
    """Each child once plain and once traced; stdout must match byte for byte."""
    children = workload.children(seed, ctx)
    warm = warmup(children, workdir, deadline)
    spans: dict[str, dict] = {}
    caches: dict[str, dict] = {}
    per_child = []
    ops = []
    plain_s = traced_s = 0.0
    for child in children:
        plain = run_child(child, workdir, f"plain-{child.label}", deadline)
        spans_file = str(spans_dir / f"{workload.name}-{child.label}.npz")
        traced = run_child(child, workdir, f"traced-{child.label}", deadline, trace=True,
                           spans_file=spans_file)
        for p, t in zip(plain["ops"], traced["ops"]):
            if not p["errors"] and not t["errors"] and p["stdout"] != t["stdout"]:
                t["errors"].append("traced stdout differs from untraced stdout")
            ops += [p, t]
        plain_s += _op_seconds(plain)
        traced_s += _op_seconds(traced)
        child_spans = traced.get("spans", {})
        for name, s in child_spans.items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, c in traced.get("caches", {}).items():
            acc = caches.setdefault(name, {"status": c["status"], "hits": 0, "misses": 0})
            if c["status"] == "present":
                acc["hits"] += c["hits"]
                acc["misses"] += c["misses"]
        per_child.append({
            "label": child.label,
            "plain_op_s": _op_seconds(plain),
            "traced_op_s": _op_seconds(traced),
            "span_count": traced.get("span_count"),
            "spans_file": os.path.relpath(spans_file, ROOT),
            "spans": child_spans,
            "caches": traced.get("caches", {}),
        })
    # 0 only when no plain op ran at all, which also fails the run.
    layers = layer_metrics(spans, caches, traced_s / plain_s if plain_s > 0 else 0.0)
    return {"layers": layers, "per_child": per_child, **_common(children, ops, warm)}


def layer_metrics(spans: dict, caches: dict, overhead: float) -> dict[str, dict]:
    """Every named per-layer metric; uncalled spans read 0, gone caches 'absent'."""
    out: dict[str, dict] = {}
    for name in LAYER_SPANS:
        s = spans.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.self_s"] = {"value": s["self_s"], "unit": "s"}
        out[f"{name}.calls"] = {"value": s["calls"], "unit": "count"}
    for suite in VERIFY_SUITES:
        s = spans.get(f"verify.{suite}", {"total_s": 0.0})
        out[f"verify.{suite}_s"] = {"value": s["total_s"], "unit": "s"}
    for name, c in caches.items():
        for key in ("hits", "misses"):
            entry = {"value": c.get(key, 0), "unit": "count"}
            if c["status"] != "present":
                entry["status"] = "absent"
            out[f"{name}.{key}"] = entry
    out["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return out


# ---------------------------------------------------------------- report


def provenance(prov: dict | None, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "depthlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "load": "closed loop, 1 client, one child process at a time",
        **(prov or {}),
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_plain(name: str, res: dict, seed: int) -> list[str]:
    lines = [f"== {name} seed={seed} rounds={res['rounds']} ops={res['attempted']} "
             f"failed={res['failed']}"]
    for metric, m in res["metrics"].items():
        lines.append(f"  {metric:<30} {_fmt(m['value']):>12} {m['unit']:<6} (n={m['ops']})")
    lines += [f"  FAILED {e['op']}: {e['errors'][0][:300]}" for e in res["errors"]]
    return lines


def report_traced(name: str, res: dict, seed: int) -> list[str]:
    lines = [f"== {name} traced seed={seed} ops={res['attempted']} failed={res['failed']}"]
    for pc in res["per_child"]:
        lines.append(f"  [{pc['label']}] plain {pc['plain_op_s']:.4f} s, traced "
                     f"{pc['traced_op_s']:.4f} s, {pc['span_count']} spans")
        top = sorted(pc["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for span, s in top[:12]:
            lines.append(f"    {span:<48} calls {s['calls']:>8}  self_s {s['self_s']:.4f}")
        for cache, c in pc["caches"].items():
            state = (f"hits {c['hits']} misses {c['misses']}" if c["status"] == "present"
                     else "absent")
            lines.append(f"    {cache:<48} {state}")
    for metric, m in res["layers"].items():
        absent = " (absent)" if m.get("status") == "absent" else ""
        lines.append(f"  {metric:<56} {_fmt(m['value']):>12} {m['unit']}{absent}")
    lines += [f"  FAILED {e['op']}: {e['errors'][0][:300]}" for e in res["errors"]]
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, ctx: dict) -> tuple:
    workload = WORKLOADS[name]
    RESULTS.mkdir(exist_ok=True)
    spans_dir = RESULTS / "spans"
    spans_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        if trace:
            res = run_traced(workload, seed, ctx, workdir, deadline, spans_dir)
            lines = report_traced(name, res, seed)
            listed = ctx["benchmark"]["per_layer"]
            values = res["layers"]
        else:
            res = run_plain(workload, seed, seconds, ctx, workdir, deadline)
            lines = report_plain(name, res, seed)
            listed = ctx["benchmark"]["end_to_end"]
            values = res["metrics"]
    res["provenance"] = provenance(res["provenance"], seed)
    res["workload"] = {"name": name, "why": workload.why, "stresses": workload.stresses,
                       "bypasses": workload.bypasses}
    out = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(res, indent=1, default=str))
    metrics = {m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    return lines, res, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ctx = load_context()
    except RepoMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        lines, res, m = run_workload(name, args.seed, args.seconds, bool(args.trace), ctx)
        print("\n".join(lines), flush=True)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
