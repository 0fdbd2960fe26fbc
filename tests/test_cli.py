"""Command-line interface: outputs, exit codes, determinism, schema."""

import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import depthlab
from depthlab import cli, distributions, exact_depth, verify
from depthlab.cli import run
from depthlab.montecarlo import collect_samples


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def schema():
    with resources.files("depthlab").joinpath("schema.json").open() as fh:
        return json.load(fh)


def validate(text, schema):
    doc = json.loads(text)
    jsonschema.validate(doc, schema)
    return doc


# ------------------------------------------------------------- exact


def test_exact_json(schema):
    code, out = run_cli(["exact", "--n", "3", "--l", "2"])
    assert code == 0
    doc = validate(out, schema)
    assert doc["pmf"]["masses"] == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert doc["mean"] == pytest.approx(1.0)
    assert doc["variance"] == pytest.approx(2 / 3)


def test_exact_trivial_and_csv():
    code, out = run_cli(["exact", "--n", "1", "--l", "1", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["k,mass", "0,1"]


def test_exact_domain_error_exit_2(capsys):
    code, _ = run_cli(["exact", "--n", "0", "--l", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("suite, n", [("lemma5", 5000), ("lemma2", 40000)])
def test_verify_sweep_over_its_cap_exits_3_at_once(suite, n, capsys):
    t0 = time.perf_counter()
    code, _ = run_cli(["verify", "--suite", suite, "--n", str(n)])
    assert code == 3
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the cap" in capsys.readouterr().err


def test_verify_lemma2_sweep_stops_at_its_cap():
    # Every n up to --n-max costs Theta(N^3): the sweep is cut at LEMMA2_CAP,
    # as --n above --cap exits 3 at once.
    checks = verify.LEMMA2_CAP * (verify.LEMMA2_CAP + 1) // 2
    t0 = time.perf_counter()
    code, out = run_cli(["verify", "--suite", "lemma2", "--n-max", "40000"])
    assert time.perf_counter() - t0 < 20.0
    assert code == 0
    assert json.loads(out)["checks"] == checks


def test_exact_over_cap_exit_3():
    code, _ = run_cli(["exact", "--n", "40000", "--l", "1"])
    assert code == 3
    code, _ = run_cli(["exact", "--n", "600", "--l", "1", "--cap", "500"])
    assert code == 3
    # approx's arrival-time quadrature honours the same cap.
    code, _ = run_cli(["approx", "--n", "40000", "--l", "1"])
    assert code == 3
    code, _ = run_cli(["approx", "--n", "600", "--t", "0.5", "--cap", "500"])
    assert code == 3


def test_unknown_command_usage_exit():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


# ------------------------------------------------------------- approx


def test_approx_with_l(schema):
    code, out = run_cli(["approx", "--n", "50", "--l", "10"])
    assert code == 0
    doc = validate(out, schema)
    assert doc["poisson"]["holds"] is True
    assert "mixpo" not in doc


def test_approx_with_t(schema):
    code, out = run_cli(["approx", "--n", "64", "--t", "0.5"])
    assert code == 0
    doc = validate(out, schema)
    assert doc["mixpo"]["d_w"] > 0
    assert doc["mixpo"]["d_w_scaled_by_sqrt_log_n"] > 0
    assert doc["law_route"] == "arrival-quadrature"
    assert 0.0 <= doc["law_error_estimate"] <= 1e-13


def test_approx_csv_names_the_law_route():
    code, out = run_cli(["approx", "--n", "64", "--t", "0.5", "--format", "csv"])
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows["law_route"] == "arrival-quadrature"
    assert 0.0 <= float(rows["law_error_estimate"]) <= 1e-13
    assert list(rows) == ["mean", "variance", "law_route", "law_error_estimate",
                          "poisson_d_tv", "poisson_bound", "mixpo_d_w"]


def test_approx_and_mixpo_distance_never_build_the_banded_grid(monkeypatch):
    # Both reports read the arrival-time quadrature; exact stays on the grid.
    def unexpected(*args, **kwargs):
        raise AssertionError("the banded grid was built")

    monkeypatch.setattr(exact_depth, "_move_grid", unexpected)
    for argv in (["approx", "--n", "2048", "--t", "0.5"], ["approx", "--n", "50", "--l", "10"]):
        code, out = run_cli(argv)
        assert code == 0, argv
        assert json.loads(out)["law_route"] == "arrival-quadrature"
    d, scaled = exact_depth.mixpo_distance(2048, 0.5)
    assert 0.0 < float(d) < scaled
    with pytest.raises(AssertionError, match="banded grid"):
        run_cli(["exact", "--n", "50", "--l", "10"])


def test_approx_checks_n_and_t_before_the_exact_law(monkeypatch, capsys):
    def unexpected(*args, **kwargs):
        raise AssertionError("exact law built before --n/--t were checked")

    monkeypatch.setattr(cli, "_depth_pmf_by_arrival", unexpected)
    code, _ = run_cli(["approx", "--n", "1", "--t", "0.5"])
    assert code == 2
    assert "n must be >= 2" in capsys.readouterr().err
    code, _ = run_cli(["approx", "--n", "50", "--t", "1.5"])
    assert code == 2
    assert "t must lie strictly inside (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("key", [["--l", "5"], ["--t", "0.5"]])
def test_approx_checks_the_cap_before_the_harmonic_tables(key, capsys):
    # The moments' harmonic tables at n = 2^22 would take 256 MiB; the cap
    # error comes first, with nothing on stdout.
    distributions._harmonic_cached.cache_clear()
    tracemalloc.start()
    try:
        code, out = run_cli(["approx", "--n", str(2**22)] + key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert "exact depth computation: n=4194304 exceeds the cap" in capsys.readouterr().err
    assert peak < 2**20, peak


def test_approx_requires_exactly_one_of_l_t():
    with pytest.raises(SystemExit) as err:
        run(["approx", "--n", "10", "--l", "3", "--t", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["approx", "--n", "10"])
    assert err.value.code == 2


# ------------------------------------------------------------- verify


def test_verify_lemma2_small(schema):
    code, out = run_cli(["verify", "--suite", "lemma2", "--n-max", "40"])
    assert code == 0
    doc = validate(out, schema)
    assert doc["failures"] == 0
    assert doc["checks"] == sum(n for n in range(1, 41))


def test_verify_oracle_exit_0():
    code, _ = run_cli(["verify", "--suite", "oracle", "--n-max", "6"])
    assert code == 0


def test_verify_theorem3_rejects_n1():
    code, _ = run_cli(["verify", "--suite", "theorem3", "--n", "1"])
    assert code == 2


def test_verify_theorem3_single_point(schema):
    code, out = run_cli(["verify", "--suite", "theorem3", "--n", "30", "--all-rows"])
    assert code == 0
    doc = validate(out, schema)
    assert doc["checks"] == 4
    assert all(row["holds"] for row in doc["rows"])


def test_verify_metrics_and_lemma4b_reduced_trials():
    code, _ = run_cli(["verify", "--suite", "metrics", "--trials", "50"])
    assert code == 0
    code, _ = run_cli(["verify", "--suite", "lemma4b", "--trials", "25"])
    assert code == 0


def test_verify_find_and_moves():
    code, _ = run_cli(["verify", "--suite", "find", "--n-max", "5"])
    assert code == 0
    code, _ = run_cli(["verify", "--suite", "moves", "--n-max", "10"])
    assert code == 0


def test_verify_moves_checks_each_key_once():
    # l runs over {1, n // 2, n} without repeats: two checks (right, left) per key.
    for n, rows in ((1, 2), (2, 4), (3, 4), (4, 6)):
        got = verify.run_suite("moves", n=n)
        assert len(got) == rows, (n, got)
        assert len({(r["params"]["l"], r["params"]["check"]) for r in got}) == rows


# Tiny arguments that give each suite at least one row in well under a second.
TINY_SUITE_ARGS = {
    "oracle": ["--n-max", "3"],
    "moments": ["--n-max", "5"],
    "theorem3": ["--n-max", "10"],
    "theorem6": ["--n", "64"],
    "lemma2": ["--n-max", "5"],
    "lemma4b": ["--trials", "5"],
    "lemma5": ["--n-max", "5"],
    "metrics": ["--trials", "5"],
    "find": ["--n-max", "4"],
    "moves": ["--n-max", "5"],
    "rootsplit": ["--n-max", "5"],
    "arrival": ["--n", "64"],
}


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_every_suite_tiny(suite, schema):
    argv = ["verify", "--suite", suite, *TINY_SUITE_ARGS[suite], "--all-rows"]
    code, out = run_cli(argv)
    assert code == 0
    doc = validate(out, schema)
    assert doc["checks"] == len(doc["rows"]) >= 1
    assert {row["suite"] for row in doc["rows"]} == {suite}


def _render_rows(suite, rows, fmt, checks, failures):
    """verify's stdout for the printed row dicts, written out independently of cli."""
    if fmt == "json":
        meta = {"operation": "verify", "version": depthlab.__version__, "suites": [suite]}
        doc = {"meta": meta, "checks": checks, "failures": failures, "rows": rows}
        return json.dumps(doc, indent=2) + "\n"
    lines = ["suite,params,lhs,rhs,holds"]
    for r in rows:
        params = ";".join(f"{k}={v}" for k, v in r["params"].items())
        rhs = "" if r["rhs"] is None else f"{r['rhs']:.17g}"
        lines.append(f"{r['suite']},{params},{r['lhs']:.17g},{rhs},{r['holds']}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_all_rows_prints_the_run_suite_rows(suite, fmt):
    # verify counts and prints from the suite's columns; run_suite builds every row dict.
    args = TINY_SUITE_ARGS[suite]
    flags = {flag[2:].replace("-", "_"): int(value) for flag, value in zip(args[::2], args[1::2])}
    code, out = run_cli(["verify", "--suite", suite, *args, "--all-rows", "--format", fmt])
    assert code == 0
    rows = verify.run_suite(suite, **flags)
    assert out == _render_rows(suite, rows, fmt, len(rows), 0)


def test_verify_prints_failed_and_informational_rows(monkeypatch, capsys):
    def _fake(sw):
        params = {"n": [1, 2], "check": ["info", "bound"]}
        return params, [0.5, 2.0], [None, 1.0], np.array([True, False])

    monkeypatch.setitem(verify.SUITES, "fake", _fake)
    info = {"suite": "fake", "params": {"n": 1, "check": "info"}, "lhs": 0.5, "rhs": None,
            "holds": True}
    failed = {"suite": "fake", "params": {"n": 2, "check": "bound"}, "lhs": 2.0, "rhs": 1.0,
              "holds": False}
    assert verify.run_suite("fake") == [info, failed]
    for fmt in ("json", "csv"):
        for all_rows, rows in ((False, [failed]), (True, [info, failed])):
            argv = ["verify", "--suite", "fake", "--format", fmt] + ["--all-rows"] * all_rows
            code, out = run_cli(argv)
            assert code == cli.EXIT_BOUND_VIOLATION
            # The counts cover every row, printed or not.
            assert out == _render_rows("fake", rows, fmt, 2, 1), (fmt, all_rows)
            err = capsys.readouterr().err
            assert err == "FAILED fake {'n': 2, 'check': 'bound'}: lhs=2.0 rhs=1.0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "oracle", "--n", "-3"],
        ["--suite", "oracle", "--n", "0"],
        ["--suite", "oracle", "--n-max", "0"],
        ["--suite", "lemma4b", "--trials", "-5"],
        ["--suite", "metrics", "--trials", "0"],
        ["--suite", "theorem6", "--n-max", "10"],
        ["--suite", "theorem3", "--n-max", "1"],
        ["--suite", "arrival", "--n-max", "500"],
    ],
    ids=["n_negative", "n_zero", "n_max_zero", "trials_negative", "trials_zero",
         "theorem6_empty_grid", "theorem3_empty_grid", "arrival_empty_grid"],
)
def test_verify_rejects_empty_or_nonsensical_selection(argv, capsys):
    code, out = run_cli(["verify", *argv])
    assert code == 2
    assert out == ""
    assert "error" in capsys.readouterr().err


def test_verify_find_over_enumeration_cap_exit_3(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("find enumerated permutations above its cap")

    monkeypatch.setattr(verify, "_permutation_array", unexpected)
    code, out = run_cli(["verify", "--suite", "find", "--n", "12"])
    assert code == 3
    assert out == ""


def test_verify_oracle_honours_the_cap():
    code, out = run_cli(["verify", "--suite", "oracle", "--n", "8", "--cap", "7"])
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("argv", [["--n-max", "50000"], ["--n", "12"]], ids=["sweep", "one_n"])
def test_verify_moves_checks_the_cap_before_its_record_table(monkeypatch, capsys, argv):
    def unexpected(*args, **kwargs):
        raise AssertionError("built the record table past the cap")

    monkeypatch.setattr(verify, "_record_pmfs", unexpected)
    code, out = run_cli(["verify", "--suite", "moves", *argv, "--cap", "10"])
    assert code == 3 and out == ""
    first = 11 if argv[0] == "--n-max" else 12
    assert capsys.readouterr().err == f"error: exact depth computation: n={first} exceeds the cap 10\n"


@pytest.mark.parametrize("suite", ["moments", "rootsplit"])
def test_verify_recurrence_suites_check_the_cap_first(monkeypatch, suite):
    def unexpected(*args, **kwargs):
        raise AssertionError("built recurrence rows past the cap")

    monkeypatch.setattr(verify, "_depth_law_rows", unexpected)
    t0 = time.perf_counter()
    code, out = run_cli(["verify", "--suite", suite, "--n-max", "40000", "--cap", "100"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""


def test_verify_csv_rows():
    code, out = run_cli(
        ["verify", "--suite", "oracle", "--n-max", "3", "--all-rows", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,params,lhs,rhs,holds"
    assert len(lines) == 1 + 6  # (1,1) (2,1) (2,2) (3,1) (3,2) (3,3)


# ------------------------------------------------------------- simulate


def test_simulate_find_route(schema):
    code, out = run_cli(
        ["simulate", "--route", "find", "--n", "3", "--l", "2",
         "--samples", "20000", "--seed", "1"]
    )
    assert code == 0
    doc = validate(out, schema)
    assert doc["d_tv_vs_exact"] < 0.02


def test_simulate_bst_trivial(schema):
    code, out = run_cli(
        ["simulate", "--route", "bst", "--n", "1", "--l", "1",
         "--samples", "10", "--seed", "0"]
    )
    assert code == 0
    doc = validate(out, schema)
    assert doc["empirical"]["masses"] == [1.0]
    assert doc["empirical"]["offset"] == 0


def test_simulate_byte_identical_repeat():
    argv = ["simulate", "--route", "representation", "--n", "40", "--l", "7",
            "--samples", "5000", "--seed", "9"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


# sha256 of the int64 samples of collect_samples(route, 1000, 500, 2000,
# seed=31, streams=3), key route with l=None, and of the stdout of
# verify --suite find --format json --all-rows.
PINNED_SHA256 = {
    "bst": "3531e7f662dda83347a9d347b346e24e21d888163df0f77e31db6c58263fdee5",
    "find": "d378ee63cd44326ae4eab8ae96bb4bc72b30e8725260176492fcf24c549e4b82",
    "representation": "0caf49c2c962b20c6412743a993bd49dc24678cb460c3b93ad628fdf5362018a",
    "key": "1e08dad2f2f764b62e222deb01474fe1cda9f5b97cd9a540e44ad3cce15c43d5",
    "verify find": "687fb93c06930590cbba3d19cd91548691f9bc09f62f082536a92a25dedce1ce",
}


def test_fixed_seed_gives_pinned_samples_and_find_suite_output():
    # A fixed command line and seed give fixed output, across versions too:
    # a change to how a route reads its generator, or to the find suite's
    # kernel, shows here as a changed hash.
    got = {}
    for route in ("bst", "find", "representation", "key"):
        samples = collect_samples(route, 1000, None if route == "key" else 500, 2000, seed=31, streams=3)
        got[route] = hashlib.sha256(np.asarray(samples, np.int64).tobytes()).hexdigest()
    code, out = run_cli(["verify", "--suite", "find", "--format", "json", "--all-rows"])
    assert code == 0
    got["verify find"] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_SHA256


def test_simulate_env_seed(monkeypatch):
    argv = ["simulate", "--route", "find", "--n", "5", "--l", "3", "--samples", "50"]
    monkeypatch.setenv("DEPTHLAB_SEED", "77")
    _, out_env = run_cli(argv)
    monkeypatch.delenv("DEPTHLAB_SEED")
    _, out_flag = run_cli(argv + ["--seed", "77"])
    assert json.loads(out_env)["empirical"] == json.loads(out_flag)["empirical"]
    monkeypatch.setenv("DEPTHLAB_SEED", "notanumber")
    code, _ = run_cli(argv)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--route", "bst", "--n", "5", "--l", "3", "--samples", "10"],
    ["verify", "--suite", "lemma4b", "--trials", "5"],
    ["depth-plot", "--n", "5"],
])
def test_negative_seed_exits_2_naming_the_flag(argv, capsys):
    code, out = run_cli(argv + ["--seed", "-1"])
    assert code == 2 and out == ""
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--route", "find", "--n", "5", "--l", "3", "--samples", "10"],
    ["depth-plot", "--n", "5"],
])
def test_negative_env_seed_exits_2_naming_the_variable(argv, monkeypatch, capsys):
    monkeypatch.setenv("DEPTHLAB_SEED", "-3")
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert "error: DEPTHLAB_SEED must be >= 0, got '-3'" in capsys.readouterr().err


def test_simulate_requires_l_for_fixed_key_routes(capsys):
    for route in ("bst", "find", "representation"):
        code, out = run_cli(["simulate", "--route", route, "--n", "5", "--samples", "10"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: simulate --route {route} needs --l\n"


def test_simulate_unknown_route_usage():
    with pytest.raises(SystemExit) as err:
        run(["simulate", "--route", "quantum", "--n", "3", "--l", "1", "--samples", "5"])
    assert err.value.code == 2


def test_simulate_raw_samples():
    code, out = run_cli(
        ["simulate", "--route", "find", "--n", "4", "--l", "2",
         "--samples", "25", "--seed", "2", "--raw"]
    )
    assert code == 0
    values = [int(line) for line in out.strip().splitlines()]
    assert len(values) == 25
    assert all(0 <= v <= 3 for v in values)


def test_simulate_bst_and_find_draw_apart_on_one_seed():
    # find draws from its own generator of each stream, so its pivots are
    # never derived from the bits that bst reads as keys on the same seed.
    argv = ["simulate", "--n", "200", "--l", "77", "--samples", "5000", "--seed", "4", "--raw"]
    outs = {route: run_cli(argv + ["--route", route]) for route in ("bst", "find")}
    assert outs["bst"][0] == outs["find"][0] == 0
    assert outs["bst"][1] != outs["find"][1]


def test_output_path_option(tmp_path):
    target = tmp_path / "out.json"
    code, captured = run_cli(
        ["exact", "--n", "3", "--l", "2", "--output", str(target)]
    )
    assert code == 0
    assert captured == ""
    doc = json.loads(target.read_text())
    assert doc["mean"] == pytest.approx(1.0)

    code, _ = run_cli(
        ["exact", "--n", "3", "--l", "2", "--output", str(tmp_path / "no" / "dir.json")]
    )
    assert code == 2


def test_simulate_key_route(schema):
    code, out = run_cli(
        ["simulate", "--route", "key", "--n", "30", "--samples", "2000", "--seed", "4"]
    )
    assert code == 0
    validate(out, schema)


# ------------------------------------------------------------- depth-plot


def test_depth_plot_from_file(tmp_path, schema):
    path = tmp_path / "perm.txt"
    path.write_text("2 1 3\n")
    code, out = run_cli(["depth-plot", "--perm-file", str(path), "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["l,depth", "1,1", "2,0", "3,1"]

    code, out = run_cli(["depth-plot", "--perm-file", str(path)])
    doc = validate(out, schema)
    assert doc["depths"] == [1, 0, 1]


def test_depth_plot_closes_the_perm_file(tmp_path, monkeypatch):
    # An unclosed file warns when it is collected; under the "error" filter
    # that warning is raised inside the finalizer and reaches unraisablehook.
    path = tmp_path / "perm.txt"
    path.write_text("2 1 3\n")
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code, _ = run_cli(["depth-plot", "--perm-file", str(path)])
    assert code == 0
    assert [u.exc_value for u in unraisable] == []


def test_depth_plot_random_single(schema):
    code, out = run_cli(["depth-plot", "--n", "1", "--seed", "7"])
    assert code == 0
    doc = validate(out, schema)
    assert doc["depths"] == [0]


def test_depth_plot_bad_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 3\n")
    code, _ = run_cli(["depth-plot", "--perm-file", str(path)])
    assert code == 2
    path.write_text("2 x 3\n")
    code, _ = run_cli(["depth-plot", "--perm-file", str(path)])
    assert code == 2
    code, _ = run_cli(["depth-plot", "--perm-file", str(tmp_path / "missing.txt")])
    assert code == 2


def test_depth_plot_needs_source():
    code, _ = run_cli(["depth-plot"])
    assert code == 2


def test_one_process_runs_commands_as_separate_calls_do(capsys):
    # run() reuses one parser per process: a run after a usage error, and
    # each command after the others, prints what a fresh process prints.
    argvs = [
        ["exact", "--n", "40", "--l", "9"],
        ["exact", "--n", "40"],  # no --l: argparse exits 2
        ["verify", "--suite", "moves", "--n-max", "6", "--all-rows"],
        ["simulate", "--route", "bst", "--n", "30", "--l", "7", "--samples", "300", "--seed", "5"],
    ]
    in_process = []
    for argv in argvs:
        try:
            in_process.append(run_cli(argv))
        except SystemExit as exc:
            in_process.append((exc.code, ""))
    capsys.readouterr()
    src = str(Path(depthlab.__file__).resolve().parents[1])
    separate = []
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "depthlab.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        separate.append((done.returncode, done.stdout))
    assert [code for code, _ in in_process] == [0, 2, 0, 0]
    assert in_process == separate


# ------------------------------------------------------------- run time


def test_commands_run_without_scipy():
    # A fresh interpreter that imports this same depthlab: the import loads
    # numpy.random (numpy loads it lazily), and no command loads scipy.
    src = str(Path(depthlab.__file__).resolve().parents[1])
    code = textwrap.dedent(
        """
        import io, json, sys
        import depthlab.cli
        random_at_import = "numpy.random" in sys.modules
        argvs = [
            ["exact", "--n", "60", "--l", "25"],
            ["approx", "--n", "200", "--t", "0.5"],
            ["simulate", "--route", "bst", "--n", "60", "--l", "25", "--samples", "200", "--seed", "1"],
            ["verify", "--suite", "lemma4b", "--trials", "20", "--seed", "1"],
        ]
        codes = [depthlab.cli.run(argv, out=io.StringIO()) for argv in argvs]
        scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
        print(json.dumps({"random_at_import": random_at_import, "codes": codes, "scipy": scipy}))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    doc = json.loads(out)
    assert doc["random_at_import"] is True
    assert doc["codes"] == [0, 0, 0, 0]
    assert doc["scipy"] == []
