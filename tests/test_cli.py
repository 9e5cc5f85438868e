import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import copulaboot
from copulaboot import cli
from copulaboot.cli import main

HDV_ARGS = [
    "combine",
    "--dist", "beta:0.027:0.050",
    "--dist", "beta:0.036:0.057",
    "--expr", "x1*x2",
    "--method", "hdi",
    "--n", "100000",
    "--seed", "123",
]

PREV_ARGS = [
    "adjust-prev",
    "--prev-ci", "0.136,0.204",
    "--sens-ci", "0.837,0.918",
    "--spec-ci", "0.857,0.975",
    "--prev", "0.168",
    "--sens", "0.8814814814814815",
    "--spec", "0.9318181818181818",
    "--method", "hdi",
    "--n", "100000",
    "--seed", "123",
]


SCENARIO = {
    "trueParams": [0.035, 0.045],
    "dataSizes": [2000, 1500],
    "combiner": {"expr": "x1*x2"},
    "sigma": [[1, 0], [0, 1]],
    "n": 2000,
    "method": "percentile",
    "level": 0.95,
    "trials": 5,
}


def write_scenario(tmp_path, **overrides):
    """A scenario file with fields overridden; an override of None drops the field."""
    data = {k: v for k, v in {**SCENARIO, **overrides}.items() if v is not None}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


class TestCombine:
    def test_hdv_example(self, capsys):
        code, out = run_cli(
            HDV_ARGS + ["--sigma", "1,0.5;0.5,1", "--n", "1000000"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["low"] == pytest.approx(0.0010, abs=2e-4)
        assert obj["upp"] == pytest.approx(0.0026, abs=2e-4)
        assert obj["method"] == "hdi"
        assert obj["manifest"]["seed"] == 123

    def test_invalid_quantile_order_exits_2(self, capsys):
        code, _ = run_cli(
            ["combine", "--dist", "beta:0.5:0.4", "--expr", "x1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("dist", ["foo:0.1:0.2", "beta:0.5:1.2"])
    def test_invalid_dist_exits_2(self, dist, capsys):
        # an unknown family or quantiles off the support are usage errors
        assert main(["combine", "--dist", dist, "--expr", "x1"]) == 2
        assert repr(dist) in capsys.readouterr().err

    def test_fit_error_names_its_dist(self, capsys):
        # several --dist flags: the failing one is named, and a FitError exits 3
        bad = "beta:0.5:0.500000000000001"
        argv = ["combine", "--dist", "beta:0.027:0.05", "--dist", bad, "--expr", "x1*x2"]
        assert main(argv) == 3
        assert repr(bad) in capsys.readouterr().err

    def test_tiny_gamma_quantiles_fit(self, capsys):
        code, _ = run_cli(
            ["combine", "--dist", "gamma:1e-200:1e-199", "--expr", "x1", "--n", "1000"],
            capsys,
        )
        assert code == 0

    def test_byte_identical_output(self, capsys):
        _, first = run_cli(HDV_ARGS, capsys)
        _, second = run_cli(HDV_ARGS, capsys)
        assert first == second

    def test_thread_count_does_not_change_output(self, capsys):
        _, one = run_cli(HDV_ARGS + ["--threads", "1"], capsys)
        _, eight = run_cli(HDV_ARGS + ["--threads", "8"], capsys)
        assert one == eight

    def test_default_threads_follow_affinity(self, monkeypatch):
        # a process pinned to one CPU of two gets one worker by default
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        args = cli.build_parser().parse_args(HDV_ARGS)
        assert cli._make_config(args).threads == 1
        pinned = cli.build_parser().parse_args(HDV_ARGS + ["--threads", "2"])
        assert cli._make_config(pinned).threads == 2

    def test_default_threads_without_affinity(self, monkeypatch):
        # where the platform has no affinity mask, every core counts
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        args = cli.build_parser().parse_args(HDV_ARGS)
        assert cli._make_config(args).threads == 3

    def test_missing_combiner_exits_2(self, capsys):
        code, _ = run_cli(["combine", "--dist", "beta:0.2:0.4"], capsys)
        assert code == 2

    def test_sigma_dimension_mismatch_exits_2(self, capsys):
        code, _ = run_cli(HDV_ARGS + ["--sigma", "1,0,0;0,1,0;0,0,1"], capsys)
        assert code == 2

    def test_builtin_combiner(self, capsys):
        args = [a if a != "x1*x2" else "product" for a in HDV_ARGS]
        args[args.index("--expr")] = "--combiner"
        code, out = run_cli(args, capsys)
        assert code == 0
        expr_out = run_cli(HDV_ARGS, capsys)[1]
        assert json.loads(out)["low"] == json.loads(expr_out)["low"]

    def test_csv_out_same_numbers(self, capsys):
        _, jout = run_cli(HDV_ARGS, capsys)
        _, cout = run_cli(HDV_ARGS + ["--out", "csv"], capsys)
        obj = json.loads(jout)
        rows = list(csv.DictReader(cout.splitlines()))
        assert float(rows[0]["low"]) == obj["low"]
        assert float(rows[0]["upp"]) == obj["upp"]

    def test_boot_vals_dump(self, capsys, tmp_path):
        path = tmp_path / "draws.csv"
        code, _ = run_cli(
            HDV_ARGS[:-2] + ["--n", "2000", "--boot-vals", str(path)], capsys
        )
        assert code == 0
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2000
        assert set(rows[0]) == {"x1", "x2", "combined"}
        r = rows[0]
        assert float(r["combined"]) == pytest.approx(
            float(r["x1"]) * float(r["x2"]), rel=1e-12
        )

    def test_bad_expression_exits_2(self, capsys):
        code, _ = run_cli(
            ["combine", "--dist", "beta:0.2:0.4", "--expr", "x1 +* x2"], capsys
        )
        assert code == 2


class TestAdjustPrev:
    def test_paper_example_rho_minus_half(self, capsys):
        code, out = run_cli(
            PREV_ARGS + ["--rho-sens-spec", "-0.5", "--n", "1000000"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["low"] == pytest.approx(0.038, abs=0.003)
        assert obj["upp"] == pytest.approx(0.194, abs=0.003)
        assert obj["point"] == pytest.approx(0.1227, abs=1e-4)

    def test_paper_example_independent(self, capsys):
        code, out = run_cli(PREV_ARGS + ["--n", "1000000"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["low"] == pytest.approx(0.039, abs=0.003)
        assert obj["upp"] == pytest.approx(0.190, abs=0.003)

    def test_missing_spec_ci_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(PREV_ARGS[:5])
        assert exc.value.code == 2

    def test_uninformative_inputs_exit_3(self, capsys):
        args = [
            "adjust-prev",
            "--prev-ci", "0.136,0.204",
            "--sens-ci", "0.30,0.60",
            "--spec-ci", "0.30,0.60",
            "--n", "10000",
        ]
        code, _ = run_cli(args, capsys)
        assert code == 3


class TestSweep:
    def test_row_shape_and_headers(self, capsys):
        args = [
            "sweep",
            "--prev-ci", "0.136,0.204",
            "--sens-ci", "0.837,0.918",
            "--spec-ci", "0.857,0.975",
            "--rho-from", "0",
            "--rho-to", "-0.9",
            "--steps", "9",
            "--n", "10000",
            "--method", "hdi",
        ]
        code, out = run_cli(args, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,low,upp,width"
        assert len(lines) == 11
        for line in lines[1:]:
            rho, low, upp, width = (float(v) for v in line.split(","))
            assert width == pytest.approx(upp - low, rel=1e-9)

    def test_steps_zero_matches_adjust_prev(self, capsys):
        common = [
            "--prev-ci", "0.136,0.204",
            "--sens-ci", "0.837,0.918",
            "--spec-ci", "0.857,0.975",
            "--n", "10000",
            "--method", "hdi",
            "--seed", "123",
        ]
        code, out = run_cli(
            ["sweep", "--rho-from", "0", "--rho-to", "0", "--steps", "0"] + common,
            capsys,
        )
        assert code == 0
        _, low, upp, _ = (float(v) for v in out.strip().splitlines()[1].split(","))
        _, jout = run_cli(["adjust-prev"] + common, capsys)
        obj = json.loads(jout)
        assert low == pytest.approx(obj["low"], rel=1e-9)
        assert upp == pytest.approx(obj["upp"], rel=1e-9)

    def test_rho_out_of_range_exits_2(self, capsys):
        args = [
            "sweep",
            "--prev-ci", "0.136,0.204",
            "--sens-ci", "0.837,0.918",
            "--spec-ci", "0.857,0.975",
            "--rho-from", "0",
            "--rho-to", "1.5",
            "--steps", "3",
        ]
        code, _ = run_cli(args, capsys)
        assert code == 2


class TestScatter:
    BASE = [
        "scatter",
        "--sens-ci", "0.837,0.918",
        "--spec-ci", "0.857,0.975",
    ]

    def test_row_count(self, capsys):
        code, out = run_cli(self.BASE + ["--rho", "0", "--m", "500"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sens,spec"
        assert len(lines) == 501

    def test_antithetic(self, capsys):
        import numpy as np
        from scipy import stats

        code, out = run_cli(self.BASE + ["--rho", "-1", "--m", "2000"], capsys)
        assert code == 0
        rows = [tuple(float(v) for v in line.split(",")) for line in
                out.strip().splitlines()[1:]]
        sens = np.array([r[0] for r in rows])
        spec = np.array([r[1] for r in rows])
        assert np.array_equal(
            stats.rankdata(sens), len(sens) + 1 - stats.rankdata(spec)
        )

    def test_m_zero_exits_2(self, capsys):
        code, _ = run_cli(self.BASE + ["--rho", "0", "--m", "0"], capsys)
        assert code == 2


class TestCoverageCmd:
    def test_runs_and_reports(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        code, out = run_cli(["coverage", "--scenario", path, "--seed", "3"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert set(obj) >= {"coverage", "meanWidth", "mcStdErr", "excludedTrials"}
        assert 0.0 <= obj["coverage"] <= 1.0

    def test_deterministic_repeat(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        _, a = run_cli(["coverage", "--scenario", path, "--seed", "3"], capsys)
        _, b = run_cli(["coverage", "--scenario", path, "--seed", "3"], capsys)
        assert a == b

    def test_trials_zero_exits_2(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        code, _ = run_cli(
            ["coverage", "--scenario", path, "--trials", "0"], capsys
        )
        assert code == 2

    def test_threads_zero_exits_2(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        code, _ = run_cli(
            ["coverage", "--scenario", path, "--threads", "0"], capsys
        )
        assert code == 2

    def test_malformed_scenario_names_field(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        data = json.loads(open(path).read())
        del data["sigma"]
        open(path, "w").write(json.dumps(data))
        code, _ = run_cli(["coverage", "--scenario", path], capsys)
        assert code == 2

    def test_bad_expr_in_scenario(self, capsys, tmp_path):
        path = write_scenario(tmp_path, combiner={"expr": "x1 **"})
        code, _ = run_cli(["coverage", "--scenario", path], capsys)
        assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv, expected", [(["--version"], 0), (["combine"], 2)])
def test_module_entry_point(argv, expected):
    # `python -m copulaboot.cli` reaches main_entry, which exits with main's code
    env = {**os.environ, "PYTHONPATH": str(Path(copulaboot.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "copulaboot.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == expected


# Exit-code matrix: every failure is one "error:" line on stderr and exit 2
# (a ValueError or a command line argparse refuses: bad input, raised before
# any sampling) or 3 (a failure of the numerics or of the sampled draws). A
# dict in argv is written out as a scenario file with those fields overridden
# (None drops a field); bytes are written out as the file itself.
D2 = ["--dist", "beta:0.027:0.050", "--dist", "beta:0.036:0.057"]
COMBINE = ["combine", *D2, "--expr", "x1*x2", "--n", "1000"]
CIS = [
    "--prev-ci", "0.136,0.204", "--sens-ci", "0.837,0.918", "--spec-ci", "0.857,0.975"
]
PREV = ["adjust-prev", *CIS, "--n", "2000"]
SWEEP = ["sweep", *CIS, "--rho-from", "0", "--rho-to", "-0.5", "--steps", "2"]
SCATTER = ["scatter", "--sens-ci", "0.837,0.918", "--spec-ci", "0.857,0.975"]


def cov(**overrides):
    return ["coverage", "--scenario", overrides]


EXIT_CODES = {
    # combine: marginals
    "dist_parts": (["combine", "--dist", "beta:0.1", "--expr", "x1"], 2),
    "dist_number": (["combine", "--dist", "beta:0.1:x", "--expr", "x1"], 2),
    "dist_family": (["combine", "--dist", "foo:0.1:0.2", "--expr", "x1"], 2),
    "dist_order": (["combine", "--dist", "beta:0.5:0.4", "--expr", "x1"], 2),
    "dist_support": (["combine", "--dist", "beta:0.5:1.2", "--expr", "x1"], 2),
    "dist_nan": (["combine", "--dist", "beta:nan:0.2", "--expr", "x1"], 2),
    "dist_alphas": (["combine", "--dist", "beta:0.1:0.2:0.9:0.1", "--expr", "x1"], 2),
    "dist_fit": (["combine", "--dist", "beta:0.5:0.500000000000001", "--expr", "x1"], 3),
    "no_dist": (["combine", "--expr", "x1"], 2),
    # combine: combiner and matrix
    "expr_and_combiner": ([*COMBINE, "--combiner", "product"], 2),
    "no_combiner": (["combine", *D2], 2),
    "expr_parse": (["combine", *D2, "--expr", "x1 +* x2"], 2),
    "expr_arity": (["combine", *D2, "--expr", "x1*x2*x3"], 2),
    "combiner_name": (["combine", *D2, "--combiner", "foo"], 2),
    "combiner_arity": (["combine", *D2, "--combiner", "identity"], 2),
    "sigma_number": ([*COMBINE, "--sigma", "1,x;x,1"], 2),
    "sigma_ragged": ([*COMBINE, "--sigma", "1,0;0"], 2),
    "sigma_asymmetric": ([*COMBINE, "--sigma", "1,0.5;0.4,1"], 2),
    "sigma_range": ([*COMBINE, "--sigma", "1,2;2,1"], 2),
    "sigma_dimension": ([*COMBINE, "--sigma", "1,0,0;0,1,0;0,0,1"], 2),
    # run limits
    "n_small": ([*COMBINE, "--n", "5"], 2),
    "level_range": ([*COMBINE, "--level", "1.5"], 2),
    "level_nan": ([*COMBINE, "--level", "nan"], 2),
    "threads_zero": ([*COMBINE, "--threads", "0"], 2),
    "chunk_zero": ([*COMBINE, "--chunk-size", "0"], 2),
    "seed_negative": ([*COMBINE, "--seed", "-1"], 2),
    "seed_too_large": ([*COMBINE, "--seed", str(2**64)], 2),
    "nonfinite_draw": (["combine", "--dist", "beta:0.2:0.4", "--expr", "log(x1-1)",
                        "--n", "1000"], 3),
    # 2**60 draws: numpy refuses the size before allocating anything
    "n_unallocatable": ([*COMBINE, "--n", str(2**60), "--threads", "1"], 3),
    "boot_vals_dir": ([*COMBINE, "--boot-vals", "no-such-dir/x.csv"], 2),
    # adjust-prev
    "prev_ci_order": ([*PREV, "--prev-ci", "0.2,0.1"], 2),
    "prev_ci_format": ([*PREV, "--prev-ci", "0.2"], 2),
    "sens_ci_zero": ([*PREV, "--sens-ci", "0,0.5"], 2),
    "points_partial": ([*PREV, "--prev", "0.168"], 2),
    "rho_sens_spec": ([*PREV, "--rho-sens-spec", "1.5"], 2),
    "rho_sens_spec_nan": ([*PREV, "--rho-sens-spec", "nan"], 2),
    "prev_sigma_dimension": ([*PREV, "--sigma", "1,0;0,1"], 2),
    "prev_sigma_and_rho": (
        [*PREV, "--sigma", "1,0,0;0,1,0;0,0,1", "--rho-sens-spec", "-0.9"], 2
    ),
    "prev_n": ([*PREV, "--n", "5"], 2),
    # a prefix of a flag is not taken as the flag
    "prev_rho_abbrev": ([*PREV, "--rho", "0.5"], 2),
    "point_nan": ([*PREV, "--prev", "nan", "--sens", "0.88", "--spec", "0.93"], 2),
    "point_range": ([*PREV, "--prev", "5", "--sens", "0.88", "--spec", "0.93"], 2),
    "points_uninformative": (
        [*PREV, "--prev", "0.168", "--sens", "0.3", "--spec", "0.3"], 2
    ),
    "draws_uninformative": ([*PREV, "--sens-ci", "0.3,0.6", "--spec-ci", "0.3,0.6"], 3),
    "valid_range_shortfall": ([*PREV, "--n", "1000"], 3),
    # sweep and scatter
    "sweep_rho_to": ([*SWEEP, "--rho-to", "1.5"], 2),
    "sweep_rho_from_nan": ([*SWEEP, "--rho-from", "nan"], 2),
    "sweep_steps": ([*SWEEP, "--steps", "-1"], 2),
    "sweep_ci": ([*SWEEP, "--spec-ci", "0.9,0.8"], 2),
    "sweep_points": ([*SWEEP, "--prev", "0.168", "--sens", "0.88", "--spec", "0.93"], 2),
    "sweep_prev_abbrev": ([*SWEEP, "--n", "2000", "--prev", "0.1,0.3"], 2),
    # 10**12 + 1 grid points: refused before any fit, as numpy cannot hold them
    "sweep_unallocatable": ([*SWEEP, "--steps", str(10**12)], 3),
    "scatter_m": ([*SCATTER, "--rho", "0", "--m", "0"], 2),
    "scatter_unallocatable": ([*SCATTER, "--rho", "0", "--m", str(2**60)], 3),
    "scatter_rho": ([*SCATTER, "--rho", "1.5"], 2),
    "scatter_seed_negative": ([*SCATTER, "--rho", "0", "--seed", "-1"], 2),
    "scatter_ci_order": ([*SCATTER, "--rho", "0", "--sens-ci", "0.9,0.8"], 2),
    "scatter_ci_format": ([*SCATTER, "--rho", "0", "--spec-ci", "x,0.9"], 2),
    # coverage scenario files
    "scenario_unreadable": (["coverage", "--scenario", "no-such-scenario.json"], 2),
    "scenario_json": (["coverage", "--scenario", b"{"], 2),
    "scenario_missing_field": (cov(sigma=None), 2),
    "scenario_trials_zero": (cov(trials=0), 2),
    "scenario_trials_flag": ([*cov(), "--trials", "0"], 2),
    "scenario_threads_flag": ([*cov(), "--threads", "0"], 2),
    "scenario_expr": (cov(combiner={"expr": "x1 **"}), 2),
    "scenario_builtin": (cov(combiner={"builtin": "foo"}), 2),
    "scenario_combiner_kind": (cov(combiner={}), 2),
    "scenario_combiner_both": (
        cov(combiner={"expr": "x1+x2", "builtin": "product"}), 2
    ),
    "scenario_seed_negative": ([*cov(), "--seed", "-1"], 2),
    "scenario_sigma": (cov(sigma=[[1, 2], [2, 1]]), 2),
    "scenario_dimensions": (cov(dataSizes=[2000, 1500, 10]), 2),
    "scenario_n": (cov(n=5), 2),
    "scenario_level": (cov(level="x"), 2),
    "scenario_trials_str": (cov(trials="5"), 2),
    "scenario_trials_float": (cov(trials=2.5), 2),
    "scenario_trials_bool": (cov(trials=True), 2),
    "scenario_params_str": (cov(trueParams=["a", 0.1]), 2),
    "scenario_params_range": (cov(trueParams=[1.5, 0.1]), 2),
    "scenario_true_nonfinite": (
        cov(trueParams=[0.3, 0.4], combiner={"expr": "1/(x1-0.3)+x2"}), 2
    ),
    "scenario_sizes_negative": (cov(dataSizes=[-5, 1500]), 2),
    "scenario_sizes_float": (cov(dataSizes=[2000.7, 1500]), 2),
    "scenario_sizes_bool": (cov(dataSizes=[True, 1500]), 2),
    "scenario_params_bool": (cov(trueParams=[True, 0.1]), 2),
    "scenario_level_bool": (cov(level=True), 2),
    "scenario_expr_type": (cov(combiner={"expr": 5}), 2),
    "scenario_expr_arity": (cov(combiner={"expr": "x1*x2*x3"}), 2),
    "scenario_trials_excluded": (cov(dataSizes=[1, 1]), 3),
}


@pytest.mark.parametrize("case", list(EXIT_CODES))
def test_exit_code(case, capsys, tmp_path, monkeypatch):
    argv, expected = EXIT_CODES[case]
    argv = list(argv)
    path = tmp_path / "scenario.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            argv[i] = write_scenario(tmp_path, **arg)
        elif isinstance(arg, bytes):
            path.write_bytes(arg)
            argv[i] = str(path)
    monkeypatch.chdir(tmp_path)  # relative paths name nothing that exists
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code == expected
    captured = capsys.readouterr()
    assert captured.out == ""
    # argparse prefixes its error line with the program name
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error: ") or ": error: " in line]
    assert len(errors) == 1
