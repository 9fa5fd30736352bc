"""Command-line interface tests via click's test runner."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import poosurv
from poosurv import (
    BaselineHazard,
    EMConfig,
    Pedigree,
    bootstrap_em,
    em_fit,
    format_ped,
    parse_ped,
    parse_truth,
    pin_genotypes,
    simulate_families,
    survival_curve,
    wald_test,
)
from poosurv.cli import main

from test_em import fail_replicate
from test_inference import random_pedigree


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def run_python(args, cwd):
    """Run a fresh interpreter that imports this checkout's poosurv.

    Unlike click's test runner, it keeps stdout and stderr apart and starts
    from an empty module cache.
    """
    src = str(Path(poosurv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )


class TestSimulateCommand:
    def test_writes_expected_rows(self, runner, tmp_path):
        out = tmp_path / "sim"
        run_ok(
            runner,
            ["simulate", "--families", "100", "--beta", "-0.6", "--q", "0.2",
             "--scenario", "S1", "--seed", "7", "--out", str(out)],
        )
        ped_lines = [
            line
            for line in (out / "pedigree.ped").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(ped_lines) == 1000
        truth_lines = [
            line
            for line in (out / "truth.tsv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(truth_lines) == 1000
        echo = json.loads((out / "config.json").read_text())
        assert echo["parameters"]["seed"] == 7
        assert echo["parameters"]["scenario"] == "S1"

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["simulate", "--families", "12", "--beta", "-0.6", "--q", "0.2",
                "--scenario", "S1", "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_ok(runner, args + ["--out", str(out_a)])
        run_ok(runner, args + ["--out", str(out_b)])
        assert (out_a / "pedigree.ped").read_bytes() == (out_b / "pedigree.ped").read_bytes()
        assert (out_a / "truth.tsv").read_bytes() == (out_b / "truth.tsv").read_bytes()

    def test_oracle_sidecar(self, runner, tmp_path):
        out = tmp_path / "oracle"
        run_ok(
            runner,
            ["simulate", "--families", "5", "--beta", "-0.6", "--q", "0.2",
             "--scenario", "Oracle", "--seed", "1", "--out", str(out)],
        )
        assert (out / "oracle.tsv").exists()

    def test_config_echo_round_trip(self, runner, tmp_path):
        out_a = tmp_path / "a"
        run_ok(
            runner,
            ["simulate", "--families", "8", "--beta", "-0.4", "--q", "0.15",
             "--scenario", "S1", "--seed", "19", "--out", str(out_a)],
        )
        # rebuild the command from the echoed config and rerun
        echo = json.loads((out_a / "config.json").read_text())["parameters"]
        out_b = tmp_path / "b"
        args = ["simulate", "--families", str(echo["families"]),
                "--beta", str(echo["beta"]), "--q", str(echo["q"]),
                "--scenario", echo["scenario"], "--seed", str(echo["seed"]),
                "--out", str(out_b)]
        if echo["mark_probands"]:
            args.append("--mark-probands")
        run_ok(runner, args)
        assert (out_a / "pedigree.ped").read_bytes() == (out_b / "pedigree.ped").read_bytes()
        assert (out_a / "truth.tsv").read_bytes() == (out_b / "truth.tsv").read_bytes()

    def test_hazard_is_parsed_and_echoed(self, runner, tmp_path):
        out = tmp_path / "sim"
        run_ok(
            runner,
            ["simulate", "--families", "4", "--beta", "-0.6", "--scenario", "S0",
             "--hazard", "0:0,20:0.05,60:0.1", "--seed", "2", "--out", str(out)],
        )
        echo = json.loads((out / "config.json").read_text())["parameters"]
        assert echo["hazard"] == {"cuts": [0.0, 20.0, 60.0], "rates": [0.0, 0.05, 0.1]}

    @pytest.mark.parametrize("hazard, message", [
        ("0:0,20", "bad hazard segment '20'"),
        ("5:0.1", "first cut point must be 0"),
    ])
    def test_bad_hazard_is_validation_error(self, runner, tmp_path, hazard, message):
        out = tmp_path / "sim"
        result = runner.invoke(
            main,
            ["simulate", "--families", "4", "--beta", "-0.6", "--scenario", "S0",
             "--hazard", hazard, "--out", str(out)],
        )
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--q", "1.5", "q must be in [0, 1]"),
        ("--q", "-0.2", "q must be in [0, 1]"),
        ("--q", "nan", "q must be in [0, 1]"),
        ("--hazard", "0:nan", "must be finite"),
        ("--hazard", "0:inf", "must be finite"),
        ("--hazard", "0:0,nan:0.1", "must be finite"),
    ])
    def test_impossible_input_writes_nothing(self, runner, tmp_path, option, value, message):
        out = tmp_path / "sim"
        result = runner.invoke(
            main,
            ["simulate", "--families", "4", "--beta", "-0.6", "--scenario", "S0",
             option, value, "--out", str(out)],
        )
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    def test_non_finite_beta_is_validation_error(self, runner, tmp_path):
        out = tmp_path / "sim"
        result = runner.invoke(
            main,
            ["simulate", "--families", "4", "--beta", "nan", "--scenario", "S0",
             "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "beta must be finite" in result.output
        assert not (out / "pedigree.ped").exists()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sim"
    run_ok(
        CliRunner(),
        ["simulate", "--families", "60", "--beta", "-0.6", "--q", "0.2",
         "--scenario", "S2", "--seed", "11", "--out", str(out)],
    )
    return out


class TestFitCommand:

    def test_fit_report_fields(self, runner, sim_dir, tmp_path):
        report_path = tmp_path / "report.json"
        result = run_ok(
            runner,
            ["fit", str(sim_dir / "pedigree.ped"), "--q", "0.2",
             "--epsilon", "0", "--eta", "0", "--seed", "5",
             "--out", str(report_path)],
        )
        assert "beta_hat=" in result.output
        report = json.loads(report_path.read_text())
        for key in ("beta_hat", "se_naive", "p_wald", "baseline", "converged",
                    "iterations", "trace"):
            assert key in report
        assert report["n_families"] == 60
        assert all("log_likelihood" in row for row in report["trace"])
        assert not any("decreased" in w for w in report["warnings"])
        echo = json.loads((tmp_path / "report.json.config.json").read_text())
        assert echo["parameters"]["q"] == 0.2
        # unset options take the library's defaults
        defaults = EMConfig(q=0.2)
        assert echo["parameters"]["tol"] == defaults.tol
        assert echo["parameters"]["max_iter"] == defaults.max_iter
        assert tuple(echo["parameters"]["test_ages"]) == defaults.test_ages

    def test_config_echo_records_flags(self, runner, sim_dir, tmp_path):
        report_path = tmp_path / "r.json"
        run_ok(
            runner,
            ["fit", str(sim_dir / "pedigree.ped"), "--q", "0.04",
             "--proband-correction", "--out", str(report_path)],
        )
        echo = json.loads((tmp_path / "r.json.config.json").read_text())
        assert echo["parameters"]["q"] == 0.04
        assert echo["parameters"]["proband_correction"] is True

    def test_uncertainty_fields_come_from_the_fit_covariance(self, runner, tmp_path):
        families, _ = simulate_families(40, beta=-0.6, q=0.2, scenario="S1", seed=71)
        rng = np.random.default_rng(71)
        families = [
            Pedigree([replace(rec, covariates=(float(rng.normal()),)) for rec in fam])
            for fam in families
        ]
        ped = tmp_path / "covariate.ped"
        ped.write_text(format_ped(families))
        report_path = tmp_path / "report.json"
        run_ok(runner, ["fit", str(ped), "--q", "0.2", "--seed", "5", "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        result = em_fit(parse_ped(ped.read_text()), EMConfig(q=0.2, seed=5))
        variance = result.covariance[0, 0]
        assert result.covariance.shape == (2, 2)
        assert report["beta_hat"] == result.beta_hat
        assert report["se_naive"] == float(np.sqrt(variance))
        assert report["gamma_se"] == result.std_errors[1:].tolist()
        assert len(report["gamma_se"]) == 1
        assert (report["wald_z"], report["p_wald"]) == wald_test(result.beta_hat, variance)

    def test_missing_input_no_partial_outputs(self, runner, tmp_path):
        report_path = tmp_path / "missing.json"
        result = runner.invoke(
            main,
            ["fit", str(tmp_path / "nope.ped"), "--q", "0.2", "--out",
             str(report_path)],
        )
        assert result.exit_code != 0
        assert not report_path.exists()

    def test_unwritable_output_is_io_error(self, runner, sim_dir, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        result = runner.invoke(
            main,
            ["fit", str(sim_dir / "pedigree.ped"), "--q", "0.2",
             "--epsilon", "0", "--eta", "0", "--max-iter", "2",
             "--out", str(blocker / "report.json")],
        )
        assert result.exit_code == 4

    @pytest.mark.parametrize("q", ["0", "1"])
    def test_q_at_either_end_is_validation_error(self, runner, sim_dir, tmp_path, q):
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main, ["fit", str(sim_dir / "pedigree.ped"), "--q", q, "--out", str(report_path)]
        )
        assert result.exit_code == 2
        assert "q must be in (0, 1)" in result.output
        assert not report_path.exists()

    def test_infeasible_pedigree_is_numerical_error(self, runner, tmp_path):
        ped = tmp_path / "wide.ped"
        ped.write_text(format_ped([random_pedigree(np.random.default_rng(0), 200, "W")]))
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main, ["fit", str(ped), "--q", "0.2", "--out", str(report_path)]
        )
        assert result.exit_code == 3
        assert "family W" in result.output and "clique" in result.output
        assert not report_path.exists()

    def test_poo_file_constrains_fit(self, runner, tmp_path):
        runner_out = tmp_path / "oracle_sim"
        run_ok(
            runner,
            ["simulate", "--families", "40", "--beta", "-0.6", "--q", "0.2",
             "--scenario", "Oracle", "--seed", "2", "--out", str(runner_out)],
        )
        report_path = tmp_path / "oracle_fit.json"
        run_ok(
            runner,
            ["fit", str(runner_out / "pedigree.ped"), "--q", "0.2",
             "--epsilon", "0", "--eta", "0",
             "--poo-file", str(runner_out / "oracle.tsv"),
             "--out", str(report_path)],
        )
        report = json.loads(report_path.read_text())
        assert report["converged"]
        assert report["iterations"] <= 6  # hard evidence pins the weights

    def test_poo_file_constrains_bootstrap(self, runner, tmp_path):
        sim = tmp_path / "oracle_sim"
        run_ok(
            runner,
            ["simulate", "--families", "60", "--beta", "-0.6",
             "--scenario", "Oracle", "--seed", "4", "--out", str(sim)],
        )
        args = ["fit", str(sim / "pedigree.ped"), "--q", "0.2", "--bootstrap", "3"]
        plain, pinned = tmp_path / "plain.json", tmp_path / "pinned.json"
        run_ok(runner, args + ["--out", str(plain)])
        run_ok(runner, args + ["--poo-file", str(sim / "oracle.tsv"), "--out", str(pinned)])
        plain_betas = json.loads(plain.read_text())["bootstrap"]["beta_hats"]
        pinned_betas = json.loads(pinned.read_text())["bootstrap"]["beta_hats"]
        assert pinned_betas != plain_betas
        # every replicate's fit sees the sidecar's pins
        families = pin_genotypes(
            parse_ped((sim / "pedigree.ped").read_text()),
            parse_truth((sim / "oracle.tsv").read_text()),
        )
        reps = bootstrap_em(families, EMConfig(q=0.2), B=3)
        assert pinned_betas == sorted(r.beta_hat for r in reps)

    def test_poo_file_naming_unknown_individuals_is_validation_error(
        self, runner, tmp_path
    ):
        for n in (20, 40):
            run_ok(
                runner,
                ["simulate", "--families", str(n), "--beta", "-0.6",
                 "--scenario", "Oracle", "--seed", "4", "--out", str(tmp_path / f"s{n}")],
            )
        report_path = tmp_path / "fit.json"
        result = runner.invoke(
            main,
            ["fit", str(tmp_path / "s20" / "pedigree.ped"), "--q", "0.2",
             "--poo-file", str(tmp_path / "s40" / "oracle.tsv"),
             "--out", str(report_path)],
        )
        assert result.exit_code == 2
        assert "family F21" in result.output and "unknown individual" in result.output
        assert not report_path.exists()

    def test_replicate_inference_error_counts_as_failed(
        self, runner, sim_dir, tmp_path, monkeypatch
    ):
        # the main fit succeeds, so one replicate's zero evidence is a failed
        # replicate in the report, not a numerical failure of the command
        fail_replicate(monkeypatch, 1, "F7")
        report_path = tmp_path / "fit.json"
        run_ok(runner, ["fit", str(sim_dir / "pedigree.ped"), "--q", "0.2",
                        "--bootstrap", "3", "--out", str(report_path)])
        boot = json.loads(report_path.read_text())["bootstrap"]
        assert (boot["replicates"], boot["failed"]) == (3, 1)
        assert len(boot["beta_hats"]) == len(boot["fits"]) == 2

    @pytest.mark.parametrize("option, message", [
        (("--tol", "nan"), "tol must be positive and finite"),
        (("--tol", "inf"), "tol must be positive and finite"),
        (("--test-ages", "20,nan"), "test_ages must be finite"),
        (("--test-ages", "20,inf"), "test_ages must be finite"),
    ])
    def test_non_finite_numbers_are_validation_errors(self, runner, sim_dir, tmp_path,
                                                      option, message):
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["fit", str(sim_dir / "pedigree.ped"), "--q", "0.2", *option,
             "--out", str(report_path)],
        )
        assert result.exit_code == 2
        assert message in result.output
        assert not report_path.exists()

    @pytest.mark.parametrize("option, message", [
        (("--epsilon", "1.5"), "epsilon must be in [0, 1), got 1.5"),
        (("--epsilon", "nan"), "epsilon must be in [0, 1), got nan"),
        (("--eta", "-1"), "eta must be in [0, 1), got -1.0"),
    ])
    def test_out_of_range_error_rate_is_validation_error(self, runner, sim_dir, tmp_path,
                                                         option, message):
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["fit", str(sim_dir / "pedigree.ped"), "--q", "0.2", *option,
             "--out", str(report_path)],
        )
        assert result.exit_code == 2
        assert message in result.output
        assert not report_path.exists()
        assert not (tmp_path / "report.json.config.json").exists()

    @pytest.mark.parametrize("option", [("--bootstrap", "-2"), ("--jobs", "0")])
    def test_negative_counts_are_usage_errors(self, runner, sim_dir, tmp_path, option):
        report_path = tmp_path / "fit.json"
        result = runner.invoke(
            main,
            ["fit", str(sim_dir / "pedigree.ped"), "--q", "0.2", *option,
             "--out", str(report_path)],
        )
        assert result.exit_code == 2
        assert not report_path.exists()

    def test_validation_findings_lead_the_warnings(self, runner, sim_dir, tmp_path):
        families = parse_ped((sim_dir / "pedigree.ped").read_text())
        families[0] = Pedigree(
            [replace(rec, proband=rec.individual_id in ("1", "2")) for rec in families[0]]
        )
        ped = tmp_path / "two_probands.ped"
        ped.write_text(format_ped(families))
        report_path = tmp_path / "fit.json"
        run_ok(
            runner,
            ["fit", str(ped), "--q", "0.2", "--max-iter", "2", "--out", str(report_path)],
        )
        warnings = json.loads(report_path.read_text())["warnings"]
        assert warnings[0] == "family F1: multiple probands: 1, 2"

    def test_zero_evidence_failure_names_the_individual(self, tmp_path):
        # an affected founder who tests negative is impossible at epsilon 0;
        # the finding that says so reaches stderr before the fit fails
        ped = tmp_path / "zero.ped"
        ped.write_text(
            "F1 1 0 0 1 50.0 1 0 0\n"
            "F1 2 0 0 2 48.0 0 -9 0\n"
            "F1 3 1 2 1 25.0 0 -9 0\n"
            "F1 4 1 2 2 23.0 0 -9 0\n"
            "F1 5 0 0 1 49.0 0 -9 0\n"
        )
        report_path = tmp_path / "fit.json"
        result = run_python(
            ["-m", "poosurv.cli", "fit", str(ped), "--q", "0.2", "--epsilon", "0",
             "--out", str(report_path)],
            tmp_path,
        )
        assert result.returncode == 3, result.stderr
        assert "individual 1" in result.stderr and "impossible" in result.stderr
        assert result.stdout == ""
        assert not report_path.exists()

    def test_non_finite_covariate_is_validation_error(self, tmp_path):
        # rejected while parsing, before any numpy warning or M-step failure
        ped = tmp_path / "nan.ped"
        ped.write_text(
            "# covariates: 1\n"
            "F1 1 0 0 1 50.0 1 -9 0 0.5\n"
            "F1 2 0 0 2 48.0 0 -9 0 nan\n"
            "F1 3 1 2 1 25.0 0 -9 0 -0.5\n"
        )
        report_path = tmp_path / "fit.json"
        result = run_python(
            ["-m", "poosurv.cli", "fit", str(ped), "--q", "0.2", "--out", str(report_path)],
            tmp_path,
        )
        assert result.returncode == 2, result.stderr
        assert "family F1, line 3: individual 2 has non-finite covariates" in result.stderr
        assert "Warning" not in result.stderr
        assert not report_path.exists()


class TestReplicateCommand:
    def test_small_study_csv(self, runner, tmp_path):
        out = tmp_path / "study.csv"
        run_ok(
            runner,
            ["replicate", "--case", "6:-0.6", "--scenarios", "S1,S2",
             "--replicates", "2", "--seed", "9", "--out", str(out)],
        )
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert set(r["scenario"] for r in rows) == {"S1", "S2"}
        assert all(r["case"] == "n6_beta-0.6" for r in rows)

    def test_missing_out_directory_is_made_first(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_ok(
            runner,
            ["replicate", "--case", "6:-0.6", "--scenarios", "S1",
             "--replicates", "1", "--seed", "9", "--out", "nodir/study.csv"],
        )
        with open(tmp_path / "nodir" / "study.csv") as handle:
            assert len(list(csv.DictReader(handle))) == 1
        assert (tmp_path / "nodir" / "study.csv.config.json").exists()

    @pytest.mark.parametrize("case", ["10:nan", "10:inf", "0:-0.6"])
    def test_invalid_case_is_validation_error(self, runner, tmp_path, case):
        # checked before any unit runs: no row is written for the valid case
        out = tmp_path / "study.csv"
        result = runner.invoke(
            main,
            ["replicate", "--case", "6:-0.6", "--case", case, "--scenarios", "S1",
             "--replicates", "1", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert f"bad case {case}" in result.output
        assert not out.exists()

    def test_config_echo_records_every_option(self, runner, tmp_path):
        out = tmp_path / "study.csv"
        run_ok(
            runner,
            ["replicate", "--case", "6:-0.6", "--scenarios", "s2",
             "--replicates", "1", "--out", str(out)],
        )
        echo = json.loads((tmp_path / "study.csv.config.json").read_text())
        assert echo["command"] == "replicate"
        assert set(echo["parameters"]) == {
            p.name for p in main.commands["replicate"].params
        }
        assert echo["parameters"]["full_design"] is False
        assert echo["parameters"]["cases"] == [[6, -0.6]]
        assert echo["parameters"]["scenarios"] == ["S2"]

    def test_summary_line_counts_failures_by_type(self, tmp_path):
        # one-family replicates often have no weighted event, so some rows fail
        result = run_python(
            ["-m", "poosurv.cli", "replicate", "--case", "1:-0.6", "--scenarios", "S0",
             "--replicates", "8", "--seed", "2", "--out", "study.csv"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "study.csv") as handle:
            rows = list(csv.DictReader(handle))
        failed = sum(1 for r in rows if r["error"].startswith("EMError:"))
        assert failed and all(
            r["error"].startswith("EMError:") for r in rows if r["error"]
        )
        (line,) = result.stderr.splitlines()
        assert re.fullmatch(
            rf"replicate: 8 rows in \d+\.\d\d s; failures: EMError {failed}", line
        ), line
        assert "failures" not in (tmp_path / "study.csv.config.json").read_text()
        assert result.stdout == "wrote 8 replicate rows to study.csv\n"

    def test_q_at_either_end_is_validation_error(self, runner, tmp_path):
        out = tmp_path / "study.csv"
        result = runner.invoke(
            main, ["replicate", "--case", "6:-0.6", "--q", "0", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "q must be in (0, 1)" in result.output
        assert not out.exists()

    def test_case_argument_validation(self, runner, tmp_path):
        result = runner.invoke(
            main, ["replicate", "--case", "banana", "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2

    def test_no_case_and_no_full_design_is_validation_error(self, runner, tmp_path):
        out = tmp_path / "study.csv"
        result = runner.invoke(main, ["replicate", "--out", str(out)])
        assert result.exit_code == 2
        assert "provide --case FAMILIES:BETA or --full-design" in result.output
        assert not out.exists()


class TestCheckOracleCommand:
    def test_template_family_passes(self, runner, tmp_path):
        sim = tmp_path / "sim"
        run_ok(
            runner,
            ["simulate", "--families", "1", "--beta", "-0.6", "--q", "0.2",
             "--scenario", "S1", "--seed", "4", "--out", str(sim)],
        )
        result = run_ok(
            runner,
            ["check-oracle", str(sim / "pedigree.ped"), "--q", "0.2",
             "--beta", "-0.6"],
        )
        assert "oracle check passed" in result.output

    def test_loopy_family_passes(self, runner, tmp_path):
        ped = tmp_path / "loop.ped"
        ped.write_text(
            "\n".join(
                [
                    "L 1 0 0 1 80.0 0 -9 0",
                    "L 2 0 0 2 78.0 0 -9 0",
                    "L 3 1 2 1 55.0 1 1 0",
                    "L 4 1 2 2 53.0 0 -9 0",
                    "L 5 0 0 2 54.0 0 0 0",
                    "L 6 0 0 1 56.0 0 -9 0",
                    "L 7 3 5 1 30.0 0 -9 0",
                    "L 8 6 4 2 28.0 1 -9 0",
                ]
            )
            + "\n"
        )
        run_ok(runner, ["check-oracle", str(ped), "--q", "0.2", "--beta", "-0.4"])

    def test_cap_exceeded(self, runner, tmp_path):
        rows = ["C 1 0 0 1 60.0 0 -9 0", "C 2 0 0 2 58.0 0 -9 0"]
        rows += [f"C {i} 1 2 1 30.0 0 -9 0" for i in range(3, 14)]
        ped = tmp_path / "big.ped"
        ped.write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["check-oracle", str(ped), "--q", "0.2"])
        assert result.exit_code == 2
        assert "cap" in result.output


@pytest.fixture(scope="module")
def fitted_report(tmp_path_factory):
    runner = CliRunner()
    base = tmp_path_factory.mktemp("curvedata")
    sim = base / "sim"
    run_ok(
        runner,
        ["simulate", "--families", "50", "--beta", "-0.6", "--q", "0.2",
         "--scenario", "S2", "--seed", "6", "--out", str(sim)],
    )
    report = base / "fit.json"
    run_ok(
        runner,
        ["fit", str(sim / "pedigree.ped"), "--q", "0.2", "--epsilon", "0",
         "--eta", "0", "--bootstrap", "12", "--seed", "3",
         "--out", str(report)],
    )
    return report


class TestCurveCommand:

    def test_curve_columns_and_monotonicity(self, runner, fitted_report, tmp_path):
        out = tmp_path / "curves.csv"
        run_ok(runner, ["curve", str(fitted_report), "--out", str(out)])
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 101
        report = json.loads(Path(fitted_report).read_text())
        pat = np.array([float(r["survival_pat"]) for r in rows])
        mat = np.array([float(r["survival_mat"]) for r in rows])
        assert pat[0] == 1.0 and mat[0] == 1.0
        if report["beta_hat"] < 0:
            assert np.all(pat >= mat)
        assert np.all(np.diff(pat) <= 1e-12)

    def test_bootstrap_bands_contain_point_curve(self, runner, fitted_report, tmp_path):
        out = tmp_path / "curves.csv"
        run_ok(runner, ["curve", str(fitted_report), "--out", str(out)])
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            for group in ("pat", "mat"):
                point = float(row[f"survival_{group}"])
                lower = float(row[f"lower_{group}"])
                upper = float(row[f"upper_{group}"])
                assert lower <= point <= upper

    def test_report_without_bootstrap_gamma_is_validation_error(
        self, runner, fitted_report, tmp_path
    ):
        report = json.loads(Path(fitted_report).read_text())
        for f in report["bootstrap"]["fits"]:
            del f["gamma"]
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(report))
        result = runner.invoke(main, ["curve", str(stale), "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 2
        assert "'gamma'" in result.output

    @pytest.mark.parametrize("ages", ["0:100:0", "0:100:-1"])
    def test_non_positive_age_step_is_validation_error(
        self, runner, fitted_report, tmp_path, ages
    ):
        out = tmp_path / "c.csv"
        result = runner.invoke(
            main, ["curve", str(fitted_report), "--ages", ages, "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "bad age grid" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", [
        "nan_increment", "inf_beta_hat", "nan_in_bootstrap_baseline",
        "null_beta_hat", "string_baseline", "null_gamma", "list_report",
        "string_beta_hat_in_bootstrap",
    ])
    def test_non_finite_report_is_validation_error(
        self, runner, fitted_report, tmp_path, corrupt
    ):
        report = json.loads(Path(fitted_report).read_text())
        message = "must be finite"
        if corrupt == "nan_increment":
            report["baseline"]["increments"][3] = float("nan")
        elif corrupt == "inf_beta_hat":
            report["beta_hat"] = float("inf")
        elif corrupt == "nan_in_bootstrap_baseline":
            report["bootstrap"]["fits"][2]["baseline"]["times"][1] = float("nan")
        elif corrupt == "null_beta_hat":
            report["beta_hat"], message = None, "'beta_hat' is not a number"
        elif corrupt == "string_baseline":
            report["baseline"], message = "x", "'baseline' is not an object"
        elif corrupt == "null_gamma":
            report["gamma"], message = None, "'gamma' is not a list of numbers"
        elif corrupt == "list_report":
            report, message = [report], "is not an object"
        else:
            report["bootstrap"]["fits"][1]["beta_hat"] = "-0.5"
            message = "'beta_hat' is not a number"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        out = tmp_path / "c.csv"
        result = runner.invoke(main, ["curve", str(bad), "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()
        assert not (tmp_path / "c.csv.config.json").exists()

    def test_curve_without_bootstrap_has_empty_bands(self, runner, tmp_path):
        sim = tmp_path / "sim"
        run_ok(
            runner,
            ["simulate", "--families", "30", "--beta", "-0.6", "--q", "0.2",
             "--scenario", "S2", "--seed", "8", "--out", str(sim)],
        )
        report = tmp_path / "fit.json"
        run_ok(
            runner,
            ["fit", str(sim / "pedigree.ped"), "--q", "0.2", "--epsilon", "0",
             "--eta", "0", "--out", str(report)],
        )
        out = tmp_path / "c.csv"
        run_ok(runner, ["curve", str(report), "--out", str(out)])
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert all(r["lower_pat"] == "" and r["upper_mat"] == "" for r in rows)

    def test_bands_use_each_bootstrap_fits_own_gamma(self, runner, tmp_path):
        sim = tmp_path / "sim"
        run_ok(
            runner,
            ["simulate", "--families", "40", "--beta", "-0.6", "--q", "0.2",
             "--scenario", "S2", "--seed", "5", "--out", str(sim)],
        )
        rng = np.random.default_rng(0)
        families = [
            Pedigree([replace(rec, covariates=(float(rng.normal()),)) for rec in fam])
            for fam in parse_ped((sim / "pedigree.ped").read_text())
        ]
        ped = tmp_path / "cov.ped"
        ped.write_text(format_ped(families))
        report_path = tmp_path / "fit.json"
        run_ok(
            runner,
            ["fit", str(ped), "--q", "0.2", "--epsilon", "0", "--eta", "0",
             "--bootstrap", "3", "--out", str(report_path)],
        )
        out = tmp_path / "c.csv"
        run_ok(runner, ["curve", str(report_path), "--z", "1", "--out", str(out)])
        report = json.loads(report_path.read_text())
        fits = report["bootstrap"]["fits"]
        assert len(fits) == 3
        assert len({f["gamma"][0] for f in fits}) == 3
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        grid = np.array([float(r["age"]) for r in rows])

        def curve_of(f, group):
            baseline = BaselineHazard(f["baseline"]["times"], f["baseline"]["increments"])
            return survival_curve(baseline, f["beta_hat"], f["gamma"], group=group, z=(1.0,))(grid)

        for group in ("pat", "mat"):
            point = curve_of(report, group)
            curves = np.stack([curve_of(f, group) for f in fits])
            lower = np.minimum(np.percentile(curves, 2.5, axis=0), point)
            upper = np.maximum(np.percentile(curves, 97.5, axis=0), point)
            np.testing.assert_array_equal([float(r[f"survival_{group}"]) for r in rows], point)
            np.testing.assert_array_equal([float(r[f"lower_{group}"]) for r in rows], lower)
            np.testing.assert_array_equal([float(r[f"upper_{group}"]) for r in rows], upper)


SCIPY_BLOCKED = """
import json, math, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from click.testing import CliRunner
from poosurv.cli import main
for args in (
    ["simulate", "--families", "12", "--beta", "-0.6", "--scenario", "S1", "--out", "sim"],
    ["fit", "sim/pedigree.ped", "--q", "0.2", "--bootstrap", "2", "--jobs", "1",
     "--out", "fit.json"],
    ["curve", "fit.json", "--out", "curves.csv"],
    ["check-oracle", "sim/pedigree.ped", "--q", "0.2", "--beta", "-0.6"],
):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, (args, result.output)
with open("fit.json") as handle:
    assert math.isfinite(json.load(handle)["p_wald"])
"""


def test_commands_run_without_scipy(tmp_path):
    # numpy and click are the whole runtime; scipy is a test dependency only
    result = run_python(["-c", SCIPY_BLOCKED], tmp_path)
    assert result.returncode == 0, result.stderr
