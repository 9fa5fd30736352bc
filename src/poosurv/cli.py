"""Command-line front end: simulate, fit, replicate, check-oracle, curve.

Every subcommand that writes files also writes a JSON config echo of the
parameters click resolved and the package version, and every subcommand is
deterministic given its arguments. Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import click
import numpy as np

from . import __version__
from .em import EMConfig, EMError, bootstrap_em, em_fit
from .genetics import DEFAULT_EPSILON, DEFAULT_ETA, ModelParams
from .inference import (
    DEFAULT_ENUMERATION_CAP,
    InferenceError,
    brute_force_marginals,
    posterior_marginals,
)
from .pedigree import PedigreeError, format_ped, parse_ped, pin_genotypes, validate
from .simulate import (
    DEFAULT_HAZARD,
    DEFAULT_Q,
    HazardSpec,
    Scenario,
    format_truth,
    parse_truth,
    replicate_study,
    simulate_families,
)
from .survival import BaselineHazard, CoxError, survival_curve, wald_test

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

ORACLE_TOLERANCE = 1e-8

_EM_DEFAULTS = {f.name: f.default for f in dataclasses.fields(EMConfig)}


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (PedigreeError, ValueError) as err:
            _fail(EXIT_VALIDATION, str(err))
        except (InferenceError, CoxError, EMError) as err:
            _fail(EXIT_NUMERICAL, str(err))
        except OSError as err:
            _fail(EXIT_IO, str(err))

    return wrapper


def _write_config_echo(path: Path, **resolved):
    """Write the running command's parameters as click resolved them.

    ``resolved`` replaces the raw text of options that the command parsed
    (hazards, ages, cases, scenarios) with their parsed values.
    """
    ctx = click.get_current_context()
    echo = {
        "command": ctx.info_name,
        "version": __version__,
        "parameters": {**ctx.params, **resolved},
    }
    path.write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")


def _out_path(out: str) -> Path:
    """The ``--out`` file, with its parent directory made before any work
    starts, so that a missing directory cannot throw away a finished run."""
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _parse_hazard(text: str | None) -> HazardSpec:
    if not text:
        return DEFAULT_HAZARD
    cuts, rates = [], []
    for chunk in text.split(","):
        try:
            cut, rate = chunk.split(":")
            cuts.append(float(cut))
            rates.append(float(rate))
        except ValueError:
            raise ValueError(
                f"bad hazard segment {chunk!r}; expected start:rate pairs "
                "like 0:0,20:0.02,40:0.10,60:0.05"
            ) from None
    return HazardSpec(cuts, rates)


def _parse_ages(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _load_families(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ped(handle)


@click.group()
@click.version_option(version=__version__, prog_name="poosurv")
def main():
    """Carrier survival and parent-of-origin estimation from pedigrees."""


@main.command()
@click.option("--families", type=int, required=True, help="Number of families.")
@click.option("--beta", type=float, required=True, help="Paternal-origin log hazard ratio.")
@click.option("--q", type=float, default=DEFAULT_Q, show_default=True, help="Disease allele frequency.")
@click.option("--scenario", type=click.Choice([s.value for s in Scenario], case_sensitive=False), required=True)
@click.option("--hazard", default=None, help="Piecewise hazard as start:rate,... (default: built-in study table).")
@click.option("--mark-probands", is_flag=True, help="Flag the first affected member of each family as proband.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
@_guarded
def simulate(families, beta, q, scenario, hazard, mark_probands, seed, out):
    """Simulate families and write pedigree.ped plus truth.tsv (and oracle.tsv)."""
    scenario = Scenario(scenario)
    hazard = _parse_hazard(hazard)
    pedigrees, truth = simulate_families(
        families, beta, q, hazard=hazard, scenario=scenario, seed=seed,
        mark_probands=mark_probands,
    )
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "pedigree.ped").write_text(format_ped(pedigrees))
    (out_dir / "truth.tsv").write_text(format_truth(truth))
    if scenario == Scenario.ORACLE:
        (out_dir / "oracle.tsv").write_text(format_truth(truth))
    _write_config_echo(
        out_dir / "config.json",
        scenario=scenario.value,
        hazard={"cuts": hazard.cuts, "rates": hazard.rates},
    )
    click.echo(f"wrote {families} families to {out_dir / 'pedigree.ped'}")


def _baseline_to_json(baseline: BaselineHazard):
    return {
        "times": [float(t) for t in baseline.times],
        "increments": [float(d) for d in baseline.increments],
    }


@main.command()
@click.argument("ped", type=click.Path(exists=True, dir_okay=False))
@click.option("--q", type=float, required=True, help="Disease allele frequency.")
@click.option("--epsilon", type=float, default=DEFAULT_EPSILON, show_default=True, help="Gene-test error rate for carriers.")
@click.option("--eta", type=float, default=DEFAULT_ETA, show_default=True, help="Gene-test error rate for non-carriers.")
@click.option("--test-ages", default=",".join(f"{a:g}" for a in _EM_DEFAULTS["test_ages"]), show_default=True, help="Convergence test ages.")
@click.option("--tol", type=float, default=_EM_DEFAULTS["tol"], show_default=True)
@click.option("--max-iter", type=int, default=_EM_DEFAULTS["max_iter"], show_default=True)
@click.option("--seed", type=int, default=_EM_DEFAULTS["seed"], show_default=True)
@click.option("--proband-correction", is_flag=True, help="Suppress proband phenotypes (ascertainment correction).")
@click.option("--poo-file", type=click.Path(exists=True, dir_okay=False), default=None, help="Oracle sidecar pinning genotype states.")
@click.option("--bootstrap", type=click.IntRange(min=0), default=None, help="Family bootstrap replicates for honest intervals.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True, help="Concurrency for the bootstrap.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def fit(ped, q, epsilon, eta, test_ages, tol, max_iter, seed,
        proband_correction, poo_file, bootstrap, jobs, out):
    """Fit the origin-effect survival model to a pedigree file."""
    out_path = _out_path(out)
    families = _load_families(ped)
    if poo_file:
        families = pin_genotypes(families, parse_truth(Path(poo_file).read_text()))
    config = EMConfig(
        q=q,
        epsilon=epsilon,
        eta=eta,
        test_ages=_parse_ages(test_ages),
        tol=tol,
        max_iter=max_iter,
        seed=seed,
        proband_correction=proband_correction,
    )
    findings = [str(w) for fam in families for w in validate(fam, epsilon=epsilon)]
    for finding in findings:
        click.echo(f"warning: {finding}", err=True)
    result = em_fit(families, config)
    z, p = wald_test(result.beta_hat, result.covariance[0, 0])
    std_errors = result.std_errors
    report = {
        "beta_hat": result.beta_hat,
        "se_naive": float(std_errors[0]),
        "wald_z": z,
        "p_wald": p,
        "gamma": [float(g) for g in result.gamma_hat],
        "gamma_se": [float(s) for s in std_errors[1:]],
        "baseline": _baseline_to_json(result.baseline),
        "converged": result.converged,
        "iterations": result.iterations,
        "final_max_change": result.trace.iterations[-1].max_change,
        "log_evidence": result.trace.iterations[-1].log_evidence,
        "n_families": len(families),
        "n_individuals": sum(len(f) for f in families),
        "warnings": findings + result.trace.warnings,
        "trace": [
            {
                "iteration": row.index,
                "beta": row.beta,
                "survival": list(row.survival),
                "log_evidence": row.log_evidence,
                "log_likelihood": row.log_likelihood,
            }
            for row in result.trace.iterations
        ],
    }
    if bootstrap:
        reps = bootstrap_em(families, config, B=bootstrap, jobs=jobs)
        usable = [r for r in reps if r.error is None]
        betas = sorted(r.beta_hat for r in usable)
        report["bootstrap"] = {
            "replicates": bootstrap,
            "failed": len(reps) - len(usable),
            "beta_hats": betas,
            "beta_ci_95": [
                float(np.percentile(betas, 2.5)),
                float(np.percentile(betas, 97.5)),
            ]
            if usable
            else None,
            "fits": [
                {
                    "beta_hat": r.beta_hat,
                    "gamma": [float(g) for g in r.gamma_hat],
                    "baseline": _baseline_to_json(r.baseline),
                }
                for r in usable
            ],
        }
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_config_echo(Path(out + ".config.json"), test_ages=list(config.test_ages))
    click.echo(
        f"beta_hat={result.beta_hat:.6f} se={report['se_naive']:.6f} "
        f"p={p:.4g} iterations={result.iterations} converged={result.converged}"
    )


FULL_DESIGN_CASES = ((100, -0.6), (400, -0.6), (100, -1.2))


@main.command()
@click.option("--case", "cases", multiple=True, help="Study case as FAMILIES:BETA (repeatable).")
@click.option("--full-design", is_flag=True, help="Run the full three-case, four-scenario design.")
@click.option("--scenarios", default=",".join(s.value for s in Scenario), show_default=True)
@click.option("--replicates", type=int, default=200, show_default=True)
@click.option("--q", type=float, default=DEFAULT_Q, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def replicate(cases, full_design, scenarios, replicates, q, seed, jobs, out):
    """Run the scenario replication study and write its results table."""
    out_path = _out_path(out)
    if full_design:
        case_list = list(FULL_DESIGN_CASES)
    else:
        if not cases:
            raise ValueError("provide --case FAMILIES:BETA or --full-design")
        case_list = []
        for text in cases:
            try:
                n_text, beta_text = text.split(":")
                case_list.append((int(n_text), float(beta_text)))
            except ValueError:
                raise ValueError(
                    f"bad case {text!r}; expected FAMILIES:BETA like 400:-0.6"
                ) from None
    scenario_list = [Scenario(s) for s in scenarios.split(",")]
    started = time.perf_counter()
    rows = replicate_study(
        case_list, scenario_list, replicates, seed=seed, q=q, jobs=jobs
    )
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["case", "scenario", "replicate", "beta_hat", "se", "iterations",
             "converged", "seed", "error"]
        )
        for row in rows:
            writer.writerow(
                [row.case, row.scenario, row.replicate, repr(row.beta_hat),
                 repr(row.se), row.iterations, int(row.converged), row.seed,
                 row.error]
            )
    _write_config_echo(
        Path(out + ".config.json"),
        cases=[[n, b] for n, b in case_list],
        scenarios=[s.value for s in scenario_list],
    )
    failures = Counter(row.error.split(":", 1)[0] for row in rows if row.error)
    click.echo(
        f"replicate: {len(rows)} rows in {time.perf_counter() - started:.2f} s; failures: "
        + (", ".join(f"{kind} {n}" for kind, n in sorted(failures.items())) or "none"),
        err=True,
    )
    click.echo(f"wrote {len(rows)} replicate rows to {out}")


@main.command("check-oracle")
@click.argument("ped", type=click.Path(exists=True, dir_okay=False))
@click.option("--q", type=float, required=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--epsilon", type=float, default=DEFAULT_EPSILON, show_default=True)
@click.option("--eta", type=float, default=DEFAULT_ETA, show_default=True)
@click.option("--hazard", default=None, help="Baseline hazard as start:rate,...")
@click.option("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, show_default=True, help="Enumeration cap on family size.")
@_guarded
def check_oracle(ped, q, beta, epsilon, eta, hazard, cap):
    """Compare clique-tree marginals against brute-force enumeration."""
    families = _load_families(ped)
    for fam in families:
        if len(fam) > cap:
            raise ValueError(
                f"family {fam.family_id} has {len(fam)} members, above the "
                f"enumeration cap {cap}"
            )
    params = ModelParams(
        q=q, beta=beta, epsilon=epsilon, eta=eta, baseline=_parse_hazard(hazard)
    )
    worst = 0.0
    for fam in families:
        exact = posterior_marginals(fam, params)
        brute = brute_force_marginals(fam, params, cap=cap)
        deviation = float(np.max(np.abs(exact.marginals - brute.marginals)))
        logev_gap = abs(exact.log_evidence - brute.log_evidence)
        worst = max(worst, deviation)
        click.echo(
            f"family {fam.family_id}: max marginal deviation {deviation:.3e}, "
            f"log-evidence gap {logev_gap:.3e}"
        )
    if worst > ORACLE_TOLERANCE:
        _fail(EXIT_NUMERICAL, f"max deviation {worst:.3e} exceeds {ORACLE_TOLERANCE}")
    click.echo("oracle check passed")


@main.command()
@click.argument("report", type=click.Path(exists=True, dir_okay=False))
@click.option("--ages", default="0:100:1", show_default=True, help="Evaluation grid start:stop:step.")
@click.option("--z", default="", help="Covariate values, comma separated.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def curve(report, ages, z, out):
    """Export fitted survival curves (with bootstrap bands when available)."""
    out_path = _out_path(out)
    fitted = json.loads(Path(report).read_text())
    try:
        start, stop, step = (float(v) for v in ages.split(":"))
        if not step > 0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"bad age grid {ages!r}; expected start:stop:step with a positive step"
        ) from None
    grid = np.arange(start, stop + step / 2, step)
    z_values = tuple(float(v) for v in z.split(",")) if z else ()

    def stale(what):
        return ValueError(f"{report} is not a fit report of this version: {what}")

    def number(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def curve_of(f, group):
        if not (isinstance(f, dict) and isinstance(f.get("baseline", {}), dict)):
            raise stale("a fit or its 'baseline' is not an object")
        try:
            times, increments = f["baseline"]["times"], f["baseline"]["increments"]
            beta, gamma = f["beta_hat"], f["gamma"]
        except KeyError as err:
            raise stale(f"no {err}") from None
        if not number(beta):
            raise stale("'beta_hat' is not a number")
        for name, values in (("gamma", gamma), ("times", times), ("increments", increments)):
            if not (isinstance(values, list) and all(map(number, values))):
                raise stale(f"{name!r} is not a list of numbers")
        baseline = BaselineHazard(times, increments)
        return survival_curve(baseline, beta, tuple(gamma), group=group, z=z_values)(grid)

    point = {group: curve_of(fitted, group) for group in ("pat", "mat")}
    bands = {}
    boot = fitted.get("bootstrap") or {}
    fits = (boot.get("fits") if isinstance(boot, dict) else boot) or []
    if not isinstance(fits, list):
        raise stale("'bootstrap' is not an object with a list of fits")
    if fits:
        for group in ("pat", "mat"):
            curves = np.stack([curve_of(f, group) for f in fits])
            lower = np.percentile(curves, 2.5, axis=0)
            upper = np.percentile(curves, 97.5, axis=0)
            # widen so the band always contains the point curve
            bands[group] = (
                np.minimum(lower, point[group]),
                np.maximum(upper, point[group]),
            )
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["age", "survival_pat", "survival_mat", "lower_pat", "upper_pat",
             "lower_mat", "upper_mat"]
        )
        for i, age in enumerate(grid):
            row = [repr(float(age)), repr(float(point["pat"][i])),
                   repr(float(point["mat"][i]))]
            if bands:
                row += [
                    repr(float(bands["pat"][0][i])), repr(float(bands["pat"][1][i])),
                    repr(float(bands["mat"][0][i])), repr(float(bands["mat"][1][i])),
                ]
            else:
                row += ["", "", "", ""]
            writer.writerow(row)
    _write_config_echo(Path(out + ".config.json"))
    click.echo(f"wrote curves for {grid.size} ages to {out}")


if __name__ == "__main__":
    main()
