"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

The replication studies are deterministic (fixed master seeds) and sized to
run on a laptop in a few minutes. The full three-case, four-scenario,
200-replicate design is available behind the POOSURV_FULL_STUDY environment
flag.
"""

import math
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from poosurv import (
    DEFAULT_HAZARD,
    CoxProblem,
    ModelParams,
    apply_proband_correction,
    brute_force_marginals,
    posterior_marginals,
    replicate_study,
    simulate_families,
)
from poosurv.cli import main as cli_main
from poosurv.em import EMConfig, em_fit

from test_inference import random_pedigree, random_params
from test_survival import fit_cox, random_dataset, split

MASTER_SEED = 202
TRUE_BETA = -0.6


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def scenario_study():
    """Criterion-3 run shared by criteria 3, 4, and 5."""
    rows = replicate_study(
        [(400, TRUE_BETA)],
        ["S0", "S1", "S2", "Oracle"],
        replicates=50,
        seed=MASTER_SEED,
        jobs=2,
    )
    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row.scenario, []).append(row)
    assert all(not row.error for row in rows)
    return by_scenario


def test_criterion_1_inference_exactness():
    rng = np.random.default_rng(1001)
    # 85 loop-free pedigrees spanning sizes 3-12, then 15 loopy ones (9-12)
    plain_sizes = [int(rng.integers(3, 11)) for _ in range(80)] + [11, 11, 11, 12, 12]
    loopy_sizes = [int(rng.integers(9, 13)) for _ in range(15)]
    sizes = plain_sizes + loopy_sizes
    loop_flags = [False] * len(plain_sizes) + [True] * len(loopy_sizes)
    start = time.time()
    worst_marginal = 0.0
    worst_logev = 0.0
    n_loopy = 0
    for index, (size, loopy) in enumerate(zip(sizes, loop_flags)):
        ped = random_pedigree(
            rng, size=size, family_id=f"A{index}", with_loop=loopy,
            covariates=index % 2,
        )
        params = random_params(rng, covariates=index % 2)
        exact = posterior_marginals(ped, params)
        brute = brute_force_marginals(ped, params)
        worst_marginal = max(
            worst_marginal, float(np.max(np.abs(exact.marginals - brute.marginals)))
        )
        worst_logev = max(worst_logev, abs(exact.log_evidence - brute.log_evidence))
        n_loopy += loopy
    elapsed = time.time() - start
    report(
        "1 inference exactness",
        worst_marginal < 1e-10 and worst_logev < 1e-9 and elapsed < 60 and n_loopy >= 10,
        f"{len(sizes)} pedigrees ({n_loopy} loopy), max marginal dev "
        f"{worst_marginal:.2e}, max log-evidence dev {worst_logev:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_cox_correctness():
    rng = np.random.default_rng(2002)
    worst_score = worst_info = 0.0
    h = 1e-5
    for _ in range(50):
        time_arr, status, X, w = random_dataset(
            rng, n=int(rng.integers(25, 70)), n_cov=int(rng.integers(0, 3))
        )
        Z, w = split(X, w)
        problem = CoxProblem(time_arr, status, Z)
        coefs = rng.normal(scale=0.5, size=X.shape[1])
        _, score, info = problem.evaluate(coefs, w)
        fd_score = np.empty_like(score)
        fd_info = np.empty_like(info)
        for j in range(coefs.size):
            e = np.zeros_like(coefs)
            e[j] = h
            lp, sp, _ = problem.evaluate(coefs + e, w)
            lm, sm, _ = problem.evaluate(coefs - e, w)
            fd_score[j] = (lp - lm) / (2 * h)
            fd_info[:, j] = -(sp - sm) / (2 * h)
        worst_score = max(
            worst_score,
            float(np.max(np.abs(score - fd_score) / np.maximum(1.0, np.abs(fd_score)))),
        )
        worst_info = max(
            worst_info,
            float(np.max(np.abs(info - fd_info) / np.maximum(1.0, np.abs(fd_info)))),
        )

    # invariances
    time_arr, status, X, w = random_dataset(rng, n=50, n_cov=1, zero_weights=False)
    c = 2.5
    beta_base = fit_cox(time_arr, status, X, w)[0][0]
    beta_scaled = fit_cox(time_arr, status, X, w * c)[0][0]
    scale_dev = abs(beta_scaled - beta_base)
    doubled = w.copy()
    doubled[3] *= 2
    beta_duplicated = fit_cox(
        np.append(time_arr, time_arr[3]), np.append(status, status[3]),
        np.vstack([X, X[3]]), np.append(w, w[3]),
    )[0][0]
    dup_dev = abs(beta_duplicated - fit_cox(time_arr, status, X, doubled)[0][0])
    report(
        "2 cox correctness",
        worst_score < 1e-6 and worst_info < 1e-4 and scale_dev < 1e-10 and dup_dev < 1e-10,
        f"50 datasets: score rel err {worst_score:.2e}, information rel err "
        f"{worst_info:.2e}; weight-scaling dev {scale_dev:.2e}, duplication dev "
        f"{dup_dev:.2e}",
    )


def test_criterion_3_unbiasedness(scenario_study):
    details = []
    passed = True
    for scenario in ("S0", "S1", "S2", "Oracle"):
        betas = np.array([r.beta_hat for r in scenario_study[scenario]])
        mean = betas.mean()
        bound = 2.0 * betas.std(ddof=1) / math.sqrt(betas.size)
        ok = abs(mean - TRUE_BETA) <= bound
        passed &= ok
        details.append(f"{scenario}: mean {mean:+.4f} (bound ±{bound:.4f})")
    report("3 unbiasedness", passed, "; ".join(details))


def test_criterion_4_variance_ordering(scenario_study):
    sds = {
        scenario: np.array([r.beta_hat for r in scenario_study[scenario]]).std(ddof=1)
        for scenario in scenario_study
    }
    chain = ["Oracle", "S2", "S1", "S0"]
    passed = all(sds[a] <= sds[b] * 1.10 for a, b in zip(chain, chain[1:]))
    report(
        "4 variance ordering",
        passed,
        ", ".join(f"sd({s})={sds[s]:.4f}" for s in chain) + " (10% slack)",
    )


def test_criterion_5_iteration_ordering(scenario_study):
    mean_iters = {
        scenario: np.mean([r.iterations for r in scenario_study[scenario]])
        for scenario in ("S0", "S2")
    }
    ratio = mean_iters["S0"] / mean_iters["S2"]
    passed = mean_iters["S0"] > mean_iters["S2"] and 1.1 <= ratio <= 2.5
    report(
        "5 iteration ordering",
        passed,
        f"mean iterations S0 {mean_iters['S0']:.1f} vs S2 {mean_iters['S2']:.1f}, "
        f"ratio {ratio:.2f} (window [1.1, 2.5])",
    )


def test_criterion_6_simulator_fidelity():
    _, truth = simulate_families(
        7000, beta=TRUE_BETA, q=0.2, scenario="S0", seed=MASTER_SEED
    )
    maternal_times = np.array(
        [t.event_time for t in truth if t.poo in ("mat", "both")]
    )
    all_events = np.array([t.event_time for t in truth if t.poo != "none"])
    passed = maternal_times.size >= 10_000 and float(all_events.min()) >= 20.0
    details = [f"{maternal_times.size} carrier draws, min event {all_events.min():.2f}"]
    for age in (30.0, 50.0, 70.0):
        expected = math.exp(-DEFAULT_HAZARD.cumulative(age))
        observed = float(np.mean(maternal_times > age))
        sigma = math.sqrt(expected * (1.0 - expected) / maternal_times.size)
        ok = abs(observed - expected) <= 3.0 * sigma
        passed &= ok
        details.append(f"S({age:.0f}): {observed:.4f} vs {expected:.4f} (3σ={3*sigma:.4f})")
    report("6 simulator fidelity", passed, "; ".join(details))


def test_criterion_7_strong_effect_recovery():
    rows = replicate_study(
        [(100, -1.2)], ["S1"], replicates=50, seed=MASTER_SEED, jobs=2
    )
    betas = np.array([r.beta_hat for r in rows if not r.error])
    mean = betas.mean()
    passed = betas.size == 50 and abs(mean + 1.2) <= 0.15
    report(
        "7 strong effect recovery",
        passed,
        f"n=100, true -1.2: mean {mean:+.4f} over {betas.size} replicates "
        f"(tolerance ±0.15)",
    )


def test_criterion_8_proband_correction_bias():
    biases = {}
    for corrected in (False, True):
        estimates = []
        for r in range(20):
            families, _ = simulate_families(
                200, beta=TRUE_BETA, q=0.2, scenario="S1",
                seed=(MASTER_SEED, 8, r), mark_probands=True,
            )
            if corrected:
                families, _ = apply_proband_correction(families)
            config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=r)
            estimates.append(em_fit(families, config).beta_hat)
        biases[corrected] = abs(np.mean(estimates) - TRUE_BETA)
    passed = biases[True] <= biases[False] + 0.1
    report(
        "8 proband correction bias",
        passed,
        f"|bias| with correction {biases[True]:.4f} vs without "
        f"{biases[False]:.4f} (allowance +0.1); clinical-cohort results are "
        "out of scope (no data), this substitute property stands in",
    )


def test_criterion_9_replicate_determinism(tmp_path):
    runner = CliRunner()
    outputs = []
    for jobs, name in ((1, "serial.csv"), (8, "parallel.csv")):
        out = tmp_path / name
        result = runner.invoke(
            cli_main,
            ["replicate", "--case", "20:-0.6", "--scenarios", "S1,S2",
             "--replicates", "3", "--seed", "31", "--jobs", str(jobs),
             "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    passed = outputs[0] == outputs[1]
    report(
        "9 replicate determinism",
        passed,
        f"--jobs 1 vs --jobs 8 CSVs identical ({len(outputs[0])} bytes)",
    )


def test_fit_estimates_cover_truth_across_seeds(scenario_study):
    """S2 estimates land in the 95% band around the truth for >=90% of seeds.

    Note the interval here uses the replication spread; the per-fit naive
    standard errors are known to understate it (they ignore the posterior
    weight uncertainty), which is what the family bootstrap is for.
    """
    betas = np.array([r.beta_hat for r in scenario_study["S2"]])
    band = 1.96 * betas.std(ddof=1)
    coverage = float(np.mean(np.abs(betas - TRUE_BETA) <= band))
    assert coverage >= 0.90, f"coverage {coverage:.2f}"


def test_wald_null_pvalues_uniform():
    """Under a zero origin effect the Wald p-values are uniform."""
    from poosurv import wald_test

    pvals = []
    for r in range(50):
        families, _ = simulate_families(
            400, beta=0.0, q=0.2, scenario="S2", seed=(MASTER_SEED, 99, r)
        )
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=r)
        result = em_fit(families, config)
        _, p = wald_test(result.beta_hat, result.covariance[0, 0])
        pvals.append(p)
    _, ks_p = stats.kstest(pvals, "uniform")
    assert ks_p > 0.01, f"KS p-value {ks_p:.4f}"


FULL_DESIGN_FLAG = "POOSURV_FULL_STUDY"


@pytest.mark.skipif(
    not os.environ.get(FULL_DESIGN_FLAG),
    reason=f"set {FULL_DESIGN_FLAG}=1 to run the full 3x4x200 study",
)
def test_full_design_superset(tmp_path):
    """Complete 200-replicate design (cases A/B/C, all scenarios)."""
    rows = replicate_study(
        [(100, -0.6), (400, -0.6), (100, -1.2)],
        ["S0", "S1", "S2", "Oracle"],
        replicates=200,
        seed=MASTER_SEED,
        jobs=2,
    )
    assert len(rows) == 2400
    out = tmp_path / "full_study.csv"
    with open(out, "w") as handle:
        handle.write("case,scenario,replicate,beta_hat,se,iterations,converged,seed,error\n")
        for r in rows:
            handle.write(
                f"{r.case},{r.scenario},{r.replicate},{r.beta_hat!r},{r.se!r},"
                f"{r.iterations},{int(r.converged)},{r.seed},{r.error}\n"
            )
    print(f"full study written to {out}")
