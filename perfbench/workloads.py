"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload holds a fixed pool of independent inputs drawn from the seed.
A run fits every input of the pool at least once, so seed-to-seed variation
in the data (EM iteration counts above all) is averaged over the pool
instead of landing whole on one run's figures. Operations run closed-loop
from one process: one caller, one fit at a time, no process pool.

``check`` takes ``full``: the first pass of each pool entry gets every
check, later passes of the same (deterministic) entry skip the costly
brute-force comparison.

A pool entry is a (PED text, seed) pair; the text is empty where the
workload simulates its own inputs. A pass calls the package through module
attributes (``simulate.em_fit`` and friends) so that the tracer's wrappers,
when installed, see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from poosurv import em, inference, pedigree, simulate
from poosurv.genetics import ModelParams

from cohort import BETA, Q, SMALL_SIZE, cohort_properties, generate_cohort

AGES = np.arange(0.0, 101.0, 1.0)
ROW_SUM_TOL = 1e-12
BRUTE_TOL = 1e-10
BRUTE_FAMILIES, BRUTE_MAX_MEMBERS = 20, SMALL_SIZE


@dataclass
class Outcome:
    """What one pass produced, reduced to what the run reports."""

    iterations: list[int] = field(default_factory=list)
    families: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _sub_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _fit_errors(result, families):
    """Seed-independent checks on one ``em_fit`` result."""
    errors = []
    if not result.converged:
        errors.append(f"EM did not converge in {result.iterations} iterations")
    if not math.isfinite(result.beta_hat):
        errors.append(f"beta_hat is {result.beta_hat}")
    log_evidence = result.trace.iterations[-1].log_evidence
    if not math.isfinite(log_evidence):
        errors.append(f"log evidence is {log_evidence}")
    worst = max(
        abs(w.w_pat + w.w_mat + w.w_zero - 1.0)
        for fam_weights in result.weights for w in fam_weights.values()
    )
    if worst > ROW_SUM_TOL:
        errors.append(f"a posterior row sum is {worst:.2e} away from 1")
    if len(result.weights) != len(families):
        errors.append("weights do not cover every family")
    return errors


class FitWorkload:
    """``em_fit`` on a pool of cohorts parsed from PED text."""

    op_span = "em"
    attempts_per_pass = 1
    boundaries = ()

    def __init__(self, name, n_families, pool_size, config_kwargs, why):
        self.name = name
        self.n_families = n_families
        self.pool_size = pool_size
        self.config_kwargs = config_kwargs
        self.why = why

    def inputs(self, seed):
        """One (PED text, EM seed) pair per pool entry."""
        return [(self.ped_text(s), s) for s in _sub_seeds(seed, self.pool_size)]

    def ped_text(self, seed) -> str:
        raise NotImplementedError

    def prepare(self, item):
        text, seed = item
        return pedigree.parse_ped(text), em.EMConfig(q=Q, seed=seed, **self.config_kwargs)

    def properties(self, prepared):
        return cohort_properties(prepared[0])

    def run(self, prepared, tracer):
        families, config = prepared
        with tracer.span("em") as span:
            result = em.em_fit(families, config)
        span.value = result.iterations
        return result

    def check(self, prepared, result, full) -> Outcome:
        families, _ = prepared
        errors = _fit_errors(result, families)
        return Outcome([result.iterations], len(families), 1, int(bool(errors)), errors)


class TemplateFit(FitWorkload):
    """Simulated ten-member families: one structure group, curves exported."""

    def ped_text(self, seed):
        families, _ = simulate.simulate_families(self.n_families, BETA, Q, seed=seed)
        return pedigree.format_ped(families)

    def run(self, prepared, tracer):
        result = super().run(prepared, tracer)
        with tracer.span("survival.curve"):
            curves = {g: result.survival(g)(AGES) for g in ("pat", "mat")}
        return result, curves

    def check(self, prepared, outcome, full):
        result, curves = outcome
        out = super().check(prepared, result, full)
        for group, values in curves.items():
            if not (np.all(np.isfinite(values)) and np.all((values >= 0) & (values <= 1))
                    and np.all(np.diff(values) <= 0)):
                out.errors.append(f"{group} survival curve is not a survival function")
        out.failed = int(bool(out.errors))
        return out


class HeteroFit(FitWorkload):
    """Heterogeneous families, checked against brute-force enumeration."""

    def ped_text(self, seed):
        return generate_cohort(self.n_families, seed)

    def check(self, prepared, result, full):
        families, config = prepared
        out = super().check(prepared, result, full)
        if not full:
            return out
        params = ModelParams(
            q=config.q, beta=result.beta_hat, gamma=tuple(result.gamma_hat),
            epsilon=config.epsilon, eta=config.eta, baseline=result.baseline,
        )
        small = [
            (i, f) for i, f in enumerate(families) if len(f) <= BRUTE_MAX_MEMBERS
        ][:BRUTE_FAMILIES]
        if not small:
            out.errors.append(f"no family of at most {BRUTE_MAX_MEMBERS} members to check")
        for i, fam in small:
            brute = inference.brute_force_marginals(fam, params)
            exact = inference.posterior_marginals(fam, params)
            gap = float(np.max(np.abs(exact.marginals - brute.marginals)))
            fitted = result.weights[i]
            gap_fit = max(
                max(abs(fitted[k].w_pat - w.w_pat), abs(fitted[k].w_mat - w.w_mat),
                    abs(fitted[k].w_zero - w.w_zero))
                for k, w in brute.weights.items()
            )
            if max(gap, gap_fit) > BRUTE_TOL:
                out.errors.append(
                    f"family {fam.family_id}: posterior differs from brute force "
                    f"by {max(gap, gap_fit):.2e}"
                )
        out.failed = int(bool(out.errors))
        return out


class StudyCell:
    """One replicate-study cell: simulate and fit, many small fits."""

    op_span = "study.row"
    N_FAMILIES = 100
    SCENARIOS = ("S0", "S1", "S2", "Oracle")
    REPLICATES = 5
    attempts_per_pass = len(SCENARIOS) * REPLICATES
    #: Timed in every run: a study row is the operation ``fit_s`` measures,
    #: and ``replicate_study`` has no public per-row hook.
    boundaries = ((simulate, "_run_replicate", "study.row"),)

    def __init__(self, name, pool_size, why):
        self.name = name
        self.pool_size = pool_size
        self.why = why

    def inputs(self, seed):
        return [("", s) for s in _sub_seeds(seed, self.pool_size)]

    def prepare(self, item):
        return item[1]

    def properties(self, prepared):
        return {
            "families_per_fit": self.N_FAMILIES,
            "scenarios": list(self.SCENARIOS),
            "replicates": self.REPLICATES,
            "rows_per_study": self.attempts_per_pass,
            "jobs": 1,
            "pool_layer": "not measured: jobs=1, one fit at a time",
        }

    def run(self, study_seed, tracer):
        return simulate.replicate_study(
            [(self.N_FAMILIES, BETA)], self.SCENARIOS, self.REPLICATES, seed=study_seed, jobs=1
        )

    def check(self, study_seed, rows, full):
        out = Outcome(families=self.N_FAMILIES * len(rows), attempted=self.attempts_per_pass)
        if len(rows) != self.attempts_per_pass:
            out.failed += max(0, self.attempts_per_pass - len(rows))
            out.errors.append(
                f"study returned {len(rows)} rows, expected {self.attempts_per_pass}"
            )
        for row in rows:
            out.iterations.append(row.iterations)
            bad = row.error or not row.converged or not (
                math.isfinite(row.beta_hat) and math.isfinite(row.se)
            )
            if bad:
                out.failed += 1
                out.errors.append(
                    f"row {row.scenario}/{row.replicate}: error={row.error!r} "
                    f"converged={row.converged} beta_hat={row.beta_hat}"
                )
        return out


WORKLOADS = {
    w.name: w
    for w in (
        TemplateFit(
            "template_fit", 2000, 2, dict(epsilon=0.0, eta=0.0),
            "one structure group, so the E-step is already batched; the M-step "
            "and parse hold their largest shares",
        ),
        HeteroFit(
            "hetero_fit", 100, 8, dict(epsilon=0.01, eta=0.001),
            "almost every family has its own structure, so the E-step loops in "
            "Python over structure groups and cliques",
        ),
        StudyCell(
            "study_cell", 7,
            "many small fits where per-call and per-fit fixed costs and "
            "repeated simulation dominate",
        ),
    )
}
