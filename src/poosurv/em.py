"""EM loop: posterior genotype weights alternating with weighted Cox fits.

Each iteration runs the M-step first (the initial weights are random, so no
baseline hazard exists before the first fit): a weighted Cox fit on the
individuals' records, each weighted twice, by its current posterior mass
of a paternal-origin and of a maternal-origin mutation, followed by a
weighted Breslow baseline. The E-step then recomputes every individual's
posterior genotype weights by exact pedigree inference under the updated
parameters. Iterations stop when the baseline survival probabilities at a
fixed set of test ages move less than the tolerance.

:func:`_em` is the one EM loop. It runs on a :class:`_Model`, a family list
compiled once for a config's fixed constants, with a count for each family:
``em_fit`` counts every family once, and each bootstrap replicate counts the
families as often as it drew them. Suppressed phenotypes and genotype pins
are record data, set before the fit (see :mod:`poosurv.pedigree`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .genetics import DEFAULT_EPSILON, DEFAULT_ETA, origin_weights
from .inference import InferenceError, MarginalEngine, PosteriorWeights, family_weights
from .pedigree import Pedigree
from .survival import BaselineHazard, CoxError, CoxProblem, survival_curve

__all__ = [
    "EMError",
    "EMConfig",
    "EMIteration",
    "EMTrace",
    "FitResult",
    "BootstrapReplicate",
    "em_fit",
    "bootstrap_em",
]

LOG_LIKELIHOOD_SLACK = 1e-6

#: Consecutive below-``tol`` iterations that declare convergence; the window
#: guards against stopping on a transient plateau and tightens the final
#: estimate at negligible cost.
STABLE_WINDOW = 3


class EMError(RuntimeError):
    """EM orchestration failure (carries the failing iteration in the message)."""


@dataclass(frozen=True)
class EMConfig:
    """Fixed constants and knobs of one EM run.

    ``q``, ``epsilon``, and ``eta`` are treated as known; ``q`` must lie
    strictly between 0 and 1, since at either end the origin effect has no
    carriers or no non-carriers to contrast. Convergence is
    declared when the baseline survival at every ``test_ages`` entry changes
    by less than ``tol`` for ``STABLE_WINDOW`` consecutive iterations.
    """

    q: float
    epsilon: float = DEFAULT_EPSILON
    eta: float = DEFAULT_ETA
    test_ages: tuple[float, ...] = (20.0, 40.0, 60.0, 80.0)
    tol: float = 3e-4
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"allele frequency q must be in (0, 1), got {self.q}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        ages = tuple(float(a) for a in self.test_ages)
        if not all(map(math.isfinite, ages)):
            raise ValueError(f"test_ages must be finite, got {ages}")
        if not ages or any(b <= a for a, b in zip(ages, ages[1:])):
            raise ValueError("test_ages must be non-empty and increasing")
        object.__setattr__(self, "test_ages", ages)
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class EMIteration:
    """One row of the EM trace.

    ``log_evidence`` is the E-step's log evidence, which leaves out the
    genotype-independent baseline hazard jump of every affected individual;
    each family's term is weighted by its count (see :func:`_em`).
    ``log_likelihood`` adds those jumps back, weighted the same way: it is
    the observed-data log likelihood of the iteration's parameters, which
    EM never decreases.
    """

    index: int
    beta: float
    gamma: tuple[float, ...]
    survival: tuple[float, ...]
    log_evidence: float
    log_likelihood: float
    max_change: float


@dataclass
class EMTrace:
    iterations: list[EMIteration] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def __len__(self):
        return len(self.iterations)


@dataclass
class FitResult:
    """Final state of an EM run.

    ``beta_hat``, ``gamma_hat``, ``covariance`` and ``baseline`` come from
    the last M-step: the parent-of-origin log hazard ratio (paternal versus
    maternal), the covariate effects, the covariance of
    ``(beta_hat, *gamma_hat)`` (the inverse observed information of that
    weighted Cox fit, which ignores the uncertainty of the weights) and the
    Breslow baseline hazard. ``std_errors`` are the "naive" standard errors
    from ``covariance``; :func:`poosurv.survival.wald_test` takes an
    estimate and its variance, such as ``covariance[0, 0]``, and the family
    bootstrap gives honest intervals.

    ``marginals`` is the last E-step's read-only (records, 4) posterior
    table, in the record order of ``families``, the fitted family list.
    ``weights`` holds one mapping per family (individual id to posterior
    weight triple); it is built from ``marginals`` on first access, since
    no fit needs it. ``converged`` is False when ``max_iter`` was
    exhausted; the result is still usable.
    """

    beta_hat: float
    gamma_hat: np.ndarray
    covariance: np.ndarray
    baseline: BaselineHazard
    trace: EMTrace
    converged: bool
    marginals: np.ndarray = field(repr=False)
    families: list[Pedigree] = field(repr=False)

    @cached_property
    def weights(self) -> list[dict[str, PosteriorWeights]]:
        return family_weights(self.families, self.marginals)

    @property
    def std_errors(self) -> np.ndarray:
        """Square roots of the ``covariance`` diagonal, in its order."""
        return np.sqrt(np.diag(self.covariance))

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def survival(self, group: str = "mat", z=()):
        """Fitted survival curve for one origin group at covariates ``z``."""
        return survival_curve(
            self.baseline, self.beta_hat, tuple(self.gamma_hat), group=group, z=z
        )


@dataclass
class BootstrapReplicate:
    beta_hat: float
    gamma_hat: tuple[float, ...]
    baseline: BaselineHazard | None
    converged: bool
    error: str | None = None


class _Model:
    """A family list compiled once for any number of EM runs: the E-step
    engine compiled at ``config``'s (q, epsilon, eta), the M-step's
    :class:`CoxProblem` on the records at index ``rows`` (those whose
    phenotype is not suppressed), the family sizes, and the record index and
    age of each affected one of them."""

    def __init__(self, families, config: EMConfig):
        families = list(families)
        if not families:
            raise ValueError("no families to fit")
        engine = self.engine = MarginalEngine(families, config.q, config.epsilon, config.eta)
        self.rows = np.flatnonzero(~engine.suppressed)
        ages, statuses = engine.ages[self.rows], engine.statuses[self.rows]
        self.problem = CoxProblem(ages, statuses, engine.covariates[self.rows])
        self.sizes = np.array([len(fam) for fam in families])
        affected = statuses == 1
        self.affected_records = self.rows[affected]
        self.affected_ages = ages[affected]


def _em(model: _Model, config: EMConfig, draws) -> FitResult:
    """The EM loop, on the model's families as often as ``draws`` names each.

    ``em_fit`` draws every family once; a bootstrap replicate draws a
    resample. A family drawn c times weighs c times in the M-step weights and
    in the log-likelihood, as c copies of it would, and the random start
    is the one a fit of the drawn list would take. ``config`` gives the
    seed and the stopping rule; its ``q``, ``epsilon`` and ``eta`` are the
    model's. ``draws=None`` is ``em_fit``'s draw: every family once, in order.
    """
    engine, problem, rows = model.engine, model.problem, model.rows
    n = model.sizes.size
    family_counts = np.ones(n, dtype=np.intp) if draws is None else np.bincount(draws, minlength=n)
    record_counts = np.repeat(family_counts, model.sizes)

    # One uniform row per drawn record in draw order, summed into the
    # original records. For em_fit's draw that sum is the uniform table
    # itself (0.0 + u is u); a draw that takes every family once in another
    # order still needs the sum.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    if draws is None:
        start = rng.uniform(size=(engine.total, 3))
        start /= start.sum(axis=1, keepdims=True)
    else:
        drawn_sizes = model.sizes[draws]
        first_of_draw = np.cumsum(drawn_sizes) - drawn_sizes
        drawn_records = np.arange(drawn_sizes.sum()) + np.repeat(
            np.asarray(engine.offsets)[draws] - first_of_draw, drawn_sizes
        )
        u = rng.uniform(size=(drawn_records.size, 3))
        u /= u.sum(axis=1, keepdims=True)
        start = np.zeros((engine.total, 3))
        np.add.at(start, drawn_records, u)
    # The M-step's weight table: each record's paternal-origin weight in
    # row 0, its maternal-origin weight in row 1; non-carrier mass has none.
    weights = np.stack((start[rows, 0], start[rows, 1]))
    # Later tables come straight from the marginals when every record is
    # fitted. The tables, the log evidence and the jump terms are weighed by
    # the counts only when some family is not drawn once, as in a bootstrap
    # replicate: 1 * x is x.
    every_record = rows.size == engine.total
    counts = record_counts[rows] if (family_counts != 1).any() else None

    # Every drawn affected age is a Breslow jump time, since affected records
    # never lose their carrier mass, and there are no others: the jump grid
    # is fixed for the run (each baseline is checked against it), and so
    # are the places of the records and of the test ages on it, found here.
    event_counts = record_counts[model.affected_records]
    event_times = model.affected_ages[event_counts > 0]
    event_counts = event_counts[event_counts > 0]
    jump_grid = np.unique(event_times)
    jump_of_event = np.searchsorted(jump_grid, event_times)
    positions = np.searchsorted(jump_grid, engine.ages, side="right")
    test_positions = np.searchsorted(jump_grid, config.test_ages, side="right")

    trace = EMTrace()
    coefs = np.zeros(problem.p)
    prev_survival = None
    prev_log_likelihood = None
    marginals = None
    converged = False
    below_tol_streak = 0
    for iteration in range(1, config.max_iter + 1):
        try:
            coefs, covariance, _, _ = problem.fit(weights, init=coefs)
            baseline = problem.breslow(weights, coefs)
        except CoxError as err:
            raise EMError(f"M-step failed at iteration {iteration}: {err}") from err
        if not np.array_equal(baseline.times, jump_grid):
            raise EMError(
                f"iteration {iteration}: the Breslow jump times are not the "
                "affected ages; an affected record lost its carrier mass"
            )
        # a handful of floats: the change below is cheaper on them than on arrays
        survival = np.exp(-baseline.cumulative_at(test_positions)).tolist()

        marginals, log_evidence_fam = engine.run(
            coefs[0], coefs[1:], baseline.cumulative_at(positions)
        )
        weights = origin_weights(marginals if every_record else marginals.take(rows, axis=0))
        log_jumps = np.log(baseline.increments[jump_of_event])
        if counts is not None:
            weights *= counts
            log_evidence_fam = family_counts * log_evidence_fam
            log_jumps *= event_counts
        log_evidence = float(log_evidence_fam.sum())
        log_likelihood = log_evidence + float(log_jumps.sum())

        change = (
            max(abs(now - before) for now, before in zip(survival, prev_survival))
            if prev_survival is not None
            else float("inf")
        )
        trace.iterations.append(
            EMIteration(
                index=iteration,
                beta=float(coefs[0]),
                gamma=tuple(coefs[1:]),
                survival=tuple(survival),
                log_evidence=log_evidence,
                log_likelihood=log_likelihood,
                max_change=change,
            )
        )
        if (
            prev_log_likelihood is not None
            and log_likelihood < prev_log_likelihood - LOG_LIKELIHOOD_SLACK
        ):
            trace.warnings.append(
                "log-likelihood decreased by "
                f"{prev_log_likelihood - log_likelihood:.3e} at iteration {iteration}"
            )
        prev_log_likelihood = log_likelihood
        prev_survival = survival
        below_tol_streak = below_tol_streak + 1 if change < config.tol else 0
        if below_tol_streak >= STABLE_WINDOW:
            converged = True
            break

    marginals.setflags(write=False)
    return FitResult(
        beta_hat=float(coefs[0]), gamma_hat=coefs[1:], covariance=covariance,
        baseline=baseline, trace=trace, converged=converged, marginals=marginals,
        families=engine.families,
    )


def em_fit(families, config: EMConfig) -> FitResult:
    """Estimate the origin effect, covariate effects, and baseline hazard.

    Records with a ``genotype_pin`` (see :func:`pedigree.pin_genotypes`)
    are restricted to the pinned states. Deterministic given (families,
    config).
    """
    model = _Model(families, config)
    return _em(model, config, None)


def _fan_out(fn, tasks, jobs):
    """``[fn(task) for task in tasks]``, run one task at a time in at most
    ``jobs`` worker processes, never more than there are tasks; results
    keep the order of ``tasks``."""
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks, chunksize=1))
    return [fn(task) for task in tasks]


def _bootstrap_one(model, config, replicate_index):
    seed_seq = np.random.SeedSequence((config.seed, replicate_index))
    resample_seed, em_seed = seed_seq.spawn(2)
    n = model.sizes.size
    draws = np.random.Generator(np.random.Philox(resample_seed)).integers(0, n, size=n)
    rep_config = replace(config, seed=int(em_seed.generate_state(1)[0]))
    try:
        fit = _em(model, rep_config, draws)
    except (EMError, InferenceError) as err:
        return BootstrapReplicate(float("nan"), (), None, False, error=str(err))
    return BootstrapReplicate(fit.beta_hat, tuple(fit.gamma_hat), fit.baseline, fit.converged)


def _bootstrap_chunk(args):
    families, config, replicates = args
    model = _Model(families, config)
    return [_bootstrap_one(model, config, r) for r in replicates]


def bootstrap_em(families, config: EMConfig, B: int = 200,
                 jobs: int = 1) -> list[BootstrapReplicate]:
    """Family-level nonparametric bootstrap of the full EM fit.

    Each replicate resamples the families with replacement and reruns the
    whole EM; percentile intervals over the replicates give the uncertainty
    of the origin effect and the survival curves that the naive standard
    errors leave out. Their coverage falls a few points short of nominal:
    over 200 simulated cohorts of 200 families per scenario, at B = 100,
    the 95% percentile interval of beta covered the truth in 0.93, 0.92
    and 0.90 of the cohorts under S0, S1 and S2, and that of the maternal
    survival at age 60 in 0.90, 0.91 and 0.90, where the naive Wald
    interval of beta covered 0.61 to 0.77. A replicate
    runs on the fit's own compiled families, counting each as often as it
    was drawn, so it keeps their genotype pins and suppressed phenotypes and
    needs no table the fit did not. Each replicate uses an independent
    deterministic substream, and ``range(B)`` is split into contiguous
    chunks, one compiled model per worker, so results do not depend on
    ``jobs``.
    """
    if B < 1:
        raise ValueError("need at least one bootstrap replicate")
    families = list(families)
    chunks = min(jobs, B)
    tasks = [(families, config, range(B * i // chunks, B * (i + 1) // chunks))
             for i in range(chunks)]
    return [rep for done in _fan_out(_bootstrap_chunk, tasks, jobs) for rep in done]
