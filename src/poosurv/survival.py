"""Weighted Cox proportional-hazards fitting and baseline hazard estimation.

The design matrix always carries the parent-of-origin indicator in its
first column (1 for paternal origin, 0 for maternal); any further columns
are ordinary covariates. Ties are handled with the Breslow convention,
which stays well defined when weights are fractional posterior
probabilities. Reported standard errors come from the inverse observed
information of the final weighted fit and ignore any uncertainty in the
weights themselves ("naive" errors); honest intervals are available via
the family bootstrap in :mod:`poosurv.em`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoxError",
    "RankDeficiencyError",
    "SingularInformationError",
    "MonotoneLikelihoodError",
    "ConvergenceError",
    "BaselineHazard",
    "CoxFit",
    "CoxProblem",
    "SurvivalCurve",
    "survival_curve",
    "wald_test",
]

# Tight enough that monotone-likelihood trajectories hit the coefficient
# bound before the score test declares convergence.
SCORE_TOL = 1e-9
LOGLIK_RTOL = 1e-10
MAX_NEWTON_STEPS = 50
MAX_HALVINGS = 40
COEF_BOUND = 20.0


class CoxError(RuntimeError):
    """Base class for failures of the weighted Cox fit."""


class RankDeficiencyError(CoxError):
    """A coefficient has no contrast in the data (e.g. single-group events)."""


class SingularInformationError(CoxError):
    """The observed information matrix is singular."""


class MonotoneLikelihoodError(CoxError):
    """The partial likelihood is monotone; a coefficient diverges."""


class ConvergenceError(CoxError):
    """Newton iterations failed to converge."""


class BaselineHazard:
    """Non-decreasing step function: cumulative hazard with jumps at event times.

    Lookups are right-continuous and extend flat beyond the last jump.
    """

    __slots__ = ("times", "increments", "_padded_cum")

    def __init__(self, times, increments):
        times = np.asarray(times, dtype=float)
        increments = np.asarray(increments, dtype=float)
        if times.shape != increments.shape or times.ndim != 1:
            raise ValueError("times and increments must be matching 1-d arrays")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if np.any(increments <= 0):
            raise ValueError("increments must be positive")
        self.times = times
        self.increments = increments
        self._padded_cum = np.concatenate(([0.0], np.cumsum(increments)))

    @classmethod
    def zero(cls) -> "BaselineHazard":
        return cls([], [])

    def cumulative(self, t):
        """Cumulative hazard at ``t`` (scalar or array)."""
        idx = np.searchsorted(self.times, t, side="right")
        out = self._padded_cum[idx]
        if np.isscalar(t):
            return float(out)
        return out

    def survival(self, t):
        """Baseline survival exp(-cumulative(t))."""
        return np.exp(-self.cumulative(t))

    def __len__(self):
        return self.times.size

    def __repr__(self):
        total = self._padded_cum[-1]
        return f"BaselineHazard(jumps={self.times.size}, total={total:.4g})"


@dataclass
class CoxFit:
    """Result of a weighted Cox fit.

    ``beta_hat`` is the parent-of-origin log hazard ratio (paternal versus
    maternal baseline); ``gamma_hat`` holds the covariate coefficients.
    """

    beta_hat: float
    gamma_hat: np.ndarray
    covariance: np.ndarray
    log_partial_likelihood: float
    n_iter: int
    baseline: BaselineHazard | None = field(default=None)

    @property
    def coefficients(self) -> np.ndarray:
        return np.concatenate(([self.beta_hat], self.gamma_hat))

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


class CoxProblem:
    """Pre-sorted design for repeated weighted partial-likelihood work.

    Sorting and risk-set bookkeeping depend only on (time, status, X), so an
    instance can be evaluated many times with different weight vectors; the
    EM loop exploits this.
    """

    def __init__(self, time, status, covariates):
        time = np.asarray(time, dtype=float)
        status = np.asarray(status, dtype=int)
        X = np.asarray(covariates, dtype=float)
        if X.ndim != 2:
            raise ValueError("covariates must be 2-d (rows x coefficients)")
        n, p = X.shape
        if time.shape != (n,) or status.shape != (n,):
            raise ValueError("time, status, covariates have mismatched lengths")
        self.n = n
        self.p = p
        # Descending time, stable: risk set at any event time is a prefix.
        order = np.lexsort((np.arange(n), -time))
        self._order = order
        self._time = time[order]
        self._status = status[order]
        self._X = X[order]
        self._Xouter = self._X[:, :, None] * self._X[:, None, :]
        if n:
            changed = np.concatenate(([True], self._time[1:] != self._time[:-1]))
            self._starts = np.flatnonzero(changed)
            self._ends = np.concatenate((self._starts[1:], [n])) - 1
        else:
            self._starts = np.empty(0, dtype=int)
            self._ends = np.empty(0, dtype=int)
        self._block_times = self._time[self._starts] if n else np.empty(0)

    def evaluate(self, coefs, weights):
        """Weighted partial log-likelihood with its score and information."""
        coefs = np.asarray(coefs, dtype=float)
        w = np.asarray(weights, dtype=float)[self._order]
        eta = self._X @ coefs
        shift = eta.max() if eta.size else 0.0  # loglik is invariant to this
        r = w * np.exp(eta - shift)
        cum0 = np.cumsum(r)
        cum1 = np.cumsum(r[:, None] * self._X, axis=0)
        cum2 = np.cumsum(r[:, None, None] * self._Xouter, axis=0)
        ew = w * self._status
        d = np.add.reduceat(ew, self._starts) if self._starts.size else np.empty(0)
        sx = (
            np.add.reduceat(ew[:, None] * self._X, self._starts, axis=0)
            if self._starts.size
            else np.empty((0, self.p))
        )
        keep = d > 0
        s0 = cum0[self._ends][keep]
        s1 = cum1[self._ends][keep]
        s2 = cum2[self._ends][keep]
        d = d[keep]
        sx = sx[keep]

        loglik = float((ew * (eta - shift)).sum() - (d * np.log(s0)).sum())
        xbar = s1 / s0[:, None]
        score = (sx - d[:, None] * xbar).sum(axis=0)
        info = (
            d[:, None, None]
            * (s2 / s0[:, None, None] - xbar[:, :, None] * xbar[:, None, :])
        ).sum(axis=0)
        return loglik, score, info

    def _check_rank(self, weights):
        w = np.asarray(weights, dtype=float)[self._order]
        events = (self._status == 1) & (w > 0)
        if not events.any():
            raise RankDeficiencyError("no events with positive weight")
        if self.p and not (
            events[self._X[:, 0] == 1.0].any() and events[self._X[:, 0] == 0.0].any()
        ):
            raise RankDeficiencyError(
                "events with positive weight exist in only one parent-of-origin "
                "group; the origin effect is inestimable"
            )

    def fit(self, weights, init=None):
        """Newton maximization; returns (coefficients, covariance, loglik, steps).

        Raises :class:`RankDeficiencyError` when positively weighted events
        exist in only one origin group, :class:`MonotoneLikelihoodError` on
        coefficient divergence, :class:`SingularInformationError` on a
        singular information matrix, and :class:`ConvergenceError` when
        Newton fails to converge.
        """
        self._check_rank(weights)
        coefs = np.zeros(self.p) if init is None else np.asarray(init, dtype=float).copy()
        loglik, score, info = self.evaluate(coefs, weights)
        n_steps = 0
        converged = np.max(np.abs(score)) < SCORE_TOL
        while not converged:
            if n_steps >= MAX_NEWTON_STEPS:
                raise ConvergenceError(
                    f"no convergence after {MAX_NEWTON_STEPS} Newton steps"
                )
            try:
                direction = np.linalg.solve(info, score)
            except np.linalg.LinAlgError:
                raise SingularInformationError("information matrix is singular") from None
            step = 1.0
            for _ in range(MAX_HALVINGS):
                candidate = coefs + step * direction
                cand_ll, cand_score, cand_info = self.evaluate(candidate, weights)
                # Relative slack: an absolute one is below an ulp of a large
                # log-likelihood, and rounding noise would pick the step.
                if cand_ll >= loglik - 1e-12 * (abs(loglik) + 1.0):
                    break
                step /= 2.0
            else:
                raise ConvergenceError("step halving failed to improve the likelihood")
            n_steps += 1
            if np.max(np.abs(candidate)) > COEF_BOUND:
                raise MonotoneLikelihoodError(
                    f"coefficient magnitude exceeded {COEF_BOUND}; the partial "
                    "likelihood appears monotone"
                )
            rel_change = abs(cand_ll - loglik) / (abs(loglik) + 1.0)
            coefs, loglik, score, info = candidate, cand_ll, cand_score, cand_info
            if np.max(np.abs(score)) < SCORE_TOL or rel_change < LOGLIK_RTOL:
                converged = True
        try:
            covariance = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            raise SingularInformationError("information matrix is singular") from None
        return coefs, covariance, loglik, n_steps

    def breslow(self, weights, coefs) -> BaselineHazard:
        """Weighted Breslow estimate of the cumulative baseline hazard.

        At each distinct event time the jump equals the summed event weight
        divided by the weighted risk-set total of exp(linear predictor);
        zero-weight rows contribute nothing.
        """
        coefs = np.asarray(coefs, dtype=float)
        w = np.asarray(weights, dtype=float)[self._order]
        r = w * np.exp(self._X @ coefs)
        cum0 = np.cumsum(r)
        ew = w * self._status
        d = np.add.reduceat(ew, self._starts) if self._starts.size else np.empty(0)
        keep = d > 0
        s0 = cum0[self._ends][keep]
        times = self._block_times[keep]
        increments = d[keep] / s0
        # blocks are in descending time order
        return BaselineHazard(times[::-1], increments[::-1])


class SurvivalCurve:
    """Step-function survival curve S(t) = exp(-Lambda0(t) * risk)."""

    def __init__(self, baseline: BaselineHazard, log_risk: float):
        self.baseline = baseline
        self.log_risk = float(log_risk)

    def __call__(self, t):
        return np.exp(-self.baseline.cumulative(t) * np.exp(self.log_risk))


def survival_curve(baseline, beta=0.0, gamma=(), group="mat", z=()) -> SurvivalCurve:
    """Survival curve for one origin group at covariate values ``z``.

    The maternal-origin group is the baseline; the paternal group is scaled
    by exp(beta).
    """
    if group not in ("pat", "mat"):
        raise ValueError(f"group must be 'pat' or 'mat', got {group!r}")
    gamma = np.asarray(gamma, dtype=float)
    z = np.asarray(z, dtype=float)
    if gamma.shape != z.shape:
        raise ValueError("gamma and z must have matching lengths")
    log_risk = beta if group == "pat" else 0.0
    if gamma.size:
        log_risk += float(z @ gamma)
    return SurvivalCurve(baseline, log_risk)


def wald_test(fit: CoxFit, index: int = 0) -> tuple[float, float]:
    """Wald z statistic and two-sided p-value for one coefficient.

    ``index`` addresses the combined coefficient vector: 0 is the
    parent-of-origin effect, 1.. the covariates.
    """
    variance = fit.covariance[index, index]
    if variance <= 0:
        raise ValueError(f"coefficient {index} has zero variance")
    z = fit.coefficients[index] / np.sqrt(variance)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return float(z), float(p)
