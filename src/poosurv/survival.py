"""Weighted Cox proportional-hazards fitting and baseline hazard estimation.

The M-step's data are records with a time, a status, covariates ``z`` and
two weights, the posterior masses of a paternal-origin and a
maternal-origin mutation: a weighted row ``(1, z)`` and a weighted row
``(0, z)`` of one Cox model whose first coefficient is the origin effect.
Ties are handled with the Breslow convention, which stays well defined when
weights are fractional posterior probabilities.

With origin effect ``beta`` and covariate effects ``gamma``, the weighted
risk-set total at an event time is ``exp(beta) * A + B``, where ``A`` and
``B`` sum ``w exp(z gamma)`` over the paternal and the maternal weights of
the records at risk; the first and second moments split the same way.
:class:`CoxProblem` computes these origin-split sums at the event times
only, once per weight table and ``gamma``. Without covariates they are
computed once per weight table, and every Newton evaluation and the Breslow
estimate then cost O(events) rather than O(records).

:meth:`CoxProblem.fit` returns the coefficients with their covariance, the
inverse observed information of the weighted fit. An EM fit keeps the last
one as :attr:`poosurv.em.FitResult.covariance`, and its
:attr:`~poosurv.em.FitResult.std_errors` ignore any uncertainty in the
weights themselves ("naive" errors); honest intervals are available via the
family bootstrap in :mod:`poosurv.em`. :func:`wald_test` turns one estimate
and its variance into a z statistic and a two-sided p-value.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CoxError",
    "RankDeficiencyError",
    "SingularInformationError",
    "MonotoneLikelihoodError",
    "ConvergenceError",
    "BaselineHazard",
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
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(increments))):
            raise ValueError("jump times and increments must be finite")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if np.any(increments <= 0):
            raise ValueError("increments must be positive")
        self.times = times
        self.increments = increments
        self._padded_cum = np.concatenate(([0.0], np.cumsum(increments)))

    def cumulative(self, t):
        """Cumulative hazard at ``t`` (scalar or array)."""
        out = self.cumulative_at(self.grid_positions(t))
        if np.isscalar(t):
            return float(out)
        return out

    def grid_positions(self, t):
        """Position of ``t`` on the jump grid: the number of jumps at or before it."""
        return np.searchsorted(self.times, t, side="right")

    def cumulative_at(self, positions):
        """Cumulative hazard at jump-grid ``positions`` from :meth:`grid_positions`."""
        return self._padded_cum[positions]

    def survival(self, t):
        """Baseline survival exp(-cumulative(t))."""
        return np.exp(-self.cumulative(t))

    def __len__(self):
        return self.times.size

    def __repr__(self):
        total = self._padded_cum[-1]
        return f"BaselineHazard(jumps={self.times.size}, total={total:.4g})"


class CoxProblem:
    """Indexed records for repeated weighted partial-likelihood work.

    Each record has a time, a status and covariates ``z`` (one row of the
    ``(n, k)`` array, ``k`` possibly 0). The weights of every call are a
    ``(2, n)`` table: row 0 holds each record's paternal-origin weight,
    row 1 its maternal-origin weight. Construction sorts the times once,
    numbers the event blocks (the distinct event times) and gives every
    record its segment of the origin-split risk sums. Everything after that
    is cached on content, never on object identity, and recomputed only
    when its inputs change:

    - per weight table: each event block's summed event weight and the
      weighted event total of every coefficient's column;
    - per weight table and covariate coefficients ``gamma``: the risk sums
      at the event blocks of positive weight, split by origin: the prefix
      sums of ``w exp(z gamma)`` times ``(1, z)`` and its outer product over
      the paternal weights at risk, and the same over the maternal weights.

    A partial-likelihood evaluation, a Newton step or a Breslow estimate
    then combines the two origins' sums with ``exp(beta)`` in
    O(events * p**2), where ``p = 1 + k`` counts ``beta`` and ``gamma``.
    Without covariates ``gamma`` is empty, so the risk sums are built once
    per weight table; the EM loop exploits this.
    """

    def __init__(self, time, status, covariates):
        time = np.asarray(time, dtype=float)
        status = np.asarray(status, dtype=int)
        Z = np.asarray(covariates, dtype=float)
        if Z.ndim != 2:
            raise ValueError("covariates must be 2-d (records x covariates)")
        n, k = Z.shape
        if time.shape != (n,) or status.shape != (n,):
            raise ValueError("time, status, covariates have mismatched lengths")
        if not np.all((status == 0) | (status == 1)):
            raise ValueError("status must be 0 (censored) or 1 (event)")
        self.n = n
        self.p = p = 1 + k
        # Event blocks are numbered from the latest time. A record is at risk
        # at every event time up to its own, so it enters the prefix sums at
        # its segment: the number of event times after it. Records before
        # every event time fall into a spare last segment. All sums below
        # run in weight-table order (every paternal weight, then every
        # maternal one), so the order of tied times in the sort cannot
        # change a result.
        order = np.argsort(time)
        sorted_time = time[order]
        new_time = np.ones(n, dtype=bool)
        new_time[1:] = sorted_time[1:] != sorted_time[:-1]
        block = np.cumsum(new_time) - 1
        has_event = np.zeros(int(new_time.sum()), dtype=bool)
        has_event[block[status[order] == 1]] = True
        events_up_to = np.cumsum(has_event)
        self._blocks = int(events_up_to[-1]) if n else 0
        segment = np.empty(n, dtype=np.intp)
        segment[order] = self._blocks - events_up_to[block]
        self._event_times = sorted_time[new_time][has_event][::-1]
        events = np.flatnonzero(status == 1)
        # The event records' places in the flattened weight table and their
        # design, both paternal over maternal: rows (1, z) over rows (0, z).
        self._event_weights = np.concatenate((events, events + n))
        self._event_block = np.tile(segment[events], 2)
        self._event_X = np.column_stack(
            (np.repeat([1.0, 0.0], events.size), np.tile(Z[events], (2, 1)))
        )
        # Each weight's bin of the risk sums: paternal segments, then maternal.
        self._risk_bin = np.concatenate((segment, segment + self._blocks + 1))
        self._Z = Z
        v = np.column_stack((np.ones(n), Z))
        self._moments = (v[:, :, None] * v[:, None, :]).reshape(n, p * p).T.copy()
        self._weights = None
        self._gamma = None

    def _prepare(self, weights, gamma):
        """Bring the per-weights and per-gamma caches up to date."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (2, self.n):
            raise ValueError(f"weights must have shape (2, {self.n}), got {w.shape}")
        if self._weights is None or not np.array_equal(w, self._weights):
            self._weights = w.copy()
            self._gamma = None
            w_event = w.ravel()[self._event_weights]
            d = np.bincount(self._event_block, weights=w_event, minlength=self._blocks)
            self._kept = np.flatnonzero(d > 0)
            self._d = d[self._kept]
            self._d_total = float(self._d.sum())
            self._event_sum = w_event @ self._event_X
            self._w_event = w_event.reshape(2, -1)
        if self._gamma is None or not np.array_equal(gamma, self._gamma):
            self._gamma = gamma.copy()
            u, self._gamma_shift = self._weights, 0.0
            if gamma.size and self.n:
                linear = self._Z @ gamma
                # exp(z gamma - shift) cannot overflow
                self._gamma_shift = float(linear.max())
                u = u * np.exp(linear - self._gamma_shift)
            segments = self._blocks + 1
            sums = np.stack([
                np.bincount(self._risk_bin, weights=(u * moment).ravel(),
                            minlength=2 * segments)
                for moment in self._moments
            ]).reshape(self.p, self.p, 2, segments)
            sums = np.take(np.cumsum(sums, axis=-1), self._kept, axis=-1)
            self._pat_sums, mat = np.moveaxis(sums, (0, 1), (-2, -1))
            # A maternal weight's design vector is (0, z): its first and
            # second moments drop the entries of (1, z) that hold the leading 1.
            mat1 = mat[:, 0, :].copy()
            mat1[:, 0] = 0.0
            mat2 = mat.copy()
            mat2[:, 0, :] = mat2[:, :, 0] = 0.0
            self._mat_sums = (mat[:, 0, 0], mat1, mat2)

    def _risk(self, beta):
        """Risk-set sums S0, S1, S2 at the weighted event blocks, scaled.

        Returns them with ``log_scale``: the true sums are the returned ones
        times exp(log_scale). The shift ``max(beta, 0)`` inside it keeps
        every exponential here from overflowing.
        """
        shift = max(float(beta), 0.0)
        pat, mat = math.exp(beta - shift), math.exp(-shift)
        mat0, mat1, mat2 = self._mat_sums
        s0 = pat * self._pat_sums[:, 0, 0] + mat * mat0
        s1 = pat * self._pat_sums[:, 0, :] + mat * mat1
        s2 = pat * self._pat_sums + mat * mat2
        return s0, s1, s2, shift + self._gamma_shift

    def evaluate(self, coefs, weights):
        """Weighted partial log-likelihood with its score and information."""
        coefs = np.asarray(coefs, dtype=float)
        self._prepare(weights, coefs[1:])
        s0, s1, s2, log_scale = self._risk(coefs[0])
        d = self._d
        loglik = float(
            self._event_sum @ coefs - d @ np.log(s0) - self._d_total * log_scale
        )
        xbar = s1 / s0[:, None]
        score = self._event_sum - d @ xbar
        info = (
            d[:, None, None]
            * (s2 / s0[:, None, None] - xbar[:, :, None] * xbar[:, None, :])
        ).sum(axis=0)
        return loglik, score, info

    def _check_rank(self):
        pat, mat = (self._w_event > 0).any(axis=1)
        if not (pat or mat):
            raise RankDeficiencyError("no events with positive weight")
        if not (pat and mat):
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
        coefs = np.zeros(self.p) if init is None else np.asarray(init, dtype=float).copy()
        self._prepare(weights, coefs[1:])
        self._check_rank()
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
                # An overshooting step can underflow a risk sum to 0; its -inf
                # or NaN log-likelihood fails the test below and is halved.
                with np.errstate(divide="ignore", invalid="ignore"):
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
        zero weights contribute nothing.
        """
        coefs = np.asarray(coefs, dtype=float)
        self._prepare(weights, coefs[1:])
        s0, _, _, log_scale = self._risk(coefs[0])
        increments = self._d / (s0 * math.exp(log_scale))
        # event blocks are in descending time order
        return BaselineHazard(self._event_times[self._kept][::-1], increments[::-1])


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
    if not (math.isfinite(beta) and np.all(np.isfinite(gamma)) and np.all(np.isfinite(z))):
        raise ValueError("beta, gamma and z must be finite")
    log_risk = beta if group == "pat" else 0.0
    if gamma.size:
        log_risk += float(z @ gamma)
    return SurvivalCurve(baseline, log_risk)


def wald_test(estimate: float, variance: float) -> tuple[float, float]:
    """Wald z statistic and two-sided p-value of one estimate and its variance.

    For the origin effect of an EM fit this is
    ``wald_test(result.beta_hat, result.covariance[0, 0])``; any other
    variance of the estimate, a profile-likelihood one say, fits the same
    way. A variance that is not positive raises ``ValueError``.
    """
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    z = estimate / np.sqrt(variance)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return float(z), float(p)
