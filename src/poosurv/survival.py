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
:class:`CoxProblem` validates and prepares a weight table once, with
O(records) work, and then runs one of two arms. Without covariates, as in
the paper's simulated fits, it sums ``A`` and ``B`` at the event times with
the table, and Newton runs on a float ``beta``: an evaluation is a handful
of O(event times) vector operations (about 11 us at 166 event times on one
Xeon core, against 21 us for the array arm's evaluation of the same
problem). With covariates it sums ``A``, ``B`` and their covariate moments
once per table and ``gamma``, and an evaluation costs O(event times * p**2)
on arrays, ``p`` coefficients. Both arms give the bits of the general
formulas, and the Breslow estimate at the fitted coefficients reuses the
last evaluation's risk totals.

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

from .genetics import _check_beta

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
        if not (np.isfinite(times).all() and np.isfinite(increments).all()):
            raise ValueError("jump times and increments must be finite")
        if (times[1:] <= times[:-1]).any():
            raise ValueError("jump times must be strictly increasing")
        if (increments <= 0).any():
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

    def __len__(self):
        return self.times.size

    def __repr__(self):
        total = self._padded_cum[-1]
        return f"BaselineHazard(jumps={self.times.size}, total={total:.4g})"


def _pivot(info):
    """A 1 x 1 information as a float; a zero or non-finite one is singular."""
    if info == 0.0 or not math.isfinite(info):
        raise SingularInformationError("information matrix is singular")
    return float(info)


def _solve(info, rhs=None):
    """``info``'s inverse times ``rhs``, or the inverse itself without ``rhs``."""
    try:
        return np.linalg.inv(info) if rhs is None else np.linalg.solve(info, rhs)
    except np.linalg.LinAlgError:
        raise SingularInformationError("information matrix is singular") from None


def _largest(values):
    return np.abs(values).max()


def _float_direction(info, score):
    return score / _pivot(info)


def _newton(evaluate, coefs, largest=_largest, direction_of=_solve):
    """Newton maximization from ``coefs``; returns (coefficients, information,
    loglik, steps).

    ``evaluate`` maps coefficients to (loglik, score, information). The
    coefficients are an array, or a float with ``largest=abs`` and
    ``direction_of=_float_direction``: the same arithmetic either way.
    """
    loglik, score, info = evaluate(coefs)
    n_steps = 0
    converged = largest(score) < SCORE_TOL
    # An overshooting step can underflow a risk sum to 0; its -inf or
    # NaN log-likelihood fails the step test below and is halved.
    with np.errstate(divide="ignore", invalid="ignore"):
        while not converged:
            if n_steps >= MAX_NEWTON_STEPS:
                raise ConvergenceError(f"no convergence after {n_steps} Newton steps")
            direction = direction_of(info, score)
            step = 1.0
            for _ in range(MAX_HALVINGS):
                candidate = coefs + step * direction
                cand_ll, cand_score, cand_info = evaluate(candidate)
                # Relative slack: an absolute one is below an ulp of a large
                # log-likelihood, and rounding noise would pick the step.
                if cand_ll >= loglik - 1e-12 * (abs(loglik) + 1.0):
                    break
                step /= 2.0
            else:
                raise ConvergenceError("step halving failed to improve the likelihood")
            n_steps += 1
            if largest(candidate) > COEF_BOUND:
                raise MonotoneLikelihoodError(
                    f"coefficient magnitude exceeded {COEF_BOUND}; the partial "
                    "likelihood appears monotone"
                )
            rel_change = abs(cand_ll - loglik) / (abs(loglik) + 1.0)
            coefs, loglik, score, info = candidate, cand_ll, cand_score, cand_info
            converged = largest(score) < SCORE_TOL or rel_change < LOGLIK_RTOL
    return coefs, info, loglik, n_steps


class CoxProblem:
    """Indexed records for repeated weighted partial-likelihood work.

    Each record has a time, a status and covariates ``z`` (one row of the
    ``(n, k)`` array, ``k`` possibly 0). The weights of every call are a
    ``(2, n)`` table: row 0 holds each record's paternal-origin weight,
    row 1 its maternal-origin weight. Construction refuses a non-finite
    time or covariate and a status other than 0 or 1 with ``ValueError``,
    sorts the times once, numbers the event blocks (the distinct event
    times) and gives every record its segment of the origin-split risk sums.

    A new table is validated (a negative or non-finite weight raises
    ``ValueError``) and prepared once: a private copy, each event block's
    summed event weight and the weighted event totals. Newton's candidates
    pass the private copy and skip the comparison any other table gets, so
    results depend on a table's content, not on its array.

    The risk sums then take one of two arms. Without covariates (k = 0)
    they are two vectors prepared with the table, the paternal sums A and
    the maternal sums B at the weighted event blocks, and :meth:`fit` runs
    Newton on a float ``beta``: an evaluation costs a handful of
    O(event blocks) vector operations. With covariates each new ``gamma``
    costs one more O(records) step, the origin-split risk sums S0, S1, S2
    at the weighted event blocks, and an evaluation or a Newton step costs
    O(event blocks * p**2), ``p = 1 + k``, on arrays. Both arms give the
    same bits as the general formulas. A Breslow estimate at the last
    evaluation's coefficients reuses its risk totals.
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
        if not np.isfinite(time).all():
            raise ValueError("times must be finite")
        if not np.isfinite(Z).all():
            raise ValueError("covariates must be finite")
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
        self._Z, self._weights = Z, None
        if k:
            # The covariate arm's products v_i v_j of the design v = (1, z) but
            # 1 * 1, the one each stacked row (S0, S1, S2 flattened) reads, and
            # the rows the maternal design (0, z) keeps: all but its leading 0's.
            v = np.column_stack((np.ones(n), Z))
            self._moments = (v[:, :, None] * v[:, None, :]).reshape(n, p * p).T[1:].copy()
            self._stacked = np.concatenate(([0], np.arange(p), np.arange(p * p)))
            has_z = np.arange(p) > 0
            self._maternal_rows = np.concatenate(([True], has_z, np.outer(has_z, has_z).ravel()))

    def _coefs(self, coefs):
        coefs = np.asarray(coefs, dtype=float)
        if coefs.shape != (self.p,):
            raise ValueError(f"coefficients must have shape ({self.p},), got {coefs.shape}")
        return coefs

    def _prepare(self, weights, gamma):
        """Bring the per-table and per-gamma caches up to date."""
        if weights is not self._weights:
            w = np.asarray(weights, dtype=float)
            if w.shape != (2, self.n):
                raise ValueError(f"weights must have shape (2, {self.n}), got {w.shape}")
            if self._weights is None or not np.array_equal(w, self._weights):
                if not (w.min(initial=0.0) >= 0.0 and w.max(initial=0.0) < math.inf):
                    bad = w[~(np.isfinite(w) & (w >= 0.0))][0]
                    raise ValueError(f"weights must be finite and non-negative, got {bad}")
                self._weights = w = w.copy()
                w.flags.writeable = False
                self._gamma = None
                w_event = w.ravel()[self._event_weights]
                d = np.bincount(self._event_block, weights=w_event, minlength=self._blocks)
                self._kept = kept = (d > 0).nonzero()[0]
                self._d = d[kept]
                self._d_total = float(self._d.sum())
                self._event_sum = w_event @ self._event_X
                self._w_event = w_event.reshape(2, -1)
        key = gamma.tobytes()
        if key != self._gamma:
            self._gamma, self._beta = key, None
            segments = self._blocks + 1
            if self.p == 1:
                # A and B at the weighted event blocks: (origin, block)
                sums = np.bincount(self._risk_bin, weights=self._weights.ravel(),
                                   minlength=2 * segments)
                self._sums = sums.reshape(2, segments).cumsum(axis=-1).take(self._kept, axis=-1)
                self._paternal_events = float(self._event_sum[0])
                self._gamma_shift = 0.0
                return
            u, self._gamma_shift = self._weights, 0.0
            if gamma.size and self.n:
                linear = self._Z @ gamma
                # exp(z gamma - shift) cannot overflow
                self._gamma_shift = float(linear.max())
                u = u * np.exp(linear - self._gamma_shift)
            sums = np.array([
                np.bincount(self._risk_bin, weights=flat, minlength=2 * segments)
                for flat in [u.ravel()] + [(u * moment).ravel() for moment in self._moments]
            ]).reshape(-1, 2, segments)
            kept = np.take(np.cumsum(sums, axis=-1), self._kept, axis=-1)
            # (origin, stacked row, weighted event block)
            self._sums = np.take(kept, self._stacked, axis=0).swapaxes(0, 1)
            self._sums[1] *= self._maternal_rows[:, None]

    def _risk(self, beta):
        """Risk-set totals at the weighted event blocks, scaled, with ``log_scale``.

        The true totals are the returned ones times exp(log_scale), the last
        entry. The shift ``max(beta, 0)`` inside it keeps every exponential
        here from overflowing. Without covariates the entries are S0, its
        paternal part exp(beta) * A and log_scale; with them the stacked
        (S0, S1, S2) rows and log_scale. The last ``beta``'s totals are kept
        until the table or ``gamma`` changes.
        """
        if beta != self._beta:
            shift = max(beta, 0.0)
            pat, mat = self._sums
            pat = math.exp(beta - shift) * pat
            total = pat + math.exp(-shift) * mat
            log_scale = shift + self._gamma_shift
            self._beta = beta
            self._risk_sums = (total, pat, log_scale) if self.p == 1 else (total, log_scale)
        return self._risk_sums

    def _evaluate_origin(self, beta):
        """:meth:`evaluate` without covariates, on a float ``beta``, as floats.

        With ``x = exp(beta) * A / S0`` (both moment ratios of the general
        formulas are ``x`` here), the score is ``E - sum(d x)`` and the
        information ``sum(d (x - x**2))``, ``E`` being the paternal event
        total and ``d`` the event weight of each block.
        """
        s0, pat, log_scale = self._risk(beta)
        d = self._d
        # 0.0 + E beta is the one-term dot product of the general formula
        loglik = (0.0 + self._paternal_events * beta - float(d @ np.log(s0))
                  - self._d_total * log_scale)
        x = pat / s0
        # d @ x[:, None] and the sum add up in the general formulas' order
        score = self._paternal_events - float((d @ x[:, None])[0])
        info = float((d * (x - x * x)).sum())
        return loglik, score, info

    def evaluate(self, coefs, weights):
        """Weighted partial log-likelihood with its score and information."""
        coefs = self._coefs(coefs)
        self._prepare(weights, coefs[1:])
        if self.p == 1:
            loglik, score, info = self._evaluate_origin(float(coefs[0]))
            return loglik, np.array([score]), np.array([[info]])
        sums, log_scale = self._risk(float(coefs[0]))
        p = self.p
        s0, s1, s2 = sums[0], sums[1:p + 1].T, sums[p + 1:].T.reshape(-1, p, p)
        d = self._d
        loglik = float(self._event_sum @ coefs - d @ np.log(s0) - self._d_total * log_scale)
        # C order fixes the order in which the sums over blocks below add up
        xbar = np.divide(s1, s0[:, None], order="C")
        score = self._event_sum - d @ xbar
        outer = xbar[:, :, None] * xbar[:, None, :]
        ratio = np.divide(s2, s0[:, None, None], order="C")
        info = (d[:, None, None] * (ratio - outer)).sum(axis=0)
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
        coefs = np.zeros(self.p) if init is None else self._coefs(init).copy()
        self._prepare(weights, coefs[1:])
        self._check_rank()
        if self.p == 1:
            beta, info, loglik, n_steps = _newton(
                self._evaluate_origin, float(coefs[0]), abs, _float_direction
            )
            return np.array([beta]), np.array([[1.0 / _pivot(info)]]), loglik, n_steps
        coefs, info, loglik, n_steps = _newton(
            lambda candidate: self.evaluate(candidate, self._weights), coefs
        )
        return coefs, _solve(info), loglik, n_steps

    def breslow(self, weights, coefs) -> BaselineHazard:
        """Weighted Breslow estimate of the cumulative baseline hazard.

        At each distinct event time the jump equals the summed event weight
        divided by the weighted risk-set total of exp(linear predictor);
        zero weights contribute nothing. Coefficients that put a risk-set
        total or a jump outside the float range raise ``ValueError``.
        """
        coefs = self._coefs(coefs)
        self._prepare(weights, coefs[1:])
        risk = self._risk(float(coefs[0]))
        s0 = risk[0][0] if self.p > 1 else risk[0]
        try:
            with np.errstate(over="raise", divide="raise"):
                increments = self._d / (s0 * math.exp(risk[-1]))
        except (OverflowError, FloatingPointError):
            raise ValueError(f"coefficients {coefs.tolist()} are out of the float range") from None
        # event blocks are in descending time order
        return BaselineHazard(self._event_times[self._kept][::-1], increments[::-1])


class SurvivalCurve:
    """Step-function survival curve S(t) = exp(-Lambda0(t) * risk)."""

    def __init__(self, baseline: BaselineHazard, log_risk: float):
        self.baseline = baseline
        self.log_risk = float(log_risk)

    def __call__(self, t):
        # exp(log_risk) is finite, so a product that overflows to inf has
        # the right limit: S(t) = 0
        with np.errstate(over="ignore"):
            return np.exp(-self.baseline.cumulative(t) * np.exp(self.log_risk))


def survival_curve(baseline, beta=0.0, gamma=(), group="mat", z=()) -> SurvivalCurve:
    """Survival curve for one origin group at covariate values ``z``.

    The maternal-origin group is the baseline; the paternal group is scaled
    by exp(beta). ``beta`` and the group's log-risk, beta + z*gamma or
    z*gamma, must each keep its exponential a positive finite float
    (``ValueError`` otherwise).
    """
    if group not in ("pat", "mat"):
        raise ValueError(f"group must be 'pat' or 'mat', got {group!r}")
    gamma = np.asarray(gamma, dtype=float)
    z = np.asarray(z, dtype=float)
    if gamma.shape != z.shape:
        raise ValueError("gamma and z must have matching lengths")
    _check_beta(beta)
    if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(z))):
        raise ValueError("gamma and z must be finite")
    log_risk = beta if group == "pat" else 0.0
    if gamma.size:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            log_risk += float(z @ gamma)
    _check_beta(log_risk, "beta + z*gamma" if group == "pat" else "z*gamma")
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
