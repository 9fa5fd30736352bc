"""Weighted Cox fitting tests: analytic derivatives, invariances, baseline.

Most datasets here are flagged designs: one row per weight, with the 0/1
parent-of-origin flag as the first column of ``X``. The reference
computations (``naive_partial_loglik``, ``naive_breslow``) read them as
they are; :func:`split` turns them into the records and ``(2, n)`` weight
table that :class:`CoxProblem` takes.
"""

import math
import warnings

import numpy as np
import pytest

from poosurv import (
    BaselineHazard,
    CoxProblem,
    MonotoneLikelihoodError,
    RankDeficiencyError,
    survival_curve,
    wald_test,
)


def random_dataset(rng, n=60, n_cov=1, with_ties=True, zero_weights=True):
    """Arrays (time, status, X, w); the first column of X is the paternal flag."""
    times = rng.uniform(1.0, 30.0, size=n)
    if with_ties:
        # force duplicated event times to exercise tie handling
        times[: n // 4] = np.round(times[: n // 4])
    status = (rng.random(n) < 0.6).astype(int)
    pat = (rng.random(n) < 0.5).astype(float)
    covs = rng.normal(size=(n, n_cov))
    weights = rng.uniform(0.05, 2.0, size=n)
    if zero_weights:
        weights[rng.random(n) < 0.1] = 0.0
    return times, status, np.column_stack([pat, covs]), weights


def split(X, w):
    """Covariates and weight table of a flagged design ``X`` with weights ``w``.

    Row i becomes a record with covariates ``X[i, 1:]`` whose weight ``w[i]``
    sits in row 0 of the table (paternal) if its flag is 1, else in row 1
    (maternal); the record's other weight is 0.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    paternal = X[:, 0] == 1.0
    return X[:, 1:], np.stack((np.where(paternal, w, 0.0), np.where(paternal, 0.0, w)))


def fit_cox(time, status, X, w, init=None):
    """(coefficients, covariance, log-likelihood, Newton steps) of a flagged design."""
    Z, W = split(X, w)
    return CoxProblem(time, status, Z).fit(W, init=init)


def two_group(rows):
    """Arrays from (time, status, origin) rows with unit weights."""
    time = np.array([float(t) for t, _, _ in rows])
    status = np.array([d for _, d, _ in rows])
    X = np.array([[1.0 if origin == "pat" else 0.0] for _, _, origin in rows])
    return time, status, X, np.ones(len(rows))


def naive_partial_loglik(time, status, X, w, coefs):
    """Independent evaluation of the weighted Breslow partial likelihood.

    Loops over the distinct event times and takes each risk set from its
    definition, ``time >= t``: no sorted order and no cumulative sums.
    """
    linear = X @ np.asarray(coefs, dtype=float)
    risk = w * np.exp(linear)
    events = (status == 1) & (w > 0)
    total = 0.0
    for t in np.unique(time[events]):
        at_t = events & (time == t)
        denom = risk[time >= t].sum()
        total += float(np.sum(w[at_t] * (linear[at_t] - math.log(denom))))
    return total


def naive_breslow(time, status, X, w, coefs):
    """Breslow jumps from their definition, one distinct event time at a time.

    The jump at ``t`` is the event weight at ``t`` over the risk-set total of
    ``w exp(x coefs)``, the risk set being ``time >= t``; times whose events
    carry no weight have no jump.
    """
    risk = w * np.exp(X @ np.asarray(coefs, dtype=float))
    times, jumps = [], []
    for t in np.unique(time[status == 1]):
        d = w[(status == 1) & (time == t)].sum()
        if d > 0:
            times.append(t)
            jumps.append(d / risk[time >= t].sum())
    return np.array(times), np.array(jumps)


class TestDerivatives:
    def test_score_and_information_match_finite_differences(self):
        rng = np.random.default_rng(42)
        h_score, h_info = 1e-5, 1e-5
        for _ in range(10):
            time, status, X, w = random_dataset(rng, n=50, n_cov=rng.integers(0, 3))
            Z, w = split(X, w)
            problem = CoxProblem(time, status, Z)
            coefs = rng.normal(scale=0.5, size=X.shape[1])
            loglik, score, info = problem.evaluate(coefs, w)

            fd_score = np.empty_like(score)
            for j in range(coefs.size):
                e = np.zeros_like(coefs)
                e[j] = h_score
                lp, _, _ = problem.evaluate(coefs + e, w)
                lm, _, _ = problem.evaluate(coefs - e, w)
                fd_score[j] = (lp - lm) / (2 * h_score)
            rel = np.abs(score - fd_score) / np.maximum(1.0, np.abs(fd_score))
            assert rel.max() < 1e-6

            fd_info = np.empty_like(info)
            for j in range(coefs.size):
                e = np.zeros_like(coefs)
                e[j] = h_info
                _, sp, _ = problem.evaluate(coefs + e, w)
                _, sm, _ = problem.evaluate(coefs - e, w)
                fd_info[:, j] = -(sp - sm) / (2 * h_info)
            rel = np.abs(info - fd_info) / np.maximum(1.0, np.abs(fd_info))
            assert rel.max() < 1e-4

    def test_loglik_matches_naive_double_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            time, status, X, w = random_dataset(rng, n=30, n_cov=1)
            Z, W = split(X, w)
            coefs = rng.normal(scale=0.5, size=2)
            loglik, _, _ = CoxProblem(time, status, Z).evaluate(coefs, W)
            expected = naive_partial_loglik(time, status, X, w, coefs)
            assert loglik == pytest.approx(expected, rel=1e-10)


class TestFit:
    def test_two_point_likelihood_shape_and_divergence(self):
        # events in both groups but perfectly separated in time: the partial
        # likelihood is beta - log(exp(beta) + 1), monotone increasing
        time, status, X, w = two_group([(1.0, 1, "pat"), (2.0, 1, "mat")])
        Z, w = split(X, w)
        problem = CoxProblem(time, status, Z)
        for b in (-1.0, 0.0, 0.7, 2.5):
            ll, _, _ = problem.evaluate(np.array([b]), w)
            assert ll == pytest.approx(b - math.log(math.exp(b) + 1.0), rel=1e-12)
        with pytest.raises(MonotoneLikelihoodError):
            problem.fit(w)

    def test_overshooting_step_raises_monotone_without_warnings(self):
        # Newton overshoots on this monotone likelihood until a risk sum
        # underflows to 0; the refused candidates must not warn on the way
        time = np.array([0.8, 0.3, 0.2, 0.7])
        status = np.array([0, 1, 1, 0])
        X = np.array([[1.0], [0.0], [1.0], [0.0]])
        Z, w = split(X, [0.0, 0.579, 0.001, 0.461])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MonotoneLikelihoodError):
                CoxProblem(time, status, Z).fit(w)

    def test_single_group_events_rank_deficient(self):
        time, status, X, w = two_group([(1.0, 1, "pat"), (2.0, 0, "mat"), (3.0, 1, "pat")])
        with pytest.raises(RankDeficiencyError):
            fit_cox(time, status, X, w)

    def test_zero_weight_events_do_not_count_for_rank(self):
        time, status, X, w = two_group([(1.0, 1, "pat"), (2.0, 1, "mat"), (3.0, 0, "mat")])
        w[1] = 0.0
        with pytest.raises(RankDeficiencyError):
            fit_cox(time, status, X, w)

    def test_recovers_generator_within_3_se_and_score_small(self):
        rng = np.random.default_rng(2024)
        beta_true = -0.7
        n = 200
        pat = rng.random(n) < 0.5
        rate = np.exp(np.where(pat, beta_true, 0.0))
        event = rng.exponential(1.0 / rate)
        censor = rng.uniform(0.5, 4.0, size=n)
        time = np.minimum(event, censor)
        status = (event <= censor).astype(int)
        X = pat.astype(float)[:, None]
        w = np.ones(n)
        coefs, covariance, _, _ = fit_cox(time, status, X, w)
        beta_hat, se = coefs[0], np.sqrt(covariance[0, 0])
        assert abs(beta_hat - beta_true) < 3 * se
        Z, W = split(X, w)
        _, score, _ = CoxProblem(time, status, Z).evaluate(coefs, W)
        assert np.max(np.abs(score)) < 1e-8
        # independent grid-search maximizer over the naive likelihood; the
        # 3-se check above justifies bracketing the search around beta_hat
        grid = np.arange(beta_hat - 0.3, beta_hat + 0.3, 0.002)
        values = [naive_partial_loglik(time, status, X, w, [b]) for b in grid]
        assert abs(grid[int(np.argmax(values))] - beta_hat) < 0.002

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(5)
        time, status, X, w = random_dataset(rng, n=60, n_cov=1, zero_weights=False)
        c = 3.7
        coefs1, cov1, _, _ = fit_cox(time, status, X, w)
        coefs2, cov2, _, _ = fit_cox(time, status, X, w * c)
        assert coefs2[0] == pytest.approx(coefs1[0], abs=1e-10)
        np.testing.assert_allclose(coefs2[1:], coefs1[1:], atol=1e-10)
        np.testing.assert_allclose(cov2, cov1 / c, rtol=1e-8)
        Z, W = split(X, w)
        problem = CoxProblem(time, status, Z)
        b1 = problem.breslow(W, coefs1)
        b2 = problem.breslow(W * c, coefs2)
        ages = np.linspace(0, 30, 40)
        np.testing.assert_allclose(b2.cumulative(ages), b1.cumulative(ages), atol=1e-10)

    def test_duplication_equals_double_weight(self):
        rng = np.random.default_rng(6)
        time, status, X, w = random_dataset(rng, n=40, n_cov=1, zero_weights=False)
        doubled = w.copy()
        doubled[7] *= 2
        coefs_doubled, _, loglik_doubled, _ = fit_cox(time, status, X, doubled)
        coefs_duplicated, _, loglik_duplicated, _ = fit_cox(
            np.append(time, time[7]), np.append(status, status[7]),
            np.vstack([X, X[7]]), np.append(w, w[7]),
        )
        assert coefs_duplicated[0] == pytest.approx(coefs_doubled[0], abs=1e-10)
        assert loglik_duplicated == pytest.approx(loglik_doubled, abs=1e-9)

    def test_step_acceptance_is_stable_under_weight_rounding(self):
        # A log-likelihood near -2e4 has an ulp of about 4e-12, so an
        # absolute acceptance slack of 1e-12 let one-ulp weight changes
        # decide between taking and halving a Newton step.
        n = 4000
        for seed in range(40):
            rng = np.random.default_rng(seed)
            time = rng.uniform(20.0, 80.0, size=n)
            status = (rng.random(n) < 0.5).astype(int)
            w = rng.uniform(0.0, 1.0, size=(2, n))
            nudged = w * (1.0 + rng.integers(-1, 2, size=(2, n)) * 2.2e-16)
            problem = CoxProblem(time, status, np.empty((n, 0)))
            beta = problem.fit(w, init=[0.3])[0][0]
            beta_nudged = problem.fit(nudged, init=[0.3])[0][0]
            assert abs(beta - beta_nudged) <= 1e-12, seed


class TestBaselineHazard:
    @pytest.mark.parametrize("times, increments", [
        ([1.0, 2.0], [0.5]),
        ([[1.0, 2.0]], [[0.5, 0.5]]),
    ])
    def test_shapes_must_be_matching_1d(self, times, increments):
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            BaselineHazard(times, increments)

    @pytest.mark.parametrize("times", [[2.0, 1.0], [1.0, 1.0]])
    def test_times_must_be_strictly_increasing(self, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            BaselineHazard(times, [0.5, 0.5])

    @pytest.mark.parametrize("increment", [0.0, -0.1])
    def test_increments_must_be_positive(self, increment):
        with pytest.raises(ValueError, match="increments must be positive"):
            BaselineHazard([1.0, 2.0], [0.5, increment])

    @pytest.mark.parametrize("times, increments", [
        ([1.0, np.nan], [0.5, 0.5]),
        ([1.0, np.inf], [0.5, 0.5]),
        ([1.0, 2.0], [0.5, np.nan]),
        ([1.0, 2.0], [0.5, np.inf]),
    ])
    def test_jumps_must_be_finite(self, times, increments):
        with pytest.raises(ValueError, match="must be finite"):
            BaselineHazard(times, increments)


class TestBreslow:
    def test_single_event_unit_jump(self):
        baseline = CoxProblem([5.0], [1], np.empty((1, 0))).breslow([[0.0], [1.0]], [0.0])
        np.testing.assert_array_equal(baseline.times, [5.0])
        np.testing.assert_allclose(baseline.increments, [1.0])

    def test_event_plus_censored_half_jump(self):
        time, status, X, w = two_group([(5.0, 1, "mat"), (7.0, 0, "mat")])
        Z, w = split(X, w)
        baseline = CoxProblem(time, status, Z).breslow(w, np.zeros(1))
        np.testing.assert_array_equal(baseline.times, [5.0])
        np.testing.assert_allclose(baseline.increments, [0.5])

    def test_zero_weight_events_add_no_jump(self):
        rng = np.random.default_rng(8)
        time, status, X, w = random_dataset(rng, n=40, zero_weights=False)
        coefs = fit_cox(time, status, X, w)[0]
        Z, W = split(X, w)
        b1 = CoxProblem(time, status, Z).breslow(W, coefs)
        extra = CoxProblem(np.append(time, 4.321), np.append(status, 1), np.vstack([Z, Z[0]]))
        b2 = extra.breslow(np.column_stack((W, [0.0, 0.0])), coefs)
        ages = np.linspace(0, 35, 50)
        np.testing.assert_allclose(b2.cumulative(ages), b1.cumulative(ages), atol=1e-12)

    @pytest.mark.parametrize("n_cov", [0, 1, 2])
    def test_matches_definition(self, n_cov):
        rng = np.random.default_rng(30 + n_cov)
        for _ in range(5):
            time, status, X, w = random_dataset(rng, n=60, n_cov=n_cov)
            # tied events, an event tied with a censored row, and a tied
            # event time whose events all carry zero weight (no jump there)
            # (half-integer times occur nowhere else in the data)
            time[:6] = [5.5, 5.5, 7.5, 7.5, 9.5, 9.5]
            status[:6] = [1, 1, 1, 1, 1, 0]
            w[[0, 1, 4, 5]] = rng.uniform(0.05, 2.0, size=4)
            w[[2, 3]] = 0.0
            coefs = rng.normal(scale=0.5, size=X.shape[1])
            Z, W = split(X, w)
            baseline = CoxProblem(time, status, Z).breslow(W, coefs)
            times, jumps = naive_breslow(time, status, X, w, coefs)
            assert 5.5 in times and 9.5 in times and 7.5 not in times
            np.testing.assert_array_equal(baseline.times, times)
            np.testing.assert_allclose(baseline.increments, jumps, rtol=1e-12)

    def test_matches_nelson_aalen_at_null_predictor(self):
        rng = np.random.default_rng(13)
        times = rng.uniform(1, 20, size=80)
        status = (rng.random(80) < 0.5).astype(int)
        Z, w = split(np.zeros((80, 1)), np.ones(80))
        baseline = CoxProblem(times, status, Z).breslow(w, np.zeros(1))
        # straight Nelson-Aalen: d_i / n_i at each distinct event time
        cum = 0.0
        for t in sorted(set(times[status == 1])):
            d = int(np.sum((status == 1) & (times == t)))
            n_at_risk = int(np.sum(times >= t))
            cum += d / n_at_risk
            assert baseline.cumulative(t) == pytest.approx(cum, rel=1e-12)


class TestReuseAndContract:
    @pytest.mark.parametrize("n_cov", [0, 2])
    def test_weights_mutated_in_place_are_seen(self, n_cov):
        # a fresh problem is the reference: results must depend on the
        # weights' content, not on which array object holds them
        rng = np.random.default_rng(40 + n_cov)
        time, status, X, w = random_dataset(rng, n=80, n_cov=n_cov, zero_weights=False)
        Z, w = split(X, w)
        coefs = rng.normal(scale=0.3, size=X.shape[1])
        calls = {
            "evaluate": lambda problem, weights: problem.evaluate(coefs, weights),
            "fit": lambda problem, weights: problem.fit(weights)[:3],
            "breslow": lambda problem, weights: (
                problem.breslow(weights, coefs).times,
                problem.breslow(weights, coefs).increments,
            ),
        }
        for name, call in calls.items():
            problem = CoxProblem(time, status, Z)
            weights = w.copy()
            call(problem, weights)
            weights *= 1.5
            weights[:, ::3] = rng.uniform(0.05, 2.0, size=weights[:, ::3].shape)
            reused = call(problem, weights)
            fresh = call(CoxProblem(time, status, Z), weights)
            for got, want in zip(reused, fresh):
                np.testing.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("n_cov", [0, 2])
    def test_one_record_with_both_weights_equals_two_flagged_rows(self, n_cov):
        # The reference is the expanded design: every record as a paternal
        # row (1, z) and a maternal row (0, z), each with one of its weights.
        rng = np.random.default_rng(50 + n_cov)
        n = 60
        time, status, X, _ = random_dataset(rng, n=n, n_cov=n_cov)
        Z = X[:, 1:]
        W = rng.uniform(0.05, 2.0, size=(2, n))
        W[0, :6] = W[1, 6:12] = 0.0
        time2, status2 = np.tile(time, 2), np.tile(status, 2)
        X2 = np.block([[np.ones((n, 1)), Z], [np.zeros((n, 1)), Z]])
        w2 = W.ravel()
        records = CoxProblem(time, status, Z)
        rows = CoxProblem(time2, status2, split(X2, w2)[0])
        W2 = split(X2, w2)[1]
        coefs = rng.normal(scale=0.5, size=1 + n_cov)
        for got, want in zip(records.evaluate(coefs, W), rows.evaluate(coefs, W2)):
            np.testing.assert_allclose(got, want, rtol=1e-12)
        assert records.evaluate(coefs, W)[0] == pytest.approx(
            naive_partial_loglik(time2, status2, X2, w2, coefs), rel=1e-10
        )
        baseline = records.breslow(W, coefs)
        times, jumps = naive_breslow(time2, status2, X2, w2, coefs)
        np.testing.assert_array_equal(baseline.times, times)
        np.testing.assert_allclose(baseline.increments, jumps, rtol=1e-12)
        np.testing.assert_allclose(records.fit(W)[0], rows.fit(W2)[0], atol=1e-10)

    def test_covariate_coefficients_change_between_calls(self):
        rng = np.random.default_rng(44)
        time, status, X, w = random_dataset(rng, n=80, n_cov=2)
        Z, w = split(X, w)
        problem = CoxProblem(time, status, Z)
        for _ in range(3):
            coefs = rng.normal(scale=0.5, size=3)
            for got, want in zip(problem.evaluate(coefs, w),
                                 CoxProblem(time, status, Z).evaluate(coefs, w)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("covariates", [[0.3, -0.1], [[[0.3]], [[-0.1]]]])
    def test_covariates_must_be_2d(self, covariates):
        with pytest.raises(ValueError, match="covariates must be 2-d"):
            CoxProblem([1.0, 2.0], [1, 1], covariates)

    def test_status_must_be_zero_or_one(self):
        with pytest.raises(ValueError, match="status"):
            CoxProblem([1.0, 2.0], [2, 0], np.empty((2, 0)))

    def test_weights_of_the_wrong_length_are_refused(self):
        problem = CoxProblem([1.0, 2.0], [1, 1], np.empty((2, 0)))
        for shape in [(2, 3), (4,), (1, 2), (2, 2, 1)]:
            with pytest.raises(ValueError, match="weights"):
                problem.evaluate([0.0], np.ones(shape))


class TestCurvesAndWald:
    def test_zero_hazard_curve_is_one(self):
        curve = survival_curve(BaselineHazard([], []), beta=-0.5, group="pat")
        ages = np.linspace(0, 100, 11)
        np.testing.assert_array_equal(curve(ages), np.ones(11))

    def test_maternal_group_is_baseline(self):
        baseline = BaselineHazard([10.0, 20.0], [0.3, 0.2])
        curve = survival_curve(baseline, beta=-0.5, group="mat")
        ages = np.array([5.0, 15.0, 25.0])
        np.testing.assert_allclose(curve(ages), np.exp(-baseline.cumulative(ages)))

    def test_negative_beta_orders_curves(self):
        baseline = BaselineHazard([10.0, 20.0, 30.0], [0.1, 0.4, 0.2])
        pat = survival_curve(baseline, beta=-0.8, group="pat")
        mat = survival_curve(baseline, beta=-0.8, group="mat")
        ages = np.linspace(0, 50, 101)
        assert np.all(pat(ages) >= mat(ages))

    def test_survival_starts_at_one_and_non_increasing(self):
        baseline = BaselineHazard([1.0, 2.0], [0.5, 0.25])
        curve = survival_curve(baseline, beta=0.3, group="pat")
        ages = np.linspace(0, 10, 200)
        values = curve(ages)
        assert values[0] == 1.0
        assert np.all(np.diff(values) <= 1e-15)

    @pytest.mark.parametrize("beta, gamma, z", [
        (np.nan, (), ()),
        (np.inf, (), ()),
        (0.3, (np.nan,), (1.0,)),
        (0.3, (0.5,), (-np.inf,)),
    ])
    def test_non_finite_coefficients_are_refused(self, beta, gamma, z):
        baseline = BaselineHazard([10.0, 20.0], [0.3, 0.2])
        with pytest.raises(ValueError, match="must be finite"):
            survival_curve(baseline, beta=beta, gamma=gamma, group="pat", z=z)

    def test_wald_zero_coefficient(self):
        coefs, covariance, _, _ = fit_cox(
            *two_group([(1.0, 1, "pat"), (1.0, 1, "mat"), (2.0, 0, "pat"), (2.0, 0, "mat")])
        )
        z, p = wald_test(coefs[0], covariance[0, 0])
        assert abs(coefs[0]) < 1e-8
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_wald_quantile(self):
        _, covariance, _, _ = fit_cox(
            *two_group(
                [
                    (1.0, 1, "pat"),
                    (1.5, 1, "mat"),
                    (2.0, 0, "pat"),
                    (2.5, 0, "mat"),
                    (3.0, 1, "pat"),
                    (3.5, 1, "mat"),
                ]
            )
        )
        variance = covariance[0, 0]
        # direct check of the transform at 1.96 standard errors
        z, p = wald_test(1.96 * np.sqrt(variance), variance)
        assert z == pytest.approx(1.96, abs=1e-12)
        assert p == pytest.approx(0.05, abs=1e-3)

    @pytest.mark.parametrize("variance", [0.0, -0.25])
    def test_wald_refuses_a_variance_that_is_not_positive(self, variance):
        with pytest.raises(ValueError, match="variance must be positive"):
            wald_test(0.3, variance)
