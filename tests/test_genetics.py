"""Factor-level tests: founder prior, transmission, penetrance, test model."""

import itertools
import math

import numpy as np
import pytest

from poosurv import test_factor as gene_test_factor
from poosurv import (
    DEFAULT_HAZARD,
    FixedEvidence,
    Genotype,
    IndividualRecord,
    ModelParams,
    Sex,
    TRANSMISSION,
    evidence_factor,
    evidence_matrix,
    founder_prior,
    penetrance_factor,
)

G0 = Genotype.NON_CARRIER
G1P = Genotype.HET_PATERNAL
G1M = Genotype.HET_MATERNAL
G2 = Genotype.HOMOZYGOUS


def record(age=50.0, status=0, gene_test=None, covariates=(), **kw):
    return IndividualRecord(
        "F", "1", None, None, Sex.MALE, age, status, gene_test, covariates=covariates, **kw
    )


class TestFounderPrior:
    def test_no_disease_allele(self):
        np.testing.assert_array_equal(founder_prior(0.0), [1.0, 0.0, 0.0, 0.0])

    def test_study_frequency(self):
        np.testing.assert_allclose(founder_prior(0.2), [0.64, 0.16, 0.16, 0.04])

    def test_rare_frequency(self):
        np.testing.assert_allclose(
            founder_prior(0.04), [0.9216, 0.0384, 0.0384, 0.0016]
        )

    def test_sums_to_one_on_grid(self):
        for q in np.linspace(0.0, 1.0, 101):
            assert founder_prior(q).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            founder_prior(1.5)


def transmission(father, mother):
    """Child genotype distribution given the parents' ordered genotypes."""
    return TRANSMISSION[int(father), int(mother)]


def _transmission_by_enumeration(father, mother):
    """Independent oracle: enumerate the 2x2 equally likely allele pairs."""
    alleles = {G0: (0, 0), G1P: (1, 0), G1M: (0, 1), G2: (1, 1)}
    out = np.zeros(4)
    for fa in alleles[father]:
        for ma in alleles[mother]:
            child = Genotype(fa + 2 * ma)
            out[child] += 0.25
    return out


class TestTransmission:
    def test_noncarrier_parents(self):
        np.testing.assert_array_equal(transmission(G0, G0), [1.0, 0.0, 0.0, 0.0])

    def test_homozygous_father_noncarrier_mother(self):
        np.testing.assert_array_equal(transmission(G2, G0), [0.0, 1.0, 0.0, 0.0])

    def test_het_by_het_quarters(self):
        expected = _transmission_by_enumeration(G1M, G1P)
        np.testing.assert_allclose(transmission(G1M, G1P), expected)
        np.testing.assert_allclose(expected, [0.25, 0.25, 0.25, 0.25])

    def test_all_pairs_match_enumeration(self):
        for f, m in itertools.product(Genotype, repeat=2):
            np.testing.assert_allclose(
                transmission(f, m), _transmission_by_enumeration(f, m), atol=1e-15
            )

    def test_all_pairs_sum_to_one(self):
        for f, m in itertools.product(Genotype, repeat=2):
            assert transmission(f, m).sum() == pytest.approx(1.0)

    def test_parent_swap_symmetry(self):
        swap = {G0: G0, G1P: G1M, G1M: G1P, G2: G2}
        for f, m in itertools.product(Genotype, repeat=2):
            base = transmission(f, m)
            swapped = transmission(swap[m], swap[f])
            relabeled = base[[0, 2, 1, 3]]  # exchange paternal/maternal child states
            np.testing.assert_allclose(swapped, relabeled, atol=1e-15)


class TestPenetrance:
    def setup_method(self):
        self.params = ModelParams(q=0.2, beta=-0.6, baseline=DEFAULT_HAZARD)

    def test_affected_noncarrier_is_zero(self):
        assert penetrance_factor(45.0, 1, G0, (), self.params) == 0.0

    def test_censored_noncarrier_is_one(self):
        assert penetrance_factor(45.0, 0, G0, (), self.params) == 1.0

    def test_censored_maternal_at_40(self):
        # cumulative hazard at 40 is 0.02 * 20 = 0.4
        value = penetrance_factor(40.0, 0, G1M, (), ModelParams(q=0.2, baseline=DEFAULT_HAZARD))
        assert value == pytest.approx(math.exp(-0.4), rel=1e-12)
        assert value == pytest.approx(0.67032, abs=1e-5)

    def test_paternal_branch_carries_beta(self):
        lam = DEFAULT_HAZARD.cumulative(40.0)
        expected = math.exp(-lam * math.exp(-0.6))
        assert penetrance_factor(40.0, 0, G1P, (), self.params) == pytest.approx(expected)

    def test_homozygote_pools_with_maternal(self):
        for t, delta in ((30.0, 0), (55.0, 1)):
            assert penetrance_factor(t, delta, G2, (), self.params) == pytest.approx(
                penetrance_factor(t, delta, G1M, (), self.params)
            )

    def test_affected_carrier_value(self):
        lam = DEFAULT_HAZARD.cumulative(50.0)
        expected = math.exp(-lam) * 1.0
        assert penetrance_factor(50.0, 1, G1M, (), self.params) == pytest.approx(expected)

    def test_covariates_scale_hazard(self):
        params = ModelParams(q=0.2, beta=-0.6, gamma=(0.5,), baseline=DEFAULT_HAZARD)
        lam = DEFAULT_HAZARD.cumulative(45.0)
        z = (2.0,)
        expected = math.exp(-lam * math.exp(0.5 * 2.0))
        assert penetrance_factor(45.0, 0, G1M, z, params) == pytest.approx(expected)

    def test_censored_carrier_non_increasing_in_time(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            beta = rng.normal(scale=0.8)
            params = ModelParams(q=0.2, beta=beta, baseline=DEFAULT_HAZARD)
            ts = np.sort(rng.uniform(0, 95, size=8))
            for x in (G1P, G1M, G2):
                values = [penetrance_factor(t, 0, x, (), params) for t in ts]
                assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_equals_one_while_hazard_is_zero(self):
        for x in Genotype:
            assert penetrance_factor(10.0, 0, x, (), self.params) == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            penetrance_factor(-1.0, 0, G0, (), self.params)


class TestTestFactor:
    def test_error_free_positive_on_carrier(self):
        assert gene_test_factor(1, G1P, epsilon=0.0, eta=0.001) == 1.0

    def test_false_positive_rate(self):
        assert gene_test_factor(1, G0, epsilon=0.0, eta=0.001) == 0.001

    def test_false_negative_on_homozygote(self):
        assert gene_test_factor(0, G2, epsilon=0.01, eta=0.0) == 0.01

    def test_negative_on_noncarrier(self):
        assert gene_test_factor(0, G0, epsilon=0.01, eta=0.001) == 1.0 - 0.001

    def test_missing_contributes_one(self):
        assert gene_test_factor(None, G2, epsilon=0.5, eta=0.5) == 1.0

    def test_rows_sum_to_one_over_outcomes(self):
        for x in Genotype:
            total = gene_test_factor(0, x, 0.01, 0.001) + gene_test_factor(1, x, 0.01, 0.001)
            assert total == pytest.approx(1.0)


class TestEvidenceFactor:
    def setup_method(self):
        self.params = ModelParams(
            q=0.2, beta=-0.6, epsilon=0.01, eta=0.001, baseline=DEFAULT_HAZARD
        )

    def test_affected_untested(self):
        phi = evidence_factor(record(age=45.0, status=1), self.params)
        assert phi[G0] == 0.0
        assert phi[G1M] == phi[G2] > 0.0
        assert phi[G1P] > 0.0

    def test_suppressed_proband_keeps_test_only(self):
        params = ModelParams(q=0.2, epsilon=0.0, eta=0.001, baseline=DEFAULT_HAZARD)
        phi = evidence_factor(
            record(age=45.0, status=1, gene_test=1, phenotype_suppressed=True), params
        )
        np.testing.assert_allclose(phi, [0.001, 1.0, 1.0, 1.0])

    def test_censored_founder_no_test(self):
        phi = evidence_factor(record(age=60.0, status=0), self.params)
        lam = DEFAULT_HAZARD.cumulative(60.0)
        np.testing.assert_allclose(
            phi,
            [
                1.0,
                math.exp(-lam * math.exp(-0.6)),
                math.exp(-lam),
                math.exp(-lam),
            ],
        )

    def test_not_identically_zero_for_consistent_records(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rec = record(
                age=float(rng.uniform(0, 90)),
                status=int(rng.integers(0, 2)),
                gene_test=[None, 0, 1][rng.integers(0, 3)],
            )
            phi = evidence_factor(rec, self.params)
            assert np.all(phi >= 0)
            assert phi.max() > 0


class TestEvidenceMatrix:
    @pytest.mark.parametrize("epsilon, eta, message", [
        (1.5, 0.0, "epsilon must be in [0, 1), got 1.5"),
        (float("nan"), 0.0, "epsilon must be in [0, 1), got nan"),
        (0.01, -1.0, "eta must be in [0, 1), got -1.0"),
    ])
    def test_out_of_range_error_rates_are_rejected(self, epsilon, eta, message):
        for build in (lambda: FixedEvidence([0], [1], np.empty((1, 0)), epsilon, eta),
                      lambda: ModelParams(q=0.2, epsilon=epsilon, eta=eta)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        params = ModelParams(
            q=0.2, beta=-0.4, gamma=(0.3, -0.2), epsilon=0.02, eta=0.005,
            baseline=DEFAULT_HAZARD,
        )
        records = []
        for _ in range(60):
            records.append(
                record(
                    age=float(rng.uniform(0, 95)),
                    status=int(rng.integers(0, 2)),
                    gene_test=[None, 0, 1][rng.integers(0, 3)],
                    covariates=tuple(rng.normal(size=2)),
                    phenotype_suppressed=bool(rng.random() < 0.2),
                )
            )
        fixed = FixedEvidence(
            np.array([r.status for r in records]),
            np.array([-1 if r.gene_test is None else r.gene_test for r in records]),
            np.array([r.covariates for r in records]),
            params.epsilon, params.eta,
            np.array([r.phenotype_suppressed for r in records]),
        )
        matrix = evidence_matrix(
            params.cumulative_hazard(np.array([r.age for r in records])),
            params.beta,
            params.gamma,
            fixed,
        )
        for i, rec in enumerate(records):
            expected = evidence_factor(rec, params)
            np.testing.assert_allclose(matrix[i], expected, atol=1e-14)

    @staticmethod
    def fixed_parts(rng, n, covariates):
        """Random statuses, gene tests and suppressed phenotypes of ``n``
        records with the given (n, k) covariates, affected and suppressed
        records among them."""
        status = rng.integers(0, 2, size=n)
        status[:2] = (1, 1)
        suppress = rng.random(n) < 0.25
        suppress[:2] = (False, True)
        return status, rng.integers(-1, 2, size=n), covariates, 0.02, 0.005, suppress

    def test_covariate_free_risk_is_the_general_path_bit_for_bit(self):
        # without covariates each risk is a scalar; a zero covariate column
        # takes the per-record path and gives the same bits, also at -0.0
        rng = np.random.default_rng(11)
        n = 80
        hazard = rng.exponential(0.5, size=n)
        hazard[:5] = 0.0
        status, tests, _, epsilon, eta, suppress = self.fixed_parts(rng, n, None)
        scalar = FixedEvidence(status, tests, np.empty((n, 0)), epsilon, eta, suppress)
        zeros = FixedEvidence(status, tests, np.zeros((n, 1)), epsilon, eta, suppress)
        assert scalar.affected.any() and (scalar.live == 0).any()
        for beta in (-0.0, 0.0, -0.6, *rng.normal(scale=2.0, size=300).tolist()):
            got = evidence_matrix(hazard, beta, (), scalar)
            expected = evidence_matrix(hazard, beta, (0.0,), zeros)
            assert got.tobytes() == expected.tobytes()

    def test_arrays_are_read_only(self):
        rng = np.random.default_rng(12)
        n = 30
        covariates = rng.normal(size=(n, 1))
        fixed = FixedEvidence(*self.fixed_parts(rng, n, covariates))
        assert not np.shares_memory(fixed.covariates, covariates)  # a copy, not the caller's
        for array in (fixed.covariates, fixed.live, fixed.affected, fixed.factor):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
