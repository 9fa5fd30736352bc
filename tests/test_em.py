"""EM loop tests: M-step records, proband correction, determinism."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from poosurv import (
    DEFAULT_HAZARD,
    CoxProblem,
    EMConfig,
    EMError,
    Genotype,
    IndividualRecord,
    ModelParams,
    Pedigree,
    PosteriorWeights,
    Scenario,
    Sex,
    apply_proband_correction,
    bootstrap_em,
    em_fit,
    format_ped,
    parse_ped,
    posterior_marginals,
    replicate_study,
    simulate_families,
)
from poosurv import em, inference, pedigree
from poosurv.em import STABLE_WINDOW, _fan_out, _Model

from test_inference import assert_weights_equal, per_record_weights


#: SHA-256 of the float64 bytes of ``beta_hat``, ``gamma_hat``, the
#: covariance, the baseline's times and increments, the trace's
#: log-likelihoods and the marginals of ``em_fit`` on
#: ``simulate_families(100, -0.6, 0.2, scenario="S1", seed=31)`` at
#: ``EMConfig(q=0.2, seed=3)``, without covariates and with one normal
#: covariate per record (``TestBootstrap.with_covariate(families, 31)``).
GOLDEN_FITS = {
    "no covariate": "db5e254bf5997a26b8b2685f47740b0dd14d812e40d4b13dd2193963a38fdda6",
    "one covariate": "6957b1a4fa9bd6020682241a61fbc5222a1ebfdadbda47389f64acef24ad58dc",
}


def make_record(family_id, individual_id, father=None, mother=None, sex=Sex.MALE,
                age=50.0, status=0, gene_test=None, proband=False):
    return IndividualRecord(
        family_id, individual_id, father, mother, sex, age, status, gene_test, proband
    )


def informative_family(family_id="F1"):
    """Carrier father x tested-negative mother: origins pedigree-determined."""
    return Pedigree(
        [
            make_record(family_id, "f", sex=Sex.MALE, age=70.0, status=1, gene_test=1),
            make_record(family_id, "m", sex=Sex.FEMALE, age=72.0, gene_test=0),
            make_record(family_id, "c1", "f", "m", Sex.MALE, 45.0, 1, 1),
            make_record(family_id, "c2", "f", "m", Sex.FEMALE, 50.0, 0, 0),
        ]
    )


def replicate_key(rep):
    """Everything a bootstrap replicate reports, comparable with ``==``."""
    baseline = None if rep.baseline is None else (
        rep.baseline.times.tobytes(), rep.baseline.increments.tobytes()
    )
    return (np.float64(rep.beta_hat).tobytes(), rep.gamma_hat, baseline,
            rep.converged, rep.error)


def fail_replicate(monkeypatch, index, family_id):
    """Make every E-step run of bootstrap replicate ``index`` raise a
    :class:`ZeroEvidenceError` naming ``family_id``; replicates must run in
    this process (``jobs=1``)."""
    running = []
    real_one, real_run = em._bootstrap_one, inference.MarginalEngine.run

    def tracked(model, config, replicate_index):
        running.append(replicate_index)
        try:
            return real_one(model, config, replicate_index)
        finally:
            running.pop()

    def failing(self, *args):
        if running == [index]:
            raise inference.ZeroEvidenceError(family_id)
        return real_run(self, *args)

    monkeypatch.setattr(em, "_bootstrap_one", tracked)
    monkeypatch.setattr(inference.MarginalEngine, "run", failing)


def sized_family(rng, family_id, children):
    """Founder couple, ``children`` children each with a married-in spouse
    and one child of their own; random phenotypes and gene tests."""
    def record(individual_id, father, mother, sex):
        return make_record(
            family_id, individual_id, father, mother, sex,
            age=float(rng.uniform(20.0, 80.0)), status=int(rng.random() < 0.3),
            gene_test=[None, None, 0, 1][rng.integers(0, 4)],
        )

    records = [record("1", None, None, Sex.MALE), record("2", None, None, Sex.FEMALE)]
    for c in range(children):
        sex = Sex.MALE if c % 2 else Sex.FEMALE
        spouse = Sex.FEMALE if c % 2 else Sex.MALE
        records += [record(f"c{c}", "1", "2", sex), record(f"s{c}", None, None, spouse)]
        parents = (f"c{c}", f"s{c}") if c % 2 else (f"s{c}", f"c{c}")
        records.append(record(f"g{c}", *parents, Sex.FEMALE))
    return Pedigree(records)


class TestWeightedDataset:
    """The M-step's records: one per individual whose phenotype counts,
    weighted by a (2, records) table of origin weights."""

    def test_suppressed_records_excluded(self):
        rng = np.random.default_rng(3)
        fams, _ = simulate_families(
            6, beta=-0.6, q=0.2, scenario="S1", seed=2, mark_probands=True
        )
        fams = [
            Pedigree([replace(rec, covariates=(float(rng.normal()),)) for rec in fam])
            for fam in fams
        ]
        corrected, _ = apply_proband_correction(fams)
        model = _Model(corrected, EMConfig(q=0.2))
        assert model.engine.families == corrected
        records = [rec for fam in corrected for rec in fam]
        kept = [i for i, rec in enumerate(records) if not rec.phenotype_suppressed]
        assert 0 < len(kept) < len(records)
        np.testing.assert_array_equal(model.rows, kept)
        affected = [i for i in kept if records[i].status == 1]
        np.testing.assert_array_equal(model.affected_records, affected)
        np.testing.assert_array_equal(model.affected_ages, [records[i].age for i in affected])
        np.testing.assert_array_equal(model.sizes, [len(fam) for fam in corrected])
        # the problem holds exactly the kept records, in record order
        direct = CoxProblem(
            [records[i].age for i in kept], [records[i].status for i in kept],
            [records[i].covariates for i in kept],
        )
        weights = rng.uniform(0.05, 1.0, size=(2, len(kept)))
        coefs = np.array([-0.4, 0.3])
        for got, want in zip(model.problem.evaluate(coefs, weights),
                             direct.evaluate(coefs, weights)):
            np.testing.assert_array_equal(got, want)

    def test_zero_weight_row_does_not_change_fit(self):
        fams = [informative_family("A"), informative_family("B")]
        model = _Model(fams, EMConfig(q=0.2))
        tested_negative = np.array([rec.gene_test == 0 for fam in fams for rec in fam])
        weights = np.stack((np.where(tested_negative, 0.0, 0.7),
                            np.where(tested_negative, 0.0, 0.3)))[:, model.rows]
        keep = weights.sum(axis=0) > 0
        ages = model.engine.ages[model.rows]
        statuses = model.engine.statuses[model.rows]
        full = model.problem.fit(weights)[0]
        trimmed = CoxProblem(ages[keep], statuses[keep], np.empty((keep.sum(), 0))).fit(
            weights[:, keep]
        )[0]
        assert full[0] == pytest.approx(trimmed[0], abs=1e-12)

    def test_design_meets_the_cox_contract(self):
        # one coefficient for the origin effect and one per covariate,
        # whatever the covariates, also when every record is suppressed
        rng = np.random.default_rng(4)
        fams, _ = simulate_families(
            5, beta=-0.6, q=0.2, scenario="S1", seed=2, mark_probands=True
        )
        for k in (0, 2):
            with_covariates = [
                Pedigree([
                    replace(rec, covariates=tuple(float(z) for z in rng.normal(size=k)))
                    for rec in fam
                ])
                for fam in fams
            ]
            for families in (with_covariates, apply_proband_correction(with_covariates)[0]):
                model = _Model(families, EMConfig(q=0.2))
                assert (model.problem.n, model.problem.p) == (model.rows.size, 1 + k)
            suppressed = _Model([
                fam.with_values(phenotype_suppressed=[True] * len(fam))
                for fam in with_covariates
            ], EMConfig(q=0.2))
            assert (suppressed.problem.n, suppressed.problem.p) == (0, 1 + k)


class TestEMConfig:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_q_must_lie_strictly_between_0_and_1(self, q):
        with pytest.raises(ValueError, match=r"q must be in \(0, 1\)"):
            EMConfig(q=q)

    @pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan"), float("inf")])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            EMConfig(q=0.2, tol=tol)

    @pytest.mark.parametrize("ages", [(), (40.0, 40.0), (60.0, 40.0)])
    def test_test_ages_must_be_non_empty_and_increasing(self, ages):
        with pytest.raises(ValueError, match="test_ages must be non-empty and increasing"):
            EMConfig(q=0.2, test_ages=ages)

    @pytest.mark.parametrize("ages", [(20.0, float("nan")), (20.0, float("inf"))])
    def test_test_ages_must_be_finite(self, ages):
        with pytest.raises(ValueError, match="test_ages must be finite"):
            EMConfig(q=0.2, test_ages=ages)

    def test_max_iter_must_be_at_least_1(self):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            EMConfig(q=0.2, max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", None])
    def test_max_iter_must_be_an_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            EMConfig(q=0.2, max_iter=max_iter)
        assert EMConfig(q=0.2, max_iter=np.int64(3)).max_iter == 3

    def test_model_params_keep_the_closed_interval(self):
        # brute force and check-oracle evaluate the likelihood at the ends
        assert ModelParams(q=0.0).q == 0.0
        assert ModelParams(q=1.0).q == 1.0


class TestProbandCorrection:
    def test_marks_probands_and_warns_when_absent(self):
        with_proband = Pedigree(
            [
                make_record("P1", "a", age=45.0, status=1, proband=True),
                make_record("P1", "b", sex=Sex.FEMALE, age=50.0),
            ]
        )
        without = Pedigree([make_record("P2", "x", age=30.0)])
        corrected, warnings = apply_proband_correction([with_proband, without])
        assert corrected[0].record("a").phenotype_suppressed
        assert not corrected[0].record("b").phenotype_suppressed
        assert corrected[1] is without
        assert len(warnings) == 1 and "P2" in warnings[0]

    def test_only_affected_member_suppressed_leaves_no_phenotype_evidence(self):
        fam = Pedigree(
            [
                make_record("F", "f", sex=Sex.MALE, age=70.0),
                make_record("F", "m", sex=Sex.FEMALE, age=68.0),
                make_record("F", "c", "f", "m", Sex.MALE, 45.0, 1, None, True),
            ]
        )
        (corrected,), _ = apply_proband_correction([fam])
        params = ModelParams(q=0.2, beta=-0.6, baseline=DEFAULT_HAZARD)
        result = posterior_marginals(corrected, params)
        # with the proband's phenotype gone the child can be a non-carrier again
        assert result.weights["c"].w_zero > 0.0

    def test_correction_off_is_identity(self):
        # without the correction a proband flag changes nothing
        fams, _ = simulate_families(
            4, beta=-0.6, q=0.2, scenario="S1", seed=3, mark_probands=True
        )
        params = ModelParams(q=0.2, beta=-0.6, baseline=DEFAULT_HAZARD)
        assert any(rec.proband for fam in fams for rec in fam)
        for fam in fams:
            plain = posterior_marginals(fam, params)
            unflagged = Pedigree([replace(rec, proband=False) for rec in fam])
            again = posterior_marginals(unflagged, params)
            np.testing.assert_array_equal(plain.marginals, again.marginals)

    def test_log_evidence_changes_when_proband_informative(self):
        fams, _ = simulate_families(
            6, beta=-0.6, q=0.2, scenario="S1", seed=9, mark_probands=True
        )
        params = ModelParams(q=0.2, beta=-0.6, baseline=DEFAULT_HAZARD)
        changed = 0
        for fam in fams:
            if not any(r.proband for r in fam):
                continue
            plain = posterior_marginals(fam, params)
            (corrected,), _ = apply_proband_correction([fam])
            suppressed = posterior_marginals(corrected, params)
            if abs(plain.log_evidence - suppressed.log_evidence) > 1e-9:
                changed += 1
        assert changed > 0


class TestEMFit:
    def test_pedigree_determined_origins_are_hard(self):
        # with every genotype observed and error-free tests, a carrier child
        # of exactly one carrier parent has its origin pinned to 0/1; founder
        # carriers keep a soft origin split (their parents are unobserved)
        fams, truth = simulate_families(40, beta=-0.6, q=0.2, scenario="S2", seed=17)
        carrier = {
            (t.family_id, t.individual_id): t.genotype != Genotype.NON_CARRIER
            for t in truth
        }
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=1)
        result = em_fit(fams, config)
        checked = 0
        for fam, fam_weights in zip(fams, result.weights):
            for rec in fam:
                if rec.is_founder or not carrier[(fam.family_id, rec.individual_id)]:
                    continue
                father_carrier = carrier[(fam.family_id, rec.father_id)]
                mother_carrier = carrier[(fam.family_id, rec.mother_id)]
                if father_carrier == mother_carrier:
                    continue  # origin ambiguous or impossible
                w = fam_weights[rec.individual_id]
                expected = (1.0, 0.0) if father_carrier else (0.0, 1.0)
                assert (w.w_pat, w.w_mat) == expected
                checked += 1
        assert checked > 10

    def test_fully_resolved_origins_match_direct_cox_problem(self):
        # Oracle pins resolve every origin, so the EM's coefficient equals a
        # direct Cox fit on the true-label rows
        fams, truth = simulate_families(40, beta=-0.6, q=0.2, scenario="Oracle", seed=23)
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=1)
        result = em_fit(fams, config)
        records = {
            (fam.family_id, rec.individual_id): rec for fam in fams for rec in fam
        }
        carriers = [t for t in truth if t.genotype != Genotype.NON_CARRIER]
        rows = [records[(t.family_id, t.individual_id)] for t in carriers]
        paternal = np.array([float(t.genotype == Genotype.HET_PATERNAL) for t in carriers])
        problem = CoxProblem(
            [r.age for r in rows], [r.status for r in rows], np.empty((len(rows), 0))
        )
        beta_hat = problem.fit(np.stack((paternal, 1.0 - paternal)))[0][0]
        assert result.beta_hat == pytest.approx(beta_hat, abs=1e-7)

    def test_no_families_is_refused(self):
        with pytest.raises(ValueError, match="no families to fit"):
            em_fit([], EMConfig(q=0.2))

    def test_no_events_is_mstep_rank_failure(self):
        fam = Pedigree(
            [
                make_record("F", "p", age=45.0, status=1, proband=True),
                make_record("F", "s", sex=Sex.FEMALE, age=50.0, status=0),
            ]
        )
        config = EMConfig(q=0.2, seed=0)
        with pytest.raises(EMError) as exc:
            em_fit(apply_proband_correction([fam])[0], config)
        assert "iteration 1" in str(exc.value)

    def test_determinism(self):
        fams, _ = simulate_families(20, beta=-0.6, q=0.2, scenario="S1", seed=8)
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=21)
        a = em_fit(fams, config)
        b = em_fit(fams, config)
        assert a.beta_hat == b.beta_hat
        assert a.iterations == b.iterations
        assert [row.survival for row in a.trace.iterations] == [
            row.survival for row in b.trace.iterations
        ]
        c = em_fit(fams, EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=22))
        assert c.beta_hat != a.beta_hat or c.trace.iterations[0] != a.trace.iterations[0]

    @pytest.mark.parametrize("cohort", sorted(GOLDEN_FITS))
    def test_seeded_fit_is_pinned(self, cohort):
        # a seeded fit gives the same bits from one version to the next, so a
        # speed change to either step cannot move an estimate unnoticed
        fams, _ = simulate_families(100, beta=-0.6, q=0.2, scenario="S1", seed=31)
        if cohort == "one covariate":
            fams = TestBootstrap.with_covariate(fams, 31)
        result = em_fit(fams, EMConfig(q=0.2, seed=3))
        digest = hashlib.sha256()
        for part in (
            np.float64(result.beta_hat), result.gamma_hat, result.covariance,
            result.baseline.times, result.baseline.increments,
            np.array([row.log_likelihood for row in result.trace.iterations]),
            result.marginals,
        ):
            digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
        assert digest.hexdigest() == GOLDEN_FITS[cohort]

    def test_weight_validity_and_structural_zeros(self):
        fams, _ = simulate_families(15, beta=-0.6, q=0.2, scenario="S1", seed=5)
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=2)
        result = em_fit(fams, config)
        for fam, fam_weights in zip(fams, result.weights):
            for rec in fam:
                w = fam_weights[rec.individual_id]
                assert 0.0 <= w.w_pat <= 1.0
                assert 0.0 <= w.w_mat <= 1.0
                assert 0.0 <= w.w_zero <= 1.0
                assert w.w_pat + w.w_mat + w.w_zero == pytest.approx(1.0, abs=1e-9)
                if rec.gene_test == 1:
                    assert w.w_zero == 0.0
                if rec.status == 1:
                    assert w.w_zero == 0.0

    def test_convergence_flag_consistent_with_trace(self):
        fams, _ = simulate_families(15, beta=-0.6, q=0.2, scenario="S2", seed=6)
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=2)
        result = em_fit(fams, config)
        assert result.converged
        tail = result.trace.iterations[-STABLE_WINDOW:]
        assert all(row.max_change < config.tol for row in tail)

        capped = em_fit(fams, EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=2, max_iter=3))
        assert not capped.converged
        assert capped.iterations == 3

    def test_trace_records_required_fields(self):
        fams, _ = simulate_families(10, beta=-0.6, q=0.2, scenario="S2", seed=13)
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=3)
        result = em_fit(fams, config)
        rows = result.trace.iterations
        assert [r.index for r in rows] == list(range(1, len(rows) + 1))
        assert all(len(r.survival) == len(config.test_ages) for r in rows)
        assert all(np.isfinite(r.log_evidence) for r in rows)
        assert all(np.isfinite(r.log_likelihood) for r in rows)
        assert rows[0].max_change == float("inf")
        assert isinstance(result.trace.warnings, list)

    @pytest.mark.parametrize(
        "scenario, correction", [("S0", False), ("S1", False), ("S1", True)]
    )
    def test_log_likelihood_is_monotone(self, scenario, correction):
        fams, _ = simulate_families(
            100, beta=-0.6, q=0.2, scenario=scenario, seed=31, mark_probands=correction
        )
        if correction:
            fams, _ = apply_proband_correction(fams)
        config = EMConfig(q=0.2, seed=5)
        result = em_fit(fams, config)
        steps = np.diff([row.log_likelihood for row in result.trace.iterations])
        assert result.iterations > 5
        assert np.all(steps >= 0.0), steps.min()
        assert not any("decreased" in w for w in result.trace.warnings)

    def test_fit_result_survival_curves(self):
        fams, _ = simulate_families(20, beta=-0.6, q=0.2, scenario="S2", seed=40)
        result = em_fit(fams, EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=1))
        ages = np.linspace(0, 90, 10)
        mat = result.survival("mat")(ages)
        pat = result.survival("pat")(ages)
        np.testing.assert_allclose(mat, np.exp(-result.baseline.cumulative(ages)))
        if result.beta_hat < 0:
            assert np.all(pat >= mat)

    def test_covariate_path_recovers_null_effect(self):
        # attach a noise covariate to simulated families: the EM must carry
        # it through the evidence factors and the M-step design, and its
        # estimate should be near zero
        fams, _ = simulate_families(150, beta=-0.6, q=0.2, scenario="S1", seed=44)
        rng = np.random.default_rng(44)
        with_cov = []
        for fam in fams:
            records = [
                replace(rec, covariates=(float(rng.normal()),)) for rec in fam
            ]
            with_cov.append(Pedigree(records))
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=3)
        result = em_fit(with_cov, config)
        assert result.converged
        assert result.gamma_hat.shape == (1,)
        gamma_se = result.std_errors[1]
        assert abs(result.gamma_hat[0]) < 3 * gamma_se
        assert abs(result.beta_hat + 0.6) < 4 * result.std_errors[0]

    def test_bootstrap_deterministic_across_jobs(self):
        fams, _ = simulate_families(25, beta=-0.6, q=0.2, scenario="S2", seed=50)
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=9)
        for B, jobs in ((6, 2), (7, 3)):  # an even and an uneven split
            serial = bootstrap_em(fams, config, B=B, jobs=1)
            parallel = bootstrap_em(fams, config, B=B, jobs=jobs)
            assert [replicate_key(r) for r in serial] == [replicate_key(r) for r in parallel]
        usable = [r for r in serial if r.error is None]
        assert usable, "all bootstrap replicates failed"
        with pytest.raises(ValueError, match="at least one"):
            bootstrap_em(fams, config, B=0)

    def test_oracle_pins_give_degenerate_weights(self):
        fams, truth = simulate_families(8, beta=-0.6, q=0.2, scenario="Oracle", seed=30)
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=4)
        result = em_fit(fams, config)
        lookup = {(t.family_id, t.individual_id): t.genotype for t in truth}
        for fam, fam_weights in zip(fams, result.weights):
            for rec in fam:
                w = fam_weights[rec.individual_id]
                state = lookup[(fam.family_id, rec.individual_id)]
                expected = {
                    Genotype.NON_CARRIER: (0.0, 0.0, 1.0),
                    Genotype.HET_PATERNAL: (1.0, 0.0, 0.0),
                    Genotype.HET_MATERNAL: (0.0, 1.0, 0.0),
                    Genotype.HOMOZYGOUS: (0.0, 1.0, 0.0),
                }[state]
                assert (w.w_pat, w.w_mat, w.w_zero) == expected


class TestWeightsOnDemand:
    """``FitResult.weights`` is built from the kept marginals when read."""

    @staticmethod
    def cohort():
        fams, _ = simulate_families(12, beta=-0.6, q=0.2, scenario="S1", seed=71)
        return fams, EMConfig(q=0.2, seed=4)

    def test_weights_equal_per_record_construction(self):
        fams, config = self.cohort()
        result = em_fit(fams, config)
        assert_weights_equal(result.weights, per_record_weights(fams, result.marginals))

    def test_fits_build_no_weights_until_read(self, monkeypatch):
        built = []

        def counted(*fields):
            built.append(fields)
            return PosteriorWeights(*fields)

        monkeypatch.setattr(inference, "PosteriorWeights", counted)
        fams, config = self.cohort()
        result = em_fit(fams, config)
        bootstrap_em(fams, config, B=3)
        assert built == []
        weights = result.weights
        assert len(built) == sum(map(len, fams))
        assert result.weights is weights and len(built) == sum(map(len, fams))

    def test_fits_on_parsed_families_build_no_records(self, monkeypatch):
        # the engine and the weights read the members' columns
        families, _ = simulate_families(200, beta=-0.6, q=0.2, scenario="S1", seed=72)
        text = format_ped(families)
        built = []
        monkeypatch.setattr(pedigree, "_record", lambda *values: built.append(values))
        monkeypatch.setattr(IndividualRecord, "__post_init__", lambda rec: built.append(rec))
        parsed = parse_ped(text)
        weights = em_fit(parsed, EMConfig(q=0.2, seed=4)).weights
        assert built == []
        assert [list(w) for w in weights] == [list(f.column("individual_id")) for f in parsed]
        assert all(isinstance(w, PosteriorWeights) for fam in weights for w in fam.values())
        # nor does the simulator, in any scenario and in a study unit
        for scenario in Scenario:
            simulate_families(
                30, beta=-0.6, q=0.2, scenario=scenario, seed=73, mark_probands=True
            )
        replicate_study([(30, -0.6)], list(Scenario), replicates=1, seed=74)
        assert built == []

    def test_later_engine_runs_leave_earlier_weights(self):
        # bootstrap replicates run on the fit's engine after the fit
        fams, config = self.cohort()
        model = em._Model(fams, config)
        first = em._em(model, config, np.arange(len(fams)))
        kept = first.marginals.copy()
        assert not first.marginals.flags.writeable
        em._em(model, replace(config, seed=9), np.repeat(np.arange(3), 4))
        assert first.marginals.tobytes() == kept.tobytes()
        assert_weights_equal(first.weights, per_record_weights(fams, kept))


class TestGatheredHazard:
    """EM gathers each record's cumulative hazard at its place on the run's
    jump grid; a fresh engine run at the baseline's own lookup gives the
    same marginals, bit for bit."""

    @staticmethod
    def fresh_run(fit, config):
        engine = inference.MarginalEngine(fit.families, config.q, config.epsilon, config.eta)
        hazard = fit.baseline.cumulative(engine.ages)
        return engine.run(fit.beta_hat, fit.gamma_hat, hazard)[0]

    @pytest.mark.parametrize("cohort", ["S1 proband", "covariate"])
    def test_fit_marginals_are_the_fitted_models(self, cohort):
        fams, _ = simulate_families(
            40, beta=-0.6, q=0.2, scenario="S1", seed=67, mark_probands=True
        )
        if cohort == "covariate":
            fams = TestBootstrap.with_covariate(fams, 67)
        else:
            fams, _ = apply_proband_correction(fams)
        config = EMConfig(q=0.2, seed=2)
        fit = em_fit(fams, config)
        assert fit.marginals.tobytes() == self.fresh_run(fit, config).tobytes()

    def test_bootstrap_draw_marginals_are_its_models(self):
        # a resample's jump grid is its own: the drawn affected ages
        fams, _ = simulate_families(40, beta=-0.6, q=0.2, scenario="S1", seed=68)
        fams = TestBootstrap.with_covariate(fams, 68)
        config = EMConfig(q=0.2, seed=3)
        model = _Model(fams, config)
        fit = em._em(model, config, np.arange(len(fams)))
        draws = np.random.default_rng(68).integers(0, len(fams), size=len(fams))
        replicate = em._em(model, replace(config, seed=4), draws)
        assert not np.array_equal(replicate.baseline.times, fit.baseline.times)
        assert replicate.marginals.tobytes() == self.fresh_run(replicate, config).tobytes()


class TestWeightTables:
    """Each iteration hands the M-step the origin split of the fitted
    records' marginals times their draw counts: the marginals themselves
    when every record is fitted, without the product when every family is
    drawn once, and the same bits as a row take and a product by the
    counts otherwise."""

    @pytest.mark.parametrize("suppressed", [False, True])
    @pytest.mark.parametrize("drawn", ["once each", "bootstrap"])
    def test_tables_are_the_fitted_rows_times_their_counts(self, suppressed, drawn):
        fams, _ = simulate_families(
            30, beta=-0.6, q=0.2, scenario="S1", seed=76, mark_probands=True
        )
        if suppressed:
            fams, _ = apply_proband_correction(fams)
        config = EMConfig(q=0.2, seed=6)
        model = _Model(fams, config)
        assert (model.rows.size < model.engine.total) == suppressed
        draws = (np.arange(len(fams)) if drawn == "once each"
                 else np.random.default_rng(76).integers(0, len(fams), size=len(fams)))
        family_counts = np.bincount(draws, minlength=len(fams))
        assert (family_counts == 1).all() == (drawn == "once each")
        counts = np.repeat(family_counts, model.sizes)[model.rows]
        tables, marginals = [], []
        engine_run, problem_fit = model.engine.run, model.problem.fit

        def run(*args):
            result = engine_run(*args)
            marginals.append(result[0])
            return result

        def fit(weights, **kwargs):
            tables.append(weights.copy())
            return problem_fit(weights, **kwargs)

        model.engine.run, model.problem.fit = run, fit
        result = em._em(model, config, draws)
        assert len(tables) == result.iterations > 1
        for table, m in zip(tables[1:], marginals):
            rows = m.take(model.rows, axis=0)
            expected = np.stack((rows[:, Genotype.HET_PATERNAL],
                                 rows[:, Genotype.HET_MATERNAL] + rows[:, Genotype.HOMOZYGOUS]))
            expected *= counts
            assert table.tobytes() == expected.tobytes()


class TestRunConstants:
    """What a run fixes before its first iteration: the random start, in
    draw order, and the places of the test ages on the jump grid."""

    def test_permuted_draw_starts_in_draw_order(self):
        # every family drawn once, in another order: the fit of the permuted
        # list is the oracle, and the record-order start gives another fit
        fams, _ = simulate_families(40, beta=-0.6, q=0.2, scenario="S1", seed=81)
        config = EMConfig(q=0.2, seed=5)
        draws = np.random.default_rng(81).permutation(len(fams))
        assert (np.bincount(draws) == 1).all()
        result = em._em(_Model(fams, config), config, draws)
        permuted = em_fit([fams[i] for i in draws], config)
        np.testing.assert_allclose(result.beta_hat, permuted.beta_hat, rtol=0, atol=1e-10)
        record_order = em_fit(fams, config)
        assert abs(result.beta_hat - record_order.beta_hat) > 1e-6

    def test_em_fit_start_is_the_identity_draws(self):
        # em_fit's draws=None starts from the uniform table itself; the
        # identity draw sums that table into zeros, which changes no bit
        fams, _ = simulate_families(30, beta=-0.6, q=0.2, scenario="S1", seed=83)
        config = EMConfig(q=0.2, seed=6)
        model = _Model(fams, config)
        fit = em._em(model, config, None)
        drawn = em._em(model, config, np.arange(len(fams)))
        assert fit.trace.iterations == drawn.trace.iterations
        assert fit.marginals.tobytes() == drawn.marginals.tobytes()

    @pytest.mark.parametrize("drawn", ["once each", "bootstrap"])
    def test_survival_is_the_baselines_at_the_test_ages(self, drawn):
        fams, _ = simulate_families(30, beta=-0.6, q=0.2, scenario="S1", seed=82)
        config = EMConfig(q=0.2, seed=7, test_ages=(10.0, 25.0, 47.5, 60.0, 95.0))
        draws = (np.arange(len(fams)) if drawn == "once each"
                 else np.random.default_rng(82).integers(0, len(fams), size=len(fams)))
        result = em._em(_Model(fams, config), config, draws)
        last = np.array(result.trace.iterations[-1].survival)
        expected = np.exp(-result.baseline.cumulative(config.test_ages))
        assert last.tobytes() == expected.tobytes()


class TestBootstrap:
    """Replicates are family counts on the fit's own compiled model."""

    @staticmethod
    def with_covariate(families, seed):
        rng = np.random.default_rng(seed)
        return [
            Pedigree([replace(rec, covariates=(float(rng.normal()),)) for rec in fam])
            for fam in families
        ]

    @pytest.mark.parametrize("cohort", ["S1 proband", "covariate"])
    def test_replicates_match_fits_of_the_resampled_families(self, cohort):
        # the resampled family list, fitted on its own, is the oracle
        if cohort == "S1 proband":
            fams, _ = simulate_families(
                40, beta=-0.6, q=0.2, scenario="S1", seed=61, mark_probands=True
            )
            fams, _ = apply_proband_correction(fams)
            config = EMConfig(q=0.2, seed=8)
        else:
            fams, _ = simulate_families(40, beta=-0.6, q=0.2, scenario="S1", seed=62)
            fams = self.with_covariate(fams, 62)
            config = EMConfig(q=0.2, seed=8)
        reps = bootstrap_em(fams, config, B=4)
        for r, rep in enumerate(reps):
            resample_seed, em_seed = np.random.SeedSequence((config.seed, r)).spawn(2)
            rng = np.random.Generator(np.random.Philox(resample_seed))
            idx = rng.integers(0, len(fams), size=len(fams))
            rep_config = replace(config, seed=int(em_seed.generate_state(1)[0]))
            try:
                fit = em_fit([fams[i] for i in idx], rep_config)
            except EMError as err:
                assert (rep.error, rep.converged) == (str(err), False)
                continue
            assert rep.error is None and rep.converged == fit.converged
            np.testing.assert_allclose(rep.beta_hat, fit.beta_hat, rtol=1e-10)
            np.testing.assert_allclose(rep.gamma_hat, fit.gamma_hat, rtol=1e-10)
            np.testing.assert_array_equal(rep.baseline.times, fit.baseline.times)
            np.testing.assert_allclose(
                rep.baseline.increments, fit.baseline.increments, rtol=1e-10
            )
        assert any(rep.error is None for rep in reps)

    def test_one_engine_for_all_replicates(self, monkeypatch):
        compiled = []

        class CountingEngine(inference.MarginalEngine):
            def __init__(self, families, *model):
                compiled.append(len(families))
                super().__init__(families, *model)

        monkeypatch.setattr(em, "MarginalEngine", CountingEngine)
        fams, _ = simulate_families(15, beta=-0.6, q=0.2, scenario="S2", seed=63)
        reps = bootstrap_em(fams, EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=1), B=5)
        assert len(reps) == 5
        assert compiled == [15]

    def test_replicates_need_no_table_the_fit_did_not(self, monkeypatch):
        # a resample that draws the larger families more often than the
        # cohort holds them needs more potential bytes than the fit; with the
        # budget at the fit's own need, every replicate must still run
        rng = np.random.default_rng(64)
        fams, _ = simulate_families(8, beta=-0.6, q=0.2, scenario="S1", seed=64)
        fams += [sized_family(rng, f"B{k}", children) for k, children in enumerate((2, 4, 6, 8))]
        config = EMConfig(q=0.2, seed=3)
        need = _Model(fams, config).engine.stats.potential_bytes
        monkeypatch.setattr(inference, "MAX_POTENTIAL_BYTES", need)
        em_fit(fams, config)
        reps = bootstrap_em(fams, config, B=6)
        assert len(reps) == 6

    def test_inference_error_fails_only_its_replicate(self, monkeypatch):
        fams, _ = simulate_families(20, beta=-0.6, q=0.2, scenario="S1", seed=66)
        config = EMConfig(q=0.2, seed=5)
        clean = bootstrap_em(fams, config, B=3)
        fail_replicate(monkeypatch, 1, "F7")
        reps = bootstrap_em(fams, config, B=3)
        failed = reps[1]
        assert (failed.error, failed.converged) == (str(inference.ZeroEvidenceError("F7")), False)
        assert np.isnan(failed.beta_hat) and failed.baseline is None
        assert [replicate_key(r) for r in reps[::2]] == [replicate_key(r) for r in clean[::2]]
        assert all(r.error is None for r in clean)

    def test_pool_never_outnumbers_its_tasks(self, monkeypatch):
        started = []

        class InlineExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        assert _fan_out(abs, [-1, -2], jobs=8) == [1, 2]
        assert _fan_out(abs, [-3], jobs=8) == [3]  # one task: no pool at all
        assert started == [2]
        fams, _ = simulate_families(10, beta=-0.6, q=0.2, scenario="S2", seed=65)
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=2)
        pooled = bootstrap_em(fams, config, B=3, jobs=8)
        assert started == [2, 3]
        serial = bootstrap_em(fams, config, B=3, jobs=1)
        assert [replicate_key(r) for r in pooled] == [replicate_key(r) for r in serial]
