"""Simulator tests: hazard sampling, Mendelian genotypes, scenario masks."""

import math

import numpy as np
import pytest
from scipy import stats

from poosurv import (
    DEFAULT_HAZARD,
    FAMILY_TEMPLATE,
    EMConfig,
    Genotype,
    HazardSpec,
    IndividualRecord,
    Pedigree,
    PedigreeError,
    Scenario,
    apply_scenario_mask,
    em_fit,
    founder_prior,
    replicate_study,
    simulate,
    simulate_families,
)

from test_pedigree import _typed


class TestHazardSpec:
    def test_study_table_cumulative_values(self):
        assert DEFAULT_HAZARD.cumulative(10.0) == 0.0
        assert DEFAULT_HAZARD.cumulative(20.0) == 0.0
        assert DEFAULT_HAZARD.cumulative(40.0) == pytest.approx(0.4)
        assert DEFAULT_HAZARD.cumulative(50.0) == pytest.approx(1.4)
        assert DEFAULT_HAZARD.cumulative(70.0) == pytest.approx(2.9)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            e = float(rng.exponential(1.0))
            t = DEFAULT_HAZARD.inverse(e)
            assert DEFAULT_HAZARD.cumulative(t) == pytest.approx(e, rel=1e-12)

    def test_inverse_returns_a_python_float(self):
        assert type(DEFAULT_HAZARD.inverse(0.7)) is float
        families, truth = simulate_families(30, -0.6, 0.2, seed=1)
        assert all(type(age) is float for fam in families for age in fam.column("age"))
        assert all(type(rec.event_time) is float for rec in truth)

    def test_inverse_beyond_mass_is_infinite(self):
        finite = HazardSpec((0.0, 10.0), (0.1, 0.0))
        assert finite.inverse(0.5) == pytest.approx(5.0)
        assert finite.inverse(1.5) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            HazardSpec((5.0, 10.0), (0.1, 0.2))  # must start at 0
        with pytest.raises(ValueError):
            HazardSpec((0.0, 10.0), (0.1, -0.2))
        with pytest.raises(ValueError):
            HazardSpec((0.0, 10.0, 5.0), (0.1, 0.2, 0.3))
        for cuts, rates in (((0.0,), (math.nan,)), ((0.0,), (math.inf,)),
                            ((0.0, math.nan), (0.0, 0.1)), ((0.0, math.inf), (0.0, 0.1))):
            with pytest.raises(ValueError, match="finite"):
                HazardSpec(cuts, rates)
        # and the allele frequency a simulation draws founders with
        for q in (1.5, -0.2, math.nan):
            with pytest.raises(ValueError, match=r"q must be in \[0, 1\]"):
                simulate_families(2, beta=-0.6, q=q, hazard=DEFAULT_HAZARD)


class TestFamilyStructure:
    def test_template_shape(self):
        assert len(FAMILY_TEMPLATE) == 10
        founders = [row for row in FAMILY_TEMPLATE if row[1] is None]
        assert len(founders) == 4

    def test_simulated_families_follow_template(self):
        families, truth = simulate_families(5, beta=-0.6, q=0.2, scenario="S0", seed=1)
        assert len(families) == 5
        assert len(truth) == 50
        for fam in families:
            assert len(fam) == 10
            for rec, row in zip(fam, FAMILY_TEMPLATE):
                assert rec.individual_id == row[0]
                assert rec.father_id == row[1]
                assert rec.mother_id == row[2]
                assert rec.sex == row[3]

    def test_determinism_and_scenario_shared_truth(self):
        fams_a, truth_a = simulate_families(6, beta=-0.6, q=0.2, scenario="S1", seed=42)
        fams_b, truth_b = simulate_families(6, beta=-0.6, q=0.2, scenario="S1", seed=42)
        assert truth_a == truth_b
        for fa, fb in zip(fams_a, fams_b):
            assert fa.individuals == fb.individuals
        # same seed, different scenario: identical hidden truth
        _, truth_c = simulate_families(6, beta=-0.6, q=0.2, scenario="S2", seed=42)
        assert truth_a == truth_c


class TestGenotypes:
    def test_founder_genotypes_match_hardy_weinberg(self):
        families, truth = simulate_families(
            2500, beta=-0.6, q=0.2, scenario="S0", seed=11
        )
        founder_ids = {row[0] for row in FAMILY_TEMPLATE if row[1] is None}
        counts = np.zeros(4)
        for t in truth:
            if t.individual_id in founder_ids:
                counts[t.genotype] += 1
        assert counts.sum() == 10000
        expected = founder_prior(0.2) * counts.sum()
        _, p = stats.chisquare(counts, expected)
        assert p > 0.01

    def test_het_child_of_single_carrier_parent_tracks_parent_sex(self):
        families, truth = simulate_families(
            800, beta=-0.6, q=0.2, scenario="S0", seed=12
        )
        geno = {(t.family_id, t.individual_id): t.genotype for t in truth}
        checked = 0
        for fam in families:
            for rec in fam:
                if rec.is_founder:
                    continue
                child = geno[(fam.family_id, rec.individual_id)]
                father = geno[(fam.family_id, rec.father_id)]
                mother = geno[(fam.family_id, rec.mother_id)]
                father_carrier = father != Genotype.NON_CARRIER
                mother_carrier = mother != Genotype.NON_CARRIER
                if child not in (Genotype.HET_PATERNAL, Genotype.HET_MATERNAL):
                    continue
                if father_carrier and not mother_carrier:
                    assert child == Genotype.HET_PATERNAL
                    checked += 1
                elif mother_carrier and not father_carrier:
                    assert child == Genotype.HET_MATERNAL
                    checked += 1
        assert checked > 100

    def test_poo_labels_match_genotypes(self):
        _, truth = simulate_families(50, beta=-0.6, q=0.2, scenario="S0", seed=13)
        label = {
            Genotype.NON_CARRIER: "none",
            Genotype.HET_PATERNAL: "pat",
            Genotype.HET_MATERNAL: "mat",
            Genotype.HOMOZYGOUS: "both",
        }
        for t in truth:
            assert t.poo == label[t.genotype]


@pytest.fixture(scope="module")
def big_truth():
    _, truth = simulate_families(7000, beta=-0.6, q=0.2, scenario="S0", seed=14)
    return truth


class TestEventTimes:

    def test_no_event_before_hazard_onset(self, big_truth):
        for t in big_truth:
            assert t.event_time >= 20.0

    def test_carrier_maternal_survival_matches_hazard(self, big_truth):
        times = np.array(
            [t.event_time for t in big_truth if t.poo in ("mat", "both")]
        )
        assert times.size >= 10000
        for age in (30.0, 50.0, 70.0):
            expected = math.exp(-DEFAULT_HAZARD.cumulative(age))
            observed = float(np.mean(times > age))
            sigma = math.sqrt(expected * (1 - expected) / times.size)
            assert abs(observed - expected) <= 3 * sigma

    def test_carrier_paternal_survival_scaled_by_beta(self, big_truth):
        times = np.array([t.event_time for t in big_truth if t.poo == "pat"])
        assert times.size >= 10000
        for age in (40.0, 60.0):
            expected = math.exp(
                -DEFAULT_HAZARD.cumulative(age) * math.exp(-0.6)
            )
            observed = float(np.mean(times > age))
            sigma = math.sqrt(expected * (1 - expected) / times.size)
            assert abs(observed - expected) <= 3 * sigma

    def test_censoring_uniform_on_window(self, big_truth):
        censor = np.array([t.censor_time for t in big_truth])
        assert censor.min() >= 15.0 and censor.max() <= 80.0
        _, p = stats.kstest(censor, "uniform", args=(15.0, 65.0))
        assert p > 0.01

    def test_observed_age_is_min_and_status_indicator(self):
        families, truth = simulate_families(30, beta=-0.6, q=0.2, scenario="S0", seed=15)
        lookup = {(t.family_id, t.individual_id): t for t in truth}
        for fam in families:
            for rec in fam:
                t = lookup[(fam.family_id, rec.individual_id)]
                assert rec.age == pytest.approx(min(t.event_time, t.censor_time))
                assert rec.status == int(t.event_time <= t.censor_time)


class TestScenarioLookup:
    def test_values_match_case_insensitively(self):
        assert Scenario("s1") is Scenario.S1
        assert Scenario("oracle") is Scenario.ORACLE
        assert Scenario(Scenario.S0) is Scenario.S0

    def test_unknown_value_is_rejected(self):
        with pytest.raises(ValueError, match="'S9' is not a valid Scenario"):
            Scenario("S9")


class TestScenarioMasks:
    def test_s0_all_missing(self):
        families, _ = simulate_families(20, beta=-0.6, q=0.2, scenario="S0", seed=16)
        assert all(rec.gene_test is None for fam in families for rec in fam)

    def test_s2_everyone_tested_and_error_free(self):
        families, truth = simulate_families(20, beta=-0.6, q=0.2, scenario="S2", seed=17)
        geno = {(t.family_id, t.individual_id): t.genotype for t in truth}
        for fam in families:
            for rec in fam:
                assert rec.gene_test is not None
                carrier = geno[(fam.family_id, rec.individual_id)] != Genotype.NON_CARRIER
                assert rec.gene_test == int(carrier)

    def test_s1_observation_rates(self):
        families, _ = simulate_families(2000, beta=-0.6, q=0.2, scenario="S1", seed=18)
        affected_seen = affected_total = 0
        unaffected_seen = unaffected_total = 0
        for fam in families:
            for rec in fam:
                if rec.status == 1:
                    affected_total += 1
                    affected_seen += rec.gene_test is not None
                else:
                    unaffected_total += 1
                    unaffected_seen += rec.gene_test is not None
        for seen, total, p in (
            (affected_seen, affected_total, 0.8),
            (unaffected_seen, unaffected_total, 0.1),
        ):
            sigma = math.sqrt(p * (1 - p) / total)
            assert abs(seen / total - p) <= 3 * sigma

    def test_oracle_reveals_everyone(self):
        families, truth = simulate_families(10, beta=-0.6, q=0.2, scenario="Oracle", seed=19)
        assert all(rec.gene_test is not None for fam in families for rec in fam)
        pins = {(rec.family_id, rec.individual_id): rec.genotype_pin
                for fam in families for rec in fam}
        assert pins == {(t.family_id, t.individual_id): (int(t.genotype),) for t in truth}

    def test_mask_function_standalone(self):
        families, truth = simulate_families(8, beta=-0.6, q=0.2, scenario="S0", seed=20)
        masked = apply_scenario_mask(families, truth, Scenario.S2, seed=0)
        assert all(rec.gene_test is not None for fam in masked for rec in fam)
        assert all(rec.genotype_pin is None for fam in masked for rec in fam)
        # original families untouched
        assert all(rec.gene_test is None for fam in families for rec in fam)

    def test_mask_leaves_its_seed_sequence_unspent(self):
        families, truth = simulate_families(20, beta=-0.6, q=0.2, scenario="S0", seed=22)
        seed = np.random.SeedSequence(7)

        def tests(masked):
            return [[rec.gene_test for rec in fam] for fam in masked]

        first = tests(apply_scenario_mask(families, truth, "S1", seed))
        assert tests(apply_scenario_mask(families, truth, "S1", seed)) == first
        assert tests(apply_scenario_mask(families, truth, "S1", 7)) == first
        assert seed.n_children_spawned == 0

    def test_mask_equals_validating_constructor(self):
        # the simulator's families, built from the cohort's columns, equal
        # families of records with the template's ids, links and sexes and
        # the drawn values, checked one record at a time
        for mark_probands in (False, True):
            families, truth = simulate_families(
                6, beta=-0.6, q=0.2, scenario="S1", seed=23, mark_probands=mark_probands
            )
            assert any(rec.proband for fam in families for rec in fam) == mark_probands
            for scenario in Scenario:
                masked = apply_scenario_mask(families, truth, scenario, seed=4)
                rebuilt = [
                    Pedigree(
                        IndividualRecord(
                            fam.family_id, *row, age=rec.age, status=rec.status,
                            gene_test=new.gene_test, proband=rec.proband,
                            genotype_pin=new.genotype_pin,
                        )
                        for row, rec, new in zip(FAMILY_TEMPLATE, fam, copy)
                    )
                    for fam, copy in zip(families, masked)
                ]
                assert _typed(masked) == _typed(rebuilt)
                for copy, fam in zip(masked, rebuilt):
                    for rec in fam:
                        assert copy.position(rec.individual_id) == fam.position(
                            rec.individual_id
                        )

    def test_value_copy_refuses_structural_fields(self):
        (fam,), _ = simulate_families(1, beta=-0.6, q=0.2, scenario="S0", seed=24)
        for name, value in (("age", 1.0), ("father_id", None), ("proband", True)):
            with pytest.raises(ValueError, match=f"structural field.*{name}"):
                fam.with_values(**{name: [value] * len(fam)})
        with pytest.raises(ValueError, match="values for 10 records"):
            fam.with_values(gene_test=[1])
        with pytest.raises(PedigreeError, match="invalid gene_test"):
            fam.with_values(gene_test=[2] * len(fam))

    def test_value_copy_shares_what_it_keeps(self):
        (fam,), _ = simulate_families(1, beta=-0.6, q=0.2, scenario="S0", seed=25)
        assert fam.with_values(gene_test=[None] * len(fam)) is fam
        tests = [None] * len(fam)
        tests[2] = 1
        copy = fam.with_values(gene_test=tests)
        assert copy.record("3").gene_test == 1 and fam.record("3").gene_test is None
        assert [vars(new) for new in copy if new.individual_id != "3"] == [
            vars(old) for old in fam if old.individual_id != "3"
        ]

    def test_value_copy_shares_the_structure_key(self):
        # the key is computed once, on the first call or the first copy,
        # and every copy returns that same object
        (fam,), _ = simulate_families(1, beta=-0.6, q=0.2, scenario="S0", seed=26)
        tests = [None] * len(fam)
        tests[0] = 0
        copy = fam.with_values(gene_test=tests)
        key = fam.structure_key()
        assert fam.structure_key() is key and copy.structure_key() is key
        assert copy.with_values(phenotype_suppressed=[True] * len(fam)).structure_key() is key
        assert key == Pedigree(list(fam)).structure_key()

    def test_mark_probands_flags_first_affected(self):
        families, _ = simulate_families(
            40, beta=-0.6, q=0.2, scenario="S1", seed=21, mark_probands=True
        )
        for fam in families:
            probands = [rec for rec in fam if rec.proband]
            affected = [rec for rec in fam if rec.status == 1]
            if affected:
                assert len(probands) == 1
                assert probands[0].individual_id == affected[0].individual_id
            else:
                assert not probands


class TestReplicateStudy:
    def test_rows_complete_and_deterministic(self):
        args = dict(replicates=2, seed=33, q=0.2)
        rows_a = replicate_study([(6, -0.6)], ["S1", "S2"], **args)
        rows_b = replicate_study([(6, -0.6)], ["S1", "S2"], **args)
        assert rows_a == rows_b
        assert len(rows_a) == 4
        assert [r.scenario for r in rows_a] == ["S1", "S1", "S2", "S2"]
        assert all(r.case == "n6_beta-0.6" for r in rows_a)

    def test_jobs_do_not_change_results(self):
        kwargs = dict(replicates=3, seed=5)
        serial = replicate_study([(5, -0.6)], ["S2"], **kwargs, jobs=1)
        parallel = replicate_study([(5, -0.6)], ["S2"], **kwargs, jobs=2)
        assert serial == parallel

    def test_rows_equal_one_simulation_per_row(self):
        # the reference simulates every row afresh under the row's scenario,
        # where the study simulates each (case, replicate) once
        cases, scenarios, replicates, seed, q = [(8, -0.6)], list(Scenario), 2, 3, 0.2
        rows = iter(replicate_study(cases, scenarios, replicates, seed=seed, q=q))
        for case_index, (n, beta) in enumerate(cases):
            for scenario in scenarios:
                for replicate in range(replicates):
                    entropy = (seed, case_index, replicate)
                    families, _ = simulate_families(
                        n, beta, q, scenario=scenario, seed=entropy
                    )
                    em_seed = int(
                        np.random.SeedSequence(entropy + (1,)).generate_state(1)[0]
                    )
                    fit = em_fit(families, EMConfig(q=q, epsilon=0.0, eta=0.0, seed=em_seed))
                    row = next(rows)
                    assert (row.case, row.scenario, row.replicate, row.seed, row.error) == (
                        f"n{n}_beta{beta:g}", scenario.value, replicate,
                        f"{seed}-{case_index}-{replicate}", "",
                    )
                    assert row.beta_hat == fit.beta_hat
                    assert row.se == float(fit.std_errors[0])
                    assert row.iterations == fit.iterations
                    assert row.converged == fit.converged
        assert next(rows, None) is None

    def test_each_unit_simulates_once(self, monkeypatch):
        calls = []
        original = simulate._simulate_family

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(simulate, "_simulate_family", counted)
        rows = replicate_study([(3, -0.6), (2, -1.2)], list(Scenario), replicates=2, seed=4)
        assert len(rows) == 2 * 4 * 2
        # one simulation of each family per (case, replicate) unit
        assert len(calls) == (3 + 2) * 2

    def test_failures_recorded_not_raised(self):
        # a single tiny family often has no informative events: the M-step
        # rank check fails and the row must carry the reason
        rows = replicate_study([(1, -0.6)], ["S0"], replicates=8, seed=2)
        assert len(rows) == 8
        failed = [r for r in rows if r.error]
        # seed 2 gives 3 of 8 one-family replicates without a weighted event
        assert failed
        for r in failed:
            assert r.error.startswith("EMError:")
            assert math.isnan(r.beta_hat)
            assert not r.converged
        assert all(math.isfinite(r.beta_hat) for r in rows if not r.error)
