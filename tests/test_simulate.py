"""Simulator tests: hazard sampling, Mendelian genotypes, scenario masks."""

import dataclasses
import hashlib
import math
import re

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
    TruthRecord,
    apply_scenario_mask,
    em_fit,
    format_ped,
    format_truth,
    founder_prior,
    parse_ped,
    parse_truth,
    pin_genotypes,
    replicate_study,
    simulate,
    simulate_families,
)

from test_inference import random_pedigree
from test_pedigree import _typed


#: SHA-256 of ``format_ped`` + ``format_truth`` of
#: ``simulate_families(40, -0.6, 0.2, scenario=s, seed=11, mark_probands=p)``.
#: S2 and Oracle write the same files; Oracle's pins are checked beside them.
GOLDEN_SIMULATION = {
    ("S0", False): "9ddbabf3912a94799738d458f92bde9ab1ff394942768d8da33cdf1fb8d9ad34",
    ("S0", True): "5f6b7299b3c10800a623bdfd5b97905ddb6dab83477008484b3056ae8e4cb194",
    ("S1", False): "48b59e47c5a7f37f624c972a0680c77c6bf16214723807b54d25790bf09dea07",
    ("S1", True): "14958eb00254d26fca315749a69f421380d1ad2c17b80e80dab6aa97e44ba0c4",
    ("S2", False): "9043463ff0d8abd7b6b41c5b378383ae6aafd26542878cead452141f8e1bde45",
    ("S2", True): "9ddec8fad223ae5016d3f366e4861b22442b7e15451e818a0772c196958a9f7e",
    ("Oracle", False): "9043463ff0d8abd7b6b41c5b378383ae6aafd26542878cead452141f8e1bde45",
    ("Oracle", True): "9ddec8fad223ae5016d3f366e4861b22442b7e15451e818a0772c196958a9f7e",
}


@pytest.mark.parametrize("scenario, mark_probands", sorted(GOLDEN_SIMULATION))
def test_seeded_simulation_output_is_pinned(scenario, mark_probands):
    # seeded simulator output is part of the study's reproducibility: the
    # same seed writes the same files from one version to the next
    families, truth = simulate_families(
        40, -0.6, 0.2, scenario=scenario, seed=11, mark_probands=mark_probands
    )
    text = format_ped(families) + format_truth(truth)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_SIMULATION[(scenario, mark_probands)]
    pins = [pin for fam in families for pin in fam.column("genotype_pin")]
    oracle = scenario == "Oracle"
    assert pins == [(int(t.genotype),) if oracle else None for t in truth]


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
        with pytest.raises(ValueError, match="^need one rate per cut point$"):
            HazardSpec((0.0, 10.0), (0.1,))
        with pytest.raises(ValueError, match="^need one rate per cut point$"):
            HazardSpec((), ())
        for target in (0.0, -1.0):
            with pytest.raises(ValueError, match="^target must be positive$"):
                DEFAULT_HAZARD.inverse(target)
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

    def test_censoring_ages_lie_in_the_half_open_window(self, big_truth):
        # 15 + 65 * U with U in [0, 1) never reaches 80
        censor = np.array([t.censor_time for t in big_truth])
        assert ((censor >= 15.0) & (censor < 80.0)).all()

    def test_observed_age_is_min_and_status_indicator(self):
        families, truth = simulate_families(30, beta=-0.6, q=0.2, scenario="S0", seed=15)
        lookup = {(t.family_id, t.individual_id): t for t in truth}
        for fam in families:
            for rec in fam:
                t = lookup[(fam.family_id, rec.individual_id)]
                assert rec.age == pytest.approx(min(t.event_time, t.censor_time))
                assert rec.status == int(t.event_time <= t.censor_time)


class TestTruthRecords:
    def test_simulated_records_are_dataclass_records(self):
        _, truth = simulate_families(4, beta=-0.6, q=0.2, scenario="S0", seed=16)
        for record in truth:
            built = TruthRecord(
                record.family_id, record.individual_id, record.genotype, record.poo,
                record.event_time, record.censor_time,
            )
            assert type(record) is TruthRecord
            assert record == built and hash(record) == hash(built)
            assert repr(record) == repr(built) and vars(record) == vars(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.poo = "pat"
        assert len(set(truth)) == len(truth)


_POO = {
    Genotype.NON_CARRIER: "none",
    Genotype.HET_PATERNAL: "pat",
    Genotype.HET_MATERNAL: "mat",
    Genotype.HOMOZYGOUS: "both",
}


def _reference_draw(family_id, rows, rng, beta, q, hazard):
    """The phenotype draw of the benchmark's heterogeneous cohorts (the loop
    of ``_phenotypes`` in ``perfbench/cohort.py``, with ``beta``, ``q`` and
    the hazard as arguments): ages, statuses and truth records of the
    (id, father id, mother id) ``rows``, parents first."""
    ages, statuses, truth, genotypes = [], [], [], {}
    for individual_id, father, mother in rows:
        if father is None:
            from_father, from_mother = rng.random() < q, rng.random() < q
        else:
            transmit = (0.0, 0.5, 0.5, 1.0)
            from_father = rng.random() < transmit[genotypes[father]]
            from_mother = rng.random() < transmit[genotypes[mother]]
        genotype = Genotype(int(from_father) + 2 * int(from_mother))
        genotypes[individual_id] = genotype
        if genotype == Genotype.NON_CARRIER:
            onset = math.inf
        else:
            scale = math.exp(beta) if genotype == Genotype.HET_PATERNAL else 1.0
            onset = hazard.inverse(rng.exponential(1.0) / scale)
        censor = rng.uniform(15.0, 80.0)
        affected = onset <= censor
        ages.append(onset if affected else censor)
        statuses.append(int(affected))
        truth.append(TruthRecord(
            family_id=family_id, individual_id=individual_id, genotype=genotype,
            poo=_POO[genotype], event_time=onset, censor_time=censor,
        ))
    return ages, statuses, truth


def _bits(values):
    """Each float's type and exact bits."""
    return [(type(v), float.hex(v)) for v in values]


def _is_looped(pedigree):
    """Whether the mating graph (members plus one node per couple) has a cycle."""
    couples = {key for key in pedigree.structure_key() if key != (-1, -1)}
    children = sum(key != (-1, -1) for key in pedigree.structure_key())
    return 2 * len(couples) + children > len(pedigree) + len(couples) - 1


class TestAnyStructure:
    """``_simulate_family`` draws the structure it is given, the same
    draw the benchmark's heterogeneous cohorts write out by hand."""

    def test_draws_bit_for_bit_as_the_reference(self):
        rng = np.random.default_rng(41)
        sizes = [40, 2, *rng.integers(2, 41, size=318).tolist()]
        families = [
            random_pedigree(rng, size, f"H{i}", with_loop=size >= 9 and i % 3 == 0)
            for i, size in enumerate(sizes)
        ]
        assert len({fam.structure_key() for fam in families}) >= 300
        assert sum(map(_is_looped, families)) >= 100
        assert max(map(len, families)) == 40
        hazards = (DEFAULT_HAZARD, HazardSpec((0.0, 30.0), (0.01, 0.2)))
        seeds = np.random.SeedSequence(42).spawn(len(families))
        for k, (fam, seed) in enumerate(zip(families, seeds)):
            beta, q, hazard = (-0.6, 0.4, -1.2)[k % 3], (0.2, 0.35)[k % 2], hazards[k % 4 // 3]
            ids = fam.column("individual_id")
            rows = zip(ids, fam.column("father_id"), fam.column("mother_id"))
            want_ages, want_statuses, want_truth = _reference_draw(
                fam.family_id, rows, np.random.Generator(np.random.Philox(seed)), beta, q, hazard
            )
            ages, statuses, probands, truth = simulate._simulate_family(
                fam.family_id, ids, fam.structure_key(),
                np.random.Generator(np.random.Philox(seed)), beta, q, hazard, True,
            )
            assert _bits(ages) == _bits(want_ages)
            assert statuses == want_statuses
            assert list(map(type, statuses)) == [int] * len(ids)
            assert truth == want_truth
            for got, want in zip(truth, want_truth):
                assert _bits((got.event_time, got.censor_time)) == _bits(
                    (want.event_time, want.censor_time)
                )
            first = statuses.index(1) if 1 in statuses else -1
            assert probands == [i == first for i in range(len(ids))]

    def test_template_families_are_the_template_draw(self):
        families, truth = simulate_families(5, -0.6, 0.2, seed=43)
        seeds = simulate._children(simulate._seed_roots(43)[0], 5)
        for fam, seed, k in zip(families, seeds, range(0, 50, 10)):
            rows = [row[:3] for row in FAMILY_TEMPLATE]
            ages, statuses, want = _reference_draw(
                fam.family_id, rows, np.random.Generator(np.random.Philox(seed)),
                -0.6, 0.2, DEFAULT_HAZARD,
            )
            assert _bits(fam.column("age")) == _bits(ages)
            assert list(fam.column("status")) == statuses
            assert truth[k:k + 10] == want


class TestTruthSidecar:
    @pytest.mark.parametrize("line", ["F1 1 pat", "F1 1 pat pat extra"])
    def test_row_of_another_column_count_is_refused(self, line):
        text = f"# family_id individual_id true_genotype true_poo\n\n{line}\n"
        with pytest.raises(ValueError, match="^truth sidecar line 3: expected 4 columns$"):
            parse_truth(text)


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

    def test_member_without_truth_is_named(self):
        families, truth = simulate_families(5, beta=-0.6, q=0.2, scenario="S0", seed=27)
        partial = [t for t in truth if (t.family_id, t.individual_id) != ("F4", "1")]
        for scenario in Scenario:
            with pytest.raises(ValueError, match="family F4: individual 1 has no truth record"):
                apply_scenario_mask(families, partial, scenario, seed=0)

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


def _reference_mask(families, truth, scenario, seed):
    """The mask one family at a time: per-member draws and ``with_values``."""
    scenario = Scenario(scenario)
    genotype = {(t.family_id, t.individual_id): t.genotype for t in truth}
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    fresh = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key,
                                   pool_size=root.pool_size)
    draws = scenario == Scenario.S1
    mask_seeds = fresh.spawn(len(families)) if draws else [None] * len(families)
    masked = []
    for fam, fam_seed in zip(families, mask_seeds):
        states = [genotype[(fam.family_id, i)] for i in fam.column("individual_id")]
        if draws:
            rng = np.random.Generator(np.random.Philox(fam_seed))
            observed = [rng.random() < (0.8 if status == 1 else 0.1)
                        for status in fam.column("status")]
        else:
            observed = [scenario != Scenario.S0] * len(fam)
        oracle = scenario == Scenario.ORACLE
        masked.append(fam.with_values(
            gene_test=[
                int(state != Genotype.NON_CARRIER) if seen else None
                for state, seen in zip(states, observed)
            ],
            genotype_pin=[(int(state),) if oracle else None for state in states],
        ))
    return masked


class TestCohortMask:
    """The cohort-wide mask against the per-family reference above."""

    @staticmethod
    def _assert_as_reference(families, truth, scenario, seed):
        masked = apply_scenario_mask(families, truth, scenario, seed)
        expected = _reference_mask(families, truth, scenario, seed)
        assert _typed(masked) == _typed(expected)
        for fam, new, old in zip(families, masked, expected):
            assert (new is fam) == (old is fam)
            assert new.structure_key() is fam.structure_key()
        return masked

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_simulated_cohorts(self, scenario):
        _, mask_root = simulate._seed_roots(29)
        for drawn_as in Scenario:
            families, truth = simulate_families(
                30, beta=-0.6, q=0.2, scenario=drawn_as, seed=29, mark_probands=True
            )
            for seed in (mask_root, 3, np.random.SeedSequence(8)):
                self._assert_as_reference(families, truth, scenario, seed)
            # the simulator draws with the same root: masking its own
            # scenario again changes no family
            if scenario == drawn_as:
                masked = apply_scenario_mask(families, truth, scenario, mask_root)
                assert all(new is fam for new, fam in zip(masked, families))

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_parsed_cohorts_with_tests_and_pins(self, scenario):
        # families of 7 to 10 members, interleaved in the file, some already
        # tested (S1) and some members pinned, all overwritten by the mask
        families, truth = simulate_families(24, beta=-0.6, q=0.2, scenario="S1", seed=30)
        lines = format_ped(families).splitlines()
        kept = [line for line in lines[1:]
                if not (int(line.split()[0][1:]) % 3 and line.split()[1] in ("9", "10", "5"))]
        kept = kept[1::2] + kept[::2]
        parsed = parse_ped("\n".join(lines[:1] + kept) + "\n")
        assert len({len(fam) for fam in parsed}) > 1
        genotype = {(t.family_id, t.individual_id): t.genotype for t in truth}
        members = [(fam.family_id, i) for fam in parsed for i in fam.column("individual_id")]
        pins = {member: genotype[member] for member in members[::7]}
        cohorts = (parsed, pin_genotypes(parsed, pins))
        for cohort in cohorts:
            for seed in (0, 5):
                self._assert_as_reference(cohort, truth, scenario, seed)

    def test_unchanged_family_is_the_same_object(self):
        families, truth = simulate_families(6, beta=-0.6, q=0.2, scenario="S2", seed=31)
        tests = list(families[2].column("gene_test"))
        tests[0] = None
        families[2] = families[2].with_values(gene_test=tests)
        masked = apply_scenario_mask(families, truth, "S2", seed=0)
        assert [new is fam for new, fam in zip(masked, families)] == [
            True, True, False, True, True, True
        ]
        assert masked[2].column("gene_test") == tuple(
            int(t.genotype != Genotype.NON_CARRIER) for t in truth[20:30]
        )

    def test_empty_cohort(self):
        assert apply_scenario_mask([], [], "S1", seed=0) == []


class TestFamilyCounts:
    @pytest.mark.parametrize("n", [10.0, 2.7, True, False, "3", None])
    def test_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="number of families must be an integer"):
            simulate_families(n, -0.6, 0.2)
        with pytest.raises(ValueError, match="number of families must be an integer"):
            replicate_study([(n, -0.6)], ["S0"], replicates=1)

    def test_numpy_integers_are_counts(self):
        families, _ = simulate_families(np.int64(3), -0.6, 0.2)
        assert len(families) == 3
        (row,) = replicate_study([(np.int32(6), -0.6)], ["S2"], replicates=1, seed=1)
        assert row.case == "n6_beta-0.6"

    def test_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match="need at least one family"):
            simulate_families(0, -0.6, 0.2)
        with pytest.raises(ValueError, match="bad case 0:-0.6"):
            replicate_study([(0, -0.6)], ["S0"], replicates=1)


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

    @pytest.mark.parametrize("order", [
        ("S0", "S1", "S2", "Oracle"),
        ("Oracle", "S2", "S1", "S0"),
        ("S1", "Oracle", "S0", "S2"),
    ])
    def test_units_mask_as_apply_scenario_mask(self, monkeypatch, order):
        # a unit masks from its own simulation's columns; the truth lookup
        # of apply_scenario_mask on the same simulation is the reference
        simulated, fitted = [], []
        original_simulate = simulate.simulate_families

        def recorded_simulate(*args, **kwargs):
            simulated.append(original_simulate(*args, **kwargs))
            return simulated[-1]

        def recorded_fit(families, scenario, *args):
            fitted.append((families, scenario))
            return None

        monkeypatch.setattr(simulate, "simulate_families", recorded_simulate)
        monkeypatch.setattr(simulate, "_run_replicate", recorded_fit)
        replicate_study([(12, -0.6), (5, -1.2)], order, replicates=2, seed=34)
        assert len(simulated) == 4 and len(fitted) == 4 * len(order)
        for unit, (families, truth) in enumerate(simulated):
            entropy = (34, unit // 2, unit % 2)
            _, mask_root = simulate._seed_roots(entropy)
            for masked, scenario in fitted[unit * len(order):(unit + 1) * len(order)]:
                expected = apply_scenario_mask(families, truth, scenario, mask_root)
                assert len(masked) == len(expected) == len(families)
                for got, want, fam in zip(masked, expected, families):
                    assert got.column("gene_test") == want.column("gene_test")
                    assert got.column("genotype_pin") == want.column("genotype_pin")
                    assert (got is fam) == (want is fam)
                    assert got.structure_key() is fam.structure_key()

    def test_no_replicates_or_no_scenarios_are_refused(self):
        with pytest.raises(ValueError,
                           match="^replicates must be an integer of at least one, got 0$"):
            replicate_study([(5, -0.6)], ["S0"], replicates=0)
        with pytest.raises(ValueError, match="^need at least one scenario$"):
            replicate_study([(5, -0.6)], [], replicates=1)

    @staticmethod
    def refused_before_any_unit(monkeypatch, message, **args):
        ran = []
        monkeypatch.setattr(simulate, "_run_unit", ran.append)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replicate_study([(5, -0.6)], ["S2"], **{"replicates": 1, **args})
        assert ran == []

    def test_replicates_true_is_refused(self, monkeypatch):
        # it ran one replicate
        self.refused_before_any_unit(
            monkeypatch, "replicates must be an integer of at least one, got True",
            replicates=True)

    def test_fractional_replicates_are_refused(self, monkeypatch):
        # range() raised a TypeError
        self.refused_before_any_unit(
            monkeypatch, "replicates must be an integer of at least one, got 2.5",
            replicates=2.5)

    def test_no_jobs_is_refused(self, monkeypatch):
        # it ran the units serially
        self.refused_before_any_unit(
            monkeypatch, "jobs must be an integer of at least one, got 0", jobs=0)

    def test_seed_true_is_refused(self, monkeypatch):
        # it fitted as seed 1 and wrote "True-0-0" in every row's seed field
        self.refused_before_any_unit(
            monkeypatch, "seed must be a non-negative integer, got True", seed=True)

    def test_negative_seed_is_refused(self, monkeypatch):
        # numpy refused it inside SeedSequence, in the first unit
        self.refused_before_any_unit(
            monkeypatch, "seed must be a non-negative integer, got -1", seed=-1)

    def test_numpy_counts_and_seed_are_taken(self):
        args = dict(replicates=1, seed=3, jobs=1)
        expected = replicate_study([(4, -0.6)], ["S2"], **args)
        numpy_args = {name: np.int64(value) for name, value in args.items()}
        assert replicate_study([(4, -0.6)], ["S2"], **numpy_args) == expected

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


class TestOriginEffectRange:
    """exp(beta) scales the paternal hazard: a beta whose exponential
    overflows or underflows to 0 is refused before anything is drawn."""

    @pytest.mark.parametrize("beta", [710.0, 800.0, -746.0, -800.0])
    def test_simulation_refuses_it(self, beta):
        with pytest.raises(ValueError, match=f"beta {beta} is out of range"):
            simulate_families(3, beta, 0.2)

    @pytest.mark.parametrize("beta", [709.0, -745.0])
    def test_representable_scales_are_simulated(self, beta):
        families, truth = simulate_families(3, beta, 0.2, seed=35)
        assert len(families) == 3 and len(truth) == 30

    @pytest.mark.parametrize("beta", [800.0, -800.0])
    def test_study_refuses_it_before_any_unit(self, monkeypatch, beta):
        units = []
        monkeypatch.setattr(simulate, "_run_unit", units.append)
        with pytest.raises(ValueError, match=f"bad case 20:{beta}; beta {beta} is out of range"):
            replicate_study([(6, -0.6), (20, beta)], ["S1"], replicates=1)
        assert units == []
