"""Parsing, validation, and round-trip tests for the PED phenotype format."""

import io
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poosurv import (
    IndividualRecord,
    PedigreeError,
    Pedigree,
    Sex,
    format_ped,
    parse_ped,
    pin_genotypes,
    validate,
)

SMALL_FILE = """\
# covariates: 0
F1 1 0 0 1 70.0 0 -9 0
F1 2 0 0 2 65.0 1 1 0
F1 3 1 2 1 45.0 1 -9 0
F2 1 0 0 2 52.5 0 0 1
"""


def test_parse_basic_fields():
    families = parse_ped(SMALL_FILE)
    assert [f.family_id for f in families] == ["F1", "F2"]
    f1 = families[0]
    rec = f1.record("3")
    assert rec.father_id == "1" and rec.mother_id == "2"
    assert rec.sex == Sex.MALE
    assert rec.age == 45.0
    assert rec.status == 1
    assert rec.gene_test is None
    assert not rec.proband
    assert rec.covariates == ()


def test_parse_founder_row():
    families = parse_ped(SMALL_FILE)
    rec = families[0].record("1")
    assert rec.is_founder
    assert rec.father_id is None and rec.mother_id is None


def test_parse_gene_test_tokens():
    text = "\n".join(
        [
            "F1 1 0 0 1 50.0 0 -9 0",
            "F1 2 0 0 2 50.0 0 . 0",
            "F1 3 1 2 1 50.0 0 0 0",
            "F1 4 1 2 2 50.0 0 1 0",
        ]
    )
    fam = parse_ped(text)[0]
    assert fam.record("1").gene_test is None
    assert fam.record("2").gene_test is None
    assert fam.record("3").gene_test == 0
    assert fam.record("4").gene_test == 1


def test_parse_covariates_from_header():
    text = "# covariates: 2\nF1 1 0 0 1 50.0 0 -9 0 1.5 -0.25\n"
    fam = parse_ped(text)[0]
    assert fam.record("1").covariates == (1.5, -0.25)


def test_parse_reads_stream():
    families = parse_ped(io.StringIO(SMALL_FILE))
    assert len(families) == 2


def test_dangling_parent_reports_line_and_id():
    text = "F1 1 0 0 1 70.0 0 -9 0\nF1 3 1 9 1 45.0 1 -9 0\n"
    with pytest.raises(PedigreeError) as exc:
        parse_ped(text)
    message = str(exc.value)
    assert "9" in message and "line 2" in message and "F1" in message


def test_single_parent_rejected():
    text = "F1 1 0 0 1 70.0 0 -9 0\nF1 2 1 0 2 45.0 0 -9 0\n"
    with pytest.raises(PedigreeError):
        parse_ped(text)


def test_wrong_column_count():
    with pytest.raises(PedigreeError) as exc:
        parse_ped("F1 1 0 0 1 70.0 0 -9\n")
    assert "line 1" in str(exc.value)


def test_non_numeric_age():
    with pytest.raises(PedigreeError):
        parse_ped("F1 1 0 0 1 old 0 -9 0\n")


def test_sex_inconsistent_parent():
    text = "F1 1 0 0 2 70.0 0 -9 0\nF1 2 0 0 1 60.0 0 -9 0\nF1 3 1 2 1 30.0 0 -9 0\n"
    with pytest.raises(PedigreeError) as exc:
        parse_ped(text)
    assert "father" in str(exc.value)


def test_cycle_detected():
    # 1 and 2 are each other's fathers; 4, their descendant listed first, is
    # never reached either, while 6 below the founders 5 and 3 is
    text = (
        "# covariates: 0\n"
        "F1 4 1 3 1 20.0 0 -9 0\n"
        "F1 3 0 0 2 50.0 0 -9 0\n"
        "F1 1 2 3 1 70.0 0 -9 0\n"
        "F1 2 1 3 1 60.0 0 -9 0\n"
        "F1 5 0 0 1 50.0 0 -9 0\n"
        "F1 6 5 3 1 20.0 0 -9 0\n"
    )
    with pytest.raises(PedigreeError) as exc:
        parse_ped(text)
    assert str(exc.value) == "family F1, line 2: cycle in parent graph involving 1, 2, 4"
    assert (exc.value.family_id, exc.value.line) == ("F1", 2)


def test_covariate_arity_mismatch():
    text = "F1 1 0 0 1 70.0 0 -9 0 1.0\nF1 2 0 0 2 60.0 0 -9 0\n"
    with pytest.raises(PedigreeError):
        parse_ped(text)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_covariate_names_family_line_and_individual(token):
    text = (
        "# covariates: 2\n"
        "F1 1 0 0 1 70.0 0 -9 0 1.0 0.5\n"
        f"F1 2 0 0 2 60.0 1 -9 0 {token} 0.5\n"
    )
    with pytest.raises(PedigreeError) as exc:
        parse_ped(text)
    assert (exc.value.family_id, exc.value.line) == ("F1", 3)
    assert "individual 2" in str(exc.value) and "non-finite covariates" in str(exc.value)


def test_record_rejects_non_finite_covariates():
    with pytest.raises(PedigreeError, match="individual a has non-finite covariates"):
        IndividualRecord(
            "F", "a", None, None, Sex.MALE, 40.0, 0, covariates=(0.0, float("inf"))
        )


def test_round_trip_identical():
    families = parse_ped(SMALL_FILE)
    again = parse_ped(format_ped(families))
    assert len(again) == len(families)
    for a, b in zip(families, again):
        assert a.individuals == b.individuals


def test_round_trip_preserves_float_ages_and_covariates():
    text = "# covariates: 1\nF1 1 0 0 1 33.51234567890123 1 1 1 -2.718281828459045\n"
    fam = parse_ped(text)[0]
    again = parse_ped(format_ped([fam]))[0]
    assert again.record("1").age == 33.51234567890123
    assert again.record("1").covariates == (-2.718281828459045,)


IDS = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=4).filter(
    lambda token: token != "0"
)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ped_cohorts(draw):
    """Families with any ids, ages, covariates, tests and probands, rows shuffled."""
    n_cov = draw(st.integers(0, 3))
    family_ids = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    families = []
    for family_id in family_ids:
        ids = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
        records = []
        for ident in ids:
            males = [r.individual_id for r in records if r.sex == Sex.MALE]
            females = [r.individual_id for r in records if r.sex == Sex.FEMALE]
            father = mother = None
            if males and females and draw(st.booleans()):
                father = draw(st.sampled_from(males))
                mother = draw(st.sampled_from(females))
            records.append(IndividualRecord(
                family_id, ident, father, mother,
                draw(st.sampled_from([Sex.MALE, Sex.FEMALE])),
                draw(st.floats(min_value=0.0, allow_infinity=False)),
                draw(st.integers(0, 1)),
                draw(st.sampled_from([None, 0, 1])),
                draw(st.booleans()),
                tuple(draw(st.lists(FLOATS, min_size=n_cov, max_size=n_cov))),
            ))
        families.append(Pedigree(draw(st.permutations(records))))
    return families


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ped_cohorts())
def test_round_trip_property(families):
    again = parse_ped(format_ped(families))
    assert [f.family_id for f in again] == [f.family_id for f in families]
    for a, b in zip(families, again):
        assert b.individuals == a.individuals
        # equality alone would let -0.0 stand in for 0.0
        assert [repr(r.age) for r in b] == [repr(r.age) for r in a]
        assert [tuple(map(repr, r.covariates)) for r in b] == [
            tuple(map(repr, r.covariates)) for r in a
        ]


def test_founder_set_matches_absent_parents():
    families = parse_ped(SMALL_FILE)
    founders = [[r.individual_id for r in fam if r.is_founder] for fam in families]
    assert founders == [["1", "2"], ["1"]]
    for fam in families:
        for r in fam:
            assert r.is_founder == (r.father_id is None and r.mother_id is None)


def test_validate_multiple_probands():
    text = "F1 1 0 0 1 70.0 1 -9 1\nF1 2 0 0 2 65.0 1 -9 1\n"
    fam = parse_ped(text)[0]
    warnings = validate(fam)
    assert len(warnings) == 1
    assert "proband" in warnings[0].message


def test_validate_affected_negative_test_depends_on_epsilon():
    text = "F1 1 0 0 1 70.0 1 0 0\n"
    fam = parse_ped(text)[0]
    assert validate(fam) == []  # default error model permits it
    assert validate(fam, epsilon=0.001) == []
    warnings = validate(fam, epsilon=0)
    assert len(warnings) == 1
    assert warnings[0].individual_id == "1"


def test_pin_genotypes_stores_sorted_states():
    families = parse_ped(SMALL_FILE)
    pinned = pin_genotypes(families, {("F1", "2"): {3, 1, 2}, ("F2", "1"): 0})
    assert pinned[0].record("2").genotype_pin == (1, 2, 3)
    assert pinned[1].record("1").genotype_pin == (0,)
    assert pinned[0].record("1").genotype_pin is None
    assert families[0].record("2").genotype_pin is None  # input untouched
    assert pinned == families  # pins are not part of record equality


def test_pin_genotypes_rejects_unknown_individual():
    families = parse_ped(SMALL_FILE)
    with pytest.raises(PedigreeError, match="unknown individual 9"):
        pin_genotypes(families, {("F1", "1"): 0, ("F1", "9"): 1})


def test_pins_are_not_serialized():
    pinned = pin_genotypes(parse_ped(SMALL_FILE), {("F1", "3"): (1, 2)})
    again = parse_ped(format_ped(pinned))
    assert again == pinned
    assert all(rec.genotype_pin is None for fam in again for rec in fam)


def test_validate_clean_family():
    families = parse_ped(SMALL_FILE)
    assert validate(families[0]) == []


def test_half_sibs_and_loops_allowed():
    # two wives, one husband; then a cousin-style loop through remarriage
    text = "\n".join(
        [
            "F1 1 0 0 1 70.0 0 -9 0",
            "F1 2 0 0 2 65.0 0 -9 0",
            "F1 3 0 0 2 64.0 0 -9 0",
            "F1 4 1 2 1 40.0 0 -9 0",
            "F1 5 1 3 2 38.0 0 -9 0",
            "F1 6 4 5 1 12.0 0 -9 0",
        ]
    )
    fam = parse_ped(text)[0]
    assert len(fam) == 6


def test_duplicate_individual_rejected():
    text = "F1 1 0 0 1 70.0 0 -9 0\nF1 1 0 0 1 60.0 0 -9 0\n"
    with pytest.raises(PedigreeError):
        parse_ped(text)


def test_comments_and_blank_lines_skipped():
    text = "# a comment\n\n" + SMALL_FILE
    assert len(parse_ped(text)) == 2


def test_pedigree_direct_construction_validates():
    from poosurv import IndividualRecord

    with pytest.raises(PedigreeError):
        Pedigree([])
    rec = IndividualRecord("F", "1", None, None, Sex.MALE, 50.0, 0)
    ped = Pedigree([rec])
    assert ped.individuals == (rec,) and ped.record("1").is_founder
