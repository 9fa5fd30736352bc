"""Parsing, validation, and round-trip tests for the PED phenotype format."""

import functools
import io
import random
import re
import string
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poosurv import (
    IndividualRecord,
    ModelParams,
    PedigreeError,
    Pedigree,
    Sex,
    format_ped,
    parse_ped,
    pin_genotypes,
    posterior_marginals,
    simulate_families,
    validate,
)
from poosurv.pedigree import _BLOCK_ROWS, TOKENS

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


@pytest.mark.parametrize("states, pin", [(-1, (-1,)), (4, (4,)), ((), ())],
                         ids=["negative", "above-3", "empty"])
def test_pin_outside_the_four_states_is_refused(states, pin):
    # -1 would index the homozygote's column, 4 no column at all, and an
    # empty pin would rule out every state of the record
    families = parse_ped(SMALL_FILE)
    message = (
        f"family F1: individual 3 has invalid genotype pin {pin}; "
        "expected one or more of the states 0, 1, 2, 3"
    )
    with pytest.raises(PedigreeError) as exc:
        pin_genotypes(families, {("F1", "3"): states})
    assert str(exc.value) == message
    with pytest.raises(PedigreeError) as exc:
        families[0].with_values(genotype_pin=[None, None, pin])
    assert str(exc.value) == message


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

    def member(individual_id, father, mother, sex, family_id="F", covariates=()):
        return IndividualRecord(
            family_id, individual_id, father, mother, sex, 30.0, 0, covariates=covariates
        )

    # two faults each: the members' checks come first, then each child's
    # parents in member order, then the cycle check
    male, female = Sex.MALE, Sex.FEMALE
    for records, message in (
        ([member("1", None, None, male), member("2", None, None, female),
          member("3", "1", "9", male), member("2", None, None, female)],
         "family F: duplicate individual id 2"),
        ([member("1", None, None, male, covariates=(1.0,)),
          member("2", None, None, female), member("3", None, None, male, "G")],
         "family F: record 3 belongs to family G, not F"),
        ([member("x", "y", "z", female), member("y", "x", "z", male),
          member("z", None, None, female)],
         "family F: father x of y is not male"),
        ([member("a", "b", "c", male), member("b", "a", "c", male),
          member("c", None, None, female), member("d", "a", "q", male)],
         "family F: individual d references unknown mother q"),
    ):
        with pytest.raises(PedigreeError) as exc:
            Pedigree(records)
        assert str(exc.value) == message

    # a copy checks its changed values in member order, gene_test first
    fam = parse_ped(SMALL_FILE)[0]
    for columns, message in (
        (dict(gene_test=[0, 1, 3], genotype_pin=[None, (5,), None]),
         "family F1: individual 2 has invalid genotype pin (5,)"),
        (dict(gene_test=[0, 7, None], genotype_pin=[None, (), None]),
         "family F1: individual 2 has invalid gene_test 7"),
    ):
        with pytest.raises(PedigreeError, match=re.escape(message)):
            fam.with_values(**columns)


def _typed(families):
    """Every family's id, structure key and members' fields with their types."""
    return [
        (fam.family_id, fam.structure_key(), [
            [(type(getattr(rec, f.name)), repr(getattr(rec, f.name))) for f in fields(rec)]
            for rec in fam
        ])
        for fam in families
    ]


# The row parser that named every parse error before the column checks did,
# kept as their reference: one checked record per row, then each family's
# members, parents and parent graph, in Python.


def _reference_row(fields, lineno, n_cov):
    if len(fields) != 9 + n_cov:
        raise PedigreeError(f"expected {9 + n_cov} columns, found {len(fields)}", line=lineno)
    family_id, individual_id, father, mother = fields[:4]

    def bad(what, value):
        return PedigreeError(
            f"invalid {what} {value!r} for individual {individual_id}",
            family_id=family_id,
            line=lineno,
        )

    def coded(what, token):
        try:
            return TOKENS[what][token]
        except KeyError:
            raise bad(what, token) from None

    sex = coded("sex", fields[4])
    try:
        age = float(fields[5])
    except ValueError:
        raise bad("age", fields[5]) from None
    status = coded("status", fields[6])
    gene_test = coded("gene_test", fields[7])
    proband = coded("proband", fields[8])
    try:
        covariates = tuple(float(v) for v in fields[9:])
    except ValueError:
        raise bad("covariate", " ".join(fields[9:])) from None
    try:
        return IndividualRecord(
            family_id, individual_id, None if father == "0" else father,
            None if mother == "0" else mother, sex, age, status, gene_test, proband, covariates,
        )
    except PedigreeError as err:
        raise PedigreeError(err.reason, family_id=family_id, line=lineno) from None


def _reference_records(lines):
    """Each family's checked records in file order, and each family's map
    from ids to lines; the first bad row raises, naming family and line."""
    n_cov = None
    families, line_of = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = re.match(r"#\s*covariates\s*:\s*(\d+)", stripped)
            if m:
                declared = int(m.group(1))
                if n_cov is not None and n_cov != declared:
                    raise PedigreeError(
                        f"covariate header declares {declared} but rows have {n_cov}",
                        line=lineno,
                    )
                n_cov = declared
            continue
        fields = stripped.split()
        if n_cov is None:
            n_cov = max(len(fields) - 9, 0)
        record = _reference_row(fields, lineno, n_cov)
        families.setdefault(record.family_id, []).append(record)
        line_of.setdefault(record.family_id, {})[record.individual_id] = lineno
    return families, line_of


def _reference_pedigree(records, lines=None):
    """``Pedigree(records)`` once the records pass the reference's member,
    parent and cycle checks, in that order; errors name the line that
    ``lines`` (a map from ids to lines) gives, as a parse does."""
    records = tuple(records)
    lines = dict(lines or {})
    family_id = records[0].family_id
    seen = set()
    for rec in records:
        if rec.family_id != family_id:
            raise PedigreeError(
                f"record {rec.individual_id} belongs to family {rec.family_id}, not {family_id}",
                family_id=family_id, line=lines.get(rec.individual_id),
            )
        if rec.individual_id in seen:
            raise PedigreeError(
                f"duplicate individual id {rec.individual_id}",
                family_id=family_id, line=lines.get(rec.individual_id),
            )
        seen.add(rec.individual_id)
    arity = len(records[0].covariates)
    for rec in records:
        if len(rec.covariates) != arity:
            raise PedigreeError(
                f"individual {rec.individual_id} has {len(rec.covariates)} covariates, "
                f"expected {arity}",
                family_id=family_id, line=lines.get(rec.individual_id),
            )
    sexes = {rec.individual_id: rec.sex for rec in records}
    for rec in records:
        if rec.is_founder:
            continue
        for parent_id, want, label in (
            (rec.father_id, Sex.MALE, "father"), (rec.mother_id, Sex.FEMALE, "mother"),
        ):
            if parent_id not in sexes:
                raise PedigreeError(
                    f"individual {rec.individual_id} references unknown {label} {parent_id}",
                    family_id=family_id, line=lines.get(rec.individual_id),
                )
            if sexes[parent_id] != want:
                raise PedigreeError(
                    f"{label} {parent_id} of {rec.individual_id} is not "
                    f"{'male' if want == Sex.MALE else 'female'}",
                    family_id=family_id, line=lines.get(rec.individual_id),
                )
    # Kahn's algorithm over parent -> child edges: a member whose parents
    # are never both reached sits on or below a cycle
    pending = {rec.individual_id: 0 if rec.is_founder else 2 for rec in records}
    children = {ident: [] for ident in pending}
    for rec in records:
        if not rec.is_founder:
            children[rec.father_id].append(rec.individual_id)
            children[rec.mother_id].append(rec.individual_id)
    ready = [ident for ident, count in pending.items() if count == 0]
    while ready:
        for child in children[ready.pop()]:
            pending[child] -= 1
            if pending[child] == 0:
                ready.append(child)
    stuck = [ident for ident, count in pending.items() if count > 0]
    if stuck:
        raise PedigreeError(
            f"cycle in parent graph involving {', '.join(sorted(stuck))}",
            family_id=family_id,
            line=min((lines[i] for i in stuck if i in lines), default=None),
        )
    return Pedigree(records)


def _reference_parse(lines):
    families, line_of = _reference_records(lines)
    return [_reference_pedigree(records, line_of[fam]) for fam, records in families.items()]


def _outcome(parse, *args):
    """The typed families ``parse(*args)`` returns, or its error's message,
    family and line."""
    try:
        return _typed(parse(*args))
    except PedigreeError as err:
        return str(err), err.family_id, err.line


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ped_cohorts(), st.randoms(use_true_random=False))
def test_column_parse_equals_row_parse(families, rng):
    # rows of all families shuffled together: families interleave and each
    # family's records come in another order
    header, *rows = format_ped(families).rstrip("\n").split("\n")
    rng.shuffle(rows)
    lines = [header, *rows]
    assert _outcome(parse_ped, lines) == _outcome(_reference_parse, lines)


MUTATION_BASE = """\
# covariates: 1
F1 1 0 0 1 70.0 0 -9 0 0.5
F1 2 0 0 2 65.0 1 1 1 -0.5
F2 1 0 0 1 60.0 0 -9 0 0.0
F1 3 1 2 1 45.0 1 . 0 1.5
F2 2 0 0 2 58.0 0 0 0 2.0
F2 3 1 2 2 30.0 0 -9 1 0.25
F1 4 3 5 2 20.0 0 -9 0 0.0
F1 5 0 0 2 44.0 0 -9 0 0.0
"""


def _mutated(edits, append=""):
    """MUTATION_BASE with token ``column`` of line ``lineno`` replaced, for
    each (lineno, column, token) edit; a token of None drops the column."""
    lines = MUTATION_BASE.splitlines()
    for lineno, column, token in edits:
        tokens = lines[lineno - 1].split()
        if token is None:
            del tokens[column]
        else:
            tokens[column] = token
        lines[lineno - 1] = " ".join(tokens)
    return "\n".join(lines) + "\n" + append


@pytest.mark.parametrize("text", [
    _mutated([(3, 4, "3")]),
    _mutated([(5, 6, "2")]),
    _mutated([(6, 7, "2")]),
    _mutated([(7, 8, "x")]),
    _mutated([(4, 5, "nan")]),
    _mutated([(8, 5, "-1")]),
    _mutated([(9, 5, "inf")]),
    _mutated([(2, 9, "nan")]),
    _mutated([(6, 9, None)]),
    _mutated([(5, 3, "0")]),
    _mutated([(5, 2, "0")]),
    _mutated([(6, 1, "1")]),
    _mutated([(7, 2, "9")]),
    _mutated([(7, 3, "9")]),
    _mutated([(7, 2, "2"), (7, 3, "1")]),
    _mutated([(2, 2, "3"), (2, 3, "5")]),
    _mutated([(3, 4, "3")], append="# covariates: 2\n"),
    _mutated([], append="# covariates: 2\n"),
], ids=[
    "sex", "status", "gene-test", "proband", "age-nan", "age-negative", "age-inf",
    "covariate-nan", "column-count", "father-only", "mother-only", "duplicate-id",
    "dangling-father", "dangling-mother", "parent-sex", "cycle", "header-after-bad-row",
    "header-mismatch",
])
def test_column_parse_refuses_what_the_row_parse_refuses(text):
    lines = text.split("\n")
    with pytest.raises(PedigreeError) as rows:
        _reference_parse(lines)
    with pytest.raises(PedigreeError) as parsed:
        parse_ped(text)
    assert (str(parsed.value), parsed.value.family_id, parsed.value.line) == (
        str(rows.value), rows.value.family_id, rows.value.line
    )


def test_column_parse_takes_what_the_row_parse_takes():
    # float() reads "1_0" as 10.0 on both paths
    lines = _mutated([(4, 5, "1_0")]).split("\n")
    parsed = parse_ped(lines)
    assert parsed[1].record("1").age == 10.0
    assert _typed(parsed) == _typed(_reference_parse(lines))


#: One fault of each kind a file can hold, as edits of MUTATION_BASE and
#: lines appended to it (see :func:`_mutated`).
FAULTS = {
    "column-count": ([(6, 9, None)], ""),
    "extra-column": ([(4, 9, "0.5 1.0")], ""),
    "header-mismatch": ([], "# covariates: 2\n"),
    "sex": ([(3, 4, "3")], ""),
    "age-token": ([(5, 5, "old")], ""),
    "status": ([(5, 6, "2")], ""),
    "gene-test": ([(6, 7, "2")], ""),
    "proband": ([(7, 8, "x")], ""),
    "covariate-token": ([(8, 9, "high")], ""),
    "father-only": ([(5, 3, "0")], ""),
    "mother-only": ([(7, 2, "0")], ""),
    "age-nan": ([(4, 5, "nan")], ""),
    "age-negative": ([(8, 5, "-1")], ""),
    "age-inf": ([(9, 5, "inf")], ""),
    "covariate-nan": ([(2, 9, "nan")], ""),
    "covariate-inf": ([(6, 9, "-inf")], ""),
    "duplicate-id": ([(6, 1, "1")], ""),
    "triplicate-id": ([(4, 1, "3"), (6, 1, "3")], ""),
    "dangling-father": ([(7, 2, "9")], ""),
    "dangling-mother": ([(8, 3, "9")], ""),
    "father-sex": ([(5, 2, "2")], ""),
    "mother-sex": ([(7, 3, "1")], ""),
    "self-parent": ([(5, 2, "3")], ""),
    "cycle": ([(2, 2, "3"), (2, 3, "5")], ""),
}

#: Comment lines that str.splitlines would break: a form feed, a file
#: separator, a Unicode line separator and a next-line character.
_BREAKS = ["# page\x0cbreak", "# group\x1cseparator", "# line\u2028separator", "# next\x85line"]


def _corpus():
    """The files of the mutation corpus, by name, each a list of lines."""
    files = {}
    for first, (edits, append) in FAULTS.items():
        files[first] = _mutated(edits, append)
        for second, (more, extra) in FAULTS.items():
            if first != second and not {e[:2] for e in edits} & {e[:2] for e in more}:
                files[f"{first}+{second}"] = _mutated(edits + more, append + extra)
    corpus = {}
    for name, text in files.items():
        lines = text.split("\n")
        corpus[name] = lines
        corpus[f"{name} crlf"] = [line + "\r" for line in lines[:-1]] + [""]
        corpus[f"{name} breaks"] = [lines[0], _BREAKS[0], *lines[1:4], *_BREAKS[1:], *lines[4:]]
    return corpus


def _passing_records(lines):
    """The reference's records of each family of a file whose rows pass, or
    nothing."""
    try:
        families, _ = _reference_records(lines)
    except PedigreeError:
        return []
    return list(families.values())


def test_mutation_corpus_names_the_faults_the_row_parse_names():
    corpus = _corpus()
    named = set()
    for name, lines in corpus.items():
        expected = _outcome(_reference_parse, lines)
        assert _outcome(parse_ped, lines) == expected, name
        assert _outcome(parse_ped, "\n".join(lines)) == expected, name
        named.add(expected[0] if isinstance(expected[0], str) else None)
    # every file is refused, with more than one message per fault kind
    assert None not in named and len(named) > 2 * len(FAULTS)


def test_mutation_corpus_direct_construction_names_the_reference_faults():
    # the records of each family whose rows pass, and copies with a record
    # of the other family or another covariate count at each place
    calls = 0
    for name, lines in _corpus().items():
        families = _passing_records(lines)
        for records, others in zip(families, families[::-1]):
            stranger = others[-1]
            variants = [records]
            for k in range(len(records) + 1):
                variants.append([*records[:k], stranger, *records[k:]])
            for k in range(len(records)):
                odd = replace(records[k], covariates=(1.0, 2.0))
                variants.append([*records[:k], odd, *records[k + 1:]])
                variants.append([*records[:k], odd, *records[k + 1:], stranger])
            for variant in variants:
                expected = _outcome(lambda: [_reference_pedigree(variant)])
                got = _outcome(lambda: [Pedigree(variant)])
                assert got == expected, (name, variant)
                calls += 1
    assert calls > 3_000


@functools.lru_cache
def _long_file(seed):
    """A simulated file of 2,500 rows, with probands, as a list of lines."""
    families, _ = simulate_families(250, -0.6, 0.2, scenario="S1", seed=seed, mark_probands=True)
    return tuple(format_ped(families).split("\n"))


#: Faults of a long file's data rows, as functions of a row's tokens. A
#: founder's parents name the first member of its family, 1, a father.
_ROW_FAULTS = {
    "sex": lambda t: t[:4] + ["0"] + t[5:],
    "age-token": lambda t: t[:5] + ["?"] + t[6:],
    "proband": lambda t: t[:8] + ["y"],
    "column-count": lambda t: t[:8],
    "age-nan": lambda t: t[:5] + ["nan"] + t[6:],
    "one-parent": lambda t: t[:2] + (["0", t[3]] if t[2] != "0" else ["1", "0"]) + t[4:],
    "duplicate-id": lambda t: t[:1] + ["1"] + t[2:],
    "dangling-mother": lambda t: t[:3] + ["zz"] + t[4:],
    "mother-sex": lambda t: t[:3] + ["1"] + t[4:],
}


@pytest.mark.parametrize("first, second", [
    ("age-nan", "sex"), ("one-parent", "age-token"), ("one-parent", "column-count"),
    ("sex", "age-nan"), ("duplicate-id", "proband"), ("mother-sex", "dangling-mother"),
    ("dangling-mother", "duplicate-id"), ("age-nan", "one-parent"),
])
def test_long_files_name_the_first_fault_across_blocks(first, second):
    assert _BLOCK_ROWS < len(_long_file(1)) - 1 < 3 * _BLOCK_ROWS
    rng = random.Random(f"{first} {second}")
    for trial in range(12):
        lines = _long_file(trial % 3 + 1)
        header, body = [lines[0]], list(lines[1:-1])
        if trial % 2:  # families interleave
            rng.shuffle(body)
        # the first fault in block 1, the second in a later block; every
        # third trial puts them the other way round, or beside a boundary
        near = [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS]
        a, b = rng.randrange(1, _BLOCK_ROWS), rng.randrange(_BLOCK_ROWS, len(body))
        if trial % 3 == 1:
            a, b = b, a
        elif trial % 3 == 2:
            a, b = rng.sample(near, 2)
        for row, fault in ((a, first), (b, second)):
            body[row] = " ".join(_ROW_FAULTS[fault](body[row].split()))
        if trial % 4 == 3:
            body.insert(rng.randrange(len(body)), "# covariates: 1")
        lines = header + body + [""]
        expected = _outcome(_reference_parse, lines)
        assert isinstance(expected[0], str)
        assert _outcome(parse_ped, lines) == expected
        crlf = [line + "\r" for line in lines]
        assert _outcome(parse_ped, crlf) == _outcome(_reference_parse, crlf)


def test_lines_are_numbered_at_newlines_alone(tmp_path):
    # "\x0c", "\x1c" and "\u2028" end lines for str.splitlines, which would
    # put the bad row on line 8; a stream ends lines at newlines alone
    text = (
        "# covariates: 0\r\n"
        "# page\x0cbreak, group\x1cseparator, line\u2028separator\r\n"
        "F1 1 0 0 1 70.0 0 -9 0\r\n"
        "F1 2 0 0 2 65.0 1 -9 0\r\n"
        "F1 3 1 2 1 45.0 2 -9 0\r\n"
    )
    assert len(text.splitlines()) == 8
    message = "family F1, line 5: invalid status '2' for individual 3"
    path = tmp_path / "crlf.ped"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as stream:
        for source in (text, io.StringIO(text), stream):
            with pytest.raises(PedigreeError) as exc:
                parse_ped(source)
            assert (str(exc.value), exc.value.line) == (message, 5)
    good = text.replace(" 2 -9 0\r\n", " 1 -9 0\r\n")
    assert parse_ped(good) == parse_ped(good.replace("\r\n", "\n"))


def test_pin_genotypes_takes_numpy_integers():
    families = parse_ped(SMALL_FILE)
    for states, pin in (
        (np.int64(1), (1,)), (np.array([3, 1]), (1, 3)), ([np.int64(1), np.int64(3)], (1, 3)),
    ):
        pinned = pin_genotypes(families, {("F1", "3"): states})
        assert pinned[0].record("3").genotype_pin == pin
        assert all(type(state) is int for state in pinned[0].record("3").genotype_pin)


@pytest.mark.parametrize("states", [1.0, np.float64(1.0), [1.0, 2.0], "1"],
                         ids=["float", "numpy-float", "floats", "string"])
def test_pin_that_is_not_integral_is_refused(states):
    families = parse_ped(SMALL_FILE)
    with pytest.raises(PedigreeError) as exc:
        pin_genotypes(families, {("F1", "3"): states})
    assert str(exc.value) == (
        f"family F1: individual 3 has invalid genotype pin {states!r}; "
        "expected one or more of the states 0, 1, 2, 3"
    )


@pytest.mark.parametrize("pin, outcome", [
    (1, (1,)), ([1], (1,)), ((2, 1), (1, 2)), ((1, 1), (1,)), (np.array([3, 0]), (0, 3)),
    ((1.0,), "(1.0,)"), ((True,), "(True,)"), (True, "True"), ("1", "'1'"), ((5,), "(5,)"),
    ((), "()"),
], ids=["int", "list", "unsorted", "repeated", "numpy", "float", "bool-in-tuple", "bool",
        "string", "above-3", "empty"])
def test_a_pin_has_one_outcome_at_every_entry_point(pin, outcome):
    # a record, a copy and pin_genotypes hold the same sorted tuple of int
    # states, which the E-step takes, or refuse the pin with the same error
    families = parse_ped(SMALL_FILE)
    members = families[0].individuals
    entry_points = {
        "record": lambda: Pedigree([*members[:2], replace(members[2], genotype_pin=pin)]),
        "with_values": lambda: families[0].with_values(genotype_pin=[None, None, pin]),
        "pin_genotypes": lambda: pin_genotypes(families, {("F1", "3"): pin})[0],
    }
    for name, pinned in entry_points.items():
        if isinstance(outcome, str):
            with pytest.raises(PedigreeError) as exc:
                pinned()
            assert str(exc.value) == (
                f"family F1: individual 3 has invalid genotype pin {outcome}; "
                "expected one or more of the states 0, 1, 2, 3"
            ), name
            continue
        family = pinned()
        held = family.record("3").genotype_pin
        assert held == outcome and all(type(state) is int for state in held), name
        marginals = posterior_marginals(family, ModelParams(q=0.2)).marginals
        np.testing.assert_allclose(marginals.sum(axis=1), 1.0)
        ruled_out = [state for state in range(4) if state not in outcome]
        assert not marginals[2, ruled_out].any(), name


def test_record_holds_covariates_as_a_tuple_of_floats():
    record = IndividualRecord("F1", "1", None, None, Sex.MALE, 50.0, 0,
                              covariates=[0.5, np.int64(2)])
    assert record.covariates == (0.5, 2.0)
    assert all(type(value) is float for value in record.covariates)
    family = Pedigree([record])
    again = parse_ped(format_ped([family]))
    assert again == [family]
    assert hash(record) == hash(again[0].record("1"))
    with pytest.raises(PedigreeError, match="individual 1 has non-finite covariates"):
        IndividualRecord("F1", "1", None, None, Sex.MALE, 50.0, 0, covariates=["0.5"])


def test_format_ped_refuses_families_of_different_covariate_counts():
    # the file's header declares one count, so a family with another would
    # not parse back
    families = parse_ped("# covariates: 1\nF1 1 0 0 1 50.0 0 -9 0 0.5\n")
    families += parse_ped("F2 1 0 0 2 40.0 0 -9 0\n")
    with pytest.raises(ValueError, match="^family F2 has 0 covariates, family F1 1;"):
        format_ped(families)


@pytest.mark.parametrize("sex", [3, 0, "1"])
def test_record_refuses_invalid_sex(sex):
    with pytest.raises(PedigreeError) as exc:
        Pedigree([IndividualRecord("C", "1", None, None, sex, 50.0, 0)])
    assert str(exc.value) == f"family C: individual 1 has invalid sex {sex}"


@pytest.mark.parametrize("field, value", [
    ("status", True), ("status", 1.0), ("status", np.float64(0.0)), ("status", np.True_),
    ("gene_test", True), ("gene_test", 0.0),
], ids=repr)
def test_record_refuses_flags_that_only_compare_equal(field, value):
    # format_ped would write True or 1.0, which parse_ped refuses
    with pytest.raises(PedigreeError) as exc:
        IndividualRecord("C", "1", None, None, Sex.MALE, 50.0, **{"status": 0, field: value})
    assert str(exc.value) == f"family C: individual 1 has invalid {field} {value}"


@pytest.mark.parametrize("status, gene_test, sex, proband, ids", [
    (0, None, Sex.MALE, False, ("C", "f", "m", "c")),
    (1, 1, Sex.FEMALE, True, ("C", "f", "m", "c")),
    (np.int64(1), np.int64(0), 2, 1, ("C", "f", "m", "c")),
    (np.uint8(0), np.int32(1), np.int64(1), np.True_, ("C", "f", "m", "c")),
    (0, None, Sex.MALE, 0, ("0", "1", "2", "0")),
    (0, None, Sex.MALE, np.False_, ("C#", "#f", "m#", "-9")),
], ids=["plain", "flags set", "numpy integers", "small numpy integers", "zero ids",
        "comment marks inside"])
def test_accepted_records_round_trip(status, gene_test, sex, proband, ids):
    # every record set the records and the family accept reads back from
    # the file format_ped writes
    family, father, mother, child = ids
    records = [
        IndividualRecord(family, father, None, None, Sex.MALE, 70, 0, covariates=(1, -0.25)),
        IndividualRecord(family, mother, None, None, Sex.FEMALE, 65.5, 0, covariates=(0.0, 2)),
        IndividualRecord(family, child, father, mother, sex, np.float64(40.0), status, gene_test,
                         proband, covariates=(np.float64(0.5), np.int64(3))),
    ]
    families = [Pedigree(records)]
    assert parse_ped(format_ped(families)) == families


@pytest.mark.parametrize("field, value, reason", [
    ("proband", 2, "individual c has invalid proband 2"),
    ("proband", "no", "individual c has invalid proband 'no'"),
    ("individual_id", "c d", "individual 'c d' has invalid id 'c d': a PED id is a "
     "non-empty string without whitespace"),
    ("individual_id", "", "individual '' has invalid id '': a PED id is a non-empty "
     "string without whitespace"),
    ("individual_id", 7, "individual 7 has invalid id 7: a PED id is a non-empty "
     "string without whitespace"),
    ("family_id", "#C", "individual 'c' has invalid family id '#C': a PED row that "
     "starts with '#' is a comment"),
    ("family_id", "C\tD", "individual 'c' has invalid family id 'C\\tD': a PED id is "
     "a non-empty string without whitespace"),
    ("father_id", "0", "individual 'c' has father id '0', which a PED file reads as "
     "no parent"),
    ("mother_id", "0", "individual 'c' has mother id '0', which a PED file reads as "
     "no parent"),
    ("mother_id", "m\n", "individual 'c' has invalid mother id 'm\\n': a PED id is a "
     "non-empty string without whitespace"),
])
def test_record_refuses_what_format_ped_cannot_write_back(field, value, reason):
    # each would be written as another value (proband 2 as 1), as a row of
    # another column count, as a comment, or as a founder
    fields = dict(family_id="C", individual_id="c", father_id="f", mother_id="m",
                  sex=Sex.MALE, age=40.0, status=0)
    with pytest.raises(PedigreeError) as exc:
        IndividualRecord(**{**fields, field: value})
    assert exc.value.family_id == ("C" if field != "family_id" else value)
    assert exc.value.reason == reason
