"""Pedigree file parsing, validation, and in-memory family structures.

The on-disk format is whitespace-delimited, one individual per row:

    family_id individual_id father_id mother_id sex age status gene_test proband [cov_1 ... cov_k]

where sex is 1 (male) or 2 (female), age is in years (age at diagnosis for
affected individuals, age at last follow-up otherwise), status is 0
(censored) or 1 (affected), gene_test is 0 (negative), 1 (positive) or
-9 / . (not tested), and proband is 0/1. ``0`` in the parent columns marks
a founder; parents must either both be present or both absent. Any further
columns are finite numeric covariates whose count k is constant within a
file and may be declared up front with a ``# covariates: k`` header. Lines
starting with ``#`` are comments.
"""

from __future__ import annotations

import enum
import io
import math
import re
from dataclasses import dataclass, field

__all__ = [
    "Sex",
    "PedigreeError",
    "ValidationWarning",
    "IndividualRecord",
    "Pedigree",
    "parse_ped",
    "format_ped",
    "pin_genotypes",
    "validate",
]

MISSING_TEST_TOKENS = ("-9", ".")

_COVARIATE_HEADER = re.compile(r"#\s*covariates\s*:\s*(\d+)")


class Sex(enum.IntEnum):
    MALE = 1
    FEMALE = 2


class PedigreeError(ValueError):
    """Fatal structural problem in a pedigree file or family."""

    def __init__(self, reason, family_id=None, line=None):
        self.reason = reason
        self.family_id = family_id
        self.line = line
        parts = []
        if family_id is not None:
            parts.append(f"family {family_id}")
        if line is not None:
            parts.append(f"line {line}")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {reason}" if prefix else reason)


@dataclass(frozen=True)
class ValidationWarning:
    """Non-fatal finding reported by :func:`validate`."""

    family_id: str
    individual_id: str | None
    message: str

    def __str__(self):
        where = f"family {self.family_id}"
        if self.individual_id is not None:
            where += f", individual {self.individual_id}"
        return f"{where}: {self.message}"


@dataclass(frozen=True)
class IndividualRecord:
    """One pedigree member with phenotype, test result, and covariates.

    ``phenotype_suppressed`` is an in-memory flag (never serialized) used by
    the proband ascertainment correction: when set, the age/status pair of
    this record contributes no likelihood information. ``genotype_pin``,
    also in memory only, is the sorted tuple of ordered-genotype states the
    record may take (see :func:`pin_genotypes`); ``None`` allows all four.
    """

    family_id: str
    individual_id: str
    father_id: str | None
    mother_id: str | None
    sex: Sex
    age: float
    status: int
    gene_test: int | None = None
    proband: bool = False
    covariates: tuple[float, ...] = ()
    phenotype_suppressed: bool = field(default=False, compare=False)
    genotype_pin: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if (self.father_id is None) != (self.mother_id is None):
            raise PedigreeError(
                f"individual {self.individual_id} has exactly one parent; "
                "founders must have neither",
                family_id=self.family_id,
            )
        if not (math.isfinite(self.age) and self.age >= 0):
            raise PedigreeError(
                f"individual {self.individual_id} has invalid age {self.age}",
                family_id=self.family_id,
            )
        if self.status not in (0, 1):
            raise PedigreeError(
                f"individual {self.individual_id} has invalid status {self.status}",
                family_id=self.family_id,
            )
        if self.gene_test not in (None, 0, 1):
            raise PedigreeError(
                f"individual {self.individual_id} has invalid gene_test "
                f"{self.gene_test}",
                family_id=self.family_id,
            )
        if not all(map(math.isfinite, self.covariates)):
            raise PedigreeError(
                f"individual {self.individual_id} has non-finite covariates "
                f"{self.covariates}",
                family_id=self.family_id,
            )

    @property
    def is_founder(self) -> bool:
        return self.father_id is None


#: Record fields that :meth:`Pedigree.with_values` may change: none of them
#: enters a family's links, ids or phenotypes.
_VALUE_FIELDS = frozenset({"gene_test", "genotype_pin", "phenotype_suppressed"})


class Pedigree:
    """One family: an ordered tuple of records with resolved parent links.

    Construction validates structural invariants (parents resolve within the
    family, referenced fathers are male and mothers female, the parent graph
    is acyclic, covariate vectors have uniform length) and raises
    :class:`PedigreeError` on violation. Instances are immutable and safe to
    share across threads.
    """

    def __init__(self, records, lines=None):
        records = tuple(records)
        if not records:
            raise PedigreeError("family has no members")
        lines = dict(lines or {})
        family_id = records[0].family_id
        positions: dict[str, int] = {}
        for i, rec in enumerate(records):
            if rec.family_id != family_id:
                raise PedigreeError(
                    f"record {rec.individual_id} belongs to family "
                    f"{rec.family_id}, not {family_id}",
                    family_id=family_id,
                    line=lines.get(rec.individual_id),
                )
            if rec.individual_id in positions:
                raise PedigreeError(
                    f"duplicate individual id {rec.individual_id}",
                    family_id=family_id,
                    line=lines.get(rec.individual_id),
                )
            positions[rec.individual_id] = i

        arity = len(records[0].covariates)
        for rec in records:
            if len(rec.covariates) != arity:
                raise PedigreeError(
                    f"individual {rec.individual_id} has {len(rec.covariates)} "
                    f"covariates, expected {arity}",
                    family_id=family_id,
                    line=lines.get(rec.individual_id),
                )

        for rec in records:
            if rec.is_founder:
                continue
            for parent_id, want_sex, label in (
                (rec.father_id, Sex.MALE, "father"),
                (rec.mother_id, Sex.FEMALE, "mother"),
            ):
                if parent_id not in positions:
                    raise PedigreeError(
                        f"individual {rec.individual_id} references unknown "
                        f"{label} {parent_id}",
                        family_id=family_id,
                        line=lines.get(rec.individual_id),
                    )
                parent = records[positions[parent_id]]
                if parent.sex != want_sex:
                    raise PedigreeError(
                        f"{label} {parent_id} of {rec.individual_id} is not "
                        f"{'male' if want_sex == Sex.MALE else 'female'}",
                        family_id=family_id,
                        line=lines.get(rec.individual_id),
                    )

        self.family_id = family_id
        self.individuals = records
        self._positions = positions
        self._check_acyclic(lines)
        self._structure_key = None

    def _check_acyclic(self, lines):
        # Kahn's algorithm over parent -> child edges: a record whose
        # parents are never both reached sits on or below a cycle.
        children: dict[str, list[str]] = {r.individual_id: [] for r in self.individuals}
        pending = {}
        for rec in self.individuals:
            if rec.is_founder:
                pending[rec.individual_id] = 0
            else:
                pending[rec.individual_id] = 2
                children[rec.father_id].append(rec.individual_id)
                children[rec.mother_id].append(rec.individual_id)
        ready = [i for i, n in pending.items() if n == 0]
        while ready:
            for child in children[ready.pop()]:
                pending[child] -= 1
                if pending[child] == 0:
                    ready.append(child)
        stuck = [i for i, n in pending.items() if n > 0]
        if stuck:
            raise PedigreeError(
                f"cycle in parent graph involving {', '.join(sorted(stuck))}",
                family_id=self.family_id,
                line=min((lines[i] for i in stuck if i in lines), default=None),
            )

    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self):
        return iter(self.individuals)

    def __eq__(self, other):
        return isinstance(other, Pedigree) and self.individuals == other.individuals

    def __repr__(self):
        return f"Pedigree({self.family_id!r}, n={len(self)})"

    @property
    def covariate_count(self) -> int:
        return len(self.individuals[0].covariates)

    def record(self, individual_id: str) -> IndividualRecord:
        return self.individuals[self._positions[individual_id]]

    def position(self, individual_id: str) -> int:
        return self._positions[individual_id]

    def parents(self, individual_id: str) -> tuple[str, str] | None:
        rec = self.record(individual_id)
        if rec.is_founder:
            return None
        return rec.father_id, rec.mother_id

    def with_values(self, **columns) -> Pedigree:
        """A copy whose records take new values of non-structural fields.

        Each keyword names ``gene_test``, ``genotype_pin`` or
        ``phenotype_suppressed`` and gives one value per record, in record
        order; any other field raises ``ValueError``. Links, sexes,
        phenotypes and ids stay as they are, so the copy shares this
        family's validated structure instead of being built again; records
        whose values do not change are shared too, and a call that changes
        nothing returns ``self``. The copy shares the :meth:`structure_key`,
        computed here first if needed. Changed records still pass
        :class:`IndividualRecord`'s checks.
        """
        refused = sorted(set(columns) - _VALUE_FIELDS)
        if refused:
            raise ValueError(f"cannot change structural field(s): {', '.join(refused)}")
        for name, values in columns.items():
            if len(values) != len(self.individuals):
                raise ValueError(
                    f"{name}: {len(values)} values for {len(self.individuals)} records"
                )
        records = list(self.individuals)
        changed = False
        for i, rec in enumerate(records):
            update = {
                name: values[i] for name, values in columns.items()
                if getattr(rec, name) != values[i]
            }
            if update:
                # a field-by-field copy: dataclasses.replace would rerun the
                # whole constructor, several times the cost on this hot path
                new = object.__new__(IndividualRecord)
                new.__dict__.update(rec.__dict__, **update)
                new.__post_init__()
                records[i] = new
                changed = True
        if not changed:
            return self
        copy = object.__new__(Pedigree)
        copy.family_id = self.family_id
        copy.individuals = tuple(records)
        copy._positions = self._positions
        copy._structure_key = self.structure_key()
        return copy

    def structure_key(self) -> tuple[tuple[int, int], ...]:
        """Parent positions per record, computed once; families with equal
        keys share a graph."""
        if self._structure_key is None:
            positions = self._positions
            self._structure_key = tuple(
                (-1, -1) if rec.is_founder
                else (positions[rec.father_id], positions[rec.mother_id])
                for rec in self.individuals
            )
        return self._structure_key


def _parse_row(fields, lineno, n_cov):
    if len(fields) != 9 + n_cov:
        raise PedigreeError(
            f"expected {9 + n_cov} columns, found {len(fields)}", line=lineno
        )
    family_id, individual_id, father, mother = fields[:4]

    def bad(what, value):
        return PedigreeError(
            f"invalid {what} {value!r} for individual {individual_id}",
            family_id=family_id,
            line=lineno,
        )

    if fields[4] not in ("1", "2"):
        raise bad("sex", fields[4])
    sex = Sex(int(fields[4]))
    try:
        age = float(fields[5])
    except ValueError:
        raise bad("age", fields[5]) from None
    if fields[6] not in ("0", "1"):
        raise bad("status", fields[6])
    status = int(fields[6])
    if fields[7] in MISSING_TEST_TOKENS:
        gene_test = None
    elif fields[7] in ("0", "1"):
        gene_test = int(fields[7])
    else:
        raise bad("gene_test", fields[7])
    if fields[8] not in ("0", "1"):
        raise bad("proband", fields[8])
    try:
        covariates = tuple(float(v) for v in fields[9:])
    except ValueError:
        raise bad("covariate", " ".join(fields[9:])) from None

    try:
        record = IndividualRecord(
            family_id=family_id,
            individual_id=individual_id,
            father_id=None if father == "0" else father,
            mother_id=None if mother == "0" else mother,
            sex=sex,
            age=age,
            status=status,
            gene_test=gene_test,
            proband=fields[8] == "1",
            covariates=covariates,
        )
    except PedigreeError as err:
        raise PedigreeError(err.reason, family_id=family_id, line=lineno) from None
    return record


def parse_ped(source) -> list[Pedigree]:
    """Parse a PED phenotype file into one :class:`Pedigree` per family.

    ``source`` may be a string or a readable text stream. Families come out
    in order of first appearance; records keep file order. Malformed rows,
    dangling parent references, sex-inconsistent parents, parent-graph
    cycles, and inconsistent covariate arity all raise
    :class:`PedigreeError` naming the family, line, and reason.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    declared_cov: int | None = None
    n_cov: int | None = None
    families: dict[str, list[IndividualRecord]] = {}
    lines: dict[str, dict[str, int]] = {}
    for lineno, raw in enumerate(source, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _COVARIATE_HEADER.match(stripped)
            if m:
                declared_cov = int(m.group(1))
                if n_cov is not None and n_cov != declared_cov:
                    raise PedigreeError(
                        f"covariate header declares {declared_cov} but rows "
                        f"have {n_cov}",
                        line=lineno,
                    )
                n_cov = declared_cov
            continue
        fields = stripped.split()
        if n_cov is None:
            n_cov = max(len(fields) - 9, 0)
        record = _parse_row(fields, lineno, n_cov)
        families.setdefault(record.family_id, []).append(record)
        lines.setdefault(record.family_id, {})[record.individual_id] = lineno

    return [
        Pedigree(records, lines=lines[fam]) for fam, records in families.items()
    ]


def _format_float(x: float) -> str:
    return repr(float(x))


def format_ped(families) -> str:
    """Serialize pedigrees back to the PED phenotype format.

    Re-parsing the output yields field-identical structures.
    """
    families = list(families)
    n_cov = families[0].covariate_count if families else 0
    out = [f"# covariates: {n_cov}"]
    for fam in families:
        for rec in fam:
            cells = [
                rec.family_id,
                rec.individual_id,
                rec.father_id or "0",
                rec.mother_id or "0",
                str(int(rec.sex)),
                _format_float(rec.age),
                str(rec.status),
                "-9" if rec.gene_test is None else str(rec.gene_test),
                "1" if rec.proband else "0",
            ]
            cells.extend(_format_float(c) for c in rec.covariates)
            out.append(" ".join(cells))
    return "\n".join(out) + "\n"


def pin_genotypes(families, pins) -> list[Pedigree]:
    """Copies of ``families`` whose records carry ``pins``, a map from
    (family_id, individual_id) to one :class:`genetics.Genotype` state or a
    collection of them; a family that gains no pin comes back as it is. A
    key naming no record raises :class:`PedigreeError`.
    """
    pending = dict(pins)
    pinned = []
    for fam in families:
        column = []
        for rec in fam:
            states = pending.pop((rec.family_id, rec.individual_id), None)
            if states is None:
                column.append(rec.genotype_pin)
            else:
                states = (states,) if isinstance(states, int) else states
                column.append(tuple(sorted({int(s) for s in states})))
        pinned.append(fam.with_values(genotype_pin=column))
    if pending:
        family_id, individual_id = next(iter(pending))
        raise PedigreeError(
            f"genotype pin names unknown individual {individual_id}",
            family_id=family_id,
        )
    return pinned


def validate(pedigree: Pedigree, epsilon: float | None = None) -> list[ValidationWarning]:
    """Report non-fatal findings on a successfully parsed family.

    An affected individual with a negative gene test is only flagged when
    ``epsilon`` (the rate at which a carrier tests negative) is explicitly
    0, since a positive rate makes that combination legitimate. An empty
    list means clean.
    """
    warnings = []
    probands = [r.individual_id for r in pedigree if r.proband]
    if len(probands) > 1:
        warnings.append(
            ValidationWarning(
                pedigree.family_id,
                None,
                f"multiple probands: {', '.join(probands)}",
            )
        )
    if epsilon == 0:
        for rec in pedigree:
            if rec.status == 1 and rec.gene_test == 0:
                warnings.append(
                    ValidationWarning(
                        pedigree.family_id,
                        rec.individual_id,
                        "affected individual with negative gene test is "
                        "impossible when the false-negative rate is 0",
                    )
                )
    return warnings
