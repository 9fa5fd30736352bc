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

A :class:`Pedigree` stores its members in columns, one tuple per
:class:`IndividualRecord` field, plus the parent positions of its
:meth:`~Pedigree.structure_key`. ``IndividualRecord`` stays the public row
type: :attr:`Pedigree.individuals` and iteration build the records on first
access and keep them. One function checks every cohort: :func:`parse_ped`,
:func:`simulate.simulate_families` and ``Pedigree(records)`` turn their rows
into columns, which are checked all at once with numpy, and the first
failed check names its row, family and line. No record is built per row.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
import re
from dataclasses import dataclass, field, fields
from itertools import chain, repeat

import numpy as np

__all__ = [
    "Sex",
    "PedigreeError",
    "ValidationWarning",
    "IndividualRecord",
    "Pedigree",
    "parse_ped",
    "format_ped",
    "pin_genotypes",
    "apply_proband_correction",
    "validate",
]

_COVARIATE_HEADER = re.compile(r"#\s*covariates\s*:\s*(\d+)")


class Sex(enum.IntEnum):
    MALE = 1
    FEMALE = 2


#: The accepted tokens of the coded PED columns and the values they stand for.
TOKENS = {
    "sex": {"1": Sex.MALE, "2": Sex.FEMALE},
    "status": {"0": 0, "1": 1},
    "gene_test": {"0": 0, "1": 1, "-9": None, ".": None},
    "proband": {"0": False, "1": True},
}


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

    ``phenotype_suppressed`` is an in-memory flag (never serialized) set by
    :func:`apply_proband_correction`: the age/status pair of this record
    then contributes no likelihood information. ``genotype_pin``, also in
    memory only, names the states 0-3 the record may take: one state or a
    collection of them, held as their sorted tuple (see
    :func:`pin_genotypes`); ``None`` allows all four. ``covariates`` are
    held as a tuple of floats, as :func:`parse_ped` gives them.
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
        for what, value in (("family id", self.family_id), ("id", self.individual_id),
                            ("father id", self.father_id), ("mother id", self.mother_id)):
            fault = _id_fault(what, value)
            if fault:
                raise PedigreeError(f"individual {self.individual_id!r} has {fault}",
                                    family_id=self.family_id)
        if (self.father_id is None) != (self.mother_id is None):
            raise PedigreeError(
                f"individual {self.individual_id} has exactly one parent; "
                "founders must have neither",
                family_id=self.family_id,
            )
        if self.sex not in (Sex.MALE, Sex.FEMALE):
            raise PedigreeError(
                f"individual {self.individual_id} has invalid sex {self.sex}",
                family_id=self.family_id,
            )
        if not (math.isfinite(self.age) and self.age >= 0):
            raise PedigreeError(
                f"individual {self.individual_id} has invalid age {self.age}",
                family_id=self.family_id,
            )
        if not _is_flag(self.status):
            raise PedigreeError(
                f"individual {self.individual_id} has invalid status {self.status}",
                family_id=self.family_id,
            )
        _check_value(self.family_id, self.individual_id, "gene_test", self.gene_test)
        if self.proband not in (False, True):
            raise PedigreeError(
                f"individual {self.individual_id} has invalid proband {self.proband!r}",
                family_id=self.family_id,
            )
        if not all(isinstance(c, numbers.Real) and math.isfinite(c) for c in self.covariates):
            raise PedigreeError(
                f"individual {self.individual_id} has non-finite covariates "
                f"{self.covariates}",
                family_id=self.family_id,
            )
        object.__setattr__(self, "covariates", tuple(map(float, self.covariates)))
        pin = _check_value(self.family_id, self.individual_id, "genotype_pin", self.genotype_pin)
        object.__setattr__(self, "genotype_pin", pin)

    @property
    def is_founder(self) -> bool:
        return self.father_id is None


def _id_fault(what, value):
    """Why ``value`` cannot be written as a PED ``what`` token that reads
    back as itself, or ``None`` when it can (a missing parent can)."""
    if value is None and what in ("father id", "mother id"):
        return None
    if not isinstance(value, str) or value.split() != [value]:
        return f"invalid {what} {value!r}: a PED id is a non-empty string without whitespace"
    if what == "family id" and value.startswith("#"):
        return f"invalid {what} {value!r}: a PED row that starts with '#' is a comment"
    if what in ("father id", "mother id") and value == "0":
        return f"{what} '0', which a PED file reads as no parent"
    return None


def _is_integer(value):
    """Whether ``value`` is an integer, a numpy integer included, but not a
    bool: ``format_ped`` would write a bool flag as ``True``, and a bool pin
    would read a yes/no answer, such as a carrier flag, as state 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_flag(value):
    """Whether ``value`` is the integer 0 or 1 (see :func:`_is_integer`); a
    float is not: ``format_ped`` would write it as ``1.0``."""
    return _is_integer(value) and value in (0, 1)


def _check_value(family_id, individual_id, name, value):
    """``value`` as a record holds it, once it is a ``gene_test`` or
    ``genotype_pin`` a record may hold; :class:`PedigreeError` otherwise.

    A pin is one genotype state or a collection of them, each an integer
    0-3 (see :func:`_is_integer`), and is held as the sorted tuple of its
    distinct states. ``None`` is no test and no pin.
    """
    if value is None or (name == "gene_test" and _is_flag(value)):
        return value
    problem = f"invalid gene_test {value}"
    if name == "genotype_pin":
        try:
            states = [*((value,) if _is_integer(value) else value)]
        except TypeError:  # neither an integer nor a collection
            states = [value]
        if all(map(_is_integer, states)):
            value = tuple(sorted(set(map(int, states))))
            if value and {0, 1, 2, 3}.issuperset(value):
                return value
        problem = f"invalid genotype pin {value!r}; expected one or more of the states 0, 1, 2, 3"
    raise PedigreeError(f"individual {individual_id} has {problem}", family_id=family_id)


#: Record fields that :meth:`Pedigree.with_values` may change: none of them
#: enters a family's links, ids or phenotypes.
_VALUE_FIELDS = frozenset({"gene_test", "genotype_pin", "phenotype_suppressed"})

#: A :class:`Pedigree`'s columns: every record field but the family id, in
#: field order. Record equality compares the columns before the in-memory flags.
_COLUMNS = tuple(f.name for f in fields(IndividualRecord))[1:]
_COLUMN = {name: i for i, name in enumerate(_COLUMNS)}
_COMPARED = _COLUMN["phenotype_suppressed"]
_ROW = operator.attrgetter("family_id", *_COLUMNS)


def _record(family_id, values):
    """A record of values already checked, built without rerunning the checks."""
    record = object.__new__(IndividualRecord)
    record.__dict__.update(zip(("family_id", *_COLUMNS), (family_id, *values)))
    return record


class Pedigree:
    """One family: its members' columns with resolved parent links.

    Construction from records checks them as :func:`parse_ped` checks a
    file, and also that they all belong to the first record's family and
    carry one covariate count; the first violation raises
    :class:`PedigreeError`. The members are stored as
    columns (see :meth:`column`); :attr:`individuals` builds their records
    on first access and keeps them. Instances are immutable and safe to
    share across threads.
    """

    def __init__(self, records):
        records = tuple(records)
        if not records:
            raise PedigreeError("family has no members")
        owners, *columns = zip(*map(_ROW, records))
        family_id, ids, covariates = owners[0], columns[0], columns[_COLUMN["covariates"]]
        # member faults come first, in member order: a record of another
        # family or a duplicate id (which _check names), then a covariate
        # count unlike the first record's
        seen = set()
        for owner, ident in zip(owners, ids):
            if owner != family_id:
                reason = f"record {ident} belongs to family {owner}, not {family_id}"
                raise PedigreeError(reason, family_id)
            if ident in seen:
                break
            seen.add(ident)
        else:
            arity = len(covariates[0])
            for ident, cov in zip(ids, covariates):
                if len(cov) != arity:
                    reason = f"individual {ident} has {len(cov)} covariates, expected {arity}"
                    raise PedigreeError(reason, family_id)
        father, mother = _check([family_id], np.zeros(len(ids), np.intp), columns[:9], _no_lines)
        key = tuple(zip(father.tolist(), mother.tolist()))
        self._set(family_id, tuple(columns), key, None, records)

    @classmethod
    def _of_columns(cls, family_id, columns, key, positions=None):
        """A family of checked columns and their structure key."""
        pedigree = object.__new__(cls)
        pedigree._set(family_id, columns, key, positions, None)
        return pedigree

    def _set(self, family_id, columns, key, positions, records):
        self.family_id = family_id
        self._columns = columns
        self._key = key
        self._positions = positions
        # the members' records; None until first built
        self._records = records

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return iter(self.individuals)

    def __eq__(self, other):
        return (
            isinstance(other, Pedigree)
            and self.family_id == other.family_id
            and self._columns[:_COMPARED] == other._columns[:_COMPARED]
        )

    def __repr__(self):
        return f"Pedigree({self.family_id!r}, n={len(self)})"

    @property
    def individuals(self) -> tuple[IndividualRecord, ...]:
        """The members' records in member order, built on first access."""
        if self._records is None:
            self._records = tuple(
                _record(self.family_id, values) for values in zip(*self._columns)
            )
        return self._records

    def column(self, name: str) -> tuple:
        """The members' values of record field ``name``, in member order."""
        return self._columns[_COLUMN[name]]

    @property
    def covariate_count(self) -> int:
        return len(self.column("covariates")[0])

    def record(self, individual_id: str) -> IndividualRecord:
        return self.individuals[self.position(individual_id)]

    def position(self, individual_id: str) -> int:
        if self._positions is None:
            ids = self._columns[0]
            self._positions = dict(zip(ids, range(len(ids))))
        return self._positions[individual_id]

    def parents(self, individual_id: str) -> tuple[str, str] | None:
        i = self.position(individual_id)
        father = self.column("father_id")[i]
        if father is None:
            return None
        return father, self.column("mother_id")[i]

    def with_values(self, **columns) -> Pedigree:
        """A copy whose members take new values of non-structural fields.

        Each keyword names ``gene_test``, ``genotype_pin`` or
        ``phenotype_suppressed`` and gives one value per member, in member
        order; any other field raises ``ValueError``. Links, sexes,
        phenotypes and ids stay as they are, so the copy shares this
        family's validated structure and :meth:`structure_key` instead of
        being built again, and builds its own records only when they are
        read. A call that changes nothing returns ``self``. Each value passes
        :class:`IndividualRecord`'s checks, in member order, and is held as
        a record holds it.
        """
        refused = sorted(set(columns) - _VALUE_FIELDS)
        if refused:
            raise ValueError(f"cannot change structural field(s): {', '.join(refused)}")
        n = len(self)
        columns = {name: list(values) for name, values in columns.items()}
        for name, values in columns.items():
            if len(values) != n:
                raise ValueError(f"{name}: {len(values)} values for {n} records")
        checked = [name for name in ("gene_test", "genotype_pin") if name in columns]
        for i, individual_id in enumerate(self._columns[0]):
            for name in checked:
                columns[name][i] = _check_value(
                    self.family_id, individual_id, name, columns[name][i]
                )
        new = {
            name: tuple(values) for name, values in columns.items()
            if tuple(values) != self.column(name)
        }
        return self._with_columns(**new) if new else self

    def _with_columns(self, **columns):
        """A copy whose named value columns are replaced by the given tuples,
        which must already pass the records' checks; it shares this family's
        structure key and positions."""
        new = list(self._columns)
        for name, values in columns.items():
            new[_COLUMN[name]] = values
        return Pedigree._of_columns(self.family_id, tuple(new), self._key, self._positions)

    def structure_key(self) -> tuple[tuple[int, int], ...]:
        """Parent positions per member, ``(-1, -1)`` for a founder; families
        with equal keys share a graph."""
        return self._key


#: Rows the column parse converts at a time, which bounds the token strings
#: alive at once.
_BLOCK_ROWS = 1024

#: ``_NO_PARENT.get(token, token)``: ``None`` for the founder token ``0``,
#: else the token itself.
_NO_PARENT = {"0": None}

#: The PED fields after the four ids, in field order, with the function
#: that converts a field's token (the covariates' tokens joined by spaces).
_CONVERTERS = (
    ("sex", TOKENS["sex"].__getitem__),
    ("age", float),
    ("status", TOKENS["status"].__getitem__),
    ("gene_test", TOKENS["gene_test"].__getitem__),
    ("proband", TOKENS["proband"].__getitem__),
    ("covariate", lambda text: [*map(float, text.split())]),
)


def _bad_token(tokens):
    """The first field of a data row whose token does not convert, and that
    token; ``None`` when all convert."""
    for (what, convert), token in zip(_CONVERTERS, [*tokens[4:9], " ".join(tokens[9:])]):
        try:
            convert(token)
        except (KeyError, ValueError):
            return what, token


def _data_lines(lines):
    """A function from data-row indices of ``lines`` to their line numbers.
    It scans ``lines`` when called, which is only to name a fault."""

    def lines_of(rows):
        numbers = [n for n, raw in enumerate(lines, start=1) if raw.lstrip()[:1] not in ("", "#")]
        return [numbers[row] for row in rows]

    return lines_of


def _read_columns(lines):
    """The family ids of ``lines`` in order of first appearance, each data
    row's index into them, and the nine PED columns, each token converted
    as :class:`IndividualRecord` holds it.

    A row with the wrong column count, a covariate header unlike the rows,
    or a token outside :data:`TOKENS` or not a float raises
    :class:`PedigreeError`, unless a record of an earlier row fails
    :func:`_refuse_records` first: faults are named in line order.
    """
    n_cov = None
    block = []
    family_code = {}  # family id -> number, in order of first appearance
    family_of, columns = [], [[] for _ in range(9)]
    ids, fathers, mothers, *_, covariates = columns
    lines_of = _data_lines(lines)

    def convert(rows):
        if not rows:
            return
        family, ident, father, mother, *coded = zip(*rows)
        for family_id in dict.fromkeys(family):
            family_code.setdefault(family_id, len(family_code))
        family_of.extend(map(family_code.__getitem__, family))
        ids.extend(ident)
        fathers.extend(map(_NO_PARENT.get, father, father))
        mothers.extend(map(_NO_PARENT.get, mother, mother))
        for column, (_, parse), tokens in zip(columns[3:8], _CONVERTERS, coded):
            column.extend(map(parse, tokens))
        covariates.extend(zip(*(map(float, values) for values in coded[5:])) if n_cov
                          else repeat((), len(rows)))

    def read(fault=None):
        """Convert the rows of ``block``, then raise the first fault of the
        rows read so far, else ``fault`` when one is given."""
        done = len(ids)
        try:
            convert(block)
        except (KeyError, ValueError):
            for column in (family_of, *columns):
                del column[done:]
            row, (what, token) = next(
                (row, bad) for row, tokens in enumerate(block) if (bad := _bad_token(tokens))
            )
            convert(block[:row])
            fault = PedigreeError(
                f"invalid {what} {token!r} for individual {block[row][1]}",
                block[row][0], lines_of([done + row])[0],
            )
        block.clear()
        if fault is not None:
            _refuse_records(list(family_code), family_of, columns, lines_of)
            raise fault

    for raw in lines:
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0][0] == "#":
            header = _COVARIATE_HEADER.match(raw.strip())
            if header:
                declared = int(header.group(1))
                if n_cov not in (None, declared):
                    # an earlier line like this one would have declared n_cov
                    read(PedigreeError(
                        f"covariate header declares {declared} but rows have {n_cov}",
                        line=lines.index(raw) + 1,
                    ))
                n_cov = declared
            continue
        if n_cov is None:
            n_cov = max(len(tokens) - 9, 0)
        if len(tokens) != 9 + n_cov:
            read(PedigreeError(
                f"expected {9 + n_cov} columns, found {len(tokens)}",
                line=lines_of([len(ids) + len(block)])[0],
            ))
        block.append(tokens)
        if len(block) == _BLOCK_ROWS:
            read()
    read()
    return list(family_code), family_of, columns


def _refuse_records(family_ids, family_of, columns, lines_of):
    """Raise for the first row whose record :class:`IndividualRecord`
    refuses, all rows checked at once: one parent, an age that is not
    finite and non-negative, or a non-finite covariate (a converted token
    holds a valid sex, status and gene test). Return which rows have
    parents."""
    ids, fathers, mothers, sexes, ages, *_, covariates = columns
    n = len(ids)
    child = np.fromiter(map(operator.is_not, fathers, repeat(None)), bool, n)
    age = np.array(ages, dtype=float)
    bad = child != np.fromiter(map(operator.is_not, mothers, repeat(None)), bool, n)
    bad |= ~((age >= 0) & (age < math.inf))  # NaN fails both
    if n and covariates[0] and not np.isfinite([*chain.from_iterable(covariates)]).all():
        bad |= [not all(map(math.isfinite, cov)) for cov in covariates]
    if bad.any():
        row = int(bad.argmax())
        try:
            IndividualRecord(family_ids[family_of[row]], *(column[row] for column in columns))
        except PedigreeError as err:
            raise PedigreeError(err.reason, err.family_id, lines_of([row])[0]) from None
    return child


def _check(family_ids, family_of, columns, lines_of):
    """Each row's father and mother rows, -1 for a founder, once a cohort's
    nine PED columns pass every check, all rows at once.

    ``family_of`` is each row's index into ``family_ids``, as an array, and
    ``lines_of`` maps a list of rows to their lines (``None`` for no line).
    The first fault raises :class:`PedigreeError`, named as a file is read:
    first the records, in row order (:func:`_refuse_records`); then family
    by family, in the order of ``family_ids``, a duplicate id, then each
    child's parents in member order (an unknown father, the father's sex,
    an unknown mother, the mother's sex), then a cycle.
    """
    child = _refuse_records(family_ids, family_of, columns, lines_of)
    ids, fathers, mothers, sexes = columns[:4]
    n = len(ids)
    # members by (family, id) number, for the rows of parents
    id_code = {ident: i for i, ident in enumerate(dict.fromkeys(ids))}
    member = family_of * len(id_code) + np.fromiter(map(id_code.__getitem__, ids), np.intp, n)
    by_member = np.argsort(member, kind="stable")
    ordered = member[by_member]
    repeated = ordered[1:] == ordered[:-1]

    def rows_of(parents):
        code = np.fromiter(map(id_code.get, parents, repeat(-1)), np.intp, n)
        wanted = family_of * len(id_code) + code
        at = np.minimum(np.searchsorted(ordered, wanted), n - 1)
        return np.where((code >= 0) & (ordered[at] == wanted), by_member[at], -1)

    father, mother = rows_of(fathers), rows_of(mothers)
    sex = np.fromiter(sexes, np.int8, n)
    misplaced = child & (
        (father < 0) | (sex[father] != Sex.MALE) | (mother < 0) | (sex[mother] != Sex.FEMALE)
    )
    placed = ~child  # the founders, then each generation whose parents are placed
    while not placed.all():
        grown = placed | (placed[father] & placed[mother])
        if (grown == placed).all():  # the members on and below a cycle
            break
        placed = grown
    if not (repeated.any() or misplaced.any() or not placed.all()):
        return father, mother

    duplicate = np.zeros(n, bool)
    duplicate[by_member[1:][repeated]] = True
    family = family_of[duplicate | misplaced | ~placed].min()
    ours = family_of == family

    def fault(reason, rows):
        line = min((line for line in lines_of(rows) if line is not None), default=None)
        return PedigreeError(reason, family_ids[family], line)

    if (ours & duplicate).any():
        row = int((ours & duplicate).argmax())
        # the line of the id's last row, as a map from ids to lines keeps it
        last = by_member[np.searchsorted(ordered, member[row], side="right") - 1]
        raise fault(f"duplicate individual id {ids[row]}", [last])
    if (ours & misplaced).any():
        row = int((ours & misplaced).argmax())
        for label, parent, parent_id, want in (
            ("father", father[row], fathers[row], Sex.MALE),
            ("mother", mother[row], mothers[row], Sex.FEMALE),
        ):
            if parent < 0:
                raise fault(f"individual {ids[row]} references unknown {label} {parent_id}", [row])
            if sex[parent] != want:
                raise fault(f"{label} {parent_id} of {ids[row]} is not {want.name.lower()}", [row])
    rows = np.flatnonzero(ours & ~placed).tolist()
    stuck = ", ".join(sorted(ids[row] for row in rows))
    raise fault(f"cycle in parent graph involving {stuck}", rows)


def _no_lines(rows):
    """No line for any row: the rows come from no file."""
    return [None] * len(rows)


def _families(family_ids, family_of, columns, lines_of=_no_lines):
    """One :class:`Pedigree` per entry of ``family_ids`` from a cohort's nine
    PED columns and each row's index into ``family_ids``, checked by
    :func:`_check`, whose errors name a line only by ``lines_of``. No member
    is pinned or has its phenotype suppressed."""
    n = len(columns[0])
    if not n:
        return []
    family_of = np.asarray(family_of, dtype=np.intp)
    father, mother = _check(family_ids, family_of, columns[:9], lines_of)
    child = father >= 0

    # families in order of first appearance, members in row order
    if (family_of[1:] < family_of[:-1]).any():  # interleaved families
        rows = np.argsort(family_of, kind="stable")
        rank = np.empty(n, np.intp)
        rank[rows] = np.arange(n)
        father, mother = rank[father][rows], rank[mother][rows]
        child, family_of = child[rows], family_of[rows]
        take = rows.tolist()
        columns = [list(map(column.__getitem__, take)) for column in columns]
    sizes = np.bincount(family_of)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    first = np.repeat(starts[:-1], sizes)
    father = np.where(child, father - first, -1).tolist()
    mother = np.where(child, mother - first, -1).tolist()
    # one object for equal keys, and for the flag and pin columns of each size
    keys, blanks, pedigrees = {}, {}, []
    bounds = starts.tolist()
    for family_id, lo, hi in zip(family_ids, bounds, bounds[1:]):
        key = tuple(zip(father[lo:hi], mother[lo:hi]))
        family = [tuple(column[lo:hi]) for column in columns]
        family += blanks.setdefault(hi - lo, ((False,) * (hi - lo), (None,) * (hi - lo)))
        pedigrees.append(Pedigree._of_columns(family_id, tuple(family), keys.setdefault(key, key)))
    return pedigrees


def parse_ped(source) -> list[Pedigree]:
    """Parse a PED phenotype file into one :class:`Pedigree` per family.

    ``source`` may be a string or a readable text stream. Families come out
    in order of first appearance; records keep file order. Malformed rows,
    dangling parent references, sex-inconsistent parents, parent-graph
    cycles, and inconsistent covariate arity all raise
    :class:`PedigreeError` naming the family, line, and reason of the first
    fault (see :func:`_check`). Lines are numbered as iterating the stream
    numbers them; a string is split at ``"\\n"`` alone.
    """
    lines = source.split("\n") if isinstance(source, str) else list(source)
    return _families(*_read_columns(lines), lines_of=_data_lines(lines))


def _format_float(x: float) -> str:
    return repr(float(x))


def format_ped(families) -> str:
    """Serialize pedigrees back to the PED phenotype format.

    Re-parsing the output yields field-identical structures. The families
    must have one covariate count, which the file's header declares;
    ``ValueError`` names the first family with another.
    """
    families = list(families)
    n_cov = families[0].covariate_count if families else 0
    odd = next((fam for fam in families if fam.covariate_count != n_cov), None)
    if odd is not None:
        raise ValueError(
            f"family {odd.family_id} has {odd.covariate_count} covariates, "
            f"family {families[0].family_id} {n_cov}; a PED file has one count"
        )
    out = [f"# covariates: {n_cov}"]
    for fam in families:
        rows = zip(*map(fam.column, (
            "individual_id", "father_id", "mother_id", "sex", "age", "status", "gene_test",
            "proband", "covariates",
        )))
        for individual_id, father, mother, sex, age, status, gene_test, proband, cov in rows:
            cells = [
                fam.family_id,
                individual_id,
                father or "0",
                mother or "0",
                str(int(sex)),
                _format_float(age),
                str(status),
                "-9" if gene_test is None else str(gene_test),
                "1" if proband else "0",
            ]
            cells.extend(_format_float(c) for c in cov)
            out.append(" ".join(cells))
    return "\n".join(out) + "\n"


def pin_genotypes(families, pins) -> list[Pedigree]:
    """Copies of ``families`` whose records carry ``pins``, a map from
    (family_id, individual_id) to a record's ``genotype_pin``: one
    :class:`genetics.Genotype` state or a collection of them; a family that
    gains no pin comes back as it is. A key naming no record, or a value
    that :class:`IndividualRecord` refuses, raises :class:`PedigreeError`.
    """
    pending = dict(pins)
    pinned = []
    for fam in families:
        column = []
        for individual_id, pin in zip(fam.column("individual_id"), fam.column("genotype_pin")):
            states = pending.pop((fam.family_id, individual_id), None)
            column.append(pin if states is None else states)
        pinned.append(fam.with_values(genotype_pin=column))
    if pending:
        family_id, individual_id = next(iter(pending))
        raise PedigreeError(
            f"genotype pin names unknown individual {individual_id}",
            family_id=family_id,
        )
    return pinned


def apply_proband_correction(families) -> tuple[list[Pedigree], list[str]]:
    """Suppress proband phenotypes for ascertainment correction.

    Probands keep their pedigree links, sex, covariates, and gene test, but
    their age/status pair stops contributing evidence and their records are
    left out of the M-step. Families without a proband come back as they
    are, each with a warning.
    """
    corrected, warnings = [], []
    for fam in families:
        probands = fam.column("proband")
        if not any(probands):
            warnings.append(f"family {fam.family_id} has no proband; left unmodified")
        corrected.append(fam.with_values(phenotype_suppressed=[
            proband or suppressed
            for proband, suppressed in zip(probands, fam.column("phenotype_suppressed"))
        ]))
    return corrected, warnings


def validate(pedigree: Pedigree, epsilon: float | None = None) -> list[ValidationWarning]:
    """Report non-fatal findings on a successfully parsed family.

    An affected individual with a negative gene test is only flagged when
    ``epsilon`` (the rate at which a carrier tests negative) is explicitly
    0, since a positive rate makes that combination legitimate. An empty
    list means clean.
    """
    warnings = []
    ids = pedigree.column("individual_id")
    probands = [i for i, proband in zip(ids, pedigree.column("proband")) if proband]
    if len(probands) > 1:
        warnings.append(
            ValidationWarning(
                pedigree.family_id,
                None,
                f"multiple probands: {', '.join(probands)}",
            )
        )
    if epsilon == 0:
        for individual_id, status, gene_test in zip(
            ids, pedigree.column("status"), pedigree.column("gene_test")
        ):
            if status == 1 and gene_test == 0:
                warnings.append(
                    ValidationWarning(
                        pedigree.family_id,
                        individual_id,
                        "affected individual with negative gene test is "
                        "impossible when the false-negative rate is 0",
                    )
                )
    return warnings
