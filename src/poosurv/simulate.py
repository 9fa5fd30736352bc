"""Synthetic pedigree generation and the scenario replication study.

Every simulated family uses one fixed three-generation, ten-member layout:
a grandparent couple, their three children, two married-in spouses, and
three grandchildren (two full siblings plus one cousin). The draw itself,
:func:`_simulate_family`, takes any structure whose parents come before
their children. Founder genotypes follow Hardy-Weinberg equilibrium,
children receive alleles by Mendelian transmission, and carriers draw an
age at onset from a piecewise-constant hazard scaled by exp(beta) when the
mutation came from the father. Homozygous carriers follow the
maternal-origin hazard. Everyone is censored by an independent uniform draw
on [15, 80).

Scenarios control which genotypes are released as (error-free) test
results: S0 hides all of them, S1 reveals 80% of affected and 10% of
unaffected individuals, S2 reveals everyone, and Oracle additionally
pins each individual to its true ordered genotype for fitting.

Randomness uses counter-based (Philox) substreams keyed by family and
replicate indices, so any subset of the work reproduces identically under
any level of concurrency. A seed splits into a truth root and a mask root;
seed sequences passed in are never advanced, so the same seed always draws
the same families and masks.

The replication study runs in (case, replicate) units: a unit simulates
its families once and masks each later scenario from the columns of that
simulation (its members' true states and statuses) with the mask root of
the same seed, which gives exactly the families a fresh
:func:`simulate_families` call for that scenario would. One mask core
serves every caller: :func:`_mask_columns` draws a scenario's columns for
the whole cohort at once, and :func:`_mask_families` builds each family
they change once more, sharing its validated structure;
:func:`apply_scenario_mask` first looks the states up in a truth list.
:func:`simulate_families` builds its families unmasked from the cohort's
columns, as :func:`pedigree.parse_ped` builds a file's, with no record per
member, and masks them by that same path.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .em import EMConfig, EMError, _fan_out, em_fit
from .genetics import (
    GENOTYPE_LABELS, LABEL_TO_GENOTYPE, TRANSMIT_PROBABILITY, Genotype, _check_beta, _check_q,
)
from .inference import InferenceError
from .pedigree import IndividualRecord, Pedigree, Sex, _families

__all__ = [
    "Scenario",
    "HazardSpec",
    "DEFAULT_HAZARD",
    "FAMILY_TEMPLATE",
    "TruthRecord",
    "simulate_families",
    "apply_scenario_mask",
    "format_truth",
    "parse_truth",
    "ReplicateRow",
    "replicate_study",
]


class Scenario(str, enum.Enum):
    S0 = "S0"
    S1 = "S1"
    S2 = "S2"
    ORACLE = "Oracle"

    @classmethod
    def _missing_(cls, value):
        # case-insensitive lookup; None makes Enum raise its ValueError
        for member in cls:
            if member.value.lower() == str(value).lower():
                return member
        return None


class HazardSpec:
    """Piecewise-constant hazard: ``rates[i]`` applies on [cuts[i], cuts[i+1]).

    The last interval extends to infinity. Exposes the same ``cumulative``
    interface as a fitted baseline, so it can seed model parameters directly.
    """

    def __init__(self, cuts, rates):
        cuts = tuple(float(c) for c in cuts)
        rates = tuple(float(r) for r in rates)
        if len(cuts) != len(rates) or not cuts:
            raise ValueError("need one rate per cut point")
        if not all(map(math.isfinite, cuts + rates)):
            raise ValueError("cut points and rates must be finite")
        if cuts[0] != 0.0:
            raise ValueError("first cut point must be 0")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cut points must be increasing")
        if any(r < 0 for r in rates):
            raise ValueError("rates must be non-negative")
        self.cuts = cuts
        self.rates = rates
        cumulative = [0.0]
        for i in range(len(cuts) - 1):
            cumulative.append(cumulative[-1] + rates[i] * (cuts[i + 1] - cuts[i]))
        self._cum_at_cuts = np.asarray(cumulative)
        self._cuts_arr = np.asarray(cuts)
        self._rates_arr = np.asarray(rates)
        # (cut, rate, cumulative at the cut, cumulative at the next cut) as floats
        self._pieces = tuple(zip(cuts, rates, cumulative, cumulative[1:] + [math.inf]))

    def cumulative(self, t):
        """Cumulative hazard at ``t`` (scalar or array)."""
        t_arr = np.maximum(np.asarray(t, dtype=float), 0.0)
        idx = np.searchsorted(self._cuts_arr, t_arr, side="right") - 1
        out = self._cum_at_cuts[idx] + self._rates_arr[idx] * (t_arr - self._cuts_arr[idx])
        if np.isscalar(t):
            return float(out)
        return out

    def inverse(self, target: float) -> float:
        """Smallest t with cumulative(t) = target, or inf beyond the total mass."""
        if target <= 0:
            raise ValueError("target must be positive")
        for cut, rate, low, upper in self._pieces:
            if rate > 0 and target <= upper:
                return float(cut + (target - low) / rate)
        return math.inf


#: Onset hazard used throughout the scenario study: nothing before age 20,
#: then 0.02/yr on [20, 40), 0.10/yr on [40, 60), 0.05/yr afterwards.
DEFAULT_HAZARD = HazardSpec((0.0, 20.0, 40.0, 60.0), (0.0, 0.02, 0.10, 0.05))

#: Disease allele frequency of the scenario study.
DEFAULT_Q = 0.2

#: (individual_id, father_id, mother_id, sex) rows of the fixed family layout.
FAMILY_TEMPLATE = (
    ("1", None, None, Sex.MALE),
    ("2", None, None, Sex.FEMALE),
    ("3", "1", "2", Sex.MALE),
    ("4", "1", "2", Sex.FEMALE),
    ("5", "1", "2", Sex.FEMALE),
    ("6", None, None, Sex.FEMALE),
    ("7", None, None, Sex.MALE),
    ("8", "3", "6", Sex.MALE),
    ("9", "3", "6", Sex.FEMALE),
    ("10", "7", "4", Sex.MALE),
)

#: The template as one family, for its member ids and structure key.
_TEMPLATE = Pedigree([IndividualRecord("T", *row, 0.0, 0) for row in FAMILY_TEMPLATE])

#: By genotype code: the state, its origin label and its Oracle pin.
_GENOTYPES = tuple(Genotype)
_POO_LABEL = ("none", "pat", "mat", "both")
_PIN = tuple((int(state),) for state in Genotype)

#: A member's ``gene_test`` by mask code: untested, non-carrier, carrier.
_GENE_TEST = (None, 0, 1)

_GENOTYPE = operator.attrgetter("genotype")
_TRUTH_KEY = operator.attrgetter("family_id", "individual_id")

CENSOR_LOW, CENSOR_HIGH = 15.0, 80.0


@dataclass(frozen=True)
class TruthRecord:
    """Hidden simulation state for one individual.

    ``event_time`` is the (possibly infinite) pre-censoring onset age and
    ``censor_time`` the independent censoring draw; only their minimum is
    visible in the emitted pedigree.
    """

    family_id: str
    individual_id: str
    genotype: Genotype
    poo: str
    event_time: float
    censor_time: float


#: The keywords :func:`_simulate_family` writes into a ``TruthRecord``'s
#: ``__dict__`` in place of its ``__init__``. A field or ``__post_init__``
#: added to the dataclass fails the import here instead of being skipped for
#: every simulated member.
_TRUTH_FIELDS = ("family_id", "individual_id", "genotype", "poo", "event_time", "censor_time")
if (
    tuple(f.name for f in fields(TruthRecord)) != _TRUTH_FIELDS
    or hasattr(TruthRecord, "__post_init__")
):
    raise TypeError("TruthRecord changed: _simulate_family builds it field by field")


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _children(seq, n):
    """What ``seq.spawn(n)`` returns, leaving ``seq``'s spawn counter alone.

    ``spawn`` advances the counter, so a second call on one object would
    draw new streams; deriving the children keeps every call repeatable.
    """
    start = seq.n_children_spawned
    return [
        type(seq)(seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size)
        for i in range(start, start + n)
    ]


def _seed_roots(seed):
    """The (truth, mask) seed roots of one simulation seed."""
    return _children(_as_seedseq(seed), 2)


def _simulate_family(family_id, ids, parents, rng, beta, q, hazard, mark_probands):
    """One family's ages, statuses, proband flags and truth records, in member order.

    ``ids`` are the members' ids and ``parents`` their (father, mother)
    positions, ``(-1, -1)`` for a founder, as
    :meth:`pedigree.Pedigree.structure_key` gives them. Each parent comes
    before its children, whose draws read the parent's drawn state.

    A censoring age takes the one double ``uniform`` would, rounded twice
    (product, then sum) on every platform; truth records skip the frozen
    dataclass's per-field ``__init__``, as :func:`pedigree._record` does.
    """
    random, exponential, inverse = rng.random, rng.exponential, hazard.inverse
    paternal_scale = math.exp(beta)
    width = CENSOR_HIGH - CENSOR_LOW
    states, ages, statuses, truth = [], [], [], []
    for individual_id, (father, mother) in zip(ids, parents):
        if father < 0:
            from_father = random() < q
            from_mother = random() < q
        else:
            from_father = random() < TRANSMIT_PROBABILITY[states[father]]
            from_mother = random() < TRANSMIT_PROBABILITY[states[mother]]
        state = from_father + 2 * from_mother
        states.append(state)

        if state == Genotype.NON_CARRIER:
            event_time = math.inf
        elif state == Genotype.HET_PATERNAL:
            event_time = inverse(exponential(1.0) / paternal_scale)
        else:
            event_time = inverse(exponential(1.0))
        censor_time = CENSOR_LOW + width * random()
        affected = event_time <= censor_time
        ages.append(event_time if affected else censor_time)
        statuses.append(1 if affected else 0)
        record = object.__new__(TruthRecord)
        record.__dict__.update(
            family_id=family_id, individual_id=individual_id, genotype=_GENOTYPES[state],
            poo=_POO_LABEL[state], event_time=event_time, censor_time=censor_time,
        )
        truth.append(record)
    probands = [False] * len(ids)
    if mark_probands and 1 in statuses:
        probands[statuses.index(1)] = True
    return ages, statuses, probands, truth


def _family_count(n):
    """``n`` as an ``int``; ``ValueError`` for a bool or a number of another type."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"the number of families must be an integer, got {n!r}")
    return int(n)


def simulate_families(n, beta, q, hazard=DEFAULT_HAZARD, scenario=Scenario.S0,
                      seed=0, mark_probands=False):
    """Simulate ``n`` ten-member families plus their hidden truth table.

    Returns (families, truth) where truth is a flat list of
    :class:`TruthRecord`. The genotype/onset draws depend only on
    (seed, family index), so different scenarios with the same seed share
    identical underlying families and differ purely in genotype visibility.
    The families are built unmasked and masked by :func:`_mask_families`,
    as :func:`apply_scenario_mask` masks them, so S0 returns them as built
    and any other scenario builds each family once more, sharing its
    structure. With ``mark_probands`` the first affected member of each
    family is flagged as its proband.
    """
    n = _family_count(n)
    if n < 1:
        raise ValueError("need at least one family")
    _check_beta(beta)
    _check_q(q)
    scenario = Scenario(scenario)
    truth_root, mask_root = _seed_roots(seed)
    truth_seeds = _children(truth_root, n)
    family_ids = [f"F{k + 1}" for k in range(n)]
    ids, parents = _TEMPLATE.column("individual_id"), _TEMPLATE.structure_key()
    ages, statuses, probands, truth = [], [], [], []
    for family_id, family_seed in zip(family_ids, truth_seeds):
        rng = np.random.Generator(np.random.Philox(family_seed))
        drawn = _simulate_family(family_id, ids, parents, rng, beta, q, hazard, mark_probands)
        for column, values in zip((ages, statuses, probands, truth), drawn):
            column.extend(values)
    size = len(FAMILY_TEMPLATE)
    template = [column * n for column in zip(*FAMILY_TEMPLATE)]
    families = _families(
        family_ids,
        np.repeat(np.arange(n), size),
        [*template, ages, statuses, [None] * len(ages), probands, [()] * len(ages)],
    )
    states = list(map(_GENOTYPE, truth))
    return _mask_families(families, scenario, states, statuses, [size] * n, mask_root), truth


def _mask_columns(scenario, states, statuses, sizes, root):
    """A scenario's ``gene_test`` and ``genotype_pin`` columns for a cohort.

    ``states`` and ``statuses`` hold the members' true genotypes and their
    statuses in record order, and ``sizes`` the family sizes in family
    order. S1 draws family k's uniforms, one per member in member order,
    from child k of the seed sequence ``root``. The pin column is ``None``
    when the scenario pins no one.
    """
    n = len(states)
    if scenario == Scenario.S0:
        return [None] * n, None
    states = np.fromiter(states, np.intp, n)
    code = (states != Genotype.NON_CARRIER) + 1
    if scenario == Scenario.S1:
        draws = np.concatenate([
            np.random.Generator(np.random.Philox(family_seed)).random(size)
            for family_seed, size in zip(_children(root, len(sizes)), sizes)
        ])
        code *= draws < np.where(np.fromiter(statuses, np.intp, n) == 1, 0.8, 0.1)
    gene_tests = list(map(_GENE_TEST.__getitem__, code.tolist()))
    if scenario != Scenario.ORACLE:
        return gene_tests, None
    return gene_tests, list(map(_PIN.__getitem__, states.tolist()))


def apply_scenario_mask(families, truth, scenario, seed):
    """Reveal genotype tests according to the scenario.

    Revealed tests are error-free carrier indicators. S0 reveals nothing;
    S1 reveals each affected individual with probability 0.8 and each
    unaffected individual with probability 0.1; S2 and Oracle reveal
    everyone, and Oracle also sets each record's ``genotype_pin`` to its
    true genotype. Any earlier mask is overwritten. The mask is drawn for
    the whole cohort at once, as :func:`simulate_families` draws it, and
    S1 draws each family from its own substream of ``seed``. Returns new
    pedigrees, each built once and sharing its family's structure; a family
    the mask leaves unchanged comes back as the same object. Neither the
    truth list nor ``seed`` is modified, so one seed always draws the same
    mask. A member without a truth record raises ``ValueError``.

    The members' true states come from the truth list, looked up by
    (family, individual); the mask itself is :func:`_mask_families`, which
    a study unit applies to the columns of its own simulation.
    """
    scenario = Scenario(scenario)
    families = list(families)
    genotype = dict(zip(map(_TRUTH_KEY, truth), map(_GENOTYPE, truth)))
    states, statuses, sizes = [], [], []
    for fam in families:
        ids = fam.column("individual_id")
        found = list(map(genotype.get, zip(repeat(fam.family_id), ids)))
        if None in found:
            raise ValueError(
                f"family {fam.family_id}: individual {ids[found.index(None)]} "
                "has no truth record"
            )
        states += found
        statuses += fam.column("status")
        sizes.append(len(ids))
    if not sizes:
        return []
    return _mask_families(families, scenario, states, statuses, sizes, _as_seedseq(seed))


def _mask_families(families, scenario, states, statuses, sizes, root):
    """``families`` masked for ``scenario`` from their members' columns.

    ``states``, ``statuses``, ``sizes`` and ``root`` are those of
    :func:`_mask_columns`, for ``families`` in their order. Each family the
    mask changes is built once more, sharing its structure; the others come
    back as the same object.
    """
    gene_tests, pins = _mask_columns(scenario, states, statuses, sizes, root)
    masked, lo = [], 0
    for fam, size in zip(families, sizes):
        hi = lo + size
        new_tests = tuple(gene_tests[lo:hi])
        new_pins = (None,) * size if pins is None else tuple(pins[lo:hi])
        if new_tests == fam.column("gene_test") and new_pins == fam.column("genotype_pin"):
            masked.append(fam)
        else:
            masked.append(fam._with_columns(gene_test=new_tests, genotype_pin=new_pins))
        lo = hi
    return masked


def format_truth(truth) -> str:
    """Serialize a truth table to its sidecar format."""
    lines = ["# family_id individual_id true_genotype true_poo"]
    for t in truth:
        lines.append(
            f"{t.family_id} {t.individual_id} {GENOTYPE_LABELS[t.genotype]} {t.poo}"
        )
    return "\n".join(lines) + "\n"


def parse_truth(text: str) -> dict:
    """Read a truth/oracle sidecar into a pin map for :func:`pedigree.pin_genotypes`."""
    pins = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 4:
            raise ValueError(f"truth sidecar line {lineno}: expected 4 columns")
        family_id, individual_id, genotype_label, _poo = fields
        if genotype_label not in LABEL_TO_GENOTYPE:
            raise ValueError(
                f"truth sidecar line {lineno}: unknown genotype {genotype_label!r}"
            )
        pins[(family_id, individual_id)] = LABEL_TO_GENOTYPE[genotype_label]
    return pins


@dataclass(frozen=True)
class ReplicateRow:
    """One fitted replicate of the scenario study."""

    case: str
    scenario: str
    replicate: int
    beta_hat: float
    se: float
    iterations: int
    converged: bool
    seed: str
    error: str = ""


def _case_label(n_families, beta) -> str:
    return f"n{n_families}_beta{beta:g}"


def _run_replicate(families, scenario, config, case_label, replicate_index,
                   seed_label) -> ReplicateRow:
    """Fit one study row: ``families`` masked for ``scenario``."""
    try:
        result = em_fit(families, config)
    except (EMError, InferenceError) as err:
        return ReplicateRow(
            case=case_label,
            scenario=scenario.value,
            replicate=replicate_index,
            beta_hat=float("nan"),
            se=float("nan"),
            iterations=0,
            converged=False,
            seed=seed_label,
            error=f"{type(err).__name__}: {err}",
        )
    return ReplicateRow(
        case=case_label,
        scenario=scenario.value,
        replicate=replicate_index,
        beta_hat=result.beta_hat,
        se=float(result.std_errors[0]),
        iterations=result.iterations,
        converged=result.converged,
        seed=seed_label,
    )


def _run_unit(args) -> list[ReplicateRow]:
    """One (case, replicate) unit: simulate once, fit every scenario's mask.

    The first scenario's families come from ``simulate_families``; the
    others are masked from its columns (the truth list holds every member's
    state in record order) with the mask root it derives from the same
    seed, so each row equals a fresh ``simulate_families`` call for its
    scenario. Returns one row per scenario, in scenario order.
    """
    sim_entropy, n_families, beta, scenarios, config = args
    master_seed, case_index, replicate_index = sim_entropy
    simulated, truth = simulate_families(
        n_families, beta, config.q, hazard=DEFAULT_HAZARD, scenario=scenarios[0],
        seed=sim_entropy,
    )
    _, mask_root = _seed_roots(sim_entropy)
    states = list(map(_GENOTYPE, truth))
    statuses = [status for fam in simulated for status in fam.column("status")]
    sizes = [len(FAMILY_TEMPLATE)] * n_families
    label = _case_label(n_families, beta)
    seed_label = f"{master_seed}-{case_index}-{replicate_index}"
    rows = []
    for i, scenario in enumerate(scenarios):
        families = (
            simulated if i == 0
            else _mask_families(simulated, scenario, states, statuses, sizes, mask_root)
        )
        rows.append(
            _run_replicate(families, scenario, config, label, replicate_index, seed_label)
        )
    return rows


def replicate_study(cases, scenarios, replicates, seed=0, q=DEFAULT_Q,
                    jobs: int = 1) -> list[ReplicateRow]:
    """Simulate and fit every (case, scenario, replicate) combination.

    ``cases`` is a sequence of (n_families, beta) pairs; onsets follow
    ``DEFAULT_HAZARD``. The work is split into (case, replicate) units: a
    unit simulates its families once and masks them per scenario, so all
    scenarios of one case and replicate share the same families and differ
    only in genotype visibility, giving paired comparisons. Fits assume the
    simulator's error-free tests (epsilon = eta = 0) and known ``q``, with
    every other EM knob at its ``EMConfig`` default. Failed replicates
    become rows carrying the failure reason instead of aborting the study.
    Rows come in (case, scenario, replicate) order, and order and content
    are independent of ``jobs``, which sets how many units run at once.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    scenarios = [Scenario(s) for s in scenarios]
    if not scenarios:
        raise ValueError("need at least one scenario")
    cases = [(_family_count(n_families), beta) for n_families, beta in cases]
    for n_families, beta in cases:
        try:
            if n_families < 1:
                raise ValueError("need at least one family")
            _check_beta(beta)
        except ValueError as err:
            raise ValueError(f"bad case {n_families}:{beta}; {err}") from None
    units = []
    for case_index, (n_families, beta) in enumerate(cases):
        for replicate_index in range(replicates):
            sim_entropy = (seed, case_index, replicate_index)
            em_seed = int(np.random.SeedSequence(sim_entropy + (1,)).generate_state(1)[0])
            config = EMConfig(q=q, epsilon=0.0, eta=0.0, seed=em_seed)
            units.append((sim_entropy, n_families, float(beta), scenarios, config))
    done = _fan_out(_run_unit, units, jobs)
    return [
        done[case_index * replicates + replicate_index][s]
        for case_index in range(len(cases))
        for s in range(len(scenarios))
        for replicate_index in range(replicates)
    ]
