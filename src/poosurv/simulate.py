"""Synthetic pedigree generation and the scenario replication study.

Every simulated family uses one fixed three-generation, ten-member layout:
a grandparent couple, their three children, two married-in spouses, and
three grandchildren (two full siblings plus one cousin). Founder genotypes
follow Hardy-Weinberg equilibrium, children receive alleles by Mendelian
transmission, and carriers draw an age at onset from a piecewise-constant
hazard scaled by exp(beta) when the mutation came from the father.
Homozygous carriers follow the maternal-origin hazard. Everyone is censored
by an independent uniform draw on [15, 80].

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
its families once and derives each scenario's families from them with
:func:`apply_scenario_mask` and the mask root of the same seed, which gives
exactly the families a fresh :func:`simulate_families` call for that
scenario would. Masking copies records through
:meth:`pedigree.Pedigree.with_values`, which keeps each family's validated
structure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .em import EMConfig, EMError, _fan_out, em_fit
from .genetics import GENOTYPE_LABELS, LABEL_TO_GENOTYPE, TRANSMIT_PROBABILITY, Genotype
from .inference import InferenceError
from .pedigree import IndividualRecord, Pedigree, Sex

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
        for i, rate in enumerate(self.rates):
            upper = (
                self._cum_at_cuts[i + 1] if i + 1 < len(self.cuts) else math.inf
            )
            if rate > 0 and target <= upper:
                return self.cuts[i] + (target - self._cum_at_cuts[i]) / rate
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

_POO_LABEL = {
    Genotype.NON_CARRIER: "none",
    Genotype.HET_PATERNAL: "pat",
    Genotype.HET_MATERNAL: "mat",
    Genotype.HOMOZYGOUS: "both",
}

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


def _simulate_family(family_id, rng, beta, q, hazard, mark_probands):
    genotypes: dict[str, Genotype] = {}
    records = []
    truth = []
    for individual_id, father, mother, sex in FAMILY_TEMPLATE:
        if father is None:
            from_father = rng.random() < q
            from_mother = rng.random() < q
        else:
            from_father = rng.random() < TRANSMIT_PROBABILITY[genotypes[father]]
            from_mother = rng.random() < TRANSMIT_PROBABILITY[genotypes[mother]]
        genotype = Genotype(int(from_father) + 2 * int(from_mother))
        genotypes[individual_id] = genotype

        if genotype == Genotype.NON_CARRIER:
            event_time = math.inf
        else:
            scale = math.exp(beta) if genotype == Genotype.HET_PATERNAL else 1.0
            event_time = hazard.inverse(rng.exponential(1.0) / scale)
        censor_time = rng.uniform(CENSOR_LOW, CENSOR_HIGH)
        affected = event_time <= censor_time
        records.append(
            IndividualRecord(
                family_id=family_id,
                individual_id=individual_id,
                father_id=father,
                mother_id=mother,
                sex=sex,
                age=event_time if affected else censor_time,
                status=1 if affected else 0,
                gene_test=None,
            )
        )
        truth.append(
            TruthRecord(
                family_id=family_id,
                individual_id=individual_id,
                genotype=genotype,
                poo=_POO_LABEL[genotype],
                event_time=event_time,
                censor_time=censor_time,
            )
        )
    if mark_probands:
        for i, rec in enumerate(records):
            if rec.status == 1:
                records[i] = replace(rec, proband=True)
                break
    return Pedigree(records), truth


def simulate_families(n, beta, q, hazard=DEFAULT_HAZARD, scenario=Scenario.S0,
                      seed=0, mark_probands=False):
    """Simulate ``n`` ten-member families plus their hidden truth table.

    Returns (families, truth) where truth is a flat list of
    :class:`TruthRecord`. The genotype/onset draws depend only on
    (seed, family index), so different scenarios with the same seed share
    identical underlying families and differ purely in genotype visibility.
    With ``mark_probands`` the first affected member of each family is
    flagged as its proband.
    """
    if n < 1:
        raise ValueError("need at least one family")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"allele frequency q must be in [0, 1], got {q}")
    scenario = Scenario(scenario)
    truth_root, mask_root = _seed_roots(seed)
    truth_seeds = _children(truth_root, n)
    families, truth = [], []
    for k in range(n):
        rng = np.random.Generator(np.random.Philox(truth_seeds[k]))
        fam, fam_truth = _simulate_family(f"F{k + 1}", rng, beta, q, hazard, mark_probands)
        families.append(fam)
        truth.extend(fam_truth)
    families = apply_scenario_mask(families, truth, scenario, mask_root)
    return families, truth


def apply_scenario_mask(families, truth, scenario, seed):
    """Reveal genotype tests according to the scenario.

    Revealed tests are error-free carrier indicators. S0 reveals nothing;
    S1 reveals each affected individual with probability 0.8 and each
    unaffected individual with probability 0.1; S2 and Oracle reveal
    everyone, and Oracle also sets each record's ``genotype_pin`` to its
    true genotype. Any earlier mask is overwritten. Returns new pedigrees;
    neither the truth list nor ``seed`` is modified, so one seed always
    draws the same mask.
    """
    scenario = Scenario(scenario)
    genotype = {(t.family_id, t.individual_id): t.genotype for t in truth}
    root = _as_seedseq(seed)
    # only S1 draws, each family from its own substream
    draws = scenario == Scenario.S1
    mask_seeds = _children(root, len(families)) if draws else [None] * len(families)
    masked = []
    for fam, fam_seed in zip(families, mask_seeds):
        states = [genotype[(fam.family_id, rec.individual_id)] for rec in fam]
        if draws:
            rng = np.random.Generator(np.random.Philox(fam_seed))
            observed = [rng.random() < (0.8 if rec.status == 1 else 0.1) for rec in fam]
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    others are masked from them with the mask root it derives from the same
    seed, so each row equals a fresh ``simulate_families`` call for its
    scenario. Returns one row per scenario, in scenario order.
    """
    master_seed, case_index, n_families, beta, scenarios, replicate_index, config = args
    sim_entropy = (master_seed, case_index, replicate_index)
    simulated, truth = simulate_families(
        n_families, beta, config.q, hazard=DEFAULT_HAZARD, scenario=scenarios[0],
        seed=sim_entropy,
    )
    _, mask_root = _seed_roots(sim_entropy)
    em_seed = int(np.random.SeedSequence(sim_entropy + (1,)).generate_state(1)[0])
    config = replace(config, seed=em_seed)
    label = _case_label(n_families, beta)
    seed_label = f"{master_seed}-{case_index}-{replicate_index}"
    rows = []
    for i, scenario in enumerate(scenarios):
        families = (
            simulated if i == 0
            else apply_scenario_mask(simulated, truth, scenario, mask_root)
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
    for n_families, beta in cases:
        if int(n_families) < 1 or not math.isfinite(beta):
            raise ValueError(
                f"bad case {n_families}:{beta}; need at least one family and a finite beta"
            )
    config = EMConfig(q=q, epsilon=0.0, eta=0.0)
    units = [
        (seed, case_index, int(n_families), float(beta), scenarios, replicate_index, config)
        for case_index, (n_families, beta) in enumerate(cases)
        for replicate_index in range(replicates)
    ]
    done = _fan_out(_run_unit, units, jobs)
    return [
        done[case_index * replicates + replicate_index][s]
        for case_index in range(len(cases))
        for s in range(len(scenarios))
        for replicate_index in range(replicates)
    ]
