"""Deterministic heterogeneous cohorts for the ``hetero_fit`` workload.

Every family grows from one founder couple over three descendant
generations. Each couple has a sibship of 1-5 children; children of the
first two descendant generations marry a married-in spouse (a founder)
with a fixed probability. A fixed share of the families, chosen at random,
add one marriage between same-generation cousins from different branches,
which closes a loop in the pedigree graph, and another fixed share (8%) is
redrawn until it has at most 10 members, on top of the small families the
process gives anyway. Both shares are fixed rather than drawn per family: the number of
looped families, which cost the E-step the most, then does not vary from
seed to seed, and every cohort holds small families for the workload's
brute-force check. A family outside 8-40 members, or that misses the kind
it was drawn for, is redrawn.
Because sibship sizes, marriages and sexes are drawn per family, almost
every family has its own ``structure_key()``, which is the property the
workload exists to measure.

Phenotypes follow the package's model: Hardy-Weinberg founders, Mendelian
transmission, onset by ``DEFAULT_HAZARD.inverse`` scaled by exp(beta) for
paternal-origin carriers, and uniform censoring on [15, 80]. Gene tests are
revealed through the public ``apply_scenario_mask`` under scenario S1.
"""

from __future__ import annotations

import math

import numpy as np

from poosurv import (
    DEFAULT_HAZARD,
    Genotype,
    IndividualRecord,
    Pedigree,
    Scenario,
    Sex,
    TruthRecord,
    apply_scenario_mask,
    build_clique_tree,
    format_ped,
)

BETA, Q = -0.6, 0.2
MIN_SIZE, MAX_SIZE = 8, 40
SIBSHIP = (1, 5)
#: Probability that a child of descendant generation 1 or 2 marries in.
MARRY_IN = (0.85, 0.3)
#: Share of the families that hold one cousin marriage in generation 2.
COUSIN_MARRIAGE = 0.12
#: Share of the families redrawn until they have at most ``SMALL_SIZE``
#: members (none of them looped).
SMALL_SHARE, SMALL_SIZE = 0.08, 10
CENSOR_LOW, CENSOR_HIGH = 15.0, 80.0
_POO = {
    Genotype.NON_CARRIER: "none",
    Genotype.HET_PATERNAL: "pat",
    Genotype.HET_MATERNAL: "mat",
    Genotype.HOMOZYGOUS: "both",
}


def _structure(rng, cousins_marry):
    """(id, father, mother, sex) rows in parent-before-child order, and
    whether a cousin marriage was made (only ever when ``cousins_marry``)."""
    rows = []

    def add(father, mother, sex):
        rows.append((str(len(rows) + 1), father, mother, sex))
        return rows[-1][0]

    def random_sex():
        return Sex.MALE if rng.random() < 0.5 else Sex.FEMALE

    def sibship(father, mother, low, high):
        return [
            (add(father, mother, random_sex()), rows[-1][3])
            for _ in range(int(rng.integers(low, high + 1)))
        ]

    def marry_in(person, sex):
        spouse = add(None, None, Sex.FEMALE if sex == Sex.MALE else Sex.MALE)
        return (person, spouse) if sex == Sex.MALE else (spouse, person)

    founders = (add(None, None, Sex.MALE), add(None, None, Sex.FEMALE))
    generation1 = sibship(*founders, *SIBSHIP)
    branches = []  # the generation-2 children of each married generation-1 child
    for person, sex in generation1:
        if rng.random() < MARRY_IN[0]:
            branches.append(sibship(*marry_in(person, sex), *SIBSHIP))

    couples = []
    if cousins_marry:
        males = [(b, p) for b, kids in enumerate(branches) for p, s in kids if s == Sex.MALE]
        females = [(b, p) for b, kids in enumerate(branches) for p, s in kids if s == Sex.FEMALE]
        pairs = [(m, f) for bm, m in males for bf, f in females if bm != bf]
        if pairs:
            couples.append(pairs[int(rng.integers(len(pairs)))])
    cousins = {p for couple in couples for p in couple}
    for kids in branches:
        for person, sex in kids:
            if person not in cousins and rng.random() < MARRY_IN[1]:
                couples.append(marry_in(person, sex))
    for father, mother in couples:
        sibship(father, mother, *SIBSHIP)
    return rows, bool(cousins)


def _phenotypes(family_id, rows, rng):
    records, truth, genotypes = [], [], {}
    for individual_id, father, mother, sex in rows:
        if father is None:
            from_father, from_mother = rng.random() < Q, rng.random() < Q
        else:
            transmit = (0.0, 0.5, 0.5, 1.0)
            from_father = rng.random() < transmit[genotypes[father]]
            from_mother = rng.random() < transmit[genotypes[mother]]
        genotype = Genotype(int(from_father) + 2 * int(from_mother))
        genotypes[individual_id] = genotype
        if genotype == Genotype.NON_CARRIER:
            onset = math.inf
        else:
            scale = math.exp(BETA) if genotype == Genotype.HET_PATERNAL else 1.0
            onset = DEFAULT_HAZARD.inverse(rng.exponential(1.0) / scale)
        censor = rng.uniform(CENSOR_LOW, CENSOR_HIGH)
        affected = onset <= censor
        records.append(IndividualRecord(
            family_id=family_id, individual_id=individual_id,
            father_id=father, mother_id=mother, sex=sex,
            age=onset if affected else censor, status=int(affected),
        ))
        truth.append(TruthRecord(
            family_id=family_id, individual_id=individual_id, genotype=genotype,
            poo=_POO[genotype], event_time=onset, censor_time=censor,
        ))
    return Pedigree(records), truth


def generate_cohort(n_families, seed):
    """PED text of ``n_families`` families under ``BETA`` and ``Q``; same seed, same bytes."""
    structure_root, phenotype_root, mask_root, loop_root = np.random.SeedSequence(
        (seed, 0x4E7E)
    ).spawn(4)
    order = np.random.Generator(np.random.Philox(loop_root)).permutation(n_families).tolist()
    n_looped = max(1, round(COUSIN_MARRIAGE * n_families))
    looped = set(order[:n_looped])
    small = set(order[n_looped : n_looped + max(1, round(SMALL_SHARE * n_families))])
    families, truth = [], []
    for k, (s_seed, p_seed) in enumerate(
        zip(structure_root.spawn(n_families), phenotype_root.spawn(n_families))
    ):
        rng = np.random.Generator(np.random.Philox(s_seed))
        high = SMALL_SIZE if k in small else MAX_SIZE
        rows, loop = _structure(rng, k in looped)
        while not (MIN_SIZE <= len(rows) <= high and loop == (k in looped)):
            rows, loop = _structure(rng, k in looped)
        fam, fam_truth = _phenotypes(
            f"H{k + 1}", rows, np.random.Generator(np.random.Philox(p_seed))
        )
        families.append(fam)
        truth.extend(fam_truth)
    families = apply_scenario_mask(families, truth, Scenario.S1, mask_root)
    return format_ped(families)


def cohort_properties(families):
    """The workload properties recorded next to the metrics."""
    return {
        "families": len(families),
        "individuals": sum(len(f) for f in families),
        "distinct_structures": len({f.structure_key() for f in families}),
        "max_clique_size": max(
            build_clique_tree(f).max_clique_size
            for f in {f.structure_key(): f for f in families}.values()
        ),
        "min_family_size": min(len(f) for f in families),
        "max_family_size": max(len(f) for f in families),
        "looped_families": sum(is_looped(f) for f in families),
    }


def is_looped(pedigree):
    """True when the pedigree graph has a cycle (e.g. a cousin marriage).

    A family of ``n`` members whose ``m`` non-founders each link two parents
    is a tree exactly when its mating graph (individuals plus one node per
    couple) has n + couples - 1 edges; more edges mean a loop.
    """
    couples = {pedigree.parents(r.individual_id) for r in pedigree if not r.is_founder}
    children = sum(1 for r in pedigree if not r.is_founder)
    nodes = len(pedigree) + len(couples)
    edges = 2 * len(couples) + children
    return edges > nodes - 1
