"""Clique-tree inference tests against the brute-force enumeration oracle."""

import dataclasses
import hashlib
import sys
import _thread
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poosurv import (
    DEFAULT_HAZARD,
    BaselineHazard,
    EMConfig,
    Genotype,
    IndividualRecord,
    InferenceError,
    MarginalEngine,
    ModelParams,
    Pedigree,
    PosteriorWeights,
    Sex,
    ZeroEvidenceError,
    apply_proband_correction,
    brute_force_marginals,
    build_clique_tree,
    em_fit,
    parse_ped,
    pin_genotypes,
    posterior_marginals,
    simulate_families,
)
from poosurv import genetics, inference
from poosurv.inference import (
    MAX_POTENTIAL_BYTES,
    EngineStats,
    _Forest,
    _Forests,
    _sums_first,
    family_weights,
)


def make_record(family_id, individual_id, father=None, mother=None, sex=Sex.MALE,
                age=50.0, status=0, gene_test=None, proband=False, covariates=()):
    return IndividualRecord(
        family_id, individual_id, father, mother, sex, age, status, gene_test,
        proband, covariates,
    )


def trio():
    return Pedigree(
        [
            make_record("T", "f", sex=Sex.MALE),
            make_record("T", "m", sex=Sex.FEMALE),
            make_record("T", "c", father="f", mother="m", age=40.0, status=1),
        ]
    )


def cousin_marriage_family():
    """First-cousin marriage: a genuine cycle in the moral graph."""
    rows = [
        make_record("L", "gp1", sex=Sex.MALE, age=80.0),
        make_record("L", "gp2", sex=Sex.FEMALE, age=78.0),
        make_record("L", "p1", "gp1", "gp2", Sex.MALE, 55.0),
        make_record("L", "p2", "gp1", "gp2", Sex.FEMALE, 53.0),
        make_record("L", "s1", sex=Sex.FEMALE, age=54.0),
        make_record("L", "s2", sex=Sex.MALE, age=56.0),
        make_record("L", "c1", "p1", "s1", Sex.MALE, 30.0),
        make_record("L", "c2", "s2", "p2", Sex.FEMALE, 28.0, status=1),
        make_record("L", "g", "c1", "c2", Sex.MALE, 5.0),
    ]
    return Pedigree(rows)


def random_pedigree(rng, size, family_id="R", with_loop=False, covariates=0):
    """Random valid pedigree with random evidence, optionally loopy."""
    records = []
    males, females = [], []

    def add(individual_id, father, mother, sex):
        age = float(rng.uniform(1.0, 90.0))
        status = int(rng.random() < 0.35)
        gene_test = [None, None, 0, 1][rng.integers(0, 4)]
        covs = tuple(np.round(rng.normal(size=covariates), 3))
        records.append(
            make_record(
                family_id, individual_id, father, mother, sex, age, status,
                gene_test, proband=bool(rng.random() < 0.1), covariates=covs,
            )
        )
        (males if sex == Sex.MALE else females).append(individual_id)

    if with_loop:
        # seed with a first-cousin marriage block of 9 members
        add("1", None, None, Sex.MALE)
        add("2", None, None, Sex.FEMALE)
        add("3", "1", "2", Sex.MALE)
        add("4", "1", "2", Sex.FEMALE)
        add("5", None, None, Sex.FEMALE)
        add("6", None, None, Sex.MALE)
        add("7", "3", "5", Sex.MALE)
        add("8", "6", "4", Sex.FEMALE)
        add("9", "7", "8", Sex.MALE)
    else:
        add("1", None, None, Sex.MALE)
        add("2", None, None, Sex.FEMALE)
    next_id = len(records) + 1
    while len(records) < size:
        sex = Sex.MALE if rng.random() < 0.5 else Sex.FEMALE
        if rng.random() < 0.35 or not males or not females:
            add(str(next_id), None, None, sex)
        else:
            add(
                str(next_id),
                str(rng.choice(males)),
                str(rng.choice(females)),
                sex,
            )
        next_id += 1
    return Pedigree(records)


def kindred(rng, family_id, cousins_marry=False):
    """A clinic-like kindred with random phenotypes and tests: a founder
    couple, their 1-4 children, each of whom marries in and has 1-4
    children, and, when ``cousins_marry`` and the grandchildren allow it,
    1-3 children of two first cousins, which closes a loop."""
    rows = []

    def add(father=None, mother=None, sex=Sex.MALE):
        rows.append((str(len(rows) + 1), father, mother, sex))
        return rows[-1][0]

    def children(father, mother, most):
        sexes = [Sex.MALE if rng.random() < 0.5 else Sex.FEMALE
                 for _ in range(int(rng.integers(1, most + 1)))]
        return [(add(father, mother, sex), sex) for sex in sexes]

    branches = []
    for child, sex in children(add(), add(sex=Sex.FEMALE), 4):
        spouse = add(sex=Sex.FEMALE if sex == Sex.MALE else Sex.MALE)
        branches.append(children(*((child, spouse) if sex == Sex.MALE else (spouse, child)), 4))
    cousins = [(m, f) for a, men in enumerate(branches) for m, s in men if s == Sex.MALE
               for b, women in enumerate(branches) for f, t in women if t == Sex.FEMALE and a != b]
    if cousins_marry and cousins:
        children(*cousins[int(rng.integers(len(cousins)))], 3)
    return Pedigree([
        make_record(family_id, ident, father, mother, sex, float(rng.uniform(1.0, 90.0)),
                    int(rng.random() < 0.35), [None, None, 0, 1][rng.integers(0, 4)],
                    bool(rng.random() < 0.1))
        for ident, father, mother, sex in rows
    ])


def random_params(rng, covariates=0):
    return ModelParams(
        q=float(rng.uniform(0.05, 0.4)),
        beta=float(rng.normal(scale=0.7)),
        gamma=tuple(rng.normal(scale=0.3, size=covariates)),
        epsilon=0.01,
        eta=0.001,
        baseline=DEFAULT_HAZARD,
    )


#: The model of engines that a test compiles only for their schedule.
SCHEDULE_ONLY = ModelParams(q=0.2)


def engine_at(families, params=SCHEDULE_ONLY):
    """A :class:`MarginalEngine` of ``families`` compiled at ``params``'
    (q, epsilon, eta)."""
    return MarginalEngine(families, params.q, params.epsilon, params.eta)


def run(engine, params):
    """``engine.run`` at ``params``' beta, gamma and baseline cumulative
    hazards; ``engine`` must be compiled at their (q, epsilon, eta)."""
    return engine.run(params.beta, params.gamma, params.cumulative_hazard(engine.ages))


def clique_roots(tree):
    """Lowest clique index of each connected component of ``tree``."""
    seen, roots = set(), []
    for start in range(len(tree.cliques)):
        if start in seen:
            continue
        roots.append(start)
        stack = [start]
        seen.add(start)
        while stack:
            for nb in tree.neighbors(stack.pop()):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return roots


def running_intersection_holds(tree, n_vars):
    """Whether the cliques holding each of ``n_vars`` variables are present
    and form a connected subtree of ``tree``."""
    for v in range(n_vars):
        holding = {i for i, c in enumerate(tree.cliques) if v in c}
        if not holding:
            return False
        start = min(holding)
        reached, stack = {start}, [start]
        while stack:
            for nb in tree.neighbors(stack.pop()):
                if nb in holding and nb not in reached:
                    reached.add(nb)
                    stack.append(nb)
        if reached != holding:
            return False
    return True


def reference_clique_tree(pedigree):
    """(cliques, edges) of the junction forest, built with plain sets.

    The set-based min-fill the bitset build replaced, kept as its oracle:
    same tie-breaking (lowest fill, then lowest position), same subset
    filter, same spanning forest (largest separator, then lowest indices).
    """
    pos = pedigree.position
    adj = [set() for _ in range(len(pedigree))]
    for rec in pedigree:
        if not rec.is_founder:
            c, f, m = pos(rec.individual_id), pos(rec.father_id), pos(rec.mother_id)
            for a, b in ((c, f), (c, m), (f, m)):
                adj[a].add(b)
                adj[b].add(a)
    remaining = set(range(len(adj)))
    elim = []
    while remaining:
        best, best_fill = None, None
        for v in sorted(remaining):
            nbrs = adj[v]
            degree = len(nbrs)
            fill = degree * (degree - 1) // 2 - sum(len(adj[a] & nbrs) for a in nbrs) // 2
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        nbrs = sorted(adj[best])
        elim.append(tuple(sorted([best] + nbrs)))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        for a in nbrs:
            adj[a].discard(best)
        adj[best].clear()
        remaining.discard(best)
    cliques, kept = [], []
    for cand in elim:
        if not any(set(cand) <= k for k in kept):
            cliques.append(cand)
            kept.append(set(cand))
    candidates = sorted(
        (-len(kept[i] & kept[j]), i, j)
        for i in range(len(kept)) for j in range(i + 1, len(kept))
        if kept[i] & kept[j]
    )
    root = list(range(len(cliques)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    edges = []
    for _, i, j in candidates:
        ri, rj = find(i), find(j)
        if ri != rj:
            root[ri] = rj
            edges.append((i, j))
    return cliques, edges


class TestCliqueTree:
    def test_matches_set_based_reference_on_random_pedigrees(self):
        rng = np.random.default_rng(2024)
        sizes = []
        for k in range(960):
            size = int(rng.integers(1, 41))
            ped = random_pedigree(rng, max(size, 9) if k % 3 == 0 else size,
                                  family_id=f"R{k}", with_loop=k % 3 == 0)
            tree = build_clique_tree(ped)
            cliques, edges = reference_clique_tree(ped)
            assert tree.cliques == cliques, ped.family_id
            assert tree.edges == edges, ped.family_id
            sizes.append(tree.max_clique_size)
        # the draw reaches well past trios: wide cliques and forests alike
        assert max(sizes) >= 8 and min(sizes) == 1

    def test_trio_single_clique(self):
        tree = build_clique_tree(trio())
        assert tree.cliques == [(0, 1, 2)]
        assert tree.edges == []

    def test_two_independent_founders(self):
        ped = Pedigree(
            [make_record("D", "a", sex=Sex.MALE), make_record("D", "b", sex=Sex.FEMALE)]
        )
        tree = build_clique_tree(ped)
        assert sorted(tree.cliques) == [(0,), (1,)]
        assert tree.edges == []
        assert len(clique_roots(tree)) == 2

    def test_cousin_marriage_tree_properties(self):
        ped = cousin_marriage_family()
        tree = build_clique_tree(ped)
        assert tree.max_clique_size >= 3
        assert running_intersection_holds(tree, len(ped))

    def test_rooted_forest_placement_rules_on_random_pedigrees(self):
        # The pedigrees of the set-based reference test. Each tree is rooted
        # at its lowest clique; every founder prior and transmission table
        # sits on the lowest clique holding its scope, every member is read
        # out from the lowest clique holding it, and the separator axes of
        # an edge name the same members in the child and in the parent.
        rng = np.random.default_rng(2024)
        for k in range(960):
            size = int(rng.integers(1, 41))
            ped = random_pedigree(rng, max(size, 9) if k % 3 == 0 else size,
                                  family_id=f"R{k}", with_loop=k % 3 == 0)
            tree = build_clique_tree(ped)
            cliques = tree.cliques
            forest = _Forest(ped.structure_key())
            placed = _Forests({ped.structure_key(): [0]}, [forest])
            nc = len(cliques)

            def lowest(scope):
                return min(j for j, c in enumerate(cliques) if set(scope) <= set(c))

            assert forest.cliques == cliques
            edges = {(min(j, p), max(j, p)) for j, p in enumerate(forest.parent) if p >= 0}
            assert edges == set(tree.edges)
            assert sorted(j for j, p in enumerate(forest.parent) if p < 0) == clique_roots(tree)
            children = [[] for _ in range(nc)]
            for j, p in enumerate(forest.parent):
                inside = [cliques[j][a] for a in np.flatnonzero(placed.inside[j])]
                if p < 0:
                    assert forest.depth[j] == 0
                    assert inside == [] and not placed.outside[j].any()
                    continue
                children[p].append(j)
                assert forest.depth[j] == forest.depth[p] + 1
                assert inside == sorted(set(cliques[j]) & set(cliques[p]))
                assert [cliques[p][a] for a in np.flatnonzero(placed.outside[j])] == inside
            for j in range(nc):
                assert forest.height[j] == max(
                    (forest.height[c] + 1 for c in children[j]), default=0
                )

            factors = [[] for _ in range(nc)]
            for i, rec in enumerate(ped):
                j, axes = int(placed.factor_clique[i]), placed.factor_axes[i].tolist()
                if rec.is_founder:
                    scope, axes = (i,), axes[:1]
                    assert placed.factor_axes[i, 1:].tolist() == [-1, -1]
                else:
                    scope = (ped.position(rec.father_id), ped.position(rec.mother_id), i)
                assert tuple(cliques[j][a] for a in axes) == scope
                assert j == lowest(scope), ped.family_id
                factors[j].append(tuple(axes))
                j, axis = int(placed.read_clique[i]), int(placed.read_axis[i])
                assert cliques[j][axis] == i and j == lowest((i,)), ped.family_id
            for j in range(nc):  # the static pattern of each clique is its factors
                pattern = placed.patterns[len(cliques[j])][placed.pattern[j]]
                assert pattern == tuple(sorted(factors[j]))

    def test_factor_scopes_covered_on_random_pedigrees(self):
        rng = np.random.default_rng(77)
        for k in range(25):
            ped = random_pedigree(rng, size=int(rng.integers(3, 13)), with_loop=k % 3 == 0)
            tree = build_clique_tree(ped)
            assert running_intersection_holds(tree, len(ped))
            for rec in ped:
                if not rec.is_founder:
                    scope = {
                        ped.position(rec.individual_id),
                        ped.position(rec.father_id),
                        ped.position(rec.mother_id),
                    }
                    assert any(scope <= set(c) for c in tree.cliques)


class TestPosteriorMarginals:
    def test_certain_positive_under_error_free_test(self):
        # an error-free positive test annihilates the non-carrier state
        ped = Pedigree(
            [make_record("T", "x", sex=Sex.MALE, age=50.0, status=0, gene_test=1)]
        )
        params = ModelParams(q=0.2, epsilon=0.0, eta=0.0, baseline=DEFAULT_HAZARD)
        result = posterior_marginals(ped, params)
        assert result.weights["x"].w_zero == 0.0

    def test_single_founder_prior_recovered(self):
        ped = Pedigree([make_record("P", "x", sex=Sex.MALE, age=0.0, status=0)])
        params = ModelParams(q=0.2)  # no hazard, no evidence: posterior is the prior
        result = posterior_marginals(ped, params)
        w = result.weights["x"]
        assert w.w_pat == pytest.approx(0.16, abs=1e-12)
        assert w.w_mat == pytest.approx(0.20, abs=1e-12)
        assert w.w_zero == pytest.approx(0.64, abs=1e-12)

    def test_matches_brute_force_on_fixed_families(self):
        params = ModelParams(q=0.2, beta=-0.6, baseline=DEFAULT_HAZARD)
        for ped in (trio(), cousin_marriage_family()):
            exact = posterior_marginals(ped, params)
            brute = brute_force_marginals(ped, params)
            np.testing.assert_allclose(
                exact.marginals, brute.marginals, atol=1e-12
            )
            assert exact.log_evidence == pytest.approx(brute.log_evidence, abs=1e-10)

    def test_matches_brute_force_on_random_pedigrees(self):
        rng = np.random.default_rng(123)
        for k in range(25):
            ped = random_pedigree(
                rng, size=int(rng.integers(3, 11)), with_loop=k % 4 == 0,
                covariates=k % 2,
            )
            params = random_params(rng, covariates=k % 2)
            exact = posterior_marginals(ped, params)
            brute = brute_force_marginals(ped, params)
            np.testing.assert_allclose(exact.marginals, brute.marginals, atol=1e-10)
            assert exact.log_evidence == pytest.approx(brute.log_evidence, abs=1e-9)

    def test_affected_child_cannot_be_noncarrier(self):
        params = ModelParams(q=0.2, baseline=DEFAULT_HAZARD)
        result = posterior_marginals(trio(), params)
        assert result.weights["c"].w_zero == 0.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ped = random_pedigree(rng, size=8)
            result = posterior_marginals(ped, random_params(rng))
            for w in result.weights.values():
                assert w.w_pat + w.w_mat + w.w_zero == pytest.approx(1.0, abs=1e-9)

    def test_families_independent(self):
        # marginals per family equal marginals on the concatenated input
        rng = np.random.default_rng(31)
        params = random_params(rng)
        peds = [random_pedigree(rng, 6, family_id=f"F{i}") for i in range(3)]
        separate = [posterior_marginals(p, params) for p in peds]
        marginals, log_evidence = run(engine_at(peds, params), params)
        offset = 0
        for ped, single in zip(peds, separate):
            np.testing.assert_allclose(
                marginals[offset:offset + len(ped)], single.marginals, atol=1e-12
            )
            offset += len(ped)
        np.testing.assert_allclose(
            log_evidence, [s.log_evidence for s in separate], atol=1e-10
        )

    def test_zero_evidence_reported_with_family(self):
        ped = Pedigree(
            [make_record("Z9", "x", sex=Sex.MALE, age=50.0, status=1, gene_test=0)]
        )
        params = ModelParams(q=0.2, epsilon=0.0, eta=0.0, baseline=DEFAULT_HAZARD)
        with pytest.raises(ZeroEvidenceError) as exc:
            posterior_marginals(ped, params)
        assert "Z9" in str(exc.value)
        with pytest.raises(ZeroEvidenceError):
            brute_force_marginals(ped, params)

    def test_suppressed_proband_phenotype_changes_evidence(self):
        ped = Pedigree(
            [
                make_record("S", "f", sex=Sex.MALE, age=70.0),
                make_record("S", "m", sex=Sex.FEMALE, age=68.0),
                make_record(
                    "S", "c", father="f", mother="m", age=45.0, status=1, proband=True
                ),
            ]
        )
        params = ModelParams(q=0.2, beta=-0.6, baseline=DEFAULT_HAZARD)
        plain = posterior_marginals(ped, params)
        (corrected,), _ = apply_proband_correction([ped])
        suppressed = posterior_marginals(corrected, params)
        assert suppressed.log_evidence != pytest.approx(plain.log_evidence)
        assert plain.weights["c"].w_zero == 0.0
        assert suppressed.weights["c"].w_zero > 0.0

    def test_genotype_pins_restrict_states(self):
        (ped,) = pin_genotypes(
            [cousin_marriage_family()], {("L", "p1"): Genotype.HET_PATERNAL}
        )
        params = ModelParams(q=0.2, beta=-0.6, baseline=DEFAULT_HAZARD)
        result = posterior_marginals(ped, params)
        w = result.weights["p1"]
        assert w.w_pat == 1.0 and w.w_mat == 0.0 and w.w_zero == 0.0
        brute = brute_force_marginals(ped, params)
        np.testing.assert_allclose(result.marginals, brute.marginals, atol=1e-12)

    def test_record_order_invariance(self):
        # log evidence and per-individual weights survive record reordering
        ped = cousin_marriage_family()
        params = ModelParams(q=0.15, beta=0.4, baseline=DEFAULT_HAZARD)
        base = posterior_marginals(ped, params)
        rng = np.random.default_rng(2)
        for _ in range(3):
            perm = rng.permutation(len(ped))
            shuffled = Pedigree([ped.individuals[i] for i in perm])
            other = posterior_marginals(shuffled, params)
            assert other.log_evidence == pytest.approx(base.log_evidence, abs=1e-9)
            for key, w in base.weights.items():
                assert other.weights[key].w_pat == pytest.approx(w.w_pat, abs=1e-10)


class TestBruteForce:
    def test_cap_enforced(self):
        rng = np.random.default_rng(1)
        ped = random_pedigree(rng, size=13)
        with pytest.raises(InferenceError):
            brute_force_marginals(ped, ModelParams(q=0.2))

    def test_single_founder_prior(self):
        ped = Pedigree([make_record("B", "x", sex=Sex.FEMALE, age=0.0)])
        result = brute_force_marginals(ped, ModelParams(q=0.3))
        np.testing.assert_allclose(
            result.marginals[0], [0.49, 0.21, 0.21, 0.09], atol=1e-12
        )


def test_parse_and_infer_end_to_end():
    text = """\
# covariates: 0
F1 1 0 0 1 70.0 0 -9 0
F1 2 0 0 2 65.0 1 1 0
F1 3 1 2 1 45.0 1 -9 0
F1 4 1 2 2 50.0 0 0 0
"""
    fam = parse_ped(text)[0]
    params = ModelParams(q=0.2, beta=-0.6, baseline=DEFAULT_HAZARD)
    exact = posterior_marginals(fam, params)
    brute = brute_force_marginals(fam, params)
    np.testing.assert_allclose(exact.marginals, brute.marginals, atol=1e-12)


def renamed(pedigree, family_id):
    return Pedigree(
        [dataclasses.replace(rec, family_id=family_id) for rec in pedigree]
    )


class TestMarginalEngine:
    def test_stats_on_fixed_cohort(self):
        # The two trios share one structure of one rank-3 clique, their only
        # root. The cousin family's forest has six cliques (one of rank 4)
        # and five edges, each with its own layout, so each pass has five
        # buckets. The roots (all rank 3) form one bucket and the read-outs
        # one per (rank, axis): (3, 0-2) and (4, 0-1). Every edge bucket
        # holds one edge and the roots are the last run of the rank-3 table's
        # collect order, so no parent side is gathered.
        engine = engine_at([trio(), cousin_marriage_family(), renamed(trio(), "T2")])
        assert engine.stats == EngineStats(
            families=3,
            structures=2,
            cliques=8,
            max_clique_size=4,
            collect_buckets=5,
            distribute_buckets=5,
            readout_buckets=6,
            gathered_sides=0,
            potential_bytes=(7 * 4 ** 3 + 4 ** 4) * 8,
        )

    def test_stats_on_seeded_heterogeneous_cohort(self):
        # Random families, every fourth with a loop, some sharing a
        # structure by chance or as renamed copies, and three template
        # families: the counts pin how the schedule groups its buckets.
        rng = np.random.default_rng(41)
        families = [
            random_pedigree(rng, int(rng.integers(2, 25)), f"S{i}", with_loop=i % 4 == 0)
            for i in range(48)
        ]
        families += [renamed(fam, f"{fam.family_id}b") for fam in families[::5]]
        families += [template_family(rng, f"T{i}", 0) for i in range(3)]
        engine = engine_at(families)
        assert engine.stats == EngineStats(
            families=61,
            structures=45,
            cliques=575,
            max_clique_size=6,
            collect_buckets=150,
            distribute_buckets=168,
            readout_buckets=15,
            gathered_sides=147,
            potential_bytes=680416,
        )
        # 46 collect and 60 distribute parent sides, 32 distribute children
        # and 9 read-outs
        distribute = engine._schedule.stages[2]
        assert any(not isinstance(b.child.rows, slice) for b in distribute)

    def test_one_structure_has_the_same_buckets_at_any_size(self):
        # one bucket per step of the template's forest, however many
        # families batch in it, and a run of 700 families gives pinned bits
        params = ModelParams(q=0.2, beta=-0.6, epsilon=0.01, eta=0.001, baseline=DEFAULT_HAZARD)
        for n in (50, 700, 2000):
            families, _ = simulate_families(n, -0.6, 0.2, scenario="S1", seed=17)
            engine = engine_at(families, params)
            stats = engine.stats
            assert (stats.collect_buckets, stats.distribute_buckets, stats.readout_buckets,
                    stats.gathered_sides) == (5, 3, 4, 3)
            if n == 700:
                digest = hashlib.sha256(b"".join(run_bytes(engine, params))).hexdigest()
                assert digest == "2f31908458ecb784dc43d5ec974c0e8dae7d88d6e2abc380868eb99fb4f6b978"

    def test_empty_cohort_compiles_to_an_empty_schedule(self):
        params = random_params(np.random.default_rng(0))
        engine = engine_at([], params)
        assert engine.stats == EngineStats(0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert engine._schedule.stages == ([], [], [], [])
        marginals, log_evidence = run(engine, params)
        assert marginals.shape == (0, 4) and log_evidence.shape == (0,)

    def test_template_cohort_is_slice_addressed(self):
        rng = np.random.default_rng(8)
        engine = engine_at([template_family(rng, f"T{i}", 0) for i in range(50)])
        collect, roots, distribute, readouts = engine._schedule.stages
        for bucket in collect + roots + distribute:
            assert isinstance(bucket.child.rows, slice)
        for bucket in collect + distribute:
            assert isinstance(bucket.slots, slice)
        # the one gathered side is a read-out whose cliques are not one run
        assert engine.stats.gathered_sides == sum(
            not isinstance(b.parent.rows, slice) for b in collect + distribute
        ) + sum(not isinstance(b.child.rows, slice) for b in readouts) == 1

    def test_simulated_cohort_gathers_one_parent_side(self):
        # The simulator's ten-member structure in collect-bucket order: only
        # the first distribute bucket reads its parents through an index
        # array, no distribute child is gathered, and two read-outs are.
        families, _ = simulate_families(50, -0.6, 0.2, seed=8)
        engine = engine_at(families)
        distribute, readouts = engine._schedule.stages[2:]
        assert [i for i, b in enumerate(distribute) if not isinstance(b.parent.rows, slice)] == [0]
        assert all(isinstance(b.child.rows, slice) for b in distribute)
        assert sum(not isinstance(b.child.rows, slice) for b in readouts) == 2
        assert engine.stats.gathered_sides == 3

    def test_heterogeneous_cohort_gathers_only_parents(self):
        rng = np.random.default_rng(9)
        families = [
            random_pedigree(rng, int(rng.integers(2, 16)), f"H{i}", with_loop=i % 4 == 0)
            for i in range(40)
        ]
        params = random_params(rng)
        engine = engine_at(families, params)
        # the collect pass gathers only parents; distribute children and
        # read-outs whose cliques are not one run of rows are gathered too
        collect, roots, distribute, readouts = engine._schedule.stages
        for bucket in collect + roots:
            assert isinstance(bucket.child.rows, slice)
        for bucket in collect:
            assert isinstance(bucket.slots, slice)
        assert any(not isinstance(bucket.child.rows, slice) for bucket in readouts)
        assert any(not isinstance(bucket.child.rows, slice) for bucket in distribute)
        gathered = [b for b in collect + distribute if not isinstance(b.parent.rows, slice)]
        gathered += [b for b in distribute + readouts if not isinstance(b.child.rows, slice)]
        assert engine.stats.gathered_sides == len(gathered) > 0
        marginals, log_evidence = run(engine, params)
        for k, (fam, off) in enumerate(zip(families[:10], engine.offsets)):
            single = posterior_marginals(fam, params)
            np.testing.assert_allclose(
                marginals[off:off + len(fam)], single.marginals, rtol=0, atol=1e-14
            )
            assert log_evidence[k] == pytest.approx(single.log_evidence, rel=1e-14)

    def test_family_weights_equal_per_record_construction(self):
        rng = np.random.default_rng(10)
        families = [random_pedigree(rng, 7, f"W{i}", with_loop=i == 0) for i in range(6)]
        params = random_params(rng)
        marginals, _ = run(engine_at(families, params), params)
        assert_weights_equal(
            family_weights(families, marginals), per_record_weights(families, marginals)
        )

    def test_grid_positions_follow_the_baseline_grid(self):
        # Bootstrap replicates share one engine but bring their own jump
        # grids, on which EM gathers each record's cumulative hazard; every
        # run equals a fresh engine's at the baseline's own lookup, bit for
        # bit.
        rng = np.random.default_rng(11)
        families = [random_pedigree(rng, 6, f"G{i}", with_loop=i == 0) for i in range(8)]
        ages = np.unique([rec.age for fam in families for rec in fam])
        grid_a = np.sort(rng.choice(ages, 12, replace=False))  # jumps at record ages
        grid_b = np.linspace(5.0, 95.0, 7)
        model = ModelParams(q=0.2, epsilon=0.01, eta=0.001)
        engine = engine_at(families, model)
        baselines = [  # A, A again as an EM run brings it, B, A
            BaselineHazard(grid, rng.uniform(0.01, 0.1, grid.size))
            for grid in (grid_a, grid_a.copy(), grid_b, grid_a.copy())
        ]
        for beta, baseline in zip((-0.5, 0.3, -0.5, 0.1), baselines):
            gathered = baseline.cumulative_at(baseline.grid_positions(engine.ages))
            got = engine.run(beta, (), gathered)
            params = dataclasses.replace(model, beta=beta, baseline=baseline)
            fresh = run(engine_at(families, params), params)
            for mine, theirs in zip(got, fresh):
                assert mine.tobytes() == theirs.tobytes()

    def test_reuse_across_parameter_changes_equals_fresh_engines(self):
        # One engine through a change of beta, then of gamma, then of the
        # step baseline's grid, then to a parametric hazard, on records with
        # pins and suppressed probands: each run equals a fresh engine's,
        # bit for bit.
        rng = np.random.default_rng(12)
        families = pinned_cohort(rng, 12)
        ages = np.unique([rec.age for fam in families for rec in fam])
        grid_a = np.sort(rng.choice(ages, 10, replace=False))
        grid_b = np.linspace(5.0, 95.0, 7)
        first = ModelParams(
            q=0.2, beta=-0.5, gamma=(0.3,), epsilon=0.01, eta=0.001,
            baseline=BaselineHazard(grid_a, rng.uniform(0.01, 0.1, grid_a.size)),
        )
        new_beta = dataclasses.replace(first, beta=0.4)
        new_gamma = dataclasses.replace(new_beta, gamma=(-0.2,))
        new_grid = dataclasses.replace(
            new_gamma, baseline=BaselineHazard(grid_b, rng.uniform(0.01, 0.1, grid_b.size))
        )
        parametric = dataclasses.replace(new_grid, baseline=DEFAULT_HAZARD)
        engine = engine_at(families, first)
        assert any(rec.genotype_pin for fam in families for rec in fam)
        assert engine.suppressed.any()
        for params in (first, new_beta, new_gamma, new_grid, parametric):
            got, fresh = run(engine, params), run(engine_at(families, params), params)
            for mine, theirs in zip(got, fresh):
                assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("kind", ["heterogeneous", "simulated"])
    def test_read_rule_branches_match_one_family_engines(self, kind):
        # Each family also appears renamed, so every bucket batches at least
        # two columns, and so does an engine of the family and its copy:
        # numpy sums a batch in one order whatever its size (a lone column
        # pairwise), so the two agree bit for bit, whichever branch of the
        # read rule a gathered side takes.
        rng = np.random.default_rng(13)
        if kind == "heterogeneous":
            families = [
                random_pedigree(rng, int(rng.integers(2, 13)), f"H{i}", with_loop=i % 3 == 0)
                for i in range(40)
            ]
        else:
            families, _ = simulate_families(6, -0.6, 0.2, scenario="S1", seed=13)
        params = random_params(rng)
        engine = engine_at(families + [renamed(fam, f"{fam.family_id}b") for fam in families],
                           params)
        collect, roots, distribute, readouts = engine._schedule.stages
        branches = {
            _sums_first(b.parent.rows) for b in distribute if not isinstance(b.parent.rows, slice)
        }
        assert branches == ({True, False} if kind == "heterogeneous" else {True})
        assert any(not isinstance(b.child.rows, slice) for b in readouts)
        marginals, log_evidence = run(engine, params)
        for k, fam in enumerate(families):
            own = marginals[engine.offsets[k]:engine.offsets[k] + len(fam)]
            pair, pair_log = run(engine_at([fam, renamed(fam, "copy")], params), params)
            assert own.tobytes() == pair[:len(fam)].tobytes()
            assert log_evidence[k] == pair_log[0]
            np.testing.assert_allclose(
                own, posterior_marginals(fam, params).marginals, rtol=0, atol=1e-14
            )
            if len(fam) <= 12:
                np.testing.assert_allclose(
                    own, brute_force_marginals(fam, params).marginals, rtol=0, atol=1e-10
                )

    def test_gathered_distribute_children_meet_zero_messages(self):
        # Looped heterogeneous families and their renamed copies, with
        # affected members and error-free tests: an affected member rules
        # out the non-carrier state, so some collected messages are exactly
        # 0, and the distribute pass reads some of them through gathered
        # slots while it gathers the children they go back to.
        rng = np.random.default_rng(16)
        families = [
            Pedigree([dataclasses.replace(rec, gene_test=None) for rec in random_pedigree(
                rng, int(rng.integers(2, 13)), f"Z{i}", with_loop=i % 3 == 0
            )])
            for i in range(40)
        ]
        params = dataclasses.replace(random_params(rng), epsilon=0.0, eta=0.0)
        engine = engine_at(families + [renamed(fam, f"{fam.family_id}b") for fam in families],
                           params)
        marginals, log_evidence = run(engine, params)
        gathered = [
            b for b in engine._schedule.stages[2]
            if not isinstance(b.child.rows, slice) and not isinstance(b.slots, slice)
        ]
        assert gathered
        # the collect pass again, for the messages as the distribute pass
        # meets them, before it sets their zeros to 1
        potentials, collect, _, _ = engine._ops
        for op in potentials + collect:
            op()
        assert any(
            (engine._collected[b.child.rank - len(b.child.sum_axes)][..., b.slots] == 0.0).any()
            for b in gathered
        )
        for k, fam in enumerate(families):
            own = marginals[engine.offsets[k]:engine.offsets[k] + len(fam)]
            pair, pair_log = run(engine_at([fam, renamed(fam, "copy")], params), params)
            assert own.tobytes() == pair[:len(fam)].tobytes()
            assert log_evidence[k] == pair_log[0]
            if len(fam) <= 12:
                np.testing.assert_allclose(
                    own, brute_force_marginals(fam, params).marginals, rtol=0, atol=1e-10
                )

    def test_run_peak_memory_stays_below_its_tables(self):
        # A run writes its messages, gathers and evidence into the engine's
        # buffers: its traced peak, the returned tables included, stays far
        # below one set of potential tables.
        families, _ = simulate_families(2000, -0.6, 0.2, seed=14)
        grid = np.linspace(20.0, 80.0, 40)
        params = ModelParams(q=0.2, beta=-0.6, epsilon=0.01, eta=0.001,
                             baseline=BaselineHazard(grid, np.full(grid.size, 0.01)))
        engine = engine_at(families, params)
        run(engine, params)
        baseline = BaselineHazard(grid, np.full(grid.size, 0.02))
        positions = baseline.grid_positions(engine.ages)  # kept for a run, as EM does
        tracemalloc.start()
        try:
            engine.run(params.beta, params.gamma, baseline.cumulative_at(positions))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine.stats.potential_bytes == 6_144_000
        assert peak < 2.5 * 2 ** 20

    def test_infeasible_clique_rejected_before_allocation(self):
        rng = np.random.default_rng(0)
        ped = random_pedigree(rng, 200, family_id="BIG")
        size = build_clique_tree(ped).max_clique_size
        assert 4 ** size * 8 > MAX_POTENTIAL_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(InferenceError) as exc:
                engine_at([ped])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "family BIG" in str(exc.value)
        assert f"clique of {size} members" in str(exc.value)
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("q, epsilon, eta, message", [
        (0.2, 1.5, 0.0, "epsilon must be in [0, 1), got 1.5"),
        (0.2, 0.01, -1.0, "eta must be in [0, 1), got -1.0"),
        (1.5, 0.01, 0.001, "allele frequency q must be in [0, 1], got 1.5"),
        (-0.1, 0.01, 0.001, "allele frequency q must be in [0, 1], got -0.1"),
    ])
    def test_out_of_range_model_constants_are_rejected(self, q, epsilon, eta, message):
        # the error rates through the fixed evidence parts, q through the
        # founder prior, for a cohort and for an empty one alike
        for families in ([trio()], []):
            with pytest.raises(ValueError) as exc:
                MarginalEngine(families, q, epsilon, eta)
            assert str(exc.value) == message

    @pytest.mark.parametrize("covariates, gamma", [(1, ()), (0, (0.3,)), (2, (0.3,))])
    def test_gamma_must_match_the_covariate_count(self, covariates, gamma):
        # the records' covariates are compiled into the engine; a gamma of
        # another length is refused, not run without the covariate effect
        rng = np.random.default_rng(5)
        families = [random_pedigree(rng, 6, f"R{i}", covariates=covariates) for i in range(3)]
        params = dataclasses.replace(random_params(rng, covariates), gamma=gamma)
        message = (
            f"gamma must hold one effect per covariate: the records have {covariates}, "
            f"gamma has {len(gamma)}"
        )
        for evaluate in (lambda: run(engine_at(families, params), params),
                         lambda: posterior_marginals(families[0], params)):
            with pytest.raises(ValueError) as exc:
                evaluate()
            assert str(exc.value) == message

    @pytest.mark.parametrize("beta", [710.0, 800.0, -746.0])
    def test_origin_effect_out_of_range_is_refused_before_any_shard(self, monkeypatch, beta):
        # exp(beta) would overflow, or underflow to 0, in the evidence
        message = f"beta {beta} is out of range: exp(beta) must be positive and finite"
        with pytest.raises(ValueError) as exc:
            ModelParams(q=0.2, beta=beta, baseline=DEFAULT_HAZARD)
        assert str(exc.value) == message
        params = ModelParams(q=0.2, baseline=DEFAULT_HAZARD)
        object.__setattr__(params, "beta", beta)  # past the constructor's check
        filled, real = [], genetics.FixedEvidence.fill  # a run fills the evidence first
        monkeypatch.setattr(genetics.FixedEvidence, "fill",
                            lambda fixed, *args: filled.append(fixed) or real(fixed, *args))
        for evaluate in (lambda: run(engine_at([trio()], params), params),
                         lambda: posterior_marginals(trio(), params)):
            with pytest.raises(ValueError) as exc:
                evaluate()
            assert str(exc.value) == message
        assert filled == []

    def test_cohort_over_the_potential_budget_is_refused(self, monkeypatch):
        # each trio's one rank-3 clique fits the budget; the three together do not
        monkeypatch.setattr(inference, "MAX_POTENTIAL_BYTES", 4 ** 3 * 8 + 1)
        families = [renamed(trio(), f"T{i}") for i in range(3)]
        with pytest.raises(InferenceError) as exc:
            engine_at(families)
        assert str(exc.value) == (
            "the cohort's clique potential tables need 1536 bytes, above the 513-byte "
            "budget (largest clique: 3 members, family T0)"
        )

    def test_families_of_different_covariate_counts_are_refused(self):
        rng = np.random.default_rng(6)
        families = [random_pedigree(rng, 4, "A"), random_pedigree(rng, 4, "B", covariates=1)]
        with pytest.raises(InferenceError) as exc:
            engine_at(families)
        assert str(exc.value) == "families carry different covariate counts; cannot fit jointly"

    def test_zero_evidence_names_the_failing_family(self):
        params = ModelParams(q=0.2, epsilon=0.0, eta=0.0, baseline=DEFAULT_HAZARD)
        bad = Pedigree(
            [make_record("Z9", "x", sex=Sex.MALE, age=50.0, status=1, gene_test=0)]
        )
        with pytest.raises(ZeroEvidenceError) as exc:
            run(engine_at([trio(), cousin_marriage_family(), bad], params), params)
        assert exc.value.family_id == "Z9"


def impossible_family(family_id):
    """One affected member with a negative gene test: probability 0 when
    epsilon = eta = 0."""
    return Pedigree(
        [make_record(family_id, "x", sex=Sex.MALE, age=50.0, status=1, gene_test=0)]
    )


def run_bytes(engine, params):
    return tuple(table.tobytes() for table in run(engine, params))


class TestShards:
    """Runs of the engine's one schedule. The names come from the two-shard
    split that these tests once ran on both shards; each checks the same
    behaviour on one schedule."""

    def test_zero_evidence_in_either_shard_names_its_family(self):
        params = ModelParams(q=0.2, epsilon=0.0, eta=0.0, baseline=DEFAULT_HAZARD)
        good = [trio(), cousin_marriage_family(), renamed(trio(), "T2")]
        for families, named in (
            (good + [impossible_family("Z1")], "Z1"),
            ([impossible_family("Z0")] + good + [impossible_family("Z1")], "Z0"),
        ):
            engine = engine_at(families, params)
            for _ in range(2):  # the engine runs again after a failed run
                with pytest.raises(ZeroEvidenceError) as exc:
                    run(engine, params)
                assert exc.value.family_id == named

    def test_shards_run_on_the_calling_thread(self, monkeypatch):
        families, _ = simulate_families(60, -0.6, 0.2, scenario="S1", seed=19)
        params = ModelParams(q=0.2, beta=-0.6, epsilon=0.01, eta=0.001, baseline=DEFAULT_HAZARD)
        expected = run_bytes(engine_at(families, params), params)
        engine = engine_at(families, params)

        def refuse(*args, **kwargs):
            raise AssertionError("the E-step started a thread")

        monkeypatch.setattr(_thread, "start_new_thread", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert run_bytes(engine, params) == expected

    def test_shards_run_with_the_small_buffer_and_restore_it(self):
        params = ModelParams(q=0.2, epsilon=0.0, eta=0.0, baseline=DEFAULT_HAZARD)
        engine = engine_at([trio(), cousin_marriage_family()], params)
        seen = []
        engine._ops[0].append(lambda: seen.append(np.getbufsize()))
        before = np.setbufsize(4096)
        try:
            run(engine, params)
            assert seen == [inference._BUFSIZE] and np.getbufsize() == 4096
            with pytest.raises(ZeroEvidenceError):
                run(engine_at([trio(), impossible_family("Z0")], params), params)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(before)

    def test_scratch_pool_grows_and_keeps_earlier_views(self):
        view = inference._scratch()
        first = view((2, 3))
        first[:] = 1.0
        assert np.shares_memory(first, view((4,)))
        larger = view((5, 4))  # a new buffer: the views before keep the old
        assert not np.shares_memory(first, larger) and larger.shape == (5, 4)
        larger[:] = 2.0
        assert (first == 1.0).all()
        assert np.shares_memory(larger, view((3, 2)))


class TestShardEvidence:
    """A run computes the evidence of the whole cohort once, after checking
    its inputs, and the passes read it (named, like :class:`TestShards`,
    for the split these tests once covered)."""

    @staticmethod
    def cohort(kind, covariates):
        if kind == "template":
            families, _ = simulate_families(60, -0.6, 0.2, scenario="S1", seed=31)
        else:
            rng = np.random.default_rng(32)
            families = [
                random_pedigree(rng, int(rng.integers(2, 13)), f"H{i}", with_loop=i % 3 == 0)
                for i in range(40)
            ]
        return with_covariate(families, 33) if covariates else families

    @pytest.mark.parametrize("covariates", [0, 1])
    @pytest.mark.parametrize("kind", ["template", "looped"])
    def test_shards_fill_the_whole_cohorts_evidence(self, kind, covariates):
        families = self.cohort(kind, covariates)
        params = ModelParams(q=0.2, beta=-0.6, gamma=(0.3,) * covariates, epsilon=0.01,
                             eta=0.001, baseline=DEFAULT_HAZARD)
        engine = engine_at(families, params)
        hazard = params.cumulative_hazard(engine.ages)
        whole = genetics.evidence_matrix(hazard, params.beta, params.gamma, engine._fixed)
        results = []
        for _ in range(2):  # a run rewrites every record's evidence
            engine._phi[:, :engine.total] = 0.0
            results.append(run_bytes(engine, params))
            assert engine._phi[:, :engine.total].tobytes() == whole.T.tobytes()
            assert (engine._phi[:, engine.total] == 1.0).all()
        assert results[0] == results[1]

    def test_input_errors_come_before_any_shard(self):
        # a wrong gamma, and a bad hazard of one record, raise as before,
        # also over a zero-evidence family, and no evidence is written
        params = ModelParams(q=0.2, epsilon=0.0, eta=0.0, baseline=DEFAULT_HAZARD)
        good = [trio(), cousin_marriage_family(), renamed(trio(), "T2")]
        hazard_message = "cumulative hazards must be finite and non-negative"
        for head, failure in (([], None), ([impossible_family("Z0")], ZeroEvidenceError)):
            engine = engine_at(head + good, params)
            ran = []
            engine._ops[0].insert(0, lambda: ran.append(True))
            hazard = params.cumulative_hazard(engine.ages)
            negative, missing = hazard.copy(), hazard.copy()
            negative[engine.offsets[-1]] = -1e-3
            missing[-1] = np.nan
            for gamma, hazards, message in (
                ((0.3,), hazard,
                 "gamma must hold one effect per covariate: the records have 0, gamma has 1"),
                ((), negative, hazard_message),
                ((), missing, hazard_message),
            ):
                with pytest.raises(ValueError) as exc:
                    engine.run(-0.6, gamma, hazards)
                assert str(exc.value) == message
            assert ran == [] and (engine._phi == 1.0).all()
            if failure is None:
                run(engine, params)
            else:
                with pytest.raises(failure):
                    run(engine, params)
            assert ran


def compiles(monkeypatch):
    """The structure keys of each schedule compiled while the test runs."""
    compiled, real = [], inference._Schedule

    def counting(keys, *args):
        compiled.append(keys)
        return real(keys, *args)

    monkeypatch.setattr(inference, "_Schedule", counting)
    return compiled


def cold(monkeypatch, build):
    """``build()`` with no schedule kept, so that its engine compiles afresh."""
    monkeypatch.setattr(inference, "_last_schedule", (None, None))
    return build()


def held_arrays(root):
    """The arrays that own the data of every array ``root`` holds: in
    attributes of package objects, dict values, lists and tuples, partial
    arguments and bound-method owners, and closures; each once."""
    found, seen, stack = {}, set(), [root]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            found[id(item)] = item
        elif isinstance(item, dict):
            stack += item.values()
        elif isinstance(item, (list, tuple)):
            stack += item
        elif isinstance(item, partial):
            stack += [item.func, *item.args]
        elif isinstance(getattr(item, "__self__", None), np.ndarray):
            stack.append(item.__self__)
        elif callable(item) and getattr(item, "__closure__", None):
            stack += [cell.cell_contents for cell in item.__closure__]
        elif type(item).__module__.startswith("poosurv") and hasattr(item, "__dict__"):
            stack += vars(item).values()
    return list(found.values())


def writable_arrays(ops):
    """The writable arrays that own the data bound ``ops`` hold (see
    :func:`held_arrays`)."""
    return [array for array in held_arrays(ops) if array.flags.writeable]


def engine_bytes(engine, params):
    """What an engine reports: its stats and a run's tables, as bytes."""
    return engine.stats, run_bytes(engine, params)


def fit_bytes(fit):
    """Everything an ``em_fit`` result holds, floats as bytes."""
    return (
        fit.beta_hat, fit.gamma_hat.tobytes(), fit.covariance.tobytes(), fit.trace,
        fit.converged, fit.marginals.tobytes(), fit.baseline.times.tobytes(),
        fit.baseline.increments.tobytes(),
    )


def with_covariate(families, seed):
    """Copies of ``families`` with one random covariate per record."""
    rng = np.random.default_rng(seed)
    return [
        Pedigree([dataclasses.replace(rec, covariates=(float(rng.normal()),)) for rec in fam])
        for fam in families
    ]


class TestSharedSchedule:
    """Engines of one design share one compiled schedule, which gives the
    bits a compile of their own would."""

    def assert_reuse_is_cold(self, monkeypatch, cohorts, params, config):
        # each cohort's engine and fit compiled afresh, then again with
        # every engine reusing the schedule the cohort before compiled
        expected = [
            (cold(monkeypatch, lambda: engine_bytes(engine_at(families, params), params)),
             cold(monkeypatch, lambda: fit_bytes(em_fit(families, config))))
            for families in cohorts
        ]
        compiled = compiles(monkeypatch)
        engines = [engine_at(families, params) for families in cohorts]
        assert compiled == []
        assert len({engine._schedule for engine in engines}) == 1
        for engine, families, (engine_expected, fit_expected) in zip(engines, cohorts, expected):
            assert engine_bytes(engine, params) == engine_expected
            assert fit_bytes(em_fit(families, config)) == fit_expected
        assert compiled == []
        return engines

    def test_scenario_cohorts_of_a_study_unit(self, monkeypatch):
        cohorts = [
            simulate_families(40, -0.6, 0.2, scenario=scenario, seed=(5, 0, 0))[0]
            for scenario in ("S0", "S1", "S2", "Oracle")
        ]
        params = ModelParams(q=0.2, beta=-0.4, epsilon=0.0, eta=0.0, baseline=DEFAULT_HAZARD)
        config = EMConfig(q=0.2, epsilon=0.0, eta=0.0, seed=3)
        self.assert_reuse_is_cold(monkeypatch, cohorts, params, config)
        assert any(rec.genotype_pin for rec in cohorts[3][0])

    def test_covariate_cohorts(self, monkeypatch):
        cohorts = [
            with_covariate(simulate_families(30, -0.6, 0.2, scenario="S1", seed=seed)[0], seed)
            for seed in (25, 26)
        ]
        params = ModelParams(q=0.2, beta=-0.6, gamma=(0.3,), epsilon=0.01, eta=0.001,
                             baseline=DEFAULT_HAZARD)
        engines = self.assert_reuse_is_cold(monkeypatch, cohorts, params, EMConfig(q=0.2, seed=4))
        assert engines[0].covariates.shape == (300, 1)

    def test_what_the_compile_reads_keys_the_schedule(self, monkeypatch):
        families, _ = simulate_families(20, -0.6, 0.2, scenario="S1", seed=27)
        more, _ = simulate_families(21, -0.6, 0.2, scenario="S1", seed=27)
        engine_at(families)
        compiled = compiles(monkeypatch)
        engine_at(families, ModelParams(q=0.2, epsilon=0.0, eta=0.0))  # the error rates
        assert compiled == []  # are compiled into each engine's own evidence
        engine_at(families, ModelParams(q=0.3))
        engine_at(families)
        engine_at(more)
        engine_at(families[:10] + [trio()] + families[10:19])  # as many families
        assert len(compiled) == 4
        monkeypatch.setattr(inference, "MAX_POTENTIAL_BYTES", inference.MAX_POTENTIAL_BYTES + 1)
        engine_at(families)
        assert len(compiled) == 5

    def test_live_engines_of_one_design_keep_their_own_buffers(self, monkeypatch):
        cohorts = [simulate_families(30, -0.6, 0.2, scenario="S1", seed=seed)[0]
                   for seed in (28, 29)]
        params = [ModelParams(q=0.2, beta=beta, epsilon=0.01, eta=0.001, baseline=DEFAULT_HAZARD)
                  for beta in (-0.6, 0.4)]
        expected = [cold(monkeypatch, lambda: run_bytes(engine_at(families, p), p))
                    for families, p in zip(cohorts, params)]
        engines = [engine_at(families, p) for families, p in zip(cohorts, params)]
        assert engines[0]._schedule is engines[1]._schedule
        for _ in range(3):  # interleaved
            for engine, p, want in zip(engines, params, expected):
                assert run_bytes(engine, p) == want
        results, errors = [[], []], []

        def runs(k):
            try:
                for _ in range(20):
                    results[k].append(run_bytes(engines[k], params[k]))
            except BaseException as err:
                errors.append(err)

        # a thread switch every microsecond, so that the runs interleave
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=runs, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        for got, want in zip(results, expected):
            assert got == [want] * 20
        # and no array that one engine's ops write is the other's
        mine, theirs = (writable_arrays(engine._ops) for engine in engines)
        assert mine and theirs
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    def test_shared_schedule_arrays_are_read_only(self):
        families, _ = simulate_families(30, -0.6, 0.2, scenario="S1", seed=30)
        rng = np.random.default_rng(30)
        mixed = [random_pedigree(rng, int(rng.integers(2, 12)), f"H{i}", with_loop=i % 3 == 0)
                 for i in range(20)]
        for cohort in (families, mixed):
            schedule = engine_at(cohort)._schedule
            held = [b.child.rows for buckets in schedule.stages for b in buckets]
            held += [b.parent.rows for buckets in schedule.stages for b in buckets if b.parent]
            held += [b.slots for buckets in schedule.stages for b in buckets]
            held += [b.targets for b in schedule.stages[3]]
            arrays = [a for a in held if isinstance(a, np.ndarray)]
            assert len(arrays) > len(schedule.stages[3])  # gathered sides among them
            arrays += [schedule.clique_family, schedule.norm_of_clique]
            priors = list(schedule.priors.values())
            assert priors and all(isinstance(p.tables, np.ndarray) for p in priors)
            assert all(p.pattern.dtype == np.int32 for p in priors)
            arrays += [array for p in priors for array in (p.tables, p.pattern)]
            arrays += [index for gathers in schedule.evidence.values() for _, index in gathers]
            for array in arrays:
                while isinstance(array, np.ndarray):
                    assert not array.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 0
                    array = array.base

    @pytest.mark.parametrize("kind", ["template", "kindreds"])
    def test_an_engine_holds_one_set_of_potentials(self, kind):
        # The schedule keeps each rank's pattern tables and a pattern per
        # row, not a copy of the priors per clique, so that between runs the
        # engine's potentials are its only tables of their size.
        if kind == "template":
            families, _ = simulate_families(2000, -0.6, 0.2, scenario="S1", seed=31)
        else:
            rng = np.random.default_rng(41)
            families = [kindred(rng, f"K{i}", cousins_marry=i % 3 == 0) for i in range(120)]
        engine = engine_at(families)
        assert engine.stats.structures > (90 if kind == "kindreds" else 0)
        run(engine, ModelParams(q=0.2, beta=-0.6, baseline=DEFAULT_HAZARD))
        potential_bytes = engine.stats.potential_bytes
        assert sum(a.nbytes for a in held_arrays(engine._schedule)) < potential_bytes / 8
        pots = list(engine._pots.values())
        assert sum(p.nbytes for p in pots) == potential_bytes
        floats = [a for a in held_arrays(engine) if a.dtype.kind == "f"]
        assert all(any(p is a for a in floats) for p in pots)
        others = [a for a in floats if not any(p is a for p in pots)]
        assert not any(a.shape == p.shape for a in others for p in pots)
        assert max(a.nbytes for a in others) < max(p.nbytes for p in pots)
        # the template cohort builds its rows run by run, the kindreds take
        # some rank's rows by their pattern
        runs = [p.runs for p in engine._schedule.priors.values()]
        if kind == "template":
            assert [len(r) for r in runs] == [5]
        else:
            assert None in runs and any(r is not None for r in runs)

    def test_zero_evidence_names_a_family_of_the_engines_own_cohort(self):
        params = ModelParams(q=0.2, epsilon=0.0, eta=0.0, baseline=DEFAULT_HAZARD)
        first = engine_at([trio(), impossible_family("Z0"), cousin_marriage_family()], params)
        second = engine_at([trio(), impossible_family("Z1"), cousin_marriage_family()], params)
        assert first._schedule is second._schedule
        for engine, named in ((second, "Z1"), (first, "Z0"), (second, "Z1")):
            with pytest.raises(ZeroEvidenceError) as exc:
                run(engine, params)
            assert exc.value.family_id == named


def pinned_cohort(rng, count):
    """Loopy, random and template families with one covariate, genotype
    pins of two states and suppressed probands."""
    families = []
    for i in range(count):
        if i % 3 == 0:
            size = int(rng.integers(9, 14))
            families.append(random_pedigree(rng, size, f"L{i}", with_loop=True, covariates=1))
        elif i % 3 == 1:
            size = int(rng.integers(2, 10))
            families.append(random_pedigree(rng, size, f"R{i}", covariates=1))
        else:
            families.append(template_family(rng, f"T{i}", 1))
    pins = {
        (fam.family_id, rec.individual_id): tuple(int(g) for g in rng.choice(4, 2, replace=False))
        for fam in families for rec in fam if rng.random() < 0.15
    }
    families, _ = apply_proband_correction(pin_genotypes(families, pins))
    return families


def per_record_weights(families, marginals):
    """Per-family weight mappings built record by record from (records, 4)
    marginals in the families' record order."""
    mappings, off = [], 0
    for fam in families:
        mappings.append({
            rec.individual_id: PosteriorWeights(
                w_pat=float(marginals[off + i, Genotype.HET_PATERNAL]),
                w_mat=float(marginals[off + i, Genotype.HET_MATERNAL]
                            + marginals[off + i, Genotype.HOMOZYGOUS]),
                w_zero=float(marginals[off + i, Genotype.NON_CARRIER]),
            )
            for i, rec in enumerate(fam)
        })
        off += len(fam)
    return mappings


def assert_weights_equal(got, expected):
    """Same families, ids in the same order, and equal float weights."""
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert list(mine) == list(theirs)
        for key, w in theirs.items():
            assert type(mine[key].w_pat) is float
            assert (mine[key].w_pat, mine[key].w_mat, mine[key].w_zero) == (
                w.w_pat, w.w_mat, w.w_zero
            )


TEMPLATE_ROWS = (  # (id, father, mother, sex): three generations, seven members
    ("1", None, None, Sex.MALE),
    ("2", None, None, Sex.FEMALE),
    ("3", "1", "2", Sex.MALE),
    ("4", "1", "2", Sex.FEMALE),
    ("5", None, None, Sex.FEMALE),
    ("6", "3", "5", Sex.MALE),
    ("7", "3", "5", Sex.FEMALE),
)


def template_family(rng, family_id, covariates):
    """The fixed seven-member structure with random phenotypes and tests."""
    return Pedigree([
        make_record(
            family_id, ident, father, mother, sex, float(rng.uniform(1.0, 90.0)),
            int(rng.random() < 0.35), [None, None, 0, 1][rng.integers(0, 4)],
            bool(rng.random() < 0.1), tuple(np.round(rng.normal(size=covariates), 3)),
        )
        for ident, father, mother, sex in TEMPLATE_ROWS
    ])


@st.composite
def mixed_cohorts(draw):
    """Families of every kind the engine batches, with genotype pins."""
    covariates = draw(st.integers(0, 1))
    families = []
    for index in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["template", "random", "loop", "single"]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        family_id = f"H{index}"
        if kind == "template":
            ped = template_family(rng, family_id, covariates)
        elif kind == "random":
            size = int(rng.integers(2, 9))
            ped = random_pedigree(rng, size, family_id, covariates=covariates)
        elif kind == "loop":
            ped = random_pedigree(rng, 9, family_id, with_loop=True, covariates=covariates)
        else:
            ped = random_pedigree(rng, 1, family_id, covariates=covariates)
        families.append(ped)
    pins = {}
    for ped in families:
        for rec in ped:
            states = draw(st.sets(st.sampled_from(list(Genotype)), max_size=3))
            if states and draw(st.integers(0, 4)) == 0:
                pins[(ped.family_id, rec.individual_id)] = tuple(states)
    params = random_params(
        np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), covariates
    )
    return pin_genotypes(families, pins), params, draw(st.booleans())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mixed_cohorts(), st.randoms(use_true_random=False))
def test_engine_matches_brute_force_on_mixed_cohorts(cohort, random):
    families, params, suppress = cohort
    if suppress:
        families, _ = apply_proband_correction(families)
    expected, impossible = {}, set()
    for ped in families:
        try:
            expected[ped.family_id] = brute_force_marginals(ped, params)
        except ZeroEvidenceError:
            impossible.add(ped.family_id)

    order = list(range(len(families)))
    runs = []
    for _ in range(2):  # as given, then shuffled
        engine = engine_at([families[i] for i in order], params)
        if impossible:
            with pytest.raises(ZeroEvidenceError) as exc:
                run(engine, params)
            assert exc.value.family_id in impossible
            return
        marginals, log_evidence = run(engine, params)
        by_family = {}
        for k, i in enumerate(order):
            ped, off = families[i], engine.offsets[k]
            by_family[ped.family_id] = (marginals[off:off + len(ped)], log_evidence[k])
        runs.append(by_family)
        random.shuffle(order)

    for ped in families:
        brute = expected[ped.family_id]
        found, log_ev = runs[0][ped.family_id]
        np.testing.assert_allclose(found, brute.marginals, rtol=0, atol=1e-13)
        assert abs(log_ev - brute.log_evidence) <= 1e-13
        again, log_again = runs[1][ped.family_id]
        np.testing.assert_array_equal(again, found)
        assert log_again == log_ev
