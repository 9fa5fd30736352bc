"""Exact genotype posteriors on pedigrees via clique-tree message passing.

The parent graph is moralized (co-parents connected), triangulated with a
min-fill elimination heuristic, and its maximal cliques are joined into a
junction forest by maximum separator weight. Two-pass sum-product over that
forest yields every individual's posterior genotype distribution, and the
accumulated message normalizers give the log evidence, in a single sweep.

:class:`MarginalEngine` compiles the junction forests of a whole cohort once
into one schedule, with each tree rooted at its lowest clique. The collect
pass multiplies each clique's belief, summed to its separator, into its
parent, in order of the sending clique's height. The distribute pass sends
each parent's final belief back to its children, divided by the message it
collected from them, in order of the receiving clique's depth. With this
Hugin-style division a step's layout does not depend on how many
neighbours a clique has. The messages of all families are bucketed by (pass, level,
layout), the layout being the rank and separator axes of both cliques, so a
pass costs a fixed number of batched numpy operations per bucket however
many structures the cohort holds. Clique potentials live in one table per
clique rank and collected messages in one table per separator size, with
the batch axis last; every index array of the schedule has one entry per
clique, never per table entry. Founder priors and transmission tables are
folded into static potentials once per allele frequency, so a run
multiplies in only the per-individual evidence, and marginals are read from
each clique's final belief. :func:`posterior_marginals` is the one-family
case of the same engine.

A brute-force enumerator over all 4^n genotype configurations, with its own
scalar factor construction, serves as an independent oracle for small
families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import genetics
from .genetics import N_STATES, Genotype, ModelParams

__all__ = [
    "InferenceError",
    "ZeroEvidenceError",
    "PosteriorWeights",
    "MarginalResult",
    "CliqueTree",
    "build_clique_tree",
    "posterior_marginals",
    "brute_force_marginals",
    "EngineStats",
    "MarginalEngine",
    "MAX_POTENTIAL_BYTES",
]

DEFAULT_ENUMERATION_CAP = 12

#: Budget for the clique potential tables, checked before any is allocated:
#: for a single clique and for the whole cohort. A run holds a few tables of
#: that size at once (static, with evidence, and the gathered buckets).
MAX_POTENTIAL_BYTES = 2 ** 30

_FLOAT_BYTES = np.dtype(float).itemsize
_INDEX = np.int32
# schedule stages, in the order they run
_COLLECT, _ROOT, _DISTRIBUTE, _READOUT = range(4)


class InferenceError(RuntimeError):
    """Inference could not be carried out."""


class ZeroEvidenceError(InferenceError):
    """The observed data has probability zero under the model."""

    def __init__(self, family_id):
        self.family_id = family_id
        super().__init__(
            f"family {family_id}: observed data has probability 0 under the model"
        )


@dataclass(frozen=True)
class PosteriorWeights:
    """Posterior genotype mass split for one individual.

    ``w_pat`` is the probability of a paternal-origin heterozygote,
    ``w_mat`` pools the maternal-origin heterozygote with the homozygote,
    and ``w_zero`` is the non-carrier probability.
    """

    w_pat: float
    w_mat: float
    w_zero: float


@dataclass
class MarginalResult:
    """Posterior marginals for one family."""

    weights: dict
    marginals: np.ndarray  # (n, 4) in record order
    log_evidence: float


class CliqueTree:
    """Junction forest over pedigree member positions.

    ``cliques`` are sorted tuples of record positions; ``edges`` join clique
    indices. Every family factor's scope fits inside at least one clique and
    the running intersection property holds.
    """

    def __init__(self, cliques, edges, n_vars):
        self.cliques = [tuple(c) for c in cliques]
        self.edges = [tuple(e) for e in edges]
        self.n_vars = n_vars
        self._neighbors = [[] for _ in self.cliques]
        for i, j in self.edges:
            self._neighbors[i].append(j)
            self._neighbors[j].append(i)

    def neighbors(self, idx):
        return self._neighbors[idx]

    @property
    def max_clique_size(self):
        return max(len(c) for c in self.cliques)

    def roots(self):
        """Lowest clique index of each connected component."""
        seen = set()
        roots = []
        for start in range(len(self.cliques)):
            if start in seen:
                continue
            roots.append(start)
            stack = [start]
            seen.add(start)
            while stack:
                cur = stack.pop()
                for nb in self._neighbors[cur]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        return roots

    def check_running_intersection(self) -> bool:
        """Cliques containing any one variable must form a connected subtree."""
        for v in range(self.n_vars):
            holding = [i for i, c in enumerate(self.cliques) if v in c]
            if not holding:
                return False
            reached = {holding[0]}
            stack = [holding[0]]
            allowed = set(holding)
            while stack:
                cur = stack.pop()
                for nb in self._neighbors[cur]:
                    if nb in allowed and nb not in reached:
                        reached.add(nb)
                        stack.append(nb)
            if reached != allowed:
                return False
        return True


def _moral_adjacency(pedigree) -> list[set[int]]:
    n = len(pedigree)
    adj = [set() for _ in range(n)]
    pos = pedigree.position
    for rec in pedigree:
        if rec.is_founder:
            continue
        c, f, m = pos(rec.individual_id), pos(rec.father_id), pos(rec.mother_id)
        for a, b in ((c, f), (c, m), (f, m)):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _min_fill_cliques(adj) -> list[tuple[int, ...]]:
    """Elimination cliques from min-fill ordering; ties break on lowest index."""
    n = len(adj)
    adj = [set(s) for s in adj]
    remaining = set(range(n))
    cliques = []
    while remaining:
        best, best_fill = None, None
        for v in sorted(remaining):
            nbrs = adj[v]
            # neighbour pairs minus the edges among them, each seen twice
            degree = len(nbrs)
            fill = degree * (degree - 1) // 2 - sum(len(adj[a] & nbrs) for a in nbrs) // 2
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
                if fill == 0:
                    break
        nbrs = sorted(adj[best])
        cliques.append(tuple(sorted([best] + nbrs)))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        for a in nbrs:
            adj[a].discard(best)
        adj[best].clear()
        remaining.discard(best)
    return cliques


def build_clique_tree(pedigree) -> CliqueTree:
    """Junction forest for a pedigree's moral graph.

    Deterministic: min-fill ties break on the lowest record position and the
    spanning forest prefers larger separators, then lower clique indices.
    """
    adj = _moral_adjacency(pedigree)
    elim = _min_fill_cliques(adj)
    # Later elimination cliques may be subsets of earlier ones; never the
    # reverse, since each eliminated vertex vanishes from subsequent cliques.
    cliques: list[tuple[int, ...]] = []
    kept: list[set[int]] = []
    for cand in elim:
        members = set(cand)
        if not any(members <= k for k in kept):
            cliques.append(cand)
            kept.append(members)

    candidates = []
    for i, si in enumerate(kept):
        for j in range(i + 1, len(kept)):
            weight = len(si & kept[j])
            if weight:
                candidates.append((-weight, i, j))
    candidates.sort()
    parent = list(range(len(cliques)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for _, i, j in candidates:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
    return CliqueTree(cliques, edges, len(pedigree))


def _axes_shape(axes, rank, batch=()):
    """Reshape target that lays a table's axes on the given clique axes,
    followed by the ``batch`` axes.

    ``axes`` must be ascending, as every scope and separator here is.
    """
    shape = [1] * rank
    for axis in axes:
        shape[axis] = N_STATES
    return tuple(shape) + tuple(batch)


def _pin_mask(records):
    """Indicator table (n, 4) of each record's pinned states, or ``None``."""
    if all(rec.genotype_pin is None for rec in records):
        return None
    mask = np.ones((len(records), N_STATES))
    for i, rec in enumerate(records):
        if rec.genotype_pin is not None:
            mask[i] = 0.0
            mask[i, list(rec.genotype_pin)] = 1.0
    return mask


def _weights_from_marginals(pedigree, marginals) -> dict:
    out = {}
    for i, rec in enumerate(pedigree):
        out[rec.individual_id] = PosteriorWeights(
            w_pat=float(marginals[i, Genotype.HET_PATERNAL]),
            w_mat=float(
                marginals[i, Genotype.HET_MATERNAL]
                + marginals[i, Genotype.HOMOZYGOUS]
            ),
            w_zero=float(marginals[i, Genotype.NON_CARRIER]),
        )
    return out


def posterior_marginals(pedigree, params: ModelParams) -> MarginalResult:
    """Exact posterior genotype marginals for every family member.

    Returns the per-individual weights, the full (n, 4) marginal table in
    record order, and the log evidence of the observed data (up to the
    genotype-independent hazard factor omitted from affected penetrance).
    """
    engine = MarginalEngine([pedigree])
    marginals, log_evidence = engine.run(params)
    return MarginalResult(
        weights=_weights_from_marginals(pedigree, marginals),
        marginals=marginals,
        log_evidence=float(log_evidence[0]),
    )


def brute_force_marginals(pedigree, params: ModelParams,
                          cap: int = DEFAULT_ENUMERATION_CAP) -> MarginalResult:
    """Oracle marginals by enumerating all 4^n genotype configurations.

    Independent of the clique-tree machinery, down to its factors: evidence
    comes from the scalar :func:`genetics.evidence_factor`. Cost grows as
    4^n, so families larger than ``cap`` members are rejected.
    """
    n = len(pedigree)
    if n > cap:
        raise InferenceError(
            f"family {pedigree.family_id} has {n} members, above the "
            f"enumeration cap {cap}"
        )
    pos = pedigree.position
    mask = _pin_mask(pedigree.individuals)
    prior = genetics.founder_prior(params.q)
    # grid[i] indexes member i's axis, so table[grid[a], grid[b]] broadcasts
    # a factor onto its scope's axes of the joint table
    grid = np.indices((N_STATES,) * n, sparse=True)
    joint = np.ones((N_STATES,) * n)
    for i, rec in enumerate(pedigree):
        if rec.is_founder:
            joint *= prior[grid[i]]
        else:
            father, mother = grid[pos(rec.father_id)], grid[pos(rec.mother_id)]
            joint *= genetics.TRANSMISSION[father, mother, grid[i]]
        phi = genetics.evidence_factor(
            rec, params, suppress_phenotype=rec.phenotype_suppressed
        )
        if mask is not None:
            phi = phi * mask[i]
        joint *= phi[grid[i]]
    total = joint.sum()
    if total <= 0:
        raise ZeroEvidenceError(pedigree.family_id)
    marginals = np.empty((n, N_STATES))
    for v in range(n):
        axes = tuple(ax for ax in range(n) if ax != v)
        marginals[v] = joint.sum(axis=axes) / total
    return MarginalResult(
        weights=_weights_from_marginals(pedigree, marginals),
        marginals=marginals,
        log_evidence=float(np.log(total)),
    )


class _Forest:
    """One structure's junction forest, rooted, with its factors placed.

    Each tree is rooted at its lowest clique. Every member's founder prior
    or transmission table goes to the lowest clique holding its scope, and
    its evidence and marginal read-out to the lowest clique holding the
    member (for a root, all of its members).
    """

    def __init__(self, template):
        tree = build_clique_tree(template)
        cliques = tree.cliques
        nc = len(cliques)
        self.ranks = [len(c) for c in cliques]
        parent = [-1] * nc
        depth = [0] * nc
        order = []
        for root in tree.roots():
            stack = [root]
            while stack:
                node = stack.pop()
                order.append(node)
                for nb in tree.neighbors(node):
                    if nb != parent[node]:
                        parent[nb] = node
                        depth[nb] = depth[node] + 1
                        stack.append(nb)
        children = [[] for _ in range(nc)]
        for node in order:
            if parent[node] >= 0:
                children[parent[node]].append(node)
        height = [0] * nc
        for node in reversed(order):
            if children[node]:
                height[node] = 1 + max(height[c] for c in children[node])
        self.parent, self.children = parent, children
        self.depth, self.height = depth, height

        axis_of = [{v: a for a, v in enumerate(c)} for c in cliques]
        # separator with the parent, as axes of the clique and of the parent
        self.sep_in_child = [()] * nc
        self.sep_in_parent = [()] * nc
        for j, p in enumerate(parent):
            if p >= 0:
                sep = [v for v in cliques[j] if v in axis_of[p]]
                self.sep_in_child[j] = tuple(axis_of[j][v] for v in sep)
                self.sep_in_parent[j] = tuple(axis_of[p][v] for v in sep)

        holding = [[] for _ in range(tree.n_vars)]
        for j, clique in enumerate(cliques):
            for v in clique:
                holding[v].append(j)
        home = [h[0] for h in holding]
        self.readout = [[] for _ in range(nc)]  # (axis, member) pairs
        for v, j in enumerate(home):
            self.readout[j].append((axis_of[j][v], v))
        self.factors = [[] for _ in range(nc)]  # prior (a,) / transmission (f, m, c)
        pos = template.position
        for rec in template:
            i = pos(rec.individual_id)
            if rec.is_founder:
                self.factors[home[i]].append((axis_of[home[i]][i],))
            else:
                f, m = pos(rec.father_id), pos(rec.mother_id)
                j = min(set(holding[f]).intersection(holding[m], holding[i]))
                self.factors[j].append((axis_of[j][f], axis_of[j][m], axis_of[j][i]))

    def steps(self):
        """Every schedule step of this forest as (bucket key, clique, other).

        A collect or distribute step carries the edge's child clique and its
        parent; ``ordinal`` splits siblings with equal keys, so that no
        collect bucket multiplies into one parent twice. A root step carries
        the root, a read-out step the clique and the member read out.
        """
        ordinal = {}
        for c, p in enumerate(self.parent):
            if p < 0:
                yield (_ROOT, 0, 0, self.ranks[c], (), 0, ()), c, 0
                continue
            child = (self.ranks[c], self.sep_in_child[c])
            parent = (self.ranks[p], self.sep_in_parent[c])
            layout = (self.height[c],) + child + parent
            n = ordinal[p, layout] = ordinal.get((p, layout), -1) + 1
            yield (_COLLECT, self.height[c], n) + child + parent, c, p
            yield (_DISTRIBUTE, self.depth[c], 0) + child + parent, c, p
        for j, readout in enumerate(self.readout):
            for axis, member in readout:
                yield (_READOUT, 0, 0, self.ranks[j], (axis,), 0, ()), j, member


def _pattern_table(rank, factors, prior):
    """Product of founder priors and transmission tables on one clique."""
    table = np.ones((N_STATES,) * rank)
    for axes in factors:
        if len(axes) == 1:
            table = table * prior.reshape(_axes_shape(axes, rank))
        else:  # (father, mother, child) axes, put in ascending order
            transmission = np.transpose(genetics.TRANSMISSION, np.argsort(axes))
            table = table * transmission.reshape(_axes_shape(sorted(axes), rank))
    return table


@dataclass(frozen=True)
class _Side:
    """Cliques of one rank, as rows of its potential table, with the axes a
    bucket sums out of them and the shape that lays a separator table of
    the bucket on their remaining axes."""

    rank: int
    rows: object  # int32 array, or a slice for one ascending run
    sum_axes: tuple
    shape: tuple


@dataclass(frozen=True)
class _Bucket:
    """One batched schedule step over cliques with a shared layout.

    ``cliques`` are the (child, root or read-out) clique ids. Edge buckets
    carry the ``child`` and ``parent`` sides and the ``slots`` of the
    collect messages; read-out buckets carry the member ``targets``.
    """

    cliques: np.ndarray
    child: _Side
    parent: _Side | None = None
    slots: object = None
    targets: np.ndarray | None = None


@dataclass(frozen=True)
class EngineStats:
    """Deterministic size counts of a compiled :class:`MarginalEngine`.

    ``collect_buckets`` and ``distribute_buckets`` count the batched steps of
    the two passes, ``readout_buckets`` those that read root totals and
    marginals from final beliefs, and ``potential_bytes`` the size of one set
    of clique potential tables.
    """

    families: int
    structures: int
    cliques: int
    max_clique_size: int
    collect_buckets: int
    distribute_buckets: int
    readout_buckets: int
    potential_bytes: int


def _index(values):
    return np.asarray(values, dtype=_INDEX)


def _slice(index):
    """``index`` as int32, or as a slice when it is one ascending run, which
    reads a view instead of gathering a copy."""
    index = _index(index)
    n = len(index)
    if n and index[-1] - index[0] == n - 1 and (index[1:] - index[:-1] == 1).all():
        return slice(int(index[0]), int(index[0]) + n)
    return index


def _columns(table, rows):
    """Batch columns ``rows`` of a batch-last table: a view for a slice, else
    a contiguous copy (``table[..., rows]`` would lay the batch axis first)."""
    if isinstance(rows, slice):
        return table[..., rows]
    return np.take(table, rows, axis=-1)


def _scale_columns(table, rows, factor):
    """Multiply batch columns ``rows`` of a table by ``factor`` in place.

    ``rows`` must not repeat a column: only one of the products would stay.
    """
    if isinstance(rows, slice):
        table[..., rows] *= factor
    else:
        table[..., rows] = np.take(table, rows, axis=-1) * factor


class MarginalEngine:
    """Batched posterior-marginal evaluator reused across EM iterations.

    Compiles the junction forests of all families into one bucketed
    two-pass schedule (see the module docstring) and evaluates all marginals
    for new model parameters in a fixed number of vectorized steps. A record
    with a ``genotype_pin`` takes only its pinned states. :attr:`stats`
    reports the schedule's size.

    Raises :class:`InferenceError` when a family's largest clique table, or
    all potential tables together, would exceed ``MAX_POTENTIAL_BYTES``.
    """

    def __init__(self, families):
        self.families = list(families)
        offsets = []
        total = 0
        for fam in self.families:
            offsets.append(total)
            total += len(fam)
        self.offsets = offsets
        self.total = total

        cov_len = len(self.families[0].individuals[0].covariates) if self.families else 0
        if any(fam.covariate_count != cov_len for fam in self.families):
            raise InferenceError(
                "families carry different covariate counts; cannot fit jointly"
            )
        records = [rec for fam in self.families for rec in fam]
        self._age = np.array([rec.age for rec in records], dtype=float)
        self._status = np.array([rec.status for rec in records], dtype=int)
        self._gtest = np.array(
            [-1 if rec.gene_test is None else rec.gene_test for rec in records], dtype=int
        )
        self._suppress = np.array([rec.phenotype_suppressed for rec in records], dtype=bool)
        self._Z = np.array([rec.covariates for rec in records], dtype=float).reshape(
            total, cov_len
        )
        self._mask = _pin_mask(records)
        self._static_q = None
        self._static = {}
        self._compile()

    def _compile(self):
        groups: dict[tuple, list[int]] = {}
        for fi, fam in enumerate(self.families):
            groups.setdefault(fam.structure_key(), []).append(fi)
        drafts: dict[tuple, list] = {}   # bucket key -> [(group, step)]
        patterns: dict[int, dict] = {}   # rank -> {factors: index}
        rank_of, sep_of, fam_of, pattern_of = [], [], [], []
        first, sizes = [], []            # per group: first clique id, families
        largest = (0, None)
        n_cliques = 0
        for g, members in enumerate(groups.values()):
            template = self.families[members[0]]
            forest = _Forest(template)
            k_max = max(forest.ranks)
            if N_STATES ** k_max * _FLOAT_BYTES > MAX_POTENTIAL_BYTES:
                raise InferenceError(
                    f"family {template.family_id}: its junction tree has a clique "
                    f"of {k_max} members, whose {N_STATES}^{k_max}-entry table "
                    f"exceeds the {MAX_POTENTIAL_BYTES}-byte potential budget"
                )
            if k_max > largest[0]:
                largest = (k_max, template.family_id)
            # Clique ids run group by group, then clique by clique, so a step
            # that all families of a group share reads one contiguous range.
            count = len(members)
            first.append(n_cliques)
            sizes.append(count)
            n_cliques += len(forest.ranks) * count
            rank_of.append(np.repeat(forest.ranks, count))
            sep_of.append(np.repeat([len(s) for s in forest.sep_in_child], count))
            fam_of.append(np.tile(members, len(forest.ranks)))
            local = []
            for rank, factors in zip(forest.ranks, forest.factors):
                known = patterns.setdefault(rank, {})
                local.append(known.setdefault(tuple(sorted(factors)), len(known)))
            pattern_of.append(np.repeat(local, count))
            for step in forest.steps():
                drafts.setdefault(step[0], []).append((g, step))

        def joined(parts):
            return _index(np.concatenate(parts) if parts else ())

        rank_of, sep_of, pattern_of = joined(rank_of), joined(sep_of), joined(pattern_of)
        self._clique_family = joined(fam_of)
        potential_bytes = int(np.sum(N_STATES ** rank_of.astype(np.int64))) * _FLOAT_BYTES
        if potential_bytes > MAX_POTENTIAL_BYTES:
            raise InferenceError(
                f"the cohort's clique potential tables need {potential_bytes} bytes, "
                f"above the {MAX_POTENTIAL_BYTES}-byte budget (largest clique: "
                f"{largest[0]} members, family {largest[1]})"
            )

        def table_rows(table_of):
            """Row of each clique within its table, and each table's length."""
            rows = np.zeros(n_cliques, dtype=_INDEX)
            counts = {}
            for size in np.unique(table_of):
                where = np.flatnonzero(table_of == size)
                rows[where] = np.arange(len(where))
                counts[int(size)] = len(where)
            return rows, counts

        rank_row, rank_sizes = table_rows(rank_of)
        sep_row, self._sep_sizes = table_rows(sep_of)
        self._sep_sizes.pop(0, None)  # roots have no parent
        self._patterns = {
            rank: (list(known), pattern_of[rank_of == rank])
            for rank, known in patterns.items()
        }

        def side(cliques, rank, keep):
            return _Side(rank, _slice(rank_row[cliques]),
                         tuple(a for a in range(rank) if a not in keep),
                         _axes_shape(keep, rank, (-1,)))

        grouped = _index([fi for group in groups.values() for fi in group])
        first, sizes = np.asarray(first, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
        group_start = np.cumsum(sizes) - sizes  # of each group in ``grouped``
        record_offsets = np.asarray(self.offsets, dtype=np.int64)
        stages = ([], [], [], [])
        evidence = {rank: {} for rank in rank_sizes}
        for key in sorted(drafts):
            stage, _, _, rank, axes, other_rank, other_axes = key
            # one row per (step, family of the step's group)
            g = np.asarray([group for group, _ in drafts[key]])
            counts = sizes[g]
            row_step = np.repeat(np.arange(len(g)), counts)
            fam = np.arange(len(row_step)) - np.repeat(np.cumsum(counts) - counts, counts)
            g = g[row_step]
            local, other = np.asarray([step[1:] for _, step in drafts[key]])[row_step].T
            cliques = _index(first[g] + local * sizes[g] + fam)
            if stage in (_COLLECT, _DISTRIBUTE):
                parents = _index(first[g] + other * sizes[g] + fam)
                bucket = _Bucket(cliques, side(cliques, rank, axes),
                                 side(parents, other_rank, other_axes),
                                 slots=_slice(sep_row[cliques]))
            elif stage == _ROOT:
                bucket = _Bucket(cliques, side(cliques, rank, ()))
            else:
                targets = _index(record_offsets[grouped[group_start[g] + fam]] + other)
                evidence[rank].setdefault(axes[0], []).append((rank_row[cliques], targets))
                bucket = _Bucket(cliques, side(cliques, rank, axes), targets=targets)
            stages[stage].append(bucket)
        self._stages = stages

        # Each member's evidence sits on its read-out axis; the extra column
        # ``total`` of the evidence table holds ones for every other axis.
        self._evidence = {}
        for rank, by_axis in evidence.items():
            self._evidence[rank] = []
            for axis in sorted(by_axis):
                index = np.full(rank_sizes[rank], self.total, dtype=_INDEX)
                for rows, targets in by_axis[axis]:
                    index[rows] = targets
                self._evidence[rank].append((axis, index))
        self.stats = EngineStats(
            families=len(self.families),
            structures=len(groups),
            cliques=n_cliques,
            max_clique_size=largest[0],
            collect_buckets=len(stages[_COLLECT]),
            distribute_buckets=len(stages[_DISTRIBUTE]),
            readout_buckets=len(stages[_ROOT]) + len(stages[_READOUT]),
            potential_bytes=potential_bytes,
        )

    def _potentials(self, q, phi):
        """Fresh clique potentials per rank: cached static tables times evidence."""
        if q != self._static_q:
            prior = genetics.founder_prior(q)
            self._static = {}
            for rank, (factors, index) in self._patterns.items():
                tables = np.stack([_pattern_table(rank, f, prior) for f in factors], -1)
                self._static[rank] = np.take(tables, index, axis=-1)
            self._static_q = q
        pots = {}
        for rank, static in self._static.items():
            pot = None
            for axis, index in self._evidence[rank]:
                factor = np.take(phi, index, axis=1).reshape(_axes_shape((axis,), rank, (-1,)))
                if pot is None:
                    pot = static * factor
                else:
                    pot *= factor
            pots[rank] = static.copy() if pot is None else pot
        return pots

    def _total(self, table, bucket):
        """Sum of each batch column of ``table``, which must be positive."""
        z = table.reshape(-1, len(bucket.cliques)).sum(axis=0)
        if (z <= 0).any():
            clique = bucket.cliques[int(np.argmin(z))]
            raise ZeroEvidenceError(self.families[self._clique_family[clique]].family_id)
        return z

    def run(self, params: ModelParams):
        """Marginals (total, 4) in global record order plus per-family log evidence.

        Raises :class:`ZeroEvidenceError`, naming the family, when a family's
        observed data has zero probability.
        """
        phi = genetics.evidence_matrix(
            self._age, self._status, self._Z if self._Z.shape[1] else None,
            self._gtest, params, suppress=self._suppress,
        )
        if self._mask is not None:
            phi = phi * self._mask
        # one column per record, plus column ``total``: no evidence
        phi = np.ascontiguousarray(np.concatenate((phi, np.ones((1, N_STATES)))).T)
        pots = self._potentials(params.q, phi)
        collected = {
            size: np.empty((N_STATES,) * size + (count,))
            for size, count in self._sep_sizes.items()
        }
        norm = np.ones(len(self._clique_family))
        collect, roots, distribute, readouts = self._stages

        def marginal(side):
            return _columns(pots[side.rank], side.rows).sum(axis=side.sum_axes)

        def absorb(side, msg):
            _scale_columns(pots[side.rank], side.rows, msg.reshape(side.shape))

        # Collect: each child's belief, summed to the separator, multiplies
        # into its parent's. A root's total is then its tree's evidence.
        for bucket in collect:
            msg = marginal(bucket.child)
            norm[bucket.cliques] = z = self._total(msg, bucket)
            msg /= z
            collected[msg.ndim - 1][..., bucket.slots] = msg
            absorb(bucket.parent, msg)
        for bucket in roots:
            norm[bucket.cliques] = self._total(
                _columns(pots[bucket.child.rank], bucket.child.rows), bucket
            )
        # Distribute: the parent's final belief on the separator, divided by
        # the message it collected from the child. Where that message is 0,
        # so is the parent's marginal, and the quotient is left at 0; the
        # quotient's total is positive since the parent's total is.
        for bucket in distribute:
            msg = marginal(bucket.parent)
            sent = _columns(collected[msg.ndim - 1], bucket.slots)
            np.divide(msg, sent, out=msg, where=sent > 0)
            msg /= msg.reshape(-1, len(bucket.cliques)).sum(axis=0)
            absorb(bucket.child, msg)
        marginals = np.empty((self.total, N_STATES))
        for bucket in readouts:
            marg = marginal(bucket.child)
            marginals[bucket.targets] = (marg / marg.sum(axis=0)).T
        log_evidence = np.bincount(
            self._clique_family, weights=np.log(norm), minlength=len(self.families)
        )
        return marginals, log_evidence

    def family_weights(self, marginals) -> list[dict]:
        """Split a flat marginal table into per-family weight mappings."""
        out = []
        for fam, off in zip(self.families, self.offsets):
            out.append(_weights_from_marginals(fam, marginals[off:off + len(fam)]))
        return out
