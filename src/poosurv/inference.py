"""Exact genotype posteriors on pedigrees via clique-tree message passing.

Two-pass sum-product over each family's junction forest (built by
:mod:`poosurv.junction`) yields every individual's posterior genotype
distribution, and the accumulated message normalizers give the log
evidence, in a single sweep.

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
clique, never per table entry.

The tables' rows are laid out so that buckets read and write slices. Each
rank table numbers its rows in collect-bucket order (roots last), and each
separator table follows it, so a collect bucket's children, its messages
and a root bucket are contiguous. Between the passes, a rank or separator
table whose distribute receivers are not already contiguous runs is
gathered once into distribute-bucket order; a cohort of one structure has
distribute buckets that are already runs, so it needs no such copy.

Compiling ends in a list of operations, numpy calls with views of the
engine's buffers bound. A collect bucket sums its children straight into
their slots of the collected-message table, normalizes them there and
multiplies them into the parents; distribute buckets and read-outs work in
scratch buffers that later operations reuse. A run thus makes no per-bucket
slice, reshape or message array. A gathered collect parent side is taken,
multiplied and put back; a gathered read (a distribute parent side or a
read-out) sums the run of rows that it spans and picks its columns when
that run is at most twice as long as the gather, and gathers first
otherwise. A zero total in the collect pass spreads NaN through its own
family's columns; one check after the collect pass names such a family.
Founder priors and transmission tables are folded into static potentials
once per allele frequency, and the evidence parts that a new hazard leaves
alone are built once per (epsilon, eta), so a run computes only the
hazard-dependent evidence. Marginals are read from each clique's final
belief. :func:`posterior_marginals` is the one-family case of the same engine.

A brute-force enumerator over all 4^n genotype configurations, with its own
scalar factor construction, serves as an independent oracle for small
families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import genetics
from .genetics import N_STATES, Genotype, ModelParams
from .junction import build_clique_tree
from .survival import BaselineHazard

__all__ = [
    "InferenceError",
    "ZeroEvidenceError",
    "PosteriorWeights",
    "MarginalResult",
    "posterior_marginals",
    "brute_force_marginals",
    "EngineStats",
    "MarginalEngine",
    "family_weights",
    "MAX_POTENTIAL_BYTES",
]

DEFAULT_ENUMERATION_CAP = 12

#: Budget for the clique potential tables, checked before any is allocated:
#: for a single clique and for the whole cohort. Between runs an engine holds
#: a few tables of that size: the static tables, the potentials each run
#: multiplies the evidence into, and the distribute-order copies of the
#: reordered ranks. Beside them it keeps the collected messages, the evidence
#: with its gather per rank, the normalizers, and scratch buffers the size of
#: the largest gathered bucket side and message. A run adds only its evidence
#: temporaries and the tables it returns.
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


def family_weights(families, marginals) -> list[dict]:
    """One mapping per family, individual id to :class:`PosteriorWeights`,
    from a flat (records, 4) marginal table in the families' record order."""
    w_pat = marginals[:, Genotype.HET_PATERNAL].tolist()
    w_mat = (
        marginals[:, Genotype.HET_MATERNAL] + marginals[:, Genotype.HOMOZYGOUS]
    ).tolist()
    w_zero = marginals[:, Genotype.NON_CARRIER].tolist()
    weights = list(map(PosteriorWeights, w_pat, w_mat, w_zero))
    mappings, offset = [], 0
    for fam in families:
        ids = (rec.individual_id for rec in fam)
        mappings.append(dict(zip(ids, weights[offset:offset + len(fam)])))
        offset += len(fam)
    return mappings


def posterior_marginals(pedigree, params: ModelParams) -> MarginalResult:
    """Exact posterior genotype marginals for every family member.

    Returns the per-individual weights, the full (n, 4) marginal table in
    record order, and the log evidence of the observed data (up to the
    genotype-independent hazard factor omitted from affected penetrance).
    """
    engine = MarginalEngine([pedigree])
    marginals, log_evidence = engine.run(params)
    return MarginalResult(
        weights=family_weights([pedigree], marginals)[0],
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
        phi = genetics.evidence_factor(rec, params)
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
        weights=family_weights([pedigree], marginals)[0],
        marginals=marginals,
        log_evidence=float(np.log(total)),
    )


def _lowest(mask):
    """Position of the lowest set bit of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


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
        height = [0] * nc
        for node in reversed(order):
            p = parent[node]
            if p >= 0 and height[p] <= height[node]:
                height[p] = height[node] + 1
        self.parent, self.depth, self.height = parent, depth, height

        axis_of = [{v: a for a, v in enumerate(c)} for c in cliques]
        # separator with the parent, as axes of the clique and of the parent
        self.sep_in_child = [()] * nc
        self.sep_in_parent = [()] * nc
        for j, p in enumerate(parent):
            if p >= 0:
                sep = [v for v in cliques[j] if v in axis_of[p]]
                self.sep_in_child[j] = tuple(axis_of[j][v] for v in sep)
                self.sep_in_parent[j] = tuple(axis_of[p][v] for v in sep)

        holding = [0] * tree.n_vars  # bitset of the cliques holding each member
        for j, clique in enumerate(cliques):
            for v in clique:
                holding[v] |= 1 << j
        self.readout = [[] for _ in range(nc)]  # (axis, member) pairs
        for v, held in enumerate(holding):
            j = _lowest(held)
            self.readout[j].append((axis_of[j][v], v))
        self.factors = [[] for _ in range(nc)]  # prior (a,) / transmission (f, m, c)
        for i, (f, m) in enumerate(template.structure_key()):
            if f < 0:
                j = _lowest(holding[i])
                self.factors[j].append((axis_of[j][i],))
            else:
                j = _lowest(holding[f] & holding[m] & holding[i])
                self.factors[j].append((axis_of[j][f], axis_of[j][m], axis_of[j][i]))

    def steps(self):
        """Every schedule step of this forest as (bucket key, clique, other).

        A collect or distribute step carries the edge's child clique and its
        parent; ``ordinal`` splits siblings with equal keys, so that no
        collect bucket multiplies into one parent twice. A root step carries
        the root, a read-out step the clique and the member read out.
        """
        ordinal = {}
        ranks = self.ranks
        for c, p in enumerate(self.parent):
            if p < 0:
                yield (_ROOT, 0, 0, ranks[c], (), 0, ()), c, 0
                continue
            layout = (ranks[c], self.sep_in_child[c], ranks[p], self.sep_in_parent[c])
            slot = (p, self.height[c], layout)
            n = ordinal[slot] = ordinal.get(slot, -1) + 1
            yield (_COLLECT, self.height[c], n) + layout, c, p
            yield (_DISTRIBUTE, self.depth[c], 0) + layout, c, p
        for j, readout in enumerate(self.readout):
            for axis, member in readout:
                yield (_READOUT, 0, 0, ranks[j], (axis,), 0, ()), j, member


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
    rows: object  # slice for one ascending run of rows, else an index array
    sum_axes: tuple
    shape: tuple


@dataclass(frozen=True)
class _Bucket:
    """One batched schedule step over cliques with a shared layout.

    ``child`` holds the (child, root or read-out) cliques. Edge buckets
    carry the ``parent`` side and the ``slots`` of the collect messages,
    collect and root buckets the ``norm`` entries of their cliques, and
    read-out buckets the member ``targets`` and, when their cliques are not
    one run, the columns to ``pick`` from the marginal of the rows between.
    """

    child: _Side
    parent: _Side | None = None
    slots: slice | None = None
    norm: slice | None = None
    pick: np.ndarray | None = None
    targets: np.ndarray | None = None


@dataclass(frozen=True)
class EngineStats:
    """Deterministic size counts of a compiled :class:`MarginalEngine`.

    ``collect_buckets`` and ``distribute_buckets`` count the batched steps of
    the two passes, ``readout_buckets`` those that read root totals and
    marginals from final beliefs, ``gathered_sides`` the bucket sides that
    read their cliques through an index array rather than a slice, and
    ``potential_bytes`` the size of one set of clique potential tables.
    """

    families: int
    structures: int
    cliques: int
    max_clique_size: int
    collect_buckets: int
    distribute_buckets: int
    readout_buckets: int
    gathered_sides: int
    potential_bytes: int


def _index(values):
    return np.asarray(values, dtype=_INDEX)


def _slice(index):
    """``index`` as an index array, or as a slice when it is one ascending
    run, which reads a view instead of gathering a copy."""
    index = _index(index)
    n = len(index)
    if n and index[-1] - index[0] == n - 1 and (index[1:] - index[:-1] == 1).all():
        return slice(int(index[0]), int(index[0]) + n)
    return index


def _run(index):
    """``index``, which the schedule lays out as one ascending run, as a slice."""
    rows = _slice(index)
    assert isinstance(rows, slice), "schedule rows are not one run"
    return rows


def _reduce(table, axes, out):
    """Op: ``table`` summed over ``axes`` into ``out``."""
    return partial(np.add.reduce, table, axes, None, out)


def _sums_first(rows):
    """Whether a read of gathered ``rows`` sums the run of rows from their
    lowest to their highest first (see :func:`_read`)."""
    return 1 < int(rows.max()) - int(rows.min()) + 1 <= 2 * len(rows)


def _read(table, rows, sum_axes, out, scratch):
    """Ops that write batch columns ``rows`` of a batch-last ``table``,
    summed over ``sum_axes``, into ``out``.

    A gathered side sums the run of rows from its lowest to its highest and
    picks its columns from that marginal when the run is at most twice as
    long as the gather, and gathers its columns first otherwise: a gathered
    row is copied and then summed, which costs about two summed rows. A run
    of one row is gathered too: numpy sums a lone column in another order
    than a batch, which would change the last bits.
    """
    if isinstance(rows, slice):
        return [_reduce(table[..., rows], sum_axes, out)]
    if _sums_first(rows):
        low, high = int(rows.min()), int(rows.max()) + 1
        summed = scratch(out.shape[:-1] + (high - low,))
        return [_reduce(table[..., low:high], sum_axes, summed),
                partial(summed.take, rows - low, -1, out, "clip")]
    gathered = scratch(table.shape[:-1] + (len(rows),))
    return [partial(table.take, rows, -1, gathered, "clip"),
            _reduce(gathered, sum_axes, out)]


def _absorb(table, rows, factor, scratch):
    """Ops that multiply batch columns ``rows`` of a table by ``factor`` in
    place; gathered ``rows`` must not repeat a column."""
    if isinstance(rows, slice):
        view = table[..., rows]
        return [partial(np.multiply, view, factor, view)]
    columns = scratch(table.shape[:-1] + (len(rows),))
    return [partial(table.take, rows, -1, columns, "clip"),
            partial(np.multiply, columns, factor, columns),
            partial(table.__setitem__, (Ellipsis, rows), columns)]


class _Scratch:
    """Contiguous views of one flat buffer, reused by ops that run one after
    another. A binding pass over an empty buffer hands out throwaway arrays
    and records the largest request, which sizes the buffer of the next."""

    def __init__(self, size=0):
        self.flat = np.empty(size)
        self.size = 0

    def __call__(self, shape):
        size = math.prod(shape)
        self.size = max(self.size, size)
        if size > self.flat.size:
            return np.empty(shape)
        return self.flat[:size].reshape(shape)


def _positions(order, table_of):
    """Row of each item within its table when the tables take the items in
    ``order``, which must list each table's items together."""
    rows = np.empty(len(table_of), dtype=_INDEX)
    tables = table_of[order]
    starts = np.flatnonzero(np.r_[True, tables[1:] != tables[:-1]])
    rows[order] = np.arange(len(order)) - np.repeat(starts, np.diff(np.r_[starts, len(order)]))
    return rows


def _broken_runs(rows, rank_of, keys, groups):
    """Mask of the cliques of each rank that has a bucket (``keys`` with
    their clique ``groups``) whose ``rows`` are not one run."""
    # a bucket key is (stage, level, ordinal, rank, axes, other rank, other axes)
    broken = {key[3] for key, group in zip(keys, groups)
              if not isinstance(_slice(np.sort(rows[group])), slice)}
    return np.isin(rank_of, list(broken))


def _sort_entries(rows, groups, others):
    """Order each bucket's entries, its cliques ``groups`` and their
    ``others``, by ascending ``rows``, in place."""
    for b, group in enumerate(groups):
        ordered = np.argsort(rows[group], kind="stable")
        groups[b] = group[ordered]
        others[b] = others[b][ordered]


def _row_orders(rank_of, sep_of, keys, cliques, others):
    """Row of every clique in its rank and separator tables, in the collect
    order and in the distribute order, as (rank, distribute rank, separator,
    distribute separator) rows per clique id.

    ``keys``, ``cliques`` and ``others`` hold each stage's bucket keys and
    entries; the entries of the collect, distribute and read-out buckets are
    put in ascending row order, in place.
    """
    # Collect order: each rank table takes its non-root cliques bucket by
    # bucket in collect order, then its roots. Collect buckets are placed by
    # the first distribute bucket they feed, and a bucket's cliques by their
    # distribute bucket, which keeps each distribute bucket's receivers
    # together too where the two partitions nest, as they do for a cohort
    # of one structure. Ties keep clique-id order, the order of every
    # bucket's entries.
    collect, distribute, roots = cliques[_COLLECT], cliques[_DISTRIBUTE], cliques[_ROOT]
    received = np.full(len(rank_of), len(distribute), dtype=_INDEX)  # roots last
    for b, group in enumerate(distribute):
        received[group] = b
    lead = received.copy()
    bucket_of = np.zeros(len(rank_of), dtype=_INDEX)
    for b, group in enumerate(collect):
        bucket_of[group] = b
        lead[group] = received[group].min()
    for b, group in enumerate(roots):
        bucket_of[group] = len(collect) + b
    rank_row = _positions(np.lexsort((received, bucket_of, lead, rank_of)), rank_of)
    _sort_entries(rank_row, collect, others[_COLLECT])
    _sort_entries(rank_row, distribute, others[_DISTRIBUTE])

    # Distribute order: a rank table keeps the collect order when each
    # distribute bucket's receivers already form one run of it, and is
    # otherwise gathered once, between the passes, into bucket order.
    dist_row = rank_row
    redo = _broken_runs(rank_row, rank_of, keys[_DISTRIBUTE], distribute)
    if redo.any():
        order = np.lexsort((rank_row, received, rank_of))
        dist_row = np.where(redo, _positions(order, rank_of), rank_row)
    _sort_entries(dist_row, cliques[_READOUT], others[_READOUT])
    sep_row = _sep_rows(rank_row, rank_of, sep_of)
    sep_dist_row = sep_row if dist_row is rank_row else _sep_rows(dist_row, rank_of, sep_of)
    return rank_row, dist_row, sep_row, sep_dist_row


def _sep_rows(rows, rank_of, sep_of):
    """Row of each non-root clique in its separator table, which follows the
    order of the rank tables' ``rows``."""
    edge = np.flatnonzero(sep_of > 0)
    sep_rows = np.zeros(len(sep_of), dtype=_INDEX)
    sep_rows[edge] = _positions(
        np.lexsort((rows[edge], rank_of[edge], sep_of[edge])), sep_of[edge]
    )
    return sep_rows


def _boundary(table_of, before, after):
    """Per table whose order changes, the gather that takes its rows from the
    ``before`` to the ``after`` order and the buffer it writes, as (perm,
    buffer).

    Each buffer is allocated once per engine and overwritten by every run: a
    fresh table of that size would page-fault anew in each run, which cost
    more than the copy itself.
    """
    moves = {}
    for size in np.unique(table_of):
        items = np.flatnonzero(table_of == size)
        if (before[items] != after[items]).any():
            perm = np.empty(len(items), dtype=_INDEX)
            perm[after[items]] = before[items]
            moves[int(size)] = perm, np.empty((N_STATES,) * int(size) + (len(items),))
    return moves


class MarginalEngine:
    """Batched posterior-marginal evaluator reused across EM iterations.

    Compiles the junction forests of all families into one bucketed
    two-pass schedule and binds it into a list of numpy operations on the
    engine's own buffers (see the module docstring). A record with a
    ``genotype_pin`` takes only its pinned states. :attr:`stats` reports
    the schedule's size. ``ages``, ``statuses``, ``covariates`` and
    ``suppressed`` are the record columns in global record order.

    A run computes the hazard-dependent evidence of every record,
    multiplies it into the static tables, calls the bound operations and
    returns a fresh marginal table with the per-family log evidence. What
    does not change between the runs of an EM fit is made once and kept
    while its inputs stay equal by value: the static tables per ``q``, the
    fixed evidence parts with the pins per (``epsilon``, ``eta``), and a
    step baseline's jump-grid positions of the records' ages per grid.

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
        self.ages = np.array([rec.age for rec in records], dtype=float)
        self.statuses = np.array([rec.status for rec in records], dtype=int)
        self._gtest = np.array(
            [-1 if rec.gene_test is None else rec.gene_test for rec in records], dtype=int
        )
        self.suppressed = np.array([rec.phenotype_suppressed for rec in records], dtype=bool)
        self.covariates = np.array(
            [rec.covariates for rec in records], dtype=float
        ).reshape(total, cov_len)
        self._mask = _pin_mask(records)
        self._grid = self._grid_positions = None
        self._static_q = self._fixed = None
        self._compile()

    def _compile(self):
        groups: dict[tuple, list[int]] = {}
        for fi, fam in enumerate(self.families):
            groups.setdefault(fam.structure_key(), []).append(fi)
        drafts: dict[tuple, tuple] = {}  # bucket key -> (groups, cliques, others)
        patterns: dict[int, dict] = {}   # rank -> {factors: index}
        # per clique of each group's forest: rank, separator size, static
        # pattern and the group's family count; per clique id: the family
        rank_of, sep_of, pattern_of, repeats, fam_of = [], [], [], [], []
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
            # Clique ids run group by group, then clique by clique: the order
            # in which per-family results (the log evidence) are summed.
            count, nc = len(members), len(forest.ranks)
            first.append(n_cliques)
            sizes.append(count)
            n_cliques += nc * count
            rank_of += forest.ranks
            sep_of += map(len, forest.sep_in_child)
            repeats += [count] * nc
            fam_of += members * nc
            for rank, factors in zip(forest.ranks, forest.factors):
                known = patterns.setdefault(rank, {})
                pattern_of.append(known.setdefault(tuple(sorted(factors)), len(known)))
            for key, clique, other in forest.steps():
                draft = drafts.get(key)
                if draft is None:
                    draft = drafts[key] = ([], [], [])
                draft[0].append(g)
                draft[1].append(clique)
                draft[2].append(other)

        rank_of, sep_of, pattern_of = (
            np.repeat(np.asarray(v, dtype=_INDEX), repeats)
            for v in (rank_of, sep_of, pattern_of)
        )
        self._clique_family = _index(fam_of)
        potential_bytes = int(np.sum(N_STATES ** rank_of.astype(np.int64))) * _FLOAT_BYTES
        if potential_bytes > MAX_POTENTIAL_BYTES:
            raise InferenceError(
                f"the cohort's clique potential tables need {potential_bytes} bytes, "
                f"above the {MAX_POTENTIAL_BYTES}-byte budget (largest clique: "
                f"{largest[0]} members, family {largest[1]})"
            )

        # Expand each bucket to one entry per (step, family of the step's group).
        grouped = np.asarray([fi for group in groups.values() for fi in group], dtype=_INDEX)
        first, sizes = np.asarray(first, dtype=_INDEX), np.asarray(sizes, dtype=_INDEX)
        group_start = np.cumsum(sizes) - sizes  # of each group in ``grouped``
        record_offsets = np.asarray(self.offsets, dtype=_INDEX)
        keys, cliques, others = ([], [], [], []), ([], [], [], []), ([], [], [], [])
        for key in sorted(drafts):
            g, local, other = (np.asarray(part, dtype=_INDEX) for part in drafts[key])
            counts = sizes[g]
            row_step = np.repeat(np.arange(len(g)), counts)
            fam = np.arange(len(row_step)) - np.repeat(np.cumsum(counts) - counts, counts)
            g, local, other = g[row_step], local[row_step], other[row_step]
            stage = key[0]
            keys[stage].append(key)
            cliques[stage].append(first[g] + local * sizes[g] + fam)
            if stage in (_COLLECT, _DISTRIBUTE):
                others[stage].append(first[g] + other * sizes[g] + fam)
            elif stage == _READOUT:
                others[stage].append(record_offsets[grouped[group_start[g] + fam]] + other)

        rank_row, dist_row, sep_row, sep_dist_row = _row_orders(
            rank_of, sep_of, keys, cliques, others
        )
        edge = sep_of > 0
        self._rank_moves = _boundary(rank_of, rank_row, dist_row)
        self._sep_moves = _boundary(sep_of[edge], sep_row[edge], sep_dist_row[edge])

        # Collect and root buckets write their cliques' totals in bucket
        # order; log evidence sums them per family in clique-id order.
        self._norm_of_clique = np.empty(n_cliques, dtype=_INDEX)

        def side(rows, rank, keep):
            return _Side(rank, rows, tuple(a for a in range(rank) if a not in keep),
                         _axes_shape(keep, rank, (-1,)))

        stages = ([], [], [], [])
        evidence = {int(rank): {} for rank in np.unique(rank_of)}
        start = 0
        for stage in range(4):
            for key, group, other in zip(keys[stage], cliques[stage],
                                         others[stage] or [None] * len(keys[stage])):
                _, _, _, rank, axes, other_rank, other_axes = key
                if stage in (_COLLECT, _ROOT):
                    norm = slice(start, start + len(group))
                    self._norm_of_clique[group] = np.arange(norm.start, norm.stop)
                    start = norm.stop
                if stage == _COLLECT:
                    bucket = _Bucket(side(_run(rank_row[group]), rank, axes),
                                     side(_slice(rank_row[other]), other_rank, other_axes),
                                     slots=_run(sep_row[group]), norm=norm)
                elif stage == _ROOT:
                    bucket = _Bucket(side(_run(rank_row[group]), rank, ()), norm=norm)
                elif stage == _DISTRIBUTE:
                    bucket = _Bucket(side(_run(dist_row[group]), rank, axes),
                                     side(_slice(dist_row[other]), other_rank, other_axes),
                                     slots=_run(sep_dist_row[group]))
                else:
                    # A read-out sums the run of rows from its first clique to
                    # its last and picks its columns from that marginal, which
                    # is cheaper than gathering the cliques' tables.
                    targets = _index(other)
                    evidence[rank].setdefault(axes[0], []).append((rank_row[group], targets))
                    rows = dist_row[group]
                    span = slice(int(rows[0]), int(rows[-1]) + 1)
                    pick = _index(rows - span.start)
                    if len(rows) == span.stop - span.start:
                        pick = None
                    bucket = _Bucket(side(span, rank, axes), pick=pick, targets=targets)
                stages[stage].append(bucket)
        self._stages = stages

        # Each member's evidence sits on its read-out axis; the extra column
        # ``total`` of the evidence table holds ones for every other axis.
        # Each run writes the evidence, its gather per rank (``_gathered``),
        # the potentials (``_pots``), the collected messages with where they
        # are positive (``_sent``) and the normalizers into these buffers
        # before it reads them; the static tables are rewritten when ``q``
        # changes.
        self._phi = np.ones((N_STATES, self.total + 1))
        self._evidence, self._patterns = {}, {}
        self._pots, self._static, self._gathered = {}, {}, {}
        for rank, by_axis in evidence.items():
            members = rank_of == rank
            count = int(members.sum())
            self._pots[rank] = np.empty((N_STATES,) * rank + (count,))
            self._static[rank] = np.empty_like(self._pots[rank])
            self._gathered[rank] = np.empty((N_STATES, count))
            self._evidence[rank] = []
            for axis in sorted(by_axis):
                index = np.full(count, self.total, dtype=_INDEX)
                for rows, targets in by_axis[axis]:
                    index[rows] = targets
                self._evidence[rank].append((axis, index))
            index = np.empty(count, dtype=_INDEX)
            index[rank_row[members]] = pattern_of[members]
            self._patterns[rank] = (list(patterns[rank]), index)
        self._collected = {
            int(size): np.empty((N_STATES,) * int(size) + (int(np.sum(sep_of == size)),))
            for size in np.unique(sep_of[edge])
        }
        self._sent = {size: np.empty(table.shape, bool) for size, table in self._collected.items()}
        self._norm = np.empty(n_cliques)
        pools = [_Scratch() for _ in range(3)]
        self._bind(pools)
        self._ops = self._bind([_Scratch(p.size) for p in pools])
        self.stats = EngineStats(
            families=len(self.families),
            structures=len(groups),
            cliques=n_cliques,
            max_clique_size=largest[0],
            collect_buckets=len(stages[_COLLECT]),
            distribute_buckets=len(stages[_DISTRIBUTE]),
            readout_buckets=len(stages[_ROOT]) + len(stages[_READOUT]),
            gathered_sides=sum(
                not isinstance(s.rows, slice)
                for buckets in stages for bucket in buckets
                for s in (bucket.child, bucket.parent) if s is not None
            ),
            potential_bytes=potential_bytes,
        )

    def _cumulative_hazard(self, params):
        """Each record's baseline cumulative hazard at its age.

        A step baseline's jump-grid positions of the ages are kept while its
        jump times stay equal by value, as they do within an EM run.
        """
        baseline = params.baseline
        if not isinstance(baseline, BaselineHazard):
            return params.cumulative_hazard(self.ages)
        if self._grid is None or not np.array_equal(self._grid, baseline.times):
            self._grid = baseline.times.copy()
            self._grid_positions = baseline.grid_positions(self.ages)
        return baseline.cumulative_at(self._grid_positions)

    def _bind(self, scratch):
        """The ops of a run, with every view of the engine's buffers bound:
        the potentials, the collect pass with the roots, the boundary moves
        with the distribute pass, and per read-out bucket its ops, member
        rows and marginal. ``scratch`` hands out the temporaries that ops
        reuse: gathered or summed rows, messages and marginals, and their
        totals."""
        rows_of, messages, totals = scratch
        pots, collected, norm = self._pots, self._collected, self._norm
        potentials = []
        for rank, pot in pots.items():
            gathered, source = self._gathered[rank], self._static[rank]
            for axis, index in self._evidence[rank]:
                factor = gathered.reshape(_axes_shape((axis,), rank, (-1,)))
                potentials += [partial(self._phi.take, index, 1, gathered, "clip"),
                               partial(np.multiply, source, factor, pot)]
                source = pot
            if source is not pot:
                potentials.append(partial(np.copyto, pot, source))

        collect, roots, distribute, readouts = self._stages
        collecting = []
        for bucket in collect:
            child, parent = bucket.child, bucket.parent
            slot = collected[child.rank - len(child.sum_axes)][..., bucket.slots]
            total = norm[bucket.norm]
            collecting += [
                _reduce(pots[child.rank][..., child.rows], child.sum_axes, slot),
                _reduce(slot.reshape(-1, slot.shape[-1]), 0, total),
                partial(np.divide, slot, total, slot),
                *_absorb(pots[parent.rank], parent.rows, slot.reshape(parent.shape), rows_of),
            ]
        for bucket in roots:
            table = pots[bucket.child.rank][..., bucket.child.rows]
            collecting.append(_reduce(table.reshape(-1, table.shape[-1]), 0, norm[bucket.norm]))

        distributing = []
        pots, collected = dict(pots), dict(collected)  # in distribute order
        for tables, moves in ((pots, self._rank_moves), (collected, self._sep_moves)):
            for size, (perm, moved) in moves.items():
                distributing.append(partial(tables[size].take, perm, -1, moved, "clip"))
                tables[size] = moved
        for size, table in collected.items():
            distributing.append(partial(np.greater, table, 0.0, self._sent[size]))
        for bucket in distribute:
            child, parent = bucket.child, bucket.parent
            size = child.rank - len(child.sum_axes)
            sent = collected[size][..., bucket.slots]
            msg, total = messages(sent.shape), totals(sent.shape[-1:])
            view = pots[child.rank][..., child.rows]
            distributing += [
                *_read(pots[parent.rank], parent.rows, parent.sum_axes, msg, rows_of),
                partial(np.divide, msg, sent, msg, where=self._sent[size][..., bucket.slots]),
                _reduce(msg.reshape(-1, msg.shape[-1]), 0, total),
                partial(np.divide, msg, total, msg),
                partial(np.multiply, view, msg.reshape(child.shape), view),
            ]

        reading = []
        for bucket in readouts:
            child, count = bucket.child, len(bucket.targets)
            rows = child.rows if bucket.pick is None else child.rows.start + bucket.pick
            marginal, total = messages((N_STATES, count)), totals((count,))
            ops = _read(pots[child.rank], rows, child.sum_axes, marginal, rows_of)
            ops += [_reduce(marginal, 0, total), partial(np.divide, marginal, total, marginal)]
            reading.append((ops, bucket.targets, marginal.T))
        return potentials, collecting, distributing, reading

    def _fixed_evidence(self, params):
        """The records' :class:`genetics.FixedEvidence` with their pins,
        rebuilt when (epsilon, eta) change by value."""
        fixed = self._fixed
        if fixed is None or fixed.key != (params.epsilon, params.eta):
            fixed = self._fixed = genetics.FixedEvidence(
                self.statuses, self._gtest, params.epsilon, params.eta,
                self.suppressed, self._mask,
            )
        return fixed

    def run(self, params: ModelParams):
        """Marginals (total, 4) in global record order plus per-family log evidence.

        Raises :class:`ZeroEvidenceError`, naming the family, when a family's
        observed data has zero probability.
        """
        genetics.evidence_matrix(
            self._cumulative_hazard(params), self.statuses,
            self.covariates if self.covariates.shape[1] else None,
            self._gtest, params, suppress=self.suppressed,
            fixed=self._fixed_evidence(params), out=self._phi[:, :self.total],
        )
        if params.q != self._static_q:
            prior = genetics.founder_prior(params.q)
            for rank, (factors, index) in self._patterns.items():
                tables = np.stack([_pattern_table(rank, f, prior) for f in factors], -1)
                np.take(tables, index, axis=-1, out=self._static[rank], mode="clip")
            self._static_q = params.q
        potentials, collect, distribute, readouts = self._ops
        for op in potentials:
            op()
        # Collect: each child's belief, summed to the separator, multiplies
        # into its parent's. A root's total is then its tree's evidence. A
        # zero total spreads NaN through its own family's columns only, and
        # is caught once both stages are done.
        with np.errstate(divide="ignore", invalid="ignore"):
            for op in collect:
                op()
        norm = self._norm
        failed = ~(norm > 0)
        if failed.any():
            clique = np.flatnonzero(self._norm_of_clique == np.argmax(failed))[0]
            raise ZeroEvidenceError(self.families[self._clique_family[clique]].family_id)
        # Distribute: the parent's final belief on the separator, divided by
        # the message it collected from the child. Where that message is 0,
        # so is the parent's marginal, and the quotient is left at 0; the
        # quotient's total is positive since the parent's total is.
        for op in distribute:
            op()
        marginals = np.empty((self.total, N_STATES))
        for ops, targets, marginal in readouts:
            for op in ops:
                op()
            marginals[targets] = marginal
        log_evidence = np.bincount(
            self._clique_family, weights=np.log(norm)[self._norm_of_clique],
            minlength=len(self.families),
        )
        return marginals, log_evidence
