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
many structures the cohort holds. Compiling builds each structure's tree
and roots it in Python, then finds the separators, places the factors and
read-outs and keys every step for all structures at once with numpy, and
expands the sorted steps to every family of their structure in one pass.
Clique potentials live in one table per
clique rank and collected messages in one table per separator size, with
the batch axis last; every index array of the schedule has one entry per
clique, never per table entry.

The tables have one row order, used by both passes and the read-outs. Each
rank table numbers its rows in collect-bucket order (roots last), and each
separator table follows it, so a collect bucket's children, its messages
and a root bucket are contiguous slices. Collect buckets are placed by the
first distribute bucket they feed, so that distribute buckets are slices
too where the two partitions nest, as they do for a cohort of one
structure. Any other bucket side, collected-message slots included, is read
through an index array.

Compiling ends in a schedule, which an engine binds into a list of
operations, numpy calls with views of the engine's buffers bound. A collect
bucket sums its children straight into their slots of the collected-message
table, normalizes them there and multiplies them into the parents;
distribute buckets and read-outs work in scratch buffers that later
operations reuse. A run thus makes no per-bucket
slice, reshape or message array. A gathered side that a bucket multiplies
into (a collect parent or a distribute child) is taken, multiplied and put
back, and gathered slots are taken; a gathered read (a distribute parent or
a read-out) sums the run of rows that it spans and picks its columns when
that run is at most twice as long as the gather, and gathers first
otherwise. A zero total in the collect pass spreads NaN through its own
family's columns; one check after the collect pass names such a family.
The distribute pass divides by the collected messages after setting their
exact zeros to 1, which leaves the quotient as it is there.
An engine is compiled for one allele frequency and one pair of gene-test
error rates: its pattern tables fold in the founder priors and
transmission tables, and the evidence parts that a new hazard leaves alone
are built with it: the status selections, the suppressed phenotypes, the
gene-test factors, the genotype pins and the covariates. A run, given the
origin and covariate effects and each record's cumulative hazard, thus
computes only the hazard-dependent evidence. Marginals are read from each
clique's final belief.

The cliques of one rank share a few patterns of founder priors and
transmission tables (four for a cohort of one ten-member template, six
for a cohort of clinic-like kindreds), so the schedule keeps one table per
pattern and the pattern of each row, not a table per clique. A run writes
each rank's potentials from them in one of two ways, chosen at compile
time by the number of runs of one pattern in the rank's rows. Where there
are at most ``_FEW_RUNS``, as in a cohort of one structure, each run's
pattern table, broadcast over its rows, is multiplied by the first
evidence factor straight into the potentials. Otherwise, as in a
heterogeneous cohort, each row's pattern table is taken into the
potentials by index and the evidence multiplied in place. Either way every
product has the operands it would have with a table per clique, so the
bits do not depend on the way.
:func:`posterior_marginals` is the one-family case of the same engine.

Engines of one design share its compiled schedule. The schedule holds the
buckets with their index arrays, the evidence gathers, each rank's pattern
tables and row patterns, the per-clique family and normalizer indices and
the :class:`EngineStats`, all read-only, and no table per clique. Each
engine holds its own families (to name one in a :class:`ZeroEvidenceError`),
fixed evidence, evidence table, potential and message tables, normalizers,
scratch pools and bound operations, so two live engines share no buffer
and can run on two threads at once. The
module keeps the last compiled schedule, keyed by everything the compile
reads: the cohort's distinct structure keys and the structure of each
family, the founder prior (that is, ``q``) and ``MAX_POTENTIAL_BYTES``. An
engine whose key matches skips the compile. That happens for the fits of a
study case, whose cohorts all repeat one family template, and for repeated
library fits of one design, such as a fit and then its bootstrap on one
process. It misses for the first engine of a design, so a CLI ``fit``
compiles its point fit, and in a cycle of cohorts of distinct designs, such
as heterogeneous cohorts fitted in turn. A reused schedule is the one a
compile would give, so no output depends on the cache.

A cohort is compiled as one schedule whatever its size. A split into two
schedules of half the families each was fitted while a helper thread ran
the second; run one after the other on the calling thread, two schedules
measured within a few percent of one, either way, at the sizes the
benchmark and the study use (up to 2000 families).

A brute-force enumerator over all 4^n genotype configurations, with its own
scalar factor construction, serves as an independent oracle for small
families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress

import numpy as np

from . import genetics
from .genetics import N_STATES, Genotype, ModelParams
from .junction import clique_tree

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

#: Largest family, in members, that :func:`brute_force_marginals` enumerates.
ENUMERATION_CAP = 12

#: Budget for the clique potential tables, checked before any is allocated:
#: for a single clique and for the whole cohort. Between runs an engine holds
#: one table of that size, the potentials, which each run writes from the
#: schedule's pattern tables and the evidence. Beside them it keeps the
#: collected messages, the evidence with its gather per rank, the
#: normalizers, and scratch pools, each under four times its largest
#: request: a pool doubles when a request outgrows it, and ops bound before
#: keep the smaller buffers. A run adds only its evidence temporaries, the
#: zero mask of one collected-message table at a time, and the tables it
#: returns.
MAX_POTENTIAL_BYTES = 2 ** 30

#: numpy's ufunc buffer size, in entries, while a run fills the evidence
#: and runs its ops. At the default of 8192, numpy copies a strided operand
#: of a broadcast operation through its buffers when the batch axis holds
#: at most a quarter of that, which made the in-place products of
#: buckets of up to 2048 columns about three times slower per entry; at 1024
#: only buckets of up to 256 columns take that path. Reductions, products
#: and quotients give the same bits.
_BUFSIZE = 1024

#: Most runs of one prior pattern in a rank's rows for which a run builds
#: its potentials with one broadcast product per run; a rank of more runs
#: takes its rows' pattern tables into the potentials by index first.
_FEW_RUNS = 64

_FLOAT_BYTES = np.dtype(float).itemsize
_INDEX = np.int32
# schedule stages, in the order they run
_COLLECT, _ROOT, _DISTRIBUTE, _READOUT = range(4)

# The last compiled :class:`_Schedule` and the design it was compiled for:
# (MAX_POTENTIAL_BYTES, founder prior bytes, structure of each family as
# bytes, distinct structure keys). It holds no family, evidence or buffer.
_last_schedule = (None, None)


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


def _pin_mask(pins):
    """Indicator table (n, 4) of the states each ``genotype_pin`` allows, or ``None``."""
    pinned = list(compress(range(len(pins)), pins))  # a pin is a non-empty tuple
    if not pinned:
        return None
    mask = np.ones((len(pins), N_STATES))
    mask[pinned] = 0.0
    states = list(compress(pins, pins))
    mask[np.repeat(pinned, list(map(len, states))), list(chain.from_iterable(states))] = 1.0
    return mask


def family_weights(families, marginals) -> list[dict]:
    """One mapping per family, individual id to :class:`PosteriorWeights`,
    from a flat (records, 4) marginal table in the families' record order."""
    w_pat, w_mat = genetics.origin_weights(marginals).tolist()
    w_zero = marginals[:, Genotype.NON_CARRIER].tolist()
    weights = list(map(PosteriorWeights, w_pat, w_mat, w_zero))
    mappings, offset = [], 0
    for fam in families:
        ids = fam.column("individual_id")
        mappings.append(dict(zip(ids, weights[offset:offset + len(ids)])))
        offset += len(fam)
    return mappings


def posterior_marginals(pedigree, params: ModelParams) -> MarginalResult:
    """Exact posterior genotype marginals for every family member.

    Returns the per-individual weights, the full (n, 4) marginal table in
    record order, and the log evidence of the observed data (up to the
    genotype-independent hazard factor omitted from affected penetrance).

    A lone family's buckets hold one column each, which numpy sums in
    another order than a batch, so the last bits may differ from those a
    :class:`MarginalEngine` of a larger cohort gives the same family, by up
    to about 3.3e-16.
    """
    engine = MarginalEngine([pedigree], params.q, params.epsilon, params.eta)
    marginals, log_evidence = engine.run(
        params.beta, params.gamma, params.cumulative_hazard(engine.ages)
    )
    return MarginalResult(
        weights=family_weights([pedigree], marginals)[0],
        marginals=marginals,
        log_evidence=float(log_evidence[0]),
    )


def brute_force_marginals(pedigree, params: ModelParams) -> MarginalResult:
    """Oracle marginals by enumerating all 4^n genotype configurations.

    Independent of the clique-tree machinery, down to its factors: evidence
    comes from the scalar :func:`genetics.evidence_factor`. Cost grows as
    4^n, so families larger than ``ENUMERATION_CAP`` members are rejected.
    """
    n = len(pedigree)
    if n > ENUMERATION_CAP:
        raise InferenceError(
            f"family {pedigree.family_id} has {n} members, above the "
            f"enumeration cap {ENUMERATION_CAP}"
        )
    pos = pedigree.position
    mask = _pin_mask(pedigree.column("genotype_pin"))
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


class _Forest:
    """One structure's junction forest, each tree rooted at its lowest
    clique, built from a structure key (see :meth:`Pedigree.structure_key`).
    :class:`_Forests` places the factors of a whole cohort's forests."""

    def __init__(self, key):
        tree = clique_tree(key)
        self.cliques = tree.cliques
        nc = len(self.cliques)
        self.ranks = [len(c) for c in self.cliques]
        parent, depth, order = [-1] * nc, [0] * nc, []
        seen = [False] * nc
        for root in range(nc):
            if seen[root]:
                continue
            seen[root] = True
            stack = [root]
            while stack:
                node = stack.pop()
                order.append(node)
                for nb in tree.neighbors(node):
                    if not seen[nb]:
                        seen[nb] = True
                        parent[nb] = node
                        depth[nb] = depth[node] + 1
                        stack.append(nb)
        height = [0] * nc
        for node in reversed(order):
            p = parent[node]
            if p >= 0 and height[p] <= height[node]:
                height[p] = height[node] + 1
        self.parent, self.depth, self.height = parent, depth, height


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
class _Priors:
    """The founder priors and transmission tables of one rank's cliques,
    read-only: the rank's distinct pattern ``tables``, stacked on a last
    axis, and the ``pattern`` of each row of its potential table, an index
    into them. ``runs`` holds the rows' runs of one pattern as (first row,
    end row, pattern) triples when there are at most ``_FEW_RUNS`` of them,
    and is ``None`` otherwise."""

    tables: np.ndarray
    pattern: np.ndarray
    runs: tuple | None


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
    read-out buckets the member ``targets``.
    """

    child: _Side
    parent: _Side | None = None
    slots: object = None  # as ``_Side.rows``
    norm: slice | None = None
    targets: np.ndarray | None = None


@dataclass(frozen=True)
class EngineStats:
    """Deterministic size counts of a compiled :class:`MarginalEngine`.

    ``collect_buckets`` and ``distribute_buckets`` count the batched steps of
    the two passes, ``readout_buckets`` those that read root totals and
    marginals from final beliefs, ``gathered_sides`` the bucket sides (the
    children and parents of both passes, and the read-outs) that address
    their cliques through an index array rather than a slice, and
    ``potential_bytes`` the size of one set of clique potential tables.
    ``structures`` counts the cohort's distinct structures.
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


def _sides(rows, bounds):
    """Each bucket's ``rows``, those between its ``bounds``: a slice when they
    are one ascending run, which reads a view instead of gathering a copy,
    and otherwise an index array, a read-only view of ``rows``."""
    rows.flags.writeable = False
    breaks = np.concatenate(([0], np.cumsum(rows[1:] - rows[:-1] != 1)))
    starts, ends = bounds[:-1], bounds[1:]
    runs = (breaks[ends - 1] == breaks[starts]).tolist()
    firsts = rows[starts].tolist()
    return [
        slice(first, first + end - start) if run else rows[start:end]
        for first, run, start, end in zip(firsts, runs, starts.tolist(), ends.tolist())
    ]


def _runs(rows, bounds):
    """:func:`_sides` of rows that the schedule lays out as one run per bucket."""
    sides = _sides(rows, bounds)
    assert all(isinstance(rows, slice) for rows in sides), "schedule rows are not one run"
    return sides


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
    if not isinstance(rows, slice) and _sums_first(rows):
        low, high = int(rows.min()), int(rows.max()) + 1
        summed = scratch(out.shape[:-1] + (high - low,))
        return [_reduce(table[..., low:high], sum_axes, summed),
                partial(summed.take, rows - low, -1, out, "clip")]
    columns, ops = _columns(table, rows, scratch)
    return ops + [_reduce(columns, sum_axes, out)]


def _columns(table, rows, scratch):
    """Batch columns ``rows`` of a batch-last ``table`` and the ops that
    fetch them: a view for a slice, which needs none, and otherwise a
    scratch array that they are taken into."""
    if isinstance(rows, slice):
        return table[..., rows], []
    columns = scratch(table.shape[:-1] + (len(rows),))
    return columns, [partial(table.take, rows, -1, columns, "clip")]


def _absorb(table, rows, factor, scratch):
    """Ops that multiply batch columns ``rows`` of a table by ``factor`` in
    place; gathered ``rows`` must not repeat a column."""
    columns, ops = _columns(table, rows, scratch)
    ops.append(partial(np.multiply, columns, factor, columns))
    if not isinstance(rows, slice):
        ops.append(partial(table.__setitem__, (Ellipsis, rows), columns))
    return ops


def _ones_for_zeros(table):
    """Op: each exact zero of ``table`` set to 1, so that a division by the
    table leaves the numerator as it is there."""
    return lambda: np.copyto(table, 1.0, where=table == 0.0)


def _scratch():
    """A pool of contiguous views of one flat buffer, reused by ops that run
    one after another. A request larger than the buffer moves the pool to a
    new one at least twice as large; views handed out before keep the old."""
    flat = np.empty(0)

    def view(shape):
        nonlocal flat
        size = math.prod(shape)
        if size > flat.size:
            flat = np.empty(max(2 * flat.size, size))
        return flat[:size].reshape(shape)

    return view


def _positions(order, table_of):
    """Row of each item within its table when the tables take the items in
    ``order``, which must list each table's items together."""
    rows = np.empty(len(table_of), dtype=_INDEX)
    tables = table_of[order]
    starts = np.flatnonzero(np.r_[True, tables[1:] != tables[:-1]])
    rows[order] = np.arange(len(order)) - np.repeat(starts, np.diff(np.r_[starts, len(order)]))
    return rows


@dataclass
class _Entries:
    """The buckets of one schedule stage, in bucket order: each bucket's
    layout, (rank, axes, other rank, other axes), and the clique and the
    other (parent clique or read-out record) of every entry, bucket by
    bucket; bucket ``b`` holds the entries from ``bounds[b]`` to
    ``bounds[b + 1]``."""

    layouts: list
    cliques: np.ndarray
    others: np.ndarray
    bounds: np.ndarray

    def bucket_of(self):
        """The bucket of each entry."""
        return np.repeat(np.arange(len(self.layouts), dtype=_INDEX), np.diff(self.bounds))

    def sort(self, rows):
        """Order each bucket's entries by the ``rows`` of their cliques, in place."""
        order = np.lexsort((rows[self.cliques], self.bucket_of()))
        self.cliques, self.others = self.cliques[order], self.others[order]


def _row_orders(rank_of, sep_of, stages):
    """Row of every clique in its rank and separator tables, one order for
    both passes and the read-outs, as (rank, separator) rows per clique id.

    ``stages`` holds each stage's :class:`_Entries`; the entries of the
    collect, distribute and read-out buckets are put in ascending row order.
    """
    # Each rank table takes its non-root cliques bucket by bucket in collect
    # order, then its roots. Collect buckets are placed by the first
    # distribute bucket they feed, and a bucket's cliques by their
    # distribute bucket, which keeps each distribute bucket's receivers
    # together too where the two partitions nest, as they do for a cohort
    # of one structure; elsewhere a distribute bucket gathers them. Ties
    # keep clique-id order.
    collect, roots, distribute, readout = stages
    received = np.full(len(rank_of), len(distribute.layouts), dtype=_INDEX)  # roots last
    received[distribute.cliques] = distribute.bucket_of()
    lead = received.copy()
    bucket_of = np.zeros(len(rank_of), dtype=_INDEX)
    in_collect = collect.bucket_of()
    bucket_of[collect.cliques] = in_collect
    lead[collect.cliques] = np.minimum.reduceat(
        received[collect.cliques], collect.bounds[:-1]
    )[in_collect]
    bucket_of[roots.cliques] = len(collect.layouts) + roots.bucket_of()
    rank_row = _positions(np.lexsort((received, bucket_of, lead, rank_of)), rank_of)
    for part in (collect, distribute, readout):
        part.sort(rank_row)
    # each separator table follows the rank tables' order
    edge = np.flatnonzero(sep_of > 0)
    sep_row = np.zeros(len(sep_of), dtype=_INDEX)
    sep_row[edge] = _positions(
        np.lexsort((rank_row[edge], rank_of[edge], sep_of[edge])), sep_of[edge]
    )
    return rank_row, sep_row


def _find(codes, queries):
    """Position of each of the ``queries`` in the ascending ``codes``, and
    whether it is there."""
    at = np.minimum(np.searchsorted(codes, queries), len(codes) - 1)
    return at, codes[at] == queries


class _Forests:
    """The forests of a cohort's structures, laid end to end, with their
    factors placed; :meth:`entries` lays the cohort's families out on them.

    Per clique of each group's forest, group by group: its ``rank``, its
    ``parent`` (an index into these arrays, -1 for a root), ``depth`` and
    ``height``, the masks of its separator with the parent (``inside`` over
    its own axes, ``outside`` over the parent's, both empty for a root), and
    its ``pattern``, an index into ``patterns[rank]``. Per member of
    each group's structure, group by group: the clique and the axis it is
    read out from (``read_clique``, ``read_axis``), the lowest clique
    holding it; the clique holding its founder prior or transmission table
    (``factor_clique``), the lowest clique holding its scope; and that
    factor's axes, (a, -1, -1) or (father, mother, child). A group is a
    structure: ``keys`` holds their structure keys and ``forests`` their
    :class:`_Forest`.
    """

    def __init__(self, keys, forests):
        self.forests = forests
        self.cliques_per = cliques_per = np.array([len(forest.ranks) for forest in forests],
                                                  dtype=_INDEX)
        n_cliques = int(cliques_per.sum())
        self.group = np.repeat(np.arange(len(keys), dtype=_INDEX), cliques_per)
        start = np.cumsum(cliques_per, dtype=_INDEX) - cliques_per  # of each group
        self.local = np.arange(n_cliques, dtype=_INDEX) - start[self.group]

        def column(values, count):
            return np.fromiter(chain.from_iterable(values), _INDEX, count)

        self.rank = column((forest.ranks for forest in forests), n_cliques)
        self.depth = column((forest.depth for forest in forests), n_cliques)
        self.height = column((forest.height for forest in forests), n_cliques)
        parent = column((forest.parent for forest in forests), n_cliques)
        self.parent = np.where(parent < 0, -1, parent + start[self.group])
        self.width = width = int(self.rank.max(initial=0))

        # Every (clique, member) pair, clique by clique; members are numbered
        # group by group, so the pairs' codes ascend.
        member_count = np.array([len(key) for key in keys], dtype=_INDEX)
        n_members = int(member_count.sum())
        member_start = np.cumsum(member_count) - member_count
        member_group = np.repeat(np.arange(len(keys)), member_count)
        self.read_member = np.arange(n_members, dtype=_INDEX) - member_start[member_group]
        rows = np.repeat(np.arange(n_cliques), self.rank)
        slots = np.arange(len(rows)) - (np.cumsum(self.rank) - self.rank)[rows]
        held = column((chain.from_iterable(forest.cliques) for forest in forests), len(rows))
        held = held + member_start[self.group[rows]]
        codes = rows * n_members + held

        # the separator with the parent: the members a clique shares with it
        at, shared = _find(codes, self.parent[rows].astype(np.int64) * n_members + held)
        self.inside = np.zeros((n_cliques, width), dtype=bool)
        self.inside[rows, slots] = shared
        self.outside = np.zeros((n_cliques, width), dtype=bool)
        self.outside[rows[shared], slots[at[shared]]] = True

        by_member = np.lexsort((rows, held))  # each member's cliques, lowest first
        lowest = by_member[np.flatnonzero(np.diff(held[by_member], prepend=-1))]
        self.read_clique = rows[lowest].astype(_INDEX)
        self.read_axis = slots[lowest].astype(_INDEX)

        parents = column(chain.from_iterable(keys), 2 * n_members).reshape(-1, 2)
        child = parents[:, 0] >= 0
        parents = parents + member_start[member_group, None]
        self.factor_clique = self.read_clique.copy()
        self.factor_axes = np.full((n_members, 3), -1, dtype=_INDEX)
        self.factor_axes[:, 0] = self.read_axis
        # a child's cliques, lowest first, that hold both its parents too
        pairs = by_member[child[held[by_member]]]
        at_f, has_f = _find(codes, rows[pairs] * n_members + parents[held[pairs], 0])
        at_m, has_m = _find(codes, rows[pairs] * n_members + parents[held[pairs], 1])
        keep = np.flatnonzero(has_f & has_m)
        keep = keep[np.flatnonzero(np.diff(held[pairs[keep]], prepend=-1))]
        self.factor_clique[child] = rows[pairs[keep]]
        self.factor_axes[child] = np.stack(
            [slots[at_f[keep]], slots[at_m[keep]], slots[pairs[keep]]], axis=1
        )

        # Each clique's factors as sorted codes whose order is the order of
        # the axes tuples, one row per clique; equal (rank, row) pairs share
        # a pattern, numbered per rank in order of first appearance.
        base = width + 1
        code = (self.factor_axes[:, 0] * base + self.factor_axes[:, 1] + 1) * base
        code += self.factor_axes[:, 2] + 1
        order = np.lexsort((code, self.factor_clique))
        clique = self.factor_clique[order]
        placed = np.full((n_cliques, width + 1), -1, dtype=np.int64)
        placed[:, 0] = self.rank
        counts = np.bincount(clique, minlength=n_cliques)
        placed[clique, np.arange(len(clique)) + 1 - (np.cumsum(counts) - counts)[clique]] = (
            code[order]
        )
        order = np.lexsort(placed.T[::-1])
        placed = placed[order]
        new = np.diff(placed, axis=0, prepend=-1).any(1)
        heads = np.flatnonzero(new)
        which = np.empty(n_cliques, dtype=np.intp)
        which[order] = np.cumsum(new) - 1
        index = np.empty(len(heads), dtype=_INDEX)
        self.patterns: dict[int, list] = {}
        first = np.minimum.reduceat(order, heads) if len(heads) else heads
        for u in np.argsort(first).tolist():
            rank, *factors = placed[heads[u]].tolist()
            known = self.patterns.setdefault(rank, [])
            index[u] = len(known)
            known.append(tuple(
                (c // base // base,) if c // base % base == 0
                else (c // base // base, c // base % base - 1, c % base - 1)
                for c in factors if c >= 0
            ))
        self.pattern = index[which]

    def _layouts(self, edges):
        """Each edge's layout, (rank, axes, other rank, other axes), as its
        rank among the distinct layouts, and those layouts in order."""
        width = self.width
        bits = 1 << np.arange(width, dtype=np.int64)
        parent = self.parent[edges]
        code = self.rank[edges].astype(np.int64)
        for part in ((self.inside[edges] * bits).sum(1), self.rank[parent],
                     (self.outside[edges] * bits).sum(1)):
            code = code << width + 1 | part
        distinct, which = np.unique(code, return_inverse=True)
        mask = (1 << width + 1) - 1
        layouts = [
            (c >> 3 * width + 3, tuple(a for a in range(width) if c >> 2 * width + 2 + a & 1),
             c >> width + 1 & mask, tuple(a for a in range(width) if c >> a & 1))
            for c in distinct.tolist()
        ]
        order = sorted(range(len(layouts)), key=layouts.__getitem__)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return rank[which.reshape(-1)], [layouts[i] for i in order]

    def _steps(self):
        """The schedule steps of every group in bucket order, with the
        layouts.

        A bucket key is (stage, level, ordinal, layout). A collect or
        distribute step carries an edge's child clique and its parent, at
        the child's height or depth; ``ordinal`` splits siblings with equal
        keys, so that no collect bucket multiplies into one parent twice. A
        root step carries the root, a read-out step the clique and the
        member read out. Buckets run in key order, the layout compared by
        value.
        """
        edges = np.flatnonzero(self.parent >= 0)
        roots = np.flatnonzero(self.parent < 0)
        parent = self.parent[edges]
        height = self.height[edges]
        layout, layouts = self._layouts(edges)
        # the ordinal of each edge among the lower edges of its (parent,
        # height, layout)
        slot = (parent.astype(np.int64) * (len(self.rank) + 1) + height) * len(layouts) + layout
        ordinal = _positions(np.argsort(slot, kind="stable"), slot)
        width = self.width
        edge_zeros, root_zeros = np.zeros_like(edges), np.zeros_like(roots)
        read_zeros = np.zeros_like(self.read_clique)
        steps = np.concatenate([  # stage, level, ordinal, layout, clique, other
            np.stack([edge_zeros + _COLLECT, height, ordinal, layout, edges, parent]),
            np.stack([root_zeros + _ROOT, root_zeros, root_zeros, self.rank[roots], roots, roots]),
            np.stack([edge_zeros + _DISTRIBUTE, self.depth[edges], edge_zeros, layout, edges,
                      parent]),
            np.stack([read_zeros + _READOUT, read_zeros, read_zeros,
                      self.rank[self.read_clique] * width + self.read_axis, self.read_clique,
                      self.read_member]),
        ], axis=1)
        return steps[:, np.lexsort(steps[3::-1])], layouts

    def entries(self, groups, record_offsets):
        """The :class:`_Entries` of the four stages, in stage order, of a
        schedule of the families ``groups`` holds per group, each group
        holding at least one: each step once per family of its group (see
        :meth:`_steps`). ``record_offsets`` holds each family's first record.
        """
        sizes = np.array([len(families) for families in groups], dtype=_INDEX)
        steps, layouts = self._steps()
        heads = np.flatnonzero(np.diff(steps[:4], prepend=-1).any(0))  # each bucket's first step
        width = self.width

        # One entry per (step, family of the step's group): in the ``k``-th
        # family of group ``g``, clique ``c`` of the forest is clique id
        # ``first[g] + c * sizes[g] + k``.
        group = self.group[steps[4]]
        counts = sizes[group]
        starts = np.cumsum(counts) - counts
        fam = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        ids = sizes * self.cliques_per  # clique ids per group
        first = (np.cumsum(ids) - ids)[group]
        cliques = np.repeat(first + self.local[steps[4]] * counts, counts) + fam
        bounds = np.append(starts[heads], len(fam))
        step_bounds = np.append(heads, len(counts))
        stage_of = np.searchsorted(steps[0][heads], np.arange(5))  # first bucket of each stage
        keys = steps[3][heads].tolist()
        entries = []
        for stage in range(4):
            b, end = stage_of[stage], stage_of[stage + 1]
            lo, hi = bounds[b], bounds[end]
            part = slice(step_bounds[b], step_bounds[end])
            other, repeats = steps[5][part], counts[part]
            if stage == _READOUT:
                grouped = np.fromiter(chain.from_iterable(groups), _INDEX, int(sizes.sum()))
                group_start = np.cumsum(sizes) - sizes  # of each group in ``grouped``
                families = grouped[np.repeat(group_start[group[part]], repeats) + fam[lo:hi]]
                others = record_offsets[families] + np.repeat(other.astype(_INDEX), repeats)
                layouts_of = [(k // width, (k % width,), 0, ()) for k in keys[b:end]]
            else:
                others = np.repeat(first[part] + self.local[other] * repeats, repeats) + fam[lo:hi]
                layouts_of = ([(k, (), 0, ()) for k in keys[b:end]] if stage == _ROOT
                              else [layouts[k] for k in keys[b:end]])
            entries.append(_Entries(layouts_of, cliques[lo:hi], others, bounds[b:end + 1] - lo))
        return entries


class _Schedule:
    """A cohort's compiled schedule: its buckets, the evidence gather of each
    rank, the :class:`_Priors` of each rank, the sizes of the buffers that
    an engine binds it to (see the module docstring) and its
    :class:`EngineStats`. Every array it holds is read-only, so that engines
    of one design can share it, and it holds a prior table per pattern, not
    per clique.

    ``keys`` holds the cohort's distinct structure keys, in order of first
    appearance, ``family_ids`` the first family of each (named when its
    tables exceed the budget) and ``structure_of`` each family's index into
    ``keys``. The pattern tables fold in the founder ``prior``. The evidence
    gathers read columns of the cohort's evidence table, whose last column
    holds ones.
    """

    def __init__(self, keys, family_ids, structure_of, prior):
        forests, largest = [], (0, None)
        for key, family_id in zip(keys, family_ids):
            forest = _Forest(key)
            k_max = max(forest.ranks)
            if N_STATES ** k_max * _FLOAT_BYTES > MAX_POTENTIAL_BYTES:
                raise InferenceError(
                    f"family {family_id}: its junction tree has a "
                    f"clique of {k_max} members, whose {N_STATES}^{k_max}-entry table "
                    f"exceeds the {MAX_POTENTIAL_BYTES}-byte potential budget"
                )
            if k_max > largest[0]:
                largest = (k_max, family_id)
            forests.append(forest)
        table_bytes = np.array(
            [sum(N_STATES ** rank for rank in forest.ranks) for forest in forests], dtype=np.int64
        ) * _FLOAT_BYTES
        potential_bytes = int(table_bytes[structure_of].sum())
        if potential_bytes > MAX_POTENTIAL_BYTES:
            raise InferenceError(
                f"the cohort's clique potential tables need {potential_bytes} bytes, "
                f"above the {MAX_POTENTIAL_BYTES}-byte budget (largest clique: "
                f"{largest[0]} members, family {largest[1]})"
            )
        cohort = _Forests(keys, forests)
        sizes = np.array([len(key) for key in keys], dtype=_INDEX)[structure_of]
        offsets = (np.cumsum(sizes) - sizes).astype(_INDEX)
        ones = int(sizes.sum())  # the evidence table's column of ones
        groups = [[] for _ in forests]  # the families of each structure
        for fi, s in enumerate(structure_of.tolist()):
            groups[s].append(fi)
        fam_of = []  # the family of each clique id
        for forest, group in zip(forests, groups):
            fam_of += group * len(forest.ranks)

        # Clique ids run group by group, then clique by clique: the order in
        # which per-family results (the log evidence) are summed.
        repeats = np.array([len(group) for group in groups], dtype=_INDEX)[cohort.group]
        rank_of, sep_of, pattern_of = (
            np.repeat(v.astype(_INDEX), repeats)
            for v in (cohort.rank, cohort.inside.sum(1), cohort.pattern)
        )
        self.cliques = n_cliques = len(rank_of)
        self.clique_family = np.asarray(fam_of, dtype=_INDEX)
        entries = cohort.entries(groups, offsets)
        rank_row, sep_row = _row_orders(rank_of, sep_of, entries)

        # Collect and root buckets write their cliques' totals in bucket
        # order; log evidence sums them per family in clique-id order.
        collect, roots, distribute, readout = entries
        self.norm_of_clique = np.empty(n_cliques, dtype=_INDEX)
        self.norm_of_clique[np.concatenate((collect.cliques, roots.cliques))] = np.arange(
            n_cliques, dtype=_INDEX
        )
        self.clique_family.flags.writeable = self.norm_of_clique.flags.writeable = False
        kept: dict[tuple, tuple] = {}  # (rank, kept axes) -> (summed axes, separator shape)

        def side(rows, rank, keep):
            if (rank, keep) not in kept:
                kept[rank, keep] = (tuple(a for a in range(rank) if a not in keep),
                                    _axes_shape(keep, rank, (-1,)))
            return _Side(rank, rows, *kept[rank, keep])

        def spans(part):
            return zip(part.layouts, part.bounds[:-1].tolist(), part.bounds[1:].tolist())

        stages = ([], [], [], [])
        for ((rank, axes, other_rank, other_axes), lo, hi), child, parent, slots in zip(
            spans(collect), _runs(rank_row[collect.cliques], collect.bounds),
            _sides(rank_row[collect.others], collect.bounds),
            _runs(sep_row[collect.cliques], collect.bounds),
        ):
            stages[_COLLECT].append(_Bucket(side(child, rank, axes),
                                            side(parent, other_rank, other_axes),
                                            slots=slots, norm=slice(lo, hi)))
        start = len(collect.cliques)
        for ((rank, *_), lo, hi), child in zip(
            spans(roots), _runs(rank_row[roots.cliques], roots.bounds)
        ):
            stages[_ROOT].append(_Bucket(side(child, rank, ()),
                                         norm=slice(start + lo, start + hi)))
        for ((rank, axes, other_rank, other_axes), _, _), child, parent, slots in zip(
            spans(distribute), _sides(rank_row[distribute.cliques], distribute.bounds),
            _sides(rank_row[distribute.others], distribute.bounds),
            _sides(sep_row[distribute.cliques], distribute.bounds),
        ):
            stages[_DISTRIBUTE].append(_Bucket(side(child, rank, axes),
                                               side(parent, other_rank, other_axes),
                                               slots=slots))
        evidence = {int(rank): {} for rank in np.unique(rank_of)}
        rows = rank_row[readout.cliques]
        readout.others.flags.writeable = False  # the targets are its views
        for ((rank, axes, _, _), lo, hi), child in zip(
            spans(readout), _sides(rows, readout.bounds)
        ):
            targets = readout.others[lo:hi]
            evidence[rank].setdefault(axes[0], []).append((rows[lo:hi], targets))
            stages[_READOUT].append(_Bucket(side(child, rank, axes), targets=targets))
        self.stages = stages

        # Each member's evidence sits on its read-out axis; the ``ones``
        # column of the evidence table serves every other axis. A rank's
        # few pattern tables hold its cliques' founder priors and
        # transmission tables, which each row finds by its pattern.
        self.evidence, self.priors = {}, {}
        for rank, by_axis in evidence.items():
            members = rank_of == rank
            count = int(members.sum())
            self.evidence[rank] = []
            for axis in sorted(by_axis):
                index = np.full(count, ones, dtype=_INDEX)
                for rows, targets in by_axis[axis]:
                    index[rows] = targets
                self.evidence[rank].append((axis, index))
                index.flags.writeable = False
            pattern = np.empty(count, dtype=_INDEX)
            pattern[rank_row[members]] = pattern_of[members]
            tables = np.stack([_pattern_table(rank, f, prior) for f in cohort.patterns[rank]], -1)
            tables.flags.writeable = pattern.flags.writeable = False
            starts = np.flatnonzero(np.diff(pattern, prepend=-1))
            runs = None
            if len(starts) <= _FEW_RUNS:
                runs = tuple(zip(starts.tolist(), np.append(starts[1:], count).tolist(),
                                 pattern[starts].tolist()))
            self.priors[rank] = _Priors(tables, pattern, runs)
        self.separators = {  # collected messages per separator size
            int(size): int(np.sum(sep_of == size)) for size in np.unique(sep_of[sep_of > 0])
        }
        self.stats = EngineStats(
            families=len(structure_of),
            structures=len(forests),
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


class MarginalEngine:
    """Batched posterior-marginal evaluator reused across EM iterations,
    compiled for one model: the allele frequency ``q`` and the gene-test
    error rates ``epsilon`` and ``eta``, which a fit treats as known, go
    into the pattern tables and the records' :class:`genetics.FixedEvidence`
    when it is built (``ValueError`` when ``q`` lies outside [0, 1] or a
    rate outside [0, 1)), so that a run takes only what EM estimates.

    Compiles the junction forests of all families into one bucketed
    two-pass schedule and binds it into a list of numpy operations on the
    engine's own buffers (see the module docstring); a run checks its
    inputs, computes the evidence for the whole cohort, writes the
    potentials from the pattern tables and the evidence, and runs the
    operations. Its potentials are the only table of their size that the
    engine holds. A record with a ``genotype_pin`` takes only its pinned
    states. :attr:`stats` reports the schedule's size.

    The module keeps the last compiled schedule, which holds no family,
    evidence or buffer, keyed by the cohort's structures, ``q`` and
    ``MAX_POTENTIAL_BYTES``. An engine of the same design reuses it and only
    binds it to buffers of its own: the fits of a study case and repeated
    library fits of one design hit, while a CLI ``fit`` and a cycle of
    cohorts of distinct designs (the ``hetero_fit`` benchmark) compile each
    engine. Results do not depend on whether the schedule was reused.
    ``ages``, ``statuses``, ``covariates`` and ``suppressed`` are the record
    columns in global record order.

    Raises :class:`InferenceError` when a family's largest clique table, or
    all potential tables together, would exceed ``MAX_POTENTIAL_BYTES``.
    """

    def __init__(self, families, q, epsilon, eta):
        self.families = list(families)
        *self.offsets, total = accumulate(map(len, self.families), initial=0)
        self.total = total

        cov_len = self.families[0].covariate_count if self.families else 0
        if any(fam.covariate_count != cov_len for fam in self.families):
            raise InferenceError(
                "families carry different covariate counts; cannot fit jointly"
            )

        def values(name):
            return chain.from_iterable(fam.column(name) for fam in self.families)

        self.ages = np.fromiter(values("age"), float, total)
        self.statuses = np.fromiter(values("status"), int, total)
        self.suppressed = np.fromiter(values("phenotype_suppressed"), bool, total)
        self.covariates = np.fromiter(  # reads no record when there are no covariates
            chain.from_iterable(values("covariates")), float, total * cov_len
        ).reshape(total, cov_len)
        tests = list(values("gene_test"))
        untested = tests.count(None)
        if untested in (0, total):  # all tested or none: no per-record loop
            gene_test = np.array(tests, dtype=int) if untested == 0 else np.full(total, -1)
        else:
            gene_test = [-1 if test is None else test for test in tests]
        self._fixed = genetics.FixedEvidence(
            self.statuses, gene_test, self.covariates, epsilon, eta, self.suppressed,
            _pin_mask(list(values("genotype_pin"))),
        )
        self._compile(genetics.founder_prior(q))

    def _compile(self, prior):
        global _last_schedule
        # each structure's key and first family, and the structure of each family
        index, keys, family_ids = {}, [], []
        structure_of = np.empty(len(self.families), dtype=_INDEX)
        for fi, fam in enumerate(self.families):
            key = fam.structure_key()
            structure_of[fi] = s = index.setdefault(key, len(keys))
            if s == len(keys):
                keys.append(key)
                family_ids.append(fam.family_id)
        # everything the compile reads
        design = (MAX_POTENTIAL_BYTES, prior.tobytes(), structure_of.tobytes(), keys)
        compiled, schedule = _last_schedule
        if compiled != design:
            _last_schedule = (None, None)  # the last schedule goes before this one is built
            schedule = _Schedule(keys, family_ids, structure_of, prior)
            _last_schedule = (design, schedule)
        self._schedule, self.stats = schedule, schedule.stats
        # the evidence of every record, and a last column of ones
        self._phi = np.ones((N_STATES, self.total + 1))
        # Each run writes the evidence's gather per rank, the potentials,
        # the collected messages and the normalizers into these buffers
        # before it reads them.
        self._pots, self._gathered = {}, {}
        for rank, priors in schedule.priors.items():
            rows = len(priors.pattern)
            self._pots[rank] = np.empty((N_STATES,) * rank + (rows,))
            self._gathered[rank] = np.empty((N_STATES, rows))
        self._collected = {
            size: np.empty((N_STATES,) * size + (count,))
            for size, count in schedule.separators.items()
        }
        self._norm = np.empty(schedule.cliques)
        self._ops = self._bind([_scratch() for _ in range(3)])

    def _bind(self, scratch):
        """The ops of a run, with every view of the engine's buffers bound:
        the potentials, the collect pass with the roots, the distribute pass,
        and per read-out bucket its ops, member rows and marginal.
        ``scratch`` hands out the temporaries that ops reuse: gathered or
        summed rows, messages and marginals, and their totals; a gathered
        row temporary is dead before the next one is written."""
        rows_of, messages, totals = scratch
        pots, collected, norm = self._pots, self._collected, self._norm
        schedule = self._schedule
        potentials = []
        for rank, pot in pots.items():
            gathered, priors = self._gathered[rank], schedule.priors[rank]
            tables = priors.tables
            factors = [
                (partial(self._phi.take, index, 1, gathered, "clip"),
                 gathered.reshape(_axes_shape((axis,), rank, (-1,))))
                for axis, index in schedule.evidence[rank]
            ]
            if priors.runs is None or not factors:
                # each row's pattern table taken into place
                potentials.append(partial(tables.take, priors.pattern, -1, pot, "clip"))
            else:
                # each run's pattern table broadcast over its rows, times the
                # first factor
                (fetch, factor), *factors = factors
                potentials.append(fetch)
                potentials += [
                    partial(np.multiply, tables[..., p:p + 1], factor[..., lo:hi], pot[..., lo:hi])
                    for lo, hi, p in priors.runs
                ]
            for fetch, factor in factors:
                potentials += [fetch, partial(np.multiply, pot, factor, pot)]

        collect, roots, distribute, readouts = schedule.stages
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

        distributing = [_ones_for_zeros(table) for table in collected.values()]
        for bucket in distribute:
            child, parent = bucket.child, bucket.parent
            table = collected[child.rank - len(child.sum_axes)]
            sent, fetch = _columns(table, bucket.slots, rows_of)
            msg, total = messages(sent.shape), totals(sent.shape[-1:])
            distributing += [
                *_read(pots[parent.rank], parent.rows, parent.sum_axes, msg, rows_of),
                *fetch,
                partial(np.divide, msg, sent, msg),
                _reduce(msg.reshape(-1, msg.shape[-1]), 0, total),
                partial(np.divide, msg, total, msg),
                *_absorb(pots[child.rank], child.rows, msg.reshape(child.shape), rows_of),
            ]

        reading = []
        for bucket in readouts:
            child, count = bucket.child, len(bucket.targets)
            marginal, total = messages((N_STATES, count)), totals((count,))
            ops = _read(pots[child.rank], child.rows, child.sum_axes, marginal, rows_of)
            ops += [_reduce(marginal, 0, total), partial(np.divide, marginal, total, marginal)]
            reading.append((ops, bucket.targets, marginal.T))
        return potentials, collecting, distributing, reading

    def run(self, beta, gamma, cumulative_hazard):
        """Marginals (total, 4) in global record order plus per-family log
        evidence, at origin effect ``beta``, covariate effects ``gamma`` and
        each record's baseline ``cumulative_hazard`` at its age.

        Raises ``ValueError`` when exp(``beta``) is not a positive finite
        float, ``gamma`` does not hold one effect per covariate of the
        records or a hazard is negative or not finite, before any evidence
        is computed, and :class:`ZeroEvidenceError`, naming the family, when
        a family's observed data has zero probability.
        """
        genetics._check_beta(beta)
        hazards = self._fixed.hazards(cumulative_hazard, gamma)
        marginals = np.empty((self.total, N_STATES))
        schedule, norm = self._schedule, self._norm
        potentials, collect, distribute, readouts = self._ops
        bufsize = np.setbufsize(_BUFSIZE)
        try:
            self._fixed.fill(hazards, beta, gamma, self._phi[:, :-1])
            for op in potentials:
                op()
            # Collect: each child's belief, summed to the separator,
            # multiplies into its parent's. A root's total is then its
            # tree's evidence. A zero total spreads NaN through its own
            # family's columns only, and is caught once both stages are done.
            with np.errstate(divide="ignore", invalid="ignore"):
                for op in collect:
                    op()
            failed = ~(norm > 0)
            if failed.any():
                clique = np.flatnonzero(schedule.norm_of_clique == np.argmax(failed))[0]
                raise ZeroEvidenceError(self.families[schedule.clique_family[clique]].family_id)
            # Distribute: the parent's final belief on the separator, divided
            # by the message it collected from the child. Where that message
            # is 0, so is the parent's marginal; the pass first sets those
            # zeros to 1, so the quotient is left at 0 there. The quotient's
            # total is positive since the parent's total is.
            for op in distribute:
                op()
            for ops, targets, marginal in readouts:
                for op in ops:
                    op()
                marginals[targets] = marginal
            log_evidence = np.bincount(
                schedule.clique_family, weights=np.log(norm)[schedule.norm_of_clique],
                minlength=len(self.families),
            )
        finally:
            np.setbufsize(bufsize)
        return marginals, log_evidence
