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

Compiling ends in a list of operations, numpy calls with views of the
engine's buffers bound. A collect bucket sums its children straight into
their slots of the collected-message table, normalizes them there and
multiplies them into the parents; distribute buckets and read-outs work in
scratch buffers that later operations reuse. A run thus makes no per-bucket
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
error rates: its static potentials fold in the founder priors and
transmission tables, and the evidence parts that a new hazard leaves alone
are built with it, so a run, given the origin and covariate effects and
each record's cumulative hazard, computes only the hazard-dependent
evidence. Marginals are read from each clique's final belief.
:func:`posterior_marginals` is the one-family case of the same engine.

A cohort is compiled as two shards when its potential tables come to more
than ``SHARD_BUCKET_BYTES`` per bucket of its one-shard schedule: contiguous
ranges of families of about equal table size, each with its own buckets,
tables, scratch and ops, laid out from the structures' forests that the
shards share. A run computes the evidence once on the calling thread, then
runs the first shard's ops there while a helper thread runs the second's;
numpy releases the GIL inside each operation, so the shards use two CPUs.
A helper that has not started by the time the first shard is done leaves
the second to the calling thread. Both write their own rows of one marginal
table and one log-evidence vector, in place. With one usable CPU, and in
the workers of a process pool (``--jobs``), which keep the CPUs busy
already, the shards run one after the other. The shard plan depends on the
cohort alone, so results do not depend on the CPU count. On a cohort of one
structure two shards give a one-shard engine's bits; elsewhere a bucket may
batch fewer columns in a shard, which may move the last bits within the
bound documented on :func:`posterior_marginals`.

The threshold is per bucket because a second schedule repeats every
bucket's operations, whose cost grows with the bucket count, while the
second CPU takes half of the work, which grows with the table size. Timed
on 2 CPUs, a two-shard E-step broke even at about 137 KiB per bucket on
cohorts of one ten-member template (1.6 MiB of tables in 12 buckets, 550
families) and was a third faster at 2000 families; on cohorts of
heterogeneous looped families it broke even at about 38 KiB per bucket
(4.3 MiB in some 115 buckets, 550 families) and was 45% faster at 2000
families. The threshold sits above the larger break-even, so sharding makes
neither kind slower; heterogeneous cohorts are split only from about 2500
families.

A brute-force enumerator over all 4^n genotype configurations, with its own
scalar factor construction, serves as an independent oracle for small
families.
"""

from __future__ import annotations

import _thread
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain

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
    "SHARD_BUCKET_BYTES",
]

DEFAULT_ENUMERATION_CAP = 12

#: Budget for the clique potential tables, checked before any is allocated:
#: for a single clique and for the whole cohort. Between runs an engine holds
#: two tables of that size: the static tables and the potentials each run
#: multiplies the evidence into. Beside them it keeps the collected messages,
#: the evidence with its gather per rank, the normalizers, and per shard
#: scratch pools, each under four times its largest request: a pool doubles
#: when a request outgrows it, and ops bound before keep the smaller buffers.
#: A run adds only its evidence temporaries, per shard the zero mask of one
#: collected-message table at a time, and the tables it returns.
MAX_POTENTIAL_BYTES = 2 ** 30

#: Potential-table bytes per bucket of a cohort's schedule above which the
#: cohort is compiled as two shards, which a run can put on two CPUs (see
#: the module docstring for how it was measured). Below it the second
#: schedule's operations and the thread cost more than they gain.
SHARD_BUCKET_BYTES = 160 * 2 ** 10

#: numpy's ufunc buffer size, in entries, while a shard's ops run. At the
#: default of 8192, numpy copies a strided operand of a broadcast operation
#: through its buffers when the batch axis holds at most a quarter of that,
#: which made the in-place products of buckets of up to 2048 columns about
#: three times slower per entry; at 1024 only buckets of up to 256 columns
#: take that path. Reductions, products and quotients give the same bits.
_BUFSIZE = 1024

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
    pins = [rec.genotype_pin for rec in records]
    pinned = [i for i, pin in enumerate(pins) if pin is not None]
    if not pinned:
        return None
    mask = np.ones((len(records), N_STATES))
    mask[pinned] = 0.0
    states = [pins[i] for i in pinned]
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
        ids = (rec.individual_id for rec in fam)
        mappings.append(dict(zip(ids, weights[offset:offset + len(fam)])))
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
    their cliques through an index array rather than a slice,
    ``potential_bytes`` the size of one set of clique potential tables, and
    ``shards`` the number of schedules the cohort is compiled into (see
    :class:`MarginalEngine`). ``structures`` counts the cohort's distinct
    structures; the clique and bucket counts sum over the shards.
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
    shards: int = 1


def _sides(rows, bounds):
    """Each bucket's ``rows``, those between its ``bounds``: a slice when they
    are one ascending run, which reads a view instead of gathering a copy,
    and otherwise an index array."""
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
    factors placed; the shards of the cohort share them, each laying its own
    families out with :meth:`entries`.

    Per clique of each group's forest, group by group: its ``rank``, its
    ``parent`` (an index into these arrays, -1 for a root), ``depth`` and
    ``height``, the masks of its separator with the parent (``inside`` over
    its own axes, ``outside`` over the parent's, both empty for a root), and
    its static ``pattern``, an index into ``patterns[rank]``. Per member of
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

    @cached_property
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

    def bucket_count(self):
        """How many buckets a schedule of every group has."""
        steps = self._steps[0]
        return int(np.diff(steps[:4], prepend=-1).any(0).sum())

    def entries(self, groups, record_offsets):
        """The :class:`_Entries` of the four stages, in stage order, of a
        schedule of the families ``groups`` holds per group: each step once
        per family of its group (see :meth:`_steps`). ``record_offsets``
        holds each family's first record.
        """
        sizes = np.array([len(families) for families in groups], dtype=_INDEX)
        steps, layouts = self._steps
        if not sizes.all():
            steps = steps[:, sizes[self.group[steps[4]]] > 0]
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


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _in_worker():
    """Whether this process is a worker started by :mod:`multiprocessing`,
    which such a worker has imported; other processes are spared the
    import."""
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is not None and multiprocessing.parent_process() is not None


def _run_claimed(shard, args, claim, done, failed):
    """The helper thread of :func:`_run_shards`: run ``shard`` unless the
    calling thread has claimed it, and release ``done`` after."""
    if not claim.acquire(blocking=False):
        return
    try:
        shard.run(*args)
    except BaseException as err:  # re-raised on the calling thread
        failed.append(err)
    finally:
        done.release()


def _run_shards(shards, *args):
    """``shard.run(*args)`` for each shard.

    With two CPUs usable outside a process pool, a helper thread is started
    for the second shard while the calling thread runs the first, and the
    second goes to whichever thread claims it first: the calling thread does
    not wait for the helper to start, so a helper that starts late costs a
    run no more than running the shards one after the other. Otherwise they
    run one after the other: the workers of a process pool keep the CPUs
    busy already. A shard's error is raised once no shard runs; when both
    fail, the first shard's error wins.
    """
    if len(shards) == 1 or _usable_cpus() < 2 or _in_worker():
        for shard in shards:
            shard.run(*args)
        return
    first, second = shards
    claim, done, failed = _thread.allocate_lock(), _thread.allocate_lock(), []
    done.acquire()
    _thread.start_new_thread(_run_claimed, (second, args, claim, done, failed))
    try:
        first.run(*args)
    finally:
        helped = not claim.acquire(blocking=False)
        if helped:  # wait for the helper to finish the second shard
            done.acquire()
    if not helped:
        second.run(*args)
    elif failed:
        raise failed[0]


class _Shard:
    """A contiguous range of a cohort's families compiled into its own
    schedule: buckets, potential and message tables, scratch pools and bound
    ops (see the module docstring).

    ``families`` are the shard's, with their ``structures`` (indices into
    the groups of the ``cohort``'s :class:`_Forests`) and first records
    ``offsets`` in the cohort, and ``first`` is the cohort index of the
    first. Its static tables fold in the founder ``prior``. Its ops read
    evidence columns of the cohort's ``phi`` and write the shard's own rows
    of the cohort's marginal table and log evidence, so that shards can run
    at once.
    """

    def __init__(self, families, structures, cohort, offsets, first, phi, prior):
        self.families, self.first, self._phi = families, first, phi
        groups = [[] for _ in cohort.forests]  # the shard's families of each structure
        for fi, s in enumerate(structures.tolist()):
            groups[s].append(fi)
        fam_of = []  # the family of each clique id
        for forest, group in zip(cohort.forests, groups):
            fam_of += group * len(forest.ranks)

        # Clique ids run group by group, then clique by clique: the order in
        # which per-family results (the log evidence) are summed.
        repeats = np.array([len(group) for group in groups], dtype=_INDEX)[cohort.group]
        rank_of, sep_of, pattern_of = (
            np.repeat(v.astype(_INDEX), repeats)
            for v in (cohort.rank, cohort.inside.sum(1), cohort.pattern)
        )
        n_cliques = len(rank_of)
        self._clique_family = np.asarray(fam_of, dtype=_INDEX)
        entries = cohort.entries(groups, offsets)
        rank_row, sep_row = _row_orders(rank_of, sep_of, entries)

        # Collect and root buckets write their cliques' totals in bucket
        # order; log evidence sums them per family in clique-id order.
        collect, roots, distribute, readout = entries
        self._norm_of_clique = np.empty(n_cliques, dtype=_INDEX)
        self._norm_of_clique[np.concatenate((collect.cliques, roots.cliques))] = np.arange(
            n_cliques, dtype=_INDEX
        )
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
        for ((rank, axes, _, _), lo, hi), child in zip(
            spans(readout), _sides(rows, readout.bounds)
        ):
            targets = readout.others[lo:hi]
            evidence[rank].setdefault(axes[0], []).append((rows[lo:hi], targets))
            stages[_READOUT].append(_Bucket(side(child, rank, axes), targets=targets))
        self._stages = stages

        # Each member's evidence sits on its read-out axis; the last column
        # of ``phi`` holds ones for every other axis. Each run writes the
        # evidence's gather per rank (``_gathered``), the potentials
        # (``_pots``), the collected messages and the normalizers into these
        # buffers before it reads them. The static tables hold each clique's
        # founder priors and transmission tables.
        ones = phi.shape[1] - 1
        self._evidence, self._pots, self._static, self._gathered = {}, {}, {}, {}
        for rank, by_axis in evidence.items():
            members = rank_of == rank
            count = int(members.sum())
            self._pots[rank] = np.empty((N_STATES,) * rank + (count,))
            self._gathered[rank] = np.empty((N_STATES, count))
            self._evidence[rank] = []
            for axis in sorted(by_axis):
                index = np.full(count, ones, dtype=_INDEX)
                for rows, targets in by_axis[axis]:
                    index[rows] = targets
                self._evidence[rank].append((axis, index))
            index = np.empty(count, dtype=_INDEX)
            index[rank_row[members]] = pattern_of[members]
            tables = np.stack([_pattern_table(rank, f, prior) for f in cohort.patterns[rank]], -1)
            self._static[rank] = np.take(tables, index, axis=-1)
        self._collected = {
            int(size): np.empty((N_STATES,) * int(size) + (int(np.sum(sep_of == size)),))
            for size in np.unique(sep_of[sep_of > 0])
        }
        self._norm = np.empty(n_cliques)
        self._ops = self._bind([_scratch() for _ in range(3)])
        self.counts = (  # as the EngineStats fields of the same names
            n_cliques,
            len(stages[_COLLECT]),
            len(stages[_DISTRIBUTE]),
            len(stages[_ROOT]) + len(stages[_READOUT]),
            sum(
                not isinstance(s.rows, slice)
                for buckets in stages for bucket in buckets
                for s in (bucket.child, bucket.parent) if s is not None
            ),
        )

    def _bind(self, scratch):
        """The ops of a run, with every view of the shard's buffers bound:
        the potentials, the collect pass with the roots, the distribute pass,
        and per read-out bucket its ops, member rows and marginal.
        ``scratch`` hands out the temporaries that ops reuse: gathered or
        summed rows, messages and marginals, and their totals; a gathered
        row temporary is dead before the next one is written."""
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

    def run(self, marginals, log_evidence):
        """The two passes over the shard's families, the evidence already in
        ``phi``: their rows of ``marginals`` and ``log_evidence`` are
        written, with numpy's buffer size at ``_BUFSIZE`` on this thread.
        Raises :class:`ZeroEvidenceError` like :meth:`MarginalEngine.run`."""
        bufsize = np.setbufsize(_BUFSIZE)
        try:
            self._run(marginals, log_evidence)
        finally:
            np.setbufsize(bufsize)

    def _run(self, marginals, log_evidence):
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
        # so is the parent's marginal; the pass first sets those zeros to 1,
        # so the quotient is left at 0 there. The quotient's total is
        # positive since the parent's total is.
        for op in distribute:
            op()
        for ops, targets, marginal in readouts:
            for op in ops:
                op()
            marginals[targets] = marginal
        log_evidence[self.first:self.first + len(self.families)] = np.bincount(
            self._clique_family, weights=np.log(norm)[self._norm_of_clique],
            minlength=len(self.families),
        )


class MarginalEngine:
    """Batched posterior-marginal evaluator reused across EM iterations,
    compiled for one model: the allele frequency ``q`` and the gene-test
    error rates ``epsilon`` and ``eta``, which a fit treats as known, go
    into the static tables and the records' :class:`genetics.FixedEvidence`
    when it is built (``ValueError`` when ``q`` lies outside [0, 1] or a
    rate outside [0, 1)), so that a run takes only what EM estimates.

    Compiles the junction forests of all families into a bucketed two-pass
    schedule and binds it into a list of numpy operations on the engine's
    own buffers (see the module docstring). A cohort whose potential tables
    come to more than ``SHARD_BUCKET_BYTES`` per bucket is compiled as two
    shards, contiguous ranges of families of about equal table size, each
    with its own schedule; a run computes the evidence once and then runs
    the shards on two threads, or one after the other when one CPU is
    usable or in a process-pool worker. The shard plan depends on the
    cohort alone. A record with a ``genotype_pin``
    takes only its pinned states. :attr:`stats` reports the schedule's size.
    ``ages``, ``statuses``, ``covariates`` and ``suppressed`` are the record
    columns in global record order.

    Raises :class:`InferenceError` when a family's largest clique table, or
    all potential tables together, would exceed ``MAX_POTENTIAL_BYTES``.
    """

    def __init__(self, families, q, epsilon, eta):
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
        gene_test = [-1 if rec.gene_test is None else rec.gene_test for rec in records]
        self.suppressed = np.array([rec.phenotype_suppressed for rec in records], dtype=bool)
        self.covariates = np.array(
            [rec.covariates for rec in records], dtype=float
        ).reshape(total, cov_len)
        self._fixed = genetics.FixedEvidence(
            self.statuses, gene_test, epsilon, eta, self.suppressed, _pin_mask(records)
        )
        self._compile(genetics.founder_prior(q))

    def _compile(self, prior):
        # each structure's key and forest, and the structure of each family
        index, keys, forests, largest = {}, [], [], (0, None)
        structure_of = np.empty(len(self.families), dtype=_INDEX)
        for fi, fam in enumerate(self.families):
            key = fam.structure_key()
            structure_of[fi] = s = index.setdefault(key, len(keys))
            if s < len(keys):
                continue
            forest = _Forest(key)
            k_max = max(forest.ranks)
            if N_STATES ** k_max * _FLOAT_BYTES > MAX_POTENTIAL_BYTES:
                raise InferenceError(
                    f"family {fam.family_id}: its junction tree has a "
                    f"clique of {k_max} members, whose {N_STATES}^{k_max}-entry table "
                    f"exceeds the {MAX_POTENTIAL_BYTES}-byte potential budget"
                )
            if k_max > largest[0]:
                largest = (k_max, fam.family_id)
            keys.append(key)
            forests.append(forest)
        table_bytes = np.array(
            [sum(N_STATES ** rank for rank in forest.ranks) for forest in forests], dtype=np.int64
        ) * _FLOAT_BYTES
        cumulative = np.cumsum(table_bytes[structure_of])
        potential_bytes = int(cumulative[-1]) if len(cumulative) else 0
        if potential_bytes > MAX_POTENTIAL_BYTES:
            raise InferenceError(
                f"the cohort's clique potential tables need {potential_bytes} bytes, "
                f"above the {MAX_POTENTIAL_BYTES}-byte budget (largest clique: "
                f"{largest[0]} members, family {largest[1]})"
            )
        # Two shards of about equal table size, split between families, when
        # the tables are large for the buckets (see SHARD_BUCKET_BYTES).
        cohort = _Forests(keys, forests)
        bounds = [0, len(self.families)]
        if (len(self.families) > 1
                and potential_bytes > SHARD_BUCKET_BYTES * cohort.bucket_count()):
            half = int(np.searchsorted(cumulative, potential_bytes / 2)) + 1
            bounds.insert(1, min(half, len(self.families) - 1))

        # the evidence of every record, and a last column of ones
        self._phi = np.ones((N_STATES, self.total + 1))
        offsets = np.asarray(self.offsets, dtype=_INDEX)
        self._shards = [
            _Shard(self.families[lo:hi], structure_of[lo:hi], cohort, offsets[lo:hi], lo,
                   self._phi, prior)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        cliques, collect, distribute, readout, gathered = map(
            sum, zip(*(shard.counts for shard in self._shards))
        )
        self.stats = EngineStats(
            families=len(self.families),
            structures=len(forests),
            cliques=cliques,
            max_clique_size=largest[0],
            collect_buckets=collect,
            distribute_buckets=distribute,
            readout_buckets=readout,
            gathered_sides=gathered,
            potential_bytes=potential_bytes,
            shards=len(self._shards),
        )

    def run(self, beta, gamma, cumulative_hazard):
        """Marginals (total, 4) in global record order plus per-family log
        evidence, at origin effect ``beta``, covariate effects ``gamma`` and
        each record's baseline ``cumulative_hazard`` at its age.

        Raises :class:`ZeroEvidenceError`, naming the family, when a family's
        observed data has zero probability.
        """
        genetics.evidence_matrix(
            cumulative_hazard, self.covariates if self.covariates.shape[1] else None,
            beta, gamma, self._fixed, out=self._phi[:, :self.total],
        )
        marginals = np.empty((self.total, N_STATES))
        log_evidence = np.empty(len(self.families))
        _run_shards(self._shards, marginals, log_evidence)
        return marginals, log_evidence
