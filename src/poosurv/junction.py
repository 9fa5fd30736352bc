"""Junction forests of pedigree graphs.

The parent graph is moralized (co-parents connected), triangulated with a
min-fill elimination heuristic (Kjaerulff 1990), and its maximal cliques are
joined into a junction forest by maximum separator weight. Vertex and clique
sets are Python-int bitsets: the adjacency behind the fill counts, which
are updated only where an elimination changed them, the subset test that
drops non-maximal cliques, and the separator weights of the spanning
forest.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush

__all__ = ["CliqueTree", "build_clique_tree", "clique_tree"]


class CliqueTree:
    """Junction forest over pedigree member positions.

    ``cliques`` are sorted tuples of record positions; ``edges`` join clique
    indices. Every family factor's scope fits inside at least one clique and
    the running intersection property holds.
    """

    def __init__(self, cliques, edges):
        self.cliques = [tuple(c) for c in cliques]
        self.edges = [tuple(e) for e in edges]
        self._neighbors = [[] for _ in self.cliques]
        for i, j in self.edges:
            self._neighbors[i].append(j)
            self._neighbors[j].append(i)

    def neighbors(self, idx):
        return self._neighbors[idx]

    @property
    def max_clique_size(self):
        return max(len(c) for c in self.cliques)


def _bits(mask):
    """Set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _moral_adjacency(parents) -> list[int]:
    """Moral graph as one neighbour bitset per record position."""
    adj = [0] * len(parents)
    for c, (f, m) in enumerate(parents):
        if f >= 0:
            child, father, mother = 1 << c, 1 << f, 1 << m
            adj[c] |= father | mother
            adj[f] |= child | mother
            adj[m] |= child | father
    return adj


def _fill(adj, v):
    """Missing edges among the neighbours of ``v``."""
    nbrs = adj[v]
    degree = nbrs.bit_count()
    links = 0  # edges among the neighbours, each seen twice
    rest = nbrs
    while rest:
        low = rest & -rest
        links += (adj[low.bit_length() - 1] & nbrs).bit_count()
        rest ^= low
    return degree * (degree - 1) // 2 - links // 2


def build_clique_tree(pedigree) -> CliqueTree:
    """Junction forest for a pedigree's moral graph (see :func:`clique_tree`)."""
    return clique_tree(pedigree.structure_key())


def clique_tree(parents) -> CliqueTree:
    """Junction forest for the moral graph of a structure key: the (father,
    mother) positions of each record, (-1, -1) for a founder.

    Deterministic: min-fill ties break on the lowest record position and the
    spanning forest prefers larger separators, then lower clique indices.
    """
    # Min-fill elimination. Every vertex's fill is kept exact: eliminating a
    # vertex changes the fill of its neighbours alone when it adds no edge,
    # and of its neighbours and their neighbours otherwise. The vertices of
    # fill 0 wait in a heap, so the common elimination, of the lowest of
    # them, needs no scan.
    n = len(parents)
    adj = _moral_adjacency(parents)
    fill = [_fill(adj, v) for v in range(n)]
    simplicial = [v for v in range(n) if not fill[v]]  # ascending, so a heap
    alive = [True] * n
    # Later elimination cliques may be subsets of earlier ones; never the
    # reverse, since each eliminated vertex vanishes from subsequent cliques.
    # ``holding[v]`` is the bitset of the kept cliques that hold ``v``, so a
    # candidate lies inside a kept clique when its members' sets intersect,
    # and shares a member with the kept cliques in their union. Each such
    # pair of kept cliques is one int whose order is Kruskal's: larger
    # separators first, then lower indices.
    holding = [0] * n
    kept, cliques, pairs = [], [], []
    shift, size = n.bit_length(), n + 1
    components = 0
    for _ in range(n):
        while simplicial:  # entries whose fill has risen since are skipped
            best = heappop(simplicial)
            if alive[best] and not fill[best]:
                break
        else:
            best = min((v for v in range(n) if alive[v]), key=fill.__getitem__)
        nbrs, bit = adj[best], 1 << best
        adj[best] = 0
        alive[best] = False
        members = _bits(nbrs)
        if not fill[best]:
            # No edge is added: a neighbour only loses the pairs of ``best``
            # with its neighbours outside the clique.
            for a in members:
                count = fill[a] = fill[a] - (adj[a] & ~nbrs & ~bit).bit_count()
                adj[a] &= ~bit
                if not count:
                    heappush(simplicial, a)
        else:
            touched = nbrs
            for a in members:
                adj[a] = (adj[a] | nbrs) & ~(1 << a) & ~bit
                touched |= adj[a]
            for v in _bits(touched):
                count = fill[v] = _fill(adj, v)
                if not count:
                    heappush(simplicial, v)
        if not nbrs:  # the last vertex of its component
            components += 1
        common = near = holding[best]
        for v in members:
            common &= holding[v]
            near |= holding[v]
        if common:
            continue
        clique, j = nbrs | bit, len(kept)
        while near:
            low = near & -near
            i = low.bit_length() - 1
            pairs.append(((size - (kept[i] & clique).bit_count()) << shift | i) << shift | j)
            near ^= low
        insort(members, best)
        bit = 1 << j
        for v in members:
            holding[v] |= bit
        kept.append(clique)
        cliques.append(tuple(members))

    # Kruskal, until the forest spans every component.
    pairs.sort()
    mask = (1 << shift) - 1
    root = list(range(len(cliques)))
    edges, needed = [], len(cliques) - components
    for code in pairs if needed else ():
        i, j = first, second = code >> shift & mask, code & mask
        while root[i] != i:
            root[i] = i = root[root[i]]
        while root[j] != j:
            root[j] = j = root[root[j]]
        if i != j:
            root[i] = j
            edges.append((first, second))
            if len(edges) == needed:
                break
    return CliqueTree(cliques, edges)
