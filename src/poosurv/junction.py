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

__all__ = ["CliqueTree", "build_clique_tree"]


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


def _bits(mask):
    """Set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _moral_adjacency(pedigree) -> list[int]:
    """Moral graph as one neighbour bitset per record position."""
    adj = [0] * len(pedigree)
    for c, (f, m) in enumerate(pedigree.structure_key()):
        if f < 0:
            continue
        adj[c] |= (1 << f) | (1 << m)
        adj[f] |= (1 << c) | (1 << m)
        adj[m] |= (1 << c) | (1 << f)
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


def _min_fill_cliques(adj) -> list[int]:
    """Elimination cliques, as bitsets, from min-fill ordering; ties break on
    the lowest index.

    A vertex's fill is counted when first needed and kept up to date after:
    eliminating a vertex changes the fill of its neighbours alone when it
    adds no edge, and of its neighbours and their neighbours otherwise.
    """
    adj = list(adj)
    fill = [None] * len(adj)
    remaining = list(range(len(adj)))
    cliques = []
    while remaining:
        best, best_fill = None, None
        for v in remaining:
            count = fill[v]
            if count is None:
                count = fill[v] = _fill(adj, v)
            if best_fill is None or count < best_fill:
                best, best_fill = v, count
                if count == 0:
                    break
        nbrs, bit = adj[best], 1 << best
        cliques.append(nbrs | bit)
        adj[best] = 0
        remaining.remove(best)
        if best_fill == 0:
            # No edge is added: a neighbour only loses the pairs of ``best``
            # with its neighbours outside the clique.
            for a in _bits(nbrs):
                if fill[a] is not None:
                    fill[a] -= (adj[a] & ~nbrs & ~bit).bit_count()
                adj[a] &= ~bit
            continue
        touched = nbrs
        for a in _bits(nbrs):
            adj[a] = (adj[a] | nbrs) & ~(1 << a) & ~bit
            touched |= adj[a]
        for v in _bits(touched):
            fill[v] = None
    return cliques


def build_clique_tree(pedigree) -> CliqueTree:
    """Junction forest for a pedigree's moral graph.

    Deterministic: min-fill ties break on the lowest record position and the
    spanning forest prefers larger separators, then lower clique indices.
    Vertex and clique sets are held as int bitsets.
    """
    # Later elimination cliques may be subsets of earlier ones; never the
    # reverse, since each eliminated vertex vanishes from subsequent cliques.
    # ``holding[v]`` is the bitset of the kept cliques that hold ``v``, so a
    # candidate lies inside a kept clique when its members' sets intersect.
    holding = [0] * len(pedigree)
    kept: list[int] = []
    cliques = []
    for cand in _min_fill_cliques(_moral_adjacency(pedigree)):
        members = _bits(cand)
        common = -1
        for v in members:
            common &= holding[v]
        if not common:
            for v in members:
                holding[v] |= 1 << len(kept)
            kept.append(cand)
            cliques.append(members)

    candidates = []  # every pair of cliques that share a member
    for i, members in enumerate(cliques):
        near = 0
        for v in members:
            near |= holding[v]
        for j in _bits(near >> (i + 1)):
            j += i + 1
            candidates.append((-(kept[i] & kept[j]).bit_count(), i, j))
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
