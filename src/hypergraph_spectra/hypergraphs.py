"""k-uniform hypergraphs: canonical storage, families, and combinatorics.

Vertices are 0-based integers internally; the text edge-list format is
1-based.  Edges are k-subsets stored as sorted tuples, and a hypergraph may
have isolated vertices (they matter to the spectrum, so n is explicit).
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction

import numpy as np

from .errors import EdgeListFormatError

__all__ = [
    "Hypergraph",
    "cartesian_product",
    "complete",
    "complete_cylinder",
    "disjoint_union",
    "from_edge_list",
    "is_subgraph",
    "single_edge",
    "tetra_minus_face",
    "to_edge_list",
    "ultracube",
]


class Hypergraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1.

    Instances are treated as immutable; no method mutates self.  Equal
    hypergraphs (same n, k, edge set) compare and hash equal.

    ``edges`` is the sorted tuple of edges.  ``incidence[v]`` is the
    ascending tuple of indices into ``edges`` of the edges through v; it is
    built once here, and every routine that walks the edges at a vertex
    reads it.  ``edge_array`` is ``edges`` as a read-only (m, k) np.intp
    array, built once here too, which the numeric routines read.
    """

    __slots__ = ("n", "k", "edges", "incidence", "edge_array")

    def __init__(self, n: int, k: int, edges=()):
        if n < 1:
            raise ValueError("need at least one vertex")
        if k < 2:
            raise ValueError("uniformity k must be at least 2")
        canon = set()
        for e in map(sorted, edges):
            if any(u % 1 for u in e):  # NaN, or a fraction: inf % 1 is NaN
                raise ValueError(f"edge {e} has a non-integral vertex")
            t = tuple(map(int, e))
            if len(t) != k:
                raise ValueError(f"edge {t} has {len(t)} vertices, expected k={k}")
            if len(set(t)) != k:
                raise ValueError(f"edge {t} repeats a vertex")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {t} out of range for n={n}")
            canon.add(t)
        self.n = n
        self.k = k
        self.edges = tuple(sorted(canon))
        incidence = [[] for _ in range(n)]
        for idx, e in enumerate(self.edges):
            for v in e:
                incidence[v].append(idx)
        self.incidence = tuple(map(tuple, incidence))
        self.edge_array = np.fromiter(itertools.chain.from_iterable(
            self.edges), np.intp, k * len(self.edges)).reshape(-1, k)
        self.edge_array.flags.writeable = False

    # -- basic inspection ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, e) -> bool:
        t = tuple(sorted(e))
        i = bisect.bisect_left(self.edges, t)
        return i < len(self.edges) and self.edges[i] == t

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return len(self.incidence[v])

    def degrees(self):
        """(min degree, average degree as an exact Fraction, max degree)."""
        counts = [len(idxs) for idxs in self.incidence]
        avg = Fraction(self.k * len(self.edges), self.n)
        return min(counts), avg, max(counts)

    def link(self, v: int) -> tuple:
        """Edges through v, with v removed: sorted (k-1)-tuples."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return tuple(tuple(u for u in self.edges[idx] if u != v)
                     for idx in self.incidence[v])

    # -- structure -----------------------------------------------------------

    def components(self):
        """Connected components as (sub-hypergraph, original-vertices) pairs.

        original-vertices is the ascending tuple of vertex ids; the
        sub-hypergraph relabels them to 0..len-1 in that order.  Isolated
        vertices form singleton components.  A connected hypergraph is
        returned as itself, not copied.
        """
        seen = [False] * self.n
        walked = [False] * len(self.edges)  # each edge expanded once
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            verts = []
            while stack:
                v = stack.pop()
                verts.append(v)
                for idx in self.incidence[v]:
                    if not walked[idx]:
                        walked[idx] = True
                        for u in self.edges[idx]:
                            if not seen[u]:
                                seen[u] = True
                                stack.append(u)
            if len(verts) == self.n:
                return [(self, tuple(range(self.n)))]
            verts.sort()
            pos = {v: i for i, v in enumerate(verts)}
            # each edge once, at its smallest vertex
            edges = [tuple(pos[u] for u in self.edges[idx]) for v in verts
                     for idx in self.incidence[v] if self.edges[idx][0] == v]
            out.append((Hypergraph(len(verts), self.k, edges), tuple(verts)))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def relabel(self, perm) -> "Hypergraph":
        """Apply a permutation of 0..n-1 to the vertices."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        return Hypergraph(self.n, self.k,
                          [tuple(perm[v] for v in e) for e in self.edges])

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.k, self.edges) == (other.n, other.k, other.edges)

    def __hash__(self):
        return hash((self.n, self.k, self.edges))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, k={self.k}, m={len(self.edges)})"


# -- families -----------------------------------------------------------------


def single_edge(k: int) -> Hypergraph:
    """One edge on exactly k vertices."""
    return Hypergraph(k, k, [tuple(range(k))])


def complete(n: int, k: int) -> Hypergraph:
    """All k-subsets of n vertices."""
    if n < k:
        raise ValueError("complete hypergraph needs n >= k")
    return Hypergraph(n, k, itertools.combinations(range(n), k))


def tetra_minus_face() -> Hypergraph:
    """Three faces of the tetrahedron boundary: complete(4,3) minus (1,2,3)."""
    return Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


def _part_sizes(parts) -> list:
    """parts as ints: two or more, each a positive integer."""
    sizes = list(parts)
    if len(sizes) < 2:
        raise ValueError("need at least two parts")
    if any(m % 1 or m < 1 for m in sizes):  # NaN, or inf: inf % 1 is NaN
        raise ValueError(f"part sizes {sizes} are not all positive integers")
    return [int(m) for m in sizes]


def complete_cylinder(parts) -> Hypergraph:
    """All transversals of k disjoint parts; parts gives the part sizes.

    Uniformity is the number of parts; part i occupies the next parts[i]
    vertex ids in order.
    """
    sizes = _part_sizes(parts)
    groups = []
    base = 0
    for m in sizes:
        groups.append(range(base, base + m))
        base += m
    return Hypergraph(base, len(sizes), itertools.product(*groups))


def cartesian_product(g: Hypergraph, h: Hypergraph) -> Hypergraph:
    """Cartesian product; vertex (a, b) becomes a * h.n + b.

    An edge is a g-edge within one fixed h-coordinate, or an h-edge within
    one fixed g-coordinate.
    """
    if g.k != h.k:
        raise ValueError("factors must share the uniformity k")
    edges = []
    for e in g.edges:
        for b in range(h.n):
            edges.append(tuple(a * h.n + b for a in e))
    for a in range(g.n):
        for f in h.edges:
            edges.append(tuple(a * h.n + b for b in f))
    return Hypergraph(g.n * h.n, g.k, edges)


def disjoint_union(g: Hypergraph, h: Hypergraph) -> Hypergraph:
    """Place h after g; h's vertex ids shift up by g.n."""
    if g.k != h.k:
        raise ValueError("parts must share the uniformity k")
    edges = list(g.edges)
    edges.extend(tuple(v + g.n for v in f) for f in h.edges)
    return Hypergraph(g.n + h.n, g.k, edges)


def ultracube(k: int, d: int) -> Hypergraph:
    """d-fold cartesian power of the single k-edge: axis lines of a k^d grid.

    Vertex ids read the coordinate tuple as a big-endian base-k numeral.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if k < 2:
        raise ValueError("uniformity k must be at least 2")
    h = single_edge(k)
    for _ in range(d - 1):
        h = cartesian_product(h, single_edge(k))
    if len(h.edges) != d * k ** (d - 1):
        raise ArithmeticError(
            f"ultracube has {len(h.edges)} edges, expected {d * k ** (d - 1)}")
    return h


def is_subgraph(g: Hypergraph, h: Hypergraph, embedding=None) -> bool:
    """True when g maps into h: every g-edge lands on an h-edge.

    embedding maps g's vertices to distinct h-vertices; default is the
    identity (requires g.n <= h.n).
    """
    if g.k != h.k:
        return False
    if embedding is None:
        embedding = list(range(g.n))
    else:
        embedding = list(embedding)
    if len(embedding) != g.n or len(set(embedding)) != g.n:
        raise ValueError("embedding must assign each vertex a distinct image")
    if any(not 0 <= v < h.n for v in embedding):
        raise ValueError("embedding image out of range")
    return all(h.has_edge(embedding[v] for v in e) for e in g.edges)


# -- edge-list text format ------------------------------------------------------


def from_edge_list(text: str) -> Hypergraph:
    """Parse the plain edge-list format.

    First significant line is "n k"; each later line lists the k vertices of
    one edge, 1-based.  '#' starts a comment; blank lines are skipped.
    """
    n = k = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise EdgeListFormatError(f"non-integer field in {fields!r}", lineno)
        if n is None:
            if len(values) != 2:
                raise EdgeListFormatError("header must be exactly 'n k'", lineno)
            n, k = values
            if n < 1 or k < 2:
                raise EdgeListFormatError(f"invalid header n={n} k={k}", lineno)
            continue
        if len(values) != k:
            raise EdgeListFormatError(
                f"edge has {len(values)} vertices, expected k={k}", lineno)
        if any(not 1 <= v <= n for v in values):
            raise EdgeListFormatError(f"vertex out of range 1..{n}", lineno)
        if len(set(values)) != k:
            raise EdgeListFormatError("edge repeats a vertex", lineno)
        edges.append(tuple(v - 1 for v in values))
    if n is None:
        raise EdgeListFormatError("missing 'n k' header")
    return Hypergraph(n, k, edges)


def to_edge_list(h: Hypergraph) -> str:
    """Canonical edge-list text: sorted edges, 1-based, one per line."""
    lines = [f"{h.n} {h.k}"]
    for e in h.edges:
        lines.append(" ".join(str(v + 1) for v in e))
    return "\n".join(lines) + "\n"
