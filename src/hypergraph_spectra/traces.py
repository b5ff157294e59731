"""Generalized traces and the leading coefficients they determine.

The d-th trace of a k-uniform hypergraph is a weighted count of closed
multi-digraph walks assembled from edge choices at each vertex.  Scaled by
-1/d and fed through the exponential (Newton-Schur) recurrence, the first
few traces give the top coefficients of the characteristic polynomial
without building the Macaulay matrix.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .hypergraphs import Hypergraph
from .polynomials import enumerate_monomials

__all__ = [
    "coefficients_via_traces",
    "count_closed_arrangements",
    "count_simplices",
    "generalized_trace",
    "int_determinant",
    "schur_coefficients",
]


def int_determinant(matrix) -> int:
    """Exact determinant of a square integer matrix (list of rows).

    Fraction-free Bareiss elimination: a zero pivot is replaced by a row
    swap, and every division is checked exact.
    """
    a = [[int(v) for v in r] for r in matrix]
    m = len(a)
    if any(len(r) != m for r in a):
        raise ValueError("matrix is not square")
    sign, prev = 1, 1
    for c in range(m):
        piv = next((r for r in range(c, m) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for r in range(c + 1, m):
            for j in range(c + 1, m):
                q, rem = divmod(a[r][j] * a[c][c] - a[r][c] * a[c][j], prev)
                if rem:
                    raise ArithmeticError("Bareiss division is not exact")
                a[r][j] = q
        prev = a[c][c]
    return sign * prev


def count_closed_arrangements(arcs) -> int:
    """Weighted count of closed orderings of a multiset of arcs.

    arcs maps (tail, head) to a positive multiplicity.  The count is
    m * t_w * prod over vertices of (indegree - 1)!, where m is the number
    of arcs and t_w the number of arborescences of the support digraph, and
    it vanishes unless the digraph is balanced and weakly connected.  This
    is the BEST-theorem count of Eulerian circuits times m, written so that
    parallel arcs are interchangeable.
    """
    arcs = {(int(a), int(b)): int(m) for (a, b), m in arcs.items() if m}
    if not arcs:
        return 0
    indeg: dict = {}
    outdeg: dict = {}
    verts = set()
    for (a, b), m in arcs.items():
        if m < 0:
            raise ValueError("negative arc multiplicity")
        outdeg[a] = outdeg.get(a, 0) + m
        indeg[b] = indeg.get(b, 0) + m
        verts.add(a)
        verts.add(b)
    if any(indeg.get(v, 0) != outdeg.get(v, 0) for v in verts):
        return 0
    order = sorted(verts)
    pos = {v: i for i, v in enumerate(order)}
    # arborescences toward order[0] via the directed matrix-tree minor;
    # the digraph is Eulerian so the root does not matter, and the minor
    # vanishes when the digraph is not weakly connected
    t = len(order)
    lap = [[0] * (t - 1) for _ in range(t - 1)]
    for (a, b), m in arcs.items():
        ia, ib = pos[a], pos[b]
        if ia == ib:
            continue
        if ia > 0:
            lap[ia - 1][ia - 1] += m
        if ia > 0 and ib > 0:
            lap[ia - 1][ib - 1] -= m
    trees = int_determinant(lap)
    if trees == 0:
        return 0
    total_arcs = sum(arcs.values())
    out = total_arcs * trees
    for v in order:
        out *= math.factorial(indeg[v] - 1)
    return out


def _arc_choices(v: int, link, dv: int, place) -> list:
    """[(arcs v -> u as sorted (arc, multiplicity) pairs, weight, indeg)]:
    v's multisets of dv link edges inside the split's support (place's
    keys), weighted by dv!/prod m_i!, with the weights of those giving the
    same arcs summed; indeg sums place[u] over the arcs' heads u."""
    usable = [rest for rest in link if place.keys() >= set(rest)]
    if not usable:
        return []
    merged: dict = {}
    for mults in enumerate_monomials(len(usable), dv):
        arcs: dict = {}
        weight = math.factorial(dv)
        for rest, m in zip(usable, mults):
            if m:
                weight //= math.factorial(m)
                for u in rest:
                    arcs[(v, u)] = arcs.get((v, u), 0) + m
        key = tuple(sorted(arcs.items()))
        merged[key] = merged.get(key, 0) + weight
    return [(arcs, weight, sum(m * place[u] for (_, u), m in arcs))
            for arcs, weight in merged.items()]


def generalized_trace(h: Hypergraph, d: int) -> int:
    """The d-th generalized trace.

    Sums over degree splittings (d_1..d_n summing to d) and, per vertex,
    multisets of d_i link edges; each arrangement contributes the closed-
    ordering count of its arc multiset.  The result equals the power sum of
    the characteristic polynomial's roots (with multiplicity), scaled so
    that sum over the spectrum is exact.
    """
    if d < 0:
        raise ValueError("trace order must be nonnegative")
    n, k = h.n, h.k
    if d == 0:
        return n * (k - 1) ** (n - 1)
    links = [h.link(v) for v in range(n)]
    active = [v for v in range(n) if links[v]]
    if not active:
        return 0
    total = Fraction(0)
    for exps in enumerate_monomials(len(active), d):
        split = {v: e for v, e in zip(active, exps) if e}
        # factor 1/prod (d_v (k-1))!
        denom = 1
        for dv in split.values():
            denom *= math.factorial(dv * (k - 1))
        # in base d(k-1)+1 the in-degrees add digit by digit, none above
        # d(k-1); only a balanced product, d_v(k-1) in at each v, can close
        place = {v: (d * (k - 1) + 1) ** i for i, v in enumerate(split)}
        balanced = sum(dv * (k - 1) * place[v] for v, dv in split.items())
        # the vertices' arcs are disjoint, having distinct tails
        contrib = 0
        for choice in itertools.product(*(_arc_choices(v, links[v], dv, place)
                                          for v, dv in split.items())):
            arcs, weights, indegs = zip(*choice)
            if sum(indegs) != balanced:
                continue
            contrib += math.prod(weights) * count_closed_arrangements(
                dict(itertools.chain.from_iterable(arcs)))
        if contrib:
            total += Fraction(contrib, denom)
    result = total * (k - 1) ** (n - 1)
    if result.denominator != 1:
        raise ArithmeticError(f"generalized trace {result} is not an integer")
    return int(result)


def schur_coefficients(traces) -> list:
    """Newton's identities: power sums to monic-polynomial coefficients.

    traces[j] holds the power sum of order j+1.  Returns [c_1, c_2, ...]
    as Fractions, where c_d is the codegree-d coefficient, from
    d*c_d = -sum over j of traces[j-1]*c_{d-j} with c_0 = 1.
    """
    out = []
    p = [Fraction(1)]
    for d in range(1, len(traces) + 1):
        acc = Fraction(0)
        for j in range(1, d + 1):
            acc += Fraction(-traces[j - 1]) * p[d - j]
        val = acc / d
        p.append(val)
        out.append(val)
    return out


def coefficients_via_traces(h: Hypergraph,
                            max_codegree: int | None = None) -> list:
    """Top coefficients [codegree 0..max_codegree] of the characteristic
    polynomial, computed from generalized traces.

    The default depth is k+1, where the trace cost is still combinatorial
    in the maximum degree only; deeper orders grow quickly.
    """
    if max_codegree is None:
        max_codegree = h.k + 1
    if max_codegree < 0:
        raise ValueError("max codegree must be nonnegative")
    traces = [generalized_trace(h, d) for d in range(1, max_codegree + 1)]
    coeffs = schur_coefficients(traces)
    out = [1]
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError(f"coefficient {c} is not an integer")
        out.append(int(c))
    return out


def count_simplices(h: Hypergraph) -> int:
    """Number of (k+1)-vertex subsets whose k-subsets are all edges."""
    n, k = h.n, h.k
    deg = [h.degree(v) for v in range(n)]
    candidates = [v for v in range(n) if deg[v] >= k]
    count = 0
    for combo in itertools.combinations(sorted(candidates), k + 1):
        if all(h.has_edge(e) for e in itertools.combinations(combo, k)):
            count += 1
    return count
