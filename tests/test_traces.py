import itertools
import math
import random
from fractions import Fraction

import pytest

from hypergraph_spectra import repro
from hypergraph_spectra.hypergraphs import (
    Hypergraph,
    complete,
    complete_cylinder,
    disjoint_union,
    single_edge,
    ultracube,
)
from hypergraph_spectra.macaulay import _charpoly_direct, charpoly
from hypergraph_spectra.polynomials import UniPoly
from hypergraph_spectra.spectral import single_edge_charpoly
from hypergraph_spectra.traces import (
    coefficients_via_traces,
    count_closed_arrangements,
    count_simplices,
    generalized_trace,
    schur_coefficients,
)


def _closed_arrangements_brute(arcs):
    """Closed orderings counted directly: permutations of the arc multiset
    (parallel arcs distinguishable) whose heads chain to the next tail and
    wrap around.  Oracle for small multisets."""
    arc_list = []
    for (a, b), m in arcs.items():
        arc_list.extend([(a, b)] * m)
    total = 0
    for perm in itertools.permutations(range(len(arc_list))):
        seq = [arc_list[i] for i in perm]
        if all(seq[i][1] == seq[i + 1][0] for i in range(len(seq) - 1)) \
                and seq[-1][1] == seq[0][0]:
            total += 1
    return total


def test_closed_arrangements_two_cycle():
    assert count_closed_arrangements({(0, 1): 1, (1, 0): 1}) == 2


def test_closed_arrangements_bidirected_triangle():
    arcs = {(a, b): 1 for a in range(3) for b in range(3) if a != b}
    assert count_closed_arrangements(arcs) == 18


def test_closed_arrangements_bidirected_k4():
    arcs = {(a, b): 1 for a in range(4) for b in range(4) if a != b}
    assert count_closed_arrangements(arcs) == 3072


def test_closed_arrangements_parallel_arcs():
    assert count_closed_arrangements({(0, 1): 2, (1, 0): 2}) == 8


def test_closed_arrangements_rejects_unbalanced():
    assert count_closed_arrangements({(0, 1): 2, (1, 0): 1}) == 0
    assert count_closed_arrangements({(0, 1): 1, (1, 2): 1}) == 0


def test_closed_arrangements_rejects_disconnected():
    arcs = {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1}
    assert count_closed_arrangements(arcs) == 0
    # a loop-only part, away from the root and at it
    assert count_closed_arrangements({(0, 1): 1, (1, 0): 1, (2, 2): 1}) == 0
    assert count_closed_arrangements({(0, 0): 2, (1, 2): 1, (2, 1): 1}) == 0


def test_closed_arrangements_empty():
    assert count_closed_arrangements({}) == 0
    assert count_closed_arrangements({(0, 1): 0}) == 0


def test_closed_arrangements_vs_brute():
    rng = random.Random(13)
    for _ in range(25):
        t = rng.randint(2, 3)
        arcs = {}
        for a in range(t):
            for b in range(t):
                if a != b and rng.random() < 0.7:
                    arcs[(a, b)] = rng.randint(1, 2)
        if not arcs or sum(arcs.values()) > 7:
            continue
        assert count_closed_arrangements(arcs) == _closed_arrangements_brute(arcs)


def test_trace_zero_order():
    assert generalized_trace(single_edge(3), 0) == 12
    assert generalized_trace(complete(4, 3), 0) == 4 * 2 ** 3


def test_traces_vanish_below_k():
    for h in [single_edge(3), complete(4, 3), single_edge(4)]:
        for d in range(1, h.k):
            assert generalized_trace(h, d) == 0


def test_trace_three_single_edge():
    assert generalized_trace(single_edge(3), 3) == 9
    assert generalized_trace(single_edge(3), 4) == 0


def test_trace_four_simplex():
    # -Tr_4/4 is the simplex coefficient for k=3
    assert generalized_trace(complete(4, 3), 4) == 168


def test_graph_traces_are_walk_counts():
    # k=2: Tr_d = number of closed d-walks
    h = complete(3, 2)
    assert generalized_trace(h, 1) == 0
    assert generalized_trace(h, 2) == 6
    assert generalized_trace(h, 3) == 6
    p = Hypergraph(3, 2, [(0, 1), (1, 2)])
    assert generalized_trace(p, 2) == 4
    assert generalized_trace(p, 3) == 0
    # path eigenvalues are sqrt(2), 0, -sqrt(2)
    assert generalized_trace(p, 4) == 8


def test_schur_recurrence_triangle():
    coeffs = schur_coefficients([0, 6, 6])
    assert coeffs == [Fraction(0), Fraction(-3), Fraction(-2)]


def test_coefficients_via_traces_matches_codegree_closed_forms():
    h = complete(4, 3)
    coeffs = coefficients_via_traces(h, 4)
    n, k, m = 4, 3, 4
    assert coeffs[0] == 1
    assert coeffs[1] == 0
    assert coeffs[2] == 0
    assert coeffs[3] == -(k ** (k - 2)) * (k - 1) ** (n - k) * m
    simplex_coeff = 21 * (k - 1) ** (n - k) * count_simplices(h)
    assert coeffs[4] == -simplex_coeff
    assert coeffs[4] == -42
    # the default depth is k+1
    assert coefficients_via_traces(h) == coeffs


def test_ultracube_3_2_traces_side_with_the_computed_phi():
    # a route to Q3,2's leading coefficients that runs no determinant: the
    # traces agree with the pinned phi, not with the published product,
    # whose (L^3-2)^27 stands where phi has (L^3-8)^27
    h = ultracube(3, 2)
    got = coefficients_via_traces(h, 6)
    assert got == [1, 0, 0, -1152, 0, 0, 661680]
    cube = UniPoly({3: 1})
    phi = (UniPoly({549: 1}) * (cube - 1) ** 18 * (cube + 1) ** 54
           * (cube - 8) ** 27 * (cube - 2) ** 486)
    assert got == [phi.coeff_at_codegree(cd) for cd in range(7)]
    printed = repro._q32_printed_product()
    assert [printed.coeff_at_codegree(cd) for cd in (3, 6)] == [-990, 488988]
    # the codegree-3 identity -3*2^(n-3)*|E| of _codegree_identities
    assert (h.n, h.num_edges) == (9, 6)
    assert got[3] == -3 * 2 ** (9 - 3) * 6


def test_coefficients_beyond_default_depth():
    # the requested codegree is the only depth limit.  A 4-edge is checked
    # to codegree 8 against its closed form (the property test stops at
    # order 4); each vertex of complete_cylinder([2,2,2]) has four 2-sets in
    # its link, and two multisets of them, such as {24, 35} and {25, 34} at
    # vertex 0, give the same arcs
    cyl = complete_cylinder([2, 2, 2])
    for h, depth, phi in ((single_edge(3), 6, charpoly(single_edge(3)).phi),
                          (single_edge(4), 8, single_edge_charpoly(4)),
                          (cyl, 6, charpoly(cyl).phi)):
        got = coefficients_via_traces(h, depth)
        assert got == [phi.coeff_at_codegree(c) for c in range(depth + 1)]


def test_coefficients_reject_negative_codegree():
    h = single_edge(3)
    for cap in (-1, -5):
        with pytest.raises(ValueError):
            coefficients_via_traces(h, cap)
    assert coefficients_via_traces(h, 0) == [1]


def test_traces_match_macaulay_all_n4_graphs():
    pool = list(itertools.combinations(range(4), 3))
    for r in range(len(pool) + 1):
        for edges in itertools.combinations(pool, r):
            h = Hypergraph(4, 3, edges)
            phi = _charpoly_direct(h).phi
            coeffs = coefficients_via_traces(h, 4)
            want = [phi.coeff_at_codegree(c) for c in range(5)]
            assert coeffs == want, f"edges={edges}"


def test_traces_isolated_vertex_consistent():
    # the scaling uses the full vertex count, isolated vertices included
    g = single_edge(3)
    u = disjoint_union(g, Hypergraph(1, 3, []))
    phi = charpoly(u).phi
    coeffs = coefficients_via_traces(u, 4)
    assert coeffs == [phi.coeff_at_codegree(c) for c in range(5)]


def test_count_simplices():
    assert count_simplices(complete(4, 3)) == 1
    assert count_simplices(complete(5, 3)) == 5
    assert count_simplices(complete(5, 4)) == 1
    assert count_simplices(single_edge(3)) == 0
    assert count_simplices(Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])) == 0


def test_traces_match_random_n5():
    rng = random.Random(57)
    pool = list(itertools.combinations(range(5), 3))
    for _ in range(4):
        edges = rng.sample(pool, rng.randint(2, 6))
        h = Hypergraph(5, 3, edges)
        phi = _charpoly_direct(h).phi
        coeffs = coefficients_via_traces(h, 4)
        assert coeffs == [phi.coeff_at_codegree(c) for c in range(5)]
