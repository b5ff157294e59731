import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hypergraph_spectra.errors import EdgeListFormatError
from hypergraph_spectra.hypergraphs import (
    Hypergraph,
    cartesian_product,
    complete,
    complete_cylinder,
    disjoint_union,
    from_edge_list,
    is_subgraph,
    single_edge,
    to_edge_list,
    ultracube,
)
from hypergraph_spectra.spectral import _edge_arrays


def test_construction_canonicalizes():
    h = Hypergraph(4, 3, [(2, 1, 0), (0, 1, 2), (1, 3, 2)])
    assert h.edges == ((0, 1, 2), (1, 2, 3))
    assert h.num_edges == 2
    assert h.has_edge((2, 0, 1))
    assert not h.has_edge((0, 1, 3))


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [(0, 1)])
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [(0, 1, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, 1, [])
    with pytest.raises(ValueError):
        Hypergraph(0, 2, [])


def test_construction_rejects_non_integral_vertices():
    # int() would silently truncate 1.7 to 1
    with pytest.raises(ValueError, match="non-integral"):
        Hypergraph(3, 2, [(0, 1.7), (1, 2)])
    # int() raises OverflowError on an infinity
    with pytest.raises(ValueError, match="non-integral"):
        Hypergraph(3, 2, [(0, float("inf"))])
    want = Hypergraph(3, 2, [(0, 1), (1, 2)])
    assert Hypergraph(3, 2, [(np.int64(0), 1.0), (Fraction(1), 2)]) == want
    assert Hypergraph(3, 2, (iter(e) for e in [(1, 0), (2, 1)])) == want


def test_equality_ignores_edge_order():
    a = Hypergraph(4, 2, [(0, 1), (2, 3)])
    b = Hypergraph(4, 2, [(3, 2), (1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Hypergraph(5, 2, [(0, 1), (2, 3)])


def test_complete_counts():
    import math

    for n, k in [(4, 3), (5, 3), (5, 4), (6, 2)]:
        h = complete(n, k)
        assert h.num_edges == math.comb(n, k)
        dmin, davg, dmax = h.degrees()
        assert dmin == dmax == math.comb(n - 1, k - 1)


def test_degree_sum_identity():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 8)
        k = rng.randint(2, min(4, n))
        import itertools

        pool = list(itertools.combinations(range(n), k))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        h = Hypergraph(n, k, edges)
        counts = [h.degree(v) for v in range(n)]
        assert sum(counts) == k * h.num_edges
        dmin, davg, dmax = h.degrees()
        assert davg == Fraction(k * h.num_edges, n)
        assert dmin == min(counts) and dmax == max(counts)


def test_tetra_degrees():
    # all 3-subsets of 4 vertices minus one face
    h = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert h.degrees() == (2, Fraction(9, 4), 3)


def test_link_and_incidence():
    h = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (1, 2, 3)])
    assert h.link(0) == ((1, 2), (1, 3))
    assert h.link(3) == ((0, 1), (1, 2))
    assert h.link(2) == ((0, 1), (1, 3))
    assert h.incidence == ((0, 1), (0, 1, 2), (0, 2), (1, 2))


def test_degree_and_link_reject_out_of_range_vertices():
    h = complete(4, 3)
    for v in (-1, 4, 99):
        with pytest.raises(ValueError):
            h.degree(v)
        with pytest.raises(ValueError):
            h.link(v)


def test_euler_link_identity():
    # sum_i x_i * (link sum at i) = k * sum_e x^e
    rng = random.Random(9)
    import itertools

    for _ in range(10):
        n = rng.randint(3, 7)
        k = rng.randint(2, min(4, n))
        pool = list(itertools.combinations(range(n), k))
        h = Hypergraph(n, k, rng.sample(pool, rng.randint(1, len(pool))))
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        total = Fraction(0)
        for v in range(n):
            s = Fraction(0)
            for rest in h.link(v):
                t = Fraction(1)
                for u in rest:
                    t *= x[u]
                s += t
            total += x[v] * s
        edge_sum = Fraction(0)
        for e in h.edges:
            t = Fraction(1)
            for u in e:
                t *= x[u]
            edge_sum += t
        assert total == k * edge_sum


def test_components_and_union():
    g = single_edge(3)
    h = complete(4, 3)
    u = disjoint_union(g, h)
    assert u.n == 7 and u.num_edges == 5
    comps = u.components()
    assert len(comps) == 2
    (c1, v1), (c2, v2) = comps
    assert v1 == (0, 1, 2) and c1 == g
    assert v2 == (3, 4, 5, 6) and c2 == h


def test_edge_array_contract():
    u = disjoint_union(complete(4, 3), single_edge(3))
    for h in (u, complete(5, 4), Hypergraph(4, 3), Hypergraph(6, 2)):
        a = h.edge_array
        assert a.shape == (h.num_edges, h.k) and a.dtype == np.intp
        assert list(map(tuple, a.tolist())) == list(h.edges)
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    # the link sums' verts: a writeable copy, which np.bincount takes as is
    verts = _edge_arrays(u)[0]
    assert verts.flags.writeable and not np.shares_memory(verts, u.edge_array)
    assert verts.tolist() == u.edge_array.ravel().tolist()
    # each component builds its own array, on its own vertex labels
    comps = [sub for sub, _ in u.components()]
    assert [sub.edge_array.tolist() for sub in comps] == [
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], [[0, 1, 2]]]
    for i, sub in enumerate(comps):
        assert not np.shares_memory(sub.edge_array, u.edge_array)
        assert not any(np.shares_memory(sub.edge_array, other.edge_array)
                       for other in comps[i + 1:])


def test_isolated_vertex_component():
    h = Hypergraph(5, 3, [(0, 1, 2)])
    comps = h.components()
    assert len(comps) == 3
    assert [verts for _, verts in comps] == [(0, 1, 2), (3,), (4,)]
    assert not h.is_connected()


def test_relabel_preserves_structure():
    h = complete(4, 3)
    g = h.relabel([2, 0, 3, 1])
    assert g == h  # complete hypergraph is symmetric
    t = Hypergraph(4, 3, [(0, 1, 2)])
    r = t.relabel([3, 2, 1, 0])
    assert r.edges == ((1, 2, 3),)
    with pytest.raises(ValueError):
        t.relabel([0, 0, 1, 2])


def test_cylinder_matches_single_edge():
    assert complete_cylinder([1, 1, 1]) == single_edge(3)
    c = complete_cylinder([2, 3])
    assert c.n == 5 and c.k == 2 and c.num_edges == 6
    assert all(e[0] < 2 <= e[1] for e in c.edges)


def test_cylinder_degrees():
    c = complete_cylinder([1, 1, 2])
    assert c.n == 4 and c.num_edges == 2
    assert c.degrees() == (1, Fraction(6, 4), 2)


def test_product_of_graph_edges_is_cycle():
    e2 = single_edge(2)
    c4 = cartesian_product(e2, e2)
    assert c4.n == 4 and c4.num_edges == 4
    assert c4.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    deg = [c4.degree(v) for v in range(4)]
    assert deg == [2, 2, 2, 2]


def test_ultracube_matches_axis_lines():
    # the iterated product against the k^d grid's axis lines, vertex ids
    # reading the coordinates as a big-endian base-k numeral
    for k, d in itertools.product(range(2, 6), range(1, 5)):
        n = k ** d
        lines = []
        for axis in range(d):
            stride = k ** (d - 1 - axis)
            lines += [tuple(base + c * stride for c in range(k))
                      for base in range(n) if (base // stride) % k == 0]
        cube = ultracube(k, d)
        assert cube == Hypergraph(n, k, lines)
        assert cube.num_edges == d * k ** (d - 1)
        dmin, davg, dmax = cube.degrees()
        assert dmin == dmax == d


def test_is_subgraph():
    g = Hypergraph(4, 3, [(0, 1, 2)])
    h = complete(4, 3)
    assert is_subgraph(g, h)
    assert not is_subgraph(h, g)
    shifted = Hypergraph(3, 3, [(0, 1, 2)])
    assert is_subgraph(shifted, h, embedding=[1, 2, 3])
    with pytest.raises(ValueError):
        is_subgraph(shifted, h, embedding=[1, 1, 2])
    assert not is_subgraph(g, Hypergraph(4, 3, [(0, 1, 3)]))


def test_edge_list_roundtrip():
    h = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    text = to_edge_list(h)
    assert text == "4 3\n1 2 3\n1 2 4\n1 3 4\n"
    assert from_edge_list(text) == h
    assert to_edge_list(from_edge_list(text)) == text


def test_edge_list_comments_and_blanks():
    text = """
    # tetra minus a face
    4 3   # header
    1 2 3
    1 2 4

    1 3 4  # last
    """
    h = from_edge_list(text)
    assert h.n == 4 and h.num_edges == 3


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListFormatError) as ei:
        from_edge_list("4 3\n1 2\n")
    assert ei.value.line == 2
    with pytest.raises(EdgeListFormatError) as ei:
        from_edge_list("4 3\n1 2 3\n1 2 9\n")
    assert ei.value.line == 3
    with pytest.raises(EdgeListFormatError) as ei:
        from_edge_list("4 3\n1 2 x\n")
    assert ei.value.line == 2
    with pytest.raises(EdgeListFormatError):
        from_edge_list("# nothing\n")
    with pytest.raises(EdgeListFormatError) as ei:
        from_edge_list("4\n")
    assert ei.value.line == 1


def test_random_roundtrip_canonical():
    rng = random.Random(17)
    import itertools

    for _ in range(15):
        n = rng.randint(2, 7)
        k = rng.randint(2, min(4, n))
        pool = list(itertools.combinations(range(n), k))
        h = Hypergraph(n, k, rng.sample(pool, rng.randint(0, len(pool))))
        assert from_edge_list(to_edge_list(h)) == h
