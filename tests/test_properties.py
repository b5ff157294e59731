"""Property tests: invariants that must hold on every small k-graph."""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergraph_spectra import macaulay
from hypergraph_spectra.hypergraphs import Hypergraph, complete
from hypergraph_spectra.macaulay import (
    build_macaulay,
    charpoly,
    predicted_coefficient_bits,
)
from hypergraph_spectra.polynomials import UniPoly, numeric_roots, poly_residual
from hypergraph_spectra.spectral import (
    greedy_color,
    lambda_max,
    verify_eigenpair,
)
from hypergraph_spectra.traces import generalized_trace
from test_macaulay import _power_sums


@st.composite
def relabelled_hypergraphs(draw, max_n):
    """A random k-graph on 3..max_n[k] vertices, for k a key of max_n,
    and a permutation of its vertices."""
    k = draw(st.sampled_from(sorted(max_n)))
    n = draw(st.integers(max(3, k), max_n[k]))
    pool = list(itertools.combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(pool), unique=True))
    perm = draw(st.permutations(range(n)))
    return Hypergraph(n, k, edges), perm


# phi has degree n(k-1)^(n-1): these caps keep it at 32 or below
_EXACT_CASES = relabelled_hypergraphs({2: 8, 3: 4})


@settings(max_examples=50, deadline=None)
@given(relabelled_hypergraphs({2: 8, 3: 8, 4: 8}))
def test_relabelling_keeps_degrees_and_lambda_max(case):
    h, perm = case
    g = h.relabel(perm)
    assert g.degrees() == h.degrees()
    assert sorted(map(len, g.incidence)) == sorted(map(len, h.incidence))
    assert abs(lambda_max(g).value - lambda_max(h).value) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(relabelled_hypergraphs({2: 8, 3: 8, 4: 8}))
def test_lambda_max_sandwich_enclosure_and_residual(case):
    # connected and disconnected inputs alike
    h, _ = case
    rep = lambda_max(h)
    _, davg, dmax = h.degrees()
    assert float(davg) - 1e-6 <= rep.value <= dmax + 1e-6
    assert rep.lower <= rep.value <= rep.upper
    assert verify_eigenpair(h, rep.value, rep.vector) == rep.residual


def _min_scan_coloring(h):
    """(order, degeneracy, colors) of a smallest-last order found by an
    O(n^2) min scan, then the greedy pass: the reference for greedy_color's
    heap."""
    n = h.n
    removed = [False] * n
    edge_alive = [True] * len(h.edges)
    degree = [len(idxs) for idxs in h.incidence]
    order = []
    degeneracy = 0
    for _ in range(n):
        v = min((u for u in range(n) if not removed[u]),
                key=lambda u: (degree[u], u))
        degeneracy = max(degeneracy, degree[v])
        order.append(v)
        removed[v] = True
        for idx in h.incidence[v]:
            if edge_alive[idx]:
                edge_alive[idx] = False
                for u in h.edges[idx]:
                    if not removed[u]:
                        degree[u] -= 1
    colors = {}
    for v in reversed(order):
        forbidden = set()
        for idx in h.incidence[v]:
            others = [u for u in h.edges[idx] if u != v]
            if all(u in colors for u in others):
                cs = {colors[u] for u in others}
                if len(cs) == 1:
                    forbidden.add(next(iter(cs)))
        c = 1
        while c in forbidden:
            c += 1
        colors[v] = c
    return tuple(order), degeneracy, colors


@st.composite
def graphs_with_isolated_vertices(draw, max_n):
    """A random k-graph, k = 2..4, on at most max_n[k] vertices, whose
    edges avoid a drawn number of them, under a random relabelling."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, max_n[k]))
    active = draw(st.integers(k, n))
    pool = list(itertools.combinations(range(active), k))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=40))
    return Hypergraph(n, k, edges).relabel(draw(st.permutations(range(n))))


def _union_find_components(h):
    """components() by union-find: the components in order of their
    smallest vertex, each relabelled in ascending vertex order."""
    root = list(range(h.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for e in h.edges:
        for u in e[1:]:
            root[find(u)] = find(e[0])
    groups = {}
    for v in range(h.n):
        groups.setdefault(find(v), []).append(v)
    out = []
    for verts in groups.values():
        pos = {v: i for i, v in enumerate(verts)}
        edges = [tuple(pos[u] for u in e) for e in h.edges if e[0] in pos]
        out.append((Hypergraph(len(verts), h.k, edges), tuple(verts)))
    return out


@settings(max_examples=100, deadline=None)
@given(graphs_with_isolated_vertices({2: 12, 3: 12, 4: 12}))
@example(complete(5, 3))
def test_components_match_union_find(h):
    comps = h.components()
    ref = _union_find_components(h)
    assert comps == ref
    assert [sub.edge_array.tolist() for sub, _ in comps] == [
        sub.edge_array.tolist() for sub, _ in ref]
    if len(ref) == 1:
        assert comps[0][0] is h


@settings(max_examples=100, deadline=None)
@given(graphs_with_isolated_vertices({2: 12, 3: 12, 4: 12}))
# a 6-cycle: every degree ties at every step
@example(Hypergraph(6, 2, [(i, (i + 1) % 6) for i in range(6)]))
def test_greedy_color_matches_the_min_scan(h):
    rep = greedy_color(h)
    assert (rep.order, rep.degeneracy, rep.colors) == _min_scan_coloring(h)


@settings(max_examples=50, deadline=None)
@given(_EXACT_CASES)
def test_charpoly_degree_and_relabelling(case):
    h, perm = case
    n, k = h.n, h.k
    phi = charpoly(h).phi
    assert phi.degree == n * (k - 1) ** (n - 1)
    assert charpoly(h.relabel(perm)).phi == phi
    # codegrees 1..k-1 vanish, and codegree k counts the edges
    assert all(phi.coeff_at_codegree(d) == 0 for d in range(1, k))
    assert phi.coeff_at_codegree(k) == (-(k ** (k - 2)) * (k - 1) ** (n - k)
                                        * h.num_edges)


@settings(max_examples=50, deadline=None)
@given(_EXACT_CASES)
def test_lambda_max_is_the_largest_root_of_phi(case):
    # the one link between the numeric layer and the exact one
    h, _ = case
    phi = charpoly(h).phi
    lam = lambda_max(h).value
    assert poly_residual(phi, lam) <= 1e-8
    top = max(abs(z) for z, _ in numeric_roots(phi).roots)
    assert abs(top - lam) <= 1e-6


def _crt_symmetric(primes, residues) -> list:
    """The integers in the symmetric range that have the given residues."""
    coeffs = [int(v) for v in residues[0]]
    modulus = primes[0]
    for p, res in zip(primes[1:], residues[1:]):
        minv = pow(modulus % p, p - 2, p)
        for idx, v in enumerate(res):
            coeffs[idx] += modulus * ((int(v) - coeffs[idx]) * minv % p)
        modulus *= p
    half = modulus // 2
    return [v - modulus if v > half else v for v in coeffs]


def _whole_matrix_phi(h):
    """phi from one kernel on the dense whole N and one on N' per prime,
    divided mod p and rebuilt by CRT over every prime the coefficient bound
    asks for: the engine before the block split and the early stop, as a
    reference for both."""
    mac = build_macaulay(h)
    full = np.zeros((mac.size, mac.size), dtype=np.int64)
    for r, cols in enumerate(mac.rows):
        full[r, list(cols)] = 1
    keep = [i for i, red in enumerate(mac.reduced) if not red]
    minor = full[np.ix_(keep, keep)]
    degree = h.n * (h.k - 1) ** (h.n - 1)
    bits = predicted_coefficient_bits(degree, mac.max_row_sum)
    primes = []
    while sum(map(math.log2, primes)) < bits + 8:
        primes.append(macaulay._prime(len(primes)))
    residues = []
    for p in primes:
        num = macaulay._charpoly_mod_prime(full, p)
        den = macaulay._charpoly_mod_prime(minor, p)
        dd = len(den) - 1
        quot = [0] * (len(num) - dd)
        for e in reversed(range(len(quot))):
            quot[e] = q = int(num[e + dd])
            num[e:e + dd + 1] = (num[e:e + dd + 1] - q * den) % p
        assert not num[:dd].any()
        residues.append(quot)
    return UniPoly(enumerate(_crt_symmetric(primes, residues)))


@settings(max_examples=50, deadline=None)
@given(relabelled_hypergraphs({2: 8, 3: 5}))
def test_block_split_matches_the_whole_matrix(case):
    # disconnected inputs also check the component identity: charpoly
    # combines components, the reference takes the joint matrix
    h, _ = case
    assert charpoly(h).phi == _whole_matrix_phi(h)


@settings(max_examples=50, deadline=None)
@given(graphs_with_isolated_vertices({2: 6, 3: 5, 4: 4}))
@example(Hypergraph(3, 2))
def test_generalized_trace_is_a_power_sum(h):
    # the trace sums over every split of d among the vertices with edges;
    # matrix powers of N and N' give the same power sums
    assert [generalized_trace(h, d) for d in range(1, 5)] == _power_sums(h, 4)
