"""Property tests: invariants that must hold on every small k-graph."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraph_spectra import macaulay
from hypergraph_spectra.hypergraphs import Hypergraph
from hypergraph_spectra.macaulay import (
    build_macaulay,
    charpoly,
    predicted_coefficient_bits,
)
from hypergraph_spectra.polynomials import UniPoly, numeric_roots, poly_residual
from hypergraph_spectra.spectral import lambda_max


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
@given(_EXACT_CASES)
def test_charpoly_degree_and_relabelling(case):
    h, perm = case
    phi = charpoly(h).phi
    assert phi.degree == h.n * (h.k - 1) ** (h.n - 1)
    assert charpoly(h.relabel(perm)).phi == phi


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


def _whole_matrix_phi(h):
    """phi from one kernel on the dense whole N and one on N' per prime,
    divided mod p and rebuilt by the same CRT: the engine before the block
    split, as a reference for it."""
    mac = build_macaulay(h)
    full = np.zeros((mac.size, mac.size), dtype=np.int64)
    for r, cols in enumerate(mac.rows):
        full[r, list(cols)] = 1
    keep = [i for i, red in enumerate(mac.reduced) if not red]
    minor = full[np.ix_(keep, keep)]
    degree = h.n * (h.k - 1) ** (h.n - 1)
    bits = predicted_coefficient_bits(degree, mac.max_row_sum)
    gen = macaulay._primes_descending(macaulay._prime_bits_for(mac.size))
    primes = []
    while sum(map(math.log2, primes)) < bits + 8:
        primes.append(next(gen))
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
    return UniPoly(enumerate(macaulay._crt_symmetric(primes, residues)))


@settings(max_examples=50, deadline=None)
@given(relabelled_hypergraphs({2: 8, 3: 5}))
def test_block_split_matches_the_whole_matrix(case):
    # disconnected inputs also check the component identity: charpoly
    # combines components, the reference takes the joint matrix
    h, _ = case
    assert charpoly(h).phi == _whole_matrix_phi(h)
