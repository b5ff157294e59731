"""Property tests: invariants that must hold on every small k-graph."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraph_spectra.hypergraphs import Hypergraph
from hypergraph_spectra.spectral import lambda_max


@st.composite
def relabelled_hypergraphs(draw):
    """A random k-graph on 3..8 vertices and a permutation of its vertices."""
    n = draw(st.integers(3, 8))
    k = draw(st.integers(2, min(4, n)))
    pool = list(itertools.combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(pool), unique=True))
    perm = draw(st.permutations(range(n)))
    return Hypergraph(n, k, edges), perm


@settings(max_examples=50, deadline=None)
@given(relabelled_hypergraphs())
def test_relabelling_keeps_degrees_and_lambda_max(case):
    h, perm = case
    g = h.relabel(perm)
    assert g.degrees() == h.degrees()
    assert sorted(map(len, g.incidence)) == sorted(map(len, h.incidence))
    assert abs(lambda_max(g).value - lambda_max(h).value) <= 1e-9
