"""Acceptance gate: one test per published claim group.

Every test prints a single criterion line (visible with -s, or in the
captured output on failure) and asserts that the underlying reproduction
claims match.  Exact claims compare polynomials over the integers; numeric
claims state their tolerance in the claim itself.
"""

import pytest

from hypergraph_spectra import repro


def _check(criterion: str, ids):
    rows = repro.run_claims(ids)
    ok = all(r.match for r in rows)
    detail = "; ".join(
        f"{r.claim_id} [{r.computed}] {r.seconds:.2f}s" for r in rows)
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail
    return rows


def test_c01_single_edge_charpolys_exact():
    """Closed-form charpoly of one k-edge for k = 2, 3, 4; exact equality."""
    _check("1", ["single-edge-charpoly-k2",
                 "single-edge-charpoly-k3",
                 "single-edge-charpoly-k4"])


def test_c02_tetra_minus_face_exact():
    """charpoly = L^11 (L^3-12)(L^6-2L^3+5)^3 expanded; exact equality."""
    _check("2", ["tetra-minus-face-charpoly"])


def test_c03_codegree_identities():
    """Codegrees 1,2 vanish; codegree 3 and 4 closed forms; exact, all
    sixteen n=4 3-graphs plus twenty random n=5 3-graphs."""
    _check("3", ["codegree-identities-n4-exhaustive",
                 "codegree-identities-n5-random"])


def test_c04_trace_macaulay_agreement():
    """Trace-derived coefficients equal Macaulay coefficients exactly for
    codegrees 0..4 on every n=4 3-graph."""
    _check("4", ["trace-macaulay-agreement-n4"])


@pytest.mark.slow
def test_c05_simplex_constant_k4():
    """Codegree-5 coefficient of charpoly(complete(5,4)) over -3 equals 588;
    exact; the slowest claim (about 4 seconds on one core)."""
    _check("5", ["simplex-constant-k4"])


def test_c06_lambda_max_values_and_sandwich():
    """lambda_max matches closed forms within 1e-8 and the degree sandwich
    holds on 100 random connected 3-graphs."""
    _check("6", ["lambda-max-complete-3graphs",
                 "lambda-max-bipartite-cylinders",
                 "lambda-max-degree-sandwich"])


def test_c07_eigenpair_verifications():
    """Sporadic, cartesian-pair, and cylinder witnesses verify at 1e-10."""
    _check("7", ["ultracube-sporadic-3-2",
                 "cartesian-pairs-single-edge",
                 "cylinder-2-2-2-witnesses"])


def test_c08_cylinder_codegree_symmetry():
    """Multipartite charpolys supported only on codegrees 0 mod 3; exact."""
    _check("8", ["cylinder-codegree-symmetry"])


def test_c09_disjoint_union_factorization():
    """Direct 792x792 Macaulay charpoly of two disjoint 3-edges equals the
    component factorization (L^3(L^3-1)^3)^16; exact."""
    _check("9", ["disjoint-union-factorization"])


def test_c10_ultracube_product_consistency():
    """Published 2-dim 3-ultracube factorization is degree 2304 and
    symmetric."""
    _check("10", ["ultracube-q32-product-consistency"])


@pytest.mark.slow
def test_c10_ultracube_charpoly_differs_exactly():
    """The direct 43758-row computation (about 8 s on one core) differs
    from the published product by exactly ((L^3-8)/(L^3-2))^27; the claim
    records that difference and does not match."""
    (row,) = repro.run_claims(["ultracube-q32-charpoly"])
    print(f"criterion 10 (charpoly): DIFFERS -- {row.computed} "
          f"in {row.seconds:.0f}s")
    assert row.gate == "slow" and not row.match
    assert row.expected == "deg=2304, terms=586, sha256:ad86275825b8"
    assert row.computed == "published * ((L^3-8)/(L^3-2))^27"


def test_c11_greedy_color_bound():
    """Greedy weak coloring proper with count <= floor(lambda_max)+1 on 100
    random 3-graphs."""
    _check("11", ["greedy-color-bound"])


_DEFAULT_GATE = [
    "single-edge-charpoly-k2", "single-edge-charpoly-k3",
    "single-edge-charpoly-k4", "tetra-minus-face-charpoly",
    "codegree-identities-n4-exhaustive", "codegree-identities-n5-random",
    "trace-macaulay-agreement-n4", "lambda-max-complete-3graphs",
    "lambda-max-bipartite-cylinders", "lambda-max-degree-sandwich",
    "ultracube-sporadic-3-2", "cartesian-pairs-single-edge",
    "cylinder-2-2-2-witnesses", "cylinder-codegree-symmetry",
    "disjoint-union-factorization", "greedy-color-bound",
    "ultracube-q32-product-consistency",
]


def test_run_all_passes_the_gated_ids_in_table_order(monkeypatch):
    calls = []
    monkeypatch.setattr(repro, "run_claims",
                        lambda ids: calls.append(list(ids)) or [])
    assert repro.run_all() == []
    assert repro.run_all(include_slow=True) == []
    everything = list(_DEFAULT_GATE)
    everything.insert(everything.index("lambda-max-complete-3graphs"),
                      "simplex-constant-k4")
    everything.append("ultracube-q32-charpoly")
    assert calls == [_DEFAULT_GATE, everything]
