"""Reproduction claim table.

Each claim recomputes one published quantity and compares it against the
expected value; the table is the single source for both the ``repro`` CLI
subcommand and the acceptance test suite.  Claims are gated: ``default``
claims run everywhere, and ``slow`` ones, seconds each, only on request.  A
claim that does not match reports what it computed.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass

from .hypergraphs import (
    Hypergraph,
    complete,
    complete_cylinder,
    disjoint_union,
    single_edge,
    tetra_minus_face,
    ultracube,
)
from .macaulay import _charpoly_direct, charpoly
from .polynomials import UniPoly
from .spectral import (
    cartesian_eigenpair,
    cylinder_spectrum,
    degree_bounds_check,
    greedy_color,
    lambda_max,
    root_of_unity_symmetry,
    single_edge_charpoly,
    ultracube_sporadic,
)
from .traces import coefficients_via_traces, count_simplices

__all__ = ["ClaimResult", "run_all", "run_claims"]


@dataclass
class ClaimResult:
    claim_id: str
    gate: str
    description: str
    expected: str
    computed: str
    match: bool
    seconds: float


_REGISTRY: list = []


def _claim(claim_id: str, gate: str, description: str):
    def register(fn):
        _REGISTRY.append((claim_id, gate, description, fn))
        return fn
    return register


def _poly_repr(p: UniPoly) -> str:
    s = str(p)
    if len(s) <= 64:
        return s
    digest = hashlib.sha256(s.encode()).hexdigest()[:12]
    return f"deg={p.degree}, terms={len(p.coefficients())}, sha256:{digest}"


# -- closed-form characteristic polynomials --------------------------------------


def _single_edge_claim(k):
    want = single_edge_charpoly(k)
    got = charpoly(single_edge(k)).phi
    return _poly_repr(want), _poly_repr(got), want == got


for _k, _form in ((2, "its closed form"), (3, "L^3(L^3-1)^3"),
                  (4, "L^44(L^4-1)^16")):
    _claim(f"single-edge-charpoly-k{_k}", "default",
           f"charpoly of one {_k}-edge equals {_form}")(
        functools.partial(_single_edge_claim, _k))


@_claim("tetra-minus-face-charpoly", "default",
        "charpoly of the tetrahedron minus one face")
def _c_tetra():
    want = (UniPoly({3: 1, 0: -12})
            * UniPoly({6: 1, 3: -2, 0: 5}) ** 3).shift(11)
    got = charpoly(tetra_minus_face()).phi
    return _poly_repr(want), _poly_repr(got), want == got


# -- coefficient identities --------------------------------------------------------


def _codegree_identities(h, phi):
    n, k = h.n, h.k
    top = n * (k - 1) ** (n - 1)
    if phi.degree != top:
        return False
    for cd in (1, 2):
        if phi.coeff_at_codegree(cd) != 0:
            return False
    want3 = -3 * 2 ** (n - 3) * h.num_edges
    if phi.coeff_at_codegree(3) != want3:
        return False
    want4 = -21 * 2 ** (n - 3) * count_simplices(h)
    return phi.coeff_at_codegree(4) == want4


def _all_n4_3graphs():
    pool = list(itertools.combinations(range(4), 3))
    for r in range(len(pool) + 1):
        for edges in itertools.combinations(pool, r):
            yield Hypergraph(4, 3, edges)


@_claim("codegree-identities-n4-exhaustive", "default",
        "codegrees 1,2 vanish; codegree 3 = -3*2^(n-3)*|E|; "
        "codegree 4 = -21*2^(n-3)*simplices, all sixteen 3-graphs on n=4")
def _c_ident4():
    good = total = 0
    for h in _all_n4_3graphs():
        total += 1
        if _codegree_identities(h, charpoly(h).phi):
            good += 1
    return f"{total}/{total} graphs", f"{good}/{total} graphs", good == total


@_claim("codegree-identities-n5-random", "default",
        "same coefficient identities on twenty random 3-graphs with n=5")
def _c_ident5():
    rng = random.Random(50305)
    pool = list(itertools.combinations(range(5), 3))
    good = 0
    for _ in range(20):
        edges = rng.sample(pool, rng.randint(1, len(pool)))
        h = Hypergraph(5, 3, edges)
        if _codegree_identities(h, charpoly(h).phi):
            good += 1
    return "20/20 graphs", f"{good}/20 graphs", good == 20


@_claim("trace-macaulay-agreement-n4", "default",
        "trace-derived coefficients equal charpoly coefficients through "
        "codegree 4 on all sixteen 3-graphs with n=4")
def _c_traces():
    good = total = 0
    for h in _all_n4_3graphs():
        total += 1
        phi = charpoly(h).phi
        via = coefficients_via_traces(h, 4)
        if all(phi.coeff_at_codegree(cd) == via[cd] for cd in range(5)):
            good += 1
    return f"{total}/{total} graphs", f"{good}/{total} graphs", good == total


@_claim("simplex-constant-k4", "slow",
        "codegree-5 coefficient of charpoly(complete(5,4)) over -3 is 588")
def _c_simplex4():
    phi = charpoly(complete(5, 4)).phi
    c5 = phi.coeff_at_codegree(5)
    got, rem = divmod(c5, -3)
    if rem:
        return "588", f"{c5}/-3 not integral", False
    return "588", str(got), got == 588


# -- largest eigenvalue -------------------------------------------------------------


@_claim("lambda-max-complete-3graphs", "default",
        "lambda_max(complete(n,3)) = C(n-1,2) within 1e-8 for n=4,5,6")
def _c_lmax_complete():
    worst = 0.0
    for n in (4, 5, 6):
        rep = lambda_max(complete(n, 3))
        worst = max(worst, abs(rep.value - math.comb(n - 1, 2)))
    return "max error <= 1e-08", f"max error {worst:.2e}", worst <= 1e-8


@_claim("lambda-max-bipartite-cylinders", "default",
        "lambda_max(complete_cylinder([m,n])) = sqrt(mn) within 1e-8")
def _c_lmax_cyl():
    worst = 0.0
    for m, n in ((2, 3), (3, 3), (1, 5)):
        rep = lambda_max(complete_cylinder([m, n]))
        worst = max(worst, abs(rep.value - math.sqrt(m * n)))
    return "max error <= 1e-08", f"max error {worst:.2e}", worst <= 1e-8


def _random_3graph(rng, n, connected):
    pool = list(itertools.combinations(range(n), 3))
    while True:
        edges = rng.sample(pool, rng.randint(1, len(pool)))
        h = Hypergraph(n, 3, edges)
        if not connected or h.is_connected():
            return h


@_claim("lambda-max-degree-sandwich", "default",
        "average degree <= lambda_max <= max degree on 100 random "
        "connected 3-graphs, n <= 8")
def _c_sandwich():
    rng = random.Random(271828)
    good = 0
    for _ in range(100):
        h = _random_3graph(rng, rng.randint(3, 8), connected=True)
        good += degree_bounds_check(h)[3]
    return "100/100 graphs", f"{good}/100 graphs", good == 100


# -- eigenpair verifications ---------------------------------------------------------


@_claim("ultracube-sporadic-3-2", "default",
        "(2^(1/3), piecewise vector) verifies on the 9-vertex ultracube "
        "at tol 1e-10")
def _c_sporadic():
    pair = ultracube_sporadic(3, 2)
    ok = (pair.residual <= 1e-10
          and abs(pair.value - 2 ** (1 / 3)) <= 1e-12)
    return "residual <= 1e-10", f"residual {pair.residual:.2e}", ok


@_claim("cartesian-pairs-single-edge", "default",
        "all 16 spectrum pairs of one 3-edge combine into verified "
        "eigenpairs of the product at tol 1e-10")
def _c_cartesian():
    e3 = single_edge(3)
    zeta = cmath.exp(2j * cmath.pi / 3)
    members = [(0, [1, 0, 0])]
    for t in range(3):
        members.append((zeta ** t, [1, zeta ** t, 1]))
    worst = 0.0
    count = 0
    for (lam, u), (mu, v) in itertools.product(members, repeat=2):
        pair = cartesian_eigenpair(e3, lam, u, e3, mu, v)
        worst = max(worst, pair.residual)
        count += 1
    return "16 pairs, residual <= 1e-10", \
        f"{count} pairs, worst {worst:.2e}", worst <= 1e-10 and count == 16


@_claim("cylinder-2-2-2-witnesses", "default",
        "every cylinder_spectrum([2,2,2]) witness verifies at tol 1e-10")
def _c_cyl222():
    spec = cylinder_spectrum([2, 2, 2])
    worst = max(spec.residuals)
    return "residuals <= 1e-10", \
        f"{len(spec.values)} values, worst {worst:.2e}", worst <= 1e-10


# -- coefficient support symmetry ------------------------------------------------------


@_claim("cylinder-codegree-symmetry", "default",
        "charpolys of complete_cylinder([1,1,2]) and of two disjoint "
        "3-edges are supported on codegrees 0 mod 3")
def _c_symmetry():
    a = charpoly(complete_cylinder([1, 1, 2])).phi
    b = charpoly(disjoint_union(single_edge(3), single_edge(3))).phi
    ok = root_of_unity_symmetry(a, 3) and root_of_unity_symmetry(b, 3)
    return "both supported on codegrees 0 mod 3", \
        "holds" if ok else "violated", ok


# -- disjoint unions ----------------------------------------------------------------


@_claim("disjoint-union-factorization", "default",
        "direct Macaulay charpoly of two disjoint 3-edges equals "
        "(L^3(L^3-1)^3)^16")
def _c_disjoint():
    h = disjoint_union(single_edge(3), single_edge(3))
    want = single_edge_charpoly(3) ** 16
    factored = charpoly(h).phi
    direct = _charpoly_direct(h).phi
    ok = want == factored == direct
    return _poly_repr(want), _poly_repr(direct), ok


# -- coloring ------------------------------------------------------------------------


@_claim("greedy-color-bound", "default",
        "greedy weak coloring is proper and uses at most floor(lambda_max)+1 "
        "colors on 100 random 3-graphs, n <= 8")
def _c_color():
    rng = random.Random(161803)
    good = 0
    for _ in range(100):
        h = _random_3graph(rng, rng.randint(3, 8), connected=False)
        rep = greedy_color(h)
        proper = all(len({rep.colors[v] for v in e}) > 1 for e in h.edges)
        bound = math.floor(lambda_max(h).value + 1e-6) + 1
        if proper and rep.count <= bound:
            good += 1
    return "100/100 graphs", f"{good}/100 graphs", good == 100


# -- the 2-dim 3-ultracube -----------------------------------------------------------


def _q32_printed_product() -> UniPoly:
    # the published factorization lists (L^3-2) twice, with exponents 27
    # and 486; the product below keeps both
    p = UniPoly({3: 1, 0: -1}) ** 18
    p = p * UniPoly({3: 1, 0: -2}) ** 27
    p = p * UniPoly({3: 1, 0: 1}) ** 54
    p = p * UniPoly({3: 1, 0: -2}) ** 486
    return p.shift(549)


@_claim("ultracube-q32-product-consistency", "default",
        "the published charpoly factorization of the 2-dim 3-ultracube has "
        "the right degree and 0 mod 3 codegree support")
def _c_q32_consistency():
    p = _q32_printed_product()
    want = 9 * 2 ** 8
    ok = p.degree == want and root_of_unity_symmetry(p, 3)
    return f"degree {want}, symmetric", \
        f"degree {p.degree}, {'symmetric' if ok else 'asymmetric'}", ok


@_claim("ultracube-q32-charpoly", "slow",
        "direct charpoly of the 2-dim 3-ultracube matches the published "
        "product; matrix size 43758, about 8 s on one core")
def _c_q32():
    got = charpoly(ultracube(3, 2)).phi
    want = _q32_printed_product()
    # a mismatch is reported, not raised; the known one is named exactly:
    # the computed phi has (L^3-8)^27 where the product repeats (L^3-2)
    eight, two = (UniPoly({3: 1, 0: -c}) ** 27 for c in (8, 2))
    if got != want and got * two == want * eight:
        return _poly_repr(want), "published * ((L^3-8)/(L^3-2))^27", False
    return _poly_repr(want), _poly_repr(got), got == want


# -- runners -------------------------------------------------------------------------


def run_claims(ids) -> list:
    """Run the claims in order; an unknown id raises before any claim runs."""
    by_id = {cid: (cid, g, desc, fn) for cid, g, desc, fn in _REGISTRY}
    unknown = [cid for cid in ids if cid not in by_id]
    if unknown:
        raise ValueError(f"unknown claim id {unknown[0]!r}")
    results = []
    for cid in ids:
        cid, gate, desc, fn = by_id[cid]
        start = time.perf_counter()
        try:
            expected, computed, match = fn()
        except Exception as exc:
            expected, computed, match = "completes", f"error: {exc}", False
        results.append(ClaimResult(cid, gate, desc, expected, computed,
                                   bool(match),
                                   time.perf_counter() - start))
    return results


def run_all(include_slow: bool = False) -> list:
    return run_claims([cid for cid, gate, _, _ in _REGISTRY
                       if include_slow or gate != "slow"])
