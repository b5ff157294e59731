import cmath
import itertools
import math
import random

import numpy as np
import pytest

from hypergraph_spectra import spectral
from hypergraph_spectra.errors import GuardError
from hypergraph_spectra.hypergraphs import (
    Hypergraph,
    complete,
    complete_cylinder,
    disjoint_union,
    single_edge,
    ultracube,
)
from hypergraph_spectra.macaulay import charpoly
from hypergraph_spectra.polynomials import UniPoly, numeric_roots, poly_residual
from hypergraph_spectra.spectral import (
    _edge_arrays,
    _link_sums,
    cartesian_eigenpair,
    complete3_spectrum,
    cylinder_spectrum,
    degree_bounds_check,
    greedy_color,
    lambda_max,
    root_of_unity_symmetry,
    single_edge_charpoly,
    subgraph_monotonicity_check,
    ultracube_sporadic,
    verify_eigenpair,
)

TETRA = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


def test_verify_eigenpair_exact_cases():
    h = single_edge(3)
    assert verify_eigenpair(h, 1, [1, 1, 1]) == 0.0
    # indicator of one vertex is an exact null vector for k >= 3
    assert verify_eigenpair(h, 0, [1, 0, 0]) == 0.0
    zeta = cmath.exp(2j * cmath.pi / 3)
    assert verify_eigenpair(h, 1, [1, zeta, zeta ** 2]) < 1e-15


def test_verify_eigenpair_rejects_zero_vector():
    with pytest.raises(ValueError):
        verify_eigenpair(single_edge(3), 1, [0, 0, 0])
    with pytest.raises(ValueError):
        verify_eigenpair(single_edge(3), 1, [1, 1])


def test_verify_eigenpair_rejects_non_finite_input():
    # max() skips a NaN residual term, so NaN must be refused up front
    h = complete(4, 3)
    nan, inf = float("nan"), float("inf")
    for lam, x in ((nan, [nan] * 4), (3, [1, 1, nan, 1]), (nan, [1] * 4),
                   (3, [1, inf, 1, 1]), (3, [1, 1, 1, complex(1, nan)])):
        with pytest.raises(ValueError, match="non-finite"):
            verify_eigenpair(h, lam, x)
    # integers past the double range, as an entry or as the value
    for lam, x in ((3, [10 ** 400, 1, 1, 1]), (10 ** 400, [1] * 4),
                   (3, [1j, 1, 1, 10 ** 400])):
        with pytest.raises(ValueError, match="outside double precision"):
            verify_eigenpair(h, lam, x)
    # n entries, but not one-dimensional; a value that is not a number
    with pytest.raises(ValueError, match=r"shape \(4, 1\)"):
        verify_eigenpair(h, 3, [[1], [1], [1], [1]])
    with pytest.raises(ValueError, match=r"value of shape \(4,\)"):
        verify_eigenpair(h, [3] * 4, [1] * 4)
    assert verify_eigenpair(h, 3, [1, 1, 1, 1]) == 0.0


def test_verify_eigenpair_refuses_overflow():
    # finite entries whose (k-1)-th powers or link sums overflow: the first
    # raised OverflowError, the second hid a NaN term and returned 0.0
    h = complete(4, 3)
    for lam, x in ((3, [1, 1, 1e200, 1]), (1e10, [1e154] * 4),
                   (3, [1, 1e200j, 1, 1])):
        with pytest.raises(ValueError, match="overflows"):
            verify_eigenpair(h, lam, x)
    assert verify_eigenpair(h, 3, [1e100] * 4) == 0.0


def test_verify_eigenpair_scales_residual():
    # doubling a non-eigenvector must not change the scaled residual
    h = single_edge(2)
    r1 = verify_eigenpair(h, 1, [1, 2])
    assert r1 == 0.5
    assert verify_eigenpair(h, 1, [2, 4]) == pytest.approx(r1)


def test_lambda_max_complete_4_3():
    rep = lambda_max(complete(4, 3))
    assert rep.converged
    assert abs(rep.value - 3.0) < 1e-8
    assert rep.lower <= rep.value <= rep.upper
    assert rep.residual < 1e-10
    assert all(v > 0 for v in rep.vector)
    assert sum(v ** 3 for v in rep.vector) == pytest.approx(1.0)


def test_lambda_max_single_edge():
    rep = lambda_max(single_edge(3))
    assert abs(rep.value - 1.0) < 1e-8
    assert rep.residual < 1e-9


def test_lambda_max_tetra_matches_charpoly_root():
    rep = lambda_max(TETRA)
    assert rep.converged
    assert abs(rep.value - 12 ** (1 / 3)) < 1e-8
    phi = charpoly(TETRA).phi
    largest = max(r.real for r, _ in numeric_roots(phi).roots
                  if abs(r.imag) < 1e-9)
    assert abs(rep.value - largest) < 1e-7


def test_lambda_max_bipartite_cylinders():
    assert abs(lambda_max(complete_cylinder([2, 3])).value
               - math.sqrt(6)) < 1e-8
    assert abs(lambda_max(complete_cylinder([3, 3])).value - 3.0) < 1e-8
    assert abs(lambda_max(complete_cylinder([1, 5])).value
               - math.sqrt(5)) < 1e-8


def test_lambda_max_path_graph():
    h = Hypergraph(3, 2, [(0, 1), (1, 2)])
    rep = lambda_max(h)
    assert abs(rep.value - math.sqrt(2)) < 1e-8


def test_lambda_max_edgeless():
    rep = lambda_max(Hypergraph(4, 3, []))
    assert rep.value == 0.0
    assert rep.iterations == 0
    assert rep.converged
    assert rep.width == 0.0


def test_lambda_max_disconnected():
    h = disjoint_union(single_edge(3), complete(4, 3))
    rep = lambda_max(h)
    assert abs(rep.value - 3.0) < 1e-8
    # winning component's vector, padded with zeros elsewhere
    assert all(v == 0 for v in rep.vector[:3])
    assert all(v > 0 for v in rep.vector[3:])
    assert rep.residual < 1e-9


def test_lambda_max_verifies_once(monkeypatch):
    # one check, on the winning component's own edge arrays, so the whole
    # input's are not rebuilt; it equals the padded vector's check on h
    calls = []
    real = spectral.verify_eigenpair

    def counted(h, lam, x):
        calls.append(h.n)
        return real(h, lam, x)

    monkeypatch.setattr(spectral, "verify_eigenpair", counted)
    h = disjoint_union(single_edge(3), complete(4, 3))
    rep = lambda_max(h)
    assert calls == []
    assert rep.residual == real(h, rep.value, rep.vector)


def test_lambda_max_iterates_only_components_with_edges(monkeypatch):
    # isolated vertices 0, 5 and 9 around complete(4,3) and a 3-edge: an
    # edgeless component has only the eigenvalue 0 and is never iterated
    calls = []
    real = spectral._lambda_max_connected

    def recorded(h, arrays, tol, max_iter):
        calls.append((h.n, h.num_edges))
        return real(h, arrays, tol, max_iter)

    monkeypatch.setattr(spectral, "_lambda_max_connected", recorded)
    clique = [tuple(e) for e in itertools.combinations(range(1, 5), 3)]
    rep = lambda_max(Hypergraph(10, 3, clique + [(6, 7, 8)]))
    assert calls == [(4, 4), (3, 1)]
    # the report is the winning component's, padded with zeros, with the
    # iterations summed over the components with edges
    won, edge = lambda_max(complete(4, 3)), lambda_max(single_edge(3))
    assert rep == spectral.LambdaMaxReport(
        won.value, (0.0,) + won.vector + (0.0,) * 5, won.lower, won.upper,
        won.iterations + edge.iterations, True, won.residual)
    # of two equal midpoints, the first component's wins
    twice = lambda_max(disjoint_union(complete(4, 3), complete(4, 3)))
    assert twice.vector == won.vector + (0.0,) * 4


def _random_connected(rng, n, k):
    """A seeded random connected k-graph on n vertices with 2n edges: the
    windows of k consecutive vertices, then random edges."""
    edges = {tuple(range(i, i + k)) for i in range(n - k + 1)}
    while len(edges) < 2 * n:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    h = Hypergraph(n, k, sorted(edges))
    assert len(h.components()) == 1
    return h


def test_lambda_max_array_step_agrees_with_the_float_loop(monkeypatch):
    # the array step rounds some powers and the normalising sum differently
    # from Python floats, so the two paths agree to a tolerance, not in bits
    rng = random.Random(41)
    cut = spectral._ARRAY_MIN_N
    for k in (3, 4, 5):
        for n in (cut - 6, cut - 1, cut, cut + 7, 60):
            h = _random_connected(rng, n, k)
            reports = []
            for bound in (math.inf, 1):
                monkeypatch.setattr(spectral, "_ARRAY_MIN_N", bound)
                reports.append(lambda_max(h))
            floats, arrays = reports
            assert floats.converged and arrays.converged
            assert floats.iterations == arrays.iterations, (k, n)
            for a, b in ((floats.lower, arrays.lower),
                         (floats.upper, arrays.upper)):
                assert abs(a - b) <= 1e-13 * abs(a), (k, n)
            # entries are at most 1: the k-th powers sum to 1
            assert max(abs(a - b) for a, b in
                       zip(floats.vector, arrays.vector)) <= 1e-13, (k, n)
            assert all(type(v) is float for v in arrays.vector)


def test_lambda_max_takes_the_float_loop_below_the_array_size(monkeypatch):
    kinds = []
    real = spectral._link_sums

    def recorded(arrays, x, n):
        kinds.append(type(x))
        return real(arrays, x, n)

    monkeypatch.setattr(spectral, "_link_sums", recorded)
    cut = spectral._ARRAY_MIN_N
    rng = random.Random(43)
    small = lambda_max(_random_connected(rng, cut - 1, 3))
    # a list on every step, then the residual's array
    assert kinds == [list] * small.iterations + [np.ndarray]
    kinds.clear()
    large = lambda_max(_random_connected(rng, cut, 3))
    assert kinds == [np.ndarray] * (large.iterations + 1)


def test_lambda_max_converges_on_periodic_cylinders():
    # a complete cylinder's step map has the eigenvalue -1/(k-1), the
    # negative end that the shift Delta/(2(k-1)) must still damp
    for parts in ([1, 5], [2, 7], [1, 1, 30], [2, 3, 4, 5]):
        rep = lambda_max(complete_cylinder(parts))
        assert rep.converged, parts
        assert abs(rep.value - cylinder_spectrum(parts).max_real()) < 1e-8


def test_lambda_max_encloses_slow_mixing_inputs():
    # a long loose path mixes slowly; a sunflower's core has degree 20
    # against 1 at every petal vertex
    path = Hypergraph(101, 3, [(2 * i, 2 * i + 1, 2 * i + 2)
                               for i in range(50)])
    sunflower = Hypergraph(41, 3, [(0, 2 * i + 1, 2 * i + 2)
                                   for i in range(20)])
    for h in (path, sunflower):
        rep = lambda_max(h)
        fine = lambda_max(h, tol=1e-12)
        assert rep.converged and fine.converged
        assert rep.lower <= fine.value <= rep.upper


def test_lambda_max_encloses_hypertree_closed_forms():
    # Zhang, Kang, Shan and Bai (Linear Algebra Appl. 533, 2017): a loose
    # path of m edges has lambda_max (4cos^2(pi/(m+2)))^(1/k), and m edges
    # through one vertex m^(1/k); at m = 1 and k = 3 the path's float
    # formula rounds 1 up
    for k in (3, 4):
        for m in (2, 5, 20, 50):
            path = Hypergraph(m * (k - 1) + 1, k, [
                tuple(range(i * (k - 1), i * (k - 1) + k)) for i in range(m)])
            rep = lambda_max(path)
            want = (4 * math.cos(math.pi / (m + 2)) ** 2) ** (1 / k)
            assert rep.converged and rep.lower <= want <= rep.upper, (k, m)
        for m in (2, 3, 7):
            star = Hypergraph(m * (k - 1) + 1, k, [
                (0, *range(i * (k - 1) + 1, (i + 1) * (k - 1) + 1))
                for i in range(m)])
            rep = lambda_max(star)
            assert rep.converged, (k, m)
            assert rep.lower <= m ** (1 / k) <= rep.upper, (k, m)


def test_lambda_max_iteration_counts():
    # the shift Delta/(2(k-1)) against the largest degree Delta: the random
    # 3-graph of the CI's lambda-max step took 72 iterations under Delta
    rng = random.Random(1)
    edges = set()
    while len(edges) < 20000:
        edges.add(tuple(sorted(rng.sample(range(3000), 3))))
    rep = lambda_max(Hypergraph(3000, 3, sorted(edges)))
    assert rep.converged and rep.iterations <= 40
    # 200 tiny random 3-graphs, drawn like numeric-small's, took 11991
    # iterations in all under Delta
    rng = random.Random(23)
    pools = {n: list(itertools.combinations(range(n), 3))
             for n in range(6, 15)}
    total = 0
    for _ in range(200):
        n = rng.randint(6, 14)
        rep = lambda_max(Hypergraph(
            n, 3, rng.sample(pools[n], rng.randint(n, 3 * n))))
        assert rep.converged
        total += rep.iterations
    assert total <= 0.55 * 11991


def test_lambda_max_rejects_zero_iterations():
    with pytest.raises(ValueError):
        lambda_max(complete(4, 3), max_iter=0)
    with pytest.raises(ValueError):
        lambda_max(Hypergraph(4, 3, []), max_iter=-1)


def test_lambda_max_rejects_nan_tolerance():
    # NaN compares false with every bound, so no enclosure could ever pass
    with pytest.raises(ValueError, match="tolerance must be positive"):
        lambda_max(complete(4, 3), tol=float("nan"))


def test_link_sums_match_hypermatrix():
    # (A x^(k-1))_i sums x^t over ordered (k-1)-tuples t with (i,)+t an
    # edge; each edge through i appears (k-1)! times
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(3, 7)
        k = rng.randint(2, min(4, n))
        pool = list(itertools.combinations(range(n), k))
        h = Hypergraph(n, k, rng.sample(pool, rng.randint(1, len(pool))))
        for v in range(n):
            scan = tuple(j for j, e in enumerate(h.edges) if v in e)
            assert h.incidence[v] == scan
        comps = h.components()
        if len(comps) == 1:
            assert comps[0][0] is h and comps[0][1] == tuple(range(n))
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        sums = _link_sums(_edge_arrays(h), x, n).tolist()
        for i in range(n):
            total = 0j
            for t in itertools.product(range(n), repeat=k - 1):
                if h.has_edge((i,) + t):
                    total += math.prod(x[u] for u in t)
            assert abs(sums[i] - total / math.factorial(k - 1)) < 1e-12
    h = complete(5, 3)
    assert h.components() == [(h, (0, 1, 2, 3, 4))]
    assert h.components()[0][0] is h


def _link_loop(h, x):
    """The link sums as a loop over h.link(v): the reference the edge
    arrays must match bit for bit."""
    one = x[0] ** 0
    zero = one - one
    sums = []
    for v in range(h.n):
        total = zero
        for rest in h.link(v):
            prod = one
            for u in rest:
                prod *= x[u]
            total += prod
        sums.append(total)
    return sums


def test_link_sums_match_the_link_loop_bit_for_bit():
    rng = random.Random(29)
    # signed zeros and exact values among the random ones
    specials = [0.0, -0.0, 1.0, -1.0, 0.5]

    def entry():
        return (rng.choice(specials) if rng.random() < 0.3
                else rng.uniform(-2, 2))

    for k in (2, 3, 4):
        for _ in range(20):
            n = rng.randint(k, 9)
            pool = list(itertools.combinations(range(n), k))
            h = Hypergraph(n, k, rng.sample(pool, rng.randint(0, len(pool))))
            arrays = _edge_arrays(h)
            real = [entry() for _ in range(n)]
            cplx = [complex(entry(), entry()) for _ in range(n)]
            for x in (real, cplx):
                sums = _link_sums(arrays, x, n).tolist()
                assert type(sums[0]) is type(x[0])
                assert repr(sums) == repr(_link_loop(h, x))


def test_verify_eigenpair_real_kernel_matches_the_complex_one():
    # a real eigenpair runs in float64, its complex form in complex128: the
    # same products up to k = 3; numpy's float ** rounds x^3 and x^4 once,
    # complex ** by repeated products, so k = 4 and 5 agree to rounding
    rng = random.Random(31)
    specials = [0.0, -0.0, 1.0, -1.0, 0.5]
    for k in (2, 3, 4, 5):
        for _ in range(200):
            n = rng.randint(k, 9)
            pool = list(itertools.combinations(range(n), k))
            h = Hypergraph(n, k, rng.sample(pool, rng.randint(0, len(pool))))
            x = [rng.choice(specials) if rng.random() < 0.3
                 else rng.uniform(-2, 2) for _ in range(n)]
            x[0] = x[0] or 1.0
            lam = rng.uniform(-3, 3)
            real = verify_eigenpair(h, lam, x)
            cplx = verify_eigenpair(h, lam, [complex(v) for v in x])
            if k <= 3:
                assert repr(real) == repr(cplx), (k, h.edges, x)
            else:
                assert abs(real - cplx) <= 1e-15 * real, (k, h.edges, x)


def test_verify_eigenpair_takes_any_vector_kind(monkeypatch):
    # small integers: every product is exact, so each kind gives the bits;
    # a real kind reaches the kernel as float64, a complex one as complex128
    dtypes = []
    real = spectral._link_sums

    def recorded(arrays, x, n):
        dtypes.append(x.dtype)
        return real(arrays, x, n)

    monkeypatch.setattr(spectral, "_link_sums", recorded)
    rng = random.Random(37)
    for k in (3, 4):
        h = _random_connected(rng, 9, k)
        x = [rng.randint(-3, 3) for _ in range(h.n)]
        x[0] = 2
        want = verify_eigenpair(h, 5, x)
        assert want > 0
        for vec in (tuple(x), np.array(x, dtype=float), np.array(x),
                    np.array(x, dtype=complex)):
            got = verify_eigenpair(h, 5, vec)
            assert type(got) is float and got == want, (k, type(vec))
    assert dtypes == [np.float64] * 4 + [np.complex128] + [np.float64] * 4 \
        + [np.complex128]


def test_degree_bounds_examples():
    d, lam, top, ok = degree_bounds_check(complete(5, 3))
    assert (d, top, ok) == (6, 6, True)
    assert abs(lam - 6.0) < 1e-7

    d, lam, top, ok = degree_bounds_check(TETRA)
    assert d == pytest.approx(9 / 4)
    assert abs(lam - 12 ** (1 / 3)) < 1e-7
    assert top == 3 and ok

    assert degree_bounds_check(Hypergraph(3, 2, [])) == (0, 0.0, 0, True)


def test_degree_bounds_random():
    rng = random.Random(7)
    pool = list(itertools.combinations(range(6), 3))
    for _ in range(5):
        edges = rng.sample(pool, rng.randint(1, 8))
        h = Hypergraph(6, 3, edges)
        d, lam, top, ok = degree_bounds_check(h)
        assert ok, (d, lam, top)


def _brute_weak_chromatic(h):
    for count in range(1, h.n + 1):
        for colors in itertools.product(range(count), repeat=h.n):
            if set(colors) != set(range(count)):
                continue
            if all(len({colors[v] for v in e}) > 1 for e in h.edges):
                return count
    return h.n


def test_greedy_color_complete_4_3():
    rep = greedy_color(complete(4, 3))
    assert rep.count == 2 == _brute_weak_chromatic(complete(4, 3))
    assert rep.count <= rep.degeneracy + 1
    assert rep.degeneracy <= lambda_max(complete(4, 3)).value + 1e-6


def test_greedy_color_small_cases():
    assert greedy_color(single_edge(2)).count == 2
    assert greedy_color(single_edge(4)).count == 2
    rep = greedy_color(Hypergraph(5, 3, []))
    assert rep.count == 1
    assert rep.degeneracy == 0


def test_greedy_color_random_proper():
    rng = random.Random(11)
    pool = list(itertools.combinations(range(7), 3))
    for _ in range(10):
        edges = rng.sample(pool, rng.randint(1, 20))
        h = Hypergraph(7, 3, edges)
        rep = greedy_color(h)
        for e in h.edges:
            assert len({rep.colors[v] for v in e}) > 1
        assert rep.count <= rep.degeneracy + 1
        assert sorted(rep.order) == list(range(7))


def test_subgraph_monotonicity():
    assert subgraph_monotonicity_check(single_edge(3), TETRA)
    assert subgraph_monotonicity_check(TETRA, TETRA,
                                       embedding=[0, 1, 2, 3])
    assert subgraph_monotonicity_check(Hypergraph(2, 3, []), complete(4, 3))
    with pytest.raises(ValueError):
        subgraph_monotonicity_check(complete(4, 3), TETRA)
    with pytest.raises(ValueError):
        subgraph_monotonicity_check(single_edge(3), TETRA,
                                    embedding=[0, 0, 1])


def test_single_edge_charpoly_closed_form():
    assert single_edge_charpoly(2) == UniPoly({2: 1, 0: -1})
    phi3 = single_edge_charpoly(3)
    assert phi3 == UniPoly({3: 1, 0: -1}) ** 3 * UniPoly({3: 1})
    assert phi3.degree == 3 * 2 ** 2
    phi4 = single_edge_charpoly(4)
    assert phi4.degree == 4 * 3 ** 3
    assert phi4 == UniPoly({4: 1, 0: -1}) ** 16 * UniPoly({44: 1})


def test_single_edge_charpoly_matches_engine():
    for k in (2, 3):
        assert single_edge_charpoly(k) == charpoly(single_edge(k)).phi


def test_single_edge_charpoly_refuses_k7_before_expanding(monkeypatch):
    # degree 7*6^6 = 326592, up to 326594 bits a coefficient: about 12 GiB
    # dense; k = 6, of degree 18750, fits
    def expanded(*args):
        raise AssertionError("the closed form was expanded")

    monkeypatch.setattr(spectral, "UniPoly", expanded)
    with pytest.raises(GuardError) as ei:
        single_edge_charpoly(7)
    est = ei.value.estimate
    assert est["degree"] == 326592 and est["coefficient_bits"] == 326594
    assert est["predicted_bytes"] > est["max_bytes"]


def test_root_of_unity_symmetry():
    assert root_of_unity_symmetry(single_edge_charpoly(3), 3)
    assert root_of_unity_symmetry(charpoly(TETRA).phi, 3)
    assert not root_of_unity_symmetry(UniPoly({2: 1, 1: -1}), 2)
    assert not root_of_unity_symmetry(single_edge_charpoly(3), 2)


def _value_set(spec, tol=1e-8):
    out = []
    for v in spec.values:
        out.append(complex(round(v.real, 6), round(v.imag, 6)))
    return out


def test_cylinder_spectrum_bipartite():
    spec = cylinder_spectrum([2, 3])
    got = sorted(spec.real_values)
    want = sorted([-math.sqrt(6), 0.0, math.sqrt(6)])
    assert len(got) == len(want)
    assert all(abs(a - b) < 1e-9 for a, b in zip(got, want))
    for r in spec.residuals:
        assert r < 1e-9


def test_cylinder_spectrum_single_2_edge_has_no_zero():
    spec = cylinder_spectrum([1, 1])
    assert sorted(spec.real_values) == pytest.approx([-1.0, 1.0])


def test_cylinder_spectrum_single_3_edge():
    # complete cylinder with unit parts is a single edge
    spec = cylinder_spectrum([1, 1, 1])
    phi = single_edge_charpoly(3)
    assert len(spec.values) == 4  # 0 and the three cube roots of unity
    for v, r in zip(spec.values, spec.residuals):
        assert r < 1e-12
        assert poly_residual(phi, v) < 1e-9


def test_cylinder_spectrum_against_charpoly():
    parts = [1, 1, 2]
    spec = cylinder_spectrum(parts)
    assert all(r < 1e-9 for r in spec.residuals)
    phi = charpoly(complete_cylinder(parts)).phi
    for v in spec.values:
        assert poly_residual(phi, v) < 1e-6
    # largest eigenvalue is attained with all phases equal
    rep = lambda_max(complete_cylinder(parts))
    assert abs(spec.max_real() - rep.value) < 1e-7


def test_cylinder_spectrum_regular():
    spec = cylinder_spectrum([2, 2, 2])
    assert abs(spec.max_real() - 4.0) < 1e-9
    assert all(r < 1e-9 for r in spec.residuals)


def test_cylinder_spectrum_descriptions_keep_their_order():
    # the phase counts of each part run in ascending lex order
    assert cylinder_spectrum([1, 1, 2]).descriptions == (
        "0", "rot0 of (-1,-1,-2)^(2/3)", "rot1 of (-1,-1,-2)^(2/3)",
        "rot2 of (-1,-1,-2)^(2/3)")
    w = "-1-1.73205i"
    sums = [(w, w, w, w), (w, w, w, "-1"), (w, w, "-1", "-1"),
            (w, "-1", "-1", "-1"), ("-1", "-1", "-1", "-1")]
    assert cylinder_spectrum([2, 2, 2, 2]).descriptions == ("0",) + tuple(
        f"rot{t} of ({','.join(m)})^(3/4)" for m in sums for t in range(4))


class _Admitted(Exception):
    pass


def test_cylinder_spectrum_guard(monkeypatch):
    # it prices the phase assignments and the witness checks, k values an
    # assignment, each on (k-1)*k*m link products, before building anything
    def admitted(sizes):
        raise _Admitted

    monkeypatch.setattr(spectral, "complete_cylinder", admitted)
    # prices past double precision are named, not converted to floats
    for parts in ([40, 40, 40, 40, 40], [2] * 200):
        with pytest.raises(GuardError):
            cylinder_spectrum(parts)
    with pytest.raises(GuardError) as refused:
        cylinder_spectrum([1, 700, 700])  # 982802 assignments, 490000 edges
    est = refused.value.estimate
    assert est["predicted_ops"] == 3 * 982802 * 2 * 3 * 490000
    assert est["predicted_ops"] > est["max_kernel_ops"]
    assert est["assignments"] <= est["guard"]
    # the assignments cap still bounds the enumeration itself: 10 edges
    with pytest.raises(GuardError) as refused:
        cylinder_spectrum([1, 1, 1, 1, 1, 10])
    est = refused.value.estimate
    assert est["assignments"] == 5 ** 5 * math.comb(14, 4) > est["guard"]
    assert est["predicted_ops"] <= est["max_kernel_ops"]
    # every cylinder the claims, tests and CI use, and [1,60,60], passes
    for parts in ([1, 1], [1, 5], [2, 3], [2, 7], [3, 3], [1, 1, 1],
                  [1, 1, 2], [1, 1, 30], [1, 2, 3], [2, 2, 2], [2, 2, 3],
                  [1, 3, 3], [2, 2, 2, 2], [2, 3, 4, 5], [1, 60, 60]):
        with pytest.raises(_Admitted):
            cylinder_spectrum(parts)
    monkeypatch.setattr(spectral, "_MAX_KERNEL_OPS", 10 ** 8)
    with pytest.raises(GuardError) as refused:
        cylinder_spectrum([2, 3, 4, 5])
    assert refused.value.estimate["predicted_ops"] == 4 * 18900 * 3 * 4 * 120


def test_cylinder_rejects_non_integral_part_sizes(monkeypatch):
    # int() truncated 2.5 and 1.9 and overflowed on inf; the sizes are now
    # refused before the guard prices them or any phase is enumerated
    calls = []
    for name in ("enumerate_monomials", "complete_cylinder"):
        monkeypatch.setattr(spectral, name, lambda *a: calls.append(a))
    for parts in ([2, 2.5], [1, 1.9], [2, math.inf], [2, math.nan],
                  [40, 40, 40, 40, 40.5]):
        with pytest.raises(ValueError, match="not all positive integers"):
            complete_cylinder(parts)
        with pytest.raises(ValueError, match="not all positive integers"):
            cylinder_spectrum(parts)
    assert calls == []


def test_complete3_spectrum_n3():
    spec = complete3_spectrum(3)
    phi = single_edge_charpoly(3)
    assert len(spec.values) == 4
    for v, r in zip(spec.values, spec.residuals):
        assert r < 1e-7
        assert poly_residual(phi, v) < 1e-8


def test_complete3_spectrum_n4():
    spec = complete3_spectrum(4)
    vals = _value_set(spec)
    for expected in (0, 1, 3, -1):
        assert any(abs(v - expected) < 1e-6 for v in vals), expected
    phi = charpoly(complete(4, 3)).phi
    for v, r in zip(spec.values, spec.residuals):
        assert r < 1e-7
        assert poly_residual(phi, v) < 1e-6


def test_complete3_spectrum_n5_verified():
    for n, distinct in ((5, 8), (6, 9), (7, 11)):
        spec = complete3_spectrum(n)
        assert len(spec.values) == distinct, n
        assert any(abs(v - math.comb(n - 1, 2)) < 1e-9 for v in spec.values)
        assert all(r < 1e-14 for r in spec.residuals), n
    phi = charpoly(complete(5, 3)).phi
    assert all(poly_residual(phi, v) < 1e-12
               for v in complete3_spectrum(5).values)


def test_cartesian_eigenpair():
    e3 = single_edge(3)
    pair = cartesian_eigenpair(e3, 1, [1, 1, 1], e3, 1, [1, 1, 1])
    assert pair.value == pytest.approx(2.0)
    assert len(pair.vector) == 9
    assert pair.residual < 1e-12

    pair = cartesian_eigenpair(e3, 1, [1, 1, 1], e3, 0, [1, 0, 0])
    assert pair.value == pytest.approx(1.0)
    assert pair.residual < 1e-12

    with pytest.raises(ValueError):
        cartesian_eigenpair(e3, 2, [1, 1, 1], e3, 1, [1, 1, 1])


def test_ultracube_sporadic():
    pair = ultracube_sporadic(3, 2)
    assert abs(pair.value - 2 ** (1 / 3)) < 1e-12
    assert len(pair.vector) == 9
    assert pair.residual < 1e-12

    assert abs(ultracube_sporadic(3, 3).value - 3 ** (1 / 3)) < 1e-12
    assert ultracube_sporadic(3, 3).residual < 1e-12
    assert abs(ultracube_sporadic(4, 2).value - 2 ** 0.25) < 1e-12
    assert ultracube_sporadic(4, 2).residual < 1e-12


def test_ultracube_sporadic_rejects_small_cases():
    with pytest.raises(ValueError):
        ultracube_sporadic(2, 2)
    with pytest.raises(ValueError):
        ultracube_sporadic(3, 1)


def test_sporadic_value_lies_on_its_factor():
    # the full ultracube charpoly is out of budget here; the value belongs
    # to the factor L^3 - 2
    pair = ultracube_sporadic(3, 2)
    assert poly_residual(UniPoly({3: 1, 0: -2}), pair.value) < 1e-12
