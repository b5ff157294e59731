import ast
import glob
import importlib.util
import itertools
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import hypergraph_spectra
from hypergraph_spectra import macaulay
from hypergraph_spectra.errors import GuardError
from hypergraph_spectra.hypergraphs import (
    Hypergraph,
    complete,
    complete_cylinder,
    disjoint_union,
    single_edge,
    tetra_minus_face,
    ultracube,
)
from hypergraph_spectra.macaulay import (
    _charpoly_direct,
    build_macaulay,
    charpoly,
    predicted_coefficient_bits,
)
from hypergraph_spectra.polynomials import UniPoly
from hypergraph_spectra.traces import (
    generalized_trace,
    int_determinant,
    schur_coefficients,
)


def _charpoly_by_permanent_expansion(h):
    """Leibniz-formula characteristic polynomial for k=2, as an oracle."""
    assert h.k == 2
    n = h.n
    lam = UniPoly({1: 1})
    entries = {}
    for i in range(n):
        entries[(i, i)] = lam
    for (a, b) in h.edges:
        entries[(a, b)] = UniPoly({0: -1})
        entries[(b, a)] = UniPoly({0: -1})
    total = UniPoly()
    for perm in itertools.permutations(range(n)):
        term = UniPoly.one()
        ok = True
        for i in range(n):
            e = entries.get((i, perm[i]))
            if e is None:
                ok = False
                break
            term = term * e
        if not ok:
            continue
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def _power_sums(h, count):
    """tr(N^d) - tr(N'^d) for d = 1..count: the power sums of phi's roots,
    from matrix powers alone, with no determinant engine.
    """
    mac = build_macaulay(h)
    keep = [i for i, red in enumerate(mac.reduced) if not red]
    keep_pos = {i: pos for pos, i in enumerate(keep)}
    minor_rows = [[keep_pos[c] for c in mac.rows[i] if c in keep_pos]
                  for i in keep]

    def power_traces(rows):
        m = len(rows)
        power = [[int(i == j) for j in range(m)] for i in range(m)]
        out = []
        for _ in range(count):
            nxt = [[0] * m for _ in range(m)]
            for prow, nrow in zip(power, nxt):
                for j, v in enumerate(prow):
                    if v:
                        for c in rows[j]:
                            nrow[c] += v
            power = nxt
            out.append(sum(power[i][i] for i in range(m)))
        return out

    return [a - b for a, b in zip(power_traces(mac.rows),
                                  power_traces(minor_rows))]


def _charpoly_by_power_sums(h):
    """phi from its power sums by Newton's identities, as an oracle that
    uses no determinant engine.
    """
    degree = h.n * (h.k - 1) ** (h.n - 1)
    coeffs = schur_coefficients(_power_sums(h, degree))
    assert all(c.denominator == 1 for c in coeffs)
    return UniPoly({degree: 1, **{degree - d: int(c)
                                  for d, c in enumerate(coeffs, 1)}})


def test_int_determinant_small():
    assert int_determinant([[2]]) == 2
    assert int_determinant([[1, 2], [3, 4]]) == -2
    assert int_determinant([[0, 1], [1, 0]]) == -1
    assert int_determinant([[1, 2], [2, 4]]) == 0
    assert int_determinant([]) == 1
    # 4x4 with a zero diagonal, forces pivoting
    m = [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
    # cross-check against numpy rounding
    assert int_determinant(m) == round(np.linalg.det(np.array(m, float)))


def test_int_determinant_random_vs_numpy():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        want = round(np.linalg.det(np.array(m, float)))
        assert int_determinant(m) == want


def test_build_shapes_single_edge():
    mac = build_macaulay(single_edge(3))
    assert mac.size == math.comb(6, 2) == 15
    assert mac.reduced_count == 3 * 2 ** 2 == 12
    assert mac.max_row_sum == 1
    # every row col set is disjoint from the diagonal
    for r, cols in enumerate(mac.rows):
        assert r not in cols


def test_build_shapes_k2():
    # k=2 recovers the adjacency matrix: all monomials reduced
    path = Hypergraph(3, 2, [(0, 1), (1, 2)])
    mac = build_macaulay(path)
    assert mac.size == 3
    assert mac.reduced_count == 3
    got = {(r, c) for r, cols in enumerate(mac.rows) for c in cols}
    # monomials are unit vectors in descending lex: x0, x1, x2
    assert got == {(0, 1), (1, 0), (1, 2), (2, 1)}


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(macaulay, name)
    monkeypatch.setattr(macaulay, name,
                        lambda *a: calls.append(1) or real(*a))
    return calls


def test_guard_raises_with_estimate(monkeypatch):
    # complete(6,4): 8 distinct blocks of up to 3187 rows whose bounds ask
    # for 348 primes, about 8.5e12 kernel operations with a held-out prime
    # each; refused before a block is made dense
    dense = _count_calls(monkeypatch, "_dense")
    kernels = _count_calls(monkeypatch, "_charpoly_mod_prime")
    with pytest.raises(GuardError) as ei:
        charpoly(complete(6, 4))
    est = ei.value.estimate
    assert set(est) == {"predicted_bytes", "predicted_ops", "max_bytes",
                        "max_kernel_ops", "largest_block", "distinct_blocks",
                        "bound_primes"}
    assert est["predicted_ops"] > est["max_kernel_ops"]
    assert est["largest_block"] == 3187 and est["distinct_blocks"] == 8
    assert est["bound_primes"] == 348
    assert dense == [] and kernels == []
    # the sparse build is refused before any monomial is enumerated:
    # ultracube(3,3) would have C(54, 26) rows
    monomials = _count_calls(monkeypatch, "enumerate_monomials")
    with pytest.raises(GuardError) as ei:
        build_macaulay(ultracube(3, 3))
    est = ei.value.estimate
    assert est["matrix_size"] == math.comb(54, 26)
    assert est["predicted_bytes"] > est["max_bytes"]
    assert monomials == []


def test_guard_prices_phi_before_any_matrix(monkeypatch):
    # complete(5,4) with six isolated vertices: phi(complete(5,4))^729, of
    # degree 649539, coefficients of up to 1.5e6 bits; ultracube(3,3):
    # degree 27*2^26, priced in O(1); a 3-edge with 1097 isolated vertices:
    # degree 1100*2^1099, past the largest float, priced exactly
    builds = _count_calls(monkeypatch, "build_macaulay")
    monkeypatch.setattr(macaulay, "_charpoly_mod_prime", _past_the_guard)
    for h in [disjoint_union(complete(5, 4), Hypergraph(6, 4, [])),
              ultracube(3, 3), Hypergraph(1100, 3, [(0, 1, 2)])]:
        with pytest.raises(GuardError) as ei:
            charpoly(h)
        est = ei.value.estimate
        assert est["degree"] == h.n * (h.k - 1) ** (h.n - 1)
        assert est["predicted_bytes"] > est["max_bytes"]
    assert builds == []


def test_multi_part_guard_refuses_before_any_kernel(monkeypatch):
    # e3 and complete(8,3): the blocks of both components are priced
    # together, so complete(8,3)'s 1.6e14 operations refuse the job before
    # a kernel runs on e3's blocks
    monkeypatch.setattr(macaulay, "_charpoly_mod_prime", _past_the_guard)
    with pytest.raises(GuardError) as ei:
        charpoly(disjoint_union(single_edge(3), complete(8, 3)))
    est = ei.value.estimate
    assert est["predicted_ops"] > est["max_kernel_ops"]


def test_isomorphic_components_share_lifts():
    # K4^3 twice: both components have one matrix, whose blocks are lifted
    # once; phi = (phi_1^(2^4))^2, and the timings sum the block counts
    one = charpoly(complete(4, 3))
    two = charpoly(disjoint_union(complete(4, 3), complete(4, 3)))
    assert two.method == "disjoint" and one.method == "modular"
    assert two.phi == one.phi ** 32
    assert two.matrix_size == 2 * one.matrix_size
    assert two.reduced_size == 2 * one.reduced_size
    t1, t2 = one.timings, two.timings
    for key in ("blocks", "cancelled_blocks"):
        assert t2[key] == 2 * t1[key]
    for key in ("largest_block", "distinct_blocks", "bound_primes",
                "crt_mode", "primes", "kernel_calls", "kernel_ops"):
        assert t2[key] == t1[key]
    assert set(t2) == set(t1)


class PastTheGuard(Exception):
    pass


def _past_the_guard(*args):
    raise PastTheGuard


@pytest.mark.parametrize("h", [ultracube(3, 2), complete(7, 3)],
                         ids=["ultracube(3,2)", "complete(7,3)"])
def test_guard_admits_large_inputs(monkeypatch, h):
    # the first block's first kernel would run next; none does here
    monkeypatch.setattr(macaulay, "_charpoly_mod_prime", _past_the_guard)
    with pytest.raises(PastTheGuard):
        charpoly(h)


def test_prime_table_is_every_prime_below_2_25():
    # the primes every lift has folded, largest first; by trial division
    # here, each of the first 100 entries is prime and every odd number
    # between two consecutive ones, or above the first, is not
    table = [macaulay._prime(i) for i in range(100)]
    assert table[:6] == [33554393, 33554383, 33554371, 33554347, 33554341,
                         33554317]
    assert table[29] == 33553901

    def odd_prime(q):
        return all(q % d for d in range(3, math.isqrt(q) + 1, 2))

    assert all(map(odd_prime, table))
    for hi, lo in zip([1 << 25, *table], table):
        assert not any(map(odd_prime, range(lo + 2, hi, 2)))


def test_bytes_guard_keeps_kernels_in_int64():
    # a kernel on s rows sums s products of two residues below 2^25, below
    # 2^63 for s < 2^13; the dense-bytes guard prices the largest block, of
    # s rows, at 8*(s^2 + 4*s^2) bytes, so it refuses 2^13 rows
    assert 40 * (1 << 13) ** 2 > macaulay._MAX_BYTES
    with pytest.raises(GuardError) as ei:
        macaulay._guard_blocks({tuple((i,) for i in range(1 << 13)): 1})
    assert ei.value.estimate["predicted_bytes"] > macaulay._MAX_BYTES
    # one block is dense at a time: the others add nothing to the bytes
    net, _ = macaulay._split(complete_cylinder([2, 2, 3]))
    _, est = macaulay._guard_blocks(net)
    assert est["distinct_blocks"] > 1
    assert est["predicted_bytes"] == 40 * est["largest_block"] ** 2


def test_predicted_bits_monotone():
    assert predicted_coefficient_bits(10, 1) < predicted_coefficient_bits(10, 5)
    assert predicted_coefficient_bits(10, 3) < predicted_coefficient_bits(50, 3)


def _exact_dense_classes():
    """The benchmark's exact-dense inputs: one edge list per class of
    connected 5-vertex 3-graphs with only constant zero-sum Z_3 labelings."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.exact_dense_classes(5)


def test_coefficient_bound_covers_blocks_and_phi():
    # independent of the engine: the charpoly of a 0/1 matrix, c_j = (-1)^j
    # times the sum of its order-j principal minors, fits the bound with
    # r = sqrt(Delta), Delta its largest row sum
    rng = random.Random(20)
    for s in range(1, 8):
        for _ in range(30):
            density = rng.random()
            mat = [[int(rng.random() < density) for _ in range(s)]
                   for _ in range(s)]
            bits = predicted_coefficient_bits(s, math.sqrt(max(map(sum, mat))))
            for j in range(s + 1):
                c = (-1) ** j * sum(
                    int_determinant([[mat[a][b] for b in sub] for a in sub])
                    for sub in itertools.combinations(range(s), j))
                assert abs(c).bit_length() + 1 <= bits
    # phi's roots are at most the largest vertex degree Delta: the price
    # _guard_phi puts on it, with r = Delta, fits every coefficient
    graphs = [*_all_graphs(4, 3),
              *(Hypergraph(5, 3, edges) for edges in _exact_dense_classes())]
    assert len(graphs) == 16 + 23
    for h in graphs:
        bits = predicted_coefficient_bits(
            h.n * (h.k - 1) ** (h.n - 1), max(map(len, h.incidence)))
        assert charpoly(h).phi.max_coefficient_bits() + 1 <= bits


def test_strong_components_cycle_tail_and_isolated_row():
    # 0 -> 1 -> 2 -> 0 is a cycle, 3 -> 0 a tail into it, 4 is isolated;
    # the arc 3 -> 9 leaves the digraph and is ignored
    succ = {0: (1,), 1: (2,), 2: (0,), 3: (0, 9), 4: ()}
    comps = macaulay._strong_components(succ)
    assert sorted(comps) == [[0, 1, 2], [3], [4]]
    # reverse topological order: the cycle closes before its tail
    assert comps.index([0, 1, 2]) < comps.index([3])


def test_one_by_one_block_contributes_lambda():
    p = 101
    zero = np.zeros((1, 1), dtype=np.int64)
    assert macaulay._charpoly_mod_prime(zero, p).tolist() == [0, 1]


def _dense_charpoly_mod_prime(mat, p):
    """The reference kernel: Hessenberg reduction by dense rank-1 updates on
    every row and column below the pivot, then the leading-minor recurrence
    summed over every earlier row."""
    n = mat.shape[0]
    h = mat % p
    for c in range(n - 2):
        sub = h[c + 1:, c]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        piv = int(nz[0]) + c + 1
        if piv != c + 1:
            h[[c + 1, piv], :] = h[[piv, c + 1], :]
            h[:, [c + 1, piv]] = h[:, [piv, c + 1]]
        inv = pow(int(h[c + 1, c]), p - 2, p)
        mult = (h[c + 2:, c] * inv) % p
        h[c + 2:, c:] = (h[c + 2:, c:] - mult[:, None] * h[c + 1, c:]) % p
        h[:, c + 1] = (h[:, c + 1] + h[:, c + 2:] @ mult) % p
    q = np.zeros((n + 1, n + 1), dtype=np.int64)
    q[0, 0] = 1
    t = np.zeros(n, dtype=np.int64)
    for m in range(1, n + 1):
        d = int(h[m - 1, m - 1])
        q[m, 1:m + 1] = q[m - 1, :m]
        q[m, :m] = (q[m, :m] - d * q[m - 1, :m]) % p
        if m >= 2:
            s = int(h[m - 1, m - 2])
            t[:m - 2] = (t[:m - 2] * s) % p
            t[m - 2] = s
            cs = (h[:m - 1, m - 1] * t[:m - 1]) % p
            q[m, :m] = (q[m, :m] - cs @ q[:m - 1, :m]) % p
    return q[n]


def _kernel_inputs(rng, p):
    """Random s-row matrices, s in 1..40, for the kernel on prime p: 0/1
    ones of any density (zero sub-columns, pivots that need a swap),
    residues with zeroed subdiagonal entries (swaps), and block upper
    triangular ones, whose Hessenberg form has a zero subdiagonal at each
    block's end followed by nonzero ones."""
    for s in range(1, 41):
        density = rng.random()
        yield (np.random.default_rng(rng.randrange(1 << 30))
               .random((s, s)) < density).astype(np.int64)
        mat = np.array([[rng.randrange(p) for _ in range(s)]
                        for _ in range(s)], dtype=np.int64)
        for i in rng.sample(range(1, s), (s - 1) // 2):
            mat[i, i - 1] = 0
        yield mat
        cuts = sorted(rng.sample(range(1, s), min(s - 1, 3)))
        mat = np.array([[rng.randrange(p) if rng.random() < 0.7 else 0
                         for _ in range(s)] for _ in range(s)],
                       dtype=np.int64)
        for lo, hi in zip([0, *cuts], [*cuts, s]):
            mat[hi:, lo:hi] = 0
        yield mat


@pytest.mark.parametrize("p", [macaulay._prime(0), macaulay._prime(7), 101])
def test_sparse_kernel_matches_the_dense_reference(p):
    # residue for residue: the kernel touches only the rows and columns
    # with a nonzero multiplier and starts the recurrence's sum after the
    # last zero subdiagonal, which changes no arithmetic mod p
    inputs = list(_kernel_inputs(random.Random(p), p))
    assert len(inputs) == 120
    # and the distinct blocks of an irregular input
    net, _ = macaulay._split(complete_cylinder([1, 2, 3]))
    inputs += map(macaulay._dense, net)
    for mat in inputs:
        want = _dense_charpoly_mod_prime(mat, p)
        assert macaulay._charpoly_mod_prime(mat, p).tolist() == want.tolist()


@pytest.mark.parametrize("parts, largest", [([1, 3, 3], 183),
                                            ([2, 2, 3], 315)])
def test_degree_order_shrinks_the_largest_block(parts, largest):
    # rows go to their first vertex in ascending degree: the first label
    # gave 424 and 428 rows, and descending degree would give more
    _, stats = macaulay._split(complete_cylinder(parts))
    assert stats["largest_block"] == largest


def test_two_disjoint_3edges_cancel_blocks():
    res = _charpoly_direct(disjoint_union(single_edge(3), single_edge(3)))
    t = res.timings
    assert t["cancelled_blocks"] > 0
    assert t["distinct_blocks"] < t["blocks"] - t["cancelled_blocks"]
    assert t["largest_block"] < res.matrix_size
    phi_e3 = UniPoly({3: 1}) * UniPoly({3: 1, 0: -1}) ** 3
    assert res.phi == phi_e3 ** 16


def test_charpoly_single_vertex():
    h = Hypergraph(1, 3, [])
    res = charpoly(h)
    assert res.phi == UniPoly({1: 1})


def test_charpoly_edgeless():
    h = Hypergraph(3, 3, [])
    res = _charpoly_direct(h)
    assert res.phi == UniPoly({12: 1})


def test_charpoly_k2_triangle():
    h = complete(3, 2)
    res = charpoly(h)
    # lambda^3 - 3 lambda - 2
    assert res.phi == UniPoly({3: 1, 1: -3, 0: -2})
    assert res.phi == _charpoly_by_permanent_expansion(h)


def test_charpoly_k2_exhaustive_n4():
    pool = list(itertools.combinations(range(4), 2))
    for bits in range(2 ** len(pool)):
        edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
        h = Hypergraph(4, 2, edges)
        res = _charpoly_direct(h)
        assert res.phi == _charpoly_by_permanent_expansion(h)


def test_charpoly_k2_random_n6():
    rng = random.Random(31)
    pool = list(itertools.combinations(range(6), 2))
    for _ in range(10):
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        h = Hypergraph(6, 2, edges)
        res = _charpoly_direct(h)
        assert res.phi == _charpoly_by_permanent_expansion(h)


def test_charpoly_single_3edge():
    res = charpoly(single_edge(3))
    want = UniPoly({3: 1}) * UniPoly({3: 1, 0: -1}) ** 3
    assert res.phi == want
    assert res.method == "modular"
    assert res.matrix_size == 15 and res.reduced_size == 3
    # phi is rebuilt without det M and det M'
    assert res.detM is None and res.detMprime is None


def test_charpoly_single_4edge():
    res = charpoly(single_edge(4))
    want = UniPoly({44: 1}) * UniPoly({4: 1, 0: -1}) ** 16
    assert res.phi == want


def test_charpoly_matches_power_sums_tetra():
    h = tetra_minus_face()
    phi = charpoly(h).phi
    assert phi == _charpoly_by_power_sums(h)
    assert phi.degree == 4 * 2 ** 3


def test_charpoly_matches_power_sums_cylinder():
    h = complete_cylinder([1, 1, 2])
    assert charpoly(h).phi == _charpoly_by_power_sums(h)


def test_charpoly_relabel_invariant():
    h = Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
    base = charpoly(h).phi
    rng = random.Random(3)
    for _ in range(3):
        perm = list(range(4))
        rng.shuffle(perm)
        assert charpoly(h.relabel(perm)).phi == base


def test_charpoly_disjoint_union_identity():
    g = single_edge(3)
    u = disjoint_union(g, Hypergraph(1, 3, []))
    via_components = charpoly(u)
    direct = _charpoly_direct(u)
    assert via_components.method == "disjoint"
    assert via_components.phi == direct.phi
    phi_e3 = UniPoly({3: 1}) * UniPoly({3: 1, 0: -1}) ** 3
    want = phi_e3 ** 2 * UniPoly({1: 1}) ** 8
    assert direct.phi == want


def test_charpoly_codegree_closed_forms_random():
    # codegrees 1..k-1 vanish; codegree k counts edges
    rng = random.Random(41)
    pool = list(itertools.combinations(range(4), 3))
    for _ in range(6):
        edges = rng.sample(pool, rng.randint(1, 4))
        h = Hypergraph(4, 3, edges)
        phi = _charpoly_direct(h).phi
        assert phi.coeff_at_codegree(1) == 0
        assert phi.coeff_at_codegree(2) == 0
        k, n = 3, 4
        want = -(k ** (k - 2)) * (k - 1) ** (n - k) * len(edges)
        assert phi.coeff_at_codegree(3) == want


def _block_power_sums(net, count):
    """sum of e * tr(B^d) over the distinct blocks B, of net exponents e,
    for d = 0..count, in exact integers."""
    sums = [0] * (count + 1)
    for pattern, e in net.items():
        block = macaulay._dense(pattern)
        power = np.eye(len(block), dtype=np.int64)
        for d in range(count + 1):
            sums[d] += e * int(np.trace(power))
            power = power @ block
    return sums


def test_block_power_sums_are_phis():
    # phi is the product of the distinct blocks' charpolys to their net
    # exponents, so its power sums are the blocks' e * tr(B^d), summed:
    # checked against phi by Newton's identities for d <= 6 and against the
    # generalized traces, which build no matrix, for d <= 4
    rng = random.Random(61)
    for _ in range(21):
        k = rng.choice((2, 3))
        n = rng.randint(k + 1, 5)
        pool = list(itertools.combinations(range(n), k))
        h = Hypergraph(n, k, rng.sample(pool, rng.randint(1, len(pool))))
        while len(h.components()) > 1:
            h = Hypergraph(n, k, h.edges + (rng.choice(pool),))
        net, _ = macaulay._split(h)
        sums = _block_power_sums(net, 6)
        phi = charpoly(h).phi
        assert sums[0] == phi.degree
        assert schur_coefficients(sums[1:]) == [
            phi.coeff_at_codegree(d) for d in range(1, 7)]
        assert sums[:5] == [generalized_trace(h, d) for d in range(5)]


def _blocks(h):
    """(dense block, net exponent, bound in table primes) for each distinct
    block."""
    net, _ = macaulay._split(h)
    bounds, _ = macaulay._guard_blocks(net)
    return [(macaulay._dense(pattern), net[pattern], bound)
            for pattern, bound in bounds.items()]


def _block_lifts(monkeypatch):
    """Record (block, integer charpoly, primes folded) for each lift."""
    lifts = []
    real = macaulay._lift_block

    def recorded(mat, bound):
        lift, folded = real(mat, bound)
        lifts.append((mat, UniPoly(enumerate(lift)), folded))
        return lift, folded

    monkeypatch.setattr(macaulay, "_lift_block", recorded)
    return lifts


def test_charpoly_counts_the_kernels_run(monkeypatch):
    # one kernel per folded prime and one held-out prime per block; the
    # operations are s^3 per kernel on an s-row block
    sizes = []
    real = macaulay._charpoly_mod_prime
    monkeypatch.setattr(macaulay, "_charpoly_mod_prime",
                        lambda mat, p: sizes.append(len(mat)) or real(mat, p))
    t = charpoly(Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])).timings
    assert t["kernel_calls"] == len(sizes)
    assert t["kernel_calls"] == t["primes"] + t["distinct_blocks"]
    assert t["kernel_ops"] == sum(s ** 3 for s in sizes)
    assert sum(t["crt_mode"].values()) == t["distinct_blocks"]


@pytest.mark.parametrize("h, modes", [
    (complete(5, 3), {"early": 1, "bound": 4}),
    (single_edge(3), {"early": 0, "bound": 2}),
], ids=["complete(5,3)", "single_edge(3)"])
def test_charpoly_records_crt_mode(h, modes):
    # complete(5,3): the 137-row block's 80 bits settle on 6 of the 10
    # primes its bound asks for; the others, and single_edge(3)'s blocks,
    # need fewer primes for their bounds than the lift needs to settle
    t = charpoly(h).timings
    assert t["crt_mode"] == modes
    if modes["early"]:
        assert t["primes"] < t["bound_primes"]
    else:
        assert t["primes"] == t["bound_primes"] == 2


def test_charpoly_early_lift_caught_by_held_out_prime(monkeypatch):
    # complete(5,3): phi = f / den, f the charpoly of the 137-row block of N,
    # whose lift stops early, and den the product of N''s blocks.  Its
    # kernel returns the residues of g = f + E*L*q, E the product of the
    # primes f's lift folded: g agrees with f modulo each of them, so the
    # lift settles on f exactly as before, and only the held-out prime
    # sees E.  The lift then goes on to g, which phi's division checks.
    h = complete(5, 3)
    clean = charpoly(h)
    blocks = _blocks(h)
    big, net, bound = max(blocks, key=lambda b: len(b[0]))
    lift, folded = macaulay._lift_block(big, bound)
    assert net == 1 and folded < bound
    f = UniPoly(enumerate(lift))
    den, rem = f.divide(clean.phi)
    assert rem == 0 and den.degree == 137 - 80
    e = UniPoly({1: math.prod(map(macaulay._prime, range(folded)))})
    real = macaulay._charpoly_mod_prime

    def fabricate(g):
        def kernel(mat, p):
            if mat.shape != big.shape:
                return real(mat, p)
            return np.array([g[i] % p for i in range(g.degree + 1)],
                            dtype=np.int64)
        monkeypatch.setattr(macaulay, "_charpoly_mod_prime", kernel)

    # q = den: the lift goes past its early stop, and phi + E*L comes out
    fabricate(f + e * den)
    res = charpoly(h)
    assert res.phi == clean.phi + e != clean.phi
    assert res.timings["primes"] > clean.timings["primes"]
    # q = 1: the wrong charpoly passes its held-out prime, as the kernel
    # gives it on every prime, and the integer quotient leaves a remainder
    fabricate(f + e)
    with pytest.raises(ArithmeticError, match="do not divide"):
        charpoly(h)


def test_charpoly_checks_survive_python_O():
    # -O strips assert statements; the arithmetic checks must still run
    src = os.path.dirname(os.path.dirname(hypergraph_spectra.__file__))
    code = ("import json, hypergraph_spectra as hs; "
            "print(json.dumps(hs.charpoly(hs.tetra_minus_face()).phi.to_json()))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert UniPoly.from_json(json.loads(out)) == charpoly(tetra_minus_face()).phi


def _all_graphs(n, k):
    pool = list(itertools.combinations(range(n), k))
    for bits in range(2 ** len(pool)):
        yield Hypergraph(n, k, [e for i, e in enumerate(pool) if bits >> i & 1])


def test_charpoly_certificate_covers_phi(monkeypatch):
    # |c_j| <= C(s, j)*Delta_B^(j/2) (Hadamard) for an s-row 0/1 block with
    # at most Delta_B ones a row, so the predicted bits, sign included,
    # cover each distinct block's integer charpoly
    lifts = _block_lifts(monkeypatch)
    graphs = [*_all_graphs(4, 3), *_all_graphs(4, 2), single_edge(4)]
    assert len(graphs) == 16 + 64 + 1
    for h in [*graphs, complete(5, 4)]:
        res = _charpoly_direct(h)
        assert res.phi.max_coefficient_bits() == res.timings["phi_bits"]
    assert len(lifts) > len(graphs)
    for mat, poly, _ in lifts:
        bound = predicted_coefficient_bits(
            len(mat), math.sqrt(mat.sum(axis=1).max()))
        assert poly.max_coefficient_bits() + 1 <= bound


def test_charpoly_primes_sized_per_block(monkeypatch):
    # complete(5,3): the 137-row block's Hadamard bound asks for ten
    # 25-bit primes, which its 80 bits do not need; the 26-row block asks
    # for two, the 1-, 3- and 12-row blocks for one each
    lifts = _block_lifts(monkeypatch)
    t = charpoly(complete(5, 3)).timings
    assert t["bound_primes"] == 10 + 2 + 1 + 1 + 1
    assert sorted(len(mat) for mat, _, _ in lifts) == [1, 3, 12, 26, 137]
    big = max(lifts, key=lambda lift: len(lift[0]))
    assert big[1].max_coefficient_bits() == 80 and big[2] == 6


def _corrupt_one_prime(monkeypatch, prime, block):
    real = macaulay._charpoly_mod_prime

    def corrupted(mat, p):
        out = real(mat, p)
        if p == prime and np.array_equal(mat, block):
            out[0] = (out[0] + 1) % p
        return out

    monkeypatch.setattr(macaulay, "_charpoly_mod_prime", corrupted)


@pytest.mark.parametrize("which", ["crt", "held-out"])
@pytest.mark.parametrize("h", [
    # 3-graph: the largest block of N', with a negative net exponent
    complete(4, 3),
    # 2-graph: N' is empty, and N is one block
    complete(4, 2),
], ids=["3-graph", "2-graph"])
def test_charpoly_checks_are_wired(monkeypatch, which, h):
    # each block stops at its bound; a wrong residue on its first CRT prime
    # or on its held-out prime makes the held-out prime disagree
    blocks = _blocks(h)
    block, net, bound = max(blocks, key=lambda b: (b[1] < 0, len(b[0])))
    assert (net < 0) == (h.k == 3)
    _corrupt_one_prime(monkeypatch,
                       macaulay._prime(0 if which == "crt" else bound), block)
    with pytest.raises(ArithmeticError, match="held-out prime"):
        _charpoly_direct(h)


@pytest.mark.slow
def test_charpoly_ultracube_3_2_is_pinned():
    # the 43758-row matrix of the 2-dim 3-ultracube: 93 distinct blocks of
    # up to 322 rows, each lifted on its own
    cube = UniPoly({3: 1})
    phi = (UniPoly({549: 1}) * (cube - 1) ** 18 * (cube + 1) ** 54
           * (cube - 8) ** 27 * (cube - 2) ** 486)
    assert charpoly(ultracube(3, 2)).phi == phi


def test_no_assert_statements_in_src():
    # python -O strips assert; invariants must raise explicitly
    src = os.path.dirname(hypergraph_spectra.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
