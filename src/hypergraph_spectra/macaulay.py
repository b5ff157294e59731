"""Characteristic polynomials via the Macaulay determinant quotient.

The eigenvalue system of a k-uniform hypergraph on n vertices consists of n
forms of degree k-1.  Writing D = n(k-1) - n + 1, every monomial of degree D
has some coordinate >= k-1, so each monomial row can be assigned to the
first such coordinate and filled with the corresponding form.  The matrix is
lambda*I - N for a 0/1 integer matrix N, the quotient by the minor on rows
whose monomial has two or more coordinates >= k-1 is exact, and the result
is the monic characteristic polynomial of degree n(k-1)^(n-1), for any
order of the coordinates (Cox, Little and O'Shea, ch. 3 sec. 4).  "First"
is in ascending vertex degree: the first vertex takes the most rows, so N
gets the fewest ones and irregular inputs much smaller blocks.

N is never built densely.  Ordered by the strongly connected components of
its digraph (Tarjan 1972; Duff and Reid 1978), N is block upper triangular,
so its characteristic polynomial is the product of its diagonal blocks';
the same holds for N' on the digraph induced on the rows it keeps.  A
component of N whose rows are all kept is also one of N', so its factor
cancels from the quotient.  The remaining blocks are grouped by their
sparsity pattern, each pattern with its net exponent: its multiplicity in N
minus its multiplicity in N'.  Only the patterns whose net exponent is not
zero are made dense.

Each distinct block's integer characteristic polynomial is lifted on its
own, one kernel per prime folded into a running CRT lift, on the primes
below 2^25 taken largest first from one table (_PRIMES).  One bound
certifies the lifts and prices phi: a monic degree-D polynomial with
|c_j| <= C(D, j)*r^j has sum_j |c_j| <= (1 + r)^D (binomial theorem).  For
phi, r is the largest vertex degree, which bounds every eigenvalue; for an
s-row 0/1 block whose rows hold at most Delta_B ones, r = sqrt(Delta_B),
since a principal minor of order j is at most Delta_B^(j/2) (Hadamard).
The bound is loose, so the lift stops as soon as it has stayed unchanged
over two primes and a held-out prime agrees with it ("early"); otherwise
it stops once the primes cover the bound, and the held-out prime must
agree ("bound").  Equal polynomials merge their net exponents, and phi is
the exact quotient of the product of the positive powers by the product
of the negative ones.  Guards refuse a job on phi's predicted size, bytes
and kernel operations before any is spent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GuardError
from .hypergraphs import Hypergraph
from .polynomials import UniPoly, enumerate_monomials

__all__ = [
    "CharPolyResult",
    "MacaulayMatrix",
    "build_macaulay",
    "charpoly",
    "predicted_coefficient_bits",
]

# The guards' budgets.  A kernel on an s-row block takes at most about s^3
# operations, 1.6-1.9e8 a second on one core: 1e12 is at most 1.5-1.7 h.
_MAX_BYTES = 1 << 30
_MAX_KERNEL_OPS = 10 ** 12


@dataclass
class MacaulayMatrix:
    """The matrix lambda*I - N, stored through N's 0/1 sparsity.

    rows[r] lists the column indices of the ones in row r of N (see
    build_macaulay); reduced[r] marks monomials with exactly one coordinate
    >= k-1 (the rows removed to form the minor).
    """

    n: int
    k: int
    degree: int
    monomials: tuple
    rows: tuple
    reduced: tuple

    @property
    def size(self) -> int:
        return len(self.monomials)

    @property
    def reduced_count(self) -> int:
        return sum(self.reduced)

    @property
    def max_row_sum(self) -> int:
        return max((len(r) for r in self.rows), default=0)


def build_macaulay(h: Hypergraph) -> MacaulayMatrix:
    """Assemble the Macaulay matrix of a hypergraph's eigenvalue system.

    Vertices are taken in ascending degree, ties by label: h relabelled in
    that order has this matrix, permuted.  GuardError refuses, before any
    monomial is enumerated, a build and split predicted to take more than
    _MAX_BYTES.
    """
    n, k = h.n, h.k
    big_d = n * (k - 1) - n + 1
    size = math.comb(n * (k - 1), n - 1)
    # per row: the monomial, its index entry, Delta columns and the split's
    # bookkeeping (tracemalloc measures 250-750 bytes)
    nbytes = size * (600 + 8 * n + 40 * max(map(len, h.incidence), default=0))
    if nbytes > _MAX_BYTES:
        raise GuardError(
            f"the {size}-row Macaulay matrix would take {nbytes >> 20} MiB "
            f"(budget {_MAX_BYTES >> 20} MiB)",
            {"matrix_size": size, "predicted_bytes": nbytes,
             "max_bytes": _MAX_BYTES, "max_kernel_ops": _MAX_KERNEL_OPS})
    monomials = enumerate_monomials(n, big_d)
    if len(monomials) != size:
        raise ArithmeticError(
            f"enumerated {len(monomials)} monomials, expected {size}")
    index = {m: i for i, m in enumerate(monomials)}
    links = [h.link(v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (len(h.incidence[v]), v))
    rows = []
    reduced = []
    for alpha in monomials:
        cls = next(i for i in order if alpha[i] >= k - 1)
        reduced.append(sum(1 for a in alpha if a >= k - 1) == 1)
        cols = []
        base = list(alpha)
        base[cls] -= k - 1
        for rest in links[cls]:
            beta = base.copy()
            for u in rest:
                beta[u] += 1
            cols.append(index[tuple(beta)])
        if len(set(cols)) != len(cols):
            raise ArithmeticError(f"repeated column in the row of {alpha}")
        rows.append(tuple(cols))
    mac = MacaulayMatrix(n=n, k=k, degree=big_d, monomials=tuple(monomials),
                         rows=tuple(rows), reduced=tuple(reduced))
    if mac.reduced_count != n * (k - 1) ** (n - 1):
        raise ArithmeticError(
            f"{mac.reduced_count} reduced rows, expected the degree "
            f"{n * (k - 1) ** (n - 1)}")
    return mac


# -- coefficient-size prediction ----------------------------------------------


def predicted_coefficient_bits(degree: int, root_bound: float) -> int:
    """Bits, sign included, that hold every coefficient of a monic degree-D
    integer polynomial with |c_j| <= C(D, j)*r^j, r = root_bound: one whose
    roots are at most r in modulus, or the charpoly of a 0/1 matrix whose
    rows hold at most r^2 ones (each principal minor of order j is at most
    r^j by Hadamard's inequality).  By the binomial theorem the |c_j| sum to
    at most (1 + r)^D, so ceil(D*log2(1 + r)) bits hold each, one more the
    sign and one more the float error in log2; exact in D, so any D prices.
    """
    return math.ceil(degree * Fraction(math.log2(1 + root_bound))) + 2


def _guard_phi(degree: int, max_degree: int) -> int:
    """The bits predicted_coefficient_bits gives a phi of this degree whose
    roots, eigenvalues, are at most the largest vertex degree Delta in
    modulus; GuardError refuses a phi predicted to take more than
    _MAX_BYTES.
    """
    bits = predicted_coefficient_bits(degree, max_degree)
    # per coefficient: its digits, and about 100 bytes of int and dict entry
    nbytes = (degree + 1) * (bits // 8 + 100)
    if nbytes > _MAX_BYTES:
        raise GuardError(
            f"phi of degree {degree}, with coefficients of up to {bits} "
            f"bits, would take {nbytes >> 20} MiB "
            f"(budget {_MAX_BYTES >> 20} MiB)",
            {"degree": degree, "coefficient_bits": bits,
             "predicted_bytes": nbytes, "max_bytes": _MAX_BYTES})
    return bits


# -- block split --------------------------------------------------------------


def _strong_components(succ: dict) -> list:
    """Strongly connected components of the digraph with an arc v -> w for
    each w in succ[v] that is itself a key of succ.

    Tarjan's algorithm with an explicit stack in place of recursion.  Each
    component lists its vertices in ascending order; the components come
    out in reverse topological order.
    """
    index, low, on_stack = {}, {}, set()
    stack, work, out = [], [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(succ[v])))

    for root in succ:
        if root in index:
            continue
        visit(root)
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if w not in succ:
                    continue
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(sorted(comp))
    return out


def _group_blocks(rows, comps) -> dict:
    """{pattern: multiplicity} over the diagonal blocks of N on each comp's
    rows and columns; a pattern lists each row's local columns, ascending.
    """
    groups = {}
    for comp in comps:
        pos = {r: i for i, r in enumerate(comp)}
        pattern = tuple(tuple(sorted(pos[c] for c in rows[r] if c in pos))
                        for r in comp)
        groups[pattern] = groups.get(pattern, 0) + 1
    return groups


def _dense(pattern) -> np.ndarray:
    """The dense 0/1 block of a pattern."""
    mat = np.zeros((len(pattern), len(pattern)), dtype=np.int64)
    for i, cols in enumerate(pattern):
        mat[i, list(cols)] = 1
    return mat


def _bound(pattern) -> int:
    """How many table primes cover predicted_coefficient_bits for a block's
    charpoly (r = sqrt(Delta_B)), from the first."""
    bits = predicted_coefficient_bits(
        len(pattern), math.sqrt(max(map(len, pattern))))
    count, total = 0, 0.0
    while total < bits:
        total += math.log2(_prime(count))
        count += 1
    return count


def _split(h: Hypergraph):
    """The diagonal blocks of h's N and N' that do not cancel, as {pattern:
    net exponent}, and the sizes and block counts.  The net exponent is the
    pattern's multiplicity in N minus that in N'; the components of N with
    every row kept in N', and the patterns whose net exponent is 0, cancel.
    """
    t0 = time.perf_counter()
    mac = build_macaulay(h)
    t1 = time.perf_counter()
    comps = _strong_components(dict(enumerate(mac.rows)))
    live = [c for c in comps if any(mac.reduced[r] for r in c)]
    kept = {r: mac.rows[r] for c in live for r in c if not mac.reduced[r]}
    net = _group_blocks(mac.rows, live)
    for pattern, mult in _group_blocks(
            mac.rows, _strong_components(kept)).items():
        net[pattern] = net.get(pattern, 0) - mult
    stats = {"matrix_size": mac.size,
             "reduced_size": mac.size - mac.reduced_count,
             "build_s": t1 - t0, "split_s": time.perf_counter() - t1,
             "blocks": len(comps),
             "largest_block": max(map(len, comps), default=0),
             "cancelled_blocks": len(comps) - len(live)}
    return {pattern: e for pattern, e in net.items() if e}, stats


def _guard_blocks(patterns):
    """({pattern: its bound in table primes}, the estimate); GuardError
    refuses, before any is made dense, blocks predicted to exceed
    _MAX_BYTES or, on every bound prime and a held-out one, _MAX_KERNEL_OPS.
    One block is dense at a time, so the bytes are the largest's.
    """
    bounds = {pattern: _bound(pattern) for pattern in patterns}
    top = max(map(len, bounds), default=0)
    # the dense block, then the kernel's copy, table and two temporaries
    est = {"predicted_bytes": 40 * top ** 2,
           "predicted_ops": sum(len(pt) ** 3 * (bound + 1)
                                for pt, bound in bounds.items()),
           "max_bytes": _MAX_BYTES, "max_kernel_ops": _MAX_KERNEL_OPS,
           "largest_block": top, "distinct_blocks": len(bounds),
           "bound_primes": sum(bounds.values())}
    if est["predicted_bytes"] > _MAX_BYTES or \
            est["predicted_ops"] > _MAX_KERNEL_OPS:
        raise GuardError(
            f"{len(bounds)} distinct blocks of up to {top} rows, each on its "
            f"bound's primes and a held-out one, would take "
            f"{est['predicted_ops']:.2g} kernel operations and "
            f"{est['predicted_bytes'] >> 20} MiB (budgets "
            f"{_MAX_KERNEL_OPS:.2g} and {_MAX_BYTES >> 20} MiB)", est)
    return bounds, est


# -- block charpolys modulo a prime, and CRT -----------------------------------


# Every prime below 2^25, largest first, grown on demand by trial division
# by the odd primes below sqrt(2^25), found on first use.  The kernel sums
# products of two residues over s terms, below 2^63 in int64 for s < 2^13:
# this rests on the dense-bytes guard, which admits no block over 5181 rows.
_PRIMES = []
_ODD_PRIMES = []


def _prime(i: int) -> int:
    """The table's prime i, counted from 0 at the largest below 2^25."""
    if not _ODD_PRIMES:
        _ODD_PRIMES.extend(q for q in range(3, 5793, 2) if all(
            q % d for d in range(3, math.isqrt(q) + 1, 2)))
    q = _PRIMES[-1] if _PRIMES else (1 << 25) + 1
    while len(_PRIMES) <= i:
        q -= 2
        if all(q % p for p in _ODD_PRIMES):
            _PRIMES.append(q)
    return _PRIMES[i]


def _charpoly_mod_prime(mat: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial coefficients of mat modulo p, ascending.

    Similarity reduction to Hessenberg form, then the leading-minor
    recurrence; a step touches only the rows and columns whose multiplier
    is nonzero, and the recurrence sums from the last zero subdiagonal on.
    All arithmetic stays below 2^63 for a table prime p on fewer than 2^13
    rows (see _PRIMES).
    """
    n = mat.shape[0]
    h = mat % p
    for c in range(n - 2):
        nz = np.nonzero(h[c + 1:, c])[0] + (c + 1)
        if nz.size == 0:
            continue
        piv, rows = int(nz[0]), nz[1:]
        if piv != c + 1:
            h[c + 1], h[piv] = h[piv].copy(), h[c + 1].copy()
            h[:, c + 1], h[:, piv] = h[:, piv].copy(), h[:, c + 1].copy()
        if rows.size == 0:
            continue
        inv = pow(int(h[c + 1, c]), p - 2, p)
        mult = (h[rows, c] * inv) % p
        h[rows, c:] = (h[rows, c:] - mult[:, None] * h[c + 1, c:]) % p
        h[:, c + 1] = (h[:, c + 1] + h[:, rows] @ mult) % p
    q = np.zeros((n + 1, n + 1), dtype=np.int64)
    q[0, 0] = 1
    t = np.zeros(n, dtype=np.int64)  # t[i] = product of subdiagonals i+1..m-1
    for m in range(1, n + 1):
        d = int(h[m - 1, m - 1])
        q[m, 1:m + 1] = q[m - 1, :m]
        q[m, :m] = (q[m, :m] - d * q[m - 1, :m]) % p
        s = int(h[m - 1, m - 2]) if m >= 2 else 0
        if s == 0:  # every product through it is 0; m = 1 sets start
            start = m - 1
            continue
        t[start:m - 2] = (t[start:m - 2] * s) % p
        t[m - 2] = s
        cs = (h[start:m - 1, m - 1] * t[start:m - 1]) % p
        q[m, :m] = (q[m, :m] - cs @ q[start:m - 1, :m]) % p
    out = q[n]
    if out[n] != 1:
        raise ArithmeticError(f"charpoly mod {p} is not monic")
    return out


def _crt_step(lift, modulus, residues, p):
    """One Garner step: the lift, in the symmetric range mod modulus, moved
    to the integers in the symmetric range mod modulus*p that also have the
    given residues mod p; the first step starts from zeros and modulus 1.
    """
    minv = pow(modulus % p, p - 2, p)
    new_mod = modulus * p
    half = new_mod // 2
    out = []
    for c, v in zip(lift, residues, strict=True):
        c += modulus * ((int(v) - c) * minv % p)
        out.append(c - new_mod if c > half else c)
    return out, new_mod


def _lift_block(mat: np.ndarray, bound: int):
    """A block's integer charpoly coefficients, ascending, and how many
    table primes, from the first, were folded into their lift: until it has
    stayed unchanged over two of them, or they cover the bound (the first
    bound primes); the next prime is held out.  A prime agrees when folding
    it leaves the lift unchanged, every Garner correction zero.  A
    disagreement at the held-out prime before the bound makes it join the
    CRT primes, and at the bound (prime bound) raises.  No prime agrees
    with the zero start: the charpoly is monic.
    """
    lift, modulus, steady = [0] * (len(mat) + 1), 1, 0
    for folded in range(bound + 1):
        p = _prime(folded)
        step = _crt_step(lift, modulus, _charpoly_mod_prime(mat, p), p)
        agrees = step[0] == lift
        if agrees and (steady == 2 or folded == bound):
            return lift, folded
        if folded == bound:
            raise ArithmeticError(
                f"a block's charpoly failed verification at the held-out "
                f"prime {p}")
        lift, modulus = step
        steady = steady + 1 if agrees else 0


# -- public characteristic polynomial -------------------------------------------


@dataclass
class CharPolyResult:
    """Characteristic polynomial with how it was obtained.

    method is "modular" for one matrix and "disjoint" for one per connected
    component; sizes and block counts then sum the components'.  detM and
    detMprime stay None: phi is rebuilt without either determinant.  In
    timings, blocks counts the strongly connected components of N,
    largest_block is the rows of the largest, cancelled_blocks counts those
    shared with N', distinct_blocks the blocks whose charpoly is lifted,
    and split_s is the time to find and group them.  crt_mode counts the
    distinct blocks by how their lift stopped, {"early": .., "bound": ..};
    primes sums the CRT primes folded into their lifts and bound_primes the
    primes their bounds ask for; kernel_calls counts the kernels run,
    held-out primes included, and kernel_ops sums s^3, a bound on each
    kernel's work, against predicted_ops, the guard's s^3 on every bound
    prime and a held-out one.
    det_full_s and det_reduced_s are the seconds of the lifts of the blocks
    with a positive net exponent (N's) and a negative one (N''s), divide_s
    the exact divisions and the components' powers, and phi_bits the bits
    of phi's largest coefficient, against predicted_bits, the guard's price
    with the sign bit, predicted_coefficient_bits(D, Delta).
    """

    phi: UniPoly
    method: str
    matrix_size: int
    reduced_size: int
    detM: UniPoly | None = None
    detMprime: UniPoly | None = None
    timings: dict = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return self.phi.degree


def charpoly(h: Hypergraph) -> CharPolyResult:
    """Exact characteristic polynomial of a k-uniform hypergraph.

    phi = det(lambda*I - N) / det(lambda*I - N').  N and N' are split into
    the diagonal blocks of their strongly connected components, each
    distinct block with its net exponent, its multiplicity in N minus that
    in N'.  Each block's integer charpoly is lifted by CRT on the table
    primes; once the lift has stayed unchanged over two primes, the next
    one is held out, and the lift is taken if it agrees ("early") or goes
    on if not.  Otherwise the primes cover the block's certificate
    sum_j |c_j| <= (1 + sqrt(Delta_B))^s, from Hadamard's bound for an
    s-row 0/1 block whose rows hold at most Delta_B ones, and the held-out
    prime must agree or ArithmeticError is raised ("bound").  Equal
    charpolys merge their exponents, and phi is the exact quotient of the
    positive powers' product by the negative powers'; a remainder, a
    non-monic quotient or a wrong degree raises ArithmeticError.  Each
    component G_i, on n_i of the n vertices, has its own matrix and
    quotient, raised to (k-1)^(n - n_i) by the disjoint-union identity.
    GuardError refuses, before any kernel, a job whose phi (priced at
    (1 + Delta)^D, Delta the largest vertex degree), matrices, distinct
    blocks or kernel operations (on every bound prime and a held-out one)
    exceed the budgets.
    """
    return _charpoly(h, [(sub, (h.k - 1) ** (h.n - sub.n))
                         for sub, _verts in h.components()])


def _charpoly_direct(h: Hypergraph) -> CharPolyResult:
    """charpoly from h's own Macaulay matrix, connected or not."""
    return _charpoly(h, [(h, 1)])


def _charpoly(h: Hypergraph, parts) -> CharPolyResult:
    """The product of phi(sub)**power over parts, (sub, power) pairs."""
    t_start = time.perf_counter()
    bits = _guard_phi(h.n * (h.k - 1) ** (h.n - 1),
                      max(map(len, h.incidence)))
    splits = [_split(sub) for sub, _power in parts]
    timings = {key: sum(stats[key] for _, stats in splits)
               for key in splits[0][1]}
    timings["largest_block"] = max(st["largest_block"] for _, st in splits)
    size, reduced = timings.pop("matrix_size"), timings.pop("reduced_size")
    # each distinct pattern, with its net exponent in the first part with it
    first = {pt: e for net, _ in reversed(splits) for pt, e in net.items()}
    bounds, est = _guard_blocks(first)
    timings.update({key: est[key] for key in
                    ("distinct_blocks", "bound_primes", "predicted_ops")},
                   crt_mode={"early": 0, "bound": 0}, primes=0,
                   kernel_calls=0, kernel_ops=0)
    lifts, det_s = {}, [0.0, 0.0]
    for pattern, bound in bounds.items():
        t0 = time.perf_counter()
        lift, folded = _lift_block(_dense(pattern), bound)
        det_s[first[pattern] < 0] += time.perf_counter() - t0
        lifts[pattern] = tuple(lift)
        timings["crt_mode"]["early" if folded < bound else "bound"] += 1
        timings["primes"] += folded
        timings["kernel_calls"] += folded + 1
        timings["kernel_ops"] += (folded + 1) * len(pattern) ** 3
    t_div = time.perf_counter()
    phi = UniPoly.one()
    for (sub, power), (net, _) in zip(parts, splits):
        exponents = {}
        for pattern, e in net.items():
            exponents[lifts[pattern]] = exponents.get(lifts[pattern], 0) + e
        num, den = UniPoly.one(), UniPoly.one()
        for coeffs, e in exponents.items():
            if e > 0:
                num = num * UniPoly(enumerate(coeffs)) ** e
            elif e < 0:
                den = den * UniPoly(enumerate(coeffs)) ** -e
        quotient, rem = num.divide(den)
        degree = sub.n * (h.k - 1) ** (sub.n - 1)
        if rem or not quotient.is_monic or quotient.degree != degree:
            raise ArithmeticError(
                f"the blocks' charpolys do not divide to a monic phi of "
                f"degree {degree}")
        phi = phi * quotient ** power
    timings.update(phi_bits=phi.max_coefficient_bits(), predicted_bits=bits,
                   det_full_s=det_s[0], det_reduced_s=det_s[1],
                   divide_s=time.perf_counter() - t_div,
                   total_s=time.perf_counter() - t_start)
    return CharPolyResult(
        phi=phi, method="disjoint" if len(parts) > 1 else "modular",
        matrix_size=size, reduced_size=reduced, timings=timings)
