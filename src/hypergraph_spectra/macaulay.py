"""Characteristic polynomials via the Macaulay determinant quotient.

The eigenvalue system of a k-uniform hypergraph on n vertices consists of n
forms of degree k-1.  Writing D = n(k-1) - n + 1, every monomial of degree D
has some coordinate >= k-1, so each monomial row can be assigned to the
first such coordinate and filled with the corresponding form.  The matrix is
lambda*I - N for a 0/1 integer matrix N, the quotient by the minor on rows
whose monomial has two or more coordinates >= k-1 is exact, and the result
is the monic characteristic polynomial of degree n(k-1)^(n-1).

phi is computed by one exact engine: for each prime the characteristic
polynomials of N and of its minor N' are divided modulo p, and each prime's
residues are folded into a running CRT lift of phi's coefficients.  Every
root of phi is an eigenvalue, so its modulus is at most the maximum degree
Delta, which bounds each coefficient a priori.  The bound is loose, so the
loop stops as soon as the lift has stayed unchanged over two primes and a
held-out prime agrees with it ("early"); otherwise it stops once the primes
cover the bound, and the held-out prime must agree ("bound").

N is never built densely.  Ordered by the strongly connected components of
its digraph (Tarjan 1972; Duff and Reid 1978), N is block upper triangular,
so its characteristic polynomial is the product of its diagonal blocks';
the same holds for N' on the digraph induced on the rows it keeps.  A
component of N whose rows are all kept is also one of N', so its factor
cancels from the quotient and never reaches a kernel.  The remaining
blocks are grouped by their sparsity pattern, only the distinct ones are
made dense, and each prime runs one kernel per distinct block, raised to
its multiplicity.  Guards refuse a job on its predicted bytes and kernel
operations before either is spent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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

# The guards' budgets.  A kernel on an s-row block takes about s^3
# operations, 1.6-1.9e8 a second on one core: 1e12 is about 1.5-1.7 h.
_MAX_BYTES = 1 << 30
_MAX_KERNEL_OPS = 10 ** 12


@dataclass
class MacaulayMatrix:
    """The matrix lambda*I - N, stored through N's 0/1 sparsity.

    rows[r] lists the column indices of the ones in row r of N; reduced[r]
    marks monomials with exactly one coordinate >= k-1 (the rows removed to
    form the minor).
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

    GuardError refuses, before any monomial is enumerated, a build and
    split predicted to take more than _MAX_BYTES.
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
    rows = []
    reduced = []
    for alpha in monomials:
        cls = next(i for i, a in enumerate(alpha) if a >= k - 1)
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


def predicted_coefficient_bits(degree: int, root_bound: int) -> int:
    """Upper bound in bits, sign included, on the coefficients of a monic
    integer polynomial whose roots are at most root_bound in modulus:
    |c_j| <= C(degree, j)*root_bound^j.
    """
    if degree == 0:
        return 1
    r = max(root_bound, 1)
    log2r = math.log2(r)
    ln2 = math.log(2.0)
    best = 0.0
    lg = math.lgamma
    for j in range(degree + 1):
        logc = (lg(degree + 1) - lg(j + 1) - lg(degree - j + 1)) / ln2
        best = max(best, logc + j * log2r)
    return int(best) + 2


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


def _dense(groups) -> list:
    """[dense 0/1 block, multiplicity] for each pattern in groups."""
    out = []
    for pattern, mult in groups.items():
        mat = np.zeros((len(pattern), len(pattern)), dtype=np.int64)
        for i, cols in enumerate(pattern):
            mat[i, list(cols)] = 1
        out.append([mat, mult])
    return out


def _diagonal_blocks(mac: MacaulayMatrix, primes: int = 1):
    """The distinct diagonal blocks of N and N' that reach a kernel, as
    lists of [dense block, multiplicity], and the block counts.  The
    components of N with every row kept in N' cancel and are left out.
    GuardError refuses, before any block is made dense, blocks predicted to
    take more than _MAX_BYTES, or _MAX_KERNEL_OPS over this many primes.
    """
    comps = _strong_components(dict(enumerate(mac.rows)))
    live = [c for c in comps if any(mac.reduced[r] for r in c)]
    kept = {r: mac.rows[r] for c in live for r in c if not mac.reduced[r]}
    numer = _group_blocks(mac.rows, live)
    denom = _group_blocks(mac.rows, _strong_components(kept))
    sizes = [len(pattern) for pattern in [*numer, *denom]]
    top = max(sizes, default=0)
    # the dense blocks, then the kernel's copy, table and two temporaries
    est = {"predicted_bytes": 8 * (sum(s * s for s in sizes) + 4 * top ** 2),
           "predicted_ops": primes * sum(s ** 3 for s in sizes),
           "max_bytes": _MAX_BYTES, "max_kernel_ops": _MAX_KERNEL_OPS,
           "largest_block": top, "distinct_blocks": len(sizes),
           "primes": primes}
    if est["predicted_bytes"] > _MAX_BYTES or \
            est["predicted_ops"] > _MAX_KERNEL_OPS:
        raise GuardError(
            f"{len(sizes)} distinct blocks of up to {top} rows on {primes} "
            f"primes would take {est['predicted_ops']:.2g} kernel operations "
            f"and {est['predicted_bytes'] >> 20} MiB (budgets "
            f"{_MAX_KERNEL_OPS:.2g} and {_MAX_BYTES >> 20} MiB)", est)
    stats = {"blocks": len(comps),
             "largest_block": max(map(len, comps), default=0),
             "cancelled_blocks": len(comps) - len(live),
             "distinct_blocks": len(numer) + len(denom)}
    return _dense(numer), _dense(denom), stats


# -- phi modulo a prime, and CRT -----------------------------------------------


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if q % p == 0:
            return q == p
    d = q - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(r - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _primes_descending(bits: int):
    q = (1 << bits) - 1
    while q > 2:
        if _is_prime(q):
            yield q
        q -= 2


def _prime_bits_for(size: int) -> int:
    # products of two residues plus a sum over <= size terms must fit int64
    return min(25, (62 - max(size, 2).bit_length()) // 2)


def _charpoly_mod_prime(mat: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial coefficients of mat modulo p, ascending.

    Similarity reduction to Hessenberg form, then the leading-minor
    recurrence.  All arithmetic stays below 2^63 by the prime-size choice.
    """
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
    t = np.zeros(n, dtype=np.int64)  # t[i] = product of subdiagonals i+1..m-1
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
    out = q[n]
    if out[n] != 1:
        raise ArithmeticError(f"charpoly mod {p} is not monic")
    return out


def _block_product_mod_prime(groups, p: int) -> np.ndarray:
    """Product mod p of the blocks' charpolys, each raised to its
    multiplicity; one kernel per distinct block.  The factors' degrees sum
    to at most the matrix size, which the prime size allows for.
    """
    out = np.ones(1, dtype=np.int64)
    for mat, mult in groups:
        base = _charpoly_mod_prime(mat, p)
        while mult:
            if mult & 1:
                out = np.convolve(out, base) % p
            mult >>= 1
            if mult:
                base = np.convolve(base, base) % p
    return out


def _phi_mod_prime(numer, denom, p: int):
    """phi mod p, ascending: the product of N's block charpolys divided by
    the monic product of N''s, where a nonzero remainder raises
    ArithmeticError.  Also returns the seconds of the N kernels, the N'
    kernels and the division.
    """
    t0 = time.perf_counter()
    rem = _block_product_mod_prime(numer, p)
    t1 = time.perf_counter()
    den = _block_product_mod_prime(denom, p)
    t2 = time.perf_counter()
    dd = len(den) - 1
    quot = np.zeros(len(rem) - dd, dtype=np.int64)
    for e in range(len(quot) - 1, -1, -1):
        q = quot[e] = rem[e + dd]
        if q:
            rem[e:e + dd + 1] = (rem[e:e + dd + 1] - q * den) % p
    if np.any(rem[:dd]):
        raise ArithmeticError(
            f"charpoly of N' leaves a nonzero remainder mod {p}")
    return quot, (t1 - t0, t2 - t1, time.perf_counter() - t2)


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


# -- public characteristic polynomial -------------------------------------------


@dataclass
class CharPolyResult:
    """Characteristic polynomial with how it was obtained.

    method is "modular" for a direct computation and "disjoint" for a
    result combined from connected components (kept in components).  detM
    and detMprime stay None: phi is rebuilt without either determinant.
    The timings of a direct result hold predicted_bits, the certified bound
    on phi's coefficient bits with the sign, beside phi_bits, the actual
    bits; crt_mode, "early" when the lift settled before its primes covered
    that bound and "bound" when they covered it, and bound_primes, the CRT
    primes the bound needs.  modular_full and modular_reduced give the CRT
    primes (num_primes), the last held-out prime (verification_prime) and
    the seconds of N's and N''s block kernels and products on each CRT
    prime (det_full_s and det_reduced_s sum them over every prime, the
    held-out ones included; divide_s sums the divisions mod p).  blocks
    counts the strongly connected components of N, largest_block is the
    rows of the largest, cancelled_blocks counts those shared with N', and
    distinct_blocks the blocks of N and N' that reach a kernel on each
    prime; split_s is the time to find and group them.
    """

    phi: UniPoly
    method: str
    matrix_size: int
    reduced_size: int
    detM: UniPoly | None = None
    detMprime: UniPoly | None = None
    timings: dict = field(default_factory=dict)
    components: list | None = None

    @property
    def degree(self) -> int:
        return self.phi.degree


def charpoly(h: Hypergraph) -> CharPolyResult:
    """Exact characteristic polynomial of a k-uniform hypergraph.

    phi = det(lambda*I - N) / det(lambda*I - N').  N and N' are split into
    the diagonal blocks of their strongly connected components; the blocks
    N and N' share cancel, and for each prime the products of the other
    blocks' characteristic polynomials, one kernel per distinct block, are
    divided mod p.  Each prime's residues of phi's coefficients alone are
    folded into a CRT lift.  Once the lift has stayed unchanged over two
    primes, the next prime is held out: if it agrees, phi is returned
    (crt_mode "early"), and if not, it joins the CRT primes and the loop
    goes on.  Otherwise the primes cover the certificate
    |c_j| <= C(D, j)*Delta^j, which holds because every root of phi has
    modulus at most the maximum degree Delta, and the held-out prime must
    agree or ArithmeticError is raised (crt_mode "bound").  A disconnected
    input is split into components, each with its own matrix and guard,
    and their polynomials are combined by the disjoint-union power
    identity, which avoids the much larger joint matrix.  GuardError
    refuses a job whose predicted bytes or kernel operations, over every
    prime the bound could need, exceed the module's budgets.
    """
    t_start = time.perf_counter()
    comps = [sub for sub, _verts in h.components()]
    if len(comps) == 1:
        return _charpoly_direct(h)
    parts = []
    phi = UniPoly.one()
    for sub in comps:
        res = _charpoly_direct(sub)
        parts.append(res)
        phi = phi * res.phi ** ((h.k - 1) ** (h.n - sub.n))
    expected_degree = h.n * (h.k - 1) ** (h.n - 1)
    if phi.degree != expected_degree:
        raise ArithmeticError(
            f"component product has degree {phi.degree}, "
            f"expected {expected_degree}")
    return CharPolyResult(
        phi=phi, method="disjoint",
        matrix_size=sum(r.matrix_size for r in parts),
        reduced_size=sum(r.reduced_size for r in parts),
        timings={"total_s": time.perf_counter() - t_start},
        components=parts)


def _charpoly_direct(h: Hypergraph) -> CharPolyResult:
    """charpoly from h's own Macaulay matrix, connected or not."""
    t_start = time.perf_counter()
    expected_degree = h.n * (h.k - 1) ** (h.n - 1)
    mac = build_macaulay(h)
    t_build = time.perf_counter()
    # every row of N holds one 1 per edge at its vertex: max_row_sum = Delta
    bits = predicted_coefficient_bits(expected_degree, mac.max_row_sum)
    gen = _primes_descending(_prime_bits_for(mac.size))
    primes, total = [], 0.0
    while total < bits + 8:
        primes.append(next(gen))
        total += math.log2(primes[-1])
    bound_primes = len(primes)
    primes.append(next(gen))
    numer, denom, blocks = _diagonal_blocks(mac, len(primes))
    t_split = time.perf_counter()
    # fold primes into the lift until it has stayed unchanged over two
    # primes, or the folded primes cover the bound; the next prime is held
    # out.  Folded primes are a prefix of `primes`, so the loop ends by the
    # bound's held-out prime: a disagreement there raises, one before it
    # joins the CRT primes.  No prime agrees with the zero start: phi is
    # monic.
    lift, modulus, steady, times = [0] * (expected_degree + 1), 1, 0, []
    for folded, p in enumerate(primes):
        residues, secs = _phi_mod_prime(numer, denom, p)
        times.append(secs)
        agrees = not any((c - int(v)) % p for c, v in zip(lift, residues))
        if agrees and (steady == 2 or folded == bound_primes):
            break
        if folded == bound_primes:
            raise ArithmeticError(
                f"phi failed verification at the held-out prime {p}")
        lift, modulus = _crt_step(lift, modulus, residues, p)
        steady = steady + 1 if agrees else 0
    phi = UniPoly(enumerate(lift))
    if not phi.is_monic or phi.degree != expected_degree:
        raise ArithmeticError(
            f"phi is not monic of degree {expected_degree}")
    full_s, minor_s, divide_s = zip(*times)
    info = {"num_primes": folded, "verification_prime": p}
    timings = {"build_s": t_build - t_start, "split_s": t_split - t_build,
               **blocks, "predicted_bits": bits,
               "phi_bits": phi.max_coefficient_bits(),
               "crt_mode": "early" if folded < bound_primes else "bound",
               "bound_primes": bound_primes,
               "modular_full": dict(info, per_prime_s=list(full_s[:-1])),
               "modular_reduced": dict(info, per_prime_s=list(minor_s[:-1])),
               "det_full_s": sum(full_s), "det_reduced_s": sum(minor_s),
               "divide_s": sum(divide_s),
               "total_s": time.perf_counter() - t_start}
    return CharPolyResult(phi=phi, method="modular", matrix_size=mac.size,
                          reduced_size=mac.size - mac.reduced_count,
                          timings=timings)
