"""Numeric spectral analysis: largest eigenvalue, verification, bounds,
coloring, and closed-form spectra for structured families.

Eigenpairs use the link form of the eigenvalue equations: at vertex j,
sum over edges through j of the product of the other k-1 entries equals
lambda * x_j^(k-1).  One kernel evaluates those link sums for lambda_max
and verify_eigenpair, over edge arrays gathered from Hypergraph.edge_array,
which each hypergraph builds once: one row per (edge, position) pair, in
edge order, holding the vertex and the edge's other k-1 vertices.  One
gather and product per column and one np.bincount over the rows give every
vertex's sum, added in edge order like a loop over its links, so the floats
are the loop's, float64 for a real vector and complex128 for a complex one;
verify_eigenpair's residual is array work of the same kind.  The rest of a
lambda_max step is array work from _ARRAY_MIN_N vertices up; below, Python
floats are as fast and keep the bits numpy's ** would move.  lambda_max
runs one NQZ loop, with one exit, on each component with an edge; an
edgeless component has only the eigenvalue 0 and is never iterated.  The
step is shifted by Delta/(2(k-1)), Delta the largest degree from
h.incidence: the smallest shift that provably damps the step map's
negative eigenvalues without knowing lambda_max, about half the steps of a
shift by Delta.  greedy_color takes its smallest-last order from a heap
and checks its coloring on edge_array.  The closed-form spectra check
their witnesses on one build of the edge arrays; cylinder_spectrum prices
its phase assignments and their witness checks before building anything.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .hypergraphs import (
    Hypergraph,
    _part_sizes,
    cartesian_product,
    complete,
    complete_cylinder,
    is_subgraph,
    ultracube,
)
from .macaulay import _MAX_KERNEL_OPS, _guard_phi
from .polynomials import UniPoly, enumerate_monomials, numeric_roots

__all__ = [
    "ColoringReport",
    "Eigenpair",
    "FamilySpectrum",
    "LambdaMaxReport",
    "cartesian_eigenpair",
    "complete3_spectrum",
    "cylinder_spectrum",
    "degree_bounds_check",
    "greedy_color",
    "lambda_max",
    "root_of_unity_symmetry",
    "single_edge_charpoly",
    "subgraph_monotonicity_check",
    "ultracube_sporadic",
    "verify_eigenpair",
]

# Slack of the bound checks and of the factor pairs cartesian_eigenpair
# accepts; the guard on cylinder_spectrum's phase enumeration.
_SANDWICH_TOL = 1e-6
_MONOTONE_TOL = 1e-8
_FACTOR_TOL = 1e-8
_MAX_ASSIGNMENTS = 10 ** 6
# lambda_max steps on arrays from this component size up: per step, Python
# floats take 19.9 us against 20.4 at n = 14, 23.4 against 21.1 at n = 18
# (random 3-graphs, m = 2n, numpy 2.4, shared 2-core x86 machine).
_ARRAY_MIN_N = 18


# -- eigenpair verification ----------------------------------------------------


def _edge_arrays(h: Hypergraph):
    """(verts, others): the (edge, position) pairs of h as index arrays.

    verts is h.edge_array flattened into a writeable copy, which
    np.bincount takes without copying it again; others is gathered from
    it.  Row r = idx * k + p stands for vertex verts[r] = edges[idx][p], and
    others[r] holds that edge's other k-1 vertices in ascending order, so
    the rows of one vertex come in its ascending incidence order.
    """
    k = h.k
    drop = [[c for c in range(k) if c != p] for p in range(k)]
    return h.edge_array.flatten(), h.edge_array[:, drop].reshape(-1, k - 1)


def _link_sums(arrays, x, n: int):
    """For each vertex, the sum over its link of the product of x's entries:
    a float64 array for a real x, a complex128 array for a complex one.

    The products are gathered column by column, left to right, and
    np.bincount adds each vertex's terms in edge order starting from 0.0,
    which is the order and the rounding of a loop over h.link(v).  Complex
    products use CPython's formula on the real and imaginary parts, so the
    sums carry the bits that Python complex arithmetic gives.
    """
    verts, others = arrays
    xa = np.asarray(x)
    if not np.iscomplexobj(xa):
        prod = xa[others[:, 0]]
        for c in range(1, others.shape[1]):
            prod = prod * xa[others[:, c]]
        # bincount of no terms is int zeros
        return np.bincount(verts, prod, n).astype(float, copy=False)
    xr, xi = xa.real, xa.imag
    re, im = 1.0, 0.0
    for c in range(others.shape[1]):
        br, bi = xr[others[:, c]], xi[others[:, c]]
        re, im = re * br - im * bi, re * bi + im * br
    sums = np.bincount(verts, re, n).astype(complex)
    sums.imag = np.bincount(verts, im, n)
    return sums


def _as_double(v):
    """v as a float64 array if it is real, else as a complex128 array; numpy
    holds integers past 64 bits as objects, whose range complex() checks."""
    a = np.asarray(v)
    try:
        return a.astype(complex if a.dtype.kind in "cO" else float)
    except OverflowError:
        raise ValueError("eigenpair entry outside double precision") from None


def verify_eigenpair(h: Hypergraph, lam, x) -> float:
    """Max residual of the eigenvalue equations, scaled by the vector size.

    Returns max_j |sum over links(j) of x^e - lam * x_j^(k-1)|, divided by
    max(1, max_i |x_i|^(k-1)), on float64 arrays and the real link-sum
    kernel for a real x, on complex128 arrays otherwise.  A vector not of
    shape (n,), a value or entry non-finite or outside double precision,
    or one whose terms overflow it, is a ValueError.
    """
    return _eigen_residual(h, _edge_arrays(h), lam, x)


def _eigen_residual(h: Hypergraph, arrays, lam, x) -> float:
    """verify_eigenpair with h's edge arrays given."""
    xa, lam = _as_double(x), _as_double(lam)
    if xa.shape != (h.n,) or lam.shape:
        raise ValueError(f"vector of shape {xa.shape} and value of shape "
                         f"{lam.shape} for n={h.n}")
    if not xa.any():
        raise ValueError("zero vector is not an eigenvector")
    if not (np.isfinite(xa).all() and np.isfinite(lam)):
        raise ValueError("eigenpair has a non-finite value or entry")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(xa).max() ** (h.k - 1)
        terms = np.abs(_link_sums(arrays, xa, h.n) - lam * xa ** (h.k - 1))
        top = terms.max()  # NaN if any term is, unlike Python's max
    if not (np.isfinite(norm) and np.isfinite(top)):
        raise ValueError("eigenpair overflows double precision")
    return float(top / max(1.0, norm))


@dataclass
class Eigenpair:
    value: complex
    vector: tuple
    residual: float


# -- largest eigenvalue ---------------------------------------------------------


@dataclass
class LambdaMaxReport:
    """Largest eigenvalue with a Collatz-style enclosure.

    value sits midway in [lower, upper]; the vector is normalized so the
    k-th powers of its entries sum to 1, and is strictly positive when the
    input is connected.
    """

    value: float
    vector: tuple
    lower: float
    upper: float
    iterations: int
    converged: bool
    residual: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _uniform_unit_vector(n: int, k: int):
    return [n ** (-1.0 / k)] * n


def _lambda_max_connected(h: Hypergraph, arrays, tol: float, max_iter: int):
    """(lower, upper, vector, iterations, converged) of the shifted power
    iteration on a connected input with edges, whose edge arrays are given.

    The step is NQZ's (Ng, Qi and Zhou, 2009): x -> (A x^(k-1) + alpha
    x^[k-1])^[1/(k-1)], normalised.  Near the Perron pair (rho, x*) it maps
    an error e to (rho S + alpha I) e / (rho + alpha), where S = D^-1 W,
    W = sum over edges e of pi_e (J_e - I_e), pi_e = prod_(u in e) x*_u and
    D = (k-1) diag(sum over e through i of pi_e).  W >= -D/(k-1), so S is
    similar to a symmetric matrix with spectrum in [-1/(k-1), 1].  With
    c = alpha/rho >= 1/(2(k-1)) the negative end contributes at most
    c/(1+c), and the rate (sigma_2 + c)/(1 + c), sigma_2 < 1 the next
    eigenvalue of S, falls with c.  As the largest degree Delta >= rho,
    alpha = Delta/(2(k-1)) is the smallest shift safe without knowing rho.
    The Collatz bounds hold for any positive vector.  The loop's one exit is
    the first step whose enclosure is within tol and whose residual at its
    midpoint is small, or the last of max_iter steps.

    From _ARRAY_MIN_N vertices up a step is float64 array work, its sum left
    to right; below, Python floats keep the bits numpy's ** would move."""
    n, k = h.n, h.k
    shift = max(map(len, h.incidence)) / (2 * (k - 1))
    lower, upper = -math.inf, math.inf
    inv = 1.0 / (k - 1)
    on_arrays = n >= _ARRAY_MIN_N
    x = _uniform_unit_vector(n, k)
    x = np.array(x) if on_arrays else x
    for iterations in range(1, max_iter + 1):
        if on_arrays:
            ax = _link_sums(arrays, x, n)
            powers = x ** (k - 1)
            ratios = ax / powers
            lower = max(lower, float(ratios.min()))
            upper = min(upper, float(ratios.max()))
        else:
            ax = _link_sums(arrays, x, n).tolist()
            powers = [v ** (k - 1) for v in x]
            ratios = [a / p for a, p in zip(ax, powers)]
            lower = max(lower, min(ratios))
            upper = min(upper, max(ratios))
        mid = 0.5 * (lower + upper)
        converged = upper - lower <= tol and (
            float(np.abs(ax - mid * powers).max()) if on_arrays
            else max(abs(a - mid * p) for a, p in zip(ax, powers))
        ) <= max(tol * 1e-2, 1e-13)
        if converged:
            break
        if on_arrays:
            y = (ax + shift * powers) ** inv
            x = y / np.cumsum(y ** k)[-1] ** (1.0 / k)
        else:
            y = [(a + shift * p) ** inv for a, p in zip(ax, powers)]
            scale = sum(v ** k for v in y) ** (1.0 / k)
            x = [v / scale for v in y]
    return lower, upper, x.tolist() if on_arrays else x, iterations, converged


def lambda_max(h: Hypergraph, tol: float = 1e-8,
               max_iter: int = 100000) -> LambdaMaxReport:
    """Largest eigenvalue via shifted power iteration with certified bounds.

    Each component with an edge is iterated on its own and yields a
    strictly positive eigenvector; an edgeless one has only the eigenvalue
    0, below any component with an edge, so it is not iterated.  The
    component with the largest midpoint wins, the first on ties.  The
    report carries its vector extended by zeros (still an exact eigenpair
    of the union), the iteration count summed over the components and
    whether all of them converged.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if h.num_edges == 0:
        x = _uniform_unit_vector(h.n, h.k)
        return LambdaMaxReport(0.0, tuple(x), 0.0, 0.0, 0, True, 0.0)
    parts = [(sub, verts, _edge_arrays(sub))
             for sub, verts in h.components() if sub.num_edges]
    lowers, uppers, vectors, iters, convs = zip(*(
        _lambda_max_connected(sub, arrays, tol, int(max_iter))
        for sub, _, arrays in parts))
    best = max(range(len(parts)), key=lambda i: 0.5 * (lowers[i] + uppers[i]))
    sub, verts, arrays = parts[best]
    mid = 0.5 * (lowers[best] + uppers[best])
    full = [0.0] * h.n
    for i, v in enumerate(verts):
        full[v] = vectors[best][i]
    # the residual of full on h: its zeros add exact zeros to every link
    # sum, and sub keeps each vertex's edges in h's order
    return LambdaMaxReport(mid, tuple(full), lowers[best], uppers[best],
                           sum(iters), all(convs),
                           _eigen_residual(sub, arrays, mid, vectors[best]))


def degree_bounds_check(h: Hypergraph):
    """(average degree, lambda_max, max degree, pass) for the sandwich bound."""
    dmin, davg, dmax = h.degrees()
    lam = lambda_max(h).value
    ok = float(davg) - _SANDWICH_TOL <= lam <= dmax + _SANDWICH_TOL
    return davg, lam, dmax, ok


# -- coloring --------------------------------------------------------------------


@dataclass
class ColoringReport:
    """Greedy weak coloring along a smallest-last elimination order.

    The order removes, at each step, the vertex of least degree among the
    edges still alive, the smaller label on ties.  A heap of integer keys
    degree * n + vertex, ordered as the (degree, vertex) pairs are, picks
    it: each degree drop pushes a new key, which sorts before the vertex's
    stale ones, so the first key popped for a vertex is current and later
    ones are skipped as removed.  colors maps each vertex to a positive
    integer; no edge ends up with all vertices the same color;
    count <= degeneracy + 1.
    """

    colors: dict
    count: int
    order: tuple
    degeneracy: int


def greedy_color(h: Hypergraph) -> ColoringReport:
    n = h.n
    incidence = h.incidence
    removed = [False] * n
    alive = [True] * len(h.edges)
    closes = [[] for _ in range(n)]  # the edges v is first in the order on
    degree = [len(idxs) for idxs in incidence]
    heap = [d * n + v for v, d in enumerate(degree)]
    heapq.heapify(heap)
    order = []
    degeneracy = 0
    for _ in range(n):
        d, v = divmod(heapq.heappop(heap), n)
        while removed[v]:
            d, v = divmod(heapq.heappop(heap), n)
        degeneracy = max(degeneracy, d)
        order.append(v)
        removed[v] = True
        for idx in incidence[v]:
            if alive[idx]:
                alive[idx] = False
                closes[v].append(idx)
                for u in h.edges[idx]:
                    if not removed[u]:
                        degree[u] -= 1
                        heapq.heappush(heap, degree[u] * n + u)
    colors: dict = {}
    for v in reversed(order):
        forbidden = set()
        for idx in closes[v]:  # the edge's other vertices are colored
            cs = {colors[u] for u in h.edges[idx] if u != v}
            if len(cs) == 1:
                forbidden.add(cs.pop())
        c = 1
        while c in forbidden:
            c += 1
        colors[v] = c
    palette = np.fromiter(map(colors.get, range(n)), np.intp, n)
    mono = np.ptp(palette[h.edge_array], axis=1) == 0
    if mono.any():
        raise ArithmeticError(f"greedy coloring left edge "
                              f"{h.edges[mono.argmax()]} monochromatic")
    return ColoringReport(colors=colors, count=max(colors.values()),
                          order=tuple(order), degeneracy=degeneracy)


def subgraph_monotonicity_check(g: Hypergraph, h: Hypergraph,
                                embedding=None) -> bool:
    """Check lambda_max(g) <= lambda_max(h) + 1e-8 for an embedded
    subgraph."""
    if not is_subgraph(g, h, embedding):
        raise ValueError("g does not embed into h along the given map")
    return lambda_max(g).value <= lambda_max(h).value + _MONOTONE_TOL


# -- structured families ----------------------------------------------------------


def single_edge_charpoly(k: int) -> UniPoly:
    """Closed-form characteristic polynomial of one k-edge; GuardError
    refuses, before it is expanded, one too large to hold (k >= 7)."""
    if k < 2:
        raise ValueError("uniformity k must be at least 2")
    _guard_phi(k * (k - 1) ** (k - 1), 1)
    r = k * (k - 1) ** (k - 1) - k ** (k - 1)
    body = UniPoly({k: 1, 0: -1}) ** (k ** (k - 2))
    return body.shift(r)


def root_of_unity_symmetry(phi: UniPoly, k: int) -> bool:
    """True when every nonzero coefficient sits at codegree 0 mod k."""
    if phi.is_zero:
        raise ValueError("zero polynomial")
    top = phi.degree
    return all((top - d) % k == 0 for d, v in phi.coefficients().items() if v)


@dataclass
class FamilySpectrum:
    """Eigenvalues of a structured family with verification witnesses.

    values are deduplicated; descriptions give the radical-times-root-of-
    unity form; witnesses are explicit eigenvectors and residuals come from
    verify_eigenpair on those witnesses.
    """

    family: str
    values: tuple
    descriptions: tuple
    residuals: tuple
    witnesses: tuple
    note: str

    @property
    def real_values(self) -> list:
        return sorted(v.real for v in self.values if abs(v.imag) < 1e-9)

    def max_real(self) -> float:
        return max(self.real_values)


def _dedup_key(z: complex):
    return (round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0)


class _Eigenpairs(dict):
    """Verified eigenpairs of h by rounded value; the first one added for a
    value is kept.  Every witness is checked on one build of h's edge
    arrays."""

    def __init__(self, h: Hypergraph):
        super().__init__()
        self.h = h
        self.arrays = _edge_arrays(h)

    def add(self, value, desc, witness):
        key = _dedup_key(value)
        if key not in self:
            self[key] = (value, desc,
                         _eigen_residual(self.h, self.arrays, value, witness),
                         tuple(witness))

    def spectrum(self, family: str, note: str) -> FamilySpectrum:
        vals, descs, ress, wits = zip(*self.values())
        return FamilySpectrum(family=family, values=vals, descriptions=descs,
                              residuals=ress, witnesses=wits, note=note)


def cylinder_spectrum(part_sizes) -> FamilySpectrum:
    """Spectrum of the complete cylinder with the given part sizes.

    Nonzero values come from per-part phase sums: each vertex of part i
    carries a (k-1)-st root of unity, m_i is the part sum, and the k values
    with lambda^k = prod m_i^(k-1) are eigenvalues, realized by the vector
    x_v = phase_v * m_i^(-1/k).  Only the phase counts matter, so parts are
    enumerated by count vectors.  Zero belongs to the spectrum except for a
    single 2-uniform edge.  GuardError refuses, before the cylinder is
    built, more than _MAX_ASSIGNMENTS phase assignments, or witness checks
    predicted to take more than _MAX_KERNEL_OPS link products: k values an
    assignment, each verified over the m edges' (k-1)*k link products.
    """
    sizes = _part_sizes(part_sizes)
    k = len(sizes)
    num_phases = k - 1
    assignments = math.prod(math.comb(m + num_phases - 1, num_phases - 1)
                            for m in sizes)
    ops = k * assignments * (k - 1) * k * math.prod(sizes)
    if assignments > _MAX_ASSIGNMENTS or ops > _MAX_KERNEL_OPS:
        raise GuardError(
            f"{assignments} phase assignments, whose witnesses would take "
            f"{ops} link products, exceed the guard (budgets "
            f"{_MAX_ASSIGNMENTS:.2g} and {_MAX_KERNEL_OPS:.2g})",
            {"assignments": assignments, "guard": _MAX_ASSIGNMENTS,
             "predicted_ops": ops, "max_kernel_ops": _MAX_KERNEL_OPS})
    h = complete_cylinder(sizes)
    n = h.n
    zeta = cmath.exp(2j * cmath.pi / num_phases) if num_phases > 1 else 1.0
    omega = cmath.exp(2j * cmath.pi / k)
    found = _Eigenpairs(h)

    # zero, with an exact witness
    if k >= 3:
        e0 = [0.0] * n
        e0[0] = 1.0
        found.add(0j, "0", e0)
    elif n > 2:
        # +1 and -1 on the first two vertices of the first largest part
        start = sum(sizes[:sizes.index(max(sizes))])
        w = [0.0] * n
        w[start:start + 2] = [1.0, -1.0]
        found.add(0j, "0", w)

    # phase counts in ascending lex order, the order the values are listed in
    per_part_counts = [enumerate_monomials(num_phases, m)[::-1]
                       for m in sizes]
    for counts in itertools.product(*per_part_counts):
        ms = []
        for cvec in counts:
            s = 0j
            for r, c in enumerate(cvec):
                s += c * zeta ** r
            ms.append(s)
        if any(abs(m) < 1e-12 for m in ms):
            continue
        mus = [m ** (-1.0 / k) for m in ms]
        lam_base = 1 + 0j
        for m, mu in zip(ms, mus):
            lam_base *= m * mu
        m_desc = ",".join(_fmt_complex(m) for m in ms)
        for t in range(k):
            lam = lam_base * omega ** t
            if _dedup_key(lam) in found:
                continue
            # part by part, in complete_cylinder's vertex order
            witness = []
            for i, cvec in enumerate(counts):
                mu = mus[i] * (omega ** t if i == 0 else 1.0)
                for r, c in enumerate(cvec):
                    witness += [zeta ** r * mu] * c
            desc = f"rot{t} of ({m_desc})^({k - 1}/{k})"
            found.add(lam, desc, witness)
    return found.spectrum("complete_cylinder" + str(tuple(sizes)),
                          "transversal phase construction")


def _fmt_complex(z: complex) -> str:
    re = round(z.real, 6)
    im = round(z.imag, 6)
    if im == 0:
        return f"{re:g}"
    return f"{re:g}{im:+g}i"


def complete3_spectrum(n: int) -> FamilySpectrum:
    """Spectrum of the complete 3-uniform hypergraph on n vertices.

    Besides 0, 1, and C(n-1,2), every eigenvalue realized by a two-valued
    vector (c on t vertices, 1 on the rest) appears; eliminating lambda from
    the two vertex equations leaves a degree-4 polynomial in c per t, whose
    roots give lambda = C(t,2)c^2 + t(n-t-1)c + C(n-t-1,2).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    found = _Eigenpairs(complete(n, 3))
    ones = [1.0] * n
    found.add(complex(math.comb(n - 1, 2)), f"C({n - 1},2)", ones)
    zeta3 = cmath.exp(2j * cmath.pi / 3)
    w1 = [1.0 + 0j, zeta3, zeta3 ** 2] + [0j] * (n - 3)
    found.add(1 + 0j, "1", w1)
    e0 = [0.0] * n
    e0[0] = 1.0
    found.add(0j, "0", e0)
    for t in range(1, n // 2 + 1):
        quartic = UniPoly({
            4: math.comb(t, 2),
            3: t * (n - t - 1),
            2: math.comb(n - t - 1, 2) - math.comb(t - 1, 2),
            1: -(t - 1) * (n - t),
            0: -math.comb(n - t, 2),
        })
        for c, _mult in numeric_roots(quartic).roots:
            lam = (math.comb(t, 2) * c * c + t * (n - t - 1) * c
                   + math.comb(n - t - 1, 2))
            witness = [c] * t + [1.0 + 0j] * (n - t)
            found.add(lam, f"t={t}, c={_fmt_complex(c)}", witness)
    return found.spectrum(f"complete({n},3)",
                          "two-valued vectors plus a quartic")


def cartesian_eigenpair(g: Hypergraph, lam_g, u, h: Hypergraph, lam_h,
                        v) -> Eigenpair:
    """Combine factor eigenpairs into one of the cartesian product.

    The product vector w_(a,b) = u_a * v_b carries eigenvalue lam_g + lam_h;
    vertex (a, b) has index a * h.n + b, matching cartesian_product.
    """
    res_g = verify_eigenpair(g, lam_g, u)
    if res_g > _FACTOR_TOL:
        raise ValueError(f"first factor pair fails verification ({res_g:.2e})")
    res_h = verify_eigenpair(h, lam_h, v)
    if res_h > _FACTOR_TOL:
        raise ValueError(f"second factor pair fails verification ({res_h:.2e})")
    w = [0j] * (g.n * h.n)
    for a in range(g.n):
        for b in range(h.n):
            w[a * h.n + b] = complex(u[a]) * complex(v[b])
    value = complex(lam_g) + complex(lam_h)
    prod = cartesian_product(g, h)
    return Eigenpair(value=value, vector=tuple(w),
                     residual=verify_eigenpair(prod, value, w))


def ultracube_sporadic(k: int, d: int) -> Eigenpair:
    """The eigenpair (d^(1/k), x) of the k-uniform d-dimensional ultracube
    with x = d^(1/k) at the origin, 1 at Hamming distance one, 0 elsewhere.

    The zero pattern only closes the equations when edges have at least two
    other vertices, so k > 2; d > 1 keeps the value off the single-edge
    spectrum.
    """
    if k <= 2:
        raise ValueError("needs k > 2")
    if d <= 1:
        raise ValueError("needs d > 1")
    h = ultracube(k, d)
    lam = d ** (1.0 / k)
    x = [0.0] * h.n
    x[0] = lam
    for axis in range(d):
        stride = k ** (d - 1 - axis)
        for c in range(1, k):
            x[c * stride] = 1.0
    return Eigenpair(value=complex(lam), vector=tuple(x),
                     residual=verify_eigenpair(h, lam, x))
