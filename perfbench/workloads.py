"""The four workloads: seeded inputs, the calls each operation makes, and
the checks on every output.

Each workload builds its inputs in ``generate`` (plain edge lists, from the
seed) and ``construct`` (``Hypergraph`` objects, the only thing the package
receives), and runs one round of operations in ``run_round``.  A round calls
the package through ``api`` so that the traced run can put a span around each
call; the same code runs untraced with the bare functions.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random

# Tolerances of the output checks.
EIGEN_TOL = 1e-8      # verify_eigenpair on lambda_max's vector
RESIDUAL_TOL = 1e-8   # poly_residual(phi, lambda_max)
ROOT_REL_TOL = 1e-6   # lambda_max against the largest |root| of phi
SANDWICH_TOL = 1e-6   # average degree <= lambda_max <= max degree
TRACE_CODEGREES = 4   # coefficients_via_traces(h, 4) against charpoly

# The default gate of the published claim table.
DEFAULT_CLAIMS = (
    "single-edge-charpoly-k2",
    "single-edge-charpoly-k3",
    "single-edge-charpoly-k4",
    "tetra-minus-face-charpoly",
    "codegree-identities-n4-exhaustive",
    "codegree-identities-n5-random",
    "trace-macaulay-agreement-n4",
    "lambda-max-complete-3graphs",
    "lambda-max-bipartite-cylinders",
    "lambda-max-degree-sandwich",
    "ultracube-sporadic-3-2",
    "cartesian-pairs-single-edge",
    "cylinder-2-2-2-witnesses",
    "cylinder-codegree-symmetry",
    "disjoint-union-factorization",
    "greedy-color-bound",
    "ultracube-q32-product-consistency",
)


class Api:
    """The package calls a round makes, bare or wrapped in spans."""

    NAMES = {
        "charpoly": "macaulay",
        "numeric_roots": "polynomials",
        "poly_residual": "polynomials",
        "coefficients_via_traces": "traces",
        "lambda_max": "spectral",
        "verify_eigenpair": "spectral",
        "greedy_color": "spectral",
    }

    def __init__(self, hs, repro, tracer=None):
        self.repro = repro
        self.tracer = tracer
        for name, module in self.NAMES.items():
            fn = getattr(hs, name)
            setattr(self, name, tracer.wrap(fn, module) if tracer else fn)
        self.run_all = (tracer.wrap(repro.run_all, "repro") if tracer
                        else repro.run_all)
        self.run_claims = (tracer.wrap(repro.run_claims, "repro") if tracer
                           else repro.run_claims)
        self.degrees = (tracer.wrap(_degrees, "hypergraphs", "degrees")
                        if tracer else _degrees)

    def check(self):
        return self.tracer.check() if self.tracer else contextlib.nullcontext()

    def claims(self):
        return self.tracer.patch_repro(self.repro) if self.tracer \
            else contextlib.nullcontext()

    def operation(self, op_id):
        if self.tracer:
            self.tracer.op = op_id


def _degrees(h):
    return h.degrees()


class Outcome:
    """One operation: raised errors and failed checks, messages kept."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.raised = []
        self.wrong = []

    @property
    def failed(self):
        return bool(self.raised or self.wrong)

    def messages(self):
        return [f"{self.op_id}: {m}" for m in self.raised + self.wrong]


def _check_lambda(out, lam, eig_res, davg, dmax):
    if not lam.converged:
        out.wrong.append(f"lambda_max did not converge in {lam.iterations} "
                         f"iterations (width {lam.width:.3e})")
    if not eig_res <= EIGEN_TOL:
        out.wrong.append(f"verify_eigenpair residual {eig_res:.3e} "
                         f"> {EIGEN_TOL:g}")
    if not float(davg) - SANDWICH_TOL <= lam.value <= dmax + SANDWICH_TOL:
        out.wrong.append(f"lambda_max {lam.value!r} outside "
                         f"[{float(davg)!r}, {dmax}]")


def _graph_round(api, inputs, operation):
    """One operation per graph; a raised error or a failed check fails it."""
    outcomes = []
    for idx, h in enumerate(inputs):
        api.operation(idx)
        out = Outcome(f"graph{idx}")
        try:
            operation(api, h, out)
        except Exception as exc:  # the operation fails; the round goes on
            out.raised.append(f"{type(exc).__name__}: {exc}")
        outcomes.append(out)
    return outcomes, {}


# -- repro-default -------------------------------------------------------------


class ReproDefault:
    """The default gate of the published claim table; inputs are fixed."""

    name = "repro-default"

    def __init__(self, reduced=False):
        # a few fast claims stand in for the table in the reduced self-test
        self.reduced = reduced

    def generate(self, seed):
        return None

    def construct(self, hs, generated):
        return None

    def operation_count(self, inputs):
        return len(self.wanted)

    @property
    def wanted(self):
        return (DEFAULT_CLAIMS[:2] + ("greedy-color-bound",) if self.reduced
                else DEFAULT_CLAIMS)

    def run_round(self, api, inputs):
        wanted = self.wanted
        with api.claims():
            results = (api.run_claims(list(wanted)) if self.reduced
                       else api.run_all())
        outcomes = []
        seconds = {}
        with api.check():
            for res in results:
                out = Outcome(res.claim_id)
                if res.computed.startswith("error: "):
                    # run_claims turns a raised error into this result
                    out.raised.append(res.computed)
                elif not res.match:
                    out.wrong.append(f"expected {res.expected}, computed "
                                     f"{res.computed}")
                outcomes.append(out)
                seconds[res.claim_id] = res.seconds
            for cid in wanted:
                if cid not in seconds:
                    out = Outcome(cid)
                    out.wrong.append("claim did not run")
                    outcomes.append(out)
        return outcomes, seconds


# -- exact-dense ---------------------------------------------------------------


def _only_constant_z3_labelings(edges, n):
    """True when the only w in Z_3^n with every edge summing to 0 mod 3
    are the three constant labelings."""
    count = 0
    for w in itertools.product(range(3), repeat=n):
        if all((w[a] + w[b] + w[c]) % 3 == 0 for a, b, c in edges):
            count += 1
            if count > 3:
                return False
    return count == 3


def exact_dense_classes(n=5):
    """One edge list per isomorphism class of connected 3-graphs on n
    vertices whose only zero-sum Z_3 labelings are the constant ones."""
    pool = list(itertools.combinations(range(n), 3))
    index = {e: i for i, e in enumerate(pool)}
    # each vertex permutation as a permutation of the triples
    maps = [[index[tuple(sorted(p[v] for v in e))] for e in pool]
            for p in itertools.permutations(range(n))]
    seen = set()
    classes = []
    for mask in range(1, 1 << len(pool)):
        members = [i for i in range(len(pool)) if mask >> i & 1]
        canon = min(sum(1 << m[i] for i in members) for m in maps)
        if canon in seen:
            continue
        seen.add(canon)
        edges = [pool[i] for i in range(len(pool)) if canon >> i & 1]
        if (len(set().union(*edges)) == n and _connected(edges, n)
                and _only_constant_z3_labelings(edges, n)):
            classes.append(edges)
    return classes


def _connected(edges, n):
    seen = set(edges[0])
    grew = True
    while grew:
        grew = False
        for e in edges:
            if seen.intersection(e) and not seen.issuperset(e):
                seen.update(e)
                grew = True
    return len(seen) == n


class ExactDense:
    """Every second filtered class of connected 3-graphs on 5 vertices, in
    canonical order (12 of the 23, from 4 to 10 edges), each under a seeded
    random relabeling, in seeded order: the full exact pipeline.

    The classes are fixed rather than sampled so that the seed changes
    labelings, not the work mix; half of them keep a round near 20 s."""

    name = "exact-dense"
    n = 5

    def __init__(self, reduced=False):
        self.reduced = reduced

    def generate(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        classes = exact_dense_classes(self.n)[::2]
        if self.reduced:
            classes = classes[:3]
        rng.shuffle(classes)
        out = []
        for edges in classes:
            perm = list(range(self.n))
            rng.shuffle(perm)
            out.append([tuple(perm[v] for v in e) for e in edges])
        return out

    def construct(self, hs, generated):
        return [hs.Hypergraph(self.n, 3, edges) for edges in generated]

    def operation_count(self, inputs):
        return len(inputs)

    def run_round(self, api, inputs):
        return _graph_round(api, inputs, self._pipeline)

    @staticmethod
    def _pipeline(api, h, out):
        phi = api.charpoly(h).phi
        try:
            roots = api.numeric_roots(phi)
        except ArithmeticError as exc:
            # counted as a failure; the other checks on this graph still run
            roots = None
            out.raised.append(f"numeric_roots: {exc}")
        via = api.coefficients_via_traces(h, TRACE_CODEGREES)
        lam = api.lambda_max(h)
        eig_res = api.verify_eigenpair(h, lam.value, lam.vector)
        phi_res = api.poly_residual(phi, lam.value)
        _, davg, dmax = api.degrees(h)
        with api.check():
            want = [phi.coeff_at_codegree(cd)
                    for cd in range(TRACE_CODEGREES + 1)]
            if via != want:
                out.wrong.append(f"trace coefficients {via} != charpoly "
                                 f"coefficients {want}")
            if not phi_res <= RESIDUAL_TOL:
                out.wrong.append(f"poly_residual(phi, lambda_max) "
                                 f"{phi_res:.3e} > {RESIDUAL_TOL:g}")
            if roots is not None:
                top = max(abs(z) for z, _ in roots.roots)
                if not abs(top - lam.value) <= ROOT_REL_TOL * max(1.0, top):
                    out.wrong.append(f"lambda_max {lam.value!r} != largest "
                                     f"|root| {top!r}")
            _check_lambda(out, lam, eig_res, davg, dmax)


# -- numeric-large and numeric-small -----------------------------------------------


class _Numeric:
    """lambda_max, verify_eigenpair, greedy_color and degrees per graph."""

    def construct(self, hs, generated):
        return [hs.Hypergraph(n, 3, edges) for n, edges in generated]

    def operation_count(self, inputs):
        return len(inputs)

    def run_round(self, api, inputs):
        return _graph_round(api, inputs, self._checks)

    @staticmethod
    def _checks(api, h, out):
        lam = api.lambda_max(h)
        eig_res = api.verify_eigenpair(h, lam.value, lam.vector)
        col = api.greedy_color(h)
        _, davg, dmax = api.degrees(h)
        with api.check():
            _check_lambda(out, lam, eig_res, davg, dmax)
            colors = col.colors
            if len(colors) != h.n:
                out.wrong.append(f"{len(colors)} of {h.n} vertices colored")
            elif any(colors[a] == colors[b] == colors[c]
                     for a, b, c in h.edges):
                out.wrong.append("coloring has a monochromatic edge")
            bound = math.floor(lam.value + SANDWICH_TOL) + 1
            if col.count > bound:
                out.wrong.append(f"{col.count} colors > floor(lambda_max)+1 "
                                 f"= {bound}")


class NumericLarge(_Numeric):
    """One seeded random 3-graph with n=3000 and m=20000."""

    name = "numeric-large"

    def __init__(self, reduced=False):
        self.n, self.m = (300, 2000) if reduced else (3000, 20000)

    def generate(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        edges = set()
        while len(edges) < self.m:
            edges.add(tuple(sorted(rng.sample(range(self.n), 3))))
        return [(self.n, sorted(edges))]


class NumericSmall(_Numeric):
    """1000 seeded random 3-graphs with n from 6 to 14 vertices and m from
    n to 3n edges, both uniform: tiny graphs, where per-call cost shows.
    A round of them takes a few seconds, so a run times many rounds and its
    median round is steady on a shared machine."""

    name = "numeric-small"

    def __init__(self, reduced=False):
        self.count = 50 if reduced else 1000

    def generate(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        pools = {n: list(itertools.combinations(range(n), 3))
                 for n in range(6, 15)}
        out = []
        for _ in range(self.count):
            n = rng.randint(6, 14)
            pool = pools[n]
            out.append((n, rng.sample(pool, rng.randint(n, 3 * n))))
        return out


WORKLOADS = {w.name: w for w in (ReproDefault, ExactDense, NumericLarge,
                                 NumericSmall)}
