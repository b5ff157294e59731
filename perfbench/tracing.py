"""Spans around the benchmark's calls into the package, and the per-layer
metrics derived from them.

Spans are recorded only from the benchmark's own code: around each public
call it makes, and, for the claim table, around the package functions that
``hypergraph_spectra.repro`` imports (its module namespace is patched for the
traced round and restored afterwards).  Finer ``macaulay`` figures are read
from the public ``CharPolyResult.timings``.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import time

from workloads import DEFAULT_CLAIMS

MODULES = ("hypergraphs", "macaulay", "polynomials", "traces", "spectral",
           "repro")

# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = {
    "macaulay.charpoly_s": "s",
    "macaulay.charpoly_calls": "count",
    "macaulay.build_s": "s",
    "macaulay.det_s": "s",
    "macaulay.kernel_s": "s",
    "macaulay.kernel_calls": "count",
    "macaulay.kernel_ops": "count",
    "macaulay.matrix_size_max": "rows",
    "macaulay.disjoint_calls": "count",
    "macaulay.prime_yield": "ratio",
    "macaulay.interp_s": "s",
    "macaulay.interp_points": "count",
    "macaulay.crt_verify_s": "s",
    "polynomials.roots_s": "s",
    "polynomials.roots_calls": "count",
    "polynomials.roots_distinct": "count",
    "polynomials.roots_failed": "count",
    "polynomials.residual_s": "s",
    "polynomials.divide_s": "s",
    "traces.coefficients_s": "s",
    "traces.coefficients_calls": "count",
    "spectral.lambda_max_s": "s",
    "spectral.lambda_max_calls": "count",
    "spectral.lambda_max_iterations": "count",
    "spectral.lambda_max_unconverged": "count",
    "spectral.verify_s": "s",
    "spectral.color_s": "s",
    "hypergraphs.construct_s": "s",
    "hypergraphs.degrees_s": "s",
    **{f"repro.claim_s.{cid}": "s" for cid in DEFAULT_CLAIMS},
    **{f"{mod}.self_s": "s" for mod in MODULES},
    "bench.check_s": "s",
    "bench.glue_s": "s",
    "trace.wall_s": "s",
    "trace_overhead_s": "s",
}

# Span names whose summed duration and count become a metric.
_SPAN_TOTALS = {
    "macaulay.charpoly": ("macaulay.charpoly_s", "macaulay.charpoly_calls"),
    "polynomials.numeric_roots": ("polynomials.roots_s",
                                  "polynomials.roots_calls"),
    "polynomials.poly_residual": ("polynomials.residual_s", None),
    "traces.coefficients_via_traces": ("traces.coefficients_s",
                                       "traces.coefficients_calls"),
    "spectral.lambda_max": ("spectral.lambda_max_s",
                            "spectral.lambda_max_calls"),
    "spectral.verify_eigenpair": ("spectral.verify_s", None),
    "spectral.greedy_color": ("spectral.color_s", None),
    "hypergraphs.construct": ("hypergraphs.construct_s", None),
    "hypergraphs.degrees": ("hypergraphs.degrees_s", None),
}

# Metrics read from call results rather than summed from spans.
_COUNTERS = (
    "macaulay.build_s", "macaulay.det_s", "macaulay.kernel_s",
    "macaulay.kernel_calls", "macaulay.kernel_ops",
    "macaulay.matrix_size_max", "macaulay.disjoint_calls",
    "macaulay.interp_s", "macaulay.interp_points",
    "polynomials.roots_distinct", "polynomials.roots_failed",
    "polynomials.divide_s",
    "spectral.lambda_max_iterations", "spectral.lambda_max_unconverged",
)

CHECK = "bench.check"
ROUND = "bench.round"


class Tracer:
    """Spans kept in memory as [name, module, start, end, parent, op]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self.prime_bits = 0.0  # bits of the CRT primes used
        self.coeff_bits = 0  # bits of the determinants they recovered
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, module):
        rec = [name, module, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def check(self):
        return self.span(CHECK, "bench")

    def wrap(self, fn, module, name=None):
        """fn with a span around each call; results feed the counters."""
        span_name = f"{module}.{name or fn.__name__}"
        observe = _OBSERVERS.get(span_name)

        def traced(*args, **kwargs):
            try:
                with self.span(span_name, module):
                    out = fn(*args, **kwargs)
            except Exception:
                if span_name == "polynomials.numeric_roots":
                    self.counters["polynomials.roots_failed"] += 1
                raise
            if observe is not None:
                observe(self, out)
            return out

        return traced

    @contextlib.contextmanager
    def patch_repro(self, repro):
        """Trace the package functions the claim table imports."""
        saved = {}
        for attr, obj in vars(repro).items():
            mod = getattr(obj, "__module__", None) or ""
            traceable = (inspect.isfunction(obj)
                         or getattr(obj, "__name__", "") == "Hypergraph")
            if (traceable and mod.startswith("hypergraph_spectra.")
                    and mod != repro.__name__):
                saved[attr] = obj
        for attr, obj in saved.items():
            module = obj.__module__.rsplit(".", 1)[1]
            # repro only builds hypergraphs from that module
            name = "construct" if module == "hypergraphs" else None
            setattr(repro, attr, self.wrap(obj, module, name))
        try:
            yield
        finally:
            for attr, obj in saved.items():
                setattr(repro, attr, obj)

    # -- metrics ---------------------------------------------------------

    def layer_metrics(self, claim_seconds, setup_construct_s, untraced_wall_s):
        """Every per-layer metric, from the spans of one traced round."""
        out = dict.fromkeys(LAYER_METRICS, 0)
        out.update(self.counters)
        children = [0.0] * len(self.spans)
        for name, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        rounds = [s for s in self.spans if s[0] == ROUND]
        wall = sum(s[3] - s[2] for s in rounds)
        for idx, (name, module, start, end, _, _) in enumerate(self.spans):
            total, calls = _SPAN_TOTALS.get(name, (None, None))
            if total:
                out[total] += end - start
            if calls:
                out[calls] += 1
            self_time = end - start - children[idx]
            if name == CHECK:
                out["bench.check_s"] += self_time
            elif module == "bench":
                out["bench.glue_s"] += self_time
            else:
                out[f"{module}.self_s"] += self_time
        out["hypergraphs.construct_s"] += setup_construct_s
        out["macaulay.crt_verify_s"] = (out["macaulay.det_s"]
                                        - out["macaulay.kernel_s"]
                                        - out["macaulay.interp_s"])
        if self.prime_bits:
            out["macaulay.prime_yield"] = self.coeff_bits / self.prime_bits
        for cid, seconds in claim_seconds.items():
            key = f"repro.claim_s.{cid}"
            if key in out:
                out[key] = seconds
        out["trace.wall_s"] = wall
        out["trace_overhead_s"] = wall - untraced_wall_s
        return out


# -- result readers ----------------------------------------------------------


def _leaf_results(res):
    if getattr(res, "components", None):
        for part in res.components:
            yield from _leaf_results(part)
    else:
        yield res


def _observe_charpoly(tracer, res):
    """Read CharPolyResult.timings; keys a result lacks count as 0."""
    c = tracer.counters
    if res.method == "disjoint":
        c["macaulay.disjoint_calls"] += 1
    for leaf in _leaf_results(res):
        t = leaf.timings
        det_s = t.get("det_full_s", 0.0) + t.get("det_reduced_s", 0.0)
        c["macaulay.build_s"] += t.get("build_s", 0.0)
        c["macaulay.det_s"] += det_s
        c["polynomials.divide_s"] += t.get("divide_s", 0.0)
        c["macaulay.matrix_size_max"] = max(c["macaulay.matrix_size_max"],
                                            leaf.matrix_size)
        if "per_point_s" in t:
            c["macaulay.interp_s"] += det_s
            c["macaulay.interp_points"] += (
                len(t["per_point_s"]) + len(t.get("per_point_reduced_s", ())))
        for key, size, poly in (("modular_full", leaf.matrix_size, leaf.detM),
                                ("modular_reduced", leaf.reduced_size,
                                 leaf.detMprime)):
            info = t.get(key) or {}
            primes = info.get("num_primes", 0)
            if not primes:
                continue
            calls = primes + 1  # with the held-out prime
            c["macaulay.kernel_s"] += sum(info.get("per_prime_s", ()))
            c["macaulay.kernel_calls"] += calls
            c["macaulay.kernel_ops"] += calls * size ** 3
            if "verification_prime" in info and poly is not None:
                # the primes descend from one bit length, so each has the
                # held-out prime's length within a fraction of a bit
                tracer.prime_bits += primes * math.log2(
                    info["verification_prime"])
                tracer.coeff_bits += poly.max_coefficient_bits() + 1  # sign


def _observe_roots(tracer, roots):
    tracer.counters["polynomials.roots_distinct"] += len(roots.roots)


def _observe_lambda_max(tracer, rep):
    tracer.counters["spectral.lambda_max_iterations"] += rep.iterations
    if not rep.converged:
        tracer.counters["spectral.lambda_max_unconverged"] += 1


_OBSERVERS = {
    "macaulay.charpoly": _observe_charpoly,
    "polynomials.numeric_roots": _observe_roots,
    "spectral.lambda_max": _observe_lambda_max,
}
