"""Command-line front end.

A ``--family`` spec names a row of _FAMILIES: its builder, the builder's
parameters in order, and an edge count by which a family is priced before
it is built.  Each command parses its spec once.

Exit codes: 0 success, 1 usage or input error, 2 verification or
reproduction mismatch.  Results go to stdout; timing summaries go to stderr
so that output bytes stay deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import GuardError
from .hypergraphs import (
    Hypergraph,
    complete,
    complete_cylinder,
    from_edge_list,
    single_edge,
    tetra_minus_face,
    to_edge_list,
    ultracube,
)
from .macaulay import _MAX_BYTES, charpoly
from .spectral import (
    complete3_spectrum,
    cylinder_spectrum,
    degree_bounds_check,
    greedy_color,
    lambda_max,
    single_edge_charpoly,
    ultracube_sporadic,
    verify_eigenpair,
)
from .traces import coefficients_via_traces, generalized_trace
from . import repro

__all__ = ["main", "parse_family"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _family_name_params(spec: str):
    """Split ``name:key=v1,v2,key2=v3`` into the name and a key->values map.

    Comma-separated values without an ``=`` extend the previous key, so
    ``cylinder:parts=2,3`` yields parts -> ["2", "3"].
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower().replace("_", "-")
    params: dict = {}
    key = None
    for tok in rest.split(",") if rest else []:
        tok = tok.strip()
        if "=" in tok:
            key, _, val = tok.partition("=")
            key = key.strip().lower()
            if key in params:
                raise ValueError(f"family parameter {key} given twice")
            params[key] = [val.strip()]
        elif key is None:
            raise ValueError(f"family parameter {tok!r} is not key=value")
        else:
            params[key].append(tok)
    return name, params


# name -> (builder, its parameters in order, its edge count).  An edge count
# is 0 for parameters its builder refuses, so that the builder's message
# stands.
_FAMILIES = {
    "single-edge": (single_edge, ("k",), lambda k: 1),
    "complete": (complete, ("n", "k"),
                 lambda n, k: math.comb(n, k) if 2 <= k <= n else 0),
    "cylinder": (complete_cylinder, ("parts",),
                 lambda parts: math.prod(parts)
                 if len(parts) > 1 and min(parts) > 0 else 0),
    "ultracube": (ultracube, ("k", "d"),
                  lambda k, d: d * k ** (d - 1) if k > 1 and d > 0 else 0),
    "tetra-minus-face": (tetra_minus_face, (), lambda: 3),
}

# Peak bytes per edge while a family is built, measured with tracemalloc:
# 234 for complete(60,3), 281 for cylinder [10]*5, 407 for complete(18,9),
# 504 for ultracube(3,9) and 1161 for ultracube(10,4), whose intermediate
# products stay alive while the next one is built.  Families with many
# vertices an edge peak higher: ultracube(20,3) at 2407, one 10000-edge at
# 2.07 MB.
_EDGE_BYTES = 1200


def _family_recipe(spec: str, default_k=None):
    """(name, args) of a family spec, so that build(*args) builds it, where
    build is the name's _FAMILIES builder.  args follows the row's
    parameter names: ``parts`` is a list of ints, any other parameter one
    int, and ``k`` may come from default_k.  Nothing is built."""
    name, params = _family_name_params(spec)
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    args = []
    for pname in _FAMILIES[name][1]:
        vals = params.pop(pname, None)
        if vals is None and pname == "k" and default_k is not None:
            args.append(default_k)
        elif vals is None:
            raise ValueError(f"family {name!r} needs {pname}=")
        elif pname == "parts":
            args.append([int(v) for v in vals])
        elif len(vals) != 1:
            raise ValueError(f"family parameter {pname} takes one value")
        else:
            args.append(int(vals[0]))
    if params:
        extra = ", ".join(sorted(params))
        raise ValueError(f"unused family parameters: {extra}")
    return name, args


def _build_family(name: str, args) -> Hypergraph:
    """The family built from _family_recipe's (name, args); GuardError
    refuses, before it is built, one whose edges are predicted to take more
    than _MAX_BYTES."""
    build, _, count = _FAMILIES[name]
    edges = count(*args)
    nbytes = edges * _EDGE_BYTES
    if nbytes > _MAX_BYTES:
        raise GuardError(
            f"family {name!r} has {edges} edges, which would take "
            f"{nbytes >> 20} MiB (budget {_MAX_BYTES >> 20} MiB)",
            {"edges": edges, "predicted_bytes": nbytes,
             "max_bytes": _MAX_BYTES})
    return build(*args)


def parse_family(spec: str, default_k=None) -> Hypergraph:
    """Build a named family from a spec like ``complete:n=4,k=3``."""
    return _build_family(*_family_recipe(spec, default_k))


def _load(ns) -> Hypergraph:
    if getattr(ns, "file", None) and getattr(ns, "family", None):
        raise ValueError("give either --file or --family, not both")
    if getattr(ns, "file", None):
        with open(ns.file, "r", encoding="utf-8") as fh:
            return from_edge_list(fh.read())
    if getattr(ns, "family", None):
        return parse_family(ns.family, default_k=getattr(ns, "k", None))
    raise ValueError("one of --file or --family is required")


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _complex_pair(z: complex) -> list:
    return [z.real, z.imag]


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}")


def _add_input_flags(p, family_only=False):
    if not family_only:
        p.add_argument("--file", help="edge-list file")
    p.add_argument("--family", required=family_only,
                   help="family spec, e.g. complete:n=4,k=3 or "
                        "cylinder:parts=2,3 or ultracube:k=3,d=2")
    p.add_argument("--k", type=int, help="default uniformity for --family")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_gen(ns) -> int:
    print(to_edge_list(_load(ns)), end="")
    return 0


def _cmd_charpoly(ns) -> int:
    h = _load(ns)
    result = charpoly(h)
    timings = {key: round(val, 6) if isinstance(val, float) else val
               for key, val in result.timings.items()}
    print(f"method={result.method} size={result.matrix_size} "
          f"timings={json.dumps(timings, sort_keys=True)}", file=sys.stderr)
    if ns.format == "json":
        _emit_json({
            "n": h.n, "k": h.k, "num_edges": h.num_edges,
            "method": result.method,
            "matrix_size": result.matrix_size,
            "degree": result.phi.degree,
            "coefficients": result.phi.to_json(),
        })
    else:
        print(result.phi)
    return 0


def _cmd_coeffs(ns) -> int:
    h = _load(ns)
    cap = ns.max_codegree if ns.max_codegree is not None else h.k + 1
    coeffs = coefficients_via_traces(h, cap)
    implied = None
    if h == complete(h.k + 1, h.k) and cap >= h.k + 1:
        value, rem = divmod(coeffs[h.k + 1], -(h.k - 1))
        if rem == 0:
            implied = value
    if ns.format == "json":
        payload = {"n": h.n, "k": h.k,
                   "coefficients": [str(c) for c in coeffs]}
        if implied is not None:
            payload["implied_simplex_constant"] = str(implied)
        _emit_json(payload)
    else:
        for cd, c in enumerate(coeffs):
            print(f"codegree {cd}: {c}")
        if implied is not None:
            print(f"implied simplex constant: {implied}")
    return 0


def _cmd_traces(ns) -> int:
    h = _load(ns)
    cap = ns.max_codegree if ns.max_codegree is not None else h.k + 1
    if cap < 0:
        raise ValueError("max codegree must be nonnegative")
    values = [generalized_trace(h, d) for d in range(cap + 1)]
    if ns.format == "json":
        _emit_json({"n": h.n, "k": h.k,
                    "traces": [str(v) for v in values]})
    else:
        for d, v in enumerate(values):
            print(f"Tr_{d} = {v}")
    return 0


def _cmd_spectrum(ns) -> int:
    name, args = _family_recipe(ns.family, ns.k)
    if name == "cylinder":
        spec = cylinder_spectrum(*args)
    elif name == "single-edge":
        spec = cylinder_spectrum([1] * args[0])
    elif name == "complete" and args[1] == 3:
        spec = complete3_spectrum(args[0])
    else:
        raise ValueError(
            "spectrum supports complete (k=3), cylinder, and single-edge")
    if ns.format == "json":
        _emit_json({
            "family": spec.family,
            "note": spec.note,
            "values": [_complex_pair(v) for v in spec.values],
            "descriptions": list(spec.descriptions),
            "residuals": list(spec.residuals),
        })
    else:
        for v, d, r in zip(spec.values, spec.descriptions, spec.residuals):
            print(f"{v.real:+.9f}{v.imag:+.9f}i  residual {r:.2e}  [{d}]")
    return 0


def _cmd_lambda_max(ns) -> int:
    h = _load(ns)
    rep = lambda_max(h, tol=ns.tol, max_iter=ns.max_iter)
    if ns.format == "json":
        _emit_json({
            "value": rep.value, "lower": rep.lower, "upper": rep.upper,
            "iterations": rep.iterations, "converged": rep.converged,
            "residual": rep.residual, "vector": list(rep.vector),
        })
    else:
        print(f"lambda_max = {rep.value:.12g} in [{rep.lower:.12g}, "
              f"{rep.upper:.12g}] after {rep.iterations} iterations"
              f"{'' if rep.converged else ' (not converged)'}")
    return 0 if rep.converged else 2


def _cmd_bounds(ns) -> int:
    h = _load(ns)
    davg, lam, dmax, ok = degree_bounds_check(h)
    if ns.format == "json":
        _emit_json({"d": float(davg), "d_exact": str(davg),
                    "lambda_max": lam, "Delta": dmax, "pass": ok})
    else:
        print(f"d = {davg} <= lambda_max = {lam:.9g} <= Delta = {dmax}: "
              f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_color(ns) -> int:
    h = _load(ns)
    rep = greedy_color(h)
    if ns.format == "json":
        _emit_json({
            "colors": {str(v): c for v, c in sorted(rep.colors.items())},
            "count": rep.count,
            "degeneracy": rep.degeneracy,
            "order": list(rep.order),
        })
    else:
        print(f"{rep.count} colors, degeneracy {rep.degeneracy}")
        print(" ".join(str(rep.colors[v]) for v in range(h.n)))
    return 0


def _cmd_verify(ns) -> int:
    h = _load(ns)
    lam = _parse_complex(ns.value)
    vec = [_parse_complex(t) for t in ns.vector.split(",")]
    if not (lam.imag or any(z.imag for z in vec)):
        lam, vec = lam.real, [z.real for z in vec]
    residual = verify_eigenpair(h, lam, vec)
    ok = residual <= ns.tol
    if ns.format == "json":
        _emit_json({"value": _complex_pair(lam), "residual": residual,
                    "tol": ns.tol, "pass": ok})
    else:
        print(f"residual {residual:.3e} (tol {ns.tol:g}): "
              f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_family(ns) -> int:
    name, args = _family_recipe(ns.family, ns.k)
    h = _build_family(name, args)
    dmin, davg, dmax = h.degrees()
    payload = {
        "family": ns.family, "n": h.n, "k": h.k,
        "num_edges": h.num_edges,
        "degree_min": dmin, "degree_avg": float(davg), "degree_max": dmax,
        "connected": h.is_connected(),
    }
    if name == "single-edge":
        payload["charpoly"] = str(single_edge_charpoly(h.k))
    if name == "ultracube" and args[0] > 2 and args[1] > 1:
        pair = ultracube_sporadic(*args)
        payload["sporadic_value"] = pair.value.real
        payload["sporadic_residual"] = pair.residual
    if ns.format == "json":
        _emit_json(payload)
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")
    return 0


def _cmd_repro(ns) -> int:
    rows = (repro.run_claims(ns.only) if ns.only
            else repro.run_all(ns.include_slow))
    if ns.format == "json":
        _emit_json([{
            "claim": r.claim_id, "gate": r.gate,
            "expected": r.expected, "computed": r.computed,
            "match": r.match, "seconds": round(r.seconds, 3),
        } for r in rows])
    else:
        width = max(len(r.claim_id) for r in rows)
        for r in rows:
            mark = "ok " if r.match else "ERR"
            print(f"{mark} {r.claim_id:<{width}}  {r.seconds:8.2f}s  "
                  f"expected {r.expected} | computed {r.computed}")
        good = sum(r.match for r in rows)
        print(f"{good}/{len(rows)} claims match")
    return 0 if all(r.match for r in rows) else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="hgspec",
                     description="spectra of uniform hypergraphs")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen", help="print a family as an edge list")
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_charpoly)

    p = sub.add_parser("coeffs",
                       help="leading coefficients via generalized traces")
    _add_input_flags(p)
    p.add_argument("--max-codegree", type=int, default=None)
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("traces", help="generalized traces Tr_0..Tr_d")
    _add_input_flags(p)
    p.add_argument("--max-codegree", type=int, default=None)
    p.set_defaults(fn=_cmd_traces)

    p = sub.add_parser("spectrum", help="closed-form family spectra")
    _add_input_flags(p, family_only=True)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("lambda-max", help="largest eigenvalue with bounds")
    _add_input_flags(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=100000)
    p.set_defaults(fn=_cmd_lambda_max)

    p = sub.add_parser("bounds", help="degree sandwich d <= lambda <= Delta")
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("color", help="greedy weak proper coloring")
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("verify", help="check an eigenpair residual")
    _add_input_flags(p)
    p.add_argument("--value", required=True,
                   help="eigenvalue, e.g. 1 or 0.5+0.5j")
    p.add_argument("--vector", required=True,
                   help="comma-separated vector entries")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("family", help="summary of a named family")
    _add_input_flags(p, family_only=True)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("repro", help="run the reproduction claim table")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--include-slow", action="store_true")
    p.add_argument("--only", action="append", metavar="CLAIM_ID",
                   help="run a single claim (repeatable)")
    p.set_defaults(fn=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(ns, "tol", 1.0) > 0:
        print("error: tolerance must be positive", file=sys.stderr)
        return 1
    try:
        return ns.fn(ns)
    except (ValueError, GuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, GuardError):
            print(json.dumps(exc.estimate, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
