"""Benchmark of hypergraph_spectra: time to a certified result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \\
        --trace <0|1> [--size full|reduced]

Workloads are ``repro-default``, ``exact-dense``, ``numeric-large`` and
``numeric-small`` (see BENCHMARK.json and perfbench/baseline.json).  Each is
a closed loop: one caller in one process, with the library's default
``threads=1``.  ``--workload all`` runs the four, each in its own process,
and prints a table.

Set-up (package import in a fresh interpreter, input generation from the
seed, ``Hypergraph`` construction) runs several times and reports its median
as ``setup_s``.  Then rounds of the workload run, one at least and more
while the next should end within ``--seconds``; ``wall_s`` is the median
round time, from the first call into the package to the last checked output.
``peak_rss_mb`` is the peak resident memory of this process.  Every output
is checked; a raised error or a failed check fails that operation.

With ``--trace 1`` one untraced round is followed by one traced round, and
the per-layer metrics come from the spans of the traced round.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
``correct`` is false when a check found a wrong output; operations that
raised count in ``failed`` only.  A result file with the environment, and
for traced runs the spans, is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPS = 5
THREADS = 1  # the library default; every workload is one caller

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import hypergraph_spectra
t1 = time.perf_counter()
print(t1 - t0, hypergraph_spectra.__file__)
"""


class SetupError(RuntimeError):
    pass


def _check_origin(path):
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"hypergraph_spectra was imported from {path}, "
                         f"not from {SRC}")


def timed_import_probe():
    """Import time of the package in a fresh interpreter, from this
    checkout's src/."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError("importing hypergraph_spectra failed:\n"
                         + proc.stderr.strip())
    seconds, path = proc.stdout.split(maxsplit=1)
    _check_origin(path.strip())
    return float(seconds)


def import_package():
    if not (SRC / "hypergraph_spectra" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC}/hypergraph_spectra")
    sys.path.insert(0, str(SRC))
    import hypergraph_spectra as hs
    from hypergraph_spectra import repro
    _check_origin(hs.__file__)
    return hs, repro


def environment(seed, workload, ops_per_round):
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": THREADS,
        "workload": workload,
        "operations_per_round": ops_per_round,
    }


def set_up(workload, hs, seed, reps):
    """Run set-up reps times; return the last inputs and the medians."""
    totals, constructs = [], []
    inputs = None
    for _ in range(reps):
        import_s = timed_import_probe()
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        generated = workload.generate(seed)
        t1 = time.perf_counter()
        inputs = workload.construct(hs, generated)
        t2 = time.perf_counter()
        totals.append(import_s + (t2 - t0))
        constructs.append(t2 - t1)
    return inputs, statistics.median(totals), statistics.median(constructs)


class Tally:
    """Operation counts over rounds; only failures keep their messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages = []

    def add(self, outcomes):
        for out in outcomes:
            self.attempted += 1
            if out.failed:
                self.failed += 1
                self.correct = self.correct and not out.wrong
                self.messages += out.messages()


def run_round(workload, api, inputs, tracer=None):
    """One round; returns (wall seconds, outcomes, claim seconds)."""
    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        outcomes, claim_seconds = workload.run_round(api, inputs)
        wall = time.perf_counter() - t0
    else:
        with tracer.span(tracing.ROUND, "bench"):
            outcomes, claim_seconds = workload.run_round(api, inputs)
        wall = tracer.spans[0][3] - tracer.spans[0][2]
    return wall, outcomes, claim_seconds


def measure(args):
    workload = workloads.WORKLOADS[args.workload](args.size == "reduced")
    hs, repro = import_package()
    reps = SETUP_REPS if args.size == "full" else 2
    inputs, setup_s, construct_s = set_up(workload, hs, args.seed, reps)

    tally = Tally()
    plain = workloads.Api(hs, repro)
    walls = []
    started = time.perf_counter()
    while True:
        wall, outs, _ = run_round(workload, plain, inputs)
        walls.append(wall)
        tally.add(outs)
        # start another round only if it should end within --seconds
        elapsed = time.perf_counter() - started
        if args.trace or elapsed + statistics.median(walls) > args.seconds:
            break

    spans = None
    if args.trace:
        tracer = tracing.Tracer()
        wall, outs, claim_seconds = run_round(
            workload, workloads.Api(hs, repro, tracer), inputs, tracer)
        tally.add(outs)
        layer = tracer.layer_metrics(claim_seconds, construct_s, walls[0])
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        spans = tracer.spans
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                  "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    failures, failed = tally.messages, tally.failed
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "environment": environment(args.seed, workload.name,
                                   workload.operation_count(inputs)),
        "rounds": len(walls) + bool(args.trace),
        "untraced_round_wall_s": walls,
        "error_rate": failed / tally.attempted,
        "failures": failures,
        "result": result,
    }
    if spans is not None:
        record["span_fields"] = ["name", "module", "start", "end", "parent",
                                 "op"]
        record["spans"] = spans
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / (f"{workload.name}_seed{args.seed}_trace{args.trace}"
                          f"_{args.size}.json")
    out_path.write_text(json.dumps(record) + "\n")

    for msg in failures[:20]:
        print(f"FAILED {msg}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures in {out_path}")
    for name, metric in metrics.items():
        print(f"{workload.name} {name} {metric['value']!r} {metric['unit']}")
    print(f"{workload.name} error_rate {record['error_rate']!r} ratio "
          f"({failed}/{tally.attempted} operations)")
    print(f"{workload.name} samples: {len(walls)} untraced rounds of "
          f"{workload.operation_count(inputs)} operations, {reps} set-ups")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process, then one table."""
    rows = []
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = val
        rows.append((name, res, [ln for ln in lines[:-1]
                                 if ln.startswith(f"{name} samples")]))
    for name, res, samples in rows:
        cells = [f"{m} {v['value']:.4g} {v['unit']}"
                 for m, v in res["metrics"].items() if "." not in m]
        rate = res["failed"] / res["attempted"]
        print(f"{name:14s} " + "  ".join(cells)
              + f"  error_rate {rate:.4g} ratio"
              f" ({res['failed']}/{res['attempted']})  "
              + " ".join(s.split(": ", 1)[1] for s in samples))
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "reduced"), default="full",
                        help="reduced inputs, for the self-test")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return measure(args)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
