"""Benchmark of pconfig: one workload per process, result as JSON.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer metrics of one
traced unit of the workload and the tracing slowdown.  The line before it
holds run metadata.  Exits 2, printing no result, when the checkout has no
library to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ORACLE_FLOOR = 2.0 ** -52   # an error below one ulp of 1 reads as one ulp


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cap_threads(nproc: int):
    """Cap BLAS and OpenMP threads at the processors this process may use;
    must run before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > nproc:
            os.environ[var] = str(nproc)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import plus input generation once and exit")
    return ap.parse_args(argv)


def _setup_probe(args):
    """Time the import of pconfig plus the workload's input generation.

    numpy is imported before the clock starts: it is a fixed dependency,
    and its import (mostly OpenBLAS starting its threads) swings by tens of
    percent with the machine's load, which would drown pconfig's own
    set-up.  A new dependency of pconfig is still timed; the benchmark's
    own modules are not.
    """
    import numpy  # noqa: F401
    t0 = perf_counter()
    import pconfig  # noqa: F401  (the import is what is timed)
    imported = perf_counter() - t0
    from workloads import WORKLOADS
    t0 = perf_counter()
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    generated = perf_counter() - t0
    workload.close()
    print(repr(imported + generated))


class SetupProbe:
    """Times set-up in fresh processes, so each pays the import again.

    Probes run between units of the measurement, never during one, and
    are topped up to ``SETUP_REPEATS`` at the end; spreading them over the
    run keeps one slow spell of the machine from setting the median.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--setup-probe", "--workload", args.workload,
                    "--seed", str(args.seed)]
        self.times = []

    def __call__(self):
        done = subprocess.run(self.cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self()
        return statistics.median(self.times)


def _percentile(values, q) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _failures(outcomes, known) -> tuple[dict, dict]:
    """Count of every failure reason, and the first example of each
    reason that is not a known defect."""
    counts, unexpected = {}, {}
    for o in outcomes:
        for r in o.reasons:
            counts[r] = counts.get(r, 0) + 1
            if r not in known:
                unexpected.setdefault(r, o.detail)
    return counts, unexpected


def op_ms(outcomes, per_unit: int, pick=statistics.median) -> list:
    """Each operation's median time (or ``pick``) over its repeats in the
    run, in ms.

    Every unit repeats the same inputs.  On a shared machine the time of
    one call swings by a third from moment to moment, so the fastest
    repeat of an input depends on whether a rare quiet moment happened to
    fall on it; the median over the repeats does not.
    """
    return [1e3 * pick([o.seconds for o in outcomes[i::per_unit]])
            for i in range(per_unit)]


def end_to_end(outcomes, per_unit: int, setup_s) -> dict:
    """The end-to-end metrics.  Timings are over the operations of one
    unit, each at its median repeat; failures count every repeat."""
    ms = op_ms(outcomes, per_unit)
    failed = sum(1 for o in outcomes if o.reasons)

    def worst(attr, pick):
        vals = [getattr(o, attr) for o in outcomes
                if getattr(o, attr) is not None]
        return pick(vals) if vals else None

    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_p50_ms": (_percentile(ms, 50), "ms"),
        "op_p90_ms": (_percentile(ms, 90), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_frac": (failed / len(outcomes), "ratio"),
        "oracle_err_max": (max(worst("oracle_err", max) or 0.0, ORACLE_FLOOR),
                           "1"),
        "fe_residual_max": (worst("fe_residual", max), "1"),
        "node_yield_min": (worst("node_yield", min), "ratio"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "pconfig" / "__init__.py").is_file():
        print(f"error: no pconfig sources under {SRC}", file=sys.stderr)
        return 2
    nproc = _nproc()
    _cap_threads(nproc)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        _setup_probe(args)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(why)}", file=sys.stderr)
        return 2

    import numpy as np
    from workloads import KNOWN_DEFECTS, WORKLOADS, measure
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        if args.trace:
            metrics, outcomes, trace_meta = _traced(workload, args)
        else:
            probe = SetupProbe(args)
            outcomes = measure(workload, args.seconds, after_unit=probe)
            metrics = end_to_end(outcomes, len(workload.ops), probe.median())
            trace_meta = {}
    finally:
        workload.close()

    counts, unexpected = _failures(outcomes, KNOWN_DEFECTS)
    correct = not unexpected and not trace_meta.get("missing_spans")
    meta = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "timed_ops": len(workload.ops),
        "repeats": len(outcomes) // len(workload.ops),
        "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "failures": {
            r: {"count": n, "known_defect": KNOWN_DEFECTS.get(r)}
            for r, n in sorted(counts.items())
        },
        "unexpected": unexpected,
        **trace_meta,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.reasons),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _traced(workload, args):
    """The unit untraced, traced, and untraced again.

    Per-layer numbers are totals over the traced unit.  The slowdown is
    the traced unit's time over the untraced one's, each operation at its
    faster untraced repeat, so that a cold first unit does not count.
    """
    from spans import Tracer, layer_metrics, missing_spans
    from workloads import measure

    per_unit = len(workload.ops)
    plain = measure(workload, args.seconds, units=1)
    tracer = Tracer().install()
    try:
        traced = measure(workload, args.seconds, wrap=tracer.traced_pair,
                         units=1)
    finally:
        tracer.restore()
    plain += measure(workload, args.seconds, units=1)
    metrics = layer_metrics(tracer)
    metrics["trace.slowdown"] = (
        sum(o.seconds for o in traced) / (sum(op_ms(plain, per_unit, min)) / 1e3),
        "ratio")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(tracer.span_records()))
    meta = {
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "missing_spans": missing_spans(tracer, workload.required),
    }
    return metrics, plain + traced, meta


if __name__ == "__main__":
    sys.exit(main())
