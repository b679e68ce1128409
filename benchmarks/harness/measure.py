"""Measure one workload in this process and print one JSON line.

The harness runs this module in a fresh subprocess per workload so that
process-global memos (the ``flatten_layers`` memo, ``_mpirun_memo``, the
vfs ``lru_cache``\\ s) never leak from one workload into the next::

    python -m benchmarks.harness.measure --workload cold-adapt --seed 0 \\
        --seconds 12 [--trace] [--trace-file F] [--setup-only]

``setup_s`` runs from the first import of the system under test to the
first timed op, so it covers imports, image installs and priming.
"""

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from typing import Optional

from .definitions import LAYERS, LAYER_NAMES, WORKLOAD_NAMES, op_count
from .probe import probe_s
from .tracer import Tracer

#: Failure messages echoed to stderr per run; the rest are only counted.
MAX_REPORTED_FAILURES = 5
#: Ops whose spans go into a trace file.
TRACE_FILE_OPS = 20
#: Probes taken on each side of the set-up to rescale ``setup_s``.
SETUP_PROBES = 10


def boundaries():
    return [(layer.name, module, qualname)
            for layer in LAYERS for module, qualname in layer.boundaries]


def measure(name: str, seed: int, ops: int, trace: bool = False,
            trace_file: Optional[str] = None,
            setup_only: bool = False) -> dict:
    """Set up workload *name*, run *ops* timed ops, check every output.

    Returns the raw measurements: set-up time and the probes around it,
    every op's latency and the machine-speed probe taken after it, peak
    RSS, the failure count, the sha256 ``fold`` over every checked op
    record, the public-output ratios and, when *trace* is set, the
    per-layer tallies of a :class:`Tracer` installed for the timed ops.
    """
    setup_probes = [probe_s() for _ in range(SETUP_PROBES)]
    start_setup = time.perf_counter()
    from .workloads import WORKLOAD_TYPES, CheckFailed, fold_record

    workload = WORKLOAD_TYPES[name](seed, ops)
    gc.collect()
    setup_s = time.perf_counter() - start_setup
    setup_probes += [probe_s() for _ in range(SETUP_PROBES)]
    result = {"workload": name, "seed": seed, "ops": ops, "setup_s": setup_s,
              "setup_probes_s": setup_probes}
    if setup_only:
        return result

    tracer = None
    if trace:
        tracer = Tracer(LAYER_NAMES, span_ops=TRACE_FILE_OPS if trace_file else 0)
        tracer.install(boundaries())
    clock = time.perf_counter
    latencies = []
    probes = []
    failed = 0
    fold = hashlib.sha256()
    for i in range(ops):
        error = None
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        start = clock()
        try:
            out = workload.run(i)
        except Exception:
            error = traceback.format_exc()
        end = clock()
        if tracer is not None:
            tracer.active = False
            tracer.record_op(start, end)
        latencies.append(end - start)
        record = None
        if error is None:
            try:
                record = workload.check(i, out)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                print(f"{name} op {i} failed: {error}", file=sys.stderr)
        fold_record(fold, i, record)
        probes.append(probe_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed_s = sum(latencies)
    result.update({
        "attempted": ops,
        "failed": failed,
        "latencies_s": latencies,
        "probes_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "output_fold": fold.hexdigest(),
        "ratios": workload.ratios(ops),
    })
    if tracer is not None:
        tracer.uninstall()
        totals = tracer.totals()
        result["layers"] = {layer: list(totals[layer]) for layer in LAYER_NAMES}
        result["unattributed_s"] = timed_s - sum(t[1] for t in totals.values())
        result["leaks"] = tracer.leaks()
        if trace_file is not None:
            result["trace_spans"] = tracer.write_chrome_trace(trace_file, name)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.harness.measure")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed,
                     op_count(args.workload, args.seconds), trace=args.trace,
                     trace_file=args.trace_file, setup_only=args.setup_only)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
