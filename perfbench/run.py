"""Run one benchmark workload against the query service and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload para_l_cold --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes the separate traced
run and reports the per-layer metrics (and writes the spans of its last
traced round under ``perfbench/out/``).  The line before it carries the
host facts and diagnostics.  The exit code is non-zero when any answer
differs from the sequential reference evaluator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark measures the source tree it sits in; the tracked bytecode
# under src/ must not be rewritten by a run.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402  (needs the path set up above)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for span traces (trace runs only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = bench.WORKLOADS[args.workload]
    probe_before = bench.host_probe()
    samples = bench.Samples()
    inputs = bench.build_inputs(workload, args.seed)
    bench.attach_reference(inputs)
    checker = bench.Checker(inputs)
    probes = []
    if args.trace:
        tracer = bench.run_traced(inputs, args.seconds, checker, samples)
        os.makedirs(args.out, exist_ok=True)
        trace_path = os.path.join(args.out, f"trace-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        values, table = bench.per_layer(samples), bench.PER_LAYER
    else:
        trace_path = None
        speed = bench.HostSpeed()
        bench.run_rounds(workload, inputs, args.seconds, checker, samples, speed)
        probes = [step * 1e9 for step in speed.probes]
        values, table = bench.end_to_end(samples, len(inputs.batch)), bench.END_TO_END
    diagnostics = {
        "host": bench.host_facts(),
        "host_probe_s": {"before": probe_before, "after": bench.host_probe()},
        "workload": workload.name,
        "seed": args.seed,
        "pool": len(inputs.pool),
        "batch": len(inputs.batch),
        "cold_samples_s": samples.raw_cold,
        "probe_step_ns": probes,
        "warm_batch_samples": len(samples.warm),
        "request_samples": len(samples.requests),
        "request_p99_us": (
            bench.percentile(samples.requests, 0.99) * 1e6 if samples.requests else None
        ),
        "traced_rounds": len(samples.layers),
        "error_rate": checker.failed / checker.attempted,
        "trace_file": trace_path and os.path.relpath(trace_path, ROOT),
    }
    print(json.dumps({"diagnostics": diagnostics}))
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": values[name], "unit": table[name][0]} for name in table
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
