"""One workload in one fresh process; started by ``run.py``.

Imports pclab from the checkout's ``src``, builds the seeded inputs,
then (unless ``--mode setup``) repeats passes over the workload's
operations until ``--seconds`` would be exceeded.  Between operations
it runs a fixed reference loop for a tenth of the measured time, so the
pass time can be given in units of the machine's current speed.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones.  Prints one JSON object as its last
stdout line.
"""

import argparse
import contextlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MAX_REPORTED_FAILURES = 20
# Share of the measured time given to the reference loop.  The machine's
# speed drifts by a third or more within minutes (it shares its cores),
# and the loop, run interleaved with the operations, drifts with it.
REF_SHARE = 0.1


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work that uses no pclab
    code: dict updates keyed by tuples, as in the interpreter-bound paths
    the workloads spend their time in."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(20000):
        k = (i, i * 7 % 13)
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


def run_pass(ops, run_op, latencies, failures, refs=None) -> float:
    """Run every operation once; return the pass time.  With ``refs``,
    run the reference loop between operations for REF_SHARE of their
    time, append its times to ``refs`` and leave them out of the pass."""
    perf = time.perf_counter
    t0 = perf()
    owed = spent = 0.0
    for op in ops:
        s = perf()
        problems = run_op(op)
        took = perf() - s
        latencies.setdefault(op.kind, []).append(took)
        if problems:
            failures.append("; ".join(problems))
        if refs is not None:
            owed += REF_SHARE * took
            while owed > 0:
                refs.append(reference_loop())
                owed -= refs[-1]
                spent += refs[-1]
    return perf() - t0 - spent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "quick"), required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import pclab

    if not os.path.abspath(pclab.__file__).startswith(SRC + os.sep):
        print(f"pclab imported from {pclab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    ref = workloads.load_reference()
    setup_tracer = layers.Tracer()
    with setup_tracer if args.trace else contextlib.nullcontext():
        wl = workloads.setup(args.workload, args.seed, args.size, args.workdir, ref)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    latencies: dict = {}
    failures: list = []
    walls, refs, traced_walls, tracers = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        s = time.perf_counter()
        walls.append(run_pass(wl.ops, workloads.run_op, latencies, failures, refs))
        attempted += len(wl.ops)
        last = time.perf_counter() - s
        if args.trace:
            tracer = layers.Tracer()
            with tracer:
                traced_walls.append(run_pass(wl.ops, workloads.run_op, {}, failures))
            tracers.append(tracer)
            attempted += len(wl.ops)
            last += traced_walls[-1]
        if time.perf_counter() - start + last > args.seconds:
            break

    if args.trace:
        out["layers"] = layers.pass_metrics(tracers, traced_walls, walls)
        out["functions"] = layers.per_function(tracers)
        out["layers"].update(layers.setup_metrics(setup_tracer))
        polys, variables = wl.probe_sample()
        probe, checked, probe_failures = layers.algebra_probes(polys, variables, args.seed)
        out["layers"].update(probe)
        attempted += checked
        failures.extend(probe_failures)

    for msg in sorted(set(failures))[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {msg}", file=sys.stderr)
    out.update(walls=walls, refs=refs, latencies=latencies, attempted=attempted, failed=len(failures))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
