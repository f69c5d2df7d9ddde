"""pclab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--quick]

The first form runs one workload (see BENCHMARK.json and README.md) and
prints, as its last stdout line, one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines
before it, starting with ``#``, give the same run in more detail.  The
second form runs every workload untraced and traced and prints one
table.

Each run starts fresh child processes (``child.py``): a few that only
set up, for the set-up time, then one that measures.  The children see
no ``PCLAB_*`` variables, run numpy on one thread, and import pclab from
this checkout's ``src``.  Exit status: 0 when every operation matched
its reference, 1 when some did not (the result is still printed), 2 when
the benchmark could not run at all.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4  # set-up-only children per run, besides the measuring one
TIME_LIMIT_S = 170  # a run must end well inside 180 s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PCLAB_") and k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED=str(seed % (2 ** 32)))
    return env


def run_child(args, mode: str, workdir: str, deadline: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", "quick" if args.quick else "full", "--mode", mode, "--workdir", workdir,
           "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(args.seed), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} child ({mode}) ran past the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} child ({mode}) exited with status {proc.returncode}")
    return json.loads(lines[-1])


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(values):
    """The highest of the usual percentiles with at least ten samples
    beyond it, as (percentile, value), or None when there are too few."""
    for q in (99, 95, 90, 75, 50):
        if len(values) * (1 - q / 100) >= 10:
            return q, nearest_rank(values, q)
    return None


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "not installed"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0))}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(args) -> dict:
    """One measured run: returns the full record of what it measured."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pclab", "__init__.py")):
        raise BenchError(f"no pclab sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            setups = [run_child(args, "setup", workdir, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = run_child(args, "run", workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    walls, refs = res["walls"], res["refs"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": "quick" if args.quick else "full", "env": environment(),
        "attempted": res["attempted"], "failed": res["failed"],
        "end_to_end": {
            "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
            # Mean pass time over mean reference-loop time: both sample the
            # same window of the machine's drifting speed, which cancels.
            "wall_ref": {"value": statistics.fmean(walls) / statistics.fmean(refs), "unit": "ref",
                         "samples": len(walls)},
            "wall_s": {"value": statistics.median(walls), "unit": "s", "samples": len(walls)},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                            "unit": "MB", "samples": 1},
            "error_rate": {"value": res["failed"] / res["attempted"], "unit": "ratio",
                           "samples": res["attempted"]},
            "ref_loop_ms": {"value": statistics.fmean(refs) * 1e3, "unit": "ms", "samples": len(refs)},
        },
    }
    wall_tail = tail(walls)
    if wall_tail:
        record["end_to_end"]["wall_s"][f"p{wall_tail[0]}"] = wall_tail[1]
    parity = res["latencies"].get("parity")
    if parity:
        ms = [x * 1e3 for x in parity]
        for q in (50, 90):
            record["end_to_end"][f"derivation_p{q}_ms"] = {
                "value": nearest_rank(ms, q), "unit": "ms", "samples": len(ms)}
    if args.trace:
        record["per_layer"] = res["layers"]
        record["per_function"] = res["functions"]
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The result line: exactly the metrics BENCHMARK.json names for this mode."""
    if record["trace"]:
        metrics = {m["name"]: {"value": record["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": record["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def describe(record: dict, spec: dict):
    """Human-readable lines for one run.  Timings are medians; ``n`` is
    the sample count and ``pQ`` the highest percentile with at least ten
    samples beyond it."""
    env = record["env"]
    yield (f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
           f"trace={record['trace']} size={record['size']}")
    yield f"# git={env['git_sha']} python={env['python']} numpy={env['numpy']} nproc={env['nproc']}"
    yield f"# operations: {record['attempted']} attempted, {record['failed']} failed"
    for name, m in record["end_to_end"].items():
        extra = "".join(f" {k}={v:.6g}" for k, v in m.items() if k not in ("value", "unit", "samples"))
        yield f"#   {name:<36} {m['value']:.6g} {m['unit']} (n={m['samples']}{extra})"
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in sorted(record.get("per_layer", {}).items()):
        yield f"#   {name:<36} {value:.6g} {units[name]}"
    for name, f in sorted(record.get("per_function", {}).items()):
        yield f"#   pclab.{name:<42} {f['self_s']:.6g} s self, {f['calls']:g} calls per pass"


def main_one(args, spec: dict) -> int:
    try:
        record = run_workload(args)
        line = result_line(record, spec)
    except (BenchError, KeyError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for text in describe(record, spec):
        print(text)
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in its own run.py."""
    records, status = [], 0
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            status = max(status, proc.returncode)
            recs = [ln[len("# record "):] for ln in proc.stdout.splitlines() if ln.startswith("# record ")]
            if not recs:
                print(f"error: {name} trace={trace} printed no record", file=sys.stderr)
                return max(status, 2)
            records.append(json.loads(recs[-1]))
    for record in records:
        for text in describe(record, spec):
            print(text)
    return status


def main() -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args()
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return main_all(args, spec) if args.all else main_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
