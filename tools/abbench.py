"""Alternating parent/change runs of benchmark workloads.

    python3 tools/abbench.py PARENT CHANGE --workload fourier-transform \
        --seed 1 --pairs 10 --seconds 40

PARENT and CHANGE name two commits of this repository.  Each is exported
with ``git archive`` into its own temporary directory, and
``bench/run.py --trace 0`` runs there, one run at a time.  The two sides
alternate within a pair, and the side that runs first alternates from
pair to pair.  ``--workload`` may be given more than once: each pair
then runs every workload in turn, each one on both sides.

For each workload and each end-to-end metric that BENCHMARK.json lists,
the tool prints both sides' medians and quartiles, the pairs the change
won, and a verdict read against the metric's ``bound``:

- ``gain``: the change won at least 9 of 10 pairs, and its median is
  better than the parent's by more than the parent's quartile spread;
- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: the parent's quartile spread, relative to its median,
  exceeds the bound, and not every change run beats every parent run;
- ``no regression``: every other case.

Each run's ``# record`` line also gives its ``wall_s`` (the median pass
time) and ``ref_loop_ms`` (the mean reference-loop time).  ``wall_ref``
divides the mean pass time by that reference time, so for each of the
two the tool prints both sides' medians and quartiles, with no verdict:
they show which side of the ratio moved.  The same goes for
``derivation_p50_ms`` and ``derivation_p90_ms``, the percentiles of the
per-derivation operation, where a workload reports them; a recorded
metric that no run of either side reported is left out.

Every verdict is ``failed`` instead when the change has more failed runs
than the parent, or a larger share of failed operations.  A failed run
exited nonzero, printed no result line, or printed one with ``correct:
false``; the share of failed operations is taken over the runs that
reported their operations.  The tool prints both counts for each side.

Its last lines are one JSON object per workload, in the order given,
that holds every result line and the recorded ``wall_s`` and
``ref_loop_ms`` summaries, laid out like the ``workloads`` entries of a
``BENCH_*.json``.  Progress goes to stderr.  The exports are removed at
the end, so nothing is written inside the repository.

The exit status is 1 when any metric of any workload reads ``worse`` or
``failed``, and 0 otherwise, so a script can gate on it.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# read from each run's ``# record`` line and reported without a verdict
RECORDED = ("wall_s", "ref_loop_ms", "derivation_p50_ms", "derivation_p90_ms")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def export(sha: str, into: str) -> str:
    """A clean copy of the commit's files, as ``git archive`` writes them."""
    os.makedirs(into)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(checkout: str, args) -> dict:
    """One untraced benchmark run: its exit status and its last output line."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    recorded = {}
    for line in lines:
        if line.startswith("# record "):
            try:
                end = json.loads(line[len("# record "):])["end_to_end"]
                recorded = {name: end[name]["value"] for name in RECORDED if name in end}
            except (ValueError, LookupError, TypeError):
                recorded = {}
    return {"exit": proc.returncode, "result": result, "recorded": recorded}


def metric(run: dict, name: str):
    result = run["result"] or {}
    return result.get("metrics", {}).get(name, {}).get("value")


def verdict(parent: list, change: list, won: int, pairs: int, lower: bool, bound: float) -> str:
    """One metric's verdict, by the rules in the module docstring."""
    median = statistics.median(parent)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    better = median - statistics.median(change) if lower else statistics.median(change) - median
    if 10 * won >= 9 * pairs and better > q3 - q1:
        return "gain"
    if -better > bound * abs(median):
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > bound * abs(median) and not beats_all:
        return "unresolved"
    return "no regression"


def failures(runs: dict) -> dict:
    """Per side: its runs, the failed ones among them, and the operations
    attempted and failed over the runs that reported them."""
    out = {}
    for side, rs in runs.items():
        results = [r["result"] for r in rs if r["result"] is not None]
        attempted = sum(r.get("attempted", 0) for r in results)
        failed = sum(r.get("failed", 0) for r in results)
        bad = sum(1 for r in rs if r["exit"] != 0 or r["result"] is None or r["result"].get("correct") is False)
        out[side] = {"runs": len(rs), "failed_runs": bad, "attempted": attempted, "failed": failed,
                     "failed_share": failed / attempted if attempted else 0.0}
    return out


def quartiles(values: dict) -> dict:
    """Each side's median and quartiles (exclusive method)."""
    row = {}
    for side, v in values.items():
        row[f"{side}_median"] = round(statistics.median(v), 3)
        row[f"{side}_quartiles"] = [round(q, 3) for q in statistics.quantiles(v, n=4)]
    return row


def recorded(runs: dict) -> dict:
    """Per ``RECORDED`` metric that some run reported: each side's median
    and quartiles, or its run counts when a side recorded fewer than two
    values."""
    out = {}
    for name in RECORDED:
        values = {side: [r["recorded"][name] for r in runs[side] if name in r.get("recorded", {})]
                  for side in ("parent", "change")}
        if not any(values.values()):
            continue
        if min(len(v) for v in values.values()) < 2:
            out[name] = {"runs": {side: len(v) for side, v in values.items()}}
        else:
            out[name] = quartiles(values)
    return out


def summarise(runs: dict, metrics: list) -> dict:
    """Per metric: each side's median and quartiles (exclusive method), the
    change's median over the parent's, the pairs the change won, and the
    verdict: ``failed`` for every metric when the change fails more runs or
    a larger share of operations than the parent."""
    f = failures(runs)
    failed = any(f["change"][key] > f["parent"][key] for key in ("failed_runs", "failed_share"))
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [v for v in (metric(r, name) for r in runs[side]) if v is not None]
                  for side in ("parent", "change")}
        if min(len(v) for v in values.values()) < 2:
            out[name] = {"runs": {side: len(v) for side, v in values.items()}}
            if failed:
                out[name]["verdict"] = "failed"
            continue
        row = quartiles(values)
        row["change_over_parent"] = round(statistics.median(values["change"]) / statistics.median(values["parent"]), 3)
        pairs = [(metric(p, name), metric(c, name)) for p, c in zip(runs["parent"], runs["change"])]
        won = sum(1 for p, c in pairs if p is not None and c is not None and (c < p if lower else c > p))
        row["change_wins"] = f"{won}/{len(pairs)}"
        row["verdict"] = "failed" if failed else verdict(values["parent"], values["change"], won, len(pairs),
                                                         lower, m["bound"])
        out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    args = ap.parse_args(argv)
    shas = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
            for side, ref in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        checkouts = {side: export(sha, os.path.join(tmp, side)) for side, sha in shas.items()}
        with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
            metrics = json.load(fh)["end_to_end"]
        runs = {w: {"parent": [], "change": []} for w in args.workload}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for w in args.workload:
                one = argparse.Namespace(**{**vars(args), "workload": w})
                tag = f"{w} " if len(args.workload) > 1 else ""
                for side in order:
                    run = {"pair": pair, **run_once(checkouts[side], one)}
                    runs[w][side].append(run)
                    values = {**{m["name"]: metric(run, m["name"]) for m in metrics}, **run.get("recorded", {})}
                    print(f"# {tag}pair {pair} {side}: exit {run['exit']} {json.dumps(values)}",
                          file=sys.stderr, flush=True)
    docs, bad = [], False
    for w in args.workload:
        summary, operations, extra = summarise(runs[w], metrics), failures(runs[w]), recorded(runs[w])
        for side, row in operations.items():
            print(f"{w} {side} runs: {row['failed_runs']} of {row['runs']} failed; "
                  f"{row['failed']} of {row['attempted']} operations failed ({row['failed_share']:.4f})")
        for name, row in summary.items():
            print(f"{w} {name}: {json.dumps(row)}")
        for name, row in extra.items():
            print(f"{w} {name} (no verdict): {json.dumps(row)}")
        docs.append({"workload": w, "seed": args.seed, "seconds": args.seconds,
                     "runs_per_side": args.pairs, "parent_sha": shas["parent"], "change_sha": shas["change"],
                     "operations": operations, "summary": summary, "recorded": extra, **runs[w]})
        bad = bad or any(row.get("verdict") in ("worse", "failed") for row in summary.values())
    for doc in docs:
        print(json.dumps(doc))
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
