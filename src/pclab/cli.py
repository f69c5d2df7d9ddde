"""Command-line front end.

Subcommands generate the ordering and parity families, build and
re-check the closed-form refutations, validate proof files, apply the
proof transformations, run the reduction-operator lemma checks, and
sweep proof-size experiments into CSV tables.  Everything downstream of
a fixed seed is deterministic, so artifact directories produced by two
identical invocations compare byte for byte.

Exit codes: 0 success, 1 a checked proof or lemma failed, 2 bad usage
or unreadable input, 3 a request exceeded an exhaustive-scale limit.
"""

import argparse
import csv
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    BASES,
    BOOLEAN,
    DEFAULT_FIELD,
    FOURIER,
    Field,
    LineReader,
    ScaleLimitExceeded,
    parse_var,
)
from .constructions import (
    fit_through_origin,
    lifted_refutation,
    loglog_fit,
    lop_resolution_refutation,
    pcr_upper_bound,
    tseitin_fourier_refutation,
)
from .degreelab import LEMMAS, ResidueOracle, _points_var_cap, bop_context, verify_all
from .formulas import (
    cnf_to_axioms,
    gen_bop,
    gen_bop_lifted,
    gen_cycle_tseitin,
    gen_lop,
    read_axioms,
    read_dimacs,
    write_axioms,
    write_dimacs,
)
from .proofs import (
    ResolutionProof,
    ResReport,
    check_pc,
    check_resolution,
    quadratic_degree,
    read_pcproof,
    read_resproof,
    write_pcproof,
    write_resproof,
)
from .transforms import (
    cluster_proof,
    qdeg_to_deg,
    random_pairing,
    read_clustermap,
    read_restriction,
    res_to_pcr,
    restrict_proof,
    split,
    write_clustermap,
)


def parse_range(text: str) -> List[int]:
    """Accepts "4", "4..12", and comma-joined mixtures of both."""
    out: List[int] = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        lo, dots, hi = part.partition("..")
        try:
            lo, hi = int(lo), int(hi if dots else lo)
        except ValueError:
            raise ValueError(f"bad part {part!r} in range {text!r}") from None
        if hi < lo:
            raise ValueError(f"empty range {part!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"no values in range {text!r}")
    return out


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    if args.family == "tseitin-cycle":
        ax = gen_cycle_tseitin(args.n, field=Field(args.field))
    else:
        if args.family == "bop-lifted":
            cnf = gen_bop_lifted(args.n, args.ell)
        else:
            cnf = (gen_lop if args.family == "lop" else gen_bop)(args.n)
        if not args.axioms:
            write_dimacs(cnf, args.out)
            print(f"wrote {args.out} and {args.out}.names: "
                  f"{len(cnf.clauses)} clauses over {len(cnf.universe)} variables")
            return 0
        ax = cnf_to_axioms(cnf, args.basis, Field(args.field), twins=not args.no_twins)
    write_axioms(ax, args.out)
    print(f"wrote {args.out}: {len(ax.polys)} axioms over {len(ax.universe)} variables")
    return 0


# ---------------------------------------------------------------------------
# refute


def _write_manifest(outdir: str, manifest: Dict[str, object]) -> None:
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _emit(proof, outdir: str):
    """Write a resolution or polynomial-calculus proof and its formula
    into ``outdir``, then read the proof back: the re-read proof and its
    check report."""
    os.makedirs(outdir, exist_ok=True)
    if isinstance(proof, ResolutionProof):
        formula, path, read, check = "formula.cnf", "proof.res", read_resproof, check_resolution
        write_dimacs(proof.cnf, os.path.join(outdir, formula))
        write_resproof(proof, os.path.join(outdir, path), formula)
    else:
        formula, path, read, check = "axioms.txt", "proof.pc", read_pcproof, check_pc
        write_axioms(proof.axioms, os.path.join(outdir, formula))
        write_pcproof(proof, os.path.join(outdir, path), formula)
    back = read(os.path.join(outdir, path))
    return back, check(back)


def _cmd_refute(args) -> int:
    manifest: Dict[str, object] = {"family": args.family, "n": args.n}
    if args.family in ("lifted", "pcr-upper"):
        manifest["ell"] = args.ell
    if args.family == "lop":
        proof = lop_resolution_refutation(args.n)
    elif args.family == "lifted":
        proof = lifted_refutation(args.n, args.ell)
    elif args.family == "pcr-upper":
        proof = pcr_upper_bound(args.n, args.ell)
    else:
        proof = tseitin_fourier_refutation(args.n)
    back, report = _emit(proof, args.out)
    manifest.update(lines=report.num_lines, valid=report.valid, refutation=report.is_refutation)
    if isinstance(proof, ResolutionProof):
        manifest.update(
            clauses=len(proof.cnf.clauses),
            max_width=report.max_width,
            files={"formula": "formula.cnf", "names": "formula.cnf.names", "proof": "proof.res"},
        )
    else:
        manifest.update(
            basis=proof.basis,
            field=proof.field.p,
            axioms=len(proof.axioms.polys),
            size_monomials=report.size,
            degree=report.degree,
            files={"axioms": "axioms.txt", "proof": "proof.pc"},
        )
        if proof.basis == FOURIER and report.valid:
            manifest["quadratic_degree"] = quadratic_degree(back)
    _write_manifest(args.out, manifest)
    ok = bool(manifest["valid"]) and bool(manifest["refutation"])
    print(("valid refutation" if ok else "INVALID output") + f" in {args.out}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# check


def _print_report(report) -> int:
    """Print a proof check's one-line verdict; 1 when the proof is invalid."""
    if not report.valid:
        print(f"INVALID at L{report.first_bad_line + 1}: {report.message}")
        return 1
    tag = "refutation" if report.is_refutation else "derivation"
    if isinstance(report, ResReport):
        print(f"valid {tag}: lines={report.num_lines} width={report.max_width}")
    else:
        print(f"valid {tag}: lines={report.num_lines} size={report.size} degree={report.degree}")
    return 0


def _cmd_check(args) -> int:
    with LineReader(args.proof) as lines:
        head = next(iter(lines), "").split()
    kind = head[0] if head else ""
    if kind == "pcproof":
        axioms = read_axioms(args.formula) if args.formula else None
        report = check_pc(read_pcproof(args.proof, axioms=axioms))
    elif kind == "resproof":
        cnf = read_dimacs(args.formula) if args.formula else None
        report = check_resolution(read_resproof(args.proof, cnf=cnf))
    else:
        raise ValueError(f"unrecognized proof header in {args.proof}")
    if _print_report(report):
        return 1
    if args.refutation and not report.is_refutation:
        print("not a refutation")
        return 1
    return 0


# ---------------------------------------------------------------------------
# transform


_REWRITES = {  # transform -> (reader of its input proof, rewrite)
    "split": (read_pcproof, lambda proof, args: split(proof, parse_var(args.var), prune_dead=args.prune_dead)),
    "qdeg2deg": (read_pcproof, lambda proof, args: qdeg_to_deg(proof)),
    "restrict": (read_pcproof, lambda proof, args: restrict_proof(proof, read_restriction(args.restriction))[0]),
    "res2pcr": (read_resproof, lambda rproof, args: res_to_pcr(rproof, Field(args.field))),
}


def _cmd_rewrite(args) -> int:
    """Every transform but cluster: read the input proof, rewrite it, then
    emit and check the result."""
    read, rewrite = _REWRITES[args.transform]
    out = rewrite(read(args.proof), args)
    return _print_report(_emit(out, args.out)[1])


def _cmd_cluster(args) -> int:
    proof = read_pcproof(args.proof)
    if args.map:
        cmap = read_clustermap(args.map)
    else:
        ax = proof.axioms
        if ax.n is None or ax.ell is None:
            raise ValueError("axiom system lacks (n, ell) parameters; pass --map instead")
        top = max((i for v in ax.universe if v.kind != "v" for i in v.index[:1 if v.kind == "y" else 2]), default=0)
        if ax.n > top:  # the pairing covers every ordered pair of the n declared vertices
            raise ValueError(f"axiom system declares n={ax.n}, but its variables name vertices up to {top}; pass --map instead")
        cmap = random_pairing(ax.n, ax.ell, args.seed)
    status = _print_report(_emit(cluster_proof(proof, cmap), args.out)[1])
    if not args.map:
        write_clustermap(cmap, os.path.join(args.out, "cluster.map"))
    return status


# ---------------------------------------------------------------------------
# verify-lemmas


def _cmd_verify_lemmas(args) -> int:
    if args.n >= 2 and args.ell >= 1:  # smaller values get bop_context's message
        _points_var_cap(args.n * (args.n - 1) * args.ell)  # every span holds T's lifted edges
    oracle = ResidueOracle(bop_context(args.n, args.ell))
    if args.which == "all":
        reports = verify_all(args.n, args.ell, seed=args.seed, oracle=oracle)
    else:
        reports = LEMMAS[args.which](args.n, args.ell, args.seed, oracle)
    for rep in reports:
        print(rep)
    return 0 if all(rep.ok for rep in reports) else 1


# ---------------------------------------------------------------------------
# experiment

_EXP_HEADER = ("family", "n", "ell", "clauses", "proof_size_monomials", "degree", "qdeg", "seconds")


def _experiment_row(task: Tuple[str, int, Optional[int], bool]) -> List[str]:
    family, n, ell, timings = task
    t0 = time.perf_counter()
    if family == "pcr-upper":
        cnf = gen_bop_lifted(n, ell)
        report = check_pc(pcr_upper_bound(n, ell))
        row = [family, n, ell, len(cnf.clauses), report.size, report.degree, ""]
    elif family == "lop":
        rproof = lop_resolution_refutation(n)
        report = check_pc(res_to_pcr(rproof))
        row = [family, n, "", len(rproof.cnf.clauses), report.size, report.degree, ""]
    else:
        proof = tseitin_fourier_refutation(n)
        report = check_pc(proof)
        row = [family, n, "", len(proof.axioms.polys), report.size, report.degree,
               quadratic_degree(proof)]
    if not (report.valid and report.is_refutation):
        raise ValueError(f"{family} n={n} did not produce a valid refutation")
    dt = time.perf_counter() - t0
    row.append(f"{dt:.3f}" if timings else "")
    return [str(x) for x in row]


def _summary_lines(family: str, tasks, rows) -> List[str]:
    notes: List[str] = []

    def slope_of(pts) -> Optional[float]:
        if len({x for x, _ in pts}) < 2:
            return None
        s, _ = loglog_fit([x for x, _ in pts], [y for _, y in pts])
        return s

    if family == "pcr-upper":
        for ell in sorted({t[2] for t in tasks}):
            pts = [(t[1], int(r[4])) for t, r in zip(tasks, rows) if t[2] == ell]
            s = slope_of(pts)
            if s is not None:
                notes.append(f"pcr-upper ell={ell} size loglog slope={s:.9f}")
        if len({t[2] for t in tasks}) > 1:
            xs = [t[1] ** 3 * t[2] ** 2 for t in tasks]
            ys = [int(r[3]) for r in rows]
            c, rel = fit_through_origin(xs, ys)
            notes.append(f"pcr-upper clauses/(n^3*ell^2) C={c:.9f} rel_rms={rel:.9f}")
    elif family == "lop":
        s = slope_of([(t[1], int(r[3])) for t, r in zip(tasks, rows)])
        if s is not None:
            notes.append(f"lop clauses loglog slope={s:.9f}")
    else:
        s = slope_of([(t[1], int(r[4])) for t, r in zip(tasks, rows)])
        if s is not None:
            notes.append(f"tseitin size loglog slope={s:.9f}")
    return notes


def _cmd_experiment(args) -> int:
    ns = parse_range(args.n)
    ells = parse_range(args.ell) if args.family == "pcr-upper" else [None]
    tasks = [(args.family, n, ell, args.timings) for ell in ells for n in ns]
    jobs = min(args.jobs, len(tasks))  # a pool may start every worker at once
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads the pool

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_experiment_row, tasks))
    else:
        rows = [_experiment_row(t) for t in tasks]
    notes = _summary_lines(args.family, tasks, rows)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_EXP_HEADER)
        writer.writerows(rows)
        for note in notes:
            fh.write(f"# {note}\n")
    print(f"wrote {args.out}: {len(rows)} rows")
    for note in notes:
        print(note)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pclab",
        description="generate, refute, check, and transform polynomial calculus instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a formula family instance to disk")
    g.add_argument("family", choices=("lop", "bop", "bop-lifted", "tseitin-cycle"))
    g.add_argument("--n", type=int, required=True, help="vertices (or cycle length)")
    g.add_argument("--ell", type=int, default=1, help="gadget copies per edge (bop-lifted)")
    g.add_argument("--out", required=True, help="output path")
    g.add_argument("--axioms", action="store_true",
                   help="write the polynomial translation instead of DIMACS")
    g.add_argument("--basis", choices=BASES, default=BOOLEAN,
                   help="encoding for --axioms")
    g.add_argument("--field", type=int, default=DEFAULT_FIELD.p, help="odd prime field order")
    g.add_argument("--no-twins", action="store_true",
                   help="translate negated literals as 1-x instead of twin variables")
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("refute", help="build a refutation and emit a checked artifact directory")
    r.add_argument("family", choices=("lop", "lifted", "pcr-upper", "tseitin"))
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--ell", type=int, default=1, help="gadget copies (lifted, pcr-upper)")
    r.add_argument("--out", required=True, help="output directory")
    r.set_defaults(func=_cmd_refute)

    c = sub.add_parser("check", help="validate a proof file")
    c.add_argument("proof", help="pcproof or resproof file")
    c.add_argument("--formula", help="override the formula path recorded in the header")
    c.add_argument("--refutation", action="store_true",
                   help="fail unless the last line is the contradiction")
    c.set_defaults(func=_cmd_check)

    t = sub.add_parser("transform", help="rewrite a proof file")
    t.set_defaults(func=_cmd_rewrite)  # cluster sets its own
    tsub = t.add_subparsers(dest="transform", required=True)
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--proof", required=True, help="input proof file")
    io.add_argument("--out", required=True, help="output directory")

    ts = tsub.add_parser("split", parents=[io], help="eliminate one variable by case split")
    ts.add_argument("--var", required=True, help="variable token, e.g. 'x(1,2,1)'")
    ts.add_argument("--prune-dead", action="store_true")
    tsub.add_parser("qdeg2deg", parents=[io], help="rebalance lines to the quadratic-degree bound")
    tr = tsub.add_parser("restrict", parents=[io], help="apply a partial assignment")
    tr.add_argument("--restriction", required=True, help="restriction file")

    tc = tsub.add_parser("cluster", parents=[io], help="merge paired gadget copies into cluster variables")
    tc.add_argument("--map", help="cluster map file; omit to draw a seeded random pairing")
    tc.add_argument("--seed", type=int, default=0)
    tc.set_defaults(func=_cmd_cluster)

    t2 = tsub.add_parser("res2pcr", parents=[io], help="simulate a resolution proof in the Boolean system")
    t2.add_argument("--field", type=int, default=DEFAULT_FIELD.p)

    v = sub.add_parser("verify-lemmas", help="run the reduction-operator lemma checks")
    v.add_argument("--which", default="all", choices=("all", *LEMMAS))
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--ell", type=int, default=1)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_verify_lemmas)

    e = sub.add_parser("experiment", help="sweep refutation sizes into a CSV table")
    e.add_argument("--family", required=True, choices=("pcr-upper", "lop", "tseitin"))
    e.add_argument("--n", required=True, help="range, e.g. '4..12' or '3,5,9'")
    e.add_argument("--ell", default="1", help="range of gadget copies (pcr-upper)")
    e.add_argument("--out", required=True, help="CSV path")
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--timings", action="store_true",
                   help="fill the seconds column (breaks byte-reproducibility)")
    e.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, ScaleLimitExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
