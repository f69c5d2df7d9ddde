"""Per-layer accounting for the traced benchmark run.

A ``Tracer`` replaces public pclab functions with timing wrappers while
it is active.  A function is replaced in every ``pclab`` module namespace
that holds it, so calls from inside pclab (``check_pc`` inside
``qdeg_to_deg``, ``span_basis`` inside ``ResidueOracle``) are timed too.
Each call is a span; its self time is its duration minus the time of
the wrapped calls it made.  Self times add up, per layer, to the time
spent inside pclab, so the traced pass time is the sum of the layer self
times plus ``trace.unaccounted_s`` (the benchmark's own code between
calls).

``algebra`` is not wrapped: its functions run millions of times per
pass, and a wrapper would cost more than they do.  Its time falls into
the self time of the layer that called it; the algebra metrics come from
the probes in ``algebra_probes``.
"""

from __future__ import annotations

import importlib
import os
import random
import time
from typing import Dict, List, Tuple

import pclab as P

LAYERS = ("formulas", "proofs", "constructions", "transforms", "degreelab")
MODULES = ("pclab", "pclab.algebra", "pclab.formulas", "pclab.proofs", "pclab.constructions",
           "pclab.transforms", "pclab.degreelab", "pclab.cli")

# The public names each layer's spans cover.  A name that no longer
# exists stops the traced run: renaming it must update this table.
WRAPPED = {
    "formulas": ("gen_bop_lifted", "gen_cycle_tseitin", "cnf_to_axioms", "write_dimacs",
                 "read_dimacs", "write_axioms", "read_axioms"),
    "proofs": ("check_pc", "check_resolution", "proof_lines", "resolution_lines", "quadratic_set",
               "quadratic_degree", "random_derivation", "write_pcproof", "read_pcproof",
               "write_resproof", "read_resproof", "touched"),
    "constructions": ("lifted_refutation", "tseitin_fourier_refutation"),
    "transforms": ("res_to_pcr", "split", "strip_dead", "qdeg_to_deg",
                   "quadratic_containment_check", "cluster_proof", "random_pairing",
                   "restrict_proof", "isolate_vertex_restriction"),
    "degreelab": ("bop_context", "span_basis", "heavy_split_round", "heavy_term_selection",
                  "verify_residue_properties", "verify_residue_operator", "verify_touch_extension",
                  "verify_touch_superset", "verify_residue_support", "verify_residue_product"),
}
# Counted but not timed: called per term and mostly a cache hit, so a
# span would cost more than the call.
COUNTED_METHOD = ("degreelab", "ResidueOracle", "R_term")

# Self-time metrics: metric name -> wrapped names whose self time it sums.
SELF_TIME = {
    "formulas.write_s": ("write_dimacs", "write_axioms"),
    "formulas.read_s": ("read_dimacs", "read_axioms"),
    "proofs.write_s": ("write_pcproof", "write_resproof"),
    "proofs.read_s": ("read_pcproof", "read_resproof"),
    "proofs.check_pc_s": ("check_pc",),
    "proofs.check_resolution_s": ("check_resolution",),
    "proofs.quadratic_set_s": ("quadratic_set",),
    "constructions.lifted_refutation_s": ("lifted_refutation",),
    "constructions.tseitin_refutation_s": ("tseitin_fourier_refutation",),
    "transforms.res_to_pcr_s": ("res_to_pcr",),
    "transforms.split_s": ("split", "strip_dead"),
    "transforms.qdeg_to_deg_s": ("qdeg_to_deg",),
    "transforms.cluster_proof_s": ("cluster_proof",),
    "transforms.containment_s": ("quadratic_containment_check",),
    "degreelab.heavy_split_round_s": ("heavy_split_round", "heavy_term_selection"),
    "degreelab.verify_s": ("verify_residue_properties", "verify_residue_operator",
                           "verify_touch_extension", "verify_touch_superset",
                           "verify_residue_support", "verify_residue_product"),
}
# Measured over the set-up instead of a pass.
SETUP_TIME = {
    "formulas.gen_s": ("gen_bop_lifted", "gen_cycle_tseitin", "cnf_to_axioms"),
    "proofs.random_derivation_s": ("random_derivation",),
}
WALKS = ("check_pc", "proof_lines", "quadratic_set", "check_resolution", "resolution_lines")
RUNNERS = SELF_TIME["degreelab.verify_s"]
PROOF_READERS = ("read_pcproof", "read_resproof")
FORMULA_READERS = ("read_dimacs", "read_axioms")
EMITTERS = ("res_to_pcr", "split", "qdeg_to_deg", "cluster_proof", "restrict_proof")

COUNTS = ("proofs.check_pc_calls", "proofs.lines_checked", "proofs.monomials_checked",
          "proofs.quadratic_set_calls", "proofs.quadratic_pairs", "proofs.line_walks",
          "proofs.lines_read", "formulas.bytes_read", "transforms.lines_emitted",
          "degreelab.spans_built", "degreelab.std_monomials", "degreelab.cases",
          "degreelab.rterm_calls", "degreelab.rterm_misses")
# Times split out of a span by its arguments, or summed over outermost runner calls.
TIMES = ("degreelab.span_points_s", "degreelab.span_closure_s", "degreelab.verify_incl_s")


class Tracer:
    """Install with ``with Tracer():``; totals accumulate in ``self_s``
    (per wrapped name), ``layer_s`` (per layer), ``counts`` and ``times``."""

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.layer_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTS}
        self.times: Dict[str, float] = {name: 0.0 for name in TIMES}
        self.spans: List = []  # SpanBasis objects built, counted after the pass
        self._stack: List[Tuple[str, str, List[float]]] = []
        self._seen_terms: Dict[object, set] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        try:
            for layer, names in WRAPPED.items():
                home = importlib.import_module(f"pclab.{layer}")
                for name in names:
                    fn = getattr(home, name, None)
                    if not callable(fn):
                        raise LookupError(f"traced name pclab.{layer}.{name} no longer exists; "
                                          f"update WRAPPED in bench/layers.py")
                    wrapper = self._wrap(name, layer, fn)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is fn:
                                self._restore.append((module, attr, value))
                                setattr(module, attr, wrapper)
            layer, cls_name, meth = COUNTED_METHOD
            cls = getattr(importlib.import_module(f"pclab.{layer}"), cls_name, None)
            fn = getattr(cls, meth, None)
            if not callable(fn):
                raise LookupError(f"traced name pclab.{layer}.{cls_name}.{meth} no longer exists; "
                                  f"update COUNTED_METHOD in bench/layers.py")
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._count_rterm(fn))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()
        for sb in self.spans:
            self.counts["degreelab.std_monomials"] += len(sb.std_monomials)
        self.spans.clear()
        self._seen_terms.clear()

    def _uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append((name, layer, child))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][2][0] += dt
                own = dt - child[0]
                self.self_s[name] = self.self_s.get(name, 0.0) + own
                self.calls[name] = self.calls.get(name, 0) + 1
                self.layer_s[layer] += own
            self._observe(name, args, kwargs, result, dt, own)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count_rterm(self, fn):
        seen = self._seen_terms
        counts = self.counts

        def R_term(oracle, t):
            terms = seen.setdefault(oracle, set())
            counts["degreelab.rterm_calls"] += 1
            if t not in terms:
                terms.add(t)
                counts["degreelab.rterm_misses"] += 1
            return fn(oracle, t)

        return R_term

    def _observe(self, name, args, kwargs, result, dt, own) -> None:
        """Counts read from arguments and return values at the boundary."""
        c = self.counts
        parents = [entry[0] for entry in self._stack]
        if name == "check_pc":
            c["proofs.check_pc_calls"] += 1
            c["proofs.lines_checked"] += result.num_lines
            c["proofs.monomials_checked"] += result.size
        elif name == "quadratic_set":
            c["proofs.quadratic_set_calls"] += 1
            c["proofs.quadratic_pairs"] += len(result.pairs)
        elif name in PROOF_READERS:
            c["proofs.lines_read"] += len(result.steps)
        elif name in FORMULA_READERS:
            c["formulas.bytes_read"] += os.path.getsize(str(args[0]))
        elif name == "span_basis":
            c["degreelab.spans_built"] += 1
            method = kwargs.get("method", args[4] if len(args) > 4 else "points")
            self.times[f"degreelab.span_{method}_s"] += own
            self.spans.append(result)
        if name in WALKS and parents and not any(p in WALKS for p in parents):
            c["proofs.line_walks"] += 1
        if name in EMITTERS and not any(p in EMITTERS for p in parents):
            proof = result[0] if isinstance(result, tuple) else result
            c["transforms.lines_emitted"] += len(proof.steps)
        if name in RUNNERS and not any(p in RUNNERS for p in parents):
            reports = result if isinstance(result, tuple) else (result,)
            c["degreelab.cases"] += sum(rep.cases for rep in reports)
            self.times["degreelab.verify_incl_s"] += dt


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracers: List[Tracer], traced_walls: List[float], plain_walls: List[float]) -> Dict[str, float]:
    """Per-layer metrics as means over the traced passes."""
    k = len(tracers)
    self_s = {name: sum(t.self_s.get(name, 0.0) for t in tracers) / k
              for names in WRAPPED.values() for name in names}
    counts = {name: sum(t.counts[name] for t in tracers) / k for name in COUNTS}
    times = {name: sum(t.times[name] for t in tracers) / k for name in TIMES}
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t.layer_s[layer] for t in tracers) / k
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_s[n] for n in names)
    out.update(counts)
    del out["degreelab.rterm_misses"]
    out["proofs.read_lines_per_s"] = _ratio(counts["proofs.lines_read"], out["proofs.read_s"])
    out["proofs.check_lines_per_s"] = _ratio(counts["proofs.lines_checked"], out["proofs.check_pc_s"])
    out["degreelab.span_points_s"] = times["degreelab.span_points_s"]
    out["degreelab.span_closure_s"] = times["degreelab.span_closure_s"]
    out["degreelab.cases_per_s"] = _ratio(counts["degreelab.cases"], times["degreelab.verify_incl_s"])
    calls = counts["degreelab.rterm_calls"]
    out["degreelab.rterm_hit_ratio"] = _ratio(calls - counts["degreelab.rterm_misses"], calls)
    traced = sum(traced_walls) / k
    out["trace.wall_s"] = traced
    out["trace.overhead_s"] = traced - sum(plain_walls) / len(plain_walls)
    out["trace.unaccounted_s"] = traced - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    return out


def per_function(tracers: List[Tracer]) -> Dict[str, Dict[str, float]]:
    """Calls and self time per wrapped name, as means over the traced
    passes, for the names that were called."""
    k = len(tracers)
    return {f"{layer}.{name}": {"calls": sum(t.calls.get(name, 0) for t in tracers) / k,
                                "self_s": sum(t.self_s.get(name, 0.0) for t in tracers) / k}
            for layer, names in WRAPPED.items() for name in names
            if any(name in t.calls for t in tracers)}


def setup_metrics(tracer: Tracer) -> Dict[str, float]:
    return {metric: sum(tracer.self_s.get(n, 0.0) for n in names) for metric, names in SETUP_TIME.items()}


def algebra_probes(polys, variables, seed: int, min_seconds: float = 0.2) -> Tuple[Dict[str, float], int, List[str]]:
    """Microseconds per ``Poly.mul_var`` and per ``format_poly`` ->
    ``parse_poly`` round trip on the workload's own lines.  Returns the
    metrics, the number of lines whose round trip was checked, and the
    failures."""
    rng = random.Random(seed)
    pairs = [(q, rng.choice(variables)) for q in polys]
    perf = time.perf_counter

    calls = 0
    t0 = perf()
    while True:
        for q, v in pairs:
            q.mul_var(v)
        calls += len(pairs)
        elapsed = perf() - t0
        if elapsed >= min_seconds:
            break
    mul_us = elapsed / calls * 1e6

    failures = [f"format/parse round trip changed {P.format_poly(q)!r}" for q in polys
                if P.parse_poly(P.format_poly(q), q.field, q.basis) != q]
    trips = 0
    t0 = perf()
    while True:
        for q in polys:
            P.parse_poly(P.format_poly(q), q.field, q.basis)
        trips += len(polys)
        elapsed = perf() - t0
        if elapsed >= min_seconds:
            break
    return {"algebra.mul_var_us": mul_us, "algebra.parse_format_us": elapsed / trips * 1e6}, len(polys), failures
