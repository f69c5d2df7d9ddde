"""Proof-to-proof transformations: partial assignments (restrictions),
the Split operation that eliminates one variable from a {+1,-1} proof,
the quadratic-degree-to-degree conversion, gadget clustering, and the
simulation of resolution refutations in the Boolean polynomial system.

All transforms are pure: they build a new proof object and never touch
the input.  Transforms that renumber lines also return a provenance map
from old line index to new line index (None when the old line became
identically zero and was dropped).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .algebra import (
    BOOLEAN,
    FOURIER,
    BasisMismatch,
    Poly,
    Term,
    Var,
    cluster_var,
    edge,
    encode_truth,
    format_var,
    make_term,
    mul_term_by_var,
    parse_var,
    pointer,
    term_mul,
)
from .formulas import CNF, AxiomSystem, Clause, cnf_to_axioms, code_of, pointer_bits
from .proofs import (
    PCProof,
    ProofWriter,
    ResolutionProof,
    Step,
    StepError,
    _refs,
    quadratic_set,
    walk_pc,
    walk_resolution,
)

# ---------------------------------------------------------------------------
# restrictions


class Restriction:
    """A partial truth assignment on base variables.

    Assigning a twin assigns the complementary value to its base, so the
    map never holds both polarities; conflicting values raise.
    """

    __slots__ = ("_map",)

    def __init__(self, assignment: Mapping[Var, bool] = ()):
        m: Dict[Var, bool] = {}
        items = assignment.items() if hasattr(assignment, "items") else assignment
        for v, val in items:
            if not isinstance(v, Var):
                raise TypeError(f"restriction keys must be variables, got {v!r}")
            base, bval = (v.base, not val) if v.negated else (v, bool(val))
            if base in m and m[base] != bool(bval):
                raise ValueError(f"inconsistent assignment for {format_var(base)}")
            m[base] = bool(bval)
        self._map = dict(sorted(m.items()))

    def value(self, v: Var) -> Optional[bool]:
        """Truth value of the literal v under the assignment, or None."""
        val = self._map.get(v.base)
        if val is None:
            return None
        return (not val) if v.negated else val

    def variables(self) -> Tuple[Var, ...]:
        return tuple(self._map)

    def items(self) -> Tuple[Tuple[Var, bool], ...]:
        return tuple(self._map.items())

    def __contains__(self, v: Var) -> bool:
        return v.base in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Restriction) and self._map == other._map

    def __hash__(self):
        return hash(tuple(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{format_var(v)}={val}" for v, val in self._map.items())
        return f"Restriction({inner})"


def restrict_poly(p: Poly, rho: Restriction) -> Poly:
    terms: Dict[Term, int] = {}
    for t, c in p.terms.items():
        coef = c
        kept: List[Var] = []
        for v in t:
            tv = rho.value(v)
            if tv is None:
                kept.append(v)
            else:
                coef = p.field.mul(coef, encode_truth(tv, p.basis, p.field))
                if coef == 0:
                    break
        if coef == 0:
            continue
        key = tuple(kept)
        coef = p.field.add(terms.get(key, 0), coef)
        if coef:
            terms[key] = coef
        else:
            terms.pop(key, None)
    return Poly(p.field, p.basis, terms)


def _restrict_clause(c: Clause, rho: Restriction) -> Optional[Clause]:
    """None when some literal is satisfied; otherwise the clause with its
    falsified literals removed (possibly empty)."""
    kept = []
    for v in c:
        tv = rho.value(v)
        if tv is True:
            return None
        if tv is None:
            kept.append(v)
    return frozenset(kept)


def restrict_cnf(cnf: CNF, rho: Restriction) -> Tuple[CNF, Tuple[Optional[int], ...]]:
    clauses: List[Clause] = []
    cmap: List[Optional[int]] = []
    for c in cnf.clauses:
        rc = _restrict_clause(c, rho)
        if rc is None:
            cmap.append(None)
        else:
            cmap.append(len(clauses))
            clauses.append(rc)
    groups = {
        label: tuple(cmap[i] for i in idxs if cmap[i] is not None)
        for label, idxs in cnf.groups.items()
    }
    universe = tuple(v for v in cnf.universe if v not in rho)
    return CNF(tuple(clauses), universe, groups, n=cnf.n, ell=cnf.ell), tuple(cmap)


def restrict_axioms(
    ax: AxiomSystem, rho: Restriction
) -> Tuple[AxiomSystem, Tuple[Optional[int], ...]]:
    """Restricted system with satisfied (identically zero) axioms dropped;
    the map sends old axiom index to new index or None."""
    polys: List[Poly] = []
    amap: List[Optional[int]] = []
    for p in ax.polys:
        rp = restrict_poly(p, rho)
        if rp.is_zero:
            amap.append(None)
        else:
            amap.append(len(polys))
            polys.append(rp)
    groups = {
        label: tuple(amap[i] for i in idxs if amap[i] is not None)
        for label, idxs in ax.groups.items()
    }
    universe = tuple(v for v in ax.universe if v not in rho)
    system = AxiomSystem(ax.field, ax.basis, tuple(polys), universe, groups, n=ax.n, ell=ax.ell)
    return system, tuple(amap)


def restrict_proof(
    proof: PCProof, rho: Restriction
) -> Tuple[PCProof, Tuple[Optional[int], ...]]:
    """Rewrite every step under the assignment.

    Lines that become identically zero for structural reasons (satisfied
    axiom, assigned twin axiom, multiplication by a false variable) are
    dropped; later references are fixed up through the line map.
    Multiplication by an assigned variable becomes a scalar combination.
    """
    ax, amap = restrict_axioms(proof.axioms, rho)
    out = ProofWriter(proof.field.p)
    lmap: List[Optional[int]] = []
    for step in proof.steps:
        kind = step[0]
        if kind == "ax":
            new = amap[step[1]]
            lmap.append(None if new is None else out.emit(("ax", new)))
        elif kind == "sq" or (kind == "tw" and step[1] in rho):
            lmap.append(None)
        elif kind == "tw":
            lmap.append(out.emit(step))
        elif kind == "lin":
            _, a, i, b, j = step
            lmap.append(out.lin([(a, lmap[i], ()), (b, lmap[j], ())]))
        else:  # mul
            _, v, i = step
            tv = rho.value(v)
            if tv is None:
                lmap.append(None if lmap[i] is None else out.emit(("mul", v, lmap[i])))
            else:
                lmap.append(out.lin([(encode_truth(tv, proof.basis, proof.field), lmap[i], ())]))
    return PCProof(ax, tuple(out.steps)), tuple(lmap)


def restrict(target, rho: Restriction):
    """Apply a restriction to a polynomial, clause set, axiom system, or
    proof, returning the same kind of object."""
    if isinstance(target, Poly):
        return restrict_poly(target, rho)
    if isinstance(target, CNF):
        return restrict_cnf(target, rho)[0]
    if isinstance(target, AxiomSystem):
        return restrict_axioms(target, rho)[0]
    if isinstance(target, PCProof):
        return restrict_proof(target, rho)[0]
    raise TypeError(f"cannot restrict {type(target).__name__}")


# ---------------------------------------------------------------------------
# named restriction builders for the lifted pointer families


def build_jcta(
    n: int,
    ell: int,
    j: int,
    extra_pointer_vertices: Iterable[int] = (),
    lk_choice: Optional[Mapping[int, int]] = None,
) -> Restriction:
    """Assignment making vertex j the minimum of the order.

    Every gadget copy of an edge into j is set false and one chosen copy
    of each edge out of j is set true, so ordering axioms mentioning j
    vanish.  Pointers of the designated extra vertices are aimed at j,
    which kills their whole vertex-axiom group.
    """
    if not (1 <= j <= n):
        raise ValueError(f"vertex {j} outside 1..{n}")
    others = [k for k in range(1, n + 1) if k != j]
    if lk_choice is None:
        lk = {k: 1 for k in others}
    else:
        lk = dict(lk_choice)
        missing = [k for k in others if k not in lk]
        if missing:
            raise ValueError(f"lk_choice missing for vertices {missing}")
    assignment: Dict[Var, bool] = {}
    for i in others:
        for l in range(1, ell + 1):
            assignment[edge(i, j, l)] = False
    for k in others:
        l = lk[k]
        if not (1 <= l <= ell):
            raise ValueError(f"gadget index {l} for vertex {k} outside 1..{ell}")
        assignment[edge(j, k, l)] = True
    b = pointer_bits(n)
    for k in extra_pointer_vertices:
        if not (1 <= k <= n):
            raise ValueError(f"vertex {k} outside 1..{n}")
        for a in range(1, b + 1):
            assignment[pointer(k, a)] = bool((code_of(j) >> (a - 1)) & 1)
    return Restriction(assignment)


def isolate_vertex_restriction(
    n: int,
    ell: int,
    j: int,
    l_choice: Optional[Mapping[int, int]] = None,
    pointer_target: Optional[int] = None,
) -> Restriction:
    """Assignment used before splitting at vertex j's variables.

    All copies of edges into j except one chosen copy per source are set
    true, edges out of j are set false, and j's own pointer is aimed at
    some true incoming edge.  The chosen copies x(i,j,l_i) and the
    pointer bits y(j,a) then occur in no axiom and are safe split
    targets.  Needs ell >= 2 so the surviving pointer clause of j is
    satisfied by a true copy.
    """
    if ell < 2:
        raise ValueError(f"need ell >= 2 to free the chosen copies, got {ell}")
    if not (1 <= j <= n):
        raise ValueError(f"vertex {j} outside 1..{n}")
    others = [i for i in range(1, n + 1) if i != j]
    li = {i: 1 for i in others}
    if l_choice:
        li.update(l_choice)
    assignment: Dict[Var, bool] = {}
    for i in others:
        if not (1 <= li[i] <= ell):
            raise ValueError(f"gadget index {li[i]} for vertex {i} outside 1..{ell}")
        for l in range(1, ell + 1):
            if l != li[i]:
                assignment[edge(i, j, l)] = True
    for k in others:
        for l in range(1, ell + 1):
            assignment[edge(j, k, l)] = False
    target = pointer_target if pointer_target is not None else min(others)
    if target == j or not (1 <= target <= n):
        raise ValueError(f"pointer target {target} invalid for vertex {j}")
    b = pointer_bits(n)
    for a in range(1, b + 1):
        assignment[pointer(j, a)] = bool((code_of(target) >> (a - 1)) & 1)
    return Restriction(assignment)


# ---------------------------------------------------------------------------
# split


def _axiom_mentions(ax: AxiomSystem, base: Var) -> bool:
    for p in ax.polys:
        for v in p.variables():
            if v.base == base:
                return True
    return False


def _split_pass(proof: PCProof, w: Var) -> PCProof:
    """One elimination pass at the single variable w (a base variable or a
    twin, treated as an independent variable of the representation).
    Each line P = P1*w + P0 is replaced by derivations of P1 and P0."""
    out = ProofWriter(proof.field.p)
    hi: List[Optional[int]] = []
    lo: List[Optional[int]] = []
    for step in proof.steps:
        kind = step[0]
        if kind == "lin":
            _, a, i, b, j = step
            for comp in (hi, lo):
                comp.append(out.lin([(a, comp[i], ()), (b, comp[j], ())]))
        elif kind == "mul" and step[1] == w:
            # w * (P1*w + P0) = P0*w + P1: the components swap.
            i = step[2]
            hi.append(out.lin([(1, lo[i], ())]))
            lo.append(out.lin([(1, hi[i], ())]))
        elif kind == "mul":
            _, v, i = step
            hi.append(None if hi[i] is None else out.emit(("mul", v, hi[i])))
            lo.append(None if lo[i] is None else out.emit(("mul", v, lo[i])))
        else:
            hi.append(None)
            lo.append(None if kind == "sq" else out.emit(step))
    return PCProof(proof.axioms, tuple(out.steps))


def split(proof: PCProof, x: Var, prune_dead: bool = False) -> PCProof:
    """Eliminate x (and its twin) from a {+1,-1} proof.

    Writes every line as P = P1*x + P0 and re-derives both components
    from the same axioms; multiplication by x swaps components since
    x*x = 1.  Identically-zero components are dropped with reference
    fix-ups; ``prune_dead`` additionally removes lines that do not feed
    the final one.  Requires that no axiom mentions x or its twin and no
    twin-axiom step is taken at x.
    """
    if proof.basis != FOURIER:
        raise BasisMismatch("split is specific to the {+1,-1} encoding")
    base = x.base
    if _axiom_mentions(proof.axioms, base):
        raise ValueError(f"{format_var(base)} occurs in an axiom; cannot split")
    for step in proof.steps:
        if step[0] == "tw" and step[1].base == base:
            raise ValueError(
                f"twin-axiom step at {format_var(base)} mentions the split variable"
            )
    out = _split_pass(proof, base)
    twin = base.twin
    if any(s[0] == "mul" and s[1] == twin for s in out.steps):
        out = _split_pass(out, twin)
    if prune_dead:
        out = strip_dead(out)
    return out


def strip_dead(proof: PCProof) -> PCProof:
    """Drop lines that do not feed the final line, keeping the final line
    and renumbering references."""
    if not proof.steps:
        return proof
    keep: Set[int] = {len(proof.steps) - 1}
    for k in range(len(proof.steps) - 1, -1, -1):
        if k in keep:
            keep.update(_refs(proof.steps[k]))
    new_index: Dict[int, int] = {}
    steps: List[Step] = []
    for k in sorted(keep):
        step = proof.steps[k]
        if step[0] == "lin":
            step = ("lin", step[1], new_index[step[2]], step[3], new_index[step[4]])
        elif step[0] == "mul":
            step = ("mul", step[1], new_index[step[2]])
        new_index[k] = len(steps)
        steps.append(step)
    return PCProof(proof.axioms, tuple(steps))


def quadratic_containment_check(before: PCProof, after: PCProof, x: Var) -> bool:
    """True when the folded pair products of the transformed proof sit
    inside those of the original minus every product mentioning x."""
    base = x.base
    qb = quadratic_set(before).products
    qa = quadratic_set(after).products
    allowed = {t for t in qb if all(v.base != base for v in t)}
    return qa <= allowed


# ---------------------------------------------------------------------------
# quadratic degree to degree


def _valid_input(walk):
    """Pass a walk through, turning its StepError into an input error."""
    try:
        yield from walk
    except StepError as e:
        raise ValueError(f"input proof invalid at L{e.k + 1}: {e}") from None


def qdeg_to_deg(proof: PCProof) -> PCProof:
    """Rebuild a {+1,-1} proof so that every line of the original appears
    multiplied by one of its own terms, capping the degree by twice the
    maximum of the quadratic degree and the axiom degree.

    Per line P_k the construction fixes a term t_k of P_k and derives
    t_k*P_k: axiom-like lines by a multiplication chain, multiplication
    lines by reusing the parent's transformed line unchanged (the chosen
    terms absorb the multiplier), and linear combinations by multiplying
    each parent's transformed line up to t_k*(parent term) and combining.
    """
    if proof.basis != FOURIER:
        raise BasisMismatch("the degree conversion is specific to the {+1,-1} encoding")
    out = ProofWriter(proof.field.p)
    idx: List[int] = []
    tsel: List[Optional[Term]] = []  # the chosen term; None for a zero line
    for _, step, val in _valid_input(walk_pc(proof)):
        kind = step[0]
        if kind == "mul":
            _, v, i = step
            idx.append(idx[i])
            tsel.append(None if val.is_zero else term_mul(tsel[i], (v,), FOURIER))
            continue
        t = None if val.is_zero else val.leading_term()
        if kind != "lin":
            cur = out.emit(step)
            for v in t or ():
                cur = out.emit(("mul", v, cur))
            idx.append(cur)
        elif t is None:
            idx.append(out.emit(("lin", 0, idx[step[2]], 0, idx[step[2]])))
        else:
            _, a, i, b, j = step
            # each live parent's line t_q*P_q is multiplied up to t*P_q first
            parts = [(c, None if tsel[q] is None else idx[q], term_mul(t, tsel[q] or (), FOURIER))
                     for c, q in ((a, i), (b, j))]
            idx.append(out.lin(parts))
        tsel.append(t)
    if idx and idx[-1] != len(out.steps) - 1:
        out.lin([(1, idx[-1], ())])
    return PCProof(proof.axioms, tuple(out.steps))


# ---------------------------------------------------------------------------
# clustering


@dataclass(frozen=True)
class ClusterMap:
    """Per ordered edge (i,j): a perfect pairing of the gadget indices
    {1..ell}; the pair at position p maps its two copies to z(i,j,p)."""

    n: int
    ell: int
    pairs: Mapping[Tuple[int, int], Tuple[Tuple[int, int], ...]]

    def __post_init__(self):
        if self.ell % 2 or self.ell < 2:
            raise ValueError(f"pairing needs an even number of copies, got ell={self.ell}")
        want = {(i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1) if i != j}
        if set(self.pairs) != want:
            raise ValueError("pairing must cover every ordered vertex pair exactly")
        for key, pairing in self.pairs.items():
            flat = sorted(l for pr in pairing for l in pr)
            if flat != list(range(1, self.ell + 1)):
                raise ValueError(f"pairing for {key} is not a perfect pairing of 1..{self.ell}")

    def pair_index(self, i: int, j: int, l: int) -> int:
        for p, pr in enumerate(self.pairs[(i, j)], start=1):
            if l in pr:
                return p
        raise ValueError(f"gadget index {l} not paired for edge ({i},{j})")

    def image(self, v: Var) -> Var:
        if v.kind == "z":
            raise ValueError(f"{format_var(v)} is already a cluster variable")
        if v.kind != "x":
            return v
        i, j, l = v.index
        z = cluster_var(i, j, self.pair_index(i, j, l))
        return z.twin if v.negated else z


def random_pairing(n: int, ell: int, seed: int) -> ClusterMap:
    """Uniform independent perfect pairing per ordered edge, derived
    deterministically from the seed."""
    if ell % 2 or ell < 2:
        raise ValueError(f"pairing needs an even number of copies, got ell={ell}")
    rng = random.Random(seed)
    pairs: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            idxs = list(range(1, ell + 1))
            rng.shuffle(idxs)
            pairing = tuple(
                (min(idxs[2 * p], idxs[2 * p + 1]), max(idxs[2 * p], idxs[2 * p + 1]))
                for p in range(ell // 2)
            )
            pairs[(i, j)] = pairing
    return ClusterMap(n, ell, pairs)


def cluster_term(t: Term, cmap: ClusterMap) -> Term:
    out: Term = ()
    for v in t:
        out, _ = mul_term_by_var(out, cmap.image(v), FOURIER)
    return out


def cluster_poly(p: Poly, cmap: ClusterMap) -> Poly:
    if p.basis != FOURIER:
        raise BasisMismatch("clustering is specific to the {+1,-1} encoding")
    terms: Dict[Term, int] = {}
    for t, c in p.terms.items():
        key = cluster_term(t, cmap)
        acc = p.field.add(terms.get(key, 0), c)
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    return Poly(p.field, p.basis, terms)


def cluster_axioms(ax: AxiomSystem, cmap: ClusterMap) -> AxiomSystem:
    if ax.basis != FOURIER:
        raise BasisMismatch("clustering is specific to the {+1,-1} encoding")
    polys = tuple(cluster_poly(p, cmap) for p in ax.polys)
    universe = tuple(sorted({cmap.image(v) for v in ax.universe}))
    return AxiomSystem(ax.field, ax.basis, polys, universe, dict(ax.groups), n=ax.n, ell=ax.ell)


def cluster_proof(proof: PCProof, cmap: ClusterMap) -> PCProof:
    ax = cluster_axioms(proof.axioms, cmap)
    steps: List[Step] = []
    for step in proof.steps:
        if step[0] in ("sq", "tw"):
            steps.append((step[0], cmap.image(step[1])))
        elif step[0] == "mul":
            steps.append(("mul", cmap.image(step[1]), step[2]))
        else:
            steps.append(step)
    return PCProof(ax, tuple(steps))


def cluster(target, cmap: ClusterMap):
    """Substitute paired gadget copies by their cluster variable in a
    term, polynomial, axiom system, or proof.  The substitution respects
    every derivation rule, so proofs stay checker-valid line for line."""
    if isinstance(target, tuple):
        return cluster_term(target, cmap)
    if isinstance(target, Poly):
        return cluster_poly(target, cmap)
    if isinstance(target, AxiomSystem):
        return cluster_axioms(target, cmap)
    if isinstance(target, PCProof):
        return cluster_proof(target, cmap)
    raise TypeError(f"cannot cluster {type(target).__name__}")


def cluster_retention(ell: int, term_degree: int, trials: int, seed: int) -> float:
    """Fraction of uniform pairings of one edge's copies under which a
    fixed term of the given degree keeps all ell/2 cluster variables,
    i.e. every pair has exactly one copy inside the term."""
    if ell % 2 or ell < 2:
        raise ValueError(f"pairing needs an even number of copies, got ell={ell}")
    m = term_degree
    rng = random.Random(seed)
    idxs = list(range(1, ell + 1))
    hits = 0
    for _ in range(trials):
        rng.shuffle(idxs)
        ok = True
        for p in range(ell // 2):
            inside = (idxs[2 * p] <= m) + (idxs[2 * p + 1] <= m)
            if inside != 1:
                ok = False
                break
        if ok:
            hits += 1
    return hits / trials


# ---------------------------------------------------------------------------
# file formats


def write_restriction(rho: Restriction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("restriction v1\n")
        for v, val in rho.items():
            fh.write(f"set {format_var(v)} = {'true' if val else 'false'}\n")


def read_restriction(path) -> Restriction:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "restriction v1":
        raise ValueError("expected 'restriction v1' header")
    assignment: Dict[Var, bool] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4 or parts[0] != "set" or parts[2] != "=":
            raise ValueError(f"bad restriction line: {ln!r}")
        if parts[3] not in ("true", "false"):
            raise ValueError(f"bad truth value in: {ln!r}")
        v = parse_var(parts[1])
        val = parts[3] == "true"
        prior = assignment.get(v.base)
        literal = (not val) if v.negated else val
        if prior is not None and prior != literal:
            raise ValueError(f"inconsistent assignment for {parts[1]}")
        assignment[v.base] = literal
    return Restriction(assignment)


def write_clustermap(cmap: ClusterMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"clustermap v1 n={cmap.n} ell={cmap.ell}\n")
        for (i, j) in sorted(cmap.pairs):
            for p, (l1, l2) in enumerate(cmap.pairs[(i, j)], start=1):
                fh.write(f"pair {i} {j} {l1} {l2} -> {p}\n")


def read_clustermap(path) -> ClusterMap:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty cluster map file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "clustermap" or head[1] != "v1":
        raise ValueError("expected 'clustermap v1 n=.. ell=..' header")
    n = ell = None
    for tok in head[2:]:
        if tok.startswith("n="):
            n = int(tok[2:])
        elif tok.startswith("ell="):
            ell = int(tok[4:])
    if n is None or ell is None:
        raise ValueError("cluster map header must carry n= and ell=")
    pairs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 7 or parts[0] != "pair" or parts[5] != "->":
            raise ValueError(f"bad cluster map line: {ln!r}")
        i, j, l1, l2, p = (int(parts[k]) for k in (1, 2, 3, 4, 6))
        bucket = pairs.setdefault((i, j), [])
        if p != len(bucket) + 1:
            raise ValueError(f"pair positions for edge ({i},{j}) must arrive in order")
        bucket.append((min(l1, l2), max(l1, l2)))
    return ClusterMap(n, ell, {k: tuple(v) for k, v in pairs.items()})


# ---------------------------------------------------------------------------
# resolution simulation


def _clause_monomial(c: Clause) -> Term:
    return make_term(v.twin for v in c)


def res_to_pcr(rproof: ResolutionProof, field=None) -> PCProof:
    """Simulate a resolution proof in the Boolean polynomial system.

    Each clause becomes its one-monomial translation.  A resolution step
    multiplies each parent's monomial up to (pivot-literal * resolvent
    monomial), adds them, and cancels the pivot pair against the twin
    axiom multiplied by the resolvent monomial.
    """
    kwargs = {} if field is None else {"field": field}
    axioms = cnf_to_axioms(rproof.cnf, BOOLEAN, **kwargs)
    out = ProofWriter(axioms.field.p)
    lines: List[Clause] = []
    where: List[int] = []
    for _, step, clause in _valid_input(walk_resolution(rproof)):
        lines.append(clause)
        if step[0] == "in":
            where.append(out.emit(("ax", step[1])))
            continue
        _, i, j, pivot = step
        pivot = pivot.base
        target = _clause_monomial(clause)
        # each parent's monomial is multiplied up to the target; the parent
        # with the positive pivot literal comes first and carries the twin factor
        pos, neg = (i, j) if pivot in lines[i] else (j, i)
        le = out.lin([(1, where[q], [v for v in target if v.twin not in lines[q]]) for q in (pos, neg)])
        tw = out.emit(("tw", pivot))
        where.append(out.lin([(1, le, ()), (axioms.field.p - 1, tw, target)]))
    return PCProof(axioms, tuple(out.steps))
