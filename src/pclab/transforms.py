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

__all__ = [
    "ClusterMap",
    "Restriction",
    "build_jcta",
    "cluster",
    "cluster_proof",
    "cluster_retention",
    "isolate_vertex_restriction",
    "qdeg_to_deg",
    "quadratic_containment_check",
    "random_pairing",
    "read_clustermap",
    "read_restriction",
    "res_to_pcr",
    "restrict",
    "restrict_proof",
    "split",
    "strip_dead",
    "write_clustermap",
    "write_restriction",
]

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .algebra import (
    BOOLEAN,
    FOURIER,
    LineReader,
    Poly,
    Term,
    Var,
    cluster_var,
    edge,
    encode_truth,
    format_var,
    parse_var,
    term_mul,
)
from .formulas import CNF, AxiomSystem, Clause, cnf_to_axioms, code_of, pointer_assignment, pointer_bits
from .proofs import (
    PCProof,
    ProofWriter,
    ResolutionProof,
    Step,
    StepError,
    _PC,
    _VAR,
    _clause_rule,
    _fourier_only,
    _mask_lines,
    _quadratic_masks,
    _walk,
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
                coef = coef * encode_truth(tv, p.basis, p.field) % p.field.p
                if coef == 0:
                    break
        if coef == 0:
            continue
        key = tuple(kept)
        terms[key] = terms.get(key, 0) + coef
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


def _restrict_system(system, items: str, rho: Restriction, restrict_item):
    """``system`` with each of its ``items`` (clauses or polys) restricted
    by ``restrict_item``, which returns None for a satisfied one; kept
    items and groups are renumbered and rho's variables leave the
    universe.  Also the map from old item index to new index or None."""
    kept: list = []
    index: List[Optional[int]] = []
    for item in getattr(system, items):
        item = restrict_item(item)
        index.append(None if item is None else len(kept))
        if item is not None:
            kept.append(item)
    groups = {label: tuple(index[i] for i in idxs if index[i] is not None)
              for label, idxs in system.groups.items()}
    universe = tuple(v for v in system.universe if v not in rho)
    return replace(system, **{items: tuple(kept)}, groups=groups, universe=universe), tuple(index)


def restrict_cnf(cnf: CNF, rho: Restriction) -> Tuple[CNF, Tuple[Optional[int], ...]]:
    return _restrict_system(cnf, "clauses", rho, lambda c: _restrict_clause(c, rho))


def restrict_axioms(
    ax: AxiomSystem, rho: Restriction
) -> Tuple[AxiomSystem, Tuple[Optional[int], ...]]:
    """Restricted system with satisfied (identically zero) axioms dropped;
    the map sends old axiom index to new index or None."""
    def nonzero(q: Poly) -> Optional[Poly]:
        q = restrict_poly(q, rho)
        return None if q.is_zero else q

    return _restrict_system(ax, "polys", rho, nonzero)


def _valid_input(walk):
    """Pass a walk through, turning its StepError into an input error."""
    try:
        yield from walk
    except StepError as e:
        raise ValueError(f"input proof invalid at L{e.k + 1}: {e}") from None


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

    def derive(kind: str, at, step: Step, parents: Tuple[Optional[int], ...]) -> Optional[int]:
        if kind == "ax":
            new = amap[at]
            return None if new is None else out.emit(("ax", new))
        if kind == "sq" or (kind == "tw" and step[1] in rho):
            return None
        if kind == "tw":
            return out.emit(step)
        if kind == "lin":
            return out.lin([(step[1], parents[0], ()), (step[3], parents[1], ())])
        (parent,) = parents  # mul
        v = step[1]
        tv = rho.value(v)
        if tv is None:
            return None if parent is None else out.emit(("mul", v, parent))
        return out.lin([(encode_truth(tv, proof.basis, proof.field), parent, ())])

    lmap = tuple(new for _, _, new in _valid_input(_walk(proof, derive)))
    return PCProof(ax, tuple(out.steps)), lmap


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
    for k, l in sorted(lk.items()):
        if k not in others:
            raise ValueError(f"lk_choice names vertex {k}, not one of the vertices of 1..{n} other than {j}")
        if not (1 <= l <= ell):
            raise ValueError(f"gadget index {l} for vertex {k} outside 1..{ell}")
        assignment[edge(j, k, l)] = True
    for k in extra_pointer_vertices:
        if not (1 <= k <= n):
            raise ValueError(f"vertex {k} outside 1..{n}")
        assignment.update(pointer_assignment(k, code_of(j), pointer_bits(n)))
    return Restriction(assignment)


def isolate_vertex_restriction(
    n: int,
    ell: int,
    j: int,
    l_choice: Optional[Mapping[int, int]] = None,
) -> Restriction:
    """Assignment used before splitting at vertex j's variables.

    All copies of edges into j except one chosen copy per source are set
    true, edges out of j are set false, and j's own pointer is aimed at
    some true incoming edge.  The chosen copies x(i,j,l_i) and the
    pointer bits y(j,a) then occur in no axiom and are safe split
    targets.  Needs ell >= 2 so the surviving pointer clause of j is
    satisfied by a true copy.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if ell < 2:
        raise ValueError(f"need ell >= 2 to free the chosen copies, got {ell}")
    if not (1 <= j <= n):
        raise ValueError(f"vertex {j} outside 1..{n}")
    others = [i for i in range(1, n + 1) if i != j]
    li = {i: 1 for i in others}
    li.update(l_choice or {})
    assignment: Dict[Var, bool] = {}
    for i, chosen in sorted(li.items()):
        if i not in others:
            raise ValueError(f"l_choice names vertex {i}, not one of the vertices of 1..{n} other than {j}")
        if not (1 <= chosen <= ell):
            raise ValueError(f"gadget index {chosen} for vertex {i} outside 1..{ell}")
        for l in range(1, ell + 1):
            if l != chosen:
                assignment[edge(i, j, l)] = True
    for k in others:
        for l in range(1, ell + 1):
            assignment[edge(j, k, l)] = False
    assignment.update(pointer_assignment(j, code_of(min(others)), pointer_bits(n)))
    return Restriction(assignment)


# ---------------------------------------------------------------------------
# split


_Components = Tuple[Optional[int], Optional[int]]


def _split_pass(proof: PCProof, w: Var) -> PCProof:
    """One elimination pass at the single variable w (a base variable or a
    twin, treated as an independent variable of the representation).
    Each line P = P1*w + P0 is replaced by derivations of P1 and P0."""
    out = ProofWriter(proof.field.p)

    def derive(kind: str, at, step: Step, parents: Tuple[_Components, ...]) -> _Components:
        """The output lines deriving (P1, P0), None for a zero component."""
        if kind == "lin":
            a, b = step[1], step[3]
            (hi_i, lo_i), (hi_j, lo_j) = parents
            return (out.lin([(a, hi_i, ()), (b, hi_j, ())]),
                    out.lin([(a, lo_i, ()), (b, lo_j, ())]))
        if kind == "mul":
            v = step[1]
            ((hi, lo),) = parents
            if v == w:
                # w * (P1*w + P0) = P0*w + P1: the components swap.
                return out.lin([(1, lo, ())]), out.lin([(1, hi, ())])
            return (None if hi is None else out.emit(("mul", v, hi)),
                    None if lo is None else out.emit(("mul", v, lo)))
        if kind == "tw" and step[1].base == w.base:
            raise ValueError(f"twin-axiom step at {format_var(w.base)} mentions the split variable")
        return None, (None if kind == "sq" else out.emit(step))

    for _ in _valid_input(_walk(proof, derive)):
        pass
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
    _fourier_only(proof, "split")
    base = x.base
    if any(v.base == base for p in proof.axioms.polys for v in p.variables()):
        raise ValueError(f"{format_var(base)} occurs in an axiom; cannot split")
    out = _split_pass(proof, base)
    twin = base.twin
    if any(s[0] == "mul" and s[1] == twin for s in out.steps):
        out = _split_pass(out, twin)
    if prune_dead:
        out = strip_dead(out)
    return out


def strip_dead(proof: PCProof) -> PCProof:
    """Drop lines that do not feed the final line, keeping the final line
    and renumbering references.  The whole input is checked first."""
    for _ in _valid_input(_walk(proof, lambda *_: None)):
        pass
    if not proof.steps:
        return proof
    keep: Set[int] = {len(proof.steps) - 1}
    for k in range(len(proof.steps) - 1, -1, -1):
        if k in keep:
            step = proof.steps[k]
            keep.update(step[s] for s in _PC[step[0]][1])
    new_index: Dict[int, int] = {}
    out = ProofWriter(proof.field.p)
    for k in sorted(keep):
        step = list(proof.steps[k])
        for s in _PC[step[0]][1]:
            step[s] = new_index[step[s]]
        new_index[k] = out.emit(tuple(step))
    return PCProof(proof.axioms, tuple(out.steps))


def quadratic_containment_check(before: PCProof, after: PCProof, x: Var) -> bool:
    """True when the folded pair products of the transformed proof sit
    inside those of the original minus every product mentioning x.

    Products are compared as masks over ``before``'s codec; a product of
    ``after`` with a variable outside that universe is not contained."""
    qb = _quadratic_masks(before)
    qa = _quadratic_masks(after)
    codec, theirs = before.axioms.codec, after.axioms.codec
    if theirs.var_of != codec.var_of:
        try:
            qa = {codec.mask(theirs.term(m)) for m in qa}
        except KeyError:
            return False
    at = codec.pos.get(x.base)
    xm = 0 if at is None else 3 << at  # x and its twin
    return not any(m & xm for m in qa) and qa <= qb


# ---------------------------------------------------------------------------
# quadratic degree to degree


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
    _fourier_only(proof, "the degree conversion")
    out = ProofWriter(proof.field.p)
    codec = proof.axioms.codec
    idx: List[int] = []
    tsel: List[Optional[Term]] = []  # the chosen term, not its wide mask; None for a zero line
    for _, step, line in _valid_input(_mask_lines(proof)):
        kind = step[0]
        if kind == "mul":
            _, v, i = step
            idx.append(idx[i])
            tsel.append(term_mul(tsel[i], (v,), FOURIER) if line else None)
            continue
        t = codec.term(codec.lead(line)) if line else None
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
        n = self.n
        # counted, not listed: a map read from a file may declare a huge n
        inside = all(1 <= i <= n and 1 <= j <= n and i != j for i, j in self.pairs)
        if len(self.pairs) != n * (n - 1) or not inside:
            raise ValueError("pairing must cover every ordered vertex pair exactly")
        images: Dict[Var, Var] = {}  # each paired copy and its twin to theirs
        for (i, j), pairing in self.pairs.items():
            flat = sorted(l for pr in pairing for l in pr)
            if flat != list(range(1, self.ell + 1)):
                raise ValueError(f"pairing for {(i, j)} is not a perfect pairing of 1..{self.ell}")
            images.update((edge(i, j, l), cluster_var(i, j, p)) for p, pr in enumerate(pairing, start=1) for l in pr)
        images.update([(x.twin, z.twin) for x, z in images.items()])
        object.__setattr__(self, "_images", images)

    def pair_index(self, i: int, j: int, l: int) -> int:
        return self.image(Var("x", (i, j, l))).index[2]

    def image(self, v: Var) -> Var:
        z = self._images.get(v)
        if z is None and v.kind == "z":
            raise ValueError(f"{format_var(v)} is already a cluster variable")
        if z is None and v.kind == "x":
            i, j, l = v.index
            if (i, j) not in self.pairs:
                raise ValueError(f"edge ({i},{j}) is outside the cluster map over n={self.n} vertices")
            raise ValueError(f"gadget index {l} not paired for edge ({i},{j})")
        return z or v


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
            pairs[(i, j)] = tuple(tuple(sorted(idxs[2 * p:2 * p + 2])) for p in range(ell // 2))
    return ClusterMap(n, ell, pairs)


def cluster_term(t: Term, cmap: ClusterMap) -> Term:
    """The images of a term's variables folded by parity: a pair's two copies cancel."""
    odd: Set[Var] = set()
    for w in map(cmap.image, t):
        odd ^= {w}
    return tuple(sorted(odd))


def cluster_poly(p: Poly, cmap: ClusterMap) -> Poly:
    _fourier_only(p, "clustering")
    terms: Dict[Term, int] = {}
    for t, c in p.terms.items():
        key = cluster_term(t, cmap)
        terms[key] = terms.get(key, 0) + c
    return Poly(p.field, p.basis, terms)


def cluster_axioms(ax: AxiomSystem, cmap: ClusterMap) -> AxiomSystem:
    _fourier_only(ax, "clustering")
    polys = tuple(cluster_poly(p, cmap) for p in ax.polys)
    universe = tuple(sorted({cmap.image(v) for v in ax.universe}))
    return AxiomSystem(ax.field, ax.basis, polys, universe, dict(ax.groups), n=ax.n, ell=ax.ell)


def cluster_proof(proof: PCProof, cmap: ClusterMap) -> PCProof:
    ax = cluster_axioms(proof.axioms, cmap)
    out = ProofWriter(proof.field.p)
    for _, step, _ in _valid_input(_walk(proof, lambda *_: None)):
        out.emit((step[0], cmap.image(step[1]), *step[2:]) if _PC[step[0]][2] is _VAR else step)
    return PCProof(ax, tuple(out.steps))


def cluster(target, cmap: ClusterMap):
    """Substitute paired gadget copies by their cluster variable in a
    term, polynomial, axiom system, or proof.  The substitution respects
    every derivation rule, so proofs stay checker-valid line for line."""
    if isinstance(target, tuple) and not isinstance(target, Var):
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
    if term_degree < 0:
        raise ValueError(f"term_degree must be >= 0, got {term_degree}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    m = term_degree
    rng = random.Random(seed)
    idxs = list(range(1, ell + 1))
    hits = 0
    for _ in range(trials):
        rng.shuffle(idxs)
        hits += all((idxs[2 * p] <= m) + (idxs[2 * p + 1] <= m) == 1 for p in range(ell // 2))
    return hits / trials


# ---------------------------------------------------------------------------
# file formats


def write_restriction(rho: Restriction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("restriction v1\n")
        for v, val in rho.items():
            fh.write(f"set {format_var(v)} = {'true' if val else 'false'}\n")


def read_restriction(path) -> Restriction:
    with LineReader(path, comments=True) as lines:
        lines.header("restriction", "restriction v1")
        pairs: List[Tuple[Var, bool]] = []
        for line in lines:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "set" or parts[2] != "=" or parts[3] not in ("true", "false"):
                raise ValueError(f"bad restriction line: {line!r}")
            pairs.append((parse_var(parts[1]), parts[3] == "true"))
        return Restriction(pairs)


def write_clustermap(cmap: ClusterMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"clustermap v1 n={cmap.n} ell={cmap.ell}\n")
        for (i, j) in sorted(cmap.pairs):
            for p, (l1, l2) in enumerate(cmap.pairs[(i, j)], start=1):
                fh.write(f"pair {i} {j} {l1} {l2} -> {p}\n")


def read_clustermap(path) -> ClusterMap:
    with LineReader(path, comments=True) as lines:
        head = lines.header("cluster map", "clustermap v1", ("n", "ell"))
        pairs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for line in lines:
            parts = line.split()
            if len(parts) != 7 or parts[0] != "pair" or parts[5] != "->":
                raise ValueError(f"bad cluster map line: {line!r}")
            i, j, l1, l2, p = (int(parts[k]) for k in (1, 2, 3, 4, 6))
            bucket = pairs.setdefault((i, j), [])
            if p != len(bucket) + 1:
                raise ValueError(f"pair positions for edge ({i},{j}) must arrive in order")
            bucket.append((min(l1, l2), max(l1, l2)))
        return ClusterMap(int(head["n"]), int(head["ell"]), {k: tuple(v) for k, v in pairs.items()})


# ---------------------------------------------------------------------------
# resolution simulation


def res_to_pcr(rproof: ResolutionProof, field=None) -> PCProof:
    """Simulate a resolution proof in the Boolean polynomial system.

    Each clause becomes its one-monomial translation.  A resolution step
    multiplies each parent's monomial up to (pivot-literal * resolvent
    monomial), adds them, and cancels the pivot pair against the twin
    axiom multiplied by the resolvent monomial.
    """
    axioms = cnf_to_axioms(rproof.cnf, BOOLEAN, **({} if field is None else {"field": field}))
    out = ProofWriter(axioms.field.p)
    rule, codec = _clause_rule(rproof.cnf), rproof.cnf.codec
    even = codec.even  # the base bits

    def twins(m: int) -> Term:  # the monomial of a clause mask: each literal's twin, in term order
        return codec.term((m & even) << 1 | m >> 1 & even)

    def derive(kind: str, at, step: Step, parents: tuple) -> Tuple[int, int]:
        # a line is the clause's mask and the line of its translation
        if kind == "in":
            return rule(kind, at, step, ()), out.emit(("ax", at))
        clause = rule(kind, at, step, (parents[0][0], parents[1][0]))
        # the parent with the positive pivot literal comes first and carries the twin factor
        i = codec.pos[step[3]] & ~1
        ordered = parents if parents[0][0] >> i & 1 else parents[::-1]
        le = out.lin([(1, q, twins(clause & ~m)) for m, q in ordered])
        tw = out.emit(("tw", codec.var_of[i]))
        return clause, out.lin([(1, le, ()), (axioms.field.p - 1, tw, twins(clause))])

    for _ in _valid_input(_walk(rproof, derive)):
        pass
    return PCProof(axioms, tuple(out.steps))
