"""CNF families over ordering variables, OR-lifting, clause-to-polynomial
translation in both encodings, and a brute-force satisfiability oracle.

The families: a linear-ordering principle stating some vertex has a
predecessor under a total order (wide vertex clauses), its binary-pointer
variant that replaces each vertex clause with pointer clauses of width
O(log n), and the OR-lift that replaces each edge variable by a
disjunction of fresh copies.

Clause convention: a clause is a frozenset of variables where a negated
variable (twin) stands for the negative literal.  Edge variable x(i,j)
asserts i precedes j; pointer bit y(j,a) is the a-th bit (1-based,
least significant first) of the binary code of j's chosen predecessor,
where vertex i is encoded as i-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    BASES,
    BOOLEAN,
    FOURIER,
    DEFAULT_FIELD,
    BasisMismatch,
    Field,
    Poly,
    ScaleLimitExceeded,
    Term,
    Var,
    edge,
    format_poly,
    format_var,
    make_term,
    parse_header,
    parse_poly,
    parse_var,
    plain,
    pointer,
)

Clause = FrozenSet[Var]

ORACLE_VAR_LIMIT = 25
_CHUNK_BITS = 18


def clause_of(*literals: Var) -> Clause:
    return frozenset(literals)


def _check_clause(c: Clause):
    for v in c:
        if v.twin in c:
            raise ValueError(f"clause holds both polarities of {format_var(v.base)}")


@dataclass(frozen=True)
class CNF:
    """A clause list with a declared variable universe and group labels.

    ``groups`` maps a label (e.g. "BV(2)", "T") to the indices of its
    clauses; together the groups partition the clause list whenever any
    group is declared.  ``n`` and ``ell`` carry the ambient family
    parameters when the formula comes from a generator.
    """

    clauses: Tuple[Clause, ...]
    universe: Tuple[Var, ...]
    groups: Dict[str, Tuple[int, ...]] = dc_field(default_factory=dict)
    n: Optional[int] = None
    ell: Optional[int] = None

    def __post_init__(self):
        uni = set(self.universe)
        for c in self.clauses:
            _check_clause(c)
            for v in c:
                if v.base not in uni:
                    raise ValueError(f"clause variable {v} outside universe")
        if self.groups:
            seen: set = set()
            for idxs in self.groups.values():
                for i in idxs:
                    if i in seen or not (0 <= i < len(self.clauses)):
                        raise ValueError("groups must partition the clause list")
                    seen.add(i)
            if len(seen) != len(self.clauses):
                raise ValueError("groups must partition the clause list")

    def __len__(self) -> int:
        return len(self.clauses)

    @property
    def width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    def group_clauses(self, label: str) -> List[Clause]:
        return [self.clauses[i] for i in self.groups[label]]


@dataclass(frozen=True)
class AxiomSystem:
    """Named polynomial axioms in one encoding, with group labels.

    Square and twin axioms per variable are implicitly available to any
    proof over the system and are not listed.
    """

    field: Field
    basis: str
    polys: Tuple[Poly, ...]
    universe: Tuple[Var, ...]
    groups: Dict[str, Tuple[int, ...]] = dc_field(default_factory=dict)
    n: Optional[int] = None
    ell: Optional[int] = None

    def __post_init__(self):
        uni = set(self.universe)
        for p in self.polys:
            if p.basis != self.basis:
                raise BasisMismatch("axiom basis differs from system basis")
            if p.field.p != self.field.p:
                raise ValueError("axiom field differs from system field")
            for v in p.variables():
                if v.base not in uni:
                    raise ValueError(f"axiom variable {v} outside universe")
        if self.groups:
            seen: set = set()
            for idxs in self.groups.values():
                for i in idxs:
                    if i in seen or not (0 <= i < len(self.polys)):
                        raise ValueError("groups must partition the axiom list")
                    seen.add(i)

    def __len__(self) -> int:
        return len(self.polys)

    def group_polys(self, label: str) -> List[Poly]:
        return [self.polys[i] for i in self.groups[label]]


# ---------------------------------------------------------------------------
# formula families


def _ordering_clauses(n: int) -> List[Clause]:
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if len({i, j, k}) == 3:
                    out.append(clause_of(edge(i, j).twin, edge(j, k).twin, edge(i, k)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(clause_of(edge(i, j).twin, edge(j, i).twin))
    return out


def _edge_universe(n: int) -> List[Var]:
    return [edge(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def gen_lop(n: int) -> CNF:
    """Every vertex has a predecessor, but the order is transitive and
    antisymmetric: unsatisfiable for every n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    clauses: List[Clause] = []
    groups: Dict[str, Tuple[int, ...]] = {}
    for j in range(1, n + 1):
        clauses.append(clause_of(*(edge(i, j) for i in range(1, n + 1) if i != j)))
        groups[f"BV({j})"] = (j - 1,)
    ordering = _ordering_clauses(n)
    groups["T"] = tuple(range(len(clauses), len(clauses) + len(ordering)))
    clauses.extend(ordering)
    return CNF(tuple(clauses), tuple(sorted(_edge_universe(n))), groups, n=n)


def pointer_bits(n: int) -> int:
    return max(1, math.ceil(math.log2(n)))


def code_of(i: int) -> int:
    return i - 1


def pointer_neq_clause(j: int, v: int, b: int) -> List[Var]:
    """Literals asserting the pointer of j differs from code v: bit a of
    v set contributes the negated bit variable, clear contributes the
    positive one."""
    lits = []
    for a in range(1, b + 1):
        bit = (v >> (a - 1)) & 1
        lits.append(pointer(j, a).twin if bit else pointer(j, a))
    return lits


def gen_bop(n: int) -> CNF:
    """Pointer form of the predecessor principle: y_j names a predecessor
    of j in binary, keeping every clause at width <= ceil(log2 n) + 1.
    Codes that name j itself or fall outside 1..n are prohibited."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    b = pointer_bits(n)
    clauses: List[Clause] = []
    groups: Dict[str, Tuple[int, ...]] = {}
    for j in range(1, n + 1):
        start = len(clauses)
        for v in range(2**b):
            i = v + 1
            lits = pointer_neq_clause(j, v, b)
            if i <= n and i != j:
                lits.append(edge(i, j))
            clauses.append(clause_of(*lits))
        groups[f"BV({j})"] = tuple(range(start, len(clauses)))
    ordering = _ordering_clauses(n)
    groups["T"] = tuple(range(len(clauses), len(clauses) + len(ordering)))
    clauses.extend(ordering)
    universe = _edge_universe(n) + [pointer(j, a) for j in range(1, n + 1) for a in range(1, b + 1)]
    return CNF(tuple(clauses), tuple(sorted(universe)), groups, n=n)


def or_lift(cnf: CNF, ell: int, lift_set: Iterable[Var], diagonal: bool = False) -> CNF:
    """Replace each variable in lift_set by an OR of ell fresh copies.

    A positive occurrence becomes the disjunction of the copies inside
    the same clause.  A clause with k negative occurrences expands into
    ell^k clauses, one per index choice for each negative literal.  With
    ``diagonal`` the negative literals of a clause share a single index
    (ell clauses) -- that reading of the lift is satisfiable already at
    n=2, ell=2 and exists only for comparison.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    lifted = set(lift_set)
    for v in lifted:
        if v.negated or v.kind != "x" or v.index[2] != 0:
            raise ValueError(f"can only lift base edge variables, got {v}")

    def copies(v: Var) -> List[Var]:
        i, j, _ = v.index
        return [edge(i, j, l) for l in range(1, ell + 1)]

    clauses: List[Clause] = []
    group_of: List[Optional[str]] = []
    label_by_clause = {}
    for label, idxs in cnf.groups.items():
        for i in idxs:
            label_by_clause[i] = label
    for ci, c in enumerate(cnf.clauses):
        keep = [v for v in c if v.base not in lifted]
        pos = sorted(v for v in c if not v.negated and v in lifted)
        neg = sorted(v.base for v in c if v.negated and v.base in lifted)
        pos_lits = [w for v in pos for w in copies(v)]
        if diagonal and neg:
            choicess = [[l] * len(neg) for l in range(1, ell + 1)]
        else:
            choicess = [[]]
            for _ in neg:
                choicess = [ch + [l] for ch in choicess for l in range(1, ell + 1)]
        for choices in choicess:
            neg_lits = [copies(v)[l - 1].twin for v, l in zip(neg, choices)]
            clauses.append(frozenset(keep + pos_lits + neg_lits))
            group_of.append(label_by_clause.get(ci))
    groups: Dict[str, Tuple[int, ...]] = {}
    if cnf.groups:
        for label in cnf.groups:
            groups[label] = tuple(i for i, g in enumerate(group_of) if g == label)
    universe = [v for v in cnf.universe if v not in lifted]
    for v in sorted(lifted):
        universe.extend(copies(v))
    return CNF(tuple(clauses), tuple(sorted(universe)), groups, n=cnf.n, ell=ell)


def gen_bop_lifted(n: int, ell: int, diagonal: bool = False) -> CNF:
    base = gen_bop(n)
    lift = [v for v in base.universe if v.kind == "x"]
    return or_lift(base, ell, lift, diagonal=diagonal)


def gen_cycle_tseitin(n: int, field: Field = DEFAULT_FIELD) -> AxiomSystem:
    """Odd charge on a cycle, directly as {+1,-1} polynomial axioms:
    x_k x_{k+1} = 1 around the cycle except one reversed sign."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    vs = [plain(f"x{k}") for k in range(1, n + 1)]
    polys = []
    for k in range(n - 1):
        polys.append(Poly(field, FOURIER, {make_term([vs[k], vs[k + 1]]): 1, (): field.p - 1}))
    polys.append(Poly(field, FOURIER, {make_term([vs[-1], vs[0]]): 1, (): 1}))
    return AxiomSystem(field, FOURIER, tuple(polys), tuple(sorted(vs)), n=n)


# ---------------------------------------------------------------------------
# clause translation


def clause_to_poly(clause: Clause, basis: str, field: Field = DEFAULT_FIELD, twins: bool = True) -> Poly:
    """The polynomial that vanishes exactly on assignments satisfying the
    clause.

    Boolean with twins: one monomial, the product of each literal's twin.
    Boolean without twins: same product with each negated factor expanded
    as (1 - x).  Fourier: product of (1 + enc(literal)) with enc(x) = x
    and enc(~x) = -x; twin variables never appear.  No scalar
    normalization is applied.
    """
    lits = sorted(clause)
    if basis == BOOLEAN:
        if twins:
            return Poly.from_term(field, basis, make_term(v.twin for v in lits))
        out = Poly.constant(field, basis, 1)
        for v in lits:
            if v.negated:
                out = out.mul_var(v.base)
            else:
                out = out.sub(out.mul_var(v))
        return out
    if basis == FOURIER:
        out = Poly.constant(field, basis, 1)
        for v in lits:
            enc = Poly.variable(field, basis, v.base)
            if v.negated:
                enc = enc.neg()
            out = out.mul(Poly.constant(field, basis, 1).add(enc))
        return out
    raise BasisMismatch(f"unknown basis {basis!r}")


def cnf_to_axioms(cnf: CNF, basis: str, field: Field = DEFAULT_FIELD, twins: bool = True) -> AxiomSystem:
    polys = tuple(clause_to_poly(c, basis, field, twins=twins) for c in cnf.clauses)
    return AxiomSystem(field, basis, polys, cnf.universe, dict(cnf.groups), n=cnf.n, ell=cnf.ell)


# ---------------------------------------------------------------------------
# brute-force oracle

_PARITY16 = None


def _parity16():
    global _PARITY16
    if _PARITY16 is None:
        x = np.arange(1 << 16, dtype=np.uint32)
        x ^= x >> 8
        x ^= x >> 4
        x ^= x >> 2
        x ^= x >> 1
        _PARITY16 = (x & 1).astype(np.uint8)
    return _PARITY16


def _parity(arr: np.ndarray) -> np.ndarray:
    t = _parity16()
    return t[arr & 0xFFFF] ^ t[(arr >> np.uint32(16)) & 0xFFFF]


def _universe_of(polys: Sequence[Poly]) -> List[Var]:
    out = set()
    for p in polys:
        out.update(v.base for v in p.variables())
    return sorted(out)


def _term_masks(t: Term, pos_of: Dict[Var, int]) -> Tuple[int, int]:
    pos = neg = 0
    for v in t:
        bit = 1 << pos_of[v.base]
        if v.negated:
            neg |= bit
        else:
            pos |= bit
    return pos, neg


def _eval_poly_chunk(poly: Poly, ks: np.ndarray, pos_of: Dict[Var, int]) -> np.ndarray:
    """Values of the polynomial at assignment indices ks (bit i of k is
    the truth of variable i), reduced mod p."""
    p = poly.field.p
    total = np.zeros(len(ks), dtype=np.int64)
    full = np.uint32((1 << len(pos_of)) - 1) if pos_of else np.uint32(0)
    for t, c in poly.terms.items():
        pos, neg = _term_masks(t, pos_of)
        if poly.basis == BOOLEAN:
            hit = np.ones(len(ks), dtype=bool)
            if pos:
                hit &= (ks & np.uint32(pos)) == np.uint32(pos)
            if neg:
                hit &= (ks & np.uint32(neg)) == 0
            total[hit] += c
        else:
            mask = (ks & np.uint32(pos)) | ((ks ^ full) & np.uint32(neg))
            sign = 1 - 2 * _parity(mask).astype(np.int64)
            total += c * sign
        total %= p
    return total % p


def _iter_chunks(nvars: int):
    total = 1 << nvars
    step = 1 << min(_CHUNK_BITS, nvars)
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total), dtype=np.uint32)


def sat_oracle(problem) -> Optional[Dict[Var, bool]]:
    """Exhaustively search for a satisfying assignment.

    Accepts a CNF (clause semantics) or an AxiomSystem (all polynomials
    must vanish under the encoding).  Returns the first witness in
    lexicographic assignment order, or None when unsatisfiable.
    """
    if isinstance(problem, CNF):
        universe = sorted(v for v in problem.universe)
        if len(universe) > ORACLE_VAR_LIMIT:
            raise ScaleLimitExceeded(f"{len(universe)} variables exceeds {ORACLE_VAR_LIMIT}")
        pos_of = {v: i for i, v in enumerate(universe)}
        masks = []
        for c in problem.clauses:
            pos = neg = 0
            for v in c:
                bit = 1 << pos_of[v.base]
                if v.negated:
                    neg |= bit
                else:
                    pos |= bit
            masks.append((np.uint32(pos), np.uint32(neg)))
        for ks in _iter_chunks(len(universe)):
            bad = np.zeros(len(ks), dtype=bool)
            for pos, neg in masks:
                bad |= ((ks & pos) == 0) & ((ks & neg) == neg)
            good = np.nonzero(~bad)[0]
            if len(good):
                k = int(ks[good[0]])
                return {v: bool((k >> i) & 1) for v, i in pos_of.items()}
        return None
    if isinstance(problem, AxiomSystem):
        universe = sorted(problem.universe)
        if len(universe) > ORACLE_VAR_LIMIT:
            raise ScaleLimitExceeded(f"{len(universe)} variables exceeds {ORACLE_VAR_LIMIT}")
        pos_of = {v: i for i, v in enumerate(universe)}
        for ks in _iter_chunks(len(universe)):
            bad = np.zeros(len(ks), dtype=bool)
            for poly in problem.polys:
                bad |= _eval_poly_chunk(poly, ks, pos_of) != 0
            good = np.nonzero(~bad)[0]
            if len(good):
                k = int(ks[good[0]])
                return {v: bool((k >> i) & 1) for v, i in pos_of.items()}
        return None
    raise TypeError(f"expected CNF or AxiomSystem, got {type(problem).__name__}")


def semantic_implies(premises: Sequence[Poly], g: Poly) -> bool:
    """True when g vanishes at every encoded assignment on which all the
    premises vanish."""
    polys = list(premises) + [g]
    basis = g.basis
    for q in polys:
        if q.basis != basis:
            raise BasisMismatch("mixed bases in semantic implication")
        if q.field.p != g.field.p:
            raise ValueError("mixed fields in semantic implication")
    universe = _universe_of(polys)
    if len(universe) > ORACLE_VAR_LIMIT:
        raise ScaleLimitExceeded(f"{len(universe)} variables exceeds {ORACLE_VAR_LIMIT}")
    pos_of = {v: i for i, v in enumerate(universe)}
    for ks in _iter_chunks(len(universe)):
        alive = np.ones(len(ks), dtype=bool)
        for f in premises:
            alive &= _eval_poly_chunk(f, ks, pos_of) == 0
            if not alive.any():
                break
        if alive.any():
            if (_eval_poly_chunk(g, ks, pos_of)[alive] != 0).any():
                return False
    return True


# ---------------------------------------------------------------------------
# file formats


def write_dimacs(cnf: CNF, path) -> None:
    """DIMACS clause file plus a `<path>.names` sidecar mapping DIMACS
    indices to variable names; groups and family parameters ride along
    as comment lines."""
    pos_of = {v: i + 1 for i, v in enumerate(cnf.universe)}
    with open(str(path), "w") as fh:
        if cnf.n is not None or cnf.ell is not None:
            parts = []
            if cnf.n is not None:
                parts.append(f"n={cnf.n}")
            if cnf.ell is not None:
                parts.append(f"ell={cnf.ell}")
            fh.write("c params " + " ".join(parts) + "\n")
        for label in cnf.groups:
            idxs = " ".join(str(i + 1) for i in cnf.groups[label])
            fh.write(f"c group {label} : {idxs}\n")
        fh.write(f"p cnf {len(cnf.universe)} {len(cnf.clauses)}\n")
        for c in cnf.clauses:
            lits = sorted((-pos_of[v.base] if v.negated else pos_of[v]) for v in c)
            fh.write(" ".join(str(x) for x in lits) + " 0\n")
    with open(str(path) + ".names", "w") as fh:
        for v, i in pos_of.items():
            fh.write(f"var {i} = {format_var(v)}\n")


def read_dimacs(path) -> CNF:
    names: Dict[int, Var] = {}
    with open(str(path) + ".names") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            head, expr = line.split("=", 1)
            idx = int(head.split()[1])
            names[idx] = parse_var(expr.strip())
    clauses: List[Clause] = []
    groups: Dict[str, Tuple[int, ...]] = {}
    n = ell = None
    nvars = nclauses = None
    with open(str(path)) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("c params"):
                for kv in line.split()[2:]:
                    k, val = kv.split("=")
                    if k == "n":
                        n = int(val)
                    elif k == "ell":
                        ell = int(val)
                continue
            if line.startswith("c group"):
                head, idxs = line[len("c group") :].split(":")
                groups[head.strip()] = tuple(int(x) - 1 for x in idxs.split())
                continue
            if line.startswith("c"):
                continue
            if line.startswith("p cnf"):
                _, _, a, b = line.split()
                nvars, nclauses = int(a), int(b)
                continue
            lits = [int(x) for x in line.split()]
            if lits[-1] != 0:
                raise ValueError(f"clause line missing terminator: {line!r}")
            clause = frozenset(names[abs(x)].twin if x < 0 else names[x] for x in lits[:-1])
            clauses.append(clause)
    if nvars is None or len(clauses) != nclauses or len(names) != nvars:
        raise ValueError("malformed clause file")
    universe = tuple(names[i] for i in sorted(names))
    return CNF(tuple(clauses), universe, groups, n=n, ell=ell)


def write_axioms(ax: AxiomSystem, path) -> None:
    with open(str(path), "w") as fh:
        fh.write(f"field={ax.field.p} basis={ax.basis}\n")
        if ax.n is not None or ax.ell is not None:
            parts = []
            if ax.n is not None:
                parts.append(f"n={ax.n}")
            if ax.ell is not None:
                parts.append(f"ell={ax.ell}")
            fh.write("params " + " ".join(parts) + "\n")
        # universe variables no axiom mentions would otherwise be lost
        inferred = {v.base for p in ax.polys for v in p.variables()}
        extra = [v for v in ax.universe if v not in inferred]
        if extra:
            fh.write("universe " + " ".join(format_var(v) for v in extra) + "\n")
        for label in ax.groups:
            idxs = " ".join(str(i + 1) for i in ax.groups[label])
            fh.write(f"group {label} : {idxs}\n")
        for p in ax.polys:
            fh.write(format_poly(p) + "\n")


def read_axioms(path) -> AxiomSystem:
    with open(str(path)) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    field, basis = parse_header(lines[0])
    groups: Dict[str, Tuple[int, ...]] = {}
    n = ell = None
    polys: List[Poly] = []
    extras: List[Var] = []
    for line in lines[1:]:
        if line.startswith("params "):
            for kv in line.split()[1:]:
                k, val = kv.split("=")
                if k == "n":
                    n = int(val)
                elif k == "ell":
                    ell = int(val)
        elif line.startswith("universe "):
            extras.extend(parse_var(tok).base for tok in line.split()[1:])
        elif line.startswith("group "):
            head, idxs = line[len("group ") :].split(":")
            groups[head.strip()] = tuple(int(x) - 1 for x in idxs.split())
        else:
            polys.append(parse_poly(line, field, basis))
    universe = sorted({v.base for p in polys for v in p.variables()} | set(extras))
    return AxiomSystem(field, basis, tuple(polys), tuple(universe), groups, n=n, ell=ell)
