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

A universe lists each base variable once, never a twin.  A CNF checks
each clause as a mask over ``CNF.codec``: a literal outside the universe
has no bit, and a clause holding both polarities of a base has both of
its bits.  The generators, the {0,1} translation and the file formats
look literals up in tables built once per formula, not per literal.
"""

from __future__ import annotations

__all__ = [
    "CNF",
    "AxiomSystem",
    "clause_of",
    "clause_to_poly",
    "cnf_to_axioms",
    "code_of",
    "gen_bop",
    "gen_bop_lifted",
    "gen_cycle_tseitin",
    "gen_lop",
    "or_lift",
    "pointer_bits",
    "read_axioms",
    "read_dimacs",
    "sat_oracle",
    "semantic_implies",
    "write_axioms",
    "write_dimacs",
]

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import product
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    BASES,
    BOOLEAN,
    FOURIER,
    DEFAULT_FIELD,
    BasisMismatch,
    Field,
    LineReader,
    Poly,
    ScaleLimitExceeded,
    Term,
    TermCodec,
    Var,
    edge,
    format_poly,
    format_var,
    make_term,
    parse_fields,
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


def _check_universe(system) -> None:
    """A universe lists each base once, so its codec holds two bits per
    entry; otherwise name the first twin or repeat."""
    if len(system.codec.var_of) != 2 * len(system.universe):
        seen = set()
        for v in system.universe:
            if v.negated or v in seen:
                raise ValueError(f"universe lists {format_var(v)} " + ("as a twin" if v.negated else "twice"))
            seen.add(v)


def _check_groups(groups: Dict[str, Tuple[int, ...]], count: int, what: str) -> None:
    """Declared groups must partition the ``count`` items of the list."""
    if groups and sorted(i for idxs in groups.values() for i in idxs) != list(range(count)):
        raise ValueError(f"groups must partition the {what} list")


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
        _check_universe(self)
        pos, even = self.codec.pos, self.codec.even
        for c in self.clauses:
            # a literal outside the universe has no bit; both polarities of a base set both its bits
            if not pos.keys() >= c or (m := sum([1 << pos[v] for v in c])) & m >> 1 & even:
                _check_clause(c)
                for v in c:
                    if v not in pos:
                        raise ValueError(f"clause variable {v} outside universe")
        _check_groups(self.groups, len(self.clauses), "clause")

    def __len__(self) -> int:
        return len(self.clauses)

    @property
    def width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    @cached_property
    def codec(self) -> TermCodec:
        """Masks over every variable a proof step may name."""
        return TermCodec(v for v in self.universe if not v.negated)


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
        _check_universe(self)
        pos = self.codec.pos
        for p in self.polys:
            if p.basis != self.basis:
                raise BasisMismatch("axiom basis differs from system basis")
            if p.field.p != self.field.p:
                raise ValueError("axiom field differs from system field")
            if not pos.keys() >= p.variables():
                v = next(v for v in p.variables() if v not in pos)
                raise ValueError(f"axiom variable {v} outside universe")
        _check_groups(self.groups, len(self.polys), "axiom")

    def __len__(self) -> int:
        return len(self.polys)

    codec = CNF.codec  # one definition: both systems name variables of a universe


# ---------------------------------------------------------------------------
# formula families


def _ordering_clauses(n: int) -> List[Clause]:
    x = {(i, j): edge(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    nx = {e: v.twin for e, v in x.items()}
    out = [clause_of(nx[i, j], nx[j, k], x[i, k]) for i, j in x for k in range(1, n + 1) if k != i and k != j]
    out.extend(clause_of(nx[i, j], nx[j, i]) for i, j in x if i < j)
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


def pointer_assignment(j: int, v: int, b: int) -> Dict[Var, bool]:
    """The values of j's pointer bits y(j,1..b) that spell code v."""
    return {pointer(j, a): bool((v >> (a - 1)) & 1) for a in range(1, b + 1)}


def pointer_neq_clause(j: int, v: int, b: int) -> List[Var]:
    """Literals asserting the pointer of j differs from code v: bit a of
    v set contributes the negated bit variable, clear contributes the
    positive one."""
    return [y.twin if bit else y for y, bit in pointer_assignment(j, v, b).items()]


def gen_bop(n: int) -> CNF:
    """Pointer form of the predecessor principle: y_j names a predecessor
    of j in binary, keeping every clause at width <= ceil(log2 n) + 1.
    Codes that name j itself or fall outside 1..n are prohibited.  Group
    BV(j) holds the clause denying code v at position v; the OR-lift keeps
    that order, and the pointer trees of ``constructions`` rely on it."""
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
    n=2, ell=2 and exists only for comparison.  Each new clause is filed
    under its source clause's group as it is appended.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    lifted = set(lift_set)
    for v in lifted:
        if v.negated or v.kind != "x" or v.index[2] != 0:
            raise ValueError(f"can only lift base edge variables, got {v}")
    # the copies of each lifted base, and under each twin in the formula the copies' twins
    up = {v: [edge(*v.index[:2], l) for l in range(1, ell + 1)] for v in lifted}
    var_of, at = cnf.codec.var_of, cnf.codec.pos
    down = {var_of[at[v] + 1]: [w.twin for w in ws] for v, ws in up.items() if v in at}

    clauses: List[Clause] = []
    label_of = {i: label for label, idxs in cnf.groups.items() for i in idxs}
    filed: Dict[str, List[int]] = {label: [] for label in cnf.groups}
    for ci, c in enumerate(cnf.clauses):
        keep = [v for v in c if v not in up and v not in down]
        pos_lits = [w for v in sorted(v for v in c if v in up) for w in up[v]]
        neg = [down[v] for v in sorted(v for v in c if v in down)]
        if diagonal and neg:
            choicess = [[l] * len(neg) for l in range(1, ell + 1)]
        else:
            choicess = product(range(1, ell + 1), repeat=len(neg))
        for choices in choicess:
            neg_lits = [ws[l - 1] for ws, l in zip(neg, choices)]
            if ci in label_of:
                filed[label_of[ci]].append(len(clauses))
            clauses.append(frozenset(keep + pos_lits + neg_lits))
    universe = [v for v in cnf.universe if v not in lifted]
    for v in sorted(lifted):
        universe.extend(up[v])
    groups = {label: tuple(idxs) for label, idxs in filed.items()}
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
    Otherwise one factor per literal, expanded over its subsets in one
    pass: Boolean without twins takes x for ~x and (1 - x) for x; Fourier
    takes (1 + x) for x and (1 - x) for ~x, and no twin appears.  Both
    polarities of a base give zero.  No scalar normalization is applied.
    """
    lits = sorted(clause)
    if basis == BOOLEAN and twins:
        return Poly.from_term(field, basis, make_term(v.twin for v in lits))
    if len({v.base for v in lits}) < len(lits):  # a factor (1 - x)x or (1 + x)(1 - x)
        return Poly.zero(field, basis)  # Poly refuses an unknown basis
    # sorted literals over distinct bases: appending keeps each term sorted
    p = field.p
    terms: Dict[Term, int] = {(): 1}
    for v in lits:
        x = v.base
        if basis == FOURIER:
            s = p - 1 if v.negated else 1
            terms = {k: d for t, c in terms.items() for k, d in ((t, c), (t + (x,), c * s % p))}
        elif v.negated:
            terms = {t + (x,): c for t, c in terms.items()}
        else:
            terms.update([(t + (x,), p - c) for t, c in terms.items()])
    return Poly(field, basis, terms)


def cnf_to_axioms(cnf: CNF, basis: str, field: Field = DEFAULT_FIELD, twins: bool = True) -> AxiomSystem:
    if basis == BOOLEAN and twins:
        # clause_to_poly's product of each literal's twin, with the twins from the codec
        var_of = cnf.codec.var_of
        twin = {v: var_of[i ^ 1] for v, i in cnf.codec.pos.items()}
        polys = tuple(Poly.from_term(field, basis, tuple(sorted([twin[v] for v in c]))) for c in cnf.clauses)
    else:
        polys = tuple(clause_to_poly(c, basis, field, twins=twins) for c in cnf.clauses)
    return AxiomSystem(field, basis, polys, cnf.universe, dict(cnf.groups), n=cnf.n, ell=cnf.ell)


# ---------------------------------------------------------------------------
# brute-force evaluation over the Boolean cube

# Mod-p arithmetic on the numpy paths runs in int64.  With p < 2^31 the
# product of two residues stays below 2^62: that bounds the row updates
# of the points span engine.  Each of that engine's matrix products has
# one factor of monomial values 0, +1 or -1, so its sums of residues over
# at most SPAN_POINTS_LIMIT = 2^10 common zeros stay below 2^41; the sums
# of coefficients times monomial values in Cube.zero_test stay below 2^63
# for any polynomial of fewer than 2^32 terms.
NUMPY_PRIME_LIMIT = 2**31


class Cube:
    """Every assignment to a set of variables, one bit per variable.

    The cube's variables are the bases of the given ones in canonical
    order; bit i of a point k is the truth of the i-th.  A term is a pair
    of masks ``(pos, neg)``: the bits of its variables and of its twins.
    Points come as uint32 arrays in ascending order, so the first point
    found is the first assignment in lexicographic order.  Polynomials
    evaluate in ``basis`` over ``field``.
    """

    def __init__(self, variables: Iterable[Var], field: Field = DEFAULT_FIELD, basis: str = BOOLEAN):
        self.universe: Tuple[Var, ...] = tuple(sorted({v.base for v in variables}))
        if len(self.universe) > ORACLE_VAR_LIMIT:
            raise ScaleLimitExceeded(f"{len(self.universe)} variables exceeds {ORACLE_VAR_LIMIT}")
        if field.p >= NUMPY_PRIME_LIMIT:
            raise ValueError(f"field order {field.p} is too large for exhaustive evaluation: need p < 2^31")
        self.field = field
        self.basis = basis
        self._bit = {v: 1 << i for i, v in enumerate(self.universe)}

    def masks(self, t: Term) -> Tuple[int, int]:
        pos = neg = 0
        for v in t:
            if v.negated:
                neg |= self._bit[v.base]
            else:
                pos |= self._bit[v]
        return pos, neg

    def assignment(self, k: int) -> Dict[Var, bool]:
        return {v: bool((k >> i) & 1) for i, v in enumerate(self.universe)}

    def chunks(self) -> Iterator[np.ndarray]:
        import numpy as np

        total = 1 << len(self.universe)
        step = 1 << min(_CHUNK_BITS, len(self.universe))
        for start in range(0, total, step):
            yield np.arange(start, min(start + step, total), dtype=np.uint32)

    def monomials(self, ks: np.ndarray, pos, neg) -> np.ndarray:
        """Values of the monomials with masks (pos, neg) at the points ks,
        broadcast elementwise: 0 or 1 as bool in the {0,1} basis, +1 or -1
        as int64 in the {+1,-1} basis."""
        import numpy as np

        if self.basis == BOOLEAN:
            return ((ks & pos) == pos) & ((ks & neg) == 0)
        return 1 - 2 * (np.bitwise_count((ks & pos) | (~ks & neg)) & 1).astype(np.int64)

    def zero_test(self, poly: Poly) -> Callable[[np.ndarray], np.ndarray]:
        """The function of points that says where the polynomial vanishes."""
        terms = [(self.masks(t), c) for t, c in poly.terms.items()]
        if len(terms) == 1 and self.basis == BOOLEAN:
            # a nonzero multiple of a 0/1 monomial vanishes where the monomial
            # does: sat_oracle's clause test stays in bool arithmetic
            (pos, neg), _ = terms[0]
            return lambda ks: ~self.monomials(ks, pos, neg)
        p = self.field.p

        def vanishes(ks: np.ndarray) -> np.ndarray:
            import numpy as np

            total = np.zeros(len(ks), dtype=np.int64)
            for (pos, neg), c in terms:
                total += c * self.monomials(ks, pos, neg)
            return total % p == 0

        return vanishes

    def common_zeros(self, polys: Iterable[Poly]) -> Iterator[np.ndarray]:
        """For each chunk of points in order, those at which every
        polynomial vanishes."""
        tests = [self.zero_test(q) for q in polys]
        for ks in self.chunks():
            for vanishes in tests:
                if not len(ks):
                    break
                ks = ks[vanishes(ks)]
            yield ks


def sat_oracle(problem) -> Optional[Dict[Var, bool]]:
    """Exhaustively search for a satisfying assignment.

    Accepts a CNF (clause semantics) or an AxiomSystem (all polynomials
    must vanish under the encoding).  A clause holds exactly where its
    {0,1} translation with twins, one monomial, vanishes.  Returns the
    first witness in lexicographic assignment order, or None when
    unsatisfiable.
    """
    if isinstance(problem, CNF):
        problem = cnf_to_axioms(problem, BOOLEAN)
    if not isinstance(problem, AxiomSystem):
        raise TypeError(f"expected CNF or AxiomSystem, got {type(problem).__name__}")
    cube = Cube(problem.universe, problem.field, problem.basis)
    for ks in cube.common_zeros(problem.polys):
        if len(ks):
            return cube.assignment(int(ks[0]))
    return None


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
    cube = Cube((v for q in polys for v in q.variables()), g.field, basis)
    g_vanishes = cube.zero_test(g)
    return all(g_vanishes(ks).all() for ks in cube.common_zeros(premises))


# ---------------------------------------------------------------------------
# file formats


def _meta_lines(system, extra: Sequence[str] = ()) -> List[str]:
    """The metadata lines of a CNF or axiom system: ``params n=.. ell=..``
    when either is known, then ``extra``, then one ``group <label> :
    <1-based indices>`` line per group.  DIMACS writes them as comments."""
    params = [f"{k}={v}" for k, v in (("n", system.n), ("ell", system.ell)) if v is not None]
    lines = ["params " + " ".join(params)] if params else []
    lines.extend(extra)
    for label, idxs in system.groups.items():
        lines.append(f"group {label} : " + " ".join(str(i + 1) for i in idxs))
    return lines


def _read_meta(line: str, meta: Dict[str, object]) -> bool:
    """Parse one line written by ``_meta_lines`` into ``meta``, keyed by
    the CNF and AxiomSystem field names; False when it is neither kind."""
    if line.startswith("params "):
        for k, val in parse_fields(line.split()[1:], allowed=("n", "ell")).items():
            meta[k] = int(val)
    elif line.startswith("group "):
        head, idxs = line[len("group ") :].split(":")
        meta.setdefault("groups", {})[head.strip()] = tuple(int(x) - 1 for x in idxs.split())
    else:
        return False
    return True


def write_dimacs(cnf: CNF, path) -> None:
    """DIMACS clause file plus a `<path>.names` sidecar mapping DIMACS
    indices to variable names; groups and family parameters ride along
    as comment lines."""
    num = {v: i + 1 for i, v in enumerate(cnf.universe)}
    lit = {w: -i if w.negated else i for v, i in num.items() for w in (v, v.twin)}  # each literal's signed index
    with open(str(path), "w") as fh:
        for line in _meta_lines(cnf):
            fh.write(f"c {line}\n")
        fh.write(f"p cnf {len(cnf.universe)} {len(cnf.clauses)}\n")
        for c in cnf.clauses:
            fh.write(" ".join(map(str, sorted([lit[v] for v in c]))) + " 0\n")
    with open(str(path) + ".names", "w") as fh:
        for v, i in num.items():
            fh.write(f"var {i} = {format_var(v)}\n")


def read_dimacs(path) -> CNF:
    names: Dict[int, Var] = {}
    index_of: Dict[Var, int] = {}
    with LineReader(f"{path}.names") as lines:
        for line in lines:
            head, eq, expr = line.partition("=")
            toks = head.split()
            if not eq or len(toks) != 2 or toks[0] != "var":
                raise ValueError(f"bad line {line!r}")
            i, v = int(toks[1]), parse_var(expr)
            if i < 1:
                raise ValueError(f"variable index {i} is not positive")
            if i in names:
                raise ValueError(f"variable index {i} is named twice")
            if v.base in index_of:
                raise ValueError(f"{format_var(v.base)} is named by indices {index_of[v.base]} and {i}")
            names[i], index_of[v.base] = v, i
    lit = {**names, **{-i: v.twin for i, v in names.items()}}  # each signed index's literal
    clauses: List[Clause] = []
    meta: Dict[str, object] = {}
    counts = None
    with LineReader(path) as lines:
        for line in lines:
            if line.startswith("c"):
                _read_meta(line[2:], meta)
            elif line.startswith("p cnf"):
                _, _, a, b = line.split()
                counts = int(a), int(b)
            else:
                lits = [int(x) for x in line.split()]
                if lits[-1] != 0:
                    raise ValueError(f"clause line missing terminator: {line!r}")
                try:
                    clauses.append(frozenset([lit[x] for x in lits[:-1]]))
                except KeyError as e:
                    raise ValueError(f"variable {abs(e.args[0])} has no entry in {path}.names") from None
        if counts != (len(names), len(clauses)):
            raise ValueError(f"no 'p cnf' line matches the {len(names)} names and {len(clauses)} clauses")
        universe = tuple(names[i] for i in sorted(names))
        return CNF(tuple(clauses), universe, **meta)


def write_axioms(ax: AxiomSystem, path) -> None:
    with open(str(path), "w") as fh:
        fh.write(f"field={ax.field.p} basis={ax.basis}\n")
        # universe variables no axiom mentions would otherwise be lost
        inferred = {v.base for v in {v for p in ax.polys for t in p.terms for v in t}}
        extra = [v for v in ax.universe if v not in inferred]
        universe = ["universe " + " ".join(format_var(v) for v in extra)] if extra else []
        for line in _meta_lines(ax, universe):
            fh.write(line + "\n")
        for p in ax.polys:
            fh.write(format_poly(p) + "\n")


def read_axioms(path) -> AxiomSystem:
    with LineReader(path) as lines:
        head = lines.header("axiom", required=("field", "basis"))
        field, basis = Field(int(head["field"])), head["basis"]
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        meta: Dict[str, object] = {}
        polys: List[Poly] = []
        extras: List[Var] = []
        for line in lines:
            if line.startswith("universe "):
                extras.extend(parse_var(tok).base for tok in line.split()[1:])
            elif not _read_meta(line, meta):
                polys.append(parse_poly(line, field, basis))
        universe = sorted({v.base for v in {v for p in polys for t in p.terms for v in t}} | set(extras))
        return AxiomSystem(field, basis, tuple(polys), tuple(universe), **meta)
