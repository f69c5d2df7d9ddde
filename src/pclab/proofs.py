"""Proof objects for resolution and polynomial calculus, the line-by-line
checkers, and the proof metrics: size, degree, quadratic degree, touched
vertices, special degree.

A polynomial-calculus proof is a sequence of lines, each produced by one
step:

    ("ax", i)           the i-th axiom polynomial of the system
    ("sq", v)           square axiom for v -- identically zero in the
                        multilinear representation, kept as an explicit
                        zero line
    ("tw", v)           twin axiom for v: x + ~x - 1 (boolean) or
                        x*~x + 1 (fourier)
    ("lin", a, i, b, j) a*L_i + b*L_j
    ("mul", v, i)       v * L_i, squares folded per the basis

A resolution proof is a sequence of ("in", i) steps, the i-th input
clause, and ("res", i, j, pivot) steps, the resolvent of lines i and j.

Line references are 0-based positions of earlier lines.  ``_GRAMMAR`` is
the one description of the step kinds: each kind's file token and what
each slot after the kind holds.  The shape tables, the two readers and
the one step writer are built from it.  One loop,
``_walk``, reads every proof through its system's shape table: per step
kind, the arity, the slots holding line references, and how slot 1
resolves (an axiom or clause index, integer "lin" coefficients, or a
universe variable to its codec bit).  It checks all of that inline and
makes one call per step, ``derive(kind, at, step, parents)``, with the
lines the step reads as ``parents``.  A line is kept only while a later
step still reads it, so a walk holds the live frontier, not the whole
proof.  The first step that does not derive a line ends the walk with a
``StepError`` whose ``k`` is that step's index; its message quotes
axiom, clause and line numbers 1-based, as the file writes them.

Both walks derive masks over their system's ``codec``, the i-th universe
base at bit 2i and its twin at 2i+1; a width or degree is ``bit_count()``.
A resolution line is a clause mask, one bit per literal (``_clause_rule``).
``_mask_lines``, the one evaluator of polynomial-calculus lines, derives
``{mask: coeff}`` dicts: a product by a variable is ``|`` in {0,1} and
``^`` in {+1,-1}.  ``walk_pc`` decodes to ``Poly``, ``resolution_lines`` to
frozensets and ``quadratic_set`` to terms; the other metrics stay on masks.
"""

from __future__ import annotations

__all__ = [
    "PCProof",
    "PCReport",
    "ProofWriter",
    "QuadraticSet",
    "ResolutionProof",
    "ResReport",
    "StepError",
    "TouchReport",
    "check_pc",
    "check_resolution",
    "proof_lines",
    "quadratic_degree",
    "quadratic_set",
    "random_derivation",
    "read_pcproof",
    "read_resproof",
    "resolution_lines",
    "special_degree",
    "touched",
    "write_pcproof",
    "write_resproof",
]

import os
import random
from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import or_
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .algebra import (
    BOOLEAN,
    FOURIER,
    BasisMismatch,
    Field,
    LineReader,
    Poly,
    Term,
    TermCodec,
    Var,
    format_var,
    lin_dict,
    parse_var,
)
from .formulas import CNF, AxiomSystem, Clause, pointer_bits, read_axioms, read_dimacs

Step = tuple


def twin_axiom_poly(v: Var, field: Field, basis: str) -> Poly:
    b = v.base
    if basis == BOOLEAN:
        return Poly(field, basis, {(b,): 1, (b.twin,): 1, (): field.p - 1})
    if basis == FOURIER:
        return Poly(field, basis, {(b, b.twin): 1, (): 1})
    raise BasisMismatch(f"unknown basis {basis!r}")


@dataclass(frozen=True)
class PCProof:
    axioms: AxiomSystem
    steps: Tuple[Step, ...]

    @property
    def basis(self) -> str:
        return self.axioms.basis

    @property
    def field(self) -> Field:
        return self.axioms.field

    def __len__(self) -> int:
        return len(self.steps)


class StepError(ValueError):
    """A step that derives no line; ``k`` is its index when a walk raised it."""

    def __init__(self, message: str, k: Optional[int] = None):
        super().__init__(message)
        self.k = k


class ProofWriter:
    """Appends steps to a proof under construction; ``steps[k]`` is line k.
    Only ``lin`` needs the field size ``p``."""

    def __init__(self, p: Optional[int] = None):
        self.p = p
        self.steps: List[Step] = []

    def emit(self, step: Step) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def lin(self, parts: Iterable[Tuple[int, Optional[int], Term]]) -> Optional[int]:
        """Combine the parts (coef, line, by), each line first multiplied by
        the variables of ``by``.  Parts with no line or a zero coefficient
        are dropped: no part left emits nothing and returns None, one part
        c*L emits ("lin", c, L, 0, L)."""
        ends = []
        for c, i, by in parts:
            if i is not None and c % self.p:
                for v in by:
                    i = self.emit(("mul", v, i))
                ends.append((c, i))
        if not ends:
            return None
        if len(ends) == 1:
            ((c, i),) = ends
            return self.emit(("lin", c, i, 0, i))
        (a, i), (b, j) = ends
        return self.emit(("lin", a, i, b, j))


def _num(i) -> str:
    """An axiom, clause or line index as the file writes it (1-based)."""
    return str(i + 1) if type(i) is int else repr(i)


# The one description of the proof steps, kind: (file token, a code for
# each slot after the kind).  The codes: i an axiom or clause index, v a
# variable, c a "lin" coefficient, L a line reference.
_GRAMMAR = {"ax": ("AX", "i"), "sq": ("SQ", "v"), "tw": ("TW", "v"), "lin": ("LIN", "cLcL"),
            "mul": ("MUL", "vL"), "in": ("IN", "i"), "res": ("RES", "LLv")}
# How a walk resolves slot 1 of a step: to a variable's codec bit, as
# the "lin" coefficients (slots 1 and 3), as a line, or not at all for a
# kind of the other proof system.  An axiom or clause index is checked
# against the system's count, and its rule is the message refusing it.
_VAR, _COEFS, _LINE, _FOREIGN = "variable", "coefficients", "line", "foreign"
_AXIOM, _CLAUSE = "no axiom {}: the system has {}", "no input clause {}: the formula has {}"


def _shapes(kinds: Sequence[str], index: str) -> Dict[str, tuple]:
    """The shape table of the proof system made of ``kinds``, whose index
    slots ``index`` checks: kind: (arity, the slots holding line
    references, how slot 1 resolves).  A kind of the other system keeps
    its slots, so a bad reference in it is reported before the kind is."""
    operand = {"i": index, "v": _VAR, "c": _COEFS, "L": _LINE}
    return {kind: (1 + len(code), tuple(s for s, c in enumerate(code, 1) if c == "L"),
                   operand[code[0]] if kind in kinds else _FOREIGN)
            for kind, (_, code) in _GRAMMAR.items()}


_PC = _shapes(("ax", "sq", "tw", "lin", "mul"), _AXIOM)
_RES = _shapes(("in", "res"), _CLAUSE)


def _walk(proof, derive) -> Iterator[Tuple[int, Step, object]]:
    """Yield (k, step, derive(kind, at, step, parents)) for every step of
    a polynomial-calculus or resolution proof, that call being the only
    one a step makes.  The system's shape table gives the step's shape;
    its references must name earlier lines, whose lines are ``parents``;
    ``at`` is slot 1 resolved: the axiom or clause index, the first "lin"
    coefficient, or the variable's codec bit.  A step failing any of this
    ends the walk before ``derive`` runs."""
    if isinstance(proof, PCProof):
        table, count, pos = _PC, len(proof.axioms.polys), proof.axioms.codec.pos
    else:
        table, count, pos = _RES, len(proof.cnf.clauses), None
    steps = proof.steps
    # the last step reading each line, 0 if none: machine words, no object per step.
    # A bad step only keeps lines longer: the walk stops at it.
    last_use = array("q", bytes(8 * len(steps)))
    for k, step in enumerate(steps):
        try:
            for s in table[step[0]][1]:
                last_use[step[s]] = k
        except (TypeError, LookupError):
            pass
    lines: List[object] = [None] * len(steps)
    for k, step in enumerate(steps):
        try:
            try:
                arity, slots, operand = table[kind := step[0]]
            except (TypeError, LookupError):
                arity = -1
            if arity < 0 or len(step) != arity:
                raise StepError(f"malformed step {step!r}")
            parents = ()
            for s in slots:
                i = step[s]
                if type(i) is not int or not 0 <= i < k:
                    raise StepError(f"reference to L{_num(i)} not before L{k + 1}")
                parents += (lines[i],)
            at = step[1]
            if operand is _VAR:
                if type(at) is not Var or (at := pos.get(at)) is None:
                    raise StepError(f"variable {step[1]} outside the system universe")
            elif operand is _COEFS:
                if type(at) is not int or type(step[3]) is not int:  # True is no coefficient
                    raise StepError(f"non-scalar coefficients in {step!r}")
            elif operand is _FOREIGN:
                raise StepError(f"malformed step {step!r}")
            elif operand is not _LINE and (type(at) is not int or not 0 <= at < count):
                raise StepError(operand.format(_num(at), count))
            for s in slots:
                if last_use[step[s]] == k:
                    lines[step[s]] = None
            line = derive(kind, at, step, parents)
        except StepError as e:
            raise StepError(str(e), k) from None
        if last_use[k]:
            lines[k] = line
        yield k, step, line


def _line_rule(ax: AxiomSystem):
    """The one rule deriving a step's line, a ``{mask: coeff}`` dict over
    the system's codec, from its parents' lines: ``derive(kind, at, step,
    parents)`` with ``at`` resolved as ``_walk`` resolves it."""
    p = ax.field.p
    fourier = ax.basis == FOURIER

    def derive(kind: str, at, step: Step, parents: tuple) -> Dict[int, int]:
        if kind == "mul":
            (line,) = parents
            v = 1 << at
            out = {}  # plain loops: a comprehension would be a second call per step
            if fourier:  # v*v = 1: XOR is one-to-one, so no two terms meet
                for m, c in line.items():
                    out[m ^ v] = c
                return out
            for m, c in line.items():  # v*v = v: a term with v may meet the same term without
                if (m := m | v) in out and not (c := (out[m] + c) % p):
                    del out[m]
                else:
                    out[m] = c
            return out
        if kind == "lin":
            return lin_dict(step[1], parents[0], step[3], parents[1], p)
        if kind == "ax":
            return ax.codec.encode(ax.polys[at])
        if kind == "sq":
            return {}
        base = 1 << (at & ~1)  # the twin sits one bit above its base
        return {base | base << 1: 1, 0: 1} if fourier else {base: 1, base << 1: 1, 0: p - 1}

    return derive


def _mask_lines(proof: PCProof) -> Iterator[Tuple[int, Step, Dict[int, int]]]:
    """Recompute every line with ``_line_rule``: the one evaluator."""
    return _walk(proof, _line_rule(proof.axioms))


def walk_pc(proof: PCProof) -> Iterator[Tuple[int, Step, Poly]]:
    """Recompute every line of a polynomial-calculus proof from its step."""
    ax = proof.axioms
    term = ax.codec.term
    for k, step, line in _mask_lines(proof):
        yield k, step, Poly(ax.field, ax.basis, {term(m): c for m, c in line.items()})


def proof_lines(proof: PCProof) -> List[Poly]:
    """Materialize every line; raises StepError on a malformed step."""
    return [p for _, _, p in walk_pc(proof)]


@dataclass(frozen=True)
class PCReport:
    valid: bool
    is_refutation: bool
    size: int
    degree: int
    num_lines: int
    first_bad_line: Optional[int] = None
    message: str = ""


def check_pc(proof: PCProof) -> PCReport:
    """Recompute every line from its step and report the proof metrics.

    ``size`` is the total monomial count over all lines and ``degree``
    the maximum line degree.  The walk releases lines no longer
    referenced later, so the lines it holds are the live frontier, plus
    two machine words of bookkeeping per step.
    """
    size = degree = 0
    line: Optional[Dict[int, int]] = None
    try:
        for _, _, line in _mask_lines(proof):
            size += len(line)
            for m in line:  # a zero line has no degree to take
                if (d := m.bit_count()) > degree:
                    degree = d
    except StepError as e:
        return PCReport(False, False, size, degree, len(proof.steps), e.k, str(e))
    return PCReport(True, line == {0: 1}, size, degree, len(proof.steps))


# ---------------------------------------------------------------------------
# resolution


@dataclass(frozen=True)
class ResolutionProof:
    cnf: CNF
    steps: Tuple[Step, ...]  # ("in", clause_index) | ("res", i, j, pivot Var)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ResReport:
    valid: bool
    is_refutation: bool
    num_lines: int
    max_width: int
    first_bad_line: Optional[int] = None
    message: str = ""


def _clause_rule(cnf: CNF):
    """The resolution rule on clause masks over ``cnf.codec``, as ``_walk``'s
    ``derive``; a pivot given as a twin resolves as its base."""
    clauses, mask, pos = cnf.clauses, cnf.codec.mask, cnf.codec.pos

    def derive(kind: str, at, step: Step, parents: tuple) -> int:
        if kind == "in":
            return mask(clauses[at])
        pivot = step[3]
        if not isinstance(pivot, Var):
            raise StepError(f"pivot {pivot!r} is not a variable")
        a, b = parents
        i = pos.get(pivot, -2) & ~1  # the base's bit, its twin's one above; < 0 outside the universe
        if i < 0 or not (a >> i & b >> i + 1 | b >> i & a >> i + 1) & 1:  # base in one, twin in the other
            raise StepError(f"pivot {format_var(pivot.base)} is not complementary in the parents")
        return (a | b) & ~(3 << i)

    return derive


def walk_resolution(proof: ResolutionProof) -> Iterator[Tuple[int, Step, int]]:
    """Recompute every clause of a resolution proof from its step: yields
    (k, step, the clause's mask over ``proof.cnf.codec``)."""
    return _walk(proof, _clause_rule(proof.cnf))


def resolution_lines(proof: ResolutionProof) -> List[Clause]:
    """Materialize every clause; raises StepError on a malformed step."""
    return [frozenset(proof.cnf.codec.term(m)) for _, _, m in walk_resolution(proof)]


def check_resolution(proof: ResolutionProof) -> ResReport:
    width, final = 0, None
    try:
        for _, _, final in walk_resolution(proof):
            width = max(width, final.bit_count())
    except StepError as e:
        return ResReport(False, False, len(proof.steps), width, e.k, str(e))
    return ResReport(True, final == 0, len(proof.steps), width)


# ---------------------------------------------------------------------------
# quadratic metrics


@dataclass(frozen=True)
class QuadraticSet:
    """``quadratic_set``'s products, their largest degree ``qdeg``, and ``d0``,
    the largest degree of an axiom, square or twin line.  The metrics read masks
    instead: the containment check, the heavy analysis and ``quadratic_degree``."""

    products: FrozenSet[Term]
    qdeg: int
    d0: int


def _fourier_only(x, what: str) -> None:
    """Refuse a proof, axiom system or polynomial outside the {+1,-1} encoding."""
    if x.basis != FOURIER:
        raise BasisMismatch(f"{what} is specific to the {{+1,-1}} encoding")


def _quadratic_masks(proof: PCProof) -> Set[int]:
    """The products of two mask terms sharing a line, each their XOR,
    which never folds a twin into its base, 0 for a self-pair."""
    _fourier_only(proof, "quadratic machinery")
    products: Set[int] = set()
    for _, _, line in _mask_lines(proof):
        if line:
            products.add(0)
        masks = list(line)
        while masks:
            m = masks.pop()
            products.update(map(m.__xor__, masks))
    return products


def quadratic_set(proof: PCProof) -> QuadraticSet:
    """The decoded form of ``_quadratic_masks``: every product of two terms
    sharing a line, folded modulo v*v = 1.  {+1,-1} encoding only.  ``d0``
    is read off the steps, so it must match the degrees of the lines
    ``_line_rule`` derives for them: an axiom's, 2 for a twin, 0 for a square."""
    products = _quadratic_masks(proof)
    qdeg = max(map(int.bit_count, products), default=0)
    polys = proof.axioms.polys
    d0 = max((polys[s[1]].degree if s[0] == "ax" else 2 for s in proof.steps if s[0] in ("ax", "tw")), default=0)
    return QuadraticSet(frozenset(map(proof.axioms.codec.term, products)), qdeg, d0)


def quadratic_degree(proof: PCProof) -> int:
    """``quadratic_set(proof).qdeg``, with no set of products built."""
    _fourier_only(proof, "quadratic machinery")
    best = 0
    for _, _, line in _mask_lines(proof):
        masks = list(line)
        while masks:
            m = masks.pop()
            for x in masks:
                best = max(best, (m ^ x).bit_count())
    return best


# ---------------------------------------------------------------------------
# touched vertices


@dataclass(frozen=True)
class TouchReport:
    strong: FrozenSet[int]
    light: FrozenSet[int]

    @property
    def tau(self) -> FrozenSet[int]:
        return self.strong | self.light


def _touch_rule(codec: TermCodec, n: Optional[int], ell: Optional[int]) -> Callable[[int], TouchReport]:
    """The one touch rule, as ``touch(mask)`` over ``codec``.  j is strongly
    touched by a pointer bit of j or a gadget or cluster variable aimed at j;
    i is lightly touched by a full gadget out of i: ``ell`` copies x(i,j,l) or
    ``ell // 2`` pair variables z(i,j,l), as clustered variables count twice.
    A twin, foreign or out-of-family variable is refused only in a touched
    mask, by its lowest such bit: the first offending variable in term order.
    ``touch.counts(masks)`` counts each mask's vertices by C-level filters,
    refusing the first refused mask as ``touch`` does; ``touch.strong``
    maps each vertex to its strong bits."""
    if n is None or ell is None:
        raise ValueError("touch context (n, ell) unknown")
    need = {"x": ell, "z": ell // 2}
    strong: Dict[int, int] = {}  # per vertex, the bits touching it strongly
    copies: Dict[Tuple[str, int, int], int] = {}  # per edge gadget, its copies' bits
    refused: Dict[int, tuple] = {}  # per bit, its message's format and fields
    for b, v in enumerate(codec.var_of):
        kind, ix = v.kind, v.index
        if v.negated:
            refused[1 << b] = "touch analysis is over positive terms, got {}", v
        elif kind == "y" and not 1 <= ix[0] <= n:
            refused[1 << b] = "vertex {} outside 1..{}", ix[0], n
        elif kind == "y" and 1 <= ix[1] <= pointer_bits(n):
            strong[ix[0]] = strong.get(ix[0], 0) | 1 << b
        elif kind not in need and kind != "y":
            refused[1 << b] = "foreign variable {}", v
        elif kind in need and 1 <= ix[0] <= n and 1 <= ix[1] <= n and 1 <= ix[2] <= need[kind]:
            strong[ix[1]] = strong.get(ix[1], 0) | 1 << b
            copies[kind, ix[0], ix[1]] = copies.get((kind, ix[0], ix[1]), 0) | 1 << b
        else:
            refused[1 << b] = "variable {} outside the (n={}, ell={}) family", v, n, ell
    gadgets = [(i, bits) for (kind, i, _), bits in copies.items() if bits.bit_count() == need[kind]]
    bad = sum(refused)

    def touch(m: int) -> TouchReport:
        if hit := m & bad:
            raise ValueError(str.format(*refused[hit & -hit]))
        return TouchReport(frozenset(j for j, bits in strong.items() if m & bits),
                           frozenset(i for i, bits in gadgets if m & bits == bits))

    def counts(masks: List[int]) -> List[int]:
        for m in filter(bad.__and__, masks):
            touch(m)  # raises
        cols = {j: map(bool, map(bits.__and__, masks)) for j, bits in strong.items()}
        for i, bits in gadgets:  # one column per vertex: strong or light, counted once
            cols[i] = map(or_, cols.get(i, repeat(False)), map(bits.__eq__, map(bits.__and__, masks)))
        return list(map(sum, zip(repeat(0, len(masks)), *cols.values())))

    touch.counts, touch.strong = counts, strong
    return touch


def touched(t: Term, n: int, ell: int) -> TouchReport:
    """The vertices a term touches, by ``_touch_rule`` over its own codec."""
    codec = TermCodec(v.base for v in t)
    return _touch_rule(codec, n, ell)(codec.mask(set(t)))


def special_degree(proof: PCProof) -> int:
    """The most vertices a term of any line touches, each twin read as
    its base, as the heavy-term analysis reads them."""
    codec = proof.axioms.codec
    touch = _touch_rule(codec, proof.axioms.n, proof.axioms.ell)
    bases = {codec.fold(m) for _, _, line in _mask_lines(proof) for m in line}
    return max(touch.counts(list(bases)), default=0)


# ---------------------------------------------------------------------------
# random derivations

_SIZE_CAP = 4096


def random_derivation(axioms: AxiomSystem, steps: int, seed: int) -> PCProof:
    """Seeded random application of the derivation rules; every output is
    checker-valid.  All axioms are introduced first, then ``steps``
    random rule applications follow, each line derived by ``_line_rule``;
    a "lin" whose parents exceed ``_SIZE_CAP`` terms becomes a "mul".  An
    axiom's line is encoded when a step first reads it."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    rng = random.Random(seed)
    rule, pos, polys = _line_rule(axioms), axioms.codec.pos, axioms.polys
    out: List[Step] = [("ax", i) for i in range(len(polys))]
    lines: List[Optional[Dict[int, int]]] = [None] * len(out)

    def line(i: int) -> Dict[int, int]:
        if lines[i] is None:
            lines[i] = rule("ax", i, out[i], ())
        return lines[i]

    def size(i: int) -> int:
        return polys[i].monomial_count if lines[i] is None else len(lines[i])

    universe = list(axioms.universe)
    for _ in range(steps):
        choices = []
        if lines:
            choices += ["lin"] * 5 + (["mul"] * 4 if universe else [])
        if universe:
            choices += ["tw", "sq"]
        if not choices:
            break
        kind = rng.choice(choices)
        if kind == "lin":
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if size(i) + size(j) > _SIZE_CAP:
                kind = "mul" if universe else "tw"
            else:
                a, b = rng.randrange(axioms.field.p), rng.randrange(axioms.field.p)
                step, at, parents = ("lin", a, i, b, j), a, (line(i), line(j))
        if kind == "mul":
            i = rng.randrange(len(lines))
            v = rng.choice(universe)
            if rng.random() < 0.5:
                v = v.twin
            step, at, parents = ("mul", v, i), pos[v], (line(i),)
        elif kind != "lin":
            v = rng.choice(universe)
            step, at, parents = (kind, v), pos[v], ()
        out.append(step)
        lines.append(rule(kind, at, step, parents))
    return PCProof(axioms, tuple(out))


# ---------------------------------------------------------------------------
# file formats


def _per_slot(fs: Sequence[Callable]) -> Callable[[Sequence], tuple]:
    """The function of a sequence ``t`` giving ``(fs[0](t[1]), fs[1](t[2]),
    ...)``.  Each slot gets a direct call: every step of a file is read or
    written through one of these, and a loop or ``map`` over the slots
    costs more per step than the conversions themselves."""
    a, b, c, d, e = (*fs, None, None, None, None)[:5]
    return [lambda t: (a(t[1]),),
            lambda t: (a(t[1]), b(t[2])),
            lambda t: (a(t[1]), b(t[2]), c(t[3])),
            lambda t: (a(t[1]), b(t[2]), c(t[3]), d(t[4])),
            lambda t: (a(t[1]), b(t[2]), c(t[3]), d(t[4]), e(t[5]))][len(fs) - 1]


# How the writer prints each slot code: a format and the value it takes.
# Indices and labels are 1-based in the file.
_PRINT = {"i": ("%s", (1).__add__), "v": ("%s", format_var), "c": ("%s", str), "L": ("L%s", (1).__add__)}


def _write_steps(path, header: str, steps: Sequence[Step]) -> None:
    """The header line, then each step as ``L<k> <token> <slots>``."""
    rows = {kind: (" ".join([tok, *(_PRINT[c][0] for c in code)]), _per_slot([_PRINT[c][1] for c in code]))
            for kind, (tok, code) in _GRAMMAR.items()}
    with open(str(path), "w") as fh:
        fh.write(f"{header}\n")
        for k, step in enumerate(steps, 1):
            text, slots = rows[step[0]]
            fh.write(f"L{k} {text % slots(step)}\n")


def write_pcproof(proof: PCProof, path, axioms_path: str) -> None:
    """Line-oriented text format; labels and axiom indices are 1-based
    in the file."""
    _write_steps(path, f"pcproof v1 basis={proof.basis} field={proof.field.p} axioms={axioms_path}", proof.steps)


def _parse_label(tok: str) -> int:
    """The 0-based line a label names; the walk checks that it comes
    before the step that reads it."""
    if not tok.startswith("L"):
        raise ValueError(f"expected line label, got {tok!r}")
    return int(tok[1:]) - 1


def _read_steps(lines: LineReader, table: Dict[str, tuple], p: Optional[int]) -> Tuple[Step, ...]:
    """The steps of the lines ``L<k> <token> <slots>``, k = 1, 2, ..., of
    the kinds ``table`` does not mark foreign; "lin" coefficients are
    reduced mod ``p``."""
    parse = {"i": lambda t: int(t) - 1, "v": parse_var, "c": lambda t: int(t) % p, "L": _parse_label}
    # a row reads the file token, as t[1], into the step's kind
    rows = {tok: (2 + len(code), _per_slot([{tok: kind}.get, *(parse[c] for c in code)]))
            for kind, (tok, code) in _GRAMMAR.items() if table[kind][2] is not _FOREIGN}
    steps: List[Step] = []
    for k, line in enumerate(lines, 1):
        toks = line.split()
        if toks[0] != f"L{k}":
            raise ValueError(f"expected label L{k}, got {toks[0]!r}")
        n, step = rows.get(toks[1], (0, None)) if len(toks) > 1 else (0, None)
        if len(toks) != n:
            raise ValueError(f"malformed step {' '.join(toks[1:])!r}")
        steps.append(step(toks))
    return tuple(steps)


def _beside(path, name: str) -> str:
    """A path named in a proof header, relative to the proof's directory."""
    return os.path.join(os.path.dirname(os.path.abspath(str(path))), name)


def read_pcproof(path, axioms: Optional[AxiomSystem] = None) -> PCProof:
    with LineReader(path) as lines:
        required = ("basis", "field") if axioms is not None else ("basis", "field", "axioms")
        head = lines.header("proof", "pcproof v1", required, allowed=("axioms",))
        if axioms is None:
            axioms = read_axioms(_beside(path, head["axioms"]))
        if axioms.basis != head["basis"] or axioms.field.p != int(head["field"]):
            raise ValueError("proof header disagrees with the axiom system")
        return PCProof(axioms, _read_steps(lines, _PC, axioms.field.p))


def write_resproof(proof: ResolutionProof, path, cnf_path: str) -> None:
    _write_steps(path, f"resproof v1 cnf={cnf_path}", proof.steps)


def read_resproof(path, cnf: Optional[CNF] = None) -> ResolutionProof:
    with LineReader(path) as lines:
        head = lines.header("proof", "resproof v1", () if cnf is not None else ("cnf",), allowed=("cnf",))
        if cnf is None:
            cnf = read_dimacs(_beside(path, head["cnf"]))
        return ResolutionProof(cnf, _read_steps(lines, _RES, None))
