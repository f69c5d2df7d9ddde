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

Line references are 0-based positions of earlier lines.  Every line is
computed in one place: ``walk_pc`` (and ``walk_resolution`` for clauses)
recomputes each line from its step, trusting nothing, and yields
``(k, step, line)`` for every step in order.  A line is kept only while a
later step still reads it and is released after its last use, so a walk
holds the live frontier, not the whole proof; a caller that wants every
line collects them itself.  The first step that does not derive a line
ends the walk with a ``StepError`` whose ``k`` is that step's index; its
message quotes axiom, clause and line numbers 1-based, as the file
writes them.  The checkers and metrics below are folds over these walks.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .algebra import (
    BOOLEAN,
    FOURIER,
    BasisMismatch,
    Field,
    Poly,
    Term,
    Var,
    format_var,
    grlex_key,
    parse_var,
    term_mul,
)
from .formulas import CNF, AxiomSystem, Clause, read_axioms, read_dimacs

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
    """Appends steps to a proof under construction; ``steps[k]`` is line k."""

    def __init__(self, p: int):
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
    return str(i + 1) if isinstance(i, int) else repr(i)


def _refs(step: Step) -> Tuple[int, ...]:
    """The earlier lines a step reads: the parents of a "lin", "mul" or
    "res" step; nothing for any other or malformed step."""
    if len(step) == 5 and step[0] == "lin":
        refs = (step[2], step[4])
    elif len(step) == 3 and step[0] == "mul":
        refs = (step[2],)
    elif len(step) == 4 and step[0] == "res":
        refs = (step[1], step[2])
    else:
        return ()
    return tuple(i for i in refs if isinstance(i, int))


def _walk(steps: Sequence[Step], derive) -> Iterator[Tuple[int, Step, object]]:
    """Yield (k, step, derive(step, k, lines)) for every step, where
    ``lines`` holds exactly the earlier lines some later step reads."""
    refs = [_refs(step) for step in steps]
    last_use: Dict[int, int] = {}
    for k, rs in enumerate(refs):
        for i in rs:
            last_use[i] = k
    lines: Dict[int, object] = {}
    for k, step in enumerate(steps):
        try:
            line = derive(step, k, lines)
        except StepError as e:
            raise StepError(str(e), k) from None
        if k in last_use:
            lines[k] = line
        for i in refs[k]:
            if last_use[i] == k:
                lines.pop(i, None)
        yield k, step, line


def _ref(i, k: int, lines: Dict[int, object]):
    if not isinstance(i, int) or not 0 <= i < k:
        raise StepError(f"reference to L{_num(i)} not before L{k + 1}")
    return lines[i]


_STEP_ARITY = {"ax": 2, "sq": 2, "tw": 2, "lin": 5, "mul": 3}


def _step_poly(step: Step, k: int, lines: Dict[int, Poly], proof: PCProof, uni: Set[Var]) -> Poly:
    ax = proof.axioms
    kind = step[0] if step else None
    if not isinstance(kind, str) or _STEP_ARITY.get(kind) != len(step):
        raise StepError(f"malformed step {step!r}")
    if kind == "ax":
        i = step[1]
        if not isinstance(i, int) or not (0 <= i < len(ax.polys)):
            raise StepError(f"no axiom {_num(i)}: the system has {len(ax.polys)}")
        return ax.polys[i]
    if kind == "lin":
        _, a, i, b, j = step
        if not isinstance(a, int) or not isinstance(b, int):
            raise StepError(f"non-scalar coefficients in {step!r}")
        return _ref(i, k, lines).scale(a).add(_ref(j, k, lines).scale(b))
    v = step[1]
    if not isinstance(v, Var) or v.base not in uni:
        raise StepError(f"variable {v} outside the system universe")
    if kind == "sq":
        return Poly.zero(ax.field, ax.basis)
    if kind == "tw":
        return twin_axiom_poly(v, ax.field, ax.basis)
    return _ref(step[2], k, lines).mul_var(v)


def walk_pc(proof: PCProof) -> Iterator[Tuple[int, Step, Poly]]:
    """Recompute every line of a polynomial-calculus proof from its step."""
    uni = set(proof.axioms.universe)
    return _walk(proof.steps, lambda step, k, lines: _step_poly(step, k, lines, proof, uni))


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
    referenced later, so memory stays proportional to the live frontier,
    not the proof length.
    """
    size = degree = 0
    final: Optional[Poly] = None
    try:
        for _, _, final in walk_pc(proof):
            size += final.monomial_count
            degree = max(degree, final.degree)
    except StepError as e:
        return PCReport(False, False, size, degree, len(proof.steps), e.k, str(e))
    one = Poly.constant(proof.field, proof.basis, 1)
    return PCReport(True, final is not None and final == one, size, degree, len(proof.steps))


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


def resolve_clauses(c1: Clause, c2: Clause, pivot: Var) -> Clause:
    """Resolvent of two clauses on a pivot variable (given as its base)."""
    pivot = pivot.base
    if pivot in c1 and pivot.twin in c2:
        pos, neg = c1, c2
    elif pivot in c2 and pivot.twin in c1:
        pos, neg = c2, c1
    else:
        raise StepError(f"pivot {format_var(pivot)} is not complementary in the parents")
    return frozenset(v for v in (pos | neg) if v.base != pivot)


def walk_resolution(proof: ResolutionProof) -> Iterator[Tuple[int, Step, Clause]]:
    """Recompute every clause of a resolution proof from its step."""
    clauses = proof.cnf.clauses

    def derive(step: Step, k: int, lines: Dict[int, Clause]) -> Clause:
        if len(step) == 2 and step[0] == "in":
            i = step[1]
            if not isinstance(i, int) or not (0 <= i < len(clauses)):
                raise StepError(f"no input clause {_num(i)}: the formula has {len(clauses)}")
            return clauses[i]
        if len(step) == 4 and step[0] == "res":
            _, i, j, pivot = step
            if not isinstance(pivot, Var):
                raise StepError(f"pivot {pivot!r} is not a variable")
            return resolve_clauses(_ref(i, k, lines), _ref(j, k, lines), pivot)
        raise StepError(f"malformed step {step!r}")

    return _walk(proof.steps, derive)


def resolution_lines(proof: ResolutionProof) -> List[Clause]:
    """Materialize every clause; raises StepError on a malformed step."""
    return [c for _, _, c in walk_resolution(proof)]


def check_resolution(proof: ResolutionProof) -> ResReport:
    width = 0
    final: Optional[Clause] = None
    try:
        for _, _, final in walk_resolution(proof):
            width = max(width, len(final))
    except StepError as e:
        return ResReport(False, False, len(proof.steps), width, e.k, str(e))
    return ResReport(True, final is not None and not final, len(proof.steps), width)


# ---------------------------------------------------------------------------
# quadratic metrics


@dataclass(frozen=True)
class QuadraticSet:
    """Unordered pairs of cohabiting terms and their folded products."""

    pairs: FrozenSet[Tuple[Term, Term]]
    products: FrozenSet[Term]
    qdeg: int
    d0: int


def quadratic_set(proof: PCProof) -> QuadraticSet:
    """All unordered pairs (including self-pairs) of terms sharing a
    line, and their products folded modulo v*v = 1.  Defined for the
    {+1,-1} encoding only."""
    if proof.basis != FOURIER:
        raise BasisMismatch("quadratic machinery is specific to the {+1,-1} encoding")
    pairs: Set[Tuple[Term, Term]] = set()
    products: Set[Term] = set()
    d0 = 0
    for _, step, p in walk_pc(proof):
        if step[0] in ("ax", "sq", "tw"):
            d0 = max(d0, p.degree)
        ts = sorted(p.terms, key=grlex_key)
        for a in range(len(ts)):
            for b in range(a, len(ts)):
                pairs.add((ts[a], ts[b]))
                products.add(term_mul(ts[a], ts[b], FOURIER))
    qdeg = max((len(t) for t in products), default=0)
    return QuadraticSet(frozenset(pairs), frozenset(products), qdeg, d0)


def quadratic_degree(proof: PCProof) -> int:
    return quadratic_set(proof).qdeg


# ---------------------------------------------------------------------------
# touched vertices


@dataclass(frozen=True)
class TouchReport:
    strong: FrozenSet[int]
    light: FrozenSet[int]

    @property
    def tau(self) -> FrozenSet[int]:
        return self.strong | self.light


def touched(t: Term, n: int, ell: int) -> TouchReport:
    """Vertices a term speaks about: j is strongly touched by any gadget
    variable pointing at j or any pointer bit of j; i is lightly touched
    when the term holds every gadget copy of some edge out of i.

    Clustered gadget variables count with multiplicity two, so a full
    set of ell/2 pair variables lights the tail vertex just as the full
    ell original copies would.
    """
    strong: Set[int] = set()
    gadget: Dict[Tuple[str, int, int], Set[int]] = {}
    for v in t:
        if v.negated:
            raise ValueError(f"touch analysis is over positive terms, got {v}")
        if v.kind == "y":
            j, _ = v.index
            if not (1 <= j <= n):
                raise ValueError(f"vertex {j} outside 1..{n}")
            strong.add(j)
        elif v.kind in ("x", "z"):
            i, j, l = v.index
            need = ell if v.kind == "x" else ell // 2
            if not (1 <= i <= n and 1 <= j <= n and 1 <= l <= need):
                raise ValueError(f"variable {v} outside the (n={n}, ell={ell}) family")
            strong.add(j)
            gadget.setdefault((v.kind, i, j), set()).add(l)
        else:
            raise ValueError(f"foreign variable {v}")
    light: Set[int] = set()
    for (kind, i, j), ls in gadget.items():
        need = ell if kind == "x" else ell // 2
        if len(ls) == need:
            light.add(i)
    return TouchReport(frozenset(strong), frozenset(light))


def special_degree(proof: PCProof, n: Optional[int] = None, ell: Optional[int] = None) -> int:
    n = n if n is not None else proof.axioms.n
    ell = ell if ell is not None else proof.axioms.ell
    if n is None or ell is None:
        raise ValueError("touch context (n, ell) unknown")
    terms = (t for _, _, p in walk_pc(proof) for t in p.terms)
    return max((len(touched(t, n, ell).tau) for t in terms), default=0)


# ---------------------------------------------------------------------------
# random derivations

_SIZE_CAP = 4096


def random_derivation(axioms: AxiomSystem, steps: int, seed: int) -> PCProof:
    """Seeded random application of the derivation rules; every output is
    checker-valid.  All axioms are introduced first, then ``steps``
    random rule applications follow."""
    rng = random.Random(seed)
    out: List[Step] = [("ax", i) for i in range(len(axioms.polys))]
    polys: List[Poly] = list(axioms.polys)
    universe = list(axioms.universe)
    for _ in range(steps):
        choices = []
        if polys:
            choices += ["lin"] * 5 + (["mul"] * 4 if universe else [])
        if universe:
            choices += ["tw", "sq"]
        if not choices:
            break
        kind = rng.choice(choices)
        if kind == "lin":
            i, j = rng.randrange(len(polys)), rng.randrange(len(polys))
            if polys[i].monomial_count + polys[j].monomial_count > _SIZE_CAP:
                kind = "mul" if universe else "tw"
            else:
                a, b = rng.randrange(axioms.field.p), rng.randrange(axioms.field.p)
                out.append(("lin", a, i, b, j))
                polys.append(polys[i].scale(a).add(polys[j].scale(b)))
                continue
        if kind == "mul":
            i = rng.randrange(len(polys))
            v = rng.choice(universe)
            if rng.random() < 0.5:
                v = v.twin
            out.append(("mul", v, i))
            polys.append(polys[i].mul_var(v))
        elif kind == "tw":
            v = rng.choice(universe)
            out.append(("tw", v))
            polys.append(twin_axiom_poly(v, axioms.field, axioms.basis))
        else:
            v = rng.choice(universe)
            out.append(("sq", v))
            polys.append(Poly.zero(axioms.field, axioms.basis))
    return PCProof(axioms, tuple(out))


# ---------------------------------------------------------------------------
# file formats


def write_pcproof(proof: PCProof, path, axioms_path: str) -> None:
    """Line-oriented text format; labels and axiom indices are 1-based
    in the file."""
    with open(str(path), "w") as fh:
        fh.write(
            f"pcproof v1 basis={proof.basis} field={proof.field.p} axioms={axioms_path}\n"
        )
        for k, step in enumerate(proof.steps):
            fh.write(f"L{k + 1} {format_step(step)}\n")


def format_step(step: Step) -> str:
    kind = step[0]
    if kind == "ax":
        return f"AX {step[1] + 1}"
    if kind == "sq":
        return f"SQ {format_var(step[1])}"
    if kind == "tw":
        return f"TW {format_var(step[1])}"
    if kind == "lin":
        _, a, i, b, j = step
        return f"LIN {a} L{i + 1} {b} L{j + 1}"
    if kind == "mul":
        _, v, i = step
        return f"MUL {format_var(v)} L{i + 1}"
    raise ValueError(f"unknown step kind {kind!r}")


def _parse_label(tok: str, upto: int) -> int:
    if not tok.startswith("L"):
        raise ValueError(f"expected line label, got {tok!r}")
    i = int(tok[1:]) - 1
    if not (0 <= i < upto):
        raise ValueError(f"label {tok} out of range")
    return i


def parse_step(text: str, k: int, field: Field) -> Step:
    toks = text.split()
    kind = toks[0]
    if kind == "AX" and len(toks) == 2:
        return ("ax", int(toks[1]) - 1)
    if kind == "SQ" and len(toks) == 2:
        return ("sq", parse_var(toks[1]))
    if kind == "TW" and len(toks) == 2:
        return ("tw", parse_var(toks[1]))
    if kind == "LIN" and len(toks) == 5:
        a = int(toks[1]) % field.p
        b = int(toks[3]) % field.p
        return ("lin", a, _parse_label(toks[2], k), b, _parse_label(toks[4], k))
    if kind == "MUL" and len(toks) == 3:
        return ("mul", parse_var(toks[1]), _parse_label(toks[2], k))
    raise ValueError(f"malformed step {text!r}")


def _read_proof_file(path, magic: str, keys: Sequence[str]) -> Tuple[Dict[str, str], List[str]]:
    """The header's key=value pairs and the step lines of a proof file."""
    with open(str(path)) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty proof file")
    head = lines[0].split()
    if head[:2] != [magic, "v1"]:
        raise ValueError(f"bad proof header: {lines[0]!r}")
    kv = dict(x.split("=", 1) for x in head[2:])
    for key in keys:
        if key not in kv:
            raise ValueError(f"{path}: proof header lacks {key}=")
    return kv, lines[1:]


def _beside(path, name: str) -> str:
    """A path named in a proof header, relative to the proof's directory."""
    return os.path.join(os.path.dirname(os.path.abspath(str(path))), name)


def read_pcproof(path, axioms: Optional[AxiomSystem] = None) -> PCProof:
    keys = ("basis", "field") if axioms is not None else ("basis", "field", "axioms")
    kv, lines = _read_proof_file(path, "pcproof", keys)
    if axioms is None:
        axioms = read_axioms(_beside(path, kv["axioms"]))
    if axioms.basis != kv["basis"] or axioms.field.p != int(kv["field"]):
        raise ValueError("proof header disagrees with the axiom system")
    steps = []
    for k, line in enumerate(lines):
        label, rest = line.split(None, 1)
        if label != f"L{k + 1}":
            raise ValueError(f"expected label L{k + 1}, got {label!r}")
        steps.append(parse_step(rest, k, axioms.field))
    return PCProof(axioms, tuple(steps))


def write_resproof(proof: ResolutionProof, path, cnf_path: str) -> None:
    with open(str(path), "w") as fh:
        fh.write(f"resproof v1 cnf={cnf_path}\n")
        for k, step in enumerate(proof.steps):
            if step[0] == "in":
                fh.write(f"L{k + 1} IN {step[1] + 1}\n")
            else:
                _, i, j, pivot = step
                fh.write(f"L{k + 1} RES L{i + 1} L{j + 1} {format_var(pivot)}\n")


def read_resproof(path, cnf: Optional[CNF] = None) -> ResolutionProof:
    kv, lines = _read_proof_file(path, "resproof", () if cnf is not None else ("cnf",))
    if cnf is None:
        cnf = read_dimacs(_beside(path, kv["cnf"]))
    steps: List[Step] = []
    for k, line in enumerate(lines):
        toks = line.split()
        if toks[0] != f"L{k + 1}":
            raise ValueError(f"expected label L{k + 1}, got {toks[0]!r}")
        if len(toks) == 3 and toks[1] == "IN":
            steps.append(("in", int(toks[2]) - 1))
        elif len(toks) == 5 and toks[1] == "RES":
            steps.append(("res", _parse_label(toks[2], k), _parse_label(toks[3], k), parse_var(toks[4])))
        else:
            raise ValueError(f"malformed step {line!r}")
    return ResolutionProof(cnf, tuple(steps))
