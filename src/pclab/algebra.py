"""Sparse multilinear polynomial arithmetic over a prime field.

Polynomials are dictionaries mapping canonical terms to nonzero field
coefficients.  A term is a sorted, duplicate-free tuple of variables, so
every polynomial is multilinear by construction; squares are folded away
at multiplication time according to the active encoding:

* ``boolean`` -- variables range over {0, 1} and v*v = v,
* ``fourier`` -- variables range over {+1, -1} and v*v = 1.

Every variable has a formal negation partner (its twin).  A term may
contain a variable together with its twin: twin reduction is a proof
step in the calculus, never an implicit rewrite, so the representation
keeps both.

Polynomials and variables are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import total_ordering
from typing import Callable, Iterable, Mapping, Optional, Tuple

DEFAULT_PRIME = 2**31 - 1

BOOLEAN = "boolean"
FOURIER = "fourier"
BASES = (BOOLEAN, FOURIER)


class BasisMismatch(ValueError):
    """Mixed {0,1}/{+1,-1} operands, or an op undefined for the basis."""


class ScaleLimitExceeded(ValueError):
    """An exhaustive computation would exceed its hard size cap."""


# ---------------------------------------------------------------------------
# field


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the witness set covers well past 2^64
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """Prime field F_p with odd p, so that 2 is invertible."""

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.p == 2 or not _is_prime(self.p):
            raise ValueError(f"field order must be an odd prime, got {self.p}")

    def reduce(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, -1, self.p)


DEFAULT_FIELD = Field(DEFAULT_PRIME)


# ---------------------------------------------------------------------------
# variables

_KIND_RANK = {"y": 0, "x": 1, "z": 2, "v": 3}


@total_ordering
@dataclass(frozen=True)
class Var:
    """A variable identifier.

    kind 'x' is a gadget/edge variable x(i,j,l) asserting i orders
    before j (l = 0 for the unlifted variable, l >= 1 once lifted),
    'y' a pointer bit y(j,a), 'z' a clustered gadget variable z(i,j,l),
    and 'v' a free-form named variable.  ``negated`` marks the twin.
    The canonical variable order puts pointer variables before edge
    variables and is otherwise index-lexicographic.
    """

    kind: str
    index: tuple
    negated: bool = False

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown variable kind {self.kind!r}")

    @property
    def twin(self) -> "Var":
        return replace(self, negated=not self.negated)

    @property
    def base(self) -> "Var":
        return self if not self.negated else replace(self, negated=False)

    def _key(self):
        return (_KIND_RANK[self.kind], self.index, self.negated)

    def __lt__(self, other: "Var") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        return format_var(self)

    def __repr__(self) -> str:
        return f"Var[{format_var(self)}]"


def edge(i: int, j: int, l: int = 0) -> Var:
    if i == j:
        raise ValueError(f"edge variable needs distinct endpoints, got ({i},{j})")
    return Var("x", (i, j, l))


def pointer(j: int, a: int) -> Var:
    return Var("y", (j, a))


def cluster_var(i: int, j: int, l: int) -> Var:
    if i == j:
        raise ValueError(f"cluster variable needs distinct endpoints, got ({i},{j})")
    return Var("z", (i, j, l))


def plain(name: str) -> Var:
    return Var("v", (name,))


# ---------------------------------------------------------------------------
# terms

Term = Tuple[Var, ...]

EMPTY_TERM: Term = ()


def make_term(vs: Iterable[Var]) -> Term:
    return tuple(sorted(set(vs)))


def term_degree(t: Term) -> int:
    return len(t)


def mul_term_by_var(t: Term, v: Var, basis: str) -> Tuple[Term, int]:
    """Multiply a term by one variable, folding the square per basis.

    Returns (term, sign); the sign is +1 under both encodings (v*v = v
    keeps the variable, v*v = 1 drops it) and is part of the contract so
    callers never assume more than they should.
    """
    if basis not in BASES:
        raise BasisMismatch(f"unknown basis {basis!r}")
    if v in t:
        if basis == BOOLEAN:
            return t, 1
        return tuple(u for u in t if u != v), 1
    out = list(t)
    lo, hi = 0, len(out)
    while lo < hi:
        mid = (lo + hi) // 2
        if out[mid] < v:
            lo = mid + 1
        else:
            hi = mid
    out.insert(lo, v)
    return tuple(out), 1


def term_mul(t1: Term, t2: Term, basis: str) -> Term:
    """Product of two terms in the quotient: union (boolean) or
    symmetric difference (fourier).  Twin pairs are never folded."""
    if basis == BOOLEAN:
        return make_term(t1 + t2) if t2 else t1
    if basis == FOURIER:
        return make_term(set(t1) ^ set(t2))
    raise BasisMismatch(f"unknown basis {basis!r}")


def grlex_key(t: Term):
    """Sort key realizing graded lexicographic order: degree first, ties
    broken by comparing variables from the largest down."""
    return (len(t), tuple(reversed(t)))


def compare_grlex(t1: Term, t2: Term, key: Optional[Callable[[Var], object]] = None) -> int:
    """-1, 0, or +1 as t1 precedes, equals, or follows t2 in graded lex.

    ``key`` optionally replaces the canonical variable order.
    """
    if key is None:
        k1, k2 = grlex_key(t1), grlex_key(t2)
    else:
        k1 = (len(t1), tuple(sorted((key(v) for v in t1), reverse=True)))
        k2 = (len(t2), tuple(sorted((key(v) for v in t2), reverse=True)))
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Immutable sparse multilinear polynomial."""

    __slots__ = ("field", "basis", "terms")

    def __init__(self, field: Field, basis: str, terms: Optional[Mapping[Term, int]] = None):
        if basis not in BASES:
            raise BasisMismatch(f"unknown basis {basis!r}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "basis", basis)
        clean = {}
        if terms:
            for t, c in terms.items():
                c = c % field.p
                if c:
                    clean[t] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # constructors

    @classmethod
    def zero(cls, field: Field, basis: str) -> "Poly":
        return cls(field, basis, {})

    @classmethod
    def constant(cls, field: Field, basis: str, c: int) -> "Poly":
        return cls(field, basis, {EMPTY_TERM: c})

    @classmethod
    def variable(cls, field: Field, basis: str, v: Var) -> "Poly":
        return cls(field, basis, {(v,): 1})

    @classmethod
    def from_term(cls, field: Field, basis: str, t: Term, c: int = 1) -> "Poly":
        return cls(field, basis, {t: c})

    # basic queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((len(t) for t in self.terms), default=0)

    @property
    def monomial_count(self) -> int:
        return len(self.terms)

    def coefficient(self, t: Term) -> int:
        return self.terms.get(t, 0)

    def sorted_terms(self):
        return sorted(self.terms, key=grlex_key, reverse=True)

    def leading_term(self) -> Term:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return max(self.terms, key=grlex_key)

    def variables(self):
        out = set()
        for t in self.terms:
            out.update(t)
        return out

    # arithmetic

    def _check(self, other: "Poly"):
        if self.basis != other.basis:
            raise BasisMismatch(f"cannot mix {self.basis} and {other.basis}")
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")

    def add(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.field.p
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = (out.get(t, 0) + c) % p
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        return Poly(self.field, self.basis, out)

    def neg(self) -> "Poly":
        p = self.field.p
        return Poly(self.field, self.basis, {t: p - c for t, c in self.terms.items()})

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def scale(self, a: int) -> "Poly":
        a %= self.field.p
        if a == 0:
            return Poly.zero(self.field, self.basis)
        p = self.field.p
        return Poly(self.field, self.basis, {t: (c * a) % p for t, c in self.terms.items()})

    def mul_var(self, v: Var) -> "Poly":
        out: dict = {}
        p = self.field.p
        for t, c in self.terms.items():
            nt, sign = mul_term_by_var(t, v, self.basis)
            s = (out.get(nt, 0) + sign * c) % p
            if s:
                out[nt] = s
            else:
                out.pop(nt, None)
        return Poly(self.field, self.basis, out)

    def mul_term(self, m: Term) -> "Poly":
        out = self
        for v in m:
            out = out.mul_var(v)
        return out

    def mul(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.field.p
        out: dict = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = term_mul(t1, t2, self.basis)
                s = (out.get(t, 0) + c1 * c2) % p
                if s:
                    out[t] = s
                else:
                    out.pop(t, None)
        return Poly(self.field, self.basis, out)

    # evaluation

    def evaluate(self, assignment: Mapping[Var, bool]) -> int:
        """Value at a point, with truth values mapped through the basis
        encoding (boolean: TRUE=1, FALSE=0; fourier: TRUE=-1, FALSE=+1).

        The assignment maps variables to truth values; a twin may be
        given explicitly but must agree with its partner.
        """
        for v, val in assignment.items():
            w = v.twin
            if w in assignment and assignment[w] == val:
                raise ValueError(f"twin-inconsistent assignment at {v}")

        def truth(v: Var) -> bool:
            if v in assignment:
                return assignment[v]
            w = v.twin
            if w in assignment:
                return not assignment[w]
            raise ValueError(f"missing assignment for {v}")

        p = self.field.p
        total = 0
        for t, c in self.terms.items():
            val = c
            for v in t:
                val = val * encode_truth(truth(v), self.basis, self.field) % p
            total = (total + val) % p
        return total

    # comparisons / display

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.basis == other.basis
            and self.field.p == other.field.p
            and self.terms == other.terms
        )

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __repr__(self) -> str:
        return f"Poly({self.basis}; {format_poly(self)})"


def encode_truth(value: bool, basis: str, field: Field) -> int:
    if basis == BOOLEAN:
        return 1 if value else 0
    if basis == FOURIER:
        return field.p - 1 if value else 1
    raise BasisMismatch(f"unknown basis {basis!r}")


def compare_poly_grlex(p: Poly, q: Poly) -> Optional[int]:
    """Extension of graded lex to polynomials: compare the descending
    monomial sequences positionwise; a missing position is smallest.
    Returns -1/0/+1, or None when the sequences are identical but the
    polynomials differ (incomparable)."""
    s1, s2 = p.sorted_terms(), q.sorted_terms()
    for t1, t2 in zip(s1, s2):
        c = compare_grlex(t1, t2)
        if c:
            return c
    if len(s1) != len(s2):
        return -1 if len(s1) < len(s2) else 1
    if p == q:
        return 0
    return None


# ---------------------------------------------------------------------------
# text grammar
#
#   header:      field=<p> basis=<boolean|fourier>
#   polynomial:  <coef> * <var> <var> ... [; <coef> * ...]     one per line
#   variable:    x(i,j,l) | x(i,j) | y(j,a) | z(i,j,l) | name, "~" = twin


def format_var(v: Var) -> str:
    neg = "~" if v.negated else ""
    if v.kind == "v":
        return neg + v.index[0]
    if v.kind == "y":
        j, a = v.index
        return f"{neg}y({j},{a})"
    i, j, l = v.index
    if v.kind == "x" and l == 0:
        return f"{neg}x({i},{j})"
    return f"{neg}{v.kind}({i},{j},{l})"


def parse_var(tok: str) -> Var:
    s = tok.strip()
    negated = s.startswith("~")
    if negated:
        s = s[1:]
    if "(" in s:
        kind, rest = s.split("(", 1)
        kind = kind.strip()
        if kind not in ("x", "y", "z") or not rest.endswith(")"):
            raise ValueError(f"bad variable token {tok!r}")
        nums = [int(x) for x in rest[:-1].split(",")]
        if kind == "y":
            if len(nums) != 2:
                raise ValueError(f"bad pointer variable {tok!r}")
            v = pointer(*nums)
        else:
            if len(nums) == 2 and kind == "x":
                nums.append(0)
            if len(nums) != 3:
                raise ValueError(f"bad variable token {tok!r}")
            v = edge(*nums) if kind == "x" else cluster_var(*nums)
    else:
        if not s or not s[0].isalpha() or s in ("x", "y", "z"):
            raise ValueError(f"bad variable token {tok!r}")
        v = plain(s)
    return v.twin if negated else v


def format_term(t: Term, coef: int) -> str:
    if not t:
        return str(coef)
    return f"{coef} * " + " ".join(format_var(v) for v in t)


def format_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    return " ; ".join(format_term(t, p.terms[t]) for t in p.sorted_terms())


def parse_poly(line: str, field: Field, basis: str) -> Poly:
    terms: dict = {}
    for chunk in line.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "*" in chunk:
            coef_s, vars_s = chunk.split("*", 1)
            coef = int(coef_s.strip())
            vs = [parse_var(tok) for tok in vars_s.split()]
        else:
            try:
                coef = int(chunk)
                vs = []
            except ValueError:
                coef = 1
                vs = [parse_var(tok) for tok in chunk.split()]
        t = make_term(vs)
        if len(t) != len(vs):
            raise ValueError(f"duplicate variable in term: {chunk!r}")
        terms[t] = (terms.get(t, 0) + coef) % field.p
    return Poly(field, basis, terms)


def format_header(field: Field, basis: str) -> str:
    return f"field={field.p} basis={basis}"


def parse_header(line: str) -> Tuple[Field, str]:
    parts = dict(kv.split("=", 1) for kv in line.split())
    if set(parts) != {"field", "basis"}:
        raise ValueError(f"bad polynomial file header: {line!r}")
    basis = parts["basis"]
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    return Field(int(parts["field"])), basis


def write_poly_file(path, polys: Iterable[Poly], field: Field, basis: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_header(field, basis) + "\n")
        for p in polys:
            fh.write(format_poly(p) + "\n")


def read_poly_file(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ValueError(f"empty polynomial file {path}")
    field, basis = parse_header(lines[0])
    polys = [parse_poly(ln, field, basis) for ln in lines[1:] if ln.strip()]
    return field, basis, polys
