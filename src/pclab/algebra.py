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

__all__ = [
    "BASES",
    "BOOLEAN",
    "FOURIER",
    "DEFAULT_FIELD",
    "BasisMismatch",
    "Field",
    "Poly",
    "ScaleLimitExceeded",
    "Var",
    "cluster_var",
    "edge",
    "format_poly",
    "format_var",
    "make_term",
    "parse_poly",
    "parse_var",
    "plain",
    "pointer",
]

import functools
import gc
from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

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


_PRIME_PROOF_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve primes 2..37 as witnesses: exact below
    _PRIME_PROOF_BOUND (Sorenson & Webster, Math. Comp. 2017), while a
    composite from there on can pass."""
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
        if type(self.p) is not int:  # a float or numpy order would leak into every coefficient
            raise ValueError(f"field order must be an int, got {self.p!r}")
        if self.p >= _PRIME_PROOF_BOUND:
            raise ValueError(f"field order {self.p} is not below {_PRIME_PROOF_BOUND}, "
                             "the bound under which primality is proven")
        if self.p == 2 or not _is_prime(self.p):
            raise ValueError(f"field order must be an odd prime, got {self.p}")

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, -1, self.p)


DEFAULT_FIELD = Field(DEFAULT_PRIME)


# ---------------------------------------------------------------------------
# variables

_KIND_RANK = {"y": 0, "x": 1, "z": 2, "v": 3}


class Var(namedtuple("_VarFields", "rank kind index negated")):
    """A variable identifier.

    kind 'x' is a gadget/edge variable x(i,j,l) asserting i orders
    before j (l = 0 for the unlifted variable, l >= 1 once lifted),
    'y' a pointer bit y(j,a), 'z' a clustered gadget variable z(i,j,l),
    and 'v' a free-form named variable.  ``negated`` marks the twin.

    A variable is a tuple whose fields are the canonical order: the rank
    of its kind (pointer < edge < cluster < plain), then the index, then
    ``negated``, so a base sorts just before its twin.  Equality,
    hashing and comparison are the tuple's own.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: tuple, negated: bool = False):
        rank = _KIND_RANK.get(kind)
        if rank is None:
            raise ValueError(f"unknown variable kind {kind!r}")
        return tuple.__new__(cls, (rank, kind, index, negated))

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__, which takes no rank
        return self.kind, self.index, self.negated

    @property
    def twin(self) -> "Var":
        return tuple.__new__(Var, (self.rank, self.kind, self.index, not self.negated))

    @property
    def base(self) -> "Var":
        return self.twin if self.negated else self

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


def make_term(vs: Iterable[Var]) -> Term:
    return tuple(sorted(set(vs)))


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


def lin_dict(a: int, x: Mapping, b: int, y: Mapping, p: int) -> dict:
    """a*x + b*y mod p for dicts of coefficients in 1..p-1, keyed by terms."""
    a, b = a % p, b % p
    out = dict(x) if a == 1 else {t: c * a % p for t, c in x.items()} if a else {}
    if b:
        get = out.get
        for t, c in y.items():
            c = (get(t, 0) + c * b) % p
            if c:
                out[t] = c
            else:
                del out[t]
    return out


class TermCodec:
    """Terms as bit masks: the i-th base in canonical order at bit 2i, its
    twin at 2i+1, so within a degree graded lex is integer order.  ``mask``
    is the one map from terms to masks, ``lead`` the one graded-lex leader
    and ``fold`` the one reading of twins as bases.  Positions and the base
    bits are stored, not a table of masks, which would hold wide ints."""

    __slots__ = ("pos", "var_of", "even")

    def __init__(self, bases: Iterable[Var]):
        self.var_of: Tuple[Var, ...] = tuple(w for v in sorted(set(bases)) for w in (v, v.twin))
        self.pos: Dict[Var, int] = {v: i for i, v in enumerate(self.var_of)}
        self.even = (1 << len(self.var_of)) // 3  # bits 0, 2, 4, ...: (4^k - 1) / 3

    def mask(self, t: Term) -> int:
        """The mask of a term; KeyError for a variable outside the codec."""
        return sum(1 << self.pos[v] for v in t)

    def fold(self, mask: int) -> int:
        """The mask of a term's bases: each twin bit moved onto its base."""
        return (mask | mask >> 1) & self.even

    @staticmethod
    def lead(masks: Iterable[int]) -> int:
        """The graded-lex largest of some masks: most bits, then largest."""
        return max(masks, key=lambda m: (m.bit_count(), m))

    def encode(self, p: "Poly") -> Dict[int, int]:
        """A polynomial as a ``{mask: coeff}`` dict."""
        return {self.mask(t): c for t, c in p.terms.items()}

    def term(self, mask: int) -> Term:
        """The term whose variables sit at the set bits of ``mask``."""
        t = []
        while mask:
            low = mask & -mask
            t.append(self.var_of[low.bit_length() - 1])
            mask ^= low
        return tuple(t)


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
        # the one reduction mod p: callers pass unreduced sums and zeros.
        # The copy keeps the stored hashes; only entries outside 1..p-1
        # are looked up again.
        p = field.p
        clean = dict(terms) if terms else {}
        for t in [t for t, c in clean.items() if not 0 < c < p]:
            c = clean[t] % p
            if c:
                clean[t] = c
            else:
                del clean[t]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_term(cls, field: Field, basis: str, t: Term, c: int = 1) -> "Poly":
        return cls(field, basis, {t: c})

    # basic queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max(map(len, self.terms), default=0)

    @property
    def monomial_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self):
        return sorted(self.terms, key=grlex_key, reverse=True)

    def variables(self):
        return {v for t in self.terms for v in t}

    # arithmetic

    def _check(self, other: "Poly"):
        if self.basis != other.basis:
            raise BasisMismatch(f"cannot mix {self.basis} and {other.basis}")
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")

    def lin(self, a: int, other: "Poly", b: int) -> "Poly":
        """a*self + b*other."""
        self._check(other)
        return Poly(self.field, self.basis, lin_dict(a, self.terms, b, other.terms, self.field.p))

    def mul_var(self, v: Var) -> "Poly":
        """v * self: v*v folds to v (boolean) or to 1 (fourier); a twin
        is never folded."""
        return self.mul(Poly.from_term(self.field, self.basis, (v,)))

    def mul(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.field.p
        out: dict = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = term_mul(t1, t2, self.basis)
                out[t] = (out.get(t, 0) + c1 * c2) % p
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

    def __repr__(self) -> str:
        return f"Poly({self.basis}; {format_poly(self)})"


def encode_truth(value: bool, basis: str, field: Field) -> int:
    if basis == BOOLEAN:
        return 1 if value else 0
    if basis == FOURIER:
        return field.p - 1 if value else 1
    raise BasisMismatch(f"unknown basis {basis!r}")


# ---------------------------------------------------------------------------
# text grammar
#
#   header:      <magic words> <key>=<value> ...       read by LineReader.header
#   polynomial:  <coef> * <var> <var> ... [; <coef> * ...]     one per line
#   variable:    x(i,j,l) | x(i,j) | y(j,a) | z(i,j,l) | name, "~" = twin


@functools.lru_cache(maxsize=1 << 16)
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


@functools.lru_cache(maxsize=1 << 16)
def parse_var(tok: str) -> Var:
    """The variable a token names.  Results are cached per token, so the
    variables read from one file are shared objects; a bad token raises
    every time, since exceptions are not cached."""
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
        terms[t] = terms.get(t, 0) + coef
    return Poly(field, basis, terms)


def parse_fields(tokens: Iterable[str], required=(), allowed=()) -> Dict[str, str]:
    """``key=value`` tokens as a dict.  Every ``required`` key must be
    present, and no key outside ``required`` and ``allowed`` may be."""
    known = set(required) | set(allowed)
    fields: Dict[str, str] = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        if key not in known:
            raise ValueError(f"unknown key {key!r}")
        fields[key] = value
    for key in required:
        if key not in fields:
            raise ValueError(f"header lacks {key}=")
    return fields


class FileFormatError(ValueError):
    """Malformed text; the message names the file, and the line at fault."""


class _GCPause:
    """The cyclic garbage collector is off in the ``with`` body, and the
    caller's setting is back on every exit; when it is already off this
    does nothing.  A file read or a whole-proof build makes a long-lived
    tuple per line and no cycle, and each older-generation collection
    would walk them all again."""

    def __enter__(self) -> None:
        self._was = gc.isenabled()
        if self._was:
            gc.disable()

    def __exit__(self, kind, exc, tb) -> None:
        if self._was:
            gc.enable()


class LineReader:
    """Streams the stripped, non-blank lines of a text file, and with
    ``comments`` skips lines starting with ``#``.  ``k`` is the 1-based
    physical number of the current line, None before the first and after
    the last.  A ValueError raised in the ``with`` body is re-raised as
    ``<path>: <reason> (line <k>)``, or as ``<path>: <reason>`` when no
    line is current; a FileFormatError from a nested read passes as is.
    The cyclic collector is paused from the open to the exit, and the
    caller's setting is restored.
    """

    def __init__(self, path, comments: bool = False):
        self.path = str(path)
        self.k: Optional[int] = None
        self._comments = comments

    def __enter__(self) -> "LineReader":
        self._fh = open(self.path, "rb")
        self._lines = self._stream()
        self._pause = _GCPause()
        self._pause.__enter__()
        return self

    def __exit__(self, kind, exc, tb) -> None:
        self._pause.__exit__(kind, exc, tb)
        self._fh.close()
        if isinstance(exc, ValueError) and not isinstance(exc, FileFormatError):
            where = "" if self.k is None else f" (line {self.k})"
            raise FileFormatError(f"{self.path}: {exc}{where}") from None

    def __iter__(self) -> Iterator[str]:
        return self._lines

    def _stream(self) -> Iterator[str]:
        for k, raw in enumerate(self._fh, 1):
            self.k = k
            line = raw.decode("utf-8").strip()
            if line and not (self._comments and line.startswith("#")):
                yield line
        self.k = None

    def header(self, what: str, magic: str = "", required=(), allowed=()) -> Dict[str, str]:
        """Read the first line: the words of ``magic``, then ``key=value``
        fields as ``parse_fields`` checks them."""
        line = next(self._lines, None)
        if line is None:
            raise ValueError(f"empty {what} file")
        words, head = line.split(), magic.split()
        if words[: len(head)] != head:
            raise ValueError(f"expected a {magic!r} header, got {line!r}")
        return parse_fields(words[len(head) :], required, allowed)
