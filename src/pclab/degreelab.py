"""Linear spans of axiom families, normal forms, and the touch-keyed
reduction operator behind the degree experiments.

The span of a polynomial family is the smallest linear space that
contains it and is closed under multiplication by variables -- all a
derivation can reach with no degree cap.  ``span_basis`` computes
canonical remainders modulo a span by two independent routes (point
evaluation, and a Groebner basis built by Buchberger's algorithm);
``ResidueOracle`` reduces each term modulo the span keyed by the
vertex set the term touches, yielding the operator whose properties the
``verify_*`` runners check case by case.  From the spans to the runners
a term is a mask over one ``TermCodec`` and a polynomial a ``{mask:
coeff}`` dict; only the public wrappers and failure messages decode.
"""

from __future__ import annotations

__all__ = [
    "HeavySelection",
    "LemmaReport",
    "ResidueOracle",
    "RoundReport",
    "SpanBasis",
    "bop_context",
    "heavy_split_round",
    "heavy_term_selection",
    "span_basis",
    "verify_all",
    "verify_residue_operator",
    "verify_residue_product",
    "verify_residue_properties",
    "verify_residue_support",
    "verify_touch_extension",
    "verify_touch_superset",
]

import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    BOOLEAN,
    DEFAULT_FIELD,
    BasisMismatch,
    Field,
    Poly,
    ScaleLimitExceeded,
    Term,
    TermCodec,
    Var,
    edge,
    format_poly,
    format_var,
    pointer,
)
from .formulas import AxiomSystem, Cube, cnf_to_axioms, gen_bop_lifted, pointer_bits
from .proofs import PCProof, _quadratic_masks, _touch_rule, touched
from .transforms import isolate_vertex_restriction, restrict_proof, split

SPAN_VAR_LIMIT = 16
SPAN_POINTS_LIMIT = 1024
CLOSURE_STEP_LIMIT = 3_000_000
CLOSURE_STD_LIMIT = 4096


# ---------------------------------------------------------------------------
# span bases


def _collect(pairs: Iterable[Tuple[int, int]], p: int) -> Dict[int, int]:
    """Sum (mask, coeff) pairs mod p, zeros dropped: equal sums are equal dicts."""
    out: Dict[int, int] = {}
    for m, c in pairs:
        out[m] = out.get(m, 0) + c
    return {m: c % p for m, c in out.items() if c % p}


class _PointsEngine:
    """Remainders via evaluation on the common zero set.

    Modulo the span, a polynomial is its function on the family's common
    zeros (at most ``SPAN_POINTS_LIMIT`` of them).  The standard monomials
    are the graded-lex-first monomials whose value vectors there are
    independent; they form an order ideal, so the Buchberger-Moeller build
    visits one degree at a time only the candidates whose one-variable
    divisors are all standard.  Each candidate's values are reduced
    against the rows found so far, kept in reduced echelon form (a unit at
    the row's own pivot point, zeros at the other pivots) beside their
    expressions over the standard monomials.  A candidate that reduces to
    zero is a leading term; any other is standard, and its scaled residue
    becomes a row.  Once every point is a pivot, each row is the unit
    vector of its pivot, so the expressions, scattered by pivot, invert
    the standard monomials' value matrix: a remainder is one product.
    """

    def __init__(self, polys: Sequence[Poly], codec: TermCodec, bits: Sequence[int], field: Field, basis: str):
        import numpy as np

        self.field = field
        self.bits = bits  # bits[i]: the span codec's bit for the cube's bit i, mapped both ways at the boundary
        self.cube = Cube((codec.var_of[b.bit_length() - 1] for b in bits), field, basis)
        self.points = np.concatenate(list(self.cube.common_zeros(polys)))
        if len(self.points) > SPAN_POINTS_LIMIT:
            raise ScaleLimitExceeded(
                f"{len(self.points)} common zeros exceed the points limit of {SPAN_POINTS_LIMIT}"
            )
        p = field.p
        npts = len(self.points)
        units = [1 << i for i in range(len(bits))]  # the cube's own bits
        # row k: its values at the points, then its expression over std
        rows = np.zeros((npts, 2 * npts), dtype=np.int64)
        piv: List[int] = []
        std: List[int] = []
        level = [0]  # ascending masks of one degree: graded-lex order
        while level and len(std) < npts:
            start = len(std)
            for m in level:
                k = len(std)
                vals = self.cube.monomials(self.points, m, 0).astype(np.int64)
                res = np.concatenate((vals, np.zeros(k, np.int64), [1]))
                res -= np.einsum("i,ij->j", vals[piv], rows[:k, : npts + k + 1])
                res %= p
                nz = np.flatnonzero(res[:npts])
                if not nz.size:
                    continue
                q = int(nz[0])
                res = (res * field.inv(int(res[q]))) % p
                # clear column q from the rows nonzero there, on res's support only
                sel = np.flatnonzero(rows[:k, q])
                cols = np.flatnonzero(res)
                at = np.ix_(sel, cols)
                rows[at] = (rows[at] - rows[sel, q, None] * res[cols]) % p
                rows[k, : npts + k + 1] = res
                piv.append(q)
                std.append(m)
                if len(std) == npts:
                    break
            have = set(std)
            nxt = sorted({m | u for m in std[start:] for u in units if not m & u})
            level = [c for c in nxt if all(c ^ u in have for u in units if c & u)]
        if len(std) != npts:
            raise ArithmeticError("monomials failed to span the point functions")
        self.std = tuple(sum(b for i, b in enumerate(bits) if m >> i & 1) for m in std)
        self._nf = {m: {m: 1} for m in self.std}
        # every row is now the unit vector of its pivot point
        self._minv = np.zeros((npts, npts), dtype=np.int64)
        self._minv[:, piv] = rows[:, npts:].T

    def _nf_mask(self, mask: int) -> Dict[int, int]:
        got = self._nf.get(mask)
        if got is None:
            cube = sum(1 << i for i, b in enumerate(self.bits) if mask & b)
            coef = (self._minv @ self.cube.monomials(self.points, cube, 0)) % self.field.p
            got = self._nf[mask] = {s: c for s, c in zip(self.std, coef.tolist()) if c}
        return got

    def reduce(self, f: Dict[int, int]) -> Dict[int, int]:
        if not self.std:  # no common zero: the span is the whole ring
            return {}
        return _collect(((s, c * cs) for m, c in f.items() for s, cs in self._nf_mask(m).items()), self.field.p)


class _ClosureEngine:
    """Remainders via a Groebner basis, built by Buchberger's algorithm on
    the masks of the span codec's active bits, where graded lex is
    (degree, mask) order.  A term times a term is ``m | b`` in
    {0,1}, where ``v*v = v``, and ``m ^ b`` in {+1,-1}, where ``v*v = 1``.
    Pairs are taken smallest lcm first.  Leads with no common variable make
    no pair (Buchberger's product criterion); of a new lead's pairs, Gebauer
    and Moeller's criteria M and F keep one per lcm and none whose lcm
    another's divides; the pairs with the field equations are ``v*g`` for
    each ``v`` in g's lead.  ``groebner`` maps each lead to its monic,
    tail-reduced polynomial, and the leads cut out the standard monomials.
    """

    def __init__(self, polys: Sequence[Poly], codec: TermCodec, bits: Sequence[int], field: Field, basis: str):
        self.field, self.codec = field, codec
        self._or = basis == BOOLEAN
        self._left = CLOSURE_STEP_LIMIT
        self.groebner: Dict[int, Dict[int, int]] = {}
        # a pair is (lcm degree, lcm, order, parts): the sum of c*u*g over its
        # parts (g, u, c); the inputs come first
        heap = [(0, 0, i, ((self.codec.encode(q), 0, 1),)) for i, q in enumerate(polys)]
        order = itertools.count(len(heap))
        while heap:
            f: Dict[int, int] = {}
            for g, u, c in heapq.heappop(heap)[3]:
                for m, cm in g.items():
                    m = m | u if self._or else m ^ u
                    f[m] = f.get(m, 0) + c * cm
            g = self.reduce(f)
            if not g:
                continue
            lt = self.codec.lead(g)
            inv = field.inv(g[lt])
            g = {m: c * inv % field.p for m, c in g.items()}
            # sorted, the lcms that divide others come first
            new = sorted(((l | lt).bit_count(), l | lt, l) for l in self.groebner if l & lt)
            lcms: List[int] = []
            for _, lcm, lead in new:
                if not any(m & lcm == m for m in lcms):
                    lcms.append(lcm)
                    parts = ((g, lcm ^ lt, 1), (self.groebner[lead], lcm ^ lead, -1))
                    heapq.heappush(heap, (lcm.bit_count(), lcm, next(order), parts))
            self._left -= len(new) * len(lcms)
            for v in bits:
                if v & lt:
                    heapq.heappush(heap, (lt.bit_count() + 1, lt, next(order), ((g, v, 1),)))
            self.groebner = {m: h for m, h in self.groebner.items() if lt & m != lt}
            self.groebner[lt] = g
        self.groebner = {m: {m: 1, **self.reduce({s: c for s, c in g.items() if s != m})}
                         for m, g in self.groebner.items()}
        self._left = math.inf  # remainders after the build are not counted
        # the order ideal, one degree at a time: the one-variable multiples
        # of the last degree that are no lead and whose divisors there all are
        std, level = [], [0] if 0 not in self.groebner else []
        while level:
            std += level
            if len(std) > CLOSURE_STD_LIMIT:
                raise ScaleLimitExceeded(f"more than {CLOSURE_STD_LIMIT} standard monomials exceed the closure limit")
            have = set(level)
            nxt = sorted({m | b for m in level for b in bits if not m & b})
            level = [c for c in nxt if c not in self.groebner and all(c ^ b in have for b in bits if c & b)]
        self.std = tuple(std)

    def reduce(self, f: Dict[int, int]) -> Dict[int, int]:
        """The remainder of a ``{mask: coeff}`` dict, which it consumes:
        each term, largest first, is kept or replaced by the smaller terms
        of a lead's multiple.  It costs a step, plus one per lead and one
        per term of the multiple."""
        out: Dict[int, int] = {}
        heap = [(-m.bit_count(), -m) for m in f]
        heapq.heapify(heap)
        while heap:
            m = -heapq.heappop(heap)[1]
            c = f.pop(m) % self.field.p
            if not c:
                continue
            lead = next((l for l in self.groebner if l & m == l), None)
            g = self.groebner.get(lead, {})
            self._left -= 1 + len(self.groebner) + len(g)
            if self._left < 0:
                raise ScaleLimitExceeded(f"the Groebner basis exceeds the closure limit of {CLOSURE_STEP_LIMIT} steps")
            if not g:
                out[m] = c
            for s, cs in g.items():
                if s != lead:
                    s = s | (m ^ lead) if self._or else s ^ (m ^ lead)
                    if s not in f:
                        heapq.heappush(heap, (-s.bit_count(), -s))
                    f[s] = f.get(s, 0) - c * cs
        return out


class SpanBasis:
    """Canonical remainders modulo a span; build with ``span_basis``.

    ``reduce`` maps a polynomial to the graded-lex least member of its
    coset, supported on the standard monomials; ``contains`` is
    membership in the span itself.  Terms are masks over ``codec``, the
    ``TermCodec`` of the universe; the engine sees only the active bits.
    """

    def __init__(self, polys: Sequence[Poly], universe: Tuple[Var, ...], method: str, field: Field, basis: str):
        self.field = field
        self.basis = basis
        self.universe = universe
        self.codec = TermCodec(universe)
        self.active = tuple(sorted({v for p in polys for v in p.variables()}))
        self._bits = [1 << self.codec.pos[v] for v in self.active]
        self._active = sum(self._bits)
        engine = _PointsEngine if method == "points" else _ClosureEngine
        self._engine = engine(polys, self.codec, self._bits, field, basis)

    @property
    def std_monomials(self) -> Tuple[Term, ...]:
        """Monomials over the constrained variables whose remainders are
        themselves, in graded-lex order; free variables multiply in."""
        return tuple(map(self.codec.term, self._engine.std))

    def _reduce(self, f: Dict[int, int]) -> Dict[int, int]:
        """The remainder of a ``{mask: coeff}`` dict over ``codec``: the terms
        are grouped by their free variables, which multiply in, and each
        group's active part is reduced by the engine."""
        groups: Dict[int, Dict[int, int]] = {}
        for m, c in f.items():
            groups.setdefault(m & ~self._active, {})[m & self._active] = c
        return {m | free: c for free, g in groups.items() for m, c in self._engine.reduce(g).items()}

    def reduce(self, poly: Poly) -> Poly:
        if poly.basis != self.basis:
            raise BasisMismatch(f"cannot reduce a {poly.basis} polynomial in a {self.basis} span")
        if poly.field.p != self.field.p:
            raise ValueError("field mismatch")
        for v in poly.variables():
            if v.negated:
                raise ValueError(f"span input must be twin-free, got {format_var(v)}")
            if v not in self.codec.pos:
                raise ValueError(f"variable {format_var(v)} outside the span universe")
        r = self._reduce(self.codec.encode(poly))
        return Poly(self.field, self.basis, dict(zip(map(self.codec.term, r), r.values())))

    def contains(self, poly: Poly) -> bool:
        return self.reduce(poly).is_zero

    def leading_terms(self) -> Tuple[Term, ...]:
        """Minimal non-standard monomials: every proper divisor is
        standard, so these generate everything the span rewrites."""
        std, bits = set(self._engine.std), self._bits
        if 0 not in std:
            return ((),)
        border = {m | b for m in std for b in bits if not m & b} - std
        mins = [m for m in border if all(m ^ b in std for b in bits if m & b)]
        return tuple(map(self.codec.term, sorted(mins, key=lambda m: (m.bit_count(), m))))


def _points_var_cap(count: int) -> None:
    if count > SPAN_VAR_LIMIT:
        raise ScaleLimitExceeded(f"{count} variables exceed the points limit of {SPAN_VAR_LIMIT}")


def span_basis(
    polys: Iterable[Poly],
    universe: Optional[Iterable[Var]] = None,
    basis: Optional[str] = None,
    field: Optional[Field] = None,
    method: str = "points",
) -> SpanBasis:
    """Normal-form engine for the span of ``polys``.

    ``method="points"`` enumerates the common zeros of the family over
    the variables it mentions, whatever the universe, and runs one
    Buchberger-Moeller elimination over them.  Its costs are the cube it
    enumerates and the matrices it eliminates, so it refuses more than
    ``SPAN_VAR_LIMIT`` (16) such variables or more than
    ``SPAN_POINTS_LIMIT`` (1024) common zeros.  ``method="closure"``
    builds a Groebner basis over the same variables, a cost no variable
    count bounds, so it counts steps (a term visited, a lead tested, a
    term subtracted, a pair compared) and refuses more than
    ``CLOSURE_STEP_LIMIT``, twice what the largest in-regime key of
    ``bop_context(4, 1)`` takes, or an order ideal of more than
    ``CLOSURE_STD_LIMIT`` (4096) standard monomials to walk.  Either
    refusal comes within about a second and raises
    ``ScaleLimitExceeded``.  Both routes reduce masks over the span's
    codec, inside the span's one free-variable rule; they share no
    reduction code -- they agree everywhere and are cross-checked in the
    tests, where sympy Groebner bases check both.  Twin variables must be
    expanded away before calling.
    """
    polys = list(polys)
    for p in polys:
        if field is None:
            field = p.field
        if basis is None:
            basis = p.basis
        if p.field.p != field.p:
            raise ValueError("mixed fields in span input")
        if p.basis != basis:
            raise BasisMismatch("mixed bases in span input")
    if field is None or basis is None:
        raise ValueError("field and basis are required when no polynomials are given")
    seen = sorted({v for p in polys for v in p.variables()})
    uni = seen if universe is None else sorted(set(universe))
    for what, variables in (("input", seen), ("universe", uni)):
        for v in variables:
            if v.negated:
                raise ValueError(f"span {what} must be twin-free, got {format_var(v)}")
    missing = set(seen) - set(uni)
    if missing:
        raise ValueError(f"universe misses {sorted(format_var(v) for v in missing)}")
    if method not in ("points", "closure"):
        raise ValueError(f"unknown method {method!r}")
    if method == "points":
        _points_var_cap(len(seen))
    return SpanBasis(polys, tuple(uni), method, field, basis)


# ---------------------------------------------------------------------------
# touch-keyed reduction


def bop_context(n: int, ell: int = 1, field: Field = DEFAULT_FIELD) -> AxiomSystem:
    """Twin-free {0,1} translation of the lifted pointing family: the
    shared context for the reduction operator."""
    return cnf_to_axioms(gen_bop_lifted(n, ell), BOOLEAN, field, twins=False)


class ResidueOracle:
    """Touch-keyed reduction over a pointing-family axiom system.

    A term is reduced modulo the span of the ordering group together
    with the pointer groups of exactly the vertices it touches.  Each span
    is built over ``context.universe``, so masks over ``context.codec``
    pass to it as they are.  Spans per key, and remainders and touch keys
    per mask, are cached, so exhaustive sweeps stay cheap and each new
    oracle starts cold.  Equal touch keys are one frozenset.
    """

    def __init__(self, context: AxiomSystem):
        if context.basis != BOOLEAN:
            raise BasisMismatch("the reduction operator works on the {0,1} side")
        if context.n is None or context.ell is None:
            raise ValueError("context needs the (n, ell) family parameters")
        if "T" not in context.groups:
            raise ValueError("context needs the ordering group 'T'")
        for j in range(1, context.n + 1):
            if f"BV({j})" not in context.groups:
                raise ValueError(f"context needs the pointer group 'BV({j})'")
        if any(v.negated for p in context.polys for v in p.variables()):
            raise ValueError("context must be twin-free; translate with twins=False")
        self.context = context
        self.n, self.ell = context.n, context.ell
        self._touch = _touch_rule(context.codec, self.n, self.ell)
        self._vars = [(1 << context.codec.pos[v], v) for v in context.universe]  # (bit, variable)
        self._spans: Dict[FrozenSet[int], SpanBasis] = {}
        self._rem: Dict[int, Dict[int, int]] = {}
        self._tau: Dict[int, FrozenSet[int]] = {}
        self._keys: Dict[FrozenSet[int], FrozenSet[int]] = {}

    def span_for(self, vertices: Iterable[int]) -> SpanBasis:
        key = frozenset(vertices)
        # 1.0 and True equal the vertex 1, but name no vertex
        bad = [j for j in key if type(j) is not int or not 1 <= j <= self.n]
        if bad:
            try:
                bad.sort()
            except TypeError:  # mixed types, as {'a', 2.5}: by type name, then text
                bad.sort(key=lambda j: (type(j).__name__, repr(j)))
            raise ValueError(f"vertices {bad} outside 1..{self.n}")
        got = self._spans.get(key)
        if got is None:
            groups = ["T"] + [f"BV({j})" for j in sorted(key)]
            family = [self.context.polys[i] for g in groups for i in self.context.groups[g]]
            got = self._spans[key] = span_basis(family, self.context.universe, self.context.basis, self.context.field)
        return got

    def _key(self, m: int) -> FrozenSet[int]:
        """The touch key of a mask over ``context.codec``, computed once
        per mask, and raised every time if the touch rule refuses it."""
        got = self._tau.get(m)
        if got is None:
            key = self._touch(m).tau
            got = self._tau[m] = self._keys.setdefault(key, key)
        return got

    def _remainder(self, m: int) -> Dict[int, int]:
        """The remainder of one term's mask under its touch key."""
        got = self._rem.get(m)
        if got is None:
            got = self._rem[m] = self.span_for(self._key(m))._reduce({m: 1})
        return got

    def _apply(self, pairs: Iterable[Tuple[int, int]]) -> Dict[int, int]:
        """The reduction of the sum of some (mask, coeff) pairs."""
        return _collect(((s, c * cs) for m, c in pairs for s, cs in self._remainder(m).items()), self.context.field.p)

    def _mask(self, t: Term) -> int:
        """The mask of a term over ``context.codec``; a term the codec cannot
        encode is refused by the touch rule, else as outside the span universe."""
        try:
            return self.context.codec.mask(t)
        except KeyError as e:  # e names the first variable outside the codec
            self.tau(t)
            raise ValueError(f"variable {format_var(e.args[0])} outside the span universe") from None

    def _decode(self, f: Dict[int, int]) -> Poly:
        return Poly(self.context.field, BOOLEAN, dict(zip(map(self.context.codec.term, f), f.values())))

    def tau(self, t: Term) -> FrozenSet[int]:
        """The touch key of a term: the touch rule on its mask over ``context.codec``,
        or ``touched`` for a term outside it; raised every time if invalid."""
        try:
            return self._key(self.context.codec.mask(t))
        except KeyError:  # a variable outside the codec
            key = touched(t, self.n, self.ell).tau
            return self._keys.setdefault(key, key)

    def R_term(self, t: Term) -> Poly:
        return self._decode(self._remainder(self._mask(t)))

    def R(self, poly: Poly) -> Poly:
        """Linear extension of the per-term touch-keyed reduction."""
        if poly.basis != BOOLEAN:
            raise BasisMismatch("the reduction operator works on the {0,1} side")
        if poly.field.p != self.context.field.p:
            raise ValueError("field mismatch")
        return self._decode(self._apply((self._mask(t), c) for t, c in poly.terms.items()))


# ---------------------------------------------------------------------------
# lemma verification


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verified identity: how many cases ran and which
    failed."""

    name: str
    n: int
    ell: int
    cases: int
    counterexamples: Tuple[str, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def __str__(self) -> str:
        flag = "ok" if self.ok else f"{len(self.counterexamples)} FAILED"
        return f"{self.name}: {flag} ({self.cases} cases, n={self.n}, ell={self.ell}, {self.seconds:.2f}s)"


def _fmt_term(codec: TermCodec, m: int) -> str:
    return "*".join(map(format_var, codec.term(m))) or "1"


def _family_terms(codec: TermCodec, max_degree: int) -> Iterator[int]:
    """The mask of every term over the codec's bases up to
    ``max_degree``, in graded-lex order, one degree block at a time: a
    scale limit met by an early term fires before a large block is built.
    Within one degree, graded lex is integer order, and ``combinations``
    of the bits, largest first, yields the largest mask first, since a bit
    outweighs all smaller ones together; so each block is reversed.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    desc = [1 << i for i in range(len(codec.var_of) - 2, -1, -2)]
    return (sum(c) for d in range(max_degree + 1) for c in reversed(list(itertools.combinations(desc, d))))


def _default_oracle(n: int, ell: int, oracle: Optional[ResidueOracle]) -> ResidueOracle:
    if oracle is not None:
        if (oracle.n, oracle.ell) != (n, ell):
            raise ValueError("oracle context does not match the requested (n, ell)")
        return oracle
    return ResidueOracle(bop_context(n, ell))


def _in_regime(key: FrozenSet[int], n: int) -> bool:
    """Whether the reduction operator acts under a touch key: the key
    leaves at least one of the n vertices out.  At every size measured, a
    key covering all n vertices has no common zero, so its span is the
    whole ring, and a remainder modulo the whole ring is not a reduction."""
    return len(key) < n


def _lemma(name: str, n: int, ell: int, oracle: Optional[ResidueOracle],
           cases: Callable[[ResidueOracle], Iterable[Tuple[str, ...]]]) -> LemmaReport:
    """Check one identity case by case: ``cases`` yields, per case, its
    counterexamples, none when the case holds.  The time includes
    building the oracle when none is given."""
    start = time.perf_counter()
    oracle = _default_oracle(n, ell, oracle)
    count = 0
    bad: List[str] = []
    for found in cases(oracle):
        count += 1
        bad.extend(found)
    return LemmaReport(name, n, ell, count, tuple(bad), time.perf_counter() - start)


def _same_remainders(name: str, n: int, ell: int, max_degree: int, oracle: Optional[ResidueOracle],
                     keys: Callable[..., Iterable[Tuple[FrozenSet[int], str]]]) -> LemmaReport:
    """Per term mask t in regime, one case per labelled key in regime from
    ``keys(o, t, tau(t))``: t's remainder is the same under the key."""

    def cases(o: ResidueOracle) -> Iterable[Tuple[str, ...]]:
        codec = o.context.codec
        for t in _family_terms(codec, max_degree):
            if _in_regime(tau := o._key(t), n):
                base = o._remainder(t)
                for key, label in keys(o, t, tau):
                    if _in_regime(key, n):
                        yield () if o.span_for(key)._reduce({t: 1}) == base else (f"t={_fmt_term(codec, t)} {label}",)

    return _lemma(name, n, ell, oracle, cases)


def verify_touch_extension(
    n: int = 3, ell: int = 1, max_degree: int = 4, oracle: Optional[ResidueOracle] = None
) -> LemmaReport:
    """Multiplying a term by a variable can only grow its touch key, and
    the term's remainder is the same under either key."""
    return _same_remainders("touch-extension", n, ell, max_degree, oracle, lambda o, t, tau: (
        (o._key(t | b), f"w={format_var(w)}") for b, w in o._vars))


def verify_touch_superset(
    n: int = 3, ell: int = 1, max_degree: int = 4, oracle: Optional[ResidueOracle] = None
) -> LemmaReport:
    """Reducing under any proper-sized superset of the touch key gives
    the same remainder as the key itself."""

    def supersets(o: ResidueOracle, t: int, tau: FrozenSet[int]) -> Iterator[Tuple[FrozenSet[int], str]]:
        rest = [j for j in range(1, n + 1) if j not in tau]
        for key in (tau | set(extra) for k in range(len(rest) + 1) for extra in itertools.combinations(rest, k)):
            yield key, f"I={sorted(key)}"

    return _same_remainders("touch-superset", n, ell, max_degree, oracle, supersets)


def verify_residue_support(
    n: int = 3, ell: int = 1, max_degree: int = 4, oracle: Optional[ResidueOracle] = None
) -> LemmaReport:
    """Remainders never touch vertices the original term did not."""

    def cases(o: ResidueOracle) -> Iterable[Tuple[str, ...]]:
        codec = o.context.codec
        for t in _family_terms(codec, max_degree):
            tau = o._key(t)
            yield tuple(f"t={_fmt_term(codec, t)} term {_fmt_term(codec, s)} escapes {sorted(tau)}"
                        for s in o._remainder(t) if not o._key(s) <= tau)

    return _lemma("residue-support", n, ell, oracle, cases)


def _random_pool_poly(
    rng: random.Random, bits: Sequence[int], p: int, max_terms: int = 5, max_degree: int = 3
) -> Dict[int, int]:
    """A random sum of terms over some variables' bits, as ``{mask: coeff}``."""
    f: Dict[int, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        m = sum(rng.sample(bits, rng.randint(0, max_degree)))
        f[m] = f.get(m, 0) + rng.randrange(1, p)
    return f


def verify_residue_product(
    n: int = 3, ell: int = 1, samples: int = 500, seed: int = 0, oracle: Optional[ResidueOracle] = None
) -> LemmaReport:
    """Reduce-multiply-reduce agrees with multiply-reduce on random
    polynomials drawn from the variable pool of vertices 1 and 2.  For
    n >= 3 every product keeps its touch key below the full vertex set;
    at n = 2 the pool covers every vertex, so products leave the regime
    of ``_in_regime``."""
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")

    def cases(o: ResidueOracle) -> Iterable[Tuple[str, ...]]:
        pool = [pointer(j, a) for j in (1, 2) for a in range(1, pointer_bits(n) + 1)]
        pool += [edge(1, 2, l) for l in range(1, ell + 1)]
        pool += [edge(2, 1, l) for l in range(1, ell + 1)]
        pos, rng = o.context.codec.pos, random.Random(seed)
        bits = [1 << pos[v] for v in pool]
        for _ in range(samples):
            f = _random_pool_poly(rng, bits, o.context.field.p)
            w = rng.choice(pool)
            b = 1 << pos[w]
            same = o._apply((m | b, c) for m, c in f.items()) == o._apply((m | b, c) for m, c in o._apply(f.items()).items())
            yield () if same else (f"w={format_var(w)} P={format_poly(o._decode(f))}",)

    return _lemma("residue-product", n, ell, oracle, cases)


def _axiom_cases(o: ResidueOracle) -> Iterable[Tuple[str, ...]]:
    for i, axiom in enumerate(o.context.polys):
        yield () if not o._apply(o.context.codec.encode(axiom).items()) else (f"axiom {i} survives the reduction",)


def _unit_cases(o: ResidueOracle) -> Iterable[Tuple[str, ...]]:
    yield () if o._apply([(0, 1)]) == {0: 1} else ("the constant 1 is not fixed",)


def verify_residue_operator(
    n: int = 3, ell: int = 1, oracle: Optional[ResidueOracle] = None
) -> LemmaReport:
    """The reduction kills every axiom and fixes the constant 1: the
    axiom and unit checks of ``verify_residue_properties`` as one report."""
    return _lemma("residue-operator", n, ell, oracle,
                  lambda o: itertools.chain(_axiom_cases(o), _unit_cases(o)))


def verify_residue_properties(
    n: int = 3, ell: int = 1, pairs: int = 200, seed: int = 0, max_degree: int = 2,
    oracle: Optional[ResidueOracle] = None,
) -> Tuple[LemmaReport, ...]:
    """The four defining properties of the reduction operator, each as
    its own report: linearity on seeded pairs, axioms vanish, the unit
    is fixed, and the product condition on all small terms."""
    if pairs < 0:
        raise ValueError(f"pairs must be >= 0, got {pairs}")
    oracle = _default_oracle(n, ell, oracle)
    p, codec = oracle.context.field.p, oracle.context.codec
    small = _family_terms(codec, max_degree)

    def lin(a: int, f: Dict[int, int], b: int, g: Dict[int, int]) -> Iterator[Tuple[int, int]]:
        return itertools.chain(((m, a * c) for m, c in f.items()), ((m, b * c) for m, c in g.items()))

    def linearity(o: ResidueOracle) -> Iterable[Tuple[str, ...]]:
        rng, bits = random.Random(seed), [b for b, _ in o._vars]
        for _ in range(pairs):
            f1 = _random_pool_poly(rng, bits, p, max_terms=4)
            f2 = _random_pool_poly(rng, bits, p, max_terms=4)
            a = rng.randrange(p)
            b = rng.randrange(p)
            same = o._apply(lin(a, f1, b, f2)) == _collect(lin(a, o._apply(f1.items()), b, o._apply(f2.items())), p)
            yield () if same else (f"a={a} b={b} P={format_poly(o._decode(f1))} Q={format_poly(o._decode(f2))}",)

    def product(o: ResidueOracle) -> Iterable[Tuple[str, ...]]:
        for t in small:
            for b, w in o._vars:
                if _in_regime(o._key(t | b), n):
                    same = o._remainder(t | b) == o._apply((m | b, c) for m, c in o._remainder(t).items())
                    yield () if same else (f"t={_fmt_term(codec, t)} w={format_var(w)}",)

    return (
        _lemma("residue-linearity", n, ell, oracle, linearity),
        _lemma("residue-axioms-vanish", n, ell, oracle, _axiom_cases),
        _lemma("residue-unit-fixed", n, ell, oracle, _unit_cases),
        _lemma("residue-product-small", n, ell, oracle, product),
    )


# Every lemma runner by name, in report order: (n, ell, seed, oracle) ->
# reports.  Each call looks its runner up as a module global, so a
# wrapper installed on this module sees it.
LEMMAS: Dict[str, Callable[[int, int, int, ResidueOracle], Tuple[LemmaReport, ...]]] = {
    "properties": lambda n, ell, seed, o: verify_residue_properties(n, ell, seed=seed, oracle=o),
    "operator": lambda n, ell, seed, o: (verify_residue_operator(n, ell, oracle=o),),
    "extension": lambda n, ell, seed, o: (verify_touch_extension(n, ell, oracle=o),),
    "superset": lambda n, ell, seed, o: (verify_touch_superset(n, ell, oracle=o),),
    "support": lambda n, ell, seed, o: (verify_residue_support(n, ell, oracle=o),),
    "product": lambda n, ell, seed, o: (verify_residue_product(n, ell, seed=seed, oracle=o),),
}


def verify_all(
    n: int = 3, ell: int = 1, seed: int = 0, oracle: Optional[ResidueOracle] = None
) -> Tuple[LemmaReport, ...]:
    """Every lemma runner over one shared oracle."""
    oracle = _default_oracle(n, ell, oracle)
    return tuple(rep for run in LEMMAS.values() for rep in run(n, ell, seed, oracle))


# ---------------------------------------------------------------------------
# heavy products and the split round


@dataclass(frozen=True)
class HeavySelection:
    """A proof's busiest vertex by heavy quadratic products, the
    majority copy choice per incoming edge, and the variables a split
    round would eliminate; ``heavy`` is decoded once, at the public boundary."""

    vertex: int
    l_choice: Tuple[Tuple[int, int], ...]
    split_vars: Tuple[Var, ...]
    heavy: FrozenSet[Term]


@dataclass(frozen=True)
class RoundReport:
    """Heavy-product counts before and after one isolate-and-split
    round, with the variables actually split and those skipped."""

    vertex: int
    before: int
    after: int
    split_at: Tuple[Var, ...]
    skipped: Tuple[Var, ...]


def _heavy_masks(proof: PCProof, threshold: int) -> Tuple[Callable, List[int]]:
    """The touch rule over the proof's codec, and the quadratic products, twins
    folded onto their bases, touching at least ``threshold`` vertices."""
    codec = proof.axioms.codec
    touch = _touch_rule(codec, proof.axioms.n, proof.axioms.ell)
    bases = list(set(map(codec.fold, _quadratic_masks(proof))))
    return touch, list(itertools.compress(bases, map(threshold.__le__, touch.counts(bases))))


def _selection(proof: PCProof, threshold: int) -> Tuple[int, tuple, tuple, List[int]]:
    """``heavy_term_selection``'s fields, counted on the heavy masks."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    n, ell, pos = proof.axioms.n, proof.axioms.ell, proof.axioms.codec.pos
    touch, heavy = _heavy_masks(proof, threshold)
    if not heavy:
        raise ValueError(f"no quadratic product touches >= {threshold} vertices")
    counts = {j: len(list(filter(bits.__and__, heavy))) for j, bits in touch.strong.items()}
    vertex = min(counts, key=lambda j: (-counts[j], j))
    # per copy x(i,vertex,l), the heavy masks holding it: the touch rule keeps l in 1..ell
    copies = {(i, l): len(list(filter((1 << pos[v]).__and__, heavy))) if (v := edge(i, vertex, l)) in pos else 0
              for i in range(1, n + 1) if i != vertex for l in range(1, ell + 1)}
    l_choice = {i: min(range(1, ell + 1), key=lambda l: (-copies[i, l], l))
                for i in range(1, n + 1) if i != vertex}
    split_vars = [pointer(vertex, a) for a in range(1, pointer_bits(n) + 1)]
    split_vars += [edge(i, vertex, l) for i, l in l_choice.items()]
    return vertex, tuple(sorted(l_choice.items())), tuple(sorted(split_vars)), heavy


def heavy_term_selection(proof: PCProof, threshold: int) -> HeavySelection:
    """Pick the vertex strongly touched by the most heavy quadratic
    products (ties to the lowest vertex) and, per incoming edge, the
    copy index seen most often among them (ties to the lowest copy).

    Products are compared after replacing twins by their base variable,
    so the touch analysis sees a positive term."""
    *fields, heavy = _selection(proof, threshold)
    return HeavySelection(*fields, frozenset(map(proof.axioms.codec.term, heavy)))


def heavy_split_round(proof: PCProof, threshold: int) -> Tuple[PCProof, RoundReport]:
    """One isolate-and-split round against the heavy quadratic products.

    The selected vertex is isolated by a restriction -- its pointer bits
    are assigned there, since the pointer group's prohibition clauses
    contain nothing else -- and every surviving selected variable is
    split out of the proof.  Variables fixed by the restriction and
    variables blocked by twin-introduction steps are skipped and
    reported.  Needs ell >= 2 so the isolation can satisfy the vertex's
    own pointer group.
    """
    vertex, l_choice, split_vars, heavy = _selection(proof, threshold)
    rho = isolate_vertex_restriction(proof.axioms.n, proof.axioms.ell, vertex, l_choice=dict(l_choice))
    cur, _ = restrict_proof(proof, rho)
    split_at: List[Var] = []
    skipped: List[Var] = []
    for v in split_vars:
        if v in rho or any(s[0] == "tw" and s[1].base == v for s in cur.steps):
            skipped.append(v)
            continue
        cur = split(cur, v, prune_dead=True)
        split_at.append(v)
    return cur, RoundReport(vertex, len(heavy), len(_heavy_masks(cur, threshold)[1]),
                            tuple(split_at), tuple(skipped))
