"""Linear spans of axiom families, normal forms, and the touch-keyed
reduction operator behind the degree experiments.

The span of a polynomial family is the smallest linear space that
contains it and is closed under multiplication by variables -- all a
derivation can reach with no degree cap.  ``span_basis`` computes
canonical remainders modulo a span by two independent routes (point
evaluation and linear closure); ``ResidueOracle`` reduces each term
modulo the span keyed by the vertex set the term touches, yielding the
operator whose properties the ``verify_*`` runners check case by case.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .algebra import (
    BOOLEAN,
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
    grlex_key,
    make_term,
    pointer,
    term_mul,
)
from .formulas import (
    AxiomSystem,
    _eval_poly_chunk,
    _parity,
    cnf_to_axioms,
    gen_bop_lifted,
    pointer_bits,
)
from .proofs import PCProof, quadratic_set, touched
from .transforms import isolate_vertex_restriction, restrict_proof, split

SPAN_VAR_LIMIT = 16
CLOSURE_VAR_LIMIT = 10


# ---------------------------------------------------------------------------
# span bases


def _mask_term(mask: int, active: Sequence[Var]) -> Term:
    return tuple(v for i, v in enumerate(active) if (mask >> i) & 1)


def _degree_masks(nbits: int, deg: int) -> List[int]:
    # ascending mask value == graded-lex order within one degree
    return sorted(sum(1 << b for b in c) for c in itertools.combinations(range(nbits), deg))


def _inv_mod(m: np.ndarray, field: Field) -> np.ndarray:
    """Inverse of a square matrix over the prime field, Gauss-Jordan."""
    p = field.p
    s = m.shape[0]
    a = m % p
    e = np.eye(s, dtype=np.int64)
    for c in range(s):
        nz = np.flatnonzero(a[c:, c])
        if nz.size == 0:
            raise ArithmeticError("singular matrix")
        r = c + int(nz[0])
        if r != c:
            a[[c, r]] = a[[r, c]]
            e[[c, r]] = e[[r, c]]
        inv = field.inv(int(a[c, c]))
        a[c] = (a[c] * inv) % p
        e[c] = (e[c] * inv) % p
        f = a[:, c].copy()
        f[c] = 0
        sel = np.flatnonzero(f)
        if sel.size:
            a[sel] = (a[sel] - f[sel, None] * a[c][None, :]) % p
            e[sel] = (e[sel] - f[sel, None] * e[c][None, :]) % p
    return e


def _matvec_mod(m: np.ndarray, col: np.ndarray, p: int) -> np.ndarray:
    # split into 16-bit limbs so int64 dot products cannot overflow
    out = ((m @ (col >> 16)) % p) << 16
    out += m @ (col & 0xFFFF)
    return out % p


class _PointsEngine:
    """Remainders via evaluation on the common zero set.

    Standard monomials are collected greedily in graded-lex order; their
    evaluation columns form an invertible matrix over the zero set, so a
    remainder is a single solve per queried monomial.
    """

    def __init__(self, polys: Sequence[Poly], active: Sequence[Var], field: Field, basis: str):
        self.field = field
        self.basis = basis
        self.active = tuple(active)
        self.pos_of = {v: i for i, v in enumerate(self.active)}
        ks = np.arange(1 << len(self.active), dtype=np.int64)
        alive = np.ones(ks.shape, dtype=bool)
        for f in polys:
            if f.is_zero:
                continue
            alive &= _eval_poly_chunk(f, ks, self.pos_of) == 0
        self.points = ks[alive]
        self.std_masks: List[int] = []
        self._std_set: Set[int] = set()
        self._minv: Optional[np.ndarray] = None
        self._nf: Dict[int, Poly] = {}
        if len(self.points):
            self._build_standard()

    def _columns(self, masks: np.ndarray) -> np.ndarray:
        hits = self.points[:, None] & masks[None, :]
        if self.basis == BOOLEAN:
            return (hits == masks[None, :]).astype(np.int64)
        return np.where(_parity(hits).astype(bool), self.field.p - 1, 1).astype(np.int64)

    def _build_standard(self) -> None:
        p = self.field.p
        npts = len(self.points)
        rows: List[np.ndarray] = []  # echelon columns, unit at their pivot point
        piv: List[int] = []
        raw: List[np.ndarray] = []
        chunk = max(16, (1 << 22) // npts)
        for deg in range(len(self.active) + 1):
            if len(raw) == npts:
                break
            masks = _degree_masks(len(self.active), deg)
            for base in range(0, len(masks), chunk):
                if len(raw) == npts:
                    break
                block = np.array(masks[base : base + chunk], dtype=np.int64)
                c = self._columns(block)
                craw = c.copy()
                for q, e in zip(piv, rows):
                    c = (c - e[:, None] * c[q][None, :]) % p
                for bi in range(c.shape[1]):
                    col = c[:, bi]
                    if not col.any():
                        continue
                    q = int(np.flatnonzero(col)[0])
                    e = (col * self.field.inv(int(col[q]))) % p
                    self.std_masks.append(int(block[bi]))
                    raw.append(craw[:, bi].copy())
                    rows.append(e)
                    piv.append(q)
                    if len(raw) == npts:
                        break
                    if bi + 1 < c.shape[1]:
                        c[:, bi + 1 :] = (c[:, bi + 1 :] - e[:, None] * c[q, bi + 1 :][None, :]) % p
        if len(raw) != npts:
            raise ArithmeticError("monomials failed to span the point functions")
        self._std_set = set(self.std_masks)
        self._minv = _inv_mod(np.stack(raw, axis=1), self.field)

    def nf_mask(self, mask: int) -> Poly:
        got = self._nf.get(mask)
        if got is not None:
            return got
        if self._minv is None:
            got = Poly.zero(self.field, self.basis)
        elif mask in self._std_set:
            got = Poly.from_term(self.field, self.basis, _mask_term(mask, self.active))
        else:
            col = self._columns(np.array([mask], dtype=np.int64))[:, 0]
            coef = _matvec_mod(self._minv, col, self.field.p)
            terms = {
                _mask_term(self.std_masks[i], self.active): int(c)
                for i, c in enumerate(coef)
                if c
            }
            got = Poly(self.field, self.basis, terms)
        self._nf[mask] = got
        return got

    def nf_poly(self, poly: Poly) -> Poly:
        fld = self.field
        out: Dict[Term, int] = {}
        for t, c in poly.terms.items():
            wbits = 0
            free: List[Var] = []
            for v in t:
                i = self.pos_of.get(v)
                if i is None:
                    free.append(v)
                else:
                    wbits |= 1 << i
            for s, cs in self.nf_mask(wbits).terms.items():
                key = make_term(s + tuple(free))
                val = fld.add(out.get(key, 0), fld.mul(c, cs))
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
        return Poly(fld, self.basis, out)

    def std_masks_over_active(self) -> List[int]:
        return list(self.std_masks)


def _tail_reduce(poly: Poly, rows: Mapping[Term, Poly]) -> Poly:
    fld = poly.field
    out: Dict[Term, int] = {}
    work = poly
    while not work.is_zero:
        t = work.leading_term()
        c = work.terms[t]
        row = rows.get(t)
        if row is None:
            out[t] = c
            work = work.sub(Poly.from_term(fld, poly.basis, t, c))
        else:
            work = work.sub(row.scale(c))
    return Poly(fld, poly.basis, out)


class _ClosureEngine:
    """Remainders via direct closure: keep a triangular family of
    representatives and multiply until no product adds a leading term."""

    def __init__(
        self,
        polys: Sequence[Poly],
        active: Sequence[Var],
        universe: Sequence[Var],
        field: Field,
        basis: str,
    ):
        self.field = field
        self.basis = basis
        self.active = tuple(active)
        rows: Dict[Term, Poly] = {}
        queue: List[Poly] = [q for q in polys if not q.is_zero]
        while queue:
            g = _tail_reduce(queue.pop(), rows)
            if g.is_zero:
                continue
            lt = g.leading_term()
            rows[lt] = g.scale(field.inv(g.terms[lt]))
            for v in universe:
                queue.append(rows[lt].mul_var(v))
        self.rows = rows

    def nf_poly(self, poly: Poly) -> Poly:
        return _tail_reduce(poly, self.rows)

    def std_masks_over_active(self) -> List[int]:
        out = []
        for deg in range(len(self.active) + 1):
            for m in _degree_masks(len(self.active), deg):
                if _mask_term(m, self.active) not in self.rows:
                    out.append(m)
        return out


class SpanBasis:
    """Canonical remainders modulo a span; build with ``span_basis``.

    ``reduce`` maps a polynomial to the graded-lex least member of its
    coset, supported on the standard monomials; ``contains`` is
    membership in the span itself.
    """

    def __init__(self, polys: Sequence[Poly], universe: Tuple[Var, ...], method: str, field: Field, basis: str):
        self.field = field
        self.basis = basis
        self.universe = universe
        self.method = method
        self.active = tuple(sorted({v for p in polys for v in p.variables()}))
        self._uset = set(universe)
        if method == "points":
            self._engine = _PointsEngine(polys, self.active, field, basis)
        else:
            self._engine = _ClosureEngine(polys, self.active, universe, field, basis)
        self._std: Optional[Tuple[Term, ...]] = None

    @property
    def std_monomials(self) -> Tuple[Term, ...]:
        """Monomials over the constrained variables whose remainders are
        themselves, in graded-lex order; free variables multiply in."""
        if self._std is None:
            masks = self._engine.std_masks_over_active()
            self._std = tuple(_mask_term(m, self.active) for m in masks)
        return self._std

    def reduce(self, poly: Poly) -> Poly:
        if poly.basis != self.basis:
            raise BasisMismatch(f"cannot reduce a {poly.basis} polynomial in a {self.basis} span")
        if poly.field.p != self.field.p:
            raise ValueError("field mismatch")
        for v in poly.variables():
            if v.negated:
                raise ValueError(f"span input must be twin-free, got {format_var(v)}")
            if v not in self._uset:
                raise ValueError(f"variable {format_var(v)} outside the span universe")
        return self._engine.nf_poly(poly)

    def contains(self, poly: Poly) -> bool:
        return self.reduce(poly).is_zero

    def leading_terms(self) -> Tuple[Term, ...]:
        """Minimal non-standard monomials: every proper divisor is
        standard, so these generate everything the span rewrites."""
        std = set(self.std_monomials)
        if () not in std:
            return ((),)
        border: Set[Term] = set()
        for s in std:
            have = set(s)
            for v in self.active:
                if v in have:
                    continue
                m = make_term(s + (v,))
                if m not in std:
                    border.add(m)
        mins = [m for m in border if all(tuple(u for u in m if u != v) in std for v in m)]
        return tuple(sorted(mins, key=grlex_key))

    def basis_polys(self) -> Tuple[Poly, ...]:
        """One generator per minimal non-standard monomial: the monomial
        minus its remainder, so it keeps that monomial as leading term."""
        out = []
        for m in self.leading_terms():
            pm = Poly.from_term(self.field, self.basis, m)
            out.append(pm.sub(self.reduce(pm)))
        return tuple(out)


def span_basis(
    polys: Iterable[Poly],
    universe: Optional[Iterable[Var]] = None,
    basis: Optional[str] = None,
    field: Optional[Field] = None,
    method: str = "points",
) -> SpanBasis:
    """Normal-form engine for the span of ``polys``.

    ``method="points"`` evaluates over the common zero set and handles
    up to 16 universe variables; ``method="closure"`` multiplies the
    family out directly and is capped at 10, but shares no code with the
    first route -- the two agree everywhere and are cross-checked in the
    tests.  Twin variables must be expanded away before calling.
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
    seen: Set[Var] = set()
    for p in polys:
        for v in p.variables():
            if v.negated:
                raise ValueError(f"span input must be twin-free, got {format_var(v)}")
            seen.add(v)
    uni = sorted(seen) if universe is None else sorted(set(universe))
    for v in uni:
        if v.negated:
            raise ValueError(f"span universe must be twin-free, got {format_var(v)}")
    missing = seen - set(uni)
    if missing:
        raise ValueError(f"universe misses {sorted(format_var(v) for v in missing)}")
    if method not in ("points", "closure"):
        raise ValueError(f"unknown method {method!r}")
    limit = SPAN_VAR_LIMIT if method == "points" else CLOSURE_VAR_LIMIT
    if len(uni) > limit:
        raise ScaleLimitExceeded(f"{len(uni)} variables exceed the {method} limit of {limit}")
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
    with the pointer groups of exactly the vertices it touches.  Spans
    and per-term remainders are cached, so exhaustive sweeps stay cheap.
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
        for p in context.polys:
            for v in p.variables():
                if v.negated:
                    raise ValueError("context must be twin-free; translate with twins=False")
        self.context = context
        self.n = context.n
        self.ell = context.ell
        self._spans: Dict[FrozenSet[int], SpanBasis] = {}
        self._rterm: Dict[Term, Poly] = {}

    def span_for(self, vertices: Iterable[int]) -> SpanBasis:
        key = frozenset(vertices)
        got = self._spans.get(key)
        if got is None:
            bad = sorted(j for j in key if not 1 <= j <= self.n)
            if bad:
                raise ValueError(f"vertices {bad} outside 1..{self.n}")
            idxs = list(self.context.groups["T"])
            for j in sorted(key):
                idxs.extend(self.context.groups[f"BV({j})"])
            got = span_basis(
                [self.context.polys[i] for i in idxs],
                universe=self.context.universe,
                basis=self.context.basis,
                field=self.context.field,
            )
            self._spans[key] = got
        return got

    def residue(self, poly: Poly, vertices: Iterable[int]) -> Poly:
        """Remainder of the whole polynomial under one fixed key."""
        return self.span_for(vertices).reduce(poly)

    def R_term(self, t: Term) -> Poly:
        got = self._rterm.get(t)
        if got is None:
            tau = touched(t, self.n, self.ell).tau
            got = self.span_for(tau).reduce(Poly.from_term(self.context.field, BOOLEAN, t))
            self._rterm[t] = got
        return got

    def R(self, poly: Poly) -> Poly:
        """Linear extension of the per-term touch-keyed reduction."""
        if poly.basis != BOOLEAN:
            raise BasisMismatch("the reduction operator works on the {0,1} side")
        if poly.field.p != self.context.field.p:
            raise ValueError("field mismatch")
        fld = self.context.field
        out: Dict[Term, int] = {}
        for t, c in poly.terms.items():
            for s, cs in self.R_term(t).terms.items():
                val = fld.add(out.get(s, 0), fld.mul(c, cs))
                if val:
                    out[s] = val
                else:
                    out.pop(s, None)
        return Poly(fld, BOOLEAN, out)


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


def _fmt_term(t: Term) -> str:
    return "*".join(format_var(v) for v in t) if t else "1"


def _family_terms(universe: Sequence[Var], max_degree: int) -> List[Term]:
    out: List[Term] = []
    for d in range(max_degree + 1):
        block = [make_term(c) for c in itertools.combinations(universe, d)]
        block.sort(key=grlex_key)
        out.extend(block)
    return out


def _default_oracle(n: int, ell: int, oracle: Optional[ResidueOracle]) -> ResidueOracle:
    if oracle is not None:
        if (oracle.n, oracle.ell) != (n, ell):
            raise ValueError("oracle context does not match the requested (n, ell)")
        return oracle
    return ResidueOracle(bop_context(n, ell))


def verify_touch_extension(
    n: int = 3, ell: int = 1, max_degree: int = 4, oracle: Optional[ResidueOracle] = None
) -> LemmaReport:
    """Multiplying a term by a variable can only grow its touch key, and
    the term's remainder is the same under either key."""
    start = time.perf_counter()
    oracle = _default_oracle(n, ell, oracle)
    universe = oracle.context.universe
    fld = oracle.context.field
    cases = 0
    bad: List[str] = []
    for t in _family_terms(universe, max_degree):
        tau_t = touched(t, n, ell).tau
        if len(tau_t) >= n:
            continue
        pt = Poly.from_term(fld, BOOLEAN, t)
        base = oracle.residue(pt, tau_t)
        for w in universe:
            wt = term_mul(t, (w,), BOOLEAN)
            tau_wt = touched(wt, n, ell).tau
            if len(tau_wt) >= n:
                continue
            cases += 1
            if oracle.residue(pt, tau_wt) != base:
                bad.append(f"t={_fmt_term(t)} w={format_var(w)}")
    return LemmaReport("touch-extension", n, ell, cases, tuple(bad), time.perf_counter() - start)


def verify_touch_superset(
    n: int = 3, ell: int = 1, max_degree: int = 4, oracle: Optional[ResidueOracle] = None
) -> LemmaReport:
    """Reducing under any proper-sized superset of the touch key gives
    the same remainder as the key itself."""
    start = time.perf_counter()
    oracle = _default_oracle(n, ell, oracle)
    fld = oracle.context.field
    cases = 0
    bad: List[str] = []
    for t in _family_terms(oracle.context.universe, max_degree):
        tau = touched(t, n, ell).tau
        if len(tau) >= n:
            continue
        pt = Poly.from_term(fld, BOOLEAN, t)
        base = oracle.residue(pt, tau)
        rest = [j for j in range(1, n + 1) if j not in tau]
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                key = tau | set(extra)
                if len(key) >= n:
                    continue
                cases += 1
                if oracle.residue(pt, key) != base:
                    bad.append(f"t={_fmt_term(t)} I={sorted(key)}")
    return LemmaReport("touch-superset", n, ell, cases, tuple(bad), time.perf_counter() - start)


def verify_residue_support(
    n: int = 3, ell: int = 1, max_degree: int = 4, oracle: Optional[ResidueOracle] = None
) -> LemmaReport:
    """Remainders never touch vertices the original term did not."""
    start = time.perf_counter()
    oracle = _default_oracle(n, ell, oracle)
    cases = 0
    bad: List[str] = []
    for t in _family_terms(oracle.context.universe, max_degree):
        tau = touched(t, n, ell).tau
        cases += 1
        for s in oracle.R_term(t).terms:
            if not touched(s, n, ell).tau <= tau:
                bad.append(f"t={_fmt_term(t)} term {_fmt_term(s)} escapes {sorted(tau)}")
    return LemmaReport("residue-support", n, ell, cases, tuple(bad), time.perf_counter() - start)


def _random_pool_poly(
    rng: random.Random, pool: Sequence[Var], fld: Field, max_terms: int = 5, max_degree: int = 3
) -> Poly:
    terms: Dict[Term, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_degree)
        t = make_term(rng.sample(list(pool), d)) if d else ()
        c = fld.add(terms.get(t, 0), rng.randrange(1, fld.p))
        if c:
            terms[t] = c
        else:
            terms.pop(t, None)
    return Poly(fld, BOOLEAN, terms)


def verify_residue_product(
    n: int = 3,
    ell: int = 1,
    samples: int = 500,
    seed: int = 0,
    oracle: Optional[ResidueOracle] = None,
) -> LemmaReport:
    """Reduce-multiply-reduce agrees with multiply-reduce on random
    polynomials drawn from a two-vertex variable pool, where every
    product keeps its touch key below the full vertex set."""
    start = time.perf_counter()
    oracle = _default_oracle(n, ell, oracle)
    fld = oracle.context.field
    b = pointer_bits(n)
    pool = [pointer(j, a) for j in (1, 2) for a in range(1, b + 1)]
    pool += [edge(1, 2, l) for l in range(1, ell + 1)]
    pool += [edge(2, 1, l) for l in range(1, ell + 1)]
    rng = random.Random(seed)
    cases = 0
    bad: List[str] = []
    for _ in range(samples):
        poly = _random_pool_poly(rng, pool, fld)
        w = rng.choice(pool)
        cases += 1
        if oracle.R(poly.mul_var(w)) != oracle.R(oracle.R(poly).mul_var(w)):
            bad.append(f"w={format_var(w)} P={format_poly(poly)}")
    return LemmaReport("residue-product", n, ell, cases, tuple(bad), time.perf_counter() - start)


def verify_residue_operator(
    n: int = 3, ell: int = 1, oracle: Optional[ResidueOracle] = None
) -> LemmaReport:
    """The reduction kills every axiom and fixes the constant 1."""
    start = time.perf_counter()
    oracle = _default_oracle(n, ell, oracle)
    fld = oracle.context.field
    cases = 0
    bad: List[str] = []
    for i, axiom in enumerate(oracle.context.polys):
        cases += 1
        if not oracle.R(axiom).is_zero:
            bad.append(f"axiom {i} survives the reduction")
    one = Poly.constant(fld, BOOLEAN, 1)
    cases += 1
    if oracle.R(one) != one:
        bad.append("the constant 1 is not fixed")
    return LemmaReport("residue-operator", n, ell, cases, tuple(bad), time.perf_counter() - start)


def verify_residue_properties(
    n: int = 3,
    ell: int = 1,
    pairs: int = 200,
    seed: int = 0,
    max_degree: int = 2,
    oracle: Optional[ResidueOracle] = None,
) -> Tuple[LemmaReport, ...]:
    """The four defining properties of the reduction operator, each as
    its own report: linearity on seeded pairs, axioms vanish, the unit
    is fixed, and the product condition on all small terms."""
    oracle = _default_oracle(n, ell, oracle)
    fld = oracle.context.field
    universe = oracle.context.universe
    reports: List[LemmaReport] = []

    start = time.perf_counter()
    rng = random.Random(seed)
    bad: List[str] = []
    for _ in range(pairs):
        p1 = _random_pool_poly(rng, universe, fld, max_terms=4)
        p2 = _random_pool_poly(rng, universe, fld, max_terms=4)
        a = rng.randrange(fld.p)
        b = rng.randrange(fld.p)
        lhs = oracle.R(p1.scale(a).add(p2.scale(b)))
        rhs = oracle.R(p1).scale(a).add(oracle.R(p2).scale(b))
        if lhs != rhs:
            bad.append(f"a={a} b={b} P={format_poly(p1)} Q={format_poly(p2)}")
    reports.append(
        LemmaReport("residue-linearity", n, ell, pairs, tuple(bad), time.perf_counter() - start)
    )

    start = time.perf_counter()
    bad = []
    for i, axiom in enumerate(oracle.context.polys):
        if not oracle.R(axiom).is_zero:
            bad.append(f"axiom {i} survives the reduction")
    reports.append(
        LemmaReport(
            "residue-axioms-vanish",
            n,
            ell,
            len(oracle.context.polys),
            tuple(bad),
            time.perf_counter() - start,
        )
    )

    start = time.perf_counter()
    one = Poly.constant(fld, BOOLEAN, 1)
    bad = [] if oracle.R(one) == one else ["the constant 1 is not fixed"]
    reports.append(
        LemmaReport("residue-unit-fixed", n, ell, 1, tuple(bad), time.perf_counter() - start)
    )

    start = time.perf_counter()
    cases = 0
    bad = []
    for t in _family_terms(universe, max_degree):
        pt = Poly.from_term(fld, BOOLEAN, t)
        for w in universe:
            wt = term_mul(t, (w,), BOOLEAN)
            if len(touched(wt, n, ell).tau) >= n:
                continue
            cases += 1
            if oracle.R(pt.mul_var(w)) != oracle.R(oracle.R(pt).mul_var(w)):
                bad.append(f"t={_fmt_term(t)} w={format_var(w)}")
    reports.append(
        LemmaReport("residue-product-small", n, ell, cases, tuple(bad), time.perf_counter() - start)
    )
    return tuple(reports)


def verify_all(
    n: int = 3, ell: int = 1, seed: int = 0, oracle: Optional[ResidueOracle] = None
) -> Tuple[LemmaReport, ...]:
    """Every lemma runner over one shared oracle."""
    oracle = _default_oracle(n, ell, oracle)
    reports = list(verify_residue_properties(n, ell, seed=seed, oracle=oracle))
    reports.append(verify_residue_operator(n, ell, oracle=oracle))
    reports.append(verify_touch_extension(n, ell, oracle=oracle))
    reports.append(verify_touch_superset(n, ell, oracle=oracle))
    reports.append(verify_residue_support(n, ell, oracle=oracle))
    reports.append(verify_residue_product(n, ell, seed=seed, oracle=oracle))
    return tuple(reports)


# ---------------------------------------------------------------------------
# heavy products and the split round


@dataclass(frozen=True)
class HeavySelection:
    """A proof's busiest vertex by heavy quadratic products, the
    majority copy choice per incoming edge, and the variables a split
    round would eliminate."""

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


def _heavy_terms(proof: PCProof, threshold: int) -> Set[Term]:
    n, ell = proof.axioms.n, proof.axioms.ell
    if n is None or ell is None:
        raise ValueError("heavy analysis needs the (n, ell) family context")
    out: Set[Term] = set()
    for t in quadratic_set(proof).products:
        base = make_term(v.base for v in t)
        if len(touched(base, n, ell).tau) >= threshold:
            out.add(base)
    return out


def heavy_term_selection(proof: PCProof, threshold: int) -> HeavySelection:
    """Pick the vertex strongly touched by the most heavy quadratic
    products (ties to the lowest vertex) and, per incoming edge, the
    copy index seen most often among them (ties to the lowest copy).

    Products are compared after replacing twins by their base variable,
    so the touch analysis sees a positive term."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    n, ell = proof.axioms.n, proof.axioms.ell
    heavy = _heavy_terms(proof, threshold)
    if not heavy:
        raise ValueError(f"no quadratic product touches >= {threshold} vertices")
    counts: Counter = Counter()
    for t in heavy:
        for j in touched(t, n, ell).strong:
            counts[j] += 1
    top = max(counts.values())
    vertex = min(j for j, c in counts.items() if c == top)
    copies: Dict[int, Counter] = {}
    for t in heavy:
        for v in t:
            if v.kind == "x" and v.index[1] == vertex:
                copies.setdefault(v.index[0], Counter())[v.index[2]] += 1
    l_choice: Dict[int, int] = {}
    for i in range(1, n + 1):
        if i == vertex:
            continue
        cnt = copies.get(i)
        if cnt:
            best = max(cnt.values())
            l_choice[i] = min(l for l, c in cnt.items() if c == best)
        else:
            l_choice[i] = 1
    split_vars = [pointer(vertex, a) for a in range(1, pointer_bits(n) + 1)]
    split_vars += [edge(i, vertex, l) for i, l in l_choice.items()]
    return HeavySelection(
        vertex,
        tuple(sorted(l_choice.items())),
        tuple(sorted(split_vars)),
        frozenset(heavy),
    )


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
    sel = heavy_term_selection(proof, threshold)
    n, ell = proof.axioms.n, proof.axioms.ell
    rho = isolate_vertex_restriction(n, ell, sel.vertex, l_choice=dict(sel.l_choice))
    cur, _ = restrict_proof(proof, rho)
    split_at: List[Var] = []
    skipped: List[Var] = []
    for v in sel.split_vars:
        if v in rho or any(s[0] == "tw" and s[1].base == v for s in cur.steps):
            skipped.append(v)
            continue
        cur = split(cur, v, prune_dead=True)
        split_at.append(v)
    report = RoundReport(
        sel.vertex,
        len(sel.heavy),
        len(_heavy_terms(cur, threshold)),
        tuple(split_at),
        tuple(skipped),
    )
    return cur, report
