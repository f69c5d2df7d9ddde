"""Hand-built refutations for the generated families, plus the small
fitting helpers used to measure how their sizes scale.

The resolution refutations follow one elimination scheme: repeatedly
derive, for the largest remaining vertex m, that no smaller vertex loses
to m, shrinking every vee-clause by one vertex until the empty clause
appears.  The lifted variant runs the same scheme once per gadget copy.
"""

from __future__ import annotations

__all__ = [
    "bop_to_lop_derivation",
    "fit_through_origin",
    "lifted_refutation",
    "loglog_fit",
    "lop_resolution_refutation",
    "pcr_upper_bound",
    "tseitin_fourier_refutation",
]

from typing import Sequence, Tuple

from .algebra import Var, _GCPause, edge, plain, pointer
from .formulas import (
    CNF,
    Clause,
    gen_bop,
    gen_bop_lifted,
    gen_cycle_tseitin,
    gen_lop,
)
from .proofs import PCProof, ProofWriter, ResolutionProof
from .transforms import res_to_pcr


class _Builder(ProofWriter):
    """Writes a resolution proof, naming each input clause by its value."""

    def __init__(self, cnf: CNF):
        super().__init__()
        self.cnf = cnf
        self.lookup = {c: i for i, c in enumerate(cnf.clauses)}

    def axiom(self, clause: Clause) -> int:
        return self.emit(("in", self.lookup[clause]))

    def resolve(self, i: int, j: int, pivot: Var) -> int:
        return self.emit(("res", i, j, pivot))

    def proof(self) -> ResolutionProof:
        return ResolutionProof(self.cnf, tuple(self.steps))


# ---------------------------------------------------------------------------
# linear ordering principle


def lop_resolution_refutation(n: int) -> ResolutionProof:
    """Refutation of the ordering principle on n vertices in about n^3/3
    resolution steps; every derived clause carries at most one negative
    literal."""
    cnf = gen_lop(n)
    b = _Builder(cnf)
    # cur[j] holds the clause saying "some vertex of 1..m beats j"
    cur = {j: b.axiom(cnf.clauses[cnf.groups[f"BV({j})"][0]]) for j in range(1, n + 1)}
    for m in range(n, 1, -1):
        for j in range(1, m):
            d = cur[m]
            for i in range(1, m):
                if i == j:
                    ax = b.axiom(frozenset({edge(j, m).twin, edge(m, j).twin}))
                else:
                    ax = b.axiom(
                        frozenset({edge(i, m).twin, edge(m, j).twin, edge(i, j)})
                    )
                d = b.resolve(d, ax, edge(i, m))
            cur[j] = b.resolve(d, cur[j], edge(m, j))
    return b.proof()


# ---------------------------------------------------------------------------
# pointer trees


def _pointer_tree(b: _Builder, j: int) -> int:
    """Resolve vertex j's pointer clauses down to its vee-clause.  Group
    BV(j) files one clause per code, in code order, so after a - 1 rounds
    rows v and v + 1 differ only in bit a and resolve on y(j, a)."""
    rows = [b.emit(("in", idx)) for idx in b.cnf.groups[f"BV({j})"]]
    for a in range(1, len(rows).bit_length()):
        rows = [b.resolve(rows[v], rows[v + 1], pointer(j, a)) for v in range(0, len(rows), 2)]
    return rows[0]


def bop_to_lop_derivation(n: int) -> ResolutionProof:
    """From the pointer formulation, derive every vertex's vee-clause
    ("someone beats j") by resolving out the pointer bits."""
    b = _Builder(gen_bop(n))
    for j in range(1, n + 1):
        _pointer_tree(b, j)
    return b.proof()


# ---------------------------------------------------------------------------
# lifted refutation


def lifted_refutation(n: int, ell: int) -> ResolutionProof:
    """Refutation of the gadget-lifted pointer formula.

    Pointer trees first give each vertex's lifted vee-clause; the vertex
    elimination scheme then removes the top vertex copy by copy, costing
    about ell^2 resolutions per ordering axiom used.  The cyclic collector
    is paused for the call, and the caller's setting is restored.
    """
    with _GCPause():
        cnf = gen_bop_lifted(n, ell)
        b = _Builder(cnf)
        copies = range(1, ell + 1)
        # x(i,j,l) and its twin, built once
        x = {(i, j, l): edge(i, j, l) for i in range(1, n + 1) for j in range(1, n + 1) if i != j for l in copies}
        nx = {k: v.twin for k, v in x.items()}
        cur = {j: _pointer_tree(b, j) for j in range(1, n + 1)}
        for m in range(n, 1, -1):
            for j in range(1, m):
                # one helper clause per copy of the edge from m to j
                helpers = []
                blocks = {i: frozenset(x[i, j, l2] for l2 in copies) for i in range(1, m) if i != j}
                for sigma in copies:
                    d = cur[m]
                    for i in range(1, m):
                        for l in copies:
                            if i == j:
                                ax = b.axiom(frozenset({nx[j, m, l], nx[m, j, sigma]}))
                            else:
                                ax = b.axiom(blocks[i] | {nx[i, m, l], nx[m, j, sigma]})
                            d = b.resolve(d, ax, x[i, m, l])
                    helpers.append(d)
                e = cur[j]
                for t, d in zip(copies, helpers):
                    e = b.resolve(e, d, x[m, j, t])
                cur[j] = e
        return b.proof()


def pcr_upper_bound(n: int, ell: int) -> PCProof:
    """The lifted refutation replayed in the Boolean polynomial system
    with twin variables; size stays polynomial in n and ell."""
    return res_to_pcr(lifted_refutation(n, ell))


# ---------------------------------------------------------------------------
# parity cycle


def tseitin_fourier_refutation(n: int) -> PCProof:
    """Refutation of the odd cycle parity system in the {+1,-1} encoding:
    walk the cycle keeping one binomial per vertex, then collide with the
    flipped last axiom.  About 4n lines of at most two monomials."""
    ax = gen_cycle_tseitin(n)
    p = ax.field.p
    half = (p + 1) // 2  # inverse of 2
    x = {k: plain(f"x{k}") for k in range(1, n + 1)}
    out = ProofWriter(p)
    walk = out.emit(("ax", 0))  # x1*x2 - 1
    for k in range(2, n):
        a = out.emit(("ax", k - 1))  # xk*x(k+1) - 1
        q = out.emit(("mul", x[k], walk))  # x1 - xk
        q = out.emit(("mul", x[k + 1], q))  # x1*x(k+1) - xk*x(k+1)
        walk = out.emit(("lin", 1, q, 1, a))  # x1*x(k+1) - 1
    last = out.emit(("ax", n - 1))  # xn*x1 + 1
    out.emit(("lin", half, last, p - half, walk))  # 1
    return PCProof(ax, tuple(out.steps))


# ---------------------------------------------------------------------------
# scaling fits


def loglog_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and intercept of log y against log x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    import numpy as np

    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def fit_through_origin(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Best constant C for y ~ C*x and the relative root-mean-square
    residual of that fit."""
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size == 0:
        raise ValueError("need matching nonempty points")
    c = float(np.dot(x, y) / np.dot(x, x))
    resid = float(np.linalg.norm(y - c * x))
    scale = float(np.linalg.norm(y))
    return c, (resid / scale if scale else 0.0)
