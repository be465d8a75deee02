"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles with dense exact
arithmetic and the textbook differential formula, deliberately sharing no
code path with the package's sparse engines.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from newstein.liealg import LieAlgebra

F = Fraction


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Plain dense Gaussian elimination over the rationals."""
    rows = [list(map(F, r)) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def brute_bracket(alg: LieAlgebra, x: dict, y: dict) -> dict:
    out: dict = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, c in alg.bracket_basis(i, j).items():
                out[k] = out.get(k, 0) + xi * yj * c
    return {k: v for k, v in out.items() if v}


def brute_cochain_value(S, m, args):
    """Evaluate the basis cochain (S, m) at an argument tuple, with sign."""
    if sorted(args) != list(S) or len(set(args)) != len(args):
        return {}
    perm = list(args)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return {m: F(sign)}


def brute_d_value(alg: LieAlgebra, S, m, T, act) -> dict:
    """(d e_{S,m})(T) as a sparse module vector, by the textbook formula.

    ``act(t, vec)`` is the action of e_t on a module vector.  For sorted T
    this is the coefficient of the basis cochain (T, mp) in d e_{S,m}.
    """
    total: dict = {}
    for i, ti in enumerate(T):
        rest = T[:i] + T[i + 1:]
        for mp, v in act(ti, brute_cochain_value(S, m, rest)).items():
            total[mp] = total.get(mp, 0) + F(-1) ** i * v
    for i in range(len(T)):
        for j in range(i + 1, len(T)):
            rest = tuple(t for p, t in enumerate(T) if p not in (i, j))
            for c, coeff in alg.bracket_basis(T[i], T[j]).items():
                for mp, v in brute_cochain_value(S, m, (c,) + rest).items():
                    total[mp] = total.get(mp, 0) + F(-1) ** (i + j) * coeff * v
    return {mp: v for mp, v in total.items() if v}


def brute_d_matrix(alg: LieAlgebra, k: int, module: str) -> list[list[Fraction]]:
    """Dense matrix of d_k by direct evaluation of the textbook formula.

    module is 'trivial' or 'adjoint'.  Rows: (k+1)-wedge x module basis;
    columns: k-wedge x module basis, both lexicographic.
    """
    n = alg.dim
    dimM = 1 if module == "trivial" else n

    def act(t: int, vec: dict) -> dict:
        if module == "trivial":
            return {}
        return brute_bracket(alg, {t: F(1)}, vec)

    wedges_k = list(combinations(range(n), k))
    rows = []
    for T in combinations(range(n), k + 1):
        # (d e_{S,m})(T) for every column, then one row per component mp
        values = [brute_d_value(alg, S, m, T, act) for S in wedges_k for m in range(dimM)]
        for mp in range(dimM):
            rows.append([val.get(mp, F(0)) for val in values])
    return rows


def brute_betti(alg: LieAlgebra, k: int, module: str) -> int:
    from math import comb

    dimM = 1 if module == "trivial" else alg.dim
    dim_k = comb(alg.dim, k) * dimM
    r_here = dense_rank(brute_d_matrix(alg, k, module)) if dim_k else 0
    r_prev = dense_rank(brute_d_matrix(alg, k - 1, module)) if k >= 1 else 0
    return dim_k - r_here - r_prev


def einstein_algebra() -> LieAlgebra:
    """The 14-dimensional subalgebra spanned by L, T, T' (positive control)."""
    from newstein.algebras import build_newstein

    G = build_newstein()
    keep = [i for i, lab in enumerate(G.labels)
            if getattr(lab, "kind", None) in ("L", "T", "Tp")]
    pos = {old: new for new, old in enumerate(keep)}
    constants = {}
    for (i, j), vec in G.constants.items():
        if i in pos and j in pos:
            entries = {}
            for t, c in vec.items():
                if t not in pos:
                    raise AssertionError("L+T+T' should close")
                entries[pos[t]] = c
            constants[(pos[i], pos[j])] = entries
    return LieAlgebra("einstein", [G.labels[i] for i in keep], constants)


def newton_algebra() -> LieAlgebra:
    """su(2) acting on two vector translation spaces (positive control)."""
    labels = ["J1", "J2", "J3", "p1", "p2", "p3", "q1", "q2", "q3"]
    eps = {(1, 2): 3, (2, 3): 1, (1, 3): -2}
    constants: dict = {}

    def add(i, j, k, c):
        lo, hi, s = (i, j, 1) if i < j else (j, i, -1)
        constants.setdefault((lo, hi), {})[k] = constants.get((lo, hi), {}).get(k, 0) + s * c

    for (a, b), k in eps.items():
        sign = 1 if k > 0 else -1
        add(a - 1, b - 1, abs(k) - 1, F(sign))
    for base in (3, 6):
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                # [J_a, v_b] = eps_{abc} v_c
                c = 3 - a - b
                sign = F(1) if (a, b) in ((0, 1), (1, 2), (2, 0)) else F(-1)
                add(a, base + b, base + c, sign)
    return LieAlgebra("newton", labels, constants)
