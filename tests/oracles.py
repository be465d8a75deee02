"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles with dense exact
arithmetic and the textbook differential formula, or (for the covering
maps) with 2x2 matrix products and traces, or (for the invariant cochain
counts) with weights and Weyl's character formula, deliberately sharing no
code path with the package's engines.  The exceptions are
``extension_class_realized``, which sorts its witness matrices with
``classify``, and the last section: ``coboundary_matrix``,
``keyed_domain_rows``, ``keyed_dd_violations``, ``integer_matrix``,
``full_coboundary_classes``, ``generator_casimir``, ``ladder_matrices`` and
``second_order_exact``, thin wrappers over those engines that only tests
call.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np

from newstein.cohomology import CochainComplex, CoefficientModule, reduction_data
from newstein.exactla import Echelon, SparseExactMatrix
from newstein.extensions import ExtensionMatrix, classify
from newstein import labels as lb
from newstein.labels import BasisLabel
from newstein.liealg import LieAlgebra
from newstein.oscillator import (FockBasis, OscillatorOperator, RepParams, _quadrature,
                                 _second_order, internal_generator)

F = Fraction


def rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals: nonzero rows, pivot columns."""
    rows = [list(map(F, r)) for r in rows if any(r)]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Plain dense Gaussian elimination over the rationals."""
    return len(rref(rows)[1])


def dense_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Plain dense Gaussian elimination over GF(p), every entry reduced mod p."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            if f := rows[i][col] * inv % p:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_nullspace(vectors: list[dict]) -> list[list[Fraction]]:
    """Basis of {x : sum_i x[i] * vectors[i] = 0}, one per free column of the RREF."""
    keys = list(dict.fromkeys(k for vec in vectors for k in vec))
    reduced, pivots = rref([[vec.get(k, 0) for vec in vectors] for k in keys])
    basis = []
    for free in (j for j in range(len(vectors)) if j not in pivots):
        x = [F(0)] * len(vectors)
        x[free] = F(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[free]
        basis.append(x)
    return basis


def span_contains(span_vectors: list[dict], target: dict) -> dict[int, Fraction] | None:
    """Coefficients expressing ``target`` in the span, or None.

    The certificate c satisfies sum_i c[i] * span_vectors[i] = target.
    """
    for x in dense_nullspace(span_vectors + [target]):
        if x[-1]:
            return {i: -v / x[-1] for i, v in enumerate(x[:-1]) if v}
    return None


def rational_kernel_basis(vectors: list[dict]) -> list[dict[int, Fraction]]:
    """Kernel of unit i -> ``vectors[i]``, as sparse combinations."""
    return [{i: v for i, v in enumerate(x) if v} for x in dense_nullspace(vectors)]


def bfs_components(images: list[dict]) -> list[list[int]]:
    """The indices of each connected component of the graph joining two
    images that share a key, by breadth-first search from each unvisited
    index in turn: members ascending, components in order of their first."""
    by_key: dict = {}
    for i, img in enumerate(images):
        for key in img:
            by_key.setdefault(key, []).append(i)
    seen: set[int] = set()
    out = []
    for start in range(len(images)):
        if start in seen:
            continue
        seen.add(start)
        queue, members = [start], []
        while queue:
            i = queue.pop(0)
            members.append(i)
            for key in images[i]:
                for j in by_key[key]:
                    if j not in seen:
                        seen.add(j)
                        queue.append(j)
        out.append(sorted(members))
    return out


def brute_bracket(alg: LieAlgebra, x: dict, y: dict) -> dict:
    out: dict = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, c in alg.bracket_basis(i, j).items():
                out[k] = out.get(k, 0) + xi * yj * c
    return {k: v for k, v in out.items() if v}


def dense_jacobi_check(alg: LieAlgebra) -> list[tuple[int, int, int]]:
    """Every triple i < j < k whose Jacobiator is nonzero, by visiting all
    C(dim, 3) triples; the reference for ``LieAlgebra.jacobi_check``."""
    violations = []
    for i, j, k in combinations(range(alg.dim), 3):
        acc: dict = {}
        # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in alg.bracket_basis(a, b).items():
                for t, y in alg.bracket_basis(m, c).items():
                    acc[t] = acc.get(t, 0) + x * y
        if any(acc.values()):
            violations.append((i, j, k))
    return violations


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


def einstein_algebra(with_c: bool = False) -> LieAlgebra:
    """The 14-dimensional subalgebra spanned by L, T, T' (positive control),
    or with ``with_c`` the 24-dimensional one spanned by L, T, T', C."""
    from newstein.algebras import build_newstein

    G = build_newstein()
    kinds = ("L", "T", "Tp", "C") if with_c else ("L", "T", "Tp")
    keep = [i for i, lab in enumerate(G.labels) if getattr(lab, "kind", None) in kinds]
    pos = {old: new for new, old in enumerate(keep)}
    constants = {}
    for (i, j), vec in G.constants.items():
        if i in pos and j in pos:
            entries = {}
            for t, c in vec.items():
                if t not in pos:
                    raise AssertionError(f"{'+'.join(kinds)} should close")
                entries[pos[t]] = c
            constants[(pos[i], pos[j])] = entries
    return LieAlgebra("einstein-c" if with_c else "einstein", [G.labels[i] for i in keep],
                      constants)


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


def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """g1 + g2: g2's basis follows g1's, its indices offset by dim g1, and
    the factors never bracket each other."""
    n = g1.dim
    shifted = {(i + n, j + n): {k + n: c for k, c in vec.items()}
               for (i, j), vec in g2.constants.items()}
    labels = [f"{lab}.1" for lab in g1.labels] + [f"{lab}.2" for lab in g2.labels]
    return LieAlgebra(f"{g1.name}+{g2.name}", labels, {**g1.constants, **shifted})



def levi_rescaled(G: LieAlgebra) -> LieAlgebra:
    """G with its first and last Levi generator (an L and a J of the
    51-dim algebra) rescaled by 1/2 and 1/5, which puts those denominators
    into their invariance operators."""
    s = {G.levi_indices[0]: F(1, 2), G.levi_indices[-1]: F(1, 5)}
    return LieAlgebra("scaled", list(G.labels), {
        (i, j): {k: s.get(i, 1) * s.get(j, 1) * c / s.get(k, 1) for k, c in vec.items()}
        for (i, j), vec in G.constants.items()})


def rebased(alg: LieAlgebra, name: str, t: int, s: int) -> LieAlgebra:
    """alg in the basis with e_t replaced by e_t + e_s (s != t), its
    constants re-expressed exactly (e_t = e'_t - e'_s)."""
    new = [{i: 1} for i in range(alg.dim)]
    new[t] = {t: 1, s: 1}

    def coords(vec):
        out = dict(vec)
        if t in vec:
            out[s] = out.get(s, 0) - vec[t]
        return out

    return LieAlgebra(name, list(alg.labels), {
        (i, j): coords(alg.bracket_vec(new[i], new[j]))
        for i in range(alg.dim) for j in range(i + 1, alg.dim)})


def sl2_on_irreducible(n: int) -> LieAlgebra:
    """sl2 ⋉ V_n with plain labels h, e, f, v0..vn: h.v_i = (n - 2i) v_i,
    e.v_i = i v_(i-1), f.v_i = (n - i) v_(i+1)."""
    constants = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    for i in range(n + 1):
        constants[(0, 3 + i)] = {3 + i: n - 2 * i}
        constants[(1, 3 + i)] = {2 + i: i}
        if i < n:
            constants[(2, 3 + i)] = {4 + i: n - i}
    return LieAlgebra(f"sl2-V{n}", ["h", "e", "f"] + [f"v{i}" for i in range(n + 1)], constants)

# -- invariant cochain counts by weights ------------------------------------

# rho - w rho and the sign of w, over the Weyl group of sl(2,C) = so(4,C) in
# the weights (L_12 / i, L_34): positive roots e1 -+ e2, coroots lambda_1 -+ lambda_2,
# rho = e1.  su(2) adds the weight J_12 / i, root e3, coroot 2 lambda_3, rho = e3 / 2.
_SHIFTS_SL2C = {(0, 0): 1, (1, -1): -1, (1, 1): -1, (2, 0): 1}
_SHIFTS_SU2 = {(0,): 1, (1,): -1}


def _cartan_weights(alg: LieAlgebra, cartan: list[tuple[int, complex]],
                    idx: list[int]) -> list[tuple[int, ...]]:
    """The weights of the span of ``idx``, an ad-invariant subspace, under
    the Cartan elements of ``cartan``, (position, scale) pairs: each weight
    is an eigenvalue divided by its scale, i for the compact L_12 and J_12
    and 1 for the boost L_34.  One eigendecomposition of a generic
    combination diagonalizes them all; the weights are rounded to integers."""
    pos = {x: r for r, x in enumerate(idx)}
    mats = []
    for g, scale in cartan:
        mat = np.zeros((len(idx), len(idx)), dtype=complex)
        for y, vec in alg.ad_columns(g).items():
            for x, c in vec.items():
                if y in pos:
                    mat[pos[x], pos[y]] = float(c) / scale
        mats.append(mat)
    _, vecs = np.linalg.eig(sum(m * np.sqrt(p) for m, p in zip(mats, (2, 3, 5))))
    inv = np.linalg.inv(vecs)
    exact = np.array([np.diag(inv @ m @ vecs) for m in mats]).T
    weights = np.rint(exact.real).astype(int)
    assert np.abs(exact - weights).max() < 1e-6, "weights are not integers"
    return [tuple(map(int, w)) for w in weights]


def invariant_dimension(alg, k: int, module: str) -> int:
    """dim Hom(Lambda^k r, M)^s for the radical r of a family algebra, its
    Levi factor s and M the algebra (module 'adjoint') or the line
    ('trivial'), with no kernel solve; the reference for
    ``invariant_cochains(alg, k).dim``.

    The weights of r and of the algebra come from ``_cartan_weights``; those
    of Lambda^k r* (x) M are subset sums.  The trivial representation then
    occurs sum_w sign(w) mult(rho - w rho) times (Weyl's character formula
    at highest weight 0).  It shares only ``levi_indices`` and
    ``ideal_indices`` with the engine.
    """
    levi, ideal = alg.levi_indices, alg.ideal_indices
    cartan = [(alg.index[lb.L(1, 2)], 1j), (alg.index[lb.L(3, 4)], 1)]
    shifts = _SHIFTS_SL2C
    if alg.index[lb.J(1, 2)] in levi:
        cartan.append((alg.index[lb.J(1, 2)], 1j))
        shifts = {a + b: s * t for a, s in _SHIFTS_SL2C.items() for b, t in _SHIFTS_SU2.items()}
    zero = (0,) * len(cartan)
    radical = _cartan_weights(alg, cartan, ideal)
    module_weights = [zero] if module == "trivial" else radical + _cartan_weights(alg, cartan, levi)
    wedge = Counter(tuple(-sum(c) for c in zip(zero, *ws)) for ws in combinations(radical, k))
    mult = Counter()
    for w, count in wedge.items():
        for m in module_weights:
            mult[tuple(a + b for a, b in zip(w, m))] += count
    return sum(sign * mult[shift] for shift, sign in shifts.items())


def invariance_image(alg: LieAlgebra, g: int, wedges: list[tuple], key: int) -> dict:
    """g . f for the unit cochain f at key = widx[S] * dim + m (f(S) = e_m,
    zero on every other wedge), by the definition

        (g . f)(T) = [g, f(T)] - sum_t f(T_1 .. [g, T_t] .. T_k)

    over each wedge T of ``wedges``, antisymmetry read off the sort of the
    arguments: {widx[T] * dim + x: Fraction}, zeros dropped."""
    dim = alg.dim
    S, m = wedges[key // dim], key % dim
    ad = [brute_bracket(alg, {g: 1}, {z: 1}) for z in range(dim)]
    out: dict = {}
    for w, T in enumerate(wedges):
        if T == S:
            for x, c in ad[m].items():
                out[w * dim + x] = out.get(w * dim + x, 0) + c
        if len(T) != len(S):
            continue
        for t, z in enumerate(T):
            for y, c in ad[z].items():
                args = T[:t] + (y,) + T[t + 1:]
                if tuple(sorted(args)) != S or len(set(args)) < len(args):
                    continue
                swaps = sum(a > b for i, a in enumerate(args) for b in args[i + 1:])
                out[w * dim + m] = out.get(w * dim + m, 0) + (c if swaps & 1 else -c)
    return {k: v for k, v in out.items() if v}


# -- the extension classes by witness matrices ------------------------------


def extension_class_realized(case, q) -> bool:
    """Whether some matrix has the class (case, q), by a hand-written list
    of witnesses that :func:`classify` sorts: the companion matrices
    [[0, -d], [1, q]] for d in {-|q|, 0, |q|, -1, 1}, sign(q) I, and the
    Jordan block [[s, 1], [0, s]] with s = sign q."""
    q = F(q)
    s = (q > 0) - (q < 0)
    witnesses = [((0, -d), (1, q)) for d in (-abs(q), 0, abs(q), -1, 1)]
    witnesses += [((s, 0), (0, s)), ((s, 1), (0, s))]
    return any((c.case, c.q) == (case, q)
               for c in (classify(ExtensionMatrix.from_rows(w)) for w in witnesses))


# -- covering maps by the trace formula -----------------------------------

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_ID2 = np.eye(2, dtype=complex)


def trace_vector_rep(Lam: np.ndarray) -> np.ndarray:
    """The 4x4 matrix of X -> Lam X Lam^dagger on (sigma_1, sigma_2, sigma_3, 1),
    one trace per entry; the reference for ``grouplaw.vector_rep``."""
    out = np.empty((4, 4))
    basis = (*_SIGMA, _ID2)
    Lh = Lam.conj().T
    for nu, s in enumerate(basis):
        X = Lam @ s @ Lh
        for mu in range(3):
            out[mu, nu] = 0.5 * np.trace(_SIGMA[mu] @ X).real
        out[3, nu] = 0.5 * np.trace(X).real
    return out


def trace_so3_rep(R: np.ndarray) -> np.ndarray:
    """The 3x3 matrix of X -> R X R^dagger on the Pauli matrices, one trace per
    entry; the reference for ``grouplaw.so3_rep``."""
    out = np.empty((3, 3))
    Rh = R.conj().T
    for j in range(3):
        X = R @ _SIGMA[j] @ Rh
        for i in range(3):
            out[i, j] = 0.5 * np.trace(_SIGMA[i] @ X).real
    return out


def index_sym_rep(Lam: np.ndarray) -> np.ndarray:
    """The 10x10 action of Lambda on the coordinates c^{mn}, m <= n in basis
    order, index by index: w'^{mn} = Lambda^m_p Lambda^n_q w^{pq} summed over
    p, q, with w^{mn} = theta^{mn} c^{mn} (theta 1 on the diagonal, else 1/2)
    and Lambda = ``trace_vector_rep``; the reference for how
    ``grouplaw.compose`` moves c."""
    L = trace_vector_rep(Lam)
    pairs = [(m, n) for m in range(4) for n in range(m, 4)]
    theta = {(m, n): 1.0 if m == n else 0.5 for m in range(4) for n in range(4)}
    out = np.empty((10, 10))
    for col, (p, q) in enumerate(pairs):
        w = {(p, q): theta[p, q], (q, p): theta[q, p]}      # the unit c^{pq}
        for row, (m, n) in enumerate(pairs):
            out[row, col] = sum(L[m, r] * L[n, s] * v for (r, s), v in w.items()) / theta[m, n]
    return out


def lstsq_project_real(M: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Real coefficients c minimizing |M - sum_i c_i basis[i]| by least squares
    on the real and imaginary parts; the reference for ``grouplaw.log_coords``."""
    cols = [np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in basis]
    target = np.concatenate([M.real.ravel(), M.imag.ravel()])
    sol, *_ = np.linalg.lstsq(np.array(cols).T, target, rcond=None)
    return sol


# -- wrappers over the package engines, for tests only ---------------------


def coboundary_matrix(alg: LieAlgebra, coeffs: CoefficientModule, k: int) -> SparseExactMatrix:
    """Matrix of D * d_k on the full algebra, lexicographic wedge bases."""
    return CochainComplex(alg, coeffs).d_matrix(k)


def keyed_domain_rows(cx: CochainComplex, k: int) -> dict[int, dict[int, int]]:
    """The rows of ``cx.d_matrix_by_domain(k)``, in ascending domain order:
    ``cx.d_basis(S, m)`` for every (S, m) in turn, each codomain key (T, mp)
    placed by a dict from every (k+1)-wedge to its position in the listed
    wedge order.  The reference for the builder, which places each
    constant once per (k-1)-wedge at closed-form wedge ranks; this walks
    every column and every wedge by key."""
    dimM = cx.coeffs.dim
    start = {T: q * dimM for q, T in enumerate(cx.wedges(k + 1))}
    rows = {}
    for dom, (S, m) in enumerate(product(cx.wedges(k), range(dimM))):
        if col := cx.d_basis(S, m):
            rows[dom] = {start[T] + mp: v for (T, mp), v in col.items()}
    return rows


def keyed_dd_violations(cx: CochainComplex, k: int) -> list:
    """The basis cochains (S, m) at degree k, in basis order, whose
    ``cx.d_apply(cx.d_basis(S, m))`` is nonzero.  The reference for
    ``cx.dd_violations``, which composes the by-domain rows of d_k and
    d_{k+1}; this composes keyed columns one basis cochain at a time."""
    return [(S, m) for S, m in product(cx.wedges(k), range(cx.coeffs.dim))
            if cx.d_apply(cx.d_basis(S, m))]


def integer_matrix(rows: list[list]) -> SparseExactMatrix:
    """Dense rational rows as a ``SparseExactMatrix``, each row scaled by the
    common denominator of its entries (the same rank)."""
    mat = SparseExactMatrix(len(rows), len(rows[0]) if rows else 0)
    for r, row in enumerate(rows):
        s = lcm(*(F(v).denominator for v in row))
        if entries := {c: int(F(v) * s) for c, v in enumerate(row) if v}:
            mat.rows[r] = entries
    return mat


def full_coboundary_classes(alg, k: int) -> list[dict]:
    """The invariant k-cocycles of ``reduction_data`` that are independent
    modulo d of all of C^{k-1}(ideal, algebra) and of the classes before
    them, in the order of the cocycle basis.

    The reference for the invariant reduction, which reduces modulo d of
    the invariant (k-1)-cochains only: for the 51-dim algebra at k = 2, 10
    of the 2142 one-cochains.  It shares ``reduction_data``'s Levi/radical
    split, so it checks the coboundary step only; the split is checked by
    ``test_h1_reduction_matches_direct_on_every_family_selector``.
    """
    data = reduction_data(alg, k)
    cx = data.invariant.complex
    full = Echelon()
    for S, m in product(cx.wedges(k - 1), range(alg.dim)):
        full.insert(cx.d_basis(S, m))
    return [z for z in data.cocycles if full.insert(z) is not None]


def generator_casimir(kind: str, params: RepParams, xi: np.ndarray,
                      basis: FockBasis) -> OscillatorOperator:
    """-g^{mu nu} delta^{ij} X_{i mu} X_{j nu} for X = A or Q as the sum of
    the twelve products of ``internal_generator`` matrices; the reference for
    ``oscillator.casimir_MN`` and ``casimir_MA``.

    The metric is diagonal, so only the mu = nu terms survive.
    """
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i in range(1, 4):
        for mu in range(1, 5):
            x = internal_generator(BasisLabel(kind, (i, mu)), xi, params, basis).matrix
            gmn = 1.0 if mu < 4 else -1.0
            mat -= gmn * x @ x
    return OscillatorOperator(mat, basis, hermitian=True)


def ladder_matrices(basis: FockBasis) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Dimensionless position and momentum matrices (u_j, p_j), j = 1..3.

    u = (a + a^dag)/sqrt(2) and p = i (a^dag - a)/sqrt(2); both Hermitian on
    the whole truncated space, with the canonical commutator holding on the
    interior subspace.
    """
    return ([_quadrature(basis, mode, "u") for mode in range(3)],
            [_quadrature(basis, mode, "p") for mode in range(3)])


def second_order_exact(basis: FockBasis) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exactly projected u_j^2 and p_j^2 matrices (no truncated products).

    u^2 = n + 1/2 + (raising^2 + lowering^2)/2 per mode; p^2 flips the sign
    of the off-diagonal part.
    """
    return ([_second_order(basis, mode, 1.0) for mode in range(3)],
            [_second_order(basis, mode, -1.0) for mode in range(3)])
