"""Chevalley-Eilenberg cohomology by exact sparse rank.

Cochains live on lexicographic wedge bases; the differential is

    (d w)(x_0..x_k) = sum_i (-1)^i x_i . w(..x_i^..)
                    + sum_{i<j} (-1)^{i+j} w([x_i, x_j], ..x_i^..x_j^..)

Ranks are computed exactly (fraction-free sparse elimination) or modulo
several large primes with a unanimity requirement; a modular rank can only
undershoot the rational rank, so the modular Betti number is reported as a
high-confidence upper bound, not a proof.

The module also implements the invariant-cochain reduction: cohomology of
the nilpotent ideal with coefficients in the full algebra, restricted to
cochains invariant under the whole algebra.  That shrinks the second-degree
computation from tens of thousands of unknowns to a handful and keeps it
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from .algebras import NewSteinAlgebra
from .exactla import Echelon, SparseExactMatrix, kernel_basis, random_primes
from .liealg import LieAlgebra, SparseVec

_F = Fraction


class InternalCheckError(ArithmeticError):
    """A consistency check of the computation failed, not one of its inputs.

    Raised for d o d != 0, a negative Betti number and modular ranks that
    disagree across primes.
    """


class CoefficientModule:
    """Trivial, adjoint, or explicit-matrix coefficients.

    ``action(t)`` returns the sparse columns of rho(e_t) on the module basis
    (input index -> output vector).
    """

    def __init__(self, kind: str, dim: int, action):
        self.kind = kind
        self.dim = dim
        self.action = action

    @classmethod
    def trivial(cls) -> "CoefficientModule":
        return cls("trivial", 1, lambda t: {})

    @classmethod
    def adjoint(cls, alg: LieAlgebra) -> "CoefficientModule":
        return cls("adjoint", alg.dim, alg.ad_columns)

    @classmethod
    def explicit(cls, alg: LieAlgebra,
                 matrices: list[dict[int, SparseVec]]) -> "CoefficientModule":
        """Coefficients acting by the given sparse matrices, checked to represent ``alg``."""
        dim = 0
        for cols in matrices:
            for j, vec in cols.items():
                dim = max(dim, j + 1, *(k + 1 for k in vec))
        bad = _representation_violations(alg, matrices, dim)
        if bad:
            raise ValueError(f"matrices are not a representation; first bad pair {bad[0]}")
        return cls("explicit", dim, lambda t: matrices[t])


def _apply_cols(cols: dict[int, SparseVec], vec: SparseVec) -> SparseVec:
    out: SparseVec = {}
    for j, c in vec.items():
        for k, d in cols.get(j, {}).items():
            _bump(out, k, c * d)
    return out


def _representation_violations(alg, matrices, dim):
    """Pairs i < j where rho(e_i) rho(e_j) - rho(e_j) rho(e_i) != rho([e_i, e_j])."""
    bad = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for m in range(dim):
                unit = {m: _F(1)}
                defect = _apply_cols(matrices[i], _apply_cols(matrices[j], unit))
                for k, v in _apply_cols(matrices[j], _apply_cols(matrices[i], unit)).items():
                    _bump(defect, k, -v)
                for t, c in alg.bracket_basis(i, j).items():
                    for k, v in matrices[t].get(m, {}).items():
                        _bump(defect, k, -c * v)
                if defect:
                    bad.append((i, j))
                    break
    return bad


def _wedge_sign(tup: tuple[int, ...]):
    """Sort a tuple, returning (sorted, parity sign) or None on repeats."""
    lst = list(tup)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return None
    return tuple(lst), sign


class CochainComplex:
    """CE complex of an algebra (or subalgebra) with given coefficients.

    ``arg_indices`` restricts the wedge arguments to a subset of the ambient
    basis (it must span a subalgebra); coefficients always carry the ambient
    action.  Coordinates are keyed (wedge_tuple, module_index).
    """

    def __init__(self, alg: LieAlgebra, coeffs: CoefficientModule,
                 arg_indices: list[int] | None = None):
        self.alg = alg
        self.coeffs = coeffs
        self.args = list(range(alg.dim)) if arg_indices is None else sorted(arg_indices)
        argset = set(self.args)
        # bracket table restricted to the arguments, indexed by target
        self._by_target: dict[int, list[tuple[int, int, Fraction]]] = {}
        for (i, j), vec in alg.constants.items():
            if i in argset and j in argset:
                for k, c in vec.items():
                    if k not in argset:
                        raise ValueError("argument set is not a subalgebra")
                    self._by_target.setdefault(k, []).append((i, j, c))
        self._wedge_cache: dict[int, list[tuple[int, ...]]] = {}

    def wedges(self, k: int) -> list[tuple[int, ...]]:
        if k not in self._wedge_cache:
            self._wedge_cache[k] = list(combinations(self.args, k))
        return self._wedge_cache[k]

    def dim_c(self, k: int) -> int:
        if k < 0:
            return 0
        return comb(len(self.args), k) * self.coeffs.dim

    def d_basis(self, S: tuple[int, ...], m: int) -> dict:
        """Column of d applied to the basis cochain at (S, m)."""
        out: dict = {}
        inS = set(S)
        # action part: removing t from the sorted T leaves exactly S
        for t in self.args:
            if t in inS:
                continue
            T, _ = _wedge_sign(S + (t,))
            sgn = (-1) ** T.index(t)
            for mp, c in self.coeffs.action(t).get(m, {}).items():
                key = (T, mp)
                new = out.get(key, 0) + sgn * c
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        # bracket part
        for p, c_idx in enumerate(S):
            rest = S[:p] + S[p + 1:]
            restset = set(rest)
            for a, b, coeff in self._by_target.get(c_idx, ()):
                if a in restset or b in restset:
                    continue
                ws = _wedge_sign(rest + (a, b))
                if ws is None:
                    continue
                # evaluating at sorted T: w([T_i,T_j], rest) picks up (-1)^{i+j},
                # and reading the coefficient at S moves the target past p slots
                T, _ = ws
                i, j = T.index(a), T.index(b)
                sgn = (-1) ** (i + j + p)
                key = (T, m)
                new = out.get(key, 0) + sgn * coeff
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        return out

    def d_apply(self, vec: dict) -> dict:
        out: dict = {}
        for (S, m), c in vec.items():
            for key, v in self.d_basis(S, m).items():
                new = out.get(key, 0) + c * v
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        return out

    def _d_entries(self, k: int):
        """(domain, codomain, value) for every nonzero entry of d_k.

        Positions are on the lexicographic wedge bases, module index
        fastest; domain positions come in increasing order.
        """
        dimM = self.coeffs.dim
        pos_of = {T: q for q, T in enumerate(self.wedges(k + 1))}
        for s_pos, S in enumerate(self.wedges(k)):
            for m in range(dimM):
                dom = s_pos * dimM + m
                for (T, mp), v in self.d_basis(S, m).items():
                    yield dom, pos_of[T] * dimM + mp, v

    def d_matrix(self, k: int) -> SparseExactMatrix:
        """Matrix of d_k: C^k -> C^{k+1} on the lexicographic wedge bases."""
        mat = SparseExactMatrix(self.dim_c(k + 1), self.dim_c(k))
        for dom, cod, v in self._d_entries(k):
            mat.add(cod, dom, v)
        return mat

    def d_matrix_by_domain(self, k: int) -> SparseExactMatrix:
        """Transpose of d_k, one row per domain basis cochain (same rank).

        Eliminating along the smaller side keeps the big second-degree
        computations tractable: at full scale the domain has 65k rows while
        the codomain has over a million.
        """
        mat = SparseExactMatrix(self.dim_c(k), self.dim_c(k + 1))
        for dom, cod, v in self._d_entries(k):
            mat.add(dom, cod, v)
        return mat

    def dd_violations(self, k: int) -> list:
        """Basis cochains at degree k with d(d(.)) != 0 (must be empty)."""
        bad = []
        for S in self.wedges(k):
            for m in range(self.coeffs.dim):
                if self.d_apply(self.d_basis(S, m)):
                    bad.append((S, m))
        return bad


def coboundary_matrix(alg: LieAlgebra, coeffs: CoefficientModule, k: int) -> SparseExactMatrix:
    """Matrix of d_k on the full algebra, lexicographic wedge bases."""
    return CochainComplex(alg, coeffs).d_matrix(k)


@dataclass
class CohomologyReport:
    """Dimensions, ranks, and the resulting Betti number for one degree."""

    algebra: str
    module: str
    degree: int
    dim_prev: int
    dim_here: int
    dim_next: int
    rank_prev: int
    rank_here: int
    betti: int
    method: str
    primes: list[int] = field(default_factory=list)
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "module": self.module,
            "degree": self.degree,
            "dim_cochains": [self.dim_prev, self.dim_here, self.dim_next],
            "rank_d_prev": self.rank_prev,
            "rank_d_here": self.rank_here,
            "betti": self.betti,
            "method": self.method,
            "primes": list(self.primes),
            "notes": self.notes,
        }


def _unanimous_rank(mat: SparseExactMatrix, primes: list[int]) -> tuple[int, list[int]]:
    """Rank modulo at least three distinct primes, accepted only if unanimous.

    A prime dividing an elimination pivot can only lower the rank, so one
    prime below the maximum is expected.  The primes that reach the maximum
    are kept and, in a single replacement round, fresh primes never tried
    before bring them back up to three.  Every replacement must reach the
    maximum too; one that dissents is persistent disagreement and raises
    ``InternalCheckError`` naming every prime tried and its rank.  Returns the
    rank and the agreeing primes.
    """
    ranks = [mat.rank_mod_p(p) for p in primes]
    best = max(ranks)
    if ranks.count(best) == len(ranks):
        return best, list(primes)
    tried = dict(zip(primes, ranks))
    keep = [p for p, r in tried.items() if r == best]
    need = max(3 - len(keep), 0)
    # over-draw by the number tried so the exclusion still leaves enough
    fresh = [p for p in random_primes(need + len(tried), seed=primes[-1])
             if p not in tried][:need]
    for p in fresh:
        tried[p] = mat.rank_mod_p(p)
        if tried[p] != best:
            raise InternalCheckError(
                f"modular ranks disagree: replacement prime {p} gave rank "
                f"{tried[p]}, maximum {best}; rank by prime tried: {tried}")
        keep.append(p)
    return best, keep


def betti(alg: LieAlgebra, coeffs: CoefficientModule, k: int, *,
          method: str = "exact", primes: list[int] | None = None,
          check_dd: bool = True) -> CohomologyReport:
    """dim H^k(alg, coeffs) with the requested rank method.

    Degrees are capped at 3 for large algebras: the next cochain space runs
    past desk scale there (about 10^6 dimensions at degree four for the
    51-dimensional algebra).
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    if k > 3 and alg.dim > 20:
        raise ValueError("degree capped at 3 for large algebras")
    cx = CochainComplex(alg, coeffs)

    def matrix(deg):
        # rank is orientation-free; eliminate along the smaller side
        if cx.dim_c(deg + 1) > cx.dim_c(deg):
            return cx.d_matrix_by_domain(deg)
        return cx.d_matrix(deg)

    d_here = matrix(k)
    d_prev = matrix(k - 1) if k >= 1 else None
    if check_dd and k >= 1:
        bad = cx.dd_violations(k - 1)
        if bad:
            raise InternalCheckError(f"d o d != 0 at degree {k - 1}: {bad[:3]}")
    notes = ""
    if method == "exact":
        rank_here = d_here.rank_exact()
        rank_prev = d_prev.rank_exact() if d_prev is not None else 0
        used: list[int] = []
    elif method == "modular":
        used = primes if primes is not None else random_primes(3, seed=k + alg.dim)
        if len(used) < 3 or len(set(used)) != len(used):
            raise ValueError("modular method needs at least 3 distinct primes")
        rank_here, used_h = _unanimous_rank(d_here, used)
        if d_prev is not None:
            rank_prev, used_p = _unanimous_rank(d_prev, used)
        else:
            rank_prev, used_p = 0, []
        used = sorted(set(used_h) | set(used_p))
        notes = ("modular ranks are lower bounds of the rational ranks, so this "
                 "Betti number is a high-confidence upper-bound certificate")
    else:
        raise ValueError(f"unknown method {method!r}")
    b = cx.dim_c(k) - rank_here - rank_prev
    if b < 0:
        raise InternalCheckError("negative Betti number: rank computation inconsistent")
    return CohomologyReport(
        algebra=alg.name, module=coeffs.kind, degree=k,
        dim_prev=cx.dim_c(k - 1), dim_here=cx.dim_c(k), dim_next=cx.dim_c(k + 1),
        rank_prev=rank_prev, rank_here=rank_here, betti=b,
        method=method, primes=used, notes=notes,
    )


# -- invariant-cochain reduction -----------------------------------------


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _intersect_kernel(basis: list[dict], image_of):
    """Restrict a spanning set to the kernel of one linear operator.

    ``image_of(vec)`` maps a sparse vector to its sparse image.  The basis is
    partitioned into connected components through shared image coordinates;
    each component contributes an independent exact null-space problem.
    """
    images = [image_of(vec) for vec in basis]
    uf = _UnionFind(len(basis))
    owner: dict = {}
    for idx, img in enumerate(images):
        for key in img:
            if key in owner:
                uf.union(owner[key], idx)
            else:
                owner[key] = idx
    groups: dict[int, list[int]] = {}
    for idx in range(len(basis)):
        groups.setdefault(uf.find(idx), []).append(idx)
    out = []
    for members in groups.values():
        if all(not images[i] for i in members):
            out.extend(basis[i] for i in members)
            continue
        combos = kernel_basis([images[i] for i in members])
        for combo in combos:
            vec: dict = {}
            for local, coeff in combo.items():
                for key, v in basis[members[local]].items():
                    _bump(vec, key, coeff * v)
            if vec:
                out.append(vec)
    return out


@dataclass
class InvariantCochainSpace:
    """Exact basis of invariant cochains of the ideal complex, keyed (wedge, target)."""

    complex: CochainComplex
    degree: int
    basis: list[dict]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _generator_order(alg: NewSteinAlgebra, under: str) -> list[int]:
    """Invariance constraints ordered so early kernels have tiny blocks."""
    kinds_order = ("T", "Tp", "C", "J", "L", "A", "Q") if under == "full" else ("J", "L")
    order = []
    for kind in kinds_order:
        order.extend(i for i, lab in enumerate(alg.labels)
                     if getattr(lab, "kind", None) == kind)
    return order


def _ideal_complex(alg: NewSteinAlgebra) -> CochainComplex:
    return CochainComplex(alg, CoefficientModule.adjoint(alg), alg.ideal_indices)


def invariant_cochains(alg: NewSteinAlgebra, k: int, *,
                       under: str = "levi") -> InvariantCochainSpace:
    """Basis of invariant cochains Hom(Lambda^k ideal, algebra), exact.

    Invariance of f under a generator g is the vanishing of the Lie
    derivative

        (g . f)(x_1..x_k) = [g, f(x_1..x_k)] - sum_t f(x_1.. [g, x_t] ..x_k),

    solved as an intersection of operator kernels.  ``under='levi'``
    (default) enforces the constraints for the L and J generators only;
    that is the subcomplex whose cohomology computes the full adjoint
    cohomology, because the semisimple part acts reductively and ideal
    elements act trivially on cohomology classes (their Lie derivative of a
    cocycle is the coboundary of a contraction).  ``under='full'`` enforces
    strict invariance under all basis generators; note that cochains
    invariant only up to coboundary are then excluded, so the full-strict
    space is smaller than the space of invariant cohomology classes.
    """
    if k not in (1, 2):
        raise ValueError("invariant reduction implemented for degrees 1 and 2")
    if under not in ("levi", "full"):
        raise ValueError("under must be 'levi' or 'full'")
    cx = _ideal_complex(alg)
    basis: list[dict] = [{(S, m): _F(1)} for S in cx.wedges(k) for m in range(alg.dim)]

    idealset = set(cx.args)
    for g in _generator_order(alg, under):
        ad_cols = alg.ad_columns(g)
        # transpose over ideal arguments: ad_t[x] lists (y, c) with y in the
        # ideal and [g, e_y] containing c * e_x, because the argument
        # constraint -f(.., [g, y], ..) lands on preimages
        ad_t: dict[int, list] = {}
        for y, vec in ad_cols.items():
            if y not in idealset:
                continue
            for x, c in vec.items():
                ad_t.setdefault(x, []).append((y, c))
        coord_cache: dict = {}

        def image_of_coord(key):
            if key in coord_cache:
                return coord_cache[key]
            S, m = key
            img: dict = {}
            for mp, c in ad_cols.get(m, {}).items():
                _bump(img, (S, mp), c)
            for p, x in enumerate(S):
                for y, c in ad_t.get(x, ()):
                    ws = _wedge_sign(S[:p] + (y,) + S[p + 1:])
                    if ws is None:
                        continue
                    T, sgn = ws
                    _bump(img, (T, m), -sgn * c)
            coord_cache[key] = img
            return img

        def image_of(vec):
            out: dict = {}
            for key, coeff in vec.items():
                for okey, v in image_of_coord(key).items():
                    _bump(out, okey, coeff * v)
            return out

        basis = _intersect_kernel(basis, image_of)
    return InvariantCochainSpace(cx, k, basis)


def _bump(d: dict, key, value) -> None:
    new = d.get(key, 0) + value
    if new:
        d[key] = new
    else:
        d.pop(key, None)


def invariant_cocycles(alg: NewSteinAlgebra,
                       k: int) -> tuple[InvariantCochainSpace, list[dict]]:
    """Levi-invariant cochains plus a basis of the cocycles among them."""
    inv = invariant_cochains(alg, k)
    return inv, _intersect_kernel(inv.basis, inv.complex.d_apply)


@dataclass
class ReductionData:
    """Exact ingredients of one invariant-reduction computation."""

    invariant: InvariantCochainSpace
    cocycles: list[dict]
    boundary_dim: int
    residual_classes: list[dict]

    @property
    def betti(self) -> int:
        return len(self.cocycles) - self.boundary_dim


def reduction_data(alg: NewSteinAlgebra, k: int) -> ReductionData:
    """Invariant cocycles on the ideal and their coboundary subspace.

    The reduction computes H^k(algebra, adjoint) as invariant-cocycles
    modulo coboundaries: the semisimple part acts reductively, so the
    cohomology of the invariant subcomplex is the invariant part of the
    ideal cohomology, and the quotient collapses onto it.  A cocycle counts
    as a class only if it is independent modulo the full coboundary space of
    the ideal complex and the classes already counted, so the count does not
    depend on the cocycle basis.  Cocycles in the span of the coboundaries
    of analytic preimages are certified coboundaries without building that
    space.
    """
    inv, cocycles = invariant_cocycles(alg, k)
    cx = inv.complex
    ech = Echelon()
    if k == 2:
        for phi in _analytic_preimages(alg):
            img = cx.d_apply(phi)
            if img:
                ech.insert(img)
    residual = [z for z in cocycles
                if any(Echelon._is_real(key) for key in ech.reduce(z))]
    if residual:
        full = Echelon()
        for S in cx.wedges(k - 1):
            for m in range(alg.dim):
                col = cx.d_basis(S, m)
                if col:
                    full.insert(col)
        residual = [z for z in residual if full.insert(z) is not None]
    return ReductionData(inv, cocycles, len(cocycles) - len(residual), residual)


def _reduction_report(alg: NewSteinAlgebra, k: int, data: ReductionData) -> CohomologyReport:
    cx = data.invariant.complex
    return CohomologyReport(
        algebra=alg.name, module="adjoint", degree=k,
        dim_prev=cx.dim_c(k - 1), dim_here=cx.dim_c(k), dim_next=cx.dim_c(k + 1),
        rank_prev=data.boundary_dim, rank_here=cx.dim_c(k) - len(data.cocycles),
        betti=data.betti,
        method="invariant-reduction-exact",
        notes=f"invariant cochains {data.invariant.dim}, invariant cocycles "
              f"{len(data.cocycles)}, of which coboundaries {data.boundary_dim}",
    )


def h1_via_reduction(alg: NewSteinAlgebra) -> CohomologyReport:
    """dim H^1(alg, alg) through the invariant ideal complex, exact."""
    return _reduction_report(alg, 1, reduction_data(alg, 1))


def h2_via_reduction(alg: NewSteinAlgebra) -> CohomologyReport:
    """dim H^2(alg, alg) through the invariant ideal complex, exact."""
    return _reduction_report(alg, 2, reduction_data(alg, 2))


def _analytic_preimages(alg: NewSteinAlgebra) -> list[dict]:
    """One-cochains whose coboundaries span the invariant two-coboundaries."""
    phi_a: dict = {}
    phi_b: dict = {}
    trace = alg.trace_c().coeffs
    from .labels import metric

    for pos in alg.ideal_indices:
        lab = alg.labels[pos]
        if lab.kind == "A":
            phi_a[((pos,), pos)] = _F(1)
        elif lab.kind == "C":
            mu, nu = lab.indices
            g = metric(mu, nu)
            if g:
                for m, c in trace.items():
                    phi_b[((pos,), m)] = -g * c
    return [phi_a, phi_b]


def six_parameter_cochain_family(alg: NewSteinAlgebra) -> list[dict]:
    """The six-parameter invariant family on the ideal, as cochain vectors.

    Generators (alpha, alpha', beta, beta', gamma, gamma'): T -> T, T' -> T',
    A -> A with C -> C, Q -> A, A -> Q, Q -> Q with C -> C.
    """
    kinds = {}
    for pos in alg.ideal_indices:
        kinds.setdefault(alg.labels[pos].kind, []).append(pos)

    def partner(pos, kind):
        lab = alg.labels[pos]
        from .labels import BasisLabel
        return alg.index[BasisLabel(kind, lab.indices)]

    fam = []
    fam.append({((p,), p): _F(1) for p in kinds["T"]})                       # alpha
    fam.append({((p,), p): _F(1) for p in kinds["Tp"]})                      # alpha'
    fam.append({((p,), p): _F(1) for p in kinds["A"] + kinds["C"]})          # beta
    fam.append({((p,), partner(p, "A")): _F(1) for p in kinds["Q"]})         # beta'
    fam.append({((p,), partner(p, "Q")): _F(1) for p in kinds["A"]})         # gamma
    fam.append({((p,), p): _F(1) for p in kinds["Q"] + kinds["C"]})          # gamma'
    return fam
