"""Chevalley-Eilenberg cohomology by exact sparse rank.

Cochains live on lexicographic wedge bases; the differential is

    (d w)(x_0..x_k) = sum_i (-1)^i x_i . w(..x_i^..)
                    + sum_{i<j} (-1)^{i+j} w([x_i, x_j], ..x_i^..x_j^..)

Every term of d is linear in one structure constant or module entry, so
each complex scales them once by D, their least common denominator: then
``d_basis``, ``d_apply`` and the matrices carry the integer differential
D * d, with the ranks and kernels of d (D = 1 for the 51-dim algebra).

Ranks are computed exactly (fraction-free sparse elimination) or modulo
several large primes with a unanimity requirement; a modular rank can only
undershoot the rational rank, so the modular Betti number is reported as a
high-confidence upper bound, not a proof.  A prime dividing D is refused.

The module also implements the invariant-cochain reduction: cohomology of
the radical with coefficients in the full algebra, restricted to the
Levi-invariant subcomplex.  By Hochschild-Serre (1953), with the Levi
factor semisimple (acting completely reducibly, its first and second
cohomology vanishing), that is H^k of the whole algebra for k = 1, 2.  It
shrinks the second-degree computation from tens of thousands of unknowns to
a handful and keeps it exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .exactla import (Echelon, SparseExactMatrix, _bump, _combine, _is_prime, _normalize,
                      kernel_basis, random_primes)
from .labels import BasisLabel
from .liealg import LieAlgebra


class InternalCheckError(ArithmeticError):
    """A consistency check of the computation failed, not one of its inputs.

    Raised for d o d != 0, a negative Betti number, modular ranks that
    disagree across primes, invariant coboundaries outside the span of the
    invariant cocycles and ``verify-all`` routes that disagree.
    """


class CoefficientModule:
    """Trivial coefficients, or the adjoint module of ``algebra``.

    ``action(t)`` returns the sparse columns of rho(e_t) on the module basis
    (input index -> output vector).  The columns are shared between calls
    and are read-only.
    """

    def __init__(self, algebra: LieAlgebra | None = None):
        self.algebra = algebra
        self.kind = "trivial" if algebra is None else "adjoint"
        self.dim = 1 if algebra is None else algebra.dim
        self.action = (lambda t: {}) if algebra is None else algebra.ad_columns

    @classmethod
    def trivial(cls) -> "CoefficientModule":
        return cls()

    @classmethod
    def adjoint(cls, alg: LieAlgebra) -> "CoefficientModule":
        """ad on the algebra itself, read from its shared adjoint table."""
        return cls(alg)

    def _check_module_of(self, alg: LieAlgebra) -> None:
        """Refuse a module of another algebra; equal labels and constants are the same one."""
        if (other := self.algebra) not in (None, alg) and (
                (other.labels, other.constants) != (alg.labels, alg.constants)):
            raise ValueError(f"coefficients of {other.name!r} do not act on {alg.name!r}")


class CochainComplex:
    """CE complex of an algebra (or subalgebra) with given coefficients.

    ``arg_indices`` restricts the wedge arguments to a subset of the ambient
    basis (it must span a subalgebra); coefficients always carry the ambient
    action.  Coordinates are keyed (wedge_tuple, module_index).  ``scale``
    is D, the common denominator every differential is multiplied by.
    """

    def __init__(self, alg: LieAlgebra, coeffs: CoefficientModule,
                 arg_indices: list[int] | None = None):
        coeffs._check_module_of(alg)
        self.alg = alg
        self.coeffs = coeffs
        self.args = list(range(alg.dim)) if arg_indices is None else sorted(arg_indices)
        argset = set(self.args)
        brackets = [(i, j, vec) for (i, j), vec in alg.constants.items()
                    if i in argset and j in argset]
        acting = [(t, m, col) for t in self.args for m, col in coeffs.action(t).items() if col]
        # D * d is integral: scale every constant and entry once
        self.scale = D = lcm(*(Fraction(c).denominator for *_, vec in brackets + acting
                               for c in vec.values()))
        # bracket table restricted to the arguments, indexed by target
        self._by_target: dict[int, list[tuple[int, int, int]]] = {}
        for i, j, vec in brackets:
            for k, c in vec.items():
                if k not in argset:
                    raise ValueError("argument set is not a subalgebra")
                self._by_target.setdefault(k, []).append((i, j, int(c * D)))
        # _acting[m] lists (t, D rho(e_t) e_m) for every argument t moving e_m
        self._acting: list[list[tuple[int, dict[int, int]]]] = [[] for _ in range(coeffs.dim)]
        for t, m, col in acting:
            self._acting[m].append((t, {mp: int(c * D) for mp, c in col.items()}))

    def wedges(self, k: int) -> list[tuple[int, ...]]:
        return list(combinations(self.args, k)) if k >= 0 else []

    def dim_c(self, k: int) -> int:
        if k < 0:
            return 0
        return comb(len(self.args), k) * self.coeffs.dim

    def d_basis(self, S: tuple[int, ...], m: int) -> dict:
        """Column of D * d applied to the basis cochain at (S, m), keyed
        (wedge, module index).

        Sign rule, the one definition of d (``d_matrix_by_domain`` places the
        same entries).  The slot s_x of x in a wedge W is the number of
        elements of W below x.  Action part: each entry v * e_mp of
        D rho(e_t) e_m, t not in S, adds (-1)^(s_t) * v at (S + {t}, mp),
        s_t the slot of t in S, since removing t from that wedge leaves S.
        Bracket part: write S = R + {c}; each constant [e_a, e_b] with
        v * e_c in it (a < b; a, b not in R) adds (-1)^(s_a + s_b + 1 + s_c) * v
        at (R + {a, b}, m), the slots taken in R: a and b sit at indices s_a
        and s_b + 1 of that wedge, and reading the coefficient at S moves c
        past s_c places.  Below, q, ia, ib and p are s_t, s_a, s_b and s_c.
        """
        out: dict = {}
        n = len(S)
        # action part; every key (T, mp) is new
        for t, col in self._acting[m]:
            q = bisect_left(S, t)
            if q < n and S[q] == t:
                continue
            T = S[:q] + (t,) + S[q:]
            for mp, c in col.items():
                out[T, mp] = -c if q & 1 else c
        # bracket part
        n -= 1
        for p, c_idx in enumerate(S):
            pairs = self._by_target.get(c_idx)
            if not pairs:
                continue
            rest = S[:p] + S[p + 1:]
            for a, b, coeff in pairs:
                ia = bisect_left(rest, a)
                if ia < n and rest[ia] == a:
                    continue
                ib = bisect_left(rest, b, ia)
                if ib < n and rest[ib] == b:
                    continue
                key = (rest[:ia] + (a,) + rest[ia:ib] + (b,) + rest[ib:], m)
                if v := out.pop(key, 0) + (-coeff if (ia + ib + 1 + p) & 1 else coeff):
                    out[key] = v
        return out

    def d_apply(self, vec: dict) -> dict:
        """D * d of a cochain given as {(wedge, module index): coefficient}."""
        return _combine(lambda key: self.d_basis(*key), vec)

    def d_matrix(self, k: int) -> SparseExactMatrix:
        """Matrix of D * d_k: C^k -> C^{k+1} on the lexicographic wedge bases."""
        mat = SparseExactMatrix(self.dim_c(k + 1), self.dim_c(k))
        for dom, col in self.d_matrix_by_domain(k).rows.items():
            for cod, v in col.items():
                mat.rows.setdefault(cod, {})[dom] = v
        return mat

    def d_matrix_by_domain(self, k: int) -> SparseExactMatrix:
        """Transpose of D * d_k, one row per nonzero domain column (same rank).

        Rows are stored in ascending domain position; positions are on the
        lexicographic wedge bases, module index fastest.  Eliminating along
        the smaller side keeps the big second-degree computations tractable:
        at full scale the domain has 65k rows while the codomain has over a
        million.  Entries follow the sign rule of ``d_basis``.

        A wedge's position is its lexicographic rank, in closed form (the
        combinatorial number system): for (t_0 < .. < t_{r-1}) at local
        argument positions q_i among n arguments it is
        C(n, r) - 1 - sum_i C(n - 1 - q_i, r - i), so no table of the wedges
        is built.  A term depends on the element and on its index in the
        wedge.

        The bracket part is built by walking the (k-1)-wedges R in order:
        each constant with a, b, c not in R is placed once, at row
        R + {c} and column R + {a, b}.  For each R the slots, and the sums of
        R's terms for each slot where c, or a and b, enter, are taken once,
        so an entry's position adds only the entering elements' own terms.
        Two rests reach the same (S, T) where T = S + {x} and ad x has
        diagonal entries at two elements of S, so entries are summed with
        zeros dropped.  The part of each domain wedge S is kept at module
        index 0; module index m copies it shifted by m and adds the action
        part, from one table of the positions of S + {t} per S.  With one
        module index the part is the row itself.
        """
        dimM, n = self.coeffs.dim, len(self.args)
        mat = SparseExactMatrix(self.dim_c(k), self.dim_c(k + 1))
        if k < 0:
            return mat
        loc = {t: q for q, t in enumerate(self.args)}
        # neg_S[i][q], neg_T[i][q]: minus the term of local argument q at index i
        # of a k-wedge's rank and of a (k+1)-wedge's position (times dimM)
        neg_S = [[-comb(n - 1 - q, k - i) for q in range(n)] for i in range(k)]
        neg_T = [[-comb(n - 1 - q, k + 1 - i) * dimM for q in range(n)] for i in range(k + 1)]
        top_S, top_T = comb(n, k) - 1, (comb(n, k + 1) - 1) * dimM
        slots = [[i] * n for i in range(k + 1)]
        by_target = [(loc[c], [(loc[a], loc[b], v) for a, b, v in pairs])
                     for c, pairs in self._by_target.items()]
        parts: list = [{} for _ in range(comb(n, k))]
        for R in combinations(range(n), k - 1) if k else ():
            slot = _slots(R, slots)
            row_at = _slot_sums(R, neg_S, top_S)
            col_at = [_slot_sums(R, neg_T, top_T, sa) for sa in range(k)]
            # the own terms of a at index s_a and of b at index s_b + 1 of T
            own_a, own_b = _by_slot(R, neg_T), _by_slot(R, neg_T[1:])
            for c, pairs in by_target:
                if (sc := slot[c]) is None:
                    continue
                part = parts[row_at[sc] + neg_S[sc][c]]
                for a, b, v in pairs:
                    sa, sb = slot[a], slot[b]
                    if sa is None or sb is None:
                        continue
                    key = col_at[sa][sb] + own_a[a] + own_b[b]
                    if not (sa + sb + sc) & 1:
                        v = -v
                    if w := part.get(key, 0) + v:
                        part[key] = w
                    else:
                        del part[key]
        # acting[m]: (t, (D rho(e_t) e_m, its negative)) at local positions t
        acting = [[(loc[t], (col, {mp: -v for mp, v in col.items()})) for t, col in at_m]
                  for at_m in self._acting]
        acts = any(acting)
        for w, S in enumerate(combinations(range(n), k)):
            part, parts[w] = parts[w], None
            if acts:
                slot = _slots(S, slots)
                # shift[t]: the position of S + {t} at module index 0
                base = _slot_sums(S, neg_T, top_T)
                shift = [None if s is None else base[s] + own
                         for s, own in zip(slot, _by_slot(S, neg_T))]
            for m, at_m in enumerate(acting):
                row = part if dimM == 1 else {key + m: v for key, v in part.items()}
                for t, cols in at_m:
                    if (s := slot[t]) is None:
                        continue
                    at = shift[t]
                    for mp, v in cols[s & 1].items():
                        if x := row.get(at + mp, 0) + v:
                            row[at + mp] = x
                        else:
                            del row[at + mp]
                if row:
                    mat.rows[w * dimM + m] = row
        return mat

    def dd_violations(self, k: int) -> list:
        """Basis cochains (S, m) at degree k with d(d(.)) != 0, in basis order
        (must be empty): ``betti``'s check, ``_dd_failures``, on the rows of
        ``d_matrix_by_domain(k)`` and ``(k + 1)``, failing positions keyed."""
        bad = _dd_failures(self.d_matrix_by_domain(k), self.d_matrix_by_domain(k + 1))
        wedges, dimM = self.wedges(k), self.coeffs.dim
        return [(wedges[p // dimM], p % dimM) for p in bad]


def _dd_failures(first: SparseExactMatrix, second: SparseExactMatrix) -> list:
    """The rows of ``first``, in order, whose composition with the rows of
    ``second`` (sum_j row[j] * second.rows[j]) is nonzero."""
    return [c for c, row in first.rows.items()
            if _combine(lambda j: second.rows.get(j, {}), row)]


def _by_slot(W: tuple[int, ...], tables: list[list]) -> list:
    """tables[s][x] for each local argument x, s its slot in the wedge W (the
    elements of W below x; W[j] itself reads tables[j]): one slice per gap."""
    out, lo = [], 0
    for j, x in enumerate(W):
        out += tables[j][lo:x + 1]
        lo = x + 1
    return out + tables[len(W)][lo:]


def _slots(W: tuple[int, ...], slots: list[list[int]]) -> list:
    """The slot of each local argument in the wedge W, None on W itself;
    ``slots[s]`` is a list of s's."""
    slot = _by_slot(W, slots)
    for x in W:
        slot[x] = None
    return slot


def _slot_sums(W: tuple[int, ...], neg: list[list[int]], top: int, *entered: int) -> list[int]:
    """sums[s] = top + sum_j neg[i_j][W[j]], i_j the index of W[j] once one
    element enters W at slot s and one at each slot in ``entered``.  From
    s = len(W) down, each step moves one more element of W up one index."""
    idx = [j + sum(j >= e for e in entered) for j in range(len(W))]
    sums = [top + sum([neg[i][x] for i, x in zip(idx, W)])]
    for i, x in zip(reversed(idx), reversed(W)):
        sums.append(sums[-1] + neg[i + 1][x] - neg[i][x])
    return sums[::-1]


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
          method: str = "exact", primes: list[int] | None = None) -> CohomologyReport:
    """dim H^k(alg, coeffs) by exact or modular rank, or by ``reduction_data``.

    Degrees are capped at 3 for large algebras: the next cochain space runs
    past desk scale (about 10^6 dimensions at degree four for the
    51-dimensional algebra).  Both differentials are built along the
    smaller side of d_k, and the d o d check, which always runs, composes
    those rows.  The reduction needs adjoint coefficients, k = 1 or 2 and a
    basis-aligned Levi split (``levi_indices``), and builds no full complex.
    """
    if method not in ("exact", "modular", "reduction"):
        raise ValueError(f"unknown method {method!r}")
    if primes is not None and method != "modular":
        raise ValueError(f"primes apply to the modular method, not to {method!r}")
    if method == "reduction":
        if coeffs.kind != "adjoint":
            raise ValueError(f"the reduction computes adjoint cohomology, not {coeffs.kind}")
        if k not in (1, 2):
            raise ValueError(f"the reduction computes degree 1 or 2, not {k}")
        coeffs._check_module_of(alg)
        data = reduction_data(alg, k)
        cx = data.invariant.complex
        rank_prev, rank_here = data.boundary_dim, cx.dim_c(k) - len(data.cocycles)
        method, used = "invariant-reduction-exact", []
        notes = (f"invariant cochains {data.invariant.dim}, invariant cocycles "
                 f"{len(data.cocycles)}, of which coboundaries {data.boundary_dim}")
    else:
        if k < 0:
            raise ValueError("degree must be non-negative")
        if k > 3 and alg.dim > 20:
            raise ValueError("degree capped at 3 for large algebras")
        cx = CochainComplex(alg, coeffs)
        if method == "modular":
            used = primes if primes is not None else random_primes(3, seed=k + alg.dim)
            if len(used) < 3 or len(set(used)) != len(used):
                raise ValueError("modular method needs at least 3 distinct primes")
            if composite := [p for p in used if not _is_prime(p)]:
                raise ValueError(f"moduli {composite} are not prime")
            if dividing := [p for p in used if cx.scale % p == 0]:
                raise ValueError(f"primes {dividing} divide the common denominator {cx.scale} "
                                 "of the constants; modular rank needs primes that do not")
        # rank is orientation-free; the codomain of d_k is no larger than its
        # domain only for k >= (n - 1) / 2, which the degree cap keeps to small
        # algebras
        by_domain = cx.dim_c(k + 1) > cx.dim_c(k)
        build = cx.d_matrix_by_domain if by_domain else cx.d_matrix
        d_prev, d_here = build(k - 1), build(k)  # d_{-1} has no rows
        # d_k o d_{k-1}, or its transpose, from the rows just built
        first, second = (d_prev, d_here) if by_domain else (d_here, d_prev)
        if bad := _dd_failures(first, second):
            raise InternalCheckError(f"d o d != 0 at degree {k - 1}: {bad[:3]}")
        if method == "exact":
            rank_here, rank_prev = d_here.rank_exact(), d_prev.rank_exact()
            used, notes = [], ""
        else:
            rank_here, used_h = _unanimous_rank(d_here, used)
            rank_prev, used_p = _unanimous_rank(d_prev, used)
            used = sorted(set(used_h) | set(used_p))
            notes = ("modular ranks are lower bounds of the rational ranks, so this "
                     "Betti number is a high-confidence upper-bound certificate")
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


def _intersect_kernel(basis: list[dict], image_of):
    """Restrict a spanning set to the kernel of one linear operator.

    ``image_of(vec)`` maps a sparse vector to its sparse image, which is only
    read.  The basis is partitioned into connected components through shared
    image coordinates; each component is an independent exact null-space
    problem, and a lone vector with a nonzero image has no kernel.
    Combinations come out primitive.

    A component's shape is its member images with each key replaced by its
    rank among the component's sorted keys.  ``kernel_basis`` orders its
    columns by sorted key and reads only the values, so its combinations
    depend on the shape alone: each shape is solved once per call and its
    combinations serve every component of that shape.

    Over the unit cochains of an invariance operator, ``_unit_kernel``
    gives the same list from counts, with no image built for a unit that
    has no key or reaches each of its keys alone.
    """
    images = [image_of(vec) for vec in basis]
    out: list[dict] = []
    solved: dict[tuple, list] = {}     # shape -> its kernel combinations
    for members in _components(images):
        if len(members) > 1:
            out += _component_kernel([basis[i] for i in members], [images[i] for i in members],
                                     solved)
        elif not images[members[0]]:
            out.append(basis[members[0]])
    return out


def _components(images: list[dict]) -> list[list[int]]:
    """The indices of each connected component through shared image keys,
    ascending, the components in order of their first member."""
    # union-find with the root of each tree its largest index: image idx
    # hangs the root of each key's first owner, found by path halving, under
    # idx itself, so a parent never sits below its child
    parent = list(range(len(images)))
    owner: dict = {}
    for idx, img in enumerate(images):
        for key in img:
            r = owner.setdefault(key, idx)
            while (up := parent[r]) != r:
                parent[r] = r = parent[up]
            parent[r] = idx
    groups: dict[int, list[int]] = {}
    for idx in reversed(range(len(images))):
        parent[idx] = parent[parent[idx]]     # the parent's entry is its root already
    for idx, r in enumerate(parent):
        groups.setdefault(r, []).append(idx)
    return list(groups.values())


def _component_kernel(vecs: list[dict], images: list[dict], solved: dict) -> list[dict]:
    """Primitive kernel combinations of one component: ``vecs`` with their
    ``images``, solved once per shape through ``solved``."""
    rank = {key: r for r, key in enumerate(sorted({key for img in images for key in img}))}
    shape = tuple(tuple(sorted((rank[key], v) for key, v in img.items())) for img in images)
    if (combos := solved.get(shape)) is None:
        combos = solved[shape] = kernel_basis([dict(img) for img in shape])
    return [_normalize(vec) for combo in combos if (vec := _combine(vecs.__getitem__, combo))]


@dataclass
class InvariantCochainSpace:
    """Exact bases of invariant cochains of the ideal complex, keyed (wedge, target):
    ``basis`` in the degree k asked for, ``below`` in degree k - 1."""

    complex: CochainComplex
    basis: list[dict]
    below: list[dict]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _generator_order(alg: LieAlgebra) -> list[int]:
    """Levi generators, sparsest ad first (stable; plain index order measured
    7-9 % slower), less each in the span of the kept ones and their pairwise
    brackets: the annihilator of a cochain is a subalgebra, so a skipped
    generator's kernel holds every cochain the kept ones annihilate."""
    kept: list[int] = []
    span = Echelon()
    for g in sorted(alg.levi_indices, key=lambda i: sum(map(len, alg.ad_columns(i).values()))):
        if span.insert({g: 1}) is None:
            continue
        for h in kept:
            span.insert(alg.bracket_vec({g: 1}, {h: 1}))
        kept.append(g)
    return kept


def _ideal_complex(alg: LieAlgebra) -> CochainComplex:
    return CochainComplex(alg, CoefficientModule.adjoint(alg), alg.ideal_indices)


class _InvarianceOperator:
    """D * (g . f) for one Levi generator g on the cochains of the ideal
    complex ``cx``, on the integer coordinates w * dim + m of the cochain
    (wedges[w], m), dim the module's, with D the common denominator of
    ad g and rho(g): the sum of an argument part, one entry of ``parts``
    per wedge, and rho(g) on the module index m (``rho_cols``)."""

    def __init__(self, cx: CochainComplex, g: int, wedges: list[tuple[int, ...]]):
        self.dim = dim = cx.coeffs.dim
        widx = {S: w for w, S in enumerate(wedges)}
        argset = set(cx.args)
        rho_g = cx.coeffs.action(g)
        ad_g = {y: vec for y, vec in cx.alg.ad_columns(g).items() if y in argset}
        # D * (g . f) has the kernel of g . f and integer entries
        D = lcm(*(c.denominator for cols in (rho_g, ad_g) for vec in cols.values()
                  for c in vec.values()))
        self.rho_cols = {m: {x: int(c * D) for x, c in vec.items()} for m, vec in rho_g.items()}
        # transpose over the arguments: ad_t[x] lists (y, c) with [g, e_y]
        # containing c * e_x, because the argument constraint
        # -f(.., [g, y], ..) lands on preimages
        ad_t: dict[int, list] = {}
        for y, vec in ad_g.items():
            for x, c in vec.items():
                ad_t.setdefault(x, []).append((y, int(c * D)))
        # parts[w]: the argument part at module index 0, split as (the
        # coefficient on S itself, {widx[T] * dim: coefficient} for T != S).
        # T = S only where y = x, so the split-off coefficient sums diagonal
        # entries of ad g on the arguments; rho(g) on m, placed on S, shares
        # no key with the rest.
        self.parts: list[tuple[int, dict[int, int]]] = []
        for w, S in enumerate(wedges):
            img: dict[int, int] = {}
            for p, x in enumerate(S):
                rest = S[:p] + S[p + 1:]
                for y, c in ad_t.get(x, ()):
                    # y replaces x at slot p and moves to slot q of the sorted T
                    q = bisect_left(rest, y)
                    if q < len(rest) and rest[q] == y:
                        continue
                    _bump(img, widx[rest[:q] + (y,) + rest[q:]] * dim, c if (p + q) & 1 else -c)
            self.parts.append((img.pop(w * dim, 0), img))

    def image_of(self, vec: dict) -> dict:
        """The image of ``vec``, accumulated coordinate by coordinate into one
        dict: c * rho(g) on m, c * rest(w) shifted by m and c * own(w), zeros
        dropped as they appear (own(w) and rho(g)'s diagonal meet at the key)."""
        dim, rho_cols, parts = self.dim, self.rho_cols, self.parts
        out: dict = {}
        for key, c in vec.items():
            w, m = divmod(key, dim)
            own, rest = parts[w]
            # inline, not _bump, as in exactla._reduce
            for k, v in rest.items():
                k += m
                if x := out.get(k, 0) + c * v:
                    out[k] = x
                else:
                    del out[k]
            base = key - m
            for k, v in rho_cols.get(m, {}).items():
                k += base
                if x := out.get(k, 0) + c * v:
                    out[k] = x
                else:
                    del out[k]
            if own:
                if x := out.get(key, 0) + c * own:
                    out[key] = x
                else:
                    del out[key]
        return out


def _unit_kernel(op: _InvarianceOperator) -> list[dict]:
    """``_intersect_kernel`` over every unit cochain, entry for entry, with
    images built only for the units that share a key.

    Write (own(w), rest(w)) for ``op.parts[w]`` and off(m), diag(m) for
    rho(g) on m off and on the diagonal.  The image of the unit
    (w, m) has the keys (w, m') for m' in off(m), (t, m) for t in rest(w),
    and (w, m) itself when own(w) + diag(m) != 0.  So

        in_b[y] + in_a[x] + [own(x) + diag(y) != 0]

    units reach the key (x, y), where in_a[x] counts the wedges whose rest
    holds x and in_b[y] the indices whose off-column holds y.  A unit with
    no key is kept; one that alone reaches each of its keys is lone with a
    nonzero image and has no kernel.  Neither reads its image.  Only the
    others get an image and a union-find entry; each of their components
    has two members or more.  The kept units and the components' kernels
    go in order of their first unit, as in ``_intersect_kernel``.
    """
    dim, parts = op.dim, op.parts
    diag = [op.rho_cols.get(m, {}).get(m, 0) for m in range(dim)]
    off = [[y for y in op.rho_cols.get(m, ()) if y != m] for m in range(dim)]
    in_a = [0] * len(parts)
    for _, rest in parts:
        for t in rest:
            in_a[t // dim] += 1
    in_b = [0] * dim
    for col in off:
        for y in col:
            in_b[y] += 1
    # whether (w, m) is lone or has no key reads w and m only through these
    wsig = [(own, in_a[w], frozenset((in_a[t // dim], parts[t // dim][0]) for t in rest))
            for w, (own, rest) in enumerate(parts)]
    msig = [(diag[m], in_b[m], frozenset((in_b[y], diag[y]) for y in off[m]))
            for m in range(dim)]

    def kept(ws):
        """[(m, whether (w, m) has no key)] over the units (w, m) that are
        not lone, for any w of signature ws."""
        own, a, rest = ws
        out = []
        for m, (d, b, offs) in enumerate(msig):
            if not (rest or offs or own + d):
                out.append((m, True))
            elif not (all(by + a + (own + dy != 0) == 1 for by, dy in offs)
                      and all(b + at + (ot + d != 0) == 1 for at, ot in rest)
                      and (own + d == 0 or a + b == 0)):
                out.append((m, False))
        return out

    by_sig: dict[tuple, list] = {}
    zero, shared = [], []       # unit keys, ascending
    for w, ws in enumerate(wsig):
        if (ms := by_sig.get(ws)) is None:
            ms = by_sig[ws] = kept(ws)
        for m, no_key in ms:
            (zero if no_key else shared).append(w * dim + m)
    images = [op.image_of({key: 1}) for key in shared]
    out: list[dict] = []
    solved: dict[tuple, list] = {}
    done = 0
    for members in _components(images):
        upto = bisect_left(zero, shared[members[0]], done)
        out += ({key: 1} for key in zero[done:upto])
        done = upto
        out += _component_kernel([{shared[i]: 1} for i in members], [images[i] for i in members],
                                 solved)
    out += ({key: 1} for key in zero[done:])
    return out


def _ladder_wedges(cx: CochainComplex, k: int) -> list[tuple[int, ...]]:
    """The wedges of degrees k - 1 and k of ``cx`` in one lexicographic order."""
    return sorted(S for j in range(k - 1, k + 1) for S in cx.wedges(j))


def invariant_cochains(alg: LieAlgebra, k: int) -> InvariantCochainSpace:
    """Bases of the Levi-invariant cochains Hom(Lambda^k r, algebra) and
    Hom(Lambda^(k-1) r, algebra) of the radical r, exact.

    Invariance of f under a Levi generator g is the vanishing of the Lie
    derivative

        (g . f)(x_1..x_k) = rho(g) f(x_1..x_k) - sum_t f(x_1.. [g, x_t] ..x_k),

    rho the module's action (ad, here), solved as an intersection of
    operator kernels, one per generator in a generating set of the Levi
    factor, over the unit cochains of both degrees at once.  g . f keeps
    the degree, so no kernel component mixes degrees and each degree's
    basis is the one a run on that degree alone gives.  At k = 0 the
    cochains are the algebra itself and the basis spans the centralizer of
    the Levi factor.

    It runs on integers: each operator is scaled by its own common
    denominator, and the bases hold primitive integer cochains.  A
    coordinate (S, m) is the integer ``widx[S] * dim + m`` over the wedges
    of both degrees in one lexicographic order, so integers sort as the
    pairs do; the operator is the sum of its argument part, one table
    entry per wedge S, and rho(g) on m.

    The first generator's pass runs over every unit cochain and builds an
    image only for the units that share a key (``_unit_kernel``).  Later
    passes run ``_intersect_kernel`` on the basis the pass before left.
    """
    if k not in (0, 1, 2):
        raise ValueError("invariant reduction implemented for degrees 0, 1 and 2")
    cx = _ideal_complex(alg)
    dim = cx.coeffs.dim
    wedges = _ladder_wedges(cx, k)
    gens = _generator_order(alg)
    if gens:
        basis = _unit_kernel(_InvarianceOperator(cx, gens[0], wedges))
        for g in gens[1:]:
            basis = _intersect_kernel(basis, _InvarianceOperator(cx, g, wedges).image_of)
    else:
        basis = [{key: 1} for key in range(len(wedges) * dim)]
    basis = [{(wedges[key // dim], key % dim): v for key, v in vec.items()} for vec in basis]
    # every key of a nonzero cochain has the same wedge length
    degree = [len(next(iter(vec))[0]) for vec in basis]
    return InvariantCochainSpace(cx, [v for v, j in zip(basis, degree) if j == k],
                                 [v for v, j in zip(basis, degree) if j < k])


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


def reduction_data(alg: LieAlgebra, k: int) -> ReductionData:
    """H^k of the Levi-invariant subcomplex of the ideal complex.

    Among the invariant cocycles, the coboundaries are exactly d of the
    invariant (k-1)-cochains: the Levi factor acts completely reducibly, so
    taking invariants commutes with cohomology.  Those images seed one
    echelon; each cocycle it still accepts is a class, so the count does
    not depend on the cocycle basis.  Each image is an invariant cocycle,
    so the echelon must end at the cocycle count; any other rank raises
    ``InternalCheckError``.  One ``invariant_cochains`` call solves both
    degrees on one ideal complex.
    """
    inv = invariant_cochains(alg, k)
    cx = inv.complex
    cocycles = _intersect_kernel(inv.basis, cx.d_apply)
    ech = Echelon()
    for phi in inv.below:
        ech.insert(cx.d_apply(phi))
    residual = [z for z in cocycles if ech.insert(z) is not None]
    if ech.rank != len(cocycles):
        raise InternalCheckError(f"invariant coboundaries leave the span of the {len(cocycles)} "
                                 f"invariant {k}-cocycles: echelon rank {ech.rank}")
    return ReductionData(inv, cocycles, len(cocycles) - len(residual), residual)


def h1_via_reduction(alg: LieAlgebra) -> CohomologyReport:
    """dim H^1(alg, alg) through the invariant ideal complex, exact."""
    return betti(alg, CoefficientModule.adjoint(alg), 1, method="reduction")


def h2_via_reduction(alg: LieAlgebra) -> CohomologyReport:
    """dim H^2(alg, alg) through the invariant ideal complex, exact."""
    return betti(alg, CoefficientModule.adjoint(alg), 2, method="reduction")


def six_parameter_cochain_family(alg: LieAlgebra) -> list[dict]:
    """The six-parameter invariant family on the ideal, as cochain vectors.

    Generators (alpha, alpha', beta, beta', gamma, gamma'): T -> T, T' -> T',
    A -> A with C -> C, Q -> A, A -> Q, Q -> Q with C -> C.
    """
    kinds = {}
    for pos in alg.ideal_indices:
        kinds.setdefault(alg.labels[pos].kind, []).append(pos)

    def partner(pos, kind):
        return alg.index[BasisLabel(kind, alg.labels[pos].indices)]

    fam = []
    fam.append({((p,), p): 1 for p in kinds["T"]})                       # alpha
    fam.append({((p,), p): 1 for p in kinds["Tp"]})                      # alpha'
    fam.append({((p,), p): 1 for p in kinds["A"] + kinds["C"]})          # beta
    fam.append({((p,), partner(p, "A")): 1 for p in kinds["Q"]})         # beta'
    fam.append({((p,), partner(p, "Q")): 1 for p in kinds["A"]})         # gamma
    fam.append({((p,), p): 1 for p in kinds["Q"] + kinds["C"]})          # gamma'
    return fam
