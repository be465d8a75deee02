"""Relativistic-invariant extension calculus.

A one-dimensional extension of the main algebra is fixed by a 2x2 real
matrix L = [[beta, beta'], [gamma, gamma']] describing how the extension
generator acts on each (A_{i rho}, Q_{i rho}) plane:

    [K, A] = beta A + gamma Q,   [K, Q] = beta' A + gamma' Q,
    [K, C] = (beta + gamma') C,

with K commuting with everything purely external or purely internal
(L, T, T', J).  Equivalence is the real Jordan type of L after rescaling K,
which sorts every such matrix into one of nine canonical cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .labels import A, C, Q
from .liealg import LieAlgebra, SparseVec


class InvalidExtensionParameter(ValueError):
    """Raised for excluded parameter values (zeta^2 in {0,1} etc.)."""


@dataclass(frozen=True)
class ExtensionMatrix:
    """The 2x2 matrix of ad K on an (A, Q) plane, row-major."""

    beta: Fraction
    beta_p: Fraction
    gamma: Fraction
    gamma_p: Fraction

    @classmethod
    def from_rows(cls, rows) -> "ExtensionMatrix":
        (b, bp), (g, gp) = rows
        return cls(Fraction(b), Fraction(bp), Fraction(g), Fraction(gp))

    def rows(self):
        return ((self.beta, self.beta_p), (self.gamma, self.gamma_p))

    @property
    def trace(self) -> Fraction:
        return self.beta + self.gamma_p

    @property
    def det(self) -> Fraction:
        return self.beta * self.gamma_p - self.beta_p * self.gamma

    @property
    def discriminant(self) -> Fraction:
        return self.trace * self.trace - 4 * self.det

    def is_zero(self) -> bool:
        return not any((self.beta, self.beta_p, self.gamma, self.gamma_p))


@dataclass
class ExtensionClass:
    """One of the nine canonical extension cases, with parameters.

    ``zeta2`` is the eigenvalue parameter for cases 3-5 (the constructor and
    classifier work with zeta^2 directly; negative values are allowed).  For
    cases 8-9 the angle enters through an exact point (cos phi, sin phi) on
    the unit circle.  ``note`` carries empirical flags (cases the canonical
    list does not realize as printed).
    """

    case: int
    zeta2: Fraction | float | None = None
    cos_sin: tuple | None = None
    rescale: float = 1.0
    jordan_type: str = ""
    note: str = ""

    def __post_init__(self):
        if self.case not in range(1, 10):
            raise InvalidExtensionParameter(f"case {self.case} not in 1..9")
        if self.case == 3 and self.zeta2 in (0, 1):
            raise InvalidExtensionParameter("case 3 requires zeta^2 not in {0, 1}")
        if self.case in (4, 5) and self.zeta2 == 0:
            raise InvalidExtensionParameter("cases 4 and 5 require zeta^2 != 0")
        if self.cos_sin is not None:
            c, s = self.cos_sin
            if isinstance(c, float) or isinstance(s, float):
                if abs(c * c + s * s - 1) > 1e-12:
                    raise InvalidExtensionParameter("(cos, sin) must lie on the unit circle")
            elif Fraction(c) ** 2 + Fraction(s) ** 2 != 1:
                raise InvalidExtensionParameter("(cos, sin) must lie on the unit circle")
            if self.case == 9 and c == 0:
                raise InvalidExtensionParameter("case 9 excludes cos phi = 0")


def case_matrix(cls: ExtensionClass) -> ExtensionMatrix:
    """Canonical matrix read off the bracket list of the given case."""
    z = Fraction(cls.zeta2) if cls.zeta2 is not None else None
    if cls.cos_sin is not None:
        c, s = (Fraction(x) for x in cls.cos_sin)
    table = {
        1: ((0, 0), (0, 0)),
        2: ((1, 0), (0, -1)),
        6: ((0, 0), (-1, 0)),
        7: ((0, 1), (-1, 0)),
    }
    if cls.case in table:
        return ExtensionMatrix.from_rows(table[cls.case])
    if cls.case == 3:
        return ExtensionMatrix.from_rows(((z, 0), (0, -1 / z)))
    if cls.case == 4:
        return ExtensionMatrix.from_rows(((z, 0), (0, 1 / z)))
    if cls.case == 5:
        return ExtensionMatrix.from_rows(((z, 0), (0, 0)))
    if cls.case == 8:
        return ExtensionMatrix.from_rows(((c, 0), (-s, 1)))
    if cls.case == 9:
        return ExtensionMatrix.from_rows(((c, s), (-s, c)))
    raise InvalidExtensionParameter(f"case {cls.case}")


def derivation_from_matrix(L: ExtensionMatrix, alg: LieAlgebra) -> dict[int, SparseVec]:
    """The map Phi on the algebra defined by L: sparse columns index -> image.

    Phi sends A_{i rho} -> beta A + gamma Q, Q_{i rho} -> beta' A + gamma' Q,
    C_{mu nu} -> (beta + gamma') C_{mu nu}, and annihilates L, T, T', J.
    """
    cols: dict[int, SparseVec] = {}
    trace = L.trace
    for pos, lab in enumerate(alg.labels):
        kind = getattr(lab, "kind", None)
        if kind == "A":
            i, rho = lab.indices
            vec = {alg.index[A(i, rho)]: L.beta, alg.index[Q(i, rho)]: L.gamma}
        elif kind == "Q":
            i, rho = lab.indices
            vec = {alg.index[A(i, rho)]: L.beta_p, alg.index[Q(i, rho)]: L.gamma_p}
        elif kind == "C":
            vec = {pos: trace}
        else:
            continue
        vec = {k: v for k, v in vec.items() if v != 0}
        if vec:
            cols[pos] = vec
    return cols


def leibniz_violations(alg: LieAlgebra, phi: dict[int, SparseVec]) -> list[tuple[int, int]]:
    """Basis pairs where Phi[x,y] != [Phi x, y] + [x, Phi y] (exact)."""

    def apply(vec: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for k, c in vec.items():
            for m, d in phi.get(k, {}).items():
                new = out.get(m, 0) + c * d
                if new:
                    out[m] = new
                else:
                    out.pop(m, None)
        return out

    bad = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = apply(alg.bracket_basis(i, j))
            rhs = alg.bracket_vec(apply({i: Fraction(1)}), {j: Fraction(1)})
            for k, v in alg.bracket_vec({i: Fraction(1)}, apply({j: Fraction(1)})).items():
                new = rhs.get(k, 0) + v
                if new:
                    rhs[k] = new
                else:
                    rhs.pop(k, None)
            if lhs != rhs:
                bad.append((i, j))
    return bad


_EPS = 1e-10


def classify(L: ExtensionMatrix) -> ExtensionClass:
    """Sort a 2x2 real matrix into its canonical case.

    Decision table on the rescaled matrix (K-rescaling by sqrt|det| when
    det != 0, by |tr| when det = 0 and tr != 0):

    * zero matrix                          -> case 1
    * det 0, tr 0, nonzero (nilpotent)     -> case 6
    * det 0, tr != 0 (rank one, diagable)  -> case 5, zeta^2 = sign(tr)
    * det < 0, tr 0                        -> case 2
    * det < 0, tr != 0                     -> case 3, zeta^2 = eigenvalue with |.| >= 1
    * det > 0, tr 0                        -> case 7
    * det > 0, disc > 0                    -> case 4, zeta^2 = eigenvalue with |.| >= 1
    * det > 0, disc < 0                    -> case 9 (case 7 when cos = 0)
    * det > 0, disc 0, scalar              -> case 4, zeta^2 = +-1
    * det > 0, disc 0, defective           -> case 8 slot, flagged: the printed
      case (8) bracket list never realizes this Jordan type

    Exact-rational path throughout the decisions; continuous parameters are
    reported exactly when the arithmetic stays rational, as floats otherwise.
    """
    det, tr, disc = L.det, L.trace, L.discriminant
    if L.is_zero():
        return ExtensionClass(1, jordan_type="zero")
    if det == 0:
        if tr == 0:
            return ExtensionClass(6, rescale=1.0, jordan_type="nilpotent")
        # rank-one diagonalizable; rescaling by |tr| sends the nonzero
        # eigenvalue (= tr) to +-1
        z = Fraction(1) if tr > 0 else Fraction(-1)
        return ExtensionClass(5, zeta2=z, rescale=abs(float(tr)),
                              jordan_type="rank-one diagonalizable")
    scale = math.sqrt(abs(float(det)))
    if det < 0:
        # real eigenvalues u > 0 > v with uv = -|det|; rescaled pair (l, -1/l)
        if tr == 0:
            return ExtensionClass(2, rescale=scale, jordan_type="real pair (1, -1)")
        lam = _dominant_eigenvalue(L, scale)
        return ExtensionClass(3, zeta2=lam, rescale=scale,
                              jordan_type="real pair (z, -1/z)")
    # det > 0
    if tr == 0:
        return ExtensionClass(7, rescale=scale, jordan_type="complex pair (i, -i)")
    if disc > 0:
        lam = _dominant_eigenvalue(L, scale)
        return ExtensionClass(4, zeta2=lam, rescale=scale,
                              jordan_type="real pair (z, 1/z)")
    if disc < 0:
        # cos phi = tr / (2 sqrt(det)); cos^2 = tr^2 / (4 det) is rational
        cos_sq = tr * tr / (4 * det)
        if _is_square(cos_sq) and _is_square(1 - cos_sq):
            c = _sqrt_fraction(cos_sq) * (1 if tr > 0 else -1)
            s = _sqrt_fraction(1 - cos_sq)
        else:
            cf = float(tr) / (2 * scale)
            c, s = cf, math.sqrt(max(0.0, 1 - cf * cf))
        return ExtensionClass(9, cos_sin=(c, s), rescale=scale,
                              jordan_type="complex pair exp(+-i phi)")
    # disc == 0: double real eigenvalue +-1 after rescale
    sign = Fraction(1) if tr > 0 else Fraction(-1)
    if L.beta_p == 0 and L.gamma == 0 and L.beta == L.gamma_p:
        return ExtensionClass(4, zeta2=sign, rescale=scale, jordan_type="scalar")
    return ExtensionClass(
        8, zeta2=sign, rescale=scale, jordan_type="defective double eigenvalue",
        note=("no printed case realizes a defective unit eigenvalue; "
              "assigned to the remaining slot (8) empirically"),
    )


def _dominant_eigenvalue(L: ExtensionMatrix, scale: float):
    """Eigenvalue of the rescaled matrix with |.| >= 1; exact when possible."""
    tr, disc = L.trace, L.discriminant
    if _is_square(disc) and _is_square(abs(L.det)):
        root = _sqrt_fraction(disc)
        s = _sqrt_fraction(abs(L.det))
        cands = [(tr + root) / (2 * s), (tr - root) / (2 * s)]
        return max(cands, key=abs)
    root = math.sqrt(float(disc))
    cands = [(float(tr) + root) / (2 * scale), (float(tr) - root) / (2 * scale)]
    return max(cands, key=abs)


def _is_square(q: Fraction) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    return (math.isqrt(q.numerator) ** 2 == q.numerator
            and math.isqrt(q.denominator) ** 2 == q.denominator)


def _sqrt_fraction(q: Fraction) -> Fraction:
    q = Fraction(q)
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def equivalent(L1: ExtensionMatrix, L2: ExtensionMatrix) -> bool:
    """Whether the two matrices define equivalent extensions.

    True iff the rescaled real Jordan types agree, with the continuous
    parameters compared up to each case's identification (eigenvalue swap
    for cases 3-4, orientation of the complex pair for case 9).
    """
    c1, c2 = classify(L1), classify(L2)
    if c1.case != c2.case:
        return False
    if c1.zeta2 is not None or c2.zeta2 is not None:
        if c1.zeta2 is None or c2.zeta2 is None:
            return False
        if abs(float(c1.zeta2) - float(c2.zeta2)) > _EPS:
            return False
    if c1.cos_sin is not None or c2.cos_sin is not None:
        if c1.cos_sin is None or c2.cos_sin is None:
            return False
        # phi in (0, pi): cos determines the class; sin is fixed positive
        if abs(float(c1.cos_sin[0]) - float(c2.cos_sin[0])) > _EPS:
            return False
    return True


def sample_class(case: int) -> ExtensionClass:
    """The case with its sample parameters.

    zeta^2 = 2 for cases 3-5 and (cos, sin) = (3/5, 4/5) for cases 8-9.
    """
    if case in (3, 4, 5):
        return ExtensionClass(case, zeta2=Fraction(2))
    if case in (8, 9):
        return ExtensionClass(case, cos_sin=(Fraction(3, 5), Fraction(4, 5)))
    return ExtensionClass(case)


def canonical_matrices() -> dict[int, ExtensionMatrix]:
    """One representative matrix per case, read off the bracket lists.

    Parameters are those of :func:`sample_class`; the case-8 entry is its
    printed form, which classifies elsewhere (see :func:`classify`).
    """
    return {case: case_matrix(sample_class(case)) for case in range(1, 10)}
