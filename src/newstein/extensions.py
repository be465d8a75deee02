"""Relativistic-invariant extension calculus.

A one-dimensional extension of the main algebra is fixed by a 2x2 real
matrix L = [[beta, beta'], [gamma, gamma']] describing how the extension
generator acts on each (A_{i rho}, Q_{i rho}) plane:

    [K, A] = beta A + gamma Q,   [K, Q] = beta' A + gamma' Q,
    [K, C] = (beta + gamma') C,

with K commuting with everything purely external or purely internal
(L, T, T', J).  Equivalence is the real Jordan type of L after rescaling K
by a positive factor, which sorts every such matrix into one of nine
canonical cases.  Every decision is exact: the rescaling keeps sign det,
sign tr and q = tr|tr|/|det|, so the case and q fix the class (sign tr when
det = 0).  A class whose zeta^2 or cos phi is irrational is built from the
rational companion matrix [[0, -d], [1, q]], with d = sign(det) |q|, which
has the same case and q.  Floats appear only in :func:`display`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .labels import BasisLabel
from .liealg import LieAlgebra, SparseVec


class InvalidExtensionParameter(ValueError):
    """Raised for excluded parameter values, whose matrix is another case's."""


@dataclass(frozen=True)
class ExtensionMatrix:
    """The 2x2 matrix of ad K on an (A, Q) plane, row-major; frozen, its invariants cached."""

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

    @cached_property
    def trace(self) -> Fraction:
        return self.beta + self.gamma_p

    @cached_property
    def det(self) -> Fraction:
        return self.beta * self.gamma_p - self.beta_p * self.gamma

    @cached_property
    def discriminant(self) -> Fraction:
        return self.trace * self.trace - 4 * self.det

    @cached_property
    def q(self) -> Fraction:
        """The scale invariant tr|tr|/|det|, sign tr when det = 0."""
        tr, det = self.trace, self.det
        return tr * abs(tr) / abs(det) if det else Fraction((tr > 0) - (tr < 0))

    def is_zero(self) -> bool:
        return not any((self.beta, self.beta_p, self.gamma, self.gamma_p))


@dataclass
class ExtensionClass:
    """One of the nine canonical extension cases, with exact parameters.

    ``zeta2`` is the eigenvalue parameter for cases 3-5 and the rescaled
    double eigenvalue q/4 of the case-8 slot (the constructor and classifier
    work with zeta^2 directly; negative values are allowed).  For cases 8-9
    the angle enters through an exact point (cos phi, sin phi) on the unit
    circle; no other case takes either.  Either is ``None`` when it is
    irrational; then ``q``, the scale invariant tr|tr|/|det| of the plane
    matrix (sign tr when det = 0), still fixes the class.  Parameters that
    fix a matrix (q alone does for cases 3, 4, 5 and 9) must fix one of this
    class: of its case by :func:`classify`'s table, bar the case-8 slot that
    no printed matrix realizes, and of its q.  The slot itself, case 8 with
    no (cos, sin), has q = +-4.  ``note`` carries empirical flags.
    """

    case: int
    zeta2: Fraction | None = None
    cos_sin: tuple | None = None
    q: Fraction | None = None
    jordan_type: str = ""
    note: str = ""

    def __post_init__(self):
        if self.case not in range(1, 10):
            raise InvalidExtensionParameter(f"case {self.case} not in 1..9")
        self.zeta2, self.q = (None if v is None else Fraction(v) for v in (self.zeta2, self.q))
        if self.cos_sin is not None:
            self.cos_sin = tuple(map(Fraction, self.cos_sin))
        c, s = self.cos_sin or (1, 0)
        if c * c + s * s != 1:
            raise InvalidExtensionParameter("(cos, sin) must lie on the unit circle")
        slot = self.case == 8 and self.cos_sin is None
        if self.zeta2 is not None and self.case not in (3, 4, 5) and not slot:
            raise InvalidExtensionParameter(f"case {self.case} has no zeta^2")
        if self.cos_sin is not None and self.case not in (8, 9):
            raise InvalidExtensionParameter(f"case {self.case} has no (cos, sin)")
        if slot and self.q is not None and abs(self.q) != 4:   # tr^2 = 4 det there
            raise InvalidExtensionParameter(f"the case-8 slot has q = +-4, not {self.q}")
        try:
            L = case_matrix(self)
        except InvalidExtensionParameter:   # no parameters, so no matrix to check
            return
        except ZeroDivisionError:
            L = None
        if self.case != 8 and (found := L and _case(L)) != self.case:
            given = ", ".join(f"{n} = {v}" for n, v in (
                ("zeta^2", self.zeta2), ("(cos, sin)", self.cos_sin and "(%s, %s)" % self.cos_sin),
                ("q", self.q)) if v is not None)
            why = f"falls in case {found}" if L else "divides by zero"
            raise InvalidExtensionParameter(f"case {self.case} excludes {given}: its matrix {why}")
        if self.q is not None and L.q != self.q:
            raise InvalidExtensionParameter(f"q = {self.q} contradicts the parameters, "
                                            f"whose matrix has q = {L.q}")


# Each case's rows [[beta, beta'], [gamma, gamma']] as a function of zeta^2, cos phi, sin phi
_CASE_ROWS = {
    1: lambda z, c, s: ((0, 0), (0, 0)),
    2: lambda z, c, s: ((1, 0), (0, -1)),
    3: lambda z, c, s: ((z, 0), (0, -1 / z)),
    4: lambda z, c, s: ((z, 0), (0, 1 / z)),
    5: lambda z, c, s: ((z, 0), (0, 0)),
    6: lambda z, c, s: ((0, 0), (-1, 0)),
    7: lambda z, c, s: ((0, 1), (-1, 0)),
    8: lambda z, c, s: ((c, 0), (-s, 1)),
    9: lambda z, c, s: ((c, s), (-s, c)),
}


def case_matrix(cls: ExtensionClass) -> ExtensionMatrix:
    """Canonical matrix of the class.

    With its parameters (zeta^2 for cases 3-5, (cos, sin) for 8-9) this is
    the matrix read off the case's bracket list.  Cases 3, 4, 5 and 9 with
    only ``q`` give the rational companion matrix [[0, -d], [1, q]], d = -|q|
    for case 3, 0 for 5 and +|q| for 4 and 9, whose tr|tr|/|det| is q (sign q
    for case 5, so only q = +-1 is of that case).  Raises
    ``InvalidExtensionParameter`` when neither is there, as in the flagged
    case-8 slot of :func:`classify`.
    """
    params = cls.cos_sin if cls.case in (8, 9) else cls.zeta2
    if params is None and cls.case in (3, 4, 5, 9) and cls.q is not None:
        d = {3: -abs(cls.q), 5: 0}.get(cls.case, abs(cls.q))
        return ExtensionMatrix.from_rows(((0, -d), (1, cls.q)))
    if params is None and cls.case in (3, 4, 5, 8, 9):
        raise InvalidExtensionParameter(f"case {cls.case} needs its parameters")
    return ExtensionMatrix.from_rows(_CASE_ROWS[cls.case](cls.zeta2, *(cls.cos_sin or (0, 0))))


def derivation_from_matrix(L: ExtensionMatrix, alg: LieAlgebra) -> dict[int, SparseVec]:
    """The map Phi on the algebra defined by L: sparse columns index -> image.

    Phi sends A_{i rho} -> beta A + gamma Q, Q_{i rho} -> beta' A + gamma' Q,
    C_{mu nu} -> (beta + gamma') C_{mu nu}, and annihilates L, T, T', J.
    """
    image = {"A": {"A": L.beta, "Q": L.gamma}, "Q": {"A": L.beta_p, "Q": L.gamma_p},
             "C": {"C": L.trace}}
    cols: dict[int, SparseVec] = {}
    for pos, lab in enumerate(alg.labels):
        if vec := {alg.index[BasisLabel(kind, lab.indices)]: v
                   for kind, v in image.get(getattr(lab, "kind", None), {}).items() if v}:
            cols[pos] = vec
    return cols


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
    * det > 0, disc < 0                    -> case 9
    * det > 0, disc 0, scalar              -> case 4, zeta^2 = +-1
    * det > 0, disc 0, defective           -> case 8 slot, flagged: the printed
      case (8) bracket list never realizes this Jordan type

    Every decision is exact.  Rescaling K by a positive factor keeps
    q = tr|tr|/|det| (sign tr when det = 0), so case and q fix the class;
    zeta^2 and (cos, sin) are reported when rational and are ``None``
    otherwise.
    """
    case, q = _case(L), L.q
    # rescaled, the nonzero eigenvalue of case 5 is q, the double one of the case-8 slot q/4
    zeta2 = _from_q(case, q, _rational_sqrt) if case in (3, 4) else {5: q, 8: q / 4}.get(case)
    return ExtensionClass(case, zeta2=zeta2, q=q,
                          cos_sin=_from_q(9, q, _rational_sqrt) if case == 9 else None,
                          jordan_type="scalar" if case == 4 and not L.discriminant
                          else _JORDAN_TYPE[case],
                          note="" if case != 8 else "no printed case realizes a defective unit "
                          "eigenvalue; assigned to the remaining slot (8) empirically")


_JORDAN_TYPE = {1: "zero", 2: "real pair (1, -1)", 3: "real pair (z, -1/z)",
                4: "real pair (z, 1/z)", 5: "rank-one diagonalizable", 6: "nilpotent",
                7: "complex pair (i, -i)", 8: "defective double eigenvalue",
                9: "complex pair exp(+-i phi)"}


def _case(L: ExtensionMatrix) -> int:
    """The case of L by the decision table of :func:`classify`."""
    det, tr = L.det, L.trace
    if det == 0:
        return 1 if L.is_zero() else 6 if tr == 0 else 5
    if det < 0:
        return 2 if tr == 0 else 3
    if tr == 0:
        return 7
    if disc := L.discriminant:
        return 4 if disc > 0 else 9
    # a double real eigenvalue: scalar, or the defective case-8 slot
    return 4 if L.beta_p == 0 and L.gamma == 0 and L.beta == L.gamma_p else 8


def _from_q(case: int, q: Fraction, sqrt):
    """zeta^2 of case 3 or 4, or (cos, sin) of case 9, from q; None when
    ``sqrt`` finds a root irrational.

    zeta^2 is the root with |.| >= 1 of z -+ 1/z = sign(q) sqrt|q|, and
    cos phi = sign(q) sqrt|q| / 2.
    """
    other = {3: abs(q) + 4, 4: abs(q) - 4, 9: 1 - abs(q) / 4}[case]
    a, b = sqrt(abs(q)), sqrt(other)
    if a is None or b is None:
        return None
    sign = 1 if q > 0 else -1
    return (sign * a / 2, b) if case == 9 else sign * (a + b) / 2


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """sqrt(x) of an exact x >= 0 when it is rational, else None."""
    root = Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
    return root if root * root == x else None


def equivalent(L1: ExtensionMatrix, L2: ExtensionMatrix) -> bool:
    """Whether the two matrices define equivalent extensions.

    True iff they have the same case and the same exact invariant q: within
    a case, q fixes the rescaled real Jordan type up to each case's
    identification (eigenvalue swap for cases 3-4, orientation of the
    complex pair for case 9).
    """
    return _case(L1) == _case(L2) and L1.q == L2.q


def display(L: ExtensionMatrix) -> dict:
    """The class of L with its parameters as floats, for printing only.

    zeta^2 and (cos, sin) are the classifier's exact values when rational
    and are computed from q otherwise; ``rescale`` is the factor K is
    divided by, sqrt|det| (|tr| when det = 0, 1 for tr = det = 0).  zeta^2,
    each of cos and sin, and ``rescale`` are None when the exact value has
    no finite nonzero binary64 value.
    """
    cls = classify(L)
    rescale = _finite(lambda: _sqrt(abs(L.det)) if L.det else abs(L.trace))
    zeta2, cos_sin = None, cls.cos_sin
    if cls.zeta2 is not None:
        zeta2 = _finite(lambda: cls.zeta2)
    elif cls.case in (3, 4):
        zeta2 = _finite(lambda: _from_q(cls.case, cls.q, _sqrt))
    if cls.case == 9 and cos_sin is None:
        cos_sin = _from_q(9, cls.q, _sqrt)
    return {"case": cls.case,
            "zeta2": zeta2,
            "cos_sin": None if cos_sin is None else [_finite(lambda: v) for v in cos_sin],
            "rescale": rescale if L.det or L.trace else 1.0,
            "jordan_type": cls.jordan_type,
            "note": cls.note}


def _finite(value) -> float | None:
    """float(value()) for a ``value`` that computes a nonzero number, or None
    when that number has no finite nonzero binary64 value: computing or
    converting it overflows, or it rounds to 0 or to infinity."""
    try:
        x = float(value())
    except OverflowError:
        return None
    return x if x and math.isfinite(x) else None


def _sqrt(x: Fraction) -> float:
    """sqrt(x) of an exact x >= 0, with no float of x itself, which may lie
    outside binary64 when its root does not."""
    k = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(x / Fraction(4) ** k), k)


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
