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
sign tr and q = tr|tr|/|det| (sign tr when det = 0), so a class is just its
case and q, valid by one rule on |q| per case, and zeta^2, (cos, sin) and
the Jordan type are read off that pair.  A class whose zeta^2 or cos phi is
irrational has the rational companion matrix [[0, -d], [1, q]], with
d = sign(det) |q|, as its matrix.  Floats appear only in :func:`display`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .labels import BasisLabel
from .liealg import LieAlgebra, SparseVec


class InvalidExtensionParameter(ValueError):
    """Raised for a case outside 1..9, or a q outside its case's range."""


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


@dataclass(frozen=True)
class ExtensionClass:
    """One of the nine canonical extension cases with its exact invariant.

    q is tr|tr|/|det| of the plane matrix (sign tr when det = 0), and the
    class is valid iff |q| obeys its case's rule in ``_Q_RANGE``.  zeta^2,
    (cos, sin), the Jordan type and the note are read off (case, q); zeta^2
    and (cos, sin) are ``None`` when irrational.
    """

    case: int
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.case not in _Q_RANGE:
            raise InvalidExtensionParameter(f"case {self.case} not in 1..9")
        rule, holds = _Q_RANGE[self.case]
        if not holds(abs(self.q)):
            raise InvalidExtensionParameter(f"case {self.case} has {rule}, not q = {self.q}")

    @property
    def zeta2(self) -> Fraction | None:
        # rescaled, the nonzero eigenvalue of case 5 is q, the double one of the case-8 slot q/4
        if self.case in (3, 4):
            return _from_q(self.case, self.q, _rational_sqrt)
        return {5: self.q, 8: self.q / 4}.get(self.case)

    @property
    def cos_sin(self) -> tuple | None:
        return _from_q(9, self.q, _rational_sqrt) if self.case == 9 else None

    @property
    def jordan_type(self) -> str:
        return "scalar" if self.case == 4 and abs(self.q) == 4 else _JORDAN_TYPE[self.case]

    @property
    def note(self) -> str:
        return "" if self.case != 8 else ("no printed case realizes a defective unit eigenvalue; "
                                          "assigned to the remaining slot (8) empirically")


_Q_ZERO = ("q = 0", lambda a: a == 0)
# Each case's rule on |q| = tr^2/|det|; |q| = 4 is the scalar +-I in case 4
_Q_RANGE = {1: _Q_ZERO, 2: _Q_ZERO, 3: ("q != 0", lambda a: a != 0),
            4: ("|q| >= 4", lambda a: a >= 4), 5: ("|q| = 1", lambda a: a == 1),
            6: _Q_ZERO, 7: _Q_ZERO, 8: ("|q| = 4", lambda a: a == 4),
            9: ("0 < |q| < 4", lambda a: 0 < a < 4)}

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
    """A matrix of the class: the case's printed one when zeta^2 or (cos, sin)
    is rational (+-I at |q| = 4 in case 4), else the companion matrix
    [[0, -d], [1, q]], d = -|q| for case 3 and +|q| for 4 and 9.  The
    case-8 slot, which no printed matrix realizes, raises
    ``InvalidExtensionParameter``."""
    if cls.case == 8:
        raise InvalidExtensionParameter("the case-8 slot has no printed matrix")
    params = cls.cos_sin if cls.case == 9 else cls.zeta2
    if params is None and cls.case in (3, 4, 9):
        d = -abs(cls.q) if cls.case == 3 else abs(cls.q)
        return ExtensionMatrix.from_rows(((0, -d), (1, cls.q)))
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
    q = tr|tr|/|det| (sign tr when det = 0), so the class is (case, q);
    its zeta^2 and (cos, sin) are rational or ``None``.
    """
    return ExtensionClass(_case(L), L.q)


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

    True iff they have the same class (case, q): within a case, q fixes the
    rescaled real Jordan type up to each case's identification (eigenvalue
    swap for cases 3-4, orientation of the complex pair for case 9).
    """
    return classify(L1) == classify(L2)


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


def canonical_matrices() -> dict[int, ExtensionMatrix]:
    """Each case's printed matrix at zeta^2 = 2 and (cos, sin) = (3/5, 4/5);
    the case-8 one classifies elsewhere (see :func:`classify`)."""
    return {case: ExtensionMatrix.from_rows(rows(Fraction(2), Fraction(3, 5), Fraction(4, 5)))
            for case, rows in _CASE_ROWS.items()}
