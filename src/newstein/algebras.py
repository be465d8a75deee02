"""Constructors for the New-Stein algebra family and small reference algebras.

The 51-dimensional algebra is the semidirect sum of sl(2,C) + su(2) (spanned
by L and J) acting on the nilpotent ideal spanned by T, T', A, Q, C.  The
non-null brackets, with X running over T, T', A_{i.}, Q_{i.} and Y over
A_{.rho}, Q_{.rho}:

    [L_{mn}, L_{rs}] = -g_{mr} L_{ns} - g_{ns} L_{mr} + g_{ms} L_{nr} + g_{nr} L_{ms}
    [L_{mn}, X_r]    =  g_{nr} X_m - g_{mr} X_n
    [A_{im}, Q_{jn}] =  delta_{ij} C_{mn}
    [L_{mn}, C_{rs}] = -g_{mr} C_{ns} - g_{ms} C_{nr} + g_{ns} C_{mr} + g_{nr} C_{ms}
    [J_{ij}, J_{kl}] = -delta_{ik} J_{jl} - delta_{jl} J_{ik} + delta_{il} J_{jk} + delta_{jk} J_{il}
    [J_{ij}, Y_k]    =  delta_{jk} Y_i - delta_{ik} Y_j

Basis order is fixed and documented: L (6), T (4), T' (4), C (10), A (12),
Q (12), J (3), then K when present; blocks are ordered lexicographically in
their indices.  All coefficients are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import labels as lb
from .extensions import ExtensionClass, case_matrix, derivation_from_matrix, sample_class
from .labels import BasisLabel, metric
from .liealg import LieAlgebra, SparseVec

_F = Fraction


def _antisym(kind: str, a: int, b: int):
    """Resolve an antisymmetric label (L or J): returns (label, sign) or None."""
    if a == b:
        return None
    if a < b:
        return BasisLabel(kind, (a, b)), 1
    return BasisLabel(kind, (b, a)), -1


def _add(acc: dict[BasisLabel, Fraction], label_sign, coeff) -> None:
    if label_sign is None or coeff == 0:
        return
    label, sign = label_sign
    new = acc.get(label, 0) + sign * _F(coeff)
    if new:
        acc[label] = new
    else:
        acc.pop(label, None)


def bracket_of_labels(x: BasisLabel, y: BasisLabel) -> dict[BasisLabel, Fraction]:
    """[x, y] for two structured basis labels, by the displayed rules."""
    if x.kind not in ("L", "J") and y.kind in ("L", "J"):
        return {k: -v for k, v in bracket_of_labels(y, x).items()}

    acc: dict[BasisLabel, Fraction] = {}
    if x.kind == "L":
        mu, nu = x.indices
        if y.kind == "L":
            rho, sig = y.indices
            _add(acc, _antisym("L", nu, sig), -metric(mu, rho))
            _add(acc, _antisym("L", mu, rho), -metric(nu, sig))
            _add(acc, _antisym("L", nu, rho), metric(mu, sig))
            _add(acc, _antisym("L", mu, sig), metric(nu, rho))
        elif y.kind in ("T", "Tp"):
            (rho,) = y.indices
            _add(acc, (BasisLabel(y.kind, (mu,)), 1), metric(nu, rho))
            _add(acc, (BasisLabel(y.kind, (nu,)), 1), -metric(mu, rho))
        elif y.kind in ("A", "Q"):
            i, rho = y.indices
            _add(acc, (BasisLabel(y.kind, (i, mu)), 1), metric(nu, rho))
            _add(acc, (BasisLabel(y.kind, (i, nu)), 1), -metric(mu, rho))
        elif y.kind == "C":
            rho, sig = y.indices
            _add(acc, (lb.C(nu, sig), 1), -metric(mu, rho))
            _add(acc, (lb.C(nu, rho), 1), -metric(mu, sig))
            _add(acc, (lb.C(mu, rho), 1), metric(nu, sig))
            _add(acc, (lb.C(mu, sig), 1), metric(nu, rho))
        return acc

    if x.kind == "J":
        i, j = x.indices
        if y.kind == "J":
            k, l = y.indices
            _add(acc, _antisym("J", j, l), -int(i == k))
            _add(acc, _antisym("J", i, k), -int(j == l))
            _add(acc, _antisym("J", j, k), int(i == l))
            _add(acc, _antisym("J", i, l), int(j == k))
        elif y.kind in ("A", "Q"):
            k, rho = y.indices
            _add(acc, (BasisLabel(y.kind, (i, rho)), 1), int(j == k))
            _add(acc, (BasisLabel(y.kind, (j, rho)), 1), -int(i == k))
        return acc

    if x.kind == "A" and y.kind == "Q":
        i, mu = x.indices
        j, nu = y.indices
        if i == j:
            _add(acc, (lb.C(mu, nu), 1), 1)
        return acc
    if x.kind == "Q" and y.kind == "A":
        return {k: -v for k, v in bracket_of_labels(y, x).items()}
    return acc


def _standard_labels(internal: tuple[int, ...] = (1, 2, 3)) -> list[BasisLabel]:
    out: list[BasisLabel] = []
    out += [lb.L(m, n) for m in range(1, 5) for n in range(m + 1, 5)]
    out += [lb.T(m) for m in range(1, 5)]
    out += [lb.Tp(m) for m in range(1, 5)]
    out += [lb.C(m, n) for m in range(1, 5) for n in range(m, 5)]
    out += [lb.A(i, m) for i in internal for m in range(1, 5)]
    out += [lb.Q(i, m) for i in internal for m in range(1, 5)]
    out += [lb.J(i, j) for i in internal for j in internal if i < j]
    return out


class NewSteinAlgebra(LieAlgebra):
    """The 51-dimensional algebra (or its 41-dimensional planar variant)."""

    @property
    def ideal_indices(self) -> list[int]:
        """Positions of the nilpotent ideal span {T, T', A, Q, C}."""
        return [i for i, lab in enumerate(self.labels)
                if getattr(lab, "kind", None) in ("T", "Tp", "A", "Q", "C")]

    @property
    def levi_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels)
                if getattr(lab, "kind", None) in ("L", "J")]

    def trace_c(self):
        """The element g^{mu nu} C_{mu nu} = C_11 + C_22 + C_33 - C_44."""
        return self.element({lb.C(1, 1): 1, lb.C(2, 2): 1, lb.C(3, 3): 1,
                             lb.C(4, 4): -1})


def _build_from_labels(name: str, labs: list[BasisLabel]) -> NewSteinAlgebra:
    index = {lab: i for i, lab in enumerate(labs)}
    constants: dict[tuple[int, int], SparseVec] = {}
    for i, x in enumerate(labs):
        for j in range(i + 1, len(labs)):
            expr = bracket_of_labels(x, labs[j])
            if expr:
                constants[(i, j)] = {index[lab]: c for lab, c in expr.items()}
    return NewSteinAlgebra(name, labs, constants)


def build_newstein() -> NewSteinAlgebra:
    """The 51-dimensional algebra with the brackets listed above."""
    return _build_from_labels("newstein", _standard_labels())


def build_newstein2() -> NewSteinAlgebra:
    """The 41-dimensional variant with a two-dimensional internal space.

    The internal index runs over {1, 2} and the single rotation generator
    J_12 acts on it by the planar vector representation, [J, Y_1] = -Y_2 and
    [J, Y_2] = Y_1, mirroring how the J_{ij} act on three internal indices.
    The choice of the planar action is a documented convention.
    """
    return _build_from_labels("newstein2", _standard_labels(internal=(1, 2)))


class ExtendedNewSteinAlgebra(NewSteinAlgebra):
    """The 52-dimensional extension: one extra generator K."""

    def __init__(self, name, labs, constants, extension_class: ExtensionClass):
        super().__init__(name, labs, constants)
        self.extension_class = extension_class

    @property
    def k_index(self) -> int:
        return self.index[lb.K]


def build_extended(cls: ExtensionClass | int, *, as_printed: bool = False,
                   base: NewSteinAlgebra | None = None) -> ExtendedNewSteinAlgebra:
    """Adjoin K acting on the (A, Q, C) span per the chosen canonical case.

    An integer case takes the parameters of ``extensions.sample_class``.
    By default [K, C] carries the trace coefficient beta + gamma', which is
    what the Leibniz rule forces and what every printed case except (8)
    displays.  ``as_printed=True`` keeps case (8)'s displayed [K, C] = 2C
    verbatim; the resulting table fails the Jacobi identity unless
    cos phi = 1, and the failure is left observable on purpose.
    """
    if isinstance(cls, int):
        cls = sample_class(cls)
    base = base if base is not None else build_newstein()
    matrix = case_matrix(cls)
    phi = derivation_from_matrix(matrix, base)
    if as_printed and cls.case == 8:
        c_coeff = _F(2)
        phi = dict(phi)
        for pos, lab in enumerate(base.labels):
            if getattr(lab, "kind", None) == "C":
                phi[pos] = {pos: c_coeff}
    labs = list(base.labels) + [lb.K]
    k = len(base.labels)
    constants = {key: dict(vec) for key, vec in base.constants.items()}
    for pos, img in phi.items():
        # stored pair is (pos, k) with pos < k, i.e. [e_pos, K] = -[K, e_pos]
        constants[(pos, k)] = {m: -c for m, c in img.items()}
    return ExtendedNewSteinAlgebra(f"newstein-ext:{cls.case}", labs, constants, cls)


@dataclass
class CentralCocycle:
    """Antisymmetric bilinear form on an algebra, sparse over pairs i < j."""

    algebra: LieAlgebra
    entries: dict[tuple[int, int], Fraction]

    def value(self, i: int, j: int) -> Fraction:
        if i == j:
            return _F(0)
        if i < j:
            return self.entries.get((i, j), _F(0))
        return -self.entries.get((j, i), _F(0))

    def pair(self, x: SparseVec, y: SparseVec) -> Fraction:
        total = _F(0)
        for i, xi in x.items():
            for j, yj in y.items():
                total += xi * yj * self.value(i, j)
        return total

    def cocycle_violations(self) -> list[tuple[int, int, int]]:
        """Triples where w([x,y],z) + w([y,z],x) + w([z,x],y) != 0."""
        alg = self.algebra
        bad = []
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                for k in range(j + 1, alg.dim):
                    total = _F(0)
                    for inner, outer, sign in (((i, j), k, 1), ((j, k), i, 1), ((i, k), j, -1)):
                        for m, c in alg.bracket_basis(*inner).items():
                            total += sign * c * self.value(m, outer)
                    if total:
                        bad.append((i, j, k))
        return bad


def beta_cocycle(alg: NewSteinAlgebra | None = None) -> CentralCocycle:
    """Infinitesimal central 2-cocycle of the t/t' pairing exponent.

    w(T_mu, T'_nu) = g_{mu nu} and zero on every other basis pair; the values
    come from differentiating the group exponent <t_1, Lambda_1 t'_2> minus
    its transpose at the identity.
    """
    alg = alg if alg is not None else build_newstein()
    entries: dict[tuple[int, int], Fraction] = {}
    for m in range(1, 5):
        i, j = alg.index[lb.T(m)], alg.index[lb.Tp(m)]
        lo, hi = min(i, j), max(i, j)
        sign = 1 if i < j else -1
        entries[(lo, hi)] = _F(sign * metric(m, m))
    return CentralCocycle(alg, entries)


# -- small reference algebras -------------------------------------------


def heisenberg3() -> LieAlgebra:
    """The three-dimensional Heisenberg algebra, [p, q] = z."""
    return LieAlgebra("h3", ["p", "q", "z"], {(0, 1): {2: _F(1)}})


def sl2() -> LieAlgebra:
    """sl(2) with [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return LieAlgebra(
        "sl2", ["h", "e", "f"],
        {(0, 1): {1: _F(2)}, (0, 2): {2: _F(-2)}, (1, 2): {0: _F(1)}},
    )
