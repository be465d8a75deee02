"""Constructors for the New-Stein algebra family and small reference algebras.

The 51-dimensional algebra is the semidirect sum of sl(2,C) + su(2) (spanned
by L and J) acting on the nilpotent ideal spanned by T, T', A, Q, C.  L and J
act by one slot rule: for X = L with eta = g, or X = J with eta = delta,

    [X_{ab}, Y_{..r..}] = eta_{br} Y_{..a..} - eta_{ar} Y_{..b..}

summed over the index slots of Y of X's type (Greek for L, Roman for J; see
``labels.SLOTS``).  With X running over T, T', A_{i.}, Q_{i.} and Y over
A_{.rho}, Q_{.rho}, it gives the displayed rotation brackets

    [L_{mn}, L_{rs}] = -g_{mr} L_{ns} - g_{ns} L_{mr} + g_{ms} L_{nr} + g_{nr} L_{ms}
    [L_{mn}, X_r]    =  g_{nr} X_m - g_{mr} X_n
    [L_{mn}, C_{rs}] = -g_{mr} C_{ns} - g_{ms} C_{nr} + g_{ns} C_{mr} + g_{nr} C_{ms}
    [J_{ij}, J_{kl}] = -delta_{ik} J_{jl} - delta_{jl} J_{ik} + delta_{il} J_{jk} + delta_{jk} J_{il}
    [J_{ij}, Y_k]    =  delta_{jk} Y_i - delta_{ik} Y_j

and the one other non-null bracket is [A_{im}, Q_{jn}] = delta_{ij} C_{mn}.

Basis order is fixed and documented: L (6), T (4), T' (4), C (10), A (12),
Q (12), J (3), then K when present; blocks are ordered lexicographically in
their indices.  All coefficients are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from . import labels as lb
from .exactla import _bump
from .extensions import ExtensionMatrix, canonical_matrices, classify, derivation_from_matrix
from .labels import BasisLabel, metric
from .liealg import LieAlgebra, SparseVec

_F = Fraction


# The index type each rotation kind turns, and its eta: g for L, delta for J
_ETA = {"L": ("g", metric), "J": ("d", lambda i, j: int(i == j))}


def _oriented(kind: str, ix: tuple[int, ...]) -> tuple[BasisLabel, int] | None:
    """Y_ix as (basis label, sign): a swapped L or J pair takes a minus sign,
    a repeated one vanishes (None), and C is sorted."""
    if lb.in_order(kind, ix):
        return BasisLabel(kind, ix), 1
    if ix[0] == ix[1]:
        return None
    return BasisLabel(kind, ix[::-1]), lb.SWAP_SIGN[kind]


def bracket_of_labels(x: BasisLabel, y: BasisLabel) -> dict[BasisLabel, Fraction]:
    """[x, y] for two structured basis labels: the slot rule when x or y is
    an L or J, else [A_im, Q_jn] = delta_ij C_mn or zero."""
    if x.kind not in _ETA:
        if y.kind in _ETA or (x.kind, y.kind) == ("Q", "A"):
            return {k: -v for k, v in bracket_of_labels(y, x).items()}
        if (x.kind, y.kind) == ("A", "Q") and x.indices[0] == y.indices[0]:
            return {lb.C(x.indices[1], y.indices[1]): _F(1)}
        return {}
    typ, eta = _ETA[x.kind]
    a, b = x.indices
    acc: dict[BasisLabel, Fraction] = {}
    for pos, (t, r) in enumerate(zip(lb.SLOTS[y.kind], y.indices)):
        if t != typ:
            continue
        for new, coeff in ((a, eta(b, r)), (b, -eta(a, r))):
            term = coeff and _oriented(y.kind, y.indices[:pos] + (new,) + y.indices[pos + 1:])
            if term:
                _bump(acc, term[0], _F(term[1] * coeff))
    return acc


class NewSteinAlgebra(LieAlgebra):
    """The 51-dimensional algebra (or its 41-dimensional planar variant)."""

    def trace_c(self):
        """The element g^{mu nu} C_{mu nu} = C_11 + C_22 + C_33 - C_44."""
        return self.element({lb.C(m, m): metric(m, m) for m in range(1, 5)})


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
    return _build_from_labels("newstein", lb.basis_labels())


def build_newstein2() -> NewSteinAlgebra:
    """The 41-dimensional variant with a two-dimensional internal space.

    The internal index runs over {1, 2} and the single rotation generator
    J_12 acts on it by the planar vector representation, [J, Y_1] = -Y_2 and
    [J, Y_2] = Y_1, mirroring how the J_{ij} act on three internal indices.
    The choice of the planar action is a documented convention.
    """
    return _build_from_labels("newstein2", lb.basis_labels(internal=(1, 2)))


def build_extended(L: ExtensionMatrix | int, *, as_printed: bool = False,
                   base: NewSteinAlgebra | None = None) -> NewSteinAlgebra:
    """Adjoin K acting on each (A, Q) plane by the matrix L, and on C.

    An integer case takes ``extensions.canonical_matrices()[case]``; the
    algebra is named ``newstein-ext:<case>``, for a matrix by its class.  By
    default [K, C] carries the trace coefficient beta + gamma', which is
    what the Leibniz rule forces and what every printed case except (8)
    displays.  ``as_printed=True`` keeps the integer case (8)'s displayed
    [K, C] = 2C verbatim; the resulting table fails the Jacobi identity,
    and the failure is left observable on purpose.
    """
    if isinstance(L, int):
        case, L = L, canonical_matrices()[L]
    else:
        case, as_printed = classify(L).case, False
    base = base if base is not None else build_newstein()
    phi = derivation_from_matrix(L, base)
    if as_printed and case == 8:
        phi.update({pos: {pos: _F(2)} for pos, lab in enumerate(base.labels) if lab.kind == "C"})
    # stored pair is (pos, K) with pos < K, i.e. [e_pos, K] = -[K, e_pos]
    k_column = {(pos, base.dim): {m: -c for m, c in img.items()} for pos, img in phi.items()}
    return NewSteinAlgebra(f"newstein-ext:{case}", [*base.labels, lb.K],
                           {**base.constants, **k_column})


def beta_cocycle(alg: NewSteinAlgebra | None = None) -> dict:
    """Infinitesimal central 2-cocycle of the t/t' pairing exponent.

    w(T_mu, T'_nu) = g_{mu nu} and zero on every other basis pair; the values
    come from differentiating the group exponent <t_1, Lambda_1 t'_2> minus
    its transpose at the identity.  Returned as a trivial-coefficient
    2-cochain {((i, j), 0): w(e_i, e_j)} with i < j, the coordinates of
    ``cohomology.CochainComplex``.
    """
    alg = alg if alg is not None else build_newstein()
    w: dict = {}
    for m in range(1, 5):
        i, j = alg.index[lb.T(m)], alg.index[lb.Tp(m)]
        sign = 1 if i < j else -1
        w[((min(i, j), max(i, j)), 0)] = _F(sign * metric(m, m))
    return w


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
