"""The group law, covering representations, sections, and the Wigner phase.

Elements are tuples (t, t', c, a, q, Lambda, R) with Lambda in SL(2,C) and
R in SU(2) kept as 2x2 complex matrices; the 4x4 and 3x3 actions are derived
views.  The law reads

    g1 g2 = (t1 + L1 t2, t1' + L1 t2', c1 + S(L1) c2 + beta(a1, L1xR1 q2),
             a1 + L1xR1 a2, q1 + L1xR1 q2, Lam1 Lam2, R1 R2)

with beta^{mn}(a, q) = theta^{mn} delta_ij (a^{im} q^{jn} + a^{in} q^{jm})
and theta^{mn} = 1/2 for m = n, else 1.

Internally c is stored as the symmetric matrix w = _THETA * c, w[m][m] = c^{mm}
and w[m][n] = c^{mn} / 2 for m != n; in that chart S(Lambda) is plain
congruence by the vector matrix and beta becomes (a^T q + q^T a) / 2.

Everything in this module is binary64; exact arithmetic lives in the
algebra-side modules.  It owns the Lorentz and spin conventions the induced
action reads: eps_ijk, the generators and the spin-j basis, and the binary64
form of the metric, whose one definition is ``labels.metric``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import labels as lb

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_ID2 = np.eye(2, dtype=complex)
_METRIC_DIAG = np.array([float(lb.metric(m, m)) for m in range(1, 5)])


def lower(x: np.ndarray) -> np.ndarray:
    """Index lowering x_mu = g_{mu nu} x^nu (flips the fourth component)."""
    return x * _METRIC_DIAG


def mink(x: np.ndarray, y: np.ndarray) -> float:
    """The Minkowski product g_{mu nu} x^mu y^nu, signature (+,+,+,-);
    ``labels.metric`` unrolled, as this is on the hot path."""
    return float(x[0] * y[0] + x[1] * y[1] + x[2] * y[2] - x[3] * y[3])


class OffShellError(ValueError):
    """Input four-vector violates its mass-shell constraint."""


class SectionSingularityError(ValueError):
    """Sphere point inside the exclusion cone around the antipode."""


class StabilizerError(ValueError):
    """Assembled little-group element is not in the expected U(1)."""


def expm2(M: np.ndarray) -> np.ndarray:
    """exp of a 2x2 complex matrix, closed form via Cayley-Hamilton."""
    mu = np.trace(M) / 2.0
    B = M - mu * _ID2
    delta2 = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    delta = np.sqrt(complex(-delta2))
    if abs(delta) < 1e-30:
        factor = 1.0 + delta2 / 6.0
        return np.exp(mu) * (_ID2 * (1.0 + delta2 / 2.0) + factor * B)
    return np.exp(mu) * (np.cosh(delta) * _ID2 + np.sinh(delta) / delta * B)


def _spinor_map(M: np.ndarray) -> tuple[complex, list[list[float]]]:
    """det M and the rows of (1/2) Re tr(s_mu M s_nu M^dagger), s = (sigma, 1):
    fixed Pauli sums and differences of the products M_ij conj(M_kl)."""
    (a, b), (c, d) = M.tolist()
    ab, cd, ad, bc = a * b.conjugate(), c * d.conjugate(), a * d.conjugate(), b * c.conjugate()
    ac, bd = a * c.conjugate(), b * d.conjugate()
    u, v = ac + bd, ac - bd
    na, nb = (a * a.conjugate()).real, (b * b.conjugate()).real
    nc, nd = (c * c.conjugate()).real, (d * d.conjugate()).real
    return a * d - b * c, [
        [ad.real + bc.real, ad.imag - bc.imag, v.real, u.real],
        [-ad.imag - bc.imag, ad.real - bc.real, -v.imag, -u.imag],
        [ab.real - cd.real, ab.imag - cd.imag, (na - nb - nc + nd) / 2, (na + nb - nc - nd) / 2],
        [ab.real + cd.real, ab.imag + cd.imag, (na - nb + nc - nd) / 2, (na + nb + nc + nd) / 2]]


def vector_rep(Lam: np.ndarray) -> np.ndarray:
    """The 4x4 Lorentz matrix of X -> Lam X Lam^dagger, det Lam = 1, in closed
    form from Lam (x) conj(Lam): entry (mu, nu) is (1/2) Re tr(s_mu Lam s_nu
    Lam^dagger), s = (sigma, 1).  Both signs of Lambda give the same matrix
    (2-to-1 covering); the result preserves the metric diag(1,1,1,-1).
    """
    det, rows = _spinor_map(Lam)
    if abs(det - 1.0) > 1e-8:
        raise ValueError(f"matrix determinant {det} is not 1")
    return np.array(rows)


def so3_rep(R: np.ndarray) -> np.ndarray:
    """The 3x3 rotation of an SU(2) element: the spatial block of ``vector_rep``.

    Raises unless det R = 1 and R R^dagger = 1 to 1e-8; the latter says that
    the time column (x, y, z, t) is (0, 0, 0, 1), off by max(|t-1| + |z|, |x+iy|).
    """
    det, rows = _spinor_map(R)
    x, y, z, t = [row[3] for row in rows]
    if abs(det - 1.0) > 1e-8 or max(abs(t - 1.0) + abs(z), math.hypot(x, y)) > 1e-8:
        raise ValueError(f"matrix {R.tolist()} is not in SU(2)")
    return np.array([row[:3] for row in rows[:3]])


def _twice_spin(j) -> int:
    """2j for a spin j; raises ``ValueError`` unless j is a non-negative half-integer."""
    if (twoj := int(round(2 * j))) < 0 or abs(2 * j - twoj) > 1e-12:
        raise ValueError(f"spin {j} is not a non-negative half-integer")
    return twoj


def spin_rep(R: np.ndarray, j) -> np.ndarray:
    """The spin-j matrix of R on the standard |j m> basis, m = j..-j.

    Realized on homogeneous polynomials of degree 2j in two variables; for
    j = 1/2 this returns R itself.
    """
    twoj = _twice_spin(j)
    n = twoj + 1
    alpha, beta = R[0, 0], R[0, 1]
    gamma, delta = R[1, 0], R[1, 1]
    out = np.zeros((n, n), dtype=complex)
    fact = [math.factorial(i) for i in range(twoj + 1)]
    for col in range(n):          # input exponent pair (p, q), p = twoj - col
        p, q = twoj - col, col
        # (alpha u + gamma v)^p (beta u + delta v)^q
        poly = np.zeros(n, dtype=complex)
        for k in range(p + 1):
            ak = math.comb(p, k) * alpha**k * gamma**(p - k)
            for l in range(q + 1):
                bl = math.comb(q, l) * beta**l * delta**(q - l)
                poly[twoj - (k + l)] += ak * bl
        for row in range(n):
            pp, qq = twoj - row, row
            norm = math.sqrt(fact[pp] * fact[qq]) / math.sqrt(fact[p] * fact[q])
            out[row, col] = poly[row] * norm
    return out


def spin_generator(X: np.ndarray, j) -> np.ndarray:
    """Derivative of spin_rep at the identity in the direction X (2x2)."""
    twoj = _twice_spin(j)
    n = twoj + 1
    out = np.zeros((n, n), dtype=complex)
    for col in range(n):
        p, q = twoj - col, col
        out[col, col] = p * X[0, 0] + q * X[1, 1]
        if col + 1 < n:   # u -> v lowering: (p-1, q+1)
            out[col + 1, col] = X[1, 0] * math.sqrt(p * (q + 1))
        if col - 1 >= 0:  # v -> u raising: (p+1, q-1)
            out[col - 1, col] = X[0, 1] * math.sqrt(q * (p + 1))
    return out


_THETA = np.where(np.eye(4, dtype=bool), 1.0, 0.5)   # w = _THETA * c entrywise


def beta_w(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The symmetric bilinear map beta in the w chart: (a^T q + q^T a)/2."""
    return 0.5 * (a.T @ q + q.T @ a)


@dataclass
class GroupElement:
    """One element (t, t', c, a, q, Lambda, R); c stored as the w matrix."""

    t: np.ndarray = field(default_factory=lambda: np.zeros(4))
    tp: np.ndarray = field(default_factory=lambda: np.zeros(4))
    c: np.ndarray = field(default_factory=lambda: np.zeros((4, 4)))
    a: np.ndarray = field(default_factory=lambda: np.zeros((3, 4)))
    q: np.ndarray = field(default_factory=lambda: np.zeros((3, 4)))
    Lam: np.ndarray = field(default_factory=lambda: _ID2.copy())
    R: np.ndarray = field(default_factory=lambda: _ID2.copy())


def identity() -> GroupElement:
    return GroupElement()


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    Lv = vector_rep(g1.Lam)
    Rv = so3_rep(g1.R)
    a2r = Rv @ g2.a @ Lv.T
    q2r = Rv @ g2.q @ Lv.T
    return GroupElement(
        t=g1.t + Lv @ g2.t,
        tp=g1.tp + Lv @ g2.tp,
        c=g1.c + Lv @ g2.c @ Lv.T + beta_w(g1.a, q2r),
        a=g1.a + a2r,
        q=g1.q + q2r,
        Lam=g1.Lam @ g2.Lam,
        R=g1.R @ g2.R,
    )


def inverse(g: GroupElement) -> GroupElement:
    LamInv = np.linalg.inv(g.Lam)
    RInv = g.R.conj().T
    LvI = vector_rep(LamInv)
    RvI = so3_rep(RInv)
    a_inv = -RvI @ g.a @ LvI.T
    q_inv = -RvI @ g.q @ LvI.T
    c_inv = -LvI @ (g.c - beta_w(g.a, g.q)) @ LvI.T
    return GroupElement(t=-LvI @ g.t, tp=-LvI @ g.tp, c=c_inv,
                        a=a_inv, q=q_inv, Lam=LamInv, R=RInv)


def element_distance(g1: GroupElement, g2: GroupElement) -> float:
    """Max componentwise deviation between two elements."""
    return max(
        np.abs(g1.t - g2.t).max(),
        np.abs(g1.tp - g2.tp).max(),
        np.abs(g1.c - g2.c).max(),
        np.abs(g1.a - g2.a).max(),
        np.abs(g1.q - g2.q).max(),
        min(np.abs(g1.Lam - g2.Lam).max(), np.abs(g1.Lam + g2.Lam).max()),
        min(np.abs(g1.R - g2.R).max(), np.abs(g1.R + g2.R).max()),
    )


# -- extended group -------------------------------------------------------


@dataclass
class ExtendedGroupElement:
    """Element (k, g) of the extension along the rotation-type case."""

    k: float
    g: GroupElement


def rotate_aq(g: GroupElement, k: float) -> GroupElement:
    """The automorphism integrating [K, A] = -Q, [K, Q] = A at parameter k.

    Coordinates mix as (a, q) -> (a cos k + q sin k, q cos k - a sin k); the
    c component picks up the quadratic correction that keeps the map an
    automorphism of the composition law.
    """
    ck, sk = math.cos(k), math.sin(k)
    gamma = (-sk * sk * beta_w(g.a, g.q)
             + 0.25 * math.sin(2 * k) * (beta_w(g.q, g.q) - beta_w(g.a, g.a)))
    return GroupElement(
        t=g.t.copy(), tp=g.tp.copy(), c=g.c + gamma,
        a=ck * g.a + sk * g.q,
        q=ck * g.q - sk * g.a,
        Lam=g.Lam.copy(), R=g.R.copy(),
    )


def compose_extended(e1: ExtendedGroupElement, e2: ExtendedGroupElement) -> ExtendedGroupElement:
    """Law of the extended group: k adds, the k2-flow twists g1 before composing.

    At k2 = 0 this reduces exactly to the plain law; the c corrections carry
    the sin^2 k2 and sin 2k2 terms of the quadratic twist.
    """
    return ExtendedGroupElement(e1.k + e2.k, compose(rotate_aq(e1.g, -e2.k), e2.g))


def inverse_extended(e: ExtendedGroupElement) -> ExtendedGroupElement:
    return ExtendedGroupElement(-e.k, rotate_aq(inverse(e.g), e.k))


# -- mass shell, sphere, sections -----------------------------------------


def shell_point(xi_spatial, m0: float) -> np.ndarray:
    """Forward mass-shell point with the given spatial part."""
    v = np.asarray(xi_spatial, dtype=float)
    return np.array([v[0], v[1], v[2], math.sqrt(m0 * m0 + v @ v)])


def check_on_shell(xi: np.ndarray, m0: float) -> None:
    """Raise unless xi is on the forward shell of mass m0, to relative 1e-8."""
    if abs(mink(xi, xi) + m0 * m0) > 1e-8 * max(1.0, m0 * m0) or xi[3] <= 0:
        raise OffShellError(f"xi = {xi} is not on the forward shell of mass {m0}")


def sphere_point(direction, lam: float) -> np.ndarray:
    v = np.asarray(direction, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero direction")
    return lam * v / n


def boost_section(xi: np.ndarray, m0: float) -> np.ndarray:
    """The positive Hermitian square root sending (0,0,0,m0) to xi."""
    check_on_shell(xi, m0)
    num = (m0 + xi[3]) * _ID2 + xi[0] * _SIGMA[0] + xi[1] * _SIGMA[1] + xi[2] * _SIGMA[2]
    return num / math.sqrt(2.0 * m0 * (m0 + xi[3]))


def rotation_section(eta: np.ndarray, lam: float) -> np.ndarray:
    """Geodesic rotation taking the pole (0, 0, lam) to eta.

    Raises inside the exclusion cone n_3 < -1 + 1e-6 around the antipode,
    where no continuous section exists.
    """
    eta = np.asarray(eta, dtype=float)
    if abs(np.linalg.norm(eta) - lam) > 1e-8 * max(1.0, lam):
        raise ValueError(f"|eta| != {lam}")
    n = eta / lam
    if n[2] < -1.0 + 1e-6:
        raise SectionSingularityError("eta inside the antipodal exclusion cone")
    axis = np.array([-n[1], n[0], 0.0])
    s = np.linalg.norm(axis)
    if s < 1e-15:
        return _ID2.copy()
    axis = axis / s
    theta = math.atan2(s, n[2])
    sig = axis[0] * _SIGMA[0] + axis[1] * _SIGMA[1] + axis[2] * _SIGMA[2]
    return math.cos(theta / 2) * _ID2 - 1j * math.sin(theta / 2) * sig


def wigner_phase(Lam: np.ndarray, xi: np.ndarray, eta: np.ndarray,
                 m0: float, lam: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The U(1) angle of the little-group element at (xi, eta), with the
    transported point (xi', eta').

    Assembles W = R_eta^-1 V R_eta' from the Wigner rotation
    V = A_xi^-1 Lam A_xi' in SU(2), with xi' = Lam^-1 xi and
    eta' = D(1)(V^-1) eta, and returns phi in (-2pi, 2pi] with
    W = diag(e^{i phi/2}, e^{-i phi/2}); raises if V is not unitary or W
    fails to commute with the pole rotation generator.
    """
    xi2 = vector_rep(np.linalg.inv(Lam)) @ xi
    check_on_shell(xi2, m0)
    V = np.linalg.inv(boost_section(xi, m0)) @ Lam @ boost_section(xi2, m0)
    if np.abs(V @ V.conj().T - _ID2).max() > 1e-8:
        raise StabilizerError("Wigner element is not unitary; sections inconsistent")
    eta2 = so3_rep(V.conj().T) @ eta
    W = rotation_section(eta, lam).conj().T @ V @ rotation_section(eta2, lam)
    if max(abs(W[0, 1]), abs(W[1, 0])) > 1e-8:
        raise StabilizerError("assembled element does not stabilize the pole")
    return 2.0 * math.atan2(W[0, 0].imag, W[0, 0].real), xi2, eta2


# -- one-parameter subgroups and the first-order chart ---------------------

_EPS3 = {(1, 2): 3, (2, 3): 1, (3, 1): 2, (2, 1): -3, (3, 2): -1, (1, 3): -2}


def rotation_axis(i: int, j: int) -> tuple[float, int]:
    """The rotation in the (i, j) plane, i != j in 1..3, as (sign, axis) with
    eps_{ij axis} = sign."""
    code = _EPS3[(i, j)]
    return (1.0 if code > 0 else -1.0), abs(code)


def sl2_generator(mu: int, nu: int) -> np.ndarray:
    """Generator with vector_rep-derivative equal to ad(L_{mu nu}) on vectors;
    for mu < nu <= 3 also the J_{mu nu} generator, by its so3_rep-derivative."""
    if nu == 4:
        return -0.5 * _SIGMA[mu - 1]
    sign, axis = rotation_axis(mu, nu)
    return 0.5j * sign * _SIGMA[axis - 1]


# The GroupElement field of each label kind's coordinate, and per basis label
# (field, zero-based indices, unit): the unit is the generator sl2_generator
# of an L or J, else the weight of the entry (_THETA in the w chart for C).
_FIELD = {"T": "t", "Tp": "tp", "C": "c", "A": "a", "Q": "q", "L": "Lam", "J": "R"}
_ROTATIONS = ("Lam", "R")
_CHART = {X: (f, ix, sl2_generator(*X.indices) if f in _ROTATIONS
              else _THETA[ix] if f == "c" else 1.0)
          for X in lb.basis_labels()
          for f, ix in [(_FIELD[X.kind], tuple(i - 1 for i in X.indices))]}
_GENERATORS = {f: [u for field, _, u in _CHART.values() if field == f] for f in _ROTATIONS}


def one_parameter(label, s: float) -> GroupElement:
    """exp(s X) as a group element, for a structured basis label X."""
    if label not in _CHART:
        raise ValueError(f"no one-parameter subgroup for label {label}")
    field, ix, unit = _CHART[label]
    g = identity()
    if field in _ROTATIONS:
        setattr(g, field, expm2(s * unit))
    elif field == "c":
        g.c[ix] = g.c[ix[::-1]] = unit * s
    else:
        getattr(g, field)[ix] = s
    return g


def random_element(rng: np.random.Generator, scale: float = 0.5) -> GroupElement:
    """Seeded pseudo-random element with moderate parameters."""
    sl2, su2 = (sum(rng.normal(0.0, scale) * u for u in _GENERATORS[f]) for f in _ROTATIONS)
    csym = rng.normal(0.0, scale, (4, 4))
    return GroupElement(
        t=rng.normal(0.0, scale, 4),
        tp=rng.normal(0.0, scale, 4),
        c=0.5 * (csym + csym.T),
        a=rng.normal(0.0, scale, (3, 4)),
        q=rng.normal(0.0, scale, (3, 4)),
        Lam=expm2(sl2),
        R=expm2(su2),
    )


# -- derivative at the identity -------------------------------------------


def log_coords(g: GroupElement) -> dict:
    """First-order coordinates of an element near the identity.

    Returns a map basis-label -> float, c^{mn} = w[m, n] / _THETA[m, n].  The
    generators X are orthogonal for Re tr(X^dagger Y) with |X|^2 = 1/2, so the
    coordinate of Lambda - 1 (or R - 1) on X is 2 Re tr(X^dagger (Lambda - 1)),
    its least-squares projection.
    """
    out = {}
    for X, (field, ix, unit) in _CHART.items():
        v = getattr(g, field)
        out[X] = 2.0 * np.vdot(unit, v - _ID2).real if field in _ROTATIONS else v[ix] / unit
    return out


def commutator_coords(alg, x_label, y_label, *, extended_case7: bool = False) -> dict:
    """Structure constants measured from the group commutator.

    Central finite differences (step 1e-3) of g_s h_t g_s^-1 h_t^-1 at
    second order; the result approximates the coordinates of [X, Y].
    ``alg`` is unused; it stays first because callers pass it positionally.
    """
    eps = 1e-3
    def make(label, s):
        if extended_case7:
            if label == lb.K:
                return ExtendedGroupElement(s, identity())
            return ExtendedGroupElement(0.0, one_parameter(label, s))
        return one_parameter(label, s)

    comp = compose_extended if extended_case7 else compose
    inv = inverse_extended if extended_case7 else inverse

    acc: dict = {}
    for ss, st in ((eps, eps), (eps, -eps), (-eps, eps), (-eps, -eps)):
        gs, ht = make(x_label, ss), make(y_label, st)
        com = comp(comp(gs, ht), comp(inv(gs), inv(ht)))
        sign = 1.0 if ss * st > 0 else -1.0
        if extended_case7:
            acc["#k"] = acc.get("#k", 0.0) + sign * com.k
            com = com.g
        for key, val in log_coords(com).items():
            acc[key] = acc.get(key, 0.0) + sign * val
    return {k: v / (4 * eps * eps) for k, v in acc.items()}
