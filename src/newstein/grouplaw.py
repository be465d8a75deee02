"""The group law, covering representations, sections, and the Wigner phase.

Elements are tuples (t, t', c, a, q, Lambda, R) with Lambda in SL(2,C) and
R in SU(2) kept as 2x2 complex matrices; the 4x4, 10x10 and 3x3 actions are
derived views.  The law reads

    g1 g2 = (t1 + L1 t2, t1' + L1 t2', c1 + S(L1) c2 + beta(a1, L1xR1 q2),
             a1 + L1xR1 a2, q1 + L1xR1 q2, Lam1 Lam2, R1 R2)

with beta^{mn}(a, q) = theta^{mn} delta_ij (a^{im} q^{jn} + a^{in} q^{jm})
and theta^{mn} = 1/2 for m = n, else 1.

Internally c is stored as the symmetric matrix w with w[m][n] = theta^{mn}
c^{mn}; in that chart S(Lambda) is plain congruence by the vector matrix and
beta becomes (a^T q + q^T a) / 2.  Serialized records carry the plain
coordinates c^{mn}, m <= n.

Everything in this module is binary64; exact arithmetic lives in the
algebra-side modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_ID2 = np.eye(2, dtype=complex)
_METRIC = np.diag([1.0, 1.0, 1.0, -1.0])


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


def vector_rep(Lam: np.ndarray) -> np.ndarray:
    """The 4x4 Lorentz matrix of a unit-determinant 2x2 complex matrix.

    Both signs of Lambda give the same matrix (2-to-1 covering); the result
    preserves the metric diag(1,1,1,-1).
    """
    det = Lam[0, 0] * Lam[1, 1] - Lam[0, 1] * Lam[1, 0]
    if abs(det - 1.0) > 1e-8:
        raise ValueError(f"matrix determinant {det} is not 1")
    out = np.empty((4, 4))
    basis = (*_SIGMA, _ID2)
    Lh = Lam.conj().T
    for nu, s in enumerate(basis):
        X = Lam @ s @ Lh
        for mu in range(3):
            out[mu, nu] = 0.5 * np.trace(_SIGMA[mu] @ X).real
        out[3, nu] = 0.5 * np.trace(X).real
    return out


def so3_rep(R: np.ndarray) -> np.ndarray:
    """The 3x3 rotation matrix of an SU(2) element (adjoint covering map)."""
    out = np.empty((3, 3))
    Rh = R.conj().T
    for j in range(3):
        X = R @ _SIGMA[j] @ Rh
        for i in range(3):
            out[i, j] = 0.5 * np.trace(_SIGMA[i] @ X).real
    return out


def spin_rep(R: np.ndarray, j) -> np.ndarray:
    """The spin-j matrix of R on the standard |j m> basis, m = j..-j.

    Realized on homogeneous polynomials of degree 2j in two variables; for
    j = 1/2 this returns R itself.
    """
    twoj = int(round(2 * j))
    if twoj < 0 or abs(2 * j - twoj) > 1e-12:
        raise ValueError(f"spin {j} is not a non-negative half-integer")
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


def _weight(c: np.ndarray) -> np.ndarray:
    w = c.copy()
    off = ~np.eye(4, dtype=bool)
    w[off] *= 0.5
    return w


def _unweight(w: np.ndarray) -> np.ndarray:
    c = w.copy()
    off = ~np.eye(4, dtype=bool)
    c[off] *= 2.0
    return c


_SYM_PAIRS = [(m, n) for m in range(4) for n in range(m, 4)]


def sym_rep(Lam: np.ndarray) -> np.ndarray:
    """The 10x10 action of Lambda on the coordinates c^{mn}, m <= n."""
    Lv = vector_rep(Lam)
    out = np.empty((10, 10))
    for col, (m, n) in enumerate(_SYM_PAIRS):
        c = np.zeros((4, 4))
        c[m, n] = c[n, m] = 1.0
        w2 = Lv @ _weight(c) @ Lv.T
        c2 = _unweight(w2)
        out[:, col] = [c2[p, q] for (p, q) in _SYM_PAIRS]
    return out


def sym_coords(w: np.ndarray) -> np.ndarray:
    """Ten independent coordinates c^{mn} (m <= n) of a stored w matrix."""
    c = _unweight(w)
    return np.array([c[m, n] for (m, n) in _SYM_PAIRS])


def sym_from_coords(coords) -> np.ndarray:
    c = np.zeros((4, 4))
    for val, (m, n) in zip(coords, _SYM_PAIRS):
        c[m, n] = c[n, m] = float(val)
    return _weight(c)


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

    def to_record(self) -> dict:
        return {
            "t": self.t.tolist(),
            "tp": self.tp.tolist(),
            "c": sym_coords(self.c).tolist(),
            "a": self.a.tolist(),
            "q": self.q.tolist(),
            "Lam": {"re": self.Lam.real.tolist(), "im": self.Lam.imag.tolist()},
            "R": {"re": self.R.real.tolist(), "im": self.R.imag.tolist()},
        }

    @classmethod
    def from_record(cls, rec: dict) -> "GroupElement":
        return cls(
            t=np.array(rec["t"], dtype=float),
            tp=np.array(rec["tp"], dtype=float),
            c=sym_from_coords(rec["c"]),
            a=np.array(rec["a"], dtype=float),
            q=np.array(rec["q"], dtype=float),
            Lam=np.array(rec["Lam"]["re"]) + 1j * np.array(rec["Lam"]["im"]),
            R=np.array(rec["R"]["re"]) + 1j * np.array(rec["R"]["im"]),
        )


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

    def to_record(self) -> dict:
        rec = self.g.to_record()
        rec["k"] = self.k
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "ExtendedGroupElement":
        return cls(float(rec["k"]), GroupElement.from_record(rec))


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
    norm = xi[:3] @ xi[:3] - xi[3] * xi[3]
    if abs(norm + m0 * m0) > 1e-8 * max(1.0, m0 * m0) or xi[3] <= 0:
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


def wigner_rotation(Lam: np.ndarray, xi: np.ndarray, m0: float) -> tuple[np.ndarray, np.ndarray]:
    """(V, xi') with V = A_xi^-1 Lam A_{Lam^-1 xi} in SU(2), xi' = Lam^-1 xi."""
    LamInv = np.linalg.inv(Lam)
    xi2 = vector_rep(LamInv) @ xi
    check_on_shell(xi2, m0)
    A1 = boost_section(xi, m0)
    A2 = boost_section(xi2, m0)
    V = np.linalg.inv(A1) @ Lam @ A2
    if np.abs(V @ V.conj().T - _ID2).max() > 1e-8:
        raise StabilizerError("Wigner element is not unitary; sections inconsistent")
    return V, xi2


def wigner_phase(Lam: np.ndarray, xi: np.ndarray, eta: np.ndarray,
                 m0: float, lam: float) -> float:
    """The U(1) angle of the little-group element at (xi, eta).

    Assembles W = R_eta^-1 (A_xi^-1 Lam A_{Lam^-1 xi}) R_eta' with the
    transported eta' and returns phi in (-2pi, 2pi] with
    W = diag(e^{i phi/2}, e^{-i phi/2}); raises if W fails to commute with
    the pole rotation generator.
    """
    V, _ = wigner_rotation(Lam, xi, m0)
    eta2 = so3_rep(V.conj().T) @ eta
    W = rotation_section(eta, lam).conj().T @ V @ rotation_section(eta2, lam)
    if max(abs(W[0, 1]), abs(W[1, 0])) > 1e-8:
        raise StabilizerError("assembled element does not stabilize the pole")
    return 2.0 * math.atan2(W[0, 0].imag, W[0, 0].real)


# -- one-parameter subgroups ----------------------------------------------

_EPS3 = {(1, 2): 3, (2, 3): 1, (3, 1): 2, (2, 1): -3, (3, 2): -1, (1, 3): -2}


def sl2_generator(mu: int, nu: int) -> np.ndarray:
    """Generator with vector_rep-derivative equal to ad(L_{mu nu}) on vectors."""
    if nu == 4:
        return -0.5 * _SIGMA[mu - 1]
    code = _EPS3[(mu, nu)]
    sign = 1.0 if code > 0 else -1.0
    return 0.5j * sign * _SIGMA[abs(code) - 1]


def su2_generator(i: int, j: int) -> np.ndarray:
    """Generator with so3_rep-derivative equal to ad(J_{ij}) on vectors.

    For i < j <= 3 this is the rotation generator of ``sl2_generator``.
    """
    return sl2_generator(i, j)


def one_parameter(label, s: float) -> GroupElement:
    """exp(s X) as a group element, for a structured basis label X."""
    g = identity()
    kind, ix = label.kind, label.indices
    if kind == "T":
        g.t = np.zeros(4)
        g.t[ix[0] - 1] = s
    elif kind == "Tp":
        g.tp = np.zeros(4)
        g.tp[ix[0] - 1] = s
    elif kind == "C":
        coords = np.zeros(10)
        coords[_SYM_PAIRS.index((ix[0] - 1, ix[1] - 1))] = s
        g.c = sym_from_coords(coords)
    elif kind == "A":
        g.a = np.zeros((3, 4))
        g.a[ix[0] - 1, ix[1] - 1] = s
    elif kind == "Q":
        g.q = np.zeros((3, 4))
        g.q[ix[0] - 1, ix[1] - 1] = s
    elif kind == "L":
        g.Lam = expm2(s * sl2_generator(*ix))
    elif kind == "J":
        g.R = expm2(s * su2_generator(*ix))
    else:
        raise ValueError(f"no one-parameter subgroup for label kind {kind!r}")
    return g


def random_element(rng: np.random.Generator, scale: float = 0.5) -> GroupElement:
    """Seeded pseudo-random element with moderate parameters."""
    sl2 = sum(rng.normal(0.0, scale) * sl2_generator(m, n)
              for m in range(1, 4) for n in range(m + 1, 5))
    su2 = sum(rng.normal(0.0, scale) * su2_generator(i, j)
              for i in range(1, 3) for j in range(i + 1, 4))
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


def log_coords(alg, g: GroupElement) -> dict:
    """First-order coordinates of an element near the identity.

    Returns a map basis-label -> float; the Lambda and R parts are projected
    onto the generator bases by real least squares.
    """
    from . import labels as lb

    out = {}
    for m in range(1, 5):
        out[lb.T(m)] = g.t[m - 1]
        out[lb.Tp(m)] = g.tp[m - 1]
    coords = sym_coords(g.c)
    for val, (p, q_) in zip(coords, _SYM_PAIRS):
        out[lb.C(p + 1, q_ + 1)] = val
    for i in range(1, 4):
        for m in range(1, 5):
            out[lb.A(i, m)] = g.a[i - 1, m - 1]
            out[lb.Q(i, m)] = g.q[i - 1, m - 1]
    lpairs = [(m, n) for m in range(1, 4) for n in range(m + 1, 5)]
    basis = [sl2_generator(*p) for p in lpairs]
    coeffs = _project_real(g.Lam - _ID2, basis)
    for p, val in zip(lpairs, coeffs):
        out[lb.L(*p)] = val
    jpairs = [(1, 2), (1, 3), (2, 3)]
    coeffs = _project_real(g.R - _ID2, [su2_generator(*p) for p in jpairs])
    for p, val in zip(jpairs, coeffs):
        out[lb.J(*p)] = val
    return out


def _project_real(M: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    cols = [np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in basis]
    target = np.concatenate([M.real.ravel(), M.imag.ravel()])
    sol, *_ = np.linalg.lstsq(np.array(cols).T, target, rcond=None)
    return sol


def commutator_coords(alg, x_label, y_label, *, extended_case7: bool = False) -> dict:
    """Structure constants measured from the group commutator.

    Central finite differences (step 1e-3) of g_s h_t g_s^-1 h_t^-1 at
    second order; the result approximates the coordinates of [X, Y].
    """
    from . import labels as lb

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
        for key, val in log_coords(alg, com).items():
            acc[key] = acc.get(key, 0.0) + sign * val
    return {k: v / (4 * eps * eps) for k, v in acc.items()}
