"""The induced representation on a truncated three-dimensional Fock basis.

The internal sector realizes, at a fixed mass-shell point xi,

    T'_mu = xi_mu          C_{mu nu} = (alpha/m0^2) xi_mu xi_nu
    A_{j mu} = (alpha/m0^2) z^j xi_mu          Q_{j mu} = i d/dz^j xi_mu

as matrices on oscillator states.  Matrices are built in dimensionless
variables u = z sqrt(alpha)/m0 where the evolution operator is
(1/2)(-Laplacian + u^2 + ell); all physical prefactors enter through the
documented conversion factors, so the spectrum n + 3/2 + ell/2 is manifestly
independent of (m0, alpha).

Truncation corrupts only the top two total degrees, so operator identities
are asserted on the interior subspace (total degree <= N - 2) throughout.
The evolution operator is the exception: each truncated lowering operator
sends distinct states to distinct states, so u^2 + p^2 = a a^dag + a^dag a is
exactly diagonal on the whole truncated space, top degree included, and the
spectrum and the evolution are read off that diagonal.

The external sector evaluates the generators as first-order differential
operators at points (xi, eta, z); the unitary convention is

    dU(X) = i * (multiplicative part) + (flow part) . gradient,

where both parts are read off the displayed generator lists (the displayed
flow terms carry an overall factor i that cancels against this convention;
the orientation is pinned by the derivative of the representation, which the
generator oracle checks).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import grouplaw as gl
from .labels import BasisLabel

@dataclass(frozen=True)
class RepParams:
    """Orbit and character data of one induced representation."""

    m0: float = 1.0
    alpha: float = 1.0
    lam: float = 1.0
    ell: float = 0.0
    s: float = 0.0
    j: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("m0, alpha, lam, ell, s, j must be finite")
        if self.m0 <= 0 or self.alpha <= 0 or self.lam <= 0:
            raise ValueError("m0, alpha, lam must be positive")
        for half in (self.s, self.j):
            if abs(2 * half - round(2 * half)) > 1e-12:
                raise ValueError("s and j must be half-integers")
        if self.j < 0:
            raise ValueError("j must be non-negative")


class FockBasis:
    """All |n1 n2 n3> with n1 + n2 + n3 <= N, lexicographic order.

    ``occupation[i, j]`` is n_j of state i, and ``lowered[j, i]`` is the
    index of the state with one quantum less in mode j (-1 when n_j = 0):
    the annihilation operator a_j maps state i to ``lowered[j, i]`` with
    amplitude sqrt(n_j).  Each map is injective.
    """

    def __init__(self, cutoff: int):
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        self.cutoff = cutoff
        self.states = [s for total in range(cutoff + 1)
                       for s in sorted(_states_of_degree(total))]
        self.index = {s: i for i, s in enumerate(self.states)}
        self.dim = len(self.states)
        self.occupation = np.array(self.states)
        self.lowered = np.array(
            [[self.index[s[:j] + (s[j] - 1,) + s[j + 1:]] if s[j] else -1 for s in self.states]
             for j in range(3)])
        self.degrees = self.occupation.sum(axis=1)
        self.interior = self.degrees <= cutoff - 2


def _states_of_degree(total: int):
    return [(a, b, total - a - b)
            for a in range(total + 1) for b in range(total - a + 1)]


def lowering_matrix(basis: FockBasis, mode: int) -> np.ndarray:
    """Annihilation operator of one mode on the truncated basis."""
    src = np.flatnonzero(basis.lowered[mode] >= 0)
    out = np.zeros((basis.dim, basis.dim))
    out[basis.lowered[mode, src], src] = np.sqrt(basis.occupation[src, mode])
    return out


def _quadrature(basis: FockBasis, mode: int, kind: str) -> np.ndarray:
    """u = (a + a^dag)/sqrt(2) or p = i (a^dag - a)/sqrt(2) of one mode."""
    a = lowering_matrix(basis, mode)
    return (a + a.T) / math.sqrt(2) if kind == "u" else 1j * (a.T - a) / math.sqrt(2)


def _second_order(basis: FockBasis, mode: int, sign: float) -> np.ndarray:
    """Exactly projected u^2 (sign +1) or p^2 (sign -1) of one mode.

    n + 1/2 on the diagonal and sign * sqrt(n (n - 1))/2 between a state with
    n >= 2 quanta in the mode and its double lowering, read off ``lowered``.
    """
    n = basis.occupation[:, mode]
    out = np.diag(n + 0.5)
    top = np.flatnonzero(n >= 2)
    low = basis.lowered[mode, basis.lowered[mode, top]]
    val = sign * np.sqrt(n[top] * (n[top] - 1)) / 2
    out[top, low] = val
    out[low, top] = val
    return out


@dataclass
class OscillatorOperator:
    """A matrix on a Fock basis with truncation metadata.  ``hermitian=True`` is
    checked as M - M^dagger, which on a real M is M - M.T with no complex copy."""

    matrix: np.ndarray
    basis: FockBasis
    hermitian: bool = False

    def __post_init__(self):
        if self.matrix.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("matrix does not match the basis")
        if self.hermitian:
            dev = np.abs(self.matrix - self.matrix.conj().T).max()
            if dev > 1e-12:
                raise ValueError(f"matrix flagged hermitian deviates by {dev}")


def internal_generator(X: BasisLabel, xi: np.ndarray, params: RepParams,
                       basis: FockBasis) -> OscillatorOperator:
    """The displayed internal operator at fixed xi, as a matrix.

    T' and C are real multiples of the identity; A and Q are the displayed
    multiplication (real) and differentiation (complex) operators with the
    (m0, alpha) conversion factors made explicit: in dimensionless variables
    z = (m0/sqrt(alpha)) u and i d/dz = -(sqrt(alpha)/m0) p.
    """
    gl.check_on_shell(xi, params.m0)
    xl = gl.lower(xi)
    scale = math.sqrt(params.alpha) / params.m0
    kind = X.kind
    if kind == "Tp":
        mat = xl[X.indices[0] - 1] * np.eye(basis.dim)
    elif kind == "C":
        mu, nu = X.indices
        mat = (params.alpha / params.m0**2) * xl[mu - 1] * xl[nu - 1] * np.eye(basis.dim)
    elif kind == "A":
        i, mu = X.indices
        mat = scale * xl[mu - 1] * _quadrature(basis, i - 1, "u")
    elif kind == "Q":
        i, mu = X.indices
        mat = -scale * xl[mu - 1] * _quadrature(basis, i - 1, "p")
    else:
        raise ValueError(f"label {X} is not in the internal sector")
    return OscillatorOperator(mat, basis, hermitian=True)


def _energies(params: RepParams, basis: FockBasis) -> np.ndarray:
    """Diagonal of H, the values that ``hamiltonian_K`` states."""
    n = basis.degrees
    return np.where(n < basis.cutoff, n + 1.5, basis.cutoff / 2) + params.ell / 2


def hamiltonian_K(params: RepParams, basis: FockBasis) -> OscillatorOperator:
    """Matrix of the evolution generator (1/2)(-(m0^2/a)Lap + (a/m0^2)z^2 + ell).

    In dimensionless variables this is (1/2)(sum_j p_j^2 + u_j^2 + ell), which
    is diagonal in the Fock basis: u_j^2 + p_j^2 = a_j a_j^dag + a_j^dag a_j
    gives n + 3/2 + ell/2 on total degree n < N, independent of (m0, alpha),
    and N/2 + ell/2 on the top degree N, where the truncated raising
    operators vanish.
    """
    return OscillatorOperator(np.diag(_energies(params, basis)), basis, hermitian=True)


def _casimir(kind: str, params: RepParams, xi: np.ndarray,
             basis: FockBasis) -> OscillatorOperator:
    """-g^{mu nu} delta^{ij} X_{i mu} X_{j nu} for X = A or Q, from generators.

    Each generator is one fixed matrix per mode times a coefficient per
    index: X_{i mu} = c_mu M_i with M_i = u_i for A and p_i for Q, and
    c_mu = +-(sqrt(alpha)/m0) xi_mu (see ``internal_generator``).  The metric
    is diagonal, so only mu = nu survives and the sum over mu factors out:

        -sum_{i mu} g^{mu mu} X_{i mu}^2 = -(alpha/m0^2) <xi, xi> sum_i M_i M_i,

    which is alpha sum_i M_i M_i on the shell.  The result is still the
    product of the truncated generators, one dense product per mode, so it
    differs from the exactly projected ``minus_laplacian`` and
    ``z_squared_scaled`` on the top two degrees.  With r = a + a^dag or
    a^dag - a, u = r/sqrt(2) and p = i r/sqrt(2), so M M = +-r r/2 is real.
    """
    gl.check_on_shell(xi, params.m0)
    xl = gl.lower(xi)
    sign = 1.0 if kind == "A" else -1.0
    total = np.zeros((basis.dim, basis.dim))
    for mode in range(3):
        a = lowering_matrix(basis, mode)
        r = a.T + sign * a
        total += r @ r
    total *= -(params.alpha / params.m0**2) * gl.mink(xl, xl) * sign / 2
    return OscillatorOperator(total, basis, hermitian=True)


def casimir_MN(params: RepParams, xi: np.ndarray, basis: FockBasis) -> OscillatorOperator:
    """-g^{mu nu} delta^{ij} Q_{i mu} Q_{j nu}, assembled from generators."""
    return _casimir("Q", params, xi, basis)


def casimir_MA(params: RepParams, xi: np.ndarray, basis: FockBasis) -> OscillatorOperator:
    """-g^{mu nu} delta^{ij} A_{i mu} A_{j nu}, assembled from generators."""
    return _casimir("A", params, xi, basis)


def minus_laplacian(params: RepParams, basis: FockBasis) -> np.ndarray:
    """-m0^2 Laplacian_z as an exactly projected matrix (= alpha sum p_u^2)."""
    total = sum(_second_order(basis, mode, -1.0) for mode in range(3))
    return params.alpha * total


def z_squared_scaled(params: RepParams, basis: FockBasis) -> np.ndarray:
    """(alpha^2/m0^2) z^(2) as an exactly projected matrix (= alpha sum u^2)."""
    total = sum(_second_order(basis, mode, 1.0) for mode in range(3))
    return params.alpha * total


def W_operator(k: float, params: RepParams, basis: FockBasis) -> OscillatorOperator:
    """The intertwining unitary: spectral calculus of the oscillator part.

    Diagonal on the Fock basis with eigenvalue e^{i k (n + 3/2)} on total
    degree n; exactly unitary on the truncated space.
    """
    phases = np.exp(1j * k * (basis.degrees + 1.5))
    return OscillatorOperator(np.diag(phases), basis, hermitian=False)


@dataclass
class WaveFunction:
    """Complex coefficient vector on a Fock basis."""

    coeffs: np.ndarray
    basis: FockBasis

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "WaveFunction":
        return WaveFunction(self.coeffs / self.norm(), self.basis)


def evolve(psi: WaveFunction, tau: float, params: RepParams,
           basis: FockBasis) -> WaveFunction:
    """psi(tau) = exp(-i tau H) psi.

    H is diagonal in the Fock basis, top degree included, so each
    coefficient only picks up its phase exp(-i tau E_i).
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    return WaveFunction(np.exp(-1j * tau * _energies(params, basis)) * psi.coeffs, basis)


def spectrum(params: RepParams, basis: FockBasis) -> list[tuple[float, int]]:
    """Eigenvalues of the evolution generator with multiplicities.

    H is diagonal in the Fock basis, so its eigenvalues are its diagonal
    entries, n + 3/2 + ell/2 on each state of total degree n.  The top degree
    N is left out: truncation corrupts it to N/2 + ell/2.  Entries of one
    degree are equal to the last bit, so each level is one distinct value.
    """
    levels, counts = np.unique(_energies(params, basis)[basis.degrees < basis.cutoff],
                               return_counts=True)
    return [(float(v), int(c)) for v, c in zip(levels, counts)]


def _external_momentum(xi: np.ndarray, eta: np.ndarray, m0: float, lam: float) -> np.ndarray:
    """p = vec(A_xi R_eta) p0 with p0 = (0, 0, lam, lam); raises off the shell."""
    p0 = np.array([0.0, 0.0, lam, lam])
    return gl.vector_rep(gl.boost_section(xi, m0) @ gl.rotation_section(eta, lam)) @ p0


def free_mass_check(xi: np.ndarray, eta: np.ndarray, params: RepParams) -> dict:
    """g_{mu nu} p^mu p^nu for the external momentum p at (xi, eta).

    The external momentum rides the light cone, so the value must vanish and
    the fourth component must stay positive.
    """
    p = _external_momentum(xi, eta, params.m0, params.lam)
    return {"p": p, "mass_squared": gl.mink(p, p), "p4": float(p[3])}


# -- sample points and test functions --------------------------------------


@dataclass
class SamplePoint:
    """One point (xi, eta, z) of the orbit chart."""

    xi: np.ndarray
    eta: np.ndarray
    z: np.ndarray


def random_sample_points(rng: np.random.Generator, count: int,
                         params: RepParams) -> list[SamplePoint]:
    """Seeded orbit points; eta keeps out of the cone n_3 < -1/2 around the antipode."""
    pts = []
    while len(pts) < count:
        eta_dir = rng.normal(0.0, 1.0, 3)
        if eta_dir[2] / np.linalg.norm(eta_dir) < -0.5:
            continue
        pts.append(SamplePoint(
            xi=gl.shell_point(rng.normal(0.0, 0.6, 3), params.m0),
            eta=gl.sphere_point(eta_dir, params.lam),
            z=rng.normal(0.0, 0.8, 3),
        ))
    return pts


@dataclass
class TestFunction:
    """Analytic test function with exact gradients, vector-valued in C^d."""

    f: callable
    grad_xi: callable
    grad_eta: callable
    grad_z: callable
    dim: int = 1


def gaussian_polynomial_test_functions(rng: np.random.Generator, count: int,
                                       dim: int = 1) -> list[TestFunction]:
    """Random (linear polynomial) x exp(-|z|^2/2) functions with gradients."""
    out = []
    for _ in range(count):
        cx = rng.normal(0.0, 1.0, (dim, 3)) + 1j * rng.normal(0.0, 1.0, (dim, 3))
        ce = rng.normal(0.0, 1.0, (dim, 3)) + 1j * rng.normal(0.0, 1.0, (dim, 3))
        cz = rng.normal(0.0, 1.0, (dim, 3)) + 1j * rng.normal(0.0, 1.0, (dim, 3))
        c0 = rng.normal(0.0, 1.0, dim) + 1j * rng.normal(0.0, 1.0, dim)

        def f(xi, eta, z, cx=cx, ce=ce, cz=cz, c0=c0):
            poly = c0 + cx @ xi[:3] + ce @ eta + cz @ z
            return poly * math.exp(-0.5 * float(z @ z))

        def grad_xi(xi, eta, z, cx=cx, **_k):
            return cx * math.exp(-0.5 * float(z @ z))

        def grad_eta(xi, eta, z, ce=ce, **_k):
            return ce * math.exp(-0.5 * float(z @ z))

        def grad_z(xi, eta, z, cx=cx, ce=ce, cz=cz, c0=c0):
            poly = c0 + cx @ xi[:3] + ce @ eta + cz @ z
            gauss = math.exp(-0.5 * float(z @ z))
            return (cz - np.outer(poly, z)) * gauss

        out.append(TestFunction(f, grad_xi, grad_eta, grad_z, dim))
    return out


# -- the full induced action ------------------------------------------------


def iur_apply(g: gl.GroupElement, F, params: RepParams):
    """The induced action: returns the function U(g)F as a callable.

    (U(g)F)(xi, eta, z) = exp i{<p,t> + <xi,t'> + <b,a>_1 + <D,c>_2 + s phi}
                          D(j)(R) F(Lam^-1 xi, eta', R^-1(z - <xi, q>))

    with p = vec(A_xi R_eta) p0, b^{j mu} = (alpha/m0^2) z^j xi^mu,
    D_{mu nu} = (alpha/m0^2) xi_mu xi_nu, the transported eta', and the
    little-group angle phi of the Lorentz part.

    The character phase pairs D with the c component of the abelian factor
    of g = h k, which is c - beta(a, q) in tuple coordinates: composing the
    pure-(t, t', c, a) part with the pure-(q, Lambda, R) part regenerates a
    beta(a, q) term in the c slot.  The representation property fixes this
    normalization; pairing D with the raw c slot breaks the composition law
    on mixed a/q pairs.
    """
    m0, lam = params.m0, params.lam
    Dj = gl.spin_rep(g.R, params.j)
    RvT = gl.so3_rep(g.R).T

    def UF(xi, eta, z):
        p = _external_momentum(xi, eta, m0, lam)
        phase = gl.mink(p, g.t) + gl.mink(xi, g.tp)
        xl = gl.lower(xi)
        # <b, a>_1 with b^{j mu} = (alpha/m0^2) z^j xi^mu
        phase += (params.alpha / m0**2) * float(z @ (g.a @ xl))
        # <D, c>_2 = sum_{mu nu} D_{mu nu} w^{mu nu} in the stored chart,
        # with c taken from the abelian factor of g = h k
        D_low = (params.alpha / m0**2) * np.outer(xl, xl)
        phase += float(np.sum(D_low * (g.c - gl.beta_w(g.a, g.q))))
        # xi' = Lam^-1 xi and eta' = D(1)(A_{xi'}^-1 Lam^-1 A_xi) eta
        phi, xi2, eta2 = gl.wigner_phase(g.Lam, xi, eta, m0, lam)
        phase += params.s * phi
        z2 = RvT @ (z - g.q @ xl)
        val = np.atleast_1d(F(xi2, eta2, z2))
        return np.exp(1j * phase) * (Dj @ val)

    return UF


# -- external generators as first-order operators ---------------------------


def _wedge_flow(v: np.ndarray, axis: int) -> np.ndarray:
    """The rotation flow e_axis x v: -v_j on slot i and v_i on slot j, where
    (axis, i, j) is cyclic."""
    i, j = axis % 3, (axis + 1) % 3
    out = np.zeros(3)
    out[i], out[j] = -v[j], v[i]
    return out


@dataclass
class GeneratorAction:
    """dU(X) at a point: i * mult + flows dotted into gradients."""

    mult: np.ndarray          # (d, d) matrix acting on the value space
    flow_xi: np.ndarray       # coefficients on d/dxi^1..3 (chart on the shell)
    flow_eta: np.ndarray
    flow_z: np.ndarray

    def apply(self, fn: TestFunction, pt: SamplePoint) -> np.ndarray:
        val = 1j * (self.mult @ np.atleast_1d(fn.f(pt.xi, pt.eta, pt.z)))
        val = val + fn.grad_xi(pt.xi, pt.eta, pt.z) @ self.flow_xi
        val = val + fn.grad_eta(pt.xi, pt.eta, pt.z) @ self.flow_eta
        val = val + fn.grad_z(pt.xi, pt.eta, pt.z) @ self.flow_z
        return val


def external_generator(X: BasisLabel, pt: SamplePoint, params: RepParams,
                       *, variant: str = "printed") -> GeneratorAction:
    """The displayed generator at a sample point.

    ``variant='printed'`` evaluates the displayed coefficient lists
    verbatim; ``variant='rederived'`` replaces the two suspect terms of the
    L_24 eta-flow by the coefficients obtained from the rotation symmetry
    of the L_14 entry (flagged by the generator oracle).
    """
    m0, lam, s, j = params.m0, params.lam, params.s, params.j
    d = int(round(2 * j)) + 1
    xi, eta, z = pt.xi, pt.eta, pt.z
    zero3 = np.zeros(3)
    mult0 = np.zeros((d, d), dtype=complex)
    kind, ix = X.kind, X.indices
    eye = np.eye(d, dtype=complex)

    if kind == "Tp":
        return GeneratorAction(gl.lower(xi)[ix[0] - 1] * eye, zero3, zero3, zero3)
    if kind == "T":
        p = _external_momentum(xi, eta, m0, lam)
        return GeneratorAction(gl.lower(p)[ix[0] - 1] * eye, zero3, zero3, zero3)
    if kind == "C":
        mu, nu = ix
        xl = gl.lower(xi)
        val = (params.alpha / m0**2) * xl[mu - 1] * xl[nu - 1]
        return GeneratorAction(val * eye, zero3, zero3, zero3)
    if kind == "A":
        i, mu = ix
        val = (params.alpha / m0**2) * z[i - 1] * gl.lower(xi)[mu - 1]
        return GeneratorAction(val * eye, zero3, zero3, zero3)
    if kind == "Q":
        i, mu = ix
        flow = np.zeros(3)
        flow[i - 1] = -gl.lower(xi)[mu - 1]
        return GeneratorAction(mult0, zero3, zero3, flow)
    if kind == "L" and ix[1] == 4:
        return _boost_generator(ix[0], pt, params, d, variant)
    if kind in ("J", "L"):
        # rotation in the (m, n) plane: about the axis of eps_{mn axis}, with its sign
        sign, axis = gl.rotation_axis(*ix)
        if kind == "J":
            mult = gl.spin_generator(gl.sl2_generator(*ix), j) / 1j
            return GeneratorAction(mult, zero3, zero3, sign * _wedge_flow(z, axis))
        # displayed s terms: eta^1/(lam+eta^3) on the 23 plane,
        # eta^2/(lam+eta^3) on the 31 plane, the constant s on 12
        if axis == 3:
            smult = s
        else:
            smult = s * eta[axis - 1] / (lam + eta[2])
        return GeneratorAction(sign * smult * eye,
                               sign * _wedge_flow(xi[:3], axis),
                               sign * _wedge_flow(eta, axis),
                               zero3)
    raise ValueError(f"no external generator for label {X}")


def _boost_generator(i: int, pt: SamplePoint, params: RepParams, d: int,
                     variant: str) -> GeneratorAction:
    """The displayed L_{i4} entries: s term, eta flow, and the boost xi flow."""
    m0, lam, s = params.m0, params.lam, params.s
    xi, eta = pt.xi, pt.eta
    x1, x2, x3, x4 = xi
    e1, e2, e3 = eta
    den = (lam + e3) * (m0 + x4)
    w = x4 + m0
    eye = np.eye(d, dtype=complex)
    if i == 1:
        smult = s * (e2 * x3 - x2 * (lam + e3)) / den
        flow_eta = np.array([(x3 * e3 + x2 * e2) / w, -e1 * x2 / w, -e1 * x3 / w])
    elif i == 2:
        smult = s * (-e1 * x3 + x1 * (lam + e3)) / den
        if variant == "printed":
            flow_eta = np.array([-(x1 * e2 + x1 * e2) / w,
                                 (e1 + x1 + x3 * e3) / w,
                                 -e2 * x3 / w])
        else:
            flow_eta = np.array([-x1 * e2 / w, (x1 * e1 + x3 * e3) / w, -e2 * x3 / w])
    else:
        smult = s * (e1 * x2 - x1 * e2) / den
        flow_eta = np.array([-e3 * x1 / w, -e3 * x2 / w, (e1 * x1 + e2 * x2) / w])
    flow_xi = np.zeros(3)
    flow_xi[i - 1] = x4
    return GeneratorAction(smult * eye, flow_xi, flow_eta, np.zeros(3))


def generator_oracle(X: BasisLabel, params: RepParams, *, points=None,
                     functions=None, seed: int = 5) -> dict:
    """Compare d/ds U(exp(sX)) F against the displayed generator formulas.

    Central finite differences (step 1e-5) of the induced action along the
    one-parameter subgroup, evaluated on analytic test functions; reports
    the maximum deviation for the printed coefficients and, where they
    differ, for the rederived ones.
    """
    eps = 1e-5
    rng = np.random.default_rng(seed)
    d = int(round(2 * params.j)) + 1
    pts = points if points is not None else random_sample_points(rng, 6, params)
    fns = functions if functions is not None else gaussian_polynomial_test_functions(rng, 3, d)
    report = {"label": str(X), "printed": 0.0, "rederived": 0.0}
    for fn in fns:
        plus = iur_apply(gl.one_parameter(X, eps), fn.f, params)
        minus = iur_apply(gl.one_parameter(X, -eps), fn.f, params)
        for pt in pts:
            numeric = (np.atleast_1d(plus(pt.xi, pt.eta, pt.z))
                       - np.atleast_1d(minus(pt.xi, pt.eta, pt.z))) / (2 * eps)
            for variant in ("printed", "rederived"):
                formula = external_generator(X, pt, params, variant=variant).apply(fn, pt)
                dev = float(np.abs(numeric - formula).max())
                report[variant] = max(report[variant], dev)
    report["agrees"] = report["printed"] <= 1e-5 or report["rederived"] <= 1e-5
    return report
