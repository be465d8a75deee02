"""Oscillator representation: spectrum, casimirs, evolution, induced action."""

import math

import numpy as np
import pytest

from newstein import grouplaw as gl
from newstein import labels as lb
from newstein.algebras import build_newstein
from newstein.oscillator import (FockBasis, RepParams, W_operator, WaveFunction,
                                 casimir_MA, casimir_MN, evolve, external_generator,
                                 free_mass_check,
                                 gaussian_polynomial_test_functions, generator_oracle,
                                 hamiltonian_K, internal_generator, iur_apply,
                                 minus_laplacian, random_sample_points, spectrum,
                                 z_squared_scaled)
from oracles import generator_casimir, ladder_matrices, second_order_exact


@pytest.fixture(scope="module")
def basis():
    return FockBasis(12)


@pytest.fixture(scope="module")
def params():
    return RepParams(m0=1.2, alpha=0.9, lam=0.8, ell=0.0, s=0.5, j=0.0)


def interior_block(mat, basis):
    idx = np.where(basis.interior)[0]
    return mat[np.ix_(idx, idx)]


def test_basis_dimensions():
    assert FockBasis(0).dim == 1
    assert FockBasis(12).dim == math.comb(15, 3)
    b = FockBasis(4)
    assert sorted(b.states) == b.states or len(set(b.states)) == b.dim
    assert int(b.interior.sum()) == math.comb(2 + 3, 3)


def test_ladder_matrices_structure(basis):
    us, ps = ladder_matrices(basis)
    for u, p in zip(us, ps):
        assert np.abs(u - u.conj().T).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-12
        assert np.abs(np.diag(u)).max() == 0.0  # parity: no diagonal entries
    comm = us[0] @ ps[0] - ps[0] @ us[0]
    dev = interior_block(comm - 1j * np.eye(basis.dim), basis)
    assert np.abs(dev).max() <= 1e-12
    cross = us[0] @ ps[1] - ps[1] @ us[0]
    assert np.abs(interior_block(cross, basis)).max() <= 1e-12
    assert us[0][basis.index[(1, 0, 0)], 0] != 0


def test_oscillator_energy_diagonal(basis):
    us, ps = ladder_matrices(basis)
    H2 = sum(u @ u + p @ p for u, p in zip(us, ps))
    idx = np.where(basis.degrees <= basis.cutoff - 1)[0]
    want = 2 * basis.degrees[idx] + 3
    block = H2[np.ix_(idx, idx)]
    assert np.abs(block - np.diag(want)).max() < 1e-12


def dense_hamiltonian(params, basis):
    """(1/2) sum_j (u_j u_j + p_j p_j) + ell/2 from the dense ladder matrices."""
    us, ps = ladder_matrices(basis)
    return (sum(u @ u + p @ p for u, p in zip(us, ps)) / 2.0
            + params.ell / 2.0 * np.eye(basis.dim))


@pytest.mark.parametrize("cutoff", [6, 12])
def test_hamiltonian_matches_dense_ladder_products(cutoff):
    b = FockBasis(cutoff)
    p = RepParams(m0=1.7, alpha=0.6, ell=-1.3)
    # the whole truncated space, top degree included
    assert np.abs(hamiltonian_K(p, b).matrix - dense_hamiltonian(p, b)).max() <= 1e-12


@pytest.mark.parametrize("cutoff", [6, 12])
def test_evolve_and_spectrum_match_dense_eigensolvers(cutoff):
    b = FockBasis(cutoff)
    p = RepParams(m0=0.8, alpha=1.4, ell=0.7)
    dense = dense_hamiltonian(p, b)
    w, v = np.linalg.eigh(dense)
    rng = np.random.default_rng(cutoff)
    psi = rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)
    for tau in (0.5, 3.0, 10.0):
        want = v @ (np.exp(-1j * tau * w) * (v.conj().T @ psi))
        got = evolve(WaveFunction(psi, b), tau, p, b).coeffs
        assert np.abs(got - want).max() <= 1e-12
    idx = np.flatnonzero(b.degrees < b.cutoff)
    want = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])
    levels, mults = zip(*spectrum(p, b))
    assert np.abs(np.repeat(levels, mults) - want).max() <= 1e-12


def test_spectrum_and_evolve_at_cutoff_40_without_eigensolvers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    b = FockBasis(40)
    assert b.dim == 12341
    p = RepParams(m0=2.1, alpha=0.4, ell=0.6)
    rows = spectrum(p, b)
    assert len(rows) == 40
    for n, (val, mult) in enumerate(rows):
        assert abs(val - (n + 1.5 + p.ell / 2)) <= 1e-12
        assert mult == (n + 1) * (n + 2) // 2
    # interior degrees evolve with n + 3/2 + ell/2, the top degree with N/2 + ell/2
    tau = 2.3
    energy = np.where(b.degrees < b.cutoff, b.degrees + 1.5, b.cutoff / 2) + p.ell / 2
    out = evolve(WaveFunction(np.ones(b.dim, dtype=complex), b), tau, p, b)
    assert np.abs(out.coeffs - np.exp(-1j * tau * energy)).max() <= 1e-12


def test_mass_spectrum_rows(basis):
    spec = spectrum(RepParams(ell=0.0), basis)
    assert spec[0] == (pytest.approx(1.5), 1)
    assert spec[1][0] == pytest.approx(2.5) and spec[1][1] == 3
    assert spec[2][0] == pytest.approx(3.5) and spec[2][1] == 6


def test_mass_spectrum_formula_random_params(basis):
    rng = np.random.default_rng(21)
    for _ in range(5):
        p = RepParams(m0=float(rng.uniform(0.5, 3)), alpha=float(rng.uniform(0.3, 2)),
                      ell=float(rng.uniform(-4, 4)))
        for n, (val, mult) in enumerate(spectrum(p, basis)):
            if n > 10:
                break
            assert abs(val - (n + 1.5 + p.ell / 2)) <= 1e-9
            assert mult == (n + 1) * (n + 2) // 2


def test_ground_state_zero_at_ell_minus_three(basis):
    spec = spectrum(RepParams(ell=-3.0), basis)
    assert abs(spec[0][0]) <= 1e-12


def test_spectrum_scale_invariance(basis):
    s1 = spectrum(RepParams(m0=1.0, alpha=1.0), basis)
    s2 = spectrum(RepParams(m0=3.0, alpha=0.5), basis)
    for (v1, m1), (v2, m2) in zip(s1, s2):
        assert abs(v1 - v2) <= 1e-9
        assert m1 == m2


def test_hamiltonian_hermitian_and_scalar_ops(basis, params):
    H = hamiltonian_K(params, basis)
    assert H.hermitian
    xi = gl.shell_point([0.3, -0.1, 0.4], params.m0)
    op = internal_generator(lb.Tp(4), xi, params, basis)
    assert np.abs(op.matrix - (-xi[3]) * np.eye(basis.dim)).max() < 1e-12
    xi0 = np.array([0.0, 0, 0, params.m0])
    op0 = internal_generator(lb.Tp(4), xi0, params, basis)
    assert np.abs(op0.matrix - (-params.m0) * np.eye(basis.dim)).max() == 0


def test_real_formulas_give_real_matrices(params):
    """Only Q = i d/dz and W(k) have complex formulas; every other Fock
    operator stays float64."""
    basis = FockBasis(4)
    xi = gl.shell_point([0.3, -0.1, 0.4], params.m0)
    real = [hamiltonian_K(params, basis).matrix, casimir_MN(params, xi, basis).matrix,
            casimir_MA(params, xi, basis).matrix, minus_laplacian(params, basis),
            z_squared_scaled(params, basis)]
    real += [internal_generator(X, xi, params, basis).matrix
             for X in (lb.Tp(4), lb.C(1, 2), lb.A(1, 1))]
    assert [m.dtype for m in real] == [np.float64] * 8
    assert internal_generator(lb.Q(1, 1), xi, params, basis).matrix.dtype == np.complex128
    assert W_operator(0.37, params, basis).matrix.dtype == np.complex128


def test_internal_bracket_representation(basis, params):
    G = build_newstein()
    xi = gl.shell_point([0.2, 0.4, -0.1], params.m0)
    pairs = [(lb.A(1, 1), lb.Q(1, 2)), (lb.A(1, 1), lb.Q(2, 2)),
             (lb.A(2, 3), lb.Q(2, 3)), (lb.Tp(1), lb.A(1, 1)),
             (lb.C(1, 2), lb.Q(1, 1)), (lb.A(1, 4), lb.Q(1, 4))]
    for x, y in pairs:
        rx = 1j * internal_generator(x, xi, params, basis).matrix
        ry = 1j * internal_generator(y, xi, params, basis).matrix
        comm = rx @ ry - ry @ rx
        want = np.zeros_like(comm)
        for k, c in G.bracket_basis(G.index[x], G.index[y]).items():
            want = want + float(c) * 1j * internal_generator(
                G.labels[k], xi, params, basis).matrix
        assert np.abs(interior_block(comm - want, basis)).max() <= 1e-10


def test_casimir_identities(basis, params):
    xi = gl.shell_point([0.3, -0.2, 0.5], params.m0)
    MN = casimir_MN(params, xi, basis).matrix
    MA = casimir_MA(params, xi, basis).matrix
    assert np.abs(interior_block(MN - minus_laplacian(params, basis), basis)).max() <= 1e-10
    assert np.abs(interior_block(MA - z_squared_scaled(params, basis), basis)).max() <= 1e-10
    H = hamiltonian_K(params, basis).matrix
    B = (MN + MA) / (2 * params.alpha) + params.ell / 2 * np.eye(basis.dim)
    assert np.abs(interior_block(B - H, basis)).max() <= 1e-10
    for M in (MN, MA):
        block = interior_block(M, basis)
        assert np.linalg.eigvalsh((block + block.conj().T) / 2).min() >= -1e-10


def test_casimir_ground_expectation(basis):
    p = RepParams(m0=2.0, alpha=1.5)
    xi = gl.shell_point([0.0, 0.0, 0.0], p.m0)
    MN = casimir_MN(p, xi, basis).matrix
    assert MN[0, 0].real == pytest.approx(1.5 * p.alpha)


@pytest.mark.parametrize("cutoff", [4, 12])
@pytest.mark.parametrize("kind,casimir", [("Q", casimir_MN), ("A", casimir_MA)],
                         ids=["MN", "MA"])
def test_casimir_matches_generator_oracle(kind, casimir, cutoff):
    # the whole truncated matrix, top degrees included: both sides are
    # products of the same truncated generators
    b = FockBasis(cutoff)
    rng = np.random.default_rng(17)
    for p in (RepParams(m0=1.2, alpha=0.9, ell=-1.0), RepParams(m0=0.4, alpha=2.5)):
        dirs = rng.normal(size=(3, 3))
        norms = (rng.uniform(0.0, 1.0), rng.uniform(1.0, 2.0), 2.0)
        for v in [np.zeros(3)] + [r * p.m0 * d / np.linalg.norm(d) for r, d in zip(norms, dirs)]:
            xi = gl.shell_point(v, p.m0)
            want = generator_casimir(kind, p, xi, b).matrix
            got = casimir(p, xi, b).matrix
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("casimir", [casimir_MN, casimir_MA], ids=["MN", "MA"])
@pytest.mark.parametrize("xi", [np.array([0.3, -0.2, 0.5, 2.0]),
                                -gl.shell_point([0.3, -0.2, 0.5], 1.2)],
                         ids=["off-shell", "backward-cone"])
def test_casimir_rejects_off_shell(casimir, xi, params):
    with pytest.raises(gl.OffShellError):
        casimir(params, xi, FockBasis(2))


def test_case7_dynamics_at_operator_level(basis, params):
    xi = gl.shell_point([0.1, 0.2, -0.3], params.m0)
    us, ps = ladder_matrices(basis)
    Hosc = sum(u @ u + p @ p for u, p in zip(us, ps)) / 2.0
    for i in range(1, 4):
        for mu in range(1, 5):
            A = internal_generator(lb.A(i, mu), xi, params, basis).matrix
            Q = internal_generator(lb.Q(i, mu), xi, params, basis).matrix
            commA = 1j * (Hosc @ A - A @ Hosc)
            assert np.abs(interior_block(commA - (-Q), basis)).max() <= 1e-8
            commQ = 1j * (Hosc @ Q - Q @ Hosc)
            assert np.abs(interior_block(commQ - A, basis)).max() <= 1e-8


def test_w_operator(basis, params):
    W0 = W_operator(0.0, params, basis).matrix
    assert np.abs(W0 - np.eye(basis.dim)).max() == 0
    W = W_operator(2 * math.pi, params, basis).matrix
    assert np.abs(interior_block(W + np.eye(basis.dim), basis)).max() <= 1e-9
    k = 0.37
    Wk = W_operator(k, params, basis).matrix
    assert np.abs(Wk @ Wk.conj().T - np.eye(basis.dim)).max() < 1e-12
    xi = gl.shell_point([0.3, -0.2, 0.5], params.m0)
    A = internal_generator(lb.A(1, 1), xi, params, basis).matrix
    Q = internal_generator(lb.Q(1, 1), xi, params, basis).matrix
    rotA = Wk @ A @ Wk.conj().T - (math.cos(k) * A - math.sin(k) * Q)
    rotQ = Wk @ Q @ Wk.conj().T - (math.cos(k) * Q + math.sin(k) * A)
    assert np.abs(interior_block(rotA, basis)).max() <= 1e-8
    assert np.abs(interior_block(rotQ, basis)).max() <= 1e-8


def test_w_commutes_with_evolution(basis, params):
    H = hamiltonian_K(params, basis).matrix
    W = W_operator(1.1, params, basis).matrix
    assert np.abs(interior_block(W @ H - H @ W, basis)).max() <= 1e-10


def test_evolve_unitary_and_energy_conservation(basis, params):
    rng = np.random.default_rng(4)
    psi = WaveFunction(rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim),
                       basis).normalized()
    H = hamiltonian_K(params, basis).matrix
    e0 = (psi.coeffs.conj() @ H @ psi.coeffs).real
    for tau in (0.5, 3.0, 10.0):
        out = evolve(psi, tau, params, basis)
        assert abs(out.norm() - 1.0) <= 1e-12
        e = (out.coeffs.conj() @ H @ out.coeffs).real
        assert abs(e - e0) <= 1e-10


def test_ground_state_stationary_at_ell_minus_three(basis):
    p = RepParams(ell=-3.0)
    vec = np.zeros(basis.dim, dtype=complex)
    vec[0] = 1.0
    psi = WaveFunction(vec, basis)
    for tau in (0.7, 4.0, 9.5):
        out = evolve(psi, tau, p, basis)
        assert np.abs(out.coeffs - psi.coeffs).max() <= 1e-12


def test_free_mass_is_null(params):
    rng = np.random.default_rng(6)
    xi0 = np.array([0.0, 0, 0, params.m0])
    pole = np.array([0.0, 0, params.lam])
    r = free_mass_check(xi0, pole, params)
    assert abs(r["mass_squared"]) <= 1e-12
    assert np.abs(r["p"] - np.array([0, 0, params.lam, params.lam])).max() <= 1e-12
    done = 0
    while done < 100:
        v = rng.normal(0, 1, 3)
        if v[2] / np.linalg.norm(v) < -0.5:
            continue
        xi = gl.shell_point(rng.normal(0, 1.5, 3), params.m0)
        eta = gl.sphere_point(v, params.lam)
        r = free_mass_check(xi, eta, params)
        assert abs(r["mass_squared"]) <= 1e-10 * params.lam**2
        assert r["p4"] > 0
        done += 1


def test_eta_flows_tangent_to_sphere(params):
    rng = np.random.default_rng(8)
    pts = random_sample_points(rng, 100, params)
    labels = ([lb.L(m, n) for m in range(1, 4) for n in range(m + 1, 5)]
              + [lb.J(i, j) for i in range(1, 3) for j in range(i + 1, 4)])
    for lab in labels:
        for pt in pts:
            act = external_generator(lab, pt, params, variant="rederived")
            assert abs(float(pt.eta @ act.flow_eta)) <= 1e-9, lab
    # the printed list is tangent everywhere except the flagged L_24 entry
    for lab in labels:
        if str(lab) == "L24":
            continue
        act = external_generator(lab, pts[0], params, variant="printed")
        assert abs(float(pts[0].eta @ act.flow_eta)) <= 1e-9, lab


def test_vector_field_commutator_oracle(params):
    """[L_23, L_31] acting on test functions matches the L_12 field."""
    rng = np.random.default_rng(9)
    pts = random_sample_points(rng, 20, params)
    fns = gaussian_polynomial_test_functions(rng, 5, dim=1)
    G = build_newstein()
    want = {G.labels[k]: float(c) for k, c in G.bracket_basis(
        G.index[lb.L(2, 3)], G.index[lb.L(1, 3)]).items()}
    assert set(want) == {lb.L(1, 2)}
    eps = 1e-4

    def apply_field(label, fn, pt):
        return external_generator(label, pt, params, variant="rederived").apply(fn, pt)

    for fn in fns[:2]:
        for pt in pts[:5]:
            # symmetric difference kills the odd-order error terms
            val = np.zeros(1, dtype=complex)
            for e in (eps, -eps):
                a = gl.one_parameter(lb.L(2, 3), e)
                b = gl.one_parameter(lb.L(1, 3), e)
                for g, sgn in ((gl.compose(a, b), 1), (gl.compose(b, a), -1)):
                    val = val + sgn * np.atleast_1d(
                        iur_apply(g, fn.f, params)(pt.xi, pt.eta, pt.z))
            got = val / (2 * eps * eps)
            expect = want[lb.L(1, 2)] * apply_field(lb.L(1, 2), fn, pt)
            assert np.abs(got - expect).max() <= 1e-6 * max(1.0, np.abs(expect).max())


def test_generator_oracle_all_labels(params):
    labels = ([lb.T(m) for m in range(1, 5)] + [lb.Tp(m) for m in range(1, 5)]
              + [lb.C(m, n) for m in range(1, 5) for n in range(m, 5)]
              + [lb.A(i, m) for i in range(1, 4) for m in range(1, 5)]
              + [lb.Q(i, m) for i in range(1, 4) for m in range(1, 5)]
              + [lb.J(i, j) for i in range(1, 3) for j in range(i + 1, 4)]
              + [lb.L(m, n) for m in range(1, 4) for n in range(m + 1, 5)])
    flagged = {}
    for X in labels:
        rep = generator_oracle(X, params)
        if rep["printed"] > 1e-5:
            flagged[str(X)] = rep
        assert min(rep["printed"], rep["rederived"]) <= 1e-5, rep
    # the only displayed entry that fails verbatim is L_24, whose rederived
    # coefficients [-x1 e2, x1 e1 + x3 e3, -e2 x3]/(x4+m0) do pass
    assert set(flagged) == {"L24"}
    assert flagged["L24"]["rederived"] <= 1e-5


def test_generator_oracle_with_spin(basis):
    p = RepParams(m0=1.1, alpha=1.3, lam=0.9, s=-0.5, j=0.5)
    for X in (lb.J(1, 2), lb.J(2, 3), lb.L(1, 2), lb.L(3, 4), lb.Q(1, 4)):
        rep = generator_oracle(X, p)
        assert rep["rederived"] <= 1e-5


def test_master_homomorphism_oracle(params):
    rng = np.random.default_rng(99)
    pts = random_sample_points(rng, 20, params)
    fns = gaussian_polynomial_test_functions(rng, 2, dim=1)
    worst = 0.0
    for _ in range(10):
        g1, g2 = gl.random_element(rng, 0.4), gl.random_element(rng, 0.4)
        g12 = gl.compose(g1, g2)
        for fn in fns:
            lhs = iur_apply(g1, iur_apply(g2, fn.f, params), params)
            rhs = iur_apply(g12, fn.f, params)
            for pt in pts:
                try:
                    a = lhs(pt.xi, pt.eta, pt.z)
                    b = rhs(pt.xi, pt.eta, pt.z)
                except gl.SectionSingularityError:
                    continue
                worst = max(worst, float(np.abs(a - b).max() / max(1.0, np.abs(b).max())))
    assert worst <= 1e-7


def test_iur_pure_translations_are_phases(params):
    rng = np.random.default_rng(11)
    fn = gaussian_polynomial_test_functions(rng, 1, dim=1)[0]
    pt = random_sample_points(rng, 1, params)[0]
    g = gl.identity()
    g.tp = np.array([0.2, -0.1, 0.4, 0.3])
    out = iur_apply(g, fn.f, params)(pt.xi, pt.eta, pt.z)
    phase = (pt.xi[0] * g.tp[0] + pt.xi[1] * g.tp[1]
             + pt.xi[2] * g.tp[2] - pt.xi[3] * g.tp[3])
    want = np.exp(1j * phase) * np.atleast_1d(fn.f(pt.xi, pt.eta, pt.z))
    assert np.abs(out - want).max() <= 1e-12
    e = gl.identity()
    same = iur_apply(e, fn.f, params)(pt.xi, pt.eta, pt.z)
    assert np.abs(same - np.atleast_1d(fn.f(pt.xi, pt.eta, pt.z))).max() <= 1e-14


def test_spin_generator_matches_finite_difference():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 1e-6
    for j in (0.5, 1, 1.5):
        num = (gl.spin_rep(gl.expm2(h * X), j) - gl.spin_rep(gl.expm2(-h * X), j)) / (2 * h)
        assert np.abs(num - gl.spin_generator(X, j)).max() <= 1e-6


def test_second_order_exact_matches_products_on_interior(basis):
    us, ps = ladder_matrices(basis)
    u2s, p2s = second_order_exact(basis)
    for u, u2 in zip(us, u2s):
        assert np.abs(interior_block(u @ u - u2, basis)).max() <= 1e-12
    for p, p2 in zip(ps, p2s):
        assert np.abs(interior_block(p @ p - p2, basis)).max() <= 1e-12


def test_rep_params_validation():
    with pytest.raises(ValueError):
        RepParams(m0=-1.0)
    with pytest.raises(ValueError):
        RepParams(s=0.3)
    with pytest.raises(ValueError):
        RepParams(j=-0.5)
    with pytest.raises(ValueError):
        internal_generator(lb.L(1, 2), np.array([0, 0, 0, 1.0]), RepParams(), FockBasis(2))
    for field in ("m0", "alpha", "lam", "ell", "s", "j"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                RepParams(**{field: value})


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_evolve_rejects_non_finite_tau(tau):
    b = FockBasis(2)
    with pytest.raises(ValueError, match="finite"):
        evolve(WaveFunction(np.ones(b.dim, dtype=complex), b), tau, RepParams(), b)
