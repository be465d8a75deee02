"""Group law, covering representations, sections, Wigner phase."""

import math

import numpy as np
import pytest

from newstein import grouplaw as gl
from newstein import labels as lb
from newstein.algebras import build_extended, build_newstein
from newstein.grouplaw import (ExtendedGroupElement, GroupElement, OffShellError,
                               SectionSingularityError, StabilizerError, boost_section,
                               commutator_coords, compose, compose_extended,
                               element_distance, expm2, identity, inverse, inverse_extended,
                               log_coords,
                               one_parameter, random_element, rotation_section, shell_point,
                               sl2_generator, so3_rep, sphere_point, spin_generator, spin_rep,
                               vector_rep, wigner_phase)

from oracles import index_sym_rep, lstsq_project_real, trace_so3_rep, trace_vector_rep

G4 = np.diag([1.0, 1.0, 1.0, -1.0])


@pytest.fixture(scope="module")
def G():
    return build_newstein()


def test_expm2_of_nilpotent_and_zero_matrices_is_exact():
    """delta = 0 takes the series branch: exp(N) = I + N exactly."""
    N = np.array([[0, 0.7], [0, 0]], dtype=complex)
    assert np.array_equal(expm2(N), np.eye(2) + N)
    assert np.array_equal(expm2(np.zeros((2, 2), dtype=complex)), np.eye(2))


def test_vector_rep_identity_and_covering():
    assert np.abs(vector_rep(np.eye(2, dtype=complex)) - np.eye(4)).max() == 0
    rng = np.random.default_rng(0)
    g = random_element(rng)
    assert np.abs(vector_rep(g.Lam) - vector_rep(-g.Lam)).max() < 1e-12


def test_vector_rep_boost_example():
    Lam = np.diag([math.sqrt(2), 1 / math.sqrt(2)]).astype(complex)
    row = vector_rep(Lam) @ np.array([0.0, 0, 0, 1])
    assert np.abs(row - np.array([0, 0, 0.75, 1.25])).max() < 1e-12


def test_vector_rep_metric_preservation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        Lv = vector_rep(random_element(rng).Lam)
        assert np.abs(Lv.T @ G4 @ Lv - G4).max() < 1e-10


def test_vector_rep_homomorphism():
    rng = np.random.default_rng(6)
    for _ in range(50):
        L1, L2 = random_element(rng).Lam, random_element(rng).Lam
        assert np.abs(vector_rep(L1 @ L2) - vector_rep(L1) @ vector_rep(L2)).max() < 1e-10


def test_vector_rep_rejects_bad_determinant():
    with pytest.raises(ValueError):
        vector_rep(2 * np.eye(2, dtype=complex))


def _covering_samples():
    """SL(2,C) elements at two scales, SU(2) elements and the boost-rotation
    products of the external momentum, each with both signs."""
    rng = np.random.default_rng(17)
    lorentz, rotations = [], []
    for scale in (0.5, 1.5):
        for _ in range(100):
            g = random_element(rng, scale)
            lorentz.append(g.Lam)
            rotations.append(g.R)
    m0, lam = 1.3, 0.8
    for _ in range(100):
        v = rng.normal(0, 1, 3)
        if v[2] / np.linalg.norm(v) < -0.9:
            continue
        xi = shell_point(rng.normal(0, 2, 3), m0)
        lorentz.append(boost_section(xi, m0) @ rotation_section(sphere_point(v, lam), lam))
    return ([s * M for M in lorentz for s in (1, -1)],
            [s * R for R in rotations for s in (1, -1)])


def test_covering_maps_match_trace_oracle():
    lorentz, rotations = _covering_samples()
    for M in lorentz + rotations:
        want = trace_vector_rep(M)
        assert np.abs(vector_rep(M) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    for R in rotations:
        want = trace_so3_rep(R)
        assert np.abs(so3_rep(R) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("R", [2 * np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]),
                               np.diag([1.0, -1.0])],
                         ids=["det-4", "det-1-non-unitary", "unitary-det-minus-1"])
def test_so3_rep_rejects_non_su2(R):
    with pytest.raises(ValueError, match="not in SU"):
        so3_rep(R.astype(complex))


def c_coords(g):
    """The ten coordinates c^{mn}, m <= n, of an element, in basis order."""
    coords = log_coords(g)
    return np.array([coords[X] for X in lb.basis_labels() if X.kind == "C"])


def test_sym_rep_identity_and_homomorphism():
    """The oracle is a representation: the identity at Lambda = 1, and multiplicative."""
    assert np.abs(index_sym_rep(np.eye(2, dtype=complex)) - np.eye(10)).max() < 1e-14
    rng = np.random.default_rng(7)
    for _ in range(100):
        L1, L2 = random_element(rng).Lam, random_element(rng).Lam
        assert np.abs(index_sym_rep(L1 @ L2) - index_sym_rep(L1) @ index_sym_rep(L2)).max() < 1e-9


def test_sym_rep_matches_composition_path():
    """compose moves c by congruence in the w chart; the oracle, index by index."""
    rng = np.random.default_rng(8)
    g1, g2 = random_element(rng), random_element(rng)
    g1 = GroupElement(Lam=g1.Lam)           # pure Lorentz
    g2 = GroupElement(c=g2.c)
    out = compose(g1, g2)
    assert np.abs(c_coords(out) - index_sym_rep(g1.Lam) @ c_coords(g2)).max() < 1e-10


@pytest.mark.parametrize("j", [0.3, -0.5])
def test_spin_generator_rejects_the_spins_spin_rep_rejects(j):
    with pytest.raises(ValueError, match="half-integer"):
        spin_rep(np.eye(2, dtype=complex), j)
    with pytest.raises(ValueError, match="half-integer"):
        spin_generator(sl2_generator(1, 2), j)


def test_so3_rep_covering_and_spin_basics():
    assert np.abs(so3_rep(-np.eye(2, dtype=complex)) - np.eye(3)).max() < 1e-14
    rng = np.random.default_rng(9)
    R = random_element(rng).R
    assert np.abs(spin_rep(R, 0) - np.eye(1)).max() == 0
    assert np.abs(spin_rep(R, 0.5) - R).max() < 1e-14
    theta = 0.7
    D = spin_rep(np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)]), 0.5)
    ew = np.linalg.eigvals(D)
    assert sorted(np.angle(ew)) == pytest.approx(sorted([-theta / 2, theta / 2]))


def test_spin_rep_homomorphism_and_unitarity():
    rng = np.random.default_rng(10)
    for j in (0.5, 1, 1.5, 2):
        R1, R2 = random_element(rng).R, random_element(rng).R
        D1, D2 = spin_rep(R1, j), spin_rep(R2, j)
        assert np.abs(spin_rep(R1 @ R2, j) - D1 @ D2).max() < 1e-10
        assert np.abs(D1 @ D1.conj().T - np.eye(int(2 * j) + 1)).max() < 1e-10


def test_spin_one_equivalent_to_so3():
    rng = np.random.default_rng(11)
    R = random_element(rng).R
    ew1 = sorted(np.linalg.eigvals(spin_rep(R, 1)), key=lambda z: (z.real, z.imag))
    ew2 = sorted(np.linalg.eigvals(so3_rep(R).astype(complex)), key=lambda z: (z.real, z.imag))
    assert np.abs(np.array(ew1) - np.array(ew2)).max() < 1e-9


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(12)
    e = identity()
    for _ in range(20):
        g = random_element(rng)
        assert element_distance(compose(e, g), g) < 1e-14
        assert element_distance(compose(g, e), g) < 1e-14
        assert element_distance(compose(g, inverse(g)), e) < 1e-12
        assert element_distance(compose(inverse(g), g), e) < 1e-12


def test_compose_beta_example():
    ga, gq = identity(), identity()
    ga.a = np.zeros((3, 4))
    ga.a[0, 0] = 1.0
    gq.q = np.zeros((3, 4))
    gq.q[0, 0] = 1.0
    coords = c_coords(compose(ga, gq))
    assert coords[0] == 1.0
    assert np.abs(coords[1:]).max() == 0.0
    # opposite order picks up no c term
    assert np.abs(c_coords(compose(gq, ga))).max() == 0.0


def test_compose_associativity_seeded_thousand():
    rng = np.random.default_rng(2161)
    dev = 0.0
    for _ in range(1000):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        lhs = compose(compose(g1, g2), g3)
        rhs = compose(g1, compose(g2, g3))
        dev = max(dev, element_distance(lhs, rhs))
    assert dev <= 1e-9


def test_extended_reduces_to_plain_at_k2_zero():
    rng = np.random.default_rng(13)
    g1, g2 = random_element(rng), random_element(rng)
    out = compose_extended(ExtendedGroupElement(0.4, g1), ExtendedGroupElement(0.0, g2))
    assert out.k == 0.4
    assert element_distance(out.g, compose(g1, g2)) == 0.0


def test_extended_associativity_seeded_thousand():
    rng = np.random.default_rng(2162)
    dev = 0.0
    for _ in range(1000):
        es = [ExtendedGroupElement(rng.normal(), random_element(rng)) for _ in range(3)]
        lhs = compose_extended(compose_extended(es[0], es[1]), es[2])
        rhs = compose_extended(es[0], compose_extended(es[1], es[2]))
        dev = max(dev, abs(lhs.k - rhs.k), element_distance(lhs.g, rhs.g))
    assert dev <= 1e-9


def test_extended_inverse():
    rng = np.random.default_rng(14)
    for _ in range(20):
        e = ExtendedGroupElement(rng.normal(), random_element(rng))
        out = compose_extended(e, inverse_extended(e))
        assert abs(out.k) < 1e-14
        assert element_distance(out.g, identity()) < 1e-12


def test_conjugation_rotates_a_into_q():
    ga = identity()
    ga.a = np.zeros((3, 4))
    ga.a[0, 0] = 2.0
    ek = ExtendedGroupElement(math.pi / 2, identity())
    conj = compose_extended(compose_extended(ek, ExtendedGroupElement(0.0, ga)),
                            inverse_extended(ek))
    assert np.abs(conj.g.a).max() < 1e-12
    assert conj.g.q[0, 0] == pytest.approx(-2.0)
    # generic angle: the (a, q) pair rotates by k, with a c correction
    k = 0.7
    ek = ExtendedGroupElement(k, identity())
    conj = compose_extended(compose_extended(ek, ExtendedGroupElement(0.0, ga)),
                            inverse_extended(ek))
    assert conj.g.a[0, 0] == pytest.approx(2.0 * math.cos(k))
    assert conj.g.q[0, 0] == pytest.approx(-2.0 * math.sin(k))


def test_derivative_at_identity_matches_structure_constants(G):
    pairs = [
        (lb.L(1, 2), lb.T(2)), (lb.L(1, 4), lb.T(4)), (lb.L(2, 4), lb.C(2, 2)),
        (lb.L(1, 2), lb.L(1, 3)), (lb.L(1, 4), lb.L(2, 4)), (lb.J(1, 2), lb.J(2, 3)),
        (lb.J(1, 2), lb.A(1, 3)), (lb.A(1, 1), lb.Q(1, 2)), (lb.A(1, 1), lb.Q(1, 1)),
        (lb.A(2, 3), lb.Q(2, 3)), (lb.L(3, 4), lb.A(2, 3)), (lb.T(1), lb.Tp(1)),
        (lb.L(1, 3), lb.Tp(3)), (lb.Q(1, 2), lb.Q(2, 2)), (lb.C(1, 2), lb.A(1, 1)),
    ]
    for x, y in pairs:
        got = commutator_coords(G, x, y)
        want = {G.labels[k]: float(c)
                for k, c in G.bracket_basis(G.index[x], G.index[y]).items()}
        for key in set(got) | set(want):
            assert abs(got.get(key, 0.0) - want.get(key, 0.0)) < 1e-5, (x, y, key)


def test_derivative_at_identity_extended_case7():
    E7 = build_extended(7)
    pairs = [(lb.K, lb.A(1, 2)), (lb.K, lb.Q(2, 3)), (lb.K, lb.C(1, 2)),
             (lb.K, lb.T(1)), (lb.K, lb.L(1, 4)), (lb.A(1, 1), lb.Q(1, 2))]
    for x, y in pairs:
        got = commutator_coords(E7, x, y, extended_case7=True)
        want = {E7.labels[k]: float(c)
                for k, c in E7.bracket_basis(E7.index[x], E7.index[y]).items()}
        for key in set(k for k in got if k != "#k") | set(want):
            assert abs(got.get(key, 0.0) - want.get(key, 0.0)) < 1e-5, (x, y, key)
        assert abs(got.get("#k", 0.0)) < 1e-5


def test_log_coords_match_least_squares_projection():
    lpairs = [(m, n) for m in range(1, 4) for n in range(m + 1, 5)]
    jpairs = [(1, 2), (1, 3), (2, 3)]
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = random_element(rng, scale=0.05)
        got = log_coords(g)
        want_l = lstsq_project_real(g.Lam - np.eye(2), [sl2_generator(*p) for p in lpairs])
        want_j = lstsq_project_real(g.R - np.eye(2), [sl2_generator(*p) for p in jpairs])
        assert max(abs(got[lb.L(*p)] - w) for p, w in zip(lpairs, want_l)) <= 1e-15
        assert max(abs(got[lb.J(*p)] - w) for p, w in zip(jpairs, want_j)) <= 1e-15


def test_boost_section_examples_and_postcondition():
    m0 = 1.0
    assert np.abs(boost_section(np.array([0, 0, 0, m0]), m0) - np.eye(2)).max() == 0
    A = boost_section(np.array([0, 0, 0.75, 1.25]), m0)
    want = np.diag([math.sqrt(2), 1 / math.sqrt(2)])
    assert np.abs(A - want).max() < 1e-12
    rng = np.random.default_rng(15)
    origin = np.array([0.0, 0, 0, m0])
    for _ in range(100):
        xi = shell_point(rng.normal(0, 2, 3), m0)
        Ax = boost_section(xi, m0)
        assert np.abs(vector_rep(Ax) @ origin - xi).max() < 1e-10
        assert np.abs(Ax - Ax.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(Ax).min() > 0


def test_boost_section_rejects_off_shell():
    with pytest.raises(OffShellError):
        boost_section(np.array([1.0, 0, 0, 1.0]), 1.0)


def test_rotation_section_postcondition_and_singularity():
    lam = 2.0
    pole = np.array([0, 0, lam])
    assert np.abs(rotation_section(pole, lam) - np.eye(2)).max() == 0
    R = rotation_section(np.array([lam, 0, 0]), lam)
    assert np.abs(so3_rep(R) @ pole - np.array([lam, 0, 0])).max() < 1e-12
    rng = np.random.default_rng(16)
    done = 0
    while done < 100:
        v = rng.normal(0, 1, 3)
        if v[2] / np.linalg.norm(v) < -0.9:
            continue
        eta = sphere_point(v, lam)
        assert np.abs(so3_rep(rotation_section(eta, lam)) @ pole - eta).max() < 1e-10
        done += 1
    with pytest.raises(SectionSingularityError):
        rotation_section(np.array([0, 0, -lam]), lam)


def test_wigner_phase_trivial_and_rotation():
    m0 = lam = 1.0
    xi0 = np.array([0.0, 0, 0, m0])
    pole = np.array([0.0, 0, lam])
    eta = sphere_point([0.3, -0.2, 0.9], lam)
    xi = shell_point([0.4, 0.1, -0.3], m0)
    assert wigner_phase(np.eye(2, dtype=complex), xi, eta, m0, lam)[0] == pytest.approx(0.0)
    theta = 0.8
    Ldiag = np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])
    assert wigner_phase(Ldiag, xi0, pole, m0, lam)[0] == pytest.approx(theta)


def test_wigner_phase_additive_on_stabilizer():
    m0 = lam = 1.0
    xi0 = np.array([0.0, 0, 0, m0])
    pole = np.array([0.0, 0, lam])

    def rot(t):
        return np.diag([np.exp(1j * t / 2), np.exp(-1j * t / 2)])

    t1, t2 = 0.5, 0.9
    p1 = wigner_phase(rot(t1), xi0, pole, m0, lam)[0]
    p2 = wigner_phase(rot(t2), xi0, pole, m0, lam)[0]
    p12 = wigner_phase(rot(t1) @ rot(t2), xi0, pole, m0, lam)[0]
    assert p1 + p2 == pytest.approx(p12)


@pytest.mark.parametrize("section,wrong,match", [
    ("boost_section", lambda real: lambda xi, m0: real(xi, m0) @ np.diag([2.0, 0.5]),
     "not unitary"),
    ("rotation_section", lambda real: lambda eta, lam: np.eye(2, dtype=complex),
     "does not stabilize the pole"),
], ids=["boost", "rotation"])
def test_wigner_phase_refuses_inconsistent_sections(monkeypatch, section, wrong, match):
    """A boost section off by a non-unitary factor makes the Wigner element
    non-unitary; a rotation section that ignores eta leaves it off the pole's
    stabilizer.  Both raise instead of returning an angle."""
    monkeypatch.setattr(gl, section, wrong(getattr(gl, section)))
    Lam = expm2(0.4 * sl2_generator(1, 4) + 0.7 * sl2_generator(2, 3))
    xi = shell_point([0.4, 0.1, -0.3], 1.0)
    with pytest.raises(StabilizerError, match=match):
        wigner_phase(Lam, xi, sphere_point([0.3, -0.2, 0.9], 1.0), 1.0, 1.0)


def test_one_parameter_c_slot(G):
    """exp(0.3 X) of every abelian label X, the C slots through the theta-weighted
    chart included, has log coordinate exactly 0.3 at X and exactly 0 elsewhere."""
    abelian = [lab for lab in G.labels if lab.kind in ("T", "Tp", "C", "A", "Q")]
    assert len(abelian) == 42
    for X in abelian:
        g = one_parameter(X, 0.3)
        assert (g.c == g.c.T).all()
        coords = log_coords(g)
        assert len(coords) == 51
        assert {lab: v for lab, v in coords.items() if v != 0} == {X: 0.3}


def test_log_coords_invert_one_parameter_on_every_label():
    """log_coords(exp(s X)) is s on X and 0 on every other basis label: exactly
    for T, T', C, A and Q, and within s^2 for L and J."""
    s = 1e-4
    basis = lb.basis_labels()
    for X in basis:
        coords = log_coords(one_parameter(X, s))
        assert coords.keys() == set(basis)
        tol = s * s if X.kind in ("L", "J") else 0.0
        assert all(abs(v - (s if Y == X else 0.0)) <= tol for Y, v in coords.items()), X
