"""The four benchmark workloads: seeded inputs, tasks and reference checks.

A workload is a ``setup(seed)`` that builds every input before timing
starts, and a list of tasks.  A task calls the public ``newstein``
functions through their module attributes (so a traced run sees them) and
reports each certified result to ``check``.  Every task runs in order, in
one process, one after the other (a closed loop with a single client).

References are the cross-checked values of the README table (H^1(ad) 8,
H^2(ad) 2, H^2(triv) 1, planar 4) plus H^3(triv) 3, with exact and
modular rank required to agree.  Tolerances are those of acceptance
criteria 09-16.  They are passed in as a mapping so the harness self-test
can feed a wrong one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from newstein import algebras, cohomology, exactla, extensions, oscillator
from newstein import grouplaw as gl
from newstein import labels as lb

REFERENCES = {
    "h0_adjoint": 1,
    "h1_adjoint": 8,
    "h1_adjoint_reduction": 8,
    "h2_adjoint_reduction": 2,
    "h1_invariant_cocycles": 8,
    "h2_trivial": 1,
    "h2_trivial_planar": 4,
    "h3_trivial": 3,
    "h3_betti1": 2,
    "h3_betti2": 2,
    "sl2_adjoint_betti1": 0,
    "sl2_adjoint_betti2": 0,
    # canonical case -> class; the printed case-(8) matrix lands in case 4
    "canonical_class": {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 4, 9: 9},
    "group_law_tol": 1e-9,
    "structure_constant_tol": 1e-5,
    "homomorphism_tol": 1e-7,
    "generator_tol": 1e-5,
    "flagged_generators": ("L24",),
    "spectrum_tol": 1e-9,
    "vacuum_tol": 1e-12,
    "identity_tol": 1e-10,
    "w_period_tol": 1e-9,
    "w_rotation_tol": 1e-8,
    "evolution_tol": 1e-10,
}


def _interior(basis) -> tuple:
    idx = np.where(basis.interior)[0]
    return np.ix_(idx, idx)


# -- cohomology-adjoint ------------------------------------------------------


def setup_cohomology_adjoint(seed: int) -> SimpleNamespace:
    G = algebras.build_newstein()
    return SimpleNamespace(
        G=G,
        generators=[G.basis_element(lab) for lab in G.labels],
        primes=exactla.random_primes(3, seed=seed),
    )


def h0_adjoint(inp, ref, check):
    center = inp.G.centralizer(inp.generators)
    check("h0_adjoint", len(center) == ref["h0_adjoint"], len(center))
    trace = inp.G.trace_c()
    k0 = next(iter(trace.coeffs))
    sol = center[0]
    check("h0_adjoint.generator", sol == (sol.coeffs[k0] / trace.coeffs[k0]) * trace)


def h1_adjoint_direct(inp, ref, check):
    G = inp.G
    rep = cohomology.betti(G, cohomology.CoefficientModule.adjoint(G), 1,
                           method="modular", primes=list(inp.primes))
    check("h1_adjoint", rep.betti == ref["h1_adjoint"], rep.betti)
    check("h1_adjoint.primes", len(rep.primes) >= 3, rep.primes)


def h1_adjoint_reduction(inp, ref, check):
    b = cohomology.h1_via_reduction(inp.G).betti
    check("h1_adjoint_reduction", b == ref["h1_adjoint_reduction"], b)


def h2_adjoint_reduction(inp, ref, check):
    b = cohomology.h2_via_reduction(inp.G).betti
    check("h2_adjoint_reduction", b == ref["h2_adjoint_reduction"], b)


def h1_invariant_cocycles(inp, ref, check):
    n = len(cohomology.reduction_data(inp.G, 1).cocycles)
    check("h1_invariant_cocycles", n == ref["h1_invariant_cocycles"], n)


# -- cohomology-trivial ------------------------------------------------------


def _conjugates(rng: np.random.Generator, count: int) -> list:
    """Seeded integer conjugates P L P^-1 of the canonical matrices (not case 8)."""
    reps = extensions.canonical_matrices()
    out = []
    while len(out) < count:
        case = int(rng.integers(1, 10))
        if case == 8:
            continue
        (a, b), (c, d) = [[Fraction(int(rng.integers(-5, 6))) for _ in range(2)]
                          for _ in range(2)]
        det = a * d - b * c
        if det == 0:
            continue
        (w, x), (y, z) = reps[case].rows()
        m = [[a * w + b * y, a * x + b * z], [c * w + d * y, c * x + d * z]]
        out.append((case, extensions.ExtensionMatrix(
            (m[0][0] * d - m[0][1] * c) / det, (-m[0][0] * b + m[0][1] * a) / det,
            (m[1][0] * d - m[1][1] * c) / det, (-m[1][0] * b + m[1][1] * a) / det)))
    return out


def setup_cohomology_trivial(seed: int) -> SimpleNamespace:
    G = algebras.build_newstein()
    rng = np.random.default_rng(seed)
    return SimpleNamespace(
        G=G,
        G2=algebras.build_newstein2(),
        extended=[algebras.build_extended(case, base=G) for case in range(1, 10)],
        h3=algebras.heisenberg3(),
        sl2=algebras.sl2(),
        conjugates=_conjugates(rng, 1000),
        prime=exactla.random_primes(1, seed=seed)[0],
    )


def h2_trivial(inp, ref, check):
    b = cohomology.betti(inp.G, cohomology.CoefficientModule.trivial(), 2).betti
    check("h2_trivial", b == ref["h2_trivial"], b)


def h2_trivial_planar(inp, ref, check):
    b = cohomology.betti(inp.G2, cohomology.CoefficientModule.trivial(), 2).betti
    check("h2_trivial_planar", b == ref["h2_trivial_planar"], b)


def h3_trivial(inp, ref, check):
    """H^3(trivial): d o d check, then exact and mod-p rank of one build."""
    cx = cohomology.CochainComplex(inp.G, cohomology.CoefficientModule.trivial())
    bad = cx.dd_violations(2)
    check("h3_trivial.dd", not bad, bad[:3])
    # both differentials have the smaller dimension on the domain side,
    # which is the orientation betti() eliminates along
    d3, d2 = cx.d_matrix_by_domain(3), cx.d_matrix_by_domain(2)
    exact = cx.dim_c(3) - d3.rank_exact() - d2.rank_exact()
    modular = cx.dim_c(3) - d3.rank_mod_p(inp.prime) - d2.rank_mod_p(inp.prime)
    check("h3_trivial", exact == ref["h3_trivial"], exact)
    check("h3_trivial.modular", modular == exact, modular)


def jacobi(inp, ref, check):
    for alg in [inp.G] + inp.extended:
        bad = alg.jacobi_check()
        check(f"jacobi.{alg.name}", bad == [], bad[:3])


def classify_extensions(inp, ref, check):
    expected = ref["canonical_class"]
    for case, mat in extensions.canonical_matrices().items():
        got = extensions.classify(mat).case
        check(f"classify.canonical{case}", got == expected[case], got)
    defect = extensions.classify(extensions.ExtensionMatrix.from_rows(((1, 1), (0, 1))))
    check("classify.defective", defect.case == 8 and defect.note != "", defect.case)
    for case, mat in inp.conjugates:
        got = extensions.classify(mat).case
        check("classify.conjugate", got == expected[case], (case, got))


def small_algebra_oracles(inp, ref, check):
    trivial = cohomology.CoefficientModule.trivial()
    adjoint = cohomology.CoefficientModule.adjoint(inp.sl2)
    for name, alg, mod, k in (("h3_betti1", inp.h3, trivial, 1),
                              ("h3_betti2", inp.h3, trivial, 2),
                              ("sl2_adjoint_betti1", inp.sl2, adjoint, 1),
                              ("sl2_adjoint_betti2", inp.sl2, adjoint, 2)):
        b = cohomology.betti(alg, mod, k).betti
        check(name, b == ref[name], b)


# -- grouplaw-induced --------------------------------------------------------

# generator pairs of criterion 09; the second list is checked in the
# case-(7) extension, whose K generator only the extended law carries
_COMMUTATOR_PAIRS = (
    (lb.L(1, 2), lb.T(2)), (lb.L(1, 4), lb.T(4)), (lb.L(1, 2), lb.L(1, 3)),
    (lb.L(1, 4), lb.L(2, 4)), (lb.J(1, 2), lb.J(2, 3)), (lb.J(1, 2), lb.A(1, 3)),
    (lb.A(1, 1), lb.Q(1, 2)), (lb.A(2, 3), lb.Q(2, 3)), (lb.L(2, 4), lb.C(2, 2)),
    (lb.T(1), lb.Tp(1)), (lb.L(1, 3), lb.Tp(3)), (lb.C(1, 2), lb.A(1, 1)),
)
_EXTENDED_PAIRS = ((lb.K, lb.A(1, 2)), (lb.K, lb.Q(2, 3)), (lb.K, lb.C(1, 2)),
                   (lb.K, lb.T(1)), (lb.A(1, 1), lb.Q(1, 2)))
_ORACLE_LABELS = ([lb.T(m) for m in range(1, 5)] + [lb.Tp(m) for m in range(1, 5)]
                  + [lb.C(m, n) for m in range(1, 5) for n in range(m, 5)]
                  + [lb.A(i, m) for i in range(1, 4) for m in range(1, 5)]
                  + [lb.Q(i, m) for i in range(1, 4) for m in range(1, 5)]
                  + [lb.J(i, j) for i in range(1, 3) for j in range(i + 1, 4)]
                  + [lb.L(m, n) for m in range(1, 4) for n in range(m + 1, 5)])


def setup_grouplaw_induced(seed: int) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(150):
        plain = tuple(gl.random_element(rng) for _ in range(3))
        extended = tuple(gl.ExtendedGroupElement(float(rng.normal()), gl.random_element(rng))
                         for _ in range(3))
        triples.append((plain, extended))
    # criterion 14 parameters; elements, points and functions are seeded
    params = oscillator.RepParams(m0=1.2, alpha=0.9, lam=0.8, ell=-1.0, s=0.5, j=0.0)
    oracle_params = oscillator.RepParams(m0=1.3, alpha=0.7, lam=1.1, s=0.5, j=0.0)
    others = [lab for lab in _ORACLE_LABELS if lab != lb.L(2, 4)]
    picks = rng.choice(len(others), size=3, replace=False)
    return SimpleNamespace(
        G=algebras.build_newstein(),
        E7=algebras.build_extended(7),
        triples=triples,
        params=params,
        pairs=[(gl.random_element(rng, 0.4), gl.random_element(rng, 0.4)) for _ in range(4)],
        points=oscillator.random_sample_points(rng, 15, params),
        function=oscillator.gaussian_polynomial_test_functions(rng, 1, dim=1)[0],
        oracle_params=oracle_params,
        oracle_labels=[lb.L(2, 4)] + [others[int(i)] for i in picks],
        oracle_points=oscillator.random_sample_points(rng, 6, oracle_params),
        oracle_functions=oscillator.gaussian_polynomial_test_functions(rng, 3, 1),
    )


def group_laws(inp, ref, check):
    tol = ref["group_law_tol"]
    identity = gl.identity()
    dist = gl.element_distance
    for (g1, g2, g3), (e1, e2, e3) in inp.triples:
        assoc = dist(gl.compose(gl.compose(g1, g2), g3), gl.compose(g1, gl.compose(g2, g3)))
        check("group.associativity", assoc <= tol, assoc)
        inv = dist(gl.compose(g1, gl.inverse(g1)), identity)
        check("group.inverse", inv <= tol, inv)
        lhs = gl.compose_extended(gl.compose_extended(e1, e2), e3)
        rhs = gl.compose_extended(e1, gl.compose_extended(e2, e3))
        ext = max(abs(lhs.k - rhs.k), dist(lhs.g, rhs.g))
        check("group.extended_associativity", ext <= tol, ext)
        einv = gl.compose_extended(e1, gl.inverse_extended(e1))
        ext_inv = max(abs(einv.k), dist(einv.g, identity))
        check("group.extended_inverse", ext_inv <= tol, ext_inv)


def _coords_deviation(alg, got: dict, x, y) -> float:
    want = {alg.labels[k]: float(c)
            for k, c in alg.bracket_basis(alg.index[x], alg.index[y]).items()}
    keys = (set(got) - {"#k"}) | set(want)
    return max([abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys] + [abs(got.get("#k", 0.0))])


def commutator_structure_constants(inp, ref, check):
    tol = ref["structure_constant_tol"]
    for x, y in _COMMUTATOR_PAIRS:
        dev = _coords_deviation(inp.G, gl.commutator_coords(inp.G, x, y), x, y)
        check(f"commutator.{x}.{y}", dev <= tol, dev)
    for x, y in _EXTENDED_PAIRS:
        got = gl.commutator_coords(inp.E7, x, y, extended_case7=True)
        dev = _coords_deviation(inp.E7, got, x, y)
        check(f"commutator7.{x}.{y}", dev <= tol, dev)


def induced_homomorphism(inp, ref, check):
    tol = ref["homomorphism_tol"]
    p, f = inp.params, inp.function.f
    for g1, g2 in inp.pairs:
        lhs = oscillator.iur_apply(g1, oscillator.iur_apply(g2, f, p), p)
        rhs = oscillator.iur_apply(gl.compose(g1, g2), f, p)
        for pt in inp.points:
            try:
                a, b = lhs(pt.xi, pt.eta, pt.z), rhs(pt.xi, pt.eta, pt.z)
            except gl.SectionSingularityError:
                # criterion 14 skips points whose transported eta has no
                # continuous section; they are not attempted checks
                continue
            dev = float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))
            check("homomorphism", dev <= tol, dev)


def generator_oracles(inp, ref, check):
    tol = ref["generator_tol"]
    for X in inp.oracle_labels:
        rep = oscillator.generator_oracle(X, inp.oracle_params, points=inp.oracle_points,
                                          functions=inp.oracle_functions)
        if str(X) in ref["flagged_generators"]:
            ok = rep["printed"] > tol and rep["rederived"] <= tol
        else:
            ok = rep["printed"] <= tol
        check(f"generator.{X}", ok, rep)


# -- oscillator-spectrum -----------------------------------------------------


def setup_oscillator_spectrum(seed: int) -> SimpleNamespace:
    rng = np.random.default_rng(seed)

    def params(**fixed):
        return oscillator.RepParams(m0=float(rng.uniform(0.5, 3.0)),
                                    alpha=float(rng.uniform(0.3, 2.0)),
                                    ell=float(rng.uniform(-4.0, 4.0)), **fixed)

    basis = oscillator.FockBasis(12)
    psi = oscillator.WaveFunction(rng.normal(size=basis.dim)
                                  + 1j * rng.normal(size=basis.dim), basis).normalized()
    identity_params = params()
    return SimpleNamespace(
        basis=basis,
        # cutoff 16 (dimension 969): assembling the Fock matrices dominates
        large=oscillator.FockBasis(16),
        spectrum_params=[params() for _ in range(5)],
        large_params=params(),
        evolve_params=params(),
        psi=psi,
        taus=(0.5, 2.0, 5.0, 10.0),
        identity_params=identity_params,
        xi=gl.shell_point(rng.normal(0.0, 0.6, 3), identity_params.m0),
        k=float(rng.uniform(0.1, 3.0)),
    )


def _levels_ok(rows, ell: float, levels: int, tol: float) -> bool:
    return all(abs(rows[n][0] - (n + 1.5 + ell / 2)) <= tol
               and rows[n][1] == (n + 1) * (n + 2) // 2 for n in range(levels))


def mass_spectrum(inp, ref, check):
    tol = ref["spectrum_tol"]
    for p in inp.spectrum_params:
        rows = oscillator.spectrum(p, inp.basis)
        check("spectrum.cutoff12", _levels_ok(rows, p.ell, inp.basis.cutoff - 1, tol), rows[:2])
    ground = oscillator.spectrum(oscillator.RepParams(ell=-3.0), inp.basis)[0][0]
    check("spectrum.vacuum", abs(ground) <= ref["vacuum_tol"], ground)


def large_spectrum(inp, ref, check):
    p = inp.large_params
    rows = oscillator.spectrum(p, inp.large)
    check("spectrum.cutoff16", _levels_ok(rows, p.ell, inp.large.cutoff - 1,
                                          ref["spectrum_tol"]), rows[:2])


def evolution(inp, ref, check):
    tol = ref["evolution_tol"]
    p, psi = inp.evolve_params, inp.psi
    H = oscillator.hamiltonian_K(p, inp.basis).matrix
    e0 = (psi.coeffs.conj() @ H @ psi.coeffs).real
    for tau in inp.taus:
        out = oscillator.evolve(psi, tau, p, inp.basis)
        check("evolve.norm", abs(out.norm() - 1.0) <= tol, out.norm())
        e = (out.coeffs.conj() @ H @ out.coeffs).real
        check("evolve.energy", abs(e - e0) <= tol, e - e0)


def operator_identities(inp, ref, check):
    tol = ref["identity_tol"]
    p, basis, ix = inp.identity_params, inp.basis, _interior(inp.basis)
    MN = oscillator.casimir_MN(p, inp.xi, basis).matrix
    MA = oscillator.casimir_MA(p, inp.xi, basis).matrix
    H = oscillator.hamiltonian_K(p, basis).matrix
    dev = np.abs((MN - oscillator.minus_laplacian(p, basis))[ix]).max()
    check("casimir_MN", dev <= tol, dev)
    dev = np.abs((MA - oscillator.z_squared_scaled(p, basis))[ix]).max()
    check("casimir_MA", dev <= tol, dev)
    B = (MN + MA) / (2 * p.alpha) + p.ell / 2 * np.eye(basis.dim)
    dev = np.abs((B - H)[ix]).max()
    check("casimir_sum", dev <= tol, dev)


def w_operator(inp, ref, check):
    p, basis, ix, k = inp.identity_params, inp.basis, _interior(inp.basis), inp.k
    W = oscillator.W_operator(2 * math.pi, p, basis).matrix
    dev = np.abs((W + np.eye(basis.dim))[ix]).max()
    check("w_operator.period", dev <= ref["w_period_tol"], dev)
    Wk = oscillator.W_operator(k, p, basis).matrix
    for i, mu in ((1, 1), (3, 4)):
        A = oscillator.internal_generator(lb.A(i, mu), inp.xi, p, basis).matrix
        Q = oscillator.internal_generator(lb.Q(i, mu), inp.xi, p, basis).matrix
        rotA = Wk @ A @ Wk.conj().T - (math.cos(k) * A - math.sin(k) * Q)
        rotQ = Wk @ Q @ Wk.conj().T - (math.cos(k) * Q + math.sin(k) * A)
        dev = max(np.abs(rotA[ix]).max(), np.abs(rotQ[ix]).max())
        check("w_operator.rotation", dev <= ref["w_rotation_tol"], dev)


WORKLOADS = {
    "cohomology-adjoint": (setup_cohomology_adjoint, [
        h0_adjoint, h1_adjoint_direct, h1_adjoint_reduction, h2_adjoint_reduction,
        h1_invariant_cocycles]),
    "cohomology-trivial": (setup_cohomology_trivial, [
        h2_trivial, h2_trivial_planar, h3_trivial, jacobi, classify_extensions,
        small_algebra_oracles]),
    "grouplaw-induced": (setup_grouplaw_induced, [
        group_laws, commutator_structure_constants, induced_homomorphism,
        generator_oracles]),
    "oscillator-spectrum": (setup_oscillator_spectrum, [
        mass_spectrum, large_spectrum, evolution, operator_identities, w_operator]),
}
