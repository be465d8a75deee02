"""Cohomology engine: small-algebra oracles, reductions, and the main values.

Where the computed dimensions disagree with the source material's claims,
the tests freeze the computed values; the claim-by-claim comparison lives in
the CLI's verification report and the acceptance suite.
"""

from fractions import Fraction

import pytest

from newstein import labels as lb
from newstein.algebras import (beta_cocycle, build_newstein, build_newstein2,
                               heisenberg3, sl2)
from newstein.cohomology import (CochainComplex, CoefficientModule, CohomologyReport,
                                 betti, coboundary_matrix, h1_via_reduction,
                                 h2_via_reduction, invariant_cochains,
                                 six_parameter_cochain_family, reduction_data)
from newstein.exactla import Echelon
from newstein.liealg import LieAlgebra

from oracles import brute_betti, brute_d_matrix, einstein_algebra, newton_algebra

F = Fraction


@pytest.fixture(scope="module")
def G():
    return build_newstein()


# -- small-algebra oracles (independent dense brute force) ----------------


@pytest.mark.parametrize("alg_name,module,k,expected", [
    ("h3", "trivial", 0, 1),
    ("h3", "trivial", 1, 2),
    ("h3", "trivial", 2, 2),
    ("sl2", "adjoint", 0, 0),
    ("sl2", "adjoint", 1, 0),
    ("sl2", "adjoint", 2, 0),
])
def test_small_algebra_betti_and_oracle(alg_name, module, k, expected):
    alg = heisenberg3() if alg_name == "h3" else sl2()
    coeffs = (CoefficientModule.trivial() if module == "trivial"
              else CoefficientModule.adjoint(alg))
    assert brute_betti(alg, k, module) == expected
    assert betti(alg, coeffs, k, method="exact").betti == expected
    assert betti(alg, coeffs, k, method="modular").betti == expected


def test_coboundary_matrix_matches_brute_force():
    for alg in (heisenberg3(), sl2()):
        for module in ("trivial", "adjoint"):
            coeffs = (CoefficientModule.trivial() if module == "trivial"
                      else CoefficientModule.adjoint(alg))
            for k in (0, 1, 2):
                mine = coboundary_matrix(alg, coeffs, k)
                brute = brute_d_matrix(alg, k, module)
                dense = [[F(0)] * mine.ncols for _ in range(mine.nrows)]
                transposed: dict = {}
                for r, row in mine.rows.items():
                    for c, v in row.items():
                        dense[r][c] = v
                        transposed.setdefault(c, {})[r] = v
                assert dense == brute
                by_domain = CochainComplex(alg, coeffs).d_matrix_by_domain(k)
                assert (by_domain.nrows, by_domain.ncols) == (mine.ncols, mine.nrows)
                assert by_domain.rows == transposed


def test_h3_rank_d1_is_one():
    h3 = heisenberg3()
    assert coboundary_matrix(h3, CoefficientModule.trivial(), 1).rank_exact() == 1


def test_abelian_differential_vanishes():
    abelian = LieAlgebra("r3", ["x", "y", "z"], {})
    for k in (0, 1, 2):
        assert coboundary_matrix(abelian, CoefficientModule.trivial(), k).nnz() == 0


def test_dd_is_zero_on_main_algebra(G):
    cx = CochainComplex(G, CoefficientModule.adjoint(G))
    assert cx.dd_violations(0) == []


def test_trivial_degree_general_properties(G):
    assert betti(G, CoefficientModule.trivial(), 0).betti == 1
    # the algebra is perfect, so first trivial cohomology vanishes
    assert betti(G, CoefficientModule.trivial(), 1).betti == 0
    h3 = heisenberg3()
    assert betti(h3, CoefficientModule.trivial(), 1).betti == 2  # dim h3/[h3,h3]


def test_explicit_module_validation():
    alg = sl2()
    good = [alg.ad_columns(i) for i in range(alg.dim)]
    CoefficientModule.explicit(alg, good)
    bad = [dict(cols) for cols in good]
    bad[0] = {0: {1: F(1)}}
    with pytest.raises(ValueError):
        CoefficientModule.explicit(alg, bad)


# -- positive controls against the engine at scale ------------------------


def test_einstein_algebra_exponent_space_is_one_dimensional():
    E = einstein_algebra()
    assert E.jacobi_check() == []
    assert betti(E, CoefficientModule.trivial(), 2, method="exact").betti == 1


def test_newton_algebra_exponent_space_is_one_dimensional():
    N = newton_algebra()
    assert N.jacobi_check() == []
    assert betti(N, CoefficientModule.trivial(), 2, method="exact").betti == 1


# -- the main computed dimensions ------------------------------------------


def test_h0_adjoint_is_one(G):
    r = betti(G, CoefficientModule.adjoint(G), 0, method="exact")
    assert r.betti == 1


def test_h1_adjoint_reduction_and_direct_agree(G):
    red = h1_via_reduction(G)
    direct = betti(G, CoefficientModule.adjoint(G), 1, method="modular", check_dd=False)
    assert red.betti == direct.betti == 8
    assert len(direct.primes) >= 3


def test_h1_adjoint_exceeds_printed_family_by_translation_mixers(G):
    """The printed six-parameter family misses f(T) = T' and f(T') = T."""
    data = reduction_data(G, 1)
    assert len(data.cocycles) == 8
    fam = six_parameter_cochain_family(G)
    ech = Echelon()
    for vec in data.cocycles:
        ech.insert(dict(vec))
    for vec in fam:
        assert not any(Echelon._is_real(k) for k in ech.reduce(dict(vec)))
    # two independent directions beyond the family: the T <-> T' mixers
    fam_ech = Echelon()
    for vec in fam:
        fam_ech.insert(dict(vec))
    mixer_tp = {((G.index[lb.T(m)],), G.index[lb.Tp(m)]): F(1) for m in range(1, 5)}
    mixer_pt = {((G.index[lb.Tp(m)],), G.index[lb.T(m)]): F(1) for m in range(1, 5)}
    for mixer in (mixer_tp, mixer_pt):
        assert any(Echelon._is_real(k) for k in fam_ech.reduce(dict(mixer)))
        assert not any(Echelon._is_real(k) for k in ech.reduce(dict(mixer)))


def test_mixer_is_a_derivation_not_inner(G):
    """f(T_mu) = T'_mu extends to an outer derivation of the whole algebra."""
    phi = {G.index[lb.T(m)]: {G.index[lb.Tp(m)]: F(1)} for m in range(1, 5)}

    def apply(vec):
        out = {}
        for k, c in vec.items():
            for m, d in phi.get(k, {}).items():
                out[m] = out.get(m, 0) + c * d
        return {k: v for k, v in out.items() if v}

    for i in range(G.dim):
        for j in range(i + 1, G.dim):
            lhs = apply(G.bracket_basis(i, j))
            rhs = G.bracket_vec(apply({i: F(1)}), {j: F(1)})
            for k, v in G.bracket_vec({i: F(1)}, apply({j: F(1)})).items():
                rhs[k] = rhs.get(k, 0) + v
            assert lhs == {k: v for k, v in rhs.items() if v}
    # not inner: ad(v) maps T into the T block for every v
    for v in range(G.dim):
        img = G.bracket_basis(G.index[lb.T(1)], v)
        assert not any(G.labels[k].kind == "Tp" for k in img)


@pytest.fixture(scope="module")
def h2_data(G):
    return reduction_data(G, 2)


def test_h2_adjoint_reduction_value_and_classes(G, h2_data):
    data = h2_data
    assert data.betti == 2
    assert len(data.residual_classes) == 2
    # both classes live on (T, T') pairs with values in the C block
    for z in data.residual_classes:
        for (S, m), _ in z.items():
            kinds = sorted(G.labels[s].kind for s in S)
            assert kinds == ["T", "Tp"]
            assert G.labels[m].kind == "C"


def test_h2_class_count_does_not_depend_on_cocycle_basis(G, h2_data, monkeypatch):
    """A coboundary b replaced by b + c (c a class) still leaves two classes."""
    from newstein import cohomology

    inv, cocycles = h2_data.invariant, h2_data.cocycles
    classes = h2_data.residual_classes
    b = next(z for z in cocycles if all(z is not c for c in classes))
    mixed_vec = dict(b)
    for key, v in classes[0].items():
        mixed_vec[key] = mixed_vec.get(key, 0) + v
    mixed = [{k: v for k, v in mixed_vec.items() if v} if z is b else z for z in cocycles]
    monkeypatch.setattr(cohomology, "invariant_cocycles", lambda alg, k: (inv, mixed))
    data = reduction_data(G, 2)
    assert data.betti == 2 and data.boundary_dim == 2
    assert all(any(z is m for m in mixed) for z in data.residual_classes)


def test_h2_deformations_integrate_exactly(G):
    """First-order deformation directions found in degree two integrate.

    Turning on [T_mu, T'_nu] = C_{mu nu} (or its metric trace variant)
    produces honest Lie algebras, so the algebra is not rigid.
    """
    from newstein.algebras import NewSteinAlgebra

    trace = G.trace_c().coeffs
    for variant in ("full", "trace"):
        cons = {key: dict(v) for key, v in G.constants.items()}
        for m in range(1, 5):
            for n in range(1, 5):
                i, j = G.index[lb.T(m)], G.index[lb.Tp(n)]
                lo, hi = min(i, j), max(i, j)
                sgn = 1 if i < j else -1
                if variant == "full":
                    entry = {G.index[lb.C(min(m, n), max(m, n))]: F(sgn)}
                elif m == n:
                    gmm = 1 if m < 4 else -1
                    entry = {t: F(sgn * gmm) * c for t, c in trace.items()}
                else:
                    continue
                row = cons.setdefault((lo, hi), {})
                for t, c in entry.items():
                    row[t] = row.get(t, 0) + c
        deformed = NewSteinAlgebra("deformed", list(G.labels), cons)
        assert deformed.jacobi_check() == []


def test_h1_reduction_sensitivity_negative_control(G):
    """Changing the structure constants changes the computed dimension.

    A flipped single constant breaks the Jacobi identity, so the control is
    the nearest honest algebra instead: switching on [T, T'] = C lowers the
    first cohomology from 8 to 7 (one mixer becomes inner-like cohomologous
    to zero through the new bracket).
    """
    from newstein.algebras import NewSteinAlgebra

    cons = {key: dict(v) for key, v in G.constants.items()}
    for m in range(1, 5):
        for n in range(1, 5):
            i, j = G.index[lb.T(m)], G.index[lb.Tp(n)]
            lo, hi = min(i, j), max(i, j)
            sgn = 1 if i < j else -1
            cons.setdefault((lo, hi), {})[G.index[lb.C(min(m, n), max(m, n))]] = F(sgn)
    deformed = NewSteinAlgebra("deformed", list(G.labels), cons)
    assert deformed.jacobi_check() == []
    red = h1_via_reduction(deformed).betti
    direct = betti(deformed, CoefficientModule.adjoint(deformed), 1,
                   method="modular", check_dd=False).betti
    assert red == direct == 7
    assert h1_via_reduction(G).betti == 8


def test_invariant_two_coboundary_family_forms(G):
    """The invariant two-coboundaries realize exactly the displayed family.

    d of the A-identity cochain gives g(A_{i mu}, Q_{j nu}) = d_ij C_{mu nu};
    d of C_{mu nu} -> -g_{mu nu} tr C gives the metric-trace variant; and
    the two coboundaries vanish on every other argument pair.
    """
    from newstein.cohomology import _analytic_preimages, _ideal_complex
    from newstein.labels import metric

    cx = _ideal_complex(G)
    phi_a, phi_b = _analytic_preimages(G)
    trace = G.trace_c().coeffs
    want_a, want_b = {}, {}
    for i in range(1, 4):
        for m in range(1, 5):
            for n in range(1, 5):
                a, q = G.index[lb.A(i, m)], G.index[lb.Q(i, n)]
                S, sgn = ((a, q), 1) if a < q else ((q, a), -1)
                want_a[(S, G.index[lb.C(min(m, n), max(m, n))])] = F(sgn)
                g = metric(m, n)
                if g:
                    for t, c in trace.items():
                        key = (S, t)
                        want_b[key] = want_b.get(key, 0) + sgn * g * c
    assert cx.d_apply(phi_a) == want_a
    assert cx.d_apply(phi_b) == {k: v for k, v in want_b.items() if v}


def test_h2_trivial_is_one_and_spanned_by_beta(G):
    r = betti(G, CoefficientModule.trivial(), 2, method="exact")
    assert r.betti == 1
    rm = betti(G, CoefficientModule.trivial(), 2, method="modular")
    assert rm.betti == 1
    # the surviving class is the t/t' pairing cocycle: a cocycle, and no
    # coboundary has support on (T, T') pairs
    w = beta_cocycle(G)
    assert w.cocycle_violations() == []
    for (i, j) in w.entries:
        assert not G.bracket_basis(i, j)


def test_h2_trivial_planar_variant_is_four():
    G2 = build_newstein2()
    r = betti(G2, CoefficientModule.trivial(), 2, method="exact")
    assert r.betti == 4


def test_planar_extra_cocycles_are_the_epsilon_pairings():
    """Beyond the t/t' exponent, the planar variant has three epsilon forms."""
    G2 = build_newstein2()
    cx = CochainComplex(G2, CoefficientModule.trivial())

    def eps_form(kind_a, kind_b):
        # w(X_{i mu}, Y_{j nu}) = eps_{ij} g_{mu nu}
        vec = {}
        pairs = [(1, 2, 1)] if kind_a == kind_b else [(1, 2, 1), (2, 1, -1)]
        for i, j, eps in pairs:
            for m in range(1, 5):
                gmm = 1 if m < 4 else -1
                a = G2.index[lb.BasisLabel(kind_a, (i, m))]
                b = G2.index[lb.BasisLabel(kind_b, (j, m))]
                S, sgn = ((a, b), 1) if a < b else ((b, a), -1)
                vec[(S, 0)] = vec.get((S, 0), 0) + F(eps * sgn * gmm)
        return vec

    for kinds in (("A", "Q"), ("A", "A"), ("Q", "Q")):
        vec = eps_form(*kinds)
        assert not cx.d_apply(vec)
        # not a coboundary: reduce against all degree-1 coboundaries
        ech = Echelon()
        for S in cx.wedges(1):
            col = cx.d_basis(S, 0)
            if col:
                ech.insert(col)
        assert any(Echelon._is_real(k) for k in ech.reduce(dict(vec)))


def test_invariant_cochains_under_full_vs_levi(G):
    strict = invariant_cochains(G, 1, under="full")
    levi = invariant_cochains(G, 1, under="levi")
    assert strict.dim == 5
    assert levi.dim == 10
    ech = Echelon()
    for vec in levi.basis:
        ech.insert(dict(vec))
    for vec in strict.basis:
        assert not any(Echelon._is_real(k) for k in ech.reduce(dict(vec)))


def test_invariant_one_cocycles_with_zero_translation_parts_are_derivations(G):
    """Killing the four translation parameters leaves the extension family."""
    data = reduction_data(G, 1)
    tt = [i for i in G.ideal_indices if G.labels[i].kind in ("T", "Tp")]
    constrained = []
    for vec in data.cocycles:
        if all(not any(S == (t,) for t in tt) for (S, m) in vec):
            constrained.append(vec)
    # project: solve for combinations vanishing on T and T' arguments
    from newstein.exactla import kernel_basis

    projections = []
    for vec in data.cocycles:
        proj = {key: v for key, v in vec.items() if key[0][0] in tt}
        projections.append(proj)
    combos = kernel_basis(projections)
    assert len(combos) == 4
    from newstein.extensions import ExtensionMatrix, derivation_from_matrix, leibniz_violations

    for combo in combos:
        merged: dict = {}
        for i, c in combo.items():
            for key, v in data.cocycles[i].items():
                merged[key] = merged.get(key, 0) + c * v
        merged = {k: v for k, v in merged.items() if v}
        # read the plane matrix off the (A_11, Q_11) values and rebuild
        a11, q11 = G.index[lb.A(1, 1)], G.index[lb.Q(1, 1)]
        L = ExtensionMatrix(
            beta=merged.get(((a11,), a11), F(0)),
            beta_p=merged.get(((q11,), a11), F(0)),
            gamma=merged.get(((a11,), q11), F(0)),
            gamma_p=merged.get(((q11,), q11), F(0)),
        )
        phi = derivation_from_matrix(L, G)
        rebuilt = {((p,), m): c for p, cols in phi.items() for m, c in cols.items()}
        assert rebuilt == merged
        assert leibniz_violations(G, phi) == []


def test_h2_reduction_agrees_with_direct_on_midsize_subalgebra():
    """Levi-invariant reduction equals the direct rank computation.

    Cross-validation at a size where the direct second-degree adjoint
    computation is still affordable: the L + T + T' + C subalgebra.
    """
    from newstein.algebras import NewSteinAlgebra

    G = build_newstein()
    keep = [i for i, lab in enumerate(G.labels)
            if lab.kind in ("L", "T", "Tp", "C")]
    pos = {old: new for new, old in enumerate(keep)}
    constants = {}
    for (i, j), vec in G.constants.items():
        if i in pos and j in pos:
            constants[(pos[i], pos[j])] = {pos[t]: c for t, c in vec.items()}
    sub = NewSteinAlgebra("einstein-c", [G.labels[i] for i in keep], constants)
    assert sub.jacobi_check() == []
    red = h2_via_reduction(sub)
    direct = betti(sub, CoefficientModule.adjoint(sub), 2,
                   method="modular", check_dd=False)
    assert red.betti == direct.betti


def test_modular_disagreement_aborts():
    """Persistent rank disagreement across primes raises, never silently."""
    from newstein.cohomology import _unanimous_rank

    class Flaky:
        def __init__(self):
            self.calls = 0

        def rank_mod_p(self, p):
            self.calls += 1
            return self.calls % 2

    with pytest.raises(ArithmeticError):
        _unanimous_rank(Flaky(), [1048583, 1048589, 1048601])


def test_modular_unlucky_prime_is_replaced():
    """A prime dividing a pivot undershoots once; a fresh prime replaces it."""
    from newstein.cohomology import _unanimous_rank
    from newstein.exactla import SparseExactMatrix

    m = SparseExactMatrix(1, 1)
    m.add(0, 0, F(7))
    rank, primes = _unanimous_rank(m, [7, 5, 11])
    assert rank == 1
    assert len(primes) == 3 and len(set(primes)) == 3 and 7 not in primes


class _CountingRanks:
    """Rank 1 for every prime except ``low``; records each prime asked."""

    def __init__(self, low=None):
        self.low = low
        self.asked = []

    def rank_mod_p(self, p):
        self.asked.append(p)
        return 0 if p == self.low else 1


def test_modular_unanimous_first_round_makes_three_calls():
    from newstein.cohomology import _unanimous_rank

    stub = _CountingRanks()
    primes = [1048583, 1048589, 1048601]
    assert _unanimous_rank(stub, primes) == (1, primes)
    assert stub.asked == primes


def test_modular_replacement_never_redraws_a_tried_prime():
    """The dissenter is the first prime the replacement draw yields; it is skipped."""
    from newstein.cohomology import _unanimous_rank
    from newstein.exactla import random_primes

    last = 1048601
    dissenter = random_primes(1, seed=last)[0]
    stub = _CountingRanks(low=dissenter)
    rank, primes = _unanimous_rank(stub, [dissenter, 1048583, last])
    assert rank == 1
    assert len(primes) == 3 and len(set(primes)) == 3 and dissenter not in primes
    assert len(stub.asked) == len(set(stub.asked)) == 4


def test_modular_rejects_repeated_primes():
    p = 1048583
    with pytest.raises(ValueError):
        betti(heisenberg3(), CoefficientModule.trivial(), 1, method="modular",
              primes=[p, p, p])
    with pytest.raises(ValueError):
        betti(heisenberg3(), CoefficientModule.trivial(), 1, method="modular",
              primes=[p, 1048589])


def test_modular_report_carries_primes_and_note(G):
    r = betti(G, CoefficientModule.trivial(), 2, method="modular")
    assert len(r.primes) >= 3
    assert "upper-bound" in r.notes
    assert isinstance(r.as_dict(), dict)


def test_report_shape(G):
    r = betti(G, CoefficientModule.trivial(), 0)
    assert isinstance(r, CohomologyReport)
    d = r.as_dict()
    assert d["betti"] == 1 and d["degree"] == 0 and d["method"] == "exact"


def test_differential_matrices_reproducible_bit_exactly(G):
    """Fixed basis order makes every matrix reproducible entry for entry."""
    import hashlib

    mat = coboundary_matrix(G, CoefficientModule.trivial(), 2)
    blob = ";".join(f"{r},{c},{mat.rows[r][c]}"
                    for r in sorted(mat.rows) for c in sorted(mat.rows[r]))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    # golden value: a change of basis order, sign convention or entry
    # arithmetic shows up here across versions, not just within one process
    assert digest == "2b02b51d7c84ac5e53ff85e40eb6974c8efe82c50c8df2de97719b5896eeef3b"
    again = coboundary_matrix(build_newstein(), CoefficientModule.trivial(), 2)
    blob2 = ";".join(f"{r},{c},{again.rows[r][c]}"
                     for r in sorted(again.rows) for c in sorted(again.rows[r]))
    assert hashlib.sha256(blob2.encode()).hexdigest() == digest
    assert mat.nnz() == again.nnz()


def test_degree_cap_and_bad_method(G):
    with pytest.raises(ValueError):
        betti(G, CoefficientModule.trivial(), 4)
    with pytest.raises(ValueError):
        betti(heisenberg3(), CoefficientModule.trivial(), 1, method="float")
    # small algebras are not capped
    assert betti(heisenberg3(), CoefficientModule.trivial(), 3).betti == 1
