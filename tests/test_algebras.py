"""Constructors: the 51-dim algebra, its extensions, the planar variant."""

from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from newstein import labels as lb
from newstein.algebras import (beta_cocycle, bracket_of_labels, build_extended, build_newstein,
                               build_newstein2, heisenberg3, sl2)
from newstein.cohomology import CochainComplex, CoefficientModule
from newstein.extensions import (ExtensionClass, ExtensionMatrix, InvalidExtensionParameter,
                                 canonical_matrices)
from newstein.liealg import LieAlgebra

from oracles import (dense_jacobi_check, dense_rank, einstein_algebra, levi_rescaled, rebased,
                     sl2_on_irreducible)

F = Fraction


@pytest.fixture(scope="module")
def G():
    return build_newstein()


def test_dimension_and_label_order(G):
    assert G.dim == 51
    kinds = [lab.kind for lab in G.labels]
    blocks = [("L", 6), ("T", 4), ("Tp", 4), ("C", 10), ("A", 12), ("Q", 12), ("J", 3)]
    pos = 0
    for kind, size in blocks:
        assert kinds[pos:pos + size] == [kind] * size
        pos += size


def test_jacobi_zero_violations(G):
    assert G.jacobi_check() == []


def test_ideal_is_an_ideal(G):
    ideal = set(G.ideal_indices)
    for i in range(G.dim):
        for j in ideal:
            for k in G.bracket_basis(i, j):
                assert k in ideal


def test_nilpotent_part_is_class_two(G):
    nil = [i for i, lab in enumerate(G.labels) if lab.kind in ("A", "Q", "C")]
    for i in nil:
        for j in nil:
            inner = G.bracket_basis(i, j)
            for m in inner:
                assert G.labels[m].kind == "C"
                for k in nil:
                    assert not G.bracket_basis(m, k)


def test_levi_part_closes_and_factors_commute(G):
    levi = set(G.levi_indices)
    for i in levi:
        for j in levi:
            for k in G.bracket_basis(i, j):
                assert k in levi
    for i in levi:
        for j in levi:
            if G.labels[i].kind == "L" and G.labels[j].kind == "J":
                assert not G.bracket_basis(i, j)


_RADICAL = {"T", "Tp", "C", "A", "Q"}
# builder, then the kinds of the Levi and radical positions as the L/J label
# rule gave them (a plain label is its own kind)
_SPLITS = {
    "newstein": (build_newstein, {"L", "J"}, _RADICAL),
    "newstein2": (build_newstein2, {"L"}, _RADICAL | {"J"}),
    **{f"newstein-ext:{c}": (partial(build_extended, c), {"L", "J"}, _RADICAL | {"K"})
       for c in range(1, 10)},
    "levi-rescaled": (lambda: levi_rescaled(build_newstein()), {"L", "J"}, _RADICAL),
    # e_T1 -> e_T1 + e_T2 (positions 6 and 7)
    "sheared": (lambda: rebased(build_newstein(), "sheared", 6, 7), {"L", "J"}, _RADICAL),
    "einstein-c": (partial(einstein_algebra, with_c=True), {"L"}, {"T", "Tp", "C"}),
    **{f"sl2-V{n}": (partial(sl2_on_irreducible, n), {"h", "e", "f"},
                     {f"v{i}" for i in range(n + 1)}) for n in range(1, 6)},
    "h3": (heisenberg3, set(), {"p", "q", "z"}),
    "sl2": (sl2, {"h", "e", "f"}, set()),
}


@pytest.mark.parametrize("name", _SPLITS)
def test_levi_factor_is_perfect_and_radical_is_its_ideal_complement(name):
    """The computed split is the label rule's: the Levi factor is [s, s] of
    the L/J span s, and the planar J_12 and K land in the radical, an ideal
    complementing it.  The Levi factor is perfect and its Killing form is
    nondegenerate (Cartan's criterion for semisimplicity)."""
    build, levi_kinds, ideal_kinds = _SPLITS[name]
    alg = build()
    levi, ideal = alg.levi_indices, alg.ideal_indices
    kind = [getattr(lab, "kind", lab) for lab in alg.labels]
    assert {kind[i] for i in levi} == levi_kinds and {kind[i] for i in ideal} == ideal_kinds
    assert sorted(levi + ideal) == list(range(alg.dim))
    assert {k for i in levi for j in levi for k in alg.bracket_basis(i, j)} == set(levi)
    assert all(k in ideal for i in range(alg.dim) for j in ideal for k in alg.bracket_basis(i, j))
    killing = [[sum(alg.bracket_vec({a: 1}, alg.bracket_basis(b, n)).get(n, 0)
                    for n in range(alg.dim)) for b in levi] for a in levi]
    assert dense_rank(killing) == len(levi)


def test_aq_bracket_is_delta_c(G):
    for i in range(1, 4):
        for j in range(1, 4):
            for m in range(1, 5):
                for n in range(1, 5):
                    out = G.bracket(G.basis_element(lb.A(i, m)), G.basis_element(lb.Q(j, n)))
                    if i == j:
                        assert out == G.basis_element(lb.C(m, n))
                    else:
                        assert out.is_zero()


def test_accepted_labels_are_exactly_the_basis():
    """Every kind with every index tuple of length 0..3 over 0..5: the
    labels the constructor accepts are the basis labels and K, each of
    which survives printing and parsing; out-of-range or unsorted
    indices stay raw strings in a definition file."""
    accepted = set()
    for kind in lb.KINDS:
        for n in range(4):
            for ix in product(range(6), repeat=n):
                try:
                    accepted.add(lb.BasisLabel(kind, ix))
                except ValueError:
                    pass
    assert accepted == set(lb.basis_labels()) | {lb.K}
    assert all(lb.parse_label(str(lab)) == lab for lab in accepted)
    raw = ["T5", "J21", "C21"]
    doc = {"name": "raw", "dimension": 3, "labels": raw, "constants": []}
    assert list(LieAlgebra.from_definition(doc).labels) == raw


@pytest.mark.parametrize("internal", [(1, 2, 3), (1, 2)], ids=["newstein", "newstein2"])
def test_bracket_of_labels_is_antisymmetric(internal):
    """[x, y] = -[y, x] and [x, x] = 0 over all ordered pairs, including
    the (Q, A) and (X, L/J) orders no builder asks for."""
    labs = lb.basis_labels(internal)
    for x in labs:
        assert bracket_of_labels(x, x) == {}
        for y in labs:
            assert bracket_of_labels(x, y) == {k: -v for k, v in bracket_of_labels(y, x).items()}


def test_hand_evaluated_examples(G):
    e = G.basis_element
    assert G.bracket(e(lb.J(1, 2)), e(lb.A(1, 3))) == -1 * e(lb.A(2, 3))
    assert G.bracket(e(lb.L(1, 4)), e(lb.C(4, 4))) == -2 * e(lb.C(1, 4))


# -- extensions ----------------------------------------------------------


@pytest.mark.parametrize("case", range(1, 10))
def test_extended_passes_jacobi(case):
    ext = build_extended(case)
    assert ext.dim == 52
    assert ext.jacobi_check() == []


def test_extended_case1_k_is_central():
    ext = build_extended(1)
    k = ext.index[lb.K]
    for j in range(ext.dim):
        assert not ext.bracket_basis(k, j)


def test_extended_case7_brackets():
    ext = build_extended(7)
    e = ext.basis_element
    for i in range(1, 4):
        for m in range(1, 5):
            assert ext.bracket(e(lb.K), e(lb.A(i, m))) == -1 * e(lb.Q(i, m))
            assert ext.bracket(e(lb.K), e(lb.Q(i, m))) == e(lb.A(i, m))
    for m in range(1, 5):
        for n in range(m, 5):
            assert ext.bracket(e(lb.K), e(lb.C(m, n))).is_zero()


def test_k_commutes_with_external_and_internal(G):
    for case in range(1, 10):
        ext = build_extended(case)
        k = ext.index[lb.K]
        for j, lab in enumerate(ext.labels):
            if getattr(lab, "kind", None) in ("L", "J", "T", "Tp"):
                assert not ext.bracket_basis(k, j)


@pytest.mark.parametrize("case", range(1, 10))
def test_ad_k_is_same_two_by_two_on_every_plane(case):
    """ad K acts on each (A_{i rho}, Q_{i rho}) plane by the case's matrix."""
    ext = build_extended(case)
    e = ext.basis_element
    want = canonical_matrices()[case].rows()
    for i in range(1, 4):
        for m in range(1, 5):
            ka = ext.bracket(e(lb.K), e(lb.A(i, m)))
            kq = ext.bracket(e(lb.K), e(lb.Q(i, m)))
            block = ((ka.coefficient(lb.A(i, m)), kq.coefficient(lb.A(i, m))),
                     (ka.coefficient(lb.Q(i, m)), kq.coefficient(lb.Q(i, m))))
            assert sum(1 for v in ka.coeffs.values() if v) <= 2
            assert sum(1 for v in kq.coeffs.values() if v) <= 2
            assert block == want


def test_c_coefficient_is_trace_of_plane_matrix():
    for case in range(1, 10):
        ext = build_extended(case)
        e = ext.basis_element
        ka = ext.bracket(e(lb.K), e(lb.A(1, 1)))
        kq = ext.bracket(e(lb.K), e(lb.Q(1, 1)))
        trace = ka.coefficient(lb.A(1, 1)) + kq.coefficient(lb.Q(1, 1))
        kc = ext.bracket(e(lb.K), e(lb.C(1, 2)))
        assert kc == trace * e(lb.C(1, 2))


def test_case8_as_printed_fails_jacobi_unless_cos_is_one():
    ext = build_extended(8, as_printed=True)
    violations = ext.jacobi_check()
    assert violations != []
    k = ext.index[lb.K]
    assert all(k in triple for triple in violations)
    # cos phi = 1 degenerates to the identity action I, whose trace rule
    # already gives the printed [K, C] = 2C
    ok = build_extended(ExtensionMatrix.from_rows(((1, 0), (0, 1))))
    e = ok.basis_element
    assert ok.bracket(e(lb.K), e(lb.C(1, 2))) == 2 * e(lb.C(1, 2))
    assert ok.jacobi_check() == []


def test_jacobi_check_equals_the_dense_triple_loop(G):
    """The term-driven scan lists the same triples, in the same order, as
    the loop over all C(dim, 3) triples: none on the family, 48 on the
    printed case-8 matrix."""
    for alg in [G, build_newstein2(), *(build_extended(c, base=G) for c in range(1, 10))]:
        assert alg.jacobi_check() == dense_jacobi_check(alg) == [], alg.name
    printed = build_extended(8, base=G, as_printed=True)
    violations = printed.jacobi_check()
    assert violations == dense_jacobi_check(printed)
    assert len(violations) == 48


def test_invalid_parameters_rejected():
    """The excluded parameters, by their q: zeta^2 = +-1 of case 3 is
    diag(+-1, -+1), q = 0; cos phi = 0 of case 9 is q = 0, and cos phi = +-1
    is +-I, q = +-4.  The table refuses each."""
    for case, q in ((3, 0), (9, 0), (9, 4), (9, -4)):
        with pytest.raises(InvalidExtensionParameter):
            ExtensionClass(case, q)


# -- planar variant ------------------------------------------------------


def test_newstein2_dimension_and_jacobi():
    G2 = build_newstein2()
    assert G2.dim == 41  # 6 + 4 + 4 + 10 + 8 + 8 + 1
    assert G2.jacobi_check() == []


def test_newstein2_planar_rotation_action():
    G2 = build_newstein2()
    e = G2.basis_element
    J = e(lb.J(1, 2))
    for m in range(1, 5):
        assert G2.bracket(J, e(lb.A(1, m))) == -1 * e(lb.A(2, m))
        assert G2.bracket(J, e(lb.A(2, m))) == e(lb.A(1, m))
    assert G2.bracket(e(lb.A(1, 1)), e(lb.Q(2, 2))).is_zero()


# -- central cocycle ------------------------------------------------------


def _value(w, i, j):
    """w(e_i, e_j) of a trivial-coefficient 2-cochain keyed ((i, j), 0), i < j."""
    if i > j:
        return -_value(w, j, i)
    return w.get(((i, j), 0), 0)


def test_beta_cocycle_values(G):
    w = beta_cocycle(G)
    t, tp = G.index[lb.T(1)], G.index[lb.Tp(1)]
    assert _value(w, t, tp) == 1
    assert _value(w, tp, t) == -1
    assert _value(w, G.index[lb.T(4)], G.index[lb.Tp(4)]) == -1
    assert _value(w, G.index[lb.T(1)], G.index[lb.T(2)]) == 0
    assert _value(w, G.index[lb.T(1)], G.index[lb.Tp(2)]) == 0


def test_beta_cocycle_identity_holds(G):
    assert CochainComplex(G, CoefficientModule.trivial()).d_apply(beta_cocycle(G)) == {}


def test_beta_cocycle_matches_group_exponent_derivative(G):
    """Finite-difference oracle on the exponent <t_1, Lambda_1 t_2'>.

    The infinitesimal cocycle is the antisymmetrized mixed derivative of the
    exponent along pairs of one-parameter subgroups; it must reproduce the
    stored w(T_mu, T'_nu) = g_{mu nu} and vanish on the other sampled pairs.
    """
    import numpy as np

    from newstein import grouplaw as gl

    def exponent(g1, g2):
        lv = gl.vector_rep(g1.Lam)
        t2p = lv @ g2.tp
        return (g1.t[0] * t2p[0] + g1.t[1] * t2p[1]
                + g1.t[2] * t2p[2] - g1.t[3] * t2p[3])

    w = beta_cocycle(G)
    eps = 1e-4
    samples = [lb.T(1), lb.T(4), lb.Tp(1), lb.Tp(4), lb.Tp(2), lb.L(1, 2),
               lb.L(1, 4), lb.A(1, 1), lb.Q(2, 3), lb.C(1, 2), lb.J(1, 2)]
    for x in samples:
        for y in samples:
            acc = 0.0
            for ss, st in ((eps, eps), (eps, -eps), (-eps, eps), (-eps, -eps)):
                gs, ht = gl.one_parameter(x, ss), gl.one_parameter(y, st)
                sign = 1.0 if ss * st > 0 else -1.0
                acc += sign * (exponent(gs, ht) - exponent(ht, gs))
            got = acc / (4 * eps * eps)
            want = float(_value(w, G.index[x], G.index[y]))
            assert abs(got - want) < 1e-6, (x, y, got, want)


def test_beta_cocycle_rotation_invariance(G):
    w = beta_cocycle(G)
    for j in [i for i in G.levi_indices if G.labels[i].kind == "J"]:
        for x in range(G.dim):
            for y in range(x + 1, G.dim):
                total = F(0)
                for m, c in G.bracket_basis(j, x).items():
                    total += c * _value(w, m, y)
                for m, c in G.bracket_basis(j, y).items():
                    total += c * _value(w, x, m)
                assert total == 0


def test_cocycle_violation_detection(G):
    bad = {((G.index[lb.A(1, 1)], G.index[lb.Q(1, 2)]), 0): F(1),
           ((G.index[lb.L(1, 2)], G.index[lb.T(1)]), 0): F(1)}
    assert CochainComplex(G, CoefficientModule.trivial()).d_apply(bad) != {}
