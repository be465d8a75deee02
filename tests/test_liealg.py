"""Core engine tests: brackets, Jacobi, adjoint, centralizer, serialization."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstein import labels as lb
from newstein.algebras import build_newstein, heisenberg3, sl2
from newstein.liealg import AlgebraElement, LieAlgebra, MismatchedAlgebraError

F = Fraction


@pytest.fixture(scope="module")
def G():
    return build_newstein()


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def random_element(alg, data):
    coeffs = data.draw(st.dictionaries(st.integers(0, alg.dim - 1), rationals, max_size=5))
    return AlgebraElement(alg, coeffs)


def test_bracket_examples(G):
    e = G.basis_element
    assert G.bracket(e(lb.L(1, 2)), e(lb.T(2))) == e(lb.T(1))
    assert G.bracket(e(lb.A(1, 2)), e(lb.Q(1, 3))) == e(lb.C(2, 3))
    assert G.bracket(e(lb.A(1, 2)), e(lb.Q(2, 3))).is_zero()
    for m in range(1, 5):
        for n in range(1, 5):
            assert G.bracket(e(lb.T(m)), e(lb.Tp(n))).is_zero()


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_bracket_antisymmetry_and_self(data):
    alg = sl2()
    x = random_element(alg, data)
    y = random_element(alg, data)
    assert alg.bracket(x, x).is_zero()
    assert alg.bracket(x, y) == -alg.bracket(y, x)


@given(data=st.data(), a=rationals)
@settings(max_examples=30, deadline=None)
def test_bracket_bilinearity(data, a):
    alg = heisenberg3()
    x, y, z = (random_element(alg, data) for _ in range(3))
    lhs = alg.bracket(a * x + y, z)
    rhs = a * alg.bracket(x, z) + alg.bracket(y, z)
    assert lhs == rhs


def test_mismatched_algebras_raise():
    a, b = sl2(), sl2()
    with pytest.raises(MismatchedAlgebraError):
        a.bracket(a.basis_element("h"), b.basis_element("h"))


def test_jacobi_passes_on_reference_algebras(G):
    assert G.jacobi_check() == []
    assert heisenberg3().jacobi_check() == []
    abelian = LieAlgebra("r3", ["x", "y", "z"], {})
    assert abelian.jacobi_check() == []


def test_jacobi_detects_corruption(G):
    constants = {k: dict(v) for k, v in G.constants.items()}
    key = (G.index[lb.A(1, 1)], G.index[lb.Q(1, 2)])
    constants[key] = {t: -c for t, c in constants[key].items()}
    bad = LieAlgebra("corrupted", list(G.labels), constants)
    assert bad.jacobi_check() != []


def test_adjoint_zero_and_center(G):
    zero = G.element({})
    assert all(all(v == 0 for v in row) for row in G.adjoint(zero))
    assert all(all(v == 0 for v in row) for row in G.adjoint(G.trace_c()))


def test_adjoint_trace_of_rotation_is_zero(G):
    mat = G.adjoint(G.basis_element(lb.J(1, 2)))
    assert sum(mat[i][i] for i in range(G.dim)) == 0


def test_adjoint_is_bracket_homomorphism(G):
    import random

    rng = random.Random(7)
    for _ in range(5):
        x = G.element({rng.randrange(G.dim): F(rng.randint(-3, 3), rng.randint(1, 4))
                       for _ in range(4)})
        y = G.element({rng.randrange(G.dim): F(rng.randint(-3, 3), rng.randint(1, 4))
                       for _ in range(4)})
        ad_xy = G.adjoint(G.bracket(x, y))
        ax, ay = G.adjoint(x), G.adjoint(y)
        n = G.dim
        comm = [[sum(ax[i][t] * ay[t][j] - ay[i][t] * ax[t][j] for t in range(n))
                 for j in range(n)] for i in range(n)]
        assert comm == ad_xy


def test_centralizer_of_levi_is_trace_c(G):
    gens = [G.basis_element(G.labels[i]) for i in G.levi_indices]
    cen = G.centralizer(gens)
    assert len(cen) == 1
    sol = cen[0]
    trace = G.trace_c()
    ratio = None
    for k, v in trace.coeffs.items():
        ratio = sol.coeffs[k] / v
        break
    assert sol == ratio * trace


def test_center_is_trace_c(G):
    cen = G.centralizer([G.basis_element(lab) for lab in G.labels])
    assert len(cen) == 1
    assert all(G.labels[k].kind == "C" for k in cen[0].coeffs)


def test_centralizer_of_nothing_is_everything(G):
    assert len(G.centralizer([])) == G.dim


def test_centralizer_output_killed_by_generators(G):
    gens = [G.basis_element(G.labels[i]) for i in G.levi_indices]
    for v in G.centralizer(gens):
        for g in gens:
            assert G.bracket(g, v).is_zero()


def test_definition_roundtrip(G, tmp_path):
    path = tmp_path / "g.json"
    G.save(path)
    back = LieAlgebra.load(path)
    assert back.labels == G.labels
    assert back.constants == G.constants
    assert back.to_definition() == G.to_definition()


def test_definition_roundtrip_generic_labels(tmp_path):
    h = heisenberg3()
    path = tmp_path / "h3.json"
    h.save(path)
    back = LieAlgebra.load(path)
    assert back.labels == h.labels
    assert back.constants == h.constants


@pytest.mark.parametrize("doc,needle", [
    ({"name": "x", "dimension": 2, "labels": ["a", "b"], "constants": [
        {"i": 0, "j": 1, "terms": [{"k": 0, "coeff": "1"}]},
        {"i": 0, "j": 1, "terms": [{"k": 1, "coeff": "5"}]}]}, "(i, j) = (0, 1)"),
    ({"name": "x", "dimension": 2, "labels": ["a", "b"], "constants": [
        {"i": 0, "j": 1, "terms": [{"k": 1, "coeff": "1"}, {"k": 1, "coeff": "5"}]}]},
     "target k = 1"),
], ids=["repeated-pair", "repeated-target"])
def test_definition_with_repeated_entry_is_rejected(doc, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        LieAlgebra.from_definition(doc)


def test_adjoint_table_is_shared_and_matches_brackets(G):
    from newstein.algebras import build_extended

    extended = [build_extended(3), build_extended(8)]
    # the sample parameters of cases 3 and 8 give non-integer constants
    for alg in extended:
        assert any(c.denominator != 1 for vec in alg.constants.values() for c in vec.values())
    for alg in [G, sl2(), heisenberg3(), *extended]:
        for i in range(alg.dim):
            cols = alg.ad_columns(i)
            assert cols is alg.ad_columns(i)
            assert all(cols.values())
            for j in range(alg.dim):
                assert cols.get(j, {}) == alg.bracket_basis(i, j)


def test_adjoint_table_not_mutated_by_cohomology(G):
    from newstein.cohomology import CoefficientModule, betti, h1_via_reduction

    betti(G, CoefficientModule.adjoint(G), 1, method="modular", check_dd=False)
    h1_via_reduction(G)
    for i in range(G.dim):
        fresh = {j: G.bracket_basis(i, j) for j in range(G.dim) if G.bracket_basis(i, j)}
        assert G.ad_columns(i) == fresh
