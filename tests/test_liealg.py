"""Core engine tests: brackets, Jacobi, adjoint, centralizer, serialization."""

import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newstein import labels as lb
from newstein.algebras import build_extended, build_newstein, heisenberg3, sl2
from newstein.liealg import AlgebraElement, LieAlgebra, MismatchedAlgebraError

from oracles import brute_bracket

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


coefficients = st.sampled_from([F(-2), F(-1), F(-1, 2), F(1, 3), F(1), F(2)])


@st.composite
def small_algebras(draw):
    """3-6-dim tables of random rational constants; half of them carry a scaled
    sl(2) on e_0, e_1, e_2, whose Jacobi terms cancel to zero."""
    n = draw(st.integers(3, 6))
    constants = {(i, j): draw(st.dictionaries(st.integers(0, n - 1), coefficients, max_size=2))
                 for i in range(n) for j in range(i + 1, n)}
    if draw(st.booleans()):
        s = draw(coefficients)
        constants.update({(0, 1): {1: 2 * s}, (0, 2): {2: -2 * s}, (1, 2): {0: s}})
    return LieAlgebra("random", list(range(n)), constants)


def brute_jacobiator(alg, i, j, k) -> dict:
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] by brute force."""
    out: dict = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for t, v in brute_bracket(alg, brute_bracket(alg, {a: 1}, {b: 1}), {c: 1}).items():
            out[t] = out.get(t, 0) + v
    return {t: v for t, v in out.items() if v}


@given(alg=small_algebras())
@example(alg=sl2())
@settings(max_examples=60, deadline=None)
def test_jacobi_check_matches_brute_force_jacobiator(alg):
    assert alg.jacobi_check() == [t for t in combinations(range(alg.dim), 3)
                                  if brute_jacobiator(alg, *t)]


def test_element_and_sum_drop_cancelled_terms(G):
    lab = lb.T(1)
    assert G.element({lab: 1, G.index[lab]: -1}).coeffs == {}
    x = G.element({lab: F(1, 2), lb.C(1, 2): -3})
    assert (x + (-x)).coeffs == {} and (x - x).coeffs == {}


def test_element_repr(G):
    assert repr(G.element({})) == "0"
    assert repr(G.basis_element(lb.T(1))) == "T1"
    assert repr(G.element({lb.T(2): 1, lb.T(1): F(1, 2)})) == "(1/2)*T1 + T2"


def test_elements_are_unhashable(G):
    """== compares the coefficient dict, which can change, so no hash."""
    with pytest.raises(TypeError, match="unhashable"):
        hash(G.basis_element(lb.T(1)))


def test_bracket_vec_with_zero_coefficient_matches_brute_force(G):
    alg = sl2()
    x, y = {0: F(0), 1: F(1)}, {2: F(1)}        # 0 h + e and f
    assert alg.bracket_vec(x, y) == brute_bracket(alg, x, y) == {0: 1}
    x = {G.index[lb.L(1, 2)]: F(0), G.index[lb.A(1, 2)]: F(3)}
    y = {G.index[lb.T(2)]: F(1), G.index[lb.Q(1, 3)]: F(-1)}
    assert G.bracket_vec(x, y) == brute_bracket(G, x, y) == {G.index[lb.C(2, 3)]: -3}


def _ad(G, x: dict) -> dict:
    """Sparse columns j -> [x, e_j] of ad(x), summed from the shared table."""
    cols: dict = {}
    for i, xi in x.items():
        for j, col in G.ad_columns(i).items():
            out = cols.setdefault(j, {})
            for k, c in col.items():
                out[k] = out.get(k, 0) + xi * c
    return {j: v for j, col in cols.items() if (v := {k: c for k, c in col.items() if c})}


def _apply(cols: dict, vec: dict) -> dict:
    out: dict = {}
    for j, vj in vec.items():
        for k, c in cols.get(j, {}).items():
            out[k] = out.get(k, 0) + vj * c
    return out


def test_adjoint_zero_and_center(G):
    assert _ad(G, {}) == {}
    assert _ad(G, G.trace_c().coeffs) == {}


def test_adjoint_trace_of_rotation_is_zero(G):
    cols = G.ad_columns(G.index[lb.J(1, 2)])
    assert sum(cols.get(i, {}).get(i, 0) for i in range(G.dim)) == 0


def test_adjoint_is_bracket_homomorphism(G):
    """ad[x, y] = ad x ad y - ad y ad x, column by column; [x, y] comes from
    the brute-force bracket, the three ad matrices from the shared table."""
    import random

    rng = random.Random(7)
    for _ in range(5):
        x = G.element({rng.randrange(G.dim): F(rng.randint(-3, 3), rng.randint(1, 4))
                       for _ in range(4)})
        y = G.element({rng.randrange(G.dim): F(rng.randint(-3, 3), rng.randint(1, 4))
                       for _ in range(4)})
        ad_xy = _ad(G, brute_bracket(G, x.coeffs, y.coeffs))
        ax, ay = _ad(G, x.coeffs), _ad(G, y.coeffs)
        for j in range(G.dim):
            comm = _apply(ax, ay.get(j, {}))
            for k, c in _apply(ay, ax.get(j, {})).items():
                comm[k] = comm.get(k, 0) - c
            assert {k: c for k, c in comm.items() if c} == ad_xy.get(j, {})


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


@pytest.mark.parametrize("build", [build_newstein, lambda: build_extended(3)],
                         ids=["newstein", "extended-3"])
def test_centralizer_coefficients_are_exact(build):
    """Integer kernels reach callers as Fractions, never as int / int floats."""
    alg = build()
    cen = alg.centralizer([alg.basis_element(alg.labels[i]) for i in alg.levi_indices])
    assert cen and all(type(c) is F for v in cen for c in v.coeffs.values())
    trace = alg.trace_c()
    k0 = next(iter(trace.coeffs))
    ratio = cen[0].coeffs[k0] / trace.coeffs[k0]
    assert type(ratio) is F
    assert cen[0] == ratio * trace


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

    betti(G, CoefficientModule.adjoint(G), 1, method="modular")
    h1_via_reduction(G)
    for i in range(G.dim):
        fresh = {j: G.bracket_basis(i, j) for j in range(G.dim) if G.bracket_basis(i, j)}
        assert G.ad_columns(i) == fresh
