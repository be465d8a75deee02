"""Property tests: basis independence of the engine and exact cross-checks.

A rational change of basis leaves the Jacobi identity and every Betti
number unchanged; the coboundary squares to zero, its matrices are the
brute-force ones times the complex's common denominator D, and exact and
modular ranks agree.  The fraction-free eliminator is checked against the
dense oracles: ``Echelon`` and ``SparseExactMatrix`` ranks against
``dense_rank`` in any row and column order, modular ranks against
``dense_rank_mod_p``, ``Echelon`` membership against ``span_contains`` and
``kernel_basis`` against the rational kernel, and the invariant solver's
``_components`` against breadth-first search.  Definitions survive a JSON
round trip.
"""

import copy
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from newstein import labels as lb
from newstein.algebras import heisenberg3, sl2
from newstein.cohomology import CochainComplex, CoefficientModule, _components, betti
from newstein.exactla import Echelon, kernel_basis, random_primes
from newstein.extensions import ExtensionMatrix, classify
from newstein.liealg import LieAlgebra

from oracles import (bfs_components, brute_betti, brute_d_matrix, dense_rank, dense_rank_mod_p,
                     integer_matrix, keyed_domain_rows, rational_kernel_basis,
                     span_contains)

F = Fraction
PRIME = random_primes(1, seed=0)[0]
BASES = {"h3": heisenberg3, "sl2": sl2}


def modules(alg):
    return (CoefficientModule.trivial(), CoefficientModule.adjoint(alg))


# Betti numbers in degrees 0..3 with trivial and adjoint coefficients
REFERENCE = {name: [[betti(alg, m, k).betti for k in range(4)] for m in modules(alg)]
             for name, alg in ((name, build()) for name, build in BASES.items())}


def inverse(P):
    """Inverse of a square rational matrix by Gauss-Jordan; None if singular."""
    n = len(P)
    rows = [[F(v) for v in row] + [F(int(i == j)) for j in range(n)]
            for i, row in enumerate(P)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def change_basis(alg, P, Pinv):
    """The same algebra on the basis f_a = sum_i P[i][a] e_i."""
    n = alg.dim
    constants = {}
    for a in range(n):
        for b in range(a + 1, n):
            vec = {}
            for i in range(n):
                for j in range(n):
                    c = P[i][a] * P[j][b]
                    if not c:
                        continue
                    for k, v in alg.bracket_basis(i, j).items():
                        for m in range(n):
                            vec[m] = vec.get(m, 0) + c * v * Pinv[m][k]
            constants[(a, b)] = {m: v for m, v in vec.items() if v}
    return LieAlgebra(alg.name + "'", list(alg.labels), constants)


integer_matrices = st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                            min_size=3, max_size=3)


def rebased(name, P):
    Pinv = inverse(P)
    assume(Pinv is not None)
    return change_basis(BASES[name](), P, Pinv)


@pytest.mark.parametrize("name", sorted(BASES))
@given(P=integer_matrices)
@settings(max_examples=25, deadline=None)
def test_change_of_basis_keeps_jacobi_and_betti(name, P):
    alg = rebased(name, P)
    assert alg.jacobi_check() == []
    got = [[betti(alg, m, k).betti for k in range(4)] for m in modules(alg)]
    assert got == REFERENCE[name]


@pytest.mark.parametrize("name", sorted(BASES))
@given(P=integer_matrices)
@settings(max_examples=25, deadline=None)
def test_dd_vanishes_and_exact_rank_equals_modular(name, P):
    alg = rebased(name, P)
    for coeffs in modules(alg):
        cx = CochainComplex(alg, coeffs)
        for k in range(3):
            assert cx.dd_violations(k) == []
            mat = cx.d_matrix(k)
            assert mat.rank_exact() == mat.rank_mod_p(PRIME)


@pytest.mark.parametrize("name", sorted(BASES))
@given(P=integer_matrices)
@settings(max_examples=25, deadline=None)
def test_domain_rows_equal_keyed_rows_on_dense_constants(name, P):
    """On a rebased algebra the constants are dense, so the builder reaches
    one (S, T) from two (k-1)-wedges and some of those entries cancel; its
    rows still equal d_basis's column by column, in the same stored order."""
    alg = rebased(name, P)
    for coeffs in modules(alg):
        cx = CochainComplex(alg, coeffs)
        for k in range(4):
            rows = cx.d_matrix_by_domain(k).rows
            keyed = keyed_domain_rows(cx, k)
            assert rows == keyed
            assert list(rows) == list(keyed)


@pytest.mark.parametrize("name", sorted(BASES))
@given(P=integer_matrices)
@settings(max_examples=25, deadline=None)
def test_scaled_matrices_are_common_denominator_times_brute_force(name, P):
    """On a basis with non-integral constants, d_matrix(k) is exactly D * d_k."""
    alg = rebased(name, P)
    D = CochainComplex(alg, CoefficientModule.trivial()).scale
    assume(D > 1)
    for module, coeffs in zip(("trivial", "adjoint"), modules(alg)):
        cx = CochainComplex(alg, coeffs)
        assert cx.scale == D
        for k in range(4):
            mat = cx.d_matrix(k)
            dense = [[0] * mat.ncols for _ in range(mat.nrows)]
            for r, row in mat.rows.items():
                for c, v in row.items():
                    assert type(v) is int
                    dense[r][c] = v
            brute = brute_d_matrix(alg, k, module)
            assert dense == [[D * v for v in row] for row in brute]
            assert mat.rank_exact() == mat.rank_mod_p(PRIME) == dense_rank(brute)
            expected = brute_betti(alg, k, module)
            assert betti(alg, coeffs, k).betti == expected
            assert betti(alg, coeffs, k, method="modular").betti == expected


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_echelon_rank_equals_sparse_rank(data):
    nrows, ncols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    mat = integer_matrix([[F(v) for v in row] for row in rows])
    ech = Echelon()
    for row in rows:
        ech.insert({c: F(v) for c, v in enumerate(row) if v})
    assert ech.rank == mat.rank_exact() == dense_rank(rows)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_rank_is_free_of_row_and_column_order(data):
    """The ranks pivot on each row's last column in stored order; renumbering
    the columns from the other end or permuting the rows must not matter.
    Up to 6 x 6 with entries in [-4, 4] a nonzero minor is below Hadamard's
    (4 sqrt 6)^6 < 2^20 < PRIME, so the rank mod PRIME is the rational one."""
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    order = data.draw(st.permutations(range(nrows)))
    rank = dense_rank(rows)
    for variant in (rows, [row[::-1] for row in rows], [rows[i] for i in order],
                    [rows[i][::-1] for i in order]):
        mat = integer_matrix(variant)
        assert mat.rank_exact() == mat.rank_mod_p(PRIME) == rank


@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_rank_mod_small_p_equals_dense_gf_p(data, p):
    """Small primes make leads that vanish mod p without vanishing; neither
    rank changes the stored rows."""
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(st.integers(-3 * p, 3 * p), min_size=ncols,
                                       max_size=ncols), min_size=nrows, max_size=nrows))
    mat = integer_matrix(rows)
    kept = copy.deepcopy(mat.rows)
    assert mat.rank_mod_p(p) == dense_rank_mod_p(rows, p)
    assert mat.rank_exact() == dense_rank(rows)
    assert mat.rows == kept


entries = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))


def _combine(weights, vectors) -> dict:
    total: dict = {}
    for w, vec in zip(weights, vectors):
        for k, v in vec.items():
            total[k] = total.get(k, 0) + w * v
    return total


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_echelon_membership_matches_span_certificate(data):
    keys = [(a, b) for a in "xy" for b in range(3)]
    vector = st.dictionaries(st.sampled_from(keys), entries, max_size=4)
    span = data.draw(st.lists(vector, max_size=4))
    # half the targets are drawn from the span, so both answers occur
    weights = data.draw(st.lists(entries, min_size=len(span), max_size=len(span)))
    target = data.draw(st.one_of(vector, st.just(_combine(weights, span))))
    ech = Echelon()
    for vec in span:
        ech.insert(vec)
    combo = span_contains(span, target)
    assert (not ech.reduce(target)) == (combo is not None)
    if combo is not None:
        rebuilt = _combine([combo.get(i, 0) for i in range(len(span))], span)
        assert {k: v for k, v in rebuilt.items() if v} == {k: v for k, v in target.items() if v}


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_basis_is_primitive_integer_and_spans_the_rational_kernel(data):
    n, width = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 5))
    vectors = [{k: v for k, v in enumerate(row) if v} for row in
               data.draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                                  min_size=n, max_size=n))]
    combos = kernel_basis(vectors)
    rank = dense_rank([[vec.get(k, 0) for k in range(width)] for vec in vectors])
    assert len(combos) == n - rank
    for combo in combos:
        assert all(type(v) is int for v in combo.values())
        assert gcd(*combo.values()) == 1
        assert not any(_combine([combo.get(i, 0) for i in range(n)], vectors).values())
    ours = [[combo.get(i, 0) for i in range(n)] for combo in combos]
    oracle = [[combo.get(i, 0) for i in range(n)] for combo in rational_kernel_basis(vectors)]
    assert dense_rank(ours) == dense_rank(oracle) == dense_rank(ours + oracle) == n - rank


@given(images=st.lists(st.dictionaries(st.integers(0, 12), st.just(1), max_size=3), max_size=12),
       bridges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3))
@example(images=[{0: 1}, {1: 1}, {0: 1, 2: 1}, {1: 1, 3: 1}, {4: 1}, {}, {2: 1, 5: 1}],
         bridges=[(3, 2), (4, 0)])
@settings(max_examples=100, deadline=None)
def test_components_equal_breadth_first_search(images, bridges):
    """``_components`` groups images through shared keys as breadth-first
    search does: the same groups, members ascending, groups in order of
    their first member.  Each bridge appends an image holding a key of two
    earlier images, so it merges the two trees they lie in when those differ
    (in the example, chains of two images each, then a tree with a lone one)."""
    for i, j in bridges:
        held = [img for img in images if img]
        if held:
            images.append({min(held[i % len(held)]): 1, max(held[j % len(held)]): 1})
    assert _components(images) == bfs_components(images)


LABEL_POOL = [lb.T(1), lb.Tp(2), lb.C(1, 2), lb.A(3, 4), lb.L(1, 4), lb.J(2, 3), lb.K,
              "x", "y", "h", "e", "f"]
fractions = st.fractions(min_value=-20, max_value=20, max_denominator=7)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_definition_round_trip(data):
    labels = data.draw(st.lists(st.sampled_from(LABEL_POOL), min_size=1, max_size=5,
                                unique=True))
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    constants = {pair: data.draw(st.dictionaries(st.integers(0, n - 1), fractions, max_size=n))
                 for pair in chosen}
    alg = LieAlgebra("random", labels, constants)
    back = LieAlgebra.from_definition(json.loads(json.dumps(alg.to_definition())))
    assert back.name == alg.name
    assert back.labels == alg.labels
    assert back.constants == alg.constants


def _mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


entries4 = st.lists(st.integers(-6, 6), min_size=4, max_size=4)


@given(L=entries4, P=entries4, lam=st.fractions(min_value=F(1, 1000), max_value=1000))
@example(L=[1, 2, 3, 4], P=[2, 1, 1, 1], lam=F(3, 7))      # case 3, zeta^2 irrational
@example(L=[1, 0, 0, 3], P=[1, 2, 0, 1], lam=F(5))         # case 4, zeta^2 irrational
@example(L=[2, 1, -1, 1], P=[1, -1, 1, 1], lam=F(1, 2))    # case 9, cos phi irrational
@settings(max_examples=200, deadline=None)
def test_extension_class_is_kept_by_positive_scaling_and_conjugation(L, P, lam):
    """classify(lam P L P^-1) has the case and the exact q of classify(L)."""
    Lm, Pm = [L[:2], L[2:]], [P[:2], P[2:]]
    Pinv = inverse(Pm)
    assume(Pinv is not None)
    moved = [lam * v for row in _mul(_mul(Pm, Lm), Pinv) for v in row]
    want, got = classify(ExtensionMatrix.from_rows(Lm)), classify(ExtensionMatrix(*moved))
    assert (got.case, got.q) == (want.case, want.q)
