"""Property tests: basis independence of the engine and exact cross-checks.

A rational change of basis leaves the Jacobi identity and every Betti
number unchanged; the coboundary squares to zero, exact and modular ranks
agree, the incremental ``Echelon`` agrees with ``SparseExactMatrix``, and
definitions survive a JSON round trip.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newstein import labels as lb
from newstein.algebras import heisenberg3, sl2
from newstein.cohomology import CochainComplex, CoefficientModule, betti
from newstein.exactla import Echelon, SparseExactMatrix, random_primes
from newstein.liealg import LieAlgebra

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


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_echelon_rank_equals_sparse_rank(data):
    nrows, ncols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    mat = SparseExactMatrix(nrows, ncols)
    ech = Echelon()
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            mat.add(r, c, F(v))
        ech.insert({c: F(v) for c, v in enumerate(row) if v})
    assert ech.rank == mat.rank_exact()


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
