"""Sparse exact linear algebra against dense brute force."""

import copy
import random
import tracemalloc
from fractions import Fraction

import pytest

from newstein.algebras import build_newstein
from newstein.cohomology import CochainComplex, CoefficientModule
from newstein.exactla import Echelon, kernel_basis, random_primes

from oracles import dense_rank, dense_rank_mod_p, integer_matrix, span_contains

F = Fraction


def random_sparse(rng, nrows, ncols, density=0.3):
    dense = [[F(0)] * ncols for _ in range(nrows)]
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                dense[r][c] = F(rng.randint(-6, 6), rng.randint(1, 4))
    return integer_matrix(dense), dense


def test_rank_exact_matches_dense():
    rng = random.Random(11)
    for _ in range(25):
        m, d = random_sparse(rng, rng.randint(1, 12), rng.randint(1, 10))
        assert m.rank_exact() == dense_rank(d)


def test_rank_mod_p_matches_exact_generic():
    rng = random.Random(13)
    primes = random_primes(3, seed=5)
    for _ in range(15):
        m, d = random_sparse(rng, rng.randint(1, 10), rng.randint(1, 10))
        exact = dense_rank(d)
        for p in primes:
            assert m.rank_mod_p(p) == exact


def test_rank_mod_p_can_undershoot_on_bad_prime():
    m = integer_matrix([[F(7)]])
    assert m.rank_exact() == 1
    assert m.rank_mod_p(7) == 0
    assert m.rank_mod_p(5) == 1


def dense(rows: list[dict], ncols: int) -> list[list[int]]:
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


P = 7
# rank_mod_p reduces a row mod p only where it reads its lead or makes it a
# pivot, so each case puts a multiple of p, or a residue far from (-p/2, p/2],
# where an unreduced entry could be mistaken for a nonzero one
DELAYED_REDUCTION = {
    "lead 0 mod p": [{0: 1, 5: P}],
    "lead 0 mod p, alone": [{3: -2 * P}],
    "off-lead 0 mod p": [{0: P, 5: 1}, {5: 1}],
    "lead 0 mod p after an update": [{0: 1, 1: 1}, {0: 1 + P, 1: 1}],
    "negative entries": [{0: -3, 2: -P - 1}, {0: -2 * P + 1, 2: -5}, {1: -1, 2: -P}],
    "far above p": [{0: P ** 9 + 2, 3: 10 ** 40}, {0: 10 ** 30, 3: P ** 12 - 1}, {2: 3 * P ** 5}],
    "lead not +-1": [{0: 2, 1: 3}, {0: 5, 1: 4}, {0: 1, 1: 5, 2: 2}],
    # entries +-(p//2) keep a row as its own pivot; +-(p//2 + 1) make it a residue copy
    "residue boundary": [{0: 3, 2: -3}, {1: -3, 2: 3}, {0: 4, 1: -4, 3: -4},
                         {1: 4, 3: 3}, {0: -3, 3: 4}],
}


@pytest.mark.parametrize("case", sorted(DELAYED_REDUCTION))
def test_rank_mod_p_on_delayed_reduction_corners(case):
    rows = DELAYED_REDUCTION[case]
    full = dense(rows, 1 + max(c for row in rows for c in row))
    mat = integer_matrix(full)
    kept = copy.deepcopy(mat.rows)
    for p in (2, 3, P, 11):
        assert mat.rank_mod_p(p) == dense_rank_mod_p(full, p)
    assert mat.rank_exact() == dense_rank(full)
    assert mat.rows == kept


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_mod_p_shares_builder_rows_as_pivots():
    """Builder rows (entries +-1, +-2) are their own residues, so they become
    pivots as they are: the elimination allocates far less than the rows
    hold.  On d_1(trivial) of the 51-dim algebra, the builder matrix with
    the fewest entries, the traced peak is 0.27 of the rows' bytes with
    shared pivots and 0.91 with a residue copy per pivot."""
    mat = CochainComplex(build_newstein(), CoefficientModule.trivial()).d_matrix_by_domain(1)
    p = random_primes(1, seed=0)[0]
    held = traced_peak(lambda: [dict(row) for row in mat.rows.values()])
    assert traced_peak(lambda: mat.rank_mod_p(p)) < held / 2
    assert mat.rank_mod_p(p) == mat.rank_exact()


def test_kernel_basis_exact():
    # columns (1,1,0), (2,2,0), (0,0,1): kernel spanned by 2*c0 - c1
    cols = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}, {2: F(1)}]
    ker = kernel_basis(cols)
    assert len(ker) == 1
    combo = ker[0]
    merged = {}
    for i, c in combo.items():
        for k, v in cols[i].items():
            merged[k] = merged.get(k, 0) + c * v
    assert all(v == 0 for v in merged.values())


def test_span_contains_certificate():
    span = [{0: F(1), 1: F(2)}, {1: F(1)}]
    target = {0: F(3), 1: F(4)}
    combo = span_contains(span, target)
    assert combo is not None
    rebuilt = {}
    for i, c in combo.items():
        for k, v in span[i].items():
            rebuilt[k] = rebuilt.get(k, 0) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == target
    assert span_contains(span, {2: F(1)}) is None


def test_echelon_rank_generic_keys():
    ech = Echelon()
    ech.insert({("a", 1): F(1), ("b", 2): F(1)})
    ech.insert({("a", 1): F(2), ("b", 2): F(2)})
    ech.insert({("b", 2): F(1)})
    assert ech.rank == 2


def test_echelon_on_int_vectors_keeps_exact_pivots():
    """Integer input, as d_basis columns are, must never give float pivots."""
    ech = Echelon()
    ech.insert({0: 2, 1: 3})
    ech.insert({1: 4, 2: 1})
    assert ech.pivots == {0: {0: 2, 1: 3}, 1: {1: 4, 2: 1}}
    for piv in ech.pivots.values():
        assert all(type(v) is int for v in piv.values())
    assert ech.insert({0: 4, 1: 6}) is None


def test_random_primes_are_prime_and_large():
    ps = random_primes(4, seed=1)
    assert len(set(ps)) == 4
    for p in ps:
        assert p > 1 << 20
        assert all(p % q for q in range(2, 200))
