"""Sparse exact linear algebra over the integers, the rationals and prime fields.

* ``SparseExactMatrix`` holds sparse integer rows (the coboundary builders
  write them directly, see ``cohomology``) and computes ranks by online
  sparse echelon, exactly (fraction-free, gcd-normalized) or modulo a prime.
* ``kernel_basis`` is fraction-free too: the same elimination, carrying each
  vector's combination, returns primitive integer kernel vectors.
* ``Echelon`` is the rational reducer for span membership and preimage
  certificates, which need exact rational residuals.  It takes ``int`` or
  ``Fraction`` entries and never makes a float.  Keys only need to be
  mutually comparable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

Row = dict[int, int]


def _normalize(row: Row) -> Row:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _bump(d: dict, key, value) -> None:
    """d[key] += value, dropping zeros; a first touch stores ``value`` itself,
    which saves building a ``0 + value`` Fraction."""
    if key not in d:
        if value:
            d[key] = value
    elif new := d[key] + value:
        d[key] = new
    else:
        del d[key]


def _echelon(rows) -> dict[int, Row]:
    """Fraction-free sparse echelon of integer rows: leading column -> pivot row.

    Each row is reduced against the pivots so far and, unless it vanishes,
    becomes a pivot itself; every step keeps the row gcd-normalized.  The
    given rows are never modified.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        row = _normalize(row)
        owned = False           # a given row is copied before it changes
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = row
                break
            a, b = row[c], p[c]
            g = gcd(a, b) if b > 0 else -gcd(a, b)
            # row * fa - p * fb clears c; fa > 0 keeps a +-1 pivot from scaling the row
            fa, fb = b // g, a // g
            if fa != 1:
                row = {k: v * fa for k, v in row.items()}
            elif not owned:
                row = dict(row)
            for k, v in p.items():
                if w := row.get(k, 0) - v * fb:
                    row[k] = w
                else:
                    del row[k]
            row = _normalize(row)
            owned = True
    return pivots


class SparseExactMatrix:
    """Sparse matrix of integer rows, each stored up to a positive factor."""

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, Row] = {}

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def rank_exact(self) -> int:
        """Rank over the rationals by fraction-free sparse elimination."""
        return len(_echelon(sorted(self.rows.values(), key=len)))

    def rank_mod_p(self, p: int) -> int:
        """Rank over GF(p) by sparse elimination with unit pivots."""
        pivots: dict[int, Row] = {}
        # rows are reduced mod p one at a time, so only pivots add memory
        for row in sorted(self.rows.values(), key=len):
            row = {c: w for c, v in row.items() if (w := v % p)}
            while row:
                c = min(row)
                piv = pivots.get(c)
                if piv is None:
                    inv = pow(row[c], -1, p)
                    pivots[c] = {k: v * inv % p for k, v in row.items()}
                    break
                f = row[c]
                for k, v in piv.items():
                    if w := (row.get(k, 0) - f * v) % p:
                        row[k] = w
                    else:
                        del row[k]
        return len(pivots)


def random_primes(count: int, *, seed: int | None = None) -> list[int]:
    """Distinct pseudo-random primes in [2^20, 2^28)."""
    rng = random.Random(seed)
    found: list[int] = []
    while len(found) < count:
        cand = rng.randrange(1 << 20, 1 << 28) | 1
        if cand not in found and _is_prime(cand):
            found.append(cand)
    return found


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Echelon:
    """Incremental exact reducer over arbitrary comparable keys.

    Vectors are dicts key -> int or Fraction; pivot rows are scaled to a
    leading 1 by ``Fraction`` division.  A vector may come with an augmented
    part, a second dict over its own keys that undergoes the same row
    operations but never supplies a pivot: that turns span-membership tests
    into solvers (the residual's augmented part is the certificate
    combination).  Give every inserted vector an augmented part, or none.
    """

    def __init__(self):
        self.pivots: dict[object, dict] = {}
        self.augmented: dict[object, dict] = {}

    def reduce(self, vec: dict, aug: dict | None = None) -> dict:
        """Residual of ``vec`` against the current pivots; does not insert.

        ``aug``, if given, is ``vec``'s augmented part and is updated in place.
        """
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            c = min(vec)
            piv = self.pivots.get(c)
            if piv is None:
                break
            f = -vec[c]
            for k, v in piv.items():
                _bump(vec, k, f * v)
            if aug is not None:
                for k, v in self.augmented[c].items():
                    _bump(aug, k, f * v)
        return vec

    def insert(self, vec: dict, aug: dict | None = None) -> object | None:
        """Reduce and insert; returns the new pivot key or None if dependent.

        ``aug`` is reduced in place; if ``vec`` is dependent it ends as the
        combination giving zero, else it becomes the pivot's augmented part.
        """
        vec = self.reduce(vec, aug)
        if not vec:
            return None
        c = min(vec)
        if vec[c] != 1:
            # Fraction, not 1 / int: integer input must not give float pivots
            inv = 1 / Fraction(vec[c])
            vec = {k: v * inv for k, v in vec.items()}
            if aug is not None:
                aug = {k: v * inv for k, v in aug.items()}
        self.pivots[c] = vec
        if aug is not None:
            self.augmented[c] = aug
        return c

    @property
    def rank(self) -> int:
        return len(self.pivots)


def kernel_basis(vectors: list[dict]) -> list[Row]:
    """Primitive integer x, n - rank of them, with sum_i x[i] * vectors[i] = 0.

    Rows [s_i * vectors[i] | e_i], s_i the common denominator of vector i,
    are eliminated together; unit columns sort after every key, so a pivot
    leading in them combines the scaled vectors to zero, and x[i] picks up s_i.
    """
    col = {k: q for q, k in enumerate(sorted({k for vec in vectors for k in vec}))}
    n0 = len(col)
    scales = [lcm(*(v.denominator for v in vec.values())) for vec in vectors]
    rows = [{col[k]: int(v * s) for k, v in vec.items() if v} | {n0 + i: 1}
            for i, (vec, s) in enumerate(zip(vectors, scales))]
    return [_normalize({i - n0: v * scales[i - n0] for i, v in row.items()})
            for c, row in _echelon(rows).items() if c >= n0]
