"""Sparse exact linear algebra over the rationals and over prime fields.

Two layers:

* ``SparseExactMatrix`` stores integer-cleared rows and computes ranks by
  online sparse echelon, either exactly (gcd-normalized integer rows, no
  rounding anywhere) or modulo a prime.
* ``Echelon`` is a generic-key incremental reducer over ``Fraction`` used for
  kernels, span membership and preimage extraction on small and medium
  systems.  Keys only need to be mutually comparable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

Row = dict[int, int]


def _normalize(row: Row) -> Row:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class SparseExactMatrix:
    """Sparse matrix over exact rationals, stored as integer-cleared rows."""

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, Fraction]] = {}

    def add(self, r: int, c: int, value: Fraction) -> None:
        if value == 0:
            return
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry ({r},{c}) outside {self.nrows}x{self.ncols}")
        row = self.rows.setdefault(r, {})
        new = row.get(c, 0) + value
        if new == 0:
            row.pop(c, None)
            if not row:
                del self.rows[r]
        else:
            row[c] = new

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def _int_rows(self) -> list[Row]:
        """Rows with denominators cleared; values are kept un-normalized so
        mod-p reductions see the true entries."""
        out = []
        for row in self.rows.values():
            denoms = 1
            for v in row.values():
                denoms = denoms * Fraction(v).denominator // gcd(denoms, Fraction(v).denominator)
            out.append({c: int(v * denoms) for c, v in row.items()})
        return out

    def rank_exact(self) -> int:
        """Rank over the rationals by fraction-free sparse elimination."""
        pivots: dict[int, Row] = {}
        work = sorted((_normalize(r) for r in self._int_rows()), key=len)
        for row in work:
            row = dict(row)
            while row:
                c = min(row)
                p = pivots.get(c)
                if p is None:
                    pivots[c] = _normalize(row)
                    break
                a, b = row[c], p[c]
                g = gcd(a, b)
                fa, fb = b // g, a // g
                new = {}
                for k, v in row.items():
                    new[k] = v * fa
                for k, v in p.items():
                    w = new.get(k, 0) - v * fb
                    if w:
                        new[k] = w
                    else:
                        new.pop(k, None)
                row = _normalize(new)
        return len(pivots)

    def rank_mod_p(self, p: int) -> int:
        """Rank over GF(p) by sparse elimination with unit pivots."""
        pivots: dict[int, Row] = {}
        work = []
        for row in self._int_rows():
            r = {c: v % p for c, v in row.items() if v % p}
            if r:
                work.append(r)
        work.sort(key=len)
        for row in work:
            while row:
                c = min(row)
                piv = pivots.get(c)
                if piv is None:
                    inv = pow(row[c], -1, p)
                    pivots[c] = {k: (v * inv) % p for k, v in row.items()}
                    break
                f = row[c]
                new = {}
                for k, v in row.items():
                    new[k] = v
                for k, v in piv.items():
                    w = (new.get(k, 0) - f * v) % p
                    if w:
                        new[k] = w
                    else:
                        new.pop(k, None)
                row = new
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

    Vectors are dicts key -> Fraction.  Keys of the form ('#aug', i) are
    bookkeeping coordinates: they are carried through row operations but
    never chosen as pivots, which turns span-membership tests into solvers
    (the residual's augmented part is the certificate combination).
    """

    AUG = "#aug"

    def __init__(self):
        self.pivots: dict[object, dict] = {}

    @staticmethod
    def _is_real(key) -> bool:
        return not (isinstance(key, tuple) and len(key) == 2 and key[0] == Echelon.AUG)

    def reduce(self, vec: dict) -> dict:
        """Reduce ``vec`` against the current pivots; does not insert."""
        vec = {k: Fraction(v) for k, v in vec.items() if v != 0}
        while True:
            real = [k for k in vec if self._is_real(k)]
            if not real:
                return vec
            c = min(real)
            piv = self.pivots.get(c)
            if piv is None:
                return vec
            f = vec[c]
            for k, v in piv.items():
                w = vec.get(k, 0) - f * v
                if w:
                    vec[k] = w
                else:
                    vec.pop(k, None)

    def insert(self, vec: dict) -> object | None:
        """Reduce and insert; returns the new pivot key or None if dependent."""
        vec = self.reduce(vec)
        real = [k for k in vec if self._is_real(k)]
        if not real:
            return None
        c = min(real)
        inv = 1 / vec[c]
        self.pivots[c] = {k: v * inv for k, v in vec.items()}
        return c

    @property
    def rank(self) -> int:
        return len(self.pivots)


def kernel_basis(vectors: list[dict]) -> list[dict[int, Fraction]]:
    """Kernel of the linear map sending unit i to ``vectors[i]``.

    Returns sparse coefficient dicts x with sum_i x[i] * vectors[i] = 0.
    """
    ech = Echelon()
    out = []
    for i, vec in enumerate(vectors):
        aug = dict(vec)
        aug[(Echelon.AUG, i)] = Fraction(1)
        res = ech.reduce(aug)
        if all(not Echelon._is_real(k) for k in res):
            out.append({k[1]: v for k, v in res.items()})
        else:
            ech.insert(res)
    return out


def span_contains(span_vectors: list[dict], target: dict) -> dict[int, Fraction] | None:
    """Coefficients expressing ``target`` in the span, or None.

    The certificate c satisfies sum_i c[i] * span_vectors[i] = target.
    """
    ech = Echelon()
    for i, vec in enumerate(span_vectors):
        aug = dict(vec)
        aug[(Echelon.AUG, i)] = Fraction(1)
        ech.insert(aug)
    res = ech.reduce(dict(target))
    if any(Echelon._is_real(k) for k in res):
        return None
    return {k[1]: -v for k, v in res.items()}
