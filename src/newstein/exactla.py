"""Sparse exact linear algebra over the integers, the rationals and prime fields.

Exact elimination is one fraction-free step, ``_reduce``, on gcd-normalized
integer rows; its residual is a positive multiple of the rational one.

* ``SparseExactMatrix`` holds sparse integer rows (the coboundary builders
  write them directly, see ``cohomology``) and computes ranks by online
  sparse echelon, exactly or modulo a prime.  Both ranks eliminate the rows
  in stored order and pivot on each row's last column.
* ``kernel_basis`` runs the same elimination on [vector | unit] rows and
  returns primitive integer kernel vectors.
* ``Echelon`` is its incremental form, for span membership: ``int`` or
  ``Fraction`` entries, denominators cleared on entry, primitive ``int``
  pivots, keys only mutually comparable.

``kernel_basis`` and ``Echelon`` pivot on each row's first column, since the
bases they return and the pivots they keep are pinned by their callers; a
rank is the same from either end.
"""

from __future__ import annotations

import random
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


def _combine(image_of, vec: dict) -> dict:
    """sum_k vec[k] * image_of(k) without zeros; the images are only read
    and hold no zeros."""
    out: dict = {}
    for key, c in vec.items():
        # inline, not _bump, as in _reduce
        for k, v in image_of(key).items():
            if w := out.get(k, 0) + c * v:
                out[k] = w
            else:
                del out[k]
    return out


def _integral(vec: dict) -> tuple[dict, int]:
    """(s * vec as int entries without zeros, s) for s the common denominator."""
    s = lcm(*(v.denominator for v in vec.values()))
    return {k: int(v * s) for k, v in vec.items() if v}, s


def _reduce(pivots: dict, row: dict, lead=min) -> tuple[dict, object]:
    """(gcd-normalized residual of int ``row`` against ``pivots``, each keyed
    by its ``lead`` column (``min`` or ``max``), the residual's lead column
    or None when it is zero); ``row`` is not modified."""
    row = _normalize(row)
    owned = False           # a given row is copied before it changes
    while row:
        c = lead(row)
        p = pivots.get(c)
        if p is None:
            return row, c
        a, b = row[c], p[c]
        g = gcd(a, b) if b > 0 else -gcd(a, b)
        # row * fa - p * fb clears c; fa > 0 keeps a +-1 pivot from scaling the row
        fa, fb = b // g, a // g
        if fa != 1:
            row = {k: v * fa for k, v in row.items()}
        elif not owned:
            row = dict(row)
        # inline, not _bump: a call per entry slows rank_exact by about a third
        for k, v in p.items():
            if w := row.get(k, 0) - v * fb:
                row[k] = w
            else:
                del row[k]
        row = _normalize(row)
        owned = True
    return row, None


def _echelon(rows, lead=min) -> dict[int, Row]:
    """Fraction-free sparse echelon of integer rows: leading column -> pivot row.

    Each row is reduced against the pivots so far and, unless it vanishes,
    becomes a pivot itself, keyed by its ``lead`` column (``min``: the
    first, ``max``: the last).  The given rows are never modified.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        row, c = _reduce(pivots, row, lead)
        if row:
            pivots[c] = row
    return pivots


class SparseExactMatrix:
    """Sparse matrix of integer rows, each stored up to a positive factor.

    Rows hold no zero entries: ``rank_mod_p`` keeps a row as its own pivot,
    and an update by a pivot with a stored zero would delete that column
    from a row that does not hold it.  The coboundary builders, ``d_matrix``
    and the test matrices drop zeros.
    """

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, Row] = {}

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def rank_exact(self) -> int:
        """Rank over the rationals by fraction-free sparse elimination.

        Rows are eliminated in stored order, each pivoting on its last
        column.  The builders store rows by domain wedge; on their matrices
        this takes 34-56 % of the entry updates and 67-87 % of the pivot
        entries that first-column pivots on rows sorted by length take.
        """
        return len(_echelon(self.rows.values(), max))

    def rank_mod_p(self, p: int) -> int:
        """Rank over GF(p) by sparse elimination, in stored order from each
        row's last column as ``rank_exact``.

        A pivot is its row, lead included, plus the lead's inverse mod p.
        A row whose entries all lie in [-p//2, p//2] is kept as it is: a
        stored row that no update touched is shared with ``self.rows`` and
        only read.  Builder rows, with entries in {+-1, +-2}, always are for
        p >= 5.  A row with an entry outside that range becomes its residues
        in (-p/2, p/2], zeros dropped.  Either way a pivot holds no zero.

        Updates add plain integers: a row is reduced mod p only where its
        lead is read (a lead that is 0 mod p is dropped) or where it becomes
        a pivot.  The factor is a residue in (-p/2, p/2] too, so on a pivot
        of small entries led by +-1, as most coboundary pivots are, an update
        is the exact integer one and its cancellations give true zeros.
        """
        half = p // 2
        pivots: dict[int, tuple[Row, int]] = {}
        for row in self.rows.values():
            owned = False       # a stored row is copied before it changes
            while row:
                c = max(row)
                a = row[c] % p
                piv = pivots.get(c)
                if a and piv is None:
                    if max(row.values()) > half or min(row.values()) < -half:
                        row = {k: w - p if w > half else w
                               for k, v in row.items() if (w := v % p)}
                    pivots[c] = (row, pow(a, -1, p))
                    break
                if not owned:
                    row, owned = dict(row), True
                if a:
                    prow, inv = piv
                    if (f := a * inv % p) > half:
                        f -= p
                    # inline, not _bump, and no % p: see the docstring
                    for k, v in prow.items():
                        if w := row.get(k, 0) - f * v:
                            row[k] = w
                        else:
                            del row[k]
                row.pop(c, None)    # 0 mod p now, whatever integer the update left
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
    """Incremental fraction-free reducer over arbitrary comparable keys.

    Vectors are dicts key -> int or Fraction; pivots are primitive ``int``
    rows.  A residual is zero exactly when the vector lies in the span.
    """

    def __init__(self):
        self.pivots: dict[object, dict] = {}

    def reduce(self, vec: dict) -> dict:
        """Residual of ``vec`` against the current pivots; does not insert."""
        return _reduce(self.pivots, _integral(vec)[0])[0]

    def insert(self, vec: dict) -> object | None:
        """Reduce and insert; returns the new pivot key or None if dependent."""
        vec, c = _reduce(self.pivots, _integral(vec)[0])
        if vec:
            self.pivots[c] = vec
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
    scaled = [_integral(vec) for vec in vectors]
    rows = [{col[k]: v for k, v in row.items()} | {n0 + i: 1}
            for i, (row, _) in enumerate(scaled)]
    return [_normalize({i - n0: v * scaled[i - n0][1] for i, v in row.items()})
            for c, row in _echelon(rows).items() if c >= n0]
