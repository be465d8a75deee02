"""Finite-dimensional Lie algebras over exact rationals.

An algebra is a labeled basis plus sparse structure constants, stored only
for index pairs i < j; the (j, i) bracket is derived by negation so
antisymmetry holds by construction.  All arithmetic in this module is exact
(``fractions.Fraction``); nothing here touches floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .exactla import kernel_basis
from .labels import BasisLabel, parse_label


class MismatchedAlgebraError(ValueError):
    """Raised when elements of different algebras are combined."""


def _parse_any(text: str):
    """Structured label if the text parses as one, else the raw string.

    Lets generic algebras (heisenberg, sl2, user files) use free-form basis
    names alongside the structured labels of the main family.
    """
    try:
        return parse_label(text)
    except (ValueError, IndexError):
        return text


SparseVec = dict[int, Fraction]


def _field(doc: dict, key: str, kinds):
    """``doc[key]``, or ``ValueError`` naming a field that is missing or not of ``kinds``."""
    if key not in doc:
        raise ValueError(f"algebra definition lacks the {key!r} field")
    value = doc[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(f"algebra definition field {key!r} has the wrong type: {value!r}")
    return value


def _listed(doc: dict, key: str, kind) -> list:
    """``doc[key]`` as a list whose items are all of ``kind``, else ``ValueError``."""
    items = _field(doc, key, list)
    for item in items:
        if not isinstance(item, kind):
            raise ValueError(f"algebra definition field {key!r} holds {item!r}, "
                             f"expected {kind.__name__} items")
    return items


class LieAlgebra:
    """Labeled basis with sparse exact structure constants.

    ``constants[(i, j)]`` for i < j maps basis index k to the coefficient of
    e_k in [e_i, e_j].  Use :meth:`bracket_basis` to read brackets for any
    index order.
    """

    def __init__(self, name: str, labels: list,
                 constants: dict[tuple[int, int], SparseVec]):
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        self.name = name
        self.labels = tuple(labels)
        self.dim = len(labels)
        self.index = {lab: i for i, lab in enumerate(labels)}
        cleaned: dict[tuple[int, int], SparseVec] = {}
        for (i, j), vec in constants.items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"constants key ({i},{j}) must satisfy 0 <= i < j < dim")
            entries = {k: Fraction(v) for k, v in vec.items() if v != 0}
            for k in entries:
                if not 0 <= k < self.dim:
                    raise ValueError(f"target index {k} out of range")
            if entries:
                cleaned[(i, j)] = entries
        self.constants = cleaned

    # -- bracket ---------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        """[e_i, e_j] as a fresh sparse coefficient vector."""
        if i == j:
            return {}
        if i < j:
            return dict(self.constants.get((i, j), {}))
        return {k: -v for k, v in self.constants.get((j, i), {}).items()}

    @cached_property
    def _ad(self) -> list[dict[int, SparseVec]]:
        """ad(e_i) columns for every i, built once; see :meth:`ad_columns`."""
        return [{j: b for j in range(self.dim) if (b := self.bracket_basis(i, j))}
                for i in range(self.dim)]

    def bracket_vec(self, x: SparseVec, y: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for i, xi in x.items():
            cols = self._ad[i]
            for j, yj in y.items():
                coeff = xi * yj
                if j not in cols or coeff == 0:
                    continue
                for k, c in cols[j].items():
                    new = out.get(k, 0) + coeff * c
                    if new:
                        out[k] = new
                    else:
                        out.pop(k, None)
        return out

    def bracket(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        if x.algebra is not self or y.algebra is not self:
            raise MismatchedAlgebraError("elements index different bases")
        return AlgebraElement(self, self.bracket_vec(x.coeffs, y.coeffs))

    def element(self, coeffs: dict[BasisLabel | int, Fraction | int]) -> "AlgebraElement":
        vec: SparseVec = {}
        for key, v in coeffs.items():
            i = key if isinstance(key, int) else self.index[key]
            if v != 0:
                vec[i] = vec.get(i, Fraction(0)) + Fraction(v)
        return AlgebraElement(self, {k: v for k, v in vec.items() if v != 0})

    def basis_element(self, label: BasisLabel) -> "AlgebraElement":
        return AlgebraElement(self, {self.index[label]: Fraction(1)})

    # -- derived maps ----------------------------------------------------

    def adjoint(self, x: "AlgebraElement | SparseVec") -> list[list[Fraction]]:
        """Matrix of ad(x) = [x, .] in the fixed basis (rows index outputs)."""
        vec = x.coeffs if isinstance(x, AlgebraElement) else x
        mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, xi in vec.items():
            for j, col in self._ad[i].items():
                for k, c in col.items():
                    mat[k][j] += xi * c
        return mat

    def ad_columns(self, i: int) -> dict[int, SparseVec]:
        """Sparse columns of ad(e_i): maps j -> [e_i, e_j] (nonzero only).

        The table is built once per algebra, on first use, and every call
        returns the same dict: callers share it and its vectors and must
        not modify them (copy first, or use :meth:`bracket_basis`, which
        returns a fresh dict).
        """
        return self._ad[i]

    def centralizer(self, generators: list["AlgebraElement"]) -> list["AlgebraElement"]:
        """Basis of {x : [g, x] = 0 for every listed g}, exact null space."""
        for g in generators:
            if g.algebra is not self:
                raise MismatchedAlgebraError("generator from a different algebra")
        columns = []
        for j in range(self.dim):
            img: dict = {}
            for gi, g in enumerate(generators):
                for k, c in self.bracket_vec(g.coeffs, {j: Fraction(1)}).items():
                    img[(gi, k)] = img.get((gi, k), 0) + c
            columns.append({k: v for k, v in img.items() if v != 0})
        return [AlgebraElement(self, vec) for vec in kernel_basis(columns)]

    def jacobi_check(self) -> list[tuple[int, int, int]]:
        """All basis triples i < j < k violating the Jacobi identity, sorted.

        By multilinearity and built-in antisymmetry, strictly increasing
        triples suffice; triples with a repeated index vanish identically.
        """
        violations = []
        pair_brackets = self.constants
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                bij = pair_brackets.get((i, j))
                for k in range(j + 1, self.dim):
                    acc: SparseVec = {}
                    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
                    for inner, outer, sign in (
                        (bij, k, 1),
                        (pair_brackets.get((j, k)), i, 1),
                        (pair_brackets.get((i, k)), j, -1),
                    ):
                        if not inner:
                            continue
                        for m, c in inner.items():
                            for t, d in self._ad[m].get(outer, {}).items():
                                new = acc.get(t, 0) + sign * c * d
                                if new:
                                    acc[t] = new
                                else:
                                    acc.pop(t, None)
                    if acc:
                        violations.append((i, j, k))
        return violations

    # -- serialization ---------------------------------------------------

    def to_definition(self) -> dict:
        """Algebra-definition document: {name, dimension, labels, constants}."""
        constants = []
        for (i, j) in sorted(self.constants):
            terms = [
                {"k": k, "coeff": str(Fraction(v))}
                for k, v in sorted(self.constants[(i, j)].items())
            ]
            constants.append({"i": i, "j": j, "terms": terms})
        return {
            "name": self.name,
            "dimension": self.dim,
            "labels": [str(lab) for lab in self.labels],
            "constants": constants,
        }

    @classmethod
    def from_definition(cls, doc: dict) -> "LieAlgebra":
        """Inverse of :meth:`to_definition`.

        A missing or wrongly typed field, a repeated (i, j) pair and a
        repeated target k within one entry raise ``ValueError`` naming it.
        """
        if not isinstance(doc, dict):
            raise ValueError("algebra definition must be a JSON object")
        labels = [_parse_any(s) for s in _listed(doc, "labels", str)]
        if len(labels) != _field(doc, "dimension", int):
            raise ValueError("dimension field does not match label count")
        constants: dict[tuple[int, int], SparseVec] = {}
        for entry in _listed(doc, "constants", dict):
            key = (_field(entry, "i", int), _field(entry, "j", int))
            if key in constants:
                raise ValueError(f"algebra definition repeats the constants entry for (i, j) = {key}")
            terms = constants[key] = {}
            for term in _listed(entry, "terms", dict):
                k = _field(term, "k", int)
                if k in terms:
                    raise ValueError(f"constants entry (i, j) = {key} repeats the target k = {k}")
                terms[k] = Fraction(_field(term, "coeff", (str, int)))
        return cls(_field(doc, "name", str), labels, constants)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_definition(), indent=1) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "LieAlgebra":
        return cls.from_definition(json.loads(Path(path).read_text()))

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


class AlgebraElement:
    """Sparse vector over an algebra's basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: LieAlgebra, coeffs: SparseVec):
        self.algebra = algebra
        self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.algebra is not other.algebra:
            raise MismatchedAlgebraError("elements index different bases")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            new = out.get(k, 0) + v
            if new:
                out[k] = new
            else:
                out.pop(k, None)
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar) -> "AlgebraElement":
        s = Fraction(scalar)
        return AlgebraElement(self.algebra, {k: s * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.algebra is other.algebra
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, label: BasisLabel) -> Fraction:
        return self.coeffs.get(self.algebra.index[label], Fraction(0))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            lab = str(self.algebra.labels[k])
            parts.append(lab if c == 1 else f"({c})*{lab}")
        return " + ".join(parts)
