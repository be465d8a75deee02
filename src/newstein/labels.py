"""Basis labels and the space-time metric.

Greek indices run 1..4, Roman indices 1..3.  The metric is diagonal with
g_11 = g_22 = g_33 = 1 and g_44 = -1, so index lowering flips the sign of
the fourth component only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

# The index slots of each label kind, kinds in the canonical basis order used
# by every constructed algebra: L (6), T (4), Tp (4), C (10), A (12), Q (12),
# J (3), then K if present.  A slot "g" holds a Greek index, "d" a Roman one.
SLOTS = {"L": "gg", "T": "g", "Tp": "g", "C": "gg", "A": "dg", "Q": "dg", "J": "dd", "K": ""}
KINDS = tuple(SLOTS)
INDEX_RANGE = {"g": range(1, 5), "d": range(1, 4)}
# The sign a swap of the two indices costs: L and J are antisymmetric, C
# symmetric.  These kinds store their indices increasing, strictly for L, J.
SWAP_SIGN = {"L": -1, "C": 1, "J": -1}


def metric(mu: int, nu: int) -> int:
    """Entry g_{mu nu} of the metric tensor, signature (+,+,+,-)."""
    if mu != nu:
        return 0
    return -1 if mu == 4 else 1


def in_order(kind: str, ix: tuple[int, ...]) -> bool:
    """Whether the indices of a kind are in its stored order (see SWAP_SIGN)."""
    swap = SWAP_SIGN.get(kind)
    return swap is None or ix[0] < ix[1] or (swap > 0 and ix[0] == ix[1])


@dataclass(frozen=True, order=True)
class BasisLabel:
    """A named basis element: kind plus index tuple, one index per slot of
    SLOTS[kind] in its INDEX_RANGE, in stored order: L(mu,nu) with mu < nu,
    C(mu,nu) with mu <= nu, J(i,j) with i < j; A(i,mu) and Q(i,mu)."""

    kind: str
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        slots = SLOTS.get(self.kind)
        if slots is None:
            raise ValueError(f"unknown label kind {self.kind!r}")
        ix = self.indices
        if not (len(ix) == len(slots) and in_order(self.kind, ix)
                and all(i in INDEX_RANGE[t] for t, i in zip(slots, ix))):
            raise ValueError(f"invalid indices {ix} for kind {self.kind!r}")

    def __str__(self):
        if not self.indices:
            return self.kind
        return f"{self.kind}{''.join(str(i) for i in self.indices)}"


def L(mu: int, nu: int) -> BasisLabel:
    return BasisLabel("L", (mu, nu))


def T(mu: int) -> BasisLabel:
    return BasisLabel("T", (mu,))


def Tp(mu: int) -> BasisLabel:
    return BasisLabel("Tp", (mu,))


def C(mu: int, nu: int) -> BasisLabel:
    if mu > nu:
        mu, nu = nu, mu
    return BasisLabel("C", (mu, nu))


def A(i: int, mu: int) -> BasisLabel:
    return BasisLabel("A", (i, mu))


def Q(i: int, mu: int) -> BasisLabel:
    return BasisLabel("Q", (i, mu))


def J(i: int, j: int) -> BasisLabel:
    return BasisLabel("J", (i, j))


K = BasisLabel("K")


def basis_labels(internal: tuple[int, ...] = (1, 2, 3)) -> list[BasisLabel]:
    """The basis without K in basis order, each kind's index tuples in
    lexicographic order; Roman indices run over ``internal``."""
    ranges = {"g": INDEX_RANGE["g"], "d": internal}
    return [BasisLabel(kind, ix) for kind, slots in SLOTS.items() if kind != "K"
            for ix in product(*(ranges[t] for t in slots)) if in_order(kind, ix)]


def parse_label(text: str) -> BasisLabel:
    """Inverse of str(label), e.g. 'L12' -> L(1,2), 'Tp4' -> Tp(4)."""
    for kind in sorted(KINDS, key=len, reverse=True):
        if text.startswith(kind):
            digits = text[len(kind):]
            if digits == "" and kind == "K":
                return BasisLabel("K")
            return BasisLabel(kind, tuple(int(d) for d in digits))
    raise ValueError(f"cannot parse label {text!r}")
