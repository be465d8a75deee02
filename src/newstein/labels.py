"""Basis labels and the space-time metric.

Greek indices run 1..4, Roman indices 1..3.  The metric is diagonal with
g_11 = g_22 = g_33 = 1 and g_44 = -1, so index lowering flips the sign of
the fourth component only.
"""

from __future__ import annotations

from dataclasses import dataclass

# Label kinds, in the canonical basis order used by every constructed algebra:
# L (6), T (4), Tp (4), C (10), A (12), Q (12), J (3), then K if present.
KINDS = ("L", "T", "Tp", "C", "A", "Q", "J", "K")


def metric(mu: int, nu: int) -> int:
    """Entry g_{mu nu} of the metric tensor, signature (+,+,+,-)."""
    if mu != nu:
        return 0
    return -1 if mu == 4 else 1


@dataclass(frozen=True, order=True)
class BasisLabel:
    """A named basis element: kind plus index tuple.

    Index conventions: L(mu,nu) with mu < nu; C(mu,nu) with mu <= nu;
    J(i,j) with i < j; A(i,mu) and Q(i,mu) with i Roman, mu Greek;
    T(mu), Tp(mu); K has no indices.
    """

    kind: str
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown label kind {self.kind!r}")
        ix = self.indices
        ok = True
        if self.kind == "L":
            ok = len(ix) == 2 and 1 <= ix[0] < ix[1] <= 4
        elif self.kind in ("T", "Tp"):
            ok = len(ix) == 1 and 1 <= ix[0] <= 4
        elif self.kind == "C":
            ok = len(ix) == 2 and 1 <= ix[0] <= ix[1] <= 4
        elif self.kind in ("A", "Q"):
            ok = len(ix) == 2 and 1 <= ix[0] <= 3 and 1 <= ix[1] <= 4
        elif self.kind == "J":
            ok = len(ix) == 2 and 1 <= ix[0] < ix[1] <= 3
        elif self.kind == "K":
            ok = len(ix) == 0
        if not ok:
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


def parse_label(text: str) -> BasisLabel:
    """Inverse of str(label), e.g. 'L12' -> L(1,2), 'Tp4' -> Tp(4)."""
    for kind in sorted(KINDS, key=len, reverse=True):
        if text.startswith(kind):
            digits = text[len(kind):]
            if digits == "" and kind == "K":
                return BasisLabel("K")
            return BasisLabel(kind, tuple(int(d) for d in digits))
    raise ValueError(f"cannot parse label {text!r}")
