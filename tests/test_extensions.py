"""Classification of the nine extension cases and the derivation calculus."""

import random
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest

from newstein import labels as lb
from newstein.algebras import build_extended, build_newstein
from newstein.cohomology import CochainComplex, CoefficientModule
from newstein.extensions import (ExtensionClass, ExtensionMatrix, InvalidExtensionParameter,
                                 canonical_matrices, case_matrix, classify,
                                 derivation_from_matrix, equivalent)

from oracles import extension_class_realized

F = Fraction


@pytest.fixture(scope="module")
def G():
    return build_newstein()


def conj(L, P):
    """P L P^-1 for 2x2 rational matrices given as ExtensionMatrix/rows."""
    (a, b), (c, d) = P
    det = a * d - b * c
    (w, x), (y, z) = L.rows()
    m00 = a * w + b * y
    m01 = a * x + b * z
    m10 = c * w + d * y
    m11 = c * x + d * z
    n00 = (m00 * d - m01 * c) / det
    n01 = (-m00 * b + m01 * a) / det
    n10 = (m10 * d - m11 * c) / det
    n11 = (-m10 * b + m11 * a) / det
    return ExtensionMatrix(n00, n01, n10, n11)


def _printed(case, zeta2=None, cos_sin=None):
    """The case's bracket-list matrix at zeta^2 (cases 3-5) or (cos, sin) (case 9)."""
    z, (c, s) = zeta2, cos_sin or (None, None)
    rows = {3: lambda: ((z, 0), (0, -1 / z)), 4: lambda: ((z, 0), (0, 1 / z)),
            5: lambda: ((z, 0), (0, 0)), 9: lambda: ((c, s), (-s, c))}
    return ExtensionMatrix.from_rows(rows[case]()) if case in rows else canonical_matrices()[case]


def test_zero_matrix_is_case_one():
    assert classify(ExtensionMatrix.from_rows(((0, 0), (0, 0)))).case == 1


def test_spot_classifications():
    assert classify(ExtensionMatrix.from_rows(((1, 0), (0, -1)))).case == 2
    assert classify(ExtensionMatrix.from_rows(((0, 1), (-1, 0)))).case == 7
    assert classify(ExtensionMatrix.from_rows(((0, -1), (0, 0)))).case == 6
    assert classify(ExtensionMatrix.from_rows(((0, 0), (-1, 0)))).case == 6
    c5 = classify(ExtensionMatrix.from_rows(((3, 0), (0, 0))))
    assert c5.case == 5 and c5.zeta2 == 1
    c5n = classify(ExtensionMatrix.from_rows(((-3, 0), (0, 0))))
    assert c5n.case == 5 and c5n.zeta2 == -1
    # a hair from an excluded value: zeta^2 near 1, cos phi near 0
    for entries, case in ((("1e-30", 1, 1, 0), 3), (("1e-17", 1, 1, 0), 3),
                          (("1e-400", 1, -1, "1e-400"), 9)):
        assert classify(ExtensionMatrix(*map(F, entries))).case == case


def test_canonical_matrices_classify_to_their_own_cases():
    reps = canonical_matrices()
    for case, mat in reps.items():
        got = classify(mat)
        if case == 8:
            # the printed case-(8) list is triangular with eigenvalues
            # (cos phi, 1); after rescaling it is a real distinct pair,
            # which the decision table files under case (4)
            assert got.case == 4
        else:
            assert got.case == case


def test_case3_and_case4_parameters_recovered():
    c3 = classify(_printed(3, zeta2=F(2)))
    assert c3.case == 3 and c3.zeta2 == 2
    c4 = classify(_printed(4, zeta2=F(2)))
    assert c4.case == 4 and c4.zeta2 == 2
    # eigenvalue-swap identification: zeta^2 = 1/2 reports the dominant 2
    c4b = classify(_printed(4, zeta2=F(1, 2)))
    assert c4b.zeta2 == 2
    # negative pairs are case 4 with negative zeta^2
    c4n = classify(ExtensionMatrix.from_rows(((-2, 0), (0, F(-1, 2)))))
    assert c4n.case == 4 and c4n.zeta2 == -2


def test_case9_parameters_recovered_exactly_for_rational_points():
    c9 = classify(_printed(9, cos_sin=(F(3, 5), F(4, 5))))
    assert c9.case == 9
    assert c9.cos_sin == (F(3, 5), F(4, 5))


def test_defective_unipotent_is_flagged_into_slot_eight():
    got = classify(ExtensionMatrix.from_rows(((1, 1), (0, 1))))
    assert got.case == 8
    assert "defective" in got.jordan_type
    assert got.note != ""
    neg = classify(ExtensionMatrix.from_rows(((-1, 1), (0, -1))))
    assert neg.case == 8 and neg.zeta2 == -1


@pytest.mark.parametrize("case", [3, 4, 5, 8, 9])
def test_case_matrix_refuses_missing_parameters(case):
    """q, which carries zeta^2 for cases 3-5 and (cos, sin) for 8-9, has no
    default; the case-8 slot, whose q is +-4, still has no matrix."""
    with pytest.raises(TypeError):
        ExtensionClass(case)
    if case == 8:
        with pytest.raises(InvalidExtensionParameter, match="no printed matrix"):
            case_matrix(ExtensionClass(8, 4))


@pytest.mark.parametrize("case,params", [
    (3, {"zeta2": 1.0}), (3, {"zeta2": -1.0}), (3, {"zeta2": 0.0}),
    (4, {"zeta2": 0.0}), (5, {"zeta2": 0.0}),
    (9, {"cos_sin": (0.0, 1.0)}), (9, {"cos_sin": (1.0, 0.0)}), (9, {"cos_sin": (-1.0, 0.0)}),
])
def test_case_matrix_refuses_floats_on_excluded_values(case, params):
    """An excluded parameter, also as a float, names no class of its case:
    its printed matrix divides by zero (zeta^2 = 0 of cases 3 and 4), or its
    q is outside the case's table (q = 0 for zeta^2 = +-1 of case 3, zeta^2
    = 0 of case 5 and cos phi = 0 of case 9; q = +-4 for cos phi = +-1)."""
    try:
        q = _printed(case, **params).q
    except ZeroDivisionError:
        assert case in (3, 4) and params == {"zeta2": 0.0}
        return
    with pytest.raises(InvalidExtensionParameter, match=f"case {case} has"):
        ExtensionClass(case, q)


@pytest.mark.parametrize("case,params,q", [
    (3, {"zeta2": 2}, 7), (1, {}, 1), (2, {}, F(1, 2)), (5, {"zeta2": 2}, -1),
    (7, {}, -1), (9, {"cos_sin": (F(3, 5), F(4, 5))}, 1),
])
def test_q_contradicting_the_parameters_is_refused(case, params, q):
    """A class is (case, q), so parameters and a q can no longer disagree:
    the parameters' matrix has another q (diag(2, -1/2), case 3 at
    zeta^2 = 2, has q = 9/4, not 7), and the q given is refused by its case's
    table or names a class that reports its own parameters."""
    assert _printed(case, **params).q != q
    if not params:   # cases 1, 2 and 7 take only q = 0
        with pytest.raises(InvalidExtensionParameter):
            ExtensionClass(case, q)
        return
    cls = ExtensionClass(case, q)
    assert all(getattr(cls, name) != value for name, value in params.items()), cls


@pytest.mark.parametrize("case", range(11))
def test_constructor_decides_as_the_hand_written_rules(case):
    """The constructor's q table accepts exactly the (case, q) that one of a
    hand-written list of witness matrices realizes, on a grid of exact and
    float q; every accepted class but the case-8 slot also has a matrix of
    its own class."""
    qs = sorted({F(n, d) for n in range(-25, 26) for d in range(1, 9)})
    decisions = set()
    for q in qs + [0.0, -4.0, 2.5, 1e-30]:
        try:
            cls = ExtensionClass(case, q)
            valid = True
        except InvalidExtensionParameter:
            valid = False
        assert valid == extension_class_realized(case, q), (case, q)
        if valid and case != 8:
            assert classify(case_matrix(cls)) == cls, cls
        decisions.add(valid)
    assert decisions == ({True, False} if case in range(1, 10) else {False})


def test_q_agreeing_with_the_parameters_is_kept():
    """q is class-invariant: zeta^2 = 1/2 and 2 give the same case-4 class,
    which reports zeta^2 = 2; (cos, sin) = (3/5, 4/5) gives q = 36/25."""
    for z in (F(1, 2), F(2)):
        assert classify(_printed(4, zeta2=z)) == ExtensionClass(4, F(25, 4))
    assert ExtensionClass(4, F(25, 4)).zeta2 == 2
    nine = classify(_printed(9, cos_sin=(F(3, 5), F(4, 5))))
    assert nine == ExtensionClass(9, F(36, 25)) and nine.cos_sin == (F(3, 5), F(4, 5))


def test_a_class_is_exactly_its_case_and_q():
    """The fields are (case, q), frozen; the slot's zeta^2 = q/4 is read off
    q, so a slot class with another zeta^2, such as zeta^2 = 5 at q = 4,
    cannot be written."""
    assert [f.name for f in fields(ExtensionClass)] == ["case", "q"]
    with pytest.raises(TypeError):
        ExtensionClass(8, zeta2=5, q=4)
    slot = ExtensionClass(8, 4)
    assert slot.zeta2 == 1 and slot == classify(ExtensionMatrix.from_rows(((1, 1), (0, 1))))
    with pytest.raises(FrozenInstanceError):
        slot.q = F(5)


@pytest.mark.parametrize("sign", [1, -1])
def test_scalar_case4_class_is_plus_or_minus_identity(sign):
    """(4, +-4) is the class of +-I: it builds, and its matrix is +-I."""
    cls = ExtensionClass(4, 4 * sign)
    identity = ExtensionMatrix.from_rows(((sign, 0), (0, sign)))
    assert case_matrix(cls) == identity
    assert classify(identity) == cls
    assert (cls.zeta2, cls.jordan_type) == (sign, "scalar")


def test_every_classified_class_holds_its_matrix_q():
    """classify builds valid classes (its case's table holds the matrix's q),
    and each one's q is the input's; but for the slot it has a matrix of
    its own class."""
    rng = random.Random(11)
    mats = list(canonical_matrices().values()) + [
        ExtensionMatrix(*(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)))
        for _ in range(300)]
    for L in mats:
        cls = classify(L)
        assert cls.q == L.q, L
        if cls.case != 8:
            assert classify(case_matrix(cls)) == cls, (L, cls)


def test_classified_boundary_matrices_build_their_own_case():
    """Near a case boundary the exact class stays in its case, so it builds
    that case; only the defective slot's class has no matrix and refuses,
    while the defective matrix itself builds an algebra named by its slot."""
    for entries, case in ((("1e-30", 1, 1, 0), 3), (("1e-17", 1, 1, 0), 3),
                          (("1e-400", 1, -1, "1e-400"), 9)):
        cls = classify(ExtensionMatrix(*map(F, entries)))
        assert cls.case == case and classify(case_matrix(cls)) == cls
        assert build_extended(case_matrix(cls)).name == f"newstein-ext:{case}"
    defective = ExtensionMatrix.from_rows(((1, 1), (0, 1)))
    with pytest.raises(InvalidExtensionParameter):
        case_matrix(classify(defective))
    assert build_extended(defective).name == "newstein-ext:8"


def test_equivalence_is_exact():
    """A 1e-12 change of one entry moves q = tr|tr|/|det|, so the classes differ."""
    golden = ExtensionMatrix.from_rows(((1, 1), (1, 0)))
    assert not equivalent(golden, ExtensionMatrix.from_rows(((1 + F(1, 10**12), 1), (1, 0))))
    assert equivalent(golden, ExtensionMatrix.from_rows(((F(1, 3), F(1, 3)), (F(1, 3), 0))))


@pytest.mark.parametrize("entries", [(1, 2, 3, 4), ("-1/2", 0, 0, 1), (1, 0, 0, 3), (2, 1, -1, 1),
                                     ("1e-30", 1, 1, 0), ("1e-17", 1, 1, 0),
                                     ("1e-400", 1, -1, "1e-400")])
def test_irrational_and_boundary_classes_rebuild_exactly(G, entries):
    """zeta^2 or cos phi irrational, or a hair from an excluded value: the
    class's matrix is equivalent to the input and builds a Jacobi algebra."""
    L = ExtensionMatrix(*map(F, entries))
    cls = classify(L)
    assert equivalent(L, case_matrix(cls)), cls
    assert build_extended(case_matrix(cls), base=G).jacobi_check() == []


def test_case_matrix_round_trips_through_classify_seeded():
    """classify(case_matrix(c)) == c for c the class of a scaled integer
    conjugate of a printed case-1..7 or case-9 matrix (the printed case-8
    matrix classifies as case 4, and the defective slot has no matrix)."""
    rng = random.Random(2020)
    params = {3: [F(2), F(1, 3), F(-5, 2)], 4: [F(2), F(-1, 2), F(1), F(-1)],
              5: [F(3), F(-2, 7)],
              9: [(F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13)), (F(8, 17), F(15, 17))]}
    seen = set()
    count = 0
    while count < 300:
        case = rng.choice([1, 2, 3, 4, 5, 6, 7, 9])
        if case in (3, 4, 5):
            base = _printed(case, zeta2=rng.choice(params[case]))
        elif case == 9:
            base = _printed(case, cos_sin=rng.choice(params[case]))
        else:
            base = canonical_matrices()[case]
        P = ((F(rng.randint(-5, 5)), F(rng.randint(-5, 5))),
             (F(rng.randint(-5, 5)), F(rng.randint(-5, 5))))
        if P[0][0] * P[1][1] - P[0][1] * P[1][0] == 0:
            continue
        k = rng.randint(1, 4)
        M = conj(base, P)
        got = classify(ExtensionMatrix(k * M.beta, k * M.beta_p, k * M.gamma, k * M.gamma_p))
        assert got.case == case, (base, P, k)
        assert classify(case_matrix(got)) == got, (base, P, k, got)
        seen.add(case)
        count += 1
    assert seen == {1, 2, 3, 4, 5, 6, 7, 9}


def test_similarity_conjugates_preserve_class_seeded():
    rng = random.Random(2024)
    reps = canonical_matrices()
    count = 0
    while count < 1000:
        case = rng.randint(1, 9)
        if case == 8:
            continue
        base = reps[case]
        P = ((F(rng.randint(-5, 5)), F(rng.randint(-5, 5))),
             (F(rng.randint(-5, 5)), F(rng.randint(-5, 5))))
        if P[0][0] * P[1][1] - P[0][1] * P[1][0] == 0:
            continue
        got = classify(conj(base, P))
        assert got.case == classify(base).case, (case, P)
        assert equivalent(base, conj(base, P))
        count += 1


def test_positive_scaling_is_absorbed_when_det_nonzero():
    for case in (2, 3, 4, 7, 9):
        base = canonical_matrices()[case]
        scaled = ExtensionMatrix(3 * base.beta, 3 * base.beta_p,
                                 3 * base.gamma, 3 * base.gamma_p)
        assert equivalent(base, scaled)


def test_distinct_cases_are_inequivalent():
    reps = canonical_matrices()
    keys = [k for k in reps if k != 8]
    for a in keys:
        for b in keys:
            if a < b:
                assert not equivalent(reps[a], reps[b]), (a, b)


def test_every_real_two_by_two_classifies():
    rng = random.Random(5)
    for _ in range(300):
        L = ExtensionMatrix.from_rows(
            ((F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3))),
             (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3)))))
        got = classify(L)
        assert got.case in range(1, 10)


def test_derivation_from_matrix_is_a_derivation(G):
    """(d phi)(x, y) = [x, phi y] + [phi x, y] - phi [x, y] vanishes."""
    cx = CochainComplex(G, CoefficientModule.adjoint(G))
    rng = random.Random(31)
    for _ in range(3):
        L = ExtensionMatrix.from_rows(
            ((F(rng.randint(-4, 4)), F(rng.randint(-4, 4))),
             (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))))
        phi = derivation_from_matrix(L, G)
        assert cx.d_apply({((p,), m): c for p, col in phi.items() for m, c in col.items()}) == {}
    # A_11 -> A_11 alone breaks the Leibniz rule on [L, A] and [A, Q]
    a11 = G.index[lb.A(1, 1)]
    assert cx.d_apply({((a11,), a11): 1}) != {}


def test_derivation_case7_action(G):
    phi = derivation_from_matrix(ExtensionMatrix.from_rows(((0, 1), (-1, 0))), G)
    a = G.index[lb.A(2, 3)]
    q = G.index[lb.Q(2, 3)]
    assert phi[a] == {q: F(-1)}
    assert phi[q] == {a: F(1)}
    c = G.index[lb.C(1, 2)]
    assert c not in phi


def test_zero_matrix_gives_zero_map(G):
    assert derivation_from_matrix(ExtensionMatrix.from_rows(((0, 0), (0, 0))), G) == {}


def test_leibniz_spot_check_on_aq_pair(G):
    L = ExtensionMatrix.from_rows(((2, -1), (F(1, 2), 3)))
    phi = derivation_from_matrix(L, G)

    def apply(vec):
        out = {}
        for k, c in vec.items():
            for m, d in phi.get(k, {}).items():
                out[m] = out.get(m, 0) + c * d
        return {k: v for k, v in out.items() if v}

    a, q = G.index[lb.A(1, 1)], G.index[lb.Q(1, 2)]
    lhs = apply(G.bracket_basis(a, q))
    rhs = G.bracket_vec(apply({a: F(1)}), {q: F(1)})
    for k, v in G.bracket_vec({a: F(1)}, apply({q: F(1)})).items():
        rhs[k] = rhs.get(k, 0) + v
    assert lhs == {k: v for k, v in rhs.items() if v}


def test_roundtrip_build_matches_direct_extension_up_to_plane_basis_change(G):
    """classify then rebuild, witnessed without q: for M the class's matrix,
    L^2 is similar to k M^2 with k = |det L| / |det M| ((tr L / tr M)^2 when
    det = 0), and det and tr keep their signs."""
    rng = random.Random(77)
    from newstein.algebras import build_extended

    def sign(x):
        return (x > 0) - (x < 0)

    tried = 0
    while tried < 6:
        L = ExtensionMatrix.from_rows(
            ((F(rng.randint(-3, 3)), F(rng.randint(-3, 3))),
             (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))))
        cls = classify(L)
        if cls.case == 8:
            continue
        tried += 1
        M = case_matrix(cls)
        k = (abs(L.det / M.det) if L.det else (L.trace / M.trace) ** 2 if L.trace else F(1))
        assert _similar(_square(L), _square(M, k)), (L, cls)
        assert (sign(L.det), sign(L.trace)) == (sign(M.det), sign(M.trace)), (L, cls)
        ext = build_extended(M, base=G)
        assert ext.jacobi_check() == []


def _square(A: ExtensionMatrix, k=1) -> ExtensionMatrix:
    """k A^2."""
    (a, b), (c, d) = A.rows()
    return ExtensionMatrix(k * (a * a + b * c), k * (a * b + b * d),
                           k * (c * a + d * c), k * (c * b + d * d))


def _similar(A: ExtensionMatrix, B: ExtensionMatrix) -> bool:
    """Existence of invertible P with P A = B P, by exact linear algebra."""
    (a11, a12), (a21, a22) = A.rows()
    (b11, b12), (b21, b22) = B.rows()
    rows = [
        [a11 - b11, a21, -b12, 0],
        [a12, a22 - b11, 0, -b12],
        [-b21, 0, a11 - b22, a21],
        [0, -b21, a12, a22 - b22],
    ]
    from oracles import dense_rank

    rank = dense_rank(rows)
    if rank == 4:
        return False
    # search the null space for an invertible combination
    import itertools

    from newstein.exactla import kernel_basis

    cols = [{r: rows[r][c] for r in range(4) if rows[r][c]} for c in range(4)]
    basis = kernel_basis(cols)
    for coeffs in itertools.product((F(0), F(1), F(-1), F(2)), repeat=len(basis)):
        p = [F(0)] * 4
        for w, vec in zip(coeffs, basis):
            for k, v in vec.items():
                p[k] += w * v
        if p[0] * p[3] - p[1] * p[2] != 0:
            return True
    return False
