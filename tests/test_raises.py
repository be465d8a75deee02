"""Every documented refusal raises its own exception type."""

import numpy as np
import pytest

from newstein import labels as lb
from newstein.algebras import build_newstein, heisenberg3, sl2
from newstein.cohomology import (CochainComplex, CoefficientModule, betti, h1_via_reduction,
                                 invariant_cochains)
from newstein.extensions import ExtensionClass, InvalidExtensionParameter
from newstein.grouplaw import one_parameter, rotation_section, sphere_point
from newstein.liealg import LieAlgebra, MismatchedAlgebraError
from newstein.oscillator import (FockBasis, OscillatorOperator, RepParams, SamplePoint,
                                 external_generator)

from oracles import rebased, sl2_on_irreducible


@pytest.fixture(scope="module")
def G():
    return build_newstein()


def _definition_with_wrong_dimension(G):
    doc = heisenberg3().to_definition()
    doc["dimension"] = 4
    return LieAlgebra.from_definition(doc)


def _foreign_sum(G):
    return heisenberg3().basis_element("p") + sl2().basis_element("h")


def _foreign_centralizer(G):
    return heisenberg3().centralizer([sl2().basis_element("h")])


def _point():
    return SamplePoint(xi=np.array([0.0, 0.0, 0.0, 1.0]), eta=np.array([0.0, 0.0, 1.0]),
                       z=np.zeros(3))


CASES = {
    "not-a-subalgebra": (ValueError, "not a subalgebra", lambda G: CochainComplex(
        G, CoefficientModule.trivial(), [G.index[lb.L(1, 2)], G.index[lb.T(1)]])),
    "negative-degree": (ValueError, "non-negative",
                        lambda G: betti(sl2(), CoefficientModule.trivial(), -1)),
    "reduction-degree-3": (ValueError, "degrees 0, 1 and 2", lambda G: invariant_cochains(G, 3)),
    # sl2 ⋉ V_1 with v0 -> v0 + h: the radical is not spanned by basis vectors
    "reduction-unaligned-radical": (ValueError, "not spanned by basis vectors", lambda G: (
        h1_via_reduction(rebased(sl2_on_irreducible(1), "sl2-V1", 3, 0)))),
    # ... with e -> e + v0: the Levi positions h, e, f do not span a subalgebra
    "reduction-method-unclosed-levi": (ValueError, "do not span a subalgebra", lambda G: betti(
        alg := rebased(sl2_on_irreducible(1), "sl2-V1", 1, 3), CoefficientModule.adjoint(alg), 1,
        method="reduction")),
    "primes-exact": (ValueError, "modular method, not to 'exact'", lambda G: betti(
        heisenberg3(), CoefficientModule.trivial(), 1, method="exact", primes=[4, 6, 8])),
    "primes-reduction": (ValueError, "modular method, not to 'reduction'", lambda G: betti(
        G, CoefficientModule.adjoint(G), 1, method="reduction", primes=[4, 6, 8])),
    "foreign-module-degree-0": (ValueError, "of 'sl2' do not act on 'h3'", lambda G: betti(
        heisenberg3(), CoefficientModule.adjoint(sl2()), 0)),
    "foreign-module-degree-1": (ValueError, "of 'sl2' do not act on 'h3'", lambda G: betti(
        heisenberg3(), CoefficientModule.adjoint(sl2()), 1)),
    "foreign-module-reduction": (ValueError, "of 'sl2' do not act on 'newstein'", lambda G: betti(
        G, CoefficientModule.adjoint(sl2()), 1, method="reduction")),
    "case-0": (InvalidExtensionParameter, "not in 1..9", lambda G: ExtensionClass(0, 0)),
    "case-10": (InvalidExtensionParameter, "not in 1..9", lambda G: ExtensionClass(10, 0)),
    "case-3-zero-q": (InvalidExtensionParameter, r"case 3 has q != 0, not q = 0",
                      lambda G: ExtensionClass(3, 0)),
    "case-4-small-q": (InvalidExtensionParameter, r"case 4 has \|q\| >= 4, not q = 3",
                       lambda G: ExtensionClass(4, 3)),
    "case-5-large-q": (InvalidExtensionParameter, r"case 5 has \|q\| = 1, not q = 7",
                       lambda G: ExtensionClass(5, 7)),
    "case-8-slot-q": (InvalidExtensionParameter, r"case 8 has \|q\| = 4, not q = 0",
                      lambda G: ExtensionClass(8, 0)),
    "case-9-q-four": (InvalidExtensionParameter, r"case 9 has 0 < \|q\| < 4, not q = -4",
                      lambda G: ExtensionClass(9, -4)),
    "label-kind": (ValueError, "unknown label kind", lambda G: lb.BasisLabel("X")),
    "one-parameter-K": (ValueError, "no one-parameter subgroup",
                        lambda G: one_parameter(lb.K, 0.5)),
    "sphere-zero-direction": (ValueError, "zero direction",
                              lambda G: sphere_point([0.0, 0.0, 0.0], 1.0)),
    "rotation-off-sphere": (ValueError, r"\|eta\|",
                            lambda G: rotation_section(np.array([0.0, 0.0, 2.0]), 1.0)),
    "duplicate-labels": (ValueError, "duplicate", lambda G: LieAlgebra("x", ["a", "a"], {})),
    "reversed-key": (ValueError, "0 <= i < j",
                     lambda G: LieAlgebra("x", ["a", "b"], {(1, 0): {0: 1}})),
    "target-out-of-range": (ValueError, "out of range",
                            lambda G: LieAlgebra("x", ["a", "b"], {(0, 1): {5: 1}})),
    "definition-dimension": (ValueError, "dimension field", _definition_with_wrong_dimension),
    "sum-across-algebras": (MismatchedAlgebraError, "different bases", _foreign_sum),
    "centralizer-foreign": (MismatchedAlgebraError, "different algebra", _foreign_centralizer),
    "operator-shape": (ValueError, "does not match",
                       lambda G: OscillatorOperator(np.zeros((2, 2)), FockBasis(1))),
    "operator-not-hermitian": (ValueError, "flagged hermitian", lambda G: OscillatorOperator(
        np.triu(np.ones((4, 4))), FockBasis(1), hermitian=True)),
    # symmetric but not Hermitian: M == M.T, M != M^dagger
    "operator-not-hermitian-complex": (ValueError, "flagged hermitian",
                                       lambda G: OscillatorOperator(
                                           1j * np.ones((4, 4)), FockBasis(1), hermitian=True)),
    "external-generator-K": (ValueError, "no external generator",
                             lambda G: external_generator(lb.K, _point(), RepParams())),
}


@pytest.mark.parametrize("name", CASES)
def test_refusal_raises_its_type(G, name):
    exc, match, call = CASES[name]
    with pytest.raises(exc, match=match) as err:
        call(G)
    assert type(err.value) is exc, err.value
