"""Batch command-line front end.

Subcommands: jacobi, cohomology, extensions, grouplaw, spectrum, evolve,
oracle, verify-all.  Machine-readable JSON goes to stdout with a stable key
order; human-readable tables go to stderr.  Identical configurations produce
byte-identical reports.

Exit codes: 0 success (verify-all: every non-conditional claim matches),
1 claim mismatch or failed internal check, 2 unknown algebra selector,
3 invalid parameters (a usage error, a malformed config, definition or state
file and an unknown verify-all claim included), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import grouplaw as gl
from . import labels as lb
from .algebras import build_extended, build_newstein, build_newstein2, heisenberg3, sl2
from .cohomology import (CoefficientModule, InternalCheckError, betti, h1_via_reduction,
                         h2_via_reduction, reduction_data)
from .extensions import ExtensionMatrix, canonical_matrices, classify, display
from .liealg import LieAlgebra
from .oscillator import (FockBasis, RepParams, W_operator, WaveFunction, casimir_MA,
                         casimir_MN, evolve, free_mass_check,
                         gaussian_polynomial_test_functions, generator_oracle,
                         hamiltonian_K, internal_generator, iur_apply, minus_laplacian,
                         random_sample_points, spectrum, z_squared_scaled)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_UNKNOWN_ALGEBRA = 2
EXIT_BAD_PARAMS = 3
EXIT_IO = 4


def _emit(doc, path=None) -> None:
    text = json.dumps(doc, indent=1) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(text: str) -> None:
    print(text, file=sys.stderr)


class UnknownAlgebraError(Exception):
    """An algebra selector that names no known algebra."""


def load_algebra(selector: str):
    if selector == "newstein":
        return build_newstein()
    if selector == "newstein2":
        return build_newstein2()
    if selector.startswith("newstein-ext:"):
        case = selector.split(":", 1)[1]
        if case.isdecimal() and 1 <= int(case) <= 9:
            return build_extended(int(case))
    if selector == "h3":
        return heisenberg3()
    if selector == "sl2":
        return sl2()
    if selector.startswith("file:"):
        return LieAlgebra.load(selector.split(":", 1)[1])
    raise UnknownAlgebraError(
        f"{selector!r} (expected newstein, newstein2, newstein-ext:<1..9>, h3, sl2 "
        "or file:<path>)")


# -- subcommands -----------------------------------------------------------


def cmd_jacobi(args) -> int:
    alg = load_algebra(args.algebra)
    violations = alg.jacobi_check()
    _emit({
        "command": "jacobi",
        "algebra": alg.name,
        "dimension": alg.dim,
        "violations": len(violations),
        "first_violations": violations[:10],
    }, args.out)
    _note(f"{alg.dim}-dim, {len(violations)} violations")
    return EXIT_OK if not violations else EXIT_MISMATCH


def cmd_cohomology(args) -> int:
    alg = load_algebra(args.algebra)
    if violations := alg.jacobi_check():
        raise ValueError(f"{alg.name!r} breaks the Jacobi identity on basis triple {violations[0]}")
    coeffs = (CoefficientModule.trivial() if args.coeffs == "trivial"
              else CoefficientModule.adjoint(alg))
    report = betti(alg, coeffs, args.degree, method=args.method)
    doc = {"command": "cohomology"}
    doc.update(report.as_dict())
    _emit(doc, args.out)
    _note(f"H^{report.degree}({alg.name}, {report.module}) = {report.betti}  [{report.method}]")
    return EXIT_OK


def cmd_extensions(args) -> int:
    b, bp, g, gp = (Fraction(x) for x in args.matrix)
    shown = display(ExtensionMatrix(b, bp, g, gp))
    _emit({"command": "extensions-classify", "matrix": [str(b), str(bp), str(g), str(gp)],
           **shown}, args.out)
    _note(f"case ({shown['case']}): {shown['jordan_type']}")
    return EXIT_OK


def group_law_deviations(seed: int, count: int) -> tuple[float, float, float]:
    """Worst associativity, inverse and extended-law deviations over seeded triples.

    Each round draws g1, g2, g3 and then three (normal, element) pairs for
    the extended law, so a seed fixes every number.
    """
    rng = np.random.default_rng(seed)
    assoc = inv = ext = 0.0
    for _ in range(count):
        g1, g2, g3 = (gl.random_element(rng) for _ in range(3))
        assoc = max(assoc, gl.element_distance(gl.compose(gl.compose(g1, g2), g3),
                                               gl.compose(g1, gl.compose(g2, g3))))
        inv = max(inv, gl.element_distance(gl.compose(g1, gl.inverse(g1)), gl.identity()))
        es = [gl.ExtendedGroupElement(rng.normal(), gl.random_element(rng))
              for _ in range(3)]
        lhs = gl.compose_extended(gl.compose_extended(es[0], es[1]), es[2])
        rhs = gl.compose_extended(es[0], gl.compose_extended(es[1], es[2]))
        ext = max(ext, abs(lhs.k - rhs.k), gl.element_distance(lhs.g, rhs.g))
    return assoc, inv, ext


def cmd_grouplaw(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    assoc, inv, worst_ext = group_law_deviations(args.seed, args.count)
    worst_plain = max(assoc, inv)
    ok = worst_plain <= 1e-9 and worst_ext <= 1e-9
    _emit({
        "command": "grouplaw-check",
        "seed": args.seed,
        "triples": args.count,
        "max_deviation": worst_plain,
        "max_deviation_extended": worst_ext,
        "tolerance": 1e-9,
        "pass": bool(ok),
    }, args.out)
    _note(f"associativity/inverse deviation {worst_plain:.2e} (extended {worst_ext:.2e})")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_spectrum(args) -> int:
    params = RepParams(m0=args.m0, alpha=args.alpha, ell=args.ell)
    basis = FockBasis(args.cutoff)
    rows = spectrum(params, basis)
    _emit({
        "command": "spectrum",
        "ell": args.ell,
        "cutoff": args.cutoff,
        "m0": args.m0,
        "alpha": args.alpha,
        "rows": [{"eigenvalue": v, "multiplicity": m} for v, m in rows],
    }, args.out)
    for v, m in rows[:8]:
        _note(f"  {v:12.6f}  x{m}")
    return EXIT_OK


def read_state(path: str, dim: int) -> np.ndarray:
    """Coefficients from a state file of ``index re im`` lines.

    Blank lines are skipped; any other line must hold exactly an integer
    index in [0, dim) that no earlier line holds and two finite floats, or
    ``ValueError`` names its number.
    """
    coeffs = np.zeros(dim, dtype=complex)
    seen: set[int] = set()
    with open(path) as fh:
        for num, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                i, real, imag = int(parts[0]), float(parts[1]), float(parts[2])
                ok = (len(parts) == 3 and 0 <= i < dim and i not in seen
                      and math.isfinite(real) and math.isfinite(imag))
            except (ValueError, IndexError):
                ok = False
            if not ok:
                raise ValueError(f"state file line {num}: expected 'index re im' with a new index "
                                 f"0 <= index < {dim} and finite re, im, got {line.strip()!r}")
            seen.add(i)
            coeffs[i] = real + 1j * imag
    return coeffs


def cmd_evolve(args) -> int:
    params = RepParams(m0=args.m0, alpha=args.alpha, ell=args.ell)
    basis = FockBasis(args.cutoff)
    coeffs = read_state(args.state, basis.dim)
    psi = evolve(WaveFunction(coeffs, basis), args.tau, params, basis)
    lines = [f"{i} {float(v.real)!r} {float(v.imag)!r}" for i, v in enumerate(psi.coeffs)]
    out_path = args.out or (args.state + ".out")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _note(f"evolved tau={args.tau}, norm {np.linalg.norm(psi.coeffs):.12f} -> {out_path}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    params = RepParams(m0=args.m0, alpha=args.alpha, lam=args.lam, s=args.s, j=args.j)
    # the standard basis with L moved last: T, T', C, A, Q, J, L
    labels = sorted(lb.basis_labels(), key=lambda lab: lab.kind == "L")
    rows = []
    for X in labels:
        rep = generator_oracle(X, params, seed=args.seed)
        rows.append(rep)
        mark = "" if rep["printed"] <= 1e-5 else "  suspected typo (rederived passes)" \
            if rep["agrees"] else "  FAIL"
        _note(f"  {rep['label']:>4}: printed {rep['printed']:.2e} "
              f"rederived {rep['rederived']:.2e}{mark}")
    _emit({"command": "oracle-generators", "seed": args.seed, "rows": rows}, args.out)
    return EXIT_OK if all(r["agrees"] for r in rows) else EXIT_MISMATCH


# -- verify-all -------------------------------------------------------------


def _claim(claim, claimed, computed, method, *, conditional=False, note="", command=""):
    if conditional:
        status = "conditional"
    else:
        status = "match" if claimed == computed else "mismatch"
    doc = {
        "claim": claim,
        "claimed": claimed,
        "computed": computed,
        "method": method,
        "status": status,
        "note": note,
    }
    if status == "mismatch":
        doc["command"] = command or f"newstein verify-all --only {claim}"
    return doc


def _agree(claim, *routes):
    """The value every (name, value) route gives; routes that differ fail
    the internal check, naming each route and its value."""
    if len({value for _, value in routes}) > 1:
        named = ", ".join(f"{name} {value}" for name, value in routes)
        raise InternalCheckError(f"{claim}: {named}")
    return routes[0][1]


# claim name -> function of the 51-dim algebra returning the keyword
# arguments of _claim; insertion order is the report order
CLAIMS: dict = {}


def _registered(name):
    def register(fn):
        CLAIMS[name] = fn
        return fn
    return register


@_registered("jacobi-newstein")
def _jacobi_newstein(G):
    return dict(claimed=0, computed=len(G.jacobi_check()), method="exact",
                note="51-dim, all unordered basis triples")


@_registered("center-dim")
def _center_dim(G):
    r = betti(G, CoefficientModule.adjoint(G), 0, method="exact")
    cen = G.centralizer([G.basis_element(l) for l in G.labels])
    dim = _agree("center-dim", ("H^0 by rank", r.betti), ("centralizer dimension", len(cen)))
    trace = G.trace_c()
    k0 = next(iter(trace.coeffs))
    ok = dim == 1 and cen[0] == cen[0].coeffs.get(k0, 0) / trace.coeffs[k0] * trace
    return dict(claimed=1, computed=dim if ok else -1, method="exact",
                note="generator proportional to the metric trace of C")


@_registered("h1-adjoint")
def _h1_adjoint(G):
    red = h1_via_reduction(G)
    direct = betti(G, CoefficientModule.adjoint(G), 1, method="modular")
    h1 = _agree("h1-adjoint", ("invariant reduction", red.betti), ("modular direct", direct.betti))
    return dict(
        claimed=6, computed=h1, method="invariant-reduction-exact + modular-direct",
        note="reduction and direct computation agree; the printed six-parameter family omits "
             "the two outer derivations mixing the translation blocks (T -> T' and T' -> T)",
        command="newstein cohomology --algebra newstein --coeffs adjoint "
                "--degree 1 --method modular")


@_registered("h2-adjoint")
def _h2_adjoint(G):
    red = h2_via_reduction(G)
    direct = betti(G, CoefficientModule.adjoint(G), 2, method="exact")
    h2 = _agree("h2-adjoint", ("invariant reduction", red.betti), ("direct exact", direct.betti))
    return dict(
        claimed=0, computed=h2, method="invariant-reduction-exact + direct-exact",
        note="invariant reduction and full-scale direct exact rank agree; "
             "the two surviving classes deform [T, T'] into the C block "
             "(both integrate to honest Lie algebras, so the algebra is not rigid)",
        command="newstein cohomology --algebra newstein --coeffs adjoint "
                "--degree 2 --method exact")


@_registered("h2-trivial")
def _h2_trivial(G):
    r = betti(G, CoefficientModule.trivial(), 2, method="exact")
    return dict(claimed=11, computed=r.betti, method="exact",
                note="computed class space is spanned by the t/t' pairing exponent",
                command="newstein cohomology --algebra newstein --coeffs trivial --degree 2")


@_registered("h2-trivial-planar")
def _h2_trivial_planar(G):
    r = betti(build_newstein2(), CoefficientModule.trivial(), 2, method="exact")
    return dict(claimed=13, computed=r.betti, method="exact", conditional=True,
                note="conditional on the documented planar rotation action; computed "
                     "basis: t/t' pairing plus three epsilon pairings on (A,Q), (A,A), (Q,Q)")


@_registered("one-cochain-family")
def _one_cochain_family(G):
    data = reduction_data(G, 1)
    return dict(claimed=6, computed=len(data.cocycles), method="invariant-reduction-exact",
                note="computed invariant cocycle space strictly contains the printed "
                     "six-parameter family; the two extras are the translation mixers")


@_registered("extension-classification")
def _extension_classification(G):
    reps = canonical_matrices()
    own = all(classify(m).case == c for c, m in reps.items() if c != 8)
    jacobi_ok = all(not build_extended(c).jacobi_check() for c in range(1, 10))
    return dict(claimed=True, computed=bool(own and jacobi_ok), method="exact",
                note="case (8) as printed classifies under case (4); see case8-printed")


@_registered("case8-printed")
def _case8_printed(G):
    ext = build_extended(8, as_printed=True)
    return dict(claimed=0, computed=len(ext.jacobi_check()), method="exact",
                conditional=True,
                note="the displayed case (8) bracket list satisfies the Jacobi identity "
                     "only at cos phi = 1; with the trace rule for [K, C] every case "
                     "passes (that rule is the default constructor)")


@_registered("group-law")
def _group_law(G):
    assoc, inv, ext = group_law_deviations(2161, 1000)
    worst = max(assoc, ext)
    pairs = [(lb.L(1, 2), lb.T(2)), (lb.A(1, 1), lb.Q(1, 2)), (lb.J(1, 2), lb.A(1, 3)),
             (lb.L(1, 4), lb.L(2, 4)), (lb.T(1), lb.Tp(1))]
    sc_dev = 0.0
    for x, y in pairs:
        got = gl.commutator_coords(G, x, y)
        want = {G.labels[k]: float(c)
                for k, c in G.bracket_basis(G.index[x], G.index[y]).items()}
        for key in set(got) | set(want):
            sc_dev = max(sc_dev, abs(got.get(key, 0.0) - want.get(key, 0.0)))
    ok = max(worst, inv) <= 1e-9 and sc_dev <= 1e-5
    return dict(claimed=True, computed=bool(ok), method="seeded-numerical",
                note=f"associativity {worst:.2e}, derivative {sc_dev:.2e}")


@_registered("mass-spectrum")
def _mass_spectrum(G):
    basis = FockBasis(12)
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(5):
        p = RepParams(m0=float(rng.uniform(0.5, 3)), alpha=float(rng.uniform(0.3, 2)),
                      ell=float(rng.uniform(-4, 4)))
        for n, (val, mult) in enumerate(spectrum(p, basis)):
            if n > 10:
                break
            ok &= abs(val - (n + 1.5 + p.ell / 2)) <= 1e-9
            ok &= mult == (n + 1) * (n + 2) // 2
    ground = spectrum(RepParams(ell=-3.0), basis)[0][0]
    ok &= abs(ground) <= 1e-12
    return dict(claimed=True, computed=bool(ok), method="numerical",
                note="n + 3/2 + ell/2 with multiplicity (n+1)(n+2)/2; "
                     "zero-energy vacuum at ell = -3")


@_registered("operator-identities")
def _operator_identities(G):
    basis = FockBasis(12)
    p = RepParams(m0=1.2, alpha=0.9, ell=-1.0)
    xi = gl.shell_point([0.3, -0.2, 0.5], p.m0)
    idx = np.where(basis.interior)[0]
    MN = casimir_MN(p, xi, basis).matrix
    MA = casimir_MA(p, xi, basis).matrix
    H = hamiltonian_K(p, basis).matrix
    d1 = np.abs((MN - minus_laplacian(p, basis))[np.ix_(idx, idx)]).max()
    d2 = np.abs((MA - z_squared_scaled(p, basis))[np.ix_(idx, idx)]).max()
    # times the reciprocal, as numpy divides a complex array, so the note keeps its digits
    B = (MN + MA) * (0.5 / p.alpha) + p.ell / 2 * np.eye(basis.dim)
    d3 = np.abs((B - H)[np.ix_(idx, idx)]).max()
    ok = max(d1, d2, d3) <= 1e-10
    return dict(claimed=True, computed=bool(ok), method="numerical",
                note=f"interior deviations {d1:.1e}, {d2:.1e}, {d3:.1e}")


@_registered("w-operator")
def _w_operator(G):
    basis = FockBasis(12)
    p = RepParams()
    idx = np.where(basis.interior)[0]
    W = W_operator(2 * math.pi, p, basis).matrix
    d1 = np.abs((W + np.eye(basis.dim))[np.ix_(idx, idx)]).max()
    k = 0.37
    Wk = W_operator(k, p, basis).matrix
    xi = gl.shell_point([0.3, -0.2, 0.5], p.m0)
    A = internal_generator(lb.A(1, 1), xi, p, basis).matrix
    Q = internal_generator(lb.Q(1, 1), xi, p, basis).matrix
    d2 = np.abs((Wk @ A @ Wk.conj().T
                 - (math.cos(k) * A - math.sin(k) * Q))[np.ix_(idx, idx)]).max()
    ok = d1 <= 1e-9 and d2 <= 1e-8
    return dict(claimed=True, computed=bool(ok), method="numerical",
                note=f"W(2pi)+1 {d1:.1e}; conjugation rotation {d2:.1e}")


@_registered("null-free-mass")
def _null_free_mass(G):
    p = RepParams(m0=1.2, lam=0.8)
    rng = np.random.default_rng(6)
    worst, p4min, done = 0.0, float("inf"), 0
    while done < 100:
        v = rng.normal(0, 1, 3)
        if v[2] / np.linalg.norm(v) < -0.5:
            continue
        r = free_mass_check(gl.shell_point(rng.normal(0, 1.5, 3), p.m0),
                            gl.sphere_point(v, p.lam), p)
        worst = max(worst, abs(r["mass_squared"]))
        p4min = min(p4min, r["p4"])
        done += 1
    ok = worst <= 1e-10 * p.lam**2 and p4min > 0
    return dict(claimed=True, computed=bool(ok), method="numerical",
                note=f"max |p.p| = {worst:.1e}, min p4 = {p4min:.3f}")


@_registered("master-oracle")
def _master_oracle(G):
    p = RepParams(m0=1.2, alpha=0.9, lam=0.8, ell=-1.0, s=0.5, j=0.0)
    rng = np.random.default_rng(99)
    pts = random_sample_points(rng, 20, p)
    fns = gaussian_polynomial_test_functions(rng, 2, dim=1)
    worst = 0.0
    for _ in range(10):
        g1, g2 = gl.random_element(rng, 0.4), gl.random_element(rng, 0.4)
        g12 = gl.compose(g1, g2)
        for fn in fns:
            lhs = iur_apply(g1, iur_apply(g2, fn.f, p), p)
            rhs = iur_apply(g12, fn.f, p)
            for pt in pts:
                try:
                    a, b = lhs(pt.xi, pt.eta, pt.z), rhs(pt.xi, pt.eta, pt.z)
                except gl.SectionSingularityError:
                    continue
                worst = max(worst, float(np.abs(a - b).max() / max(1.0, np.abs(b).max())))
    return dict(claimed=True, computed=bool(worst <= 1e-7), method="numerical",
                note=f"homomorphism deviation {worst:.2e} over 10 pairs x 20 points")


@_registered("l24-generator")
def _l24_generator(G):
    rep = generator_oracle(lb.L(2, 4), RepParams(m0=1.3, alpha=0.7, lam=1.1, s=0.5, j=0.0))
    return dict(claimed=0.0, computed=rep["printed"], method="finite-difference",
                conditional=True,
                note="the displayed entry carries a duplicated xi^1 eta^2 term and a "
                     "garbled eta-coefficient; the rederived flow "
                     "[-x1 e2, x1 e1 + x3 e3, -e2 x3]/(x4 + m0) deviates by "
                     f"{rep['rederived']:.2e}")


@_registered("generator-oracle")
def _generator_oracle(G):
    p = RepParams(m0=1.3, alpha=0.7, lam=1.1, s=0.5, j=0.0)
    labels = ([lb.T(1), lb.Tp(4), lb.C(1, 2), lb.C(4, 4), lb.A(1, 2), lb.Q(2, 3),
               lb.J(1, 2), lb.J(1, 3), lb.L(1, 2), lb.L(2, 3), lb.L(1, 4), lb.L(3, 4)])
    worst = 0.0
    for X in labels:
        worst = max(worst, generator_oracle(X, p)["printed"])
    return dict(claimed=True, computed=bool(worst <= 1e-5), method="finite-difference",
                note=f"max deviation {worst:.2e} over the unflagged generator sample")


@_registered("small-oracles")
def _small_oracles(G):
    h3, s2 = heisenberg3(), sl2()
    got = (betti(h3, CoefficientModule.trivial(), 1).betti,
           betti(h3, CoefficientModule.trivial(), 2).betti,
           betti(s2, CoefficientModule.adjoint(s2), 1).betti,
           betti(s2, CoefficientModule.adjoint(s2), 2).betti)
    return dict(claimed=[2, 2, 0, 0], computed=list(got), method="exact",
                note="reference Betti numbers on the 3-dim algebras")


@_registered("evolution")
def _evolution(G):
    basis = FockBasis(10)
    p = RepParams(ell=-1.0)
    rng = np.random.default_rng(4)
    psi = WaveFunction(rng.normal(size=basis.dim)
                       + 1j * rng.normal(size=basis.dim), basis).normalized()
    H = hamiltonian_K(p, basis).matrix
    e0 = (psi.coeffs.conj() @ H @ psi.coeffs).real
    ok = True
    for tau in (0.5, 3.0, 10.0):
        out = evolve(psi, tau, p, basis)
        ok &= abs(out.norm() - 1.0) <= 1e-10
        ok &= abs((out.coeffs.conj() @ H @ out.coeffs).real - e0) <= 1e-10
    return dict(claimed=True, computed=bool(ok), method="numerical",
                note="unitarity and energy conservation over tau in [0, 10]")


def run_verification(only: str | None = None) -> list[dict]:
    """Claim reports in registry order, or just the claim named ``only``."""
    if only is not None and only not in CLAIMS:
        raise ValueError(f"unknown claim {only!r}; valid claims: {', '.join(CLAIMS)}")
    names = list(CLAIMS) if only is None else [only]
    G = build_newstein()
    return [_claim(name, **CLAIMS[name](G)) for name in names]


def cmd_verify_all(args) -> int:
    claims = run_verification(args.only)
    doc = {"command": "verify-all", "claims": claims}
    mismatches = [c for c in claims if c["status"] == "mismatch"]
    doc["summary"] = {
        "total": len(claims),
        "match": sum(1 for c in claims if c["status"] == "match"),
        "mismatch": len(mismatches),
        "conditional": sum(1 for c in claims if c["status"] == "conditional"),
    }
    _emit(doc, args.out)
    for c in claims:
        _note(f"  [{c['status']:>11}] {c['claim']}: claimed {c['claimed']!r}, "
              f"computed {c['computed']!r}")
    return EXIT_OK if not mismatches else EXIT_MISMATCH


# -- parser -----------------------------------------------------------------


_SUBPARSERS: dict[str, argparse.ArgumentParser] = {}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``ValueError``, which ``main`` maps to exit 3; a
    token of ``-`` or ``-.`` and a digit (-1/2, -1e-3) is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="newstein",
        description="Workbench for the New-Stein algebra, group, and representation.",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jacobi", help="verify the Jacobi identity exactly")
    p.add_argument("--algebra", default="newstein")
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("cohomology", help="Betti numbers by exact or modular rank or reduction")
    p.add_argument("--algebra", default="newstein")
    p.add_argument("--coeffs", choices=["trivial", "adjoint"], default="trivial")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--method", choices=["exact", "modular", "reduction"], default="exact")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("extensions", help="classify a 2x2 extension matrix")
    p.add_argument("action", choices=["classify"])
    p.add_argument("--matrix", nargs=4, required=True,
                   metavar=("BETA", "BETAP", "GAMMA", "GAMMAP"))
    p.set_defaults(func=cmd_extensions)

    p = sub.add_parser("grouplaw", help="seeded associativity and inverse check")
    p.add_argument("action", choices=["check"])
    p.add_argument("--seed", type=int, default=2161)
    p.add_argument("--count", type=int, default=1000)
    p.set_defaults(func=cmd_grouplaw)

    p = sub.add_parser("spectrum", help="mass spectrum rows of the evolution generator")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("evolve", help="historical-time evolution of a state file")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--state", required=True, help="plain text: index re im")
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--ell", type=float, default=0.0)
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("oracle", help="generator discrepancy table")
    p.add_argument("action", choices=["generators"])
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--m0", type=float, default=1.3)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--lam", type=float, default=1.1)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--j", type=float, default=0.0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify-all", help="claim-by-claim verification report")
    p.add_argument("--only", help="run a single named claim: " + ", ".join(CLAIMS))
    p.set_defaults(func=cmd_verify_all)

    for p in sub.choices.values():
        p.add_argument("--out")
    _SUBPARSERS.update(sub.choices)
    return parser


def _option_tokens(action, value) -> list[str]:
    """One ``--config`` entry as the tokens of the option it names."""
    opt = action.option_strings[-1]
    def scalar(v):
        return isinstance(v, (str, int, float)) and not isinstance(v, bool)
    if action.nargs is None:
        if scalar(value):
            return [f"{opt}={value}"]
    elif isinstance(value, list) and all(map(scalar, value)):
        return [opt, *map(str, value)]
    raise ValueError(f"config value {value!r} does not fit the option {opt}")


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with its ``--config`` JSON object rendered as option tokens
    right after the subcommand name, ahead of the typed flags, which win.

    Raises ``ValueError`` for a file that is not a JSON object and for keys
    that name no option of the subcommand.
    """
    pre = _Parser(prog="newstein", add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = pre.parse_known_args(argv)
    if known.config is None or not known.rest or known.rest[0] not in _SUBPARSERS:
        return argv
    command = known.rest[0]
    with open(known.config) as fh:
        try:
            values = json.load(fh)
        except ValueError as err:
            raise ValueError(f"config {known.config} is not valid JSON: {err}") from None
    if not isinstance(values, dict):
        raise ValueError(f"config {known.config} must hold a JSON object")
    options = {a.dest: a for a in _SUBPARSERS[command]._actions
               if a.option_strings and a.dest != "help"}
    if unknown := sorted(set(values) - set(options)):
        raise ValueError(f"config keys that are not options of {command!r}: "
                         + ", ".join(map(repr, unknown)))
    tokens = [t for key, value in values.items() for t in _option_tokens(options[key], value)]
    head = len(argv) - len(known.rest) + 1
    return argv[:head] + tokens + argv[head:]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except UnknownAlgebraError as err:
        _note(f"unknown algebra selector: {err}")
        return EXIT_UNKNOWN_ALGEBRA
    except InternalCheckError as err:
        _note(f"internal check failed: {err}")
        return EXIT_MISMATCH
    except (ValueError, ArithmeticError) as err:
        _note(f"invalid parameters: {err}")
        return EXIT_BAD_PARAMS
    except OSError as err:
        _note(f"I/O failure: {err}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
