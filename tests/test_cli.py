"""Command-line interface: determinism, exit codes, file formats."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from newstein import cli
from newstein import grouplaw as gl
from newstein import labels as lb
from newstein.algebras import build_newstein, sl2
from newstein.cli import (EXIT_BAD_PARAMS, EXIT_IO, EXIT_MISMATCH, EXIT_OK,
                          EXIT_UNKNOWN_ALGEBRA, main)
from newstein.cohomology import CoefficientModule, InternalCheckError, betti
from newstein.liealg import LieAlgebra

from oracles import rebased, sl2_on_irreducible

# verify-all claims whose values are exact, hence the same on every machine
GOLDEN = json.loads((Path(__file__).parent / "golden" / "verify_all_exact.json").read_text())


def run_cli(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, json.loads(out.read_text()) if out.exists() else None


def test_jacobi_newstein(tmp_path):
    rc, doc = run_cli(["jacobi", "--algebra", "newstein"], tmp_path)
    assert rc == EXIT_OK
    assert doc["dimension"] == 51 and doc["violations"] == 0


def test_jacobi_all_selectors(tmp_path):
    for sel in ("newstein2", "newstein-ext:7", "h3", "sl2"):
        rc, doc = run_cli(["jacobi", "--algebra", sel], tmp_path)
        assert rc == EXIT_OK and doc["violations"] == 0


def test_unknown_algebra_exit_code(tmp_path):
    # an extension case outside 1..9 or not an integer is an unknown selector too
    for sel in ("nope", "newstein-ext:12", "newstein-ext:x"):
        assert main(["jacobi", "--algebra", sel]) == EXIT_UNKNOWN_ALGEBRA


def test_definition_without_constants_is_invalid_parameters(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"name": "x", "dimension": 1, "labels": ["x"]}))
    assert main(["jacobi", "--algebra", f"file:{path}"]) == EXIT_BAD_PARAMS
    err = capsys.readouterr().err
    assert "'constants'" in err and "selector" not in err


@pytest.mark.parametrize("doc,field", [
    ({"name": "x", "dimension": 1, "labels": [5], "constants": []}, "'labels'"),
    ([1], "JSON object"),
    ({"name": "x", "dimension": 2, "labels": ["a", "b"],
      "constants": [{"i": "0", "j": 1, "terms": []}]}, "'i'"),
], ids=["numeric-label", "top-level-list", "string-index"])
def test_definition_with_wrongly_typed_field_is_invalid_parameters(tmp_path, capsys, doc, field):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main(["jacobi", "--algebra", f"file:{path}"]) == EXIT_BAD_PARAMS
    assert field in capsys.readouterr().err


def test_definition_with_repeated_pair_is_invalid_parameters(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"name": "x", "dimension": 2, "labels": ["a", "b"], "constants": [
        {"i": 0, "j": 1, "terms": [{"k": 0, "coeff": "1"}]},
        {"i": 0, "j": 1, "terms": [{"k": 1, "coeff": "5"}]}]}))
    assert main(["jacobi", "--algebra", f"file:{path}"]) == EXIT_BAD_PARAMS
    assert "(i, j) = (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--degree", "2"], ["--degree", "1", "--coeffs", "adjoint"],
                                  ["--degree", "1"], ["--degree", "0", "--coeffs", "adjoint"]],
                         ids=["h2-trivial", "h1-adjoint", "h1-trivial", "h0-adjoint"])
def test_cohomology_of_a_definition_breaking_jacobi_is_invalid_parameters(tmp_path, capsys, argv):
    """[w,x] = y, [w,y] = z, [x,y] = x, [x,z] = w is not a Lie algebra: the
    input is at fault, so cohomology exits 3 and jacobi reports the triples."""
    path = tmp_path / "g.json"
    brackets = [(0, 1, 2), (0, 2, 3), (1, 2, 1), (1, 3, 0)]
    path.write_text(json.dumps({"name": "nonlie", "dimension": 4, "labels": ["w", "x", "y", "z"],
                                "constants": [{"i": i, "j": j, "terms": [{"k": k, "coeff": "1"}]}
                                              for i, j, k in brackets]}))
    rc, doc = run_cli(["cohomology", "--algebra", f"file:{path}"] + argv, tmp_path)
    assert rc == EXIT_BAD_PARAMS and doc is None
    assert "Jacobi identity on basis triple (0, 1, 2)" in capsys.readouterr().err
    rc, doc = run_cli(["jacobi", "--algebra", f"file:{path}"], tmp_path)
    assert rc == EXIT_MISMATCH and doc["first_violations"] == [[0, 1, 2], [1, 2, 3]]


@pytest.mark.parametrize("t,s,reason", [
    (3, 0, "the radical of 'sl2-V1' is not spanned by basis vectors"),
    (1, 3, "the Levi positions of 'sl2-V1' do not span a subalgebra"),
], ids=["unaligned-radical", "unclosed-levi"])
def test_reduction_on_a_split_off_the_basis_is_invalid_parameters(tmp_path, capsys, t, s, reason):
    """sl2 ⋉ V_1 with e_t replaced by e_t + e_s is a Lie algebra whose Levi
    split the reduction cannot take from basis positions: v0 -> v0 + h moves
    the radical off the basis, e -> e + v0 leaves h, e, f unclosed."""
    path = tmp_path / "g.json"
    rebased(sl2_on_irreducible(1), "sl2-V1", t, s).save(path)
    argv = ["cohomology", "--algebra", f"file:{path}", "--coeffs", "adjoint", "--degree", "1"]
    rc, doc = run_cli(argv + ["--method", "reduction"], tmp_path)
    assert rc == EXIT_BAD_PARAMS and doc is None
    assert reason in capsys.readouterr().err
    rc, doc = run_cli(argv, tmp_path)
    assert rc == EXIT_OK and doc["betti"] == 1


def test_modular_prime_dividing_the_scale_is_invalid_parameters(tmp_path, capsys):
    from newstein.exactla import random_primes

    # betti's default primes at degree 2 on a 3-dim algebra
    p = random_primes(3, seed=2 + 3)[0]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"name": "h3p", "dimension": 3, "labels": ["x", "y", "z"],
                                "constants": [{"i": 0, "j": 1,
                                               "terms": [{"k": 2, "coeff": f"1/{p}"}]}]}))
    argv = ["cohomology", "--algebra", f"file:{path}", "--degree", "2"]
    assert main(argv + ["--method", "modular"]) == EXIT_BAD_PARAMS
    assert "divide" in capsys.readouterr().err
    rc, doc = run_cli(argv, tmp_path)
    assert rc == EXIT_OK and doc["betti"] == 2


def test_failed_internal_check_is_a_mismatch(monkeypatch, capsys):
    """Modular ranks that keep alternating are the engine's fault: exit 1."""
    from newstein.exactla import SparseExactMatrix

    calls = []

    def alternating(self, p):
        calls.append(p)
        return len(calls) % 2

    monkeypatch.setattr(SparseExactMatrix, "rank_mod_p", alternating)
    assert main(["cohomology", "--algebra", "h3", "--degree", "1",
                 "--method", "modular"]) == EXIT_MISMATCH
    assert "internal check failed" in capsys.readouterr().err


@pytest.mark.parametrize("claim,reduction,message", [
    ("h1-adjoint", "h1_via_reduction", "invariant reduction 7, modular direct 8"),
    ("h2-adjoint", "h2_via_reduction", "invariant reduction 7, direct exact 8"),
])
def test_verify_routes_that_disagree_fail_the_check(monkeypatch, capsys, tmp_path,
                                                    claim, reduction, message):
    """A reduction that disagrees with the direct route is an internal failure:
    exit 1, with both values named, and no report."""
    from types import SimpleNamespace

    monkeypatch.setattr(cli, reduction, lambda G: SimpleNamespace(betti=7))
    monkeypatch.setattr(cli, "betti", lambda *args, **kwargs: SimpleNamespace(betti=8))
    rc, doc = run_cli(["verify-all", "--only", claim], tmp_path)
    assert rc == EXIT_MISMATCH and doc is None
    err = capsys.readouterr().err
    assert "internal check failed" in err and message in err


def test_center_dim_needs_the_trace_of_c_as_generator(monkeypatch):
    """A one-dimensional centralizer spanned by C_11 alone is not the claimed
    center, though its support is C labels: the claim reports -1."""
    monkeypatch.setattr(LieAlgebra, "centralizer",
                        lambda self, gens: [self.basis_element(lb.C(1, 1))])
    (doc,) = cli.run_verification("center-dim")
    assert (doc["computed"], doc["status"]) == (-1, "mismatch")


def test_center_dim_routes_that_disagree_fail_the_check(monkeypatch):
    monkeypatch.setattr(LieAlgebra, "centralizer",
                        lambda self, gens: [self.trace_c(), self.basis_element(lb.C(1, 1))])
    with pytest.raises(InternalCheckError, match=r"H\^0 by rank 1, centralizer dimension 2"):
        cli.run_verification("center-dim")


def test_arithmetic_error_from_input_is_invalid_parameters():
    assert main(["extensions", "classify", "--matrix", "1/0", "0", "0", "0"]) == EXIT_BAD_PARAMS


def test_invalid_parameters_exit_code(tmp_path):
    assert main(["spectrum", "--ell", "0.0", "--cutoff", "-3"]) == EXIT_BAD_PARAMS


@pytest.mark.parametrize("argv", [
    ["spectrum", "--ell", "0", "--m0", "nan", "--alpha", "inf", "--cutoff", "2"],
    ["spectrum", "--ell", "nan", "--cutoff", "2"],
])
def test_spectrum_non_finite_parameters_are_invalid(tmp_path, capsys, argv):
    out = tmp_path / "o.json"
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_PARAMS
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_non_finite_tau_is_invalid(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("0 1.0 0.0\n")
    out = tmp_path / "o.txt"
    assert main(["evolve", "--tau", "inf", "--state", str(state), "--cutoff", "4",
                 "--out", str(out)]) == EXIT_BAD_PARAMS
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_cohomology_subcommand(tmp_path):
    rc, doc = run_cli(["cohomology", "--algebra", "h3", "--coeffs", "trivial",
                       "--degree", "2", "--method", "modular"], tmp_path)
    assert rc == EXIT_OK and doc["betti"] == 2 and len(doc["primes"]) >= 3
    rc, doc = run_cli(["cohomology", "--algebra", "newstein", "--coeffs", "adjoint",
                       "--degree", "1", "--method", "reduction"], tmp_path)
    assert rc == EXIT_OK and doc["betti"] == 8


@pytest.mark.parametrize("degree", ["0", "3"])
def test_reduction_outside_degrees_one_and_two_is_invalid(tmp_path, capsys, degree):
    rc, doc = run_cli(["cohomology", "--algebra", "newstein", "--coeffs", "adjoint",
                       "--degree", degree, "--method", "reduction"], tmp_path)
    assert rc == EXIT_BAD_PARAMS and doc is None
    assert "degree 1 or 2" in capsys.readouterr().err


def test_reduction_method_reports_the_exact_invariant_reduction(tmp_path):
    rc, doc = run_cli(["cohomology", "--coeffs", "adjoint", "--degree", "1",
                       "--method", "reduction"], tmp_path)
    assert rc == EXIT_OK and doc["method"] == "invariant-reduction-exact"


def _cohomology_methods():
    cli.build_parser()
    return next(a.choices for a in cli._SUBPARSERS["cohomology"]._actions if a.dest == "method")


@pytest.mark.parametrize("method", _cohomology_methods())
def test_every_cohomology_method_is_accepted_by_betti(method):
    """A --method choice that betti does not compute on any algebra would be a dead route."""
    for alg in (sl2(), build_newstein()):
        try:
            report = betti(alg, CoefficientModule.adjoint(alg), 1, method=method)
        except ValueError:
            continue
        assert report.betti == (0 if alg.dim == 3 else 8)
        return
    pytest.fail(f"betti computes --method {method} on no algebra")


@pytest.mark.parametrize("coeffs", [[], ["--coeffs", "trivial"]], ids=["default", "trivial"])
def test_reduction_without_adjoint_coefficients_is_invalid(tmp_path, capsys, coeffs):
    rc, doc = run_cli(["cohomology", "--degree", "1", "--method", "reduction"] + coeffs, tmp_path)
    assert rc == EXIT_BAD_PARAMS and doc is None
    assert "adjoint cohomology, not trivial" in capsys.readouterr().err


def test_cohomology_note_names_the_computed_module_and_degree(tmp_path, capsys):
    rc, doc = run_cli(["cohomology", "--algebra", "newstein", "--coeffs", "adjoint",
                       "--degree", "1", "--method", "reduction"], tmp_path)
    assert rc == EXIT_OK and (doc["module"], doc["degree"]) == ("adjoint", 1)
    assert "H^1(newstein, adjoint) = 8" in capsys.readouterr().err


def test_file_selector_roundtrip(tmp_path):
    path = tmp_path / "g.json"
    build_newstein().save(path)
    rc, doc = run_cli(["jacobi", "--algebra", f"file:{path}"], tmp_path)
    assert rc == EXIT_OK and doc["dimension"] == 51


def test_extensions_classify(tmp_path):
    rc, doc = run_cli(["extensions", "classify", "--matrix", "0", "1", "-1", "0"], tmp_path)
    assert rc == EXIT_OK and doc["case"] == 7
    rc, doc = run_cli(["extensions", "classify", "--matrix", "1", "0", "0", "-1"], tmp_path)
    assert doc["case"] == 2
    # a hair from a case boundary: zeta^2 near 1, cos phi near 0
    rc, doc = run_cli(["extensions", "classify", "--matrix", "1e-30", "1", "1", "0"], tmp_path)
    assert rc == EXIT_OK and doc["case"] == 3
    # cos and sin follow the rule of zeta^2 and rescale: null where no finite
    # nonzero binary64 value exists, never the 0.0 that case 9 excludes
    for entries, cos_sin in ((("1e-400", 1, -1, "1e-400"), [None, 1.0]),
                             ((1, "1e-400", "-1e-400", 1), [1.0, None]),
                             ((1, "1e-200", "-1e-200", 1), [1.0, 1e-200])):
        rc, doc = run_cli(["extensions", "classify", "--matrix", *map(str, entries)], tmp_path)
        assert rc == EXIT_OK and doc["case"] == 9 and doc["cos_sin"] == cos_sin, entries
    # sqrt|det| is taken from the exact det, which lies outside binary64 here
    for entry, root in (("1e200", 1e200), ("1e-200", 1e-200)):
        rc, doc = run_cli(["extensions", "classify", "--matrix", entry, "0", "0", entry], tmp_path)
        assert rc == EXIT_OK and doc["case"] == 4 and doc["rescale"] == root
    # a nonzero exact factor with no finite nonzero binary64 value prints null;
    # 1.0 stands only for tr = det = 0
    for entries, case in ((("1e400", 0, 0, 0), 5), (("1e400", 0, 0, "1e400"), 4),
                          (("1e-400", 0, 0, "1e-400"), 4), (("1e-400", 0, 0, 0), 5)):
        rc, doc = run_cli(["extensions", "classify", "--matrix", *map(str, entries)], tmp_path)
        assert rc == EXIT_OK and doc["case"] == case and doc["rescale"] is None, entries
    rc, doc = run_cli(["extensions", "classify", "--matrix", "0", "0", "1", "0"], tmp_path)
    assert doc["case"] == 6 and doc["rescale"] == 1.0
    # zeta^2 follows the same rule, whether rational or taken from q
    for entries, case in ((("1e700", 0, 0, 1), 4), (("1e-700", 0, 0, 1), 4),
                          (("1e700", 0, 0, -1), 3), (("1e700", 0, 0, 3), 4),
                          (("2e700", 0, 0, -3), 3)):
        rc, doc = run_cli(["extensions", "classify", "--matrix", *map(str, entries)], tmp_path)
        assert rc == EXIT_OK and doc["case"] == case and doc["zeta2"] is None, entries
    rc, doc = run_cli(["extensions", "classify", "--matrix", "1e300", "0", "0", "1"], tmp_path)
    assert rc == EXIT_OK and doc["case"] == 4 and doc["zeta2"] == 1e150


@pytest.mark.parametrize("matrix", [["-1/2", "0", "0", "1"], ["1/2", "0", "0", "-3/2"]])
def test_negative_fractions_are_values(tmp_path, matrix):
    rc, doc = run_cli(["extensions", "classify", "--matrix", *matrix], tmp_path)
    assert rc == EXIT_OK and doc["matrix"] == matrix and doc["case"] == 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": matrix}))
    rc, doc = run_cli(["--config", str(cfg), "extensions", "classify"], tmp_path)
    assert rc == EXIT_OK and doc["matrix"] == matrix and doc["case"] == 3


def test_negative_exponents_are_values(tmp_path):
    rc, doc = run_cli(["spectrum", "--ell", "-1e-3", "--cutoff", "3"], tmp_path)
    assert rc == EXIT_OK and doc["ell"] == -1e-3
    state = tmp_path / "state.txt"
    state.write_text("0 1.0 0.0\n")
    out = tmp_path / "evolved.txt"
    assert main(["evolve", "--tau", "-1e-3", "--state", str(state), "--cutoff", "4",
                 "--out", str(out)]) == EXIT_OK
    assert out.exists()


def test_grouplaw_check_deterministic(tmp_path):
    rc1, d1 = run_cli(["grouplaw", "check", "--seed", "7", "--count", "50"],
                      tmp_path, "a.json")
    rc2, d2 = run_cli(["grouplaw", "check", "--seed", "7", "--count", "50"],
                      tmp_path, "b.json")
    assert rc1 == rc2 == EXIT_OK
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert d1["pass"] is True


def test_spectrum_rows(tmp_path):
    rc, doc = run_cli(["spectrum", "--ell", "-3", "--cutoff", "8"], tmp_path)
    assert rc == EXIT_OK
    first = doc["rows"][0]
    assert abs(first["eigenvalue"]) < 1e-12 and first["multiplicity"] == 1


def test_evolve_roundtrip(tmp_path):
    from newstein.oscillator import FockBasis

    basis = FockBasis(6)
    state = tmp_path / "state.txt"
    state.write_text("0 1.0 0.0\n")
    out = tmp_path / "evolved.txt"
    rc = main(["evolve", "--tau", "2.0", "--state", str(state), "--cutoff", "6",
               "--ell", "-3.0", "--out", str(out)])
    assert rc == EXIT_OK
    rows = [line.split() for line in out.read_text().splitlines() if line]
    assert len(rows) == basis.dim
    assert abs(float(rows[0][1]) - 1.0) < 1e-12  # ground state stationary
    assert abs(float(rows[0][2])) < 1e-12


def test_evolve_missing_state_is_io_error(tmp_path):
    from newstein.cli import EXIT_IO

    assert main(["evolve", "--tau", "1.0", "--state", str(tmp_path / "none.txt")]) == EXIT_IO


def test_evolve_unwritable_out_is_io_error(tmp_path, capsys):
    from newstein.cli import EXIT_IO

    state = tmp_path / "state.txt"
    state.write_text("0 1.0 0.0\n")
    out = tmp_path / "missing" / "evolved.txt"
    assert main(["evolve", "--tau", "1.0", "--state", str(state), "--cutoff", "2",
                 "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "I/O failure" in err and str(out) in err


def test_evolve_missing_state_names_the_path(tmp_path, capsys):
    """A state file that cannot be read takes the same exit-4 route as
    every other I/O failure, and the message names the file."""
    from newstein.cli import EXIT_IO

    state = tmp_path / "none.txt"
    assert main(["evolve", "--tau", "1.0", "--state", str(state), "--cutoff", "2"]) == EXIT_IO
    err = capsys.readouterr().err
    assert "I/O failure" in err and str(state) in err


def test_evolve_index_out_of_range_names_line(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("0 1.0 0.0\n99999 1.0 0.0\n")
    rc = main(["evolve", "--tau", "1.0", "--state", str(state), "--cutoff", "4",
               "--out", str(tmp_path / "o.txt")])
    assert rc == EXIT_BAD_PARAMS
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


def test_evolve_malformed_line_names_line(tmp_path, capsys):
    state = tmp_path / "state.txt"
    out = tmp_path / "o.txt"
    state.write_text("\n0 1.0 0.0\n\n")
    assert main(["evolve", "--tau", "1.0", "--state", str(state), "--cutoff", "4",
                 "--out", str(out)]) == EXIT_OK  # blank lines are allowed
    state.write_text("0 1.0 0.0\n\ngarbage\n")
    assert main(["evolve", "--tau", "1.0", "--state", str(state), "--cutoff", "4",
                 "--out", str(out)]) == EXIT_BAD_PARAMS
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("text,line", [
    ("0 nan 0.0\n", 1),
    ("0 1.0 0.0\n1 0.5 -inf\n", 2),
    ("0 1.0 0.0\n1 0.5 0.0\n\n0 2.0 0.0\n", 4),
], ids=["nan", "infinite", "repeated-index"])
def test_evolve_rejects_non_finite_and_repeated_entries(tmp_path, capsys, text, line):
    state = tmp_path / "state.txt"
    state.write_text(text)
    out = tmp_path / "o.txt"
    assert main(["evolve", "--tau", "1.0", "--state", str(state), "--cutoff", "4",
                 "--out", str(out)]) == EXIT_BAD_PARAMS
    assert f"line {line}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [0, -5])
def test_grouplaw_count_below_one_is_invalid(tmp_path, capsys, count):
    """A check over no triples would pass having checked nothing."""
    out = tmp_path / "o.json"
    assert main(["grouplaw", "check", "--count", str(count), "--out", str(out)]) == EXIT_BAD_PARAMS
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": count}))
    assert main(["--config", str(cfg), "grouplaw", "check", "--out", str(out)]) == EXIT_BAD_PARAMS
    assert capsys.readouterr().err.count("--count must be at least 1") == 2
    assert not out.exists()


def test_grouplaw_check_pinned_values(tmp_path):
    # values of numpy 2.4 on x86-64; the claim and the command share one loop.
    # The covering maps are closed-form scalar arithmetic and no longer depend
    # on BLAS; the 4x4 products inside compose and inverse still do.
    rc, doc = run_cli(["grouplaw", "check", "--seed", "2161", "--count", "50"], tmp_path)
    assert rc == EXIT_OK
    assert doc == {"command": "grouplaw-check", "seed": 2161, "triples": 50,
                   "max_deviation": 1.4210854715202004e-14,
                   "max_deviation_extended": 1.0658141036401503e-14,
                   "tolerance": 1e-09, "pass": True}


def test_verify_unknown_claim_runs_nothing(tmp_path, capsys):
    rc, doc = run_cli(["verify-all", "--only", "typo"], tmp_path)
    assert rc == EXIT_BAD_PARAMS and doc is None
    err = capsys.readouterr().err
    assert all(name in err for name in cli.CLAIMS)


def test_verify_only_accepts_every_registered_claim(tmp_path, monkeypatch):
    for name in cli.CLAIMS:
        monkeypatch.setitem(cli.CLAIMS, name, lambda G: dict(
            claimed=G.dim, computed=G.dim, method="stub"))
    for name in cli.CLAIMS:
        rc, doc = run_cli(["verify-all", "--only", name], tmp_path)
        assert rc == EXIT_OK
        assert [c["claim"] for c in doc["claims"]] == [name]


@pytest.mark.parametrize("expected", GOLDEN, ids=[c["claim"] for c in GOLDEN])
def test_exact_claims_match_golden(expected):
    claims = cli.run_verification(expected["claim"])
    assert len(claims) == 1
    got = json.dumps(claims[0], indent=1)
    assert got == json.dumps(expected, indent=1)


def test_verify_single_claim(tmp_path):
    rc, doc = run_cli(["verify-all", "--only", "jacobi-newstein"], tmp_path)
    assert rc == EXIT_OK
    assert doc["claims"][0]["status"] == "match"


def test_verify_known_mismatch_carries_command(tmp_path):
    rc, doc = run_cli(["verify-all", "--only", "h2-trivial"], tmp_path)
    assert rc == EXIT_MISMATCH
    claim = doc["claims"][0]
    assert claim["status"] == "mismatch"
    assert claim["claimed"] == 11 and claim["computed"] == 1
    assert "command" in claim


def test_verify_conditional_not_counted_as_failure(tmp_path):
    rc, doc = run_cli(["verify-all", "--only", "h2-trivial-planar"], tmp_path)
    assert rc == EXIT_OK
    assert doc["claims"][0]["status"] == "conditional"


@pytest.mark.parametrize("name,claimed,method,status", [
    ("group-law", True, "seeded-numerical", "match"),
    ("master-oracle", True, "numerical", "match"),
    ("l24-generator", 0.0, "finite-difference", "conditional"),
    ("operator-identities", True, "numerical", "match"),
    ("w-operator", True, "numerical", "match"),
    ("mass-spectrum", True, "numerical", "match"),
    ("null-free-mass", True, "numerical", "match"),
    ("generator-oracle", True, "finite-difference", "match"),
    ("evolution", True, "numerical", "match"),
], ids=["group-law", "master-oracle", "l24-generator", "operator-identities", "w-operator",
        "mass-spectrum", "null-free-mass", "generator-oracle", "evolution"])
def test_numerical_claim_statuses(tmp_path, name, claimed, method, status):
    # the notes and computed floats move at rounding level; the verdicts may not
    rc, doc = run_cli(["verify-all", "--only", name], tmp_path)
    assert rc == EXIT_OK
    claim = doc["claims"][0]
    assert (claim["claim"], claim["claimed"], claim["method"], claim["status"]) == (
        name, claimed, method, status)


def test_master_oracle_skips_singular_section_points(monkeypatch):
    """A sample point inside a section's exclusion cone is skipped, and the
    homomorphism check runs over the rest."""
    real, skipped = cli.iur_apply, []

    def iur_apply(g, f, p):
        at = real(g, f, p)

        def value(xi, eta, z):
            if not skipped or np.array_equal(xi, skipped[0]):
                skipped.append(xi)
                raise gl.SectionSingularityError("in the exclusion cone")
            return at(xi, eta, z)
        return value

    monkeypatch.setattr(cli, "iur_apply", iur_apply)
    doc = cli.CLAIMS["master-oracle"](None)
    assert doc["computed"] is True and len(skipped) == 20   # one point, 10 pairs x 2 functions


def test_group_law_claim_gates_on_the_inverse(monkeypatch):
    """g g^-1 = e is part of the group law: a bad inverse fails the claim
    even when both associativity deviations vanish."""
    monkeypatch.setattr(cli, "group_law_deviations", lambda seed, count: (0.0, 1.0, 0.0))
    doc = cli.CLAIMS["group-law"](build_newstein())
    assert doc["computed"] is False


def test_output_goes_to_stdout_without_out(capsys):
    assert main(["extensions", "classify", "--matrix", "0", "1", "-1", "0"]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["case"] == 7
    assert captured.err == "case (7): complex pair (i, -i)\n"


def test_oracle_generators_table(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "generators", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["command"] == "oracle-generators" and len(doc["rows"]) == 51
    assert all(row["agrees"] for row in doc["rows"])


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "count": 25}))
    out = tmp_path / "o.json"
    rc = main(["--config", str(cfg), "grouplaw", "check", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["seed"] == 7 and doc["triples"] == 25


GROUPLAW = ["grouplaw", "check", "--count", "1"]
H3 = ["cohomology", "--algebra", "h3"]


@pytest.mark.parametrize("text,argv,code,needle", [
    ("{bad", GROUPLAW, EXIT_BAD_PARAMS, "not valid JSON"),
    ('{"nosuch": 1, "seed": 3}', GROUPLAW, EXIT_BAD_PARAMS, "'nosuch'"),
    ("[1]", GROUPLAW, EXIT_BAD_PARAMS, "JSON object"),
    (None, GROUPLAW, EXIT_IO, "none.json"),
    ('{"coeffs": "bogus"}', H3, EXIT_BAD_PARAMS, "invalid choice: 'bogus'"),
    ('{"count": 2.5}', ["grouplaw", "check"], EXIT_BAD_PARAMS, "invalid int value: '2.5'"),
    ('{"degree": 2.5}', H3, EXIT_BAD_PARAMS, "invalid int value: '2.5'"),
    ('{"count": true}', ["grouplaw", "check"], EXIT_BAD_PARAMS, "True"),
], ids=["invalid-json", "unknown-key", "not-an-object", "missing-file", "wrong-choice",
        "float-count", "float-degree", "boolean-count"])
def test_config_file_errors(tmp_path, capsys, text, argv, code, needle):
    cfg = tmp_path / "none.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "o.json"
    assert main(["--config", str(cfg), *argv, "--out", str(out)]) == code
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_config_supplies_required_options_and_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 4}))
    rc, doc = run_cli(["--config", str(cfg), "spectrum", "--ell", "0.5"], tmp_path)
    assert rc == EXIT_OK and doc["cutoff"] == 4
    rc, doc = run_cli(["--config", str(cfg), "spectrum", "--ell", "0.5", "--cutoff", "3"], tmp_path)
    assert rc == EXIT_OK and doc["cutoff"] == 3
    # a choice key names the route; the reduction then refuses trivial
    # coefficients, as a typed --method does
    cfg.write_text(json.dumps({"method": "reduction", "coeffs": "trivial", "degree": 1}))
    assert main(["--config", str(cfg), *H3]) == EXIT_BAD_PARAMS
    assert "adjoint cohomology, not trivial" in capsys.readouterr().err
    # a multi-value option takes a list
    cfg.write_text(json.dumps({"matrix": ["1", "0", 0, -1]}))
    rc, doc = run_cli(["--config", str(cfg), "extensions", "classify"], tmp_path)
    assert rc == EXIT_OK and doc["matrix"] == ["1", "0", "0", "-1"] and doc["case"] == 2


@pytest.mark.parametrize("argv", [["cohomology", "--degree", "x"], [],
                                  ["jacobi", "--nosuch"], ["nosuch"]],
                         ids=["malformed-value", "no-subcommand", "unknown-option",
                              "unknown-subcommand"])
def test_usage_errors_are_invalid_parameters(argv):
    assert main(argv) == EXIT_BAD_PARAMS


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "verify-all" in capsys.readouterr().out


def test_golden_fixtures_match_builders():
    import importlib.resources as res

    from newstein.algebras import build_extended, build_newstein, build_newstein2
    from newstein.liealg import LieAlgebra

    for name, builder in (("newstein.json", build_newstein),
                          ("newstein2.json", build_newstein2),
                          ("newstein_ext7.json", lambda: build_extended(7))):
        text = res.files("newstein").joinpath("data", name).read_text()
        shipped = LieAlgebra.from_definition(json.loads(text))
        built = builder()
        assert shipped.labels == built.labels
        assert shipped.constants == built.constants


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "newstein.cli", "jacobi",
                           "--algebra", "sl2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["violations"] == 0
