"""Command-line interface: determinism, exit codes, file formats."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from newstein import cli
from newstein.cli import (EXIT_BAD_PARAMS, EXIT_IO, EXIT_MISMATCH, EXIT_OK,
                          EXIT_UNKNOWN_ALGEBRA, main)

# verify-all claims whose values are exact, hence the same on every machine;
# h2-adjoint is exact too but is left out for its two-minute run time
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


def test_arithmetic_error_from_input_is_invalid_parameters():
    assert main(["extensions", "classify", "--matrix", "1/0", "0", "0", "0"]) == EXIT_BAD_PARAMS


def test_invalid_parameters_exit_code(tmp_path):
    assert main(["spectrum", "--ell", "0.0", "--cutoff", "-3"]) == EXIT_BAD_PARAMS


def test_cohomology_subcommand(tmp_path):
    rc, doc = run_cli(["cohomology", "--algebra", "h3", "--coeffs", "trivial",
                       "--degree", "2", "--method", "modular"], tmp_path)
    assert rc == EXIT_OK and doc["betti"] == 2 and len(doc["primes"]) >= 3
    rc, doc = run_cli(["cohomology", "--algebra", "newstein", "--coeffs", "adjoint",
                       "--degree", "1", "--via-reduction"], tmp_path)
    assert rc == EXIT_OK and doc["betti"] == 8


def test_file_selector_roundtrip(tmp_path):
    from newstein.algebras import build_newstein

    path = tmp_path / "g.json"
    build_newstein().save(path)
    rc, doc = run_cli(["jacobi", "--algebra", f"file:{path}"], tmp_path)
    assert rc == EXIT_OK and doc["dimension"] == 51


def test_extensions_classify(tmp_path):
    rc, doc = run_cli(["extensions", "classify", "--matrix", "0", "1", "-1", "0"], tmp_path)
    assert rc == EXIT_OK and doc["case"] == 7
    rc, doc = run_cli(["extensions", "classify", "--matrix", "1", "0", "0", "-1"], tmp_path)
    assert doc["case"] == 2


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


def test_grouplaw_check_pinned_values(tmp_path):
    # values of numpy 2.4 on x86-64; the claim and the command share one loop
    rc, doc = run_cli(["grouplaw", "check", "--seed", "2161", "--count", "50"], tmp_path)
    assert rc == EXIT_OK
    assert doc == {"command": "grouplaw-check", "seed": 2161, "triples": 50,
                   "max_deviation": 8.971989817752046e-15,
                   "max_deviation_extended": 5.329070518200751e-15,
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
    got = json.dumps(claims[0], indent=1, default=cli._json_default)
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


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "count": 25}))
    out = tmp_path / "o.json"
    rc = main(["--config", str(cfg), "grouplaw", "check", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["seed"] == 7 and doc["triples"] == 25


@pytest.mark.parametrize("text,code,needle", [
    ("{bad", EXIT_BAD_PARAMS, "not valid JSON"),
    ('{"nosuch": 1, "seed": 3}', EXIT_BAD_PARAMS, "'nosuch'"),
    ("[1]", EXIT_BAD_PARAMS, "JSON object"),
    (None, EXIT_IO, "none.json"),
], ids=["invalid-json", "unknown-key", "not-an-object", "missing-file"])
def test_config_file_errors(tmp_path, capsys, text, code, needle):
    cfg = tmp_path / "none.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "o.json"
    assert main(["--config", str(cfg), "grouplaw", "check", "--count", "1",
                 "--out", str(out)]) == code
    assert needle in capsys.readouterr().err
    assert not out.exists()


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
