import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairinglab as pl
from pairinglab import cli, statefile
from pairinglab.errors import ParseError, ValidationError

from conftest import MC_COEFFS


@pytest.fixture
def mc_file(tmp_path, mc_state):
    path = tmp_path / "mc.json"
    statefile.save_state(path, mc_state, label="mc")
    return path


@pytest.fixture
def iso_file(tmp_path):
    path = tmp_path / "iso.json"
    statefile.save_state(path, pl.named_counterexample("isotropic", p=0.5).state)
    return path


class TestStateFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        bs = pl.random_bipartite_state(2, 3, rng)
        path = tmp_path / "state.json"
        statefile.save_state(path, bs)
        back = statefile.load_state(path)
        assert isinstance(back, pl.BipartiteState)
        assert back.d_A == 2 and back.d_B == 3
        assert np.array_equal(back.mat, bs.mat)

    def test_single_system_round_trip(self, tmp_path, plus_rho):
        path = tmp_path / "plus.json"
        statefile.save_state(path, plus_rho, label="plus")
        back = statefile.load_state(path)
        assert isinstance(back, pl.DensityMatrix)
        assert np.array_equal(back.mat, plus_rho.mat)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            statefile.load_state(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            statefile.load_state(path)

    def test_malformed_entry_location(self, tmp_path):
        doc = {"dims": [2], "entries": [[0, 0, 0.5, 0], [0, 1, 0.5], [1, 1, 0.5, 0]]}
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"entries\[1\]"):
            statefile.load_state(path)

    def test_non_density_matrix(self, tmp_path):
        doc = {"dims": [2], "entries": [[0, 0, 1.0, 0], [1, 1, 1.0, 0]]}
        path = tmp_path / "trace2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            statefile.load_state(path)


class TestMeasureCommand:
    def test_text_output(self, mc_file, capsys):
        assert cli.main(["measure", str(mc_file)]) == 0
        out = capsys.readouterr().out
        assert "C_l1" in out and "0.6" in out

    def test_json_output(self, mc_file, capsys):
        assert cli.main(["measure", str(mc_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"]["N"] == pytest.approx(0.6, abs=1e-9)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[")
        assert cli.main(["measure", str(bad)]) == 2

    def test_validation_error_exit_code(self, tmp_path, capsys):
        doc = {"dims": [2], "entries": [[0, 0, 1.0, 0], [1, 1, 1.0, 0]]}
        path = tmp_path / "trace2.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["measure", str(path)]) == 3


class TestDetectCommand:
    def test_pairing_state(self, mc_file, capsys):
        assert cli.main(["detect", str(mc_file)]) == 0
        assert "pairing number: 1" in capsys.readouterr().out

    def test_decompose_json(self, mc_file, capsys):
        assert cli.main(["detect", str(mc_file), "--decompose", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["measures"]["E_D"] == pytest.approx(0.2780719051126377, abs=1e-9)
        assert doc["measures"]["E_PPT"] == pytest.approx(0.6780719051126377, abs=1e-9)

    def test_not_pairing_exit_code(self, iso_file, capsys):
        assert cli.main(["detect", str(iso_file)]) == 4

    def test_single_system_file_rejected(self, tmp_path, plus_rho, capsys):
        path = tmp_path / "plus.json"
        statefile.save_state(path, plus_rho)
        assert cli.main(["detect", str(path)]) == 3


def _write_state(path, m, dims):
    """A state file listing each nonzero entry of the matrix ``m``."""
    m = np.asarray(m, dtype=complex)
    entries = [[i, j, m[i, j].real, m[i, j].imag] for i, j in np.argwhere(m).tolist()]
    path.write_text(json.dumps({"dims": list(dims), "entries": entries}))
    return path


class TestTolerances:
    def test_tol_zero_keeps_a_tiny_off_monomial_entry(self, tmp_path, capsys):
        # Bell pair on |00>, |11> of a 2 x 3 system, diagonal weight on |02>,
        # and a 1e-12 coherence between |00> and |02>
        m = np.zeros((6, 6))
        m[np.ix_([0, 4], [0, 4])] = 0.4
        m[2, 2] = 0.2
        m[0, 2] = m[2, 0] = 1e-12
        path = _write_state(tmp_path / "tiny.json", m, (2, 3))
        assert cli.main(["detect", str(path)]) == 0
        assert cli.main(["detect", "--tol", "0", str(path)]) == 4
        assert cli.main(["witness", "--tol", "0", str(path)]) == 4

    def test_tol_zero_accepts_an_exact_pairing_state(self, capsys):
        bell = Path(__file__).resolve().parent.parent / "fixtures" / "bell.json"
        assert cli.main(["detect", "--tol", "0", str(bell)]) == 0
        assert "pairing number: 1" in capsys.readouterr().out

    def test_detect_accepts_a_trace_within_the_file_tolerance(self, tmp_path, capsys):
        # the Bell fixture scaled by 1 + 8e-9: measure accepts it at the file
        # tolerance 1e-8, and detect gives the exact Bell certificate
        bell = Path(__file__).resolve().parent.parent / "fixtures" / "bell.json"
        doc = json.loads(bell.read_text())
        for entry in doc["entries"]:
            entry[2] *= 1 + 8e-9
        path = tmp_path / "bell_scaled.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["measure", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["detect", str(path)]) == 0
        scaled = capsys.readouterr().out
        assert cli.main(["detect", str(bell)]) == 0
        assert scaled == capsys.readouterr().out

    @pytest.mark.parametrize("weight", [1.0, 0.5])
    def test_derived_blocks_keep_the_file_tolerance(self, tmp_path, weight, capsys):
        # a Bell block of the given weight whose coherence exceeds its
        # diagonal by 8e-9: the state's smallest eigenvalue, -8e-9, is within
        # the file tolerance 1e-8; the renormalized block's is -8e-9 / weight
        m = np.zeros((6, 6))
        m[np.ix_([0, 4], [0, 4])] = weight / 2
        m[0, 4] = m[4, 0] = weight / 2 + 8e-9
        m[2, 2] = 1.0 - weight
        path = _write_state(tmp_path / "bell_plus.json", m, (2, 3))
        for argv in (["measure"], ["detect"], ["detect", "--decompose"], ["witness"]):
            assert cli.main([*argv, str(path)]) == 0, argv

    def test_each_mc_block_keeps_its_own_tolerance(self, tmp_path, capsys):
        # Bell blocks of weight 0.25 on |00>, |11> and 0.75 on |02>, |13>;
        # only the light block's coherence exceeds its diagonal, by 8e-9, so
        # it passes at 1e-8 / 0.25 but would fail at the heavy block's 1e-8 / 0.75
        m = np.zeros((8, 8))
        m[np.ix_([0, 5], [0, 5])] = 0.125
        m[0, 5] = m[5, 0] = 0.125 + 8e-9
        m[np.ix_([2, 7], [2, 7])] = 0.375
        path = _write_state(tmp_path / "two_blocks.json", m, (2, 4))
        assert cli.main(["detect", "--decompose", "--json", str(path)]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
        assert [b["weight"] for b in blocks] == pytest.approx([0.25, 0.75])


class TestConstructCommand:
    def test_mc(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code = cli.main([
            "construct", "mc", "--out", str(out),
            "--coeffs", json.dumps([[0.5, 0.3], [0.3, 0.5]]),
            "--a-labels", "0", "1", "--b-labels", "0", "1",
            "--dims", "2", "2",
        ])
        assert code == 0
        report = json.loads((tmp_path / "mc.json.report.json").read_text())
        assert report["report"]["N"] == pytest.approx(0.6, abs=1e-9)
        back = statefile.load_state(out)
        assert np.allclose(back.mat[np.ix_([0, 3], [0, 3])], MC_COEFFS)

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        cli.build_parser.cache_clear()
        out, coeffs = str(tmp_path / "mc.json"), json.dumps([[0.5, 0.3], [0.3, 0.5]])
        assert cli.main(["construct", "mc", "--out", out, "--coeffs", coeffs,
                         "--a-labels", "0", "1", "--b-labels", "0", "1"]) == 0
        # the second call sees the empty default labels, not the first call's
        assert cli.main(["construct", "mc", "--out", out, "--coeffs", coeffs]) == 5
        assert "label lists must match" in capsys.readouterr().err
        assert cli.build_parser.cache_info().misses == 1
        args = cli.build_parser().parse_args(["construct", "mc", "--out", out])
        assert (args.a_labels, args.b_labels, args.dims) == ((), (), (2, 2))

    @pytest.mark.parametrize("b_labels", [["0", "-2"], ["0", "-1"]],
                             ids=["colliding", "negative"])
    def test_mc_negative_label_exit_code(self, tmp_path, capsys, b_labels):
        # b label -2 would put both coefficients on the product state |00>,
        # b label -1 would wrap |1 -1> onto |01>
        out = tmp_path / "mc.json"
        assert cli.main(["construct", "mc", "--out", str(out),
                         "--coeffs", json.dumps([[0.5, 0.3], [0.3, 0.5]]),
                         "--a-labels", "0", "1", "--b-labels", *b_labels,
                         "--dims", "2", "2"]) == 5
        assert "labels must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_mc_decomposes_only_its_coefficients(self, tmp_path, capsys, decompositions):
        coeffs = [[0.4, 0.1, 0.05], [0.1, 0.3, 0.1], [0.05, 0.1, 0.3]]
        out = tmp_path / "mc.json"
        assert cli.main(["construct", "mc", "--out", str(out), "--coeffs", json.dumps(coeffs),
                         "--a-labels", "0", "2", "1", "--b-labels", "2", "0", "1",
                         "--dims", "3", "3"]) == 0
        assert decompositions == [(1, 3, 3)]  # the coefficients' validation
        # the file of the coefficients placed on |02>, |20>, |11> and the
        # whole matrix validated
        m = np.zeros((9, 9), dtype=complex)
        m[np.ix_([2, 6, 4], [2, 6, 4])] = coeffs
        want = tmp_path / "want.json"
        statefile.save_state(want, pl.BipartiteState(pl.DensityMatrix(m, 1e-9), 3, 3), label="mc")
        assert out.read_bytes() == want.read_bytes()

    def test_qubit_qudit(self, tmp_path, capsys):
        spec = {
            "p0": 0.0,
            "diag": [0.0] * 8,
            "blocks": [
                {"p": 0.5, "coeffs": [[0.5, 0.5], [0.5, 0.5]], "columns": [0, 1]},
                {"p": 0.5, "coeffs": [[0.5, 0.3], [0.3, 0.5]], "columns": [2, 3]},
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "qq.json"
        assert cli.main(["construct", "qubit-qudit", "--spec", str(spec_path),
                         "--out", str(out)]) == 0
        report = json.loads((tmp_path / "qq.json.report.json").read_text())
        assert report["report"]["pairing_number"] == 2

    def test_qubit_qudit_sum_not_psd_writes_nothing(self, tmp_path, capsys):
        spec = {"p0": 1.5, "diag": [0, 0, 0.5, 0, 0, 0, 0, 0.5], "blocks": [
            {"p": -0.5, "coeffs": [[0.5, 0.3], [0.3, 0.5]], "columns": [0, 1]}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "qq.json"
        assert cli.main(["construct", "qubit-qudit", "--spec", str(spec_path),
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == \
            "validation error: smallest eigenvalue -4.000e-01 below -1.000e-09\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_cnot_embed(self, tmp_path, plus_rho, capsys):
        inp = tmp_path / "plus.json"
        statefile.save_state(inp, plus_rho)
        out = tmp_path / "bell.json"
        assert cli.main(["construct", "cnot-embed", "--input", str(inp),
                         "--out", str(out)]) == 0
        back = statefile.load_state(out)
        n, _ = pl.negativity(back)
        assert n == pytest.approx(1.0, abs=1e-9)

    def test_appendix_a(self, tmp_path, plus_rho, capsys):
        inp = tmp_path / "plus.json"
        statefile.save_state(inp, plus_rho)
        out = tmp_path / "chain.json"
        assert cli.main(["construct", "appendix-a", "--input", str(inp),
                         "--out", str(out), "--L", "1"]) == 0
        report = json.loads((tmp_path / "chain.json.report.json").read_text())
        assert report["report"]["K"] == 4
        assert report["report"]["trace_M"] == pytest.approx(0.5, abs=1e-12)

    def test_appendix_a_of_an_input_the_loader_accepts(self, tmp_path, capsys):
        # trace 1 + 5e-9: within a state file's 1e-8, beyond DEFAULT_TOL; so
        # is the trace of rho2, which must be validated at the input's 1e-8
        inp = tmp_path / "near.json"
        statefile.save_state(inp, pl.DensityMatrix(np.array([[0.5 + 5e-9, 0.25], [0.25, 0.5]]),
                                                   1e-8))
        rho = statefile.load_state(inp)
        with pytest.raises(ValidationError, match=r"\|tr - 1\| = 5\.000e-09 > 1\.000e-09"):
            pl.DensityMatrix(rho.mat)
        out = tmp_path / "chain.json"
        assert cli.main(["construct", "appendix-a", "--input", str(inp),
                         "--out", str(out), "--L", "1"]) == 0
        chain = pl.appendix_a_chain(rho, 1)
        assert chain.rho2.validation_tol == 1e-8
        assert statefile.load_state(out).mat.tobytes() == chain.rho3.mat.tobytes()

    def test_appendix_a_cap_exit_code(self, tmp_path, plus_rho, capsys):
        inp = tmp_path / "plus.json"
        statefile.save_state(inp, plus_rho)
        assert cli.main(["construct", "appendix-a", "--input", str(inp),
                         "--out", str(tmp_path / "x.json"), "--dim-cap", "8"]) == 5

    def test_cnot_embed_cap_exit_code(self, tmp_path, rng, capsys):
        inp = tmp_path / "g12.json"
        statefile.save_state(inp, pl.ginibre_density(12, 12, rng))
        out = tmp_path / "x.json"
        assert cli.main(["construct", "cnot-embed", "--input", str(inp),
                         "--out", str(out), "--dim-cap", "100"]) == 5
        assert "cnot-embed dimension 144 exceeds cap 100" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["construct", "cnot-embed", "--input", str(inp),
                         "--out", str(out), "--dim-cap", "144"]) == 0

    def test_counterexample(self, tmp_path, capsys):
        out = tmp_path / "iso.json"
        assert cli.main(["construct", "counterexample", "--name", "isotropic",
                         "--p", "0.5", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "iso.json.report.json").read_text())
        assert report["report"]["C_l1"] > report["report"]["N"]

    def test_unknown_counterexample_exit_code(self, tmp_path, capsys):
        assert cli.main(["construct", "counterexample", "--name", "nope",
                         "--out", str(tmp_path / "x.json")]) == 5


class TestConstructInputErrors:
    """A bad --spec or --coeffs is a parse error (exit 2), not a crash."""

    def test_missing_spec_file(self, tmp_path, capsys):
        assert cli.main(["construct", "qubit-qudit", "--spec", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "x.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_spec_without_diag(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"p0": 1.0, "blocks": []}))
        assert cli.main(["construct", "qubit-qudit", "--spec", str(spec),
                         "--out", str(tmp_path / "x.json")]) == 2
        assert "missing key 'diag'" in capsys.readouterr().err

    def test_coeffs_not_json(self, tmp_path, capsys):
        assert cli.main(["construct", "mc", "--coeffs", "[[0.5,0.5],[0.5",
                         "--a-labels", "0", "1", "--b-labels", "0", "1",
                         "--out", str(tmp_path / "x.json")]) == 2
        assert "--coeffs: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("kind, coeffs, message", [
        ("mc", [0.5, 0.5], "--coeffs: expected a matrix of numbers, got shape (2,)"),
        ("mc", [[float("nan")]], "--coeffs: matrix has a NaN or infinite entry"),
        ("qubit-qudit", [0.5, 0.5],
         "block 0 coeffs: expected a matrix of numbers, got shape (2,)"),
    ], ids=["mc-vector", "mc-nan", "qubit-qudit-vector"])
    def test_malformed_coeffs(self, tmp_path, capsys, kind, coeffs, message):
        if kind == "mc":
            argv = ["mc", "--coeffs", json.dumps(coeffs), "--a-labels", "0", "1",
                    "--b-labels", "0", "1"]
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"p0": 0.0, "diag": [0.0] * 4, "blocks": [
                {"p": 1.0, "coeffs": coeffs, "columns": [0, 1]}]}))
            argv = ["qubit-qudit", "--spec", str(spec)]
        out = tmp_path / "x.json"
        assert cli.main(["construct", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("coeffs", np.eye(3).tolist(), "block 0 coeffs: expected a 2x2 matrix, got shape (3, 3)"),
        ("coeffs", [[1.0]], "block 0 coeffs: expected a 2x2 matrix, got shape (1, 1)"),
        ("columns", [0, 1, 2], "block 0 columns: expected two integers, got [0, 1, 2]"),
        ("columns", [0.5, 1], "block 0 columns: expected two integers, got [0.5, 1]"),
        ("p", "1.0", "block 0 p: expected a finite real number, got '1.0'"),
        ("p", float("nan"), "block 0 p: expected a finite real number, got nan"),
        ("p", 10**400, "block 0 p: expected a finite real number, got 1000"),
        ("p0", "0.0", "p0: expected a finite real number, got '0.0'"),
        ("p0", True, "p0: expected a finite real number, got True"),
        ("diag", [0.0, "x", 0.0, 0.0], "diag entry 1: expected a finite real number, got 'x'"),
        ("diag", [[0.0, 0.0], [0.0, 0.0]], "diag entry 0: expected a finite real number"),
    ], ids=["coeffs-3x3", "coeffs-1x1", "three-columns", "fractional-column", "p-string",
            "p-nan", "p-overflow", "p0-string", "p0-bool", "diag-string", "diag-nested"])
    def test_malformed_qubit_qudit_spec(self, tmp_path, capsys, field, value, message):
        doc = {"p0": 0.0, "diag": [0.0] * 4, "blocks": [
            {"p": 1.0, "coeffs": [[0.5, 0.5], [0.5, 0.5]], "columns": [0, 1]}]}
        if field in doc:
            doc[field] = value
        else:
            doc["blocks"][0][field] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        assert cli.main(["construct", "qubit-qudit", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {spec}: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind, option", [("mc", "--coeffs"), ("qubit-qudit", "--spec"),
                                              ("cnot-embed", "--input")])
    def test_missing_option(self, tmp_path, capsys, kind, option):
        assert cli.main(["construct", kind, "--out", str(tmp_path / "x.json")]) == 2
        assert f"{option} is required" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, code, message", [
        (["counterexample", "--name", "isotropic"], 2, "--p is required for kind=counterexample"),
        (["counterexample", "--name", "isotropic", "--p", "nan"], 2,
         "--p must be a number in [0, 1], got nan"),
        (["counterexample", "--name", "isotropic", "--p", "1.5"], 2,
         "--p must be a number in [0, 1], got 1.5"),
        (["counterexample", "--name", "isotropic", "--p=-0.25"], 2,
         "--p must be a number in [0, 1], got -0.25"),
        (["appendix-a", "--L", "0"], 2, "--L must be a positive integer, got 0"),
        (["appendix-a", "--L", "-3"], 2, "--L must be a positive integer, got -3"),
        (["appendix-a", "--L", "1"], 5, "the chain needs dimension at least 2"),
    ], ids=["p-missing", "p-nan", "p-above-1", "p-negative", "L-zero", "L-negative",
            "appendix-a-of-one-dim"])
    def test_bad_parameters(self, tmp_path, capsys, argv, code, message):
        if argv[0] == "appendix-a":  # a 1-dim input
            statefile.save_state(tmp_path / "one.json", pl.DensityMatrix(np.eye(1)))
            argv = [*argv, "--input", str(tmp_path / "one.json")]
        out = tmp_path / "x.json"
        assert cli.main(["construct", *argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing directory", "directory", "sidecar directory"])
    def test_unwritable_out(self, tmp_path, capsys, where):
        out = tmp_path / "x.json"
        if where == "missing directory":
            out = tmp_path / "nope" / "x.json"
        elif where == "directory":
            out.mkdir()
        else:
            (tmp_path / "x.json.report.json").mkdir()
        assert cli.main(["construct", "counterexample", "--name", "tau-remark",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        failed = f"{out}.report.json" if where == "sidecar directory" else str(out)
        assert err.startswith(f"parse error: cannot write {failed}: ")
        assert err.count("\n") == 1
        if where == "sidecar directory":  # no state file without its report
            assert not out.exists()


class TestVerifyCommand:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "pairinglab", "verify", "--suite", "l0-bound", "--trials", "5"],
            env={"PYTHONPATH": str(src), "PATH": ""}, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("l0-bound: trials=5 ")

    def test_single_suite_ok(self, capsys):
        code = cli.main(["verify", "--suite", "negativity-bound",
                         "--trials", "20", "--seed", "7"])
        assert code == 0
        assert "negativity-bound" in capsys.readouterr().out

    def test_all_suites_json(self, capsys):
        code = cli.main(["verify", "--suite", "all", "--trials", "10",
                         "--seed", "3", "--dims", "2", "4", "--json"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == len(cli.verify.SUITES)
        assert all(r["violations"] == [] for r in reports)
        assert all(r["algorithm"] == "philox4x64/stream-2" for r in reports)

    def test_unknown_suite_exit_code(self, capsys):
        assert cli.main(["verify", "--suite", "nonsense", "--trials", "5"]) == 5

    def test_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("PAIRINGLAB_SEED", "42")
        cli.main(["verify", "--suite", "negativity-bound", "--trials", "5"])
        assert "seed=42" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--trials", "-3"], "--trials must be nonnegative"),
        (["--dims", "0", "3"], "--dims must be positive"),
        (["--dims", "3", "-1"], "--dims must be positive"),
    ])
    def test_bad_sizes_are_parse_errors(self, capsys, argv, message):
        assert cli.main(["verify", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_is_a_parse_error(self, capsys):
        assert cli.main(["verify", "--seed", "-5"]) == 2
        assert "--seed must be nonnegative, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_env_seed_that_is_no_nonnegative_integer_is_a_parse_error(self, monkeypatch,
                                                                      capsys, value):
        monkeypatch.setenv("PAIRINGLAB_SEED", value)
        assert cli.main(["verify", "--suite", "negativity-bound", "--trials", "5"]) == 2
        assert f"PAIRINGLAB_SEED must be a nonnegative integer, got {value!r}" \
            in capsys.readouterr().err

    def test_lowerbound_without_room_for_a_transposition_is_infeasible(self, capsys):
        assert cli.main(["verify", "--suite", "lowerbound", "--dims", "3", "1"]) == 5
        assert "cannot host a transposition on a 2 x 1 system" in capsys.readouterr().err

    def test_zero_trials_give_empty_ok_reports(self, capsys):
        assert cli.main(["verify", "--trials", "0", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["suite"] for r in reports] == list(cli.verify.SUITES)
        assert all(r["violations"] == [] and r["margins"] == {} and r["worst_gap"] == 0.0
                   for r in reports)

    def test_text_output_names_the_closest_margin(self, capsys):
        assert cli.main(["verify", "--suite", "negativity-bound", "--trials", "10"]) == 0
        assert " closest margin=-" in capsys.readouterr().out

    def test_seed_reproducible_reports(self, capsys):
        args = ["verify", "--suite", "pairing-roundtrip", "--trials", "15",
                "--seed", "99", "--json"]
        cli.main(args)
        first = json.loads(capsys.readouterr().out)
        cli.main(args)
        second = json.loads(capsys.readouterr().out)
        assert first[0]["worst_gap"] == second[0]["worst_gap"]


class TestJsonLayout:
    """``--json`` prints the top-level object or array one member to a
    line, each member as ``json.dumps`` writes it: the document is the
    one ``indent=1`` gave."""

    @pytest.mark.parametrize("doc, text", [
        ({}, "{}"),
        ([], "[]"),
        ({"a": 1.5, "b": {"c": [1, None]}, 3: "x"},
         '{\n "a": 1.5,\n "b": {"c": [1, null]},\n "3": "x"\n}'),
        ([{"p": 0.25}, [0, 1], "s"], '[\n {"p": 0.25},\n [0, 1],\n "s"\n]'),
    ])
    def test_one_member_to_a_line(self, doc, text):
        assert cli._json(doc) == text
        assert json.loads(text) == json.loads(json.dumps(doc, indent=1))

    @pytest.mark.parametrize("argv", [
        ["measure", "--json", "fixtures/mc_example.json"],
        ["detect", "--decompose", "--json", "fixtures/mc_example.json"],
        ["verify", "--suite", "all", "--trials", "5", "--json"],
    ], ids=["measure", "detect-decompose", "verify"])
    def test_each_command_prints_the_layout(self, argv, capsys, monkeypatch):
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        doc = json.loads("\n".join(lines))
        assert len(lines) == len(doc) + 2
        assert [json.loads(line.rstrip(",").partition(": ")[2] if isinstance(doc, dict)
                           else line.rstrip(",")) for line in lines[1:-1]] == \
            list(doc.values() if isinstance(doc, dict) else doc)


class TestClosedOutput:
    """A reader that is gone before the command's first write: the command
    exits 141 (128 + SIGPIPE, as a shell reports a command the signal
    killed) with no traceback, never 1, the code of a verification
    violation."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "all", "--trials", "20", "--json"],
        ["verify", "--suite", "l0-bound", "--trials", "5"],
        ["measure", "fixtures/bell.json"],
    ], ids=["verify-json", "verify-text", "measure"])
    def test_a_closed_pipe_exits_141_without_a_traceback(self, argv):
        repo = Path(__file__).resolve().parent.parent
        read, write = os.pipe()
        os.close(read)  # before the child starts, so before its first write
        try:
            done = subprocess.run([sys.executable, "-m", "pairinglab", *argv], cwd=repo,
                                  stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                                  env={"PYTHONPATH": str(repo / "src"), "PATH": ""})
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, "")
        assert cli.EXIT_BROKEN_PIPE == 141

    def test_main_lets_the_error_through_in_process(self, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(BrokenPipeError):
            cli.main(["verify", "--suite", "l0-bound", "--trials", "5"])


class TestWitnessCommand:
    def test_pairing_state(self, mc_file, capsys):
        assert cli.main(["witness", str(mc_file)]) == 0
        out = capsys.readouterr().out
        assert "block negativity = 0.6" in out

    def test_not_pairing_exit_code(self, iso_file, capsys):
        assert cli.main(["witness", str(iso_file)]) == 4

    def test_diagonal_has_nothing_to_distill(self, tmp_path, diagonal_state, capsys):
        path = tmp_path / "diag.json"
        statefile.save_state(path, diagonal_state)
        assert cli.main(["witness", str(path)]) == 4

    def test_prints_distill_witness_per_transposition(self, tmp_path, rng, capsys, monkeypatch):
        states = [pl.cnot_embed(pl.ginibre_density(5, 5, rng)),
                  pl.random_canonical_pairing(4, 8, 10, rng, diag_weight=0.3)]
        # the default text, then every bit of each value
        for fmt, bs in [(cli._fmt, bs) for bs in states] + [(float.hex, bs) for bs in states]:
            monkeypatch.setattr(cli, "_fmt", fmt)
            path = tmp_path / "state.json"
            statefile.save_state(path, bs)
            cert = pl.detect_canonical_pairing(bs)
            want = []
            for i, ((j, k), (jp, kp)) in enumerate(cert.transpositions):
                _, _, block_n = pl.distill_witness(bs, cert, i)
                want.append(f"transposition {i}: ({j},{k})<->({jp},{kp})  "
                            f"block negativity = {fmt(block_n)}")
            assert cli.main(["witness", str(path)]) == 0
            assert capsys.readouterr().out.splitlines() == want
            assert cli.main(["witness", str(path), "--index", "7"]) == 0
            assert capsys.readouterr().out.splitlines() == want[7:8]

    @pytest.mark.parametrize("index", ["1", "5", "-1"])
    def test_index_out_of_range_is_infeasible(self, mc_file, capsys, index):
        assert cli.main(["witness", str(mc_file), "--index", index]) == 5
        assert "out of range: the state has 1 transpositions, indices 0 to 0" \
            in capsys.readouterr().err


class TestBadTolerance:
    @pytest.mark.parametrize("command", ["measure", "detect", "witness"])
    @pytest.mark.parametrize("tol", [["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
                                     ["--tol=-inf"]])
    def test_is_a_parse_error(self, mc_file, capsys, command, tol):
        assert cli.main([command, str(mc_file), *tol]) == 2
        captured = capsys.readouterr()
        assert "--tol must be a nonnegative finite number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["measure", "detect", "witness"])
    def test_zero_is_allowed(self, mc_file, capsys, command):
        assert cli.main([command, str(mc_file), "--tol", "0"]) == 0


class TestUnreadableFiles:
    """Bytes that are not UTF-8 are a parse error (exit 2), not a crash."""

    def test_state_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"dims": [1], "entries": [[0, 0, 1.0, 0.0]], "label": "\xff"}')
        assert cli.main(["measure", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"p0": 1.0, "diag": [0.5, 0.5], "note": "\xfe"}')
        assert cli.main(["construct", "qubit-qudit", "--spec", str(spec),
                         "--out", str(tmp_path / "x.json")]) == 2
        assert "not UTF-8" in capsys.readouterr().err
