import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dotphase
from dotphase import cli, qpe, statevector as sv
from dotphase.errors import NumericalInvariantError
from test_statevector import drift_factors

TWO_PI = 2 * math.pi


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


def break_kicks(monkeypatch, broken):
    """Make ``qpe._phase_diagonals`` give the diagonal ``broken[(power,
    phase)]`` for that power of that phase's gate, or of every phase's for a
    phase of None."""
    phase_diagonals = qpe._phase_diagonals

    def bent(thetas, mode, powers=(1,)):
        diagonals = phase_diagonals(thetas, mode, powers)
        for (power, phase), entries in broken.items():
            rows = np.asarray(powers)[:, None] == power
            if phase is not None:
                rows = rows & (np.asarray(thetas) == phase)
            diagonals[rows & np.ones(len(thetas), dtype=bool)] = entries
        return diagonals

    monkeypatch.setattr(qpe, "_phase_diagonals", bent)


class TestEstimate:
    def test_representable_exact(self, capsys):
        report = run_json(
            ["estimate", "--m", "3", "--phase", "0.625turn", "--shots", "0"], capsys
        )
        results = report["results"]
        assert results["readout_integer"] == 5
        assert results["estimated_phase_rad"] == pytest.approx(TWO_PI * 0.625)
        assert results["eta_percent"] == pytest.approx(100.0)
        assert results["max_probability"] == pytest.approx(1.0, abs=1e-10)

    def test_shot_determinism(self, capsys):
        args = ["estimate", "--m", "3", "--phase", "0.625turn",
                "--shots", "100", "--seed", "7"]
        report = run_json(args, capsys)
        estimates = report["results"]["estimates_rad"]
        assert len(estimates) == 100
        assert all(e == pytest.approx(TWO_PI * 0.625) for e in estimates)
        assert run_json(args, capsys)["results"] == report["results"]

    @pytest.mark.parametrize("turns, outcome", [("0.625", "5"), ("0.375", "3")])
    def test_sampled_run_at_a_grid_phase(self, capsys, turns, outcome):
        # representable at m = 3, so every chance but one is 0 and none may
        # round below it, as unclamped ones do at 0.375 turn: a negative
        # chance stops the sampler
        report = run_json(["estimate", "--m", "3", "--phase", turns + "turn",
                           "--shots", "100", "--full-distribution"], capsys)
        assert min(report["results"]["distribution"]) >= 0
        assert report["results"]["counts"] == {outcome: 100}

    def test_phase_out_of_range(self, capsys):
        code, _, err = run_cli(["estimate", "--m", "3", "--phase", "7.0"], capsys)
        assert code == 1
        assert "phase" in err

    def test_bad_angle_suffix(self, capsys):
        code, _, _ = run_cli(["estimate", "--m", "3", "--phase", "1.0furlong"], capsys)
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, err = run_cli(["estimate", "--m", "3"], capsys)
        assert code == 1
        assert "phase_rad" in err

    def test_full_distribution_flag(self, capsys):
        report = run_json(
            ["estimate", "--m", "2", "--phase", "0.25turn", "--shots", "5",
             "--seed", "1", "--full-distribution"],
            capsys,
        )
        assert len(report["results"]["distribution"]) == 4


class TestSweep:
    def test_row_table(self, capsys):
        report = run_json(
            ["sweep", "--m-values", "5,6,7", "--n", "3",
             "--random-phases", "20", "--seed", "3"],
            capsys,
        )
        rows = report["results"]["rows"]
        assert len(rows) == 60
        for row in rows:
            assert row["empirical_success"] >= row["bound"] - 1e-9

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            ["sweep", "--m-values", "5", "--n", "3", "--phases", "0.625turn",
             "--format", "csv", "--output", str(out)],
            capsys,
        )
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "m,n,phi_rad,empirical_success,bound"
        assert len(lines) == 2
        assert float(lines[1].split(",")[3]) == pytest.approx(1.0, abs=1e-10)

    def test_empty_phase_list(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--m-values", "5", "--n", "3", "--phases", ""], capsys
        )
        assert code == 1

    def test_undefined_bound_rejected(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--m-values", "4", "--n", "3", "--phases", "1.0"], capsys
        )
        assert code == 1
        assert "m >= n + 2" in err

    def test_m_at_most_n_rejected(self, capsys, monkeypatch):
        # refused by qpe.success_probability_bound before any m is simulated
        monkeypatch.setattr(qpe, "prepare_register", None)
        code, out, err = run_cli(
            ["sweep", "--m-values", "5,3", "--n", "3", "--phases", "1.0"], capsys)
        assert code == 1 and out == ""
        assert err == "error: need m >= n + 2, got m=3, n=3\n"

    @pytest.mark.parametrize("m_values", [str(qpe.MAX_REGISTER + 1), "5,0",
                                          f"5,{qpe.MAX_REGISTER + 1}"])
    def test_register_cap(self, capsys, monkeypatch, m_values):
        # refused before any m is simulated, as estimate refuses it
        monkeypatch.setattr(qpe, "prepare_register", None)
        code, out, err = run_cli(
            ["sweep", "--m-values", m_values, "--n", "0", "--phases", "1.0"], capsys)
        assert code == 1 and out == ""
        assert f"m must be in [1, {qpe.MAX_REGISTER}]" in err

    def test_chunks_match_one_phase_at_a_time(self, capsys):
        # 40 phases cross a batch at m = 11; each row is the window
        # empirical_success takes of that phase's own distribution
        report = run_json(["sweep", "--m-values", "5,11", "--n", "3",
                           "--random-phases", "40", "--seed", "2"], capsys)
        rows = report["results"]["rows"]
        assert qpe.batch_size(11) < 40 and len(rows) == 80
        for row in rows:
            assert row["empirical_success"] == qpe.empirical_success(
                row["m"], 3, row["phi_rad"])

    def test_representable_phase_all_ones(self, capsys):
        report = run_json(
            ["sweep", "--m-values", "5,6", "--n", "3", "--phases", "0.375turn"],
            capsys,
        )
        assert all(
            row["empirical_success"] == pytest.approx(1.0)
            for row in report["results"]["rows"]
        )


class TestPulseFit:
    def test_hadamard_preset_reports_gap(self, capsys):
        report = run_json(["pulse-fit", "--preset", "hadamard"], capsys)
        assert report["results"]["prescribed_pulse_gap"] == pytest.approx(2.0)
        assert report["results"]["residual"] < 1e-8
        assert report["warnings"]

    def test_pulse_phase_preset_in_model(self, capsys):
        report = run_json(["pulse-fit", "--preset", "pulse-phase:0.7"], capsys)
        assert report["results"]["residual"] < 1e-8

    def test_malformed_matrix(self, capsys):
        code, _, _ = run_cli(["pulse-fit", "--matrix", "1,2,3"], capsys)
        assert code == 1

    def test_non_unitary_matrix(self, capsys):
        code, _, _ = run_cli(
            ["pulse-fit", "--matrix", "1,0,0,0,0,0,2,0"], capsys
        )
        assert code == 1

    def test_explicit_matrix(self, capsys):
        s = 1 / math.sqrt(2)
        flat = [s, 0, s, 0, s, 0, -s, 0]
        report = run_json(
            ["pulse-fit", "--matrix", ",".join(str(v) for v in flat)], capsys
        )
        assert report["results"]["residual"] < 1e-8


class TestCalibrateClock:
    def test_accurate(self, capsys):
        report = run_json(
            ["calibrate-clock", "--duration", "1.0", "--total-scales", "60",
             "--elapsed-scales", "60", "--t-ideal", "1.0"],
            capsys,
        )
        assert report["results"]["verdict"] == "accurate"

    def test_deviation_increase(self, capsys):
        report = run_json(
            ["calibrate-clock", "--duration", "0.9", "--total-scales", "60",
             "--elapsed-scales", "60", "--t-ideal", "1.0",
             "--comparison-mode", "deviation"],
            capsys,
        )
        assert report["results"]["verdict"] == "increase-frequency"

    def test_zero_elapsed_scales(self, capsys):
        code, _, _ = run_cli(
            ["calibrate-clock", "--duration", "1.0", "--total-scales", "60",
             "--elapsed-scales", "0", "--t-ideal", "1.0"],
            capsys,
        )
        assert code == 1

    def test_varphi_input(self, capsys):
        report = run_json(
            ["calibrate-clock", "--varphi", "0.625", "--total-scales", "10",
             "--elapsed-scales", "10", "--t-ideal", "1.0",
             "--varpi", "1.0", "--n0", "1.0", "--n-vac", "1.0",
             "--r63", "1.0", "--e-field", "1.0"],
            capsys,
        )
        assert report["results"]["T"] == pytest.approx(3.5 * math.pi)


class TestFeasibility:
    def test_defaults(self, capsys):
        report = run_json(["feasibility"], capsys)
        results = report["results"]
        assert results["gamma"] == pytest.approx(9.99999e-7, rel=1e-5)
        assert results["max_qubits"] == 447
        assert results["omega_eff"] == {"value": pytest.approx(30.0), "unit": "MHz"}
        assert any("unit" in w for w in report["warnings"])

    def test_over_budget_warning(self, capsys):
        report = run_json(["feasibility", "--n-qubits", "450"], capsys)
        assert report["results"]["protocol_time_s"] == pytest.approx(10.1025)
        assert any("exceeds the coherence budget" in w for w in report["warnings"])

    def test_zero_detuning(self, capsys):
        code, _, _ = run_cli(["feasibility", "--delta", "0"], capsys)
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--two-gate-time", "1e-320"),
                                             ("--coherence-time", "1e308")])
    def test_time_ratio_too_large(self, capsys, flag, value):
        code, out, err = run_cli(["feasibility", flag, value], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: coherence time") and "two-qubit gate time" in err

    def test_huge_finite_time_ratio_returns(self):
        # a 30 s timeout turns a hang in max_qubits into a failure
        src = os.path.dirname(os.path.dirname(dotphase.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "dotphase.cli", "feasibility",
             "--coherence-time", "1e307", "--two-gate-time", "1"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=30)
        assert proc.returncode in (0, 1), proc.stderr
        assert "Traceback" not in proc.stderr


class TestConfigFileAndReplay:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3, "phase_rad": "0.625turn", "seed": 1}))
        report = run_json(
            ["estimate", "--config", str(cfg), "--seed", "2"], capsys
        )
        assert report["config"]["m"] == 3
        assert report["config"]["seed"] == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3, "phase_rad": 1.0, "bogus": 1}))
        code, _, err = run_cli(["estimate", "--config", str(cfg)], capsys)
        assert code == 1
        assert "bogus" in err

    def test_command_mismatch(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "sweep"}))
        code, _, _ = run_cli(["estimate", "--config", str(cfg)], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--m", "4", "--phase", "0.3turn", "--shots", "25",
             "--seed", "11"],
            ["sweep", "--m-values", "5,6", "--n", "3", "--random-phases", "5",
             "--seed", "4"],
            ["feasibility", "--n-qubits", "100"],
            ["pulse-fit", "--preset", "phase:0.3turn"],
            ["calibrate-clock", "--varphi", "0.625", "--total-scales", "10",
             "--elapsed-scales", "9", "--t-ideal", "1.0", "--comparison-mode",
             "literal", "--eta-percent", "90"],
        ],
    )
    def test_replay_from_echoed_config(self, capsys, tmp_path, args):
        first = run_json(args, capsys)
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(first["config"]))
        second = run_json([args[0], "--config", str(cfg)], capsys)
        assert json.dumps(second["results"], sort_keys=True) == json.dumps(
            first["results"], sort_keys=True
        )

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code, out, err = run_cli(
            ["feasibility", "--output", "report.json"], capsys
        )
        assert code == 0, err
        assert (tmp_path / "report.json").exists()


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, _ = run_cli(["estimate", "--m", "not-a-number",
                              "--phase", "1"], capsys)
        assert code == 1

    def test_numerical_invariant_maps_to_2(self, capsys, monkeypatch):
        def boom(*args):
            raise NumericalInvariantError("synthetic drift")

        monkeypatch.setattr(qpe, "readout_distribution", boom)
        code, _, err = run_cli(["estimate", "--m", "3", "--phase", "1.0"], capsys)
        assert code == 2
        assert "invariant" in err

    def test_pulse_literal_m16_unitarity_defect(self, capsys):
        # the known pulse-literal defect: qpe._phase_diagonals raises the
        # rounded pulse entries to the kick's power, and from 2^15 on the
        # kick drifts past the unitarity tolerance; the tree that a sampled
        # run draws from gives the statevector's verdict and names the kick
        verdict = "error: gate is not unitary (deviation 2.980e-12)"
        for shots, name in (("0", ""), ("100", ": kick of power 2^15 at phi = 0.3")):
            code, out, err = run_cli(["estimate", "--m", "16", "--mode", "pulse-literal",
                                      "--phase", "0.3", "--shots", shots], capsys)
            assert code == 1 and out == ""
            assert err == f"{verdict}{name}\n", shots

    def test_branch_drift_in_a_sampled_run_exits_2(self, capsys, monkeypatch):
        # level 3's branch factors drift by 1e-9, and level 4's, built from
        # them, fail their check of |g|^2
        drift_factors(monkeypatch, level=3, scale=1 + 1e-9)
        code, out, err = run_cli(["estimate", "--m", "6", "--phase", "1.0",
                                  "--shots", "10"], capsys)
        assert code == 2 and out == ""
        assert re.fullmatch(r"numerical invariant violated: branch factor of "
                            r"molecule 4 has \|g\|\^2 = 1\.0000000\d+\n", err)

    def test_non_unitary_kick_in_a_sweep_exits_1(self, capsys, monkeypatch):
        # one of 12 random phases gets a non-unitary kick diagonal; the other
        # rows of its stack are fine, and the run still stops
        target = float(np.random.default_rng(4).uniform(0.0, TWO_PI, 12)[7])
        phase_diagonals = qpe._phase_diagonals

        def broken(thetas, mode, powers=(1,)):
            diagonals = phase_diagonals(thetas, mode, powers)
            diagonals[:, np.asarray(thetas) == target] = [1.0, 1.5]
            return diagonals

        monkeypatch.setattr(qpe, "_phase_diagonals", broken)
        code, out, err = run_cli(["sweep", "--m-values", "5,8", "--n", "3",
                                  "--random-phases", "12", "--seed", "4"], capsys)
        assert code == 1 and out == ""
        assert "gate is not unitary (deviation 1.250e+00)" in err

    @pytest.mark.parametrize("m_values", ["5,8", "8,5"])
    def test_sweep_names_its_largest_registers_first_kick(self, capsys, monkeypatch,
                                                          m_values):
        # the kick of power 2^3 (molecule 2 at m = 5, molecule 5 at m = 8) and
        # that of power 2^7 (molecule 1 at m = 8 only) are broken, each with
        # its own deviation: both sizes share one tree, whose kicks are
        # m = 8's, so in either order the verdict names m = 8's molecule 1
        break_kicks(monkeypatch, {(2 ** 3, None): [1.0, 1.5],
                                  (2 ** 7, None): [1.0, 1.25]})
        code, out, err = run_cli(["sweep", "--m-values", m_values, "--n", "3",
                                  "--phases", "1.0,2.0"], capsys)
        assert code == 1 and out == ""
        assert err == ("error: gate is not unitary (deviation 5.625e-01): "
                       "kick of power 2^7 at phi = 1.0\n")

    def test_sweep_names_its_first_batchs_kick(self, capsys, monkeypatch):
        # 40 phases at m = 11 run in batches of 32 and 8: the first batch
        # fails at molecule 2, the second at molecule 1, and the verdict is
        # the first batch's
        phis = np.random.default_rng(6).uniform(0.0, TWO_PI, 40)
        assert qpe.batch_size(11) == 32
        break_kicks(monkeypatch, {(2 ** 9, float(phis[3])): [1.0, 1.5],
                                  (2 ** 10, float(phis[35])): [1.0, 1.25]})
        code, out, err = run_cli(["sweep", "--m-values", "11", "--n", "3",
                                  "--random-phases", "40", "--seed", "6"], capsys)
        assert code == 1 and out == ""
        assert err == ("error: gate is not unitary (deviation 1.250e+00): "
                       f"kick of power 2^9 at phi = {float(phis[3])!r}\n")

    def test_non_finite_result_exits_2(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "feasibility",
                            lambda cfg: ({"gamma": float("nan")}, []))
        code, out, err = run_cli(["feasibility"], capsys)
        assert code == 2 and out == ""
        assert "invariant" in err and "NaN" not in out


# sha256 of json.dumps(results, sort_keys=True) for fixed configs: replay
# of an unchanged config must stay byte-identical, so any change to a result
# bit in the gate kernel, readout order, shot sampler or sweep's tree fails
# here. A deliberate change raises cli.RESULTS_VERSION
GOLDEN_RESULTS = [
    (["estimate", "--m", "6", "--phase", "0.3", "--shots", "0"],
     "e0bf44c203f131727fc508493829e6f9eec32f9f8dbdd8453947a7baf81b75d6"),
    (["estimate", "--m", "12", "--phase", "0.3", "--shots", "0"],
     "775051224a1d60aa8d25452c9526fd6c74b0817544a2800492238c6a84968770"),
    (["estimate", "--m", "14", "--phase", "4.2", "--shots", "0"],
     "fb94e813a30fb7befe86cd97fad2ad432a57fea10963b7900fa4842e98cca9ac"),
    (["estimate", "--m", "6", "--phase", "1.1", "--shots", "0", "--include-target"],
     "6735a746881818d3a534cfc5f28011992def45c78e1d5c905352246271fec176"),
    (["estimate", "--m", "8", "--phase", "1.1", "--shots", "300", "--seed", "3"],
     "dffa6b37f5c5920ef60bec35579a8a7115cc293f552e5eb24e3e993afb219517"),
    (["estimate", "--m", "8", "--phase", "1.1", "--shots", "300", "--seed", "3",
      "--include-target"],
     "dffa6b37f5c5920ef60bec35579a8a7115cc293f552e5eb24e3e993afb219517"),
    (["estimate", "--m", "8", "--phase", "1.1", "--shots", "300", "--seed", "3",
      "--full-distribution"],
     "00cb5281366d07242b1c98d08384b8ffd81a815449ae953a3d28dcb4a8cbb98f"),
    (["estimate", "--m", "5", "--phase", "2.0", "--shots", "50", "--seed", "11",
      "--include-target", "--full-distribution"],
     "1d7c675e5878c8ecf6f9e3b63bad6c24867d8146e9c35e1a5deae3fa0c09f838"),
    (["sweep", "--m-values", "5,7", "--n", "3", "--random-phases", "4", "--seed", "2"],
     "0ae063d96edd1e8ec928b101784d404accfb0f764e954ce4b7861aa2846f3319"),
    (["sweep", "--m-values", "6", "--n", "2", "--phases", "0.1,0.3turn,2.5rad"],
     "3780d047a7135222fcad1b13101bf1028430578e4b9d0ee07fee3326b0d75d33"),
    # pulse-literal mode: diagonal pulse phase gates and pulse Hadamards
    (["estimate", "--m", "6", "--phase", "0.3", "--shots", "0",
      "--mode", "pulse-literal"],
     "ec51597d7581133c37d07256cb5fc35f4932fd8c15813cad1bff3fe5703cab0f"),
    (["estimate", "--m", "10", "--phase", "1.1", "--shots", "0",
      "--mode", "pulse-literal"],
     "002efa28dec041f47a6bdf8f54457681cad928767bf16f2d618847c4f667610d"),
    (["estimate", "--m", "14", "--phase", "4.2", "--shots", "0",
      "--mode", "pulse-literal"],
     "13c080fe1552329dddb60283e072d654f5049e6695f036bc3afd291e91e4015f"),
    (["estimate", "--m", "7", "--phase", "2.0", "--shots", "0",
      "--mode", "pulse-literal", "--include-target"],
     "0f295f63f07acb2db2c96eedc16a0a3635cd0af431c03793df185a58ab6d1f2b"),
    (["sweep", "--m-values", "5,8", "--n", "3", "--random-phases", "4", "--seed", "2",
      "--mode", "pulse-literal"],
     "b596338b39bf7c279096997799630edd9cf3766e9763359b4ed5774deb9190fd"),
    # pulse fits: the closed-form optimum, ties on the phase's branch cut and
    # Y's zero overlap among them
    (["pulse-fit", "--preset", "hadamard"],
     "7bed055fb4dca8e15c0d11103be650f691cc549fc95bcb231f8ccef86fd62f4f"),
    (["pulse-fit", "--preset", "pulse-phase:0.7"],
     "cf0434b4864610372122a6cf86b17c0bc441c401eab6b1734e2f97e35c454195"),
    (["pulse-fit", "--preset", "phase:0.3turn"],
     "ba458d09a5b32103f04667467aa99a23f9e22acbba2b0b31b9274f9df22d2b05"),
    (["pulse-fit", "--matrix", "0.7071067811865476,0,0.7071067811865476,0,"
      "0.7071067811865476,0,-0.7071067811865476,0"],
     "4523d59b253cff6d20f49d29375e81322dda441055c8fb846bf14893056f96c9"),
    (["pulse-fit", "--matrix", "0,0,1,0,1,0,0,0"],
     "b32d0798422f4790be9f5553195f62a4bb9e532360ed41eeb51440d0da4b5097"),
    (["pulse-fit", "--matrix", "0.6,0.0,0.0,0.8,0.0,0.8,0.6,0.0"],
     "38451cb06afcbe899ef5fd70fe52cd2090d006d22d491e4546dda35000c80a55"),
]


def test_cli_import_does_not_load_scipy_optimize():
    # no subcommand needs scipy.optimize, whose import once cost every start-up
    src = os.path.dirname(os.path.dirname(dotphase.__file__))
    code = ("import sys, dotphase.cli; dotphase.cli.build_parser(); "
            "sys.exit('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_pulses_import_does_not_load_the_statevector():
    # pulses judges its fit targets itself: the layer below qpe imports
    # nothing from the statevector
    src = os.path.dirname(os.path.dirname(dotphase.__file__))
    code = ("import sys, dotphase.pulses; "
            "sys.exit('dotphase.statevector' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_pulse_fit_runs_without_scipy():
    # fit_pulse is closed-form arithmetic on math and cmath: a process in
    # which scipy cannot be imported fits the README's targets and a
    # Haar-random one to the same results
    rng = np.random.default_rng(23)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    haar = q * (np.diag(r) / np.abs(np.diag(r)))
    cases = [
        ["pulse-fit", "--preset", "hadamard"],
        ["pulse-fit", "--preset", "pulse-phase:0.7"],
        ["pulse-fit", "--matrix", "0.7071067811865476,0,0.7071067811865476,0,"
         "0.7071067811865476,0,-0.7071067811865476,0"],
        ["pulse-fit", "--matrix", ",".join(repr(float(v)) for v in haar.view(float).ravel())],
    ]
    code = ("import io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from dotphase import cli\n"
            "out = []\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    out.append([cli.run(args, stdout=buf), buf.getvalue()])\n"
            "print(json.dumps(out))\n")
    src = os.path.dirname(os.path.dirname(dotphase.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(cases)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(got) == len(cases)
    for args, (status, text) in zip(cases, got):
        assert status == 0, args
        buf = io.StringIO()
        assert cli.run(args, stdout=buf) == 0
        assert json.loads(text)["results"] == json.loads(buf.getvalue())["results"]


def test_light_subcommands_run_without_numpy():
    # numpy loads with the array layers, in estimate and sweep only: importing
    # the CLI and building its parser, every pulse fit, the clock calibration
    # and the feasibility arithmetic leave it out of sys.modules (and so the
    # statevector and scipy too), and a process that cannot import numpy
    # runs them to the same results as this one
    rng = np.random.default_rng(23)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    haar = q * (np.diag(r) / np.abs(np.diag(r)))
    cases = [
        ["pulse-fit", "--preset", "hadamard"],
        ["pulse-fit", "--preset", "pulse-hadamard"],
        ["pulse-fit", "--preset", "phase:0.3turn"],
        ["pulse-fit", "--preset", "pulse-phase:0.7"],
        ["pulse-fit", "--matrix", "0.7071067811865476,0,0.7071067811865476,0,"
         "0.7071067811865476,0,-0.7071067811865476,0"],
        ["pulse-fit", "--matrix", ",".join(repr(float(v)) for v in haar.view(float).ravel())],
        ["calibrate-clock", "--duration", "1.0", "--total-scales", "10",
         "--elapsed-scales", "9", "--t-ideal", "1.0"],
        ["calibrate-clock", "--varphi", "0.625", "--total-scales", "10",
         "--elapsed-scales", "9", "--t-ideal", "1.0"],
        ["feasibility", "--n-qubits", "450"],
    ]
    code = ("import io, json, sys\n"
            "if sys.argv[2] == 'blocked':\n"
            "    sys.modules['numpy'] = None\n"
            "from dotphase import cli\n"
            "cli.build_parser()\n"
            "out = []\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    out.append([cli.run(args, stdout=buf), buf.getvalue()])\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')\n"
            "                or m == 'dotphase.statevector')\n"
            "print(json.dumps({'loaded': loaded, 'runs': out}))\n")
    src = os.path.dirname(os.path.dirname(dotphase.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for how in ("free", "blocked"):
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(cases), how],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["loaded"] == (["numpy"] if how == "blocked" else []), how
        assert len(got["runs"]) == len(cases)
        for args, (status, text) in zip(cases, got["runs"]):
            assert status == 0, (how, args)
            buf = io.StringIO()
            assert cli.run(args, stdout=buf) == 0
            assert json.loads(text)["results"] == json.loads(buf.getvalue())["results"]


@pytest.mark.parametrize("args, digest", GOLDEN_RESULTS)
def test_results_match_golden_digest(args, digest):
    buf = io.StringIO()
    assert cli.run(args, stdout=buf) == 0
    results = json.loads(buf.getvalue())["results"]
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "args",
        [
            ["pulse-fit", "--matrix", "1,0,0,0,0,0,nan,0"],
            ["pulse-fit", "--matrix", "1,0,0,0,0,0,inf,0"],
            ["calibrate-clock", "--duration", "nan", "--total-scales", "60",
             "--elapsed-scales", "60", "--t-ideal", "1.0"],
            ["calibrate-clock", "--duration", "1.0", "--total-scales", "60",
             "--elapsed-scales", "60", "--t-ideal", "inf"],
        ],
    )
    def test_non_finite_input_exits_1(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == "" and "error" in err

    @pytest.mark.parametrize(
        "args, what",
        [
            (["feasibility", "--n-qubits", str(10 ** 400)], "protocol time"),
            (["feasibility", "--tunneling-t", "1e-200", "--level-split", "1e-200"],
             "separation factor"),
            (["feasibility", "--tunneling-t", "1e200", "--level-split", "1e200"],
             "separation factor"),
            (["feasibility", "--omega-c", "1e308", "--omega2", "1e308",
              "--delta", "1e-308"], "effective Rabi frequency"),
            (["calibrate-clock", "--duration", "1.0", "--total-scales", str(10 ** 400),
              "--elapsed-scales", "1", "--t-ideal", "1.0"], "clock total time"),
            (["calibrate-clock", "--duration", "1e300", "--total-scales", "1",
              "--elapsed-scales", "1", "--t-ideal", "1e-300"], "eta'"),
            (["calibrate-clock", "--duration", "10", "--total-scales", "1",
              "--elapsed-scales", "1", "--t-ideal", "1.0", "--v", "1e308"],
             "length estimate"),
            (["calibrate-clock", "--varphi", "0.5", "--total-scales", "1",
              "--elapsed-scales", "1", "--t-ideal", "1.0", "--varpi", "1e-300",
              "--r63", "1e-300"], "phase rate"),
            (["calibrate-clock", "--varphi", "0.5", "--total-scales", "1",
              "--elapsed-scales", "1", "--t-ideal", "1.0", "--varpi", "1e300",
              "--n0", "1e10"], "phase rate"),
            (["calibrate-clock", "--varphi", "0.5", "--total-scales", "1",
              "--elapsed-scales", "1", "--t-ideal", "1.0", "--varpi", "1e-160",
              "--r63", "1e-160"], "duration"),
            (["estimate", "--m", "1", "--phase", "1e-309", "--mode", "pulse-literal"],
             "eta_percent"),
            (["estimate", "--m", "1", "--phase", "1e-309", "--mode", "pulse-literal",
              "--shots", "10"], "eta_percent"),
        ],
    )
    def test_arithmetic_past_the_float_range_exits_1(self, capsys, args, what):
        # each formula is finite for its inputs one by one, but its result
        # overflows, underflows to a zero divisor, or is inf or NaN
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {what}")

    @pytest.mark.parametrize(
        "preset, name",
        [
            ("hadamard:0.3", "hadamard"),
            ("hadamard:", "hadamard"),
            ("pulse-hadamard:junk", "pulse-hadamard"),
            ("pulse-hadamard:0.7", "pulse-hadamard"),
        ],
    )
    def test_angle_on_angleless_preset_exits_1(self, capsys, preset, name):
        code, out, err = run_cli(["pulse-fit", "--preset", preset], capsys)
        assert code == 1 and out == ""
        assert f"preset '{name}' takes no angle" in err

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"include_target": "false"}, "include_target"),
            ({"full_distribution": 1}, "full_distribution"),
            ({"m": 3.9}, "'m'"),
            ({"m": True}, "'m'"),
            ({"shots": 2.5}, "shots"),
            ({"seed": [1]}, "seed"),
        ],
    )
    def test_estimate_config_types_are_strict(self, capsys, tmp_path, values, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3, "phase_rad": 1.0, **values}))
        code, _, err = run_cli(["estimate", "--config", str(cfg)], capsys)
        assert code == 1
        assert key in err

    def test_integral_float_is_an_integer(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3.0, "phase_rad": 1.0}))
        report = run_json(["estimate", "--config", str(cfg)], capsys)
        assert report["config"]["m"] == 3 and isinstance(report["config"]["m"], int)

    def test_sweep_m_values_reject_fractions(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_values": [5, 6.5], "n": 2, "phases_rad": [1.0]}))
        code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 1
        assert "6.5" in err


# Every flag of every subcommand, as flag -> config key. The parser is built
# from cli._SCHEMAS, so a schema edit that renames or drops a flag fails here.
COMMON_FLAGS = {"-h": "help", "--help": "help", "--config": "config", "--output": "output"}
FLAGS = {
    "estimate": {
        "--m": "m", "--phase": "phase_rad", "--mode": "mode", "--shots": "shots",
        "--seed": "seed", "--include-target": "include_target",
        "--full-distribution": "full_distribution", "--format": "format",
    },
    "sweep": {
        "--m-values": "m_values", "--n": "n", "--phases": "phases_rad",
        "--random-phases": "random_phases", "--mode": "mode", "--seed": "seed",
        "--format": "format",
    },
    "pulse-fit": {"--preset": "preset", "--matrix": "matrix", "--format": "format"},
    "calibrate-clock": {
        "--duration": "duration_s", "--varphi": "varphi",
        "--total-scales": "total_scales", "--elapsed-scales": "elapsed_scales",
        "--t-ideal": "t_ideal_s", "--eta-percent": "eta_percent",
        "--comparison-mode": "comparison_mode", "--varpi": "varpi", "--n0": "n0",
        "--n-vac": "n_vac", "--r63": "r63", "--e-field": "e_field", "--v": "v",
        "--c": "c", "--format": "format",
    },
    "feasibility": {
        "--omega1": "omega1_mev", "--omega2": "omega2_mev",
        "--omega-c": "omega_c_mhz", "--delta": "delta_mev",
        "--tunneling-t": "tunneling_t_mev", "--level-split": "level_split_delta_mev",
        "--coherence-time": "coherence_time_s",
        "--single-gate-time": "single_gate_time_s",
        "--two-gate-time": "two_gate_time_s", "--n-qubits": "n_qubits",
        "--format": "format",
    },
}


def test_flag_spellings_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(FLAGS)
    for command, p in sub.choices.items():
        got = {flag: a.dest for a in p._actions for flag in a.option_strings}
        assert got == {**COMMON_FLAGS, **FLAGS[command]}, command


# the smallest valid config file of each subcommand
BASE_CONFIG = {
    "estimate": {"m": 3, "phase_rad": 1.0},
    "sweep": {"m_values": [5], "n": 3, "phases_rad": [1.0]},
    "pulse-fit": {"preset": "hadamard"},
    "calibrate-clock": {"duration_s": 1.0, "total_scales": 60,
                        "elapsed_scales": 60, "t_ideal_s": 1.0},
    "feasibility": {},
}


def run_config(command, values, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG[command], **values}))
    return run_cli([command, "--config", str(cfg)], capsys)


@pytest.mark.parametrize(
    "command, values, key",
    [
        ("estimate", {"mode": "bogus"}, "mode"),
        ("sweep", {"mode": "bogus"}, "mode"),
        ("calibrate-clock", {"comparison_mode": "bogus"}, "comparison_mode"),
        ("feasibility", {"format": "xml"}, "format"),
        ("sweep", {"format": "xml"}, "format"),
        ("estimate", {"format": "csv"}, "format"),
        ("pulse-fit", {"format": "csv"}, "format"),
        ("estimate", {"phase_rad": True}, "phase_rad"),
        ("sweep", {"phases_rad": [1.0, False]}, "phases_rad"),
        ("calibrate-clock", {"varpi": True}, "varpi"),
        ("feasibility", {"delta_mev": True}, "delta_mev"),
        ("pulse-fit", {"preset": None, "matrix": [True, 0, 0, 0, 0, 0, 1, 0]}, "matrix"),
    ],
)
def test_file_values_pass_the_flag_checks(capsys, tmp_path, command, values, key):
    code, out, err = run_config(command, values, capsys, tmp_path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and repr(key) in err


NEGATIVE_COUNTS = [
    ("estimate", {"m": 3, "phase_rad": 1.0, "shots": 2, "seed": -1}, "seed"),
    ("sweep", {"m_values": "5", "n": 3, "random_phases": 2, "seed": -1}, "seed"),
    ("sweep", {"m_values": "5", "n": 3, "random_phases": -3}, "random_phases"),
    ("sweep", {"m_values": "5", "n": -4, "random_phases": 2}, "n"),
]


@pytest.mark.parametrize("via", ["flags", "file"])
@pytest.mark.parametrize("command, values, key", NEGATIVE_COUNTS)
def test_negative_seed_and_count_exit_1(capsys, tmp_path, via, command, values, key):
    if via == "file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = [command, "--config", str(cfg)]
    else:
        flag = {"phase_rad": "--phase"}  # the one key here not spelt --key-with-dashes
        args = [command] + [x for k, v in values.items()
                            for x in (flag.get(k, "--" + k.replace("_", "-")), str(v))]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and repr(key) in err


# sweep takes its phases from exactly one of two sources, and needs at least one
PHASE_SOURCES = [
    ({"phases_rad": "1.0", "random_phases": 3},
     "give exactly one of --phases and --random-phases"),
    ({"phases_rad": "", "random_phases": 3},
     "give exactly one of --phases and --random-phases"),
    ({}, "give exactly one of --phases and --random-phases"),
    ({"phases_rad": ""}, "need at least one phase"),
    ({"random_phases": 0}, "need at least one phase"),
]


@pytest.mark.parametrize("via", ["flags", "file"])
@pytest.mark.parametrize("values, message", PHASE_SOURCES)
def test_sweep_takes_one_phase_source(capsys, tmp_path, via, values, message):
    values = {"m_values": "5", "n": 2, **values}
    if via == "file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = ["sweep", "--config", str(cfg)]
    else:
        flag = {"phases_rad": "--phases"}
        args = ["sweep"] + [x for k, v in values.items()
                            for x in (flag.get(k, "--" + k.replace("_", "-")), str(v))]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


CLOCK = ["calibrate-clock", "--total-scales", "10", "--elapsed-scales", "9", "--t-ideal", "1"]


@pytest.mark.parametrize("args, message", [
    (["estimate", "--m", "3", "--phase", "1.0", "--mode", "bogus"],
     "bad value for 'mode': expected one of ideal, pulse-literal; got 'bogus'"),
    (["calibrate-clock", "--duration", "1", "--total-scales", "10",
      "--elapsed-scales", "9", "--t-ideal", "1", "--comparison-mode", "bogus"],
     "bad value for 'comparison_mode': expected one of literal, deviation; got 'bogus'"),
    # estimate and sweep check a phase alike
    (["estimate", "--m", "3", "--phase", "7"],
     "true phase must lie in (0, 2*pi], got 7.0"),
    (["sweep", "--m-values", "5", "--n", "2", "--phases", "1.0,7"],
     "true phase must lie in (0, 2*pi], got 7.0"),
    (["sweep", "--m-values", "5", "--n", "2", "--phases", "nan"],
     "true phase must lie in (0, 2*pi], got nan"),
    # a --config value here is the text of the file the test writes
    (["estimate", "--config", "[1, 2]"], "config file must hold a JSON object"),
    (["sweep", "--m-values", "", "--n", "1", "--random-phases", "3"],
     "m_values must be nonempty"),
    (["pulse-fit"], "give exactly one of --preset and --matrix"),
    (["pulse-fit", "--preset", "hadamard", "--matrix", "1,0,0,0,0,0,1,0"],
     "give exactly one of --preset and --matrix"),
    (["pulse-fit", "--preset", "bogus"], "unknown preset 'bogus'"),
    (["pulse-fit", "--preset", "phase"], "preset 'phase' needs an angle, e.g. phase:0.7"),
    (["pulse-fit", "--preset", "phase:"], "preset 'phase' needs an angle, e.g. phase:0.7"),
    (["pulse-fit", "--preset", "phase:nan"], "phi must be finite"),
    (CLOCK, "give exactly one of --duration and --varphi"),
    (CLOCK + ["--duration", "1", "--varphi", "0.5"],
     "give exactly one of --duration and --varphi"),
    (CLOCK + ["--duration", "-1"], "duration must be >= 0, got -1.0"),
    (["estimate", "--m", "3", "--phase", "1", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["feasibility", "--omega2", "nan"], "omega2 must be finite"),
    (["feasibility", "--coherence-time", "-1"], "coherence_time must be positive"),
    (["feasibility", "--n-qubits", "0"], "qubit count must be >= 1, got 0"),
    # finite entries whose products in T^H T pass the float range
    (["pulse-fit", "--matrix", "1.23e154,0,1.23e154,1.23e154,0,0,1,0"],
     "target is not unitary (deviation inf)"),
    # n0 ** 2 raises OverflowError past the float range, where * gives inf
    (["calibrate-clock", "--varphi", "0.5", "--total-scales", "2", "--elapsed-scales", "1",
      "--t-ideal", "1.0", "--n0", "1e200"], "phase rate must be finite and positive, got inf"),
    # a sampled run, whose distribution comes from the tree, checks its input
    # as a --shots 0 run on the statevector does (args2 above for a phase of
    # 7), the register first
    *[(["estimate", "--m", m, "--phase", phase, "--shots", shots], message)
      for m, phase, message in [
          ("21", "1.0", "m must be in [1, 20], got 21"),
          ("3", "nan", "true phase must lie in (0, 2*pi], got nan"),
          ("3", "7", "true phase must lie in (0, 2*pi], got 7.0"),
          ("21", "7", "m must be in [1, 20], got 21")]
      for shots in ("0", "10")],
    # an explicit phase list shares --random-phases' cap
    (["sweep", "--config", json.dumps({"m_values": [5], "n": 2,
                                       "phases_rad": [1.0] * (cli.MAX_RANDOM_PHASES + 1)})],
     "bad value for 'phases_rad': expected at most 10000 items, got 10001"),
    (["estimate", "--m", "3", "--phase", "1.0", "--seed", str(2 ** 128)],
     "bad value for 'seed': expected at most 340282366920938463463374607431768211455, "
     "got 340282366920938463463374607431768211456"),
])
def test_input_rule_messages(capsys, tmp_path, args, message):
    if "--config" in args:
        at = args.index("--config") + 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(args[at])
        args = [*args[:at], str(cfg), *args[at + 1:]]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, flags, key",
    [
        ("estimate", ["--m", "3", "--phase", "1.0", "--shots", str(cli.MAX_SHOTS + 1)],
         "shots"),
        ("sweep", ["--m-values", "5", "--n", "3",
                   "--random-phases", str(cli.MAX_RANDOM_PHASES + 1)], "random_phases"),
    ],
)
def test_counts_above_their_cap_exit_1(capsys, command, flags, key):
    code, out, err = run_cli([command] + flags, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("how", ["flag", "config"])
def test_phase_list_cap(capsys, tmp_path, monkeypatch, how):
    # a list of MAX_RANDOM_PHASES phases reaches the sweep; one more exits 1
    # before any tree work
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(qpe, "sweep_successes", reached)
    cfg = tmp_path / "cfg.json"

    def args(count):
        phases = [1.0 + k / count for k in range(count)]
        if how == "flag":
            return ["sweep", "--m-values", "5", "--n", "3",
                    "--phases", ",".join(map(repr, phases))]
        cfg.write_text(json.dumps({"m_values": [5], "n": 3, "phases_rad": phases}))
        return ["sweep", "--config", str(cfg)]

    with pytest.raises(Reached):
        cli.run(args(cli.MAX_RANDOM_PHASES))
    code, out, err = run_cli(args(cli.MAX_RANDOM_PHASES + 1), capsys)
    assert code == 1 and out == ""
    assert err == "error: bad value for 'phases_rad': expected at most 10000 items, got 10001\n"


# the seed cap holds for estimate and sweep alike; above it, a run exits 1
# before the work each command starts, which the test patches to raise
SEEDED = {"estimate": ["estimate", "--m", "6", "--phase", "1.0", "--shots", "100"],
          "sweep": ["sweep", "--m-values", "5", "--n", "3", "--random-phases", "3"]}


@pytest.mark.parametrize("command", list(SEEDED))
def test_seed_at_its_cap_runs(capsys, command):
    report = run_json(SEEDED[command] + ["--seed", str(cli.MAX_SEED)], capsys)
    assert cli.MAX_SEED == 2 ** 128 - 1 and report["config"]["seed"] == cli.MAX_SEED


@pytest.mark.parametrize("command", list(SEEDED))
def test_seed_above_its_cap_starts_nothing(capsys, monkeypatch, command):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(qpe, "shot_uniforms", reached)
    monkeypatch.setattr(qpe, "sweep_successes", reached)
    with pytest.raises(Reached):
        cli.run(SEEDED[command] + ["--seed", str(cli.MAX_SEED)])
    code, out, err = run_cli(SEEDED[command] + ["--seed", str(cli.MAX_SEED + 1)], capsys)
    assert code == 1 and out == ""
    assert err == (f"error: bad value for 'seed': expected at most {cli.MAX_SEED}, "
                   f"got {cli.MAX_SEED + 1}\n")


def test_malformed_config_file_exits_1(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"m": 3, "phase_rad": 1.0,')
    code, out, err = run_cli(["estimate", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "JSON" in err


# small base configs (m <= 12, shots <= 2000) that run, each with the one
# key under test replaced
HOSTILE_BASE = {
    "estimate": {"m": 6, "phase_rad": 1.0, "shots": 20, "seed": 3},
    "sweep": {"m_values": [5, 7], "n": 3, "phases_rad": [1.0, 2.5]},
    "pulse-fit": {"preset": "hadamard"},
    "calibrate-clock": {"duration_s": 1.0, "total_scales": 60,
                        "elapsed_scales": 60, "t_ideal_s": 1.0},
    "feasibility": {"n_qubits": 4},
}
HOSTILE_VALUES = [None, True, -1, 0, 2 ** 64, 1.5, -0.0, 1e308, math.inf, -math.inf,
                  math.nan, "", "x", "1e400", [], [1], {}]


@pytest.mark.parametrize("command", list(cli._SCHEMAS))
def test_every_config_key_takes_hostile_values(tmp_path, capsys, command):
    """Each key of the subcommand's schema, in turn, holds each of
    HOSTILE_VALUES in a --config file over a small base config (m <= 12,
    shots <= 2000): the run exits 0, 1 or 2 with no exception escaping, and a
    report that exits 0 holds no NaN or Infinity and replays byte-identically
    from its own config."""
    cfg = tmp_path / "cfg.json"
    for key in cli._SCHEMAS[command][1]:
        for value in HOSTILE_VALUES:
            cfg.write_text(json.dumps({**HOSTILE_BASE[command], key: value}))
            code, out, err = run_cli([command, "--config", str(cfg)], capsys)
            assert code in (0, 1, 2), (key, value)
            if code != 0:
                continue
            assert "NaN" not in out and "Infinity" not in out, (key, value)
            report = json.loads(out)
            cfg.write_text(json.dumps(report["config"]))
            code, again, err = run_cli([command, "--config", str(cfg)], capsys)
            assert code == 0, (key, value, err)
            assert (json.dumps(json.loads(again)["results"], sort_keys=True)
                    == json.dumps(report["results"], sort_keys=True)), (key, value)


PHASES = st.one_of(st.floats(0.0, TWO_PI),
                   st.floats(0.0, 1.0).map(lambda t: f"{t!r}turn"),
                   st.floats(0.0, TWO_PI).map(lambda r: f"{r!r}rad"))
MODES = st.sampled_from([mode.value for mode in qpe.GateMode])
SEEDS = st.integers(0, cli.MAX_SEED)
# valid configs: m at most 12 (in a sweep at least n + 2, which the bound
# needs), shots at most 2000 and phases at most 20; the json format only, so
# that every report carries its config. A sweep takes its phases from a list
# or draws them
SWEEP_VALUES = {
    "m_values": st.lists(st.integers(3, 12), min_size=1, max_size=3),
    "n": st.integers(0, 1),
    "mode": MODES,
    "seed": SEEDS,
    "format": st.just("json"),
}
VALID_CONFIGS = {
    "estimate": st.fixed_dictionaries({
        "m": st.integers(1, 12),
        "phase_rad": PHASES,
        "mode": MODES,
        "shots": st.integers(0, 2000),
        "seed": SEEDS,
        "include_target": st.booleans(),
        "full_distribution": st.booleans(),
        "format": st.just("json"),
    }),
    "sweep": st.one_of(
        st.fixed_dictionaries({**SWEEP_VALUES, "random_phases": st.none(),
                               "phases_rad": st.lists(PHASES, min_size=1, max_size=20)}),
        st.fixed_dictionaries({**SWEEP_VALUES, "phases_rad": st.none(),
                               "random_phases": st.integers(1, 20)})),
}


@st.composite
def mixed_configs(draw, command):
    """A valid config of ``command`` with up to two keys holding
    HOSTILE_VALUES and up to two keys left out."""
    cfg = draw(VALID_CONFIGS[command])
    keys = st.sampled_from(sorted(cfg))
    cfg.update(draw(st.dictionaries(keys, st.sampled_from(HOSTILE_VALUES), max_size=2)))
    for key in draw(st.sets(keys, max_size=2)):
        del cfg[key]
    return cfg


def main_output(args) -> tuple[int, str, str]:
    """``cli.main(args)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(VALID_CONFIGS))
@given(data=st.data())
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_mixed_config_files_exit_0_and_replay_or_exit_1(command, data):
    """An ``estimate`` or ``sweep`` config file whose keys mix valid
    values, HOSTILE_VALUES and left-out keys either exits 0 with a report
    free of NaN and Infinity whose results replay byte-identically from its
    own config, or exits 1 with nothing on stdout. m is capped at 12,
    shots at 2000 and phases at 20 to keep the suite fast, and the format
    is json, the one that echoes the config."""
    cfg = data.draw(mixed_configs(command), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = main_output([command, "--config", str(path)])
        if code != 0:
            assert code == 1 and out == "", err
            return
        assert "NaN" not in out and "Infinity" not in out
        report = json.loads(out)
        path.write_text(json.dumps(report["config"]))
        code, again, err = main_output([command, "--config", str(path)])
    assert code == 0, err
    assert (json.dumps(json.loads(again)["results"], sort_keys=True)
            == json.dumps(report["results"], sort_keys=True))


def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def report_of(args, monkeypatch) -> tuple[dict, str]:
    """The report object cli.run serialises, and the text it writes."""
    reports = []
    dumps = cli._dumps

    def spy(obj, *rest):
        if not rest:
            reports.append(obj)
        return dumps(obj, *rest)

    monkeypatch.setattr(cli, "_dumps", spy)
    buf = io.StringIO()
    assert cli.run(args, stdout=buf) == 0
    monkeypatch.setattr(cli, "_dumps", dumps)
    [report] = reports
    return report, buf.getvalue()


# one config per subcommand beyond the golden ones, the csv sweep among them
SUBCOMMAND_CONFIGS = [
    ["estimate", "--m", "12", "--phase", "0.3", "--shots", "4000", "--seed", "5"],
    ["sweep", "--m-values", "5,6", "--n", "3", "--random-phases", "3", "--seed", "1",
     "--format", "csv"],
    ["pulse-fit", "--preset", "phase:0.3turn"],
    ["pulse-fit", "--matrix", "0,0,1,0,1,0,0,0"],
    ["calibrate-clock", "--varphi", "0.625", "--total-scales", "10",
     "--elapsed-scales", "9", "--t-ideal", "1.0"],
    ["feasibility", "--n-qubits", "450"],
]


@pytest.mark.parametrize("args", SUBCOMMAND_CONFIGS)
def test_every_report_names_its_versions(monkeypatch, args):
    report, _ = report_of(args, monkeypatch)
    assert report["versions"] == {"artifact": dotphase.__version__,
                                  "results": cli.RESULTS_VERSION}
    assert cli.RESULTS_VERSION == 6


class TestSerialiser:
    @pytest.mark.parametrize(
        "args", [args for args, _ in GOLDEN_RESULTS] + SUBCOMMAND_CONFIGS)
    def test_report_matches_json_dumps(self, monkeypatch, args):
        report, text = report_of(args, monkeypatch)
        assert cli._dumps(report) == json_dumps(report)
        if report["config"]["format"] == "json":
            assert text == json_dumps(report) + "\n"

    def test_long_sweep_report_matches_json_dumps(self, monkeypatch):
        # every row is a flat dict written by the cached C encoder
        args = ["sweep", "--m-values", "5", "--n", "3", "--random-phases", "2000",
                "--seed", "2"]
        report, text = report_of(args, monkeypatch)
        assert len(report["results"]["rows"]) == 2000
        assert text == json_dumps(report) + "\n"

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ({},)},
        (1, 2.5, "x"), [(), (0.5,), [[1.0, [2.0]]]],
        [-0.0, 0.0, -0.0, 5e-324, 1e16, 1.7976931348623157e308, 1e16, 0.1],
        [True, False, 1, 1.0, 0, None, -2.5],
        {"b": None, "a": [None, True]},
        {"\u00e9t\u00e9": "\u2603\U0001d11e", "tab\t": ["\"q\"", "\x00"]},
        [2 ** 64 + 1, -(2 ** 70), {"big": 3 ** 50}],
        {"z": {"y": [{"x": [1, [2, [3.0]]]}]}, "a": 1},
        {1: "int", 2.5: "float"}, {"outer": {True: [1], 3: [3], 2.5: [0]}},
        {"outer": {None: [2]}, "leaf": {None: 1}},
        1.5, -0.0, "text", None, 2 ** 100,
        # long float lists through the C encoder: 63, 64 and 65 items with
        # repeats and both zeros; a shot list of 10 000 estimates; an
        # 8-float --matrix config
        [0.0, -0.0, 0.5, 0.5] * 15 + [0.0, -0.0, 0.25],
        [0.0, -0.0, 0.5, 0.5] * 16,
        [TWO_PI * k / 4096 for k in np.random.default_rng(3).binomial(4096, 0.3, 10_000).tolist()],
        [0.7071067811865476, 0.0, 0.7071067811865476, 0.0,
         0.7071067811865476, 0.0, -0.7071067811865476, -0.0],
        [0.0, -0.0, 0.5, 0.5] * 16 + [-0.0],
    ])
    def test_matches_json_dumps(self, obj):
        assert cli._dumps(obj) == json_dumps(obj)

    @pytest.mark.parametrize("obj", [{"a": {(1, 2): []}}, {"a": {(1, 2): 1}},
                                     {"a": {(math.nan,): []}}])
    def test_tuple_key_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            json_dumps(obj)
        with pytest.raises(TypeError):
            cli._dumps(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("wrap", [
        lambda x: x,
        lambda x: [x],
        lambda x: [1.0, x, 2.0],
        lambda x: [1, x],
        lambda x: {"a": x},
        lambda x: {"a": {"b": [1.0, x]}},
        lambda x: {"a": [{"b": x}], "c": [1]},
        lambda x: {"a": {x: 1}},
        lambda x: ({"a": (x,)},),
        lambda x: [0.5] * 64 + [x],
    ])
    def test_non_finite_raises_naming_the_value(self, bad, wrap):
        with pytest.raises(ValueError, match=f"not JSON compliant: {bad!r}"):
            cli._dumps(wrap(bad))

    def test_without_c_accelerator(self, monkeypatch):
        # an interpreter without _json has no c_make_encoder
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        cli._encoder.cache_clear()
        try:
            report, _ = report_of(["sweep", "--m-values", "5,6", "--n", "3",
                                   "--random-phases", "3", "--seed", "2"],
                                  monkeypatch)
            for obj in [report, {"b": None, "a": [1, "x", 2.5]}, (1, -0.0)]:
                assert cli._dumps(obj) == json_dumps(obj)
            with pytest.raises(ValueError, match="not JSON compliant: nan"):
                cli._dumps({"a": [1, math.nan]})
        finally:
            cli._encoder.cache_clear()


class TestPerShotWriter:
    """A sampled run's estimates_rad and eta_percent: plain float lists of
    the per-draw arithmetic's bits, written from the distinct outcomes."""

    RUNS = [
        ["--m", "5", "--phase", "2.0", "--shots", "1", "--seed", "4"],
        ["--m", "6", "--phase", "0.3", "--shots", "2", "--mode", "pulse-literal",
         "--include-target"],
        ["--m", "8", "--phase", "0.3turn", "--shots", "64", "--seed", "9",
         "--full-distribution"],
        ["--m", "7", "--phase", "5.0", "--shots", "65", "--seed", "2",
         "--mode", "pulse-literal", "--include-target", "--full-distribution"],
        ["--m", "12", "--phase", "0.3", "--shots", "4000", "--seed", "5"],
        ["--m", "10", "--phase", "1.1", "--shots", "100000", "--seed", "3",
         "--include-target"],
    ]

    @pytest.mark.parametrize("run", RUNS)
    def test_matches_json_dumps_and_the_draws(self, monkeypatch, run):
        report, text = report_of(["estimate"] + run, monkeypatch)
        want = json_dumps(report)
        # compared first: pytest's diff of two long texts would take minutes
        same = cli._dumps(report) == want and text == want + "\n"
        assert same
        cfg, results = report["config"], report["results"]
        m, phi, shots = cfg["m"], cfg["phase_rad"], cfg["shots"]
        probs = qpe.tree_distributions(m, [phi], qpe.GateMode(cfg["mode"]),
                                       cfg["include_target"])[0]
        draws = sv.sample_uniforms(probs, qpe.shot_uniforms(cfg["seed"], shots))
        estimates = math.tau * draws / 2 ** m
        for key, expected in [("estimates_rad", estimates),
                              ("eta_percent", estimates / phi * 100.0)]:
            got = results[key]
            assert len(got) == shots
            assert list(map(float.hex, got)) == list(map(float.hex, expected.tolist()))
            assert isinstance(got, list) and all(type(v) is float for v in got)
            # the shots hold the distinct float objects, not one float each
            assert {id(v) for v in got} == {id(v) for v in got.values}
            assert json.loads(json.dumps(got)) == got

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_raises_naming_it(self, bad):
        per_shot = cli._PerShot(np.array([1.0, bad]), np.array([0, 1, 1, 0]))
        assert list(map(repr, per_shot)) == ["1.0", repr(bad), repr(bad), "1.0"]
        for obj in [per_shot, {"results": {"estimates_rad": per_shot}}]:
            with pytest.raises(ValueError, match=f"not JSON compliant: {bad!r}"):
                cli._dumps(obj)


class TestParserReuse:
    CALLS = [
        ["estimate", "--m", "5", "--phase", "2.0", "--shots", "20", "--seed", "4",
         "--include-target", "--full-distribution"],
        ["sweep", "--m-values", "5,6", "--n", "3", "--random-phases", "2", "--seed", "1"],
        ["estimate", "--m", "5", "--phase", "2.0", "--shots", "20", "--seed", "4"],
    ]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_flag_carries_over(self, monkeypatch):
        reused = []
        for args in self.CALLS:
            buf = io.StringIO()
            assert cli.run(args, stdout=buf) == 0
            reused.append(json.loads(buf.getvalue()))
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        for args, report in zip(self.CALLS, reused):
            buf = io.StringIO()
            assert cli.run(args, stdout=buf) == 0
            fresh = json.loads(buf.getvalue())
            assert report["config"] == fresh["config"]
            assert report["results"] == fresh["results"]
        plain = reused[2]["config"]
        assert not plain["include_target"] and not plain["full_distribution"]
