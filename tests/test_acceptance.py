"""Acceptance suite: one test per release criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import json
import math
import time

import numpy as np
import pytest

from dotphase import calibration as cal
from dotphase import cli, pulses, qpe
from dotphase import statevector as sv
from dotphase.calibration import ComparisonMode, Verdict
from dotphase.pulses import PulseSpec

TWO_PI = 2 * math.pi
IDEAL_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def report(name):
    print(f"\n[acceptance] {name}: PASS")


def test_criterion_01_representable_phase_determinism():
    started = time.monotonic()
    for m in range(1, 9):
        for j in range(2 ** m):
            phi = TWO_PI * j / 2 ** m if j else TWO_PI
            dist = qpe.exact_distribution(m, phi)
            target = j  # j = 0 is driven at phi = 2*pi, the same phase
            assert abs(dist[target] - 1.0) <= 1e-10, (m, j)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    report("1 representable-phase determinism (m <= 8, all j)")


def test_criterion_02_success_bound():
    started = time.monotonic()
    assert qpe.success_probability_bound(5, 3) == pytest.approx(0.75, abs=1e-12)
    assert qpe.success_probability_bound(6, 3) == pytest.approx(
        1 - 1 / 12, abs=5e-6
    )
    n = 3
    rng = np.random.default_rng(2024)
    for gap in (2, 3, 4):
        m = n + gap
        bound = qpe.success_probability_bound(m, n)
        for phi in rng.uniform(1e-12, TWO_PI, 200):
            assert qpe.empirical_success(m, n, phi) >= bound - 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    report("2 success bound holds for m-n in {2,3,4}, 200 random phases each")


def test_criterion_03_inverse_qft_oracle_equivalence():
    for m in range(1, 7):
        n = 2 ** m
        circuit = np.zeros((n, n), dtype=complex)
        for k in range(n):
            basis = np.zeros(n, dtype=complex)
            basis[k] = 1.0
            circuit[:, k] = qpe.inverse_qft(sv.QuantumState(basis), m).amplitudes
        rev = np.zeros((n, n))
        for j in range(n):
            # j's m bits, read backwards
            rev[j, int(f"{j:0{m}b}"[::-1], 2)] = 1.0
        jk = np.outer(np.arange(n), np.arange(n))
        dft_dagger = np.exp(-2j * math.pi * jk / n) / math.sqrt(n)
        deviation = np.max(np.abs(rev @ circuit - dft_dagger))
        assert deviation < 1e-10, (m, deviation)
    report("3 inverse-QFT circuit equals DFT^dagger with bit-reversed readout")


def test_criterion_04_controlled_phase_identity():
    rng = np.random.default_rng(4)
    for theta in rng.uniform(-2 * TWO_PI, 2 * TWO_PI, 1000):
        composite = qpe.sequence_unitary(theta)
        expected = np.diag([1, 1, 1, np.exp(-2j * theta)])
        assert np.max(np.abs(composite - expected)) < 1e-12
    report("4 five-gate sequence equals diag(1,1,1,e^{-2i theta}), 10^3 thetas")


def test_criterion_05_kick_equivalence():
    rng = np.random.default_rng(5)
    for m in range(1, 7):
        for phi in rng.uniform(1e-12, TWO_PI, 10):
            assert abs(qpe.kick_equivalence_check(m, phi) - 1.0) <= 1e-10
    report("5 single-qubit kicks match the explicit controlled-phase build")


def test_criterion_06_pulse_physics_literal_correctness():
    def oracle_single(th, ph):
        s, c = math.sin(th), math.cos(th)
        col_g = [-1j * complex(math.cos(-ph), math.sin(-ph)) * s, c]
        col_e = [c, -1j * complex(math.cos(ph), math.sin(ph)) * s]
        return np.array([col_g, col_e]).T

    def oracle_cavity(th, ph):
        s, c = math.sin(th), math.cos(th)
        u = np.eye(4, dtype=complex)
        u[1, 1] = u[2, 2] = c
        u[2, 1] = -1j * complex(math.cos(ph), math.sin(ph)) * s
        u[1, 2] = -1j * complex(math.cos(-ph), math.sin(-ph)) * s
        return u

    rng = np.random.default_rng(6)
    for th, ph in zip(rng.uniform(-10, 10, 10_000), rng.uniform(-10, 10, 10_000)):
        u1 = pulses.single_pulse_unitary(PulseSpec(th, ph))
        assert np.max(np.abs(u1 - oracle_single(th, ph))) < 1e-12
        assert np.max(np.abs(u1.conj().T @ u1 - np.eye(2))) < 1e-12
        u2 = pulses.cavity_pulse_unitary(PulseSpec(th, ph))
        assert np.max(np.abs(u2 - oracle_cavity(th, ph))) < 1e-12
        assert np.max(np.abs(u2.conj().T @ u2 - np.eye(4))) < 1e-12
        assert np.array_equal(u2[:, 0], [1, 0, 0, 0])
        assert np.array_equal(u2[:, 3], [0, 0, 0, 1])
    report("6 pulse unitaries match closed-form oracles at 10^4 random params")


def test_criterion_07_pulse_gap_diagnostics():
    gap = pulses.gate_distance(
        pulses.single_pulse_unitary(pulses.hadamard_pulse_params()), IDEAL_H
    )
    assert gap == pytest.approx(2.0, abs=1e-9)
    rng = np.random.default_rng(7)
    for phi in rng.uniform(-TWO_PI, TWO_PI, 100):
        u = pulses.single_pulse_unitary(pulses.phase_gate_pulse_params(phi))
        expected = np.diag([-np.exp(-1j * phi), np.exp(1j * phi)])
        assert np.max(np.abs(u - expected)) < 1e-12
    report("7 prescribed-pulse gap diagnostics (distance 2.0; diagonal form)")


def test_criterion_08_feasibility_reproduction():
    pp = pulses.PhysicalParams(tunneling_t=0.01, level_split_delta=10.0)
    gamma = pulses.separation_factor(pp)
    assert gamma == pytest.approx(9.99999e-7, abs=1e-12)
    assert pulses.max_qubits(10.0, 1e-4) == 447
    assert pulses.protocol_time(450, 1e-4) == pytest.approx(10.1025, abs=1e-9)
    report("8 feasibility arithmetic (gamma, 447-qubit cap, 10.1025 s)")


def test_criterion_09_calibration_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        eo = cal.ElectroOpticParams(
            varpi=rng.uniform(1e8, 1e11),
            n0=rng.uniform(1.2, 2.5),
            n_vac=rng.uniform(0.9, 1.6),
            r63=rng.uniform(1e-12, 5e-11),
            e_field=rng.uniform(1e4, 1e7),
        )
        t = rng.uniform(cal.phase_to_time(0.0, eo), cal.phase_to_time(0.999999, eo))
        _, varphi = cal.time_to_phase(t, eo)
        assert cal.phase_to_time(varphi, eo) == pytest.approx(t, rel=1e-12)

    m = 10
    eo = cal.ElectroOpticParams(varpi=1.0, n0=1.0, n_vac=1.0, r63=1.0, e_field=1.0)
    step = cal.phase_resolution_time(m, eo)
    t_lo, t_hi = cal.phase_to_time(0.0, eo), cal.phase_to_time(0.999, eo)
    for _ in range(50):
        t_true = rng.uniform(t_lo, t_hi)
        _, varphi = cal.time_to_phase(t_true, eo)
        dist = qpe.exact_distribution(m, TWO_PI * varphi if varphi else TWO_PI)
        j = int(np.argmax(dist))
        t_hat = cal.phase_to_time(j / 2 ** m, eo)
        assert abs(t_hat - t_true) <= step + 1e-12

    cases = [
        (1.0, 1.0, 100.0, Verdict.ACCURATE, Verdict.ACCURATE),
        (1.0, 1.0, 90.0, Verdict.ACCURATE, Verdict.ACCURATE),
        (0.9, 1.0, 100.0, Verdict.ACCURATE, Verdict.INCREASE_FREQUENCY),
        (0.9, 1.0, 95.0, Verdict.ACCURATE, Verdict.INCREASE_FREQUENCY),
        (0.9, 1.0, 80.0, Verdict.INCREASE_FREQUENCY, Verdict.ACCURATE),
        (1.2, 1.0, 100.0, Verdict.DECREASE_FREQUENCY, Verdict.DECREASE_FREQUENCY),
        (1.2, 1.0, 130.0, Verdict.ACCURATE, Verdict.ACCURATE),
        (1.2, 1.0, 75.0, Verdict.DECREASE_FREQUENCY, Verdict.ACCURATE),
        (0.5, 1.0, 100.0, Verdict.ACCURATE, Verdict.INCREASE_FREQUENCY),
    ]
    for t_total, t_ideal, eta, lit, dev in cases:
        assert cal.calibration_verdict(t_total, t_ideal, eta, ComparisonMode.LITERAL)[0] == lit
        assert cal.calibration_verdict(t_total, t_ideal, eta, ComparisonMode.DEVIATION)[0] == dev
    report("9 calibration round trip, QPE-quantized recovery, verdict table")


def test_criterion_10_cli_replay_determinism(tmp_path, capsys):
    argsets = [
        ["estimate", "--m", "5", "--phase", "0.3turn", "--shots", "50",
         "--seed", "17"],
        ["sweep", "--m-values", "5,6,7", "--n", "3", "--random-phases", "10",
         "--seed", "8"],
        ["pulse-fit", "--preset", "hadamard"],
        ["calibrate-clock", "--duration", "0.9", "--total-scales", "60",
         "--elapsed-scales", "60", "--t-ideal", "1.0"],
        ["feasibility", "--n-qubits", "200"],
    ]
    for i, args in enumerate(argsets):
        assert cli.main(args) == 0
        first = json.loads(capsys.readouterr().out)
        cfg_path = tmp_path / f"replay_{i}.json"
        cfg_path.write_text(json.dumps(first["config"]))
        assert cli.main([args[0], "--config", str(cfg_path)]) == 0
        second = json.loads(capsys.readouterr().out)
        assert json.dumps(first["results"], sort_keys=True) == json.dumps(
            second["results"], sort_keys=True
        ), args[0]
    report("10 every CLI report replays byte-identically from its own config")
