import math

import numpy as np
import pytest

from dotphase import qpe
from dotphase import statevector as sv
from dotphase.errors import BoundUndefinedError, DomainError, ValidationError
from dotphase.pulses import phase_gate_pulse_params, single_pulse_unitary
from dotphase.qpe import GateMode

TWO_PI = 2 * math.pi


def eq5_state(m, phi):
    """Independent oracle for the kicked register: amp[k] = e^{i phi k}/2^{m/2}."""
    k = np.arange(2 ** m)
    return np.exp(1j * phi * k) / 2 ** (m / 2)


class TestPrepareRegister:
    def test_single_qubit_ideal(self):
        state = qpe.prepare_register(1)
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_single_qubit_pulse(self):
        state = qpe.prepare_register(1, GateMode.PULSE_LITERAL)
        assert np.allclose(
            state.amplitudes, [-1 / math.sqrt(2), 1 / math.sqrt(2)]
        )

    def test_three_qubits_uniform(self):
        state = qpe.prepare_register(3)
        assert np.allclose(state.amplitudes, np.full(8, 1 / math.sqrt(8)))


class TestPhaseKicks:
    def test_m2_pi(self):
        state = qpe.apply_phase_kicks(qpe.prepare_register(2), math.pi, 2)
        # (|0>+|1>)(|0>-|1>)/2
        assert np.allclose(state.amplitudes, np.array([1, -1, 1, -1]) / 2)

    def test_zero_phase_noop(self):
        prepared = qpe.prepare_register(3)
        # zero phase is outside (0, 2pi] for a full run but valid for the gate
        kicked = qpe.apply_phase_kicks(prepared.copy(), 0.0, 3)
        assert np.allclose(kicked.amplitudes, prepared.amplitudes)

    def test_matches_product_expansion(self):
        m, phi = 3, TWO_PI * 5 / 8
        kicked = qpe.apply_phase_kicks(qpe.prepare_register(m), phi, m)
        assert np.max(np.abs(kicked.amplitudes - eq5_state(m, phi))) < 1e-12


class TestControlledPhaseSequence:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (math.pi / 4, np.exp(-1j * math.pi / 2)),
            (0.0, 1.0),
            (math.pi / 8, np.exp(-1j * math.pi / 4)),
        ],
    )
    def test_composite(self, theta, expected):
        u = qpe.sequence_unitary(theta)
        assert np.allclose(u, np.diag([1, 1, 1, expected]), atol=1e-12)

    def test_random_thetas(self):
        rng = np.random.default_rng(20)
        for theta in rng.uniform(-10, 10, 200):
            u = qpe.sequence_unitary(theta)
            expected = np.diag([1, 1, 1, np.exp(-2j * theta)])
            assert np.max(np.abs(u - expected)) < 1e-12

    def test_step_list_shape(self):
        steps = qpe.controlled_phase_sequence(0.3)
        assert [s.kind for s in steps] == ["phase", "cnot", "phase", "cnot", "phase"]
        assert [s.slot for s in steps] == ["j", None, "k", None, "k"]
        assert steps[0].angle == -0.3


class TestInverseQft:
    def test_single_qubit(self):
        state = sv.QuantumState(
            1, False, np.array([1, np.exp(1j * math.pi)]) / math.sqrt(2)
        )
        out = qpe.inverse_qft(state, 1)
        assert np.allclose(out.amplitudes, [0, 1], atol=1e-12)

    def test_m3_representable(self):
        state = sv.QuantumState(3, False, eq5_state(3, TWO_PI * 5 / 8))
        out = qpe.inverse_qft(state, 3)
        probs = sv.probabilities(out)
        # register index 5 = bit-reversed readout 5 (palindromic)
        assert probs[5] == pytest.approx(1.0, abs=1e-10)

    def test_uniform_to_zero(self):
        state = qpe.prepare_register(2)
        out = qpe.inverse_qft(state, 2)
        assert np.allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_dft_oracle(self, m):
        n = 2 ** m
        circuit = np.zeros((n, n), dtype=complex)
        for k in range(n):
            basis = np.zeros(n, dtype=complex)
            basis[k] = 1.0
            circuit[:, k] = qpe.inverse_qft(
                sv.QuantumState(m, False, basis), m
            ).amplitudes
        rev = np.zeros((n, n))
        for j in range(n):
            rev[j, qpe.bit_reverse(j, m)] = 1.0
        jk = np.outer(np.arange(n), np.arange(n))
        dft_dagger = np.exp(-2j * math.pi * jk / n) / math.sqrt(n)
        assert np.max(np.abs(rev @ circuit - dft_dagger)) < 1e-10


class TestPhaseGate:
    def test_pulse_literal_matches_prescribed_pulse(self):
        for phi in np.random.default_rng(3).uniform(-TWO_PI, TWO_PI, 50):
            pulse = single_pulse_unitary(phase_gate_pulse_params(phi))
            gate = qpe._phase_gate(phi, GateMode.PULSE_LITERAL)
            assert np.max(np.abs(gate - pulse)) <= 1e-15


class TestReadoutOrder:
    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_reorder_matches_bit_reverse_loop(self, m):
        phi = 1.234
        state = qpe.run_final_state(qpe.QpeConfig(m=m, true_phase_phi=phi))
        register = sv.probabilities(state)
        loop = np.array([register[qpe.bit_reverse(j, m)] for j in range(2 ** m)])
        assert np.array_equal(qpe.exact_distribution(m, phi).probs, loop)


class TestMeasureAndEstimate:
    def test_deterministic_case(self):
        m, phi = 3, TWO_PI * 5 / 8
        state = qpe.inverse_qft(
            qpe.apply_phase_kicks(qpe.prepare_register(m), phi, m), m
        )
        estimate = qpe.measure_and_estimate(state, m, phi, seed=0)
        assert estimate.bits == (1, 0, 1)
        assert estimate.estimated_phase == pytest.approx(TWO_PI * 0.625)
        assert estimate.eta_percent == pytest.approx(100.0)

    def test_eta_definition(self):
        estimate = qpe.estimate_from_bits((1, 0, 1), TWO_PI * 0.625)
        assert estimate.eta_percent == pytest.approx(100.0)

    def test_all_zero_readout(self):
        estimate = qpe.estimate_from_bits((0, 0, 0), 1.0)
        assert estimate.estimated_phase == 0.0
        assert estimate.eta_percent == 0.0


class TestExactDistribution:
    def test_representable(self):
        dist = qpe.exact_distribution(3, TWO_PI * 5 / 8)
        assert dist.probs[5] == pytest.approx(1.0, abs=1e-10)

    def test_near_zero_phase(self):
        dist = qpe.exact_distribution(2, TWO_PI * 1e-12)
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_matches_monte_carlo(self):
        m, phi = 3, TWO_PI * 0.3
        dist = qpe.exact_distribution(m, phi)
        rng = np.random.default_rng(21)
        samples = rng.choice(2 ** m, size=1_000_000, p=dist.probs / dist.probs.sum())
        empirical = np.bincount(samples, minlength=2 ** m) / 1_000_000
        assert 0.5 * np.abs(empirical - dist.probs).sum() < 0.01

    def test_normalized(self):
        dist = qpe.exact_distribution(5, 1.2345)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (dist.probs >= -1e-15).all()


class TestSuccessBound:
    def test_values(self):
        assert qpe.success_probability_bound(5, 3) == pytest.approx(0.75)
        assert qpe.success_probability_bound(6, 3) == pytest.approx(1 - 1 / 12)

    def test_singular_point(self):
        with pytest.raises(BoundUndefinedError):
            qpe.success_probability_bound(4, 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            qpe.success_probability_bound(3, 3)


class TestEmpiricalSuccess:
    def test_representable_is_certain(self):
        assert qpe.empirical_success(5, 3, TWO_PI * 7 / 32) == pytest.approx(1.0)

    def test_zero_accuracy_bits(self):
        assert qpe.empirical_success(4, 0, 1.0) == pytest.approx(1.0)

    def test_beats_bound(self):
        rng = np.random.default_rng(22)
        bound = qpe.success_probability_bound(6, 3)
        for phi in rng.uniform(1e-9, TWO_PI, 100):
            assert qpe.empirical_success(6, 3, phi) >= bound - 1e-9

    def test_growth_with_m(self):
        # success is not strictly monotone in m for every phase (observed
        # dips up to ~6e-3), so check the trend plus the bound instead
        rng = np.random.default_rng(23)
        n = 3
        for phi in rng.uniform(1e-9, TWO_PI, 50):
            values = [qpe.empirical_success(m, n, phi) for m in range(n + 2, n + 6)]
            for m, (a, b) in zip(range(n + 2, n + 5), zip(values, values[1:])):
                assert b >= a - 0.01
                assert b >= qpe.success_probability_bound(m + 1, n) - 1e-9


class TestKickEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_random_phase(self, m):
        rng = np.random.default_rng(24 + m)
        phi = rng.uniform(1e-6, TWO_PI)
        assert qpe.kick_equivalence_check(m, phi) == pytest.approx(1.0, abs=1e-10)

    def test_zero_phase(self):
        assert qpe.kick_equivalence_check(2, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_hand_checkable(self):
        assert qpe.kick_equivalence_check(1, math.pi) == pytest.approx(1.0, abs=1e-12)


class TestConfigAndSeeds:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            qpe.QpeConfig(m=0, true_phase_phi=1.0)
        with pytest.raises(ValidationError):
            qpe.QpeConfig(m=3, true_phase_phi=0.0)
        with pytest.raises(ValidationError):
            qpe.QpeConfig(m=3, true_phase_phi=TWO_PI + 0.1)

    def test_shot_seed_mixing(self):
        seeds = [qpe.shot_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [qpe.shot_seed(42, i) for i in range(100)]
        assert qpe.shot_seed(42, 0) != qpe.shot_seed(43, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 130 + 7])
    def test_shot_seeds_match_shot_seed(self, seed):
        loop = [qpe.shot_seed(seed, i) for i in range(3000)]
        for n in (1, qpe.SHOT_SEED_LOOP_MAX, qpe.SHOT_SEED_LOOP_MAX + 1, 3000):
            assert qpe.shot_seeds(seed, n).tolist() == loop[:n]

    def test_shots_cap(self):
        with pytest.raises(ValidationError, match="shots"):
            qpe.QpeConfig(m=3, true_phase_phi=1.0, shots=qpe.MAX_SHOTS + 1)

    def test_include_target_qubit_same_distribution(self):
        phi = 1.37
        base = qpe.exact_distribution(3, phi)
        explicit = qpe.readout_distribution(
            qpe.QpeConfig(m=3, true_phase_phi=phi, include_target_qubit=True)
        )
        assert np.max(np.abs(base.probs - explicit.probs)) < 1e-10


class TestPulseLiteralMode:
    def test_runs_and_normalizes(self):
        dist = qpe.exact_distribution(3, 1.1, GateMode.PULSE_LITERAL)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_differs_from_ideal(self):
        # the prescribed pulses do not generate ideal gates, so the
        # representable-phase determinism is lost in pulse-literal mode
        phi = TWO_PI * 5 / 8
        dist = qpe.exact_distribution(3, phi, GateMode.PULSE_LITERAL)
        assert dist.probs[5] < 0.999
