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

    @pytest.mark.parametrize("mode", list(GateMode))
    @pytest.mark.parametrize("m", range(1, 13))
    def test_stack_matches_single_phases(self, m, mode):
        # one call per molecule over the stack: the dense rows at m <= 2,
        # then the slab products, or the pattern pass for pulse-literal
        # kicks on runs shorter than SPLIT_BLOCK
        rng = np.random.default_rng(70 + m)
        phis = [float(p) for p in TWO_PI - rng.uniform(0.0, TWO_PI, 12)]
        prepared = qpe.prepare_register(m, mode)
        for count in (1, 5, 12):
            stack = sv.QuantumState(np.stack([prepared.amplitudes] * count))
            before = stack.amplitudes.tobytes()
            kicked = qpe.apply_phase_kicks(stack, phis[:count], m, mode).amplitudes
            assert kicked.shape == (count, 2 ** m)
            assert stack.amplitudes.tobytes() == before
            for phi, row in zip(phis, kicked):
                alone = qpe.apply_phase_kicks(prepared, phi, m, mode).amplitudes
                assert row.tobytes() == alone.tobytes(), (count, phi)


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
        state = sv.QuantumState(np.array([1, np.exp(1j * math.pi)]) / math.sqrt(2))
        out = qpe.inverse_qft(state, 1)
        assert np.allclose(out.amplitudes, [0, 1], atol=1e-12)

    def test_m3_representable(self):
        state = sv.QuantumState(eq5_state(3, TWO_PI * 5 / 8))
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
            circuit[:, k] = qpe.inverse_qft(sv.QuantumState(basis), m).amplitudes
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

    def test_cached_gate_is_read_only(self):
        gate = qpe._phase_gate(0.7, GateMode.IDEAL)
        assert qpe._phase_gate(0.7, GateMode.IDEAL) is gate
        with pytest.raises(ValueError):
            gate[1, 1] = 1.0

    @pytest.mark.parametrize("mode", list(GateMode))
    def test_cached_gate_equals_a_fresh_one(self, mode):
        # the inverse QFT's angles pi / 2^k, and others
        for k in range(14):
            for theta in (0.3, 2.0, -math.pi / 8):
                qpe._phase_gate(theta / 2 ** k, mode)
                cached = qpe._phase_gate(theta / 2 ** k, mode)
                fresh = qpe._phase_gate.__wrapped__(theta / 2 ** k, mode)
                assert np.array_equal(cached, fresh), (theta, k)


# kick phases: the fixed table of test_statevector's TestRowDiagonals, the
# inverse-QFT-like angles +-pi/2^d and seeded uniform ones; with powers 2^0
# to 2^19 they take the scalar power down each of its integer-power paths
DIAGONAL_PHASES = (
    (0.3, 1.0, 2.0, math.pi, 4.2, 5.9, 2 * math.pi, 1e-3)
    + tuple(s * math.pi / 2 ** d for d in range(2, 21) for s in (1, -1))
    + tuple(np.random.default_rng(91).uniform(-TWO_PI, TWO_PI, 1000).tolist()))
KICK_POWERS = [2 ** k for k in range(20)]


class TestPhaseDiagonals:
    @pytest.mark.parametrize("mode", list(GateMode))
    def test_matches_scalar_power(self, mode):
        # each entry as the scalar formula gives it, byte for byte: numpy
        # computes an array's ** 2 as np.square, which rounds otherwise
        def entries(theta):
            if mode == GateMode.IDEAL:
                return [[1, np.exp(1j * p * float(theta))] for p in KICK_POWERS]
            u = single_pulse_unitary(phase_gate_pulse_params(theta))
            return [[u[0, 0] ** p, u[1, 1] ** p] for p in KICK_POWERS]

        want = np.array([entries(t) for t in DIAGONAL_PHASES],
                        dtype=np.complex128).transpose(1, 0, 2)
        got = qpe._phase_diagonals(DIAGONAL_PHASES, mode, KICK_POWERS)
        assert got.shape == (len(KICK_POWERS), len(DIAGONAL_PHASES), 2)
        differ = np.count_nonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ == 0, differ

    def test_one_pulse_per_phase(self, monkeypatch):
        # a pulse-literal kick of a P-row stack builds P pulse unitaries for
        # all its m molecules, and a single state one
        built = []

        def counted(spec):
            built.append(spec)
            return single_pulse_unitary(spec)

        monkeypatch.setattr(qpe, "single_pulse_unitary", counted)
        m, phis = 6, np.random.default_rng(92).uniform(0.0, TWO_PI, 5).tolist()
        prepared = sv.new_state(m)
        stack = sv.QuantumState(np.stack([prepared.amplitudes] * len(phis)))
        qpe.apply_phase_kicks(stack, phis, m, GateMode.PULSE_LITERAL)
        assert len(built) == len(phis)
        built.clear()
        qpe.apply_phase_kicks(prepared, phis[0], m, GateMode.PULSE_LITERAL)
        assert len(built) == 1


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


class TestExactDistributions:
    """A stack of phases shares one inverse QFT; each row must still be the
    distribution of its phase alone, byte for byte."""

    @pytest.mark.parametrize("mode", list(GateMode))
    @pytest.mark.parametrize("m", range(1, 13))
    def test_rows_match_single_phases(self, m, mode):
        rng = np.random.default_rng(40 + m)
        phis = [float(p) for p in TWO_PI - rng.uniform(0.0, TWO_PI, 12)]
        for count in (1, 5, 12):
            got = qpe.exact_distributions(m, phis[:count], mode)
            assert got.shape == (count, 2 ** m)
            for phi, row in zip(phis, got):
                alone = qpe.exact_distribution(m, phi, mode).probs
                assert row.tobytes() == alone.tobytes(), (count, phi)
        # the unstacked path of estimate, which never forms a stack
        for phi, row in zip(phis, got):
            config = qpe.QpeConfig(m=m, true_phase_phi=phi, gate_mode=mode)
            assert row.tobytes() == qpe.readout_distribution(config).probs.tobytes()

    @pytest.mark.parametrize("mode", list(GateMode))
    def test_phases_beyond_one_batch(self, mode):
        # exact_distributions kicks all its phases as one stack, even one
        # larger than sweep's batches: a row's bits do not depend on how
        # many rows the stack has
        m = 12
        count = qpe.batch_size(m) + 3
        phis = [float(p) for p in np.random.default_rng(60).uniform(0.1, TWO_PI, count)]
        got = qpe.exact_distributions(m, phis, mode)
        assert qpe.batch_size(m) * 2 ** m <= qpe.BATCH_AMPLITUDES < count * 2 ** m
        for phi, row in zip(phis, got):
            assert row.tobytes() == qpe.exact_distribution(m, phi, mode).probs.tobytes()

    def test_batch_size(self):
        assert qpe.batch_size(5) * 2 ** 5 == qpe.BATCH_AMPLITUDES
        assert qpe.batch_size(16) == qpe.batch_size(qpe.MAX_REGISTER) == 1

    def test_no_phases(self):
        assert qpe.exact_distributions(4, []).shape == (0, 16)

    @pytest.mark.parametrize("m", [0, qpe.MAX_REGISTER + 1])
    def test_register_cap(self, m, monkeypatch):
        monkeypatch.setattr(qpe, "prepare_register", None)  # no simulation
        with pytest.raises(ValidationError, match="m must be in"):
            qpe.exact_distributions(m, [1.0])

    def test_window_mass_matches_empirical_success(self):
        rng = np.random.default_rng(61)
        phis = [float(p) for p in rng.uniform(0.1, TWO_PI, 7)]
        rows = qpe.exact_distributions(7, phis)
        for n in (0, 2, 4):
            for phi, probs in zip(phis, rows):
                assert qpe.window_mass(probs, n, phi) == qpe.empirical_success(7, n, phi)


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

    @pytest.mark.parametrize("n", [-1, -4])
    def test_negative_accuracy_bits(self, n):
        # m - n + 1 would be large and the "bound" close to 1 for a window
        # wider than the whole circle
        with pytest.raises(DomainError, match="n >= 0"):
            qpe.success_probability_bound(5, n)
        with pytest.raises(DomainError, match="n >= 0"):
            qpe.empirical_success(5, n, 1.0)


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

    @pytest.mark.parametrize("phi", [0.0, -1.0, TWO_PI + 1e-9, math.nan, math.inf])
    def test_check_phase_refuses(self, phi):
        with pytest.raises(ValidationError,
                           match=r"^true phase must lie in \(0, 2\*pi\], got "):
            qpe.check_phase(phi)

    def test_check_phase_takes_the_half_open_interval(self):
        for phi in (5e-324, 1.0, TWO_PI):
            assert qpe.check_phase(phi) == phi

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
