import math

import numpy as np
import pytest

from dotphase import _pcg
from dotphase import statevector as sv
from dotphase.errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    NumericalInvariantError,
    ValidationError,
)
from dotphase.pulses import PulseSpec, cavity_pulse_unitary, single_pulse_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def random_state(m, rng):
    amps = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
    amps /= np.linalg.norm(amps)
    return sv.QuantumState(m, False, amps.astype(np.complex128))


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestNewState:
    def test_single_qubit(self):
        state = sv.new_state(1)
        assert np.allclose(state.amplitudes, [1, 0])

    def test_with_cavity(self):
        state = sv.new_state(2, with_cavity=True)
        assert len(state.amplitudes) == 8
        assert state.amplitudes[0] == 1

    def test_normalized(self):
        assert sv.new_state(3).norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [0, -1, 25])
    def test_capacity(self, m):
        with pytest.raises(CapacityError):
            sv.new_state(m)


class TestApply1q:
    def test_identity(self):
        rng = np.random.default_rng(0)
        state = random_state(3, rng)
        out = sv.apply_1q(state, 2, np.eye(2))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_hadamard_pulse_on_zero(self):
        gate = single_pulse_unitary(PulseSpec(math.pi / 4, math.pi / 2))
        out = sv.apply_1q(sv.new_state(1), 1, gate)
        assert np.allclose(out.amplitudes, [-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_self_inverse_twice(self):
        rng = np.random.default_rng(1)
        state = random_state(3, rng)
        out = sv.apply_1q(sv.apply_1q(state, 1, X), 1, X)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            sv.apply_1q(sv.new_state(1), 1, np.array([[1, 0], [0, 2]]))

    @pytest.mark.parametrize("q", [0, 4])
    def test_index_range(self, q):
        with pytest.raises(DimensionError):
            sv.apply_1q(sv.new_state(3), q, X)


class TestApply2q:
    def test_cnot_truth_table(self):
        state = sv.new_state(2)
        state = sv.apply_1q(state, 1, X)  # |10>
        out = sv.apply_2q(state, 1, 2, CNOT)
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])  # |11>

    def test_cnot_involution(self):
        rng = np.random.default_rng(2)
        state = random_state(2, rng)
        out = sv.apply_2q(sv.apply_2q(state, 1, 2, CNOT), 1, 2, CNOT)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_diagonal_on_bell(self):
        bell = sv.QuantumState(
            2, False, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        )
        gate = np.diag([1, 1, 1, np.exp(-1j * math.pi / 2)])
        out = sv.apply_2q(bell, 1, 2, gate)
        expected = np.array([1, 0, 0, np.exp(-1j * math.pi / 2)]) / math.sqrt(2)
        assert np.allclose(out.amplitudes, expected)

    def test_equal_indices(self):
        with pytest.raises(DimensionError):
            sv.apply_2q(sv.new_state(2), 1, 1, CNOT)


class TestQubitCavity:
    def test_zero_angle_is_identity(self):
        state = sv.new_state(2, with_cavity=True)
        out = sv.apply_qubit_cavity(state, 1, cavity_pulse_unitary(PulseSpec(0, 0.3)))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_half_pulse_swaps_excitation(self):
        # |e0> -> -i|g1> at theta = pi/2, phi2 = 0
        state = sv.new_state(1, with_cavity=True)
        state = sv.apply_1q(state, 1, X)  # |e0>
        out = sv.apply_qubit_cavity(
            state, 1, cavity_pulse_unitary(PulseSpec(math.pi / 2, 0))
        )
        assert np.allclose(out.amplitudes, [0, -1j, 0, 0])

    def test_ground_vacuum_fixed(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gate = cavity_pulse_unitary(
                PulseSpec(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            )
            out = sv.apply_qubit_cavity(sv.new_state(1, with_cavity=True), 1, gate)
            assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_requires_cavity(self):
        with pytest.raises(ConfigurationError):
            sv.apply_qubit_cavity(sv.new_state(2), 1, np.eye(4))


class TestProbabilities:
    def test_basis_state(self):
        assert np.allclose(sv.probabilities(sv.new_state(1)), [1, 0])

    def test_born_rule(self):
        state = sv.QuantumState(
            1, False, np.array([-1, 1], dtype=complex) / math.sqrt(2)
        )
        assert np.allclose(sv.probabilities(state), [0.5, 0.5])


class TestSample:
    def test_matches_generator_choice(self):
        rng = np.random.default_rng(17)
        for m in range(1, 15):
            raw = rng.random(2 ** m) ** rng.integers(1, 6)
            p = raw / raw.sum()
            seeds = [int(s) for s in rng.integers(0, 2 ** 63, size=40)]
            oracle = [np.random.default_rng(s).choice(len(p), p=p) for s in seeds]
            assert sv.sample(p, seeds).tolist() == oracle

    @pytest.mark.parametrize(
        "n", [sv.SAMPLE_BATCH_MIN - 1, sv.SAMPLE_BATCH_MIN, sv.SAMPLE_BATCH_MIN + 1]
    )
    def test_same_draws_either_side_of_the_batch_constant(self, n):
        p = np.random.default_rng(n).random(64)
        seeds = [7, 2 ** 32 + 5, 2 ** 130 + 7] + list(range(100, 100 + n - 3))
        oracle = [np.random.default_rng(s).choice(len(p), p=p / p.sum()) for s in seeds]
        assert sv.sample(p, seeds).tolist() == oracle
        assert sv.sample(p, np.array(seeds[3:], dtype=np.uint32)).tolist() == oracle[3:]
        alone = [int(sv.sample(p, [s])[0]) for s in seeds]
        assert alone == oracle

    @pytest.mark.parametrize(
        "probs", [[0.5, math.nan], [1.5, -0.5], [0.0, 0.0], [math.inf, 0.0]]
    )
    def test_rejects_invalid_probabilities(self, probs):
        with pytest.raises(NumericalInvariantError):
            sv.sample(np.array(probs), [0])


class TestArrayPass:
    """_pcg against numpy's own SeedSequence and Generator, the oracle."""

    @pytest.mark.parametrize("length", range(1, 9))
    def test_generate_state_matches_seed_sequence(self, length):
        rng = np.random.default_rng(length)
        entropy = rng.integers(0, 2 ** 32, size=(length, 30), dtype=np.uint64)
        got = _pcg.generate_state(entropy.astype(np.uint32), 8)
        for col in range(30):
            words = [int(w) for w in entropy[:, col]]
            assert got[:, col].tolist() == (
                np.random.SeedSequence(words).generate_state(8).tolist())

    def test_first_uniforms_match_generator(self):
        seeds = np.random.default_rng(3).integers(0, 2 ** 32, 20_000, dtype=np.uint64)
        oracle = [np.random.default_rng(int(s)).random() for s in seeds]
        assert _pcg.first_uniforms(seeds).tolist() == oracle

    def test_seeds_of_every_length_in_one_batch(self):
        seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 + 3, 2 ** 96 + 1,
                 2 ** 128 - 1, 2 ** 128, 2 ** 130 + 7, 2 ** 200 + 11, 2 ** 130 + 8]
        oracle = [np.random.default_rng(s).random() for s in seeds]
        assert _pcg.first_uniforms(np.array(seeds, dtype=object)).tolist() == oracle

    def test_rejects_what_numpy_rejects(self):
        with pytest.raises(ValueError):
            _pcg.first_uniforms(np.array([3, -1]))
        with pytest.raises(TypeError):
            _pcg.first_uniforms(np.array([1.5]))


class TestMeasureAll:
    def test_rejects_unnormalised_state(self):
        state = sv.QuantumState(1, False, np.array([1, 1], dtype=complex))
        with pytest.raises(NumericalInvariantError):
            sv.measure_all(state, 0)

    def test_basis_state_deterministic(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b011] = 1.0
        state = sv.QuantumState(3, False, amps)
        for seed in (0, 1, 12345):
            record = sv.measure_all(state, seed)
            assert record.bits == (0, 1, 1)
            assert np.allclose(record.collapsed.amplitudes, amps)

    def test_uniform_frequency(self):
        state = sv.QuantumState(
            1, False, np.array([1, 1], dtype=complex) / math.sqrt(2)
        )
        ones = sum(
            sv.measure_all(state, seed).bits[0] for seed in range(100_000)
        )
        assert abs(ones / 100_000 - 0.5) < 0.01

    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        state = random_state(4, rng)
        a = sv.measure_all(state, 99)
        b = sv.measure_all(state, 99)
        assert a.bits == b.bits
        assert np.array_equal(a.collapsed.amplitudes, b.collapsed.amplitudes)

    def test_cavity_factor_untouched(self):
        # qubit |0> times cavity superposition: cavity survives collapse
        amps = np.array([1, 1j, 0, 0], dtype=complex) / math.sqrt(2)
        state = sv.QuantumState(1, True, amps)
        record = sv.measure_all(state, 5)
        assert record.bits == (0,)
        assert np.allclose(record.collapsed.amplitudes, amps)


class TestOverlap:
    def test_self_overlap(self):
        rng = np.random.default_rng(5)
        state = random_state(3, rng)
        assert sv.overlap(state, state) == pytest.approx(1.0)

    def test_orthogonal(self):
        zero = sv.new_state(1)
        one = sv.apply_1q(zero, 1, X)
        assert sv.overlap(zero, one) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sv.overlap(sv.new_state(1), sv.new_state(2))


class TestInvariants:
    def test_norm_preserved_over_chain(self):
        rng = np.random.default_rng(6)
        state = random_state(3, rng)
        for _ in range(1000):
            q = int(rng.integers(1, 4))
            state = sv.apply_1q(state, q, random_unitary(2, rng))
        assert abs(state.norm() - 1.0) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(7)
        gate = random_unitary(2, rng)
        psi, chi = random_state(3, rng), random_state(3, rng)
        alpha, beta = 0.6 + 0.2j, -0.3 + 0.7j
        mix = sv.QuantumState(3, False, alpha * psi.amplitudes + beta * chi.amplitudes)
        norm = np.linalg.norm(mix.amplitudes)
        mix.amplitudes /= norm
        lhs = sv.apply_1q(mix, 2, gate).amplitudes * norm
        rhs = (
            alpha * sv.apply_1q(psi, 2, gate).amplitudes
            + beta * sv.apply_1q(chi, 2, gate).amplitudes
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_composition_matches_full_matrix(self, m):
        rng = np.random.default_rng(8)
        q = int(rng.integers(1, m + 1))
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        state = random_state(m, rng)
        stepped = sv.apply_1q(sv.apply_1q(state, q, u), q, v)
        # full-matrix oracle: embed v@u at qubit q's tensor slot
        full = np.eye(1, dtype=complex)
        for pos in range(1, m + 1):
            full = np.kron(full, v @ u if pos == q else np.eye(2))
        expected = full @ state.amplitudes
        assert np.max(np.abs(stepped.amplitudes - expected)) < 1e-12
