import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotphase import _flat, _pcg, cli, qpe
from dotphase import statevector as sv
from dotphase.errors import (
    CapacityError,
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
    return sv.QuantumState(amps.astype(np.complex128))


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestNewState:
    def test_single_qubit(self):
        state = sv.new_state(1)
        assert np.allclose(state.amplitudes, [1, 0])

    def test_num_qubits_comes_from_the_amplitudes(self):
        for m in (1, 2, 3, 12):
            state = sv.new_state(m)
            assert state.num_qubits == m and len(state.amplitudes) == 2 ** m
            assert sv.QuantumState(np.zeros(2 ** m, dtype=complex)).num_qubits == m

    def test_normalized(self):
        assert sv.new_state(3).norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(3,), (1,), (0,), (6,)])
    def test_length_must_be_a_power_of_two(self, shape):
        # the qubit count, and every kernel's view, come from the length
        with pytest.raises(DimensionError, match="power of two"):
            sv.QuantumState(np.ones(shape, dtype=complex))

    def test_real_amplitudes_are_taken_as_complex(self):
        # the structured kernels view the amplitudes as 16-byte complex runs,
        # so float64 input must give the complex state's bytes, not its own
        real = np.full(8, 1 / math.sqrt(8))
        gate = qpe._phase_gate(0.7, qpe.GateMode.IDEAL)
        got = sv.apply_1q(sv.QuantumState(real), 3, gate).amplitudes
        want = sv.apply_1q(sv.QuantumState(real.astype(complex)), 3, gate).amplitudes
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()

    def test_complex_amplitudes_are_not_copied(self):
        amps = sv.new_state(3).amplitudes
        assert sv.QuantumState(amps).amplitudes is amps

    @pytest.mark.parametrize("shape", [(2, 4), (3, 2), (3, 2 ** 12), (2, 12), ()])
    def test_only_one_dimension_is_a_state(self, shape):
        # a stack of states too: a state is one register's amplitudes
        with pytest.raises(DimensionError,
                           match=rf"^amplitudes must be one state, a 1-D array, got "
                                 rf"{len(shape)} dimensions$"):
            sv.QuantumState(np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("shape", [(2, 2, 4), (1, 1, 1, 2)])
    def test_more_than_two_dimensions_are_no_state(self, shape):
        with pytest.raises(DimensionError,
                           match=r"one state, a 1-D array, got \d dimensions$"):
            sv.QuantumState(np.ones(shape, dtype=complex))

    def test_three_amplitudes_are_no_register(self):
        amps = np.ones(3, dtype=complex) / math.sqrt(3)
        with pytest.raises(DimensionError, match="got 3"):
            sv.measure_all(sv.QuantumState(amps), 0)
        with pytest.raises(DimensionError, match="got 3"):
            sv.apply_1q(sv.QuantumState(amps), 1, X)

    @pytest.mark.parametrize("m", [0, -1, 25])
    def test_capacity(self, m):
        with pytest.raises(CapacityError):
            sv.new_state(m)


class TestApply1q:
    def test_identity(self):
        rng = np.random.default_rng(0)
        state = random_state(3, rng)
        out = sv.apply_1q(state.copy(), 2, np.eye(2))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_hadamard_pulse_on_zero(self):
        gate = single_pulse_unitary(PulseSpec(math.pi / 4, math.pi / 2))
        out = sv.apply_1q(sv.new_state(1), 1, gate)
        assert np.allclose(out.amplitudes, [-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_self_inverse_twice(self):
        rng = np.random.default_rng(1)
        state = random_state(3, rng)
        out = sv.apply_1q(sv.apply_1q(state.copy(), 1, X), 1, X)
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
        out = sv.apply_2q(sv.apply_2q(state.copy(), 1, 2, CNOT), 1, 2, CNOT)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_diagonal_on_bell(self):
        bell = sv.QuantumState(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
        gate = np.diag([1, 1, 1, np.exp(-1j * math.pi / 2)])
        out = sv.apply_2q(bell, 1, 2, gate)
        expected = np.array([1, 0, 0, np.exp(-1j * math.pi / 2)]) / math.sqrt(2)
        assert np.allclose(out.amplitudes, expected)

    def test_equal_indices(self):
        with pytest.raises(DimensionError):
            sv.apply_2q(sv.new_state(2), 1, 1, CNOT)


class TestQubitCavity:
    """The cavity, truncated to {0, 1}, is the register's last qubit: m
    molecules and their cavity are ``new_state(m + 1)``."""

    def test_zero_angle_is_identity(self):
        state = sv.new_state(3)
        out = sv.apply_qubit_cavity(state.copy(), 1, cavity_pulse_unitary(PulseSpec(0, 0.3)))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_half_pulse_swaps_excitation(self):
        # |e0> -> -i|g1> at theta = pi/2, phi2 = 0
        state = sv.new_state(2)
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
            out = sv.apply_qubit_cavity(sv.new_state(2), 1, gate)
            assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_requires_cavity(self):
        # the last qubit is the cavity, so it is no molecule, and a
        # one-qubit state has no molecule besides its cavity
        with pytest.raises(DimensionError, match="is the cavity"):
            sv.apply_qubit_cavity(sv.new_state(3), 3, np.eye(4))
        with pytest.raises(DimensionError, match="is the cavity"):
            sv.apply_qubit_cavity(sv.new_state(1), 1, np.eye(4))
        with pytest.raises(DimensionError, match="out of range"):
            sv.apply_qubit_cavity(sv.new_state(3), 0, np.eye(4))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_contraction_on_the_last_qubit(self, m):
        # every molecule q of an (m + 1)-qubit state with random pulses:
        # the bytes of the contraction on axes (q - 1, m) and of apply_2q
        rng = np.random.default_rng(700 + m)
        state = random_state(m + 1, rng)
        for q in range(1, m + 1):
            for _ in range(2):
                gate = cavity_pulse_unitary(PulseSpec(*rng.uniform(0, 2 * math.pi, 2)))
                got = sv.apply_qubit_cavity(state.copy(), q, gate).amplitudes
                assert np.array_equal(got, tensordot_apply(state, [q - 1, m], gate)), q
                again = sv.apply_2q(state.copy(), q, m + 1, gate).amplitudes
                assert got.tobytes() == again.tobytes()


class TestProbabilities:
    def test_basis_state(self):
        assert np.allclose(sv.probabilities(sv.new_state(1)), [1, 0])

    def test_born_rule(self):
        state = sv.QuantumState(np.array([-1, 1], dtype=complex) / math.sqrt(2))
        assert np.allclose(sv.probabilities(state), [0.5, 0.5])

    def test_unnormalised_state_raises(self):
        state = sv.QuantumState(np.array([1, 1], dtype=complex))
        with pytest.raises(NumericalInvariantError,
                           match=r"^probabilities sum to 2\.000000000000000$"):
            sv.probabilities(state)

    def test_stack_names_its_bad_row(self, monkeypatch):
        # the tree's check of each row's sum: row 2's chances at molecule 1
        # are 1e-8 too large
        skew_branch(monkeypatch, nth=1, scale=1 + 1e-8, row=2)
        with pytest.raises(NumericalInvariantError,
                           match=r"^probabilities sum to 1\.0000000\d+ in row 2 of the stack$"):
            qpe.tree_distributions(5, [0.3, 1.1, 2.9, 4.0])

    @pytest.mark.parametrize("args", [
        ["estimate", "--m", "8", "--phase", "0.3", "--shots", "0"],
        ["sweep", "--m-values", "6", "--n", "3", "--random-phases", "5", "--seed", "4"]])
    def test_drift_past_the_norm_check_exits_2(self, monkeypatch, capsys, args):
        # a drift that no check after a step sees leaves the check of each
        # row's sum to stop the run: an estimate's statevector, a single
        # state, has its norm check after each gate off and drifting kernels;
        # a sweep's tree, a stack, has every level's chances drifting, which
        # only that check sees
        monkeypatch.setattr(sv, "_check_norm", lambda state: state)
        record_kernels(monkeypatch, scale=1 + 1e-9)
        skew_branch(monkeypatch, nth=None, scale=1 + 1e-9)
        code = cli.main(args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "probabilities sum to" in captured.err


class TestSample:
    def test_matches_generator_choice(self):
        rng = np.random.default_rng(17)
        for m in range(1, 15):
            raw = rng.random(2 ** m) ** rng.integers(1, 6)
            p = raw / raw.sum()
            seeds = [int(s) for s in rng.integers(0, 2 ** 63, size=40)]
            oracle = [np.random.default_rng(s).choice(len(p), p=p) for s in seeds]
            uniforms = [np.random.default_rng(s).random() for s in seeds]
            assert sv.sample_uniforms(p, uniforms).tolist() == oracle
        # seeds of one, two and five words, each drawn alone
        p = np.random.default_rng(64).random(64)
        for s in (7, 2 ** 32 + 5, 2 ** 130 + 7):
            oracle = np.random.default_rng(s).choice(len(p), p=p / p.sum())
            assert sv.sample_uniforms(p, [np.random.default_rng(s).random()]).tolist() == [oracle]

    @pytest.mark.parametrize(
        "probs", [[0.5, math.nan], [1.5, -0.5], [0.0, 0.0], [math.inf, 0.0]]
    )
    def test_rejects_invalid_probabilities(self, probs):
        with pytest.raises(NumericalInvariantError):
            sv.sample_uniforms(np.array(probs), [0.5])


class TestNorm:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_matches_linalg_norm(self, m):
        # both sum 2^(m+1) squares, in different orders: the difference is
        # rounding, which grows with the length of the sum (about 10 ulp at
        # m = 16); NORM_TOL is 1e-10
        rng = np.random.default_rng(m)
        for _ in range(5):
            state = random_state(m, rng)
            assert abs(state.norm() - np.linalg.norm(state.amplitudes)) <= (
                4 * m * np.finfo(np.float64).eps)

    def test_non_contiguous_amplitudes(self):
        # a strided buffer is copied once, at construction, into amplitudes
        # that the norm views as floats and every gate writes
        rng = np.random.default_rng(12)
        backing = rng.normal(size=2 ** 13) + 1j * rng.normal(size=2 ** 13)
        backing[::2] /= np.linalg.norm(backing[::2])
        before = backing.tobytes()
        state = sv.QuantumState(backing[::2])
        assert state.amplitudes.flags.carray
        assert not np.shares_memory(state.amplitudes, backing)
        assert abs(state.norm() - 1.0) <= 1e-15
        for axes, gate in (([0], np.diag([1, 1j])), ([10], np.diag([1, 1j])),
                           ([11], np.diag([1, 1j])),
                           ([3, 9], CNOT), ([5], H)):
            got = sv._apply(sv.QuantumState(backing[::2]), axes, gate).amplitudes
            contiguous = sv.QuantumState(backing[::2].copy())
            assert np.array_equal(got, sv._apply(contiguous, axes, gate).amplitudes)
        assert backing.tobytes() == before

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, complex(0, math.inf),
                complex(math.nan, 0), complex(math.inf, math.nan)])
    def test_non_finite_amplitudes_fail_the_check(self, bad):
        amps = np.full(2 ** 12, 2 ** -6, dtype=np.complex128)
        amps[77] = bad
        state = sv.QuantumState(amps)
        with pytest.raises(NumericalInvariantError):
            sv._check_norm(state)
        # the slab products, the pattern pass and the contraction all end
        # in the check; inf times an exact zero warns on the way, which is
        # not what is tested
        for axes, gate in (([0], np.diag([1, 1j])), ([10], np.diag([1, 1j])),
                           ([11], np.diag([1, 1j])), ([10], np.diag([-1, 1j])),
                           ([3, 9], CNOT), ([5], H)):
            with np.errstate(invalid="ignore"), pytest.raises(NumericalInvariantError):
                sv._apply(state, axes, gate)


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
        # a run seed of any length splits into the words SeedSequence mixes;
        # with a shot index below them, one batch gives every shot's seed
        seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 + 3, 2 ** 96 + 1,
                 2 ** 128 - 1, 2 ** 128, 2 ** 130 + 7, 2 ** 200 + 11, 2 ** 130 + 8]
        for s in seeds:
            words = _pcg.int_words(s)
            assert (np.random.SeedSequence(words).generate_state(8).tolist()
                    == np.random.SeedSequence(s).generate_state(8).tolist())
            entropy = np.array([[w] * 5 for w in words] + [list(range(5))], dtype=np.uint32)
            assert _pcg.generate_state(entropy, 1)[0].tolist() == [
                np.random.SeedSequence([s, i]).generate_state(1)[0] for i in range(5)]

    def test_rejects_what_numpy_rejects(self):
        # _pcg checks nothing: the run seed is checked where it enters, in
        # qpe.shot_uniforms, alike on the per-shot loop and the array pass
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(TypeError):
            np.random.default_rng(1.5)
        for n in (3, qpe.SHOT_SEED_LOOP_MAX + 36):
            with pytest.raises(ValueError, match="^expected non-negative integer$"):
                qpe.shot_uniforms(-1, n)
            with pytest.raises(TypeError):
                qpe.shot_uniforms(1.5, n)


class TestMeasureAll:
    def test_rejects_unnormalised_state(self):
        state = sv.QuantumState(np.array([1, 1], dtype=complex))
        with pytest.raises(NumericalInvariantError):
            sv.measure_all(state, 0)

    def test_basis_state_deterministic(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b011] = 1.0
        state = sv.QuantumState(amps)
        for seed in (0, 1, 12345):
            record = sv.measure_all(state, seed)
            assert record.bits == (0, 1, 1)
            assert np.allclose(record.collapsed.amplitudes, amps)

    def test_uniform_frequency(self):
        state = sv.QuantumState(np.array([1, 1], dtype=complex) / math.sqrt(2))
        ones = sum(
            sv.measure_all(state, seed).bits[0] for seed in range(100_000)
        )
        assert abs(ones / 100_000 - 0.5) < 0.01

    @pytest.mark.parametrize("m", range(1, 9))
    def test_outcome_matches_generator_choice(self, m):
        state = random_state(m, np.random.default_rng(90 + m))
        p = sv.probabilities(state)
        for seed in (0, 5, 2 ** 32 + 5, 2 ** 130 + 7):
            bits = sv.measure_all(state, seed).bits
            oracle = np.random.default_rng(seed).choice(2 ** m, p=p)
            assert int("".join(map(str, bits)), 2) == oracle

    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        state = random_state(4, rng)
        a = sv.measure_all(state, 99)
        b = sv.measure_all(state, 99)
        assert a.bits == b.bits
        assert np.array_equal(a.collapsed.amplitudes, b.collapsed.amplitudes)

    def test_cavity_factor_untouched(self):
        # a molecule in superposition and its cavity, the last qubit, in
        # vacuum: the cavity reads 0, and the collapse keeps the one
        # amplitude of the outcome, cavity still in vacuum
        amps = np.array([1, 0, 1j, 0], dtype=complex) / math.sqrt(2)
        state = sv.QuantumState(amps)
        seen = set()
        for seed in range(20):
            record = sv.measure_all(state, seed)
            molecule, cavity = record.bits
            assert cavity == 0
            expected = np.zeros(4, dtype=complex)
            expected[2 * molecule] = amps[2 * molecule] * math.sqrt(2)
            assert np.allclose(record.collapsed.amplitudes, expected)
            seen.add(molecule)
        assert seen == {0, 1}


class TestOverlap:
    def test_self_overlap(self):
        rng = np.random.default_rng(5)
        state = random_state(3, rng)
        assert sv.overlap(state, state) == pytest.approx(1.0)

    def test_orthogonal(self):
        zero = sv.new_state(1)
        one = sv.apply_1q(zero.copy(), 1, X)
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
        mix = sv.QuantumState(alpha * psi.amplitudes + beta * chi.amplitudes)
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
        stepped = sv.apply_1q(sv.apply_1q(state.copy(), q, u), q, v)
        # full-matrix oracle: embed v@u at qubit q's tensor slot
        full = np.eye(1, dtype=complex)
        for pos in range(1, m + 1):
            full = np.kron(full, v @ u if pos == q else np.eye(2))
        expected = full @ state.amplitudes
        assert np.max(np.abs(stepped.amplitudes - expected)) < 1e-12


def tensordot_apply(state, axes, gate):
    """Reference contraction of the gate on tensor factors ``axes`` through
    BLAS, the path that dense gates take."""
    k = len(axes)
    g = np.asarray(gate, dtype=np.complex128).reshape((2,) * (2 * k))
    psi = state.amplitudes.reshape((2,) * state.num_qubits)
    psi = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(psi, list(range(k)), axes).reshape(-1)


class TestStructuredKernel:
    """Diagonal and 0/1-permutation gates skip the BLAS contraction; every
    result must equal the contraction bit for bit."""

    @staticmethod
    def gates(rng):
        theta = rng.uniform(0, 2 * math.pi)
        one = {
            "ideal phase": np.diag([1, np.exp(1j * theta)]),
            "pulse phase": np.diag([-np.exp(-1j * theta), np.exp(1j * theta)]),
            "flip": X,
            "phased flip": np.array([[0, np.exp(1j * theta)], [1j, 0]]),
            "hadamard": H,
        }
        two = {
            "random diagonal": np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 4))),
            "cnot": CNOT,
            "phased permutation": np.eye(4)[[2, 0, 3, 1]]
            * np.exp(1j * rng.uniform(0, 2 * math.pi, 4))[:, None],
            "dense": random_unitary(4, rng),
        }
        return one, two

    @pytest.mark.parametrize(
        "factors, cavity",
        [(f, c) for f in range(1, 15) for c in (False, True) if f > c],
    )
    def test_matches_tensordot_bit_for_bit(self, factors, cavity):
        # np.array_equal takes -0.0 == 0.0: the contraction adds exact zeros
        # that may flip the sign of an exact zero the structured kernels
        # leave, which changes no probability. Every axis is tested with
        # one-qubit gates, so runs on both sides of SPLIT_BLOCK are. Above 12
        # factors two-qubit gates are tested on the last 6 axes only. With
        # ``cavity`` the last factor is the cavity, and each two-qubit gate
        # onto it goes through apply_qubit_cavity as well
        rng = np.random.default_rng(100 * factors + cavity)
        dim = 2 ** factors
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = sv.QuantumState(amps / np.linalg.norm(amps))
        one, two = self.gates(rng)
        for name, gate in one.items():
            for axis in range(factors):
                got = sv._apply(state.copy(), [axis], gate).amplitudes
                assert np.array_equal(got, tensordot_apply(state, [axis], gate)), (
                    name, axis)
        paired = range(factors) if factors <= 12 else range(factors - 6, factors)
        for name, gate in two.items():
            for axes in itertools.permutations(paired, 2):
                expected = tensordot_apply(state, list(axes), gate)
                got = sv._apply(state.copy(), list(axes), gate).amplitudes
                assert np.array_equal(got, expected), (name, axes)
                if cavity and axes[1] == factors - 1:
                    got = sv.apply_qubit_cavity(state.copy(), axes[0] + 1, gate).amplitudes
                    assert np.array_equal(got, expected), (name, axes)

    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize(
        "gate, message",
        [(np.diag([1, 2]), r"gate is not unitary \(deviation 3\.000e\+00\)"),
         (np.diag([1, math.nan]), r"gate is not unitary \(deviation nan\)"),
         (np.array([[0, 2], [1, 0]]), r"gate is not unitary \(deviation 3\.000e\+00\)")],
    )
    def test_non_unitary_gate_rejected(self, m, gate, message):
        with pytest.raises(ValidationError, match=message):
            sv.apply_1q(sv.new_state(m), 1, gate)

    @pytest.mark.parametrize("factors", range(1, 13))
    def test_gate_layouts_match_tensordot_bit_for_bit(self, factors):
        # BLAS reads a Fortran-order gate transposed, and a matrix-vector
        # product (a gate on every factor) then rounds otherwise than on a
        # C-order copy, so the gate must reach np.dot as tensordot hands it
        rng = np.random.default_rng(200 + factors)
        amps = rng.normal(size=2 ** factors) + 1j * rng.normal(size=2 ** factors)
        state = sv.QuantumState(amps / np.linalg.norm(amps))
        u2, u4 = random_unitary(2, rng), random_unitary(4, rng)
        q4 = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        layouts = {
            1: {"int": np.array([[0, 1], [1, 0]]), "float": H.real.copy(),
                "fortran": np.asfortranarray(u2), "reversed": u2[::-1, ::-1]},
            2: {"int": CNOT.real.astype(int), "float": q4,
                "fortran": np.asfortranarray(u4), "reversed": u4[::-1, ::-1]},
        }
        for k, gates in layouts.items():
            if k > factors:
                continue
            for axes in ([*range(k)], [*range(factors - k, factors)]):
                for name, gate in gates.items():
                    got = sv._apply(state.copy(), axes, gate).amplitudes
                    assert np.array_equal(got, tensordot_apply(state, axes, gate)), (
                        name, axes)

    @pytest.mark.parametrize("m", [2, 8])
    def test_unnormalised_state_rejected(self, m):
        amps = np.zeros(2 ** m, dtype=complex)
        amps[:2] = 1.0
        state = sv.QuantumState(amps)
        for apply in (lambda: sv.apply_1q(state, 1, np.diag([1, 1j])),
                      lambda: sv.apply_2q(state, 1, 2, CNOT),
                      lambda: sv.apply_1q(state, 1, H)):
            with pytest.raises(NumericalInvariantError,
                               match=r"state norm drifted to 1\.414213562373"):
                apply()


def monomial_gates(rng):
    """4x4 gates with one nonzero per row and non-unit phases: a 3-cycle
    with a fixed point, two 4-cycles and a pair of 2-cycles, each once with
    random phases and once with every other entry exactly 1. A phase on a
    cycle of two or more slabs sends each of them to the dense kernel."""
    gates = {}
    for perm in ([1, 2, 0, 3], [0, 3, 1, 2], [1, 2, 3, 0], [2, 3, 1, 0], [1, 0, 3, 2]):
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
        for name, d in (("phased", phases), ("half ones", np.where([1, 0, 1, 0], 1, phases))):
            gate = np.zeros((4, 4), dtype=complex)
            gate[np.arange(4), perm] = d
            gates[f"{name} {perm}"] = gate
    return gates


def structured_gates(rng):
    """One- and two-qubit gates with one nonzero per row: moves only (X,
    CNOT, 0/1 permutations with a 3-cycle and with a 4-cycle), which
    ``_flat._move`` copies, and diagonals with one entry and with every
    entry other than 1, which ``_flat._scale`` or the pattern pass
    multiplies; and 4x4 monomials with phases on a 3-cycle and on 4-cycles,
    which run dense, since a structured kernel scales a slab or moves slabs,
    never both."""
    theta = rng.uniform(0, 2 * math.pi)
    one = {"flip": X, "ideal phase": np.diag([1, np.exp(1j * theta)]),
           "pulse phase": np.diag([-np.exp(-1j * theta), np.exp(1j * theta)])}
    monomials = monomial_gates(rng)
    two = {"cnot": CNOT, "controlled phase": np.diag([1, 1, 1, np.exp(1j * theta)]),
           "random diagonal": np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 4))),
           "3-cycle": np.eye(4, dtype=complex)[[1, 2, 0, 3]],
           "4-cycle": np.eye(4, dtype=complex)[[1, 2, 3, 0]]}
    for name in ("phased [1, 2, 0, 3]", "phased [1, 2, 3, 0]", "half ones [2, 3, 1, 0]"):
        two[name] = monomials[name]
    return one, two


class TestColumnBlocks:
    """``_flat._column_blocks`` cuts every kernel's blocks: they tile the
    array once in C order, hold at most ``cols`` elements each, and each
    has an int first index or is one range of axis 0 (a slice)."""

    @given(rows=st.integers(1, 20), axes=st.lists(st.integers(0, 3), max_size=3),
           cols=st.integers(0, 12).map(lambda e: 2 ** e))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_blocks_tile_the_array(self, rows, axes, cols):
        shape = (rows, *(2 ** e for e in axes))
        array = np.arange(math.prod(shape)).reshape(shape)
        blocks = _flat._column_blocks(shape, cols)
        parts = [array[index] for index in blocks]
        assert np.array_equal(np.concatenate([part.ravel() for part in parts]),
                              np.arange(array.size))
        for index, part in zip(blocks, parts):
            assert part.size <= cols, index
            assert (type(index[0]) is int
                    or (type(index[0]) is slice and len(index) == 1)), index

    def test_memo_keeps_every_shape(self):
        # 511 shapes, more than a memo of 256 entries keeps: a second pass
        # builds none of them again
        def cut_every_shape():
            for rows in range(1, 512):
                _flat._column_blocks((rows, 8), 16)
            return _flat._column_blocks.cache_info().misses

        misses = cut_every_shape()
        assert cut_every_shape() == misses


class TestInPlace:
    """Every gate writes the state it is given and returns it, and must
    still equal the contraction bit for bit; ``state.copy()`` keeps a
    state."""

    @staticmethod
    def check(state, axes, gate):
        work = state.copy()
        got = sv._apply(work, axes, gate)
        assert got is work, axes
        assert np.array_equal(got.amplitudes, tensordot_apply(state, axes, gate)), axes

    @pytest.mark.parametrize(
        "factors, cavity",
        [(f, c) for f in range(1, 13) for c in (False, True) if f > c],
    )
    def test_matches_tensordot_bit_for_bit(self, factors, cavity):
        # with ``cavity`` the last factor is the cavity, and each two-qubit
        # gate onto it goes through apply_qubit_cavity as well
        rng = np.random.default_rng(300 + 2 * factors + cavity)
        amps = rng.normal(size=2 ** factors) + 1j * rng.normal(size=2 ** factors)
        state = sv.QuantumState(amps / np.linalg.norm(amps))
        one, two = TestStructuredKernel.gates(rng)
        two.update(monomial_gates(rng))
        for gate in one.values():
            for axis in range(factors):
                self.check(state, [axis], gate)
        for gate in two.values():
            for axes in itertools.permutations(range(factors), 2):
                self.check(state, list(axes), gate)
                if cavity and axes[1] == factors - 1:
                    got = sv.apply_qubit_cavity(state.copy(), axes[0] + 1, gate).amplitudes
                    assert np.array_equal(got, tensordot_apply(state, list(axes), gate))

    @pytest.mark.parametrize("factors", [13, 14, 15])
    def test_blocks_of_large_slabs(self, factors):
        # slabs of more than SPLIT_BLOCK amplitudes are cut into blocks: of
        # runs multiplied in place where runs reach SPLIT_BLOCK, else of
        # gathered runs; a dense gate's columns into blocks of whole ones.
        # Every axis and ordered pair
        rng = np.random.default_rng(400 + factors)
        state = random_state(factors, rng)
        one, two = structured_gates(rng)
        one["hadamard"] = H
        one["pulse hadamard"] = qpe._hadamard_gate(qpe.GateMode.PULSE_LITERAL)
        two["dense"] = random_unitary(4, rng)
        for gate in one.values():
            for axis in range(factors):
                self.check(state, [axis], gate)
        for gate in two.values():
            for axes in itertools.permutations(range(factors), 2):
                self.check(state, list(axes), gate)

    def test_gates_write_the_state_they_are_given(self):
        # each gate function, through each kernel it reaches, returns the
        # state it got, whose amplitudes, the array it was built on, now
        # hold the gate's result
        rng = np.random.default_rng(20)
        cavity = cavity_pulse_unitary(PulseSpec(0.4, 0.3))
        cases = [
            (sv.apply_1q, (3,), np.diag([1, 1j]), [2]),
            (sv.apply_1q, (3,), np.diag([-1, 1j]), [2]),
            (sv.apply_1q, (3,), H, [2]),
            (sv.apply_2q, (2, 5), CNOT, [1, 4]),
            (sv.apply_2q, (5, 2), random_unitary(4, rng), [4, 1]),
            (sv.apply_qubit_cavity, (2,), CNOT, [1, 5]),
            (sv.apply_qubit_cavity, (2,), cavity, [1, 5])]
        for apply, qubits, gate, axes in cases:
            amps = random_state(6, rng).amplitudes
            state = sv.QuantumState(amps)
            expected = tensordot_apply(state, axes, gate)
            got = apply(state, *qubits, gate)
            assert got is state and got.amplitudes is amps, (apply, qubits)
            assert np.array_equal(amps, expected), (apply, qubits)

    def test_no_state_sized_temporary(self):
        # a kernel holds at most three blocks of SPLIT_BLOCK amplitudes
        # (192 KiB), which is more than 1/8 of a 16-qubit state, so the
        # bound is checked on 17 qubits: the ideal and pulse-literal
        # diagonals and Hadamards on every axis, CNOTs whose blocks are
        # runs, 1-D and 2-D arrays of gathered runs, and a dense 4x4 whose
        # blocks are ranges of L, M and R
        rng = np.random.default_rng(18)
        state = random_state(17, rng)
        limit = state.amplitudes.nbytes / 8
        cases = [([axis], gate) for axis in range(17) for mode in qpe.GateMode
                 for gate in (qpe._phase_gate(0.7, mode), qpe._hadamard_gate(mode))]
        cases += [(list(axes), CNOT) for axes in [(0, 1), (1, 0), (3, 9), (15, 16), (16, 2)]]
        dense = random_unitary(4, rng)
        cases += [(list(axes), dense) for axes in [(0, 1), (16, 2), (15, 16)]]
        for axes, gate in cases:
            tracemalloc.start()
            state = sv._apply(state, axes, gate)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < limit, (axes, peak)

    def test_protocol_peak_memory(self):
        # a dense gate holds its state and at most three blocks, so the
        # peak of one run is its readout: the final state and two arrays
        # of half its size. A contraction that copies the state for BLAS
        # and takes BLAS's output as a new array reaches 4 states
        state_bytes = 2 ** 16 * 16
        tracemalloc.start()
        qpe.readout_distribution(16, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 2.5 * state_bytes, peak / state_bytes

    def test_protocol_writes_one_state(self):
        # every gate of a run writes the state that new_state made, so the
        # run holds one state and its kernels' blocks; a gate that wrote a
        # new state would hold two
        state_bytes = 2 ** 16 * 16
        tracemalloc.start()
        qpe.run_final_state(16, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 1.5 * state_bytes, peak / state_bytes

    def test_unowned_buffers_are_copied(self):
        # a read-only, strided or integer array is no buffer a kernel can
        # write, so the state copies it once, at construction, and every
        # gate writes that copy; the caller's array stays as it was
        amps = random_state(8, np.random.default_rng(17)).amplitudes
        read_only = amps.copy()
        read_only.flags.writeable = False
        strided = np.repeat(amps, 2)[::2]
        integer = np.eye(1, 256, 77, dtype=int)[0]
        for buf in (read_only, strided, integer):
            before = buf.tobytes()
            state = sv.QuantumState(buf)
            owned = state.amplitudes
            assert owned.dtype == np.complex128 and owned.flags.carray
            assert owned.flags.writeable and not np.shares_memory(owned, buf)
            expected = tensordot_apply(state, [2], np.diag([1, 1j]))
            assert sv.apply_1q(state, 3, np.diag([1, 1j])).amplitudes is owned
            assert np.array_equal(owned, expected)
            expected = tensordot_apply(state, [1, 7], CNOT)
            assert sv.apply_2q(state, 2, 8, CNOT).amplitudes is owned
            assert np.array_equal(owned, expected)
            assert buf.tobytes() == before


class TestGatePlanMemo:
    """The unitarity verdict and kernel plan are memoised on the gate's
    bytes: a gate edited in place is judged again, a rejected gate stays
    rejected, and the memo stays bounded. The layout memo, whose keys are
    few, keeps every axis set."""

    def test_gate_edited_in_place_is_checked_again(self):
        gate = np.diag([1, np.exp(0.7j)])
        state = sv.new_state(3)
        sv.apply_1q(state, 2, gate)
        gate[...] = np.diag([1, 2])
        with pytest.raises(ValidationError,
                           match=r"gate is not unitary \(deviation 3\.000e\+00\)"):
            sv.apply_1q(state, 2, gate)

    def test_nan_gate_rejected_every_call(self):
        gate = np.diag([1, math.nan])
        for _ in range(2):
            with pytest.raises(ValidationError, match=r"deviation nan"):
                sv.apply_1q(sv.new_state(3), 1, gate)

    def test_memo_stays_bounded(self):
        state = sv.new_state(3)
        for theta in np.random.default_rng(14).uniform(0, 2 * math.pi, 10_000):
            state = sv.apply_1q(state, 2, np.diag([1, np.exp(1j * theta)]))
        info = sv._gate_plan.cache_info()
        assert info.currsize <= info.maxsize == sv.PLAN_CACHE

    def test_layout_memo_keeps_every_axis_set(self):
        # 330 ordered pairs on 2-10 qubits, more axis sets than a memo of
        # 256 entries keeps: a second pass builds none of them again
        def cnot_on_every_pair():
            for m in range(2, 11):
                state = sv.new_state(m)
                for pair in itertools.permutations(range(1, m + 1), 2):
                    state = sv.apply_2q(state, *pair, CNOT)
            return sv._layout.cache_info().misses

        misses = cnot_on_every_pair()
        assert cnot_on_every_pair() == misses


def record_kernels(monkeypatch, scale=1.0):
    """Wrap each gate kernel so that it records its name on every call and
    scales the first half of its output by ``scale``; returns the record."""
    calls = []

    def wrap(kernel):
        def recorded(*args):
            out = kernel(*args)
            if scale != 1.0:
                # a complex product, which turns -0.0 to 0.0, so only then
                out.reshape(2, -1)[0] *= scale
            calls.append(kernel.__name__)
            return out
        return recorded

    for name in ("_apply_monomial", "_apply_pattern", "_apply_dense"):
        monkeypatch.setattr(_flat, name, wrap(getattr(_flat, name)))
    return calls


class TestKernelDispatch:
    """Each gate call runs the kernel that ``_apply``'s docstring names: the
    dense kernel when fewer than two other factors are left, the gate has
    more than one nonzero in a row, or an off-diagonal entry other than 1
    would make a slab both move and scale; the pattern pass for a diagonal
    one-qubit gate neither of whose entries is 1, on an axis that leaves
    runs shorter than SPLIT_BLOCK; the slab kernel on flat runs otherwise."""

    @staticmethod
    def expected(factors, axes, gate):
        gate = np.asarray(gate)
        off = gate[~np.eye(len(gate), dtype=bool)]
        if (factors - len(axes) < 2 or np.any(np.count_nonzero(gate, axis=1) != 1)
                or np.any((off != 0) & (off != 1))):
            return "_apply_dense"
        run = 2 ** (factors - 1 - max(axes))
        if (len(axes) == 1 and gate[0, 1] == 0 and np.all(gate.diagonal() != 1)
                and run < sv.SPLIT_BLOCK):
            return "_apply_pattern"
        return "_apply_monomial"

    @pytest.mark.parametrize("cavity", [False, True])
    def test_rule(self, monkeypatch, cavity):
        # with ``cavity`` the last factor is the cavity, and a two-qubit gate
        # onto it through apply_qubit_cavity runs the one kernel _apply runs
        calls = record_kernels(monkeypatch)
        rng = np.random.default_rng(15)
        one = [qpe._phase_gate(0.3, qpe.GateMode.IDEAL),
               qpe._phase_gate(0.3, qpe.GateMode.PULSE_LITERAL), X, H]
        two = [CNOT, np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 4))),
               random_unitary(4, rng)]
        for factors in range(1 + cavity, 15):
            state = sv.QuantumState(np.eye(1, 2 ** factors, dtype=complex)[0])
            cases = [([axis], gate) for axis in range(factors) for gate in one]
            if factors <= 12:
                cases += [(list(axes), gate) for gate in two
                          for axes in itertools.permutations(range(factors), 2)]
            for axes, gate in cases:
                calls.clear()
                sv._apply(state, axes, gate)
                assert calls == [self.expected(factors, axes, gate)], (factors, axes)
                if cavity and len(axes) == 2 and axes[1] == factors - 1:
                    calls.clear()
                    sv.apply_qubit_cavity(state, axes[0] + 1, gate)
                    assert calls == [self.expected(factors, axes, gate)], (factors, axes)

    @pytest.mark.parametrize("gate, kernel", [
        (np.eye(4)[[1, 2, 0, 3]], "_apply_monomial"),
        (np.eye(4)[[1, 2, 0, 3]] * np.exp(0.4j), "_apply_dense"),
        (np.eye(4)[[1, 2, 0, 3]] * [[1], [1], [1], [1j]], "_apply_monomial"),
        (np.eye(4)[[1, 2, 0, 3]] * [[1], [1], [1j], [1]], "_apply_dense"),
        (np.array([[0, -1j], [1j, 0]]), "_apply_dense")])
    def test_a_kernel_scales_or_moves(self, monkeypatch, gate, kernel):
        # a 3-cycle of slabs is moved while each of its entries is 1, with a
        # phase on its fixed point too, and runs dense once it carries one,
        # as Y does
        calls = record_kernels(monkeypatch)
        state = random_state(6, np.random.default_rng(19))
        axes = [4, 1] if len(gate) == 4 else [2]
        got = sv._apply(state.copy(), axes, gate).amplitudes
        assert calls == [kernel] == [self.expected(6, axes, gate)]
        assert np.array_equal(got, tensordot_apply(state, axes, gate))


class TestNormCheckFires:
    """A kernel whose output is off by one part in 10^9 on one slab must
    still be stopped by the norm check that ends every gate."""

    @pytest.fixture
    def corrupted(self, monkeypatch):
        return record_kernels(monkeypatch, scale=1 + 1e-9)

    @pytest.mark.parametrize(
        "axes, gate, kernel",
        [([0], np.diag([1, 1j]), "_apply_monomial"),
         ([10], np.diag([-1, 1j]), "_apply_pattern"),
         ([2, 7], CNOT, "_apply_monomial"),
         ([3], H, "_apply_dense")],
    )
    def test_apply_raises(self, corrupted, axes, gate, kernel):
        state = random_state(12, np.random.default_rng(13))
        with pytest.raises(NumericalInvariantError, match="state norm drifted"):
            sv._apply(state, axes, gate)
        assert corrupted == [kernel]

    def test_estimate_exits_2(self, corrupted, capsys):
        code = cli.main(["estimate", "--m", "12", "--phase", "0.3", "--shots", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "state norm drifted" in captured.err
        assert corrupted

    @pytest.mark.parametrize("nth", [1, 60, 141])
    def test_in_place_diagonal_product_exits_2(self, monkeypatch, capsys, nth):
        # the nth product a diagonal entry makes in place (the first is a
        # kick, the 141st a phase gate late in the inverse QFT, on a state
        # the protocol owns) is off by one part in 10^9. A product scales
        # only the slab of its entry; the 140th scales one that holds too
        # little of the norm for that error to pass NORM_TOL
        calls = []
        product = _flat._product

        def corrupted(src, re, im, dst):
            product(src, re, im, dst)
            if dst is src:
                calls.append(len(calls) + 1)
                if len(calls) == nth:
                    dst *= 1 + 1e-9

        monkeypatch.setattr(_flat, "_product", corrupted)
        with pytest.raises(NumericalInvariantError, match="state norm drifted"):
            qpe.exact_distribution(10, 0.3)
        assert calls[-1] == nth
        calls.clear()
        code = cli.main(["estimate", "--m", "10", "--phase", "0.3", "--shots", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "state norm drifted" in captured.err
        assert calls[-1] == nth


def random_stack(factors, rng, count=5):
    """``count`` random states of ``factors`` factors, one row each."""
    return np.stack([random_state(factors, rng).amplitudes for _ in range(count)])


class TestStack:
    """One state a call, of 1 to 15 factors: every axis and ordered pair
    runs the kernel ``TestKernelDispatch`` names, a dense gate in blocks of
    whole columns, on the state's own amplitudes, whatever the BLAS
    kernel."""

    @pytest.mark.parametrize("factors", range(1, 16))
    def test_rows_match_single_states(self, monkeypatch, factors):
        calls = record_kernels(monkeypatch)
        rng = np.random.default_rng(500 + factors)
        state = random_state(factors, rng)
        amps = state.amplitudes
        one, two = structured_gates(rng)
        one["hadamard"], two["dense"] = H, random_unitary(4, rng)
        cases = [([axis], gate) for gate in one.values() for axis in range(factors)]
        cases += [(list(axes), gate) for gate in two.values()
                  for axes in itertools.permutations(range(factors), 2)]
        seen = set()
        for axes, gate in cases:
            calls.clear()
            assert sv._apply(state, axes, gate).amplitudes is amps, axes
            kernel = TestKernelDispatch.expected(factors, axes, gate)
            assert calls == [kernel], (axes, calls)
            seen.add(kernel)
        # the dense fallback at 1 and 2 factors; from 3 on the pattern pass
        # and the slab kernel as well
        assert seen == ({"_apply_dense"} if factors <= 2 else
                        {"_apply_dense", "_apply_pattern", "_apply_monomial"})

    def test_probabilities_per_row(self):
        # each outcome of qubits 1..5 sums the chances of the 4 states of
        # qubits 6 and 7
        state = random_state(7, np.random.default_rng(521))
        probs = sv.register_probabilities(state, 5)
        chances = np.abs(state.amplitudes) ** 2
        assert probs.shape == (32,)
        for row, p in enumerate(probs):
            assert p == pytest.approx(math.fsum(chances[4 * row:4 * row + 4]),
                                      rel=1e-15, abs=0)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "gate, message",
        [(np.diag([1, 2]), r"gate is not unitary \(deviation 3\.000e\+00\)"),
         (np.array([[0, 2], [1, 0]]), r"gate is not unitary \(deviation 3\.000e\+00\)")],
    )
    def test_non_unitary_gate_rejected(self, gate, message):
        state = random_state(8, np.random.default_rng(522))
        with pytest.raises(ValidationError, match=message):
            sv.apply_1q(state, 1, gate)


def skew_output(monkeypatch, kernel, nth, delta=1e-8):
    """Wrap ``kernel`` so that on its ``nth`` call it scales the squared
    norm of the amplitudes it returns by 1 + delta. Returns the list of the
    wrapper's calls."""
    calls = []
    original = getattr(_flat, kernel)

    def skewed(*args):
        out = original(*args)
        calls.append(kernel)
        if len(calls) == nth:
            out *= math.sqrt(1 + delta)
        return out

    monkeypatch.setattr(_flat, kernel, skewed)
    return calls


class TestStackNormCheck:
    """A state that drifts in any kernel ends the readout of its phase; one
    drifting branch of a sweep's stack ends the sweep."""

    @pytest.mark.parametrize("kernel", ["_apply_monomial", "_apply_pattern",
                                        "_apply_dense"])
    def test_exact_distributions_raise(self, monkeypatch, kernel):
        # only pulse-literal phase gates and kicks have no entry 1, so only
        # they take the pattern pass
        mode = qpe.GateMode.PULSE_LITERAL if kernel == "_apply_pattern" else qpe.GateMode.IDEAL
        calls = skew_output(monkeypatch, kernel, nth=3)
        with pytest.raises(NumericalInvariantError, match="state norm drifted"):
            for phi in (0.3, 1.1, 2.9, 4.0, 5.5):
                qpe.exact_distribution(8, phi, mode)
        assert len(calls) == 3

    def test_sweep_exits_2(self, monkeypatch, capsys):
        # a sweep's stack is its tree's: the chances of row 3, m = 6's row 3,
        # drift by 1e-9 at molecule 4, and the check of each row's sum names
        # it once m = 6 is complete
        calls = skew_branch(monkeypatch, nth=4, scale=1 + 1e-9, row=3)
        code = cli.main(["sweep", "--m-values", "6,8", "--n", "3",
                         "--random-phases", "5", "--seed", "4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        found = re.search(r"probabilities sum to (\S+) in row 3 of the stack$",
                          captured.err)
        assert found and float(found[1]) == pytest.approx(1 + 1e-9, abs=1e-13)
        assert len(calls) == 6


def skew_branch(monkeypatch, nth, scale, row=slice(None), branch=slice(None)):
    """Wrap ``qpe._branch_probabilities`` so that on its ``nth`` call (on
    every call for ``nth=None``) it scales p0 and p1 of ``branch`` of
    ``row`` (by default of every branch of every row) by ``scale``: a
    drift that only the check of each row's sum sees, since the chances
    are not checked per branch. Returns the list of its calls."""
    calls = []
    original = qpe._branch_probabilities

    def skewed(*args):
        probs = original(*args)
        calls.append(len(calls) + 1)
        if nth in (None, len(calls)):
            probs[row, :, branch] *= scale
        return probs

    monkeypatch.setattr(qpe, "_branch_probabilities", skewed)
    return calls


def drift_factors(monkeypatch, level, scale):
    """Clear the cache of ``qpe._branch_factors`` and wrap it so that level
    ``level``'s branch factors g come out scaled by ``scale``, to the tree
    and to the build of level ``level + 1`` alike, whose check of |g|^2
    then fails."""
    factors = qpe._branch_factors
    factors.cache_clear()

    def drifting(r, mode):
        gr, gi = factors(r, mode)
        return (gr * scale, gi * scale) if r == level else (gr, gi)

    monkeypatch.setattr(qpe, "_branch_factors", drifting)


class TestRowDiagonals:
    """Each row of a stack of diagonals, as the tree keeps its kicks, made a
    gate diag(row) on the test side, gives a state the contraction's values
    through the kernel it dispatches to. The tree's judge of such a stack
    is tested beside the tree, in test_qpe.py."""

    @pytest.mark.parametrize("factors", [1, 2, 3, 6, 11, 13, 14])
    def test_rows_match_apply_1q(self, monkeypatch, factors):
        calls = record_kernels(monkeypatch)
        rng = np.random.default_rng(540 + factors)
        for count in (1, 5, 12):
            rows = random_stack(factors, rng, count)
            # exact zeros of both signs, whose signs only a kernel that
            # leaves a slab untouched keeps; normalised by a float division,
            # which keeps them too
            rows.imag[:, ::4] = 0.0
            rows.imag[:, 1::4] = -0.0
            norms = np.sqrt((np.abs(rows) ** 2).sum(axis=-1))
            rows.view(np.float64).reshape(count, -1)[:] /= norms[:, None]
            assert np.signbit(rows.imag[:, 1::4]).all()
            with_ones = np.exp(1j * rng.uniform(0, 2 * math.pi, (count, 2)))
            # exact 1s, whose slabs the slab kernel leaves untouched: in one
            # entry of every row, and in all of rows 1 and 3
            with_ones[:, 0] = 1
            with_ones[1:4:2] = 1
            # no 1 in any row: each takes the pattern pass where its axis
            # leaves runs shorter than SPLIT_BLOCK
            without_ones = np.exp(1j * rng.uniform(0, 2 * math.pi, (count, 2)))
            for entries in (with_ones, without_ones):
                for amps, d in zip(rows, entries):
                    gate = np.diag(d)
                    state = sv.QuantumState(amps)
                    for axis in range(factors):
                        calls.clear()
                        got = sv._apply(state.copy(), [axis], gate).amplitudes
                        kernel = TestKernelDispatch.expected(factors, [axis], gate)
                        assert calls == [kernel], (count, axis, d)
                        assert np.array_equal(got, tensordot_apply(state, [axis], gate))
                        if kernel == "_apply_monomial":
                            for b in np.flatnonzero(d == 1):
                                slab = (2 ** axis, 2, -1)
                                assert (got.reshape(slab)[:, b].tobytes()
                                        == amps.reshape(slab)[:, b].tobytes())

    def test_shape_is_checked(self):
        # a stack of gates is no gate: apply_1q takes one 2x2, as the tree's
        # rows come out of the stack
        state = random_state(4, np.random.default_rng(531))
        gates = np.tile(np.eye(2, dtype=np.complex128), (4, 1, 1))
        with pytest.raises(DimensionError, match=r"expected 2x2 gate, got shape \(4, 2, 2\)"):
            sv.apply_1q(state, 1, gates)
        with pytest.raises(DimensionError, match=r"expected 2x2 gate, got shape \(1, 2, 2\)"):
            sv.apply_1q(state, 1, gates[:1])
        before = state.amplitudes.tobytes()
        assert sv.apply_1q(state, 1, gates[0]).amplitudes.tobytes() == before


class TestNormCheckOfAStack:
    """A single state's norm check names its norm alone. The tree's check
    of a stack, which names the first row that drifted, is tested beside the
    tree, in test_qpe.py."""

    @pytest.mark.parametrize("delta", [1e-8, -1e-8])
    def test_single_state_message(self, delta):
        state = random_state(10, np.random.default_rng(551))
        state.amplitudes *= math.sqrt(1 + delta)
        with pytest.raises(NumericalInvariantError,
                           match=r"^state norm drifted to \S+$") as err:
            sv._check_norm(state)
        reported = float(re.search(r" to (\S+)", str(err.value))[1])
        assert reported == pytest.approx(math.sqrt(1 + delta), abs=1e-15)


# pulse-literal phases whose kicks stay unitary up to m = 16 (test_qpe.py's)
UNITARY_KICK_PHASES = (0.5, 2.0, 2.7, 5.5)


class TestReadoutBits:
    """The statevector's readout keeps the bits it had when
    ``exact_distribution`` still ran through a one-row stack of the
    state."""

    def test_exact_distribution_keeps_its_bits(self):
        # sha256 of exact_distribution at 3 random phases for each m = 1..16
        # in both modes, the 4 phases above for pulse-literal m >= 14. Here
        # and not in test_qpe.py, which CI also runs with numpy's AVX2 loops
        # off, where the statevector's bits move
        digest = hashlib.sha256()
        rng = np.random.default_rng(96)
        for mode in qpe.GateMode:
            for m in range(1, 17):
                phis = [float(p) for p in rng.uniform(0.01, 2 * math.pi, 3)]
                if mode == qpe.GateMode.PULSE_LITERAL and m >= 14:
                    phis = list(UNITARY_KICK_PHASES)
                for phi in phis:
                    digest.update(qpe.exact_distribution(m, phi, mode).tobytes())
        assert digest.hexdigest() == EXACT_DIGEST


EXACT_DIGEST = "56c39727c4b3cfce0f879a1225402dcd44d188f191e3ba0de1d1e292e7a98e60"
