import itertools
import math
import tracemalloc

import numpy as np
import pytest

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
            stack = sv.QuantumState(np.zeros((3, 2 ** m), dtype=complex))
            assert stack.num_qubits == m

    def test_normalized(self):
        assert sv.new_state(3).norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(3,), (1,), (0,), (6,), (2, 12), ()])
    def test_length_must_be_a_power_of_two(self, shape):
        # the qubit count, and every kernel's view, come from the last axis
        with pytest.raises(DimensionError, match="power of two"):
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
        out = sv.apply_qubit_cavity(state, 1, cavity_pulse_unitary(PulseSpec(0, 0.3)))
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
                got = sv.apply_qubit_cavity(state, q, gate).amplitudes
                assert np.array_equal(got, tensordot_apply(state, [q - 1, m], gate)), q
                assert got.tobytes() == sv.apply_2q(state, q, m + 1, gate).amplitudes.tobytes()


class TestProbabilities:
    def test_basis_state(self):
        assert np.allclose(sv.probabilities(sv.new_state(1)), [1, 0])

    def test_born_rule(self):
        state = sv.QuantumState(np.array([-1, 1], dtype=complex) / math.sqrt(2))
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
        rng = np.random.default_rng(12)
        backing = rng.normal(size=2 ** 13) + 1j * rng.normal(size=2 ** 13)
        backing[::2] /= np.linalg.norm(backing[::2])
        state = sv.QuantumState(backing[::2])
        with pytest.raises(ValueError):
            state.amplitudes.view(np.float64)
        assert abs(state.norm() - 1.0) <= 1e-15
        contiguous = sv.QuantumState(state.amplitudes.copy())
        for axes, gate in (([0], np.diag([1, 1j])), ([10], np.diag([1, 1j])),
                           ([11], np.diag([1, 1j])),
                           ([3, 9], CNOT), ([5], H)):
            assert np.array_equal(sv._apply(state, axes, gate).amplitudes,
                                  sv._apply(contiguous, axes, gate).amplitudes)

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
        stepped = sv.apply_1q(sv.apply_1q(state, q, u), q, v)
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
                got = sv._apply(state, [axis], gate).amplitudes
                assert np.array_equal(got, tensordot_apply(state, [axis], gate)), (
                    name, axis)
        paired = range(factors) if factors <= 12 else range(factors - 6, factors)
        for name, gate in two.items():
            for axes in itertools.permutations(paired, 2):
                expected = tensordot_apply(state, list(axes), gate)
                got = sv._apply(state, list(axes), gate).amplitudes
                assert np.array_equal(got, expected), (name, axes)
                if cavity and axes[1] == factors - 1:
                    got = sv.apply_qubit_cavity(state, axes[0] + 1, gate).amplitudes
                    assert np.array_equal(got, expected), (name, axes)

    def test_input_state_untouched(self):
        rng = np.random.default_rng(9)
        state = random_state(6, rng)
        before = state.amplitudes.copy()
        sv.apply_2q(state, 2, 5, CNOT)
        sv.apply_1q(state, 4, np.diag([1, 1j]))
        assert np.array_equal(state.amplitudes, before)

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
                    got = sv._apply(state, axes, gate).amplitudes
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
    random phases and once with every other entry exactly 1."""
    gates = {}
    for perm in ([1, 2, 0, 3], [0, 3, 1, 2], [1, 2, 3, 0], [2, 3, 1, 0], [1, 0, 3, 2]):
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
        for name, d in (("phased", phases), ("half ones", np.where([1, 0, 1, 0], 1, phases))):
            gate = np.zeros((4, 4), dtype=complex)
            gate[np.arange(4), perm] = d
            gates[f"{name} {perm}"] = gate
    return gates


def structured_gates(rng):
    """One- and two-qubit gates with one nonzero per row, for the structured
    kernels: moves only (X, CNOT), diagonals with one entry and with every
    entry other than 1, and 4x4 monomials with a 3-cycle and with 4-cycles."""
    theta = rng.uniform(0, 2 * math.pi)
    one = {"flip": X, "ideal phase": np.diag([1, np.exp(1j * theta)]),
           "pulse phase": np.diag([-np.exp(-1j * theta), np.exp(1j * theta)])}
    monomials = monomial_gates(rng)
    two = {"cnot": CNOT, "controlled phase": np.diag([1, 1, 1, np.exp(1j * theta)]),
           "random diagonal": np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 4)))}
    for name in ("phased [1, 2, 0, 3]", "phased [1, 2, 3, 0]", "half ones [2, 3, 1, 0]"):
        two[name] = monomials[name]
    return one, two


class TestInPlace:
    """With ``in_place`` the structured kernels overwrite the state they are
    given, and must still equal the contraction bit for bit; the default
    leaves the caller's amplitudes as they were."""

    @staticmethod
    def check(state, axes, gate):
        work = sv.QuantumState(state.amplitudes.copy())
        got = sv._apply(work, axes, gate, in_place=True).amplitudes
        assert np.array_equal(got, tensordot_apply(state, axes, gate)), axes
        dense = TestKernelDispatch.expected(state.num_qubits, axes, gate) == "_apply_dense"
        assert np.shares_memory(got, work.amplitudes) is not dense, axes

    @pytest.mark.parametrize(
        "factors, cavity",
        [(f, c) for f in range(1, 13) for c in (False, True) if f > c],
    )
    def test_matches_tensordot_bit_for_bit(self, factors, cavity):
        # with ``cavity`` the last factor is the cavity, and each two-qubit
        # gate onto it goes through apply_qubit_cavity as well, which never
        # overwrites the state it is given
        rng = np.random.default_rng(300 + 2 * factors + cavity)
        amps = rng.normal(size=2 ** factors) + 1j * rng.normal(size=2 ** factors)
        state = sv.QuantumState(amps / np.linalg.norm(amps))
        before = state.amplitudes.tobytes()
        one, two = TestStructuredKernel.gates(rng)
        two.update(monomial_gates(rng))
        for gate in one.values():
            for axis in range(factors):
                self.check(state, [axis], gate)
        for gate in two.values():
            for axes in itertools.permutations(range(factors), 2):
                self.check(state, list(axes), gate)
                if cavity and axes[1] == factors - 1:
                    got = sv.apply_qubit_cavity(state, axes[0] + 1, gate).amplitudes
                    assert np.array_equal(got, tensordot_apply(state, list(axes), gate))
        assert state.amplitudes.tobytes() == before

    @pytest.mark.parametrize("factors", [13, 14, 15])
    def test_blocks_of_large_slabs(self, factors):
        # slabs of more than SPLIT_BLOCK amplitudes are cut into blocks: of
        # runs multiplied in place where runs reach SPLIT_BLOCK, else of
        # gathered runs; every axis and ordered pair
        rng = np.random.default_rng(400 + factors)
        state = random_state(factors, rng)
        one, two = structured_gates(rng)
        for gate in one.values():
            for axis in range(factors):
                self.check(state, [axis], gate)
        for gate in two.values():
            for axes in itertools.permutations(range(factors), 2):
                self.check(state, list(axes), gate)

    def test_no_state_sized_temporary(self):
        # a structured kernel holds at most three blocks of SPLIT_BLOCK
        # amplitudes (192 KiB), which is more than 1/8 of a 16-qubit state,
        # so the bound is checked on 17 qubits: the ideal and pulse-literal
        # diagonals on every axis, CNOTs whose blocks are runs, 1-D and 2-D
        # arrays of gathered runs, and both kinds of stacked kick
        state = random_state(17, np.random.default_rng(18))
        limit = state.amplitudes.nbytes / 8
        cases = [([axis], qpe._phase_gate(0.7, mode))
                 for axis in range(17) for mode in qpe.GateMode]
        cases += [(list(axes), CNOT) for axes in [(0, 1), (1, 0), (3, 9), (15, 16), (16, 2)]]
        for axes, gate in cases:
            tracemalloc.start()
            state = sv._apply(state, axes, gate, in_place=True)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < limit, (axes, peak)
        stack = sv.QuantumState(state.amplitudes[None])
        for mode in qpe.GateMode:
            for qubit in (1, 9, 17):
                entries = qpe._phase_diagonals([0.7], mode, [2])[0]
                tracemalloc.start()
                stack = sv.apply_1q_diagonals(stack, qubit, entries, in_place=True)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < limit, (mode, qubit, peak)

    def test_default_leaves_input_bytes(self):
        rng = np.random.default_rng(16)
        one, two = TestStructuredKernel.gates(rng)
        two.update(monomial_gates(rng))
        for m in (3, 8, 14):
            state = random_state(m, rng)
            before = state.amplitudes.tobytes()
            for gate in one.values():
                for q in range(1, m + 1):
                    sv.apply_1q(state, q, gate)
            for gate in two.values():
                for pair in [(1, 2), (m, 1), (m - 1, m), (2, m)]:
                    sv.apply_2q(state, *pair, gate)
            assert state.amplitudes.tobytes() == before

    @pytest.mark.parametrize("mode", list(qpe.GateMode))
    @pytest.mark.parametrize("m", [3, 12, 14])
    def test_protocol_leaves_input_bytes(self, m, mode):
        state = random_state(m, np.random.default_rng(m))
        before = state.amplitudes.tobytes()
        qpe.apply_phase_kicks(state, 2.0, m, mode)
        qpe.inverse_qft(state, m, mode)
        assert state.amplitudes.tobytes() == before

    def test_unowned_buffers_are_copied(self):
        # a read-only or strided array cannot be overwritten in place, so
        # in_place falls back to one copy and the input stays as it was
        amps = random_state(8, np.random.default_rng(17)).amplitudes
        read_only = amps.copy()
        read_only.flags.writeable = False
        strided = np.repeat(amps, 2)[::2]
        for buf in (read_only, strided):
            state = sv.QuantumState(buf)
            before = buf.tobytes()
            got = sv.apply_1q(state, 3, np.diag([1, 1j]), in_place=True)
            assert np.array_equal(got.amplitudes,
                                  tensordot_apply(state, [2], np.diag([1, 1j])))
            got = sv.apply_2q(state, 2, 8, CNOT, in_place=True)
            assert np.array_equal(got.amplitudes, tensordot_apply(state, [1, 7], CNOT))
            assert buf.tobytes() == before

    def test_in_place_is_keyword_only(self):
        # the gate stays the last positional argument of every gate call
        state = sv.new_state(3)
        with pytest.raises(TypeError):
            sv.apply_1q(state, 1, X, True)
        with pytest.raises(TypeError):
            sv.apply_2q(state, 1, 2, CNOT, True)


class TestGatePlanMemo:
    """The unitarity verdict and kernel plan are memoised on the gate's
    bytes: a gate edited in place is judged again, a rejected gate stays
    rejected, and the memo stays bounded."""

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
        # 330 ordered pairs on 2-10 qubits: more axis sets than the bound
        for m in range(2, 11):
            state = sv.new_state(m)
            for pair in itertools.permutations(range(1, m + 1), 2):
                state = sv.apply_2q(state, *pair, CNOT)
        info = sv._layout.cache_info()
        assert info.currsize <= info.maxsize == sv.PLAN_CACHE


def record_kernels(monkeypatch, scale=1.0):
    """Wrap each gate kernel so that it records its name on every call and
    scales the first half of its output by ``scale``; returns the record."""
    calls = []

    def wrap(kernel):
        def recorded(*args):
            out = kernel(*args)
            out.reshape(2, -1)[0] *= scale
            calls.append(kernel.__name__)
            return out
        return recorded

    for module, name in ((_flat, "_apply_monomial"), (_flat, "_apply_pattern"),
                         (sv, "_apply_dense")):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return calls


class TestKernelDispatch:
    """Each gate call runs the kernel that ``_apply``'s docstring names: the
    contraction when fewer than two other factors are left or the gate has
    more than one nonzero in a row; the pattern pass for a diagonal
    one-qubit gate neither of whose entries is 1, on an axis that leaves
    runs shorter than SPLIT_BLOCK; the slab kernel on flat runs otherwise."""

    @staticmethod
    def expected(factors, axes, gate):
        gate = np.asarray(gate)
        if factors - len(axes) < 2 or np.any(np.count_nonzero(gate, axis=1) != 1):
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


def stack_of(factors, rng, count=5):
    rows = [random_state(factors, rng).amplitudes for _ in range(count)]
    return sv.QuantumState(np.stack(rows))


class TestStack:
    """A ``(P, dim)`` stack runs the kernel a single state of its shape
    runs, once over all rows, a dense gate in one BLAS call where each row
    leaves two other factors; each row must come out with the bytes its
    state alone gets."""

    @pytest.mark.parametrize("factors", range(1, 16))
    def test_rows_match_single_states(self, monkeypatch, factors):
        # every axis and ordered pair, 3 rows
        calls = record_kernels(monkeypatch)
        rng = np.random.default_rng(500 + factors)
        stack = stack_of(factors, rng, count=3)
        one, two = structured_gates(rng)
        one["hadamard"], two["dense"] = H, random_unitary(4, rng)
        cases = [([axis], gate) for gate in one.values() for axis in range(factors)]
        cases += [(list(axes), gate) for gate in two.values()
                  for axes in itertools.permutations(range(factors), 2)]
        seen = set()
        for axes, gate in cases:
            calls.clear()
            got = sv._apply(stack, axes, gate).amplitudes
            kernel = TestKernelDispatch.expected(factors, axes, gate)
            assert calls == [kernel], (axes, calls)
            seen.add(kernel)
            assert got.shape == stack.amplitudes.shape
            for row, amps in zip(got, stack.amplitudes):
                alone = sv._apply(sv.QuantumState(amps), axes, gate)
                assert row.tobytes() == alone.amplitudes.tobytes(), (axes, kernel)
        # the dense fallback at 1 and 2 factors; from 3 on the pattern pass
        # and the slab kernel as well
        assert seen == ({"_apply_dense"} if factors <= 2 else
                        {"_apply_dense", "_apply_pattern", "_apply_monomial"})

    def test_in_place_overwrites_the_stack(self):
        stack = stack_of(6, np.random.default_rng(520))
        before = stack.amplitudes.copy()
        got = sv.apply_1q(stack, 3, np.diag([1, 1j]), in_place=True)
        assert np.shares_memory(got.amplitudes, stack.amplitudes)
        assert not np.array_equal(stack.amplitudes, before)

    def test_probabilities_per_row(self):
        stack = stack_of(5, np.random.default_rng(521), count=3)
        probs = sv.register_probabilities(stack, 5)
        assert probs.shape == (3, 32)
        for row, amps in zip(probs, stack.amplitudes):
            alone = sv.register_probabilities(sv.QuantumState(amps), 5)
            assert row.tobytes() == alone.tobytes()

    @pytest.mark.parametrize(
        "gate, message",
        [(np.diag([1, 2]), r"gate is not unitary \(deviation 3\.000e\+00\)"),
         (np.array([[0, 2], [1, 0]]), r"gate is not unitary \(deviation 3\.000e\+00\)")],
    )
    def test_non_unitary_gate_rejected(self, gate, message):
        stack = stack_of(8, np.random.default_rng(522))
        with pytest.raises(ValidationError, match=message):
            sv.apply_1q(stack, 1, gate)


def skew_two_rows(monkeypatch, kernel, nth, delta=1e-8):
    """Wrap ``kernel`` so that on its ``nth`` call on a stack (a kernel
    returns a single state's amplitudes as a 1-D array) it scales the
    squared norm of row 0 by 1 + delta and of row 1 by 1 - delta: the
    stack's total norm stays put, so only a check of every row sees it.
    Returns the list of the wrapper's stack calls."""
    calls = []
    module = _flat if hasattr(_flat, kernel) else sv
    original = getattr(module, kernel)

    def skewed(*args):
        out = original(*args)
        if out.ndim == 2:
            calls.append(kernel)
            if len(calls) == nth:
                rows = out.reshape(out.shape[0], -1)
                rows[0] *= math.sqrt(1 + delta)
                rows[1] *= math.sqrt(1 - delta)
        return out

    monkeypatch.setattr(module, kernel, skewed)
    return calls


class TestStackNormCheck:
    """One drifting row of a stack ends the run, though the other rows
    keep the stack's total norm."""

    @pytest.mark.parametrize("kernel", ["_apply_monomial", "_apply_pattern",
                                        "_apply_dense"])
    def test_exact_distributions_raise(self, monkeypatch, kernel):
        # only pulse-literal phase gates and kicks have no entry 1, so only
        # they take the pattern pass
        mode = qpe.GateMode.PULSE_LITERAL if kernel == "_apply_pattern" else qpe.GateMode.IDEAL
        calls = skew_two_rows(monkeypatch, kernel, nth=3)
        with pytest.raises(NumericalInvariantError, match="state norm drifted"):
            qpe.exact_distributions(8, [0.3, 1.1, 2.9, 4.0, 5.5], mode)
        assert len(calls) == 3

    def test_sweep_exits_2(self, monkeypatch, capsys):
        calls = skew_two_rows(monkeypatch, "_apply_monomial", nth=40)
        code = cli.main(["sweep", "--m-values", "6,8", "--n", "3",
                         "--random-phases", "5", "--seed", "4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "state norm drifted" in captured.err
        assert len(calls) == 40


# a fixed table of kick phases; with powers 2^0 to 2^19 it makes pulse-literal
# kick gates on both sides of UNITARY_TOL
KICK_PHASES = (0.3, 1.0, 2.0, math.pi, 4.2, 5.9, 2 * math.pi, 1e-3)


class TestRowDiagonals:
    """``apply_1q_diagonals`` gives row p of a stack the verdict and the
    bytes that ``apply_1q`` gives that row alone with ``diag(entries[p])``."""

    @pytest.mark.parametrize("mode", list(qpe.GateMode))
    def test_deviation_matches_gate_plan(self, mode):
        diagonals = qpe._phase_diagonals(KICK_PHASES, mode, [2 ** k for k in range(20)])
        gates = [np.diag(d) for d in diagonals.reshape(-1, 2)]
        if mode == qpe.GateMode.IDEAL:
            gates.append(qpe._phase_gate(math.nan, mode))
        devs = sv._diagonal_deviations(np.array([g.diagonal() for g in gates]))
        plans = np.array([sv._gate_plan(g.tobytes(), 2).dev for g in gates])
        assert devs.tobytes() == plans.tobytes()
        failing = np.count_nonzero(~(plans <= sv.UNITARY_TOL))
        assert failing == (28 if mode == qpe.GateMode.PULSE_LITERAL else 1)

    @pytest.mark.parametrize("phi, power, mode", [
        (0.3, 2 ** 14, qpe.GateMode.PULSE_LITERAL),
        (4.2, 2 ** 19, qpe.GateMode.PULSE_LITERAL),
        (math.nan, 1, qpe.GateMode.IDEAL)])
    def test_failing_row_fails_as_apply_1q(self, phi, power, mode):
        gate = np.diag(qpe._phase_diagonals([phi], mode, [power])[0, 0])
        fine = qpe._phase_gate(1.0, mode).diagonal()
        stack = stack_of(6, np.random.default_rng(530))
        entries = [fine, fine, gate.diagonal(), fine, fine]
        with pytest.raises(ValidationError, match="gate is not unitary") as stacked:
            sv.apply_1q_diagonals(stack, 2, entries)
        with pytest.raises(ValidationError) as alone:
            sv.apply_1q(sv.QuantumState(stack.amplitudes[2]), 2, gate)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("factors", [1, 2, 3, 6, 11, 13, 14])
    def test_rows_match_apply_1q(self, monkeypatch, factors):
        kernels = []
        for module, name in ((_flat, "_apply_pattern"), (_flat, "_apply_row_diagonals"),
                             (sv, "_contract")):
            def recorded(*args, _kernel=getattr(module, name), _name=name):
                kernels.append(_name)
                return _kernel(*args)
            monkeypatch.setattr(module, name, recorded)
        rng = np.random.default_rng(540 + factors)
        stack = stack_of(factors, rng)
        # exact zeros of both signs, whose signs only a kernel that leaves a
        # slab untouched keeps
        stack.amplitudes.imag[:, ::4] = 0.0
        stack.amplitudes.imag[:, 1::4] = -0.0
        stack.amplitudes /= np.sqrt(sv._squared_norms(stack.amplitudes))[:, None]
        with_ones = np.exp(1j * rng.uniform(0, 2 * math.pi, (5, 2)))
        # exact 1s, which a single state's slab kernel leaves untouched: in
        # one row, in one entry of every row, and in all of a row
        with_ones[1, 1] = with_ones[:, 0] = 1
        with_ones[3] = 1
        # no 1 in any row: each row takes the pattern pass where its axis
        # leaves runs shorter than SPLIT_BLOCK
        without_ones = np.exp(1j * rng.uniform(0, 2 * math.pi, (5, 2)))
        for entries, axis, in_place in itertools.product(
                (with_ones, without_ones), range(factors), (False, True)):
            kernels.clear()
            amps = stack.amplitudes.copy()
            got = sv.apply_1q_diagonals(sv.QuantumState(amps),
                                        axis + 1, entries, in_place=in_place)
            assert np.shares_memory(got.amplitudes, amps) == (
                in_place and kernels[0] != "_contract")
            for row, before, d in zip(got.amplitudes, stack.amplitudes, entries):
                alone = sv.apply_1q(sv.QuantumState(before),
                                    axis + 1, np.diag(d))
                assert row.tobytes() == alone.amplitudes.tobytes(), (axis, d)
            expected = [TestKernelDispatch.expected(factors, [axis], np.diag(d))
                        for d in entries]
            assert kernels[0] == ("_contract" if expected[0] == "_apply_dense"
                                  else "_apply_row_diagonals")
            assert ("_apply_pattern" in kernels) == (
                set(expected) == {"_apply_pattern"})

    def test_shape_is_checked(self):
        stack = stack_of(4, np.random.default_rng(531))
        with pytest.raises(DimensionError):
            sv.apply_1q_diagonals(stack, 1, np.ones((4, 2)))
        with pytest.raises(DimensionError):
            sv.apply_1q_diagonals(sv.QuantumState(stack.amplitudes[0]), 1,
                                  np.ones((1, 2)))

    def test_drifting_row_stops_the_call(self, monkeypatch):
        calls = skew_two_rows(monkeypatch, "_apply_pattern", nth=1)
        stack = stack_of(8, np.random.default_rng(532))
        with pytest.raises(NumericalInvariantError, match="in row 0 of the stack"):
            sv.apply_1q_diagonals(stack, 2, np.exp(1j * np.ones((5, 2))))
        assert calls == ["_apply_pattern"]


class TestNormCheckOfAStack:
    """All rows of a stack are checked in one pass, each on its own; the
    message names the norm of the first row that drifted, and its row."""

    @staticmethod
    def stack():
        return stack_of(10, np.random.default_rng(550), count=12)

    @staticmethod
    def reported(error) -> float:
        return float(str(error.value).split()[4])

    def test_unit_rows_pass(self):
        stack = self.stack()
        assert sv._check_norm(stack) is stack

    @pytest.mark.parametrize("row", [0, 6, 11])
    def test_nan_amplitude_names_its_row(self, row):
        stack = self.stack()
        stack.amplitudes[row, 77] = math.nan
        with pytest.raises(NumericalInvariantError,
                           match=rf"^state norm drifted to nan in row {row} of the stack$"):
            sv._check_norm(stack)

    @pytest.mark.parametrize("delta", [1e-8, -1e-8])
    def test_skew_of_the_last_row(self, delta):
        stack = self.stack()
        stack.amplitudes[11] *= math.sqrt(1 + delta)
        with pytest.raises(NumericalInvariantError,
                           match=r"^state norm drifted to \S+ in row 11 of the stack$") as err:
            sv._check_norm(stack)
        assert self.reported(err) == pytest.approx(math.sqrt(1 + delta), abs=1e-15)

    @pytest.mark.parametrize("delta", [1e-8, -1e-8])
    def test_single_state_message(self, delta):
        state = random_state(10, np.random.default_rng(551))
        state.amplitudes *= math.sqrt(1 + delta)
        with pytest.raises(NumericalInvariantError,
                           match=r"^state norm drifted to \S+$") as err:
            sv._check_norm(state)
        assert self.reported(err) == pytest.approx(math.sqrt(1 + delta), abs=1e-15)
