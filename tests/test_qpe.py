import hashlib
import importlib.util
import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dotphase import qpe
from dotphase import statevector as sv
from dotphase.errors import (
    BoundUndefinedError,
    CapacityError,
    DimensionError,
    DomainError,
    NumericalInvariantError,
    ValidationError,
)
from dotphase.pulses import phase_gate_pulse_params, single_pulse_unitary
from dotphase.qpe import GateMode
from test_statevector import drift_factors, random_stack, random_state, skew_branch

TWO_PI = 2 * math.pi


def load_reference():
    """``benchmarks/reference.py``, the dotphase-free oracles, loaded from
    its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def eq5_state(m, phi):
    """Independent oracle for the kicked register: amp[k] = e^{i phi k}/2^{m/2}."""
    k = np.arange(2 ** m)
    return np.exp(1j * phi * k) / 2 ** (m / 2)


def bit_reverse(j, m):
    """m-bit reversal of j, one bit at a time: the readout-order reference."""
    out = 0
    for _ in range(m):
        out = (out << 1) | (j & 1)
        j >>= 1
    return out


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

    @pytest.mark.parametrize("m, mode", [
        # the kick defect (see qpe._phase_diagonals): the pulse-literal kick
        # of the seeded phase 1.0067455141626498 at m = 14 has deviation
        # 1.137e-12, so the run stops with "gate is not unitary"
        pytest.param(m, mode, marks=pytest.mark.xfail(raises=ValidationError, strict=True))
        if (m, mode) == (14, GateMode.PULSE_LITERAL) else (m, mode)
        for m in range(1, 15) for mode in GateMode])
    def test_stack_matches_single_phases(self, m, mode):
        # tree_distributions takes the kicks of its stack of phases from
        # one _phase_diagonals call and judges them as one stack
        # (_tree_gates); each phase's entries there are the ones its own
        # kick writes, molecule by molecule, and the kick leaves its input
        # unwritten
        rng = np.random.default_rng(70 + m)
        phis = [float(p) for p in TWO_PI - rng.uniform(0.0, TWO_PI, 12)]
        prepared = qpe.prepare_register(m, mode)
        before = prepared.amplitudes.tobytes()
        stacked = qpe._phase_diagonals(phis, mode, qpe._kick_powers(m))
        assert stacked.shape == (m, 12, 2)
        qpe._tree_gates(m, phis, mode, mode)
        for phi, entries in zip(phis, stacked.transpose(1, 0, 2)):
            want = prepared
            for j, d in enumerate(entries, start=1):
                want = sv.apply_1q(want, j, np.diag(d))
            kicked = qpe.apply_phase_kicks(prepared, phi, m, mode).amplitudes
            assert kicked.tobytes() == want.amplitudes.tobytes(), phi
            assert prepared.amplitudes.tobytes() == before


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

    def test_five_gate_calls(self, monkeypatch):
        # P(-theta) on j, CNOT(j -> k), P(theta) on k, CNOT(j -> k) and
        # P(-theta) on k, each written in place
        calls = []

        def recorder(apply):
            def recorded(state, *args, **kwargs):
                calls.append((args[:-1], args[-1].tobytes(), kwargs))
                return apply(state, *args, **kwargs)
            return recorded

        monkeypatch.setattr(sv, "apply_1q", recorder(sv.apply_1q))
        monkeypatch.setattr(sv, "apply_2q", recorder(sv.apply_2q))
        cnot = qpe.CNOT.tobytes()
        for mode in GateMode:
            calls.clear()
            qpe._apply_sequence(sv.new_state(6), 2, 5, 0.3, mode)
            minus, plus = (qpe._phase_gate(t, mode).tobytes() for t in (-0.3, 0.3))
            assert calls == [(qubits, gate, {"in_place": True}) for qubits, gate in [
                ((2,), minus), ((2, 5), cnot), ((5,), plus), ((2, 5), cnot), ((5,), minus)]]

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValidationError, match="^theta must be finite$"):
            qpe.sequence_unitary(theta)


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
            rev[j, bit_reverse(j, m)] = 1.0
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
        # the pulse-literal kicks of P phases (the tree's) build P pulse
        # unitaries for all m molecules, and a single state's one
        built = []

        def counted(spec):
            built.append(spec)
            return single_pulse_unitary(spec)

        monkeypatch.setattr(qpe, "single_pulse_unitary", counted)
        m, phis = 6, np.random.default_rng(92).uniform(0.0, TWO_PI, 5).tolist()
        qpe._phase_diagonals(phis, GateMode.PULSE_LITERAL, qpe._kick_powers(m))
        assert len(built) == len(phis)
        built.clear()
        qpe.apply_phase_kicks(sv.new_state(m), phis[0], m, GateMode.PULSE_LITERAL)
        assert len(built) == 1


class TestReadoutOrder:
    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_reorder_matches_bit_reverse_loop(self, m):
        phi = 1.234
        state = qpe.run_final_state(m, phi)
        register = sv.probabilities(state)
        loop = np.array([register[bit_reverse(j, m)] for j in range(2 ** m)])
        assert np.array_equal(qpe.exact_distribution(m, phi), loop)


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

    def test_estimates_keep_their_bits(self):
        # the one estimate rule gives the binary fraction's bits, as floats
        for bits, phi in (((1, 0, 1), TWO_PI * 0.625), ((0, 0, 0), 1.0)):
            estimate = qpe.estimate_from_bits(bits, phi)
            frac = sum(b / 2 ** (i + 1) for i, b in enumerate(reversed(bits)))
            assert type(estimate.estimated_phase) is type(estimate.eta_percent) is float
            assert estimate.estimated_phase.hex() == (TWO_PI * frac).hex()
            assert estimate.eta_percent.hex() == (TWO_PI * frac / phi * 100.0).hex()

    @pytest.mark.parametrize("phi", [1e-309, 0.0])
    def test_eta_without_finite_value(self, phi):
        with pytest.raises(DomainError, match="eta_percent"):
            qpe.estimate_from_bits((1,), phi)

    def test_reads_molecules_1_to_m_only(self):
        # the target molecule m + 1 is measured too, but is no readout bit
        m, phi = 4, TWO_PI * 5 / 16
        state = qpe.run_final_state(m, phi, include_target=True)
        estimate = qpe.measure_and_estimate(state, m, phi, seed=0)
        assert estimate.bits == (0, 1, 0, 1)
        assert estimate.estimated_phase == phi
        assert estimate.eta_percent == 100.0

    @pytest.mark.parametrize("bits", [(2,), (1, 0, -1), (0, 1, 3)])
    def test_rejects_bits_other_than_0_and_1(self, bits):
        with pytest.raises(ValidationError, match="^register bits must be 0 or 1, got "):
            qpe.estimate_from_bits(bits, 1.0)

    def test_rejects_no_bits(self):
        # no bits would read out as the estimate 0.0
        with pytest.raises(ValidationError, match="^need at least one register bit$"):
            qpe.estimate_from_bits((), 1.0)

    @pytest.mark.parametrize("m, error, message", [
        (0, CapacityError, r"^m must be in \[1, 20\], got 0$"),
        (qpe.MAX_REGISTER + 1, CapacityError, r"^m must be in \[1, 20\], got 21$"),
        (4, DimensionError, r"^register size 4 out of range 1\.\.3$")],
        ids=["none", "past the cap", "past the state"])
    def test_rejects_a_register_the_state_does_not_hold(self, m, error, message):
        # a 3-molecule state: m = 4 would read out 3 bits as a 4-bit estimate
        state = qpe.run_final_state(3, TWO_PI * 5 / 8)
        with pytest.raises(error, match=message):
            qpe.measure_and_estimate(state, m, 1.0, seed=0)


class TestExactDistribution:
    def test_representable(self):
        dist = qpe.exact_distribution(3, TWO_PI * 5 / 8)
        assert dist[5] == pytest.approx(1.0, abs=1e-10)

    def test_near_zero_phase(self):
        dist = qpe.exact_distribution(2, TWO_PI * 1e-12)
        assert dist[0] == pytest.approx(1.0, abs=1e-9)

    def test_matches_monte_carlo(self):
        m, phi = 3, TWO_PI * 0.3
        dist = qpe.exact_distribution(m, phi)
        rng = np.random.default_rng(21)
        samples = rng.choice(2 ** m, size=1_000_000, p=dist / dist.sum())
        empirical = np.bincount(samples, minlength=2 ** m) / 1_000_000
        assert 0.5 * np.abs(empirical - dist).sum() < 0.01

    def test_normalized(self):
        dist = qpe.exact_distribution(5, 1.2345)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert (dist >= -1e-15).all()


@st.composite
def windows(draw):
    """(m, n, phases, seed) for m = 1..16 and n <= m + 2: phases on the grid
    2*pi*j/2^m, an ulp either side of it and halfway between, next to 0 and
    to 2*pi, and anywhere in (0, 2*pi]."""
    m = draw(st.integers(1, 16))
    n = draw(st.integers(0, m + 2))
    size = 2 ** m

    def phase():
        grid = TWO_PI * draw(st.integers(0, size)) / size
        return draw(st.sampled_from([
            grid, math.nextafter(grid, 0.0), math.nextafter(grid, 7.0),
            grid + math.pi / size,
            draw(st.floats(5e-324, 1e-9)),
            draw(st.floats(TWO_PI - 1e-9, TWO_PI)),
            draw(st.floats(5e-324, TWO_PI))]))

    phis = [phase() for _ in range(draw(st.integers(1, 8)))]
    return m, n, phis, draw(st.integers(0, 2 ** 32))


class TestExactDistributions:
    """The distributions of many phases: each phase's row is the bytes of
    every single-state path, and ``sweep_successes`` hands the tree its
    phases in batches, each phase getting the mass it has alone."""

    @pytest.mark.parametrize("mode", list(GateMode))
    @pytest.mark.parametrize("m", range(1, 13))
    def test_rows_match_single_phases(self, m, mode):
        # exact_distribution, readout_distribution and the final state that
        # estimate samples, read out in bit-reversed order, give each phase
        # of a list the same bytes
        rng = np.random.default_rng(40 + m)
        phis = [float(p) for p in TWO_PI - rng.uniform(0.0, TWO_PI, 12)]
        order = [bit_reverse(j, m) for j in range(2 ** m)]
        rows = [qpe.exact_distribution(m, phi, mode) for phi in phis]
        for phi, row in zip(phis, rows):
            assert row.shape == (2 ** m,)
            assert row.tobytes() == qpe.readout_distribution(m, phi, mode).tobytes()
            register = sv.probabilities(qpe.run_final_state(m, phi, mode))
            assert row.tobytes() == register[order].tobytes(), phi

    @pytest.mark.parametrize("mode", list(GateMode))
    def test_phases_beyond_one_batch(self, mode):
        # more phases than one tree call takes: each mass is its own
        # statevector distribution's to within rounding
        m, n = 12, 3
        count = qpe.batch_size(m) + 3
        phis = [float(p) for p in np.random.default_rng(60).uniform(0.1, TWO_PI, count)]
        got = qpe.sweep_successes([m], n, phis, mode)[0]
        assert qpe.batch_size(m) * 2 ** m <= qpe.BATCH_AMPLITUDES < count * 2 ** m
        for phi, mass in zip(phis, got):
            alone = qpe.window_mass(qpe.exact_distribution(m, phi, mode), n, phi)
            assert mass == pytest.approx(alone, abs=1e-12), phi

    def test_no_phases(self):
        assert qpe.sweep_successes([4], 2, [])[0] == []

    @pytest.mark.parametrize("m", [0, qpe.MAX_REGISTER + 1])
    def test_register_cap(self, m, monkeypatch):
        monkeypatch.setattr(qpe, "prepare_register", None)  # no simulation
        with pytest.raises(ValidationError, match="m must be in"):
            qpe.exact_distribution(m, 1.0)

    def test_batch_size(self):
        assert qpe.batch_size(5) * 2 ** 5 == qpe.BATCH_AMPLITUDES
        assert qpe.batch_size(16) == qpe.batch_size(qpe.MAX_REGISTER) == 1

    @pytest.mark.parametrize("mode", list(GateMode))
    def test_sweep_successes_batches_its_phases(self, mode, monkeypatch):
        # the one batching of phases: no call above BATCH_AMPLITUDES, and
        # each phase's mass is the one it has alone
        m, n = 12, 3
        phis = [float(p) for p in
                np.random.default_rng(62).uniform(0.1, TWO_PI, qpe.batch_size(m) + 3)]
        calls = record_trees(monkeypatch)
        got = qpe.sweep_successes([m], n, phis, mode)[0]
        assert [registers for registers, _, _ in calls] == [[m], [m]]
        assert sum(len(batch) for _, batch, _ in calls) == len(phis)
        assert_within_budget(calls)
        monkeypatch.undo()
        for phi, mass in zip(phis, got):
            assert mass == qpe.empirical_success(m, n, phi, mode)

    def test_window_mass_matches_empirical_success(self):
        rng = np.random.default_rng(61)
        phis = [float(p) for p in rng.uniform(0.1, TWO_PI, 7)]
        rows = qpe.tree_distributions(7, phis)
        for n in (0, 2, 4):
            for phi, probs in zip(phis, rows):
                assert qpe.window_mass(probs, n, phi) == qpe.empirical_success(7, n, phi)

    @pytest.mark.parametrize("m", [1, 6, 10])
    def test_window_masses_match_window_mass_bitwise(self, m):
        rng = np.random.default_rng(62)
        # phases past a turn and below zero too, and the representable
        # phases 2*pi*j/2^m, whose outcomes sit on the window's edges
        phis = [float(p) for p in rng.uniform(-TWO_PI, 2 * TWO_PI, 9)]
        phis += [TWO_PI * j / 2 ** m for j in range(min(2 ** m, 7))]
        rows = qpe.tree_distributions(m, phis)
        for n in range(min(m, 4) + 1):
            got = qpe.window_masses(rows, n, phis)
            want = [qpe.window_mass(probs, n, phi) for phi, probs in zip(phis, rows)]
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @given(case=windows())
    @example(case=(2, 2, [TWO_PI * 0.25, TWO_PI * 0.375, TWO_PI], 0))
    @example(case=(2, 1, [TWO_PI * 0.125, math.nextafter(TWO_PI, 0.0)], 1))
    @example(case=(16, 0, [5e-324, TWO_PI * 0.5], 2))
    # whole-circle windows: x an integer, the arc clamped to the circle, and
    # n = 1, the antipode left out
    @example(case=(3, 0, [TWO_PI * 0.25, 1.0], 4))
    @example(case=(3, 1, [TWO_PI * 0.625, TWO_PI * 0.25], 5))
    # windows narrower than the grid: one readout or none
    @example(case=(3, 5, [TWO_PI * 0.25, 1.0, math.nextafter(TWO_PI * 0.25, 0.0)], 6))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_window_arcs_keep_window_mass_bits(self, case):
        # the arcs of window_masses: the same bits as window_mass's mask
        m, n, phis, seed = case
        rows = np.random.default_rng(seed).random((len(phis), 2 ** m))
        want = [qpe.window_mass(probs, n, phi) for phi, probs in zip(phis, rows)]
        got = qpe.window_masses(rows, n, phis)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_window_mass_rejects_a_non_finite_phase(self, phi):
        with pytest.raises(ValidationError, match="phase must be finite"):
            qpe.window_mass(np.full(8, 0.125), 1, phi)

    def test_window_functions_reject_negative_accuracy(self):
        rows = qpe.tree_distributions(4, [1.0, 2.0])
        with pytest.raises(DomainError, match="n >= 0"):
            qpe.window_mass(rows[0], -1, 1.0)
        with pytest.raises(DomainError, match="n >= 0"):
            qpe.window_masses(rows, -1, [1.0, 2.0])


# pulse-literal phases whose kicks stay unitary up to m = 16
UNITARY_KICK_PHASES = (0.5, 2.0, 2.7, 5.5)


def record_qubits(monkeypatch):
    """Wrap ``sv.apply_1q`` so that each call appends its qubit index.
    Returns the list of indices."""
    qubits = []
    apply_1q = sv.apply_1q

    def recorded(state, qubit_index, gate, **kwargs):
        qubits.append(qubit_index)
        return apply_1q(state, qubit_index, gate, **kwargs)

    monkeypatch.setattr(sv, "apply_1q", recorded)
    return qubits


def record_trees(monkeypatch):
    """Wrap ``qpe._shared_tree`` so that each call appends its register
    sizes, its phases and its distributions. Returns the list of calls."""
    calls = []
    shared_tree = qpe._shared_tree

    def recording(registers, phis, mode, kick_mode):
        dists = shared_tree(registers, phis, mode, kick_mode)
        calls.append((list(registers), list(phis), dists))
        return dists

    monkeypatch.setattr(qpe, "_shared_tree", recording)
    return calls


def peak_arrays(call, m):
    """Peak memory of ``call()`` under tracemalloc, in arrays of 2^m floats."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * 2 ** m)
    finally:
        tracemalloc.stop()


def assert_within_budget(calls):
    # no call holds more than BATCH_AMPLITUDES floats of distributions,
    # unless it holds a single phase
    for registers, phis, _ in calls:
        floats = len(phis) * sum(2 ** m for m in registers)
        assert floats <= qpe.BATCH_AMPLITUDES or len(phis) == 1


class TestSharedTree:
    """Every tree call of a sweep grows all its distinct register sizes,
    batch_size(*sizes) phases a call: each register's rows are the bytes its
    tree alone gives, and each mass is the one empirical_success gives its
    phase."""

    @pytest.mark.parametrize("mode", list(GateMode))
    @pytest.mark.parametrize("m_values, groups", [
        ([7, 3, 5], [[3, 5, 7]]),            # unsorted
        ([6, 4, 6, 2, 4], [[2, 4, 6]]),      # repeated
        ([1, 4, 1, 2], [[1, 2, 4]]),         # with m = 1
        ([16, 12], [[12, 16]]),              # one phase a call
        ([12, 5, 12, 16], [[5, 12, 16]]),
        ([5, 12], [[5, 12]]),                # batches of 15, 15 and 10
        ([9, 13, 8], [[8, 9, 13]]),
    ])
    def test_registers_get_their_own_bytes(self, mode, m_values, groups, monkeypatch):
        n = 1
        rng = np.random.default_rng(sum(m_values))
        phis = (list(UNITARY_KICK_PHASES) if max(m_values) > 13
                else [float(p) for p in rng.uniform(0.01, TWO_PI, 40)])
        calls = record_trees(monkeypatch)
        got = qpe.sweep_successes(m_values, n, phis, mode)
        monkeypatch.undo()
        assert_within_budget(calls)
        # one group of all the sizes, in batches of batch_size(*sizes)
        want = []
        for group in groups:
            per = qpe.batch_size(*group)
            want += [(group, phis[i:i + per]) for i in range(0, len(phis), per)]
        assert [(registers, batch) for registers, batch, _ in calls] == want
        for registers, batch, dists in calls:
            for m, rows in zip(registers, dists):
                alone = qpe.tree_distributions(m, batch, mode)
                assert rows.shape == alone.shape and rows.tobytes() == alone.tobytes()
        assert len(got) == len(m_values)
        for m, masses in zip(m_values, got):
            assert masses == [qpe.empirical_success(m, n, phi, mode) for phi in phis]

    @given(data=st.data(),
           m_values=st.lists(st.integers(1, 12), min_size=1, max_size=5),
           mode=st.sampled_from(list(GateMode)))
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    def test_one_rule_for_every_sweep(self, data, m_values, mode):
        """Every call grows all the distinct sizes, batch_size(*sizes)
        phases a call, and each size's rows and masses are those it has
        alone. The sizes are unsorted, repeated and of 1 to 12, and the
        phases up to three batches but at most 200, both caps for suite
        time: only sizes whose 2^m sum past 327 make more than one call."""
        sizes = sorted(set(m_values))
        per = qpe.batch_size(*sizes)
        count = data.draw(st.integers(1, min(3 * per, 200)), label="phases")
        n = data.draw(st.integers(0, sizes[0]), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        phis = [float(p) for p in rng.uniform(0.01, TWO_PI, count)]
        with pytest.MonkeyPatch.context() as patch:
            calls = record_trees(patch)
            got = qpe.sweep_successes(m_values, n, phis, mode)
        assert [(registers, batch) for registers, batch, _ in calls] == [
            (sizes, phis[i:i + per]) for i in range(0, count, per)]
        assert_within_budget(calls)
        for registers, batch, dists in calls:
            for m, rows in zip(registers, dists):
                assert rows.tobytes() == qpe.tree_distributions(m, batch, mode).tobytes()
        for m, masses in zip(m_values, got):
            assert masses == qpe.sweep_successes([m], n, phis, mode)[0]

    @pytest.mark.parametrize("phis, states", [
        # the branch factors of every level are cached by the sweep before,
        # so a call builds none: one call reads 2.3 here, and a copy of the
        # last level's factors would add one array
        ([0.5], 5.5),
        # three calls read no more than one
        ([0.5, 2.0, 2.7], 10),
        ([0.5, 2.0, 2.7], 5.5),
    ])
    def test_peak_memory_of_m16_sweeps(self, phis, states):
        # in arrays of 2^m floats, under tracemalloc, with a warm cache
        m = 16
        qpe.sweep_successes([m], 3, phis)
        assert peak_arrays(lambda: qpe.sweep_successes([m], 3, phis), m) <= states

    @pytest.mark.parametrize("phis", [[0.5], [0.5, 2.0, 2.7]])
    def test_peak_memory_of_m16_sweeps_from_a_cold_cache(self, phis):
        # the first sweep of a process builds and keeps the branch factors
        # of every level, 2^{m+1} floats: they read 4.3 and 5.3 here
        m = 16
        qpe.sweep_successes([m], 3, phis)
        qpe._branch_factors.cache_clear()
        assert peak_arrays(lambda: qpe.sweep_successes([m], 3, phis), m) <= 10

    def test_branch_check_names_the_row_within_its_register(self, monkeypatch):
        # at molecule 4 the stack holds m = 6's five rows and then m = 8's,
        # so its row 7 is row 2 of m = 8, whose check of each row's sum
        # names it once m = 8 is complete
        original = qpe._branch_probabilities
        levels = []

        def skewed(*args):
            probs = original(*args)
            levels.append(len(levels) + 1)
            if len(levels) == 4:
                probs[7] *= 1 + 1e-9
            return probs

        monkeypatch.setattr(qpe, "_branch_probabilities", skewed)
        with pytest.raises(NumericalInvariantError,
                           match=r"^probabilities sum to 1\.0000000\d+ "
                                 r"in row 2 of the stack$"):
            qpe.sweep_successes([8, 6], 3, [0.3, 1.1, 2.9, 4.0, 5.5])
        assert levels == list(range(1, 9))

    def test_no_phases(self):
        assert qpe.sweep_successes([5, 3], 2, []) == [[], []]

    def test_each_size_asked_for_gets_its_own_list(self):
        phis = [0.3, 1.1, 2.9]
        got = qpe.sweep_successes([5, 7, 5], 3, phis)
        want = [[qpe.empirical_success(m, 3, phi) for phi in phis] for m in (5, 7, 5)]
        assert got == want
        assert len({id(masses) for masses in got}) == 3
        got[0][1] = -1.0
        got[0].append(2.0)
        assert got[1:] == want[1:]

    def test_register_checks_come_first(self, monkeypatch):
        monkeypatch.setattr(qpe, "_shared_tree", None)  # no tree
        with pytest.raises(ValidationError, match="m must be in"):
            qpe.sweep_successes([5, qpe.MAX_REGISTER + 1], 0, [1.0])
        with pytest.raises(DomainError, match="need m >= n, got m=3, n=4"):
            qpe.sweep_successes([5, 3], 4, [1.0])

    def test_a_shared_gate_failure_names_the_largest_sizes_kick(self, monkeypatch):
        # the kick of power 2^3 (m = 5's molecule 2, m = 8's molecule 5) and
        # that of power 2^7 (m = 8's molecule 1) are broken, each with its
        # own deviation. Both sizes share one tree, whose kicks are m = 8's,
        # so in either order the verdict names 2^7 of the first phase, and
        # no tree grows
        phase_diagonals = qpe._phase_diagonals

        def broken(thetas, mode, powers=(1,)):
            diagonals = phase_diagonals(thetas, mode, powers)
            diagonals[np.asarray(powers) == 2 ** 3] = [1.0, 1.5]
            diagonals[np.asarray(powers) == 2 ** 7] = [1.0, 1.25]
            return diagonals

        monkeypatch.setattr(qpe, "_phase_diagonals", broken)
        monkeypatch.setattr(qpe, "_branch_probabilities", None)
        for m_values in ([5, 8], [8, 5]):
            with pytest.raises(ValidationError, match=r"^gate is not unitary \(deviation "
                               r"5\.625e-01\): kick of power 2\^7 at phi = 1\.0$"):
                qpe.sweep_successes(m_values, 3, [1.0, 2.0])


class TestTreeDistributions:
    """The measure-as-you-go tree gives the statevector's distributions to
    within rounding, its verdict on every gate followed by the gate's name,
    and each row the bytes its phase alone gets."""

    @pytest.mark.parametrize("mode", list(GateMode))
    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_the_statevector_on_stacks(self, m, mode):
        phis = [float(p) for p in np.random.default_rng(80 + m).uniform(0.01, TWO_PI, 12)]
        tree = qpe.tree_distributions(m, phis, mode)
        assert tree.shape == (12, 2 ** m)
        statevector = [qpe.exact_distribution(m, phi, mode) for phi in phis]
        assert np.abs(tree - statevector).max() <= 1e-13

    @pytest.mark.parametrize("mode", list(GateMode))
    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_the_statevector_with_the_target(self, m, mode):
        # the explicit target molecule in |1> makes every kick an ideal
        # controlled phase, whatever the mode of the other gates
        phis = [float(p) for p in np.random.default_rng(60 + m).uniform(0.01, TWO_PI, 4)]
        tree = qpe.tree_distributions(m, phis, mode, include_target=True)
        statevector = [qpe.readout_distribution(m, phi, mode, include_target=True)
                       for phi in phis]
        assert np.abs(tree - statevector).max() <= 1e-13

    @pytest.mark.parametrize("mode", list(GateMode))
    def test_matches_the_dotphase_free_oracle(self, mode):
        # benchmarks/reference.py simulates the protocol densely with no
        # dotphase code, its pulse-literal kicks from exact angles and its
        # target molecule, when included, an explicit last qubit
        reference = load_reference()
        rng = np.random.default_rng(85)
        for m in range(1, reference.DENSE_MAX_M + 1):
            phis = [float(p) for p in rng.uniform(0.01, TWO_PI, 6)]
            for include_target in (False, True):
                tree = qpe.tree_distributions(m, phis, mode, include_target)
                dense = [reference.dense_probs(m, phi, mode.value, include_target)
                         for phi in phis]
                assert np.abs(tree - dense).max() <= 1e-12, (m, include_target)

    @pytest.mark.parametrize("include_target", [False, True])
    @pytest.mark.parametrize("mode", list(GateMode))
    @pytest.mark.parametrize("m", range(1, 15))
    def test_draws_match_the_statevector(self, m, mode, include_target):
        # a sampled estimate draws from the tree: every shot of a run lands
        # where it lands on the statevector's distribution
        rng = np.random.default_rng(40 + m)
        phis = ([float(p) for p in rng.uniform(0.01, TWO_PI, 2)]
                if m < 14 or include_target or mode == GateMode.IDEAL
                else list(UNITARY_KICK_PHASES[:2]))
        for seed, phi in enumerate(phis, start=m):
            uniforms = qpe.shot_uniforms(seed, 2000)
            tree = qpe.tree_distributions(m, [phi], mode, include_target)[0]
            statevector = qpe.readout_distribution(m, phi, mode, include_target)
            assert (sv.sample_uniforms(tree, uniforms).tolist()
                    == sv.sample_uniforms(statevector, uniforms).tolist())

    @pytest.mark.parametrize("mode", list(GateMode))
    @pytest.mark.parametrize("m", range(13, 17))
    def test_matches_the_statevector_on_single_phases(self, m, mode):
        # with the target too, in the body so that the ids stay
        for phi in UNITARY_KICK_PHASES[1::2]:
            for include_target in (False, True):
                tree = qpe.tree_distributions(m, [phi], mode, include_target)[0]
                statevector = qpe.readout_distribution(m, phi, mode, include_target)
                assert np.abs(tree - statevector).max() <= 1e-13, (phi, include_target)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_representable_phases_are_certain(self, m):
        # ideal mode only: pulse-literal gates lose this determinism
        # (TestPulseLiteralMode)
        phis = [TWO_PI * j / 2 ** m for j in range(1, 2 ** m + 1)]
        dist = qpe.tree_distributions(m, phis)
        j = np.arange(1, 2 ** m + 1) % 2 ** m
        assert np.abs(dist[np.arange(2 ** m), j] - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("mode", list(GateMode))
    @pytest.mark.parametrize("m", range(1, 17))
    def test_stacked_rows_are_single_rows(self, m, mode):
        # every operation is elementwise, so neither the stack nor the
        # blocks a level is streamed through (several a level from m = 12
        # for 12 phases, from m = 15 for one) touch a row's bytes
        rng = np.random.default_rng(90 + m)
        phis = ([float(p) for p in rng.uniform(0.01, TWO_PI, 12)] if m <= 13
                else list(UNITARY_KICK_PHASES) * 3)
        for count in (1, 5, 12):
            stack = qpe.tree_distributions(m, phis[:count], mode)
            for phi, row in zip(phis, stack):
                alone = qpe.tree_distributions(m, [phi], mode)[0]
                assert row.tobytes() == alone.tobytes(), (count, phi)

    @pytest.mark.parametrize("m", range(13, 17))
    @pytest.mark.parametrize("phi", [0.8271428571428572, 1.0067455141626498])
    def test_kick_defect_gets_the_statevector_verdict(self, m, phi, monkeypatch):
        # the pulse-literal kick defect (qpe._phase_diagonals) stops both
        # paths at the same kick with the same deviation, or neither, and
        # the tree names the kick
        mode = GateMode.PULSE_LITERAL
        qubits = record_qubits(monkeypatch)
        try:
            expected = qpe.exact_distribution(m, phi, mode)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                qpe.tree_distributions(m, [phi], mode)
            # the last gate call is the failing kick, on its molecule
            assert str(raised.value) == f"{exc}: kick of power 2^{m - qubits[-1]} at phi = {phi!r}"
        else:
            tree = qpe.tree_distributions(m, [phi], mode)[0]
            assert np.abs(tree - expected).max() <= 1e-13

    def test_verdict_names_the_first_failing_kick(self, monkeypatch):
        # the tree judges a stack's kicks molecule-major, so its verdict is
        # the statevector's on the phase whose failing kick has the lowest
        # molecule, the first such phase of the stack on a tie, and names
        # that kick
        stack = [0.3, 0.8271428571428572, 1.0067455141626498]
        mode = GateMode.PULSE_LITERAL
        with pytest.raises(ValidationError) as tree:
            qpe.tree_distributions(16, stack, mode)
        qubits = record_qubits(monkeypatch)
        verdicts = []
        for row, phi in enumerate(stack):
            with pytest.raises(ValidationError) as statevector:
                qpe.exact_distribution(16, phi, mode)
            # the last gate call is the failing kick, on its molecule
            verdicts.append((qubits[-1], row, str(statevector.value)))
        qubit, row, verdict = min(verdicts)
        assert str(tree.value) == f"{verdict}: kick of power 2^{16 - qubit} at phi = {stack[row]!r}"
        # a NaN phase fails every kick, molecule 1's first
        with pytest.raises(ValidationError) as nan:
            qpe.tree_distributions(3, [math.nan])
        assert str(nan.value) == "gate is not unitary (deviation nan): kick of power 2^2 at phi = nan"

    def test_verdict_is_molecule_major(self, monkeypatch):
        # phase 0's kick fails at molecule 2 only and phase 1's at molecule 1
        # only, each with its own deviation: molecule-major order meets phase
        # 1's first, phase-major order would meet phase 0's
        m, phis = 6, [0.7, 2.1, 4.4]
        phase_diagonals = qpe._phase_diagonals

        def broken(thetas, mode, powers=(1,)):
            diagonals = phase_diagonals(thetas, mode, powers)
            powers, thetas = np.asarray(powers)[:, None], np.asarray(thetas)
            diagonals[(powers == 2 ** (m - 2)) & (thetas == phis[0])] = [1.0, 1.5]
            diagonals[(powers == 2 ** (m - 1)) & (thetas == phis[1])] = [1.0, 1.25]
            return diagonals

        monkeypatch.setattr(qpe, "_phase_diagonals", broken)
        with pytest.raises(ValidationError) as tree:
            qpe.tree_distributions(m, phis)
        with pytest.raises(ValidationError) as statevector:
            qpe.exact_distribution(m, phis[1])
        assert str(statevector.value) == "gate is not unitary (deviation 5.625e-01)"
        assert str(tree.value) == f"{statevector.value}: kick of power 2^5 at phi = 2.1"

    @pytest.mark.parametrize("broken", ["hadamard", "phase gate", "two phase gates"])
    def test_other_gates_get_the_statevector_verdict(self, broken, monkeypatch):
        name = {"hadamard": "Hadamard", "phase gate": "P(+pi/2^3)",
                "two phase gates": "P(-pi/2^2)"}[broken]
        if broken == "hadamard":
            monkeypatch.setattr(qpe, "_hadamard_gate", lambda mode: 1.25 * qpe.IDEAL_HADAMARD)
        else:
            phase_diagonals = qpe._phase_diagonals
            # the inverse QFT applies P(-pi/4) before P(pi/8), so the
            # verdict of two bent phase gates is P(-pi/4)'s
            bends = ({math.pi / 8: [1.0, 1.5]} if broken == "phase gate"
                     else {-math.pi / 4: [1.0, 1.5], math.pi / 8: [1.0, 1.25]})

            def bent(thetas, mode, powers=(1,)):
                diagonals = phase_diagonals(thetas, mode, powers)
                for theta, entries in bends.items():
                    diagonals[:, np.asarray(thetas) == theta] = entries
                return diagonals

            monkeypatch.setattr(qpe, "_phase_diagonals", bent)
        # the statevector's phase gates are memoised, and so are the branch
        # factors built from them: neither may keep a bent gate
        qpe._phase_gate.cache_clear()
        qpe._branch_factors.cache_clear()
        try:
            with pytest.raises(ValidationError, match="gate is not unitary") as tree:
                qpe.tree_distributions(5, [0.3, 2.0])
            with pytest.raises(ValidationError) as statevector:
                qpe.exact_distribution(5, 0.3)
        finally:
            qpe._phase_gate.cache_clear()
            qpe._branch_factors.cache_clear()
        assert str(tree.value) == f"{statevector.value}: {name}"

    @given(data=st.data(), m=st.integers(1, 7), mode=st.sampled_from(list(GateMode)),
           include_target=st.booleans(), phi=st.floats(1.0, TWO_PI))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_bent_gates_get_the_statevector_verdict(self, data, m, mode, include_target,
                                                   phi):
        """1 to 3 of the Hadamard, the kicks and the phase gates P(+-pi/2^k)
        are bent, each to its own deviation: the tree gives the
        statevector's verdict followed by the name of the gate with that
        deviation, and without the target so does a sweep of m alone, and
        a sweep of m and up to two more sizes gives the verdict of its
        largest size's tree. The phases start at 1, above every phase
        gate's angle, so that no kick is bent as a phase gate."""
        # each gate and the name the tree gives it
        names = {"hadamard": "Hadamard"}
        names.update({("kick", k): f"kick of power 2^{k} at phi = {phi!r}" for k in range(m)})
        names.update({("phase", s, k): f"P({'-+'[s > 0]}pi/2^{k})"
                      for k in range(2, m + 1) for s in (-1, 1)})
        bent = data.draw(st.lists(st.sampled_from(list(names)), min_size=1, max_size=3,
                                  unique=True), label="bent")
        m_values = [m] + data.draw(st.lists(st.integers(1, 7), max_size=2), label="sizes")
        scales = {gate: 1.25 + 0.25 * i for i, gate in enumerate(bent)}
        phase_diagonals, hadamard_gate = qpe._phase_diagonals, qpe._hadamard_gate

        def bent_diagonals(thetas, mode, powers=(1,)):
            diagonals = phase_diagonals(thetas, mode, powers)
            powers, thetas = np.asarray(powers)[:, None], np.asarray(thetas)
            for gate, scale in scales.items():
                if gate != "hadamard":
                    where = ((powers == 2 ** gate[1]) & (thetas == phi) if gate[0] == "kick"
                             else (powers == 1) & (thetas == gate[1] * math.pi / 2 ** gate[2]))
                    diagonals[where] = [1.0, scale]
            return diagonals

        def verdict(run):
            try:
                run()
            except ValidationError as exc:
                return str(exc)
            return None

        # the phase gates are memoised, and so are the branch factors built
        # from them: neither may keep a gate of another example
        qpe._phase_gate.cache_clear()
        qpe._branch_factors.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qpe, "_phase_diagonals", bent_diagonals)
                if "hadamard" in scales:
                    patch.setattr(qpe, "_hadamard_gate",
                                  lambda mode: scales["hadamard"] * hadamard_gate(mode))
                want = verdict(lambda: qpe.readout_distribution(m, phi, mode, include_target))
                # a bent gate of deviation s^2 - 1 is the one of scale s
                deviation = float(re.fullmatch(r"gate is not unitary \(deviation (\S+)\)",
                                               want).group(1))
                first = min(scales, key=lambda gate: abs(scales[gate] ** 2 - 1 - deviation))
                tree = verdict(lambda: qpe.tree_distributions(m, [phi], mode, include_target))
                assert tree == f"{want}: {names[first]}"
                if not include_target:
                    assert verdict(lambda: qpe.sweep_successes([m], 0, [phi], mode)) == tree
                    largest = verdict(lambda: qpe.tree_distributions(max(m_values), [phi], mode))
                    assert verdict(lambda: qpe.sweep_successes(m_values, 0, [phi], mode)) == largest
        finally:
            qpe._phase_gate.cache_clear()
            qpe._branch_factors.cache_clear()

    def test_peak_memory_of_one_m16_phase(self):
        # at most six arrays of 2^m floats once the branch factors are
        # cached (2.3 here): the statevector's exact_distribution peaks at
        # 6.3
        m = 16
        qpe.tree_distributions(m, [2.0])
        assert peak_arrays(lambda: qpe.tree_distributions(m, [2.0]), m) <= 6

    def test_peak_memory_of_one_m16_phase_from_a_cold_cache(self):
        # the first tree of a process also builds and keeps the branch
        # factors of every level, 2^{m+1} floats (4.3 here)
        m = 16
        qpe.tree_distributions(m, [2.0])
        qpe._branch_factors.cache_clear()
        assert peak_arrays(lambda: qpe.tree_distributions(m, [2.0]), m) <= 10

    @pytest.mark.parametrize("mode", list(GateMode))
    def test_branch_factors_are_built_once_per_level(self, mode):
        # levels 1..12 of one mode miss once each, however many trees ask
        qpe._branch_factors.cache_clear()
        phis = [0.5, 2.7]
        first = qpe.tree_distributions(12, phis, mode)
        assert qpe.tree_distributions(12, phis, mode).tobytes() == first.tobytes()
        assert qpe._branch_factors.cache_info().misses == 12
        # one g a branch: levels 1..12 keep fewer than 2^13 floats
        levels = [qpe._branch_factors(r, mode) for r in range(1, 13)]
        assert sum(part.size for level in levels for part in level) < 2 ** 13
        # every tree shares them, so none may write into them
        gr, gi = levels[-1]
        for factor in (gr, gi):
            with pytest.raises(ValueError, match="read-only"):
                factor[0] = 2.0
        # a level built on the way to a larger register gives a smaller one
        # the bytes a cleared cache gives it
        qpe._branch_factors.cache_clear()
        cold = qpe.tree_distributions(5, phis, mode)
        qpe._branch_factors.cache_clear()
        qpe.tree_distributions(14, phis[:1], mode)
        assert qpe.tree_distributions(5, phis, mode).tobytes() == cold.tobytes()

    def test_branch_check_names_the_row(self, monkeypatch):
        # the last branch of row 2 drifts at every level, so its whole row
        # at molecule 1; the check of each row's sum names it
        original = qpe._branch_probabilities

        def skewed(*args):
            probs = original(*args)
            probs[2, :, -1] *= 1 + 1e-9
            return probs

        monkeypatch.setattr(qpe, "_branch_probabilities", skewed)
        with pytest.raises(NumericalInvariantError,
                           match=r"^probabilities sum to 1\.0000000\d+ "
                                 r"in row 2 of the stack$"):
            qpe.tree_distributions(5, [0.3, 1.1, 2.9, 4.0], GateMode.IDEAL)

    @pytest.mark.parametrize("scale", [1 + 1e-9, math.nan])
    @pytest.mark.parametrize("mode", list(GateMode))
    def test_branch_factor_drift_stops_the_tree(self, mode, scale, monkeypatch):
        # level 3's branch factors drift: no row's sum sees it, since B_0 +
        # B_1 vanishes, but level 4's check of |g|^2 stops the tree before
        # its chances
        drift_factors(monkeypatch, level=3, scale=scale)
        calls = skew_branch(monkeypatch, nth=None, scale=1.0)
        with pytest.raises(NumericalInvariantError,
                           match=r"^branch factor of molecule 4 has "
                                 r"\|g\|\^2 = (1\.000000002\d+|nan)$"):
            qpe.tree_distributions(8, [0.3, 1.1], mode)
        assert calls == [1, 2, 3]

    @pytest.mark.parametrize("include_target", [False, True])
    @pytest.mark.parametrize("mode", list(GateMode))
    def test_no_negative_chance_at_grid_phases(self, mode, include_target):
        # at a representable phase 2*pi*j/2^m most chances are exactly 0,
        # and A + Re(B g) rounds many of them to about -1e-16 (1.2 million
        # entries over m = 1..12 in ideal mode), which the kernel clamps
        for m in range(1, 13):
            phis = [TWO_PI * j / 2 ** m for j in range(1, 2 ** m + 1)]
            per = qpe.batch_size(m)
            for start in range(0, len(phis), per):
                rows = qpe.tree_distributions(m, phis[start:start + per], mode,
                                              include_target)
                assert rows.min() >= 0, (m, start)

    def test_no_phases(self):
        assert qpe.tree_distributions(4, []).shape == (0, 16)

    @pytest.mark.parametrize("m", [0, qpe.MAX_REGISTER + 1])
    def test_register_cap(self, m, monkeypatch):
        monkeypatch.setattr(qpe, "_phase_diagonals", None)  # no tree
        with pytest.raises(ValidationError, match="m must be in"):
            qpe.tree_distributions(m, [1.0])

    def test_bits_do_not_depend_on_the_host(self):
        # sha256 of the distributions of 6 phases at m = 1..14 in both
        # modes; CI runs it again without numpy's AVX-512 and AVX2 loops and
        # with OpenBLAS's Haswell kernels
        digest = hashlib.sha256()
        rng = np.random.default_rng(95)
        for mode in GateMode:
            for m in range(1, 15):
                phis = [float(p) for p in rng.uniform(0.01, TWO_PI, 6)]
                if mode == GateMode.PULSE_LITERAL and m == 14:
                    phis = list(UNITARY_KICK_PHASES)
                digest.update(qpe.tree_distributions(m, phis, mode).tobytes())
        assert digest.hexdigest() == TREE_DIGEST


TREE_DIGEST = "c72d9148bb87c9395f2a14011d28fce6c42ae8a6e18769b66f703cb928d2a717"

# a fixed table of kick phases; with powers 2^0 to 2^19 it makes pulse-literal
# kick gates on both sides of UNITARY_TOL
KICK_PHASES = (0.3, 1.0, 2.0, math.pi, 4.2, 5.9, 2 * math.pi, 1e-3)


class TestRowDiagonals:
    """The tree's judge of its stack of diagonals: each row's deviation has
    the bits the statevector gives the gate diag(row), and the stack's
    verdict is the one ``apply_1q`` gives its first failing row alone,
    followed by that kick's name."""

    @pytest.mark.parametrize("mode", list(GateMode))
    def test_deviation_matches_gate_plan(self, mode):
        rows = qpe._phase_diagonals(KICK_PHASES, mode, [2 ** k for k in range(20)])
        rows = rows.reshape(-1, 2)
        if mode == GateMode.IDEAL:
            rows = np.vstack([rows, qpe._phase_gate(math.nan, mode).diagonal()])
        devs = qpe._diagonal_deviation(rows)
        plans = np.array([sv._gate_plan(np.diag(d).tobytes(), 2).dev for d in rows])
        assert devs.tobytes() == plans.tobytes()
        failing = np.count_nonzero(~(plans <= sv.UNITARY_TOL))
        assert failing == (28 if mode == GateMode.PULSE_LITERAL else 1)

    @pytest.mark.parametrize("phi, power, mode", [
        (0.3, 2 ** 14, GateMode.PULSE_LITERAL),
        (4.2, 2 ** 19, GateMode.PULSE_LITERAL),
        (math.nan, 1, GateMode.IDEAL)])
    def test_failing_row_fails_as_apply_1q(self, phi, power, mode):
        # the failing kick is molecule 1's in a tree of m molecules, between
        # phases whose kicks pass at every power up to 2^19
        m = power.bit_length()
        gate = np.diag(qpe._phase_diagonals([phi], mode, [power])[0, 0])
        with pytest.raises(ValidationError, match="gate is not unitary") as stacked:
            qpe._tree_gates(m, [math.pi, TWO_PI, phi, math.pi, TWO_PI], mode, mode)
        with pytest.raises(ValidationError) as alone:
            sv.apply_1q(random_state(6, np.random.default_rng(530)), 2, gate)
        assert str(stacked.value) == f"{alone.value}: kick of power 2^{m - 1} at phi = {phi!r}"

    def test_drifting_row_stops_the_call(self, monkeypatch):
        # the one branch of row 0 drifts at molecule 1: the tree stops when
        # its register is complete, at the check of each row's sum
        calls = skew_branch(monkeypatch, nth=1, scale=1 + 1e-8, row=0, branch=0)
        with pytest.raises(NumericalInvariantError,
                           match=r"^probabilities sum to \S+ in row 0 of the stack$"):
            qpe.tree_distributions(8, [0.3, 1.1, 2.9, 4.0, 5.5])
        assert calls == list(range(1, 9))

    def test_empty_stack(self):
        # no phases: no kicks, no gates to judge, no distributions
        for mode in GateMode:
            kicks = qpe._phase_diagonals([], mode, qpe._kick_powers(5))
            assert kicks.shape == (5, 0, 2)
            assert qpe._diagonal_deviation(kicks).shape == (5, 0)
            qpe._tree_gates(5, [], mode, mode)
            assert qpe.tree_distributions(5, [], mode).shape == (0, 32)
        qpe._require_ones(np.empty((0, 1)))


class TestNormCheckOfAStack:
    """The tree checks all rows of its stack in one ``_require_ones`` pass,
    each on its own; the message names the first row that drifted, and its
    row."""

    @staticmethod
    def stack():
        return random_stack(10, np.random.default_rng(550), count=12)

    @staticmethod
    def check(stack):
        return qpe._require_ones((np.abs(stack) ** 2).sum(axis=-1, keepdims=True))

    def test_unit_rows_pass(self):
        assert self.check(self.stack()) is None

    @pytest.mark.parametrize("row", [0, 6, 11])
    def test_nan_amplitude_names_its_row(self, row):
        stack = self.stack()
        stack[row, 77] = math.nan
        with pytest.raises(NumericalInvariantError,
                           match=rf"^probabilities sum to nan in row {row} of the stack$"):
            self.check(stack)

    @pytest.mark.parametrize("delta", [1e-8, -1e-8])
    def test_skew_of_the_last_row(self, delta):
        stack = self.stack()
        stack[11] *= math.sqrt(1 + delta)
        with pytest.raises(NumericalInvariantError,
                           match=r"^probabilities sum to \S+ in row 11 of the stack$") as err:
            self.check(stack)
        reported = float(re.search(r" to (\S+)", str(err.value))[1])
        assert reported == pytest.approx(1 + delta, abs=1e-15)


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

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, 1e308])
    def test_rejects_a_phase_without_finite_kicks(self, phi):
        # before any tree and with no numpy warning: 1e308 * 2^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                qpe.empirical_success(3, 1, phi)
        assert str(err.value) == f"phase {phi!r} has no finite kick angle at m = 3"

    def test_largest_size_decides_a_phase(self):
        # 1e306 * 2^2 is finite, 1e306 * 2^11 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 <= qpe.sweep_successes([3], 1, [1e306])[0][0] <= 1.0
            with pytest.raises(ValidationError, match=r"^phase 1e\+306 has no finite kick angle at m = 12$"):
                qpe.sweep_successes([3, 12], 1, [1e306])

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
            qpe.run_final_state(0, 1.0)
        with pytest.raises(ValidationError):
            qpe.run_final_state(3, 0.0)
        with pytest.raises(ValidationError):
            qpe.run_final_state(3, TWO_PI + 0.1)

    @pytest.mark.parametrize("run", [qpe.run_final_state, qpe.readout_distribution])
    @pytest.mark.parametrize("m, phi, message", [
        (0, 1.0, r"^m must be in \[1, 20\], got 0$"),
        (qpe.MAX_REGISTER + 1, 1.0, r"^m must be in \[1, 20\], got 21$"),
        (3, 0.0, r"^true phase must lie in \(0, 2\*pi\], got 0.0$"),
        (3, math.nan, r"^true phase must lie in \(0, 2\*pi\], got nan$"),
        (3, TWO_PI + 0.1, r"^true phase must lie in \(0, 2\*pi\], got 6.38"),
    ])
    def test_one_experiment_checks_its_input(self, run, m, phi, message, monkeypatch):
        monkeypatch.setattr(qpe, "prepare_register", None)  # no simulation
        monkeypatch.setattr(qpe, "_controlled_kick_state", None)
        for include_target in (False, True):
            with pytest.raises(ValidationError, match=message):
                run(m, phi, GateMode.IDEAL, include_target)

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

    # one to five words; 2 ** 128 - 1 is the CLI's cap (cli.MAX_SEED)
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 130 + 7,
                                      2 ** 96, 2 ** 128 - 1])
    def test_shot_seeds_match_shot_seed(self, seed):
        # the loop's seeds and the array pass's, through numpy's own Generator
        oracle = [np.random.default_rng(qpe.shot_seed(seed, i)).random() for i in range(3000)]
        for n in (0, 1, qpe.SHOT_SEED_LOOP_MAX, qpe.SHOT_SEED_LOOP_MAX + 1, 3000):
            assert qpe.shot_uniforms(seed, n).tolist() == oracle[:n]

    @pytest.mark.parametrize("seed", [3, 2 ** 64 + 3, 2 ** 128 - 1])
    def test_first_shots_do_not_depend_on_the_shot_count(self, seed):
        for k, n in ((qpe.SHOT_SEED_LOOP_MAX, qpe.SHOT_SEED_LOOP_MAX + 1), (1000, 4000)):
            assert qpe.shot_uniforms(seed, n)[:k].tolist() == qpe.shot_uniforms(seed, k).tolist()

    @pytest.mark.parametrize("n", [1, qpe.SHOT_SEED_LOOP_MAX + 1])
    def test_negative_seed_raises(self, n):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            qpe.shot_uniforms(-1, n)

    def test_include_target_qubit_same_distribution(self):
        phi = 1.37
        base = qpe.exact_distribution(3, phi)
        explicit = qpe.readout_distribution(3, phi, include_target=True)
        assert np.max(np.abs(base - explicit)) < 1e-10


class TestPulseLiteralMode:
    def test_runs_and_normalizes(self):
        dist = qpe.exact_distribution(3, 1.1, GateMode.PULSE_LITERAL)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_differs_from_ideal(self):
        # the prescribed pulses do not generate ideal gates, so the
        # representable-phase determinism is lost in pulse-literal mode
        phi = TWO_PI * 5 / 8
        dist = qpe.exact_distribution(3, phi, GateMode.PULSE_LITERAL)
        assert dist[5] < 0.999
