import math
import re

import numpy as np
import pytest

from dotphase import _simplex, pulses
from dotphase.errors import DimensionError, DomainError, ValidationError
from dotphase.pulses import (
    PhysicalParams,
    PulseSpec,
    cavity_pulse_unitary,
    effective_rabi,
    fit_pulse,
    gate_distance,
    hadamard_pulse_params,
    max_qubits,
    phase_gate_pulse_params,
    protocol_time,
    separation_factor,
    single_pulse_unitary,
)

SQRT2 = math.sqrt(2)
IDEAL_H = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2


class TestSinglePulseUnitary:
    def test_zero_angle_swaps_levels(self):
        u = single_pulse_unitary(PulseSpec(0.0, 1.234))
        assert np.allclose(u, [[0, 1], [1, 0]])

    def test_hadamard_step_matrix(self):
        u = single_pulse_unitary(PulseSpec(math.pi / 4, math.pi / 2))
        assert np.allclose(u, np.array([[-1, 1], [1, 1]]) / SQRT2)

    def test_phase_step_matrix(self):
        phi = 0.9
        u = single_pulse_unitary(PulseSpec(math.pi / 2, phi + math.pi / 2))
        assert np.allclose(u, np.diag([-np.exp(-1j * phi), np.exp(1j * phi)]))

    def test_unitarity_random(self):
        rng = np.random.default_rng(10)
        thetas = rng.uniform(-10, 10, 10_000)
        phases = rng.uniform(-10, 10, 10_000)
        for th, ph in zip(thetas, phases):
            u = single_pulse_unitary(PulseSpec(th, ph))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_two_pi_periodic(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            th, ph = rng.uniform(0, 2 * math.pi, 2)
            base = single_pulse_unitary(PulseSpec(th, ph))
            assert np.max(np.abs(
                single_pulse_unitary(PulseSpec(th + 2 * math.pi, ph)) - base
            )) < 1e-12
            assert np.max(np.abs(
                single_pulse_unitary(PulseSpec(th, ph + 2 * math.pi)) - base
            )) < 1e-12


class TestCavityPulseUnitary:
    def test_zero_angle_identity(self):
        assert np.allclose(cavity_pulse_unitary(PulseSpec(0, 0.7)), np.eye(4))

    def test_half_pulse(self):
        u = cavity_pulse_unitary(PulseSpec(math.pi / 2, 0))
        # |g1> -> -i|e0>
        assert np.allclose(u[:, 1], [0, 0, -1j, 0])

    def test_fixed_points(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            u = cavity_pulse_unitary(
                PulseSpec(rng.uniform(-10, 10), rng.uniform(-10, 10))
            )
            assert np.array_equal(u[:, 0], [1, 0, 0, 0])  # |g0> exact
            assert np.array_equal(u[:, 3], [0, 0, 0, 1])  # |e1> exact
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


class TestPulseParams:
    def test_hadamard_params(self):
        p = hadamard_pulse_params()
        assert (p.rabi_angle, p.phase) == (math.pi / 4, math.pi / 2)

    def test_hadamard_pulse_self_inverse(self):
        u = single_pulse_unitary(hadamard_pulse_params())
        assert np.max(np.abs(u @ u - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, math.pi / 3])
    def test_phase_params(self, phi):
        p = phase_gate_pulse_params(phi)
        assert (p.rabi_angle, p.phase) == (math.pi / 2, phi + math.pi / 2)

    def test_phase_matrix(self):
        u = single_pulse_unitary(phase_gate_pulse_params(math.pi / 3))
        expected = np.diag([-np.exp(-1j * math.pi / 3), np.exp(1j * math.pi / 3)])
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_canonical_rabi_angle(self):
        p = PulseSpec(5 * math.pi, 0.0)
        assert p.canonical_rabi_angle == pytest.approx(math.pi)


def _haar(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _reference_overlap_grid(target, thetas, phis):
    # the overlap grid as one whole-array expression, which the blocked
    # pulses._pulse_overlap_grid must reproduce bit for bit
    th = thetas[:, None]
    ph = phis[None, :]
    s, c = np.sin(th), np.cos(th)
    tr = (
        np.conj(-1j * np.exp(-1j * ph) * s) * target[0, 0]
        + c * target[1, 0]
        + c * target[0, 1]
        + np.conj(-1j * np.exp(1j * ph) * s) * target[1, 1]
    )
    return np.abs(tr)


def _reference_distance(a, b):
    tr = np.trace(a.conj().T @ b)
    if abs(tr) < 1e-300:
        return math.sqrt(2.0 * a.shape[0])
    z = np.conj(tr) / abs(tr)
    return float(np.linalg.norm(a - z * b))


class TestGateDistance:
    def test_zero_on_self(self):
        rng = np.random.default_rng(13)
        u = single_pulse_unitary(PulseSpec(rng.uniform(0, 6), rng.uniform(0, 6)))
        assert gate_distance(u, u) < 1e-12

    def test_global_phase_invariant(self):
        rng = np.random.default_rng(14)
        u = single_pulse_unitary(PulseSpec(1.1, 2.2))
        for alpha in rng.uniform(0, 2 * math.pi, 20):
            assert gate_distance(u, np.exp(1j * alpha) * u) < 1e-12

    def test_hadamard_pulse_gap(self):
        u = single_pulse_unitary(hadamard_pulse_params())
        assert gate_distance(u, IDEAL_H) == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gate_distance(np.eye(2), np.eye(4))

    def test_pseudo_metric(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            mats = [
                single_pulse_unitary(PulseSpec(rng.uniform(0, 6), rng.uniform(0, 6)))
                for _ in range(3)
            ]
            a, b, c = mats
            assert gate_distance(a, b) == pytest.approx(gate_distance(b, a), abs=1e-12)
            assert gate_distance(a, c) <= gate_distance(a, b) + gate_distance(b, c) + 1e-9

    def test_matches_linalg_norm_bitwise(self):
        rng = np.random.default_rng(42)
        pairs = [
            (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
             rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            for _ in range(300)
        ]
        pairs += [
            tuple(
                cavity_pulse_unitary(PulseSpec(*rng.uniform(0, 2 * math.pi, 2)))
                for _ in range(2)
            )
            for _ in range(300)
        ]
        for a, b in pairs:
            got = gate_distance(a, b)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(_reference_distance(a, b)).tobytes()

    def test_zero_trace_gives_exactly_two(self):
        x = np.array([[0, 1], [1, 0]])
        got = gate_distance(np.eye(2), x)
        assert got == 2.0 and type(got) is float

    def test_nan_entry_gives_nan(self):
        a = np.eye(2, dtype=complex)
        a[1, 0] = np.nan
        # the optimal phase is NaN / NaN, which numpy flags as invalid
        with np.errstate(invalid="ignore"):
            got = gate_distance(a, np.eye(2))
        assert math.isnan(got) and type(got) is float


class TestOverlapGrid:
    FIT_GRID = np.arange(512) * (math.tau / 512)

    def grids(self, rng):
        g = self.FIT_GRID
        return [
            (g, g),
            (g[:511], g),
            (rng.uniform(0, 7, 37), rng.uniform(-1, 7, 100)),
            (g[:1], g),
        ]

    def targets(self, rng):
        haar = [_haar(rng) for _ in range(4)]
        pulse = [
            np.exp(1j * rng.uniform(0, 6))
            * single_pulse_unitary(PulseSpec(*rng.uniform(0, 2 * math.pi, 2)))
            for _ in range(3)
        ]
        # ties: many grid points share the largest overlap
        ties = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex), IDEAL_H]
        return haar + pulse + ties

    def test_blocked_grid_matches_whole_array_expression(self):
        rng = np.random.default_rng(41)
        for target in self.targets(rng):
            for thetas, phis in self.grids(rng):
                got = pulses._pulse_overlap_grid(target, thetas, phis)
                want = _reference_overlap_grid(target, thetas, phis)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert np.argmax(got) == np.argmax(want)

    def test_grid_spans_several_blocks(self):
        # the fit grid is cut into blocks, and 511 rows leave a short last one
        rows = pulses.OVERLAP_BLOCK // 512
        assert 1 < rows < 511 and 511 % rows != 0


class TestFitPulse:
    def test_objective_goes_through_module_gate_distance(self, monkeypatch):
        # the benchmark tracer counts objective evaluations by wrapping
        # pulses.gate_distance, so fit_pulse must look it up on each call
        calls = []
        inner = pulses.gate_distance

        def counting(a, b):
            calls.append(1)
            return inner(a, b)

        monkeypatch.setattr(pulses, "gate_distance", counting)
        target = 1j * single_pulse_unitary(PulseSpec(2.3, 0.4))
        _, residual = fit_pulse(target)
        assert residual < 1e-8
        assert len(calls) >= 100

    @pytest.mark.parametrize("target", [
        IDEAL_H, 1j * single_pulse_unitary(PulseSpec(2.3, 0.4))], ids=["hadamard", "reachable"])
    def test_objective_runs_only_inside_the_refinement(self, monkeypatch, target):
        # fit_pulse returns the refinement's point and value as they are, so
        # every objective call is one the simplex makes
        distances, refined, results = [], [], []
        gate_distance, nelder_mead = pulses.gate_distance, _simplex.nelder_mead

        def counted_distance(a, b):
            distances.append(1)
            return gate_distance(a, b)

        def counted_refinement(func, x0, **options):
            def objective(x):
                refined.append(1)
                return func(x)
            results.append(nelder_mead(objective, x0, **options))
            return results[-1]

        monkeypatch.setattr(pulses, "gate_distance", counted_distance)
        monkeypatch.setattr(_simplex, "nelder_mead", counted_refinement)
        spec, residual = fit_pulse(target)
        (x, fx), = results
        assert len(distances) == len(refined) > 0
        assert residual == fx
        assert (spec.rabi_angle, spec.phase) == (x[0] % math.tau, x[1] % math.tau)

    def test_in_model_target(self):
        target = single_pulse_unitary(PulseSpec(math.pi / 5, 1.0))
        _, residual = fit_pulse(target)
        assert residual < 1e-8

    def test_phase_gate_recovery(self):
        phi = 0.7
        target = np.diag([-np.exp(-1j * phi), np.exp(1j * phi)])
        spec, residual = fit_pulse(target)
        assert residual < 1e-8
        # pi/2-type rotation angle up to the model's pi-structure symmetry
        assert min(
            abs(spec.canonical_rabi_angle - math.pi / 2),
            abs(spec.canonical_rabi_angle - 3 * math.pi / 2),
        ) < 1e-6

    def test_ideal_hadamard_golden(self):
        # golden value from a one-off pi/4096 exhaustive grid search: the
        # pulse family contains the exact Hadamard at (pi/4, 3*pi/2)
        spec, residual = fit_pulse(IDEAL_H)
        assert residual < 1e-9
        assert spec.rabi_angle == pytest.approx(math.pi / 4, abs=1e-6)
        assert spec.phase == pytest.approx(3 * math.pi / 2, abs=1e-6)

    def test_deterministic(self):
        target = single_pulse_unitary(PulseSpec(2.3, 0.4))
        assert fit_pulse(target) == fit_pulse(target)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            fit_pulse(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_random_model_members(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            target = single_pulse_unitary(
                PulseSpec(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            )
            _, residual = fit_pulse(target)
            assert residual < 1e-8


def _rosenbrock(x):
    return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2


class TestSimplex:
    """dotphase._simplex retraces scipy's Nelder-Mead bit for bit."""

    OPTIONS = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000}

    def assert_matches_scipy(self, func, x0, maxiter=2000):
        minimize = pytest.importorskip("scipy.optimize").minimize
        calls = [0]

        def counted(x):
            calls[0] += 1
            return func(x)

        options = dict(self.OPTIONS, maxiter=maxiter)
        want = minimize(counted, np.array(x0, dtype=float), method="Nelder-Mead",
                        options=options)
        want_calls, calls[0] = calls[0], 0
        x, fx = _simplex.nelder_mead(counted, x0, **options)
        assert [float(v).hex() for v in x] == [float(v).hex() for v in want.x]
        assert float(fx).hex() == float(want.fun).hex()
        assert calls[0] == want_calls

    def fit_targets(self):
        rng = np.random.default_rng(58)
        presets = [IDEAL_H, single_pulse_unitary(hadamard_pulse_params())]
        for phi in rng.uniform(-7, 7, 6):
            presets.append(np.diag([-np.exp(-1j * phi), np.exp(1j * phi)]))
            presets.append(single_pulse_unitary(phase_gate_pulse_params(phi)))
        reachable = [
            np.exp(1j * rng.uniform(0, 6))
            * single_pulse_unitary(PulseSpec(*rng.uniform(-1, 8, 2)))
            for _ in range(10)
        ]
        haar = [_haar(rng) for _ in range(10)]
        return presets + reachable + haar

    def test_fit_objective_matches_scipy(self, monkeypatch):
        # fit_pulse's own objective and start, caught on their way in
        pytest.importorskip("scipy.optimize")
        seen = []
        inner = _simplex.nelder_mead

        def recording(func, x0, **options):
            seen.append((func, x0))
            return inner(func, x0, **options)

        monkeypatch.setattr(_simplex, "nelder_mead", recording)
        targets = self.fit_targets()
        for target in targets:
            fit_pulse(target)
        monkeypatch.undo()
        assert len(seen) == len(targets)
        for func, x0 in seen:
            self.assert_matches_scipy(func, x0)

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [0.0, 1.5], [2.0, 0.0], [-1.2, 1.0]])
    def test_zero_coordinates_and_rosenbrock(self, x0):
        self.assert_matches_scipy(_rosenbrock, x0)

    def test_three_parameters(self):
        def rosenbrock3(x):
            return _rosenbrock(x[:2]) + _rosenbrock(x[1:])

        self.assert_matches_scipy(rosenbrock3, [0.0, -0.5, 1.5])

    @pytest.mark.parametrize("x0", [[0.5, 0.0], [0.0, 0.0], [-2.0, 3.0]])
    def test_shrinks(self, x0):
        self.assert_matches_scipy(lambda x: abs(x[0]) + abs(x[1] - 0.3), x0)

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [1.0, -2.0]])
    def test_ties(self, x0):
        # every vertex ties, or whole regions do: the vertex order then rests
        # on numpy's argsort alone
        self.assert_matches_scipy(lambda x: 1.0, x0)
        self.assert_matches_scipy(
            lambda x: min(3.0, math.floor(4 * abs(x[0])) + math.floor(4 * abs(x[1]))), x0
        )

    def test_tie_order_comes_from_argsort(self):
        # the first simplex reads (1, 1, 0, 0); numpy's argsort of four
        # values may put the second 0 first (it does with AVX-512), where a
        # stable sort keeps the first
        self.assert_matches_scipy(
            lambda x: 0.0 if x[1] >= 0.5 or x[2] >= 0.5 else 1.0, [1.0, 0.49, 0.49]
        )

    @pytest.mark.parametrize("maxiter", [1, 7])
    def test_maxiter(self, maxiter):
        self.assert_matches_scipy(_rosenbrock, [-1.2, 1.0], maxiter=maxiter)
        self.assert_matches_scipy(lambda x: abs(x[0]) + abs(x[1] - 0.3), [0.5, 0.0],
                                  maxiter=maxiter)


class TestFeasibility:
    def test_effective_rabi_value(self):
        pp = PhysicalParams(omega2=0.1, delta=1.0, omega_c=300.0)
        q = effective_rabi(pp)
        assert q.value == pytest.approx(30.0)
        assert q.unit == "MHz"

    def test_effective_rabi_zero_coupling(self):
        assert effective_rabi(PhysicalParams(omega2=0.0)).value == 0.0

    def test_effective_rabi_scales_inversely_with_detuning(self):
        base = effective_rabi(PhysicalParams(delta=1.0)).value
        assert effective_rabi(PhysicalParams(delta=2.0)).value == pytest.approx(base / 2)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValidationError):
            PhysicalParams(delta=0.0)

    def test_separation_factor_device_values(self):
        pp = PhysicalParams(tunneling_t=0.01, level_split_delta=10.0)
        assert separation_factor(pp) == pytest.approx(9.99999e-7, rel=1e-5)

    def test_separation_factor_symmetric_point(self):
        pp = PhysicalParams(tunneling_t=2.0, level_split_delta=2.0)
        assert separation_factor(pp) == pytest.approx(0.5)

    def test_separation_factor_limit(self):
        pp = PhysicalParams(tunneling_t=1.0, level_split_delta=0.0)
        assert separation_factor(pp) == pytest.approx(1.0)

    def test_separation_factor_monotone_in_t(self):
        values = [
            separation_factor(PhysicalParams(tunneling_t=t, level_split_delta=5.0))
            for t in np.linspace(0.001, 10, 40)
        ]
        assert all(0 <= v <= 1 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_protocol_time(self):
        assert protocol_time(1, 1e-4) == 0.0
        assert protocol_time(2, 1e-4) == pytest.approx(1e-4)
        assert protocol_time(450, 1e-4) == pytest.approx(10.1025)

    def test_max_qubits(self):
        assert max_qubits(10.0, 1e-4) == 447
        assert max_qubits(1e-4, 1e-4) == 2
        assert max_qubits(5e-5, 1e-4) == 1

    @pytest.mark.parametrize("coherence, tau", [(1e307, 1.0), (1e300, 1e-7),
                                                (2.0 ** 106, 1.0), (1.0, 1.0)])
    def test_max_qubits_is_the_largest_fit(self, coherence, tau):
        # near and above 2**53 a unit step of n can leave protocol_time equal
        n = max_qubits(coherence, tau)
        assert protocol_time(n, tau) <= coherence < protocol_time(n + 1, tau)

    def test_max_qubits_positive_inputs(self):
        with pytest.raises(DomainError):
            max_qubits(0.0, 1e-4)

    @pytest.mark.parametrize("coherence, tau", [(10.0, 1e-320), (1e308, 1e-4),
                                                (math.nan, 1e-4)])
    def test_max_qubits_ratio_too_large(self, coherence, tau):
        names = f"coherence time {coherence:g} s over two-qubit gate time {tau:g} s"
        with pytest.raises(DomainError, match=re.escape(names)):
            max_qubits(coherence, tau)

    def test_report_flags_over_budget(self):
        pp = PhysicalParams()
        report = pulses.feasibility_report(pp, 450)
        assert report.protocol_time == pytest.approx(10.1025)
        assert any("exceeds the coherence budget" in w for w in report.warnings)
