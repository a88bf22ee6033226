import cmath
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from dotphase import pulses
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

    def test_same_bytes_as_numpy_expression(self):
        # the entries are built from Python scalars; they must keep the
        # bytes of the numpy expression they replace, signed zeros included,
        # so that every pulse-literal digest keeps its bits
        def numpy_expression(th, ph):
            s, c = math.sin(th), math.cos(th)
            return np.array(
                [[-1j * np.exp(-1j * ph) * s, c], [c, -1j * np.exp(1j * ph) * s]],
                dtype=np.complex128,
            )

        special = [0.0, math.pi / 4, math.pi / 2, math.pi, 5e-324, 1e300, 1e16, 710.0]
        values = special + [-v for v in special[1:]] + [-0.0]
        rng = np.random.default_rng(16)
        pairs = list(itertools.product(values, values))
        pairs += [tuple(p) for p in rng.uniform(-10, 10, (2000, 2))]
        for th, ph in pairs:
            got = single_pulse_unitary(PulseSpec(th, ph))
            assert got.tobytes() == numpy_expression(th, ph).tobytes(), (th, ph)

    # parameters far outside one period, signed zeros and subnormals among them
    SPECIAL = ([0.0, -0.0] + [k * math.pi / 4 for k in range(-8, 9) if k]
               + [5e-324, 1e-300, 710.0, 1e12, 1e15, -1e15])

    def test_parts_rebuild_single_pulse_unitary(self):
        rng = np.random.default_rng(61)
        points = list(itertools.product(self.SPECIAL, self.SPECIAL))
        # magnitudes from 1e-3 to 1e15, either sign
        scaled = rng.choice([-1.0, 1.0], (1500, 2)) * 10.0 ** rng.uniform(-3, 15, (1500, 2))
        for th, ph in points + [tuple(p) for p in scaled.tolist()]:
            parts = pulses._pulse_parts(th, ph)
            assert all(type(v) is float for pair in parts for v in pair)
            want = single_pulse_unitary(PulseSpec(th, ph))
            assert np.array(parts).tobytes() == want.tobytes(), (th, ph)

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

    def test_same_bytes_as_numpy_expression(self):
        # the {g1, e0} block is the single pulse's entries (_pulse_parts)
        # with its columns swapped; it must keep the bytes of the np.exp
        # expression it replaces, signed zeros included
        def numpy_expression(th, ph):
            s, c = math.sin(th), math.cos(th)
            u = np.eye(4, dtype=np.complex128)
            u[1, 1] = c
            u[2, 1] = -1j * np.exp(1j * ph) * s
            u[1, 2] = -1j * np.exp(-1j * ph) * s
            u[2, 2] = c
            return u

        special = TestSinglePulseUnitary.SPECIAL + [math.pi, 1e16, 1e300, -5e-324]
        rng = np.random.default_rng(62)
        points = list(itertools.product(special, special))
        points += [tuple(p) for p in rng.uniform(-10, 10, (2000, 2)).tolist()]
        scaled = rng.choice([-1.0, 1.0], (1000, 2)) * 10.0 ** rng.uniform(-3, 15, (1000, 2))
        for th, ph in points + [tuple(p) for p in scaled.tolist()]:
            got = cavity_pulse_unitary(PulseSpec(th, ph))
            assert got.tobytes() == numpy_expression(th, ph).tobytes(), (th, ph)


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


def _reference_distance(a, b):
    # the Frobenius norm at the optimal phase as numpy's BLAS trace and
    # np.linalg.norm give it
    tr = np.trace(a.conj().T @ b)
    if abs(tr) < 1e-300:
        return math.sqrt(2.0 * a.shape[0])
    z = np.conj(tr) / abs(tr)
    return float(np.linalg.norm(a - z * b))


def _sum_in_order(terms):
    # left to right from +0.0, as a Python loop sums: np.add.accumulate is
    # a sequential scan, unlike np.sum's pairwise blocks
    return np.add.accumulate(np.concatenate([[0.0], terms]))[-1]


def _elementwise_distance(a, b):
    # gate_distance's arithmetic written on numpy float arrays: each
    # entry's float products and sums elementwise on real and imaginary
    # parts, summed in C order, with no BLAS and no complex ufunc
    ar, ai = a.real.ravel(), a.imag.ravel()
    br, bi = b.real.ravel(), b.imag.ravel()
    tr_re = _sum_in_order(ar * br + ai * bi)
    tr_im = _sum_in_order(ar * bi - ai * br)
    r = math.hypot(tr_re, tr_im)
    if r < 1e-300:
        return math.sqrt(2.0 * a.shape[0])
    z_re, z_im = tr_re / r, -tr_im / r
    d_re = ar - (z_re * br - z_im * bi)
    d_im = ai - (z_re * bi + z_im * br)
    return float(np.sqrt(_sum_in_order(d_re * d_re + d_im * d_im)))


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

    def test_matches_elementwise_oracle_bitwise(self):
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
        got = []
        for a, b in pairs:
            d = gate_distance(a, b)
            assert type(d) is float
            assert np.float64(d).tobytes() == np.float64(_elementwise_distance(a, b)).tobytes()
            ref = _reference_distance(a, b)
            assert abs(d - ref) <= 4 * np.spacing(ref)
            got.append(d)
        # pure float arithmetic: the same bits on every host, whatever its
        # BLAS kernel or SIMD level
        assert hashlib.sha256(np.array(got).tobytes()).hexdigest() == (
            "00daaca65c74688e1ccaf6503db78bb3c5366ef6edb30859f88030240ebbd842")

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


class TestFitPulse:
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

    @pytest.mark.parametrize("big", [1.23e154, 1e200, 1.7e308])
    def test_overflowing_products_are_not_unitary(self, big):
        # finite entries whose products in T^H T pass the float range: the
        # judge's moduli come from math.hypot, which gives inf where abs()
        # of a complex would raise OverflowError
        targets = [[[big, complex(big, big)], [0, 1]],
                   [[big, big], [big, big]],
                   [[complex(big, -big), complex(big, big)], [complex(-big, big), 1]]]
        for target in targets:
            with pytest.raises(ValidationError,
                               match=r"^target is not unitary \(deviation inf\)$"):
                fit_pulse(np.array(target, dtype=np.complex128))

    def test_random_model_members(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            target = single_pulse_unitary(
                PulseSpec(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            )
            _, residual = fit_pulse(target)
            assert residual < 1e-8

    def test_optimal_against_a_phase_grid(self):
        # no point of a 4096-phase grid, each phase at its best rabi angle,
        # fits better; the residual is the distance of the returned pulse
        targets = _fit_oracle_targets()
        assert len(targets) >= 2000
        for target in targets:
            spec, residual = fit_pulse(target)
            assert type(residual) is float
            assert residual <= _grid_oracle_distance(target) + 1e-12, target
            want = gate_distance(single_pulse_unitary(spec), target)
            assert residual.hex() == want.hex(), target

    def test_canonical_range(self):
        # U(theta + pi, phi) = U(pi - theta, phi + pi) = -U(theta, phi), so
        # these ranges hold one pulse of each pair that differs by a sign
        for target in _fit_oracle_targets():
            spec, _ = fit_pulse(target)
            assert 0.0 <= spec.rabi_angle <= math.pi / 2, target
            assert 0.0 <= spec.phase < math.tau, target

    def test_global_phase_leaves_the_residual(self):
        rng = np.random.default_rng(71)
        targets = _fit_oracle_targets()
        for target, alpha in zip(targets, rng.uniform(-7, 7, len(targets))):
            _, residual = fit_pulse(target)
            _, turned = fit_pulse(np.exp(1j * alpha) * target)
            assert abs(turned - residual) <= 1e-15, (target, alpha)

    def test_signed_zeros_give_one_fit(self):
        # t00 conj(t11) of this H lies on arg's branch cut, with either
        # signed zero as its imaginary part
        h = 1 / SQRT2
        fits = {fit_pulse(np.array([[h, h], [h, complex(-h, z)]])) for z in (0.0, -0.0)}
        assert len(fits) == 1

    def test_fits_keep_their_bits(self):
        # the digest of the closed form, which reads the same with numpy's
        # default loops, with its AVX2 loops off and under OpenBLAS's Haswell
        # kernels: every value comes from math and cmath on Python floats
        fits = []
        for target in _fit_digest_targets():
            spec, residual = fit_pulse(target)
            fits.append((spec.rabi_angle, spec.phase, residual))
        assert len(fits) == 504
        assert hashlib.sha256(np.array(fits).tobytes()).hexdigest() == (
            "ee2e0529eb891f7ac2420efbdc351a833bae9b4479667ea917584ad193efbe70")


def _grid_oracle_distance(target, phases=4096):
    """The smallest distance from target to a pulse on a grid of phases,
    each at the top eigenvector over (sin theta, cos theta) of the real Gram
    form of |sin(theta) A + cos(theta) B|, the distance evaluated at the
    optimal global phase directly rather than as sqrt(4 - 2|trace|)."""
    ph = np.arange(phases) * (math.tau / phases)
    (t00, t01), (t10, t11) = target
    a = 1j * (np.exp(1j * ph) * t00 + np.exp(-1j * ph) * t11)
    b = t01 + t10
    cross = np.real(a * np.conj(b))
    th = math.pi / 2 - 0.5 * np.arctan2(2 * cross, np.abs(a) ** 2 - abs(b) ** 2)
    s, c = np.sin(th), np.cos(th)
    u = [-1j * np.exp(-1j * ph) * s, c, c, -1j * np.exp(1j * ph) * s]
    tr = s * a + c * b
    # where no pulse overlaps the target, every global phase is as good
    z = np.exp(-1j * np.angle(tr))
    sq = sum(np.abs(x - z * t) ** 2 for x, t in zip(u, (t00, t01, t10, t11)))
    return float(np.sqrt(sq).min())


def _fit_oracle_targets():
    """2047 seeded unitary targets: I, X, iX, Y, Z, S, H, the CLI presets
    at several angles, targets e^{i alpha} [[p, -conj(q)], [q, conj(p)]] with
    |p| in {0, 1e-12, 1e-6} or with Im q = 0, pulses times a global phase,
    and Haar-random unitaries."""
    rng = np.random.default_rng(72)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    targets = [np.eye(2, dtype=complex), x, 1j * x, np.array([[0, -1j], [1j, 0]]),
               np.diag([1.0 + 0j, -1.0]), np.diag([1.0, 1j]), IDEAL_H,
               single_pulse_unitary(hadamard_pulse_params())]
    for phi in [0.0, 0.7, 0.6 * math.pi, math.pi, -2.5] + rng.uniform(-7, 7, 8).tolist():
        targets.append(np.diag([1.0, cmath.exp(1j * phi)]))
        targets.append(np.diag([-cmath.exp(-1j * phi), cmath.exp(1j * phi)]))
        targets.append(single_pulse_unitary(phase_gate_pulse_params(phi)))

    def su2(p, q, alpha):
        return cmath.exp(1j * alpha) * np.array([[p, -q.conjugate()], [q, p.conjugate()]])

    for r in [0.0, 1e-12, 1e-6]:
        for beta, gamma, alpha in rng.uniform(-7, 7, (150, 3)).tolist():
            targets.append(su2(cmath.rect(r, beta),
                               cmath.rect(math.sqrt(1 - r * r), gamma), alpha))
    real_q = rng.uniform(-1, 1, 150).tolist()
    for q, (beta, alpha) in zip(real_q, rng.uniform(-7, 7, (150, 2)).tolist()):
        targets.append(su2(cmath.rect(math.sqrt(1 - q * q), beta), complex(q), alpha))
    for alpha, th, ph in rng.uniform(-8, 8, (600, 3)).tolist():
        targets.append(cmath.exp(1j * alpha) * single_pulse_unitary(PulseSpec(th, ph)))
    targets += [_haar(rng) for _ in range(800)]
    return targets


def _fit_digest_targets():
    """504 fit targets built on Python floats, so with the same bits on every
    host: the tie targets I, X, Y, H and S, the Hadamard step's pulse, 49
    phase gates each as the ideal gate and as its pulse, 200 pulses times a
    global phase, and 200 Haar-random unitaries from normalised quaternions
    times a global phase."""
    rng = np.random.default_rng(31)
    h = 1 / SQRT2
    targets = [
        [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[h, h], [h, -h]],
        [[1, 0], [0, 1j]], single_pulse_unitary(hadamard_pulse_params()).tolist(),
    ]
    for phi in rng.uniform(-7, 7, 49).tolist():
        targets.append([[-cmath.exp(-1j * phi), 0], [0, cmath.exp(1j * phi)]])
        targets.append(single_pulse_unitary(phase_gate_pulse_params(phi)).tolist())
    for alpha, th, ph in rng.uniform(-1, 8, (200, 3)).tolist():
        g = cmath.exp(1j * alpha)
        targets.append([[g * x for x in row]
                        for row in single_pulse_unitary(PulseSpec(th, ph)).tolist()])
    for q, alpha in zip(rng.normal(size=(200, 4)).tolist(), rng.uniform(0, 7, 200).tolist()):
        n = math.sqrt(sum(v * v for v in q))
        a, b = complex(q[0] / n, q[1] / n), complex(q[2] / n, q[3] / n)
        g = cmath.exp(1j * alpha)
        targets.append([[g * a, -g * b.conjugate()], [g * b, g * a.conjugate()]])
    return [np.array(t, dtype=np.complex128) for t in targets]


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

    def test_max_qubits_past_the_float_range(self):
        # protocol_time refuses a time past the float range (4 qubits at
        # 1e308 s a gate); max_qubits counts such a run as over budget
        with pytest.raises(DomainError, match="protocol time has no finite value"):
            protocol_time(4, 1e308)
        assert max_qubits(1.0, 1e308) == 1
        assert max_qubits(1e300, 1e307) == 1

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
