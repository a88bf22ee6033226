import cmath
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
FIT_GRID = np.arange(512) * (math.tau / 512)


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
    # the overlap grid as one whole-array expression, which the in-place
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


class TestOverlapGrid:
    def grids(self, rng):
        g = FIT_GRID
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

    def test_grid_matches_whole_array_expression(self):
        rng = np.random.default_rng(41)
        for target in self.targets(rng):
            for thetas, phis in self.grids(rng):
                got = pulses._pulse_overlap_grid(target, thetas, phis)
                want = _reference_overlap_grid(target, thetas, phis)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert np.argmax(got) == np.argmax(want)


class TestFitPulse:
    def test_objective_goes_through_module_distance(self, monkeypatch):
        # each objective evaluation is one call of the float core
        # pulses._distance, looked up on the module at each call, so that a
        # tracer can count evaluations by wrapping it
        calls = []
        inner = pulses._distance

        def counting(a, b, dim):
            calls.append(1)
            return inner(a, b, dim)

        monkeypatch.setattr(pulses, "_distance", counting)
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
        distance, nelder_mead = pulses._distance, _simplex.nelder_mead

        def counted_distance(a, b, dim):
            distances.append(1)
            return distance(a, b, dim)

        def counted_refinement(func, x0, **options):
            def objective(x):
                refined.append(1)
                return func(x)
            results.append(nelder_mead(objective, x0, **options))
            return results[-1]

        monkeypatch.setattr(pulses, "_distance", counted_distance)
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

    def test_fits_keep_their_bits(self):
        # the digest was taken before fit_pulse's objective moved onto Python
        # floats and its first pass onto one grid row, with the 32-row first
        # pass and the objective built from PulseSpec, single_pulse_unitary
        # and gate_distance: neither change may move a bit of any fit. The
        # start rests on np.sin and np.exp of the overlap grid, so without
        # numpy's AVX2 loops a tie between grid points can turn the other way
        # and the digest differs there
        fits = []
        for target in _fit_digest_targets():
            spec, residual = fit_pulse(target)
            fits.append((spec.rabi_angle, spec.phase, residual))
        assert len(fits) == 504
        assert hashlib.sha256(np.array(fits).tobytes()).hexdigest() == (
            "1dbc1e6984613cb0a7b17068049d3274665bd600624862680bda03b25f8a9242")


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


def _fit_objective(target, monkeypatch):
    """fit_pulse's objective for ``target``, caught on its way into the
    refinement, which is skipped."""
    seen = []

    def catching(func, x0, **options):
        seen.append(func)
        return tuple(x0), 0.0

    monkeypatch.setattr(_simplex, "nelder_mead", catching)
    fit_pulse(target)
    monkeypatch.undo()
    (func,) = seen
    return func


class TestFitObjective:
    """fit_pulse's objective is pure float arithmetic with the bits of
    gate_distance(single_pulse_unitary(PulseSpec(theta, phi)), target)."""

    SPECIAL = ([0.0, -0.0] + [k * math.pi / 4 for k in range(-8, 9) if k]
               + [5e-324, 1e-300, 710.0, 1e12, 1e15, -1e15])

    def points(self):
        rng = np.random.default_rng(61)
        points = list(itertools.product(self.SPECIAL, self.SPECIAL))
        # magnitudes from 1e-3 to 1e15, either sign
        scaled = rng.choice([-1.0, 1.0], (1500, 2)) * 10.0 ** rng.uniform(-3, 15, (1500, 2))
        return points + [tuple(p) for p in scaled.tolist()]

    def targets(self):
        rng = np.random.default_rng(62)
        haar = [_haar(rng) for _ in range(2)]
        reachable = [
            np.exp(1j * rng.uniform(0, 6))
            * single_pulse_unitary(PulseSpec(*rng.uniform(-1, 8, 2)))
            for _ in range(2)
        ]
        phi = rng.uniform(-7, 7)
        presets = [np.diag([-np.exp(-1j * phi), np.exp(1j * phi)]),
                   single_pulse_unitary(hadamard_pulse_params())]
        ties = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
                IDEAL_H, np.array([[0, -1j], [1j, 0]])]
        return haar + reachable + presets + ties

    def test_matches_unitary_and_distance_bitwise(self, monkeypatch):
        points = self.points()
        assert len(points) >= 2000
        for target in self.targets():
            objective = _fit_objective(target, monkeypatch)
            for th, ph in points:
                got = objective((th, ph))
                want = gate_distance(single_pulse_unitary(PulseSpec(th, ph)), target)
                assert type(got) is float
                assert got.hex() == want.hex(), (target, th, ph)

    def test_parts_rebuild_single_pulse_unitary(self):
        for th, ph in self.points():
            parts = pulses._pulse_parts(th, ph)
            assert all(type(v) is float for pair in parts for v in pair)
            want = single_pulse_unitary(PulseSpec(th, ph))
            assert np.array(parts).tobytes() == want.tobytes(), (th, ph)

    @pytest.mark.parametrize("x", [(math.nan, 0.0), (math.inf, 1.0), (0.5, -math.inf)])
    def test_non_finite_vertex_raises(self, monkeypatch, x):
        # a vertex the refinement could reach only through an overflow or a
        # NaN is refused as PulseSpec refuses it
        raised = []

        def probing(func, x0, **options):
            with pytest.raises(ValidationError) as caught:
                func(x)
            raised.append(str(caught.value))
            return tuple(x0), func(tuple(x0))

        monkeypatch.setattr(_simplex, "nelder_mead", probing)
        fit_pulse(IDEAL_H)
        with pytest.raises(ValidationError) as spec_error:
            PulseSpec(*x)
        assert raised == [str(spec_error.value)] == ["pulse parameters must be finite"]


ANGLES = st.floats(0, math.tau)
FIT_TARGETS = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: _haar(np.random.default_rng(seed))),
    st.tuples(ANGLES, ANGLES, ANGLES).map(
        lambda a: np.exp(1j * a[0]) * single_pulse_unitary(PulseSpec(a[1], a[2]))),
    ANGLES.map(lambda phi: np.diag([-np.exp(-1j * phi), np.exp(1j * phi)])),
)


def _traced_fit(target):
    """The grid rows fit_pulse evaluates, as (row indices, values) per call,
    and the start it hands the refinement."""
    grids, starts = [], []
    overlap, nelder_mead = pulses._pulse_overlap_grid, _simplex.nelder_mead

    def recording_grid(t, thetas, phis):
        assert phis.tobytes() == FIT_GRID.tobytes()
        rows = np.searchsorted(FIT_GRID, thetas)
        assert FIT_GRID[rows].tobytes() == thetas.tobytes()
        grids.append((rows, overlap(t, thetas, phis)))
        return grids[-1][1]

    def recording_refinement(func, x0, **options):
        starts.append(x0)
        return nelder_mead(func, x0, **options)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulses, "_pulse_overlap_grid", recording_grid)
        mp.setattr(_simplex, "nelder_mead", recording_refinement)
        fit_pulse(target)
    (x0,) = starts
    return grids, x0


class TestRowSearch:
    """fit_pulse evaluates only the grid rows that can hold the largest
    overlap, yet starts at the full grid's first argmax."""

    # eye, X and IDEAL_H tie: many grid points share the largest overlap
    @example(np.eye(2, dtype=complex))
    @example(np.array([[0, 1], [1, 0]], dtype=complex))
    @example(IDEAL_H)
    @given(FIT_TARGETS)
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_start_is_the_full_grid_argmax(self, target):
        full = pulses._pulse_overlap_grid(target, FIT_GRID, FIT_GRID)
        ((top, top_values), (rows, values)), x0 = _traced_fit(target)
        # the first pass takes one row, the second no more than the 32 the
        # first pass once took
        assert len(top) == 1
        assert len(rows) <= 32
        # a row has the same bits whichever rows are evaluated beside it
        assert top_values.tobytes() == full[top].tobytes()
        assert values.tobytes() == full[rows].tobytes()
        assert np.all(np.diff(rows) > 0)
        i, j = np.unravel_index(int(np.argmax(full)), full.shape)
        assert [float(v).hex() for v in x0] == [FIT_GRID[i].hex(), FIT_GRID[j].hex()]
        best = top_values.max()
        skipped = np.setdiff1d(np.arange(len(FIT_GRID)), rows)
        assert np.all(full[skipped].max(axis=1) + pulses.ROW_BOUND_SLACK < best)

    @pytest.mark.parametrize("target", [
        IDEAL_H,
        1j * single_pulse_unitary(PulseSpec(2.3, 0.4)),
        _haar(np.random.default_rng(19)),
    ], ids=["hadamard", "reachable", "haar"])
    def test_few_rows_evaluated(self, target):
        # a full-grid fit evaluates all 512 rows
        grids, _ = _traced_fit(target)
        assert sum(len(rows) for rows, _ in grids) < 64


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
