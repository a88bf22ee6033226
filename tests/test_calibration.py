import math
import sys

import numpy as np
import pytest

from dotphase import calibration as cal
from dotphase import qpe
from dotphase.calibration import ComparisonMode, ElectroOpticParams, Verdict
from dotphase.errors import DomainError, ValidationError

TWO_PI = 2 * math.pi


def unit_rate_params():
    """Parameters whose phase-rate product is exactly 1 rad/s."""
    return ElectroOpticParams(varpi=1.0, n0=1.0, n_vac=1.0, r63=1.0, e_field=1.0)


def subnormal_rate_params():
    """Parameters whose phase rate, about 1e-320 rad/s, is subnormal."""
    eo = ElectroOpticParams(varpi=1e-160, n0=1.0, n_vac=1.0, r63=1e-160, e_field=1.0)
    assert 0 < eo.rate < sys.float_info.min
    return eo


def random_params(rng):
    return ElectroOpticParams(
        varpi=rng.uniform(1e8, 1e11),
        n0=rng.uniform(1.2, 2.5),
        n_vac=rng.uniform(0.9, 1.6),
        r63=rng.uniform(1e-12, 5e-11),
        e_field=rng.uniform(1e4, 1e7),
    )


class TestTimeToPhase:
    def test_offset_point(self):
        eo = unit_rate_params()
        phi1, varphi = cal.time_to_phase(math.pi, eo)
        assert phi1 == pytest.approx(math.pi / 2)
        assert varphi == pytest.approx(0.0)

    def test_linear_in_duration(self):
        eo = unit_rate_params()
        t = 2 * math.pi  # both t and 2t keep varphi inside [0, 1)
        assert cal.time_to_phase(2 * t, eo)[0] == pytest.approx(
            2 * cal.time_to_phase(t, eo)[0]
        )

    def test_five_eighths_turn(self):
        eo = unit_rate_params()
        target_phi1 = TWO_PI * 5 / 8 + math.pi / 2
        _, varphi = cal.time_to_phase(2 * target_phi1, eo)
        assert varphi == pytest.approx(0.625)

    def test_out_of_range(self):
        eo = unit_rate_params()
        with pytest.raises(DomainError):
            cal.time_to_phase(0.0, eo)  # varphi < 0
        with pytest.raises(DomainError):
            cal.time_to_phase(1000.0, eo)  # varphi >= 1

    def test_negative_duration(self):
        with pytest.raises(DomainError, match=r"^duration must be >= 0, got -1\.0$"):
            cal.time_to_phase(-1.0, unit_rate_params())


class TestPhaseToTime:
    def test_offset_point(self):
        eo = unit_rate_params()
        assert cal.phase_to_time(0.0, eo) == pytest.approx(math.pi)

    def test_unit_product_arithmetic(self):
        eo = unit_rate_params()
        assert cal.phase_to_time(0.625, eo) == pytest.approx(3.5 * math.pi)

    def test_round_trip(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            eo = random_params(rng)
            t_lo = cal.phase_to_time(0.0, eo)
            t_hi = cal.phase_to_time(0.999999, eo)
            t = rng.uniform(t_lo, t_hi)
            _, varphi = cal.time_to_phase(t, eo)
            assert cal.phase_to_time(varphi, eo) == pytest.approx(t, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            cal.phase_to_time(1.0, unit_rate_params())

    def test_positive_params_enforced(self):
        with pytest.raises(ValidationError):
            ElectroOpticParams(varpi=0.0, n0=1.0, n_vac=1.0, r63=1.0, e_field=1.0)

    def test_overflowing_rate(self):
        # n0 ** 2 raises OverflowError above about 1.34e154, where a product
        # would give inf: the parameters are refused as any infinite rate is
        with pytest.raises(DomainError,
                           match=r"^phase rate must be finite and positive, got inf$"):
            ElectroOpticParams(varpi=1.0, n0=1e200, n_vac=1.0, r63=1.0, e_field=1.0)

    def test_subnormal_rate(self):
        # the rate is positive, so the parameters pass, but the duration it
        # implies overflows
        eo = subnormal_rate_params()
        with pytest.raises(DomainError, match="^duration has no finite value"):
            cal.phase_to_time(0.5, eo)


class TestPhaseResolutionTime:
    def test_subnormal_rate(self):
        with pytest.raises(DomainError, match="^duration resolution has no finite value"):
            cal.phase_resolution_time(3, subnormal_rate_params())


class TestClockTotalTime:
    def test_full_circle(self):
        assert cal.clock_total_time(1.0, 60, 60) == pytest.approx(1.0)

    def test_quarter(self):
        assert cal.clock_total_time(0.5, 60, 15) == pytest.approx(2.0)
        assert cal.clock_total_time(1.0, 100, 25) == pytest.approx(4.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            cal.clock_total_time(1.0, 60, 0)
        with pytest.raises(DomainError):
            cal.clock_total_time(1.0, 10, 20)


class TestVerdict:
    # nine boundary cases: T_total {<, =, >} T_ideal crossed with eta
    # tight/loose/exact, evaluated in both comparison modes
    CASES = [
        # (T_total, T_ideal, eta, literal verdict, deviation verdict)
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

    @pytest.mark.parametrize("t_total,t_ideal,eta,lit,dev", CASES)
    def test_truth_table(self, t_total, t_ideal, eta, lit, dev):
        got_lit, _ = cal.calibration_verdict(t_total, t_ideal, eta, ComparisonMode.LITERAL)
        got_dev, _ = cal.calibration_verdict(t_total, t_ideal, eta, ComparisonMode.DEVIATION)
        assert got_lit == lit
        assert got_dev == dev

    def test_eta_prime(self):
        _, eta_prime = cal.calibration_verdict(0.9, 1.0, 100.0)
        assert eta_prime == pytest.approx(90.0)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            t_total = rng.uniform(0.5, 1.5)
            eta = rng.uniform(80, 120)
            scale = rng.uniform(0.01, 100)
            for mode in ComparisonMode:
                a, _ = cal.calibration_verdict(t_total, 1.0, eta, mode)
                b, _ = cal.calibration_verdict(scale * t_total, scale, eta, mode)
                assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            cal.calibration_verdict(1.0, 0.0, 100.0)

    def test_full_record(self):
        record = cal.calibrate_clock(
            T=0.5, O=60, h=15, T_ideal=2.0, eta_percent=100.0
        )
        assert record.T_total == pytest.approx(2.0)
        assert record.verdict == Verdict.ACCURATE

    def test_negative_duration(self, monkeypatch):
        # refused before any arithmetic, not judged as a fast clock
        monkeypatch.setattr(cal, "clock_total_time", None)
        with pytest.raises(DomainError, match=r"^duration must be >= 0, got -1\.0$"):
            cal.calibrate_clock(T=-1.0, O=1, h=1, T_ideal=1.0)


class TestLengthEstimate:
    def test_zero_speed(self):
        assert cal.length_estimate(0.0, 1.0) == 0.0

    def test_arithmetic(self):
        assert cal.length_estimate(2e8, 1e-9) == pytest.approx(0.2)

    def test_linearity(self):
        assert cal.length_estimate(2e8, 2e-9) == pytest.approx(
            2 * cal.length_estimate(2e8, 1e-9)
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            cal.length_estimate(-1.0, 1.0)


class TestEndToEnd:
    def test_duration_recovery_through_qpe(self):
        m = 10
        rng = np.random.default_rng(32)
        eo = unit_rate_params()
        t_lo, t_hi = cal.phase_to_time(0.0, eo), cal.phase_to_time(0.999, eo)
        step = cal.phase_resolution_time(m, eo)
        for _ in range(10):
            t_true = rng.uniform(t_lo, t_hi)
            _, varphi = cal.time_to_phase(t_true, eo)
            dist = qpe.exact_distribution(m, TWO_PI * varphi)
            j = int(np.argmax(dist))
            t_hat = cal.phase_to_time(j / 2 ** m, eo)
            assert abs(t_hat - t_true) <= step + 1e-12

    def test_exact_for_representable_duration(self):
        m = 8
        eo = unit_rate_params()
        varphi = 37 / 2 ** m
        t_true = cal.phase_to_time(varphi, eo)
        _, varphi_back = cal.time_to_phase(t_true, eo)
        dist = qpe.exact_distribution(m, TWO_PI * varphi_back)
        j = int(np.argmax(dist))
        assert j == 37
        assert cal.phase_to_time(j / 2 ** m, eo) == pytest.approx(t_true, rel=1e-12)
