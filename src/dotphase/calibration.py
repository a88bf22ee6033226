"""Timepiece and length calibration through the electro-optic phase relation.

An unknown duration T maps linearly to an optical phase via the Pockels
effect; phase estimation recovers the fractional turn, and the clock under
test is judged by comparing its implied full-circle time against an ideal
clock.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, ValidationError, finite_result


@dataclass(frozen=True)
class ElectroOpticParams:
    """Crystal and field constants of the phase modulator.

    n_vac is kept as a free parameter rather than pinned to 1 or c/v; the
    two published forms of the relation coincide when n_vac = c/v.
    """

    varpi: float              # angular frequency of the electric field, rad/s
    n0: float                 # crystal refractive index
    n_vac: float              # second refractive index factor
    r63: float                # electro-optic tensor component, m/V
    e_field: float            # applied field, V/m
    v: float = 1.9854e8       # light speed in crystal, m/s
    c: float = 299792458.0    # vacuum light speed, m/s

    def __post_init__(self):
        for name in ("varpi", "n0", "n_vac", "r63", "e_field", "v", "c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive, got {value}")
        # past the float range the product is inf, or 0, which no time divides
        if not 0 < self.rate < math.inf:
            raise DomainError(f"phase rate must be finite and positive, got {self.rate}")

    @property
    def rate(self) -> float:
        """Phase accumulation rate: varpi * n0^2 * n_vac * r63 * E, rad/s;
        inf past the float range, where n0 ** 2 raises OverflowError."""
        try:
            return self.varpi * self.n0 ** 2 * self.n_vac * self.r63 * self.e_field
        except OverflowError:
            return math.inf


class Verdict(str, Enum):
    ACCURATE = "accurate"
    INCREASE_FREQUENCY = "increase-frequency"
    DECREASE_FREQUENCY = "decrease-frequency"


class ComparisonMode(str, Enum):
    # literal rule: accurate iff eta' <= eta; deviation rule compares
    # distances from 100%
    LITERAL = "literal"
    DEVIATION = "deviation"


@dataclass
class ClockCalibration:
    T: float
    O: int
    h: int
    T_total: float
    T_ideal: float
    eta_percent: float
    eta_prime_percent: float
    verdict: Verdict
    comparison_mode: ComparisonMode


def time_to_phase(T: float, eo: ElectroOpticParams) -> tuple[float, float]:
    """Map a duration to (phi1, varphi): phi1 = rate*T/2, varphi its turn
    fraction (phi1 - pi/2) / 2pi. The protocol encodes one fractional turn,
    so varphi must land in [0, 1)."""
    if T < 0:
        raise DomainError(f"duration must be >= 0, got {T}")
    phi1 = eo.rate * T / 2.0
    varphi = (phi1 - math.pi / 2) / math.tau
    if not (0.0 <= varphi < 1.0):
        raise DomainError(
            f"duration encodes varphi = {varphi:.6g} outside [0, 1); "
            "pre-reduce T by the clock's own scale"
        )
    return phi1, varphi


def phase_to_time(varphi: float, eo: ElectroOpticParams) -> float:
    """Exact inverse of time_to_phase."""
    if not (0.0 <= varphi < 1.0):
        raise DomainError(f"varphi must lie in [0, 1), got {varphi}")
    # a positive but subnormal rate can still overflow the quotient
    return finite_result("duration",
                         lambda: (math.tau * varphi + math.pi / 2) * 2.0 / eo.rate)


def phase_resolution_time(m: int, eo: ElectroOpticParams) -> float:
    """Duration quantization step for an m-bit estimate (one grid spacing)."""
    return finite_result("duration resolution",
                         lambda: math.tau / 2 ** m * 2.0 / eo.rate)


def clock_total_time(T: float, O: int, h: int) -> float:
    """Full-circle time of clock 2: O*T/h for h of O scales elapsed during T."""
    if h < 1:
        raise DomainError(f"elapsed scales must be >= 1, got {h}")
    if O < h:
        raise DomainError(f"total scales {O} must be >= elapsed scales {h}")
    return finite_result("clock total time", lambda: O * T / h)


def calibration_verdict(
    T_total: float,
    T_ideal: float,
    eta_percent: float,
    comparison_mode: ComparisonMode = ComparisonMode.DEVIATION,
) -> tuple[Verdict, float]:
    """Judge clock 2 against the ideal clock; returns (verdict, eta')."""
    if T_ideal <= 0:
        raise DomainError(f"ideal period must be positive, got {T_ideal}")
    comparison_mode = ComparisonMode(comparison_mode)
    eta_prime = finite_result("eta'", lambda: T_total / T_ideal * 100.0)
    if T_total == T_ideal:
        return Verdict.ACCURATE, eta_prime
    if comparison_mode == ComparisonMode.LITERAL:
        accurate = eta_prime <= eta_percent
    else:
        accurate = abs(eta_prime - 100.0) <= abs(eta_percent - 100.0)
    if accurate:
        return Verdict.ACCURATE, eta_prime
    if T_total < T_ideal:
        return Verdict.INCREASE_FREQUENCY, eta_prime
    return Verdict.DECREASE_FREQUENCY, eta_prime


def calibrate_clock(
    T: float,
    O: int,
    h: int,
    T_ideal: float,
    eta_percent: float = 100.0,
    comparison_mode: ComparisonMode = ComparisonMode.DEVIATION,
) -> ClockCalibration:
    """Full calibration record for one measured duration."""
    for name, value in (("T", T), ("T_ideal", T_ideal), ("eta_percent", eta_percent)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if T < 0:
        raise DomainError(f"duration must be >= 0, got {T}")
    T_total = clock_total_time(T, O, h)
    verdict, eta_prime = calibration_verdict(
        T_total, T_ideal, eta_percent, comparison_mode
    )
    return ClockCalibration(
        T=T,
        O=O,
        h=h,
        T_total=T_total,
        T_ideal=T_ideal,
        eta_percent=eta_percent,
        eta_prime_percent=eta_prime,
        verdict=verdict,
        comparison_mode=ComparisonMode(comparison_mode),
    )


def length_estimate(v: float, T: float) -> float:
    """Crystal length implied by traversal at speed v for duration T."""
    if v < 0 or T < 0:
        raise DomainError("speed and duration must be nonnegative")
    return finite_result("length estimate", lambda: v * T)
