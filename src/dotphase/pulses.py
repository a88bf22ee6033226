"""Pulse-level gate physics for the double-dot charge qubit.

Single-qubit pulses act on {|g>, |e>}; the qubit-cavity pulse acts on the
ordered basis {|g0>, |g1>, |e0>, |e1>}. Pulse dynamics depend only on the
dimensionless Rabi angle (Omega * t) and the laser phase, so those are the
stored quantities; absolute frequencies and times enter only the
feasibility arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

# Spacing of fit_pulse's coarse grid over (rabi angle, phase), radians
FIT_GRID_STEP = math.pi / 256


@dataclass(frozen=True)
class PulseSpec:
    """Rabi angle (Omega*t) and laser phase of one resonant pulse, radians."""

    rabi_angle: float
    phase: float

    def __post_init__(self):
        if not (math.isfinite(self.rabi_angle) and math.isfinite(self.phase)):
            raise ValidationError("pulse parameters must be finite")

    @property
    def canonical_rabi_angle(self) -> float:
        return self.rabi_angle % math.tau


class Quantity(NamedTuple):
    """A number with an explicit unit tag."""

    value: float
    unit: str


@dataclass
class PhysicalParams:
    """Device constants for the feasibility arithmetic.

    Energies in meV, cavity coupling in MHz, times in seconds.
    """

    # no formula reads omega1; it stays because existing configs and reports
    # send it (the feasibility subcommand's omega1_mev key)
    omega1: float = 1e-4          # meV
    omega2: float = 0.1           # meV
    omega_c: float = 300.0        # MHz
    delta: float = 1.0            # meV, laser detuning
    tunneling_t: float = 0.01     # meV
    level_split_delta: float = 10.0  # meV, E_e - E_i
    coherence_time: float = 10.0  # s
    single_gate_time: float = 3e-7  # s
    two_gate_time: float = 1e-4   # s

    def __post_init__(self):
        for name in (
            "omega1", "omega2", "omega_c", "delta", "tunneling_t",
            "level_split_delta", "coherence_time", "single_gate_time",
            "two_gate_time",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.delta == 0:
            raise ValidationError("detuning delta must be nonzero")
        for name in ("coherence_time", "single_gate_time", "two_gate_time"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


@dataclass
class FeasibilityReport:
    gamma: float
    omega_eff: Quantity
    single_gate_time: float
    two_gate_time: float
    protocol_time: float
    max_qubits: int
    requested_qubits: int
    warnings: list = field(default_factory=list)


def single_pulse_unitary(p: PulseSpec) -> np.ndarray:
    """2x2 evolution of one resonant pulse.

    |g> -> -i e^{-i phi} sin(theta) |g> + cos(theta) |e>
    |e> ->    cos(theta) |g> - i e^{i phi} sin(theta) |e>
    """
    th, ph = p.rabi_angle, p.phase
    s, c = math.sin(th), math.cos(th)
    return np.array(
        [
            [-1j * np.exp(-1j * ph) * s, c],
            [c, -1j * np.exp(1j * ph) * s],
        ],
        dtype=np.complex128,
    )


def cavity_pulse_unitary(p: PulseSpec) -> np.ndarray:
    """4x4 qubit-cavity evolution on {g0, g1, e0, e1}.

    |g0> and |e1> are exact fixed points; {|g1>, |e0>} undergo a Rabi
    rotation by the effective angle with laser phase p.phase.
    """
    th, ph = p.rabi_angle, p.phase
    s, c = math.sin(th), math.cos(th)
    u = np.eye(4, dtype=np.complex128)
    u[1, 1] = c
    u[2, 1] = -1j * np.exp(1j * ph) * s
    u[1, 2] = -1j * np.exp(-1j * ph) * s
    u[2, 2] = c
    return u


def hadamard_pulse_params() -> PulseSpec:
    """Prescribed pulse for the Hadamard step: theta = pi/4, phi = pi/2."""
    return PulseSpec(rabi_angle=math.pi / 4, phase=math.pi / 2)


def phase_gate_pulse_params(phi: float) -> PulseSpec:
    """Prescribed pulse for a phi phase gate: theta = pi/2, phase = phi + pi/2.

    The generated matrix is diag(-e^{-i phi}, e^{i phi}).
    """
    if not math.isfinite(phi):
        raise ValidationError("phi must be finite")
    return PulseSpec(rabi_angle=math.pi / 2, phase=phi + math.pi / 2)


def gate_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance minimized over a global phase.

    sqrt(2*dim - 2*|trace(a^dag b)|); zero iff a = e^{i alpha} b.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"incompatible shapes {a.shape}, {b.shape}")
    dim = a.shape[0]
    tr = (a.conj().T @ b).trace()
    if abs(tr) < 1e-300:
        return math.sqrt(2.0 * dim)
    # evaluate at the optimal phase directly; the sqrt(2*dim - 2*|tr|) form
    # loses half the significant digits near zero
    z = np.conj(tr) / abs(tr)
    # the Frobenius norm as np.linalg.norm takes it, without its argument
    # handling: the same two dot products, so the same bits
    d = (a - z * b).ravel()
    re, im = d.real, d.imag
    return math.sqrt(re.dot(re) + im.dot(im))


# Amplitudes per block of _pulse_overlap_grid: 2^14 complex values are
# 256 KiB, so a block's two buffers stay in a core's L2 cache. Median time
# of fit_pulse's 512 x 512 grid by rows per block, 150 interleaved calls
# each on a 2-CPU Xeon (2 MiB L2 per core) with numpy 2.4.6: 8 rows 7.7 ms,
# 16 rows 5.1 ms, 32 rows 4.8 ms, 64 rows 5.0 ms, 128 rows 5.7 ms, and
# 10.5 ms for the whole grid as one expression.
OVERLAP_BLOCK = 1 << 14


def _pulse_overlap_grid(target: np.ndarray, thetas: np.ndarray, phis: np.ndarray):
    """|trace(U(theta,phi)^dag target)| on a parameter grid, vectorized.

    The trace is the sum of each U entry's conjugate times the matching
    target entry. It is built a block of theta rows at a time in two
    reused buffers, with the operations, operand order and broadcast shapes
    of the whole-grid expression, so every value has the same bits; only
    the returned float grid spans the whole grid.
    """
    th = thetas[:, None]
    ph = phis[None, :]
    s, c = np.sin(th), np.cos(th)
    u00 = -1j * np.exp(-1j * ph)
    u11 = -1j * np.exp(1j * ph)
    rows = max(1, OVERLAP_BLOCK // len(phis))
    a = np.empty((rows, len(phis)), dtype=np.complex128)
    b = np.empty_like(a)
    out = np.empty((len(thetas), len(phis)))
    for i in range(0, len(thetas), rows):
        j = min(i + rows, len(thetas))
        ab, bb = a[: j - i], b[: j - i]
        np.multiply(u00, s[i:j], out=ab)
        np.conjugate(ab, out=ab)
        np.multiply(ab, target[0, 0], out=ab)
        ab += c[i:j] * target[1, 0]
        ab += c[i:j] * target[0, 1]
        np.multiply(u11, s[i:j], out=bb)
        np.conjugate(bb, out=bb)
        np.multiply(bb, target[1, 1], out=bb)
        ab += bb
        np.abs(ab, out=out[i:j])
    return out


def fit_pulse(target: np.ndarray) -> tuple[PulseSpec, float]:
    """Best single-pulse parameters reproducing ``target`` up to global phase.

    Deterministic coarse grid over [0, 2pi)^2 followed by Nelder-Mead
    refinement; ties broken toward the smallest rabi angle, then phase.
    Always returns the best point found, even when the residual is large.
    The refinement is ``dotphase._simplex``, one fixed algorithm (scipy
    1.17.1's), so the result does not depend on which scipy, if any, is
    installed.
    """
    from ._simplex import nelder_mead

    target = np.asarray(target, dtype=np.complex128)
    if target.shape != (2, 2):
        raise DimensionError("target must be 2x2")
    if not np.all(np.isfinite(target)):
        raise ValidationError("target has a non-finite entry")
    dev = np.max(np.abs(target.conj().T @ target - np.eye(2)))
    # written so that a NaN deviation fails too
    if not dev <= 1e-10:
        raise ValidationError(f"target is not unitary (deviation {dev:.3e})")

    npts = int(math.ceil(math.tau / FIT_GRID_STEP))
    grid = np.arange(npts) * (math.tau / npts)
    tr = _pulse_overlap_grid(target, grid, grid)
    # argmax of |tr| = argmin of distance; first flat index wins, which is
    # the smallest theta then smallest phi by construction
    i, j = np.unravel_index(int(np.argmax(tr)), tr.shape)
    x0 = np.array([grid[i], grid[j]])

    def objective(x):
        return gate_distance(
            single_pulse_unitary(PulseSpec(float(x[0]), float(x[1]))), target
        )

    # x0 is the first vertex and no step drops the best one, so x is never
    # worse than x0, and fx is the objective at x
    x, fx = nelder_mead(objective, x0, xatol=1e-10, fatol=1e-12, maxiter=2000)
    return PulseSpec(x[0] % math.tau, x[1] % math.tau), fx


def effective_rabi(pp: PhysicalParams) -> Quantity:
    """Effective two-photon Rabi frequency Omega_c * (Omega_2 / delta).

    Omega_2 and delta share the meV unit, so the ratio is dimensionless and
    the result carries the unit of Omega_c (MHz).
    """
    if pp.delta == 0:
        raise DomainError("delta must be nonzero")
    return Quantity(pp.omega_c * (pp.omega2 / pp.delta), "MHz")


def separation_factor(pp: PhysicalParams) -> float:
    """Spatial separation factor t^2 / (Delta^2 + t^2), in [0, 1]."""
    t, d = pp.tunneling_t, pp.level_split_delta
    if t == 0 and d == 0:
        raise DomainError("separation factor undefined for t = Delta = 0")
    return t * t / (d * d + t * t)


def protocol_time(n: int, two_gate_time: float) -> float:
    """Total two-qubit-gate time n(n-1)/2 * tau for an n-qubit run."""
    if n < 1:
        raise DomainError(f"qubit count must be >= 1, got {n}")
    return n * (n - 1) / 2 * two_gate_time


def max_qubits(coherence_time: float, two_gate_time: float) -> int:
    """Largest n whose protocol time fits inside the coherence budget."""
    if coherence_time <= 0 or two_gate_time <= 0:
        raise DomainError("times must be positive")
    ratio = 8 * coherence_time / two_gate_time
    # written so that NaN fails too; an infinite ratio has no integer n
    if not ratio < math.inf:
        raise DomainError(
            f"coherence time {coherence_time:g} s over two-qubit gate time "
            f"{two_gate_time:g} s is too large a ratio to count qubits"
        )
    # protocol_time is non-decreasing in n, but near 2**53 and above a unit
    # step can leave it unchanged, so bisect from the float estimate: lo
    # fits, hi does not
    lo, hi = 1, 2 * int((1 + math.sqrt(1 + ratio)) / 2) + 2
    while protocol_time(hi, two_gate_time) <= coherence_time:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if protocol_time(mid, two_gate_time) <= coherence_time:
            lo = mid
        else:
            hi = mid
    return lo


def feasibility_report(pp: PhysicalParams, n: int | None = None) -> FeasibilityReport:
    """Feasibility arithmetic for an n-qubit protocol on this device."""
    gamma = separation_factor(pp)
    omega_eff = effective_rabi(pp)
    cap = max_qubits(pp.coherence_time, pp.two_gate_time)
    if n is None:
        n = cap
    t_protocol = protocol_time(n, pp.two_gate_time)
    warnings = [
        "effective Rabi frequency carries the unit of the cavity coupling "
        f"(here {omega_eff.value:g} {omega_eff.unit}); kHz-scale figures "
        "sometimes quoted for these defaults are inconsistent with the "
        "ratio formula omega_c * omega2 / delta"
    ]
    if t_protocol > pp.coherence_time:
        warnings.append(
            f"protocol time {t_protocol:g} s exceeds the coherence budget "
            f"{pp.coherence_time:g} s for n = {n}"
        )
    return FeasibilityReport(
        gamma=gamma,
        omega_eff=omega_eff,
        single_gate_time=pp.single_gate_time,
        two_gate_time=pp.two_gate_time,
        protocol_time=t_protocol,
        max_qubits=cap,
        requested_qubits=n,
        warnings=warnings,
    )
