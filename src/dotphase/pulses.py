"""Pulse-level gate physics for the double-dot charge qubit.

Single-qubit pulses act on {|g>, |e>}; the qubit-cavity pulse acts on the
ordered basis {|g0>, |g1>, |e0>, |e1>}. Pulse dynamics depend only on the
dimensionless Rabi angle (Omega * t) and the laser phase, so those are the
stored quantities; absolute frequencies and times enter only the
feasibility arithmetic.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .errors import DimensionError, DomainError, ValidationError, finite_result

if TYPE_CHECKING:
    import numpy as np

# The ideal Hadamard's entries in C order; qpe.IDEAL_HADAMARD is their array.
HADAMARD_ENTRIES = (complex(1 / math.sqrt(2)),) * 3 + (complex(-1 / math.sqrt(2)),)


class GateMode(str, Enum):
    IDEAL = "ideal"
    PULSE_LITERAL = "pulse-literal"


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

    The entries are ``_pulse_parts``'s, put into one array.
    """
    import numpy as np
    return np.array(_pulse_parts(p), dtype=np.complex128).reshape(2, 2)


def _pulse_parts(p: PulseSpec) -> list[complex]:
    """The entries of single_pulse_unitary(p) as Python complex numbers, in C
    order: this layer's one form of a gate.

    cmath.exp rounds as np.exp does on a scalar, signed zeros included; the
    real off-diagonal entry cos(theta) has the +0.0 imaginary part that numpy
    gives a float cast to complex.
    """
    s, c = math.sin(p.rabi_angle), complex(math.cos(p.rabi_angle))
    return [-1j * cmath.exp(-1j * p.phase) * s, c, c, -1j * cmath.exp(1j * p.phase) * s]


def cavity_pulse_unitary(p: PulseSpec) -> np.ndarray:
    """4x4 qubit-cavity evolution on {g0, g1, e0, e1}.

    |g0> and |e1> are exact fixed points; {|g1>, |e0>} undergo a Rabi
    rotation by the effective angle with laser phase p.phase.
    """
    import numpy as np
    u = np.eye(4, dtype=np.complex128)
    # the single pulse's entries with its columns swapped
    a, c, _, d = _pulse_parts(p)
    u[1:3, 1:3] = [[c, a], [d, c]]
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


def gate_distance(a, b) -> float:
    """Frobenius distance minimized over a global phase.

    sqrt(2*dim - 2*|trace(a^dag b)|); zero iff a = e^{i alpha} b. Each gate
    is a square nested list or array.

    Computed on Python floats, one entry at a time in C order: the trace
    from float products and sums on real and imaginary parts, its modulus
    from math.hypot, and the Frobenius residual at the optimal phase the same
    way. No BLAS call and no numpy loop touches a value, so the bits do not
    depend on the host's BLAS kernel or SIMD level, and on a 2x2 gate this
    costs less than numpy's per-call overhead would.
    """
    (xa, shape_a), (xb, shape_b) = _entries(a), _entries(b)
    if shape_a != shape_b or not (xa and xb):
        raise DimensionError(f"incompatible shapes {shape_a}, {shape_b}")
    return _distance(xa, xb, shape_a[0])


def _entries(gate) -> tuple[list[complex], tuple[int, ...]]:
    """A square gate's entries as Python complex numbers in C order (none
    for any other shape), and its shape, from a nested list or an array."""
    rows = gate.tolist() if hasattr(gate, "tolist") else gate
    shape, x = (), rows
    while isinstance(x, (list, tuple)):
        shape, x = shape + (len(x),), x[0] if x else None
    if len(shape) != 2 or any(len(row) != shape[0] for row in rows):
        return [], shape
    return [complex(z) for row in rows for z in row], shape


def _distance(a: list[complex], b: list[complex], dim: int) -> float:
    """gate_distance on two dim x dim gates given by their entries in C order."""
    tr_re = tr_im = 0.0
    for x, y in zip(a, b):
        tr_re += x.real * y.real + x.imag * y.imag
        tr_im += x.real * y.imag - x.imag * y.real
    r = math.hypot(tr_re, tr_im)
    if r < 1e-300:
        return math.sqrt(2.0 * dim)
    # evaluate at the optimal phase z = conj(tr) / |tr| directly; the
    # sqrt(2*dim - 2*|tr|) form loses half the significant digits near zero
    z_re, z_im = tr_re / r, -tr_im / r
    sq = 0.0
    for x, y in zip(a, b):
        d_re = x.real - (z_re * y.real - z_im * y.imag)
        d_im = x.imag - (z_re * y.imag + z_im * y.real)
        sq += d_re * d_re + d_im * d_im
    return math.sqrt(sq)


def fit_pulse(target) -> tuple[PulseSpec, float]:
    """Best single-pulse parameters reproducing ``target`` up to global phase.

    For a pulse U(theta, phi), trace(U^dag T) = sin(theta) A + cos(theta) B
    with A = i (e^{i phi} t00 + e^{-i phi} t11) and B = t01 + t10. A unitary
    target is e^{i alpha} [[p, -conj(q)], [q, conj(p)]], so A and B are
    2i e^{i alpha} times Re(e^{i phi} p) and Im(q): the overlap is largest at
    a phase phi0 = -arg(t00 conj(t11)) / 2 (mod pi), which makes e^{i phi0} p
    real, and then at the top eigenvector over (sin theta, cos theta) of the
    real Gram form [[|A|^2, Re(A conj B)], [Re(A conj B), |B|^2]], which also
    takes up the <= 1e-10 non-unitarity a target may have. Since
    U(theta + pi, phi) = U(pi - theta, phi + pi) = -U(theta, phi), theta in
    [0, pi/2] and phi in [0, 2pi) reach every pulse up to its sign: phi is
    phi0, or phi0 + pi where that makes Re(A conj B) >= 0. Computed on Python
    floats with math and cmath, so the bits do not depend on the host.

    ``target`` is a 2x2 nested list or array. Returns the pulse and its
    residual, ``gate_distance`` of its ``single_pulse_unitary`` and the
    target bit for bit, even when the residual is large (no pulse is near Y,
    whose residual is 2).
    """
    t, shape = _entries(target)
    if shape != (2, 2) or not t:
        raise DimensionError("target must be 2x2")
    if not all(map(cmath.isfinite, t)):
        raise ValidationError("target has a non-finite entry")
    dev = 0.0
    for i in (0, 1):
        for j in (0, 1):
            # entry (i, j) of T^H T, summed down the rows as numpy sums it;
            # math.hypot gives inf where abs() would overflow. An overflow
            # can leave a NaN off the diagonal, never on it, whose real part
            # sums squares: max() passes over the NaN, keeping that inf
            g = t[i].conjugate() * t[j] + t[2 + i].conjugate() * t[2 + j]
            dev = max(dev, math.hypot(g.real - (i == j), g.imag))
    if not dev <= 1e-10:
        raise ValidationError(f"target is not unitary (deviation {dev:.3e})")

    t00, t01, t10, t11 = t
    # mod pi, so that a signed zero on arg's branch cut gives the same phase
    phase = (-0.5 * cmath.phase(t00 * t11.conjugate())) % math.pi
    w = cmath.exp(1j * phase)
    a = 1j * (w * t00 + w.conjugate() * t11)
    b = t01 + t10
    cross = (a * b.conjugate()).real
    if cross < 0:
        # phi + pi flips the sign of A and so of cross; mod 2pi, since the
        # phase mod pi can round up to pi itself
        phase = (phase + math.pi) % math.tau
    rabi = math.pi / 2 - 0.5 * math.atan2(2 * abs(cross), abs(a) ** 2 - abs(b) ** 2)
    spec = PulseSpec(rabi, phase)
    return spec, _distance(_pulse_parts(spec), t, 2)


def effective_rabi(pp: PhysicalParams) -> Quantity:
    """Effective two-photon Rabi frequency Omega_c * (Omega_2 / delta).

    Omega_2 and delta share the meV unit, so the ratio is dimensionless and
    the result carries the unit of Omega_c (MHz).
    """
    return Quantity(finite_result("effective Rabi frequency",
                                  lambda: pp.omega_c * (pp.omega2 / pp.delta)), "MHz")


def separation_factor(pp: PhysicalParams) -> float:
    """Spatial separation factor t^2 / (Delta^2 + t^2), in [0, 1]."""
    t, d = pp.tunneling_t, pp.level_split_delta
    return finite_result("separation factor", lambda: t * t / (d * d + t * t))


def protocol_time(n: int, two_gate_time: float) -> float:
    """Total two-qubit-gate time n(n-1)/2 * tau for an n-qubit run."""
    if n < 1:
        raise DomainError(f"qubit count must be >= 1, got {n}")
    return finite_result("protocol time", lambda: n * (n - 1) / 2 * two_gate_time)


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

    def fits(n: int) -> bool:
        # a protocol time past the float range is past any finite budget
        try:
            return protocol_time(n, two_gate_time) <= coherence_time
        except DomainError:
            return False

    # protocol_time is non-decreasing in n, but near 2**53 and above a unit
    # step can leave it unchanged, so bisect from the float estimate: lo
    # fits, hi does not
    lo, hi = 1, 2 * int((1 + math.sqrt(1 + ratio)) / 2) + 2
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
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
